//! # torchgt
//!
//! A Rust reproduction of **TorchGT: A Holistic System for Large-Scale Graph
//! Transformer Training** (SC 2024).
//!
//! TorchGT scales graph-transformer training to million-token sequences with
//! three co-designed techniques:
//!
//! 1. **Dual-interleaved Attention** — topology-induced `O(E)` sparse
//!    attention, safety-checked by three structural conditions and
//!    periodically interleaved with fully-connected passes;
//! 2. **Cluster-aware Graph Parallelism** — sequence parallelism over graph
//!    tokens reordered by a METIS-style clustering, exchanged with
//!    `O(S/P)`-volume all-to-all collectives;
//! 3. **Elastic Computation Reformation** — sparse attention clusters
//!    compacted into dense sub-blocks, throttled by an LDR-driven Auto
//!    Tuner.
//!
//! This crate is the facade: it re-exports the substrate crates and offers
//! [`TorchGtBuilder`], a one-stop entry point that wires a dataset, a model
//! and a method into a ready [`NodeTrainer`].
//!
//! ```
//! use torchgt::prelude::*;
//!
//! let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 7);
//! let mut trainer = TorchGtBuilder::new(Method::TorchGt)
//!     .seq_len(256)
//!     .epochs(2)
//!     .hidden(32)
//!     .layers(2)
//!     .heads(4)
//!     .build_node(&dataset)
//!     .expect("valid configuration");
//! let stats = trainer.run();
//! assert_eq!(stats.len(), 2);
//! ```

pub use torchgt_ckpt as ckpt;
pub use torchgt_comm as comm;
pub use torchgt_data as data;
pub use torchgt_faults as faults;
pub use torchgt_graph as graph;
pub use torchgt_model as model;
pub use torchgt_obs as obs;
pub use torchgt_perf as perf;
pub use torchgt_runtime as runtime;
pub use torchgt_serve as serve;
pub use torchgt_sparse as sparse;
pub use torchgt_tensor as tensor;

pub mod error;
pub use error::BuildError;
pub use torchgt_model::ModelKind;

use torchgt_data::ShardLoader;
use torchgt_graph::{GraphDataset, NodeDataset};
use torchgt_model::{Arch, GraphormerConfig, GtConfig};
use torchgt_runtime::{BatchedGraphTrainer, Method, NodeTrainer, StreamingTrainer, TrainConfig};
use torchgt_tensor::Precision;

/// Fluent builder for a complete training setup.
#[derive(Clone, Debug)]
pub struct TorchGtBuilder {
    method: Method,
    model: ModelKind,
    seq_len: usize,
    epochs: usize,
    lr: f32,
    hidden: usize,
    layers: usize,
    heads: usize,
    interleave_period: usize,
    precision: Option<Precision>,
    beta_thre: Option<f64>,
    seed: u64,
}

impl TorchGtBuilder {
    /// Start a builder for the given training method.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            model: ModelKind::Graphormer,
            seq_len: 1024,
            epochs: 10,
            lr: 1e-3,
            hidden: 64,
            layers: 4,
            heads: 8,
            interleave_period: 8,
            precision: None,
            beta_thre: None,
            seed: 1,
        }
    }

    /// Select the model family (default: Graphormer).
    pub fn model(mut self, kind: ModelKind) -> Self {
        self.model = kind;
        self
    }

    /// Sequence length in tokens.
    pub fn seq_len(mut self, s: usize) -> Self {
        self.seq_len = s;
        self
    }

    /// Training epochs.
    pub fn epochs(mut self, e: usize) -> Self {
        self.epochs = e;
        self
    }

    /// Adam learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Hidden width.
    pub fn hidden(mut self, d: usize) -> Self {
        self.hidden = d;
        self
    }

    /// Transformer depth.
    pub fn layers(mut self, l: usize) -> Self {
        self.layers = l;
        self
    }

    /// Attention heads.
    pub fn heads(mut self, h: usize) -> Self {
        self.heads = h;
        self
    }

    /// Interleave a fully-connected pass every `n` iterations (0 = never).
    pub fn interleave_period(mut self, n: usize) -> Self {
        self.interleave_period = n;
        self
    }

    /// Override the numeric precision (defaults from the method).
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = Some(p);
        self
    }

    /// Pin the reformation threshold instead of the elastic Auto Tuner.
    pub fn beta_thre(mut self, beta: f64) -> Self {
        self.beta_thre = Some(beta);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn train_config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::new(self.method, self.seq_len, self.epochs);
        cfg.lr = self.lr;
        cfg.interleave_period = self.interleave_period;
        cfg.beta_thre = self.beta_thre;
        cfg.seed = self.seed;
        if let Some(p) = self.precision {
            cfg.precision = p;
        }
        cfg
    }

    /// The architecture over `feat_dim` inputs and `out_dim` outputs: the
    /// family's paper config (Graphormer-slim's, GT's) at the builder's
    /// width, depth and heads. Each trainer builds its model through it,
    /// from a configuration [`Self::validate`] accepted.
    fn arch(&self, feat_dim: usize, out_dim: usize) -> Arch {
        let Self { hidden, layers, heads, .. } = *self;
        match self.model {
            ModelKind::Graphormer => {
                Arch::Graphormer(GraphormerConfig { hidden, layers, heads, ..GraphormerConfig::slim(feat_dim, out_dim) })
            }
            ModelKind::Gt => Arch::Gt(GtConfig { hidden, layers, heads, ..GtConfig::standard(feat_dim, out_dim) }),
        }
    }

    /// Validate the dimensional configuration shared by both trainer kinds.
    /// Whether the heads divide the hidden width is [`Arch::check`]'s rule,
    /// which needs no data widths.
    fn validate(&self) -> Result<(), BuildError> {
        if self.seq_len == 0 {
            return Err(BuildError::ZeroSeqLen);
        }
        if self.hidden == 0 {
            return Err(BuildError::ZeroHidden);
        }
        if self.layers == 0 {
            return Err(BuildError::ZeroLayers);
        }
        if self.heads == 0 {
            return Err(BuildError::ZeroHeads);
        }
        let (hidden, heads) = (self.hidden, self.heads);
        self.arch(0, 0).check().map_err(|_| BuildError::HeadsDontDivideHidden { hidden, heads })
    }

    /// Build a node-level trainer over the dataset. Fails fast — before any
    /// preprocessing — when the configuration cannot produce a model.
    pub fn build_node(&self, dataset: &NodeDataset) -> Result<NodeTrainer, BuildError> {
        self.validate()?;
        if dataset.graph.num_nodes() == 0 {
            return Err(BuildError::EmptyDataset);
        }
        if dataset.num_classes == 0 {
            return Err(BuildError::ZeroOutDim);
        }
        let model = self.arch(dataset.feat_dim, dataset.num_classes).build(self.seed);
        Ok(NodeTrainer::new(self.train_config(), dataset, model))
    }

    /// Build a graph-level trainer over the dataset, one graph per step
    /// (the pack of one). `out_dim` is the class count (or 1 for
    /// regression). Fails fast when the configuration cannot produce a
    /// model.
    pub fn build_graph(
        &self,
        dataset: &GraphDataset,
        out_dim: usize,
    ) -> Result<BatchedGraphTrainer, BuildError> {
        self.validate()?;
        if dataset.samples.is_empty() {
            return Err(BuildError::EmptyDataset);
        }
        if out_dim == 0 {
            return Err(BuildError::ZeroOutDim);
        }
        let model = self.arch(dataset.feat_dim, out_dim).build(self.seed);
        Ok(BatchedGraphTrainer::new(self.train_config(), dataset, model, 1))
    }

    /// Build an out-of-core node-level trainer fed from an opened
    /// [`ShardLoader`]. The model's input/output widths come from the
    /// dataset manifest — no shard is read during construction. Only GP-*
    /// methods can stream ([`BuildError::MethodCannotStream`] otherwise).
    pub fn build_streaming(&self, loader: ShardLoader) -> Result<StreamingTrainer, BuildError> {
        self.validate()?;
        if self.method == Method::TorchGt {
            return Err(BuildError::MethodCannotStream);
        }
        let m = loader.manifest();
        if m.total_nodes == 0 {
            return Err(BuildError::EmptyDataset);
        }
        if m.num_classes == 0 {
            return Err(BuildError::ZeroOutDim);
        }
        let model = self.arch(m.feat_dim as usize, m.num_classes as usize).build(self.seed);
        Ok(StreamingTrainer::new(self.train_config(), loader, model))
    }
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{BuildError, ModelKind, TorchGtBuilder};
    pub use torchgt_ckpt::{CheckpointStore, Snapshot};
    pub use torchgt_comm::{
        ClusterTopology, CrashPoint, FaultPlan, Interconnect, Membership, RankFailure,
        StragglerReport,
    };
    pub use torchgt_data::{
        generate_to_dir, load_node_dataset, DatagenReport, Manifest, ShardLoader,
        ShardQuarantined,
    };
    pub use torchgt_faults::{DiskFaultPlan, FaultSpec, ServeFaultPlan};
    pub use torchgt_graph::{
        DatasetKind, EffectiveSpec, GraphDataset, GraphLabel, NodeDataset, TaskKind,
    };
    pub use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
    pub use torchgt_obs::{
        MemoryRecorder, MetricsReport, NoopRecorder, Recorder, RecorderHandle,
    };
    pub use torchgt_perf::{GpuSpec, ModelShape};
    pub use torchgt_runtime::{
        run_with_checkpoints, train_distributed, BatchedGraphTrainer, CheckpointOptions,
        DistributedJob, DistributedRun, EpochStats, Method, NodeTrainer, RankLoss,
        RecoveryPolicy, ResumeOutcome, StreamingTrainer, TrainConfig, Trainer,
    };
    pub use torchgt_serve::{
        CalibSet, Freezable, FreezeError, FreezeOptions, FrozenExecutor, FrozenModel,
        Overloaded, QuantScheme, ServeConfig, ServeLoop, ServeReply, ServeStats, ShedReason,
        ShutdownHandle,
    };
    pub use torchgt_sparse::LayoutKind;
    pub use torchgt_tensor::{Precision, Tensor};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn builder_produces_working_node_trainer() {
        let dataset = DatasetKind::Flickr.generate_node(0.01, 3);
        let mut trainer = TorchGtBuilder::new(Method::TorchGt)
            .seq_len(300)
            .epochs(2)
            .hidden(32)
            .layers(2)
            .heads(4)
            .lr(2e-3)
            .build_node(&dataset)
            .expect("valid node configuration");
        let stats = trainer.run();
        assert_eq!(stats.len(), 2);
        assert!(stats[1].loss <= stats[0].loss * 1.2);
    }

    #[test]
    fn builder_produces_working_graph_trainer() {
        let dataset = DatasetKind::Zinc.generate_graphs(10, 1.0, 4);
        let mut trainer = TorchGtBuilder::new(Method::GpSparse)
            .model(crate::ModelKind::Gt)
            .epochs(1)
            .hidden(16)
            .layers(2)
            .heads(2)
            .build_graph(&dataset, 1)
            .expect("valid graph configuration");
        let stats = trainer.run();
        assert_eq!(stats.len(), 1);
    }

    #[test]
    fn misconfiguration_is_reported_not_panicked() {
        let node = DatasetKind::OgbnArxiv.generate_node(0.002, 5);
        let graphs = DatasetKind::Zinc.generate_graphs(4, 1.0, 4);
        let base = || TorchGtBuilder::new(Method::TorchGt).hidden(32).layers(2).heads(4);
        assert_eq!(base().seq_len(0).build_node(&node).err(), Some(BuildError::ZeroSeqLen));
        assert_eq!(base().hidden(0).build_node(&node).err(), Some(BuildError::ZeroHidden));
        assert_eq!(base().layers(0).build_node(&node).err(), Some(BuildError::ZeroLayers));
        assert_eq!(base().heads(0).build_node(&node).err(), Some(BuildError::ZeroHeads));
        assert_eq!(
            base().hidden(30).build_node(&node).err(),
            Some(BuildError::HeadsDontDivideHidden { hidden: 30, heads: 4 })
        );
        assert_eq!(
            base().build_graph(&graphs, 0).err(),
            Some(BuildError::ZeroOutDim)
        );
        let empty = GraphDataset { samples: Vec::new(), ..graphs.clone() };
        assert_eq!(base().build_graph(&empty, 1).err(), Some(BuildError::EmptyDataset));
        // The shape is checked before the dataset: bad heads win over a
        // dataset-side error.
        let odd = Some(BuildError::HeadsDontDivideHidden { hidden: 30, heads: 4 });
        assert_eq!(base().hidden(30).build_graph(&graphs, 0).err(), odd);
        assert_eq!(base().hidden(30).build_graph(&empty, 1).err(), odd);
    }

    #[test]
    fn checked_builder_is_the_single_entry_point() {
        let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 5);
        let trainer = TorchGtBuilder::new(Method::GpSparse)
            .seq_len(128)
            .epochs(1)
            .hidden(16)
            .layers(2)
            .heads(2)
            .build_node(&dataset)
            .expect("valid configuration");
        assert_eq!(trainer.cfg.seq_len, 128);
    }

    #[test]
    fn misconfig_is_a_typed_error_not_a_panic() {
        let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 5);
        let err = TorchGtBuilder::new(Method::TorchGt)
            .heads(3)
            .hidden(32)
            .build_node(&dataset)
            .err();
        assert_eq!(err, Some(BuildError::HeadsDontDivideHidden { hidden: 32, heads: 3 }));
    }

    #[test]
    fn precision_override_applies() {
        let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 5);
        let trainer = TorchGtBuilder::new(Method::TorchGt)
            .seq_len(200)
            .epochs(1)
            .hidden(16)
            .layers(2)
            .heads(2)
            .precision(Precision::Bf16)
            .build_node(&dataset)
            .expect("valid configuration");
        assert_eq!(trainer.cfg.precision, Precision::Bf16);
    }
}
