//! The graph-level trainer (ZINC / ogbg-molpcba / MalNet-style tasks): the
//! [`EpochLoop`] over one graph per sequence — its nodes are the tokens, and
//! a mean-pool readout turns per-token logits into one prediction per graph.

use crate::config::{Method, TrainConfig};
use crate::engine::{Batch, BatchSource, CostSpec, EpochLoop, Target};
use std::time::Instant;
use torchgt_comm::ClusterTopology;
use torchgt_graph::spd::spd_matrix;
use torchgt_graph::{check_conditions, ConditionReport, CsrGraph, GraphDataset, GraphLabel};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_sparse::{access_profile, topology_mask, AccessProfile};
use torchgt_tensor::Tensor;

/// Sequences longer than this skip the `O(s²)` SPD matrix (dense bias).
const SPD_LIMIT: usize = 512;

struct PreparedSample {
    features: Tensor,
    graph: CsrGraph,
    mask: CsrGraph,
    spd: Option<Vec<u8>>,
    profile: AccessProfile,
    report: ConditionReport,
    label: GraphLabel,
}

/// Per-graph samples with their masks and SPD matrices, split 80/20 by
/// sample order.
pub struct GraphSource {
    samples: Vec<PreparedSample>,
    train_idx: Vec<usize>,
    test_idx: Vec<usize>,
    /// Wall-clock seconds spent preparing masks/SPD (the §IV-E cost).
    pub preprocess_seconds: f64,
    /// Preprocess seconds not yet attributed to an epoch trace.
    pending_preprocess_s: f64,
}

/// Trainer over a graph-level dataset.
pub type GraphTrainer = EpochLoop<GraphSource>;

impl GraphTrainer {
    /// Prepare a dataset (masks, SPD matrices) and build the trainer.
    pub fn new(
        cfg: TrainConfig,
        dataset: &GraphDataset,
        model: Box<dyn SequenceModel>,
        shape: ModelShape,
        gpu: GpuSpec,
        topology: ClusterTopology,
    ) -> Self {
        let source = GraphSource::new(&cfg, dataset, shape);
        EpochLoop::with_source(cfg, model, Some(CostSpec { gpu, topology, shape }), source)
    }
}

impl GraphSource {
    fn new(cfg: &TrainConfig, dataset: &GraphDataset, shape: ModelShape) -> Self {
        let t0 = Instant::now();
        // With interleaving on, the periodic dense pass gives global reach,
        // so C3 only requires connectivity (mirrors the node-level source).
        let layers = if cfg.interleave_period > 0 {
            u8::MAX - 1
        } else {
            shape.layers.min(u8::MAX as usize) as u8
        };
        let want_spd = cfg.method != Method::GpFlash;
        let samples: Vec<PreparedSample> = dataset
            .samples
            .iter()
            .map(|s| {
                let n = s.graph.num_nodes();
                let mask = topology_mask(&s.graph, true);
                PreparedSample {
                    profile: access_profile(&mask),
                    report: check_conditions(&mask, layers),
                    features: Tensor::from_vec(n, s.feat_dim, s.features.clone()),
                    graph: s.graph.clone(),
                    spd: (want_spd && n <= SPD_LIMIT).then(|| spd_matrix(&s.graph, 8)),
                    mask,
                    label: s.label,
                }
            })
            .collect();
        let n = samples.len();
        let split = (n * 8) / 10;
        let preprocess_seconds = t0.elapsed().as_secs_f64();
        Self {
            train_idx: (0..split).collect(),
            test_idx: (split..n).collect(),
            samples,
            preprocess_seconds,
            pending_preprocess_s: preprocess_seconds,
        }
    }
}

impl BatchSource for GraphSource {
    fn for_each(&mut self, _epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        for (held_out, idxs) in [(false, &self.train_idx), (true, &self.test_idx)] {
            for &idx in idxs {
                let s = &self.samples[idx];
                step(&Batch {
                    seq: SequenceBatch {
                        features: &s.features,
                        graph: &s.graph,
                        spd: s.spd.as_deref(),
                    },
                    mask: &s.mask,
                    full_mask: None,
                    report: Some(s.report),
                    profile: s.profile,
                    reform_ratio: 1.0,
                    target: Target::Graphs {
                        segments: None,
                        labels: std::slice::from_ref(&s.label),
                        held_out,
                    },
                });
            }
        }
    }

    fn take_preprocess_s(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preprocess_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Gt, GtConfig};

    fn trainer_for(method: Method, epochs: usize) -> GraphTrainer {
        let data = DatasetKind::Zinc.generate_graphs(30, 1.0, 5);
        let mut cfg = TrainConfig::new(method, 64, epochs);
        cfg.interleave_period = 3;
        cfg.lr = 3e-3;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 1), 7));
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        GraphTrainer::new(
            cfg,
            &data,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        )
    }

    #[test]
    fn regression_loss_decreases() {
        let mut t = trainer_for(Method::TorchGt, 6);
        let stats = t.run();
        assert!(
            stats.last().unwrap().loss < stats.first().unwrap().loss,
            "{} → {}",
            stats.first().unwrap().loss,
            stats.last().unwrap().loss
        );
    }

    #[test]
    fn classification_on_malnet_like() {
        let data = DatasetKind::MalNet.generate_graphs(20, 0.002, 3);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 4);
        cfg.lr = 2e-3;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 5), 9));
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut t = GraphTrainer::new(
            cfg,
            &data,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
        let stats = t.run();
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss * 1.5);
        assert!(stats.iter().all(|s| s.sim_seconds > 0.0));
    }

    #[test]
    fn torchgt_runs_sparse_on_large_graphs() {
        // MalNet-like graphs are big enough for the sparse pattern to engage
        // (the Table V speed gap itself is asserted at paper scale in the
        // perf crate and reproduced by the bench harness).
        let data = DatasetKind::MalNet.generate_graphs(6, 0.02, 4);
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, 1);
        cfg.interleave_period = 4;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 5), 9));
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut t = GraphTrainer::new(
            cfg,
            &data,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
        let stats = t.train_epoch();
        assert!(stats.sparse_iters > 0, "sparse pattern must engage");
        assert!(stats.sim_seconds > 0.0);
    }

    #[test]
    fn split_is_8020() {
        let t = trainer_for(Method::GpSparse, 1);
        assert_eq!(t.train_idx.len(), 24);
        assert_eq!(t.test_idx.len(), 6);
    }
}
