//! Shared machinery for the harnesses in `benches/`.
//!
//! The paper's evaluation is one registry, [`FIGURES`]: each table and
//! figure of TorchGT §V, and two ablations, is an entry whose `run`
//! regenerates its rows and names its paper-shape checks, and
//! `benches/paper_shapes.rs` runs it. Two measurement modes combine (see
//! DESIGN.md):
//!
//! * **functional** — real training of the Rust models on scaled synthetic
//!   stand-ins, producing real loss/accuracy numbers;
//! * **simulated-time** — layout statistics measured on the real masks are
//!   extrapolated to the paper-scale sequence lengths and priced by the
//!   `torchgt-perf` cost model on the published GPU specs.

mod figures;
mod table;

pub use figures::{Figure, FIGURES};
pub use table::Report;

use std::fs;
use std::path::PathBuf;
use torchgt_graph::partition::{cluster_order, partition};
use torchgt_graph::{augment_for_conditions, CsrGraph, DatasetKind, GraphDataset, NodeDataset};
use torchgt_model::{Graphormer, GraphormerConfig, Gt, GtConfig, SequenceModel};
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_runtime::{
    prepare_node_dataset, AutoTuner, BatchedGraphTrainer, EpochStats, Method, NodeTrainer,
    TrainConfig,
};
use torchgt_sparse::{reform, ReformConfig};

/// Print a standard experiment banner.
pub fn banner(name: &str, paper_ref: &str) {
    println!("\n================================================================");
    println!("{name}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

/// Write machine-readable rows next to the human-readable table.
pub fn dump_json(name: &str, value: &torchgt_compat::json::Value) {
    write_json("experiments", name, value);
}

/// Write a run's recorder dump to `target/run_metrics/<name>.json`. Its
/// wall-clock fields differ run to run, so it stays out of
/// `target/experiments/`, which two runs of the same code write identically.
pub(crate) fn dump_run_metrics(name: &str, value: &torchgt_compat::json::Value) {
    write_json("run_metrics", name, value);
}

fn write_json(subdir: &str, name: &str, value: &torchgt_compat::json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target").join(subdir);
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = torchgt_compat::json::to_string_pretty(value) {
            let _ = fs::write(&path, s);
            println!("[rows written to {}]", path.display());
        }
    }
}

/// Which model to instantiate for functional runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchModel {
    /// Graphormer-slim (functional runs use a width-reduced variant; sim
    /// time uses the true Table IV shape).
    GraphormerSlim,
    /// Graphormer-large.
    GraphormerLarge,
    /// GT.
    Gt,
}

impl BenchModel {
    /// Table IV shape for the cost model.
    fn paper_shape(self) -> ModelShape {
        match self {
            BenchModel::GraphormerSlim => ModelShape::graphormer_slim(),
            BenchModel::GraphormerLarge => ModelShape::graphormer_large(),
            BenchModel::Gt => ModelShape::gt(),
        }
    }

    /// Display name matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            BenchModel::GraphormerSlim => "GPH_Slim",
            BenchModel::GraphormerLarge => "GPH_Large",
            BenchModel::Gt => "GT",
        }
    }

    /// Functional (scaled-down) model instance.
    fn build(self, feat_dim: usize, out_dim: usize, seed: u64) -> Box<dyn SequenceModel> {
        let graphormer = |hidden, layers, heads| -> Box<dyn SequenceModel> {
            let cfg = GraphormerConfig {
                feat_dim,
                hidden,
                layers,
                heads,
                ffn_mult: 2,
                out_dim,
                max_degree: 64,
                max_spd: 8,
                dropout: 0.1,
            };
            Box::new(Graphormer::new(cfg, seed))
        };
        match self {
            BenchModel::GraphormerSlim => graphormer(32, 3, 4),
            BenchModel::GraphormerLarge => graphormer(64, 4, 8),
            BenchModel::Gt => Box::new(Gt::new(
                GtConfig {
                    feat_dim,
                    hidden: 32,
                    layers: 3,
                    heads: 4,
                    ffn_mult: 2,
                    out_dim,
                    pe_dim: 8,
                    dropout: 0.1,
                },
                seed,
            )),
        }
    }

    /// Functional shape (matches [`BenchModel::build`]).
    pub fn functional_shape(self) -> ModelShape {
        match self {
            BenchModel::GraphormerSlim => ModelShape { layers: 3, hidden: 32, heads: 4 },
            BenchModel::GraphormerLarge => ModelShape { layers: 4, hidden: 64, heads: 8 },
            BenchModel::Gt => ModelShape { layers: 3, hidden: 32, heads: 4 },
        }
    }

    /// A node trainer for this model on `data`, the model seeded with
    /// `cfg.seed`.
    fn node_trainer(self, cfg: TrainConfig, data: &NodeDataset) -> NodeTrainer {
        let model = self.build(data.feat_dim, data.num_classes, cfg.seed);
        NodeTrainer::new(cfg, data, model, self.functional_shape())
    }
}

/// A run configuration with the learning rate and seed set.
fn config(method: Method, seq_len: usize, epochs: usize, lr: f32, seed: u64) -> TrainConfig {
    TrainConfig { lr, seed, ..TrainConfig::new(method, seq_len, epochs) }
}

/// A graph-level trainer over one graph per step (the pack of one). Packed
/// steps are not priced: their `sim_seconds` is 0.
fn graph_trainer(cfg: TrainConfig, data: &GraphDataset, model: Box<dyn SequenceModel>) -> BatchedGraphTrainer {
    BatchedGraphTrainer::new(cfg, data, model, 1)
}

/// Run a short functional node-level training (learning rate 2e-3, run and
/// model seeded with `seed`) and return its epoch history.
pub fn functional_node_run(
    dataset: &NodeDataset,
    method: Method,
    model: BenchModel,
    seq_len: usize,
    epochs: usize,
    seed: u64,
) -> (Vec<EpochStats>, NodeTrainer) {
    let mut trainer = model.node_trainer(config(method, seq_len, epochs, 2e-3, seed), dataset);
    (trainer.run(), trainer)
}

/// The first 1,024-token sequence of the arxiv stand-in, reformed as
/// `NodeTrainer::new` reforms it — the mask the perf ledger's `node_long`
/// attention probe runs on.
pub fn node_long_mask() -> CsrGraph {
    let (seed, seq_len, hidden) = (1, 1024, 64);
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.048, seed);
    let gpu = GpuSpec::rtx3090();
    let k = gpu.tune_k(hidden);
    let prepared = prepare_node_dataset(&dataset, seq_len, true, k, seed);
    let seq = &prepared.sequences[0];
    let assign = partition(&seq.mask, k.min(seq.mask.num_nodes().max(1)), seed);
    let clusters = assign.iter().copied().max().unwrap_or(0) as usize + 1;
    let order = cluster_order(&assign, clusters);
    let db = AutoTuner::tune_shape(&gpu, hidden, seq.mask.num_arcs()).1;
    let beta_thre = AutoTuner::new(prepared.beta_g, 10).beta_thre();
    let reformed = reform(&seq.mask.permute(&order.perm), &order, ReformConfig { db, beta_thre });
    augment_for_conditions(&reformed.mask.permute(&order.inverse))
}
