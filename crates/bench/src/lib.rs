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
//!
//! The wall-clock benches' measurements live here too — [`simd_speedup`],
//! [`serve_load`], [`serve_overload`], [`loader_passes`],
//! [`preprocess_shares`] and [`rebalance_skew`] — so that each bench only
//! prints and dumps its rows, and each bound on them is one release-only
//! case of `tests/gates.rs`.

mod figures;
mod loader;
mod preprocess;
mod serve;
mod simd;
mod table;

pub use figures::{Figure, FIGURES};
pub use loader::{loader_passes, LoaderPass};
pub use preprocess::{preprocess_shares, PreprocessShare};
pub use serve::{serve_load, serve_overload, LoadRow, ServeSweep};
pub use simd::{simd_speedup, SimdRow, SimdSpeedup};
pub use table::Report;

use std::fs;
use std::io;
use std::path::PathBuf;
use torchgt_comm::FaultPlan;
use torchgt_graph::partition::{cluster_order, partition};
use torchgt_graph::{augment_for_conditions, CsrGraph, DatasetKind, GraphDataset, NodeDataset};
use torchgt_model::{Arch, GraphormerConfig, Gt, GtConfig, SequenceModel};
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_runtime::{
    prepare_node_dataset, train_distributed, AutoTuner, BatchedGraphTrainer, DistributedJob,
    DistributedRun, EpochStats, Method, NodeTrainer, RebalancePolicy, TrainConfig,
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
    /// Table IV shape for the cost model: the paper configuration's own.
    fn paper_shape(self) -> ModelShape {
        let arch = match self {
            BenchModel::GraphormerSlim => Arch::Graphormer(GraphormerConfig::slim(0, 0)),
            BenchModel::GraphormerLarge => Arch::Graphormer(GraphormerConfig::large(0, 0)),
            BenchModel::Gt => Arch::Gt(GtConfig::standard(0, 0)),
        };
        arch.shape()
    }

    /// Display name matching the paper.
    fn label(self) -> &'static str {
        match self {
            BenchModel::GraphormerSlim => "GPH_Slim",
            BenchModel::GraphormerLarge => "GPH_Large",
            BenchModel::Gt => "GT",
        }
    }

    /// Functional architecture: the paper config scaled down, FFN ×2.
    fn arch(self, feat_dim: usize, out_dim: usize) -> Arch {
        let graphormer = |hidden, layers, heads| {
            Arch::Graphormer(GraphormerConfig { hidden, layers, heads, ffn_mult: 2, ..GraphormerConfig::slim(feat_dim, out_dim) })
        };
        match self {
            BenchModel::GraphormerSlim => graphormer(32, 3, 4),
            BenchModel::GraphormerLarge => graphormer(64, 4, 8),
            BenchModel::Gt => Arch::Gt(GtConfig { hidden: 32, layers: 3, heads: 4, ffn_mult: 2, ..GtConfig::standard(feat_dim, out_dim) }),
        }
    }

    /// Functional (scaled-down) model instance.
    fn build(self, feat_dim: usize, out_dim: usize, seed: u64) -> Box<dyn SequenceModel> {
        self.arch(feat_dim, out_dim).build(seed)
    }

    /// A node trainer for this model on `data`, the model seeded with
    /// `cfg.seed`.
    fn node_trainer(self, cfg: TrainConfig, data: &NodeDataset) -> NodeTrainer {
        NodeTrainer::new(cfg, data, self.build(data.feat_dim, data.num_classes, cfg.seed))
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
fn functional_node_run(
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

/// What [`rebalance_skew`] measured: a data-parallel GT run over three
/// ranks with rank 1 slowed on every send, once with the static assignment
/// and once with the closed loop.
pub struct RebalanceSkew {
    /// Sequences in the stream.
    pub sequences: usize,
    /// Seconds per step of the fault-free calibration epoch.
    pub step_s: f64,
    /// The injected per-send delay of the slowed rank, seconds.
    pub slow_delay_s: f64,
    /// The static-assignment pass.
    pub fixed: DistributedRun,
    /// The closed-loop pass.
    pub closed: DistributedRun,
    /// Static over closed-loop wall seconds on the last three epochs.
    pub tail_speedup: f64,
}

/// Closed-loop straggler rebalancing under skew (§III-C, Fig. 7 setting):
/// a fault-free epoch calibrates the step time, then rank 1 of `P = 3` is
/// slowed by a per-send delay that makes its injected comm per owned
/// sequence ≈ 2.5 × a step's compute (each owned sequence costs its owner
/// `P − 1` sends), and the same six epochs run with the static assignment
/// and with the closed loop (`StepLedger` → `RebalancePolicy` → re-cut).
pub fn rebalance_skew() -> io::Result<RebalanceSkew> {
    const WORLD: usize = 3;
    const EPOCHS: usize = 6;
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.02, 23);
    let (feat, classes) = (dataset.feat_dim, dataset.num_classes);
    let factory = move || Box::new(Gt::new(GtConfig::tiny(feat, classes), 11)) as Box<dyn SequenceModel>;
    let pass = |epochs, plan, rebalance| {
        train_distributed(&DistributedJob {
            plan,
            rebalance,
            ..DistributedJob::new(&dataset, config(Method::GpSparse, 64, epochs, 2e-3, 7), WORLD, factory)
        })
    };
    let warm = pass(1, FaultPlan::default(), None)?;
    let sequences: usize = warm.final_counts.iter().sum();
    let step_s = warm.epoch_seconds[0] / sequences.div_ceil(WORLD) as f64;
    let slow_delay_s = 2.5 * step_s / (WORLD - 1) as f64;
    let plan = FaultPlan::slow(1, slow_delay_s);
    let fixed = pass(EPOCHS, plan, None)?;
    let closed = pass(EPOCHS, plan, Some(RebalancePolicy { threshold: 1.3, patience: 2, alpha: 0.5 }))?;
    let tail = |r: &DistributedRun| r.epoch_seconds[EPOCHS - 3..].iter().sum::<f64>();
    let tail_speedup = tail(&fixed) / tail(&closed);
    Ok(RebalanceSkew { sequences, step_s, slow_delay_s, fixed, closed, tail_speedup })
}
