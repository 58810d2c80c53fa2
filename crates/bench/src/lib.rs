//! Shared machinery for the experiment harnesses in `benches/`.
//!
//! Every table and figure of the TorchGT paper has a bench target that
//! regenerates its rows/series. Two measurement modes combine (see
//! DESIGN.md):
//!
//! * **functional** — real training of the Rust models on scaled synthetic
//!   stand-ins, producing real loss/accuracy numbers;
//! * **simulated-time** — layout statistics measured on the real masks are
//!   extrapolated to the paper-scale sequence lengths and priced by the
//!   `torchgt-perf` cost model on the published GPU specs.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use torchgt_obs::{MemoryRecorder, MetricsReport};
use torchgt_runtime::Trainer;
use torchgt_graph::partition::{cluster_order, partition};
use torchgt_graph::{augment_for_conditions, CsrGraph, DatasetKind, DatasetSpec, NodeDataset};
use torchgt_perf::{epoch_cost, GpuSpec, IterationCost, ModelShape, StepSpec};
use torchgt_runtime::{prepare_node_dataset, AutoTuner, EpochStats, Method, NodeTrainer, TrainConfig};
use torchgt_sparse::{access_profile, dense_profile, reform, AccessProfile, LayoutKind, ReformConfig};
use torchgt_comm::ClusterTopology;
use torchgt_model::{Graphormer, GraphormerConfig, Gt, GtConfig, SequenceModel};

/// Print a standard experiment banner.
pub fn banner(name: &str, paper_ref: &str) {
    println!("\n================================================================");
    println!("{name}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

/// Write machine-readable rows next to the human-readable table.
pub fn dump_json(name: &str, value: &torchgt_compat::json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = torchgt_compat::json::to_string_pretty(value) {
            let _ = fs::write(&path, s);
            println!("[rows written to {}]", path.display());
        }
    }
}

/// Measured memory-locality statistics of the three layouts on a scaled
/// stand-in graph — the *transferable* quantities extrapolated to paper
/// scale.
#[derive(Clone, Copy, Debug)]
pub struct LayoutRuns {
    /// Mean run length of the raw (unordered) topology pattern.
    pub raw_run: f64,
    /// Mean run length after cluster reordering.
    pub clustered_run: f64,
    /// Mean run length after Elastic Computation Reformation.
    pub reformed_run: f64,
    /// nnz inflation factor of the reformation (pattern padding).
    pub nnz_factor: f64,
}

/// Measure layout run lengths on a scaled instance of a dataset.
pub fn measure_layout_runs(kind: DatasetKind, scale: f64, seed: u64, k: usize, db: usize) -> LayoutRuns {
    let d = kind.generate_node(scale, seed);
    let raw = access_profile(&d.graph.with_self_loops());
    let assign = partition(&d.graph, k, seed);
    let order = cluster_order(&assign, k);
    let pg = d.graph.permute(&order.perm).with_self_loops();
    let clustered = access_profile(&pg);
    let reformed = reform(&pg, &order, ReformConfig { db, beta_thre: 5.0 * pg.sparsity() });
    let rp = reformed.profile();
    LayoutRuns {
        raw_run: raw.avg_run_len,
        clustered_run: clustered.avg_run_len,
        reformed_run: rp.avg_run_len,
        nnz_factor: rp.nnz as f64 / raw.nnz.max(1) as f64,
    }
}

/// Build a paper-scale access profile for a dataset: `seq_len` tokens whose
/// per-token degree matches the published statistics, with the measured run
/// length.
pub fn paper_profile(spec: &DatasetSpec, seq_len: usize, avg_run_len: f64, nnz_factor: f64) -> AccessProfile {
    let degree = (2.0 * spec.edges as f64 / spec.nodes as f64).max(2.0);
    let nnz = ((seq_len as f64 * degree) * nnz_factor) as usize;
    AccessProfile {
        nnz,
        runs: ((nnz as f64 / avg_run_len.max(1.0)) as usize).max(1),
        avg_run_len,
        isolated: 0,
        active_rows: seq_len,
    }
}

/// Simulated epoch seconds at paper scale for a method.
#[allow(clippy::too_many_arguments)]
pub fn sim_epoch(
    gpu: GpuSpec,
    topology: ClusterTopology,
    shape: ModelShape,
    layout: LayoutKind,
    seq_len: usize,
    profile: AccessProfile,
    tokens_total: usize,
) -> (IterationCost, f64) {
    let spec = StepSpec { gpu, topology, shape, layout, seq_len, profile };
    epoch_cost(&spec, tokens_total)
}

/// Map a method to its cost-model layout.
pub fn layout_of(method: Method) -> LayoutKind {
    match method {
        Method::GpRaw => LayoutKind::Dense,
        Method::GpFlash => LayoutKind::Flash,
        Method::GpSparse => LayoutKind::Topology,
        Method::TorchGt => LayoutKind::ClusterSparse,
    }
}

/// Profile appropriate for a method at paper scale.
pub fn method_profile(method: Method, spec: &DatasetSpec, seq_len: usize, runs: &LayoutRuns) -> AccessProfile {
    match method {
        Method::GpRaw | Method::GpFlash => dense_profile(seq_len),
        Method::GpSparse => paper_profile(spec, seq_len, runs.raw_run, 1.0),
        Method::TorchGt => paper_profile(spec, seq_len, runs.reformed_run, runs.nnz_factor),
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
    pub fn paper_shape(self) -> ModelShape {
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
    pub fn build(self, feat_dim: usize, out_dim: usize, seed: u64) -> Box<dyn SequenceModel> {
        match self {
            BenchModel::GraphormerSlim => Box::new(Graphormer::new(
                GraphormerConfig {
                    feat_dim,
                    hidden: 32,
                    layers: 3,
                    heads: 4,
                    ffn_mult: 2,
                    out_dim,
                    max_degree: 64,
                    max_spd: 8,
                    dropout: 0.1,
                },
                seed,
            )),
            BenchModel::GraphormerLarge => Box::new(Graphormer::new(
                GraphormerConfig {
                    feat_dim,
                    hidden: 64,
                    layers: 4,
                    heads: 8,
                    ffn_mult: 2,
                    out_dim,
                    max_degree: 64,
                    max_spd: 8,
                    dropout: 0.1,
                },
                seed,
            )),
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
}

/// Run a short functional node-level training and return its epoch history.
pub fn functional_node_run(
    dataset: &NodeDataset,
    method: Method,
    model: BenchModel,
    seq_len: usize,
    epochs: usize,
    seed: u64,
) -> (Vec<EpochStats>, NodeTrainer) {
    let mut cfg = TrainConfig::new(method, seq_len, epochs);
    cfg.lr = 2e-3;
    cfg.seed = seed;
    cfg.interleave_period = 8;
    let m = model.build(dataset.feat_dim, dataset.num_classes, seed);
    let mut trainer = NodeTrainer::new(
        cfg,
        dataset,
        m,
        model.functional_shape(),
        GpuSpec::rtx3090(),
        ClusterTopology::rtx3090(1),
    );
    let stats = trainer.run();
    (stats, trainer)
}

/// Like [`functional_node_run`], but with an in-memory recorder attached:
/// returns the observability report alongside the epoch history, and dumps
/// it under `target/experiments/` so harness runs leave span timings,
/// all-to-all volume, and β_thre transition events next to their rows.
pub fn functional_node_run_observed(
    dataset: &NodeDataset,
    method: Method,
    model: BenchModel,
    seq_len: usize,
    epochs: usize,
    seed: u64,
    dump_name: &str,
) -> (Vec<EpochStats>, MetricsReport) {
    let mut cfg = TrainConfig::new(method, seq_len, epochs);
    cfg.lr = 2e-3;
    cfg.seed = seed;
    cfg.interleave_period = 8;
    let m = model.build(dataset.feat_dim, dataset.num_classes, seed);
    let mut trainer = NodeTrainer::new(
        cfg,
        dataset,
        m,
        model.functional_shape(),
        GpuSpec::rtx3090(),
        ClusterTopology::rtx3090(1),
    );
    let recorder = Arc::new(MemoryRecorder::default());
    trainer.attach_recorder(recorder.clone());
    let stats = Trainer::run(&mut trainer);
    let report = recorder.report();
    dump_metrics(dump_name, &report);
    (stats, report)
}

/// Write a metrics report under `target/experiments/<name>.metrics.json`.
pub fn dump_metrics(name: &str, report: &MetricsReport) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.metrics.json"));
        if fs::write(&path, report.to_json_string_pretty()).is_ok() {
            println!("[metrics written to {}]", path.display());
        }
    }
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

/// Default scaled stand-in sizes used across harnesses: small enough to run
/// in seconds, large enough to carry the structural statistics.
pub fn default_scale(kind: DatasetKind) -> f64 {
    let spec = kind.spec();
    // Target ~1.5-2.5K nodes.
    (2000.0 / spec.nodes as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_runs_improve_monotonically() {
        let runs = measure_layout_runs(DatasetKind::OgbnArxiv, 0.006, 1, 8, 16);
        assert!(runs.reformed_run > runs.raw_run);
        assert!(runs.nnz_factor > 0.5 && runs.nnz_factor < 4.0);
    }

    #[test]
    fn paper_profile_matches_degree() {
        let spec = DatasetKind::OgbnArxiv.spec();
        let p = paper_profile(&spec, 1 << 16, 8.0, 1.0);
        // arxiv 2E/N ≈ 13.8 per token.
        let per_token = p.nnz as f64 / (1 << 16) as f64;
        assert!((per_token - 13.8).abs() < 1.0);
    }

    #[test]
    fn default_scales_are_sane() {
        for kind in DatasetKind::node_level() {
            let s = default_scale(*kind);
            assert!(s > 0.0 && s <= 1.0);
        }
    }
}
