//! The registry: one entry per figure or table of the paper's evaluation,
//! each regenerating its rows on the scaled stand-ins and the simulated
//! GPUs and naming the paper-shape checks they must pass.

use crate::table::{label, num, sci, Cell, Column, Report, Table};
use crate::{banner, config, dump_json, dump_run_metrics, functional_node_run, graph_trainer, BenchModel};
use std::sync::Arc;
use torchgt_comm::ClusterTopology;
use torchgt_compat::json::ToJson;
use torchgt_compat::rng::Rng;
use torchgt_graph::partition::{cluster_order, partition};
use torchgt_graph::stats::{cluster_matrix_stats, ClusterMatrixStats};
use torchgt_graph::{DatasetKind, DatasetSpec, NodeDataset};
use torchgt_model::{loss, Gat, Gcn, Gt, GtConfig, Pattern, SampledTransformer, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, MemoryRecorder};
use torchgt_perf::{
    epoch_cost, fits, iteration_cost, kernels, max_seq_len, simulate_subblock_kernel, tune_db, GpuSpec,
    ModelShape, StepSpec,
};
use torchgt_runtime::{EpochStats, Method, NodeTrainer, TrainConfig};
use torchgt_sparse::{access_profile, dense_profile, reform, topology_mask, window_mask};
use torchgt_sparse::{AccessProfile, LayoutKind, ReformConfig};
use torchgt_tensor::{Adam, Optimizer, Precision, Tensor, Workspace};

/// One figure or table of the paper's evaluation.
#[derive(Clone, Copy)]
pub struct Figure {
    /// Harness argument and JSON file name (`target/experiments/<id>.json`).
    pub id: &'static str,
    /// What it reproduces.
    pub paper: &'static str,
    /// Regenerate the rows and run the shape checks.
    pub run: fn() -> Report,
}

impl Figure {
    /// Run the figure, print its tables and check verdicts, and write its
    /// JSON. Returns the names of the checks that did not hold.
    pub fn reproduce(&self) -> Vec<String> {
        banner(self.id, self.paper);
        let report = (self.run)();
        report.print();
        dump_json(self.id, &report.to_json(self.paper));
        report.failed().into_iter().map(String::from).collect()
    }
}

/// Registry entries: each figure's id is the name of its `run` function.
macro_rules! figures {
    ($($run:ident: $paper:literal,)*) => { [$(Figure { id: stringify!($run), paper: $paper, run: $run }),*] };
}

/// Every figure, in the paper's order.
pub const FIGURES: [Figure; 18] = figures![
    table1_model_quality: "Table I — graph transformers vs traditional GNNs",
    fig1_seq_length: "Figure 1 — test accuracy vs training sequence length",
    fig2_breakdown: "Figure 2 — iteration breakdown, Graphormer/ogbn-products, GP-FLASH",
    table2_backward: "Table II — topology-pattern vs dense backward time",
    fig5_layouts: "Figure 5 — attention layouts (topology / clustered / cluster-sparse)",
    fig6_subblock: "Figure 6 — d_b sweep: occupancy, cache hit rates, throughput",
    table5_end_to_end: "Table V — end-to-end speed & accuracy, one 3090 server",
    table6_a100: "Table VI — GPH_Slim epoch time on one A100 server",
    table7_precision: "Table VII — BF16 vs FP32 accuracy/throughput (GPH_Slim)",
    fig7_scaling: "Figure 7 — multi-server scalability (A100), GPH_Slim/ogbn-products",
    fig8_convergence: "Figure 8 — convergence of TorchGT vs GP-FLASH",
    fig9_scalability: "Figure 9 — max sequence length & throughput vs S",
    fig10_interleave_large: "Figure 10 — interleaved vs flash vs sparse (large graph)",
    fig11_interleave_small: "Figure 11 — interleaved vs full vs sparse (small graphs)",
    fig12_attention_kernel: "Figure 12 — attention kernel time vs S and hidden dim",
    table8_beta_thre: "Table VIII — β_thre sensitivity on ogbn-arxiv",
    ablation_components: "Ablation — TorchGT minus each technique (DESIGN.md)",
    ablation_nlp_attention: "§II-C I2 — graph topology vs NLP sparse/linear attention baselines",
];

/// The paper's long-sequence sweep, 64K–512K tokens.
const S_64K_512K: [usize; 4] = [64 << 10, 128 << 10, 256 << 10, 512 << 10];

/// The sequence-length column: tokens in K.
const S_COLUMN: Column = num("S", 8, 0).unit("K");

/// Memory-locality statistics of the layouts on a scaled stand-in — the
/// transferable quantities extrapolated to paper scale.
#[derive(Clone, Copy, Debug)]
struct LayoutRuns {
    /// Mean run length of the raw (unordered) topology pattern.
    raw_run: f64,
    /// Mean run length after Elastic Computation Reformation.
    reformed_run: f64,
    /// nnz inflation factor of the reformation (pattern padding).
    nnz_factor: f64,
}

/// Measure layout run lengths on a scaled instance of a dataset (seed 1,
/// k = 8 clusters, d_b = 16).
fn measure_layout_runs(kind: DatasetKind, scale: f64) -> LayoutRuns {
    let (seed, k) = (1, 8);
    let d = kind.generate_node(scale, seed);
    let raw = access_profile(&d.graph.with_self_loops());
    let order = cluster_order(&partition(&d.graph, k, seed), k);
    let pg = d.graph.permute(&order.perm).with_self_loops();
    let reformed = reform(&pg, &order, ReformConfig { db: 16, beta_thre: 5.0 * pg.sparsity() });
    let rp = reformed.profile();
    LayoutRuns {
        raw_run: raw.avg_run_len,
        reformed_run: rp.avg_run_len,
        nnz_factor: rp.nnz as f64 / raw.nnz.max(1) as f64,
    }
}

/// `seq_len` tokens attending over `nnz` nonzeros in runs of `avg_run_len`.
fn profile_at(seq_len: usize, nnz: usize, avg_run_len: f64) -> AccessProfile {
    let runs = ((nnz as f64 / avg_run_len.max(1.0)) as usize).max(1);
    AccessProfile { nnz, runs, avg_run_len, isolated: 0, active_rows: seq_len }
}

/// A paper-scale access profile for a dataset: `seq_len` tokens whose
/// per-token degree matches the published statistics, with the measured run
/// length.
fn paper_profile(spec: &DatasetSpec, seq_len: usize, avg_run_len: f64, nnz_factor: f64) -> AccessProfile {
    let degree = (2.0 * spec.edges as f64 / spec.nodes as f64).max(2.0);
    profile_at(seq_len, ((seq_len as f64 * degree) * nnz_factor) as usize, avg_run_len)
}

/// A profile measured on a trainer's scaled masks carried to `seq_len`
/// tokens: the per-token pattern size (with any β_thre-dependent sub-block
/// padding) and the run length transfer.
fn at_paper_scale(measured: AccessProfile, seq_len: usize) -> AccessProfile {
    let per_token = measured.nnz as f64 / measured.active_rows.max(1) as f64;
    profile_at(seq_len, (seq_len as f64 * per_token) as usize, measured.avg_run_len)
}

/// The paper-scale step of `method`: its layout, and its access profile
/// carried from `runs`.
fn method_step(
    gpu: GpuSpec,
    topology: ClusterTopology,
    shape: ModelShape,
    method: Method,
    seq_len: usize,
    spec: &DatasetSpec,
    runs: &LayoutRuns,
) -> StepSpec {
    let (layout, profile) = match method {
        Method::GpRaw => (LayoutKind::Dense, dense_profile(seq_len)),
        Method::GpFlash => (LayoutKind::Flash, dense_profile(seq_len)),
        Method::GpSparse => (LayoutKind::Topology, paper_profile(spec, seq_len, runs.raw_run, 1.0)),
        Method::TorchGt => {
            (LayoutKind::ClusterSparse, paper_profile(spec, seq_len, runs.reformed_run, runs.nnz_factor))
        }
    };
    StepSpec { gpu, topology, shape, layout, seq_len, profile }
}

/// Drown the per-node feature signal in noise so the task *requires*
/// aggregating neighbours through attention.
fn weaken_features(d: &mut NodeDataset, seed: u64) {
    let mut rng = torchgt_tensor::rng::rng(seed);
    for v in d.features.iter_mut() {
        *v = 0.25 * *v + rng.gen_range(-1.0..1.0f32);
    }
}

/// Cluster-sparse attention forward + backward, in milliseconds.
fn cluster_sparse_ms(gpu: &GpuSpec, profile: &AccessProfile, d: usize) -> f64 {
    let (fwd, bwd) = (kernels::cluster_sparse_attention_fwd, kernels::cluster_sparse_attention_bwd);
    (fwd(gpu, profile, d) + bwd(gpu, profile, d)) * 1e3
}

fn last_acc(stats: &[EpochStats]) -> f64 {
    stats.last().expect("at least one epoch").test_acc
}

/// Table I: graph transformers outperform classical message-passing GNNs —
/// GCN and GAT vs GT and Graphormer on a ZINC-like regression task (MAE ↓)
/// and a Flickr-like node-classification task (accuracy ↑).
fn table1_model_quality() -> Report {
    let names = ["GCN", "GAT", "GT", "Graphormer"];
    let model = |name: &str, feat: usize, out: usize| -> Box<dyn SequenceModel> {
        match name {
            "GCN" => Box::new(Gcn::new(&[feat, 32, out], 5)),
            "GAT" => Box::new(Gat::new(feat, 32, out, 5)),
            "GT" => BenchModel::Gt.build(feat, out, 5),
            _ => BenchModel::GraphormerSlim.build(feat, out, 5),
        }
    };
    let zinc = DatasetKind::Zinc.generate_graphs(60, 1.0, 29);
    let maes = names.map(|name| {
        let cfg = config(Method::GpSparse, 64, 8, 3e-3, 1);
        let mut trainer = graph_trainer(cfg, &zinc, model(name, zinc.feat_dim, 1));
        -last_acc(&trainer.run()) // evaluate() returns −MAE
    });
    let flickr = DatasetKind::Flickr.generate_node(0.02, 29);
    let accs = names.map(|name| {
        let cfg = config(Method::GpSparse, 400, 6, 2e-3, 1);
        let m = model(name, flickr.feat_dim, flickr.num_classes);
        last_acc(&NodeTrainer::new(cfg, &flickr, m).run())
    });

    let mut report = Report::default();
    for (title, header, values) in [
        ("ZINC-like molecule regression (test MAE ↓):", "test MAE", maes),
        ("Flickr-like node classification (test accuracy ↑):", "test acc", accs),
    ] {
        let mut t = Table::new(title, &[label("model", 12), num(header, 10, 4)]);
        names.iter().zip(values).for_each(|(name, v)| t.row([(*name).into(), v.into()]));
        report.push(t);
    }
    let (gnn_mae, tf_mae) = (maes[0].min(maes[1]), maes[2].min(maes[3]));
    report.check("the best transformer's ZINC MAE ≤ the best GNN's + 0.02", tf_mae <= gnn_mae + 0.02);
    let (gnn_acc, tf_acc) = (accs[0].max(accs[1]), accs[2].max(accs[3]));
    report.check("the best transformer's Flickr accuracy ≥ the best GNN's − 0.02", tf_acc >= gnn_acc - 0.02);
    report
}

/// Figure 1: test accuracy as a function of the training sequence length —
/// Graphormer on an AMiner-CS-like graph and a NodeFormer-style sampling
/// transformer on a Pokec-like graph. Sequences are chunks of the node set,
/// so shorter ones sever more cross-chunk edges; with the number of updates
/// held fixed, longer sequences win.
fn fig1_seq_length() -> Report {
    /// Train with a fixed total-update budget regardless of sequence length.
    fn fixed_budget(trainer: &mut NodeTrainer) -> f64 {
        let mut last = 0.0;
        for _ in 0..60usize.div_ceil(trainer.num_sequences()).max(1) {
            last = trainer.train_epoch().test_acc;
        }
        last
    }
    let mut report = Report::default();
    let columns = [num("S", 8, 0), num("test acc", 10, 4)];

    let mut aminer = DatasetKind::AminerCS.generate_node(0.002, 51);
    weaken_features(&mut aminer, 99);
    let (n, classes) = (aminer.num_nodes(), aminer.num_classes);
    let title =
        format!("Graphormer on AMiner-CS-like ({n} nodes, {classes} classes), fixed 60-update budget:");
    let mut t = Table::new(title, &columns);
    let gph = [64usize, 128, 256, 512].map(|seq_len| {
        let cfg = config(Method::TorchGt, seq_len, 1, 2e-3, 3);
        let acc = fixed_budget(&mut BenchModel::GraphormerSlim.node_trainer(cfg, &aminer));
        t.row([seq_len.into(), acc.into()]);
        acc
    });
    report.push(t);
    report.check("Graphormer: accuracy at S = 512 ≥ at S = 64 − 0.02", gph[3] >= gph[0] - 0.02);

    let mut pokec = DatasetKind::Pokec.generate_node(0.0008, 52);
    weaken_features(&mut pokec, 98);
    let n = pokec.num_nodes();
    let title = format!("NodeFormer-like on Pokec-like ({n} nodes, binary), fixed 60-update budget:");
    let mut t = Table::new(title, &columns);
    let nf = [64usize, 256, pokec.num_nodes()].map(|seq_len| {
        let model = SampledTransformer::new(pokec.feat_dim, 16, 2, 2, pokec.num_classes, 4, 9);
        let cfg = config(Method::GpSparse, seq_len, 1, 2e-3, 4);
        let acc = fixed_budget(&mut NodeTrainer::new(cfg, &pokec, Box::new(model)));
        t.row([seq_len.into(), acc.into()]);
        acc
    });
    report.push(t);
    report.check("NodeFormer-like: whole-graph accuracy ≥ at S = 64 − 0.02", nf[2] >= nf[0] - 0.02);
    report
}

/// Figure 2: training-iteration time breakdown for Graphormer (GP-FLASH) on
/// ogbn-products at S ∈ {64K…512K}, on RTX 3090 and A100 — attention
/// dominates (> 80%) everywhere.
fn fig2_breakdown() -> Report {
    let mut report = Report::default();
    let shape = BenchModel::GraphormerSlim.paper_shape();
    for (gpu, topology, name) in [
        (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1), "RTX 3090"),
        (GpuSpec::a100(), ClusterTopology::a100(1), "A100"),
    ] {
        let columns = [
            S_COLUMN,
            num("attn (s)", 12, 4),
            num("other (s)", 12, 4),
            num("total (s)", 12, 4),
            num("attn %", 10, 1).unit("%"),
        ];
        let mut t = Table::new(format!("--- {name} ---"), &columns);
        for s in S_64K_512K {
            let profile = dense_profile(0);
            let step = StepSpec { gpu, topology, shape, layout: LayoutKind::Flash, seq_len: s, profile };
            let (it, _) = epoch_cost(&step, s);
            let (other, frac) = (it.other_compute + it.optimizer + it.comm, it.attention_fraction());
            let total = it.total();
            t.row([(s >> 10).into(), it.attention.into(), other.into(), total.into(), (frac * 100.0).into()]);
            report.check(format!("attention > 80% of the iteration ({name}, {}K)", s >> 10), frac > 0.8);
        }
        report.push(t);
    }
    report
}

/// Table II: backward time of the topology-induced pattern vs its dense
/// (fully-coalesced) counterpart at equal work, Graphormer on
/// ogbn-products — irregular memory access costs up to 33×.
fn table2_backward() -> Report {
    let mut report = Report::default();
    let gpu = GpuSpec::rtx3090();
    let spec = DatasetKind::OgbnProducts.spec();
    let runs = measure_layout_runs(DatasetKind::OgbnProducts, 0.001);
    let title = format!("measured raw-topology avg run length: {:.2}", runs.raw_run);
    let (topo_ms, dense_ms) = (num("topology BW (ms)", 22, 2), num("dense BW (ms)", 18, 2));
    let columns = [S_COLUMN, topo_ms, dense_ms, num("slowdown", 10, 1).unit("x")];
    let mut t = Table::new(title, &columns);
    for s in S_64K_512K {
        let topo = paper_profile(&spec, s, runs.raw_run, 1.0);
        // Dense counterpart: identical nonzero count, fully-coalesced runs,
        // and no atomic scatter penalty (÷ 2).
        let dense = AccessProfile { avg_run_len: 256.0, runs: topo.nnz / 256, ..topo };
        let t_topo = kernels::sparse_attention_bwd(&gpu, &topo, 64) * 1e3;
        let t_dense = kernels::sparse_attention_bwd(&gpu, &dense, 64) * 1e3 / 2.0;
        t.row([(s >> 10).into(), t_topo.into(), t_dense.into(), (t_topo / t_dense).into()]);
        report.check(format!("irregular access costs > 4× ({}K)", s >> 10), t_topo / t_dense > 4.0);
    }
    t.note("paper reference: 116.99→963.91 ms topology vs 1.53→29.01 ms dense (up to 33×)");
    report.push(t);
    report
}

/// Figure 5: the three attention layouts — topology-induced, clustered
/// (after reordering) and cluster-sparse (after Elastic Computation
/// Reformation) — as 8×8 cluster-density grids on an arxiv-scale graph.
fn fig5_layouts() -> Report {
    let k = 8;
    let d = DatasetKind::OgbnArxiv.generate_node(0.01, 13);
    let g = &d.graph;
    // (a) Clusters = contiguous id blocks of the unordered graph.
    let block = g.num_nodes().div_ceil(k);
    let naive: Vec<u32> = (0..g.num_nodes()).map(|v| (v / block) as u32).collect();
    let stats_a = cluster_matrix_stats(g, &cluster_order(&naive, k));
    // (b) METIS-style reordering.
    let order = cluster_order(&partition(g, k, 1), k);
    let pg = g.permute(&order.perm);
    let stats_b = cluster_matrix_stats(&pg, &order);
    // (c) Reformation of the reordered pattern.
    let reformed = reform(&pg, &order, ReformConfig { db: 16, beta_thre: 5.0 * pg.sparsity() });
    let stats_c = cluster_matrix_stats(&reformed.mask, &order);
    let (run_b, run_c) = (access_profile(&pg).avg_run_len, reformed.profile().avg_run_len);

    let (n, arcs, sparsity) = (g.num_nodes(), g.num_arcs(), g.sparsity());
    let title = format!("graph: {n} nodes, {arcs} arcs, sparsity {sparsity:.2e}");
    let columns = [
        label("layout", 38),
        num("diagonal %", 11, 1).unit("%"),
        num("avg run", 8, 2),
        num("sub-blocks", 11, 0),
        num("recall %", 9, 1).unit("%"),
    ];
    let mut t = Table::new(title, &columns);
    let layouts = [
        ("(a) topology-induced (unordered ids)", &stats_a),
        ("(b) clustered (after reordering)", &stats_b),
        ("(c) cluster-sparse (after reformation)", &stats_c),
    ];
    let diag = |stats: &ClusterMatrixStats| Cell::from(stats.diagonal_fraction * 100.0);
    let run_a = access_profile(g).avg_run_len;
    t.row([layouts[0].0.into(), diag(&stats_a), run_a.into(), "-".into(), "-".into()]);
    t.row([layouts[1].0.into(), diag(&stats_b), run_b.into(), "-".into(), "-".into()]);
    let (sub_blocks, recall) = (reformed.stats.sub_blocks, reformed.stats.edge_recall * 100.0);
    t.row([layouts[2].0.into(), diag(&stats_c), run_c.into(), sub_blocks.into(), recall.into()]);
    for (name, stats) in layouts {
        t.note(format!("\n{name}"));
        let max = stats.counts.iter().flatten().copied().max().unwrap_or(1) as f64;
        let shade = |c: usize| ['·', '░', '▒', '▓', '█'][((c as f64 / max * 5.0) as usize).min(4)];
        for row in &stats.counts {
            t.note(format!("  {}", row.iter().map(|&c| shade(c)).collect::<String>()));
        }
    }
    let mut report = Report::default();
    report.push(t);
    let concentrated = stats_b.diagonal_fraction > stats_a.diagonal_fraction;
    report.check("reordering concentrates edges on the diagonal", concentrated);
    report.check("reformation lengthens access runs", run_c > run_b);
    report
}

/// Figure 6: the sub-block indexing kernel vs `d_b` — warp occupancy falls,
/// cache hit rates rise, and throughput peaks at an interior `d_b`.
fn fig6_subblock() -> Report {
    let gpu = GpuSpec::rtx3090();
    let (edges, d) = (200_000, 64);
    let columns = [
        num("d_b", 6, 0),
        num("occupancy", 11, 2).unit("%"),
        num("L1 hit", 9, 1).unit("%"),
        num("L2 hit", 9, 1).unit("%"),
        num("norm. throughput", 17, 2),
    ];
    let mut t = Table::new(format!("RTX 3090, hidden {d}, {edges} packed edges"), &columns);
    let base = simulate_subblock_kernel(&gpu, edges, 2, d).throughput;
    let profiles = [2usize, 4, 8, 16, 32, 64, 128].map(|db| simulate_subblock_kernel(&gpu, edges, db, d));
    for p in &profiles {
        let (occupancy, l1, l2) = (p.occupancy * 100.0, p.l1_hit * 100.0, p.l2_hit * 100.0);
        t.row([p.db.into(), occupancy.into(), l1.into(), l2.into(), (p.throughput / base).into()]);
    }
    let best = tune_db(&gpu, edges, d);
    t.note(format!("Auto Tuner pick: d_b = {best} (paper fits d_b = 16)"));
    let (first, last) = (&profiles[0], &profiles[profiles.len() - 1]);
    let mut report = Report::default();
    report.push(t);
    report.check("warp occupancy falls with d_b", first.occupancy > last.occupancy);
    report.check("L1 hit rate rises with d_b", last.l1_hit > first.l1_hit);
    report.check("the Auto Tuner's d_b is interior (4–64)", (4..=64).contains(&best));
    report
}

/// Table V: end-to-end epoch time and test accuracy of GP-RAW, GP-FLASH and
/// TorchGT on one RTX 3090 server. Epoch times are simulated at the paper's
/// sequence lengths from layout statistics of the scaled stand-ins (MalNet
/// through an arxiv proxy); accuracies come from real training on the
/// stand-ins. GP-RAW is out of memory wherever its S² scores cannot fit.
fn table5_end_to_end() -> Report {
    use DatasetKind::{Amazon, MalNet, OgbnArxiv, OgbnPapers100M, OgbnProducts};
    let mut report = Report::default();
    let (gpu, topo) = (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1));
    let datasets = [MalNet, OgbnPapers100M, OgbnProducts, OgbnArxiv, Amazon];
    for model in [BenchModel::GraphormerSlim, BenchModel::GraphormerLarge, BenchModel::Gt] {
        let columns = [
            label("dataset", 18),
            label("method", 9),
            num("t_epoch (s)", 14, 2),
            num("test acc", 10, 4),
            num("speedup", 9, 1).unit("x"),
        ];
        let mut t = Table::new(format!("===== {} =====", model.label()), &columns);
        for kind in datasets {
            let spec = kind.spec();
            let seq_len = match (model, kind) {
                (BenchModel::GraphormerLarge, _) => 32usize << 10,
                (_, DatasetKind::OgbnArxiv) => 64 << 10,
                _ => 256 << 10,
            };
            let tokens = (spec.nodes * spec.num_graphs) as usize;
            let stats_kind = if spec.num_graphs > 1 { DatasetKind::OgbnArxiv } else { kind };
            let scale = (1800.0 / stats_kind.spec().nodes as f64).min(1.0);
            let runs = measure_layout_runs(stats_kind, scale);
            // Graph-level accuracy is Figure 11's; MalNet has no column here.
            let acc_dataset = (spec.num_graphs <= 1).then(|| kind.generate_node(scale, 7));
            let mut flash_time = None;
            for method in [Method::GpRaw, Method::GpFlash, Method::TorchGt] {
                let step = method_step(gpu, topo, model.paper_shape(), method, seq_len, &spec, &runs);
                let fit = fits(&gpu, &step.shape, step.layout, seq_len, step.profile.nnz, topo.world_size());
                if method == Method::GpRaw {
                    report.check(format!("GP-RAW is out of memory ({}, {})", model.label(), spec.name), !fit);
                }
                if !fit {
                    t.row([spec.name.into(), method.label().into(), "OOM".into(), "-".into(), "-".into()]);
                    continue;
                }
                let (_, epoch_s) = epoch_cost(&step, tokens);
                let acc = acc_dataset.as_ref().map(|d| functional_node_run(d, method, model, 400, 4, 3).0);
                let acc = acc.map_or_else(|| "-".into(), |stats| Cell::from(last_acc(&stats)));
                let speedup = match method {
                    Method::GpFlash => {
                        flash_time = Some(epoch_s);
                        1.0
                    }
                    _ => flash_time.map_or(1.0, |f| f / epoch_s),
                };
                t.row([spec.name.into(), method.label().into(), epoch_s.into(), acc, speedup.into()]);
                if method == Method::TorchGt {
                    // Paper: 3.3–62.7×; GPH_Large on high-degree Amazon at
                    // S = 32K is the smallest gain.
                    let at = format!("{}, {}", model.label(), spec.name);
                    report.check(format!("TorchGT beats GP-FLASH by > 1.2× ({at})"), speedup > 1.2);
                }
            }
        }
        if model == BenchModel::Gt {
            t.note("paper reference: GP-RAW OOM everywhere; TorchGT 3.3–62.7× over GP-FLASH");
        }
        report.push(t);
    }
    report
}

/// Table VI: GPH_Slim epoch time on one A100 server, GP-FLASH vs TorchGT —
/// TorchGT still wins on frontier hardware (paper: 1.9–4.2×).
fn table6_a100() -> Report {
    use DatasetKind::{Amazon, MalNet, OgbnPapers100M, OgbnProducts};
    let mut report = Report::default();
    let (gpu, topo, shape) = (GpuSpec::a100(), ClusterTopology::a100(1), BenchModel::GraphormerSlim.paper_shape());
    let (flash, tgt) = (num("GP-Flash (s)", 16, 2), num("TorchGT (s)", 16, 2));
    let columns = [label("dataset", 18), S_COLUMN, flash, tgt, num("speedup", 9, 1).unit("x")];
    let mut t = Table::new("", &columns);
    for kind in [MalNet, OgbnPapers100M, OgbnProducts, Amazon] {
        let spec = kind.spec();
        let s = 256usize << 10;
        let tokens = (spec.nodes * spec.num_graphs) as usize;
        // Graph-level stand-ins take a call-graph-like arxiv instance's layout.
        let runs = if spec.num_graphs > 1 {
            measure_layout_runs(DatasetKind::OgbnArxiv, 0.01)
        } else {
            measure_layout_runs(kind, (2000.0 / spec.nodes as f64).min(1.0))
        };
        let [flash, tgt] = [Method::GpFlash, Method::TorchGt]
            .map(|m| epoch_cost(&method_step(gpu, topo, shape, m, s, &spec, &runs), tokens).1);
        t.row([spec.name.into(), (s >> 10).into(), flash.into(), tgt.into(), (flash / tgt).into()]);
        report.check(format!("TorchGT beats GP-FLASH by > 1.5× ({})", spec.name), flash / tgt > 1.5);
    }
    t.note("paper reference speedups: 4.2× (MalNet), 2.1× (papers100M), 1.9× (products), 2.0× (Amazon)");
    report.push(t);
    report
}

/// Table VII: GP-FLASH vs TorchGT-BF16 vs TorchGT-FP32 on ogbn-arxiv and
/// Amazon (GPH_Slim). TorchGT-BF16 matches GP-FLASH's accuracy — flash's
/// loss is precision, not the algorithm — FP32 is the most accurate, BF16
/// the fastest.
fn table7_precision() -> Report {
    /// BF16 halves activation bytes and roughly doubles tensor-core math
    /// rate; applied as a flat factor to the simulated epoch time.
    const BF16_SPEED: f64 = 0.55;
    let mut report = Report::default();
    let (gpu, topo, model) = (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1), BenchModel::GraphormerSlim);
    for kind in [DatasetKind::OgbnArxiv, DatasetKind::Amazon] {
        let spec = kind.spec();
        let seq_len = if kind == DatasetKind::OgbnArxiv { 64usize << 10 } else { 256 << 10 };
        let scale = (1800.0 / spec.nodes as f64).min(1.0);
        let dataset = kind.generate_node(scale, 9);
        let runs = measure_layout_runs(kind, scale);
        let columns = [label("config", 16), num("t_epoch (s)", 14, 3), num("test acc", 10, 4)];
        let mut t = Table::new(format!("--- {} ---", spec.name), &columns);
        let [flash, bf16, fp32] = [
            ("GP-Flash", Method::GpFlash, Precision::Bf16),
            ("TorchGT-BF16", Method::TorchGt, Precision::Bf16),
            ("TorchGT-FP32", Method::TorchGt, Precision::Fp32),
        ]
        .map(|(name, method, precision)| {
            let step = method_step(gpu, topo, model.paper_shape(), method, seq_len, &spec, &runs);
            let (_, mut epoch_s) = epoch_cost(&step, spec.nodes as usize);
            if precision == Precision::Bf16 {
                epoch_s *= BF16_SPEED;
            }
            let cfg = TrainConfig { precision, ..config(method, 400, 5, 2e-3, 5) };
            let acc = last_acc(&model.node_trainer(cfg, &dataset).run());
            t.row([name.into(), epoch_s.into(), acc.into()]);
            (acc, epoch_s)
        });
        report.push(t);
        report.check(format!("FP32 accuracy ≥ BF16's − 0.02 ({})", spec.name), fp32.0 >= bf16.0 - 0.02);
        let near = (bf16.0 - flash.0).abs() < 0.15;
        report.check(format!("TorchGT-BF16 accuracy within 0.15 of GP-FLASH's ({})", spec.name), near);
        report.check(format!("BF16 epochs are faster than FP32 ({})", spec.name), bf16.1 < fp32.1);
    }
    report
}

/// Figure 7: multi-server scalability of TorchGT training GPH_Slim on
/// ogbn-products, A100 servers — (a) at fixed S = 1024K throughput nearly
/// doubles per server doubling (paper ≈ 1.7×); (b) at fixed computational
/// load per GPU, per-GPU throughput stays about constant.
fn fig7_scaling() -> Report {
    let mut report = Report::default();
    let spec = DatasetKind::OgbnProducts.spec();
    let runs = measure_layout_runs(DatasetKind::OgbnProducts, 0.001);
    let (shape, gpu) = (BenchModel::GraphormerSlim.paper_shape(), GpuSpec::a100());
    let iteration_s = |topology: ClusterTopology, s: usize| {
        let profile = paper_profile(&spec, s, runs.reformed_run, runs.nnz_factor);
        let layout = LayoutKind::ClusterSparse;
        iteration_cost(&StepSpec { gpu, topology, shape, layout, seq_len: s, profile }).total()
    };

    let (iter_s, speedup) = (num("iter (s)", 14, 4), num("speedup", 10, 2).unit("x"));
    let columns = [num("servers", 9, 0), num("GPUs", 8, 0), iter_s, sci("tokens/s", 18, 3), speedup];
    let mut t = Table::new("(a) fixed S = 1024K, scaling servers:", &columns);
    let s = 1usize << 20;
    let mut prev: Option<f64> = None;
    for servers in [1usize, 2, 4, 8] {
        let topo = ClusterTopology::a100(servers);
        let it = iteration_s(topo, s);
        let speedup = prev.map_or(1.0, |p| p / it);
        t.row([servers.into(), topo.world_size().into(), it.into(), (s as f64 / it).into(), speedup.into()]);
        if prev.is_some() {
            report.check(format!("server doubling speeds up > 1.4× ({servers} servers)"), speedup > 1.4);
        }
        prev = Some(it);
    }
    report.push(t);

    let title = "(b) fixed per-GPU load (S²/P const): S=256K/P=16 vs S=512K/P=64:";
    let mut t = Table::new(title, &[S_COLUMN, num("GPUs", 6, 0), iter_s, sci("per-GPU tokens/s", 22, 3)]);
    let per_gpu = [(256usize << 10, 16usize), (512 << 10, 64)].map(|(s, gpus)| {
        let topo = ClusterTopology { gpus_per_server: 8, servers: gpus / 8, ..ClusterTopology::a100(1) };
        let it = iteration_s(topo, s);
        let tput = s as f64 / it / gpus as f64;
        t.row([(s >> 10).into(), gpus.into(), it.into(), tput.into()]);
        tput
    });
    let ratio = per_gpu[1] / per_gpu[0];
    t.note(format!("per-GPU throughput ratio: {ratio:.2} (paper: ≈1, 'approximately the same')"));
    report.push(t);
    let held = (0.4..=2.5).contains(&ratio);
    report.check("per-GPU throughput stays within 0.4–2.5× at fixed per-GPU load", held);
    report
}

/// Figure 8: convergence of TorchGT vs GP-FLASH — GPH_Slim and GT on
/// ogbn-products-like and ogbn-arxiv-like graphs. TorchGT converges at
/// least as high (GP-FLASH loses its attention bias and precision). The
/// TorchGT runs are observed: their recorder dumps land in
/// `target/run_metrics/`.
fn fig8_convergence() -> Report {
    let mut report = Report::default();
    let epochs = 8;
    for (model, kind) in [
        (BenchModel::GraphormerSlim, DatasetKind::OgbnProducts),
        (BenchModel::GraphormerSlim, DatasetKind::OgbnArxiv),
        (BenchModel::Gt, DatasetKind::OgbnProducts),
        (BenchModel::Gt, DatasetKind::OgbnArxiv),
    ] {
        let spec = kind.spec();
        let dataset = kind.generate_node((1600.0 / spec.nodes as f64).min(1.0), 21);
        let recorder = Arc::new(MemoryRecorder::default());
        let mut trainer = model.node_trainer(config(Method::TorchGt, 400, epochs, 2e-3, 2), &dataset);
        trainer.attach_recorder(recorder.clone());
        let tgt = trainer.run();
        let metrics = recorder.report();
        dump_run_metrics(&format!("fig8_{}_{}", model.label(), spec.name), &metrics.to_json());
        let (flash, _) = functional_node_run(&dataset, Method::GpFlash, model, 400, epochs, 2);

        let mut title = format!("--- {} on {} ---", model.label(), spec.name);
        if let Some(a2a) = metrics.collective("all_to_all") {
            let mib = a2a.wire_bytes as f64 / (1 << 20) as f64;
            let transitions = metrics.events_of(Event::BETA_TRANSITION).len();
            let ops = a2a.ops;
            title += &format!("\n[TorchGT run: {ops} all-to-alls, {mib:.1} MiB on the wire, ");
            title += &format!("{transitions} β_thre transition(s)]");
        }
        let columns = [num("epoch", 6, 0), num("TorchGT acc", 18, 4), num("GP-Flash acc", 18, 4)];
        let mut t = Table::new(title, &columns);
        for e in 0..epochs {
            t.row([e.into(), tgt[e].test_acc.into(), flash[e].test_acc.into()]);
        }
        let (t_final, f_final) = (last_acc(&tgt), last_acc(&flash));
        t.note(format!("final: TorchGT {t_final:.4} vs GP-Flash {f_final:.4}"));
        report.push(t);
        let at = format!("{} on {}", model.label(), spec.name);
        report.check(format!("TorchGT's final accuracy ≥ GP-FLASH's − 0.03 ({at})"), t_final >= f_final - 0.03);
    }
    report
}

/// Figure 9: (a) maximum trainable sequence length vs GPU count, TorchGT vs
/// GP-RAW; (b) throughput vs sequence length on 8 GPUs, TorchGT vs
/// GP-FLASH; GPH_Slim on ogbn-products. TorchGT's max S scales ~linearly
/// (paper: 1.3M on 8 GPUs) while GP-RAW stays flat; TorchGT throughput stays
/// ~flat with S while GP-FLASH collapses.
fn fig9_scalability() -> Report {
    let mut report = Report::default();
    let spec = DatasetKind::OgbnProducts.spec();
    let degree = 2.0 * spec.edges as f64 / spec.nodes as f64;
    let (shape, gpu) = (BenchModel::GraphormerSlim.paper_shape(), GpuSpec::a100());

    let columns = [
        num("GPUs", 6, 0),
        num("TorchGT max S", 16, 0).unit("K"),
        num("GP-RAW max S", 16, 0).unit("K"),
        num("ratio", 8, 0).unit("x"),
    ];
    let mut t = Table::new("(a) maximum sequence length vs GPU count:", &columns);
    let max_s = [1usize, 2, 4, 8].map(|gpus| {
        let tgt = max_seq_len(&gpu, &shape, LayoutKind::ClusterSparse, degree, gpus);
        let raw = max_seq_len(&gpu, &shape, LayoutKind::Dense, degree, gpus);
        t.row([gpus.into(), (tgt >> 10).into(), (raw >> 10).into(), (tgt as f64 / raw.max(1) as f64).into()]);
        (tgt, raw)
    });
    report.push(t);
    let ((tgt1, raw1), (tgt8, raw8)) = (max_s[0], max_s[3]);
    report.check("TorchGT's max S grows > 2.5× from 1 to 8 GPUs", tgt8 as f64 > 2.5 * tgt1 as f64);
    report.check("GP-RAW's max S stays flat (< 1.3× from 1 to 8 GPUs)", (raw8 as f64) < 1.3 * raw1 as f64);
    report.check("TorchGT trains ≥ 1M tokens on 8 GPUs (paper: 1.3M)", tgt8 > 1_000_000);

    let runs = measure_layout_runs(DatasetKind::OgbnProducts, 0.001);
    let topology = ClusterTopology::a100(1);
    let (tgt, flash) = (sci("TorchGT tokens/s", 20, 3), sci("GP-FLASH tokens/s", 20, 3));
    let columns = [S_COLUMN, tgt, flash, num("speedup", 10, 1).unit("x")];
    let mut t = Table::new("(b) throughput vs sequence length (8 GPUs):", &columns);
    let tputs = [128usize << 10, 256 << 10, 512 << 10, 1024 << 10, 1331 << 10].map(|s| {
        let profile = paper_profile(&spec, s, runs.reformed_run, runs.nnz_factor);
        let layout = LayoutKind::ClusterSparse;
        let tgt_step = StepSpec { gpu, topology, shape, layout, seq_len: s, profile };
        let flash_step = StepSpec { layout: LayoutKind::Flash, profile: dense_profile(0), ..tgt_step.clone() };
        let tgt = s as f64 / iteration_cost(&tgt_step).total();
        let flash = s as f64 / iteration_cost(&flash_step).total();
        t.row([(s >> 10).into(), tgt.into(), flash.into(), (tgt / flash).into()]);
        (tgt, flash)
    });
    report.push(t);
    let (first, last) = (tputs[0], tputs[4]);
    // Paper: flash 1.9e5 → 2.2e4 tokens/s; TorchGT ≈ 2.5e6 throughout.
    report.check("GP-FLASH throughput collapses > 4× from 128K to 1331K", first.1 / last.1 > 4.0);
    report.check("TorchGT throughput stays within 3× from 128K to 1331K", first.0 / last.0 < 3.0);
    report
}

/// Figure 10: convergence of interleaved (TorchGT), flash and pure
/// topology-sparse attention on an arxiv-like graph, GPH_Slim and GT —
/// interleaved converges highest.
fn fig10_interleave_large() -> Report {
    let mut report = Report::default();
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.01, 31);
    let epochs = 8;
    for model in [BenchModel::GraphormerSlim, BenchModel::Gt] {
        let curves = [Method::TorchGt, Method::GpFlash, Method::GpSparse].map(|m| {
            functional_node_run(&dataset, m, model, 400, epochs, 4).0.iter().map(|s| s.test_acc).collect()
        });
        let title = format!("--- {} on ogbn-arxiv ---", model.label());
        let mut t = curves_table(title, ["flash", "sparse"], &curves);
        let [i, f, s] = curves.map(|c| c[epochs - 1]);
        t.note(format!("final: interleaved {i:.4}, flash {f:.4}, sparse {s:.4}"));
        report.push(t);
        let name = format!("interleaved within 0.04 of the best final accuracy ({})", model.label());
        report.check(name, i >= f.max(s) - 0.04);
    }
    report
}

/// Figure 11: convergence of interleaved vs full (dense) vs pure-sparse
/// attention on small graphs (ZINC-like, molpcba-like), where full attention
/// still trains — interleaved lands next to full.
fn fig11_interleave_small() -> Report {
    let mut report = Report::default();
    let epochs = 8;
    for (kind, out_dim, n, name) in [
        (DatasetKind::Zinc, 1usize, 60usize, "ZINC (−MAE, higher better)"),
        (DatasetKind::OgbgMolpcba, 6, 90, "molpcba-like (accuracy)"),
    ] {
        let data = kind.generate_graphs(n, 1.0, 17);
        let curves = [Method::TorchGt, Method::GpRaw, Method::GpSparse].map(|method| {
            let cfg = TrainConfig { interleave_period: 4, ..config(method, 64, epochs, 3e-3, 1) };
            let model = BenchModel::Gt.build(data.feat_dim, out_dim, 11);
            let mut t = graph_trainer(cfg, &data, model);
            t.run().iter().map(|s| s.test_acc).collect()
        });
        // Single-epoch test scores on tiny graph sets are noisy: compare the
        // mean of the last three epochs.
        let tail_mean = |xs: &[f64]| xs[xs.len() - 3..].iter().sum::<f64>() / 3.0;
        let mut t = curves_table(format!("--- {name} ---"), ["full", "sparse"], &curves);
        let [i, f, s] = curves.map(|c| tail_mean(&c));
        t.note(format!("final (last-3 mean): interleaved {i:.4}, full {f:.4}, sparse {s:.4}"));
        report.push(t);
        report.check(format!("interleaved tracks full attention within 0.15 ({name})"), i >= f - 0.15);
    }
    report
}

/// The per-epoch table Figures 10 and 11 share: the interleaved curve
/// beside two baselines.
fn curves_table(title: String, baselines: [&'static str; 2], curves: &[Vec<f64>; 3]) -> Table {
    let columns =
        [num("epoch", 6, 0), num("interleaved", 14, 4), num(baselines[0], 12, 4), num(baselines[1], 12, 4)];
    let mut t = Table::new(title, &columns);
    for (e, ((&i, &b0), &b1)) in curves[0].iter().zip(&curves[1]).zip(&curves[2]).enumerate() {
        t.row([e.into(), i.into(), b0.into(), b1.into()]);
    }
    t
}

/// Figure 12: attention time of FlashAttention, pure topology-sparse and
/// TorchGT's cluster-sparse attention, (a) vs S at hidden 64 and (b) vs
/// hidden at S = 256K; Graphormer on ogbn-products, one RTX 3090. Flash
/// grows quadratically, TorchGT wins by up to ~103×, and the gap narrows as
/// hidden grows.
fn fig12_attention_kernel() -> Report {
    let mut report = Report::default();
    let gpu = GpuSpec::rtx3090();
    let spec = DatasetKind::OgbnProducts.spec();
    let runs = measure_layout_runs(DatasetKind::OgbnProducts, 0.001);
    // Forward + backward milliseconds of flash, sparse and TorchGT attention.
    let times = |s: usize, d: usize| {
        let (topo, cs) = (
            paper_profile(&spec, s, runs.raw_run, 1.0),
            paper_profile(&spec, s, runs.reformed_run, runs.nnz_factor),
        );
        let flash = kernels::flash_attention_fwd(&gpu, s, d) + kernels::flash_attention_bwd(&gpu, s, d);
        let sparse =
            kernels::sparse_attention_fwd(&gpu, &topo, d) + kernels::sparse_attention_bwd(&gpu, &topo, d);
        [flash * 1e3, sparse * 1e3, cluster_sparse_ms(&gpu, &cs, d)]
    };

    let (raw, reformed, nnz) = (runs.raw_run, runs.reformed_run, runs.nnz_factor);
    let title = format!("measured runs: topology {raw:.2}, cluster-sparse {reformed:.2} (nnz ×{nnz:.2})\n\n")
        + "(a) attention time vs sequence length (hidden 64):";
    let columns = [
        S_COLUMN,
        num("flash (ms)", 12, 2),
        num("sparse (ms)", 12, 2),
        num("TorchGT (ms)", 12, 2),
        num("flash/TorchGT", 16, 1).unit("x"),
    ];
    let mut t = Table::new(title, &columns);
    let mut best_ratio = 0.0f64;
    for s in S_64K_512K {
        let [flash, sparse, torchgt] = times(s, 64);
        best_ratio = best_ratio.max(flash / torchgt);
        t.row([(s >> 10).into(), flash.into(), sparse.into(), torchgt.into(), (flash / torchgt).into()]);
        report.check(format!("cluster-sparse beats pure sparse ({}K)", s >> 10), torchgt < sparse);
        report.check(format!("sparse beats flash ({}K)", s >> 10), sparse < flash);
    }
    t.note(format!("max speedup over flash: {best_ratio:.0}× (paper: up to 103×)"));
    report.push(t);
    report.check("TorchGT's speedup over flash exceeds 30×", best_ratio > 30.0);

    let columns = [num("hidden", 8, 0), columns[1], columns[2], columns[3]];
    let mut t = Table::new("(b) attention time vs hidden dimension (S = 256K):", &columns);
    let gaps = [64usize, 128, 192, 256].map(|d| {
        let [flash, sparse, torchgt] = times(256 << 10, d);
        t.row([d.into(), flash.into(), sparse.into(), torchgt.into()]);
        flash / torchgt
    });
    report.push(t);
    report.check("the flash/TorchGT gap narrows as hidden grows", gaps[0] > gaps[3]);
    report
}

/// Table VIII: epoch time and test accuracy vs the transfer threshold
/// β_thre on ogbn-arxiv, GPH_Slim and GT, plus the Auto Tuner ("TorchGT").
/// Larger β_thre is faster and less accurate. Times extrapolate each run's
/// measured mask profile to the paper's arxiv run (S = 64K, ≈ 3 iterations
/// an epoch) on the RTX 3090.
fn table8_beta_thre() -> Report {
    let mut report = Report::default();
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.01, 41);
    let beta_g = dataset.graph.sparsity();
    let ladder = [
        ("β_G", Some(1.0)),
        ("1.5β_G", Some(1.5)),
        ("5β_G", Some(5.0)),
        ("7β_G", Some(7.0)),
        ("10β_G", Some(10.0)),
        ("TorchGT", None), // the Auto Tuner
    ];
    for model in [BenchModel::GraphormerSlim, BenchModel::Gt] {
        let mut title = format!("--- {} ---", model.label());
        if model == BenchModel::GraphormerSlim {
            title = format!("β_G = {beta_g:.2e}\n\n{title}");
        }
        let columns = [label("β_thre", 12), num("sim t_epoch (s)", 16, 6), num("test acc", 10, 4)];
        let mut t = Table::new(title, &columns);
        let (mut sims, mut accs) = (Vec::new(), Vec::new());
        for (name, times_g) in ladder {
            let beta_thre = times_g.map(|x| x * beta_g);
            let cfg = TrainConfig { beta_thre, ..config(Method::TorchGt, 400, 5, 2e-3, 3) };
            let mut trainer = model.node_trainer(cfg, &dataset);
            let acc = last_acc(&trainer.run());
            let step = StepSpec {
                gpu: GpuSpec::rtx3090(),
                topology: ClusterTopology::rtx3090(1),
                shape: model.paper_shape(),
                layout: LayoutKind::ClusterSparse,
                seq_len: 64 << 10,
                profile: at_paper_scale(trainer.mean_profile(), 64 << 10),
            };
            let sim = iteration_cost(&step).total() * 3.0;
            t.row([name.into(), sim.into(), acc.into()]);
            if times_g.is_some() {
                sims.push(sim);
                accs.push(acc);
            }
        }
        report.push(t);
        let fastest = sims.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i);
        report.check(format!("the fastest β_thre is ≥ 5β_G ({})", model.label()), fastest >= 2);
        let held = accs[0] >= accs[accs.len() - 1] - 0.05;
        report.check(format!("accuracy at β_G ≥ at 10β_G − 0.05 ({})", model.label()), held);
    }
    report
}

/// Ablation: TorchGT minus each of its three techniques on the arxiv-scale
/// stand-in — no-reorder (original node ids), no-reform (β_thre = 0),
/// no-interleave (pure sparse attention). No-reform loses run length
/// (kernel locality); no-interleave loses accuracy.
fn ablation_components() -> Report {
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.01, 71);
    let gpu = GpuSpec::rtx3090();
    let attn = num("paper-scale attn (ms)", 22, 2);
    let columns = [label("variant", 14), num("test acc", 10, 4), num("avg run", 12, 2), attn];
    let mut t = Table::new("", &columns);
    let [full, _, no_reform, no_interleave] = [
        ("full", 0usize, None, 8usize),
        ("no-reorder", 1, None, 8),
        ("no-reform", 0, Some(0.0), 8),
        ("no-interleave", 0, None, 0),
    ]
    .map(|(name, clusters, beta_thre, interleave_period)| {
        let base = config(Method::TorchGt, 400, 6, 2e-3, 3);
        let cfg = TrainConfig { clusters, beta_thre, interleave_period, ..base };
        let mut trainer = BenchModel::GraphormerSlim.node_trainer(cfg, &dataset);
        let acc = last_acc(&trainer.run());
        let profile = trainer.mean_profile();
        // This variant's layout priced at paper scale (S = 64K).
        let attn_ms = cluster_sparse_ms(&gpu, &at_paper_scale(profile, 64 << 10), 64);
        t.row([name.into(), acc.into(), profile.avg_run_len.into(), attn_ms.into()]);
        (acc, profile.avg_run_len)
    });
    let mut report = Report::default();
    report.push(t);
    report.check("reformation lengthens access runs (full vs no-reform)", full.1 > no_reform.1);
    let held = full.0 >= no_interleave.0 - 0.05;
    report.check("interleaving costs no accuracy (full ≥ no-interleave − 0.05)", held);
    report
}

/// The paper's I2 claim (§II-C): NLP-style efficient attention —
/// sliding-window sparsity and Performer (FAVOR+) — ignores graph structure,
/// while the topology-induced pattern keeps the edges that matter. Same GT
/// model and update budget on a structure-dependent node task (weak
/// features); only the attention pattern differs.
fn ablation_nlp_attention() -> Report {
    let mut dataset = DatasetKind::OgbnArxiv.generate_node(0.004, 81);
    weaken_features(&mut dataset, 17);
    let n = dataset.num_nodes();
    let features = Tensor::from_vec(n, dataset.feat_dim, dataset.features.clone());
    let topo = topology_mask(&dataset.graph, true);
    // A window with the same average nonzeros per row as the topology mask.
    let w = (topo.num_arcs() / n / 2).max(1);
    let window = window_mask(n, w);
    let (classes, topo_nnz, window_nnz) = (dataset.num_classes, topo.num_arcs(), window.num_arcs());
    let title = format!("{n} nodes, {classes} classes; topology nnz {topo_nnz}, window(±{w}) nnz {window_nnz}");
    let mut t = Table::new(title, &[label("pattern", 10), num("test acc", 9, 4)]);
    let batch = SequenceBatch { features: &features, graph: &dataset.graph, spd: None };
    let (labels, split) = (&dataset.labels, &dataset.split);
    // The rows a step reads (the labelled training rows) and an evaluation
    // reads (the test rows), ascending, with their labels.
    let read = |idx: &[u32]| {
        let mut rows: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
        rows.sort_unstable();
        let row_labels: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
        (rows, row_labels)
    };
    let ((train_rows, train_labels), (test_rows, test_labels)) = (read(&split.train), read(&split.test));
    let patterns = [
        ("topology", Pattern::Sparse(&topo)),
        ("window", Pattern::Sparse(&window)),
        ("performer", Pattern::Performer(64)),
    ];
    let [topo_acc, window_acc, performer_acc] = patterns.map(|(name, pattern)| {
        let cfg = GtConfig { hidden: 32, heads: 4, pe_dim: 8, ..GtConfig::tiny(dataset.feat_dim, classes) };
        let mut model = Gt::new(cfg, 5);
        model.set_training(true);
        let mut opt = Adam::with_lr(2e-3);
        let mut ws = Workspace::new();
        for _ in 0..25 {
            let logits = model.forward_ws(&batch, pattern, &train_rows, &mut ws);
            let (_, dl) = loss::softmax_cross_entropy_ws(&logits, &train_labels, &mut ws);
            model.backward_ws(&batch, pattern, &dl, &mut ws);
            opt.step(&mut model.params_mut());
            ws.give(logits);
            ws.give(dl);
        }
        model.set_training(false);
        let acc = loss::accuracy(&model.forward_ws(&batch, pattern, &test_rows, &mut ws), &test_labels, None);
        t.row([name.into(), acc.into()]);
        acc
    });
    let mut report = Report::default();
    report.push(t);
    let best_nlp = window_acc.max(performer_acc);
    report.check("topology attention beats the best NLP pattern by > 0.03", topo_acc > best_nlp + 0.03);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_runs_improve_monotonically() {
        let runs = measure_layout_runs(DatasetKind::OgbnArxiv, 0.006);
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
}
