//! The node-level trainer: the [`EpochLoop`] over in-memory sequences of a
//! prepared dataset, for GP-RAW / GP-FLASH / GP-SPARSE / TorchGT. The
//! source owns the reformation state (per-sequence cluster-sparse masks,
//! rebuilt whenever β_thre moves) and the Auto Tuner that moves it.

use crate::autotune::AutoTuner;
use crate::config::{Method, TrainConfig};
use crate::engine::{device, lap, Batch, BatchSource, EpochLoop, Target};
use crate::interleave::condition_depth;
use crate::preprocess::{global_order, prepare_in_order, Prepared, Sequence};
use std::time::Instant;
use torchgt_ckpt::{Snapshot, TrainerState, TunerState};
use torchgt_graph::partition::{cluster_order, partition, ClusterOrder};
use torchgt_graph::{check_conditions, ConditionReport, CsrGraph, NodeDataset};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_sparse::{access_profile, reform_recorded, AccessProfile, ReformConfig};
use torchgt_tensor::Tensor;

/// What training reads of one sequence: its features, subgraph and labels,
/// and which of its positions are scored in which split.
struct NodeSeq {
    features: Tensor,
    graph: CsrGraph,
    labels: Vec<u32>,
    train: Vec<u32>,
    test: Vec<u32>,
}

/// Per-sequence attention state for the sparse path.
struct SeqAttention {
    /// The mask actually attended over (topology or cluster-sparse).
    mask: CsrGraph,
    /// Its access profile (feeds the cost model).
    profile: AccessProfile,
    /// Cached condition report for the scheduler.
    report: ConditionReport,
    /// Local cluster ordering and the topology mask permuted into it — the
    /// reformation's inputs (TorchGT only).
    local: Option<(ClusterOrder, CsrGraph)>,
    /// Compaction ratio `nnz_after / nnz_before` of the latest reformation
    /// (1.0 when no reformation applies).
    reform_ratio: f64,
}

/// What the set-up did, reported once, with epoch 0: the seconds of each
/// stage that ran, and the bytes each kept structure holds at its end.
#[derive(Default)]
struct SetupReport {
    stages: Vec<(&'static str, f64)>,
    bytes: Vec<(&'static str, usize)>,
}

impl SetupReport {
    /// Charge the time since `mark` to `stage`, and restart `mark`.
    fn lap(&mut self, stage: &'static str, mark: &mut Instant) {
        let now = Instant::now();
        let s = now.duration_since(*mark).as_secs_f64();
        *mark = now;
        match self.stages.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, total)) => *total += s,
            None => self.stages.push((stage, s)),
        }
    }
}

/// Bytes of a graph's CSR arrays.
fn graph_bytes(g: &CsrGraph) -> usize {
    size_of_val(g.row_ptr()) + size_of_val(g.col_idx())
}

/// In-memory node sequences with their reformation state. Only what
/// training reads outlives the set-up: the global cluster order, the node
/// lists, the split indices and (under TorchGT) the topology masks go once
/// the attention state is built.
pub struct NodeSource {
    seqs: Vec<NodeSeq>,
    attn: Vec<SeqAttention>,
    beta_g: f64,
    tuner: AutoTuner,
    /// Whether the Auto Tuner drives β_thre (TorchGT without a pinned value).
    tuned: bool,
    current_beta: f64,
    /// Sub-block dimension `d_b` of the reformation (Auto Tuner).
    sub_block: usize,
    /// Depth bound of the C3 reachability check.
    condition_layers: u8,
    recorder: RecorderHandle,
    /// Wall-clock of the whole set-up: dataset preparation, then every
    /// sequence's partition, reorder, first reformation and C1–C3 report.
    setup_s: f64,
    /// Preprocess seconds not yet attributed to an epoch trace (the set-up,
    /// then mid-training reformation rebuilds).
    pending_preprocess_s: f64,
    /// The set-up's stages and kept bytes, until epoch 0 reports them.
    setup: Option<SetupReport>,
}

/// Node-level trainer.
pub type NodeTrainer = EpochLoop<NodeSource>;

impl NodeTrainer {
    /// Build a trainer: preprocess the dataset (clustered for TorchGT) and
    /// construct the per-sequence masks. The model's
    /// [`SequenceModel::shape`] sizes the rest: the Auto Tuner sizes `k`
    /// and `d_b` from its `hidden` on the simulated device, `layers` bounds
    /// the C3 check, and the cost model prices every step at it.
    pub fn new(cfg: TrainConfig, dataset: &NodeDataset, model: Box<dyn SequenceModel>) -> Self {
        let source = NodeSource::new(&cfg, dataset, model.as_ref());
        EpochLoop::with_source(cfg, model, true, source)
    }
}

impl NodeSource {
    fn new(cfg: &TrainConfig, dataset: &NodeDataset, model: &dyn SequenceModel) -> Self {
        let start = Instant::now();
        let mut mark = start;
        let mut setup = SetupReport::default();
        let shape = model.shape();
        let clustered = cfg.method == Method::TorchGt;
        let (gpu, _) = device();
        let tuned_k = gpu.tune_k(shape.hidden);
        let k = if cfg.clusters > 0 { cfg.clusters } else { tuned_k };
        let order = global_order(dataset, clustered, k, cfg.seed);
        if order.is_some() {
            setup.lap("partition", &mut mark);
        }
        let prepared = prepare_in_order(dataset, cfg.seq_len, order);
        let positions = prepared.train_positions().into_iter().zip(prepared.test_positions());
        let Prepared { sequences, beta_g, .. } = prepared;
        setup.lap("sequences", &mut mark);
        // d_b from the cache model, sized by a typical sequence's edges.
        let edges = sequences.first().map(|s| s.mask.num_arcs()).unwrap_or(1);
        let sub_block = AutoTuner::tune_shape(&gpu, shape.hidden, edges).1;
        let tuner = AutoTuner::new(beta_g, 10);
        let mut source = Self {
            seqs: Vec::with_capacity(sequences.len()),
            attn: Vec::with_capacity(sequences.len()),
            beta_g,
            tuned: clustered && cfg.beta_thre.is_none(),
            current_beta: cfg.beta_thre.unwrap_or_else(|| tuner.beta_thre()),
            sub_block,
            condition_layers: condition_depth(cfg.interleave_period, shape.layers),
            recorder: torchgt_obs::noop(),
            setup_s: 0.0,
            pending_preprocess_s: 0.0,
            setup: None,
            tuner,
        };
        for (si, (seq, (train, test))) in sequences.into_iter().zip(positions).enumerate() {
            let Sequence { graph, mask, features, labels, profile, .. } = seq;
            source.seqs.push(NodeSeq { features, graph, labels, train, test });
            let state = if clustered {
                // Local cluster structure for the reformation.
                let parts = tuned_k.min(mask.num_nodes().max(1));
                let assign = partition(&mask, parts, cfg.seed ^ si as u64);
                let kk = assign.iter().copied().max().unwrap_or(0) as usize + 1;
                let order = cluster_order(&assign, kk);
                let permuted = mask.permute(&order.perm);
                drop(mask);
                setup.lap("local_partition", &mut mark);
                let (mask, profile, reform_ratio) = source.reform(&order, &permuted);
                setup.lap("reform", &mut mark);
                let report = check_conditions(&mask, source.condition_layers);
                SeqAttention { mask, profile, report, local: Some((order, permuted)), reform_ratio }
            } else {
                let report = check_conditions(&mask, source.condition_layers);
                SeqAttention { mask, profile, report, local: None, reform_ratio: 1.0 }
            };
            setup.lap("conditions", &mut mark);
            source.attn.push(state);
        }
        setup.bytes = source.held_bytes();
        source.setup = Some(setup);
        source.setup_s = start.elapsed().as_secs_f64();
        source.pending_preprocess_s = source.setup_s;
        source
    }

    /// Bytes each structure the source keeps holds, by the lengths of its
    /// arrays.
    fn held_bytes(&self) -> Vec<(&'static str, usize)> {
        let seqs = |f: fn(&NodeSeq) -> usize| -> usize { self.seqs.iter().map(f).sum() };
        let attn = |f: fn(&SeqAttention) -> usize| -> usize { self.attn.iter().map(f).sum() };
        let mut bytes = vec![
            ("features", seqs(|s| size_of_val(s.features.data()))),
            ("seq_graphs", seqs(|s| graph_bytes(&s.graph))),
            ("labels", seqs(|s| size_of_val(&s.labels[..]))),
            ("positions", seqs(|s| size_of_val(&s.train[..]) + size_of_val(&s.test[..]))),
            ("masks", attn(|a| graph_bytes(&a.mask))),
        ];
        if self.attn.iter().any(|a| a.local.is_some()) {
            let order_bytes = |a: &SeqAttention| {
                a.local.as_ref().map_or(0, |(o, _)| {
                    size_of_val(&o.perm[..])
                        + size_of_val(&o.inverse[..])
                        + size_of_val(&o.cluster_of_new[..])
                        + size_of_val(&o.offsets[..])
                })
            };
            bytes.push(("local_orders", attn(order_bytes)));
            bytes.push(("local_masks", attn(|a| a.local.as_ref().map_or(0, |(_, m)| graph_bytes(m)))));
        }
        bytes
    }

    /// Pre-processing cost in seconds: the whole set-up (partition,
    /// reorder and masks, then per-sequence partitions, reorders, the first
    /// reformation and the C1–C3 reports).
    pub fn preprocess_seconds(&self) -> f64 {
        self.setup_s
    }

    /// Graph sparsity β_G of the prepared graph.
    pub fn beta_g(&self) -> f64 {
        self.beta_g
    }

    /// Number of training sequences.
    pub fn num_sequences(&self) -> usize {
        self.seqs.len()
    }

    /// Aggregate access profile of the *current* attention masks (reflects
    /// the reformation state — used to extrapolate kernel time to paper
    /// scale, e.g. by the Table VIII harness).
    pub fn mean_profile(&self) -> AccessProfile {
        let mut nnz = 0usize;
        let mut runs = 0usize;
        let mut isolated = 0usize;
        let mut active = 0usize;
        for s in &self.attn {
            nnz += s.profile.nnz;
            runs += s.profile.runs;
            isolated += s.profile.isolated;
            active += s.profile.active_rows;
        }
        AccessProfile {
            nnz,
            runs,
            avg_run_len: if runs > 0 { nnz as f64 / runs as f64 } else { 0.0 },
            isolated,
            active_rows: active,
        }
    }

    /// Reform one sequence's permuted topology mask at the current β_thre:
    /// the mask to attend over, its profile and the compaction ratio.
    fn reform(&self, order: &ClusterOrder, permuted: &CsrGraph) -> (CsrGraph, AccessProfile, f64) {
        let reformed = reform_recorded(
            permuted,
            order,
            ReformConfig { db: self.sub_block, beta_thre: self.current_beta },
            &self.recorder,
        );
        // Back to sequence-local ids, then restore the C1/C2 backbone the
        // transfer may have broken (self-loops + Hamiltonian sequence path
        // — O(S) extra edges).
        let mask = torchgt_graph::augment_for_conditions(&reformed.mask.permute(&order.inverse));
        // Profile measured on the *clustered* layout (that is what the
        // kernel sees).
        let profile = access_profile(&reformed.mask);
        let stats = reformed.stats;
        let ratio =
            if stats.nnz_before > 0 { stats.nnz_after as f64 / stats.nnz_before as f64 } else { 1.0 };
        (mask, profile, ratio)
    }

    /// Move to a new β_thre and re-run the reformation (elastic transfer).
    /// The rebuild's wall-clock is charged to preprocess time in the next
    /// epoch trace.
    fn set_beta(&mut self, beta: f64) {
        self.current_beta = beta;
        let mut mark = self.recorder.enabled().then(Instant::now);
        let mut attn = std::mem::take(&mut self.attn);
        for state in &mut attn {
            if let Some((order, permuted)) = &state.local {
                (state.mask, state.profile, state.reform_ratio) = self.reform(order, permuted);
                state.report = check_conditions(&state.mask, self.condition_layers);
            }
        }
        self.attn = attn;
        self.pending_preprocess_s += lap(&mut mark);
    }
}

impl BatchSource for NodeSource {
    fn for_each(&mut self, _epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        for (seq, state) in self.seqs.iter().zip(&self.attn) {
            step(&Batch {
                seq: SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None },
                mask: &state.mask,
                full_mask: None,
                report: Some(state.report),
                profile: state.profile,
                reform_ratio: state.reform_ratio,
                target: Target::Tokens { labels: &seq.labels, train: &seq.train, test: &seq.test },
            });
        }
    }

    fn beta_thre(&self) -> Option<f64> {
        Some(self.current_beta)
    }

    fn attach_recorder(&mut self, recorder: &RecorderHandle) {
        self.recorder = recorder.clone();
    }

    fn end_epoch(&mut self, epoch: usize, loss: f64, sim_seconds: f64) {
        if !self.tuned {
            return;
        }
        let next = self.tuner.observe(loss, sim_seconds.max(1e-9));
        if (next - self.current_beta).abs() > f64::EPSILON {
            if self.recorder.enabled() {
                self.recorder.event(Event::beta_transition(
                    epoch,
                    self.current_beta,
                    next,
                    self.tuner.ladder_index(),
                ));
                self.recorder.gauge_set("beta_thre", next);
            }
            self.set_beta(next);
        }
    }

    fn take_preprocess_s(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preprocess_s)
    }

    fn report_setup(&mut self, recorder: &RecorderHandle) {
        let Some(setup) = self.setup.take() else { return };
        for (stage, s) in setup.stages {
            recorder.record_span(&format!("preprocess/{stage}"), s);
        }
        for (structure, bytes) in setup.bytes {
            recorder.gauge_set(&format!("setup_bytes/{structure}"), bytes as f64);
        }
    }

    fn stamp(&self, snapshot: &mut Snapshot) {
        let (index, f_history, ldr_history) = self.tuner.export_state();
        snapshot.state.beta_thre = Some(self.current_beta);
        snapshot.state.tuner = Some(TunerState { index, f_history, ldr_history });
    }

    fn adopt(&mut self, state: &TrainerState) {
        if let Some(t) = &state.tuner {
            self.tuner.restore_state(t.index, t.f_history.clone(), t.ldr_history.clone());
        }
        // The attention masks are a pure function of β_thre: re-run the
        // reformation so they match the snapshotted threshold.
        if let Some(beta) = state.beta_thre.filter(|b| (b - self.current_beta).abs() > f64::EPSILON)
        {
            self.set_beta(beta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchedGraphTrainer;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Arch, Graphormer, GraphormerConfig, Gt, GtConfig};
    use torchgt_perf::{iteration_cost, StepSpec};
    use torchgt_sparse::LayoutKind;
    use torchgt_tensor::bf16::bf16_round;
    use torchgt_tensor::Precision;

    fn dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.003, 11)
    }

    fn make_trainer(method: Method, d: &NodeDataset, epochs: usize) -> NodeTrainer {
        let mut cfg = TrainConfig::new(method, 256, epochs);
        cfg.interleave_period = 4;
        let mcfg = GraphormerConfig {
            feat_dim: d.feat_dim,
            hidden: 32,
            layers: 2,
            heads: 4,
            ffn_mult: 2,
            out_dim: d.num_classes,
            max_degree: 32,
            max_spd: 4,
            dropout: 0.0,
        };
        let model = Box::new(Graphormer::new(mcfg, 3));
        NodeTrainer::new(cfg, d, model)
    }

    pub(super) fn graph_data() -> torchgt_graph::GraphDataset {
        DatasetKind::Zinc.generate_graphs(10, 1.0, 5)
    }

    pub(super) fn tiny_gt(data: &torchgt_graph::GraphDataset) -> Box<dyn SequenceModel> {
        Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 1), 7))
    }

    #[test]
    fn torchgt_trains_and_improves() {
        let d = dataset();
        let mut t = make_trainer(Method::TorchGt, &d, 8);
        let stats = t.run();
        assert_eq!(stats.len(), 8);
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(last.loss < first.loss, "loss {} → {}", first.loss, last.loss);
        assert!(last.test_acc > 1.2 / d.num_classes as f64, "above chance");
        assert!(last.sim_seconds > 0.0);
    }

    #[test]
    fn interleave_mixes_patterns() {
        let d = dataset();
        let mut t = make_trainer(Method::TorchGt, &d, 2);
        let stats = t.run();
        let sparse: usize = stats.iter().map(|s| s.sparse_iters).sum();
        let full: usize = stats.iter().map(|s| s.full_iters).sum();
        assert!(sparse > 0, "sparse iterations must dominate");
        assert!(full > 0, "interleaved full passes must occur");
        assert!(sparse > full);
    }

    #[test]
    fn gp_flash_runs_in_bf16_and_quantises_params() {
        fn check<S: BatchSource>(mut flash: EpochLoop<S>) {
            assert_eq!(flash.cfg.precision, Precision::Bf16);
            let stats = flash.train_epoch();
            assert_eq!(stats.sim_seconds > 0.0, flash.shape.is_some(), "cost model prices steps");
            // After a BF16 step every parameter is bf16-representable.
            for p in flash.model_mut().params_mut() {
                for &v in p.value.data() {
                    assert_eq!(v, bf16_round(v), "param not bf16-rounded: {v}");
                }
            }
        }
        let d = dataset();
        check(make_trainer(Method::GpFlash, &d, 1));
        let (cfg, graphs) = (TrainConfig::new(Method::GpFlash, 64, 1), graph_data());
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 1));
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 3));
    }

    #[test]
    fn attention_sim_gap_appears_at_paper_scale() {
        // At toy sequence lengths the FFN/optimizer terms dominate the sim
        // time; the Table V gap comes from the attention term at paper-scale
        // S. Extrapolate both trainers' layouts to S = 256K with the
        // dataset's nnz-per-token and compare.
        let d = dataset();
        let t = make_trainer(Method::TorchGt, &d, 1);
        let s = 256usize << 10;
        let nnz_per_token = d.graph.avg_degree().max(1.0);
        let profile = torchgt_sparse::AccessProfile {
            nnz: (s as f64 * nnz_per_token) as usize,
            runs: ((s as f64 * nnz_per_token) / 8.0) as usize,
            avg_run_len: 8.0,
            isolated: 0,
            active_rows: s,
        };
        assert!(t.shape.is_some(), "node trainers carry a cost model");
        let (gpu, topology) = device();
        let sparse_spec = StepSpec {
            gpu,
            topology,
            shape: Arch::Graphormer(GraphormerConfig::slim(d.feat_dim, d.num_classes)).shape(),
            layout: LayoutKind::ClusterSparse,
            seq_len: s,
            profile,
        };
        let flash_spec = StepSpec {
            layout: LayoutKind::Flash,
            profile: torchgt_sparse::dense_profile(0),
            ..sparse_spec.clone()
        };
        let ratio = iteration_cost(&flash_spec).total() / iteration_cost(&sparse_spec).total();
        assert!(ratio > 3.0, "paper-scale speedup {ratio}");
    }

    #[test]
    fn gp_sparse_never_interleaves() {
        let d = dataset();
        let mut t = make_trainer(Method::GpSparse, &d, 2);
        let stats = t.run();
        assert!(stats.iter().all(|s| s.full_iters == 0));
    }

    #[test]
    fn fixed_beta_disables_tuner() {
        let d = dataset();
        let mut cfg = TrainConfig::new(Method::TorchGt, 256, 3);
        cfg.beta_thre = Some(0.5);
        let mcfg = GraphormerConfig {
            feat_dim: d.feat_dim,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim: d.num_classes,
            max_degree: 16,
            max_spd: 4,
            dropout: 0.0,
        };
        let model = Box::new(Graphormer::new(mcfg, 4));
        let mut t = NodeTrainer::new(cfg, &d, model);
        let stats = t.run();
        assert!(stats.iter().all(|s| (s.beta_thre - 0.5).abs() < 1e-12));
    }

    #[test]
    fn recorder_captures_phases_steps_and_traffic() {
        use std::sync::Arc;
        use torchgt_obs::MemoryRecorder;
        let d = dataset();
        let mut t = make_trainer(Method::TorchGt, &d, 2);
        let mem = Arc::new(MemoryRecorder::default());
        t.attach_recorder(mem.clone());
        let stats = t.run();
        let report = mem.report();
        // Per-epoch rollups mirror EpochStats.
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].sparse_iters, stats[0].sparse_iters);
        assert!(report.epochs[0].preprocess_s > 0.0, "epoch 0 carries preprocess");
        assert_eq!(report.epochs[1].preprocess_s, 0.0, "no rebuild yet");
        assert!(report.epochs.iter().all(|e| e.forward_s > 0.0 && e.backward_s > 0.0));
        // Span hierarchy: epoch > phases, evaluate nested under train_epoch.
        assert_eq!(report.span("train_epoch").unwrap().count, 2);
        assert!(report.span("train_epoch/evaluate").is_some());
        for phase in ["forward", "backward", "optim"] {
            let s = report.span(&format!("train_epoch/{phase}")).unwrap();
            assert_eq!(s.count, 2);
            assert!(s.total_s > 0.0, "{phase} must be timed");
        }
        // Simulated all-to-all volume: rtx3090(1) is an 8-GPU world, so
        // cross-link traffic is nonzero; one record per iteration.
        let a2a = mem.report().collective("all_to_all").cloned().unwrap();
        let iters: usize = stats.iter().map(|s| s.sparse_iters + s.full_iters).sum();
        assert!(a2a.wire_bytes > 0);
        assert_eq!(a2a.ops, (8 * t.shape.unwrap().layers * iters) as u64);
        // One step trace per iteration, consistent with the epoch decisions.
        assert_eq!(report.steps.len(), iters);
        assert_eq!(
            report.steps.iter().filter(|s| s.epoch == 0 && s.sparse).count(),
            stats[0].sparse_iters
        );
    }

    /// Epoch 0 reports the set-up's stages and the bytes of what the
    /// source keeps: each feature row once, per-sequence structures only
    /// (no whole-graph entry), and the local cluster state under TorchGT
    /// alone.
    #[test]
    fn setup_reports_its_stages_and_the_bytes_it_keeps() {
        use std::sync::Arc;
        use torchgt_obs::MemoryRecorder;
        let d = dataset();
        let (torchgt, gp) = (
            ["features", "labels", "local_masks", "local_orders", "masks", "positions", "seq_graphs"],
            ["features", "labels", "masks", "positions", "seq_graphs"],
        );
        let torchgt_stages = ["partition", "sequences", "local_partition", "reform", "conditions"];
        let cases: [(Method, &[&str], &[&str]); 2] = [
            (Method::TorchGt, &torchgt, &torchgt_stages),
            (Method::GpSparse, &gp, &["sequences", "conditions"]),
        ];
        for (method, structures, stages) in cases {
            let mut t = make_trainer(method, &d, 2);
            let mem = Arc::new(MemoryRecorder::default());
            t.attach_recorder(mem.clone());
            t.run();
            let report = mem.report();
            let kept: Vec<(&str, f64)> = report
                .gauges
                .iter()
                .filter_map(|g| g.name.strip_prefix("setup_bytes/").map(|s| (s, g.value)))
                .collect();
            assert_eq!(kept.iter().map(|k| k.0).collect::<Vec<_>>(), structures, "{method:?}");
            let bytes = |name: &str| kept.iter().find(|k| k.0 == name).unwrap().1;
            assert_eq!(bytes("features"), (d.num_nodes() * d.feat_dim * 4) as f64, "{method:?}: features once");
            assert_eq!(bytes("labels"), (d.num_nodes() * 4) as f64);
            for stage in stages {
                let span = report.span(&format!("preprocess/{stage}"));
                assert_eq!(span.map(|s| s.count), Some(1), "{method:?}: stage {stage}, once");
            }
            let timed = report.spans.iter().filter(|s| s.path.starts_with("preprocess/")).count();
            assert_eq!(timed, stages.len(), "{method:?}: only the stages that ran");
        }
    }

    #[test]
    fn dyn_trainer_matches_inherent_calls() {
        use crate::traits::Trainer;
        let d = dataset();
        let mut a = make_trainer(Method::TorchGt, &d, 3);
        let mut b = make_trainer(Method::TorchGt, &d, 3);
        let direct = a.run();
        let dyn_t: &mut dyn Trainer = &mut b;
        let via_trait = dyn_t.run();
        assert_eq!(direct.len(), via_trait.len());
        for (x, y) in direct.iter().zip(&via_trait) {
            // Everything except wall-clock must be bit-identical.
            assert_eq!((x.epoch, x.loss, x.train_acc, x.test_acc), (y.epoch, y.loss, y.train_acc, y.test_acc));
            assert_eq!((x.sim_seconds, x.sparse_iters, x.full_iters, x.beta_thre), (y.sim_seconds, y.sparse_iters, y.full_iters, y.beta_thre));
        }
    }

    #[test]
    fn preprocess_cost_is_small_fraction() {
        let d = dataset();
        let mut t = make_trainer(Method::TorchGt, &d, 3);
        let stats = t.run();
        let train_time: f64 = stats.iter().map(|s| s.wall_seconds).sum();
        // §IV-E: pre-processing ≤ ~5.4% of total training time — our scaled
        // runs are shorter, so just require it not to dominate.
        assert!(
            t.preprocess_seconds() < train_time,
            "preprocess {} vs train {train_time}",
            t.preprocess_seconds()
        );
    }
}

#[cfg(test)]
mod warmup_tests {
    use super::tests::{graph_data, tiny_gt};
    use super::*;
    use crate::BatchedGraphTrainer;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Gt, GtConfig};

    #[test]
    fn warmup_ramps_learning_rate() {
        use torchgt_tensor::Optimizer;
        fn check<S: BatchSource>(mut t: EpochLoop<S>) {
            let _ = t.train_epoch();
            // Few steps into a 100-step warmup: LR must be well below peak.
            assert!(t.opt.lr() < 0.5 * 1e-2, "lr {} not warming up", t.opt.lr());
            assert!(t.opt.lr() > 0.0);
        }
        let d = DatasetKind::OgbnArxiv.generate_node(0.002, 55);
        let mut cfg = TrainConfig::new(Method::GpSparse, 128, 1);
        cfg.lr = 1e-2;
        cfg.warmup_steps = 100;
        let model = Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 3));
        check(NodeTrainer::new(cfg, &d, model));
        let graphs = graph_data();
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 1));
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 3));
    }
}
