//! The node-level trainer: the [`EpochLoop`] over in-memory sequences of a
//! prepared dataset, for GP-RAW / GP-FLASH / GP-SPARSE / TorchGT. The
//! source owns the reformation state (per-sequence cluster-sparse masks,
//! rebuilt whenever β_thre moves) and the Auto Tuner that moves it.

use crate::autotune::AutoTuner;
use crate::config::{Method, TrainConfig};
use crate::engine::{lap, Batch, BatchSource, CostSpec, EpochLoop, Target};
use crate::interleave::condition_depth;
use crate::preprocess::{prepare_node_dataset, Prepared};
use std::time::Instant;
use torchgt_ckpt::{Snapshot, TrainerState, TunerState};
use torchgt_comm::ClusterTopology;
use torchgt_graph::partition::{cluster_order, partition, ClusterOrder};
use torchgt_graph::{check_conditions, ConditionReport, CsrGraph, NodeDataset};
use torchgt_model::{SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_perf::{GpuSpec, ModelShape};
use torchgt_sparse::{access_profile, reform_recorded, AccessProfile, ReformConfig};

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

/// In-memory node sequences with their reformation state.
pub struct NodeSource {
    prepared: Prepared,
    attn: Vec<SeqAttention>,
    tuner: AutoTuner,
    /// Whether the Auto Tuner drives β_thre (TorchGT without a pinned value).
    tuned: bool,
    train_pos: Vec<Vec<u32>>,
    test_pos: Vec<Vec<u32>>,
    current_beta: f64,
    sub_block: usize,
    /// Depth bound of the C3 reachability check.
    condition_layers: u8,
    recorder: RecorderHandle,
    /// Preprocess seconds not yet attributed to an epoch trace (initial
    /// dataset preparation, then mid-training reformation rebuilds).
    pending_preprocess_s: f64,
}

/// Node-level trainer.
pub type NodeTrainer = EpochLoop<NodeSource>;

impl NodeTrainer {
    /// Build a trainer: preprocess the dataset (clustered for TorchGT) and
    /// construct the per-sequence masks.
    pub fn new(
        cfg: TrainConfig,
        dataset: &NodeDataset,
        model: Box<dyn SequenceModel>,
        shape: ModelShape,
        gpu: GpuSpec,
        topology: ClusterTopology,
    ) -> Self {
        let source = NodeSource::new(&cfg, dataset, shape, &gpu);
        EpochLoop::with_source(cfg, model, Some(CostSpec { gpu, topology, shape }), source)
    }
}

impl NodeSource {
    fn new(cfg: &TrainConfig, dataset: &NodeDataset, shape: ModelShape, gpu: &GpuSpec) -> Self {
        let clustered = cfg.method == Method::TorchGt;
        let tuned_k = gpu.tune_k(shape.hidden);
        let k = if cfg.clusters > 0 { cfg.clusters } else { tuned_k };
        let prepared = prepare_node_dataset(dataset, cfg.seq_len, clustered, k, cfg.seed);
        let sub_block = if cfg.sub_block > 0 {
            cfg.sub_block
        } else {
            // d_b from the cache model, sized by a typical sequence's edges.
            let edges = prepared.sequences.first().map(|s| s.mask.num_arcs()).unwrap_or(1);
            AutoTuner::tune_shape(gpu, shape.hidden, edges).1
        };
        let tuner = AutoTuner::new(prepared.beta_g, 10);
        let mut source = Self {
            attn: Vec::new(),
            tuned: clustered && cfg.beta_thre.is_none(),
            train_pos: prepared.train_positions(),
            test_pos: prepared.test_positions(),
            current_beta: cfg.beta_thre.unwrap_or_else(|| tuner.beta_thre()),
            sub_block,
            condition_layers: condition_depth(cfg.interleave_period, shape.layers),
            recorder: torchgt_obs::noop(),
            pending_preprocess_s: prepared.preprocess_seconds,
            tuner,
            prepared,
        };
        let attn = source
            .prepared
            .sequences
            .iter()
            .enumerate()
            .map(|(si, seq)| {
                if !clustered {
                    return SeqAttention {
                        mask: seq.mask.clone(),
                        profile: seq.profile,
                        report: check_conditions(&seq.mask, source.condition_layers),
                        local: None,
                        reform_ratio: 1.0,
                    };
                }
                // Local cluster structure for the reformation.
                let parts = tuned_k.min(seq.mask.num_nodes().max(1));
                let assign = partition(&seq.mask, parts, cfg.seed ^ si as u64);
                let kk = assign.iter().copied().max().unwrap_or(0) as usize + 1;
                let order = cluster_order(&assign, kk);
                let permuted = seq.mask.permute(&order.perm);
                let (mask, profile, report, reform_ratio) = source.reform(&order, &permuted);
                SeqAttention { mask, profile, report, local: Some((order, permuted)), reform_ratio }
            })
            .collect();
        source.attn = attn;
        source
    }

    /// Pre-processing cost in seconds (partition + reorder + masks).
    pub fn preprocess_seconds(&self) -> f64 {
        self.prepared.preprocess_seconds
    }

    /// Graph sparsity β_G of the prepared graph.
    pub fn beta_g(&self) -> f64 {
        self.prepared.beta_g
    }

    /// Number of training sequences.
    pub fn num_sequences(&self) -> usize {
        self.prepared.sequences.len()
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
    /// the mask to attend over, its profile, its C1–C3 report and the
    /// compaction ratio.
    fn reform(
        &self,
        order: &ClusterOrder,
        permuted: &CsrGraph,
    ) -> (CsrGraph, AccessProfile, ConditionReport, f64) {
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
        let report = check_conditions(&mask, self.condition_layers);
        let stats = reformed.stats;
        let ratio =
            if stats.nnz_before > 0 { stats.nnz_after as f64 / stats.nnz_before as f64 } else { 1.0 };
        (mask, profile, report, ratio)
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
                (state.mask, state.profile, state.report, state.reform_ratio) =
                    self.reform(order, permuted);
            }
        }
        self.attn = attn;
        self.pending_preprocess_s += lap(&mut mark);
    }
}

impl BatchSource for NodeSource {
    fn for_each(&mut self, _epoch: usize, step: &mut dyn FnMut(&Batch<'_>)) {
        for (si, (seq, state)) in self.prepared.sequences.iter().zip(&self.attn).enumerate() {
            step(&Batch {
                seq: SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None },
                mask: &state.mask,
                full_mask: None,
                report: Some(state.report),
                profile: state.profile,
                reform_ratio: state.reform_ratio,
                target: Target::Tokens {
                    labels: &seq.labels,
                    train: &self.train_pos[si],
                    test: &self.test_pos[si],
                },
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
    use torchgt_model::{Graphormer, GraphormerConfig, Gt, GtConfig};
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
        let shape = ModelShape { layers: 2, hidden: 32, heads: 4 };
        NodeTrainer::new(cfg, d, model, shape, GpuSpec::rtx3090(), ClusterTopology::rtx3090(1))
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
            assert_eq!(stats.sim_seconds > 0.0, flash.cost.is_some(), "cost model prices steps");
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
        let cost = t.cost.expect("node trainers carry a cost model");
        let sparse_spec = StepSpec {
            gpu: cost.gpu,
            topology: cost.topology,
            shape: ModelShape::graphormer_slim(),
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
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let mut t = NodeTrainer::new(
            cfg,
            &d,
            model,
            shape,
            GpuSpec::rtx3090(),
            ClusterTopology::rtx3090(1),
        );
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
        assert_eq!(a2a.ops, (8 * t.cost.unwrap().shape.layers * iters) as u64);
        // One step trace per iteration, consistent with the epoch decisions.
        assert_eq!(report.steps.len(), iters);
        assert_eq!(
            report.steps.iter().filter(|s| s.epoch == 0 && s.sparse).count(),
            stats[0].sparse_iters
        );
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
        let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
        let (gpu, topo) = (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1));
        check(NodeTrainer::new(cfg, &d, model, shape, gpu, topo));
        let graphs = graph_data();
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 1));
        check(BatchedGraphTrainer::new(cfg, &graphs, tiny_gt(&graphs), 3));
    }
}
