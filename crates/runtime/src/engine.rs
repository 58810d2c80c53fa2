//! The one epoch engine (paper Fig. 4): decide (C1–C3 + interleave) →
//! attention pattern → forward → loss → backward → optimizer → cost model →
//! traces, then evaluation and the Auto Tuner hook.
//!
//! [`EpochLoop`] owns everything that *trains* — model, Adam, scratch
//! arena, recorder, interleave scheduler, epoch counter, the model shape
//! the cost model prices —
//! and holds the evaluation accumulator, snapshot/restore and the
//! [`Trainer`] impl. The step itself is [`train_step`], the only copy: the
//! loop and the data-parallel drivers (`distributed`, `rebalance`) all run
//! it. It forwards only the rows its [`Target`] reads — a node-level step
//! the labelled training rows, evaluation the train and test rows — so
//! under sparse and flash attention the model's last block computes just
//! those. A [`BatchSource`] owns everything that is *data*: it lends the
//! loop one [`Batch`] at a time.
//! The three trainers of this crate are this loop over three sources
//! ([`crate::NodeTrainer`], [`crate::BatchedGraphTrainer`] — graph-level
//! training, one graph per step being the pack of one — and
//! [`crate::StreamingTrainer`]).
//!
//! A new data source implements [`BatchSource::for_each`] — visit the
//! epoch's batches in a deterministic order, each with its masks, cost
//! profile and [`Target`] — and overrides the remaining hooks only for
//! state it really has (a β_thre that moves, preparation time to report, a
//! dataset identity to stamp on snapshots).

use crate::config::{Method, TrainConfig};
use crate::interleave::{Decision, InterleaveScheduler};
use crate::traits::Trainer;
use std::io;
use std::ops::{Deref, DerefMut};
use std::time::Instant;
use torchgt_ckpt::{SchedulerState, Snapshot, TrainerState};
use torchgt_comm::ClusterTopology;
use torchgt_graph::pack::{segment_mean_backward_into, segment_mean_into};
use torchgt_graph::{ConditionReport, CsrGraph, GraphLabel};
use torchgt_model::{loss, Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{EpochTrace, Event, RecorderHandle, SpanGuard, StepTrace};
use torchgt_perf::{all_to_all_traffic, iteration_cost, GpuSpec, ModelShape, StepSpec};
use torchgt_sparse::{AccessProfile, LayoutKind};
use torchgt_tensor::bf16::{apply_precision, bf16_round_tensor};
use torchgt_tensor::optim::WarmupSchedule;
use torchgt_tensor::{Adam, Optimizer, Precision, Tensor, Workspace, WorkspaceStats};

/// Elapsed seconds since the mark, re-arming it; 0 when timing is off
/// (disabled recorder — no clock reads at all).
pub(crate) fn lap(mark: &mut Option<Instant>) -> f64 {
    match mark {
        Some(t) => {
            let s = t.elapsed().as_secs_f64();
            *mark = Some(Instant::now());
            s
        }
        None => 0.0,
    }
}

torchgt_compat::json_struct! {
    /// Per-epoch training record.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct EpochStats {
        /// Epoch number (0-based).
        pub epoch: usize,
        /// Mean training loss over the epoch.
        pub loss: f32,
        /// Accuracy on the train split.
        pub train_acc: f64,
        /// Accuracy on the test split.
        pub test_acc: f64,
        /// Real wall-clock seconds of this Rust process.
        pub wall_seconds: f64,
        /// Simulated seconds on the configured GPU cluster (what the paper's
        /// tables report).
        pub sim_seconds: f64,
        /// Iterations run with the sparse pattern.
        pub sparse_iters: usize,
        /// Iterations run fully-connected (interleaves + fallbacks).
        pub full_iters: usize,
        /// The transfer threshold β_thre in effect.
        pub beta_thre: f64,
    }
}

/// The one simulated device of every priced training step: an RTX 3090
/// and the eight-GPU PCIe server it sits in (paper testbed ①). Step
/// pricing, the simulated all-to-all record and the Auto Tuner's `k` /
/// `d_b` choice all read it, so pricing on other hardware changes this
/// function only.
pub(crate) fn device() -> (GpuSpec, ClusterTopology) {
    (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1))
}

/// What the per-token logits of a batch are scored against.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// Node-level: every token has a label; the loss runs over the `train`
    /// positions and accuracy over `train` and `test` separately. A training
    /// step reads the `train` rows only, evaluation both.
    Tokens {
        /// Labels in sequence order.
        labels: &'a [u32],
        /// Positions carrying training labels, ascending.
        train: &'a [u32],
        /// Positions carrying test labels, ascending.
        test: &'a [u32],
    },
    /// Graph-level: token logits mean-pool into one prediction per member
    /// graph (classification → accuracy, regression → negative MAE).
    Graphs {
        /// Row range of each member graph.
        segments: &'a [(usize, usize)],
        /// One label per member graph.
        labels: &'a [GraphLabel],
        /// Whether the batch belongs to the held-out split: scored, never
        /// trained on.
        held_out: bool,
    },
}

/// One training sequence, lent to the loop for the duration of a step.
pub struct Batch<'a> {
    /// Features and graph the model consumes.
    pub seq: SequenceBatch<'a>,
    /// Mask of the sparse attention pattern.
    pub mask: &'a CsrGraph,
    /// Block-diagonal stand-in for the fully-connected pass (packs of
    /// several graphs, where dense attention would leak across members).
    /// `None` runs the method's own Dense/Flash pattern.
    pub full_mask: Option<&'a CsrGraph>,
    /// Cached C1–C3 verdict on `mask` (on every member's block of it, for
    /// a pack); required for [`Method::TorchGt`].
    pub report: Option<ConditionReport>,
    /// Memory-access profile of the mask the kernel sees (cost model).
    pub profile: AccessProfile,
    /// `nnz_after / nnz_before` of the latest reformation (1.0 without one).
    pub reform_ratio: f64,
    /// What the logits are scored against.
    pub target: Target<'a>,
}

/// The data half of a trainer: visits batches, and owns whatever state
/// travels with the data rather than with the model.
pub trait BatchSource {
    /// Whether the loop publishes an [`EpochTrace`] per epoch besides its
    /// step traces. Off only for [`crate::batched::PackedSource`]: the
    /// frozen `perf_ledger` workload `graph_batched` writes its own
    /// epoch-level rows and aborts on the duplicates an `EpochTrace` would
    /// add. Delete once that file reads the trace instead.
    const EPOCH_TRACE: bool = true;

    /// Visit every batch of `epoch` in a deterministic order, the training
    /// split before the held-out one. The loop trains on the former and
    /// scores both.
    fn for_each(&mut self, epoch: usize, step: &mut dyn FnMut(&Batch<'_>));

    /// The transfer threshold in effect, for sources that have one.
    fn beta_thre(&self) -> Option<f64> {
        None
    }

    /// A recorder was attached to the loop.
    fn attach_recorder(&mut self, _recorder: &RecorderHandle) {}

    /// An epoch finished with this mean loss and simulated time (the Auto
    /// Tuner's inputs).
    fn end_epoch(&mut self, _epoch: usize, _loss: f64, _sim_seconds: f64) {}

    /// Preparation seconds not yet reported in an epoch trace.
    fn take_preprocess_s(&mut self) -> f64 {
        0.0
    }

    /// Report what the set-up did, once: each stage's seconds as a
    /// `preprocess/<stage>` span and the bytes each kept structure holds as
    /// a `setup_bytes/<structure>` gauge.
    fn report_setup(&mut self, _recorder: &RecorderHandle) {}

    /// Add the source's resumable state to a snapshot of the loop.
    fn stamp(&self, _snapshot: &mut Snapshot) {}

    /// Refuse a snapshot this source must not resume from. Runs before
    /// anything is mutated.
    fn check(&self, _snapshot: &Snapshot) -> io::Result<()> {
        Ok(())
    }

    /// Adopt the state [`BatchSource::stamp`] wrote.
    fn adopt(&mut self, _state: &TrainerState) {}
}

/// The epoch loop over a data source `S`. Dereferences to the source, so
/// source-specific accessors (`preprocess_seconds()`, `loader()`, …) are
/// reachable on the trainer itself.
pub struct EpochLoop<S> {
    /// The run configuration.
    pub cfg: TrainConfig,
    /// The model's shape, which the cost model prices each step at on
    /// [`device`]; `None` reports no simulated time and no all-to-all
    /// volume.
    pub(crate) shape: Option<ModelShape>,
    pub(crate) model: Box<dyn SequenceModel>,
    pub(crate) opt: Adam,
    /// Scratch-tensor arena shared by every forward/backward/loss call. Not
    /// checkpointed: after a restore it merely starts cold.
    ws: Workspace,
    recorder: RecorderHandle,
    scheduler: InterleaveScheduler,
    pub(crate) epoch: usize,
    source: S,
}

impl<S> Deref for EpochLoop<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.source
    }
}

impl<S> DerefMut for EpochLoop<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.source
    }
}

fn pattern_for<'a>(method: Method, decision: Decision, b: &Batch<'a>) -> Pattern<'a> {
    match (decision, b.full_mask, method) {
        (Decision::Sparse, ..) => Pattern::Sparse(b.mask),
        (Decision::Full, Some(full), _) => Pattern::Sparse(full),
        (Decision::Full, None, Method::GpRaw) => Pattern::Dense,
        (Decision::Full, None, _) => Pattern::Flash,
    }
}

fn layout_for(method: Method, decision: Decision) -> LayoutKind {
    match (method, decision) {
        (Method::GpRaw, _) => LayoutKind::Dense,
        (Method::GpFlash, _) | (Method::TorchGt, Decision::Full) => LayoutKind::Flash,
        (Method::GpSparse, _) => LayoutKind::Topology,
        (Method::TorchGt, Decision::Sparse) => LayoutKind::ClusterSparse,
    }
}

/// What one [`train_step`] measured.
pub(crate) struct StepOut {
    /// The step's loss.
    pub(crate) loss: f32,
    /// Seconds of the forward and the loss (0 untimed).
    pub(crate) forward_s: f64,
    /// Seconds of the backward (0 untimed).
    pub(crate) backward_s: f64,
    /// Rows the model's last transformer block computed.
    pub(crate) last_block_rows: usize,
}

/// One training step on one sequence: forward at the rows `target` reads
/// for training, loss, backward. The parameter gradients accumulate; the
/// optimizer step is the caller's. `mark` times the forward (with the loss)
/// and the backward, reading no clock when `None`.
pub(crate) fn train_step(
    model: &mut dyn SequenceModel,
    ws: &mut Workspace,
    precision: Precision,
    seq: &SequenceBatch<'_>,
    pattern: Pattern<'_>,
    target: Target<'_>,
    mark: &mut Option<Instant>,
) -> StepOut {
    let tokens = seq.features.rows();
    let rows = target.read_rows(tokens, false);
    let pred = predict(model, ws, precision, seq, pattern, target, &rows);
    let (loss, dpred) = target.loss(&pred, &rows, ws);
    let forward_s = lap(mark);
    let dlogits = target.token_grad(dpred, rows.len(), ws);
    model.backward_ws(seq, pattern, &dlogits, ws);
    ws.give(dlogits);
    ws.give(pred);
    let backward_s = lap(mark);
    // What the transformer models' last block runs over (`forward_ws`).
    let last_block_rows = if pattern.reads_rows() { rows.len() } else { tokens };
    StepOut { loss, forward_s, backward_s, last_block_rows }
}

/// Forward one batch at `rows` and reduce the logits to the rows its target
/// scores (the logits themselves, or one mean-pooled row per member graph).
fn predict(
    model: &mut dyn SequenceModel,
    ws: &mut Workspace,
    precision: Precision,
    seq: &SequenceBatch<'_>,
    pattern: Pattern<'_>,
    target: Target<'_>,
    rows: &[usize],
) -> Tensor {
    let logits = model.forward_ws(seq, pattern, rows, ws);
    let mut pred = match target {
        Target::Tokens { .. } => logits,
        Target::Graphs { segments, .. } => {
            let cols = logits.cols();
            let mut pooled = ws.take(segments.len(), cols);
            segment_mean_into(logits.data(), cols, segments, pooled.data_mut());
            ws.give(logits);
            pooled
        }
    };
    apply_precision(&mut pred, precision);
    pred
}

impl Target<'_> {
    /// The rows of a `tokens`-token sequence a training step (`eval`
    /// false) or an evaluation pass reads, ascending: the labelled ones of
    /// a node-level target, every row of a graph-level one.
    fn read_rows(&self, tokens: usize, eval: bool) -> Vec<usize> {
        match *self {
            Target::Tokens { train, test, .. } => {
                let mut rows: Vec<usize> = train.iter().map(|&p| p as usize).collect();
                if eval {
                    rows.extend(test.iter().map(|&p| p as usize));
                    rows.sort_unstable();
                    rows.dedup();
                }
                rows
            }
            Target::Graphs { .. } => (0..tokens).collect(),
        }
    }

    /// Mean loss over the predictions at the read `rows` and its gradient
    /// w.r.t. them. For packed graphs the gradient is the *sum* of the
    /// per-graph gradients.
    fn loss(&self, pred: &Tensor, rows: &[usize], ws: &mut Workspace) -> (f32, Tensor) {
        match *self {
            Target::Tokens { labels, .. } => {
                let labels: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
                loss::softmax_cross_entropy_ws(pred, &labels, ws)
            }
            Target::Graphs { labels, .. } => {
                let mut total = 0.0f32;
                let mut grad = ws.take(labels.len(), pred.cols());
                for (g, &label) in labels.iter().enumerate() {
                    let row = pred.view_rows(g, g + 1);
                    let (l, dl) = match label {
                        GraphLabel::Class(c) => loss::softmax_cross_entropy_ws(&row, &[c], ws),
                        GraphLabel::Value(v) => loss::mae_loss(&row, &[v]),
                    };
                    total += l;
                    grad.row_mut(g).copy_from_slice(dl.row(0));
                    ws.give(dl);
                }
                (total / labels.len().max(1) as f32, grad)
            }
        }
    }

    /// Gradient w.r.t. the logits of the read rows from the gradient w.r.t.
    /// the predictions (mean-pool backward: broadcast `/ len` over each
    /// graph).
    fn token_grad(&self, dpred: Tensor, rows: usize, ws: &mut Workspace) -> Tensor {
        let Target::Graphs { segments, .. } = *self else {
            return dpred;
        };
        let mut dtokens = ws.take(rows, dpred.cols());
        segment_mean_backward_into(dpred.data(), dpred.cols(), segments, dtokens.data_mut());
        ws.give(dpred);
        dtokens
    }

    /// Add the batch's metric, from the predictions at the evaluation's
    /// read `rows`, to the `[train, held-out]` tallies of
    /// `(score, weight)`: node batches weigh in per labelled position,
    /// graph batches as one unit of their mean metric.
    fn score(&self, pred: &Tensor, rows: &[usize], tally: &mut [(f64, f64); 2]) {
        match *self {
            Target::Tokens { labels, train, test } => {
                let read_labels: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
                for (t, positions) in tally.iter_mut().zip([train, test]) {
                    let at: Vec<u32> = positions
                        .iter()
                        .map(|&p| rows.binary_search(&(p as usize)).expect("scored rows are read") as u32)
                        .collect();
                    let n = positions.len() as f64;
                    t.0 += (loss::accuracy(pred, &read_labels, Some(&at)) * n).round();
                    t.1 += n;
                }
            }
            Target::Graphs { labels, held_out, .. } => {
                let mut metric = 0.0f64;
                for (g, &label) in labels.iter().enumerate() {
                    match label {
                        GraphLabel::Class(c) => {
                            metric += loss::accuracy(&pred.view_rows(g, g + 1), &[c], None)
                        }
                        GraphLabel::Value(v) => metric -= (pred.get(g, 0) - v).abs() as f64,
                    }
                }
                let t = &mut tally[usize::from(held_out)];
                t.0 += metric / labels.len().max(1) as f64;
                t.1 += 1.0;
            }
        }
    }
}

impl<S: BatchSource> EpochLoop<S> {
    /// Assemble a loop over a prepared source. A `priced` loop runs the
    /// cost model at the model's own [`SequenceModel::shape`]; otherwise
    /// steps report no simulated time and no simulated all-to-all volume.
    pub fn with_source(cfg: TrainConfig, model: Box<dyn SequenceModel>, priced: bool, source: S) -> Self {
        Self {
            shape: priced.then(|| model.shape()),
            scheduler: InterleaveScheduler::new(cfg.interleave_period),
            opt: Adam::with_lr(cfg.lr),
            ws: Workspace::new(),
            recorder: torchgt_obs::noop(),
            epoch: 0,
            cfg,
            model,
            source,
        }
    }

    /// Route observability signals to `recorder` (spans, step/epoch traces,
    /// simulated all-to-all volume, β_thre transition events).
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        if let (true, Some(beta)) = (recorder.enabled(), self.source.beta_thre()) {
            recorder.gauge_set("beta_thre", beta);
        }
        self.source.attach_recorder(&recorder);
        self.recorder = recorder;
    }

    /// The model under training.
    pub fn model_mut(&mut self) -> &mut dyn SequenceModel {
        self.model.as_mut()
    }

    /// Counters of the trainer's scratch arena: what it allocated, reused
    /// and holds (`held_bytes` follows the largest step, not the number of
    /// distinct step shapes — `tests/arena_bound.rs`).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Fraction of TorchGT iterations that ran fully-connected so far.
    pub fn full_fraction(&self) -> f64 {
        self.scheduler.full_fraction()
    }

    /// Run one training epoch.
    pub fn train_epoch(&mut self) -> EpochStats {
        let t0 = Instant::now();
        let on = self.recorder.enabled();
        let _epoch_span = SpanGuard::new(&self.recorder, "train_epoch");
        self.model.set_training(true);
        let beta_thre = self.source.beta_thre().or(self.cfg.beta_thre).unwrap_or(0.0);
        // The epoch trace doubles as the accumulator (timings stay 0 with
        // the recorder off: no clock is read).
        let mut trace = EpochTrace { epoch: self.epoch, beta_thre, ..EpochTrace::default() };
        let mut total_loss = 0.0f32;
        let (gpu, topology) = device();
        let Self { cfg, shape, model, opt, ws, recorder, scheduler, source, epoch } = self;
        source.for_each(*epoch, &mut |b| {
            if matches!(b.target, Target::Graphs { held_out: true, .. }) {
                return;
            }
            let decision = match cfg.method {
                Method::GpRaw | Method::GpFlash => Decision::Full,
                Method::GpSparse => Decision::Sparse,
                Method::TorchGt => scheduler.decide_with_report(
                    &b.report.expect("sources serving TorchGT cache a condition report"),
                ),
            };
            let step = trace.sparse_iters + trace.full_iters;
            match decision {
                Decision::Sparse => trace.sparse_iters += 1,
                Decision::Full => trace.full_iters += 1,
            }
            let pattern = pattern_for(cfg.method, decision, b);
            let seq_len = b.seq.features.rows();
            let ws0 = on.then(|| ws.stats());
            let mut mark = on.then(Instant::now);
            let out = train_step(model.as_mut(), ws, cfg.precision, &b.seq, pattern, b.target, &mut mark);
            total_loss += out.loss;
            let StepOut { forward_s, backward_s, last_block_rows, .. } = out;
            if cfg.warmup_steps > 0 {
                let schedule =
                    WarmupSchedule { peak_lr: cfg.lr, warmup: cfg.warmup_steps as u64 };
                opt.set_lr(schedule.lr_at(opt.steps() + 1));
            }
            opt.step(&mut model.params_mut());
            if cfg.precision == Precision::Bf16 {
                for p in model.params_mut() {
                    bf16_round_tensor(&mut p.value);
                }
            }
            let optim_s = lap(&mut mark);
            let spec = shape.map(|shape| StepSpec {
                gpu,
                topology,
                shape,
                layout: layout_for(cfg.method, decision),
                seq_len,
                profile: b.profile,
            });
            let sim_s = spec.as_ref().map_or(0.0, |s| iteration_cost(s).total());
            trace.sim_s += sim_s;
            trace.forward_s += forward_s;
            trace.backward_s += backward_s;
            trace.optim_s += optim_s;
            if on {
                // Memory discipline of this step: fresh arena allocations,
                // reuse hits and what the arena holds (steady state shows
                // alloc_bytes == 0 and a flat arena_held_bytes).
                let ws1 = ws.stats();
                let ws0 = ws0.expect("stats snapshot taken when recorder is on");
                recorder.gauge_set("alloc_bytes", (ws1.alloc_bytes - ws0.alloc_bytes) as f64);
                recorder.gauge_set("arena_reuse_hits", (ws1.reuse_hits - ws0.reuse_hits) as f64);
                recorder.gauge_set("arena_held_bytes", ws1.held_bytes as f64);
                // How much of the sequence the last block computed.
                recorder.gauge_set("last_block_rows", last_block_rows as f64);
                if let Some(spec) = &spec {
                    // The §III-C sequence↔head relayouts this iteration
                    // implies on the simulated cluster.
                    let traffic = all_to_all_traffic(spec);
                    recorder.collective(
                        "all_to_all",
                        traffic.ops,
                        traffic.payload_bytes,
                        traffic.wire_bytes,
                    );
                }
                recorder.step(StepTrace {
                    epoch: trace.epoch,
                    step,
                    seq_len,
                    sparse: decision == Decision::Sparse,
                    beta_thre,
                    reform_ratio: b.reform_ratio,
                    forward_s,
                    backward_s,
                    optim_s,
                    sim_s,
                });
            }
        });
        let steps = trace.sparse_iters + trace.full_iters;
        let mean_loss = total_loss / steps.max(1) as f32;
        trace.loss = mean_loss as f64;
        // Numerical-health guard: a NaN/Inf epoch loss means the run is
        // poisoned — flag it so drivers can restore from the last snapshot.
        if on && !mean_loss.is_finite() {
            self.recorder.event(Event::loss_nonfinite(trace.epoch, trace.loss));
        }
        let mut eval_mark = on.then(Instant::now);
        let (train_acc, test_acc) = self.evaluate();
        trace.eval_s = lap(&mut eval_mark);
        let stats = EpochStats {
            epoch: trace.epoch,
            loss: mean_loss,
            train_acc,
            test_acc,
            wall_seconds: t0.elapsed().as_secs_f64(),
            sim_seconds: trace.sim_s,
            sparse_iters: trace.sparse_iters,
            full_iters: trace.full_iters,
            beta_thre,
        };
        // Elastic transfer: the source's Auto Tuner may move β_thre (and
        // rebuild its masks) for the next epoch.
        self.source.end_epoch(trace.epoch, trace.loss, trace.sim_s);
        if on {
            self.recorder.counter_add("iterations", steps as u64);
            self.recorder.record_span("train_epoch/forward", trace.forward_s);
            self.recorder.record_span("train_epoch/backward", trace.backward_s);
            self.recorder.record_span("train_epoch/optim", trace.optim_s);
            // Initial preparation lands on epoch 0; a β_thre rebuild
            // triggered above lands on the epoch that triggered it.
            trace.preprocess_s = self.source.take_preprocess_s();
            if trace.preprocess_s > 0.0 {
                self.recorder.record_span("preprocess", trace.preprocess_s);
            }
            self.source.report_setup(&self.recorder);
            if S::EPOCH_TRACE {
                self.recorder.epoch(trace);
            }
        }
        self.epoch += 1;
        stats
    }

    /// Score the train and held-out splits with the method's inference
    /// pattern (higher is better for both).
    pub fn evaluate(&mut self) -> (f64, f64) {
        let _span = SpanGuard::new(&self.recorder, "evaluate");
        self.model.set_training(false);
        let decision = match self.cfg.method {
            Method::GpRaw | Method::GpFlash => Decision::Full,
            Method::GpSparse | Method::TorchGt => Decision::Sparse,
        };
        let mut tally = [(0.0f64, 0.0f64); 2];
        let Self { cfg, model, ws, source, epoch, .. } = self;
        source.for_each(*epoch, &mut |b| {
            let pattern = pattern_for(cfg.method, decision, b);
            let rows = b.target.read_rows(b.seq.features.rows(), true);
            let pred = predict(model.as_mut(), ws, cfg.precision, &b.seq, pattern, b.target, &rows);
            b.target.score(&pred, &rows, &mut tally);
            ws.give(pred);
        });
        self.model.set_training(true);
        let [train, test] = tally.map(|(score, weight)| score / weight.max(1.0));
        (train, test)
    }

    /// Train for the configured number of epochs, returning every epoch's
    /// stats.
    pub fn run(&mut self) -> Vec<EpochStats> {
        (0..self.cfg.epochs).map(|_| self.train_epoch()).collect()
    }
}

impl<S: BatchSource> Trainer for EpochLoop<S> {
    fn cfg(&self) -> &TrainConfig {
        &self.cfg
    }

    fn attach_recorder(&mut self, recorder: RecorderHandle) {
        EpochLoop::attach_recorder(self, recorder);
    }

    fn train_epoch(&mut self) -> EpochStats {
        EpochLoop::train_epoch(self)
    }

    fn evaluate(&mut self) -> (f64, f64) {
        EpochLoop::evaluate(self)
    }

    fn epoch(&self) -> usize {
        self.epoch
    }

    fn snapshot(&mut self) -> Snapshot {
        let (iteration, sparse, full) = self.scheduler.export_state();
        let mut state = TrainerState::basic(self.epoch, self.opt.steps());
        state.rng_streams = self.model.rng_state();
        state.scheduler = Some(SchedulerState {
            iteration: iteration as u64,
            sparse_iters: sparse as u64,
            full_iters: full as u64,
        });
        let mut snapshot = crate::resume::capture_model(self.model.as_mut(), state);
        self.source.stamp(&mut snapshot);
        snapshot
    }

    fn restore(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        self.source.check(snapshot)?;
        crate::resume::restore_model(self.model.as_mut(), &mut self.opt, snapshot)?;
        if let Some(s) = &snapshot.state.scheduler {
            self.scheduler.restore_state(
                s.iteration as usize,
                s.sparse_iters as usize,
                s.full_iters as usize,
            );
        }
        self.source.adopt(&snapshot.state);
        self.epoch = snapshot.state.epoch;
        Ok(())
    }
}
