//! Closed-loop straggler rebalancing (ROADMAP item 4).
//!
//! PR 5 left the loop open: `detect_stragglers` flagged slow ranks and
//! `reshard_exchange` could move tokens, but nothing connected the two.
//! This module closes it:
//!
//! * [`StepLedger`] — per-rank EWMA step-time estimates, fed from measured
//!   per-epoch compute time plus the comm layer's injected-delay ledger
//!   (the same ledger the median-multiple watchdog reads);
//! * [`RebalancePolicy`] / [`RebalanceController`] — fire when the
//!   max/mean imbalance exceeds a threshold for K consecutive epochs;
//! * [`weighted_token_assignment`] — the one cut function: token-conserving
//!   largest-remainder apportionment of the cluster-sorted token order by
//!   per-rank throughput (equal weights are the balanced cut);
//! * `rebalance_step` — the one closed-loop re-cut (controller → weights →
//!   cut → [`reshard_exchange`], which
//!   checks conservation → [`Event::REBALANCE`] with before/after
//!   imbalance), called between retry attempts by
//!   [`train_distributed`](crate::distributed::train_distributed) and
//!   between epochs by the driver below;
//! * [`train_data_parallel_rebalance`] — a gradient-accumulation driver
//!   whose per-rank communication volume is proportional to the tokens it
//!   owns.
//!
//! The driver's loss history is **bit-identical** with and without
//! rebalancing: each token's gradient is computed by its owner against
//! epoch-frozen parameters and broadcast verbatim, so every rank folds the
//! exact same bytes in global token order no matter who owns what.

use crate::config::{TrainConfig, STRAGGLER_MULTIPLE};
use crate::distributed::DistributedStats;
use crate::engine::{train_step, Target};
use crate::elastic::reshard_exchange;
use crate::preprocess::{prepare_node_dataset, Prepared};
use std::sync::Mutex;
use std::time::Instant;
use torchgt_comm::{
    CollectiveKind, Communicator, DeviceGroup, FaultPlan, PendingCollective, StragglerReport,
};
use torchgt_graph::NodeDataset;
use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_tensor::{Adam, Optimizer, Precision, Tensor, Workspace};

/// Per-rank EWMA step-time ledger: the measurement side of the closed
/// loop. Observations are seconds-per-epoch charged to a *global* rank id;
/// the blended estimate survives rebalances so one fast epoch does not
/// erase a rank's history.
#[derive(Clone, Debug)]
pub struct StepLedger {
    alpha: f64,
    ewma: Vec<Option<f64>>,
    flags: Vec<usize>,
}

impl StepLedger {
    /// Ledger over `world` global ranks with the default smoothing 0.5.
    pub fn new(world: usize) -> Self {
        Self::with_alpha(world, 0.5)
    }

    /// Ledger with an explicit EWMA factor `alpha` in `(0, 1]` — the
    /// weight of the newest observation.
    pub fn with_alpha(world: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, ewma: vec![None; world], flags: vec![0; world] }
    }

    /// Record one step-time observation (seconds) for `rank`.
    pub fn observe(&mut self, rank: usize, seconds: f64) {
        let prev = self.ewma[rank];
        self.ewma[rank] = Some(match prev {
            Some(e) => self.alpha * seconds + (1.0 - self.alpha) * e,
            None => seconds,
        });
    }

    /// Route watchdog reports into the ledger: each flagged rank's
    /// accumulated injected delay becomes a step-time observation and its
    /// flag count is bumped. This is how drivers without direct per-rank
    /// timings (the elastic ladder) feed detection into the policy.
    pub fn observe_stragglers(&mut self, reports: &[StragglerReport]) {
        for r in reports {
            self.observe(r.rank, r.delay_s);
            self.flags[r.rank] += 1;
        }
    }

    /// How many times the watchdog has flagged `rank`.
    pub fn flags(&self, rank: usize) -> usize {
        self.flags[rank]
    }

    /// Current EWMA estimate for `rank`, seconds.
    pub fn ewma(&self, rank: usize) -> Option<f64> {
        self.ewma[rank]
    }

    /// Step-time imbalance over the `live` ranks: max/mean of the EWMA
    /// estimates. `1.0` (perfectly balanced) until at least two live ranks
    /// have observations or when the mean is not positive.
    pub fn imbalance(&self, live: &[usize]) -> f64 {
        let vals: Vec<f64> = live.iter().filter_map(|&r| self.ewma[r]).collect();
        if vals.len() < 2 {
            return 1.0;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        vals.iter().cloned().fold(f64::MIN, f64::max) / mean
    }

    /// Estimated seconds-per-token for each live rank given its current
    /// token count: `ewma / count`. Ranks without observations fall back
    /// to the mean of the observed estimates (or 1.0 when none exist).
    pub fn per_token_seconds(&self, live: &[usize], counts: &[usize]) -> Vec<f64> {
        assert_eq!(live.len(), counts.len());
        let observed: Vec<f64> = live
            .iter()
            .zip(counts)
            .filter_map(|(&r, &c)| self.ewma[r].map(|e| e / c.max(1) as f64))
            .collect();
        let fallback = if observed.is_empty() {
            1.0
        } else {
            observed.iter().sum::<f64>() / observed.len() as f64
        };
        live.iter()
            .zip(counts)
            .map(|(&r, &c)| self.ewma[r].map_or(fallback, |e| e / c.max(1) as f64))
            .collect()
    }
}

torchgt_compat::json_struct! {
    /// When the closed loop fires: the measured step-time imbalance
    /// (max/mean EWMA) must exceed `threshold` for `patience` consecutive
    /// epochs. `alpha` is the ledger's EWMA smoothing factor.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct RebalancePolicy {
        /// Imbalance ratio above which an epoch counts as skewed.
        pub threshold: f64,
        /// Consecutive skewed epochs required before rebalancing.
        pub patience: usize,
        /// EWMA weight of the newest step-time observation.
        pub alpha: f64,
    }
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self { threshold: 1.5, patience: 2, alpha: 0.5 }
    }
}

/// The decision side of the closed loop: counts consecutive over-threshold
/// epochs and fires when patience runs out.
#[derive(Clone, Debug)]
pub struct RebalanceController {
    /// The policy being enforced.
    pub policy: RebalancePolicy,
    over: usize,
}

impl RebalanceController {
    /// Controller enforcing `policy`.
    pub fn new(policy: RebalancePolicy) -> Self {
        Self { policy, over: 0 }
    }

    /// Record one epoch's measured imbalance; returns `true` when the
    /// policy says to rebalance now.
    pub fn observe(&mut self, imbalance: f64) -> bool {
        if imbalance > self.policy.threshold {
            self.over += 1;
        } else {
            self.over = 0;
        }
        self.over >= self.policy.patience.max(1)
    }

    /// Restart the patience window (called after a rebalance executes).
    pub fn reset(&mut self) {
        self.over = 0;
    }
}

/// Token-conserving weighted assignment: cut the cluster-sorted token
/// order into contiguous chunks apportioned to `weights` (per live rank,
/// higher = more tokens) by the largest-remainder method. Every rank keeps
/// at least one token while `n >= live.len()`; degenerate weights (all
/// zero/negative) mean no preference — the balanced cut, like equal ones
/// (the first `n % p` ranks take the extra token). Returns
/// `assignment[t] = global rank id owning token t`.
pub fn weighted_token_assignment(clusters: &[u32], live: &[usize], weights: &[f64]) -> Vec<u32> {
    assert_eq!(live.len(), weights.len(), "one weight per live rank");
    assert!(!live.is_empty(), "token assignment needs at least one live rank");
    let n = clusters.len();
    let p = live.len();
    let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let fraction = |w: &f64| if total > 0.0 { w.max(0.0) / total } else { 1.0 / p as f64 };
    let shares: Vec<f64> = weights.iter().map(|w| fraction(w) * n as f64).collect();
    let min_take = usize::from(n >= p);
    let mut take: Vec<usize> =
        shares.iter().map(|s| (s.floor() as usize).max(min_take)).collect();
    let mut sum: usize = take.iter().sum();
    // Largest remainder: hand out missing tokens to the most-shortchanged
    // ranks; claw back overshoot from the most-overfull (ties break on the
    // lowest index, keeping the cut deterministic).
    while sum < n {
        let mut best = 0usize;
        let mut best_gap = f64::MIN;
        for i in 0..p {
            let gap = shares[i] - take[i] as f64;
            if gap > best_gap {
                best_gap = gap;
                best = i;
            }
        }
        take[best] += 1;
        sum += 1;
    }
    while sum > n {
        let mut best = None;
        let mut best_excess = f64::MIN;
        for i in 0..p {
            if take[i] <= min_take {
                continue;
            }
            let excess = take[i] as f64 - shares[i];
            if excess > best_excess {
                best_excess = excess;
                best = Some(i);
            }
        }
        let i = best.expect("sum > n implies some rank is above its floor");
        take[i] -= 1;
        sum -= 1;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&t| clusters[t as usize]); // stable: ties keep token order
    let mut assignment = vec![0u32; n];
    let mut cursor = 0usize;
    for (i, &g) in live.iter().enumerate() {
        for &t in &order[cursor..cursor + take[i]] {
            assignment[t as usize] = g as u32;
        }
        cursor += take[i];
    }
    assignment
}

/// Tokens owned by each live rank under `assignment`, live order.
pub fn rank_counts(assignment: &[u32], live: &[usize]) -> Vec<usize> {
    live.iter()
        .map(|&g| assignment.iter().filter(|&&a| a as usize == g).count())
        .collect()
}

/// Predicted step-time imbalance (max/mean) of an assignment giving each
/// rank `counts[i]` tokens at `per_token_s[i]` seconds each.
pub fn predicted_imbalance(per_token_s: &[f64], counts: &[usize]) -> f64 {
    assert_eq!(per_token_s.len(), counts.len());
    let times: Vec<f64> =
        per_token_s.iter().zip(counts).map(|(&t, &c)| t * c as f64).collect();
    if times.is_empty() {
        return 1.0;
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    times.iter().cloned().fold(f64::MIN, f64::max) / mean
}

/// Cut a stream of `nseq` sequences over `live` by per-rank `weights`.
/// Sequences come out of preprocessing in cluster-contiguous order, so
/// identity "clusters" keep the cut cluster-aware.
pub(crate) fn cut_sequences(nseq: usize, live: &[usize], weights: &[f64]) -> Vec<u32> {
    let clusters: Vec<u32> = (0..nseq as u32).collect();
    weighted_token_assignment(&clusters, live, weights)
}

/// The one closed-loop re-cut: feed the ledger's measured imbalance to
/// `controller` and, when it fires, cut the stream by measured per-rank
/// throughput, ship ownership over the live group (token-conserving,
/// executed online) and record an [`Event::REBALANCE`] at `epoch` with the
/// measured imbalance before and the predicted one after. Returns the
/// tokens moved when a rebalance executed.
pub(crate) fn rebalance_step(
    group: &DeviceGroup,
    ledger: &StepLedger,
    controller: &mut RebalanceController,
    assignment: &mut Vec<u32>,
    epoch: usize,
    recorder: &RecorderHandle,
) -> Option<usize> {
    let live = group.membership().live_ranks();
    let imbalance = ledger.imbalance(live);
    if !controller.observe(imbalance) {
        return None;
    }
    let per_token = ledger.per_token_seconds(live, &rank_counts(assignment, live));
    let weights: Vec<f64> = per_token.iter().map(|&t| 1.0 / t.max(f64::EPSILON)).collect();
    let recut = cut_sequences(assignment.len(), live, &weights);
    let outcome = reshard_exchange(group, assignment, &recut);
    if recorder.enabled() {
        let after = predicted_imbalance(&per_token, &rank_counts(&recut, live));
        recorder.event(Event::rebalance(epoch, group.generation(), outcome.moved, imbalance, after));
    }
    *assignment = recut;
    controller.reset();
    Some(outcome.moved)
}

torchgt_compat::json_struct! {
    /// Result of a closed-loop (or static-ablation) rebalance run.
    #[derive(Clone, Debug)]
    pub struct RebalanceStats {
        /// The distributed stats; `epoch_losses` is identical on every
        /// rank and independent of the token assignment.
        pub stats: DistributedStats,
        /// How many times the closed loop fired and resharded.
        pub rebalances: usize,
        /// Tokens shipped across all rebalances.
        pub moved_tokens: usize,
        /// Driver-measured wall-clock seconds per epoch.
        pub epoch_seconds: Vec<f64>,
        /// Measured step-time imbalance (max/mean EWMA) after each epoch.
        pub imbalance_history: Vec<f64>,
        /// Tokens per rank when the run finished, global-rank order.
        pub final_counts: Vec<usize>,
    }
}

/// Persistent per-rank training state: lives across the per-epoch
/// [`DeviceGroup::run`] calls so rebalances never reset the model.
struct RankState {
    model: Box<dyn SequenceModel>,
    opt: Adam,
    /// The rank's scratch arena, warm after its first owned token.
    ws: Workspace,
}

/// What one rank reports back from an epoch.
struct EpochOut {
    /// Seconds this rank spent computing gradients for its own tokens.
    active_s: f64,
    /// Mean training loss over all tokens (identical on every rank).
    loss: f32,
}

/// Train with per-token gradient accumulation under closed-loop straggler
/// rebalancing. Each epoch walks the tokens in global order: the owner
/// computes the gradient against epoch-frozen parameters and broadcasts
/// it (so per-rank comm volume — and any injected slow-rank delay — is
/// proportional to owned tokens); every rank folds the broadcast bytes
/// into an accumulator and applies one optimizer step per epoch. The
/// owner's next gradient is computed while the previous broadcast is still
/// in flight.
///
/// Between epochs the driver feeds measured compute time plus the comm
/// layer's injected-delay ledger into a [`StepLedger`]; when `policy` is
/// `Some` and the [`RebalanceController`] fires, a throughput-weighted
/// assignment is installed online via `reshard_exchange` and a
/// [`Event::REBALANCE`] event records the before/after imbalance.
/// `policy = None` is the static-assignment ablation baseline.
pub fn train_data_parallel_rebalance<F>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
    plan: FaultPlan,
    policy: Option<RebalancePolicy>,
    recorder: RecorderHandle,
) -> RebalanceStats
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    let wall_clock = |start: Instant| start.elapsed().as_secs_f64();
    rebalance_loop(dataset, cfg, world, factory, plan, policy, recorder, wall_clock)
}

/// [`train_data_parallel_rebalance`] with the compute clock as a parameter:
/// `compute_s(start)` is what one owned token's forward + backward, begun
/// at `start`, is charged to its rank's [`StepLedger`] entry. Tests pass a
/// constant so the loop's decisions follow from the fault plan alone.
#[allow(clippy::too_many_arguments)]
fn rebalance_loop<F, C>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
    plan: FaultPlan,
    policy: Option<RebalancePolicy>,
    recorder: RecorderHandle,
    compute_s: C,
) -> RebalanceStats
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
    C: Fn(Instant) -> f64 + Sync,
{
    assert!(world >= 1);
    let mut group = DeviceGroup::with_recorder(world, recorder.clone());
    group.set_fault_plan(Some(plan));
    let prepared = prepare_node_dataset(dataset, cfg.seq_len, false, 1, cfg.seed);
    let nseq = prepared.sequences.len();
    assert!(nseq > 0, "dataset produced no sequences");
    let live: Vec<usize> = group.membership().live_ranks().to_vec();
    let mut assignment = cut_sequences(nseq, &live, &vec![1.0; world]);
    let mut ledger = StepLedger::with_alpha(world, policy.map_or(0.5, |p| p.alpha));
    let mut controller = policy.map(RebalanceController::new);
    let states: Vec<Mutex<Option<RankState>>> = (0..world).map(|_| Mutex::new(None)).collect();

    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_seconds = Vec::with_capacity(cfg.epochs);
    let mut imbalance_history = Vec::with_capacity(cfg.epochs);
    let mut rebalances = 0usize;
    let mut moved_tokens = 0usize;
    for epoch in 0..cfg.epochs {
        let assignment_ref = &assignment;
        let t0 = Instant::now();
        let outs = group.run(|comm| {
            run_epoch_rebalance(&comm, &prepared, cfg, &factory, &states, assignment_ref, &compute_s)
        });
        epoch_seconds.push(t0.elapsed().as_secs_f64());
        epoch_losses.push(outs[0].loss);
        // Feed the ledger: measured compute plus the injected-delay ledger
        // (the same one the watchdog reads), per global rank.
        let delays = group.injected_delays();
        for (i, &g) in live.iter().enumerate() {
            let injected =
                delays.iter().find(|(r, _)| *r == g).map_or(0.0, |&(_, d)| d);
            ledger.observe(g, outs[i].active_s + injected);
        }
        // Watchdog events ride along for observability; the ledger already
        // holds richer (compute + delay) observations for these ranks.
        let _reports = group.detect_stragglers(STRAGGLER_MULTIPLE);
        let imbalance = ledger.imbalance(&live);
        imbalance_history.push(imbalance);
        // After the last epoch there is nothing left to re-cut for.
        if let (Some(ctl), true) = (controller.as_mut(), epoch + 1 < cfg.epochs) {
            if let Some(moved) =
                rebalance_step(&group, &ledger, ctl, &mut assignment, epoch, &recorder)
            {
                rebalances += 1;
                moved_tokens += moved;
            }
        }
    }
    let stats = group.stats();
    RebalanceStats {
        stats: DistributedStats {
            epoch_losses,
            grad_bytes: stats.bytes_sent(),
            all_reduces: stats.ops(CollectiveKind::AllReduce),
            world,
        },
        rebalances,
        moved_tokens,
        epoch_seconds,
        imbalance_history,
        final_counts: rank_counts(&assignment, &live),
    }
}

/// One rank's epoch: walk every token in global order, compute-and-
/// broadcast when owner, fold the broadcast gradient either way. The fold
/// order (global token order) and the folded bytes (owner-computed against
/// epoch-frozen parameters) are independent of the assignment — the
/// bit-parity guarantee.
fn run_epoch_rebalance<F, C>(
    comm: &Communicator,
    prepared: &Prepared,
    cfg: TrainConfig,
    factory: &F,
    states: &[Mutex<Option<RankState>>],
    assignment: &[u32],
    compute_s: &C,
) -> EpochOut
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
    C: Fn(Instant) -> f64 + Sync,
{
    let me = comm.global_rank();
    let mut guard = states[me].lock().expect("rank state poisoned");
    let state = guard
        .get_or_insert_with(|| RankState {
            model: factory(),
            opt: Adam::with_lr(cfg.lr),
            ws: Workspace::new(),
        });
    let RankState { model, opt, ws } = state;
    model.set_training(true);
    let train_pos = prepared.train_positions();
    let n = prepared.sequences.len();
    let flat_len: usize =
        model.params_mut().iter().map(|p| p.grad.data().len()).sum::<usize>() + 1;
    let mut acc = vec![0.0f32; flat_len];
    let mut active_s = 0.0f64;
    let fold = |acc: &mut [f32], data: Vec<f32>| {
        assert_eq!(data.len(), acc.len(), "broadcast payload shape mismatch");
        for (a, v) in acc.iter_mut().zip(data) {
            *a += v;
        }
    };
    let mut inflight: Option<PendingCollective<'_, Vec<f32>>> = None;
    for t in 0..n {
        // Full world, no shrink: dense rank ids equal global ids.
        let root = assignment[t] as usize;
        let payload: Option<Vec<f32>> = if root == me {
            let start = Instant::now();
            let seq = &prepared.sequences[t];
            let batch =
                SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
            let target = Target::Tokens { labels: &seq.labels, train: &train_pos[t], test: &[] };
            let pattern = Pattern::Sparse(&seq.mask);
            let l = train_step(model.as_mut(), ws, Precision::Fp32, &batch, pattern, target, &mut None).loss;
            let mut flat = Vec::with_capacity(flat_len);
            for p in model.params_mut() {
                flat.extend_from_slice(p.grad.data());
                // Clear so the next owned token's backward starts fresh.
                p.zero_grad();
            }
            flat.push(l);
            active_s += compute_s(start);
            Some(flat)
        } else {
            None
        };
        // Begin token t's broadcast, then fold t−1 while t is in flight;
        // the owner of t+1 computes its gradient before t is awaited
        // (parameters are frozen for the whole epoch, so that compute is
        // independent of every in-flight broadcast).
        let pending = comm.broadcast_begin(root, payload);
        if let Some(prev) = inflight.take() {
            fold(&mut acc, prev.wait());
        }
        inflight = Some(pending);
    }
    if let Some(prev) = inflight.take() {
        fold(&mut acc, prev.wait());
    }
    // One optimizer step per epoch on the token-mean gradient; every rank
    // applies the identical update, keeping the replicas in lockstep.
    let inv = 1.0 / n as f32;
    let mut params = model.params_mut();
    let mut off = 0usize;
    for p in params.iter_mut() {
        let len = p.grad.data().len();
        let data: Vec<f32> = acc[off..off + len].iter().map(|&v| v * inv).collect();
        p.grad = Tensor::from_vec(p.grad.rows(), p.grad.cols(), data);
        off += len;
    }
    opt.step(&mut params);
    EpochOut { active_s, loss: acc[off] * inv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Gt, GtConfig};

    fn dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.004, 23)
    }

    fn cfg(epochs: usize) -> TrainConfig {
        let mut c = TrainConfig::new(Method::GpSparse, 64, epochs);
        c.lr = 2e-3;
        c.seed = 7;
        c
    }

    fn factory(d: &NodeDataset) -> impl Fn() -> Box<dyn SequenceModel> + Sync + '_ {
        move || Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11))
    }

    #[test]
    fn weighted_assignment_conserves_and_follows_weights() {
        let clusters: Vec<u32> = (0..24).collect();
        let live = vec![0usize, 1, 2];
        let a = weighted_token_assignment(&clusters, &live, &[2.0, 1.0, 1.0]);
        let counts = rank_counts(&a, &live);
        assert_eq!(counts.iter().sum::<usize>(), 24);
        assert_eq!(counts, vec![12, 6, 6]);
        // Degenerate weights fall back to the balanced cut.
        let b = weighted_token_assignment(&clusters, &live, &[0.0, 0.0, 0.0]);
        assert_eq!(b, (0..24).map(|t| t / 8).collect::<Vec<u32>>());
        // Every rank keeps at least one token even under extreme skew.
        let c = weighted_token_assignment(&clusters, &live, &[1e9, 1.0, 1e-9]);
        let counts = rank_counts(&c, &live);
        assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 24);
    }

    #[test]
    fn ledger_ewma_blends_and_measures_imbalance() {
        let mut l = StepLedger::with_alpha(3, 0.5);
        assert_eq!(l.imbalance(&[0, 1, 2]), 1.0); // no observations yet
        l.observe(0, 1.0);
        l.observe(1, 1.0);
        l.observe(2, 4.0);
        assert_eq!(l.ewma(2), Some(4.0));
        l.observe(2, 2.0);
        assert_eq!(l.ewma(2), Some(3.0)); // 0.5·2 + 0.5·4
        let imb = l.imbalance(&[0, 1, 2]);
        assert!(imb > 1.5, "imbalance {imb}");
        // Per-token estimates divide by the current token count.
        let taus = l.per_token_seconds(&[0, 1, 2], &[2, 2, 2]);
        assert!((taus[0] - 0.5).abs() < 1e-12);
        assert!((taus[2] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn controller_needs_consecutive_skewed_epochs() {
        let mut ctl = RebalanceController::new(RebalancePolicy {
            threshold: 1.5,
            patience: 2,
            alpha: 0.5,
        });
        assert!(!ctl.observe(2.0));
        assert!(!ctl.observe(1.2)); // dip resets the window
        assert!(!ctl.observe(2.0));
        assert!(ctl.observe(2.0)); // second consecutive skewed epoch fires
        ctl.reset();
        assert!(!ctl.observe(2.0));
    }

    #[test]
    fn stragglers_feed_the_ledger() {
        let mut l = StepLedger::new(4);
        l.observe_stragglers(&[StragglerReport {
            rank: 2,
            delay_s: 0.25,
            median_s: 0.01,
            measured_multiple: 25.0,
        }]);
        assert_eq!(l.ewma(2), Some(0.25));
        assert_eq!(l.flags(2), 1);
        assert_eq!(l.flags(0), 0);
    }

    #[test]
    fn closed_loop_rebalances_away_from_slow_rank_with_bit_identical_losses() {
        let d = dataset();
        let world = 3;
        let epochs = 4;
        let plan = FaultPlan::slow(1, 0.002);
        let policy = RebalancePolicy { threshold: 1.3, patience: 1, alpha: 0.5 };
        // Every owned token is charged 1 ms of compute and the slow rank's
        // injected delay comes from the plan's ledger (2 sends × 2 ms per
        // owned token), so the imbalance the controller sees — 5 ms vs 1 ms
        // per token — and every assertion below is a function of the plan,
        // not of how the host schedules three rank threads.
        let run = |rebalance: bool| {
            rebalance_loop(
                &d,
                cfg(epochs),
                world,
                factory(&d),
                plan,
                rebalance.then_some(policy),
                torchgt_obs::noop(),
                |_| 1e-3,
            )
        };
        let closed = run(true);
        let still = run(false);
        // The loop fired and shifted tokens off the slow rank.
        assert!(closed.rebalances >= 1, "imbalance {:?}", closed.imbalance_history);
        assert!(closed.moved_tokens > 0);
        let static_counts = still.final_counts.clone();
        assert!(
            closed.final_counts[1] < static_counts[1],
            "slow rank should own fewer tokens: {:?} vs {:?}",
            closed.final_counts,
            static_counts
        );
        assert_eq!(still.rebalances, 0);
        // Loss histories are bit-identical across the rebalance toggle: the
        // fold is owner-exact in token order.
        assert_eq!(closed.stats.epoch_losses.len(), epochs);
        for (a, b) in closed.stats.epoch_losses.iter().zip(&still.stats.epoch_losses) {
            assert_eq!(a.to_bits(), b.to_bits(), "rebalance changed the losses");
        }
        // Losses actually train.
        let first = closed.stats.epoch_losses[0];
        let last = *closed.stats.epoch_losses.last().unwrap();
        assert!(last < first, "{:?}", closed.stats.epoch_losses);
    }
}
