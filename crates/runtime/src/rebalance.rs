//! Closed-loop straggler rebalancing for the data-parallel supervisor.
//!
//! * [`StepLedger`] — per-rank EWMA step-time estimates, fed after every
//!   `group.run` of [`train_distributed`] with each rank's compute (its
//!   owned sequences at the run's mean seconds per sequence) plus the comm
//!   layer's injected-delay ledger (the same ledger the median-multiple
//!   watchdog reads);
//! * [`RebalancePolicy`] / [`RebalanceController`] — fire when the
//!   max/mean imbalance exceeds a threshold for K consecutive epochs;
//! * [`weighted_token_assignment`] — token-conserving largest-remainder
//!   apportionment of the cluster-sorted token order by per-rank
//!   throughput (equal weights are the balanced cut); `cut_sequences` spreads
//!   each rank's apportioned share of the sequence stream evenly over it;
//! * `rebalance_step` — the one closed-loop re-cut (controller → weights →
//!   cut → [`reshard_exchange`], which checks conservation →
//!   [`Event::REBALANCE`] with before/after imbalance), which
//!   [`train_distributed`] calls at epoch boundaries and between retry
//!   attempts when its job carries a policy.
//!
//! A re-cut moves work, never a bit: the supervisor's step trains the same
//! sequences, folded in the same order, whoever owns them (see
//! [`crate::distributed`]).
//!
//! [`train_distributed`]: crate::distributed::train_distributed

use crate::elastic::reshard_exchange;
use torchgt_comm::DeviceGroup;
use torchgt_obs::{Event, RecorderHandle};

/// Per-rank EWMA step-time ledger: the measurement side of the closed
/// loop. Observations are the seconds of one `group.run` (one epoch under a
/// rebalance policy) charged to a *global* rank id;
/// the blended estimate survives rebalances so one fast epoch does not
/// erase a rank's history.
#[derive(Clone, Debug)]
pub struct StepLedger {
    alpha: f64,
    ewma: Vec<Option<f64>>,
}

impl StepLedger {
    /// Ledger over `world` global ranks with EWMA factor `alpha` in
    /// `(0, 1]` — the weight of the newest observation.
    pub fn with_alpha(world: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, ewma: vec![None; world] }
    }

    /// Record one step-time observation (seconds) for `rank`.
    pub fn observe(&mut self, rank: usize, seconds: f64) {
        let prev = self.ewma[rank];
        self.ewma[rank] = Some(match prev {
            Some(e) => self.alpha * seconds + (1.0 - self.alpha) * e,
            None => seconds,
        });
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
/// Each rank's count is [`weighted_token_assignment`]'s largest-remainder
/// share; its sequences are then spread evenly over the stream (its k-th
/// of `c` sits at (k + ½)/c of the way through, ties to the earlier live
/// rank). A data-parallel step trains consecutive sequences and waits for
/// its slowest owner, so a contiguous share would hand whole steps to one
/// rank. Equal weights give the round robin `t % live.len()` over `live`.
pub(crate) fn cut_sequences(nseq: usize, live: &[usize], weights: &[f64]) -> Vec<u32> {
    let clusters: Vec<u32> = (0..nseq as u32).collect();
    let take = rank_counts(&weighted_token_assignment(&clusters, live, weights), live);
    let mut slots: Vec<(usize, u64)> =
        take.iter().enumerate().flat_map(|(i, &c)| (0..c as u64).map(move |k| (i, k))).collect();
    // (2k + 1) / 2c compared exactly: a / b < c / d ⇔ a·d < c·b.
    let at = |&(i, k): &(usize, u64)| (2 * k + 1, take[i] as u64);
    slots.sort_by(|x, y| {
        let ((a, b), (c, d)) = (at(x), at(y));
        (a * d).cmp(&(c * b)).then(x.0.cmp(&y.0))
    });
    slots.into_iter().map(|(i, _)| live[i] as u32).collect()
}

/// The one closed-loop re-cut: feed the ledger's measured imbalance to
/// `controller` and, when it fires, cut the stream by measured per-rank
/// throughput, ship ownership over the live group (token-conserving,
/// executed online) and record an [`Event::REBALANCE`] at `epoch` with the
/// measured imbalance before and the predicted one after. Returns the
/// sequences moved when a rebalance executed; a re-cut equal to the
/// current assignment is none.
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
    if recut == *assignment {
        // Nothing to move: the current cut already follows the weights.
        return None;
    }
    let outcome = reshard_exchange(group, assignment, &recut);
    if recorder.enabled() {
        let after = predicted_imbalance(&per_token, &rank_counts(&recut, live));
        recorder.event(Event::rebalance(epoch, group.generation(), outcome.moved, imbalance, after));
    }
    *assignment = recut;
    controller.reset();
    Some(outcome.moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, TrainConfig};
    use crate::distributed::{train_distributed, DistributedJob};
    use torchgt_comm::FaultPlan;
    use torchgt_graph::{DatasetKind, NodeDataset};
    use torchgt_model::SequenceModel;
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
    fn equal_weights_cut_the_stream_round_robin() {
        for p in 1..7usize {
            let live: Vec<usize> = (0..p).map(|i| 2 * i + 1).collect();
            for n in 0..60usize {
                let round_robin: Vec<u32> = (0..n).map(|t| live[t % p] as u32).collect();
                assert_eq!(cut_sequences(n, &live, &vec![1.0; p]), round_robin, "n {n}, p {p}");
            }
        }
        // A light rank's few sequences are spread over the stream, not
        // packed into one run of consecutive steps.
        let cut = cut_sequences(12, &[0, 1, 2], &[1.0, 0.25, 1.0]);
        assert_eq!(rank_counts(&cut, &[0, 1, 2]), vec![5, 2, 5]);
        let light: Vec<usize> = (0..12).filter(|&t| cut[t] == 1).collect();
        assert_eq!(light, vec![2, 9]);
    }

    #[test]
    fn closed_loop_rebalances_away_from_slow_rank_with_bit_identical_losses() {
        let d = dataset();
        let (world, epochs) = (3, 4);
        // 20 ms per send and two sends per owned sequence: the slowed rank's
        // injected delay dwarfs a tiny model's compute, however slow the
        // host, so the controller's decisions follow from the plan.
        let plan = FaultPlan::slow(1, 0.02);
        let policy = RebalancePolicy { threshold: 1.3, patience: 1, alpha: 0.5 };
        let run = |rebalance| {
            train_distributed(&DistributedJob {
                plan,
                rebalance,
                ..DistributedJob::new(&d, cfg(epochs), world, factory(&d))
            })
            .unwrap()
        };
        let closed = run(Some(policy));
        let still = run(None);
        // The loop fired and shifted sequences off the slow rank.
        assert!(closed.rebalances >= 1, "imbalance {:?}", closed.imbalance_history);
        assert!(closed.moved_tokens > 0);
        assert!(
            closed.final_counts[1] < still.final_counts[1],
            "slow rank should own fewer sequences: {:?} vs {:?}",
            closed.final_counts,
            still.final_counts
        );
        assert_eq!(still.rebalances, 0);
        // Loss histories are bit-identical across the rebalance toggle: the
        // step folds the same sequences in the same order, whoever owns them.
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
