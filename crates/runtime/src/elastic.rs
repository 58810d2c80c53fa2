//! Elastic data-parallel training: survive *permanent* rank loss.
//!
//! [`crate::distributed::train_data_parallel_resilient`] assumes every crash
//! is transient — the same world re-runs after a restore. Real clusters lose
//! machines for good (PAPER.md §VI trains for days on 64 GPUs), and a job
//! that can only retry at full strength dies with its first dead host. This
//! module adds the paper-scale answer, the **escalation ladder**:
//!
//! 1. **retry** — re-enter the epoch loop on the same live set;
//! 2. **restore-from-snapshot** — every retry first restores the latest
//!    full-state snapshot, so a poisoned attempt costs at most one epoch;
//! 3. **shrink-and-continue** — after [`RecoveryPolicy::max_retries`]
//!    failures in one membership generation the crashed rank is declared
//!    permanently lost: the [`DeviceGroup`] reforms over the survivors
//!    (fresh generation, generation-tagged collectives), the token
//!    assignment is recomputed for the smaller world, and the surviving
//!    shards are redistributed with a real all-to-all
//!    ([`reshard_exchange`]) that provably conserves every token.
//!
//! Gradient averaging rescales automatically: `all_reduce_mean` divides by
//! the *live* world size, so after a shrink the replicas keep averaging
//! over exactly the ranks that contributed.
//!
//! Snapshots written by the elastic loop are **world-size-independent**:
//! parameters are stored in canonical (replicated) order and the partition
//! layout rides alongside as [`PartitionLayout`], so a snapshot taken at
//! `P = 4` restores bit-faithfully at `P = 3` — the restore pre-pass
//! reshards from the recorded layout to the current live set.

use crate::config::TrainConfig;
use crate::distributed::{run_rank, DistributedStats, RankJob};
use crate::rebalance::{
    predicted_imbalance, rank_counts, weighted_token_assignment, RebalanceController,
    RebalancePolicy, StepLedger,
};
use std::io;
use torchgt_ckpt::CheckpointStore;
use torchgt_comm::{CollectiveKind, DeviceGroup, FaultPlan, RankFailure};
use torchgt_graph::NodeDataset;
use torchgt_model::SequenceModel;
use torchgt_obs::{Event, RecorderHandle};

/// A scripted permanent rank loss for tests and the CLI's `--lose-rank`
/// flag: global rank `rank` dies at the start of epoch `epoch` and never
/// comes back (the crash refires on every retry while the rank is live,
/// which is exactly what forces the ladder to its shrink rung).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLoss {
    /// Global rank id that is lost.
    pub rank: usize,
    /// Epoch at whose start the loss strikes.
    pub epoch: usize,
}

impl std::str::FromStr for RankLoss {
    type Err = String;

    /// Parse the CLI's `<rank>@<epoch>` syntax, e.g. `1@3`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (r, e) = s
            .split_once('@')
            .ok_or_else(|| format!("expected <rank>@<epoch>, got {s:?}"))?;
        Ok(RankLoss {
            rank: r.trim().parse().map_err(|err| format!("bad rank in {s:?}: {err}"))?,
            epoch: e.trim().parse().map_err(|err| format!("bad epoch in {s:?}: {err}"))?,
        })
    }
}

/// Cluster-aware token assignment for an arbitrary live set: stable-sort
/// token ids by cluster (so each cluster's tokens stay contiguous on one
/// rank as far as balance allows), then cut the order into balanced
/// contiguous chunks — one per live rank, first `n % p` ranks take the
/// extra token. Returns `assignment[t] = global rank id owning token t`.
pub fn cluster_token_assignment(clusters: &[u32], live: &[usize]) -> Vec<u32> {
    assert!(!live.is_empty(), "token assignment needs at least one live rank");
    let n = clusters.len();
    let p = live.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&t| clusters[t as usize]); // stable: ties keep token order
    let base = n / p;
    let extra = n % p;
    let mut assignment = vec![0u32; n];
    let mut cursor = 0usize;
    for (i, &g) in live.iter().enumerate() {
        let take = base + usize::from(i < extra);
        for &t in &order[cursor..cursor + take] {
            assignment[t as usize] = g as u32;
        }
        cursor += take;
    }
    assignment
}

/// What a resharding all-to-all produced.
#[derive(Clone, Debug)]
pub struct ReshardOutcome {
    /// Token ids each live rank holds after the exchange, dense-rank order,
    /// each list sorted ascending.
    pub held: Vec<Vec<u32>>,
    /// Tokens whose (live) old owner shipped them to a different new owner.
    pub moved: usize,
    /// Tokens whose old owner is dead: re-materialised by the new owner
    /// from the deterministic preprocessing pipeline instead of exchanged.
    pub reloaded: usize,
}

/// Redistribute token ownership from assignment `old` to `new` with a real
/// all-to-all over the group's live ranks. Every rank ships the token ids
/// it owns under `old` to their `new` owner; tokens stranded on a dead rank
/// are claimed (re-materialised) by their new owner directly — in this
/// simulation sequence data is a pure function of the dataset and seed, so
/// "reloading" a shard is re-indexing, exactly like re-reading it from
/// shared storage in a real deployment. `new` must only target live ranks.
pub fn reshard_exchange(group: &DeviceGroup, old: &[u32], new: &[u32]) -> ReshardOutcome {
    assert_eq!(old.len(), new.len(), "assignments must cover the same tokens");
    let membership = group.membership().clone();
    let m = &membership;
    let held = group.run(|comm| {
        let me = comm.global_rank() as u32;
        let p = comm.world_size();
        let mut chunks: Vec<Vec<f32>> = (0..p).map(|_| Vec::new()).collect();
        let mut mine: Vec<u32> = Vec::new();
        for (t, (&o, &n)) in old.iter().zip(new).enumerate() {
            let dest = m
                .dense_of(n as usize)
                .expect("new assignment must target a live rank");
            if m.is_live(o as usize) {
                if o == me {
                    chunks[dest].push(t as f32);
                }
            } else if n == me {
                mine.push(t as u32);
            }
        }
        for received in comm.all_to_all(chunks) {
            mine.extend(received.into_iter().map(|x| x as u32));
        }
        mine.sort_unstable();
        mine
    });
    let mut moved = 0usize;
    let mut reloaded = 0usize;
    for (&o, &n) in old.iter().zip(new) {
        if m.is_live(o as usize) {
            moved += usize::from(o != n);
        } else {
            reloaded += 1;
        }
    }
    ReshardOutcome { held, moved, reloaded }
}

/// True when `held` partitions `0..n` exactly: every token appears on
/// exactly one rank, none lost, none duplicated.
pub fn tokens_conserved(n: usize, held: &[Vec<u32>]) -> bool {
    let mut seen = vec![false; n];
    let mut count = 0usize;
    for list in held {
        for &t in list {
            let t = t as usize;
            if t >= n || seen[t] {
                return false;
            }
            seen[t] = true;
            count += 1;
        }
    }
    count == n
}

torchgt_compat::json_struct! {
    /// Result of an elastic run.
    #[derive(Clone, Debug)]
    pub struct ElasticStats {
        /// The distributed stats, with `epoch_losses` stitched across
        /// crash/restore/shrink cycles (covers every epoch exactly once).
        /// `world` is the *final* live world the run finished on.
        pub stats: DistributedStats,
        /// How many times the group was torn down and restarted.
        pub restarts: usize,
        /// The epoch each restart resumed from.
        pub resumed_epochs: Vec<usize>,
        /// How many times the ladder escalated to shrink-and-continue.
        pub shrinks: usize,
        /// Global rank ids declared permanently lost, in order.
        pub lost_ranks: Vec<usize>,
        /// World size the run started with.
        pub initial_world: usize,
        /// Live world size the run finished with.
        pub final_world: usize,
        /// Membership generation the run finished under.
        pub generation: u64,
        /// Watchdog straggler flags accumulated across all attempts.
        pub stragglers_flagged: usize,
        /// Closed-loop rebalances executed between retry attempts.
        pub rebalances: usize,
    }
}

/// Elastic [`crate::distributed::train_data_parallel_resilient`]: trains
/// under an injected [`FaultPlan`] and an optional scripted permanent
/// [`RankLoss`], escalating retry → restore → shrink per the config's
/// [`RecoveryPolicy`](crate::config::RecoveryPolicy). Rank 0 snapshots full
/// state *plus the partition layout* after every epoch, so the run restores
/// across world sizes; if `store` already holds a snapshot whose layout
/// differs from the current assignment (e.g. written at `P = 4`, resuming
/// at `P = 3`), a restore pre-pass reshards the recorded layout onto the
/// live ranks before training starts.
#[allow(clippy::too_many_arguments)]
pub fn train_data_parallel_elastic<F>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
    plan: FaultPlan,
    lose: Option<RankLoss>,
    store: &CheckpointStore,
    recorder: RecorderHandle,
) -> io::Result<ElasticStats>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    assert!(world >= 1);
    // Attach the run's recorder to the store so snapshot self-healing
    // (IO_RETRY / SNAPSHOT_FALLBACK) surfaces in this run's metrics.
    let store = store.clone().with_recorder(recorder.clone());
    let store = &store;
    let policy = cfg.recovery;
    let mut group = DeviceGroup::with_recorder(world, recorder.clone());
    group.set_fault_plan(Some(plan));

    // Prepare once — the pipeline is deterministic, so every rank (and
    // every retry) sees the identical sequence stream.
    let mut job = RankJob::new(dataset, cfg, &factory);
    (job.store, job.recorder, job.lose) = (Some(store), recorder.clone(), lose);
    let nseq = job.prepared.sequences.len();
    // Sequences come out of preprocessing in cluster-contiguous order, so
    // identity "clusters" make the balanced cut cluster-aware already.
    let seq_clusters: Vec<u32> = (0..nseq as u32).collect();
    let mut assignment = cluster_token_assignment(&seq_clusters, group.membership().live_ranks());

    // Cross-world restore pre-pass: a snapshot written under a different
    // partition layout reshards onto the current live set before training.
    if let Some(snap) = store.load_latest()? {
        if let Some(layout) = &snap.layout {
            if layout.assignment.len() == nseq && layout.assignment != assignment {
                let outcome = reshard_exchange(&group, &layout.assignment, &assignment);
                assert!(
                    tokens_conserved(nseq, &outcome.held),
                    "cross-world restore reshard lost or duplicated tokens"
                );
                if recorder.enabled() {
                    recorder.event(Event::reshard(
                        group.generation(),
                        group.live_world(),
                        nseq,
                        outcome.moved,
                        outcome.reloaded,
                    ));
                }
            }
        }
    }

    let mut restarts = 0usize;
    let mut attempts_this_gen = 0usize;
    let mut shrinks = 0usize;
    let mut lost_ranks: Vec<usize> = Vec::new();
    let mut resumed_epochs: Vec<usize> = Vec::new();
    // Closed straggler loop: watchdog reports and the per-rank delay
    // ledger feed EWMA step-time estimates; persistent skew triggers a
    // token-conserving reshard away from the slow rank between attempts.
    let mut ledger = StepLedger::new(world);
    let mut rebalancer = RebalanceController::new(RebalancePolicy::default());
    let mut stragglers_flagged = 0usize;
    let mut rebalances = 0usize;
    loop {
        let start = store.load_latest()?;
        if restarts > 0 {
            let epoch = start.as_ref().map(|s| s.state.epoch).unwrap_or(0);
            resumed_epochs.push(epoch);
            if recorder.enabled() {
                recorder.event(Event::restore(epoch));
            }
        }
        let results = group.try_run(|comm| run_rank(&comm, &job, &assignment, start.as_ref()));
        // Straggler watchdog over the delay ledger of the attempt that
        // just finished: the reports (and every live rank's injected
        // delay) feed the step ledger so detection drives the rebalance
        // policy instead of being discarded.
        let reports = group.detect_stragglers(policy.straggler_multiple);
        stragglers_flagged += reports.len();
        for (g, d) in group.injected_delays() {
            if !reports.iter().any(|r| r.rank == g) {
                ledger.observe(g, d);
            }
        }
        ledger.observe_stragglers(&reports);
        if results.iter().all(Result::is_ok) {
            group.rollup_generation();
            let mut out = results
                .into_iter()
                .next()
                .expect("world >= 1")
                .expect("checked all ranks ok")?;
            let stats = group.stats();
            out.grad_bytes = stats.bytes_sent();
            out.all_reduces = stats.ops(CollectiveKind::AllReduce);
            return Ok(ElasticStats {
                stats: out,
                restarts,
                resumed_epochs,
                shrinks,
                lost_ranks,
                initial_world: world,
                final_world: group.live_world(),
                generation: group.generation(),
                stragglers_flagged,
                rebalances,
            });
        }
        restarts += 1;
        attempts_this_gen += 1;
        let crashed: Option<usize> = results
            .iter()
            .filter_map(|r| match r {
                Err(RankFailure::Crash(c)) => Some(c.rank),
                _ => None,
            })
            .next();
        if attempts_this_gen > policy.max_retries {
            // Ladder exhausted for this generation: shrink or give up.
            let failure = results
                .into_iter()
                .filter_map(Result::err)
                .next()
                .map(|f| f.to_string())
                .unwrap_or_else(|| "unknown rank failure".to_string());
            let Some(rank) = crashed else {
                return Err(io::Error::other(format!(
                    "elastic run failed {restarts} times with no identifiable \
                     crashed rank: {failure}"
                )));
            };
            if !policy.allow_shrink {
                return Err(io::Error::other(format!(
                    "rank {rank} keeps failing and shrink is disabled \
                     (after {restarts} restarts): {failure}"
                )));
            }
            let floor = policy.min_ranks.max(1);
            if group.live_world() <= floor {
                return Err(io::Error::other(format!(
                    "cannot shrink below min_ranks = {floor} \
                     (live world {}, rank {rank} lost): {failure}",
                    group.live_world()
                )));
            }
            if recorder.enabled() {
                recorder.event(Event::rank_lost(rank, group.generation(), restarts));
            }
            group.remove_rank(rank).map_err(io::Error::other)?;
            shrinks += 1;
            lost_ranks.push(rank);
            let new_assignment =
                cluster_token_assignment(&seq_clusters, group.membership().live_ranks());
            let outcome = reshard_exchange(&group, &assignment, &new_assignment);
            assert!(
                tokens_conserved(nseq, &outcome.held),
                "shrink reshard lost or duplicated tokens"
            );
            if recorder.enabled() {
                recorder.event(Event::reshard(
                    group.generation(),
                    group.live_world(),
                    nseq,
                    outcome.moved,
                    outcome.reloaded,
                ));
            }
            assignment = new_assignment;
            attempts_this_gen = 0;
        } else if rebalancer.observe(ledger.imbalance(group.membership().live_ranks())) {
            // Plain retry with persistent measured skew: shift tokens away
            // from the slow rank before the next attempt (token-conserving,
            // executed online over the live group).
            let live: Vec<usize> = group.membership().live_ranks().to_vec();
            let counts = rank_counts(&assignment, &live);
            let per_token = ledger.per_token_seconds(&live, &counts);
            let weights: Vec<f64> =
                per_token.iter().map(|&t| 1.0 / t.max(f64::EPSILON)).collect();
            let imbalance_before = ledger.imbalance(&live);
            let new_assignment = weighted_token_assignment(&seq_clusters, &live, &weights);
            let outcome = reshard_exchange(&group, &assignment, &new_assignment);
            assert!(
                tokens_conserved(nseq, &outcome.held),
                "rebalance reshard lost or duplicated tokens"
            );
            if recorder.enabled() {
                let after =
                    predicted_imbalance(&per_token, &rank_counts(&new_assignment, &live));
                recorder.event(Event::rebalance(
                    resumed_epochs.last().copied().unwrap_or(0),
                    group.generation(),
                    outcome.moved,
                    imbalance_before,
                    after,
                ));
            }
            assignment = new_assignment;
            rebalances += 1;
            rebalancer.reset();
        }
        let wait = policy.backoff_s(restarts);
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_loss_parses_rank_at_epoch() {
        let l: RankLoss = "1@3".parse().unwrap();
        assert_eq!(l, RankLoss { rank: 1, epoch: 3 });
        let l: RankLoss = " 2 @ 0 ".parse().unwrap();
        assert_eq!(l, RankLoss { rank: 2, epoch: 0 });
        assert!("nope".parse::<RankLoss>().is_err());
        assert!("a@1".parse::<RankLoss>().is_err());
        assert!("1@b".parse::<RankLoss>().is_err());
    }

    #[test]
    fn assignment_is_balanced_and_cluster_contiguous() {
        // 10 tokens, clusters [0,0,0,1,1,1,2,2,2,2], live global ranks {0,2,3}.
        let clusters = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 2];
        let live = vec![0usize, 2, 3];
        let a = cluster_token_assignment(&clusters, &live);
        assert_eq!(a.len(), 10);
        // Balanced: 10 = 4 + 3 + 3 in live order.
        let count = |g: u32| a.iter().filter(|&&x| x == g).count();
        assert_eq!(count(0), 4);
        assert_eq!(count(2), 3);
        assert_eq!(count(3), 3);
        // Only live ranks are targeted.
        assert!(a.iter().all(|&x| live.contains(&(x as usize))));
        // Stable sort keeps cluster 0's tokens (0,1,2) together on rank 0.
        assert_eq!(&a[0..3], &[0, 0, 0]);
    }

    #[test]
    fn conservation_detects_loss_and_duplication() {
        assert!(tokens_conserved(4, &[vec![0, 2], vec![1, 3]]));
        assert!(!tokens_conserved(4, &[vec![0, 2], vec![1]]), "token 3 lost");
        assert!(!tokens_conserved(4, &[vec![0, 2], vec![1, 2, 3]]), "token 2 duplicated");
        assert!(!tokens_conserved(2, &[vec![0, 1, 2]]), "token out of range");
        assert!(tokens_conserved(0, &[]));
    }

    #[test]
    fn reshard_moves_shards_to_their_new_owners() {
        let mut group = DeviceGroup::new(4);
        // Initial even split of 8 tokens over 4 ranks.
        let clusters: Vec<u32> = (0..8).collect();
        let old = cluster_token_assignment(&clusters, group.membership().live_ranks());
        group.remove_rank(1).unwrap();
        let new = cluster_token_assignment(&clusters, group.membership().live_ranks());
        let out = reshard_exchange(&group, &old, &new);
        assert!(tokens_conserved(8, &out.held));
        // Rank 1's two tokens had a dead owner → re-materialised.
        assert_eq!(out.reloaded, 2);
        // held is in dense order over live ranks {0, 2, 3}; each rank holds
        // exactly the tokens `new` assigns to its global id.
        for (dense, held) in out.held.iter().enumerate() {
            let g = group.membership().global_of(dense) as u32;
            let expect: Vec<u32> =
                (0..8).filter(|&t| new[t as usize] == g).collect();
            assert_eq!(held, &expect, "dense rank {dense} (global {g})");
        }
    }
}
