//! End-to-end distributed training over simulated devices.
//!
//! Combines the two parallel axes of the paper's runtime:
//!
//! * **sequence/graph parallelism** inside attention (see [`crate::parallel`]
//!   — all-to-all head/sequence relayouts), and
//! * **data parallelism across sequences** for the parameter path: each rank
//!   trains on its share of the sequence stream and gradients are averaged
//!   with an all-reduce before every optimizer step, keeping replicas
//!   bit-synchronised.
//!
//! There is one job description, [`DistributedJob`], and one supervisor,
//! [`train_distributed`]. With everything off the job is plain data
//! parallelism ([`train_data_parallel`] is that call; its parity with
//! single-device training is asserted by the tests and the
//! `distributed_scaling` example). The rest is the **escalation ladder**
//! around the same rank body (`run_rank`):
//!
//! 1. **retry** — a failed attempt re-enters the epoch loop on the same
//!    live set, up to [`RecoveryPolicy::max_retries`] times per membership
//!    generation;
//! 2. **restore** — given a store, dense rank 0 publishes a full-state
//!    snapshot after every epoch and every retry starts from the latest
//!    one, so a poisoned attempt costs at most one epoch and the stitched
//!    loss history is bit-identical to an uninterrupted run (delay/drop
//!    faults never perturb delivered data; the snapshot carries the
//!    complete optimizer/PRNG state);
//! 3. **shrink** — with `cfg.recovery.allow_shrink`, a rank that exhausts
//!    the retries is declared permanently lost (real clusters lose machines
//!    for good — PAPER.md §VI trains for days on 64 GPUs): the
//!    [`DeviceGroup`] reforms over the survivors under a fresh generation
//!    and the sequence stream is re-cut for the smaller world.
//!
//! A whole world always starts round-robin (`t % world`, the grouping
//! [`train_reference`] mirrors); only a shrink or a closed-loop rebalance
//! re-cuts the stream, and every layout change is a real, token-conserving
//! all-to-all ([`reshard_exchange`]). Gradient averaging rescales by itself:
//! `all_reduce_mean_params` divides by the *live* world size. Snapshots are
//! **world-size-independent** — parameters in canonical (replicated) order,
//! the partition layout alongside as [`PartitionLayout`] — so one written at
//! `P = 4` restores bit-faithfully at `P = 3`.
//!
//! [`RecoveryPolicy::max_retries`]: crate::config::RecoveryPolicy::max_retries

use crate::config::{TrainConfig, STRAGGLER_MULTIPLE};
use crate::engine::{train_step, Target};
use crate::elastic::{reshard_exchange, RankLoss};
use crate::parallel::all_reduce_mean_params;
use crate::preprocess::{prepare_node_dataset, Prepared};
use crate::rebalance::{
    cut_sequences, rebalance_step, RebalanceController, RebalancePolicy, StepLedger,
};
use std::io;
use torchgt_ckpt::{CheckpointStore, PartitionLayout, Snapshot, TrainerState};
use torchgt_comm::{
    CollectiveKind, Communicator, DeviceGroup, FaultPlan, RankCrash, RankFailure,
};
use torchgt_graph::NodeDataset;
use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_tensor::{Adam, Optimizer, Precision, Workspace};

torchgt_compat::json_struct! {
    /// Result of a distributed run (identical on every rank; rank 0's copy is
    /// returned).
    #[derive(Clone, Debug)]
    pub struct DistributedStats {
        /// Mean training loss per epoch.
        pub epoch_losses: Vec<f32>,
        /// Total bytes moved by gradient all-reduces.
        pub grad_bytes: u64,
        /// All-reduce invocations per rank.
        pub all_reduces: u64,
        /// World size the run used.
        pub world: usize,
    }
}

/// One distributed training job: what to train, over how many ranks, and
/// what may go wrong. [`DistributedJob::new`] is plain data parallelism;
/// a `store` turns on restore-and-retry, `cfg.recovery.allow_shrink` the
/// shrink rung, `plan` / `lose` inject the faults the ladder answers.
pub struct DistributedJob<'a, F> {
    /// The node-level task.
    pub dataset: &'a NodeDataset,
    /// Hyper-parameters and the [`crate::config::RecoveryPolicy`].
    pub cfg: TrainConfig,
    /// Initial world size.
    pub world: usize,
    /// Builds one identically-seeded model replica per rank (replicas must
    /// start equal for the parity guarantee).
    pub factory: F,
    /// Injected fabric faults (delays, drops, a straggler, a one-shot crash).
    pub plan: FaultPlan,
    /// Scripted permanent rank loss.
    pub lose: Option<RankLoss>,
    /// Where dense rank 0 publishes a full-state snapshot (parameters, Adam
    /// moments and step counter, PRNG cursors, loss ledger, partition
    /// layout) after every epoch, and what every retry restores from.
    pub store: Option<&'a CheckpointStore>,
    /// Crash, snapshot, restore, membership and rebalance events land here.
    pub recorder: RecorderHandle,
}

impl<'a, F> DistributedJob<'a, F> {
    /// Plain data parallelism: no faults, no store, no recorder.
    pub fn new(dataset: &'a NodeDataset, cfg: TrainConfig, world: usize, factory: F) -> Self {
        Self {
            dataset,
            cfg,
            world,
            factory,
            plan: FaultPlan::default(),
            lose: None,
            store: None,
            recorder: torchgt_obs::noop(),
        }
    }
}

torchgt_compat::json_struct! {
    /// Result of a supervised distributed run.
    #[derive(Clone, Debug)]
    pub struct DistributedRun {
        /// The distributed stats, with `epoch_losses` stitched across
        /// crash/restore/shrink cycles (covers every epoch exactly once).
        /// `world` is the *final* live world the run finished on.
        pub stats: DistributedStats,
        /// How many times the group was torn down and restarted.
        pub restarts: usize,
        /// The epoch each restart resumed from (0 = cold restart because no
        /// snapshot existed yet).
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

/// Train `cfg.epochs` epochs of the node-level task across `world` simulated
/// ranks with data-parallel gradients: [`train_distributed`] on
/// [`DistributedJob::new`].
pub fn train_data_parallel<F>(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    factory: F,
) -> DistributedStats
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    train_distributed(&DistributedJob::new(dataset, cfg, world, factory))
        .expect("no store, no faults: a plain run cannot fail")
        .stats
}

/// Run `job` to completion, climbing retry → restore → shrink per its
/// [`crate::config::RecoveryPolicy`] whenever an attempt fails. If the
/// store already holds a snapshot whose layout differs from the starting
/// assignment (e.g. written at `P = 4`, resuming at `P = 3`), a restore
/// pre-pass reshards the recorded layout onto the live ranks first.
pub fn train_distributed<F>(job: &DistributedJob<'_, F>) -> io::Result<DistributedRun>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    let (world, policy, recorder) = (job.world, job.cfg.recovery, &job.recorder);
    assert!(world >= 1);
    // Attach the run's recorder to the store so snapshot self-healing
    // (IO_RETRY / SNAPSHOT_FALLBACK) surfaces in this run's metrics.
    let store = job.store.map(|s| s.clone().with_recorder(recorder.clone()));
    // Prepare once — the pipeline is deterministic, so every rank (and
    // every retry) sees the identical sequence stream.
    let prepared = prepare_node_dataset(job.dataset, job.cfg.seq_len, false, 1, job.cfg.seed);
    let train_pos = prepared.train_positions();
    let nseq = prepared.sequences.len();
    let mut group = DeviceGroup::with_recorder(world, recorder.clone());
    // Containment costs a process-wide lock: `try_run` swaps the panic hook
    // under one, so routing plain runs through it would serialize every
    // concurrent `train_data_parallel` in a process. A job with nothing
    // injected and no store to retry from keeps `run` (a rank panic there
    // is a bug, and propagates) and installs no fault state.
    let contained = job.store.is_some() || job.plan.is_active() || job.lose.is_some();
    if contained {
        group.set_fault_plan(Some(job.plan));
    }
    // Round-robin: sequence `t` trains on rank `t % world`, so every step
    // consumes `world` consecutive sequences.
    let mut assignment: Vec<u32> = (0..nseq).map(|t| (t % world) as u32).collect();
    let reshard = |group: &DeviceGroup, old: &[u32], new: &[u32]| {
        let outcome = reshard_exchange(group, old, new);
        if recorder.enabled() {
            recorder.event(Event::reshard(
                group.generation(),
                group.live_world(),
                nseq,
                outcome.moved,
                outcome.reloaded,
            ));
        }
    };

    let mut restarts = 0usize;
    let mut attempts_this_gen = 0usize;
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
        let start = store.as_ref().map(|s| s.load_latest()).transpose()?.flatten();
        let epoch = start.as_ref().map_or(0, |s| s.state.epoch);
        if restarts > 0 {
            resumed_epochs.push(epoch);
            if recorder.enabled() {
                recorder.event(Event::restore(epoch));
            }
        } else if let Some(layout) = start.as_ref().and_then(|s| s.layout.as_ref()) {
            // Cross-world restore pre-pass: a snapshot written under a
            // different partition layout reshards onto the current live set
            // before training.
            if layout.assignment.len() == nseq && layout.assignment != assignment {
                reshard(&group, &layout.assignment, &assignment);
            }
        }
        let rank_body = |comm: Communicator| {
            run_rank(&comm, job, &prepared, &train_pos, &assignment, start.as_ref())
        };
        let results: Vec<Result<_, RankFailure>> = if contained {
            group.try_run(rank_body)
        } else {
            group.run(rank_body).into_iter().map(Ok).collect()
        };
        // Straggler watchdog over the delay ledger of the attempt that
        // just finished: the reports (and every live rank's injected
        // delay) feed the step ledger so detection drives the rebalance
        // policy instead of being discarded.
        let reports = group.detect_stragglers(STRAGGLER_MULTIPLE);
        stragglers_flagged += reports.len();
        for (g, d) in group.injected_delays() {
            if !reports.iter().any(|r| r.rank == g) {
                ledger.observe(g, d);
            }
        }
        ledger.observe_stragglers(&reports);
        if results.iter().all(Result::is_ok) {
            group.rollup_generation();
            let mut stats = results
                .into_iter()
                .next()
                .expect("world >= 1")
                .expect("checked all ranks ok")?;
            stats.grad_bytes = group.stats().bytes_sent();
            stats.all_reduces = group.stats().ops(CollectiveKind::AllReduce);
            return Ok(DistributedRun {
                stats,
                restarts,
                resumed_epochs,
                shrinks: lost_ranks.len(),
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
        if attempts_this_gen > policy.max_retries {
            // Ladder exhausted for this generation: shrink or give up —
            // naming the rank that failed, not the first "peer hung up"
            // cascade victim it stranded. A rank that returned an error of
            // its own (rank 0's `store.save`, a failed restore) is the cause
            // outright, and nothing a shrink would cure.
            let mut failures: Vec<RankFailure> = Vec::new();
            for (at, result) in results.into_iter().enumerate() {
                match result {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => {
                        let rank = group.membership().live_ranks()[at];
                        return Err(io::Error::new(
                            e.kind(),
                            format!("distributed run gave up after {restarts} restarts: rank {rank}: {e}"),
                        ));
                    }
                    Err(failure) => failures.push(failure),
                }
            }
            let failure = failures
                .iter()
                .find(|f| matches!(f, RankFailure::Crash(_)))
                .or_else(|| failures.iter().find(|f| !f.is_cascade()))
                .unwrap_or(&failures[0]);
            let give_up = |why: String| {
                Err(io::Error::other(format!(
                    "distributed run gave up after {restarts} restarts: {why}: {failure}"
                )))
            };
            let RankFailure::Crash(RankCrash { rank, .. }) = *failure else {
                return give_up("no identifiable crashed rank".to_string());
            };
            if !policy.allow_shrink {
                return give_up(format!("rank {rank} keeps failing and shrink is disabled"));
            }
            let (floor, live_world) = (policy.min_ranks.max(1), group.live_world());
            if live_world <= floor {
                return give_up(format!(
                    "cannot shrink below min_ranks = {floor} (live world {live_world}, rank {rank} lost)"
                ));
            }
            if recorder.enabled() {
                recorder.event(Event::rank_lost(rank, group.generation(), restarts));
            }
            group.remove_rank(rank).map_err(io::Error::other)?;
            lost_ranks.push(rank);
            let live = group.membership().live_ranks();
            let recut = cut_sequences(nseq, live, &vec![1.0; live.len()]);
            reshard(&group, &assignment, &recut);
            assignment = recut;
            attempts_this_gen = 0;
        } else if rebalance_step(&group, &ledger, &mut rebalancer, &mut assignment, epoch, recorder)
            .is_some()
        {
            // Plain retry with persistent measured skew: tokens shifted away
            // from the slow rank before the next attempt.
            rebalances += 1;
        }
        let wait = policy.backoff_s(restarts);
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// One rank of the data-parallel loop. Restores `start` if present, then
/// trains only the sequences `assignment` gives this rank's *global* id
/// (`assignment[t]` owns sequence `t`); gradient averaging and the
/// per-epoch loss all-reduce span the dense live group.
fn run_rank<F>(
    comm: &Communicator,
    job: &DistributedJob<'_, F>,
    prepared: &Prepared,
    train_pos: &[Vec<u32>],
    assignment: &[u32],
    start: Option<&Snapshot>,
) -> io::Result<DistributedStats>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    let (cfg, recorder) = (&job.cfg, &job.recorder);
    let global = comm.global_rank();
    let mine: Vec<usize> =
        (0..assignment.len()).filter(|&t| assignment[t] as usize == global).collect();
    // Lock-step bound: every rank walks the same number of steps (the
    // largest shard size) so the collectives stay aligned; ranks past
    // their own shard contribute zero gradients.
    let maxg = assignment.iter().copied().max().unwrap_or(0) as usize;
    let mut counts = vec![0usize; maxg + 1];
    for &a in assignment {
        counts[a as usize] += 1;
    }
    let steps = counts.into_iter().max().unwrap_or(0);
    let mut model = (job.factory)();
    let mut opt = Adam::with_lr(cfg.lr);
    let mut start_epoch = 0usize;
    let mut epoch_losses: Vec<f32> = Vec::new();
    if let Some(snap) = start {
        // Parameters are replicated (canonical order), so the same snapshot
        // restores every rank identically — at any world size — and the
        // data-parallel parity invariant holds across the restart.
        crate::resume::restore_model(model.as_mut(), &mut opt, snap)?;
        start_epoch = snap.state.epoch;
        epoch_losses = snap.state.epoch_losses.iter().map(|&l| l as f32).collect();
    }
    model.set_training(true);
    // One arena per rank, warm after the first step.
    let mut ws = Workspace::new();
    for epoch in start_epoch..cfg.epochs {
        if let Some(l) = job.lose.filter(|l| l.rank == global && epoch >= l.epoch) {
            // Permanent loss: refires on every retry while this rank is
            // still in the group, forcing the ladder to shrink.
            if recorder.enabled() {
                recorder.event(Event::rank_crash(l.rank, u64::MAX));
            }
            std::panic::panic_any(RankCrash { rank: l.rank, op: u64::MAX });
        }
        let mut total_loss = 0.0f32;
        let mut counted = 0usize;
        for step in 0..steps {
            if let Some(&idx) = mine.get(step) {
                let seq = &prepared.sequences[idx];
                let batch =
                    SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
                let target = Target::Tokens { labels: &seq.labels, train: &train_pos[idx], test: &[] };
                let pattern = Pattern::Sparse(&seq.mask);
                let out = train_step(model.as_mut(), &mut ws, Precision::Fp32, &batch, pattern, target, &mut None);
                total_loss += out.loss;
                counted += 1;
            }
            // Mean over the *live* world: idle ranks contribute zeros so the
            // collective stays aligned, and averaging rescales to the
            // surviving rank count after a shrink. Every parameter's
            // reduce is in flight before the first is awaited.
            all_reduce_mean_params(comm, &mut model.params_mut());
            opt.step(&mut model.params_mut());
        }
        // Average the loss across ranks for reporting.
        let sums = comm.all_reduce_sum(vec![total_loss, counted as f32]);
        epoch_losses.push(if sums[1] > 0.0 { sums[0] / sums[1] } else { 0.0 });
        if let (0, Some(store)) = (comm.rank(), job.store) {
            let mut state = TrainerState::basic(epoch + 1, opt.steps());
            state.rng_streams = model.rng_state();
            // f32 → f64 widening is exact, so the ledger survives the
            // manifest round-trip bit-for-bit.
            state.epoch_losses = epoch_losses.iter().map(|&l| l as f64).collect();
            let snap = crate::resume::capture_model(model.as_mut(), state).with_layout(
                PartitionLayout {
                    world: comm.world_size(),
                    generation: comm.generation(),
                    assignment: assignment.to_vec(),
                },
            );
            store.save(&snap)?;
            if recorder.enabled() {
                recorder.event(Event::snapshot(epoch + 1));
            }
        }
    }
    Ok(DistributedStats {
        epoch_losses,
        grad_bytes: 0,
        all_reduces: 0,
        world: comm.world_size(),
    })
}

/// Single-process reference with the same update semantics as
/// [`train_data_parallel`]: `world` sequences per step, mean gradient, one
/// optimizer step. Used by parity tests.
pub fn train_reference(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    world: usize,
    mut model: Box<dyn SequenceModel>,
) -> Vec<f32> {
    let prepared = prepare_node_dataset(dataset, cfg.seq_len, false, 1, cfg.seed);
    let train_pos = prepared.train_positions();
    model.set_training(true);
    let mut ws = Workspace::new();
    let mut opt = Adam::with_lr(cfg.lr);
    let nseq = prepared.sequences.len();
    let steps = nseq.div_ceil(world);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut total_loss = 0.0f32;
        let mut counted = 0usize;
        for step in 0..steps {
            // Accumulate the "world" sequences of this step, then average.
            for r in 0..world {
                let idx = step * world + r;
                if idx >= nseq {
                    continue;
                }
                let seq = &prepared.sequences[idx];
                let batch =
                    SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
                let target = Target::Tokens { labels: &seq.labels, train: &train_pos[idx], test: &[] };
                let pattern = Pattern::Sparse(&seq.mask);
                let out = train_step(model.as_mut(), &mut ws, Precision::Fp32, &batch, pattern, target, &mut None);
                total_loss += out.loss;
                counted += 1;
            }
            for p in model.params_mut() {
                torchgt_tensor::ops::scale_inplace(&mut p.grad, 1.0 / world as f32);
            }
            opt.step(&mut model.params_mut());
        }
        epoch_losses.push(if counted > 0 { total_loss / counted as f32 } else { 0.0 });
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use torchgt_graph::DatasetKind;
    use torchgt_model::{Gt, GtConfig};

    fn dataset() -> NodeDataset {
        DatasetKind::OgbnArxiv.generate_node(0.002, 19)
    }

    fn cfg(epochs: usize) -> TrainConfig {
        let mut c = TrainConfig::new(Method::GpSparse, 128, epochs);
        c.lr = 2e-3;
        c.seed = 7;
        c
    }

    fn factory(d: &NodeDataset) -> impl Fn() -> Box<dyn SequenceModel> + Sync + '_ {
        move || Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11))
    }

    #[test]
    fn distributed_matches_reference_losses() {
        let d = dataset();
        let world = 2;
        let dist = train_data_parallel(&d, cfg(2), world, factory(&d));
        let reference = train_reference(
            &d,
            cfg(2),
            world,
            Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11)),
        );
        assert_eq!(dist.epoch_losses.len(), reference.len());
        for (a, b) in dist.epoch_losses.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 5e-3,
                "distributed {a} vs reference {b} (losses {:?} vs {:?})",
                dist.epoch_losses,
                reference
            );
        }
    }

    #[test]
    fn gradient_traffic_is_accounted() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(1), 2, factory(&d));
        assert!(dist.grad_bytes > 0, "all-reduce must move bytes");
        assert!(dist.all_reduces > 0);
        assert_eq!(dist.world, 2);
    }

    #[test]
    fn world_one_equals_reference_exactly() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(2), 1, factory(&d));
        let reference = train_reference(
            &d,
            cfg(2),
            1,
            Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11)),
        );
        for (a, b) in dist.epoch_losses.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn losses_decrease_across_epochs() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(4), 4, factory(&d));
        assert!(
            dist.epoch_losses.last().unwrap() < dist.epoch_losses.first().unwrap(),
            "{:?}",
            dist.epoch_losses
        );
    }

    #[test]
    fn injected_crash_recovers_from_snapshot_and_matches_clean_run() {
        use std::sync::Arc;
        use torchgt_obs::{Event, MemoryRecorder};
        let d = dataset();
        let world = 2;
        let epochs = 3;
        let clean = train_data_parallel(&d, cfg(epochs), world, factory(&d));

        // Place the crash early in epoch 1 on rank 1: per step every rank
        // runs one all-reduce per parameter (2 collective ticks each — the
        // op itself plus its nested all-gather), plus 2 ticks for the
        // epoch-end loss reduction.
        let mut probe = factory(&d)();
        let nparams = probe.params_mut().len();
        let nseq =
            prepare_node_dataset(&d, cfg(epochs).seq_len, false, 1, cfg(epochs).seed)
                .sequences
                .len();
        let steps = nseq.div_ceil(world);
        let ops_per_epoch = (steps * nparams * 2 + 2) as u64;
        let plan = FaultPlan {
            drop_prob: 0.1,
            max_retries: 2,
            crash: Some(torchgt_comm::CrashPoint { rank: 1, op: ops_per_epoch + 4 }),
            seed: 23,
            ..FaultPlan::default()
        };

        let dir = std::env::temp_dir().join("tgt-dist-resilient");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        let mem = Arc::new(MemoryRecorder::default());
        let res = train_distributed(&DistributedJob {
            plan,
            store: Some(&store),
            recorder: mem.clone(),
            ..DistributedJob::new(&d, cfg(epochs), world, factory(&d))
        })
        .unwrap();

        assert_eq!(res.restarts, 1, "exactly one crash/recovery cycle");
        assert_eq!(res.resumed_epochs, vec![1], "resumed from the epoch-1 snapshot");
        assert_eq!(res.stats.epoch_losses.len(), epochs);
        for (i, (a, b)) in res.stats.epoch_losses.iter().zip(&clean.epoch_losses).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "epoch {i}: resilient {a} vs clean {b}");
        }
        assert!(
            res.stats.epoch_losses.last().unwrap() < res.stats.epoch_losses.first().unwrap(),
            "{:?}",
            res.stats.epoch_losses
        );

        let report = mem.report();
        assert_eq!(report.events_of(Event::RANK_CRASH).len(), 1);
        assert_eq!(report.events_of(Event::RESTORE).len(), 1);
        assert!(report.events_of(Event::SNAPSHOT).len() >= epochs, "one snapshot per epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
