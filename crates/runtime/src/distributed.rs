//! Data-parallel training over simulated ranks: one job description
//! ([`DistributedJob`]), one supervisor ([`train_distributed`]) and one step
//! rule, whatever the layout.
//!
//! **The step.** A job's *global batch* `G` is its initial world, recorded
//! in every snapshot's [`PartitionLayout::global_batch`] (a snapshot from
//! before that key reads as its recorded `world`). Step `s` trains sequences
//! `sG … sG+G−1`, whoever owns them:
//!
//! 1. each owner computes each of its sequences' gradients separately, from
//!    zeroed gradients, drawing dropout masks from the sequence's own stream
//!    (sequence `t` of epoch `e` at counter `e·n_j + ⌊t/G⌋`, where lane
//!    `j = t mod G` holds `n_j` sequences an epoch);
//! 2. it broadcasts that gradient, its loss appended, to every peer as one
//!    flat message (pooled buffers: received messages become the next own
//!    ones), so a rank's sends, and the delay an injected straggler pays per
//!    send, are proportional to the sequences it owns;
//! 3. every rank folds the step's gradients in sequence order from `+0.0`,
//!    scales the sum by `1/G` and takes the Adam step. The epoch loss folds
//!    the same way: lane `j` sums its sequences' losses in step order, the
//!    lanes are summed in order from `+0.0`, and the total is divided by
//!    the sequence count.
//!
//! Nothing in the rule names a rank, so the loss bits and the final
//! parameters are a function of `G` alone: equal at every live world,
//! across every shrink, restore and rebalance, and equal to a one-process
//! run of the same fold (the tests' reference). A whole world starts round
//! robin (sequence `t` on rank `t % world`): every rank owns one sequence a
//! step, lane `j` is rank `j`'s stream, and the fold is the rank-order
//! all-reduce it replaced (`v / 2` and `v × ½` are the same bits).
//!
//! While it trains, every rank takes part in exactly one collective per
//! sequence: in each step it begins its own broadcasts, then receives the
//! others', both in sequence order ([`exchange_op`] places a [`FaultPlan`]
//! crash by step). The owner's op ticks when it begins the broadcast
//! (gradient computed, nothing sent); a receiver's when the message
//! arrives. A rank that dies mid-step strands its peers in
//! `PendingCollective::wait`; they fail with "peer hung up", which
//! `DeviceGroup::try_run` reports as a cascade, and the ladder below
//! answers the rank that died.
//!
//! **The supervisor.** With everything off the job is plain data
//! parallelism ([`train_data_parallel`] is that call). The rest is the
//! **escalation ladder** around the same rank body (`run_rank`):
//!
//! 1. **retry** — a failed attempt re-enters the epoch loop on the same
//!    live set, up to [`RecoveryPolicy::max_retries`] times per membership
//!    generation;
//! 2. **restore** — given a store, dense rank 0 publishes a full-state
//!    snapshot after every epoch and every retry starts from the latest
//!    one, so a poisoned attempt costs at most one epoch;
//! 3. **shrink** — with `cfg.recovery.allow_shrink`, a rank that exhausts
//!    the retries is declared permanently lost (real clusters lose machines
//!    for good — PAPER.md §VI trains for days on 64 GPUs): the
//!    [`DeviceGroup`] reforms over the survivors under a fresh generation
//!    and the sequence stream is re-cut over them.
//!
//! A job with a [`RebalancePolicy`] also re-cuts the stream away from a
//! measured straggler, at epoch boundaries and between retries
//! ([`crate::rebalance`]); its epochs then run as one `group.run` each, so
//! the supervisor can act between them, and a plan's op indices count from
//! each epoch's start. Replicas live across those calls; a failed attempt
//! drops them all. Every layout change is a real, token-conserving
//! all-to-all ([`reshard_exchange`]). Snapshots are world-size-independent
//! — parameters in canonical (replicated) order, the partition layout
//! alongside as [`PartitionLayout`] — so one written at `P = 4` restores
//! bit-faithfully at `P = 3` and trains on with `G = 4`.
//!
//! [`RecoveryPolicy::max_retries`]: crate::config::RecoveryPolicy::max_retries

use crate::config::{TrainConfig, STRAGGLER_MULTIPLE};
use crate::elastic::{reshard_exchange, RankLoss};
use crate::engine::{train_step, Target};
use crate::preprocess::{prepare_node_dataset, Prepared};
use crate::rebalance::{
    cut_sequences, rank_counts, rebalance_step, RebalanceController, RebalancePolicy, StepLedger,
};
use std::io;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use torchgt_ckpt::{CheckpointStore, PartitionLayout, Snapshot, TrainerState};
use torchgt_comm::{
    CollectiveKind, Communicator, DeviceGroup, FaultPlan, PendingCollective, RankCrash, RankFailure,
};
use torchgt_graph::NodeDataset;
use torchgt_model::{Pattern, SequenceBatch, SequenceModel};
use torchgt_obs::{Event, RecorderHandle};
use torchgt_tensor::{ops, Adam, Optimizer, Precision, Workspace};

torchgt_compat::json_struct! {
    /// Result of a distributed run (identical on every rank; rank 0's copy is
    /// returned).
    #[derive(Clone, Debug)]
    pub struct DistributedStats {
        /// Mean training loss per epoch.
        pub epoch_losses: Vec<f32>,
        /// Bytes sent over the group's links, summed over every rank and
        /// every kind of collective: each sequence's gradient to every peer,
        /// plus the ownership exchanges of any re-cut.
        pub grad_bytes: u64,
        /// Gradient exchanges, summed over every rank of the group: each
        /// rank takes part in one broadcast per sequence it trains (the
        /// name predates the per-sequence exchange).
        pub all_reduces: u64,
        /// World size the run used.
        pub world: usize,
    }
}

/// One distributed training job: what to train, over how many ranks, and
/// what may go wrong. [`DistributedJob::new`] is plain data parallelism;
/// a `store` turns on restore-and-retry, `cfg.recovery.allow_shrink` the
/// shrink rung, `rebalance` the closed straggler loop, `plan` / `lose`
/// inject the faults the ladder answers.
pub struct DistributedJob<'a, F> {
    /// The node-level task.
    pub dataset: &'a NodeDataset,
    /// Hyper-parameters and the [`crate::config::RecoveryPolicy`].
    pub cfg: TrainConfig,
    /// Initial world size, and the global batch `G` (sequences per step)
    /// unless a restored snapshot records another.
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
    /// When to re-cut the stream away from a measured straggler; `None`
    /// keeps the assignment static except for a shrink (the ablation
    /// baseline).
    pub rebalance: Option<RebalancePolicy>,
    /// Crash, snapshot, restore, membership and rebalance events land here.
    pub recorder: RecorderHandle,
}

impl<'a, F> DistributedJob<'a, F> {
    /// Plain data parallelism: no faults, no store, no rebalancing, no
    /// recorder.
    pub fn new(dataset: &'a NodeDataset, cfg: TrainConfig, world: usize, factory: F) -> Self {
        Self {
            dataset,
            cfg,
            world,
            factory,
            plan: FaultPlan::default(),
            lose: None,
            store: None,
            rebalance: None,
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
        /// Closed-loop re-cuts executed, at epoch boundaries or between
        /// retry attempts.
        pub rebalances: usize,
        /// Sequences those re-cuts shipped to a new owner.
        pub moved_tokens: usize,
        /// Wall-clock seconds of each epoch the last attempt trained, the
        /// tail of `stats.epoch_losses` (dense rank 0's clock).
        pub epoch_seconds: Vec<f64>,
        /// The straggler ledger's max/mean imbalance after each of those
        /// epochs' `group.run`.
        pub imbalance_history: Vec<f64>,
        /// Sequences each live rank owned at the end, live order.
        pub final_counts: Vec<usize>,
    }
}

/// The collective-op index, as a [`FaultPlan`]'s crash point counts them
/// from the start of a `group.run`, of a rank's first collective in step
/// `step` of the epoch `epochs_into_run` epochs after the run began, for a
/// stream of `nseq` sequences in steps of `global_batch`. Every rank takes
/// part in one broadcast per sequence and in nothing else while it trains:
/// in each step it begins its own sequences' broadcasts, in order, then
/// receives the others', in order. So when the rank owns a sequence of the
/// step, this op is the moment its first gradient is computed and nothing
/// of it sent — a crash there strands every peer mid-step.
pub fn exchange_op(nseq: usize, global_batch: usize, epochs_into_run: usize, step: usize) -> u64 {
    (epochs_into_run * nseq + step * global_batch) as u64
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

/// What every rank of one `group.run` reads.
struct Plan<'p> {
    prepared: &'p Prepared,
    train_pos: &'p [Vec<u32>],
    /// Owning global rank of each sequence (what a snapshot records).
    assignment: &'p [u32],
    /// Owning dense rank of each sequence under the run's membership.
    owners: Vec<usize>,
    /// Sequences per step.
    global_batch: usize,
    /// The epochs this run trains.
    epochs: Range<usize>,
}

/// One rank's training state. It outlives a `group.run`, so the supervisor
/// can re-cut the stream between epochs without rebuilding a model.
struct Replica {
    model: Box<dyn SequenceModel>,
    opt: Adam,
    /// Scratch arena, warm after the first owned sequence.
    ws: Workspace,
    /// The loss ledger: restored from the snapshot, then one per epoch.
    epoch_losses: Vec<f32>,
    /// Spare flat messages: what arrives is reused for the next own one.
    spare: Vec<Vec<f32>>,
    /// Dropout counters, one per stochastic layer.
    rng: Vec<u64>,
}

impl Replica {
    /// A fresh replica, restored from `start` if present.
    fn new(mut model: Box<dyn SequenceModel>, lr: f32, start: Option<&Snapshot>) -> io::Result<Self> {
        let mut opt = Adam::with_lr(lr);
        let mut epoch_losses = Vec::new();
        if let Some(snap) = start {
            // Parameters are replicated (canonical order), so the same
            // snapshot restores every rank identically — at any world size.
            crate::resume::restore_model(model.as_mut(), &mut opt, snap)?;
            epoch_losses = snap.state.epoch_losses.iter().map(|&l| l as f32).collect();
        }
        model.set_training(true);
        let rng = model.rng_state();
        Ok(Self { model, opt, ws: Workspace::new(), epoch_losses, spare: Vec::new(), rng })
    }

    /// Sequence `t`'s gradient, loss appended, as one flat message. Leaves
    /// the parameter gradients zeroed for the next sequence.
    fn gradient(&mut self, plan: &Plan<'_>, epoch: usize, t: usize, lane_len: u64) -> Vec<f32> {
        let g = plan.global_batch;
        self.rng.fill(epoch as u64 * lane_len + (t / g) as u64);
        self.model.set_rng_state(&self.rng);
        let seq = &plan.prepared.sequences[t];
        let batch = SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
        let target = Target::Tokens { labels: &seq.labels, train: &plan.train_pos[t], test: &[] };
        let pattern = Pattern::Sparse(&seq.mask);
        let loss = train_step(self.model.as_mut(), &mut self.ws, Precision::Fp32, &batch, pattern, target, &mut None).loss;
        let mut flat = self.spare.pop().unwrap_or_default();
        flat.clear();
        for p in self.model.params_mut() {
            flat.extend_from_slice(p.grad.data());
            p.zero_grad();
        }
        flat.push(loss);
        flat
    }

    /// The step's update from its messages, in sequence order: their
    /// gradients folded into the (zeroed) parameter gradients from `+0.0`,
    /// scaled by `1/G`, then Adam. Adds each message's loss to its lane and
    /// keeps up to `keep` messages as spares.
    fn step(&mut self, messages: impl Iterator<Item = Vec<f32>>, g: usize, lanes: &mut [f32], keep: usize) {
        let mut params = self.model.params_mut();
        for (lane, msg) in messages.enumerate() {
            let mut off = 0;
            for p in params.iter_mut() {
                let grad = p.grad.data_mut();
                for (a, v) in grad.iter_mut().zip(&msg[off..]) {
                    *a += v;
                }
                off += grad.len();
            }
            lanes[lane] += msg[off];
            if self.spare.len() < keep {
                self.spare.push(msg);
            }
        }
        for p in params.iter_mut() {
            ops::scale_inplace(&mut p.grad, 1.0 / g as f32);
        }
        self.opt.step(&mut params);
    }
}

/// What one rank reports from one `group.run`.
struct RankRun {
    /// The loss ledger so far (every rank holds the same one).
    epoch_losses: Vec<f32>,
    /// Wall-clock seconds of each epoch of the run.
    epoch_seconds: Vec<f64>,
    /// Seconds spent computing own gradients.
    compute_s: f64,
    /// Own gradients computed.
    computed: usize,
}

/// Run `job` to completion, climbing retry → restore → shrink per its
/// [`crate::config::RecoveryPolicy`] whenever an attempt fails, and
/// re-cutting the stream per its [`RebalancePolicy`], if any. If the store
/// already holds a snapshot whose layout differs from the starting
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
    let replicas: Vec<Mutex<Option<Replica>>> = (0..world).map(|_| Mutex::new(None)).collect();
    // Closed straggler loop: measured compute and the comm layer's delay
    // ledger feed EWMA step-time estimates; persistent skew re-cuts the
    // stream away from the slow rank.
    let mut ledger = StepLedger::with_alpha(world, job.rebalance.map_or(0.5, |p| p.alpha));
    let mut rebalancer = job.rebalance.map(RebalanceController::new);
    let epochs_per_run = if rebalancer.is_some() { 1 } else { job.cfg.epochs.max(1) };
    let mut run = DistributedRun {
        stats: DistributedStats { epoch_losses: Vec::new(), grad_bytes: 0, all_reduces: 0, world },
        restarts: 0,
        resumed_epochs: Vec::new(),
        shrinks: 0,
        lost_ranks: Vec::new(),
        initial_world: world,
        final_world: world,
        generation: 0,
        stragglers_flagged: 0,
        rebalances: 0,
        moved_tokens: 0,
        epoch_seconds: Vec::new(),
        imbalance_history: Vec::new(),
        final_counts: Vec::new(),
    };
    let mut attempts_this_gen = 0usize;
    loop {
        let start = store.as_ref().map(|s| s.load_latest()).transpose()?.flatten();
        let layout = start.as_ref().and_then(|s| s.layout.as_ref());
        let global_batch = layout.map_or(world, |l| l.global_batch);
        let mut epoch = start.as_ref().map_or(0, |s| s.state.epoch);
        run.stats.epoch_losses =
            start.as_ref().map_or(Vec::new(), |s| s.state.epoch_losses.iter().map(|&l| l as f32).collect());
        run.epoch_seconds.clear();
        run.imbalance_history.clear();
        if run.restarts > 0 {
            run.resumed_epochs.push(epoch);
            if recorder.enabled() {
                recorder.event(Event::restore(epoch));
            }
        } else if let Some(layout) = layout {
            // Cross-world restore pre-pass: a snapshot written under a
            // different partition layout reshards onto the current live set
            // before training.
            if layout.assignment.len() == nseq && layout.assignment != assignment {
                reshard(&group, &layout.assignment, &assignment);
            }
        }
        // Every attempt starts from fresh replicas: a failed run may have
        // left one mid-step, its slot poisoned by the rank that died.
        for slot in &replicas {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        let mut failed = None;
        while epoch < job.cfg.epochs {
            let members = group.membership().clone();
            let plan = Plan {
                prepared: &prepared,
                train_pos: &train_pos,
                assignment: &assignment,
                owners: assignment.iter().map(|&g| members.dense_of(g as usize).expect("owners are live")).collect(),
                global_batch,
                epochs: epoch..(epoch + epochs_per_run).min(job.cfg.epochs),
            };
            let rank_body = |comm: Communicator| {
                let slot = &replicas[comm.global_rank()];
                run_rank(&comm, job, &plan, slot, start.as_ref())
            };
            let results: Vec<Result<_, RankFailure>> = if contained {
                group.try_run(rank_body)
            } else {
                group.run(rank_body).into_iter().map(Ok).collect()
            };
            // Feed the ledger: each live rank's owned sequences at the run's
            // mean compute per sequence (none for a failed run), plus the
            // delay the watchdog's ledger charged it. Charging the mean
            // keeps host scheduling noise out of the per-rank comparison.
            let reports = group.detect_stragglers(STRAGGLER_MULTIPLE);
            run.stragglers_flagged += reports.len();
            let oks: Vec<&RankRun> = results.iter().filter_map(|r| r.as_ref().ok()?.as_ref().ok()).collect();
            let computed: usize = oks.iter().map(|o| o.computed).sum();
            let per_seq = oks.iter().map(|o| o.compute_s).sum::<f64>() / computed.max(1) as f64;
            let delays = group.injected_delays();
            let counts = rank_counts(&assignment, members.live_ranks());
            let span = if oks.len() == results.len() { plan.epochs.len() } else { 0 };
            for (&g, &count) in members.live_ranks().iter().zip(&counts) {
                let delay = delays.iter().find(|d| d.0 == g).map_or(0.0, |d| d.1);
                ledger.observe(g, (count * span) as f64 * per_seq + delay);
            }
            if span == 0 {
                failed = Some(results);
                break;
            }
            let lead = oks[0];
            run.stats.epoch_losses.clone_from(&lead.epoch_losses);
            run.epoch_seconds.extend(&lead.epoch_seconds);
            let imbalance = ledger.imbalance(members.live_ranks());
            run.imbalance_history.extend(std::iter::repeat_n(imbalance, span));
            epoch = plan.epochs.end;
            if let (Some(ctl), true) = (rebalancer.as_mut(), epoch < job.cfg.epochs) {
                if let Some(moved) = rebalance_step(&group, &ledger, ctl, &mut assignment, epoch, recorder) {
                    run.rebalances += 1;
                    run.moved_tokens += moved;
                }
            }
        }
        let Some(results) = failed else {
            group.rollup_generation();
            let stats = group.stats();
            run.stats.grad_bytes = stats.bytes_sent();
            run.stats.all_reduces = stats.ops(CollectiveKind::Broadcast);
            run.stats.world = group.live_world();
            run.final_world = group.live_world();
            run.generation = group.generation();
            run.shrinks = run.lost_ranks.len();
            run.final_counts = rank_counts(&assignment, group.membership().live_ranks());
            return Ok(run);
        };
        run.restarts += 1;
        let restarts = run.restarts;
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
            run.lost_ranks.push(rank);
            let live = group.membership().live_ranks();
            let recut = cut_sequences(nseq, live, &vec![1.0; live.len()]);
            reshard(&group, &assignment, &recut);
            assignment = recut;
            attempts_this_gen = 0;
        } else if let Some(ctl) = rebalancer.as_mut() {
            // Plain retry with persistent measured skew: sequences shift
            // away from the slow rank before the next attempt.
            if let Some(moved) = rebalance_step(&group, &ledger, ctl, &mut assignment, epoch, recorder) {
                run.rebalances += 1;
                run.moved_tokens += moved;
            }
        }
        let wait = policy.backoff_s(restarts);
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
    }
}

/// One rank of the data-parallel loop over `plan.epochs`: builds (and
/// restores from `start`) its replica if the slot is empty, then trains
/// every step of every epoch, computing the gradients of the sequences
/// `plan.owners` gives this rank's dense id.
fn run_rank<F>(
    comm: &Communicator,
    job: &DistributedJob<'_, F>,
    plan: &Plan<'_>,
    slot: &Mutex<Option<Replica>>,
    start: Option<&Snapshot>,
) -> io::Result<RankRun>
where
    F: Fn() -> Box<dyn SequenceModel> + Sync,
{
    let (cfg, recorder) = (&job.cfg, &job.recorder);
    // A slot poisoned by a rank that died was emptied before this attempt.
    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
    let r = match &mut *slot {
        Some(r) => r,
        empty => empty.insert(Replica::new((job.factory)(), cfg.lr, start)?),
    };
    let (me, g) = (comm.rank(), plan.global_batch);
    let nseq = plan.prepared.sequences.len();
    // Sequences of each lane (position within a step) per epoch.
    let lane_len: Vec<u64> = (0..g).map(|j| nseq.saturating_sub(j).div_ceil(g) as u64).collect();
    let mut out = RankRun { epoch_losses: Vec::new(), epoch_seconds: Vec::new(), compute_s: 0.0, computed: 0 };
    let mut pending = Vec::with_capacity(g);
    for epoch in plan.epochs.clone() {
        if let Some(l) = job.lose.filter(|l| l.rank == comm.global_rank() && epoch >= l.epoch) {
            // Permanent loss: refires on every retry while this rank is
            // still in the group, forcing the ladder to shrink.
            if recorder.enabled() {
                recorder.event(Event::rank_crash(l.rank, u64::MAX));
            }
            std::panic::panic_any(RankCrash { rank: l.rank, op: u64::MAX });
        }
        let clock = Instant::now();
        let mut lane_loss = vec![0.0f32; g];
        for first in (0..nseq).step_by(g) {
            let computed_before = out.computed;
            for t in first..(first + g).min(nseq) {
                let owner = plan.owners[t];
                let own = (owner == me).then(|| {
                    let computing = Instant::now();
                    let flat = r.gradient(plan, epoch, t, lane_len[t % g]);
                    out.compute_s += computing.elapsed().as_secs_f64();
                    out.computed += 1;
                    flat
                });
                pending.push(comm.broadcast_begin(owner, own));
            }
            let owned = out.computed - computed_before;
            r.step(pending.drain(..).map(PendingCollective::wait), g, &mut lane_loss, owned);
        }
        let total = lane_loss.iter().fold(0.0f32, |sum, &l| sum + l);
        r.epoch_losses.push(if nseq > 0 { total / nseq as f32 } else { 0.0 });
        out.epoch_seconds.push(clock.elapsed().as_secs_f64());
        if let (0, Some(store)) = (comm.rank(), job.store) {
            let mut state = TrainerState::basic(epoch + 1, r.opt.steps());
            state.rng_streams = r.model.rng_state();
            // f32 → f64 widening is exact, so the ledger survives the
            // manifest round-trip bit-for-bit.
            state.epoch_losses = r.epoch_losses.iter().map(|&l| l as f64).collect();
            let snap = crate::resume::capture_model(r.model.as_mut(), state).with_layout(PartitionLayout {
                world: comm.world_size(),
                global_batch: g,
                generation: comm.generation(),
                assignment: plan.assignment.to_vec(),
            });
            store.save(&snap)?;
            if recorder.enabled() {
                recorder.event(Event::snapshot(epoch + 1));
            }
        }
    }
    out.epoch_losses.clone_from(&r.epoch_losses);
    Ok(out)
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
    fn gradient_traffic_is_accounted() {
        let d = dataset();
        let dist = train_data_parallel(&d, cfg(1), 2, factory(&d));
        assert!(dist.grad_bytes > 0, "all-reduce must move bytes");
        assert!(dist.all_reduces > 0);
        assert_eq!(dist.world, 2);
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

        // Crash rank 1 in epoch 1's first step, its gradient computed and
        // not yet sent.
        let nseq =
            prepare_node_dataset(&d, cfg(epochs).seq_len, false, 1, cfg(epochs).seed)
                .sequences
                .len();
        let plan = FaultPlan {
            drop_prob: 0.1,
            max_retries: 2,
            crash: Some(torchgt_comm::CrashPoint { rank: 1, op: exchange_op(nseq, world, 1, 0) }),
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
