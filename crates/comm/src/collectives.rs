//! Real data-movement collectives over simulated devices.
//!
//! The paper runs NCCL collectives across 8–64 GPUs. Here each *rank* is a
//! thread and each link is a crossbeam channel, so the collectives genuinely
//! move data (the runtime's distributed forward pass is checked against the
//! single-device forward bit-for-bit), while the α–β models in
//! [`crate::interconnect`] supply the simulated wall-clock the experiment
//! harnesses report.

use crate::fault::FaultState;
use crate::membership::{Membership, MembershipError};
use crate::stats::{CollectiveKind, CommStats};
use std::cell::OnceCell;
use std::sync::Arc;
use torchgt_compat::sync::channel::{unbounded, Receiver, Sender};
use torchgt_faults::{decide, FaultPlan, RankCrash, SALT_DELAY, SALT_DROP};
use torchgt_obs::{Event, RecorderHandle};

/// One wire message: the payload plus the communicator generation it was
/// produced under. A receiver of a different generation rejects it — a
/// stale rank that missed a group reformation can never corrupt an
/// exchange of the new generation (the simulated analogue of NCCL's
/// communicator-id mismatch abort).
struct Msg {
    generation: u64,
    data: Vec<f32>,
}

/// One send handed to the communicator's background worker: the wire
/// message plus the injected fault latency already decided for it (all
/// fault *decisions* and ledger updates happen in the issuing thread; the
/// worker only serves the latency and pushes the message).
struct SendJob {
    peer: usize,
    msg: Msg,
    /// Total injected latency to serve before the send, microseconds.
    sleep_us: u64,
}

/// An in-flight collective returned by the `*_begin` methods. The sends
/// are already issued (over the background worker); the receives and any
/// reduction run when [`PendingCollective::wait`] is called, which every
/// handle **must** be — dropping one un-awaited panics loudly, because a
/// skipped completion desynchronizes the SPMD schedule for every peer.
/// Handles must be awaited in issue order: receives are matched to sends
/// by per-peer FIFO position, not by tag.
///
/// The blocking collectives are literally `begin(...).wait()`.
pub struct PendingCollective<'c, T> {
    label: &'static str,
    complete: Option<Box<dyn FnOnce() -> T + 'c>>,
}

impl<'c, T> PendingCollective<'c, T> {
    fn new(label: &'static str, complete: impl FnOnce() -> T + 'c) -> Self {
        Self { label, complete: Some(Box::new(complete)) }
    }

    /// Block until the collective completes and return its result. The
    /// result is bit-identical to the blocking call's under the same
    /// fault plan: faults and overlap perturb the schedule, never the
    /// numerics.
    pub fn wait(mut self) -> T {
        (self.complete.take().expect("PendingCollective waited twice"))()
    }
}

impl<T> Drop for PendingCollective<'_, T> {
    fn drop(&mut self) {
        // Suppressed while unwinding (e.g. an injected RankCrash between
        // begin and wait) so the original panic is not turned into an
        // abort by a second one.
        if self.complete.is_some() && !std::thread::panicking() {
            panic!(
                "PendingCollective `{}` dropped without wait(): \
                 every begun collective must be awaited",
                self.label
            );
        }
    }
}

/// Per-rank handle for collective communication within a device group.
pub struct Communicator {
    /// Dense rank id: contiguous `0..live_world` for this generation.
    rank: usize,
    /// Stable global rank id (`0..initial_world`), survives reformations.
    global_rank: usize,
    world: usize,
    /// Membership generation this communicator belongs to.
    generation: u64,
    /// `senders[j]` transmits to dense rank `j` (entry for self is unused).
    senders: Vec<Sender<Msg>>,
    /// `receivers[j]` receives from dense rank `j`.
    receivers: Vec<Receiver<Msg>>,
    stats: Arc<CommStats>,
    /// Volume ledger of the current generation only (rolled up on close).
    gen_stats: Arc<CommStats>,
    recorder: RecorderHandle,
    /// Fault-injection bookkeeping shared by the whole group (`None` in a
    /// fault-free group: the common path pays one branch).
    fault: Option<Arc<FaultState>>,
    /// Job queue of the background send worker every send goes through,
    /// spawned on the first send (a one-rank group never spawns it).
    worker: OnceCell<Sender<SendJob>>,
}

impl Communicator {
    /// This rank's dense id within the current generation.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's stable global id (equal to [`Communicator::rank`] until
    /// the group shrinks).
    pub fn global_rank(&self) -> usize {
        self.global_rank
    }

    /// The membership generation this communicator was built for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live ranks in this generation.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Shared volume statistics for the whole group.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Account one collective invocation: `payload` is the logical volume
    /// this rank handles, `wire` the part it actually sends across links
    /// (sender-side counting — group-wide sums don't double-count).
    fn account(&self, kind: CollectiveKind, payload: usize, wire: usize) {
        self.fault_tick();
        self.stats.record_op(kind);
        self.gen_stats.record_op(kind);
        if wire > 0 {
            self.stats.record_wire_bytes(kind, wire);
            self.gen_stats.record_wire_bytes(kind, wire);
        }
        if self.recorder.enabled() {
            self.recorder.collective(kind.label(), 1, payload as u64, wire as u64);
        }
    }

    /// One collective invocation on this rank: advance the fault-plan op
    /// counter and fire an injected crash if this is the chosen op. The
    /// panic payload is a [`RankCrash`]; [`DeviceGroup::try_run`] converts
    /// it into a per-rank error while peers cascade-fail their receives,
    /// mirroring a NCCL communicator abort. Fault bookkeeping is keyed on
    /// the *global* rank so a plan keeps naming the same physical worker
    /// across reformations.
    fn fault_tick(&self) {
        let Some(fs) = &self.fault else { return };
        let op = fs.next_collective_op(self.global_rank);
        if fs.should_crash(self.global_rank, op) {
            if self.recorder.enabled() {
                self.recorder.event(Event::rank_crash(self.global_rank, op));
            }
            std::panic::panic_any(RankCrash { rank: self.global_rank, op });
        }
    }

    /// Injected per-send faults: seeded delay, deterministic straggler
    /// slowdown, and drop-with-retry. None of them changes what is
    /// ultimately delivered or its order — faults perturb the schedule,
    /// never the numerics. All *decisions* and bookkeeping (send-op
    /// allocation, straggler ledger, retry counters, obs events) happen
    /// here in the issuing thread so the fault schedule is a pure function
    /// of the plan and the per-rank call order, never of how far the worker
    /// lags; only the decided latency (returned in microseconds) is served
    /// on the worker.
    fn plan_send_faults(&self, peer: usize) -> u64 {
        let Some(fs) = &self.fault else { return 0 };
        let plan: &FaultPlan = &fs.plan;
        let slow = plan.slow_rank == Some(self.global_rank) && plan.slow_delay_s > 0.0;
        if !slow && plan.delay_prob <= 0.0 && plan.drop_prob <= 0.0 {
            return 0;
        }
        let op = fs.next_send_op(self.global_rank);
        let mut sleep_s = 0.0;
        if slow {
            sleep_s += plan.slow_delay_s;
            fs.add_delay_s(self.global_rank, plan.slow_delay_s);
        }
        if decide(plan.seed, self.global_rank as u64, op, SALT_DELAY, plan.delay_prob) {
            if plan.delay_s > 0.0 {
                sleep_s += plan.delay_s;
                fs.add_delay_s(self.global_rank, plan.delay_s);
            }
            if self.recorder.enabled() {
                self.recorder.event(Event::fault_delay(self.global_rank, peer, op, plan.delay_s));
            }
        }
        let mut lost = 0u64;
        while lost < plan.max_retries as u64
            && decide(plan.seed, self.global_rank as u64, op ^ (lost << 32), SALT_DROP, plan.drop_prob)
        {
            // The receiver times out waiting for the lost attempt; the
            // retransmission then goes through. Modelled sender-side as
            // backoff latency so no extra message ever hits the wire.
            lost += 1;
            if plan.retry_backoff_s > 0.0 {
                sleep_s += plan.retry_backoff_s;
            }
        }
        if lost > 0 {
            self.stats.record_retries(lost);
            if self.recorder.enabled() {
                self.recorder.event(Event::fault_drop(self.global_rank, peer, op, lost));
            }
        }
        (sleep_s * 1e6) as u64
    }

    /// The background send worker's job queue, spawned on first use. The
    /// worker owns clones of every outbound link; it serves each job's
    /// injected latency, then pushes the message. Dropping this
    /// communicator closes the queue, the worker drains what is left and
    /// exits, and only then do its link clones drop — so a crashed rank's
    /// peers see the "peer hung up" cascade on their next receive.
    fn worker_tx(&self) -> &Sender<SendJob> {
        self.worker.get_or_init(|| {
            let (tx, rx) = unbounded::<SendJob>();
            let senders = self.senders.clone();
            std::thread::spawn(move || {
                while let Ok(SendJob { peer, msg, sleep_us }) = rx.recv() {
                    if sleep_us > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(sleep_us));
                    }
                    // A hung-up peer is reported by the receiving side of
                    // the exchange (the blocking recv), never the worker.
                    let _ = senders[peer].send(msg);
                }
            });
            tx
        })
    }

    /// Hand one point-to-point send (`peer` is a dense rank) to the
    /// background worker. Volume accounting and fault bookkeeping happen
    /// here in the calling thread; the worker only serves the decided
    /// latency. Every send of this rank goes through the one queue, so
    /// per-peer FIFO order is the order of the calls.
    fn issue_send(&self, peer: usize, data: Vec<f32>) {
        let sleep_us = self.plan_send_faults(peer);
        self.stats.record_bytes(data.len() * 4);
        self.gen_stats.record_bytes(data.len() * 4);
        let msg = Msg { generation: self.generation, data };
        self.worker_tx().send(SendJob { peer, msg, sleep_us }).expect("send worker hung up");
    }

    /// Point-to-point receive, blocking (FIFO per peer). Panics on a
    /// generation mismatch: a message from a stale (or forged) generation
    /// aborts the exchange instead of silently mixing into it.
    fn recv_from(&self, peer: usize) -> Vec<f32> {
        let msg = self.receivers[peer].recv().expect("peer hung up");
        if msg.generation != self.generation {
            panic!(
                "stale generation message from dense peer {}: got generation {}, expected {}",
                peer, msg.generation, self.generation
            );
        }
        msg.data
    }

    /// Begin an all-to-all: `chunks[j]` goes to rank `j`. The chunks are
    /// accounted and handed to the background worker in rank order and the
    /// call returns at once; run independent compute, then
    /// [`PendingCollective::wait`] for the chunks received from every rank
    /// (own chunk passed through untouched), received in rank order.
    pub fn all_to_all_begin(&self, mut chunks: Vec<Vec<f32>>) -> PendingCollective<'_, Vec<Vec<f32>>> {
        assert_eq!(chunks.len(), self.world, "all_to_all needs one chunk per rank");
        let payload: usize = chunks.iter().map(|c| c.len() * 4).sum();
        let wire = payload - chunks[self.rank].len() * 4;
        self.account(CollectiveKind::AllToAll, payload, wire);
        let own = std::mem::take(&mut chunks[self.rank]);
        for (j, chunk) in chunks.into_iter().enumerate() {
            if j != self.rank {
                self.issue_send(j, chunk);
            }
        }
        PendingCollective::new("all_to_all", move || {
            let mut out: Vec<Vec<f32>> = (0..self.world).map(|_| Vec::new()).collect();
            out[self.rank] = own;
            for j in 0..self.world {
                if j != self.rank {
                    out[j] = self.recv_from(j);
                }
            }
            out
        })
    }

    /// All-to-all, blocking: [`Communicator::all_to_all_begin`] waited at once.
    pub fn all_to_all(&self, chunks: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        self.all_to_all_begin(chunks).wait()
    }

    /// Begin an all-gather: every rank contributes `data`; `wait()` returns
    /// all contributions indexed by rank (see
    /// [`Communicator::all_to_all_begin`] for the begin/wait contract).
    pub fn all_gather_begin(&self, data: Vec<f32>) -> PendingCollective<'_, Vec<Vec<f32>>> {
        let bytes = data.len() * 4;
        self.account(CollectiveKind::AllGather, bytes * self.world, bytes * (self.world - 1));
        for j in 0..self.world {
            if j != self.rank {
                self.issue_send(j, data.clone());
            }
        }
        PendingCollective::new("all_gather", move || {
            let mut out: Vec<Vec<f32>> = (0..self.world).map(|_| Vec::new()).collect();
            out[self.rank] = data;
            for j in 0..self.world {
                if j != self.rank {
                    out[j] = self.recv_from(j);
                }
            }
            out
        })
    }

    /// All-gather, blocking.
    pub fn all_gather(&self, data: Vec<f32>) -> Vec<Vec<f32>> {
        self.all_gather_begin(data).wait()
    }

    /// Begin an all-reduce (sum); `wait()` returns the element-wise sum of
    /// every rank's `data`, folded in rank order — the same fold on every
    /// rank and for every schedule of begins and waits, so overlap never
    /// perturbs the sum.
    pub fn all_reduce_begin(&self, data: Vec<f32>) -> PendingCollective<'_, Vec<f32>> {
        // Wire volume lands on the underlying all-gather's ledger.
        self.account(CollectiveKind::AllReduce, data.len() * 4, 0);
        let gather = self.all_gather_begin(data);
        PendingCollective::new("all_reduce", move || {
            let parts = gather.wait();
            let len = parts[0].len();
            let mut acc = vec![0.0f32; len];
            for part in parts {
                debug_assert_eq!(part.len(), len);
                for (a, v) in acc.iter_mut().zip(part) {
                    *a += v;
                }
            }
            acc
        })
    }

    /// All-reduce (sum), blocking.
    pub fn all_reduce_sum(&self, data: Vec<f32>) -> Vec<f32> {
        self.all_reduce_begin(data).wait()
    }

    /// Begin a reduce-scatter (sum): `chunks[j]` is this rank's
    /// contribution to rank `j`'s result; `wait()` returns the element-wise
    /// sum of chunk `rank` across all ranks.
    pub fn reduce_scatter_begin(&self, chunks: Vec<Vec<f32>>) -> PendingCollective<'_, Vec<f32>> {
        // Wire volume lands on the underlying all-to-all's ledger.
        self.account(CollectiveKind::ReduceScatter, chunks.iter().map(|c| c.len() * 4).sum(), 0);
        let scatter = self.all_to_all_begin(chunks);
        PendingCollective::new("reduce_scatter", move || {
            let received = scatter.wait();
            let len = received[0].len();
            let mut acc = vec![0.0f32; len];
            for part in received {
                for (a, v) in acc.iter_mut().zip(part) {
                    *a += v;
                }
            }
            acc
        })
    }

    /// Reduce-scatter (sum), blocking.
    pub fn reduce_scatter_sum(&self, chunks: Vec<Vec<f32>>) -> Vec<f32> {
        self.reduce_scatter_begin(chunks).wait()
    }

    /// Begin a broadcast from `root`: the root passes `Some(data)`, everyone
    /// else `None`; `wait()` returns the root's data on every rank. On the
    /// root the sends go out at begin; on every other rank the *receive* is
    /// the whole collective, so both the data movement and its accounting
    /// run at `wait()`.
    pub fn broadcast_begin(
        &self,
        root: usize,
        data: Option<Vec<f32>>,
    ) -> PendingCollective<'_, Vec<f32>> {
        if self.rank == root {
            let data = data.expect("root must supply data");
            let bytes = data.len() * 4;
            self.account(CollectiveKind::Broadcast, bytes, bytes * (self.world - 1));
            for j in 0..self.world {
                if j != root {
                    self.issue_send(j, data.clone());
                }
            }
            PendingCollective::new("broadcast", move || data)
        } else {
            PendingCollective::new("broadcast", move || {
                let data = self.recv_from(root);
                self.account(CollectiveKind::Broadcast, data.len() * 4, 0);
                data
            })
        }
    }

    /// Broadcast from `root`, blocking.
    pub fn broadcast(&self, root: usize, data: Option<Vec<f32>>) -> Vec<f32> {
        self.broadcast_begin(root, data).wait()
    }

    /// Barrier: no rank proceeds until all ranks arrive.
    pub fn barrier(&self) {
        self.account(CollectiveKind::Barrier, 0, 0);
        for j in 0..self.world {
            if j != self.rank {
                self.issue_send(j, Vec::new());
            }
        }
        for j in 0..self.world {
            if j != self.rank {
                let _ = self.recv_from(j);
            }
        }
    }
}

/// How one rank of a [`DeviceGroup::try_run`] call failed.
#[derive(Clone, Debug)]
pub enum RankFailure {
    /// An injected [`FaultPlan`] crash fired on this rank.
    Crash(RankCrash),
    /// The rank panicked for another reason (including the "peer hung up"
    /// cascade a crashed neighbour causes).
    Panic(String),
}

impl RankFailure {
    /// True for the panic a rank dies of because a *peer* went away first —
    /// the consequence of some other rank's failure, never its cause.
    pub fn is_cascade(&self) -> bool {
        matches!(self, RankFailure::Panic(msg) if is_cascade_message(msg))
    }
}

fn is_cascade_message(msg: &str) -> bool {
    msg.contains("peer hung up") || msg.contains("stale generation")
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Crash(c) => {
                write!(f, "injected crash on rank {} at collective op {}", c.rank, c.op)
            }
            RankFailure::Panic(msg) => write!(f, "rank panicked: {msg}"),
        }
    }
}

/// A rank the straggler watchdog flagged: its accumulated injected send
/// delay against the group median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerReport {
    /// Global rank id of the straggler.
    pub rank: usize,
    /// Injected delay accumulated by this rank since the last run started,
    /// seconds.
    pub delay_s: f64,
    /// Median injected delay across the live ranks, seconds.
    pub median_s: f64,
    /// How many times the median this rank's delay measured
    /// (`delay_s / median_s`, clamped to a finite value when the median
    /// is zero) — the observed severity, as opposed to the configured
    /// watchdog threshold.
    pub measured_multiple: f64,
}

/// A group of simulated devices. [`DeviceGroup::run`] executes one closure
/// per rank on its own thread and returns the per-rank results.
///
/// The group is *elastic*: [`DeviceGroup::remove_rank`] declares a rank
/// permanently lost and reforms the communicator set over the survivors
/// under a new [`Membership`] generation ([`DeviceGroup::readmit_rank`]
/// brings one back at an epoch boundary). Subsequent runs span only the
/// live ranks; closures see dense rank ids `0..live_world` plus the stable
/// [`Communicator::global_rank`].
pub struct DeviceGroup {
    world: usize,
    membership: Membership,
    stats: Arc<CommStats>,
    /// Ledger of the current generation, swapped fresh on reformation.
    gen_stats: Arc<CommStats>,
    recorder: RecorderHandle,
    fault: Option<Arc<FaultState>>,
}

impl DeviceGroup {
    /// Create a group of `world` simulated devices.
    pub fn new(world: usize) -> Self {
        Self::with_recorder(world, torchgt_obs::noop())
    }

    /// Create a group whose collectives report per-invocation ops/volume to
    /// `recorder` (in addition to the always-on [`CommStats`] counters).
    pub fn with_recorder(world: usize, recorder: RecorderHandle) -> Self {
        assert!(world >= 1);
        Self {
            world,
            membership: Membership::new(world),
            stats: Arc::new(CommStats::default()),
            gen_stats: Arc::new(CommStats::default()),
            recorder,
            fault: None,
        }
    }

    /// Swap the recorder collectives report to (applies to subsequent
    /// [`DeviceGroup::run`] calls).
    pub fn attach_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Install (or clear) a fault-injection plan for subsequent runs. An
    /// installed crash fires at most once across the group's lifetime, so a
    /// recovery re-run over the same group proceeds clean.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan.map(|p| Arc::new(FaultState::new(p, self.world)));
    }

    /// World size the group was created with (stable across reformations).
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Number of currently live ranks.
    pub fn live_world(&self) -> usize {
        self.membership.live_world()
    }

    /// Current membership generation.
    pub fn generation(&self) -> u64 {
        self.membership.generation()
    }

    /// The current membership (live global rank ids + generation).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Communication-volume statistics accumulated across runs.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Emit a [`Event::generation_rollup`] for the current generation's
    /// accumulated collective volume. Called automatically when a
    /// reformation closes a generation; call it once more after the final
    /// run so the last generation is reported too.
    pub fn rollup_generation(&self) {
        if !self.recorder.enabled() {
            return;
        }
        let ops: u64 = CollectiveKind::ALL.iter().map(|&k| self.gen_stats.ops(k)).sum();
        let wire: u64 = CollectiveKind::ALL.iter().map(|&k| self.gen_stats.wire_bytes(k)).sum();
        self.recorder.event(Event::generation_rollup(
            self.membership.generation(),
            self.membership.live_world(),
            ops,
            wire,
            self.gen_stats.bytes_sent(),
        ));
    }

    /// Declare global rank `rank` permanently lost: roll up the closing
    /// generation, drop the rank from the live set, and open a fresh
    /// generation over the survivors (emits [`Event::GROUP_SHRUNK`]).
    pub fn remove_rank(&mut self, rank: usize) -> Result<(), MembershipError> {
        let from = self.membership.live_world();
        self.rollup_generation();
        self.membership.remove(rank)?;
        self.gen_stats = Arc::new(CommStats::default());
        if self.recorder.enabled() {
            self.recorder.event(Event::group_shrunk(
                self.membership.generation(),
                from,
                self.membership.live_world(),
                rank,
            ));
        }
        Ok(())
    }

    /// Re-admit a previously removed rank at an epoch boundary: roll up
    /// the closing generation and reform over the enlarged live set
    /// (emits [`Event::RANK_REJOINED`]).
    pub fn readmit_rank(&mut self, rank: usize) -> Result<(), MembershipError> {
        self.rollup_generation();
        self.membership.readmit(rank)?;
        self.gen_stats = Arc::new(CommStats::default());
        if self.recorder.enabled() {
            self.recorder.event(Event::rank_rejoined(
                rank,
                self.membership.generation(),
                self.membership.live_world(),
            ));
        }
        Ok(())
    }

    /// Straggler watchdog: compare each live rank's injected send delay
    /// (accumulated since the last run started) against the live-group
    /// median; ranks exceeding `multiple × median` are flagged with a
    /// [`Event::STRAGGLER`] event. Detection only — membership is not
    /// changed. Returns the flagged ranks.
    pub fn detect_stragglers(&self, multiple: f64) -> Vec<StragglerReport> {
        let Some(fs) = &self.fault else { return Vec::new() };
        let live = self.membership.live_ranks();
        let delays: Vec<f64> = live.iter().map(|&r| fs.delay_s(r)).collect();
        let mut sorted = delays.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n == 0 {
            0.0
        } else if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mut flagged = Vec::new();
        for (&rank, &delay_s) in live.iter().zip(&delays) {
            if delay_s > 0.0 && delay_s > multiple * median {
                let measured = delay_s / median.max(f64::EPSILON);
                if self.recorder.enabled() {
                    self.recorder.event(Event::straggler(rank, delay_s, median, multiple, measured));
                }
                flagged.push(StragglerReport {
                    rank,
                    delay_s,
                    median_s: median,
                    measured_multiple: measured,
                });
            }
        }
        flagged
    }

    /// Injected send delay accumulated by every live rank since the last
    /// run started, seconds: `(global_rank, delay_s)` pairs. This is the
    /// same ledger the straggler watchdog reads — exposed so closed-loop
    /// policies (the runtime's `StepLedger`) can fold comm-side slowness
    /// into per-rank step-time estimates. Empty when no fault plan is
    /// installed.
    pub fn injected_delays(&self) -> Vec<(usize, f64)> {
        let Some(fs) = &self.fault else { return Vec::new() };
        self.membership.live_ranks().iter().map(|&r| (r, fs.delay_s(r))).collect()
    }

    /// Build the channel mesh over the live ranks and one [`Communicator`]
    /// per live rank (dense ids `0..live_world`, tagged with the current
    /// generation).
    fn build_comms(&self) -> Vec<Communicator> {
        let p = self.membership.live_world();
        let generation = self.membership.generation();
        if let Some(fs) = &self.fault {
            fs.reset_counters();
        }
        let mut txs: Vec<Vec<Option<Sender<Msg>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let mut rxs: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for i in 0..p {
            for j in 0..p {
                if i == j {
                    continue;
                }
                let (tx, rx) = unbounded();
                txs[i][j] = Some(tx); // i → j
                rxs[j][i] = Some(rx); // j receives from i
            }
        }
        let mut comms: Vec<Communicator> = Vec::with_capacity(p);
        for (rank, (tx_row, rx_row)) in txs.into_iter().zip(rxs).enumerate() {
            let (dummy_tx, dummy_rx) = unbounded();
            let senders = tx_row.into_iter().map(|t| t.unwrap_or_else(|| dummy_tx.clone())).collect();
            let receivers = {
                let mut v: Vec<Receiver<Msg>> = Vec::with_capacity(p);
                for r in rx_row {
                    v.push(r.unwrap_or_else(|| dummy_rx.clone()));
                }
                v
            };
            comms.push(Communicator {
                rank,
                global_rank: self.membership.global_of(rank),
                world: p,
                generation,
                senders,
                receivers,
                stats: Arc::clone(&self.stats),
                gen_stats: Arc::clone(&self.gen_stats),
                recorder: Arc::clone(&self.recorder),
                fault: self.fault.clone(),
                worker: OnceCell::new(),
            });
        }
        comms
    }

    /// Run `f(communicator)` on every rank concurrently, returning results in
    /// rank order. Collective calls inside `f` must be made by *all* ranks in
    /// the same order (the usual SPMD contract). Panics if any rank panics;
    /// use [`DeviceGroup::try_run`] when a fault plan may crash a rank.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(Communicator) -> R + Sync,
        R: Send,
    {
        let comms = self.build_comms();
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| scope.spawn(move || f(comm)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }

    /// Like [`DeviceGroup::run`] but crash-tolerant: each rank's panic is
    /// contained and reported as a [`RankFailure`] in that rank's slot
    /// instead of tearing the caller down. An injected crash surfaces as
    /// [`RankFailure::Crash`] on its rank while the peers it strands
    /// surface as the "peer hung up" cascade — the whole-group abort
    /// semantics of a real NCCL job, observable instead of fatal.
    pub fn try_run<F, R>(&self, f: F) -> Vec<Result<R, RankFailure>>
    where
        F: Fn(Communicator) -> R + Sync,
        R: Send,
    {
        let comms = self.build_comms();
        let f = &f;
        quiet_crash_panics(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|comm| scope.spawn(move || f(comm)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => Ok(r),
                        Err(payload) => Err(classify_panic(payload)),
                    })
                    .collect()
            })
        })
    }
}

/// Map a joined panic payload to a [`RankFailure`].
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    match payload.downcast::<RankCrash>() {
        Ok(crash) => RankFailure::Crash(*crash),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            RankFailure::Panic(msg)
        }
    }
}

/// True for panics [`DeviceGroup::try_run`] expects and contains: injected
/// [`RankCrash`]es and the "peer hung up" cascade they cause.
fn is_expected_crash(info: &std::panic::PanicHookInfo<'_>) -> bool {
    if info.payload().downcast_ref::<RankCrash>().is_some() {
        return true;
    }
    let msg = info
        .payload()
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| info.payload().downcast_ref::<String>().cloned());
    msg.is_some_and(|m| is_cascade_message(&m))
}

/// Run `f` with a panic hook that silences the expected crash-cascade
/// panics (they are *handled* — per-rank results carry them), forwarding
/// everything else to the previously installed hook. Hook swaps are
/// serialized process-wide; the previous hook is restored afterwards.
fn quiet_crash_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::sync::Mutex;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync> =
        Arc::from(std::panic::take_hook());
    let forward = Arc::clone(&prev);
    std::panic::set_hook(Box::new(move |info| {
        if !is_expected_crash(info) {
            forward(info);
        }
    }));
    let out = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(Box::new(move |info| prev(info)));
    out
}

#[cfg(test)]
impl Communicator {
    /// Fault-injection aid: pretend this rank belongs to generation `gen`
    /// from now on. Its next send carries the forged tag and the receiver
    /// aborts the exchange — used to test stale-rank rejection.
    fn forge_generation(&mut self, gen: u64) {
        self.generation = gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_permutes_chunks() {
        let group = DeviceGroup::new(4);
        let results = group.run(|comm| {
            let r = comm.rank() as f32;
            // Rank r sends [r*10 + j] to rank j.
            let chunks: Vec<Vec<f32>> = (0..4).map(|j| vec![r * 10.0 + j as f32]).collect();
            comm.all_to_all(chunks)
        });
        // Rank j receives r*10 + j from every rank r.
        for (j, recv) in results.iter().enumerate() {
            for (r, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk, &vec![r as f32 * 10.0 + j as f32]);
            }
        }
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let group = DeviceGroup::new(3);
        let results = group.run(|comm| comm.all_gather(vec![comm.rank() as f32; 2]));
        for recv in results {
            assert_eq!(recv, vec![vec![0.0; 2], vec![1.0; 2], vec![2.0; 2]]);
        }
    }

    #[test]
    fn all_reduce_sums() {
        let group = DeviceGroup::new(5);
        let results = group.run(|comm| comm.all_reduce_sum(vec![comm.rank() as f32, 1.0]));
        for recv in results {
            assert_eq!(recv, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn reduce_scatter_matches_manual_sum() {
        let group = DeviceGroup::new(3);
        let results = group.run(|comm| {
            let r = comm.rank() as f32;
            let chunks: Vec<Vec<f32>> = (0..3).map(|j| vec![r + j as f32]).collect();
            comm.reduce_scatter_sum(chunks)
        });
        // Rank j gets Σ_r (r + j) = 3 + 3j... with ranks 0,1,2: Σ r = 3.
        for (j, recv) in results.iter().enumerate() {
            assert_eq!(recv, &vec![3.0 + 3.0 * j as f32]);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let group = DeviceGroup::new(4);
        let results = group.run(|comm| {
            let data = if comm.rank() == 2 { Some(vec![7.0, 8.0]) } else { None };
            comm.broadcast(2, data)
        });
        for recv in results {
            assert_eq!(recv, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn barrier_completes() {
        let group = DeviceGroup::new(8);
        let results = group.run(|comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stats_accumulate_volume() {
        let group = DeviceGroup::new(2);
        group.run(|comm| {
            comm.all_gather(vec![0.0; 256]);
        });
        // Each of 2 ranks sends 256 floats to 1 peer = 2 × 1024 bytes.
        assert_eq!(group.stats().bytes_sent(), 2 * 256 * 4);
        assert_eq!(group.stats().ops(CollectiveKind::AllGather), 2);
    }

    #[test]
    fn all_to_all_conserves_tokens_and_balances_volume() {
        // The graph-parallel pipeline redistributes S sequence tokens across
        // P ranks with one all-to-all. Token identity must be conserved
        // (nothing dropped or duplicated) and, with a balanced destination
        // map, every rank should end up holding ~S/P tokens.
        const P: usize = 8;
        const S: usize = 4096;
        const PER_RANK: usize = S / P;
        let group = DeviceGroup::new(P);
        let results = group.run(|comm| {
            let r = comm.rank();
            // Rank r starts with tokens [r*S/P, (r+1)*S/P); token t is bound
            // for rank (t % P).
            let mut chunks: Vec<Vec<f32>> = (0..P).map(|_| Vec::new()).collect();
            for t in (r * PER_RANK)..((r + 1) * PER_RANK) {
                chunks[t % P].push(t as f32);
            }
            comm.all_to_all(chunks)
        });
        let mut seen = vec![0u32; S];
        for (j, recv) in results.iter().enumerate() {
            let volume: usize = recv.iter().map(Vec::len).sum();
            assert_eq!(volume, PER_RANK, "rank {j} volume should be S/P");
            for chunk in recv {
                for &tok in chunk {
                    let t = tok as usize;
                    assert_eq!(t % P, j, "token {t} landed on wrong rank {j}");
                    seen[t] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "every token exactly once");
    }

    #[test]
    fn all_to_all_conserves_uneven_token_counts() {
        // Skewed destinations: every token goes to rank 0. Totals must still
        // be conserved even though the volume is maximally unbalanced.
        const P: usize = 4;
        const PER_RANK: usize = 32;
        let group = DeviceGroup::new(P);
        let results = group.run(|comm| {
            let r = comm.rank() as f32;
            let mut chunks: Vec<Vec<f32>> = (0..P).map(|_| Vec::new()).collect();
            chunks[0] = vec![r; PER_RANK];
            comm.all_to_all(chunks)
        });
        let rank0_total: usize = results[0].iter().map(Vec::len).sum();
        assert_eq!(rank0_total, P * PER_RANK);
        for (j, recv) in results.iter().enumerate().skip(1) {
            let volume: usize = recv.iter().map(Vec::len).sum();
            assert_eq!(volume, 0, "rank {j} should receive nothing");
        }
    }

    #[test]
    fn recorder_sees_per_kind_volume() {
        use torchgt_obs::MemoryRecorder;
        let mem = Arc::new(MemoryRecorder::default());
        let group = DeviceGroup::with_recorder(4, mem.clone());
        group.run(|comm| {
            // 4 chunks of 8 floats each: 128 B payload, 96 B cross-link.
            comm.all_to_all((0..4).map(|_| vec![0.0f32; 8]).collect());
            comm.barrier();
        });
        let report = mem.report();
        let a2a = report.collective("all_to_all").unwrap();
        assert_eq!(a2a.ops, 4, "one invocation per rank");
        assert_eq!(a2a.payload_bytes, 4 * 128);
        assert_eq!(a2a.wire_bytes, 4 * 96);
        assert_eq!(report.collective("barrier").unwrap().wire_bytes, 0);
        // The always-on stats ledger agrees with the recorder.
        assert_eq!(group.stats().wire_bytes(CollectiveKind::AllToAll), 4 * 96);
    }

    #[test]
    fn try_run_without_faults_matches_run() {
        let group = DeviceGroup::new(3);
        let results = group.try_run(|comm| comm.all_reduce_sum(vec![comm.rank() as f32]));
        for r in results {
            assert_eq!(r.unwrap(), vec![3.0]);
        }
    }

    #[test]
    fn injected_crash_is_contained_and_one_shot() {
        let mut group = DeviceGroup::new(4);
        // Rank 2 dies at its second collective op.
        group.set_fault_plan(Some(FaultPlan::crash_at(9, 2, 1)));
        let results = group.try_run(|comm| {
            comm.barrier();
            comm.all_reduce_sum(vec![1.0])
        });
        assert!(
            matches!(&results[2], Err(RankFailure::Crash(c)) if c.rank == 2 && c.op == 1),
            "rank 2 should report the injected crash, got {:?}",
            results[2]
        );
        let peer_failures =
            results.iter().filter(|r| matches!(r, Err(RankFailure::Panic(_)))).count();
        assert!(peer_failures > 0, "peers should cascade-fail when rank 2 dies");
        // Recovery attempt on the same group: crash already fired, all clean.
        let retry = group.try_run(|comm| {
            comm.barrier();
            comm.all_reduce_sum(vec![1.0])
        });
        for r in retry {
            assert_eq!(r.unwrap(), vec![4.0]);
        }
    }

    #[test]
    fn delays_and_drops_do_not_change_results() {
        let mut group = DeviceGroup::new(4);
        group.set_fault_plan(Some(FaultPlan {
            seed: 5,
            delay_prob: 0.3,
            delay_s: 0.0005,
            drop_prob: 0.4,
            max_retries: 3,
            retry_backoff_s: 0.0005,
            ..FaultPlan::default()
        }));
        let faulty = group.run(|comm| {
            let mut out = comm.all_reduce_sum(vec![comm.rank() as f32, 2.0]);
            out.extend(comm.all_gather(vec![comm.rank() as f32]).concat());
            out
        });
        let clean_group = DeviceGroup::new(4);
        let clean = clean_group.run(|comm| {
            let mut out = comm.all_reduce_sum(vec![comm.rank() as f32, 2.0]);
            out.extend(comm.all_gather(vec![comm.rank() as f32]).concat());
            out
        });
        assert_eq!(faulty, clean, "faults must never perturb delivered data");
        assert!(group.stats().retries() > 0, "drop plan should have caused retries");
    }

    #[test]
    fn faults_are_recorded_as_events() {
        use torchgt_obs::{Event, MemoryRecorder};
        let mem = Arc::new(MemoryRecorder::default());
        let mut group = DeviceGroup::with_recorder(3, mem.clone());
        group.set_fault_plan(Some(FaultPlan {
            seed: 11,
            drop_prob: 0.5,
            max_retries: 2,
            crash: Some(crate::CrashPoint { rank: 1, op: 2 }),
            ..FaultPlan::default()
        }));
        let results = group.try_run(|comm| {
            comm.barrier();
            comm.barrier();
            comm.barrier();
            comm.rank()
        });
        assert!(results.iter().any(|r| r.is_err()));
        let report = mem.report();
        assert_eq!(report.events_of(Event::RANK_CRASH).len(), 1, "crash event recorded");
        let crash = &report.events_of(Event::RANK_CRASH)[0];
        assert_eq!(crash.num("rank"), Some(1.0));
        assert!(!report.events_of(Event::FAULT_DROP).is_empty(), "drop events recorded");
    }

    #[test]
    fn fault_decisions_replay_identically() {
        let run_once = || {
            let mut group = DeviceGroup::new(2);
            group.set_fault_plan(Some(FaultPlan::drops(3, 0.5, 4)));
            group.run(|comm| comm.all_gather(vec![comm.rank() as f32]));
            group.stats().retries()
        };
        assert_eq!(run_once(), run_once(), "same seed must give the same fault schedule");
    }

    #[test]
    fn single_rank_group_works() {
        let group = DeviceGroup::new(1);
        let results = group.run(|comm| {
            let out = comm.all_to_all(vec![vec![1.0, 2.0]]);
            let red = comm.all_reduce_sum(vec![3.0]);
            (out, red)
        });
        assert_eq!(results[0].0, vec![vec![1.0, 2.0]]);
        assert_eq!(results[0].1, vec![3.0]);
    }

    #[test]
    fn shrunk_group_runs_over_survivors_with_dense_ranks() {
        let mut group = DeviceGroup::new(4);
        group.remove_rank(1).unwrap();
        assert_eq!(group.generation(), 1);
        assert_eq!(group.live_world(), 3);
        let results = group.run(|comm| {
            assert_eq!(comm.world_size(), 3);
            assert_eq!(comm.generation(), 1);
            let sum = comm.all_reduce_sum(vec![comm.global_rank() as f32]);
            (comm.rank(), comm.global_rank(), sum)
        });
        // Dense ids are contiguous; global ids skip the lost rank 1.
        assert_eq!(
            results.iter().map(|(d, g, _)| (*d, *g)).collect::<Vec<_>>(),
            vec![(0, 0), (1, 2), (2, 3)]
        );
        for (_, _, sum) in results {
            assert_eq!(sum, vec![0.0 + 2.0 + 3.0]);
        }
    }

    #[test]
    fn readmitted_rank_restores_full_world() {
        let mut group = DeviceGroup::new(3);
        group.remove_rank(2).unwrap();
        group.readmit_rank(2).unwrap();
        assert_eq!(group.generation(), 2);
        assert_eq!(group.live_world(), 3);
        let results = group.run(|comm| comm.all_reduce_sum(vec![1.0]));
        for r in results {
            assert_eq!(r, vec![3.0]);
        }
    }

    #[test]
    fn stale_generation_message_aborts_the_exchange() {
        let group = DeviceGroup::new(2);
        let results = group.try_run(|mut comm| {
            if comm.rank() == 0 {
                // Rank 0 pretends it never saw a reformation: its messages
                // carry a stale generation tag.
                comm.forge_generation(comm.generation() + 7);
            }
            comm.all_gather(vec![comm.rank() as f32])
        });
        let stale_rejections = results
            .iter()
            .filter(|r| {
                matches!(r, Err(RankFailure::Panic(m)) if m.contains("stale generation"))
            })
            .count();
        assert!(stale_rejections >= 1, "receiver must reject the forged tag: {results:?}");
        assert!(results.iter().all(|r| r.is_err()), "no rank may complete on a corrupt exchange");
    }

    #[test]
    fn membership_transitions_emit_events_and_generation_rollups() {
        use torchgt_obs::MemoryRecorder;
        let mem = Arc::new(MemoryRecorder::default());
        let mut group = DeviceGroup::with_recorder(4, mem.clone());
        group.run(|comm| comm.all_gather(vec![0.0f32; 4]));
        group.remove_rank(3).unwrap();
        group.run(|comm| comm.all_gather(vec![0.0f32; 4]));
        group.readmit_rank(3).unwrap();
        group.rollup_generation();
        let report = mem.report();
        let shrunk = report.events_of(Event::GROUP_SHRUNK);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk[0].num("from_world"), Some(4.0));
        assert_eq!(shrunk[0].num("to_world"), Some(3.0));
        assert_eq!(shrunk[0].num("lost_rank"), Some(3.0));
        let rejoined = report.events_of(Event::RANK_REJOINED);
        assert_eq!(rejoined.len(), 1);
        assert_eq!(rejoined[0].num("world"), Some(4.0));
        // One rollup per closed generation: gen 0 (4 ranks), gen 1
        // (3 ranks), and the final explicit rollup of gen 2 (idle).
        let rollups = report.events_of(Event::GENERATION_ROLLUP);
        assert_eq!(rollups.len(), 3);
        assert_eq!(rollups[0].num("world"), Some(4.0));
        assert_eq!(rollups[0].num("ops"), Some(4.0), "4 ranks × 1 all_gather");
        assert_eq!(rollups[1].num("world"), Some(3.0));
        assert_eq!(rollups[1].num("ops"), Some(3.0));
        assert_eq!(rollups[2].num("ops"), Some(0.0));
        // Per-generation wire volume: gen 0 moved 4×3×16B, gen 1 3×2×16B.
        assert_eq!(rollups[0].num("wire_bytes"), Some((4 * 3 * 16) as f64));
        assert_eq!(rollups[1].num("wire_bytes"), Some((3 * 2 * 16) as f64));
    }

    #[test]
    fn straggler_watchdog_flags_the_slow_rank_only() {
        use torchgt_obs::MemoryRecorder;
        let mem = Arc::new(MemoryRecorder::default());
        let mut group = DeviceGroup::with_recorder(4, mem.clone());
        group.set_fault_plan(Some(FaultPlan::slow(2, 0.002)));
        group.run(|comm| {
            comm.barrier();
            comm.barrier();
        });
        let flagged = group.detect_stragglers(4.0);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].rank, 2);
        assert!(flagged[0].delay_s > 0.0);
        let events = mem.report();
        let stragglers = events.events_of(Event::STRAGGLER);
        assert_eq!(stragglers.len(), 1);
        assert_eq!(stragglers[0].num("rank"), Some(2.0));
        // A healthy group flags nobody.
        group.set_fault_plan(Some(FaultPlan::default()));
        group.run(|comm| comm.barrier());
        assert!(group.detect_stragglers(4.0).is_empty());
    }

    #[test]
    fn straggler_detection_uses_global_ids_after_shrink() {
        let mut group = DeviceGroup::new(4);
        group.set_fault_plan(Some(FaultPlan::slow(3, 0.002)));
        group.remove_rank(1).unwrap();
        group.run(|comm| {
            comm.barrier();
            comm.barrier();
        });
        let flagged = group.detect_stragglers(2.0);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].rank, 3, "the flagged id is the stable global rank");
    }

    #[test]
    fn async_begin_wait_matches_blocking_collectives() {
        // Every collective issued asynchronously, with unrelated compute
        // between begin and wait, must deliver exactly what the blocking
        // call delivers — and account the same ops and volume.
        let run = |asynchronous: bool| {
            let group = DeviceGroup::new(4);
            let results = group.run(|comm| {
                let r = comm.rank() as f32;
                let chunks: Vec<Vec<f32>> = (0..4).map(|j| vec![r * 10.0 + j as f32]).collect();
                let bcast = if comm.rank() == 1 { Some(vec![5.0, 6.0]) } else { None };
                if asynchronous {
                    let a2a = comm.all_to_all_begin(chunks);
                    let red = comm.all_reduce_begin(vec![r, 1.0]);
                    let bc = comm.broadcast_begin(1, bcast);
                    // Unrelated compute between begin and wait.
                    let busy: f32 = (0..64).map(|i| i as f32).sum();
                    assert_eq!(busy, 2016.0);
                    (a2a.wait(), red.wait(), bc.wait())
                } else {
                    (
                        comm.all_to_all(chunks),
                        comm.all_reduce_sum(vec![r, 1.0]),
                        comm.broadcast(1, bcast),
                    )
                }
            });
            (results, group.stats().bytes_sent())
        };
        let (sync_results, sync_bytes) = run(false);
        let (async_results, async_bytes) = run(true);
        assert_eq!(sync_results, async_results);
        assert_eq!(sync_bytes, async_bytes);
    }

    #[test]
    fn async_faulty_run_matches_clean_sync_run() {
        // Delays and drops on the background issue path must not change
        // delivered data either.
        let mut group = DeviceGroup::new(3);
        group.set_fault_plan(Some(FaultPlan {
            seed: 13,
            delay_prob: 0.4,
            delay_s: 0.0004,
            drop_prob: 0.4,
            max_retries: 2,
            retry_backoff_s: 0.0004,
            ..FaultPlan::default()
        }));
        let faulty = group.run(|comm| {
            let pending = comm.all_reduce_begin(vec![comm.rank() as f32, 3.0]);
            pending.wait()
        });
        let clean = DeviceGroup::new(3).run(|comm| comm.all_reduce_sum(vec![comm.rank() as f32, 3.0]));
        assert_eq!(faulty, clean);
        assert!(group.stats().retries() > 0, "drop plan should have caused retries");
    }

    /// One collective of `kind` on rank-dependent payloads salted with the
    /// kind (a message delivered to the wrong collective cannot match),
    /// through its `*_begin` handle waited at once or through its blocking
    /// method; flattened so every kind compares as one vector.
    fn run_kind(comm: &Communicator, kind: CollectiveKind, begun: bool) -> Vec<f32> {
        let r = comm.rank() as f32;
        let salt = CollectiveKind::ALL.iter().position(|&k| k == kind).unwrap() as f32;
        let chunks = || (0..comm.world_size()).map(|j| vec![r * 10.0 + j as f32, salt]).collect();
        let root = comm.world_size() - 1;
        let bcast = (comm.rank() == root).then_some(vec![r, salt]);
        match (kind, begun) {
            (CollectiveKind::AllToAll, true) => comm.all_to_all_begin(chunks()).wait().concat(),
            (CollectiveKind::AllToAll, false) => comm.all_to_all(chunks()).concat(),
            (CollectiveKind::AllGather, true) => comm.all_gather_begin(vec![r, salt]).wait().concat(),
            (CollectiveKind::AllGather, false) => comm.all_gather(vec![r, salt]).concat(),
            (CollectiveKind::AllReduce, true) => comm.all_reduce_begin(vec![r, salt]).wait(),
            (CollectiveKind::AllReduce, false) => comm.all_reduce_sum(vec![r, salt]),
            (CollectiveKind::ReduceScatter, true) => comm.reduce_scatter_begin(chunks()).wait(),
            (CollectiveKind::ReduceScatter, false) => comm.reduce_scatter_sum(chunks()),
            (CollectiveKind::Broadcast, true) => comm.broadcast_begin(root, bcast).wait(),
            (CollectiveKind::Broadcast, false) => comm.broadcast(root, bcast),
            (CollectiveKind::Barrier, _) => {
                comm.barrier();
                Vec::new()
            }
        }
    }

    #[test]
    fn blocking_collective_behind_a_lagging_worker_keeps_fifo_order() {
        // A begun collective is waited — its receives are done — while this
        // rank's worker still holds its sends behind injected latency, and a
        // blocking collective is issued next: the schedule a second, inline
        // issue path could reorder. With one queue per rank the blocking
        // sends line up behind the begun ones, so every (begun, blocking)
        // pair returns the bits of the sequential fault-free schedule.
        let schedule = |comm: &Communicator, overlapped: bool| {
            let mut out = Vec::new();
            for a in CollectiveKind::ALL {
                for b in CollectiveKind::ALL {
                    out.push(run_kind(comm, a, overlapped));
                    out.push(run_kind(comm, b, false));
                }
            }
            out
        };
        let mut group = DeviceGroup::new(3);
        group.set_fault_plan(Some(FaultPlan {
            seed: 17,
            delay_prob: 0.5,
            delay_s: 0.0003,
            drop_prob: 0.3,
            max_retries: 2,
            retry_backoff_s: 0.0003,
            ..FaultPlan::default()
        }));
        let lagged = group.run(|comm| schedule(&comm, true));
        let sequential = DeviceGroup::new(3).run(|comm| schedule(&comm, false));
        assert_eq!(lagged, sequential);
        assert!(group.stats().retries() > 0, "drop plan should have caused retries");
    }

    #[test]
    fn dropping_pending_collective_without_wait_panics_loudly() {
        let group = DeviceGroup::new(1);
        let results = group.try_run(|comm| {
            let pending = comm.all_reduce_begin(vec![1.0]);
            drop(pending);
        });
        assert!(
            matches!(&results[0], Err(RankFailure::Panic(m)) if m.contains("dropped without wait()")),
            "un-awaited handle must panic loudly, got {:?}",
            results[0]
        );
    }

    #[test]
    fn crash_plan_keys_on_global_rank_after_shrink() {
        let mut group = DeviceGroup::new(4);
        // Global rank 2 dies at its second collective — also after rank 1
        // is gone and rank 2's dense id has shifted to 1.
        group.set_fault_plan(Some(FaultPlan::crash_at(9, 2, 1)));
        group.remove_rank(1).unwrap();
        let results = group.try_run(|comm| {
            comm.barrier();
            comm.all_reduce_sum(vec![1.0])
        });
        assert!(
            matches!(&results[1], Err(RankFailure::Crash(c)) if c.rank == 2),
            "dense slot 1 (global rank 2) should crash, got {:?}",
            results[1]
        );
    }
}
