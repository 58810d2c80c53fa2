//! The request loop: bounded queue in, micro-batched packed attention out.
//!
//! [`ServeLoop::run`] drains a bounded MPSC queue of node queries. The
//! first query of a window opens a **latency budget**; further queries
//! accumulate (via `recv_timeout` against the remaining budget) until the
//! batch is full or the deadline passes, then the whole window executes as
//! one block-diagonal packed forward. Under load the batch fills instantly
//! and attention cost amortizes across the batch; when idle a lone query
//! pays at most the budget in queueing delay.
//!
//! **Admission control.** Every dequeued query passes an admission check
//! before it can join a window: a node id outside the served graph is
//! rejected as [`ShedReason::UnknownNode`] (it would otherwise fail the
//! whole window), a query whose deadline already passed is
//! shed as [`ShedReason::Expired`], and when the backlog behind it exceeds
//! the shed watermark it is shed as [`ShedReason::QueueFull`] — a typed
//! [`Overloaded`] reply goes back immediately (orders of magnitude cheaper
//! than a forward pass), which is what keeps goodput flat past saturation
//! instead of collapsing under queueing delay.
//!
//! **Graceful drain.** [`ServeLoop::shutdown_handle`] hands out a flag any
//! thread can trip; the loop then answers everything already enqueued
//! (counted as `drained`), sheds later arrivals as
//! [`ShedReason::Draining`], and returns.
//!
//! Every answered reply carries its end-to-end latency; the loop aggregates
//! a [`torchgt_obs::LatencyHistogram`] over **accepted** queries only (shed
//! replies are tracked separately), and publishes p50/p99, queue depth,
//! shed counters, and throughput through the attached recorder. With a
//! recorder attached each window that runs the executor also records a
//! `serve/pack` span (extraction and packing) and a `serve/forward` span
//! (the executor), and the run ends with their medians as the `pack_ms_p50`
//! and `forward_ms_p50` gauges; without one the loop reads no clock for
//! them.
//!
//! **Answer table.** A loop's graph, features, frozen weights and context
//! cap never change, and a packed member's answer is the member's alone,
//! so a node's answer is a function of the node. The loop keeps one answer
//! slot per node of the served graph: a window replies to the members the
//! table holds, packs and executes only the others and stores their
//! answers, and a window whose members are all answered runs neither the
//! packer nor the executor. The run counts each answered query as an
//! `answer_hits` or an `answer_misses` (they sum to `served`) and the
//! windows that ran the executor as `forwards` (the `serve_answer_hits`,
//! `serve_answer_misses` and `serve_forwards` counters).

use crate::batch::{PackedQueryBatch, Packer};
use crate::exec::FrozenExecutor;
use crate::frozen::FrozenModel;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use torchgt_compat::sync::channel::{Receiver, RecvTimeoutError, Sender};
use torchgt_graph::CsrGraph;
use torchgt_model::{Pattern, SequenceBatch};
use torchgt_obs::{Event, LatencyHistogram, RecorderHandle};

/// One node query. `reply` receives the [`ServeReply`]; dropping the
/// receiver just discards the answer (the loop ignores send failures).
pub struct Query {
    /// Global node id to classify.
    pub node: u32,
    /// Arrival timestamp — latency is measured enqueue-to-reply.
    pub enqueued: Instant,
    /// Where the answer (or the typed overload rejection) goes.
    pub reply: Sender<ServeReply>,
}

impl Query {
    /// A query stamped with the current time.
    pub fn new(node: u32, reply: Sender<ServeReply>) -> Self {
        Self { node, enqueued: Instant::now(), reply }
    }
}

/// A served answer.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// The queried node.
    pub node: u32,
    /// Predicted class.
    pub label: u32,
    /// End-to-end latency (enqueue to reply send).
    pub latency: Duration,
}

/// Why the admission controller refused a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Queue depth behind the query exceeded the shed watermark.
    QueueFull,
    /// The query's deadline had already passed at dequeue.
    Expired,
    /// The query arrived after graceful shutdown began.
    Draining,
    /// The queried node id is not a node of the served graph.
    UnknownNode,
}

impl ShedReason {
    /// Stable label used in `LOAD_SHED` events and logs.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Expired => "expired",
            ShedReason::Draining => "draining",
            ShedReason::UnknownNode => "unknown_node",
        }
    }
}

/// Typed admission rejection (overload, or a node the graph does not
/// have): the query was not executed.
#[derive(Clone, Copy, Debug)]
pub struct Overloaded {
    /// The rejected node query.
    pub node: u32,
    /// Why admission refused it.
    pub reason: ShedReason,
    /// Queue depth observed at the shed decision.
    pub depth: usize,
}

/// What a client gets back for one query.
#[derive(Clone, Copy, Debug)]
pub enum ServeReply {
    /// The query executed; here is its prediction.
    Answered(Prediction),
    /// The query was shed by admission control.
    Overloaded(Overloaded),
}

impl ServeReply {
    /// The prediction, when the query was answered.
    pub fn prediction(self) -> Option<Prediction> {
        match self {
            ServeReply::Answered(p) => Some(p),
            ServeReply::Overloaded(_) => None,
        }
    }

    /// Whether this reply is a shed rejection.
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeReply::Overloaded(_))
    }
}

/// Micro-batching and admission-control knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Flush when this many queries have accumulated.
    pub max_batch: usize,
    /// Flush when the window's first query has waited this long.
    pub latency_budget: Duration,
    /// Ego-subgraph context cap per query (tokens per segment).
    pub ctx_nodes: usize,
    /// Shed a dequeued query when more than this many queries are still
    /// waiting behind it (`None` disables depth-based shedding).
    pub shed_watermark: Option<usize>,
    /// Shed a dequeued query older than this (`None` disables
    /// deadline-based shedding).
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            latency_budget: Duration::from_millis(50),
            ctx_nodes: 32,
            shed_watermark: None,
            deadline: None,
        }
    }
}

torchgt_compat::json_struct! {
    /// End-of-run summary (also exported as gauges on the recorder).
    /// Latency quantiles cover **accepted** queries only; shed replies are
    /// counted (`shed` = `shed_queue_full + shed_expired + shed_draining +
    /// shed_unknown_node`) and their dequeue-to-reply handling time tracked
    /// separately. `answer_hits + answer_misses` = `served`: each answered
    /// query was replied from the loop's answer table or packed and
    /// executed; `forwards` counts the windows that ran the executor.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ServeStats {
        pub served: u64,
        pub batches: u64,
        pub p50_latency_ms: f64,
        pub p99_latency_ms: f64,
        pub mean_latency_ms: f64,
        pub max_latency_ms: f64,
        pub throughput_qps: f64,
        pub max_queue_depth: u64,
        pub avg_batch_size: f64,
        pub shed: u64,
        pub shed_queue_full: u64,
        pub shed_expired: u64,
        pub shed_draining: u64,
        pub shed_unknown_node: u64,
        pub drained: u64,
        pub shed_handling_ms_mean: f64,
        pub shed_handling_ms_max: f64,
        pub answer_hits: u64,
        pub answer_misses: u64,
        pub forwards: u64,
    }
}

/// A clonable flag that asks a running [`ServeLoop`] to drain and exit:
/// everything already enqueued is answered, later arrivals are shed as
/// [`ShedReason::Draining`].
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begin graceful shutdown.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// How often the idle loop wakes to check the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);

/// The serving engine: a frozen executor plus the graph it answers
/// queries against.
pub struct ServeLoop {
    exec: FrozenExecutor,
    graph: CsrGraph,
    features: Vec<f32>,
    feat_dim: usize,
    cfg: ServeConfig,
    recorder: RecorderHandle,
    shutdown: Arc<AtomicBool>,
    /// Extraction and packing buffers, sized to `graph` once.
    packer: Packer,
    /// Per node of `graph`: its answer, or [`UNANSWERED`].
    answers: Vec<u32>,
    /// The window's members the table has no answer for.
    cold: Vec<u32>,
    /// The packed window's centre tokens, one per cold member.
    centres: Vec<usize>,
    /// How the current run's windows split.
    split: WindowSplit,
}

/// The answer-table slot of a node the loop has not answered yet; no class
/// index reaches it.
const UNANSWERED: u32 = u32::MAX;

/// How a run's windows split: queries answered from the table or executed,
/// the windows that ran the executor, and (while the recorder is enabled)
/// their pack and forward times.
#[derive(Default)]
struct WindowSplit {
    hits: u64,
    misses: u64,
    forwards: u64,
    pack: LatencyHistogram,
    forward: LatencyHistogram,
}

/// Per-run shed bookkeeping.
#[derive(Default)]
struct ShedLedger {
    queue_full: u64,
    expired: u64,
    draining: u64,
    unknown_node: u64,
    handling: LatencyHistogram,
}

impl ShedLedger {
    fn total(&self) -> u64 {
        self.queue_full + self.expired + self.draining + self.unknown_node
    }
}

impl ServeLoop {
    /// Build from a frozen artifact and the dataset it serves. `features`
    /// is the full `[num_nodes, feat_dim]` row-major buffer. A `max_batch`
    /// of 0 is refused: no window could hold a query.
    pub fn new(
        frozen: &FrozenModel,
        graph: CsrGraph,
        features: Vec<f32>,
        cfg: ServeConfig,
        recorder: RecorderHandle,
    ) -> io::Result<Self> {
        if cfg.max_batch == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "max_batch must be at least 1"));
        }
        let feat_dim = frozen.spec.feat_dim;
        if features.len() != graph.num_nodes() * feat_dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "features buffer is {} floats, graph x feat_dim needs {}",
                    features.len(),
                    graph.num_nodes() * feat_dim
                ),
            ));
        }
        Ok(Self {
            exec: FrozenExecutor::new(frozen)?,
            packer: Packer::new(graph.num_nodes(), cfg.ctx_nodes),
            answers: vec![UNANSWERED; graph.num_nodes()],
            cold: Vec::with_capacity(cfg.max_batch),
            graph,
            features,
            feat_dim,
            centres: Vec::with_capacity(cfg.max_batch),
            cfg,
            recorder,
            shutdown: Arc::new(AtomicBool::new(false)),
            split: WindowSplit::default(),
        })
    }

    /// A handle other threads use to request graceful drain.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown) }
    }

    /// Admission check for a dequeued query: `None` admits, `Some(reason)`
    /// sheds. `depth` is the backlog still waiting behind the query.
    fn admission(
        &self,
        q: &Query,
        depth: usize,
        drain_started: Option<Instant>,
    ) -> Option<ShedReason> {
        if q.node as usize >= self.graph.num_nodes() {
            return Some(ShedReason::UnknownNode);
        }
        if let Some(t0) = drain_started {
            if q.enqueued > t0 {
                return Some(ShedReason::Draining);
            }
        }
        if let Some(deadline) = self.cfg.deadline {
            if q.enqueued.elapsed() > deadline {
                return Some(ShedReason::Expired);
            }
        }
        if let Some(watermark) = self.cfg.shed_watermark {
            if depth > watermark {
                return Some(ShedReason::QueueFull);
            }
        }
        None
    }

    /// Reply [`Overloaded`] to a shed query and account for it. The
    /// handling time (dequeue decision to reply sent) is what the overload
    /// bench asserts stays under a millisecond.
    fn shed(&self, q: Query, reason: ShedReason, depth: usize, ledger: &mut ShedLedger) {
        let t0 = Instant::now();
        let _ = q.reply.send(ServeReply::Overloaded(Overloaded {
            node: q.node,
            reason,
            depth,
        }));
        ledger.handling.record(t0.elapsed().as_secs_f64());
        match reason {
            ShedReason::QueueFull => ledger.queue_full += 1,
            ShedReason::Expired => ledger.expired += 1,
            ShedReason::Draining => ledger.draining += 1,
            ShedReason::UnknownNode => ledger.unknown_node += 1,
        }
        if self.recorder.enabled() {
            self.recorder.event(Event::load_shed(q.node as u64, reason.label(), depth));
            self.recorder.counter_add("queries_shed", 1);
        }
    }

    /// Drain queries until every sender is gone (or shutdown is requested
    /// and the backlog is answered), then return the run's stats. Meant to
    /// run on its own thread while clients hold `Sender` clones of `rx`'s
    /// channel.
    pub fn run(&mut self, rx: Receiver<Query>) -> ServeStats {
        let mut hist = LatencyHistogram::new();
        let mut ledger = ShedLedger::default();
        let mut served = 0u64;
        let mut drained = 0u64;
        let mut batches = 0u64;
        let mut max_depth = 0u64;
        let mut first_arrival: Option<Instant> = None;
        let mut last_reply: Option<Instant> = None;
        let serve_faults = torchgt_faults::serve_plan();
        self.split = WindowSplit::default();

        'serve: loop {
            let drain_started = self.shutdown.load(Ordering::SeqCst).then(Instant::now);
            if let Some(t0) = drain_started {
                // Graceful drain: answer the backlog, shed late arrivals.
                let mut window: Vec<Query> = Vec::new();
                while let Some(q) = rx.try_recv() {
                    let depth = rx.len();
                    match self.admission(&q, depth, Some(t0)) {
                        Some(reason) => self.shed(q, reason, depth, &mut ledger),
                        None => {
                            first_arrival.get_or_insert(q.enqueued);
                            window.push(q);
                        }
                    }
                    if window.len() == self.cfg.max_batch {
                        self.execute(&window, &mut hist, &mut batches, &serve_faults);
                        served += window.len() as u64;
                        drained += window.len() as u64;
                        last_reply = Some(Instant::now());
                        window.clear();
                    }
                }
                if !window.is_empty() {
                    self.execute(&window, &mut hist, &mut batches, &serve_faults);
                    served += window.len() as u64;
                    drained += window.len() as u64;
                    last_reply = Some(Instant::now());
                }
                break 'serve;
            }

            // Block for the window's first query, waking periodically so a
            // shutdown request is noticed even on an idle queue.
            let first = match rx.recv_timeout(SHUTDOWN_POLL) {
                Ok(q) => q,
                Err(RecvTimeoutError::Timeout) => continue 'serve,
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            };
            first_arrival.get_or_insert(first.enqueued);
            let depth = rx.len();
            max_depth = max_depth.max(depth as u64);
            let first = match self.admission(&first, depth, None) {
                Some(reason) => {
                    self.shed(first, reason, depth, &mut ledger);
                    continue 'serve;
                }
                None => first,
            };
            let deadline = Instant::now() + self.cfg.latency_budget;
            let mut window = vec![first];
            let mut disconnected = false;
            while window.len() < self.cfg.max_batch {
                let now = Instant::now();
                let Some(remaining) =
                    deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                match rx.recv_timeout(remaining) {
                    Ok(q) => {
                        let depth = rx.len();
                        max_depth = max_depth.max(depth as u64);
                        match self.admission(&q, depth, None) {
                            Some(reason) => self.shed(q, reason, depth, &mut ledger),
                            None => window.push(q),
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                }
            }
            max_depth = max_depth.max(rx.len() as u64);

            self.execute(&window, &mut hist, &mut batches, &serve_faults);
            served += window.len() as u64;
            last_reply = Some(Instant::now());
            if disconnected && rx.is_empty() {
                break 'serve;
            }
        }

        let wall = match (first_arrival, last_reply) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let stats = ServeStats {
            served,
            batches,
            p50_latency_ms: hist.quantile(0.50) * 1e3,
            p99_latency_ms: hist.quantile(0.99) * 1e3,
            mean_latency_ms: hist.mean() * 1e3,
            max_latency_ms: hist.max() * 1e3,
            throughput_qps: if wall > 0.0 { served as f64 / wall } else { served as f64 },
            max_queue_depth: max_depth,
            avg_batch_size: if batches > 0 { served as f64 / batches as f64 } else { 0.0 },
            shed: ledger.total(),
            shed_queue_full: ledger.queue_full,
            shed_expired: ledger.expired,
            shed_draining: ledger.draining,
            shed_unknown_node: ledger.unknown_node,
            drained,
            shed_handling_ms_mean: ledger.handling.mean() * 1e3,
            shed_handling_ms_max: ledger.handling.max() * 1e3,
            answer_hits: self.split.hits,
            answer_misses: self.split.misses,
            forwards: self.split.forwards,
        };
        if self.recorder.enabled() {
            self.recorder.gauge_set("p50_latency_ms", stats.p50_latency_ms);
            self.recorder.gauge_set("p99_latency_ms", stats.p99_latency_ms);
            self.recorder.gauge_set("queue_depth", stats.max_queue_depth as f64);
            self.recorder.gauge_set("throughput_qps", stats.throughput_qps);
            self.recorder.gauge_set("avg_batch_size", stats.avg_batch_size);
            let total = stats.served + stats.shed;
            let shed_rate = if total > 0 { stats.shed as f64 / total as f64 } else { 0.0 };
            self.recorder.gauge_set("shed_rate", shed_rate);
            self.recorder.gauge_set("pack_ms_p50", self.split.pack.quantile(0.50) * 1e3);
            self.recorder.gauge_set("forward_ms_p50", self.split.forward.quantile(0.50) * 1e3);
            self.recorder.counter_add("queries_served", served);
            self.recorder.counter_add("serve_batches", batches);
            self.recorder.counter_add("queries_drained", drained);
            self.recorder.counter_add("serve_answer_hits", stats.answer_hits);
            self.recorder.counter_add("serve_answer_misses", stats.answer_misses);
            self.recorder.counter_add("serve_forwards", stats.forwards);
        }
        stats
    }

    /// Execute one window: injected executor stall (when the fault plane's
    /// serve domain is armed), then the flush.
    fn execute(
        &mut self,
        window: &[Query],
        hist: &mut LatencyHistogram,
        batches: &mut u64,
        serve_faults: &Option<(u64, torchgt_faults::ServeFaultPlan)>,
    ) {
        if window.is_empty() {
            return;
        }
        if let Some((seed, plan)) = serve_faults {
            if plan.executor_stalls(*seed, *batches) && plan.slow_s > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(plan.slow_s));
            }
        }
        self.flush(window, hist);
        *batches += 1;
    }

    /// The batch the loop's packer writes for a window of cold queries for
    /// `nodes`: every node is packed, whatever the answer table holds, and
    /// nothing is answered or counted. Panics on a node outside the served
    /// graph, which [`Self::run`]'s admission sheds before it reaches the
    /// packer.
    pub fn pack(&mut self, nodes: impl IntoIterator<Item = u32>) -> PackedQueryBatch {
        for node in nodes {
            self.packer.push_query(&self.graph, node, &self.features, self.feat_dim);
        }
        self.packer.finish(self.feat_dim)
    }

    /// Answer the window's cold members — pack them, run the executor over
    /// their centre tokens and store what it answers — then reply to every
    /// member from the table.
    fn flush(&mut self, window: &[Query], hist: &mut LatencyHistogram) {
        let answers = &self.answers;
        self.cold.clear();
        self.cold.extend(window.iter().map(|q| q.node).filter(|&v| answers[v as usize] == UNANSWERED));
        self.split.misses += self.cold.len() as u64;
        self.split.hits += (window.len() - self.cold.len()) as u64;
        if !self.cold.is_empty() {
            self.answer_cold();
        }
        for q in window {
            let latency = q.enqueued.elapsed();
            hist.record(latency.as_secs_f64());
            // A gone client is not an error — just drop the answer.
            let _ = q.reply.send(ServeReply::Answered(Prediction {
                node: q.node,
                label: self.answers[q.node as usize],
                latency,
            }));
        }
    }

    /// Pack the cold members, run the executor and store their answers.
    fn answer_cold(&mut self) {
        let t0 = self.recorder.enabled().then(Instant::now);
        let cold = std::mem::take(&mut self.cold);
        let packed = self.pack(cold.iter().copied());
        // Each query is answered from its centre token, the first row of
        // its segment: only those rows go through the head.
        self.centres.clear();
        self.centres.extend(packed.segments.iter().map(|&(start, _)| start));
        let t1 = t0.map(|t0| {
            let t1 = Instant::now();
            let took = (t1 - t0).as_secs_f64();
            self.recorder.record_span("serve/pack", took);
            self.split.pack.record(took);
            t1
        });
        let batch = SequenceBatch {
            features: &packed.features,
            graph: &packed.graph,
            spd: None,
        };
        let preds = self.exec.forward_argmax_rows(&batch, Pattern::Sparse(&packed.mask), &self.centres);
        if let Some(t1) = t1 {
            let took = t1.elapsed().as_secs_f64();
            self.recorder.record_span("serve/forward", took);
            self.split.forward.record(took);
        }
        self.packer.recycle(packed);
        self.split.forwards += 1;
        for (&node, &label) in cold.iter().zip(&preds) {
            self.answers[node as usize] = label;
        }
        self.cold = cold;
    }
}
