//! Chaos harness: seeded multi-domain fault plans driven through the full
//! pipeline — datagen → streaming training with checkpoints → freeze →
//! serve — asserting that every run completes, that healed runs reproduce
//! the fault-free loss history bit-for-bit, and that every recovery action
//! the fault plane forced is visible in the exported metrics
//! (`IO_RETRY`, `SNAPSHOT_FALLBACK`, `LOAD_SHED`).
//!
//! The installed fault plan is process-global, so every test that arms one
//! holds [`fault_gate`] for its whole body and clears the plan on exit
//! (panic included) via [`ArmedPlan`].

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use torchgt::prelude::*;
use torchgt::serve::{Query, ServeReply, ShedReason};
use torchgt::TorchGtBuilder;
use torchgt_compat::sync::channel::{bounded, unbounded};
use torchgt_obs::Event;

const KIND: DatasetKind = DatasetKind::OgbnArxiv;
const SCALE: f64 = 0.004;
const EPOCHS: usize = 3;

/// Serializes every test that installs a process-global fault plan.
fn fault_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// Clears the installed plan when dropped, so a panicking assertion cannot
/// leak injection into the next test.
struct ArmedPlan;

impl ArmedPlan {
    fn install(spec: &str) -> Self {
        torchgt::faults::install(spec.parse::<FaultSpec>().expect("valid fault spec"));
        ArmedPlan
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        torchgt::faults::clear();
    }
}

/// Stable scratch paths, deliberately *without* the usual pid suffix:
/// disk-fault decisions are keyed by the hash of the path being read, so a
/// per-run path would re-roll every injection and make the healing
/// assertions flaky. A fixed path pins the decision stream.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tgt-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder(seed: u64) -> TorchGtBuilder {
    TorchGtBuilder::new(Method::GpSparse)
        .seq_len(128)
        .epochs(EPOCHS)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(seed)
}

/// A full checkpointed streaming run over the sharded dataset at `dir`;
/// returns the per-epoch losses.
fn checkpointed_run(
    dir: &PathBuf,
    store: &CheckpointStore,
    seed: u64,
    opts: &CheckpointOptions,
    recorder: Option<&Arc<MemoryRecorder>>,
) -> ResumeOutcome {
    let loader = ShardLoader::open(dir).expect("loader opens");
    let mut trainer = builder(seed).build_streaming(loader).expect("valid configuration");
    let handle: RecorderHandle = match recorder {
        Some(mem) => {
            // Both halves see the same recorder: the trainer feeds the
            // loader's IO_RETRY stream, the checkpoint driver feeds the
            // store's SNAPSHOT_FALLBACK stream.
            trainer.attach_recorder(mem.clone());
            mem.clone()
        }
        None => torchgt::obs::noop(),
    };
    run_with_checkpoints(&mut trainer, store, opts, &handle).expect("run completes")
}

fn losses(outcome: &ResumeOutcome) -> Vec<u32> {
    outcome.stats.iter().map(|s| s.loss.to_bits()).collect()
}

/// The tentpole claim, end to end and across three seeds: a pipeline run
/// under an armed disk-fault plan completes, heals every injected fault
/// (losses bit-identical to the fault-free run), surfaces the retries in
/// its metrics, and — after the newest snapshot is corrupted on disk —
/// resumes from the previous epoch with a recorded `SNAPSHOT_FALLBACK`
/// and a bit-exactly stitched loss history.
#[test]
fn faulted_pipeline_heals_bit_exactly_across_seeds() {
    let _gate = fault_gate().lock().unwrap_or_else(|p| p.into_inner());
    for seed in [5u64, 6, 7] {
        let data_dir = scratch_dir(&format!("pipe-data-{seed}"));
        generate_to_dir(KIND, SCALE, seed, &data_dir, 250).expect("datagen");

        // Fault-free baseline.
        let clean_ckpt = scratch_dir(&format!("pipe-clean-{seed}"));
        let clean_store = CheckpointStore::new(&clean_ckpt, 3).unwrap();
        let baseline =
            checkpointed_run(&data_dir, &clean_store, seed, &CheckpointOptions::default(), None);
        assert_eq!(baseline.stats.len(), EPOCHS);

        // The same run under an armed disk-fault plan: transient read
        // errors, torn reads, bit flips, and injected latency. Injection
        // corrupts only in-memory bytes, so the healing ladder (retry with
        // seeded backoff, one CRC re-read) always recovers.
        let plan = ArmedPlan::install(&format!(
            "seed={seed},disk.read_err=0.3,disk.torn=0.03,disk.flip=0.03,disk.delay=0.1@0.2ms"
        ));
        let faulted_ckpt = scratch_dir(&format!("pipe-faulted-{seed}"));
        let faulted_store = CheckpointStore::new(&faulted_ckpt, 3).unwrap();
        let mem = Arc::new(MemoryRecorder::default());
        let faulted = checkpointed_run(
            &data_dir,
            &faulted_store,
            seed,
            &CheckpointOptions::default(),
            Some(&mem),
        );
        assert_eq!(
            losses(&baseline),
            losses(&faulted),
            "seed {seed}: healed run diverged from the fault-free history"
        );
        let report = mem.report();
        let retries = report
            .counters
            .iter()
            .find(|c| c.name == "io_retries")
            .map_or(0, |c| c.value);
        assert!(retries >= 1, "seed {seed}: no injected fault forced a retry");
        assert!(
            !report.events_of(Event::IO_RETRY).is_empty(),
            "seed {seed}: retries must surface as IO_RETRY events"
        );

        // Corrupt the newest snapshot on disk: the resume ladder must fall
        // back to the previous epoch, quarantine the bad file, record the
        // fallback, and stitch the final epoch bit-exactly.
        let epochs = faulted_store.epochs().expect("store has snapshots");
        let newest = *epochs.last().expect("snapshots written");
        assert_eq!(newest, EPOCHS);
        let newest_path = faulted_store.path_for(newest);
        let mut bytes = std::fs::read(&newest_path).expect("read snapshot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest_path, &bytes).expect("corrupt snapshot");

        let mem2 = Arc::new(MemoryRecorder::default());
        let resumed = checkpointed_run(
            &data_dir,
            &faulted_store,
            seed,
            &CheckpointOptions { resume: true, ..CheckpointOptions::default() },
            Some(&mem2),
        );
        assert_eq!(resumed.resumed_from, Some(EPOCHS - 1), "seed {seed}");
        assert_eq!(resumed.stats.len(), 1);
        assert_eq!(
            resumed.stats[0].loss.to_bits(),
            baseline.stats[EPOCHS - 1].loss.to_bits(),
            "seed {seed}: stitched epoch diverged"
        );
        let report2 = mem2.report();
        let fallbacks = report2.events_of(Event::SNAPSHOT_FALLBACK);
        assert_eq!(fallbacks.len(), 1, "seed {seed}: fallback not recorded");
        assert_eq!(fallbacks[0].num("from_epoch"), Some(EPOCHS as f64));
        assert_eq!(fallbacks[0].num("to_epoch"), Some((EPOCHS - 1) as f64));
        // The bad file was renamed aside for post-mortems; the resumed run
        // then legitimately re-published a fresh epoch-3 snapshot.
        let quarantined = {
            let mut p = newest_path.clone().into_os_string();
            p.push(".quarantined");
            PathBuf::from(p)
        };
        assert!(quarantined.exists(), "corrupt snapshot must be renamed aside");

        drop(plan);
        for d in [data_dir, clean_ckpt, faulted_ckpt] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }
}

/// Train briefly and freeze through the gate (no faults involved).
fn frozen_fixture(seed: u64) -> (NodeDataset, FrozenModel) {
    let dataset = KIND.generate_node(0.002, seed);
    let mut trainer = TorchGtBuilder::new(Method::TorchGt)
        .seq_len(128)
        .epochs(2)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(seed)
        .build_node(&dataset)
        .expect("valid configuration");
    for _ in 0..2 {
        trainer.train_epoch();
    }
    let calib = CalibSet::from_dataset(&dataset, 128, seed);
    let frozen = trainer.freeze(&calib).expect("freeze passes the accuracy gate");
    (dataset, frozen)
}

/// `TGTF` loads get the same healing ladder as shard reads: an injected
/// transient error or corruption on the artifact read heals (the file on
/// disk is intact) and the loaded model is bit-identical, across seeds.
#[test]
fn frozen_artifact_load_heals_injected_corruption() {
    let _gate = fault_gate().lock().unwrap_or_else(|p| p.into_inner());
    for seed in [5u64, 6, 7] {
        let (_, frozen) = frozen_fixture(seed);
        let dir = scratch_dir(&format!("tgtf-{seed}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.tgtf");
        frozen.save(&path).expect("save");

        let _plan = ArmedPlan::install(&format!(
            "seed={seed},disk.read_err=0.25,disk.torn=0.1,disk.flip=0.1"
        ));
        // Several loads so the per-path op counter walks through both
        // transient and corruption decisions.
        for round in 0..4 {
            let loaded = FrozenModel::load(&path)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: load failed to heal: {e}"));
            assert_eq!(loaded, frozen, "seed {seed} round {round}: healed load diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic admission control: a pre-filled queue deeper than the shed
/// watermark sheds exactly the excess as typed `QueueFull` rejections, the
/// sheds are recorded as `LOAD_SHED` events, and every accepted query is
/// still answered — with an armed serve-domain plan stalling the executor.
#[test]
fn serve_sheds_excess_load_with_typed_replies() {
    let _gate = fault_gate().lock().unwrap_or_else(|p| p.into_inner());
    let (dataset, frozen) = frozen_fixture(3);
    let _plan = ArmedPlan::install("seed=3,serve.slow=0.5@1ms,serve.burst=0.2@4");
    let cfg = ServeConfig {
        max_batch: 1,
        latency_budget: Duration::from_millis(1),
        ctx_nodes: 16,
        shed_watermark: Some(2),
        ..Default::default()
    };
    let mem = Arc::new(MemoryRecorder::default());
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        mem.clone() as RecorderHandle,
    )
    .expect("serve loop builds");

    const QUERIES: usize = 10;
    let (tx, rx) = bounded::<Query>(QUERIES);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    for node in 0..QUERIES as u32 {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    drop(tx);
    drop(reply_tx);
    let stats = serve_loop.run(rx);

    // Depth at dequeue counts the backlog *behind* the query: 10 queued →
    // depths 9..0, shed while depth > 2 → exactly 7 shed, 3 answered.
    assert_eq!(stats.shed, 7, "watermark 2 over 10 queries sheds the excess");
    assert_eq!(stats.shed_queue_full, 7);
    assert_eq!(stats.served, 3);
    let mut answered = 0;
    let mut shed = 0;
    while let Ok(reply) = reply_rx.recv() {
        match reply {
            ServeReply::Answered(p) => {
                assert!((p.node as usize) < dataset.graph.num_nodes());
                answered += 1;
            }
            ServeReply::Overloaded(o) => {
                assert_eq!(o.reason, ShedReason::QueueFull);
                assert!(o.depth > 2, "shed decision must report the observed depth");
                shed += 1;
            }
        }
    }
    assert_eq!((answered, shed), (3, 7), "every query gets a typed reply");
    let report = mem.report();
    assert_eq!(report.events_of(Event::LOAD_SHED).len(), 7);
    let shed_rate = report
        .gauges
        .iter()
        .find(|g| g.name == "shed_rate")
        .expect("shed_rate gauge")
        .value;
    assert!((shed_rate - 0.7).abs() < 1e-9, "shed_rate {shed_rate}");
}

/// Deadline shedding: queries older than the configured deadline at dequeue
/// are rejected as `Expired`, fresh queries behind them are still answered.
#[test]
fn serve_sheds_expired_queries_and_answers_fresh_ones() {
    let (dataset, frozen) = frozen_fixture(3);
    let cfg = ServeConfig {
        max_batch: 4,
        latency_budget: Duration::from_millis(1),
        ctx_nodes: 16,
        deadline: Some(Duration::from_millis(100)),
        ..Default::default()
    };
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        torchgt::obs::noop(),
    )
    .expect("serve loop builds");

    let (tx, rx) = bounded::<Query>(8);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    // Stale queries: enqueued, then left to age past the deadline.
    for node in 0..3u32 {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    std::thread::sleep(Duration::from_millis(250));
    for node in 3..6u32 {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    drop(tx);
    drop(reply_tx);
    let stats = serve_loop.run(rx);
    assert_eq!(stats.shed_expired, 3, "aged queries must expire at dequeue");
    assert_eq!(stats.served, 3, "fresh queries must still be answered");
    let mut expired = 0;
    while let Ok(reply) = reply_rx.recv() {
        if let ServeReply::Overloaded(o) = reply {
            assert_eq!(o.reason, ShedReason::Expired);
            expired += 1;
        }
    }
    assert_eq!(expired, 3);
}

/// Graceful drain: once shutdown is requested, everything already enqueued
/// is answered (counted as `drained`), arrivals stamped after the drain
/// began are rejected as `Draining`.
#[test]
fn shutdown_drains_backlog_and_rejects_late_arrivals() {
    let (dataset, frozen) = frozen_fixture(3);
    let cfg = ServeConfig {
        max_batch: 4,
        latency_budget: Duration::from_millis(1),
        ctx_nodes: 16,
        ..Default::default()
    };
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        torchgt::obs::noop(),
    )
    .expect("serve loop builds");
    let handle = serve_loop.shutdown_handle();
    assert!(!handle.is_shutdown());

    let (tx, rx) = bounded::<Query>(8);
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    // In-flight queries, enqueued before the drain begins.
    for node in 0..5u32 {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    // "Late" arrivals: enqueue timestamps forced after any drain start the
    // loop can possibly stamp, making the race-free assertion exact.
    for node in 5..7u32 {
        let q = Query {
            node,
            enqueued: Instant::now() + Duration::from_secs(3600),
            reply: reply_tx.clone(),
        };
        tx.send(q).expect("send");
    }
    drop(tx);
    drop(reply_tx);
    handle.shutdown();
    assert!(handle.is_shutdown());
    let stats = serve_loop.run(rx);

    assert_eq!(stats.drained, 5, "the backlog must be answered on drain");
    assert_eq!(stats.served, 5);
    assert_eq!(stats.shed_draining, 2, "late arrivals must be rejected");
    let mut answered = 0;
    let mut draining = 0;
    while let Ok(reply) = reply_rx.recv() {
        match reply {
            ServeReply::Answered(_) => answered += 1,
            ServeReply::Overloaded(o) => {
                assert_eq!(o.reason, ShedReason::Draining);
                draining += 1;
            }
        }
    }
    assert_eq!((answered, draining), (5, 2));
}

/// A node id the graph does not have is a client error, not a crash: it is
/// rejected at admission as `UnknownNode`, naming the node, and counted on
/// its own, while every valid query around it — in the same windows and in
/// the queue behind them — is answered and `run` returns its stats.
#[test]
fn unknown_node_ids_are_rejected_and_every_valid_query_is_answered() {
    let (dataset, frozen) = frozen_fixture(3);
    let cfg = ServeConfig {
        max_batch: 4,
        latency_budget: Duration::from_millis(1),
        ctx_nodes: 16,
        ..Default::default()
    };
    let mut serve_loop = ServeLoop::new(
        &frozen,
        dataset.graph.clone(),
        dataset.features.clone(),
        cfg,
        torchgt::obs::noop(),
    )
    .expect("serve loop builds");
    let n = dataset.graph.num_nodes() as u32;
    let stream = [0, n, 1, u32::MAX, 2, n + 7, 3, 4, n, 5, 6, u32::MAX - 1];
    let unknown: Vec<u32> = stream.iter().copied().filter(|&v| v >= n).collect();
    let (tx, rx) = bounded::<Query>(stream.len());
    let (reply_tx, reply_rx) = unbounded::<ServeReply>();
    for &node in &stream {
        tx.send(Query::new(node, reply_tx.clone())).expect("send");
    }
    drop(tx);
    drop(reply_tx);
    let stats = serve_loop.run(rx);

    let valid = stream.len() - unknown.len();
    assert_eq!(stats.served as usize, valid, "every valid query is answered");
    assert_eq!(stats.shed_unknown_node as usize, unknown.len());
    assert_eq!((stats.shed_queue_full, stats.shed_expired, stats.shed_draining), (0, 0, 0));
    let (mut answered, mut rejected) = (Vec::new(), Vec::new());
    while let Ok(reply) = reply_rx.recv() {
        match reply {
            ServeReply::Answered(p) => answered.push(p.node),
            ServeReply::Overloaded(o) => {
                assert_eq!(o.reason, ShedReason::UnknownNode, "node {}", o.node);
                rejected.push(o.node);
            }
        }
    }
    answered.sort_unstable();
    rejected.sort_unstable();
    let mut want_rejected = unknown.clone();
    want_rejected.sort_unstable();
    assert_eq!(answered, (0..valid as u32).collect::<Vec<_>>());
    assert_eq!(rejected, want_rejected, "each rejection names its node");
}

/// Determinism of the quarantine path itself: a plan whose corruption
/// probability is 1 defeats the single re-read, so the shard is quarantined
/// with a typed error naming its path — and the stream error carries it.
#[test]
fn certain_corruption_quarantines_the_shard_deterministically() {
    let _gate = fault_gate().lock().unwrap_or_else(|p| p.into_inner());
    let dir = scratch_dir("quarantine");
    generate_to_dir(KIND, SCALE, 9, &dir, 250).expect("datagen");
    // Open before arming: the manifest is read through the fault plane too,
    // and a certain flip would refuse it before any shard is read.
    let loader = ShardLoader::open(&dir).expect("unfaulted manifest read");
    let _plan = ArmedPlan::install("seed=9,disk.flip=1.0");
    let mut stream = loader.stream_epoch(0);
    let err = loop {
        match stream.next() {
            Ok(Some(_)) => panic!("every read is corrupted twice; no shard can heal"),
            Ok(None) => panic!("stream ended without surfacing the quarantine"),
            Err(e) => break e,
        }
    };
    let msg = err.to_string();
    assert!(msg.contains("quarantined"), "typed quarantine error expected: {msg}");
    assert!(msg.contains(".tgds"), "error must name the shard path: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}
