//! The seam of the one distributed supervisor (`train_distributed`): its
//! step is a function of the global batch alone — every layout, fault and
//! recovery trains the bits of the one-process reference (`support`) — the
//! retry budget means what `RecoveryPolicy::max_retries` documents, the
//! give-up error names the rank that crashed, and the retry-time closed-loop
//! rebalance moves sequences off a measured straggler.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use torchgt::comm::RankCrash;
use torchgt::model::{Gt, GtConfig};
use torchgt::obs::{EpochTrace, Event, Recorder, StepTrace};
use torchgt::prelude::*;
use support::{bits, train_reference};
use torchgt::runtime::distributed::exchange_op;
use torchgt::runtime::{prepare_node_dataset, train_data_parallel, RebalancePolicy};
use torchgt_compat::proptest::prelude::*;

fn cfg(seq_len: usize, epochs: usize) -> TrainConfig {
    let mut c = TrainConfig::new(Method::GpSparse, seq_len, epochs);
    c.lr = 2e-3;
    c.seed = 7;
    c.recovery.backoff_base_s = 0.0;
    c
}

fn model(d: &NodeDataset) -> Box<dyn SequenceModel> {
    Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 11))
}

fn scratch_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir, 3).unwrap()
}

fn sequences(d: &NodeDataset, cfg: TrainConfig) -> usize {
    prepare_node_dataset(d, cfg.seq_len, false, 1, cfg.seed).sequences.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Nothing a fault-free job can switch on — a store, the shrink rung, a
    /// recorder — changes what is trained: the loss bits are those of plain
    /// `train_data_parallel`, and those of the one-process reference.
    #[test]
    fn fault_free_jobs_are_plain_data_parallelism(
        world in 1usize..5,
        long in 0u8..2,
        epochs in 1usize..4,
        with_store in 0u8..2,
        allow_shrink in 0u8..2,
        with_recorder in 0u8..2,
    ) {
        let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
        let mut cfg = cfg(if long == 1 { 128 } else { 64 }, epochs);
        cfg.recovery.allow_shrink = allow_shrink == 1;
        let plain = train_data_parallel(&d, cfg, world, || model(&d));

        let store = scratch_store(&format!(
            "tgt-supervisor-prop-{world}-{long}-{epochs}-{allow_shrink}-{with_recorder}"
        ));
        let mem = Arc::new(MemoryRecorder::default());
        let mut job = DistributedJob::new(&d, cfg, world, || model(&d));
        if with_store == 1 {
            job.store = Some(&store);
        }
        if with_recorder == 1 {
            job.recorder = mem.clone();
        }
        let run = train_distributed(&job).unwrap();
        prop_assert_eq!(bits(&run.stats.epoch_losses), bits(&plain.epoch_losses));
        prop_assert_eq!(run.stats.epoch_losses.len(), epochs);
        prop_assert_eq!((run.restarts, run.shrinks, run.rebalances), (0, 0, 0));
        prop_assert_eq!((run.initial_world, run.final_world, run.generation), (world, world, 0));
        if with_store == 1 {
            let snap = store.load_latest().unwrap().expect("rank 0 snapshotted");
            prop_assert_eq!(snap.state.epoch, epochs);
        }
        prop_assert_eq!(bits(&plain.epoch_losses), bits(&train_reference(&d, cfg, world, model(&d)).epoch_losses));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The step is a function of the global batch `G` alone. A `G`-rank job
    /// trains the loss bits and the final parameters of
    /// `train_reference(G)` whatever happens to its layout: a rank lost for
    /// good at an epoch boundary, or crashed mid-step (its gradient
    /// computed, nothing sent, its peers stranded in `wait`) and healed by
    /// a retry or a shrink; a straggler under the closed loop; a store or
    /// none; and, with a store, the run finished by a second job at a live
    /// world `P ≤ G` restoring its snapshot.
    #[test]
    fn every_layout_trains_the_reference_bits(
        g in 1usize..6,
        fault in 0u8..3,
        victim in 0usize..5,
        at_epoch in 0usize..3,
        at_step in 0usize..3,
        retries in 0usize..2,
        slow in 0u8..2,
        with_store in 0u8..2,
        split in 0usize..3,
        resume_world in 1usize..6,
    ) {
        let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
        let epochs = 3;
        let mut cfg = cfg(64, epochs);
        cfg.recovery.allow_shrink = true;
        cfg.recovery.min_ranks = 1;
        // One rank cannot shrink: it heals by a retry.
        cfg.recovery.max_retries = if g == 1 { 1 } else { retries };
        let nseq = sequences(&d, cfg);
        let victim = victim % g;
        let rebalance = (slow == 1).then_some(RebalancePolicy { threshold: 1.3, patience: 1, alpha: 0.5 });
        let mut plan = if slow == 1 { FaultPlan::slow((victim + 1) % g, 0.001) } else { FaultPlan::default() };
        let mut lose = None;
        if fault == 1 && g > 1 {
            lose = Some(RankLoss { rank: victim, epoch: at_epoch });
        } else if fault == 2 {
            // Under the closed loop each epoch is its own `group.run`, whose
            // op indices count from that epoch's start.
            let epochs_into_run = if rebalance.is_some() { 0 } else { at_epoch };
            let op = exchange_op(nseq, g, epochs_into_run, at_step % nseq.div_ceil(g));
            plan.crash = Some(CrashPoint { rank: victim, op });
        }
        let store = scratch_store(&format!(
            "tgt-supervisor-layout-{g}-{fault}-{victim}-{at_epoch}-{at_step}-{retries}-{slow}-{split}-{resume_world}"
        ));
        let split = if with_store == 1 { split } else { 0 };
        let mut first = cfg;
        if split > 0 {
            first.epochs = split;
        }
        let run = train_distributed(&DistributedJob {
            plan,
            lose,
            store: (with_store == 1).then_some(&store),
            rebalance,
            ..DistributedJob::new(&d, first, g, || model(&d))
        })
        .unwrap();
        // The drawn fault struck whenever the first job reached it.
        if fault == 1 && g > 1 && at_epoch < first.epochs {
            prop_assert_eq!(&run.lost_ranks, &vec![victim]);
        }
        if fault == 2 && (rebalance.is_some() || at_epoch < first.epochs) {
            prop_assert!(run.restarts >= 1, "the crash never fired");
        }
        let run = if split > 0 {
            let world = resume_world.min(g);
            train_distributed(&DistributedJob {
                store: Some(&store),
                rebalance,
                ..DistributedJob::new(&d, cfg, world, || model(&d))
            })
            .unwrap()
        } else {
            run
        };
        let reference = train_reference(&d, cfg, g, model(&d));
        prop_assert_eq!(bits(&run.stats.epoch_losses), bits(&reference.epoch_losses));
        if with_store == 1 {
            let snap = store.load_latest().unwrap().expect("rank 0 snapshotted");
            prop_assert_eq!(snap.layout.as_ref().map(|l| l.global_batch), Some(g));
            for (p, want) in snap.params.iter().zip(&reference.params) {
                prop_assert_eq!(bits(&p.value), bits(want));
            }
        }
    }
}

/// `max_retries = 1` buys exactly one retry: a one-shot crash is survived
/// with the clean run's loss bits. (The retired resilient driver read the
/// budget as "attempts" and gave up here without retrying at all.)
#[test]
fn a_retry_budget_of_one_retries_once() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
    let mut cfg = cfg(128, 3);
    cfg.recovery.max_retries = 1;
    let clean = train_data_parallel(&d, cfg, 2, || model(&d));
    let store = scratch_store("tgt-supervisor-budget");
    // Rank 1 dies with its first gradient computed and not yet sent.
    let op = exchange_op(sequences(&d, cfg), 2, 0, 0);
    let run = train_distributed(&DistributedJob {
        plan: FaultPlan::crash_at(3, 1, op),
        store: Some(&store),
        ..DistributedJob::new(&d, cfg, 2, || model(&d))
    })
    .unwrap();
    assert_eq!(run.restarts, 1);
    assert_eq!(run.resumed_epochs, vec![0], "crashed before the first snapshot: cold restart");
    assert_eq!(bits(&run.stats.epoch_losses), bits(&clean.epoch_losses));
}

/// With the budget spent, the error names the rank that crashed — not the
/// "peer hung up" of the first neighbour the crash stranded.
#[test]
fn giving_up_names_the_crashed_rank() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
    let mut cfg = cfg(128, 2);
    cfg.recovery.max_retries = 0;
    let op = exchange_op(sequences(&d, cfg), 2, 0, 1);
    let err = train_distributed(&DistributedJob {
        plan: FaultPlan::crash_at(3, 1, op),
        ..DistributedJob::new(&d, cfg, 2, || model(&d))
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("injected crash on rank 1"), "{err}");
    assert!(err.contains("shrink is disabled"), "{err}");
    assert!(!err.contains("peer hung up"), "{err}");
}

/// Breaks the checkpoint directory the moment the first snapshot is
/// published: the directory is replaced by a plain file, so every later
/// write into it fails, whoever the process runs as.
struct BreakStoreAfterFirstSnapshot(std::path::PathBuf);

impl Recorder for BreakStoreAfterFirstSnapshot {
    fn event(&self, event: Event) {
        if event.kind == Event::SNAPSHOT && self.0.is_dir() {
            std::fs::remove_dir_all(&self.0).unwrap();
            std::fs::write(&self.0, b"not a directory").unwrap();
        }
    }
    fn record_span(&self, _: &str, _: f64) {}
    fn counter_add(&self, _: &str, _: u64) {}
    fn gauge_set(&self, _: &str, _: f64) {}
    fn collective(&self, _: &str, _: u64, _: u64, _: u64) {}
    fn step(&self, _: StepTrace) {}
    fn epoch(&self, _: EpochTrace) {}
}

/// When rank 0 cannot save — the store's directory goes bad mid-run — the
/// give-up error is that rank's disk error, kind and all, not the "peer hung
/// up" its exit caused on rank 1.
#[test]
fn giving_up_carries_the_failing_ranks_own_io_error() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
    let mut cfg = cfg(128, 3);
    cfg.recovery.max_retries = 0;
    let store = scratch_store("tgt-supervisor-unwritable");
    let err = train_distributed(&DistributedJob {
        store: Some(&store),
        recorder: Arc::new(BreakStoreAfterFirstSnapshot(store.dir().to_path_buf())),
        ..DistributedJob::new(&d, cfg, 2, || model(&d))
    })
    .unwrap_err();
    let _ = std::fs::remove_file(store.dir());
    let text = err.to_string();
    assert!(text.contains("gave up after 1 restarts: rank 0:"), "{text}");
    assert!(!text.contains("peer hung up"), "{text}");
    assert_ne!(err.kind(), std::io::ErrorKind::Other, "the disk error's kind is kept: {err:?}");
}

/// The retry-time rebalance: rank 2 is slowed on every send, and two
/// attempts fail in one generation — an injected crash in epoch 0's second
/// step (a job with a rebalance policy runs each epoch as its own
/// `group.run`, so the plan's op indices count from the epoch's start),
/// then a replica that dies while being rebuilt. Both failures see rank 2
/// carry all of the measured delay (imbalance 4 at world 4), which
/// exhausts the default patience of 2: the supervisor re-cuts the stream by
/// measured throughput before the third attempt, which finishes the run
/// with the reference's bits. Every sequence still has exactly one live
/// owner and the slow rank owns fewer of them than round-robin gave it.
#[test]
fn persistent_skew_across_retries_rebalances_off_the_slow_rank() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.004, 23);
    let (world, epochs, slow) = (4usize, 3usize, 2usize);
    let mut cfg = cfg(64, epochs);
    cfg.recovery.max_retries = 2;
    let nseq = prepare_node_dataset(&d, cfg.seq_len, false, 1, cfg.seed).sequences.len();
    let round_robin_share = (0..nseq).filter(|t| t % world == slow).count();
    assert!(round_robin_share >= 2, "need a share that can shrink: {nseq} sequences");

    // Rank 1 dies in epoch 0's second step, rank 2 having sent its first
    // gradient late.
    let plan = FaultPlan {
        crash: Some(CrashPoint { rank: 1, op: exchange_op(nseq, world, 0, 1) }),
        ..FaultPlan::slow(slow, 0.001)
    };
    // The second failure: the first replica built for attempt 2 dies.
    let built = AtomicUsize::new(0);
    let factory = || {
        if built.fetch_add(1, Ordering::SeqCst) == world {
            std::panic::panic_any(RankCrash { rank: 3, op: 0 });
        }
        model(&d)
    };

    let store = scratch_store("tgt-supervisor-rebalance");
    let mem = Arc::new(MemoryRecorder::default());
    let run = train_distributed(&DistributedJob {
        plan,
        store: Some(&store),
        rebalance: Some(RebalancePolicy::default()),
        recorder: mem.clone(),
        ..DistributedJob::new(&d, cfg, world, factory)
    })
    .unwrap();

    assert_eq!((run.restarts, run.rebalances, run.shrinks), (2, 1, 0));
    assert_eq!(run.resumed_epochs, vec![0, 0], "both failures strike before the first snapshot");
    assert!(run.stragglers_flagged >= 1);
    assert_eq!(bits(&run.stats.epoch_losses), bits(&train_reference(&d, cfg, world, model(&d)).epoch_losses));

    let report = mem.report();
    let fired = report.events_of(Event::REBALANCE);
    assert_eq!(fired.len(), 1);
    assert!(fired[0].num("moved").unwrap() > 0.0);
    assert!(fired[0].num("imbalance_before").unwrap() > 3.9);

    // The third attempt trained, and snapshotted, under the re-cut layout.
    let layout = store.load_latest().unwrap().unwrap().layout.expect("snapshots carry the layout");
    assert_eq!(layout.assignment.len(), nseq, "every sequence has exactly one owner");
    assert!(layout.assignment.iter().all(|&g| (g as usize) < world));
    let share = layout.assignment.iter().filter(|&&g| g as usize == slow).count();
    assert!((1..round_robin_share).contains(&share), "{share} vs {round_robin_share}");
}

/// Two ranks train the reference's bits: the step folds the same
/// per-sequence gradients in the same order, and scales by ½ as the
/// reference does.
#[test]
fn distributed_matches_reference_losses() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
    let cfg = cfg(128, 2);
    let dist = train_data_parallel(&d, cfg, 2, || model(&d));
    let reference = train_reference(&d, cfg, 2, model(&d));
    assert_eq!(bits(&dist.epoch_losses), bits(&reference.epoch_losses));
}

/// One rank is the one-process reference, to the bit.
#[test]
fn world_one_equals_reference_exactly() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 19);
    let cfg = cfg(128, 2);
    let dist = train_data_parallel(&d, cfg, 1, || model(&d));
    let reference = train_reference(&d, cfg, 1, model(&d));
    assert_eq!(bits(&dist.epoch_losses), bits(&reference.epoch_losses));
}
