//! Integration tests of elastic graph parallelism: token-conserving
//! resharding at shrunken world sizes, world-size-independent snapshots
//! (a `P = 4` snapshot restoring at `P = 3`), the full escalation ladder
//! surviving a permanent mid-run rank loss, and the numerical-health guard
//! restoring a poisoned (NaN-loss) run from its last good snapshot.

use std::path::PathBuf;
use std::sync::Arc;
use torchgt::ckpt::TrainerState;
use torchgt::comm::DeviceGroup;
use torchgt::model::{Gt, GtConfig};
use torchgt::obs::Event;
use torchgt::prelude::*;
use torchgt::runtime::{
    cluster_token_assignment, reshard_exchange, tokens_conserved, weighted_token_assignment,
};
use torchgt_compat::proptest::prelude::*;

fn dataset() -> NodeDataset {
    DatasetKind::OgbnArxiv.generate_node(0.002, 19)
}

fn cfg(epochs: usize) -> TrainConfig {
    let mut c = TrainConfig::new(Method::GpSparse, 128, epochs);
    c.lr = 2e-3;
    c.seed = 7;
    c.recovery.max_retries = 1;
    c.recovery.allow_shrink = true;
    c.recovery.min_ranks = 2;
    c.recovery.backoff_base_s = 0.0;
    c
}

fn factory(d: &NodeDataset) -> impl Fn() -> Box<dyn SequenceModel> + Sync {
    let (feat, classes) = (d.feat_dim, d.num_classes);
    move || Box::new(Gt::new(GtConfig::tiny(feat, classes), 11)) as Box<dyn SequenceModel>
}

fn scratch_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir, 5).unwrap()
}

/// The balanced cut, spelled out independently of the one cut function:
/// contiguous chunks of the cluster-sorted token order, one per live rank,
/// the first `n % p` ranks taking the extra token.
fn balanced_cut_oracle(clusters: &[u32], live: &[usize]) -> Vec<u32> {
    let (n, p) = (clusters.len(), live.len());
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&t| clusters[t]); // stable: ties keep token order
    let mut assignment = vec![0u32; n];
    let mut chunks = order.iter();
    for (i, &g) in live.iter().enumerate() {
        for &t in chunks.by_ref().take(n / p + usize::from(i < n % p)) {
            assignment[t] = g as u32;
        }
    }
    assignment
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One cut function: the balanced cut *is* the weighted cut at equal (or
    /// degenerate) weights — for arbitrary cluster vectors, live sets with
    /// gaps, and fewer tokens than ranks.
    #[test]
    fn balanced_cut_is_the_weighted_cut_at_equal_weights(
        clusters in prop::collection::vec(0u32..8, 0..200),
        alive in prop::collection::vec(0u8..2, 1..65),
        weight in 1e-9f64..1e9,
    ) {
        let mut live: Vec<usize> = (0..alive.len()).filter(|&g| alive[g] == 1).collect();
        if live.is_empty() {
            live.push(alive.len() - 1);
        }
        let expect = balanced_cut_oracle(&clusters, &live);
        prop_assert_eq!(&cluster_token_assignment(&clusters, &live), &expect);
        for w in [weight, 0.0, -1.0] {
            let cut = weighted_token_assignment(&clusters, &live, &vec![w; live.len()]);
            prop_assert_eq!(&cut, &expect, "equal weights {}", w);
        }
    }
}

/// `{0, 2, 3}` with fewer tokens than ranks, and an exactly divisible split.
#[test]
fn balanced_cut_handles_gaps_and_fewer_tokens_than_ranks() {
    assert_eq!(cluster_token_assignment(&[5, 1], &[0, 2, 3]), vec![2, 0]);
    assert_eq!(cluster_token_assignment(&[], &[0, 2, 3]), Vec::<u32>::new());
    assert_eq!(cluster_token_assignment(&[0; 6], &[0, 2, 3]), vec![0, 0, 2, 2, 3, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Resharding conserves every token — none lost, none duplicated — when
    /// the group shrinks to P−1 and then P−2, for arbitrary cluster layouts
    /// and arbitrary victim choices, and every surviving rank ends up
    /// holding exactly the tokens the new assignment gives it.
    #[test]
    fn reshard_conserves_every_token_at_shrunk_worlds(
        clusters in prop::collection::vec(0u32..8, 6..48),
        world in 3usize..6,
        kills in prop::collection::vec(0usize..8, 2..3),
    ) {
        let n = clusters.len();
        let mut group = DeviceGroup::new(world);
        let mut old = cluster_token_assignment(&clusters, group.membership().live_ranks());
        for k in kills {
            let victim = group.membership().live_ranks()[k % group.live_world()];
            group.remove_rank(victim).unwrap();
            let new = cluster_token_assignment(&clusters, group.membership().live_ranks());
            let out = reshard_exchange(&group, &old, &new);
            prop_assert!(tokens_conserved(n, &out.held), "tokens lost or duplicated");
            // The victim's shard is exactly the re-materialised set.
            let stranded = old.iter().filter(|&&o| o as usize == victim).count();
            prop_assert_eq!(out.reloaded, stranded);
            // Each survivor holds precisely its new shard.
            for (dense, held) in out.held.iter().enumerate() {
                let g = group.membership().global_of(dense) as u32;
                for &t in held {
                    prop_assert_eq!(new[t as usize], g, "token {} on wrong rank", t);
                }
            }
            old = new;
        }
    }
}

/// A snapshot written at `P = 4` restores at `P = 3`: the canonical
/// (unsharded) state is untouched on disk, the loss ledger comes back
/// bit-for-bit, the restore pre-pass reshards the recorded layout onto the
/// smaller world, and the continued run trains to completion at `P = 3`.
#[test]
fn snapshot_written_at_four_ranks_restores_at_three() {
    let d = dataset();
    let store = scratch_store("tgt-elastic-crossworld");
    // Short sequences → more tokens than ranks, so the 4-rank and 3-rank
    // assignments genuinely differ and the restore pre-pass must reshard.
    let cfg = |epochs| {
        let mut c = cfg(epochs);
        c.seq_len = 64;
        c
    };

    // Phase 1: clean elastic run at P = 4 for 2 epochs.
    let four = train_distributed(&DistributedJob {
        store: Some(&store),
        ..DistributedJob::new(&d, cfg(2), 4, factory(&d))
    })
    .unwrap();
    assert_eq!(four.final_world, 4);
    assert_eq!(four.restarts, 0);
    let snap = store.load_latest().unwrap().expect("rank 0 snapshotted");
    let layout = snap.layout.as_ref().expect("elastic snapshots carry the layout");
    assert_eq!(layout.world, 4);
    let snap_path = store.path_for(snap.state.epoch);
    let canonical_bytes = std::fs::read(&snap_path).unwrap();

    // Phase 2: restore-only at P = 3 (nothing left to train). The ledger
    // must come back bit-for-bit and the pre-pass must reshard the
    // recorded 4-rank layout onto the 3 live ranks.
    let mem = Arc::new(MemoryRecorder::default());
    let three = train_distributed(&DistributedJob {
        store: Some(&store),
        recorder: mem.clone(),
        ..DistributedJob::new(&d, cfg(2), 3, factory(&d))
    })
    .unwrap();
    assert_eq!(three.final_world, 3);
    assert_eq!(three.stats.epoch_losses.len(), 2);
    for (a, b) in three.stats.epoch_losses.iter().zip(&four.stats.epoch_losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "restored ledger must be bit-exact");
    }
    let report = mem.report();
    let reshards = report.events_of(Event::RESHARD);
    assert_eq!(reshards.len(), 1, "cross-world restore reshards exactly once");
    assert_eq!(reshards[0].num("world"), Some(3.0));
    // The canonical snapshot is world-size-independent: restoring at a
    // different world leaves its bytes untouched.
    assert_eq!(std::fs::read(&snap_path).unwrap(), canonical_bytes);

    // Phase 3: continue at P = 3 for 2 more epochs. The stitched curve
    // keeps the 4-rank epochs bit-for-bit and finishes under a 3-rank
    // layout.
    let cont = train_distributed(&DistributedJob {
        store: Some(&store),
        ..DistributedJob::new(&d, cfg(4), 3, factory(&d))
    })
    .unwrap();
    assert_eq!(cont.stats.epoch_losses.len(), 4);
    for (a, b) in cont.stats.epoch_losses[..2].iter().zip(&four.stats.epoch_losses) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let last = store.load_latest().unwrap().unwrap();
    assert_eq!(last.state.epoch, 4);
    assert_eq!(last.layout.as_ref().unwrap().world, 3);
}

/// The full escalation ladder end-to-end: global rank 1 dies for good at
/// the start of epoch 2 of a 4-rank run. The driver retries, restores,
/// then shrinks to 3 ranks and finishes every epoch. The stitched curve
/// covers every epoch exactly once and equals the clean run's bit for bit:
/// the survivors keep the global batch of 4 sequences a step.
#[test]
fn permanent_rank_loss_shrinks_and_finishes() {
    let d = dataset();
    let epochs = 4;

    let clean_store = scratch_store("tgt-elastic-e2e-clean");
    let clean = train_distributed(&DistributedJob {
        store: Some(&clean_store),
        ..DistributedJob::new(&d, cfg(epochs), 4, factory(&d))
    })
    .unwrap();
    assert_eq!(clean.final_world, 4);

    let store = scratch_store("tgt-elastic-e2e-lost");
    let mem = Arc::new(MemoryRecorder::default());
    let lost = train_distributed(&DistributedJob {
        lose: Some("1@2".parse().unwrap()),
        store: Some(&store),
        recorder: mem.clone(),
        ..DistributedJob::new(&d, cfg(epochs), 4, factory(&d))
    })
    .unwrap();

    // Degraded-mode completion: shrank once, lost exactly rank 1, finished
    // at P = 3 under a fresh generation.
    assert_eq!(lost.initial_world, 4);
    assert_eq!(lost.final_world, 3);
    assert_eq!(lost.shrinks, 1);
    assert_eq!(lost.lost_ranks, vec![1]);
    assert_eq!(lost.generation, 1);
    assert!(lost.restarts >= 2, "retry then escalate: {} restarts", lost.restarts);

    // The stitched loss curve covers every epoch exactly once, and every
    // epoch — before and after the shrink — is the clean run's.
    assert_eq!(lost.stats.epoch_losses.len(), epochs);
    for (i, (a, b)) in lost.stats.epoch_losses.iter().zip(&clean.stats.epoch_losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {i}: shrunk {a} vs clean {b}");
    }

    // Membership transitions surfaced as events.
    let report = mem.report();
    assert_eq!(report.events_of(Event::RANK_LOST).len(), 1);
    let shrunk = report.events_of(Event::GROUP_SHRUNK);
    assert_eq!(shrunk.len(), 1);
    assert_eq!(shrunk[0].num("from_world"), Some(4.0));
    assert_eq!(shrunk[0].num("to_world"), Some(3.0));
    assert_eq!(shrunk[0].num("lost_rank"), Some(1.0));
    assert_eq!(report.events_of(Event::RESHARD).len(), 1);
    // One rollup per closed generation plus the final one.
    assert!(report.events_of(Event::GENERATION_ROLLUP).len() >= 2);
}

/// Shrinking stops at the policy floor: losing a rank of a 2-rank group
/// with `min_ranks = 2` must fail rather than limp on below quorum.
#[test]
fn shrink_respects_the_min_ranks_floor() {
    let d = dataset();
    let store = scratch_store("tgt-elastic-floor");
    let err = train_distributed(&DistributedJob {
        lose: Some(RankLoss { rank: 0, epoch: 1 }),
        store: Some(&store),
        ..DistributedJob::new(&d, cfg(3), 2, factory(&d))
    })
    .unwrap_err();
    assert!(
        err.to_string().contains("min_ranks"),
        "expected the floor to block the shrink: {err}"
    );
}

/// A scripted trainer for the numerical-health guard: produces a NaN epoch
/// loss on demand, with enough snapshot plumbing for restore to roll the
/// epoch cursor back.
struct PoisonTrainer {
    cfg: TrainConfig,
    epoch: usize,
    /// Epochs that produce a NaN loss. `sticky` keeps poisoning on retry.
    poison_at: Option<usize>,
    sticky: bool,
}

impl PoisonTrainer {
    fn new(epochs: usize, poison_at: Option<usize>, sticky: bool) -> Self {
        Self { cfg: cfg(epochs), epoch: 0, poison_at, sticky }
    }
}

impl Trainer for PoisonTrainer {
    fn cfg(&self) -> &TrainConfig {
        &self.cfg
    }

    fn attach_recorder(&mut self, _recorder: RecorderHandle) {}

    fn train_epoch(&mut self) -> EpochStats {
        let poisoned = self.poison_at == Some(self.epoch);
        if poisoned && !self.sticky {
            self.poison_at = None;
        }
        let loss = if poisoned { f32::NAN } else { 1.0 / (self.epoch + 1) as f32 };
        let stats = EpochStats {
            epoch: self.epoch,
            loss,
            train_acc: 0.0,
            test_acc: 0.0,
            wall_seconds: 0.0,
            sim_seconds: 0.0,
            sparse_iters: 0,
            full_iters: 0,
            beta_thre: 0.0,
        };
        self.epoch += 1;
        stats
    }

    fn evaluate(&mut self) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn epoch(&self) -> usize {
        self.epoch
    }

    fn snapshot(&mut self) -> Snapshot {
        Snapshot {
            state: TrainerState::basic(self.epoch, self.epoch as u64),
            params: Vec::new(),
            layout: None,
            dataset_id: None,
        }
    }

    fn restore(&mut self, snapshot: &Snapshot) -> std::io::Result<()> {
        self.epoch = snapshot.state.epoch;
        Ok(())
    }
}

/// A transient NaN epoch is healed by one restore from the last good
/// snapshot: the run completes with every recorded epoch finite, and the
/// poisoned epoch surfaces as a LOSS_NONFINITE event.
#[test]
fn nonfinite_loss_restores_once_and_completes() {
    let store = scratch_store("tgt-elastic-nanheal");
    let mem = Arc::new(MemoryRecorder::default());
    let rec: RecorderHandle = mem.clone();
    let mut t = PoisonTrainer::new(4, Some(2), false);
    let out = run_with_checkpoints(
        &mut t,
        &store,
        &CheckpointOptions { every: 1, resume: false, crash_after: None },
        &rec,
    )
    .unwrap();
    assert_eq!(out.stats.len(), 4, "every epoch recorded exactly once");
    assert!(out.stats.iter().all(|s| s.loss.is_finite()));
    let report = mem.report();
    assert_eq!(report.events_of(Event::LOSS_NONFINITE).len(), 1);
    assert_eq!(report.events_of(Event::RESTORE).len(), 1);
}

/// A recurring NaN (the run itself is diverging) fails after the single
/// restore instead of looping forever; a NaN before any snapshot exists
/// fails immediately.
#[test]
fn recurring_or_cold_nonfinite_loss_fails() {
    let store = scratch_store("tgt-elastic-nanfail");
    let noop = torchgt::obs::noop();
    let mut sticky = PoisonTrainer::new(4, Some(2), true);
    let err = run_with_checkpoints(
        &mut sticky,
        &store,
        &CheckpointOptions { every: 1, resume: false, crash_after: None },
        &noop,
    )
    .unwrap_err();
    assert!(err.to_string().contains("non-finite"), "{err}");

    let cold_store = scratch_store("tgt-elastic-nancold");
    let mut cold = PoisonTrainer::new(4, Some(0), false);
    let err = run_with_checkpoints(
        &mut cold,
        &cold_store,
        &CheckpointOptions { every: 1, resume: false, crash_after: None },
        &noop,
    )
    .unwrap_err();
    assert!(err.to_string().contains("non-finite"), "{err}");
}

/// The CLI elastic path end-to-end through the real binary: a scripted
/// permanent rank loss must exit 0, shrink to `P − 1`, and surface the
/// membership transitions in the metrics JSON.
#[test]
fn cli_elastic_survives_scripted_rank_loss() {
    let ckpt: PathBuf = std::env::temp_dir().join("tgt-elastic-cli-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let metrics = std::env::temp_dir().join("tgt-elastic-cli.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .args([
            "train", "--dataset", "arxiv", "--method", "gp-sparse", "--elastic",
            "--world", "4", "--min-ranks", "2", "--lose-rank", "1@1",
            "--epochs", "2", "--scale", "0.002", "--seq-len", "128", "--seed", "7",
        ])
        .arg("--checkpoint-dir")
        .arg(&ckpt)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("CLI runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("finished at world 3"), "stdout: {stdout}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"group_shrunk\""), "metrics missing group_shrunk event");
    assert!(json.contains("\"reshard\""), "metrics missing reshard event");
    let report = torchgt::obs::MetricsReport::from_json_str(&json).expect("metrics parse");
    let final_world = report.gauges.iter().find(|g| g.name == "final_world").map(|g| g.value);
    assert_eq!(final_world, Some(3.0), "final_world gauge after losing one of 4 ranks");
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_file(&metrics);
}
