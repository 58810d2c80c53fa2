//! Integration tests of the fault-tolerance subsystem (`torchgt-ckpt`):
//! bit-exact crash-resume through the public facade, injected rank crashes
//! recovering from snapshots, and the CLI's `--checkpoint-dir` /
//! `--crash-after` / `--resume` flags end-to-end through the real binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use torchgt::obs::Event;
use torchgt::prelude::*;
use torchgt::TorchGtBuilder;

fn arxiv_builder(epochs: usize) -> TorchGtBuilder {
    TorchGtBuilder::new(Method::TorchGt)
        .seq_len(128)
        .epochs(epochs)
        .hidden(16)
        .layers(2)
        .heads(2)
        .lr(2e-3)
        .seed(7)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Crash after 2 of 5 epochs, restore into a *fresh* trainer, and finish:
/// every resumed epoch's loss and the final parameters (values and Adam
/// moments) must match the uninterrupted run bit-for-bit.
#[test]
fn resume_is_bit_exact_through_the_facade() {
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 7);
    let dir = scratch_dir("tgt-ft-bitexact");
    let store = CheckpointStore::new(&dir, 3).unwrap();
    let noop = torchgt::obs::noop();

    let mut full = arxiv_builder(5).build_node(&dataset).expect("valid configuration");
    let full_trainer: &mut dyn Trainer = &mut full;
    let full_stats = full_trainer.run();
    let full_end = full_trainer.snapshot();

    let mut first = arxiv_builder(5).build_node(&dataset).expect("valid configuration");
    let out = run_with_checkpoints(
        &mut first,
        &store,
        &CheckpointOptions { every: 1, resume: false, crash_after: Some(2) },
        &noop,
    )
    .unwrap();
    assert!(out.interrupted);
    assert_eq!(out.stats.len(), 2);
    drop(first); // the "crashed" process

    let mut second = arxiv_builder(5).build_node(&dataset).expect("valid configuration");
    let out = run_with_checkpoints(
        &mut second,
        &store,
        &CheckpointOptions { every: 1, resume: true, crash_after: None },
        &noop,
    )
    .unwrap();
    assert_eq!(out.resumed_from, Some(2));
    assert_eq!(out.stats.len(), 3);
    for (a, b) in full_stats[2..].iter().zip(&out.stats) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {} loss diverged", a.epoch);
        assert_eq!(a.train_acc, b.train_acc);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.beta_thre, b.beta_thre);
    }

    // Final *state* equality, not just final metrics: parameter values and
    // Adam moments byte-identical, optimizer step counter and PRNG cursors
    // in lockstep.
    let resumed_trainer: &mut dyn Trainer = &mut second;
    let resumed_end = resumed_trainer.snapshot();
    assert_eq!(full_end.state.opt_steps, resumed_end.state.opt_steps);
    assert_eq!(full_end.state.rng_streams, resumed_end.state.rng_streams);
    assert_eq!(full_end.params, resumed_end.params, "final parameters diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected rank crash in data-parallel training must recover from the
/// latest snapshot and converge to the exact losses of a fault-free run,
/// with the crash/restore cycle visible in the observability events.
#[test]
fn injected_rank_crash_recovers_and_converges() {
    use torchgt::model::{Gt, GtConfig, SequenceModel};
    use torchgt::runtime::distributed::exchange_op;
    use torchgt::runtime::{prepare_node_dataset, train_data_parallel};

    let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 13);
    let world = 2;
    let epochs = 3;
    let mut cfg = TrainConfig::new(Method::GpSparse, 128, epochs);
    cfg.lr = 2e-3;
    cfg.seed = 7;
    let factory =
        || Box::new(Gt::new(GtConfig::tiny(dataset.feat_dim, dataset.num_classes), 11))
            as Box<dyn SequenceModel>;

    let clean = train_data_parallel(&dataset, cfg.clone(), world, factory);

    // Crash rank 1 in epoch 1's first step, its gradient computed and not
    // yet sent.
    let nseq = prepare_node_dataset(&dataset, cfg.seq_len, false, 1, cfg.seed).sequences.len();
    let plan = FaultPlan {
        drop_prob: 0.05,
        max_retries: 2,
        crash: Some(CrashPoint { rank: 1, op: exchange_op(nseq, world, 1, 0) }),
        seed: 29,
        ..FaultPlan::default()
    };

    let dir = scratch_dir("tgt-ft-dist");
    let store = CheckpointStore::new(&dir, 2).unwrap();
    let mem = Arc::new(MemoryRecorder::default());
    let res = train_distributed(&DistributedJob {
        plan,
        store: Some(&store),
        recorder: mem.clone(),
        ..DistributedJob::new(&dataset, cfg, world, factory)
    })
    .unwrap();

    assert_eq!(res.restarts, 1, "exactly one crash/recovery cycle");
    assert_eq!(res.resumed_epochs, vec![1], "resumed from the epoch-1 snapshot");
    assert_eq!(res.stats.epoch_losses.len(), epochs);
    for (i, (a, b)) in res.stats.epoch_losses.iter().zip(&clean.epoch_losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {i}: resilient {a} vs clean {b}");
    }
    assert!(res.stats.epoch_losses.last().unwrap() < res.stats.epoch_losses.first().unwrap());

    let report = mem.report();
    let crashes = report.events_of(Event::RANK_CRASH);
    assert_eq!(crashes.len(), 1);
    assert_eq!(crashes[0].num("rank"), Some(1.0));
    assert_eq!(report.events_of(Event::RESTORE).len(), 1);
    assert!(report.events_of(Event::SNAPSHOT).len() >= epochs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full CLI smoke test of the crash-resume gate: `--crash-after` exits with
/// code 3 leaving snapshots behind, `--resume` finishes the run with exit 0,
/// and the two metrics files stitch into exactly the per-epoch losses of an
/// uninterrupted run.
#[test]
fn cli_crash_resume_stitches_uninterrupted_losses() {
    let ckpt_dir = scratch_dir("tgt-ft-cli-ckpt");
    let crashed = std::env::temp_dir().join("tgt-ft-cli-crashed.json");
    let resumed = std::env::temp_dir().join("tgt-ft-cli-resumed.json");
    let clean = std::env::temp_dir().join("tgt-ft-cli-clean.json");
    for f in [&crashed, &resumed, &clean] {
        let _ = std::fs::remove_file(f);
    }

    let base = [
        "train", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "4", "--scale",
        "0.002", "--seq-len", "128", "--hidden", "16", "--layers", "2", "--heads", "2",
        "--seed", "7",
    ];
    let run = |extra: &[&str], metrics: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
            .args(base)
            .args(extra)
            .arg("--metrics")
            .arg(metrics)
            .output()
            .expect("CLI binary runs")
    };
    let ckpt = ckpt_dir.to_str().unwrap();

    let out = run(
        &["--checkpoint-dir", ckpt, "--checkpoint-every", "1", "--crash-after", "2"],
        &crashed,
    );
    assert_eq!(out.status.code(), Some(3), "simulated crash must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated crash after epoch 2"), "stdout: {stdout}");

    let out = run(&["--checkpoint-dir", ckpt, "--resume"], &resumed);
    assert!(out.status.success(), "resume run failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed from snapshot at epoch 2"), "stdout: {stdout}");

    let out = run(&[], &clean);
    assert!(out.status.success(), "uninterrupted run failed: {out:?}");

    let epochs = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).expect("metrics file written");
        MetricsReport::from_json_str(&text).expect("metrics file parses").epochs
    };
    let (crashed, resumed, clean) = (epochs(&crashed), epochs(&resumed), epochs(&clean));
    assert_eq!(crashed.len(), 2);
    assert_eq!(resumed.len(), 2);
    assert_eq!(clean.len(), 4);
    let stitched = crashed.iter().chain(&resumed);
    for (a, b) in stitched.zip(&clean) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "epoch {}: stitched loss {} vs uninterrupted {}",
            a.epoch,
            a.loss,
            b.loss
        );
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);
    for f in ["tgt-ft-cli-crashed.json", "tgt-ft-cli-resumed.json", "tgt-ft-cli-clean.json"] {
        let _ = std::fs::remove_file(std::env::temp_dir().join(f));
    }
}
