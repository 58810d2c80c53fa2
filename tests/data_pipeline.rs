//! The out-of-core data pipeline through the public facade: sharded
//! generation round-trips, streaming training reproduces the in-memory loss
//! history bit-for-bit, checkpoints refuse to restore against a different
//! dataset, and the prefetching loader publishes its gauges.

use std::path::PathBuf;
use std::sync::Arc;
use torchgt::prelude::*;
use torchgt::TorchGtBuilder;

const KIND: DatasetKind = DatasetKind::OgbnArxiv;
const SCALE: f64 = 0.004;
const SEED: u64 = 11;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tgt-data-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write the standard test dataset to disk in ~250-node shards.
fn sharded(name: &str, seed: u64) -> (PathBuf, DatagenReport) {
    let dir = scratch_dir(name);
    let report = generate_to_dir(KIND, SCALE, seed, &dir, 250).expect("datagen");
    assert!(report.manifest.shards.len() >= 2, "test dataset must actually be sharded");
    (dir, report)
}

fn builder() -> TorchGtBuilder {
    TorchGtBuilder::new(Method::GpSparse)
        .seq_len(128)
        .epochs(3)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(5)
}

/// The shard writer and `load_node_dataset` are exact inverses of the
/// in-memory generator: same graph, features, labels, and split.
#[test]
fn sharded_dataset_round_trips_to_the_in_memory_one() {
    let (dir, report) = sharded("roundtrip", SEED);
    let from_disk = load_node_dataset(&dir).expect("load sharded dataset");
    let in_mem = KIND.generate_node(SCALE, SEED);
    assert_eq!(from_disk.graph, in_mem.graph);
    assert_eq!(from_disk.features, in_mem.features);
    assert_eq!(from_disk.labels, in_mem.labels);
    assert_eq!(from_disk.feat_dim, in_mem.feat_dim);
    assert_eq!(from_disk.num_classes, in_mem.num_classes);
    assert_eq!(from_disk.split.train, in_mem.split.train);
    assert_eq!(from_disk.split.test, in_mem.split.test);
    // And the manifest's identity is stable across a reload.
    assert_eq!(Manifest::load_dir(&dir).unwrap().hash(), report.hash);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streaming shards from disk reproduces the in-memory trainer's epoch
/// losses bit-for-bit — the tentpole's correctness claim, at facade level.
#[test]
fn streaming_training_matches_in_memory_bit_for_bit() {
    let (dir, _) = sharded("parity", SEED);
    let in_mem = KIND.generate_node(SCALE, SEED);
    let mut mem_trainer = builder().build_node(&in_mem).expect("valid configuration");
    let loader = ShardLoader::open(&dir).expect("loader opens");
    let mut disk_trainer = builder().build_streaming(loader).expect("valid configuration");
    for epoch in 0..3 {
        let a = mem_trainer.train_epoch();
        let b = disk_trainer.train_epoch();
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {epoch} loss diverged");
        assert_eq!(a.train_acc, b.train_acc);
        assert_eq!(a.test_acc, b.test_acc);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint taken against one sharded dataset refuses to restore into a
/// trainer streaming a *different* dataset — unless explicitly overridden.
#[test]
fn resume_refuses_a_mismatched_dataset_through_the_checkpoint_driver() {
    let (dir_a, report_a) = sharded("identity-a", SEED);
    let (dir_b, report_b) = sharded("identity-b", SEED + 1);
    assert_ne!(report_a.hash, report_b.hash);
    let ckpt = scratch_dir("identity-ckpt");
    let store = CheckpointStore::new(&ckpt, 3).unwrap();
    let noop = torchgt::obs::noop();

    let mut first = builder()
        .build_streaming(ShardLoader::open(&dir_a).unwrap())
        .expect("valid configuration");
    let out = run_with_checkpoints(
        &mut first,
        &store,
        &CheckpointOptions { every: 1, resume: false, crash_after: Some(1) },
        &noop,
    )
    .unwrap();
    assert!(out.interrupted);

    // Resuming against dataset B must fail loudly and point at the escape
    // hatch.
    let mut wrong = builder()
        .build_streaming(ShardLoader::open(&dir_b).unwrap())
        .expect("valid configuration");
    let err = run_with_checkpoints(
        &mut wrong,
        &store,
        &CheckpointOptions { every: 1, resume: true, crash_after: None },
        &noop,
    )
    .err()
    .expect("mismatched dataset must refuse to restore");
    let msg = err.to_string();
    assert!(msg.contains(&report_a.hash), "error names the snapshot's dataset: {msg}");
    assert!(msg.contains("allow-dataset-mismatch"), "error names the override: {msg}");

    // The matching dataset restores without ceremony. (Checked before the
    // override run below, which legitimately re-stamps later snapshots with
    // dataset B's hash.)
    let mut right = builder()
        .build_streaming(ShardLoader::open(&dir_a).unwrap())
        .expect("valid configuration");
    let out = run_with_checkpoints(
        &mut right,
        &store,
        &CheckpointOptions { every: 1, resume: true, crash_after: Some(2) },
        &noop,
    )
    .expect("matching dataset restores cleanly");
    assert_eq!(out.resumed_from, Some(1));

    // And the escape hatch lets the mismatched trainer restore anyway.
    wrong.set_allow_dataset_mismatch(true);
    run_with_checkpoints(
        &mut wrong,
        &store,
        &CheckpointOptions { every: 1, resume: true, crash_after: None },
        &noop,
    )
    .expect("override must permit the restore");
    for d in [dir_a, dir_b, ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// The same refusal through the CLI: `--crash-after` exits 3 with a snapshot
/// behind it, resuming against another `--data-dir` fails and names the
/// override flag, and `--allow-dataset-mismatch` resumes.
#[test]
fn cli_resume_refuses_a_mismatched_data_dir_unless_overridden() {
    let cli = || std::process::Command::new(env!("CARGO_BIN_EXE_torchgt_cli"));
    let path = |dir: &PathBuf| dir.to_str().expect("utf-8 temp path").to_string();
    let (dir_a, dir_b) = (scratch_dir("cli-identity-a"), scratch_dir("cli-identity-b"));
    let ckpt = scratch_dir("cli-identity-ckpt");
    for (dir, seed) in [(&dir_a, "7"), (&dir_b, "8")] {
        let out = cli()
            .args(["datagen", "--dataset", "arxiv", "--scale", "0.004", "--seed", seed])
            .args(["--shard-nodes", "300", "--out", &path(dir)])
            .output()
            .expect("CLI binary runs");
        assert!(out.status.success(), "datagen failed: {out:?}");
    }
    let train = |data_dir: &PathBuf, extra: &[&str]| {
        cli()
            .args(["train", "--method", "gp-sparse", "--epochs", "2", "--seq-len", "128"])
            .args(["--hidden", "16", "--layers", "2", "--heads", "2", "--seed", "7"])
            .args(["--data-dir", &path(data_dir), "--checkpoint-dir", &path(&ckpt)])
            .args(extra)
            .output()
            .expect("CLI binary runs")
    };
    let crashed = train(&dir_a, &["--checkpoint-every", "1", "--crash-after", "1"]);
    assert_eq!(crashed.status.code(), Some(3), "simulated crash exits 3: {crashed:?}");

    let refused = train(&dir_b, &["--resume"]);
    assert!(!refused.status.success(), "resume against a different dataset must fail");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("allow-dataset-mismatch"), "error names the override: {stderr}");

    let overridden = train(&dir_b, &["--resume", "--allow-dataset-mismatch"]);
    assert!(overridden.status.success(), "override must permit the resume: {overridden:?}");
    for d in [dir_a, dir_b, ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A streaming trainer's recorder sees the loader's prefetch gauges.
#[test]
fn streaming_trainer_publishes_loader_gauges() {
    let (dir, report) = sharded("gauges", SEED);
    let mut trainer = builder()
        .build_streaming(ShardLoader::open(&dir).unwrap())
        .expect("valid configuration");
    let mem = Arc::new(MemoryRecorder::default());
    trainer.attach_recorder(mem.clone());
    trainer.train_epoch();
    let rep = mem.report();
    let gauge = |name: &str| {
        rep.gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .value
    };
    assert!(gauge("prefetch_stall_ms") > 0.0, "first-shard wait must register");
    // train_epoch streams once for training and once for evaluation.
    assert_eq!(gauge("shard_bytes_read") as u64, 2 * report.total_bytes);
    let _ = gauge("prefetch_buffer_depth");
    let _ = std::fs::remove_dir_all(&dir);
}
