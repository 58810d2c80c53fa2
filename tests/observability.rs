//! Integration tests of the observability subsystem (`torchgt-obs`): the
//! unified `Trainer` trait, the `Result`-based builders, and the CLI's
//! `--metrics` export end-to-end through the real binary.

use std::process::Command;
use std::sync::Arc;
use torchgt::obs::Event;
use torchgt::prelude::*;
use torchgt::{ModelKind, TorchGtBuilder};

fn arxiv_builder() -> TorchGtBuilder {
    TorchGtBuilder::new(Method::TorchGt)
        .seq_len(256)
        .epochs(3)
        .hidden(32)
        .layers(2)
        .heads(4)
        .lr(2e-3)
        .seed(7)
}

/// Dispatching through `&mut dyn Trainer` must be observationally identical
/// to calling the inherent methods — same losses, same accuracies, same
/// recorded metrics structure.
#[test]
fn dyn_trainer_parity_with_inherent_calls() {
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.003, 7);

    let mut direct = arxiv_builder().build_node(&dataset).expect("valid configuration");
    let direct_stats: Vec<EpochStats> = (0..3).map(|_| direct.train_epoch()).collect();

    let mut boxed: Box<dyn Trainer> =
        Box::new(arxiv_builder().build_node(&dataset).expect("valid configuration"));
    let dyn_stats = boxed.run();

    assert_eq!(direct_stats.len(), dyn_stats.len());
    for (a, b) in direct_stats.iter().zip(&dyn_stats) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.loss, b.loss, "loss diverged at epoch {}", a.epoch);
        assert_eq!(a.train_acc, b.train_acc);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }
}

/// Graph-level trainers expose the same trait surface.
#[test]
fn graph_trainer_is_a_trainer_too() {
    let graphs = DatasetKind::Zinc.generate_graphs(12, 1.0, 3);
    let mut t = TorchGtBuilder::new(Method::TorchGt)
        .model(ModelKind::Gt)
        .epochs(2)
        .hidden(16)
        .layers(2)
        .heads(4)
        .build_graph(&graphs, 1)
        .expect("valid configuration");
    let trainer: &mut dyn Trainer = &mut t;
    let mem = Arc::new(MemoryRecorder::default());
    trainer.attach_recorder(mem.clone());
    let stats = trainer.run();
    assert_eq!(stats.len(), 2);
    let report = mem.report();
    // Graph-level training publishes step traces but no `EpochTrace` (see
    // `BatchSource::EPOCH_TRACE`).
    assert!(report.epochs.is_empty());
    assert_eq!(report.steps.len(), stats.iter().map(|s| s.sparse_iters + s.full_iters).sum::<usize>());
    assert!(report.span("train_epoch").is_some());
}

/// Misconfigured builders report `BuildError` instead of panicking, and the
/// deprecated shims preserve the old panicking contract.
#[test]
fn build_errors_are_values_not_panics() {
    let dataset = DatasetKind::Flickr.generate_node(0.005, 1);
    let err = TorchGtBuilder::new(Method::TorchGt)
        .hidden(30)
        .heads(4)
        .build_node(&dataset)
        .err()
        .expect("misconfiguration must be rejected");
    assert_eq!(err, BuildError::HeadsDontDivideHidden { hidden: 30, heads: 4 });
    assert!(err.to_string().contains("30"));

    match TorchGtBuilder::new(Method::TorchGt).seq_len(0).build_node(&dataset) {
        Err(e) => assert_eq!(e, BuildError::ZeroSeqLen),
        Ok(_) => panic!("zero seq_len accepted"),
    }

    let empty = GraphDataset { samples: Vec::new(), ..DatasetKind::Zinc.generate_graphs(4, 1.0, 2) };
    match TorchGtBuilder::new(Method::TorchGt).build_graph(&empty, 1) {
        Err(e) => assert_eq!(e, BuildError::EmptyDataset),
        Ok(_) => panic!("empty dataset accepted"),
    }
}

#[test]
fn zero_layers_is_a_typed_error() {
    let dataset = DatasetKind::Flickr.generate_node(0.005, 1);
    let err = TorchGtBuilder::new(Method::TorchGt).layers(0).build_node(&dataset).err();
    assert_eq!(err, Some(BuildError::ZeroLayers));
}

/// A recorder-collected report serializes and parses back identically —
/// the `--metrics` file is a faithful snapshot of what was recorded.
#[test]
fn recorded_report_round_trips_through_json() {
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.003, 11);
    let mut t = arxiv_builder().build_node(&dataset).expect("valid configuration");
    let mem = Arc::new(MemoryRecorder::default());
    t.attach_recorder(mem.clone());
    for _ in 0..3 {
        t.train_epoch();
    }
    let report = mem.report();
    assert!(!report.spans.is_empty() && !report.epochs.is_empty() && !report.steps.is_empty());
    let text = report.to_json_string_pretty();
    let back = MetricsReport::from_json_str(&text).expect("metrics JSON parses back");
    assert_eq!(back, report);
}

/// Full CLI smoke test: `train --metrics` writes a report with per-epoch
/// phase spans, nonzero simulated all-to-all wire volume, per-step traces,
/// and β_thre transition events consistent with the per-epoch β sequence.
#[test]
fn cli_train_writes_metrics_json() {
    let out = std::env::temp_dir().join("torchgt_obs_cli_metrics.json");
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .args([
            "train", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "4", "--scale",
            "0.002", "--metrics",
        ])
        .arg(&out)
        .status()
        .expect("CLI binary runs");
    assert!(status.success(), "CLI exited with {status}");

    let text = std::fs::read_to_string(&out).expect("metrics file written");
    let report = MetricsReport::from_json_str(&text).expect("metrics file parses");

    // Per-epoch phase spans (paper Fig. 2 categories).
    for path in ["preprocess", "train_epoch/forward", "train_epoch/backward", "train_epoch/optim"]
    {
        let span = report.span(path).unwrap_or_else(|| panic!("missing span {path}"));
        assert!(span.total_s >= 0.0);
    }
    assert_eq!(report.epochs.len(), 4);
    assert!(report.epochs[0].preprocess_s > 0.0, "initial preprocess charged to epoch 0");
    assert!(!report.steps.is_empty());

    // Simulated all-to-all volume on the default multi-GPU topology.
    let a2a = report.collective("all_to_all").expect("all-to-all entry present");
    assert!(a2a.ops > 0);
    assert!(a2a.wire_bytes > 0, "default topology is multi-GPU, wire bytes must be nonzero");
    assert!(a2a.payload_bytes >= a2a.wire_bytes);

    // Every epoch-to-epoch β_thre change must have a matching transition
    // event, and every event must correspond to an actual change.
    let transitions = report.events_of(Event::BETA_TRANSITION);
    let mut changes = 0;
    for pair in report.epochs.windows(2) {
        if pair[0].beta_thre != pair[1].beta_thre {
            let e = transitions
                .iter()
                .find(|e| e.num("epoch") == Some(pair[0].epoch as f64))
                .unwrap_or_else(|| panic!("no transition event after epoch {}", pair[0].epoch));
            assert_eq!(e.num("from"), Some(pair[0].beta_thre));
            assert_eq!(e.num("to"), Some(pair[1].beta_thre));
            changes += 1;
        }
    }
    assert_eq!(transitions.len(), changes, "spurious transition events");

    // The `alloc_bytes` gauge holds the last step's fresh arena allocations.
    // Once the arena is warm every buffer is recycled, so a steady-state step
    // stays within 64 KiB (room for a β_thre reformation changing per-edge
    // buffer lengths mid-run; the common case is exactly 0).
    let gauge = |name: &str| report.gauges.iter().find(|g| g.name == name).map(|g| g.value);
    let alloc = gauge("alloc_bytes").expect("alloc_bytes gauge");
    assert!(alloc <= 65536.0, "steady-state step allocated {alloc} bytes");
    assert!(gauge("arena_reuse_hits").is_some(), "arena_reuse_hits gauge missing");

    let _ = std::fs::remove_file(&out);
}

/// Unknown flags are rejected with exit code 2 and a usage hint.
#[test]
fn cli_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .args(["train", "--bogus", "1"])
        .output()
        .expect("CLI binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--bogus`"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}
