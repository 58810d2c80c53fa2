//! End-to-end gates through the real `torchgt_cli` binary, each a claim the
//! system makes about a whole run rather than one function.

use std::path::Path;
use std::process::Command;
use torchgt::obs::{Event, MetricsReport};

/// Run `torchgt_cli train <args> --metrics <file>` and parse the metrics.
fn train_with_metrics(args: &[&str], metrics: &Path) -> MetricsReport {
    let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .arg("train")
        .args(args)
        .arg("--metrics")
        .arg(metrics)
        .output()
        .expect("CLI binary runs");
    assert!(
        out.status.success(),
        "train {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(metrics).expect("metrics written");
    MetricsReport::from_json_str(&text).expect("metrics parse")
}

/// The closed-loop rebalancer under a skewed rank must fire, predict a
/// post-reshard imbalance below the measured pre-reshard one, and leave the
/// loss history bit-identical to the same run with no straggler: each
/// token's gradient is owner-computed against epoch-frozen parameters and
/// folded in global token order, so who owns which token never reaches the
/// numbers. The model is tiny and the delay large (40 ms per send, two
/// sends per owned token) so the skew stays far above the default 1.5×
/// trigger however slow the compute is: the slowed rank measures ≈ 2.6× the
/// mean in a debug build on the scalar kernels, ≈ 3.0× in release.
#[test]
fn rebalance_fires_under_skew_and_keeps_losses_bit_identical() {
    let dir = std::env::temp_dir().join(format!("torchgt_gate_rebalance_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = [
        "--dataset", "arxiv", "--method", "gp-sparse", "--epochs", "5", "--scale", "0.004",
        "--seq-len", "32", "--hidden", "8", "--layers", "1", "--heads", "2", "--seed", "7",
        "--rebalance", "--world", "3",
    ];
    let slow = ["--slow-rank", "1", "--slow-delay-ms", "40"];
    let skewed: Vec<&str> = base.iter().chain(&slow).copied().collect();
    let slowed = train_with_metrics(&skewed, &dir.join("slowed.json"));
    let even = train_with_metrics(&base, &dir.join("even.json"));

    // A later firing may find nothing left to move (the slow rank already
    // holds its one-token minimum) and predict no change; at least one
    // firing must cut the imbalance.
    let cuts: Vec<(f64, f64)> = slowed
        .events_of(Event::REBALANCE)
        .iter()
        .map(|e| (e.num("imbalance_before").unwrap(), e.num("imbalance_after").unwrap()))
        .collect();
    assert!(
        cuts.iter().any(|(before, after)| after < before),
        "no rebalance reduced the predicted imbalance under a skewed rank: {cuts:?}"
    );

    let losses = |r: &MetricsReport| r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<u64>>();
    assert_eq!(losses(&slowed).len(), 5, "one loss per epoch");
    assert_eq!(losses(&slowed), losses(&even), "the straggler's re-cut changed the loss history");
    let _ = std::fs::remove_dir_all(&dir);
}
