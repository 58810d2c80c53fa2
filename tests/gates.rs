//! End-to-end gates through the real `torchgt_cli` binary, each a claim the
//! system makes about a whole run rather than one function.

use std::path::Path;
use std::process::Command;
use torchgt::obs::{Event, MetricsReport};
use torchgt::tensor::backend::detect_best;

/// Run `torchgt_cli train <args> --metrics <file>`; return its stdout and
/// the parsed metrics.
fn train_with_metrics(args: &[&str], metrics: &Path) -> (String, MetricsReport) {
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
    let report = MetricsReport::from_json_str(&text).expect("metrics parse");
    (String::from_utf8_lossy(&out.stdout).into_owned(), report)
}

/// Training the same TorchGT configuration under the scalar kernels and
/// under the fastest backend this CPU supports must give the same per-epoch
/// losses within 2 % relative (floor 0.002): the SIMD kernels reorder
/// reductions and fuse multiply-adds, which moves trajectories by ULPs, not
/// semantics. The run goes through the partitioner, reformation and the
/// Auto Tuner; each side must announce its backend on stdout and record it
/// as the metrics file's `backend` event.
#[test]
fn kernel_backends_train_to_the_same_losses() {
    let dir = std::env::temp_dir().join(format!("torchgt_gate_backend_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let best = detect_best().name();
    let losses: Vec<Vec<f64>> = ["scalar", best]
        .iter()
        .map(|&backend| {
            let args = [
                "--dataset", "arxiv", "--method", "torchgt", "--epochs", "3", "--scale", "0.002",
                "--seq-len", "128", "--hidden", "16", "--layers", "2", "--heads", "2", "--seed",
                "7", "--backend", backend,
            ];
            let (stdout, report) = train_with_metrics(&args, &dir.join(format!("{backend}.json")));
            assert!(
                stdout.lines().any(|l| l == format!("kernel backend: {backend}")),
                "the CLI did not announce the {backend} backend:\n{stdout}"
            );
            let recorded: Vec<&str> = report
                .events_of(Event::BACKEND)
                .iter()
                .filter_map(|e| e.fields.get("name").and_then(|v| v.as_str()))
                .collect();
            assert_eq!(recorded, [backend], "backend event in the metrics");
            report.epochs.iter().map(|e| e.loss).collect()
        })
        .collect();
    assert_eq!(losses[0].len(), 3, "one loss per epoch");
    assert_eq!(losses[0].len(), losses[1].len());
    for (epoch, (s, b)) in losses[0].iter().zip(&losses[1]).enumerate() {
        let tolerance = (0.02 * s.abs()).max(0.002);
        assert!(
            (s - b).abs() <= tolerance,
            "epoch {epoch}: scalar loss {s} vs {best} loss {b}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    let (_, slowed) = train_with_metrics(&skewed, &dir.join("slowed.json"));
    let (_, even) = train_with_metrics(&base, &dir.join("even.json"));

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
