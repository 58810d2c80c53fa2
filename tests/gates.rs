//! End-to-end gates through the real `torchgt_cli` binary, each a claim the
//! system makes about a whole run rather than one function.

use std::path::Path;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use torchgt::obs::{Event, MetricsReport};
use torchgt::tensor::backend::{detect_best, Backend};
use torchgt_compat::proptest::ProptestConfig;
use torchgt_compat::{prop_assert, proptest};
// What `schedule` (below) names through `super`.
use torchgt_compat::sync::channel::{bounded, unbounded, RecvError, RecvTimeoutError, SendError, TrySendError};

/// The channel schedule property that `compat::sync`'s unit tests run.
#[path = "../crates/compat/src/sync/schedule.rs"]
mod schedule;

/// The gates share two cores with the binaries they start: one at a time,
/// or a training child inflates the latency the serving gate measures.
fn one_cli_gate_at_a_time() -> MutexGuard<'static, ()> {
    static CLI: Mutex<()> = Mutex::new(());
    CLI.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The `peak rss: N bytes` a train run prints.
fn printed_peak_rss(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.split("peak rss: ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("train did not report its peak RSS:\n{stdout}"))
}

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
    let _gate = one_cli_gate_at_a_time();
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

/// Out-of-core training: `datagen` shards a papers100M-scale stand-in to
/// disk, `train --data-dir` streams it, and the run must (1) read a
/// genuinely sharded dataset (≥ 2 shards, a manifest hash announced),
/// (2) give epoch losses bit-identical to the same configuration trained
/// fully in memory, (3) carry the loader's prefetch gauges, the stall and
/// bytes-read ones nonzero, and (4) in an optimized build, peak below the
/// on-disk dataset size in resident memory (the out-of-core claim; a debug
/// build's unoptimized allocations are not what the claim is about). The
/// optimized build streams `scripts/verify.sh`'s 222 k-node stand-in (14
/// shards, 85 MB); a debug build trains it at ≈ 2 min a run, so there the
/// stand-in is a quarter of that (4 shards) and the first three claims are
/// checked on it.
#[test]
fn streaming_training_matches_in_memory_below_the_dataset_size() {
    let _gate = one_cli_gate_at_a_time();
    let scale = if cfg!(debug_assertions) { "0.0005" } else { "0.002" };
    let dir = std::env::temp_dir().join(format!("torchgt_gate_stream_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = dir.join("shards");
    let datagen = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .args(["datagen", "--dataset", "papers100m", "--scale", scale, "--seed", "7", "--shard-nodes", "16384"])
        .arg("--out")
        .arg(&shards)
        .output()
        .expect("CLI binary runs");
    assert!(datagen.status.success(), "datagen failed: {}", String::from_utf8_lossy(&datagen.stderr));
    assert!(String::from_utf8_lossy(&datagen.stdout).contains("manifest hash: tgds-"), "datagen announced no manifest hash");
    let files: Vec<(String, u64)> = std::fs::read_dir(&shards)
        .expect("shard directory")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name().to_string_lossy().into_owned(), e.metadata().expect("metadata").len())
        })
        .collect();
    let shard_count = files.iter().filter(|(name, _)| name.starts_with("shard-") && name.ends_with(".tgds")).count();
    assert!(shard_count >= 2, "expected ≥ 2 shards, got {shard_count}");
    let dataset_bytes: u64 = files.iter().map(|(_, len)| len).sum();

    let flags = ["--method", "gp-sparse", "--epochs", "2", "--seq-len", "128", "--hidden", "16", "--layers", "2", "--heads", "2", "--seed", "7"];
    let shards_arg = shards.to_str().expect("utf-8 path");
    let streaming: Vec<&str> = flags.iter().copied().chain(["--data-dir", shards_arg]).collect();
    let (stdout, streamed) = train_with_metrics(&streaming, &dir.join("stream.json"));
    let in_memory: Vec<&str> = flags.iter().copied().chain(["--dataset", "papers100m", "--scale", scale]).collect();
    let (_, resident) = train_with_metrics(&in_memory, &dir.join("inmem.json"));

    let losses = |r: &MetricsReport| r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>();
    assert_eq!(losses(&streamed).len(), 2, "one loss per epoch");
    assert_eq!(losses(&streamed), losses(&resident), "streaming losses diverged from the in-memory run");
    let gauge = |name: &str| {
        streamed.gauges.iter().find(|g| g.name == name).unwrap_or_else(|| panic!("{name} gauge missing")).value
    };
    for name in ["prefetch_busy_ms", "prefetch_buffer_depth", "peak_rss_bytes"] {
        gauge(name);
    }
    assert!(gauge("prefetch_stall_ms") > 0.0, "prefetch_stall_ms gauge is zero — loader gauges not wired");
    assert!(gauge("shard_bytes_read") > 0.0, "shard_bytes_read gauge is zero");
    let peak_rss = printed_peak_rss(&stdout);
    if !cfg!(debug_assertions) {
        assert!(peak_rss < dataset_bytes, "peak RSS {peak_rss} ≥ dataset size {dataset_bytes}: not out-of-core");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Numbers from outside the process are a trust boundary: an infinite
/// `--scale` sized a dataset at `usize::MAX` nodes (a `capacity overflow`
/// panic), an infinite fault duration panicked converting to a `Duration`,
/// and a scale above 1 asks for more than the original dataset. A zero
/// count (`--world`, `--shard-nodes`) must not be raised to 1 in silence.
/// Each is a usage error (exit 2) naming what it rejected, never a panic.
#[test]
fn hostile_numbers_are_usage_errors_not_panics() {
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join(format!("torchgt_gate_hostile_{}", std::process::id()));
    let out_arg = dir.to_str().expect("utf-8 path");
    let train: &[&str] = &["train", "--dataset", "arxiv", "--epochs", "1"];
    let datagen: &[&str] = &["datagen", "--dataset", "arxiv", "--scale", "0.002", "--out", out_arg];
    for (command, flags, named) in [
        (train, &["--scale", "inf"][..], "--scale"),
        (train, &["--scale", "2"], "--scale"),
        (train, &["--faults", "disk.delay=1@inf"], "disk.delay"),
        (train, &["--lr", "NaN"], "--lr"),
        (train, &["--elastic", "--world", "0"], "--world"),
        (datagen, &["--shard-nodes", "0"], "--shard-nodes"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
            .args(command)
            .args(flags)
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?} does not name {named}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `train` reads its distributed flags only under `--elastic` /
/// `--rebalance` (the recovery ladder's and `--checkpoint-dir` only under
/// `--elastic`), its resume, crash and snapshot-period flags only beside
/// `--checkpoint-dir` on a one-process run, its shard flags only beside
/// `--data-dir`, trains GT only under the supervisor, and
/// knows two model families: a flag it would not read, an unknown
/// `--model`, or a family the chosen path does not train is a usage error
/// (exit 2) naming the flag — not a one-device run, or a Graphormer run for
/// `--model gcn`, that exits 0.
#[test]
fn train_refuses_flags_it_would_not_read() {
    let _gate = one_cli_gate_at_a_time();
    let store = std::env::temp_dir().join(format!("torchgt_gate_unread_{}", std::process::id()));
    let store = store.to_str().expect("utf-8 path");
    for (flags, named) in [
        (&["--world", "4"][..], "--world"),
        (&["--min-ranks", "2"], "--min-ranks"),
        (&["--lose-rank", "1@1"], "--lose-rank"),
        (&["--max-retries", "2"], "--max-retries"),
        (&["--slow-rank", "1"], "--slow-rank"),
        (&["--slow-delay-ms", "2"], "--slow-delay-ms"),
        (&["--rebalance", "--lose-rank", "1@1"], "--lose-rank"),
        (&["--model", "gcn"], "--model"),
        (&["--elastic", "--model", "graphormer"], "--model"),
        (&["--rebalance", "--model", "graphormer"], "--model"),
        (&["--resume"], "--resume"),
        (&["--crash-after", "0"], "--crash-after"),
        (&["--checkpoint-every", "1"], "--checkpoint-every"),
        (&["--shuffle-shards"], "--shuffle-shards"),
        (&["--allow-dataset-mismatch"], "--allow-dataset-mismatch"),
        (&["--rebalance", "--checkpoint-dir", store], "--checkpoint-dir"),
        (&["--elastic", "--checkpoint-dir", store, "--resume"], "--resume"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
            .args(["train", "--dataset", "arxiv", "--scale", "0.002", "--epochs", "1"])
            .args(flags)
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?} does not name {named}: {stderr}");
    }
}

/// A negative Zipf exponent weights the tail up until the weights overflow
/// to infinity and the sampler's CDF is NaN: `serve --zipf -1000` must be a
/// usage error (exit 2) naming `--zipf`, not a run whose load generators
/// all panic while it exits 0 having served nothing.
#[test]
fn serve_refuses_a_negative_zipf_exponent() {
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join(format!("torchgt_gate_zipf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let artifact = dir.join("model.tgtf");
    let artifact_arg = artifact.to_str().expect("utf-8 path");
    let cli = |args: &[&str]| Command::new(env!("CARGO_BIN_EXE_torchgt_cli")).args(args).output().expect("CLI binary runs");
    let frozen = cli(&[
        "freeze", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "1", "--scale", "0.002",
        "--seq-len", "64", "--hidden", "8", "--layers", "1", "--heads", "2", "--seed", "7", "--out",
        artifact_arg,
    ]);
    assert!(frozen.status.success(), "freeze failed: {}", String::from_utf8_lossy(&frozen.stderr));
    let out = cli(&["serve", "--model", artifact_arg, "--queries", "8", "--zipf", "-1000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "serve --zipf -1000: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("--zipf"), "the error does not name --zipf: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero count of `serve` is a usage error (exit 2) naming its flag,
/// refused before anything is loaded. `--max-batch 0` asks for windows that
/// hold no query — not a loop that serves windows of one until a graceful
/// drain packs the whole backlog into one forward; `--clients 0` and
/// `--queue 0` must not be raised to 1 in silence.
#[test]
fn serve_refuses_zero_counts() {
    let _gate = one_cli_gate_at_a_time();
    for flag in ["--max-batch", "--clients", "--queue"] {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
            .args(["serve", "--model", "no-such-model.tgtf", "--queries", "8", flag, "0"])
            .output()
            .expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve {flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains(flag), "the error does not name {flag}: {stderr}");
    }
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
    let _gate = one_cli_gate_at_a_time();
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

/// The closed straggler loop pays for itself: with rank 1 of three slowed
/// on every send (`torchgt_bench::rebalance_skew`, the `rebalance_skew`
/// bench's measurement), training makes progress, both passes train the
/// same bits, the closed loop fires and moves sequences off the slow rank,
/// and its last three epochs take under 0.95× the static assignment's.
/// Timing means nothing in a debug build, so the case runs in release only.
#[test]
fn rebalance_beats_the_static_assignment_on_tail_epochs() {
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let skew = torchgt_bench::rebalance_skew().expect("a run without a store cannot fail");
    let (fixed, closed) = (&skew.fixed, &skew.closed);
    let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&closed.stats.epoch_losses), bits(&fixed.stats.epoch_losses));
    let losses = &fixed.stats.epoch_losses;
    assert!(losses.last() < losses.first(), "training made no progress: {losses:?}");
    assert!(closed.rebalances >= 1, "the closed loop never fired");
    assert!(closed.moved_tokens > 0, "the closed loop moved no sequences");
    assert!(
        closed.final_counts[1] < fixed.final_counts[1],
        "the slow rank shed no sequences: {:?} vs static {:?}",
        closed.final_counts,
        fixed.final_counts
    );
    assert!(
        1.0 / skew.tail_speedup < 0.95,
        "the closed loop's tail epochs take {:.3}x the static assignment's, not under 0.95x",
        1.0 / skew.tail_speedup
    );
}

/// The SIMD kernels pay for themselves: at least one matmul or softmax
/// kernel of the `simd_speedup` bench (`torchgt_bench::simd_speedup`) runs
/// ≥ 2× faster under some SIMD backend than under scalar, and every
/// kernel's checksum agrees with scalar within its parity tolerance. A
/// scalar-only CPU has nothing to gate, and timing means nothing in a debug
/// build, so the case runs in release only.
#[test]
fn simd_beats_scalar_twice_on_a_matmul_or_softmax_kernel() {
    if cfg!(debug_assertions) || detect_best() == Backend::Scalar {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let rows = torchgt_bench::simd_speedup().rows;
    for r in &rows {
        let (kernel, backend) = (&r.kernel, r.backend.name());
        assert!(r.drift <= r.tol, "{kernel} under {backend}: checksum drift {:e} over {:e}", r.drift, r.tol);
    }
    let best = rows
        .iter()
        .filter(|r| r.kernel.contains("matmul") || r.kernel.contains("softmax"))
        .map(|r| r.speedup)
        .fold(0.0, f64::max);
    assert!(best >= 2.0, "no matmul or softmax kernel runs 2x faster than scalar: best {best:.2}x");
}

/// In-process serving under Zipf load (`torchgt_bench::serve_load`, the
/// `serve_load` bench's sweep at 200, 500 and 1,000 queries/s): every
/// query is answered, and at every offered rate ≤ 500 queries/s the p99
/// meets the SLO (`slo_met`: p99 ≤ twice the 25 ms batching budget).
/// Release only.
#[test]
fn serve_load_meets_the_slo_up_to_500_qps() {
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let sweep = torchgt_bench::serve_load().expect("the frozen model serves");
    assert!(sweep.rows.len() >= 3, "{} offered rates, expected ≥ 3", sweep.rows.len());
    for r in &sweep.rows {
        let qps = r.offered_qps;
        assert_eq!(r.answered, r.stats.served, "every served query must deliver a reply at {qps} qps");
        assert_eq!(r.stats.served as usize, r.queries, "no query may be dropped at {qps} qps");
        if qps <= 500.0 {
            let p99 = r.stats.p99_latency_ms;
            assert!(r.slo_met, "p99 {p99:.3} ms exceeds the {} ms SLO at {qps} qps", sweep.slo_ms);
        }
    }
}

/// Serving past saturation (`torchgt_bench::serve_overload`, the
/// `serve_overload` bench's sweep to 2× an injected capacity): every query
/// gets a reply or a typed rejection, the 2× row sheds, its goodput stays
/// ≥ 0.9 × the plateau's, and every shed reply is issued in under 1 ms.
/// Release only.
#[test]
fn serve_overload_sheds_and_keeps_its_goodput() {
    const GOODPUT_FLOOR: f64 = 0.9;
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let rows = torchgt_bench::serve_overload().expect("the frozen model serves").rows;
    for r in &rows {
        let qps = r.offered_qps;
        assert_eq!(r.answered, r.stats.served, "every accepted query must deliver a reply at {qps} qps");
        assert_eq!(r.shed, r.stats.shed, "every shed query must deliver a typed rejection at {qps} qps");
        assert_eq!((r.answered + r.shed) as usize, r.queries, "no query may vanish without a reply at {qps} qps");
        let slowest = r.stats.shed_handling_ms_max;
        assert!(r.shed == 0 || slowest < 1.0, "shed replies must be fast: max {slowest:.3} ms at {qps} qps");
    }
    let plateau = rows.iter().map(|r| r.stats.throughput_qps).fold(0.0, f64::max);
    let overload = rows.last().expect("the sweep ran");
    assert!(overload.shed >= 1, "2x saturation shed no query");
    assert!(
        plateau > 0.0 && overload.stats.throughput_qps >= GOODPUT_FLOOR * plateau,
        "goodput collapsed past saturation: {:.1} qps vs plateau {plateau:.1} qps",
        overload.stats.throughput_qps
    );
}

/// The out-of-core loader's passes (`torchgt_bench::loader_passes`, the
/// `data_loader` bench's cold and warm passes over a sharded papers100M
/// stand-in): each delivers every shard byte exactly once per epoch, and
/// each stall fraction — time the consumer waited on the prefetcher over
/// its wall time — lies in [0, 1]. Release only.
#[test]
fn loader_stall_fractions_are_fractions() {
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join(format!("torchgt_gate_loader_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let measured = torchgt_bench::loader_passes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (report, passes) = measured.expect("datagen and both passes");
    for p in &passes {
        let epochs = p.epochs as u64;
        assert_eq!(p.bytes, report.total_bytes * epochs, "{}: every shard byte exactly once per epoch", p.label);
        let shards = report.manifest.shards.len() as u64 * epochs;
        assert_eq!(p.shards, shards, "{}: every shard exactly once per epoch", p.label);
        assert!((0.0..=1.0).contains(&p.stall_fraction), "{}: stall fraction {} outside [0, 1]", p.label, p.stall_fraction);
    }
}

/// §IV-E: pre-processing is a small fraction of training
/// (`torchgt_bench::preprocess_shares`, the `preprocess_cost` bench's
/// rows — Graphormer and GT trained by TorchGT on two stand-ins). Each
/// run's partition, reorder and masks, plus GT's one-time Laplacian
/// encodings, stay under 25 % of pre-processing plus training; GT, and only
/// GT, memoises its encodings, computing one per sequence. Release only.
#[test]
fn preprocessing_is_a_small_share_of_training() {
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    for r in torchgt_bench::preprocess_shares() {
        let at = format!("{} on {}", r.model, r.dataset);
        assert!(r.share_pct < 25.0, "{at}: pre-processing takes {:.1}% of the run, not under 25%", r.share_pct);
        assert_eq!(r.memo.is_some(), r.model == "GT", "{at}: GT, and only GT, memoises an encoding");
        if let Some(memo) = r.memo {
            assert_eq!(memo.misses, r.sequences as u64, "{at}: one encoding per sequence, {memo:?}");
        }
    }
}

/// TorchGT's set-up keeps little beyond what GP-Sparse holds: one epoch on
/// the products stand-in at scale 0.02 (48,980 nodes, 1.16 M edges) and
/// S = 1,024 peaks at most 44 MiB above GP-Sparse's run of the same
/// configuration. Both print their peak RSS. The bound is the difference
/// measured when set-up stopped keeping a reordered copy of the features,
/// the whole graph and 12-byte partitioner arcs (33.4 MiB, from 75.5 MiB
/// before), plus 10 MiB. Release only.
#[test]
fn torchgt_setup_peaks_near_gp_sparse() {
    if cfg!(debug_assertions) {
        return;
    }
    let _gate = one_cli_gate_at_a_time();
    let peak = |method: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
            .args(["train", "--dataset", "products", "--method", method, "--scale", "0.02", "--seq-len", "1024"])
            .args(["--hidden", "64", "--layers", "2", "--heads", "4", "--seed", "7", "--epochs", "1"])
            .output()
            .expect("CLI binary runs");
        assert!(out.status.success(), "train --method {method} failed: {}", String::from_utf8_lossy(&out.stderr));
        printed_peak_rss(&String::from_utf8_lossy(&out.stdout)) as f64 / (1u64 << 20) as f64
    };
    let (torchgt, gp_sparse) = (peak("torchgt"), peak("gp-sparse"));
    assert!(
        torchgt - gp_sparse <= 33.4 + 10.0,
        "TorchGT peaks at {torchgt:.1} MiB, {:.1} MiB above GP-Sparse's {gp_sparse:.1} MiB (bound 43.4)",
        torchgt - gp_sparse
    );
}

/// Quantized serving end to end: `freeze` trains a short model into a TGTF
/// artifact (the freeze itself enforces the ≤ 1 % quantized-accuracy gate),
/// then `serve` answers 128 Zipf queries offered at 500 queries/s from it
/// with a 25 ms batching budget. Every query must be answered, the metrics
/// must carry the serving gauges, and in an optimized build the
/// accepted-query p99 must stay within the 50 ms SLO.
#[test]
fn quantized_serving_answers_every_query_within_the_slo() {
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join(format!("torchgt_gate_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (artifact, metrics) = (dir.join("model.tgtf"), dir.join("serve.json"));
    let (artifact_arg, metrics_arg) = (artifact.to_str().expect("utf-8 path"), metrics.to_str().expect("utf-8 path"));
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli")).args(args).output().expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{} failed: {stderr}", args[0]);
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&[
        "freeze", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "2", "--scale", "0.002",
        "--seq-len", "128", "--hidden", "16", "--layers", "2", "--heads", "2", "--seed", "7", "--out",
        artifact_arg,
    ]);
    assert!(artifact.exists(), "TGTF artifact missing");
    let stdout = run(&[
        "serve", "--model", artifact_arg, "--queries", "128", "--qps", "500", "--budget-ms", "25",
        "--metrics", metrics_arg,
    ]);
    assert!(stdout.contains("served 128 queries"), "not every query was answered:\n{stdout}");
    let report = MetricsReport::from_json_str(&std::fs::read_to_string(&metrics).expect("metrics written"))
        .expect("metrics parse");
    let gauge = |name: &str| {
        report.gauges.iter().find(|g| g.name == name).unwrap_or_else(|| panic!("{name} gauge missing")).value
    };
    for name in ["queue_depth", "throughput_qps"] {
        gauge(name);
    }
    // Every window that runs the executor records how it split between
    // packing and the forward, and the run prints both medians; a window
    // whose members the answer table holds runs neither.
    let counter = |name: &str| {
        report.counters.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("{name} counter missing")).value
    };
    let (batches, forwards) = (counter("serve_batches"), counter("serve_forwards"));
    assert!(forwards <= batches, "{forwards} executor runs in {batches} windows");
    for (span, p50) in [("serve/pack", "pack_ms_p50"), ("serve/forward", "forward_ms_p50")] {
        let stat = report.span(span).unwrap_or_else(|| panic!("{span} span missing"));
        assert_eq!(stat.count, forwards, "one {span} span per window that runs the executor");
        assert!(gauge(p50) > 0.0, "{p50} gauge is {}", gauge(p50));
    }
    assert!(stdout.contains("per batch: pack p50"), "the pack/forward split is not printed:\n{stdout}");
    // Every served query was answered from the table or executed, and the
    // run prints the table's hit rate.
    assert_eq!(
        counter("serve_answer_hits") + counter("serve_answer_misses"),
        counter("queries_served"),
        "answers are not one per served query"
    );
    assert_eq!(counter("queries_served"), 128);
    assert!(stdout.contains("answered from the table"), "the answer table's hit rate is not printed:\n{stdout}");
    let p99 = gauge("p99_latency_ms");
    assert!(p99.is_finite() && p99 > 0.0, "p99_latency_ms gauge is {p99}");
    // The SLO is the optimized server's. A debug build's unoptimized kernels
    // (the scalar backend above all: p99 ≈ 470 ms) serve a batch slower
    // than 500 queries/s arrive, so there only the answers and the gauges
    // are checked; `scripts/verify.sh` runs this gate in release.
    if !cfg!(debug_assertions) {
        assert!(p99 <= 50.0, "serve p99 {p99:.3} ms exceeds the 50 ms SLO at 500 queries/s");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Self-healing makes injected disk faults invisible to the numbers. Under
/// a seeded plan of read errors, torn and flipped reads and slow reads,
/// `datagen` and a checkpointing `train --data-dir` must succeed with
/// per-epoch losses bit-identical to the fault-free run, and the metrics
/// must record an `io_retry`. Then a byte flip in the newest snapshot:
/// `--resume` must quarantine it, fall back to the one before
/// (`snapshot_fallback`) and retrain to the fault-free final loss. The
/// directory is a fixed path on purpose: disk fault decisions are keyed by
/// (seed, path, per-path op counter), so a stable path pins the decision
/// stream run to run.
#[test]
fn chaos_plan_heals_to_the_fault_free_losses() {
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join("torchgt-chaos-gate");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan = "seed=7,disk.read_err=0.3,disk.torn=0.02,disk.flip=0.02,disk.delay=0.1@0.2ms";
    let (shards, ckpts) = (dir.join("shards"), dir.join("ckpts"));
    let (shards_arg, ckpts_arg) = (shards.to_str().expect("utf-8 path"), ckpts.to_str().expect("utf-8 path"));
    let datagen = Command::new(env!("CARGO_BIN_EXE_torchgt_cli"))
        .args(["datagen", "--dataset", "arxiv", "--scale", "0.004", "--seed", "7", "--out", shards_arg])
        .args(["--shard-nodes", "250", "--faults", plan])
        .output()
        .expect("CLI binary runs");
    assert!(datagen.status.success(), "datagen under faults failed: {}", String::from_utf8_lossy(&datagen.stderr));
    let train = |extra: &[&str], metrics: &str| {
        let flags = [
            "--method", "gp-sparse", "--epochs", "4", "--seq-len", "128", "--hidden", "16", "--layers", "2",
            "--heads", "2", "--seed", "7", "--data-dir", shards_arg,
        ];
        let args: Vec<&str> = flags.iter().chain(extra).copied().collect();
        train_with_metrics(&args, &dir.join(metrics)).1
    };
    let losses = |r: &MetricsReport| r.epochs.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>();
    let clean = train(&[], "clean.json");
    let faulted = train(&["--checkpoint-dir", ckpts_arg, "--checkpoint-every", "1", "--faults", plan], "faulted.json");
    assert_eq!(losses(&clean).len(), 4, "one loss per epoch");
    assert_eq!(losses(&faulted), losses(&clean), "healed losses diverged from the fault-free run");
    assert!(!faulted.events_of(Event::IO_RETRY).is_empty(), "no io_retry event recorded under the fault plan");

    let mut snapshots: Vec<_> = std::fs::read_dir(&ckpts)
        .expect("checkpoint directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("snapshot-") && name.ends_with(".tgtck")
        })
        .collect();
    snapshots.sort();
    let newest = snapshots.last().expect("a snapshot was written");
    let mut bytes = std::fs::read(newest).expect("read snapshot");
    bytes[100] ^= 0x5a;
    std::fs::write(newest, bytes).expect("corrupt snapshot");
    let resumed = train(&["--checkpoint-dir", ckpts_arg, "--resume"], "resumed.json");
    assert!(!resumed.events_of(Event::SNAPSHOT_FALLBACK).is_empty(), "no snapshot_fallback event on corrupt resume");
    let quarantined = std::fs::read_dir(&ckpts)
        .expect("checkpoint directory")
        .any(|e| e.expect("dir entry").path().extension().is_some_and(|x| x == "quarantined"));
    assert!(quarantined, "the corrupt snapshot was not quarantined");
    let last = |r: &MetricsReport| losses(r).last().copied();
    assert_eq!(last(&resumed), last(&clean), "resumed final-epoch loss diverged from the fault-free run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load shedding end to end: `freeze` writes its artifact under a seeded
/// disk-fault plan (the write and the verifying read heal), then `serve`
/// runs a burst-injected overload from it — 256 queries offered at 4000
/// queries/s, a 5 ms budget, a shed watermark of 2, slowed batches and
/// bursts from the fault plane. The run must shed, and every shed must
/// surface as a `load_shed` event and in the `queries_shed` counter; in an
/// optimized build the accepted-query p99 must still meet the 50 ms SLO
/// (a debug build only sheds more). The temp directory is a fixed path
/// on purpose: disk fault decisions are keyed by (seed, path, per-path op
/// counter), so a stable path pins the decision stream run to run.
#[test]
fn serve_sheds_under_overload_and_keeps_the_slo() {
    let _gate = one_cli_gate_at_a_time();
    let dir = std::env::temp_dir().join("torchgt_gate_shed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (artifact, metrics) = (dir.join("model.tgtf"), dir.join("serve.json"));
    let (artifact_arg, metrics_arg) = (artifact.to_str().expect("utf-8 path"), metrics.to_str().expect("utf-8 path"));
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_torchgt_cli")).args(args).output().expect("CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{} under faults failed: {stderr}", args[0]);
    };
    run(&[
        "freeze", "--dataset", "arxiv", "--method", "torchgt", "--epochs", "2", "--scale", "0.002",
        "--seq-len", "128", "--hidden", "16", "--layers", "2", "--heads", "2", "--seed", "7", "--out",
        artifact_arg, "--faults", "seed=7,disk.read_err=0.3,disk.torn=0.02,disk.flip=0.02,disk.delay=0.1@0.2ms",
    ]);
    run(&[
        "serve", "--model", artifact_arg, "--queries", "256", "--qps", "4000", "--budget-ms", "5",
        "--shed-watermark", "2", "--metrics", metrics_arg, "--faults",
        "seed=7,disk.read_err=0.25,disk.torn=0.1,disk.flip=0.1,serve.slow=0.6@2ms,serve.burst=0.3@8",
    ]);
    let report = MetricsReport::from_json_str(&std::fs::read_to_string(&metrics).expect("metrics written"))
        .expect("metrics parse");
    assert!(!report.events_of(Event::LOAD_SHED).is_empty(), "no load_shed event recorded under overload");
    let shed = report.counters.iter().find(|c| c.name == "queries_shed").map(|c| c.value);
    assert!(shed.is_some_and(|n| n >= 1), "expected ≥ 1 shed query under overload, got {shed:?}");
    let p99 = report.gauges.iter().find(|g| g.name == "p99_latency_ms").expect("p99_latency_ms gauge").value;
    if !cfg!(debug_assertions) {
        assert!(p99 <= 50.0, "accepted p99 {p99:.3} ms exceeds the 50 ms SLO while shedding");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 0 } else { 1000 }))]

    /// `compat::sync`'s schedule property at 1,000 cases against its unit
    /// tests' 48, in release only: there both ends of a hand-off run at full
    /// speed on the two vCPUs, so the channels' spin, park and wake-up
    /// races are hit at their real timing.
    #[test]
    fn channel_schedules_lose_no_message_and_no_wake_up_in_release(seed in 0u64..u64::MAX) {
        // Each case's threads would share the vCPUs with the timed gates.
        let _gate = one_cli_gate_at_a_time();
        let case = schedule::Case::from_seed(seed);
        let outcome = schedule::run(&case, std::time::Duration::from_secs(20));
        prop_assert!(outcome.is_ok(), "{:?} on {case:?}", outcome);
    }
}
