//! `perf_ledger` — one measured, layered, wall-clock benchmark for training,
//! distributed, streaming and serving. See `README.md` beside this file.
//!
//! One process runs one workload:
//!
//! ```sh
//! perf_ledger --workload node_long --seed 1 --seconds 10 --trace 0
//! ```
//!
//! prints every metric by name with its unit and sample count, runs the
//! workload's correctness checks, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures the
//! end-to-end metrics with no recorder attached and no spans kept;
//! `--trace 1` repeats the workload with the recorder on, bench-side spans
//! and layer probes, and reports the per-layer metrics instead.
//!
//! Without `--workload` the program re-executes itself once per workload
//! (so `VmHWM` and the thread plan are per workload); `--repeat N` does that
//! N times on the same seed and prints the calibration table; `--smoke`
//! shrinks every workload to about a second with all checks on.

mod dp2;
mod graph_batched;
mod host;
mod ledger;
mod node_long;
mod probes;
mod serve_zipf;
mod stream_ckpt;
mod train;

use host::{HostClock, Timed};
use ledger::{
    median, quartiles_exclusive, Better, Ledger, MetricDef, Row, Tracer, E2E, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use torchgt_compat::json;

/// Everything a workload needs from the command line, plus where it reports.
pub struct Ctx {
    pub seed: u64,
    seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch directory for shards, checkpoints and artifacts (inside the
    /// build directory, removed when the run ends).
    pub dir: PathBuf,
    pub tracer: Tracer,
    pub ledger: Ledger,
    /// Times every set-up and operation (see [`HostClock`]).
    pub clock: HostClock,
    /// `VmHWM` read by the workload after set-up and a fixed number of
    /// operations. The measured phase is bounded by time, so the number of
    /// operations — and with it allocator growth — varies with host speed;
    /// reading the high-water mark at a fixed amount of work makes
    /// `peak_rss_mib` repeat.
    pub rss_mib: Option<f64>,
}

impl Ctx {
    /// Whether set-up should run again. The untraced run repeats it until
    /// two seconds of set-up have accumulated, three times at least and forty
    /// at most, and reports the median, so that a 5 ms set-up is not judged on
    /// three samples; the traced run needs exactly one span tree.
    pub fn more_setups(&self, done: &[Timed]) -> bool {
        if self.trace {
            return done.is_empty();
        }
        if self.smoke {
            return done.len() < 2;
        }
        let spent: f64 = done.iter().map(|t| t.raw_s).sum();
        done.len() < 3 || (done.len() < 40 && spent < 2.0)
    }

    /// Wall-clock budget of the measured phase. The traced run spends 70 %
    /// of `--seconds` there and the rest on probes and controls.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * 0.7
        } else {
            self.seconds
        }
    }

    pub fn probe_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            7
        }
    }

    /// The end-to-end rows a workload derives from its operation clock (one
    /// operation = one epoch, one `dp2` call, one closed-loop round): the
    /// median set-up, and the steady operation (`ledger::steady_estimate`)
    /// as a rate, in host-normalised seconds. `ops` excludes operation 0,
    /// which pays cold pools and first-touch page faults.
    pub fn report_ops(&mut self, setups: &[Timed], items_per_op: f64, ops: &[Timed]) {
        let setup_s = median(&self.clock.report("set-up", setups));
        let op_s = ledger::steady_estimate(&self.clock.report("steady operations", ops));
        self.ledger.set("setup_s", setup_s, setups.len());
        self.ledger
            .set("items_per_s", items_per_op / op_s, ops.len());
    }

    /// `compat.par.speedup`: a control child runs the same epochs at the
    /// program's *default* thread count (one worker per core); the ratio is
    /// this process's one-thread epoch time over the child's, on the untraced
    /// epochs both ran. Below 1.0 means threads cost time.
    pub fn par_speedup_row(&mut self, workload: &str, run: &train::EpochRun) {
        let epochs = run.walls.len().min(4);
        self.tracer.begin("control.default_threads");
        let child = control_child(workload, self.seed, self.smoke, epochs);
        self.tracer.end();
        let pairs: Vec<(f64, f64)> = (1..epochs.min(child.len()))
            .filter(|&i| !run.traced[i])
            .map(|i| (run.walls[i] - run.hook_s[i], child[i]))
            .collect();
        if pairs.is_empty() {
            return;
        }
        let one: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let dflt: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let ratio = median(&one) / median(&dflt);
        self.ledger.set("compat.par.speedup", ratio, pairs.len());
    }
}

/// Re-execute this program as a control: same workload and seed, `epochs`
/// epochs, with the thread count left to the program. Returns the child's
/// epoch wall-clocks.
fn control_child(workload: &str, seed: u64, smoke: bool, epochs: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--control-epochs", &epochs.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    cmd.env_remove("TORCHGT_THREADS");
    let out = cmd.output().expect("control child runs");
    assert!(
        out.status.success(),
        "control child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("control_epochs_s:"))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    control_epochs: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_ledger --seed <u64> [--workload <{}>] [--seconds <n>] [--trace [0|1]] [--repeat N] [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        control_epochs: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i);
                if !WORKLOADS.contains(&w.as_str()) {
                    eprintln!("unknown workload `{w}`");
                    usage();
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                a.seconds = Some(s);
            }
            "--repeat" => a.repeat = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--control-epochs" => {
                a.control_epochs = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--smoke" => a.smoke = true,
            // `--trace` alone turns tracing on; `--trace 0|1` is the form the
            // benchmark driver passes.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            _ => usage(),
        }
        i += 1;
    }
    a
}

/// Default measured seconds: what `BENCHMARK.json` states as `run_seconds`.
const RUN_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

fn main() -> ExitCode {
    let args = parse_args();
    match (&args.workload, args.control_epochs) {
        (Some(w), Some(epochs)) => {
            let walls = match w.as_str() {
                "node_long" => node_long::control_epochs(args.seed, args.smoke, epochs),
                "graph_batched" => graph_batched::control_epochs(args.seed, args.smoke, epochs),
                _ => usage(),
            };
            let text: Vec<String> = walls.iter().map(|s| format!("{s:?}")).collect();
            println!("control_epochs_s: {}", text.join(" "));
            ExitCode::SUCCESS
        }
        (Some(w), None) => run_one(w, &args),
        (None, _) => run_set(&args),
    }
}

/// The thread plan: every workload's kernels run on one worker thread
/// (`TORCHGT_THREADS=1`) unless the caller set the variable. `dp2` already
/// runs two ranks, `serve_zipf` a server plus a generator and `stream_ckpt`
/// a prefetch thread, so more workers would oversubscribe the two cores of
/// the reference sandbox. The single-device workloads are pinned too, which
/// is not what a default user runs: at the default count `compat::par`
/// spawns a `thread::scope` per parallel op, and the median epoch of six
/// consecutive runs then ranged 0.63-2.40 s on `graph_batched` and
/// 1.93-3.27 s on `node_long` (1.6-1.8 s pinned) — no bound the benchmark
/// contract allows can hold that, so the default count cannot carry an
/// end-to-end metric on this host. What threads cost is the per-layer row
/// `compat.par.speedup`; a change to the fan-out is measured by running
/// parent and change with `TORCHGT_THREADS` set by the caller, which this
/// function leaves alone. Must run before the first kernel call: the worker
/// count is read once.
fn pin_threads() {
    if std::env::var_os("TORCHGT_THREADS").is_none() {
        std::env::set_var("TORCHGT_THREADS", "1");
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    pin_threads();
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    });
    let out_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perf_ledger_out")))
        .expect("own executable has a parent directory");
    let dir = out_dir.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        dir: dir.clone(),
        tracer: Tracer::new(args.trace),
        ledger: Ledger::default(),
        clock: HostClock::new(),
        rss_mib: None,
    };

    ctx.tracer.begin(workload);
    match workload {
        "node_long" => node_long::run(&mut ctx),
        "graph_batched" => graph_batched::run(&mut ctx),
        "dp2" => dp2::run(&mut ctx),
        "stream_ckpt" => stream_ckpt::run(&mut ctx),
        "serve_zipf" => serve_zipf::run(&mut ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    ctx.tracer.end();
    let _ = std::fs::remove_dir_all(&dir);

    let Ctx {
        mut ledger,
        tracer,
        clock,
        rss_mib,
        ..
    } = ctx;
    let noise = clock.noise_frac();
    let rows = if args.trace {
        ledger.set("host.noise_frac", noise, clock.bursts.len());
        ledger.finish(PER_LAYER, true)
    } else {
        ledger.set(
            "peak_rss_mib",
            rss_mib.unwrap_or_else(ledger::peak_rss_mib),
            1,
        );
        ledger.finish(E2E, false)
    };
    if args.smoke {
        self_check(&mut ledger, &rows, &tracer);
    }

    println!(
        "perf_ledger {workload} seed={} seconds={seconds} trace={} threads={} nproc={}",
        args.seed,
        u8::from(args.trace),
        std::env::var("TORCHGT_THREADS").unwrap_or_else(|_| "default".into()),
        host::nproc()
    );
    println!(
        "{:<40} {:>16} {:<8} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for r in &rows {
        println!(
            "{:<40} {:>16.6} {:<8} {:>7}",
            r.def.name, r.value, r.def.unit, r.samples
        );
    }
    let burst_s: Vec<f64> = clock.bursts.iter().map(|b| b.1).collect();
    println!(
        "host: {} reference bursts, fastest decile {:.2} ms, median {:.2} ms (nominal {:.2} ms), p90-p10 spread {:.1}%{}",
        burst_s.len(),
        ledger::quantile(&burst_s, 0.1) * 1e3,
        median(&burst_s) * 1e3,
        host::REFERENCE_BURST_S * 1e3,
        noise * 100.0,
        if noise > NOISE_BOUND { " - noisy" } else { "" }
    );
    if args.trace {
        print_span_table(&tracer);
        let path = out_dir.join(format!("trace_{workload}.json"));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => println!("spans: {} -> {}", tracer.spans.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let failed = if ledger.failed_checks.is_empty() {
        ledger.failed
    } else {
        ledger.attempted.max(1)
    };
    println!(
        "checks: {} run, {} failed; ops_attempted={} ops_failed={}",
        ledger.checks_run,
        ledger.failed_checks.len(),
        ledger.attempted,
        failed
    );
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                r.def.name, r.value, r.def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A run during which the host's speed moved by more than this is printed as
/// `noisy` rather than silently averaged.
const NOISE_BOUND: f64 = 0.25;

/// Where the traced time went, by span name, with the self-time rule
/// (span − children) applied.
fn print_span_table(tracer: &Tracer) {
    let total = tracer.spans.first().map_or(0.0, |_| tracer.seconds(0));
    println!(
        "{:<28} {:>10} {:>7}",
        "span (self time)", "seconds", "share"
    );
    for (name, s) in tracer.self_time_by_name() {
        println!(
            "{:<28} {:>10.4} {:>6.1}%",
            name,
            s,
            100.0 * s / total.max(1e-12)
        );
    }
}

/// The schema self-check `--smoke` runs: the rows are exactly the declared
/// metrics, names are well-formed, values finite, `BENCHMARK.json` (when the
/// working directory has it) names the same metrics, and no span's children
/// outlast it.
fn self_check(ledger: &mut Ledger, rows: &[Row], tracer: &Tracer) {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    ledger.check(
        "metric names match [A-Za-z0-9_.-]+",
        rows.iter().all(|r| name_ok(r.def.name)),
    );
    ledger.check(
        "no metric is NaN or infinite",
        rows.iter().all(|r| r.value.is_finite()),
    );
    let mut names: Vec<&str> = rows.iter().map(|r| r.def.name).collect();
    names.sort_unstable();
    names.dedup();
    ledger.check(
        "every metric is printed exactly once",
        names.len() == rows.len(),
    );
    for id in 0..tracer.spans.len() {
        let own = tracer.seconds(id);
        if tracer.children_seconds(id) > own * 1.05 + 1e-6 {
            ledger.check(
                &format!("children of span `{}` fit inside it", tracer.spans[id].name),
                false,
            );
        }
    }
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        // Same names, units, directions and (end-to-end) bounds, in any order.
        let declared = |key: &str, defs: &[MetricDef]| {
            json::from_str(&text).ok().and_then(|v| {
                let listed = v.get(key)?.as_array()?;
                let matches = |d: &MetricDef| {
                    listed.iter().any(|m| {
                        let text = |k: &str| m.get(k).and_then(|x| x.as_str());
                        let better = match d.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        };
                        let bound = m.get("bound").and_then(|x| x.as_f64()).unwrap_or(0.0);
                        text("name") == Some(d.name)
                            && text("unit") == Some(d.unit)
                            && text("better") == Some(better)
                            && bound == d.bound
                    })
                };
                Some(listed.len() == defs.len() && defs.iter().all(matches))
            })
        };
        ledger.check(
            "BENCHMARK.json end_to_end matches ledger.rs",
            declared("end_to_end", E2E) == Some(true),
        );
        ledger.check(
            "BENCHMARK.json per_layer matches ledger.rs",
            declared("per_layer", PER_LAYER) == Some(true),
        );
    }
}

// ---------------------------------------------------------------------------
// The whole set, and calibration
// ---------------------------------------------------------------------------

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("workload child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return None;
    }
    let v = json::from_str(stdout.lines().last()?).ok()?;
    let metrics = match v.get("metrics")? {
        json::Value::Object(fields) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return None,
    };
    Some(ChildResult {
        correct: v.get("correct")?.as_bool()?,
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}

/// Run every workload in its own process, `--repeat` times on the same seed
/// (so the spread is run-to-run noise, not seed variance) with the order
/// alternating, then print each end-to-end metric's median, quartiles and
/// IQR/median per workload. Exits non-zero when a workload fails or the
/// spread of any end-to-end metric exceeds its bound.
fn run_set(args: &Args) -> ExitCode {
    let mut ok = true;
    // samples[workload][metric] over repeats
    let mut samples: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); E2E.len()]; WORKLOADS.len()];
    for rep in 0..args.repeat.max(1) {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let w = WORKLOADS[wi];
            match run_child(w, args, false) {
                Some(r) => {
                    ok &= r.correct && r.failed == 0 && r.attempted >= 1;
                    for (mi, def) in E2E.iter().enumerate() {
                        if let Some((_, v)) = r.metrics.iter().find(|(k, _)| k == def.name) {
                            samples[wi][mi].push(*v);
                        }
                    }
                }
                None => ok = false,
            }
            if args.trace {
                ok &= run_child(w, args, true).is_some_and(|r| r.correct);
            }
        }
    }
    println!(
        "\n== end-to-end summary over {} run(s) per workload ==",
        args.repeat.max(1)
    );
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, def) in E2E.iter().enumerate() {
            let v = &samples[wi][mi];
            let (q1, med, q3) = quartiles_exclusive(v);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let over = v.len() >= 4 && spread > def.bound;
            ok &= !over;
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                w,
                def.name,
                q1,
                med,
                q3,
                spread * 100.0,
                def.bound * 100.0,
                if over { "  SPREAD EXCEEDS BOUND" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
