//! The ledger's vocabulary and bookkeeping: the metric names (the ruler later
//! changes are measured with), the per-run row store, the correctness-check
//! tally, the bench-side span recorder, and the small statistics helpers.

use std::time::Instant;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics carry none.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload. Bounds were calibrated on the seed tree (README, "Calibration").
pub const E2E: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("items_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.15),
];

use Better::{Higher, Lower};

/// Per-layer metrics: produced by the traced run. A workload that bypasses a
/// layer reports 0 for that layer's rows — that zero is the "bypass" half of
/// every exercise/bypass pair.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    layer("graph.generate.s", "s", Lower),
    layer("graph.partition.s", "s", Lower),
    layer("graph.conditions.s", "s", Lower),
    // sparse
    layer("sparse.reform.s", "s", Lower),
    layer("sparse.reform.count", "count", Lower),
    layer("sparse.reform.nnz_ratio", "ratio", Lower),
    layer("sparse.mask.nnz_per_token", "count", Lower),
    // runtime
    layer("runtime.preprocess.s", "s", Lower),
    layer("runtime.step.forward_s", "s", Lower),
    layer("runtime.step.backward_s", "s", Lower),
    layer("runtime.step.optim_s", "s", Lower),
    layer("runtime.eval.s", "s", Lower),
    layer("runtime.step.sparse_ms_p50", "ms", Lower),
    layer("runtime.step.full_ms_p50", "ms", Lower),
    layer("runtime.step.ms_p90", "ms", Lower),
    layer("runtime.step.full_frac", "ratio", Lower),
    layer("runtime.autotune.beta_transitions", "count", Lower),
    layer("runtime.epoch.unattributed_frac", "ratio", Lower),
    layer("runtime.dp.scaling_eff", "ratio", Higher),
    layer("runtime.train_tokens_per_s", "1/s", Higher),
    layer("runtime.time_to_acc_s", "s", Lower),
    // model
    layer("model.attention.sparse_fwd_ms", "ms", Lower),
    layer("model.attention.sparse_bwd_ms", "ms", Lower),
    layer("model.attention.flash_fwd_ms", "ms", Lower),
    layer("model.attention.flash_bwd_ms", "ms", Lower),
    layer("model.attention.sparse_gflops", "GFLOP/s", Higher),
    layer("model.attention.flash_gflops", "GFLOP/s", Higher),
    layer("model.encodings.ms", "ms", Lower),
    // tensor
    layer("tensor.matmul_bt.ms", "ms", Lower),
    layer("tensor.matmul_bt.gflops", "GFLOP/s", Higher),
    layer("tensor.matmul_bt.pct_host_peak", "%", Higher),
    layer("tensor.softmax.ms", "ms", Lower),
    layer("tensor.gelu.ms", "ms", Lower),
    layer("tensor.adam.ms", "ms", Lower),
    layer("tensor.workspace.alloc_bytes_steady", "B", Lower),
    layer("tensor.workspace.reuse_hits", "count", Higher),
    layer("tensor.backend", "id", Higher),
    // compat
    layer("compat.par.speedup", "ratio", Higher),
    // comm
    layer("comm.allreduce.calls_per_step", "count", Lower),
    layer("comm.allreduce.bytes_per_step", "B", Lower),
    layer("comm.allreduce.ms_per_step", "ms", Lower),
    layer("comm.all_to_all.calls_per_attn", "count", Lower),
    layer("comm.all_to_all.bytes_per_token", "B", Lower),
    layer("comm.all_to_all.mib_per_s", "MiB/s", Higher),
    layer("comm.seqpar.attn_ms", "ms", Lower),
    layer("comm.seqpar.eff", "ratio", Higher),
    layer("comm.overlap.speedup", "ratio", Higher),
    // data
    layer("data.datagen.mib_per_s", "MiB/s", Higher),
    layer("data.loader.cold_mib_per_s", "MiB/s", Higher),
    layer("data.loader.stall_frac", "ratio", Lower),
    layer("data.loader.bytes_per_epoch", "B", Lower),
    layer("data.loader.retries", "count", Lower),
    // ckpt
    layer("ckpt.save.ms_p50", "ms", Lower),
    layer("ckpt.save.bytes", "B", Lower),
    layer("ckpt.load.ms", "ms", Lower),
    layer("ckpt.stall_frac", "ratio", Lower),
    // serve
    layer("serve.freeze.s", "s", Lower),
    layer("serve.artifact.bytes", "B", Lower),
    layer("serve.load.ms", "ms", Lower),
    layer("serve.exec.batch_ms", "ms", Lower),
    layer("serve.batch.avg_size", "count", Higher),
    layer("serve.queue.max_depth", "count", Lower),
    layer("serve.shed_frac", "ratio", Lower),
    layer("serve.acc_drop", "ratio", Lower),
    layer("serve.gen.late_ms_p99", "ms", Lower),
    layer("serve.capacity_qps", "1/s", Higher),
    layer("serve.p50_ms", "ms", Lower),
    layer("serve.p99_ms", "ms", Lower),
    // obs / perf / host
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("perf.sim_over_measured", "ratio", Lower),
    layer("host.stream_gib_per_s", "GiB/s", Higher),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.noise_frac", "ratio", Lower),
];

pub const WORKLOADS: &[&str] = &[
    "node_long",
    "graph_batched",
    "dp2",
    "stream_ckpt",
    "serve_zipf",
];

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// One reported value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
}

/// What one workload run reports: metric rows, correctness checks, and the
/// operations it attempted.
#[derive(Default)]
pub struct Ledger {
    pub rows: Vec<Row>,
    pub failed_checks: Vec<String>,
    pub checks_run: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Report a metric. The name must be declared in [`E2E`] or
    /// [`PER_LAYER`] and may be set once: a typo or a double report is a bug
    /// in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = find(E2E, name)
            .or_else(|| find(PER_LAYER, name))
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in ledger.rs"));
        assert!(
            self.rows.iter().all(|r| r.def.name != name),
            "metric `{name}` reported twice"
        );
        self.rows.push(Row {
            def,
            value,
            samples,
        });
    }

    /// Record a correctness check; a failed check fails the workload.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks_run += 1;
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    /// Count operations (epochs, collective calls, queries) against failures.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty() && self.failed == 0
    }

    /// Close the ledger for one mode: every declared metric of `defs` must
    /// appear exactly once. A per-layer row nobody set belongs to a layer
    /// this workload bypasses and reads 0; a missing end-to-end row is a bug.
    pub fn finish(&mut self, defs: &'static [MetricDef], fill_missing: bool) -> Vec<Row> {
        let mut out = Vec::with_capacity(defs.len());
        for def in defs {
            match self.rows.iter().find(|r| r.def.name == def.name) {
                Some(r) => out.push(*r),
                None if fill_missing => out.push(Row {
                    def,
                    value: 0.0,
                    samples: 0,
                }),
                None => panic!("end-to-end metric `{}` was not reported", def.name),
            }
        }
        for r in &out {
            if !r.value.is_finite() {
                self.check(&format!("metric {} is finite", r.def.name), false);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Bench-side spans
// ---------------------------------------------------------------------------

/// One span: `{id, parent, name, start_ns, end_ns}` relative to the tracer's
/// origin. `id` is the index into [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder, flushed to JSON when the run ends. Disabled
/// (every call a no-op) in the untraced run, so end-to-end numbers carry no
/// tracing cost at all. Clock reads happen only where the caller places
/// `begin`/`end`: after `train_epoch` returns, after `DeviceGroup::run`
/// returns, after a shard stream is drained — never inside overlapped work.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span and return its seconds (0 when off).
    pub fn end(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let now = self.now_ns();
        let id = self
            .stack
            .pop()
            .expect("Tracer::end without a matching begin");
        self.spans[id].end_ns = now;
        (now - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Time `f` under a span; returns its result and the measured seconds
    /// (the seconds are measured even when spans are off).
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name);
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        self.end();
        (r, s)
    }

    /// Attach child spans of known duration (phase totals read from the
    /// program's `EpochTrace`) end to end from the start of span `parent`.
    /// Their positions inside the parent are synthetic; their lengths are the
    /// program's own measurements. Zero-length phases are skipped.
    pub fn add_children(&mut self, parent: usize, phases: &[(&str, f64)]) {
        if !self.on {
            return;
        }
        let mut at = self.spans[parent].start_ns;
        for &(name, seconds) in phases {
            let len = (seconds.max(0.0) * 1e9) as u64;
            if len == 0 {
                continue;
            }
            self.spans.push(Span {
                parent: Some(parent),
                name: name.to_string(),
                start_ns: at,
                end_ns: at + len,
            });
            at += len;
        }
    }

    /// Total seconds of the direct children of span `id`.
    pub fn children_seconds(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Self time per span name (span − children), summed over the tree:
    /// the "where did the traced time go" table.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut by: std::collections::BTreeMap<String, f64> = Default::default();
        for (id, s) in self.spans.iter().enumerate() {
            let own = (self.seconds(id) - self.children_seconds(id)).max(0.0);
            *by.entry(s.name.clone()).or_default() += own;
        }
        let mut v: Vec<_> = by.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

// ---------------------------------------------------------------------------
// Statistics and process probes
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of unsorted samples (0 on empty input).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The end-to-end estimator for the time of a steady operation: the fastest
/// decile of the run's host-normalised samples. What disturbs a sample on
/// the shared sandbox (a descheduled vCPU, a neighbour on the memory system)
/// only ever adds time, so the low end of the distribution repeats better
/// from run to run than its middle (calibration runs: 5-20 % against 6-50 %
/// for the median); a decile rather than the minimum, so that one lucky
/// sample cannot set the number when there are many.
pub fn steady_estimate(seconds: &[f64]) -> f64 {
    quantile(seconds, 0.10)
}

/// One line of distribution beside a reported median, so the tail stays
/// visible, and every sample behind it.
pub fn print_distribution(what: &str, seconds: &[f64]) {
    println!(
        "{what}: n={} min={:.4} p10={:.4} p50={:.4} p90={:.4} max={:.4} (s)",
        seconds.len(),
        quantile(seconds, 0.0),
        quantile(seconds, 0.10),
        quantile(seconds, 0.5),
        quantile(seconds, 0.9),
        quantile(seconds, 1.0),
    );
    let all: Vec<String> = seconds.iter().map(|s| format!("{s:.6}")).collect();
    println!("samples[{what}]: {}", all.join(" "));
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so `--repeat` computes the spread the driver does.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
