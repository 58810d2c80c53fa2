//! `criterion`-style micro-bench harness: wall-clock timing with
//! warmup, per-sample statistics and the `criterion_group!` /
//! `criterion_main!` entry points.
//!
//! Each `Bencher::iter` call runs one warmup pass, then times
//! `sample_size` samples and prints min / mean / max. Honours
//! `TORCHGT_BENCH_FAST=1` to clamp samples to 2 (used by `cargo check`
//! pipelines and smoke runs).

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n-- bench group: {name} --");
        BenchmarkGroup { name: name.to_string(), sample_size: 10 }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(id);
        group.bench_function("run", f);
        group.finish();
    }
}

/// A named benchmark id, optionally parameterised (`name/param`).
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId { full: format!("{name}/{parameter}") }
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Samples per benchmark (criterion's knob of the same name).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1);
        self.sample_size = n;
        self
    }

    /// Benchmark a closure under `id`.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { samples: effective_samples(self.sample_size), last: Samples::default() };
        f(&mut b);
        b.report(&self.name, &id.to_string());
        self
    }

    /// Benchmark a closure that receives an input reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher { samples: effective_samples(self.sample_size), last: Samples::default() };
        f(&mut b, input);
        b.report(&self.name, &id.full);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

fn effective_samples(configured: usize) -> usize {
    match std::env::var("TORCHGT_BENCH_FAST") {
        Ok(v) if v == "1" => configured.min(2),
        _ => configured,
    }
}

/// Per-benchmark timing driver passed to the closure.
pub struct Bencher {
    samples: usize,
    last: Samples,
}

/// Timing results, filled by [`Bencher::iter`].
#[derive(Default)]
struct Samples {
    seconds: Vec<f64>,
}

impl Bencher {
    /// Time `routine`: one untimed warmup, then `samples` timed runs. The
    /// routine's output is passed through `black_box` so the computation
    /// cannot be optimised away.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        black_box(routine());
        let mut s = Samples::default();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            s.seconds.push(start.elapsed().as_secs_f64());
        }
        self.last = s;
    }

    fn report(&self, group: &str, id: &str) {
        let s = &self.last.seconds;
        if s.is_empty() {
            println!("{group}/{id}: no samples (iter was never called)");
            return;
        }
        let min = s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = s.iter().cloned().fold(0.0f64, f64::max);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        println!(
            "{group}/{id}: mean {:>10} min {:>10} max {:>10} ({} samples)",
            fmt_time(mean),
            fmt_time(min),
            fmt_time(max),
            s.len()
        );
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} µs", seconds * 1e6)
    }
}

/// Define a bench entry function running each target against one
/// [`Criterion`] instance.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::bench::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main` from one or more [`criterion_group!`] functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_counts_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("compat_smoke");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
            })
        });
        group.finish();
        // 1 warmup + 3 samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("compat_input");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("double", 21), &21u64, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        group.finish();
    }
}
