//! What the host can do, measured at start-up, so kernel rows can be read as
//! a share of *this* machine's peak and two hosts' ledgers can be compared:
//! streaming bandwidth and FMA rate — and how fast it is running *right now*:
//! the [`HostClock`] every end-to-end time is read with.

use crate::ledger::{median, quantile};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads every host probe uses: one per available core, which is
/// also the most the kernels under test can use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Independent accumulators per burst: enough multiply-adds in flight to
/// cover FMA latency on two ports.
const ACCS: usize = 8;

/// Baseline-ISA burst: 8 accumulators of 16 lanes, a separate multiply and
/// add per lane (no fused instruction exists below FMA3). Returns the FLOPs
/// done and a value that depends on all of them.
fn fma_plain(iters: usize) -> (f64, f32) {
    const LANES: usize = 16;
    let mut acc = [[0.5f32; LANES]; ACCS];
    let a = black_box([1.000_000_1_f32; LANES]);
    let b = black_box([1e-7_f32; LANES]);
    for _ in 0..iters {
        for v in acc.iter_mut() {
            for l in 0..LANES {
                v[l] = v[l] * a[l] + b[l];
            }
        }
    }
    (
        (iters * ACCS * LANES * 2) as f64,
        acc.iter().flatten().sum(),
    )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: usize) -> (f64, f32) {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(black_box(1.000_000_1));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(0.5); ACCS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm256_add_ps(sum, *v);
    }
    ((iters * ACCS * 8 * 2) as f64, _mm256_cvtss_f32(sum))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: usize) -> (f64, f32) {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(black_box(1.000_000_1));
    let b = _mm512_set1_ps(black_box(1e-7));
    let mut acc = [_mm512_set1_ps(0.5); ACCS];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm512_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = acc[0];
    for v in &acc[1..] {
        sum = _mm512_add_ps(sum, *v);
    }
    ((iters * ACCS * 16 * 2) as f64, _mm512_reduce_add_ps(sum))
}

/// One FMA burst on the widest instruction set the CPU reports.
fn fma_burst(iters: usize) -> (f64, f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the function's only requirement is that the CPU
            // supports avx512f, which was just detected at run time.
            return unsafe { fma_avx512(iters) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: avx2 and fma were just detected at run time.
            return unsafe { fma_avx2(iters) };
        }
    }
    fma_plain(iters)
}

/// Run `f` on every core at once and return the wall-clock of the slowest.
fn on_all_cores(f: impl Fn() + Sync) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(&f);
        }
    });
    t.elapsed().as_secs_f64()
}

/// Measured f32 multiply-add rate of the whole host in GFLOP/s (2 FLOPs per
/// lane per round, every core bursting at once), best of three.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    (0..3)
        .map(|_| {
            let flops = std::sync::Mutex::new(0.0f64);
            let wall = on_all_cores(|| {
                let (done, value) = fma_burst(black_box(ITERS));
                black_box(value);
                *flops
                    .lock()
                    .expect("no burst panics while holding the lock") += done;
            });
            flops
                .into_inner()
                .expect("no burst panics while holding the lock")
                / wall
                / 1e9
        })
        .fold(0.0, f64::max)
}

/// Measured streaming bandwidth of the whole host in GiB/s: every core
/// scales one 32 MiB array into another (read + write), best of three.
pub fn stream_gib_per_s() -> f64 {
    const N: usize = 8 << 20;
    let bytes = (nproc() * N * 4 * 2) as f64;
    let mut best = 0.0f64;
    let mut bufs: Vec<(Vec<f32>, Vec<f32>)> = (0..nproc())
        .map(|_| (vec![1.0f32; N], vec![0.0f32; N]))
        .collect();
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (src, dst) in bufs.iter_mut() {
                s.spawn(move || {
                    for (d, x) in dst.iter_mut().zip(src.iter()) {
                        *d = 1.5 * *x;
                    }
                    black_box(&dst[N / 2]);
                });
            }
        });
        best = best.max(bytes / t.elapsed().as_secs_f64() / (1u64 << 30) as f64);
    }
    best
}

// ---------------------------------------------------------------------------
// The host clock
// ---------------------------------------------------------------------------

/// The unit of normalised time: a normalised second is a second on a host
/// that runs one reference burst in this long. The value only sets the scale
/// (it is about what the burst takes on a quiet 2-vCPU sandbox, so raw and
/// normalised figures read alike there); ratios between two commits, and
/// between two hosts' ledgers, do not depend on it.
pub const REFERENCE_BURST_S: f64 = 0.0055;

/// Bursts within this many seconds of an operation say how fast the host was
/// running while it ran.
const WINDOW_S: f64 = 3.0;

// The burst is shaped like what the workloads spend their time in: an
// attention tile `softmax-less(Q Kᵀ) V` (a dot-product matmul, then an axpy
// matmul, working set about 1 MiB) and one streaming pass over arrays that do
// not fit the L2.
const REF_S: usize = 448;
const REF_D: usize = 64;
const STREAM_LEN: usize = 1 << 20;

/// One timed operation: when it started on the clock and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub start_s: f64,
    pub raw_s: f64,
}

/// Wall-clock timer that samples the host's speed beside every operation.
///
/// The reference sandbox is a shared VM: identical work takes 0.9-1.8 s from
/// one minute to the next as its neighbours come and go, which no estimator
/// over one run's samples can remove. So after every operation the clock runs
/// *reference bursts* — a fixed kernel written here and frozen, calling
/// nothing under test — and an operation's time is divided by how slow the
/// bursts around it ran. A change to the program moves the operation and not
/// the burst.
pub struct HostClock {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    scores: Vec<f32>,
    out: Vec<f32>,
    src: Vec<f32>,
    dst: Vec<f32>,
    origin: Instant,
    /// Every burst of the run: when it ended on the clock, and its seconds.
    pub bursts: Vec<(f64, f64)>,
}

impl HostClock {
    pub fn new() -> Self {
        let mut clock = Self {
            q: vec![0.01; REF_S * REF_D],
            k: vec![0.02; REF_S * REF_D],
            v: vec![0.03; REF_S * REF_D],
            scores: vec![0.0; REF_S * REF_S],
            out: vec![0.0; REF_S * REF_D],
            src: vec![1.0; STREAM_LEN],
            dst: vec![0.5; STREAM_LEN],
            origin: Instant::now(),
            bursts: Vec::new(),
        };
        clock.burst(); // first touch of the arrays
        clock.bursts.clear();
        for _ in 0..3 {
            clock.burst();
        }
        clock
    }

    fn burst(&mut self) {
        let t = Instant::now();
        // scores = Q Kᵀ, one dot product per entry, 16 independent lanes.
        for (i, row) in self.scores.chunks_exact_mut(REF_S).enumerate() {
            let qi = &self.q[i * REF_D..(i + 1) * REF_D];
            for (j, s) in row.iter_mut().enumerate() {
                let kj = &self.k[j * REF_D..(j + 1) * REF_D];
                let mut acc = [0.0f32; 16];
                for (a, b) in qi.chunks_exact(16).zip(kj.chunks_exact(16)) {
                    for l in 0..16 {
                        acc[l] += a[l] * b[l];
                    }
                }
                *s = acc.iter().sum();
            }
        }
        // out = scores V, one scaled row added per entry.
        self.out.fill(0.0);
        for (i, row) in self.out.chunks_exact_mut(REF_D).enumerate() {
            for j in 0..REF_S {
                let p = self.scores[i * REF_S + j];
                for (o, x) in row.iter_mut().zip(&self.v[j * REF_D..(j + 1) * REF_D]) {
                    *o += p * *x;
                }
            }
        }
        for (d, x) in self.dst.iter_mut().zip(&self.src) {
            *d = *d * 0.999 + *x * 0.5;
        }
        black_box((self.out[5], self.dst[17]));
        let s = t.elapsed().as_secs_f64();
        self.bursts.push((self.origin.elapsed().as_secs_f64(), s));
    }

    /// Time `f` from outside, then sample the host: bursts for about a
    /// twentieth of what `f` took, at least one and at most eight.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let start_s = self.origin.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = f();
        let raw_s = t.elapsed().as_secs_f64();
        let n = (raw_s * 0.05 / REFERENCE_BURST_S).ceil().clamp(1.0, 8.0) as usize;
        for _ in 0..n {
            self.burst();
        }
        (r, Timed { start_s, raw_s })
    }

    /// How slow the host ran around `t`: the median burst within
    /// [`WINDOW_S`] of it over [`REFERENCE_BURST_S`]; 1.3 means 30 % slow.
    pub fn host_factor(&self, t: &Timed) -> f64 {
        let (from, to) = (t.start_s - WINDOW_S, t.start_s + t.raw_s + WINDOW_S);
        let near: Vec<f64> = self
            .bursts
            .iter()
            .filter(|b| b.0 >= from && b.0 <= to)
            .map(|b| b.1)
            .collect();
        median(&near) / REFERENCE_BURST_S
    }

    /// Print the raw and the host-normalised distribution of timed
    /// operations; returns the normalised seconds, which the ledger reports.
    pub fn report(&self, what: &str, timed: &[Timed]) -> Vec<f64> {
        let raw: Vec<f64> = timed.iter().map(|t| t.raw_s).collect();
        let norm: Vec<f64> = timed
            .iter()
            .map(|t| t.raw_s / self.host_factor(t))
            .collect();
        crate::ledger::print_distribution(&format!("{what}, raw"), &raw);
        crate::ledger::print_distribution(&format!("{what}, host-normalised"), &norm);
        norm
    }

    /// How much the host's speed moved during the run: the spread between
    /// the slow and the fast decile of the bursts over their median.
    pub fn noise_frac(&self) -> f64 {
        let s: Vec<f64> = self.bursts.iter().map(|b| b.1).collect();
        (quantile(&s, 0.9) - quantile(&s, 0.1)) / median(&s)
    }
}
