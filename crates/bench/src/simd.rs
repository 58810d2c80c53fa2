//! SIMD backend speedup: per-kernel wall time under the scalar backend
//! versus every SIMD backend this CPU supports (AVX2, AVX-512), measured by
//! [`simd_speedup`] for the `simd_speedup` bench and the release gate
//! `tests/gates.rs::simd_beats_scalar_twice_on_a_matmul_or_softmax_kernel`.
//!
//! Each kernel runs on identical inputs under every backend; an f64 output
//! checksum is compared against the scalar run (each row's `drift` against
//! its `tol`, the parity harness's documented tolerances) so a backend
//! cannot "win" by computing the wrong thing.
//!
//! The level-3 rows — the three GEMM forms at the node workload's projection
//! and FFN shapes, flash attention forward and forward+backward at
//! `S = 1024, d = 64, heads = 4` — also carry FLOPs (computed from the
//! shape), scored against the host's measured FMA peak (every core bursting
//! at once, the perf ledger's `host.fma_gflops` definition). The sparse row
//! tier runs at the same shape over the arxiv stand-in's reformed mask (the
//! perf ledger's `node_long` probe) and carries its mask edges. It runs
//! again, with a `layer_norm_into` row, at the shape of the ledger's
//! `graph_batched` steps: the first eight molecules of the molpcba stand-in
//! packed into one ~200-token sequence, `d = 16`, two heads — short rows of
//! a few edges each, where per-row overhead rather than arithmetic decides.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;
use torchgt_graph::{pack_graphs, CsrGraph, DatasetKind};
use torchgt_model::attention::{flash_backward_ws_with, flash_ws_with, sparse_backward_ws_with, sparse_ws_with};
use torchgt_sparse::topology_mask;
use torchgt_tensor::backend::{self, Backend};
use torchgt_tensor::{init, ops, Tensor, Workspace};

const S: usize = 256;
const D: usize = 128;
const ITERS: usize = 60;
/// Shortest timed stretch per kernel and backend.
const MIN_TIMED_S: f64 = 0.02;
/// Rounds each backend's timed runs are split over; a multiple of every
/// possible backend count (1 to 3), so each leads a round equally often.
const ROUNDS: usize = 6;

struct Kernel {
    name: String,
    /// Runs the kernel once under `be` and returns an output checksum.
    run: Box<dyn Fn(Backend) -> f64>,
    /// Relative checksum tolerance vs scalar (0.0 = bit-exact kernels).
    tol: f64,
    /// FLOPs of one run, for the rows that report GFLOP/s.
    flops: Option<f64>,
    /// Mask edges of one run, for the sparse rows' edges per second.
    edges: Option<f64>,
}

/// One kernel under one SIMD backend, against the same kernel under scalar.
pub struct SimdRow {
    /// The kernel and, for the shaped rows, its shape.
    pub kernel: String,
    /// The SIMD backend timed.
    pub backend: Backend,
    /// Seconds per run under the scalar backend.
    pub scalar_s: f64,
    /// Seconds per run under `backend`.
    pub simd_s: f64,
    /// `scalar_s / simd_s`.
    pub speedup: f64,
    /// Relative checksum difference from the scalar run; not finite when
    /// either checksum is not.
    pub drift: f64,
    /// The largest `drift` the kernel's parity tolerance allows.
    pub tol: f64,
    /// FLOPs of one run, on the level-3 rows.
    pub flops: Option<f64>,
    /// Mask edges of one run, on the sparse rows.
    pub edges: Option<f64>,
}

/// What [`simd_speedup`] measured.
pub struct SimdSpeedup {
    /// Measured f32 multiply-add rate of the whole host, GFLOP/s.
    pub host_fma_gflops: f64,
    /// One row per kernel and SIMD backend; empty on a scalar-only CPU.
    pub rows: Vec<SimdRow>,
}

fn checksum(t: &Tensor) -> f64 {
    t.data().iter().map(|&x| x as f64).sum()
}

/// One burst of multiply-adds on 8 independent accumulators of 16 lanes
/// (baseline ISA: a separate multiply and add). Returns the FLOPs done and a
/// value that depends on all of them.
fn burst_plain(iters: usize) -> (f64, f32) {
    let mut acc = [[0.5f32; 16]; 8];
    let (a, b) = (black_box([1.000_000_1f32; 16]), black_box([1e-7f32; 16]));
    for _ in 0..iters {
        for v in acc.iter_mut() {
            for l in 0..16 {
                v[l] = v[l] * a[l] + b[l];
            }
        }
    }
    ((iters * 8 * 16 * 2) as f64, acc.iter().flatten().sum())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn burst_avx2(iters: usize) -> (f64, f32) {
    use std::arch::x86_64::*;
    let (a, b) = (_mm256_set1_ps(black_box(1.000_000_1)), _mm256_set1_ps(black_box(1e-7)));
    let mut acc = [_mm256_set1_ps(0.5); 8];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let sum = acc.iter().fold(_mm256_setzero_ps(), |s, v| _mm256_add_ps(s, *v));
    ((iters * 8 * 8 * 2) as f64, _mm256_cvtss_f32(sum))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn burst_avx512(iters: usize) -> (f64, f32) {
    use std::arch::x86_64::*;
    let (a, b) = (_mm512_set1_ps(black_box(1.000_000_1)), _mm512_set1_ps(black_box(1e-7)));
    let mut acc = [_mm512_set1_ps(0.5); 8];
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = _mm512_fmadd_ps(*v, a, b);
        }
    }
    let sum = acc.iter().fold(_mm512_setzero_ps(), |s, v| _mm512_add_ps(s, *v));
    ((iters * 8 * 16 * 2) as f64, _mm512_reduce_add_ps(sum))
}

fn burst(iters: usize) -> (f64, f32) {
    match backend::detect_best() {
        // SAFETY: `detect_best` returns a backend only after detecting the
        // CPU features the matching burst is compiled for.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { burst_avx512(iters) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { burst_avx2(iters) },
        _ => burst_plain(iters),
    }
}

/// Measured f32 multiply-add rate of the whole host, GFLOP/s: every core
/// bursting at once, best of three. A burst thread that dies adds no FLOPs.
fn host_fma_gflops() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let flops: f64 = std::thread::scope(|s| {
                let bursts: Vec<_> = (0..cores)
                    .map(|_| {
                        s.spawn(|| {
                            let (flops, value) = burst(black_box(2_000_000));
                            black_box(value);
                            flops
                        })
                    })
                    .collect();
                bursts.into_iter().map(|b| b.join().unwrap_or(0.0)).sum()
            });
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// The matmul, softmax, GELU and LayerNorm kernels on one `[S, D]` input.
fn elementary_kernels() -> Vec<Kernel> {
    let a = init::normal(S, D, 0.0, 0.5, 21);
    let b = init::normal(D, D, 0.0, 0.5, 22);
    let bt = init::normal(S, D, 0.0, 0.5, 23);
    let gamma = init::normal(1, D, 1.0, 0.1, 24);
    let beta = init::normal(1, D, 0.0, 0.1, 25);
    let kernel = |name: &str, tol, run: Box<dyn Fn(Backend) -> f64>| Kernel {
        name: name.into(),
        run,
        tol,
        flops: None,
        edges: None,
    };
    vec![
        kernel("matmul_into", 1e-5, {
            let (a, b) = (a.clone(), b.clone());
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.rows(), b.cols());
                ops::matmul_into_with(be, &a, &b, &mut out);
                checksum(&out)
            })
        }),
        kernel("matmul_bt_into", 1e-5, {
            let (a, bt) = (a.clone(), bt.clone());
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.rows(), bt.rows());
                ops::matmul_bt_into_with(be, &a, &bt, &mut out);
                checksum(&out)
            })
        }),
        kernel("matmul_at_into", 1e-5, {
            let (a, bt) = (a.clone(), bt.clone());
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.cols(), bt.cols());
                ops::matmul_at_into_with(be, &a, &bt, &mut out);
                checksum(&out)
            })
        }),
        kernel("row_softmax_into", 1e-5, {
            let a = a.clone();
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.rows(), a.cols());
                ops::row_softmax_into_with(be, &a, &mut out);
                checksum(&out)
            })
        }),
        kernel("gelu_into", 1e-5, {
            let a = a.clone();
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.rows(), a.cols());
                ops::gelu_into_with(be, &a, &mut out);
                checksum(&out)
            })
        }),
        kernel(
            "layer_norm_into",
            1e-4,
            Box::new(move |be| {
                let mut out = Tensor::zeros(a.rows(), a.cols());
                ops::layer_norm_into_with(be, &a, &gamma, &beta, 1e-5, &mut out);
                checksum(&out)
            }),
        ),
    ]
}

/// The three matmul forms of one `Linear` over `rows` tokens: forward
/// `X·W`, input gradient `dY·Wᵀ`, weight gradient `Xᵀ·dY`.
fn linear_gemm_kernels(rows: usize, fan_in: usize, fan_out: usize) -> Vec<Kernel> {
    let x = init::normal(rows, fan_in, 0.0, 0.5, 31);
    let w = init::normal(fan_in, fan_out, 0.0, 0.5, 32);
    let dy = init::normal(rows, fan_out, 0.0, 0.5, 33);
    let flops = Some((2 * rows * fan_in * fan_out) as f64);
    let shape = format!("[{rows}x{fan_in}]·[{fan_in}x{fan_out}]");
    vec![
        Kernel {
            name: format!("gemm nn {shape}"),
            tol: 1e-5,
            flops,
            edges: None,
            run: {
                let (x, w) = (x.clone(), w.clone());
                Box::new(move |be| {
                    let mut y = Tensor::zeros(rows, fan_out);
                    ops::matmul_into_with(be, &x, &w, &mut y);
                    checksum(&y)
                })
            },
        },
        Kernel {
            name: format!("gemm bt {shape}"),
            tol: 1e-5,
            flops,
            edges: None,
            run: {
                let (dy, w) = (dy.clone(), w.clone());
                Box::new(move |be| {
                    let mut dx = Tensor::zeros(rows, fan_in);
                    ops::matmul_bt_into_with(be, &dy, &w, &mut dx);
                    checksum(&dx)
                })
            },
        },
        Kernel {
            name: format!("gemm at {shape}"),
            tol: 1e-5,
            flops,
            edges: None,
            run: Box::new(move |be| {
                let mut dw = Tensor::zeros(fan_in, fan_out);
                ops::matmul_at_into_with(be, &x, &dy, &mut dw);
                checksum(&dw)
            }),
        },
    ]
}

/// Flash attention at the node workload's shape: forward alone, and forward
/// plus backward (the backward consumes the forward's cache).
fn flash_kernels() -> Vec<Kernel> {
    let (s, d, heads) = (1024, 64, 4);
    let q = init::normal(s, d, 0.0, 1.0, 41);
    let k = init::normal(s, d, 0.0, 1.0, 42);
    let v = init::normal(s, d, 0.0, 1.0, 43);
    let dout = init::normal(s, d, 0.0, 1.0, 44);
    let unit = (s * s * d) as f64;
    vec![
        Kernel {
            name: format!("flash fwd S={s} d={d} h={heads}"),
            tol: 1e-4,
            flops: Some(4.0 * unit),
            edges: None,
            run: {
                let (q, k, v) = (q.clone(), k.clone(), v.clone());
                Box::new(move |be| {
                    let mut ws = Workspace::new();
                    checksum(&flash_ws_with(be, &q, &k, &v, heads, &mut ws).out)
                })
            },
        },
        Kernel {
            name: format!("flash fwd+bwd S={s} d={d} h={heads}"),
            tol: 1e-4,
            flops: Some(14.0 * unit),
            edges: None,
            run: Box::new(move |be| {
                let mut ws = Workspace::new();
                let fwd = flash_ws_with(be, &q, &k, &v, heads, &mut ws);
                let g = flash_backward_ws_with(be, &q, &k, &v, heads, fwd.cache, &fwd.out, &dout, &mut ws);
                checksum(&fwd.out) + checksum(&g.dq) + checksum(&g.dk) + checksum(&g.dv)
            }),
        },
    ]
}

/// The mask of the perf ledger's first `graph_batched` step: the first
/// eight molecules of its molpcba stand-in (512 graphs, seed 1) packed
/// block-diagonally, as `BatchedGraphTrainer` packs them.
fn graph_batched_mask() -> CsrGraph {
    let data = DatasetKind::OgbgMolpcba.generate_graphs(512, 1.0, 1);
    let members: Vec<&CsrGraph> = data.samples[..8].iter().map(|s| &s.graph).collect();
    topology_mask(&pack_graphs(&members).graph, true)
}

/// Cluster-sparse attention over `mask` at `d` columns and `heads` heads:
/// forward alone, and forward plus backward. FLOPs count the two (forward)
/// or seven (both) `d`-wide multiply-add passes over the edges; the softmax
/// is left out, as in the ledger's `model.attention.sparse_gflops`.
fn sparse_kernels(mask: CsrGraph, d: usize, heads: usize) -> Vec<Kernel> {
    let s = mask.num_nodes();
    let q = init::normal(s, d, 0.0, 1.0, 51);
    let k = init::normal(s, d, 0.0, 1.0, 52);
    let v = init::normal(s, d, 0.0, 1.0, 53);
    let dout = init::normal(s, d, 0.0, 1.0, 54);
    let edges = mask.num_arcs() as f64;
    let unit = 2.0 * edges * d as f64;
    // One warm arena per row: at ~0.3 ms a run, fresh allocations would be
    // a third of what is timed.
    let recycle = |ws: &mut Workspace, tensors: Vec<Tensor>| tensors.into_iter().for_each(|t| ws.give(t));
    vec![
        Kernel {
            name: format!("sparse fwd S={s} d={d} h={heads}"),
            tol: 1e-5,
            flops: Some(2.0 * unit),
            edges: Some(edges),
            run: {
                let (q, k, v, mask) = (q.clone(), k.clone(), v.clone(), mask.clone());
                let ws = RefCell::new(Workspace::new());
                Box::new(move |be| {
                    let ws = &mut *ws.borrow_mut();
                    let fwd = sparse_ws_with(be, &q, &k, &v, heads, &mask, None, ws);
                    let sum = checksum(&fwd.out);
                    fwd.cache.recycle(ws);
                    recycle(ws, vec![fwd.out]);
                    sum
                })
            },
        },
        Kernel {
            name: format!("sparse fwd+bwd S={s} d={d} h={heads}"),
            tol: 1e-5,
            flops: Some(7.0 * unit),
            edges: Some(edges),
            run: {
                let ws = RefCell::new(Workspace::new());
                Box::new(move |be| {
                    let ws = &mut *ws.borrow_mut();
                    let fwd = sparse_ws_with(be, &q, &k, &v, heads, &mask, None, ws);
                    let g = sparse_backward_ws_with(be, &q, &k, &v, heads, &mask, fwd.cache, &dout, false, ws);
                    let sum = checksum(&fwd.out) + checksum(&g.dq) + checksum(&g.dk) + checksum(&g.dv);
                    recycle(ws, vec![fwd.out, g.dq, g.dk, g.dv]);
                    sum
                })
            },
        },
    ]
}

/// `layer_norm_into` at `graph_batched`'s packed width: `tokens` rows of 16.
fn packed_layer_norm(tokens: usize) -> Kernel {
    let x = init::normal(tokens, 16, 0.0, 1.0, 26);
    let (gamma, beta) = (init::normal(1, 16, 1.0, 0.1, 27), init::normal(1, 16, 0.0, 0.1, 28));
    let out = RefCell::new(Tensor::zeros(tokens, 16));
    Kernel {
        name: format!("layer_norm_into S={tokens} d=16"),
        flops: None,
        edges: None,
        tol: 1e-4,
        run: Box::new(move |be| {
            let out = &mut *out.borrow_mut();
            ops::layer_norm_into_with(be, &x, &gamma, &beta, 1e-5, out);
            checksum(out)
        }),
    }
}

/// Seconds per run of `kernel` under each backend of `sides`, with each
/// one's checksum. Every side gets a warm-up run, which sets how many timed
/// runs it needs: at least `ITERS`, and at least `MIN_TIMED_S` of them (the
/// packed-step rows take microseconds). Those runs are split over `ROUNDS`
/// rounds, and round `r` starts at side `r mod n`: each side runs first,
/// and last, equally often, so run order carries no bias between them.
/// The checksum is the warm-up run's, or NaN when any timed run's is not
/// finite, so a row whose reused arena goes bad after its first run fails
/// its parity bound.
fn time(kernel: &Kernel, sides: &[Backend]) -> Vec<(f64, f64)> {
    let warm: Vec<(usize, f64)> = sides
        .iter()
        .map(|&be| {
            let t0 = Instant::now();
            let sum = (kernel.run)(be);
            let iters = ITERS.max((MIN_TIMED_S / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize);
            (iters.div_ceil(ROUNDS), sum)
        })
        .collect();
    // Per side: timed seconds and the timed runs' checksum sum.
    let mut timed = vec![(0.0, 0.0); sides.len()];
    for round in 0..ROUNDS {
        for i in (0..sides.len()).map(|k| (round + k) % sides.len()) {
            let t0 = Instant::now();
            for _ in 0..warm[i].0 {
                timed[i].1 += (kernel.run)(sides[i]);
            }
            timed[i].0 += t0.elapsed().as_secs_f64();
        }
    }
    let per_run = |(iters, sum): (usize, f64), (secs, acc): (f64, f64)| {
        (secs / (iters * ROUNDS) as f64, if black_box(acc).is_finite() { sum } else { f64::NAN })
    };
    warm.into_iter().zip(timed).map(|(w, t)| per_run(w, t)).collect()
}

/// Time every kernel under the scalar backend and under each SIMD backend
/// this CPU supports, and measure the host's FMA peak.
pub fn simd_speedup() -> SimdSpeedup {
    let mut kernels = elementary_kernels();
    for (rows, fan_in, fan_out) in [(1024, 64, 64), (1024, 64, 256), (1024, 256, 64)] {
        kernels.extend(linear_gemm_kernels(rows, fan_in, fan_out));
    }
    kernels.extend(flash_kernels());
    kernels.extend(sparse_kernels(crate::node_long_mask(), 64, 4));
    let packed = graph_batched_mask();
    let tokens = packed.num_nodes();
    kernels.extend(sparse_kernels(packed, 16, 2));
    kernels.push(packed_layer_norm(tokens));

    let host_fma_gflops = host_fma_gflops();
    let mut rows = Vec::new();
    // Scalar first: `supported()` always starts with it.
    let sides = backend::supported();
    for kernel in &kernels {
        let timed = time(kernel, &sides);
        let (scalar_s, scalar_sum) = timed[0];
        for (&be, &(simd_s, sum)) in sides.iter().zip(&timed).skip(1) {
            rows.push(SimdRow {
                kernel: kernel.name.clone(),
                backend: be,
                scalar_s,
                simd_s,
                speedup: scalar_s / simd_s,
                drift: (sum - scalar_sum).abs() / scalar_sum.abs().max(1.0),
                tol: kernel.tol.max(f64::EPSILON * 64.0),
                flops: kernel.flops,
                edges: kernel.edges,
            });
        }
    }
    SimdSpeedup { host_fma_gflops, rows }
}
