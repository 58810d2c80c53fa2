//! SIMD backend speedup: per-kernel wall time under the scalar backend
//! versus every SIMD backend this CPU supports (AVX2, AVX-512).
//!
//! Each kernel runs on identical inputs under every backend; an f64 output
//! checksum is compared against the scalar run (within the parity harness's
//! documented tolerances) so a backend cannot "win" by computing the wrong
//! thing. Rows land in `target/experiments/BENCH_simd.json` for the
//! verify-script gate, which requires ≥2× on at least one matmul/softmax
//! kernel whenever a SIMD backend is available.
//!
//! The level-3 rows — the three GEMM forms at the node workload's projection
//! and FFN shapes, flash attention forward and forward+backward at
//! `S = 1024, d = 64, heads = 4` — also report GFLOP/s (FLOPs computed from
//! the shape) and the share of the host's measured FMA peak (every core
//! bursting at once, the perf ledger's `host.fma_gflops` definition). The
//! sparse row tier runs at the same shape over the arxiv stand-in's reformed
//! mask (the perf ledger's `node_long` probe) and adds edges per second.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;
use torchgt_bench::{banner, dump_json, node_long_mask};
use torchgt_model::attention::{
    flash_backward_ws_with, flash_ws_with, sparse_backward_ws_with, sparse_ws_with,
};
use torchgt_tensor::backend::{self, Backend};
use torchgt_tensor::{init, ops, Tensor, Workspace};

const S: usize = 256;
const D: usize = 128;
const ITERS: usize = 60;

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
/// bursting at once, best of three.
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
                bursts.into_iter().map(|b| b.join().expect("burst thread panicked")).sum()
            });
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
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

/// Cluster-sparse attention at the node workload's shape: forward alone, and
/// forward plus backward. FLOPs count the two (forward) or seven (both)
/// `d`-wide multiply-add passes over the edges; the softmax is left out, as
/// in the ledger's `model.attention.sparse_gflops`.
fn sparse_kernels() -> Vec<Kernel> {
    let (d, heads) = (64, 4);
    let mask = node_long_mask();
    let s = mask.num_nodes();
    let q = init::normal(s, d, 0.0, 1.0, 51);
    let k = init::normal(s, d, 0.0, 1.0, 52);
    let v = init::normal(s, d, 0.0, 1.0, 53);
    let dout = init::normal(s, d, 0.0, 1.0, 54);
    let edges = mask.num_arcs() as f64;
    let unit = 2.0 * edges * d as f64;
    println!("sparse rows: S={s} d={d} h={heads}, {edges} mask edges ({:.1} per token)\n", edges / s as f64);
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

fn main() {
    banner("simd_speedup", "kernel backend dispatch — scalar vs SIMD wall time");
    let a = init::normal(S, D, 0.0, 0.5, 21);
    let b = init::normal(D, D, 0.0, 0.5, 22);
    let bt = init::normal(S, D, 0.0, 0.5, 23);
    let gamma = init::normal(1, D, 1.0, 0.1, 24);
    let beta = init::normal(1, D, 0.0, 0.1, 25);

    let mut kernels: Vec<Kernel> = vec![
        Kernel {
            name: "matmul_into".into(),
            flops: None,
            edges: None,
            tol: 1e-5,
            run: {
                let (a, b) = (a.clone(), b.clone());
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.rows(), b.cols());
                    ops::matmul_into_with(be, &a, &b, &mut out);
                    checksum(&out)
                })
            },
        },
        Kernel {
            name: "matmul_bt_into".into(),
            flops: None,
            edges: None,
            tol: 1e-5,
            run: {
                let (a, bt) = (a.clone(), bt.clone());
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.rows(), bt.rows());
                    ops::matmul_bt_into_with(be, &a, &bt, &mut out);
                    checksum(&out)
                })
            },
        },
        Kernel {
            name: "matmul_at_into".into(),
            flops: None,
            edges: None,
            tol: 1e-5,
            run: {
                let (a, bt) = (a.clone(), bt.clone());
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.cols(), bt.cols());
                    ops::matmul_at_into_with(be, &a, &bt, &mut out);
                    checksum(&out)
                })
            },
        },
        Kernel {
            name: "row_softmax_into".into(),
            flops: None,
            edges: None,
            tol: 1e-5,
            run: {
                let a = a.clone();
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.rows(), a.cols());
                    ops::row_softmax_into_with(be, &a, &mut out);
                    checksum(&out)
                })
            },
        },
        Kernel {
            name: "gelu_into".into(),
            flops: None,
            edges: None,
            tol: 1e-5,
            run: {
                let a = a.clone();
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.rows(), a.cols());
                    ops::gelu_into_with(be, &a, &mut out);
                    checksum(&out)
                })
            },
        },
        Kernel {
            name: "layer_norm_into".into(),
            flops: None,
            edges: None,
            tol: 1e-4,
            run: {
                let (a, gamma, beta) = (a.clone(), gamma.clone(), beta.clone());
                Box::new(move |be| {
                    let mut out = Tensor::zeros(a.rows(), a.cols());
                    ops::layer_norm_into_with(be, &a, &gamma, &beta, 1e-5, &mut out);
                    checksum(&out)
                })
            },
        },
    ];

    for (rows, fan_in, fan_out) in [(1024, 64, 64), (1024, 64, 256), (1024, 256, 64)] {
        kernels.extend(linear_gemm_kernels(rows, fan_in, fan_out));
    }
    kernels.extend(flash_kernels());
    kernels.extend(sparse_kernels());

    let host_peak = host_fma_gflops();
    let backends = backend::supported();
    println!("host FMA peak: {host_peak:.1} GFLOP/s (all cores)");
    println!(
        "detected best: {}   supported: {:?}\n",
        backend::detect_best().name(),
        backends.iter().map(|b| b.name()).collect::<Vec<_>>()
    );
    println!(
        "{:<34} {:>10} {:>8} {:>10} {:>9} {:>9} {:>7}",
        "kernel", "scalar ms", "backend", "ms/iter", "speedup", "GFLOP/s", "% peak"
    );

    let mut rows = Vec::new();
    for kernel in &kernels {
        // Time one backend: warm-up iteration, then ITERS timed runs.
        let time = |be: Backend| -> (f64, f64) {
            let sum = (kernel.run)(be);
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..ITERS {
                acc += (kernel.run)(be);
            }
            assert!(acc.is_finite(), "{}: non-finite checksum under {}", kernel.name, be.name());
            (t0.elapsed().as_secs_f64() / ITERS as f64, sum)
        };
        let (scalar_s, scalar_sum) = time(Backend::Scalar);
        for &be in &backends {
            if be == Backend::Scalar {
                continue;
            }
            let (be_s, be_sum) = time(be);
            let drift = (be_sum - scalar_sum).abs() / scalar_sum.abs().max(1.0);
            assert!(
                drift <= kernel.tol.max(f64::EPSILON * 64.0),
                "{}: checksum drift {drift:e} under {} (scalar {scalar_sum} vs {be_sum})",
                kernel.name,
                be.name()
            );
            let speedup = scalar_s / be_s;
            let gflops = kernel.flops.map(|f| f / be_s / 1e9);
            println!(
                "{:<34} {:>10.4} {:>8} {:>10.4} {:>8.2}x {:>9} {:>7}",
                kernel.name,
                scalar_s * 1e3,
                be.name(),
                be_s * 1e3,
                speedup,
                gflops.map_or("-".into(), |g| format!("{g:.1}")),
                gflops.map_or("-".into(), |g| format!("{:.1}", 100.0 * g / host_peak)),
            );
            // The rate fields are null on the rows without a FLOP / edge count.
            rows.push(torchgt_compat::json!({
                "kernel": kernel.name.as_str(),
                "backend": be.name(),
                "scalar_s_per_iter": scalar_s,
                "simd_s_per_iter": be_s,
                "speedup": speedup,
                "checksum_rel_drift": drift,
                "scalar_gflops": kernel.flops.map(|f| f / scalar_s / 1e9),
                "gflops": gflops,
                "pct_host_peak": gflops.map(|g| 100.0 * g / host_peak),
                "edges_per_s": kernel.edges.map(|e| e / be_s),
            }));
        }
        if backends.len() == 1 {
            println!(
                "{:<34} {:>10.4}   (no SIMD backend on this CPU)",
                kernel.name,
                scalar_s * 1e3
            );
        }
    }

    println!("\nchecksums agree with scalar within parity tolerances ✓");
    dump_json(
        "BENCH_simd",
        &torchgt_compat::json!({
            "detected_best": backend::detect_best().name(),
            "host_fma_gflops": host_peak,
            "cases": rows,
        }),
    );
}
