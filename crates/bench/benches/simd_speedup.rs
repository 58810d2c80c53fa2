//! SIMD backend speedup: per-kernel wall time under the scalar backend
//! versus every SIMD backend this CPU supports, from
//! [`torchgt_bench::simd_speedup`] (its module docs name the kernels and
//! shapes). Prints speedup over scalar per kernel, plus GFLOP/s and % of the
//! measured host FMA peak on the rows with a FLOP count, and writes the rows
//! to `target/experiments/BENCH_simd.json`. Its bound, ≥ 2× on a matmul or
//! softmax kernel, is the release-only case
//! `tests/gates.rs::simd_beats_scalar_twice_on_a_matmul_or_softmax_kernel`.

use torchgt_bench::{banner, dump_json, simd_speedup};
use torchgt_tensor::backend;

fn main() {
    banner("simd_speedup", "kernel backend dispatch — scalar vs SIMD wall time");
    let measured = simd_speedup();
    let host_peak = measured.host_fma_gflops;
    println!("host FMA peak: {host_peak:.1} GFLOP/s (all cores)");
    println!("detected best: {}   supported: {:?}\n", backend::detect_best().name(), backend::supported_names());
    if measured.rows.is_empty() {
        println!("no SIMD backend on this CPU");
    }
    println!(
        "{:<34} {:>10} {:>8} {:>10} {:>9} {:>9} {:>7} {:>10}",
        "kernel", "scalar ms", "backend", "ms/iter", "speedup", "GFLOP/s", "% peak", "Medges/s"
    );
    let mut rows = Vec::new();
    for row in &measured.rows {
        let gflops = row.flops.map(|f| f / row.simd_s / 1e9);
        let edges_per_s = row.edges.map(|e| e / row.simd_s);
        let show = |x: Option<f64>| x.map_or("-".into(), |x| format!("{x:.1}"));
        println!(
            "{:<34} {:>10.4} {:>8} {:>10.4} {:>8.2}x {:>9} {:>7} {:>10}",
            row.kernel,
            row.scalar_s * 1e3,
            row.backend.name(),
            row.simd_s * 1e3,
            row.speedup,
            show(gflops),
            show(gflops.map(|g| 100.0 * g / host_peak)),
            show(edges_per_s.map(|e| e / 1e6)),
        );
        // The rate fields are null on the rows without a FLOP / edge count.
        rows.push(torchgt_compat::json!({
            "kernel": row.kernel.as_str(),
            "backend": row.backend.name(),
            "scalar_s_per_iter": row.scalar_s,
            "simd_s_per_iter": row.simd_s,
            "speedup": row.speedup,
            "checksum_rel_drift": row.drift,
            "scalar_gflops": row.flops.map(|f| f / row.scalar_s / 1e9),
            "gflops": gflops,
            "pct_host_peak": gflops.map(|g| 100.0 * g / host_peak),
            "edges_per_s": edges_per_s,
        }));
    }
    dump_json(
        "BENCH_simd",
        &torchgt_compat::json!({
            "detected_best": backend::detect_best().name(),
            "host_fma_gflops": host_peak,
            "cases": rows,
        }),
    );
}
