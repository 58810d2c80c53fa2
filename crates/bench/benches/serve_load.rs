//! Serving under load: the quantized inference path driven by concurrent
//! Zipf traffic at 200, 500 and 1,000 queries/s, from
//! [`torchgt_bench::serve_load`]. Each rate reports p50/p99 latency,
//! achieved throughput, batch occupancy, peak queue depth and whether p99
//! met the SLO; rows land in `target/experiments/BENCH_serve.json`. The
//! bound, `slo_met` at every rate ≤ 500 queries/s, is the release-only case
//! `tests/gates.rs::serve_load_meets_the_slo_up_to_500_qps`.

use torchgt_bench::{banner, dump_json, serve_load};

fn main() {
    banner("serve_load", "quantized serving under concurrent Zipf traffic (p99 SLO)");
    let sweep = serve_load().expect("the frozen model serves");
    println!(
        "frozen {} int8 tensors: f32 acc {:.4} -> quantized acc {:.4} (drop {:.4})",
        sweep.tensors,
        sweep.f32_acc,
        sweep.frozen_acc,
        sweep.f32_acc - sweep.frozen_acc
    );
    println!(
        "\n{:>12} {:>9} {:>9} {:>9} {:>11} {:>9} {:>7}",
        "offered qps", "p50 ms", "p99 ms", "tput qps", "queue depth", "batch", "SLO"
    );
    for r in &sweep.rows {
        println!(
            "{:>12.0} {:>9.3} {:>9.3} {:>9.1} {:>11} {:>9.2} {:>7}",
            r.offered_qps,
            r.stats.p50_latency_ms,
            r.stats.p99_latency_ms,
            r.stats.throughput_qps,
            r.stats.max_queue_depth,
            r.stats.avg_batch_size,
            if r.slo_met { "ok" } else { "MISS" }
        );
    }
    let cases: Vec<_> = sweep
        .rows
        .iter()
        .map(|r| {
            torchgt_compat::json!({
                "offered_qps": r.offered_qps,
                "served": r.stats.served,
                "batches": r.stats.batches,
                "p50_ms": r.stats.p50_latency_ms,
                "p99_ms": r.stats.p99_latency_ms,
                "throughput_qps": r.stats.throughput_qps,
                "max_queue_depth": r.stats.max_queue_depth,
                "avg_batch_size": r.stats.avg_batch_size,
                "slo_ms": sweep.slo_ms,
                "slo_met": r.slo_met,
            })
        })
        .collect();
    dump_json(
        "BENCH_serve",
        &torchgt_compat::json!({
            "slo_ms": sweep.slo_ms,
            "f32_acc": sweep.f32_acc,
            "frozen_acc": sweep.frozen_acc,
            "cases": cases,
        }),
    );
}
