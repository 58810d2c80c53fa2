//! Serving past saturation, from [`torchgt_bench::serve_overload`]: an
//! injected 4 ms stall per batch pins the loop's capacity near 2,000
//! queries/s, and Zipf clients offer 0.5×, 1× and 2× that with depth-based
//! admission control armed. Each rate reports goodput (answered queries per
//! second), sheds, the accepted-query p99 and the slowest shed reply; rows
//! land in `target/experiments/BENCH_overload.json`. The bounds — goodput
//! at 2× within 10 % of the plateau with at least one shed, every shed reply
//! in under a millisecond — are the release-only case
//! `tests/gates.rs::serve_overload_sheds_and_keeps_its_goodput`.

use torchgt_bench::{banner, dump_json, serve_overload};

fn main() {
    banner("serve_overload", "admission-controlled serving past saturation (goodput + shed latency)");
    let sweep = serve_overload().expect("the frozen model serves");
    println!(
        "\n{:>12} {:>12} {:>9} {:>10} {:>13} {:>13}",
        "offered qps", "goodput qps", "shed", "shed rate", "p99 ms (acc)", "shed max ms"
    );
    let shed_rate = |s: &torchgt::serve::ServeStats| s.shed as f64 / (s.served + s.shed) as f64;
    for r in &sweep.rows {
        println!(
            "{:>12.0} {:>12.1} {:>9} {:>10.3} {:>13.3} {:>13.3}",
            r.offered_qps,
            r.stats.throughput_qps,
            r.stats.shed,
            shed_rate(&r.stats),
            r.stats.p99_latency_ms,
            r.stats.shed_handling_ms_max
        );
    }
    let plateau = sweep.rows.iter().map(|r| r.stats.throughput_qps).fold(0.0, f64::max);
    let overload = sweep.rows.last().map_or(0.0, |r| r.stats.throughput_qps);
    println!("\ngoodput at 2x saturation {overload:.1} qps, plateau {plateau:.1} qps");
    let cases: Vec<_> = sweep
        .rows
        .iter()
        .map(|r| {
            torchgt_compat::json!({
                "offered_qps": r.offered_qps,
                "goodput_qps": r.stats.throughput_qps,
                "served": r.stats.served,
                "shed": r.stats.shed,
                "shed_queue_full": r.stats.shed_queue_full,
                "shed_rate": shed_rate(&r.stats),
                "p99_ms_accepted": r.stats.p99_latency_ms,
                "shed_handling_ms_mean": r.stats.shed_handling_ms_mean,
                "shed_handling_ms_max": r.stats.shed_handling_ms_max,
                "max_queue_depth": r.stats.max_queue_depth,
            })
        })
        .collect();
    dump_json(
        "BENCH_overload",
        &torchgt_compat::json!({
            "plateau_goodput_qps": plateau,
            "overload_goodput_qps": overload,
            "cases": cases,
        }),
    );
}
