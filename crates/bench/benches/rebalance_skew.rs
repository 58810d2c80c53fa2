//! Closed-loop straggler rebalancing under skew.
//!
//! Runs [`torchgt_bench::rebalance_skew`]: a data-parallel GT run over
//! `P = 3` simulated ranks with one rank slowed by an injected per-send
//! delay (`FaultPlan::slow`), calibrated against a fault-free warmup so
//! injected comm dominates the per-step compute. Two passes of the one
//! distributed supervisor: the static assignment and the closed loop (EWMA
//! `StepLedger` → `RebalancePolicy` → sequence-conserving re-cut).
//!
//! Prints both passes and the tail speedup; its bounds are the release
//! case `tests/gates.rs::rebalance_beats_the_static_assignment_on_tail_epochs`,
//! which calls the same function. Rows land in
//! `target/experiments/BENCH_rebalance.json`.

use torchgt_bench::{banner, dump_json, rebalance_skew};
use torchgt_runtime::DistributedRun;

const EPOCHS: usize = 6;

fn tail_seconds(run: &DistributedRun, from_epoch: usize) -> f64 {
    run.epoch_seconds.iter().skip(from_epoch).sum()
}

fn main() {
    banner("rebalance_skew", "closed-loop straggler rebalancing (§III-C, Fig. 7 setting)");
    let skew = rebalance_skew().expect("a run without a store cannot fail");
    println!(
        "calibration: {} sequences, {:.3} ms/step compute -> slow-rank delay {:.3} ms/send",
        skew.sequences,
        skew.step_s * 1e3,
        skew.slow_delay_s * 1e3
    );
    let (fixed, closed) = (&skew.fixed, &skew.closed);
    let passes: [(&str, bool, &DistributedRun); 2] = [("static", false, fixed), ("rebalance", true, closed)];

    println!(
        "\n{:>10} {:>9} {:>9} {:>11} {:>7} {:>7} {:>14}",
        "pass", "total s", "last-3 s", "rebalances", "moved", "loss", "final counts"
    );
    for (label, _, r) in &passes {
        println!(
            "{:>10} {:>9.3} {:>9.3} {:>11} {:>7} {:>7.4} {:>14}",
            label,
            tail_seconds(r, 0),
            tail_seconds(r, EPOCHS - 3),
            r.rebalances,
            r.moved_tokens,
            r.stats.epoch_losses.last().copied().unwrap_or(f32::NAN),
            format!("{:?}", r.final_counts),
        );
    }

    let bits = |r: &DistributedRun| r.stats.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<u32>>();
    println!("\nrebalance speedup on last 3 epochs: {:.2}x", skew.tail_speedup);

    let rows: Vec<_> = passes
        .iter()
        .map(|(label, rebalance, r)| {
            torchgt_compat::json!({
                "pass": label,
                "rebalance": rebalance,
                "total_s": tail_seconds(r, 0),
                "tail3_s": tail_seconds(r, EPOCHS - 3),
                "epoch_seconds": r.epoch_seconds,
                "rebalances": r.rebalances,
                "moved_tokens": r.moved_tokens,
                "imbalance_history": r.imbalance_history,
                "final_counts": r.final_counts,
                "final_loss": r.stats.epoch_losses.last().copied().unwrap_or(f32::NAN),
            })
        })
        .collect();
    dump_json(
        "BENCH_rebalance",
        &torchgt_compat::json!({
            "world": 3,
            "slow_rank": 1,
            "epochs": EPOCHS,
            "tokens": skew.sequences,
            "per_step_compute_s": skew.step_s,
            "slow_delay_s": skew.slow_delay_s,
            "losses_bit_identical": bits(closed) == bits(fixed),
            "rebalance_tail_speedup": skew.tail_speedup,
            "passes": rows,
        }),
    );
}
