//! Closed-loop straggler rebalancing under skew.
//!
//! A data-parallel GT run over `P = 3` simulated ranks with one rank
//! slowed by an injected per-send delay (`FaultPlan::slow`) — the delay is
//! calibrated against a fault-free warmup so injected comm dominates the
//! per-token compute and the comparison is robust to host speed. Two
//! passes: the static token assignment and the closed loop (EWMA
//! `StepLedger` → `RebalancePolicy` → token-conserving reshard). Both run
//! the one collective issue path (async broadcasts, depth-1 pipeline).
//!
//! Asserted: both passes produce bit-identical loss histories (rebalancing
//! is a pure wall-clock optimisation), and the closed loop beats the static
//! assignment once it has fired. Rows land in
//! `target/experiments/BENCH_rebalance.json`.

use torchgt::model::{Gt, GtConfig};
use torchgt::prelude::*;
use torchgt::runtime::{train_data_parallel_rebalance, RebalancePolicy, RebalanceStats};
use torchgt_bench::{banner, dump_json};

const WORLD: usize = 3;
const SLOW_RANK: usize = 1;
const EPOCHS: usize = 6;
const SEQ_LEN: usize = 64;
const SCALE: f64 = 0.02;
const SEED: u64 = 23;

fn run_pass(
    dataset: &NodeDataset,
    epochs: usize,
    plan: FaultPlan,
    policy: Option<RebalancePolicy>,
) -> RebalanceStats {
    let mut cfg = TrainConfig::new(Method::GpSparse, SEQ_LEN, epochs);
    cfg.lr = 2e-3;
    cfg.seed = 7;
    let feat = dataset.feat_dim;
    let classes = dataset.num_classes;
    train_data_parallel_rebalance(
        dataset,
        cfg,
        WORLD,
        move || Box::new(Gt::new(GtConfig::tiny(feat, classes), 11)) as Box<dyn SequenceModel>,
        plan,
        policy,
        torchgt::obs::noop(),
    )
}

fn tail_seconds(stats: &RebalanceStats, from_epoch: usize) -> f64 {
    stats.epoch_seconds.iter().skip(from_epoch).sum()
}

fn main() {
    banner("rebalance_skew", "closed-loop straggler rebalancing (§III-C, Fig. 7 setting)");

    let dataset = DatasetKind::OgbnArxiv.generate_node(SCALE, SEED);
    println!(
        "dataset: {} nodes, feat {}, {} classes",
        dataset.graph.num_nodes(),
        dataset.feat_dim,
        dataset.num_classes
    );

    // Calibration: one fault-free epoch gives per-token compute; the slow
    // rank then gets a per-send delay such that its injected comm time per
    // owned token is ~2.5× the compute time (each owned token costs the
    // owner `WORLD - 1` sends).
    let warm = run_pass(&dataset, 1, FaultPlan::default(), None);
    let ntokens: usize = warm.final_counts.iter().sum();
    let per_token_s = warm.epoch_seconds[0] / ntokens as f64;
    let slow_delay_s = 2.5 * per_token_s / (WORLD - 1) as f64;
    println!(
        "calibration: {} tokens, {:.3} ms/token compute -> slow-rank delay {:.3} ms/send",
        ntokens,
        per_token_s * 1e3,
        slow_delay_s * 1e3
    );

    let plan = FaultPlan::slow(SLOW_RANK, slow_delay_s);
    let policy = RebalancePolicy { threshold: 1.3, patience: 2, alpha: 0.5 };

    let fixed = run_pass(&dataset, EPOCHS, plan, None);
    let closed = run_pass(&dataset, EPOCHS, plan, Some(policy));
    let passes: [(&str, bool, &RebalanceStats); 2] =
        [("static", false, &fixed), ("rebalance", true, &closed)];

    println!(
        "\n{:>10} {:>9} {:>9} {:>11} {:>7} {:>7} {:>14}",
        "pass", "total s", "last-3 s", "rebalances", "moved", "loss", "final counts"
    );
    for (label, _, s) in &passes {
        println!(
            "{:>10} {:>9.3} {:>9.3} {:>11} {:>7} {:>7.4} {:>14}",
            label,
            tail_seconds(s, 0),
            tail_seconds(s, EPOCHS - 3),
            s.rebalances,
            s.moved_tokens,
            s.stats.epoch_losses.last().copied().unwrap_or(f32::NAN),
            format!("{:?}", s.final_counts),
        );
    }

    // Rebalancing must be a pure wall-clock optimisation: both loss
    // histories are bit-identical.
    let bits = |s: &RebalanceStats| s.stats.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&closed), bits(&fixed), "closed-loop loss history diverged from static");
    assert!(
        fixed.stats.epoch_losses.last().unwrap() < fixed.stats.epoch_losses.first().unwrap(),
        "training must make progress"
    );

    // Once the closed loop fires (patience 2 -> by epoch 3), the rebalanced
    // assignment beats the static one on the tail epochs.
    assert!(closed.rebalances >= 1, "closed loop never fired");
    assert!(closed.moved_tokens > 0, "rebalance moved no tokens");
    assert!(
        closed.final_counts[SLOW_RANK] < warm.final_counts[SLOW_RANK],
        "slow rank must shed tokens ({:?} vs static {:?})",
        closed.final_counts,
        warm.final_counts
    );
    let rebalance_speedup = tail_seconds(&fixed, EPOCHS - 3) / tail_seconds(&closed, EPOCHS - 3);
    println!("\nrebalance speedup on last 3 epochs: {rebalance_speedup:.2}x");
    assert!(
        tail_seconds(&closed, EPOCHS - 3) < 0.95 * tail_seconds(&fixed, EPOCHS - 3),
        "rebalance must beat static on tail epochs ({:.3}s vs {:.3}s)",
        tail_seconds(&closed, EPOCHS - 3),
        tail_seconds(&fixed, EPOCHS - 3)
    );

    let rows: Vec<_> = passes
        .iter()
        .map(|(label, rebalance, s)| {
            torchgt_compat::json!({
                "pass": label,
                "rebalance": rebalance,
                "total_s": tail_seconds(s, 0),
                "tail3_s": tail_seconds(s, EPOCHS - 3),
                "epoch_seconds": s.epoch_seconds,
                "rebalances": s.rebalances,
                "moved_tokens": s.moved_tokens,
                "imbalance_history": s.imbalance_history,
                "final_counts": s.final_counts,
                "final_loss": s.stats.epoch_losses.last().copied().unwrap_or(f32::NAN),
            })
        })
        .collect();
    dump_json(
        "BENCH_rebalance",
        &torchgt_compat::json!({
            "world": WORLD,
            "slow_rank": SLOW_RANK,
            "epochs": EPOCHS,
            "tokens": ntokens,
            "per_token_compute_s": per_token_s,
            "slow_delay_s": slow_delay_s,
            "losses_bit_identical": true,
            "rebalance_tail_speedup": rebalance_speedup,
            "passes": rows,
        }),
    );
}
