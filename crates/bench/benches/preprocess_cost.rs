//! §IV-E: pre-processing cost vs model-convergence time.
//!
//! Prints `torchgt_bench::preprocess_shares` — the trainer's set-up
//! (plus GT's Laplacian encodings) against training to the epoch
//! budget, for Graphormer and GT on two stand-ins — with the encoding
//! memo's counters of each GT run. Its bounds (a share under 25 %, one
//! encoding computed per sequence) are
//! `tests/gates.rs::preprocessing_is_a_small_share_of_training`. The rows
//! land in `target/experiments/preprocess_cost.json`.

use torchgt_bench::{banner, dump_json, preprocess_shares};

fn main() {
    banner("preprocess_cost", "§IV-E — pre-processing cost vs training time");
    println!(
        "{:<16} {:<9} {:>12} {:>14} {:>13} {:>8}",
        "dataset", "model", "preproc (s)", "encodings (s)", "training (s)", "share"
    );
    let mut rows = Vec::new();
    for r in preprocess_shares() {
        println!(
            "{:<16} {:<9} {:>12.3} {:>14.3} {:>13.3} {:>7.1}%",
            r.dataset, r.model, r.preprocess_s, r.encodings_s, r.training_s, r.share_pct
        );
        if let Some(memo) = r.memo {
            println!(
                "{:<16} {:<9} {} encodings computed, {} lent ({} B held)",
                "", "", memo.misses, memo.hits, memo.bytes
            );
        }
        rows.push(torchgt_compat::json!({
            "dataset": r.dataset, "model": r.model, "preprocess_s": r.preprocess_s,
            "encodings_s": r.encodings_s, "training_s": r.training_s, "share_pct": r.share_pct,
        }));
    }
    println!("\npaper reference: 5.4% (ogbn-arxiv), 2.0% (MalNet)");
    dump_json("preprocess_cost", &torchgt_compat::json!(rows));
}
