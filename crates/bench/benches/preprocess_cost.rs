//! §IV-E: pre-processing cost vs model-convergence time.
//!
//! The paper reports partitioning/reordering overhead of 5.2 s vs 91.2 s of
//! training on ogbn-arxiv (5.4%) and 239.7 s vs 11 732 s on MalNet (2.0%).
//! Here we measure the same ratio on the scaled stand-ins: the pipeline's
//! wall-clock against the wall-clock of training to the epoch budget — for
//! Graphormer, and for GT, whose Laplacian positional encodings are the
//! third thing derived from graph structure alone and are priced beside
//! partition and reorder: one `laplacian_pe` per training sequence, once.
//!
//! A second table times what that buys a forward pass: the first visit of a
//! sequence (its encoding is computed) against a repeat visit, at the
//! shapes of the perf ledger's two GT workloads. The rows land in
//! `target/experiments/BENCH_encodings.json`; the root `BENCH_encodings.json`
//! is `{"parent": …, "change": …}` of that file from two checkouts.
//!
//! The lines between `BEGIN change-only` and `END change-only` read the
//! encoding memo's counters, which a checkout older than the memo lacks;
//! delete them (`sed '/BEGIN change-only/,/END change-only/d'`) to build
//! there.

use std::time::Instant;
use torchgt_bench::{banner, dump_json, functional_node_run, BenchModel};
use torchgt_compat::json::Value;
use torchgt_graph::pack::pack_graphs;
use torchgt_graph::{CsrGraph, DatasetKind, NodeDataset};
use torchgt_model::encodings::laplacian_pe;
use torchgt_model::{Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt_perf::GpuSpec;
use torchgt_runtime::{prepare_node_dataset, Method};
use torchgt_sparse::topology_mask;
use torchgt_tensor::{Tensor, Workspace};

const SEQ_LEN: usize = 400;
const SEED: u64 = 5;

/// Seconds of one `laplacian_pe` per sequence the node trainer prepares —
/// GT's one-time encoding cost (`pe_dim` 8, 30 iterations, as `Gt` runs it).
fn encoding_seconds(dataset: &NodeDataset) -> f64 {
    let hidden = BenchModel::Gt.functional_shape().hidden;
    let clusters = GpuSpec::rtx3090().tune_k(hidden);
    let prepared = prepare_node_dataset(dataset, SEQ_LEN, true, clusters, SEED);
    let t = Instant::now();
    for seq in &prepared.sequences {
        std::hint::black_box(laplacian_pe(&seq.graph, 8, 30, SEED));
    }
    t.elapsed().as_secs_f64()
}

fn share_rows() -> Vec<Value> {
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<9} {:>12} {:>14} {:>13} {:>8}",
        "dataset", "model", "preproc (s)", "encodings (s)", "training (s)", "share"
    );
    for (kind, scale, epochs) in [
        // 16 epochs: with its encodings computed once GT trains about twice
        // as fast, and at 8 its one-time share sat at 20 % of a 25 % bound.
        (DatasetKind::OgbnArxiv, 0.012, 16usize),
        (DatasetKind::OgbnProducts, 0.0012, 16), // MalNet-class workload size
    ] {
        let dataset = kind.generate_node(scale, 61);
        for model in [BenchModel::GraphormerSlim, BenchModel::Gt] {
            let (label, gt) = (model.label(), matches!(model, BenchModel::Gt));
            let (stats, trainer) =
                functional_node_run(&dataset, Method::TorchGt, model, SEQ_LEN, epochs, SEED);
            // Training time includes epoch 0's first visits, so the one-time
            // cost is counted once on each side of the ratio.
            let train: f64 = stats.iter().map(|s| s.wall_seconds).sum();
            let prep = trainer.preprocess_seconds();
            let encodings = if gt { encoding_seconds(&dataset) } else { 0.0 };
            let share = (prep + encodings) / (prep + train) * 100.0;
            println!(
                "{:<16} {:<9} {:>12.3} {:>14.3} {:>13.3} {:>7.1}%",
                kind.spec().name,
                label,
                prep,
                encodings,
                train,
                share
            );
            assert!(share < 25.0, "pre-processing must not dominate: {share:.1}%");
            rows.push(torchgt_compat::json!({
                "dataset": kind.spec().name, "model": label, "preprocess_s": prep,
                "encodings_s": encodings, "training_s": train, "share_pct": share,
            }));
            // BEGIN change-only
            let mut trainer = trainer;
            let memo = trainer.model_mut().encoding_memo();
            assert_eq!(memo.is_some(), gt, "GT, and only GT, memoises an encoding");
            if let Some(memo) = memo {
                // Every sequence misses exactly once, so nothing was left
                // for the steady-state epochs to compute.
                assert_eq!(memo.misses, trainer.num_sequences() as u64, "{memo:?}");
                println!(
                    "{:<16} {:<9} {} encodings computed, {} lent ({} B held)",
                    "", "", memo.misses, memo.hits, memo.bytes
                );
            }
            // END change-only
        }
    }
    rows
}

/// One workload's forward inputs: features, sequence graph, sparse mask.
type Visit = (Tensor, CsrGraph, CsrGraph);

/// `graph_batched`: 512 molpcba stand-ins packed 8 to a sequence.
fn packed_visits() -> Vec<Visit> {
    let data = DatasetKind::OgbgMolpcba.generate_graphs(512, 1.0, 1);
    data.samples
        .chunks(8)
        .map(|chunk| {
            let members: Vec<&CsrGraph> = chunk.iter().map(|s| &s.graph).collect();
            let graph = pack_graphs(&members).graph;
            let flat: Vec<f32> = chunk.iter().flat_map(|s| s.features.iter().copied()).collect();
            let mask = topology_mask(&graph, true);
            (Tensor::from_vec(graph.num_nodes(), data.feat_dim, flat), graph, mask)
        })
        .collect()
}

/// `dp2`: the arxiv stand-in at 0.0125 in 512-token sequences.
fn node_visits(dataset: &NodeDataset) -> Vec<Visit> {
    prepare_node_dataset(dataset, 512, false, 1, 1)
        .sequences
        .into_iter()
        .map(|seq| (seq.features, seq.graph, seq.mask))
        .collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Eval-mode forward milliseconds, first visit against repeat visits:
/// `rounds` fresh models, each shown every sequence once and then
/// `REPEATS` more times, all on one warm arena.
fn visit_row(name: &str, cfg: GtConfig, visits: &[Visit], rounds: usize) -> Value {
    const REPEATS: usize = 3;
    let mut ws = Workspace::new();
    let (mut first, mut repeat) = (Vec::new(), Vec::new());
    // BEGIN change-only
    let mut memo = torchgt_model::encodings::MemoStats::default();
    // END change-only
    // Round 0 warms the arena and is not recorded.
    for round in 0..=rounds {
        let mut model = Gt::new(cfg, 7);
        model.set_training(false);
        for pass in 0..=REPEATS {
            for (features, graph, mask) in visits {
                let batch = SequenceBatch { features, graph, spd: None };
                let every: Vec<usize> = (0..features.rows()).collect();
                let t = Instant::now();
                let logits = model.forward_ws(&batch, Pattern::Sparse(mask), &every, &mut ws);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                ws.give(logits);
                match (round, pass) {
                    (0, _) => {}
                    (_, 0) => first.push(ms),
                    _ => repeat.push(ms),
                }
            }
        }
        // BEGIN change-only
        memo = model.encoding_memo().expect("GT has a memo");
        // END change-only
    }
    let tokens: usize = visits.iter().map(|v| v.0.rows()).sum::<usize>() / visits.len();
    let (first, repeat) = (median(&mut first), median(&mut repeat));
    println!(
        "{name:<14} {:>4} x {:<3} pe_dim {}   first visit {first:>7.3} ms   repeat visit {repeat:>7.3} ms   x{:.2}",
        tokens,
        cfg.hidden,
        cfg.pe_dim,
        first / repeat
    );
    let row = torchgt_compat::json!({
        "shape": name, "sequences": visits.len(), "mean_tokens": tokens,
        "hidden": cfg.hidden, "pe_dim": cfg.pe_dim,
        "first_visit_forward_ms": first, "repeat_visit_forward_ms": repeat,
    });
    // BEGIN change-only
    let hit_rate = memo.hits as f64 / (memo.hits + memo.misses) as f64;
    println!(
        "{:<14} memo: {} misses, {} hits (hit rate {hit_rate:.3}), {} B",
        "", memo.misses, memo.hits, memo.bytes
    );
    assert_eq!(memo.misses, visits.len() as u64, "one encoding per sequence: {memo:?}");
    let Value::Object(mut fields) = row else { unreachable!("built as an object above") };
    fields.push(("hit_rate".to_string(), torchgt_compat::json!(hit_rate)));
    fields.push(("memo_bytes".to_string(), torchgt_compat::json!(memo.bytes)));
    let row = Value::Object(fields);
    // END change-only
    row
}

fn main() {
    banner("preprocess_cost", "§IV-E — pre-processing cost vs training time");
    let shares = share_rows();
    println!("\npaper reference: 5.4% (ogbn-arxiv), 2.0% (MalNet)");
    println!("paper shape check ✓ pre-processing is a small fraction of training");

    println!("\nGT forward, first visit vs repeat visit (eval mode, medians)");
    let molpcba = packed_visits();
    let feat = molpcba[0].0.cols();
    let arxiv = DatasetKind::OgbnArxiv.generate_node(0.0125, 1);
    let dp2 = GtConfig {
        feat_dim: arxiv.feat_dim,
        hidden: 64,
        layers: 3,
        heads: 4,
        ffn_mult: 4,
        out_dim: arxiv.num_classes,
        pe_dim: 8,
        dropout: 0.0,
    };
    let visits = vec![
        visit_row("graph_batched", GtConfig::tiny(feat, 6), &molpcba, 5),
        visit_row("dp2", dp2, &node_visits(&arxiv), 20),
    ];
    dump_json("preprocess_cost", &torchgt_compat::json!(shares));
    dump_json(
        "BENCH_encodings",
        &torchgt_compat::json!({
            "backend": torchgt_tensor::backend::active().name(),
            "threads": std::env::var("TORCHGT_THREADS").unwrap_or_else(|_| "default".into()),
            "shares": shares,
            "visits": visits,
        }),
    );
}
