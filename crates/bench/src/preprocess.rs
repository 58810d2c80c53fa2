//! §IV-E's pre-processing share, measured for the `preprocess_cost` bench
//! and the release gate
//! `tests/gates.rs::preprocessing_is_a_small_share_of_training`.
//!
//! The paper reports partitioning/reordering overhead of 5.2 s vs 91.2 s of
//! training on ogbn-arxiv (5.4%) and 239.7 s vs 11 732 s on MalNet (2.0%).
//! Here the same ratio is measured on the scaled stand-ins: the trainer's
//! whole set-up (the partition / reorder / mask pipeline, then every
//! sequence's partition, reorder, first reformation and C1–C3 report)
//! against the wall-clock of training to the epoch budget — for
//! Graphormer, and for GT, whose Laplacian positional encodings are the
//! third thing derived from graph structure alone and are priced beside
//! partition and reorder: one `laplacian_pe` per training sequence, once.

use crate::{functional_node_run, BenchModel};
use std::time::Instant;
use torchgt_graph::{DatasetKind, NodeDataset};
use torchgt_model::encodings::{laplacian_pe, MemoStats};
use torchgt_perf::GpuSpec;
use torchgt_runtime::{prepare_node_dataset, Method};

const SEQ_LEN: usize = 400;
const SEED: u64 = 5;

/// One row of [`preprocess_shares`]: one model trained by TorchGT on one
/// stand-in.
pub struct PreprocessShare {
    /// The stand-in's published name.
    pub dataset: &'static str,
    /// The model's paper label.
    pub model: &'static str,
    /// The trainer's set-up (`NodeTrainer::preprocess_seconds`), seconds.
    pub preprocess_s: f64,
    /// GT's one-time Laplacian encodings, seconds (0 for Graphormer).
    pub encodings_s: f64,
    /// Training to the epoch budget, seconds.
    pub training_s: f64,
    /// `(preprocess_s + encodings_s) / (preprocess_s + training_s)`, in
    /// percent.
    pub share_pct: f64,
    /// The trainer's training sequences.
    pub sequences: usize,
    /// The model's encoding memo after training (`None` when it memoises
    /// nothing).
    pub memo: Option<MemoStats>,
}

/// Seconds of one `laplacian_pe` per sequence the node trainer prepares —
/// GT's one-time encoding cost (`pe_dim` 8, 30 iterations, as `Gt` runs it).
fn encoding_seconds(dataset: &NodeDataset) -> f64 {
    let hidden = BenchModel::Gt.arch(dataset.feat_dim, dataset.num_classes).shape().hidden;
    let clusters = GpuSpec::rtx3090().tune_k(hidden);
    let prepared = prepare_node_dataset(dataset, SEQ_LEN, true, clusters, SEED);
    let t = Instant::now();
    for seq in &prepared.sequences {
        std::hint::black_box(laplacian_pe(&seq.graph, 8, 30, SEED));
    }
    t.elapsed().as_secs_f64()
}

/// Graphormer-slim and GT on an arxiv and a products stand-in (the latter
/// MalNet-class in size), each trained by TorchGT for 16 epochs.
pub fn preprocess_shares() -> Vec<PreprocessShare> {
    let mut rows = Vec::new();
    for (kind, scale, epochs) in [
        // 16 epochs: with its encodings computed once GT trains about twice
        // as fast, and at 8 its one-time share sat at 20 % of a 25 % bound.
        (DatasetKind::OgbnArxiv, 0.012, 16usize),
        (DatasetKind::OgbnProducts, 0.0012, 16),
    ] {
        let dataset = kind.generate_node(scale, 61);
        for model in [BenchModel::GraphormerSlim, BenchModel::Gt] {
            let (stats, mut trainer) = functional_node_run(&dataset, Method::TorchGt, model, SEQ_LEN, epochs, SEED);
            // Training time includes epoch 0's first visits, so the one-time
            // cost is counted once on each side of the ratio.
            let training_s: f64 = stats.iter().map(|s| s.wall_seconds).sum();
            let preprocess_s = trainer.preprocess_seconds();
            let encodings_s = if model == BenchModel::Gt { encoding_seconds(&dataset) } else { 0.0 };
            let share_pct = (preprocess_s + encodings_s) / (preprocess_s + training_s) * 100.0;
            let (sequences, memo) = (trainer.num_sequences(), trainer.model_mut().encoding_memo());
            let (dataset, model) = (kind.spec().name, model.label());
            rows.push(PreprocessShare { dataset, model, preprocess_s, encodings_s, training_s, share_pct, sequences, memo });
        }
    }
    rows
}
