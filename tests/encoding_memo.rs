//! The encoding memo's perf-regression guard, as counts rather than times:
//! a training run computes GT's Laplacian PE once per *distinct* sequence —
//! all of them during epoch 0 (its training steps and its `evaluate`) — and
//! never again. A change that lets any trainer path slip past the memo, or
//! that keys it on something two sequences share, moves these numbers.

use std::collections::HashSet;
use torchgt::graph::pack::pack_graphs;
use torchgt::graph::CsrGraph;
use torchgt::model::encodings::ENCODING_MEMO_BUDGET_BYTES;
use torchgt::model::{Gt, GtConfig};
use torchgt::prelude::*;
use torchgt::runtime::{BatchSource, BatchedGraphTrainer, EpochLoop};

const EPOCHS: usize = 3;

/// Train `EPOCHS` epochs; `distinct` graphs are shown in `forwards` forward
/// passes per epoch (training steps plus the per-epoch evaluate).
fn assert_one_miss_per_distinct_graph<S: BatchSource>(
    trainer: &mut EpochLoop<S>,
    distinct: u64,
    forwards: u64,
) {
    for epoch in 1..=EPOCHS as u64 {
        trainer.train_epoch();
        let stats =
            trainer.model_mut().encoding_memo().expect("GT memoises its positional encoding");
        assert_eq!(stats.misses, distinct, "after epoch {}: {stats:?}", epoch - 1);
        assert_eq!(stats.hits, epoch * forwards - distinct, "after epoch {}: {stats:?}", epoch - 1);
        assert!(stats.bytes > 0 && stats.bytes <= ENCODING_MEMO_BUDGET_BYTES, "{stats:?}");
    }
}

#[test]
fn batched_trainer_computes_one_encoding_per_distinct_pack() {
    let (graphs, per_pack) = (40, 4);
    let data = DatasetKind::OgbgMolpcba.generate_graphs(graphs, 1.0, 21);
    let mut cfg = TrainConfig::new(Method::TorchGt, 64, EPOCHS);
    cfg.interleave_period = 3;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 5));
    let mut trainer = BatchedGraphTrainer::new(cfg, &data, model, per_pack);

    // The packs the trainer builds: 80/20 split by sample order, chunked.
    let members: Vec<&CsrGraph> = data.samples.iter().map(|s| &s.graph).collect();
    let (train, held_out) = members.split_at(graphs * 8 / 10);
    let packs: Vec<CsrGraph> = train
        .chunks(per_pack)
        .chain(held_out.chunks(per_pack))
        .map(|chunk| pack_graphs(chunk).graph)
        .collect();
    let distinct: HashSet<&CsrGraph> = packs.iter().collect();
    let train_packs = trainer.num_batches();
    assert_eq!(packs.len(), train_packs + held_out.len().div_ceil(per_pack));
    assert_one_miss_per_distinct_graph(
        &mut trainer,
        distinct.len() as u64,
        (train_packs + packs.len()) as u64,
    );
}

#[test]
fn node_trainer_with_two_sequences_computes_two_encodings() {
    let nodes = DatasetKind::OgbnArxiv.generate_node(0.003, 11);
    let mut cfg = TrainConfig::new(Method::TorchGt, 256, EPOCHS);
    cfg.interleave_period = 3;
    let model = Box::new(Gt::new(GtConfig::tiny(nodes.feat_dim, nodes.num_classes), 5));
    let mut trainer = NodeTrainer::new(cfg, &nodes, model);
    assert_eq!(trainer.num_sequences(), 2);
    // Per epoch: one training step and one evaluate forward per sequence.
    assert_one_miss_per_distinct_graph(&mut trainer, 2, 4);
}
