//! What a trainer's or executor's scratch arena holds is bounded by its
//! largest step, not by how many distinct step shapes it has seen: once warm,
//! `held_bytes` is flat, at most twice `high_water_bytes`, and no step
//! allocates — over packed graph batches (a different row count nearly every
//! step), a node trainer whose last sequence is short, and serving
//! micro-batches of random size. And because a buffer now comes back from a
//! different-shaped earlier use, the same run is repeated by a twin whose
//! arena has another history (one extra `evaluate` first): any kernel that
//! read a stale element would make the two disagree.

use std::collections::HashSet;
use torchgt::model::{Gt, GtConfig};
use torchgt::prelude::*;
use torchgt::runtime::{BatchSource, BatchedGraphTrainer, EpochLoop};
use torchgt::serve::batch::pack_queries;
use torchgt::serve::ego_subgraph;
use torchgt_compat::rng::{Rng, SeedableRng, SmallRng};

const EPOCHS: usize = 3;

/// Train `EPOCHS` epochs on `trainer` and on `twin`; from epoch 2 on the
/// arena neither allocates nor grows, and the losses agree to the bit.
fn assert_bounded_and_deterministic<S: BatchSource>(
    mut trainer: EpochLoop<S>,
    mut twin: EpochLoop<S>,
) {
    twin.evaluate();
    let mut after = Vec::new();
    for epoch in 0..EPOCHS {
        let (a, b) = (trainer.train_epoch(), twin.train_epoch());
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {epoch}: twins disagree");
        assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits(), "epoch {epoch}: twins disagree");
        after.push(trainer.workspace_stats());
    }
    let (warm, last) = (after[EPOCHS - 2], after[EPOCHS - 1]);
    assert_eq!(last.alloc_bytes, warm.alloc_bytes, "epoch {} allocated", EPOCHS - 1);
    assert_eq!(last.held_bytes, warm.held_bytes, "the arena grew in epoch {}", EPOCHS - 1);
    assert!(
        last.held_bytes <= 2 * last.high_water_bytes,
        "arena holds {} bytes, its largest step checked out {}",
        last.held_bytes,
        last.high_water_bytes
    );
}

#[test]
fn batched_trainer_arena_follows_its_largest_pack() {
    let data = DatasetKind::OgbgMolpcba.generate_graphs(128, 1.0, 21);
    let build = || {
        let mut cfg = TrainConfig::new(Method::TorchGt, 64, EPOCHS);
        cfg.interleave_period = 4;
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 5));
        BatchedGraphTrainer::new(cfg, &data, model, 8)
    };
    // The premise: the packs really do differ in size from step to step.
    let sizes: Vec<usize> = data.samples.iter().map(|s| s.graph.num_nodes()).collect();
    let rows: HashSet<usize> = sizes.chunks(8).map(|pack| pack.iter().sum()).collect();
    assert!(rows.len() >= 8, "only {} distinct pack sizes", rows.len());
    assert_bounded_and_deterministic(build(), build());
}

#[test]
fn node_trainer_arena_is_one_set_despite_a_short_last_sequence() {
    let nodes = DatasetKind::OgbnArxiv.generate_node(0.004, 11);
    let seq_len = 256;
    assert_ne!(nodes.graph.num_nodes() % seq_len, 0, "the last sequence must be short");
    // One interleaved full pass per epoch, on the same sequence every epoch
    // (as on `node_long`), so epoch 1 already repeats epoch 0's shapes.
    let sequences = nodes.graph.num_nodes().div_ceil(seq_len);
    let build = || {
        TorchGtBuilder::new(Method::TorchGt)
            .seq_len(seq_len)
            .epochs(EPOCHS)
            .hidden(16)
            .layers(2)
            .heads(2)
            .seed(11)
            .interleave_period(sequences)
            .build_node(&nodes)
            .expect("valid configuration")
    };
    assert!(sequences >= 3 && build().num_sequences() == sequences);
    assert_bounded_and_deterministic(build(), build());
}

#[test]
fn executor_arena_does_not_ratchet_over_random_micro_batches() {
    let dataset = DatasetKind::OgbnArxiv.generate_node(0.002, 7);
    let mut trainer = TorchGtBuilder::new(Method::TorchGt)
        .seq_len(128)
        .epochs(1)
        .hidden(16)
        .layers(2)
        .heads(2)
        .seed(7)
        .build_node(&dataset)
        .expect("valid configuration");
    trainer.train_epoch();
    let calib = CalibSet::from_dataset(&dataset, 64, 7);
    let opts = FreezeOptions { scheme: QuantScheme::Int8, max_acc_drop: 1.0 };
    let frozen = trainer.freeze_with(&calib, opts).expect("ungated freeze");
    let mut exec = FrozenExecutor::new(&frozen).expect("executor builds");

    let mut rng = SmallRng::seed_from_u64(0xA7E4A);
    let (mut rows_seen, mut held_at_half) = (HashSet::new(), 0);
    for batch_no in 0..200 {
        let subs: Vec<_> = (0..rng.gen_range(1..9usize))
            .map(|_| {
                let node = rng.gen_range(0..dataset.graph.num_nodes() as u32);
                ego_subgraph(&dataset.graph, node, rng.gen_range(1..32usize))
            })
            .collect();
        let packed = pack_queries(&subs, &dataset.features, dataset.feat_dim);
        rows_seen.insert(packed.features.rows());
        let batch = SequenceBatch { features: &packed.features, graph: &packed.graph, spd: None };
        let starts: Vec<usize> = packed.segments.iter().map(|&(start, _)| start).collect();
        exec.forward_argmax_rows(&batch, Pattern::Sparse(&packed.mask), &starts);
        if batch_no == 99 {
            held_at_half = exec.workspace().stats().held_bytes;
        }
    }
    assert!(rows_seen.len() >= 50, "only {} distinct batch sizes", rows_seen.len());
    let stats = exec.workspace().stats();
    // A hundred more batches of new sizes may still top a slot up to a
    // larger request; they must not add slots.
    assert!(
        stats.held_bytes <= 2 * stats.high_water_bytes && stats.held_bytes <= 2 * held_at_half,
        "executor arena ratcheted: {stats:?}, {held_at_half} bytes held after 100 batches"
    );
}
