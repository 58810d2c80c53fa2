//! Bit-identity probe for refactors of the training loops: fixed-seed
//! 3-epoch runs of every trainer (dropout 0.1; TorchGT with interleave 3
//! where supported, GP-SPARSE for streaming) — the graph-level one per graph
//! (the pack of one) and in packs of 4 — of the batched trainer again
//! with GT (`GtConfig::tiny`), and of the all-reduce data-parallel
//! supervisor at world 2 and 4 — plain, with a store, and with the shrink
//! rung armed (the `dp` / `dp_resilient` / `dp_elastic` lines, equal by
//! construction). Every line is a pure function of
//! the code under test — run it on two commits and `diff` the outputs.
//! `tests/trainer_identity.rs` holds the output to the fixture recorded for
//! each kernel backend (`tests/fixtures/trainer_identity/<backend>.txt`).
//!
//! Run: `cargo run --release --offline --example trainer_identity`

use torchgt::prelude::*;
use torchgt::model::{Graphormer, GraphormerConfig, Gt, GtConfig};
use torchgt::runtime::{train_data_parallel, BatchedGraphTrainer};

const EPOCHS: usize = 3;

fn model(feat_dim: usize, out_dim: usize) -> Box<dyn SequenceModel> {
    let cfg = GraphormerConfig {
        feat_dim,
        hidden: 16,
        layers: 2,
        heads: 2,
        ffn_mult: 2,
        out_dim,
        max_degree: 16,
        max_spd: 4,
        dropout: 0.1,
    };
    Box::new(Graphormer::new(cfg, 5))
}

fn config(method: Method, seq_len: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(method, seq_len, EPOCHS);
    cfg.interleave_period = 3;
    cfg.lr = 3e-3;
    cfg.seed = 3;
    cfg
}

fn report(out: &mut Vec<String>, name: &str, trainer: &mut dyn Trainer) {
    for s in trainer.run() {
        out.push(format!(
            "{name} epoch={} loss={:#010x} train={:?} test={:?} sim={:?} beta={:?} sparse={} full={}",
            s.epoch,
            s.loss.to_bits(),
            s.train_acc,
            s.test_acc,
            s.sim_seconds,
            s.beta_thre,
            s.sparse_iters,
            s.full_iters
        ));
    }
}

fn losses(out: &mut Vec<String>, name: &str, world: usize, losses: &[f32]) {
    let bits: Vec<String> = losses.iter().map(|l| format!("{:#010x}", l.to_bits())).collect();
    out.push(format!("{name} world={world} losses={}", bits.join(",")));
}

fn main() {
    for line in probe() {
        println!("{line}");
    }
}

/// The probe's output lines, in order.
pub fn probe() -> Vec<String> {
    let mut out = Vec::new();
    let nodes = DatasetKind::OgbnArxiv.generate_node(0.006, 11);
    let m = model(nodes.feat_dim, nodes.num_classes);
    report(&mut out, "node", &mut NodeTrainer::new(config(Method::TorchGt, 128), &nodes, m));

    let graphs = DatasetKind::Zinc.generate_graphs(30, 1.0, 5);
    let m = model(graphs.feat_dim, 1);
    report(&mut out, "graph", &mut BatchedGraphTrainer::new(config(Method::TorchGt, 64), &graphs, m, 1));

    let mols = DatasetKind::OgbgMolpcba.generate_graphs(40, 1.0, 21);
    let m = model(mols.feat_dim, 6);
    report(&mut out, "batched", &mut BatchedGraphTrainer::new(config(Method::TorchGt, 64), &mols, m, 4));
    // The one GT line: Laplacian PE through the per-graph encoding memo.
    let m = Box::new(Gt::new(GtConfig::tiny(mols.feat_dim, 6), 5));
    report(&mut out, "batched_gt", &mut BatchedGraphTrainer::new(config(Method::TorchGt, 64), &mols, m, 4));

    let scratch = std::env::temp_dir().join(format!("tgt-identity-{}", std::process::id()));
    let shards = scratch.join("shards");
    generate_to_dir(DatasetKind::OgbnArxiv, 0.006, 11, &shards, 300).expect("shards are writable");
    let loader = ShardLoader::open(&shards).expect("generated shards open");
    let mf = loader.manifest();
    let m = model(mf.feat_dim as usize, mf.num_classes as usize);
    report(
        &mut out,
        "streaming",
        &mut StreamingTrainer::new(config(Method::GpSparse, 128), loader, m),
    );

    let factory = || model(nodes.feat_dim, nodes.num_classes);
    for world in [2, 4] {
        let cfg = config(Method::GpSparse, 128);
        let plain = train_data_parallel(&nodes, cfg, world, factory);
        losses(&mut out, "dp", world, &plain.epoch_losses);
        let store = CheckpointStore::new(scratch.join(format!("resilient-{world}")), 2)
            .expect("scratch store");
        let res = train_distributed(&DistributedJob {
            store: Some(&store),
            ..DistributedJob::new(&nodes, cfg, world, factory)
        })
        .expect("clean resilient run");
        losses(&mut out, "dp_resilient", world, &res.stats.epoch_losses);
        let store = CheckpointStore::new(scratch.join(format!("elastic-{world}")), 2)
            .expect("scratch store");
        let mut shrinkable = cfg;
        shrinkable.recovery.allow_shrink = true;
        let ela = train_distributed(&DistributedJob {
            store: Some(&store),
            ..DistributedJob::new(&nodes, shrinkable, world, factory)
        })
        .expect("clean elastic run");
        losses(&mut out, "dp_elastic", world, &ela.stats.epoch_losses);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    out
}
