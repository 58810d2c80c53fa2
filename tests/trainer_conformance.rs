//! One conformance table for four trainers — the same `EpochLoop` over its
//! three data sources, the packed one per graph (the pack of one) and in
//! packs — driven through `&mut dyn Trainer`:
//!
//! * snapshot ∘ restore into a fresh trainer at *every* epoch boundary
//!   continues bit-for-bit (for the node trainer that includes the boundary
//!   where the Auto Tuner moved β_thre and the masks were re-formed);
//! * dispatch through `dyn Trainer` ≡ the inherent methods;
//! * attaching a recorder never changes the numbers;
//! * one `StepTrace` per iteration, and the steps' forward time sums to the
//!   epoch trace's (the graph-level trainer publishes no `EpochTrace` yet —
//!   see `BatchSource::EPOCH_TRACE` — so its steps are only counted).

use std::sync::Arc;
use torchgt::model::{Graphormer, GraphormerConfig, Gt, GtConfig};
use torchgt::prelude::*;
use torchgt::runtime::BatchedGraphTrainer;

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
        // Dropout on: the PRNG cursors are part of the state under test.
        dropout: 0.1,
    };
    Box::new(Graphormer::new(cfg, 5))
}

fn config(method: Method, seq_len: usize, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(method, seq_len, epochs);
    cfg.interleave_period = 3;
    cfg.lr = 3e-3;
    cfg.seed = 3;
    cfg
}

/// Everything of an epoch except its wall-clock.
fn numbers(s: &EpochStats) -> (usize, u32, u64, u64, u64, u64, usize, usize) {
    (
        s.epoch,
        s.loss.to_bits(),
        s.train_acc.to_bits(),
        s.test_acc.to_bits(),
        s.sim_seconds.to_bits(),
        s.beta_thre.to_bits(),
        s.sparse_iters,
        s.full_iters,
    )
}

fn conform<T: Trainer>(
    name: &str,
    epochs: usize,
    beta_moves: bool,
    epoch_traces: bool,
    build: impl Fn() -> T,
    inherent_epoch: fn(&mut T) -> EpochStats,
) {
    // Reference: driven through the trait object, a snapshot per boundary.
    let mut reference = build();
    let dynamic: &mut dyn Trainer = &mut reference;
    let mut stats = Vec::new();
    let mut snapshots = Vec::new();
    for _ in 0..epochs {
        stats.push(dynamic.train_epoch());
        snapshots.push(dynamic.snapshot());
    }
    let moved = stats.windows(2).any(|w| w[0].beta_thre != w[1].beta_thre);
    assert_eq!(moved, beta_moves, "{name}: β_thre history {stats:?}");

    // dyn ≡ inherent.
    let mut concrete = build();
    for s in &stats {
        assert_eq!(numbers(&inherent_epoch(&mut concrete)), numbers(s), "{name}: inherent call");
    }

    // Restore at every boundary continues bit-for-bit, state included.
    for boundary in 1..epochs {
        let mut fresh = build();
        let resumed: &mut dyn Trainer = &mut fresh;
        resumed.restore(&snapshots[boundary - 1]).unwrap();
        assert_eq!(resumed.epoch(), boundary);
        let next = resumed.train_epoch();
        assert_eq!(numbers(&next), numbers(&stats[boundary]), "{name}: resumed at {boundary}");
        assert!(resumed.snapshot() == snapshots[boundary], "{name}: state after {boundary}");
    }

    // Recorder on ≡ recorder off, and the traces add up.
    let mut traced = build();
    let recorder = Arc::new(MemoryRecorder::default());
    let dynamic: &mut dyn Trainer = &mut traced;
    dynamic.attach_recorder(recorder.clone());
    for s in &stats {
        assert_eq!(numbers(&dynamic.train_epoch()), numbers(s), "{name}: traced run");
    }
    let report = recorder.report();
    assert_eq!(report.epochs.len(), if epoch_traces { epochs } else { 0 }, "{name}: epoch traces");
    for s in &stats {
        let steps: Vec<_> = report.steps.iter().filter(|t| t.epoch == s.epoch).collect();
        assert_eq!(steps.len(), s.sparse_iters + s.full_iters, "{name}: steps of epoch {}", s.epoch);
        assert_eq!(steps.iter().filter(|t| t.sparse).count(), s.sparse_iters, "{name}: sparse steps");
        let forward_s: f64 = steps.iter().map(|t| t.forward_s).sum();
        assert!(forward_s > 0.0, "{name}: steps are timed");
        if let Some(trace) = report.epochs.iter().find(|t| t.epoch == s.epoch) {
            assert!(
                (forward_s - trace.forward_s).abs() <= 1e-9 * trace.forward_s,
                "{name}: steps' forward {forward_s} vs epoch's {}",
                trace.forward_s
            );
        }
    }
}

#[test]
fn all_four_trainers_conform_through_dyn_trainer() {
    let shape = ModelShape { layers: 2, hidden: 16, heads: 2 };
    let (gpu, topo) = (GpuSpec::rtx3090(), ClusterTopology::rtx3090(1));

    // 14 epochs: the Auto Tuner's first verdict lands at the end of epoch 11.
    let nodes = DatasetKind::OgbnArxiv.generate_node(0.002, 31);
    let build = || {
        let m = model(nodes.feat_dim, nodes.num_classes);
        NodeTrainer::new(config(Method::TorchGt, 128, 14), &nodes, m, shape, gpu, topo)
    };
    conform("node", 14, true, true, build, NodeTrainer::train_epoch);

    // Per-graph training: the pack of one.
    let graphs = DatasetKind::Zinc.generate_graphs(20, 1.0, 5);
    let build = || {
        let m = model(graphs.feat_dim, 1);
        BatchedGraphTrainer::new(config(Method::TorchGt, 64, 3), &graphs, m, 1)
    };
    conform("graph", 3, false, false, build, BatchedGraphTrainer::train_epoch);

    let mols = DatasetKind::OgbgMolpcba.generate_graphs(24, 1.0, 21);
    let build = || {
        let cfg = config(Method::TorchGt, 64, 3);
        BatchedGraphTrainer::new(cfg, &mols, model(mols.feat_dim, 6), 4)
    };
    conform("batched", 3, false, false, build, BatchedGraphTrainer::train_epoch);

    // GT keeps a per-graph encoding memo that no snapshot carries: a
    // restored trainer starts with it cold and must still continue to the
    // bit, because the memo never changes what an encoding is.
    let build = || {
        let cfg = config(Method::TorchGt, 64, 3);
        let gt = GtConfig { dropout: 0.1, ..GtConfig::tiny(mols.feat_dim, 6) };
        BatchedGraphTrainer::new(cfg, &mols, Box::new(Gt::new(gt, 5)), 4)
    };
    conform("batched-gt", 3, false, false, build, BatchedGraphTrainer::train_epoch);

    let dir = std::env::temp_dir().join(format!("tgt-conformance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_to_dir(DatasetKind::OgbnArxiv, 0.004, 11, &dir, 300).unwrap();
    let build = || {
        let loader = ShardLoader::open(&dir).unwrap();
        let mf = loader.manifest();
        let m = model(mf.feat_dim as usize, mf.num_classes as usize);
        StreamingTrainer::new(config(Method::GpSparse, 128, 3), loader, m, shape, gpu, topo)
    };
    conform("streaming", 3, false, true, build, StreamingTrainer::train_epoch);
    let _ = std::fs::remove_dir_all(&dir);
}
