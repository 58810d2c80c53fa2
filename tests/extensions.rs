//! Integration tests for the extension surface: Performer baseline, virtual
//! node, batched graph training, distributed data parallelism and
//! checkpointing — all through the public API.

use torchgt::ckpt::TrainerState;
use torchgt::graph::pack::pack_graphs;
use torchgt::model::vnode::VirtualNode;
use torchgt::model::{loss, Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt::prelude::*;
use torchgt::runtime::{train_data_parallel, BatchedGraphTrainer};
use torchgt::tensor::{init, Workspace};

#[test]
fn performer_trains_through_public_api() {
    let d = DatasetKind::OgbnArxiv.generate_node(0.002, 61);
    let features = Tensor::from_vec(d.num_nodes(), d.feat_dim, d.features.clone());
    let mut model = Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 3);
    model.set_training(true);
    let mut opt = torchgt::tensor::Adam::with_lr(2e-3);
    use torchgt::tensor::optim::Optimizer;
    let batch = SequenceBatch { features: &features, graph: &d.graph, spd: None };
    let mut ws = Workspace::new();
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..10 {
        let logits = model.forward_ws(&batch, Pattern::Performer(32), &mut ws);
        let (l, dl) = loss::softmax_cross_entropy_ws(&logits, &d.labels, &mut ws);
        model.backward_ws(&batch, Pattern::Performer(32), &dl, &mut ws);
        opt.step(&mut model.params_mut());
        ws.give(logits);
        ws.give(dl);
        first.get_or_insert(l);
        last = l;
    }
    assert!(last < *first.as_ref().unwrap(), "{first:?} → {last}");
}

#[test]
fn virtual_node_graph_readout_trains() {
    let data = DatasetKind::OgbgMolpcba.generate_graphs(12, 1.0, 5);
    let mut model = VirtualNode::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 7), data.feat_dim, 9);
    model.set_training(true);
    use torchgt::tensor::optim::Optimizer;
    let mut opt = torchgt::tensor::Adam::with_lr(3e-3);
    let mut ws = Workspace::new();
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..8 {
        let mut epoch_loss = 0.0;
        for s in &data.samples {
            let feats = Tensor::from_vec(s.graph.num_nodes(), s.feat_dim, s.features.clone());
            let batch = SequenceBatch { features: &feats, graph: &s.graph, spd: None };
            let full = model.forward_ws(&batch, Pattern::Flash, &mut ws);
            let graph_logits = full.slice_rows(0, 1);
            let label = match s.label {
                torchgt::graph::GraphLabel::Class(c) => c,
                _ => unreachable!(),
            };
            let (l, dg) = loss::softmax_cross_entropy_ws(&graph_logits, &[label], &mut ws);
            let mut dfull = Tensor::zeros(full.rows(), full.cols());
            for c in 0..full.cols() {
                dfull.set(0, c, dg.get(0, c));
            }
            model.backward_ws(&batch, Pattern::Flash, &dfull, &mut ws);
            opt.step(&mut model.params_mut());
            ws.give(full);
            ws.give(dg);
            epoch_loss += l;
        }
        first.get_or_insert(epoch_loss);
        last = epoch_loss;
    }
    assert!(last < *first.as_ref().unwrap());
}

#[test]
fn batched_trainer_through_public_api() {
    let data = DatasetKind::Zinc.generate_graphs(20, 1.0, 9);
    let mut cfg = TrainConfig::new(Method::TorchGt, 64, 3);
    cfg.lr = 3e-3;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 1), 3));
    let mut t = BatchedGraphTrainer::new(cfg, &data, model, 4);
    let stats = t.run();
    assert_eq!(stats.len(), 3);
    assert!(stats.iter().all(|s| s.loss.is_finite()));
}

#[test]
fn batched_evaluation_attends_over_the_mask_the_method_trains_on() {
    // GP-RAW trains packed batches over the block-diagonal full mask, so it
    // must be scored over it too (the pre-engine loop always scored over
    // the sparse mask). Regression labels make the metric continuous. The
    // reference replays the packing through the public API: batches of 3
    // over the 8-graph training split.
    use torchgt::graph::generators::complete_graph;
    use torchgt::graph::pack::segment_mean;
    let data = DatasetKind::Zinc.generate_graphs(10, 1.0, 3);
    let build = |method| {
        let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 1), 3));
        BatchedGraphTrainer::new(TrainConfig::new(method, 64, 1), &data, model, 3)
    };
    let (train_metric, _) = build(Method::GpRaw).evaluate();

    let mut reference = Gt::new(GtConfig::tiny(data.feat_dim, 1), 3);
    reference.set_training(false);
    let train = &data.samples[..8];
    let mut expect = 0.0f64;
    for members in train.chunks(3) {
        let graphs: Vec<_> = members.iter().map(|s| &s.graph).collect();
        let packed = pack_graphs(&graphs);
        let blocks: Vec<_> =
            graphs.iter().map(|g| complete_graph(g.num_nodes()).with_self_loops()).collect();
        let full_mask = pack_graphs(&blocks.iter().collect::<Vec<_>>()).graph;
        let rows: Vec<f32> = members.iter().flat_map(|s| s.features.iter().copied()).collect();
        let features = Tensor::from_vec(packed.graph.num_nodes(), data.feat_dim, rows);
        let batch = SequenceBatch { features: &features, graph: &packed.graph, spd: None };
        let logits = reference.forward_ws(&batch, Pattern::Sparse(&full_mask), &mut Workspace::new());
        let pooled = segment_mean(logits.data(), 1, &packed.segments);
        let err: f64 = std::iter::zip(members, &pooled)
            .map(|(s, p)| match s.label {
                GraphLabel::Value(v) => (p - v).abs() as f64,
                GraphLabel::Class(_) => unreachable!("ZINC is a regression task"),
            })
            .sum();
        expect -= err / members.len() as f64;
    }
    expect /= train.chunks(3).len() as f64;
    assert!((train_metric - expect).abs() < 1e-6, "{train_metric} vs {expect}");
    let (sparse_metric, _) = build(Method::GpSparse).evaluate();
    assert!((train_metric - sparse_metric).abs() > 1e-6, "the two masks must score differently");
}

#[test]
fn distributed_training_beats_chance() {
    let d = DatasetKind::Flickr.generate_node(0.004, 3);
    let mut cfg = TrainConfig::new(Method::GpSparse, 128, 3);
    cfg.lr = 2e-3;
    let stats = train_data_parallel(&d, cfg, 2, || {
        Box::new(Gt::new(GtConfig::tiny(d.feat_dim, d.num_classes), 13))
    });
    assert_eq!(stats.world, 2);
    assert!(stats.epoch_losses.last().unwrap() < stats.epoch_losses.first().unwrap());
    assert!(stats.grad_bytes > 0);
}

#[test]
fn checkpoint_roundtrip_preserves_model_outputs() {
    let g = torchgt::graph::generators::cycle_graph(10);
    let x = init::normal(10, 4, 0.0, 1.0, 3);
    let batch = SequenceBatch { features: &x, graph: &g, spd: None };
    let mut ws = Workspace::new();
    let mut original = Gt::new(GtConfig::tiny(4, 3), 21);
    original.set_training(false);
    let y_before = original.forward_ws(&batch, Pattern::Flash, &mut ws);
    // Save, then load into a same-seeded model whose parameters were wiped
    // (the LapPE is seed-derived and not a parameter, so the seed must
    // match; the snapshot covers parameters and optimizer moments only).
    let mut buf = Vec::new();
    {
        let params = original.params_mut();
        let refs: Vec<&torchgt::tensor::Param> = params.iter().map(|p| &**p).collect();
        Snapshot::capture(TrainerState::basic(0, 0), &refs).write_to(&mut buf).unwrap();
    }
    let mut restored = Gt::new(GtConfig::tiny(4, 3), 21);
    for p in restored.params_mut() {
        p.value.fill_zero();
    }
    restored.set_training(false);
    let y_other = restored.forward_ws(&batch, Pattern::Flash, &mut ws);
    assert_ne!(y_before.data(), y_other.data(), "wiped params must differ");
    {
        let mut params = restored.params_mut();
        Snapshot::read_from(&buf).unwrap().apply_params(&mut params).unwrap();
    }
    let y_after = restored.forward_ws(&batch, Pattern::Flash, &mut ws);
    assert_eq!(y_before.data(), y_after.data(), "checkpoint must restore outputs");
}

#[test]
fn packed_block_diagonal_isolation_via_attention() {
    // Attention over a packed mask must not leak across member graphs:
    // changing graph B's features leaves graph A's outputs untouched.
    let a = torchgt::graph::generators::cycle_graph(6);
    let b = torchgt::graph::generators::star_graph(5);
    let packed = pack_graphs(&[&a, &b]);
    let mask = torchgt::sparse::topology_mask(&packed.graph, false);
    let q = init::normal(11, 8, 0.0, 1.0, 1);
    let k = init::normal(11, 8, 0.0, 1.0, 2);
    let mut v = init::normal(11, 8, 0.0, 1.0, 3);
    let out1 = torchgt::model::attention::sparse(&q, &k, &v, 2, &mask, None).out;
    // Perturb graph B's V rows (tokens 6..11).
    for r in 6..11 {
        for c in 0..8 {
            v.set(r, c, v.get(r, c) + 5.0);
        }
    }
    let out2 = torchgt::model::attention::sparse(&q, &k, &v, 2, &mask, None).out;
    for r in 0..6 {
        assert_eq!(out1.row(r), out2.row(r), "leak into graph A at row {r}");
    }
    assert_ne!(out1.row(7), out2.row(7), "graph B must change");
}
