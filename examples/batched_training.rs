//! Batched graph-level training with block-diagonal packing, a virtual-node
//! readout, and checkpointing — the production-style pipeline pieces built
//! on top of the paper's core techniques.
//!
//! ```sh
//! cargo run --release --example batched_training
//! ```

use torchgt::model::vnode::VirtualNode;
use torchgt::model::{loss, Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt::prelude::*;
use torchgt::runtime::BatchedGraphTrainer;
use torchgt::ckpt::TrainerState;
use torchgt::tensor::optim::Optimizer;
use torchgt::tensor::Workspace;

fn main() {
    // --- 1. Packed-batch training on molpcba-like molecules -------------
    let data = DatasetKind::OgbgMolpcba.generate_graphs(48, 1.0, 31);
    println!(
        "molpcba-like: {} molecules, batched 6 per packed sequence (block-diagonal masks)",
        data.len()
    );
    let mut cfg = TrainConfig::new(Method::TorchGt, 64, 8);
    cfg.lr = 3e-3;
    cfg.interleave_period = 4;
    let model = Box::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 7));
    let mut trainer = BatchedGraphTrainer::new(cfg, &data, model, 6);
    println!("{:>5} {:>9} {:>10} {:>10}", "epoch", "loss", "train_acc", "test_acc");
    for _ in 0..8 {
        let s = trainer.train_epoch();
        println!(
            "{:>5} {:>9.4} {:>10.4} {:>10.4}",
            s.epoch, s.loss, s.train_acc, s.test_acc
        );
    }

    // --- 2. Virtual-node readout + checkpoint round-trip ----------------
    println!("\nvirtual-node readout on one molecule + checkpoint round-trip:");
    let sample = &data.samples[0];
    let feats = Tensor::from_vec(sample.graph.num_nodes(), sample.feat_dim, sample.features.clone());
    let mut vn = VirtualNode::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 9), data.feat_dim, 11);
    vn.set_training(true);
    let mut opt = torchgt::tensor::Adam::with_lr(3e-3);
    let batch = SequenceBatch { features: &feats, graph: &sample.graph, spd: None };
    let mut ws = Workspace::new();
    let label = match sample.label {
        GraphLabel::Class(c) => c,
        _ => unreachable!(),
    };
    for step in 0..20 {
        // The readout reads the virtual token's row (position 0) only.
        let graph_logits = vn.forward_ws(&batch, Pattern::Flash, &[0], &mut ws);
        let (l, dg) = loss::softmax_cross_entropy_ws(&graph_logits, &[label], &mut ws);
        vn.backward_ws(&batch, Pattern::Flash, &dg, &mut ws);
        opt.step(&mut vn.params_mut());
        ws.give(graph_logits);
        ws.give(dg);
        if step % 5 == 0 {
            println!("  step {step:>2}: loss {l:.4}");
        }
    }
    // Checkpoint and restore.
    let mut buf = Vec::new();
    {
        let params = vn.params_mut();
        let refs: Vec<&torchgt::tensor::Param> = params.iter().map(|p| &**p).collect();
        Snapshot::capture(TrainerState::basic(0, 20), &refs).write_to(&mut buf).unwrap();
    }
    let mut restored = VirtualNode::new(Gt::new(GtConfig::tiny(data.feat_dim, 6), 9), data.feat_dim, 11);
    {
        let mut params = restored.params_mut();
        Snapshot::read_from(&buf).unwrap().apply_params(&mut params).unwrap();
    }
    restored.set_training(false);
    vn.set_training(false);
    // Every position of the augmented sequence: the token, then each node.
    let every: Vec<usize> = (0..=feats.rows()).collect();
    let y1 = vn.forward_ws(&batch, Pattern::Flash, &every, &mut ws);
    let y2 = restored.forward_ws(&batch, Pattern::Flash, &every, &mut ws);
    let max_diff = y1
        .data()
        .iter()
        .zip(y2.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("  checkpoint round-trip: {} bytes, max output diff {max_diff:.2e}", buf.len());
}
