//! Support shared by the integration tests: the one-process oracle of the
//! data-parallel step.

#![allow(dead_code)]

use torchgt::model::loss;
use torchgt::prelude::*;
use torchgt::runtime::prepare_node_dataset;
use torchgt::tensor::{ops, Adam, Optimizer, Workspace};

/// What [`train_reference`] trained.
pub struct Reference {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Every parameter's final values, in model traversal order.
    pub params: Vec<Vec<f32>>,
}

/// Data-parallel training in one process, written from the step rule
/// rather than from the supervisor's code: `global_batch` consecutive
/// sequences a step; each one's gradient computed from zeroed gradients
/// with its lane's dropout stream (sequence `t` of epoch `e` at counter
/// `e·n_j + ⌊t/G⌋`, lane `j = t mod G` holding `n_j` sequences); the step's
/// gradients folded in sequence order from `+0.0` and scaled by `1/G`
/// (`ops::scale_inplace`); one Adam step. The epoch loss sums each lane's
/// losses in step order, then the lanes in order, over the sequence count.
pub fn train_reference(
    dataset: &NodeDataset,
    cfg: TrainConfig,
    global_batch: usize,
    mut model: Box<dyn SequenceModel>,
) -> Reference {
    let g = global_batch;
    let prepared = prepare_node_dataset(dataset, cfg.seq_len, false, 1, cfg.seed);
    let train_pos = prepared.train_positions();
    let nseq = prepared.sequences.len();
    model.set_training(true);
    let mut ws = Workspace::new();
    let mut opt = Adam::with_lr(cfg.lr);
    let mut rng = model.rng_state();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let mut lanes = vec![0.0f32; g];
        for first in (0..nseq).step_by(g) {
            let mut sum: Vec<Tensor> =
                model.params_mut().iter().map(|p| Tensor::zeros(p.grad.rows(), p.grad.cols())).collect();
            for t in first..(first + g).min(nseq) {
                let lane_len = (nseq - t % g).div_ceil(g);
                rng.fill((epoch * lane_len + t / g) as u64);
                model.set_rng_state(&rng);
                let seq = &prepared.sequences[t];
                let batch = SequenceBatch { features: &seq.features, graph: &seq.graph, spd: None };
                let pattern = Pattern::Sparse(&seq.mask);
                let rows: Vec<usize> = train_pos[t].iter().map(|&p| p as usize).collect();
                let logits = model.forward_ws(&batch, pattern, &rows, &mut ws);
                let labels: Vec<u32> = rows.iter().map(|&r| seq.labels[r]).collect();
                let (loss, dlogits) = loss::softmax_cross_entropy_ws(&logits, &labels, &mut ws);
                model.backward_ws(&batch, pattern, &dlogits, &mut ws);
                ws.give(dlogits);
                ws.give(logits);
                lanes[t - first] += loss;
                for (s, p) in sum.iter_mut().zip(model.params_mut()) {
                    for (a, v) in s.data_mut().iter_mut().zip(p.grad.data()) {
                        *a += v;
                    }
                    p.zero_grad();
                }
            }
            for (s, p) in sum.into_iter().zip(model.params_mut()) {
                p.grad = s;
                ops::scale_inplace(&mut p.grad, 1.0 / g as f32);
            }
            opt.step(&mut model.params_mut());
        }
        let total = lanes.iter().fold(0.0f32, |sum, &l| sum + l);
        epoch_losses.push(if nseq > 0 { total / nseq as f32 } else { 0.0 });
    }
    let params = model.params_mut().iter().map(|p| p.value.data().to_vec()).collect();
    Reference { epoch_losses, params }
}

/// Loss bits, for exact comparison with a readable failure.
pub fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}
