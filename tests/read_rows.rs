//! Training on the rows the loss reads against whole-sequence training.
//!
//! A node-level step reads the labelled rows only: `forward_ws` at those
//! rows (under sparse and flash attention the last block computes just
//! them), the loss over them, `backward_ws` from their logit gradients. The
//! oracle is the whole-sequence step it replaced: every row forward, a
//! masked loss whose gradient is zero on the unlabelled rows, backward from
//! all of them. After a few Adam steps the loss bits and every parameter's
//! bits must be equal, for Graphormer and GT, sparse and flash attention,
//! dropout off and on, and no, some and every row labelled — under the
//! scalar and the best kernel backend.

use std::process::Command;
use torchgt_compat::proptest::prelude::*;
use torchgt_compat::rng::Rng;
use torchgt_graph::CsrGraph;
use torchgt_model::{loss, Graphormer, GraphormerConfig, Gt, GtConfig, Pattern, SequenceBatch, SequenceModel};
use torchgt_tensor::rng::rng;
use torchgt_tensor::{backend, init, ops, Adam, Optimizer, Tensor, Workspace};

const STEPS: usize = 3;
const CLASSES: usize = 5;
const FEAT: usize = 6;

/// The whole-sequence loss the read-rows step replaced, verbatim: a softmax
/// over every row, the mean over the labelled `train` rows, and a gradient
/// that is zero on every other row.
fn masked_cross_entropy(logits: &Tensor, labels: &[u32], train: &[usize]) -> (f32, Tensor) {
    let (n, c) = logits.shape();
    let mut probs = Tensor::zeros(n, c);
    ops::row_softmax_into(logits, &mut probs);
    let mut grad = Tensor::zeros(n, c);
    if train.is_empty() {
        return (0.0, grad);
    }
    let inv = 1.0 / train.len() as f32;
    let mut loss = 0.0f32;
    for &i in train {
        let l = labels[i] as usize;
        let p = probs.get(i, l).max(1e-12);
        loss -= p.ln();
        for j in 0..c {
            let delta = if j == l { 1.0 } else { 0.0 };
            grad.set(i, j, (probs.get(i, j) - delta) * inv);
        }
    }
    (loss * inv, grad)
}

#[derive(Clone, Copy, Debug)]
enum Family {
    Graphormer,
    Gt,
}

fn model(family: Family, dropout: f32, seed: u64) -> Box<dyn SequenceModel> {
    match family {
        Family::Graphormer => Box::new(Graphormer::new(
            GraphormerConfig {
                feat_dim: FEAT,
                hidden: 16,
                layers: 2,
                heads: 2,
                ffn_mult: 2,
                out_dim: CLASSES,
                max_degree: 8,
                max_spd: 4,
                dropout,
            },
            seed,
        )),
        Family::Gt => Box::new(Gt::new(GtConfig { dropout, ..GtConfig::tiny(FEAT, CLASSES) }, seed)),
    }
}

/// A ring with random chords over `s` tokens.
fn graph(s: usize, seed: u64) -> CsrGraph {
    let mut r = rng(seed);
    let n = s as u32;
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).filter(|&(a, b)| a != b).collect();
    for _ in 0..s {
        let (a, b) = (r.gen_range(0..n), r.gen_range(0..n));
        if a != b {
            edges.push((a, b));
        }
    }
    CsrGraph::from_edges(s, &edges)
}

/// `STEPS` training steps, reading the `train` rows (`read`) or every row
/// with the masked loss (the oracle). Returns the bits of each step's loss,
/// then of every parameter, then of the eval-mode logits at `train`.
#[allow(clippy::too_many_arguments)]
fn train(
    family: Family,
    dropout: f32,
    seed: u64,
    read: bool,
    batch: &SequenceBatch<'_>,
    pattern: Pattern<'_>,
    labels: &[u32],
    train: &[usize],
) -> Vec<u32> {
    let mut m = model(family, dropout, seed);
    m.set_training(true);
    let mut opt = Adam::with_lr(1e-2);
    let mut ws = Workspace::new();
    let every: Vec<usize> = (0..batch.features.rows()).collect();
    let mut bits = Vec::new();
    for _ in 0..STEPS {
        let loss = if read {
            let logits = m.forward_ws(batch, pattern, train, &mut ws);
            let read_labels: Vec<u32> = train.iter().map(|&r| labels[r]).collect();
            let (loss, grad) = loss::softmax_cross_entropy_ws(&logits, &read_labels, &mut ws);
            m.backward_ws(batch, pattern, &grad, &mut ws);
            ws.give(logits);
            ws.give(grad);
            loss
        } else {
            let logits = m.forward_ws(batch, pattern, &every, &mut ws);
            let (loss, grad) = masked_cross_entropy(&logits, labels, train);
            m.backward_ws(batch, pattern, &grad, &mut ws);
            ws.give(logits);
            loss
        };
        opt.step(&mut m.params_mut());
        bits.push(loss.to_bits());
    }
    for p in m.params_mut() {
        bits.extend(p.value.data().iter().map(|v| v.to_bits()));
    }
    m.set_training(false);
    let rows = if read { train } else { &every };
    let logits = m.forward_ws(batch, pattern, rows, &mut ws);
    let at = |i: usize| if read { i } else { train[i] };
    for i in 0..train.len() {
        bits.extend(logits.row(at(i)).iter().map(|v| v.to_bits()));
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Read-rows training equals whole-sequence training to the bit, at
    /// sequence lengths up to and past one row tile (128 rows).
    #[test]
    fn training_on_read_rows_is_whole_sequence_training(s in 2usize..180, seed in 0u64..1000) {
        let g = graph(s, seed);
        let mask = g.with_self_loops();
        let features = init::normal(s, FEAT, 0.0, 1.0, seed + 1);
        let batch = SequenceBatch { features: &features, graph: &g, spd: None };
        let mut r = rng(seed + 2);
        let labels: Vec<u32> = (0..s).map(|_| r.gen_range(0..CLASSES as u32)).collect();
        let partial: Vec<usize> = (0..s).filter(|_| r.gen::<f32>() < 0.6).collect();
        let every: Vec<usize> = (0..s).collect();
        for (fraction, train_rows) in [("none", &[][..]), ("partial", &partial[..]), ("all", &every[..])] {
            for family in [Family::Graphormer, Family::Gt] {
                for pattern in [Pattern::Sparse(&mask), Pattern::Flash] {
                    for dropout in [0.0, 0.1] {
                        let run = |read| train(family, dropout, seed, read, &batch, pattern, &labels, train_rows);
                        prop_assert!(
                            run(true) == run(false),
                            "{:?} {} dropout {} s {} rows {}: read-rows training moved a bit",
                            family, pattern.label(), dropout, s, fraction
                        );
                    }
                }
            }
        }
    }
}

/// Re-run the property under whichever of the scalar and the best kernel
/// backend this run is not on (the process-wide backend is chosen once,
/// from `TORCHGT_BACKEND`).
#[test]
fn read_rows_training_holds_under_scalar_and_the_best_backend() {
    let exe = std::env::current_exe().expect("test binary path");
    let others = [backend::Backend::Scalar, backend::detect_best()].into_iter().filter(|&be| be != backend::active());
    for be in others {
        let status = Command::new(&exe)
            .args(["--exact", "training_on_read_rows_is_whole_sequence_training", "--test-threads", "1", "-q"])
            .env(backend::ENV_VAR, be.name())
            .status()
            .expect("spawn the property");
        assert!(status.success(), "read-rows training under {} failed: {status}", be.name());
    }
}

/// One call of a model: its sequence, mask, pattern, read rows and mode.
struct Call {
    graph: CsrGraph,
    mask: CsrGraph,
    features: Tensor,
    labels: Vec<u32>,
    rows: Vec<usize>,
    flash: bool,
    training: bool,
}

impl Call {
    /// A ring-with-chords sequence of `s` tokens, a mask of its edges, some
    /// extra arcs and self-loops, and read rows: strictly ascending in a
    /// training call (a backward needs them so), any order with repeats in
    /// an evaluation call.
    fn generate(s: usize, seed: u64) -> Self {
        let graph = graph(s, seed);
        let mut r = rng(seed + 1);
        let n = s as u32;
        let mut arcs: Vec<(u32, u32)> =
            (0..s).flat_map(|v| graph.neighbors(v).iter().map(move |&u| (v as u32, u))).collect();
        arcs.extend((0..s / 3).map(|_| (r.gen_range(0..n), r.gen_range(0..n))));
        let mask = CsrGraph::from_edges(s, &arcs).with_self_loops();
        let features = init::normal(s, FEAT, 0.0, 1.0, seed + 2);
        let labels = (0..s).map(|_| r.gen_range(0..CLASSES as u32)).collect();
        let training = r.gen::<f32>() < 0.5;
        let keep = r.gen::<f32>();
        let rows = if training {
            (0..s).filter(|_| r.gen::<f32>() < keep).collect()
        } else {
            (0..r.gen_range(0..2 * s)).map(|_| r.gen_range(0..s)).collect()
        };
        Self { graph, mask, features, labels, rows, flash: r.gen::<f32>() < 0.3, training }
    }

    /// Run the call on `m`: the bits of the logits at the rows, then in a
    /// training call of the loss and every parameter's gradient, which it
    /// leaves at zero.
    fn run(&self, m: &mut dyn SequenceModel, ws: &mut Workspace) -> Vec<u32> {
        let batch = SequenceBatch { features: &self.features, graph: &self.graph, spd: None };
        let pattern = if self.flash { Pattern::Flash } else { Pattern::Sparse(&self.mask) };
        m.set_training(self.training);
        let logits = m.forward_ws(&batch, pattern, &self.rows, ws);
        let mut bits: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
        if self.training {
            let read_labels: Vec<u32> = self.rows.iter().map(|&r| self.labels[r]).collect();
            let (loss, grad) = loss::softmax_cross_entropy_ws(&logits, &read_labels, ws);
            m.backward_ws(&batch, pattern, &grad, ws);
            ws.give(grad);
            bits.push(loss.to_bits());
            for p in m.params_mut() {
                bits.extend(p.grad.data().iter().map(|v| v.to_bits()));
                p.zero_grad();
            }
        }
        ws.give(logits);
        bits
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A model whose row plan and arena carry the buffers of every earlier
    /// call computes each call exactly as a fresh model does: a generated
    /// sequence of calls whose sequences grow and shrink, whose masks and
    /// read rows change, and which switch between training and evaluation,
    /// sparse and flash.
    #[test]
    fn a_reused_row_plan_plans_what_a_fresh_one_does(seed in 0u64..1000, calls in 4usize..10) {
        let mut r = rng(seed);
        for family in [Family::Graphormer, Family::Gt] {
            let mut reused = model(family, 0.0, seed);
            let mut ws = Workspace::new();
            for k in 0..calls {
                let call = Call::generate(r.gen_range(2..150usize), seed * 31 + k as u64);
                let mut fresh = model(family, 0.0, seed);
                prop_assert!(
                    call.run(reused.as_mut(), &mut ws) == call.run(fresh.as_mut(), &mut Workspace::new()),
                    "{:?} call {} ({} tokens, {} rows, training {}, flash {}): a reused plan moved a bit",
                    family, k, call.features.rows(), call.rows.len(), call.training, call.flash
                );
            }
        }
    }
}
