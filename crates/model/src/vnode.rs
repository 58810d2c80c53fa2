//! Virtual-node ("global token") wrapper.
//!
//! Graphormer prepends a special `[VNode]` token connected to every node;
//! §III-B of the paper covers it explicitly: "If there exists a global token
//! in the model that attends to all nodes … we augment Ẽ with the global
//! token's edges." This wrapper adds the token around any [`SequenceModel`]:
//! the augmented sequence has the learnable virtual token at position 0 and
//! all original tokens shifted by one; sparse masks are augmented with the
//! token's edges. For graph-level readout, position 0 is the graph
//! representation.

use crate::api::{Pattern, SequenceBatch, SequenceModel};
use crate::encodings::MemoStats;
use torchgt_graph::CsrGraph;
use torchgt_sparse::add_global_token;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{init, Param, Tensor, Workspace};

/// The augmented graph and mask of the latest call, with the inputs they
/// were built from.
struct Augmented {
    graph: CsrGraph,
    mask: Option<CsrGraph>,
    aug_graph: CsrGraph,
    aug_mask: Option<CsrGraph>,
}

/// Wraps a model with a learnable global token.
pub struct VirtualNode<M: SequenceModel> {
    inner: M,
    /// Learnable feature row of the virtual token (input space).
    pub token: Param,
    /// One slot, reused while graph *and* mask compare equal in full — what
    /// a backward after its forward, or a repeated sequence, presents.
    cache: Option<Augmented>,
}

impl<M: SequenceModel> VirtualNode<M> {
    /// Wrap `inner`; the virtual token lives in the `feat_dim`-dimensional
    /// input space.
    pub fn new(inner: M, feat_dim: usize, seed: u64) -> Self {
        Self {
            inner,
            token: Param::new(init::normal(1, feat_dim, 0.0, 0.1, derive_seed(seed, 400))),
            cache: None,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Run `pass` on the inner model over the token-augmented batch and
    /// pattern; the augmented features are drawn from `ws`.
    fn with_augmented<R>(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        ws: &mut Workspace,
        pass: impl FnOnce(&mut M, &SequenceBatch<'_>, Pattern<'_>, &mut Workspace) -> R,
    ) -> R {
        let mask = match pattern {
            Pattern::Sparse(m) => Some(m),
            _ => None,
        };
        let hit = matches!(&self.cache, Some(a) if a.graph == *batch.graph && a.mask.as_ref() == mask);
        if !hit {
            self.cache = Some(Augmented {
                graph: batch.graph.clone(),
                mask: mask.cloned(),
                aug_graph: add_global_token(batch.graph),
                aug_mask: mask.map(add_global_token),
            });
        }
        let aug = self.cache.as_ref().expect("filled above");
        let (n, feat) = batch.features.shape();
        let mut feats = ws.take_uninit(n + 1, feat);
        feats.row_span_mut(0, 1).copy_from_slice(self.token.value.data());
        feats.row_span_mut(1, n + 1).copy_from_slice(batch.features.data());
        let inner_batch = SequenceBatch { features: &feats, graph: &aug.aug_graph, spd: None };
        let pattern = match &aug.aug_mask {
            Some(m) => Pattern::Sparse(m),
            None => pattern,
        };
        let out = pass(&mut self.inner, &inner_batch, pattern, ws);
        ws.give(feats);
        out
    }
}

impl<M: SequenceModel> SequenceModel for VirtualNode<M> {
    fn forward_ws(&mut self, batch: &SequenceBatch<'_>, pattern: Pattern<'_>, ws: &mut Workspace) -> Tensor {
        self.with_augmented(batch, pattern, ws, |inner, b, p, ws| inner.forward_ws(b, p, ws))
    }

    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        self.with_augmented(batch, pattern, ws, |inner, b, p, ws| inner.backward_ws(b, p, dlogits, ws));
        // The virtual token's feature gradient flows through the inner
        // model's input projection; approximate it by the mean output
        // gradient at position 0 — exact dL/dtoken requires the inner model
        // to expose dL/dinput, which the SequenceModel trait hides. Instead
        // we update the token from its logit gradient directly (a standard
        // straight-through simplification).
        let g0 = dlogits.row(0);
        let mut g = ws.take_uninit(1, self.token.value.cols());
        if g0.len() == g.cols() {
            g.data_mut().copy_from_slice(g0);
        } else {
            // Project the mismatch by broadcasting the mean.
            g.data_mut().fill(g0.iter().sum::<f32>() / g0.len().max(1) as f32);
        }
        self.token.accumulate(&g);
        ws.give(g);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.inner.params_mut();
        p.push(&mut self.token);
        p
    }

    fn set_training(&mut self, on: bool) {
        self.inner.set_training(on);
    }

    fn name(&self) -> &'static str {
        "VirtualNode"
    }

    fn encoding_memo(&self) -> Option<MemoStats> {
        self.inner.encoding_memo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gt::{Gt, GtConfig};
    use torchgt_graph::generators::{cycle_graph, path_graph, star_graph};
    use torchgt_sparse::{topology_mask, window_mask};

    #[test]
    fn forward_adds_one_token() {
        let g = cycle_graph(6);
        let x = init::normal(6, 4, 0.0, 1.0, 1);
        let mut m = VirtualNode::new(Gt::new(GtConfig::tiny(4, 3), 2), 4, 5);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let y = m.forward_ws(&batch, Pattern::Flash, &mut Workspace::new());
        assert_eq!(y.shape(), (7, 3));
    }

    #[test]
    fn sparse_pattern_gets_augmented_mask() {
        let g = cycle_graph(6);
        let mask = topology_mask(&g, false);
        let x = init::normal(6, 4, 0.0, 1.0, 1);
        let mut m = VirtualNode::new(Gt::new(GtConfig::tiny(4, 3), 2), 4, 5);
        m.set_training(false);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let y = m.forward_ws(&batch, Pattern::Sparse(&mask), &mut Workspace::new());
        assert_eq!(y.rows(), 7);
        // Cache hit second time.
        let y2 = m.forward_ws(&batch, Pattern::Sparse(&mask), &mut Workspace::new());
        assert_eq!(y.data(), y2.data());
    }

    /// Forward of a model that has seen `before` equals a fresh model's.
    fn assert_second_call_is_fresh(
        before: (&CsrGraph, Pattern<'_>),
        then: (&CsrGraph, Pattern<'_>),
    ) {
        let x = init::normal(then.0.num_nodes(), 4, 0.0, 1.0, 1);
        let forward = |m: &mut VirtualNode<Gt>, (graph, pattern): (&CsrGraph, Pattern<'_>)| {
            m.set_training(false);
            m.forward_ws(&SequenceBatch { features: &x, graph, spd: None }, pattern, &mut Workspace::new())
        };
        let model = || VirtualNode::new(Gt::new(GtConfig::tiny(4, 3), 2), 4, 5);
        let mut warm = model();
        let _ = forward(&mut warm, before);
        assert_eq!(forward(&mut warm, then).data(), forward(&mut model(), then).data());
    }

    #[test]
    fn equal_counts_do_not_share_an_augmented_graph() {
        // A 4-node path and a 4-node star both have 4 nodes and 6 arcs.
        let (path, star) = (path_graph(4), star_graph(4));
        assert_eq!((path.num_nodes(), path.num_arcs()), (star.num_nodes(), star.num_arcs()));
        assert_second_call_is_fresh((&path, Pattern::Flash), (&star, Pattern::Flash));
    }

    #[test]
    fn a_rebuilt_mask_over_the_same_graph_is_used() {
        // What a β_thre move does: same sequence graph, new sparse mask.
        let g = cycle_graph(8);
        let (tight, loose) = (topology_mask(&g, false), window_mask(8, 3));
        assert_ne!(tight, loose);
        assert_second_call_is_fresh((&g, Pattern::Sparse(&tight)), (&g, Pattern::Sparse(&loose)));
    }

    #[test]
    fn global_token_sees_every_node() {
        // Move one node's features; the virtual token's output must change
        // (it attends to all nodes even under the sparse pattern).
        let g = cycle_graph(8);
        let mask = topology_mask(&g, false);
        let mut m = VirtualNode::new(Gt::new(GtConfig::tiny(4, 3), 2), 4, 5);
        m.set_training(false);
        let x1 = init::normal(8, 4, 0.0, 1.0, 1);
        let mut x2 = x1.clone();
        for c in 0..4 {
            x2.set(5, c, x2.get(5, c) + 3.0);
        }
        let b1 = SequenceBatch { features: &x1, graph: &g, spd: None };
        let b2 = SequenceBatch { features: &x2, graph: &g, spd: None };
        let y1 = m.forward_ws(&b1, Pattern::Sparse(&mask), &mut Workspace::new());
        let y2 = m.forward_ws(&b2, Pattern::Sparse(&mask), &mut Workspace::new());
        let delta: f32 = y1
            .row(0)
            .iter()
            .zip(y2.row(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 1e-5, "virtual token ignored node 5");
    }

    #[test]
    fn params_include_token() {
        let mut m = VirtualNode::new(Gt::new(GtConfig::tiny(4, 3), 2), 4, 5);
        let inner_count = Gt::new(GtConfig::tiny(4, 3), 2).params_mut().len();
        assert_eq!(m.params_mut().len(), inner_count + 1);
    }

    #[test]
    fn trains_on_graph_readout() {
        use crate::loss;
        use torchgt_tensor::{Adam, Optimizer};
        let g = cycle_graph(6);
        let x = init::normal(6, 4, 0.0, 1.0, 3);
        let mut m = VirtualNode::new(Gt::new(GtConfig::tiny(4, 2), 7), 4, 9);
        m.set_training(true);
        let mut opt = Adam::with_lr(3e-3);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let full = m.forward_ws(&batch, Pattern::Flash, &mut Workspace::new());
            let graph_logits = full.slice_rows(0, 1);
            let (l, dg) = loss::softmax_cross_entropy_ws(&graph_logits, &[1], &mut Workspace::new());
            // Gradient only at the readout row.
            let mut dfull = Tensor::zeros(full.rows(), full.cols());
            for c in 0..full.cols() {
                dfull.set(0, c, dg.get(0, c));
            }
            m.backward_ws(&batch, Pattern::Flash, &dfull, &mut Workspace::new());
            opt.step(&mut m.params_mut());
            first.get_or_insert(l);
            last = l;
        }
        assert!(last < 0.5 * first.unwrap(), "{first:?} → {last}");
    }
}
