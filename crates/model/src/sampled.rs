//! A NodeFormer-style sampling transformer baseline.
//!
//! NodeFormer (Wu et al., NeurIPS '22) approximates all-pair attention for
//! node classification; the paper uses it in Figure 1 to show that longer
//! sequences (larger sampled batches) improve accuracy. This stand-in keeps
//! the defining behaviour — each token attends to its graph neighbours plus
//! `samples` random tokens, resampled every forward pass — on top of the same
//! transformer trunk.

use crate::api::{Pattern, SequenceBatch, SequenceModel};
use crate::block::TransformerBlock;
use crate::mha::AttentionMode;
use crate::readout::RowPlan;
use torchgt_compat::rng::Rng;
use torchgt_graph::CsrGraph;
use torchgt_sparse::ModelShape;
use torchgt_tensor::rng::{derive_seed, rng};
use torchgt_tensor::{Linear, Param, Tensor, Workspace};

/// The sampling-attention model.
pub struct SampledTransformer {
    in_proj: Linear,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    /// Random keys sampled per query each pass.
    pub samples: usize,
    seed: u64,
    step: u64,
    current_mask: Option<CsrGraph>,
    read: RowPlan,
    shape: ModelShape,
}

impl SampledTransformer {
    /// Construct: `feat → hidden`, `layers` blocks, `samples` random keys
    /// per query.
    pub fn new(
        feat: usize,
        hidden: usize,
        layers: usize,
        heads: usize,
        out: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        let blocks = (0..layers)
            .map(|l| TransformerBlock::new(hidden, heads, 2, 0.0, derive_seed(seed, 300 + l as u64)))
            .collect();
        Self {
            in_proj: Linear::new(feat, hidden, derive_seed(seed, 64)),
            blocks,
            head: Linear::new(hidden, out, derive_seed(seed, 65)),
            samples,
            seed,
            step: 0,
            current_mask: None,
            read: RowPlan::default(),
            shape: ModelShape { layers, hidden, heads },
        }
    }

    fn sample_mask(&mut self, graph: &CsrGraph) -> CsrGraph {
        let n = graph.num_nodes();
        let mut r = rng(derive_seed(self.seed, 1000 + self.step));
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(graph.num_arcs() / 2 + n * self.samples);
        for v in 0..n {
            for &nb in graph.neighbors(v) {
                if nb as usize >= v {
                    edges.push((v as u32, nb));
                }
            }
            for _ in 0..self.samples {
                let t = r.gen_range(0..n as u32);
                if t as usize != v {
                    edges.push((v as u32, t));
                }
            }
        }
        CsrGraph::from_edges(n, &edges).with_self_loops()
    }
}

impl SequenceModel for SampledTransformer {
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        self.read.keep(rows, batch.features.rows());
        self.step += 1;
        let mask = self.sample_mask(batch.graph);
        let mut h = self.in_proj.forward_ws(batch.features, ws);
        for block in &mut self.blocks {
            let next = block.forward_ws(&h, &AttentionMode::Sparse { mask: &mask, bias: None }, ws);
            ws.give(h);
            h = next;
        }
        self.current_mask = Some(mask);
        let h = self.read.select(h, ws);
        let logits = self.head.forward_ws(&h, ws);
        ws.give(h);
        logits
    }

    fn backward_ws(
        &mut self,
        _batch: &SequenceBatch<'_>,
        _pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        let mask = self.current_mask.take().expect("backward before forward");
        let dh = self.head.backward_ws(dlogits, ws);
        let mut dh = self.read.expand(dh, ws);
        for block in self.blocks.iter_mut().rev() {
            let (dx, _) = block.backward_ws(&dh, &AttentionMode::Sparse { mask: &mask, bias: None }, false, ws);
            ws.give(dh);
            dh = dx;
        }
        self.in_proj.backward_params_ws(&dh, ws);
        ws.give(dh);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.in_proj.params_mut();
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        p.extend(self.head.params_mut());
        p
    }

    fn set_training(&mut self, on: bool) {
        for b in &mut self.blocks {
            b.set_training(on);
        }
    }

    fn name(&self) -> &'static str {
        "NodeFormer-like"
    }

    fn shape(&self) -> ModelShape {
        self.shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::every_row;
    use torchgt_graph::generators::cycle_graph;
    use torchgt_tensor::init;

    #[test]
    fn mask_includes_graph_edges_and_extras() {
        let g = cycle_graph(20);
        let mut m = SampledTransformer::new(4, 8, 1, 2, 2, 3, 1);
        let mask = m.sample_mask(&g);
        for v in 0..20 {
            for &nb in g.neighbors(v) {
                assert!(mask.has_edge(v, nb as usize));
            }
            assert!(mask.has_edge(v, v));
        }
        assert!(mask.num_edges() > g.num_edges());
    }

    #[test]
    fn resampling_changes_between_steps() {
        let g = cycle_graph(30);
        let x = init::normal(30, 4, 0.0, 1.0, 2);
        let mut m = SampledTransformer::new(4, 8, 1, 2, 2, 3, 5);
        m.set_training(false);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let y1 = m.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        let mask1 = m.current_mask.clone().unwrap();
        let y2 = m.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        let mask2 = m.current_mask.clone().unwrap();
        assert_ne!(mask1, mask2, "masks must be resampled");
        assert_ne!(y1.data(), y2.data());
    }

    #[test]
    fn trains_without_panic() {
        use torchgt_tensor::{Adam, Optimizer};
        let g = cycle_graph(16);
        let x = init::normal(16, 4, 0.0, 1.0, 3);
        let labels: Vec<u32> = (0..16).map(|v| (v % 2) as u32).collect();
        let mut m = SampledTransformer::new(4, 8, 1, 2, 2, 2, 9);
        let mut opt = Adam::with_lr(1e-3);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        for _ in 0..5 {
            let logits = m.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
            let (_, dl) = crate::loss::softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
            m.backward_ws(&batch, Pattern::Flash, &dl, &mut Workspace::new());
            opt.step(&mut m.params_mut());
        }
    }
}
