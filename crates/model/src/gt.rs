//! GT — "A Generalization of Transformer Networks to Graphs"
//! (Dwivedi & Bresson), the paper's second evaluation model (Table IV:
//! 4 layers, hidden 128, 8 heads).
//!
//! GT adds Laplacian positional encodings to the inputs instead of
//! Graphormer's attention bias, so its attention is encoding-free and all
//! three kernels apply unchanged.

use crate::api::{Arch, Pattern, SequenceBatch, SequenceModel};
use crate::block::TransformerBlock;
use crate::encodings::{laplacian_pe, EncodingMemo, MemoStats};
use crate::mha::AttentionMode;
use crate::readout::RowPlan;
use torchgt_sparse::ModelShape;
use torchgt_tensor::backend;
use torchgt_tensor::ops;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Linear, Param, Tensor, Workspace};

/// GT hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GtConfig {
    /// Input feature dimension.
    pub feat_dim: usize,
    /// Hidden width (Table IV: 128).
    pub hidden: usize,
    /// Transformer layers (Table IV: 4).
    pub layers: usize,
    /// Attention heads (Table IV: 8).
    pub heads: usize,
    /// FFN expansion multiplier.
    pub ffn_mult: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Number of Laplacian eigenvectors used as positional encoding.
    pub pe_dim: usize,
    /// Dropout probability.
    pub dropout: f32,
}

impl GtConfig {
    /// The paper's GT configuration.
    pub fn standard(feat_dim: usize, out_dim: usize) -> Self {
        Self {
            feat_dim,
            hidden: 128,
            layers: 4,
            heads: 8,
            ffn_mult: 4,
            out_dim,
            pe_dim: 8,
            dropout: 0.1,
        }
    }

    /// A smaller configuration for unit tests and quick examples.
    pub fn tiny(feat_dim: usize, out_dim: usize) -> Self {
        Self {
            feat_dim,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim,
            pe_dim: 4,
            dropout: 0.0,
        }
    }
}

/// The GT model.
pub struct Gt {
    cfg: GtConfig,
    in_proj: Linear,
    pe_proj: Linear,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    /// One Laplacian PE per distinct graph this model has been shown: a
    /// training run's sequences recur every epoch (and again in each
    /// `evaluate`), so each is computed on its first visit only.
    pe_memo: EncodingMemo,
    seed: u64,
    plan: RowPlan,
}

impl Gt {
    /// Construct with the given config and seed.
    pub fn new(cfg: GtConfig, seed: u64) -> Self {
        let blocks = (0..cfg.layers)
            .map(|l| {
                TransformerBlock::new(
                    cfg.hidden,
                    cfg.heads,
                    cfg.ffn_mult,
                    cfg.dropout,
                    derive_seed(seed, 200 + l as u64),
                )
            })
            .collect();
        Self {
            in_proj: Linear::new(cfg.feat_dim, cfg.hidden, derive_seed(seed, 60)),
            pe_proj: Linear::new(cfg.pe_dim, cfg.hidden, derive_seed(seed, 61)),
            blocks,
            head: Linear::new(cfg.hidden, cfg.out_dim, derive_seed(seed, 62)),
            pe_memo: EncodingMemo::default(),
            cfg,
            seed,
            plan: RowPlan::default(),
        }
    }

    /// The pre-head trunk: positional-encoded input projection through the
    /// transformer stack, at `rows`, each block computing the rows
    /// [`RowPlan`] gives it. Shared by [`SequenceModel::forward_ws`] and
    /// [`SequenceModel::forward_hidden_ws`].
    fn trunk_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let (pe_dim, pe_seed) = (self.cfg.pe_dim, derive_seed(self.seed, 63));
        let pe = self
            .pe_memo
            .get_or_compute(batch.graph, || laplacian_pe(batch.graph, pe_dim, 30, pe_seed));
        // No copy of the features is kept: backward reads them from the batch.
        let mut h = ws.take_uninit(batch.features.rows(), self.cfg.hidden);
        self.in_proj.forward_rows(backend::active(), batch.features, h.data_mut());
        let pe_h = self.pe_proj.forward_ws(pe, ws);
        ops::add_inplace(&mut h, &pe_h);
        ws.give(pe_h);
        let mode = gt_mode(pattern);
        self.plan.prepare(&self.blocks, &mode, rows, batch.features.rows());
        self.plan.run(&mut self.blocks, h, &mode, ws)
    }
}

fn gt_mode<'a>(pattern: Pattern<'a>) -> AttentionMode<'a> {
    match pattern {
        Pattern::Dense => AttentionMode::Dense { bias: None },
        Pattern::Flash => AttentionMode::Flash,
        Pattern::Sparse(mask) => AttentionMode::Sparse { mask, bias: None },
        Pattern::Performer(features) => AttentionMode::Performer { features, seed: 0x9E37 },
    }
}

impl SequenceModel for Gt {
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let h = self.trunk_ws(batch, pattern, rows, ws);
        let logits = self.head.forward_ws(&h, ws);
        ws.give(h);
        logits
    }

    fn forward_hidden_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Option<Tensor> {
        Some(self.trunk_ws(batch, pattern, rows, ws))
    }

    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        let dh = self.head.backward_ws(dlogits, ws);
        let mut dh = self.plan.expand(dh, ws);
        let mode = gt_mode(pattern);
        let last = self.plan.last_mode(mode);
        let layers = self.blocks.len();
        for (l, block) in self.blocks.iter_mut().enumerate().rev() {
            let (dx, _) = block.backward_ws(&dh, if l + 1 == layers { &last } else { &mode }, false, ws);
            ws.give(dh);
            dh = dx;
        }
        self.pe_proj.backward_params_ws(&dh, ws);
        self.in_proj.backward_params_rows(backend::active(), batch.features, &dh);
        ws.give(dh);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.in_proj.params_mut();
        p.extend(self.pe_proj.params_mut());
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
        "GT"
    }

    fn describe(&self) -> Option<Arch> {
        Some(Arch::Gt(self.cfg))
    }

    fn shape(&self) -> ModelShape {
        Arch::Gt(self.cfg).shape()
    }

    fn rng_state(&self) -> Vec<u64> {
        self.blocks.iter().flat_map(|b| b.rng_state()).collect()
    }

    fn set_rng_state(&mut self, state: &[u64]) {
        TransformerBlock::set_stack_rng_state(&mut self.blocks, state);
    }

    fn encoding_memo(&self) -> Option<MemoStats> {
        Some(self.pe_memo.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::every_row;
    use torchgt_graph::generators::cycle_graph;
    use torchgt_graph::CsrGraph;
    use torchgt_tensor::init;

    #[test]
    fn forward_shapes() {
        let g = cycle_graph(10);
        let mask = g.with_self_loops();
        let x = init::normal(10, 6, 0.0, 1.0, 1);
        let mut m = Gt::new(GtConfig::tiny(6, 4), 3);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        for p in [Pattern::Dense, Pattern::Flash, Pattern::Sparse(&mask)] {
            assert_eq!(m.forward_ws(&batch, p, &every_row(&batch), &mut Workspace::new()).shape(), (10, 4));
        }
    }

    #[test]
    fn memo_hits_for_repeated_graph() {
        let g = cycle_graph(10);
        let x = init::normal(10, 6, 0.0, 1.0, 1);
        let mut m = Gt::new(GtConfig::tiny(6, 4), 3);
        m.set_training(false);
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        let y1 = m.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        let y2 = m.forward_ws(&batch, Pattern::Flash, &every_row(&batch), &mut Workspace::new());
        assert_eq!(y1.data(), y2.data());
        let stats = m.encoding_memo().expect("GT memoises its positional encoding");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn equal_degree_sequences_get_their_own_encoding() {
        // A 6-cycle and two triangles are both 2-regular on 6 nodes: same
        // node count, arc count and `row_ptr`, different `col_idx`.
        let cycle = cycle_graph(6);
        let triangles =
            CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert_eq!(cycle.row_ptr(), triangles.row_ptr());
        let x = init::normal(6, 6, 0.0, 1.0, 1);
        let forward = |m: &mut Gt, g: &CsrGraph| {
            m.set_training(false);
            m.forward_ws(&SequenceBatch { features: &x, graph: g, spd: None }, Pattern::Flash, &(0..x.rows()).collect::<Vec<_>>(), &mut Workspace::new())
        };
        let mut warm = Gt::new(GtConfig::tiny(6, 4), 3);
        let _ = forward(&mut warm, &cycle);
        let second = forward(&mut warm, &triangles);
        let fresh = forward(&mut Gt::new(GtConfig::tiny(6, 4), 3), &triangles);
        assert_eq!(second.data(), fresh.data());
    }

    #[test]
    fn positional_encoding_changes_output() {
        // Same features, different topologies ⇒ different outputs through
        // the LapPE path.
        let x = init::normal(10, 6, 0.0, 1.0, 1);
        let g1 = cycle_graph(10);
        let g2 = torchgt_graph::generators::star_graph(10);
        let mut m = Gt::new(GtConfig::tiny(6, 4), 3);
        m.set_training(false);
        let mut ws = Workspace::new();
        let y1 = m.forward_ws(&SequenceBatch { features: &x, graph: &g1, spd: None }, Pattern::Flash, &(0..x.rows()).collect::<Vec<_>>(), &mut ws);
        let y2 = m.forward_ws(&SequenceBatch { features: &x, graph: &g2, spd: None }, Pattern::Flash, &(0..x.rows()).collect::<Vec<_>>(), &mut ws);
        assert_ne!(y1.data(), y2.data());
    }

    #[test]
    fn gt_learns_toy_task() {
        use torchgt_tensor::{Adam, Optimizer};
        let g = cycle_graph(12);
        let mask = g.with_self_loops();
        let mut feats = Tensor::zeros(12, 4);
        let labels: Vec<u32> = (0..12).map(|v| ((v / 3) % 2) as u32).collect();
        for v in 0..12 {
            feats.set(v, labels[v] as usize, 1.0);
            feats.set(v, 2, (v as f32 * 0.7).sin());
        }
        let mut m = Gt::new(GtConfig::tiny(4, 2), 11);
        m.set_training(true);
        let mut opt = Adam::with_lr(3e-3);
        let batch = SequenceBatch { features: &feats, graph: &g, spd: None };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let logits = m.forward_ws(&batch, Pattern::Sparse(&mask), &every_row(&batch), &mut Workspace::new());
            let (loss, dl) = crate::loss::softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
            m.backward_ws(&batch, Pattern::Sparse(&mask), &dl, &mut Workspace::new());
            opt.step(&mut m.params_mut());
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < 0.6 * first.unwrap(), "loss {first:?} → {last}");
    }
}
