//! Graphormer (Ying et al., NeurIPS '21) — the paper's primary evaluation
//! model, in its `slim` and `large` configurations (Table IV).
//!
//! Structure per the paper's §II-A formulation:
//!
//! * Eq. 2 — input token `h_i⁰ = x_i W_in + z_deg(v_i)` (centrality
//!   encoding; undirected graphs collapse in/out degree);
//! * Eq. 3 — attention scores biased by a learnable scalar indexed by the
//!   shortest-path distance φ(v_i, v_j) (spatial encoding), shared across
//!   layers;
//! * pre-LN transformer blocks, then a linear head per token.
//!
//! The spatial-encoding bias rides on the sparse pattern as a per-edge
//! bias over the mask. The fully-connected patterns run bias-free: flash
//! matches FlashAttention's real limitation, and dense is GP-RAW's plain
//! materialised-score baseline.

use crate::api::{ArchDescriptor, Pattern, SequenceBatch, SequenceModel};
use crate::block::TransformerBlock;
use crate::encodings::{edge_spd, DegreeEncoding, SpdBias};
use crate::mha::AttentionMode;
use crate::readout::{run_whole, ReadRows, RowPlan};
use torchgt_tensor::backend;
use torchgt_tensor::ops;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Linear, Param, Tensor, Workspace};

/// Graphormer hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct GraphormerConfig {
    /// Input feature dimension.
    pub feat_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN expansion multiplier.
    pub ffn_mult: usize,
    /// Output dimension (classes, or 1 for regression).
    pub out_dim: usize,
    /// Max degree bucket for the centrality encoding.
    pub max_degree: usize,
    /// Max SPD bucket for the spatial encoding.
    pub max_spd: u8,
    /// Dropout probability.
    pub dropout: f32,
}

impl GraphormerConfig {
    /// Graphormer-slim from Table IV: 4 layers, hidden 64, 8 heads.
    pub fn slim(feat_dim: usize, out_dim: usize) -> Self {
        Self {
            feat_dim,
            hidden: 64,
            layers: 4,
            heads: 8,
            ffn_mult: 4,
            out_dim,
            max_degree: 64,
            max_spd: 8,
            dropout: 0.1,
        }
    }

    /// Graphormer-large from Table IV: 12 layers, hidden 768, 32 heads.
    pub fn large(feat_dim: usize, out_dim: usize) -> Self {
        Self {
            hidden: 768,
            layers: 12,
            heads: 32,
            ..Self::slim(feat_dim, out_dim)
        }
    }
}

/// The Graphormer model.
pub struct Graphormer {
    cfg: GraphormerConfig,
    in_proj: Linear,
    degree_enc: DegreeEncoding,
    spd_bias: SpdBias,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    /// The last forward's bias payload, kept for the matching backward.
    saved_bias: Option<BiasPayload>,
    /// The last block's per-edge bias when it ran over the read rows' edges
    /// only (gathered from the payload's sparse bias).
    last_bias: Option<Vec<Vec<f32>>>,
    plan: RowPlan,
    read: ReadRows,
}

/// The per-head per-edge bias `build_bias_ws` built; `None` for a
/// bias-free pattern.
type BiasPayload = Option<Vec<Vec<f32>>>;

impl Graphormer {
    /// Construct with the given config and seed.
    pub fn new(cfg: GraphormerConfig, seed: u64) -> Self {
        let blocks = (0..cfg.layers)
            .map(|l| {
                TransformerBlock::new(
                    cfg.hidden,
                    cfg.heads,
                    cfg.ffn_mult,
                    cfg.dropout,
                    derive_seed(seed, 100 + l as u64),
                )
            })
            .collect();
        Self {
            in_proj: Linear::new(cfg.feat_dim, cfg.hidden, derive_seed(seed, 50)),
            degree_enc: DegreeEncoding::new(cfg.max_degree, cfg.hidden, derive_seed(seed, 51)),
            spd_bias: SpdBias::new(cfg.heads, cfg.max_spd, derive_seed(seed, 52)),
            blocks,
            head: Linear::new(cfg.hidden, cfg.out_dim, derive_seed(seed, 53)),
            cfg,
            saved_bias: None,
            last_bias: None,
            plan: RowPlan::default(),
            read: ReadRows::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GraphormerConfig {
        &self.cfg
    }

    /// Build the per-pass bias payload for a pattern — the per-edge bias
    /// of a sparse mask — drawing buffers from `ws`; [`give_bias`] returns
    /// them.
    fn build_bias_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        ws: &mut Workspace,
    ) -> BiasPayload {
        let Pattern::Sparse(mask) = pattern else { return None };
        Some(self.spd_bias.sparse_bias_ws(mask, edge_spd(batch.graph), ws))
    }

    /// The pre-head trunk: encoded input projection through the biased
    /// transformer stack, at `rows`. A training or evaluation pass
    /// (`serve == false`, rows ascending) runs the last block over the read
    /// rows under a sparse or flash pattern ([`ReadRows`]), with the read
    /// rows' edges of the per-edge bias. A serving pass plans every block
    /// for the rows under a sparse pattern ([`RowPlan`], the per-edge bias
    /// built for the first block's query rows only) and otherwise runs the
    /// whole stack and reads the rows. Shared by
    /// [`SequenceModel::forward_ws`] and [`SequenceModel::forward_hidden_ws`].
    /// The bias payload stays saved for the matching backward (which reads
    /// the same values and the `SpdBias` bucket cache built with them), or
    /// is recycled by the next forward if no backward runs, as in eval
    /// passes.
    fn trunk_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        serve: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        if let Some(stale) = self.saved_bias.take() {
            give_bias(stale, ws);
        }
        for buf in self.last_bias.take().into_iter().flatten() {
            ws.give_buf(buf);
        }
        let planned = serve && self.plan.prepare(pattern, Some(rows), self.blocks.len());
        let sparse_bias = if planned {
            // The first block's sub-mask numbers tokens by plan position.
            let (spd, order) = (edge_spd(batch.graph), self.plan.order());
            let dist = |i: usize, j: usize| spd(order[i], order[j]);
            Some(self.spd_bias.sparse_bias_ws(self.plan.first_mask(), dist, ws))
        } else {
            self.build_bias_ws(batch, pattern, ws)
        };
        // No copy of the features is kept: backward reads them from the batch.
        let mut h = ws.take_uninit(batch.features.rows(), self.cfg.hidden);
        self.in_proj.forward_rows(backend::active(), batch.features, h.data_mut());
        let deg = self.degree_enc.forward_ws(batch.graph, ws);
        ops::add_inplace(&mut h, &deg);
        ws.give(deg);
        let mode = attention_mode(pattern, &sparse_bias);
        let h = if planned {
            self.plan.run(&mut self.blocks, h, sparse_bias.as_deref(), ws)
        } else if serve {
            run_whole(&mut self.blocks, h, &mode, Some(rows), ws)
        } else {
            self.read.prepare(pattern, rows, batch.features.rows(), self.blocks.len());
            if let (Pattern::Sparse(mask), Some(bias)) = (pattern, &sparse_bias) {
                self.last_bias = self.read.gather_edges(mask, bias, ws);
            }
            let last = self.read.last_mode(mode, self.last_bias.as_deref());
            self.read.run(&mut self.blocks, h, &mode, &last, ws)
        };
        self.saved_bias = Some(sparse_bias);
        h
    }
}

/// The attention mode of every block under `pattern`, with the pass's bias.
fn attention_mode<'a>(pattern: Pattern<'a>, sparse_bias: &'a BiasPayload) -> AttentionMode<'a> {
    match pattern {
        Pattern::Dense => AttentionMode::Dense { bias: None },
        Pattern::Flash => AttentionMode::Flash,
        Pattern::Sparse(mask) => AttentionMode::Sparse { mask, bias: sparse_bias.as_deref() },
        Pattern::Performer(features) => AttentionMode::Performer { features, seed: 0x9E37 },
    }
}

/// Return a bias payload built by `build_bias_ws` to the workspace.
fn give_bias(bias: BiasPayload, ws: &mut Workspace) {
    for b in bias.into_iter().flatten() {
        ws.give_buf(b);
    }
}

impl SequenceModel for Graphormer {
    fn forward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        rows: &[usize],
        ws: &mut Workspace,
    ) -> Tensor {
        let h = self.trunk_ws(batch, pattern, rows, false, ws);
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
        Some(self.trunk_ws(batch, pattern, rows, true, ws))
    }

    fn backward_ws(
        &mut self,
        batch: &SequenceBatch<'_>,
        pattern: Pattern<'_>,
        dlogits: &Tensor,
        ws: &mut Workspace,
    ) {
        let sparse_bias = self.saved_bias.take().expect("Graphormer backward before forward");
        let last_bias = self.last_bias.take();
        let want_bias = sparse_bias.is_some();
        let dh = self.head.backward_ws(dlogits, ws);
        let mut dh = self.read.expand(dh, ws);
        let mode = attention_mode(pattern, &sparse_bias);
        let last = self.read.last_mode(mode, last_bias.as_deref());
        let layers = self.blocks.len();
        for (l, block) in self.blocks.iter_mut().enumerate().rev() {
            let is_last = l + 1 == layers;
            let (dx, bias_grad) = block.backward_ws(&dh, if is_last { &last } else { &mode }, want_bias, ws);
            if let Some(bg) = bias_grad {
                let bg = match pattern {
                    Pattern::Sparse(mask) if is_last => self.read.scatter_edges(mask, bg, ws),
                    _ => bg,
                };
                self.spd_bias.backward_ws(bg, ws);
            }
            ws.give(dh);
            dh = dx;
        }
        // Input encodings: h0 = in_proj(x) + degree_enc.
        self.degree_enc.backward_ws(&dh, ws);
        self.in_proj.backward_params_rows(backend::active(), batch.features, &dh);
        ws.give(dh);
        give_bias(sparse_bias, ws);
        for buf in last_bias.into_iter().flatten() {
            ws.give_buf(buf);
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.in_proj.params_mut();
        p.extend(self.degree_enc.params_mut());
        p.extend(self.spd_bias.params_mut());
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

    fn describe(&self) -> Option<ArchDescriptor> {
        Some(ArchDescriptor {
            kind: "graphormer",
            feat_dim: self.cfg.feat_dim,
            hidden: self.cfg.hidden,
            layers: self.cfg.layers,
            heads: self.cfg.heads,
            ffn_mult: self.cfg.ffn_mult,
            out_dim: self.cfg.out_dim,
            pe_dim: 0,
            max_degree: self.cfg.max_degree,
            max_spd: self.cfg.max_spd,
        })
    }

    fn name(&self) -> &'static str {
        if self.cfg.hidden >= 768 {
            "GPH_Large"
        } else {
            "GPH_Slim"
        }
    }

    fn rng_state(&self) -> Vec<u64> {
        self.blocks.iter().flat_map(|b| b.rng_state()).collect()
    }

    fn set_rng_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.blocks.len() * 2, "rng state length mismatch");
        for (b, s) in self.blocks.iter_mut().zip(state.chunks_exact(2)) {
            b.set_rng_state([s[0], s[1]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::every_row;
    use torchgt_graph::generators::{cycle_graph, path_graph};
    use torchgt_tensor::init;

    fn tiny() -> (Graphormer, Tensor, torchgt_graph::CsrGraph) {
        let cfg = GraphormerConfig {
            feat_dim: 6,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim: 3,
            max_degree: 8,
            max_spd: 4,
            dropout: 0.0,
        };
        let g = cycle_graph(8);
        let x = init::normal(8, 6, 0.0, 1.0, 1);
        (Graphormer::new(cfg, 42), x, g)
    }

    #[test]
    fn forward_shapes_all_patterns() {
        let (mut m, x, g) = tiny();
        let mask = g.with_self_loops();
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        for pattern in
            [Pattern::Dense, Pattern::Flash, Pattern::Sparse(&mask)]
        {
            let y = m.forward_ws(&batch, pattern, &every_row(&batch), &mut Workspace::new());
            assert_eq!(y.shape(), (8, 3), "pattern {}", pattern.label());
        }
    }

    #[test]
    fn spd_bias_changes_sparse_output() {
        let (mut m, x, g) = tiny();
        let mask = torchgt_graph::generators::complete_graph(8).with_self_loops();
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        m.set_training(false);
        let y1 = m.forward_ws(&batch, Pattern::Sparse(&mask), &every_row(&batch), &mut Workspace::new());
        m.spd_bias.table.value.data_mut().fill(0.0);
        let y2 = m.forward_ws(&batch, Pattern::Sparse(&mask), &every_row(&batch), &mut Workspace::new());
        assert_ne!(y1.data(), y2.data(), "spatial encoding must matter");
    }

    #[test]
    fn backward_populates_all_param_grads() {
        let (mut m, x, g) = tiny();
        let mask = g.with_self_loops();
        let batch = SequenceBatch { features: &x, graph: &g, spd: None };
        // Training mode (dropout 0): an eval forward keeps nothing to
        // backpropagate through.
        let y = m.forward_ws(&batch, Pattern::Sparse(&mask), &every_row(&batch), &mut Workspace::new());
        let dy = Tensor::full(y.rows(), y.cols(), 1.0);
        m.backward_ws(&batch, Pattern::Sparse(&mask), &dy, &mut Workspace::new());
        let nonzero = m
            .params_mut()
            .iter()
            .filter(|p| p.grad.data().iter().any(|&v| v != 0.0))
            .count();
        let total = m.params_mut().len();
        assert!(
            nonzero >= total - 2,
            "only {nonzero}/{total} params got gradients"
        );
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        // A 2-class toy problem on a path graph: class = (position parity
        // via features). Graphormer should fit it quickly.
        use torchgt_tensor::{Adam, Optimizer};
        let cfg = GraphormerConfig {
            feat_dim: 4,
            hidden: 16,
            layers: 2,
            heads: 2,
            ffn_mult: 2,
            out_dim: 2,
            max_degree: 4,
            max_spd: 4,
            dropout: 0.0,
        };
        let g = path_graph(16);
        let mask = g.with_self_loops();
        let mut feats = Tensor::zeros(16, 4);
        let labels: Vec<u32> = (0..16).map(|v| (v % 2) as u32).collect();
        for v in 0..16 {
            feats.set(v, (v % 2) * 2, 1.0);
            feats.set(v, 3, (v as f32) / 16.0);
        }
        let mut model = Graphormer::new(cfg, 7);
        model.set_training(true);
        let mut opt = Adam::with_lr(3e-3);
        let batch = SequenceBatch { features: &feats, graph: &g, spd: None };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let logits = model.forward_ws(&batch, Pattern::Sparse(&mask), &every_row(&batch), &mut Workspace::new());
            let (loss, dlogits) = crate::loss::softmax_cross_entropy_ws(&logits, &labels, &mut Workspace::new());
            model.backward_ws(&batch, Pattern::Sparse(&mask), &dlogits, &mut Workspace::new());
            opt.step(&mut model.params_mut());
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < 0.5 * first.unwrap(),
            "loss did not drop: {first:?} → {last}"
        );
    }

    #[test]
    fn names_follow_table_iv() {
        let slim = Graphormer::new(GraphormerConfig::slim(8, 2), 0);
        let large = Graphormer::new(GraphormerConfig::large(8, 2), 0);
        assert_eq!(slim.name(), "GPH_Slim");
        assert_eq!(large.name(), "GPH_Large");
    }
}
