//! Multi-head attention layer with a pluggable attention pattern.
//!
//! This is the swap point of the whole reproduction: GP-RAW uses
//! [`AttentionMode::Dense`], GP-FLASH uses [`AttentionMode::Flash`],
//! GP-SPARSE / TorchGT use [`AttentionMode::Sparse`] with the topology /
//! cluster-sparse mask, and the Dual-interleaved scheduler alternates modes
//! between iterations without touching the model.

use crate::attention::{self, AttnCache, AttnGrads, BiasGrad};
use torchgt_graph::CsrGraph;
use torchgt_tensor::backend;
use torchgt_tensor::layers::Layer;
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Linear, Param, Tensor, Workspace};

/// Which kernel and pattern the attention layer should use for a pass.
#[derive(Clone, Copy)]
pub enum AttentionMode<'a> {
    /// Fully-connected, materialised scores, optional per-head `[s,s]` bias.
    Dense {
        /// Per-head additive score bias (Graphormer's spatial encoding).
        bias: Option<&'a [Tensor]>,
    },
    /// Fully-connected tiled kernel. No bias support (FlashAttention's
    /// limitation, noted in the paper §II-C).
    Flash,
    /// Sparse pattern over `mask`, optional per-head per-edge bias.
    Sparse {
        /// Attention mask: query `i` attends to `mask.neighbors(i)`.
        mask: &'a CsrGraph,
        /// Per-head per-edge bias in the mask's CSR order.
        bias: Option<&'a [Vec<f32>]>,
    },
    /// Performer (FAVOR+) linear attention — the structure-agnostic NLP
    /// approximation baseline. No bias support.
    Performer {
        /// Random features per head.
        features: usize,
        /// Feature-matrix seed (fixed across fwd/bwd of one pass).
        seed: u64,
    },
}

/// Multi-head attention with learned Q/K/V/output projections.
///
/// The projections are row-local and attention is not, so the layer is
/// three pieces a fused caller (the transformer block) drives itself —
/// the Q/K/V projections per row tile, one
/// [`MultiHeadAttention::attend`] over the whole sequence, the output
/// projection per row tile again — and `forward_ws` / `backward_ws` are
/// those pieces over all rows at once.
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Number of heads.
    pub heads: usize,
    /// The layer's input and attention state of the last stand-alone forward.
    saved: Option<(Tensor, Attended)>,
}

/// The whole-sequence state of one attention forward, arena-owned: the
/// projected Q/K/V, the kernel's output (pre output-projection) and its
/// cache. [`MultiHeadAttention::attend_backward`] consumes it.
pub(crate) struct Attended {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// `[s, d]` attention result the output projection reads.
    pub(crate) out: Tensor,
    cache: AttnCache,
}

impl Attended {
    /// Return every buffer to the arena (a forward no backward will follow).
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        ws.give(self.q);
        ws.give(self.k);
        ws.give(self.v);
        ws.give(self.out);
        self.cache.recycle(ws);
    }
}

impl MultiHeadAttention {
    /// Construct for hidden dimension `dim` split over `heads`.
    pub fn new(dim: usize, heads: usize, seed: u64) -> Self {
        assert_eq!(dim % heads, 0, "hidden must divide heads");
        Self {
            wq: Linear::new(dim, dim, derive_seed(seed, 20)),
            wk: Linear::new(dim, dim, derive_seed(seed, 21)),
            wv: Linear::new(dim, dim, derive_seed(seed, 22)),
            wo: Linear::new(dim, dim, derive_seed(seed, 23)),
            heads,
            saved: None,
        }
    }

    /// `Wqᵀ, Wkᵀ, Wvᵀ` in arena scratch ([`Linear::transposed_ws`]), once
    /// per backward pass for the projections' input gradients.
    pub(crate) fn transposed_projections_ws(&self, ws: &mut Workspace) -> [Tensor; 3] {
        [&self.wq, &self.wk, &self.wv].map(|w| w.transposed_ws(ws))
    }

    /// Attention proper over a whole projected sequence, under `mode`.
    pub(crate) fn attend(
        &self,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        mode: &AttentionMode<'_>,
        ws: &mut Workspace,
    ) -> Attended {
        let result = match mode {
            AttentionMode::Dense { bias } => attention::dense_ws(&q, &k, &v, self.heads, *bias, ws),
            AttentionMode::Flash => attention::flash_ws(&q, &k, &v, self.heads, ws),
            AttentionMode::Sparse { mask, bias } => {
                attention::sparse_ws(&q, &k, &v, self.heads, mask, *bias, ws)
            }
            AttentionMode::Performer { features, seed } => {
                attention::performer_ws(&q, &k, &v, self.heads, *features, *seed, ws)
            }
        };
        Attended { q, k, v, out: result.out, cache: result.cache }
    }

    /// Backward of [`MultiHeadAttention::attend`] given `dout`, the gradient
    /// of its output; `mode` must match the forward's (same mask). Returns
    /// the saved state's buffers to the arena.
    pub(crate) fn attend_backward(
        &self,
        saved: Attended,
        dout: &Tensor,
        mode: &AttentionMode<'_>,
        want_bias_grad: bool,
        ws: &mut Workspace,
    ) -> AttnGrads {
        let Attended { q, k, v, out, cache } = saved;
        let grads = match mode {
            AttentionMode::Dense { .. } => {
                attention::dense_backward_ws(&q, &k, &v, self.heads, cache, dout, want_bias_grad, ws)
            }
            AttentionMode::Flash => {
                attention::flash_backward_ws(&q, &k, &v, self.heads, cache, &out, dout, ws)
            }
            AttentionMode::Sparse { mask, .. } => attention::sparse_backward_ws(
                &q,
                &k,
                &v,
                self.heads,
                mask,
                cache,
                dout,
                want_bias_grad,
                ws,
            ),
            AttentionMode::Performer { features, seed } => attention::performer_backward_ws(
                &q, &k, &v, self.heads, *features, *seed, cache, dout, ws,
            ),
        };
        ws.give(q);
        ws.give(k);
        ws.give(v);
        ws.give(out);
        grads
    }

    /// Forward pass under the given attention mode, drawing every
    /// intermediate — the projected Q/K/V, the kernel's scratch, and the
    /// saved state — from `ws`. The saved state is returned to the arena by the matching
    /// [`MultiHeadAttention::backward_ws`] (or recycled on the next forward
    /// if backward never runs, as in eval passes).
    pub fn forward_ws(&mut self, x: &Tensor, mode: &AttentionMode<'_>, ws: &mut Workspace) -> Tensor {
        if let Some((x, stale)) = self.saved.take() {
            ws.give(x);
            stale.recycle(ws);
        }
        let (s, d) = x.shape();
        let be = backend::active();
        let (mut q, mut k, mut v) = (ws.take_uninit(s, d), ws.take_uninit(s, d), ws.take_uninit(s, d));
        self.wq.forward_rows(be, x, q.data_mut());
        self.wk.forward_rows(be, x, k.data_mut());
        self.wv.forward_rows(be, x, v.data_mut());
        let attended = self.attend(q, k, v, mode, ws);
        let mut y = ws.take_uninit(s, d);
        self.wo.forward_rows(be, &attended.out, y.data_mut());
        self.saved = Some((ws.take_copy(x), attended));
        y
    }

    /// Backward pass through `ws`; `mode` must match the one used in forward
    /// (same mask). Returns `(dx, bias_grad)`, both owned by `ws` — the
    /// caller gives them back once consumed — and returns every buffer of
    /// the saved forward state to the arena.
    pub fn backward_ws(
        &mut self,
        dy: &Tensor,
        mode: &AttentionMode<'_>,
        want_bias_grad: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Option<BiasGrad>) {
        let (x, attended) = self.saved.take().expect("MHA backward before forward");
        let (s, d) = dy.shape();
        let be = backend::active();
        let mut dout = ws.take_uninit(s, d);
        let wot = self.wo.transposed_ws(ws);
        self.wo.backward_rows(be, &wot, &attended.out, dy, dout.data_mut());
        let AttnGrads { dq, dk, dv, dbias } =
            self.attend_backward(attended, &dout, mode, want_bias_grad, ws);
        // `dout` is done with: reuse it as the per-projection partial. The
        // three input gradients sum in Q, K, V order.
        let mut dx = ws.take_uninit(s, d);
        let wt = self.transposed_projections_ws(ws);
        let [wqt, wkt, wvt] = &wt;
        self.wq.backward_rows(be, wqt, &x, &dq, dx.data_mut());
        self.wk.backward_rows(be, wkt, &x, &dk, dout.data_mut());
        be.add_assign(dx.data_mut(), dout.data());
        self.wv.backward_rows(be, wvt, &x, &dv, dout.data_mut());
        be.add_assign(dx.data_mut(), dout.data());
        for t in [x, dout, dq, dk, dv, wot].into_iter().chain(wt) {
            ws.give(t);
        }
        (dx, dbias)
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.wq.params_mut();
        p.extend(self.wk.params_mut());
        p.extend(self.wv.params_mut());
        p.extend(self.wo.params_mut());
        p
    }

    /// Scalar parameter count.
    pub fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::complete_graph;
    use torchgt_tensor::gradcheck::{max_abs_diff, numerical_grad};
    use torchgt_tensor::init;

    #[test]
    fn forward_shapes() {
        let mut mha = MultiHeadAttention::new(16, 4, 1);
        let x = init::normal(10, 16, 0.0, 1.0, 2);
        let y = mha.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        assert_eq!(y.shape(), (10, 16));
    }

    #[test]
    fn dense_flash_sparse_complete_agree() {
        let x = init::normal(9, 8, 0.0, 0.7, 3);
        let mask = complete_graph(9).with_self_loops();
        let mut a = MultiHeadAttention::new(8, 2, 7);
        let y_dense = a.forward_ws(&x, &AttentionMode::Dense { bias: None }, &mut Workspace::new());
        let y_flash = a.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        let y_sparse = a.forward_ws(&x, &AttentionMode::Sparse { mask: &mask, bias: None }, &mut Workspace::new());
        assert!(max_abs_diff(&y_dense, &y_flash) < 1e-4);
        assert!(max_abs_diff(&y_dense, &y_sparse) < 1e-4);
    }

    #[test]
    fn end_to_end_gradient_check_sparse() {
        let s = 6;
        let mask = torchgt_graph::generators::cycle_graph(s).with_self_loops();
        let x = init::normal(s, 8, 0.0, 0.8, 5);
        let w = init::normal(s, 8, 0.0, 1.0, 6);
        let mut mha = MultiHeadAttention::new(8, 2, 11);
        let mode = AttentionMode::Sparse { mask: &mask, bias: None };
        let _ = mha.forward_ws(&x, &mode, &mut Workspace::new());
        let (dx, _) = mha.backward_ws(&w, &mode, false, &mut Workspace::new());
        // Numerical check through a cloned module (weights identical, state
        // reset by each forward).
        let wq = mha.wq.clone();
        let wk = mha.wk.clone();
        let wv = mha.wv.clone();
        let wo = mha.wo.clone();
        let numeric = numerical_grad(
            &x,
            |p| {
                let mut probe = MultiHeadAttention::new(8, 2, 11);
                probe.wq = wq.clone();
                probe.wk = wk.clone();
                probe.wv = wv.clone();
                probe.wo = wo.clone();
                let y = probe.forward_ws(p, &AttentionMode::Sparse { mask: &mask, bias: None }, &mut Workspace::new());
                y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
            },
            1e-2,
        );
        assert!(max_abs_diff(&dx, &numeric) < 3e-2, "diff {}", max_abs_diff(&dx, &numeric));
    }

    #[test]
    fn param_count() {
        let mut mha = MultiHeadAttention::new(64, 8, 0);
        // 4 × (64×64 + 64)
        assert_eq!(mha.num_params(), 4 * (64 * 64 + 64));
    }
}
