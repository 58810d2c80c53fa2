//! Multi-head attention layer with a pluggable attention pattern.
//!
//! This is the swap point of the whole reproduction: GP-RAW uses
//! [`AttentionMode::Dense`], GP-FLASH uses [`AttentionMode::Flash`],
//! GP-SPARSE / TorchGT use [`AttentionMode::Sparse`] with the topology /
//! cluster-sparse mask, and the Dual-interleaved scheduler alternates modes
//! between iterations without touching the model.

use crate::attention::{self, AttnCache, AttnGrads};
use torchgt_graph::CsrGraph;
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
/// three pieces the transformer block drives itself — the Q/K/V
/// projections per row tile, one attention pass over the whole sequence,
/// the output projection per row tile again.
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

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.wq.params_mut();
        p.extend(self.wk.params_mut());
        p.extend(self.wv.params_mut());
        p.extend(self.wo.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count() {
        let mut mha = MultiHeadAttention::new(64, 8, 0);
        let n: usize = mha.params_mut().iter().map(|p| p.len()).sum();
        // 4 × (64×64 + 64)
        assert_eq!(n, 4 * (64 * 64 + 64));
    }
}
