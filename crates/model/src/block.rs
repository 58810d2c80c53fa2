//! A pre-LN transformer block with pluggable attention, run as two row-tile
//! pipelines around the one op that is not row-local.
//!
//! Everything in the block except attention maps row `i` of its input to
//! row `i` of its output, so instead of one whole-tensor sweep per op the
//! block walks the sequence [`ROW_TILE`] rows at a time and runs every op
//! that touches a tile while the tile is in cache:
//!
//! ```text
//! forward   per tile { a = LN1(x); q,k,v = a·W + b }
//!           attention over the whole sequence
//!           per tile { y = x + drop1(o·Wo + bo); f = LN2(y);
//!                      h = f·W1 + b1; g = gelu(h); z = y + drop2(g·W2 + b2) }
//! backward  the mirror image, with dW += tileᵀ·d(tile) accumulated
//!           straight into the parameter gradients
//! ```
//!
//! Tiles run in ascending row order on the calling thread, so every
//! accumulation chain (weight and bias gradients, the dropout mask stream)
//! is the one a whole-tensor pass would run — DESIGN.md, "Row-tile
//! pipelines", has the kernel-by-kernel argument.

use crate::attention::BiasGrad;
use crate::mha::{AttentionMode, Attended, MultiHeadAttention};
use torchgt_tensor::backend::{self, Backend};
use torchgt_tensor::layers::{row_tiles, DropoutPass, Layer, LnSaved, ROW_TILE};
use torchgt_tensor::rng::derive_seed;
use torchgt_tensor::{Dropout, FeedForward, LayerNorm, Param, Tensor, TensorView, Workspace};

/// `x → x + Drop(MHA(LN(x))) → y + Drop(FFN(LN(y)))` — the standard pre-LN
/// block Graphormer and GT both use.
pub struct TransformerBlock {
    ln1: LayerNorm,
    /// The attention sub-layer (public so schedulers can inspect heads).
    pub attn: MultiHeadAttention,
    drop1: Dropout,
    ln2: LayerNorm,
    ffn: FeedForward,
    drop2: Dropout,
    training: bool,
    saved: Option<Saved>,
}

/// What a training-mode forward keeps for backward. Every buffer is
/// arena-owned and was written exactly once, by the tile that produced it;
/// the LayerNorm outputs are not kept — backward recomputes a tile of them
/// from `x̂` (two bit-exact element-wise ops) rather than stream a second
/// `[s, d]` tensor per norm through memory twice.
struct Saved {
    ln1: LnSaved,
    attended: Attended,
    /// Dropout masks (`1/keep` or `0`), `[s, d]`; `None` when `p == 0`.
    mask1: Option<Tensor>,
    ln2: LnSaved,
    /// FFN pre-activation and activation, `[s, inner]`.
    h: Tensor,
    g: Tensor,
    mask2: Option<Tensor>,
}

impl Saved {
    fn recycle(self, ws: &mut Workspace) {
        self.ln1.recycle(ws);
        self.attended.recycle(ws);
        self.ln2.recycle(ws);
        for t in [Some(self.h), Some(self.g), self.mask1, self.mask2].into_iter().flatten() {
            ws.give(t);
        }
    }
}

/// `out = base + drop(branch)` over one tile: with a live dropout the mask
/// is drawn into `mask` and applied in the same pass; without one the
/// branch is added as it is, no copy made.
fn residual_rows(
    be: Backend,
    drop: Option<(&mut DropoutPass, &mut [f32])>,
    base: &[f32],
    branch: &[f32],
    out: &mut [f32],
) {
    match drop {
        Some((pass, mask)) => {
            pass.apply(branch, mask, out);
            be.add_assign(out, base);
        }
        None => be.add(base, branch, out),
    }
}

/// Backward of the dropout in [`residual_rows`] over one tile: the masked
/// gradient (through `scratch`), or `dy` itself when no mask was drawn.
fn drop_backward_rows<'a>(
    be: Backend,
    mask: Option<&[f32]>,
    dy: &'a [f32],
    scratch: &'a mut [f32],
) -> &'a [f32] {
    match mask {
        Some(mask) => {
            be.mul(dy, mask, scratch);
            scratch
        }
        None => dy,
    }
}

impl TransformerBlock {
    /// Construct with hidden width `dim`, `heads` heads, `ffn_mult × dim`
    /// FFN inner width and dropout probability `dropout`.
    pub fn new(dim: usize, heads: usize, ffn_mult: usize, dropout: f32, seed: u64) -> Self {
        Self {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, derive_seed(seed, 40)),
            drop1: Dropout::new(dropout, derive_seed(seed, 41)),
            ln2: LayerNorm::new(dim),
            ffn: FeedForward::new(dim, ffn_mult * dim, derive_seed(seed, 42)),
            drop2: Dropout::new(dropout, derive_seed(seed, 43)),
            training: true,
            saved: None,
        }
    }

    /// Toggle training mode: on, dropout is live and the forward keeps what
    /// backward needs; off, the forward keeps nothing.
    pub fn set_training(&mut self, on: bool) {
        self.training = on;
        self.drop1.training = on;
        self.drop2.training = on;
    }

    /// Forward under the given attention mode, drawing every intermediate
    /// from `ws`. The returned tensor belongs to `ws`. In training mode the state
    /// backward needs stays checked out until [`Self::backward_ws`] (or the
    /// next forward) returns it; in eval mode only tile scratch is used.
    pub fn forward_ws(&mut self, x: &Tensor, mode: &AttentionMode<'_>, ws: &mut Workspace) -> Tensor {
        if let Some(stale) = self.saved.take() {
            stale.recycle(ws);
        }
        let training = self.training;
        let (s, d) = x.shape();
        let inner = self.ffn.inner_dim();
        let be = backend::active();
        // Tile scratch: a LayerNorm output, a projection output, the
        // mid-block residual.
        let mut normed = ws.take_uninit(ROW_TILE, d);
        let mut branch = ws.take_uninit(ROW_TILE, d);
        let mut y = ws.take_uninit(ROW_TILE, d);

        let mut ln1 = training.then(|| LnSaved::take(s, d, ws));
        let (mut q, mut k, mut v) = (ws.take_uninit(s, d), ws.take_uninit(s, d), ws.take_uninit(s, d));
        for (r0, r1) in row_tiles(s) {
            let n = r1 - r0;
            let stats = ln1.as_mut().map(|st| st.rows_mut(r0, r1));
            self.ln1.forward_rows(be, &x.view_rows(r0, r1), normed.row_span_mut(0, n), stats);
            let a = normed.view_rows(0, n);
            self.attn.project_rows(be, &a, q.row_span_mut(r0, r1), k.row_span_mut(r0, r1), v.row_span_mut(r0, r1));
        }

        let attended = self.attn.attend(q, k, v, mode, ws);

        let mut drop1 = self.drop1.begin().map(|pass| (pass, ws.take_uninit(s, d)));
        let mut drop2 = self.drop2.begin().map(|pass| (pass, ws.take_uninit(s, d)));
        let mut ln2 = training.then(|| LnSaved::take(s, d, ws));
        // Kept whole for backward, or one tile of scratch.
        let ffn_rows = if training { s } else { ROW_TILE };
        let mut h = ws.take_uninit(ffn_rows, inner);
        let mut g = ws.take_uninit(ffn_rows, inner);
        let mut z = ws.take_uninit(s, d);
        for (r0, r1) in row_tiles(s) {
            let n = r1 - r0;
            let x_rows = x.row_span(r0, r1);
            // y = x + drop1(o·Wo + bo)
            self.attn.wo.forward_rows(be, &attended.out.view_rows(r0, r1), branch.row_span_mut(0, n));
            let drop = drop1.as_mut().map(|(pass, mask)| (pass, mask.row_span_mut(r0, r1)));
            residual_rows(be, drop, x_rows, branch.row_span(0, n), y.row_span_mut(0, n));
            // z = y + drop2(ffn(LN2(y)))
            let stats = ln2.as_mut().map(|st| st.rows_mut(r0, r1));
            self.ln2.forward_rows(be, &y.view_rows(0, n), normed.row_span_mut(0, n), stats);
            let at = if training { r0 } else { 0 };
            let (h_rows, g_rows) = (h.row_span_mut(at, at + n), g.row_span_mut(at, at + n));
            self.ffn.forward_rows(be, &normed.view_rows(0, n), h_rows, g_rows, branch.row_span_mut(0, n));
            let drop = drop2.as_mut().map(|(pass, mask)| (pass, mask.row_span_mut(r0, r1)));
            let y_rows = y.row_span(0, n);
            residual_rows(be, drop, y_rows, branch.row_span(0, n), z.row_span_mut(r0, r1));
        }
        for t in [normed, branch, y] {
            ws.give(t);
        }
        match (ln1, ln2) {
            (Some(ln1), Some(ln2)) => {
                let (mask1, mask2) = (drop1.map(|d| d.1), drop2.map(|d| d.1));
                self.saved = Some(Saved { ln1, attended, mask1, ln2, h, g, mask2 });
            }
            _ => {
                attended.recycle(ws);
                ws.give(h);
                ws.give(g);
            }
        }
        z
    }

    /// Backward through `ws`; returns `(dx, attention_bias_grad)`, both
    /// owned by `ws`. Consumes what the last training-mode forward saved.
    pub fn backward_ws(
        &mut self,
        dz: &Tensor,
        mode: &AttentionMode<'_>,
        want_bias_grad: bool,
        ws: &mut Workspace,
    ) -> (Tensor, Option<BiasGrad>) {
        let Saved { ln1, attended, mask1, ln2, h, g, mask2 } =
            self.saved.take().expect("TransformerBlock backward without a training-mode forward");
        let (s, d) = dz.shape();
        let be = backend::active();
        // Tile scratch, and each weight transposed once for all row tiles.
        let mut normed = ws.take_uninit(ROW_TILE, d);
        let mut masked = ws.take_uninit(ROW_TILE, d);
        let mut dnormed = ws.take_uninit(ROW_TILE, d);
        let mut ffn_scratch = self.ffn.backward_scratch(ws);
        let wot = self.attn.wo.transposed_ws(ws);

        // z = y + drop2(ffn(LN2(y))),  y = x + drop1(o·Wo + bo)
        let mut dy = ws.take_uninit(s, d);
        let mut dout = ws.take_uninit(s, d);
        for (r0, r1) in row_tiles(s) {
            let n = r1 - r0;
            let dz_rows = dz.row_span(r0, r1);
            let mask = mask2.as_ref().map(|m| m.row_span(r0, r1));
            let du = drop_backward_rows(be, mask, dz_rows, masked.row_span_mut(0, n));
            let xhat = ln2.xhat.view_rows(r0, r1);
            self.ln2.affine_rows(be, &xhat, normed.row_span_mut(0, n));
            self.ffn.backward_rows(
                be,
                &mut ffn_scratch,
                &normed.view_rows(0, n),
                &h.view_rows(r0, r1),
                &g.view_rows(r0, r1),
                &TensorView::contiguous(du, d),
                dnormed.row_span_mut(0, n),
            );
            let dy_rows = dy.row_span_mut(r0, r1);
            self.ln2.backward_rows(be, &xhat, &ln2.inv_std[r0..r1], &dnormed.view_rows(0, n), dy_rows);
            be.add_assign(dy_rows, dz_rows);
            let mask = mask1.as_ref().map(|m| m.row_span(r0, r1));
            let da = drop_backward_rows(be, mask, dy.row_span(r0, r1), masked.row_span_mut(0, n));
            let da = TensorView::contiguous(da, d);
            self.attn.wo.backward_rows(be, &wot, &attended.out.view_rows(r0, r1), &da, dout.row_span_mut(r0, r1));
        }
        ffn_scratch.recycle(ws);
        ws.give(wot);

        let grads = self.attn.attend_backward(attended, &dout, mode, want_bias_grad, ws);

        // a = LN1(x),  q,k,v = a·W + b
        let mut dx = dout; // every row is overwritten below
        let wt = self.attn.transposed_projections_ws(ws);
        for (r0, r1) in row_tiles(s) {
            let n = r1 - r0;
            let xhat = ln1.xhat.view_rows(r0, r1);
            self.ln1.affine_rows(be, &xhat, normed.row_span_mut(0, n));
            self.attn.project_backward_rows(
                be,
                &wt,
                &normed.view_rows(0, n),
                &grads.dq.view_rows(r0, r1),
                &grads.dk.view_rows(r0, r1),
                &grads.dv.view_rows(r0, r1),
                masked.row_span_mut(0, n),
                dnormed.row_span_mut(0, n),
            );
            let dx_rows = dx.row_span_mut(r0, r1);
            self.ln1.backward_rows(be, &xhat, &ln1.inv_std[r0..r1], &dnormed.view_rows(0, n), dx_rows);
            be.add_assign(dx_rows, dy.row_span(r0, r1));
        }
        ln1.recycle(ws);
        ln2.recycle(ws);
        let saved = [Some(h), Some(g), mask1, mask2].into_iter().flatten();
        let scratch = [normed, masked, dnormed, dy, grads.dq, grads.dk, grads.dv];
        for t in saved.chain(scratch).chain(wt) {
            ws.give(t);
        }
        (dx, grads.dbias)
    }

    /// Mask-draw counters of this block's dropout layers (its PRNG state).
    pub fn rng_state(&self) -> [u64; 2] {
        [self.drop1.calls(), self.drop2.calls()]
    }

    /// Restore the dropout mask-draw counters captured by
    /// [`Self::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 2]) {
        self.drop1.set_calls(state[0]);
        self.drop2.set_calls(state[1]);
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.ln1.params_mut();
        p.extend(self.attn.params_mut());
        p.extend(self.ln2.params_mut());
        p.extend(self.ffn.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_tensor::gradcheck::{max_abs_diff, numerical_grad};
    use torchgt_tensor::init;

    #[test]
    fn forward_preserves_shape() {
        let mut b = TransformerBlock::new(8, 2, 4, 0.0, 1);
        let x = init::normal(5, 8, 0.0, 1.0, 2);
        let y = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        assert_eq!(y.shape(), (5, 8));
    }

    #[test]
    fn residual_path_keeps_input_signal() {
        // Zero attention+FFN weights ⇒ block ≈ identity (plus biases).
        let mut b = TransformerBlock::new(4, 1, 2, 0.0, 3);
        for p in b.params_mut() {
            p.value.fill_zero();
        }
        let x = init::normal(3, 4, 0.0, 1.0, 4);
        let y = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        assert!(max_abs_diff(&x, &y) < 1e-5);
    }

    #[test]
    fn block_gradient_matches_numerical() {
        // Dropout 0 in training mode: deterministic, and the forward keeps
        // what backward needs.
        let mut b = TransformerBlock::new(6, 2, 2, 0.0, 5);
        let x = init::normal(4, 6, 0.0, 0.8, 6);
        let w = init::normal(4, 6, 0.0, 1.0, 7);
        let mode = AttentionMode::Dense { bias: None };
        let _ = b.forward_ws(&x, &mode, &mut Workspace::new());
        let (dx, _) = b.backward_ws(&w, &mode, false, &mut Workspace::new());
        // Probe via fresh copies (dropout off ⇒ deterministic).
        let numeric = numerical_grad(
            &x,
            |p| {
                let mut probe = TransformerBlock::new(6, 2, 2, 0.0, 5);
                probe.set_training(false);
                let y = probe.forward_ws(p, &AttentionMode::Dense { bias: None }, &mut Workspace::new());
                y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
            },
            1e-2,
        );
        assert!(max_abs_diff(&dx, &numeric) < 5e-2, "diff {}", max_abs_diff(&dx, &numeric));
    }

    #[test]
    fn dropout_only_active_in_training() {
        let mut b = TransformerBlock::new(8, 2, 4, 0.5, 9);
        let x = init::normal(5, 8, 0.0, 1.0, 10);
        b.set_training(false);
        let y1 = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        let y2 = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        assert_eq!(y1.data(), y2.data(), "eval mode must be deterministic");
        b.set_training(true);
        let y3 = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        let y4 = b.forward_ws(&x, &AttentionMode::Flash, &mut Workspace::new());
        assert_ne!(y3.data(), y4.data(), "training mode must vary");
    }
}
