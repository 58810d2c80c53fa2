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
//! A forward can be read at some rows only
//! ([`TransformerBlock::forward_rows_ws`]), in training as in evaluation:
//! LN1 and the K/V projections still run over every input row, in order —
//! every input row is a key — while Q, attention, Wo, the residuals, LN2
//! and the FFN run over the read rows, and backward mirrors it (the Q
//! projection's gradient over the read rows, the K/V ones over all). A
//! model's last block runs this way for the rows its caller reads, and in a
//! pass with no backward earlier blocks for the rows the next block reads
//! (`crate::readout`).
//!
//! Tiles run in ascending row order on the calling thread, so every
//! accumulation chain (weight and bias gradients, the dropout mask stream)
//! is the one a whole-tensor pass would run — DESIGN.md, "Row-tile
//! pipelines", has the kernel-by-kernel argument. Reading fewer rows keeps
//! the chains too: a row nobody reads has a zero output gradient, so every
//! term it would add to a gradient sum is ±0, the sums start at +0.0, and
//! the terms left keep their order; its dropout entries are drawn and
//! discarded, so the read rows get the masks a whole pass gives them
//! (DESIGN.md, "Train what is read").

use crate::attention::BiasGrad;
use crate::mha::{AttentionMode, Attended, MultiHeadAttention};
use torchgt_tensor::backend::{self, Backend};
use torchgt_tensor::layers::{row_tiles, DropoutPass, LnSaved, ROW_TILE};
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
    /// The rows the last forward computed, ascending (every row when it
    /// read all of them); what its backward walks.
    read: Vec<usize>,
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

/// One dropout pass over a block's read rows. The mask stream walks every
/// token row in order: the entries of rows nobody reads are drawn and
/// discarded, so a read row's mask is the one a pass over every row gives it.
struct ReadPass {
    pass: DropoutPass,
    /// The first token row whose entries are not drawn yet.
    next: usize,
    /// The read rows' masks (`1/keep` or `0`), `[read, d]`.
    mask: Tensor,
}

/// `out = base + drop(branch)` over one tile of read rows (`tokens`, their
/// token rows): with a live dropout the mask is drawn into the tile's rows
/// of its mask and applied in the same pass; without one the branch is
/// added as it is, no copy made.
fn residual_rows(
    be: Backend,
    drop: Option<&mut ReadPass>,
    (j0, tokens): (usize, &[usize]),
    base: &[f32],
    branch: &[f32],
    out: &mut [f32],
) {
    match drop {
        Some(drop) => {
            let d = drop.mask.cols();
            for (p, t, n) in runs(tokens) {
                drop.pass.skip((t - drop.next) * d);
                let span = p * d..(p + n) * d;
                let mask = drop.mask.row_span_mut(j0 + p, j0 + p + n);
                drop.pass.apply(&branch[span.clone()], mask, &mut out[span]);
                drop.next = t + n;
            }
            be.add_assign(out, base);
        }
        None => be.add(base, branch, out),
    }
}

/// The maximal runs of consecutive tokens in the ascending `tokens`, as
/// `(position in tokens, first token, length)`.
fn runs(tokens: &[usize]) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let mut p = 0;
    std::iter::from_fn(move || {
        let &t = tokens.get(p)?;
        let n = 1 + tokens[p + 1..].iter().zip(t + 1..).take_while(|(&u, v)| u == *v).count();
        p += n;
        Some((p - n, t, n))
    })
}

/// Rows `t − base` of the `d`-wide rows in `src` for the ascending `tokens`
/// (at most a tile of them), as contiguous rows: a slice of `src` when they
/// are consecutive, else copied into `scratch`, a tile checked out of `ws`
/// the first time it is needed.
fn pick<'a>(
    src: &'a [f32],
    d: usize,
    base: usize,
    tokens: &[usize],
    scratch: &'a mut Option<Tensor>,
    ws: &mut Workspace,
) -> &'a [f32] {
    let (first, last) = (tokens[0] - base, tokens[tokens.len() - 1] - base);
    if last - first + 1 == tokens.len() {
        return &src[first * d..(last + 1) * d];
    }
    let scratch = scratch.get_or_insert_with(|| ws.take_uninit(ROW_TILE, d)).data_mut();
    for (row, &t) in scratch.chunks_exact_mut(d).zip(tokens) {
        row.copy_from_slice(&src[(t - base) * d..(t - base + 1) * d]);
    }
    &scratch[..tokens.len() * d]
}

/// `dst.row(t − base) += src.row(i)` for the `i`-th of the ascending
/// `tokens`, a run of consecutive tokens at a time.
fn add_rows(be: Backend, tokens: &[usize], base: usize, src: &[f32], dst: &mut [f32]) {
    let d = src.len() / tokens.len().max(1);
    for (p, t, n) in runs(tokens) {
        be.add_assign(&mut dst[(t - base) * d..(t - base + n) * d], &src[p * d..(p + n) * d]);
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
            read: Vec::new(),
        }
    }

    /// Toggle training mode: on, dropout is live and the forward keeps what
    /// backward needs; off, the forward keeps nothing.
    pub fn set_training(&mut self, on: bool) {
        self.training = on;
        self.drop1.training = on;
        self.drop2.training = on;
    }

    /// Whether the block is in training mode ([`Self::set_training`]).
    pub(crate) fn is_training(&self) -> bool {
        self.training
    }

    /// Forward under the given attention mode, drawing every intermediate
    /// from `ws`. The returned tensor belongs to `ws`. In training mode the state
    /// backward needs stays checked out until [`Self::backward_ws`] (or the
    /// next forward) returns it; in eval mode only tile scratch is used.
    pub fn forward_ws(&mut self, x: &Tensor, mode: &AttentionMode<'_>, ws: &mut Workspace) -> Tensor {
        self.forward_rows_ws(x, None, mode, ws)
    }

    /// [`Self::forward_ws`] read at `rows` only (strictly ascending rows of
    /// `x`; `None` reads every row): the result is `[rows.len(), d]`, row
    /// `i` bit-identical to row `rows[i]` of the all-rows forward. LN1 and
    /// the K/V projections run over every row of `x`; Q, attention under
    /// `mode` (whose mask has one row per read row, its columns naming rows
    /// of `x`; a sparse or flash mode), Wo, the residuals, LN2 and the FFN
    /// over the read rows. A training-mode call is followed by a
    /// [`Self::backward_ws`] whose `dz` has one row per read row.
    pub(crate) fn forward_rows_ws(
        &mut self,
        x: &Tensor,
        rows: Option<&[usize]>,
        mode: &AttentionMode<'_>,
        ws: &mut Workspace,
    ) -> Tensor {
        if let Some(stale) = self.saved.take() {
            stale.recycle(ws);
        }
        let training = self.training;
        let (field, d) = x.shape();
        self.read.clear();
        match rows {
            Some(rows) => {
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < field),
                    "read rows must ascend within the input"
                );
                assert!(
                    rows.len() == field || matches!(mode, AttentionMode::Sparse { .. } | AttentionMode::Flash),
                    "only sparse and flash attention read a subset of the queries"
                );
                self.read.extend_from_slice(rows);
            }
            None => self.read.extend(0..field),
        }
        let read = &self.read;
        // The rows Q and everything after attention run over.
        let s = read.len();
        let inner = self.ffn.inner_dim();
        let be = backend::active();
        // Tile scratch: a LayerNorm output, a projection output, the
        // mid-block residual, and read rows gathered from a tile.
        let mut normed = ws.take_uninit(ROW_TILE, d);
        let mut branch = ws.take_uninit(ROW_TILE, d);
        let mut y = ws.take_uninit(ROW_TILE, d);
        let mut picked = None;

        let mut ln1 = training.then(|| LnSaved::take(field, d, ws));
        let (mut q, mut k, mut v) = (ws.take_uninit(s, d), ws.take_uninit(field, d), ws.take_uninit(field, d));
        let mut j0 = 0;
        for (r0, r1) in row_tiles(field) {
            let n = r1 - r0;
            let stats = ln1.as_mut().map(|st| st.rows_mut(r0, r1));
            self.ln1.forward_rows(be, &x.view_rows(r0, r1), normed.row_span_mut(0, n), stats);
            // Q for the tile's read rows, K and V for all of them.
            let j1 = j0 + read[j0..].partition_point(|&t| t < r1);
            if j1 > j0 {
                let a = pick(normed.row_span(0, n), d, r0, &read[j0..j1], &mut picked, ws);
                self.attn.wq.forward_rows(be, &TensorView::contiguous(a, d), q.row_span_mut(j0, j1));
            }
            let a = normed.view_rows(0, n);
            self.attn.wk.forward_rows(be, &a, k.row_span_mut(r0, r1));
            self.attn.wv.forward_rows(be, &a, v.row_span_mut(r0, r1));
            j0 = j1;
        }

        let attended = self.attn.attend(q, k, v, mode, ws);

        let mut drop1 = self.drop1.begin().map(|pass| ReadPass { pass, next: 0, mask: ws.take_uninit(s, d) });
        let mut drop2 = self.drop2.begin().map(|pass| ReadPass { pass, next: 0, mask: ws.take_uninit(s, d) });
        let mut ln2 = training.then(|| LnSaved::take(s, d, ws));
        // Kept whole for backward, or one tile of scratch.
        let ffn_rows = if training { s } else { ROW_TILE };
        let mut h = ws.take_uninit(ffn_rows, inner);
        let mut g = ws.take_uninit(ffn_rows, inner);
        let mut z = ws.take_uninit(s, d);
        for (j0, j1) in row_tiles(s) {
            let n = j1 - j0;
            let tokens = &read[j0..j1];
            let x_rows = pick(x.data(), d, 0, tokens, &mut picked, ws);
            // y = x + drop1(o·Wo + bo)
            self.attn.wo.forward_rows(be, &attended.out.view_rows(j0, j1), branch.row_span_mut(0, n));
            residual_rows(be, drop1.as_mut(), (j0, tokens), x_rows, branch.row_span(0, n), y.row_span_mut(0, n));
            // z = y + drop2(ffn(LN2(y)))
            let stats = ln2.as_mut().map(|st| st.rows_mut(j0, j1));
            self.ln2.forward_rows(be, &y.view_rows(0, n), normed.row_span_mut(0, n), stats);
            let at = if training { j0 } else { 0 };
            let (h_rows, g_rows) = (h.row_span_mut(at, at + n), g.row_span_mut(at, at + n));
            self.ffn.forward_rows(be, &normed.view_rows(0, n), h_rows, g_rows, branch.row_span_mut(0, n));
            let y_rows = y.row_span(0, n);
            residual_rows(be, drop2.as_mut(), (j0, tokens), y_rows, branch.row_span(0, n), z.row_span_mut(j0, j1));
        }
        for t in [Some(normed), Some(branch), Some(y), picked].into_iter().flatten() {
            ws.give(t);
        }
        match (ln1, ln2) {
            (Some(ln1), Some(ln2)) => {
                let (mask1, mask2) = (drop1.map(|d| d.mask), drop2.map(|d| d.mask));
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
    /// owned by `ws`. Consumes what the last training-mode forward saved:
    /// `dz` has one row per row that forward read, `dx` one per input row.
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
        let read = &self.read;
        assert_eq!(s, read.len(), "dz must have one row per row the forward read");
        let field = ln1.xhat.rows();
        let be = backend::active();
        // Tile scratch, and each weight transposed once for all row tiles.
        let mut normed = ws.take_uninit(ROW_TILE, d);
        let mut masked = ws.take_uninit(ROW_TILE, d);
        let mut dnormed = ws.take_uninit(ROW_TILE, d);
        let mut ffn_scratch = self.ffn.backward_scratch(ws);
        let wot = self.attn.wo.transposed_ws(ws);

        // z = y + drop2(ffn(LN2(y))),  y = x + drop1(o·Wo + bo), over the
        // read rows
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

        // a = LN1(x),  q,k,v = a·W + b: dq has the read rows, dk and dv all.
        // Per input row, da = dq·Wqᵀ + dk·Wkᵀ + dv·Wvᵀ in that order (`+` is
        // commutative, so adding Q's term to K's is the same bits); a row
        // nobody read has no Q term, exactly the +0 its zero dq row gives.
        // Every row of `dx` is written below: reuse `dout` when it fits.
        let mut dx = if s == field {
            dout
        } else {
            ws.give(dout);
            ws.take_uninit(field, d)
        };
        let mut picked = None;
        let [wqt, wkt, wvt] = self.attn.transposed_projections_ws(ws);
        let mut j0 = 0;
        for (r0, r1) in row_tiles(field) {
            let n = r1 - r0;
            let xhat = ln1.xhat.view_rows(r0, r1);
            self.ln1.affine_rows(be, &xhat, normed.row_span_mut(0, n));
            let a = normed.view_rows(0, n);
            self.attn.wk.backward_rows(be, &wkt, &a, &grads.dk.view_rows(r0, r1), dnormed.row_span_mut(0, n));
            let j1 = j0 + read[j0..].partition_point(|&t| t < r1);
            if j1 > j0 {
                let tokens = &read[j0..j1];
                let aq = TensorView::contiguous(pick(normed.row_span(0, n), d, r0, tokens, &mut picked, ws), d);
                let dq_part = masked.row_span_mut(0, j1 - j0);
                self.attn.wq.backward_rows(be, &wqt, &aq, &grads.dq.view_rows(j0, j1), dq_part);
                add_rows(be, tokens, r0, masked.row_span(0, j1 - j0), dnormed.row_span_mut(0, n));
            }
            self.attn.wv.backward_rows(be, &wvt, &a, &grads.dv.view_rows(r0, r1), masked.row_span_mut(0, n));
            be.add_assign(dnormed.row_span_mut(0, n), masked.row_span(0, n));
            let dx_rows = dx.row_span_mut(r0, r1);
            self.ln1.backward_rows(be, &xhat, &ln1.inv_std[r0..r1], &dnormed.view_rows(0, n), dx_rows);
            if j1 > j0 {
                add_rows(be, &read[j0..j1], r0, dy.row_span(j0, j1), dx_rows);
            }
            j0 = j1;
        }
        ln1.recycle(ws);
        ln2.recycle(ws);
        let saved = [Some(h), Some(g), mask1, mask2].into_iter().flatten();
        let scratch = [normed, masked, dnormed, dy, grads.dq, grads.dk, grads.dv, wqt, wkt, wvt];
        for t in saved.chain(scratch).chain(picked) {
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

    /// Restore the PRNG state of a stack of blocks, each block's
    /// [`Self::rng_state`] in order (what a GT or Graphormer model
    /// checkpoints). Panics when `state` was taken from a stack of another
    /// depth.
    pub(crate) fn set_stack_rng_state(blocks: &mut [Self], state: &[u64]) {
        assert_eq!(state.len(), blocks.len() * 2, "rng state length mismatch");
        for (b, s) in blocks.iter_mut().zip(state.chunks_exact(2)) {
            b.set_rng_state([s[0], s[1]]);
        }
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.ln1.gamma, &mut self.ln1.beta];
        p.extend(self.attn.params_mut());
        p.extend([&mut self.ln2.gamma, &mut self.ln2.beta]);
        p.extend(self.ffn.fc1.params_mut());
        p.extend(self.ffn.fc2.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_graph::generators::{complete_graph, cycle_graph};
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

    /// End to end through attention: dense, and sparse over a cycle mask.
    #[test]
    fn block_gradient_matches_numerical() {
        let cycle = cycle_graph(6).with_self_loops();
        for mode in [AttentionMode::Dense { bias: None }, AttentionMode::Sparse { mask: &cycle, bias: None }] {
            // Dropout 0 in training mode: deterministic, and the forward
            // keeps what backward needs.
            let mut b = TransformerBlock::new(6, 2, 2, 0.0, 5);
            let x = init::normal(6, 6, 0.0, 0.8, 6);
            let w = init::normal(6, 6, 0.0, 1.0, 7);
            let _ = b.forward_ws(&x, &mode, &mut Workspace::new());
            let (dx, _) = b.backward_ws(&w, &mode, false, &mut Workspace::new());
            // Probe via fresh copies (dropout off ⇒ deterministic).
            let numeric = numerical_grad(
                &x,
                |p| {
                    let mut probe = TransformerBlock::new(6, 2, 2, 0.0, 5);
                    probe.set_training(false);
                    let y = probe.forward_ws(p, &mode, &mut Workspace::new());
                    y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
                },
                1e-2,
            );
            assert!(max_abs_diff(&dx, &numeric) < 5e-2, "diff {}", max_abs_diff(&dx, &numeric));
        }
    }

    /// On a complete mask the three exact kernels compute the same block.
    #[test]
    fn dense_flash_sparse_complete_agree() {
        let x = init::normal(9, 8, 0.0, 0.7, 3);
        let mask = complete_graph(9).with_self_loops();
        let mut b = TransformerBlock::new(8, 2, 2, 0.0, 7);
        b.set_training(false);
        let modes = [AttentionMode::Flash, AttentionMode::Sparse { mask: &mask, bias: None }];
        let dense = b.forward_ws(&x, &AttentionMode::Dense { bias: None }, &mut Workspace::new());
        for mode in modes {
            let y = b.forward_ws(&x, &mode, &mut Workspace::new());
            assert!(max_abs_diff(&dense, &y) < 1e-4);
        }
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
