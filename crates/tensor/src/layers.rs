//! Differentiable layers with hand-written backward passes.
//!
//! Every layer's arithmetic lives in a `*_rows` method working on one
//! contiguous run of rows, and each layer has one forward and one backward.
//! [`LayerNorm`], [`Dropout`] and [`FeedForward`] are driven only through
//! those row methods by a caller that fuses several layers (the transformer
//! block), one [`ROW_TILE`] at a time, so each activation is produced and
//! consumed while its tile is in cache; the caller keeps what backward
//! reads. [`Linear`] and [`Relu`], which the GNN baselines and the models'
//! input projections and heads run on whole tensors, also have a
//! `forward_ws → backward_ws` pair that saves its own state. Gradients
//! accumulate into [`Param::grad`].
//!
//! No layer owns an activation-sized buffer of its own: what a forward
//! saves is checked out of the caller's [`Workspace`] and goes back to it
//! when the matching backward has consumed it (or on the next forward, if no
//! backward ran), so a change of row count between steps costs nothing once
//! the arena holds buffers of that size class.

use crate::backend::{self, Backend};
use crate::init;
use crate::ops::{self, LnStats};
use crate::param::Param;
use crate::rng::{derive_seed, rng};
use crate::tensor::Tensor;
use crate::view::{MatRef, TensorView};
use crate::workspace::Workspace;
use torchgt_compat::rng::rngs::SmallRng;
use torchgt_compat::rng::Rng;

/// Rows per tile of the fused row pipelines. Measured on the 2-core
/// AVX-512 host at `[1024, 64]`, FFN inner width 256 (DESIGN.md, "Row-tile
/// pipelines", has the table): at 128 rows the widest tile, `[128, 256]`
/// f32, is 128 KiB — a fwd+bwd tile set fits L2 beside the weights — and
/// each `Backend::gemm` call still amortises its `B`-panel walk.
pub const ROW_TILE: usize = 128;

/// The row tiles `(start, end)` of a `rows`-row tensor, in ascending order.
pub fn row_tiles(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows).step_by(ROW_TILE).map(move |r0| (r0, rows.min(r0 + ROW_TILE)))
}

/// Fully-connected layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix of shape `[in, out]`.
    pub w: Param,
    /// Bias row of shape `[1, out]`.
    pub b: Param,
    saved_x: Option<Tensor>,
}

impl Linear {
    /// Construct with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Self {
            w: Param::new(init::xavier_uniform(in_dim, out_dim, derive_seed(seed, 1))),
            b: Param::new(Tensor::zeros(1, out_dim)),
            saved_x: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// `out = x·W + b` into the contiguous rows of `out`; saves nothing.
    pub fn forward_rows(&self, be: Backend, x: &impl MatRef, out: &mut [f32]) {
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim mismatch");
        ops::matmul_rows(be, x, &self.w.value, out);
        ops::add_bias_rows(be, out, self.b.value.data());
    }

    /// `Wᵀ`, `[out, in]` row-major, in arena scratch: what
    /// [`Linear::backward_rows`] multiplies by. Copied once per backward
    /// pass, so each row tile's `dx = dy·Wᵀ` is a row-major GEMM instead of
    /// `Backend::gemm` re-gathering `W` into panels tile after tile.
    pub fn transposed_ws(&self, ws: &mut Workspace) -> Tensor {
        let mut wt = ws.take_uninit(self.out_dim(), self.in_dim());
        ops::transpose_into(&self.w.value, wt.data_mut());
        wt
    }

    /// Backward of [`Linear::forward_rows`] for the same rows: `dW += xᵀ·dy`
    /// and `db += Σ dy` straight into the gradients, `dx = dy·Wᵀ` into the
    /// contiguous rows of `dx`, with `wt` from [`Linear::transposed_ws`].
    pub fn backward_rows(&mut self, be: Backend, wt: &Tensor, x: &impl MatRef, dy: &impl MatRef, dx: &mut [f32]) {
        assert_eq!(wt.shape(), (self.out_dim(), self.in_dim()), "wt is not Wᵀ");
        self.backward_params_rows(be, x, dy);
        ops::matmul_rows(be, dy, wt, dx);
    }

    /// The parameter half of [`Linear::backward_rows`]: `dW` and `db`, no
    /// input gradient.
    pub fn backward_params_rows(&mut self, be: Backend, x: &impl MatRef, dy: &impl MatRef) {
        ops::matmul_at_acc_rows(be, x, dy, self.w.grad.data_mut());
        ops::col_sum_acc_rows(be, dy, self.b.grad.data_mut());
    }

    /// [`Linear::backward_ws`] without the input gradient — for a layer whose
    /// input is data nobody trains (a model's input projection), where
    /// `dx = dy·Wᵀ` would be a GEMM into a buffer that is never read.
    pub fn backward_params_ws(&mut self, dy: &Tensor, ws: &mut Workspace) {
        let x = self.saved_x.take().expect("Linear backward before forward");
        self.backward_params_rows(backend::active(), &x, dy);
        ws.give(x);
    }

    /// Forward over all rows of `x`, keeping a copy of `x` for backward.
    /// The output belongs to `ws`, as do the returns of every `*_ws` method
    /// here: the caller gives them back once consumed.
    pub fn forward_ws(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        if let Some(stale) = self.saved_x.replace(ws.take_copy(x)) {
            ws.give(stale);
        }
        let mut out = ws.take_uninit(x.rows(), self.out_dim());
        self.forward_rows(backend::active(), x, out.data_mut());
        out
    }

    /// Backward of the last [`Linear::forward_ws`]: `dW`, `db` accumulated,
    /// the input gradient returned.
    pub fn backward_ws(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self.saved_x.take().expect("Linear backward before forward");
        let mut dx = ws.take_uninit(dy.rows(), self.in_dim());
        let wt = self.transposed_ws(ws);
        self.backward_rows(backend::active(), &wt, &x, dy, dx.data_mut());
        ws.give(wt);
        ws.give(x);
        dx
    }

    /// Mutable access to `[W, b]`.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// What one LayerNorm forward keeps for backward, arena-owned: the
/// normalised activations `x̂` (`[rows, dim]`) and one `1/σ` per row.
#[derive(Clone, Debug)]
pub struct LnSaved {
    /// `x̂`.
    pub xhat: Tensor,
    /// `1/σ` per row.
    pub inv_std: Vec<f32>,
}

impl LnSaved {
    /// Check out room for `rows × dim` statistics.
    pub fn take(rows: usize, dim: usize, ws: &mut Workspace) -> Self {
        Self { xhat: ws.take_uninit(rows, dim), inv_std: ws.take_buf(rows) }
    }

    /// Where the forward of rows `[r0, r1)` records its statistics.
    pub fn rows_mut(&mut self, r0: usize, r1: usize) -> LnStats<'_> {
        LnStats { xhat: self.xhat.row_span_mut(r0, r1), inv_std: &mut self.inv_std[r0..r1] }
    }

    /// Return both buffers to the arena.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.give(self.xhat);
        ws.give_buf(self.inv_std);
    }
}

/// Layer normalisation over the last dimension with learnable gain/shift.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Learnable gain `γ` of shape `[1, dim]`.
    pub gamma: Param,
    /// Learnable shift `β` of shape `[1, dim]`.
    pub beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Construct with `γ = 1`, `β = 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(1, dim, 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Normalise the rows of `x` into the contiguous rows of `out`,
    /// recording `stats` when a backward will follow.
    pub fn forward_rows(&self, be: Backend, x: &impl MatRef, out: &mut [f32], stats: Option<LnStats<'_>>) {
        ops::layer_norm_rows(be, x, &self.gamma.value, &self.beta.value, self.eps, out, stats);
    }

    /// The forward output again, from the saved `x̂`.
    pub fn affine_rows(&self, be: Backend, xhat: &impl MatRef, out: &mut [f32]) {
        ops::layer_norm_affine_rows(be, xhat, &self.gamma.value, &self.beta.value, out);
    }

    /// Backward for the rows of `dy`: `dγ`, `dβ` straight into the
    /// gradients, the input gradient into the contiguous rows of `dx`.
    pub fn backward_rows(
        &mut self,
        be: Backend,
        xhat: &impl MatRef,
        inv_std: &[f32],
        dy: &impl MatRef,
        dx: &mut [f32],
    ) {
        let (dgamma, dbeta) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        ops::layer_norm_backward_rows(be, xhat, inv_std, &self.gamma.value, dy, dx, dgamma, dbeta);
    }
}

/// ReLU activation.
///
/// The mask is stored as `1.0`/`0.0` floats rather than bools so backward
/// is a single dispatched element-wise multiply.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    saved_mask: Option<Tensor>,
}

impl Relu {
    /// Construct a ReLU activation layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `max(x, 0)` over all rows of `x`, keeping the mask for backward.
    pub fn forward_ws(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut mask = ws.take_uninit(x.rows(), x.cols());
        for (m, &v) in mask.data_mut().iter_mut().zip(x.data()) {
            *m = if v > 0.0 { 1.0 } else { 0.0 };
        }
        let mut out = ws.take_uninit(x.rows(), x.cols());
        backend::active().mul(x.data(), mask.data(), out.data_mut());
        if let Some(stale) = self.saved_mask.replace(mask) {
            ws.give(stale);
        }
        out
    }

    /// Backward of the last [`Relu::forward_ws`]: `dy` where the input was
    /// positive, `0` elsewhere.
    pub fn backward_ws(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.saved_mask.take().expect("Relu backward before forward");
        assert_eq!(mask.shape(), dy.shape());
        let mut out = ws.take_uninit(dy.rows(), dy.cols());
        backend::active().mul(dy.data(), mask.data(), out.data_mut());
        ws.give(mask);
        out
    }
}

/// Inverted dropout. A probability of `0.0` (or eval mode) is the identity.
#[derive(Clone, Debug)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    /// When false, dropout is a no-op (evaluation mode).
    pub training: bool,
    seed: u64,
    calls: u64,
}

/// The mask stream of one training-mode forward pass (see
/// [`Dropout::begin`]): `SmallRng(seed, calls)` drawn once per element in
/// row-major order, however the rows are handed over.
pub struct DropoutPass {
    rng: SmallRng,
    keep: f32,
    inv_keep: f32,
}

impl DropoutPass {
    /// Draw the next `x.len()` mask entries (`1/keep` or `0`) into `mask`
    /// and write `out = x ⊙ mask`, in one pass.
    pub fn apply(&mut self, x: &[f32], mask: &mut [f32], out: &mut [f32]) {
        assert!(x.len() == mask.len() && x.len() == out.len(), "dropout slice length mismatch");
        let (keep, inv_keep) = (self.keep, self.inv_keep);
        for ((o, m), &v) in out.iter_mut().zip(mask).zip(x) {
            *m = if self.rng.gen::<f32>() < keep { inv_keep } else { 0.0 };
            *o = v * *m;
        }
    }

    /// Draw the next `n` mask entries and discard them: the stream position
    /// of `n` elements nobody reads, so the entries after them are the ones
    /// a pass over every element would draw there.
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.rng.gen::<f32>();
        }
    }
}

impl Dropout {
    /// Construct with drop probability `p` and a seed for mask generation.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        Self { p, training: true, seed, calls: 0 }
    }

    /// How many training-mode forward passes have drawn a mask. Each call
    /// derives a fresh RNG from `(seed, calls)`, so this counter *is* the
    /// layer's PRNG state for snapshot/restore purposes.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Restore the mask-draw counter from a snapshot so the next forward
    /// pass draws the same mask the uninterrupted run would have drawn.
    pub fn set_calls(&mut self, calls: u64) {
        self.calls = calls;
    }

    /// Start one forward pass: `None` when the layer is the identity (eval
    /// mode or `p == 0` — the caller hands its input through untouched),
    /// otherwise the pass's mask stream, with the draw counter advanced.
    pub fn begin(&mut self) -> Option<DropoutPass> {
        if !self.training || self.p == 0.0 {
            return None;
        }
        self.calls += 1;
        let keep = 1.0 - self.p;
        Some(DropoutPass { rng: rng(derive_seed(self.seed, self.calls)), keep, inv_keep: 1.0 / keep })
    }
}

/// Lookup-table embedding: maps index sequences to learnable rows.
///
/// Used for Graphormer's degree ("centrality") encodings, Eq. (2) of the
/// paper.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Table of shape `[vocab, dim]`.
    pub table: Param,
    cached_indices: Option<Vec<usize>>,
}

impl Embedding {
    /// Construct with small Gaussian-initialised rows.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        Self {
            table: Param::new(init::normal(vocab, dim, 0.0, 0.02, derive_seed(seed, 2))),
            cached_indices: None,
        }
    }

    /// Look up a batch of indices (clamped to the table size, which
    /// implements the "max degree bucket" behaviour of Graphormer), drawing
    /// the output from `ws` and recycling the clamped-index cache.
    pub fn forward_indices_ws(&mut self, indices: &[usize], ws: &mut Workspace) -> Tensor {
        let vocab = self.table.value.rows();
        let mut clamped = self.cached_indices.take().unwrap_or_default();
        clamped.clear();
        clamped.extend(indices.iter().map(|&i| i.min(vocab - 1)));
        let mut out = ws.take(indices.len(), self.table.value.cols());
        for (dst, &src) in clamped.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.table.value.row(src));
        }
        self.cached_indices = Some(clamped);
        out
    }

    /// Backward for [`Embedding::forward_indices_ws`], building the scatter
    /// buffer in `ws`.
    pub fn backward_indices_ws(&mut self, dy: &Tensor, ws: &mut Workspace) {
        let idx = self.cached_indices.take().expect("Embedding backward before forward");
        assert_eq!(idx.len(), dy.rows());
        let mut g = ws.take(self.table.value.rows(), self.table.value.cols());
        g.scatter_add_rows(&idx, dy);
        self.table.accumulate(&g);
        ws.give(g);
        self.cached_indices = Some(idx);
    }
}

/// Transformer feed-forward block: `Linear → GELU → Linear` with the
/// conventional 4× (configurable) expansion.
#[derive(Clone, Debug)]
pub struct FeedForward {
    /// Expansion projection.
    pub fc1: Linear,
    /// Contraction projection.
    pub fc2: Linear,
}

impl FeedForward {
    /// Construct with hidden width `dim` and inner width `inner`.
    pub fn new(dim: usize, inner: usize, seed: u64) -> Self {
        Self {
            fc1: Linear::new(dim, inner, derive_seed(seed, 10)),
            fc2: Linear::new(inner, dim, derive_seed(seed, 11)),
        }
    }

    /// Inner (expanded) width.
    pub fn inner_dim(&self) -> usize {
        self.fc1.out_dim()
    }

    /// One run of rows forward: `h = x·W₁ + b₁`, `g = gelu(h)`,
    /// `out = g·W₂ + b₂`, each into its contiguous rows. `h` and `g` are
    /// what [`FeedForward::backward_rows`] reads back; a caller that will
    /// not run backward passes scratch.
    pub fn forward_rows(&self, be: Backend, x: &impl MatRef, h: &mut [f32], g: &mut [f32], out: &mut [f32]) {
        let inner = self.inner_dim();
        self.fc1.forward_rows(be, x, h);
        ops::gelu_rows(be, &TensorView::contiguous(h, inner), g);
        self.fc2.forward_rows(be, &TensorView::contiguous(g, inner), out);
    }

    /// Check out what one backward pass needs besides the saved activations.
    pub fn backward_scratch(&self, ws: &mut Workspace) -> FfnScratch {
        let inner = self.inner_dim();
        FfnScratch {
            w1t: self.fc1.transposed_ws(ws),
            w2t: self.fc2.transposed_ws(ws),
            dg: ws.take_uninit(ROW_TILE, inner),
            dh: ws.take_uninit(ROW_TILE, inner),
        }
    }

    /// Backward of [`FeedForward::forward_rows`] for the same rows (at most
    /// [`ROW_TILE`] of them); the input gradient goes into the contiguous
    /// rows of `dx`.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_rows(
        &mut self,
        be: Backend,
        scratch: &mut FfnScratch,
        x: &impl MatRef,
        h: &impl MatRef,
        g: &impl MatRef,
        dy: &impl MatRef,
        dx: &mut [f32],
    ) {
        let FfnScratch { w1t, w2t, dg, dh } = scratch;
        let (n, inner) = (dy.rows(), self.inner_dim());
        let (dg, dh) = (dg.row_span_mut(0, n), dh.row_span_mut(0, n));
        self.fc2.backward_rows(be, w2t, g, dy, dg);
        ops::gelu_backward_rows(be, h, &TensorView::contiguous(dg, inner), dh);
        self.fc1.backward_rows(be, w1t, x, &TensorView::contiguous(dh, inner), dx);
    }
}

/// Arena scratch of one [`FeedForward`] backward pass: both weights
/// transposed once ([`Linear::transposed_ws`]) and the two `[ROW_TILE,
/// inner]` activation-gradient tiles that every row tile overwrites.
#[derive(Debug)]
pub struct FfnScratch {
    w1t: Tensor,
    w2t: Tensor,
    dg: Tensor,
    dh: Tensor,
}

impl FfnScratch {
    /// Return the buffers to the arena.
    pub fn recycle(self, ws: &mut Workspace) {
        for t in [self.w1t, self.w2t, self.dg, self.dh] {
            ws.give(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_abs_diff, numerical_grad};

    fn sample_input() -> Tensor {
        init::normal(4, 6, 0.0, 1.0, 99)
    }

    /// Scalar loss used by the gradient checks: weighted sum of outputs.
    fn loss_weights(rows: usize, cols: usize) -> Tensor {
        init::normal(rows, cols, 0.0, 1.0, 123)
    }

    fn weighted_sum(y: &Tensor, w: &Tensor) -> f32 {
        y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
    }

    /// `FeedForward` forward over every row of `x`, a [`ROW_TILE`] at a
    /// time as the transformer block drives it, every buffer from `ws`:
    /// `(out, h, g)`.
    fn ffn_forward(ffn: &FeedForward, x: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor, Tensor) {
        let (rows, inner, be) = (x.rows(), ffn.inner_dim(), backend::active());
        let (mut h, mut g) = (ws.take_uninit(rows, inner), ws.take_uninit(rows, inner));
        let mut out = ws.take_uninit(rows, ffn.fc2.out_dim());
        for (r0, r1) in row_tiles(rows) {
            let (h_rows, g_rows) = (h.row_span_mut(r0, r1), g.row_span_mut(r0, r1));
            ffn.forward_rows(be, &x.view_rows(r0, r1), h_rows, g_rows, out.row_span_mut(r0, r1));
        }
        (out, h, g)
    }

    /// [`ffn_forward`], then the backward of `dy` tile by tile: `(out, dx)`.
    fn ffn_pass(ffn: &mut FeedForward, x: &Tensor, dy: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
        let (out, h, g) = ffn_forward(ffn, x, ws);
        let be = backend::active();
        let mut scratch = ffn.backward_scratch(ws);
        let mut dx = ws.take_uninit(x.rows(), ffn.fc1.in_dim());
        for (r0, r1) in row_tiles(x.rows()) {
            let (x, h, g, dy) = (x.view_rows(r0, r1), h.view_rows(r0, r1), g.view_rows(r0, r1), dy.view_rows(r0, r1));
            ffn.backward_rows(be, &mut scratch, &x, &h, &g, &dy, dx.row_span_mut(r0, r1));
        }
        scratch.recycle(ws);
        ws.give(h);
        ws.give(g);
        (out, dx)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut l = Linear::new(6, 3, 7);
        l.b.value = Tensor::row_vector(vec![1.0, 2.0, 3.0]);
        let y = l.forward_ws(&Tensor::zeros(2, 6), &mut Workspace::new());
        assert_eq!(y.shape(), (2, 3));
        assert_eq!(y.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn linear_input_grad_matches_numerical() {
        let mut l = Linear::new(6, 3, 7);
        let x = sample_input();
        let w = loss_weights(4, 3);
        let _ = l.forward_ws(&x, &mut Workspace::new());
        let dx = l.backward_ws(&w, &mut Workspace::new());
        let mut probe_layer = l.clone();
        let numeric =
            numerical_grad(&x, |p| weighted_sum(&probe_layer.forward_ws(p, &mut Workspace::new()), &w), 1e-2);
        assert!(max_abs_diff(&dx, &numeric) < 1e-2);
    }

    #[test]
    fn linear_weight_grad_matches_numerical() {
        let mut l = Linear::new(5, 2, 3);
        let x = init::normal(3, 5, 0.0, 1.0, 5);
        let w = loss_weights(3, 2);
        let _ = l.forward_ws(&x, &mut Workspace::new());
        let _ = l.backward_ws(&w, &mut Workspace::new());
        let analytic = l.w.grad.clone();
        let l0 = l.clone();
        let numeric = numerical_grad(
            &l.w.value,
            |probe_w| {
                let mut tmp = l0.clone();
                tmp.w.value = probe_w.clone();
                weighted_sum(&tmp.forward_ws(&x, &mut Workspace::new()), &w)
            },
            1e-2,
        );
        assert!(max_abs_diff(&analytic, &numeric) < 1e-2);
    }

    #[test]
    fn linear_params_only_backward_leaves_the_same_gradients_bit_for_bit() {
        let x = init::normal(37, 5, 0.0, 1.0, 5);
        let dy = loss_weights(37, 2);
        let (mut full, mut params_only) = (Linear::new(5, 2, 3), Linear::new(5, 2, 3));
        let mut ws = Workspace::new();
        for _ in 0..2 {
            // Twice: the gradients accumulate identically too.
            let _ = full.forward_ws(&x, &mut ws);
            let _ = full.backward_ws(&dy, &mut ws);
            let _ = params_only.forward_ws(&x, &mut ws);
            params_only.backward_params_ws(&dy, &mut ws);
        }
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&full.w.grad), bits(&params_only.w.grad));
        assert_eq!(bits(&full.b.grad), bits(&params_only.b.grad));
    }

    #[test]
    fn layernorm_output_is_normalised() {
        let ln = LayerNorm::new(6);
        let mut y = Tensor::zeros(4, 6);
        ln.forward_rows(backend::active(), &sample_input(), y.data_mut(), None);
        for r in 0..y.rows() {
            let mean = y.row(r).iter().sum::<f32>() / 6.0;
            let var = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_input_grad_matches_numerical() {
        let mut ln = LayerNorm::new(6);
        ln.gamma.value = init::normal(1, 6, 1.0, 0.2, 4);
        ln.beta.value = init::normal(1, 6, 0.0, 0.2, 5);
        let (x, w, be) = (sample_input(), loss_weights(4, 6), backend::active());
        let mut saved = LnSaved::take(4, 6, &mut Workspace::new());
        let (mut y, mut dx) = (Tensor::zeros(4, 6), Tensor::zeros(4, 6));
        ln.forward_rows(be, &x, y.data_mut(), Some(saved.rows_mut(0, 4)));
        ln.backward_rows(be, &saved.xhat, &saved.inv_std, &w, dx.data_mut());
        let numeric = numerical_grad(
            &x,
            |p| {
                ln.forward_rows(be, p, y.data_mut(), None);
                weighted_sum(&y, &w)
            },
            1e-2,
        );
        assert!(max_abs_diff(&dx, &numeric) < 2e-2);
    }

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor::full(1, 4, 1.0);
        let dx = r.backward_ws(&dy, &mut Workspace::new());
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    /// Eval mode, or `p = 0`, is the identity: no pass begins, so the
    /// caller hands its input through, and no mask is drawn.
    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        d.training = false;
        assert!(d.begin().is_none());
        assert!(Dropout::new(0.0, 1).begin().is_none());
        assert_eq!(d.calls(), 0);
    }

    #[test]
    fn dropout_preserves_expected_value() {
        let mut d = Dropout::new(0.3, 42);
        let x = Tensor::full(100, 100, 1.0);
        let (mut y, mut mask) = (Tensor::zeros(100, 100), Tensor::zeros(100, 100));
        d.begin().expect("training mode, p > 0").apply(x.data(), mask.data_mut(), y.data_mut());
        // E[y] = 1 with inverted dropout; the sample mean should be close.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Backward multiplies by the same mask.
        let dy = Tensor::full(100, 100, 1.0);
        let mut dx = Tensor::zeros(100, 100);
        backend::active().mul(dy.data(), mask.data(), dx.data_mut());
        assert_eq!(dx.data(), y.data());
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let mut e = Embedding::new(10, 4, 8);
        let out = e.forward_indices_ws(&[3, 3, 7], &mut Workspace::new());
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(out.row(0), out.row(1));
        let dy = Tensor::full(3, 4, 1.0);
        e.backward_indices_ws(&dy, &mut Workspace::new());
        // Row 3 got two contributions, row 7 one, everything else zero.
        assert_eq!(e.table.grad.row(3), &[2.0; 4]);
        assert_eq!(e.table.grad.row(7), &[1.0; 4]);
        assert_eq!(e.table.grad.row(0), &[0.0; 4]);
    }

    #[test]
    fn embedding_clamps_out_of_range() {
        let mut e = Embedding::new(4, 2, 8);
        let out = e.forward_indices_ws(&[100], &mut Workspace::new());
        assert_eq!(out.row(0), e.table.value.row(3));
    }

    #[test]
    fn feedforward_grad_matches_numerical() {
        let mut ff = FeedForward::new(6, 12, 21);
        let x = sample_input();
        let w = loss_weights(4, 6);
        let (_, dx) = ffn_pass(&mut ff, &x, &w, &mut Workspace::new());
        let numeric = numerical_grad(&x, |p| weighted_sum(&ffn_forward(&ff, p, &mut Workspace::new()).0, &w), 1e-2);
        assert!(max_abs_diff(&dx, &numeric) < 2e-2);
    }

    #[test]
    fn dirty_shared_arena_matches_fresh_arenas_bitwise() {
        let x = sample_input();
        let dy = loss_weights(4, 6);
        let mut ws = Workspace::new();
        // Pre-dirty the arena so reuse (not fresh zeros) is exercised.
        for (rows, cols) in [(4, 6), (4, 12), (ROW_TILE, 12), (12, 6)] {
            let mut d = ws.take(rows, cols);
            d.data_mut().fill(f32::NAN);
            ws.give(d);
        }
        let mut a = FeedForward::new(6, 12, 77);
        let mut b = a.clone();
        let (ya, dxa) = ffn_pass(&mut a, &x, &dy, &mut Workspace::new());
        let (yb, dxb) = ffn_pass(&mut b, &x, &dy, &mut ws);
        assert_eq!(ya.data(), yb.data());
        assert_eq!(dxa.data(), dxb.data());
        assert_eq!(a.fc1.w.grad.data(), b.fc1.w.grad.data());
        assert_eq!(a.fc2.b.grad.data(), b.fc2.b.grad.data());
    }

    /// The single-pass dropout draws the stream the two-pass one drew:
    /// the whole mask from `SmallRng(seed, calls)` in row-major order, then
    /// a multiply — however the rows are cut into `apply` calls, and for
    /// every layer built with the same seed.
    #[test]
    fn dropout_single_pass_matches_mask_then_multiply() {
        let x = init::normal(7, 5, 0.0, 1.0, 3);
        let (p, seed) = (0.3f32, 11u64);
        let mut whole = Dropout::new(p, seed);
        let mut tiled = Dropout::new(p, seed);
        for call in 1..=3u64 {
            let mut r = rng(derive_seed(seed, call));
            let (keep, inv_keep) = (1.0 - p, 1.0 / (1.0 - p));
            let mask: Vec<f32> =
                (0..x.len()).map(|_| if r.gen::<f32>() < keep { inv_keep } else { 0.0 }).collect();
            let mut want = vec![0.0; x.len()];
            backend::active().mul(x.data(), &mask, &mut want);
            // Every row in one call.
            let (mut got, mut got_mask) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            whole.begin().expect("training mode, p > 0").apply(x.data(), &mut got_mask, &mut got);
            assert_eq!((&got, &got_mask), (&want, &mask));
            // Rows handed over two, then five, at a time.
            let mut pass = tiled.begin().expect("training mode, p > 0");
            let (mut got, mut got_mask) = (vec![0.0; x.len()], vec![0.0; x.len()]);
            let cut = 2 * x.cols();
            pass.apply(&x.data()[..cut], &mut got_mask[..cut], &mut got[..cut]);
            pass.apply(&x.data()[cut..], &mut got_mask[cut..], &mut got[cut..]);
            assert_eq!(got, want);
            assert_eq!(got_mask, mask);
        }
        assert_eq!((whole.calls(), tiled.calls()), (3, 3));
    }

    /// `FeedForward` runs its rows a tile at a time and accumulates weight
    /// gradients tile by tile; two stand-alone `Linear`s around the
    /// whole-tensor GELU kernels must agree to the bit on either side of the
    /// tile boundaries.
    #[test]
    fn tiled_feedforward_matches_whole_tensor_layers_bitwise() {
        for rows in [1, ROW_TILE - 1, ROW_TILE, ROW_TILE + 1, 2 * ROW_TILE + 7] {
            let x = init::normal(rows, 6, 0.0, 1.0, 31);
            let dy = init::normal(rows, 6, 0.0, 1.0, 32);
            let mut ffn = FeedForward::new(6, 12, 77);
            let (mut fc1, mut fc2) = (ffn.fc1.clone(), ffn.fc2.clone());
            let ws = &mut Workspace::new();
            let h = fc1.forward_ws(&x, ws);
            let (mut g, mut dh) = (Tensor::zeros(rows, 12), Tensor::zeros(rows, 12));
            ops::gelu_into(&h, &mut g);
            let want_y = fc2.forward_ws(&g, ws);
            let dg = fc2.backward_ws(&dy, ws);
            ops::gelu_backward_into(&h, &dg, &mut dh);
            let want_dx = fc1.backward_ws(&dh, ws);
            let (y, dx) = ffn_pass(&mut ffn, &x, &dy, ws);
            assert_eq!(y.data(), want_y.data(), "rows {rows}");
            assert_eq!(dx.data(), want_dx.data(), "rows {rows}");
            let got = ffn.fc1.params_mut().into_iter().chain(ffn.fc2.params_mut());
            for (got, want) in got.zip([&fc1.w, &fc1.b, &fc2.w, &fc2.b]) {
                assert_eq!(got.grad.data(), want.grad.data(), "rows {rows}");
            }
        }
    }

    #[test]
    fn param_counts() {
        let mut ff = FeedForward::new(8, 32, 0);
        let n: usize = ff.fc1.params_mut().into_iter().chain(ff.fc2.params_mut()).map(|p| p.len()).sum();
        // fc1: 8*32 + 32, fc2: 32*8 + 8
        assert_eq!(n, 8 * 32 + 32 + 32 * 8 + 8);
    }
}
