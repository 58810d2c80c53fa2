//! Free-standing tensor operations.
//!
//! Every operation comes in two forms: an `_into` kernel that writes a
//! caller-provided output tensor (the allocation-free hot path, fed by
//! [`crate::workspace::Workspace`] buffers and accepting borrowed
//! [`MatRef`] views), and a thin allocating wrapper with the original name
//! that zero-allocates an output and delegates. In-place variants carry an
//! `_inplace` suffix. The three matmuls are one call each into the
//! register-blocked [`Backend::gemm`]; large ones are parallelised over
//! slabs of output rows.
//!
//! Under the `_into` kernels sit the **row-slice kernels** (`_rows`): the
//! same arithmetic with the output given as a `&mut [f32]` of whole
//! contiguous rows, so a caller can run an op over one row tile of a larger
//! tensor ([`Tensor::view_rows`] in, [`Tensor::row_span_mut`] out) while that
//! tile is still in cache. Each `_into` kernel is its `_rows` kernel over
//! all rows, so tiled ≡ whole to the bit: no `_rows` kernel reads across
//! rows except the two accumulating ones ([`matmul_at_acc_rows`],
//! [`col_sum_acc_rows`]), whose per-element chains simply continue, in
//! ascending row order, from what the accumulator already holds. The
//! element-wise ones (LayerNorm, bias, GELU) are one dispatched backend
//! call per tile (`Backend::*_rows` over a strided [`Rows`] tile), not one
//! per row.
//!
//! The `_into` kernels fully define the output (accumulating kernels zero
//! their rows first), so dirty recycled buffers are safe, and they do not
//! skip zero multiplicands — `0 · NaN` propagates as NaN instead of being
//! silently swallowed.

use crate::backend::{self, Backend, Gemm, Rows, Strided};
use crate::tensor::Tensor;
use crate::view::MatRef;
use torchgt_compat::par::{self, prelude::*};

/// Element count above which the row-wise softmax kernels go parallel.
const PAR_THRESHOLD: usize = 16 * 1024;

/// Multiply-adds (`m·n·k`) above which a matmul is split across threads.
/// The thread shim spawns scoped threads per call (≈ 70 µs for two), so a
/// split only pays once each half is worth more than that: measured on the
/// 2-core AVX-512 host, `[1024×64]·[64×64]` (4 M multiply-adds, ≈ 0.1 ms)
/// ran 1.6× slower split in two and `[1024×64]·[64×256]` (17 M) 1.3× faster.
const PAR_MIN_MACS: usize = 8 << 20;

/// `C (+)= A·B` through [`Backend::gemm`], `C` being the `m × n` contiguous
/// rows of `c` and `A` `m × k` at its own strides. Above [`PAR_MIN_MACS`] the
/// output rows are split into one slab of whole `MR`-row panels per worker;
/// every output element is a function of its own row of `A` and column of
/// `B` only, so the slabbing never changes a bit.
fn gemm_rows(
    be: Backend,
    a: Strided<'_>,
    k: usize,
    b: Strided<'_>,
    n: usize,
    accumulate: bool,
    c: &mut [f32],
) {
    if n == 0 || c.is_empty() {
        return;
    }
    let m = c.len() / n;
    let whole = Gemm { m, n, k, a, b, ldc: n, accumulate };
    let workers = if m * n * k >= PAR_MIN_MACS { par::worker_count() } else { 1 };
    if workers == 1 {
        return be.gemm(&whole, c);
    }
    let mr = be.gemm_tile_shape().0;
    let slab = m.div_ceil(workers).next_multiple_of(mr);
    c.par_chunks_mut(slab * n).enumerate().for_each(|(t, c)| {
        be.gemm(&Gemm { m: c.len() / n, a: a.from_row(t * slab), ..whole }, c);
    });
}

/// `out = A · B` into the `a.rows × b.cols` contiguous rows of `out`.
pub fn matmul_rows(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut [f32]) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.len(), a.rows() * b.cols(), "matmul_rows output shape mismatch");
    let ((ad, lda), (bd, ldb)) = (a.strided(), b.strided());
    gemm_rows(be, Strided::row_major(ad, lda), a.cols(), Strided::row_major(bd, ldb), b.cols(), false, out);
}

/// `out += Aᵀ · B` into the `a.cols × b.cols` contiguous rows of `out`: each
/// element's chain continues from the value already there, over the rows of
/// `A` and `B` in ascending order. Fed successive row tiles of `A` and `B`,
/// the result equals one product over all their rows, to the bit.
pub fn matmul_at_acc_rows(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut [f32]) {
    assert_eq!(a.rows(), b.rows(), "matmul_at inner dimension mismatch");
    assert_eq!(out.len(), a.cols() * b.cols(), "matmul_at_acc_rows output shape mismatch");
    let ((ad, lda), (bd, ldb)) = (a.strided(), b.strided());
    gemm_rows(be, Strided::transposed(ad, lda), a.rows(), Strided::row_major(bd, ldb), b.cols(), true, out);
}

/// `out = A · B`. Fully overwrites `out`, which must be `a.rows × b.cols`.
pub fn matmul_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    matmul_into_with(backend::active(), a, b, out);
}

/// [`matmul_into`] on an explicit [`Backend`] (parity harness entry point).
///
/// Every output element accumulates over `p` in ascending order; SIMD
/// backends fuse each multiply-add (FMA), so parity with scalar is
/// **ULP-bounded** (see DESIGN.md for the bound).
pub fn matmul_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.shape(), (a.rows(), b.cols()), "matmul_into output shape mismatch");
    matmul_rows(be, a, b, out.data_mut());
}

/// `C = A · B`.
pub fn matmul(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.cols());
    matmul_into(a, b, &mut out);
    out
}

/// `out = A · Bᵀ` without materialising the transpose. Fully overwrites
/// `out`, which must be `a.rows × b.rows`.
pub fn matmul_bt_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    matmul_bt_into_with(backend::active(), a, b, out);
}

/// [`matmul_bt_into`] on an explicit [`Backend`] (parity harness entry
/// point).
///
/// Each output element is a length-`k` dot product accumulated in ascending
/// `p`; SIMD backends fuse each multiply-add (FMA), so parity with scalar is
/// **ULP-bounded**, not bit-exact (see DESIGN.md for the bound).
pub fn matmul_bt_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt inner dimension mismatch");
    assert_eq!(out.shape(), (a.rows(), b.rows()), "matmul_bt_into output shape mismatch");
    let ((ad, lda), (bd, ldb)) = (a.strided(), b.strided());
    gemm_rows(be, Strided::row_major(ad, lda), a.cols(), Strided::transposed(bd, ldb), b.rows(), false, out.data_mut());
}

/// `C = A · Bᵀ` without materialising the transpose.
pub fn matmul_bt(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), b.rows());
    matmul_bt_into(a, b, &mut out);
    out
}

/// `out = Aᵀ · B` without materialising the transpose. Fully overwrites
/// `out`, which must be `a.cols × b.cols`.
pub fn matmul_at_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    matmul_at_into_with(backend::active(), a, b, out);
}

/// [`matmul_at_into`] on an explicit [`Backend`] (parity harness entry
/// point). Same accumulation and parity class as [`matmul_into_with`].
pub fn matmul_at_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.rows(), b.rows(), "matmul_at inner dimension mismatch");
    assert_eq!(out.shape(), (a.cols(), b.cols()), "matmul_at_into output shape mismatch");
    let ((ad, lda), (bd, ldb)) = (a.strided(), b.strided());
    gemm_rows(be, Strided::transposed(ad, lda), a.rows(), Strided::row_major(bd, ldb), b.cols(), false, out.data_mut());
}

/// `C = Aᵀ · B` without materialising the transpose.
pub fn matmul_at(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), b.cols());
    matmul_at_into(a, b, &mut out);
    out
}

/// `out = aᵀ`, row-major, into the `a.cols × a.rows` floats of `out`.
pub(crate) fn transpose_into(a: &Tensor, out: &mut [f32]) {
    let m = a.rows();
    assert_eq!(out.len(), a.len(), "transpose_into output shape mismatch");
    for r in 0..m {
        for (c, &v) in a.row(r).iter().enumerate() {
            out[c * m + r] = v;
        }
    }
}

/// Explicit transpose.
pub fn transpose(a: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.cols(), a.rows());
    transpose_into(a, out.data_mut());
    out
}

/// `out = a + b` element-wise.
pub fn add_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    add_into_with(backend::active(), a, b, out);
}

/// [`add_into`] on an explicit [`Backend`] — bit-identical across backends.
pub fn add_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape());
    assert_eq!(out.shape(), a.shape(), "add_into output shape mismatch");
    for r in 0..a.rows() {
        be.add(a.row(r), b.row(r), out.row_mut(r));
    }
}

/// Element-wise `a + b`.
pub fn add(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), a.cols());
    add_into(a, b, &mut out);
    out
}

/// `out = a - b` element-wise.
pub fn sub_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    sub_into_with(backend::active(), a, b, out);
}

/// [`sub_into`] on an explicit [`Backend`] — bit-identical across backends.
pub fn sub_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape());
    assert_eq!(out.shape(), a.shape(), "sub_into output shape mismatch");
    for r in 0..a.rows() {
        be.sub(a.row(r), b.row(r), out.row_mut(r));
    }
}

/// Element-wise `a - b`.
pub fn sub(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), a.cols());
    sub_into(a, b, &mut out);
    out
}

/// `out = a ⊙ b` element-wise.
pub fn mul_into(a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    mul_into_with(backend::active(), a, b, out);
}

/// [`mul_into`] on an explicit [`Backend`] — bit-identical across backends.
pub fn mul_into_with(be: Backend, a: &impl MatRef, b: &impl MatRef, out: &mut Tensor) {
    assert_eq!(a.shape(), b.shape());
    assert_eq!(out.shape(), a.shape(), "mul_into output shape mismatch");
    for r in 0..a.rows() {
        be.mul(a.row(r), b.row(r), out.row_mut(r));
    }
}

/// Element-wise `a * b` (Hadamard product).
pub fn mul(a: &impl MatRef, b: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), a.cols());
    mul_into(a, b, &mut out);
    out
}

/// `a += b` in place. `b` may be a borrowed view.
pub fn add_inplace(a: &mut Tensor, b: &impl MatRef) {
    assert_eq!(a.shape(), b.shape());
    let be = backend::active();
    for r in 0..b.rows() {
        be.add_assign(a.row_mut(r), b.row(r));
    }
}

/// `out = s * a`.
pub fn scale_into(a: &impl MatRef, s: f32, out: &mut Tensor) {
    scale_into_with(backend::active(), a, s, out);
}

/// [`scale_into`] on an explicit [`Backend`] — bit-identical across
/// backends.
pub fn scale_into_with(be: Backend, a: &impl MatRef, s: f32, out: &mut Tensor) {
    assert_eq!(out.shape(), a.shape(), "scale_into output shape mismatch");
    for r in 0..a.rows() {
        be.scale(a.row(r), s, out.row_mut(r));
    }
}

/// Scale by a constant.
pub fn scale(a: &impl MatRef, s: f32) -> Tensor {
    let mut out = Tensor::zeros(a.rows(), a.cols());
    scale_into(a, s, &mut out);
    out
}

/// Scale in place.
pub fn scale_inplace(a: &mut Tensor, s: f32) {
    backend::active().scale_assign(a.data_mut(), s);
}

/// Copy `a` into `out` (shapes must match).
pub fn copy_into(a: &impl MatRef, out: &mut Tensor) {
    assert_eq!(out.shape(), a.shape(), "copy_into output shape mismatch");
    for r in 0..a.rows() {
        out.row_mut(r).copy_from_slice(a.row(r));
    }
}

/// Broadcast-add a `1 × n` row vector to every row of `a`, in place.
pub fn add_row_broadcast_inplace(a: &mut Tensor, row: &Tensor) {
    assert_eq!(row.rows(), 1);
    assert_eq!(row.cols(), a.cols());
    add_bias_rows(backend::active(), a.data_mut(), row.data());
}

/// `row += bias` for every `bias.len()`-wide row of `rows`.
pub fn add_bias_rows(be: Backend, rows: &mut [f32], bias: &[f32]) {
    be.add_bias_rows(rows, bias);
}

/// The rows of `m` as the backend's row tiles read them.
fn rows_of(m: &impl MatRef) -> Rows<'_> {
    let (data, ld) = m.strided();
    Rows { data, rows: m.rows(), cols: m.cols(), ld }
}

/// The per-row numerically-stable softmax update shared by all softmax
/// entry points: subtract the max, exponentiate, normalise.
///
/// Non-finite rows get defined semantics on every backend instead of the
/// historic NaN garbage (`+∞ − +∞ = NaN` used to poison the row and skip
/// normalisation):
///
/// * any NaN entry → the whole row is NaN (gradient poison propagates);
/// * max is `+∞` → probability mass is split uniformly over the `+∞`
///   entries, everything else gets `0` (the limit of the finite case);
/// * max is `-∞` (all entries `-∞`, e.g. a fully masked row) → all zeros;
/// * `-∞` entries under a finite max → `exp(-∞) = 0`, the masked-logit
///   convention.
pub(crate) fn softmax_row_with(be: Backend, row: &mut [f32]) {
    let max = be.max_ignore_nan(row);
    if max == f32::INFINITY || max == f32::NEG_INFINITY {
        // Cold paths: ±Inf rows are rare, handle them scalar.
        if row.iter().any(|v| v.is_nan()) {
            row.fill(f32::NAN);
        } else if max == f32::INFINITY {
            let count = row.iter().filter(|v| **v == f32::INFINITY).count() as f32;
            for v in row.iter_mut() {
                *v = if *v == f32::INFINITY { 1.0 / count } else { 0.0 };
            }
        } else {
            row.fill(0.0);
        }
        return;
    }
    let sum = be.exp_minus_max_sum(row, max);
    if sum.is_nan() {
        // A NaN entry under a finite max: exp kept it NaN, define the row.
        row.fill(f32::NAN);
    } else if sum > 0.0 {
        be.div_assign(row, sum);
    }
}

/// Row-wise softmax of `a` written into `out` (same shape).
pub fn row_softmax_into(a: &impl MatRef, out: &mut Tensor) {
    row_softmax_into_with(backend::active(), a, out);
}

/// [`row_softmax_into`] on an explicit [`Backend`] (parity harness entry
/// point). The max/normalise steps are exact; the exponentiation uses a
/// polynomial on SIMD backends, so parity with scalar is **ULP-bounded**.
pub fn row_softmax_into_with(be: Backend, a: &impl MatRef, out: &mut Tensor) {
    assert_eq!(out.shape(), a.shape(), "row_softmax_into output shape mismatch");
    let (rows, cols) = a.shape();
    let apply = |(r, row): (usize, &mut [f32])| {
        row.copy_from_slice(a.row(r));
        softmax_row_with(be, row);
    };
    if rows * cols >= PAR_THRESHOLD {
        out.data_mut().par_chunks_mut(cols.max(1)).enumerate().for_each(apply);
    } else {
        out.data_mut().chunks_mut(cols.max(1)).enumerate().for_each(apply);
    }
}

/// Row-wise softmax in place.
pub fn row_softmax_inplace(a: &mut Tensor) {
    let be = backend::active();
    let cols = a.cols();
    if a.len() >= PAR_THRESHOLD {
        a.data_mut().par_chunks_mut(cols.max(1)).for_each(|row| softmax_row_with(be, row));
    } else {
        a.data_mut().chunks_mut(cols.max(1)).for_each(|row| softmax_row_with(be, row));
    }
}

/// Row-wise numerically-stable softmax.
pub fn row_softmax(a: &Tensor) -> Tensor {
    let mut out = a.clone();
    row_softmax_inplace(&mut out);
    out
}

/// Backward of row-wise softmax written into `out`: given `y = softmax(x)`
/// and `dL/dy`, computes `dL/dx = y ⊙ (dy - rowsum(dy ⊙ y))`.
pub fn row_softmax_backward_into(y: &impl MatRef, dy: &impl MatRef, out: &mut Tensor) {
    assert_eq!(y.shape(), dy.shape());
    assert_eq!(out.shape(), y.shape(), "row_softmax_backward_into shape mismatch");
    let be = backend::active();
    for r in 0..y.rows() {
        let yr = y.row(r);
        let dyr = dy.row(r);
        let dot = be.dot(yr, dyr);
        for (c, o) in out.row_mut(r).iter_mut().enumerate() {
            *o = yr[c] * (dyr[c] - dot);
        }
    }
}

/// Sum each column of `a` into the `1 × n` row vector `out`.
pub fn col_sum_into(a: &impl MatRef, out: &mut Tensor) {
    assert_eq!(out.shape(), (1, a.cols()), "col_sum_into output shape mismatch");
    out.fill_zero();
    col_sum_acc_rows(backend::active(), a, out.data_mut());
}

/// `acc += Σ rows of a`, one row at a time in ascending order (the bias
/// gradient; see [`matmul_at_acc_rows`] for why tiles compose).
pub fn col_sum_acc_rows(be: Backend, a: &impl MatRef, acc: &mut [f32]) {
    assert_eq!(acc.len(), a.cols(), "col_sum_acc_rows accumulator width mismatch");
    be.col_sum_rows(rows_of(a), acc);
}

/// Sum each column into a `1 × n` row vector (used for bias gradients).
pub fn col_sum(a: &impl MatRef) -> Tensor {
    let mut out = Tensor::zeros(1, a.cols());
    col_sum_into(a, &mut out);
    out
}

/// GELU (tanh approximation) written into `out` (same shape). The last
/// allocating straggler of the block forward path, now an `_into` kernel.
pub fn gelu_into(x: &impl MatRef, out: &mut Tensor) {
    gelu_into_with(backend::active(), x, out);
}

/// [`gelu_into`] on an explicit [`Backend`] (parity harness entry point).
/// SIMD backends use a polynomial `tanh`, so parity is **ULP-bounded**.
pub fn gelu_into_with(be: Backend, x: &impl MatRef, out: &mut Tensor) {
    assert_eq!(out.shape(), x.shape(), "gelu_into output shape mismatch");
    gelu_rows(be, x, out.data_mut());
}

/// GELU of `x` into the contiguous rows of `out`.
pub fn gelu_rows(be: Backend, x: &impl MatRef, out: &mut [f32]) {
    assert_eq!(out.len(), x.rows() * x.cols(), "gelu_rows output shape mismatch");
    be.gelu_rows(rows_of(x), out);
}

/// GELU backward: `out = gelu'(x) ⊙ dy` (same shapes).
pub fn gelu_backward_into(x: &impl MatRef, dy: &impl MatRef, out: &mut Tensor) {
    gelu_backward_into_with(backend::active(), x, dy, out);
}

/// [`gelu_backward_into`] on an explicit [`Backend`].
pub fn gelu_backward_into_with(be: Backend, x: &impl MatRef, dy: &impl MatRef, out: &mut Tensor) {
    assert_eq!(x.shape(), dy.shape());
    assert_eq!(out.shape(), x.shape(), "gelu_backward_into output shape mismatch");
    gelu_backward_rows(be, x, dy, out.data_mut());
}

/// `gelu'(x) ⊙ dy` into the contiguous rows of `out`.
pub fn gelu_backward_rows(be: Backend, x: &impl MatRef, dy: &impl MatRef, out: &mut [f32]) {
    assert_eq!(x.shape(), dy.shape());
    assert_eq!(out.len(), x.rows() * x.cols(), "gelu_backward_rows output shape mismatch");
    be.gelu_grad_rows(rows_of(x), rows_of(dy), out);
}

/// Layer normalisation over the last dimension written into `out`:
/// `out = (x - μ) / √(σ² + eps) · γ + β` with `γ`, `β` as `1 × n` rows.
pub fn layer_norm_into(x: &impl MatRef, gamma: &Tensor, beta: &Tensor, eps: f32, out: &mut Tensor) {
    layer_norm_into_with(backend::active(), x, gamma, beta, eps, out);
}

/// [`layer_norm_into`] on an explicit [`Backend`]. The normalise/affine
/// steps are bit-exact; the mean/variance reductions are **ULP-bounded**
/// on SIMD backends.
pub fn layer_norm_into_with(
    be: Backend,
    x: &impl MatRef,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    out: &mut Tensor,
) {
    assert_eq!(out.shape(), x.shape(), "layer_norm_into output shape mismatch");
    layer_norm_rows(be, x, gamma, beta, eps, out.data_mut(), None);
}

/// Where [`layer_norm_rows`] records what a training forward keeps for
/// backward: the normalised activations `x̂` (contiguous rows, shaped like
/// the output) and one `1/σ` per row.
pub struct LnStats<'a> {
    /// `x̂`, fully overwritten.
    pub xhat: &'a mut [f32],
    /// `1/σ` per row, fully overwritten.
    pub inv_std: &'a mut [f32],
}

/// Layer normalisation of the rows of `x` into the contiguous rows of
/// `out`, optionally recording [`LnStats`]. With and without stats the
/// output is the same to the bit (`x̂·γ` is one rounded multiply either way).
pub fn layer_norm_rows(
    be: Backend,
    x: &impl MatRef,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    out: &mut [f32],
    stats: Option<LnStats<'_>>,
) {
    let (rows, cols) = x.shape();
    assert_eq!(gamma.shape(), (1, cols), "layer_norm gamma shape mismatch");
    assert_eq!(beta.shape(), (1, cols), "layer_norm beta shape mismatch");
    assert_eq!(out.len(), rows * cols, "layer_norm output shape mismatch");
    if let Some(st) = &stats {
        assert_eq!(st.xhat.len(), rows * cols, "layer_norm xhat shape mismatch");
        assert_eq!(st.inv_std.len(), rows, "layer_norm inv_std length mismatch");
    }
    let stats = stats.map(|st| (st.xhat, st.inv_std));
    be.layer_norm_rows(rows_of(x), gamma.row(0), beta.row(0), eps, out, stats);
}

/// `out = x̂·γ + β`: the LayerNorm output again from the saved `x̂`, with
/// the roundings of [`layer_norm_rows`] — backward recomputes a row tile of
/// it instead of the forward keeping a second `[s, d]` tensor.
pub fn layer_norm_affine_rows(be: Backend, xhat: &impl MatRef, gamma: &Tensor, beta: &Tensor, out: &mut [f32]) {
    let cols = xhat.cols();
    assert_eq!(gamma.shape(), (1, cols), "layer_norm gamma shape mismatch");
    assert_eq!(beta.shape(), (1, cols), "layer_norm beta shape mismatch");
    assert_eq!(out.len(), xhat.rows() * cols, "layer_norm output shape mismatch");
    be.layer_norm_affine_rows(rows_of(xhat), gamma.row(0), beta.row(0), out);
}

/// [`layer_norm_into`] that additionally records the normalised activations
/// `x̂` and per-row `1/σ` a training forward pass must cache for backward.
/// Fully defines `out` and `xhat`; `inv_std` is cleared and refilled.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_stats_into_with(
    be: Backend,
    x: &impl MatRef,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    out: &mut Tensor,
    xhat: &mut Tensor,
    inv_std: &mut Vec<f32>,
) {
    assert_eq!(out.shape(), x.shape(), "layer_norm output shape mismatch");
    assert_eq!(xhat.shape(), x.shape(), "layer_norm xhat shape mismatch");
    inv_std.clear();
    inv_std.resize(x.rows(), 0.0);
    let stats = LnStats { xhat: xhat.data_mut(), inv_std };
    layer_norm_rows(be, x, gamma, beta, eps, out.data_mut(), Some(stats));
}

/// LayerNorm backward from cached `x̂` and `1/σ`: writes the input gradient
/// into `dx` and **fully defines** `dgamma`/`dbeta` (`1 × n` each) with the
/// parameter gradients of this call.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_backward_into(
    xhat: &Tensor,
    inv_std: &[f32],
    gamma: &Tensor,
    dy: &impl MatRef,
    dx: &mut Tensor,
    dgamma: &mut Tensor,
    dbeta: &mut Tensor,
) {
    layer_norm_backward_into_with(backend::active(), xhat, inv_std, gamma, dy, dx, dgamma, dbeta);
}

/// [`layer_norm_backward_into`] on an explicit [`Backend`]. The per-row
/// sums are dot reductions (**ULP-bounded** on SIMD); the combine and the
/// parameter-gradient accumulation are bit-exact given those sums.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_backward_into_with(
    be: Backend,
    xhat: &Tensor,
    inv_std: &[f32],
    gamma: &Tensor,
    dy: &impl MatRef,
    dx: &mut Tensor,
    dgamma: &mut Tensor,
    dbeta: &mut Tensor,
) {
    let cols = dy.cols();
    assert_eq!(dx.shape(), dy.shape(), "layer_norm dx shape mismatch");
    assert_eq!(dgamma.shape(), (1, cols), "layer_norm dgamma shape mismatch");
    assert_eq!(dbeta.shape(), (1, cols), "layer_norm dbeta shape mismatch");
    dgamma.fill_zero();
    dbeta.fill_zero();
    layer_norm_backward_rows(be, xhat, inv_std, gamma, dy, dx.data_mut(), dgamma.data_mut(), dbeta.data_mut());
}

/// LayerNorm backward over the rows of `dy`: the input gradient into the
/// contiguous rows of `dx`, and this call's parameter gradients **added**
/// to `dgamma` / `dbeta` one row at a time in ascending order (see
/// [`matmul_at_acc_rows`] for why tiles compose).
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_backward_rows(
    be: Backend,
    xhat: &impl MatRef,
    inv_std: &[f32],
    gamma: &Tensor,
    dy: &impl MatRef,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let (rows, cols) = dy.shape();
    assert_eq!(xhat.shape(), (rows, cols));
    assert_eq!(inv_std.len(), rows, "layer_norm inv_std length mismatch");
    assert_eq!(gamma.shape(), (1, cols));
    assert_eq!(dx.len(), rows * cols, "layer_norm dx shape mismatch");
    assert_eq!(dgamma.len(), cols, "layer_norm dgamma shape mismatch");
    assert_eq!(dbeta.len(), cols, "layer_norm dbeta shape mismatch");
    be.layer_norm_grad_rows(rows_of(xhat), inv_std, gamma.row(0), rows_of(dy), dx, dgamma, dbeta);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    /// A dirty buffer of the given shape — `_into` kernels must fully
    /// define their output regardless of its prior contents.
    fn dirty(rows: usize, cols: usize) -> Tensor {
        Tensor::full(rows, cols, f32::NAN)
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_equals_matmul_of_transpose() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(4, 3, &(0..12).map(|v| v as f32 * 0.5).collect::<Vec<_>>());
        let direct = matmul_bt(&a, &b);
        let via_t = matmul(&a, &transpose(&b));
        assert_eq!(direct.data(), via_t.data());
    }

    #[test]
    fn matmul_at_equals_matmul_of_transpose() {
        let a = t(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 4, &(0..12).map(|v| v as f32).collect::<Vec<_>>());
        let direct = matmul_at(&a, &b);
        let via_t = matmul(&transpose(&a), &b);
        assert_eq!(direct.data(), via_t.data());
    }

    #[test]
    fn large_matmul_parallel_path_matches_sequential() {
        // Above PAR_MIN_MACS the rows are split into per-worker slabs (when
        // there is more than one worker); a single `Backend::gemm` call
        // never is. Ragged sizes leave a short last slab and edge tiles.
        let (m, k, n) = (301, 170, 165);
        assert!(m * n * k >= PAR_MIN_MACS);
        let a = Tensor::from_vec(m, k, (0..m * k).map(|v| (v % 7) as f32 - 3.0).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|v| (v % 5) as f32 - 2.0).collect());
        let c = matmul(&a, &b);
        let mut whole = vec![f32::NAN; m * n];
        backend::active().gemm(
            &Gemm {
                m,
                n,
                k,
                a: Strided::row_major(a.data(), k),
                b: Strided::row_major(b.data(), n),
                ldc: n,
                accumulate: false,
            },
            &mut whole,
        );
        assert_eq!(c.data(), &whole[..]);
        // Spot-check a few entries against a naive loop.
        for &(r, cidx) in &[(0usize, 0usize), (m - 1, n - 1), (m / 2, n / 2)] {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(r, p) * b.get(p, cidx);
            }
            assert_eq!(c.get(r, cidx), acc);
        }
    }

    #[test]
    fn large_matmul_at_parallel_path_matches_transpose() {
        let (k, m, n) = (300, 170, 166);
        assert!(m * n * k >= PAR_MIN_MACS);
        let a = Tensor::from_vec(k, m, (0..k * m).map(|v| (v % 11) as f32 - 5.0).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|v| (v % 7) as f32 - 3.0).collect());
        assert_eq!(matmul_at(&a, &b).data(), matmul(&transpose(&a), &b).data());
        // Small integers: every product and partial sum is exact, so the
        // `bt` form must agree to the bit as well.
        let at = transpose(&a);
        assert_eq!(matmul_bt(&at, &transpose(&b)).data(), matmul(&at, &b).data());
    }

    #[test]
    fn matmuls_propagate_nan_through_zero_multiplicands() {
        // A zero in A must not mask a NaN in B: 0 · NaN = NaN.
        let a = t(1, 2, &[0.0, 1.0]);
        let b = t(2, 2, &[f32::NAN, 2.0, 3.0, 4.0]);
        assert!(matmul(&a, &b).get(0, 0).is_nan());
        let at = t(2, 1, &[0.0, 1.0]);
        let bn = t(2, 2, &[f32::NAN, 2.0, 3.0, 4.0]);
        assert!(matmul_at(&at, &bn).get(0, 0).is_nan());
        let abt = t(1, 2, &[0.0, 1.0]);
        let bbt = t(1, 2, &[f32::NAN, 0.0]);
        assert!(matmul_bt(&abt, &bbt).get(0, 0).is_nan());
    }

    #[test]
    fn into_kernels_overwrite_dirty_buffers() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let mut out = dirty(2, 2);
        matmul_into(&a, &b, &mut out);
        assert_eq!(out.data(), matmul(&a, &b).data());
        let mut out = dirty(2, 3);
        matmul_bt_into(&a, &t(3, 3, &(0..9).map(|v| v as f32).collect::<Vec<_>>()), &mut out);
        assert_eq!(out.data(), matmul_bt(&a, &t(3, 3, &(0..9).map(|v| v as f32).collect::<Vec<_>>())).data());
        let mut out = dirty(1, 3);
        col_sum_into(&a, &mut out);
        assert_eq!(out.data(), col_sum(&a).data());
        let mut out = dirty(2, 3);
        row_softmax_into(&a, &mut out);
        assert_eq!(out.data(), row_softmax(&a).data());
    }

    #[test]
    fn views_feed_matmul_kernels() {
        // Multiplying a column block through a view must equal slicing it out.
        let packed = Tensor::from_vec(3, 6, (0..18).map(|v| v as f32 * 0.25).collect());
        let w = Tensor::from_vec(2, 4, (0..8).map(|v| v as f32 - 3.0).collect());
        let view = packed.view_cols(2, 4);
        let copy = packed.slice_cols(2, 4);
        assert_eq!(matmul(&view, &w).data(), matmul(&copy, &w).data());
        assert_eq!(matmul_bt(&view, &packed.view_cols(4, 6)).data(),
                   matmul_bt(&copy, &packed.slice_cols(4, 6)).data());
        assert_eq!(matmul_at(&view, &packed.view_cols(0, 2)).data(),
                   matmul_at(&copy, &packed.slice_cols(0, 2)).data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(2, 3, &[1., 2., 3., -1., 0., 1.]);
        let s = row_softmax(&a);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: bigger logits get bigger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[1001., 1002., 1003.]);
        let sa = row_softmax(&a);
        let sb = row_softmax(&b);
        for i in 0..3 {
            assert!((sa.data()[i] - sb.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_numerical() {
        let x = t(2, 4, &[0.5, -0.3, 0.8, 0.1, -1.0, 0.2, 0.0, 0.7]);
        let upstream = t(2, 4, &[0.1, 0.2, -0.3, 0.4, 0.5, -0.1, 0.2, 0.05]);
        let y = row_softmax(&x);
        let mut analytic = Tensor::zeros(2, 4);
        row_softmax_backward_into(&y, &upstream, &mut analytic);
        let numeric = crate::gradcheck::numerical_grad(
            &x,
            |probe| {
                let s = row_softmax(probe);
                s.data().iter().zip(upstream.data()).map(|(a, b)| a * b).sum()
            },
            1e-3,
        );
        assert!(crate::gradcheck::max_abs_diff(&analytic, &numeric) < 1e-3);
    }

    #[test]
    fn elementwise_and_broadcast_ops() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(2, 2, &[5., 6., 7., 8.]);
        assert_eq!(add(&a, &b).data(), &[6., 8., 10., 12.]);
        assert_eq!(sub(&b, &a).data(), &[4., 4., 4., 4.]);
        assert_eq!(mul(&a, &b).data(), &[5., 12., 21., 32.]);
        let row = Tensor::row_vector(vec![10., 20.]);
        let mut broadcast = a.clone();
        add_row_broadcast_inplace(&mut broadcast, &row);
        assert_eq!(broadcast.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn reductions_by_axis() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(col_sum(&a).data(), &[5., 7., 9.]);
    }

    /// Regression for the poisoned-logit bug: a `+∞` entry used to turn the
    /// whole row into NaN garbage (`exp(+∞ − +∞) = NaN` skipped the
    /// normalisation). Now ±Inf rows have defined limits on every backend.
    #[test]
    fn softmax_poisoned_logit_rows_are_defined() {
        for be in crate::backend::supported() {
            let a = t(
                6,
                3,
                &[
                    1.0, f32::INFINITY, 3.0, // one +inf entry takes all mass
                    f32::INFINITY, 0.0, f32::INFINITY, // mass split over +infs
                    f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY, // fully masked
                    f32::NEG_INFINITY, 2.0, 2.0, // -inf = masked logit
                    f32::NAN, 1.0, 2.0, // NaN poison propagates
                    300.0, 400.0, 500.0, // huge-but-finite stays stable
                ],
            );
            let mut s = dirty(6, 3);
            row_softmax_into_with(be, &a, &mut s);
            let n = be.name();
            assert_eq!(s.row(0), &[0.0, 1.0, 0.0], "{n}");
            assert_eq!(s.row(1), &[0.5, 0.0, 0.5], "{n}");
            assert_eq!(s.row(2), &[0.0, 0.0, 0.0], "{n}");
            assert_eq!(s.get(3, 0), 0.0, "{n}");
            assert!((s.get(3, 1) - 0.5).abs() < 1e-6 && (s.get(3, 2) - 0.5).abs() < 1e-6, "{n}");
            assert!(s.row(4).iter().all(|v| v.is_nan()), "{n}: {:?}", s.row(4));
            let sum: f32 = s.row(5).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "{n}: {:?}", s.row(5));
            assert!((s.get(5, 2) - 1.0).abs() < 1e-6, "{n}");
        }
    }

    #[test]
    fn gelu_into_matches_pointwise_reference() {
        let x = t(2, 3, &[-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]);
        let mut out = dirty(2, 3);
        gelu_into(&x, &mut out);
        assert!((out.get(0, 2)).abs() < 1e-7);
        assert!((out.get(1, 1) - 0.8412).abs() < 1e-3);
        let dy = t(2, 3, &[1.0; 6]);
        let mut grad = dirty(2, 3);
        gelu_backward_into(&x, &dy, &mut grad);
        // gelu'(0) = 0.5 for the tanh approximation.
        assert!((grad.get(0, 2) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gelu_matches_reference_points() {
        use crate::backend::scalar::gelu_scalar;
        // Reference values from the tanh approximation.
        assert!((gelu_scalar(0.0)).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_numerical() {
        use crate::gradcheck::{max_abs_diff, numerical_grad};
        let x = crate::init::normal(4, 6, 0.0, 1.0, 99);
        let w = crate::init::normal(4, 6, 0.0, 1.0, 123);
        let mut dx = dirty(4, 6);
        gelu_backward_into(&x, &w, &mut dx);
        let mut y = dirty(4, 6);
        let numeric = numerical_grad(
            &x,
            |p| {
                gelu_into(p, &mut y);
                y.data().iter().zip(w.data()).map(|(a, b)| a * b).sum()
            },
            1e-3,
        );
        assert!(max_abs_diff(&dx, &numeric) < 1e-2);
    }

    #[test]
    fn layer_norm_into_normalises_and_applies_affine() {
        let x = t(2, 4, &[1.0, 2.0, 3.0, 4.0, -1.0, 0.5, 2.0, 8.0]);
        let gamma = Tensor::row_vector(vec![2.0, 2.0, 2.0, 2.0]);
        let beta = Tensor::row_vector(vec![1.0, 1.0, 1.0, 1.0]);
        let mut out = dirty(2, 4);
        layer_norm_into(&x, &gamma, &beta, 1e-5, &mut out);
        for r in 0..2 {
            // Undo the affine: mean 0, variance ~1.
            let m = out.row(r).iter().map(|v| (v - 1.0) / 2.0).sum::<f32>() / 4.0;
            let var = out.row(r).iter().map(|v| ((v - 1.0) / 2.0 - m).powi(2)).sum::<f32>() / 4.0;
            assert!(m.abs() < 1e-5, "row {r} mean {m}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_stats_and_backward_kernels_fully_define_outputs() {
        let be = crate::backend::active();
        let x = t(3, 4, &[0.5, -1.0, 2.0, 0.0, 1.0, 1.5, -0.5, 3.0, -2.0, 0.0, 0.25, 1.0]);
        let gamma = Tensor::row_vector(vec![1.5, 0.5, -1.0, 2.0]);
        let beta = Tensor::row_vector(vec![0.1, -0.2, 0.3, 0.0]);
        let mut out = dirty(3, 4);
        let mut xhat = dirty(3, 4);
        let mut inv_std = Vec::new();
        layer_norm_stats_into_with(be, &x, &gamma, &beta, 1e-5, &mut out, &mut xhat, &mut inv_std);
        let mut plain = dirty(3, 4);
        layer_norm_into(&x, &gamma, &beta, 1e-5, &mut plain);
        assert_eq!(out.data(), plain.data(), "stats and plain forward must agree bitwise");
        let dy = t(3, 4, &[0.3, -0.1, 0.7, 0.2, -0.4, 0.6, 0.1, -0.2, 0.05, 0.9, -0.3, 0.4]);
        let mut dx = dirty(3, 4);
        let mut dgamma = dirty(1, 4);
        let mut dbeta = dirty(1, 4);
        layer_norm_backward_into(&xhat, &inv_std, &gamma, &dy, &mut dx, &mut dgamma, &mut dbeta);
        assert!(dx.data().iter().all(|v| v.is_finite()));
        // dbeta is the column sum of dy.
        let cs = col_sum(&dy);
        assert_eq!(dbeta.data(), cs.data());
    }
}
