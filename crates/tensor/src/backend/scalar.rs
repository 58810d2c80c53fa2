//! Scalar reference backend.
//!
//! These are the original kernel loops from `ops.rs` / `layers.rs`,
//! extracted verbatim. They define the reference semantics the SIMD
//! backends are validated against — keep them boring and obviously
//! correct; optimise in `lanes.rs` (the one SIMD body) instead.

use super::{MaskRows, Rows, SparseAttn, Tile};

/// Rows of the scalar `gemm_tile` register tile.
pub const MR: usize = 4;
/// Columns of the scalar `gemm_tile` register tile.
pub const NR: usize = 8;

/// The tile loops at the given bounds. Kept separate so the full-tile call
/// below sees constant bounds and the compiler can hold the accumulators in
/// registers.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `i` walks `acc`, `a` and `c` together
fn tile_body(t: &Tile<'_>, c: &mut [f32], mr: usize, nr: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    if t.accumulate {
        for i in 0..mr {
            acc[i][..nr].copy_from_slice(&c[i * t.ldc..i * t.ldc + nr]);
        }
    }
    for p in 0..t.k {
        let b_row = &t.b[p * t.ldb..p * t.ldb + nr];
        for i in 0..mr {
            let av = t.a[i * t.rsa + p * t.csa];
            for (x, &bv) in acc[i][..nr].iter_mut().zip(b_row) {
                *x += av * bv;
            }
        }
    }
    for i in 0..mr {
        c[i * t.ldc..i * t.ldc + nr].copy_from_slice(&acc[i][..nr]);
    }
}

/// The reference level-3 micro-kernel: `C[mr×nr] (+)= A·B`, every element
/// accumulated as `acc += a·b` (a rounded multiply, then a rounded add —
/// there is no scalar FMA) in ascending `p`.
pub fn gemm_tile(t: &Tile<'_>, c: &mut [f32]) {
    if t.mr == MR && t.nr == NR {
        tile_body(t, c, MR, NR);
    } else {
        tile_body(t, c, t.mr, t.nr);
    }
}

/// The reference forward of a block of sparse rows (see
/// [`super::Backend::sparse_rows_fwd`]): one [`sparse_row_fwd`] per row.
pub(crate) fn sparse_rows_fwd(
    a: &SparseAttn<'_>,
    q: &[f32],
    m: MaskRows<'_>,
    bias: Option<&[&[f32]]>,
    probs: &mut [&mut [f32]],
    out: &mut [f32],
) {
    let d = a.heads * a.d_head;
    for (i, (q_row, out_row)) in q.chunks_exact(d).zip(out.chunks_exact_mut(d)).enumerate() {
        let e = m.edges(i);
        sparse_row_fwd(a, q_row, &m.cols[e.clone()], bias, probs, e.start, out_row);
    }
}

/// The reference backward of a block of sparse rows (see
/// [`super::Backend::sparse_rows_bwd`]): one [`sparse_row_bwd`] per row,
/// rows ascending.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_rows_bwd(
    a: &SparseAttn<'_>,
    q: &[f32],
    dout: &[f32],
    m: MaskRows<'_>,
    probs: &[&[f32]],
    ds: &mut [&mut [f32]],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let d = a.heads * a.d_head;
    for (i, dq_row) in dq.chunks_exact_mut(d).enumerate() {
        let (e, row) = (m.edges(i), i * d..(i + 1) * d);
        sparse_row_bwd(a, &q[row.clone()], &dout[row], &m.cols[e.clone()], probs, ds, e.start, dq_row, dk, dv);
    }
}

/// The reference forward of one sparse row, its edges at `e0 ..` of the
/// per-head slices: per head, sequential dot products, a libm `exp`, and
/// `out += p·v` with a rounded multiply and a rounded add per term, edges
/// ascending.
fn sparse_row_fwd(
    a: &SparseAttn<'_>,
    q_row: &[f32],
    cols: &[u32],
    bias: Option<&[&[f32]]>,
    probs: &mut [&mut [f32]],
    e0: usize,
    out_row: &mut [f32],
) {
    let (dh, d) = (a.d_head, a.heads * a.d_head);
    out_row.fill(0.0);
    for h in 0..a.heads {
        let head = h * dh..(h + 1) * dh;
        let p = &mut probs[h][e0..e0 + cols.len()];
        for (e, &j) in cols.iter().enumerate() {
            let krow = &a.k[j as usize * d..][head.clone()];
            p[e] = dot(&q_row[head.clone()], krow) * a.scale;
            if let Some(b) = bias {
                p[e] += b[h][e0 + e];
            }
        }
        let max = max_ignore_nan(p);
        let den = exp_minus_max_sum(p, max);
        scale_assign(p, 1.0 / den.max(f32::MIN_POSITIVE));
        for (&pe, &j) in p.iter().zip(cols) {
            axpy(&mut out_row[head.clone()], pe, &a.v[j as usize * d..][head.clone()]);
        }
    }
}

/// The reference backward of one sparse row, in the forward's arithmetic.
#[allow(clippy::too_many_arguments)]
fn sparse_row_bwd(
    a: &SparseAttn<'_>,
    q_row: &[f32],
    do_row: &[f32],
    cols: &[u32],
    probs: &[&[f32]],
    ds: &mut [&mut [f32]],
    e0: usize,
    dq_row: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (dh, d) = (a.d_head, a.heads * a.d_head);
    dq_row.fill(0.0);
    for h in 0..a.heads {
        let head = h * dh..(h + 1) * dh;
        let p = &probs[h][e0..e0 + cols.len()];
        let ds = &mut ds[h][e0..e0 + cols.len()];
        let mut p_dot_dp = 0.0f32;
        for (e, &j) in cols.iter().enumerate() {
            ds[e] = dot(&do_row[head.clone()], &a.v[j as usize * d..][head.clone()]);
            p_dot_dp += p[e] * ds[e];
        }
        for (e, &j) in cols.iter().enumerate() {
            ds[e] = p[e] * (ds[e] - p_dot_dp);
            let scaled = ds[e] * a.scale;
            let row = j as usize * d;
            axpy(&mut dq_row[head.clone()], scaled, &a.k[row..][head.clone()]);
            axpy(&mut dk[row..][head.clone()], scaled, &q_row[head.clone()]);
            axpy(&mut dv[row..][head.clone()], p[e], &do_row[head.clone()]);
        }
    }
}

/// `Σ aᵢ·bᵢ`, sequential accumulation.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// `Σ aᵢ·bᵢ·cᵢ`, sequential accumulation (LayerNorm backward row sum).
pub(crate) fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i] * c[i];
    }
    acc
}

/// `Σ aᵢ`, sequential accumulation.
pub(crate) fn sum(a: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in a {
        acc += v;
    }
    acc
}

/// `Σ (aᵢ - mean)²`, sequential accumulation.
pub(crate) fn sum_sq_diff(a: &[f32], mean: f32) -> f32 {
    let mut acc = 0.0f32;
    for &v in a {
        let d = v - mean;
        acc += d * d;
    }
    acc
}

/// In-place `rowᵢ = exp(rowᵢ - max)`; returns the sum (the softmax
/// exponentiation pass).
pub fn exp_minus_max_sum(row: &mut [f32], max: f32) -> f32 {
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    sum
}

/// NaN-ignoring maximum folding from `-∞` (`f32::max` skips NaN operands).
pub fn max_ignore_nan(a: &[f32]) -> f32 {
    a.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// `dst += s · src` — one `mul` and one `add` rounding per element.
pub fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, &y) in dst.iter_mut().zip(src) {
        *x += s * y;
    }
}

/// `out = a + b`.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out = a - b`.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `out = a ⊙ b`.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `out = s · a`.
pub fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x * s;
    }
}

/// `dst += src`.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, &y) in dst.iter_mut().zip(src) {
        *x += y;
    }
}

/// `dst ⊙= src`.
pub fn mul_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, &y) in dst.iter_mut().zip(src) {
        *x *= y;
    }
}

/// `dst += a ⊙ b` — one `mul` and one `add` rounding per element.
pub(crate) fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((x, &p), &q) in dst.iter_mut().zip(a).zip(b) {
        *x += p * q;
    }
}

/// `dst *= s`.
pub fn scale_assign(dst: &mut [f32], s: f32) {
    for x in dst.iter_mut() {
        *x *= s;
    }
}

/// `dst /= s` (true division — the softmax normalisation step).
pub fn div_assign(dst: &mut [f32], s: f32) {
    for x in dst.iter_mut() {
        *x /= s;
    }
}

/// `out = (a - mean) · inv_std`.
pub(crate) fn normalize(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    for (o, &v) in out.iter_mut().zip(a) {
        *o = (v - mean) * inv_std;
    }
}

/// LayerNorm input-gradient combine (see `ops::layer_norm_backward_into`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ln_grad_combine(
    dy: &[f32],
    g: &[f32],
    xhat: &[f32],
    sum_dxhat: f32,
    sum_dxhat_xhat: f32,
    inv_std: f32,
    out: &mut [f32],
) {
    let n = out.len() as f32;
    for c in 0..out.len() {
        let dxhat = dy[c] * g[c];
        out[c] = (n * dxhat - sum_dxhat - xhat[c] * sum_dxhat_xhat) * inv_std / n;
    }
}

/// Constant `√(2/π)` of the tanh GELU approximation.
pub const SQRT_2_OVER_PI: f32 = 0.797_884_56;
/// Cubic coefficient of the tanh GELU approximation.
pub const GELU_C: f32 = 0.044715;

/// Point-wise GELU (tanh approximation, as in PyTorch's transformer FFNs).
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// Point-wise GELU derivative.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// `out = gelu(x)` element-wise.
pub(crate) fn gelu(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_scalar(v);
    }
}

/// `out = gelu'(x) ⊙ dy`.
pub(crate) fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), dy.len());
    for ((o, &v), &g) in out.iter_mut().zip(x).zip(dy) {
        *o = gelu_grad_scalar(v) * g;
    }
}

/// `row += bias` for every row (see [`super::Backend::add_bias_rows`]).
pub(crate) fn add_bias_rows(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len().max(1)) {
        add_assign(row, bias);
    }
}

/// `acc += Σ rows`, ascending (see [`super::Backend::col_sum_rows`]).
pub(crate) fn col_sum_rows(a: Rows<'_>, acc: &mut [f32]) {
    for r in 0..a.rows {
        add_assign(acc, a.row(r));
    }
}

/// [`gelu`] row by row (see [`super::Backend::gelu_rows`]).
pub(crate) fn gelu_rows(x: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu(x.row(r), o);
    }
}

/// [`gelu_grad`] row by row (see [`super::Backend::gelu_grad_rows`]).
pub(crate) fn gelu_grad_rows(x: Rows<'_>, dy: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu_grad(x.row(r), dy.row(r), o);
    }
}

/// LayerNorm row by row (see [`super::Backend::layer_norm_rows`]).
pub(crate) fn layer_norm_rows(
    x: Rows<'_>,
    g: &[f32],
    b: &[f32],
    eps: f32,
    out: &mut [f32],
    mut stats: Option<(&mut [f32], &mut [f32])>,
) {
    let cols = x.cols;
    for (r, out_row) in out.chunks_exact_mut(cols.max(1)).enumerate() {
        let row = x.row(r);
        let mean = sum(row) / cols as f32;
        let var = sum_sq_diff(row, mean) / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        match &mut stats {
            Some((xhat, inv)) => {
                inv[r] = inv_std;
                let xhat_row = &mut xhat[r * cols..(r + 1) * cols];
                normalize(row, mean, inv_std, xhat_row);
                mul(xhat_row, g, out_row);
            }
            None => {
                normalize(row, mean, inv_std, out_row);
                mul_assign(out_row, g);
            }
        }
        add_assign(out_row, b);
    }
}

/// `x̂·γ + β` row by row (see [`super::Backend::layer_norm_affine_rows`]).
pub(crate) fn layer_norm_affine_rows(xhat: Rows<'_>, g: &[f32], b: &[f32], out: &mut [f32]) {
    for (r, out_row) in out.chunks_exact_mut(xhat.cols.max(1)).enumerate() {
        mul(xhat.row(r), g, out_row);
        add_assign(out_row, b);
    }
}

/// LayerNorm backward row by row (see
/// [`super::Backend::layer_norm_grad_rows`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_grad_rows(
    xhat: Rows<'_>,
    inv_std: &[f32],
    g: &[f32],
    dy: Rows<'_>,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    for (r, dx_row) in dx.chunks_exact_mut(dy.cols.max(1)).enumerate() {
        let (dyr, xr) = (dy.row(r), xhat.row(r));
        mul_acc(dgamma, dyr, xr);
        add_assign(dbeta, dyr);
        let sum_dxhat = dot(dyr, g);
        let sum_dxhat_xhat = dot3(dyr, g, xr);
        ln_grad_combine(dyr, g, xr, sum_dxhat, sum_dxhat_xhat, inv_std[r], dx_row);
    }
}
