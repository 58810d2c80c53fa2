//! Scalar reference backend.
//!
//! These are the original kernel loops from `ops.rs` / `layers.rs`,
//! extracted verbatim. They define the reference semantics the SIMD
//! backends are validated against — keep them boring and obviously
//! correct; optimise in `lanes.rs` (the one SIMD body) instead.

use super::{SparseAttn, Tile};

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

/// The reference forward sparse row (see [`super::Backend::sparse_row_fwd`]):
/// per head, sequential dot products, a libm `exp`, and `out += p·v` with a
/// rounded multiply and a rounded add per term, edges ascending.
pub fn sparse_row_fwd(
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

/// The reference backward sparse row (see
/// [`super::Backend::sparse_row_bwd`]), in the forward's arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn sparse_row_bwd(
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
pub fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i] * c[i];
    }
    acc
}

/// `Σ aᵢ`, sequential accumulation.
pub fn sum(a: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &v in a {
        acc += v;
    }
    acc
}

/// `Σ (aᵢ - mean)²`, sequential accumulation.
pub fn sum_sq_diff(a: &[f32], mean: f32) -> f32 {
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
pub fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
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
pub fn normalize(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    for (o, &v) in out.iter_mut().zip(a) {
        *o = (v - mean) * inv_std;
    }
}

/// LayerNorm input-gradient combine (see `ops::layer_norm_backward_into`).
#[allow(clippy::too_many_arguments)]
pub fn ln_grad_combine(
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
pub fn gelu(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = gelu_scalar(v);
    }
}

/// `out = gelu'(x) ⊙ dy`.
pub fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), dy.len());
    for ((o, &v), &g) in out.iter_mut().zip(x).zip(dy) {
        *o = gelu_grad_scalar(v) * g;
    }
}
