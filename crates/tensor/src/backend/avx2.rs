//! AVX2 + FMA backend (256-bit lanes, 8 × f32).
//!
//! Two disciplines, per the parity policy in `mod.rs`:
//!
//! * element-wise kernels (`axpy`, `add`, …, `ln_grad_combine`) use plain
//!   `mul`/`add` — **never** FMA — so every lane performs the same rounding
//!   sequence as the scalar loop and results are bit-identical;
//! * reductions (`dot`, `sum`, …) use multiple vector accumulators and FMA,
//!   trading reduction order for throughput (ULP-bounded parity), and the
//!   transcendentals use a Cephes-style polynomial `exp` (≤ 2 ULP vs libm).
//!
//! Main loops run on full vectors. Remainders of the bit-exact element-wise
//! kernels fall through to the scalar reference; the `gemm_tile`
//! micro-kernel, the softmax pieces (`max_ignore_nan`, `exp_minus_max_sum`,
//! `scale_assign`) and the sparse row kernels mask their last vector
//! instead, so no row mixes libm and polynomial `exp`.

#![allow(unsafe_op_in_unsafe_fn)]

use super::{scalar, SparseAttn, Tile};
use std::arch::x86_64::*;

/// Rows of the `gemm_tile` register tile.
pub const MR: usize = 6;
/// Columns of the `gemm_tile` register tile: two 8-lane vectors (12
/// accumulators + 2 `B` vectors + 1 broadcast + 1 product = 16 registers).
pub const NR: usize = 16;

/// Lane masks for `vmaskmov`: the window starting at `8 - n` has its first
/// `n` lanes set.
const LANE_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// `C[M × NV·8] (+)= A·B` with the `M·NV` accumulators in registers for the
/// whole `k` loop. `tail` masks the last vector of every row (the others
/// are full); masked-out lanes are neither read nor written.
///
/// # Safety
/// The CPU supports AVX2 and FMA, and for `i < M`, `p < k` and unmasked
/// column `j`: `a[i*rsa + p*csa]`, `b[p*ldb + j]` and `c[i*ldc + j]` are in
/// bounds.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// Index loops on purpose: constant bounds over two register arrays at once,
// which is what lets the compiler unroll them into named registers.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn tile<const M: usize, const NV: usize>(
    k: usize,
    a: *const f32,
    rsa: usize,
    csa: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    tail: __m256i,
    accumulate: bool,
) {
    let load = |ptr: *const f32, v: usize| {
        if v + 1 == NV {
            _mm256_maskload_ps(ptr.add(v * 8), tail)
        } else {
            _mm256_loadu_ps(ptr.add(v * 8))
        }
    };
    let mut acc = [[_mm256_setzero_ps(); NV]; M];
    if accumulate {
        for i in 0..M {
            for v in 0..NV {
                acc[i][v] = load(c.add(i * ldc), v);
            }
        }
    }
    for p in 0..k {
        let mut bv = [_mm256_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = load(b.add(p * ldb), v);
        }
        for i in 0..M {
            let av = _mm256_set1_ps(*a.add(i * rsa + p * csa));
            for v in 0..NV {
                acc[i][v] = _mm256_fmadd_ps(av, bv[v], acc[i][v]);
            }
        }
    }
    for i in 0..M {
        for v in 0..NV {
            let dst = c.add(i * ldc + v * 8);
            if v + 1 == NV {
                _mm256_maskstore_ps(dst, tail, acc[i][v]);
            } else {
                _mm256_storeu_ps(dst, acc[i][v]);
            }
        }
    }
}

/// The level-3 micro-kernel (see [`super::Backend::gemm`]).
///
/// # Safety
/// The CPU supports AVX2 and FMA, `t.mr <= MR`, `t.nr <= NR` and
/// `t.in_bounds(c)` holds.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_tile(t: &Tile<'_>, c: &mut [f32]) {
    debug_assert!(t.mr <= MR && t.nr <= NR && t.in_bounds(c));
    let nv = t.nr.div_ceil(8);
    let tail = lanes(t.nr - (nv - 1) * 8);
    macro_rules! run {
        ($m:literal, $nv:literal) => {
            tile::<$m, $nv>(
                t.k,
                t.a.as_ptr(),
                t.rsa,
                t.csa,
                t.b.as_ptr(),
                t.ldb,
                c.as_mut_ptr(),
                t.ldc,
                tail,
                t.accumulate,
            )
        };
    }
    macro_rules! rows {
        ($nv:literal) => {
            match t.mr {
                1 => run!(1, $nv),
                2 => run!(2, $nv),
                3 => run!(3, $nv),
                4 => run!(4, $nv),
                5 => run!(5, $nv),
                _ => run!(6, $nv),
            }
        };
    }
    if nv == 1 {
        rows!(1)
    } else {
        rows!(2)
    }
}

/// The `vmaskmov` mask selecting the first `min(n, 8)` lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn lanes(n: usize) -> __m256i {
    _mm256_loadu_si256(LANE_MASKS.as_ptr().add(8 - n.min(8)).cast())
}

/// Horizontal maximum of all 8 lanes (none of them NaN).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hmax(v: __m256) -> f32 {
    let q = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let s = _mm_max_ps(q, _mm_movehl_ps(q, q));
    _mm_cvtss_f32(_mm_max_ss(s, _mm_movehdup_ps(s)))
}

/// Horizontal sum of all 8 lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let q = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let r = _mm_add_ss(s, _mm_movehdup_ps(s));
    _mm_cvtss_f32(r)
}

/// Vectorised `exp` (Cephes polynomial, ≤ ~2 ULP for finite inputs).
///
/// Semantics matched to the scalar path where they matter for softmax:
/// inputs below the underflow cutoff (incl. `-∞`) return exactly `0.0`,
/// NaN propagates. Inputs are clamped high, so `exp` of a huge finite
/// value saturates instead of overflowing — softmax only feeds `x ≤ 0`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp256(x: __m256) -> __m256 {
    let exp_hi = _mm256_set1_ps(88.376_26);
    let exp_lo = _mm256_set1_ps(-87.336_54);
    let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
    let c1 = _mm256_set1_ps(0.693_359_375);
    let c2 = _mm256_set1_ps(-2.121_944_4e-4);
    let one = _mm256_set1_ps(1.0);

    // Underflow lanes → exactly 0.0 (NaN compares false, so NaN survives).
    let underflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, exp_lo);
    // min(hi, x) keeps NaN (NaN in the second operand wins the blend).
    let xc = _mm256_min_ps(exp_hi, x);

    let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
        _mm256_mul_ps(xc, log2e),
    );
    // r = x - n·ln2, split into hi/lo parts for precision.
    let r = _mm256_fnmadd_ps(n, c2, _mm256_fnmadd_ps(n, c1, xc));
    let r2 = _mm256_mul_ps(r, r);
    let mut y = _mm256_set1_ps(1.987_569_1e-4);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.666_666_6e-1));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(0.5));
    y = _mm256_fmadd_ps(y, r2, _mm256_add_ps(r, one));

    // Scale by 2ⁿ through the exponent bits.
    let n_i = _mm256_cvtps_epi32(n);
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        n_i,
        _mm256_set1_epi32(127),
    )));
    _mm256_andnot_ps(underflow, _mm256_mul_ps(y, pow2))
}

/// Vectorised `tanh` via `exp(2u)`: `(e − 1) / (e + 1)`. Inputs are clamped
/// to ±12 where the f32 result saturates to exactly ±1.0 (matching libm for
/// large arguments); NaN propagates through the clamp operand order.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tanh256(u: __m256) -> __m256 {
    let lim = _mm256_set1_ps(12.0);
    let one = _mm256_set1_ps(1.0);
    let uc = _mm256_min_ps(lim, _mm256_max_ps(_mm256_set1_ps(-12.0), u));
    let e = exp256(_mm256_add_ps(uc, uc));
    _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
}

/// `Σ_{i<n} a[i]·b[i]`: one FMA accumulator, the last vector masked.
///
/// # Safety
/// The CPU supports AVX2 and FMA and `a`, `b` are readable for `n` elements.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_masked(a: *const f32, b: *const f32, n: usize) -> f32 {
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i < n {
        let m = lanes(n - i);
        acc = _mm256_fmadd_ps(_mm256_maskload_ps(a.add(i), m), _mm256_maskload_ps(b.add(i), m), acc);
        i += 8;
    }
    hsum(acc)
}

/// The horizontal sums of four vectors, in lanes `0..4`, through one shared
/// tree of three `hadd`s and a fold of the two halves.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum4(v: [__m256; 4]) -> __m128 {
    let quads = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
    _mm_add_ps(_mm256_castps256_ps128(quads), _mm256_extractf128_ps::<1>(quads))
}

/// `dst[h][e0 + e] = scale · x_h·m_{cols[e],h} (+ bias[h][e0 + e])` for
/// every head `h` and edge `e`, in one walk of the edges, four at a time.
///
/// # Safety
/// The CPU supports AVX2 and FMA, `x` is a `heads·dh` row, `m` a matrix of
/// such rows holding every row `cols` names, and every `bias` / `dst` slice
/// reaches `e0 + cols.len()`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn row_dots(
    x: *const f32,
    m: *const f32,
    (heads, dh): (usize, usize),
    cols: &[u32],
    scale: f32,
    bias: Option<&[&[f32]]>,
    dst: &mut [&mut [f32]],
    e0: usize,
) {
    let (d, n) = (heads * dh, cols.len());
    let mut e = 0usize;
    while e < n {
        let group = (n - e).min(4);
        let live = _mm256_castsi256_si128(lanes(group));
        // A short last group repeats its last edge; `live` drops the copies.
        let rows: [*const f32; 4] = std::array::from_fn(|t| m.add(*cols.get_unchecked(e + t.min(group - 1)) as usize * d));
        for h in 0..heads {
            let mut prod = [_mm256_setzero_ps(); 4];
            let mut c = h * dh;
            while c < (h + 1) * dh {
                let lm = lanes((h + 1) * dh - c);
                let xv = _mm256_maskload_ps(x.add(c), lm);
                for (prod, row) in prod.iter_mut().zip(rows) {
                    *prod = _mm256_fmadd_ps(xv, _mm256_maskload_ps(row.add(c), lm), *prod);
                }
                c += 8;
            }
            let mut dots = _mm_mul_ps(hsum4(prod), _mm_set1_ps(scale));
            if let Some(b) = bias {
                dots = _mm_add_ps(dots, _mm_maskload_ps(b[h].as_ptr().add(e0 + e), live));
            }
            _mm_maskstore_ps(dst[h].as_mut_ptr().add(e0 + e), live, dots);
        }
        e += 4;
    }
}

/// The forward sparse row (see [`super::Backend::sparse_row_fwd`]).
///
/// # Safety
/// The CPU supports AVX2 and FMA and the operands passed
/// `Backend::sparse_row_fwd`'s shape checks: `q_row` and `out_row` are
/// `heads·d_head` wide, every column indexes a row of `a.k` / `a.v`, and
/// every `probs` / `bias` slice reaches `e0 + cols.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sparse_row_fwd(
    a: &SparseAttn<'_>,
    q_row: &[f32],
    cols: &[u32],
    bias: Option<&[&[f32]]>,
    probs: &mut [&mut [f32]],
    e0: usize,
    out_row: &mut [f32],
) {
    let (dh, d, n) = (a.d_head, a.heads * a.d_head, cols.len());
    let (v, out) = (a.v.as_ptr(), out_row.as_mut_ptr());
    row_dots(q_row.as_ptr(), a.k.as_ptr(), (a.heads, dh), cols, a.scale, bias, probs, e0);
    for p in probs.iter_mut() {
        let p = &mut p[e0..e0 + n];
        let max = max_ignore_nan(p);
        let den = exp_minus_max_sum(p, max);
        scale_assign(p, 1.0 / den.max(f32::MIN_POSITIVE));
    }
    for (h, p) in probs.iter().enumerate() {
        let p = &p[e0..e0 + n];
        // `out_h = Σ p·v_h`, one register per 8 columns of the head.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (lanes(dh - c), h * dh + c);
            let mut acc = _mm256_setzero_ps();
            for (e, &j) in cols.iter().enumerate() {
                let vj = _mm256_maskload_ps(v.add(j as usize * d + col), m);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(*p.as_ptr().add(e)), vj, acc);
            }
            _mm256_maskstore_ps(out.add(col), m, acc);
            c += 8;
        }
    }
}

/// The backward sparse row (see [`super::Backend::sparse_row_bwd`]).
///
/// # Safety
/// The CPU supports AVX2 and FMA and the operands passed
/// `Backend::sparse_row_bwd`'s shape checks: the three rows are
/// `heads·d_head` wide, `dk` / `dv` are shaped like `a.k`, every column
/// indexes one of their rows, and every `probs` / `ds` slice reaches
/// `e0 + cols.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn sparse_row_bwd(
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
    let (dh, d, n) = (a.d_head, a.heads * a.d_head, cols.len());
    let (q, dout, k) = (q_row.as_ptr(), do_row.as_ptr(), a.k.as_ptr());
    let (dq, dk, dv) = (dq_row.as_mut_ptr(), dk.as_mut_ptr(), dv.as_mut_ptr());
    // `dp = do_h·v_h`, parked in `ds` until the row sum below is known.
    row_dots(dout, a.v.as_ptr(), (a.heads, dh), cols, 1.0, None, ds, e0);
    for h in 0..a.heads {
        let p = probs[h].as_ptr().add(e0);
        let dsr = ds[h].as_mut_ptr().add(e0);
        // Softmax Jacobian: `ds = p ∘ (dp − p·dp)`.
        let p_dot_dp = _mm256_set1_ps(dot_masked(p, dsr, n));
        let mut i = 0usize;
        while i < n {
            let m = lanes(n - i);
            let centred = _mm256_sub_ps(_mm256_maskload_ps(dsr.add(i), m), p_dot_dp);
            _mm256_maskstore_ps(dsr.add(i), m, _mm256_mul_ps(_mm256_maskload_ps(p.add(i), m), centred));
            i += 8;
        }
        // `dq_h` in a register; rows `cols[e]` of `dk` and `dv` in place.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (lanes(dh - c), h * dh + c);
            let qv = _mm256_maskload_ps(q.add(col), m);
            let dov = _mm256_maskload_ps(dout.add(col), m);
            let mut acc = _mm256_setzero_ps();
            for (e, &j) in cols.iter().enumerate() {
                let at = j as usize * d + col;
                let scaled = _mm256_set1_ps(*dsr.add(e) * a.scale);
                acc = _mm256_fmadd_ps(scaled, _mm256_maskload_ps(k.add(at), m), acc);
                let dk_j = _mm256_fmadd_ps(scaled, qv, _mm256_maskload_ps(dk.add(at), m));
                _mm256_maskstore_ps(dk.add(at), m, dk_j);
                let dv_j = _mm256_fmadd_ps(_mm256_set1_ps(*p.add(e)), dov, _mm256_maskload_ps(dv.add(at), m));
                _mm256_maskstore_ps(dv.add(at), m, dv_j);
            }
            _mm256_maskstore_ps(dq.add(col), m, acc);
            c += 8;
        }
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            acc1,
        );
        acc2 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 16)),
            _mm256_loadu_ps(pb.add(i + 16)),
            acc2,
        );
        acc3 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 24)),
            _mm256_loadu_ps(pb.add(i + 24)),
            acc3,
        );
        i += 32;
    }
    while i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut total = hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
    while i < n {
        total += a[i] * b[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let ab = _mm256_mul_ps(_mm256_loadu_ps(a.as_ptr().add(i)), _mm256_loadu_ps(b.as_ptr().add(i)));
        acc = _mm256_fmadd_ps(ab, _mm256_loadu_ps(c.as_ptr().add(i)), acc);
        i += 8;
    }
    let mut total = hsum(acc);
    while i < n {
        total += a[i] * b[i] * c[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(a.as_ptr().add(i)));
        acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(a.as_ptr().add(i + 8)));
        i += 16;
    }
    while i + 8 <= n {
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(a.as_ptr().add(i)));
        i += 8;
    }
    let mut total = hsum(_mm256_add_ps(acc0, acc1));
    while i < n {
        total += a[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum_sq_diff(a: &[f32], mean: f32) -> f32 {
    let n = a.len();
    let vm = _mm256_set1_ps(mean);
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(a.as_ptr().add(i)), vm);
        acc = _mm256_fmadd_ps(d, d, acc);
        i += 8;
    }
    let mut total = hsum(acc);
    while i < n {
        let d = a[i] - mean;
        total += d * d;
        i += 1;
    }
    total
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn exp_minus_max_sum(row: &mut [f32], max: f32) -> f32 {
    let n = row.len();
    let vm = _mm256_set1_ps(max);
    let mut vsum = _mm256_setzero_ps();
    let p = row.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vm));
        _mm256_storeu_ps(p.add(i), e);
        vsum = _mm256_add_ps(vsum, e);
        i += 8;
    }
    if i < n {
        let m = lanes(n - i);
        let e = exp256(_mm256_sub_ps(_mm256_maskload_ps(p.add(i), m), vm));
        _mm256_maskstore_ps(p.add(i), m, e);
        vsum = _mm256_add_ps(vsum, _mm256_and_ps(e, _mm256_castsi256_ps(m)));
    }
    hsum(vsum)
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn max_ignore_nan(a: &[f32]) -> f32 {
    let n = a.len();
    let floor = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut acc = floor;
    let mut i = 0usize;
    while i + 8 <= n {
        // max(x, acc): a NaN lane in x loses the compare and keeps acc, so
        // acc never holds a NaN and the final reduction is order-free.
        acc = _mm256_max_ps(_mm256_loadu_ps(a.as_ptr().add(i)), acc);
        i += 8;
    }
    if i < n {
        let m = lanes(n - i);
        let x = _mm256_blendv_ps(floor, _mm256_maskload_ps(a.as_ptr().add(i), m), _mm256_castsi256_ps(m));
        acc = _mm256_max_ps(x, acc);
    }
    hmax(acc)
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let vs = _mm256_set1_ps(s);
    let pd = dst.as_mut_ptr();
    let ps = src.as_ptr();
    let mut i = 0usize;
    // mul + add (not FMA): same two roundings per element as the scalar loop.
    while i + 8 <= n {
        let r = _mm256_add_ps(_mm256_loadu_ps(pd.add(i)), _mm256_mul_ps(vs, _mm256_loadu_ps(ps.add(i))));
        _mm256_storeu_ps(pd.add(i), r);
        i += 8;
    }
    if i < n {
        scalar::axpy(&mut dst[i..], s, &src[i..]);
    }
}

macro_rules! elementwise_binop {
    ($name:ident, $op:ident) => {
        #[target_feature(enable = "avx2", enable = "fma")]
        pub unsafe fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(a.len(), out.len());
            let n = out.len();
            let mut i = 0usize;
            while i + 8 <= n {
                let r = $op(
                    _mm256_loadu_ps(a.as_ptr().add(i)),
                    _mm256_loadu_ps(b.as_ptr().add(i)),
                );
                _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
                i += 8;
            }
            if i < n {
                scalar::$name(&a[i..], &b[i..], &mut out[i..]);
            }
        }
    };
}

elementwise_binop!(add, _mm256_add_ps);
elementwise_binop!(sub, _mm256_sub_ps);
elementwise_binop!(mul, _mm256_mul_ps);

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let n = out.len();
    let vs = _mm256_set1_ps(s);
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(
            out.as_mut_ptr().add(i),
            _mm256_mul_ps(_mm256_loadu_ps(a.as_ptr().add(i)), vs),
        );
        i += 8;
    }
    if i < n {
        scalar::scale(&a[i..], s, &mut out[i..]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(
            p.add(i),
            _mm256_add_ps(_mm256_loadu_ps(p.add(i)), _mm256_loadu_ps(src.as_ptr().add(i))),
        );
        i += 8;
    }
    if i < n {
        scalar::add_assign(&mut dst[i..], &src[i..]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn mul_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(
            p.add(i),
            _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), _mm256_loadu_ps(src.as_ptr().add(i))),
        );
        i += 8;
    }
    if i < n {
        scalar::mul_assign(&mut dst[i..], &src[i..]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    // mul + add (not FMA) keeps this bit-exact against the scalar loop.
    while i + 8 <= n {
        let prod = _mm256_mul_ps(_mm256_loadu_ps(a.as_ptr().add(i)), _mm256_loadu_ps(b.as_ptr().add(i)));
        _mm256_storeu_ps(p.add(i), _mm256_add_ps(_mm256_loadu_ps(p.add(i)), prod));
        i += 8;
    }
    if i < n {
        scalar::mul_acc(&mut dst[i..], &a[i..], &b[i..]);
    }
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm256_set1_ps(s);
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), vs));
        i += 8;
    }
    if i < n {
        let m = lanes(n - i);
        _mm256_maskstore_ps(p.add(i), m, _mm256_mul_ps(_mm256_maskload_ps(p.add(i), m), vs));
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn div_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm256_set1_ps(s);
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    // True division: IEEE-correctly rounded, so bit-exact vs the scalar `/`.
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), vs));
        i += 8;
    }
    if i < n {
        scalar::div_assign(&mut dst[i..], s);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn normalize(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let n = out.len();
    let vm = _mm256_set1_ps(mean);
    let vi = _mm256_set1_ps(inv_std);
    let mut i = 0usize;
    while i + 8 <= n {
        let r = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(a.as_ptr().add(i)), vm), vi);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 8;
    }
    if i < n {
        scalar::normalize(&a[i..], mean, inv_std, &mut out[i..]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn ln_grad_combine(
    dy: &[f32],
    g: &[f32],
    xhat: &[f32],
    sum_dxhat: f32,
    sum_dxhat_xhat: f32,
    inv_std: f32,
    out: &mut [f32],
) {
    let len = out.len();
    let n = len as f32;
    let vn = _mm256_set1_ps(n);
    let vs1 = _mm256_set1_ps(sum_dxhat);
    let vs2 = _mm256_set1_ps(sum_dxhat_xhat);
    let vinv = _mm256_set1_ps(inv_std);
    let mut i = 0usize;
    // Mirrors the scalar rounding sequence exactly (no FMA):
    // ((n·(dy·g) − s₁ − x̂·s₂) · inv_std) / n
    while i + 8 <= len {
        let dxhat = _mm256_mul_ps(_mm256_loadu_ps(dy.as_ptr().add(i)), _mm256_loadu_ps(g.as_ptr().add(i)));
        let t = _mm256_sub_ps(_mm256_mul_ps(vn, dxhat), vs1);
        let u = _mm256_mul_ps(_mm256_loadu_ps(xhat.as_ptr().add(i)), vs2);
        let r = _mm256_div_ps(_mm256_mul_ps(_mm256_sub_ps(t, u), vinv), vn);
        _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 8;
    }
    for c in i..len {
        let dxhat = dy[c] * g[c];
        out[c] = (n * dxhat - sum_dxhat - xhat[c] * sum_dxhat_xhat) * inv_std / n;
    }
}

/// Shared GELU inner term `u = √(2/π)·(x + C·x³)`, mirroring the scalar
/// rounding sequence `((C·x)·x)·x` → `x + ·` → `√(2/π)·` without FMA.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gelu_u(x: __m256) -> __m256 {
    let c = _mm256_set1_ps(scalar::GELU_C);
    let s = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let cube_term = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(c, x), x), x);
    _mm256_mul_ps(s, _mm256_add_ps(x, cube_term))
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gelu(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let n = out.len();
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let t = tanh256(gelu_u(v));
        // 0.5·x·(1+t) with the scalar's (0.5·x)·(1+t) ordering.
        let r = _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, t));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 8;
    }
    if i < n {
        scalar::gelu(&x[i..], &mut out[i..]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), dy.len());
    let n = out.len();
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let s = _mm256_set1_ps(scalar::SQRT_2_OVER_PI);
    let c3 = _mm256_set1_ps(3.0 * scalar::GELU_C);
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        let t = tanh256(gelu_u(v));
        // du = √(2/π)·(1 + (3C·x)·x)
        let du = _mm256_mul_ps(s, _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(c3, v), v)));
        // 0.5·(1+t) + ((0.5·x)·(1−t²))·du, then × dy.
        let a = _mm256_mul_ps(half, _mm256_add_ps(one, t));
        let b = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_sub_ps(one, _mm256_mul_ps(t, t))),
            du,
        );
        let r = _mm256_mul_ps(_mm256_add_ps(a, b), _mm256_loadu_ps(dy.as_ptr().add(i)));
        _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 8;
    }
    if i < n {
        scalar::gelu_grad(&x[i..], &dy[i..], &mut out[i..]);
    }
}
