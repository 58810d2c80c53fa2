//! AVX-512F backend (512-bit lanes, 16 × f32).
//!
//! Same discipline as `avx2.rs`: element-wise kernels avoid FMA so lanes
//! reproduce the scalar rounding sequence bit-for-bit; reductions use wide
//! accumulators + FMA and the transcendentals a polynomial `exp`
//! (ULP-bounded parity, see `mod.rs`). Remainders of the bit-exact
//! element-wise kernels fall through to the scalar reference; the `gemm_tile`
//! micro-kernel, the softmax pieces (`max_ignore_nan`, `exp_minus_max_sum`,
//! `scale_assign`) and the sparse row kernels mask their last vector
//! instead, so no row mixes libm and polynomial `exp`.

#![allow(unsafe_op_in_unsafe_fn)]

use super::{scalar, SparseAttn, Tile};
use std::arch::x86_64::*;

/// Rows of the `gemm_tile` register tile.
pub const MR: usize = 12;
/// Columns of the `gemm_tile` register tile: two 16-lane vectors (24
/// accumulators + 2 `B` vectors + 1 broadcast + 1 product of the 32
/// registers).
pub const NR: usize = 32;

/// `C[M × NV·16] (+)= A·B` with the `M·NV` accumulators in registers for
/// the whole `k` loop. `tail` masks the last vector of every row (the
/// others are full); masked-out lanes are neither read nor written.
///
/// # Safety
/// The CPU supports AVX-512F, and for `i < M`, `p < k` and unmasked column
/// `j`: `a[i*rsa + p*csa]`, `b[p*ldb + j]` and `c[i*ldc + j]` are in bounds.
#[inline]
#[target_feature(enable = "avx512f")]
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
    tail: __mmask16,
    accumulate: bool,
) {
    let lanes = |v: usize| if v + 1 == NV { tail } else { 0xFFFF };
    let mut acc = [[_mm512_setzero_ps(); NV]; M];
    if accumulate {
        for i in 0..M {
            for v in 0..NV {
                acc[i][v] = _mm512_maskz_loadu_ps(lanes(v), c.add(i * ldc + v * 16));
            }
        }
    }
    for p in 0..k {
        let mut bv = [_mm512_setzero_ps(); NV];
        for v in 0..NV {
            bv[v] = _mm512_maskz_loadu_ps(lanes(v), b.add(p * ldb + v * 16));
        }
        for i in 0..M {
            let av = _mm512_set1_ps(*a.add(i * rsa + p * csa));
            for v in 0..NV {
                acc[i][v] = _mm512_fmadd_ps(av, bv[v], acc[i][v]);
            }
        }
    }
    for i in 0..M {
        for v in 0..NV {
            _mm512_mask_storeu_ps(c.add(i * ldc + v * 16), lanes(v), acc[i][v]);
        }
    }
}

/// The level-3 micro-kernel (see [`super::Backend::gemm`]).
///
/// # Safety
/// The CPU supports AVX-512F, `t.mr <= MR`, `t.nr <= NR` and
/// `t.in_bounds(c)` holds.
#[target_feature(enable = "avx512f")]
pub unsafe fn gemm_tile(t: &Tile<'_>, c: &mut [f32]) {
    debug_assert!(t.mr <= MR && t.nr <= NR && t.in_bounds(c));
    let nv = t.nr.div_ceil(16);
    let tail = lanes(t.nr - (nv - 1) * 16);
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
                6 => run!(6, $nv),
                7 => run!(7, $nv),
                8 => run!(8, $nv),
                9 => run!(9, $nv),
                10 => run!(10, $nv),
                11 => run!(11, $nv),
                _ => run!(12, $nv),
            }
        };
    }
    if nv == 1 {
        rows!(1)
    } else {
        rows!(2)
    }
}

/// Round-to-nearest-int, exceptions suppressed (imm8 for roundscale).
const RN: i32 = 0x08;

/// Vectorised `exp` — the 16-lane twin of `avx2::exp256` (same polynomial,
/// same underflow-to-zero and NaN-propagation semantics).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn exp512(x: __m512) -> __m512 {
    let exp_hi = _mm512_set1_ps(88.376_26);
    let exp_lo = _mm512_set1_ps(-87.336_54);
    let log2e = _mm512_set1_ps(std::f32::consts::LOG2_E);
    let c1 = _mm512_set1_ps(0.693_359_375);
    let c2 = _mm512_set1_ps(-2.121_944_4e-4);
    let one = _mm512_set1_ps(1.0);

    let underflow: __mmask16 = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, exp_lo);
    let xc = _mm512_min_ps(exp_hi, x);

    let n = _mm512_roundscale_ps::<RN>(_mm512_mul_ps(xc, log2e));
    let r = _mm512_fnmadd_ps(n, c2, _mm512_fnmadd_ps(n, c1, xc));
    let r2 = _mm512_mul_ps(r, r);
    let mut y = _mm512_set1_ps(1.987_569_1e-4);
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.398_199_9e-3));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(8.333_452e-3));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(4.166_579_6e-2));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.666_666_6e-1));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(0.5));
    y = _mm512_fmadd_ps(y, r2, _mm512_add_ps(r, one));

    let n_i = _mm512_cvtps_epi32(n);
    let pow2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
        n_i,
        _mm512_set1_epi32(127),
    )));
    _mm512_maskz_mov_ps(!underflow, _mm512_mul_ps(y, pow2))
}

/// Vectorised `tanh` via `exp(2u)` with ±12 saturation (see `avx2::tanh256`).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn tanh512(u: __m512) -> __m512 {
    let one = _mm512_set1_ps(1.0);
    let uc = _mm512_min_ps(_mm512_set1_ps(12.0), _mm512_max_ps(_mm512_set1_ps(-12.0), u));
    let e = exp512(_mm512_add_ps(uc, uc));
    _mm512_div_ps(_mm512_sub_ps(e, one), _mm512_add_ps(e, one))
}

/// The mask selecting the first `min(n, 16)` lanes.
#[inline]
fn lanes(n: usize) -> __mmask16 {
    if n >= 16 {
        0xFFFF
    } else {
        (1u16 << n) - 1
    }
}

/// `Σ_{i<n} a[i]·b[i]`: one FMA accumulator, the last vector masked.
///
/// # Safety
/// The CPU supports AVX-512F and `a`, `b` are readable for `n` elements.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn dot_masked(a: *const f32, b: *const f32, n: usize) -> f32 {
    let mut acc = _mm512_setzero_ps();
    let mut i = 0usize;
    while i < n {
        let m = lanes(n - i);
        acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a.add(i)), _mm512_maskz_loadu_ps(m, b.add(i)), acc);
        i += 16;
    }
    _mm512_reduce_add_ps(acc)
}

/// The horizontal sums of four vectors, in lanes `0..4`. One shared tree —
/// halves, quarters, pairs, neighbours — costs 9 shuffles and 5 adds where
/// four separate reductions cost 16 and 16.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn hsum4(v: [__m512; 4]) -> __m512 {
    // 0x44 / 0xEE pick the low / high 256 bits of both operands.
    let ab = _mm512_add_ps(_mm512_shuffle_f32x4::<0x44>(v[0], v[1]), _mm512_shuffle_f32x4::<0xEE>(v[0], v[1]));
    let cd = _mm512_add_ps(_mm512_shuffle_f32x4::<0x44>(v[2], v[3]), _mm512_shuffle_f32x4::<0xEE>(v[2], v[3]));
    // 0x88 / 0xDD pick the even / odd 128-bit lanes: one lane per input now.
    let abcd = _mm512_add_ps(_mm512_shuffle_f32x4::<0x88>(ab, cd), _mm512_shuffle_f32x4::<0xDD>(ab, cd));
    // Inside each lane: swap the 64-bit halves, then neighbours.
    let pairs = _mm512_add_ps(abcd, _mm512_shuffle_ps::<0x4E>(abcd, abcd));
    let sums = _mm512_add_ps(pairs, _mm512_shuffle_ps::<0xB1>(pairs, pairs));
    _mm512_permutexvar_ps(_mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), sums)
}

/// `dst[h][e0 + e] = scale · x_h·m_{cols[e],h} (+ bias[h][e0 + e])` for
/// every head `h` and edge `e`, in one walk of the edges, four at a time.
///
/// # Safety
/// The CPU supports AVX-512F, `x` is a `heads·dh` row, `m` a matrix of such
/// rows holding every row `cols` names, and every `bias` / `dst` slice
/// reaches `e0 + cols.len()`.
#[inline]
#[target_feature(enable = "avx512f")]
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
        let live = lanes(group);
        // A short last group repeats its last edge; `live` drops the copies.
        let rows: [*const f32; 4] = std::array::from_fn(|t| m.add(*cols.get_unchecked(e + t.min(group - 1)) as usize * d));
        for h in 0..heads {
            let mut prod = [_mm512_setzero_ps(); 4];
            let mut c = h * dh;
            while c < (h + 1) * dh {
                let lm = lanes((h + 1) * dh - c);
                let xv = _mm512_maskz_loadu_ps(lm, x.add(c));
                for (prod, row) in prod.iter_mut().zip(rows) {
                    *prod = _mm512_fmadd_ps(xv, _mm512_maskz_loadu_ps(lm, row.add(c)), *prod);
                }
                c += 16;
            }
            let mut dots = _mm512_mul_ps(hsum4(prod), _mm512_set1_ps(scale));
            if let Some(b) = bias {
                dots = _mm512_add_ps(dots, _mm512_maskz_loadu_ps(live, b[h].as_ptr().add(e0 + e)));
            }
            _mm512_mask_storeu_ps(dst[h].as_mut_ptr().add(e0 + e), live, dots);
        }
        e += 4;
    }
}

/// The forward sparse row (see [`super::Backend::sparse_row_fwd`]).
///
/// # Safety
/// The CPU supports AVX-512F and the operands passed
/// `Backend::sparse_row_fwd`'s shape checks: `q_row` and `out_row` are
/// `heads·d_head` wide, every column indexes a row of `a.k` / `a.v`, and
/// every `probs` / `bias` slice reaches `e0 + cols.len()`.
#[target_feature(enable = "avx512f")]
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
        // `out_h = Σ p·v_h`, one register per 16 columns of the head.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (lanes(dh - c), h * dh + c);
            let mut acc = _mm512_setzero_ps();
            for (e, &j) in cols.iter().enumerate() {
                let vj = _mm512_maskz_loadu_ps(m, v.add(j as usize * d + col));
                acc = _mm512_fmadd_ps(_mm512_set1_ps(*p.as_ptr().add(e)), vj, acc);
            }
            _mm512_mask_storeu_ps(out.add(col), m, acc);
            c += 16;
        }
    }
}

/// The backward sparse row (see [`super::Backend::sparse_row_bwd`]).
///
/// # Safety
/// The CPU supports AVX-512F and the operands passed
/// `Backend::sparse_row_bwd`'s shape checks: the three rows are
/// `heads·d_head` wide, `dk` / `dv` are shaped like `a.k`, every column
/// indexes one of their rows, and every `probs` / `ds` slice reaches
/// `e0 + cols.len()`.
#[target_feature(enable = "avx512f")]
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
        let p_dot_dp = _mm512_set1_ps(dot_masked(p, dsr, n));
        let mut i = 0usize;
        while i < n {
            let m = lanes(n - i);
            let centred = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, dsr.add(i)), p_dot_dp);
            _mm512_mask_storeu_ps(dsr.add(i), m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, p.add(i)), centred));
            i += 16;
        }
        // `dq_h` in a register; rows `cols[e]` of `dk` and `dv` in place.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (lanes(dh - c), h * dh + c);
            let qv = _mm512_maskz_loadu_ps(m, q.add(col));
            let dov = _mm512_maskz_loadu_ps(m, dout.add(col));
            let mut acc = _mm512_setzero_ps();
            for (e, &j) in cols.iter().enumerate() {
                let at = j as usize * d + col;
                let scaled = _mm512_set1_ps(*dsr.add(e) * a.scale);
                acc = _mm512_fmadd_ps(scaled, _mm512_maskz_loadu_ps(m, k.add(at)), acc);
                let dk_j = _mm512_fmadd_ps(scaled, qv, _mm512_maskz_loadu_ps(m, dk.add(at)));
                _mm512_mask_storeu_ps(dk.add(at), m, dk_j);
                let dv_j = _mm512_fmadd_ps(_mm512_set1_ps(*p.add(e)), dov, _mm512_maskz_loadu_ps(m, dv.add(at)));
                _mm512_mask_storeu_ps(dv.add(at), m, dv_j);
            }
            _mm512_mask_storeu_ps(dq.add(col), m, acc);
            c += 16;
        }
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut acc2 = _mm512_setzero_ps();
    let mut acc3 = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + 64 <= n {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + 16)),
            _mm512_loadu_ps(pb.add(i + 16)),
            acc1,
        );
        acc2 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + 32)),
            _mm512_loadu_ps(pb.add(i + 32)),
            acc2,
        );
        acc3 = _mm512_fmadd_ps(
            _mm512_loadu_ps(pa.add(i + 48)),
            _mm512_loadu_ps(pb.add(i + 48)),
            acc3,
        );
        i += 64;
    }
    while i + 16 <= n {
        acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
        i += 16;
    }
    let mut total = _mm512_reduce_add_ps(_mm512_add_ps(
        _mm512_add_ps(acc0, acc1),
        _mm512_add_ps(acc2, acc3),
    ));
    while i < n {
        total += a[i] * b[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx512f")]
pub unsafe fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let n = a.len();
    let mut acc = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let ab = _mm512_mul_ps(_mm512_loadu_ps(a.as_ptr().add(i)), _mm512_loadu_ps(b.as_ptr().add(i)));
        acc = _mm512_fmadd_ps(ab, _mm512_loadu_ps(c.as_ptr().add(i)), acc);
        i += 16;
    }
    let mut total = _mm512_reduce_add_ps(acc);
    while i < n {
        total += a[i] * b[i] * c[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx512f")]
pub unsafe fn sum(a: &[f32]) -> f32 {
    let n = a.len();
    let mut acc0 = _mm512_setzero_ps();
    let mut acc1 = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(a.as_ptr().add(i)));
        acc1 = _mm512_add_ps(acc1, _mm512_loadu_ps(a.as_ptr().add(i + 16)));
        i += 32;
    }
    while i + 16 <= n {
        acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(a.as_ptr().add(i)));
        i += 16;
    }
    let mut total = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
    while i < n {
        total += a[i];
        i += 1;
    }
    total
}

#[target_feature(enable = "avx512f")]
pub unsafe fn sum_sq_diff(a: &[f32], mean: f32) -> f32 {
    let n = a.len();
    let vm = _mm512_set1_ps(mean);
    let mut acc = _mm512_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let d = _mm512_sub_ps(_mm512_loadu_ps(a.as_ptr().add(i)), vm);
        acc = _mm512_fmadd_ps(d, d, acc);
        i += 16;
    }
    let mut total = _mm512_reduce_add_ps(acc);
    while i < n {
        let d = a[i] - mean;
        total += d * d;
        i += 1;
    }
    total
}

#[inline]
#[target_feature(enable = "avx512f")]
pub unsafe fn exp_minus_max_sum(row: &mut [f32], max: f32) -> f32 {
    let n = row.len();
    let vm = _mm512_set1_ps(max);
    let mut vsum = _mm512_setzero_ps();
    let p = row.as_mut_ptr();
    let mut i = 0usize;
    while i < n {
        let m = lanes(n - i);
        let e = exp512(_mm512_sub_ps(_mm512_maskz_loadu_ps(m, p.add(i)), vm));
        _mm512_mask_storeu_ps(p.add(i), m, e);
        vsum = _mm512_mask_add_ps(vsum, m, vsum, e);
        i += 16;
    }
    _mm512_reduce_add_ps(vsum)
}

#[inline]
#[target_feature(enable = "avx512f")]
pub unsafe fn max_ignore_nan(a: &[f32]) -> f32 {
    let n = a.len();
    let floor = _mm512_set1_ps(f32::NEG_INFINITY);
    let mut acc = floor;
    let mut i = 0usize;
    while i < n {
        // max(x, acc): NaN lanes in x lose the compare and keep acc, so acc
        // never holds a NaN and the final reduction is order-free.
        acc = _mm512_max_ps(_mm512_mask_loadu_ps(floor, lanes(n - i), a.as_ptr().add(i)), acc);
        i += 16;
    }
    _mm512_reduce_max_ps(acc)
}

#[target_feature(enable = "avx512f")]
pub unsafe fn axpy(dst: &mut [f32], s: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let vs = _mm512_set1_ps(s);
    let pd = dst.as_mut_ptr();
    let ps = src.as_ptr();
    let mut i = 0usize;
    // mul + add (not FMA): bit-exact vs the scalar loop.
    while i + 16 <= n {
        let r = _mm512_add_ps(_mm512_loadu_ps(pd.add(i)), _mm512_mul_ps(vs, _mm512_loadu_ps(ps.add(i))));
        _mm512_storeu_ps(pd.add(i), r);
        i += 16;
    }
    if i < n {
        scalar::axpy(&mut dst[i..], s, &src[i..]);
    }
}

macro_rules! elementwise_binop {
    ($name:ident, $op:ident) => {
        #[target_feature(enable = "avx512f")]
        pub unsafe fn $name(a: &[f32], b: &[f32], out: &mut [f32]) {
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(a.len(), out.len());
            let n = out.len();
            let mut i = 0usize;
            while i + 16 <= n {
                let r = $op(
                    _mm512_loadu_ps(a.as_ptr().add(i)),
                    _mm512_loadu_ps(b.as_ptr().add(i)),
                );
                _mm512_storeu_ps(out.as_mut_ptr().add(i), r);
                i += 16;
            }
            if i < n {
                scalar::$name(&a[i..], &b[i..], &mut out[i..]);
            }
        }
    };
}

elementwise_binop!(add, _mm512_add_ps);
elementwise_binop!(sub, _mm512_sub_ps);
elementwise_binop!(mul, _mm512_mul_ps);

#[target_feature(enable = "avx512f")]
pub unsafe fn scale(a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let n = out.len();
    let vs = _mm512_set1_ps(s);
    let mut i = 0usize;
    while i + 16 <= n {
        _mm512_storeu_ps(
            out.as_mut_ptr().add(i),
            _mm512_mul_ps(_mm512_loadu_ps(a.as_ptr().add(i)), vs),
        );
        i += 16;
    }
    if i < n {
        scalar::scale(&a[i..], s, &mut out[i..]);
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        _mm512_storeu_ps(
            p.add(i),
            _mm512_add_ps(_mm512_loadu_ps(p.add(i)), _mm512_loadu_ps(src.as_ptr().add(i))),
        );
        i += 16;
    }
    if i < n {
        scalar::add_assign(&mut dst[i..], &src[i..]);
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn mul_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        _mm512_storeu_ps(
            p.add(i),
            _mm512_mul_ps(_mm512_loadu_ps(p.add(i)), _mm512_loadu_ps(src.as_ptr().add(i))),
        );
        i += 16;
    }
    if i < n {
        scalar::mul_assign(&mut dst[i..], &src[i..]);
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let n = dst.len();
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    // mul + add (not FMA) keeps this bit-exact against the scalar loop.
    while i + 16 <= n {
        let prod = _mm512_mul_ps(_mm512_loadu_ps(a.as_ptr().add(i)), _mm512_loadu_ps(b.as_ptr().add(i)));
        _mm512_storeu_ps(p.add(i), _mm512_add_ps(_mm512_loadu_ps(p.add(i)), prod));
        i += 16;
    }
    if i < n {
        scalar::mul_acc(&mut dst[i..], &a[i..], &b[i..]);
    }
}

#[inline]
#[target_feature(enable = "avx512f")]
pub unsafe fn scale_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm512_set1_ps(s);
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i < n {
        let m = lanes(n - i);
        _mm512_mask_storeu_ps(p.add(i), m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, p.add(i)), vs));
        i += 16;
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn div_assign(dst: &mut [f32], s: f32) {
    let n = dst.len();
    let vs = _mm512_set1_ps(s);
    let p = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        _mm512_storeu_ps(p.add(i), _mm512_div_ps(_mm512_loadu_ps(p.add(i)), vs));
        i += 16;
    }
    if i < n {
        scalar::div_assign(&mut dst[i..], s);
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn normalize(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let n = out.len();
    let vm = _mm512_set1_ps(mean);
    let vi = _mm512_set1_ps(inv_std);
    let mut i = 0usize;
    while i + 16 <= n {
        let r = _mm512_mul_ps(_mm512_sub_ps(_mm512_loadu_ps(a.as_ptr().add(i)), vm), vi);
        _mm512_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 16;
    }
    if i < n {
        scalar::normalize(&a[i..], mean, inv_std, &mut out[i..]);
    }
}

#[target_feature(enable = "avx512f")]
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
    let vn = _mm512_set1_ps(n);
    let vs1 = _mm512_set1_ps(sum_dxhat);
    let vs2 = _mm512_set1_ps(sum_dxhat_xhat);
    let vinv = _mm512_set1_ps(inv_std);
    let mut i = 0usize;
    while i + 16 <= len {
        let dxhat = _mm512_mul_ps(_mm512_loadu_ps(dy.as_ptr().add(i)), _mm512_loadu_ps(g.as_ptr().add(i)));
        let t = _mm512_sub_ps(_mm512_mul_ps(vn, dxhat), vs1);
        let u = _mm512_mul_ps(_mm512_loadu_ps(xhat.as_ptr().add(i)), vs2);
        let r = _mm512_div_ps(_mm512_mul_ps(_mm512_sub_ps(t, u), vinv), vn);
        _mm512_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 16;
    }
    for c in i..len {
        let dxhat = dy[c] * g[c];
        out[c] = (n * dxhat - sum_dxhat - xhat[c] * sum_dxhat_xhat) * inv_std / n;
    }
}

/// GELU inner term, mirroring the scalar rounding sequence (see
/// `avx2::gelu_u`).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_u(x: __m512) -> __m512 {
    let c = _mm512_set1_ps(scalar::GELU_C);
    let s = _mm512_set1_ps(scalar::SQRT_2_OVER_PI);
    let cube_term = _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(c, x), x), x);
    _mm512_mul_ps(s, _mm512_add_ps(x, cube_term))
}

#[target_feature(enable = "avx512f")]
pub unsafe fn gelu(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let n = out.len();
    let half = _mm512_set1_ps(0.5);
    let one = _mm512_set1_ps(1.0);
    let mut i = 0usize;
    while i + 16 <= n {
        let v = _mm512_loadu_ps(x.as_ptr().add(i));
        let t = tanh512(gelu_u(v));
        let r = _mm512_mul_ps(_mm512_mul_ps(half, v), _mm512_add_ps(one, t));
        _mm512_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 16;
    }
    if i < n {
        scalar::gelu(&x[i..], &mut out[i..]);
    }
}

#[target_feature(enable = "avx512f")]
pub unsafe fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), dy.len());
    let n = out.len();
    let half = _mm512_set1_ps(0.5);
    let one = _mm512_set1_ps(1.0);
    let s = _mm512_set1_ps(scalar::SQRT_2_OVER_PI);
    let c3 = _mm512_set1_ps(3.0 * scalar::GELU_C);
    let mut i = 0usize;
    while i + 16 <= n {
        let v = _mm512_loadu_ps(x.as_ptr().add(i));
        let t = tanh512(gelu_u(v));
        let du = _mm512_mul_ps(s, _mm512_add_ps(one, _mm512_mul_ps(_mm512_mul_ps(c3, v), v)));
        let a = _mm512_mul_ps(half, _mm512_add_ps(one, t));
        let b = _mm512_mul_ps(
            _mm512_mul_ps(_mm512_mul_ps(half, v), _mm512_sub_ps(one, _mm512_mul_ps(t, t))),
            du,
        );
        let r = _mm512_mul_ps(_mm512_add_ps(a, b), _mm512_loadu_ps(dy.as_ptr().add(i)));
        _mm512_storeu_ps(out.as_mut_ptr().add(i), r);
        i += 16;
    }
    if i < n {
        scalar::gelu_grad(&x[i..], &dy[i..], &mut out[i..]);
    }
}
