//! The one SIMD kernel body: every kernel of the `avx2` and `avx512`
//! backends, written once over the lane primitives of an [`Isa`].
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
//!
//! Every kernel is `#[inline(always)]` and generic over `I: Isa`; every
//! `Isa` method is an `#[inline(always)]` wrapper of one or a few
//! intrinsics. [`entry_points!`] instantiates the kernels inside the
//! `#[target_feature]` functions `dispatch!` calls, which is where the
//! intrinsics can finally inline too: an entry point compiles to the
//! straight-line vector code of a hand-written one, and no `lanes::` or
//! `Isa` symbol survives. An ISA's module holds its register-tile shape,
//! its `impl Isa` and one `entry_points!` call. `scalar.rs` is **not** an
//! `Isa`: it is the reference the others are compared against, with
//! different rounding by design.
//!
//! # Safety
//! Every function here requires that the CPU supports `I`'s instructions.
//! Kernels that take only slices need nothing more (lengths are
//! `debug_assert`ed; `dispatch!`'s callers pass equal ones); the ones that
//! take pointers or index through `cols` state the rest.

#![allow(unsafe_op_in_unsafe_fn)]

use super::{scalar, SparseAttn, Tile};

/// One SIMD instruction set, as the lane primitives the kernels are written
/// in. What genuinely differs between ISAs lives behind this trait: the
/// vector width, how a lane mask is represented, and the shuffle trees of
/// the horizontal reductions.
///
/// # Safety
/// Every method requires that the CPU supports the implementing ISA. The
/// memory methods also require their lanes in bounds: all `W` of them for
/// `load` / `store`, the lanes `m` selects for `load_m` / `load_or` /
/// `store_m` (masked-out lanes are neither read nor written) and the first
/// `group` for `store_dots4`.
pub(crate) trait Isa {
    /// A vector of `W` `f32` lanes.
    type V: Copy;
    /// A lane mask.
    type M: Copy;
    /// Lanes per vector.
    const W: usize;

    unsafe fn zero() -> Self::V;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn load(p: *const f32) -> Self::V;
    unsafe fn store(p: *mut f32, v: Self::V);
    /// The mask selecting the first `min(n, W)` lanes.
    unsafe fn lanes(n: usize) -> Self::M;
    /// Masked-out lanes read as `0.0`.
    unsafe fn load_m(p: *const f32, m: Self::M) -> Self::V;
    /// Masked-out lanes take `fill`'s.
    unsafe fn load_or(p: *const f32, m: Self::M, fill: Self::V) -> Self::V;
    unsafe fn store_m(p: *mut f32, m: Self::M, v: Self::V);
    /// `v` with its masked-out lanes zeroed.
    unsafe fn keep(m: Self::M, v: Self::V) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// True division, IEEE-correctly rounded.
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lane minimum with the x86 operand order: where either lane is NaN
    /// the result is `b`'s lane — a NaN in `b` wins, a NaN in `a` loses.
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    /// Lane maximum, same operand order as [`Isa::min`].
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c`, rounded once.
    unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `c − a·b`, rounded once.
    unsafe fn fnmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Horizontal sum of all `W` lanes.
    unsafe fn hsum(v: Self::V) -> f32;
    /// Horizontal maximum of all `W` lanes (none of them NaN).
    unsafe fn hmax(v: Self::V) -> f32;
    /// Round to the nearest integer, ties to even, exceptions suppressed.
    unsafe fn round(v: Self::V) -> Self::V;
    /// `2ⁿ` for integral `n` in `-126..=127`, built in the exponent bits.
    unsafe fn exp2i(n: Self::V) -> Self::V;
    /// `v` with the lanes zeroed where `x < lim`. NaN compares false, so a
    /// NaN lane of `x` keeps `v`'s.
    unsafe fn zero_where_lt(v: Self::V, x: Self::V, lim: Self::V) -> Self::V;
    /// `dst[t] = scale · Σ lanes(v[t]) (+ bias[t])` for `t < group ≤ 4`: the
    /// horizontal sums of four vectors through one shared shuffle tree.
    /// `bias[t]` and `dst[t]` are touched for `t < group` only.
    unsafe fn store_dots4(v: [Self::V; 4], scale: f32, bias: Option<*const f32>, dst: *mut f32, group: usize);
}

/// Vector `v` of a row of `NV`: the last masked by `tail`, the others full.
#[inline(always)]
unsafe fn load_vec<I: Isa, const NV: usize>(row: *const f32, v: usize, tail: I::M) -> I::V {
    if v + 1 == NV {
        I::load_m(row.add(v * I::W), tail)
    } else {
        I::load(row.add(v * I::W))
    }
}

/// `C[M × NV·W] (+)= A·B` with the `M·NV` accumulators in registers for the
/// whole `k` loop. `tail` masks the last vector of every row (the others
/// are full); masked-out lanes are neither read nor written.
///
/// # Safety
/// For `i < M`, `p < t.k` and unmasked column `j`: `t.a[i*rsa + p*csa]`,
/// `t.b[p*ldb + j]` and `c[i*ldc + j]` are in bounds (`t.in_bounds(c)` with
/// `t.mr == M` and `t.nr` the unmasked width).
#[inline(always)]
// Index loops on purpose: constant bounds over two register arrays at once,
// which is what lets the compiler unroll them into named registers.
#[allow(clippy::needless_range_loop)]
pub(crate) unsafe fn tile<I: Isa, const M: usize, const NV: usize>(t: &Tile<'_>, c: &mut [f32], tail: I::M) {
    // By value: the stores through `c` below must not force reloads of `t`.
    let &Tile { k, rsa, csa, ldb, ldc, accumulate, .. } = t;
    let (a, b, c) = (t.a.as_ptr(), t.b.as_ptr(), c.as_mut_ptr());
    let mut acc = [[I::zero(); NV]; M];
    if accumulate {
        for i in 0..M {
            for v in 0..NV {
                acc[i][v] = load_vec::<I, NV>(c.add(i * ldc), v, tail);
            }
        }
    }
    for p in 0..k {
        let mut bv = [I::zero(); NV];
        for v in 0..NV {
            bv[v] = load_vec::<I, NV>(b.add(p * ldb), v, tail);
        }
        for i in 0..M {
            let av = I::splat(*a.add(i * rsa + p * csa));
            for v in 0..NV {
                acc[i][v] = I::fmadd(av, bv[v], acc[i][v]);
            }
        }
    }
    for i in 0..M {
        for v in 0..NV {
            let dst = c.add(i * ldc + v * I::W);
            if v + 1 == NV {
                I::store_m(dst, tail, acc[i][v]);
            } else {
                I::store(dst, acc[i][v]);
            }
        }
    }
}

/// Vectorised `exp` (Cephes polynomial, ≤ ~2 ULP for finite inputs).
///
/// Semantics matched to the scalar path where they matter for softmax:
/// inputs below the underflow cutoff (incl. `-∞`) return exactly `0.0`,
/// NaN propagates. Inputs are clamped high, so `exp` of a huge finite
/// value saturates instead of overflowing — softmax only feeds `x ≤ 0`.
#[inline(always)]
unsafe fn exp<I: Isa>(x: I::V) -> I::V {
    let exp_hi = I::splat(88.376_26);
    let exp_lo = I::splat(-87.336_54);
    let log2e = I::splat(std::f32::consts::LOG2_E);
    let c1 = I::splat(0.693_359_375);
    let c2 = I::splat(-2.121_944_4e-4);
    let one = I::splat(1.0);

    // min(hi, x) keeps NaN (NaN in the second operand wins).
    let xc = I::min(exp_hi, x);

    let n = I::round(I::mul(xc, log2e));
    // r = x - n·ln2, split into hi/lo parts for precision.
    let r = I::fnmadd(n, c2, I::fnmadd(n, c1, xc));
    let r2 = I::mul(r, r);
    let mut y = I::splat(1.987_569_1e-4);
    y = I::fmadd(y, r, I::splat(1.398_199_9e-3));
    y = I::fmadd(y, r, I::splat(8.333_452e-3));
    y = I::fmadd(y, r, I::splat(4.166_579_6e-2));
    y = I::fmadd(y, r, I::splat(1.666_666_6e-1));
    y = I::fmadd(y, r, I::splat(0.5));
    y = I::fmadd(y, r2, I::add(r, one));

    // Scale by 2ⁿ through the exponent bits; underflow lanes → exactly 0.0
    // (NaN compares false, so NaN survives).
    I::zero_where_lt(I::mul(y, I::exp2i(n)), x, exp_lo)
}

/// Vectorised `tanh` via `exp(2u)`: `(e − 1) / (e + 1)`. Inputs are clamped
/// to ±12 where the f32 result saturates to exactly ±1.0 (matching libm for
/// large arguments); NaN propagates through the clamp operand order.
#[inline(always)]
unsafe fn tanh<I: Isa>(u: I::V) -> I::V {
    let one = I::splat(1.0);
    let uc = I::min(I::splat(12.0), I::max(I::splat(-12.0), u));
    let e = exp::<I>(I::add(uc, uc));
    I::div(I::sub(e, one), I::add(e, one))
}

/// `Σ_{i<n} a[i]·b[i]`: one FMA accumulator, the last vector masked.
///
/// # Safety
/// `a` and `b` are readable for `n` elements.
#[inline(always)]
unsafe fn dot_masked<I: Isa>(a: *const f32, b: *const f32, n: usize) -> f32 {
    let mut acc = I::zero();
    let mut i = 0usize;
    while i < n {
        let m = I::lanes(n - i);
        acc = I::fmadd(I::load_m(a.add(i), m), I::load_m(b.add(i), m), acc);
        i += I::W;
    }
    I::hsum(acc)
}

/// `dst[h][e0 + e] = scale · x_h·m_{cols[e],h} (+ bias[h][e0 + e])` for
/// every head `h` and edge `e`, in one walk of the edges, four at a time.
///
/// # Safety
/// `x` is a `heads·dh` row, `m` a matrix of such rows holding every row
/// `cols` names, and every `bias` / `dst` slice reaches `e0 + cols.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn row_dots<I: Isa>(
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
        // A short last group repeats its last edge; `store_dots4` drops the copies.
        let rows: [*const f32; 4] = std::array::from_fn(
            #[inline(always)]
            |t| m.add(*cols.get_unchecked(e + t.min(group - 1)) as usize * d),
        );
        for h in 0..heads {
            let mut prod = [I::zero(); 4];
            let mut c = h * dh;
            while c < (h + 1) * dh {
                let lm = I::lanes((h + 1) * dh - c);
                let xv = I::load_m(x.add(c), lm);
                for (prod, row) in prod.iter_mut().zip(rows) {
                    *prod = I::fmadd(xv, I::load_m(row.add(c), lm), *prod);
                }
                c += I::W;
            }
            let bias = bias.map(|b| b[h].as_ptr().add(e0 + e));
            I::store_dots4(prod, scale, bias, dst[h].as_mut_ptr().add(e0 + e), group);
        }
        e += 4;
    }
}

/// The forward sparse row (see [`super::Backend::sparse_row_fwd`]).
///
/// # Safety
/// The operands passed `Backend::sparse_row_fwd`'s shape checks: `q_row` and
/// `out_row` are `heads·d_head` wide, every column indexes a row of `a.k` /
/// `a.v`, and every `probs` / `bias` slice reaches `e0 + cols.len()`.
#[inline(always)]
pub(crate) unsafe fn sparse_row_fwd<I: Isa>(
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
    row_dots::<I>(q_row.as_ptr(), a.k.as_ptr(), (a.heads, dh), cols, a.scale, bias, probs, e0);
    for p in probs.iter_mut() {
        let p = &mut p[e0..e0 + n];
        let max = max_ignore_nan::<I>(p);
        let den = exp_minus_max_sum::<I>(p, max);
        scale_assign::<I>(p, 1.0 / den.max(f32::MIN_POSITIVE));
    }
    for (h, p) in probs.iter().enumerate() {
        let p = &p[e0..e0 + n];
        // `out_h = Σ p·v_h`, one register per `W` columns of the head.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (I::lanes(dh - c), h * dh + c);
            let mut acc = I::zero();
            for (e, &j) in cols.iter().enumerate() {
                let vj = I::load_m(v.add(j as usize * d + col), m);
                acc = I::fmadd(I::splat(*p.as_ptr().add(e)), vj, acc);
            }
            I::store_m(out.add(col), m, acc);
            c += I::W;
        }
    }
}

/// The backward sparse row (see [`super::Backend::sparse_row_bwd`]).
///
/// # Safety
/// The operands passed `Backend::sparse_row_bwd`'s shape checks: the three
/// rows are `heads·d_head` wide, `dk` / `dv` are shaped like `a.k`, every
/// column indexes one of their rows, and every `probs` / `ds` slice reaches
/// `e0 + cols.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn sparse_row_bwd<I: Isa>(
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
    row_dots::<I>(dout, a.v.as_ptr(), (a.heads, dh), cols, 1.0, None, ds, e0);
    for h in 0..a.heads {
        let p = probs[h].as_ptr().add(e0);
        let dsr = ds[h].as_mut_ptr().add(e0);
        // Softmax Jacobian: `ds = p ∘ (dp − p·dp)`.
        let p_dot_dp = I::splat(dot_masked::<I>(p, dsr, n));
        let mut i = 0usize;
        while i < n {
            let m = I::lanes(n - i);
            let centred = I::sub(I::load_m(dsr.add(i), m), p_dot_dp);
            I::store_m(dsr.add(i), m, I::mul(I::load_m(p.add(i), m), centred));
            i += I::W;
        }
        // `dq_h` in a register; rows `cols[e]` of `dk` and `dv` in place.
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (I::lanes(dh - c), h * dh + c);
            let qv = I::load_m(q.add(col), m);
            let dov = I::load_m(dout.add(col), m);
            let mut acc = I::zero();
            for (e, &j) in cols.iter().enumerate() {
                let at = j as usize * d + col;
                let scaled = I::splat(*dsr.add(e) * a.scale);
                acc = I::fmadd(scaled, I::load_m(k.add(at), m), acc);
                let dk_j = I::fmadd(scaled, qv, I::load_m(dk.add(at), m));
                I::store_m(dk.add(at), m, dk_j);
                let dv_j = I::fmadd(I::splat(*p.add(e)), dov, I::load_m(dv.add(at), m));
                I::store_m(dv.add(at), m, dv_j);
            }
            I::store_m(dq.add(col), m, acc);
            c += I::W;
        }
    }
}

#[inline(always)]
pub(crate) unsafe fn dot<I: Isa>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (n, pa, pb, w) = (a.len(), a.as_ptr(), b.as_ptr(), I::W);
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (I::zero(), I::zero(), I::zero(), I::zero());
    let mut i = 0usize;
    while i + 4 * w <= n {
        acc0 = I::fmadd(I::load(pa.add(i)), I::load(pb.add(i)), acc0);
        acc1 = I::fmadd(I::load(pa.add(i + w)), I::load(pb.add(i + w)), acc1);
        acc2 = I::fmadd(I::load(pa.add(i + 2 * w)), I::load(pb.add(i + 2 * w)), acc2);
        acc3 = I::fmadd(I::load(pa.add(i + 3 * w)), I::load(pb.add(i + 3 * w)), acc3);
        i += 4 * w;
    }
    while i + w <= n {
        acc0 = I::fmadd(I::load(pa.add(i)), I::load(pb.add(i)), acc0);
        i += w;
    }
    let mut total = I::hsum(I::add(I::add(acc0, acc1), I::add(acc2, acc3)));
    while i < n {
        total += a[i] * b[i];
        i += 1;
    }
    total
}

#[inline(always)]
pub(crate) unsafe fn dot3<I: Isa>(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let n = a.len();
    let mut acc = I::zero();
    let mut i = 0usize;
    while i + I::W <= n {
        let ab = I::mul(I::load(a.as_ptr().add(i)), I::load(b.as_ptr().add(i)));
        acc = I::fmadd(ab, I::load(c.as_ptr().add(i)), acc);
        i += I::W;
    }
    let mut total = I::hsum(acc);
    while i < n {
        total += a[i] * b[i] * c[i];
        i += 1;
    }
    total
}

#[inline(always)]
pub(crate) unsafe fn sum<I: Isa>(a: &[f32]) -> f32 {
    let (n, p, w) = (a.len(), a.as_ptr(), I::W);
    let (mut acc0, mut acc1) = (I::zero(), I::zero());
    let mut i = 0usize;
    while i + 2 * w <= n {
        acc0 = I::add(acc0, I::load(p.add(i)));
        acc1 = I::add(acc1, I::load(p.add(i + w)));
        i += 2 * w;
    }
    while i + w <= n {
        acc0 = I::add(acc0, I::load(p.add(i)));
        i += w;
    }
    let mut total = I::hsum(I::add(acc0, acc1));
    while i < n {
        total += a[i];
        i += 1;
    }
    total
}

#[inline(always)]
pub(crate) unsafe fn sum_sq_diff<I: Isa>(a: &[f32], mean: f32) -> f32 {
    let n = a.len();
    let vm = I::splat(mean);
    let mut acc = I::zero();
    let mut i = 0usize;
    while i + I::W <= n {
        let d = I::sub(I::load(a.as_ptr().add(i)), vm);
        acc = I::fmadd(d, d, acc);
        i += I::W;
    }
    let mut total = I::hsum(acc);
    while i < n {
        let d = a[i] - mean;
        total += d * d;
        i += 1;
    }
    total
}

#[inline(always)]
pub(crate) unsafe fn exp_minus_max_sum<I: Isa>(row: &mut [f32], max: f32) -> f32 {
    let (n, p) = (row.len(), row.as_mut_ptr());
    let vm = I::splat(max);
    let mut vsum = I::zero();
    let mut i = 0usize;
    while i + I::W <= n {
        let e = exp::<I>(I::sub(I::load(p.add(i)), vm));
        I::store(p.add(i), e);
        vsum = I::add(vsum, e);
        i += I::W;
    }
    if i < n {
        let m = I::lanes(n - i);
        let e = exp::<I>(I::sub(I::load_m(p.add(i), m), vm));
        I::store_m(p.add(i), m, e);
        vsum = I::add(vsum, I::keep(m, e));
    }
    I::hsum(vsum)
}

#[inline(always)]
pub(crate) unsafe fn max_ignore_nan<I: Isa>(a: &[f32]) -> f32 {
    let n = a.len();
    let floor = I::splat(f32::NEG_INFINITY);
    let mut acc = floor;
    let mut i = 0usize;
    while i + I::W <= n {
        // max(x, acc): a NaN lane in x loses the compare and keeps acc, so
        // acc never holds a NaN and the final reduction is order-free.
        acc = I::max(I::load(a.as_ptr().add(i)), acc);
        i += I::W;
    }
    if i < n {
        acc = I::max(I::load_or(a.as_ptr().add(i), I::lanes(n - i), floor), acc);
    }
    I::hmax(acc)
}

/// `out[i..i + W] = f(i)` for every full vector of `n` elements; returns
/// the index the caller's remainder starts at.
///
/// # Safety
/// `out` is writable for `n` elements. Pass `f` as an `#[inline(always)]`
/// closure: tier-1 runs unoptimised, where any other closure is a real call
/// per vector.
#[inline(always)]
unsafe fn map_full<I: Isa>(n: usize, out: *mut f32, f: impl Fn(usize) -> I::V) -> usize {
    let mut i = 0usize;
    while i + I::W <= n {
        I::store(out.add(i), f(i));
        i += I::W;
    }
    i
}

#[inline(always)]
pub(crate) unsafe fn axpy<I: Isa>(dst: &mut [f32], s: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let (n, vs, pd, ps) = (dst.len(), I::splat(s), dst.as_mut_ptr(), src.as_ptr());
    // mul + add (not FMA): same two roundings per element as the scalar loop.
    let i = map_full::<I>(
        n,
        pd,
        #[inline(always)]
        |i| I::add(I::load(pd.add(i)), I::mul(vs, I::load(ps.add(i)))),
    );
    if i < n {
        scalar::axpy(&mut dst[i..], s, &src[i..]);
    }
}

macro_rules! elementwise_binop {
    ($name:ident) => {
        #[inline(always)]
        pub(crate) unsafe fn $name<I: Isa>(a: &[f32], b: &[f32], out: &mut [f32]) {
            debug_assert_eq!(a.len(), b.len());
            debug_assert_eq!(a.len(), out.len());
            let (n, pa, pb) = (out.len(), a.as_ptr(), b.as_ptr());
            let i = map_full::<I>(
                n,
                out.as_mut_ptr(),
                #[inline(always)]
                |i| I::$name(I::load(pa.add(i)), I::load(pb.add(i))),
            );
            if i < n {
                scalar::$name(&a[i..], &b[i..], &mut out[i..]);
            }
        }
    };
}

elementwise_binop!(add);
elementwise_binop!(sub);
elementwise_binop!(mul);

#[inline(always)]
pub(crate) unsafe fn scale<I: Isa>(a: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let (n, vs, pa) = (out.len(), I::splat(s), a.as_ptr());
    let i = map_full::<I>(
        n,
        out.as_mut_ptr(),
        #[inline(always)]
        |i| I::mul(I::load(pa.add(i)), vs),
    );
    if i < n {
        scalar::scale(&a[i..], s, &mut out[i..]);
    }
}

#[inline(always)]
pub(crate) unsafe fn add_assign<I: Isa>(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let (n, p, ps) = (dst.len(), dst.as_mut_ptr(), src.as_ptr());
    let i = map_full::<I>(
        n,
        p,
        #[inline(always)]
        |i| I::add(I::load(p.add(i)), I::load(ps.add(i))),
    );
    if i < n {
        scalar::add_assign(&mut dst[i..], &src[i..]);
    }
}

#[inline(always)]
pub(crate) unsafe fn mul_assign<I: Isa>(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    let (n, p, ps) = (dst.len(), dst.as_mut_ptr(), src.as_ptr());
    let i = map_full::<I>(
        n,
        p,
        #[inline(always)]
        |i| I::mul(I::load(p.add(i)), I::load(ps.add(i))),
    );
    if i < n {
        scalar::mul_assign(&mut dst[i..], &src[i..]);
    }
}

#[inline(always)]
pub(crate) unsafe fn mul_acc<I: Isa>(dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let (n, p, pa, pb) = (dst.len(), dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    // mul + add (not FMA) keeps this bit-exact against the scalar loop.
    let i = map_full::<I>(
        n,
        p,
        #[inline(always)]
        |i| I::add(I::load(p.add(i)), I::mul(I::load(pa.add(i)), I::load(pb.add(i)))),
    );
    if i < n {
        scalar::mul_acc(&mut dst[i..], &a[i..], &b[i..]);
    }
}

#[inline(always)]
pub(crate) unsafe fn scale_assign<I: Isa>(dst: &mut [f32], s: f32) {
    let (n, vs, p) = (dst.len(), I::splat(s), dst.as_mut_ptr());
    let i = map_full::<I>(
        n,
        p,
        #[inline(always)]
        |i| I::mul(I::load(p.add(i)), vs),
    );
    if i < n {
        let m = I::lanes(n - i);
        I::store_m(p.add(i), m, I::mul(I::load_m(p.add(i), m), vs));
    }
}

#[inline(always)]
pub(crate) unsafe fn div_assign<I: Isa>(dst: &mut [f32], s: f32) {
    let (n, vs, p) = (dst.len(), I::splat(s), dst.as_mut_ptr());
    // True division: IEEE-correctly rounded, so bit-exact vs the scalar `/`.
    let i = map_full::<I>(
        n,
        p,
        #[inline(always)]
        |i| I::div(I::load(p.add(i)), vs),
    );
    if i < n {
        scalar::div_assign(&mut dst[i..], s);
    }
}

#[inline(always)]
pub(crate) unsafe fn normalize<I: Isa>(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    let (n, vm, vi, pa) = (out.len(), I::splat(mean), I::splat(inv_std), a.as_ptr());
    let i = map_full::<I>(
        n,
        out.as_mut_ptr(),
        #[inline(always)]
        |i| I::mul(I::sub(I::load(pa.add(i)), vm), vi),
    );
    if i < n {
        scalar::normalize(&a[i..], mean, inv_std, &mut out[i..]);
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn ln_grad_combine<I: Isa>(
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
    let (vn, vs1, vs2, vinv) = (I::splat(n), I::splat(sum_dxhat), I::splat(sum_dxhat_xhat), I::splat(inv_std));
    // Mirrors the scalar rounding sequence exactly (no FMA):
    // ((n·(dy·g) − s₁ − x̂·s₂) · inv_std) / n
    let i = map_full::<I>(
        len,
        out.as_mut_ptr(),
        #[inline(always)]
        |i| {
            let dxhat = I::mul(I::load(dy.as_ptr().add(i)), I::load(g.as_ptr().add(i)));
            let t = I::sub(I::mul(vn, dxhat), vs1);
            let u = I::mul(I::load(xhat.as_ptr().add(i)), vs2);
            I::div(I::mul(I::sub(t, u), vinv), vn)
        },
    );
    for c in i..len {
        let dxhat = dy[c] * g[c];
        out[c] = (n * dxhat - sum_dxhat - xhat[c] * sum_dxhat_xhat) * inv_std / n;
    }
}

/// Shared GELU inner term `u = √(2/π)·(x + C·x³)`, mirroring the scalar
/// rounding sequence `((C·x)·x)·x` → `x + ·` → `√(2/π)·` without FMA.
#[inline(always)]
unsafe fn gelu_u<I: Isa>(x: I::V) -> I::V {
    let c = I::splat(scalar::GELU_C);
    let s = I::splat(scalar::SQRT_2_OVER_PI);
    let cube_term = I::mul(I::mul(I::mul(c, x), x), x);
    I::mul(s, I::add(x, cube_term))
}

#[inline(always)]
pub(crate) unsafe fn gelu<I: Isa>(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let (n, half, one) = (out.len(), I::splat(0.5), I::splat(1.0));
    let i = map_full::<I>(
        n,
        out.as_mut_ptr(),
        #[inline(always)]
        |i| {
            let v = I::load(x.as_ptr().add(i));
            let t = tanh::<I>(gelu_u::<I>(v));
            // 0.5·x·(1+t) with the scalar's (0.5·x)·(1+t) ordering.
            I::mul(I::mul(half, v), I::add(one, t))
        },
    );
    if i < n {
        scalar::gelu(&x[i..], &mut out[i..]);
    }
}

#[inline(always)]
pub(crate) unsafe fn gelu_grad<I: Isa>(x: &[f32], dy: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), dy.len());
    let (n, half, one) = (out.len(), I::splat(0.5), I::splat(1.0));
    let s = I::splat(scalar::SQRT_2_OVER_PI);
    let c3 = I::splat(3.0 * scalar::GELU_C);
    let i = map_full::<I>(
        n,
        out.as_mut_ptr(),
        #[inline(always)]
        |i| {
            let v = I::load(x.as_ptr().add(i));
            let t = tanh::<I>(gelu_u::<I>(v));
            // du = √(2/π)·(1 + (3C·x)·x)
            let du = I::mul(s, I::add(one, I::mul(I::mul(c3, v), v)));
            // 0.5·(1+t) + ((0.5·x)·(1−t²))·du, then × dy.
            let a = I::mul(half, I::add(one, t));
            let b = I::mul(I::mul(I::mul(half, v), I::sub(one, I::mul(t, t))), du);
            I::mul(I::add(a, b), I::load(dy.as_ptr().add(i)))
        },
    );
    if i < n {
        scalar::gelu_grad(&x[i..], &dy[i..], &mut out[i..]);
    }
}

/// The 23 `#[target_feature]` functions `dispatch!` calls, stamped into an
/// ISA's module: `entry_points!(Isa, "features", [row counts below MR])`.
/// Each is the kernel of the same name above instantiated for `$isa`;
/// `gemm_tile` picks the `M × NV` register tile for `t.mr ≤ MR` rows and
/// one or two vectors of columns, `MR` and `NR` being the module's own.
///
/// # Safety
/// The CPU supports `$features`; `gemm_tile` also needs `t.mr <= MR`,
/// `t.nr <= NR` and `t.in_bounds(c)`, the sparse rows what their kernels
/// state.
macro_rules! entry_points {
    ($isa:ty, $features:literal, [$($m:literal),+]) => {
        #[target_feature(enable = $features)]
        pub unsafe fn gemm_tile(t: &$crate::backend::Tile<'_>, c: &mut [f32]) {
            use $crate::backend::lanes::{tile, Isa};
            debug_assert!(t.mr <= MR && t.nr <= NR && t.in_bounds(c));
            let nv = t.nr.div_ceil(<$isa>::W);
            let tail = <$isa>::lanes(t.nr - (nv - 1) * <$isa>::W);
            if nv == 1 {
                match t.mr {
                    $($m => tile::<$isa, $m, 1>(t, c, tail),)+
                    _ => tile::<$isa, MR, 1>(t, c, tail),
                }
            } else {
                match t.mr {
                    $($m => tile::<$isa, $m, 2>(t, c, tail),)+
                    _ => tile::<$isa, MR, 2>(t, c, tail),
                }
            }
        }

        $crate::backend::lanes::forward_entries! { $isa, $features;
            fn sparse_row_fwd(a: &$crate::backend::SparseAttn<'_>, q_row: &[f32], cols: &[u32], bias: Option<&[&[f32]]>, probs: &mut [&mut [f32]], e0: usize, out_row: &mut [f32]);
            #[allow(clippy::too_many_arguments)]
            fn sparse_row_bwd(a: &$crate::backend::SparseAttn<'_>, q_row: &[f32], do_row: &[f32], cols: &[u32], probs: &[&[f32]], ds: &mut [&mut [f32]], e0: usize, dq_row: &mut [f32], dk: &mut [f32], dv: &mut [f32]);
            fn dot(a: &[f32], b: &[f32]) -> f32;
            fn dot3(a: &[f32], b: &[f32], c: &[f32]) -> f32;
            fn sum(a: &[f32]) -> f32;
            fn sum_sq_diff(a: &[f32], mean: f32) -> f32;
            #[inline]
            fn exp_minus_max_sum(row: &mut [f32], max: f32) -> f32;
            #[inline]
            fn max_ignore_nan(a: &[f32]) -> f32;
            fn axpy(dst: &mut [f32], s: f32, src: &[f32]);
            fn add(a: &[f32], b: &[f32], out: &mut [f32]);
            fn sub(a: &[f32], b: &[f32], out: &mut [f32]);
            fn mul(a: &[f32], b: &[f32], out: &mut [f32]);
            fn scale(a: &[f32], s: f32, out: &mut [f32]);
            fn add_assign(dst: &mut [f32], src: &[f32]);
            fn mul_assign(dst: &mut [f32], src: &[f32]);
            fn mul_acc(dst: &mut [f32], a: &[f32], b: &[f32]);
            #[inline]
            fn scale_assign(dst: &mut [f32], s: f32);
            fn div_assign(dst: &mut [f32], s: f32);
            fn normalize(a: &[f32], mean: f32, inv_std: f32, out: &mut [f32]);
            #[allow(clippy::too_many_arguments)]
            fn ln_grad_combine(dy: &[f32], g: &[f32], xhat: &[f32], sum_dxhat: f32, sum_dxhat_xhat: f32, inv_std: f32, out: &mut [f32]);
            fn gelu(x: &[f32], out: &mut [f32]);
            fn gelu_grad(x: &[f32], dy: &[f32], out: &mut [f32]);
        }
    };
}
pub(crate) use entry_points;

/// One `#[target_feature]` entry point per signature, each forwarding to
/// the generic kernel of the same name.
macro_rules! forward_entries {
    ($isa:ty, $features:literal; $($(#[$attr:meta])* fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)+) => {$(
        $(#[$attr])*
        #[target_feature(enable = $features)]
        pub unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
            $crate::backend::lanes::$name::<$isa>($($arg),*)
        }
    )+};
}
pub(crate) use forward_entries;

#[cfg(test)]
mod tests {
    //! The lane primitives are the only lines that still differ per ISA:
    //! each is checked here, per lane, against a scalar model, under every
    //! ISA this CPU has.

    use super::super::{avx2::Avx2, avx512::Avx512, Backend};
    use super::Isa;

    /// Widest `W` of any ISA.
    const MAX_W: usize = 16;
    /// A value no model produces: it marks memory a primitive must leave alone.
    const CANARY: f32 = -7777.25;
    /// NaN, the infinities, both zeros, a subnormal and ordinary values, so
    /// that rotating one copy against another pairs every class with every
    /// other in both operand orders.
    const SPECIALS: [f32; 11] =
        [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, -0.0, 0.0, 1.0e-40, -1.0, 1.0, 2.5, -3.75, 1.0e30];

    macro_rules! on_each_isa {
        ($check:ident) => {{
            if Backend::Avx2.is_supported() {
                // SAFETY: AVX2 and FMA were just detected.
                unsafe { $check::<Avx2>("avx2") }
            }
            if Backend::Avx512.is_supported() {
                // SAFETY: AVX-512F was just detected.
                unsafe { $check::<Avx512>("avx512") }
            }
        }};
    }

    /// The vector whose lane `i` is `f(i)`.
    unsafe fn vector<I: Isa>(f: impl Fn(usize) -> f32) -> I::V {
        let lanes: [f32; MAX_W] = std::array::from_fn(f);
        I::load(lanes.as_ptr())
    }

    unsafe fn lanes_of<I: Isa>(v: I::V) -> Vec<f32> {
        let mut out = [CANARY; MAX_W];
        I::store(out.as_mut_ptr(), v);
        assert!(out[I::W..].iter().all(|&x| x == CANARY), "store wrote past lane W");
        out[..I::W].to_vec()
    }

    /// Bit equality, except that any NaN equals any NaN.
    fn same(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    unsafe fn assert_lanes<I: Isa>(what: &str, isa: &str, got: I::V, want: impl Fn(usize) -> f32) {
        for (i, &g) in lanes_of::<I>(got).iter().enumerate() {
            assert!(same(g, want(i)), "{isa} {what}: lane {i} is {g:e}, the scalar model says {:e}", want(i));
        }
    }

    fn special(i: usize) -> f32 {
        SPECIALS[i % SPECIALS.len()]
    }

    unsafe fn check_masks_and_memory<I: Isa>(isa: &str) {
        for n in 0..=I::W + 1 {
            let live = n.min(I::W);
            let m = I::lanes(n);
            // A buffer whose first `live` elements are the slice; everything
            // after the last live lane is canary.
            let buf: [f32; MAX_W + 2] = std::array::from_fn(|i| if i < live { i as f32 + 1.0 } else { CANARY });
            assert_lanes::<I>("load_m", isa, I::load_m(buf.as_ptr(), m), |i| if i < live { buf[i] } else { 0.0 });
            assert_lanes::<I>("load_or", isa, I::load_or(buf.as_ptr(), m, I::splat(-9.0)), |i| if i < live { buf[i] } else { -9.0 });
            let mut out = [CANARY; MAX_W + 2];
            I::store_m(out.as_mut_ptr(), m, vector::<I>(|i| 100.0 + i as f32));
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, if i < live { 100.0 + i as f32 } else { CANARY }, "{isa} store_m, n = {n}, element {i}");
            }
            // The same three on a heap slice that really ends at the last
            // live lane (an out-of-bounds touch is then out of the allocation).
            let mut exact: Vec<f32> = (0..live).map(|i| i as f32 + 1.0).collect();
            assert_lanes::<I>("load_m (exact)", isa, I::load_m(exact.as_ptr(), m), |i| if i < live { i as f32 + 1.0 } else { 0.0 });
            assert_lanes::<I>("load_or (exact)", isa, I::load_or(exact.as_ptr(), m, I::splat(-9.0)), |i| if i < live { i as f32 + 1.0 } else { -9.0 });
            I::store_m(exact.as_mut_ptr(), m, I::splat(5.0));
            assert!(exact.iter().all(|&x| x == 5.0), "{isa} store_m (exact), n = {n}");
            // `keep` zeroes masked-out lanes to +0.0 and passes the rest
            // through untouched, NaN and −0.0 included.
            for shift in 0..SPECIALS.len() {
                let v = vector::<I>(|i| special(i + shift));
                assert_lanes::<I>("keep", isa, I::keep(m, v), |i| if i < live { special(i + shift) } else { 0.0 });
            }
        }
    }

    unsafe fn check_lane_arithmetic<I: Isa>(isa: &str) {
        assert_lanes::<I>("zero", isa, I::zero(), |_| 0.0);
        assert_lanes::<I>("splat", isa, I::splat(-0.0), |_| -0.0);
        for sa in 0..SPECIALS.len() {
            for sb in 0..SPECIALS.len() {
                let (fa, fb, fc) = (|i| special(i + sa), |i| special(i + sb), |i| special(2 * i + sa + sb));
                let (a, b, c) = (vector::<I>(fa), vector::<I>(fb), vector::<I>(fc));
                assert_lanes::<I>("add", isa, I::add(a, b), |i| fa(i) + fb(i));
                assert_lanes::<I>("sub", isa, I::sub(a, b), |i| fa(i) - fb(i));
                assert_lanes::<I>("mul", isa, I::mul(a, b), |i| fa(i) * fb(i));
                assert_lanes::<I>("div", isa, I::div(a, b), |i| fa(i) / fb(i));
                assert_lanes::<I>("fmadd", isa, I::fmadd(a, b, c), |i| fa(i).mul_add(fb(i), fc(i)));
                assert_lanes::<I>("fnmadd", isa, I::fnmadd(a, b, c), |i| (-fa(i)).mul_add(fb(i), fc(i)));
                // The operand-order contracts: a NaN in `b` wins, a NaN in
                // `a` loses, and equal zeros of either sign yield `b`'s.
                assert_lanes::<I>("min", isa, I::min(a, b), |i| if fa(i) < fb(i) { fa(i) } else { fb(i) });
                assert_lanes::<I>("max", isa, I::max(a, b), |i| if fa(i) > fb(i) { fa(i) } else { fb(i) });
                // NaN compares false: a NaN lane of `x` keeps `v`'s.
                assert_lanes::<I>("zero_where_lt", isa, I::zero_where_lt(c, a, b), |i| if fa(i) < fb(i) { 0.0 } else { fc(i) });
            }
        }
    }

    unsafe fn check_horizontal<I: Isa>(isa: &str) {
        // Small integers: every association order of the sums is exact.
        let f = |t: usize| move |i: usize| ((i * 7 + t * 13) % 23) as f32 - 11.0;
        let total = |t: usize| (0..I::W).map(f(t)).sum::<f32>();
        for t in 0..4 {
            assert_eq!(I::hsum(vector::<I>(f(t))), total(t), "{isa} hsum");
            let want = (0..I::W).map(f(t)).fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(I::hmax(vector::<I>(f(t))), want, "{isa} hmax");
        }
        assert_eq!(I::hmax(I::splat(f32::NEG_INFINITY)), f32::NEG_INFINITY, "{isa} hmax of the floor");
        let v: [I::V; 4] = [vector::<I>(f(0)), vector::<I>(f(1)), vector::<I>(f(2)), vector::<I>(f(3))];
        for group in 1..=4 {
            for with_bias in [false, true] {
                // Both slices end at the group's last element; canaries follow.
                let bias: [f32; 6] = std::array::from_fn(|t| if t < group { t as f32 * 3.0 - 2.0 } else { CANARY });
                let mut dst = [CANARY; 6];
                I::store_dots4(v, 0.5, with_bias.then_some(bias.as_ptr()), dst.as_mut_ptr(), group);
                for (t, &got) in dst.iter().enumerate() {
                    let want = match t < group {
                        true => 0.5 * total(t) + if with_bias { bias[t] } else { 0.0 },
                        false => CANARY,
                    };
                    assert_eq!(got, want, "{isa} store_dots4, group {group}, bias {with_bias}, element {t}");
                }
            }
        }
    }

    unsafe fn check_round_and_exp2i<I: Isa>(isa: &str) {
        let ties = [0.5f32, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -125.5, 0.49999997, -0.0];
        assert_lanes::<I>("round", isa, I::round(vector::<I>(|i| ties[i % ties.len()])), |i| ties[i % ties.len()].round_ties_even());
        // `exp`'s clamp leaves `x·log₂e` in −126.0 ..= 127.5 (rounding to 127).
        let mut x0 = -126.0f32;
        while x0 <= 127.49 {
            let f = |i: usize| (x0 + i as f32 * 0.061).min(127.49);
            let n = I::round(vector::<I>(f));
            assert_lanes::<I>("round", isa, n, |i| f(i).round_ties_even());
            assert_lanes::<I>("exp2i", isa, I::exp2i(n), |i| f32::from_bits(((f(i).round_ties_even() as i32 + 127) as u32) << 23));
            x0 += 0.97;
        }
    }

    #[test]
    fn masks_and_masked_memory_match_the_lane_model() {
        on_each_isa!(check_masks_and_memory);
    }

    #[test]
    fn lane_arithmetic_matches_scalar_ieee_and_the_operand_order_contracts() {
        on_each_isa!(check_lane_arithmetic);
    }

    #[test]
    fn horizontal_reductions_and_store_dots4_match_exact_sums() {
        on_each_isa!(check_horizontal);
    }

    #[test]
    fn round_is_ties_to_even_and_exp2i_is_exact_over_the_clamp_range() {
        on_each_isa!(check_round_and_exp2i);
    }
}
