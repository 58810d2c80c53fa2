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
//! instead, so no row mixes libm and polynomial `exp`. The sparse forward's
//! one-row-per-lane softmax and the row tiles (`*_rows`) are built from
//! those same pieces, so they keep their bits.
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

use super::{scalar, MaskRows, Rows, SparseAttn, Tile};
use std::mem::MaybeUninit;

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
    /// `lo` in the low `W/2` lanes, `hi` in the high ones.
    unsafe fn splat2(lo: f32, hi: f32) -> Self::V;
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
    /// [`Isa::hsum`] of `W` rows at once, one row per lane: lane `r` of the
    /// result is `hsum` of the vector whose lane `t` is lane `r` of `v[t]`,
    /// through the same tree, so each lane's sum has `hsum`'s bits. `v`
    /// holds `W` vectors.
    unsafe fn hsum_lanes(v: &[Self::V]) -> Self::V;
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
    /// [`Isa::store_dots4`] of two heads at once: `v[t]` holds the products
    /// of two heads of `W/2` lanes each, the first head in the low half, and
    /// `dst[k][t]` gets, bit for bit, what `store_dots4` stores for head
    /// `k`'s half alone with the other half zero. `bias[k][t]` and
    /// `dst[k][t]` are touched for `t < group` only.
    unsafe fn store_dots4x2(v: [Self::V; 4], scale: f32, bias: Option<[*const f32; 2]>, dst: [*mut f32; 2], group: usize);
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
/// Heads of `W/2` columns go two to a vector ([`Isa::store_dots4x2`]), with
/// the bits of one head per vector.
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
        let mut h = 0usize;
        while h + 1 < heads && 2 * dh == I::W {
            let xv = I::load(x.add(h * dh));
            let mut prod = [I::zero(); 4];
            for (prod, row) in prod.iter_mut().zip(rows) {
                *prod = I::fmadd(xv, I::load(row.add(h * dh)), *prod);
            }
            let bias = bias.map(|b| [b[h].as_ptr().add(e0 + e), b[h + 1].as_ptr().add(e0 + e)]);
            let pair = [dst[h].as_mut_ptr().add(e0 + e), dst[h + 1].as_mut_ptr().add(e0 + e)];
            I::store_dots4x2(prod, scale, bias, pair, group);
            h += 2;
        }
        for h in h..heads {
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

/// Longest row the sparse forward runs one row per lane: a lane group's
/// softmax costs as many steps as its longest row has edges, plus a move in
/// and out of the lane tile per edge, so a longer row runs alone, through
/// the row-wise kernels. Measured on the 2-core AVX-512 host (forward,
/// alternating with the row-wise kernels in one process): at the
/// `graph_batched` shape (≤ 8 edges a row) the lanes took the forward to
/// ×0.74–0.85 for a cap of 8, 12 or 16; at `node_long`'s (13.6 a row) every
/// cap above 0 cost time unless lane groups were required to be half full.
const LANE_ROW_CAP: usize = 8;
/// Widest `W` of any ISA: the lane tiles are sized for it.
const MAX_W: usize = 16;

/// Up to `W` consecutive rows of a mask block, one per lane, as the
/// one-row-per-lane kernels see them: lane `r` holds the row whose `n[r]`
/// edges start at position `at[r]` of the per-head slices. A lane without
/// a row — past the block's end, or holding a row longer than
/// [`LANE_ROW_CAP`] — has `n[r] = 0`.
struct LaneRows {
    at: [usize; MAX_W],
    n: [usize; MAX_W],
    /// `max(n)`: the steps a lane-wise pass takes; 0 when no row runs one
    /// per lane.
    longest: usize,
}

impl LaneRows {
    /// Rows `g0 .. g0 + lanes` of `m` — none of them when fewer than half
    /// of `W` lanes would hold a row (the pass costs the same either way).
    #[inline(always)]
    fn new<I: Isa>(m: &MaskRows<'_>, g0: usize, lanes: usize) -> Self {
        let (mut at, mut n, mut longest, mut rows) = ([0; MAX_W], [0; MAX_W], 0, 0);
        for r in 0..lanes {
            let e = m.edges(g0 + r);
            if e.len() <= LANE_ROW_CAP {
                (at[r], n[r], longest, rows) = (e.start, e.len(), longest.max(e.len()), rows + 1);
            }
        }
        match 2 * rows >= I::W {
            true => Self { at, n, longest },
            false => Self { at, n: [0; MAX_W], longest: 0 },
        }
    }
}

/// A lane tile: `LANE_ROW_CAP` vectors, vector `e` holding edge `e` of
/// every lane's row. Only the first `longest` vectors are ever written or
/// read.
type LaneTile = MaybeUninit<[f32; LANE_ROW_CAP * MAX_W]>;

/// Vector `e` of a lane tile.
#[inline(always)]
unsafe fn tile_at<I: Isa>(t: &mut LaneTile, e: usize) -> *mut f32 {
    t.as_mut_ptr().cast::<f32>().add(e * I::W)
}

/// Lane tile ← per-head slice: vectors `0 .. longest` set to `−∞`, then
/// edge `e` of lane `r`'s row (at `src[at[r] + e]`) into lane `r` of
/// vector `e`.
#[inline(always)]
unsafe fn tile_in<I: Isa>(t: &mut LaneTile, l: &LaneRows, src: *const f32) {
    for e in 0..l.longest {
        I::store(tile_at::<I>(t, e), I::splat(f32::NEG_INFINITY));
    }
    for r in 0..I::W {
        for e in 0..l.n[r] {
            *tile_at::<I>(t, e).add(r) = *src.add(l.at[r] + e);
        }
    }
}

/// Per-head slice ← lane tile: the inverse of [`tile_in`], lanes' real
/// edges only.
#[inline(always)]
unsafe fn tile_out<I: Isa>(t: &mut LaneTile, l: &LaneRows, dst: *mut f32) {
    for r in 0..I::W {
        for e in 0..l.n[r] {
            *dst.add(l.at[r] + e) = *tile_at::<I>(t, e).add(r);
        }
    }
}

/// The softmax of one row's scores in place — what the row-wise kernels
/// compute per row, and what [`softmax_lanes`] reproduces lane by lane.
#[inline(always)]
unsafe fn softmax_row<I: Isa>(p: &mut [f32]) {
    let max = max_ignore_nan::<I>(p);
    let den = exp_minus_max_sum::<I>(p, max);
    scale_assign::<I>(p, 1.0 / den.max(f32::MIN_POSITIVE));
}

/// [`softmax_row`] of every lane row of `l` at once, one row per lane, in
/// the per-head slice `p`, with each row's bits. The maximum is order-free.
/// The `exp` is element-wise. The sum keeps `exp_minus_max_sum`'s vector
/// accumulator, one vector per lane position (edge `e` adds into position
/// `e mod W`), then folds the positions through [`Isa::hsum_lanes`] —
/// `hsum`'s tree. Past a lane's row the tile holds `−∞`: its `exp` is
/// `+0.0`, which added to a sum that is never `−0.0` changes no bit — unless
/// the row's maximum is `−∞` too, and then every edge of the row is NaN
/// already.
#[inline(always)]
unsafe fn softmax_lanes<I: Isa>(p: *mut f32, l: &LaneRows) {
    if l.longest == 0 {
        return;
    }
    let mut t = LaneTile::uninit();
    tile_in::<I>(&mut t, l, p);
    let mut max = I::splat(f32::NEG_INFINITY);
    for e in 0..l.longest {
        max = I::max(I::load(tile_at::<I>(&mut t, e)), max);
    }
    let mut acc = [I::zero(); MAX_W];
    for e in 0..l.longest {
        let at = tile_at::<I>(&mut t, e);
        let x = exp::<I>(I::sub(I::load(at), max));
        I::store(at, x);
        acc[e % I::W] = I::add(acc[e % I::W], x);
    }
    let den = I::hsum_lanes(&acc[..I::W]);
    let inv = I::div(I::splat(1.0), I::max(den, I::splat(f32::MIN_POSITIVE)));
    for e in 0..l.longest {
        let at = tile_at::<I>(&mut t, e);
        I::store(at, I::mul(I::load(at), inv));
    }
    tile_out::<I>(&mut t, l, p);
}

/// The softmax Jacobian of one row in place: `ds = p ∘ (dp − p·dp)` with
/// `dp` parked in `ds`.
#[inline(always)]
unsafe fn jacobian_row<I: Isa>(p: *const f32, ds: *mut f32, n: usize) {
    let p_dot_dp = I::splat(dot_masked::<I>(p, ds, n));
    let mut i = 0usize;
    while i < n {
        let m = I::lanes(n - i);
        let centred = I::sub(I::load_m(ds.add(i), m), p_dot_dp);
        I::store_m(ds.add(i), m, I::mul(I::load_m(p.add(i), m), centred));
        i += I::W;
    }
}

/// `out_h = Σ_e p[h][e0 + e] · v_{cols[e],h}` for every head, one register
/// per `W` columns of a head — or, for heads of `W/2` columns, one register
/// per two heads (each lane's chain of multiply-adds is the same).
///
/// # Safety
/// `out` is a `heads·d_head` row, `v` holds every row `cols` names, every
/// `probs` slice reaches `e0 + cols.len()`.
#[inline(always)]
unsafe fn row_pv<I: Isa>(a: &SparseAttn<'_>, cols: &[u32], probs: &[&mut [f32]], e0: usize, out: *mut f32) {
    let (dh, d, v) = (a.d_head, a.heads * a.d_head, a.v.as_ptr());
    let mut h = 0usize;
    while h + 1 < a.heads && 2 * dh == I::W {
        let (p0, p1, col) = (probs[h].as_ptr().add(e0), probs[h + 1].as_ptr().add(e0), h * dh);
        let mut acc = I::zero();
        for (e, &j) in cols.iter().enumerate() {
            acc = I::fmadd(I::splat2(*p0.add(e), *p1.add(e)), I::load(v.add(j as usize * d + col)), acc);
        }
        I::store(out.add(col), acc);
        h += 2;
    }
    for (h, p) in probs.iter().enumerate().skip(h) {
        let p = p.as_ptr().add(e0);
        let mut c = 0usize;
        while c < dh {
            let (m, col) = (I::lanes(dh - c), h * dh + c);
            let mut acc = I::zero();
            for (e, &j) in cols.iter().enumerate() {
                let vj = I::load_m(v.add(j as usize * d + col), m);
                acc = I::fmadd(I::splat(*p.add(e)), vj, acc);
            }
            I::store_m(out.add(col), m, acc);
            c += I::W;
        }
    }
}

/// One row's `dq_h = scale · Σ_e ds·k_{cols[e],h}` (in a register) for
/// every head, and its terms added into rows `cols[e]` of `dk` / `dv`,
/// edges ascending; heads of `W/2` columns go two to a register, as in
/// [`row_pv`].
///
/// # Safety
/// `q`, `dout` and `dq` are `heads·d_head` rows, `dk` / `dv` are shaped like
/// `a.k` and hold every row `cols` names, every `probs` / `ds` slice
/// reaches `e0 + cols.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn row_grads<I: Isa>(
    a: &SparseAttn<'_>,
    (q, dout, dq): (*const f32, *const f32, *mut f32),
    cols: &[u32],
    probs: &[&[f32]],
    ds: &[&mut [f32]],
    e0: usize,
    dk: *mut f32,
    dv: *mut f32,
) {
    let (dh, d, k) = (a.d_head, a.heads * a.d_head, a.k.as_ptr());
    let mut h = 0usize;
    while h + 1 < a.heads && 2 * dh == I::W {
        let (p0, p1) = (probs[h].as_ptr().add(e0), probs[h + 1].as_ptr().add(e0));
        let (ds0, ds1) = (ds[h].as_ptr().add(e0), ds[h + 1].as_ptr().add(e0));
        let col = h * dh;
        let (qv, dov) = (I::load(q.add(col)), I::load(dout.add(col)));
        let mut acc = I::zero();
        for (e, &j) in cols.iter().enumerate() {
            let at = j as usize * d + col;
            let scaled = I::splat2(*ds0.add(e) * a.scale, *ds1.add(e) * a.scale);
            acc = I::fmadd(scaled, I::load(k.add(at)), acc);
            I::store(dk.add(at), I::fmadd(scaled, qv, I::load(dk.add(at))));
            I::store(dv.add(at), I::fmadd(I::splat2(*p0.add(e), *p1.add(e)), dov, I::load(dv.add(at))));
        }
        I::store(dq.add(col), acc);
        h += 2;
    }
    for h in h..a.heads {
        let (p, dsr) = (probs[h].as_ptr().add(e0), ds[h].as_ptr().add(e0));
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

/// The forward of a block of sparse rows (see
/// [`super::Backend::sparse_rows_fwd`]), `W` rows at a time. The rows of a
/// group that [`LaneRows`] takes run their scores row by row
/// ([`row_dots`]), then their softmaxes one row per lane, then `P·V` row by
/// row; every other row runs all three alone. Every `(row, head)` has the
/// bits of the row-wise kernel.
///
/// # Safety
/// The operands passed `Backend::sparse_rows_fwd`'s shape checks: `q` and
/// `out` are `m.rows()` rows of `heads·d_head`, every column indexes a row
/// of `a.k` / `a.v`, and every `probs` / `bias` slice reaches `m.cols.len()`.
#[inline(always)]
pub(crate) unsafe fn sparse_rows_fwd<I: Isa>(
    a: &SparseAttn<'_>,
    q: &[f32],
    m: MaskRows<'_>,
    bias: Option<&[&[f32]]>,
    probs: &mut [&mut [f32]],
    out: &mut [f32],
) {
    let d = a.heads * a.d_head;
    let (k, q, out) = (a.k.as_ptr(), q.as_ptr(), out.as_mut_ptr());
    let mut g0 = 0usize;
    while g0 < m.rows() {
        let g1 = (g0 + I::W).min(m.rows());
        let lanes = LaneRows::new::<I>(&m, g0, g1 - g0);
        let alone = |e: &std::ops::Range<usize>| lanes.longest == 0 || e.len() > LANE_ROW_CAP;
        for i in g0..g1 {
            let e = m.edges(i);
            if !alone(&e) {
                row_dots::<I>(q.add(i * d), k, (a.heads, a.d_head), &m.cols[e.clone()], a.scale, bias, probs, e.start);
            }
        }
        for p in probs.iter_mut() {
            softmax_lanes::<I>(p.as_mut_ptr(), &lanes);
        }
        for i in g0..g1 {
            let e = m.edges(i);
            if alone(&e) {
                row_dots::<I>(q.add(i * d), k, (a.heads, a.d_head), &m.cols[e.clone()], a.scale, bias, probs, e.start);
                for p in probs.iter_mut() {
                    softmax_row::<I>(&mut p[e.clone()]);
                }
            }
            row_pv::<I>(a, &m.cols[e.clone()], probs, e.start, out.add(i * d));
        }
        g0 = g1;
    }
}

/// The backward of a block of sparse rows (see
/// [`super::Backend::sparse_rows_bwd`]), row by row in ascending order:
/// `dp` ([`row_dots`], parked in `ds`), the softmax Jacobian
/// ([`jacobian_row`]), then `dq` and the `dk` / `dv` additions
/// ([`row_grads`]).
///
/// # Safety
/// The operands passed `Backend::sparse_rows_bwd`'s shape checks: `q`,
/// `dout` and `dq` are `m.rows()` rows of `heads·d_head`, `dk` / `dv` are
/// shaped like `a.k`, every column indexes one of their rows, and every
/// `probs` / `ds` slice reaches `m.cols.len()`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn sparse_rows_bwd<I: Isa>(
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
    let (q, dout, dq) = (q.as_ptr(), dout.as_ptr(), dq.as_mut_ptr());
    let (dk, dv, v) = (dk.as_mut_ptr(), dv.as_mut_ptr(), a.v.as_ptr());
    for i in 0..m.rows() {
        let e = m.edges(i);
        let cols = &m.cols[e.clone()];
        row_dots::<I>(dout.add(i * d), v, (a.heads, a.d_head), cols, 1.0, None, ds, e.start);
        for (p, dsr) in probs.iter().zip(ds.iter_mut()) {
            jacobian_row::<I>(p.as_ptr().add(e.start), dsr.as_mut_ptr().add(e.start), e.len());
        }
        row_grads::<I>(a, (q.add(i * d), dout.add(i * d), dq.add(i * d)), cols, probs, ds, e.start, dk, dv);
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

/// `row += bias` for every row (see [`super::Backend::add_bias_rows`]).
#[inline(always)]
pub(crate) unsafe fn add_bias_rows<I: Isa>(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len().max(1)) {
        add_assign::<I>(row, bias);
    }
}

/// `acc += Σ rows`, ascending (see [`super::Backend::col_sum_rows`]).
#[inline(always)]
pub(crate) unsafe fn col_sum_rows<I: Isa>(a: Rows<'_>, acc: &mut [f32]) {
    for r in 0..a.rows {
        add_assign::<I>(acc, a.row(r));
    }
}

/// [`gelu`] row by row (see [`super::Backend::gelu_rows`]).
#[inline(always)]
pub(crate) unsafe fn gelu_rows<I: Isa>(x: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu::<I>(x.row(r), o);
    }
}

/// [`gelu_grad`] row by row (see [`super::Backend::gelu_grad_rows`]).
#[inline(always)]
pub(crate) unsafe fn gelu_grad_rows<I: Isa>(x: Rows<'_>, dy: Rows<'_>, out: &mut [f32]) {
    for (r, o) in out.chunks_exact_mut(x.cols.max(1)).enumerate() {
        gelu_grad::<I>(x.row(r), dy.row(r), o);
    }
}

/// LayerNorm row by row (see [`super::Backend::layer_norm_rows`]): the
/// statements of `scalar::layer_norm_rows` over this ISA's slice kernels.
#[inline(always)]
pub(crate) unsafe fn layer_norm_rows<I: Isa>(
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
        let mean = sum::<I>(row) / cols as f32;
        let var = sum_sq_diff::<I>(row, mean) / cols as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        match &mut stats {
            Some((xhat, inv)) => {
                inv[r] = inv_std;
                let xhat_row = &mut xhat[r * cols..(r + 1) * cols];
                normalize::<I>(row, mean, inv_std, xhat_row);
                mul::<I>(xhat_row, g, out_row);
            }
            None => {
                normalize::<I>(row, mean, inv_std, out_row);
                mul_assign::<I>(out_row, g);
            }
        }
        add_assign::<I>(out_row, b);
    }
}

/// `x̂·γ + β` row by row (see [`super::Backend::layer_norm_affine_rows`]).
#[inline(always)]
pub(crate) unsafe fn layer_norm_affine_rows<I: Isa>(xhat: Rows<'_>, g: &[f32], b: &[f32], out: &mut [f32]) {
    for (r, out_row) in out.chunks_exact_mut(xhat.cols.max(1)).enumerate() {
        mul::<I>(xhat.row(r), g, out_row);
        add_assign::<I>(out_row, b);
    }
}

/// LayerNorm backward row by row (see
/// [`super::Backend::layer_norm_grad_rows`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn layer_norm_grad_rows<I: Isa>(
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
        mul_acc::<I>(dgamma, dyr, xr);
        add_assign::<I>(dbeta, dyr);
        let sum_dxhat = dot::<I>(dyr, g);
        let sum_dxhat_xhat = dot3::<I>(dyr, g, xr);
        ln_grad_combine::<I>(dyr, g, xr, sum_dxhat, sum_dxhat_xhat, inv_std[r], dx_row);
    }
}

/// The 22 `#[target_feature]` functions `dispatch!` calls, stamped into an
/// ISA's module: `entry_points!(Isa, "features", [row counts below MR])`.
/// Each is the kernel of the same name above instantiated for `$isa`;
/// `gemm_tile` picks the `M × NV` register tile for `t.mr ≤ MR` rows and
/// one or two vectors of columns, `MR` and `NR` being the module's own.
///
/// # Safety
/// The CPU supports `$features`; `gemm_tile` also needs `t.mr <= MR`,
/// `t.nr <= NR` and `t.in_bounds(c)`, the sparse rows what their kernels
/// state, the row tiles rows inside their storage.
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
            fn sparse_rows_fwd(a: &$crate::backend::SparseAttn<'_>, q: &[f32], m: $crate::backend::MaskRows<'_>, bias: Option<&[&[f32]]>, probs: &mut [&mut [f32]], out: &mut [f32]);
            #[allow(clippy::too_many_arguments)]
            fn sparse_rows_bwd(a: &$crate::backend::SparseAttn<'_>, q: &[f32], dout: &[f32], m: $crate::backend::MaskRows<'_>, probs: &[&[f32]], ds: &mut [&mut [f32]], dq: &mut [f32], dk: &mut [f32], dv: &mut [f32]);
            fn add_bias_rows(rows: &mut [f32], bias: &[f32]);
            fn col_sum_rows(a: $crate::backend::Rows<'_>, acc: &mut [f32]);
            fn gelu_rows(x: $crate::backend::Rows<'_>, out: &mut [f32]);
            fn gelu_grad_rows(x: $crate::backend::Rows<'_>, dy: $crate::backend::Rows<'_>, out: &mut [f32]);
            fn layer_norm_rows(x: $crate::backend::Rows<'_>, g: &[f32], b: &[f32], eps: f32, out: &mut [f32], stats: Option<(&mut [f32], &mut [f32])>);
            fn layer_norm_affine_rows(xhat: $crate::backend::Rows<'_>, g: &[f32], b: &[f32], out: &mut [f32]);
            #[allow(clippy::too_many_arguments)]
            fn layer_norm_grad_rows(xhat: $crate::backend::Rows<'_>, inv_std: &[f32], g: &[f32], dy: $crate::backend::Rows<'_>, dx: &mut [f32], dgamma: &mut [f32], dbeta: &mut [f32]);
            fn dot(a: &[f32], b: &[f32]) -> f32;
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
            #[inline]
            fn scale_assign(dst: &mut [f32], s: f32);
            fn div_assign(dst: &mut [f32], s: f32);
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
mod oracle;

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
        assert_lanes::<I>("splat2", isa, I::splat2(-0.0, f32::NAN), |i| if i < I::W / 2 { -0.0 } else { f32::NAN });
        assert_lanes::<I>("splat2", isa, I::splat2(2.5, -1.0e-40), |i| if i < I::W / 2 { 2.5 } else { -1.0e-40 });
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

    unsafe fn check_hsum_lanes<I: Isa>(isa: &str) {
        // Magnitudes far apart, so every association order rounds
        // differently and only `hsum`'s own tree gives its bits.
        let mags = [1.0e8f32, -3.0, 1.0e-3, -7.5e7, 0.1, 2.5e4, -1.0e-5, 33.0];
        for round in 0..6usize {
            let f = |t: usize, r: usize| mags[(t * 5 + r * 3 + round) % mags.len()] * (1.0 + (t * 16 + r) as f32 * 1.0e-3);
            let rows: Vec<I::V> = (0..I::W).map(|t| vector::<I>(|r| f(t, r))).collect();
            let got = lanes_of::<I>(I::hsum_lanes(&rows));
            for (r, &g) in got.iter().enumerate() {
                let want = I::hsum(vector::<I>(|t| f(t, r)));
                assert_eq!(g.to_bits(), want.to_bits(), "{isa} hsum_lanes, round {round}, lane {r}: {g:e} vs hsum {want:e}");
            }
        }
    }

    unsafe fn check_store_dots4x2<I: Isa>(isa: &str) {
        // Order-sensitive magnitudes and zeros of both signs (a half of
        // `−0.0` products is where the zero half's `+ 0.0` shows).
        let mags = [1.0e8f32, -3.0, 1.0e-3, -7.5e7, 0.1, -0.0, 2.5e4, -1.0e-5, 33.0, 0.0];
        let half = I::W / 2;
        for round in 0..8usize {
            let f = |t: usize, i: usize| match round {
                7 => -0.0,
                _ => mags[(t * 7 + i * 3 + round) % mags.len()] * (1.0 + (t * 16 + i) as f32 * 1.0e-3),
            };
            let both: [I::V; 4] = std::array::from_fn(|t| vector::<I>(|i| f(t, i)));
            for group in 1..=4 {
                for with_bias in [false, true] {
                    let bias: [[f32; 6]; 2] =
                        std::array::from_fn(|k| std::array::from_fn(|t| if t < group { t as f32 * 3.0 - 2.0 + k as f32 } else { CANARY }));
                    let mut got = [[CANARY; 6]; 2];
                    let biases = with_bias.then(|| [bias[0].as_ptr(), bias[1].as_ptr()]);
                    I::store_dots4x2(both, 0.5, biases, [got[0].as_mut_ptr(), got[1].as_mut_ptr()], group);
                    for k in 0..2 {
                        // Head `k` alone, as the one-head path loads it: in the low half.
                        let alone: [I::V; 4] = std::array::from_fn(|t| vector::<I>(|i| if i < half { f(t, i + k * half) } else { 0.0 }));
                        let mut want = [CANARY; 6];
                        I::store_dots4(alone, 0.5, with_bias.then_some(bias[k].as_ptr()), want.as_mut_ptr(), group);
                        for t in 0..6 {
                            assert_eq!(
                                got[k][t].to_bits(),
                                want[t].to_bits(),
                                "{isa} store_dots4x2, round {round}, group {group}, bias {with_bias}, head {k}, element {t}: {:e} vs {:e}",
                                got[k][t],
                                want[t]
                            );
                        }
                    }
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
    fn store_dots4x2_is_store_dots4_per_half() {
        on_each_isa!(check_store_dots4x2);
    }

    #[test]
    fn hsum_lanes_is_hsum_lane_by_lane() {
        on_each_isa!(check_hsum_lanes);
    }

    #[test]
    fn round_is_ties_to_even_and_exp2i_is_exact_over_the_clamp_range() {
        on_each_isa!(check_round_and_exp2i);
    }
}
