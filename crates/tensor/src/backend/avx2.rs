//! AVX2 + FMA backend (256-bit lanes, 8 × f32): the register-tile shape,
//! the lane primitives of [`Avx2`], and the entry points `lanes.rs` stamps
//! out over them. The kernels themselves are written once, in `lanes.rs`.

#![allow(unsafe_op_in_unsafe_fn)]

use super::lanes::{entry_points, Isa};
use std::arch::x86_64::*;

/// Rows of the `gemm_tile` register tile.
pub const MR: usize = 6;
/// Columns of the `gemm_tile` register tile: two 8-lane vectors (12
/// accumulators + 2 `B` vectors + 1 broadcast + 1 product = 16 registers).
pub const NR: usize = 16;

/// Lane masks for `vmaskmov`: the window starting at `8 - n` has its first
/// `n` lanes set.
const LANE_MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The AVX2 + FMA lane primitives; a mask is a `vmaskmov` vector.
pub(crate) struct Avx2;

impl Isa for Avx2 {
    type V = __m256;
    type M = __m256i;
    const W: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> __m256 {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn splat2(lo: f32, hi: f32) -> __m256 {
        _mm256_set_m128(_mm_set1_ps(hi), _mm_set1_ps(lo))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> __m256 {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m256) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn lanes(n: usize) -> __m256i {
        _mm256_loadu_si256(LANE_MASKS.as_ptr().add(8 - n.min(8)).cast())
    }
    #[inline(always)]
    unsafe fn load_m(p: *const f32, m: __m256i) -> __m256 {
        _mm256_maskload_ps(p, m)
    }
    #[inline(always)]
    unsafe fn load_or(p: *const f32, m: __m256i, fill: __m256) -> __m256 {
        _mm256_blendv_ps(fill, _mm256_maskload_ps(p, m), _mm256_castsi256_ps(m))
    }
    #[inline(always)]
    unsafe fn store_m(p: *mut f32, m: __m256i, v: __m256) {
        _mm256_maskstore_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn keep(m: __m256i, v: __m256) -> __m256 {
        _mm256_and_ps(v, _mm256_castsi256_ps(m))
    }
    #[inline(always)]
    unsafe fn add(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m256, b: __m256) -> __m256 {
        _mm256_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m256, b: __m256) -> __m256 {
        _mm256_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m256, b: __m256) -> __m256 {
        _mm256_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m256, b: __m256) -> __m256 {
        _mm256_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m256, b: __m256) -> __m256 {
        _mm256_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn fnmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fnmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn hsum(v: __m256) -> f32 {
        let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s = _mm_add_ps(q, _mm_movehl_ps(q, q));
        _mm_cvtss_f32(_mm_add_ss(s, _mm_movehdup_ps(s)))
    }
    /// [`Isa::hsum`]'s tree — halves, pairs, neighbours — as vertical adds.
    #[inline(always)]
    unsafe fn hsum_lanes(v: &[__m256]) -> __m256 {
        let halves: [__m256; 4] = std::array::from_fn(|t| _mm256_add_ps(v[t], v[t + 4]));
        let pairs = [_mm256_add_ps(halves[0], halves[2]), _mm256_add_ps(halves[1], halves[3])];
        _mm256_add_ps(pairs[0], pairs[1])
    }
    #[inline(always)]
    unsafe fn hmax(v: __m256) -> f32 {
        let q = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s = _mm_max_ps(q, _mm_movehl_ps(q, q));
        _mm_cvtss_f32(_mm_max_ss(s, _mm_movehdup_ps(s)))
    }
    #[inline(always)]
    unsafe fn round(v: __m256) -> __m256 {
        _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v)
    }
    #[inline(always)]
    unsafe fn exp2i(n: __m256) -> __m256 {
        let biased = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased))
    }
    #[inline(always)]
    unsafe fn zero_where_lt(v: __m256, x: __m256, lim: __m256) -> __m256 {
        _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, lim), v)
    }
    /// Three `hadd`s and a fold of the two halves leave the four sums in one
    /// 128-bit register; the scale, bias and store stay that narrow.
    #[inline(always)]
    unsafe fn store_dots4(v: [__m256; 4], scale: f32, bias: Option<*const f32>, dst: *mut f32, group: usize) {
        let quads = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
        let sums = _mm_add_ps(_mm256_castps256_ps128(quads), _mm256_extractf128_ps::<1>(quads));
        let live = _mm256_castsi256_si128(Self::lanes(group));
        let mut dots = _mm_mul_ps(sums, _mm_set1_ps(scale));
        if let Some(b) = bias {
            dots = _mm_add_ps(dots, _mm_maskload_ps(b, live));
        }
        _mm_maskstore_ps(dst, live, dots);
    }
    /// The three `hadd`s leave head 0's four sums in the low 128 bits and
    /// head 1's in the high ones; `store_dots4`'s fold adds the zero half
    /// to each (`+ 0.0`), then each is scaled, biased and stored as there.
    #[inline(always)]
    unsafe fn store_dots4x2(v: [__m256; 4], scale: f32, bias: Option<[*const f32; 2]>, dst: [*mut f32; 2], group: usize) {
        let quads = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
        let z = _mm_setzero_ps();
        let sums = [_mm_add_ps(_mm256_castps256_ps128(quads), z), _mm_add_ps(_mm256_extractf128_ps::<1>(quads), z)];
        let live = _mm256_castsi256_si128(Self::lanes(group));
        for (k, sums) in sums.into_iter().enumerate() {
            let mut dots = _mm_mul_ps(sums, _mm_set1_ps(scale));
            if let Some(b) = bias {
                dots = _mm_add_ps(dots, _mm_maskload_ps(b[k], live));
            }
            _mm_maskstore_ps(dst[k], live, dots);
        }
    }
}

entry_points!(Avx2, "avx2,fma", [1, 2, 3, 4, 5]);
