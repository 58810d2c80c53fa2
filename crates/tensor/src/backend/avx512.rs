//! AVX-512F backend (512-bit lanes, 16 × f32): the register-tile shape,
//! the lane primitives of [`Avx512`], and the entry points `lanes.rs` stamps
//! out over them. The kernels themselves are written once, in `lanes.rs`.

#![allow(unsafe_op_in_unsafe_fn)]

use super::lanes::{entry_points, Isa};
use std::arch::x86_64::*;

/// Rows of the `gemm_tile` register tile.
pub const MR: usize = 12;
/// Columns of the `gemm_tile` register tile: two 16-lane vectors (24
/// accumulators + 2 `B` vectors + 1 broadcast + 1 product of the 32
/// registers).
pub const NR: usize = 32;

/// Round-to-nearest-int, exceptions suppressed (imm8 for roundscale).
const RN: i32 = 0x08;

/// The AVX-512F lane primitives; a mask is a `k` register.
pub(crate) struct Avx512;

impl Isa for Avx512 {
    type V = __m512;
    type M = __mmask16;
    const W: usize = 16;

    #[inline(always)]
    unsafe fn zero() -> __m512 {
        _mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m512 {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn splat2(lo: f32, hi: f32) -> __m512 {
        _mm512_mask_broadcastss_ps(_mm512_set1_ps(lo), 0xFF00, _mm_set_ss(hi))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> __m512 {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m512) {
        _mm512_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn lanes(n: usize) -> __mmask16 {
        if n >= 16 {
            0xFFFF
        } else {
            (1u16 << n) - 1
        }
    }
    #[inline(always)]
    unsafe fn load_m(p: *const f32, m: __mmask16) -> __m512 {
        _mm512_maskz_loadu_ps(m, p)
    }
    #[inline(always)]
    unsafe fn load_or(p: *const f32, m: __mmask16, fill: __m512) -> __m512 {
        _mm512_mask_loadu_ps(fill, m, p)
    }
    #[inline(always)]
    unsafe fn store_m(p: *mut f32, m: __mmask16, v: __m512) {
        _mm512_mask_storeu_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn keep(m: __mmask16, v: __m512) -> __m512 {
        _mm512_maskz_mov_ps(m, v)
    }
    #[inline(always)]
    unsafe fn add(a: __m512, b: __m512) -> __m512 {
        _mm512_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m512, b: __m512) -> __m512 {
        _mm512_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m512, b: __m512) -> __m512 {
        _mm512_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m512, b: __m512) -> __m512 {
        _mm512_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m512, b: __m512) -> __m512 {
        _mm512_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m512, b: __m512) -> __m512 {
        _mm512_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn fnmadd(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_fnmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn hsum(v: __m512) -> f32 {
        _mm512_reduce_add_ps(v)
    }
    /// `_mm512_reduce_add_ps`'s tree — halves, quarters, pairs, neighbours —
    /// as vertical adds.
    #[inline(always)]
    unsafe fn hsum_lanes(v: &[__m512]) -> __m512 {
        let halves: [__m512; 8] = std::array::from_fn(|t| _mm512_add_ps(v[t], v[t + 8]));
        let quarters: [__m512; 4] = std::array::from_fn(|t| _mm512_add_ps(halves[t], halves[t + 4]));
        let pairs = [_mm512_add_ps(quarters[0], quarters[2]), _mm512_add_ps(quarters[1], quarters[3])];
        _mm512_add_ps(pairs[0], pairs[1])
    }
    #[inline(always)]
    unsafe fn hmax(v: __m512) -> f32 {
        _mm512_reduce_max_ps(v)
    }
    #[inline(always)]
    unsafe fn round(v: __m512) -> __m512 {
        _mm512_roundscale_ps::<RN>(v)
    }
    #[inline(always)]
    unsafe fn exp2i(n: __m512) -> __m512 {
        let biased = _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127));
        _mm512_castsi512_ps(_mm512_slli_epi32::<23>(biased))
    }
    #[inline(always)]
    unsafe fn zero_where_lt(v: __m512, x: __m512, lim: __m512) -> __m512 {
        _mm512_maskz_mov_ps(!_mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, lim), v)
    }
    /// One shared tree — halves, quarters, pairs, neighbours — costs 9
    /// shuffles and 5 adds where four separate reductions cost 16 and 16.
    #[inline(always)]
    unsafe fn store_dots4(v: [__m512; 4], scale: f32, bias: Option<*const f32>, dst: *mut f32, group: usize) {
        // 0x44 / 0xEE pick the low / high 256 bits of both operands.
        let ab = _mm512_add_ps(_mm512_shuffle_f32x4::<0x44>(v[0], v[1]), _mm512_shuffle_f32x4::<0xEE>(v[0], v[1]));
        let cd = _mm512_add_ps(_mm512_shuffle_f32x4::<0x44>(v[2], v[3]), _mm512_shuffle_f32x4::<0xEE>(v[2], v[3]));
        // 0x88 / 0xDD pick the even / odd 128-bit lanes: one lane per input now.
        let abcd = _mm512_add_ps(_mm512_shuffle_f32x4::<0x88>(ab, cd), _mm512_shuffle_f32x4::<0xDD>(ab, cd));
        // Inside each lane: swap the 64-bit halves, then neighbours.
        let pairs = _mm512_add_ps(abcd, _mm512_shuffle_ps::<0x4E>(abcd, abcd));
        let sums = _mm512_add_ps(pairs, _mm512_shuffle_ps::<0xB1>(pairs, pairs));
        let first = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
        let live = Self::lanes(group);
        let mut dots = _mm512_mul_ps(_mm512_permutexvar_ps(first, sums), _mm512_set1_ps(scale));
        if let Some(b) = bias {
            dots = _mm512_add_ps(dots, _mm512_maskz_loadu_ps(live, b));
        }
        _mm512_mask_storeu_ps(dst, live, dots);
    }
    /// `store_dots4`'s tree on each 8-lane half: its first step adds the
    /// zero half (`+ 0.0` on every lane), then the quarters of each half,
    /// pairs and neighbours as there; a two-source permute gathers the eight
    /// sums, head 0's in lanes 0–3 and head 1's in lanes 4–7.
    #[inline(always)]
    unsafe fn store_dots4x2(v: [__m512; 4], scale: f32, bias: Option<[*const f32; 2]>, dst: [*mut f32; 2], group: usize) {
        let z = _mm512_setzero_ps();
        let v = [_mm512_add_ps(v[0], z), _mm512_add_ps(v[1], z), _mm512_add_ps(v[2], z), _mm512_add_ps(v[3], z)];
        // 0x88 / 0xDD pick the even / odd 128-bit lanes: each lane of the
        // result is one (edge, head)'s four partial sums.
        let ab = _mm512_add_ps(_mm512_shuffle_f32x4::<0x88>(v[0], v[1]), _mm512_shuffle_f32x4::<0xDD>(v[0], v[1]));
        let cd = _mm512_add_ps(_mm512_shuffle_f32x4::<0x88>(v[2], v[3]), _mm512_shuffle_f32x4::<0xDD>(v[2], v[3]));
        // Inside each 128-bit lane: swap the 64-bit halves, then neighbours.
        let ab = _mm512_add_ps(ab, _mm512_shuffle_ps::<0x4E>(ab, ab));
        let ab = _mm512_add_ps(ab, _mm512_shuffle_ps::<0xB1>(ab, ab));
        let cd = _mm512_add_ps(cd, _mm512_shuffle_ps::<0x4E>(cd, cd));
        let cd = _mm512_add_ps(cd, _mm512_shuffle_ps::<0xB1>(cd, cd));
        // Lane 0 of each 128-bit lane: ab = [e0 h0, e0 h1, e1 h0, e1 h1], cd likewise for edges 2, 3.
        let first = _mm512_setr_epi32(0, 8, 16, 24, 4, 12, 20, 28, 0, 0, 0, 0, 0, 0, 0, 0);
        let mut dots = _mm512_mul_ps(_mm512_permutex2var_ps(ab, first, cd), _mm512_set1_ps(scale));
        let (lo, hi) = (Self::lanes(group), Self::lanes(group) << 4);
        if let Some([b0, b1]) = bias {
            // Head 1's bias and output sit in lanes 4–7: address them from 4 floats back.
            let b = _mm512_mask_loadu_ps(_mm512_maskz_loadu_ps(lo, b0), hi, b1.wrapping_sub(4));
            dots = _mm512_add_ps(dots, b);
        }
        _mm512_mask_storeu_ps(dst[0], lo, dots);
        _mm512_mask_storeu_ps(dst[1].wrapping_sub(4), hi, dots);
    }
}

entry_points!(Avx512, "avx512f", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
