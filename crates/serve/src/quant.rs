//! Post-training weight quantization.
//!
//! Weights are quantized **per row** with a symmetric scheme: each row gets
//! one f32 scale `s = maxabs(row) / Q_MAX` and stores `round(x / s)` clamped
//! to the integer range. Symmetric quantization keeps zero exactly
//! representable (bias rows and ReLU-sparse tensors stay exact at zero) and
//! dequantization is a single multiply. Per-row granularity matters because
//! a Linear stores `w` as `[in, out]`: a row is one input feature's fan-out,
//! and feature magnitudes vary far more across rows than within one.
//!
//! The int8 matmul fast path wants per-*output* scales instead, so callers
//! quantize a transposed `[out, in]` copy when they need `dot_q8` (see
//! [`crate::exec`]).

torchgt_compat::json_enum! {
    /// Quantized integer width. `Int8` is the deployment default; `Int16`
    /// is the conservative fallback when the int8 accuracy gate fails.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum QuantScheme {
        Int8,
        Int16,
    }
}

impl QuantScheme {
    /// Largest representable magnitude (127 or 32767).
    pub(crate) fn q_max(self) -> f32 {
        match self {
            QuantScheme::Int8 => i8::MAX as f32,
            QuantScheme::Int16 => i16::MAX as f32,
        }
    }

    /// Bytes per quantized element.
    pub fn elem_bytes(self) -> usize {
        match self {
            QuantScheme::Int8 => 1,
            QuantScheme::Int16 => 2,
        }
    }
}

/// Integer payload of a quantized tensor.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantData {
    I8(Vec<i8>),
    I16(Vec<i16>),
}

impl QuantData {
    pub fn len(&self) -> usize {
        match self {
            QuantData::I8(v) => v.len(),
            QuantData::I16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A row-major quantized tensor: `rows` scales plus `rows * cols` integers.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantTensor {
    pub rows: usize,
    pub cols: usize,
    pub scheme: QuantScheme,
    /// One dequantization scale per row.
    pub scales: Vec<f32>,
    pub data: QuantData,
}

impl QuantTensor {
    /// Quantize a row-major f32 buffer. An all-zero row gets scale 1.0 so
    /// dequantization stays exact and division never sees zero.
    pub fn quantize(src: &[f32], rows: usize, cols: usize, scheme: QuantScheme) -> QuantTensor {
        assert_eq!(src.len(), rows * cols, "quantize: shape/data mismatch");
        let q_max = scheme.q_max();
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            let maxabs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            scales.push(if maxabs > 0.0 { maxabs / q_max } else { 1.0 });
        }
        let data = match scheme {
            QuantScheme::Int8 => {
                let mut q = Vec::with_capacity(src.len());
                for r in 0..rows {
                    let inv = 1.0 / scales[r];
                    for &x in &src[r * cols..(r + 1) * cols] {
                        q.push((x * inv).round().clamp(-q_max, q_max) as i8);
                    }
                }
                QuantData::I8(q)
            }
            QuantScheme::Int16 => {
                let mut q = Vec::with_capacity(src.len());
                for r in 0..rows {
                    let inv = 1.0 / scales[r];
                    for &x in &src[r * cols..(r + 1) * cols] {
                        q.push((x * inv).round().clamp(-q_max, q_max) as i16);
                    }
                }
                QuantData::I16(q)
            }
        };
        QuantTensor { rows, cols, scheme, scales, data }
    }

    /// Dequantize into a caller-provided buffer (length `rows * cols`).
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows * self.cols, "dequantize: shape mismatch");
        match &self.data {
            QuantData::I8(q) => {
                for r in 0..self.rows {
                    let s = self.scales[r];
                    let (src, dst) = (
                        &q[r * self.cols..(r + 1) * self.cols],
                        &mut out[r * self.cols..(r + 1) * self.cols],
                    );
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o = v as f32 * s;
                    }
                }
            }
            QuantData::I16(q) => {
                for r in 0..self.rows {
                    let s = self.scales[r];
                    let (src, dst) = (
                        &q[r * self.cols..(r + 1) * self.cols],
                        &mut out[r * self.cols..(r + 1) * self.cols],
                    );
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o = v as f32 * s;
                    }
                }
            }
        }
    }

    /// Worst-case absolute round-trip error for row `r`: half a quantization
    /// step.
    pub fn row_error_bound(&self, r: usize) -> f32 {
        0.5 * self.scales[r]
    }
}

/// Integer dot product of two i8 slices with i32 accumulation.
///
/// `127 * 127 * len` stays far inside i32 for every hidden size this repo
/// runs (overflow needs len > 133k), so the accumulator is exact — which
/// makes the AVX2 path bit-identical to this scalar one by construction.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if a.len() >= 16 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified at runtime.
            return unsafe { dot_i8_avx2(a, b) };
        }
    }
    dot_i8_scalar(a, b)
}

/// Reference scalar implementation (also the tail path for AVX2).
#[inline]
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// AVX2 i8 dot: widen 16 lanes to i16, `madd` into 8 i32 lanes, reduce.
/// Integer arithmetic is associative, so lane order cannot change the
/// result — no ULP bound needed, the parity test asserts equality.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    #![allow(unsafe_op_in_unsafe_fn)]
    use std::arch::x86_64::*;
    let n = a.len();
    let chunks = n / 16;
    let mut acc = _mm256_setzero_si256();
    for i in 0..chunks {
        let pa = a.as_ptr().add(i * 16) as *const __m128i;
        let pb = b.as_ptr().add(i * 16) as *const __m128i;
        let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa));
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
    }
    // Horizontal i32 sum of the 8 accumulator lanes.
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256::<1>(acc);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_01_10_11>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
    let mut total = _mm_cvtsi128_si32(s);
    total += dot_i8_scalar(&a[chunks * 16..], &b[chunks * 16..]);
    total
}

/// Quantize one f32 activation row against a fixed scale (used by the int8
/// head fast path). Returns the values clamped into i8 range.
pub(crate) fn quantize_row_i8(src: &[f32], scale: f32, out: &mut Vec<i8>) {
    out.clear();
    let inv = 1.0 / scale;
    let q_max = i8::MAX as f32;
    out.extend(src.iter().map(|&x| (x * inv).round().clamp(-q_max, q_max) as i8));
}

#[cfg(test)]
mod tests {
    use super::*;
    use torchgt_compat::rng::{Rng, RngCore, SeedableRng, SmallRng};

    #[test]
    fn round_trip_error_is_bounded_per_row() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (rows, cols) = (7, 33);
        let src: Vec<f32> =
            (0..rows * cols).map(|_| (rng.gen::<f64>() as f32 - 0.5) * 4.0).collect();
        for scheme in [QuantScheme::Int8, QuantScheme::Int16] {
            let q = QuantTensor::quantize(&src, rows, cols, scheme);
            let mut back = vec![0.0f32; rows * cols];
            q.dequantize_into(&mut back);
            for r in 0..rows {
                let bound = q.row_error_bound(r) + 1e-6;
                for c in 0..cols {
                    let err = (src[r * cols + c] - back[r * cols + c]).abs();
                    assert!(err <= bound, "{scheme:?} row {r} col {c}: err {err} > {bound}");
                }
            }
        }
    }

    #[test]
    fn zero_rows_round_trip_exactly() {
        let src = vec![0.0f32; 12];
        let q = QuantTensor::quantize(&src, 3, 4, QuantScheme::Int8);
        assert!(q.scales.iter().all(|&s| s == 1.0));
        let mut back = vec![1.0f32; 12];
        q.dequantize_into(&mut back);
        assert!(back.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn int16_is_tighter_than_int8() {
        let mut rng = SmallRng::seed_from_u64(5);
        let src: Vec<f32> = (0..256).map(|_| rng.gen::<f64>() as f32 * 2.0 - 1.0).collect();
        let err = |scheme| {
            let q = QuantTensor::quantize(&src, 4, 64, scheme);
            let mut back = vec![0.0f32; 256];
            q.dequantize_into(&mut back);
            src.iter().zip(&back).map(|(a, b)| (a - b).abs() as f64).sum::<f64>()
        };
        assert!(err(QuantScheme::Int16) < err(QuantScheme::Int8) / 10.0);
    }

    #[test]
    fn dot_i8_matches_scalar_across_lengths() {
        let mut rng = SmallRng::seed_from_u64(99);
        for len in [0, 1, 15, 16, 17, 48, 100, 513] {
            let a: Vec<i8> = (0..len).map(|_| (rng.next_u64() % 255) as i8).collect();
            let b: Vec<i8> = (0..len).map(|_| (rng.next_u64() % 255) as i8).collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "len {len}");
        }
    }

    #[test]
    fn dot_i8_handles_extremes() {
        let a = vec![i8::MIN; 64];
        let b = vec![i8::MAX; 64];
        assert_eq!(dot_i8(&a, &b), -128 * 127 * 64);
    }
}
