//! `rand`-compatible deterministic PRNG.
//!
//! [`SmallRng`] is xoshiro256++ seeded through SplitMix64 — the same
//! algorithm family `rand`'s 64-bit `SmallRng` uses — exposing the `Rng` /
//! `SeedableRng` surface the workspace actually calls: `gen`, `gen_range`,
//! `gen_bool`, `seed_from_u64` and `fill`.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: mixes a 64-bit state into a well-distributed output.
/// Public because seed-derivation helpers elsewhere reuse it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Core random-source trait (the `rand::RngCore` analogue).
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

/// Seedable construction (the `rand::SeedableRng` analogue).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;

    /// Build a generator from ambient entropy (address-space layout and a
    /// `RandomState` hash). Only for non-reproducible uses.
    fn from_entropy() -> Self {
        use std::hash::{BuildHasher, Hasher};
        let h = std::collections::hash_map::RandomState::new().build_hasher();
        Self::seed_from_u64(h.finish())
    }
}

/// xoshiro256++ generator: small, fast, and statistically solid — the
/// drop-in stand-in for `rand::rngs::SmallRng`.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SmallRng { s }
    }
}

impl RngCore for SmallRng {
    // Inlined across crates: dropout draws one value per activation element.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types drawable uniformly from their "standard" distribution (`rng.gen()`):
/// full range for integers, `[0, 1)` for floats, fair coin for `bool`.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Range types usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range. Panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Map a uniform `u64` onto `[0, span)` without modulo bias (fixed-point
/// multiply; bias is at most 2⁻⁶⁴ per draw).
fn mul_span(raw: u64, span: u64) -> u64 {
    ((raw as u128 * span as u128) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(mul_span(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64-width domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(mul_span(rng.next_u64(), span) as $t)
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit: $t = Standard::sample(rng);
                let v = self.start + (self.end - self.start) * unit;
                // Guard against rounding up onto the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let unit: $t = Standard::sample(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
range_float!(f32, f64);

/// Slice types fillable in bulk via [`Rng::fill`].
pub trait Fill {
    /// Overwrite `self` with uniformly random content.
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

macro_rules! fill_via_standard {
    ($($t:ty),*) => {$(
        impl Fill for [$t] {
            fn fill<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
                for v in self.iter_mut() {
                    *v = Standard::sample(rng);
                }
            }
        }
    )*};
}
fill_via_standard!(u16, u32, u64, usize, f32, f64);

/// The user-facing convenience trait (the `rand::Rng` analogue), blanket-
/// implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draw uniformly from `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        let unit: f64 = Standard::sample(self);
        unit < p
    }

    /// Fill a slice with random content.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T)
    where
        Self: Sized,
    {
        dest.fill(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Namespace mirror of `rand::rngs`, so ports stay one-import diffs.
pub mod rngs {
    pub use super::SmallRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(0..=5u32);
            assert!(w <= 5);
            let f = r.gen_range(-1.0..1.0f32);
            assert!((-1.0..1.0).contains(&f));
            let g = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&g));
        }
    }

    #[test]
    fn unit_floats_are_in_unit_interval_and_spread() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut sum = 0.0f64;
        for _ in 0..4096 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "{hits} heads at p=0.3");
    }

    #[test]
    fn fill_overwrites_whole_slice() {
        let mut r = SmallRng::seed_from_u64(5);
        let mut bytes = [0u8; 13];
        r.fill(&mut bytes[..]);
        assert!(bytes.iter().any(|&b| b != 0));
        let mut floats = [0.0f32; 7];
        r.fill(&mut floats[..]);
        assert!(floats.iter().all(|f| (0.0..1.0).contains(f)));
    }
}
