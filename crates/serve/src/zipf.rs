//! Seeded Zipf sampler for the load generator.
//!
//! Real query traffic is heavy-tailed — a few hub nodes absorb most
//! requests. The bench drives the serve loop with rank-frequency
//! `p(k) ∝ 1/k^s` samples so the micro-batcher is exercised on the skewed
//! arrival mix it would see in production (repeat queries pack together;
//! the cold tail arrives alone).

use torchgt_compat::rng::{Rng, SeedableRng, SmallRng};

/// A Zipf distribution over `0..n` with exponent `s`, sampled by inverse
/// CDF lookup (binary search over the precomputed cumulative weights).
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SmallRng,
}

impl Zipf {
    /// Build for `n` items with a finite exponent `s ≥ 0` (`s = 0` is
    /// uniform; `s ≈ 1` is classic web-traffic skew). A negative `s` would
    /// weight the tail up, and its weights `1/k^s` overflow to infinity
    /// within a few items; it panics, as does a non-finite one.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be finite and ≥ 0, got {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Draw one item index in `0..n`.
    pub fn sample(&mut self) -> usize {
        let u = self.rng.gen::<f64>();
        // First index whose cumulative weight reaches u.
        match self.cdf.binary_search_by(|w| w.partial_cmp(&u).expect("finite cdf")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_samples_favor_the_head() {
        let mut z = Zipf::new(100, 1.1, 7);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample()] += 1;
        }
        let head: usize = counts[..10].iter().sum();
        assert!(head > 5_000, "head-10 got {head}/10000 — not Zipf-skewed");
        assert!(counts[0] > counts[50], "rank 0 must beat rank 50");
    }

    #[test]
    #[should_panic(expected = "Zipf exponent must be finite and ≥ 0")]
    fn negative_exponent_is_refused() {
        let _ = Zipf::new(10, -1000.0, 1);
    }

    #[test]
    fn uniform_exponent_is_roughly_flat() {
        let mut z = Zipf::new(10, 0.0, 3);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "uniform draw too lumpy: {counts:?}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a: Vec<usize> = {
            let mut z = Zipf::new(50, 1.0, 42);
            (0..20).map(|_| z.sample()).collect()
        };
        let b: Vec<usize> = {
            let mut z = Zipf::new(50, 1.0, 42);
            (0..20).map(|_| z.sample()).collect()
        };
        assert_eq!(a, b);
    }
}
