//! K-minimum-values (bottom-k) estimation — "Algorithm I" of Bar-Yossef,
//! Jayram, Kumar, Sivakumar and Trevisan (RANDOM 2002), reference \[4\] of the
//! paper, with the `O(ε⁻² log n)` space / `O(ε⁻²)`-ish update cost row of
//! Figure 1 (also the Gibbons–Tirthapura flavour of coordinated sampling).
//!
//! Keep the `k = Θ(1/ε²)` smallest hash values observed; if the `k`-th
//! smallest normalized value is `v`, the estimate is `(k − 1)/v`.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::rng::SplitMix64;
use knw_hash::tabulation::TwistedTabulation;
use knw_hash::SpaceUsage;
use std::collections::BTreeSet;

/// A bottom-k (K-minimum-values) sketch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KMinValues {
    /// The k smallest hash values seen so far (a set, so duplicates collapse).
    smallest: BTreeSet<u64>,
    k: usize,
    hash: TwistedTabulation,
    seed: u64,
}

impl KMinValues {
    /// Creates a sketch keeping the `k` smallest hash values.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k must be at least 2");
        let mut rng = SplitMix64::new(seed ^ 0x000B_0770_0000_0004);
        Self {
            smallest: BTreeSet::new(),
            k,
            hash: TwistedTabulation::random(u64::MAX, &mut rng),
            seed,
        }
    }

    /// Picks `k ≈ 1/ε²` for a target standard error.
    #[must_use]
    pub fn with_error(epsilon: f64, seed: u64) -> Self {
        let k = (1.0 / (epsilon * epsilon)).ceil() as usize;
        Self::new(k.max(16), seed)
    }

    /// The `k` parameter.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }
}

impl MergeableEstimator for KMinValues {
    type MergeError = SketchError;

    /// Set union truncated back to the `k` smallest values — exact union
    /// semantics (the `k` smallest of a union are the `k` smallest of the
    /// combined value sets).
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.k != other.k {
            return Err(SketchError::config_mismatch("k", self.k, other.k));
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        self.smallest.extend(other.smallest.iter().copied());
        while self.smallest.len() > self.k {
            self.smallest.pop_last();
        }
        Ok(())
    }
}

impl SpaceUsage for KMinValues {
    fn space_bits(&self) -> u64 {
        // k stored hash values of 64 bits (charged at capacity, as the paper
        // does for its O(ε⁻² log n) row), plus the hash function.
        self.k as u64 * 64 + self.hash.space_bits()
    }
}

impl CardinalityEstimator for KMinValues {
    fn insert(&mut self, item: u64) {
        let h = self.hash.hash_full(item);
        if self.smallest.len() < self.k {
            self.smallest.insert(h);
        } else {
            let current_max = *self.smallest.iter().next_back().expect("nonempty");
            if h < current_max && self.smallest.insert(h) {
                self.smallest.remove(&current_max);
            }
        }
    }

    fn estimate(&self) -> f64 {
        if self.smallest.len() < self.k {
            // Fewer than k distinct hash values seen: the set is (almost
            // surely) exactly the distinct count.
            return self.smallest.len() as f64;
        }
        let kth = *self.smallest.iter().next_back().expect("nonempty") as f64;
        let normalized = kth / (u64::MAX as f64);
        if normalized <= 0.0 {
            return self.smallest.len() as f64;
        }
        (self.k as f64 - 1.0) / normalized
    }

    fn name(&self) -> &'static str {
        "kmv-bottom-k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_k() {
        let mut kmv = KMinValues::new(256, 1);
        for i in 0..100u64 {
            kmv.insert(i);
            kmv.insert(i);
        }
        assert_eq!(kmv.estimate(), 100.0);
    }

    #[test]
    fn accuracy_on_large_stream() {
        let truth = 150_000u64;
        let mut kmv = KMinValues::with_error(0.05, 5);
        for i in 0..truth {
            kmv.insert(i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        }
        let est = kmv.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn k_controls_space() {
        let small = KMinValues::new(64, 1);
        let large = KMinValues::with_error(0.02, 1);
        assert!(large.k() > small.k());
        assert!(large.space_bits() > small.space_bits());
    }

    #[test]
    fn duplicate_heavy_stream() {
        let mut kmv = KMinValues::new(512, 9);
        for i in 0..200_000u64 {
            kmv.insert(i % 1_000);
        }
        let est = kmv.estimate();
        assert!((est - 1_000.0).abs() < 150.0, "estimate {est}");
    }
}
