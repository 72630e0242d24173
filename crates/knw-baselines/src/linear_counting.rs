//! Linear counting / bitmap counting (Whang et al. 1990; Estan, Varghese and
//! Fisk 2006), reference \[17\] of the paper: a plain bitmap of `b` bits, each
//! item sets one bit, and the estimate is `b · ln(b / z)` where `z` is the
//! number of zero bits.
//!
//! This is exactly the balls-and-bins occupancy inversion the KNW algorithm
//! applies *after subsampling*; without subsampling the bitmap must scale
//! linearly with the cardinality, which is why Figure 1 lists it at
//! `O(ε⁻² log n)` bits (multiresolution variants) and why its accuracy
//! collapses once the bitmap saturates — both effects show up in experiment
//! E1/E3.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::rng::SplitMix64;
use knw_hash::tabulation::SimpleTabulation;
use knw_hash::SpaceUsage;
use knw_vla::bitvec::BitVec;

/// A linear-counting bitmap sketch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LinearCounting {
    bits: BitVec,
    set_bits: u64,
    hash: SimpleTabulation,
    seed: u64,
}

impl LinearCounting {
    /// Creates a bitmap with `bits` bits (rounded up to a power of two,
    /// minimum 64).
    #[must_use]
    pub fn new(bits: u64, seed: u64) -> Self {
        let bits = bits.max(64).next_power_of_two();
        let mut rng = SplitMix64::new(seed ^ 0x11EA_2C00_0000_0007);
        Self {
            bits: BitVec::zeros(bits),
            set_bits: 0,
            hash: SimpleTabulation::random(bits, &mut rng),
            seed,
        }
    }

    /// Sizes the bitmap for an expected maximum cardinality (the standard
    /// sizing rule keeps the load factor around 1, i.e. one bit per expected
    /// distinct item).
    #[must_use]
    pub fn with_capacity(expected_max_cardinality: u64, seed: u64) -> Self {
        Self::new(expected_max_cardinality.max(64), seed)
    }

    /// The bitmap size in bits.
    #[must_use]
    pub fn bitmap_bits(&self) -> u64 {
        self.bits.len()
    }

    /// The current number of set bits.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.set_bits
    }
}

impl MergeableEstimator for LinearCounting {
    type MergeError = SketchError;

    /// Bitmap union (bitwise OR) — exact union semantics.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.bits.len() != other.bits.len() {
            return Err(SketchError::config_mismatch(
                "bitmap_size",
                self.bits.len(),
                other.bits.len(),
            ));
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        for idx in 0..self.bits.len() {
            if other.bits.get_bit(idx) && !self.bits.get_bit(idx) {
                self.bits.set_bit(idx, true);
                self.set_bits += 1;
            }
        }
        Ok(())
    }
}

impl SpaceUsage for LinearCounting {
    fn space_bits(&self) -> u64 {
        self.bits.space_bits() + self.hash.space_bits()
    }
}

impl CardinalityEstimator for LinearCounting {
    fn insert(&mut self, item: u64) {
        let bit = self.hash.hash(item);
        if !self.bits.get_bit(bit) {
            self.bits.set_bit(bit, true);
            self.set_bits += 1;
        }
    }

    fn estimate(&self) -> f64 {
        let b = self.bits.len() as f64;
        let zeros = b - self.set_bits as f64;
        if zeros <= 0.0 {
            // Saturated: the estimator is undefined; report the (gross
            // under-)estimate at one free bit, the standard convention.
            return b * b.ln();
        }
        b * (b / zeros).ln()
    }

    fn name(&self) -> &'static str {
        "linear-counting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accurate_in_the_designed_range() {
        let truth = 20_000u64;
        let mut lc = LinearCounting::with_capacity(80_000, 3);
        for i in 0..truth {
            lc.insert(i.wrapping_mul(0xA24B_AED4_963E_E407));
        }
        let rel = (lc.estimate() - truth as f64).abs() / truth as f64;
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn small_counts_are_nearly_exact() {
        let mut lc = LinearCounting::new(1 << 16, 1);
        for i in 0..500u64 {
            lc.insert(i);
            lc.insert(i);
        }
        assert!((lc.estimate() - 500.0).abs() < 15.0);
    }

    #[test]
    fn saturation_degrades_gracefully() {
        let mut lc = LinearCounting::new(256, 5);
        for i in 0..100_000u64 {
            lc.insert(i);
        }
        // Saturated bitmap: estimate is finite but badly low — the weakness
        // the subsampling in KNW fixes.
        let est = lc.estimate();
        assert!(est.is_finite());
        assert!(est < 100_000.0 / 10.0);
    }

    #[test]
    fn occupancy_is_monotone() {
        let mut lc = LinearCounting::new(1024, 9);
        let mut last = 0;
        for i in 0..5_000u64 {
            lc.insert(i);
            assert!(lc.occupancy() >= last);
            last = lc.occupancy();
        }
    }
}
