//! The Alon–Matias–Szegedy F0 estimator (JCSS 1999), reference \[3\] of the
//! paper: `O(log n)` bits, `O(log n)` update time, constant-factor accuracy
//! only (the second row of Figure 1).
//!
//! Each repetition tracks `R = max lsb(h(i))` over the stream under a pairwise
//! independent hash and estimates `2^{R + 1/2}`; the final output is the
//! median of the repetitions.  The estimator is only correct to within a
//! constant factor — which is exactly the role it plays in the KNW design
//! space: it is the cheapest thing that could possibly feed the subsampling
//! machinery, but lacks the "all times" guarantee of RoughEstimator
//! (Theorem 1), a distinction experiment E2 makes measurable.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::bits::lsb_with_cap;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;

/// The AMS constant-factor F0 estimator (median over repetitions).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AmsEstimator {
    hashes: Vec<PairwiseHash>,
    max_levels: Vec<u32>,
    log_n: u32,
    seed: u64,
}

impl AmsEstimator {
    /// Creates an estimator over a universe of `2^60` with the given number of
    /// median repetitions.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    #[must_use]
    pub fn new(repetitions: usize, seed: u64) -> Self {
        assert!(repetitions >= 1, "need at least one repetition");
        let mut rng = SplitMix64::new(seed ^ 0xA3_5000_0000_0008);
        let log_n = 60;
        Self {
            hashes: (0..repetitions)
                .map(|_| PairwiseHash::random(1u64 << log_n, &mut rng))
                .collect(),
            max_levels: vec![0u32; repetitions],
            log_n,
            seed,
        }
    }

    /// Number of repetitions.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.hashes.len()
    }
}

impl MergeableEstimator for AmsEstimator {
    type MergeError = SketchError;

    /// Pointwise maximum of the per-repetition level maxima — exact union
    /// semantics.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.hashes.len() != other.hashes.len() {
            return Err(SketchError::config_mismatch(
                "repetitions",
                self.hashes.len(),
                other.hashes.len(),
            ));
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        for (mine, theirs) in self.max_levels.iter_mut().zip(&other.max_levels) {
            *mine = (*mine).max(*theirs);
        }
        Ok(())
    }
}

impl SpaceUsage for AmsEstimator {
    fn space_bits(&self) -> u64 {
        self.hashes.iter().map(SpaceUsage::space_bits).sum::<u64>()
            + self.max_levels.len() as u64 * 8
    }
}

impl CardinalityEstimator for AmsEstimator {
    fn insert(&mut self, item: u64) {
        for (h, level) in self.hashes.iter().zip(self.max_levels.iter_mut()) {
            let l = lsb_with_cap(h.hash(item), self.log_n);
            if l > *level {
                *level = l;
            }
        }
    }

    fn estimate(&self) -> f64 {
        let mut levels = self.max_levels.clone();
        levels.sort_unstable();
        let median = levels[levels.len() / 2];
        2.0f64.powf(f64::from(median) + 0.5)
    }

    fn name(&self) -> &'static str {
        "ams"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_factor_accuracy() {
        // AMS only promises a constant-factor approximation; check the median
        // over repetitions stays within a factor of 8 for a range of
        // cardinalities.
        for &truth in &[1_000u64, 10_000, 100_000] {
            let mut ams = AmsEstimator::new(35, 3);
            for i in 0..truth {
                ams.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let est = ams.estimate();
            let ratio = est / truth as f64;
            assert!(
                (1.0 / 8.0..=8.0).contains(&ratio),
                "truth {truth}: estimate {est} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn empty_stream_estimates_small() {
        let ams = AmsEstimator::new(9, 1);
        assert!(ams.estimate() <= 2.0);
    }

    #[test]
    fn space_scales_with_repetitions() {
        let small = AmsEstimator::new(5, 1);
        let large = AmsEstimator::new(50, 1);
        assert!(large.space_bits() > small.space_bits() * 5);
        assert_eq!(large.repetitions(), 50);
    }

    #[test]
    fn monotone_in_the_stream() {
        let mut ams = AmsEstimator::new(15, 7);
        let mut last = 0.0;
        for i in 0..50_000u64 {
            ams.insert(i);
            if i % 5_000 == 0 {
                let e = ams.estimate();
                assert!(e >= last);
                last = e;
            }
        }
    }
}
