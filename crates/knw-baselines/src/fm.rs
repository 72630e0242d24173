//! Flajolet–Martin probabilistic counting (PCSA), FOCS 1983 / JCSS 1985.
//!
//! The first row of Figure 1: `O(log n)` bits per bitmap, assumes an idealized
//! random hash function, constant relative error per bitmap improved by
//! "stochastic averaging" over `m` bitmaps.  Each item sets bit `lsb(h(i))` of
//! the bitmap selected by a second hash; the estimate is
//! `(m / φ) · 2^{mean lowest-unset-bit}` with the classic correction factor
//! `φ ≈ 0.77351`.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::rng::SplitMix64;
use knw_hash::tabulation::SimpleTabulation;
use knw_hash::SpaceUsage;

/// The Flajolet–Martin magic constant `φ`.
const PHI: f64 = 0.77351;

/// A PCSA (Probabilistic Counting with Stochastic Averaging) sketch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlajoletMartin {
    /// One 64-bit bitmap per group.
    bitmaps: Vec<u64>,
    /// Random-oracle stand-in (the paper row explicitly assumes one).
    hash: SimpleTabulation,
    /// Mask to select the group from the low bits of the hash.
    group_mask: u64,
    /// Bits consumed by the group selector.
    group_bits: u32,
    /// Construction seed, for merge-compatibility checks.
    seed: u64,
}

impl FlajoletMartin {
    /// Creates a sketch with `groups` bitmaps (rounded up to a power of two).
    #[must_use]
    pub fn new(groups: u64, seed: u64) -> Self {
        let groups = groups.max(1).next_power_of_two();
        let mut rng = SplitMix64::new(seed ^ 0xF1A9_0137_0000_0001);
        Self {
            bitmaps: vec![0u64; groups as usize],
            hash: SimpleTabulation::random(u64::MAX, &mut rng),
            group_mask: groups - 1,
            group_bits: groups.trailing_zeros(),
            seed,
        }
    }

    /// Picks a group count matching a target standard error
    /// (`σ ≈ 0.78/√groups`).
    #[must_use]
    pub fn with_error(epsilon: f64, seed: u64) -> Self {
        let groups = (0.78 / epsilon).powi(2).ceil() as u64;
        Self::new(groups.max(16), seed)
    }

    /// Number of bitmaps.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.bitmaps.len()
    }
}

impl MergeableEstimator for FlajoletMartin {
    type MergeError = SketchError;

    /// Bitmap union (bitwise OR) — exact union semantics.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.bitmaps.len() != other.bitmaps.len() {
            return Err(SketchError::config_mismatch(
                "group_count",
                self.bitmaps.len(),
                other.bitmaps.len(),
            ));
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        for (mine, theirs) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            *mine |= theirs;
        }
        Ok(())
    }
}

impl SpaceUsage for FlajoletMartin {
    fn space_bits(&self) -> u64 {
        self.bitmaps.len() as u64 * 64 + self.hash.space_bits()
    }
}

impl CardinalityEstimator for FlajoletMartin {
    fn insert(&mut self, item: u64) {
        let h = self.hash.hash_full(item);
        let group = (h & self.group_mask) as usize;
        let rest = h >> self.group_bits;
        let bit = rest.trailing_zeros().min(63);
        self.bitmaps[group] |= 1u64 << bit;
    }

    fn estimate(&self) -> f64 {
        let m = self.bitmaps.len() as f64;
        // Mean index of the lowest unset bit across groups.
        let total_r: u64 = self
            .bitmaps
            .iter()
            .map(|&b| u64::from((!b).trailing_zeros()))
            .sum();
        let mean_r = total_r as f64 / m;
        (m / PHI) * 2.0f64.powf(mean_r)
    }

    fn name(&self) -> &'static str {
        "flajolet-martin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_near_zero() {
        let fm = FlajoletMartin::new(64, 1);
        assert!(fm.estimate() < fm.num_groups() as f64 * 2.0);
    }

    #[test]
    fn accuracy_on_large_stream() {
        let truth = 100_000u64;
        let mut fm = FlajoletMartin::with_error(0.05, 7);
        for i in 0..truth {
            fm.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let est = fm.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn duplicates_do_not_change_state() {
        let mut a = FlajoletMartin::new(32, 3);
        let mut b = FlajoletMartin::new(32, 3);
        for i in 0..10_000u64 {
            a.insert(i % 500);
            b.insert(i % 500);
            b.insert(i % 500);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn error_parameter_controls_group_count() {
        let coarse = FlajoletMartin::with_error(0.2, 1);
        let fine = FlajoletMartin::with_error(0.02, 1);
        assert!(fine.num_groups() > coarse.num_groups() * 50);
    }
}
