//! HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) — reference \[19\] in
//! the paper: `O(ε⁻² log log n + log n)` bits, assumes a random oracle, and
//! carries a small additive error.  It is the de-facto industry standard and
//! therefore the most important practical baseline for the comparison
//! experiments.
//!
//! This is a textbook implementation: `m = 2^p` 6-bit registers, harmonic-mean
//! raw estimate with the `α_m` constant, linear-counting correction for the
//! small range and the standard large-range correction for 32-bit-style
//! saturation is omitted because we hash to 64 bits.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::rng::SplitMix64;
use knw_hash::tabulation::SimpleTabulation;
use knw_hash::SpaceUsage;
use knw_vla::bitvec::FixedWidthVec;

/// A HyperLogLog sketch.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HyperLogLog {
    registers: FixedWidthVec,
    hash: SimpleTabulation,
    precision: u32,
    seed: u64,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers (`4 ≤ precision ≤ 18`).
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `4..=18`.
    #[must_use]
    pub fn new(precision: u32, seed: u64) -> Self {
        assert!((4..=18).contains(&precision), "precision must be in 4..=18");
        let m = 1usize << precision;
        let mut rng = SplitMix64::new(seed ^ 0x511F_E110_6106_0003);
        Self {
            registers: FixedWidthVec::zeros(m, 6),
            hash: SimpleTabulation::random(u64::MAX, &mut rng),
            precision,
            seed,
        }
    }

    /// Picks a precision for a target standard error (`σ ≈ 1.04/√m`).
    #[must_use]
    pub fn with_error(epsilon: f64, seed: u64) -> Self {
        let m = (1.04 / epsilon).powi(2).ceil();
        let precision = (m.log2().ceil() as u32).clamp(4, 18);
        Self::new(precision, seed)
    }

    /// Number of registers `m`.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    fn alpha(&self) -> f64 {
        let m = self.registers.len() as f64;
        match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        }
    }
}

impl MergeableEstimator for HyperLogLog {
    type MergeError = SketchError;

    /// Pointwise register maximum — exact union semantics (the registers are
    /// an order-independent function of the distinct hashed set).
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.precision != other.precision {
            return Err(SketchError::config_mismatch(
                "precision",
                self.precision,
                other.precision,
            ));
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        for idx in 0..self.registers.len() {
            let theirs = other.registers.get(idx);
            if theirs > self.registers.get(idx) {
                self.registers.set(idx, theirs);
            }
        }
        Ok(())
    }
}

impl SpaceUsage for HyperLogLog {
    fn space_bits(&self) -> u64 {
        self.registers.space_bits() + self.hash.space_bits()
    }
}

impl CardinalityEstimator for HyperLogLog {
    fn insert(&mut self, item: u64) {
        let h = self.hash.hash_full(item);
        let bucket = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Number of leading zeros of the remaining bits, plus one.
        let rho = u64::from(rest.leading_zeros().min(63 - self.precision)) + 1;
        if rho > self.registers.get(bucket) {
            self.registers.set(bucket, rho.min(63));
        }
    }

    fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mut zero_registers = 0u64;
        let mut harmonic = 0.0f64;
        for r in self.registers.iter() {
            if r == 0 {
                zero_registers += 1;
            }
            harmonic += 2.0f64.powi(-(r as i32));
        }
        let raw = self.alpha() * m * m / harmonic;
        // Small-range (linear counting) correction.
        if raw <= 2.5 * m && zero_registers > 0 {
            m * (m / zero_registers as f64).ln()
        } else {
            raw
        }
    }

    fn name(&self) -> &'static str {
        "hyperloglog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_across_cardinalities() {
        // HLL should hold ~2–3σ accuracy across small, medium and large
        // cardinalities thanks to the range corrections.
        let mut hll_errors = Vec::new();
        for &truth in &[100u64, 5_000, 50_000, 500_000] {
            let mut h = HyperLogLog::with_error(0.05, 3);
            for i in 0..truth {
                h.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
            }
            let est = h.estimate();
            let rel = (est - truth as f64).abs() / truth as f64;
            hll_errors.push(rel);
            assert!(rel < 0.15, "truth {truth}: estimate {est}, rel {rel}");
        }
    }

    #[test]
    fn small_range_correction_is_nearly_exact() {
        let mut h = HyperLogLog::new(12, 5);
        for i in 0..200u64 {
            h.insert(i);
        }
        let est = h.estimate();
        assert!((est - 200.0).abs() < 10.0, "estimate {est}");
    }

    #[test]
    fn precision_bounds_enforced() {
        let h = HyperLogLog::with_error(0.5, 1);
        assert!(h.num_registers() >= 16);
        let h2 = HyperLogLog::with_error(0.001, 1);
        assert_eq!(h2.num_registers(), 1 << 18);
    }

    #[test]
    #[should_panic(expected = "precision must be in 4..=18")]
    fn invalid_precision_panics() {
        let _ = HyperLogLog::new(3, 1);
    }

    #[test]
    fn merge_like_idempotence_of_duplicates() {
        let mut a = HyperLogLog::new(10, 9);
        let mut b = HyperLogLog::new(10, 9);
        for i in 0..20_000u64 {
            a.insert(i % 3_000);
            b.insert(i % 3_000);
            b.insert((i + 1) % 3_000);
        }
        // Same distinct set → identical registers regardless of repetition.
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn space_matches_register_budget() {
        let h = HyperLogLog::new(14, 2);
        assert!(h.registers.space_bits() == (1 << 14) * 6);
    }
}
