//! Configuration types for the F0 and L0 sketches.

use knw_hash::bits::{bits_for_universe, next_power_of_two};
use knw_hash::uniform::HashStrategy;

/// Configuration of the KNW F0 sketch (Figure 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct F0Config {
    /// Target relative accuracy `ε` (the sketch aims for a `(1 ± O(ε))`
    /// approximation with constant probability).
    pub epsilon: f64,
    /// Universe size `n`.  Rounded up to a power of two internally, matching
    /// the paper's "without loss of generality, n is a power of 2".
    pub universe: u64,
    /// Seed for all hash-function and randomness choices.
    pub seed: u64,
    /// Which construction backs the high-independence bucket hash `h3`.
    pub hash_strategy: HashStrategy,
}

impl F0Config {
    /// Creates a configuration with the given accuracy and universe size and
    /// default seed / hash strategy.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)` or `universe == 0`.
    #[must_use]
    pub fn new(epsilon: f64, universe: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(universe > 0, "universe must be nonempty");
        Self {
            epsilon,
            universe,
            seed: 0xC0FF_EE00_D15C_0DE5,
            hash_strategy: HashStrategy::default(),
        }
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hash strategy for the bucket hash `h3`.
    #[must_use]
    pub fn with_hash_strategy(mut self, strategy: HashStrategy) -> Self {
        self.hash_strategy = strategy;
        self
    }

    /// The number of bins `K = 1/ε²`, rounded up to a power of two and clamped
    /// to at least 32 (the paper's analysis assumes `K` is at least a modest
    /// constant — e.g. it repeatedly uses `K/32`).
    #[must_use]
    pub fn num_bins(&self) -> u64 {
        let raw = (1.0 / (self.epsilon * self.epsilon)).ceil() as u64;
        next_power_of_two(raw.max(32))
    }

    /// The universe size rounded up to a power of two.
    #[must_use]
    pub fn universe_pow2(&self) -> u64 {
        next_power_of_two(self.universe)
    }

    /// `log2` of the (rounded) universe size, i.e. the number of subsampling
    /// levels.
    #[must_use]
    pub fn log_universe(&self) -> u32 {
        bits_for_universe(self.universe_pow2()).max(1)
    }
}

/// Configuration of the KNW L0 sketch (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct L0Config {
    /// Target relative accuracy `ε`.
    pub epsilon: f64,
    /// Universe size `n` (dimension of the frequency vector).
    pub universe: u64,
    /// Upper bound on the stream length `m`.
    pub stream_length_bound: u64,
    /// Upper bound `M` on the magnitude of a single update.
    pub update_magnitude_bound: u64,
    /// Seed for all hash-function and randomness choices.
    pub seed: u64,
    /// Which construction backs the bucket hash `h3`.
    pub hash_strategy: HashStrategy,
}

impl L0Config {
    /// Creates a configuration with the given accuracy and universe size,
    /// default stream bounds (`m ≤ 2^32`, `M ≤ 2^20`), seed and hash strategy.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)` or `universe == 0`.
    #[must_use]
    pub fn new(epsilon: f64, universe: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        assert!(universe > 0, "universe must be nonempty");
        Self {
            epsilon,
            universe,
            stream_length_bound: 1 << 32,
            update_magnitude_bound: 1 << 20,
            seed: 0x10C0_0151_0000_BEEF,
            hash_strategy: HashStrategy::default(),
        }
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the bound on the stream length `m`.
    #[must_use]
    pub fn with_stream_length_bound(mut self, m: u64) -> Self {
        self.stream_length_bound = m.max(2);
        self
    }

    /// Sets the bound `M` on the magnitude of a single update.
    #[must_use]
    pub fn with_update_magnitude_bound(mut self, m: u64) -> Self {
        self.update_magnitude_bound = m.max(1);
        self
    }

    /// Sets the hash strategy for the bucket hash `h3`.
    #[must_use]
    pub fn with_hash_strategy(mut self, strategy: HashStrategy) -> Self {
        self.hash_strategy = strategy;
        self
    }

    /// The number of bins `K = 1/ε²`, rounded up to a power of two and clamped
    /// to at least 32.
    #[must_use]
    pub fn num_bins(&self) -> u64 {
        let raw = (1.0 / (self.epsilon * self.epsilon)).ceil() as u64;
        next_power_of_two(raw.max(32))
    }

    /// The universe size rounded up to a power of two.
    #[must_use]
    pub fn universe_pow2(&self) -> u64 {
        next_power_of_two(self.universe)
    }

    /// `log2` of the (rounded) universe size.
    #[must_use]
    pub fn log_universe(&self) -> u32 {
        bits_for_universe(self.universe_pow2()).max(1)
    }

    /// `log2(mM)` — the number of bits needed for a frequency magnitude, which
    /// sizes the primes of Lemma 6 and Lemma 8.
    #[must_use]
    pub fn log_mm(&self) -> u32 {
        let mm = (self.stream_length_bound as u128) * (self.update_magnitude_bound as u128);
        (128 - mm.leading_zeros()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f0_num_bins_is_power_of_two_and_scales() {
        let c1 = F0Config::new(0.1, 1 << 20);
        assert_eq!(c1.num_bins(), 128); // 1/0.01 = 100 → 128
        let c2 = F0Config::new(0.05, 1 << 20);
        assert_eq!(c2.num_bins(), 512); // 400 → 512
        let c3 = F0Config::new(0.5, 1 << 20);
        assert_eq!(c3.num_bins(), 32); // clamped
    }

    #[test]
    fn f0_universe_rounding() {
        let c = F0Config::new(0.1, 1000);
        assert_eq!(c.universe_pow2(), 1024);
        assert_eq!(c.log_universe(), 10);
        let c2 = F0Config::new(0.1, 1 << 24);
        assert_eq!(c2.universe_pow2(), 1 << 24);
        assert_eq!(c2.log_universe(), 24);
    }

    #[test]
    fn f0_builder_methods() {
        let c = F0Config::new(0.1, 100)
            .with_seed(7)
            .with_hash_strategy(HashStrategy::Tabulation);
        assert_eq!(c.seed, 7);
        assert_eq!(c.hash_strategy, HashStrategy::Tabulation);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1)")]
    fn f0_rejects_bad_epsilon() {
        let _ = F0Config::new(1.5, 100);
    }

    #[test]
    #[should_panic(expected = "universe must be nonempty")]
    fn f0_rejects_zero_universe() {
        let _ = F0Config::new(0.1, 0);
    }

    #[test]
    fn l0_log_mm_reflects_bounds() {
        let c = L0Config::new(0.1, 1 << 16)
            .with_stream_length_bound(1 << 20)
            .with_update_magnitude_bound(1 << 10);
        assert_eq!(c.log_mm(), 31); // mM = 2^30 → 31 bits
        assert_eq!(c.num_bins(), 128);
        assert_eq!(c.log_universe(), 16);
    }

    #[test]
    fn l0_defaults_are_reasonable() {
        let c = L0Config::new(0.2, 5000);
        assert!(c.stream_length_bound >= 1 << 20);
        assert!(c.update_magnitude_bound >= 1);
        assert_eq!(c.universe_pow2(), 8192);
    }
}
