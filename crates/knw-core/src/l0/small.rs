//! Exact small-L0 counting (Lemma 8 of the paper).
//!
//! Given the promise `L0 ≤ c`, the Hamming norm can be computed *exactly* with
//! probability `1 − δ` in `O(c² · log log(mM))` bits: hash the universe
//! pairwise-independently into `Θ(c²)` buckets, keep in each bucket the sum of
//! frequencies **modulo a random prime `p`** of polylogarithmic size, and
//! report the number of nonzero buckets; take the maximum over `O(log(1/δ))`
//! independent trials.
//!
//! Two failure modes exist and both only ever cause *under*-counting, which is
//! why the maximum over trials works:
//!
//! * two nonzero coordinates collide in a bucket and their frequencies cancel
//!   (or simply merge) — avoided per trial with constant probability because
//!   the bucket count is `Ω(c²)` (birthday bound);
//! * `p` divides some nonzero frequency — made rare by drawing `p` at random
//!   from an interval containing many more primes than any frequency has
//!   prime factors.
//!
//! The structure never over-counts beyond `L0` as long as the promise holds
//! (each nonzero bucket needs at least one nonzero coordinate hashed into it).
//!
//! This structure is used twice: as the per-level detector inside
//! [`RoughL0Estimator`](crate::l0::rough::RoughL0Estimator) (with `c = 141`,
//! `δ = 1/16`, per Appendix A.3) and as the tiny-cardinality path of the full
//! [`KnwL0Sketch`](crate::l0::KnwL0Sketch) (with `c = 100`).

use knw_hash::pairwise::PairwiseHash;
use knw_hash::primes::random_prime_in_range;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;

/// One trial of the Lemma 8 structure.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct Trial {
    /// Pairwise hash from the universe into the buckets.
    hash: PairwiseHash,
    /// The random prime modulus for this trial.
    prime: u64,
    /// Bucket counters, each in `[0, prime)`.
    counters: Vec<u32>,
    /// Number of nonzero counters, maintained incrementally.
    nonzero: u64,
}

impl Trial {
    fn new(buckets: u64, rng: &mut SplitMix64) -> Self {
        // A random prime in [2^17, 2^21]: ~135 000 candidates, so the
        // probability that it divides any fixed bounded frequency is tiny,
        // while counters stay comfortably within a u32.
        let prime = random_prime_in_range(1 << 17, 1 << 21, rng);
        Self {
            hash: PairwiseHash::random(buckets, rng),
            prime,
            counters: vec![0u32; buckets as usize],
            nonzero: 0,
        }
    }

    #[inline]
    fn update(&mut self, item: u64, delta: i64) {
        let bucket = self.hash.hash(item) as usize;
        let old = self.counters[bucket];
        let delta_mod = delta.rem_euclid(self.prime as i64) as u64;
        let new = ((u64::from(old) + delta_mod) % self.prime) as u32;
        self.counters[bucket] = new;
        match (old == 0, new == 0) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
    }

    /// Entrywise addition mod `p` of another trial's counters (Lemma 6
    /// linearity: the counters are linear functions of the frequency vector,
    /// so adding them yields the trial state of the union stream).  The
    /// caller guarantees both trials share hash and prime (same seed).
    fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(
            self.prime, other.prime,
            "trials drawn with different primes"
        );
        assert_eq!(self.counters.len(), other.counters.len());
        let mut nonzero = 0;
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            let merged = (u64::from(*mine) + u64::from(*theirs)) % self.prime;
            *mine = merged as u32;
            if merged != 0 {
                nonzero += 1;
            }
        }
        self.nonzero = nonzero;
    }
}

/// The Lemma 8 exact small-L0 structure.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExactSmallL0 {
    trials: Vec<Trial>,
    capacity: u64,
    buckets: u64,
}

impl ExactSmallL0 {
    /// Creates the structure for the promise `L0 ≤ capacity`, with failure
    /// probability roughly `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `delta` is not in `(0, 1)`.
    #[must_use]
    pub fn new(capacity: u64, delta: f64, rng: &mut SplitMix64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        // Θ(c²) buckets: with 2c² buckets the per-trial collision probability
        // among ≤ c surviving coordinates is below 1/4.
        let buckets = (2 * capacity * capacity).max(16);
        // O(log(1/δ)) trials; each trial under-counts with probability ≤ 1/4,
        // so ⌈log₂(1/δ)⌉ trials push the failure probability below δ/ (plus the
        // negligible prime-divisibility term).
        let trials_count = ((1.0 / delta).log2().ceil() as usize).max(1);
        let trials = (0..trials_count)
            .map(|i| {
                let mut trial_rng = rng.split(i as u64 + 1);
                Trial::new(buckets, &mut trial_rng)
            })
            .collect();
        Self {
            trials,
            capacity,
            buckets,
        }
    }

    /// The promise parameter `c`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Applies the update `x_item ← x_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        for t in &mut self.trials {
            t.update(item, delta);
        }
    }

    /// The current estimate: the maximum, over trials, of the number of
    /// nonzero buckets.  Exactly `L0` with probability `1 − δ` whenever
    /// `L0 ≤ capacity`; never larger than the true `L0` (up to the negligible
    /// prime-divisibility event) and never larger than the bucket count.
    #[must_use]
    pub fn estimate(&self) -> u64 {
        self.trials.iter().map(|t| t.nonzero).max().unwrap_or(0)
    }

    /// Whether the estimate exceeds the design capacity, i.e. the promise
    /// `L0 ≤ c` has observably been violated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.estimate() > self.capacity
    }

    /// Merges another structure built with the *same seed and parameters* by
    /// entrywise counter addition mod `p` per trial.
    ///
    /// Because every bucket counter is a linear function of the frequency
    /// vector, the merged state is identical to the state a single structure
    /// would have reached over any interleaving of both update streams.
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        // Geometry is asserted (not debug-asserted) so structurally
        // inconsistent sketches fail loudly; see the L0Matrix merge.
        assert_eq!(self.capacity, other.capacity);
        assert_eq!(self.buckets, other.buckets);
        assert_eq!(self.trials.len(), other.trials.len());
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            mine.merge_from_unchecked(theirs);
        }
    }
}

impl SpaceUsage for ExactSmallL0 {
    fn space_bits(&self) -> u64 {
        // Counters are values mod p < 2^21: 21 bits each in the paper's
        // accounting, plus each trial's hash and prime.
        self.trials.len() as u64 * (self.buckets * 21 + self.trials[0].hash.space_bits() + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fresh(cap: u64, seed: u64) -> ExactSmallL0 {
        let mut rng = SplitMix64::new(seed);
        ExactSmallL0::new(cap, 1.0 / 16.0, &mut rng)
    }

    #[test]
    fn counts_insert_only_streams_exactly() {
        let mut s = fresh(100, 1);
        for i in 0..60u64 {
            s.update(i * 977, 1);
        }
        assert_eq!(s.estimate(), 60);
        assert!(!s.saturated());
    }

    #[test]
    fn empty_structure_reports_zero() {
        let s = fresh(50, 2);
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut s = fresh(100, 3);
        for i in 0..40u64 {
            s.update(i, 3);
        }
        assert_eq!(s.estimate(), 40);
        // Remove half of them completely.
        for i in 0..20u64 {
            s.update(i, -3);
        }
        assert_eq!(s.estimate(), 20);
        // Remove the rest.
        for i in 20..40u64 {
            s.update(i, -1);
            s.update(i, -2);
        }
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn negative_frequencies_still_count_as_nonzero() {
        let mut s = fresh(64, 4);
        for i in 0..30u64 {
            s.update(i, -5);
        }
        assert_eq!(s.estimate(), 30);
    }

    #[test]
    fn mixed_sign_random_workload_matches_reference() {
        let mut s = fresh(141, 5);
        let mut reference: HashMap<u64, i64> = HashMap::new();
        let mut state = 777u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let item = next() % 120;
            let delta = (next() % 7) as i64 - 3;
            if delta == 0 {
                continue;
            }
            s.update(item, delta);
            *reference.entry(item).or_insert(0) += delta;
        }
        let truth = reference.values().filter(|&&v| v != 0).count() as u64;
        assert_eq!(s.estimate(), truth);
    }

    #[test]
    fn saturation_is_detected_beyond_capacity() {
        let mut s = fresh(16, 6);
        for i in 0..200u64 {
            s.update(i, 1);
        }
        assert!(s.saturated());
        // The estimate never exceeds the true L0 (no over-counting).
        assert!(s.estimate() <= 200);
        assert!(s.estimate() > 16);
    }

    #[test]
    fn repeated_updates_to_one_item_count_once() {
        let mut s = fresh(32, 7);
        for _ in 0..500 {
            s.update(99, 2);
        }
        assert_eq!(s.estimate(), 1);
    }

    #[test]
    fn exactness_over_many_seeds() {
        // Lemma 8: exact with probability ≥ 1 − δ.  Check the failure rate
        // over many seeds stays small.
        let mut failures = 0;
        let trials = 60;
        for seed in 0..trials {
            let mut s = fresh(100, 1000 + seed);
            for i in 0..90u64 {
                s.update(i * 31 + seed, 1);
            }
            if s.estimate() != 90 {
                failures += 1;
            }
        }
        assert!(failures <= 4, "{failures}/{trials} trials were not exact");
    }

    #[test]
    fn space_scales_quadratically_with_capacity() {
        let small = fresh(10, 8);
        let large = fresh(100, 8);
        assert!(large.space_bits() > small.space_bits() * 20);
    }
}
