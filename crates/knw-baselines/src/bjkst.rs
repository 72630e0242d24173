//! The BJKST bucket sketch — "Algorithm II" of Bar-Yossef, Jayram, Kumar,
//! Sivakumar and Trevisan (RANDOM 2002), reference \[4\] of the paper.
//!
//! The sketch maintains a sample of items whose hash level (`lsb` of a
//! pairwise hash) is at least a threshold `z`; whenever the sample exceeds its
//! capacity `c·K`, `z` is incremented and the sample is re-filtered.  The
//! estimate is `|sample| · 2^z`.  To keep the stored elements small the items
//! are fingerprinted with a secondary hash (that is the `loglog`-style trick
//! that yields the `O(ε⁻² (log log n + log 1/ε) + log n)` space of Figure 1).
//!
//! This is the direct intellectual ancestor of the KNW Figure 3 algorithm
//! (subsample to Θ(K) survivors, then count them), so having it in the
//! comparison isolates what the bit-packed counters and RoughEstimator buy.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::bits::lsb_with_cap;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;
use std::collections::HashSet;

/// The BJKST distinct-elements sketch.
///
/// The wire form is the fields in declaration order, with the sample
/// written in increasing order (one state, one encoding).  Decoding
/// refuses states no insert or merge reaches: a sample over capacity, a
/// sampled level outside `[z, log n]`, or a fingerprint outside the
/// fingerprint hash's range.
#[derive(Debug, Clone)]
pub struct BjkstSketch {
    /// Fingerprints of the sampled items (fingerprint collisions are part of
    /// the analysis and folded into the error budget).
    sample: HashSet<u64>,
    /// Current subsampling threshold `z`.
    z: u32,
    /// Sample capacity `c/ε²`.
    capacity: usize,
    /// Level hash.
    level_hash: PairwiseHash,
    /// Fingerprint hash (range `O(K² log² n)`-ish to keep collisions rare).
    fingerprint_hash: PairwiseHash,
    /// `log2` of the universe size.
    log_n: u32,
    /// Construction seed, for merge-compatibility checks.
    seed: u64,
}

impl BjkstSketch {
    /// Creates a sketch with the given sample capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 4`.
    #[must_use]
    pub fn new(capacity: usize, universe: u64, seed: u64) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4");
        let universe_pow2 = universe.max(2).next_power_of_two();
        let log_n = knw_hash::bits::ceil_log2(universe_pow2);
        let mut rng = SplitMix64::new(seed ^ 0xB1C5_7000_0005);
        let fp_range = ((capacity as u64).pow(2) * u64::from(log_n).pow(2))
            .next_power_of_two()
            .max(1 << 16);
        Self {
            sample: HashSet::with_capacity(capacity + 1),
            z: 0,
            capacity,
            level_hash: PairwiseHash::random(universe_pow2, &mut rng),
            fingerprint_hash: PairwiseHash::random(fp_range, &mut rng),
            log_n,
            seed,
        }
    }

    /// Picks a capacity `≈ 32/ε²` for a target relative error `ε`.
    #[must_use]
    pub fn with_error(epsilon: f64, universe: u64, seed: u64) -> Self {
        let capacity = (32.0 / (epsilon * epsilon)).ceil() as usize;
        Self::new(capacity.max(64), universe, seed)
    }

    /// The current subsampling level `z`.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.z
    }

    /// The sample capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl serde::Serialize for BjkstSketch {
    fn serialize(&self, out: &mut Vec<u8>) {
        crate::write_sorted(&self.sample, out);
        self.z.serialize(out);
        self.capacity.serialize(out);
        self.level_hash.serialize(out);
        self.fingerprint_hash.serialize(out);
        self.log_n.serialize(out);
        self.seed.serialize(out);
    }
}

impl serde::Deserialize for BjkstSketch {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let sketch = Self {
            sample: HashSet::deserialize(input)?,
            z: u32::deserialize(input)?,
            capacity: usize::deserialize(input)?,
            level_hash: PairwiseHash::deserialize(input)?,
            fingerprint_hash: PairwiseHash::deserialize(input)?,
            log_n: u32::deserialize(input)?,
            seed: u64::deserialize(input)?,
        };
        if sketch.sample.len() > sketch.capacity {
            return Err(serde::Error::new(format!(
                "BJKST sample of {} exceeds capacity {}",
                sketch.sample.len(),
                sketch.capacity
            )));
        }
        let range = sketch.fingerprint_hash.range();
        for &packed in &sketch.sample {
            // `insert` packs the level above a 48-bit fingerprint.
            let (level, fingerprint) = (packed >> 48, packed & ((1 << 48) - 1));
            if !(u64::from(sketch.z)..=u64::from(sketch.log_n)).contains(&level) {
                return Err(serde::Error::new(format!(
                    "BJKST sampled level {level} outside [z, log n] = [{}, {}]",
                    sketch.z, sketch.log_n
                )));
            }
            if fingerprint >= range {
                return Err(serde::Error::new(format!(
                    "BJKST fingerprint {fingerprint} outside its hash range {range}"
                )));
            }
        }
        Ok(sketch)
    }
}

impl MergeableEstimator for BjkstSketch {
    type MergeError = SketchError;

    /// Union of the level-tagged fingerprint samples at the deeper threshold,
    /// followed by the usual overflow re-filtering — exact union semantics
    /// (the final `(z, sample)` pair is an order-independent function of the
    /// distinct-item set).
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.capacity != other.capacity || self.log_n != other.log_n {
            return Err(if self.capacity != other.capacity {
                SketchError::config_mismatch("capacity", self.capacity, other.capacity)
            } else {
                SketchError::config_mismatch("log_n", self.log_n, other.log_n)
            });
        }
        if self.seed != other.seed {
            return Err(SketchError::SeedMismatch);
        }
        let z = self.z.max(other.z);
        self.z = z;
        self.sample.retain(|&packed| (packed >> 48) as u32 >= z);
        self.sample.extend(
            other
                .sample
                .iter()
                .copied()
                .filter(|&packed| (packed >> 48) as u32 >= z),
        );
        while self.sample.len() > self.capacity {
            self.z += 1;
            let z = self.z;
            self.sample.retain(|&packed| (packed >> 48) as u32 >= z);
        }
        Ok(())
    }
}

impl SpaceUsage for BjkstSketch {
    fn space_bits(&self) -> u64 {
        // Fingerprints charged at the fingerprint width, at capacity.
        let fp_bits = u64::from(knw_hash::bits::ceil_log2(self.fingerprint_hash.range()));
        self.capacity as u64 * fp_bits
            + self.level_hash.space_bits()
            + self.fingerprint_hash.space_bits()
            + 64
    }
}

impl CardinalityEstimator for BjkstSketch {
    fn insert(&mut self, item: u64) {
        let level = lsb_with_cap(self.level_hash.hash(item), self.log_n);
        if level < self.z {
            return;
        }
        // Store the item's fingerprint together with its level so the sample
        // can be re-filtered when z grows.
        let fp = self.fingerprint_hash.hash(item);
        self.sample.insert((u64::from(level) << 48) | fp);
        while self.sample.len() > self.capacity {
            self.z += 1;
            let z = self.z;
            self.sample.retain(|&packed| (packed >> 48) as u32 >= z);
        }
    }

    fn estimate(&self) -> f64 {
        self.sample.len() as f64 * 2.0f64.powi(self.z as i32)
    }

    fn name(&self) -> &'static str {
        "bjkst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_while_below_capacity() {
        let mut s = BjkstSketch::new(1_000, 1 << 20, 1);
        for i in 0..500u64 {
            s.insert(i);
            s.insert(i);
        }
        assert_eq!(s.level(), 0);
        assert_eq!(s.estimate(), 500.0);
    }

    #[test]
    fn accuracy_on_large_stream() {
        let truth = 100_000u64;
        let mut s = BjkstSketch::with_error(0.05, 1 << 20, 3);
        for i in 0..truth {
            s.insert(i);
        }
        let est = s.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "estimate {est}, relative error {rel}");
        assert!(s.level() > 0);
    }

    #[test]
    fn level_is_monotone_and_sample_bounded() {
        let mut s = BjkstSketch::new(256, 1 << 20, 7);
        let mut last_z = 0;
        for i in 0..50_000u64 {
            s.insert(i);
            assert!(s.level() >= last_z);
            last_z = s.level();
            assert!(s.sample.len() <= s.capacity());
        }
    }

    #[test]
    fn bjkst_bytes_are_canonical() {
        let items: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 20))
            .collect();
        let (mut forward, mut backward) = (
            BjkstSketch::new(256, 1 << 20, 11),
            BjkstSketch::new(256, 1 << 20, 11),
        );
        items.iter().for_each(|&item| forward.insert(item));
        items.iter().rev().for_each(|&item| backward.insert(item));
        assert!(forward.level() > 0);
        assert_eq!(
            crate::canonical_pin(&forward, &backward),
            (PINNED_LEN, PINNED_DIGEST)
        );
    }

    const PINNED_LEN: usize = 1_282;
    const PINNED_DIGEST: u64 = 7_477_602_221_977_255_124;

    /// Each check of the decoder on forged bytes: the sample sits first
    /// (a count, then the entries in increasing order), then `z` and the
    /// capacity.
    #[test]
    fn forged_samples_are_decode_errors() {
        let mut sketch = BjkstSketch::new(64, 1 << 16, 5);
        (0..2_000u64).for_each(|i| sketch.insert(i * 7_919));
        let (z, len) = (sketch.level(), sketch.sample.len());
        assert!(z > 0 && len > 1);
        let bytes = serde::to_bytes(&sketch);
        let capacity_at = 8 + 8 * len + 4;
        let forge = |at: usize, value: u64| {
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            serde::from_bytes::<BjkstSketch>(&forged)
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        let entry = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let below = (u64::from(z) - 1) << 48 | (entry & ((1 << 48) - 1));
        assert!(forge(8, below).contains("level"));
        let wide = entry | sketch.fingerprint_hash.range();
        assert!(forge(8, wide).contains("fingerprint"));
        assert!(forge(capacity_at, len as u64 - 1).contains("capacity"));
        assert!(serde::from_bytes::<BjkstSketch>(&bytes).is_ok());
    }

    #[test]
    fn fingerprint_collisions_are_rare_enough() {
        // With the default fingerprint range the estimate should not be
        // noticeably biased downward for moderate cardinalities.
        let truth = 30_000u64;
        let mut s = BjkstSketch::with_error(0.1, 1 << 22, 9);
        for i in 0..truth {
            s.insert(i * 3 + 1);
        }
        let est = s.estimate();
        assert!(est > truth as f64 * 0.7, "estimate {est} biased low");
    }
}
