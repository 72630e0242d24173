//! Gibbons–Tirthapura coordinated sampling (SPAA 2001), reference \[24\] of the
//! paper: `O(ε⁻² log n)` bits of space with `O(ε⁻²)`-flavoured update cost in
//! the worst case (the row right above Bar-Yossef et al in Figure 1).
//!
//! The structure is the classic "distinct sampling" scheme: keep the actual
//! identifiers of items whose hash level is at least `z`, doubling `z` when
//! the sample overflows.  It differs from [`crate::bjkst::BjkstSketch`] only
//! in storing full `log n`-bit identifiers instead of fingerprints, which is
//! exactly the `log n` vs `log log n` gap the Figure 1 space column shows —
//! and it is mergeable across streams, which is why it remains popular for
//! union workloads.

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::bits::lsb_with_cap;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;
use std::collections::HashSet;

/// The Gibbons–Tirthapura distinct-sampling sketch.
///
/// The wire form is the fields in declaration order, with the sample
/// written in increasing order (one state, one encoding).  Decoding
/// refuses states no insert or merge reaches: a sample over capacity, or
/// a sampled item whose level is below `z` (a merge would drop it).
#[derive(Debug, Clone)]
pub struct GibbonsTirthapura {
    /// Sampled item identifiers (full identifiers — this is the point of the
    /// comparison with BJKST).
    sample: HashSet<u64>,
    /// Current sampling level.
    z: u32,
    /// Sample capacity.
    capacity: usize,
    /// Level hash.
    level_hash: PairwiseHash,
    /// `log2` of the universe size (also the per-item storage cost in bits).
    log_n: u32,
    /// Construction seed, for merge-compatibility checks.
    seed: u64,
}

impl GibbonsTirthapura {
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
        let mut rng = SplitMix64::new(seed ^ 0x61B0_0075_0000_0006);
        Self {
            sample: HashSet::with_capacity(capacity + 1),
            z: 0,
            capacity,
            level_hash: PairwiseHash::random(universe_pow2, &mut rng),
            log_n,
            seed,
        }
    }

    /// Picks a capacity `≈ 24/ε²` for a target relative error `ε`.
    #[must_use]
    pub fn with_error(epsilon: f64, universe: u64, seed: u64) -> Self {
        let capacity = (24.0 / (epsilon * epsilon)).ceil() as usize;
        Self::new(capacity.max(48), universe, seed)
    }

    /// Current sampling level.
    #[must_use]
    pub fn level(&self) -> u32 {
        self.z
    }

    /// The level `lsb(level_hash(item))`, capped at `log n`.
    fn item_level(&self, item: u64) -> u32 {
        lsb_with_cap(self.level_hash.hash(item), self.log_n)
    }
}

impl serde::Serialize for GibbonsTirthapura {
    fn serialize(&self, out: &mut Vec<u8>) {
        crate::write_sorted(&self.sample, out);
        self.z.serialize(out);
        self.capacity.serialize(out);
        self.level_hash.serialize(out);
        self.log_n.serialize(out);
        self.seed.serialize(out);
    }
}

impl serde::Deserialize for GibbonsTirthapura {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let sketch = Self {
            sample: HashSet::deserialize(input)?,
            z: u32::deserialize(input)?,
            capacity: usize::deserialize(input)?,
            level_hash: PairwiseHash::deserialize(input)?,
            log_n: u32::deserialize(input)?,
            seed: u64::deserialize(input)?,
        };
        if sketch.sample.len() > sketch.capacity {
            return Err(serde::Error::new(format!(
                "Gibbons-Tirthapura sample of {} exceeds capacity {}",
                sketch.sample.len(),
                sketch.capacity
            )));
        }
        let below = |&&item: &&u64| sketch.item_level(item) < sketch.z;
        if let Some(&item) = sketch.sample.iter().find(below) {
            return Err(serde::Error::new(format!(
                "Gibbons-Tirthapura sampled item {item} has level {} below z {}",
                sketch.item_level(item),
                sketch.z
            )));
        }
        Ok(sketch)
    }
}

impl MergeableEstimator for GibbonsTirthapura {
    type MergeError = SketchError;

    /// Union of the coordinated samples at the deeper sampling level, with
    /// the usual overflow re-filtering — the operation the scheme was
    /// designed for (exact union semantics).
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
        // Raise to the higher level first.
        let target = self.z.max(other.z);
        self.z = target;
        let level_hash = self.level_hash;
        let log_n = self.log_n;
        self.sample
            .retain(|&i| lsb_with_cap(level_hash.hash(i), log_n) >= target);
        for &item in &other.sample {
            if self.item_level(item) >= self.z {
                self.sample.insert(item);
            }
        }
        while self.sample.len() > self.capacity {
            self.z += 1;
            let z = self.z;
            let level_hash = self.level_hash;
            self.sample
                .retain(|&i| lsb_with_cap(level_hash.hash(i), log_n) >= z);
        }
        Ok(())
    }
}

impl SpaceUsage for GibbonsTirthapura {
    fn space_bits(&self) -> u64 {
        // capacity identifiers of log n bits each — the O(ε⁻² log n) row.
        self.capacity as u64 * u64::from(self.log_n) + self.level_hash.space_bits() + 64
    }
}

impl CardinalityEstimator for GibbonsTirthapura {
    fn insert(&mut self, item: u64) {
        if self.item_level(item) < self.z {
            return;
        }
        self.sample.insert(item);
        while self.sample.len() > self.capacity {
            self.z += 1;
            let z = self.z;
            let level_hash = self.level_hash;
            let log_n = self.log_n;
            self.sample
                .retain(|&i| lsb_with_cap(level_hash.hash(i), log_n) >= z);
        }
    }

    fn estimate(&self) -> f64 {
        self.sample.len() as f64 * 2.0f64.powi(self.z as i32)
    }

    fn name(&self) -> &'static str {
        "gibbons-tirthapura"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = GibbonsTirthapura::new(512, 1 << 16, 1);
        for i in 0..300u64 {
            s.insert(i);
        }
        assert_eq!(s.estimate(), 300.0);
    }

    #[test]
    fn accuracy_on_large_stream() {
        let truth = 80_000u64;
        let mut s = GibbonsTirthapura::with_error(0.05, 1 << 20, 2);
        for i in 0..truth {
            s.insert(i);
        }
        let rel = (s.estimate() - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "relative error {rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = GibbonsTirthapura::new(256, 1 << 18, 7);
        let mut b = GibbonsTirthapura::new(256, 1 << 18, 7);
        let mut u = GibbonsTirthapura::new(256, 1 << 18, 7);
        for i in 0..20_000u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 15_000..40_000u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge_from(&b).expect("compatible sketches");
        // The final (z, sample) pair is an order-independent function of the
        // distinct-item set, so merge equals the union run exactly.
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn merge_rejects_mismatches() {
        let mut a = GibbonsTirthapura::new(256, 1 << 18, 7);
        let b = GibbonsTirthapura::new(256, 1 << 18, 8);
        assert_eq!(a.merge_from(&b), Err(SketchError::SeedMismatch));
        let c = GibbonsTirthapura::new(128, 1 << 18, 7);
        assert!(matches!(
            a.merge_from(&c),
            Err(SketchError::IncompatibleConfig { .. })
        ));
    }

    #[test]
    fn gibbons_tirthapura_bytes_are_canonical() {
        let items: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 20))
            .collect();
        let (mut forward, mut backward) = (
            GibbonsTirthapura::new(256, 1 << 20, 11),
            GibbonsTirthapura::new(256, 1 << 20, 11),
        );
        items.iter().for_each(|&item| forward.insert(item));
        items.iter().rev().for_each(|&item| backward.insert(item));
        assert!(forward.level() > 0);
        assert_eq!(
            crate::canonical_pin(&forward, &backward),
            (PINNED_LEN, PINNED_DIGEST)
        );
    }

    const PINNED_LEN: usize = 1_337;
    const PINNED_DIGEST: u64 = 15_845_884_443_357_182_215;

    /// Each check of the decoder on forged bytes: the sample sits first
    /// (a count, then the items in increasing order), then `z` and the
    /// capacity.
    #[test]
    fn forged_samples_are_decode_errors() {
        let mut sketch = GibbonsTirthapura::new(64, 1 << 16, 5);
        (0..2_000u64).for_each(|i| sketch.insert(i * 7_919));
        let (z, len) = (sketch.level(), sketch.sample.len());
        assert!(z > 0 && len > 1);
        let bytes = serde::to_bytes(&sketch);
        let forge = |at: usize, value: u64| {
            let mut forged = bytes.clone();
            forged[at..at + 8].copy_from_slice(&value.to_le_bytes());
            serde::from_bytes::<GibbonsTirthapura>(&forged)
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        let below = (0..)
            .find(|&item| sketch.item_level(item) < z)
            .expect("an item");
        assert!(forge(8, below).contains("below z"));
        assert!(forge(8 + 8 * len + 4, len as u64 - 1).contains("capacity"));
        assert!(serde::from_bytes::<GibbonsTirthapura>(&bytes).is_ok());
    }

    #[test]
    fn space_charged_at_log_n_per_slot() {
        let s = GibbonsTirthapura::new(1_000, 1 << 24, 3);
        assert!(s.space_bits() >= 1_000 * 24);
    }
}
