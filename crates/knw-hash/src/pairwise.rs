//! Pairwise (2-wise) independent hashing.
//!
//! The paper uses pairwise independent functions pervasively:
//!
//! * `h1 ∈ H_2([n], [0, n−1])` — the subsampling hash whose `lsb` determines an
//!   item's level (Figures 2, 3, 4),
//! * `h2 ∈ H_2([n], [K³])` — the "perfect hashing" domain-compression hash,
//! * `h4 ∈ H_2([K³], [K])` — the column-salt hash of Lemma 6,
//! * the level hash of `RoughL0Estimator` and the bucket hashes of Lemma 8.
//!
//! This module provides [`PairwiseHash`], the classic `(a·x + b) mod p`
//! construction over `GF(2^61 − 1)` reduced onto the output range, which is a
//! specialization of [`crate::kwise::KWiseHash`] with `k = 2` but roughly twice
//! as fast to evaluate (a single multiply-add), which matters because `h1` and
//! `h2` sit on the per-update hot path of every sketch.

use crate::prime_field::Mersenne61;
use crate::rng::Rng64;
use crate::{check_decoded, SpaceUsage, LANES};
use serde::{Deserialize, Error};

/// A pairwise-independent hash function `x ↦ ((a·x + b) mod p) mod range` (or
/// masked when `range` is a power of two), with `p = 2^61 − 1`.
///
/// The wire layout is the derived one (`a`, `b`, `range`, the power-of-two
/// flag); decoding refuses what [`random`](Self::random) cannot draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    range: u64,
    range_is_pow2: bool,
}

impl PairwiseHash {
    /// Draws a random function from the pairwise family with outputs in
    /// `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0` or `range > 2^61 − 1`.
    #[must_use]
    pub fn random<R: Rng64 + ?Sized>(range: u64, rng: &mut R) -> Self {
        assert!(range >= 1, "output range must be nonempty");
        assert!(
            range <= Mersenne61::P,
            "output range must not exceed the field size"
        );
        // a must be nonzero for the family to be pairwise independent.
        let a = 1 + rng.next_below(Mersenne61::P - 1);
        let b = rng.next_below(Mersenne61::P);
        Self {
            a,
            b,
            range,
            range_is_pow2: range.is_power_of_two(),
        }
    }

    /// The size of the output range.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluates the hash on `x`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        let y = self.hash_full(x);
        if self.range_is_pow2 {
            y & (self.range - 1)
        } else {
            y % self.range
        }
    }

    /// Evaluates the hash without the final range reduction, returning the full
    /// field element in `[0, 2^61 − 1)`.
    ///
    /// The F0 sketches use this to extract a level via `lsb` from `h1`, which
    /// wants as many uniform low-order bits as possible.
    #[inline]
    #[must_use]
    pub fn hash_full(&self, x: u64) -> u64 {
        Mersenne61::mul_add(self.a, Mersenne61::reduce(x), self.b)
    }

    /// Evaluates [`hash_full`](Self::hash_full) on eight keys at once,
    /// bit-identical to eight per-key calls (see the crate docs on the
    /// batched-kernel contract).
    #[inline]
    #[must_use]
    pub fn hash_full_batch(&self, xs: &[u64; LANES]) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.hash_full(x);
        }
        out
    }

    /// Evaluates [`hash_full`](Self::hash_full) on eight keys already
    /// normalized into the field by [`Mersenne61::reduce`] (e.g. via
    /// [`Mersenne61::reduce_batch`]).
    ///
    /// Callers that evaluate several pairwise functions on the *same* keys —
    /// the F0 ingestion path runs the main level hash plus three rough
    /// sub-estimator level hashes per item — pay the input reduction once
    /// instead of once per function.  `hash_full(x)` applies `reduce(x)`
    /// before the multiply-add, so passing pre-reduced keys is bit-identical
    /// to the unreduced entry points.
    #[inline]
    #[must_use]
    pub fn hash_full_batch_prereduced(&self, reduced: &[u64; LANES]) -> [u64; LANES] {
        // Eight independent a·x + b chains whose u128 products the CPU keeps
        // in flight simultaneously.
        let mut out = [0u64; LANES];
        for (o, &x) in out.iter_mut().zip(reduced) {
            *o = Mersenne61::mul_add(self.a, x, self.b);
        }
        out
    }

    /// Hashes eight pre-reduced keys and returns a per-lane bitmask of the
    /// lanes whose *full* hash has all bits of `filter` clear, i.e. lane `i`
    /// is set iff `hash_full(xs[i]) & filter == 0`.
    ///
    /// This is the subsampling survivor test of the F0 ingestion loop
    /// (`lsb(h & universe_mask) ≥ t ⟺ h & universe_mask & (2^t − 1) == 0`),
    /// fused into the hash evaluation so the eight 61-bit hash values live
    /// only in registers: materializing them as a `[u64; LANES]` return value
    /// forces a stack round-trip per lane once several hash functions are in
    /// flight, which shows up directly in the insert throughput.
    /// Bit-identical to testing `hash_full_batch_prereduced` lane by lane.
    #[inline]
    #[must_use]
    pub fn hash_zero_mask_prereduced(&self, reduced: &[u64; LANES], filter: u64) -> u32 {
        let mut mask = 0u32;
        for (lane, &x) in reduced.iter().enumerate() {
            let h = Mersenne61::mul_add(self.a, x, self.b);
            mask |= u32::from(h & filter == 0) << lane;
        }
        mask
    }

    /// Evaluates [`hash`](Self::hash) on eight keys at once, bit-identical to
    /// eight per-key calls.
    #[inline]
    #[must_use]
    pub fn hash_batch(&self, xs: &[u64; LANES]) -> [u64; LANES] {
        let mut out = self.hash_full_batch(xs);
        self.apply_range(&mut out);
        out
    }

    /// Evaluates [`hash`](Self::hash) on eight pre-reduced keys (see
    /// [`hash_full_batch_prereduced`](Self::hash_full_batch_prereduced)).
    #[inline]
    #[must_use]
    pub fn hash_batch_prereduced(&self, reduced: &[u64; LANES]) -> [u64; LANES] {
        let mut out = self.hash_full_batch_prereduced(reduced);
        self.apply_range(&mut out);
        out
    }

    /// The final per-lane range reduction of [`hash`](Self::hash).
    #[inline]
    fn apply_range(&self, out: &mut [u64; LANES]) {
        if self.range_is_pow2 {
            let mask = self.range - 1;
            for o in out {
                *o &= mask;
            }
        } else {
            for o in out {
                *o %= self.range;
            }
        }
    }
}

impl Deserialize for PairwiseHash {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let a = u64::deserialize(input)?;
        let b = u64::deserialize(input)?;
        let range = u64::deserialize(input)?;
        let range_is_pow2 = bool::deserialize(input)?;
        check_decoded(&[a, b], range, range_is_pow2)?;
        if a == 0 {
            // The family is pairwise independent only for a ≠ 0.
            return Err(Error::new("pairwise hash with a = 0"));
        }
        Ok(Self {
            a,
            b,
            range,
            range_is_pow2,
        })
    }
}

impl SpaceUsage for PairwiseHash {
    fn space_bits(&self) -> u64 {
        // Two coefficients of 61 bits plus the stored range.
        2 * 61 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The hand-written decoder reads the derived layout: `a`, `b`,
    /// `range` (little-endian `u64`s), then the power-of-two flag byte.
    #[test]
    fn wire_bytes_are_pinned() {
        for range in [1_000u64, 1 << 20] {
            let h = PairwiseHash::random(range, &mut SplitMix64::new(11));
            let mut expected = Vec::new();
            for word in [h.a, h.b, range] {
                expected.extend_from_slice(&word.to_le_bytes());
            }
            expected.push(u8::from(range.is_power_of_two()));
            assert_eq!(serde::to_bytes(&h), expected);
            assert_eq!(serde::from_bytes::<PairwiseHash>(&expected), Ok(h));
        }
    }

    #[test]
    fn forged_parameters_are_refused() {
        let good = PairwiseHash::random(1_000, &mut SplitMix64::new(12));
        let p = Mersenne61::P;
        let forged = [
            PairwiseHash { range: 0, ..good },
            PairwiseHash {
                range: p + 1,
                ..good
            },
            PairwiseHash { a: 0, ..good },
            PairwiseHash { a: p, ..good },
            PairwiseHash { b: p, ..good },
            PairwiseHash {
                range_is_pow2: true,
                ..good
            },
            PairwiseHash {
                range: 1 << 10,
                ..good
            },
        ];
        for hash in forged {
            let bytes = serde::to_bytes(&hash);
            assert!(
                serde::from_bytes::<PairwiseHash>(&bytes).is_err(),
                "{hash:?} decoded"
            );
        }
    }

    #[test]
    fn outputs_stay_in_range() {
        let mut rng = SplitMix64::new(100);
        for &range in &[1u64, 2, 3, 64, 1_000_000, 1 << 30] {
            let h = PairwiseHash::random(range, &mut rng);
            for x in 0..2_000u64 {
                assert!(h.hash(x) < range);
            }
        }
    }

    #[test]
    fn collision_probability_close_to_one_over_range() {
        let mut rng = SplitMix64::new(3);
        let range = 512u64;
        let mut collisions = 0u64;
        let trials = 300u64;
        let pairs_per_trial = 64u64;
        for _ in 0..trials {
            let h = PairwiseHash::random(range, &mut rng);
            for i in 0..pairs_per_trial {
                if h.hash(i) == h.hash(i + 10_000) {
                    collisions += 1;
                }
            }
        }
        let rate = collisions as f64 / (trials * pairs_per_trial) as f64;
        // Expected 1/512 ≈ 0.00195; allow generous slack.
        assert!(
            rate < 0.01,
            "collision rate {rate} too high for pairwise family"
        );
    }

    #[test]
    fn uniformity_of_buckets() {
        let mut rng = SplitMix64::new(8);
        let range = 8u64;
        let h = PairwiseHash::random(range, &mut rng);
        let mut counts = vec![0u64; range as usize];
        let n = 8_000u64;
        for x in 0..n {
            counts[h.hash(x) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 1.0 / range as f64).abs() < 0.05,
                "bucket {i} has fraction {frac}"
            );
        }
    }

    #[test]
    fn lsb_of_hash_full_is_geometric() {
        // Pr[lsb(h1(x)) >= r] should be about 2^-r; check the first few levels
        // aggregated over many keys.
        let mut rng = SplitMix64::new(55);
        let h = PairwiseHash::random(1 << 30, &mut rng);
        let n = 40_000u64;
        let mut at_least = [0u64; 6];
        for x in 0..n {
            let l = crate::bits::lsb_with_cap(h.hash_full(x), 61);
            for (r, slot) in at_least.iter_mut().enumerate() {
                if l as usize >= r {
                    *slot += 1;
                }
            }
        }
        for (r, &cnt) in at_least.iter().enumerate() {
            let frac = cnt as f64 / n as f64;
            let expect = 0.5f64.powi(r as i32);
            assert!(
                (frac - expect).abs() < 0.03,
                "level {r}: fraction {frac}, expected {expect}"
            );
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut r1 = SplitMix64::new(500);
        let mut r2 = SplitMix64::new(500);
        let h1 = PairwiseHash::random(1 << 16, &mut r1);
        let h2 = PairwiseHash::random(1 << 16, &mut r2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn space_is_constant() {
        let mut rng = SplitMix64::new(1);
        let h = PairwiseHash::random(1 << 10, &mut rng);
        assert_eq!(h.space_bits(), 2 * 61 + 64);
    }
}
