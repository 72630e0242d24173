//! RoughL0Estimator — the constant-factor L0 approximation (Appendix A.3,
//! Theorem 11 of the paper).
//!
//! The full L0 algorithm needs an oracle providing `R = Θ(L0)` to choose which
//! row of its counter matrix to invert (Figure 4, step 4).  Deletions make the
//! F0 RoughEstimator unusable (its counters only grow), so the paper builds a
//! different structure:
//!
//! * a pairwise hash `h : [n] → [n]` splits the universe into substreams
//!   `S^j = {x : lsb(h(x)) = j}`, so `E[L0(S^j)] = L0/2^{j+1}`;
//! * each substream is tracked by a Lemma 8 exact small-L0 structure `B^j`
//!   with capacity `c = 141` and failure probability `δ = 1/16`;
//! * the estimate is `2^j` for the deepest level `j` whose `B^j` reports more
//!   than 8 surviving coordinates, or 1 if no level does.
//!
//! Theorem 11: with probability ≥ 9/16 the output `R` satisfies
//! `L0/110 ≤ R ≤ L0` (a constant-factor approximation; the full sketch only
//! needs `R = Θ(L0)`).  The structure supports deletions by construction,
//! uses `O(log n · log log(mM))` bits, and has O(1) update time (one hash, one
//! level update) and O(1) reporting time (the per-level verdicts are cached in
//! a bitmask whose most significant set bit is the answer).
//!
//! On the wire the estimator is its level hash, `log n` and the levels, each
//! decoded with exactly the geometry [`RoughL0Estimator::new`] gives it; the
//! fired-level bitmask is derived from the decoded levels, not sent.

use crate::l0::small::ExactSmallL0;
use knw_hash::bits::lsb_with_cap;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;
use serde::{Deserialize, Error, Serialize};

/// The per-level capacity `c = 141` from Appendix A.3.
pub const LEVEL_CAPACITY: u64 = 141;

/// The occupancy threshold (a level "fires" when more than 8 coordinates
/// survive in it).
pub const LEVEL_THRESHOLD: u64 = 8;

/// The per-level failure probability `δ = 1/16` from Appendix A.3.
const LEVEL_DELTA: f64 = 1.0 / 16.0;

/// Bit `j` set ⇔ level `j` reports more than [`LEVEL_THRESHOLD`] survivors.
fn fired_levels(levels: &[ExactSmallL0]) -> u64 {
    levels
        .iter()
        .enumerate()
        .filter(|(_, level)| level.estimate() > LEVEL_THRESHOLD)
        .fold(0, |fired, (j, _)| fired | 1u64 << j)
}

/// The constant-factor (Theorem 11) rough L0 estimator.
#[derive(Debug, Clone)]
pub struct RoughL0Estimator {
    /// The level-splitting pairwise hash.
    level_hash: PairwiseHash,
    /// One exact small-L0 structure per level `0 ..= log n`.
    levels: Vec<ExactSmallL0>,
    /// Bit `j` set ⇔ level `j` currently reports more than [`LEVEL_THRESHOLD`]
    /// survivors.  Reporting is then a most-significant-bit computation.
    fired: u64,
    /// `log2` of the universe size.
    log_n: u32,
}

impl RoughL0Estimator {
    /// Creates the estimator for a universe of size `universe` (rounded up to
    /// a power of two).
    #[must_use]
    pub fn new(universe: u64, seed: u64) -> Self {
        let universe_pow2 = universe.max(2).next_power_of_two();
        let log_n = knw_hash::bits::ceil_log2(universe_pow2).min(63);
        let mut master = SplitMix64::new(seed ^ 0x0F0F_1234_ABCD_9876);
        let level_hash = PairwiseHash::random(universe_pow2, &mut master);
        let levels = (0..=log_n)
            .map(|j| {
                let mut level_rng = master.split(u64::from(j) + 101);
                ExactSmallL0::new(LEVEL_CAPACITY, LEVEL_DELTA, &mut level_rng)
            })
            .collect();
        Self {
            level_hash,
            levels,
            fired: 0,
            log_n,
        }
    }

    /// Applies the update `x_item ← x_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        let level = lsb_with_cap(self.level_hash.hash(item), self.log_n) as usize;
        let level = level.min(self.levels.len() - 1);
        self.levels[level].update(item, delta);
        let fires = self.levels[level].estimate() > LEVEL_THRESHOLD;
        if fires {
            self.fired |= 1u64 << level;
        } else {
            self.fired &= !(1u64 << level);
        }
    }

    /// The current rough estimate `R̃`: `2^j` for the deepest fired level, or 1
    /// if no level fires.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match knw_hash::bits::msb(self.fired) {
            Some(j) => (1u64 << j) as f64,
            None => 1.0,
        }
    }

    /// The number of levels (`log n + 1`).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The exact count reported by level `j` (diagnostics / experiments).
    #[must_use]
    pub fn level_count(&self, j: usize) -> u64 {
        self.levels[j].estimate()
    }

    /// Merges another estimator built with the *same seed* by merging every
    /// level's Lemma 8 structure (entrywise counter addition) and recomputing
    /// the fired-level bitmask from the merged level states.
    ///
    /// In a single-stream run, bit `j` of the bitmask is last written right
    /// after the final update to level `j`, so it is a pure function of that
    /// level's final counter state; recomputing it from the merged counters
    /// therefore reproduces the single-stream bitmask exactly.
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(self.log_n, other.log_n);
        assert_eq!(self.levels.len(), other.levels.len());
        for (mine, theirs) in self.levels.iter_mut().zip(other.levels.iter()) {
            mine.merge_from_unchecked(theirs);
        }
        self.fired = fired_levels(&self.levels);
    }

    /// The levels' Lemma 8 structures.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> &[ExactSmallL0] {
        &self.levels
    }

    /// Sets every level's counters to 0, keeping their memory.
    pub(crate) fn clear(&mut self) {
        self.levels.iter_mut().for_each(ExactSmallL0::clear);
        self.fired = 0;
    }

    /// Whether `other` has this estimator's level hash, `log n` and level
    /// draws: the draws of the same seed.
    pub(crate) fn same_draws(&self, other: &Self) -> bool {
        (self.level_hash, self.log_n) == (other.level_hash, other.log_n)
            && self.levels.len() == other.levels.len()
            && self
                .levels
                .iter()
                .zip(&other.levels)
                .all(|(mine, theirs)| mine.same_draws(theirs))
    }

    /// Checks that `input` starts with an encoding the decoder accepts, of
    /// this estimator's `log n`, and advances past it; returns whether it
    /// has this estimator's draws (see [`ExactSmallL0::check_wire`]).
    /// Changes nothing.
    pub(crate) fn check_wire(&self, input: &mut &[u8]) -> Result<bool, Error> {
        let level_hash = PairwiseHash::deserialize(input)?;
        let log_n = u32::deserialize(input)?;
        if log_n != self.log_n {
            return Err(Error::new(format!("rough oracle log n {log_n} refused")));
        }
        let mut same = level_hash == self.level_hash;
        for level in &self.levels {
            same &= level.check_wire(input)?;
        }
        Ok(same)
    }

    /// Adds the estimator [`check_wire`](Self::check_wire) accepted at the
    /// front of `input` to this one in place — or with `replace` makes this
    /// one that estimator — and advances past it.
    pub(crate) fn merge_wire(&mut self, input: &mut &[u8], replace: bool) {
        PairwiseHash::deserialize(input).expect("checked");
        u32::deserialize(input).expect("checked");
        for level in &mut self.levels {
            level.merge_wire(input, replace);
        }
        self.fired = fired_levels(&self.levels);
    }

    /// Decodes an estimator whose `log n` must equal `log_n`, checked
    /// before any level is read.
    pub(crate) fn deserialize_as(input: &mut &[u8], log_n: u32) -> Result<Self, Error> {
        Self::read(input, Some(log_n))
    }

    /// Reads the level hash and `log n` (at most 63, and equal to `log_n`
    /// when one is given), then `log n + 1` levels of the fixed Appendix A.3
    /// geometry.
    fn read(input: &mut &[u8], expected: Option<u32>) -> Result<Self, Error> {
        let level_hash = PairwiseHash::deserialize(input)?;
        let log_n = u32::deserialize(input)?;
        if log_n > 63 || expected.is_some_and(|expected| expected != log_n) {
            return Err(Error::new(format!("rough oracle log n {log_n} refused")));
        }
        let levels = (0..=log_n)
            .map(|_| ExactSmallL0::deserialize_as(input, LEVEL_CAPACITY, LEVEL_DELTA))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            level_hash,
            fired: fired_levels(&levels),
            levels,
            log_n,
        })
    }
}

impl Serialize for RoughL0Estimator {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.level_hash.serialize(out);
        self.log_n.serialize(out);
        for level in &self.levels {
            level.serialize(out);
        }
    }
}

impl Deserialize for RoughL0Estimator {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Self::read(input, None)
    }
}

impl SpaceUsage for RoughL0Estimator {
    fn space_bits(&self) -> u64 {
        self.level_hash.space_bits()
            + self.levels.iter().map(SpaceUsage::space_bits).sum::<u64>()
            + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimator_reports_one() {
        let r = RoughL0Estimator::new(1 << 16, 1);
        assert_eq!(r.estimate(), 1.0);
    }

    #[test]
    fn small_l0_is_within_the_guarantee_band() {
        // Theorem 11: L0/110 ≤ R ≤ L0 (we allow a factor-2 slack on the upper
        // side because our levels are capped at log n).  Check over several
        // cardinalities and seeds, allowing the stated constant failure rate.
        let mut failures = 0;
        let mut total = 0;
        for &l0 in &[50u64, 200, 1_000, 5_000, 20_000] {
            for seed in 0..5u64 {
                let mut r = RoughL0Estimator::new(1 << 20, seed * 3 + 1);
                for i in 0..l0 {
                    r.update(i, 1);
                }
                let est = r.estimate();
                total += 1;
                if est < l0 as f64 / 110.0 || est > 2.0 * l0 as f64 {
                    failures += 1;
                }
            }
        }
        assert!(
            failures * 4 <= total,
            "{failures}/{total} runs outside the Theorem 11 band"
        );
    }

    #[test]
    fn estimate_shrinks_after_deletions() {
        let mut r = RoughL0Estimator::new(1 << 18, 7);
        for i in 0..10_000u64 {
            r.update(i, 1);
        }
        let before = r.estimate();
        // Delete 99% of the coordinates entirely.
        for i in 100..10_000u64 {
            r.update(i, -1);
        }
        let after = r.estimate();
        assert!(
            after < before,
            "estimate did not shrink: {before} -> {after}"
        );
        assert!(
            after <= 100.0 * 2.0,
            "after-delete estimate {after} too large"
        );
    }

    #[test]
    fn cancelling_everything_returns_to_baseline() {
        let mut r = RoughL0Estimator::new(1 << 14, 3);
        for i in 0..3_000u64 {
            r.update(i, 5);
        }
        for i in 0..3_000u64 {
            r.update(i, -5);
        }
        assert_eq!(r.estimate(), 1.0);
    }

    #[test]
    fn duplicates_and_increments_do_not_inflate() {
        let mut r = RoughL0Estimator::new(1 << 16, 11);
        for _ in 0..50 {
            for i in 0..500u64 {
                r.update(i, 1);
            }
        }
        // L0 is 500 regardless of the 50 repetitions.
        let est = r.estimate();
        assert!(est <= 1_000.0, "estimate {est} inflated by repetitions");
    }

    #[test]
    fn space_is_independent_of_stream_length() {
        let mut r = RoughL0Estimator::new(1 << 16, 2);
        let before = r.space_bits();
        for i in 0..50_000u64 {
            r.update(i % 4_096, 1);
        }
        assert_eq!(r.space_bits(), before);
    }

    #[test]
    fn level_counts_decay_geometrically() {
        let mut r = RoughL0Estimator::new(1 << 20, 5);
        for i in 0..40_000u64 {
            r.update(i, 1);
        }
        // Shallow levels saturate around the capacity; deep levels hold few
        // items.  Find the first level with a small count and check all deeper
        // levels are also small-ish.
        let counts: Vec<u64> = (0..r.num_levels()).map(|j| r.level_count(j)).collect();
        let deep_sum: u64 = counts.iter().skip(16).sum();
        assert!(
            deep_sum < 40,
            "levels ≥ 16 should be nearly empty, got {counts:?}"
        );
    }

    #[test]
    fn the_wire_form_derives_the_fired_levels_and_checks_the_geometry() {
        let mut r = RoughL0Estimator::new(1 << 12, 3);
        for i in 0..3_000u64 {
            r.update(i, 1);
        }
        assert_ne!(r.fired, 0);
        let bytes = serde::to_bytes(&r);
        let back: RoughL0Estimator = serde::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.fired, r.fired);
        assert_eq!(back.estimate(), r.estimate());
        assert_eq!(serde::to_bytes(&back), bytes);

        // `log n` is checked against the expected one, and against 63,
        // before any level is read.
        let mut input = &bytes[..];
        let err = RoughL0Estimator::deserialize_as(&mut input, 13).expect_err("log n 12");
        assert!(err.to_string().contains("log n 12"), "{err}");
        let head = |log_n: u32| {
            let mut out = serde::to_bytes(&r.level_hash);
            log_n.serialize(&mut out);
            out
        };
        let err = serde::from_bytes::<RoughL0Estimator>(&head(64)).expect_err("log n 64");
        assert!(err.to_string().contains("log n 64"), "{err}");

        // A level must have the Appendix A.3 geometry: capacity 141 and four
        // trials, whatever larger geometry its header declares.
        for (capacity, trials) in [(141u64, 5u64), (1448, 1), (100, 4)] {
            let mut forged = head(0);
            capacity.serialize(&mut forged);
            trials.serialize(&mut forged);
            let err = serde::from_bytes::<RoughL0Estimator>(&forged).expect_err("level shape");
            assert!(err.to_string().contains("geometry"), "{err}");
        }
    }
}
