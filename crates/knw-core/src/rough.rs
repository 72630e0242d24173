//! RoughEstimator — the constant-factor, all-times F0 approximation
//! (Figure 2, Theorem 1 and Lemma 5 of the paper).
//!
//! The full F0 algorithm needs a value `R = Θ(F0(t))` **at every point of the
//! stream** (not just at the end), using only `O(log n)` bits.  Previous
//! constant-factor estimators gave a per-time-step guarantee and needed a
//! union bound over the stream (`O(log n · log m)` bits); the paper's
//! RoughEstimator achieves the simultaneous guarantee directly:
//!
//! > With probability `1 − o(1)`, `F0(t) ≤ F̃0(t) ≤ 8·F0(t)` for every `t`
//! > with `F0(t) ≥ K_RE`, where `K_RE = max(8, log n / log log n)`.
//!
//! Structure (per Figure 2): three independent sub-estimators, each with
//! `K_RE` counters storing the deepest `lsb` level of any item hashed into
//! them; the estimate of a sub-estimator is `2^{r*}·K_RE` where `r*` is the
//! deepest level at which at least `ρ·K_RE` counters have reached that level
//! (`ρ = 0.99·(1 − e^{−1/3})`); the final output is the median of the three.
//!
//! The estimate is monotone in `t` by construction (counters only grow), which
//! is what upgrades the per-power-of-two-times union bound into the
//! "all times" guarantee (end of the proof of Theorem 1).

use knw_hash::bits::{ceil_log2, lsb_with_cap};
use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::uniform::{BucketHash, HashStrategy};
use knw_hash::SpaceUsage;
use knw_vla::bitvec::FixedWidthVec;

/// The occupancy threshold constant `ρ = 0.99·(1 − e^{−1/3})` from Figure 2.
pub const RHO: f64 = 0.99 * (1.0 - 0.716_531_310_573_789_3); // 1 - e^{-1/3}

/// Number of independent sub-estimators whose median is reported.
const COPIES: usize = 3;

/// One of the three sub-estimators of Figure 2.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct RoughSub {
    /// `h1 ∈ H_2([n], [0, n−1])` — level hash (via `lsb`).
    h1: PairwiseHash,
    /// `h2 ∈ H_2([n], [K_RE³])` — domain compression.
    h2: PairwiseHash,
    /// `h3 ∈ H_{2K_RE}([K_RE³], [K_RE])` — bucket hash.
    h3: BucketHash,
    /// Counters `C_1.. C_{K_RE}`, stored as `value + 1` so that the paper's
    /// initial value `−1` is the all-zeros state.
    counters: FixedWidthVec,
    /// `counts[v]` = number of counters currently holding level `v`
    /// (shifted representation, so index 0 means "−1 / untouched").
    level_counts: Vec<u32>,
    /// Minimum stored counter value (0 while any bucket is untouched),
    /// maintained so the batch ingestion path can skip the expensive bucket
    /// hash for items whose level cannot change any counter.
    min_stored: u64,
}

impl RoughSub {
    fn new(
        universe_pow2: u64,
        log_n: u32,
        k_re: u64,
        strategy: HashStrategy,
        rng: &mut SplitMix64,
    ) -> Self {
        let cube = k_re.saturating_mul(k_re).saturating_mul(k_re);
        let counter_width = ceil_log2(u64::from(log_n) + 2).max(1);
        Self {
            h1: PairwiseHash::random(universe_pow2, rng),
            h2: PairwiseHash::random(cube, rng),
            h3: BucketHash::random(strategy, (2 * k_re) as usize, k_re, rng),
            counters: FixedWidthVec::zeros(k_re as usize, counter_width),
            level_counts: vec![0u32; log_n as usize + 2],
            min_stored: 0,
        }
    }

    /// Returns `true` if a counter changed (i.e. the estimate may have moved).
    #[inline]
    fn insert(&mut self, item: u64, log_n: u32) -> bool {
        let level = lsb_with_cap(self.h1.hash(item), log_n);
        self.apply_level(item, level)
    }

    /// Like [`insert`](Self::insert), but skips the bucket hashes entirely
    /// when the item's level cannot exceed any stored counter — bit-identical
    /// state, since `candidate ≤ min_j C_j` implies no counter changes.  The
    /// level hash `h1` is a two-term polynomial; the pruned work (`h2`, `h3`)
    /// is the `2·K_RE`-wise family, which dominates the per-item cost.
    #[inline]
    fn insert_pruned(&mut self, item: u64, log_n: u32) -> bool {
        let level = lsb_with_cap(self.h1.hash(item), log_n);
        if u64::from(level) < self.min_stored {
            return false;
        }
        self.apply_level(item, level)
    }

    #[inline]
    fn apply_level(&mut self, item: u64, level: u32) -> bool {
        let bucket = self.h3.hash(self.h2.hash(item)) as usize;
        let stored = self.counters.get(bucket);
        let candidate = u64::from(level) + 1;
        if candidate > stored {
            self.counters.set(bucket, candidate);
            if stored > 0 {
                self.level_counts[stored as usize - 1] -= 1;
            }
            self.level_counts[level as usize] += 1;
            if stored == self.min_stored {
                self.recompute_min();
            }
            true
        } else {
            false
        }
    }

    /// Rescans the (constant-count, `K_RE ≤ O(log n / log log n)`) counters
    /// for the minimum stored value.  Called only when a counter holding the
    /// old minimum grows, which happens at most `3·K_RE·(log n + 1)` times
    /// over a whole stream.
    fn recompute_min(&mut self) {
        let mut min = u64::MAX;
        for idx in 0..self.counters.len() {
            min = min.min(self.counters.get(idx));
            if min == 0 {
                break;
            }
        }
        self.min_stored = min;
    }

    /// `T_r = |{i : C_i ≥ r}|` computed from the level histogram; the scan is
    /// over at most `log n + 1` levels, i.e. a constant number of machine
    /// words of state (Lemma 5 de-amortizes this further; the histogram keeps
    /// reporting cheap without the rolling-register machinery).
    fn estimate(&self, k_re: u64) -> f64 {
        let threshold = (RHO * k_re as f64).ceil() as u64;
        let mut suffix = 0u64;
        let mut best: Option<usize> = None;
        // Scan levels from the deepest down, accumulating T_r.
        for r in (0..self.level_counts.len()).rev() {
            suffix += u64::from(self.level_counts[r]);
            if suffix >= threshold {
                best = Some(r);
                break;
            }
        }
        match best {
            Some(r) => (1u64 << r.min(62)) as f64 * k_re as f64,
            None => 0.0,
        }
    }

    fn space_bits(&self) -> u64 {
        self.h1.space_bits()
            + self.h2.space_bits()
            + self.h3.space_bits()
            + self.counters.space_bits()
            + self.level_counts.len() as u64 * 32
    }

    /// Checks the derived fields against the counters, for `log n` =
    /// `log_n`: `log n + 2` histogram levels, every counter at most
    /// `log n + 1`, the histogram counting the counters at each level and
    /// `min_stored` their minimum.
    fn check(&self, log_n: u32) -> Result<(), String> {
        let levels = log_n as usize + 2;
        if self.level_counts.len() != levels {
            return Err(format!(
                "rough counter histogram has {} levels for log n {log_n}",
                self.level_counts.len()
            ));
        }
        let mut histogram = vec![0u32; levels];
        let mut min = u64::MAX;
        for stored in self.counters.iter() {
            if stored > u64::from(log_n) + 1 {
                return Err(format!("rough counter level {stored} above log n + 1"));
            }
            if stored > 0 {
                histogram[stored as usize - 1] += 1;
            }
            min = min.min(stored);
        }
        if histogram != self.level_counts {
            return Err("rough counter histogram differs from the counters".into());
        }
        if !self.counters.is_empty() && min != self.min_stored {
            return Err("rough counter minimum differs from the counters".into());
        }
        Ok(())
    }
}

/// The Figure 2 RoughEstimator: an `O(log n)`-bit structure whose estimate is,
/// with probability `1 − o(1)`, within `[F0(t), 8·F0(t)]` simultaneously for
/// all times `t` at which `F0(t) ≥ K_RE`.
///
/// The wire form is the fields in declaration order.  Decoding checks each
/// sub-estimator's level histogram and minimum against its counters, and
/// every counter against `log n`, so a decoded estimator's merge never
/// indexes past its histogram.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RoughEstimator {
    log_n: u32,
    k_re: u64,
    subs: Vec<RoughSub>,
}

impl RoughEstimator {
    /// Creates a RoughEstimator for a universe of size `universe` (rounded up
    /// to a power of two), seeded deterministically.
    #[must_use]
    pub fn new(universe: u64, seed: u64) -> Self {
        Self::with_strategy(universe, seed, HashStrategy::default())
    }

    /// Creates a RoughEstimator selecting the bucket-hash construction.
    ///
    /// `HashStrategy::PolynomialKWise` follows Figure 2 literally
    /// (`2·K_RE`-wise polynomial); `HashStrategy::Tabulation` follows the
    /// O(1)-time variant of Lemma 5 (Pagh–Pagh replaced by twisted
    /// tabulation; `knw_hash::tabulation` gives the substitution argument).
    #[must_use]
    pub fn with_strategy(universe: u64, seed: u64, strategy: HashStrategy) -> Self {
        let universe_pow2 = universe.max(2).next_power_of_two();
        let log_n = ceil_log2(universe_pow2);
        let k_re = Self::k_re_for(log_n);
        let mut master = SplitMix64::new(seed ^ 0x5EED_0F00_0000_0001);
        let subs = (0..COPIES)
            .map(|j| {
                let mut sub_rng = master.split(j as u64);
                RoughSub::new(universe_pow2, log_n, k_re, strategy, &mut sub_rng)
            })
            .collect();
        Self { log_n, k_re, subs }
    }

    /// `K_RE = max(8, log n / log log n)` (Figure 2, step 1).
    #[must_use]
    pub fn k_re_for(log_n: u32) -> u64 {
        if log_n <= 2 {
            return 8;
        }
        let l = f64::from(log_n);
        let kre = (l / l.log2()).floor() as u64;
        kre.max(8)
    }

    /// The `K_RE` parameter in use.
    #[must_use]
    pub fn k_re(&self) -> u64 {
        self.k_re
    }

    /// The number of subsampling levels (`log n`).
    #[must_use]
    pub fn log_universe(&self) -> u32 {
        self.log_n
    }

    /// Processes one stream item.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        let _ = self.insert_tracked(item);
    }

    /// Processes one stream item and reports whether any internal counter
    /// changed.  Counters change at most `3·K_RE·(log n + 1)` times over an
    /// entire stream, so callers (the full F0 sketch) can afford to recompute
    /// the estimate only when this returns `true`, keeping the per-update work
    /// constant.
    #[inline]
    pub fn insert_tracked(&mut self, item: u64) -> bool {
        let mut changed = false;
        for sub in &mut self.subs {
            changed |= sub.insert(item, self.log_n);
        }
        changed
    }

    /// Batch-path variant of [`insert_tracked`](Self::insert_tracked): each
    /// sub-estimator evaluates only its (cheap, pairwise) level hash first
    /// and skips the expensive `2·K_RE`-wise bucket hash when the level
    /// cannot change any of its counters.  The resulting state is
    /// bit-identical to [`insert_tracked`](Self::insert_tracked).
    #[inline]
    pub fn insert_tracked_pruned(&mut self, item: u64) -> bool {
        let mut changed = false;
        for sub in &mut self.subs {
            changed |= sub.insert_pruned(item, self.log_n);
        }
        changed
    }

    /// Snapshot of each sub-estimator's level-filter parameters: its
    /// (copyable) level hash, and the *filter mask* derived from its current
    /// pruning threshold — `universe_mask & (2^min_stored − 1)`.
    ///
    /// An item's level clears the threshold iff the low `min_stored` bits of
    /// its range-reduced hash are all zero (`lsb ≥ t ⟺ x mod 2^t = 0`), so
    /// the batch path tests a whole lane with one AND-and-compare instead of
    /// extracting the level.  The test is exact for `min_stored ≤ log n`;
    /// for the boundary `min_stored = log n + 1` (every counter at its
    /// maximum) a masked-to-zero hash is a false *positive* — harmless,
    /// because flagged lanes re-run the exact per-item pruned path.
    ///
    /// The batch ingestion path keeps this snapshot in locals so its hot
    /// loop never touches the `subs` heap allocation: an item rejected by a
    /// *stale* threshold can be skipped outright, because thresholds only
    /// grow (counters never shrink) — the item would be pruned by
    /// [`insert_tracked_pruned`](Self::insert_tracked_pruned) under any
    /// later state too, making the skip bit-identical.  Callers refresh the
    /// snapshot after any un-pruned insert.
    #[inline]
    pub(crate) fn level_filter_params(&self) -> [(PairwiseHash, u64); COPIES] {
        core::array::from_fn(|i| {
            let sub = &self.subs[i];
            let universe_mask = sub.h1.range() - 1;
            let threshold_mask = match 1u64.checked_shl(sub.min_stored.min(64) as u32) {
                Some(bit) => bit - 1,
                None => u64::MAX,
            };
            (sub.h1, universe_mask & threshold_mask)
        })
    }

    /// The current rough estimate `F̃0(t)` — the median of the three
    /// sub-estimates.  Returns 0 while no sub-estimator has reached its
    /// occupancy threshold (i.e. while `F0(t)` is far below `K_RE`).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let mut vals: Vec<f64> = self.subs.iter().map(|s| s.estimate(self.k_re)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
        vals[vals.len() / 2]
    }

    /// Convenience: the estimate clamped below by `floor` (the full F0
    /// algorithm treats "no estimate yet" as `R = K/32`-ish via its small-F0
    /// path, so callers often want `max(estimate, something)`).
    #[must_use]
    pub fn estimate_at_least(&self, floor: f64) -> f64 {
        self.estimate().max(floor)
    }

    /// What [`merge_from_unchecked`](Self::merge_from_unchecked) needs two
    /// estimators to share: `log n`, `K_RE`, and each sub-estimator's
    /// counter count.
    pub(crate) fn shape(&self) -> (u32, u64, Vec<usize>) {
        let subs = self.subs.iter().map(|sub| sub.counters.len()).collect();
        (self.log_n, self.k_re, subs)
    }

    /// Overwrites the [`shape`](Self::shape), as a forged shard could.
    #[cfg(test)]
    pub(crate) fn forge_shape(&mut self, log_n: u32, k_re: u64, sub0_len: usize) {
        (self.log_n, self.k_re) = (log_n, k_re);
        self.subs[0].counters = FixedWidthVec::zeros(sub0_len, self.subs[0].counters.width());
    }

    /// Merges another RoughEstimator built with the same seed and universe, so
    /// that `self` reflects the union of both streams (counters are pointwise
    /// maxima).
    ///
    /// # Panics
    ///
    /// Panics if the two estimators have different parameters (this is an
    /// internal helper; the public merge path validates first).
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(self.log_n, other.log_n);
        assert_eq!(self.k_re, other.k_re);
        for (a, b) in self.subs.iter_mut().zip(other.subs.iter()) {
            for idx in 0..a.counters.len() {
                let va = a.counters.get(idx);
                let vb = b.counters.get(idx);
                if vb > va {
                    a.counters.set(idx, vb);
                    if va > 0 {
                        a.level_counts[va as usize - 1] -= 1;
                    }
                    a.level_counts[vb as usize - 1] += 1;
                }
            }
            a.recompute_min();
        }
    }
}

impl serde::Deserialize for RoughEstimator {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let log_n = u32::deserialize(input)?;
        let k_re = u64::deserialize(input)?;
        let subs = Vec::<RoughSub>::deserialize(input)?;
        for sub in &subs {
            sub.check(log_n).map_err(serde::Error::new)?;
        }
        Ok(Self { log_n, k_re, subs })
    }
}

impl SpaceUsage for RoughEstimator {
    fn space_bits(&self) -> u64 {
        self.subs.iter().map(RoughSub::space_bits).sum::<u64>() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_stream(re: &mut RoughEstimator, distinct: u64) {
        for i in 0..distinct {
            re.insert(i);
            // Duplicates must not change anything; interleave some.
            if i % 3 == 0 {
                re.insert(i);
            }
        }
    }

    #[test]
    fn k_re_matches_figure2_definition() {
        assert_eq!(RoughEstimator::k_re_for(1), 8);
        assert_eq!(RoughEstimator::k_re_for(20), 8); // 20/log2(20) ≈ 4.6 → max(8,4)
        assert_eq!(RoughEstimator::k_re_for(64), 10); // 64/6 = 10.67 → 10
        assert!(RoughEstimator::k_re_for(256) >= 32);
    }

    #[test]
    fn estimate_is_zero_on_empty_stream() {
        let re = RoughEstimator::new(1 << 20, 1);
        assert_eq!(re.estimate(), 0.0);
    }

    #[test]
    fn constant_factor_guarantee_at_end_of_stream() {
        // For a variety of cardinalities well above K_RE the final estimate
        // should land in [F0, 8·F0]; we allow a small number of seed failures
        // since the guarantee is probabilistic (1 − o(1), and n here is modest).
        let mut failures = 0;
        let mut total = 0;
        for &f0 in &[100u64, 500, 2_000, 10_000, 50_000] {
            for seed in 0..6u64 {
                let mut re = RoughEstimator::new(1 << 20, seed * 7 + 1);
                run_stream(&mut re, f0);
                let est = re.estimate();
                total += 1;
                if est < f0 as f64 * 0.99 || est > 8.0 * f0 as f64 * 1.01 {
                    failures += 1;
                }
            }
        }
        assert!(
            failures * 10 <= total,
            "{failures}/{total} runs fell outside [F0, 8F0]"
        );
    }

    #[test]
    fn all_times_guarantee_holds_for_most_of_the_stream() {
        // Theorem 1: simultaneously for all t with F0(t) ≥ K_RE the estimate
        // is within [F0(t), 8F0(t)].  Track violations along one long stream.
        let mut re = RoughEstimator::new(1 << 20, 12345);
        let k_re = re.k_re();
        let f0_max = 30_000u64;
        let mut violations = 0u64;
        let mut checked = 0u64;
        for i in 0..f0_max {
            re.insert(i);
            let f0 = i + 1;
            if f0 >= k_re * 4 && f0 % 97 == 0 {
                checked += 1;
                let est = re.estimate();
                if est < f0 as f64 * 0.99 || est > 8.0 * f0 as f64 * 1.01 {
                    violations += 1;
                }
            }
        }
        assert!(checked > 100);
        assert!(
            violations * 20 <= checked,
            "{violations}/{checked} checkpoints outside [F0, 8F0]"
        );
    }

    #[test]
    fn estimate_is_monotone_in_time() {
        let mut re = RoughEstimator::new(1 << 16, 9);
        let mut last = 0.0;
        for i in 0..20_000u64 {
            re.insert(i);
            if i % 500 == 0 {
                let est = re.estimate();
                assert!(est >= last, "estimate decreased from {last} to {est}");
                last = est;
            }
        }
    }

    #[test]
    fn duplicates_do_not_inflate_the_estimate() {
        let mut a = RoughEstimator::new(1 << 16, 77);
        let mut b = RoughEstimator::new(1 << 16, 77);
        for i in 0..5_000u64 {
            a.insert(i);
            b.insert(i);
            b.insert(i); // duplicate every item
            b.insert(i); // and again
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn space_is_logarithmic_not_linear() {
        // O(log n) bits: far below the cardinalities it can estimate.
        let re = RoughEstimator::new(1 << 30, 5);
        // Hash descriptions dominate; a few kilobits is the expected order for
        // the polynomial strategy. It must certainly be far below 1M bits.
        assert!(
            re.space_bits() < 1_000_000,
            "space {} bits",
            re.space_bits()
        );
    }

    #[test]
    fn tabulation_strategy_also_tracks_cardinality() {
        let mut re = RoughEstimator::with_strategy(1 << 20, 31, HashStrategy::Tabulation);
        run_stream(&mut re, 20_000);
        let est = re.estimate();
        assert!(est >= 20_000.0 * 0.5, "estimate {est}");
        assert!(est <= 20_000.0 * 16.0, "estimate {est}");
    }

    #[test]
    fn merge_equals_union_stream() {
        let mut left = RoughEstimator::new(1 << 18, 404);
        let mut right = RoughEstimator::new(1 << 18, 404);
        let mut both = RoughEstimator::new(1 << 18, 404);
        for i in 0..8_000u64 {
            left.insert(i);
            both.insert(i);
        }
        for i in 8_000..16_000u64 {
            right.insert(i);
            both.insert(i);
        }
        left.merge_from_unchecked(&right);
        assert_eq!(left.estimate(), both.estimate());
    }

    #[test]
    fn pruned_insert_matches_plain_insert_bit_for_bit() {
        let mut plain = RoughEstimator::new(1 << 22, 99);
        let mut pruned = RoughEstimator::new(1 << 22, 99);
        for i in 0..60_000u64 {
            let item = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 22);
            let a = plain.insert_tracked(item);
            let b = pruned.insert_tracked_pruned(item);
            assert_eq!(a, b, "change tracking diverged at item {i}");
        }
        assert_eq!(plain.estimate(), pruned.estimate());
        for (a, b) in plain.subs.iter().zip(pruned.subs.iter()) {
            assert_eq!(a.level_counts, b.level_counts);
            assert_eq!(a.min_stored, b.min_stored);
            for idx in 0..a.counters.len() {
                assert_eq!(a.counters.get(idx), b.counters.get(idx));
            }
        }
    }

    #[test]
    fn forged_counter_values_fail_to_decode() {
        let mut re = RoughEstimator::new(1 << 20, 9);
        run_stream(&mut re, 5_000);
        let decode = |re: &RoughEstimator| {
            serde::from_bytes::<RoughEstimator>(&serde::to_bytes(re)).inspect(|back| {
                // What a forged level would reach: the merge's histogram.
                RoughEstimator::new(1 << 20, 9).merge_from_unchecked(back);
            })
        };
        assert!(decode(&re).is_ok());
        let refused = |forge: &dyn Fn(&mut RoughSub), needle: &str| {
            let mut forged = re.clone();
            forge(&mut forged.subs[1]);
            let err = decode(&forged).expect_err("forged estimator accepted");
            assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
        };
        let top = u64::from(re.log_n) + 1;
        // log n = 20: 22 histogram levels, counters at most 21.
        refused(&|sub| sub.level_counts.push(0), "histogram has 23 levels");
        refused(
            &|sub| {
                sub.level_counts.pop();
            },
            "histogram has 21 levels",
        );
        refused(&|sub| sub.counters.set(0, top + 1), "level 22 above");
        refused(&|sub| sub.level_counts[2] += 1, "histogram differs");
        refused(
            &|sub| {
                let stored = sub.counters.get(5);
                sub.counters.set(5, stored % top + 1);
            },
            "histogram differs",
        );
        refused(&|sub| sub.min_stored += 1, "minimum differs");
    }

    #[test]
    fn estimate_at_least_clamps() {
        let re = RoughEstimator::new(1 << 10, 2);
        assert_eq!(re.estimate_at_least(42.0), 42.0);
    }
}
