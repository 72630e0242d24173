//! The small-F0 subroutine (Section 3.3, Theorem 4 of the paper).
//!
//! The main Figure 3 algorithm assumes `F0 ≥ K/32`; below that threshold its
//! subsampling machinery has nothing to bite on.  The paper handles small
//! cardinalities with two much simpler structures run in parallel:
//!
//! 1. **Exact tracking of the first 100 distinct indices** — if the stream
//!    never exceeds 100 distinct items the answer is exact, in `O(log n)` bits
//!    per stored index.
//! 2. **A `K' = 2K`-bit balls-and-bins array** `B_1 … B_{K'}` — every item sets
//!    the bit chosen by `h3(h2(i))`; the occupancy inversion
//!    `ln(1 − T_B/K')/ln(1 − 1/K')` is a `(1 ± O(ε))` estimate while
//!    `F0 ≤ K'/32`, and because it is monotone it can also *certify* the
//!    switchover to the main estimator: once the array-based estimate reaches
//!    `K'/32 = K/16` the caller is guaranteed `F0 = Ω(1/ε²)` and switches to
//!    the Figure 3 output (Theorem 4's "LARGE" answer).

use knw_hash::pairwise::PairwiseHash;
use knw_hash::rng::SplitMix64;
use knw_hash::uniform::{BucketHash, HashStrategy};
use knw_hash::SpaceUsage;
use knw_vla::bitvec::BitVec;

/// How many distinct indices are tracked exactly (the paper's constant 100).
pub const EXACT_CAPACITY: usize = 100;

/// The answer produced by the small-F0 subroutine at a given point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmallF0Estimate {
    /// Fewer than [`EXACT_CAPACITY`] distinct items have been seen; the count
    /// is exact.
    Exact(u64),
    /// The cardinality is above the exact range but still small; the value is
    /// the balls-and-bins estimate from the `2K`-bit array.
    Approx(f64),
    /// The array-based estimate has crossed `K/16`: the cardinality is
    /// `Ω(1/ε²)` and the caller should use the main Figure 3 estimator
    /// (Theorem 4's "LARGE").
    Large,
}

/// The Section 3.3 small-cardinality estimator.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SmallF0Estimator {
    /// First [`EXACT_CAPACITY`] distinct indices seen, sorted for O(log 100)
    /// membership tests.
    exact: Vec<u64>,
    /// True once an index outside the full `exact` buffer has been observed,
    /// i.e. once we know `F0 > EXACT_CAPACITY`.
    exact_overflowed: bool,
    /// `h2 ∈ H_2([n], [K'³])`.
    h2: PairwiseHash,
    /// `h3` with range `K' = 2K`.
    h3: BucketHash,
    /// The `K'`-bit occupancy array.
    bits: BitVec,
    /// Number of set bits (maintained incrementally for O(1) reporting).
    occupied: u64,
    /// `K' = 2K`.
    k_prime: u64,
}

impl SmallF0Estimator {
    /// Creates the estimator for `K = 1/ε²` bins (pass the main sketch's `K`;
    /// the array allocates `2K` bits as in the paper).
    #[must_use]
    pub fn new(k: u64, strategy: HashStrategy, rng: &mut SplitMix64) -> Self {
        let k_prime = 2 * k.max(16);
        // Domain of h2 is K'³ as in the paper, clamped so it never exceeds the
        // Mersenne field the pairwise family evaluates in.
        let cube = k_prime.saturating_pow(3).min(1u64 << 60);
        let independence = knw_hash::kwise::independence_for(k_prime, 1.0 / (k as f64).sqrt());
        Self {
            exact: Vec::with_capacity(EXACT_CAPACITY),
            exact_overflowed: false,
            h2: PairwiseHash::random(cube, rng),
            h3: BucketHash::random(strategy, independence, k_prime, rng),
            bits: BitVec::zeros(k_prime),
            occupied: 0,
            k_prime,
        }
    }

    /// Processes one stream item.
    #[inline]
    pub fn insert(&mut self, item: u64) {
        // Exact buffer.
        if !self.exact_overflowed {
            match self.exact.binary_search(&item) {
                Ok(_) => {}
                Err(pos) => {
                    if self.exact.len() < EXACT_CAPACITY {
                        self.exact.insert(pos, item);
                    } else {
                        self.exact_overflowed = true;
                    }
                }
            }
        }
        // Occupancy array.
        let bucket = self.h3.hash(self.h2.hash(item));
        if !self.bits.get_bit(bucket) {
            self.bits.set_bit(bucket, true);
            self.occupied += 1;
        }
    }

    /// Number of distinct items seen, if it is still within the exact range.
    #[must_use]
    pub fn exact_count(&self) -> Option<u64> {
        if self.exact_overflowed {
            None
        } else {
            Some(self.exact.len() as u64)
        }
    }

    /// The balls-and-bins estimate from the bit array (regardless of range).
    #[must_use]
    pub fn array_estimate(&self) -> f64 {
        crate::balls_bins::invert_occupancy(self.occupied as f64, self.k_prime)
    }

    /// Whether the estimator has permanently certified the LARGE regime.
    ///
    /// Both certification inputs are monotone — the exact-overflow flag is
    /// sticky and the occupancy array only gains bits — so once this returns
    /// `true` it returns `true` forever, and every subsequent
    /// [`estimate`](Self::estimate) is [`SmallF0Estimate::Large`] no matter
    /// what else is inserted.  The batch ingestion path uses this to stop
    /// updating the structure once its answer can no longer be consulted.
    #[must_use]
    pub fn large_certified(&self) -> bool {
        self.exact_overflowed && self.array_estimate() >= self.k_prime as f64 / 32.0
    }

    /// The Theorem 4 answer: exact, approximate, or LARGE.
    #[must_use]
    pub fn estimate(&self) -> SmallF0Estimate {
        if let Some(c) = self.exact_count() {
            return SmallF0Estimate::Exact(c);
        }
        let est = self.array_estimate();
        // K'/32 = K/16 is the switchover the paper uses.
        if est >= self.k_prime as f64 / 32.0 {
            SmallF0Estimate::Large
        } else {
            SmallF0Estimate::Approx(est)
        }
    }

    /// What [`merge_from_unchecked`](Self::merge_from_unchecked) needs two
    /// estimators to share: `K'` and the occupancy array's length.
    pub(crate) fn shape(&self) -> (u64, u64) {
        (self.k_prime, self.bits.len())
    }

    /// Merges another small-F0 estimator built with the same `K` and seed.
    ///
    /// # Order-independence contract
    ///
    /// For estimators over any partition of a stream into segments, every
    /// *consulted* field of the merged result is independent of the segment
    /// order and of where merges interleave with inserts — it is a pure
    /// function of the union's distinct-item set:
    ///
    /// * `exact_overflowed` is `true` iff the union holds more than
    ///   [`EXACT_CAPACITY`] distinct items. Inserts overflow exactly when
    ///   the 101st distinct item arrives; the merge propagates either
    ///   side's flag and re-derives overflow from the union size otherwise,
    ///   so every history agrees. The flag is **sticky** in both paths
    ///   (nothing ever clears it).
    /// * While not overflowed, `exact` is the *sorted union set itself* —
    ///   identical across histories. Once overflowed, the buffer's content
    ///   is an order-dependent ≤ 100-item subset, but it is dead state:
    ///   [`exact_count`](Self::exact_count) returns `None` forever, so no
    ///   estimate and no caller can observe the divergence. (It is
    ///   deliberately *excluded* from the contract.)
    /// * `bits` / `occupied` are a monotone OR-union of per-item bits —
    ///   order-independent by commutativity and idempotence.
    ///
    /// Therefore [`estimate`](Self::estimate) and
    /// [`large_certified`](Self::large_certified) — both functions of
    /// `exact_overflowed`, `exact.len()` (only consulted pre-overflow) and
    /// `occupied` — are order-independent, and `large_certified` stickiness
    /// cannot diverge between "merged then inserted" and "inserted then
    /// merged" histories. The keyed sketch store's promotion determinism
    /// rests on this contract; the `order_independence` proptests below
    /// pin it across the Exact/Approx/Large transitions.
    pub(crate) fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(self.k_prime, other.k_prime);
        // Union of exact sets; overflow if combined size exceeds capacity or
        // either side already overflowed.
        if other.exact_overflowed {
            self.exact_overflowed = true;
        }
        if !self.exact_overflowed {
            for &item in &other.exact {
                if let Err(pos) = self.exact.binary_search(&item) {
                    if self.exact.len() < EXACT_CAPACITY {
                        self.exact.insert(pos, item);
                    } else {
                        self.exact_overflowed = true;
                        break;
                    }
                }
            }
        }
        // OR the occupancy arrays.
        for idx in 0..self.k_prime {
            if other.bits.get_bit(idx) && !self.bits.get_bit(idx) {
                self.bits.set_bit(idx, true);
                self.occupied += 1;
            }
        }
    }
}

impl SpaceUsage for SmallF0Estimator {
    fn space_bits(&self) -> u64 {
        // The exact buffer is charged at its capacity (the paper's O(log n)
        // term times the constant 100), the array at K' bits, plus hashes.
        (EXACT_CAPACITY as u64) * 64
            + self.bits.space_bits()
            + self.h2.space_bits()
            + self.h3.space_bits()
            + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(k: u64, seed: u64) -> SmallF0Estimator {
        let mut rng = SplitMix64::new(seed);
        SmallF0Estimator::new(k, HashStrategy::default(), &mut rng)
    }

    #[test]
    fn exact_for_tiny_cardinalities() {
        let mut s = fresh(1024, 1);
        for round in 0..3 {
            for i in 0..50u64 {
                let _ = round;
                s.insert(i * 13); // same 50 items every round
            }
        }
        assert_eq!(s.estimate(), SmallF0Estimate::Exact(50));
        assert_eq!(s.exact_count(), Some(50));
    }

    #[test]
    fn exact_up_to_capacity_then_overflows() {
        // K = 4096 so that the approximate band (up to K/16 = 256) comfortably
        // contains the 101 distinct items inserted below.
        let mut s = fresh(4096, 2);
        for i in 0..(EXACT_CAPACITY as u64) {
            s.insert(i);
        }
        assert_eq!(s.exact_count(), Some(EXACT_CAPACITY as u64));
        s.insert(10_000);
        assert_eq!(s.exact_count(), None);
        match s.estimate() {
            SmallF0Estimate::Approx(v) => {
                assert!((v - 101.0).abs() < 30.0, "approx {v} far from 101");
            }
            other => panic!("expected Approx, got {other:?}"),
        }
    }

    #[test]
    fn approximate_range_tracks_truth() {
        // K = 4096 → exact up to 100, approx up to ~K/16 = 256.
        let mut s = fresh(4096, 3);
        for i in 0..200u64 {
            s.insert(i.wrapping_mul(0x9E37_79B9) + 7);
        }
        match s.estimate() {
            SmallF0Estimate::Approx(v) => {
                let rel = (v - 200.0).abs() / 200.0;
                assert!(rel < 0.25, "estimate {v} relative error {rel}");
            }
            other => panic!("expected Approx, got {other:?}"),
        }
    }

    #[test]
    fn declares_large_beyond_threshold() {
        let k = 1024u64;
        let mut s = fresh(k, 4);
        // K/16 = 64 is the switchover; push far beyond it.
        for i in 0..2_000u64 {
            s.insert(i);
        }
        assert_eq!(s.estimate(), SmallF0Estimate::Large);
    }

    #[test]
    fn estimate_transitions_monotonically_exact_approx_large() {
        let k = 2048u64;
        let mut s = fresh(k, 5);
        let mut seen_exact = false;
        let mut seen_approx = false;
        let mut seen_large = false;
        for i in 0..3_000u64 {
            s.insert(i * 31 + 1);
            match s.estimate() {
                SmallF0Estimate::Exact(_) => {
                    assert!(!seen_approx && !seen_large, "exact after approx/large");
                    seen_exact = true;
                }
                SmallF0Estimate::Approx(_) => {
                    assert!(!seen_large, "approx after large");
                    seen_approx = true;
                }
                SmallF0Estimate::Large => seen_large = true,
            }
        }
        assert!(seen_exact && seen_approx && seen_large);
    }

    #[test]
    fn duplicates_never_advance_the_state() {
        let mut s = fresh(512, 6);
        for _ in 0..10_000 {
            s.insert(42);
        }
        assert_eq!(s.estimate(), SmallF0Estimate::Exact(1));
    }

    #[test]
    fn merge_matches_union() {
        let k = 2048u64;
        let mut a = fresh(k, 7);
        let mut b = fresh(k, 7);
        let mut union = fresh(k, 7);
        for i in 0..80u64 {
            a.insert(i);
            union.insert(i);
        }
        for i in 60..150u64 {
            b.insert(i);
            union.insert(i);
        }
        a.merge_from_unchecked(&b);
        // Same occupancy array and same exact-overflow state as the union.
        assert_eq!(a.occupied, union.occupied);
        assert_eq!(a.exact_count().is_none(), union.exact_count().is_none());
        match (a.estimate(), union.estimate()) {
            (SmallF0Estimate::Approx(x), SmallF0Estimate::Approx(y)) => {
                assert!((x - y).abs() < 1e-9);
            }
            (x, y) => assert_eq!(x, y),
        }
    }

    #[test]
    fn space_is_dominated_by_the_2k_bit_array() {
        let s = fresh(4096, 8);
        let bits = s.space_bits();
        assert!(bits >= 2 * 4096);
        assert!(bits < 2 * 4096 + 20_000, "space {bits} unexpectedly large");
    }

    /// Field-by-field equality of every *consulted* field (the
    /// order-independence contract on `merge_from_unchecked`): overflow
    /// flag, exact set while not overflowed, the full occupancy array, and
    /// both derived answers. The post-overflow `exact` content is dead
    /// state and deliberately not compared.
    fn consulted_state_eq(a: &SmallF0Estimator, b: &SmallF0Estimator) -> bool {
        a.exact_overflowed == b.exact_overflowed
            && (a.exact_overflowed || a.exact == b.exact)
            && a.occupied == b.occupied
            && (0..a.k_prime).all(|idx| a.bits.get_bit(idx) == b.bits.get_bit(idx))
            && a.large_certified() == b.large_certified()
            && a.estimate() == b.estimate()
    }

    /// Deterministic boundary check: a merge landing the union *exactly at*
    /// [`EXACT_CAPACITY`] stays exact, and the next merged item (not
    /// insert) crosses into overflow — matching the single-stream history
    /// in every consulted field.
    #[test]
    fn merge_crossing_exact_capacity_matches_single_stream() {
        let k = 4096u64;
        let (mut a, mut b, mut union) = (fresh(k, 10), fresh(k, 10), fresh(k, 10));
        for i in 0..60u64 {
            a.insert(i);
            union.insert(i);
        }
        for i in 40..(EXACT_CAPACITY as u64) {
            b.insert(i);
            union.insert(i);
        }
        a.merge_from_unchecked(&b);
        assert_eq!(a.exact_count(), Some(EXACT_CAPACITY as u64));
        assert!(consulted_state_eq(&a, &union));
        // The 101st distinct item arrives via a merge: overflow happens at
        // the merge boundary itself.
        let mut c = fresh(k, 10);
        c.insert(7_777);
        union.insert(7_777);
        a.merge_from_unchecked(&c);
        assert_eq!(a.exact_count(), None);
        assert_eq!(union.exact_count(), None);
        assert!(consulted_state_eq(&a, &union));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Any 4-way split of any stream, merged in any lane order, matches
        /// the single-stream estimator in every consulted field — across
        /// all three regimes (K = 256 puts Exact/Approx/Large transitions
        /// well inside the generated cardinalities).
        #[test]
        fn merge_is_order_independent_across_stream_splits(
            items in proptest::prop::collection::vec(0u64..400, 0..300),
            lanes in proptest::prop::collection::vec(0usize..4, 300..301),
        ) {
            let k = 256u64;
            let mut union = fresh(k, 7);
            let mut parts: Vec<SmallF0Estimator> = (0..4).map(|_| fresh(k, 7)).collect();
            for (idx, &item) in items.iter().enumerate() {
                union.insert(item);
                parts[lanes[idx] % 4].insert(item);
            }
            let mut forward = fresh(k, 7);
            for part in &parts {
                forward.merge_from_unchecked(part);
            }
            let mut reverse = fresh(k, 7);
            for part in parts.iter().rev() {
                reverse.merge_from_unchecked(part);
            }
            proptest::prop_assert!(consulted_state_eq(&forward, &union), "forward merge diverged");
            proptest::prop_assert!(consulted_state_eq(&reverse, &union), "reverse merge diverged");
        }

        /// `large_certified` is sticky through merges and inserts alike, and
        /// "inserted then merged" equals "merged then inserted" — the two
        /// histories the keyed store's promotion path can produce.
        #[test]
        fn large_certified_stickiness_cannot_diverge(
            first in proptest::prop::collection::vec(0u64..300, 0..250),
            second in proptest::prop::collection::vec(0u64..300, 0..250),
        ) {
            let k = 256u64;
            let mut b = fresh(k, 9);
            for &item in &second {
                b.insert(item);
            }
            // Inserted then merged.
            let mut a = fresh(k, 9);
            for &item in &first {
                a.insert(item);
            }
            let certified_before = a.large_certified();
            a.merge_from_unchecked(&b);
            proptest::prop_assert!(!certified_before || a.large_certified(), "merge cleared LARGE");
            // Merged then inserted, watching stickiness at every step.
            let mut m = fresh(k, 9);
            m.merge_from_unchecked(&b);
            let mut certified = m.large_certified();
            for &item in &first {
                m.insert(item);
                let now = m.large_certified();
                proptest::prop_assert!(!certified || now, "insert cleared LARGE");
                certified = now;
            }
            proptest::prop_assert!(consulted_state_eq(&a, &m), "histories diverged");
        }
    }
}
