//! Baseline cardinality estimators for comparison with the KNW algorithm.
//!
//! Figure 1 of the paper compares the new algorithm against the prior art on
//! the distinct-elements problem.  To regenerate that comparison empirically
//! (experiment E1, knw-bench's `table1_comparison`) — and to have something meaningful to race
//! in the throughput benches (E13) — this crate implements the main rows of
//! that table from scratch:
//!
//! | Figure 1 row | Module | Notes |
//! |---|---|---|
//! | Flajolet–Martin '85 \[20\] | [`fm`] | PCSA bitmap sketch, random-oracle style hashing |
//! | Alon–Matias–Szegedy '99 \[3\] | [`ams`] | median-of-2^lsb, constant-factor only |
//! | Gibbons–Tirthapura '01 \[24\] | [`gibbons_tirthapura`] | level-based coordinated sampling, O(ε⁻² log n) space |
//! | Bar-Yossef et al '02, Algorithm I \[4\] | [`kmv`] | k-minimum-values (bottom-k) estimator |
//! | Bar-Yossef et al '02, Algorithm II \[4\] | [`bjkst`] | the BJKST bucket sketch, O(ε⁻² log log n + log n)-style space |
//! | Durand–Flajolet '03 \[16\] | [`loglog`] | LogLog counting |
//! | Estan–Varghese–Fisk '06 \[17\] | [`linear_counting`] | multiresolution bitmap / linear counting |
//! | Flajolet et al '07 \[19\] | [`hyperloglog`] | HyperLogLog with the standard corrections |
//! | Ganguly '07 \[22\] | [`ganguly_l0`] | counter-based distinct sampling under deletions |
//! | ground truth | [`exact`] | exact hash-set counter |
//!
//! All estimators implement
//! [`CardinalityEstimator`](knw_core::CardinalityEstimator) (or
//! [`TurnstileEstimator`](knw_core::TurnstileEstimator) for the deletion-aware
//! ones) and report their space via
//! [`SpaceUsage`](knw_hash::SpaceUsage), using the same bit-level accounting
//! conventions as the KNW sketches so the comparison is apples-to-apples.

pub mod ams;
pub mod bjkst;
pub mod exact;
pub mod fm;
pub mod ganguly_l0;
pub mod gibbons_tirthapura;
pub mod hyperloglog;
pub mod kmv;
pub mod linear_counting;
pub mod loglog;

pub use ams::AmsEstimator;
pub use bjkst::BjkstSketch;
pub use exact::{ExactCounter, ExactL0Counter};
pub use fm::FlajoletMartin;
pub use ganguly_l0::GangulyL0;
pub use gibbons_tirthapura::GibbonsTirthapura;
pub use hyperloglog::HyperLogLog;
pub use kmv::KMinValues;
pub use linear_counting::LinearCounting;
pub use loglog::LogLog;

use knw_core::{DynMergeableCardinalityEstimator, DynMergeableTurnstileEstimator};

/// Sizing factor for the [`LinearCounting`] baseline in
/// [`all_f0_estimators`]: the bitmap is provisioned for an expected maximum
/// cardinality of `LINEAR_COUNTING_CAPACITY_FACTOR / ε²`.
///
/// Linear counting keeps its relative error near `ε` only while the load
/// factor (distinct items per bitmap bit) stays around one, so the bitmap
/// must be sized to the largest cardinality the comparison experiments drive
/// through it.  Those experiments sweep cardinalities up to a few multiples
/// of `1/ε²` (the regime where the `Θ(1/ε²)`-space sketches are interesting);
/// a factor of 4 covers that sweep without saturating, while keeping the
/// space comparable to the other `O(ε⁻²)`-word baselines in the zoo.
pub const LINEAR_COUNTING_CAPACITY_FACTOR: f64 = 4.0;

/// Builds one instance of every insertion-only baseline (plus the KNW sketch
/// itself) at a comparable accuracy target, for use by the comparison
/// experiments and the sharded engine tests.  The returned estimators are
/// boxed *mergeable* trait objects
/// ([`DynMergeableCardinalityEstimator`]): the harness can iterate over them
/// uniformly, and two zoos built with the same parameters can be merged
/// entry-by-entry via `merge_dyn` (every entry here has exact union
/// semantics).
#[must_use]
pub fn all_f0_estimators(
    epsilon: f64,
    universe: u64,
    seed: u64,
) -> Vec<Box<dyn DynMergeableCardinalityEstimator>> {
    let cfg = knw_core::F0Config::new(epsilon, universe).with_seed(seed);
    let lc_capacity = (LINEAR_COUNTING_CAPACITY_FACTOR / (epsilon * epsilon)) as u64;
    vec![
        Box::new(knw_core::KnwF0Sketch::new(cfg)),
        Box::new(HyperLogLog::with_error(epsilon, seed)),
        Box::new(LogLog::with_error(epsilon, seed)),
        Box::new(FlajoletMartin::with_error(epsilon, seed)),
        Box::new(KMinValues::with_error(epsilon, seed)),
        Box::new(BjkstSketch::with_error(epsilon, universe, seed)),
        Box::new(GibbonsTirthapura::with_error(epsilon, universe, seed)),
        Box::new(LinearCounting::with_capacity(lc_capacity, seed)),
        Box::new(AmsEstimator::new(64, seed)),
        Box::new(ExactCounter::new()),
    ]
}

/// Builds one instance of every *turnstile* (deletion-aware) estimator with
/// exact union semantics, at a comparable accuracy target — the L0
/// counterpart of [`all_f0_estimators`].
///
/// Every entry merges by entrywise addition of its linear counter state
/// ([`DynMergeableTurnstileEstimator::merge_dyn`]): the KNW L0 sketch
/// (Lemma 6 field counters), the Ganguly baseline (plain frequency-sum
/// cells) and the exact ground-truth counter.  Two zoos built with the same
/// parameters therefore merge entry-by-entry into the zoo a single run over
/// the concatenated update streams would produce, bit for bit.
#[must_use]
pub fn all_l0_estimators(
    epsilon: f64,
    universe: u64,
    seed: u64,
) -> Vec<Box<dyn DynMergeableTurnstileEstimator>> {
    let cfg = knw_core::L0Config::new(epsilon, universe)
        .with_seed(seed)
        .with_stream_length_bound(1 << 32)
        .with_update_magnitude_bound(1 << 20);
    vec![
        Box::new(knw_core::KnwL0Sketch::new(cfg)),
        Box::new(GangulyL0::new(epsilon, universe, cfg.log_mm(), seed)),
        Box::new(ExactL0Counter::new()),
    ]
}

/// Writes an item set as the codec writes a set — a `u64` count, then the
/// items — in increasing order, so one state has one encoding.
fn write_sorted(set: &std::collections::HashSet<u64>, out: &mut Vec<u8>) {
    let mut items: Vec<u64> = set.iter().copied().collect();
    items.sort_unstable();
    serde::Serialize::serialize(&items, out);
}

/// Asserts that `a` and `b`, one state reached in two insertion orders,
/// encode alike, and that the bytes decode and encode back to themselves.
/// Returns the bytes' length and FNV-1a-64 digest, for a pin.
#[cfg(test)]
fn canonical_pin<T: serde::Serialize + serde::Deserialize>(a: &T, b: &T) -> (usize, u64) {
    let bytes = serde::to_bytes(a);
    assert_eq!(serde::to_bytes(b), bytes, "insertion order shows");
    let back: T = serde::from_bytes(&bytes).expect("round trip");
    assert_eq!(serde::to_bytes(&back), bytes, "decode then encode");
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len(), digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_estimator_zoo_is_complete_and_functional() {
        let mut zoo = all_f0_estimators(0.1, 1 << 16, 42);
        assert!(zoo.len() >= 10);
        for est in &mut zoo {
            for i in 0..5_000u64 {
                est.insert(i % 1_000);
            }
            let e = est.estimate();
            assert!(
                e > 0.0 && e.is_finite(),
                "{} produced a degenerate estimate {e}",
                est.name()
            );
            assert!(est.space_bits() > 0, "{} reports zero space", est.name());
        }
    }

    #[test]
    fn zoo_merges_match_the_union_stream_exactly() {
        // Every zoo entry has exact union semantics: merging per-shard zoos
        // must reproduce the single-stream zoo estimate bit-for-bit.
        let (eps, universe, seed) = (0.1, 1 << 16, 9);
        let mut left = all_f0_estimators(eps, universe, seed);
        let right = all_f0_estimators(eps, universe, seed);
        let mut union = all_f0_estimators(eps, universe, seed);
        let stream: Vec<u64> = (0..6_000u64)
            .map(|i| i.wrapping_mul(2_654_435_761) % 50_000)
            .collect();
        let (a, b) = stream.split_at(stream.len() / 3);
        let mut right = right;
        for ((l, r), u) in left.iter_mut().zip(right.iter_mut()).zip(union.iter_mut()) {
            l.insert_batch(a);
            r.insert_batch(b);
            u.insert_batch(&stream);
        }
        for (l, r) in left.iter_mut().zip(right.iter()) {
            l.merge_dyn(r.as_ref()).expect("same type and seed");
        }
        for (l, u) in left.iter().zip(union.iter()) {
            assert_eq!(
                l.estimate(),
                u.estimate(),
                "{} merge deviates from the union stream",
                l.name()
            );
        }
    }

    #[test]
    fn zoo_merge_rejects_cross_type_and_cross_seed() {
        let mut zoo_a = all_f0_estimators(0.2, 1 << 12, 1);
        let zoo_b = all_f0_estimators(0.2, 1 << 12, 2);
        // Different concrete types: TypeMismatch.
        let err = zoo_a[0].merge_dyn(zoo_b[1].as_ref()).unwrap_err();
        assert!(matches!(err, knw_core::SketchError::TypeMismatch { .. }));
        // Same type, different seed: the estimator's own compatibility error
        // (the seed-independent exact counter is exempt).
        for (a, b) in zoo_a.iter_mut().zip(zoo_b.iter()) {
            if a.name() == "exact" {
                continue;
            }
            assert!(
                a.merge_dyn(b.as_ref()).is_err(),
                "{} accepted a cross-seed merge",
                a.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        use std::collections::HashSet;
        let zoo = all_f0_estimators(0.2, 1 << 12, 1);
        let names: HashSet<&'static str> = zoo.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), zoo.len());
    }

    fn signed_stream(len: usize, universe: u64, seed: u64) -> Vec<(u64, i64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| {
                // Non-negative final frequencies are not guaranteed here, but
                // every estimator in the turnstile zoo tolerates mixed signs
                // for *merge exactness* (the counters are linear either way).
                (next() % universe, (next() % 9) as i64 - 4)
            })
            .collect()
    }

    #[test]
    fn l0_zoo_is_complete_and_functional() {
        let mut zoo = all_l0_estimators(0.1, 1 << 16, 42);
        assert_eq!(zoo.len(), 3);
        for est in &mut zoo {
            for i in 0..3_000u64 {
                est.update(i % 500, 2);
            }
            let e = est.estimate();
            assert!(
                e > 0.0 && e.is_finite(),
                "{} produced a degenerate estimate {e}",
                est.name()
            );
        }
    }

    #[test]
    fn l0_zoo_merges_match_the_union_stream_exactly() {
        let (eps, universe, seed) = (0.1, 1 << 16, 9);
        let mut left = all_l0_estimators(eps, universe, seed);
        let mut right = all_l0_estimators(eps, universe, seed);
        let mut union = all_l0_estimators(eps, universe, seed);
        let updates = signed_stream(8_000, 4_096, 77);
        let (a, b) = updates.split_at(updates.len() / 3);
        for ((l, r), u) in left.iter_mut().zip(right.iter_mut()).zip(union.iter_mut()) {
            l.update_batch(a);
            r.update_batch(b);
            u.update_batch(&updates);
        }
        for (l, r) in left.iter_mut().zip(right.iter()) {
            l.merge_dyn(r.as_ref()).expect("same type and seed");
        }
        for (l, u) in left.iter().zip(union.iter()) {
            assert_eq!(
                l.estimate(),
                u.estimate(),
                "{} merge deviates from the union stream",
                l.name()
            );
        }
    }

    #[test]
    fn l0_zoo_merge_rejects_cross_type_and_cross_seed() {
        let mut zoo_a = all_l0_estimators(0.2, 1 << 12, 1);
        let zoo_b = all_l0_estimators(0.2, 1 << 12, 2);
        let err = zoo_a[0].merge_dyn(zoo_b[1].as_ref()).unwrap_err();
        assert!(matches!(err, knw_core::SketchError::TypeMismatch { .. }));
        for (a, b) in zoo_a.iter_mut().zip(zoo_b.iter()) {
            if a.name() == "exact-l0" {
                continue;
            }
            assert!(
                a.merge_dyn(b.as_ref()).is_err(),
                "{} accepted a cross-seed merge",
                a.name()
            );
        }
    }

    /// `clear` gives a fresh estimator's bytes after a churn, and a stream
    /// applied after it gives the bytes it gives on a fresh estimator.
    fn assert_clears_to_fresh<T>(fresh: impl Fn() -> T)
    where
        T: knw_core::TurnstileEstimator + serde::Serialize,
    {
        let stream = |len: u64, universe: u64, salt: u64| -> Vec<(u64, i64)> {
            (0..len)
                .map(|i| {
                    let mixed = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (mixed % universe, (mixed >> 40) as i64 % 5 - 1)
                })
                .collect()
        };
        let mut cleared = fresh();
        cleared.update_batch(&stream(50_000, 20_000, 1));
        assert!(cleared.estimate() > 1_000.0, "{}", cleared.name());
        cleared.clear();
        let mut fresh = fresh();
        assert_eq!(serde::to_bytes(&cleared), serde::to_bytes(&fresh));
        assert_eq!(cleared.estimate(), fresh.estimate());
        let after = stream(8_000, 3_000, 2);
        cleared.update_batch(&after);
        fresh.update_batch(&after);
        assert_eq!(serde::to_bytes(&cleared), serde::to_bytes(&fresh));
    }

    #[test]
    fn l0_baselines_clear_to_a_fresh_estimator() {
        assert_clears_to_fresh(|| GangulyL0::new(0.1, 1 << 16, 40, 3));
        assert_clears_to_fresh(ExactL0Counter::new);
    }
}
