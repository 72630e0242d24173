//! Estimator traits shared by the KNW sketches and the baselines.
//!
//! The paper studies two problems:
//!
//! * **F0 estimation** — insertion-only streams of indices `i ∈ [n]`; the
//!   quantity of interest is the number of distinct indices seen.  Estimators
//!   for this model implement [`CardinalityEstimator`].
//! * **L0 estimation** — turnstile streams of updates `(i, v)` with
//!   `v ∈ {−M, …, M}`; the quantity of interest is the Hamming norm
//!   `|{i : x_i ≠ 0}|` of the maintained frequency vector.  Estimators for this
//!   model implement [`TurnstileEstimator`].
//!
//! Every estimator also reports its own space usage in bits
//! ([`SpaceUsage`]), including the space of its hash
//! function descriptions, mirroring the paper's accounting conventions
//! (Section 1.2: "all space bounds are given in bits").
//!
//! # Batched ingestion
//!
//! Both stream traits expose batch entry points
//! ([`CardinalityEstimator::insert_batch`],
//! [`TurnstileEstimator::update_batch`]) whose default implementations are
//! per-item loops.  Sketches with meaningful per-call overhead (bookkeeping,
//! guard checks) override them with fast paths; the sharded engine feeds
//! sketches exclusively through these entry points so the override is the
//! only hot path in production.
//!
//! # Mergeability
//!
//! The paper motivates F0 sketches precisely because they compose under
//! stream unions (Section 1: "taking unions of streams if there are no
//! deletions").  Two traits capture this:
//!
//! * [`MergeableEstimator`] — the statically-typed contract: merging a sketch
//!   of stream `B` into a sketch of stream `A` (same configuration, same
//!   seeds) yields a sketch of `A ∪ B`.
//! * [`DynMergeableCardinalityEstimator`] — the object-safe erasure of the
//!   same contract, so heterogeneous collections
//!   (`Vec<Box<dyn DynMergeableCardinalityEstimator>>`, the baseline zoo, the
//!   sharded engine's shard set) can be merged without knowing concrete
//!   types.  It is implemented automatically for every
//!   `CardinalityEstimator + MergeableEstimator<MergeError = SketchError>`.

use crate::error::SketchError;
use knw_hash::SpaceUsage;
use std::any::Any;

/// A streaming estimator of the number of distinct elements (F0) in an
/// insertion-only stream.
pub trait CardinalityEstimator: SpaceUsage {
    /// Processes one stream token (the index `i ∈ [n]`).
    fn insert(&mut self, item: u64);

    /// Returns the current estimate of the number of distinct items inserted
    /// so far.  May be called at any point midstream (the paper's "reporting").
    fn estimate(&self) -> f64;

    /// A short human-readable name used by the benchmark harness when
    /// rendering comparison tables (e.g. `"knw"`, `"hyperloglog"`).
    fn name(&self) -> &'static str;

    /// Processes every item of a slice, semantically identical to repeated
    /// [`insert`](Self::insert).
    ///
    /// The default is the plain loop; sketches override this with fast paths
    /// that hoist per-call bookkeeping (update counters, guard checks) out of
    /// the per-item loop.
    fn insert_batch(&mut self, items: &[u64]) {
        for &item in items {
            self.insert(item);
        }
    }

    /// Legacy alias of [`insert_batch`](Self::insert_batch).
    fn insert_all(&mut self, items: &[u64]) {
        self.insert_batch(items);
    }
}

/// A streaming estimator of the Hamming norm (L0) of a vector maintained under
/// turnstile updates.
pub trait TurnstileEstimator: SpaceUsage {
    /// Applies the update `x_item ← x_item + delta`.
    fn update(&mut self, item: u64, delta: i64);

    /// Returns the current estimate of `|{i : x_i ≠ 0}|`.
    fn estimate(&self) -> f64;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Applies a batch of updates in order, semantically identical to
    /// repeated [`update`](Self::update).  Sketches override this with fast
    /// paths that hoist per-call bookkeeping out of the per-update loop.
    fn update_batch(&mut self, updates: &[(u64, i64)]) {
        for &(item, delta) in updates {
            self.update(item, delta);
        }
    }

    /// Returns the sketch to the empty state of its configuration: its
    /// encoding is then a fresh sketch's, and a stream applied afterwards
    /// gives what it gives on a fresh sketch.  The hash draws stay, and so
    /// does the memory, so a sketch cleared after every report costs no
    /// rebuild.  A linear sketch cleared after each report summarizes
    /// the updates since that report, and the reports sum to the stream.
    fn clear(&mut self);
}

/// Estimators that can be merged with another sketch built over a *different*
/// stream using the *same* configuration and seed, yielding a sketch of the
/// union of the two streams.
pub trait MergeableEstimator: Sized {
    /// The error type returned when two sketches are incompatible (different
    /// configuration or different hash seeds).
    type MergeError;

    /// Merges `other` into `self`, so that `self` afterwards summarizes the
    /// concatenation of both input streams.
    ///
    /// # Errors
    ///
    /// Returns an error if the sketches were built with different parameters
    /// or hash functions, in which case `self` is left unchanged.
    fn merge_from(&mut self, other: &Self) -> Result<(), Self::MergeError>;

    /// Merges the sketch `bytes` encode into `self` or, with `replace`,
    /// makes `self` that sketch: what decoding `bytes` and then
    /// [`merge_from`](Self::merge_from) (or assigning) does.
    ///
    /// The provided body does just that.  A sketch whose encoding can be
    /// added to its state in place overrides it, so a merge from the wire
    /// costs one pass over the bytes and builds no second sketch.  An
    /// override refuses every encoding the decoder refuses and, even with
    /// `replace`, every sketch `merge_from` would refuse.
    ///
    /// # Errors
    ///
    /// The decoder's rejection or the merge's; `self` is then unchanged.
    fn merge_from_bytes(&mut self, bytes: &[u8], replace: bool) -> Result<(), Self::MergeError>
    where
        Self: serde::Deserialize,
        Self::MergeError: From<serde::Error>,
    {
        let other: Self = serde::from_bytes(bytes)?;
        if replace {
            *self = other;
            Ok(())
        } else {
            self.merge_from(&other)
        }
    }
}

/// Object-safe mergeable cardinality estimator: the erased counterpart of
/// [`MergeableEstimator`] for F0 sketches, usable behind `Box<dyn …>`.
///
/// This is the contract the sharded engine and the baseline zoo operate on:
/// every shard (or zoo entry) is a `dyn DynMergeableCardinalityEstimator`, and
/// [`merge_dyn`](Self::merge_dyn) recovers the concrete type via downcasting.
/// Merging two different concrete sketch types fails with
/// [`SketchError::TypeMismatch`]; merging the same type with different
/// seeds/configurations fails with the type's own compatibility error.
///
/// The trait is implemented automatically (blanket impl) for every sized
/// estimator whose [`MergeableEstimator::MergeError`] is [`SketchError`], so
/// sketch authors only ever implement the statically-typed trait.
pub trait DynMergeableCardinalityEstimator: CardinalityEstimator {
    /// The receiver as [`Any`], enabling the downcast in
    /// [`merge_dyn`](Self::merge_dyn).
    fn as_any(&self) -> &dyn Any;

    /// Type-erased merge: downcasts `other` to `Self` and delegates to
    /// [`MergeableEstimator::merge_from`].
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::TypeMismatch`] when `other` is a different
    /// concrete estimator, or the underlying merge error when configurations
    /// or seeds differ.
    fn merge_dyn(
        &mut self,
        other: &dyn DynMergeableCardinalityEstimator,
    ) -> Result<(), SketchError>;
}

impl<T> DynMergeableCardinalityEstimator for T
where
    T: CardinalityEstimator + MergeableEstimator<MergeError = SketchError> + Any,
{
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn merge_dyn(
        &mut self,
        other: &dyn DynMergeableCardinalityEstimator,
    ) -> Result<(), SketchError> {
        match other.as_any().downcast_ref::<T>() {
            Some(concrete) => self.merge_from(concrete),
            None => Err(SketchError::TypeMismatch {
                expected: self.name(),
                found: other.name(),
            }),
        }
    }
}

/// Object-safe mergeable turnstile estimator: the erased counterpart of
/// [`MergeableEstimator`] for L0 sketches, usable behind `Box<dyn …>`.
///
/// This mirrors [`DynMergeableCardinalityEstimator`] on the turnstile side:
/// the L0 sketches in this workspace are built from *linear* counters
/// (Lemma 6 / Lemma 8 of the paper), so two sketches over disjoint update
/// streams merge by entrywise field addition, and heterogeneous collections
/// (the turnstile baseline zoo, the sharded L0 engine's shard set) can be
/// merged without knowing concrete types.
///
/// The trait is implemented automatically (blanket impl) for every sized
/// turnstile estimator whose [`MergeableEstimator::MergeError`] is
/// [`SketchError`], so sketch authors only ever implement the
/// statically-typed trait.
pub trait DynMergeableTurnstileEstimator: TurnstileEstimator {
    /// The receiver as [`Any`], enabling the downcast in
    /// [`merge_dyn`](Self::merge_dyn).
    fn as_any(&self) -> &dyn Any;

    /// Type-erased merge: downcasts `other` to `Self` and delegates to
    /// [`MergeableEstimator::merge_from`].
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::TypeMismatch`] when `other` is a different
    /// concrete estimator, or the underlying merge error when configurations
    /// or seeds differ.
    fn merge_dyn(&mut self, other: &dyn DynMergeableTurnstileEstimator) -> Result<(), SketchError>;
}

impl<T> DynMergeableTurnstileEstimator for T
where
    T: TurnstileEstimator + MergeableEstimator<MergeError = SketchError> + Any,
{
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn merge_dyn(&mut self, other: &dyn DynMergeableTurnstileEstimator) -> Result<(), SketchError> {
        match other.as_any().downcast_ref::<T>() {
            Some(concrete) => self.merge_from(concrete),
            None => Err(SketchError::TypeMismatch {
                expected: self.name(),
                found: other.name(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially correct (but linear-space) estimator used to exercise the
    /// trait default methods.
    struct Exact(std::collections::BTreeSet<u64>);

    impl SpaceUsage for Exact {
        fn space_bits(&self) -> u64 {
            self.0.len() as u64 * 64
        }
    }

    impl CardinalityEstimator for Exact {
        fn insert(&mut self, item: u64) {
            self.0.insert(item);
        }
        fn estimate(&self) -> f64 {
            self.0.len() as f64
        }
        fn name(&self) -> &'static str {
            "exact-btree"
        }
    }

    impl MergeableEstimator for Exact {
        type MergeError = SketchError;
        fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
            self.0.extend(other.0.iter().copied());
            Ok(())
        }
    }

    /// A second concrete type so type-mismatch merges can be exercised.
    struct Zero;

    impl SpaceUsage for Zero {
        fn space_bits(&self) -> u64 {
            1
        }
    }

    impl CardinalityEstimator for Zero {
        fn insert(&mut self, _item: u64) {}
        fn estimate(&self) -> f64 {
            0.0
        }
        fn name(&self) -> &'static str {
            "zero"
        }
    }

    impl MergeableEstimator for Zero {
        type MergeError = SketchError;
        fn merge_from(&mut self, _other: &Self) -> Result<(), SketchError> {
            Ok(())
        }
    }

    #[test]
    fn insert_all_default_matches_repeated_insert() {
        let mut a = Exact(Default::default());
        let mut b = Exact(Default::default());
        let items = [1u64, 5, 5, 9, 1, 42];
        a.insert_all(&items);
        for &i in &items {
            b.insert(i);
        }
        assert_eq!(a.estimate(), b.estimate());
        assert_eq!(a.estimate(), 4.0);
        assert_eq!(a.name(), "exact-btree");
    }

    #[test]
    fn insert_batch_default_matches_repeated_insert() {
        let mut a = Exact(Default::default());
        let mut b = Exact(Default::default());
        let items = [7u64, 7, 8, 1 << 40];
        a.insert_batch(&items);
        for &i in &items {
            b.insert(i);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn trait_objects_are_usable() {
        let mut est: Box<dyn CardinalityEstimator> = Box::new(Exact(Default::default()));
        est.insert(3);
        est.insert(3);
        assert_eq!(est.estimate(), 1.0);
        assert!(est.space_bits() > 0);
    }

    #[test]
    fn merge_dyn_merges_matching_types() {
        let mut a: Box<dyn DynMergeableCardinalityEstimator> = Box::new(Exact(Default::default()));
        let mut b: Box<dyn DynMergeableCardinalityEstimator> = Box::new(Exact(Default::default()));
        a.insert_batch(&[1, 2, 3]);
        b.insert_batch(&[3, 4]);
        a.merge_dyn(b.as_ref()).expect("same concrete type");
        assert_eq!(a.estimate(), 4.0);
    }

    #[test]
    fn merge_dyn_rejects_type_mismatch() {
        let mut a: Box<dyn DynMergeableCardinalityEstimator> = Box::new(Exact(Default::default()));
        let b: Box<dyn DynMergeableCardinalityEstimator> = Box::new(Zero);
        let err = a
            .merge_dyn(b.as_ref())
            .expect_err("different concrete types");
        assert_eq!(
            err,
            SketchError::TypeMismatch {
                expected: "exact-btree",
                found: "zero"
            }
        );
    }
}
