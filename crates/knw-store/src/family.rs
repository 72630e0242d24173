//! Sketch families: the per-key entry representations of the store.
//!
//! A [`SketchFamily`] packages everything [`SketchStore`](crate::SketchStore)
//! needs to know about one kind of per-key estimator: how an entry starts
//! (sparse/exact), when and how it promotes to a full KNW sketch, how two
//! entries over split streams merge, and how an entry spills to / reloads
//! from cold-tier bytes.
//!
//! # The promotion contract
//!
//! Promotion is a **deterministic function of the key's update multiset**,
//! never of arrival order, so a per-key shard-merge is bit-identical (in the
//! estimate) to feeding the whole stream to one store:
//!
//! * **F0** entries promote when the key's *distinct-item set* exceeds the
//!   threshold. Set size is a monotone function of the set, so every
//!   interleaving and every shard split crosses the boundary at the same
//!   final set. The promoted sketch is built by replaying the recorded set
//!   into a fresh [`KnwF0Sketch`]; the sketch's estimate-relevant state is a
//!   pure function of the distinct set (per-bucket level maxima plus a base
//!   derived monotonically from the rough estimator — duplicates are no-ops),
//!   so replay order does not matter.
//! * **L0** entries promote when the key's *touched-item set* (every item
//!   ever updated, **including items whose net frequency is currently
//!   zero**) exceeds the threshold. Counting only the nonzero support would
//!   be trajectory-dependent — `+a +b +c −a −b −c` split across two shards
//!   can hold three nonzero counters per shard while the union stream never
//!   exceeds support one — so sparse L0 entries deliberately retain
//!   zero-net items. The promoted sketch applies the net frequencies;
//!   [`KnwL0Sketch`] state is a linear function of the frequency vector, so
//!   one `update(item, net)` equals any sequence summing to `net`.
//!
//! In both families the promoted sketch is seeded with the store's per-key
//! `entry_seed`, a pure function of `(store seed, route_key)` — two shards
//! promoting the same key independently build hash-compatible sketches.
//!
//! # What "bit-identical" means here
//!
//! The guarantee is on **estimates** (`f64` equality), not on serialized
//! bytes: the underlying sketches carry an `updates` diagnostics counter
//! that is trajectory-dependent (a sparse tier deduplicates before replay),
//! and the post-overflow `exact` vector of the embedded small-F0 estimator
//! retains an order-dependent subset. Neither feeds any estimate (see the
//! order-independence contract on
//! `SmallF0Estimator::merge_from_unchecked`).

use serde::{Deserialize, Serialize};

use knw_core::{
    F0Config, KnwF0Sketch, KnwL0Sketch, L0Config, MergeableEstimator, SketchError, SpaceUsage,
};

/// Fixed per-entry accounting overhead (enum tag, `Vec` header). An
/// accounting constant, not a measured size: it stays fixed when the
/// store's layout changes, so budgets and eviction points do too.
const ENTRY_OVERHEAD_BYTES: usize = 48;

/// One kind of per-key estimator managed by the store.
///
/// Implemented by the zero-sized markers [`F0Family`] and [`L0Family`];
/// the store is generic over this trait, never over concrete sketches.
pub trait SketchFamily: 'static {
    /// Configuration shared by every promoted sketch in the store (the
    /// per-key seed is substituted at promotion time).
    type SketchConfig: Copy + PartialEq + std::fmt::Debug + Send + Serialize + Deserialize + 'static;
    /// One stream update for one key.
    type Update: Copy + Send + 'static;
    /// The two-tier per-key state.
    type Entry: Clone + Send + 'static;

    /// Family name, used in type-mismatch diagnostics and metric labels.
    const NAME: &'static str;
    /// One-byte family tag in the store wire format.
    const WIRE_TAG: u8;

    /// A fresh sparse entry for a never-seen key.
    fn empty_entry() -> Self::Entry;

    /// Applies one update, promoting the entry in place when the key's
    /// item set crosses `promote_threshold`.
    fn apply(
        entry: &mut Self::Entry,
        update: Self::Update,
        config: &Self::SketchConfig,
        entry_seed: u64,
        promote_threshold: usize,
    );

    /// Applies a run of updates for one key, in order, exactly as repeated
    /// [`apply`](Self::apply) would in every estimate. The default is that
    /// loop; families override it to feed a promoted entry's sketch in one
    /// batched call.
    fn apply_run(
        entry: &mut Self::Entry,
        updates: &[Self::Update],
        config: &Self::SketchConfig,
        entry_seed: u64,
        promote_threshold: usize,
    ) {
        for &update in updates {
            Self::apply(entry, update, config, entry_seed, promote_threshold);
        }
    }

    /// Current estimate: exact while sparse, the KNW estimate once promoted.
    fn estimate(entry: &Self::Entry) -> f64;

    /// Whether the entry has promoted to a full sketch.
    fn is_promoted(entry: &Self::Entry) -> bool;

    /// Merges `other` (same key, disjoint stream segment) into `entry`,
    /// promoting when the merged item set crosses the threshold.
    ///
    /// # Errors
    ///
    /// Returns the underlying sketch's compatibility error when both sides
    /// are promoted with diverging configurations or seeds.
    fn merge(
        entry: &mut Self::Entry,
        other: &Self::Entry,
        config: &Self::SketchConfig,
        entry_seed: u64,
        promote_threshold: usize,
    ) -> Result<(), SketchError>;

    /// Approximate resident footprint in bytes, used for budget accounting.
    fn entry_bytes(entry: &Self::Entry) -> usize;

    /// Serializes the entry into cold-tier / wire bytes.
    fn spill(entry: &Self::Entry) -> Vec<u8>;

    /// Reconstructs an entry from [`spill`](Self::spill) bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleConfig`] (field `"entry_bytes"`)
    /// on truncated or malformed input.
    fn unspill(bytes: &[u8]) -> Result<Self::Entry, SketchError>;
}

/// Encoded header of a sparse entry: a `u32` variant tag and a `u64` item
/// count; the fixed-width items follow.
const SPARSE_HEADER_BYTES: usize = 4 + 8;

/// Serializes an entry into a buffer of `capacity` bytes, sized by the
/// caller so that a sparse entry's spill allocates once.
fn spill_sized<T: Serialize>(entry: &T, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    entry.serialize(&mut out);
    out
}

/// Applies `updates` one at a time while `entry` is sparse and returns the
/// rest of the run once it has promoted (empty if it never does).
fn apply_while_sparse<'a, F: SketchFamily>(
    entry: &mut F::Entry,
    updates: &'a [F::Update],
    config: &F::SketchConfig,
    entry_seed: u64,
    promote_threshold: usize,
) -> &'a [F::Update] {
    let mut rest = updates;
    while let Some((&update, tail)) = rest.split_first() {
        if F::is_promoted(entry) {
            break;
        }
        F::apply(entry, update, config, entry_seed, promote_threshold);
        rest = tail;
    }
    rest
}

fn unspill_error(family: &'static str, err: &serde::Error) -> SketchError {
    SketchError::config_mismatch("entry_bytes", family, format!("{err}"))
}

// ---------------------------------------------------------------------------
// F0
// ---------------------------------------------------------------------------

/// Marker for per-key distinct-count (F0) entries.
#[derive(Debug, Clone, Copy)]
pub struct F0Family;

/// Two-tier F0 entry: a sorted exact set, or a promoted [`KnwF0Sketch`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum F0Entry {
    /// Exact tier: the key's distinct items, sorted ascending.
    Sparse(Vec<u64>),
    /// Promoted tier: a full KNW F0 sketch seeded with the key's entry seed.
    Promoted(Box<KnwF0Sketch>),
}

/// Builds the promoted sketch for a key from its recorded distinct set.
///
/// Inserting the *sorted* set item by item is bit-identical (in every
/// estimate-relevant field) to inserting the key's stream in arrival order:
/// the sketch's state is a pure function of the distinct set and duplicates
/// are no-ops.
fn promote_f0(items: &[u64], config: &F0Config, entry_seed: u64) -> Box<KnwF0Sketch> {
    let mut sketch = Box::new(KnwF0Sketch::new(config.with_seed(entry_seed)));
    for &item in items {
        sketch.insert(item);
    }
    sketch
}

impl SketchFamily for F0Family {
    type SketchConfig = F0Config;
    type Update = u64;
    type Entry = F0Entry;

    const NAME: &'static str = "f0";
    const WIRE_TAG: u8 = 1;

    fn empty_entry() -> F0Entry {
        F0Entry::Sparse(Vec::new())
    }

    fn apply(
        entry: &mut F0Entry,
        item: u64,
        config: &F0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) {
        match entry {
            F0Entry::Sparse(items) => {
                if let Err(pos) = items.binary_search(&item) {
                    items.insert(pos, item);
                    if items.len() > promote_threshold {
                        *entry = F0Entry::Promoted(promote_f0(items, config, entry_seed));
                    }
                }
            }
            F0Entry::Promoted(sketch) => sketch.insert(item),
        }
    }

    /// One update at a time while sparse, then the rest of the run through
    /// [`KnwF0Sketch::insert_batch`], whose estimates equal the per-item
    /// path's.
    fn apply_run(
        entry: &mut F0Entry,
        items: &[u64],
        config: &F0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) {
        let rest = apply_while_sparse::<Self>(entry, items, config, entry_seed, promote_threshold);
        if let F0Entry::Promoted(sketch) = entry {
            sketch.insert_batch(rest);
        }
    }

    fn estimate(entry: &F0Entry) -> f64 {
        match entry {
            F0Entry::Sparse(items) => items.len() as f64,
            F0Entry::Promoted(sketch) => sketch.estimate_f0(),
        }
    }

    fn is_promoted(entry: &F0Entry) -> bool {
        matches!(entry, F0Entry::Promoted(_))
    }

    fn merge(
        entry: &mut F0Entry,
        other: &F0Entry,
        config: &F0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) -> Result<(), SketchError> {
        match (&mut *entry, other) {
            (F0Entry::Sparse(ours), F0Entry::Sparse(theirs)) => {
                let union = sorted_union(ours, theirs);
                *entry = if union.len() > promote_threshold {
                    F0Entry::Promoted(promote_f0(&union, config, entry_seed))
                } else {
                    F0Entry::Sparse(union)
                };
                Ok(())
            }
            (F0Entry::Sparse(ours), F0Entry::Promoted(theirs)) => {
                let mut sketch = theirs.clone();
                for &item in ours.iter() {
                    sketch.insert(item);
                }
                *entry = F0Entry::Promoted(sketch);
                Ok(())
            }
            (F0Entry::Promoted(sketch), F0Entry::Sparse(theirs)) => {
                for &item in theirs {
                    sketch.insert(item);
                }
                Ok(())
            }
            (F0Entry::Promoted(ours), F0Entry::Promoted(theirs)) => ours.merge_from(theirs),
        }
    }

    fn entry_bytes(entry: &F0Entry) -> usize {
        ENTRY_OVERHEAD_BYTES
            + match entry {
                F0Entry::Sparse(items) => items.len() * 8,
                F0Entry::Promoted(sketch) => (sketch.space_bits() / 8) as usize,
            }
    }

    fn spill(entry: &F0Entry) -> Vec<u8> {
        let items = match entry {
            F0Entry::Sparse(items) => items.len(),
            F0Entry::Promoted(_) => 0,
        };
        spill_sized(entry, SPARSE_HEADER_BYTES + items * 8)
    }

    fn unspill(bytes: &[u8]) -> Result<F0Entry, SketchError> {
        serde::from_bytes(bytes).map_err(|e| unspill_error(Self::NAME, &e))
    }
}

/// Merges two sorted distinct-item slices into a sorted distinct vector.
fn sorted_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------------
// L0
// ---------------------------------------------------------------------------

/// Marker for per-key turnstile support-size (L0) entries.
#[derive(Debug, Clone, Copy)]
pub struct L0Family;

/// Two-tier L0 entry: sorted `(item, net)` pairs, or a promoted
/// [`KnwL0Sketch`].
///
/// The sparse tier keeps items whose net frequency has returned to zero —
/// the *touched-item set* is the promotion trigger (see the module docs),
/// so dropping cancelled items would make promotion trajectory-dependent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum L0Entry {
    /// Exact tier: `(item, net frequency)` sorted by item; zero nets kept.
    Sparse(Vec<(u64, i64)>),
    /// Promoted tier: a full KNW L0 sketch seeded with the key's entry seed.
    Promoted(Box<KnwL0Sketch>),
}

/// Builds the promoted sketch for a key from its recorded net frequencies.
///
/// `KnwL0Sketch` state is a linear function of the frequency vector, so
/// applying each nonzero net once is bit-identical to replaying the key's
/// update stream (zero nets are no-ops either way).
fn promote_l0(items: &[(u64, i64)], config: &L0Config, entry_seed: u64) -> Box<KnwL0Sketch> {
    let mut sketch = Box::new(KnwL0Sketch::new(config.with_seed(entry_seed)));
    for &(item, net) in items {
        if net != 0 {
            sketch.update(item, net);
        }
    }
    sketch
}

impl SketchFamily for L0Family {
    type SketchConfig = L0Config;
    type Update = (u64, i64);
    type Entry = L0Entry;

    const NAME: &'static str = "l0";
    const WIRE_TAG: u8 = 2;

    fn empty_entry() -> L0Entry {
        L0Entry::Sparse(Vec::new())
    }

    fn apply(
        entry: &mut L0Entry,
        update: (u64, i64),
        config: &L0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) {
        let (item, delta) = update;
        match entry {
            L0Entry::Sparse(items) => match items.binary_search_by_key(&item, |e| e.0) {
                Ok(pos) => items[pos].1 = items[pos].1.wrapping_add(delta),
                Err(pos) => {
                    items.insert(pos, (item, delta));
                    if items.len() > promote_threshold {
                        *entry = L0Entry::Promoted(promote_l0(items, config, entry_seed));
                    }
                }
            },
            L0Entry::Promoted(sketch) => sketch.update(item, delta),
        }
    }

    /// One update at a time while sparse, then the rest of the run through
    /// [`KnwL0Sketch::update_batch`], bit-identical to the per-update path.
    fn apply_run(
        entry: &mut L0Entry,
        updates: &[(u64, i64)],
        config: &L0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) {
        let rest =
            apply_while_sparse::<Self>(entry, updates, config, entry_seed, promote_threshold);
        if let L0Entry::Promoted(sketch) = entry {
            sketch.update_batch(rest);
        }
    }

    fn estimate(entry: &L0Entry) -> f64 {
        match entry {
            L0Entry::Sparse(items) => items.iter().filter(|&&(_, net)| net != 0).count() as f64,
            L0Entry::Promoted(sketch) => sketch.estimate_l0(),
        }
    }

    fn is_promoted(entry: &L0Entry) -> bool {
        matches!(entry, L0Entry::Promoted(_))
    }

    fn merge(
        entry: &mut L0Entry,
        other: &L0Entry,
        config: &L0Config,
        entry_seed: u64,
        promote_threshold: usize,
    ) -> Result<(), SketchError> {
        match (&mut *entry, other) {
            (L0Entry::Sparse(ours), L0Entry::Sparse(theirs)) => {
                let union = sorted_net_union(ours, theirs);
                *entry = if union.len() > promote_threshold {
                    L0Entry::Promoted(promote_l0(&union, config, entry_seed))
                } else {
                    L0Entry::Sparse(union)
                };
                Ok(())
            }
            (L0Entry::Sparse(ours), L0Entry::Promoted(theirs)) => {
                let mut sketch = theirs.clone();
                for &(item, net) in ours.iter() {
                    if net != 0 {
                        sketch.update(item, net);
                    }
                }
                *entry = L0Entry::Promoted(sketch);
                Ok(())
            }
            (L0Entry::Promoted(sketch), L0Entry::Sparse(theirs)) => {
                for &(item, net) in theirs {
                    if net != 0 {
                        sketch.update(item, net);
                    }
                }
                Ok(())
            }
            (L0Entry::Promoted(ours), L0Entry::Promoted(theirs)) => ours.merge_from(theirs),
        }
    }

    fn entry_bytes(entry: &L0Entry) -> usize {
        ENTRY_OVERHEAD_BYTES
            + match entry {
                L0Entry::Sparse(items) => items.len() * 16,
                L0Entry::Promoted(sketch) => (sketch.space_bits() / 8) as usize,
            }
    }

    fn spill(entry: &L0Entry) -> Vec<u8> {
        let items = match entry {
            L0Entry::Sparse(items) => items.len(),
            L0Entry::Promoted(_) => 0,
        };
        spill_sized(entry, SPARSE_HEADER_BYTES + items * 16)
    }

    fn unspill(bytes: &[u8]) -> Result<L0Entry, SketchError> {
        serde::from_bytes(bytes).map_err(|e| unspill_error(Self::NAME, &e))
    }
}

/// Merges two sorted `(item, net)` slices, summing nets per item.
///
/// Zero-sum items are **retained**: the union's touched set is the union of
/// the touched sets, which is what the promotion trigger counts.
fn sorted_net_union(a: &[(u64, i64)], b: &[(u64, i64)]) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1.wrapping_add(b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_union_merges_and_dedups() {
        assert_eq!(sorted_union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(sorted_union(&[], &[7]), vec![7]);
    }

    #[test]
    fn sorted_net_union_sums_and_keeps_zero_nets() {
        let merged = sorted_net_union(&[(1, 2), (2, -1)], &[(2, 1), (3, 4)]);
        assert_eq!(merged, vec![(1, 2), (2, 0), (3, 4)]);
    }

    #[test]
    fn f0_entry_promotes_on_distinct_count_not_update_count() {
        let config = F0Config::new(0.25, 1 << 20);
        let mut entry = F0Family::empty_entry();
        // 100 updates over 3 distinct items with threshold 4: stays sparse.
        for i in 0..100u64 {
            F0Family::apply(&mut entry, i % 3, &config, 9, 4);
        }
        assert!(!F0Family::is_promoted(&entry));
        assert_eq!(F0Family::estimate(&entry), 3.0);
        for i in 0..5u64 {
            F0Family::apply(&mut entry, 100 + i, &config, 9, 4);
        }
        assert!(F0Family::is_promoted(&entry));
    }

    #[test]
    fn l0_entry_counts_touched_items_for_promotion() {
        let config = L0Config::new(0.25, 1 << 20);
        let mut entry = L0Family::empty_entry();
        // Insert then cancel items: nets return to zero but the touched set
        // grows, so the entry still promotes past the threshold.
        for i in 0..5u64 {
            L0Family::apply(&mut entry, (i, 1), &config, 9, 4);
            L0Family::apply(&mut entry, (i, -1), &config, 9, 4);
        }
        assert!(L0Family::is_promoted(&entry));
        // All nets are zero, so the promoted estimate is zero support.
        assert_eq!(L0Family::estimate(&entry), 0.0);
    }

    #[test]
    fn batched_runs_match_per_update_apply_across_promotion() {
        // Runs that promote midway: the sparse head goes one by one, the
        // promoted tail through the sketch's batch path.
        let f0 = F0Config::new(0.25, 1 << 20);
        let (mut run, mut each) = (F0Family::empty_entry(), F0Family::empty_entry());
        let items: Vec<u64> = (0..300u64).map(|i| i * 7 % 211).collect();
        for chunk in items.chunks(37) {
            F0Family::apply_run(&mut run, chunk, &f0, 5, 16);
            for &item in chunk {
                F0Family::apply(&mut each, item, &f0, 5, 16);
            }
        }
        assert!(F0Family::is_promoted(&run));
        assert_eq!(F0Family::estimate(&run), F0Family::estimate(&each));

        let l0 = L0Config::new(0.25, 1 << 20);
        let (mut run, mut each) = (L0Family::empty_entry(), L0Family::empty_entry());
        let updates: Vec<(u64, i64)> = (0..60u64).map(|i| (i % 23, 2 - (i % 5) as i64)).collect();
        for chunk in updates.chunks(13) {
            L0Family::apply_run(&mut run, chunk, &l0, 5, 16);
            for &update in chunk {
                L0Family::apply(&mut each, update, &l0, 5, 16);
            }
        }
        assert!(L0Family::is_promoted(&run));
        assert_eq!(L0Family::spill(&run), L0Family::spill(&each));

        let sparse = L0Entry::Sparse(vec![(1, 2), (3, 0)]);
        let bytes = L0Family::spill(&sparse);
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "a sparse spill allocates once"
        );
    }

    #[test]
    fn entry_spill_roundtrips() {
        let config = F0Config::new(0.25, 1 << 20);
        let mut entry = F0Family::empty_entry();
        for i in 0..10u64 {
            F0Family::apply(&mut entry, i, &config, 3, 64);
        }
        let bytes = F0Family::spill(&entry);
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "a sparse spill allocates once"
        );
        let back = F0Family::unspill(&bytes).expect("roundtrip");
        assert_eq!(F0Family::estimate(&back), F0Family::estimate(&entry));
        assert!(F0Family::unspill(&bytes[..bytes.len() - 1]).is_err());
    }
}
