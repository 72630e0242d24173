//! The routing stage shared by both shard front ends in the workspace:
//! the threaded [`ShardedEngine`] and the multi-process `knw-cluster`
//! aggregator.
//!
//! Both guarantee *identical* routing — same batch boundaries, same shard
//! assignment — which is what makes a multi-process run reproduce the
//! in-process run bit for bit.  Keeping the policy and batching logic in
//! one public module makes that guarantee structural instead of a
//! convention two copies must uphold.
//!
//! Two routing policies exist:
//!
//! * [`RoutingPolicy::RoundRobin`] — consecutive batches of `batch_size`
//!   updates go to shards 0, 1, 2, … cyclically.  Maximum locality for the
//!   router (one buffer, bulk memcpys); valid whenever shard sketches merge
//!   exactly under *arbitrary* stream partitions (every estimator in this
//!   workspace).
//! * [`RoutingPolicy::HashAffine`] — every occurrence of an item lands on
//!   the shard [`epoch_shard_for_key`]`(seed, item, shards)` selects (equal
//!   to the historical
//!   [`shard_for_key`](knw_hash::rng::shard_for_key) at power-of-two shard
//!   counts, and a linear-hashing refinement under growth — the property
//!   elastic resharding is built on; see
//!   [`install_epoch`](ShardBatcher::install_epoch)).  This is the
//!   *by-item* partition: required when a turnstile shard sketch is only
//!   correct if it sees all of an item's inserts and deletes (true of
//!   non-linear deletion-aware structures outside this workspace), and the
//!   natural policy when shards are keyed caches.  The seed lets disjoint
//!   deployments decorrelate their shard assignments; seed 0 matches
//!   `knw_stream::partition_by_item`.
//!
//! [`ShardedEngine`]: crate::ShardedEngine

use knw_hash::rng::epoch_shard_for_key;
#[cfg(test)]
use knw_hash::rng::shard_for_key;
use knw_metrics::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Which shard-assignment discipline a router uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum RoutingPolicy {
    /// Consecutive batches go to shards cyclically (the default).
    #[default]
    RoundRobin,
    /// Every occurrence of an item goes to the shard
    /// [`shard_for_key`](knw_hash::rng::shard_for_key)`(seed, item)` picks.
    HashAffine {
        /// Decorrelation seed; 0 matches `knw_stream::partition_by_item`.
        seed: u64,
    },
}

/// An update a router can dispatch: exposes the item identifier hash-affine
/// routing keys on, and the (optional) pre-coalescing transform applied
/// before hand-off.
///
/// Implemented for the stream models of the workspace — `u64` (insert
/// only, the item is its own key, coalescing is the identity) and
/// `(u64, i64)` (turnstile, keyed by the item, coalescing sums deltas per
/// item via [`knw_core::coalesce`]) — and for their *keyed-store* versions
/// `(key, item)` / `(key, item, delta)`, which route on the store key so a
/// shard owns every update of its keys.
pub trait Routable: Copy + Send + 'static {
    /// The item identifier all occurrences of which must co-locate under
    /// hash-affine routing.
    fn routing_key(&self) -> u64;

    /// Collapses a batch into an equivalent (for the stream model) but
    /// typically smaller batch, applied by routers with pre-coalescing
    /// enabled before the batch is split across shards.  The default is the
    /// identity; the turnstile implementation sums each item's deltas
    /// (exact for every linear sketch).
    #[must_use]
    fn coalesce_batch(updates: &[Self]) -> Vec<Self> {
        updates.to_vec()
    }

    /// Whether [`coalesce_batch`](Self::coalesce_batch) can ever shrink a
    /// batch (lets routers skip the copy for insert-only streams).
    #[must_use]
    fn coalescible() -> bool {
        false
    }
}

impl Routable for u64 {
    #[inline]
    fn routing_key(&self) -> u64 {
        *self
    }
}

impl Routable for (u64, i64) {
    #[inline]
    fn routing_key(&self) -> u64 {
        self.0
    }

    fn coalesce_batch(updates: &[Self]) -> Vec<Self> {
        knw_core::coalesce::coalesce_updates(updates)
    }

    fn coalescible() -> bool {
        true
    }
}

/// Keyed F0 update `(key, item)` for per-key sketch stores: all of a key's
/// items co-locate, so each store shard owns its keys outright.
impl Routable for (u64, u64) {
    #[inline]
    fn routing_key(&self) -> u64 {
        self.0
    }
}

/// Keyed turnstile update `(key, item, delta)` for per-key sketch stores.
///
/// Pre-coalescing sums deltas per `(key, item)` pair but — unlike the
/// unkeyed turnstile path — retains pairs whose deltas cancel: the store's
/// promotion trigger counts a key's touched-item set, zero nets included
/// (see [`knw_core::coalesce::coalesce_keyed_updates`]).
impl Routable for (u64, u64, i64) {
    #[inline]
    fn routing_key(&self) -> u64 {
        self.0
    }

    fn coalesce_batch(updates: &[Self]) -> Vec<Self> {
        knw_core::coalesce::coalesce_keyed_updates(updates)
    }

    fn coalescible() -> bool {
        true
    }
}

/// Per-shard dispatch counters a [`ShardBatcher`] publishes into a
/// [`MetricsRegistry`]: one batches counter and one updates counter per
/// shard, labeled `{shard="i"}` under `<prefix>_shard_batches_total` /
/// `<prefix>_shard_updates_total`.  The counters are `Arc` handles, so
/// recording a dispatch is two relaxed atomic adds per *batch* — amortized
/// to nothing over the thousands of updates a batch carries.
#[derive(Debug, Clone)]
pub struct BatcherMetrics {
    batches: Vec<Arc<Counter>>,
    updates: Vec<Arc<Counter>>,
}

impl BatcherMetrics {
    /// Registers the per-shard counters for `num_shards` shards under
    /// `prefix` in `registry` (idempotent — engines sharing a prefix share
    /// the counters).
    #[must_use]
    pub fn register(registry: &MetricsRegistry, prefix: &str, num_shards: usize) -> Self {
        let batches_name = format!("{prefix}_shard_batches_total");
        let updates_name = format!("{prefix}_shard_updates_total");
        let mut batches = Vec::with_capacity(num_shards);
        let mut updates = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let label = shard.to_string();
            batches.push(registry.counter(&batches_name, &[("shard", &label)]));
            updates.push(registry.counter(&updates_name, &[("shard", &label)]));
        }
        Self { batches, updates }
    }

    /// Records one dispatched batch of `len` updates to `shard`.
    fn on_dispatch(&self, shard: usize, len: usize) {
        if let (Some(batches), Some(updates)) = (self.batches.get(shard), self.updates.get(shard)) {
            batches.inc();
            updates.add(len as u64);
        }
    }
}

/// Policy-specific buffering state.
#[derive(Debug, Clone)]
enum Buffers<U> {
    /// One shared buffer; full batches are assigned to shards cyclically.
    RoundRobin { buffer: Vec<U>, next_shard: usize },
    /// One buffer per shard; an update is buffered on its item's shard.
    HashAffine { seed: u64, buffers: Vec<Vec<U>> },
}

/// Accumulates updates into fixed-size batches and assigns them to shards
/// according to a [`RoutingPolicy`], handing each full batch to a
/// caller-supplied `dispatch(shard, batch)` callback.
///
/// This is the routing stage of [`ShardedEngine`](crate::ShardedEngine)
/// *and* the `knw-cluster` multi-process aggregator; sharing it is what keeps in-process and cross-process shard
/// contents identical for the same policy and batch size.
#[derive(Debug, Clone)]
pub struct ShardBatcher<U> {
    buffers: Buffers<U>,
    batch_size: usize,
    num_shards: usize,
    /// The routing epoch: bumped by [`install_epoch`](Self::install_epoch)
    /// each time the shard count changes, so callers can stamp journals and
    /// wire traffic with the table version that routed them.
    epoch: u64,
    /// Optional per-shard dispatch counters (see [`BatcherMetrics`]).
    metrics: Option<BatcherMetrics>,
}

impl<U: Routable> ShardBatcher<U> {
    /// Creates a batcher for `num_shards` shards dispatching batches of
    /// `batch_size` updates (both clamped to at least one).
    #[must_use]
    pub fn new(policy: RoutingPolicy, num_shards: usize, batch_size: usize) -> Self {
        let num_shards = num_shards.max(1);
        let batch_size = batch_size.max(1);
        let buffers = match policy {
            RoutingPolicy::RoundRobin => Buffers::RoundRobin {
                buffer: Vec::with_capacity(batch_size),
                next_shard: 0,
            },
            RoutingPolicy::HashAffine { seed } => Buffers::HashAffine {
                seed,
                buffers: (0..num_shards)
                    .map(|_| Vec::with_capacity(batch_size))
                    .collect(),
            },
        };
        Self {
            buffers,
            batch_size,
            num_shards,
            epoch: 0,
            metrics: None,
        }
    }

    /// Attaches per-shard dispatch counters; every dispatched batch (from
    /// [`push`](Self::push), [`extend_from_slice`](Self::extend_from_slice)
    /// or [`flush`](Self::flush)) is counted against its shard.
    #[must_use]
    pub fn with_metrics(mut self, metrics: BatcherMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Buffers one update, dispatching if its batch filled up.
    pub fn push(&mut self, update: U, dispatch: &mut impl FnMut(usize, Vec<U>)) {
        let batch_size = self.batch_size;
        match &mut self.buffers {
            Buffers::RoundRobin { buffer, next_shard } => {
                buffer.push(update);
                if buffer.len() >= batch_size {
                    let batch = std::mem::replace(buffer, Vec::with_capacity(batch_size));
                    let shard = *next_shard;
                    *next_shard = (*next_shard + 1) % self.num_shards;
                    if let Some(metrics) = &self.metrics {
                        metrics.on_dispatch(shard, batch.len());
                    }
                    dispatch(shard, batch);
                }
            }
            Buffers::HashAffine { seed, buffers } => {
                let shard = epoch_shard_for_key(*seed, update.routing_key(), self.num_shards);
                let buffer = &mut buffers[shard];
                buffer.push(update);
                if buffer.len() >= batch_size {
                    let batch = std::mem::replace(buffer, Vec::with_capacity(batch_size));
                    if let Some(metrics) = &self.metrics {
                        metrics.on_dispatch(shard, batch.len());
                    }
                    dispatch(shard, batch);
                }
            }
        }
    }

    /// Buffers a slice of updates, dispatching every time a batch fills.
    /// The dispatch sequence is identical to repeated [`push`](Self::push);
    /// under round-robin the copies are bulk memcpys, not per-item pushes.
    pub fn extend_from_slice(&mut self, updates: &[U], dispatch: &mut impl FnMut(usize, Vec<U>)) {
        match &mut self.buffers {
            Buffers::RoundRobin { buffer, next_shard } => {
                let mut rest = updates;
                while !rest.is_empty() {
                    let space = self.batch_size - buffer.len();
                    let (chunk, tail) = rest.split_at(space.min(rest.len()));
                    buffer.extend_from_slice(chunk);
                    rest = tail;
                    if buffer.len() >= self.batch_size {
                        let batch = std::mem::replace(buffer, Vec::with_capacity(self.batch_size));
                        let shard = *next_shard;
                        *next_shard = (*next_shard + 1) % self.num_shards;
                        if let Some(metrics) = &self.metrics {
                            metrics.on_dispatch(shard, batch.len());
                        }
                        dispatch(shard, batch);
                    }
                }
            }
            Buffers::HashAffine { .. } => {
                // Hash-affine routing is inherently per-item (each update is
                // hashed), so there is no bulk-copy shortcut.
                for &update in updates {
                    self.push(update, dispatch);
                }
            }
        }
    }

    /// Dispatches every (possibly partial) pending batch.
    pub fn flush(&mut self, dispatch: &mut impl FnMut(usize, Vec<U>)) {
        match &mut self.buffers {
            Buffers::RoundRobin { buffer, next_shard } => {
                if buffer.is_empty() {
                    return;
                }
                let batch = std::mem::replace(buffer, Vec::with_capacity(self.batch_size));
                let shard = *next_shard;
                *next_shard = (*next_shard + 1) % self.num_shards;
                if let Some(metrics) = &self.metrics {
                    metrics.on_dispatch(shard, batch.len());
                }
                dispatch(shard, batch);
            }
            Buffers::HashAffine { buffers, .. } => {
                for (shard, buffer) in buffers.iter_mut().enumerate() {
                    if !buffer.is_empty() {
                        let batch = std::mem::replace(buffer, Vec::with_capacity(self.batch_size));
                        if let Some(metrics) = &self.metrics {
                            metrics.on_dispatch(shard, batch.len());
                        }
                        dispatch(shard, batch);
                    }
                }
            }
        }
    }

    /// Total number of buffered, not-yet-dispatched updates.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        match &self.buffers {
            Buffers::RoundRobin { buffer, .. } => buffer.len(),
            Buffers::HashAffine { buffers, .. } => buffers.iter().map(Vec::len).sum(),
        }
    }

    /// The configured batch size.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of internal buffers (1 for round-robin, one per shard for
    /// hash-affine) — used for space accounting.
    #[must_use]
    pub fn buffer_count(&self) -> usize {
        match &self.buffers {
            Buffers::RoundRobin { .. } => 1,
            Buffers::HashAffine { buffers, .. } => buffers.len(),
        }
    }

    /// The current routing epoch (0 until the first
    /// [`install_epoch`](Self::install_epoch)).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The number of shards the current epoch's table routes over.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Installs the next routing epoch with `num_shards` shards (clamped to
    /// at least one).  Routing is deterministic *within* an epoch: the same
    /// key routes to the same shard until the next install, and under
    /// hash-affine routing the new table is the linear-hashing refinement
    /// of the old one (see `knw_hash::rng::epoch_shard_for_key`), so a
    /// grow by one moves exactly one shard's split-off keys.
    ///
    /// # Panics
    ///
    /// Panics if updates are still pending — callers must
    /// [`flush`](Self::flush) first, because a buffered update was routed
    /// by the *old* table and dispatching it under the new one would break
    /// the per-epoch determinism contract.
    pub fn install_epoch(&mut self, num_shards: usize) {
        assert_eq!(
            self.pending_len(),
            0,
            "install_epoch requires a flushed batcher"
        );
        let num_shards = num_shards.max(1);
        let batch_size = self.batch_size;
        self.epoch += 1;
        self.num_shards = num_shards;
        match &mut self.buffers {
            Buffers::RoundRobin { next_shard, .. } => {
                *next_shard %= num_shards;
            }
            Buffers::HashAffine { buffers, .. } => {
                buffers.resize_with(num_shards, || Vec::with_capacity(batch_size));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_dispatches(
        batcher: &mut ShardBatcher<u64>,
        feed: impl FnOnce(&mut ShardBatcher<u64>, &mut dyn FnMut(usize, Vec<u64>)),
    ) -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        let mut sink = |shard: usize, batch: Vec<u64>| out.push((shard, batch));
        feed(batcher, &mut sink);
        out
    }

    #[test]
    fn push_and_extend_produce_the_same_dispatch_sequence() {
        let items: Vec<u64> = (0..103).collect();
        let mut via_push = ShardBatcher::new(RoutingPolicy::RoundRobin, 3, 10);
        let pushed = collect_dispatches(&mut via_push, |b, sink| {
            for &i in &items {
                b.push(i, &mut |s, batch| sink(s, batch));
            }
            b.flush(&mut |s, batch| sink(s, batch));
        });
        let mut via_extend = ShardBatcher::new(RoutingPolicy::RoundRobin, 3, 10);
        let extended = collect_dispatches(&mut via_extend, |b, sink| {
            for chunk in items.chunks(7) {
                b.extend_from_slice(chunk, &mut |s, batch| sink(s, batch));
            }
            b.flush(&mut |s, batch| sink(s, batch));
        });
        assert_eq!(pushed, extended);
        // Batch 0 → shard 0, batch 1 → shard 1, … wrapping round-robin.
        for (idx, (shard, _)) in pushed.iter().enumerate() {
            assert_eq!(*shard, idx % 3);
        }
        let total: usize = pushed.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, items.len());
    }

    /// Flush never dispatches an empty batch, under either policy: an
    /// untouched batcher dispatches nothing, and a hash-affine batcher
    /// whose stream hit only some shards dispatches only those — the
    /// downstream contract (e.g. the cluster dispatch path) that every
    /// batch handed to it carries at least one update.
    #[test]
    fn flush_emits_no_empty_batches() {
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::HashAffine { seed: 0 },
        ] {
            let mut untouched = ShardBatcher::new(policy, 4, 10);
            let dispatched = collect_dispatches(&mut untouched, |b, sink| {
                b.flush(&mut |s, batch| sink(s, batch));
            });
            assert!(dispatched.is_empty(), "{policy:?}: nothing pending");
        }
        // One item lands on exactly one of many hash-affine shards; the
        // other shards' buffers are empty and must stay silent.
        let mut sparse = ShardBatcher::new(RoutingPolicy::HashAffine { seed: 0 }, 16, 10);
        let dispatched = collect_dispatches(&mut sparse, |b, sink| {
            b.push(42, &mut |s, batch| sink(s, batch));
            b.flush(&mut |s, batch| sink(s, batch));
        });
        assert_eq!(dispatched.len(), 1);
        assert!(dispatched.iter().all(|(_, batch)| !batch.is_empty()));
    }

    #[test]
    fn degenerate_sizes_are_clamped_not_hung() {
        // batch_size 0 / shards 0 must clamp to 1 rather than loop forever
        // dispatching empty batches (the constructor is public API now).
        let mut b: ShardBatcher<u64> = ShardBatcher::new(RoutingPolicy::RoundRobin, 0, 0);
        let dispatched = collect_dispatches(&mut b, |b, sink| {
            b.extend_from_slice(&[1, 2, 3], &mut |s, batch| sink(s, batch));
        });
        assert_eq!(dispatched, vec![(0, vec![1]), (0, vec![2]), (0, vec![3])]);
        assert_eq!(b.batch_size(), 1);
    }

    #[test]
    fn pending_holds_the_partial_batch() {
        let mut b: ShardBatcher<u64> = ShardBatcher::new(RoutingPolicy::RoundRobin, 2, 4);
        let dispatched = collect_dispatches(&mut b, |b, sink| {
            for i in 0..6 {
                b.push(i, &mut |s, batch| sink(s, batch));
            }
        });
        assert_eq!(dispatched.len(), 1);
        assert_eq!(b.pending_len(), 2);
        let flushed = collect_dispatches(&mut b, |b, sink| b.flush(&mut |s, batch| sink(s, batch)));
        assert_eq!(flushed, [(1, vec![4, 5])]);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn hash_affine_co_locates_every_occurrence_of_an_item() {
        let seed = 11u64;
        let items: Vec<u64> = (0..500u64).map(|i| i % 37).collect();
        let mut batcher = ShardBatcher::new(RoutingPolicy::HashAffine { seed }, 4, 8);
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut check = |shard: usize, batch: Vec<u64>| {
            for item in batch {
                let expected = *seen.entry(item).or_insert(shard);
                assert_eq!(shard, expected, "item {item} moved shards");
                assert_eq!(shard, shard_for_key(seed, item, 4));
            }
        };
        for &i in &items {
            batcher.push(i, &mut check);
        }
        batcher.flush(&mut check);
        assert_eq!(seen.len(), 37);
    }

    /// A hash-affine batcher's per-shard contents are exactly the by-item
    /// partition `epoch_shard_for_key` produces, in stream order, at a
    /// shard count that is not a power of two.
    #[test]
    fn hash_affine_batcher_matches_the_by_item_partition() {
        let (seed, shards) = (17u64, 3usize);
        let updates: Vec<(u64, i64)> = (0..20_000u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x % 4_096, (x % 7) as i64 - 3)
            })
            .collect();
        let mut batcher = ShardBatcher::new(RoutingPolicy::HashAffine { seed }, shards, 64);
        let mut routed = vec![Vec::new(); shards];
        let mut dispatch = |shard: usize, batch: Vec<(u64, i64)>| routed[shard].extend(batch);
        batcher.extend_from_slice(&updates, &mut dispatch);
        batcher.flush(&mut dispatch);
        let mut parts = vec![Vec::new(); shards];
        for &(item, delta) in &updates {
            parts[epoch_shard_for_key(seed, item, shards)].push((item, delta));
        }
        assert_eq!(routed, parts);
    }

    #[test]
    fn hash_affine_push_and_extend_agree() {
        let items: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let policy = RoutingPolicy::HashAffine { seed: 3 };
        let mut a = ShardBatcher::new(policy, 3, 16);
        let mut b = ShardBatcher::new(policy, 3, 16);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for &i in &items {
            a.push(i, &mut |s, batch| out_a.push((s, batch)));
        }
        a.flush(&mut |s, batch| out_a.push((s, batch)));
        b.extend_from_slice(&items, &mut |s, batch| out_b.push((s, batch)));
        b.flush(&mut |s, batch| out_b.push((s, batch)));
        assert_eq!(out_a, out_b);
    }

    /// Attached batcher metrics see every dispatch — from push, extend
    /// and flush alike — attributed to the right shard, under both
    /// policies.  A local registry keeps the assertions race-free.
    #[test]
    fn batcher_metrics_count_every_dispatch_per_shard() {
        let registry = MetricsRegistry::new();
        let mut batcher = ShardBatcher::new(RoutingPolicy::RoundRobin, 2, 10)
            .with_metrics(BatcherMetrics::register(&registry, "test_rr", 2));
        let items: Vec<u64> = (0..25).collect();
        let mut sink = |_s: usize, _b: Vec<u64>| {};
        batcher.extend_from_slice(&items[..13], &mut sink);
        for &i in &items[13..] {
            batcher.push(i, &mut sink);
        }
        batcher.flush(&mut sink);
        // 25 updates in batches of 10: shard 0 gets batches 0 and 2 (10 +
        // 5-update flush remainder), shard 1 gets batch 1.
        let count = |name: &str, shard: &str| registry.counter(name, &[("shard", shard)]).get();
        assert_eq!(count("test_rr_shard_batches_total", "0"), 2);
        assert_eq!(count("test_rr_shard_batches_total", "1"), 1);
        assert_eq!(count("test_rr_shard_updates_total", "0"), 15);
        assert_eq!(count("test_rr_shard_updates_total", "1"), 10);

        let mut affine = ShardBatcher::new(RoutingPolicy::HashAffine { seed: 0 }, 4, 8)
            .with_metrics(BatcherMetrics::register(&registry, "test_ha", 4));
        affine.extend_from_slice(&items, &mut sink);
        affine.flush(&mut sink);
        let total_updates: u64 = (0..4)
            .map(|s| count("test_ha_shard_updates_total", &s.to_string()))
            .sum();
        assert_eq!(total_updates, 25, "every update is attributed to a shard");
    }

    /// `install_epoch` re-tables routing deterministically: within an
    /// epoch the same key always routes to the same shard, the round-robin
    /// cursor stays in range after a shrink, and a hash-affine grow routes
    /// by the refined table (keys either stay or move to the new shard).
    #[test]
    fn install_epoch_resizes_routing_deterministically() {
        let mut rr: ShardBatcher<u64> = ShardBatcher::new(RoutingPolicy::RoundRobin, 4, 1);
        let mut shards = Vec::new();
        let mut sink = |s: usize, _b: Vec<u64>| shards.push(s);
        for i in 0..3 {
            rr.push(i, &mut sink);
        }
        assert_eq!(rr.epoch(), 0);
        rr.install_epoch(2);
        assert_eq!((rr.epoch(), rr.num_shards()), (1, 2));
        for i in 0..4 {
            rr.push(i, &mut sink);
        }
        assert_eq!(shards, vec![0, 1, 2, 1, 0, 1, 0]);

        let seed = 5u64;
        let mut ha: ShardBatcher<u64> = ShardBatcher::new(RoutingPolicy::HashAffine { seed }, 2, 1);
        let keys: Vec<u64> = (0..64).collect();
        let mut before = std::collections::HashMap::new();
        for &k in &keys {
            ha.push(k, &mut |s, _| {
                before.insert(k, s);
            });
        }
        ha.install_epoch(3);
        for &k in &keys {
            ha.push(k, &mut |s, _| {
                let old = before[&k];
                assert!(
                    s == old || (old == knw_hash::rng::split_parent(2) && s == 2),
                    "key {k} jumped {old} -> {s} on a 2 -> 3 grow"
                );
            });
        }
    }

    #[test]
    #[should_panic(expected = "flushed batcher")]
    fn install_epoch_refuses_pending_updates() {
        let mut b: ShardBatcher<u64> = ShardBatcher::new(RoutingPolicy::RoundRobin, 2, 8);
        b.push(1, &mut |_, _| {});
        b.install_epoch(4);
    }

    #[test]
    fn turnstile_updates_route_on_the_item() {
        assert_eq!((7u64, -3i64).routing_key(), 7);
        assert_eq!(7u64.routing_key(), 7);
        assert!(<(u64, i64)>::coalescible());
        assert!(!u64::coalescible());
        // Coalescing a turnstile batch sums per item; u64 batches pass through.
        let coalesced = <(u64, i64)>::coalesce_batch(&[(1, 2), (1, 3), (2, 1), (2, -1)]);
        assert_eq!(coalesced, vec![(1, 5)]);
        assert_eq!(u64::coalesce_batch(&[5, 5, 6]), vec![5, 5, 6]);
    }

    #[test]
    fn keyed_store_updates_route_on_the_store_key() {
        // Keyed F0 and turnstile updates co-locate by store key, not item.
        assert_eq!((9u64, 1234u64).routing_key(), 9);
        assert_eq!((9u64, 1234u64, -2i64).routing_key(), 9);
        assert!(!<(u64, u64)>::coalescible());
        assert!(<(u64, u64, i64)>::coalescible());
        // Keyed turnstile coalescing sums per (key, item) pair but keeps
        // cancelled pairs (the store's touched-set promotion trigger).
        let coalesced = <(u64, u64, i64)>::coalesce_batch(&[(1, 7, 2), (1, 7, -2), (2, 7, 3)]);
        assert_eq!(coalesced, vec![(1, 7, 0), (2, 7, 3)]);
    }
}
