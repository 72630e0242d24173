//! # knw-store — millions of per-key KNW sketches under one memory budget
//!
//! Production cardinality tracking is *per-key* — distinct destinations per
//! source IP, distinct users per page — not one global sketch. This crate
//! provides [`SketchStore<K, F>`]: a keyed store of tiny per-key F0/L0
//! estimators that scales to millions of keys behind one configurable
//! memory budget.
//!
//! ## Two-tier entries and lazy promotion
//!
//! Every key starts in a **sparse/exact** representation (a sorted item set
//! for F0, sorted `(item, net)` pairs for L0 — the paper's small-F0 regime
//! applied as a storage tier) and **lazily promotes** to a full
//! [`KnwF0Sketch`](knw_core::KnwF0Sketch) /
//! [`KnwL0Sketch`](knw_core::KnwL0Sketch) when its item set exceeds
//! [`promote_threshold`](StoreConfig::promote_threshold). Promotion is a
//! deterministic function of the key's update multiset — never of arrival
//! order, shard placement, or eviction history — and each key's sketch is
//! seeded by a pure function of `(store seed, route key)`. Consequences:
//!
//! * splitting a keyed stream across N stores (by
//!   [`shard_for_key`](knw_hash::rng::shard_for_key) or any other
//!   key-stable rule) and merging them back gives **bit-identical per-key
//!   estimates** to single-stream ingestion — including keys whose
//!   promotion happens *at the merge boundary* (both sides sparse, union
//!   past the threshold) or after an evict/reload round-trip;
//! * estimates below the threshold are **exact**, so the store only pays
//!   sketch error for keys that actually have large cardinalities.
//!
//! The identity contract is on *estimates* (`f64` equality), not serialized
//! bytes: the sketches carry trajectory-dependent diagnostics counters
//! (never read by any estimate) that differ between deduplicated and raw
//! replay histories. See [`family`] for the full contract.
//!
//! ## Budgeted residency and the cold tier
//!
//! Every key owns one slot for life, found through a hash index; the slot
//! holds either the resident entry or, once evicted, its serialized bytes
//! (the **cold tier** — the serde-shim wire encoding is the spill format).
//! The store accounts an approximate footprint for every resident entry;
//! when the total exceeds [`budget_bytes`](StoreConfig::budget_bytes) at
//! the end of a mutation it evicts cold keys (clock second-chance over a
//! ring of resident slots), swapping each slot to its bytes in place; a
//! touch swaps it back. Eviction is exact: reload reconstructs the entry
//! bit-for-bit, so evict → reload → continue never perturbs an estimate.
//! Reads ([`estimate`](SketchStore::estimate),
//! [`for_each_estimate`](SketchStore::for_each_estimate)) decode cold
//! entries transiently without touching residency. The hash index never
//! orders anything: batches apply their key runs in ascending key order,
//! and walks (estimates, wire snapshots, merges) sort the keys first, so
//! eviction choices, wire bytes and estimate sums are deterministic.
//!
//! ## Batch ingest and sharding
//!
//! [`ingest_batch`](SketchStore::ingest_batch) groups a batch by key before
//! touching any entry — the same coalescing trick the engines use, one
//! level up — so a batch with heavy key repetition costs one index lookup
//! per distinct key, and a promoted key's run reaches its sketch as one
//! batched call. Keyed updates `(key, item)` / `(key, item, delta)`
//! implement `knw_engine::Routable`, and the store itself implements
//! `ShardSketch`, so a `ShardedEngine` of per-shard stores routes keyed
//! streams with the shared `shard_for_key` and merges exactly; store
//! snapshots travel as [`to_wire_bytes`](SketchStore::to_wire_bytes) /
//! [`merge_wire_bytes`](SketchStore::merge_wire_bytes) blobs, and
//! [`DynMergeableStore`] gives the type-erased merge used by heterogeneous
//! shard sets.
//!
//! ## Observability
//!
//! [`with_metrics`](SketchStore::with_metrics) registers per-store gauges
//! (resident/cold keys and bytes, budget high-water) and counters
//! (promotions, evictions, reloads) in a `knw_metrics::MetricsRegistry`,
//! labeled by store name.

pub mod family;
pub mod key;
pub mod store;

pub use family::{F0Entry, F0Family, L0Entry, L0Family, SketchFamily};
pub use key::StoreKey;
pub use store::{
    DynMergeableStore, SketchStore, StoreConfig, StoreMetrics, StoreStats, DEFAULT_BUDGET_BYTES,
    DEFAULT_PROMOTE_THRESHOLD, STORE_WIRE_MAGIC,
};

use knw_engine::ShardSketch;

/// A keyed store of per-key F0 (distinct count) sketches.
pub type F0SketchStore<K> = SketchStore<K, F0Family>;

/// A keyed store of per-key L0 (turnstile support) sketches.
pub type L0SketchStore<K> = SketchStore<K, L0Family>;

/// A `u64`-keyed F0 store is itself a shard sketch over `(key, item)`
/// updates: a `ShardedEngine` of per-shard stores ingests keyed streams
/// and merges exactly.
impl ShardSketch<(u64, u64)> for F0SketchStore<u64> {
    fn apply_batch(&mut self, batch: &[(u64, u64)]) {
        self.ingest_batch(batch);
    }

    fn shard_estimate(&self) -> f64 {
        self.estimate_total()
    }
}

/// A `u64`-keyed L0 store is a shard sketch over `(key, item, delta)`
/// updates.
impl ShardSketch<(u64, u64, i64)> for L0SketchStore<u64> {
    fn apply_batch(&mut self, batch: &[(u64, u64, i64)]) {
        self.ingest_grouped(batch, |u| &u.0, |&(_, item, delta)| (item, delta));
    }

    fn shard_estimate(&self) -> f64 {
        self.estimate_total()
    }
}
