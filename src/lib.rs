//! Facade crate re-exporting the KNW distinct-elements workspace public API.
//!
//! # Keyed stores
//!
//! [`store::SketchStore`] tracks **millions of per-key sketches under one
//! memory budget** — per-user, per-source-IP, per-page cardinalities rather
//! than one global estimate. Its contract, in brief:
//!
//! * **Promotion.** Every key starts sparse/exact and lazily promotes to a
//!   full KNW sketch once its item set exceeds the configured threshold.
//!   Promotion is a deterministic function of the key's update multiset
//!   (F0: the distinct-item set; L0: the touched-item set, zero nets
//!   included), and per-key sketch seeds derive purely from
//!   `(store seed, route key)` — so any shard partition of a keyed stream
//!   merges back **bit-identical in every per-key estimate** to
//!   single-stream ingestion, including keys that promote at a merge or
//!   post-reload boundary.
//! * **Budget & eviction.** Resident entries are accounted against
//!   `budget_bytes`; over budget, clock second-chance eviction spills cold
//!   keys to a serialized cold tier. Eviction is exact — reload restores
//!   the entry bit-for-bit — and reads decode cold entries transiently.
//! * **Exactness.** Below the promotion threshold per-key estimates are
//!   exact; only genuinely large keys pay sketch error. The identity
//!   guarantee is on estimates (`f64` equality), not serialized bytes (the
//!   sketches carry trajectory-dependent diagnostics counters).
//!
//! Keyed updates route across [`engine::ShardedEngine`] and the cluster via
//! the same `shard_for_key`; store snapshots merge via
//! `to_wire_bytes`/`merge_wire_bytes` or `MergeableEstimator::merge_from`.

pub use knw_baselines as baselines;
/// Distributed aggregation: frame protocol, spec registry, and the
/// pipe/TCP transports (`cluster::transport`) behind
/// `ClusterAggregator::start(&ClusterConfig, …)`.
pub use knw_cluster as cluster;
pub use knw_core as core;
pub use knw_engine as engine;
pub use knw_hash as hash;
/// Observability: the process-wide metrics registry, Prometheus-text
/// exposition, and the `knw_log!` structured logger.
pub use knw_metrics as metrics;
/// Keyed sketch stores: millions of budgeted per-key F0/L0 estimators with
/// lazy promotion, clock eviction to a serialized cold tier, and exact
/// shard-merge (see the crate-level "Keyed stores" section).
pub use knw_store as store;
pub use knw_stream as stream;
pub use knw_vla as vla;
