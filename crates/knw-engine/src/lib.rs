//! Sharded batch-ingestion engine over the mergeable KNW sketch contract,
//! generic over the stream's update type.
//!
//! # Insert-only vs turnstile: one engine, two update types
//!
//! The workspace has two families of mergeable sketches, and both compose
//! under stream partitioning for the same algebraic reason in two different
//! guises:
//!
//! * **F0 / insert-only** (`U = u64`): sketch state is an order-independent
//!   function of the *distinct-item set*, and merging takes pointwise maxima
//!   / unions ([`CardinalityEstimator`] + [`MergeableEstimator`]; Section 1
//!   of the paper, "taking unions of streams if there are no deletions").  For
//!   [`KnwF0Sketch`](knw_core::KnwF0Sketch) the merge is bit-exact (the
//!   subsampling base is re-derived from the merged rough estimator).
//! * **L0 / turnstile** (`U = (u64, i64)`, signed `(item, delta)` updates):
//!   sketch state is a *linear* function of the frequency vector (the
//!   Lemma 6 / Lemma 8 counters of the paper), and merging is entrywise
//!   field addition ([`TurnstileEstimator`] + the same merge contract).
//!   Linearity is strictly stronger than union-mergeability: *any* partition
//!   of the update stream — even one that splits a single item's inserts and
//!   deletes across different shards — merges back to the exact
//!   single-stream state.
//!
//! The engine code is oblivious to the difference: it routes fixed-size
//! batches of `U` round-robin to shards and folds the shard sketches with
//! `merge_from`.  The [`ShardSketch<U>`] trait is the seam — blanket
//! implementations map `U = u64` onto
//! [`insert_batch`](CardinalityEstimator::insert_batch) and
//! `U = (u64, i64)` onto
//! [`update_batch`](TurnstileEstimator::update_batch), so every mergeable
//! sketch in the workspace is usable as a shard for its stream model without
//! any engine-specific code.
//!
//! # Architecture
//!
//! ```text
//!        ingest / ingest_batch  (U = u64 or (item, ±delta))
//!                     │
//!              ┌──────▼──────┐   round-robin batches of `batch_size`
//!              │   router    │
//!              └──────┬──────┘
//!        bounded chan │ (batched hand-off)
//!        ┌─────────┬──┴──────┬───────────────┐
//!   ┌────▼───┐ ┌───▼────┐ ┌──▼─────┐   ┌────▼───┐
//!   │ shard 0│ │ shard 1│ │ shard 2│ … │ shard N│   worker threads,
//!   │ sketch │ │ sketch │ │ sketch │   │ sketch │   one sketch each
//!   └────┬───┘ └───┬────┘ └──┬─────┘   └────┬───┘
//!        └─────────┴────┬────┴───────────────┘
//!                `merge_from` fold
//!                       │
//!                  estimate()
//! ```
//!
//! [`ShardedEngine`] (fronted by the [`ShardedF0Engine`] and
//! [`ShardedL0Engine`] aliases) runs N worker threads (std threads +
//! bounded `sync_channel`s) with batched hand-off, for throughput.  Only
//! the routing step runs on the caller's thread; hashing and counter
//! traffic happen on the shard threads.  A worker panic is contained:
//! reporting surfaces [`SketchError::ShardPanicked`] instead of bringing
//! the caller down.  Because the shards merge exactly, the deterministic
//! reference for the engine is one sketch fed the whole stream.
//!
//! # Example
//!
//! ```
//! use knw_core::{F0Config, KnwF0Sketch};
//! use knw_engine::{EngineConfig, ShardedF0Engine};
//!
//! let cfg = F0Config::new(0.1, 1 << 20).with_seed(7);
//! let mut engine = ShardedF0Engine::new(
//!     EngineConfig::new(4),
//!     move |_shard| KnwF0Sketch::new(cfg),
//! );
//! for i in 0..50_000u64 {
//!     engine.insert(i % 10_000);
//! }
//! let estimate = engine.estimate();
//! assert!((estimate - 10_000.0).abs() / 10_000.0 < 0.5);
//! let merged = engine.finish().expect("uniformly seeded shards");
//! assert_eq!(merged.estimate_f0(), estimate);
//! ```
//!
//! The turnstile front looks identical, with signed updates:
//!
//! ```
//! use knw_core::{KnwL0Sketch, L0Config};
//! use knw_engine::{EngineConfig, ShardedL0Engine};
//!
//! let cfg = L0Config::new(0.2, 1 << 16).with_seed(3);
//! let mut engine = ShardedL0Engine::new(
//!     EngineConfig::new(2),
//!     move |_shard| KnwL0Sketch::new(cfg),
//! );
//! for i in 0..500u64 {
//!     engine.update(i, 7);
//! }
//! for i in 0..460u64 {
//!     engine.update(i, -7); // deletions may land on a different shard
//! }
//! let merged = engine.finish().expect("uniformly seeded shards");
//! assert_eq!(merged.estimate_l0(), 40.0); // 40 survivors: the exact regime
//! ```

pub mod routing;
mod sharded;

pub use routing::{BatcherMetrics, Routable, RoutingPolicy, ShardBatcher};
pub use sharded::{ShardedEngine, ShardedF0Engine, ShardedL0Engine};

use knw_core::{
    CardinalityEstimator, MergeableEstimator, SketchError, SpaceUsage, TurnstileEstimator,
};

/// The update type of a shardable stream: a plain item (`u64`, insert-only
/// streams) or a signed `(item, delta)` pair (turnstile streams).
///
/// Blanket-implemented for every `Copy + Send + 'static` type; it exists to
/// keep the engine's signatures readable.
pub trait StreamUpdate: Copy + Send + 'static {}

impl<T: Copy + Send + 'static> StreamUpdate for T {}

/// The bound a sketch must satisfy to serve as a shard for streams of update
/// type `U`: a mergeable estimator of the matching stream model whose
/// instances can be shipped to worker threads and cloned for snapshot reads.
///
/// Blanket-implemented — `U = u64` for every mergeable
/// [`CardinalityEstimator`] (batches route to
/// [`insert_batch`](CardinalityEstimator::insert_batch)) and
/// `U = (u64, i64)` for every mergeable [`TurnstileEstimator`] (batches
/// route to [`update_batch`](TurnstileEstimator::update_batch)).  Never
/// implement it manually.
pub trait ShardSketch<U: StreamUpdate = u64>:
    SpaceUsage + MergeableEstimator<MergeError = SketchError> + Clone + Send + 'static
{
    /// Ingests one hand-off batch.
    fn apply_batch(&mut self, batch: &[U]);

    /// The sketch's current estimate (F0 or L0, per the stream model).
    fn shard_estimate(&self) -> f64;
}

impl<S> ShardSketch<u64> for S
where
    S: CardinalityEstimator + MergeableEstimator<MergeError = SketchError> + Clone + Send + 'static,
{
    fn apply_batch(&mut self, batch: &[u64]) {
        self.insert_batch(batch);
    }

    fn shard_estimate(&self) -> f64 {
        self.estimate()
    }
}

impl<S> ShardSketch<(u64, i64)> for S
where
    S: TurnstileEstimator + MergeableEstimator<MergeError = SketchError> + Clone + Send + 'static,
{
    fn apply_batch(&mut self, batch: &[(u64, i64)]) {
        self.update_batch(batch);
    }

    fn shard_estimate(&self) -> f64 {
        self.estimate()
    }
}

/// Default hand-off batch size (updates per channel message).
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Bounded-channel capacity, in batches, per shard of a [`ShardedEngine`]:
/// bounds memory and applies back-pressure when shards fall behind the
/// router.
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// Sizing and routing knobs shared by [`ShardedEngine`] and the
/// `knw-cluster` multi-process aggregator.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Number of shards (worker threads / worker processes).
    pub shards: usize,
    /// Updates per hand-off batch.  Larger batches amortize channel traffic;
    /// smaller batches reduce snapshot latency.
    pub batch_size: usize,
    /// How batches are assigned to shards (see [`RoutingPolicy`]).
    pub routing: RoutingPolicy,
    /// Whether the router pre-coalesces turnstile batches before hand-off
    /// (sums each item's deltas via [`knw_core::coalesce`], so shards
    /// receive fewer, pre-summed updates).  Exact for every linear sketch;
    /// a no-op for insert-only streams.  Note that shard update *counters*
    /// then count coalesced updates, not raw ones.
    pub precoalesce: bool,
}

impl EngineConfig {
    /// Creates a configuration with the given shard count, the default
    /// batch size and round-robin routing.  A shard count of zero is
    /// clamped to one.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            batch_size: DEFAULT_BATCH_SIZE,
            routing: RoutingPolicy::RoundRobin,
            precoalesce: false,
        }
    }

    /// Sets the shard count (clamped to at least one).  The cluster layer
    /// uses this to keep "one shard per addressed worker" an invariant:
    /// connecting to N socket addresses forces an N-shard configuration.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the hand-off batch size (clamped to at least one update).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the shard-assignment policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Enables or disables router-side pre-coalescing of turnstile batches.
    #[must_use]
    pub fn with_precoalesce(mut self, precoalesce: bool) -> Self {
        self.precoalesce = precoalesce;
        self
    }

    /// Normalizes every field (clamps degenerate values) — the one
    /// definition of "a valid configuration", shared by the in-process
    /// front-end constructors *and* the `knw-cluster` aggregator so the
    /// clamping rules cannot drift between them.
    #[must_use]
    pub fn normalized(self) -> Self {
        Self::new(self.shards)
            .with_batch_size(self.batch_size)
            .with_routing(self.routing)
            .with_precoalesce(self.precoalesce)
    }
}

impl Default for EngineConfig {
    /// One shard per available core (minimum one) and the default batch
    /// size.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(cores)
    }
}

/// Merges an iterator of shard sketches into its first element.
///
/// Shared by the engine's snapshot and finish paths so "how shards are
/// folded" has exactly one definition.  Returns `Ok(None)` only for an empty iterator
/// (callers always have at least one shard).
fn merge_shards<S>(mut shards: impl Iterator<Item = S>) -> Result<Option<S>, SketchError>
where
    S: MergeableEstimator<MergeError = SketchError>,
{
    let Some(mut merged) = shards.next() else {
        return Ok(None);
    };
    for shard in shards {
        merged.merge_from(&shard)?;
    }
    Ok(Some(merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_degenerate_values() {
        let cfg = EngineConfig::new(0).with_batch_size(0);
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.batch_size, 1);
        assert!(EngineConfig::default().shards >= 1);
    }
}
