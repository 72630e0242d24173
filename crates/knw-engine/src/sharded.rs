//! The threaded sharded ingestion engine, generic over the update type.

use crate::routing::{BatcherMetrics, Routable, ShardBatcher};
use crate::{merge_shards, EngineConfig, ShardSketch, DEFAULT_QUEUE_DEPTH};
use knw_core::SketchError;
use knw_metrics::Counter;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Messages on the router → shard channels.  Channel order is FIFO, so a
/// snapshot request observes every batch sent before it.
enum ShardMsg<S, U> {
    /// A batch of stream updates to ingest.
    Batch(Vec<U>),
    /// Request a clone of the shard's current sketch.
    Snapshot(SyncSender<S>),
}

struct Worker<S, U> {
    tx: SyncSender<ShardMsg<S, U>>,
    handle: JoinHandle<S>,
}

/// A sharded, batched ingestion engine: the stream is partitioned
/// round-robin in batches across N worker threads, each owning one sketch;
/// reporting merges the shard sketches (see the [crate docs](crate) for the
/// architecture and why any partition is valid for both stream models).
///
/// The update type `U` selects the stream model: `u64` for insert-only F0
/// streams (alias [`ShardedF0Engine`]), `(u64, i64)` for signed turnstile
/// updates (alias [`ShardedL0Engine`]).  Estimates are exact with respect to
/// a sequential run for every sketch in this workspace: `engine.estimate()`
/// equals the estimate of one sketch fed the whole stream, which is the
/// engine's deterministic reference.
///
/// If a shard worker panics (a bug in a sketch, not an expected event), the
/// engine stays usable for shutdown but reporting returns
/// [`SketchError::ShardPanicked`]: a lost shard means the merged estimate
/// would silently undercount, so it must not be produced.
///
/// Dropping the engine without calling [`finish`](Self::finish) shuts the
/// workers down and discards their sketches.
pub struct ShardedEngine<S, U = u64>
where
    S: ShardSketch<U>,
    U: Routable,
{
    workers: Vec<Worker<S, U>>,
    batcher: ShardBatcher<U>,
    precoalesce: bool,
    updates: u64,
    /// Index of the first shard observed dead (its channel disconnected),
    /// i.e. its worker panicked.
    poisoned: Option<usize>,
    /// Updates removed by router-side pre-coalescing
    /// (`knw_engine_coalesced_updates_total` in the global registry).
    coalesced: Arc<Counter>,
}

/// The insert-only (F0) front of [`ShardedEngine`]: items are `u64` stream
/// indices, shards ingest through `insert_batch`.
pub type ShardedF0Engine<S> = ShardedEngine<S, u64>;

/// The turnstile (L0) front of [`ShardedEngine`]: updates are signed
/// `(item, delta)` pairs, shards ingest through `update_batch`.  Because the
/// L0 sketch state is linear, *any* routing of updates to shards — including
/// splitting one item's inserts and deletes across shards — merges back to
/// the exact single-stream state.
pub type ShardedL0Engine<S> = ShardedEngine<S, (u64, i64)>;

impl<S, U> ShardedEngine<S, U>
where
    S: ShardSketch<U>,
    U: Routable,
{
    /// Spawns `config.shards` worker threads, each owning one sketch built by
    /// `factory`.
    ///
    /// The factory receives the shard index; it must produce sketches with
    /// identical configuration and seeds, otherwise reporting fails with the
    /// sketch's merge error.
    pub fn new(config: EngineConfig, mut factory: impl FnMut(usize) -> S) -> Self {
        let config = config.normalized();
        let workers = (0..config.shards)
            .map(|shard| {
                let mut sketch = factory(shard);
                let (tx, rx) = sync_channel::<ShardMsg<S, U>>(DEFAULT_QUEUE_DEPTH);
                let handle = std::thread::Builder::new()
                    .name(format!("knw-shard-{shard}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                ShardMsg::Batch(batch) => sketch.apply_batch(&batch),
                                ShardMsg::Snapshot(reply) => {
                                    // The engine may have been dropped while a
                                    // snapshot was in flight; ignore send
                                    // failures.
                                    let _ = reply.send(sketch.clone());
                                }
                            }
                        }
                        sketch
                    })
                    .expect("failed to spawn shard worker thread");
                Worker { tx, handle }
            })
            .collect();
        let registry = knw_metrics::global();
        Self {
            workers,
            batcher: ShardBatcher::new(config.routing, config.shards, config.batch_size)
                .with_metrics(BatcherMetrics::register(
                    registry,
                    "knw_engine",
                    config.shards,
                )),
            precoalesce: config.precoalesce && U::coalescible(),
            updates: 0,
            poisoned: None,
            coalesced: registry.counter("knw_engine_coalesced_updates_total", &[]),
        }
    }

    /// Routes one update (buffered; sent to a shard once a batch fills up).
    pub fn ingest(&mut self, update: U) {
        self.updates += 1;
        let (workers, poisoned) = (&self.workers, &mut self.poisoned);
        self.batcher.push(update, &mut |shard, batch| {
            Self::send_batch(workers, poisoned, shard, batch);
        });
    }

    /// Routes a slice of updates, bulk-copying into the hand-off buffer chunk
    /// by chunk (the routing thread is the engine's one serial stage, so it
    /// does memcpys, not per-update pushes).  With pre-coalescing enabled,
    /// turnstile batches are first collapsed to per-item delta sums
    /// ([`knw_core::coalesce`]) so shards receive fewer, pre-summed updates
    /// — exact for every linear sketch, and it restores the coalescing
    /// window the shard split would otherwise dilute.
    pub fn ingest_batch(&mut self, updates: &[U]) {
        self.updates += updates.len() as u64;
        let (workers, poisoned) = (&self.workers, &mut self.poisoned);
        let mut dispatch = |shard: usize, batch: Vec<U>| {
            Self::send_batch(workers, poisoned, shard, batch);
        };
        if self.precoalesce {
            let coalesced = U::coalesce_batch(updates);
            self.coalesced.add((updates.len() - coalesced.len()) as u64);
            self.batcher.extend_from_slice(&coalesced, &mut dispatch);
        } else {
            self.batcher.extend_from_slice(updates, &mut dispatch);
        }
    }

    /// Sends the (possibly partial) pending batch to the next shard.
    pub fn flush(&mut self) {
        let (workers, poisoned) = (&self.workers, &mut self.poisoned);
        self.batcher.flush(&mut |shard, batch| {
            Self::send_batch(workers, poisoned, shard, batch);
        });
    }

    fn send_batch(
        workers: &[Worker<S, U>],
        poisoned: &mut Option<usize>,
        shard: usize,
        batch: Vec<U>,
    ) {
        if workers[shard].tx.send(ShardMsg::Batch(batch)).is_err() {
            // The worker's receiver is gone, which only happens when the
            // worker panicked.  Remember the shard; reporting will refuse.
            poisoned.get_or_insert(shard);
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.workers.len()
    }

    /// The hand-off batch size.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.batcher.batch_size()
    }

    /// Total updates routed so far.
    #[must_use]
    pub fn items_ingested(&self) -> u64 {
        self.updates
    }

    /// Flushes pending updates and returns a merged snapshot of all shard
    /// sketches — a sketch summarizing every update ingested so far.  The
    /// engine keeps running; this is the paper's midstream "reporting".
    ///
    /// # Errors
    ///
    /// Propagates the sketch's merge error if the factory produced
    /// incompatible shards, or [`SketchError::ShardPanicked`] if a worker
    /// thread died.
    pub fn snapshot(&mut self) -> Result<S, SketchError> {
        self.flush();
        if let Some(shard) = self.poisoned {
            return Err(SketchError::ShardPanicked { shard });
        }
        // Fan the snapshot requests out to every shard before collecting any
        // reply, so the shards drain their queues and clone concurrently;
        // snapshot latency is then the slowest shard's, not the sum.
        let mut replies = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.iter().enumerate() {
            let (reply_tx, reply_rx) = sync_channel(1);
            if worker.tx.send(ShardMsg::Snapshot(reply_tx)).is_err() {
                self.poisoned.get_or_insert(shard);
                return Err(SketchError::ShardPanicked { shard });
            }
            replies.push(reply_rx);
        }
        let mut snapshots: Vec<S> = Vec::with_capacity(replies.len());
        for (shard, reply_rx) in replies.into_iter().enumerate() {
            match reply_rx.recv() {
                Ok(snapshot) => snapshots.push(snapshot),
                Err(_) => {
                    self.poisoned.get_or_insert(shard);
                    return Err(SketchError::ShardPanicked { shard });
                }
            }
        }
        Ok(merge_shards(snapshots.into_iter())?.expect("engine always has at least one shard"))
    }

    /// Flushes, snapshots and reports the current estimate.
    ///
    /// # Panics
    ///
    /// Panics if the factory produced shards with mismatched configurations
    /// or seeds, or if a worker thread died (use [`snapshot`](Self::snapshot)
    /// to handle those as errors).
    pub fn estimate(&mut self) -> f64 {
        self.snapshot()
            .expect("shards share configuration and seed")
            .shard_estimate()
    }

    /// Shuts down the workers and returns the merged sketch of the whole
    /// stream.
    ///
    /// # Errors
    ///
    /// Propagates the sketch's merge error if the factory produced
    /// incompatible shards, or [`SketchError::ShardPanicked`] if a worker
    /// thread died (the lost shard's updates cannot be recovered, so no
    /// merged sketch is produced).
    pub fn finish(mut self) -> Result<S, SketchError> {
        self.flush();
        let poisoned = self.poisoned;
        let workers = std::mem::take(&mut self.workers);
        let mut shards: Vec<S> = Vec::with_capacity(workers.len());
        let mut first_panicked = poisoned;
        for (shard, worker) in workers.into_iter().enumerate() {
            // Dropping the sender closes the channel; a healthy worker then
            // returns its sketch.
            drop(worker.tx);
            match worker.handle.join() {
                Ok(sketch) => shards.push(sketch),
                Err(_) => {
                    first_panicked.get_or_insert(shard);
                }
            }
        }
        if let Some(shard) = first_panicked {
            return Err(SketchError::ShardPanicked { shard });
        }
        Ok(merge_shards(shards.into_iter())?.expect("engine always has at least one shard"))
    }
}

impl<S: ShardSketch<u64>> ShardedEngine<S, u64> {
    /// Routes one stream item (insert-only convenience for
    /// [`ingest`](Self::ingest)).
    pub fn insert(&mut self, item: u64) {
        self.ingest(item);
    }

    /// Routes a slice of stream items (insert-only convenience for
    /// [`ingest_batch`](Self::ingest_batch)).
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.ingest_batch(items);
    }
}

impl<S: ShardSketch<(u64, i64)>> ShardedEngine<S, (u64, i64)> {
    /// Routes one turnstile update `x_item ← x_item + delta` (convenience
    /// for [`ingest`](Self::ingest)).
    pub fn update(&mut self, item: u64, delta: i64) {
        self.ingest((item, delta));
    }

    /// Routes a slice of turnstile updates (convenience for
    /// [`ingest_batch`](Self::ingest_batch)).
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        self.ingest_batch(updates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingPolicy;
    use knw_core::{F0Config, KnwF0Sketch, KnwL0Sketch, L0Config};

    fn stream(len: u64) -> Vec<u64> {
        (0..len)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) % (1 << 20))
            .collect()
    }

    fn signed_stream(len: u64) -> Vec<(u64, i64)> {
        (0..len)
            .map(|i| {
                let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
                (x % (1 << 16), (x % 9) as i64 - 4)
            })
            .collect()
    }

    #[test]
    fn four_shards_match_a_single_sketch_exactly() {
        let cfg = F0Config::new(0.05, 1 << 20).with_seed(42);
        let mut engine =
            ShardedF0Engine::new(EngineConfig::new(4).with_batch_size(1024), move |_| {
                KnwF0Sketch::new(cfg)
            });
        let mut single = KnwF0Sketch::new(cfg);
        let items = stream(100_000);
        engine.insert_batch(&items);
        single.insert_batch(&items);
        assert_eq!(engine.estimate(), single.estimate_f0());
        let merged = engine.finish().expect("compatible shards");
        assert_eq!(merged.estimate_f0(), single.estimate_f0());
        assert_eq!(merged.base_level(), single.base_level());
        assert_eq!(merged.occupancy(), single.occupancy());
        assert_eq!(merged.updates_processed(), single.updates_processed());
    }

    #[test]
    fn l0_engine_matches_a_single_sketch_exactly() {
        let cfg = L0Config::new(0.1, 1 << 16)
            .with_seed(19)
            .with_stream_length_bound(1 << 24)
            .with_update_magnitude_bound(1 << 10);
        let mut engine =
            ShardedL0Engine::new(EngineConfig::new(4).with_batch_size(512), move |_| {
                KnwL0Sketch::new(cfg)
            });
        let mut single = KnwL0Sketch::new(cfg);
        let updates = signed_stream(60_000);
        engine.update_batch(&updates);
        single.update_batch(&updates);
        assert_eq!(engine.estimate(), single.estimate_l0());
        let merged = engine.finish().expect("compatible shards");
        assert_eq!(merged.estimate_l0(), single.estimate_l0());
        assert_eq!(
            merged.matrix().total_nonzero(),
            single.matrix().total_nonzero()
        );
        assert_eq!(merged.updates_processed(), single.updates_processed());
    }

    /// Shard count and routing policy never change the answer: every
    /// engine, fed in chunks that straddle its batches, reports the single
    /// sketch's estimate.
    #[test]
    fn shard_count_does_not_change_the_answer() {
        let cfg = F0Config::new(0.1, 1 << 18).with_seed(5);
        let items = stream(25_000);
        let mut single = KnwF0Sketch::new(cfg);
        single.insert_batch(&items);
        for shards in [1usize, 2, 3, 8] {
            for routing in [
                RoutingPolicy::RoundRobin,
                RoutingPolicy::HashAffine { seed: 5 },
            ] {
                let config = EngineConfig::new(shards)
                    .with_batch_size(100)
                    .with_routing(routing);
                let mut engine = ShardedF0Engine::new(config, move |_| KnwF0Sketch::new(cfg));
                for chunk in items.chunks(997) {
                    engine.insert_batch(chunk);
                }
                assert_eq!(engine.estimate(), single.estimate_f0(), "{config:?}");
                let merged = engine.finish().expect("compatible shards");
                assert_eq!(merged.occupancy(), single.occupancy(), "{config:?}");
            }
        }
    }

    /// The threaded engine agrees with a sequential router: the same
    /// `ShardBatcher` feeding per-shard sketches in the calling thread, then
    /// merged.
    #[test]
    fn engine_matches_the_sequential_router() {
        let cfg = F0Config::new(0.1, 1 << 18).with_seed(5);
        let config = EngineConfig::new(3).with_batch_size(100);
        let mut engine = ShardedF0Engine::new(config, move |_| KnwF0Sketch::new(cfg));
        let mut batcher = ShardBatcher::new(config.routing, config.shards, config.batch_size);
        let mut shards: Vec<KnwF0Sketch> =
            (0..config.shards).map(|_| KnwF0Sketch::new(cfg)).collect();
        let mut dispatch = |shard: usize, batch: Vec<u64>| shards[shard].insert_batch(&batch);
        let items = stream(25_000);
        for chunk in items.chunks(997) {
            engine.insert_batch(chunk);
            batcher.extend_from_slice(chunk, &mut dispatch);
        }
        batcher.flush(&mut dispatch);
        let from_router = merge_shards(shards.into_iter())
            .expect("compatible shards")
            .expect("three shards");
        assert_eq!(engine.estimate(), from_router.estimate_f0());
        let from_engine = engine.finish().expect("compatible shards");
        assert_eq!(from_engine.estimate_f0(), from_router.estimate_f0());
        assert_eq!(from_engine.occupancy(), from_router.occupancy());
    }

    #[test]
    fn l0_chunked_ingest_matches_a_single_sketch() {
        let cfg = L0Config::new(0.2, 1 << 14).with_seed(23);
        let config = EngineConfig::new(3).with_batch_size(128);
        let mut engine = ShardedL0Engine::new(config, move |_| KnwL0Sketch::new(cfg));
        let mut single = KnwL0Sketch::new(cfg);
        let updates = signed_stream(20_000);
        for chunk in updates.chunks(731) {
            engine.update_batch(chunk);
        }
        single.update_batch(&updates);
        let merged = engine.finish().expect("compatible shards");
        assert_eq!(merged.estimate_l0(), single.estimate_l0());
    }

    #[test]
    fn midstream_snapshots_track_the_stream() {
        let cfg = F0Config::new(0.1, 1 << 20).with_seed(8);
        let mut engine = ShardedF0Engine::new(EngineConfig::new(2), move |_| KnwF0Sketch::new(cfg));
        let mut single = KnwF0Sketch::new(cfg);
        for (round, chunk) in stream(40_000).chunks(10_000).enumerate() {
            engine.insert_batch(chunk);
            single.insert_batch(chunk);
            assert_eq!(
                engine.estimate(),
                single.estimate_f0(),
                "snapshot diverged in round {round}"
            );
        }
        assert_eq!(engine.items_ingested(), 40_000);
    }

    #[test]
    fn incompatible_shards_surface_the_merge_error() {
        let mut engine = ShardedF0Engine::new(EngineConfig::new(2), |shard| {
            KnwF0Sketch::new(F0Config::new(0.2, 1 << 12).with_seed(shard as u64))
        });
        engine.insert_batch(&stream(10));
        assert_eq!(engine.snapshot().unwrap_err(), SketchError::SeedMismatch);
    }

    #[test]
    fn dropping_without_finish_is_clean() {
        let cfg = F0Config::new(0.2, 1 << 12).with_seed(1);
        let mut engine = ShardedF0Engine::new(EngineConfig::new(2), move |_| KnwF0Sketch::new(cfg));
        engine.insert_batch(&stream(1_000));
        drop(engine);
    }
}
