//! Layer probes of traced runs: each times one layer's public entry point
//! over the workload's own inputs, after the timed phase.

use crate::stats;
use knw_cluster::{encode_frame, ClusterUpdate, Frame, FrameDecoder};
use knw_core::coalesce_updates;
use knw_engine::{Routable, RoutingPolicy, ShardBatcher};
use knw_hash::rng::Xoshiro256StarStar;
use knw_hash::{PairwiseHash, LANES};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median over `reps` timings of `f`, in microseconds.  `f` times its own
/// measured section, so set-up it needs per repetition stays outside.
pub fn median_us(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e6).collect();
    stats::median(&samples).expect("at least one repetition")
}

/// `PairwiseHash::hash_full_batch` over `items`, ns per item.
pub fn pairwise_hash_ns(items: &[u64], range: u64, seed: u64) -> f64 {
    let hash = PairwiseHash::random(range, &mut Xoshiro256StarStar::new(seed));
    let start = Instant::now();
    let mut acc = 0u64;
    for chunk in items.chunks_exact(LANES) {
        let lanes: &[u64; LANES] = chunk.try_into().expect("exact chunk");
        acc ^= hash.hash_full_batch(black_box(lanes))[0];
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (items.len() / LANES * LANES).max(1) as f64
}

/// `ShardBatcher::extend_from_slice` + `flush` into a dispatch that drops
/// each batch, ns per update.
pub fn route_ns<U: Routable>(updates: &[U], policy: RoutingPolicy, shards: usize) -> f64 {
    let mut batcher = ShardBatcher::<U>::new(policy, shards, knw_engine::DEFAULT_BATCH_SIZE);
    let mut dispatched = 0usize;
    let mut dispatch = |shard: usize, batch: Vec<U>| {
        dispatched += shard + black_box(batch).len();
    };
    let start = Instant::now();
    batcher.extend_from_slice(updates, &mut dispatch);
    batcher.flush(&mut dispatch);
    let ns = start.elapsed().as_nanos() as f64;
    black_box(dispatched);
    ns / updates.len().max(1) as f64
}

/// `encode_frame` of every `batch`-sized chunk as a `Batch` frame, then
/// `FrameDecoder::push` + `next_view` of the encoded frames: (encode,
/// decode) ns per update.  Payload vectors are built outside the timing.
pub fn frame_ns<U: ClusterUpdate>(updates: &[U], batch: usize) -> (f64, f64) {
    let mut encode_ns = 0u128;
    let mut frames = Vec::new();
    for chunk in updates.chunks(batch) {
        let frame = Frame::Batch(U::payload(chunk.to_vec()));
        let start = Instant::now();
        let bytes = encode_frame(black_box(&frame)).expect("batch frames encode");
        encode_ns += start.elapsed().as_nanos();
        frames.push(bytes);
    }
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    let start = Instant::now();
    for bytes in &frames {
        decoder.push(bytes);
        let view = decoder
            .next_view()
            .expect("frames this benchmark encoded decode")
            .expect("one whole frame was pushed");
        decoded += U::batch_view(&view).map_or(0, <[U]>::len);
    }
    let decode_ns = start.elapsed().as_nanos();
    assert_eq!(decoded, updates.len(), "every batch decodes back");
    let per = |ns: u128| ns as f64 / updates.len().max(1) as f64;
    (per(encode_ns), per(decode_ns))
}

/// `coalesce_updates` on each `batch`-sized chunk: (ns per input update,
/// output updates per input update).
pub fn coalesce(updates: &[(u64, i64)], batch: usize) -> (f64, f64) {
    let mut out = 0usize;
    let start = Instant::now();
    for chunk in updates.chunks(batch) {
        out += coalesce_updates(black_box(chunk)).len();
    }
    let ns = start.elapsed().as_nanos() as f64;
    let n = updates.len().max(1) as f64;
    (ns / n, out as f64 / n)
}

/// Merge of two shards given as wire bytes (decoded afresh, outside the
/// timing, for each of `reps` repetitions), median microseconds.
pub fn merge_us<U: ClusterUpdate>(
    spec: &knw_cluster::SketchSpec,
    a: &[u8],
    b: &[u8],
    reps: usize,
) -> Result<f64, String> {
    let mut failure = None;
    let us = median_us(reps, || {
        let (Ok(mut into), Ok(other)) =
            (U::shard_from_bytes(spec, a), U::shard_from_bytes(spec, b))
        else {
            failure = Some("shard bytes do not decode".to_string());
            return Duration::ZERO;
        };
        let start = Instant::now();
        let merged = U::merge(&mut *into, &*other);
        let elapsed = start.elapsed();
        if let Err(e) = merged {
            failure = Some(e.to_string());
        }
        elapsed
    });
    failure.map_or(Ok(us), Err)
}

/// Shard encode (`shard_bytes`) and decode (`shard_from_bytes`) of
/// `shard`, median microseconds each.
pub fn codec_us<U: ClusterUpdate>(
    spec: &knw_cluster::SketchSpec,
    shard: &U::Shard,
    reps: usize,
) -> Result<(f64, f64), String> {
    let bytes = U::shard_bytes(shard);
    let encode = median_us(reps, || {
        let start = Instant::now();
        black_box(U::shard_bytes(black_box(shard)));
        start.elapsed()
    });
    let mut failure = None;
    let decode = median_us(reps, || {
        let start = Instant::now();
        let decoded = U::shard_from_bytes(spec, black_box(&bytes));
        let elapsed = start.elapsed();
        if let Err(e) = decoded {
            failure = Some(e);
        }
        elapsed
    });
    failure.map_or(Ok((encode, decode)), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_cover_their_inputs() {
        let items: Vec<u64> = (0..10_000).collect();
        assert!(pairwise_hash_ns(&items, 1 << 24, 7) > 0.0);
        assert!(route_ns(&items, RoutingPolicy::RoundRobin, 2) > 0.0);
        let (encode, decode) = frame_ns(&items, 1024);
        assert!(encode > 0.0 && decode > 0.0);
        let updates = vec![(1u64, 2i64), (1, -2), (3, 1), (3, 1)];
        let (ns, ratio) = coalesce(&updates, 4);
        assert!(ns > 0.0);
        assert_eq!(ratio, 0.25, "one surviving item out of four updates");
    }
}
