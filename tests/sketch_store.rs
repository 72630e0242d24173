//! End-to-end tests of the keyed sketch store: exactness against a brute
//! baseline, batch-ingest grouping, budget/eviction churn, cold-tier
//! round-trips, and — the core contract — bit-identical per-key estimates
//! between a single store and a 4-way sharded run merged back, including
//! keys whose promotion happens at a shard-merge or post-reload boundary.

use std::collections::{BTreeMap, BTreeSet};

use knw::core::{F0Config, L0Config, MergeableEstimator, SketchError};
use knw::engine::{EngineConfig, RoutingPolicy, ShardedEngine};
use knw::hash::rng::{shard_for_key, Rng64, SplitMix64};
use knw::metrics::MetricsRegistry;
use knw::store::{
    DynMergeableStore, F0Family, F0SketchStore, L0SketchStore, SketchStore, StoreConfig, StoreStats,
};
use knw::stream::{StreamGenerator, ZipfGenerator};
use proptest::prelude::*;

const UNIVERSE: u64 = 1 << 20;
const SEED: u64 = 42;

fn f0_store_config(threshold: usize, budget: usize) -> StoreConfig<F0Config> {
    StoreConfig::new(F0Config::new(0.25, UNIVERSE))
        .with_promote_threshold(threshold)
        .with_budget_bytes(budget)
        .with_seed(SEED)
}

fn l0_store_config(threshold: usize, budget: usize) -> StoreConfig<L0Config> {
    StoreConfig::new(L0Config::new(0.25, UNIVERSE))
        .with_promote_threshold(threshold)
        .with_budget_bytes(budget)
        .with_seed(SEED)
}

/// A keyed F0 stream with wildly skewed per-key fan-out: key `k` sees
/// `fanout(k)` distinct items plus heavy duplication, so some keys stay
/// sparse, some land exactly at the threshold, and some promote.
fn keyed_f0_stream(keys: u64, len: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let key = rng.next_u64() % keys;
            // Fan-out grows with the key index: key 0 has 1 distinct item,
            // the last key ~4× the typical promote threshold.
            let fanout = 1 + key * 32 / keys.max(1) + key / 3;
            let item = rng.next_u64() % (fanout + 1);
            (key, key * 10_000 + item)
        })
        .collect()
}

/// A keyed turnstile stream including insert-then-delete churn. Promoted
/// L0 sketches are megabytes each (their recovery structures dominate), so
/// the stream is built to promote exactly the three `hot` keys: every
/// other key touches at most 6 items, while each hot key touches 20 —
/// over the threshold of 16 in union, but at most 8 per round-robin shard,
/// so in a 4-way split the hot keys promote only *at the merge*.
const L0_THRESHOLD: usize = 16;
const L0_HOT_KEYS: [u64; 3] = [1_000, 1_001, 1_002];

fn keyed_l0_stream(seed: u64) -> Vec<(u64, (u64, i64))> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for key in 0..30u64 {
        for _ in 0..8 {
            let item = key * 10_000 + rng.next_u64() % 6;
            let delta = 1 + (rng.next_u64() % 3) as i64;
            out.push((key, (item, delta)));
            if rng.next_u64().is_multiple_of(3) {
                out.push((key, (item, -delta)));
            }
        }
    }
    for key in L0_HOT_KEYS {
        for item in 0..20u64 {
            out.push((key, (key * 10_000 + item, 2)));
        }
        for item in 0..10u64 {
            out.push((key, (key * 10_000 + item, -2)));
        }
    }
    // Interleave hot and cold traffic deterministically so round-robin
    // sharding spreads every key across all four lanes.
    let mid = out.len() / 2;
    let (front, back) = out.split_at(mid);
    let mut mixed = Vec::with_capacity(out.len());
    for i in 0..mid.max(out.len() - mid) {
        if let Some(&u) = front.get(i) {
            mixed.push(u);
        }
        if let Some(&u) = back.get(i) {
            mixed.push(u);
        }
    }
    mixed
}

/// Asserts two stores agree on every per-key estimate, bit for bit.
fn assert_stores_bit_identical<K, F>(a: &SketchStore<K, F>, b: &SketchStore<K, F>, label: &str)
where
    K: knw::store::StoreKey + std::fmt::Debug,
    F: knw::store::SketchFamily,
{
    assert_eq!(a.len(), b.len(), "{label}: key counts differ");
    let mut a_estimates = Vec::new();
    a.for_each_estimate(|key, est| a_estimates.push((key.clone(), est)));
    for (key, expected) in a_estimates {
        let got = b.estimate(&key);
        assert_eq!(
            got,
            Some(expected),
            "{label}: estimate diverged for key {key:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Exactness and batching
// ---------------------------------------------------------------------------

/// Below the promotion threshold every per-key estimate is exact; above
/// it, the sketch estimate is within the configured accuracy band.
#[test]
fn f0_store_matches_exact_baseline_per_key() {
    let stream = keyed_f0_stream(60, 30_000, 7);
    let mut store = F0SketchStore::<u64>::new(f0_store_config(16, usize::MAX));
    store.ingest_batch(&stream);

    let mut baseline: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for &(key, item) in &stream {
        baseline.entry(key).or_default().insert(item);
    }
    assert_eq!(store.len(), baseline.len());
    let mut promoted = 0u64;
    for (key, truth) in &baseline {
        let estimate = store.estimate(key).expect("tracked key");
        let truth = truth.len() as f64;
        if truth <= 16.0 {
            assert_eq!(estimate, truth, "sparse key {key} must be exact");
        } else {
            promoted += 1;
            let rel = (estimate - truth).abs() / truth;
            assert!(rel < 0.5, "key {key}: estimate {estimate} vs truth {truth}");
        }
    }
    assert!(promoted > 0, "stream produced no promoted keys");
    assert_eq!(store.stats().promotions, promoted);
}

/// One-update-at-a-time, chunked batches, and one giant batch all leave
/// the store in the same observable state (batch ingest groups by key but
/// never changes any entry's final state).
#[test]
fn batch_ingest_is_bit_identical_to_per_update_ingest() {
    let stream = keyed_f0_stream(40, 12_000, 11);
    let config = f0_store_config(8, usize::MAX);

    let mut one_by_one = F0SketchStore::<u64>::new(config);
    for &(key, item) in &stream {
        one_by_one.update(key, item);
    }
    let mut chunked = F0SketchStore::<u64>::new(config);
    for chunk in stream.chunks(97) {
        chunked.ingest_batch(chunk);
    }
    let mut single_batch = F0SketchStore::<u64>::new(config);
    single_batch.ingest_batch(&stream);

    assert_stores_bit_identical(&one_by_one, &chunked, "chunked");
    assert_stores_bit_identical(&one_by_one, &single_batch, "single batch");
    assert_eq!(one_by_one.stats().promotions, chunked.stats().promotions);
    assert_eq!(
        one_by_one.stats().promotions,
        single_batch.stats().promotions
    );
    assert_eq!(
        one_by_one.estimate_total(),
        single_batch.estimate_total(),
        "total estimate must not depend on batching"
    );
}

// ---------------------------------------------------------------------------
// Sharded runs merge bit-identically
// ---------------------------------------------------------------------------

/// The 4-worker contract for F0: partition a keyed stream round-robin by
/// update (so single keys straddle all four stores and promotion happens
/// *at the merge*), run each partition through its own budget-constrained
/// store, ship every store as wire bytes, and merge — per-key estimates
/// are bit-identical to the single-store run.
#[test]
fn four_way_f0_run_merges_bit_identical_to_single_store() {
    let stream = keyed_f0_stream(50, 20_000, 13);
    // Tight budget on the shards: eviction churn is active during the
    // sharded run and must not perturb the merged result.
    let shard_config = f0_store_config(12, 6_000);

    let mut single = F0SketchStore::<u64>::new(f0_store_config(12, usize::MAX));
    single.ingest_batch(&stream);

    let mut shards: Vec<F0SketchStore<u64>> =
        (0..4).map(|_| F0SketchStore::new(shard_config)).collect();
    for (idx, &update) in stream.iter().enumerate() {
        shards[idx % 4].update(update.0, update.1);
    }
    assert!(
        shards.iter().any(|s| s.stats().evictions > 0),
        "budget was meant to force eviction churn during the sharded run"
    );
    // Some keys must cross the promotion threshold only at the merge:
    // sparse on every shard, promoted in the single run.
    let merge_boundary_promotions = {
        let mut sparse_everywhere = 0;
        let mut estimates = Vec::new();
        single.for_each_estimate(|key, est| estimates.push((*key, est)));
        for (key, _) in &estimates {
            let single_promoted = single.stats().promotions > 0
                && shards
                    .iter()
                    .map(|s| s.estimate(key).unwrap_or(0.0))
                    .sum::<f64>()
                    > 12.0;
            let all_shards_sparse = shards
                .iter()
                .all(|s| s.estimate(key).unwrap_or(0.0) <= 12.0);
            if single_promoted && all_shards_sparse {
                sparse_everywhere += 1;
            }
        }
        sparse_everywhere
    };

    // Merge over the wire, as the cluster would ship snapshots.
    let mut merged = F0SketchStore::<u64>::new(f0_store_config(12, usize::MAX));
    for shard in &shards {
        merged
            .merge_wire_bytes(&shard.to_wire_bytes())
            .expect("compatible stores");
    }
    assert_stores_bit_identical(&single, &merged, "wire merge");
    assert!(
        merge_boundary_promotions > 0,
        "no key promoted at the merge boundary; the test stream is too tame"
    );

    // And via the typed merge path.
    let mut typed = F0SketchStore::<u64>::new(f0_store_config(12, usize::MAX));
    for shard in &shards {
        typed.merge_from(shard).expect("compatible stores");
    }
    assert_stores_bit_identical(&single, &typed, "typed merge");
}

/// The same contract for L0, with churn that cancels items to net zero
/// split across shards — the trajectory where a support-based promotion
/// trigger would diverge.
#[test]
fn four_way_l0_run_merges_bit_identical_to_single_store() {
    let stream = keyed_l0_stream(17);
    // Budget sized so sparse cold keys churn through eviction on the
    // shards; the hot keys stay sparse per shard by construction.
    let shard_config = l0_store_config(L0_THRESHOLD, 3_000);

    let mut single = L0SketchStore::<u64>::new(l0_store_config(L0_THRESHOLD, usize::MAX));
    single.ingest_batch(&stream);
    assert_eq!(
        single.stats().promotions,
        L0_HOT_KEYS.len() as u64,
        "exactly the hot keys promote in the single run"
    );

    let mut shards: Vec<L0SketchStore<u64>> =
        (0..4).map(|_| L0SketchStore::new(shard_config)).collect();
    for (idx, &(key, update)) in stream.iter().enumerate() {
        shards[idx % 4].update(key, update);
    }
    assert!(
        shards.iter().any(|s| s.stats().evictions > 0),
        "budget was meant to force eviction churn during the sharded run"
    );
    for shard in &shards {
        assert_eq!(
            shard.stats().promotions,
            0,
            "hot keys must stay sparse per shard so promotion happens at the merge"
        );
    }

    let mut merged = L0SketchStore::<u64>::new(l0_store_config(L0_THRESHOLD, usize::MAX));
    for shard in &shards {
        merged
            .merge_wire_bytes(&shard.to_wire_bytes())
            .expect("compatible stores");
    }
    assert_eq!(
        merged.stats().promotions,
        L0_HOT_KEYS.len() as u64,
        "hot keys promote at the merge boundary"
    );
    assert_stores_bit_identical(&single, &merged, "l0 wire merge");

    // Sanity: the exact tier really reports live support, not touched size.
    let mut truth: BTreeMap<u64, BTreeMap<u64, i64>> = BTreeMap::new();
    for &(key, (item, delta)) in &stream {
        *truth.entry(key).or_default().entry(item).or_insert(0) += delta;
    }
    for (key, nets) in &truth {
        let support = nets.values().filter(|&&net| net != 0).count() as f64;
        let touched = nets.len();
        if touched <= L0_THRESHOLD {
            assert_eq!(merged.estimate(key), Some(support), "sparse key {key}");
        }
    }
    // The hot keys' live support is exactly 10 after cancellation; a
    // promoted L0 sketch recovers small supports exactly.
    for key in L0_HOT_KEYS {
        assert_eq!(single.estimate(&key), merged.estimate(&key));
    }
}

/// A `ShardedEngine` whose shards are budgeted keyed stores (hash-affine
/// on the store key, the shared `shard_for_key`) matches the single-store
/// run after `finish()` merges the shard stores.
#[test]
fn sharded_engine_of_stores_matches_single_store() {
    let stream = keyed_f0_stream(48, 15_000, 19);
    let shard_config = f0_store_config(12, 16_000);

    let mut single = F0SketchStore::<u64>::new(f0_store_config(12, usize::MAX));
    single.ingest_batch(&stream);

    let engine_config = EngineConfig::new(4)
        .with_batch_size(512)
        .with_routing(RoutingPolicy::HashAffine { seed: SEED });
    let mut engine: ShardedEngine<F0SketchStore<u64>, (u64, u64)> =
        ShardedEngine::new(engine_config, |_| F0SketchStore::new(shard_config));
    engine.ingest_batch(&stream);
    let merged = engine.finish().expect("uniformly configured stores");
    assert_stores_bit_identical(&single, &merged, "engine merge");

    // Hash-affine routing really was by store key: replaying the
    // assignment partitions the stream identically.
    let mut by_shard: Vec<F0SketchStore<u64>> =
        (0..4).map(|_| F0SketchStore::new(shard_config)).collect();
    for &(key, item) in &stream {
        by_shard[shard_for_key(SEED, key, 4)].update(key, item);
    }
    let mut reference = F0SketchStore::<u64>::new(f0_store_config(12, usize::MAX));
    for shard in &by_shard {
        reference.merge_from(shard).expect("compatible stores");
    }
    assert_stores_bit_identical(&single, &reference, "by-key partition");
}

// ---------------------------------------------------------------------------
// Eviction exactness
// ---------------------------------------------------------------------------

/// Evict → reload → continue is bit-identical to never evicting, for both
/// families — including a key whose promotion happens *after* a reload.
#[test]
fn eviction_roundtrip_is_exact_including_post_reload_promotion() {
    let threshold = 16usize;
    // The constrained store can hold only a couple of entries at a time.
    let mut constrained = F0SketchStore::<u64>::new(f0_store_config(threshold, 600));
    let mut unconstrained = F0SketchStore::<u64>::new(f0_store_config(threshold, usize::MAX));

    // Phase 1: key 1 accumulates just below the threshold, then a crowd of
    // other keys forces it out to the cold tier.
    for item in 0..14u64 {
        constrained.update(1, item);
        unconstrained.update(1, item);
    }
    for key in 100..140u64 {
        constrained.update(key, key);
        unconstrained.update(key, key);
    }
    assert!(constrained.stats().evictions > 0, "budget never tripped");
    // Phase 2: key 1 returns (reload) and crosses the threshold — the
    // promotion happens on an entry that has been through the cold tier.
    for item in 14..40u64 {
        constrained.update(1, item);
        unconstrained.update(1, item);
    }
    assert!(constrained.stats().reloads > 0, "key was never reloaded");
    assert!(
        matches!(constrained.estimate(&1), Some(est) if est > 0.0),
        "key 1 lost"
    );
    assert_stores_bit_identical(&unconstrained, &constrained, "f0 eviction");
    assert_eq!(constrained.stats().promotions, 1);
    assert_eq!(unconstrained.stats().promotions, 1);

    // Same shape for L0, with deletions riding through the cold tier.
    // Kept tight: a promoted L0 entry is megabytes, so the post-promotion
    // tail is only a few updates.
    let mut l0_constrained = L0SketchStore::<u64>::new(l0_store_config(threshold, 600));
    let mut l0_unconstrained = L0SketchStore::<u64>::new(l0_store_config(threshold, usize::MAX));
    for item in 0..14u64 {
        l0_constrained.update(1, (item, 2));
        l0_unconstrained.update(1, (item, 2));
    }
    for key in 100..140u64 {
        l0_constrained.update(key, (key, 1));
        l0_unconstrained.update(key, (key, 1));
    }
    for item in 0..20u64 {
        let delta = if item < 14 { -2 } else { 3 };
        l0_constrained.update(1, (item, delta));
        l0_unconstrained.update(1, (item, delta));
    }
    assert!(l0_constrained.stats().evictions > 0);
    assert!(l0_constrained.stats().reloads > 0);
    assert_eq!(l0_constrained.stats().promotions, 1);
    assert_eq!(l0_unconstrained.stats().promotions, 1);
    assert_stores_bit_identical(&l0_unconstrained, &l0_constrained, "l0 eviction");
}

/// A seeded Zipf keyed stream: hot keys recur and promote, the long tail
/// stays sparse and cycles through the cold tier under a small budget.
fn zipf_keyed_f0_stream(len: usize, items_per_key: u64, seed: u64) -> Vec<(u64, u64)> {
    let mut keys = ZipfGenerator::new(20_000, 1.05, seed);
    let mut items = SplitMix64::new(seed ^ 0x5eed);
    (0..len)
        .map(|_| (keys.next_item(), items.next_u64() % items_per_key))
        .collect()
}

/// Lifetime counters, then resident/cold key counts and accounted bytes.
fn residency<K: knw::store::StoreKey, F: knw::store::SketchFamily>(
    store: &SketchStore<K, F>,
) -> (StoreStats, [usize; 4]) {
    (
        store.stats(),
        [
            store.resident_len(),
            store.cold_len(),
            store.resident_bytes(),
            store.cold_bytes(),
        ],
    )
}

/// Pins the clock eviction policy: a fixed Zipf stream through a budget
/// that forces eviction, then a typed and a wire merge of a budgeted peer,
/// land on exact promotion, eviction and reload counts, budget high-water,
/// tier sizes and accounted bytes. The expected values were recorded on
/// the `BTreeMap`-tiered store the slot table replaced, before the swap,
/// so they hold the residency policy (ring order, second chance, per-key
/// accounting, eviction at the end of each mutation) to the old behaviour.
#[test]
fn eviction_policy_is_pinned() {
    let stream = zipf_keyed_f0_stream(120_000, 128, 3);
    let mut store = F0SketchStore::<u64>::new(f0_store_config(32, 256 << 10));
    for chunk in stream[..100_000].chunks(1_000) {
        store.ingest_batch(chunk);
    }
    for &(key, item) in &stream[100_000..] {
        store.update(key, item);
    }
    assert_eq!(
        residency(&store),
        (
            StoreStats {
                promotions: 343,
                evictions: 40_867,
                reloads: 32_504,
                budget_high_water: 513_766,
            },
            [284, 8_363, 261_964, 799_600]
        )
    );

    let mut peer = F0SketchStore::<u64>::new(f0_store_config(32, 64 << 10));
    peer.ingest_batch(&zipf_keyed_f0_stream(30_000, 128, 4));
    store.merge_from(&peer).expect("compatible stores");
    store
        .merge_wire_bytes(&peer.to_wire_bytes())
        .expect("compatible stores");
    assert_eq!(
        residency(&store),
        (
            StoreStats {
                promotions: 429,
                evictions: 50_201,
                reloads: 39_506,
                budget_high_water: 1_337_875,
            },
            [1_286, 10_695, 262_024, 1_227_352]
        )
    );
}

/// Half the keys cold or not, `for_each_estimate` walks keys in strictly
/// ascending order, for integer and for string keys alike.
#[test]
fn estimates_walk_in_ascending_key_order_across_tiers() {
    let stream = zipf_keyed_f0_stream(20_000, 512, 5);
    let mut store = F0SketchStore::<u64>::new(f0_store_config(16, 400 << 10));
    for chunk in stream.chunks(500) {
        store.ingest_batch(chunk);
    }
    let cold_share = store.cold_len() as f64 / store.len() as f64;
    assert!(
        (0.3..0.8).contains(&cold_share),
        "cold share {cold_share} should be near half"
    );
    let mut keys = Vec::new();
    store.for_each_estimate(|key, _| keys.push(*key));
    assert_eq!(keys.len(), store.len());
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "u64 walk out of order"
    );

    let mut strings = SketchStore::<String, F0Family>::new(f0_store_config(16, 100 << 10));
    let string_stream: Vec<(String, u64)> = stream
        .iter()
        .map(|&(key, item)| (format!("user:{}", key % 997), item))
        .collect();
    for chunk in string_stream.chunks(500) {
        strings.ingest_batch(chunk);
    }
    assert!(strings.cold_len() > 0 && strings.resident_len() > 0);
    let mut names = Vec::new();
    strings.for_each_estimate(|key, _| names.push(key.clone()));
    assert_eq!(names.len(), strings.len());
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "string walk out of order"
    );
}

/// For keys that all stay sparse, the wire snapshot does not depend on the
/// budget: a store that evicted about half its keys serializes to the same
/// bytes as an unbudgeted one, and the bytes restore every estimate.
#[test]
fn wire_bytes_do_not_depend_on_residency() {
    let stream = zipf_keyed_f0_stream(20_000, 512, 5);
    let mut budgeted = F0SketchStore::<u64>::new(f0_store_config(1_000, 300 << 10));
    let mut unbudgeted = F0SketchStore::<u64>::new(f0_store_config(1_000, usize::MAX));
    for chunk in stream.chunks(500) {
        budgeted.ingest_batch(chunk);
        unbudgeted.ingest_batch(chunk);
    }
    assert_eq!(budgeted.stats().promotions, 0, "every key must stay sparse");
    let cold_share = budgeted.cold_len() as f64 / budgeted.len() as f64;
    assert!(
        (0.3..0.8).contains(&cold_share),
        "cold share {cold_share} should be near half"
    );
    assert_eq!(unbudgeted.cold_len(), 0);
    let bytes = budgeted.to_wire_bytes();
    assert!(bytes == unbudgeted.to_wire_bytes(), "wire bytes differ");

    let restored = F0SketchStore::<u64>::from_wire_bytes(&bytes, 300 << 10).expect("roundtrip");
    assert_stores_bit_identical(&budgeted, &restored, "budgeted roundtrip");
    assert_stores_bit_identical(&restored, &budgeted, "budgeted roundtrip, reversed");
}

/// A store holds a million keys under a ~2 MiB resident budget with
/// eviction active, and spot-checked estimates stay exact.
#[test]
fn a_million_keys_fit_under_a_small_budget() {
    const KEYS: u64 = 1_000_000;
    const BUDGET: usize = 2 << 20;
    let mut store = F0SketchStore::<u64>::new(f0_store_config(64, BUDGET));
    let mut batch = Vec::with_capacity(10_000);
    for chunk_start in (0..KEYS).step_by(10_000) {
        batch.clear();
        for key in chunk_start..(chunk_start + 10_000).min(KEYS) {
            // One item per key, two for keys divisible by 97.
            batch.push((key, key ^ 0xABCD));
            if key.is_multiple_of(97) {
                batch.push((key, key ^ 0xDCBA));
            }
        }
        store.ingest_batch(&batch);
    }
    assert_eq!(store.len() as u64, KEYS);
    assert!(
        store.resident_bytes() <= BUDGET,
        "resident {} over budget {BUDGET}",
        store.resident_bytes()
    );
    assert!(store.stats().evictions > 0, "eviction never engaged");
    assert!(
        store.stats().budget_high_water >= store.resident_bytes(),
        "high-water below the final footprint"
    );
    // Spot-check exactness across the keyspace, hot and cold tiers alike.
    for key in (0..KEYS).step_by(99_991) {
        let expected = if key.is_multiple_of(97) { 2.0 } else { 1.0 };
        assert_eq!(store.estimate(&key), Some(expected), "key {key}");
    }
}

// ---------------------------------------------------------------------------
// Wire format, metrics, dyn merge, string keys
// ---------------------------------------------------------------------------

/// `to_wire_bytes` → `from_wire_bytes` reproduces every estimate, and
/// incompatible stores are refused with typed errors.
#[test]
fn wire_roundtrip_and_compatibility_checks() {
    let stream = keyed_f0_stream(30, 5_000, 23);
    let mut store = F0SketchStore::<u64>::new(f0_store_config(8, 4_000));
    store.ingest_batch(&stream);

    let bytes = store.to_wire_bytes();
    let restored = F0SketchStore::<u64>::from_wire_bytes(&bytes, usize::MAX).expect("roundtrip");
    assert_stores_bit_identical(&store, &restored, "wire roundtrip");

    // Wrong seed → SeedMismatch.
    let mut alien = F0SketchStore::<u64>::new(f0_store_config(8, 4_000).with_seed(SEED + 1));
    assert!(matches!(
        alien.merge_wire_bytes(&bytes),
        Err(SketchError::SeedMismatch)
    ));
    // Wrong threshold → IncompatibleConfig naming the field.
    let mut alien = F0SketchStore::<u64>::new(f0_store_config(9, 4_000));
    match alien.merge_wire_bytes(&bytes) {
        Err(SketchError::IncompatibleConfig { field, .. }) => {
            assert_eq!(field, "promote_threshold");
        }
        other => panic!("expected IncompatibleConfig, got {other:?}"),
    }
    // An L0 store refuses F0 wire bytes outright.
    let mut wrong_family = L0SketchStore::<u64>::new(l0_store_config(8, 4_000));
    match wrong_family.merge_wire_bytes(&bytes) {
        Err(SketchError::IncompatibleConfig { field, .. }) => assert_eq!(field, "store_family"),
        other => panic!("expected IncompatibleConfig, got {other:?}"),
    }
    // Truncated bytes fail, never panic.
    for cut in [0, 5, 9, bytes.len() / 2, bytes.len() - 1] {
        assert!(F0SketchStore::<u64>::from_wire_bytes(&bytes[..cut], usize::MAX).is_err());
    }
}

/// The type-erased store merge mirrors `merge_dyn` on sketches: same-type
/// stores merge, cross-family merges fail with `TypeMismatch`.
#[test]
fn dyn_store_merge_downcasts_or_refuses() {
    let stream = keyed_f0_stream(20, 3_000, 29);
    let mut a = F0SketchStore::<u64>::new(f0_store_config(8, usize::MAX));
    let mut b = F0SketchStore::<u64>::new(f0_store_config(8, usize::MAX));
    for (idx, &(key, item)) in stream.iter().enumerate() {
        if idx.is_multiple_of(2) {
            a.update(key, item);
        } else {
            b.update(key, item);
        }
    }
    let mut single = F0SketchStore::<u64>::new(f0_store_config(8, usize::MAX));
    single.ingest_batch(&stream);

    let erased: &mut dyn DynMergeableStore = &mut a;
    erased.merge_dyn(&b).expect("same concrete type");
    assert_eq!(erased.estimate_total_dyn(), single.estimate_total());

    let l0 = L0SketchStore::<u64>::new(l0_store_config(8, usize::MAX));
    assert!(matches!(
        erased.merge_dyn(&l0),
        Err(SketchError::TypeMismatch { .. })
    ));
}

/// Stores key by `String` too: grouping, eviction and the wire format all
/// go through the `StoreKey` encoding.
#[test]
fn string_keyed_store_round_trips() {
    let mut store = SketchStore::<String, F0Family>::new(f0_store_config(4, 900));
    let users = ["alice", "bob", "carol", "dave", "erin", "frank"];
    for (rank, user) in users.iter().enumerate() {
        for item in 0..=(rank as u64 * 2) {
            store.update((*user).to_string(), item);
        }
    }
    assert_eq!(store.len(), users.len());
    assert!(store.stats().evictions > 0, "tiny budget never tripped");
    assert_eq!(store.estimate(&"alice".to_string()), Some(1.0));
    assert_eq!(store.estimate(&"carol".to_string()), Some(5.0));
    let restored =
        SketchStore::<String, F0Family>::from_wire_bytes(&store.to_wire_bytes(), usize::MAX)
            .expect("roundtrip");
    assert_stores_bit_identical(&store, &restored, "string keys");
}

/// Per-store metrics track the stats counters and tier gauges exactly.
#[test]
fn store_metrics_mirror_stats() {
    let registry = MetricsRegistry::new();
    let mut store =
        F0SketchStore::<u64>::new(f0_store_config(8, 2_000)).with_metrics(&registry, "test");
    let stream = keyed_f0_stream(64, 8_000, 31);
    store.ingest_batch(&stream);
    store
        .merge_wire_bytes(&store.clone().to_wire_bytes())
        .expect("self merge");

    let counter = |name: &str| registry.counter(name, &[("store", "test")]).get();
    let gauge = |name: &str| registry.gauge(name, &[("store", "test")]).get();
    let stats = store.stats();
    assert_eq!(counter("knw_store_promotions_total"), stats.promotions);
    assert_eq!(counter("knw_store_evictions_total"), stats.evictions);
    assert_eq!(counter("knw_store_reloads_total"), stats.reloads);
    assert!(stats.evictions > 0 && stats.promotions > 0 && stats.reloads > 0);
    assert_eq!(
        gauge("knw_store_resident_keys"),
        store.resident_len() as u64
    );
    assert_eq!(gauge("knw_store_cold_keys"), store.cold_len() as u64);
    assert_eq!(
        gauge("knw_store_resident_bytes"),
        store.resident_bytes() as u64
    );
    assert_eq!(
        gauge("knw_store_cold_tier_bytes"),
        store.cold_bytes() as u64
    );
    assert_eq!(
        gauge("knw_store_budget_high_water_bytes"),
        stats.budget_high_water as u64
    );
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any keyed stream, any 4-way split by update, any tiny promotion
    /// threshold: the merged stores match the single store per key.
    #[test]
    fn random_splits_merge_bit_identical(
        updates in prop::collection::vec((0u64..12, 0u64..50), 0..400),
        lanes in prop::collection::vec(0usize..4, 400..401),
    ) {
        let config = f0_store_config(4, 1_500);
        let mut single = F0SketchStore::<u64>::new(f0_store_config(4, usize::MAX));
        let mut shards: Vec<F0SketchStore<u64>> =
            (0..4).map(|_| F0SketchStore::new(config)).collect();
        for (idx, &(key, item)) in updates.iter().enumerate() {
            single.update(key, item);
            shards[lanes[idx] % 4].update(key, item);
        }
        let mut merged = F0SketchStore::<u64>::new(f0_store_config(4, usize::MAX));
        for shard in &shards {
            merged.merge_wire_bytes(&shard.to_wire_bytes()).expect("compatible");
        }
        prop_assert_eq!(merged.len(), single.len());
        let mut diverged = Vec::new();
        single.for_each_estimate(|key, est| {
            if merged.estimate(key) != Some(est) {
                diverged.push(*key);
            }
        });
        prop_assert!(diverged.is_empty(), "diverged keys: {:?}", diverged);
    }

    /// L0 splits with cancellation churn stay bit-identical too. Budgets
    /// are uncapped here: promoted L0 entries are megabytes, and cycling
    /// them through the cold tier per update is covered (cheaply) by the
    /// dedicated eviction test.
    #[test]
    fn random_l0_splits_merge_bit_identical(
        updates in prop::collection::vec((0u64..4, 0u64..20, -3i64..4), 0..200),
        lanes in prop::collection::vec(0usize..4, 200..201),
    ) {
        let mut single = L0SketchStore::<u64>::new(l0_store_config(16, usize::MAX));
        let mut shards: Vec<L0SketchStore<u64>> =
            (0..4).map(|_| L0SketchStore::new(l0_store_config(16, usize::MAX))).collect();
        for (idx, &(key, item, delta)) in updates.iter().enumerate() {
            single.update(key, (item, delta));
            shards[lanes[idx] % 4].update(key, (item, delta));
        }
        let mut merged = L0SketchStore::<u64>::new(l0_store_config(16, usize::MAX));
        for shard in &shards {
            merged.merge_wire_bytes(&shard.to_wire_bytes()).expect("compatible");
        }
        prop_assert_eq!(merged.len(), single.len());
        let mut diverged = Vec::new();
        single.for_each_estimate(|key, est| {
            if merged.estimate(key) != Some(est) {
                diverged.push(*key);
            }
        });
        prop_assert!(diverged.is_empty(), "diverged keys: {:?}", diverged);
    }
}
