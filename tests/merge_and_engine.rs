//! End-to-end tests of the mergeable sketch contract and the sharded engine:
//! for every mergeable F0 *and* L0 estimator, sharding a stream and merging
//! the shard sketches must reproduce the single-stream estimate *exactly*,
//! the error cases must be surfaced, and the threaded engine must agree with
//! one sketch fed the whole stream.

use knw::baselines::{all_f0_estimators, all_l0_estimators};
use knw::core::{
    CardinalityEstimator, F0Config, KnwF0Sketch, KnwL0Sketch, L0Config, MergeableEstimator,
    SketchError,
};
use knw::engine::{EngineConfig, RoutingPolicy, ShardedF0Engine, ShardedL0Engine};
use knw::stream::{
    partition_by_item, partition_round_robin, partition_updates_by_item,
    partition_updates_round_robin, StreamGenerator, TurnstileWorkloadBuilder, ZipfGenerator,
};

const EPS: f64 = 0.1;
const UNIVERSE: u64 = 1 << 20;
const SEED: u64 = 77;

fn stream(len: usize) -> Vec<u64> {
    ZipfGenerator::new(UNIVERSE, 1.05, 13).take_vec(len)
}

/// Satellite requirement: `merge(shard_1..shard_k).estimate()` equals the
/// single-stream estimate exactly, for every mergeable sketch in the zoo,
/// under both partitioning disciplines and several shard counts.
#[test]
fn every_mergeable_sketch_merges_exactly_across_shards() {
    let items = stream(40_000);
    for shards in [2usize, 3, 5] {
        for (label, parts) in [
            ("round-robin", partition_round_robin(&items, shards, 64)),
            ("by-item", partition_by_item(&items, shards)),
        ] {
            let mut merged_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
            let mut single_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
            // One sketch per shard per estimator; merge shard 1..k into 0.
            for (est_idx, merged) in merged_zoo.iter_mut().enumerate() {
                merged.insert_batch(&parts[0]);
                for part in &parts[1..] {
                    let mut shard_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
                    let shard = &mut shard_zoo[est_idx];
                    shard.insert_batch(part);
                    merged
                        .merge_dyn(shard.as_ref())
                        .expect("shards share type, config and seed");
                }
            }
            for (merged, single) in merged_zoo.iter().zip(single_zoo.iter_mut()) {
                single.insert_batch(&items);
                assert_eq!(
                    merged.estimate(),
                    single.estimate(),
                    "{} deviates from the single-stream run ({label}, {shards} shards)",
                    merged.name()
                );
            }
        }
    }
}

#[test]
fn mismatched_seed_and_epsilon_merges_are_rejected() {
    // Same epsilon, different seed.
    let cfg_a = F0Config::new(EPS, UNIVERSE).with_seed(1);
    let cfg_b = F0Config::new(EPS, UNIVERSE).with_seed(2);
    let mut a = KnwF0Sketch::new(cfg_a);
    let b = KnwF0Sketch::new(cfg_b);
    assert_eq!(a.merge_from(&b), Err(SketchError::SeedMismatch));
    // Same seed, different epsilon.
    let mut c = KnwF0Sketch::new(F0Config::new(0.25, UNIVERSE).with_seed(1));
    assert!(matches!(
        c.merge_from(&a),
        Err(SketchError::IncompatibleConfig { .. })
    ));
    // Cross-seed rejections across the whole zoo (the seed-independent exact
    // counter is exempt).
    let mut zoo_a = all_f0_estimators(EPS, UNIVERSE, 1);
    let zoo_b = all_f0_estimators(EPS, UNIVERSE, 2);
    for (x, y) in zoo_a.iter_mut().zip(zoo_b.iter()) {
        if x.name() == "exact" {
            continue;
        }
        assert!(
            x.merge_dyn(y.as_ref()).is_err(),
            "{} accepted a cross-seed merge",
            x.name()
        );
    }
    // Cross-type rejections.
    let mut zoo = all_f0_estimators(EPS, UNIVERSE, 1);
    let other = all_f0_estimators(EPS, UNIVERSE, 1);
    let err = zoo[2].merge_dyn(other[3].as_ref()).unwrap_err();
    assert!(matches!(err, SketchError::TypeMismatch { .. }));
}

/// Acceptance criterion: a 4-shard engine produces the same estimate as a
/// single `KnwF0Sketch` over the same stream.
#[test]
fn four_shard_engine_matches_single_sketch() {
    let cfg = F0Config::new(0.05, UNIVERSE).with_seed(SEED);
    let items = stream(80_000);
    let engine_config = EngineConfig::new(4).with_batch_size(2048);

    let mut single = KnwF0Sketch::new(cfg);
    single.insert_batch(&items);

    let mut engine = ShardedF0Engine::new(engine_config, move |_| KnwF0Sketch::new(cfg));
    engine.insert_batch(&items);

    let direct = single.estimate_f0();
    assert_eq!(engine.estimate(), direct);

    let merged = engine.finish().expect("uniformly seeded shards");
    assert_eq!(merged.estimate_f0(), direct);
    assert_eq!(merged.base_level(), single.base_level());
    assert_eq!(merged.occupancy(), single.occupancy());
    assert_eq!(merged.updates_processed(), single.updates_processed());
}

/// Satellite requirement: the `HashAffine` routing policy — the same
/// `shard_for_key` assignment the cluster aggregator and
/// `partition_by_item` use — on the in-process engine is bit-identical to
/// the single-stream run, for
/// the F0 zoo's flagship and across the whole zoo via the shared policy
/// function.
#[test]
fn hash_affine_routing_is_bit_identical_for_f0() {
    let cfg = F0Config::new(0.05, UNIVERSE).with_seed(SEED);
    let items = stream(60_000);
    let policy = RoutingPolicy::HashAffine { seed: 12 };
    let engine_config = EngineConfig::new(4)
        .with_batch_size(512)
        .with_routing(policy);

    let mut single = KnwF0Sketch::new(cfg);
    single.insert_batch(&items);

    let mut engine = ShardedF0Engine::new(engine_config, move |_| KnwF0Sketch::new(cfg));
    engine.insert_batch(&items);
    assert_eq!(engine.estimate(), single.estimate_f0());
    let merged = engine.finish().expect("uniformly seeded shards");
    assert_eq!(merged.estimate_f0(), single.estimate_f0());
    assert_eq!(merged.occupancy(), single.occupancy());

    // The whole zoo, partitioned with the very same policy function and
    // merged through the dyn contract, reproduces single-stream bit for bit.
    let shards = 4usize;
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for &item in &items {
        parts[knw::hash::rng::shard_for_key(12, item, shards)].push(item);
    }
    let mut merged_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
    let mut single_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
    for (est_idx, merged) in merged_zoo.iter_mut().enumerate() {
        merged.insert_batch(&parts[0]);
        for part in &parts[1..] {
            let mut shard_zoo = all_f0_estimators(EPS, UNIVERSE, SEED);
            let shard = &mut shard_zoo[est_idx];
            shard.insert_batch(part);
            merged.merge_dyn(shard.as_ref()).expect("compatible shards");
        }
    }
    for (merged, single) in merged_zoo.iter().zip(single_zoo.iter_mut()) {
        single.insert_batch(&items);
        assert_eq!(
            merged.estimate(),
            single.estimate(),
            "{} deviates under hash-affine by-item routing",
            merged.name()
        );
    }
}

/// The L0 counterpart: hash-affine (by-item) routing on the turnstile
/// engine and across the turnstile zoo is bit-identical to the
/// single-stream run — the partition discipline a non-linear
/// deletion-aware shard structure would *require*.
#[test]
fn hash_affine_routing_is_bit_identical_for_l0() {
    let cfg = L0Config::new(0.1, 1 << 14).with_seed(SEED);
    let updates = signed_stream(40_000, 4_096, 7);
    let policy = RoutingPolicy::HashAffine { seed: 5 };
    let engine_config = EngineConfig::new(3)
        .with_batch_size(256)
        .with_routing(policy);

    let mut single = KnwL0Sketch::new(cfg);
    single.update_batch(&updates);

    let mut engine = ShardedL0Engine::new(engine_config, move |_| KnwL0Sketch::new(cfg));
    engine.update_batch(&updates);
    let merged = engine.finish().expect("uniformly seeded shards");
    assert_eq!(merged.estimate_l0(), single.estimate_l0());
    assert_eq!(merged.updates_processed(), single.updates_processed());

    let shards = 3usize;
    let mut parts: Vec<Vec<(u64, i64)>> = vec![Vec::new(); shards];
    for &(item, delta) in &updates {
        parts[knw::hash::rng::shard_for_key(5, item, shards)].push((item, delta));
    }
    let mut merged_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
    let mut single_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
    for (est_idx, merged) in merged_zoo.iter_mut().enumerate() {
        merged.update_batch(&parts[0]);
        for part in &parts[1..] {
            let mut shard_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
            let shard = &mut shard_zoo[est_idx];
            shard.update_batch(part);
            merged.merge_dyn(shard.as_ref()).expect("compatible shards");
        }
    }
    for (merged, single) in merged_zoo.iter().zip(single_zoo.iter_mut()) {
        single.update_batch(&updates);
        assert_eq!(
            merged.estimate(),
            single.estimate(),
            "{} deviates under hash-affine by-item routing",
            merged.name()
        );
    }
}

/// Satellite requirement: router-side pre-coalescing on the in-process
/// turnstile hand-off (sum deltas per item before the shard split) leaves
/// the merged estimate bit-identical while the shards see strictly fewer
/// updates on churn workloads.
#[test]
fn precoalesced_l0_engine_is_bit_identical_on_churn() {
    let workload = TurnstileWorkloadBuilder::new(UNIVERSE)
        .insert_items(15_000)
        .delete_fraction(0.7)
        .seed(23)
        .build();
    let updates = workload.ops_as_pairs();
    let cfg = L0Config::new(0.05, UNIVERSE).with_seed(SEED);

    let mut single = KnwL0Sketch::new(cfg);
    single.update_batch(&updates);

    let base = EngineConfig::new(4).with_batch_size(2048);
    for config in [
        base,
        base.with_routing(RoutingPolicy::HashAffine { seed: 1 }),
    ] {
        let mut engine = ShardedL0Engine::new(config.with_precoalesce(true), move |_| {
            KnwL0Sketch::new(cfg)
        });
        engine.update_batch(&updates);
        assert_eq!(engine.estimate(), single.estimate_l0());
        // The raw update count, not the coalesced one.
        assert_eq!(engine.items_ingested(), updates.len() as u64);
        let merged = engine.finish().expect("uniformly seeded shards");
        assert_eq!(merged.estimate_l0(), single.estimate_l0());
        assert_eq!(
            merged.matrix().total_nonzero(),
            single.matrix().total_nonzero()
        );
        // Churn cancels inside the coalescing window: the shards ingested
        // strictly fewer (pre-summed) updates than the raw stream carries.
        assert!(merged.updates_processed() < single.updates_processed());
    }
}

/// The engine is generic over the shard sketch: run it over a mergeable
/// baseline and check the same exactness holds.
#[test]
fn engine_is_generic_over_mergeable_baselines() {
    use knw::baselines::HyperLogLog;
    let items = stream(30_000);
    let mut single = HyperLogLog::with_error(0.05, SEED);
    single.insert_batch(&items);
    let mut engine = ShardedF0Engine::new(EngineConfig::new(3), move |_| {
        HyperLogLog::with_error(0.05, SEED)
    });
    engine.insert_batch(&items);
    assert_eq!(engine.estimate(), single.estimate());
}

/// Batched ingestion through the trait object reports the same estimates as
/// per-item ingestion for the entire zoo (the batch default and the sketch
/// fast paths are semantically transparent).
#[test]
fn batch_and_per_item_ingestion_agree_for_the_zoo() {
    let items = stream(20_000);
    let mut batched = all_f0_estimators(EPS, UNIVERSE, SEED);
    let mut per_item = all_f0_estimators(EPS, UNIVERSE, SEED);
    for (b, p) in batched.iter_mut().zip(per_item.iter_mut()) {
        for chunk in items.chunks(333) {
            b.insert_batch(chunk);
        }
        for &i in &items {
            p.insert(i);
        }
        assert_eq!(
            b.estimate(),
            p.estimate(),
            "{} batch path diverged",
            b.name()
        );
    }
}

// ---------------------------------------------------------------------------
// The turnstile (L0) side of the same contract
// ---------------------------------------------------------------------------

/// A deterministic random signed update stream: churn-heavy (inserts,
/// partial deletes, full cancellations, mixed signs), the regime where only
/// linear sketches stay exact under arbitrary partitioning.
fn signed_stream(len: usize, universe: u64, seed: u64) -> Vec<(u64, i64)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| (next() % universe, (next() % 9) as i64 - 4))
        .collect()
}

/// Satellite requirement (property test): for random signed update streams,
/// merged L0 shards reproduce the single-stream estimate bit-for-bit, for
/// every estimator in the turnstile zoo, under both partitioning disciplines
/// — including by-batch partitions that split an item's inserts and deletes
/// across shards — several shard counts, and several stream seeds.
#[test]
fn every_mergeable_l0_sketch_merges_exactly_across_shards() {
    for stream_seed in [13u64, 77, 1_000_003] {
        let updates = signed_stream(30_000, 4_096, stream_seed);
        for shards in [2usize, 3, 5] {
            for (label, parts) in [
                (
                    "round-robin",
                    partition_updates_round_robin(&updates, shards, 64),
                ),
                ("by-item", partition_updates_by_item(&updates, shards)),
            ] {
                let mut merged_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
                let mut single_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
                for (est_idx, merged) in merged_zoo.iter_mut().enumerate() {
                    merged.update_batch(&parts[0]);
                    for part in &parts[1..] {
                        let mut shard_zoo = all_l0_estimators(EPS, UNIVERSE, SEED);
                        let shard = &mut shard_zoo[est_idx];
                        shard.update_batch(part);
                        merged
                            .merge_dyn(shard.as_ref())
                            .expect("shards share type, config and seed");
                    }
                }
                for (merged, single) in merged_zoo.iter().zip(single_zoo.iter_mut()) {
                    single.update_batch(&updates);
                    assert_eq!(
                        merged.estimate(),
                        single.estimate(),
                        "{} deviates from the single-stream run \
                         ({label}, {shards} shards, stream seed {stream_seed})",
                        merged.name()
                    );
                }
            }
        }
    }
}

/// Workload-driven exactness: a data-cleaning style insert-then-delete
/// workload sharded across the turnstile engine reproduces both the single
/// sketch and the ground truth regime.
#[test]
fn l0_engine_matches_single_sketch_on_churn_workload() {
    let workload = TurnstileWorkloadBuilder::new(UNIVERSE)
        .insert_items(20_000)
        .delete_fraction(0.6)
        .seed(5)
        .build();
    let updates = workload.ops_as_pairs();
    let cfg = L0Config::new(0.05, UNIVERSE).with_seed(SEED);

    let mut single = KnwL0Sketch::new(cfg);
    single.update_batch(&updates);

    let mut engine = ShardedL0Engine::new(EngineConfig::new(4).with_batch_size(2048), move |_| {
        KnwL0Sketch::new(cfg)
    });
    engine.update_batch(&updates);

    let direct = single.estimate_l0();
    assert_eq!(engine.estimate(), direct);

    let merged = engine.finish().expect("uniformly seeded shards");
    assert_eq!(merged.estimate_l0(), direct);
    assert_eq!(merged.updates_processed(), single.updates_processed());

    // And the estimate tracks the ground truth.
    let truth = workload.final_l0 as f64;
    let rel = (direct - truth).abs() / truth;
    assert!(rel < 0.5, "estimate {direct} vs truth {truth} (rel {rel})");
}

/// L0 zoo mismatches: cross-seed and cross-type merges are rejected with the
/// structured errors, and the KNW L0 config check names the offending field.
#[test]
fn mismatched_l0_merges_are_rejected_with_field_detail() {
    let cfg_a = L0Config::new(EPS, UNIVERSE).with_seed(1);
    let cfg_b = L0Config::new(EPS, UNIVERSE).with_seed(2);
    let mut a = KnwL0Sketch::new(cfg_a);
    let b = KnwL0Sketch::new(cfg_b);
    assert_eq!(a.merge_from(&b), Err(SketchError::SeedMismatch));

    let mut c = KnwL0Sketch::new(L0Config::new(0.25, UNIVERSE).with_seed(1));
    match c.merge_from(&a) {
        Err(SketchError::IncompatibleConfig {
            field,
            ours,
            theirs,
        }) => {
            assert_eq!(field, "epsilon");
            assert!(ours.contains("0.25"));
            assert!(theirs.contains("0.1"));
        }
        other => panic!("unexpected merge result {other:?}"),
    }

    let mut zoo_a = all_l0_estimators(EPS, UNIVERSE, 1);
    let zoo_b = all_l0_estimators(EPS, UNIVERSE, 2);
    let err = zoo_a[0].merge_dyn(zoo_b[1].as_ref()).unwrap_err();
    assert!(matches!(err, SketchError::TypeMismatch { .. }));
    for (x, y) in zoo_a.iter_mut().zip(zoo_b.iter()) {
        if x.name() == "exact-l0" {
            continue;
        }
        assert!(
            x.merge_dyn(y.as_ref()).is_err(),
            "{} accepted a cross-seed merge",
            x.name()
        );
    }
}

/// Batched turnstile ingestion (the delta-coalescing fast path) agrees with
/// per-update ingestion across the turnstile zoo.
#[test]
fn batch_and_per_update_ingestion_agree_for_the_l0_zoo() {
    let updates = signed_stream(25_000, 2_048, 3);
    let mut batched = all_l0_estimators(EPS, UNIVERSE, SEED);
    let mut per_update = all_l0_estimators(EPS, UNIVERSE, SEED);
    for (b, p) in batched.iter_mut().zip(per_update.iter_mut()) {
        for chunk in updates.chunks(700) {
            b.update_batch(chunk);
        }
        for &(item, delta) in &updates {
            p.update(item, delta);
        }
        assert_eq!(
            b.estimate(),
            p.estimate(),
            "{} batch path diverged",
            b.name()
        );
    }
}
