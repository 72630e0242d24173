//! The elastic-resharding acceptance tests: growing 2 → 4 and shrinking
//! 4 → 2 **mid-stream** — an empty worker joining the grown routing table
//! on the way up, each retiree's final reply folded into the accumulator
//! on the way down — yields results **bit-identical** to the
//! single-process run for every estimator in both the F0 and L0 zoos,
//! under both routing policies, with or without a recovery policy, and
//! when a rescale races a worker fault; plus the placement half of the story:
//! a pool-placed fleet (a TCP config with no static address list and a
//! registry) starts from the registry's spares and refuses typed when
//! the pool cannot cover it, and retired workers return to the pool for
//! later grows to re-adopt.
//!
//! Runs in CI (`cargo test -p knw-cluster --test cluster_reshard`); needs
//! only process spawning and loopback.

use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, ClusterAggregator, ClusterConfig,
    ClusterError, ClusterUpdate, F0ClusterAggregator, L0ClusterAggregator, ListeningWorkerFleet,
    SketchSpec, WorkerRegistry,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use knw_hash::rng::{epoch_shard_for_key, shard_for_key, split_parent};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{
    items, let_fault_propagate, spawn_registered_spare, tcp_config, test_policy, updates, EPS,
    UNIVERSE, WORKER_EXE,
};

const SEED: u64 = 4242;

/// A pool-placed configuration: no static addresses, every shard drawn
/// from `registry`.
fn pool_config(registry: &Arc<WorkerRegistry>, engine: EngineConfig) -> ClusterConfig {
    ClusterConfig::tcp(Vec::<String>::new(), Some(Arc::clone(registry))).with_engine(engine)
}

/// Tentpole acceptance criterion, F0 grow half: for every estimator in
/// the zoo and both routing policies, growing the fleet 2 → 4 mid-stream
/// — the two new shards placed empty from the registry pool, each parent
/// keeping what it holds — leaves the final merged estimate bit-identical
/// to the single-process run: a union does not care which shard saw an
/// item.
#[test]
fn grow_2_to_4_mid_stream_is_bit_identical_for_every_f0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 5 },
    ] {
        for &name in f0_estimator_names() {
            let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2)
                .expect("spawn fleet");
            let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
            let _spare_a = spawn_registered_spare(&registry);
            let _spare_b = spawn_registered_spare(&registry);

            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            let stream = items(12_000);
            let mut cluster = F0ClusterAggregator::start(
                &tcp_config(fleet.addrs(), routing, Some(Arc::clone(&registry))),
                &spec,
            )
            .expect("connect 2 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            cluster.scale_to(4).expect("grow 2 -> 4 mid-stream");
            for chunk in rest.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("grown run reports cleanly");

            let mut single = build_f0(&spec).expect("zoo name");
            single.insert_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after a mid-stream grow ({routing:?})"
            );
        }
    }
}

/// Tentpole acceptance criterion, L0 grow half: same property over signed
/// turnstile streams for every estimator in the L0 zoo — L0 shard state is
/// linear, so an item's updates split between its old and its new shard
/// still sum to its total in the accumulator.
#[test]
fn grow_2_to_4_mid_stream_is_bit_identical_for_every_l0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 11 },
    ] {
        for &name in l0_estimator_names() {
            let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2)
                .expect("spawn fleet");
            let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
            let _spare_a = spawn_registered_spare(&registry);
            let _spare_b = spawn_registered_spare(&registry);

            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            let stream = updates(12_000);
            let mut cluster = L0ClusterAggregator::start(
                &tcp_config(fleet.addrs(), routing, Some(Arc::clone(&registry))),
                &spec,
            )
            .expect("connect 2 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            cluster.scale_to(4).expect("grow 2 -> 4 mid-stream");
            for chunk in rest.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("grown run reports cleanly");

            let mut single = build_l0(&spec).expect("zoo name");
            single.update_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after a mid-stream grow ({routing:?})"
            );
        }
    }
}

/// Tentpole acceptance criterion, F0 shrink half: shrinking 4 → 2
/// mid-stream — each retiree's final shard folded into the accumulator
/// via the exact merge, its split parent running on untouched — is
/// bit-identical for the whole zoo under both routing policies.
#[test]
fn shrink_4_to_2_mid_stream_is_bit_identical_for_every_f0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 5 },
    ] {
        for &name in f0_estimator_names() {
            let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 4)
                .expect("spawn fleet");
            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            let stream = items(12_000);
            let mut cluster =
                F0ClusterAggregator::start(&tcp_config(fleet.addrs(), routing, None), &spec)
                    .expect("connect 4 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            cluster.scale_to(2).expect("shrink 4 -> 2 mid-stream");
            for chunk in rest.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("shrunk run reports cleanly");

            let mut single = build_f0(&spec).expect("zoo name");
            single.insert_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after a mid-stream shrink ({routing:?})"
            );
        }
    }
}

/// Tentpole acceptance criterion, L0 shrink half: signed turnstile
/// streams shrink exactly too — cancellations already folded into a
/// retiree's shard survive its merge into the accumulator.
#[test]
fn shrink_4_to_2_mid_stream_is_bit_identical_for_every_l0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 11 },
    ] {
        for &name in l0_estimator_names() {
            let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 4)
                .expect("spawn fleet");
            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            let stream = updates(12_000);
            let mut cluster =
                L0ClusterAggregator::start(&tcp_config(fleet.addrs(), routing, None), &spec)
                    .expect("connect 4 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            cluster.scale_to(2).expect("shrink 4 -> 2 mid-stream");
            for chunk in rest.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("shrunk run reports cleanly");

            let mut single = build_l0(&spec).expect("zoo name");
            single.update_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after a mid-stream shrink ({routing:?})"
            );
        }
    }
}

/// Placement acceptance criterion: a pool-placed [`ClusterConfig`]
/// starts a fleet with **no static address list** — and when the pool
/// cannot cover the asked-for worker count it refuses with the typed
/// [`ClusterError::PoolExhausted`] naming the shortfall, never silently
/// starting a smaller fleet.  Once enough spares register, the same call
/// succeeds and the pooled run is bit-identical to single-process.
#[test]
fn from_pool_refuses_typed_until_the_pool_covers_the_fleet() {
    let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
    let _spare_a = spawn_registered_spare(&registry);

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    // One live spare cannot cover three workers: typed refusal, with the
    // shortfall spelled out.
    match F0ClusterAggregator::start(&pool_config(&registry, EngineConfig::new(3)), &spec)
        .map(|_| "a fleet")
    {
        Err(ClusterError::PoolExhausted { needed: 3, live: 1 }) => {}
        other => panic!("expected PoolExhausted {{needed: 3, live: 1}}, got {other:?}"),
    }
    // The refused draw must not have consumed the spare.
    assert_eq!(registry.available(), 1, "refusal leaves the pool intact");

    let _spare_b = spawn_registered_spare(&registry);
    let _spare_c = spawn_registered_spare(&registry);
    let stream = items(9_000);
    let mut cluster =
        F0ClusterAggregator::start(&pool_config(&registry, EngineConfig::new(3)), &spec)
            .expect("pool covers 3 workers");
    for chunk in stream.chunks(1_111) {
        cluster.ingest_batch(chunk);
    }
    let merged = cluster.finish().expect("pooled run reports cleanly");

    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// Placement round-trip: a scale-down returns the retirees' addresses to
/// the pool, and a later grow re-adopts those still-serving workers —
/// no fresh spares required — with the estimate staying exact across the
/// whole shrink-then-regrow cycle.
#[test]
fn retired_workers_return_to_the_pool_and_regrow_readopts_them() {
    let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
    let _spare_a = spawn_registered_spare(&registry);
    let _spare_b = spawn_registered_spare(&registry);

    let spec = SketchSpec::l0("knw-l0", EPS, 1 << 12, 17);
    let stream = updates(9_000);
    let config = pool_config(
        &registry,
        EngineConfig::new(2)
            .with_batch_size(512)
            .with_routing(RoutingPolicy::HashAffine { seed: 7 }),
    )
    .with_recovery(test_policy());
    let mut cluster =
        L0ClusterAggregator::start(&config, &spec).expect("place 2 workers from the pool");
    assert_eq!(registry.available(), 0, "both spares placed");

    let (first, rest) = stream.split_at(3_000);
    cluster.ingest_batch(first);
    cluster.scale_to(1).expect("shrink 2 -> 1");
    assert_eq!(
        registry.available(),
        1,
        "the retired worker's address returned to the pool"
    );
    cluster.ingest_batch(&rest[..3_000]);
    // The regrow draws the returned address — no new spare was spawned.
    cluster
        .scale_to(2)
        .expect("regrow 1 -> 2 re-adopts the retiree");
    assert_eq!(
        registry.available(),
        0,
        "the returned address was re-adopted"
    );
    cluster.ingest_batch(&rest[3_000..]);
    let merged = cluster.finish().expect("round-tripped run reports cleanly");

    let mut single = build_l0(&spec).expect("zoo name");
    single.update_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// Runs `stream` through a pipe fleet with **no** recovery policy:
/// grow 2 → 4, snapshot, shrink 4 → 1, regrow 1 → 3, finish.  The
/// snapshot and the final sketch must both match a single-process run
/// bit for bit.
fn rescale_cycle_without_recovery<U: ClusterUpdate>(
    spec: &SketchSpec,
    routing: RoutingPolicy,
    stream: &[U],
) {
    let config = ClusterConfig::pipe(2, WORKER_EXE).with_engine(
        EngineConfig::new(2)
            .with_batch_size(512)
            .with_routing(routing),
    );
    let mut cluster = ClusterAggregator::<U>::start(&config, spec).expect("spawn 2 workers");
    let mut single = U::build(spec).expect("zoo name");
    let name = &spec.estimator;
    let quarter = stream.len() / 4;
    let mut parts = stream.chunks(quarter);
    let mut feed = |cluster: &mut ClusterAggregator<U>, single: &mut U::Shard| {
        let part = parts.next().expect("a quarter of the stream");
        for chunk in part.chunks(999) {
            cluster.ingest_batch(chunk);
        }
        U::apply(single, part);
    };
    feed(&mut cluster, &mut single);
    cluster.scale_to(4).expect("grow 2 -> 4 without recovery");
    feed(&mut cluster, &mut single);
    let snapshot = U::estimate(cluster.snapshot().expect("snapshot after the grow"));
    assert_eq!(
        snapshot.to_bits(),
        U::estimate(&single).to_bits(),
        "{name} snapshot deviates after a grow ({routing:?})"
    );
    cluster.scale_to(1).expect("shrink 4 -> 1 without recovery");
    feed(&mut cluster, &mut single);
    cluster.scale_to(3).expect("regrow 1 -> 3 without recovery");
    assert_eq!(cluster.num_workers(), 3);
    feed(&mut cluster, &mut single);
    let merged = cluster.finish().expect("resharded run reports cleanly");
    assert_eq!(
        U::estimate(&merged).to_bits(),
        U::estimate(&single).to_bits(),
        "{name} deviates after grow, shrink and regrow ({routing:?})"
    );
}

/// A reshard is a routing change, so it needs no replay journal: with no
/// recovery policy, growing, snapshotting, shrinking and regrowing a live
/// pipe fleet stays bit-identical to a single-process run for every
/// estimator in both zoos, under both routing policies.
#[test]
fn rescales_without_a_recovery_policy_stay_exact() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 3 },
    ] {
        let stream = items(12_000);
        for &name in f0_estimator_names() {
            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            rescale_cycle_without_recovery::<u64>(&spec, routing, &stream);
        }
        let stream = updates(12_000);
        for &name in l0_estimator_names() {
            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            rescale_cycle_without_recovery::<(u64, i64)>(&spec, routing, &stream);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole acceptance criterion, fault-schedule sweep: a random
    /// interleaving of a rescale (to any target 1..=4) and a severed
    /// worker link — possibly in the same tick, possibly fault-first so
    /// the rescale's flush races the recovery replay — must still report
    /// bit-identically to the single-process prefix fold.
    #[test]
    fn rescales_racing_worker_faults_stay_exact(
        rescale_chunk in 0usize..8,
        target in 1usize..=4,
        kill_chunk in 0usize..8,
        worker_pick in 0usize..4,
        routing_seed in 0u64..4,
    ) {
        let routing = if routing_seed.is_multiple_of(2) {
            RoutingPolicy::RoundRobin
        } else {
            RoutingPolicy::HashAffine { seed: routing_seed }
        };
        let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2)
            .expect("spawn fleet");
        let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
        let _spare_a = spawn_registered_spare(&registry);
        let _spare_b = spawn_registered_spare(&registry);

        let spec = SketchSpec::l0("knw-l0", EPS, 1 << 12, 13);
        let stream = updates(4_000);
        let mut cluster = L0ClusterAggregator::start(
            &tcp_config(fleet.addrs(), routing, Some(Arc::clone(&registry))),
            &spec,
        )
        .expect("connect 2 workers");
        let mut single = build_l0(&spec).expect("zoo name");
        let mut fleet_size = 2usize;

        for (chunk_index, chunk) in stream.chunks(500).enumerate() {
            cluster.ingest_batch(chunk);
            single.update_batch(chunk);
            if chunk_index == kill_chunk {
                cluster.kill_worker(worker_pick % fleet_size).expect("sever link");
                let_fault_propagate();
            }
            if chunk_index == rescale_chunk {
                cluster.scale_to(target).expect("rescale during fault schedule");
                fleet_size = target;
            }
        }
        let merged = cluster.finish().expect("clean resharded finish");
        prop_assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "diverged (rescale to {} at {}, kill worker {} at {}, {:?})",
            target,
            rescale_chunk,
            worker_pick % fleet_size.max(1),
            kill_chunk,
            routing
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The epoched routing function itself, property-based: deterministic
    /// in `(seed, key, shards)`, in-range, identical to the flat
    /// [`shard_for_key`] at power-of-two counts, and **refining by single
    /// splits**: adding one shard either leaves a key where it was, or
    /// moves it from exactly [`split_parent`] onto the one new shard.  No
    /// third option, so a grow moves the fewest keys and every other key
    /// keeps its worker (exactness does not rest on this: a reshard moves
    /// no history).
    #[test]
    fn epoch_routing_is_deterministic_and_refines_by_single_splits(
        seed in any::<u64>(),
        key in any::<u64>(),
        shards in 1usize..64,
    ) {
        let assigned = epoch_shard_for_key(seed, key, shards);
        prop_assert!(assigned < shards);
        prop_assert_eq!(assigned, epoch_shard_for_key(seed, key, shards));
        if shards.is_power_of_two() {
            prop_assert_eq!(assigned, shard_for_key(seed, key, shards));
        }
        let grown = epoch_shard_for_key(seed, key, shards + 1);
        if grown != assigned {
            prop_assert_eq!(grown, shards, "a moved key lands on the new shard");
            prop_assert_eq!(
                assigned,
                split_parent(shards),
                "a moved key came from the split parent"
            );
        }
    }
}
