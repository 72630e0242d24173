//! The elastic-resharding acceptance tests: growing 2 → 4 and shrinking
//! 4 → 2 **mid-stream** — checkpoint + filtered journal replay onto the
//! split routing table on the way up, `merge_dyn` fold-back of retired
//! shards into their split parents on the way down — yields results
//! **bit-identical** to the single-process run for every estimator in
//! both the F0 and L0 zoos, under both routing policies, including when
//! a rescale races a worker fault; plus the placement half of the story:
//! [`from_pool`] starts a fleet with no static address list and refuses
//! typed when the pool cannot cover it, and retired workers return to
//! the pool for later grows to re-adopt.
//!
//! Runs in CI (`cargo test -p knw-cluster --test cluster_reshard`); needs
//! only process spawning and loopback.
//!
//! [`from_pool`]: F0ClusterAggregator::from_pool

use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, spawn_listening_worker,
    ClusterError, F0ClusterAggregator, L0ClusterAggregator, ListeningWorkerFleet, RecoveryPolicy,
    SketchSpec, TcpClusterConfig, WorkerRegistry,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use knw_hash::rng::{epoch_shard_for_key, shard_for_key, split_parent};
use proptest::prelude::*;
use std::process::Child;
use std::sync::Arc;
use std::time::Duration;

const WORKER_EXE: &str = env!("CARGO_BIN_EXE_knw-worker");
const EPS: f64 = 0.1;
const UNIVERSE: u64 = 1 << 16;
const SEED: u64 = 4242;

/// A spare worker process, reaped on drop (test panics must not leak
/// forever-serving strays).
struct Spare(Child);

impl Drop for Spare {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a spare `--listen --register` worker and waits until its
/// announcement landed in the registry.
fn spawn_registered_spare(registry: &WorkerRegistry) -> Spare {
    let registry_addr = registry.local_addr().to_string();
    let before = registry.available();
    let (child, _) = spawn_listening_worker(
        WORKER_EXE.as_ref(),
        "127.0.0.1:0",
        &["--register", &registry_addr],
    )
    .expect("spawn spare worker");
    for _ in 0..400 {
        if registry.available() > before {
            return Spare(child);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("spare worker never registered");
}

/// A fast-failing recovery policy for tests: retries stay bounded in
/// wall-clock even when every attempt must time out.
fn test_policy() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(4)
        .with_backoff(Duration::from_millis(50))
}

fn tcp_config(
    addrs: &[String],
    routing: RoutingPolicy,
    registry: Option<Arc<WorkerRegistry>>,
) -> TcpClusterConfig {
    let mut config = TcpClusterConfig::new(addrs.iter().cloned())
        .with_engine(
            EngineConfig::new(addrs.len())
                .with_batch_size(512)
                .with_routing(routing),
        )
        .with_recovery(test_policy());
    if let Some(registry) = registry {
        config = config.with_registry(registry);
    }
    config
}

/// A skewed insert-only stream.
fn items(len: u64) -> Vec<u64> {
    (0..len)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % UNIVERSE)
        .collect()
}

/// A churn-heavy signed update stream (mixed signs, cancellations).
fn updates(len: u64) -> Vec<(u64, i64)> {
    (0..len)
        .map(|i| {
            let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x % 4_096, (x % 9) as i64 - 4)
        })
        .collect()
}

/// Lets a severed link's FIN/RST reach the aggregator's socket before the
/// stream continues, so the fault is observed deterministically.
fn let_fault_propagate() {
    std::thread::sleep(Duration::from_millis(100));
}

/// Tentpole acceptance criterion, F0 grow half: for every estimator in
/// the zoo and both routing policies, growing the fleet 2 → 4 mid-stream
/// — the two new shards placed from the registry pool, each split
/// parent's checkpoint + journal re-routed under the grown epoch table —
/// leaves the final merged estimate bit-identical to the single-process
/// run.
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
            let mut cluster = F0ClusterAggregator::connect(
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
/// turnstile streams for every estimator in the L0 zoo — the linearity of
/// L0 shard state is exactly what makes "parent restarts empty, the new
/// shard inherits checkpoint + moved updates" mass-preserving.
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
            let mut cluster = L0ClusterAggregator::connect(
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
/// mid-stream — each retiree's final shard folded into its split parent
/// via the exact merge, the survivor restarted on the merged checkpoint —
/// is bit-identical for the whole zoo under both routing policies.
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
                F0ClusterAggregator::connect(&tcp_config(fleet.addrs(), routing, None), &spec)
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
/// retiree's shard survive the merge into its split parent.
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
                L0ClusterAggregator::connect(&tcp_config(fleet.addrs(), routing, None), &spec)
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

/// Placement acceptance criterion: [`F0ClusterAggregator::from_pool`]
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
    match F0ClusterAggregator::from_pool(&registry, 3, &spec).map(|_| "a fleet") {
        Err(ClusterError::PoolExhausted { needed: 3, live: 1 }) => {}
        other => panic!("expected PoolExhausted {{needed: 3, live: 1}}, got {other:?}"),
    }
    // The refused draw must not have consumed the spare.
    assert_eq!(registry.available(), 1, "refusal leaves the pool intact");

    let _spare_b = spawn_registered_spare(&registry);
    let _spare_c = spawn_registered_spare(&registry);
    let stream = items(9_000);
    let mut cluster =
        F0ClusterAggregator::from_pool(&registry, 3, &spec).expect("pool covers 3 workers");
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
    let mut cluster = L0ClusterAggregator::from_pool_with(
        &registry,
        EngineConfig::new(2)
            .with_batch_size(512)
            .with_routing(RoutingPolicy::HashAffine { seed: 7 }),
        Some(test_policy()),
        &spec,
    )
    .expect("place 2 workers from the pool");
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

/// Without a recovery policy there are no journals to split, so a rescale
/// refuses with the typed [`ClusterError::RescaleUnsupported`] — and the
/// refusal leaves the fleet fully usable: the stream continues and the
/// final report stays bit-identical.
#[test]
fn rescale_without_journaling_is_a_typed_refusal_that_leaves_the_fleet_usable() {
    let fleet =
        ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2).expect("spawn fleet");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let stream = items(6_000);
    let config = TcpClusterConfig::new(fleet.addrs().iter().cloned())
        .with_engine(EngineConfig::new(2).with_batch_size(512));
    let mut cluster = F0ClusterAggregator::connect(&config, &spec).expect("connect");
    let (first, rest) = stream.split_at(3_000);
    cluster.ingest_batch(first);
    match cluster.scale_to(4) {
        Err(ClusterError::RescaleUnsupported { .. }) => {}
        other => panic!("expected RescaleUnsupported, got {other:?}"),
    }
    cluster.ingest_batch(rest);
    let merged = cluster
        .finish()
        .expect("refused rescale leaves the fleet usable");

    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
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
        let mut cluster = L0ClusterAggregator::connect(
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
    /// [`shard_for_key`] at power-of-two counts, and — the invariant the
    /// whole grow path leans on — **refining by single splits**: adding
    /// one shard either leaves a key where it was, or moves it from
    /// exactly [`split_parent`] onto the one new shard.  No third option,
    /// so a grow only ever replays one parent's journal.
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
