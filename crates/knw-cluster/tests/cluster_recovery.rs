//! The reconnect-and-replay acceptance tests: killing a TCP worker
//! mid-stream and recovering it — by re-dialing the same address, by
//! re-resolving onto a `--register`ed spare host, or by re-spawning a pipe
//! child — yields results **bit-identical** to the single-process run for
//! every estimator in both the F0 and L0 zoos, under both routing
//! policies; and when recovery *cannot* succeed, the failure is typed
//! (`RecoveryExhausted`, `JournalOverflow`) and bounded — never a hang,
//! never a partial merge.
//!
//! Runs in CI (`cargo test -p knw-cluster --test cluster_recovery`); needs
//! only process spawning and loopback.

use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, ClusterConfig, ClusterError,
    F0ClusterAggregator, L0ClusterAggregator, ListeningWorkerFleet, RecoveryPolicy, SketchSpec,
    WorkerRegistry,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{
    dead_addr, items, let_fault_propagate, spawn_registered_spare, tcp_config, test_policy,
    updates, EPS, UNIVERSE, WORKER_EXE,
};

const SEED: u64 = 4242;

/// Acceptance criterion, F0 half: for every estimator in the zoo and both
/// routing policies, killing a TCP worker **process** mid-stream and
/// recovering onto a freshly `--register`ed spare host leaves the final
/// merged estimate bit-identical to the single-process run.
#[test]
fn killed_worker_recovery_is_bit_identical_for_every_f0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 3 },
    ] {
        for &name in f0_estimator_names() {
            let mut fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 3)
                .expect("spawn fleet");
            let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
            let _spare = spawn_registered_spare(&registry);

            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            let stream = items(12_000);
            let mut cluster = F0ClusterAggregator::start(
                &tcp_config(fleet.addrs(), routing, Some(Arc::clone(&registry))),
                &spec,
            )
            .expect("connect 3 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            fleet.kill(1).expect("kill worker process");
            let_fault_propagate();
            for chunk in rest.chunks(1_111) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("recovered run reports cleanly");

            let mut single = build_f0(&spec).expect("zoo name");
            single.insert_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after kill-and-replay recovery ({routing:?})"
            );
        }
    }
}

/// Acceptance criterion, L0 half: same property over signed turnstile
/// streams for every estimator in the L0 zoo under both routing policies.
#[test]
fn killed_worker_recovery_is_bit_identical_for_every_l0_estimator() {
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 9 },
    ] {
        for &name in l0_estimator_names() {
            let mut fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 3)
                .expect("spawn fleet");
            let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
            let _spare = spawn_registered_spare(&registry);

            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            let stream = updates(12_000);
            let mut cluster = L0ClusterAggregator::start(
                &tcp_config(fleet.addrs(), routing, Some(Arc::clone(&registry))),
                &spec,
            )
            .expect("connect 3 workers");
            let (first, rest) = stream.split_at(stream.len() / 2);
            for chunk in first.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            fleet.kill(0).expect("kill worker process");
            let_fault_propagate();
            for chunk in rest.chunks(999) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("recovered run reports cleanly");

            let mut single = build_l0(&spec).expect("zoo name");
            single.update_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates after kill-and-replay recovery ({routing:?})"
            );
        }
    }
}

/// Snapshots double as journal checkpoints: after an acknowledged snapshot
/// the journal holds only the batches since, and recovery of a later fault
/// replays `Restore{checkpoint}` + the tail — exercised here with a journal
/// cap too small to have held the whole stream, so only the checkpoint
/// path can make recovery succeed.
#[test]
fn snapshot_checkpoint_keeps_recovery_exact_beyond_the_journal_cap() {
    let fleet =
        ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2).expect("spawn fleet");
    let spec = SketchSpec::l0("knw-l0", EPS, 1 << 12, 7);
    let stream = updates(8_000);
    let config = ClusterConfig::tcp(fleet.addrs().iter().cloned(), None)
        .with_engine(EngineConfig::new(2).with_batch_size(256))
        .with_recovery(test_policy().with_journal_cap(3_000));
    let mut cluster = L0ClusterAggregator::start(&config, &spec).expect("connect");
    let mut single = build_l0(&spec).expect("zoo name");

    // First half: 4000 updates ≈ 2000 per shard — inside the cap.
    let (first, rest) = stream.split_at(4_000);
    cluster.ingest_batch(first);
    single.update_batch(first);
    // The acknowledged snapshot truncates both journals to checkpoints.
    assert_eq!(
        cluster.estimate().expect("snapshot").to_bits(),
        single.estimate().to_bits()
    );
    // Second half, then sever worker 1's connection: recovery must restore
    // the checkpoint and replay only the post-snapshot tail.
    cluster.ingest_batch(&rest[..2_000]);
    single.update_batch(&rest[..2_000]);
    cluster.kill_worker(1).expect("sever connection");
    let_fault_propagate();
    cluster.ingest_batch(&rest[2_000..]);
    single.update_batch(&rest[2_000..]);
    let merged = cluster.finish().expect("checkpointed recovery");
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// A journal that had to be discarded for its bound refuses recovery with
/// the typed `JournalOverflow` naming the worker and the cap — never a
/// silent partial merge.
#[test]
fn journal_overflow_is_a_typed_refusal() {
    let fleet =
        ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2).expect("spawn fleet");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let config = ClusterConfig::tcp(fleet.addrs().iter().cloned(), None)
        .with_engine(EngineConfig::new(2).with_batch_size(64))
        .with_recovery(test_policy().with_journal_cap(100));
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect");
    // Far beyond the cap, with no snapshot to truncate: journals overflow.
    cluster.ingest_batch(&items(4_000));
    cluster.kill_worker(0).expect("sever connection");
    let_fault_propagate();
    cluster.ingest_batch(&items(4_000));
    match cluster.finish() {
        Err(ClusterError::JournalOverflow { worker: 0, cap }) => assert_eq!(cap, 100),
        Err(other) => panic!("expected JournalOverflow, got {other:?}"),
        Ok(_) => panic!("an unreplayable shard must not report"),
    }
}

/// When the worker process is gone, nothing re-listens on its address and
/// no spare is registered, recovery exhausts its bounded retries and
/// surfaces the typed `RecoveryExhausted` — promptly, and stickily (a
/// retried report refuses with the same error instead of hanging or
/// merging a partial cluster).
#[test]
fn exhausted_recovery_is_typed_bounded_and_sticky() {
    let mut fleet =
        ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2).expect("spawn fleet");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let config = tcp_config(fleet.addrs(), RoutingPolicy::RoundRobin, None);
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect");
    cluster.ingest_batch(&items(3_000));
    fleet.kill(1).expect("kill worker process");
    let_fault_propagate();
    let started = Instant::now();
    cluster.ingest_batch(&items(3_000));
    match cluster.snapshot().map(|_| "a shard") {
        Err(ClusterError::RecoveryExhausted {
            worker: 1,
            attempts,
            ..
        }) => assert_eq!(attempts, 4),
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "exhausted recovery took {:?} to surface",
        started.elapsed()
    );
    // Sticky: the aggregator stays refused, with the same typed error.
    match cluster.snapshot().map(|_| "a shard") {
        Err(ClusterError::RecoveryExhausted { worker: 1, .. }) => {}
        other => panic!("expected a sticky RecoveryExhausted, got {other:?}"),
    }
}

/// Start-up runs the same reconnect loop as mid-stream recovery: with a
/// recovery policy, a worker address nothing listens on is retried under
/// the policy's backoff, then refused as the typed `RecoveryExhausted`
/// naming the worker and the attempts made — within a bounded interval.
#[test]
fn startup_retries_a_dead_address_until_recovery_exhausts() {
    let policy = test_policy();
    let config = tcp_config(&[dead_addr()], RoutingPolicy::RoundRobin, None);
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let started = Instant::now();
    match F0ClusterAggregator::start(&config, &spec).map(|_| "a fleet") {
        Err(ClusterError::RecoveryExhausted {
            worker: 0,
            attempts,
            ..
        }) => assert_eq!(attempts, policy.max_retries),
        other => panic!("expected RecoveryExhausted, got {other:?}"),
    }
    // Attempts 2..=max_retries each waited (n − 1) × backoff first.
    let backoff: u32 = (1..policy.max_retries as u32).sum();
    let elapsed = started.elapsed();
    assert!(
        elapsed >= policy.backoff * backoff,
        "no backoff: {elapsed:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
}

/// The pipe transport recovers by re-*spawning* a child process and
/// replaying the journal into it — same contract, no sockets involved.
#[test]
fn pipe_transport_recovers_by_respawning_the_child() {
    let config = ClusterConfig::pipe(3, WORKER_EXE)
        .with_engine(EngineConfig::new(3).with_batch_size(512))
        .with_recovery(test_policy());
    let spec = SketchSpec::l0("knw-l0", EPS, 1 << 12, 11);
    let stream = updates(9_000);
    let mut cluster = L0ClusterAggregator::start(&config, &spec).expect("spawn");
    let (first, rest) = stream.split_at(stream.len() / 2);
    cluster.ingest_batch(first);
    cluster.kill_worker(2).expect("kill child process");
    cluster.ingest_batch(rest);
    let merged = cluster.finish().expect("respawned recovery");
    let mut single = build_l0(&spec).expect("zoo name");
    single.update_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recovery edge ordering, property-based: a random fault schedule —
    /// sever worker `w`'s link after chunk `k`, keep streaming, snapshot at
    /// chunk `s` (possibly *while* the journal is still pending replay,
    /// possibly before the kill) — must leave **every** snapshot and the
    /// final report bit-identical to the single-process prefix folds.
    /// Reports wait for the in-flight recovery; a partial merge is never
    /// produced.
    #[test]
    fn fault_schedules_report_exact_prefixes(
        kill_chunk in 0usize..10,
        worker in 0usize..3,
        snap_chunk in 0usize..10,
        routing_seed in 0u64..4,
    ) {
        let routing = if routing_seed.is_multiple_of(2) {
            RoutingPolicy::RoundRobin
        } else {
            RoutingPolicy::HashAffine { seed: routing_seed }
        };
        let fleet = ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 3)
            .expect("spawn fleet");
        let spec = SketchSpec::l0("knw-l0", EPS, 1 << 12, 13);
        let stream = updates(5_000);
        let mut cluster = L0ClusterAggregator::start(
            &tcp_config(fleet.addrs(), routing, None),
            &spec,
        )
        .expect("connect 3 workers");
        let mut single = build_l0(&spec).expect("zoo name");

        for (chunk_index, chunk) in stream.chunks(500).enumerate() {
            cluster.ingest_batch(chunk);
            single.update_batch(chunk);
            if chunk_index == kill_chunk {
                cluster.kill_worker(worker).expect("sever link");
                let_fault_propagate();
            }
            if chunk_index == snap_chunk {
                // The snapshot may land mid-replay: it must wait for the
                // recovery and report the exact prefix, never a partial
                // cluster.
                let snapshot = cluster.estimate().expect("snapshot during fault schedule");
                prop_assert_eq!(
                    snapshot.to_bits(),
                    single.estimate().to_bits(),
                    "snapshot diverged (kill at {}, snap at {}, worker {})",
                    kill_chunk,
                    snap_chunk,
                    worker
                );
            }
        }
        let merged = cluster.finish().expect("clean recovered finish");
        prop_assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
    }
}

/// The spare-pool liveness probe: `take_address` order is FIFO, so
/// without a probe, recovery would adopt the *first* registered spare
/// even when it is dead — and a dead spare is not always a refused
/// connect (a kernel listen backlog happily completes handshakes for a
/// process that will never serve).  With the pool deliberately fronted
/// by a backlog-only fake and a killed spare, a **single** recovery
/// attempt must skip both and land on the live spare — bit-identically.
#[test]
fn recovery_probes_spares_and_lands_on_the_live_one() {
    use knw_cluster::register_worker;
    let mut fleet =
        ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", 2).expect("spawn fleet");
    let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
    let registry_addr = registry.local_addr().to_string();

    // Spare 1 (popped first): a listen backlog with no serve loop behind
    // it — connects succeed, the probe's greeting goes unanswered.
    let backlog_only = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake spare");
    let fake_addr = backlog_only.local_addr().expect("addr").to_string();
    register_worker(&registry_addr, &fake_addr).expect("register fake spare");
    // The announcement is processed by the registry's accept thread;
    // wait for it so the fake is guaranteed to be popped first.
    for _ in 0..400 {
        if registry.available() >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(registry.available(), 1, "fake spare queued first");
    // Spare 2: a real worker, registered and then killed — its connect is
    // refused outright.
    let killed = spawn_registered_spare(&registry);
    drop(killed);
    // Spare 3: the live one recovery must land on.
    let _live = spawn_registered_spare(&registry);
    assert_eq!(registry.available(), 3, "all three spares queued");

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let stream = items(12_000);
    // max_retries = 1: the single allowed attempt must already skip the
    // dead spares via the probe — burning the attempt on the backlog-only
    // fake (a replay whose reply never comes) would exhaust recovery.
    let config = ClusterConfig::tcp(fleet.addrs().iter().cloned(), Some(Arc::clone(&registry)))
        .with_engine(EngineConfig::new(fleet.addrs().len()).with_batch_size(512))
        .with_recovery(
            RecoveryPolicy::default()
                .with_max_retries(1)
                .with_backoff(Duration::from_millis(50)),
        )
        .with_io_timeout(Some(Duration::from_millis(400)));
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect 2 workers");

    let (first, rest) = stream.split_at(stream.len() / 2);
    for chunk in first.chunks(1_111) {
        cluster.ingest_batch(chunk);
    }
    fleet.kill(0).expect("kill worker process");
    let_fault_propagate();
    for chunk in rest.chunks(1_111) {
        cluster.ingest_batch(chunk);
    }
    let merged = cluster.finish().expect("recovery lands on the live spare");

    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(
        merged.estimate().to_bits(),
        single.estimate().to_bits(),
        "recovered run must stay bit-identical"
    );
}
