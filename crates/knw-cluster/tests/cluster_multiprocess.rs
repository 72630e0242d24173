//! The acceptance-criterion integration test: a 4-worker **multi-process**
//! run — real spawned child processes exchanging serialized shards over the
//! frame protocol — produces estimates bit-identical to the single-stream
//! run for every estimator in both the F0 and L0 zoos.
//!
//! Runs in CI (`cargo test -p knw-cluster`); needs nothing but process
//! spawning.  `CARGO_BIN_EXE_knw-worker` points at the worker binary cargo
//! builds alongside these tests.

use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, ClusterConfig, ClusterError,
    F0ClusterAggregator, L0ClusterAggregator, SketchSpec,
};
use knw_engine::{EngineConfig, RoutingPolicy};

mod common;
use common::{items, updates, EPS, UNIVERSE, WORKER_EXE};

const SEED: u64 = 2026;

fn config(workers: usize, routing: RoutingPolicy, precoalesce: bool) -> ClusterConfig {
    ClusterConfig::pipe(workers, WORKER_EXE).with_engine(
        EngineConfig::new(workers)
            .with_batch_size(1024)
            .with_routing(routing)
            .with_precoalesce(precoalesce),
    )
}

/// Acceptance criterion, F0 half: for every estimator in the zoo, 4 worker
/// processes + merge == one process, bit for bit, under both routing
/// policies.
#[test]
fn four_process_run_is_bit_identical_for_every_f0_estimator() {
    let stream = items(20_000);
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 3 },
    ] {
        for &name in f0_estimator_names() {
            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            let mut cluster = F0ClusterAggregator::start(&config(4, routing, false), &spec)
                .expect("spawn 4 workers");
            for chunk in stream.chunks(3_331) {
                cluster.ingest_batch(chunk);
            }
            assert_eq!(cluster.items_ingested(), stream.len() as u64);
            let merged = cluster.finish().expect("clean 4-process run");

            let mut single = build_f0(&spec).expect("zoo name");
            single.insert_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates from the single-process run ({routing:?})"
            );
        }
    }
}

/// Acceptance criterion, L0 half: same property over signed turnstile
/// streams — including hash-affine (by-item) routing and aggregator-side
/// pre-coalescing, both of which must leave the estimate bit-identical.
#[test]
fn four_process_run_is_bit_identical_for_every_l0_estimator() {
    let stream = updates(20_000);
    for (routing, precoalesce) in [
        (RoutingPolicy::RoundRobin, false),
        (RoutingPolicy::RoundRobin, true),
        (RoutingPolicy::HashAffine { seed: 9 }, false),
    ] {
        for &name in l0_estimator_names() {
            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            let mut cluster = L0ClusterAggregator::start(&config(4, routing, precoalesce), &spec)
                .expect("spawn 4 workers");
            for chunk in stream.chunks(2_777) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("clean 4-process run");

            let mut single = build_l0(&spec).expect("zoo name");
            single.update_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates from the single-process run \
                 ({routing:?}, precoalesce {precoalesce})"
            );
        }
    }
}

/// Midstream reporting: a snapshot (serialized shards + locally buffered
/// updates) reproduces the single-process prefix estimate exactly, and the
/// cluster keeps running afterwards.
#[test]
fn midstream_snapshots_track_the_stream_exactly() {
    let spec = SketchSpec::f0("knw-f0", 0.05, 1 << 20, 11);
    let stream = items(30_000);
    let mut cluster =
        F0ClusterAggregator::start(&config(3, RoutingPolicy::RoundRobin, false), &spec)
            .expect("spawn");
    let mut single = build_f0(&spec).expect("zoo name");
    for (round, chunk) in stream.chunks(10_000).enumerate() {
        cluster.ingest_batch(chunk);
        single.insert_batch(chunk);
        assert_eq!(
            cluster.estimate().expect("snapshot").to_bits(),
            single.estimate().to_bits(),
            "snapshot diverged in round {round}"
        );
    }
    let merged = cluster.finish().expect("clean finish");
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// Fault injection: killing a worker mid-stream surfaces a typed
/// `WorkerDied` (the multi-process mirror of `SketchError::ShardPanicked`)
/// instead of a silent undercount or a hang.
#[test]
fn killed_worker_surfaces_worker_died() {
    let spec = SketchSpec::l0("knw-l0", 0.2, 1 << 12, 5);
    let mut cluster =
        L0ClusterAggregator::start(&config(4, RoutingPolicy::RoundRobin, false), &spec)
            .expect("spawn");
    cluster.ingest_batch(&updates(5_000));
    cluster.kill_worker(2).expect("kill");
    // Keep streaming; the broken pipe is detected on write or at finish.
    cluster.ingest_batch(&updates(5_000));
    match cluster.finish() {
        Err(ClusterError::WorkerDied { worker }) => assert_eq!(worker, 2),
        Err(other) => panic!("expected WorkerDied, got {other:?}"),
        Ok(_) => panic!("a run missing a shard must not report"),
    }
}

/// A spec naming a sketch outside the zoo is rejected before any process
/// is spawned.
#[test]
fn unknown_estimator_fails_fast_without_spawning() {
    let spec = SketchSpec::f0("no-such-sketch", EPS, UNIVERSE, SEED);
    match F0ClusterAggregator::start(&config(2, RoutingPolicy::RoundRobin, false), &spec) {
        Err(ClusterError::UnknownEstimator { name }) => assert_eq!(name, "no-such-sketch"),
        Err(other) => panic!("expected UnknownEstimator, got {other:?}"),
        Ok(_) => panic!("bogus spec must not spawn"),
    }
}

/// The worker binary reports garbage input as an `Err` frame and exits
/// nonzero — a crashed aggregator cannot wedge a worker, and a corrupted
/// pipe cannot panic it.
#[test]
fn worker_binary_reports_garbage_and_exits_nonzero() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(WORKER_EXE)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(&[9, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2, 3, 4])
        .expect("write garbage");
    let output = child.wait_with_output().expect("worker exits");
    assert!(!output.status.success(), "worker accepted garbage");
    let mut reply = output.stdout.as_slice();
    match knw_cluster::read_frame(&mut reply) {
        Ok(Some(knw_cluster::Frame::Err(message))) => {
            assert!(!message.is_empty());
        }
        other => panic!("expected an Err frame, got {other:?}"),
    }
}

/// Hash-affine routing puts every occurrence of an item on the same worker
/// even across processes: the per-worker shards of a cluster run match a
/// `partition_by_item`-style pre-partition fed to local sketches.
#[test]
fn hash_affine_cluster_matches_the_local_partition() {
    let seed = 0u64; // seed 0 == knw_stream::partition_by_item
    let spec = SketchSpec::l0("knw-l0", 0.2, 1 << 12, 31);
    let stream = updates(12_000);
    let shards = 3usize;

    // Cluster run under hash-affine routing.
    let mut cluster = L0ClusterAggregator::start(
        &config(shards, RoutingPolicy::HashAffine { seed }, false),
        &spec,
    )
    .expect("spawn");
    cluster.ingest_batch(&stream);
    let merged = cluster.finish().expect("clean run");

    // Local reference: pre-partition by item, one sketch per part, merge.
    let parts = knw_stream::partition_updates_by_item(&stream, shards);
    let mut local = build_l0(&spec).expect("zoo name");
    for part in &parts {
        let mut shard = build_l0(&spec).expect("zoo name");
        shard.update_batch(part);
        // Merge through the same dyn contract the aggregator uses.
        <(u64, i64) as knw_cluster::ClusterUpdate>::merge(local.as_mut(), shard.as_ref())
            .expect("compatible shards");
    }
    assert_eq!(merged.estimate().to_bits(), local.estimate().to_bits());
}
