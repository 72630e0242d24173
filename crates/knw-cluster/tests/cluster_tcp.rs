//! The socket-transport acceptance tests: a 4-worker **TCP** run — real
//! `knw-worker --listen` processes serving the frame protocol on localhost
//! sockets — produces estimates bit-identical to the single-stream run for
//! every estimator in both the F0 and L0 zoos, under both routing
//! policies; and every socket failure mode (killed worker, refused
//! connection, stalled half-open peer) surfaces as a typed `ClusterError`
//! naming the failing worker, within a bounded timeout.
//!
//! Runs in CI (`cargo test -p knw-cluster --test cluster_tcp`); needs
//! nothing but process spawning and the loopback interface.

use knw_cluster::ListeningWorkerFleet;
use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, ClusterConfig, ClusterError,
    F0ClusterAggregator, L0ClusterAggregator, SketchSpec,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

mod common;
use common::{dead_addr, items, updates, EPS, UNIVERSE, WORKER_EXE};

const SEED: u64 = 2026;

/// Spawns `count` listening workers on free localhost ports (reaped on
/// drop by the shared fleet helper).
fn listen(count: usize) -> ListeningWorkerFleet {
    ListeningWorkerFleet::spawn(WORKER_EXE.as_ref(), "127.0.0.1:0", count)
        .expect("spawn listening workers")
}

/// The test-sized TCP cluster configuration over a fleet's addresses.
fn config(
    fleet: &ListeningWorkerFleet,
    routing: RoutingPolicy,
    precoalesce: bool,
) -> ClusterConfig {
    ClusterConfig::tcp(fleet.addrs().iter().cloned(), None).with_engine(
        EngineConfig::new(fleet.addrs().len())
            .with_batch_size(1024)
            .with_routing(routing)
            .with_precoalesce(precoalesce),
    )
}

/// Acceptance criterion, F0 half: for every estimator in the zoo, 4 TCP
/// workers + merge == one process, bit for bit, under both routing
/// policies.  All runs share one worker fleet, so this also proves the
/// serve loop survives many sequential sessions.
#[test]
fn four_worker_tcp_run_is_bit_identical_for_every_f0_estimator() {
    let fleet = listen(4);
    let stream = items(20_000);
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::HashAffine { seed: 3 },
    ] {
        for &name in f0_estimator_names() {
            let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
            let mut cluster = F0ClusterAggregator::start(&config(&fleet, routing, false), &spec)
                .expect("connect 4 workers");
            for chunk in stream.chunks(3_331) {
                cluster.ingest_batch(chunk);
            }
            assert_eq!(cluster.items_ingested(), stream.len() as u64);
            let merged = cluster.finish().expect("clean 4-worker TCP run");

            let mut single = build_f0(&spec).expect("zoo name");
            single.insert_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates from the single-process run over TCP ({routing:?})"
            );
        }
    }
}

/// Acceptance criterion, L0 half: same property over signed turnstile
/// streams — including hash-affine (by-item) routing and aggregator-side
/// pre-coalescing, both of which must leave the estimate bit-identical.
#[test]
fn four_worker_tcp_run_is_bit_identical_for_every_l0_estimator() {
    let fleet = listen(4);
    let stream = updates(20_000);
    for (routing, precoalesce) in [
        (RoutingPolicy::RoundRobin, false),
        (RoutingPolicy::RoundRobin, true),
        (RoutingPolicy::HashAffine { seed: 9 }, false),
    ] {
        for &name in l0_estimator_names() {
            let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
            let mut cluster =
                L0ClusterAggregator::start(&config(&fleet, routing, precoalesce), &spec)
                    .expect("connect 4 workers");
            for chunk in stream.chunks(2_777) {
                cluster.ingest_batch(chunk);
            }
            let merged = cluster.finish().expect("clean 4-worker TCP run");

            let mut single = build_l0(&spec).expect("zoo name");
            single.update_batch(&stream);
            assert_eq!(
                merged.estimate().to_bits(),
                single.estimate().to_bits(),
                "{name} deviates from the single-process run over TCP \
                 ({routing:?}, precoalesce {precoalesce})"
            );
        }
    }
}

/// Midstream reporting over sockets: snapshots (serialized shards + locally
/// buffered updates) track the single-process prefix estimate exactly, and
/// the connections keep streaming afterwards.
#[test]
fn tcp_snapshots_track_the_stream_exactly() {
    let fleet = listen(3);
    let spec = SketchSpec::f0("knw-f0", 0.05, 1 << 20, 11);
    let stream = items(30_000);
    let mut cluster =
        F0ClusterAggregator::start(&config(&fleet, RoutingPolicy::RoundRobin, false), &spec)
            .expect("connect");
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

/// A default TCP configuration (the address list alone: default engine
/// knobs, timeouts, no recovery) works end to end against a listening
/// fleet.
#[test]
fn connect_workers_front_aggregates_cleanly() {
    let fleet = listen(2);
    let spec = SketchSpec::f0("hyperloglog", EPS, UNIVERSE, SEED);
    let stream = items(5_000);
    let config = ClusterConfig::tcp(fleet.addrs().iter().cloned(), None);
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect");
    cluster.ingest_batch(&stream);
    let merged = cluster.finish().expect("clean run");
    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// Fault injection: killing a worker *process* mid-stream surfaces a typed
/// `WorkerDied` naming the worker — the socket mirror of the pipe
/// transport's broken-pipe detection — instead of a silent undercount or a
/// hang.
#[test]
fn killed_tcp_worker_surfaces_worker_died() {
    let mut fleet = listen(4);
    let spec = SketchSpec::l0("knw-l0", 0.2, 1 << 12, 5);
    let mut cluster =
        L0ClusterAggregator::start(&config(&fleet, RoutingPolicy::RoundRobin, false), &spec)
            .expect("connect");
    cluster.ingest_batch(&updates(5_000));
    fleet.kill(2).expect("kill worker process");
    // Let the peer's FIN/RST reach our socket before streaming on.
    std::thread::sleep(Duration::from_millis(100));
    cluster.ingest_batch(&updates(5_000));
    match cluster.finish() {
        Err(ClusterError::WorkerDied { worker }) => assert_eq!(worker, 2),
        Err(other) => panic!("expected WorkerDied, got {other:?}"),
        Ok(_) => panic!("a run missing a shard must not report"),
    }
}

/// An empty address list without a registry pool is refused typed
/// (`with_shards` clamps zero to one shard, so without the guard this
/// would reach `open(0)`).
#[test]
fn empty_address_list_is_a_typed_error() {
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    match F0ClusterAggregator::start(&ClusterConfig::tcp(Vec::<String>::new(), None), &spec) {
        Err(ClusterError::Io { worker: None, .. }) => {}
        Err(other) => panic!("expected a typed Io error, got {other:?}"),
        Ok(_) => panic!("an empty cluster must not spawn"),
    }
}

/// Fault injection: an address with nothing listening is a typed
/// `ConnectFailed` naming the worker index and address, raised before any
/// frame flows — and refused connections fail fast, not at some distant
/// timeout.
#[test]
fn connection_refused_is_typed_connect_failed() {
    let dead_addr = dead_addr();
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let started = Instant::now();
    match F0ClusterAggregator::start(&ClusterConfig::tcp([dead_addr.clone()], None), &spec) {
        Err(ClusterError::ConnectFailed { worker, addr, .. }) => {
            assert_eq!(worker, 0);
            assert_eq!(addr, dead_addr);
        }
        Err(other) => panic!("expected ConnectFailed, got {other:?}"),
        Ok(_) => panic!("connecting to a dead port must fail"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "refused connection took {:?} to surface",
        started.elapsed()
    );
}

/// Fault injection: a half-open / stalled peer — accepts the connection,
/// never answers — trips the transport's read timeout as a typed
/// `Timeout` naming the worker, within a bounded interval.  No hangs.
#[test]
fn stalled_peer_times_out_with_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // The stalled "worker": accepts, holds the socket open, never replies.
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(30));
        drop(stream);
    });

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let config = ClusterConfig::tcp([addr], None).with_io_timeout(Some(Duration::from_millis(300)));
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect");
    cluster.ingest_batch(&items(1_000));
    let started = Instant::now();
    match cluster.finish() {
        Err(ClusterError::Timeout { worker }) => assert_eq!(worker, 0),
        Err(other) => panic!("expected Timeout, got {other:?}"),
        Ok(_) => panic!("a stalled worker must not produce a report"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "stalled peer took {:?} to surface",
        started.elapsed()
    );
}

/// A worker handed an address it can never bind exits before printing
/// its `listening on` banner.  The spawn helper must surface that as a
/// prompt typed error (with the child reaped and its exit status in the
/// message) — not block forever on the banner read.
#[test]
fn worker_that_exits_before_its_banner_is_a_typed_spawn_error() {
    use knw_cluster::spawn_listening_worker;
    // TEST-NET-3 (RFC 5737): never assigned to a local interface, so the
    // child's bind fails immediately and it exits without a banner.
    let started = Instant::now();
    let err = spawn_listening_worker(WORKER_EXE.as_ref(), "203.0.113.7:9", &[])
        .expect_err("an un-bindable address must fail the spawn");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        err.to_string()
            .contains("exited before printing its banner"),
        "{err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "banner failure took {:?} to surface",
        started.elapsed()
    );
}

/// The desync half of the timeout taxonomy: a peer that answers with
/// *half a frame* and then stalls leaves the link desynchronized — part
/// of the reply was already consumed when the read deadline fired, so
/// resuming reads in place would misparse leftover bytes as a fresh
/// length prefix.  That must surface as the typed `Desynced` (a link
/// fault recovery may re-dial and replay), never as the in-place
/// recoverable `Timeout` and never as a silent misparse.
#[test]
fn mid_frame_stall_is_a_typed_desync_not_a_timeout() {
    use knw_cluster::{read_frame, write_frame, Frame};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // The desyncing "worker": protocol-fluent until the report, then
    // sends half a Shard reply and stalls inside the frame.
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = stream.try_clone().expect("clone");
        let mut writer = stream;
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            if matches!(frame, Frame::Finish | Frame::Snapshot) {
                let mut reply = Vec::new();
                write_frame(&mut reply, &Frame::Shard(vec![0xAB; 512])).expect("encode");
                writer
                    .write_all(&reply[..reply.len() / 2])
                    .expect("send half the reply");
                writer.flush().expect("flush");
                std::thread::sleep(Duration::from_secs(30));
            }
        }
    });

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let config = ClusterConfig::tcp([addr], None).with_io_timeout(Some(Duration::from_millis(300)));
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect");
    cluster.ingest_batch(&items(1_000));
    let started = Instant::now();
    match cluster.finish() {
        Err(ClusterError::Desynced { worker }) => assert_eq!(worker, 0),
        Err(other) => panic!("expected Desynced, got {other:?}"),
        Ok(_) => panic!("a desynced link must not produce a report"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "mid-frame stall took {:?} to surface",
        started.elapsed()
    );
}

/// A failed snapshot poisons the aggregator: the conversation may have
/// reply frames still queued on some links, so a retried report must
/// refuse with a typed error instead of silently merging stale shards.
#[test]
fn failed_snapshot_poisons_later_reports() {
    use knw_cluster::{read_frame, write_frame, Frame};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // A protocol-fluent but faulty "worker": consumes frames normally,
    // answers every Snapshot with an Err frame.
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = stream.try_clone().expect("clone");
        let mut writer = stream;
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            if matches!(frame, Frame::Snapshot) {
                write_frame(&mut writer, &Frame::Err("injected fault".into())).expect("reply");
            }
        }
    });

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut cluster = F0ClusterAggregator::start(&ClusterConfig::tcp([addr], None), &spec)
        .expect("connect faulty worker");
    cluster.ingest_batch(&items(1_000));
    match cluster.snapshot().map(|_| "a shard") {
        Err(ClusterError::WorkerReported { worker: 0, message }) => {
            assert!(message.contains("injected"));
        }
        other => panic!("expected WorkerReported, got {other:?}"),
    }
    // The retry must refuse — the link is desynchronized, not recovered.
    match cluster.snapshot().map(|_| "a shard") {
        Err(ClusterError::Protocol { worker: 0, got, .. }) => {
            assert!(got.contains("desynchronized"), "{got}");
        }
        other => panic!("expected a sticky Protocol refusal, got {other:?}"),
    }
}

/// The serve loop is robust to misbehaving clients: a connection that
/// sends garbage (the worker reports an `Err` frame and logs the session)
/// must not take the worker down — the next, well-behaved aggregation
/// succeeds against the same worker.
#[test]
fn serve_loop_survives_a_garbage_client() {
    let fleet = listen(1);
    {
        let mut garbage = TcpStream::connect(&fleet.addrs()[0]).expect("connect raw");
        garbage
            .write_all(&[9, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2, 3, 4])
            .expect("write garbage");
        // The worker answers with an Err frame and closes the session.
        let reply = knw_cluster::read_frame(&mut garbage).expect("read reply");
        match reply {
            Some(knw_cluster::Frame::Err(message)) => assert!(!message.is_empty()),
            other => panic!("expected an Err frame, got {other:?}"),
        }
    }

    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let stream = items(5_000);
    let mut cluster = F0ClusterAggregator::start(
        &ClusterConfig::tcp(fleet.addrs().iter().cloned(), None),
        &spec,
    )
    .expect("connect after garbage");
    cluster.ingest_batch(&stream);
    let merged = cluster.finish().expect("clean run after a garbage client");
    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}
