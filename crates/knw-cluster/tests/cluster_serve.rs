//! The multi-session serve-loop acceptance tests: hundreds-to-thousands
//! of **concurrent** client sessions multiplexed by one nonblocking
//! event loop over one shared worker fleet — no thread per session on
//! either side — leaving the aggregate bit-identical to a single-process
//! run over the union of the session streams, with bounded write queues
//! and typed fault surfacing (including the mid-frame-stall desync).
//!
//! The serve loop is epoll-based, so this file is Linux-only (as is the
//! module it tests).
#![cfg(target_os = "linux")]

use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, f0_shard_from_bytes, l0_estimator_names,
    l0_shard_from_bytes, read_frame, serve_sessions, write_frame, ClusterConfig, ClusterError,
    ClusterUpdate, F0ClusterAggregator, Frame, L0ClusterAggregator, SessionServeOptions,
    SketchSpec,
};
use knw_cluster::{drive_sessions, ClusterAggregator};
use knw_engine::EngineConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{items, updates, EPS, UNIVERSE, WORKER_EXE};

const SEED: u64 = 2026;
const DEADLINE: Duration = Duration::from_secs(120);

fn config(workers: usize) -> ClusterConfig {
    ClusterConfig::pipe(workers, WORKER_EXE)
        .with_engine(EngineConfig::new(workers).with_batch_size(1024))
}

/// Splits a stream into `sessions` per-session slices (the union of the
/// slices is the whole stream).
fn split<U: Clone>(stream: &[U], sessions: usize) -> Vec<Vec<U>> {
    let per = stream.len().div_ceil(sessions);
    stream.chunks(per.max(1)).map(<[U]>::to_vec).collect()
}

/// Runs `serve_sessions` over a fresh pipe-backed aggregator on a server
/// thread, drives `streams` concurrent client sessions against it, and
/// returns `(serve stats, drive stats, final merged shard wire bytes)`;
/// callers deserialize the bytes and compare **estimate bits** against a
/// single-process fold (the workspace's bit-identity witness — serialized
/// layouts of sample-keeping sketches are insertion-order dependent, the
/// estimates are not).
fn serve_and_drive<U, A>(
    spec: &SketchSpec,
    streams: Vec<Vec<U>>,
    batch: usize,
    snapshot_every: Option<usize>,
    spawn: A,
    options: SessionServeOptions,
) -> (knw_cluster::ServeStats, knw_cluster::DriveStats, Vec<u8>)
where
    U: ClusterUpdate + Send + 'static,
    A: FnOnce(&SketchSpec) -> ClusterAggregator<U>,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind serve listener");
    let addr = listener.local_addr().expect("addr").to_string();
    let sessions = streams.len();
    let mut aggregator = spawn(spec);
    let options = options.with_max_sessions(sessions);
    let server = std::thread::spawn(move || {
        let stats = serve_sessions(&listener, &mut aggregator, &options)
            .expect("serve loop completes cleanly");
        let merged = aggregator.finish().expect("post-serve finish");
        (stats, U::shard_bytes(merged.as_ref()))
    });
    let drive = drive_sessions::<U>(&addr, spec, &streams, batch, snapshot_every, DEADLINE)
        .expect("all sessions complete");
    let (stats, merged_bytes) = server.join().expect("server thread");
    (stats, drive, merged_bytes)
}

/// One scrape of a metrics endpoint: connect, send a minimal GET, return
/// the exposition body (headers stripped).  `None` on any failure — the
/// caller retries; a scrape is never load-bearing.
fn scrape(addr: &SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: soak\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (_, body) = response.split_once("\r\n\r\n")?;
    Some(body.to_string())
}

/// The value of an unlabelled counter in a Prometheus-text exposition.
fn counter_value(body: &str, family: &str) -> u64 {
    body.lines()
        .find_map(|line| {
            line.strip_prefix(family)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|value| value.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The sum of a labelled counter family (e.g. per-shard counters) in a
/// Prometheus-text exposition.
fn labelled_counter_sum(body: &str, family: &str) -> u64 {
    body.lines()
        .filter(|line| line.starts_with(family) && line[family.len()..].starts_with('{'))
        .filter_map(|line| {
            line.rsplit_once(' ')
                .and_then(|(_, v)| v.parse::<u64>().ok())
        })
        .sum()
}

/// Tentpole soak, F0 half: 1 000 concurrent sessions over one shared
/// fleet, one serve thread, one drive thread — bounded queues, every
/// session served, and the aggregate bit-identical to a single-process
/// fold of the union stream.  A scraper thread hits the `--metrics`-style
/// exposition listener (multiplexed on the same epoll loop) **while the
/// soak runs**, proving the endpoint answers under full session load.
#[test]
fn a_thousand_concurrent_f0_sessions_aggregate_bit_identically() {
    const SESSIONS: usize = 1_000;
    let stream = items(1_000_000);
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let metrics_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics listener");
    let metrics_addr = metrics_listener.local_addr().expect("metrics addr");
    let options = SessionServeOptions::default()
        .with_max_write_queue(1 << 16)
        .with_metrics_listener(Arc::new(metrics_listener));
    // Scrape until the serve loop reports live traffic (the global
    // registry is process-wide and other tests also feed it, so the
    // assertions are non-zero floors, not exact counts).
    let scraper = std::thread::spawn(move || {
        let deadline = Instant::now() + DEADLINE;
        let mut last = None;
        while Instant::now() < deadline {
            if let Some(body) = scrape(&metrics_addr) {
                let live = counter_value(&body, "knw_serve_sessions_served_total") > 0
                    && counter_value(&body, "knw_serve_batches_ingested_total") > 0
                    && labelled_counter_sum(&body, "knw_cluster_shard_batches_total") > 0;
                last = Some(body);
                if live {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        last
    });
    let (stats, drive, merged_bytes) = serve_and_drive(
        &spec,
        split(&stream, SESSIONS),
        512,
        None,
        |spec| F0ClusterAggregator::start(&config(2), spec).expect("spawn fleet"),
        options.clone(),
    );

    let body = scraper
        .join()
        .expect("scraper thread")
        .expect("the metrics endpoint answered mid-soak");
    assert!(
        body.contains("# TYPE knw_serve_sessions_served_total counter"),
        "exposition carries typed serve counters: {body}"
    );
    assert!(
        counter_value(&body, "knw_serve_sessions_served_total") > 0,
        "mid-soak scrape saw served sessions: {body}"
    );
    assert!(
        counter_value(&body, "knw_serve_batches_ingested_total") > 0,
        "mid-soak scrape saw ingested batches: {body}"
    );
    assert!(
        labelled_counter_sum(&body, "knw_cluster_shard_batches_total") > 0,
        "mid-soak scrape saw per-shard dispatch counters: {body}"
    );

    assert_eq!(stats.sessions_served, SESSIONS, "{stats:?}");
    assert_eq!(stats.sessions_errored, 0, "{stats:?}");
    assert_eq!(stats.updates_ingested, stream.len() as u64);
    assert_eq!(drive.sessions, SESSIONS);
    assert_eq!(drive.shard_replies, SESSIONS, "one Finish shard each");
    // Drive-side accounting: one Hello and one Finish per session plus
    // every Batch frame, and a non-trivial peak client write queue.
    assert!(
        drive.frames_sent >= (2 * SESSIONS + stream.len() / 512) as u64,
        "hello + finish + batch frames all counted: {drive:?}"
    );
    assert!(drive.peak_queued_bytes > 0, "{drive:?}");
    assert!(
        stats.peak_concurrent > 1,
        "sessions must overlap, not serialize: {stats:?}"
    );
    // The write-queue bound holds up to one in-flight reply frame.
    assert!(
        stats.peak_write_queue_bytes <= options.max_write_queue + (64 << 10),
        "write queues must stay bounded: {stats:?}"
    );

    let merged = f0_shard_from_bytes(&spec, &merged_bytes).expect("merged shard decodes");
    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(
        merged.estimate().to_bits(),
        single.estimate().to_bits(),
        "1k interleaved sessions must be bit-identical to one process"
    );
}

/// Tentpole soak, L0 half: the same property over signed turnstile
/// streams.  The soak uses the compact `ganguly-l0` shard (~17 KB on the
/// wire) — every `Finish` ships the merged shard back, and 1 000 copies
/// of the ~11 MB `knw-l0` shard would measure loopback bandwidth, not
/// the serve loop; `knw-l0` runs the same concurrency path in
/// `every_zoo_member_serves_concurrent_sessions_bit_identically`.
#[test]
fn a_thousand_concurrent_l0_sessions_aggregate_bit_identically() {
    const SESSIONS: usize = 1_000;
    let stream = updates(500_000);
    let spec = SketchSpec::l0("ganguly-l0", EPS, UNIVERSE, SEED);
    let (stats, drive, merged_bytes) = serve_and_drive(
        &spec,
        split(&stream, SESSIONS),
        256,
        None,
        |spec| L0ClusterAggregator::start(&config(2), spec).expect("spawn fleet"),
        SessionServeOptions::default(),
    );

    assert_eq!(stats.sessions_served, SESSIONS, "{stats:?}");
    assert_eq!(stats.updates_ingested, stream.len() as u64);
    assert_eq!(drive.sessions, SESSIONS);

    let merged = l0_shard_from_bytes(&spec, &merged_bytes).expect("merged shard decodes");
    let mut single = build_l0(&spec).expect("zoo name");
    single.update_batch(&stream);
    assert_eq!(
        merged.estimate().to_bits(),
        single.estimate().to_bits(),
        "1k interleaved turnstile sessions must be bit-identical"
    );
}

/// Every estimator in both zoos round-trips through concurrent sessions
/// bit-identically (smaller session counts; the 1k soaks above are the
/// scale proof).
#[test]
fn every_zoo_member_serves_concurrent_sessions_bit_identically() {
    let f0_stream = items(20_000);
    for &name in f0_estimator_names() {
        let spec = SketchSpec::f0(name, EPS, UNIVERSE, SEED);
        let (stats, _, merged_bytes) = serve_and_drive(
            &spec,
            split(&f0_stream, 16),
            333,
            None,
            |spec| F0ClusterAggregator::start(&config(2), spec).expect("spawn fleet"),
            SessionServeOptions::default(),
        );
        assert_eq!(stats.sessions_served, 16, "{name}: {stats:?}");
        let merged = f0_shard_from_bytes(&spec, &merged_bytes).expect("merged shard decodes");
        let mut single = build_f0(&spec).expect("zoo name");
        single.insert_batch(&f0_stream);
        assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "{name} deviates from the single-process run"
        );
    }

    let l0_stream = updates(20_000);
    for &name in l0_estimator_names() {
        let spec = SketchSpec::l0(name, EPS, UNIVERSE, SEED);
        let (stats, _, merged_bytes) = serve_and_drive(
            &spec,
            split(&l0_stream, 16),
            271,
            None,
            |spec| L0ClusterAggregator::start(&config(2), spec).expect("spawn fleet"),
            SessionServeOptions::default(),
        );
        assert_eq!(stats.sessions_served, 16, "{name}: {stats:?}");
        let merged = l0_shard_from_bytes(&spec, &merged_bytes).expect("merged shard decodes");
        let mut single = build_l0(&spec).expect("zoo name");
        single.update_batch(&l0_stream);
        assert_eq!(
            merged.estimate().to_bits(),
            single.estimate().to_bits(),
            "{name} deviates from the single-process run"
        );
    }
}

/// Midstream `Snapshot` requests are answered with point-in-time merged
/// shards while the sessions keep streaming, and the final estimate is
/// unaffected by how often sessions snapshot.
#[test]
fn midstream_snapshots_are_served_without_disturbing_the_aggregate() {
    let stream = items(40_000);
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let (stats, drive, merged_bytes) = serve_and_drive(
        &spec,
        split(&stream, 32),
        250,
        Some(2),
        |spec| F0ClusterAggregator::start(&config(2), spec).expect("spawn fleet"),
        SessionServeOptions::default(),
    );
    assert_eq!(stats.sessions_served, 32, "{stats:?}");
    assert!(
        drive.shard_replies > 32,
        "midstream snapshots must add shard replies: {drive:?}"
    );
    assert_eq!(stats.snapshots_served, drive.shard_replies as u64);

    let merged = f0_shard_from_bytes(&spec, &merged_bytes).expect("merged shard decodes");
    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&stream);
    assert_eq!(merged.estimate().to_bits(), single.estimate().to_bits());
}

/// A client whose `Hello` carries the wrong spec is refused with a typed
/// `Err` frame instead of silently polluting the shared aggregate.
#[test]
fn spec_mismatch_is_refused_with_a_typed_err_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let serve_spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut aggregator = F0ClusterAggregator::start(&config(2), &serve_spec).expect("spawn fleet");
    let options = SessionServeOptions::default().with_max_sessions(1);
    let server = std::thread::spawn(move || {
        let stats = serve_sessions(&listener, &mut aggregator, &options).expect("serve");
        drop(aggregator);
        stats
    });

    let wrong_spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED + 1);
    let streams = vec![items(100)];
    let err = drive_sessions::<u64>(&addr, &wrong_spec, &streams, 64, None, DEADLINE)
        .expect_err("mismatched spec must be refused");
    match err {
        ClusterError::WorkerReported { message, .. } => {
            assert!(message.contains("spec"), "unexpected message: {message}");
        }
        other => panic!("expected WorkerReported, got {other}"),
    }
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions_errored, 1, "{stats:?}");
}

/// The serve-side half of the desync taxonomy: a client that sends half a
/// frame and then stalls is surfaced as a *desynchronized* session — a
/// typed `Err` frame naming the mid-frame stall, never a misparse or a
/// hang.
#[test]
fn mid_frame_client_stall_is_surfaced_as_desync() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut aggregator = F0ClusterAggregator::start(&config(2), &spec).expect("spawn fleet");
    let options = SessionServeOptions::default()
        .with_max_sessions(1)
        .with_idle_timeout(Some(Duration::from_millis(300)));
    let server = std::thread::spawn(move || {
        let stats = serve_sessions(&listener, &mut aggregator, &options).expect("serve");
        drop(aggregator);
        stats
    });

    let mut client = TcpStream::connect(addr).expect("connect");
    let mut hello = Vec::new();
    write_frame(
        &mut hello,
        &Frame::Hello(knw_cluster::HelloConfig {
            worker_index: 0,
            spec: spec.clone(),
        }),
    )
    .expect("encode hello");
    let mut batch = Vec::new();
    write_frame(&mut batch, &Frame::Batch(u64::payload(vec![1, 2, 3, 4]))).expect("encode batch");
    client.write_all(&hello).expect("send hello");
    // Half a Batch frame, then silence: the session is now mid-frame.
    client
        .write_all(&batch[..batch.len() / 2])
        .expect("half frame");
    client.flush().expect("flush");

    let reply = read_frame(&mut client)
        .expect("typed Err frame, not a hang")
        .expect("a frame, not EOF");
    match reply {
        Frame::Err(message) => {
            assert!(
                message.contains("mid-frame") && message.contains("desynchronized"),
                "the Err frame must name the desync, got: {message}"
            );
        }
        other => panic!("expected Err frame, got {}", other.kind()),
    }
    drop(client);
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions_errored, 1, "{stats:?}");
    assert_eq!(stats.sessions_served, 0, "{stats:?}");
}

/// An idle session that is *between* frames gets the plain idle-timeout
/// message — the taxonomy's other half.
#[test]
fn between_frames_idle_is_a_plain_timeout_not_a_desync() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut aggregator = F0ClusterAggregator::start(&config(2), &spec).expect("spawn fleet");
    let options = SessionServeOptions::default()
        .with_max_sessions(1)
        .with_idle_timeout(Some(Duration::from_millis(300)));
    let server = std::thread::spawn(move || {
        serve_sessions(&listener, &mut aggregator, &options).expect("serve")
    });

    let mut client = TcpStream::connect(addr).expect("connect");
    let mut hello = Vec::new();
    write_frame(
        &mut hello,
        &Frame::Hello(knw_cluster::HelloConfig {
            worker_index: 0,
            spec: spec.clone(),
        }),
    )
    .expect("encode hello");
    client.write_all(&hello).expect("send hello");
    client.flush().expect("flush");
    // Complete frames only, then silence.

    let reply = read_frame(&mut client)
        .expect("typed Err frame")
        .expect("a frame, not EOF");
    match reply {
        Frame::Err(message) => {
            assert!(
                message.contains("idle timeout") && !message.contains("desynchronized"),
                "a between-frames stall is idle, not desynced, got: {message}"
            );
        }
        other => panic!("expected Err frame, got {}", other.kind()),
    }
    drop(client);
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions_errored, 1, "{stats:?}");
}

/// Regression: on an otherwise-quiet server the poll wait is clamped to the
/// nearest session deadline, so an idle session is reaped promptly after
/// `idle_timeout` — not a whole fallback tick (2 s) later.  Idle deadlines
/// are only *checked* when the wait returns; before the clamp, nothing woke
/// the loop on a quiet server until the tick expired.
#[test]
fn idle_sessions_are_reaped_promptly_on_a_quiet_server() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut aggregator = F0ClusterAggregator::start(&config(2), &spec).expect("spawn fleet");
    let options = SessionServeOptions::default()
        .with_max_sessions(1)
        .with_idle_timeout(Some(Duration::from_millis(300)));
    let server = std::thread::spawn(move || {
        serve_sessions(&listener, &mut aggregator, &options).expect("serve")
    });

    let mut client = TcpStream::connect(addr).expect("connect");
    let mut hello = Vec::new();
    write_frame(
        &mut hello,
        &Frame::Hello(knw_cluster::HelloConfig {
            worker_index: 0,
            spec: spec.clone(),
        }),
    )
    .expect("encode hello");
    client.write_all(&hello).expect("send hello");
    client.flush().expect("flush");
    // Quiet from here on: no more frames, no other sessions, no readiness.
    let idle_since = Instant::now();

    let reply = read_frame(&mut client)
        .expect("typed Err frame")
        .expect("a frame, not EOF");
    let elapsed = idle_since.elapsed();
    match reply {
        Frame::Err(message) => {
            assert!(message.contains("idle timeout"), "got: {message}");
        }
        other => panic!("expected Err frame, got {}", other.kind()),
    }
    assert!(
        elapsed >= Duration::from_millis(250),
        "reaped before the idle deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(1_400),
        "idle reap waited for the fallback tick, not the deadline: {elapsed:?}"
    );
    drop(client);
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions_errored, 1, "{stats:?}");
}
