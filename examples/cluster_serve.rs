//! Estimation-as-a-service: one nonblocking serve loop multiplexing many
//! concurrent client sessions over a shared worker fleet — no thread per
//! session — with the merged estimate **bit-identical** to a single
//! sketch over the union of every client's stream.
//!
//! The topology has three tiers, all on localhost threads here so the
//! example is self-contained under `cargo run --example`:
//!
//! ```text
//! 64 clients ──TCP──▶ knw-aggregate --serve (epoll loop) ──TCP──▶ 2 workers
//!   (drive_sessions)    (serve_sessions: one thread,        (knw-worker
//!                        per-session state machines)         serve loops)
//! ```
//!
//! Each client speaks the ordinary frame protocol (`Hello`, `Batch`…,
//! `Snapshot`/`Finish`) and gets its own `Shard` replies; the serve loop
//! interleaves them all into the shared [`ShardBatcher`] fleet.  Because
//! the sketches are exactly mergeable, the interleaving order doesn't
//! matter: the final merged estimate equals the single-process one bit
//! for bit.  On real machines, tier one is `knw-aggregate --serve ADDR`
//! and tier three is `knw-worker --listen ADDR`; here the middle tier
//! reaches its workers through `F0ClusterAggregator::start` on a TCP
//! `ClusterConfig`.
//!
//! Run this example with:
//! ```text
//! cargo run --release --example cluster_serve
//! ```

#[cfg(target_os = "linux")]
fn main() {
    use knw::cluster::{
        build_f0, drive_sessions, serve, serve_sessions, ClusterConfig, F0ClusterAggregator,
        ServeOptions, SessionServeOptions, SketchSpec,
    };
    use knw::engine::EngineConfig;
    use std::net::TcpListener;
    use std::time::Duration;

    let workers = 2usize;
    let sessions = 64usize;
    let spec = SketchSpec::f0("knw-f0", 0.05, 1 << 20, 42);

    // Every client gets its own slice of a skewed insert-only stream.
    let streams: Vec<Vec<u64>> = (0..sessions as u64)
        .map(|s| {
            (0..8_192u64)
                .map(|i| {
                    let x = (s * 8_192 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    if x.is_multiple_of(4) {
                        x % 512
                    } else {
                        x % (1 << 20)
                    }
                })
                .collect()
        })
        .collect();

    println!("== estimation-as-a-service: {sessions} concurrent sessions ==");
    println!(
        "{} clients x {} items, multiplexed over {} worker hosts\n",
        sessions,
        streams[0].len(),
        workers
    );

    // Tier three: the worker fleet — one listening host per worker, each
    // running the exact serve loop inside `knw-worker --listen`.  The
    // aggregator opens one session per host, so one session each suffices.
    let mut addrs = Vec::with_capacity(workers);
    let mut hosts = Vec::with_capacity(workers);
    for index in 0..workers {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker host");
        let addr = listener.local_addr().expect("bound address").to_string();
        println!("worker host {index}: listening on {addr}");
        addrs.push(addr);
        hosts.push(std::thread::spawn(move || {
            serve(&listener, &ServeOptions::default().with_max_sessions(1)).expect("worker serve");
        }));
    }

    // Tier one: the session front end.  One thread, one epoll loop, a
    // per-session state machine for every connected client; stops after
    // `sessions` completed sessions (the `--sessions N` semantics).
    let front = TcpListener::bind("127.0.0.1:0").expect("bind serve front");
    let front_addr = front.local_addr().expect("bound address").to_string();
    println!("serve front   : serving on {front_addr}\n");
    let config = ClusterConfig::tcp(addrs, None).with_engine(EngineConfig::new(workers));
    let serve_spec = spec.clone();
    let server = std::thread::spawn(move || {
        let mut aggregator =
            F0ClusterAggregator::start(&config, &serve_spec).expect("connect worker fleet");
        let options = SessionServeOptions::default().with_max_sessions(sessions);
        let stats = serve_sessions(&front, &mut aggregator, &options).expect("serve loop");
        let merged = aggregator.finish().expect("merge the fleet");
        (stats, merged.estimate())
    });

    // Tier zero: the clients — also one thread, one event loop, driving
    // all 64 sessions concurrently with a midstream `Snapshot` every other
    // batch to exercise point-in-time merges under interleaving.
    let drive = drive_sessions(
        &front_addr,
        &spec,
        &streams,
        1_024,
        Some(2),
        Duration::from_secs(120),
    )
    .expect("drive sessions");
    let (stats, served_estimate) = server.join().expect("server thread");
    for host in hosts {
        host.join().expect("worker host thread");
    }

    println!(
        "sessions served : {} ({} errored; peak {} concurrent, peak write queue {} bytes)",
        stats.sessions_served,
        stats.sessions_errored,
        stats.peak_concurrent,
        stats.peak_write_queue_bytes,
    );
    println!(
        "ingested        : {} updates in {} batches; {} snapshots served, {} shard replies",
        stats.updates_ingested, stats.batches_ingested, stats.snapshots_served, drive.shard_replies,
    );

    // The ground truth: one sketch over the union of every client's
    // stream answers the same, bit for bit — session interleaving is
    // invisible to an exactly mergeable estimator.
    let mut single = build_f0(&spec).expect("zoo name");
    for stream in &streams {
        single.insert_batch(stream);
    }
    println!("\nserved estimate         : {served_estimate}");
    println!("single-process estimate : {}", single.estimate());
    assert_eq!(
        served_estimate.to_bits(),
        single.estimate().to_bits(),
        "64 interleaved sessions must merge bit-identically"
    );
    println!(
        "bit-identical           : true ({} concurrent sessions)",
        sessions
    );
}

#[cfg(not(target_os = "linux"))]
fn main() {
    println!(
        "the session serve loop is built on a raw epoll readiness loop and \
         is Linux-only; nothing to demo on this platform"
    );
}
