//! Multi-host distributed aggregation over TCP sockets: N workers, each a
//! "host" with its own listening socket (here: localhost threads running
//! the exact serve loop inside `knw-worker --listen`), an aggregator that
//! fans out to them from a TCP `ClusterConfig`, and a merged estimate
//! that is **bit-identical** to a single-process run — sketches shipped
//! only as serialized bytes over real sockets, never as shared memory.
//!
//! On actual separate machines the topology is the same, minus the
//! threads:
//!
//! ```text
//! hostA$ knw-worker --listen 0.0.0.0:7001     # prints `listening on …`
//! hostB$ knw-worker --listen 0.0.0.0:7001
//! hostC$ knw-aggregate --transport tcp --connect hostA:7001 \
//!                      --connect hostB:7001 --estimator knw-f0 --recover
//! ```
//!
//! The run also demonstrates reconnect-and-replay recovery: one host's
//! link is severed at the stream's midpoint, and the aggregator rebuilds
//! the lost shard on a fresh session from its replay journal — the final
//! estimate is still bit-identical.
//!
//! Run this example with:
//! ```text
//! cargo run --release --example cluster_tcp
//! ```

use knw::cluster::{
    build_f0, serve, ClusterConfig, F0ClusterAggregator, RecoveryPolicy, ServeOptions, SketchSpec,
};
use knw::engine::{EngineConfig, RoutingPolicy};
use std::net::TcpListener;

fn main() {
    let workers = 4usize;
    let spec = SketchSpec::f0("knw-f0", 0.05, 1 << 20, 42);
    // The host that will "fail": its first session is severed mid-stream,
    // and reconnect-and-replay recovery rebuilds the shard in its second.
    let failing_host = 1usize;

    // A skewed insert-only stream: a small hot set over a large tail.
    let items: Vec<u64> = (0..400_000u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if x.is_multiple_of(4) {
                x % 512
            } else {
                x % (1 << 20)
            }
        })
        .collect();

    println!("== multi-host aggregation over TCP sockets ==");
    println!(
        "stream: {} items over a 1Mi universe, {} worker hosts\n",
        items.len(),
        workers
    );

    // Bring up one "host" per worker: a listening socket served by the
    // same loop `knw-worker --listen` runs.  Bounded session counts
    // (`--sessions` semantics) make each host wind down after its work,
    // so the example exits cleanly: the failing host serves two sessions
    // (the severed one plus the recovery reconnect), the rest serve one.
    let mut addrs = Vec::with_capacity(workers);
    let mut hosts = Vec::with_capacity(workers);
    for index in 0..workers {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker host");
        let addr = listener.local_addr().expect("bound address").to_string();
        println!("worker host {index}: listening on {addr}");
        addrs.push(addr);
        let sessions = if index == failing_host { 2 } else { 1 };
        hosts.push(std::thread::spawn(move || {
            serve(
                &listener,
                &ServeOptions::default().with_max_sessions(sessions),
            )
            .expect("serve loop");
        }));
    }

    // The aggregator fans out over TCP: hash-affine routing, one shard per
    // connected host, every frame on a real socket — and a recovery
    // policy, so losing a worker mid-stream reconnects and replays the
    // shard's journal instead of failing the run.
    let config = ClusterConfig::tcp(addrs, None)
        .with_engine(EngineConfig::new(workers).with_routing(RoutingPolicy::HashAffine { seed: 0 }))
        .with_recovery(RecoveryPolicy::default());
    let mut cluster = F0ClusterAggregator::start(&config, &spec).expect("connect worker hosts");
    let (first, rest) = items.split_at(items.len() / 2);
    for chunk in first.chunks(8_192) {
        cluster.ingest_batch(chunk);
    }
    // Disaster strikes host 1 at the midpoint: its link is severed (the
    // session dies exactly as if the host had crashed).  The next batch
    // routed to it triggers reconnect-and-replay — the host's fresh
    // session receives the full journal and catches up exactly.
    println!("\nsevering worker host {failing_host} mid-stream … recovery will replay its journal");
    cluster
        .kill_worker(failing_host)
        .expect("sever worker link");
    for chunk in rest.chunks(8_192) {
        cluster.ingest_batch(chunk);
    }
    let merged = cluster.finish().expect("recovered multi-host run");
    for host in hosts {
        host.join().expect("worker host thread");
    }

    // The ground truth of exact mergeability: a single sketch over the
    // whole stream answers the same, bit for bit — even though one shard
    // was rebuilt from scratch by journal replay mid-run.
    let mut single = build_f0(&spec).expect("zoo name");
    single.insert_batch(&items);
    println!("\nmerged-over-tcp estimate : {}", merged.estimate());
    println!("single-process estimate  : {}", single.estimate());
    assert_eq!(
        merged.estimate().to_bits(),
        single.estimate().to_bits(),
        "socket merge (with one recovered worker) must be bit-identical"
    );
    println!("bit-identical            : true (one worker lost and replayed)");
}
