//! Distributed aggregation over the serde wire format: shard workers that
//! share **no memory** with the aggregator — only length-prefixed frames on
//! a byte stream — reproduce the single-stream estimate bit for bit.
//!
//! This example runs the full `knw-cluster` frame protocol
//! (`Hello → Batch… → Snapshot/Finish → Shard{bytes}`) over Unix socket
//! pairs, with the worker loop (`knw_cluster::run_worker`, the exact code
//! inside the `knw-worker` binary) on its own threads, so it is
//! self-contained under `cargo run --example`.  For the real multi-process
//! topology — spawned child processes on stdin/stdout pipes — run the
//! `knw-aggregate` binary:
//!
//! ```text
//! cargo run --release --bin knw-aggregate -- --workers 4 --estimator knw-f0
//! ```
//!
//! For the multi-host topology — listening workers reached over TCP
//! sockets with a TCP `ClusterConfig` — see the
//! `cluster_tcp` example and `knw-aggregate --transport tcp`.
//!
//! Run this example with:
//! ```text
//! cargo run --release --example cluster_aggregation
//! ```

use knw::cluster::{
    build_l0, l0_shard_from_bytes, read_frame, run_worker, write_frame, BatchPayload, Frame,
    HelloConfig, SketchSpec,
};
use knw::stream::partition_updates_by_item;
use std::os::unix::net::UnixStream;

fn main() {
    let workers = 4usize;
    let spec = SketchSpec::l0("knw-l0", 0.05, 1 << 20, 42);

    // A churn-heavy signed stream: inserts, corrections, deletions.
    let mut state = 0x00C0_FFEE_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let updates: Vec<(u64, i64)> = (0..400_000)
        .map(|_| (next() % 50_000, (next() % 9) as i64 - 4))
        .collect();

    println!("== multi-worker aggregation over the wire format ==");
    println!(
        "stream: {} signed updates over a 50k-item universe, {} workers\n",
        updates.len(),
        workers
    );

    // Start one protocol-speaking worker per shard, each on its own thread
    // behind a Unix socket — no shared memory, bytes only.
    let mut channels = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for index in 0..workers {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        handles.push(std::thread::spawn(move || {
            let mut reader = theirs.try_clone().expect("clone socket");
            let mut writer = theirs;
            run_worker(&mut reader, &mut writer).expect("worker loop");
        }));
        let mut hello_sink = ours.try_clone().expect("clone socket");
        write_frame(
            &mut hello_sink,
            &Frame::Hello(HelloConfig {
                worker_index: index as u64,
                spec: spec.clone(),
            }),
        )
        .expect("send Hello");
        channels.push(ours);
    }

    // Route by item (the HashAffine discipline, seed 0) and stream batches.
    let parts = partition_updates_by_item(&updates, workers);
    for (channel, part) in channels.iter_mut().zip(&parts) {
        for chunk in part.chunks(4_096) {
            write_frame(
                channel,
                &Frame::Batch(BatchPayload::Updates(chunk.to_vec())),
            )
            .expect("send Batch");
        }
    }

    // Finish: every worker serializes its shard and ships the bytes back.
    let mut merged = build_l0(&spec).expect("zoo name");
    for (index, mut channel) in channels.into_iter().enumerate() {
        write_frame(&mut channel, &Frame::Finish).expect("send Finish");
        let frame = read_frame(&mut channel)
            .expect("read reply")
            .expect("reply");
        let Frame::Shard(bytes) = frame else {
            panic!("worker {index} answered {} instead of Shard", frame.kind());
        };
        println!(
            "worker {index}: shard arrived as {:>6} serialized bytes ({:>6} updates routed)",
            bytes.len(),
            parts[index].len()
        );
        let shard = l0_shard_from_bytes(&spec, &bytes).expect("decode shard");
        <(u64, i64) as knw::cluster::ClusterUpdate>::merge(merged.as_mut(), shard.as_ref())
            .expect("compatible shards");
    }
    for handle in handles {
        handle.join().expect("worker thread");
    }

    // The ground truth of exact mergeability: a single sketch over the whole
    // stream answers the same, bit for bit.
    let mut single = build_l0(&spec).expect("zoo name");
    single.update_batch(&updates);
    println!("\nmerged-from-wire estimate : {}", merged.estimate());
    println!("single-stream estimate    : {}", single.estimate());
    assert_eq!(
        merged.estimate().to_bits(),
        single.estimate().to_bits(),
        "wire merge must be bit-identical"
    );
    println!("bit-identical             : true");
}
