//! Elastic resharding end to end: a fleet placed from a worker-registry
//! pool grows on a load burst and shrinks back on the drain, with the
//! final estimate **bit-identical** to a single-process run over the same
//! stream.
//!
//! ```text
//! cargo build -p knw-cluster --bins          # the example spawns knw-worker
//! cargo run -p knw-cluster --example cluster_elastic
//! ```
//!
//! The walk-through:
//!
//! 1. bind a [`WorkerRegistry`] and spawn four `knw-worker --listen
//!    --register` spares announcing themselves to it;
//! 2. place a **2-worker** fleet from the pool — a TCP [`ClusterConfig`]
//!    with the registry and no static address list — with hash-affine
//!    routing and journaling on;
//! 3. stream the steady phase, then `scale_to(4)` when the burst arrives
//!    (the two new shards replay their split parents' checkpoints +
//!    re-routed journals), stream the burst;
//! 4. `scale_to(2)` on the drain (retired shards fold into their split
//!    parents via the exact merge, their workers return to the pool),
//!    stream the tail;
//! 5. finish and compare bits against the single-process fold.

use knw_cluster::{
    build_l0, sibling_worker_exe, spawn_listening_worker, ClusterConfig, L0ClusterAggregator,
    RecoveryPolicy, SketchSpec, WorkerRegistry,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use std::process::Child;
use std::sync::Arc;
use std::time::Duration;

/// A spare worker process, reaped on drop.
struct Spare(Child);

impl Drop for Spare {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A churn-heavy signed update stream (mixed signs, cancellations).
fn updates(from: u64, len: u64) -> Vec<(u64, i64)> {
    (from..from + len)
        .map(|i| {
            let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x % 4_096, (x % 9) as i64 - 4)
        })
        .collect()
}

fn main() {
    let Some(worker) = sibling_worker_exe() else {
        eprintln!(
            "knw-worker binary not found next to this example; \
             run `cargo build -p knw-cluster --bins` first"
        );
        return;
    };

    // The pool: a registry plus four spares announcing themselves to it.
    // Nothing here names a worker address — placement is the registry's job.
    let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
    registry.start_probing(Duration::from_secs(1), Duration::from_millis(500));
    let registry_addr = registry.local_addr().to_string();
    let mut spares = Vec::new();
    for _ in 0..4 {
        let (child, addr) =
            spawn_listening_worker(&worker, "127.0.0.1:0", &["--register", &registry_addr])
                .expect("spawn spare worker");
        println!("spare worker listening on {addr}, registered with {registry_addr}");
        spares.push(Spare(child));
    }
    while registry.available() < 4 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // A 2-worker fleet drawn from the pool.  Journaling (the recovery
    // policy) is what makes later rescales possible: grown shards replay
    // split journals, so without it `scale_to` refuses typed.
    let spec = SketchSpec::l0("knw-l0", 0.1, 1 << 12, 97);
    let config = ClusterConfig::tcp(Vec::<String>::new(), Some(Arc::clone(&registry)))
        .with_engine(
            EngineConfig::new(2)
                .with_batch_size(512)
                .with_routing(RoutingPolicy::HashAffine { seed: 7 }),
        )
        .with_recovery(RecoveryPolicy::default());
    let mut cluster =
        L0ClusterAggregator::start(&config, &spec).expect("place 2 workers from the pool");
    let mut single = build_l0(&spec).expect("zoo estimator");
    println!(
        "placed a 2-worker fleet from the pool ({} spare(s) left)",
        registry.available()
    );

    // Steady phase on 2 shards.
    let steady = updates(0, 6_000);
    cluster.ingest_batch(&steady);
    single.update_batch(&steady);

    // The burst arrives: grow to 4.  The two new shards are placed from
    // the remaining spares; each inherits its split parent's checkpoint
    // plus the journaled updates the grown routing table moves over.
    cluster.scale_to(4).expect("grow 2 -> 4 on the burst");
    println!(
        "burst: grew to 4 workers ({} spare(s) left)",
        registry.available()
    );
    let burst = updates(6_000, 12_000);
    cluster.ingest_batch(&burst);
    single.update_batch(&burst);

    // The drain: shrink back to 2.  Each retiree's final shard folds into
    // its split parent via the exact merge, and its still-serving worker
    // returns to the pool for the next burst to re-adopt.
    cluster.scale_to(2).expect("shrink 4 -> 2 on the drain");
    println!(
        "drain: shrank to 2 workers ({} spare(s) back in the pool)",
        registry.available()
    );
    let tail = updates(18_000, 3_000);
    cluster.ingest_batch(&tail);
    single.update_batch(&tail);

    let merged = cluster.finish().expect("resharded run reports cleanly");
    let distributed = merged.estimate();
    let reference = single.estimate();
    println!("distributed estimate: {distributed}");
    println!("single-process:       {reference}");
    assert_eq!(
        distributed.to_bits(),
        reference.to_bits(),
        "elastic resharding must stay bit-identical"
    );
    println!("bit-identical across grow and shrink ✓");
    drop(spares);
}
