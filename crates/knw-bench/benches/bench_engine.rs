//! Criterion bench: the sharded batch-ingestion engine and the
//! multi-process cluster aggregator.
//!
//! Measures ingestion throughput (items/sec) of `ShardedF0Engine` as a
//! function of shard count and hand-off batch size, and prints the headline
//! comparisons the engine exists for:
//!
//! * F0: batched sharded ingestion vs per-item sequential `insert` on a
//!   10M-item stream (acceptance target ≥ 2×);
//! * L0: `update_batch` (the delta-coalescing fast path) vs per-update
//!   sequential `update` on a 10M-update turnstile churn stream (acceptance
//!   target ≥ 5×), plus the 4-shard `ShardedL0Engine` on the same stream —
//!   with and without router-side pre-coalescing (the ROADMAP's "coalesce
//!   in the router before hand-off");
//! * cluster: 4 `knw-worker` processes fed over the frame protocol, on
//!   both transports — stdin/stdout pipes (spawned children) and TCP
//!   sockets (`--listen` serve loops on localhost) — so pipe vs socket
//!   ns/op land side by side in the JSON (skipped with a note if the
//!   worker binary has not been built); plus the recovery path (journaling
//!   on, one mid-stream kill + reconnect-and-replay) next to the
//!   fault-free TCP run;
//! * serve front end (Linux): the same 10M items split across 1,000
//!   concurrent client sessions, multiplexed by one nonblocking
//!   `serve_sessions` epoll loop over a 4-worker pipe fleet;
//! * keyed store: 4M updates over 1M per-key sketches through the
//!   budgeted `SketchStore`, plus a tight-budget eviction-churn run where
//!   most touches cycle entries through the serialized cold tier.
//!
//! Every headline number is also appended to `BENCH_engine.json` at the
//! workspace root (ns/op and Melem/s per labelled path), so the perf
//! trajectory is machine-readable across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use knw_cluster::{
    spawn_listening_worker, ClusterConfig, F0ClusterAggregator, L0ClusterAggregator,
    RecoveryPolicy, SketchSpec, WorkerRegistry,
};
use knw_core::{F0Config, KnwF0Sketch, KnwL0Sketch, L0Config};
use knw_engine::{EngineConfig, RoutingPolicy, ShardedF0Engine, ShardedL0Engine};
use knw_stream::{StreamGenerator, UniformGenerator};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The acceptance-criterion stream length.
const STREAM_LEN: usize = 10_000_000;

/// Headline measurements accumulated across the summary benches, flushed to
/// `BENCH_engine.json` by the final group.
static RESULTS: Mutex<Vec<(&'static str, f64, f64)>> = Mutex::new(Vec::new());

/// Rounds per headline measurement; the fastest round is reported.  The
/// minimum is the standard robust statistic for throughput benches — every
/// run carries nonnegative noise (scheduler preemption, cache pollution from
/// the neighbouring measurements), so the fastest observation is the closest
/// to the machine's true cost, and it keeps the committed
/// `BENCH_engine.json` stable enough for CI to diff across PRs.
const ROUNDS: usize = 3;

/// Times one full ingestion run (best of [`ROUNDS`]), prints the
/// human-readable line, and records `(key, ns/op, Melem/s)` for the JSON
/// report.  Each invocation of `f` builds its own sketch/engine/cluster, so
/// repeating it measures the same cold-start-to-estimate path every round.
fn time_run(key: &'static str, label: &str, ops: usize, f: &mut dyn FnMut() -> f64) -> Duration {
    let mut elapsed = Duration::MAX;
    let mut estimate = 0.0;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let round_estimate = f();
        let round = start.elapsed();
        if round < elapsed {
            elapsed = round;
            estimate = round_estimate;
        }
    }
    let throughput = ops as f64 / elapsed.as_secs_f64() / 1e6;
    let ns_per_op = elapsed.as_nanos() as f64 / ops as f64;
    println!("{label:<44} {elapsed:>10.2?}  {throughput:>9.2} Melem/s  (estimate {estimate:.0})");
    RESULTS
        .lock()
        .expect("bench results lock")
        .push((key, ns_per_op, throughput));
    elapsed
}

fn sketch_config() -> F0Config {
    F0Config::new(0.05, 1 << 24).with_seed(7)
}

fn stream() -> Vec<u64> {
    UniformGenerator::new(1 << 24, 3).take_vec(STREAM_LEN)
}

fn bench_shard_scaling(c: &mut Criterion) {
    let items = stream();
    let mut group = c.benchmark_group("engine_ingest_10M");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    group.throughput(Throughput::Elements(items.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let config = sketch_config();
                let mut engine = ShardedF0Engine::new(EngineConfig::new(shards), move |_| {
                    KnwF0Sketch::new(config)
                });
                engine.insert_batch(black_box(&items));
                black_box(engine.estimate())
            });
        });
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let items = stream();
    let mut group = c.benchmark_group("engine_ingest_10M_4shards");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    group.throughput(Throughput::Elements(items.len() as u64));
    for batch_size in [256usize, 4096, 65536] {
        group.bench_with_input(
            BenchmarkId::new("batch", batch_size),
            &batch_size,
            |b, &batch_size| {
                b.iter(|| {
                    let config = sketch_config();
                    let mut engine = ShardedF0Engine::new(
                        EngineConfig::new(4).with_batch_size(batch_size),
                        move |_| KnwF0Sketch::new(config),
                    );
                    engine.insert_batch(black_box(&items));
                    black_box(engine.estimate())
                });
            },
        );
    }
    group.finish();
}

/// The acceptance comparison, measured directly so the speedup factor can be
/// printed: per-item sequential `insert` vs single-sketch `insert_batch` vs
/// 4-shard engine ingestion over the same 10M-item stream.
fn speedup_summary(_c: &mut Criterion) {
    let items = stream();
    let config = sketch_config();
    let ops = items.len();

    println!("\n== 10M-item ingestion comparison ==");
    // The paper-faithful Figure 3 update (every hash evaluated, guard
    // checked on every write): the historical baseline of the ≥2× engine
    // acceptance target.
    let reference = time_run(
        "f0_insert_reference",
        "sequential, Figure 3 reference insert",
        ops,
        &mut || {
            let mut sketch = KnwF0Sketch::new(config);
            for &i in &items {
                sketch.insert_reference(black_box(i));
            }
            sketch.estimate_f0()
        },
    );
    // The production per-item path (level filter + rough pruning, still
    // bit-identical to the reference).
    time_run(
        "f0_insert_per_item",
        "sequential, per-item insert (pruned)",
        ops,
        &mut || {
            let mut sketch = KnwF0Sketch::new(config);
            for &i in &items {
                sketch.insert(black_box(i));
            }
            sketch.estimate_f0()
        },
    );
    time_run(
        "f0_insert_batch",
        "sequential, insert_batch(64Ki chunks)",
        ops,
        &mut || {
            let mut sketch = KnwF0Sketch::new(config);
            for chunk in items.chunks(65_536) {
                sketch.insert_batch(black_box(chunk));
            }
            sketch.estimate_f0()
        },
    );
    // The observability acceptance check: the same 64Ki-chunk loop with
    // the per-chunk counter work the engine's shard instrumentation adds
    // (one batch inc + one update add per hand-off) — it must stay within
    // 5% of the uninstrumented run above, proving the hot-path counters
    // are cheap enough to leave always-on.
    time_run(
        "f0_insert_batch_instrumented",
        "sequential, insert_batch + hot-path counters",
        ops,
        &mut || {
            let registry = knw_metrics::MetricsRegistry::new();
            let batches = registry.counter("bench_shard_batches_total", &[("shard", "0")]);
            let updates = registry.counter("bench_shard_updates_total", &[("shard", "0")]);
            let mut sketch = KnwF0Sketch::new(config);
            for chunk in items.chunks(65_536) {
                sketch.insert_batch(black_box(chunk));
                batches.inc();
                updates.add(chunk.len() as u64);
            }
            black_box(registry.render().len());
            sketch.estimate_f0()
        },
    );
    let engine_batched = time_run(
        "f0_engine_4shard",
        "4-shard engine, batched hand-off",
        ops,
        &mut || {
            let mut engine =
                ShardedF0Engine::new(EngineConfig::new(4), move |_| KnwF0Sketch::new(config));
            engine.insert_batch(black_box(&items));
            engine.finish().expect("uniform shards").estimate_f0()
        },
    );

    let speedup = reference.as_secs_f64() / engine_batched.as_secs_f64();
    println!(
        "batched sharded ingestion speedup over the reference insert: {speedup:.2}x {}",
        if speedup >= 2.0 {
            "(meets the >=2x target)"
        } else {
            "(BELOW the 2x target)"
        }
    );
}

/// A 10M-update turnstile stream with transactional burst churn: ~512
/// concurrently open items, each receiving ~12 signed updates over a short
/// lifetime, 60% deleted outright at the end of their burst — the
/// insert-correct-delete locality of data-cleaning and sliding-window
/// workloads, which is precisely the regime the `update_batch` coalescing
/// fast path exploits.
fn turnstile_churn_stream(len: usize, universe: u64) -> Vec<(u64, i64)> {
    const OPEN: usize = 512;
    const TOUCHES: u32 = 12;
    let mut out = Vec::with_capacity(len);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut open: Vec<(u64, i64, u32)> = (0..OPEN as u64)
        .map(|i| (i.wrapping_mul(0x2545_F491_4F6C_DD1D) % universe, 0i64, 0u32))
        .collect();
    while out.len() < len {
        let idx = (next() as usize) % OPEN;
        let (item, sum, touches) = open[idx];
        if touches >= TOUCHES {
            // Close the burst: 60% of items are deleted outright.
            if next() % 10 < 6 && sum != 0 {
                out.push((item, -sum));
            }
            open[idx] = (next() % universe, 0, 0);
        } else {
            let mut delta = (next() % 9) as i64 - 4;
            if delta == 0 {
                delta = 1;
            }
            out.push((item, delta));
            open[idx] = (item, sum + delta, touches + 1);
        }
    }
    out
}

/// The L0 acceptance comparison: per-update sequential `update` vs the
/// `update_batch` coalescing fast path (acceptance: ≥ 5×) vs the 4-shard
/// turnstile engine — plain and with router-side pre-coalescing — over the
/// same 10M-update churn stream.
fn l0_speedup_summary(_c: &mut Criterion) {
    let updates = turnstile_churn_stream(STREAM_LEN, 1 << 24);
    let config = L0Config::new(0.05, 1 << 24).with_seed(7);
    let ops = updates.len();

    println!("\n== 10M-update turnstile ingestion comparison ==");
    let per_update = time_run(
        "l0_update_per_item",
        "sequential, per-update update",
        ops,
        &mut || {
            let mut sketch = KnwL0Sketch::new(config);
            for &(item, delta) in &updates {
                sketch.update(black_box(item), black_box(delta));
            }
            sketch.estimate_l0()
        },
    );
    let batched = time_run(
        "l0_update_batch",
        "sequential, update_batch(256Ki chunks)",
        ops,
        &mut || {
            let mut sketch = KnwL0Sketch::new(config);
            for chunk in updates.chunks(1 << 18) {
                sketch.update_batch(black_box(chunk));
            }
            sketch.estimate_l0()
        },
    );
    time_run(
        "l0_engine_4shard",
        "4-shard L0 engine, batched hand-off",
        ops,
        &mut || {
            let mut engine =
                ShardedL0Engine::new(EngineConfig::new(4), move |_| KnwL0Sketch::new(config));
            engine.update_batch(black_box(&updates));
            engine.finish().expect("uniform shards").estimate_l0()
        },
    );
    // The ROADMAP open item: the shard split dilutes the coalescing window;
    // coalescing in the router before hand-off restores it (and cuts
    // channel traffic), so shards receive pre-summed updates.
    time_run(
        "l0_engine_4shard_precoalesced",
        "4-shard L0 engine, pre-coalesced hand-off",
        ops,
        &mut || {
            let mut engine =
                ShardedL0Engine::new(EngineConfig::new(4).with_precoalesce(true), move |_| {
                    KnwL0Sketch::new(config)
                });
            for chunk in updates.chunks(1 << 18) {
                engine.update_batch(black_box(chunk));
            }
            engine.finish().expect("uniform shards").estimate_l0()
        },
    );

    let speedup = per_update.as_secs_f64() / batched.as_secs_f64();
    println!(
        "batched turnstile ingestion speedup over per-update: {speedup:.2}x {}",
        if speedup >= 5.0 {
            "(meets the >=5x target)"
        } else {
            "(BELOW the 5x target)"
        }
    );
}

/// Multi-process ingestion over both transports: 4 `knw-worker` children
/// fed over the frame protocol — stdin/stdout pipes (spawned) and TCP
/// sockets (`--listen` serve loops on localhost) side by side — F0 and
/// pre-coalesced L0.  Skipped with a note when the worker binary is not
/// built (run `cargo build --release` first — tier-1 does).
fn cluster_summary(_c: &mut Criterion) {
    println!("\n== 10M-update multi-process (4 workers) ingestion ==");
    let Some(worker) = knw_cluster::sibling_worker_exe() else {
        println!("knw-worker binary not found next to this bench; skipping cluster numbers");
        return;
    };
    let cluster_config = |precoalesce: bool| {
        ClusterConfig::pipe(4, &worker)
            .with_engine(EngineConfig::new(4).with_precoalesce(precoalesce))
    };
    // Reaped by the fleet's Drop (even if a measurement panics).
    let fleet = knw_cluster::ListeningWorkerFleet::spawn(&worker, "127.0.0.1:0", 4)
        .expect("spawn listening workers");
    let tcp_config = |precoalesce: bool| {
        ClusterConfig::tcp(fleet.addrs().iter().cloned(), None)
            .with_engine(EngineConfig::new(4).with_precoalesce(precoalesce))
    };

    let items = stream();
    let f0 = sketch_config();
    let f0_spec = SketchSpec::f0("knw-f0", f0.epsilon, f0.universe, f0.seed);
    time_run(
        "f0_cluster_4workers",
        "4-worker F0 cluster, pipe transport",
        items.len(),
        &mut || {
            let mut cluster =
                F0ClusterAggregator::start(&cluster_config(false), &f0_spec).expect("spawn");
            for chunk in items.chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            let merged = cluster.finish().expect("clean run");
            merged.estimate()
        },
    );
    time_run(
        "f0_cluster_4workers_tcp",
        "4-worker F0 cluster, tcp transport",
        items.len(),
        &mut || {
            let mut cluster =
                F0ClusterAggregator::start(&tcp_config(false), &f0_spec).expect("connect");
            for chunk in items.chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            let merged = cluster.finish().expect("clean run");
            merged.estimate()
        },
    );
    // The recovery path: same TCP run, but worker 2's link is severed at
    // the stream's midpoint, so the aggregator journals throughout and
    // must reconnect + replay ~1/4 of the first half mid-measurement —
    // the ns/op lands next to the fault-free run so the supervision
    // overhead (journaling + one replay) stays visible across PRs.
    time_run(
        "f0_cluster_4workers_tcp_recovery",
        "4-worker F0 TCP, mid-stream kill + replay",
        items.len(),
        &mut || {
            let config = tcp_config(false)
                .with_recovery(RecoveryPolicy::default().with_journal_cap(usize::MAX));
            let mut cluster = F0ClusterAggregator::start(&config, &f0_spec).expect("connect");
            let half = items.len() / 2;
            for chunk in items[..half].chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            cluster.kill_worker(2).expect("sever worker 2");
            for chunk in items[half..].chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            let merged = cluster.finish().expect("recovered run");
            merged.estimate()
        },
    );
    // The elastic-resharding path: the fleet starts at 2 workers and grows
    // to 4 at the stream's midpoint, placed from a registry pool of two
    // spares — hash-affine routing, so both splits re-route the journaled
    // first half (checkpoint migration + filtered replay), the full cost
    // of an exact mid-stream grow landing next to the fault-free and
    // recovery runs.
    {
        struct Reaped(std::process::Child);
        impl Drop for Reaped {
            fn drop(&mut self) {
                let _ = self.0.kill();
                let _ = self.0.wait();
            }
        }
        let registry = Arc::new(WorkerRegistry::bind("127.0.0.1:0").expect("bind registry"));
        let registry_addr = registry.local_addr().to_string();
        let mut spares = Vec::new();
        let mut spare_addrs = Vec::new();
        for _ in 0..2 {
            let (child, addr) =
                spawn_listening_worker(&worker, "127.0.0.1:0", &["--register", &registry_addr])
                    .expect("spawn spare worker");
            spares.push(Reaped(child));
            spare_addrs.push(addr);
        }
        while registry.available() < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let small_fleet = knw_cluster::ListeningWorkerFleet::spawn(&worker, "127.0.0.1:0", 2)
            .expect("spawn listening workers");
        time_run(
            "f0_cluster_reshard_2to4",
            "2->4 mid-stream grow, hash-affine TCP",
            items.len(),
            &mut || {
                let config = ClusterConfig::tcp(
                    small_fleet.addrs().iter().cloned(),
                    Some(Arc::clone(&registry)),
                )
                .with_engine(
                    EngineConfig::new(2).with_routing(RoutingPolicy::HashAffine { seed: 7 }),
                )
                .with_recovery(RecoveryPolicy::default().with_journal_cap(usize::MAX));
                let mut cluster = F0ClusterAggregator::start(&config, &f0_spec).expect("connect");
                let half = items.len() / 2;
                for chunk in items[..half].chunks(1 << 18) {
                    cluster.ingest_batch(black_box(chunk));
                }
                cluster.scale_to(4).expect("grow 2 -> 4");
                for chunk in items[half..].chunks(1 << 18) {
                    cluster.ingest_batch(black_box(chunk));
                }
                let merged = cluster.finish().expect("resharded run");
                // The grown slots' transport died with the aggregator; the
                // spares keep serving, so hand their addresses back for the
                // next round's draw.
                for addr in &spare_addrs {
                    registry.return_address(addr.clone());
                }
                merged.estimate()
            },
        );
        // `spares` and `small_fleet` reap their workers here.
    }
    drop(items);

    let updates = turnstile_churn_stream(STREAM_LEN, 1 << 24);
    let l0 = L0Config::new(0.05, 1 << 24).with_seed(7);
    let l0_spec = SketchSpec::l0("knw-l0", l0.epsilon, l0.universe, l0.seed);
    time_run(
        "l0_cluster_4workers_precoalesced",
        "4-worker L0 cluster, pre-coalesced, pipe",
        updates.len(),
        &mut || {
            let mut cluster =
                L0ClusterAggregator::start(&cluster_config(true), &l0_spec).expect("spawn");
            for chunk in updates.chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            let merged = cluster.finish().expect("clean run");
            merged.estimate()
        },
    );
    time_run(
        "l0_cluster_4workers_precoalesced_tcp",
        "4-worker L0 cluster, pre-coalesced, tcp",
        updates.len(),
        &mut || {
            let mut cluster =
                L0ClusterAggregator::start(&tcp_config(true), &l0_spec).expect("connect");
            for chunk in updates.chunks(1 << 18) {
                cluster.ingest_batch(black_box(chunk));
            }
            let merged = cluster.finish().expect("clean run");
            merged.estimate()
        },
    );

    // `fleet` reaps the listening workers here (and on any panic above).
}

/// The session front end under load: 1,000 concurrent client sessions —
/// the 10M-item stream split evenly across them — multiplexed by one
/// nonblocking `serve_sessions` loop over a 4-worker pipe fleet, driven
/// by the single-threaded `drive_sessions` client event loop on
/// localhost.  Measures the whole round trip (connect, `Hello`, batched
/// `Batch` frames, `Finish`, per-session `Shard` replies, final merge),
/// so the ns/op lands next to the plain 4-worker cluster runs and the
/// session-multiplexing overhead stays visible across PRs.  Linux-only
/// (the loop is built on epoll); skipped with a note elsewhere.
fn serve_summary(_c: &mut Criterion) {
    #[cfg(target_os = "linux")]
    {
        use knw_cluster::{drive_sessions, serve_sessions, SessionServeOptions};
        use std::net::TcpListener;

        println!("\n== 10M-item serve front end (1k sessions, 4 workers) ==");
        let Some(worker) = knw_cluster::sibling_worker_exe() else {
            println!("knw-worker binary not found next to this bench; skipping serve numbers");
            return;
        };
        const SESSIONS: usize = 1_000;
        let items = stream();
        let per_session = items.len() / SESSIONS;
        let streams: Vec<Vec<u64>> = items.chunks(per_session).map(<[u64]>::to_vec).collect();
        drop(items);
        let f0 = sketch_config();
        let spec = SketchSpec::f0("knw-f0", f0.epsilon, f0.universe, f0.seed);
        let config = ClusterConfig::pipe(4, &worker).with_engine(EngineConfig::new(4));

        time_run(
            "f0_serve_1k_sessions",
            "1k-session serve loop, 4-worker pipe fleet",
            STREAM_LEN,
            &mut || {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind serve front");
                let addr = listener.local_addr().expect("bound address").to_string();
                let serve_spec = spec.clone();
                let server_config = config.clone();
                let server = std::thread::spawn(move || {
                    let mut aggregator = F0ClusterAggregator::start(&server_config, &serve_spec)
                        .expect("spawn fleet");
                    let options = SessionServeOptions::default().with_max_sessions(SESSIONS);
                    serve_sessions(&listener, &mut aggregator, &options).expect("serve loop");
                    aggregator.finish().expect("merge the fleet").estimate()
                });
                drive_sessions(
                    &addr,
                    &spec,
                    black_box(&streams),
                    4_096,
                    None,
                    Duration::from_secs(600),
                )
                .expect("drive sessions");
                server.join().expect("server thread")
            },
        );
    }
    #[cfg(not(target_os = "linux"))]
    println!("\nthe session serve loop is Linux-only (epoll); skipping serve numbers");
}

/// The keyed store paths: per-key sketches behind one memory budget.
///
/// * `f0_store_1m_keys`: 4M keyed updates spread over 1M distinct keys
///   through `ingest_batch` (sorted grouping, one entry touch per key per
///   batch) under the default 64 MiB budget — the "millions of tiny
///   sketches" sizing claim as a throughput number;
/// * `f0_store_eviction_churn`: 2M updates revisiting 200K keys under a
///   4 MiB budget, so a large fraction of touches reload a spilled entry
///   and re-evict it — the worst-case cold-tier serde cycle cost.
fn store_summary(_c: &mut Criterion) {
    use knw_store::{F0SketchStore, StoreConfig};

    println!("\n== keyed store ingestion (per-key F0 sketches) ==");
    let mut state = 0x517C_C1B7_2722_0A95_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    const STORE_OPS: usize = 4_000_000;
    const STORE_KEYS: u64 = 1_000_000;
    let keyed: Vec<(u64, u64)> = (0..STORE_OPS)
        .map(|_| {
            let key = next() % STORE_KEYS;
            (key, key.wrapping_mul(10_000) + next() % 32)
        })
        .collect();
    let store_config = StoreConfig::new(F0Config::new(0.25, 1 << 40))
        .with_promote_threshold(64)
        .with_seed(7);
    time_run(
        "f0_store_1m_keys",
        "1M-key store, batched keyed ingest",
        STORE_OPS,
        &mut || {
            let mut store = F0SketchStore::<u64>::new(store_config);
            for chunk in keyed.chunks(1 << 16) {
                store.ingest_batch(black_box(chunk));
            }
            // 4M uniform draws cover ~98% of the 1M keyspace.
            assert!(store.len() > 900_000);
            store.estimate_total()
        },
    );
    drop(keyed);

    const CHURN_OPS: usize = 2_000_000;
    const CHURN_KEYS: u64 = 200_000;
    let churn: Vec<(u64, u64)> = (0..CHURN_OPS)
        .map(|_| {
            let key = next() % CHURN_KEYS;
            (key, key.wrapping_mul(10_000) + next() % 16)
        })
        .collect();
    let churn_config = StoreConfig::new(F0Config::new(0.25, 1 << 40))
        .with_promote_threshold(64)
        .with_budget_bytes(4 << 20)
        .with_seed(7);
    time_run(
        "f0_store_eviction_churn",
        "200K-key store, 4 MiB budget churn",
        CHURN_OPS,
        &mut || {
            let mut store = F0SketchStore::<u64>::new(churn_config);
            for chunk in churn.chunks(1 << 16) {
                store.ingest_batch(black_box(chunk));
            }
            let stats = store.stats();
            assert!(stats.evictions > 0 && stats.reloads > 0);
            store.estimate_total()
        },
    );
}

/// Flushes the accumulated headline numbers to `BENCH_engine.json` at the
/// workspace root: one `{name, ns_per_op, melem_per_s}` record per labelled
/// ingestion path, so CI and future PRs can diff the perf trajectory
/// without scraping human-readable logs.
fn emit_bench_json(_c: &mut Criterion) {
    let results = RESULTS.lock().expect("bench results lock");
    let mut records = String::new();
    for (idx, (name, ns_per_op, melem_per_s)) in results.iter().enumerate() {
        if idx > 0 {
            records.push_str(",\n");
        }
        records.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_op\": {ns_per_op:.3}, \
             \"melem_per_s\": {melem_per_s:.3}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"bench_engine\",\n  \"stream_len\": {STREAM_LEN},\n  \
         \"results\": [\n{records}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {} records to {path}", results.len()),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_shard_scaling,
    bench_batch_size,
    speedup_summary,
    l0_speedup_summary,
    cluster_summary,
    serve_summary,
    store_summary,
    emit_bench_json
);
criterion_main!(benches);
