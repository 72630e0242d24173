//! `f0_engine`: the in-process `ShardedF0Engine` over a uniform stream,
//! with an `estimate()` after every fixed number of ingested items.

use crate::report::Report;
use crate::trace::{finish_trace, traced_cycle, ModeTally, Tracer};
use crate::{gen, probes, procfs, stats, Run, SETUP_PAUSE, SKETCH_SEED};
use knw_cluster::{ClusterUpdate, SketchSpec};
use knw_core::{CardinalityEstimator, F0Config, KnwF0Sketch};
use knw_engine::{EngineConfig, RoutingPolicy, ShardedF0Engine};
use std::time::Instant;

const UNIVERSE: u64 = 1 << 24;
const EPSILON: f64 = 0.05;
const SHARDS: usize = 2;
/// Distinct inputs; the loop cycles through them.
const POOL: usize = 1 << 22;
/// Items per `insert_batch` call.
const CHUNK: usize = 1 << 16;
/// `insert_batch` calls between two estimates (one loop cycle).
const CHUNKS_PER_QUERY: usize = 8;
const SETUP_REPS: usize = 101;

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    report.param("stream", "uniform");
    report.param("universe", UNIVERSE);
    report.param("estimator", "knw-f0");
    report.param("epsilon", EPSILON);
    report.param("shards", SHARDS);
    report.param("pool_items", POOL);
    report.param("items_per_insert_batch", CHUNK);
    report.param("items_per_estimate", CHUNK * CHUNKS_PER_QUERY);
    report.param("setup_repetitions", SETUP_REPS);

    let items = gen::uniform(POOL, UNIVERSE, gen::derive(run.seed, 0));
    let spec = SketchSpec::f0("knw-f0", EPSILON, UNIVERSE, SKETCH_SEED);
    let config = F0Config::new(EPSILON, UNIVERSE).with_seed(SKETCH_SEED);
    let new_engine =
        || ShardedF0Engine::new(EngineConfig::new(SHARDS), |_| KnwF0Sketch::new(config));

    // Set-up: engine construction (shard threads) to the first answer.
    for _ in 0..SETUP_REPS {
        std::thread::sleep(SETUP_PAUSE);
        let start = Instant::now();
        let mut engine = new_engine();
        let first = engine.estimate();
        report.setup_s.push(start.elapsed().as_secs_f64());
        if first != 0.0 {
            report.notes.push(format!("empty engine estimated {first}"));
        }
    }

    let _ = procfs::reset_own_high_water();
    let me = std::process::id();
    let clock = procfs::CpuClock::new(&[me])?;
    let cpu_before = clock.ns()?;
    let mut cpu = procfs::CpuWindows::start(clock.clone(), 0)?;

    let mut engine = new_engine();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut tally: [ModeTally; 2] = Default::default();
    let mut queries_us = Vec::new();
    let mut queries: Vec<(usize, f64)> = Vec::new();
    let mut pos = 0usize;
    let start = Instant::now();
    for cycle in 0.. {
        let traced = traced_cycle(run.trace, cycle);
        let first_span = tracer.len();
        let cycle_start = Instant::now();
        for _ in 0..CHUNKS_PER_QUERY {
            let offset = pos % POOL;
            let chunk = &items[offset..offset + CHUNK];
            let t0 = Instant::now();
            engine.insert_batch(chunk);
            if traced {
                tracer.record("engine.ingest_batch", t0, Instant::now(), CHUNK as u64);
            }
            pos += CHUNK;
        }
        let q0 = Instant::now();
        let estimate = if traced {
            let snapshot = engine.snapshot().map_err(|e| e.to_string())?;
            let q1 = Instant::now();
            let estimate = snapshot.estimate();
            let q2 = Instant::now();
            tracer.record("engine.snapshot", q0, q1, 1);
            tracer.record("core.estimate", q1, q2, 1);
            estimate
        } else {
            engine.estimate()
        };
        let end = Instant::now();
        queries_us.push((end - q0).as_secs_f64() * 1e6);
        queries.push((pos, estimate));
        let updates = (CHUNK * CHUNKS_PER_QUERY) as u64;
        tally[usize::from(traced)].add(updates, cycle_start, end);
        if traced {
            tracer.close_parent("cycle", first_span, cycle_start, end, updates);
        }
        cpu.mark(pos as u64)?;
        if start.elapsed() >= run.seconds {
            break;
        }
    }
    let elapsed = start.elapsed();
    let cpu_ingest = (clock.ns()? - cpu_before) as f64 / 1e9;
    report.attempted = (pos / CHUNK + queries.len()) as u64;
    report.cpu_ns_per_update = cpu.median_ns_per_unit();
    report.throughput_ups = tally[0].rate();
    report.query_us = queries_us;
    report.peak_rss_bytes = procfs::memory(me, "VmHWM").unwrap_or(0) as f64;
    drop(engine);

    // Oracle: every estimate equals a single-process sketch built from the
    // same spec over the same prefix (inserts of a seen item are no-ops, so
    // a prefix past the pool is the whole pool).
    let mut reference = u64::build(&spec).map_err(|e| e.to_string())?;
    let mut fed = 0usize;
    let mut insert_ns = 0u128;
    let mut mismatches = 0usize;
    for &(at, estimate) in &queries {
        let target = at.min(POOL);
        if target > fed {
            let t0 = Instant::now();
            u64::apply(&mut *reference, &items[fed..target]);
            insert_ns += t0.elapsed().as_nanos();
            fed = target;
        }
        if u64::estimate(&*reference).to_bits() != estimate.to_bits() {
            mismatches += 1;
        }
    }
    report.correct = mismatches == 0 && !queries.is_empty();
    if mismatches > 0 {
        report.notes.push(format!(
            "{mismatches} of {} engine estimates differ from the single-process sketch",
            queries.len()
        ));
    }
    let mut distinct = items[..fed].to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let exact = distinct.len() as f64;
    let last = queries.last().map_or(0.0, |&(_, e)| e);
    report.abs_rel_error = (last - exact).abs() / exact;

    if run.trace {
        report.layer(
            "hash.pairwise_ns_per_item",
            probes::pairwise_hash_ns(&items, UNIVERSE, SKETCH_SEED),
        );
        report.layer("core.f0_insert_ns_per_item", insert_ns as f64 / fed as f64);
        let (a, b) = items.split_at(POOL / 2);
        let shard_bytes = |part: &[u64]| -> Result<Vec<u8>, String> {
            let mut shard = u64::build(&spec).map_err(|e| e.to_string())?;
            u64::apply(&mut *shard, part);
            Ok(u64::shard_bytes(&*shard))
        };
        report.layer(
            "core.f0_merge_us",
            probes::merge_us::<u64>(&spec, &shard_bytes(a)?, &shard_bytes(b)?, 7)?,
        );
        report.layer(
            "engine.route_ns_per_update",
            probes::route_ns(&items, RoutingPolicy::RoundRobin, SHARDS),
        );
        let snapshot_ns = tracer.durations_ns("engine.snapshot");
        report.layer(
            "engine.snapshot_us",
            stats::median(&snapshot_ns).unwrap_or(0.0) / 1e3,
        );
        let rates = (tally[0].rate(), tally[1].rate());
        finish_trace(run, &mut report, &tracer, rates, cpu_ingest, elapsed);
    }
    Ok(report)
}
