//! `keyed_store`: `F0SketchStore<u64>` under a budget small enough to
//! force eviction, with `estimate(&key)` on a fixed key sample after every
//! ingest batch.

use crate::report::Report;
use crate::trace::{finish_trace, traced_cycle, ModeTally, Tracer};
use crate::{gen, procfs, Run, SETUP_PAUSE, SKETCH_SEED};
use knw_core::F0Config;
use knw_store::{F0SketchStore, StoreConfig};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

const KEYS: u64 = 1_000_000;
const SKEW: f64 = 1.05;
const ITEMS: u64 = 1 << 20;
const EPSILON: f64 = 0.25;
const UNIVERSE: u64 = 1 << 40;
const PROMOTE_THRESHOLD: usize = 64;
const BUDGET_BYTES: usize = 16 << 20;
/// Distinct inputs; the loop cycles through them.
const POOL: usize = 1 << 21;
/// Keyed updates per `ingest_batch` call (one loop cycle).
const BATCH: usize = 1 << 14;
/// Keys queried after every batch.
const SAMPLE: usize = 32;
/// Seed of the Zipf key stream, fixed across runs.
const KEY_STREAM_SEED: u64 = 1;
const SETUP_BLOCKS: usize = 101;
const SETUP_PER_BLOCK: usize = 1000;

fn config(budget: usize) -> StoreConfig<F0Config> {
    StoreConfig::new(F0Config::new(EPSILON, UNIVERSE))
        .with_promote_threshold(PROMOTE_THRESHOLD)
        .with_budget_bytes(budget)
        .with_seed(SKETCH_SEED)
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    report.param("keys", KEYS);
    report.param("key_skew", SKEW);
    report.param("items_per_key_universe", ITEMS);
    report.param("sketch", format!("knw-f0 eps={EPSILON} n=2^40"));
    report.param("promote_threshold", PROMOTE_THRESHOLD);
    report.param("budget_bytes", BUDGET_BYTES);
    report.param("pool_updates", POOL);
    report.param("updates_per_ingest_batch", BATCH);
    report.param("sampled_keys", SAMPLE);
    report.param(
        "setup_repetitions",
        format!("{SETUP_BLOCKS} blocks of {SETUP_PER_BLOCK}"),
    );

    // The key stream is the same in every run, so each run puts the same
    // load on the same keys; the seed varies the items, hence the per-key
    // sets, promotions and sketch states.
    let updates = gen::keyed_zipf(POOL, KEYS, SKEW, ITEMS, KEY_STREAM_SEED, run.seed);
    // The sample: keys at evenly spaced stream positions (hot keys recur,
    // so de-duplicate), a mix of hot, promoted keys and cold, sparse ones.
    let mut sample: Vec<u64> = Vec::new();
    for i in 0..SAMPLE {
        let key = updates[i * POOL / SAMPLE].0;
        if !sample.contains(&key) {
            sample.push(key);
        }
    }

    // Set-up takes tens of nanoseconds, near the clock's resolution, so
    // each sample is the mean over a block of launches.
    let mut answered = 0usize;
    for _ in 0..SETUP_BLOCKS {
        std::thread::sleep(SETUP_PAUSE);
        let start = Instant::now();
        for _ in 0..SETUP_PER_BLOCK {
            let store = F0SketchStore::<u64>::new(config(BUDGET_BYTES));
            answered += usize::from(black_box(&store).estimate(&sample[0]).is_some());
        }
        report
            .setup_s
            .push(start.elapsed().as_secs_f64() / SETUP_PER_BLOCK as f64);
    }
    if answered > 0 {
        report
            .notes
            .push("an empty store answered for a key".into());
    }

    let _ = procfs::reset_own_high_water();
    let mut store = F0SketchStore::<u64>::new(config(BUDGET_BYTES));
    // Warm-up, untimed: one pass over the inputs.  The first pass fills the
    // store and its cost per update climbs from a third of the steady cost
    // as eviction sets in; later passes cost the same as each other.
    for batch in updates.chunks(BATCH) {
        store.ingest_batch(batch);
    }
    let warm_up = POOL;

    let me = std::process::id();
    let clock = procfs::CpuClock::new(&[me])?;
    let cpu_before = clock.ns()?;
    let mut cpu = procfs::CpuWindows::start(clock.clone(), warm_up as u64)?;
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut tally: [ModeTally; 2] = Default::default();
    let mut queries_us = Vec::new();
    let mut last_estimates: Vec<Option<f64>> = vec![None; sample.len()];
    let mut pos = warm_up;
    let mut queries = 0u64;
    let start = Instant::now();
    for cycle in 0.. {
        let traced = traced_cycle(run.trace, cycle);
        let first_span = tracer.len();
        let cycle_start = Instant::now();
        let offset = pos % POOL;
        store.ingest_batch(&updates[offset..offset + BATCH]);
        pos += BATCH;
        if traced {
            tracer.record(
                "store.ingest_batch",
                cycle_start,
                Instant::now(),
                BATCH as u64,
            );
        }
        for (key, last) in sample.iter().zip(&mut last_estimates) {
            let q0 = Instant::now();
            *last = store.estimate(key);
            let q1 = Instant::now();
            queries_us.push((q1 - q0).as_secs_f64() * 1e6);
            if traced {
                tracer.record("store.estimate", q0, q1, 1);
            }
        }
        queries += sample.len() as u64;
        let end = Instant::now();
        tally[usize::from(traced)].add(BATCH as u64, cycle_start, end);
        if traced {
            tracer.close_parent("cycle", first_span, cycle_start, end, BATCH as u64);
        }
        cpu.mark(pos as u64)?;
        if start.elapsed() >= run.seconds {
            break;
        }
    }
    let elapsed = start.elapsed();
    let cpu_ingest = (clock.ns()? - cpu_before) as f64 / 1e9;
    report.attempted = ((pos - warm_up) / BATCH) as u64 + queries;
    report.cpu_ns_per_update = cpu.median_ns_per_unit();
    report.throughput_ups = tally[0].rate();
    report.query_us = queries_us;
    report.peak_rss_bytes = procfs::memory(me, "VmHWM").unwrap_or(0) as f64;
    let store_stats = store.stats();
    drop(store);

    // Oracle: an unbudgeted store fed the sample keys' updates (a key's
    // estimate depends on its own updates only; re-inserting a seen pair
    // is a no-op, so a prefix past the pool is the whole pool).
    let fed = pos.min(POOL);
    let sampled: HashSet<u64> = sample.iter().copied().collect();
    let kept: Vec<(u64, u64)> = updates[..fed]
        .iter()
        .copied()
        .filter(|(key, _)| sampled.contains(key))
        .collect();
    let mut reference = F0SketchStore::<u64>::new(config(usize::MAX));
    for chunk in kept.chunks(BATCH) {
        reference.ingest_batch(chunk);
    }
    let mut exact: BTreeMap<u64, HashSet<u64>> = BTreeMap::new();
    for &(key, item) in &kept {
        exact.entry(key).or_default().insert(item);
    }
    let mut mismatches = 0usize;
    let mut errors = Vec::new();
    for (key, estimate) in sample.iter().zip(&last_estimates) {
        let expected = reference.estimate(key);
        if expected.map(f64::to_bits) != estimate.map(f64::to_bits) {
            mismatches += 1;
        }
        let truth = exact.get(key).map_or(0, HashSet::len) as f64;
        errors.push((estimate.unwrap_or(0.0) - truth).abs() / truth);
    }
    report.correct = mismatches == 0;
    if mismatches > 0 {
        report.notes.push(format!(
            "{mismatches} of {} sampled keys differ from the unbudgeted store",
            sample.len()
        ));
    }
    report.abs_rel_error = errors.iter().sum::<f64>() / errors.len() as f64;

    if run.trace {
        report.layer(
            "store.ingest_ns_per_update",
            tracer.ns_per_item("store.ingest_batch"),
        );
        report.layer("store.promotions", store_stats.promotions as f64);
        report.layer("store.evictions", store_stats.evictions as f64);
        report.layer("store.reloads", store_stats.reloads as f64);
        report.layer(
            "store.reloads_per_update",
            store_stats.reloads as f64 / pos as f64,
        );
        report.layer(
            "store.budget_high_water_mb",
            store_stats.budget_high_water as f64 / 1e6,
        );
        let rates = (tally[0].rate(), tally[1].rate());
        finish_trace(run, &mut report, &tracer, rates, cpu_ingest, elapsed);
    }
    Ok(report)
}
