//! A steady-state L0 snapshot allocates under 64 KiB, whatever its
//! shards hold.
//!
//! An L0 shard is large (over a megabyte here and in the benchmark), so
//! every buffer a snapshot allocated per shard — a receive payload, a copy
//! of it, a decoded sketch, a merged table — would cost the aggregator
//! about a shard's worth of fresh memory, which the allocator may hand back
//! to the kernel and fault in again on the next snapshot.  The links read
//! each reply into a retained buffer, and the aggregator folds every reply
//! from there into the one sketch it keeps across snapshots, so its memory
//! is kept.  So once two warm-up snapshots have sized those buffers, a
//! snapshot allocates under [`BUDGET`] in all on the calling thread: the
//! request frames and a few decoded hashes, nothing the size of a shard.
//! That holds too when each worker replies with a shard-sized delta every
//! time: a table that must grow at least doubles, so the same two warm-up
//! snapshots size the accumulator's tables for the sums.

use knw_cluster::{build_l0, ClusterConfig, L0ClusterAggregator, SketchSpec};
use knw_engine::ShardBatcher;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks for, so that
/// tests running in parallel do not see each other's allocations.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    (result, ALLOCATED.with(Cell::get) - before)
}

/// What a steady-state snapshot may allocate in all.
const BUDGET: usize = 64 << 10;

/// A churn stream: `distinct` items inserted, every third one deleted
/// again, every fifth one inserted twice more.
fn churn(distinct: u64) -> Vec<(u64, i64)> {
    let mut updates = Vec::new();
    for i in 0..distinct {
        let item = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        updates.push((item, 1));
        if i % 3 == 0 {
            updates.push((item, -1));
        }
        if i % 5 == 0 {
            updates.push((item, 2));
        }
    }
    updates
}

#[test]
fn steady_state_l0_snapshots_allocate_under_64_kib() {
    let spec = SketchSpec::l0("knw-l0", 0.05, 1 << 24, 7);
    let config = ClusterConfig::pipe(2, env!("CARGO_BIN_EXE_knw-worker"));
    let updates = churn(60_000);

    // The shards the two workers hold, built in this process through the
    // same routing stage (cluster shards are bit-identical to these), so
    // the test knows they are far larger than the budget.
    let build = || build_l0(&spec).expect("a zoo estimator");
    let mut local = [build(), build()];
    let engine = config.engine;
    let mut batcher = ShardBatcher::new(engine.routing, engine.shards, engine.batch_size);
    let mut apply = |worker: usize, batch: Vec<(u64, i64)>| local[worker].update_batch(&batch);
    batcher.extend_from_slice(&updates, &mut apply);
    batcher.flush(&mut apply);
    let shards = local.map(|shard| shard.wire_bytes());
    assert!(
        shards.iter().all(|bytes| bytes.len() > 4 * BUDGET),
        "shards of {:?} bytes are too small to tell buffers from the budget",
        shards.each_ref().map(Vec::len)
    );

    let mut cluster = L0ClusterAggregator::start(&config, &spec).expect("start");
    cluster.ingest_batch(&updates);
    cluster.flush();
    let mut estimates = Vec::new();
    for _ in 0..2 {
        estimates.push(cluster.estimate().expect("warm-up snapshot"));
    }
    let (estimate, allocated) = allocated_by(|| cluster.snapshot().expect("snapshot").estimate());
    estimates.push(estimate);
    assert!(
        estimates.iter().all(|&e| e == estimates[0]),
        "the same stream, the same estimate: {estimates:?}"
    );
    assert!(
        allocated < BUDGET,
        "a steady-state snapshot allocated {allocated} bytes for shards of {:?} bytes",
        shards.each_ref().map(Vec::len)
    );
    cluster.finish().expect("finish");
}

/// The same budget while every snapshot folds real deltas: the churn is
/// ingested again before each snapshot, so each worker replies with the
/// shard of a whole pass, as large as its first, and the accumulator sums
/// the passes.  Each snapshot's estimate is a single sketch's over every
/// pass so far.
#[test]
fn l0_snapshots_folding_fresh_deltas_allocate_under_64_kib() {
    let spec = SketchSpec::l0("knw-l0", 0.05, 1 << 24, 7);
    let config = ClusterConfig::pipe(2, env!("CARGO_BIN_EXE_knw-worker"));
    let updates = churn(60_000);
    let mut local = build_l0(&spec).expect("a zoo estimator");
    let mut cluster = L0ClusterAggregator::start(&config, &spec).expect("start");
    for pass in 0..7 {
        cluster.ingest_batch(&updates);
        cluster.flush();
        local.update_batch(&updates);
        let (estimate, allocated) =
            allocated_by(|| cluster.snapshot().expect("snapshot").estimate());
        assert_eq!(
            estimate.to_bits(),
            local.estimate().to_bits(),
            "pass {pass}"
        );
        // Warm-up passes size the accumulator's tables: folding a delta
        // grows a table to hold its entries and the delta's, at least
        // doubling it, so the capacities settle after the second pass (336
        // bytes a snapshot from the third pass on, measured).
        assert!(
            pass < 2 || allocated < BUDGET,
            "pass {pass}: a snapshot folding deltas allocated {allocated} bytes"
        );
    }
    let merged = cluster.finish().expect("finish");
    assert_eq!(merged.estimate().to_bits(), local.estimate().to_bits());
}
