//! Decoding L0 sketch bytes allocates no more than those bytes may declare.
//!
//! A sparse Lemma 8 trial costs a few dozen bytes on the wire however many
//! buckets it has, so the decoders check every declared geometry before they
//! allocate a counter array.  These tests count the bytes the decoding thread
//! allocates: hostile headers are refused before any counter array exists,
//! and a genuine sketch decodes into no more memory than building one from
//! its configuration takes, plus its input, and about what its nonzero
//! counters take.

use knw::core::l0::ExactSmallL0;
use knw::core::{KnwL0Sketch, L0Config, TurnstileEstimator};
use knw::hash::pairwise::PairwiseHash;
use knw::hash::rng::SplitMix64;
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

/// The largest trial a structure may hold: capacity 1448, 2 · 1448² buckets.
const MAX_CAPACITY: u64 = 1448;

/// A structure header declaring `trials` trials of capacity `capacity`,
/// followed by `copies` valid empty sparse trials of that capacity's bucket
/// count (the hash, a prime, the sparse form tag and a pair count of 0).
fn repeated_empty_trials(capacity: u64, trials: u64, copies: usize) -> Vec<u8> {
    let buckets = 2 * capacity * capacity;
    let mut trial = serde::to_bytes(&PairwiseHash::random(buckets, &mut SplitMix64::new(1)));
    trial.extend(serde::to_bytes(&140_907u64));
    trial.push(0);
    trial.extend(serde::to_bytes(&0u64));
    let mut out = serde::to_bytes(&capacity);
    out.extend(serde::to_bytes(&trials));
    for _ in 0..copies {
        out.extend_from_slice(&trial);
    }
    out
}

fn config() -> L0Config {
    L0Config::new(0.05, 1 << 24).with_seed(7)
}

#[test]
fn repeated_max_bucket_trials_are_refused_without_allocating_them() {
    // 100,000 empty trials of 4,193,408 buckets: 4.2 MB of input that would
    // decode to 1.6 TiB of counters.
    let copies = 100_000;
    let bytes = repeated_empty_trials(MAX_CAPACITY, copies as u64, copies);
    let (result, allocated) = allocated_by(|| serde::from_bytes::<ExactSmallL0>(&bytes));
    let err = result.expect_err("oversized structure accepted");
    assert!(err.to_string().contains("geometry"), "{err}");
    assert!(allocated < 1 << 16, "{allocated} bytes allocated");

    // The same trials as the first level of a sketch's rough oracle: the
    // matrix before it decodes (its counters are on the wire, so this
    // allocation is bounded by the input), and the level is refused at its
    // header.
    let sketch = KnwL0Sketch::new(config());
    let mut forged = serde::to_bytes(sketch.config());
    forged.extend(serde::to_bytes(&sketch.num_columns()));
    forged.extend(serde::to_bytes(sketch.matrix()));
    // The rough oracle begins with its level hash (25 bytes) and `log n`.
    forged.extend_from_slice(&serde::to_bytes(sketch.rough_oracle())[..29]);
    forged.extend(repeated_empty_trials(MAX_CAPACITY, 4, 4 * 1_000));
    let (result, allocated) = allocated_by(|| serde::from_bytes::<KnwL0Sketch>(&forged));
    let err = result.expect_err("oversized level accepted");
    assert!(err.to_string().contains("geometry"), "{err}");
    assert!(
        allocated < forged.len() + (1 << 16),
        "{allocated} bytes allocated for {} bytes of input",
        forged.len()
    );
}

#[test]
fn a_decoded_sketch_allocates_no_more_than_building_one() {
    let ((), built) = allocated_by(|| drop(KnwL0Sketch::new(config())));
    let mut sketch = KnwL0Sketch::new(config());
    let updates: Vec<(u64, i64)> = (0..200_000u64)
        .map(|i| {
            (
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40,
                1 - 2 * (i % 3 == 0) as i64,
            )
        })
        .collect();
    sketch.update_batch(&updates);
    let bytes = serde::to_bytes(&sketch);
    let (decoded, allocated) = allocated_by(|| serde::from_bytes::<KnwL0Sketch>(&bytes));
    let decoded = decoded.expect("round trip");
    assert_eq!(decoded.estimate(), sketch.estimate());
    assert!(
        allocated <= built + bytes.len(),
        "decoding {} bytes allocated {allocated}, building {built}",
        bytes.len()
    );
}

#[test]
fn allocation_follows_the_nonzero_counters() {
    // A new sketch's Lemma 8 trials hold no nonzero counter and allocate
    // none: the counter matrix and the mid-range row are most of it.
    let ((), built) = allocated_by(|| drop(KnwL0Sketch::new(config())));
    assert!(built <= 1 << 20, "building allocated {built} bytes");

    // A 2k-update sketch decodes into little more than its bytes: each
    // sparse trial's pairs are copied in as they are.
    let mut sketch = KnwL0Sketch::new(config());
    let updates: Vec<(u64, i64)> = (0..2_000u64)
        .map(|i| {
            (
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40,
                1 - 2 * (i % 3 == 0) as i64,
            )
        })
        .collect();
    sketch.update_batch(&updates);
    let bytes = serde::to_bytes(&sketch);
    let (decoded, allocated) = allocated_by(|| serde::from_bytes::<KnwL0Sketch>(&bytes));
    assert_eq!(decoded.expect("round trip").estimate(), sketch.estimate());
    assert!(
        allocated <= 4 * bytes.len() + built,
        "decoding {} bytes allocated {allocated}, building {built}",
        bytes.len()
    );
}
