//! Serde round-trip tests for the mergeable sketch contract — the
//! prerequisite for multi-process merge (serialize shards on worker
//! processes, deserialize and merge on an aggregator).
//!
//! The invariant under test is stronger than "deserializes without error":
//! for every mergeable F0 and L0 sketch, `deserialize(serialize(shard))`
//! must merge *exactly* like the in-memory shard does, and the merged
//! estimate must be bit-identical to the single-stream run.

use knw::baselines::{
    AmsEstimator, BjkstSketch, ExactCounter, ExactL0Counter, FlajoletMartin, GangulyL0,
    GibbonsTirthapura, HyperLogLog, KMinValues, LinearCounting, LogLog,
};
use knw::core::{
    CardinalityEstimator, F0Config, KnwF0Sketch, KnwL0Sketch, L0Config, MergeableEstimator,
    TurnstileEstimator,
};

const UNIVERSE: u64 = 1 << 16;
const SEED: u64 = 2024;

fn items(len: u64, salt: u64) -> Vec<u64> {
    (0..len)
        .map(|i| (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) % UNIVERSE)
        .collect()
}

fn updates(len: u64, salt: u64) -> Vec<(u64, i64)> {
    (0..len)
        .map(|i| {
            let x = (i + salt).wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x % 4_096, (x % 9) as i64 - 4)
        })
        .collect()
}

/// serialize → deserialize → merge must equal the in-memory merge, for an F0
/// sketch: both merged sketches must report the identical estimate, which in
/// turn must equal the single-stream estimate (exact mergeability).
fn assert_f0_roundtrip_merges<T>(mut make: impl FnMut() -> T)
where
    T: CardinalityEstimator
        + MergeableEstimator<MergeError = knw::core::SketchError>
        + serde::Serialize
        + serde::Deserialize,
{
    let (left_items, right_items) = (items(9_000, 0), items(7_000, 500_000));

    let mut in_memory = make();
    in_memory.insert_batch(&left_items);
    let mut right = make();
    right.insert_batch(&right_items);

    // Ship the right shard through bytes.
    let bytes = serde::to_bytes(&right);
    let wired: T = serde::from_bytes(&bytes).expect("round trip");
    assert_eq!(
        wired.estimate(),
        right.estimate(),
        "{}: deserialized shard deviates",
        right.name()
    );

    let mut via_wire = make();
    via_wire.insert_batch(&left_items);
    via_wire.merge_from(&wired).expect("compatible shards");
    in_memory.merge_from(&right).expect("compatible shards");
    assert_eq!(
        via_wire.estimate(),
        in_memory.estimate(),
        "{}: wire merge deviates from in-memory merge",
        in_memory.name()
    );

    let mut single = make();
    single.insert_batch(&left_items);
    single.insert_batch(&right_items);
    assert_eq!(
        via_wire.estimate(),
        single.estimate(),
        "{}: wire merge deviates from the single-stream run",
        single.name()
    );
}

/// The L0 counterpart of [`assert_f0_roundtrip_merges`], over signed updates.
fn assert_l0_roundtrip_merges<T>(mut make: impl FnMut() -> T)
where
    T: TurnstileEstimator
        + MergeableEstimator<MergeError = knw::core::SketchError>
        + serde::Serialize
        + serde::Deserialize,
{
    let (left_updates, right_updates) = (updates(8_000, 0), updates(6_000, 1 << 40));

    let mut in_memory = make();
    in_memory.update_batch(&left_updates);
    let mut right = make();
    right.update_batch(&right_updates);

    let bytes = serde::to_bytes(&right);
    let wired: T = serde::from_bytes(&bytes).expect("round trip");
    assert_eq!(
        wired.estimate(),
        right.estimate(),
        "{}: deserialized shard deviates",
        right.name()
    );

    let mut via_wire = make();
    via_wire.update_batch(&left_updates);
    via_wire.merge_from(&wired).expect("compatible shards");
    in_memory.merge_from(&right).expect("compatible shards");
    assert_eq!(
        via_wire.estimate(),
        in_memory.estimate(),
        "{}: wire merge deviates from in-memory merge",
        in_memory.name()
    );

    let mut single = make();
    single.update_batch(&left_updates);
    single.update_batch(&right_updates);
    assert_eq!(
        via_wire.estimate(),
        single.estimate(),
        "{}: wire merge deviates from the single-stream run",
        single.name()
    );
}

#[test]
fn knw_f0_sketch_roundtrips_and_merges() {
    let cfg = F0Config::new(0.1, UNIVERSE).with_seed(SEED);
    assert_f0_roundtrip_merges(move || KnwF0Sketch::new(cfg));
}

#[test]
fn f0_baselines_roundtrip_and_merge() {
    assert_f0_roundtrip_merges(|| HyperLogLog::with_error(0.1, SEED));
    assert_f0_roundtrip_merges(|| LogLog::with_error(0.1, SEED));
    assert_f0_roundtrip_merges(|| FlajoletMartin::with_error(0.1, SEED));
    assert_f0_roundtrip_merges(|| KMinValues::with_error(0.1, SEED));
    assert_f0_roundtrip_merges(|| BjkstSketch::with_error(0.1, UNIVERSE, SEED));
    assert_f0_roundtrip_merges(|| GibbonsTirthapura::with_error(0.1, UNIVERSE, SEED));
    assert_f0_roundtrip_merges(|| LinearCounting::with_capacity(1 << 16, SEED));
    assert_f0_roundtrip_merges(|| AmsEstimator::new(64, SEED));
    assert_f0_roundtrip_merges(ExactCounter::new);
}

#[test]
fn knw_l0_sketch_roundtrips_and_merges() {
    let cfg = L0Config::new(0.1, UNIVERSE)
        .with_seed(SEED)
        .with_stream_length_bound(1 << 24)
        .with_update_magnitude_bound(1 << 10);
    assert_l0_roundtrip_merges(move || KnwL0Sketch::new(cfg));
}

#[test]
fn l0_baselines_roundtrip_and_merge() {
    assert_l0_roundtrip_merges(|| GangulyL0::new(0.1, UNIVERSE, 40, SEED));
    assert_l0_roundtrip_merges(ExactL0Counter::new);
}

#[test]
fn serialized_sketches_are_compact() {
    // Sanity-check the codec is byte-oriented, not accidentally quadratic:
    // a sketch's encoding should be within a small factor of its own
    // space accounting.
    let cfg = F0Config::new(0.1, UNIVERSE).with_seed(SEED);
    let mut sketch = KnwF0Sketch::new(cfg);
    sketch.insert_batch(&items(20_000, 3));
    let bytes = serde::to_bytes(&sketch);
    let accounted_bytes = knw::core::SpaceUsage::space_bits(&sketch) / 8;
    assert!(
        (bytes.len() as u64) < accounted_bytes * 64,
        "encoding {} bytes vs accounted {} bytes",
        bytes.len(),
        accounted_bytes
    );
}

#[test]
fn corrupted_input_errors_instead_of_panicking() {
    let cfg = F0Config::new(0.2, 1 << 12).with_seed(1);
    let mut sketch = KnwF0Sketch::new(cfg);
    sketch.insert_batch(&items(1_000, 0));
    let bytes = serde::to_bytes(&sketch);
    // Truncations at a few offsets must all fail cleanly.
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            serde::from_bytes::<KnwF0Sketch>(&bytes[..cut]).is_err(),
            "truncation at {cut} was accepted"
        );
    }
}
