//! Every reply a worker sends folds into the aggregator's accumulator.
//!
//! For each estimator of the zoo, a worker session's `Shard` replies,
//! merged one after the other into the sketch the spec builds and never
//! replacing it, give what a single sketch over every batch gives.  An L0
//! worker replies with the batches since its last reply, which the sum
//! folds; an F0 worker replies with all it holds, which the union folds
//! idempotently.

use knw_cluster::{
    f0_estimator_names, l0_estimator_names, read_frame, run_worker, write_frame, ClusterUpdate,
    Frame, HelloConfig, SketchSpec,
};

/// Runs a worker session over byte buffers — `Hello`, then each batch
/// followed by a `Snapshot`, the last by `Finish` instead — and returns
/// its `Shard` replies in order.
fn session_replies<U: ClusterUpdate>(spec: &SketchSpec, batches: &[Vec<U>]) -> Vec<Vec<u8>> {
    let hello = Frame::Hello(HelloConfig {
        worker_index: 0,
        spec: spec.clone(),
    });
    let mut script = Vec::new();
    write_frame(&mut script, &hello).expect("write");
    for (at, batch) in batches.iter().enumerate() {
        write_frame(&mut script, &Frame::Batch(U::payload(batch.clone()))).expect("write");
        let last = at + 1 == batches.len();
        let request = if last { Frame::Finish } else { Frame::Snapshot };
        write_frame(&mut script, &request).expect("write");
    }
    let mut output = Vec::new();
    run_worker(&mut script.as_slice(), &mut output).expect("a clean session");
    let mut replies = Vec::new();
    let mut cursor = output.as_slice();
    while let Some(frame) = read_frame(&mut cursor).expect("well-formed replies") {
        match frame {
            Frame::Shard(bytes) => replies.push(bytes),
            Frame::Stats(_) => {}
            other => panic!("unexpected {} reply", other.kind()),
        }
    }
    assert_eq!(replies.len(), batches.len(), "one reply per request");
    replies
}

/// The session's replies folded into the spec's fresh sketch, and a
/// single sketch over every batch.
fn folded_and_local<U: ClusterUpdate>(
    spec: &SketchSpec,
    batches: &[Vec<U>],
) -> (Box<U::Shard>, Box<U::Shard>) {
    let mut folded = U::build(spec).expect("a zoo estimator");
    for bytes in session_replies(spec, batches) {
        U::merge_wire(&mut *folded, &bytes, false).expect("a reply folds");
    }
    let mut local = U::build(spec).expect("a zoo estimator");
    for batch in batches {
        U::apply(&mut *local, batch);
    }
    (folded, local)
}

/// A mixed word for update `i` of batch `batch`.
fn mix(batch: u64, i: u64) -> u64 {
    (i ^ batch << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn folded_l0_replies_give_the_single_process_bytes() {
    // Items recur across batches, so later batches cancel or move counters
    // an earlier reply already carried.
    let batches: Vec<Vec<(u64, i64)>> = (0..3)
        .map(|batch| {
            (0..6_000)
                .map(|i| {
                    let word = mix(batch, i);
                    (word % 5_000, (word >> 40) as i64 % 5 - 2)
                })
                .collect()
        })
        .collect();
    for &name in l0_estimator_names() {
        let spec = SketchSpec::l0(name, 0.1, 1 << 16, 31);
        let (folded, local) = folded_and_local(&spec, &batches);
        assert_eq!(
            <(u64, i64)>::shard_bytes(&*folded),
            <(u64, i64)>::shard_bytes(&*local),
            "{name}"
        );
    }
}

#[test]
fn folded_f0_replies_give_the_single_process_estimate() {
    let batches: Vec<Vec<u64>> = (0..3)
        .map(|batch| (0..20_000).map(|i| mix(batch, i) % 40_000).collect())
        .collect();
    for &name in f0_estimator_names() {
        let spec = SketchSpec::f0(name, 0.1, 1 << 16, 31);
        let (folded, local) = folded_and_local(&spec, &batches);
        assert_eq!(
            folded.estimate().to_bits(),
            local.estimate().to_bits(),
            "{name}: {} vs {}",
            folded.estimate(),
            local.estimate()
        );
    }
}
