//! The aggregator times each worker reply's fold into its accumulator
//! under `knw_cluster_fold_latency_ns`: one sample per reply folded, on a
//! snapshot, a shrink and a finish alike.
//!
//! The metrics registry is process-wide, so this test has a binary of its
//! own: no other aggregator in the process adds samples while it counts.

use knw_cluster::{ClusterConfig, L0ClusterAggregator, SketchSpec};

#[test]
fn every_folded_reply_adds_one_fold_latency_sample() {
    let spec = SketchSpec::l0("knw-l0", 0.1, 1 << 20, 7);
    let config = ClusterConfig::pipe(3, env!("CARGO_BIN_EXE_knw-worker"));
    let folds = knw_metrics::global().histogram("knw_cluster_fold_latency_ns", &[]);
    let updates: Vec<(u64, i64)> = (0..3_000u64)
        .map(|i| (i * 7 + 1, 1 - 2 * (i % 3) as i64))
        .collect();

    let mut cluster = L0ClusterAggregator::start(&config, &spec).expect("start");
    let mut expected = folds.count();
    for round in 0..2 {
        cluster.ingest_batch(&updates);
        cluster.snapshot().expect("snapshot");
        expected += 3;
        assert_eq!(folds.count(), expected, "snapshot {round} of 3 workers");
    }
    cluster.scale_to(2).expect("shrink 3 -> 2");
    expected += 1;
    assert_eq!(
        folds.count(),
        expected,
        "a shrink folds the retiree's reply"
    );
    cluster.ingest_batch(&updates);
    cluster.finish().expect("finish");
    assert_eq!(folds.count(), expected + 2, "finish of 2 workers");
}
