//! Failure-injection and edge-case integration tests: the FAIL guard,
//! saturation, degenerate configurations and boundary universes, exercised
//! end to end.

use knw::core::{
    CardinalityEstimator, F0Config, KnwF0Sketch, KnwL0Sketch, L0Config, SketchError,
    SmallF0Estimate,
};
use knw::stream::{StreamGenerator, UniformGenerator};

#[test]
fn tiny_universe_still_works() {
    // n = 2: the smallest meaningful universe.
    let mut sketch = KnwF0Sketch::new(F0Config::new(0.2, 2).with_seed(1));
    for _ in 0..1_000 {
        sketch.insert(0);
        sketch.insert(1);
    }
    assert_eq!(sketch.estimate(), 2.0);
}

#[test]
fn universe_larger_than_stream_values_is_fine() {
    // Items far outside the configured universe are hashed like any other key;
    // the sketch never indexes memory by the raw item value.
    let mut sketch = KnwF0Sketch::new(F0Config::new(0.1, 1 << 10).with_seed(2));
    for i in 0..5_000u64 {
        sketch.insert(u64::MAX - i);
    }
    let est = sketch.estimate();
    assert!(est > 1_000.0, "estimate {est}");
}

#[test]
fn epsilon_extremes_are_clamped_sanely() {
    // Very coarse epsilon still allocates the minimum number of counters.
    let coarse = KnwF0Sketch::new(F0Config::new(0.9, 1 << 16).with_seed(3));
    assert!(coarse.num_counters() >= 32);
    // Very fine epsilon allocates a large, power-of-two number of counters.
    let fine = KnwF0Sketch::new(F0Config::new(0.01, 1 << 16).with_seed(3));
    assert!(fine.num_counters() >= 10_000);
    assert!(fine.num_counters().is_power_of_two());
}

#[test]
fn fail_guard_is_observable_but_not_fatal() {
    // Force the guard by disabling the subsampling (divisor = K keeps the
    // base at zero far longer, so counters accumulate large offsets).
    let cfg = F0Config::new(0.2, 1 << 30).with_seed(11);
    let k = cfg.num_bins();
    let mut sketch = KnwF0Sketch::with_subsample_divisor(cfg, k);
    let mut gen = UniformGenerator::new(1 << 30, 17);
    for _ in 0..200_000 {
        sketch.insert(gen.next_item());
    }
    // Whether or not the guard tripped (it depends on the counter offsets),
    // the sketch must keep answering (the answer may be poor — with the
    // subsampling disabled the occupancy can collapse — but never NaN/∞) and
    // the strict API must agree with the flag.
    let estimate = sketch.estimate();
    assert!(estimate.is_finite() && estimate >= 0.0);
    match sketch.try_estimate() {
        Ok(v) => {
            assert!(!sketch.failed());
            assert_eq!(v, estimate);
        }
        Err(SketchError::SpaceGuardTripped) => assert!(sketch.failed()),
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn l0_handles_magnitude_boundaries() {
    let mut sketch = KnwL0Sketch::new(
        L0Config::new(0.1, 1 << 16)
            .with_seed(5)
            .with_stream_length_bound(1 << 20)
            .with_update_magnitude_bound(1 << 20),
    );
    // Large positive and negative deltas, including exact cancellation at the
    // magnitude bound.
    sketch.update(1, 1 << 20);
    sketch.update(2, -(1 << 20));
    sketch.update(3, i64::from(u16::MAX));
    assert!(sketch.estimate_l0() >= 2.0);
    sketch.update(1, -(1 << 20));
    sketch.update(2, 1 << 20);
    sketch.update(3, -i64::from(u16::MAX));
    assert_eq!(sketch.estimate_l0(), 0.0);
}

#[test]
fn small_regime_reporting_is_consistent_with_estimates() {
    let mut sketch = KnwF0Sketch::new(F0Config::new(0.05, 1 << 20).with_seed(9));
    for i in 0..50u64 {
        sketch.insert(i);
    }
    match sketch.small_regime() {
        SmallF0Estimate::Exact(c) => assert_eq!(c, 50),
        other => panic!("expected the exact regime, got {other:?}"),
    }
    for i in 50..100_000u64 {
        sketch.insert(i);
    }
    assert!(matches!(sketch.small_regime(), SmallF0Estimate::Large));
}

#[test]
fn merge_error_paths_leave_target_untouched() {
    use knw::core::MergeableEstimator;
    let mut a = KnwF0Sketch::new(F0Config::new(0.1, 1 << 16).with_seed(1));
    let b = KnwF0Sketch::new(F0Config::new(0.1, 1 << 16).with_seed(2));
    for i in 0..10_000u64 {
        a.insert(i);
    }
    let before = a.estimate();
    assert!(a.merge_from(&b).is_err());
    assert_eq!(
        a.estimate(),
        before,
        "failed merge must not mutate the target"
    );
}

#[test]
fn zero_length_streams_everywhere() {
    let f0 = KnwF0Sketch::new(F0Config::new(0.1, 1 << 12).with_seed(4));
    assert_eq!(f0.estimate(), 0.0);
    assert!(!f0.failed());
    let l0 = KnwL0Sketch::new(L0Config::new(0.1, 1 << 12).with_seed(4));
    assert_eq!(l0.estimate_l0(), 0.0);
    assert!(l0.try_estimate().is_ok());
}

// ---------------------------------------------------------------------------
// Engine failure injection: worker panics, mid-stream shutdown, and merge
// errors on the turnstile (L0) path.
// ---------------------------------------------------------------------------

mod engine_failures {
    use knw::core::{
        CardinalityEstimator, KnwL0Sketch, L0Config, MergeableEstimator, SketchError, SpaceUsage,
    };
    use knw::engine::{EngineConfig, ShardedF0Engine, ShardedL0Engine};

    /// The item value that makes [`BoobyTrappedSketch`] panic, simulating a
    /// sketch bug inside a worker thread.
    const TRIGGER: u64 = u64::MAX;

    /// A minimal mergeable estimator that panics when it sees [`TRIGGER`].
    #[derive(Debug, Clone, Default)]
    struct BoobyTrappedSketch {
        count: u64,
    }

    impl SpaceUsage for BoobyTrappedSketch {
        fn space_bits(&self) -> u64 {
            64
        }
    }

    impl CardinalityEstimator for BoobyTrappedSketch {
        fn insert(&mut self, item: u64) {
            assert!(item != TRIGGER, "injected worker failure");
            self.count += 1;
        }

        fn estimate(&self) -> f64 {
            self.count as f64
        }

        fn name(&self) -> &'static str {
            "booby-trapped"
        }
    }

    impl MergeableEstimator for BoobyTrappedSketch {
        type MergeError = SketchError;

        fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
            self.count += other.count;
            Ok(())
        }
    }

    /// A worker panic must surface as `ShardPanicked` from `finish`, not as a
    /// panic on the caller's thread and not as a silently undercounting
    /// merged sketch.
    #[test]
    fn worker_panic_surfaces_as_shard_panicked_from_finish() {
        let mut engine = ShardedF0Engine::new(EngineConfig::new(2).with_batch_size(8), |_| {
            BoobyTrappedSketch::default()
        });
        for i in 0..64u64 {
            engine.insert(i);
        }
        engine.insert(TRIGGER);
        match engine.finish() {
            Err(SketchError::ShardPanicked { shard }) => assert!(shard < 2),
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
    }

    /// Same failure, observed midstream through `snapshot` — the engine keeps
    /// answering for shutdown but refuses to report.
    #[test]
    fn worker_panic_surfaces_as_shard_panicked_from_snapshot() {
        let mut engine = ShardedF0Engine::new(EngineConfig::new(2).with_batch_size(4), |_| {
            BoobyTrappedSketch::default()
        });
        engine.insert(TRIGGER);
        engine.flush();
        // Give the worker time to die, then keep feeding: ingestion must not
        // panic the routing thread even while the shard is gone.
        std::thread::sleep(std::time::Duration::from_millis(50));
        for i in 0..64u64 {
            engine.insert(i);
        }
        match engine.snapshot() {
            Err(SketchError::ShardPanicked { shard }) => assert!(shard < 2),
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
    }

    /// `finish` called mid-stream (pending partial batch in the buffer) must
    /// flush that batch: no update may be lost at shutdown.
    #[test]
    fn midstream_finish_flushes_the_partial_batch() {
        let cfg = L0Config::new(0.1, 1 << 16).with_seed(21);
        // Batch size far larger than the stream: everything stays buffered
        // until finish.
        let mut engine =
            ShardedL0Engine::new(EngineConfig::new(3).with_batch_size(1 << 16), move |_| {
                KnwL0Sketch::new(cfg)
            });
        let mut single = KnwL0Sketch::new(cfg);
        for i in 0..500u64 {
            engine.update(i, 3);
            single.update(i, 3);
        }
        assert_eq!(engine.items_ingested(), 500);
        let merged = engine.finish().expect("healthy shards");
        assert_eq!(merged.updates_processed(), single.updates_processed());
        assert_eq!(merged.estimate_l0(), single.estimate_l0());
    }

    /// Seed and config mismatches on the L0 engine path surface the sketch's
    /// structured merge errors through `snapshot` and `finish`.
    #[test]
    fn l0_engine_surfaces_seed_and_config_mismatches() {
        // Different seed per shard: SeedMismatch.
        let mut engine = ShardedL0Engine::new(EngineConfig::new(2).with_batch_size(4), |shard| {
            KnwL0Sketch::new(L0Config::new(0.2, 1 << 12).with_seed(shard as u64))
        });
        engine.update(1, 1);
        assert_eq!(engine.snapshot().unwrap_err(), SketchError::SeedMismatch);
        assert_eq!(engine.finish().unwrap_err(), SketchError::SeedMismatch);

        // Different epsilon per shard: IncompatibleConfig naming the field.
        let mut engine = ShardedL0Engine::new(EngineConfig::new(2).with_batch_size(4), |shard| {
            let epsilon = if shard == 0 { 0.2 } else { 0.4 };
            KnwL0Sketch::new(L0Config::new(epsilon, 1 << 12).with_seed(7))
        });
        engine.update(1, 1);
        match engine.finish() {
            Err(SketchError::IncompatibleConfig { field, .. }) => assert_eq!(field, "epsilon"),
            other => panic!("expected IncompatibleConfig, got {other:?}"),
        }
    }
}
