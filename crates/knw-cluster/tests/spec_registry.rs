//! Spec-registry completeness: the wire format's name→type registry
//! (`knw_cluster::spec`) and the estimator zoos
//! (`knw_baselines::all_f0_estimators` / `all_l0_estimators`) must be the
//! *same* set — a sketch added to one but not the other would make cluster
//! runs and in-process runs silently disagree about what exists.  And a
//! name in neither must fail as a typed error naming the bad spec field,
//! as must forged shard bytes under a known name.

use knw_baselines::{all_f0_estimators, all_l0_estimators};
use knw_cluster::{
    build_f0, build_l0, f0_estimator_names, l0_estimator_names, ClusterError, ClusterUpdate,
    SketchSpec,
};
use std::collections::BTreeSet;

const EPS: f64 = 0.1;
const UNIVERSE: u64 = 1 << 16;
const SEED: u64 = 77;

/// The F0 registry and the F0 zoo expose exactly the same names — neither
/// can drift ahead of the other.
#[test]
fn f0_registry_matches_the_zoo_exactly() {
    let registry: BTreeSet<&str> = f0_estimator_names().iter().copied().collect();
    let zoo: BTreeSet<String> = all_f0_estimators(EPS, UNIVERSE, SEED)
        .iter()
        .map(|e| e.name().to_string())
        .collect();
    let zoo_refs: BTreeSet<&str> = zoo.iter().map(String::as_str).collect();
    assert_eq!(
        registry, zoo_refs,
        "the wire-format registry and all_f0_estimators drifted apart"
    );
}

/// The L0 registry and the L0 zoo expose exactly the same names.
#[test]
fn l0_registry_matches_the_zoo_exactly() {
    let registry: BTreeSet<&str> = l0_estimator_names().iter().copied().collect();
    let zoo: BTreeSet<String> = all_l0_estimators(EPS, UNIVERSE, SEED)
        .iter()
        .map(|e| e.name().to_string())
        .collect();
    let zoo_refs: BTreeSet<&str> = zoo.iter().map(String::as_str).collect();
    assert_eq!(
        registry, zoo_refs,
        "the wire-format registry and all_l0_estimators drifted apart"
    );
}

/// Every name either zoo produces resolves through `SketchSpec`: it
/// builds, reports the same name back, and its serialized shard bytes
/// deserialize through the registry — the full wire round trip, for the
/// whole zoo, in one place.
#[test]
fn every_zoo_name_resolves_and_round_trips_through_the_registry() {
    for estimator in all_f0_estimators(EPS, UNIVERSE, SEED) {
        let spec = SketchSpec::f0(estimator.name(), EPS, UNIVERSE, SEED);
        let mut built = build_f0(&spec)
            .unwrap_or_else(|e| panic!("zoo name {:?} failed to resolve: {e}", estimator.name()));
        assert_eq!(
            built.name(),
            estimator.name(),
            "registry renamed the sketch"
        );
        built.insert_batch(&[1, 2, 3, 5, 8, 13]);
        let decoded = u64::shard_from_bytes(&spec, &built.wire_bytes())
            .unwrap_or_else(|e| panic!("{:?} shard bytes rejected: {e}", estimator.name()));
        assert_eq!(decoded.estimate().to_bits(), built.estimate().to_bits());
    }
    for estimator in all_l0_estimators(EPS, UNIVERSE, SEED) {
        let spec = SketchSpec::l0(estimator.name(), EPS, UNIVERSE, SEED);
        let mut built = build_l0(&spec)
            .unwrap_or_else(|e| panic!("zoo name {:?} failed to resolve: {e}", estimator.name()));
        assert_eq!(
            built.name(),
            estimator.name(),
            "registry renamed the sketch"
        );
        built.update_batch(&[(1, 4), (2, -1), (1, -4), (9, 2)]);
        let decoded = <(u64, i64)>::shard_from_bytes(&spec, &built.wire_bytes())
            .unwrap_or_else(|e| panic!("{:?} shard bytes rejected: {e}", estimator.name()));
        assert_eq!(decoded.estimate().to_bits(), built.estimate().to_bits());
    }
}

/// A name outside the zoo fails as the typed `UnknownEstimator`, and the
/// rendered error names both the offending value and the spec field it
/// arrived in (`estimator`) — the operator knows exactly what to fix.
#[test]
fn unknown_names_are_typed_errors_naming_the_spec_field() {
    for spec in [
        SketchSpec::f0("no-such-sketch", EPS, UNIVERSE, SEED),
        SketchSpec::l0("no-such-sketch", EPS, UNIVERSE, SEED),
    ] {
        let error = match spec.mode {
            knw_cluster::StreamMode::F0 => build_f0(&spec).map(|_| ()).unwrap_err(),
            knw_cluster::StreamMode::L0 => build_l0(&spec).map(|_| ()).unwrap_err(),
        };
        let ClusterError::UnknownEstimator { name } = &error else {
            panic!("expected UnknownEstimator, got {error:?}");
        };
        assert_eq!(name, "no-such-sketch");
        let message = error.to_string();
        assert!(
            message.contains("`estimator`"),
            "error must name the bad spec field: {message}"
        );
        assert!(
            message.contains("no-such-sketch"),
            "error must name the bad value: {message}"
        );
    }
}

/// The same completeness holds on the deserialization side: unknown names
/// are rejected (with the name in the message) before any bytes are
/// trusted.
#[test]
fn unknown_names_are_rejected_on_the_decode_side_too() {
    let f0 = SketchSpec::f0("no-such-sketch", EPS, UNIVERSE, SEED);
    let message = u64::shard_from_bytes(&f0, &[1, 2, 3])
        .map(|_| ())
        .unwrap_err();
    assert!(message.contains("no-such-sketch"), "{message}");
    let l0 = SketchSpec::l0("no-such-sketch", EPS, UNIVERSE, SEED);
    let message = <(u64, i64)>::shard_from_bytes(&l0, &[1, 2, 3])
        .map(|_| ())
        .unwrap_err();
    assert!(message.contains("no-such-sketch"), "{message}");
}

/// A `KnwF0Sketch` shard whose counter array declares a counter wider
/// than 64 bits, or width fields wider than 7 bits, is a decode error;
/// derived decoding accepted both, and the first counter read panicked.
#[test]
fn forged_f0_counter_width_is_a_decode_error_not_a_panic() {
    let spec = SketchSpec::f0("knw-f0", EPS, UNIVERSE, SEED);
    let mut sketch = build_f0(&spec).expect("builds");
    sketch.insert_batch(&(0..500).collect::<Vec<_>>());
    let bytes = sketch.wire_bytes();
    // The counters' width fields end with their bit length (7 per
    // counter), the field width 7 and the counter count K.
    let k = knw_core::F0Config::new(spec.epsilon, spec.universe).num_bins();
    let mut tail = (7 * k).to_le_bytes().to_vec();
    tail.extend_from_slice(&7u32.to_le_bytes());
    tail.extend_from_slice(&k.to_le_bytes());
    let at: Vec<usize> = (0..bytes.len() - tail.len())
        .filter(|&i| bytes[i..].starts_with(&tail))
        .collect();
    assert_eq!(
        at.len(),
        1,
        "the counter widths are not unique in the shard"
    );
    let mut wide_counter = bytes.clone();
    // Counter 0's width is the low 7 bits of the first width word.
    let first_word = at[0] - 8 * (7 * k).div_ceil(64) as usize;
    wide_counter[first_word] = (wide_counter[first_word] & 0x80) | 100;
    let mut wide_fields = bytes;
    wide_fields[at[0] + 8] = 65;
    for forged in [wide_counter, wide_fields] {
        let error = u64::shard_from_bytes(&spec, &forged).map(|_| "a shard");
        assert!(error.is_err(), "{error:?}");
    }
}
