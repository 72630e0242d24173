//! Resolving a [`SketchSpec`] to a live sketch, and shard bytes back to a
//! mergeable sketch — the name→type registry of the wire format.
//!
//! The worker binary and the aggregator are separate processes; the only
//! thing they share is the spec travelling in the `Hello` frame.  This
//! module is the single place where an estimator *name* (the same string
//! `CardinalityEstimator::name` / `TurnstileEstimator::name` reports) is
//! mapped to a concrete type, for construction on the worker and for
//! deserialization on the aggregator, so the two sides cannot disagree
//! about what a shard's bytes mean.
//!
//! The constructors mirror `knw_baselines::all_f0_estimators` /
//! `all_l0_estimators` parameter-for-parameter: a cluster run over spec
//! `(ε, n, seed)` is merge-compatible with (and bit-identical to) a local
//! zoo instance built from the same numbers.

use crate::error::ClusterError;
use crate::frame::SketchSpec;
use knw_baselines::{
    AmsEstimator, BjkstSketch, ExactCounter, ExactL0Counter, FlajoletMartin, GangulyL0,
    GibbonsTirthapura, HyperLogLog, KMinValues, LinearCounting, LogLog,
    LINEAR_COUNTING_CAPACITY_FACTOR,
};
use knw_core::{
    DynMergeableCardinalityEstimator, DynMergeableTurnstileEstimator, F0Config, KnwF0Sketch,
    KnwL0Sketch, L0Config,
};

/// An F0 shard sketch that can ship itself over the wire: the mergeable
/// estimator contract plus serialization to the workspace's binary codec.
///
/// Blanket-implemented for every mergeable F0 estimator that derives the
/// serde traits — never implement it manually.
pub trait WireF0Sketch: DynMergeableCardinalityEstimator {
    /// The sketch serialized with the workspace codec (the payload of a
    /// `Shard` frame).
    fn wire_bytes(&self) -> Vec<u8>;
}

impl<T> WireF0Sketch for T
where
    T: DynMergeableCardinalityEstimator + serde::Serialize,
{
    fn wire_bytes(&self) -> Vec<u8> {
        serde::to_bytes(self)
    }
}

/// The turnstile counterpart of [`WireF0Sketch`].
pub trait WireL0Sketch: DynMergeableTurnstileEstimator {
    /// The sketch serialized with the workspace codec.
    fn wire_bytes(&self) -> Vec<u8>;
}

impl<T> WireL0Sketch for T
where
    T: DynMergeableTurnstileEstimator + serde::Serialize,
{
    fn wire_bytes(&self) -> Vec<u8> {
        serde::to_bytes(self)
    }
}

/// Every F0 estimator name the wire format can resolve (the zoo of
/// `knw_baselines::all_f0_estimators`).
#[must_use]
pub fn f0_estimator_names() -> &'static [&'static str] {
    &[
        "knw-f0",
        "hyperloglog",
        "loglog",
        "flajolet-martin",
        "kmv-bottom-k",
        "bjkst",
        "gibbons-tirthapura",
        "linear-counting",
        "ams",
        "exact",
    ]
}

/// Every L0 estimator name the wire format can resolve (the zoo of
/// `knw_baselines::all_l0_estimators`).
#[must_use]
pub fn l0_estimator_names() -> &'static [&'static str] {
    &["knw-l0", "ganguly-l0", "exact-l0"]
}

fn l0_config(spec: &SketchSpec) -> L0Config {
    // The same bounds `all_l0_estimators` uses, so cluster shards merge
    // with locally built zoo instances.
    L0Config::new(spec.epsilon, spec.universe)
        .with_seed(spec.seed)
        .with_stream_length_bound(1 << 32)
        .with_update_magnitude_bound(1 << 20)
}

fn linear_counting_capacity(epsilon: f64) -> u64 {
    (LINEAR_COUNTING_CAPACITY_FACTOR / (epsilon * epsilon)) as u64
}

/// Builds a fresh F0 shard sketch for `spec`.
///
/// # Errors
///
/// [`ClusterError::UnknownEstimator`] if the name is not in the zoo.
pub fn build_f0(spec: &SketchSpec) -> Result<Box<dyn WireF0Sketch>, ClusterError> {
    let (eps, n, seed) = (spec.epsilon, spec.universe, spec.seed);
    Ok(match spec.estimator.as_str() {
        "knw-f0" => Box::new(KnwF0Sketch::new(F0Config::new(eps, n).with_seed(seed))),
        "hyperloglog" => Box::new(HyperLogLog::with_error(eps, seed)),
        "loglog" => Box::new(LogLog::with_error(eps, seed)),
        "flajolet-martin" => Box::new(FlajoletMartin::with_error(eps, seed)),
        "kmv-bottom-k" => Box::new(KMinValues::with_error(eps, seed)),
        "bjkst" => Box::new(BjkstSketch::with_error(eps, n, seed)),
        "gibbons-tirthapura" => Box::new(GibbonsTirthapura::with_error(eps, n, seed)),
        "linear-counting" => Box::new(LinearCounting::with_capacity(
            linear_counting_capacity(eps),
            seed,
        )),
        "ams" => Box::new(AmsEstimator::new(64, seed)),
        "exact" => Box::new(ExactCounter::new()),
        other => {
            return Err(ClusterError::UnknownEstimator {
                name: other.to_string(),
            })
        }
    })
}

/// Builds a fresh L0 shard sketch for `spec`.
///
/// # Errors
///
/// [`ClusterError::UnknownEstimator`] if the name is not in the zoo.
pub fn build_l0(spec: &SketchSpec) -> Result<Box<dyn WireL0Sketch>, ClusterError> {
    Ok(match spec.estimator.as_str() {
        "knw-l0" => Box::new(KnwL0Sketch::new(l0_config(spec))),
        "ganguly-l0" => Box::new(GangulyL0::new(
            spec.epsilon,
            spec.universe,
            l0_config(spec).log_mm(),
            spec.seed,
        )),
        "exact-l0" => Box::new(ExactL0Counter::new()),
        other => {
            return Err(ClusterError::UnknownEstimator {
                name: other.to_string(),
            })
        }
    })
}

fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    serde::from_bytes(bytes).map_err(|e| e.to_string())
}

/// Deserializes a `Shard` frame's bytes back into the concrete F0 sketch
/// `spec` names, boxed behind the mergeable contract.  Codec failures come
/// back as the raw message (the caller attributes them to a worker).
///
/// # Errors
///
/// The codec's rejection message, or the unknown-estimator name prefixed
/// with `unknown estimator`.
pub fn f0_shard_from_bytes(
    spec: &SketchSpec,
    bytes: &[u8],
) -> Result<Box<dyn WireF0Sketch>, String> {
    Ok(match spec.estimator.as_str() {
        "knw-f0" => Box::new(decode::<KnwF0Sketch>(bytes)?),
        "hyperloglog" => Box::new(decode::<HyperLogLog>(bytes)?),
        "loglog" => Box::new(decode::<LogLog>(bytes)?),
        "flajolet-martin" => Box::new(decode::<FlajoletMartin>(bytes)?),
        "kmv-bottom-k" => Box::new(decode::<KMinValues>(bytes)?),
        "bjkst" => Box::new(decode::<BjkstSketch>(bytes)?),
        "gibbons-tirthapura" => Box::new(decode::<GibbonsTirthapura>(bytes)?),
        "linear-counting" => Box::new(decode::<LinearCounting>(bytes)?),
        "ams" => Box::new(decode::<AmsEstimator>(bytes)?),
        "exact" => Box::new(decode::<ExactCounter>(bytes)?),
        other => return Err(format!("unknown estimator {other:?}")),
    })
}

/// Deserializes L0 shard bytes; codec failures come back as the raw message
/// (the caller attributes them to a worker).
///
/// # Errors
///
/// The codec's rejection message, or the unknown-estimator name prefixed
/// with `unknown estimator`.
pub fn l0_shard_from_bytes(
    spec: &SketchSpec,
    bytes: &[u8],
) -> Result<Box<dyn WireL0Sketch>, String> {
    Ok(match spec.estimator.as_str() {
        "knw-l0" => Box::new(decode::<KnwL0Sketch>(bytes)?),
        "ganguly-l0" => Box::new(decode::<GangulyL0>(bytes)?),
        "exact-l0" => Box::new(decode::<ExactL0Counter>(bytes)?),
        other => return Err(format!("unknown estimator {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SketchSpec;

    #[test]
    fn every_f0_name_builds_and_round_trips() {
        for &name in f0_estimator_names() {
            let spec = SketchSpec::f0(name, 0.1, 1 << 16, 99);
            let mut sketch = build_f0(&spec).expect("zoo name builds");
            assert_eq!(sketch.name(), name, "registry name drifted");
            sketch.insert_batch(&[1, 2, 3, 2, 1]);
            let bytes = sketch.wire_bytes();
            let wired = f0_shard_from_bytes(&spec, &bytes).expect("round trip");
            assert_eq!(wired.estimate(), sketch.estimate(), "{name} deviated");
        }
    }

    #[test]
    fn every_l0_name_builds_and_round_trips() {
        for &name in l0_estimator_names() {
            let spec = SketchSpec::l0(name, 0.1, 1 << 16, 99);
            let mut sketch = build_l0(&spec).expect("zoo name builds");
            assert_eq!(sketch.name(), name, "registry name drifted");
            sketch.update_batch(&[(1, 5), (2, -3), (1, -5)]);
            let bytes = sketch.wire_bytes();
            let wired = l0_shard_from_bytes(&spec, &bytes).expect("round trip");
            assert_eq!(wired.estimate(), sketch.estimate(), "{name} deviated");
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let spec = SketchSpec::f0("no-such-sketch", 0.1, 1 << 16, 1);
        assert!(matches!(
            build_f0(&spec),
            Err(ClusterError::UnknownEstimator { .. })
        ));
        assert!(f0_shard_from_bytes(&spec, &[]).is_err());
        let spec = SketchSpec::l0("no-such-sketch", 0.1, 1 << 16, 1);
        assert!(matches!(
            build_l0(&spec),
            Err(ClusterError::UnknownEstimator { .. })
        ));
        assert!(l0_shard_from_bytes(&spec, &[]).is_err());
    }

    #[test]
    fn corrupt_shard_bytes_are_decode_errors_not_panics() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 1);
        let sketch = build_f0(&spec).expect("builds");
        let mut bytes = sketch.wire_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(f0_shard_from_bytes(&spec, &bytes).is_err());
    }

    /// A `KnwF0Sketch` shard whose domain-compression hash `h2` claims a
    /// range of 0 is a decode error; derived decoding accepted it, and the
    /// first insert then divided by zero.
    #[test]
    fn forged_f0_hash_range_is_a_decode_error_not_a_panic() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 3);
        let bytes = build_f0(&spec).expect("builds").wire_bytes();
        assert!(f0_shard_from_bytes(&spec, &bytes).is_ok());
        // h2 ranges over [K³]: its range and power-of-two flag, in place.
        let cube = knw_core::F0Config::new(spec.epsilon, spec.universe)
            .num_bins()
            .pow(3);
        let mut field = cube.to_le_bytes().to_vec();
        field.push(u8::from(cube.is_power_of_two()));
        let at: Vec<usize> = (0..bytes.len() - field.len())
            .filter(|&i| bytes[i..].starts_with(&field))
            .collect();
        assert_eq!(at.len(), 1, "h2's range is not unique in the shard");
        let mut forged = bytes;
        forged[at[0]..at[0] + 8].fill(0);
        let error = f0_shard_from_bytes(&spec, &forged).map(|_| "a shard");
        assert!(
            matches!(&error, Err(message) if message.contains("range 0")),
            "{error:?}"
        );
    }

    #[test]
    fn single_byte_mutations_of_an_l0_shard_are_rejected_or_decode() {
        use knw_hash::rng::{Rng64, SplitMix64};
        let spec = SketchSpec::l0("knw-l0", 0.5, 1 << 8, 5);
        let mut sketch = build_l0(&spec).expect("builds");
        let updates: Vec<(u64, i64)> = (0..300u64)
            .map(|i| (i * 7 % 211, if i % 3 == 0 { -2 } else { 1 }))
            .collect();
        sketch.update_batch(&updates);
        let bytes = sketch.wire_bytes();
        let mut rng = SplitMix64::new(0x5eed);
        let (mut rejected, mut decoded) = (0, 0);
        for _ in 0..150 {
            let mut mutant = bytes.clone();
            let at = rng.next_below(bytes.len() as u64) as usize;
            mutant[at] ^= 1 + rng.next_below(255) as u8;
            match l0_shard_from_bytes(&spec, &mutant) {
                // Every accepted encoding is the canonical one of its state,
                // and merges with a genuine shard either way round succeed or
                // return an error, never panic.
                Ok(mut shard) => {
                    assert_eq!(
                        shard.wire_bytes(),
                        mutant,
                        "byte {at} re-encoded differently"
                    );
                    let mut genuine = build_l0(&spec).expect("builds");
                    let _ = genuine.merge_dyn(shard.as_ref());
                    let _ = shard.merge_dyn(sketch.as_ref());
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            rejected > 0 && decoded > 0,
            "{rejected} rejected, {decoded} decoded"
        );
    }
}
