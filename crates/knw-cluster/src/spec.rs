//! Resolving a [`SketchSpec`] to a live sketch — the name→type registry of
//! the wire format.
//!
//! The worker binary and the aggregator are separate processes; the only
//! thing they share is the spec travelling in the `Hello` frame.  This
//! module is the single place where an estimator *name* (the same string
//! `CardinalityEstimator::name` / `TurnstileEstimator::name` reports) is
//! mapped to a concrete type.  Shard bytes are read by the sketch the spec
//! builds (`ClusterUpdate::shard_from_bytes`), so the two sides cannot
//! disagree about what a shard's bytes mean.
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
    KnwL0Sketch, L0Config, MergeableEstimator, SketchError,
};

/// An F0 shard sketch that can ship itself over the wire: the mergeable
/// estimator contract plus serialization to the workspace's binary codec.
///
/// Blanket-implemented for every mergeable F0 estimator that derives the
/// serde traits — never implement it manually.  It is `Send`, so an
/// aggregator holding its merged shard can move to a serving thread.
pub trait WireF0Sketch: DynMergeableCardinalityEstimator + Send {
    /// Appends the sketch serialized with the workspace codec (the payload
    /// of a `Shard` frame) to `out`.
    fn write_wire(&self, out: &mut Vec<u8>);

    /// Merges a `Shard` frame's payload into this sketch, or with `replace`
    /// makes this sketch that shard
    /// ([`MergeableEstimator::merge_from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`SketchError::Decode`] for bytes the decoder refuses, else the
    /// merge's refusal; the sketch is then unchanged.
    fn merge_wire(&mut self, bytes: &[u8], replace: bool) -> Result<(), SketchError>;

    /// The serialized sketch in a buffer of its own.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_wire(&mut out);
        out
    }
}

impl<T> WireF0Sketch for T
where
    T: DynMergeableCardinalityEstimator
        + MergeableEstimator<MergeError = SketchError>
        + Send
        + serde::Serialize
        + serde::Deserialize,
{
    fn write_wire(&self, out: &mut Vec<u8>) {
        self.serialize(out);
    }

    fn merge_wire(&mut self, bytes: &[u8], replace: bool) -> Result<(), SketchError> {
        self.merge_from_bytes(bytes, replace)
    }
}

/// The turnstile counterpart of [`WireF0Sketch`].
pub trait WireL0Sketch: DynMergeableTurnstileEstimator + Send {
    /// Appends the sketch serialized with the workspace codec to `out`.
    fn write_wire(&self, out: &mut Vec<u8>);

    /// Merges a `Shard` frame's payload into this sketch, or with `replace`
    /// makes this sketch that shard (see [`WireF0Sketch::merge_wire`]).
    ///
    /// # Errors
    ///
    /// As [`WireF0Sketch::merge_wire`].
    fn merge_wire(&mut self, bytes: &[u8], replace: bool) -> Result<(), SketchError>;

    /// The serialized sketch in a buffer of its own.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_wire(&mut out);
        out
    }
}

impl<T> WireL0Sketch for T
where
    T: DynMergeableTurnstileEstimator
        + MergeableEstimator<MergeError = SketchError>
        + Send
        + serde::Serialize
        + serde::Deserialize,
{
    fn write_wire(&self, out: &mut Vec<u8>) {
        self.serialize(out);
    }

    fn merge_wire(&mut self, bytes: &[u8], replace: bool) -> Result<(), SketchError> {
        self.merge_from_bytes(bytes, replace)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::ClusterUpdate;
    use crate::frame::SketchSpec;

    #[test]
    fn every_f0_name_builds_and_round_trips() {
        for &name in f0_estimator_names() {
            let spec = SketchSpec::f0(name, 0.1, 1 << 16, 99);
            let mut sketch = build_f0(&spec).expect("zoo name builds");
            assert_eq!(sketch.name(), name, "registry name drifted");
            sketch.insert_batch(&[1, 2, 3, 2, 1]);
            let bytes = sketch.wire_bytes();
            let wired = u64::shard_from_bytes(&spec, &bytes).expect("round trip");
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
            let wired = <(u64, i64)>::shard_from_bytes(&spec, &bytes).expect("round trip");
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
        assert!(u64::shard_from_bytes(&spec, &[]).is_err());
        let spec = SketchSpec::l0("no-such-sketch", 0.1, 1 << 16, 1);
        assert!(matches!(
            build_l0(&spec),
            Err(ClusterError::UnknownEstimator { .. })
        ));
        assert!(<(u64, i64)>::shard_from_bytes(&spec, &[]).is_err());
    }

    #[test]
    fn corrupt_shard_bytes_are_decode_errors_not_panics() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 1);
        let sketch = build_f0(&spec).expect("builds");
        let mut bytes = sketch.wire_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(u64::shard_from_bytes(&spec, &bytes).is_err());
    }

    /// A `KnwF0Sketch` shard whose domain-compression hash `h2` claims a
    /// range of 0 is a decode error; derived decoding accepted it, and the
    /// first insert then divided by zero.
    #[test]
    fn forged_f0_hash_range_is_a_decode_error_not_a_panic() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 3);
        let bytes = build_f0(&spec).expect("builds").wire_bytes();
        assert!(u64::shard_from_bytes(&spec, &bytes).is_ok());
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
        let error = u64::shard_from_bytes(&spec, &forged).map(|_| "a shard");
        assert!(
            matches!(&error, Err(message) if message.contains("range 0")),
            "{error:?}"
        );
    }

    /// A `KnwF0Sketch` shard whose base level is forged past `log n` is a
    /// decode error.  Derived decoding accepted it, and the next insert
    /// shifted `1 << b` out of range: a panic in a debug build, a wrong
    /// filter in a release one.  Every change to the level fields that
    /// still decodes merges and ingests without a panic.
    #[test]
    fn forged_f0_base_is_a_decode_error_not_a_shift_overflow() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 3);
        let mut sketch = KnwF0Sketch::new(F0Config::new(0.1, 1 << 16).with_seed(3));
        let items: Vec<u64> = (0..40_000).map(|i| i * 0x9E37_79B9 % (1 << 16)).collect();
        sketch.insert_batch(&items);
        assert!(sketch.base_level() > 0, "the stream moved the base");
        let bytes = serde::to_bytes(&sketch);
        assert!(u64::shard_from_bytes(&spec, &bytes).is_ok());
        // `occupied`, then `base` and `est`, in place.
        let occupied = sketch.occupancy().to_le_bytes();
        let at: Vec<usize> = (0..bytes.len() - 12)
            .filter(|&i| {
                bytes[i..i + 8] == occupied
                    && bytes[i + 8..i + 12] == sketch.base_level().to_le_bytes()
            })
            .collect();
        assert_eq!(
            at.len(),
            1,
            "occupancy and base are not unique in the shard"
        );
        let (base_at, est_at) = (at[0] + 8, at[0] + 12);
        let forge = |at: usize, value: &[u8]| {
            let mut forged = bytes.clone();
            forged[at..at + value.len()].copy_from_slice(value);
            u64::shard_from_bytes(&spec, &forged).map(|_| "a shard")
        };
        for base in [17u32, 63, 64, 200, u32::MAX] {
            let error = forge(base_at, &base.to_le_bytes());
            assert!(matches!(&error, Err(m) if m.contains("base")), "{error:?}");
        }
        for est in [-1i64, 128, i64::MAX, i64::MIN] {
            let error = forge(est_at, &est.to_le_bytes());
            assert!(matches!(&error, Err(m) if m.contains("est")), "{error:?}");
        }
        // Each byte of the bit budget, occupancy, base and est set to 0x00,
        // 0x01, 0x40 and 0xFF: whatever decodes merges both ways round and
        // takes more inserts.
        for at in at[0] - 8..est_at + 8 {
            for value in [0x00, 0x01, 0x40, 0xFF] {
                let mut mutant = bytes.clone();
                mutant[at] = value;
                let Ok(mut shard) = u64::shard_from_bytes(&spec, &mutant) else {
                    continue;
                };
                let mut genuine = build_f0(&spec).expect("builds");
                let _ = genuine.merge_dyn(shard.as_ref());
                let _ = shard.merge_dyn(genuine.as_ref());
                genuine.insert_batch(&items[..2_000]);
                shard.insert_batch(&items[..2_000]);
            }
        }
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
            match <(u64, i64)>::shard_from_bytes(&spec, &mutant) {
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
