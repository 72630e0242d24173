//! Exact small-L0 counting (Lemma 8 of the paper).
//!
//! Given the promise `L0 ≤ c`, the Hamming norm can be computed *exactly* with
//! probability `1 − δ` in `O(c² · log log(mM))` bits: hash the universe
//! pairwise-independently into `Θ(c²)` buckets, keep in each bucket the sum of
//! frequencies **modulo a random prime `p`** of polylogarithmic size, and
//! report the number of nonzero buckets; take the maximum over `O(log(1/δ))`
//! independent trials.
//!
//! Two failure modes exist and both only ever cause *under*-counting, which is
//! why the maximum over trials works:
//!
//! * two nonzero coordinates collide in a bucket and their frequencies cancel
//!   (or simply merge) — avoided per trial with constant probability because
//!   the bucket count is `Ω(c²)` (birthday bound);
//! * `p` divides some nonzero frequency — made rare by drawing `p` at random
//!   from an interval containing many more primes than any frequency has
//!   prime factors.
//!
//! The structure never over-counts beyond `L0` as long as the promise holds
//! (each nonzero bucket needs at least one nonzero coordinate hashed into it).
//!
//! This structure is used twice: as the per-level detector inside
//! [`RoughL0Estimator`](crate::l0::rough::RoughL0Estimator) (with `c = 141`,
//! `δ = 1/16`, per Appendix A.3) and as the tiny-cardinality path of the full
//! [`KnwL0Sketch`](crate::l0::KnwL0Sketch) (with `c = 100`).
//!
//! # Wire form
//!
//! The rough oracle's deep levels see few coordinates, so most of its
//! `2c²`-bucket trials are nearly empty.  A trial therefore serializes its
//! nonzero counters as `(index, value)` pairs while at most half its buckets
//! are occupied, and the dense counter array otherwise; the form follows from
//! the state, so each state has one encoding.  The per-trial occupancy count
//! is not on the wire: decoding derives it from the counters, after checking
//! every index and value.
//!
//! An empty sparse trial takes a few dozen bytes whatever its bucket count,
//! so the decoded size of a structure is not bounded by its input.  The
//! decoder therefore checks the declared geometry (capacity and trial count)
//! before it allocates any counters: at most `2^22` counters for a
//! structure on its own, and exactly the geometry [`ExactSmallL0::new`]
//! gives it where a sketch embeds one (see `ExactSmallL0::deserialize_as`).

use knw_hash::pairwise::PairwiseHash;
use knw_hash::primes::random_prime_in_range;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;
use serde::{Deserialize, Error, Serialize};

/// The interval each trial draws its prime from: ~135 000 candidates, so the
/// probability that the prime divides any fixed bounded frequency is tiny,
/// while counters (and the sum of two) stay comfortably within a `u32`.
const PRIME_RANGE: std::ops::RangeInclusive<u64> = (1 << 17)..=(1 << 21);

/// Largest number of counters (trials × buckets, 16 MiB of `u32`s) one
/// structure may hold.  [`ExactSmallL0::new`] refuses larger geometries, and
/// decoding checks it before any counter array is allocated.
const MAX_COUNTERS: u64 = 1 << 22;

/// The bucket count `max(2c², 16)` of a structure with `trials` trials of
/// capacity `capacity`, or `None` if that geometry is empty or holds more
/// than [`MAX_COUNTERS`] counters.
fn buckets_for(capacity: u64, trials: u64) -> Option<u64> {
    // Θ(c²) buckets: with 2c² buckets the per-trial collision probability
    // among ≤ c surviving coordinates is below 1/4.
    let buckets = capacity.checked_mul(capacity)?.checked_mul(2)?.max(16);
    let fits = capacity >= 1 && trials >= 1 && trials.checked_mul(buckets)? <= MAX_COUNTERS;
    fits.then_some(buckets)
}

/// O(log(1/δ)) trials; each trial under-counts with probability ≤ 1/4, so
/// ⌈log₂(1/δ)⌉ trials push the failure probability below δ (plus the
/// negligible prime-divisibility term).
fn trials_for(delta: f64) -> u64 {
    ((1.0 / delta).log2().ceil() as u64).max(1)
}

/// Wire form tag: the nonzero counters as `(u32 index, u32 value)` pairs.
const FORM_SPARSE: u8 = 0;
/// Wire form tag: every counter, as a `u32` array.
const FORM_DENSE: u8 = 1;

/// `(a + b) mod p` for `a, b < p`: one conditional subtraction, no division.
#[inline]
fn add_mod(a: u64, b: u64, p: u64) -> u64 {
    let sum = a + b;
    if sum >= p {
        sum - p
    } else {
        sum
    }
}

/// `delta mod p` in `[0, p)`; the division only runs for `|delta| ≥ p`.
#[inline]
fn reduce_delta(delta: i64, p: u64) -> u64 {
    let signed_p = p as i64;
    if delta >= 0 && delta < signed_p {
        delta as u64
    } else if delta < 0 && delta > -signed_p {
        (delta + signed_p) as u64
    } else {
        delta.rem_euclid(signed_p) as u64
    }
}

/// One trial of the Lemma 8 structure.
///
/// # Wire form
///
/// The codec is hand-written so that a trial costs what it holds: the hash
/// and the prime (`u64`), then a one-byte form tag:
///
/// * [`FORM_SPARSE`] when at most half the buckets are nonzero: a `u64` pair
///   count followed by the nonzero counters as `(u32 index, u32 value)`
///   pairs in increasing bucket order;
/// * [`FORM_DENSE`] otherwise: all counters as `u32`s, with no length
///   prefix (the bucket count gives it).
///
/// The bucket count is not on the wire either: the enclosing structure
/// derives it from its capacity and passes it to [`read`](Self::read).  The
/// form is a function of the state, so every trial has exactly one
/// encoding, and decoding rejects the other form, out-of-order or
/// out-of-range indices, zero values and values `≥ prime`.  `nonzero` is
/// not on the wire: decoding derives it from the validated counters (the
/// pair count, or a count over the dense array), never from a sent value.
///
/// Both forms occur.  Over a 10 s `l0_serve_churn` benchmark run (universe
/// 2^24, ε = 0.05; 905 worker shards of 105 trials each) all 90,500
/// rough-oracle trials were sparse (720 nonzero of 39,762 buckets on
/// average), and 4,086 of the 4,525 exact-structure trials were dense:
/// that structure runs far past its capacity of 100, and its dense trials
/// held 10,014–16,031 nonzero of 20,000 buckets, so the dense form wrote
/// 80 KB where pairs would take 101 KB on average.
#[derive(Debug, Clone)]
struct Trial {
    /// Pairwise hash from the universe into the buckets.
    hash: PairwiseHash,
    /// The random prime modulus for this trial.
    prime: u64,
    /// Bucket counters, each in `[0, prime)`.
    counters: Vec<u32>,
    /// Number of nonzero counters, maintained incrementally.
    nonzero: u64,
}

impl Trial {
    fn new(buckets: u64, rng: &mut SplitMix64) -> Self {
        let prime = random_prime_in_range(*PRIME_RANGE.start(), *PRIME_RANGE.end(), rng);
        Self {
            hash: PairwiseHash::random(buckets, rng),
            prime,
            counters: vec![0u32; buckets as usize],
            nonzero: 0,
        }
    }

    #[inline]
    fn update(&mut self, item: u64, delta: i64) {
        let bucket = self.hash.hash(item) as usize;
        let old = self.counters[bucket];
        let new = add_mod(u64::from(old), reduce_delta(delta, self.prime), self.prime) as u32;
        self.counters[bucket] = new;
        match (old == 0, new == 0) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
    }

    /// Entrywise addition mod `p` of another trial's counters (Lemma 6
    /// linearity: the counters are linear functions of the frequency vector,
    /// so adding them yields the trial state of the union stream).  The
    /// caller guarantees both trials share hash and prime (same seed).
    fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(
            self.prime, other.prime,
            "trials drawn with different primes"
        );
        assert_eq!(self.counters.len(), other.counters.len());
        let mut nonzero = 0;
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            let merged = add_mod(u64::from(*mine), u64::from(*theirs), self.prime);
            *mine = merged as u32;
            if merged != 0 {
                nonzero += 1;
            }
        }
        self.nonzero = nonzero;
    }

    /// Whether the sparse form is the smaller one: at most half the buckets
    /// are nonzero (8 bytes per pair against 4 per bucket).
    fn is_sparse(nonzero: u64, buckets: usize) -> bool {
        nonzero <= buckets as u64 / 2
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.hash.serialize(out);
        self.prime.serialize(out);
        if Self::is_sparse(self.nonzero, self.counters.len()) {
            out.push(FORM_SPARSE);
            self.nonzero.serialize(out);
            out.reserve(self.nonzero as usize * 8);
            for (index, &value) in self.counters.iter().enumerate() {
                if value != 0 {
                    (index as u32).serialize(out);
                    value.serialize(out);
                }
            }
        } else {
            out.push(FORM_DENSE);
            u32::serialize_slice(&self.counters, out);
        }
    }

    /// Reads a trial of `buckets` buckets.  The caller has bounded
    /// `buckets` (see [`buckets_for`]) before this allocates the counters.
    fn read(input: &mut &[u8], buckets: u64) -> Result<Self, Error> {
        let hash = PairwiseHash::deserialize(input)?;
        let prime = u64::deserialize(input)?;
        if !PRIME_RANGE.contains(&prime) {
            return Err(Error::new(format!("trial prime {prime} out of range")));
        }
        if hash.range() != buckets {
            return Err(Error::new(format!(
                "trial hash range {} differs from its bucket count {buckets}",
                hash.range()
            )));
        }
        let buckets = buckets as usize;
        let (counters, nonzero) = match u8::deserialize(input)? {
            FORM_SPARSE => {
                let pairs = u64::deserialize(input)?;
                if !Self::is_sparse(pairs, buckets) {
                    return Err(Error::new(format!(
                        "sparse trial declares {pairs} pairs for {buckets} buckets"
                    )));
                }
                let flat = u32::deserialize_vec(2 * pairs as usize, input)?;
                let mut counters = vec![0u32; buckets];
                let mut next = 0usize;
                for pair in flat.chunks_exact(2) {
                    let (index, value) = (pair[0] as usize, pair[1]);
                    if index < next || index >= buckets {
                        return Err(Error::new(format!(
                            "sparse trial index {index} out of order or range"
                        )));
                    }
                    if value == 0 || u64::from(value) >= prime {
                        return Err(Error::new(format!(
                            "sparse trial value {value} not in [1, {prime})"
                        )));
                    }
                    counters[index] = value;
                    next = index + 1;
                }
                // Distinct indices and nonzero values: one bucket per pair.
                (counters, pairs)
            }
            FORM_DENSE => {
                let counters = u32::deserialize_vec(buckets, input)?;
                if counters.iter().any(|&c| u64::from(c) >= prime) {
                    return Err(Error::new(format!("dense trial counter not below {prime}")));
                }
                let nonzero = counters.iter().filter(|&&c| c != 0).count() as u64;
                if Self::is_sparse(nonzero, buckets) {
                    return Err(Error::new(format!(
                        "dense trial holds only {nonzero} nonzero of {buckets} buckets"
                    )));
                }
                (counters, nonzero)
            }
            tag => return Err(Error::new(format!("invalid trial form tag {tag}"))),
        };
        Ok(Self {
            hash,
            prime,
            counters,
            nonzero,
        })
    }
}

/// The Lemma 8 exact small-L0 structure.
///
/// On the wire: the capacity and the trial count (`u64`s), then each trial
/// (see `Trial`).  The bucket count is derived from the capacity, and the
/// decoder checks the geometry against `MAX_COUNTERS` before reading any
/// trial, so a few bytes can never declare more counters than a structure
/// [`new`](Self::new) would build.
#[derive(Debug, Clone)]
pub struct ExactSmallL0 {
    trials: Vec<Trial>,
    capacity: u64,
    buckets: u64,
}

impl ExactSmallL0 {
    /// Creates the structure for the promise `L0 ≤ capacity`, with failure
    /// probability roughly `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, if `delta` is not in `(0, 1)`, or if the
    /// structure would hold more than `2^22` counters (`⌈log₂(1/δ)⌉` trials
    /// of `2 · capacity²` buckets), the most a decoder accepts.
    #[must_use]
    pub fn new(capacity: u64, delta: f64, rng: &mut SplitMix64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let trials_count = trials_for(delta);
        let buckets =
            buckets_for(capacity, trials_count).expect("structure too large for the wire form");
        let trials = (0..trials_count)
            .map(|i| {
                let mut trial_rng = rng.split(i + 1);
                Trial::new(buckets, &mut trial_rng)
            })
            .collect();
        Self {
            trials,
            capacity,
            buckets,
        }
    }

    /// Decodes a structure that must have the geometry
    /// [`new(capacity, delta, _)`](Self::new) builds, checked before any
    /// trial is read.  The sketches that embed this structure decode it
    /// through here, so a forged level cannot be larger than a real one.
    pub(crate) fn deserialize_as(
        input: &mut &[u8],
        capacity: u64,
        delta: f64,
    ) -> Result<Self, Error> {
        Self::read(input, Some((capacity, trials_for(delta))))
    }

    /// The primes of the trials, in trial order.
    pub(crate) fn primes(&self) -> impl Iterator<Item = u64> + '_ {
        self.trials.iter().map(|trial| trial.prime)
    }

    /// Reads the capacity and trial count, requires them to equal `shape`
    /// when one is given and to pass [`buckets_for`], then reads the trials.
    fn read(input: &mut &[u8], shape: Option<(u64, u64)>) -> Result<Self, Error> {
        let capacity = u64::deserialize(input)?;
        let trials = u64::deserialize(input)?;
        let buckets = buckets_for(capacity, trials)
            .filter(|_| shape.is_none_or(|expected| expected == (capacity, trials)))
            .ok_or_else(|| {
                Error::new(format!(
                    "small-L0 geometry of capacity {capacity} and {trials} trials refused"
                ))
            })?;
        let trials = (0..trials)
            .map(|_| Trial::read(input, buckets))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trials,
            capacity,
            buckets,
        })
    }

    /// The promise parameter `c`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Applies the update `x_item ← x_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        for t in &mut self.trials {
            t.update(item, delta);
        }
    }

    /// The current estimate: the maximum, over trials, of the number of
    /// nonzero buckets.  Exactly `L0` with probability `1 − δ` whenever
    /// `L0 ≤ capacity`; never larger than the true `L0` (up to the negligible
    /// prime-divisibility event) and never larger than the bucket count.
    #[must_use]
    pub fn estimate(&self) -> u64 {
        self.trials.iter().map(|t| t.nonzero).max().unwrap_or(0)
    }

    /// Whether the estimate exceeds the design capacity, i.e. the promise
    /// `L0 ≤ c` has observably been violated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.estimate() > self.capacity
    }

    /// Merges another structure built with the *same seed and parameters* by
    /// entrywise counter addition mod `p` per trial.
    ///
    /// Because every bucket counter is a linear function of the frequency
    /// vector, the merged state is identical to the state a single structure
    /// would have reached over any interleaving of both update streams.
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        // Geometry is asserted (not debug-asserted) so structurally
        // inconsistent sketches fail loudly; see the L0Matrix merge.
        assert_eq!(self.capacity, other.capacity);
        assert_eq!(self.buckets, other.buckets);
        assert_eq!(self.trials.len(), other.trials.len());
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            mine.merge_from_unchecked(theirs);
        }
    }
}

impl Serialize for ExactSmallL0 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.capacity.serialize(out);
        (self.trials.len() as u64).serialize(out);
        for trial in &self.trials {
            trial.write(out);
        }
    }
}

impl Deserialize for ExactSmallL0 {
    /// Decodes a structure of any geometry [`ExactSmallL0::new`] accepts.
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Self::read(input, None)
    }
}

impl SpaceUsage for ExactSmallL0 {
    fn space_bits(&self) -> u64 {
        // Counters are values mod p < 2^21: 21 bits each in the paper's
        // accounting, plus each trial's hash and prime.
        self.trials.len() as u64 * (self.buckets * 21 + self.trials[0].hash.space_bits() + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn fresh(cap: u64, seed: u64) -> ExactSmallL0 {
        let mut rng = SplitMix64::new(seed);
        ExactSmallL0::new(cap, 1.0 / 16.0, &mut rng)
    }

    #[test]
    fn counts_insert_only_streams_exactly() {
        let mut s = fresh(100, 1);
        for i in 0..60u64 {
            s.update(i * 977, 1);
        }
        assert_eq!(s.estimate(), 60);
        assert!(!s.saturated());
    }

    #[test]
    fn empty_structure_reports_zero() {
        let s = fresh(50, 2);
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut s = fresh(100, 3);
        for i in 0..40u64 {
            s.update(i, 3);
        }
        assert_eq!(s.estimate(), 40);
        // Remove half of them completely.
        for i in 0..20u64 {
            s.update(i, -3);
        }
        assert_eq!(s.estimate(), 20);
        // Remove the rest.
        for i in 20..40u64 {
            s.update(i, -1);
            s.update(i, -2);
        }
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn negative_frequencies_still_count_as_nonzero() {
        let mut s = fresh(64, 4);
        for i in 0..30u64 {
            s.update(i, -5);
        }
        assert_eq!(s.estimate(), 30);
    }

    #[test]
    fn mixed_sign_random_workload_matches_reference() {
        let mut s = fresh(141, 5);
        let mut reference: HashMap<u64, i64> = HashMap::new();
        let mut state = 777u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let item = next() % 120;
            let delta = (next() % 7) as i64 - 3;
            if delta == 0 {
                continue;
            }
            s.update(item, delta);
            *reference.entry(item).or_insert(0) += delta;
        }
        let truth = reference.values().filter(|&&v| v != 0).count() as u64;
        assert_eq!(s.estimate(), truth);
    }

    #[test]
    fn saturation_is_detected_beyond_capacity() {
        let mut s = fresh(16, 6);
        for i in 0..200u64 {
            s.update(i, 1);
        }
        assert!(s.saturated());
        // The estimate never exceeds the true L0 (no over-counting).
        assert!(s.estimate() <= 200);
        assert!(s.estimate() > 16);
    }

    #[test]
    fn repeated_updates_to_one_item_count_once() {
        let mut s = fresh(32, 7);
        for _ in 0..500 {
            s.update(99, 2);
        }
        assert_eq!(s.estimate(), 1);
    }

    #[test]
    fn exactness_over_many_seeds() {
        // Lemma 8: exact with probability ≥ 1 − δ.  Check the failure rate
        // over many seeds stays small.
        let mut failures = 0;
        let trials = 60;
        for seed in 0..trials {
            let mut s = fresh(100, 1000 + seed);
            for i in 0..90u64 {
                s.update(i * 31 + seed, 1);
            }
            if s.estimate() != 90 {
                failures += 1;
            }
        }
        assert!(failures <= 4, "{failures}/{trials} trials were not exact");
    }

    #[test]
    fn division_free_arithmetic_matches_the_remainder_form() {
        for p in [*PRIME_RANGE.start(), 140_907, 2_097_143] {
            let edges = [0, 1, 2, p / 2, p - 2, p - 1];
            for a in edges {
                for b in edges {
                    assert_eq!(add_mod(a, b, p), (a + b) % p, "{a} + {b} mod {p}");
                }
            }
            let signed = p as i64;
            for delta in [
                0,
                1,
                -1,
                signed - 2,
                signed - 1,
                signed,
                signed + 1,
                -signed + 1,
                -signed,
                -signed - 1,
                3 * signed + 5,
                i64::MAX,
                i64::MIN,
            ] {
                assert_eq!(
                    reduce_delta(delta, p),
                    delta.rem_euclid(signed) as u64,
                    "{delta} mod {p}"
                );
            }
        }
    }

    /// A one-trial, 16-bucket structure: small enough to pin byte for byte.
    fn tiny() -> ExactSmallL0 {
        let mut rng = SplitMix64::new(9);
        ExactSmallL0::new(2, 0.5, &mut rng)
    }

    /// The encoding of [`tiny`] up to its trial's form tag.
    const TINY_HEAD: [u8; 49] = [
        2, 0, 0, 0, 0, 0, 0, 0, // capacity 2, so 16 buckets
        1, 0, 0, 0, 0, 0, 0, 0, // one trial
        86, 4, 72, 109, 3, 95, 231, 10, // hash a
        149, 178, 160, 65, 93, 133, 88, 18, // hash b
        16, 0, 0, 0, 0, 0, 0, 0, // hash range
        1, // the range is a power of two
        107, 34, 2, 0, 0, 0, 0, 0, // prime 140 907
    ];

    #[test]
    fn golden_bytes_pin_the_sparse_and_dense_forms() {
        let mut s = tiny();
        s.update(1, 1);
        s.update(2, -1);
        let sparse: Vec<u8> = TINY_HEAD
            .iter()
            .chain(&[FORM_SPARSE])
            .chain(&[2, 0, 0, 0, 0, 0, 0, 0]) // two pairs
            .chain(&[2, 0, 0, 0, 106, 34, 2, 0]) // bucket 2 holds -1 = p - 1
            .chain(&[11, 0, 0, 0, 1, 0, 0, 0]) // bucket 11 holds 1
            .copied()
            .collect();
        assert_eq!(serde::to_bytes(&s), sparse);

        for i in 0..40 {
            s.update(i, 3);
        }
        assert_eq!(s.estimate(), 15);
        let counters: [u32; 16] = [9, 12, 2, 6, 12, 6, 6, 9, 9, 3, 9, 13, 3, 9, 12, 0];
        let dense: Vec<u8> = TINY_HEAD
            .iter()
            .chain(&[FORM_DENSE])
            .chain(
                counters
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .copied()
            .collect();
        assert_eq!(serde::to_bytes(&s), dense);
    }

    #[test]
    fn the_form_switches_above_half_occupancy() {
        let mut s = tiny();
        let mut item = 0;
        for (occupied, form) in [(8, FORM_SPARSE), (9, FORM_DENSE)] {
            while s.estimate() < occupied {
                s.update(item, 1);
                item += 1;
            }
            let bytes = serde::to_bytes(&s);
            assert_eq!(bytes[TINY_HEAD.len()], form, "{occupied} of 16 buckets");
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.estimate(), occupied);
            assert_eq!(serde::to_bytes(&back), bytes);
        }
    }

    #[test]
    fn churn_round_trips_bit_for_bit_and_merges_alike_after_the_wire() {
        let mut state = 4242u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Supports from empty to well past half occupancy of 2c² = 800
        // buckets, so both forms and the boundary between them are crossed.
        for support in [0u64, 3, 60, 400, 700, 5_000] {
            let mut left = fresh(20, 77);
            let mut right = fresh(20, 77);
            for _ in 0..3 * support {
                let item = next() % support.max(1);
                let delta = (next() % 9) as i64 - 4;
                if next() % 2 == 0 {
                    left.update(item, delta);
                } else {
                    right.update(item, delta);
                }
            }
            let bytes = serde::to_bytes(&left);
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("round trip");
            assert_eq!(serde::to_bytes(&back), bytes, "support {support}");
            assert_eq!(back.estimate(), left.estimate());
            for (mine, theirs) in back.trials.iter().zip(&left.trials) {
                assert_eq!(mine.nonzero, theirs.nonzero);
                assert_eq!(mine.counters, theirs.counters);
            }

            let wired: ExactSmallL0 =
                serde::from_bytes(&serde::to_bytes(&right)).expect("round trip");
            let mut in_memory = left.clone();
            in_memory.merge_from_unchecked(&right);
            let mut after_wire = back;
            after_wire.merge_from_unchecked(&wired);
            assert_eq!(
                serde::to_bytes(&after_wire),
                serde::to_bytes(&in_memory),
                "support {support}"
            );
        }
    }

    /// A valid prime from [`PRIME_RANGE`].
    const P: u64 = 140_907;

    /// Hand-built trial bytes: a hash onto `range` buckets, the prime, the
    /// form tag and the body.
    fn trial_bytes(range: u64, prime: u64, form: u8, body: &[u8]) -> Vec<u8> {
        let mut rng = SplitMix64::new(3);
        let mut out = serde::to_bytes(&PairwiseHash::random(range, &mut rng));
        prime.serialize(&mut out);
        out.push(form);
        out.extend_from_slice(body);
        out
    }

    /// A sparse body: the declared pair count, then the pairs.
    fn sparse_body(count: u64, pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut out = serde::to_bytes(&count);
        for &(index, value) in pairs {
            index.serialize(&mut out);
            value.serialize(&mut out);
        }
        out
    }

    fn dense_body(counters: &[u32]) -> Vec<u8> {
        counters.iter().flat_map(|c| c.to_le_bytes()).collect()
    }

    /// Reads `bytes` as one 16-bucket trial that must consume them all.
    fn read_trial(bytes: &[u8]) -> Result<Trial, Error> {
        let mut input = bytes;
        let trial = Trial::read(&mut input, 16)?;
        if !input.is_empty() {
            return Err(Error::new(format!("{} trailing bytes", input.len())));
        }
        Ok(trial)
    }

    fn rejects(bytes: &[u8], needle: &str) {
        let err = read_trial(bytes).expect_err("hostile trial accepted");
        assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
    }

    #[test]
    fn hostile_trial_bytes_are_errors_not_panics() {
        let sparse = |pairs: &[(u32, u32)]| {
            trial_bytes(16, P, FORM_SPARSE, &sparse_body(pairs.len() as u64, pairs))
        };
        let ok = read_trial(&sparse(&[(0, 1), (15, P as u32 - 1)])).expect("valid");
        assert_eq!(ok.nonzero, 2);

        rejects(&sparse(&[(16, 1)]), "out of order or range");
        rejects(&sparse(&[(u32::MAX, 1)]), "out of order or range");
        rejects(&sparse(&[(4, 1), (4, 2)]), "out of order or range");
        rejects(&sparse(&[(5, 1), (2, 1)]), "out of order or range");
        rejects(&sparse(&[(3, 0)]), "not in [1,");
        rejects(&sparse(&[(3, P as u32)]), "not in [1,");
        rejects(&sparse(&[(3, u32::MAX)]), "not in [1,");

        // A pair count that disagrees with the pairs present, or with the
        // sparse form's bound of half the buckets.
        let short = trial_bytes(16, P, FORM_SPARSE, &sparse_body(3, &[(1, 1), (2, 1)]));
        rejects(&short, "truncated");
        let long = trial_bytes(16, P, FORM_SPARSE, &sparse_body(1, &[(1, 1), (2, 1)]));
        rejects(&long, "trailing");
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i, 1)).collect();
        rejects(&sparse(&nine), "declares 9 pairs");
        let huge = trial_bytes(16, P, FORM_SPARSE, &sparse_body(u64::MAX, &[]));
        rejects(&huge, "pairs");

        let mut counters = [1u32; 16];
        counters[7] = P as u32;
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&counters)),
            "not below",
        );
        let half = [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&half)),
            "only 8 nonzero",
        );
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&[1; 15])),
            "truncated",
        );
        rejects(&trial_bytes(16, P, 2, &[]), "form tag 2");
        rejects(&trial_bytes(8, P, FORM_SPARSE, &[]), "hash range");
        rejects(&trial_bytes(16, 4, FORM_SPARSE, &[]), "prime");
        rejects(&trial_bytes(16, 1 << 32, FORM_SPARSE, &[]), "prime");
    }

    /// A structure header: capacity and trial count.
    fn header(capacity: u64, trials: u64) -> Vec<u8> {
        let mut out = serde::to_bytes(&capacity);
        trials.serialize(&mut out);
        out
    }

    #[test]
    fn oversized_geometries_are_refused_before_any_trial_is_read() {
        // Each header below is followed by one valid empty trial of the
        // declared bucket count and nothing else, so a decoder that read
        // trials before checking the geometry would fail on truncation.
        let refused = |capacity: u64, trials: u64| {
            let buckets = (2 * capacity * capacity).max(16);
            let mut bytes = header(capacity, trials);
            bytes.extend(trial_bytes(buckets, P, FORM_SPARSE, &sparse_body(0, &[])));
            let err = serde::from_bytes::<ExactSmallL0>(&bytes).expect_err("geometry accepted");
            assert!(err.to_string().contains("geometry"), "{err}");
        };
        // A max-bucket empty trial repeated: 16 MiB of counters per copy.
        refused(1448, 2);
        refused(1448, 1_000_000);
        refused(1448, u64::MAX);
        refused(1449, 1);
        refused(1024, 3);
        refused(0, 1);
        refused(2, 0);
        let huge = header(u64::MAX, 1);
        let err = serde::from_bytes::<ExactSmallL0>(&huge).expect_err("geometry accepted");
        assert!(err.to_string().contains("geometry"), "{err}");

        // The largest geometries `new` builds decode.
        for (capacity, trials) in [(1448, 1), (1024, 2)] {
            let buckets = (2 * capacity * capacity).max(16);
            let mut bytes = header(capacity, trials);
            for _ in 0..trials {
                bytes.extend(trial_bytes(buckets, P, FORM_SPARSE, &sparse_body(0, &[])));
            }
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("largest geometry");
            assert_eq!(back.buckets * trials, 2 * capacity * capacity * trials);
        }

        // Embedded structures must have exactly the expected geometry.
        let legit = serde::to_bytes(&fresh(141, 5));
        let shaped = |bytes: &[u8], capacity, delta| {
            let mut input = bytes;
            ExactSmallL0::deserialize_as(&mut input, capacity, delta)
        };
        assert!(shaped(&legit, 141, 1.0 / 16.0).is_ok());
        assert!(shaped(&legit, 141, 1.0 / 32.0).is_err());
        assert!(shaped(&legit, 100, 1.0 / 16.0).is_err());
    }

    #[test]
    #[should_panic(expected = "structure too large for the wire form")]
    fn geometries_beyond_the_wire_bound_are_refused() {
        let largest = ExactSmallL0::new(1448, 0.5, &mut SplitMix64::new(1));
        assert_eq!(largest.buckets, 2 * 1448 * 1448);
        let two_trials = ExactSmallL0::new(1024, 0.25, &mut SplitMix64::new(1));
        assert_eq!(two_trials.trials.len() as u64 * two_trials.buckets, 1 << 22);
        let _ = ExactSmallL0::new(1024, 0.2, &mut SplitMix64::new(1));
    }

    #[test]
    fn space_scales_quadratically_with_capacity() {
        let small = fresh(10, 8);
        let large = fresh(100, 8);
        assert!(large.space_bits() > small.space_bits() * 20);
    }
}
