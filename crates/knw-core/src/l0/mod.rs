//! L0 (Hamming norm) estimation under turnstile updates (Section 4,
//! Theorem 10 of the paper).
//!
//! The L0 problem generalizes F0: the stream consists of updates `(i, v)` with
//! `v ∈ {−M, …, M}` applied to a frequency vector `x`, and the goal is a
//! `(1 ± ε)`-approximation of `L0 = |{i : x_i ≠ 0}|`.  Items can therefore be
//! *removed*, which breaks every monotone F0 structure; the paper replaces
//! them with:
//!
//! * [`matrix::L0Matrix`] — the Figure 4 bit-matrix represented as Lemma 6
//!   dot-product counters over a random prime field, so cells can become
//!   zero again exactly when the coordinates hashed to them all return to 0;
//! * [`rough::RoughL0Estimator`] — the Theorem 11 constant-factor oracle used
//!   to select which matrix row to invert;
//! * [`small::ExactSmallL0`] — the Lemma 8 structure that answers exactly when
//!   `L0` is small, plus (mirroring Section 3.3) a single-row `2K`-counter
//!   array that serves the intermediate regime and certifies the switchover.
//!
//! [`KnwL0Sketch`] composes the four pieces exactly as Theorem 10 prescribes
//! and implements [`TurnstileEstimator`].

pub mod matrix;
pub mod rough;
pub mod small;

use crate::balls_bins::invert_occupancy;
use crate::config::L0Config;
use crate::error::SketchError;
use crate::estimator::TurnstileEstimator;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::prime_field::DynField;
use knw_hash::primes::random_prime_in_range;
use knw_hash::rng::{Rng64, SplitMix64};
use knw_hash::uniform::BucketHash;
use knw_hash::SpaceUsage;
use serde::Deserialize;

pub use matrix::L0Matrix;
use matrix::MatrixView;
pub use rough::RoughL0Estimator;
pub use small::ExactSmallL0;

/// Capacity of the exact small-L0 path (the paper's constant 100).
const EXACT_CAPACITY: u64 = 100;

/// Failure probability of the exact small-L0 path.
const EXACT_DELTA: f64 = 1.0 / 32.0;

/// Reads a length-prefixed sequence of `u64`s (the codec's `Vec<u64>`)
/// without copying it: the bytes of its words.
fn read_words<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], serde::Error> {
    let len = u64::deserialize(input)?;
    let bytes = len
        .checked_mul(8)
        .and_then(|bytes| usize::try_from(bytes).ok())
        .filter(|&bytes| bytes <= input.len())
        .ok_or_else(|| serde::Error::new(format!("sequence of {len} words truncated")))?;
    let (words, rest) = input.split_at(bytes);
    *input = rest;
    Ok(words)
}

/// The little-endian `u64`s of `bytes` from [`read_words`].
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")))
}

/// The single-row intermediate structure: `2K` Lemma 6 counters with no
/// subsampling, the turnstile analogue of the Section 3.3 bit array.
#[derive(Debug, Clone, serde::Serialize)]
struct MidRangeRow {
    h2: PairwiseHash,
    h3: BucketHash,
    h4: PairwiseHash,
    salts: Vec<u64>,
    field: DynField,
    counters: Vec<u64>,
    nonzero: u64,
    k_prime: u64,
}

impl MidRangeRow {
    fn new(
        k: u64,
        log_mm: u32,
        strategy: knw_hash::uniform::HashStrategy,
        rng: &mut SplitMix64,
    ) -> Self {
        let k_prime = 2 * k;
        let cube = k_prime.saturating_pow(3).min(1u64 << 60);
        let d = (100 * k_prime * u64::from(log_mm.max(1))).max(1 << 10);
        let hi = d.saturating_mul(8).min((1u64 << 61) - 1);
        let prime = random_prime_in_range(d, hi, rng);
        let field = DynField::new(prime);
        let independence = knw_hash::kwise::independence_for(k_prime, 1.0 / (k as f64).sqrt());
        Self {
            h2: PairwiseHash::random(cube, rng),
            h3: BucketHash::random(strategy, independence, k_prime, rng),
            h4: PairwiseHash::random(k_prime, rng),
            salts: (0..k_prime).map(|_| rng.next_below(prime)).collect(),
            field,
            counters: vec![0u64; k_prime as usize],
            nonzero: 0,
            k_prime,
        }
    }

    #[inline]
    fn update(&mut self, item: u64, delta: i64) {
        let compressed = self.h2.hash(item);
        let col = self.h3.hash(compressed) as usize;
        let salt_idx = self.h4.hash(compressed) as usize;
        self.apply_col(col, salt_idx, delta);
    }

    /// Batched [`update`](Self::update): the addressing hashes are pure, so
    /// eight-lane blocks go through the batched kernels (bit-identical to
    /// per-key hashing) and the field arithmetic is applied per lane in order.
    fn update_batch(&mut self, updates: &[(u64, i64)]) {
        let mut chunks = updates.chunks_exact(knw_hash::LANES);
        for chunk in chunks.by_ref() {
            let mut lanes = [0u64; knw_hash::LANES];
            for (lane, &(item, _)) in lanes.iter_mut().zip(chunk) {
                *lane = item;
            }
            let compressed = self.h2.hash_batch(&lanes);
            let cols = self.h3.hash_batch(&compressed);
            let salt_idxs = self.h4.hash_batch(&compressed);
            for (lane, &(_, delta)) in chunk.iter().enumerate() {
                self.apply_col(cols[lane] as usize, salt_idxs[lane] as usize, delta);
            }
        }
        for &(item, delta) in chunks.remainder() {
            self.update(item, delta);
        }
    }

    #[inline]
    fn apply_col(&mut self, col: usize, salt_idx: usize, delta: i64) {
        let salt = self.salts[salt_idx];
        let contribution = self.field.mul(self.field.reduce_i64(delta), salt);
        let old = self.counters[col];
        let new = self.field.add(old, contribution);
        self.counters[col] = new;
        match (old == 0, new == 0) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
    }

    /// Entrywise field addition of another row built with the same seed
    /// (Lemma 6 linearity), recomputing the occupancy count.
    fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(self.field.modulus(), other.field.modulus());
        assert_eq!(self.k_prime, other.k_prime);
        assert_eq!(self.counters.len(), other.counters.len());
        self.add_counters(other.counters.iter().copied(), false);
    }

    /// Adds `theirs`, the counters of a row of this shape — or with
    /// `replace` takes them — and recounts the occupancy.
    fn add_counters(&mut self, theirs: impl Iterator<Item = u64>, replace: bool) {
        let mut nonzero = 0;
        for (mine, value) in self.counters.iter_mut().zip(theirs) {
            *mine = self.field.add(if replace { 0 } else { *mine }, value);
            nonzero += u64::from(*mine != 0);
        }
        self.nonzero = nonzero;
    }

    fn clear(&mut self) {
        self.counters.fill(0);
        self.nonzero = 0;
    }

    /// Whether `other` has this row's shape and draws.
    fn same_draws(&self, other: &Self) -> bool {
        (self.h2, self.h4, self.field, self.k_prime)
            == (other.h2, other.h4, other.field, other.k_prime)
            && self.h3 == other.h3
            && self.salts == other.salts
    }

    fn estimate(&self) -> f64 {
        invert_occupancy(self.nonzero as f64, self.k_prime)
    }

    fn space_bits(&self) -> u64 {
        let w = u64::from(knw_hash::bits::ceil_log2(self.field.modulus()));
        (self.counters.len() as u64 + self.salts.len() as u64) * w
            + self.h2.space_bits()
            + self.h3.space_bits()
            + self.h4.space_bits()
            + 128
    }
}

/// A mid-range row's encoding borrowed from the wire (see
/// [`matrix::MatrixView`]): [`read`](Self::read) only parses and
/// [`check`](Self::check) is the one validator, for decoding and for
/// merging from the wire alike.
struct MidView<'a> {
    h2: PairwiseHash,
    h3: BucketHash,
    h4: PairwiseHash,
    salts: &'a [u8],
    field: DynField,
    counters: &'a [u8],
    nonzero: u64,
    k_prime: u64,
}

impl<'a> MidView<'a> {
    /// Reads the fields in declaration order, borrowing the word sequences.
    fn read(input: &mut &'a [u8]) -> Result<Self, serde::Error> {
        Ok(Self {
            h2: PairwiseHash::deserialize(input)?,
            h3: BucketHash::deserialize(input)?,
            h4: PairwiseHash::deserialize(input)?,
            salts: read_words(input)?,
            field: DynField::deserialize(input)?,
            counters: read_words(input)?,
            nonzero: u64::deserialize(input)?,
            k_prime: u64::deserialize(input)?,
        })
    }

    /// Checks that the row is shaped as [`MidRangeRow::new`] builds one for
    /// `K = k`: `2k` counters, hash ranges and salts to match, every salt
    /// and counter in the field and `nonzero` equal to the counters'
    /// nonzero count.
    fn check(&self, k: u64) -> Result<(), serde::Error> {
        let k_prime = self.k_prime;
        let shaped = k.checked_mul(2) == Some(k_prime)
            && self.h2.range() == k_prime.saturating_pow(3).min(1u64 << 60)
            && self.h3.range() == k_prime
            && self.h4.range() == k_prime
            && self.salts.len() as u64 / 8 == k_prime
            && self.counters.len() as u64 / 8 == k_prime;
        if !shaped {
            return Err(serde::Error::new(format!(
                "mid-range row shape differs from 2K = 2 x {k}"
            )));
        }
        let p = self.field.modulus();
        let values = words(self.salts).chain(words(self.counters));
        if !(2..1u64 << 62).contains(&p) || values.fold(0, u64::max) >= p {
            return Err(serde::Error::new(format!(
                "mid-range row value outside the field of {p}"
            )));
        }
        if words(self.counters).filter(|&c| c != 0).count() as u64 != self.nonzero {
            return Err(serde::Error::new(
                "mid-range row occupancy differs from its counters",
            ));
        }
        Ok(())
    }

    /// Whether the view has `row`'s shape and draws.
    fn same_draws(&self, row: &MidRangeRow) -> bool {
        (self.h2, self.h4, self.field, self.k_prime) == (row.h2, row.h4, row.field, row.k_prime)
            && self.h3 == row.h3
            && words(self.salts).eq(row.salts.iter().copied())
    }

    /// The row a checked view encodes.
    fn materialise(self) -> MidRangeRow {
        MidRangeRow {
            h2: self.h2,
            h3: self.h3,
            h4: self.h4,
            salts: words(self.salts).collect(),
            field: self.field,
            counters: words(self.counters).collect(),
            nonzero: self.nonzero,
            k_prime: self.k_prime,
        }
    }
}

/// A sketch's encoding in field order: the counter matrix and the
/// mid-range row borrowed, the rough oracle and the exact structure as the
/// caller's readers return them.  Decoding, the wire check and the wire
/// merge all walk an encoding through [`read`](Self::read), with readers
/// that decode, check or merge those two parts.
struct SketchView<'a, R, E> {
    config: L0Config,
    k: u64,
    matrix: MatrixView<'a>,
    rough: R,
    exact: E,
    mid: MidView<'a>,
    updates: u64,
}

impl<'a, R, E> SketchView<'a, R, E> {
    /// Reads the fields in declaration order: `rough` reads the rough
    /// oracle, given the `log n` the matrix declares, and `exact` the exact
    /// structure.  Checks only what those readers check; see
    /// [`check`](Self::check).
    fn read(
        input: &mut &'a [u8],
        rough: impl FnOnce(&mut &'a [u8], u32) -> Result<R, serde::Error>,
        exact: impl FnOnce(&mut &'a [u8]) -> Result<E, serde::Error>,
    ) -> Result<Self, serde::Error> {
        let config = L0Config::deserialize(input)?;
        let k = u64::deserialize(input)?;
        let matrix = MatrixView::read(input)?;
        let rough = rough(input, matrix.log_n())?;
        Ok(Self {
            config,
            k,
            matrix,
            rough,
            exact: exact(input)?,
            mid: MidView::read(input)?,
            updates: u64::deserialize(input)?,
        })
    }

    /// Checks the counter matrix and the mid-range row against `K`.
    fn check(&self) -> Result<(), serde::Error> {
        self.matrix.check(self.k)?;
        self.mid.check(self.k)
    }
}

/// The KNW L0 (Hamming norm) sketch: `(1 ± O(ε))`-approximation of
/// `|{i : x_i ≠ 0}|` under turnstile updates, with O(1) update and reporting
/// time (Theorem 10).
///
/// The wire form is the fields in declaration order.  Decoding checks each
/// component's shape; the rough oracle's `log n` must be the counter
/// matrix's and at most 63 before any of its levels is read, so a decoded
/// sketch never holds more than `64` levels of the fixed Appendix A.3
/// geometry (about 41 MB of level counters), whatever its bytes declare.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KnwL0Sketch {
    config: L0Config,
    k: u64,
    matrix: L0Matrix,
    rough: RoughL0Estimator,
    exact: ExactSmallL0,
    mid: MidRangeRow,
    updates: u64,
}

impl KnwL0Sketch {
    /// Creates a sketch from a configuration.
    #[must_use]
    pub fn new(config: L0Config) -> Self {
        let k = config.num_bins();
        let log_mm = config.log_mm();
        let mut master = SplitMix64::new(config.seed);
        let mut matrix_rng = master.split(1);
        let mut exact_rng = master.split(2);
        let mut mid_rng = master.split(3);
        let rough_seed = master.next_u64();
        Self {
            config,
            k,
            matrix: L0Matrix::new(
                config.universe,
                k,
                log_mm,
                config.hash_strategy,
                &mut matrix_rng,
            ),
            rough: RoughL0Estimator::new(config.universe, rough_seed),
            exact: ExactSmallL0::new(EXACT_CAPACITY, EXACT_DELTA, &mut exact_rng),
            mid: MidRangeRow::new(k, log_mm, config.hash_strategy, &mut mid_rng),
            updates: 0,
        }
    }

    /// The configuration this sketch was built with.
    #[must_use]
    pub fn config(&self) -> &L0Config {
        &self.config
    }

    /// The number of matrix columns `K`.
    #[must_use]
    pub fn num_columns(&self) -> u64 {
        self.k
    }

    /// Number of updates processed.
    #[must_use]
    pub fn updates_processed(&self) -> u64 {
        self.updates
    }

    /// Applies the update `x_item ← x_item + delta`.  A `delta` of zero is a
    /// no-op.
    pub fn update(&mut self, item: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        self.updates += 1;
        self.apply(item, delta);
    }

    /// Applies a batch of updates — semantically identical to repeated
    /// [`update`](Self::update), via the delta-coalescing fast path.
    ///
    /// Every component of this sketch (counter matrix, rough oracle, exact
    /// structure, mid-range row) is linear in the update deltas, so summing
    /// each item's deltas over a window of the batch
    /// ([`coalesce::for_each_coalesced`](crate::coalesce::for_each_coalesced))
    /// before touching the components leaves the sketch state — counters,
    /// occupancy counts, fired-level bitmask — bit-identical to the per-item
    /// run, while skipping all hashing for repeated and self-cancelling
    /// updates.  On churn-heavy streams (bulk loads, sliding windows, the
    /// insert-then-delete patterns of data cleaning) this is the dominant
    /// ingestion win; see `bench_engine`.
    ///
    /// The update counter counts nonzero-delta *input* updates, exactly as
    /// the per-item path does, regardless of how many component passes the
    /// coalescing saves.
    ///
    /// The coalesced sequence is materialized once and fed to each component
    /// separately: the counter matrix and the mid-range row consume it
    /// through their eight-lane batched paths (bit-identical to per-key
    /// hashing by the knw-hash contract), while the rough
    /// oracle and the exact structure take it per item.  The four components
    /// share no state, so per-component passes over the same sequence leave
    /// the sketch bit-identical to the interleaved per-item run.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        if updates.len() < crate::coalesce::COALESCE_MIN_BATCH {
            for &(item, delta) in updates {
                if delta == 0 {
                    continue;
                }
                self.updates += 1;
                self.apply(item, delta);
            }
            return;
        }
        self.updates += updates.iter().filter(|&&(_, delta)| delta != 0).count() as u64;
        let coalesced = crate::coalesce::coalesce_updates(updates);
        self.matrix.update_batch(&coalesced);
        self.mid.update_batch(&coalesced);
        for &(item, delta) in &coalesced {
            self.rough.update(item, delta);
            self.exact.update(item, delta);
        }
    }

    #[inline]
    fn apply(&mut self, item: u64, delta: i64) {
        self.matrix.update(item, delta);
        self.rough.update(item, delta);
        self.exact.update(item, delta);
        self.mid.update(item, delta);
    }

    /// The estimate produced by the main Figure 4 machinery only (row selected
    /// by the rough oracle), without the small-L0 dispatch.
    #[must_use]
    pub fn main_estimate(&self) -> f64 {
        let row = self.matrix.select_row(self.rough.estimate());
        self.matrix.estimate_from_row(row)
    }

    /// The full Theorem 10 estimate with the small/medium/large dispatch.
    #[must_use]
    pub fn estimate_l0(&self) -> f64 {
        let mid = self.mid.estimate();
        // The switchover mirrors Theorem 4: beyond K/16 the matrix estimator
        // is authoritative; below that the single-row array is; and when the
        // array itself indicates a tiny cardinality the Lemma 8 structure is
        // exact.
        let large_threshold = (self.k as f64 / 16.0).max(1.5 * EXACT_CAPACITY as f64);
        if mid >= large_threshold {
            return self.main_estimate();
        }
        let exact = self.exact.estimate() as f64;
        if !self.exact.saturated() && mid < 0.8 * EXACT_CAPACITY as f64 {
            exact
        } else {
            mid
        }
    }

    /// Strict variant of [`estimate_l0`](Self::estimate_l0); the L0 sketch has
    /// no FAIL state, so this never errs today, but the signature matches the
    /// F0 sketch for API symmetry.
    ///
    /// # Errors
    ///
    /// Reserved; currently always `Ok`.
    pub fn try_estimate(&self) -> Result<f64, SketchError> {
        Ok(self.estimate_l0())
    }

    /// Access to the rough oracle (diagnostics / experiments).
    #[must_use]
    pub fn rough_oracle(&self) -> &RoughL0Estimator {
        &self.rough
    }

    /// Access to the counter matrix (diagnostics / experiments).
    #[must_use]
    pub fn matrix(&self) -> &L0Matrix {
        &self.matrix
    }

    /// Refuses a configuration other than this sketch's.
    fn check_config(&self, theirs: &L0Config) -> Result<(), SketchError> {
        if self.config.epsilon != theirs.epsilon {
            return Err(SketchError::config_mismatch(
                "epsilon",
                self.config.epsilon,
                theirs.epsilon,
            ));
        }
        if self.config.universe != theirs.universe {
            return Err(SketchError::config_mismatch(
                "universe",
                self.config.universe,
                theirs.universe,
            ));
        }
        if self.config.stream_length_bound != theirs.stream_length_bound {
            return Err(SketchError::config_mismatch(
                "stream_length_bound",
                self.config.stream_length_bound,
                theirs.stream_length_bound,
            ));
        }
        if self.config.update_magnitude_bound != theirs.update_magnitude_bound {
            return Err(SketchError::config_mismatch(
                "update_magnitude_bound",
                self.config.update_magnitude_bound,
                theirs.update_magnitude_bound,
            ));
        }
        if self.config.hash_strategy != theirs.hash_strategy {
            return Err(SketchError::config_mismatch(
                "hash_strategy",
                self.config.hash_strategy,
                theirs.hash_strategy,
            ));
        }
        if self.config.seed != theirs.seed {
            return Err(SketchError::SeedMismatch);
        }
        Ok(())
    }

    fn compatible(&self, other: &Self) -> Result<(), SketchError> {
        self.check_config(&other.config)?;
        // Equal configurations give equal draws and dimensions, except for
        // sketches decoded from forged bytes; refuse those here rather than
        // in a component merge's assertion.
        let same_draws = self.k == other.k
            && self.matrix.same_draws(&other.matrix)
            && self.rough.same_draws(&other.rough)
            && self.exact.same_draws(&other.exact)
            && self.mid.same_draws(&other.mid);
        if !same_draws {
            return Err(SketchError::SeedMismatch);
        }
        Ok(())
    }

    /// Checks that `bytes` encode a sketch the decoder accepts and
    /// [`compatible`](Self::compatible) would merge into this one, in one
    /// pass that builds nothing: the same checks, in the same order of
    /// error kinds, as decoding and then merging.
    fn check_wire(&self, bytes: &[u8]) -> Result<(), SketchError> {
        let input = &mut &bytes[..];
        let view = SketchView::read(
            input,
            |input, _| self.rough.check_wire(input),
            |input| self.exact.check_wire(input),
        )?;
        view.check()?;
        if !input.is_empty() {
            let trailing = format!("{} trailing bytes after deserializing", input.len());
            return Err(serde::Error::new(trailing).into());
        }
        self.check_config(&view.config)?;
        let same_draws = view.k == self.k
            && view.matrix.same_draws(&self.matrix)
            && view.rough
            && view.exact
            && view.mid.same_draws(&self.mid);
        if !same_draws {
            return Err(SketchError::SeedMismatch);
        }
        Ok(())
    }

    /// Adds the sketch `bytes` encode, which [`check_wire`](Self::check_wire)
    /// accepted, component by component in place — or with `replace`
    /// makes this sketch that one, copying instead of adding.  Checks
    /// nothing again.
    fn merge_wire(&mut self, bytes: &[u8], replace: bool) {
        let (rough, exact) = (&mut self.rough, &mut self.exact);
        let view = SketchView::read(
            &mut &bytes[..],
            |input, _| {
                rough.merge_wire(input, replace);
                Ok(())
            },
            |input| {
                exact.merge_wire(input, replace);
                Ok(())
            },
        )
        .expect("checked by check_wire");
        self.matrix.add_view(&view.matrix, replace);
        self.mid.add_counters(words(view.mid.counters), replace);
        self.updates = if replace {
            view.updates
        } else {
            self.updates.saturating_add(view.updates)
        };
    }
}

impl serde::Deserialize for KnwL0Sketch {
    /// Reads the fields in declaration order, the rough oracle with the
    /// counter matrix's `log n` (at most 63, checked before its levels are
    /// read) and the exact structure with its fixed capacity and failure
    /// probability, then checks the counter matrix and the mid-range row
    /// against `K`.
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let view = SketchView::read(input, RoughL0Estimator::deserialize_as, |input| {
            ExactSmallL0::deserialize_as(input, EXACT_CAPACITY, EXACT_DELTA)
        })?;
        view.check()?;
        Ok(Self {
            config: view.config,
            k: view.k,
            matrix: view.matrix.materialise(),
            rough: view.rough,
            exact: view.exact,
            mid: view.mid.materialise(),
            updates: view.updates,
        })
    }
}

impl crate::estimator::MergeableEstimator for KnwL0Sketch {
    type MergeError = SketchError;

    /// Merges a sketch of another update stream into `self` (the resulting
    /// sketch summarizes the coordinate-wise *sum* of both frequency
    /// vectors, i.e. the concatenation of both update streams).
    ///
    /// The merge is **exact**: every component stores linear (Lemma 6 /
    /// Lemma 8) counters over a prime field, so entrywise addition of the
    /// counter state — with the derived occupancy counts and the rough
    /// oracle's fired-level bitmask recomputed from the merged counters —
    /// yields a sketch field-for-field identical to one that ingested any
    /// interleaving of both streams.  Shard-and-merge therefore reproduces
    /// single-stream estimates bit-for-bit, the property `ShardedL0Engine`
    /// and the turnstile merge property tests rely on.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.compatible(other)?;
        self.matrix.merge_from_unchecked(&other.matrix);
        self.rough.merge_from_unchecked(&other.rough);
        self.exact.merge_from_unchecked(&other.exact);
        self.mid.merge_from_unchecked(&other.mid);
        self.updates = self.updates.saturating_add(other.updates);
        Ok(())
    }

    /// Merges a sketch from its encoding in place, with no decoded sketch
    /// in between: the result is byte for byte what decoding `bytes` and
    /// then [`merge_from`](crate::estimator::MergeableEstimator::merge_from) (or assigning) gives.
    ///
    /// A first pass runs every check the decoder and `merge_from` make,
    /// and, even with `replace`, refuses a configuration or draws other
    /// than this sketch's.  Only then does a second pass add the counters
    /// straight from the bytes (or, with `replace`, copy them): sparse
    /// trials through the two-run merge (which gallops a run much shorter
    /// than the trial's into it, and walks runs of similar length without
    /// branches), arrays and matrix cells entrywise.  So a refused encoding
    /// leaves `self` untouched, and a sketch merged into again and again
    /// keeps its memory: a trial held as an array stays one, and a table
    /// keeps its capacity.
    fn merge_from_bytes(&mut self, bytes: &[u8], replace: bool) -> Result<(), SketchError> {
        self.check_wire(bytes)?;
        self.merge_wire(bytes, replace);
        Ok(())
    }
}

impl SpaceUsage for KnwL0Sketch {
    fn space_bits(&self) -> u64 {
        self.matrix.space_bits()
            + self.rough.space_bits()
            + self.exact.space_bits()
            + self.mid.space_bits()
            + 64
    }
}

impl TurnstileEstimator for KnwL0Sketch {
    fn update(&mut self, item: u64, delta: i64) {
        KnwL0Sketch::update(self, item, delta);
    }

    fn update_batch(&mut self, updates: &[(u64, i64)]) {
        KnwL0Sketch::update_batch(self, updates);
    }

    fn estimate(&self) -> f64 {
        self.estimate_l0()
    }

    fn name(&self) -> &'static str {
        "knw-l0"
    }

    /// Zeroes every component in place: each Lemma 8 trial keeps its form
    /// and its table's layout, so a worker that clears its shard after
    /// every reply ingests the next batches at its steady-state cost.
    fn clear(&mut self) {
        self.matrix.clear();
        self.rough.clear();
        self.exact.clear();
        self.mid.clear();
        self.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(eps: f64, seed: u64) -> KnwL0Sketch {
        KnwL0Sketch::new(
            L0Config::new(eps, 1 << 20)
                .with_seed(seed)
                .with_stream_length_bound(1 << 24)
                .with_update_magnitude_bound(1 << 10),
        )
    }

    #[test]
    fn exact_for_tiny_supports() {
        let mut s = sketch(0.1, 1);
        for i in 0..40u64 {
            s.update(i, 2);
            s.update(i, 3);
        }
        assert_eq!(s.estimate_l0(), 40.0);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = sketch(0.1, 2);
        assert_eq!(s.estimate_l0(), 0.0);
    }

    #[test]
    fn insert_only_accuracy_mirrors_f0() {
        let truth = 20_000u64;
        let eps = 0.05;
        let mut s = sketch(eps, 3);
        for i in 0..truth {
            s.update(i, 1);
        }
        let est = s.estimate_l0();
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 5.0 * eps, "estimate {est}, relative error {rel}");
    }

    #[test]
    fn deletions_are_respected() {
        let eps = 0.05;
        let mut s = sketch(eps, 4);
        // Insert 30k coordinates, then zero out 20k of them.
        for i in 0..30_000u64 {
            s.update(i, 4);
        }
        for i in 0..20_000u64 {
            s.update(i, -4);
        }
        let est = s.estimate_l0();
        let truth = 10_000.0;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 6.0 * eps, "estimate {est} after deletions, rel {rel}");
    }

    #[test]
    fn cancellation_to_zero_support() {
        let mut s = sketch(0.1, 5);
        for i in 0..5_000u64 {
            s.update(i, 7);
        }
        for i in 0..5_000u64 {
            s.update(i, -7);
        }
        assert_eq!(s.estimate_l0(), 0.0);
    }

    #[test]
    fn negative_only_frequencies_are_counted() {
        let mut s = sketch(0.1, 6);
        for i in 0..300u64 {
            s.update(i, -9);
        }
        let est = s.estimate_l0();
        let rel = (est - 300.0).abs() / 300.0;
        assert!(rel < 0.4, "estimate {est}");
    }

    #[test]
    fn mixed_sign_churn_matches_reference() {
        use std::collections::HashMap;
        let eps = 0.1;
        let mut s = sketch(eps, 7);
        let mut reference: HashMap<u64, i64> = HashMap::new();
        let mut state = 42u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60_000 {
            let item = next() % 8_192;
            let delta = (next() % 9) as i64 - 4;
            if delta == 0 {
                continue;
            }
            s.update(item, delta);
            *reference.entry(item).or_insert(0) += delta;
        }
        let truth = reference.values().filter(|&&v| v != 0).count() as f64;
        let est = s.estimate_l0();
        let rel = (est - truth).abs() / truth;
        assert!(
            rel < 6.0 * eps,
            "estimate {est}, truth {truth}, relative error {rel}"
        );
    }

    #[test]
    fn zero_delta_is_a_noop() {
        let mut s = sketch(0.2, 8);
        s.update(5, 0);
        assert_eq!(s.updates_processed(), 0);
        assert_eq!(s.estimate_l0(), 0.0);
    }

    #[test]
    fn midstream_reporting_is_available() {
        let mut s = sketch(0.1, 9);
        let mut checks = 0;
        for i in 0..40_000u64 {
            s.update(i, 1);
            if i > 0 && i % 10_000 == 0 {
                let est = s.estimate_l0();
                let rel = (est - i as f64).abs() / i as f64;
                assert!(rel < 1.0, "midstream estimate off by {rel} at {i}");
                checks += 1;
            }
        }
        assert_eq!(checks, 3);
    }

    #[test]
    fn trait_impl_is_consistent() {
        let mut s = sketch(0.2, 10);
        TurnstileEstimator::update(&mut s, 1, 5);
        TurnstileEstimator::update(&mut s, 2, -5);
        assert_eq!(TurnstileEstimator::estimate(&s), s.estimate_l0());
        assert_eq!(s.name(), "knw-l0");
        assert!(s.space_bits() > 0);
        assert!(s.try_estimate().is_ok());
    }

    #[test]
    fn space_grows_with_accuracy() {
        let coarse = sketch(0.2, 11);
        let fine = sketch(0.05, 11);
        assert!(fine.space_bits() > coarse.space_bits());
    }

    fn signed_stream(len: usize, universe: u64, seed: u64) -> Vec<(u64, i64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| (next() % universe, (next() % 9) as i64 - 4))
            .collect()
    }

    #[test]
    fn merge_two_halves_matches_union_bit_for_bit() {
        use crate::estimator::MergeableEstimator;
        let mut left = sketch(0.1, 21);
        let mut right = sketch(0.1, 21);
        let mut union = sketch(0.1, 21);
        let updates = signed_stream(30_000, 8_192, 99);
        let (a, b) = updates.split_at(updates.len() / 3);
        for &(item, delta) in a {
            left.update(item, delta);
            union.update(item, delta);
        }
        for &(item, delta) in b {
            right.update(item, delta);
            union.update(item, delta);
        }
        left.merge_from(&right).expect("same config and seed");
        assert_eq!(left.estimate_l0(), union.estimate_l0());
        assert_eq!(left.main_estimate(), union.main_estimate());
        assert_eq!(
            left.rough_oracle().estimate(),
            union.rough_oracle().estimate()
        );
        assert_eq!(
            left.matrix().total_nonzero(),
            union.matrix().total_nonzero()
        );
        assert_eq!(left.updates_processed(), union.updates_processed());
    }

    #[test]
    fn forged_shapes_fail_to_decode_and_forged_draws_fail_to_merge() {
        use crate::estimator::MergeableEstimator;
        let mut s = sketch(0.1, 21);
        s.update_batch(&signed_stream(20_000, 8_192, 5));
        let decode = |s: &KnwL0Sketch| serde::from_bytes::<KnwL0Sketch>(&serde::to_bytes(s));
        assert!(decode(&s).is_ok());
        let refused = |forge: &dyn Fn(&mut KnwL0Sketch), needle: &str| {
            let mut forged = s.clone();
            forge(&mut forged);
            let err = decode(&forged).expect_err("forged sketch accepted");
            assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
        };
        refused(&|f| f.k *= 2, "counter matrix shape");
        refused(&|f| f.mid.salts.truncate(1), "mid-range row shape");
        refused(&|f| f.mid.k_prime += 2, "mid-range row shape");
        refused(&|f| f.mid.counters[3] = u64::MAX, "outside the field");
        refused(&|f| f.mid.nonzero += 1, "occupancy");

        // Well-formed sketches whose draws differ from their seed's: the
        // merge refuses them instead of tripping a component assertion.
        let mut other_field = s.clone();
        other_field.mid.field = DynField::new(s.mid.field.modulus() + 2);
        let bytes = serde::to_bytes(&s);
        let prime = s.exact.primes().next().expect("one trial at least");
        let at: Vec<usize> = (0..bytes.len() - 8)
            .filter(|&i| bytes[i..i + 8] == prime.to_le_bytes())
            .collect();
        assert_eq!(at.len(), 1, "the exact trial's prime occurs once");
        let mut other_prime = bytes.clone();
        other_prime[at[0]..at[0] + 8].copy_from_slice(&(prime + 2).to_le_bytes());
        for forged in [
            decode(&other_field).expect("well-formed"),
            serde::from_bytes(&other_prime).expect("well-formed"),
        ] {
            assert_eq!(
                s.clone().merge_from(&forged),
                Err(SketchError::SeedMismatch)
            );
            assert_eq!(
                forged.clone().merge_from(&s),
                Err(SketchError::SeedMismatch)
            );
        }
    }

    /// `clear` gives the bytes of a fresh sketch of the configuration after
    /// a churn that left dense exact trials and laid-out rough tables, keeps
    /// those forms, and a stream applied after it gives the bytes it gives
    /// on a fresh sketch, per update and batched.
    #[test]
    fn clear_encodes_and_ingests_like_a_fresh_sketch() {
        let forms = |s: &KnwL0Sketch| {
            let levels = s.rough.levels().iter().map(ExactSmallL0::forms);
            (s.exact.forms(), levels.collect::<Vec<_>>())
        };
        let mut cleared = sketch(0.1, 21);
        cleared.update_batch(&signed_stream(60_000, 200_000, 11));
        let before = forms(&cleared);
        assert!(before.0 .0 > 0, "no dense exact trial: {before:?}");
        assert!(before.1.iter().any(|&(_, spread)| spread > 0), "{before:?}");
        cleared.clear();
        let mut fresh = sketch(0.1, 21);
        assert_eq!(serde::to_bytes(&cleared), serde::to_bytes(&fresh));
        assert_eq!(cleared.estimate_l0(), 0.0);
        assert_eq!(forms(&cleared), before, "clear changed a trial's form");
        for (len, universe) in [(3_000, 500), (40_000, 200_000)] {
            let stream = signed_stream(len, universe, 12 + len as u64);
            for &(item, delta) in &stream[..100] {
                cleared.update(item, delta);
                fresh.update(item, delta);
            }
            cleared.update_batch(&stream[100..]);
            fresh.update_batch(&stream[100..]);
            assert_eq!(serde::to_bytes(&cleared), serde::to_bytes(&fresh), "{len}");
            cleared.clear();
            fresh = sketch(0.1, 21);
        }
    }

    #[test]
    fn churn_streams_round_trip_the_wire_bit_for_bit() {
        use crate::estimator::MergeableEstimator;
        for (len, universe) in [(0, 1), (2_000, 500), (30_000, 8_192), (60_000, 200_000)] {
            let updates = signed_stream(len, universe, 7 + len as u64);
            let (a, b) = updates.split_at(len / 2);
            let mut left = sketch(0.1, 21);
            let mut right = sketch(0.1, 21);
            left.update_batch(a);
            right.update_batch(b);

            let bytes = serde::to_bytes(&left);
            let back: KnwL0Sketch = serde::from_bytes(&bytes).expect("round trip");
            assert_eq!(serde::to_bytes(&back), bytes, "{len} updates");
            assert_eq!(back.estimate_l0(), left.estimate_l0());
            assert_eq!(
                back.rough_oracle().estimate(),
                left.rough_oracle().estimate()
            );
            for level in 0..left.rough_oracle().num_levels() {
                assert_eq!(
                    back.rough_oracle().level_count(level),
                    left.rough_oracle().level_count(level)
                );
            }
            for row in 0..left.matrix().num_rows() {
                assert_eq!(
                    back.matrix().row_occupancy(row),
                    left.matrix().row_occupancy(row)
                );
            }

            let mut in_memory = left.clone();
            in_memory.merge_from(&right).expect("same seed");
            let mut after_wire = back;
            let wired: KnwL0Sketch =
                serde::from_bytes(&serde::to_bytes(&right)).expect("round trip");
            after_wire.merge_from(&wired).expect("same seed");
            let expected = serde::to_bytes(&in_memory);
            assert_eq!(serde::to_bytes(&after_wire), expected, "{len} updates");
            assert_eq!(after_wire.estimate_l0(), in_memory.estimate_l0());

            // Merged straight from the bytes, into the live left sketch and
            // into a sketch replaced by the left bytes first: the same bytes.
            let right_bytes = serde::to_bytes(&right);
            let mut from_wire = left.clone();
            from_wire
                .merge_from_bytes(&right_bytes, false)
                .expect("same seed");
            assert_eq!(serde::to_bytes(&from_wire), expected, "{len} updates");
            let mut replaced = right.clone();
            replaced.merge_from_bytes(&bytes, true).expect("same seed");
            assert_eq!(serde::to_bytes(&replaced), bytes, "{len} updates");
            replaced
                .merge_from_bytes(&right_bytes, false)
                .expect("same seed");
            assert_eq!(serde::to_bytes(&replaced), expected, "{len} updates");
        }
    }

    /// A single-byte change at every position of a shard (its low bit or
    /// its high bit flipped, or set to 0x00 or 0xFF, in turn) is refused by
    /// the merge from the bytes exactly when decoding and merging refuse it.
    /// A refused shard leaves the sketch's bytes as they were; an accepted
    /// one merges to the bytes decoding and merging give.
    #[test]
    fn merge_from_bytes_refuses_exactly_what_decoding_and_merging_refuse() {
        use crate::estimator::MergeableEstimator;
        let small = |stream_seed| {
            let mut s = KnwL0Sketch::new(L0Config::new(0.5, 1 << 6).with_seed(5));
            s.update_batch(&signed_stream(300, 64, stream_seed));
            s
        };
        let (sketch, shard) = (small(1), small(2));
        let (before, bytes) = (serde::to_bytes(&sketch), serde::to_bytes(&shard));
        let mutations: [fn(u8) -> u8; 4] = [|b| b ^ 1, |b| b ^ 0x80, |_| 0, |_| 0xFF];
        let (mut refused, mut accepted) = (0, 0);
        for (at, mutate) in (0..bytes.len()).zip(mutations.iter().cycle()) {
            let mut mutant = bytes.clone();
            mutant[at] = mutate(mutant[at]);
            if mutant == bytes {
                continue;
            }
            let decoded_and_merged =
                serde::from_bytes::<KnwL0Sketch>(&mutant)
                    .ok()
                    .and_then(|other| {
                        let mut merged = sketch.clone();
                        merged.merge_from(&other).ok().map(|()| merged)
                    });
            let mut from_wire = sketch.clone();
            let result = from_wire.merge_from_bytes(&mutant, false);
            if let Some(merged) = decoded_and_merged {
                assert_eq!(result, Ok(()), "byte {at} refused");
                assert_eq!(serde::to_bytes(&from_wire), serde::to_bytes(&merged));
                accepted += 1;
            } else {
                assert!(result.is_err(), "byte {at} accepted");
                assert_eq!(serde::to_bytes(&from_wire), before, "byte {at}");
                refused += 1;
            }
        }
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} accepted"
        );
    }

    /// FNV-1a-64 of `bytes`.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The encoded length and FNV-1a-64 digest of `sketch`.
    fn pin(sketch: &KnwL0Sketch) -> (usize, u64) {
        let bytes = serde::to_bytes(sketch);
        (bytes.len(), fnv1a64(&bytes))
    }

    #[test]
    fn full_sketch_bytes_are_pinned() {
        use crate::estimator::MergeableEstimator;
        let churn = |updates: &[(u64, i64)]| {
            let mut s = KnwL0Sketch::new(L0Config::new(0.05, 1 << 24).with_seed(7));
            for batch in updates.chunks(4_096) {
                s.update_batch(batch);
            }
            s
        };
        // A 200k-update churn stream: most rough levels hold sparse trials.
        let updates = signed_stream(200_000, 1 << 17, 3);
        let whole = churn(&updates);
        assert_eq!(pin(&whole), (PINNED_CHURN_LEN, PINNED_CHURN_DIGEST));
        let (a, b) = updates.split_at(updates.len() / 2);
        let mut merged = churn(a);
        merged.merge_from(&churn(b)).expect("same seed");
        assert_eq!(pin(&merged), (PINNED_MERGED_LEN, PINNED_MERGED_DIGEST));

        // A large support: rough level 0 and the exact structure run past
        // half occupancy, so their trials take the dense form.
        let mut wide = KnwL0Sketch::new(L0Config::new(0.25, 1 << 20).with_seed(7));
        let inserts: Vec<(u64, i64)> = (0..200_000u64)
            .map(|i| ((i * 0x9E37_79B1) % (1 << 20), 1 + (i % 3) as i64))
            .collect();
        wide.update_batch(&inserts);
        assert!(wide.rough.level_count(0) > 39_762 / 2);
        assert!(wide.exact.estimate() > 20_000 / 2);
        assert_eq!(pin(&wide), (PINNED_WIDE_LEN, PINNED_WIDE_DIGEST));
    }

    // How a trial holds its counters in memory must never show in these
    // bytes.  The merge of the halves equals the whole stream's sketch, so
    // its pin repeats.
    const PINNED_CHURN_LEN: usize = 2_473_174;
    const PINNED_CHURN_DIGEST: u64 = 7_598_669_471_783_027_055;
    const PINNED_MERGED_LEN: usize = PINNED_CHURN_LEN;
    const PINNED_MERGED_DIGEST: u64 = PINNED_CHURN_DIGEST;
    const PINNED_WIDE_LEN: usize = 2_949_598;
    const PINNED_WIDE_DIGEST: u64 = 18_335_524_903_001_119_003;

    #[test]
    fn merge_rejects_mismatched_seeds_and_configs() {
        use crate::estimator::MergeableEstimator;
        let a = sketch(0.1, 1);
        let mut b = sketch(0.1, 2);
        assert_eq!(b.merge_from(&a), Err(SketchError::SeedMismatch));
        let mut c = sketch(0.25, 1);
        match c.merge_from(&a) {
            Err(SketchError::IncompatibleConfig { field, .. }) => assert_eq!(field, "epsilon"),
            other => panic!("unexpected {other:?}"),
        }
        let mut d = KnwL0Sketch::new(
            L0Config::new(0.1, 1 << 20)
                .with_seed(1)
                .with_stream_length_bound(1 << 24)
                .with_update_magnitude_bound(1 << 12),
        );
        match d.merge_from(&a) {
            Err(SketchError::IncompatibleConfig { field, .. }) => {
                assert_eq!(field, "update_magnitude_bound");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_batch_matches_per_item_updates() {
        let mut batched = sketch(0.1, 31);
        let mut one_by_one = sketch(0.1, 31);
        // Churn-heavy stream with duplicates and cancellations, crossing the
        // coalescing window boundary.
        let mut updates = signed_stream(90_000, 2_048, 7);
        updates.push((5, 0)); // zero deltas are filtered identically
        for chunk in updates.chunks(10_007) {
            batched.update_batch(chunk);
        }
        for &(item, delta) in &updates {
            one_by_one.update(item, delta);
        }
        assert_eq!(batched.estimate_l0(), one_by_one.estimate_l0());
        assert_eq!(batched.main_estimate(), one_by_one.main_estimate());
        assert_eq!(
            batched.matrix().total_nonzero(),
            one_by_one.matrix().total_nonzero()
        );
        assert_eq!(
            batched.rough_oracle().estimate(),
            one_by_one.rough_oracle().estimate()
        );
        assert_eq!(batched.updates_processed(), one_by_one.updates_processed());
    }

    #[test]
    fn small_batches_take_the_plain_path_and_agree() {
        let mut batched = sketch(0.2, 41);
        let mut one_by_one = sketch(0.2, 41);
        let updates = signed_stream(crate::coalesce::COALESCE_MIN_BATCH - 1, 64, 3);
        batched.update_batch(&updates);
        for &(item, delta) in &updates {
            one_by_one.update(item, delta);
        }
        assert_eq!(batched.estimate_l0(), one_by_one.estimate_l0());
        assert_eq!(batched.updates_processed(), one_by_one.updates_processed());
    }
}
