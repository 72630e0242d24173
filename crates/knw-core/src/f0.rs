//! The space-optimal F0 sketch (Figure 3, Theorems 2, 3 and 9 of the paper).
//!
//! # Structure
//!
//! The sketch keeps `K = 1/ε²` counters `C_1 … C_K`.  Every stream index is
//! assigned a *level* `lsb(h1(i))` (a geometric random variable) and a *bucket*
//! `h3(h2(i))`; each counter remembers the deepest level of any item hashed to
//! its bucket, **stored as an offset from a base level `b`**.  The base is
//! derived from the rough estimate `R` produced by the always-correct
//! [`RoughEstimator`] run alongside:
//! `b = max(0, ⌈log R⌉ − log(K/32))`, so that the number of items at level
//! `≥ b` is `Θ(K)` at all times.  Offsets are therefore `O(1)` in expectation
//! and the counters fit in `O(K)` bits total, which is what the
//! variable-bit-length array ([`knw_vla::Vla`]) stores; the quantity
//! `A = Σ ⌈log(C_j + 2)⌉` is tracked and the paper's `A > 3K` FAIL guard is
//! enforced.
//!
//! Reporting inverts the balls-and-bins occupancy of the counters at levels
//! `≥ b`: `F̃0 = 2^b · ln(1 − T/K)/ln(1 − 1/K)` where `T = |{j : C_j ≥ 0}|`.
//!
//! Small cardinalities (below `Θ(K)`) are served by the Section 3.3 subroutine
//! ([`SmallF0Estimator`]), exactly as
//! Theorem 4 prescribes.
//!
//! # Deviations from the letter of the paper
//!
//! * On the FAIL condition (`A > 3K`) the paper's algorithm outputs FAIL and
//!   stops.  This implementation records the event ([`KnwF0Sketch::failed`]),
//!   keeps operating, and lets the strict API
//!   ([`KnwF0Sketch::try_estimate`]) surface the error, which is friendlier
//!   for a long-lived library sketch.  The event did not occur in any of the
//!   reproduction experiments, matching the paper's analysis that it happens
//!   with probability ≤ 1/32.
//! * The subsampling divisor (the paper's constant 32 in `log(K/32)`) is
//!   configurable ([`KnwF0Sketch::with_subsample_divisor`]); the default is
//!   the paper's value.  Smaller divisors keep more items per level, trading
//!   a strictly-constant-factor increase in counter bits for a smaller
//!   constant in front of `ε` (see the ablation experiment E16).
//! * Reporting uses the hardware natural logarithm by default: it is already
//!   `O(1)` on real hardware, so Lemma 7's lookup table only matters in the
//!   paper's word-RAM model.  The table is implemented and validated
//!   separately ([`crate::ln_table`], experiment E11).
//! * Batched ingestion ([`KnwF0Sketch::insert_batch`]) hoists the update
//!   counter and the FAIL-guard check out of the per-item loop; the guard is
//!   still evaluated before every rebase and at batch end, so the sticky
//!   FAIL state is identical to the per-item path.
//! * Merging ([`MergeableEstimator::merge_from`]) finishes by re-deriving
//!   the subsampling base from the merged rough estimate, making
//!   shard-and-merge *bit-identical* to a single-stream run — the property
//!   the `knw-engine` sharded ingestion engine is built on.

use crate::config::F0Config;
use crate::error::SketchError;
use crate::estimator::{CardinalityEstimator, MergeableEstimator};
use crate::rough::RoughEstimator;
use crate::small_f0::{SmallF0Estimate, SmallF0Estimator};
use knw_hash::bits::{ceil_log2, lsb_with_cap};
use knw_hash::kwise::independence_for;
use knw_hash::pairwise::PairwiseHash;
use knw_hash::prime_field::Mersenne61;
use knw_hash::rng::{Rng64, SplitMix64};
use knw_hash::uniform::BucketHash;
use knw_hash::{SpaceUsage, LANES};
use knw_vla::Vla;

/// The paper's subsampling divisor: `b = max(0, est − log(K/32))`.
pub const PAPER_SUBSAMPLE_DIVISOR: u64 = 32;

/// The space-optimal KNW F0 (distinct elements) sketch.
///
/// The wire form is the fields in declaration order.  Decoding refuses a
/// `log n` other than the configuration's, a base level past it, an `est`
/// outside `[0, 128)`, and a bit budget or occupancy the counters do not
/// give, so no forged shard reaches a shift, an exponent or a running
/// total out of range.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KnwF0Sketch {
    config: F0Config,
    /// Number of counters `K = 1/ε²` (power of two).
    k: u64,
    /// `log2` of the universe size.
    log_n: u32,
    /// Subsampling divisor (32 in the paper).
    subsample_divisor: u64,
    /// `h1 ∈ H_2([n], [0, n−1])` — level hash.
    h1: PairwiseHash,
    /// `h2 ∈ H_2([n], [K³])` — domain compression.
    h2: PairwiseHash,
    /// `h3 ∈ H_k([K³], [K])` — bucket hash.
    h3: BucketHash,
    /// Offset counters, stored as `C_j + 1` so that `0` encodes the paper's
    /// initial value `−1`.
    counters: Vla,
    /// `A = Σ_j ⌈log(C_j + 2)⌉`, maintained incrementally.
    a_bits: u64,
    /// Number of counters with `C_j ≥ 0` (i.e. occupancy `T`), maintained
    /// incrementally so reporting is O(1).
    occupied: u64,
    /// Current base level `b`.
    base: u32,
    /// Current `est` with `2^est` the last acted-upon rough estimate.
    est: i64,
    /// Whether the `A > 3K` guard has ever tripped.
    failed: bool,
    /// The always-correct constant-factor estimator run alongside.
    rough: RoughEstimator,
    /// Cached value of `rough.estimate()`, refreshed only when the rough
    /// estimator reports a counter change (keeps the update path O(1)).
    rough_cached: f64,
    /// The Section 3.3 small-cardinality subroutine.
    small: SmallF0Estimator,
    /// Number of stream updates processed (for diagnostics only).
    updates: u64,
}

impl KnwF0Sketch {
    /// Creates a sketch from a configuration.
    #[must_use]
    pub fn new(config: F0Config) -> Self {
        Self::with_subsample_divisor(config, PAPER_SUBSAMPLE_DIVISOR)
    }

    /// Creates a sketch with an explicit subsampling divisor (the paper's
    /// constant is 32; see the module documentation).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero, not a power of two, or larger than `K`.
    #[must_use]
    pub fn with_subsample_divisor(config: F0Config, divisor: u64) -> Self {
        let k = config.num_bins();
        assert!(
            divisor > 0 && divisor.is_power_of_two(),
            "divisor must be a power of two"
        );
        assert!(divisor <= k, "divisor {divisor} larger than K = {k}");
        let universe_pow2 = config.universe_pow2();
        let log_n = config.log_universe();
        let cube = k.saturating_pow(3).min(1u64 << 60);
        let independence = independence_for(k, config.epsilon);

        let mut master = SplitMix64::new(config.seed);
        let mut h_rng = master.split(0x01);
        let mut small_rng = master.split(0x02);
        let rough_seed = master.next_u64();

        Self {
            config,
            k,
            log_n,
            subsample_divisor: divisor,
            h1: PairwiseHash::random(universe_pow2, &mut h_rng),
            h2: PairwiseHash::random(cube, &mut h_rng),
            h3: BucketHash::random(config.hash_strategy, independence, k, &mut h_rng),
            counters: Vla::new(k as usize),
            a_bits: 0,
            occupied: 0,
            base: 0,
            est: 0,
            failed: false,
            rough: RoughEstimator::with_strategy(config.universe, rough_seed, config.hash_strategy),
            rough_cached: 0.0,
            small: SmallF0Estimator::new(k, config.hash_strategy, &mut small_rng),
            updates: 0,
        }
    }

    /// The configuration this sketch was built with.
    #[must_use]
    pub fn config(&self) -> &F0Config {
        &self.config
    }

    /// The number of counters `K`.
    #[must_use]
    pub fn num_counters(&self) -> u64 {
        self.k
    }

    /// The current base subsampling level `b`.
    #[must_use]
    pub fn base_level(&self) -> u32 {
        self.base
    }

    /// The current counter bit budget `A = Σ ⌈log(C_j + 2)⌉`.
    #[must_use]
    pub fn counter_bits(&self) -> u64 {
        self.a_bits
    }

    /// Whether the paper's `A > 3K` FAIL condition has ever been hit.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Number of stream updates processed.
    #[must_use]
    pub fn updates_processed(&self) -> u64 {
        self.updates
    }

    /// Reads counter `j` in the paper's convention (`−1` means "no item at
    /// level ≥ b has hashed here").  Exposed for tests and diagnostics.
    #[must_use]
    pub fn counter(&self, j: usize) -> i64 {
        self.counters.read(j) as i64 - 1
    }

    #[inline]
    fn counter_cost(value: i64) -> u64 {
        // ⌈log2(C + 2)⌉ with C ≥ −1; C = −1 → ⌈log2 1⌉ = 0.
        u64::from(ceil_log2((value + 2) as u64))
    }

    /// Processes one stream index `i ∈ [n]`.
    ///
    /// This is the production per-item path: it applies the two
    /// *provably bit-identical* pruning observations of the batch path
    /// ([`insert_batch`](Self::insert_batch)) that do not depend on batch
    /// context:
    ///
    /// 1. **Level filter** — when `lsb(h1(i)) < b` the counter write is a
    ///    no-op (`max(C_j, level − b) = C_j` for any `C_j ≥ −1` and negative
    ///    offset), and the reference path performs no guard check for a
    ///    no-op write either, so the bucket hashes `h3(h2(i))` can be
    ///    skipped without observable difference.
    /// 2. **Rough-estimator pruning** — each RoughEstimator sub-sketch skips
    ///    its bucket hash when the item's level cannot exceed the
    ///    sub-sketch's minimum counter
    ///    ([`RoughEstimator::insert_tracked_pruned`]), which never changes
    ///    counter state.
    ///
    /// Reacting to the rough estimate only when it *changed* is likewise
    /// equivalent: between changes the reaction recomputes the same `est`
    /// and leaves the base untouched.  The third batch-path idea (small-F0
    /// LARGE gating) is **not** applied here because it changes internal
    /// small-F0 state (it is only estimate-preserving, not bit-identical).
    ///
    /// The literal Figure 3 update is kept as
    /// [`insert_reference`](Self::insert_reference); the two paths leave the
    /// sketch field-for-field identical (see the equivalence test).
    pub fn insert(&mut self, item: u64) {
        self.updates += 1;
        let rough_changed = self.rough.insert_tracked_pruned(item);
        if rough_changed {
            self.rough_cached = self.rough.estimate();
        }
        self.small.insert(item);

        let level = i64::from(lsb_with_cap(self.h1.hash(item), self.log_n));
        let offset = level - i64::from(self.base);
        if offset >= 0 {
            let bucket = self.h3.hash(self.h2.hash(item)) as usize;
            let current = self.counters.read(bucket) as i64 - 1;
            let new = current.max(offset);
            if new != current {
                self.a_bits = self.a_bits + Self::counter_cost(new) - Self::counter_cost(current);
                if current < 0 && new >= 0 {
                    self.occupied += 1;
                }
                self.counters.write(bucket, (new + 1) as u64);
                if self.a_bits > 3 * self.k {
                    self.failed = true;
                }
            }
        }

        if rough_changed {
            self.react_to_rough();
        }
    }

    /// The Figure 3 update, literally: every hash is evaluated and the FAIL
    /// guard is checked on every counter write.  Kept as the paper-faithful
    /// reference the pruned paths ([`insert`](Self::insert),
    /// [`insert_batch`](Self::insert_batch)) are tested against (and what
    /// the benches race them against).
    pub fn insert_reference(&mut self, item: u64) {
        self.updates += 1;
        if self.rough.insert_tracked(item) {
            self.rough_cached = self.rough.estimate();
        }
        self.small.insert(item);

        // Level and bucket.
        let level = i64::from(lsb_with_cap(self.h1.hash(item), self.log_n));
        let bucket = self.h3.hash(self.h2.hash(item)) as usize;

        let current = self.counters.read(bucket) as i64 - 1;
        let offset = level - i64::from(self.base);
        let new = current.max(offset);
        if new != current {
            self.a_bits = self.a_bits + Self::counter_cost(new) - Self::counter_cost(current);
            if current < 0 && new >= 0 {
                self.occupied += 1;
            }
            self.counters.write(bucket, (new + 1) as u64);
            if self.a_bits > 3 * self.k {
                self.failed = true;
            }
        }

        self.react_to_rough();
    }

    /// Processes a batch of stream indices — the production ingestion path.
    ///
    /// Produces the same estimates as repeated [`insert`](Self::insert), with
    /// the per-call bookkeeping hoisted out of the loop and three
    /// work-pruning observations applied per item:
    ///
    /// 1. **Level filter** — an item whose level `lsb(h1(i))` is below the
    ///    current base `b` cannot change any offset counter (`max(C_j,
    ///    level − b) = C_j` whenever `level − b < 0 ≤ C_j + 1`), so the
    ///    expensive bucket hashes `h3(h2(i))` are skipped.  At steady state
    ///    `b ≈ log F0 − log(K/32)`, so only a `Θ(K/F0)` fraction of items
    ///    pays for bucket hashing.  Counter state stays bit-identical.
    /// 2. **Rough-estimator pruning** — each RoughEstimator sub-sketch skips
    ///    its `2·K_RE`-wise bucket hash when the item's level cannot exceed
    ///    the sub-sketch's minimum counter
    ///    ([`RoughEstimator::insert_tracked_pruned`]).  Bit-identical.
    /// 3. **Small-F0 gating** — once the Section 3.3 structure has
    ///    permanently certified LARGE
    ///    ([`SmallF0Estimator::large_certified`]), its answer can never be
    ///    consulted again (certification is monotone), so its updates stop.
    ///    This is the one deviation from bit-identical internal state; every
    ///    reported estimate, including after arbitrary merges, is unchanged.
    ///
    /// The `A > 3K` FAIL guard moves out of the per-write path: between
    /// rebases `A` is nondecreasing, so checking it just before every rebase
    /// (inside `react_to_rough`) and once at batch
    /// end observes the same maxima, leaving the sticky
    /// [`failed`](Self::failed) flag in the same state.
    ///
    /// Items are consumed in eight-lane blocks ([`LANES`]): all
    /// state-independent hashing — the main level hash `h1` and every rough
    /// sub-estimator level hash — runs through the batched kernels
    /// (`hash_batch`), and only the per-item reactions (counter writes,
    /// bucket hashes of surviving items, rebases) stay scalar.  The batched
    /// kernels are bit-identical to per-key hashing (the knw-hash contract),
    /// levels are pure functions of the item, and each item's filter still
    /// reads the *current* base — which may move mid-block via
    /// `react_to_rough` — so the resulting sketch state is bit-identical to
    /// the per-item path.
    pub fn insert_batch(&mut self, items: &[u64]) {
        self.updates += items.len() as u64;
        let small_active = !self.small.large_certified();
        // Loop-invariant level-filter parameters, held in locals so the hot
        // loop touches no heap state: the (copyable) level hashes and the
        // pruning-threshold filter masks, refreshed whenever a survivor may
        // have moved them.
        let h1 = self.h1;
        let main_mask = h1.range() - 1;
        let mut rough_params = self.rough.level_filter_params();
        let mut chunks = items.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            let lanes: &[u64; LANES] = chunk.try_into().expect("chunk has LANES items");
            // All four level hashes (main `h1` plus three rough subs) share
            // one field normalization of the keys — `hash(x)` reduces its
            // input before the multiply-add, so pre-reducing is identical.
            let reduced = Mersenne61::reduce_batch(lanes);

            // Survivor filter: a lane below every rough pruning threshold
            // *and* below the main base can touch no counter, so the whole
            // per-lane reaction is skipped.  Deciding with thresholds that
            // may lag the live state is exact because both only grow
            // (`min_stored` per sub-estimator since counters never shrink,
            // and `base` via the monotone `est` in `react_to_rough`): a
            // lane dead under a stale threshold is dead under the current
            // one too.  In steady state `base ≈ log F0 − log(K/32)` kills
            // all eight lanes of almost every chunk, which is what makes
            // batched ingestion cheaper than the per-item pruned path
            // rather than merely equal to it.
            // `lsb ≥ t ⟺ x mod 2^t = 0`, so each threshold comparison is an
            // AND against a precomputed filter mask and a zero test — no
            // level extraction in the filter at all.
            // The fused zero-mask keeps each hash value in a register
            // instead of materializing four `[u64; LANES]` arrays.
            let mut live = 0u32;
            for (sub_h1, filter) in &rough_params {
                live |= sub_h1.hash_zero_mask_prereduced(&reduced, *filter);
            }
            let base_filter = main_mask & ((1u64 << self.base) - 1);
            live |= h1.hash_zero_mask_prereduced(&reduced, base_filter);
            if live == 0 && !small_active {
                continue;
            }

            // Survivors take the per-item pruned path verbatim (its level
            // hashes recompute what the filter already proved interesting —
            // a vanishing fraction of items), so the state transition is the
            // per-item one by construction.
            for (lane, &item) in chunk.iter().enumerate() {
                if !small_active && live & (1 << lane) == 0 {
                    continue;
                }
                let rough_changed = self.rough.insert_tracked_pruned(item);
                if rough_changed {
                    self.rough_cached = self.rough.estimate();
                }
                if small_active {
                    self.small.insert(item);
                }

                let level = i64::from(lsb_with_cap(self.h1.hash(item), self.log_n));
                self.apply_main_level(item, level);

                // React *after* the write, as the per-item path does, so the
                // pre-rebase guard check inside `react_to_rough` observes this
                // item's write at the old base.  Reacting only on rough
                // changes is equivalent to reacting every item: between
                // changes the reaction recomputes the same `est` and leaves
                // the base untouched.
                if rough_changed {
                    self.react_to_rough();
                }
            }
            // Counters may have grown; pick up the new thresholds.
            rough_params = self.rough.level_filter_params();
        }
        for &item in chunks.remainder() {
            let rough_changed = self.rough.insert_tracked_pruned(item);
            if rough_changed {
                self.rough_cached = self.rough.estimate();
            }
            if small_active {
                self.small.insert(item);
            }
            let level = i64::from(lsb_with_cap(self.h1.hash(item), self.log_n));
            self.apply_main_level(item, level);
            if rough_changed {
                self.react_to_rough();
            }
        }
        if self.a_bits > 3 * self.k {
            self.failed = true;
        }
    }

    /// The main-sketch half of one item's update given its precomputed level:
    /// the base filter, and for survivors the bucket hashes and counter
    /// write.  The FAIL guard is the caller's responsibility (per-write for
    /// [`insert`](Self::insert), pre-rebase/batch-end for
    /// [`insert_batch`](Self::insert_batch)).
    #[inline]
    fn apply_main_level(&mut self, item: u64, level: i64) {
        let offset = level - i64::from(self.base);
        if offset >= 0 {
            let bucket = self.h3.hash(self.h2.hash(item)) as usize;
            let current = self.counters.read(bucket) as i64 - 1;
            let new = current.max(offset);
            if new != current {
                self.a_bits = self.a_bits + Self::counter_cost(new) - Self::counter_cost(current);
                if current < 0 && new >= 0 {
                    self.occupied += 1;
                }
                self.counters.write(bucket, (new + 1) as u64);
            }
        }
    }

    /// Figure 3, step 6, the `R > 2^est` branch: advances `est`/`b` when the
    /// rough estimate has outgrown the current subsampling level.  Shared by
    /// the ingestion paths and by [`merge_from`](MergeableEstimator::merge_from),
    /// which is what makes merged sketches bit-identical to a single-stream
    /// run (the base level is a pure function of the — itself exactly
    /// mergeable — rough estimate).
    fn react_to_rough(&mut self) {
        let rough = self.rough_cached;
        if rough > 0.0 && rough > (2.0f64).powi(self.est as i32) {
            // `est ← log R` (we take the floor, which keeps the expected number
            // of surviving items per level at `Θ(K / subsample_divisor)`).
            self.est = rough.log2().floor() as i64;
            let shift = i64::from(ceil_log2(self.k / self.subsample_divisor));
            // Clamp to the deepest existing level: subsampling beyond log n is
            // meaningless (it can only arise when F0 approaches or exceeds the
            // configured universe size, where level log n already isolates a
            // 1/n fraction of the items).
            let new_base = (self.est - shift).clamp(0, i64::from(self.log_n)) as u32;
            if new_base != self.base {
                // The guard must see the pre-rebase maximum of A (rebasing
                // can only shrink counters).
                if self.a_bits > 3 * self.k {
                    self.failed = true;
                }
                self.rebase(new_base);
            }
        }
    }

    /// Rebases every counter from the current `b` to `new_base`
    /// (Figure 3, steps (a)–(c)).
    fn rebase(&mut self, new_base: u32) {
        let delta = i64::from(self.base) - i64::from(new_base);
        let mut a_bits = 0u64;
        let mut occupied = 0u64;
        for j in 0..self.k as usize {
            let current = self.counters.read(j) as i64 - 1;
            let shifted = if current < 0 {
                -1
            } else {
                (current + delta).max(-1)
            };
            if shifted != current {
                self.counters.write(j, (shifted + 1) as u64);
            }
            a_bits += Self::counter_cost(shifted);
            if shifted >= 0 {
                occupied += 1;
            }
        }
        self.a_bits = a_bits;
        self.occupied = occupied;
        self.base = new_base;
        if self.a_bits > 3 * self.k {
            self.failed = true;
        }
    }

    /// The Figure 3 estimator (step 7), *without* the small-F0 dispatch:
    /// `2^b · ln(1 − T/K)/ln(1 − 1/K)`.
    #[must_use]
    pub fn main_estimate(&self) -> f64 {
        let inverted = crate::balls_bins::invert_occupancy(self.occupied as f64, self.k);
        (2.0f64).powi(self.base as i32) * inverted
    }

    /// The full estimate with the Theorem 4 dispatch between the exact,
    /// small-range and main estimators.
    #[must_use]
    pub fn estimate_f0(&self) -> f64 {
        match self.small.estimate() {
            SmallF0Estimate::Exact(c) => c as f64,
            SmallF0Estimate::Approx(v) => v,
            SmallF0Estimate::Large => self.main_estimate(),
        }
    }

    /// Like [`estimate_f0`](Self::estimate_f0) but surfaces the FAIL condition
    /// instead of best-effort reporting.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::SpaceGuardTripped`] if `A > 3K` ever occurred.
    pub fn try_estimate(&self) -> Result<f64, SketchError> {
        if self.failed {
            Err(SketchError::SpaceGuardTripped)
        } else {
            Ok(self.estimate_f0())
        }
    }

    /// Occupancy `T = |{j : C_j ≥ 0}|` (exposed for tests and experiments).
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.occupied
    }

    /// Which regime the Section 3.3 dispatcher is currently in (exact / array /
    /// main).  Exposed for the E6 transition experiment and diagnostics.
    #[must_use]
    pub fn small_regime(&self) -> SmallF0Estimate {
        self.small.estimate()
    }

    fn compatible(&self, other: &Self) -> Result<(), SketchError> {
        if self.config.epsilon != other.config.epsilon {
            return Err(SketchError::config_mismatch(
                "epsilon",
                self.config.epsilon,
                other.config.epsilon,
            ));
        }
        if self.config.universe != other.config.universe {
            return Err(SketchError::config_mismatch(
                "universe",
                self.config.universe,
                other.config.universe,
            ));
        }
        if self.config.hash_strategy != other.config.hash_strategy {
            return Err(SketchError::config_mismatch(
                "hash_strategy",
                self.config.hash_strategy,
                other.config.hash_strategy,
            ));
        }
        if self.subsample_divisor != other.subsample_divisor {
            return Err(SketchError::config_mismatch(
                "subsample_divisor",
                self.subsample_divisor,
                other.subsample_divisor,
            ));
        }
        if self.config.seed != other.config.seed {
            return Err(SketchError::SeedMismatch);
        }
        // A decoded shard can carry any shape; the merge loops assume `K`
        // counters and matching rough and small-F0 structures on both sides.
        let shape = |s: &Self| {
            let counters = s.counters.len() as u64;
            (s.k, counters, s.rough.shape(), s.small.shape())
        };
        let (ours, theirs) = (shape(self), shape(other));
        if ours != theirs || ours.0 != ours.1 {
            return Err(SketchError::config_mismatch("shape", ours, theirs));
        }
        Ok(())
    }
}

impl serde::Deserialize for KnwF0Sketch {
    /// Reads the fields in declaration order, then checks the levels:
    /// `log n` is the configuration's (at most 63), the base `b` at most
    /// `log n` — what `1 << b` and the rebase clamp assume — and `est` in
    /// `[0, 128)`.  `est` is `⌊log₂ R⌋` of a rough estimate `R` above 1 and
    /// at most `2^62 · K_RE`.  The bit budget `A` and the occupancy `T`,
    /// which ingestion updates incrementally, must be what the counters give.
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let sketch = Self {
            config: F0Config::deserialize(input)?,
            k: u64::deserialize(input)?,
            log_n: u32::deserialize(input)?,
            subsample_divisor: u64::deserialize(input)?,
            h1: PairwiseHash::deserialize(input)?,
            h2: PairwiseHash::deserialize(input)?,
            h3: BucketHash::deserialize(input)?,
            counters: Vla::deserialize(input)?,
            a_bits: u64::deserialize(input)?,
            occupied: u64::deserialize(input)?,
            base: u32::deserialize(input)?,
            est: i64::deserialize(input)?,
            failed: bool::deserialize(input)?,
            rough: RoughEstimator::deserialize(input)?,
            rough_cached: f64::deserialize(input)?,
            small: SmallF0Estimator::deserialize(input)?,
            updates: u64::deserialize(input)?,
        };
        let (log_n, base, est) = (sketch.log_n, sketch.base, sketch.est);
        // `F0Config::log_universe`, without its panics on a forged universe.
        let universe = sketch.config.universe;
        let expected = universe
            .checked_next_power_of_two()
            .filter(|_| universe > 0)
            .map(|pow2| knw_hash::bits::bits_for_universe(pow2).max(1));
        if expected != Some(log_n) {
            return Err(serde::Error::new(format!(
                "F0 sketch log n {log_n} refused"
            )));
        }
        if base > log_n || !(0..128).contains(&est) {
            return Err(serde::Error::new(format!(
                "F0 sketch base {base} or est {est} out of range for log n {log_n}"
            )));
        }
        let (mut a_bits, mut occupied) = (0u64, 0u64);
        for j in 0..sketch.counters.len() {
            // The counter stores `C + 1`: `⌈log₂(C + 2)⌉` bits, occupied iff
            // `C ≥ 0`.
            let stored = sketch.counters.read(j);
            a_bits += u64::from(ceil_log2(stored.saturating_add(1)));
            occupied += u64::from(stored != 0);
        }
        if (a_bits, occupied) != (sketch.a_bits, sketch.occupied) {
            return Err(serde::Error::new(
                "F0 sketch bit budget or occupancy differs from its counters",
            ));
        }
        Ok(sketch)
    }
}

impl SpaceUsage for KnwF0Sketch {
    fn space_bits(&self) -> u64 {
        self.h1.space_bits()
            + self.h2.space_bits()
            + self.h3.space_bits()
            + self.counters.space_bits()
            + self.rough.space_bits()
            + self.small.space_bits()
            // b, est, A, occupied, failed and bookkeeping words.
            + 5 * 64
    }
}

impl CardinalityEstimator for KnwF0Sketch {
    fn insert(&mut self, item: u64) {
        KnwF0Sketch::insert(self, item);
    }

    fn insert_batch(&mut self, items: &[u64]) {
        KnwF0Sketch::insert_batch(self, items);
    }

    fn estimate(&self) -> f64 {
        self.estimate_f0()
    }

    fn name(&self) -> &'static str {
        "knw-f0"
    }
}

impl MergeableEstimator for KnwF0Sketch {
    type MergeError = SketchError;

    /// Merges a sketch of another stream into `self` (union semantics).
    ///
    /// The merge is **exact**: because every component (offset counters under
    /// a fixed base, the rough estimator's level maxima, the small-F0 state)
    /// is an order-independent function of the distinct-item set, and the
    /// base level is re-derived from the merged rough estimate afterwards
    /// (the same Figure 3 step-6 reaction the ingestion path runs), the
    /// merged sketch is field-for-field identical to a single sketch that
    /// ingested any interleaving of both streams.  Shard-and-merge therefore
    /// reproduces single-stream estimates bit-exactly, which the engine and
    /// property tests rely on.
    ///
    /// One field is excluded from the bit-identity contract: the sticky
    /// [`failed`](KnwF0Sketch::failed) flag is *trajectory*-dependent (it
    /// records whether `A > 3K` ever held), and the merge path visits
    /// different transient states than the sequential run, so the flags can
    /// differ in either direction near the threshold.  The merge propagates
    /// both inputs' flags and re-checks the guard on every state it
    /// produces; the counters, base, occupancy and estimates — everything
    /// the flag exists to protect — remain bit-identical.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.compatible(other)?;
        // Align both sides to the deeper base, then take pointwise maxima.
        let target_base = self.base.max(other.base);
        if self.base != target_base {
            self.rebase(target_base);
        }
        let other_delta = i64::from(other.base) - i64::from(target_base);
        let mut a_bits = 0u64;
        let mut occupied = 0u64;
        for j in 0..self.k as usize {
            let mine = self.counters.read(j) as i64 - 1;
            let theirs_raw = other.counters.read(j) as i64 - 1;
            let theirs = if theirs_raw < 0 {
                -1
            } else {
                (theirs_raw + other_delta).max(-1)
            };
            let merged = mine.max(theirs);
            if merged != mine {
                self.counters.write(j, (merged + 1) as u64);
            }
            a_bits += Self::counter_cost(merged);
            if merged >= 0 {
                occupied += 1;
            }
        }
        self.a_bits = a_bits;
        self.occupied = occupied;
        self.est = self.est.max(other.est);
        self.failed |= other.failed || self.a_bits > 3 * self.k;
        self.rough.merge_from_unchecked(&other.rough);
        self.small.merge_from_unchecked(&other.small);
        self.updates += other.updates;
        // Re-derive `est`/`b` from the merged rough estimate, exactly as the
        // ingestion path would have; this is what upgrades the merge from
        // "statistically equivalent" to "bit-identical with the union run".
        self.rough_cached = self.rough.estimate();
        self.react_to_rough();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(eps: f64, universe: u64, seed: u64) -> KnwF0Sketch {
        KnwF0Sketch::new(F0Config::new(eps, universe).with_seed(seed))
    }

    #[test]
    fn exact_for_tiny_streams() {
        let mut s = sketch(0.1, 1 << 20, 1);
        for i in 0..60u64 {
            s.insert(i);
            s.insert(i); // duplicates
        }
        assert_eq!(s.estimate_f0(), 60.0);
        assert!(!s.failed());
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = sketch(0.1, 1 << 16, 2);
        assert_eq!(s.estimate_f0(), 0.0);
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.counter_bits(), 0);
    }

    #[test]
    fn medium_cardinality_accuracy() {
        // ε = 0.05 → K = 512.  The paper's guarantee is (1 ± O(ε)) with a
        // noticeable constant; we check the relative error stays within 10ε
        // for a handful of seeds and the *median* error is well below that.
        let truth = 20_000u64;
        let eps = 0.05;
        let mut errors = Vec::new();
        for seed in 0..7u64 {
            let mut s = sketch(eps, 1 << 22, seed * 131 + 7);
            for i in 0..truth {
                s.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let est = s.estimate_f0();
            let rel = (est - truth as f64).abs() / truth as f64;
            errors.push(rel);
        }
        errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = errors[errors.len() / 2];
        // The paper's guarantee is (1 ± O(ε)); with the paper's subsampling
        // constant (divisor 32) the hidden constant is ≈ 4–10, so we assert a
        // generous but still meaningful envelope.
        assert!(
            median < 8.0 * eps,
            "median relative error {median} too large (errors {errors:?})"
        );
        assert!(
            errors[errors.len() - 1] < 20.0 * eps,
            "worst relative error too large (errors {errors:?})"
        );
    }

    #[test]
    fn estimate_available_midstream() {
        let mut s = sketch(0.05, 1 << 20, 3);
        let mut checks = 0;
        for i in 0..50_000u64 {
            s.insert(i);
            if i > 0 && i % 10_000 == 0 {
                let est = s.estimate_f0();
                let rel = (est - i as f64).abs() / i as f64;
                assert!(rel < 1.0, "midstream estimate off by {rel} at t = {i}");
                checks += 1;
            }
        }
        assert_eq!(checks, 4);
    }

    #[test]
    fn duplicates_leave_the_sketch_unchanged() {
        let mut a = sketch(0.1, 1 << 18, 4);
        let mut b = sketch(0.1, 1 << 18, 4);
        for i in 0..5_000u64 {
            a.insert(i);
            b.insert(i);
            b.insert(i);
        }
        assert_eq!(a.estimate_f0(), b.estimate_f0());
        assert_eq!(a.occupancy(), b.occupancy());
        assert_eq!(a.base_level(), b.base_level());
    }

    #[test]
    fn counter_bits_stay_within_the_fail_budget() {
        let mut s = sketch(0.05, 1 << 22, 5);
        for i in 0..100_000u64 {
            s.insert(i.wrapping_mul(2_654_435_761));
        }
        assert!(!s.failed(), "FAIL guard tripped unexpectedly");
        assert!(
            s.counter_bits() <= 3 * s.num_counters(),
            "A = {} exceeds 3K = {}",
            s.counter_bits(),
            3 * s.num_counters()
        );
    }

    #[test]
    fn base_level_tracks_cardinality_growth() {
        let mut s = sketch(0.1, 1 << 24, 6);
        let mut last_base = 0;
        for i in 0..200_000u64 {
            s.insert(i);
            let b = s.base_level();
            assert!(b >= last_base, "base decreased");
            last_base = b;
        }
        assert!(last_base > 0, "base never advanced for a large stream");
    }

    #[test]
    fn space_scales_like_inverse_epsilon_squared_plus_log_n() {
        let coarse = sketch(0.2, 1 << 20, 7);
        let fine = sketch(0.02, 1 << 20, 7);
        // K grows 100x; total space should grow substantially but far less
        // than the naive K·log n (which would be ~20x more).
        let ratio = fine.space_bits() as f64 / coarse.space_bits() as f64;
        assert!(ratio > 2.0, "space barely grew: {ratio}");
        let k_fine = fine.num_counters();
        assert!(
            fine.space_bits() < k_fine * 32,
            "space {} not within a small multiple of K = {k_fine}",
            fine.space_bits()
        );
    }

    #[test]
    fn try_estimate_is_ok_when_not_failed() {
        let mut s = sketch(0.1, 1 << 16, 8);
        for i in 0..10_000u64 {
            s.insert(i);
        }
        assert!(s.try_estimate().is_ok());
    }

    #[test]
    fn merge_two_halves_matches_union() {
        let cfg = F0Config::new(0.05, 1 << 20).with_seed(99);
        let mut left = KnwF0Sketch::new(cfg);
        let mut right = KnwF0Sketch::new(cfg);
        let mut union = KnwF0Sketch::new(cfg);
        for i in 0..15_000u64 {
            left.insert(i);
            union.insert(i);
        }
        for i in 10_000..30_000u64 {
            right.insert(i);
            union.insert(i);
        }
        left.merge_from(&right).expect("compatible sketches");
        let merged = left.estimate_f0();
        let direct = union.estimate_f0();
        // The merge re-derives the base level from the (exactly mergeable)
        // rough estimator, so the merged sketch is bit-identical to the
        // union-stream run.
        assert_eq!(merged, direct, "merged estimate must equal the union run");
        assert_eq!(left.base_level(), union.base_level());
        assert_eq!(left.occupancy(), union.occupancy());
        assert_eq!(left.counter_bits(), union.counter_bits());
        // And both should be in the right ballpark of the true cardinality.
        let truth = 30_000.0;
        assert!((merged - truth).abs() / truth < 0.6);
    }

    #[test]
    fn insert_batch_matches_per_item_insert() {
        let cfg = F0Config::new(0.05, 1 << 20).with_seed(21);
        let mut batched = KnwF0Sketch::new(cfg);
        let mut one_by_one = KnwF0Sketch::new(cfg);
        let items: Vec<u64> = (0..40_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 20))
            .collect();
        for chunk in items.chunks(977) {
            batched.insert_batch(chunk);
        }
        for &i in &items {
            one_by_one.insert(i);
        }
        assert_eq!(batched.estimate_f0(), one_by_one.estimate_f0());
        assert_eq!(batched.occupancy(), one_by_one.occupancy());
        assert_eq!(batched.base_level(), one_by_one.base_level());
        assert_eq!(batched.counter_bits(), one_by_one.counter_bits());
        assert_eq!(batched.failed(), one_by_one.failed());
        assert_eq!(batched.updates_processed(), one_by_one.updates_processed());
    }

    #[test]
    fn pruned_insert_is_bit_identical_to_the_figure3_reference() {
        // The production per-item path (level filter + rough pruning +
        // react-on-change) must leave the sketch field-for-field identical
        // to the literal Figure 3 reference, across base rebases and for
        // streams large enough that the level filter actually prunes.
        let cfg = F0Config::new(0.1, 1 << 22).with_seed(37);
        let mut pruned = KnwF0Sketch::new(cfg);
        let mut reference = KnwF0Sketch::new(cfg);
        for i in 0..120_000u64 {
            let item = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 22);
            pruned.insert(item);
            reference.insert_reference(item);
            if i % 20_000 == 19_999 {
                assert_eq!(pruned.estimate_f0(), reference.estimate_f0(), "at {i}");
            }
        }
        assert_eq!(pruned.base_level(), reference.base_level());
        assert_eq!(pruned.occupancy(), reference.occupancy());
        assert_eq!(pruned.counter_bits(), reference.counter_bits());
        assert_eq!(pruned.failed(), reference.failed());
        assert_eq!(pruned.updates_processed(), reference.updates_processed());
        assert_eq!(pruned.estimate_f0(), reference.estimate_f0());
        for j in 0..pruned.num_counters() as usize {
            assert_eq!(pruned.counter(j), reference.counter(j), "counter {j}");
        }
        assert!(
            pruned.base_level() > 0,
            "stream too small to exercise the level filter"
        );
    }

    #[test]
    fn merge_rejects_mismatched_seeds_and_configs() {
        let a = KnwF0Sketch::new(F0Config::new(0.1, 1 << 16).with_seed(1));
        let mut b = KnwF0Sketch::new(F0Config::new(0.1, 1 << 16).with_seed(2));
        assert_eq!(b.merge_from(&a), Err(SketchError::SeedMismatch));
        let mut c = KnwF0Sketch::new(F0Config::new(0.2, 1 << 16).with_seed(1));
        assert!(matches!(
            c.merge_from(&a),
            Err(SketchError::IncompatibleConfig { .. })
        ));
    }

    /// A decoded shard whose structures have another shape is refused with
    /// a typed error, never a panic in the merge loops.
    #[test]
    fn merge_refuses_forged_shapes() {
        let mut a = sketch(0.1, 1 << 16, 3);
        for i in 0..5_000u64 {
            a.insert(i);
        }
        let forgeries: [fn(&mut KnwF0Sketch); 6] = [
            |s| s.k *= 2,
            |s| s.counters = Vla::new(s.counters.len() / 2),
            |s| {
                let (log_n, k_re, subs) = s.rough.shape();
                s.rough.forge_shape(log_n + 1, k_re, subs[0]);
            },
            |s| {
                let (log_n, k_re, subs) = s.rough.shape();
                s.rough.forge_shape(log_n, k_re + 1, subs[0]);
            },
            |s| {
                let (log_n, k_re, subs) = s.rough.shape();
                s.rough.forge_shape(log_n, k_re, subs[0] + 1);
            },
            |s| {
                s.small =
                    SmallF0Estimator::new(2 * s.k, Default::default(), &mut SplitMix64::new(1))
            },
        ];
        for (n, forge) in forgeries.iter().enumerate() {
            let mut forged = a.clone();
            forge(&mut forged);
            let refused = |r| matches!(r, Err(SketchError::IncompatibleConfig { .. }));
            assert!(refused(a.clone().merge_from(&forged)), "forgery {n} into a");
            assert!(refused(forged.clone().merge_from(&a)), "a into forgery {n}");
        }
    }

    #[test]
    fn subsample_divisor_ablation_smaller_divisor_more_occupancy() {
        let cfg = F0Config::new(0.1, 1 << 20).with_seed(11);
        let mut paper = KnwF0Sketch::with_subsample_divisor(cfg, 32);
        let mut dense = KnwF0Sketch::with_subsample_divisor(cfg, 4);
        for i in 0..50_000u64 {
            paper.insert(i);
            dense.insert(i);
        }
        assert!(dense.occupancy() >= paper.occupancy());
        // Both still produce sane estimates.
        for s in [&paper, &dense] {
            let rel = (s.estimate_f0() - 50_000.0).abs() / 50_000.0;
            assert!(rel < 1.5, "estimate {} badly off", s.estimate_f0());
        }
    }

    #[test]
    fn trait_impl_matches_inherent_methods() {
        let mut s = sketch(0.1, 1 << 16, 13);
        CardinalityEstimator::insert(&mut s, 5);
        CardinalityEstimator::insert(&mut s, 6);
        assert_eq!(CardinalityEstimator::estimate(&s), s.estimate_f0());
        assert_eq!(s.name(), "knw-f0");
        assert!(s.space_bits() > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_divisor_rejected() {
        let _ = KnwF0Sketch::with_subsample_divisor(F0Config::new(0.1, 1 << 10), 3);
    }
}
