//! The Lemma 6 counter matrix: representing the Figure 4 bit-matrix under
//! deletions.
//!
//! For F0 a bit per (level, bucket) cell suffices: once an item hits a cell it
//! stays hit.  Under turnstile updates a bit cannot be un-set, and keeping a
//! plain counter per cell is wrong too, because frequencies of opposite sign
//! can cancel across *different* items and produce a false "empty" cell.
//!
//! Lemma 6's fix: each cell `B_{i,j}` stores the dot product, over a random
//! prime field `F_p`, of the frequency sub-vector hashed to that cell with a
//! random vector `u` (indexed through a pairwise hash `h4` so that colliding
//! items are salted differently).  A cell is interpreted as occupied iff its
//! counter is nonzero.  False negatives require either `p` dividing a nonzero
//! frequency (rare because `p` is a random prime from a huge interval,
//! `D = 100·K·log(mM)`, `p ∈ [D, D³]`) or a nontrivial linear combination
//! hitting zero (probability `1/p` by Fact 3).
//!
//! The matrix has `log n + 1` rows (the subsampling levels, selected by
//! `lsb(h1(·))`) and `K` columns (selected by `h3(h2(·))`).

use knw_hash::bits::{ceil_log2, lsb_with_cap};
use knw_hash::pairwise::PairwiseHash;
use knw_hash::prime_field::DynField;
use knw_hash::primes::random_prime_in_range;
use knw_hash::rng::{Rng64, SplitMix64};
use knw_hash::uniform::{BucketHash, HashStrategy};
use knw_hash::{SpaceUsage, LANES};
use serde::Deserialize;

/// The Lemma 6 counter matrix plus the hash functions that address it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct L0Matrix {
    /// `h1 ∈ H_2([n], [0, n−1])` — row (level) selection via `lsb`.
    h1: PairwiseHash,
    /// `h2 ∈ H_2([n], [K³])` — domain compression.
    h2: PairwiseHash,
    /// `h3 ∈ H_k([K³], [K])` — column selection.
    h3: BucketHash,
    /// `h4 ∈ H_2([K³], [K])` — salt index selection (Lemma 6).
    h4: PairwiseHash,
    /// The random salt vector `u ∈ F_p^K`.
    salts: Vec<u64>,
    /// The prime field.
    field: DynField,
    /// Row-major counters, `(log n + 1) × K`, each in `[0, p)`.
    counters: Vec<u64>,
    /// Per-row count of nonzero cells, maintained incrementally.
    row_nonzero: Vec<u64>,
    /// Number of columns `K`.
    k: u64,
    /// `log2` of the universe (number of rows is `log_n + 1`).
    log_n: u32,
}

impl L0Matrix {
    /// Creates the matrix.
    ///
    /// * `universe` — dimension `n` of the frequency vector (rounded to a
    ///   power of two);
    /// * `k` — number of columns (`1/ε²`, a power of two);
    /// * `log_mm` — `log2(mM)`, which sizes the prime interval of Lemma 6;
    /// * `strategy` — construction backing `h3`.
    #[must_use]
    pub fn new(
        universe: u64,
        k: u64,
        log_mm: u32,
        strategy: HashStrategy,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(k.is_power_of_two(), "K must be a power of two");
        let universe_pow2 = universe.max(2).next_power_of_two();
        let log_n = ceil_log2(universe_pow2).min(63);
        let cube = k.saturating_pow(3).min(1u64 << 60);
        // D = 100 · K · log(mM).  The paper draws p from [D, D³]; we draw from
        // [D, 8D] instead so the per-counter width stays at the advertised
        // O(log K + log log(mM)) bits with a constant of 1 rather than 3.  The
        // interval still contains Θ(D/log D) primes, far more than the number
        // of prime factors ≥ D that any of the ≤ K relevant frequencies can
        // have, so the "p divides a nonzero frequency" failure stays
        // negligible.
        let d = (100 * k * u64::from(log_mm.max(1))).max(1 << 10);
        let hi = d.saturating_mul(8).min((1u64 << 61) - 1);
        let prime = random_prime_in_range(d, hi, rng);
        let field = DynField::new(prime);
        let salts = (0..k).map(|_| rng.next_below(prime)).collect();
        let rows = log_n as usize + 1;
        let independence = knw_hash::kwise::independence_for(k, 1.0 / (k as f64).sqrt());
        Self {
            h1: PairwiseHash::random(universe_pow2, rng),
            h2: PairwiseHash::random(cube, rng),
            h3: BucketHash::random(strategy, independence, k, rng),
            h4: PairwiseHash::random(k, rng),
            salts,
            field,
            counters: vec![0u64; rows * k as usize],
            row_nonzero: vec![0u64; rows],
            k,
            log_n,
        }
    }

    /// The number of columns `K`.
    #[must_use]
    pub fn num_columns(&self) -> u64 {
        self.k
    }

    /// The number of rows (`log n + 1`).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.row_nonzero.len()
    }

    /// The prime modulus in use.
    #[must_use]
    pub fn prime(&self) -> u64 {
        self.field.modulus()
    }

    /// Applies the update `x_item ← x_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        let row = lsb_with_cap(self.h1.hash(item), self.log_n) as usize;
        let compressed = self.h2.hash(item);
        let col = self.h3.hash(compressed) as usize;
        let salt_idx = self.h4.hash(compressed) as usize;
        self.apply_cell(row, col, salt_idx, delta);
    }

    /// Applies a batch of updates.  All four addressing hashes (`h1`, `h2`,
    /// `h3`, `h4`) are pure functions of the item, so eight-lane blocks are
    /// pre-hashed through the batched kernels and the field arithmetic on
    /// the addressed cells is applied per lane in order — bit-identical to
    /// per-item [`update`](Self::update) calls.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        let mut chunks = updates.chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            let mut lanes = [0u64; LANES];
            for (lane, &(item, _)) in lanes.iter_mut().zip(chunk) {
                *lane = item;
            }
            let rows = self.h1.hash_batch(&lanes);
            let compressed = self.h2.hash_batch(&lanes);
            let cols = self.h3.hash_batch(&compressed);
            let salt_idxs = self.h4.hash_batch(&compressed);
            for (lane, &(_, delta)) in chunk.iter().enumerate() {
                let row = lsb_with_cap(rows[lane], self.log_n) as usize;
                self.apply_cell(row, cols[lane] as usize, salt_idxs[lane] as usize, delta);
            }
        }
        for &(item, delta) in chunks.remainder() {
            self.update(item, delta);
        }
    }

    /// The state-mutating half of one update, given the addressed cell.
    #[inline]
    fn apply_cell(&mut self, row: usize, col: usize, salt_idx: usize, delta: i64) {
        let salt = self.salts[salt_idx];
        let contribution = self.field.mul(self.field.reduce_i64(delta), salt);
        let idx = row * self.k as usize + col;
        let old = self.counters[idx];
        let new = self.field.add(old, contribution);
        self.counters[idx] = new;
        match (old == 0, new == 0) {
            (true, false) => self.row_nonzero[row] += 1,
            (false, true) => self.row_nonzero[row] -= 1,
            _ => {}
        }
    }

    /// Sets every counter to 0, keeping the draws.
    pub(crate) fn clear(&mut self) {
        self.counters.fill(0);
        self.row_nonzero.fill(0);
    }

    /// Number of nonzero cells in row `row` (the occupancy `T` of Figure 4).
    #[must_use]
    pub fn row_occupancy(&self, row: usize) -> u64 {
        self.row_nonzero[row]
    }

    /// Figure 4 estimator evaluated at row `row`:
    /// `2^{row+1} · ln(1 − T/K)/ln(1 − 1/K)`.
    ///
    /// (`2^{row+1}` is the reciprocal of the probability that an item lands in
    /// that row, so this un-does the subsampling.)
    #[must_use]
    pub fn estimate_from_row(&self, row: usize) -> f64 {
        let t = self.row_occupancy(row);
        let inverted = crate::balls_bins::invert_occupancy(t as f64, self.k);
        let scale = (2.0f64).powi(row as i32 + 1);
        scale * inverted
    }

    /// Selects the reporting row from a rough estimate `r` of L0, as in
    /// Figure 4 (`row = log(16R/K)`), clamped to the matrix, and then deepened
    /// while the row is nearly saturated (occupancy ≥ 90%), which can only
    /// happen when the oracle under-estimated L0 by a large factor.
    #[must_use]
    pub fn select_row(&self, rough: f64) -> usize {
        let ratio = (16.0 * rough.max(1.0)) / self.k as f64;
        let mut row = if ratio <= 1.0 {
            0
        } else {
            (ratio.log2().floor() as usize).min(self.num_rows() - 1)
        };
        while row + 1 < self.num_rows() && self.row_occupancy(row) as f64 >= 0.9 * self.k as f64 {
            row += 1;
        }
        row
    }

    /// The total number of nonzero cells (diagnostics).
    #[must_use]
    pub fn total_nonzero(&self) -> u64 {
        self.row_nonzero.iter().sum()
    }

    /// Merges another matrix built with the *same seed and geometry* by
    /// entrywise field addition, recomputing the per-row occupancy counts.
    ///
    /// Each cell stores a Lemma 6 dot product over `F_p`, a linear function
    /// of the frequency vector; adding cells therefore yields exactly the
    /// matrix a single-stream run over the union would hold.
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        // "Unchecked" refers to seed compatibility (the caller's contract);
        // geometry is still asserted so a structurally inconsistent sketch
        // (e.g. forged serialized bytes) fails loudly instead of zipping
        // short and merging garbage.
        assert_eq!(self.field.modulus(), other.field.modulus());
        assert_eq!(self.k, other.k);
        assert_eq!(self.log_n, other.log_n);
        assert_eq!(self.counters.len(), other.counters.len());
        self.add_counters(other.counters.iter().copied(), false);
    }

    /// Adds `theirs`, the row-major counters of a matrix of this shape,
    /// cell by cell — or with `replace` takes them — and recounts each
    /// row's occupancy.
    fn add_counters(&mut self, mut theirs: impl Iterator<Item = u64>, replace: bool) {
        let field = self.field;
        let rows = self.counters.chunks_exact_mut(self.k as usize);
        for (row, nonzero) in rows.zip(&mut self.row_nonzero) {
            let mut occupied = 0;
            for (counter, value) in row.iter_mut().zip(theirs.by_ref()) {
                *counter = field.add(if replace { 0 } else { *counter }, value);
                occupied += u64::from(*counter != 0);
            }
            *nonzero = occupied;
        }
    }

    /// Whether `other` has this matrix's shape and draws (hashes, salts and
    /// prime): the draws of the same seed.
    pub(crate) fn same_draws(&self, other: &Self) -> bool {
        (self.h1, self.h2, self.h4, self.field) == (other.h1, other.h2, other.h4, other.field)
            && self.h3 == other.h3
            && self.salts == other.salts
            && (self.k, self.log_n) == (other.k, other.log_n)
    }

    /// Adds the counters of `view`, a matrix of this one's draws that
    /// passed [`MatrixView::check`] — or with `replace` takes them.
    pub(crate) fn add_view(&mut self, view: &MatrixView<'_>, replace: bool) {
        self.add_counters(super::words(view.counters), replace);
    }
}

/// A matrix's encoding borrowed from the wire: its hashes, field and
/// geometry, and the bytes of its salts, counters and row occupancies.
///
/// [`read`](Self::read) only parses; [`check`](Self::check) is the one
/// validator.  Decoding materialises a checked view into an [`L0Matrix`],
/// and merging from the wire adds one to a matrix in place, so both accept
/// exactly the same bytes.
pub(crate) struct MatrixView<'a> {
    h1: PairwiseHash,
    h2: PairwiseHash,
    h3: BucketHash,
    h4: PairwiseHash,
    salts: &'a [u8],
    field: DynField,
    counters: &'a [u8],
    row_nonzero: &'a [u8],
    k: u64,
    log_n: u32,
}

impl<'a> MatrixView<'a> {
    /// Reads the fields in declaration order, borrowing the word sequences.
    pub(crate) fn read(input: &mut &'a [u8]) -> Result<Self, serde::Error> {
        Ok(Self {
            h1: PairwiseHash::deserialize(input)?,
            h2: PairwiseHash::deserialize(input)?,
            h3: BucketHash::deserialize(input)?,
            h4: PairwiseHash::deserialize(input)?,
            salts: super::read_words(input)?,
            field: DynField::deserialize(input)?,
            counters: super::read_words(input)?,
            row_nonzero: super::read_words(input)?,
            k: u64::deserialize(input)?,
            log_n: u32::deserialize(input)?,
        })
    }

    /// The `log2` of the universe the matrix declares.
    pub(crate) fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Checks that the matrix is shaped as [`L0Matrix::new`] builds one
    /// with `k` columns: `log n + 1 ≤ 64` rows of `k` counters, hash
    /// ranges and salts to match, every salt and counter in the field and
    /// each row occupancy equal to its row's nonzero count.  Updates and
    /// merges index and add by these without further checks.
    pub(crate) fn check(&self, k: u64) -> Result<(), serde::Error> {
        let words = |bytes: &[u8]| bytes.len() as u64 / 8;
        let rows = u64::from(self.log_n) + 1;
        let shaped = self.k == k
            && k.is_power_of_two()
            && self.log_n <= 63
            && self.h1.range() == 1u64 << self.log_n
            && self.h2.range() == k.saturating_pow(3).min(1u64 << 60)
            && self.h3.range() == k
            && self.h4.range() == k
            && words(self.salts) == k
            && words(self.row_nonzero) == rows
            && rows.checked_mul(k) == Some(words(self.counters));
        if !shaped {
            return Err(serde::Error::new(format!(
                "counter matrix shape differs from K = {k} with log n = {}",
                self.log_n
            )));
        }
        let p = self.field.modulus();
        let values = super::words(self.salts).chain(super::words(self.counters));
        if !(2..1u64 << 62).contains(&p) || values.fold(0, u64::max) >= p {
            return Err(serde::Error::new(format!(
                "counter matrix value outside the field of {p}"
            )));
        }
        let occupied = self
            .counters
            .chunks_exact(8 * k as usize)
            .map(|row| super::words(row).filter(|&c| c != 0).count() as u64);
        if !occupied.eq(super::words(self.row_nonzero)) {
            return Err(serde::Error::new(
                "counter matrix row occupancy differs from its counters",
            ));
        }
        Ok(())
    }

    /// Whether the view has `matrix`'s shape and draws (hashes, salts and
    /// prime): the draws of the same seed.
    pub(crate) fn same_draws(&self, matrix: &L0Matrix) -> bool {
        (self.h1, self.h2, self.h4, self.field) == (matrix.h1, matrix.h2, matrix.h4, matrix.field)
            && self.h3 == matrix.h3
            && super::words(self.salts).eq(matrix.salts.iter().copied())
            && (self.k, self.log_n) == (matrix.k, matrix.log_n)
    }

    /// The matrix a checked view encodes.
    pub(crate) fn materialise(self) -> L0Matrix {
        L0Matrix {
            h1: self.h1,
            h2: self.h2,
            h3: self.h3,
            h4: self.h4,
            salts: super::words(self.salts).collect(),
            field: self.field,
            counters: super::words(self.counters).collect(),
            row_nonzero: super::words(self.row_nonzero).collect(),
            k: self.k,
            log_n: self.log_n,
        }
    }
}

impl Deserialize for L0Matrix {
    /// Reads a matrix and checks it against the `K` it declares: the shape
    /// [`L0Matrix::new`] builds, values in the field and row occupancies
    /// that match the counters.
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let view = MatrixView::read(input)?;
        view.check(view.k)?;
        Ok(view.materialise())
    }
}

impl SpaceUsage for L0Matrix {
    fn space_bits(&self) -> u64 {
        let bits_per_counter = u64::from(ceil_log2(self.field.modulus()));
        self.counters.len() as u64 * bits_per_counter
            + self.salts.len() as u64 * bits_per_counter
            + self.h1.space_bits()
            + self.h2.space_bits()
            + self.h3.space_bits()
            + self.h4.space_bits()
            + self.row_nonzero.len() as u64 * 64
            + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(k: u64, seed: u64) -> L0Matrix {
        let mut rng = SplitMix64::new(seed);
        L0Matrix::new(1 << 20, k, 40, HashStrategy::default(), &mut rng)
    }

    #[test]
    fn geometry_is_as_configured() {
        let m = fresh(256, 1);
        assert_eq!(m.num_columns(), 256);
        assert_eq!(m.num_rows(), 21);
        assert!(m.prime() >= 100 * 256 * 40);
    }

    #[test]
    fn insertions_populate_rows_geometrically() {
        let mut m = fresh(1024, 2);
        for i in 0..20_000u64 {
            m.update(i, 1);
        }
        // Row 0 receives about half the items; occupancy should be high.
        assert!(m.row_occupancy(0) > 900);
        // Deep rows should be nearly empty.
        assert!(m.row_occupancy(15) <= 2);
    }

    #[test]
    fn full_cancellation_empties_the_matrix() {
        let mut m = fresh(256, 3);
        for i in 0..5_000u64 {
            m.update(i, 7);
        }
        assert!(m.total_nonzero() > 0);
        for i in 0..5_000u64 {
            m.update(i, -7);
        }
        assert_eq!(m.total_nonzero(), 0);
    }

    #[test]
    fn opposite_sign_items_do_not_cancel_each_other() {
        // The whole point of the F_p dot-product representation: +1 on item a
        // and −1 on item b landing in the same cell should (almost surely) not
        // cancel to zero, unlike a plain counter.
        // Lemma 6's analysis operates with O(K/20) surviving items per row;
        // keep the load in that regime (64 items, K = 1024 columns) so that a
        // colliding pair additionally needs an h4 salt collision to cancel.
        let mut false_negatives = 0;
        for seed in 0..40u64 {
            let mut m = fresh(1024, 1_000 + seed);
            for i in 0..64u64 {
                let sign = if i % 2 == 0 { 1 } else { -1 };
                m.update(i, sign);
            }
            // Compare against a sign-blind reference with identical hashes:
            // any row where the signed matrix shows fewer occupied cells lost
            // a cell to cancellation.
            let mut signless = fresh(1024, 1_000 + seed);
            for i in 0..64u64 {
                signless.update(i, 1);
            }
            for row in 0..m.num_rows() {
                if m.row_occupancy(row) < signless.row_occupancy(row) {
                    false_negatives += 1;
                }
            }
        }
        assert!(
            false_negatives <= 2,
            "{false_negatives} rows lost cells to sign cancellation"
        );
    }

    #[test]
    fn estimate_from_selected_row_tracks_l0() {
        let mut m = fresh(2048, 5);
        let l0 = 30_000u64;
        for i in 0..l0 {
            m.update(i, 1);
        }
        // Feed the selector a deliberately crude rough estimate (a quarter of
        // the truth) and check the row-based estimate is still in the right
        // ballpark.
        let row = m.select_row(l0 as f64 / 4.0);
        let est = m.estimate_from_row(row);
        let rel = (est - l0 as f64).abs() / l0 as f64;
        assert!(rel < 0.3, "row {row} estimate {est} rel error {rel}");
    }

    #[test]
    fn select_row_clamps_and_deepens() {
        let mut m = fresh(64, 6);
        // Saturate row 0 by inserting far more items than columns.
        for i in 0..5_000u64 {
            m.update(i, 1);
        }
        assert_eq!(m.select_row(0.5), m.select_row(0.0).max(m.select_row(0.5)));
        let row = m.select_row(1.0);
        assert!(
            (m.row_occupancy(row) as f64) < 0.95 * 64.0,
            "selected row {row} is still saturated"
        );
    }

    #[test]
    fn space_counts_counters_at_prime_width() {
        let m = fresh(128, 7);
        let bits_per_counter = u64::from(ceil_log2(m.prime()));
        assert!(m.space_bits() >= m.counters.len() as u64 * bits_per_counter);
        assert!(bits_per_counter < 64);
    }

    #[test]
    fn check_shape_accepts_built_matrices_and_refuses_forged_ones() {
        let check = |m: &L0Matrix, k: u64| {
            let bytes = serde::to_bytes(m);
            let view = MatrixView::read(&mut &bytes[..]).expect("parses");
            view.check(k).map_err(|err| err.to_string())
        };
        let mut m = fresh(64, 8);
        for i in 0..2_000u64 {
            m.update(i, 3);
        }
        assert_eq!(check(&m, 64), Ok(()));
        let refused = |forge: &dyn Fn(&mut L0Matrix), needle: &str| {
            let mut forged = m.clone();
            forge(&mut forged);
            let err = check(&forged, 64).expect_err("forged matrix accepted");
            assert!(err.contains(needle), "{err} lacks {needle:?}");
        };
        refused(&|f| f.k = 32, "shape");
        refused(&|f| f.log_n = 64, "shape");
        refused(&|f| f.log_n -= 1, "shape");
        refused(&|f| f.counters.truncate(1), "shape");
        refused(&|f| f.salts.truncate(1), "shape");
        refused(&|f| f.row_nonzero.push(0), "shape");
        refused(
            &|f| f.h4 = PairwiseHash::random(32, &mut SplitMix64::new(1)),
            "shape",
        );
        refused(&|f| f.counters[5] = f.field.modulus(), "outside the field");
        refused(&|f| f.salts[0] = u64::MAX, "outside the field");
        refused(&|f| f.row_nonzero[0] += 1, "occupancy");
        assert!(check(&m, 128).is_err());
    }
}
