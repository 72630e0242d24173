//! Exactly `k`-wise independent Carter–Wegman polynomial hashing.
//!
//! Section 1.2 of the paper defines `H_k(U, V)` as a `k`-wise independent hash
//! family mapping `U` into `V`, representable in `O(k·log(|U| + |V|))` bits and
//! evaluable in `O(k)` word operations (the classic construction of Carter and
//! Wegman \[11\]).  The main F0 algorithm instantiates
//! `h3 ∈ H_k([K³], [K])` with `k = Θ(log(1/ε)/log log(1/ε))`, and the
//! balls-and-bins analysis (Lemma 2) only requires `2(k+1)`-wise independence.
//!
//! Construction: a uniformly random polynomial of degree `k − 1` over the
//! Mersenne field `GF(2^61 − 1)`, composed with a reduction onto the output
//! range.  When the output range `V = [v]` has power-of-two size the reduction
//! keeps the low `log v` bits, which preserves exact `k`-wise independence up
//! to the negligible bias `|field| mod v / |field|` (< 2⁻⁴⁰ for every range
//! used here); a modulo reduction is available for non-power-of-two ranges.

use crate::prime_field::Mersenne61;
use crate::rng::Rng64;
use crate::{check_decoded, SpaceUsage, LANES};
use serde::{Deserialize, Error};

/// A hash function drawn from an exactly `k`-wise independent family.
///
/// The function maps `u64` keys to values in `[0, range)`.  The wire layout
/// is the derived one (coefficients, `range`, the power-of-two flag);
/// decoding refuses what [`random`](Self::random) cannot draw.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct KWiseHash {
    /// Polynomial coefficients over `GF(2^61 − 1)`, degree `k − 1`, c[0] is the
    /// constant term.
    coeffs: Vec<u64>,
    /// Output range size.
    range: u64,
    /// Whether `range` is a power of two (mask reduction) or not (mod).
    range_is_pow2: bool,
}

impl KWiseHash {
    /// Draws a random member of the `k`-wise independent family with outputs in
    /// `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `range == 0` or `range > 2^61 − 1`.
    #[must_use]
    pub fn random<R: Rng64 + ?Sized>(k: usize, range: u64, rng: &mut R) -> Self {
        assert!(k >= 1, "independence parameter k must be >= 1");
        assert!(range >= 1, "output range must be nonempty");
        assert!(
            range <= Mersenne61::P,
            "output range must not exceed the field size"
        );
        let mut coeffs: Vec<u64> = (0..k).map(|_| rng.next_below(Mersenne61::P)).collect();
        // A zero leading coefficient merely lowers the polynomial degree, which
        // is harmless for independence, but keeping it nonzero matches the
        // textbook construction and slightly improves distribution for tiny k.
        if k > 1 && coeffs[k - 1] == 0 {
            coeffs[k - 1] = 1 + rng.next_below(Mersenne61::P - 1);
        }
        Self {
            coeffs,
            range,
            range_is_pow2: range.is_power_of_two(),
        }
    }

    /// The independence parameter `k` of the family this function was drawn
    /// from (the number of stored coefficients).
    #[must_use]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The size of the output range `[0, range)`.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluates the hash on `x`, producing a value in `[0, range)`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        let y = Mersenne61::poly_eval(&self.coeffs, x);
        if self.range_is_pow2 {
            y & (self.range - 1)
        } else {
            y % self.range
        }
    }

    /// Evaluates the hash and returns the full field element before range
    /// reduction.  Useful when a caller needs more output entropy (e.g. to
    /// derive both a level and a bucket from one evaluation in tests).
    #[inline]
    #[must_use]
    pub fn hash_full(&self, x: u64) -> u64 {
        Mersenne61::poly_eval(&self.coeffs, x)
    }

    /// Evaluates [`hash_full`](Self::hash_full) on eight keys at once,
    /// bit-identical to eight per-key calls (see the crate docs on the
    /// batched-kernel contract).
    #[inline]
    #[must_use]
    pub fn hash_full_batch(&self, xs: &[u64; LANES]) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.hash_full(x);
        }
        out
    }

    /// Evaluates [`hash`](Self::hash) on eight keys at once, bit-identical to
    /// eight per-key calls.
    #[inline]
    #[must_use]
    pub fn hash_batch(&self, xs: &[u64; LANES]) -> [u64; LANES] {
        let mut out = self.hash_full_batch(xs);
        if self.range_is_pow2 {
            let mask = self.range - 1;
            for o in &mut out {
                *o &= mask;
            }
        } else {
            for o in &mut out {
                *o %= self.range;
            }
        }
        out
    }
}

impl Deserialize for KWiseHash {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let coeffs = Vec::<u64>::deserialize(input)?;
        let range = u64::deserialize(input)?;
        let range_is_pow2 = bool::deserialize(input)?;
        check_decoded(&coeffs, range, range_is_pow2)?;
        if coeffs.is_empty() {
            return Err(Error::new("k-wise hash with no coefficients"));
        }
        Ok(Self {
            coeffs,
            range,
            range_is_pow2,
        })
    }
}

impl SpaceUsage for KWiseHash {
    fn space_bits(&self) -> u64 {
        // k coefficients of ⌈log2 p⌉ = 61 bits each, plus the range.
        self.coeffs.len() as u64 * 61 + 64
    }
}

/// Convenience builder that fixes `(k, range)` and draws many independent
/// functions, as the median-amplified estimators do.
#[derive(Debug, Clone, Copy)]
pub struct KWiseHashBuilder {
    k: usize,
    range: u64,
}

impl KWiseHashBuilder {
    /// Creates a builder for a `k`-wise family with outputs in `[0, range)`.
    #[must_use]
    pub fn new(k: usize, range: u64) -> Self {
        Self { k, range }
    }

    /// Draws one function from the family.
    #[must_use]
    pub fn build<R: Rng64 + ?Sized>(&self, rng: &mut R) -> KWiseHash {
        KWiseHash::random(self.k, self.range, rng)
    }

    /// The independence parameter this builder uses.
    #[must_use]
    pub fn independence(&self) -> usize {
        self.k
    }
}

/// The independence the paper requires of `h3` for a given number of bins `K`
/// and accuracy `ε`: `k = Θ(log(K/ε)/log log(K/ε))` (Lemma 2).
///
/// We use the explicit constant 1 for the leading factor and clamp to at least
/// 2; at the scales exercised here (`K ≤ 2^20`) this yields `k` in the 4–16
/// range, exactly the regime the paper targets.
#[must_use]
pub fn independence_for(k_bins: u64, epsilon: f64) -> usize {
    let ratio = (k_bins.max(2) as f64 / epsilon.max(1e-9)).max(4.0);
    let l = ratio.ln();
    let ll = l.ln().max(1.0);
    ((l / ll).ceil() as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The hand-written decoder reads the derived layout: the coefficient
    /// count and coefficients, `range` (little-endian `u64`s), then the
    /// power-of-two flag byte.
    #[test]
    fn wire_bytes_are_pinned() {
        for range in [1_000u64, 1 << 20] {
            let h = KWiseHash::random(4, range, &mut SplitMix64::new(21));
            let mut expected = (h.coeffs.len() as u64).to_le_bytes().to_vec();
            for word in h.coeffs.iter().chain([&range]) {
                expected.extend_from_slice(&word.to_le_bytes());
            }
            expected.push(u8::from(range.is_power_of_two()));
            assert_eq!(serde::to_bytes(&h), expected);
            assert_eq!(serde::from_bytes::<KWiseHash>(&expected), Ok(h));
        }
    }

    #[test]
    fn forged_parameters_are_refused() {
        let good = KWiseHash::random(3, 1_000, &mut SplitMix64::new(22));
        let with = |edit: fn(&mut KWiseHash)| {
            let mut hash = good.clone();
            edit(&mut hash);
            hash
        };
        let forged = [
            with(|h| h.range = 0),
            with(|h| h.range = Mersenne61::P + 1),
            with(|h| h.coeffs.clear()),
            with(|h| h.coeffs[1] = Mersenne61::P),
            with(|h| h.range_is_pow2 = true),
            with(|h| h.range = 1 << 10),
        ];
        for hash in forged {
            let bytes = serde::to_bytes(&hash);
            assert!(
                serde::from_bytes::<KWiseHash>(&bytes).is_err(),
                "{hash:?} decoded"
            );
        }
    }

    #[test]
    fn outputs_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for &range in &[1u64, 2, 7, 64, 1000, 1 << 20] {
            let h = KWiseHash::random(5, range, &mut rng);
            for x in 0..2000u64 {
                assert!(h.hash(x) < range);
            }
        }
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let mut r1 = SplitMix64::new(9);
        let mut r2 = SplitMix64::new(9);
        let h1 = KWiseHash::random(6, 1 << 12, &mut r1);
        let h2 = KWiseHash::random(6, 1 << 12, &mut r2);
        for x in 0..500u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
    }

    #[test]
    fn different_draws_differ() {
        let mut rng = SplitMix64::new(10);
        let h1 = KWiseHash::random(4, 1 << 16, &mut rng);
        let h2 = KWiseHash::random(4, 1 << 16, &mut rng);
        let disagreements = (0..1000u64).filter(|&x| h1.hash(x) != h2.hash(x)).count();
        assert!(disagreements > 900);
    }

    #[test]
    fn uniformity_chi_square_sanity() {
        // With 2^4 = 16 buckets and 16_000 keys, each bucket expects 1000.
        // A crude chi-square bound: statistic should be far below 3x dof.
        let mut rng = SplitMix64::new(77);
        let buckets = 16u64;
        let h = KWiseHash::random(8, buckets, &mut rng);
        let n = 16_000u64;
        let mut counts = vec![0u64; buckets as usize];
        for x in 0..n {
            counts[h.hash(x) as usize] += 1;
        }
        let expect = (n / buckets) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        assert!(chi2 < 45.0, "chi2 = {chi2} too large for 15 dof");
    }

    #[test]
    fn pairwise_collision_rate_matches_expectation() {
        // For a 2-wise family into K buckets, Pr[h(x) = h(y)] ≈ 1/K.
        let mut rng = SplitMix64::new(5);
        let k_bins = 256u64;
        let h = KWiseHash::random(2, k_bins, &mut rng);
        let mut collisions = 0u64;
        let pairs = 20_000u64;
        for i in 0..pairs {
            let x = 2 * i;
            let y = 2 * i + 1;
            if h.hash(x) == h.hash(y) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / pairs as f64;
        assert!(
            rate < 3.0 / k_bins as f64 + 0.005,
            "collision rate {rate} too high"
        );
    }

    #[test]
    fn space_accounting_scales_with_k() {
        let mut rng = SplitMix64::new(2);
        let h4 = KWiseHash::random(4, 1 << 10, &mut rng);
        let h8 = KWiseHash::random(8, 1 << 10, &mut rng);
        assert!(h8.space_bits() > h4.space_bits());
        assert_eq!(h4.space_bits(), 4 * 61 + 64);
    }

    #[test]
    fn builder_produces_independent_functions() {
        let builder = KWiseHashBuilder::new(3, 128);
        let mut rng = SplitMix64::new(21);
        let a = builder.build(&mut rng);
        let b = builder.build(&mut rng);
        assert_eq!(a.independence(), 3);
        assert_eq!(b.range(), 128);
        assert!((0..200u64).any(|x| a.hash(x) != b.hash(x)));
    }

    #[test]
    fn independence_for_is_in_papers_regime() {
        // K = 1/ε² with ε = 0.1 → K = 100; k should be small (< 20) but ≥ 2.
        let k = independence_for(100, 0.1);
        assert!((2..=20).contains(&k), "k = {k}");
        // Larger K/ε should not reduce the independence requirement.
        assert!(independence_for(1 << 20, 0.01) >= k);
    }

    #[test]
    fn range_one_maps_everything_to_zero() {
        let mut rng = SplitMix64::new(4);
        let h = KWiseHash::random(3, 1, &mut rng);
        for x in 0..100u64 {
            assert_eq!(h.hash(x), 0);
        }
    }

    #[test]
    fn hash_full_is_consistent_with_hash() {
        let mut rng = SplitMix64::new(8);
        let h = KWiseHash::random(5, 1 << 10, &mut rng);
        for x in 0..200u64 {
            assert_eq!(h.hash(x), h.hash_full(x) & ((1 << 10) - 1));
        }
    }
}
