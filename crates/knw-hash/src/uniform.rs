//! The bucket hash `h3` and the strategy switch between the provably `k`-wise
//! independent family and the fast tabulation family.
//!
//! The paper needs, for the bucket hash `h3 : [K³] → [K]`:
//!
//! * in the space-optimal description (Figure 3): `k`-wise independence with
//!   `k = Θ(log(1/ε)/log log(1/ε))` (Lemma 2/3 drive the analysis);
//! * in the time-optimal implementation (Section 3.4): `O(1)` evaluation via
//!   Siegel's family (Theorem 7), and for RoughEstimator `h3^j` uniformity on
//!   an unknown set of `≤ 2·K_RE` keys via Pagh–Pagh (Theorem 6).
//!
//! [`BucketHash`] packages both options behind one enum so the sketches can be
//! configured either way, and the ablation experiment E15 (knw-bench's
//! `hash_ablation`) compares them.  The default is the Carter–Wegman `k`-wise family, i.e. the
//! configuration whose correctness follows verbatim from the paper's lemmas.

use crate::kwise::KWiseHash;
use crate::rng::Rng64;
use crate::tabulation::TwistedTabulation;
use crate::{SpaceUsage, LANES};

/// Which construction backs the high-independence bucket hash `h3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum HashStrategy {
    /// Carter–Wegman polynomial, exactly `k`-wise independent, `O(k)` evaluation.
    ///
    /// This matches the hypotheses of Lemma 2/Lemma 3 exactly and is the
    /// default.
    #[default]
    PolynomialKWise,
    /// Twisted tabulation, `O(1)` evaluation, Chernoff-style concentration.
    ///
    /// This is the practical stand-in for Siegel/Pagh–Pagh (Theorems 6–7); see
    /// the [`crate::tabulation`] module docs for why the substitution
    /// preserves the behaviour the analysis needs.
    Tabulation,
}

/// The bucket hash `h3 : [u] → [K]`, drawn according to a [`HashStrategy`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BucketHash {
    /// Carter–Wegman polynomial variant.
    Poly(KWiseHash),
    /// Twisted-tabulation variant.
    Tab(TwistedTabulation),
}

impl BucketHash {
    /// Draws a bucket hash with outputs in `[0, range)` using `strategy`.
    ///
    /// `independence` is the `k` used by the polynomial variant (ignored by the
    /// tabulation variant, which has fixed evaluation cost).
    #[must_use]
    pub fn random<R: Rng64 + ?Sized>(
        strategy: HashStrategy,
        independence: usize,
        range: u64,
        rng: &mut R,
    ) -> Self {
        match strategy {
            HashStrategy::PolynomialKWise => {
                BucketHash::Poly(KWiseHash::random(independence, range, rng))
            }
            HashStrategy::Tabulation => BucketHash::Tab(TwistedTabulation::random(range, rng)),
        }
    }

    /// Evaluates the hash, producing a value in `[0, range)`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        match self {
            BucketHash::Poly(h) => h.hash(x),
            BucketHash::Tab(h) => h.hash(x),
        }
    }

    /// Evaluates [`hash`](Self::hash) on eight keys at once, bit-identical to
    /// eight per-key calls (see the crate docs on the batched-kernel contract).
    #[inline]
    #[must_use]
    pub fn hash_batch(&self, xs: &[u64; LANES]) -> [u64; LANES] {
        match self {
            BucketHash::Poly(h) => h.hash_batch(xs),
            BucketHash::Tab(h) => h.hash_batch(xs),
        }
    }

    /// The size of the output range.
    #[must_use]
    pub fn range(&self) -> u64 {
        match self {
            BucketHash::Poly(h) => h.range(),
            BucketHash::Tab(h) => h.range(),
        }
    }

    /// The strategy this hash was built with.
    #[must_use]
    pub fn strategy(&self) -> HashStrategy {
        match self {
            BucketHash::Poly(_) => HashStrategy::PolynomialKWise,
            BucketHash::Tab(_) => HashStrategy::Tabulation,
        }
    }
}

impl SpaceUsage for BucketHash {
    fn space_bits(&self) -> u64 {
        match self {
            BucketHash::Poly(h) => h.space_bits(),
            BucketHash::Tab(h) => h.space_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn both_strategies_respect_range() {
        let mut rng = SplitMix64::new(1);
        for strategy in [HashStrategy::PolynomialKWise, HashStrategy::Tabulation] {
            let h = BucketHash::random(strategy, 6, 128, &mut rng);
            assert_eq!(h.range(), 128);
            assert_eq!(h.strategy(), strategy);
            for x in 0..2000u64 {
                assert!(h.hash(x) < 128);
            }
        }
    }

    #[test]
    fn default_strategy_is_polynomial() {
        assert_eq!(HashStrategy::default(), HashStrategy::PolynomialKWise);
    }

    #[test]
    fn strategies_produce_different_functions() {
        let mut rng = SplitMix64::new(2);
        let a = BucketHash::random(HashStrategy::PolynomialKWise, 4, 1 << 12, &mut rng);
        let b = BucketHash::random(HashStrategy::Tabulation, 4, 1 << 12, &mut rng);
        assert!((0..500u64).any(|x| a.hash(x) != b.hash(x)));
    }

    #[test]
    fn occupancy_matches_balls_and_bins_expectation() {
        // Throw A = K/2 distinct keys into K bins; the expected number of
        // occupied bins is K(1 - (1 - 1/K)^A) ≈ 0.3935·K.  Both strategies
        // should land near that value — this is precisely the property the F0
        // estimator relies on.
        let mut rng = SplitMix64::new(33);
        let k_bins = 1024u64;
        let balls = k_bins / 2;
        for strategy in [HashStrategy::PolynomialKWise, HashStrategy::Tabulation] {
            let h = BucketHash::random(strategy, 8, k_bins, &mut rng);
            let mut occupied = vec![false; k_bins as usize];
            for x in 0..balls {
                occupied[h.hash(x * 7_919) as usize] = true;
            }
            let t = occupied.iter().filter(|&&b| b).count() as f64;
            let expect = k_bins as f64 * (1.0 - (1.0 - 1.0 / k_bins as f64).powi(balls as i32));
            assert!(
                (t - expect).abs() < expect * 0.1,
                "{strategy:?}: occupied {t}, expected {expect}"
            );
        }
    }

    #[test]
    fn space_differs_between_strategies() {
        let mut rng = SplitMix64::new(5);
        let poly = BucketHash::random(HashStrategy::PolynomialKWise, 6, 256, &mut rng);
        let tab = BucketHash::random(HashStrategy::Tabulation, 6, 256, &mut rng);
        // Tabulation trades space for time; the polynomial family is far smaller.
        assert!(poly.space_bits() < tab.space_bits());
    }
}
