//! Property tests pinning the batched-kernel contract: for every hash family,
//! the eight-lane batched evaluation is **bit-identical** to eight per-key
//! evaluations — not merely statistically equivalent — so any batch kernel
//! that diverges from the normative per-key path fails here.

use knw_hash::rng::SplitMix64;
use knw_hash::uniform::{BucketHash, HashStrategy};
use knw_hash::{KWiseHash, PairwiseHash, SimpleTabulation, TwistedTabulation, LANES};
use proptest::prelude::*;

/// Ranges worth exercising: powers of two (mask reduction), non-powers of two
/// (modulo / multiply-shift reduction), and the degenerate range 1.
fn range_from(selector: u64) -> u64 {
    const RANGES: [u64; 8] = [1, 2, 7, 64, 1000, 1 << 20, (1 << 24) - 59, 1 << 40];
    RANGES[(selector % RANGES.len() as u64) as usize]
}

fn lanes_from(keys: &[u64]) -> [u64; LANES] {
    let mut xs = [0u64; LANES];
    for (lane, &k) in xs.iter_mut().zip(keys) {
        *lane = k;
    }
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pairwise_batch_matches_per_key(
        seed in any::<u64>(),
        range_sel in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut rng = SplitMix64::new(seed);
        let h = PairwiseHash::random(range_from(range_sel), &mut rng);
        let xs = lanes_from(&keys);
        let full = h.hash_full_batch(&xs);
        let reduced = h.hash_batch(&xs);
        for i in 0..LANES {
            prop_assert_eq!(full[i], h.hash_full(xs[i]));
            prop_assert_eq!(reduced[i], h.hash(xs[i]));
        }
    }

    #[test]
    fn kwise_batch_matches_per_key(
        seed in any::<u64>(),
        k in 1usize..12,
        range_sel in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut rng = SplitMix64::new(seed);
        let h = KWiseHash::random(k, range_from(range_sel), &mut rng);
        let xs = lanes_from(&keys);
        let full = h.hash_full_batch(&xs);
        let reduced = h.hash_batch(&xs);
        for i in 0..LANES {
            prop_assert_eq!(full[i], h.hash_full(xs[i]));
            prop_assert_eq!(reduced[i], h.hash(xs[i]));
        }
    }

    #[test]
    fn simple_tabulation_batch_matches_per_key(
        seed in any::<u64>(),
        range_sel in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut rng = SplitMix64::new(seed);
        let h = SimpleTabulation::random(range_from(range_sel), &mut rng);
        let xs = lanes_from(&keys);
        let full = h.hash_full_batch(&xs);
        let reduced = h.hash_batch(&xs);
        for i in 0..LANES {
            prop_assert_eq!(full[i], h.hash_full(xs[i]));
            prop_assert_eq!(reduced[i], h.hash(xs[i]));
        }
    }

    #[test]
    fn twisted_tabulation_batch_matches_per_key(
        seed in any::<u64>(),
        range_sel in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut rng = SplitMix64::new(seed);
        let h = TwistedTabulation::random(range_from(range_sel), &mut rng);
        let xs = lanes_from(&keys);
        let full = h.hash_full_batch(&xs);
        let reduced = h.hash_batch(&xs);
        for i in 0..LANES {
            prop_assert_eq!(full[i], h.hash_full(xs[i]));
            prop_assert_eq!(reduced[i], h.hash(xs[i]));
        }
    }

    #[test]
    fn bucket_hash_batch_matches_per_key_both_strategies(
        seed in any::<u64>(),
        k in 2usize..10,
        range_sel in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let xs = lanes_from(&keys);
        for strategy in [HashStrategy::PolynomialKWise, HashStrategy::Tabulation] {
            let mut rng = SplitMix64::new(seed);
            let h = BucketHash::random(strategy, k, range_from(range_sel), &mut rng);
            let reduced = h.hash_batch(&xs);
            for i in 0..LANES {
                prop_assert_eq!(reduced[i], h.hash(xs[i]), "strategy {:?}", strategy);
            }
        }
    }
}
