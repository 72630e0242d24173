//! Seeded input generators.  Every workload derives its inputs from the
//! run's `--seed` through these functions, before any timing starts.

use knw_hash::rng::{mix64, Rng64, Xoshiro256StarStar};
use knw_stream::{StreamGenerator, ZipfGenerator};

/// A per-purpose seed: distinct streams of one run never share a state.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_add(0x5EED)))
}

/// `len` uniform draws from `[0, universe)`.
pub fn uniform(len: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..len).map(|_| rng.next_below(universe)).collect()
}

/// The turnstile churn stream of the engine bench, seeded: ~512
/// concurrently open items, each taking 12 signed updates over its burst,
/// 60% then deleted outright.
pub fn churn(len: usize, universe: u64, seed: u64) -> Vec<(u64, i64)> {
    const OPEN: usize = 512;
    const TOUCHES: u32 = 12;
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut open: Vec<(u64, i64, u32)> = (0..OPEN)
        .map(|_| (rng.next_below(universe), 0, 0))
        .collect();
    while out.len() < len {
        let idx = rng.next_below(OPEN as u64) as usize;
        let (item, sum, touches) = open[idx];
        if touches >= TOUCHES {
            if rng.next_below(10) < 6 && sum != 0 {
                out.push((item, -sum));
            }
            open[idx] = (rng.next_below(universe), 0, 0);
        } else {
            let delta = match rng.next_below(9) as i64 - 4 {
                0 => 1,
                delta => delta,
            };
            out.push((item, delta));
            open[idx] = (item, sum + delta, touches + 1);
        }
    }
    out
}

/// `len` keyed updates `(key, item)`: keys Zipf(`skew`) over `keys` ranked
/// keys (knw-stream's generator, seeded by `key_seed`), items uniform over
/// `items` (seeded by `item_seed`).
pub fn keyed_zipf(
    len: usize,
    keys: u64,
    skew: f64,
    items: u64,
    key_seed: u64,
    item_seed: u64,
) -> Vec<(u64, u64)> {
    let mut key_gen = ZipfGenerator::new(keys, skew, derive(key_seed, 1));
    let mut item_rng = Xoshiro256StarStar::new(derive(item_seed, 2));
    (0..len)
        .map(|_| (key_gen.next_item(), item_rng.next_below(items)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_seeded_and_in_range() {
        let a = uniform(10_000, 1 << 24, 1);
        assert_eq!(a, uniform(10_000, 1 << 24, 1));
        assert_ne!(a, uniform(10_000, 1 << 24, 2));
        assert!(a.iter().all(|&x| x < 1 << 24));
    }

    #[test]
    fn churn_is_seeded_and_signed() {
        let a = churn(50_000, 1 << 24, 1);
        assert_eq!(a.len(), 50_000);
        assert_eq!(a, churn(50_000, 1 << 24, 1));
        assert_ne!(a, churn(50_000, 1 << 24, 2));
        assert!(a.iter().all(|&(item, delta)| item < 1 << 24 && delta != 0));
        assert!(a.iter().any(|&(_, delta)| delta < 0));
        // Closed bursts cancel: some items end with a zero net count.
        let mut net = std::collections::HashMap::new();
        for &(item, delta) in &a {
            *net.entry(item).or_insert(0i64) += delta;
        }
        assert!(net.values().any(|&v| v == 0) && net.values().any(|&v| v != 0));
    }

    #[test]
    fn keyed_zipf_is_seeded_and_skewed() {
        let a = keyed_zipf(20_000, 1_000_000, 1.05, 1 << 20, 1, 1);
        assert_eq!(a, keyed_zipf(20_000, 1_000_000, 1.05, 1 << 20, 1, 1));
        let other_items = keyed_zipf(20_000, 1_000_000, 1.05, 1 << 20, 1, 2);
        let other_keys = keyed_zipf(20_000, 1_000_000, 1.05, 1 << 20, 2, 1);
        assert!(
            a.iter().zip(&other_items).all(|(x, y)| x.0 == y.0),
            "the item seed leaves the key stream alone"
        );
        assert_ne!(a, other_items);
        assert_ne!(
            a.iter().map(|p| p.0).collect::<Vec<_>>(),
            other_keys.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        let mut counts = std::collections::HashMap::new();
        for &(key, item) in &a {
            assert!(key < 1_000_000 && item < 1 << 20);
            *counts.entry(key).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().expect("nonempty");
        assert!(
            hottest > 20_000 / 50,
            "the top key takes a few percent of updates"
        );
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_per_seed() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(3, 4), derive(3, 4));
    }
}
