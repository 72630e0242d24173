//! Deterministic pseudo-random number generators.
//!
//! The paper's algorithms are randomized: they "pick a random `h ∈ H_k(U, V)`"
//! (Section 1.2).  For a reproducible experimental harness we need those
//! choices to be deterministic functions of a seed.  We implement two small,
//! well-studied generators rather than depending on the `rand` crate from the
//! core library crates:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer.  Every output is a
//!   bijective mix of a counter, so it is ideal for turning one seed into many
//!   independent-looking sub-seeds (hash coefficients, table entries, …).
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's general-purpose generator,
//!   used where longer streams of pseudo-random words are consumed (workload
//!   generation, Monte-Carlo experiments).
//!
//! Neither generator is cryptographic; neither needs to be.  The adversary in
//! the streaming model is oblivious to the algorithm's coins.

/// A source of uniformly distributed 64-bit words.
///
/// This is the only randomness interface used throughout the workspace.  It is
/// object-safe so that generators can be swapped at run time (e.g. the
/// benchmark harness reuses one master generator to derive per-trial seeds).
pub trait Rng64 {
    /// Returns the next pseudo-random 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Returns a pseudo-random value uniform on `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which avoids the modulo
    /// bias of naive `% bound` while performing a single multiplication in the
    /// common case.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire's method: interpret next_u64 as a fixed-point fraction and
        // multiply by the bound, rejecting the small biased sliver.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a pseudo-random value uniform on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "next_in_range requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Returns a pseudo-random `f64` uniform on `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a pseudo-random boolean that is `true` with probability `p`.
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// SplitMix64: a tiny, fast, statistically solid 64-bit generator.
///
/// Each call advances an internal counter by a fixed odd constant and applies
/// a finalizing mix.  Because the mix is a bijection, distinct counters yield
/// distinct outputs, which makes SplitMix64 particularly suitable for deriving
/// families of sub-seeds from a master seed.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent-looking child generator.
    ///
    /// The child is seeded from the parent's next output mixed with `salt`,
    /// so `split(0)`, `split(1)`, … produce unrelated streams.  This is how
    /// the sketches derive the seeds for `h1`, `h2`, `h3`, … from a single
    /// user-provided seed.
    #[must_use]
    pub fn split(&mut self, salt: u64) -> SplitMix64 {
        let s = self.next_u64() ^ mix64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64::new(s)
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mix.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical hash-affine shard assignment: every occurrence of `key`
/// lands on the same shard, `shards` is clamped to at least one, and a seed
/// of zero reduces to plain `mix64(key) % shards`.
///
/// This is the *single* definition of "which shard owns this item" shared by
/// the stream-partition helpers (`knw-stream`), the in-process shard router
/// (`knw-engine`) and the multi-process aggregator (`knw-cluster`), so
/// experiments that pre-partition a stream reproduce exactly the shard
/// contents the routers produce.
#[inline]
#[must_use]
pub fn shard_for_key(seed: u64, key: u64, shards: usize) -> usize {
    (mix64(key ^ seed) % shards.max(1) as u64) as usize
}

/// The epoched (linear-hashing) shard assignment used by elastic fleets:
/// deterministic in `(seed, key, shards)`, equal to [`shard_for_key`]
/// whenever `shards` is a power of two, and a *refinement* under growth:
/// going from `n` to `n + 1` shards moves keys **only** from shard
/// [`split_parent`]`(n)` to the new shard `n`; every other key keeps its
/// shard.  A grow moves no history, so exactness does not rest on this;
/// moving the fewest keys keeps each key's worker, which is what
/// hash-affine routing is for.
///
/// The construction is classic linear hashing: hash into the next power of
/// two `p ≥ shards`, and fold the not-yet-split top half back onto its
/// buddy (`s - p/2`) when the hashed slot does not exist yet.
///
/// [`shard_for_key`] stays the only hash site; this function only decides
/// how the hashed slot folds onto the live shard range.
#[inline]
#[must_use]
pub fn epoch_shard_for_key(seed: u64, key: u64, shards: usize) -> usize {
    let shards = shards.max(1);
    let p = shards.next_power_of_two();
    let s = shard_for_key(seed, key, p);
    if s >= shards {
        s - p / 2
    } else {
        s
    }
}

/// The shard that splits when the fleet grows from `shards` to
/// `shards + 1`: under [`epoch_shard_for_key`] the new shard `shards`
/// receives keys only from `split_parent(shards)`, and each key either
/// stays on the parent or moves to the new shard — nothing else changes.
///
/// # Panics
///
/// Panics if `shards == 0` (shard 0 has no parent).
#[inline]
#[must_use]
pub fn split_parent(shards: usize) -> usize {
    assert!(shards > 0, "shard 0 has no split parent");
    shards - (shards + 1).next_power_of_two() / 2
}

/// xoshiro256**: a fast general-purpose generator with a 256-bit state.
///
/// Used where long streams of pseudo-random words are consumed, e.g. the
/// synthetic workload generators in `knw-stream`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64 as
    /// recommended by the xoshiro authors.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // A state of all zeros is invalid; SplitMix64 output of a fixed seed
        // is never all-zero across four consecutive draws.
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Jumps the generator forward by 2^128 steps, producing a stream that will
    /// never overlap the parent's next 2^128 outputs.  Useful for carving one
    /// seed into many long independent streams across experiment trials.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }
}

impl Rng64 for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference values for seed 1234567, from the public-domain SplitMix64
        // reference implementation.
        let mut rng = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..100).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn split_produces_distinct_streams() {
        let mut master = SplitMix64::new(7);
        let mut c1 = master.split(0);
        let mut c2 = master.split(1);
        let s1: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn next_below_is_in_range_and_covers_values() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    fn next_below_one_is_always_zero() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            assert_eq!(rng.next_below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::new(5);
        let _ = rng.next_below(0);
    }

    #[test]
    fn next_in_range_bounds() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..1000 {
            let v = rng.next_in_range(100, 200);
            assert!((100..200).contains(&v));
        }
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_roughly_half() {
        let mut rng = Xoshiro256StarStar::new(17);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn xoshiro_is_deterministic_and_nonzero() {
        let mut a = Xoshiro256StarStar::new(123);
        let mut b = Xoshiro256StarStar::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Not all outputs are zero.
        let mut c = Xoshiro256StarStar::new(0);
        assert!((0..8).any(|_| c.next_u64() != 0));
    }

    #[test]
    fn xoshiro_jump_changes_stream() {
        let mut a = Xoshiro256StarStar::new(5);
        let mut b = a.clone();
        b.jump();
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn next_bool_probability_is_respected() {
        let mut rng = SplitMix64::new(2024);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| rng.next_bool(0.25)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "empirical {frac} far from 0.25");
    }

    #[test]
    fn mix64_is_injective_on_small_sample() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn shard_for_key_is_stable_balanced_and_seed_sensitive() {
        // Stability: the same (seed, key) always maps to the same shard, and
        // seed 0 reduces to the historical `mix64(key) % shards` assignment.
        for key in 0..1_000u64 {
            assert_eq!(shard_for_key(0, key, 4), (mix64(key) % 4) as usize);
            assert_eq!(shard_for_key(9, key, 7), shard_for_key(9, key, 7));
        }
        // Degenerate shard counts are clamped rather than dividing by zero.
        assert_eq!(shard_for_key(1, 42, 0), 0);
        // Rough balance across shards.
        let mut counts = [0usize; 4];
        for key in 0..8_000u64 {
            counts[shard_for_key(7, key, 4)] += 1;
        }
        for &c in &counts {
            assert!((1_500..=2_500).contains(&c), "imbalanced: {counts:?}");
        }
        // Different seeds give different partitions.
        let moved = (0..1_000u64)
            .filter(|&k| shard_for_key(1, k, 4) != shard_for_key(2, k, 4))
            .count();
        assert!(moved > 500, "only {moved} keys moved between seeds");
    }

    #[test]
    fn epoch_shard_matches_plain_shard_at_powers_of_two() {
        // At power-of-two shard counts the fold is a no-op, so every
        // pre-epoch partition (2- and 4-worker fleets, the historical
        // tests) is reproduced bit-for-bit.
        for shards in [1usize, 2, 4, 8, 16] {
            for key in 0..2_000u64 {
                for seed in [0u64, 7, 4242] {
                    assert_eq!(
                        epoch_shard_for_key(seed, key, shards),
                        shard_for_key(seed, key, shards),
                        "pow-2 equivalence broke at {shards} shards"
                    );
                }
            }
        }
        // Degenerate shard counts clamp like the plain assignment.
        assert_eq!(epoch_shard_for_key(1, 42, 0), 0);
    }

    #[test]
    fn epoch_growth_is_a_refinement() {
        // Growing n -> n+1 moves keys only from split_parent(n) to the new
        // shard n; every other key keeps its shard.
        for n in 1usize..32 {
            let parent = split_parent(n);
            assert!(parent < n, "parent {parent} out of range for {n} shards");
            for key in 0..2_000u64 {
                for seed in [0u64, 9, 77] {
                    let before = epoch_shard_for_key(seed, key, n);
                    let after = epoch_shard_for_key(seed, key, n + 1);
                    if after == before {
                        continue;
                    }
                    assert_eq!(
                        (before, after),
                        (parent, n),
                        "non-refining move at {n} -> {} shards",
                        n + 1
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_split_parent_chain() {
        assert_eq!(split_parent(1), 0);
        assert_eq!(split_parent(2), 0);
        assert_eq!(split_parent(3), 1);
        assert_eq!(split_parent(4), 0);
        assert_eq!(split_parent(5), 1);
        assert_eq!(split_parent(6), 2);
        assert_eq!(split_parent(7), 3);
        assert_eq!(split_parent(8), 0);
    }

    #[test]
    fn epoch_shard_is_roughly_balanced_off_powers_of_two() {
        // Folded (not-yet-split) shards carry double weight — that is the
        // linear-hashing trade — but no shard is empty or wildly skewed.
        let mut counts = [0usize; 6];
        for key in 0..12_000u64 {
            counts[epoch_shard_for_key(5, key, 6)] += 1;
        }
        for &c in &counts {
            assert!((900..=3_600).contains(&c), "imbalanced: {counts:?}");
        }
    }
}
