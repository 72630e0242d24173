//! Hashing and arithmetic substrate for the KNW distinct-elements reproduction.
//!
//! The Kane–Nelson–Woodruff (PODS 2010) algorithms are analysed in the word-RAM
//! model without any idealized hashing assumptions: every hash function used by
//! the paper is either pairwise independent, `k`-wise independent for
//! `k = Θ(log(K/ε)/log log(K/ε))`, or drawn from a fast high-independence family
//! (Siegel / Pagh–Pagh).  This crate provides all of those building blocks:
//!
//! * [`rng`] — deterministic, seedable pseudo-random generators (SplitMix64 and
//!   xoshiro256**) used to draw hash-function descriptions. No external
//!   dependency; experiments are exactly reproducible from a seed.
//! * [`prime_field`] — arithmetic in the Mersenne-prime field `GF(2^61 − 1)`
//!   (used by the Carter–Wegman polynomial families) and in run-time prime
//!   fields `GF(p)` (used by the L0 counters of Lemma 6 and Lemma 8).
//! * [`kwise`] — exactly `k`-wise independent Carter–Wegman polynomial hashing.
//! * [`pairwise`] — the 2-wise specialization used for `h1`, `h2` and `h4`.
//! * [`tabulation`] — simple and twisted tabulation hashing, our practical
//!   stand-in for Siegel's construction (Theorem 7) and the Pagh–Pagh uniform
//!   family (Theorem 6); its module docs give the substitution argument.
//! * [`uniform`] — the [`HashStrategy`](uniform::HashStrategy) switch that lets
//!   callers pick between the provably `k`-wise family and the fast tabulation
//!   family for the bucket hash `h3`.
//! * [`bits`] — constant-time `lsb`/`msb` and logarithm helpers (Theorem 5).
//! * [`primes`] — deterministic Miller–Rabin primality testing and random prime
//!   selection in an interval (needed by Lemma 6 and Lemma 8).
//!
//! Everything in this crate is deterministic given an [`rng::Rng64`] seed, has
//! no heap allocation on the hashing hot path, and reports its own space usage
//! in bits via [`SpaceUsage`], so that the bench harness can account for hash
//! function storage exactly as the paper does.
//!
//! # Batched kernels
//!
//! Every hash family exposes, next to its per-key `hash`/`hash_full`, an
//! eight-lane batched form (`hash_batch`/`hash_full_batch`) operating on
//! `[u64; `[`LANES`]`]` blocks.  `hash_full_batch` is a plain loop over the
//! per-key `hash_full`, the function the paper's analysis speaks about;
//! `hash_batch` applies the range reduction to its output lane by lane.
//!
//! The contract is **bit-identity, not estimate-identity**: for every family,
//! every key block and every draw of the function, `hash_batch(xs)[i] ==
//! hash(xs[i])` (and likewise for `hash_full_batch`); the `batch_identity`
//! property tests pin it per family.  The pairwise kernels the F0 hot loop
//! uses (`hash_full_batch_prereduced`, `hash_zero_mask_prereduced`, fed by
//! [`Mersenne61::reduce_batch`]) are held to the same contract, which the
//! workspace's sketch-level identity tests check through `insert_batch`.  Any
//! sketch built on the batched kernels therefore has the same state as one
//! built item by item.

/// Number of keys a batched hash call (`hash_batch` / `hash_full_batch`)
/// processes at once.
///
/// Eight 64-bit lanes: wide enough to saturate the multiplier pipeline (and
/// two AVX2 registers worth of the lane-parallel passes) without spilling the
/// accumulator arrays out of registers.
pub const LANES: usize = 8;

pub mod bits;
pub mod kwise;
pub mod pairwise;
pub mod prime_field;
pub mod primes;
pub mod rng;
pub mod tabulation;
pub mod uniform;

/// Types that can report the number of bits of state they occupy.
///
/// The paper's space bounds are stated in bits and include the space required
/// to store hash function descriptions (Section 1.2).  Every hash family and
/// every sketch in this workspace implements this trait so the benchmark
/// harness can reproduce the space accounting of Figure 1 exactly.
pub trait SpaceUsage {
    /// Number of bits of persistent state held by `self`.
    ///
    /// This counts the mathematical description of the object (e.g. `k` field
    /// elements of ~61 bits for a degree-(k−1) polynomial hash), not Rust
    /// allocator overhead, matching how the paper accounts for space.
    fn space_bits(&self) -> u64;
}

/// The decode-side check [`PairwiseHash`] and [`KWiseHash`] share: accepts
/// only parameters their `random` constructors can draw — a range in
/// `1..=2^61 − 1` whose power-of-two flag matches it, and every coefficient
/// an element of `GF(2^61 − 1)`.  Derived decoding would accept a range of
/// 0, whose first `hash` divides by zero even in a release build.
fn check_decoded(coeffs: &[u64], range: u64, range_is_pow2: bool) -> Result<(), serde::Error> {
    if range == 0 || range > Mersenne61::P {
        return Err(serde::Error::new(format!(
            "hash range {range} out of bounds"
        )));
    }
    if range_is_pow2 != range.is_power_of_two() {
        return Err(serde::Error::new(format!(
            "power-of-two flag {range_is_pow2} disagrees with hash range {range}"
        )));
    }
    if let Some(c) = coeffs.iter().find(|&&c| c >= Mersenne61::P) {
        return Err(serde::Error::new(format!(
            "hash coefficient {c} is not a field element"
        )));
    }
    Ok(())
}

pub use bits::{ceil_log2, floor_log2, lsb, lsb_with_cap, msb};
pub use kwise::{KWiseHash, KWiseHashBuilder};
pub use pairwise::PairwiseHash;
pub use prime_field::{DynField, Mersenne61, MERSENNE61_P};
pub use primes::{is_prime_u64, random_prime_in_range};
pub use rng::{Rng64, SplitMix64, Xoshiro256StarStar};
pub use tabulation::{SimpleTabulation, TwistedTabulation};
pub use uniform::{BucketHash, HashStrategy};
