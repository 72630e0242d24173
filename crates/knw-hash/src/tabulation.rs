//! Simple and twisted tabulation hashing.
//!
//! The paper obtains `O(1)` evaluation time for its high-independence hash
//! `h3` from Siegel's construction (Theorem 7) and for RoughEstimator's
//! `h3^j` from Pagh–Pagh uniform hashing (Theorem 6).  Both constructions are
//! theoretical devices: Siegel's family has truly enormous constants, and the
//! Pagh–Pagh structure is a multi-level perfect-hashing scheme that nobody
//! deploys for 2K-element support sets.
//!
//! Our substitution is **tabulation hashing**: the key is split into 8-bit
//! characters, each character indexes a table of random 64-bit words, and the
//! results are XOR-ed.  Simple tabulation is only 3-wise independent, but
//! Pătraşcu and Thorup showed it obeys Chernoff-style concentration for
//! balls-and-bins-type quantities, which is exactly the
//! property the paper needs from `h3` (uniformity on an unknown set of `O(K)`
//! keys).  [`TwistedTabulation`] additionally "twists" the final character,
//! strengthening the tail bounds.  Both evaluate in a constant number of table
//! lookups and are the fast path of [`crate::uniform::BucketHash`]; callers who
//! want the letter of the paper's analysis select the Carter–Wegman `k`-wise
//! path instead.

use crate::rng::Rng64;
use crate::{SpaceUsage, LANES};

/// Number of 8-bit characters in a 64-bit key.
const CHARS: usize = 8;

/// Simple tabulation hashing over 8-bit characters of a 64-bit key.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimpleTabulation {
    /// `tables[c][b]` is the random word for character position `c`, byte value `b`.
    tables: Vec<[u64; 256]>,
    range: u64,
    range_is_pow2: bool,
}

impl SimpleTabulation {
    /// Draws a random simple-tabulation function with outputs in `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    #[must_use]
    pub fn random<R: Rng64 + ?Sized>(range: u64, rng: &mut R) -> Self {
        assert!(range >= 1, "output range must be nonempty");
        let mut tables = Vec::with_capacity(CHARS);
        for _ in 0..CHARS {
            let mut t = [0u64; 256];
            for slot in t.iter_mut() {
                *slot = rng.next_u64();
            }
            tables.push(t);
        }
        Self {
            tables,
            range,
            range_is_pow2: range.is_power_of_two(),
        }
    }

    /// The size of the output range.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluates the hash, producing the full 64-bit mixed word.
    #[inline]
    #[must_use]
    pub fn hash_full(&self, x: u64) -> u64 {
        let mut acc = 0u64;
        for (c, table) in self.tables.iter().enumerate() {
            let byte = ((x >> (8 * c)) & 0xFF) as usize;
            acc ^= table[byte];
        }
        acc
    }

    /// Evaluates the hash, producing a value in `[0, range)`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        reduce(self.hash_full(x), self.range, self.range_is_pow2)
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
        reduce_batch(self.hash_full_batch(xs), self.range, self.range_is_pow2)
    }
}

impl SpaceUsage for SimpleTabulation {
    fn space_bits(&self) -> u64 {
        (CHARS as u64) * 256 * 64 + 64
    }
}

/// Twisted tabulation hashing (Pătraşcu–Thorup 2013).
///
/// Like simple tabulation, but the last character's table additionally yields a
/// "twist" that is XOR-ed into the key before the final lookup, giving stronger
/// minwise/concentration properties at the cost of one extra lookup.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TwistedTabulation {
    /// Tables for the first `CHARS − 1` characters, each entry 64 bits of hash.
    head: Vec<[u64; 256]>,
    /// Table for the final character: (twist, hash word) pairs.
    twist: Vec<(u64, u64)>,
    range: u64,
    range_is_pow2: bool,
}

impl TwistedTabulation {
    /// Draws a random twisted-tabulation function with outputs in `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    #[must_use]
    pub fn random<R: Rng64 + ?Sized>(range: u64, rng: &mut R) -> Self {
        assert!(range >= 1, "output range must be nonempty");
        let mut head = Vec::with_capacity(CHARS - 1);
        for _ in 0..CHARS - 1 {
            let mut t = [0u64; 256];
            for slot in t.iter_mut() {
                *slot = rng.next_u64();
            }
            head.push(t);
        }
        let twist = (0..256).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        Self {
            head,
            twist,
            range,
            range_is_pow2: range.is_power_of_two(),
        }
    }

    /// The size of the output range.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Evaluates the hash, producing the full 64-bit mixed word.
    #[inline]
    #[must_use]
    pub fn hash_full(&self, x: u64) -> u64 {
        let top = ((x >> (8 * (CHARS - 1))) & 0xFF) as usize;
        let (t, h_top) = self.twist[top];
        let twisted = x ^ (t & ((1u64 << (8 * (CHARS - 1))) - 1));
        let mut acc = h_top;
        for (c, table) in self.head.iter().enumerate() {
            let byte = ((twisted >> (8 * c)) & 0xFF) as usize;
            acc ^= table[byte];
        }
        acc
    }

    /// Evaluates the hash, producing a value in `[0, range)`.
    #[inline]
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        reduce(self.hash_full(x), self.range, self.range_is_pow2)
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
        reduce_batch(self.hash_full_batch(xs), self.range, self.range_is_pow2)
    }
}

impl SpaceUsage for TwistedTabulation {
    fn space_bits(&self) -> u64 {
        ((CHARS as u64 - 1) * 256 * 64) + (256 * 128) + 64
    }
}

#[inline]
fn reduce(word: u64, range: u64, pow2: bool) -> u64 {
    if pow2 {
        word & (range - 1)
    } else {
        // Multiply-shift range reduction avoids the bias of `% range` on
        // non-power-of-two ranges better than a plain modulo of the low bits.
        ((word as u128 * range as u128) >> 64) as u64
    }
}

#[inline]
fn reduce_batch(mut words: [u64; LANES], range: u64, pow2: bool) -> [u64; LANES] {
    if pow2 {
        let mask = range - 1;
        for w in &mut words {
            *w &= mask;
        }
    } else {
        for w in &mut words {
            *w = ((*w as u128 * range as u128) >> 64) as u64;
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn simple_outputs_in_range() {
        let mut rng = SplitMix64::new(1);
        for &range in &[1u64, 2, 5, 64, 1000, 1 << 22] {
            let h = SimpleTabulation::random(range, &mut rng);
            for x in 0..1000u64 {
                assert!(h.hash(x) < range);
            }
        }
    }

    #[test]
    fn twisted_outputs_in_range() {
        let mut rng = SplitMix64::new(2);
        for &range in &[1u64, 3, 64, 1 << 18] {
            let h = TwistedTabulation::random(range, &mut rng);
            for x in 0..1000u64 {
                assert!(h.hash(x) < range);
            }
        }
    }

    #[test]
    fn simple_is_deterministic_and_seed_sensitive() {
        let mut r1 = SplitMix64::new(42);
        let mut r2 = SplitMix64::new(42);
        let mut r3 = SplitMix64::new(43);
        let a = SimpleTabulation::random(1 << 16, &mut r1);
        let b = SimpleTabulation::random(1 << 16, &mut r2);
        let c = SimpleTabulation::random(1 << 16, &mut r3);
        for x in 0..300u64 {
            assert_eq!(a.hash(x), b.hash(x));
        }
        assert!((0..300u64).any(|x| a.hash(x) != c.hash(x)));
    }

    #[test]
    fn simple_bucket_uniformity() {
        let mut rng = SplitMix64::new(11);
        let range = 32u64;
        let h = SimpleTabulation::random(range, &mut rng);
        let n = 32_000u64;
        let mut counts = vec![0u64; range as usize];
        for x in 0..n {
            counts[h.hash(x) as usize] += 1;
        }
        let expect = n as f64 / range as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < expect * 0.25);
        }
    }

    #[test]
    fn twisted_bucket_uniformity() {
        let mut rng = SplitMix64::new(12);
        let range = 32u64;
        let h = TwistedTabulation::random(range, &mut rng);
        let n = 32_000u64;
        let mut counts = vec![0u64; range as usize];
        for x in 0..n {
            counts[h.hash(x) as usize] += 1;
        }
        let expect = n as f64 / range as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < expect * 0.25);
        }
    }

    #[test]
    fn avalanche_on_single_bit_flips() {
        // Flipping one input bit should change roughly half the output bits on
        // average (a weak avalanche sanity check).
        let mut rng = SplitMix64::new(9);
        let h = SimpleTabulation::random(1 << 63, &mut rng);
        let mut total = 0u32;
        let trials = 200u64;
        for x in 0..trials {
            let base = h.hash_full(x);
            let flipped = h.hash_full(x ^ 1);
            total += (base ^ flipped).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!((20.0..44.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn space_accounting() {
        let mut rng = SplitMix64::new(1);
        let s = SimpleTabulation::random(1 << 10, &mut rng);
        let t = TwistedTabulation::random(1 << 10, &mut rng);
        assert_eq!(s.space_bits(), 8 * 256 * 64 + 64);
        assert_eq!(t.space_bits(), 7 * 256 * 64 + 256 * 128 + 64);
    }

    #[test]
    fn collision_rate_small() {
        let mut rng = SplitMix64::new(31);
        let h = TwistedTabulation::random(1 << 20, &mut rng);
        let mut collisions = 0;
        for i in 0..10_000u64 {
            if h.hash(i) == h.hash(i + 1_000_000) {
                collisions += 1;
            }
        }
        // Expected ~10_000 / 2^20 ≈ 0.0095 collisions; allow a handful.
        assert!(collisions < 5, "too many collisions: {collisions}");
    }
}
