//! Prime-field arithmetic.
//!
//! Two kinds of prime fields appear in the paper:
//!
//! 1. A *fixed* large prime field in which the Carter–Wegman polynomial hash
//!    families evaluate.  We use the Mersenne prime `p = 2^61 − 1`
//!    ([`Mersenne61`]), which admits a branch-light reduction and comfortably
//!    dominates every universe size (`n ≤ 2^60`) used in the experiments.
//! 2. A *run-time chosen* prime `p ∈ [D, D³]` with `D = 100·K·log(mM)` for the
//!    L0 counters of Lemma 6, and `p = Θ(log(mM) log log(mM))` for Lemma 8.
//!    [`DynField`] provides arithmetic modulo an arbitrary odd prime that fits
//!    in 62 bits, using 128-bit intermediate products.
//!
//! Both types expose the handful of operations the sketches need: modular
//! addition, subtraction, multiplication, exponentiation, inversion, and
//! polynomial evaluation via Horner's rule.

use crate::SpaceUsage;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE61_P: u64 = (1u64 << 61) - 1;

/// Arithmetic in `GF(2^61 − 1)`.
///
/// Elements are canonical residues in `[0, p)` stored as `u64`.  All
/// operations are constant-time in the sense of having no data-dependent loops
/// (the reduction is a shift, mask and single conditional subtraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mersenne61;

impl Mersenne61 {
    /// The field modulus.
    pub const P: u64 = MERSENNE61_P;

    /// Reduces an arbitrary `u64` into `[0, p)`.
    #[inline]
    #[must_use]
    pub fn reduce(x: u64) -> u64 {
        // x = hi·2^61 + lo  ≡  hi + lo (mod 2^61 − 1)
        let r = (x >> 61) + (x & Self::P);
        if r >= Self::P {
            r - Self::P
        } else {
            r
        }
    }

    /// Reduces a 128-bit product of two field elements into `[0, p)`.
    ///
    /// Requires `x < 2^122` (any product of two values below `2^61`
    /// qualifies), which lets the fold work directly on the multiplier's
    /// two output registers: `2^64 ≡ 2^3 (mod p)`, so
    /// `x = hi·2^64 + lo ≡ 8·hi + lo`, with `8·hi < 2^61` by the
    /// precondition.  Splitting at bit 64 instead of bit 61 avoids the
    /// expensive cross-register 128-bit shifts on the hash hot path; the
    /// canonical residue is unique, so the result is bit-identical to any
    /// other correct reduction.
    #[inline]
    #[must_use]
    pub fn reduce128(x: u128) -> u64 {
        debug_assert!(x >> 122 == 0, "x must be a product of two 61-bit values");
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        // Each term is below 2^61, so the sum stays below 2^62: one final
        // shift-and-add fold plus a conditional subtraction canonicalizes.
        Self::reduce((hi << 3) + (lo & Self::P) + (lo >> 61))
    }

    /// Modular addition.
    #[inline]
    #[must_use]
    pub fn add(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        let s = a + b;
        if s >= Self::P {
            s - Self::P
        } else {
            s
        }
    }

    /// Modular subtraction.
    #[inline]
    #[must_use]
    pub fn sub(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        if a >= b {
            a - b
        } else {
            a + Self::P - b
        }
    }

    /// Modular multiplication.
    #[inline]
    #[must_use]
    pub fn mul(a: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && b < Self::P);
        Self::reduce128((a as u128) * (b as u128))
    }

    /// Fused `(a·x + b) mod p` for canonical `a`, `x`, `b` — the pairwise
    /// hash evaluation, folded in one pass.
    ///
    /// Merging the addend into the product fold saves a separate
    /// conditional-subtraction round over `add(mul(a, x), b)`; every term of
    /// the fold is below `2^61`, so the sum stays below `2^63` and a single
    /// [`reduce`](Self::reduce) canonicalizes.  The canonical residue is
    /// unique, so the result is bit-identical to the unfused form.
    #[inline]
    #[must_use]
    pub fn mul_add(a: u64, x: u64, b: u64) -> u64 {
        debug_assert!(a < Self::P && x < Self::P && b < Self::P);
        let wide = (a as u128) * (x as u128);
        let lo = wide as u64;
        let hi = (wide >> 64) as u64;
        Self::reduce((hi << 3) + (lo & Self::P) + (lo >> 61) + b)
    }

    /// Reduces a whole eight-lane block into `[0, p)` — the input
    /// normalization shared by every batched hash kernel, exposed so a
    /// caller evaluating several hash functions on the *same* keys (the F0
    /// ingestion path: the main level hash plus three rough sub-estimator
    /// hashes) pays it once instead of per function.
    #[inline]
    #[must_use]
    pub fn reduce_batch(xs: &[u64; crate::LANES]) -> [u64; crate::LANES] {
        // Keys drawn from a universe below `p` (every sketch configuration
        // with `n ≤ 2^60`) are already canonical; the OR bounds each lane
        // from above bitwise, so one compare proves all eight.
        let upper = xs.iter().fold(0u64, |acc, &x| acc | x);
        if upper < Self::P {
            return *xs;
        }
        let mut out = [0u64; crate::LANES];
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = Self::reduce(x);
        }
        out
    }

    /// Modular exponentiation by squaring.
    #[must_use]
    pub fn pow(mut base: u64, mut exp: u64) -> u64 {
        base = Self::reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = Self::mul(acc, base);
            }
            base = Self::mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod p)`.
    #[must_use]
    pub fn inv(a: u64) -> u64 {
        let a = Self::reduce(a);
        assert!(a != 0, "zero has no multiplicative inverse");
        Self::pow(a, Self::P - 2)
    }

    /// Evaluates the polynomial `c[0] + c[1]·x + … + c[d]·x^d` by Horner's rule.
    #[inline]
    #[must_use]
    pub fn poly_eval(coeffs: &[u64], x: u64) -> u64 {
        let x = Self::reduce(x);
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = Self::add(Self::mul(acc, x), c);
        }
        acc
    }
}

/// Arithmetic modulo an arbitrary prime `p < 2^62`, chosen at run time.
///
/// Used by the L0 counters (Lemma 6: `p ∈ [D, D³]`) and the exact small-L0
/// structure (Lemma 8).  Multiplication goes through `u128`, so no
/// precomputed Barrett/Montgomery constants are required; the counters perform
/// only a handful of field multiplications per stream update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DynField {
    p: u64,
}

impl DynField {
    /// Creates a field with modulus `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 2` or `p ≥ 2^62` (the latter to keep `add` overflow-free).
    #[must_use]
    pub fn new(p: u64) -> Self {
        assert!(p >= 2, "modulus must be at least 2");
        assert!(p < (1u64 << 62), "modulus must fit in 62 bits");
        Self { p }
    }

    /// The modulus.
    #[inline]
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Reduces an arbitrary `u64` into `[0, p)`.
    #[inline]
    #[must_use]
    pub fn reduce(&self, x: u64) -> u64 {
        x % self.p
    }

    /// Reduces a signed value into `[0, p)`.
    ///
    /// Stream updates may carry negative frequencies (L0 turnstile model);
    /// this maps them to the canonical non-negative residue.
    #[inline]
    #[must_use]
    pub fn reduce_i64(&self, x: i64) -> u64 {
        let m = x.rem_euclid(self.p as i64);
        m as u64
    }

    /// Modular addition: the sum or the sum less `p`, whichever is smaller
    /// (less `p` wraps around below `p`), so no branch.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        let s = a + b;
        s.min(s.wrapping_sub(self.p))
    }

    /// Modular subtraction.
    #[inline]
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Modular multiplication.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        (((a as u128) * (b as u128)) % (self.p as u128)) as u64
    }

    /// Modular exponentiation by squaring.
    #[must_use]
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64 % self.p;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (requires `p` prime).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod p)`.
    #[must_use]
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "zero has no multiplicative inverse");
        self.pow(a, self.p - 2)
    }

    /// Evaluates the polynomial `c[0] + c[1]·x + … + c[d]·x^d` by Horner's rule.
    #[inline]
    #[must_use]
    pub fn poly_eval(&self, coeffs: &[u64], x: u64) -> u64 {
        let x = self.reduce(x);
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }
}

impl SpaceUsage for DynField {
    fn space_bits(&self) -> u64 {
        // Storing the modulus itself.
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mersenne_reduce_identities() {
        assert_eq!(Mersenne61::reduce(0), 0);
        assert_eq!(Mersenne61::reduce(MERSENNE61_P), 0);
        assert_eq!(Mersenne61::reduce(MERSENNE61_P + 5), 5);
        assert_eq!(Mersenne61::reduce(u64::MAX), u64::MAX % MERSENNE61_P);
    }

    #[test]
    fn mersenne_mul_matches_u128_reference() {
        let mut x = 0x0123_4567_89AB_CDEF_u64 % MERSENNE61_P;
        let mut y = 0x0FED_CBA9_8765_4321u64 % MERSENNE61_P;
        for _ in 0..200 {
            let expect = ((x as u128 * y as u128) % MERSENNE61_P as u128) as u64;
            assert_eq!(Mersenne61::mul(x, y), expect);
            x = Mersenne61::add(Mersenne61::mul(x, 3), 17);
            y = Mersenne61::sub(Mersenne61::mul(y, 5), 1);
        }
    }

    #[test]
    fn mersenne_add_sub_roundtrip() {
        let a = 0xDEAD_BEEFu64;
        let b = MERSENNE61_P - 3;
        let s = Mersenne61::add(a, b);
        assert_eq!(Mersenne61::sub(s, b), a);
        assert_eq!(Mersenne61::sub(s, a), b);
    }

    #[test]
    fn mersenne_pow_and_inv() {
        assert_eq!(Mersenne61::pow(2, 10), 1024);
        assert_eq!(Mersenne61::pow(5, 0), 1);
        for a in [1u64, 2, 3, 12345, MERSENNE61_P - 1] {
            let inv = Mersenne61::inv(a);
            assert_eq!(Mersenne61::mul(a, inv), 1, "a = {a}");
        }
    }

    #[test]
    fn mersenne_fermat_little_theorem() {
        // a^(p-1) = 1 for a != 0.
        for a in [2u64, 7, 1_000_003] {
            assert_eq!(Mersenne61::pow(a, MERSENNE61_P - 1), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn mersenne_inv_zero_panics() {
        let _ = Mersenne61::inv(0);
    }

    #[test]
    fn mersenne_poly_eval_matches_naive() {
        let coeffs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let x = 1_234_567u64;
        let mut expect = 0u64;
        let mut xp = 1u64;
        for &c in &coeffs {
            expect = Mersenne61::add(expect, Mersenne61::mul(c, xp));
            xp = Mersenne61::mul(xp, x);
        }
        assert_eq!(Mersenne61::poly_eval(&coeffs, x), expect);
    }

    #[test]
    fn dyn_field_basics() {
        let f = DynField::new(101);
        assert_eq!(f.add(100, 2), 1);
        assert_eq!(f.sub(1, 2), 100);
        assert_eq!(f.mul(50, 3), 49); // 150 mod 101
        assert_eq!(f.pow(2, 100), 1); // Fermat
        assert_eq!(f.mul(7, f.inv(7)), 1);
    }

    #[test]
    fn dyn_field_reduce_i64_handles_negatives() {
        let f = DynField::new(97);
        assert_eq!(f.reduce_i64(-1), 96);
        assert_eq!(f.reduce_i64(-97), 0);
        assert_eq!(f.reduce_i64(-98), 96);
        assert_eq!(f.reduce_i64(200), 200 % 97);
        assert_eq!(f.reduce_i64(i64::MIN), (i64::MIN).rem_euclid(97) as u64);
    }

    #[test]
    fn dyn_field_large_prime_mul() {
        // A 45-bit prime; check 128-bit multiplication path.
        let p = 35_184_372_088_891u64; // prime slightly above 2^45
        let f = DynField::new(p);
        let a = p - 2;
        let b = p - 3;
        let expect = ((a as u128 * b as u128) % p as u128) as u64;
        assert_eq!(f.mul(a, b), expect);
    }

    #[test]
    fn dyn_field_poly_eval_degenerate() {
        let f = DynField::new(13);
        assert_eq!(f.poly_eval(&[], 5), 0);
        assert_eq!(f.poly_eval(&[7], 5), 7);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn dyn_field_modulus_must_be_at_least_two() {
        let _ = DynField::new(1);
    }
}
