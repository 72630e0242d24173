//! Packed bit vectors.
//!
//! [`BitVec`] is a growable sequence of bits with constant-time access to
//! arbitrary bit fields of width ≤ 64, including fields straddling a word
//! boundary.  [`FixedWidthVec`] layers a fixed element width on top, which is
//! what RoughEstimator uses for its `O(log log n)`-bit counters and what the
//! bitmap baselines (linear counting, the Section 3.3 small-F0 array) use for
//! single bits.

use crate::SpaceUsage;
use serde::{Deserialize, Error};

/// A growable packed bit vector.
///
/// The wire layout is the derived one (`words`, then `len`); decoding
/// refuses a word count other than `⌈len/64⌉` and set bits past `len`.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize)]
pub struct BitVec {
    words: Vec<u64>,
    /// Length in bits.
    len: u64,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: u64) -> Self {
        let words = vec![0u64; len.div_ceil(64) as usize];
        Self { words, len }
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resizes to `len` bits, zero-filling any new bits.
    pub fn resize(&mut self, len: u64) {
        self.words.resize(len.div_ceil(64) as usize, 0);
        if len < self.len {
            // Clear any bits beyond the new length in the last word so that
            // popcount-style queries stay correct.
            let rem = (len % 64) as u32;
            if rem != 0 {
                if let Some(last) = self.words.last_mut() {
                    *last &= (1u64 << rem) - 1;
                }
            }
        }
        self.len = len;
    }

    /// Reads the single bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    #[must_use]
    pub fn get_bit(&self, idx: u64) -> bool {
        assert!(
            idx < self.len,
            "bit index {idx} out of bounds ({})",
            self.len
        );
        let word = self.words[(idx / 64) as usize];
        (word >> (idx % 64)) & 1 == 1
    }

    /// Sets the single bit at `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn set_bit(&mut self, idx: u64, value: bool) {
        assert!(
            idx < self.len,
            "bit index {idx} out of bounds ({})",
            self.len
        );
        let w = &mut self.words[(idx / 64) as usize];
        let mask = 1u64 << (idx % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Reads a `width`-bit little-endian field starting at bit `start`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the field extends past the end.
    #[inline]
    #[must_use]
    pub fn get_bits(&self, start: u64, width: u32) -> u64 {
        assert!(width <= 64, "field width {width} exceeds 64");
        if width == 0 {
            return 0;
        }
        assert!(
            start + width as u64 <= self.len,
            "field [{start}, {start}+{width}) out of bounds ({})",
            self.len
        );
        let word_idx = (start / 64) as usize;
        let offset = (start % 64) as u32;
        let lo = self.words[word_idx] >> offset;
        let value = if offset + width <= 64 {
            lo
        } else {
            let hi = self.words[word_idx + 1] << (64 - offset);
            lo | hi
        };
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Writes a `width`-bit little-endian field starting at bit `start`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the field extends past the end, or `value` does
    /// not fit in `width` bits.
    #[inline]
    pub fn set_bits(&mut self, start: u64, width: u32, value: u64) {
        assert!(width <= 64, "field width {width} exceeds 64");
        if width == 0 {
            assert_eq!(value, 0, "nonzero value in zero-width field");
            return;
        }
        assert!(
            start + width as u64 <= self.len,
            "field [{start}, {start}+{width}) out of bounds ({})",
            self.len
        );
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        assert!(value <= mask, "value {value} does not fit in {width} bits");
        let word_idx = (start / 64) as usize;
        let offset = (start % 64) as u32;
        // Low part.
        let low_mask = mask << offset;
        self.words[word_idx] = (self.words[word_idx] & !low_mask) | (value << offset);
        // High part, if the field crosses a word boundary.
        if offset + width > 64 {
            let hi_bits = offset + width - 64;
            let hi_mask = (1u64 << hi_bits) - 1;
            let hi_value = value >> (64 - offset);
            self.words[word_idx + 1] = (self.words[word_idx + 1] & !hi_mask) | (hi_value & hi_mask);
        }
    }

    /// Number of set bits in the whole vector.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Sets every bit to zero without changing the length.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

impl Deserialize for BitVec {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let words = Vec::<u64>::deserialize(input)?;
        let len = u64::deserialize(input)?;
        if words.len() as u64 != len.div_ceil(64) {
            return Err(Error::new(format!(
                "bit vector of {len} bits holds {} words",
                words.len()
            )));
        }
        // Bits past `len` are always clear; `count_ones` relies on it.
        if len % 64 != 0 && words.last().is_some_and(|&last| last >> (len % 64) != 0) {
            return Err(Error::new("bit vector has bits set past its length"));
        }
        Ok(Self { words, len })
    }
}

impl SpaceUsage for BitVec {
    fn space_bits(&self) -> u64 {
        // The mathematical object is `len` bits; allocation rounding to words
        // is an implementation detail the paper's accounting ignores.
        self.len
    }
}

/// A vector of packed integers, each exactly `width` bits wide.
///
/// The wire layout is the derived one (`bits`, `width`, `len`); decoding
/// refuses a width outside `1..=64` and a bit length other than
/// `len × width`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct FixedWidthVec {
    bits: BitVec,
    width: u32,
    len: usize,
}

impl FixedWidthVec {
    /// Creates a vector of `len` zero-valued `width`-bit entries.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 64`.
    #[must_use]
    pub fn zeros(len: usize, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Self {
            bits: BitVec::zeros(len as u64 * width as u64),
            width,
            len,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width in bits of each entry.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Largest value storable in an entry.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Reads entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        self.bits
            .get_bits(idx as u64 * self.width as u64, self.width)
    }

    /// Writes entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len` or `value` does not fit in the entry width.
    #[inline]
    pub fn set(&mut self, idx: usize, value: u64) {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        self.bits
            .set_bits(idx as u64 * self.width as u64, self.width, value);
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Sets every entry to zero.
    pub fn clear_all(&mut self) {
        self.bits.clear_all();
    }
}

impl Deserialize for FixedWidthVec {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let bits = BitVec::deserialize(input)?;
        let width = u32::deserialize(input)?;
        let len = usize::deserialize(input)?;
        if !(1..=64).contains(&width) {
            return Err(Error::new(format!(
                "packed entry width {width} not in 1..=64"
            )));
        }
        if (len as u64).checked_mul(u64::from(width)) != Some(bits.len()) {
            return Err(Error::new(format!(
                "{len} entries of {width} bits held in {} bits",
                bits.len()
            )));
        }
        Ok(Self { bits, width, len })
    }
}

impl SpaceUsage for FixedWidthVec {
    fn space_bits(&self) -> u64 {
        self.len as u64 * self.width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bit_roundtrip() {
        let mut bv = BitVec::zeros(200);
        assert_eq!(bv.len(), 200);
        assert_eq!(bv.count_ones(), 0);
        bv.set_bit(0, true);
        bv.set_bit(63, true);
        bv.set_bit(64, true);
        bv.set_bit(199, true);
        assert!(bv.get_bit(0));
        assert!(bv.get_bit(63));
        assert!(bv.get_bit(64));
        assert!(bv.get_bit(199));
        assert!(!bv.get_bit(1));
        assert_eq!(bv.count_ones(), 4);
        bv.set_bit(63, false);
        assert!(!bv.get_bit(63));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn field_roundtrip_across_word_boundaries() {
        let mut bv = BitVec::zeros(1024);
        // Write a 13-bit value straddling the boundary at bit 64.
        bv.set_bits(58, 13, 0x1ABC & 0x1FFF);
        assert_eq!(bv.get_bits(58, 13), 0x1ABC & 0x1FFF);
        // Neighbours untouched.
        assert_eq!(bv.get_bits(0, 58), 0);
        assert_eq!(bv.get_bits(71, 64), 0);
    }

    #[test]
    fn field_full_word_width() {
        let mut bv = BitVec::zeros(256);
        bv.set_bits(100, 64, u64::MAX);
        assert_eq!(bv.get_bits(100, 64), u64::MAX);
        bv.set_bits(100, 64, 0xDEAD_BEEF_CAFE_BABE);
        assert_eq!(bv.get_bits(100, 64), 0xDEAD_BEEF_CAFE_BABE);
    }

    #[test]
    fn overwrite_does_not_leak_into_neighbours() {
        let mut bv = BitVec::zeros(192);
        bv.set_bits(10, 8, 0xFF);
        bv.set_bits(18, 8, 0xAA);
        bv.set_bits(2, 8, 0x55);
        assert_eq!(bv.get_bits(10, 8), 0xFF);
        assert_eq!(bv.get_bits(18, 8), 0xAA);
        assert_eq!(bv.get_bits(2, 8), 0x55);
        // Now shrink the middle value.
        bv.set_bits(10, 8, 0x01);
        assert_eq!(bv.get_bits(10, 8), 0x01);
        assert_eq!(bv.get_bits(18, 8), 0xAA);
        assert_eq!(bv.get_bits(2, 8), 0x55);
    }

    #[test]
    fn zero_width_reads_and_writes_are_noops() {
        let mut bv = BitVec::zeros(64);
        assert_eq!(bv.get_bits(10, 0), 0);
        bv.set_bits(10, 0, 0);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut bv = BitVec::zeros(64);
        bv.set_bits(0, 3, 8);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_field_panics() {
        let bv = BitVec::zeros(64);
        let _ = bv.get_bits(60, 8);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut bv = BitVec::zeros(10);
        bv.set_bit(9, true);
        bv.resize(100);
        assert_eq!(bv.len(), 100);
        assert!(bv.get_bit(9));
        assert!(!bv.get_bit(99));
        bv.resize(5);
        assert_eq!(bv.len(), 5);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn clear_all_resets() {
        let mut bv = BitVec::zeros(130);
        for i in (0..130).step_by(3) {
            bv.set_bit(i, true);
        }
        assert!(bv.count_ones() > 0);
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn fixed_width_roundtrip() {
        let mut v = FixedWidthVec::zeros(100, 5);
        assert_eq!(v.len(), 100);
        assert_eq!(v.max_value(), 31);
        for i in 0..100 {
            v.set(i, (i as u64 * 7) % 32);
        }
        for i in 0..100 {
            assert_eq!(v.get(i), (i as u64 * 7) % 32);
        }
        assert_eq!(v.space_bits(), 500);
    }

    #[test]
    fn fixed_width_iter_and_clear() {
        let mut v = FixedWidthVec::zeros(10, 6);
        for i in 0..10 {
            v.set(i, i as u64);
        }
        let collected: Vec<u64> = v.iter().collect();
        assert_eq!(collected, (0..10u64).collect::<Vec<_>>());
        v.clear_all();
        assert!(v.iter().all(|x| x == 0));
    }

    #[test]
    fn fixed_width_64_bit_entries() {
        let mut v = FixedWidthVec::zeros(4, 64);
        v.set(2, u64::MAX);
        assert_eq!(v.get(2), u64::MAX);
        assert_eq!(v.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn fixed_width_zero_width_panics() {
        let _ = FixedWidthVec::zeros(4, 0);
    }

    /// The hand-written decoders read the derived layouts: a `BitVec` is
    /// its length-prefixed words then `len`, a `FixedWidthVec` its
    /// `BitVec`, `width` (`u32`) and `len`.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut v = FixedWidthVec::zeros(3, 8);
        v.set(0, 1);
        v.set(2, 0xFF);
        let mut expected = Vec::new();
        for word in [1u64, 0xFF_0001, 24] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&8u32.to_le_bytes());
        expected.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(serde::to_bytes(&v), expected);
        assert_eq!(serde::from_bytes::<FixedWidthVec>(&expected), Ok(v));
        let bits = BitVec::zeros(130);
        assert_eq!(serde::from_bytes(&serde::to_bytes(&bits)), Ok(bits));
    }

    #[test]
    fn forged_shapes_are_refused() {
        let forged_bits = [
            // One word cannot hold 1,000 bits; the first read past it panicked.
            BitVec {
                words: vec![0],
                len: 1_000,
            },
            BitVec {
                words: vec![0, 0],
                len: 64,
            },
            BitVec {
                words: vec![1 << 5],
                len: 3,
            },
        ];
        for bits in forged_bits {
            let bytes = serde::to_bytes(&bits);
            assert!(serde::from_bytes::<BitVec>(&bytes).is_err(), "{bits:?}");
        }
        let forged_vecs = [
            FixedWidthVec {
                bits: BitVec::zeros(130),
                width: 65,
                len: 2,
            },
            FixedWidthVec {
                bits: BitVec::zeros(0),
                width: 0,
                len: 4,
            },
            FixedWidthVec {
                bits: BitVec::zeros(10),
                width: 3,
                len: 4,
            },
            FixedWidthVec {
                bits: BitVec::zeros(0),
                width: 64,
                len: usize::MAX,
            },
        ];
        for v in forged_vecs {
            let bytes = serde::to_bytes(&v);
            assert!(serde::from_bytes::<FixedWidthVec>(&bytes).is_err(), "{v:?}");
        }
    }

    #[test]
    fn dense_random_field_roundtrip() {
        // Model-based check against a Vec<u64> reference with mixed widths laid
        // out back-to-back.
        let widths = [3u32, 17, 1, 64, 33, 7, 12, 29, 5, 60];
        let total: u64 = widths.iter().map(|&w| w as u64).sum();
        let mut bv = BitVec::zeros(total);
        let mut expected = Vec::new();
        let mut pos = 0u64;
        let mut seed = 0x1234_5678u64;
        for &w in &widths {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let val = seed & mask;
            bv.set_bits(pos, w, val);
            expected.push((pos, w, val));
            pos += w as u64;
        }
        for &(p, w, val) in &expected {
            assert_eq!(bv.get_bits(p, w), val);
        }
    }
}
