//! A variable-bit-length array (Blandford–Blelloch, Theorem 8 of the paper).
//!
//! Definition 1 of the paper: a VLA implements an array `C_1, …, C_n` whose
//! entries have bit representations of varying lengths, supporting
//! `update(i, x)` and `read(i)`, in `O(n + Σ len(C_i))` bits with `O(1)`
//! operations.  The F0 sketch uses it to keep `K = 1/ε²` offset counters in
//! `O(K)` total bits even though individual counters occasionally grow.
//!
//! # Implementation
//!
//! Entries are grouped into blocks of [`BLOCK`] = 8 entries.  Each block owns a
//! small packed arena ([`BitVec`]) in which its entries are stored
//! back-to-back; a global [`FixedWidthVec`] records each entry's current width
//! (7 bits per entry).  A read locates the entry by summing at most
//! `BLOCK − 1 = 7` widths — a constant amount of work.  A write that does not
//! change the entry's width is done in place; a width-changing write repacks
//! the block's arena, which touches at most `BLOCK` entries and is therefore
//! also `O(1)`.
//!
//! This is a slight simplification of Blandford–Blelloch (which de-amortizes
//! arena growth across a shared memory pool); because the block size is a
//! compile-time constant the repack cost here is already worst-case constant,
//! and the space bound `O(n + Σ len(C_i))` bits is preserved: 7 bits of width
//! metadata per entry plus the packed data.

use crate::bitvec::{BitVec, FixedWidthVec};
use crate::SpaceUsage;
use serde::{Deserialize, Error};

/// Number of entries per block.  A power of two so index arithmetic is shifts.
pub const BLOCK: usize = 8;

/// Width in bits of each per-entry width field (values 0..=64 fit in 7 bits).
const WIDTH_FIELD_BITS: u32 = 7;

/// Bit length of `value` (0 for value 0), i.e. the minimal width that can store
/// it.
#[inline]
#[must_use]
fn bit_len(value: u64) -> u32 {
    64 - value.leading_zeros()
}

/// A variable-bit-length array of `u64` values.
///
/// All entries start at value `0`, which occupies zero data bits.
///
/// The wire layout is the derived one (`widths`, `blocks`, `len`); decoding
/// refuses any shape [`new`](Self::new) and [`write`](Self::write) cannot
/// produce, so every read of a decoded array stays in bounds.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Vla {
    /// Per-entry widths, 7 bits each.
    widths: FixedWidthVec,
    /// Per-block packed entry data.
    blocks: Vec<BitVec>,
    /// Number of entries.
    len: usize,
}

impl Vla {
    /// Creates a VLA with `len` entries, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let num_blocks = len.div_ceil(BLOCK);
        Self {
            widths: FixedWidthVec::zeros(len.max(1), WIDTH_FIELD_BITS),
            blocks: vec![BitVec::new(); num_blocks],
            len,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the array has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    #[must_use]
    pub fn read(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        let block = idx / BLOCK;
        let slot = idx % BLOCK;
        let base = block * BLOCK;
        let mut offset = 0u64;
        for s in 0..slot {
            offset += self.widths.get(base + s);
        }
        let width = self.widths.get(idx) as u32;
        if width == 0 {
            0
        } else {
            self.blocks[block].get_bits(offset, width)
        }
    }

    /// Writes `value` to entry `idx`.
    ///
    /// If the value's bit length differs from the entry's current width the
    /// containing block (at most [`BLOCK`] entries) is repacked; otherwise the
    /// write is done in place.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn write(&mut self, idx: usize, value: u64) {
        assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        let block = idx / BLOCK;
        let slot = idx % BLOCK;
        let base = block * BLOCK;
        let old_width = self.widths.get(idx) as u32;
        let new_width = bit_len(value);

        if new_width == old_width {
            if new_width != 0 {
                let mut offset = 0u64;
                for s in 0..slot {
                    offset += self.widths.get(base + s);
                }
                self.blocks[block].set_bits(offset, new_width, value);
            }
            return;
        }

        // Width change: repack the block.
        let entries_in_block = (self.len - base).min(BLOCK);
        let mut values = [0u64; BLOCK];
        for (s, v) in values.iter_mut().enumerate().take(entries_in_block) {
            *v = if base + s == idx {
                value
            } else {
                self.read(base + s)
            };
        }
        self.widths.set(idx, new_width as u64);
        let total: u64 = (0..entries_in_block)
            .map(|s| self.widths.get(base + s))
            .sum();
        let mut fresh = BitVec::zeros(total);
        let mut offset = 0u64;
        for (s, &v) in values.iter().enumerate().take(entries_in_block) {
            let w = self.widths.get(base + s) as u32;
            if w != 0 {
                fresh.set_bits(offset, w, v);
            }
            offset += w as u64;
        }
        self.blocks[block] = fresh;
    }

    /// Applies `f` to entry `idx`, writing back the result, and returns the new
    /// value.  Convenience used by the sketches for `C_j ← max(C_j, x)`-style
    /// updates.
    pub fn update_with<F: FnOnce(u64) -> u64>(&mut self, idx: usize, f: F) -> u64 {
        let new = f(self.read(idx));
        self.write(idx, new);
        new
    }

    /// Iterates over all entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.read(i))
    }

    /// Resets every entry to zero, releasing the packed data.
    pub fn clear_all(&mut self) {
        self.widths.clear_all();
        for b in &mut self.blocks {
            *b = BitVec::new();
        }
    }

    /// Total number of data bits currently used by entry payloads
    /// (`Σ len(C_i)` in the paper's notation).
    #[must_use]
    pub fn payload_bits(&self) -> u64 {
        self.widths.iter().take(self.len).sum()
    }
}

impl Deserialize for Vla {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let widths = FixedWidthVec::deserialize(input)?;
        let blocks = Vec::<BitVec>::deserialize(input)?;
        let len = usize::deserialize(input)?;
        if widths.width() != WIDTH_FIELD_BITS || widths.len() != len.max(1) {
            return Err(Error::new(format!(
                "VLA of {len} entries with {} width fields of {} bits",
                widths.len(),
                widths.width()
            )));
        }
        if blocks.len() != len.div_ceil(BLOCK) {
            return Err(Error::new(format!(
                "VLA of {len} entries with {} blocks",
                blocks.len()
            )));
        }
        for (block, bits) in blocks.iter().enumerate() {
            let mut payload = 0;
            for idx in block * BLOCK..((block + 1) * BLOCK).min(len) {
                let width = widths.get(idx);
                if width > 64 {
                    return Err(Error::new(format!("VLA entry width {width} exceeds 64")));
                }
                payload += width;
            }
            if payload != bits.len() {
                return Err(Error::new(format!(
                    "VLA block {block} holds {} bits for {payload} bits of entries",
                    bits.len()
                )));
            }
        }
        Ok(Self {
            widths,
            blocks,
            len,
        })
    }
}

impl SpaceUsage for Vla {
    fn space_bits(&self) -> u64 {
        // O(n) metadata (the per-entry width fields) plus the packed payloads.
        self.len as u64 * u64::from(WIDTH_FIELD_BITS) + self.payload_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let v = Vla::new(100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|x| x == 0));
        assert_eq!(v.payload_bits(), 0);
    }

    #[test]
    fn simple_write_read_roundtrip() {
        let mut v = Vla::new(20);
        v.write(3, 42);
        v.write(4, 1);
        v.write(19, u64::MAX);
        assert_eq!(v.read(3), 42);
        assert_eq!(v.read(4), 1);
        assert_eq!(v.read(19), u64::MAX);
        assert_eq!(v.read(0), 0);
        assert_eq!(v.read(5), 0);
    }

    #[test]
    fn overwrite_with_wider_and_narrower_values() {
        let mut v = Vla::new(16);
        for i in 0..16 {
            v.write(i, i as u64 + 1);
        }
        // Grow one entry dramatically; neighbours must be unaffected.
        v.write(5, 1 << 40);
        for i in 0..16 {
            if i == 5 {
                assert_eq!(v.read(i), 1 << 40);
            } else {
                assert_eq!(v.read(i), i as u64 + 1);
            }
        }
        // Shrink it back to a tiny value.
        v.write(5, 2);
        for i in 0..16 {
            if i == 5 {
                assert_eq!(v.read(i), 2);
            } else {
                assert_eq!(v.read(i), i as u64 + 1);
            }
        }
    }

    #[test]
    fn write_zero_releases_payload_bits() {
        let mut v = Vla::new(8);
        v.write(0, 0xFFFF);
        assert_eq!(v.payload_bits(), 16);
        v.write(0, 0);
        assert_eq!(v.read(0), 0);
        assert_eq!(v.payload_bits(), 0);
    }

    #[test]
    fn payload_bits_tracks_bit_lengths() {
        let mut v = Vla::new(10);
        v.write(0, 1); // 1 bit
        v.write(1, 3); // 2 bits
        v.write(2, 255); // 8 bits
        v.write(9, 1 << 20); // 21 bits
        assert_eq!(v.payload_bits(), 1 + 2 + 8 + 21);
    }

    #[test]
    fn space_is_linear_plus_payload() {
        let mut v = Vla::new(64);
        assert_eq!(v.space_bits(), 64 * 7);
        v.write(10, 0b1011);
        assert_eq!(v.space_bits(), 64 * 7 + 4);
    }

    #[test]
    fn update_with_max_semantics() {
        // The F0 sketch performs C_j ← max(C_j, x); exercise that pattern.
        let mut v = Vla::new(4);
        assert_eq!(v.update_with(2, |c| c.max(5)), 5);
        assert_eq!(v.update_with(2, |c| c.max(3)), 5);
        assert_eq!(v.update_with(2, |c| c.max(9)), 9);
        assert_eq!(v.read(2), 9);
    }

    #[test]
    fn model_based_random_workload() {
        // Compare against a plain Vec<u64> model over a few thousand random
        // operations spanning many blocks and width changes.
        let n = 200usize;
        let mut v = Vla::new(n);
        let mut model = vec![0u64; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..5000 {
            let idx = (next() % n as u64) as usize;
            // Mix of small and large values so widths change frequently.
            let value = match step % 4 {
                0 => next() % 4,
                1 => next() % 256,
                2 => next() % (1 << 20),
                _ => next(),
            };
            v.write(idx, value);
            model[idx] = value;
            // Spot-check a random index every iteration and the written one.
            assert_eq!(v.read(idx), model[idx]);
            let probe = (next() % n as u64) as usize;
            assert_eq!(v.read(probe), model[probe], "step {step} probe {probe}");
        }
        for (i, &expect) in model.iter().enumerate() {
            assert_eq!(v.read(i), expect);
        }
    }

    #[test]
    fn clear_all_resets_everything() {
        let mut v = Vla::new(32);
        for i in 0..32 {
            v.write(i, (i as u64 + 1) * 1000);
        }
        v.clear_all();
        assert!(v.iter().all(|x| x == 0));
        assert_eq!(v.payload_bits(), 0);
    }

    #[test]
    fn len_not_multiple_of_block() {
        let mut v = Vla::new(BLOCK + 3);
        for i in 0..v.len() {
            v.write(i, i as u64 + 100);
        }
        for i in 0..v.len() {
            assert_eq!(v.read(i), i as u64 + 100);
        }
    }

    /// The hand-written decoder reads the derived layout: the width
    /// fields, the length-prefixed blocks, then `len`.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut v = Vla::new(3);
        v.write(1, 5);
        let mut expected = Vec::new();
        // widths: one word holding entry 1's width 3, 21 bits, 7-bit
        // fields, 3 entries; then one 3-bit block holding 5; then len.
        for word in [1u64, 3 << 7, 21] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&7u32.to_le_bytes());
        for word in [3u64, 1, 1, 5, 3, 3] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(serde::to_bytes(&v), expected);
        assert_eq!(serde::from_bytes::<Vla>(&expected), Ok(v));
        let empty = Vla::new(0);
        assert_eq!(serde::from_bytes(&serde::to_bytes(&empty)), Ok(empty));
    }

    #[test]
    fn forged_shapes_are_refused() {
        let mut good = Vla::new(10);
        good.write(3, 77);
        assert_eq!(serde::from_bytes(&serde::to_bytes(&good)), Ok(good.clone()));
        let mut wide = good.clone();
        wide.widths.set(0, 100);
        wide.blocks[0] = BitVec::zeros(107);
        let mut short_block = good.clone();
        short_block.blocks[0] = BitVec::zeros(5);
        let forged = [
            Vla {
                len: 17,
                ..good.clone()
            },
            Vla {
                widths: FixedWidthVec::zeros(10, 8),
                ..good.clone()
            },
            Vla {
                blocks: vec![BitVec::new(); 3],
                ..good
            },
            wide,
            short_block,
        ];
        for v in forged {
            let bytes = serde::to_bytes(&v);
            assert!(serde::from_bytes::<Vla>(&bytes).is_err(), "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let v = Vla::new(4);
        let _ = v.read(4);
    }

    #[test]
    fn counters_stay_compact_like_the_paper_expects() {
        // Simulate the F0 counter distribution: most counters hold small
        // offsets (0..8).  Total payload should be well under 8 bits/counter,
        // which is the property that gives the O(ε⁻²)-bit bound.
        let k = 1024usize;
        let mut v = Vla::new(k);
        let mut state = 12345u64;
        for i in 0..k {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Geometric-ish offsets.
            let val = (state >> 60).min(8);
            v.write(i, val);
        }
        assert!(
            v.payload_bits() < 4 * k as u64,
            "payload {} bits",
            v.payload_bits()
        );
        assert!(v.space_bits() < 12 * k as u64);
    }
}
