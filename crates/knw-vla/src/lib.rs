//! Packed bit vectors and a variable-bit-length array (VLA).
//!
//! The space-optimal F0 algorithm of Kane–Nelson–Woodruff stores `K = 1/ε²`
//! counters whose *combined* size must stay `O(K)` bits even though individual
//! counters have unequal bit lengths (`O(1 + log(C_i + 2))` bits each).  The
//! paper cites the Blandford–Blelloch "variable-bit-length array" (Definition 1
//! and Theorem 8) as the data structure that supports `O(1)` reads and writes
//! over such entries in `O(n + Σ len(C_i))` bits.
//!
//! This crate provides:
//!
//! * [`bitvec::BitVec`] — a packed bit vector with arbitrary-width field reads
//!   and writes crossing word boundaries, the raw storage substrate;
//! * [`bitvec::FixedWidthVec`] — a vector of fixed-width packed integers (used
//!   by the RoughEstimator's `log log n`-bit counters and the baselines);
//! * [`vla::Vla`] — the variable-bit-length array itself, storing entries in
//!   per-block arenas with O(1) worst-case reads and O(1) amortized writes
//!   (block rebuilds are bounded by a constant fraction of block size, and the
//!   F0 sketch additionally bounds total growth via its `A ≤ 3K` FAIL check).

pub mod bitvec;
pub mod vla;

pub use bitvec::{BitVec, FixedWidthVec};
pub use vla::Vla;

pub use knw_hash::SpaceUsage;
