//! A self-contained stand-in for the [serde](https://crates.io/crates/serde)
//! serialization framework, implementing the API subset the KNW workspace
//! uses: `#[derive(serde::Serialize, serde::Deserialize)]` on the sketch
//! types, plus [`to_bytes`] / [`from_bytes`] entry points over a compact
//! little-endian binary codec.
//!
//! The workspace builds in offline environments with no crates.io access, so
//! the real serde cannot be a dependency (the same situation as the
//! `criterion` and `proptest` shims next door).  The derive attributes on the
//! sketch types are written exactly as they would be against the real crate;
//! swapping this shim for real serde + a binary format crate (e.g. bincode)
//! requires manifest changes only.
//!
//! # Codec
//!
//! * fixed-width integers and floats: little-endian bytes (`usize` as
//!   `u64`, `f64`/`f32` via their IEEE bit patterns);
//! * `bool`: one byte, `0` or `1`;
//! * sequences (`Vec`, sets, maps, `String`): a `u64` length prefix followed
//!   by the elements; fixed-size arrays and tuples: the elements, no prefix;
//! * integer sequences (`Vec<u8>`, `Vec<u32>`, `Vec<u64>`, …) are bulk-coded:
//!   the same bytes as element-by-element coding, but written with one copy
//!   and read with one bounds check per sequence, through the
//!   [`Serialize::serialize_slice`] / [`Deserialize::deserialize_vec`] hooks;
//! * `Option`: a one-byte tag followed by the payload if present;
//! * derived structs: the fields in declaration order; derived enums: a
//!   `u32` variant index followed by the variant's fields.
//!
//! Deserialization is strict at the *codec* level: trailing bytes, truncated
//! input and invalid tags are errors, never panics.  Like the real serde
//! derive, the generated `Deserialize` impls do **not** validate cross-field
//! invariants (e.g. that a counter vector's length matches the geometry
//! recorded next to it) — a peer that can forge internally inconsistent but
//! well-formed bytes is outside the threat model, exactly as with
//! serde+bincode.  The merge paths defend the invariants that matter for
//! exactness with their own compatibility and geometry checks.
//!
//! Every element a generated impl decodes is read from the input, so the
//! memory a decode allocates stays bounded by the input's length.  A
//! hand-written impl that expands its input (the sparse counter trials of
//! `knw_core::l0::small`) has to bound the geometry it declares itself,
//! before it allocates.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};

pub use serde_derive::{Deserialize, Serialize};

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde shim: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself into a byte buffer.
pub trait Serialize {
    /// Appends the binary encoding of `self` to `out`.
    fn serialize(&self, out: &mut Vec<u8>);

    /// Appends the encodings of `items` back to back, with no length prefix.
    ///
    /// `Vec<T>` calls this for its elements.  The provided body makes one
    /// [`serialize`](Self::serialize) call per element; the integer types
    /// override it with one bulk write of the same bytes.
    fn serialize_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.serialize(out);
        }
    }
}

/// A type that can reconstruct itself from a byte slice.
///
/// Implementations consume their encoding from the front of `input`,
/// advancing the slice, so fields compose by sequential calls.
pub trait Deserialize: Sized {
    /// Reads one value from the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or malformed input.
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error>;

    /// Reads `len` values encoded back to back, the inverse of
    /// [`Serialize::serialize_slice`].
    ///
    /// The provided body makes one [`deserialize`](Self::deserialize) call
    /// per element; the integer types override it with one bounds check for
    /// the whole sequence.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or malformed input.
    fn deserialize_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
        // Guard against absurd length prefixes on malformed input: never
        // pre-reserve more than the remaining input could possibly encode.
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(Self::deserialize(input)?);
        }
        Ok(out)
    }
}

/// Serializes a value to a byte vector.
#[must_use]
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    out
}

/// Deserializes a value from a byte slice, requiring the whole input to be
/// consumed.
///
/// # Errors
///
/// Returns an error on truncated, malformed, or trailing input.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut input = bytes;
    let value = T::deserialize(&mut input)?;
    if !input.is_empty() {
        return Err(Error::new(format!(
            "{} trailing bytes after deserializing",
            input.len()
        )));
    }
    Ok(value)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    if input.len() < n {
        return Err(Error::new(format!(
            "input truncated: wanted {n} bytes, have {}",
            input.len()
        )));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn read_len(input: &mut &[u8]) -> Result<usize, Error> {
    let len = u64::deserialize(input)?;
    usize::try_from(len).map_err(|_| Error::new("length prefix exceeds usize"))
}

/// Takes the bytes of `len` values of `width` bytes each from the front of
/// `input`: one bounds check for the whole sequence.
fn take_seq<'a>(input: &mut &'a [u8], len: usize, width: usize) -> Result<&'a [u8], Error> {
    let total = len
        .checked_mul(width)
        .ok_or_else(|| Error::new(format!("sequence of {len} x {width} bytes overflows")))?;
    take(input, total)
}

impl Serialize for u8 {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn serialize_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl Deserialize for u8 {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(take(input, 1)?[0])
    }

    fn deserialize_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
        Ok(take(input, len)?.to_vec())
    }
}

macro_rules! impl_le_bytes {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn serialize_slice(items: &[Self], out: &mut Vec<u8>) {
                const WIDTH: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + items.len() * WIDTH, 0);
                for (slot, item) in out[start..].chunks_exact_mut(WIDTH).zip(items) {
                    slot.copy_from_slice(&item.to_le_bytes());
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact size")))
            }

            fn deserialize_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, Error> {
                const WIDTH: usize = std::mem::size_of::<$t>();
                let bytes = take_seq(input, len, WIDTH)?;
                Ok(bytes
                    .chunks_exact(WIDTH)
                    .map(|chunk| <$t>::from_le_bytes(chunk.try_into().expect("exact size")))
                    .collect())
            }
        }
    )*};
}

impl_le_bytes!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Serialize for usize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as u64).serialize(out);
    }
}

impl Deserialize for usize {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let v = u64::deserialize(input)?;
        usize::try_from(v).map_err(|_| Error::new("usize value out of range"))
    }
}

impl Serialize for isize {
    fn serialize(&self, out: &mut Vec<u8>) {
        (*self as i64).serialize(out);
    }
}

impl Deserialize for isize {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let v = i64::deserialize(input)?;
        isize::try_from(v).map_err(|_| Error::new("isize value out of range"))
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f64 {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(f64::from_bits(u64::deserialize(input)?))
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.to_bits().serialize(out);
    }
}

impl Deserialize for f32 {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(f32::from_bits(u32::deserialize(input)?))
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Deserialize for bool {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::new(format!("invalid bool byte {other}"))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Deserialize for String {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::new("invalid utf-8 in string"))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        T::serialize_slice(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        T::deserialize_vec(len, input)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.serialize(out);
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        match u8::deserialize(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(input)?)),
            other => Err(Error::new(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.as_ref().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(input)?))
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Vec<u8>) {
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::deserialize(input)?);
        }
        items
            .try_into()
            .map_err(|_| Error::new("array length mismatch"))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Vec<u8>) {
                $(self.$idx.serialize(out);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
                Ok(($($name::deserialize(input)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::deserialize(input)?);
        }
        Ok(out)
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (key, value) in self {
            key.serialize(out);
            value.serialize(out);
        }
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let key = K::deserialize(input)?;
            let value = V::deserialize(input)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

impl<T: Serialize + Eq + Hash, S: BuildHasher> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for item in self {
            item.serialize(out);
        }
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut out = HashSet::with_capacity_and_hasher(len.min(input.len()), S::default());
        for _ in 0..len {
            out.insert(T::deserialize(input)?);
        }
        Ok(out)
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for (key, value) in self {
            key.serialize(out);
            value.serialize(out);
        }
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        let len = read_len(input)?;
        let mut out = HashMap::with_capacity_and_hasher(len.min(input.len()), S::default());
        for _ in 0..len {
            let key = K::deserialize(input)?;
            let value = V::deserialize(input)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("round trip");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-1i64);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(3.25f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(String::from("hello"));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let bytes = to_bytes(&f64::NAN);
        let back: f64 = from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip([5u64; 256]);
        round_trip((1u64, -2i64));
        round_trip(BTreeSet::from([3u64, 1, 2]));
        round_trip(BTreeMap::from([(1u64, -5i64), (9, 9)]));
        round_trip(HashSet::<u64>::from_iter(0..100));
        round_trip(HashMap::<u64, i64>::from_iter(
            (0..50i64).map(|i| (i as u64, -i)),
        ));
        round_trip(vec![[1u64; 256], [2u64; 256]]);
        round_trip(vec![(0u64, 1u64), (2, 3)]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert!(from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes::<u64>(&[1, 2, 3]).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&5u64);
        bytes.push(0);
        assert!(from_bytes::<u64>(&bytes).is_err());
    }

    #[test]
    fn malicious_length_prefix_does_not_allocate() {
        // A length prefix of u64::MAX with no payload must error, not OOM.
        let bytes = to_bytes(&u64::MAX);
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }

    /// The element-by-element encoding `Vec<T>` had before the bulk hooks.
    fn per_element_bytes<T: Serialize>(items: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        (items.len() as u64).serialize(&mut out);
        for item in items {
            item.serialize(&mut out);
        }
        out
    }

    macro_rules! check_bulk_width {
        ($($t:ty),*) => {$({
            let items: Vec<$t> = (0..37u8)
                .map(|i| <$t>::from_le_bytes([i.wrapping_mul(151) ^ 0x5a; std::mem::size_of::<$t>()]))
                .collect();
            let bytes = to_bytes(&items);
            assert_eq!(bytes, per_element_bytes(&items), "{} bulk bytes", stringify!($t));
            assert_eq!(from_bytes::<Vec<$t>>(&bytes).expect("round trip"), items);
            assert!(
                from_bytes::<Vec<$t>>(&bytes[..bytes.len() - 1]).is_err(),
                "{} truncated input accepted",
                stringify!($t)
            );
        })*};
    }

    #[test]
    fn bulk_integer_sequences_match_per_element_bytes() {
        check_bulk_width!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(to_bytes(&empty), per_element_bytes(&empty));
    }

    #[test]
    fn bulk_length_times_width_overflow_is_an_error() {
        for width in [2usize, 4, 8, 16] {
            let len = (usize::MAX / width + 1) as u64;
            let mut bytes = to_bytes(&len);
            bytes.extend_from_slice(&[0; 64]);
            let err = match width {
                2 => from_bytes::<Vec<u16>>(&bytes).map(drop),
                4 => from_bytes::<Vec<u32>>(&bytes).map(drop),
                8 => from_bytes::<Vec<u64>>(&bytes).map(drop),
                _ => from_bytes::<Vec<u128>>(&bytes).map(drop),
            }
            .expect_err("overflowing sequence accepted");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        // A byte sequence longer than the input is plain truncation.
        assert!(from_bytes::<Vec<u8>>(&to_bytes(&u64::MAX)).is_err());
    }

    #[test]
    fn invalid_tags_error() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[7]).is_err());
    }
}
