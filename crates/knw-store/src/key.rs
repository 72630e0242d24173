//! Key trait for the keyed sketch store.
//!
//! A store key must be hashable (the store finds a key's slot through a
//! hash index), totally ordered (every walk — snapshots, wire encoding,
//! merges, estimate sums — sorts the keys and visits them in one global
//! order), serializable (keys travel in the store wire format), and
//! reducible to a stable `u64` routing key so the store shards across
//! [`ShardedEngine`](knw_engine::ShardedEngine) and `knw-cluster` workers
//! through the same single [`shard_for_key`](knw_hash::rng::shard_for_key)
//! used everywhere else.

use serde::{Deserialize, Serialize};

use knw_hash::rng::mix64;

/// A key type usable with [`SketchStore`](crate::SketchStore).
///
/// # Contract
///
/// [`route_key`](Self::route_key) must be a *pure* function of the key value
/// — equal keys yield equal routing keys on every process and every run.
/// Shard placement, the per-key sketch seed, and therefore per-key sketch
/// *state* all derive from it, so a non-deterministic implementation would
/// break the store's bit-identical shard-merge guarantee.
///
/// `Hash` (consistent with `Eq`) only indexes keys: the store's hasher is
/// randomly seeded per store, and no observable order, seed or byte ever
/// depends on a hash value. `Ord` alone orders every walk.
pub trait StoreKey:
    Clone + Ord + std::hash::Hash + Send + Serialize + Deserialize + 'static
{
    /// Stable 64-bit routing key for sharding and per-key seed derivation.
    fn route_key(&self) -> u64;
}

impl StoreKey for u64 {
    /// Identity: `shard_for_key` and the per-key seed derivation already mix.
    fn route_key(&self) -> u64 {
        *self
    }
}

impl StoreKey for u32 {
    fn route_key(&self) -> u64 {
        u64::from(*self)
    }
}

impl StoreKey for String {
    /// SplitMix64-finalizer fold over the bytes, closed with the length so
    /// `"ab"` and `"ab\0"`-style prefixes cannot collide trivially.
    fn route_key(&self) -> u64 {
        let mut acc = 0x517c_c1b7_2722_0a95_u64;
        for &byte in self.as_bytes() {
            acc = mix64(acc ^ u64::from(byte));
        }
        mix64(acc ^ self.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_routes_identically_to_itself() {
        assert_eq!(42u64.route_key(), 42);
        assert_eq!(7u32.route_key(), 7);
    }

    #[test]
    fn string_route_keys_are_stable_and_spread() {
        let a = String::from("user:1").route_key();
        let b = String::from("user:1").route_key();
        let c = String::from("user:2").route_key();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Empty and near-empty strings still produce mixed outputs.
        assert_ne!(String::new().route_key(), String::from("\0").route_key());
    }
}
