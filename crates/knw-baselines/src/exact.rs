//! Exact distinct counting — the ground truth every experiment compares
//! against, and the "linear space" strawman of the paper's introduction
//! (exact computation of F0 requires Ω(n) bits \[3\]).

use knw_core::{CardinalityEstimator, MergeableEstimator, SketchError};
use knw_hash::SpaceUsage;
use std::collections::HashSet;

/// An exact distinct counter backed by a hash set.
///
/// The wire form is the codec's set, written in increasing item order, so
/// a state has one encoding whatever order its items came in; decoding
/// reads them in any order.
#[derive(Debug, Clone, Default, serde::Deserialize)]
pub struct ExactCounter {
    seen: HashSet<u64>,
}

impl serde::Serialize for ExactCounter {
    fn serialize(&self, out: &mut Vec<u8>) {
        crate::write_sorted(&self.seen, out);
    }
}

impl ExactCounter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact number of distinct items inserted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Whether `item` has been seen.
    #[must_use]
    pub fn contains(&self, item: u64) -> bool {
        self.seen.contains(&item)
    }
}

impl MergeableEstimator for ExactCounter {
    type MergeError = SketchError;

    /// Plain set union; exact counters are unconditionally compatible.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.seen.extend(other.seen.iter().copied());
        Ok(())
    }
}

impl SpaceUsage for ExactCounter {
    fn space_bits(&self) -> u64 {
        // 64 bits per stored key; table overhead ignored, which only makes the
        // exact baseline look better than it is.
        self.seen.len() as u64 * 64
    }
}

impl CardinalityEstimator for ExactCounter {
    fn insert(&mut self, item: u64) {
        self.seen.insert(item);
    }

    fn estimate(&self) -> f64 {
        self.seen.len() as f64
    }

    fn name(&self) -> &'static str {
        "exact"
    }
}

/// An exact L0 (Hamming norm) counter maintaining the full frequency vector,
/// used as ground truth by the turnstile experiments.
///
/// The wire form is the codec's map (a `u64` count, then the
/// `(item, frequency)` pairs) and the nonzero count.  The pairs are written
/// in increasing item order, so a state has one encoding whatever order
/// its updates came in; decoding reads them in any order.
#[derive(Debug, Clone, Default, serde::Deserialize)]
pub struct ExactL0Counter {
    frequencies: std::collections::HashMap<u64, i64>,
    nonzero: u64,
}

impl serde::Serialize for ExactL0Counter {
    fn serialize(&self, out: &mut Vec<u8>) {
        let mut pairs: Vec<(u64, i64)> = self.frequencies.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        (pairs.len() as u64).serialize(out);
        for (item, frequency) in pairs {
            item.serialize(out);
            frequency.serialize(out);
        }
        self.nonzero.serialize(out);
    }
}

impl ExactL0Counter {
    /// Creates an empty counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact Hamming norm.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.nonzero
    }

    /// The exact frequency of `item`.
    #[must_use]
    pub fn frequency(&self, item: u64) -> i64 {
        self.frequencies.get(&item).copied().unwrap_or(0)
    }
}

impl MergeableEstimator for ExactL0Counter {
    type MergeError = SketchError;

    /// Coordinate-wise frequency addition; exact counters are unconditionally
    /// compatible.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        for (&item, &delta) in &other.frequencies {
            knw_core::TurnstileEstimator::update(self, item, delta);
        }
        Ok(())
    }
}

impl SpaceUsage for ExactL0Counter {
    fn space_bits(&self) -> u64 {
        self.frequencies.len() as u64 * 128
    }
}

impl knw_core::TurnstileEstimator for ExactL0Counter {
    fn update(&mut self, item: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let entry = self.frequencies.entry(item).or_insert(0);
        let was_zero = *entry == 0;
        *entry += delta;
        let is_zero = *entry == 0;
        match (was_zero, is_zero) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
        if is_zero {
            self.frequencies.remove(&item);
        }
    }

    fn estimate(&self) -> f64 {
        self.nonzero as f64
    }

    fn name(&self) -> &'static str {
        "exact-l0"
    }

    fn clear(&mut self) {
        self.frequencies.clear();
        self.nonzero = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knw_core::TurnstileEstimator;

    #[test]
    fn exact_counts_distinct_items() {
        let mut c = ExactCounter::new();
        for i in 0..1000u64 {
            c.insert(i % 137);
        }
        assert_eq!(c.count(), 137);
        assert_eq!(c.estimate(), 137.0);
        assert!(c.contains(5));
        assert!(!c.contains(500));
        assert_eq!(c.space_bits(), 137 * 64);
    }

    #[test]
    fn exact_bytes_are_canonical() {
        let items: Vec<u64> = (0..3_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1_000)
            .collect();
        let (mut forward, mut backward) = (ExactCounter::new(), ExactCounter::new());
        items.iter().for_each(|&item| forward.insert(item));
        items.iter().rev().for_each(|&item| backward.insert(item));
        assert_eq!(
            crate::canonical_pin(&forward, &backward),
            (PINNED_EXACT_LEN, PINNED_EXACT_DIGEST)
        );
    }

    const PINNED_EXACT_LEN: usize = 6_936;
    const PINNED_EXACT_DIGEST: u64 = 10_362_426_488_420_925_193;

    #[test]
    fn exact_l0_tracks_cancellation() {
        let mut c = ExactL0Counter::new();
        c.update(1, 5);
        c.update(2, -3);
        c.update(1, -5);
        assert_eq!(c.count(), 1);
        assert_eq!(c.frequency(1), 0);
        assert_eq!(c.frequency(2), -3);
        c.update(2, 3);
        assert_eq!(c.count(), 0);
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn exact_l0_bytes_are_canonical() {
        let updates: Vec<(u64, i64)> = (0..2_000u64)
            .map(|i| {
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 700,
                    (i % 7) as i64 - 3,
                )
            })
            .collect();
        let mut forward = ExactL0Counter::new();
        let mut backward = ExactL0Counter::new();
        for &(item, delta) in &updates {
            forward.update(item, delta);
        }
        for &(item, delta) in updates.iter().rev() {
            backward.update(item, delta);
        }
        let bytes = serde::to_bytes(&forward);
        assert_eq!(serde::to_bytes(&backward), bytes, "update order shows");
        let back: ExactL0Counter = serde::from_bytes(&bytes).expect("round trip");
        assert_eq!(serde::to_bytes(&back), bytes, "decode then encode");
        assert_eq!(back.count(), forward.count());
    }

    #[test]
    fn exact_l0_zero_delta_is_noop() {
        let mut c = ExactL0Counter::new();
        c.update(7, 0);
        assert_eq!(c.count(), 0);
    }
}
