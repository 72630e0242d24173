//! A log-linear (HDR-style) histogram over `u64` values, cheap enough for
//! hot paths: recording a value is three relaxed atomic adds and one
//! atomic max, with the bucket index computed from the value's leading
//! zeros — no floating point, no locks, no allocation.
//!
//! # Bucket layout
//!
//! Values below `SUB` (16) get one exact bucket each.  Above that, each
//! power-of-two octave is split into `SUB` equal sub-buckets — so the
//! relative width of any bucket is at most 1/16 (~6%), uniformly across
//! the range.  Values at or above `2^MAX_EXP` (`2^40`, about 18 minutes
//! when recording nanoseconds) saturate into one final overflow bucket
//! rather than widening the array.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;

/// Sub-buckets per octave (and the bound below which buckets are exact).
const SUB: usize = 1 << SUB_BITS;

/// Values at or above `2^MAX_EXP` saturate into the final bucket.
const MAX_EXP: u32 = 40;

/// Total bucket count: 16 exact unit buckets, 16 sub-buckets for each of
/// the octaves `[2^4, 2^40)`, and one saturation bucket on top.
pub const BUCKETS: usize = (MAX_EXP - SUB_BITS) as usize * SUB + SUB + 1;

/// The bucket index recording `value` lands in.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    (shift as usize) * SUB + (value >> shift) as usize
}

/// The smallest value that lands in bucket `index` — the inverse of
/// [`bucket_index`] on bucket boundaries.  Quantile queries report this
/// bound, so their answers are deterministic and never overshoot.
#[must_use]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    if index >= BUCKETS - 1 {
        return 1u64 << MAX_EXP;
    }
    let octave = index / SUB; // 1 for [16, 32), 2 for [32, 64), ...
    let sub = index % SUB;
    ((SUB + sub) as u64) << (octave - 1)
}

/// A concurrent log-linear histogram; every operation is lock-free and
/// uses relaxed ordering (counts are monotone — readers only need a
/// consistent-enough view for reporting).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records an elapsed duration, in nanoseconds (saturating).
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The lower bound of the bucket holding the `q`-quantile observation
    /// (0 when empty; `q` is clamped to `[0, 1]`).  Deterministic: the
    /// reported value never exceeds any observation in the bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank of the quantile observation, 1-based.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_lower_bound(index);
            }
        }
        // Relaxed loads may momentarily undercount; fall back to the max.
        self.max()
    }

    /// Folds `other`'s observations into `self` (bucket-wise addition —
    /// exact, like every merge in this workspace).
    pub fn merge_from(&self, other: &Histogram) {
        for (into, from) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = from.load(Ordering::Relaxed);
            if n > 0 {
                into.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The raw bucket count at `index` (reporting / test hook).
    #[must_use]
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The first 16 values get exact buckets; after that, bucket width
    /// doubles each octave with 16 sub-buckets — pinned at the octave
    /// boundaries and one step inside each.
    #[test]
    fn bucket_boundaries_follow_the_log_linear_law() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v} is exact");
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // [16, 32): still width 1 (the first octave's sub-buckets).
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        // [32, 64): width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32, "33 shares 32's bucket");
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(63), 47);
        // Octave boundaries land on fresh buckets with exact lower bounds.
        for exp in 4..40u32 {
            let v = 1u64 << exp;
            let index = bucket_index(v);
            assert_eq!(bucket_lower_bound(index), v, "2^{exp}");
            assert_eq!(bucket_index(v - 1), index - 1, "2^{exp} - 1");
        }
        // Every index round-trips through its own lower bound.
        for index in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(index)), index);
        }
    }

    /// Values at and beyond `2^40` all saturate into the single top
    /// bucket instead of widening the array.
    #[test]
    fn top_bucket_saturates() {
        assert_eq!(bucket_index(1 << 40), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index((1 << 40) - 1), BUCKETS - 2);
        let h = Histogram::new();
        h.record(1 << 40);
        h.record(u64::MAX);
        assert_eq!(h.bucket_count(BUCKETS - 1), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), 1 << 40, "the top bucket's lower bound");
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(0.0), 1);
        // Small values are exact; larger quantiles report bucket lower
        // bounds at most one sub-bucket (≤ ~6%) below the true value.
        assert_eq!(h.quantile(0.10), 10);
        let p50 = h.quantile(0.5);
        assert!((48..=50).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((96..=99).contains(&p99), "p99 = {p99}");
        assert_eq!(Histogram::new().quantile(0.5), 0, "empty histogram");
    }

    /// Merging two histograms is bucket-wise exact: the merged counts,
    /// sum, max and quantiles equal those of the concatenated stream.
    #[test]
    fn merge_is_bucket_wise_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 1 << 20] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 40, 7_777, u64::MAX] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.max(), both.max());
        for index in 0..BUCKETS {
            assert_eq!(a.bucket_count(index), both.bucket_count(index), "{index}");
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "q = {q}");
        }
    }

    /// Concurrent recorders lose no observations (the whole point of the
    /// relaxed atomic design).
    #[test]
    fn concurrent_increments_lose_nothing() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.max(), n - 1);
        let total: u64 = (0..BUCKETS).map(|i| h.bucket_count(i)).sum();
        assert_eq!(total, n, "every observation landed in exactly one bucket");
    }
}
