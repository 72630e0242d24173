//! Exact small-L0 counting (Lemma 8 of the paper).
//!
//! Given the promise `L0 ≤ c`, the Hamming norm can be computed *exactly* with
//! probability `1 − δ` in `O(c² · log log(mM))` bits: hash the universe
//! pairwise-independently into `Θ(c²)` buckets, keep in each bucket the sum of
//! frequencies **modulo a random prime `p`** of polylogarithmic size, and
//! report the number of nonzero buckets; take the maximum over `O(log(1/δ))`
//! independent trials.
//!
//! Two failure modes exist and both only ever cause *under*-counting, which is
//! why the maximum over trials works:
//!
//! * two nonzero coordinates collide in a bucket and their frequencies cancel
//!   (or simply merge) — avoided per trial with constant probability because
//!   the bucket count is `Ω(c²)` (birthday bound);
//! * `p` divides some nonzero frequency — made rare by drawing `p` at random
//!   from an interval containing many more primes than any frequency has
//!   prime factors.
//!
//! The structure never over-counts beyond `L0` as long as the promise holds
//! (each nonzero bucket needs at least one nonzero coordinate hashed into it).
//!
//! This structure is used twice: as the per-level detector inside
//! [`RoughL0Estimator`](crate::l0::rough::RoughL0Estimator) (with `c = 141`,
//! `δ = 1/16`, per Appendix A.3) and as the tiny-cardinality path of the full
//! [`KnwL0Sketch`](crate::l0::KnwL0Sketch) (with `c = 100`).
//!
//! # Forms, in memory and on the wire
//!
//! The rough oracle's deep levels see few coordinates, so most of its
//! `2c²`-bucket trials are nearly empty.  A trial with at most half its
//! buckets nonzero is sent as its nonzero counters, `(index, value)` pairs
//! in bucket order, and any other as the dense counter array; the form
//! follows from the state, so each state has one encoding.  In memory a
//! trial holds the same forms: the pairs in an ordered hash table, or the
//! array.  So encoding is a walk over what the trial holds, decoding copies
//! the pairs in, and merging two sparse trials walks both, or gallops the
//! shorter into a much longer one: each costs the nonzero counters, not
//! the buckets.  A trial starts empty and allocates nothing; updates grow
//! its table and switch it to the array once a table would take half the
//! array's bytes.  The per-trial occupancy count is not on the wire:
//! decoding derives it from the counters, after checking every index and
//! value.
//!
//! An empty sparse trial takes a few dozen bytes whatever its bucket count,
//! yet updates can grow it into its full counter array.  The decoder
//! therefore checks the declared geometry (capacity and trial count) before
//! it reads any counters: at most `2^22` counters for a structure on its
//! own, and exactly the geometry [`ExactSmallL0::new`] gives it where a
//! sketch embeds one (see `ExactSmallL0::deserialize_as`).

use knw_hash::pairwise::PairwiseHash;
use knw_hash::primes::random_prime_in_range;
use knw_hash::rng::SplitMix64;
use knw_hash::SpaceUsage;
use serde::{Deserialize, Error, Serialize};
use std::hint::select_unpredictable;

/// The interval each trial draws its prime from: ~135 000 candidates, so the
/// probability that the prime divides any fixed bounded frequency is tiny,
/// while counters (and the sum of two) stay comfortably within a `u32`.
const PRIME_RANGE: std::ops::RangeInclusive<u64> = (1 << 17)..=(1 << 21);

/// Largest number of counters (trials × buckets, 16 MiB of `u32`s) one
/// structure may hold.  [`ExactSmallL0::new`] refuses larger geometries, and
/// decoding checks it before any counter array is allocated.
const MAX_COUNTERS: u64 = 1 << 22;

/// The bucket count `max(2c², 16)` of a structure with `trials` trials of
/// capacity `capacity`, or `None` if that geometry is empty or holds more
/// than [`MAX_COUNTERS`] counters.
fn buckets_for(capacity: u64, trials: u64) -> Option<u64> {
    // Θ(c²) buckets: with 2c² buckets the per-trial collision probability
    // among ≤ c surviving coordinates is below 1/4.
    let buckets = capacity.checked_mul(capacity)?.checked_mul(2)?.max(16);
    let fits = capacity >= 1 && trials >= 1 && trials.checked_mul(buckets)? <= MAX_COUNTERS;
    fits.then_some(buckets)
}

/// O(log(1/δ)) trials; each trial under-counts with probability ≤ 1/4, so
/// ⌈log₂(1/δ)⌉ trials push the failure probability below δ (plus the
/// negligible prime-divisibility term).
fn trials_for(delta: f64) -> u64 {
    ((1.0 / delta).log2().ceil() as u64).max(1)
}

/// Wire form tag: the nonzero counters as `(u32 index, u32 value)` pairs.
const FORM_SPARSE: u8 = 0;
/// Wire form tag: every counter, as a `u32` array.
const FORM_DENSE: u8 = 1;

/// `(a + b) mod p` for `a, b < p` and a prime of [`PRIME_RANGE`], so the
/// sum fits a `u32`: the sum or the sum less `p`, whichever is smaller
/// (less `p` wraps around below `p`), so no branch and no division.
#[inline]
fn add_mod(a: u32, b: u32, p: u32) -> u32 {
    let sum = a + b;
    sum.min(sum.wrapping_sub(p))
}

/// `delta mod p` in `[0, p)`; the division only runs for `|delta| ≥ p`.
#[inline]
fn reduce_delta(delta: i64, p: u64) -> u64 {
    let signed_p = p as i64;
    if delta >= 0 && delta < signed_p {
        delta as u64
    } else if delta < 0 && delta > -signed_p {
        (delta + signed_p) as u64
    } else {
        delta.rem_euclid(signed_p) as u64
    }
}

/// One slot of a sparse trial's table: a bucket and its counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    bucket: u32,
    value: u32,
}

/// An empty slot.  Only nonzero counters are stored, so a counter of 0
/// marks it; its bucket, above every real one, ends a lookup's probe.
const EMPTY: Slot = Slot {
    bucket: u32::MAX,
    value: 0,
};

/// The nonzero counters of a sparse trial: an ordered hash table (Amble and
/// Knuth, "Ordered hash tables", 1974) keyed by bucket.
///
/// A bucket's home slot `(bucket · scale) >> 32` is monotone in the bucket,
/// collisions probe linearly into an overflow tail instead of wrapping
/// around, and every entry sits at the first free slot at or after its home
/// in increasing bucket order.  So walking the slots yields the entries in
/// increasing bucket order.
///
/// A decoded or merged table is *packed*: `scale` 0 puts every home at slot
/// 0, so its entries fill its slots in order — the wire pairs as they are —
/// and it takes exactly the bytes they do.  The first update lays it out
/// again with room (see [`table_len`]).
#[derive(Debug, Clone, Default)]
struct Table {
    /// The home slot multiplier: `⌊home slots · 2^32 / buckets⌋`, or 0.
    scale: u64,
    /// The home slots, then the overflow tail (an eighth of the slots).
    slots: Vec<Slot>,
}

/// The slots of a table laid out for `count` entries: four times as many,
/// so the home slots start at load 2/7, plus the tail.
///
/// Lookups want room: most of them stop at the home slot, which keeps a
/// table update near the cost of an array update.  Encoding wants few
/// slots: it walks every slot of a table, holes included, and that walk is
/// bound by memory.  Measured on a 1.4 MB churn shard (ε = 0.05, n = 2^24,
/// 14 alternating runs each, 2-vCPU Xeon): twice as many slots with home
/// load up to ¾ encoded 11% faster but ingested 6.6% slower (10 of 14
/// pairs), and three times with load up to ⅔ ingested slower in 13 of 14.
/// Ingest speed is what the roomy layout is for, so it stays.
fn table_len(count: u64) -> usize {
    (count as usize * 4).max(16)
}

/// The home slots of a `len`-slot table: all but its tail.
fn home_slots(len: usize) -> usize {
    len - len / 8
}

/// Whether `count` entries may sit in a `len`-slot table: home load ≤ ½.
fn fits(count: u64, len: usize) -> bool {
    2 * count <= home_slots(len) as u64
}

impl Table {
    /// `entries` (increasing buckets, nonzero values) laid out in `len`
    /// slots with room, or `None` if they run past the tail.
    fn spread(len: usize, buckets: u64, entries: &[Slot]) -> Option<Self> {
        let mut table = Self {
            scale: ((home_slots(len) as u64) << 32) / buckets,
            slots: vec![EMPTY; len],
        };
        let mut next = 0;
        for &entry in entries {
            let at = table.home(entry.bucket).max(next);
            *table.slots.get_mut(at)? = entry;
            next = at + 1;
        }
        Some(table)
    }

    /// Packs the table in place: its entries, in order, at the front of
    /// its slots and nothing after them.  The slots keep their memory.
    fn pack(&mut self) {
        if self.scale == 0 {
            return;
        }
        let mut kept = 0;
        for at in 0..self.slots.len() {
            let slot = self.slots[at];
            self.slots[kept] = slot;
            kept += usize::from(slot.value != 0);
        }
        self.slots.truncate(kept);
        self.scale = 0;
    }

    #[inline]
    fn home(&self, bucket: u32) -> usize {
        ((u64::from(bucket) * self.scale) >> 32) as usize
    }

    /// `Ok` with the slot holding `bucket`, or `Err` with the slot where it
    /// belongs (possibly one past the end).
    #[inline]
    fn find(&self, bucket: u32) -> Result<usize, usize> {
        let mut at = self.home(bucket);
        while let Some(slot) = self.slots.get(at) {
            if slot.bucket >= bucket {
                return if slot.bucket == bucket {
                    Ok(at)
                } else {
                    Err(at)
                };
            }
            at += 1;
        }
        Err(at)
    }

    /// Puts `slot` at `at`, shifting the run there one slot right; `false`
    /// (and no change) unless the last slot is empty, so that every run
    /// ends inside the table.
    #[inline]
    fn insert(&mut self, at: usize, mut slot: Slot) -> bool {
        if self.slots.last().is_none_or(|last| last.value != 0) {
            return false;
        }
        for next in &mut self.slots[at..] {
            slot = std::mem::replace(next, slot);
            if slot.value == 0 {
                break;
            }
        }
        true
    }

    /// Empties slot `at`, shifting back each following entry of its run that
    /// may sit nearer its home, so no lookup ever crosses a hole.
    fn remove(&mut self, at: usize) {
        let mut hole = at;
        while let Some(&next) = self.slots.get(hole + 1) {
            if next.value == 0 || self.home(next.bucket) > hole {
                break;
            }
            self.slots[hole] = next;
            hole += 1;
        }
        self.slots[hole] = EMPTY;
    }
}

/// A trial's counters in memory: the nonzero ones in a [`Table`], or the
/// full array.
#[derive(Debug, Clone)]
enum Form {
    Sparse(Table),
    Dense(Vec<u32>),
}

impl Form {
    /// The form nonzero counters `entries` (increasing buckets) of
    /// `buckets` buckets are sent in: a packed table while at most half the
    /// buckets are nonzero, the array otherwise.
    fn packed(mut entries: Vec<Slot>, buckets: u64) -> Self {
        if Trial::is_sparse(entries.len() as u64, buckets) {
            entries.shrink_to_fit();
            return Self::Sparse(Table {
                scale: 0,
                slots: entries,
            });
        }
        Self::dense(&entries, buckets)
    }

    /// The form nonzero counters `entries` (increasing buckets) are updated
    /// in: a table of at least `min_len` slots laid out with room, while
    /// one of at most `buckets / 4` slots (half the array's bytes, at 8
    /// bytes a slot against 4 a bucket) has room for them, the array
    /// otherwise.  A table any larger saves little memory and is slower to
    /// update than the array.
    fn spread(entries: &[Slot], min_len: usize, buckets: u64) -> Self {
        let count = entries.len() as u64;
        let max_len = buckets as usize / 4;
        let mut len = table_len(count).max(min_len).min(max_len);
        while fits(count, len) {
            if let Some(table) = Table::spread(len, buckets, entries) {
                return Self::Sparse(table);
            }
            if len == max_len {
                break;
            }
            len = (2 * len).min(max_len);
        }
        Self::dense(entries, buckets)
    }

    fn dense(entries: &[Slot], buckets: u64) -> Self {
        let mut counters = vec![0u32; buckets as usize];
        for entry in entries {
            counters[entry.bucket as usize] = entry.value;
        }
        Self::Dense(counters)
    }
}

/// Adds `delta ∈ [1, prime)` to the counter of `bucket` in `counters`,
/// keeping `nonzero` their nonzero count, with no branch on the values.
#[inline]
fn add_to_array(counters: &mut [u32], nonzero: &mut u64, bucket: u32, delta: u32, prime: u32) {
    let counter = &mut counters[bucket as usize];
    let old = *counter;
    *counter = add_mod(old, delta, prime);
    *nonzero = *nonzero + u64::from(*counter != 0) - u64::from(old != 0);
}

/// A little-endian `u32` from four bytes.
#[inline]
fn word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// A run of nonzero counters in increasing bucket order, with no holes: a
/// packed table's slots, or a sparse trial's pairs on the wire.
trait Run {
    /// The number of counters in the run.
    fn count(&self) -> usize;

    /// Counter `index` of the run.
    fn at(&self, index: usize) -> Slot;
}

impl Run for [Slot] {
    fn count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn at(&self, index: usize) -> Slot {
        self[index]
    }
}

/// A sparse trial's `(u32 index, u32 value)` pairs as they sit on the wire.
struct WirePairs<'a>(&'a [u8]);

impl Run for WirePairs<'_> {
    fn count(&self) -> usize {
        self.0.len() / 8
    }

    #[inline]
    fn at(&self, index: usize) -> Slot {
        let pair = &self.0[8 * index..8 * index + 8];
        Slot {
            bucket: word(&pair[..4]),
            value: word(&pair[4..]),
        }
    }
}

/// [`merge_runs`] gallops when `theirs` holds fewer than one counter for
/// every `GALLOP_RATIO` of `mine`, and walks both runs otherwise.
///
/// Measured on a 2-vCPU Xeon (release, medians of 15 rounds of 2,000
/// merges of wire pairs into a resident run of 256, 1,024 or 4,096 random
/// buckets of the rough oracle's 39,762, with none or half of the incoming
/// buckets shared), galloping took this share of the walk's time:
///
/// | incoming / resident | 1/8 | 1/4 | 1/3 | 1/2 |
/// |---|---|---|---|---|
/// | galloping / walk | 0.38–0.45 | 0.54–0.70 | 0.69–0.86 | 0.87–1.13 |
const GALLOP_RATIO: usize = 3;

/// Adds the run `theirs` into the run `mine` mod `prime`, in place: the
/// nonzero entrywise sums, in increasing bucket order.
///
/// The two run lengths alone pick one of two strategies, at the crossover
/// [`GALLOP_RATIO`].  Runs of similar length are walked together
/// ([`walk_runs`]), which costs both runs.  A run much shorter than
/// `mine` (a worker's delta, folded into the accumulator's long runs at
/// every snapshot) gallops into it back to front ([`gallop_runs`]), which
/// costs its own length and a few block moves.  Either way a buffer that
/// must grow at least doubles, so a run folded into again and again stops
/// reallocating.
fn merge_runs<R: Run + ?Sized>(mine: &mut Vec<Slot>, theirs: &R, prime: u32) {
    if theirs.count() * GALLOP_RATIO < mine.len() {
        gallop_runs(mine, theirs, prime);
    } else {
        walk_runs(mine, theirs, prime);
    }
}

/// [`merge_runs`] for runs of similar length: one forward walk over both
/// with no branch on their contents.
///
/// Each step compares the two front buckets, adds the values the
/// comparisons select (a side not taken adds 0), writes the sum to the next
/// output slot and moves that slot on only if the sum is nonzero, then
/// advances each run whose bucket it took.  `mine` first moves to the back
/// of its buffer; the output, which never gets ahead of the input, fills it
/// from the front.
fn walk_runs<R: Run + ?Sized>(mine: &mut Vec<Slot>, theirs: &R, prime: u32) {
    let (ours, count) = (mine.len(), theirs.count());
    if ours == 0 {
        mine.extend((0..count).map(|index| theirs.at(index)));
        return;
    }
    let end = ours + count;
    if mine.capacity() < end {
        // Growing in place would copy `mine` twice, to grow and to move.
        let mut grown = Vec::with_capacity(end.max(2 * mine.capacity()));
        grown.resize(count, EMPTY);
        grown.extend_from_slice(mine);
        *mine = grown;
    } else {
        mine.resize(end, EMPTY);
        mine.copy_within(0..ours, count);
    }
    let (mut i, mut j, mut out) = (count, 0, 0);
    while i < end && j < count {
        let (x, y) = (mine[i], theirs.at(j));
        let (take_x, take_y) = (x.bucket <= y.bucket, y.bucket <= x.bucket);
        // Selects the compiler keeps as conditional moves; as plain `if`s
        // they become branches around the loads, taken half the time.
        let value = add_mod(
            select_unpredictable(take_x, x.value, 0),
            select_unpredictable(take_y, y.value, 0),
            prime,
        );
        mine[out] = Slot {
            bucket: x.bucket.min(y.bucket),
            value,
        };
        out += usize::from(value != 0);
        i += usize::from(take_x);
        j += usize::from(take_y);
    }
    // One run is used up; the rest of the other follows as it is.
    for j in j..count {
        mine[out] = theirs.at(j);
        out += 1;
    }
    mine.copy_within(i..end, out);
    mine.truncate(out + end - i);
}

/// [`merge_runs`] for a run `theirs` much shorter than `mine`, back to
/// front and in place (Hwang and Lin, "A simple algorithm for merging two
/// disjoint linearly ordered sets", 1972): `mine` grows by `theirs`'s
/// length, each incoming counter, from the last, gallops back to its
/// bucket, the stretch of `mine` above it moves up in one block, and the
/// sum lands below that (nothing if it is 0).  A bucket that combined or
/// cancelled leaves a gap, which one final move closes.
fn gallop_runs<R: Run + ?Sized>(mine: &mut Vec<Slot>, theirs: &R, prime: u32) {
    let (ours, count) = (mine.len(), theirs.count());
    mine.resize(ours + count, EMPTY);
    let end = mine.len();
    // `mine[..read]` is still to merge and `mine[write..]` is merged;
    // `write - read` is never below the counters of `theirs` still to go.
    let (mut read, mut write) = (ours, end);
    for index in (0..count).rev() {
        let mut slot = theirs.at(index);
        let above = gallop_back(&mine[..read], slot.bucket);
        let moved = read - above;
        mine.copy_within(above..read, write - moved);
        (read, write) = (above, write - moved);
        if let Some(at) = read.checked_sub(1) {
            if mine[at].bucket == slot.bucket {
                slot.value = add_mod(mine[at].value, slot.value, prime);
                read = at;
            }
        }
        if slot.value != 0 {
            write -= 1;
            mine[write] = slot;
        }
    }
    if write > read {
        mine.copy_within(write..end, read);
        mine.truncate(read + end - write);
    }
}

/// The start of the stretch of `run` above `bucket`: probes back from the
/// end at steps of 1, 2, 4, … and then searches the last step by halving,
/// so a stretch of `k` slots costs `O(log k)` comparisons.
fn gallop_back(run: &[Slot], bucket: u32) -> usize {
    let (mut above, mut step) = (run.len(), 1);
    while step <= above && run[above - step].bucket > bucket {
        above -= step;
        step *= 2;
    }
    let from = above.saturating_sub(step);
    from + run[from..above].partition_point(|slot| slot.bucket <= bucket)
}

/// Appends the nonzero counters of `counters` to `out`, in increasing
/// bucket order.
#[cfg(test)]
fn dense_entries(counters: &[u32], out: &mut Vec<Slot>) {
    let nonzero = counters.iter().enumerate().filter(|(_, &value)| value != 0);
    out.extend(nonzero.map(|(bucket, &value)| Slot {
        bucket: bucket as u32,
        value,
    }));
}

/// The entrywise sum of two tables' slots (holes allowed) the plain way,
/// one branch per entry: the oracle [`merge_runs`] is tested against.
#[cfg(test)]
fn sum_slots(a: &[Slot], b: &[Slot], prime: u64, out: &mut Vec<Slot>) {
    let mut a = a.iter().copied().filter(|slot| slot.value != 0);
    let mut b = b.iter().copied().filter(|slot| slot.value != 0);
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some(p), Some(q)) if p.bucket < q.bucket => {
                out.push(p);
                x = a.next();
            }
            (Some(p), Some(q)) if q.bucket < p.bucket => {
                out.push(q);
                y = b.next();
            }
            (Some(p), Some(q)) => {
                let value = (u64::from(p.value) + u64::from(q.value)) % prime;
                if value != 0 {
                    out.push(Slot {
                        value: value as u32,
                        ..p
                    });
                }
                (x, y) = (a.next(), b.next());
            }
            (Some(p), None) => {
                out.push(p);
                out.extend(a);
                return;
            }
            (None, Some(q)) => {
                out.push(q);
                out.extend(b);
                return;
            }
            (None, None) => return,
        }
    }
}

/// One trial of the Lemma 8 structure.
///
/// # Forms
///
/// A trial holds its counters in the form it is sent in (see the module
/// docs): a [`Table`] of the nonzero ones, or the array.  Decoding picks
/// the form from the count and leaves a table packed.  Merging leaves a
/// table packed too, and makes it the array once more than half the
/// buckets are nonzero; it walks both runs, or gallops a much shorter
/// incoming run into the table, and a table that must grow at least
/// doubles its buffer (see [`merge_runs`]).  Updates lay a table out with
/// room, delete an entry whose counter returns to 0 (so `nonzero` stays
/// the entry count), and switch to the array once a table with room would
/// take half its bytes.  An array stays an array as it empties, under
/// updates and merges alike, so a sketch merged into again and again keeps
/// its memory.  The form in memory never shows in the bytes, the estimate
/// or [`SpaceUsage`].
///
/// # Wire form
///
/// The codec is hand-written so that a trial costs what it holds: the hash
/// and the prime (`u64`), then a one-byte form tag:
///
/// * [`FORM_SPARSE`] when at most half the buckets are nonzero: a `u64` pair
///   count followed by the nonzero counters as `(u32 index, u32 value)`
///   pairs in increasing bucket order;
/// * [`FORM_DENSE`] otherwise: all counters as `u32`s, with no length
///   prefix (the bucket count gives it).
///
/// The bucket count is not on the wire either: the enclosing structure
/// derives it from its capacity and passes it to [`read`](Self::read).  The
/// wire form is a function of the state, so every trial has exactly one
/// encoding, and decoding rejects the other form, out-of-order or
/// out-of-range indices, zero values and values `≥ prime`.  `nonzero` is
/// not on the wire: decoding derives it from the validated counters (the
/// pair count, or a count over the dense array), never from a sent value.
///
/// Both forms occur.  Over a 10 s `l0_serve_churn` benchmark run (universe
/// 2^24, ε = 0.05; 905 worker shards of 105 trials each) all 90,500
/// rough-oracle trials were sparse (720 nonzero of 39,762 buckets on
/// average), and 4,086 of the 4,525 exact-structure trials were dense:
/// that structure runs far past its capacity of 100, and its dense trials
/// held 10,014–16,031 nonzero of 20,000 buckets.
#[derive(Debug, Clone)]
struct Trial {
    /// Pairwise hash from the universe into the buckets.
    hash: PairwiseHash,
    /// The random prime modulus for this trial.
    prime: u64,
    /// The counters, each in `[0, prime)`.
    form: Form,
    /// Number of nonzero counters, maintained incrementally.
    nonzero: u64,
}

impl Trial {
    fn new(buckets: u64, rng: &mut SplitMix64) -> Self {
        let prime = random_prime_in_range(*PRIME_RANGE.start(), *PRIME_RANGE.end(), rng);
        Self {
            hash: PairwiseHash::random(buckets, rng),
            prime,
            form: Form::Sparse(Table::default()),
            nonzero: 0,
        }
    }

    fn buckets(&self) -> u64 {
        self.hash.range()
    }

    /// The prime as the counters' width: it is below `2^21` (see
    /// [`PRIME_RANGE`]).
    fn modulus(&self) -> u32 {
        self.prime as u32
    }

    /// The nonzero counters, in increasing bucket order.
    #[cfg(test)]
    fn entries(&self) -> Vec<Slot> {
        match &self.form {
            Form::Sparse(table) => table
                .slots
                .iter()
                .copied()
                .filter(|s| s.value != 0)
                .collect(),
            Form::Dense(counters) => {
                let mut entries = Vec::new();
                dense_entries(counters, &mut entries);
                entries
            }
        }
    }

    #[inline]
    fn update(&mut self, item: u64, delta: i64) {
        let bucket = self.hash.hash(item) as u32;
        // Below the prime, so below 2^21.
        let delta = reduce_delta(delta, self.prime) as u32;
        if delta != 0 {
            self.add(bucket, delta);
        }
    }

    /// Adds `delta ∈ [1, prime)` to the counter of `bucket`.
    #[inline]
    fn add(&mut self, bucket: u32, delta: u32) {
        let prime = self.modulus();
        match &mut self.form {
            Form::Dense(counters) => {
                add_to_array(counters, &mut self.nonzero, bucket, delta, prime);
            }
            Form::Sparse(_) => self.add_to_table(bucket, delta),
        }
    }

    /// [`add`](Self::add) for a trial that holds a table.
    #[inline]
    fn add_to_table(&mut self, bucket: u32, delta: u32) {
        if matches!(&self.form, Form::Sparse(table) if table.scale == 0 && !table.slots.is_empty())
        {
            self.unpack();
        }
        let prime = self.modulus();
        let table = match &mut self.form {
            Form::Sparse(table) => table,
            // Unpacking can leave the array.
            Form::Dense(counters) => {
                return add_to_array(counters, &mut self.nonzero, bucket, delta, prime);
            }
        };
        match table.find(bucket) {
            Ok(at) => {
                let new = add_mod(table.slots[at].value, delta, prime);
                if new == 0 {
                    table.remove(at);
                    self.nonzero -= 1;
                } else {
                    table.slots[at].value = new;
                }
            }
            Err(at) => {
                let slot = Slot {
                    bucket,
                    value: delta,
                };
                if !(fits(self.nonzero + 1, table.slots.len()) && table.insert(at, slot)) {
                    self.grow_with(slot);
                }
                self.nonzero += 1;
            }
        }
    }

    /// Lays a packed table out with room.
    #[cold]
    #[inline(never)]
    fn unpack(&mut self) {
        if let Form::Sparse(table) = &self.form {
            self.form = Form::spread(&table.slots, 0, self.buckets());
        }
    }

    /// Lays the table's entries out again with `slot`, in twice as many
    /// slots at least, so that relayouts cost O(1) an update.
    #[cold]
    #[inline(never)]
    fn grow_with(&mut self, slot: Slot) {
        if let Form::Sparse(table) = &self.form {
            let mut entries = Vec::with_capacity(self.nonzero as usize + 1);
            entries.extend(table.slots.iter().copied().filter(|slot| slot.value != 0));
            merge_runs(&mut entries, &[slot][..], self.modulus());
            self.form = Form::spread(&entries, 2 * table.slots.len(), self.buckets());
        }
    }

    /// Entrywise addition mod `p` of another trial's counters (Lemma 6
    /// linearity: the counters are linear functions of the frequency vector,
    /// so adding them yields the trial state of the union stream).  The
    /// caller guarantees both trials share hash and prime (same seed).
    fn merge_from_unchecked(&mut self, other: &Self) {
        assert_eq!(
            self.prime, other.prime,
            "trials drawn with different primes"
        );
        assert_eq!(self.buckets(), other.buckets());
        match &other.form {
            Form::Sparse(table) if table.scale == 0 => self.add_run(&table.slots[..]),
            Form::Sparse(table) => {
                let mut packed = table.clone();
                packed.pack();
                self.add_run(&packed.slots[..]);
            }
            Form::Dense(counters) => self.add_counters(counters.iter().copied(), false),
        }
    }

    /// Adds the counters of `view`, a trial with this one's hash and prime
    /// that passed [`TrialView::check`] — or with `replace` takes them.
    fn add_view(&mut self, view: &TrialView<'_>, replace: bool) {
        match view.body {
            Body::Sparse(pairs) => {
                if replace {
                    self.clear();
                }
                self.add_run(&WirePairs(pairs));
            }
            Body::Dense(counters) => {
                self.add_counters(counters.chunks_exact(4).map(word), replace);
            }
        }
    }

    /// Adds the nonzero counters `theirs`.  A table takes them through
    /// [`merge_runs`], packed, and becomes the array once more than half
    /// the buckets are nonzero; an array takes them one by one.
    fn add_run<R: Run + ?Sized>(&mut self, theirs: &R) {
        let (prime, buckets) = (self.modulus(), self.buckets());
        match &mut self.form {
            Form::Sparse(table) => {
                table.pack();
                merge_runs(&mut table.slots, theirs, prime);
                self.nonzero = table.slots.len() as u64;
                if !Self::is_sparse(self.nonzero, buckets) {
                    self.form = Form::dense(&table.slots, buckets);
                }
            }
            Form::Dense(counters) => {
                for index in 0..theirs.count() {
                    let slot = theirs.at(index);
                    add_to_array(counters, &mut self.nonzero, slot.bucket, slot.value, prime);
                }
            }
        }
    }

    /// Adds a whole counter array `theirs`, in bucket order — or with
    /// `replace` takes it; a table becomes the array first.
    fn add_counters(&mut self, theirs: impl Iterator<Item = u32>, replace: bool) {
        let (prime, buckets) = (self.modulus(), self.buckets());
        if let Form::Sparse(table) = &mut self.form {
            table.pack();
            self.form = Form::dense(&table.slots, buckets);
        }
        if let Form::Dense(counters) = &mut self.form {
            let mut nonzero = 0;
            for (counter, value) in counters.iter_mut().zip(theirs) {
                *counter = add_mod(if replace { 0 } else { *counter }, value, prime);
                nonzero += u64::from(*counter != 0);
            }
            self.nonzero = nonzero;
        }
    }

    /// Sets every counter to 0, keeping the form and its memory.  A table
    /// laid out with room keeps its layout, so the updates that follow
    /// find their slots without growing it again.
    fn clear(&mut self) {
        match &mut self.form {
            // A packed table holds no empty slot (see `Table`).
            Form::Sparse(table) if table.scale == 0 => table.slots.clear(),
            Form::Sparse(table) => table.slots.fill(EMPTY),
            Form::Dense(counters) => counters.fill(0),
        }
        self.nonzero = 0;
    }

    /// Whether the sparse form is the smaller one: at most half the buckets
    /// are nonzero (8 bytes per pair against 4 per bucket).
    fn is_sparse(nonzero: u64, buckets: u64) -> bool {
        nonzero <= buckets / 2
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.hash.serialize(out);
        self.prime.serialize(out);
        // A table never holds more than half the buckets (see `Form`), so
        // it is always sent sparse.
        if let (Form::Dense(counters), false) =
            (&self.form, Self::is_sparse(self.nonzero, self.buckets()))
        {
            out.push(FORM_DENSE);
            u32::serialize_slice(counters, out);
            return;
        }
        out.push(FORM_SPARSE);
        self.nonzero.serialize(out);
        // Every slot is written and only a nonzero one kept, so the walk
        // has no branch on the holes; one pair of slack takes the last
        // write.
        let start = out.len();
        let end = start + 8 * self.nonzero as usize;
        out.resize(end + 8, 0);
        let mut at = start;
        let mut put = |bucket: u32, value: u32| {
            let pair = &mut out[at..at + 8];
            pair[..4].copy_from_slice(&bucket.to_le_bytes());
            pair[4..].copy_from_slice(&value.to_le_bytes());
            at += 8 * usize::from(value != 0);
        };
        match &self.form {
            Form::Sparse(table) => {
                for slot in &table.slots {
                    put(slot.bucket, slot.value);
                }
            }
            Form::Dense(counters) => {
                for (bucket, &value) in counters.iter().enumerate() {
                    put(bucket as u32, value);
                }
            }
        }
        assert_eq!(at, end, "one pair per nonzero counter");
        out.truncate(end);
    }

    /// Reads a trial of `buckets` buckets (see [`TrialView`]).
    fn read(input: &mut &[u8], buckets: u64) -> Result<Self, Error> {
        let view = TrialView::read(input, buckets)?;
        let nonzero = view.check()?;
        Ok(view.materialise(nonzero))
    }
}

/// A trial's encoding borrowed from the wire: its hash and prime, and the
/// bytes of its counters in their form.
///
/// [`read`](Self::read) checks everything up to the counters and
/// [`check`](Self::check) the counters, without building or changing
/// anything.  Decoding then materialises a checked view into a [`Trial`],
/// and merging from the wire adds one to a trial in place.  Both read
/// trials only through here, so they accept exactly the same bytes.
struct TrialView<'a> {
    hash: PairwiseHash,
    prime: u64,
    body: Body<'a>,
}

/// The counter bytes of a [`TrialView`].
#[derive(Clone, Copy)]
enum Body<'a> {
    /// [`FORM_SPARSE`]: the nonzero counters as 8-byte pairs.
    Sparse(&'a [u8]),
    /// [`FORM_DENSE`]: every counter as a 4-byte word.
    Dense(&'a [u8]),
}

impl<'a> TrialView<'a> {
    /// Reads a trial of `buckets` buckets up to its counters: the prime in
    /// its range, the hash onto `buckets` buckets, a known form tag and,
    /// for the sparse form, a pair count the form allows, then takes the
    /// counters' bytes.  The caller has bounded `buckets` (see
    /// [`buckets_for`]).
    fn read(input: &mut &'a [u8], buckets: u64) -> Result<Self, Error> {
        let hash = PairwiseHash::deserialize(input)?;
        let prime = u64::deserialize(input)?;
        if !PRIME_RANGE.contains(&prime) {
            return Err(Error::new(format!("trial prime {prime} out of range")));
        }
        if hash.range() != buckets {
            return Err(Error::new(format!(
                "trial hash range {} differs from its bucket count {buckets}",
                hash.range()
            )));
        }
        let (len, sparse) = match u8::deserialize(input)? {
            FORM_SPARSE => {
                let pairs = u64::deserialize(input)?;
                if !Trial::is_sparse(pairs, buckets) {
                    return Err(Error::new(format!(
                        "sparse trial declares {pairs} pairs for {buckets} buckets"
                    )));
                }
                (8 * pairs as usize, true)
            }
            FORM_DENSE => (4 * buckets as usize, false),
            tag => return Err(Error::new(format!("invalid trial form tag {tag}"))),
        };
        if input.len() < len {
            return Err(Error::new(format!(
                "trial truncated: {len} bytes of counters in {}",
                input.len()
            )));
        }
        let (counters, rest) = input.split_at(len);
        *input = rest;
        let body = if sparse {
            Body::Sparse(counters)
        } else {
            Body::Dense(counters)
        };
        Ok(Self { hash, prime, body })
    }

    /// Checks the counters and returns how many are nonzero.  Sparse pairs
    /// must have increasing indices below the bucket count and values in
    /// `[1, prime)`, so each pair is one nonzero bucket; dense counters
    /// must be below the prime, and more than half of them nonzero (else
    /// the trial is sent sparse).
    fn check(&self) -> Result<u64, Error> {
        let (prime, buckets) = (self.prime, self.hash.range());
        match self.body {
            Body::Sparse(pairs) => {
                // The walk keeps the first bad pair's position instead of
                // branching on each pair; only a refused trial is looked at
                // again, for the message.
                let (mut next, mut first_bad) = (0, usize::MAX);
                for (at, pair) in pairs.chunks_exact(8).enumerate() {
                    let (index, value) = (u64::from(word(&pair[..4])), u64::from(word(&pair[4..])));
                    let good =
                        (next <= index) & (index < buckets) & (value.wrapping_sub(1) < prime - 1);
                    first_bad = first_bad.min(if good { usize::MAX } else { at });
                    next = index + 1;
                }
                if first_bad == usize::MAX {
                    return Ok(pairs.len() as u64 / 8);
                }
                let pair = |at: usize| {
                    let pair = &pairs[8 * at..8 * at + 8];
                    (word(&pair[..4]), word(&pair[4..]))
                };
                let (index, value) = pair(first_bad);
                let next = first_bad
                    .checked_sub(1)
                    .map_or(0, |before| pair(before).0 + 1);
                Err(Error::new(if index < next || u64::from(index) >= buckets {
                    format!("sparse trial index {index} out of order or range")
                } else {
                    format!("sparse trial value {value} not in [1, {prime})")
                }))
            }
            Body::Dense(counters) => {
                let (mut nonzero, mut largest) = (0, 0);
                for counter in counters.chunks_exact(4).map(word) {
                    nonzero += u64::from(counter != 0);
                    largest = largest.max(counter);
                }
                if u64::from(largest) >= prime {
                    return Err(Error::new(format!("dense trial counter not below {prime}")));
                }
                if Trial::is_sparse(nonzero, buckets) {
                    return Err(Error::new(format!(
                        "dense trial holds only {nonzero} nonzero of {buckets} buckets"
                    )));
                }
                Ok(nonzero)
            }
        }
    }

    /// The trial a checked view encodes; `nonzero` is what
    /// [`check`](Self::check) returned.
    fn materialise(&self, nonzero: u64) -> Trial {
        let form = match self.body {
            Body::Sparse(pairs) => {
                let entries = pairs.chunks_exact(8).map(|pair| Slot {
                    bucket: word(&pair[..4]),
                    value: word(&pair[4..]),
                });
                Form::packed(entries.collect(), self.hash.range())
            }
            Body::Dense(counters) => Form::Dense(counters.chunks_exact(4).map(word).collect()),
        };
        Trial {
            hash: self.hash,
            prime: self.prime,
            form,
            nonzero,
        }
    }
}

/// The Lemma 8 exact small-L0 structure.
///
/// On the wire: the capacity and the trial count (`u64`s), then each trial
/// (see `Trial`).  The bucket count is derived from the capacity, and the
/// decoder checks the geometry against `MAX_COUNTERS` before reading any
/// trial, so a few bytes can never declare more counters than a structure
/// [`new`](Self::new) would build.
#[derive(Debug, Clone)]
pub struct ExactSmallL0 {
    trials: Vec<Trial>,
    capacity: u64,
    buckets: u64,
}

impl ExactSmallL0 {
    /// Creates the structure for the promise `L0 ≤ capacity`, with failure
    /// probability roughly `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, if `delta` is not in `(0, 1)`, or if the
    /// structure would hold more than `2^22` counters (`⌈log₂(1/δ)⌉` trials
    /// of `2 · capacity²` buckets), the most a decoder accepts.
    #[must_use]
    pub fn new(capacity: u64, delta: f64, rng: &mut SplitMix64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let trials_count = trials_for(delta);
        let buckets =
            buckets_for(capacity, trials_count).expect("structure too large for the wire form");
        let trials = (0..trials_count)
            .map(|i| {
                let mut trial_rng = rng.split(i + 1);
                Trial::new(buckets, &mut trial_rng)
            })
            .collect();
        Self {
            trials,
            capacity,
            buckets,
        }
    }

    /// Decodes a structure that must have the geometry
    /// [`new(capacity, delta, _)`](Self::new) builds, checked before any
    /// trial is read.  The sketches that embed this structure decode it
    /// through here, so a forged level cannot be larger than a real one.
    pub(crate) fn deserialize_as(
        input: &mut &[u8],
        capacity: u64,
        delta: f64,
    ) -> Result<Self, Error> {
        Self::read(input, Some((capacity, trials_for(delta))))
    }

    /// The primes of the trials, in trial order.
    #[cfg(test)]
    pub(crate) fn primes(&self) -> impl Iterator<Item = u64> + '_ {
        self.trials.iter().map(|trial| trial.prime)
    }

    /// How many trials hold the counter array, and how many a table laid
    /// out with room.
    #[cfg(test)]
    pub(crate) fn forms(&self) -> (usize, usize) {
        let count = |form: fn(&Form) -> bool| self.trials.iter().filter(|t| form(&t.form)).count();
        (
            count(|form| matches!(form, Form::Dense(_))),
            count(|form| matches!(form, Form::Sparse(table) if table.scale != 0)),
        )
    }

    /// Whether `other` has this structure's geometry and its trials' hashes
    /// and primes: the draws of the same seed.
    pub(crate) fn same_draws(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.trials.len() == other.trials.len()
            && self
                .trials
                .iter()
                .zip(&other.trials)
                .all(|(mine, theirs)| (mine.hash, mine.prime) == (theirs.hash, theirs.prime))
    }

    /// Checks that `input` starts with an encoding the decoder accepts, of
    /// this structure's geometry, and advances past it; returns whether its
    /// trials have this structure's hashes and primes.  Changes nothing.
    pub(crate) fn check_wire(&self, input: &mut &[u8]) -> Result<bool, Error> {
        self.read_geometry(input)?;
        let mut same = true;
        for trial in &self.trials {
            let view = TrialView::read(input, self.buckets)?;
            view.check()?;
            same &= (view.hash, view.prime) == (trial.hash, trial.prime);
        }
        Ok(same)
    }

    /// Adds the structure [`check_wire`](Self::check_wire) accepted at the
    /// front of `input` to this one in place — or with `replace` makes this
    /// one that structure — and advances past it.
    pub(crate) fn merge_wire(&mut self, input: &mut &[u8], replace: bool) {
        self.read_geometry(input).expect("checked");
        for trial in &mut self.trials {
            let view = TrialView::read(input, self.buckets).expect("checked");
            trial.add_view(&view, replace);
        }
    }

    /// Reads a capacity and trial count that must equal this structure's.
    fn read_geometry(&self, input: &mut &[u8]) -> Result<(), Error> {
        Self::read_header(input, Some((self.capacity, self.trials.len() as u64))).map(drop)
    }

    /// Reads the capacity and trial count, requires them to equal `shape`
    /// when one is given and to pass [`buckets_for`]; returns them with the
    /// bucket count.
    fn read_header(input: &mut &[u8], shape: Option<(u64, u64)>) -> Result<(u64, u64, u64), Error> {
        let capacity = u64::deserialize(input)?;
        let trials = u64::deserialize(input)?;
        let buckets = buckets_for(capacity, trials)
            .filter(|_| shape.is_none_or(|expected| expected == (capacity, trials)))
            .ok_or_else(|| {
                Error::new(format!(
                    "small-L0 geometry of capacity {capacity} and {trials} trials refused"
                ))
            })?;
        Ok((capacity, trials, buckets))
    }

    /// Reads the header (see [`read_header`](Self::read_header)), then the
    /// trials.
    fn read(input: &mut &[u8], shape: Option<(u64, u64)>) -> Result<Self, Error> {
        let (capacity, trials, buckets) = Self::read_header(input, shape)?;
        let trials = (0..trials)
            .map(|_| Trial::read(input, buckets))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            trials,
            capacity,
            buckets,
        })
    }

    /// The promise parameter `c`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Applies the update `x_item ← x_item + delta`.
    #[inline]
    pub fn update(&mut self, item: u64, delta: i64) {
        for t in &mut self.trials {
            t.update(item, delta);
        }
    }

    /// The current estimate: the maximum, over trials, of the number of
    /// nonzero buckets.  Exactly `L0` with probability `1 − δ` whenever
    /// `L0 ≤ capacity`; never larger than the true `L0` (up to the negligible
    /// prime-divisibility event) and never larger than the bucket count.
    #[must_use]
    pub fn estimate(&self) -> u64 {
        self.trials.iter().map(|t| t.nonzero).max().unwrap_or(0)
    }

    /// Whether the estimate exceeds the design capacity, i.e. the promise
    /// `L0 ≤ c` has observably been violated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.estimate() > self.capacity
    }

    /// Sets every counter to 0 (see [`TurnstileEstimator::clear`]): each
    /// trial keeps its form and its table's layout.
    ///
    /// [`TurnstileEstimator::clear`]: crate::TurnstileEstimator::clear
    pub(crate) fn clear(&mut self) {
        self.trials.iter_mut().for_each(Trial::clear);
    }

    /// Merges another structure built with the *same seed and parameters* by
    /// entrywise counter addition mod `p` per trial.
    ///
    /// Because every bucket counter is a linear function of the frequency
    /// vector, the merged state is identical to the state a single structure
    /// would have reached over any interleaving of both update streams.
    pub fn merge_from_unchecked(&mut self, other: &Self) {
        // Geometry is asserted (not debug-asserted) so structurally
        // inconsistent sketches fail loudly; see the L0Matrix merge.
        assert_eq!(self.capacity, other.capacity);
        assert_eq!(self.buckets, other.buckets);
        assert_eq!(self.trials.len(), other.trials.len());
        for (mine, theirs) in self.trials.iter_mut().zip(other.trials.iter()) {
            mine.merge_from_unchecked(theirs);
        }
    }
}

impl Serialize for ExactSmallL0 {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.capacity.serialize(out);
        (self.trials.len() as u64).serialize(out);
        for trial in &self.trials {
            trial.write(out);
        }
    }
}

impl Deserialize for ExactSmallL0 {
    /// Decodes a structure of any geometry [`ExactSmallL0::new`] accepts.
    fn deserialize(input: &mut &[u8]) -> Result<Self, Error> {
        Self::read(input, None)
    }
}

impl SpaceUsage for ExactSmallL0 {
    fn space_bits(&self) -> u64 {
        // Counters are values mod p < 2^21: 21 bits each in the paper's
        // accounting, plus each trial's hash and prime.
        self.trials.len() as u64 * (self.buckets * 21 + self.trials[0].hash.space_bits() + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn fresh(cap: u64, seed: u64) -> ExactSmallL0 {
        let mut rng = SplitMix64::new(seed);
        ExactSmallL0::new(cap, 1.0 / 16.0, &mut rng)
    }

    #[test]
    fn counts_insert_only_streams_exactly() {
        let mut s = fresh(100, 1);
        for i in 0..60u64 {
            s.update(i * 977, 1);
        }
        assert_eq!(s.estimate(), 60);
        assert!(!s.saturated());
    }

    #[test]
    fn empty_structure_reports_zero() {
        let s = fresh(50, 2);
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut s = fresh(100, 3);
        for i in 0..40u64 {
            s.update(i, 3);
        }
        assert_eq!(s.estimate(), 40);
        // Remove half of them completely.
        for i in 0..20u64 {
            s.update(i, -3);
        }
        assert_eq!(s.estimate(), 20);
        // Remove the rest.
        for i in 20..40u64 {
            s.update(i, -1);
            s.update(i, -2);
        }
        assert_eq!(s.estimate(), 0);
    }

    #[test]
    fn negative_frequencies_still_count_as_nonzero() {
        let mut s = fresh(64, 4);
        for i in 0..30u64 {
            s.update(i, -5);
        }
        assert_eq!(s.estimate(), 30);
    }

    #[test]
    fn mixed_sign_random_workload_matches_reference() {
        let mut s = fresh(141, 5);
        let mut reference: HashMap<u64, i64> = HashMap::new();
        let mut state = 777u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let item = next() % 120;
            let delta = (next() % 7) as i64 - 3;
            if delta == 0 {
                continue;
            }
            s.update(item, delta);
            *reference.entry(item).or_insert(0) += delta;
        }
        let truth = reference.values().filter(|&&v| v != 0).count() as u64;
        assert_eq!(s.estimate(), truth);
    }

    #[test]
    fn saturation_is_detected_beyond_capacity() {
        let mut s = fresh(16, 6);
        for i in 0..200u64 {
            s.update(i, 1);
        }
        assert!(s.saturated());
        // The estimate never exceeds the true L0 (no over-counting).
        assert!(s.estimate() <= 200);
        assert!(s.estimate() > 16);
    }

    #[test]
    fn repeated_updates_to_one_item_count_once() {
        let mut s = fresh(32, 7);
        for _ in 0..500 {
            s.update(99, 2);
        }
        assert_eq!(s.estimate(), 1);
    }

    #[test]
    fn exactness_over_many_seeds() {
        // Lemma 8: exact with probability ≥ 1 − δ.  Check the failure rate
        // over many seeds stays small.
        let mut failures = 0;
        let trials = 60;
        for seed in 0..trials {
            let mut s = fresh(100, 1000 + seed);
            for i in 0..90u64 {
                s.update(i * 31 + seed, 1);
            }
            if s.estimate() != 90 {
                failures += 1;
            }
        }
        assert!(failures <= 4, "{failures}/{trials} trials were not exact");
    }

    #[test]
    fn division_free_arithmetic_matches_the_remainder_form() {
        for p in [*PRIME_RANGE.start(), 140_907, 2_097_143] {
            let edges = [0, 1, 2, p / 2, p - 2, p - 1];
            for a in edges {
                for b in edges {
                    let sum = add_mod(a as u32, b as u32, p as u32);
                    assert_eq!(u64::from(sum), (a + b) % p, "{a} + {b} mod {p}");
                }
            }
            let signed = p as i64;
            for delta in [
                0,
                1,
                -1,
                signed - 2,
                signed - 1,
                signed,
                signed + 1,
                -signed + 1,
                -signed,
                -signed - 1,
                3 * signed + 5,
                i64::MAX,
                i64::MIN,
            ] {
                assert_eq!(
                    reduce_delta(delta, p),
                    delta.rem_euclid(signed) as u64,
                    "{delta} mod {p}"
                );
            }
        }
    }

    /// A one-trial, 16-bucket structure: small enough to pin byte for byte.
    fn tiny() -> ExactSmallL0 {
        let mut rng = SplitMix64::new(9);
        ExactSmallL0::new(2, 0.5, &mut rng)
    }

    /// The encoding of [`tiny`] up to its trial's form tag.
    const TINY_HEAD: [u8; 49] = [
        2, 0, 0, 0, 0, 0, 0, 0, // capacity 2, so 16 buckets
        1, 0, 0, 0, 0, 0, 0, 0, // one trial
        86, 4, 72, 109, 3, 95, 231, 10, // hash a
        149, 178, 160, 65, 93, 133, 88, 18, // hash b
        16, 0, 0, 0, 0, 0, 0, 0, // hash range
        1, // the range is a power of two
        107, 34, 2, 0, 0, 0, 0, 0, // prime 140 907
    ];

    #[test]
    fn golden_bytes_pin_the_sparse_and_dense_forms() {
        let mut s = tiny();
        s.update(1, 1);
        s.update(2, -1);
        let sparse: Vec<u8> = TINY_HEAD
            .iter()
            .chain(&[FORM_SPARSE])
            .chain(&[2, 0, 0, 0, 0, 0, 0, 0]) // two pairs
            .chain(&[2, 0, 0, 0, 106, 34, 2, 0]) // bucket 2 holds -1 = p - 1
            .chain(&[11, 0, 0, 0, 1, 0, 0, 0]) // bucket 11 holds 1
            .copied()
            .collect();
        assert_eq!(serde::to_bytes(&s), sparse);

        for i in 0..40 {
            s.update(i, 3);
        }
        assert_eq!(s.estimate(), 15);
        let counters: [u32; 16] = [9, 12, 2, 6, 12, 6, 6, 9, 9, 3, 9, 13, 3, 9, 12, 0];
        let dense: Vec<u8> = TINY_HEAD
            .iter()
            .chain(&[FORM_DENSE])
            .chain(
                counters
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .copied()
            .collect();
        assert_eq!(serde::to_bytes(&s), dense);
    }

    #[test]
    fn the_form_switches_above_half_occupancy() {
        let mut s = tiny();
        let mut item = 0;
        for (occupied, form) in [(8, FORM_SPARSE), (9, FORM_DENSE)] {
            while s.estimate() < occupied {
                s.update(item, 1);
                item += 1;
            }
            let bytes = serde::to_bytes(&s);
            assert_eq!(bytes[TINY_HEAD.len()], form, "{occupied} of 16 buckets");
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.estimate(), occupied);
            assert_eq!(serde::to_bytes(&back), bytes);
        }
    }

    #[test]
    fn churn_round_trips_bit_for_bit_and_merges_alike_after_the_wire() {
        let mut state = 4242u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Supports from empty to well past half occupancy of 2c² = 800
        // buckets, so both forms and the boundary between them are crossed.
        for support in [0u64, 3, 60, 400, 700, 5_000] {
            let mut left = fresh(20, 77);
            let mut right = fresh(20, 77);
            for _ in 0..3 * support {
                let item = next() % support.max(1);
                let delta = (next() % 9) as i64 - 4;
                if next() % 2 == 0 {
                    left.update(item, delta);
                } else {
                    right.update(item, delta);
                }
            }
            let bytes = serde::to_bytes(&left);
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("round trip");
            assert_eq!(serde::to_bytes(&back), bytes, "support {support}");
            assert_eq!(back.estimate(), left.estimate());
            for (mine, theirs) in back.trials.iter().zip(&left.trials) {
                assert_eq!(mine.nonzero, theirs.nonzero);
                assert_eq!(mine.entries(), theirs.entries());
            }

            let right_bytes = serde::to_bytes(&right);
            let wired: ExactSmallL0 = serde::from_bytes(&right_bytes).expect("round trip");
            let mut in_memory = left.clone();
            in_memory.merge_from_unchecked(&right);
            let mut after_wire = back;
            after_wire.merge_from_unchecked(&wired);
            let expected = serde::to_bytes(&in_memory);
            assert_eq!(serde::to_bytes(&after_wire), expected, "support {support}");

            // Merged straight from the bytes, into the live structure and
            // into one replaced by the left bytes first: the same bytes
            // again, the checks pass over exactly one structure, and a trial
            // held as an array stays one.
            let wire_merge = |into: &mut ExactSmallL0, bytes: &[u8], replace: bool| {
                let mut input = bytes;
                assert!(into.check_wire(&mut input).expect("valid"), "same draws");
                assert!(input.is_empty(), "one structure checked");
                into.merge_wire(&mut &bytes[..], replace);
            };
            let mut from_wire = left.clone();
            wire_merge(&mut from_wire, &right_bytes, false);
            assert_eq!(serde::to_bytes(&from_wire), expected, "support {support}");
            let dense = |s: &ExactSmallL0| -> Vec<bool> {
                let form = |t: &Trial| matches!(t.form, Form::Dense(_));
                s.trials.iter().map(form).collect()
            };
            let mut refilled = from_wire;
            let dense_before = dense(&refilled);
            wire_merge(&mut refilled, &bytes, true);
            assert_eq!(serde::to_bytes(&refilled), bytes, "support {support}");
            for (before, after) in dense_before.iter().zip(dense(&refilled)) {
                assert!(!before || after, "an array stays an array");
            }
            wire_merge(&mut refilled, &right_bytes, false);
            assert_eq!(serde::to_bytes(&refilled), expected, "support {support}");
        }
    }

    /// Sorted runs of random buckets in a common range, as `(mine,
    /// theirs)`: about half of a short run's buckets are in a long one,
    /// and with `cancel`, shared buckets sum to 0 about `cancel` times in
    /// four.
    fn overlapping_runs(seed: u64, lens: (usize, usize), cancel: u64) -> (Vec<Slot>, Vec<Slot>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let span = 2 * lens.0.max(lens.1) as u64 + 8;
        let mut run = |len: usize| {
            let mut buckets = std::collections::BTreeSet::new();
            while buckets.len() < len {
                buckets.insert((next() % span) as u32);
            }
            let value = |bucket: u32| 1 + (u64::from(bucket) * 7919 % (P - 1)) as u32;
            buckets
                .into_iter()
                .map(|bucket| Slot {
                    bucket,
                    value: value(bucket),
                })
                .collect::<Vec<_>>()
        };
        let (mine, mut theirs) = (run(lens.0), run(lens.1));
        for slot in &mut theirs {
            if let Ok(at) = mine.binary_search_by_key(&slot.bucket, |s| s.bucket) {
                if next() % 4 < cancel {
                    slot.value = (P - u64::from(mine[at].value)) as u32;
                }
            }
        }
        (mine, theirs)
    }

    /// Merges `theirs` into `mine` from slots and from wire pairs, and
    /// returns both results with the plain merge's.
    fn merged_three_ways(mine: &[Slot], theirs: &[Slot]) -> [Vec<Slot>; 3] {
        let mut expected = Vec::new();
        sum_slots(mine, theirs, P, &mut expected);
        let mut merged = mine.to_vec();
        merge_runs(&mut merged, theirs, P as u32);
        let pairs: Vec<u8> = theirs
            .iter()
            .flat_map(|slot| [slot.bucket.to_le_bytes(), slot.value.to_le_bytes()])
            .flatten()
            .collect();
        let mut from_wire = mine.to_vec();
        merge_runs(&mut from_wire, &WirePairs(&pairs), P as u32);
        [expected, merged, from_wire]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Both strategies of the two-run merge, from slots and from wire
        /// pairs, give what the plain one-branch-per-entry merge gives:
        /// either run empty, a short run into a long one (galloping), the
        /// reverse and runs of similar length (walking), lengths on either
        /// side of the crossover, shared buckets, and shared buckets whose
        /// sums cancel.
        #[test]
        fn merge_runs_matches_the_plain_merge(
            seed in proptest::prelude::any::<u64>(),
            long in 0usize..3000,
            quarters in 0usize..9,
            nudge in 0usize..5,
            reverse in proptest::prelude::any::<bool>(),
            cancel in 0u64..5,
        ) {
            // From none to twice the crossover length, and at 4 quarters
            // within 2 of it.
            let short = (long / GALLOP_RATIO * quarters / 4 + nudge).saturating_sub(2);
            let lens = if reverse { (short, long) } else { (long, short) };
            let (mine, theirs) = overlapping_runs(seed, lens, cancel);
            let [expected, merged, from_wire] = merged_three_ways(&mine, &theirs);
            proptest::prop_assert_eq!(&merged, &expected);
            proptest::prop_assert_eq!(&from_wire, &expected);
        }
    }

    #[test]
    fn merge_runs_covers_the_edges() {
        let slot = |bucket, value| Slot { bucket, value };
        let p = P as u32;
        let walks: [(Vec<Slot>, Vec<Slot>); 5] = [
            (vec![], vec![]),
            (vec![], vec![slot(3, 1)]),
            (vec![slot(3, 1)], vec![]),
            // Everything cancels.
            (
                vec![slot(1, 5), slot(9, 1)],
                vec![slot(1, p - 5), slot(9, p - 1)],
            ),
            // Their run ends first, then mine's tail moves down.
            (
                vec![slot(0, 1), slot(4, 2), slot(7, 3), slot(8, 4)],
                vec![slot(0, p - 1), slot(5, 6)],
            ),
        ];
        // Buckets 10, 20, …, 120 holding 1, 2, …, 12.
        let long: Vec<Slot> = (1..=12).map(|k| slot(10 * k, k)).collect();
        let gallops: [(Vec<Slot>, Vec<Slot>); 6] = [
            (long.clone(), vec![]),
            // Wholly before the long run, then wholly after it.
            (long.clone(), vec![slot(2, 5), slot(5, 6)]),
            (long.clone(), vec![slot(130, 1), slot(200, 2)]),
            // Every incoming bucket cancels.
            (long.clone(), vec![slot(30, p - 3), slot(80, p - 8)]),
            // The long run's first and last buckets, added to, then
            // cancelled.
            (long.clone(), vec![slot(10, 4), slot(120, 9)]),
            (long.clone(), vec![slot(10, p - 1), slot(120, p - 12)]),
        ];
        for (mine, theirs) in &gallops {
            assert!(
                theirs.len() * GALLOP_RATIO < mine.len(),
                "{theirs:?} gallops"
            );
        }
        for (mine, theirs) in walks.iter().chain(&gallops) {
            let [expected, merged, from_wire] = merged_three_ways(mine, theirs);
            assert_eq!(merged, expected, "{mine:?} + {theirs:?}");
            assert_eq!(from_wire, expected, "{mine:?} + {theirs:?} from the wire");
        }
    }

    /// A test-local model of one trial: its nonzero counters by bucket.
    type Model = BTreeMap<u32, u32>;

    /// Applies `x_item ← x_item + delta` to the models of `s`'s trials.
    fn model_update(s: &ExactSmallL0, models: &mut [Model], item: u64, delta: i64) {
        for (trial, model) in s.trials.iter().zip(models) {
            let bucket = trial.hash.hash(item) as u32;
            let old = u64::from(model.get(&bucket).copied().unwrap_or(0));
            let new = (old + reduce_delta(delta, trial.prime)) % trial.prime;
            if new == 0 {
                model.remove(&bucket);
            } else {
                model.insert(bucket, new as u32);
            }
        }
    }

    /// The encoding `s` must have if its trials hold `models`, written out
    /// from the wire rules alone.
    fn model_bytes(s: &ExactSmallL0, models: &[Model]) -> Vec<u8> {
        let mut out = header(s.capacity, s.trials.len() as u64);
        for (trial, model) in s.trials.iter().zip(models) {
            trial.hash.serialize(&mut out);
            trial.prime.serialize(&mut out);
            if model.len() as u64 <= s.buckets / 2 {
                out.push(FORM_SPARSE);
                (model.len() as u64).serialize(&mut out);
                for (&bucket, &value) in model {
                    bucket.serialize(&mut out);
                    value.serialize(&mut out);
                }
            } else {
                out.push(FORM_DENSE);
                for bucket in 0..s.buckets as u32 {
                    model.get(&bucket).copied().unwrap_or(0).serialize(&mut out);
                }
            }
        }
        out
    }

    /// Checks `s` against `models`: estimate, per-trial occupancy, bytes,
    /// and a decode that re-encodes to the same bytes.
    fn assert_matches(s: &ExactSmallL0, models: &[Model], what: &str) {
        for (trial, model) in s.trials.iter().zip(models) {
            assert_eq!(trial.nonzero, model.len() as u64, "{what}");
        }
        let most = models.iter().map(|m| m.len() as u64).max().unwrap_or(0);
        assert_eq!(s.estimate(), most, "{what}");
        let bytes = serde::to_bytes(s);
        assert_eq!(bytes, model_bytes(s, models), "{what}");
        let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("round trip");
        assert_eq!(serde::to_bytes(&back), bytes, "{what}");
    }

    /// Whether some trial of `s` holds the counter array.
    fn is_dense(s: &ExactSmallL0) -> bool {
        s.trials.iter().any(|t| matches!(t.form, Form::Dense(_)))
    }

    /// Whether every trial of `s` holds a table.
    fn is_table(s: &ExactSmallL0) -> bool {
        s.trials.iter().all(|t| matches!(t.form, Form::Sparse(_)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Per-item updates, coalesced batches and every pairing of forms in
        /// a merge give the bytes a map of nonzero counters calls for.
        ///
        /// Each case builds four structures on a 16- or 800-bucket
        /// geometry: a small support (a table), a support past half
        /// occupancy (dense), a support that grew dense and then mostly
        /// cancelled back to 0 (still dense in memory, sparse on the wire),
        /// and the negation of the first (their merge is all zeros).
        #[test]
        fn both_forms_match_a_map_of_nonzero_counters(
            geometry in 0usize..2,
            seed in proptest::prelude::any::<u64>(),
            kept in 0u64..8,
        ) {
            let capacity = [2u64, 20][geometry];
            let buckets = (2 * capacity * capacity).max(16);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut stream = |support: u64, len: u64| -> Vec<(u64, i64)> {
                (0..len)
                    .map(|_| (next() % support, (next() % 9) as i64 - 4))
                    .collect()
            };
            let small = stream(buckets / 16, buckets / 8);
            let large = stream(2 * buckets, 6 * buckets);
            // The large stream again, then cancel all but `kept` items.
            let mut totals: BTreeMap<u64, i64> = BTreeMap::new();
            for &(item, delta) in &large {
                *totals.entry(item).or_default() += delta;
            }
            let churned: Vec<(u64, i64)> = large
                .iter()
                .copied()
                .chain(totals.iter().skip(kept as usize).map(|(&item, &total)| (item, -total)))
                .collect();
            // The small stream negated: merged with it, every counter
            // returns to 0.
            let negated: Vec<(u64, i64)> = small.iter().map(|&(item, delta)| (item, -delta)).collect();

            let mut built = Vec::new();
            let streams = [
                ("small", &small),
                ("large", &large),
                ("churned", &churned),
                ("negated", &negated),
            ];
            for (name, updates) in streams {
                let mut one_by_one = fresh(capacity, 31);
                let mut models = vec![Model::new(); one_by_one.trials.len()];
                for &(item, delta) in updates {
                    one_by_one.update(item, delta);
                    model_update(&one_by_one, &mut models, item, delta);
                }
                assert_matches(&one_by_one, &models, name);
                let mut batched = fresh(capacity, 31);
                for (item, delta) in crate::coalesce::coalesce_updates(updates) {
                    batched.update(item, delta);
                }
                assert_matches(&batched, &models, name);
                built.push((name, one_by_one, models));
            }
            assert!(is_table(&built[0].1), "small support in a table");
            assert!(is_dense(&built[1].1), "large support dense");
            assert!(is_dense(&built[2].1), "a dense trial stays dense");
            assert!(built[2].1.estimate() <= kept, "cancelled back");
            assert!(is_table(&built[3].1), "small support in a table");

            for (left, mine, left_models) in &built {
                for (right, theirs, right_models) in &built {
                    let mut merged = mine.clone();
                    merged.merge_from_unchecked(theirs);
                    let models: Vec<Model> = left_models
                        .iter()
                        .zip(right_models)
                        .zip(&merged.trials)
                        .map(|((model, other), trial)| {
                            let mut sum = model.clone();
                            for (&bucket, &value) in other {
                                let old = u64::from(sum.get(&bucket).copied().unwrap_or(0));
                                match (old + u64::from(value)) % trial.prime {
                                    0 => sum.remove(&bucket),
                                    total => sum.insert(bucket, total as u32),
                                };
                            }
                            sum
                        })
                        .collect();
                    assert_matches(&merged, &models, &format!("{left} + {right}"));
                }
            }

            // Decoded tables are packed; updating one lays it out again.
            for (name, built, models) in &mut built {
                let mut decoded: ExactSmallL0 =
                    serde::from_bytes(&serde::to_bytes(built)).expect("round trip");
                for &(item, delta) in &small {
                    decoded.update(item, delta);
                    model_update(&decoded, models, item, delta);
                }
                assert_matches(&decoded, models, &format!("decoded {name}, updated"));
            }
        }
    }

    /// A valid prime from [`PRIME_RANGE`].
    const P: u64 = 140_907;

    /// Hand-built trial bytes: a hash onto `range` buckets, the prime, the
    /// form tag and the body.
    fn trial_bytes(range: u64, prime: u64, form: u8, body: &[u8]) -> Vec<u8> {
        let mut rng = SplitMix64::new(3);
        let mut out = serde::to_bytes(&PairwiseHash::random(range, &mut rng));
        prime.serialize(&mut out);
        out.push(form);
        out.extend_from_slice(body);
        out
    }

    /// A sparse body: the declared pair count, then the pairs.
    fn sparse_body(count: u64, pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut out = serde::to_bytes(&count);
        for &(index, value) in pairs {
            index.serialize(&mut out);
            value.serialize(&mut out);
        }
        out
    }

    fn dense_body(counters: &[u32]) -> Vec<u8> {
        counters.iter().flat_map(|c| c.to_le_bytes()).collect()
    }

    /// Reads `bytes` as one 16-bucket trial that must consume them all.
    fn read_trial(bytes: &[u8]) -> Result<Trial, Error> {
        let mut input = bytes;
        let trial = Trial::read(&mut input, 16)?;
        if !input.is_empty() {
            return Err(Error::new(format!("{} trailing bytes", input.len())));
        }
        Ok(trial)
    }

    fn rejects(bytes: &[u8], needle: &str) {
        let err = read_trial(bytes).expect_err("hostile trial accepted");
        assert!(err.to_string().contains(needle), "{err} lacks {needle:?}");
    }

    #[test]
    fn hostile_trial_bytes_are_errors_not_panics() {
        let sparse = |pairs: &[(u32, u32)]| {
            trial_bytes(16, P, FORM_SPARSE, &sparse_body(pairs.len() as u64, pairs))
        };
        let ok = read_trial(&sparse(&[(0, 1), (15, P as u32 - 1)])).expect("valid");
        assert_eq!(ok.nonzero, 2);

        rejects(&sparse(&[(16, 1)]), "out of order or range");
        rejects(&sparse(&[(u32::MAX, 1)]), "out of order or range");
        rejects(&sparse(&[(4, 1), (4, 2)]), "out of order or range");
        rejects(&sparse(&[(5, 1), (2, 1)]), "out of order or range");
        rejects(&sparse(&[(3, 0)]), "not in [1,");
        rejects(&sparse(&[(3, P as u32)]), "not in [1,");
        rejects(&sparse(&[(3, u32::MAX)]), "not in [1,");

        // A pair count that disagrees with the pairs present, or with the
        // sparse form's bound of half the buckets.
        let short = trial_bytes(16, P, FORM_SPARSE, &sparse_body(3, &[(1, 1), (2, 1)]));
        rejects(&short, "truncated");
        let long = trial_bytes(16, P, FORM_SPARSE, &sparse_body(1, &[(1, 1), (2, 1)]));
        rejects(&long, "trailing");
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i, 1)).collect();
        rejects(&sparse(&nine), "declares 9 pairs");
        let huge = trial_bytes(16, P, FORM_SPARSE, &sparse_body(u64::MAX, &[]));
        rejects(&huge, "pairs");

        let mut counters = [1u32; 16];
        counters[7] = P as u32;
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&counters)),
            "not below",
        );
        let half = [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&half)),
            "only 8 nonzero",
        );
        rejects(
            &trial_bytes(16, P, FORM_DENSE, &dense_body(&[1; 15])),
            "truncated",
        );
        rejects(&trial_bytes(16, P, 2, &[]), "form tag 2");
        rejects(&trial_bytes(8, P, FORM_SPARSE, &[]), "hash range");
        rejects(&trial_bytes(16, 4, FORM_SPARSE, &[]), "prime");
        rejects(&trial_bytes(16, 1 << 32, FORM_SPARSE, &[]), "prime");
    }

    /// A structure header: capacity and trial count.
    fn header(capacity: u64, trials: u64) -> Vec<u8> {
        let mut out = serde::to_bytes(&capacity);
        trials.serialize(&mut out);
        out
    }

    #[test]
    fn oversized_geometries_are_refused_before_any_trial_is_read() {
        // Each header below is followed by one valid empty trial of the
        // declared bucket count and nothing else, so a decoder that read
        // trials before checking the geometry would fail on truncation.
        let refused = |capacity: u64, trials: u64| {
            let buckets = (2 * capacity * capacity).max(16);
            let mut bytes = header(capacity, trials);
            bytes.extend(trial_bytes(buckets, P, FORM_SPARSE, &sparse_body(0, &[])));
            let err = serde::from_bytes::<ExactSmallL0>(&bytes).expect_err("geometry accepted");
            assert!(err.to_string().contains("geometry"), "{err}");
        };
        // A max-bucket empty trial repeated: 16 MiB of counters per copy.
        refused(1448, 2);
        refused(1448, 1_000_000);
        refused(1448, u64::MAX);
        refused(1449, 1);
        refused(1024, 3);
        refused(0, 1);
        refused(2, 0);
        let huge = header(u64::MAX, 1);
        let err = serde::from_bytes::<ExactSmallL0>(&huge).expect_err("geometry accepted");
        assert!(err.to_string().contains("geometry"), "{err}");

        // The largest geometries `new` builds decode.
        for (capacity, trials) in [(1448, 1), (1024, 2)] {
            let buckets = (2 * capacity * capacity).max(16);
            let mut bytes = header(capacity, trials);
            for _ in 0..trials {
                bytes.extend(trial_bytes(buckets, P, FORM_SPARSE, &sparse_body(0, &[])));
            }
            let back: ExactSmallL0 = serde::from_bytes(&bytes).expect("largest geometry");
            assert_eq!(back.buckets * trials, 2 * capacity * capacity * trials);
        }

        // Embedded structures must have exactly the expected geometry.
        let legit = serde::to_bytes(&fresh(141, 5));
        let shaped = |bytes: &[u8], capacity, delta| {
            let mut input = bytes;
            ExactSmallL0::deserialize_as(&mut input, capacity, delta)
        };
        assert!(shaped(&legit, 141, 1.0 / 16.0).is_ok());
        assert!(shaped(&legit, 141, 1.0 / 32.0).is_err());
        assert!(shaped(&legit, 100, 1.0 / 16.0).is_err());
    }

    #[test]
    #[should_panic(expected = "structure too large for the wire form")]
    fn geometries_beyond_the_wire_bound_are_refused() {
        let largest = ExactSmallL0::new(1448, 0.5, &mut SplitMix64::new(1));
        assert_eq!(largest.buckets, 2 * 1448 * 1448);
        let two_trials = ExactSmallL0::new(1024, 0.25, &mut SplitMix64::new(1));
        assert_eq!(two_trials.trials.len() as u64 * two_trials.buckets, 1 << 22);
        let _ = ExactSmallL0::new(1024, 0.2, &mut SplitMix64::new(1));
    }

    #[test]
    fn space_scales_quadratically_with_capacity() {
        let small = fresh(10, 8);
        let large = fresh(100, 8);
        assert!(large.space_bits() > small.space_bits() * 20);
    }
}
