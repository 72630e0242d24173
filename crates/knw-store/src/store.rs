//! The budgeted keyed sketch store.
//!
//! See the crate docs for the promotion/merge contract and the budget and
//! eviction semantics.

use std::any::Any;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use knw_core::{MergeableEstimator, SketchError, SpaceUsage};
use knw_hash::rng::mix64;
use knw_metrics::{Counter, Gauge, MetricsRegistry};

use crate::family::SketchFamily;
use crate::key::StoreKey;

/// Magic bytes opening the store wire format (`to_wire_bytes`).
pub const STORE_WIRE_MAGIC: [u8; 8] = *b"KNWSTOR1";

/// Salt folded into the per-key sketch seed derivation.
const ENTRY_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Default promotion threshold: a sparse entry holding this many items is
/// still far cheaper than a full sketch, so promotion only pays past it.
pub const DEFAULT_PROMOTE_THRESHOLD: usize = 64;

/// Default memory budget for the resident tier (64 MiB).
pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// Derives the hash seed for one key's promoted sketch.
///
/// A pure function of `(store seed, route_key)`: two shards of a keyed
/// stream promote the same key into hash-compatible, mergeable sketches
/// without coordination.
fn entry_seed(store_seed: u64, route_key: u64) -> u64 {
    mix64(mix64(route_key ^ ENTRY_SEED_SALT) ^ store_seed)
}

/// Configuration of a [`SketchStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig<C> {
    /// Configuration template for promoted sketches (seed replaced per key).
    pub sketch: C,
    /// A sparse entry promotes when its item set *exceeds* this many items.
    pub promote_threshold: usize,
    /// Resident-tier memory budget in bytes, enforced at the end of each
    /// mutation: crossing it evicts cold keys once the mutation's updates
    /// are applied, so one [`ingest_batch`](SketchStore::ingest_batch) can
    /// overshoot it by the entries that batch grows or reloads (see
    /// [`StoreStats::budget_high_water`]).
    pub budget_bytes: usize,
    /// Store seed, folded into every per-key sketch seed.
    pub seed: u64,
}

impl<C> StoreConfig<C> {
    /// Creates a store configuration with default threshold, budget and seed.
    #[must_use]
    pub fn new(sketch: C) -> Self {
        Self {
            sketch,
            promote_threshold: DEFAULT_PROMOTE_THRESHOLD,
            budget_bytes: DEFAULT_BUDGET_BYTES,
            seed: 0,
        }
    }

    /// Sets the sparse-to-promoted threshold (number of per-key items).
    #[must_use]
    pub fn with_promote_threshold(mut self, threshold: usize) -> Self {
        self.promote_threshold = threshold.max(1);
        self
    }

    /// Sets the resident-tier memory budget in bytes.
    #[must_use]
    pub fn with_budget_bytes(mut self, budget: usize) -> Self {
        self.budget_bytes = budget;
        self
    }

    /// Sets the store seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Lifetime counters of one store (also exported via [`StoreMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Sparse entries promoted to full sketches.
    pub promotions: u64,
    /// Resident entries spilled to the cold tier.
    pub evictions: u64,
    /// Cold entries reloaded into the resident tier.
    pub reloads: u64,
    /// Highest resident-tier footprint observed (bytes, before eviction).
    pub budget_high_water: usize,
}

/// Per-store gauges and counters registered in a
/// [`MetricsRegistry`], all labeled `store="<label>"`.
#[derive(Clone)]
pub struct StoreMetrics {
    resident_keys: Arc<Gauge>,
    cold_keys: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
    cold_tier_bytes: Arc<Gauge>,
    budget_high_water_bytes: Arc<Gauge>,
    promotions: Arc<Counter>,
    evictions: Arc<Counter>,
    reloads: Arc<Counter>,
}

impl StoreMetrics {
    /// Registers the store metric family under the given `store` label.
    #[must_use]
    pub fn register(registry: &MetricsRegistry, store: &str) -> Self {
        let labels = &[("store", store)][..];
        Self {
            resident_keys: registry.gauge("knw_store_resident_keys", labels),
            cold_keys: registry.gauge("knw_store_cold_keys", labels),
            resident_bytes: registry.gauge("knw_store_resident_bytes", labels),
            cold_tier_bytes: registry.gauge("knw_store_cold_tier_bytes", labels),
            budget_high_water_bytes: registry.gauge("knw_store_budget_high_water_bytes", labels),
            promotions: registry.counter("knw_store_promotions_total", labels),
            evictions: registry.counter("knw_store_evictions_total", labels),
            reloads: registry.counter("knw_store_reloads_total", labels),
        }
    }
}

/// One key's state: a resident entry with its accounted footprint, or its
/// spilled bytes.
#[derive(Debug, Clone)]
enum Slot<E> {
    Resident {
        entry: E,
        /// Accounted footprint (entry bytes + fixed per-key overhead).
        bytes: usize,
    },
    /// Cold tier: spilled entry bytes, reloadable exactly.
    Cold(Vec<u8>),
}

/// Millions of tiny per-key KNW sketches behind one memory budget.
///
/// Each key's entry starts sparse/exact and lazily promotes to a full
/// [`KnwF0Sketch`](knw_core::KnwF0Sketch) /
/// [`KnwL0Sketch`](knw_core::KnwL0Sketch) past
/// [`promote_threshold`](StoreConfig::promote_threshold); cold keys are
/// evicted (clock second-chance) to a serialized cold tier and reloaded on
/// the next touch, exactly. See the crate docs for the full contract.
pub struct SketchStore<K: StoreKey, F: SketchFamily> {
    config: StoreConfig<F::SketchConfig>,
    /// Key → slot. Keys are never removed, so a key keeps its slot for
    /// life; walks that need key order sort slots by key when they run.
    index: HashMap<K, u32>,
    /// The key of each slot.
    keys: Vec<K>,
    /// Each key's entry, resident or spilled, indexed like `keys`.
    slots: Vec<Slot<F::Entry>>,
    /// Clock ring over resident slots (front = next eviction candidate).
    clock: VecDeque<u32>,
    /// Clock reference bit of each slot: set on touch, cleared on a clock
    /// pass. Kept apart from `slots` so a clock pass reads a dense array.
    referenced: Vec<bool>,
    resident_len: usize,
    resident_bytes: usize,
    cold_bytes: usize,
    stats: StoreStats,
    metrics: Option<StoreMetrics>,
    _family: PhantomData<fn() -> F>,
}

impl<K: StoreKey, F: SketchFamily> Clone for SketchStore<K, F> {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            index: self.index.clone(),
            keys: self.keys.clone(),
            slots: self.slots.clone(),
            clock: self.clock.clone(),
            referenced: self.referenced.clone(),
            resident_len: self.resident_len,
            resident_bytes: self.resident_bytes,
            cold_bytes: self.cold_bytes,
            stats: self.stats,
            metrics: self.metrics.clone(),
            _family: PhantomData,
        }
    }
}

impl<K: StoreKey, F: SketchFamily> std::fmt::Debug for SketchStore<K, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchStore")
            .field("family", &F::NAME)
            .field("resident_keys", &self.resident_len())
            .field("cold_keys", &self.cold_len())
            .field("resident_bytes", &self.resident_bytes)
            .field("cold_bytes", &self.cold_bytes)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<K: StoreKey, F: SketchFamily> SketchStore<K, F> {
    /// Fixed accounted overhead per resident key (index entry, slot, ring
    /// position). An accounting constant, not a measured size: it stays
    /// fixed when the store's layout changes, so a given budget admits the
    /// same keys and evicts at the same points.
    const KEY_OVERHEAD: usize = std::mem::size_of::<K>() + 48;

    /// Creates an empty store.
    #[must_use]
    pub fn new(config: StoreConfig<F::SketchConfig>) -> Self {
        Self {
            config,
            index: HashMap::new(),
            keys: Vec::new(),
            slots: Vec::new(),
            clock: VecDeque::new(),
            referenced: Vec::new(),
            resident_len: 0,
            resident_bytes: 0,
            cold_bytes: 0,
            stats: StoreStats::default(),
            metrics: None,
            _family: PhantomData,
        }
    }

    /// Attaches per-store metrics, published on every mutation.
    #[must_use]
    pub fn with_metrics(mut self, registry: &MetricsRegistry, label: &str) -> Self {
        self.metrics = Some(StoreMetrics::register(registry, label));
        self
    }

    /// The store configuration.
    pub fn config(&self) -> &StoreConfig<F::SketchConfig> {
        &self.config
    }

    /// Lifetime promotion/eviction/reload counters and budget high-water.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Total number of tracked keys (resident + cold).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store tracks no keys at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of keys in the resident (hot) tier.
    pub fn resident_len(&self) -> usize {
        self.resident_len
    }

    /// Number of keys spilled to the cold tier.
    pub fn cold_len(&self) -> usize {
        self.slots.len() - self.resident_len
    }

    /// Accounted resident-tier footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Serialized cold-tier footprint in bytes.
    pub fn cold_bytes(&self) -> usize {
        self.cold_bytes
    }

    /// Applies one update to one key.
    pub fn update(&mut self, key: K, update: F::Update) {
        let found = self.index.get(&key).copied();
        self.apply_run(&key, found, &[update]);
        self.finish_mutation();
    }

    /// Batch ingest: groups `batch` by key **before** touching any sketch,
    /// then applies each key's updates in their original relative order.
    ///
    /// Grouping is the same coalescing trick the engines use, one level up:
    /// one index lookup (and at most one cold-tier reload) per distinct key
    /// in the batch instead of per update. Runs are applied in ascending key
    /// order, so the clock ring order is a function of the batch contents.
    pub fn ingest_batch(&mut self, batch: &[(K, F::Update)]) {
        self.ingest_grouped(batch, |u| &u.0, |u| u.1);
    }

    /// [`ingest_batch`](Self::ingest_batch) over any update record, read
    /// through `key` and `update` in place rather than repacked.
    pub(crate) fn ingest_grouped<T>(
        &mut self,
        batch: &[T],
        key: impl Fn(&T) -> &K,
        update: impl Fn(&T) -> F::Update,
    ) {
        if batch.is_empty() {
            return;
        }
        // Stable sort of positions by key: groups duplicates while keeping
        // each key's updates in arrival order (not that entry state depends
        // on it — see the promotion contract — but determinism is free).
        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by(|&a, &b| key(&batch[a]).cmp(key(&batch[b])));
        let groups: Vec<&[usize]> = order
            .chunk_by(|&a, &b| key(&batch[a]) == key(&batch[b]))
            .collect();
        // Look every run's key up before touching any entry: independent
        // lookups overlap their cache misses. Runs hold distinct keys, so
        // a slot added for one run never changes another's lookup.
        let found: Vec<Option<u32>> = groups
            .iter()
            .map(|group| self.index.get(key(&batch[group[0]])).copied())
            .collect();
        let mut run: Vec<F::Update> = Vec::new();
        for (group, found) in groups.into_iter().zip(found) {
            run.clear();
            run.extend(group.iter().map(|&i| update(&batch[i])));
            self.apply_run(key(&batch[group[0]]), found, &run);
        }
        self.finish_mutation();
    }

    /// The current estimate for `key`: exact while sparse, the KNW estimate
    /// once promoted; `None` for never-seen keys.
    ///
    /// Cold keys are decoded transiently — a read does not touch residency
    /// or the clock.
    pub fn estimate(&self, key: &K) -> Option<f64> {
        self.index
            .get(key)
            .map(|&slot| self.slot_estimate(slot as usize))
    }

    /// Visits every key's estimate in global key order (resident and cold
    /// slots alike).
    pub fn for_each_estimate(&self, mut visit: impl FnMut(&K, f64)) {
        for slot in self.slots_by_key() {
            visit(&self.keys[slot], self.slot_estimate(slot));
        }
    }

    /// Sum of all per-key estimates, accumulated in global key order (so
    /// the `f64` sum is deterministic for a given key→estimate mapping).
    pub fn estimate_total(&self) -> f64 {
        let mut total = 0.0;
        self.for_each_estimate(|_, estimate| total += estimate);
        total
    }

    /// The estimate held in `slot`; a cold slot is decoded transiently.
    fn slot_estimate(&self, slot: usize) -> f64 {
        match &self.slots[slot] {
            Slot::Resident { entry, .. } => F::estimate(entry),
            Slot::Cold(bytes) => {
                F::estimate(&F::unspill(bytes).expect("cold-tier bytes are store-written"))
            }
        }
    }

    /// Every slot, sorted by key: the global key order of every walk.
    fn slots_by_key(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_unstable_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        order
    }

    /// Applies a run of updates for one key against its resident entry;
    /// `found` is the key's slot as the index holds it.
    ///
    /// Callers follow up with [`finish_mutation`](Self::finish_mutation)
    /// once per externally-visible mutation.
    fn apply_run(&mut self, key: &K, found: Option<u32>, updates: &[F::Update]) {
        self.mutate(key, found, |entry, config, seed, threshold| {
            F::apply_run(entry, updates, config, seed, threshold);
        });
    }

    /// Merges one foreign entry (same key, different stream segment) into
    /// this store, promoting at the merge boundary when the union crosses
    /// the threshold.
    fn merge_entry(&mut self, key: &K, other: &F::Entry) -> Result<(), SketchError> {
        let found = self.index.get(key).copied();
        self.mutate(key, found, |entry, config, seed, threshold| {
            F::merge(entry, other, config, seed, threshold)
        })
    }

    /// Makes `key` resident, marks it referenced, runs `change` on its
    /// entry (with the sketch configuration, the key's entry seed and the
    /// promotion threshold), then re-accounts its bytes and counts a
    /// promotion if `change` made one.
    fn mutate<R>(
        &mut self,
        key: &K,
        found: Option<u32>,
        change: impl FnOnce(&mut F::Entry, &F::SketchConfig, u64, usize) -> R,
    ) -> R {
        let seed = entry_seed(self.config.seed, key.route_key());
        let slot = self.resident_slot(key, found);
        self.referenced[slot] = true;
        let Slot::Resident { entry, bytes } = &mut self.slots[slot] else {
            unreachable!("resident_slot leaves the key resident");
        };
        let was_promoted = F::is_promoted(entry);
        let result = change(
            entry,
            &self.config.sketch,
            seed,
            self.config.promote_threshold,
        );
        let promoted_now = !was_promoted && F::is_promoted(entry);
        let new_bytes = F::entry_bytes(entry) + Self::KEY_OVERHEAD;
        self.resident_bytes = self.resident_bytes - *bytes + new_bytes;
        *bytes = new_bytes;
        if promoted_now {
            self.stats.promotions += 1;
            if let Some(metrics) = &self.metrics {
                metrics.promotions.inc();
            }
        }
        result
    }

    /// The slot of `key`, made resident: a cold slot is reloaded in place,
    /// and a never-seen key gets a new slot holding a fresh sparse entry.
    fn resident_slot(&mut self, key: &K, found: Option<u32>) -> usize {
        let Some(slot) = found else {
            let slot = self.slots.len();
            let id = u32::try_from(slot).expect("a store holds fewer than 2^32 keys");
            self.index.insert(key.clone(), id);
            self.keys.push(key.clone());
            self.referenced.push(true);
            let resident = self.admit(id, F::empty_entry());
            self.slots.push(resident);
            return slot;
        };
        if let Slot::Cold(bytes) = &self.slots[slot as usize] {
            self.cold_bytes -= bytes.len();
            let entry = F::unspill(bytes).expect("cold-tier bytes are store-written");
            self.stats.reloads += 1;
            if let Some(metrics) = &self.metrics {
                metrics.reloads.inc();
            }
            self.slots[slot as usize] = self.admit(slot, entry);
        }
        slot as usize
    }

    /// Accounts `entry` as resident in slot `id` and enqueues the slot at
    /// the back of the clock ring; returns the slot state to store. The
    /// caller, [`mutate`](Self::mutate), sets the reference bit.
    fn admit(&mut self, id: u32, entry: F::Entry) -> Slot<F::Entry> {
        let bytes = F::entry_bytes(&entry) + Self::KEY_OVERHEAD;
        self.resident_bytes += bytes;
        self.resident_len += 1;
        self.clock.push_back(id);
        Slot::Resident { entry, bytes }
    }

    /// Budget bookkeeping after a mutation: record the high-water mark
    /// (pre-eviction), evict down to budget, publish gauges.
    fn finish_mutation(&mut self) {
        if self.resident_bytes > self.stats.budget_high_water {
            self.stats.budget_high_water = self.resident_bytes;
        }
        while self.resident_bytes > self.config.budget_bytes && self.resident_len > 1 {
            if !self.evict_one() {
                break;
            }
        }
        self.publish_gauges();
    }

    /// Clock second-chance eviction of one resident entry to the cold tier.
    ///
    /// Returns `false` when no candidate exists. Eviction is exact: the
    /// spilled bytes decode back to the identical entry, so evict → reload
    /// → continue produces the same estimates as never evicting.
    fn evict_one(&mut self) -> bool {
        // Every resident slot sits in the ring exactly once; referenced
        // slots are given a second chance (cleared + requeued), so the scan
        // terminates within two passes.
        for _ in 0..self.clock.len().saturating_mul(2).saturating_add(1) {
            let Some(id) = self.clock.pop_front() else {
                return false;
            };
            let referenced = &mut self.referenced[id as usize];
            if *referenced {
                *referenced = false;
                self.clock.push_back(id);
                continue;
            }
            let slot = &mut self.slots[id as usize];
            let Slot::Resident { entry, bytes } = slot else {
                unreachable!("the clock ring holds resident slots only");
            };
            let spilled = F::spill(entry);
            self.resident_bytes -= *bytes;
            self.resident_len -= 1;
            self.cold_bytes += spilled.len();
            *slot = Slot::Cold(spilled);
            self.stats.evictions += 1;
            if let Some(metrics) = &self.metrics {
                metrics.evictions.inc();
            }
            return true;
        }
        false
    }

    fn publish_gauges(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.resident_keys.set(self.resident_len() as u64);
            metrics.cold_keys.set(self.cold_len() as u64);
            metrics.resident_bytes.set(self.resident_bytes as u64);
            metrics.cold_tier_bytes.set(self.cold_bytes as u64);
            metrics
                .budget_high_water_bytes
                .set_max(self.stats.budget_high_water as u64);
        }
    }

    // -- wire format --------------------------------------------------------

    /// Serializes the whole store (both tiers) into one wire/snapshot blob.
    ///
    /// Layout: magic, family tag, store seed, promotion threshold, sketch
    /// configuration, key count, then per key in global sorted order the
    /// serialized key and its length-prefixed entry bytes (the same bytes
    /// the cold tier holds).
    #[must_use]
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.resident_bytes + self.cold_bytes);
        out.extend_from_slice(&STORE_WIRE_MAGIC);
        out.push(F::WIRE_TAG);
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        out.extend_from_slice(&(self.config.promote_threshold as u64).to_le_bytes());
        self.config.sketch.serialize(&mut out);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for slot in self.slots_by_key() {
            self.keys[slot].serialize(&mut out);
            let bytes = match &self.slots[slot] {
                Slot::Resident { entry, .. } => Cow::Owned(F::spill(entry)),
                Slot::Cold(bytes) => Cow::Borrowed(bytes),
            };
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Merges a [`to_wire_bytes`](Self::to_wire_bytes) blob from a peer
    /// store of the same family and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleConfig`] when the magic, family
    /// tag, sketch configuration or promotion threshold differ,
    /// [`SketchError::SeedMismatch`] on a store-seed mismatch, and decode
    /// errors on malformed bytes. On error the store may hold a prefix of
    /// the peer's keys already merged.
    pub fn merge_wire_bytes(&mut self, bytes: &[u8]) -> Result<(), SketchError> {
        let mut input = bytes;
        let magic: [u8; 8] = take_array(&mut input)?;
        if magic != STORE_WIRE_MAGIC {
            return Err(SketchError::config_mismatch(
                "store_magic",
                STORE_WIRE_MAGIC,
                magic,
            ));
        }
        let tag: [u8; 1] = take_array(&mut input)?;
        if tag[0] != F::WIRE_TAG {
            return Err(SketchError::config_mismatch(
                "store_family",
                F::WIRE_TAG,
                tag[0],
            ));
        }
        let seed = u64::from_le_bytes(take_array(&mut input)?);
        if seed != self.config.seed {
            return Err(SketchError::SeedMismatch);
        }
        let threshold = u64::from_le_bytes(take_array(&mut input)?);
        if threshold != self.config.promote_threshold as u64 {
            return Err(SketchError::config_mismatch(
                "promote_threshold",
                self.config.promote_threshold,
                threshold,
            ));
        }
        let sketch_config = F::SketchConfig::deserialize(&mut input)
            .map_err(|e| SketchError::config_mismatch("sketch_config", F::NAME, format!("{e}")))?;
        if sketch_config != self.config.sketch {
            return Err(SketchError::config_mismatch(
                "sketch_config",
                self.config.sketch,
                sketch_config,
            ));
        }
        let count = u64::from_le_bytes(take_array(&mut input)?);
        for _ in 0..count {
            let key = K::deserialize(&mut input)
                .map_err(|e| SketchError::config_mismatch("store_key", F::NAME, format!("{e}")))?;
            let len = u64::from_le_bytes(take_array(&mut input)?) as usize;
            if input.len() < len {
                return Err(SketchError::config_mismatch(
                    "entry_bytes",
                    len,
                    input.len(),
                ));
            }
            let (entry_bytes, rest) = input.split_at(len);
            input = rest;
            let entry = F::unspill(entry_bytes)?;
            self.merge_entry(&key, &entry)?;
        }
        if !input.is_empty() {
            return Err(SketchError::config_mismatch(
                "trailing_bytes",
                0usize,
                input.len(),
            ));
        }
        self.finish_mutation();
        Ok(())
    }

    /// Reconstructs a store from a [`to_wire_bytes`](Self::to_wire_bytes)
    /// blob, with a locally-chosen memory budget (the budget is residency
    /// policy, not state, and deliberately does not travel).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`merge_wire_bytes`](Self::merge_wire_bytes).
    pub fn from_wire_bytes(bytes: &[u8], budget_bytes: usize) -> Result<Self, SketchError> {
        let mut input = bytes;
        let magic: [u8; 8] = take_array(&mut input)?;
        if magic != STORE_WIRE_MAGIC {
            return Err(SketchError::config_mismatch(
                "store_magic",
                STORE_WIRE_MAGIC,
                magic,
            ));
        }
        let tag: [u8; 1] = take_array(&mut input)?;
        if tag[0] != F::WIRE_TAG {
            return Err(SketchError::config_mismatch(
                "store_family",
                F::WIRE_TAG,
                tag[0],
            ));
        }
        let seed = u64::from_le_bytes(take_array(&mut input)?);
        let threshold = u64::from_le_bytes(take_array(&mut input)?) as usize;
        let sketch_config = F::SketchConfig::deserialize(&mut input)
            .map_err(|e| SketchError::config_mismatch("sketch_config", F::NAME, format!("{e}")))?;
        let config = StoreConfig::new(sketch_config)
            .with_promote_threshold(threshold)
            .with_budget_bytes(budget_bytes)
            .with_seed(seed);
        let mut store = Self::new(config);
        store.merge_wire_bytes(bytes)?;
        Ok(store)
    }
}

/// Pops a fixed-size array from the front of `input`.
fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], SketchError> {
    if input.len() < N {
        return Err(SketchError::config_mismatch(
            "truncated_store_bytes",
            N,
            input.len(),
        ));
    }
    let (head, rest) = input.split_at(N);
    *input = rest;
    Ok(head.try_into().expect("split_at(N) yields N bytes"))
}

impl<K: StoreKey, F: SketchFamily> MergeableEstimator for SketchStore<K, F> {
    type MergeError = SketchError;

    /// Merges a peer store (same family, configuration and seed) key by key.
    ///
    /// Per-key merges promote at the boundary exactly as single-stream
    /// ingestion would (see the crate docs), so an N-way shard partition of
    /// a keyed stream merges back bit-identical in every per-key estimate.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleConfig`] /
    /// [`SketchError::SeedMismatch`] on configuration divergence; on a
    /// per-key error the store may hold a prefix of `other`'s keys merged.
    fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if other.config.sketch != self.config.sketch {
            return Err(SketchError::config_mismatch(
                "sketch_config",
                self.config.sketch,
                other.config.sketch,
            ));
        }
        if other.config.seed != self.config.seed {
            return Err(SketchError::SeedMismatch);
        }
        if other.config.promote_threshold != self.config.promote_threshold {
            return Err(SketchError::config_mismatch(
                "promote_threshold",
                self.config.promote_threshold,
                other.config.promote_threshold,
            ));
        }
        // Resident keys first, then cold ones, each in key order (a stable
        // sort on the tier). New keys join this store's clock ring in that
        // order, so it must depend on the peer's state only, never on its
        // slot layout; `eviction_policy_is_pinned` holds it fixed.
        let mut order = other.slots_by_key();
        order.sort_by_key(|&slot| matches!(other.slots[slot], Slot::Cold(_)));
        for slot in order {
            match &other.slots[slot] {
                Slot::Resident { entry, .. } => self.merge_entry(&other.keys[slot], entry)?,
                Slot::Cold(bytes) => self.merge_entry(&other.keys[slot], &F::unspill(bytes)?)?,
            }
        }
        self.finish_mutation();
        Ok(())
    }
}

impl<K: StoreKey, F: SketchFamily> SpaceUsage for SketchStore<K, F> {
    /// Accounted footprint of both tiers, in bits.
    fn space_bits(&self) -> u64 {
        (self.resident_bytes as u64 + self.cold_bytes as u64) * 8
    }
}

/// Object-safe store merge: the erased counterpart of
/// [`MergeableEstimator`] for keyed stores, mirroring
/// [`DynMergeableCardinalityEstimator`](knw_core::DynMergeableCardinalityEstimator)
/// so heterogeneous shard sets can hold `Box<dyn DynMergeableStore>`.
pub trait DynMergeableStore: Send {
    /// The receiver as [`Any`], enabling the downcast in
    /// [`merge_dyn`](Self::merge_dyn).
    fn as_any(&self) -> &dyn Any;

    /// Store family + key type name for type-mismatch diagnostics.
    fn store_type(&self) -> &'static str;

    /// Type-erased merge: downcasts `other` to `Self` and delegates to
    /// [`MergeableEstimator::merge_from`].
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::TypeMismatch`] when `other` is a store over a
    /// different family or key type, or the underlying merge error when
    /// configurations or seeds differ.
    fn merge_dyn(&mut self, other: &dyn DynMergeableStore) -> Result<(), SketchError>;

    /// Sum of all per-key estimates (see
    /// [`SketchStore::estimate_total`]).
    fn estimate_total_dyn(&self) -> f64;
}

impl<K: StoreKey, F: SketchFamily> DynMergeableStore for SketchStore<K, F> {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn store_type(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    fn merge_dyn(&mut self, other: &dyn DynMergeableStore) -> Result<(), SketchError> {
        match other.as_any().downcast_ref::<Self>() {
            Some(concrete) => self.merge_from(concrete),
            None => Err(SketchError::TypeMismatch {
                expected: self.store_type(),
                found: other.store_type(),
            }),
        }
    }

    fn estimate_total_dyn(&self) -> f64 {
        self.estimate_total()
    }
}
