//! The aggregator side: reaches N workers through a [`Transport`] — spawned
//! child processes on stdin/stdout pipes ([`PipeTransport`]) or
//! already-running remote workers on TCP sockets ([`TcpTransport`]), as a
//! [`ClusterConfig`] says — streams batches to them over the frame protocol
//! using the *same* routing stage as the in-process engine
//! ([`knw_engine::ShardBatcher`]), and merges their serialized shards into
//! one sketch.
//!
//! ```text
//!        ingest / ingest_batch  (U = u64 or (item, ±delta))
//!                     │
//!          ┌──────────▼──────────┐   optional pre-coalescing
//!          │  ShardBatcher       │   (per-item delta sums, L0 only)
//!          │  RoundRobin/HashAff │
//!          └──────────┬──────────┘
//!     Batch frames    │  (length-prefixed serde codec,
//!                     │   pipes or TCP sockets)
//!      ┌──────────┬───┴──────┬──────────────┐
//! ┌────▼───┐ ┌────▼───┐ ┌────▼───┐    ┌────▼───┐
//! │worker 0│ │worker 1│ │worker 2│  … │worker N│   child processes or
//! │ sketch │ │ sketch │ │ sketch │    │ sketch │   listening hosts,
//! └────┬───┘ └────┬───┘ └────┬───┘    └────┬───┘   one shard each
//!      └──────────┴─────┬────┴──────────────┘
//!       Shard{bytes}    │  (pipes / sockets back)
//!                deserialize + merge_dyn fold
//!                       │
//!                  estimate()
//! ```
//!
//! Because the batcher, policies and batch sizes are shared with
//! [`ShardRouter`](knw_engine::ShardRouter) / `ShardedEngine`, a cluster
//! run's shard contents are identical to an in-process run's — and since
//! every sketch in the workspace merges exactly, the final estimate is
//! bit-identical to a single-process, single-sketch run over the same
//! stream.

use crate::error::ClusterError;
use crate::frame::MAX_FRAME_LEN;
use crate::frame::{
    BatchPayload, Frame, FrameView, HelloConfig, SketchSpec, StreamMode, WireError, WorkerStats,
};
use crate::recovery::{RecoveryPolicy, WorkerRegistry};
use crate::spec::{build_f0, build_l0, f0_shard_from_bytes, l0_shard_from_bytes};
use crate::spec::{WireF0Sketch, WireL0Sketch};
use crate::transport::{
    PipeTransport, TcpTransport, Transport, WorkerConnection, DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_IO_TIMEOUT,
};
use knw_core::{DynMergeableCardinalityEstimator, DynMergeableTurnstileEstimator, SketchError};
use knw_engine::{BatcherMetrics, EngineConfig, Routable, RoutingPolicy, ShardBatcher};
use knw_hash::rng::{epoch_shard_for_key, split_parent};
use knw_metrics::{knw_log, Counter, Histogram};
use std::collections::HashSet;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// An update type the cluster can stream: ties the routing-stage contract
/// ([`Routable`]) to the wire format (payload framing, shard construction,
/// deserialization and merging) for its stream model.
///
/// Implemented for `u64` (insert-only F0 workers) and `(u64, i64)`
/// (turnstile L0 workers); never implement it manually.
pub trait ClusterUpdate: Routable {
    /// The erased shard-sketch type of this stream model.
    type Shard: ?Sized;

    /// Encoded size of one update inside a `Batch` frame's array (the
    /// workspace codec is fixed-width: 8 bytes per `u64` item, 16 per
    /// `(u64, i64)` update).  Drives the outgoing frame chunking that keeps
    /// every `Batch` frame below [`MAX_FRAME_LEN`].
    const WIRE_BYTES: usize;

    /// The codec's `BatchPayload` variant tag for this update type (0 for
    /// `Items`, 1 for `Updates`) — what the batch encoder writes where
    /// the derived serializer would write the enum discriminant.
    const WIRE_TAG: u32;

    /// Appends this update's fixed-width wire encoding — exactly
    /// [`WIRE_BYTES`](Self::WIRE_BYTES) little-endian bytes, matching the
    /// derived serializer — to `out`.
    fn write_wire(&self, out: &mut Vec<u8>);

    /// Reads one update back out of its fixed-width wire encoding — the
    /// inverse of [`write_wire`](Self::write_wire), over exactly
    /// [`WIRE_BYTES`](Self::WIRE_BYTES) bytes.  Elastic resharding uses it
    /// to split journaled frames under a new routing table.
    fn read_wire(bytes: &[u8]) -> Self;

    /// The stream model tag sent in the `Hello` frame.
    fn mode() -> StreamMode;

    /// Wraps a routed batch into the wire payload.
    fn payload(batch: Vec<Self>) -> BatchPayload;

    /// Builds a fresh local sketch for `spec` (used to validate the spec
    /// before spawning, and by single-process comparisons).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownEstimator`] for names outside the zoo.
    fn build(spec: &SketchSpec) -> Result<Box<Self::Shard>, ClusterError>;

    /// Decodes a worker's shard bytes; the error is the codec's message.
    ///
    /// # Errors
    ///
    /// The codec rejection, as a message the caller attributes to a worker.
    fn shard_from_bytes(spec: &SketchSpec, bytes: &[u8]) -> Result<Box<Self::Shard>, String>;

    /// Applies buffered (not yet dispatched) updates to a merged snapshot.
    fn apply(shard: &mut Self::Shard, batch: &[Self]);

    /// Merges `other` into `into` (exact for every workspace sketch).
    ///
    /// # Errors
    ///
    /// The sketch-level incompatibility, if the shards disagree on
    /// configuration or seeds.
    fn merge(into: &mut Self::Shard, other: &Self::Shard) -> Result<(), SketchError>;

    /// The shard's current estimate.
    fn estimate(shard: &Self::Shard) -> f64;

    /// Serializes a (merged) shard back to the bytes a `Frame::Shard`
    /// reply carries — the serve loop's answer to session `Snapshot` /
    /// `Finish` requests.
    fn shard_bytes(shard: &Self::Shard) -> Vec<u8>;

    /// Borrows this stream model's updates out of a decoded frame view
    /// (`None` if the view is not a batch of this model) — how the serve
    /// loop feeds session batches into the typed aggregator without
    /// copying.
    fn batch_view<'a>(view: &'a FrameView<'_>) -> Option<&'a [Self]>;
}

impl ClusterUpdate for u64 {
    type Shard = dyn WireF0Sketch;

    const WIRE_BYTES: usize = 8;

    const WIRE_TAG: u32 = 0;

    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_wire(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes[..8].try_into().expect("8-byte item"))
    }

    fn mode() -> StreamMode {
        StreamMode::F0
    }

    fn payload(batch: Vec<u64>) -> BatchPayload {
        BatchPayload::Items(batch)
    }

    fn build(spec: &SketchSpec) -> Result<Box<Self::Shard>, ClusterError> {
        build_f0(spec)
    }

    fn shard_from_bytes(spec: &SketchSpec, bytes: &[u8]) -> Result<Box<Self::Shard>, String> {
        f0_shard_from_bytes(spec, bytes)
    }

    fn apply(shard: &mut Self::Shard, batch: &[u64]) {
        shard.insert_batch(batch);
    }

    fn merge(into: &mut Self::Shard, other: &Self::Shard) -> Result<(), SketchError> {
        into.merge_dyn(other as &dyn DynMergeableCardinalityEstimator)
    }

    fn estimate(shard: &Self::Shard) -> f64 {
        shard.estimate()
    }

    fn shard_bytes(shard: &Self::Shard) -> Vec<u8> {
        shard.wire_bytes()
    }

    fn batch_view<'a>(view: &'a FrameView<'_>) -> Option<&'a [u64]> {
        match view {
            FrameView::Items(items) => Some(items),
            FrameView::Owned(Frame::Batch(BatchPayload::Items(items))) => Some(items),
            _ => None,
        }
    }
}

impl ClusterUpdate for (u64, i64) {
    type Shard = dyn WireL0Sketch;

    const WIRE_BYTES: usize = 16;

    const WIRE_TAG: u32 = 1;

    fn write_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }

    fn read_wire(bytes: &[u8]) -> Self {
        (
            u64::from_le_bytes(bytes[..8].try_into().expect("8-byte item")),
            i64::from_le_bytes(bytes[8..16].try_into().expect("8-byte delta")),
        )
    }

    fn mode() -> StreamMode {
        StreamMode::L0
    }

    fn payload(batch: Vec<(u64, i64)>) -> BatchPayload {
        BatchPayload::Updates(batch)
    }

    fn build(spec: &SketchSpec) -> Result<Box<Self::Shard>, ClusterError> {
        build_l0(spec)
    }

    fn shard_from_bytes(spec: &SketchSpec, bytes: &[u8]) -> Result<Box<Self::Shard>, String> {
        l0_shard_from_bytes(spec, bytes)
    }

    fn apply(shard: &mut Self::Shard, batch: &[(u64, i64)]) {
        shard.update_batch(batch);
    }

    fn merge(into: &mut Self::Shard, other: &Self::Shard) -> Result<(), SketchError> {
        into.merge_dyn(other as &dyn DynMergeableTurnstileEstimator)
    }

    fn estimate(shard: &Self::Shard) -> f64 {
        shard.estimate()
    }

    fn shard_bytes(shard: &Self::Shard) -> Vec<u8> {
        shard.wire_bytes()
    }

    fn batch_view<'a>(view: &'a FrameView<'_>) -> Option<&'a [(u64, i64)]> {
        match view {
            FrameView::Updates(updates) => Some(updates),
            FrameView::Owned(Frame::Batch(BatchPayload::Updates(updates))) => Some(updates),
            _ => None,
        }
    }
}

/// Where a cluster's workers come from.
#[derive(Debug, Clone)]
pub enum WorkerSource {
    /// Spawn one child process per shard from this `knw-worker` executable
    /// and speak frames over its stdin/stdout pipes ([`PipeTransport`]).
    /// Recovery re-spawns a fresh child.
    Spawn(PathBuf),
    /// Connect to already-running workers (`knw-worker --listen <addr>`)
    /// over TCP ([`TcpTransport`]): one shard per address, in order.  An
    /// attached registry supplies replacements when a worker's address
    /// stays unreachable; with an **empty** address list it places every
    /// shard from its pool of announced spares (pool placement).
    Tcp {
        /// One `host:port` per worker, in shard order (empty: pool placement).
        addrs: Vec<String>,
        /// Spare `knw-worker --register` hosts for re-resolution and
        /// placement.
        registry: Option<Arc<WorkerRegistry>>,
    },
}

/// Everything [`ClusterAggregator::start`] needs besides the sketch: the
/// shared engine knobs (shard count = worker count, batch size, routing
/// policy, pre-coalescing), where the workers come from, the recovery
/// policy, and the TCP link timeouts.
///
/// A static TCP address list pins the shard count to its length — one
/// worker, one shard — so the two cannot disagree.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Routing knobs, shared verbatim with the in-process engine.
    pub engine: EngineConfig,
    /// Spawned children or TCP workers.
    pub workers: WorkerSource,
    /// Reconnect-and-replay recovery for faulted workers (`None` — the
    /// default — fails the run on the first worker fault).  It also
    /// retries a worker that cannot be reached at start-up, and elastic
    /// resharding ([`ClusterAggregator::scale_to`]) requires it: its
    /// journals are what a split shard replays.
    pub recovery: Option<RecoveryPolicy>,
    /// How long to wait for each TCP worker to accept the connection.
    pub connect_timeout: Duration,
    /// Per-link read/write timeout on TCP links (`None` blocks forever —
    /// not recommended; the default keeps every failure mode bounded).
    pub io_timeout: Option<Duration>,
}

impl ClusterConfig {
    /// `workers` spawned `knw-worker` child processes on pipes.
    #[must_use]
    pub fn pipe(workers: usize, worker_exe: impl Into<PathBuf>) -> Self {
        Self::with_source(
            EngineConfig::new(workers),
            WorkerSource::Spawn(worker_exe.into()),
        )
    }

    /// TCP workers at `addrs`, one shard per address, with an optional
    /// registry of spares.  An empty `addrs` with a registry is pool
    /// placement: set the fleet size with [`with_engine`](Self::with_engine).
    #[must_use]
    pub fn tcp<A: Into<String>>(
        addrs: impl IntoIterator<Item = A>,
        registry: Option<Arc<WorkerRegistry>>,
    ) -> Self {
        let addrs: Vec<String> = addrs.into_iter().map(Into::into).collect();
        Self::with_source(
            EngineConfig::new(addrs.len()),
            WorkerSource::Tcp { addrs, registry },
        )
    }

    fn with_source(engine: EngineConfig, workers: WorkerSource) -> Self {
        Self {
            engine,
            workers,
            recovery: None,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
        }
    }

    /// Replaces the engine knobs (batch size, routing, pre-coalescing and —
    /// unless a static address list pins it — the shard count).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = self.pinned(engine);
        self
    }

    /// Enables reconnect-and-replay recovery with the given policy.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Sets the TCP per-link read/write timeout (`None` blocks forever).
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// `engine` with its shard count pinned to a static address list's
    /// length, and every knob clamped to its valid range.
    fn pinned(&self, engine: EngineConfig) -> EngineConfig {
        match &self.workers {
            WorkerSource::Tcp { addrs, .. } if !addrs.is_empty() => engine.with_shards(addrs.len()),
            _ => engine,
        }
        .normalized()
    }
}

/// Locates the sibling `knw-worker` binary next to the current executable
/// (handling cargo's `target/<profile>/deps/` and
/// `target/<profile>/examples/` layouts for tests, benches and examples).
/// Returns `None` when no such file exists — e.g. when only the library
/// was built.
#[must_use]
pub fn sibling_worker_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir
        .file_name()
        .is_some_and(|n| n == "deps" || n == "examples")
    {
        dir.pop();
    }
    let candidate = dir.join("knw-worker");
    candidate.is_file().then_some(candidate)
}

/// How a worker link failed terminally mid-stream (recovery disabled, or
/// already attempted and lost); replayed as the matching typed error at
/// the next report.
#[derive(Debug, Clone)]
enum WorkerFault {
    /// The link broke (dead process, reset connection, EOF).
    Died,
    /// The link timed out (stalled or half-open peer).
    TimedOut,
    /// An exchange failed without killing the link (codec rejection,
    /// protocol violation, merge failure): the conversation state is
    /// unknown — batches may be lost, reply frames may still be queued —
    /// so later reports refuse instead of silently under-merging.
    Desynced,
    /// The link's read timed out mid-frame: the byte stream is
    /// desynchronized but — unlike [`WorkerFault::Desynced`] — the cause
    /// is a link stall, not a deterministic failure, so recovery may
    /// re-dial and replay.
    LinkDesynced,
    /// Reconnect-and-replay recovery ran out of attempts.
    RecoveryExhausted {
        /// Attempts made before giving up.
        attempts: usize,
        /// Rendering of the last attempt's failure.
        last: String,
    },
    /// The replay journal had overflowed its bound before the fault.
    JournalOverflow {
        /// The configured per-shard journal bound.
        cap: usize,
    },
}

impl WorkerFault {
    fn to_error(&self, worker: usize) -> ClusterError {
        match self {
            WorkerFault::Died => ClusterError::WorkerDied { worker },
            WorkerFault::TimedOut => ClusterError::Timeout { worker },
            WorkerFault::Desynced => ClusterError::Protocol {
                worker,
                expected: "Shard",
                got: "a link desynchronized by an earlier failure".to_string(),
            },
            WorkerFault::LinkDesynced => ClusterError::Desynced { worker },
            WorkerFault::RecoveryExhausted { attempts, last } => ClusterError::RecoveryExhausted {
                worker,
                attempts: *attempts,
                last: last.clone(),
            },
            WorkerFault::JournalOverflow { cap } => {
                ClusterError::JournalOverflow { worker, cap: *cap }
            }
        }
    }

    /// The sticky fault a failed exchange (or failed recovery) leaves
    /// behind.
    fn from_error(error: &ClusterError) -> Self {
        match error {
            ClusterError::WorkerDied { .. } => WorkerFault::Died,
            ClusterError::Timeout { .. } => WorkerFault::TimedOut,
            ClusterError::Desynced { .. } => WorkerFault::LinkDesynced,
            ClusterError::RecoveryExhausted { attempts, last, .. } => {
                WorkerFault::RecoveryExhausted {
                    attempts: *attempts,
                    last: last.clone(),
                }
            }
            ClusterError::JournalOverflow { cap, .. } => WorkerFault::JournalOverflow { cap: *cap },
            _ => WorkerFault::Desynced,
        }
    }
}

/// Whether an error is a *link* fault (the worker or its connection is
/// gone, stalled, or desynchronized by a mid-frame stall) — the class
/// reconnect-and-replay can repair.  Protocol violations, codec rejections
/// and merge incompatibilities are deterministic: a fresh worker fed the
/// same journal reproduces them, so recovery refuses to retry those.  A
/// desynced link qualifies because recovery never *resumes* the old
/// connection: it re-dials and replays the journal on a fresh one, which
/// is sound whether or not the old stream position was lost.
fn is_link_fault(error: &ClusterError) -> bool {
    matches!(
        error,
        ClusterError::WorkerDied { .. }
            | ClusterError::Timeout { .. }
            | ClusterError::Desynced { .. }
            | ClusterError::ConnectFailed { .. }
            | ClusterError::Io { .. }
    )
}

/// Encoded overhead of a `Batch` frame around its update array: the
/// `Frame` variant tag (4 bytes), the `BatchPayload` variant tag (4) and
/// the array length (8).
const BATCH_FRAME_OVERHEAD: usize = 16;

/// The most updates one `Batch` frame can carry with its encoded payload
/// still within [`MAX_FRAME_LEN`]; the send boundary chunks larger routed
/// batches so an `Oversized` frame cannot be constructed locally.
fn max_updates_per_frame<U: ClusterUpdate>() -> usize {
    (MAX_FRAME_LEN - BATCH_FRAME_OVERHEAD) / U::WIRE_BYTES
}

/// Encodes one `Batch` frame for `updates` into `buf` (cleared first),
/// length prefix included — byte-identical to
/// `write_frame(buf, &Frame::Batch(U::payload(updates.to_vec())))`, pinned
/// by test.  Writing the fixed-width layout directly means the hot dispatch
/// path never materializes an owning `Frame` or a payload `Vec`: one reused
/// buffer carries every outgoing batch.
fn encode_batch_frame<U: ClusterUpdate>(buf: &mut Vec<u8>, updates: &[U]) {
    buf.clear();
    let payload_len = BATCH_FRAME_OVERHEAD + updates.len() * U::WIRE_BYTES;
    buf.reserve(4 + payload_len);
    buf.extend_from_slice(
        &u32::try_from(payload_len)
            .expect("chunked below MAX_FRAME_LEN")
            .to_le_bytes(),
    );
    buf.extend_from_slice(&1u32.to_le_bytes()); // Frame::Batch
    buf.extend_from_slice(&U::WIRE_TAG.to_le_bytes());
    buf.extend_from_slice(&(updates.len() as u64).to_le_bytes());
    for update in updates {
        update.write_wire(buf);
    }
}

/// Decodes the updates back out of one journaled `Batch` frame — the
/// inverse of [`encode_batch_frame`], over the fixed-width layout that
/// function pins (length prefix, `Frame`/payload tags, update count, then
/// `WIRE_BYTES` per update).  Only ever applied to frames the journal
/// itself encoded, so the layout is trusted; elastic resharding uses it to
/// re-route a split shard's journal under a new epoch table.
fn decode_journal_frame<U: ClusterUpdate>(frame: &[u8]) -> Vec<U> {
    let body = &frame[4 + BATCH_FRAME_OVERHEAD..];
    debug_assert_eq!(body.len() % U::WIRE_BYTES, 0, "journal frame layout");
    body.chunks_exact(U::WIRE_BYTES).map(U::read_wire).collect()
}

/// Ships one routed batch as one or more encoded `Batch` frames, each
/// holding at most `cap` updates (callers pass [`max_updates_per_frame`];
/// tests pass small caps to exercise the splitting).  Each chunk is encoded
/// once into the reused `buf` and sent raw; with a journal attached, the
/// encoded bytes are journaled (as shared `Arc<[u8]>` frames) *before* the
/// send, and every chunk of the batch is journaled even after a failed send
/// — a successful recovery's replay delivers the whole batch, so nothing
/// here needs re-sending.
fn send_encoded_batch_capped<U: ClusterUpdate>(
    conn: &mut dyn WorkerConnection,
    worker: usize,
    batch: &[U],
    cap: usize,
    buf: &mut Vec<u8>,
    mut journal: Option<(&mut ShardJournal, usize)>,
) -> Result<(), ClusterError> {
    let mut result = Ok(());
    for chunk in batch.chunks(cap.max(1)) {
        encode_batch_frame(buf, chunk);
        if let Some((journal, journal_cap)) = &mut journal {
            journal.record(Arc::from(buf.as_slice()), chunk.len(), *journal_cap);
        }
        if result.is_ok() {
            result = conn.send_raw(buf).map_err(|e| wire_fault(worker, e));
        }
    }
    result
}

/// One shard's replay journal: everything needed to rebuild the shard's
/// state on a fresh worker — the serialized checkpoint of the last
/// acknowledged snapshot (if any) plus every batch routed to the shard
/// since.  Sound because shard state is a pure fold of its batch stream:
/// `checkpoint ⊕ fold(batches)` *is* the state, byte for byte.
///
/// The journal stores *encoded* `Batch` frames (prefix included, shared
/// with the send path via `Arc`), not update values: replay is a straight
/// `send_raw` of bytes already proven well-formed, with no re-encoding —
/// and one journal type serves both stream models.
struct ShardJournal {
    /// Serialized shard bytes of the last acknowledged snapshot.
    checkpoint: Option<Vec<u8>>,
    /// Encoded frames dispatched since the checkpoint, in dispatch order,
    /// each with the number of updates it carries (the cap accounting).
    frames: Vec<(Arc<[u8]>, usize)>,
    /// Total updates across `frames`.
    journaled: usize,
    /// The journal exceeded its bound and was discarded; the shard can no
    /// longer be replayed (until the next acknowledged snapshot re-anchors
    /// it).
    overflowed: bool,
}

impl ShardJournal {
    fn new() -> Self {
        Self {
            checkpoint: None,
            frames: Vec::new(),
            journaled: 0,
            overflowed: false,
        }
    }

    /// Records one dispatched frame of `updates` updates, honouring the
    /// journal bound: a frame that would push the journal past `cap`
    /// discards the journal instead (memory stays bounded; a later fault is
    /// a typed [`ClusterError::JournalOverflow`]).
    fn record(&mut self, frame: Arc<[u8]>, updates: usize, cap: usize) {
        if self.overflowed {
            return;
        }
        if self.journaled + updates > cap {
            self.overflowed = true;
            self.frames = Vec::new();
            self.journaled = 0;
        } else {
            self.journaled += updates;
            self.frames.push((frame, updates));
        }
    }

    /// Re-anchors the journal on an acknowledged snapshot: the serialized
    /// shard bytes become the checkpoint, the batch list (and any overflow
    /// mark) is cleared.
    fn truncate_to_checkpoint(&mut self, bytes: Vec<u8>) {
        self.checkpoint = Some(bytes);
        self.frames.clear();
        self.journaled = 0;
        self.overflowed = false;
    }

    /// Builds a shard's post-reshard journal: the given checkpoint plus
    /// `updates` re-encoded as capped `Batch` frames (the same chunking the
    /// send path applies, so replaying the journal is indistinguishable
    /// from having dispatched the updates directly).
    fn from_split<U: ClusterUpdate>(checkpoint: Option<Vec<u8>>, updates: &[U]) -> Self {
        let mut journal = Self::new();
        journal.checkpoint = checkpoint;
        let cap = max_updates_per_frame::<U>().max(1);
        for chunk in updates.chunks(cap) {
            let mut buf = Vec::new();
            encode_batch_frame(&mut buf, chunk);
            journal.frames.push((buf.into(), chunk.len()));
            journal.journaled += chunk.len();
        }
        journal
    }
}

/// The aggregator's link instrumentation: per-worker send / fault /
/// recovery counters, the snapshot-latency histogram, and the fold of
/// worker-reported [`WorkerStats`] into the fleet-wide `knw_fleet_*`
/// families.  All handles are resolved against the process-wide registry
/// at construction, so the dispatch hot path touches nothing but
/// pre-registered atomics.
struct AggregatorMetrics {
    /// `Batch` frames shipped per worker (after chunking).
    sends: Vec<Arc<Counter>>,
    /// Encoded bytes shipped per worker, length prefixes included.
    send_bytes: Vec<Arc<Counter>>,
    /// Link faults observed per worker (before any recovery attempt).
    faults: Vec<Arc<Counter>>,
    /// Successful reconnect-and-replay recoveries per worker.
    recoveries: Vec<Arc<Counter>>,
    /// Journal frames replayed onto fresh links per worker.
    replayed_frames: Vec<Arc<Counter>>,
    /// Updates removed by pre-coalescing before routing.
    coalesced: Arc<Counter>,
    /// End-to-end latency of the snapshot exchange, in nanoseconds.
    snapshot_latency: Arc<Histogram>,
    /// Completed `scale_to` grows.
    reshard_scale_ups: Arc<Counter>,
    /// Completed `scale_to` shrinks.
    reshard_scale_downs: Arc<Counter>,
    /// Journal frames replayed onto fresh sessions by resharding (split
    /// replays on grow; recovery replays are counted separately under
    /// `knw_cluster_worker_replayed_frames_total`).
    reshard_replayed_frames: Arc<Counter>,
    /// Distinct routing keys moved to a different shard by resharding.
    reshard_moved_keys: Arc<Counter>,
    /// End-to-end latency of one `scale_to` call, in nanoseconds.
    reshard_latency: Arc<Histogram>,
}

impl AggregatorMetrics {
    /// Resolves the per-worker counter family `name` for worker indices
    /// `from..to` against the process-wide registry.
    fn per_worker_range(name: &str, from: usize, to: usize) -> Vec<Arc<Counter>> {
        let registry = knw_metrics::global();
        (from..to)
            .map(|worker| {
                let label = worker.to_string();
                registry.counter(name, &[("worker", &label)])
            })
            .collect()
    }

    fn register(workers: usize) -> Self {
        let registry = knw_metrics::global();
        let per_worker = |name: &str| Self::per_worker_range(name, 0, workers);
        Self {
            sends: per_worker("knw_cluster_worker_sends_total"),
            send_bytes: per_worker("knw_cluster_worker_send_bytes_total"),
            faults: per_worker("knw_cluster_worker_faults_total"),
            recoveries: per_worker("knw_cluster_worker_recoveries_total"),
            replayed_frames: per_worker("knw_cluster_worker_replayed_frames_total"),
            coalesced: registry.counter("knw_cluster_coalesced_updates_total", &[]),
            snapshot_latency: registry.histogram("knw_cluster_snapshot_latency_ns", &[]),
            reshard_scale_ups: registry.counter("knw_cluster_reshard_scale_ups_total", &[]),
            reshard_scale_downs: registry.counter("knw_cluster_reshard_scale_downs_total", &[]),
            reshard_replayed_frames: registry
                .counter("knw_cluster_reshard_replayed_frames_total", &[]),
            reshard_moved_keys: registry.counter("knw_cluster_reshard_moved_keys_total", &[]),
            reshard_latency: registry.histogram("knw_cluster_reshard_latency_ns", &[]),
        }
    }

    /// Grows every per-worker counter family to cover `workers` indices —
    /// called by `scale_to` so a grown fleet's new shards are counted from
    /// their first dispatched batch.  (Families never shrink: a retired
    /// index's counters keep their totals, matching the registry's
    /// monotonic contract.)
    fn ensure_workers(&mut self, workers: usize) {
        let families: [(&str, &mut Vec<Arc<Counter>>); 5] = [
            ("knw_cluster_worker_sends_total", &mut self.sends),
            ("knw_cluster_worker_send_bytes_total", &mut self.send_bytes),
            ("knw_cluster_worker_faults_total", &mut self.faults),
            ("knw_cluster_worker_recoveries_total", &mut self.recoveries),
            (
                "knw_cluster_worker_replayed_frames_total",
                &mut self.replayed_frames,
            ),
        ];
        for (name, counters) in families {
            if counters.len() < workers {
                let grown = Self::per_worker_range(name, counters.len(), workers);
                counters.extend(grown);
            }
        }
    }

    /// Records one dispatched batch: `frames` encoded `Batch` frames
    /// totalling `bytes` on the wire.  Arithmetic, not measurement — the
    /// encoding law is fixed-width (pinned by test), so the counts are
    /// computed from the batch length without touching the send buffer.
    fn on_send(&self, worker: usize, frames: u64, bytes: u64) {
        if let Some(counter) = self.sends.get(worker) {
            counter.add(frames);
        }
        if let Some(counter) = self.send_bytes.get(worker) {
            counter.add(bytes);
        }
    }

    fn on_fault(&self, worker: usize) {
        if let Some(counter) = self.faults.get(worker) {
            counter.inc();
        }
    }

    fn on_recovery(&self, worker: usize, replayed: u64) {
        if let Some(counter) = self.recoveries.get(worker) {
            counter.inc();
        }
        if let Some(counter) = self.replayed_frames.get(worker) {
            counter.add(replayed);
        }
    }

    /// Folds one worker's session counters (shipped back as
    /// [`Frame::Stats`] ahead of its final shard) into the fleet-wide
    /// `knw_fleet_*` families, labelled by worker index.
    fn record_worker_stats(&self, worker: usize, stats: WorkerStats) {
        let registry = knw_metrics::global();
        let label = worker.to_string();
        let pairs = [
            ("knw_fleet_frames_received_total", stats.frames_received),
            ("knw_fleet_batches_ingested_total", stats.batches_ingested),
            ("knw_fleet_updates_ingested_total", stats.updates_ingested),
            ("knw_fleet_snapshots_served_total", stats.snapshots_served),
        ];
        for (name, value) in pairs {
            registry.counter(name, &[("worker", &label)]).add(value);
        }
    }
}

/// The aggregator's link state, a field apart from the batcher so the
/// routing callbacks can dispatch, journal and recover while the batcher
/// is borrowed: connections, sticky-fault bookkeeping, journals, and the
/// transport + policy that reconnect-and-replay runs through.
struct LinkSet {
    /// The spec every worker was configured with.
    spec: SketchSpec,
    transport: Box<dyn Transport>,
    workers: Vec<Box<dyn WorkerConnection>>,
    /// Reconnect-and-replay policy; `None` fails the run on the first
    /// worker fault (the pre-recovery contract).
    recovery: Option<RecoveryPolicy>,
    /// One replay journal per shard (empty when recovery is off).
    journals: Vec<ShardJournal>,
    /// First worker whose link failed terminally mid-stream, and how.
    fault: Option<(usize, WorkerFault)>,
    /// Reused frame-encoding buffer (see [`encode_batch_frame`]); one
    /// allocation amortized over every dispatched batch.
    send_buf: Vec<u8>,
    /// Pre-registered handles into the process-wide metrics registry.
    metrics: AggregatorMetrics,
}

impl LinkSet {
    /// Marks the run poisoned by `error` on `worker` (the first fault
    /// sticks): later reports refuse with it instead of merging a fleet
    /// that lost updates.
    fn poison(&mut self, worker: usize, error: &ClusterError) {
        self.fault
            .get_or_insert((worker, WorkerFault::from_error(error)));
    }

    /// The sticky fault a terminally failed link left behind, as its typed
    /// error: every later report refuses with it.
    fn check_fault(&self) -> Result<(), ClusterError> {
        match &self.fault {
            Some((worker, fault)) => Err(fault.to_error(*worker)),
            None => Ok(()),
        }
    }

    /// Best-effort batch hand-off: the batch is journaled (when recovery is
    /// on) before the send, so a failed link can be reconnected and
    /// replayed in place; with recovery off — or lost — the worker is
    /// marked faulted for the next report, mirroring the in-process
    /// engine's `poisoned` bookkeeping.
    fn dispatch<U: ClusterUpdate>(&mut self, worker: usize, batch: Vec<U>) {
        // Once any link has faulted terminally the run can only end in
        // that error, so stop shipping batches: on TCP each further flush
        // to a stalled peer would cost a full io_timeout.
        if self.fault.is_some() {
            return;
        }
        // An empty batch carries no updates: spend neither a frame nor
        // journal space on it.
        if batch.is_empty() {
            return;
        }
        let journal = match self.recovery {
            Some(policy) => Some((&mut self.journals[worker], policy.journal_cap)),
            None => None,
        };
        let cap = max_updates_per_frame::<U>();
        let result = send_encoded_batch_capped(
            self.workers[worker].as_mut(),
            worker,
            &batch,
            cap,
            &mut self.send_buf,
            journal,
        );
        // Frame and byte counts follow from the fixed-width encoding law:
        // `chunks` frames, each 4 prefix + `BATCH_FRAME_OVERHEAD` framing
        // bytes, plus `WIRE_BYTES` per update.
        let chunks = batch.len().div_ceil(cap) as u64;
        self.metrics.on_send(
            worker,
            chunks,
            chunks * (4 + BATCH_FRAME_OVERHEAD) as u64 + (batch.len() * U::WIRE_BYTES) as u64,
        );
        if let Err(error) = result {
            // The failed batch is already in the journal, so a successful
            // recovery's replay delivers it — nothing to re-send here.
            if let Err(error) = self.try_recover(worker, error) {
                self.poison(worker, &error);
            }
        }
    }

    /// Attempts reconnect-and-replay for `worker` after `error`.  Returns
    /// `Ok(())` with a fresh, caught-up link in place, or the terminal
    /// error (the original one when recovery is off or the fault is not a
    /// link fault; [`ClusterError::JournalOverflow`] /
    /// [`ClusterError::RecoveryExhausted`] otherwise).
    fn try_recover(&mut self, worker: usize, error: ClusterError) -> Result<(), ClusterError> {
        self.metrics.on_fault(worker);
        let Some(policy) = self.recovery else {
            return Err(error);
        };
        if !is_link_fault(&error) {
            return Err(error);
        }
        if self.journals[worker].overflowed {
            return Err(ClusterError::JournalOverflow {
                worker,
                cap: policy.journal_cap,
            });
        }
        knw_log!(
            WARN,
            "knw-aggregate",
            "worker link faulted; attempting recovery",
            worker = worker,
            error = error,
            max_retries = policy.max_retries,
        );
        let journal = &self.journals[worker];
        let (conn, attempt) = with_backoff(policy, worker, 1, error, || {
            prime_link(self.transport.as_ref(), worker, &self.spec, journal, true)
        })?;
        self.workers[worker] = conn;
        let replayed = journal.frames.len() as u64;
        self.metrics.on_recovery(worker, replayed);
        knw_log!(
            INFO,
            "knw-aggregate",
            "worker link recovered",
            worker = worker,
            attempt = attempt,
            replayed_frames = replayed,
        );
        Ok(())
    }

    /// One request/reply round (`Snapshot` or `Finish`) over `workers`:
    /// every request goes out before any reply is read, so the workers
    /// serialize (or wind down) concurrently and the round costs the
    /// slowest worker, not the sum.  A link fault at either step recovers
    /// the link once and re-requests on the fresh one.  Failures carry the
    /// worker index they happened on.
    fn exchange(
        &mut self,
        workers: Range<usize>,
        request: &Frame,
    ) -> Result<Vec<Vec<u8>>, (usize, ClusterError)> {
        for worker in workers.clone() {
            if let Err(error) = self.send_request(worker, request) {
                self.recover_and_resend(worker, request, error)
                    .map_err(|e| (worker, e))?;
            }
        }
        // Allocated before the first reply arrives, not collected after
        // it: this small allocation's place in the heap decides whether
        // glibc trims the ~16 MB of shards each L0 snapshot decodes, which
        // every snapshot would then page-fault back in (measured: ~50% more
        // CPU per update on `l0_serve_churn`).
        let mut replies = Vec::with_capacity(workers.len());
        for worker in workers {
            let reply = match self.read_reply(worker, request) {
                Ok(bytes) => Ok(bytes),
                // The fresh link replayed the journal; ask it again.
                Err(error) => self
                    .recover_and_resend(worker, request, error)
                    .and_then(|()| self.read_reply(worker, request)),
            };
            replies.push(reply.map_err(|e| (worker, e))?);
        }
        Ok(replies)
    }

    /// Recovers `worker`'s link after `error` and re-sends `request` on the
    /// fresh one.
    fn recover_and_resend(
        &mut self,
        worker: usize,
        request: &Frame,
        error: ClusterError,
    ) -> Result<(), ClusterError> {
        self.try_recover(worker, error)?;
        self.send_request(worker, request)
    }

    /// Sends `request` to `worker`.  A `Finish` also half-closes the link —
    /// the belt to the Finish suspenders: a worker that somehow missed the
    /// frame still sees EOF and winds the session down.
    fn send_request(&mut self, worker: usize, request: &Frame) -> Result<(), ClusterError> {
        let conn = self.workers[worker].as_mut();
        conn.send(request).map_err(|e| wire_fault(worker, e))?;
        if matches!(request, Frame::Finish) {
            conn.close_send();
        }
        Ok(())
    }

    /// Reads `worker`'s `Shard` reply to `request`, folding reported
    /// session counters into the fleet metrics; after `Finish` it also
    /// confirms the clean shutdown.
    fn read_reply(&mut self, worker: usize, request: &Frame) -> Result<Vec<u8>, ClusterError> {
        let conn = self.workers[worker].as_mut();
        let (stats, bytes) = read_shard(conn, worker)?;
        if let Some(stats) = stats {
            self.metrics.record_worker_stats(worker, stats);
        }
        if matches!(request, Frame::Finish) {
            match conn.confirm_finished() {
                Ok(true) => {}
                Ok(false) => return Err(ClusterError::WorkerDied { worker }),
                Err(e) => return Err(wire_fault(worker, WireError::Io(e))),
            }
        }
        Ok(bytes)
    }
}

/// Maps a wire-level failure on worker `index`'s link to the aggregation
/// error it means: broken links are dead workers, expired deadlines are
/// stalled workers — but a deadline that expired *mid-frame* is a
/// desynchronized link ([`ClusterError::Desynced`]), never a plain
/// [`ClusterError::Timeout`]: part of a frame was already consumed, so
/// resuming reads in place would misparse leftover bytes as a fresh length
/// prefix.  Everything else keeps its I/O or codec identity.
fn wire_fault(index: usize, error: WireError) -> ClusterError {
    use std::io::ErrorKind;
    match error {
        WireError::Io(e) => match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                ClusterError::WorkerDied { worker: index }
            }
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ClusterError::Timeout { worker: index },
            _ => ClusterError::io(index, e),
        },
        WireError::TimedOutMidFrame => ClusterError::Desynced { worker: index },
        e => ClusterError::Frame {
            worker: index,
            message: e.to_string(),
        },
    }
}

/// The multi-process aggregation engine: the cross-process sibling of
/// [`ShardedEngine`](knw_engine::ShardedEngine), with worker *processes*
/// instead of worker threads and serialized shards instead of cloned ones.
///
/// A worker crash mirrors the in-process
/// [`SketchError::ShardPanicked`]
/// philosophy: the lost shard's updates cannot be recovered, so reporting
/// refuses with [`ClusterError::WorkerDied`] instead of silently
/// undercounting.
pub struct ClusterAggregator<U: ClusterUpdate> {
    batcher: ShardBatcher<U>,
    /// The routing discipline the batcher was built with — kept so
    /// `scale_to` can re-route journaled updates under a new epoch table.
    routing: RoutingPolicy,
    precoalesce: bool,
    updates: u64,
    links: LinkSet,
}

/// The insert-only (F0) front of [`ClusterAggregator`].
pub type F0ClusterAggregator = ClusterAggregator<u64>;

/// The turnstile (L0) front of [`ClusterAggregator`].
pub type L0ClusterAggregator = ClusterAggregator<(u64, i64)>;

impl<U: ClusterUpdate> ClusterAggregator<U> {
    /// Starts an aggregation as `config` describes: opens one link per
    /// shard — spawned children, the static TCP addresses in order, or
    /// pool draws from the registry — and greets each worker.  The spec's
    /// stream model is forced to `U`'s.  With a recovery policy, a worker
    /// that cannot be reached is retried under the policy (including
    /// registry re-resolution) before start-up gives up; the aggregation
    /// never starts on a partial cluster.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownEstimator`] if the spec names a sketch
    /// outside the zoo (validated *before* any process or connection
    /// exists); a typed [`ClusterError::Io`] for a TCP config with neither
    /// addresses nor a registry; [`ClusterError::PoolExhausted`] when the
    /// pool cannot cover the fleet — checked before any dial and
    /// re-reported if a draw loses a race, so a fleet is never silently
    /// smaller than asked for; otherwise the spawn, connect or handshake
    /// failure ([`ClusterError::ConnectFailed`] names the first
    /// unreachable address), or [`ClusterError::RecoveryExhausted`] after
    /// the policy's retries.
    pub fn start(config: &ClusterConfig, spec: &SketchSpec) -> Result<Self, ClusterError> {
        let mut spec = spec.clone();
        spec.mode = U::mode();
        // Fail fast on bad specs, before any process or connection exists.
        let _ = U::build(&spec)?;

        let engine = config.pinned(config.engine);
        let (transport, pool): (Box<dyn Transport>, _) = match &config.workers {
            WorkerSource::Spawn(exe) => (Box::new(PipeTransport::new(exe)), None),
            WorkerSource::Tcp { addrs, registry } => {
                let pool = if addrs.is_empty() {
                    // `with_shards` clamps 0 to 1, so an empty list with no
                    // pool would reach `open(0)`; refuse it typed instead.
                    let registry = registry.as_ref().ok_or_else(|| ClusterError::Io {
                        worker: None,
                        source: std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "a TCP cluster needs at least one worker address or a registry pool",
                        ),
                    })?;
                    let live = registry.live_available();
                    if live < engine.shards {
                        return Err(ClusterError::PoolExhausted {
                            needed: engine.shards,
                            live,
                        });
                    }
                    Some(registry)
                } else {
                    None
                };
                let transport = TcpTransport::new(
                    addrs.clone(),
                    registry.clone(),
                    config.connect_timeout,
                    config.io_timeout,
                );
                (Box::new(transport), pool)
            }
        };
        let fresh = ShardJournal::new();
        let mut workers = Vec::with_capacity(engine.shards);
        for index in 0..engine.shards {
            let conn = open_link(transport.as_ref(), index, &spec, config.recovery, &fresh)
                .map_err(|error| match (error, pool) {
                    // A draw that lost the race against other consumers (or
                    // a probe that failed between the pre-check and the
                    // dial) reports the fleet-level shortfall, not the
                    // failed draw.
                    (ClusterError::PoolExhausted { .. }, Some(registry)) => {
                        ClusterError::PoolExhausted {
                            needed: engine.shards,
                            live: registry.live_available(),
                        }
                    }
                    (other, _) => other,
                })?;
            workers.push(conn);
        }
        let journals = if config.recovery.is_some() {
            (0..engine.shards).map(|_| ShardJournal::new()).collect()
        } else {
            Vec::new()
        };
        Ok(Self {
            batcher: ShardBatcher::new(engine.routing, engine.shards, engine.batch_size)
                .with_metrics(BatcherMetrics::register(
                    knw_metrics::global(),
                    "knw_cluster",
                    engine.shards,
                )),
            routing: engine.routing,
            precoalesce: engine.precoalesce && U::coalescible(),
            updates: 0,
            links: LinkSet {
                spec,
                transport,
                workers,
                recovery: config.recovery,
                journals,
                fault: None,
                send_buf: Vec::new(),
                metrics: AggregatorMetrics::register(engine.shards),
            },
        })
    }

    /// The spec every worker was configured with.
    #[must_use]
    pub fn spec(&self) -> &SketchSpec {
        &self.links.spec
    }

    /// Number of worker processes.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.links.workers.len()
    }

    /// Total updates routed so far (raw, before any pre-coalescing).
    #[must_use]
    pub fn items_ingested(&self) -> u64 {
        self.updates
    }

    /// Routes one update (buffered; shipped once a batch fills up).
    pub fn ingest(&mut self, update: U) {
        self.updates += 1;
        let links = &mut self.links;
        self.batcher
            .push(update, &mut |worker, batch| links.dispatch(worker, batch));
    }

    /// Routes a slice of updates.  With pre-coalescing enabled, turnstile
    /// batches are first collapsed to per-item delta sums so workers
    /// receive fewer, pre-summed updates — less wire traffic, same final
    /// state for every linear sketch.
    pub fn ingest_batch(&mut self, updates: &[U]) {
        self.updates += updates.len() as u64;
        let coalesced;
        let updates = if self.precoalesce {
            coalesced = U::coalesce_batch(updates);
            self.links
                .metrics
                .coalesced
                .add((updates.len() - coalesced.len()) as u64);
            &coalesced
        } else {
            updates
        };
        let links = &mut self.links;
        self.batcher
            .extend_from_slice(updates, &mut |worker, batch| links.dispatch(worker, batch));
    }

    /// Ships every (possibly partial) pending batch to its worker.
    pub fn flush(&mut self) {
        let links = &mut self.links;
        self.batcher
            .flush(&mut |worker, batch| links.dispatch(worker, batch));
    }

    /// Severs one worker's link — a fault-injection / operations hook
    /// (e.g. evicting a wedged worker).  Kills the child process on the
    /// pipe transport, shuts the socket down on TCP.  Without recovery the
    /// next report surfaces [`ClusterError::WorkerDied`] for it; with a
    /// [`RecoveryPolicy`] configured, the next exchange touching the
    /// worker reconnects and replays its journal instead.
    ///
    /// # Errors
    ///
    /// The underlying `kill(2)` / `shutdown(2)` failure, if any.
    pub fn kill_worker(&mut self, worker: usize) -> std::io::Result<()> {
        self.links.workers[worker].kill()
    }

    /// Elastically reshards the live aggregation to `workers` shards
    /// (clamped to at least 1), **exactly**: the estimate after any
    /// sequence of rescales is bit-identical to a single-process run over
    /// the same stream.
    ///
    /// Routing follows a linear-hashing epoch table
    /// ([`knw_hash::rng::epoch_shard_for_key`]): growing `n → n+1` moves
    /// keys from exactly one *split parent* shard to the new shard, and
    /// shrinking folds the retired shard's keys back into that parent.
    /// Each step swaps the batcher's routing epoch
    /// ([`ShardBatcher::install_epoch`]) after the shard states have been
    /// made consistent with the new table:
    ///
    /// - **Grow** (hash-affine): the split parent's replay journal is
    ///   decoded and re-routed under the new table; the new shard starts
    ///   from the parent's checkpoint plus the moved updates, and the
    ///   parent restarts on a fresh session replaying only the kept ones.
    ///   `kept ⊕ (checkpoint ⊕ moved) = checkpoint ⊕ all`, so the fleet
    ///   total is unchanged for idempotent (F0) and linear (L0) sketches
    ///   alike.  Round-robin shards are an arbitrary partition, so a new
    ///   shard simply starts empty and joins the rotation.
    /// - **Shrink**: the highest shard is `Finish`ed, its final shard is
    ///   merged (exactly, via `merge_dyn`) into the split parent's live
    ///   snapshot, and the parent restarts from the merged bytes as its
    ///   new checkpoint.  Survivor indices never shift.
    ///
    /// Retired workers return their addresses to the transport's pool
    /// ([`Transport::retire`]); grown shards draw fresh ones (spawned
    /// children on pipes, registry spares on pooled TCP).
    ///
    /// # Errors
    ///
    /// [`ClusterError::RescaleUnsupported`] when no
    /// [`RecoveryPolicy`] is configured (the journals are what a split
    /// shard replays) or a prior fault has poisoned the run;
    /// [`ClusterError::JournalOverflow`] when the split parent's journal
    /// overflowed (snapshot more often, or raise the cap);
    /// [`ClusterError::PoolExhausted`] when a grow cannot draw a live
    /// worker — the old fleet keeps running in that case; transport /
    /// codec / merge failures otherwise (which poison the run, since a
    /// partially resharded fleet cannot be trusted).
    pub fn scale_to(&mut self, workers: usize) -> Result<(), ClusterError> {
        let target = workers.max(1);
        if self.links.recovery.is_none() {
            return Err(ClusterError::RescaleUnsupported {
                reason: "journaling is off — configure a RecoveryPolicy so shard \
                         streams can be split and replayed",
            });
        }
        // A prior fault poisoned the run; surface it, not a rescale.
        self.links.check_fault()?;
        let from = self.links.workers.len();
        if target == from {
            return Ok(());
        }
        let started = std::time::Instant::now();
        // Ship every pending batch under the OLD table first: updates
        // buffered under one routing epoch must never be dispatched under
        // another.
        self.flush();
        self.links.check_fault()?;
        let result = loop {
            let len = self.links.workers.len();
            if len == target {
                break Ok(());
            }
            let step = if len < target {
                self.grow_one()
            } else {
                self.shrink_one()
            };
            if let Err(error) = step {
                break Err(error);
            }
        };
        self.links
            .metrics
            .reshard_latency
            .record_duration(started.elapsed());
        match &result {
            Ok(()) => {
                if target > from {
                    self.links.metrics.reshard_scale_ups.inc();
                } else {
                    self.links.metrics.reshard_scale_downs.inc();
                }
                knw_log!(
                    INFO,
                    "knw-aggregate",
                    "fleet resharded",
                    from = from,
                    to = target,
                    epoch = self.batcher.epoch(),
                );
            }
            Err(error) => {
                knw_log!(
                    WARN,
                    "knw-aggregate",
                    "reshard failed",
                    from = from,
                    to = target,
                    reached = self.links.workers.len(),
                    error = error,
                );
            }
        }
        result
    }

    /// One grow step: attach shard `len` and install the `len + 1` epoch
    /// table.  On a hash-affine fleet this splits the parent shard's
    /// journal (see [`scale_to`](Self::scale_to)); failures *before* the
    /// parent's session is severed leave the old fleet untouched.
    fn grow_one(&mut self) -> Result<(), ClusterError> {
        let new_index = self.links.workers.len();
        let new_count = new_index + 1;
        match self.routing {
            RoutingPolicy::RoundRobin => {
                let conn = open_link(
                    self.links.transport.as_ref(),
                    new_index,
                    &self.links.spec,
                    self.links.recovery,
                    &ShardJournal::new(),
                )?;
                self.links.workers.push(conn);
                self.links.journals.push(ShardJournal::new());
            }
            RoutingPolicy::HashAffine { seed } => {
                let parent = split_parent(new_index);
                let policy = self.links.recovery.expect("scale_to requires journaling");
                if self.links.journals[parent].overflowed {
                    return Err(ClusterError::JournalOverflow {
                        worker: parent,
                        cap: policy.journal_cap,
                    });
                }
                // Re-route the parent's journaled updates under the NEW
                // epoch table, preserving their relative order.  Linear
                // hashing guarantees every update stays on `parent` or
                // moves to `new_index` — never a third shard.
                let mut kept: Vec<U> = Vec::new();
                let mut moved: Vec<U> = Vec::new();
                for (frame, _) in &self.links.journals[parent].frames {
                    for update in decode_journal_frame::<U>(frame) {
                        if epoch_shard_for_key(seed, update.routing_key(), new_count) == new_index {
                            moved.push(update);
                        } else {
                            kept.push(update);
                        }
                    }
                }
                let moved_keys: HashSet<u64> = moved.iter().map(Routable::routing_key).collect();
                let journal_new = ShardJournal::from_split::<U>(
                    self.links.journals[parent].checkpoint.clone(),
                    &moved,
                );
                let journal_parent = ShardJournal::from_split::<U>(None, &kept);
                let replayed = (journal_new.frames.len() + journal_parent.frames.len()) as u64;
                // Attach the new worker first: if the pool (or spawn)
                // cannot cover it, the old fleet is untouched.
                let new_conn = open_link(
                    self.links.transport.as_ref(),
                    new_index,
                    &self.links.spec,
                    self.links.recovery,
                    &journal_new,
                )?;
                // The worker serve loop is one-session-at-a-time: sever
                // the parent's old session before dialing the fresh one
                // that replays only the kept updates.
                let _ = self.links.workers[parent].kill();
                let parent_conn = match open_link(
                    self.links.transport.as_ref(),
                    parent,
                    &self.links.spec,
                    self.links.recovery,
                    &journal_parent,
                ) {
                    Ok(conn) => conn,
                    Err(error) => {
                        // The parent's old session is gone and its fresh
                        // one failed: the shard is unreachable — poison
                        // the run so later reports refuse.
                        self.links.poison(parent, &error);
                        return Err(error);
                    }
                };
                self.links.workers[parent] = parent_conn;
                self.links.workers.push(new_conn);
                self.links.journals[parent] = journal_parent;
                self.links.journals.push(journal_new);
                self.links.metrics.reshard_replayed_frames.add(replayed);
                self.links
                    .metrics
                    .reshard_moved_keys
                    .add(moved_keys.len() as u64);
                knw_log!(
                    INFO,
                    "knw-aggregate",
                    "shard split",
                    parent = parent,
                    new_shard = new_index,
                    moved_keys = moved_keys.len(),
                    replayed_frames = replayed,
                );
            }
        }
        self.links.metrics.ensure_workers(new_count);
        self.batcher.install_epoch(new_count);
        Ok(())
    }

    /// One shrink step: retire the highest shard into its split parent and
    /// install the shrunk epoch table.  Any failure past the retiree's
    /// `Finish` poisons the run — a fleet short one shard's updates cannot
    /// be trusted.
    fn shrink_one(&mut self) -> Result<(), ClusterError> {
        let retiree = self.links.workers.len() - 1;
        let survivor = split_parent(retiree);
        self.shrink_step(retiree, survivor)
            .map_err(|(worker, error)| {
                self.links.poison(worker, &error);
                error
            })
    }

    /// [`shrink_one`](Self::shrink_one)'s steps, each failure attributed to
    /// the worker it happened on.
    fn shrink_step(
        &mut self,
        retiree: usize,
        survivor: usize,
    ) -> Result<(), (usize, ClusterError)> {
        // Drain the retiree (Finish + final shard) and grab the survivor's
        // live shard, each with the usual one-shot recovery.
        let retired = self.links.exchange(retiree..retiree + 1, &Frame::Finish)?;
        let live = self
            .links
            .exchange(survivor..survivor + 1, &Frame::Snapshot)?;
        // Fold the retired shard into the survivor — the shard its keys
        // route to under the shrunk table — and restart the survivor from
        // the merged bytes as its new checkpoint.
        let merged = merge_shards::<U>(
            &self.links.spec,
            [
                (survivor, live[0].as_slice()),
                (retiree, retired[0].as_slice()),
            ],
        )?;
        let mut journal = ShardJournal::new();
        journal.checkpoint = Some(U::shard_bytes(merged.as_ref()));
        // One-session-at-a-time: sever the survivor's old session before
        // dialing the fresh one that restores the merged checkpoint.
        let _ = self.links.workers[survivor].kill();
        let conn = open_link(
            self.links.transport.as_ref(),
            survivor,
            &self.links.spec,
            self.links.recovery,
            &journal,
        )
        .map_err(|error| (survivor, error))?;
        self.links.workers[survivor] = conn;
        self.links.journals[survivor] = journal;
        // Pop the highest index LAST, so no survivor's index ever shifts;
        // the transport returns the retired worker's address to its pool.
        drop(self.links.workers.pop());
        self.links.journals.pop();
        self.links.transport.retire(retiree);
        self.batcher.install_epoch(retiree);
        knw_log!(
            INFO,
            "knw-aggregate",
            "shard retired",
            retiree = retiree,
            survivor = survivor,
        );
        Ok(())
    }

    /// Requests a shard snapshot from every worker and merges them (plus
    /// any locally buffered updates) into one sketch summarizing every
    /// update ingested so far.  The cluster keeps running — this is the
    /// paper's midstream "reporting".
    ///
    /// With recovery enabled, a worker lost during the exchange is
    /// reconnected and replayed *inside* this call (the snapshot waits for
    /// the recovery — it never merges a partial cluster), and an
    /// acknowledged snapshot doubles as the journals' checkpoint: each
    /// worker's serialized shard bytes replace its batch log, so journal
    /// memory is bounded by snapshot cadence, not stream length.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerDied`] if a worker process died (its updates
    /// are unrecoverable), [`ClusterError::RecoveryExhausted`] /
    /// [`ClusterError::JournalOverflow`] if recovery was enabled but could
    /// not rebuild it, or the transport / codec / merge failure.
    pub fn snapshot(&mut self) -> Result<Box<U::Shard>, ClusterError> {
        self.links.check_fault()?;
        // *Any* failure below leaves the request/reply conversation in an
        // unknown state (some workers may still have a Shard reply queued),
        // so it poisons the aggregator: later reports refuse instead of
        // silently merging stale shards.  (Recoverable link faults were
        // already retried under the policy inside the exchange.)
        let started = std::time::Instant::now();
        let workers = self.links.workers.len();
        let result = self
            .links
            .exchange(0..workers, &Frame::Snapshot)
            .and_then(|shards| {
                Ok((
                    merge_shards::<U>(
                        &self.links.spec,
                        shards.iter().map(Vec::as_slice).enumerate(),
                    )?,
                    shards,
                ))
            });
        self.links
            .metrics
            .snapshot_latency
            .record_duration(started.elapsed());
        if let Err((worker, error)) = &result {
            self.links.poison(*worker, error);
        }
        let (mut merged, shards) = result.map_err(|(_, error)| error)?;
        if self.links.recovery.is_some() {
            for (journal, bytes) in self.links.journals.iter_mut().zip(shards) {
                journal.truncate_to_checkpoint(bytes);
            }
        }
        // Fold in the locally buffered (not yet shipped) updates, exactly
        // like the in-process router's midstream `merged()`.
        self.batcher.for_each_pending(|batch| {
            U::apply(merged.as_mut(), batch);
        });
        Ok(merged)
    }

    /// Snapshots and reports the current estimate.
    ///
    /// # Errors
    ///
    /// Same as [`snapshot`](Self::snapshot).
    pub fn estimate(&mut self) -> Result<f64, ClusterError> {
        Ok(U::estimate(self.snapshot()?.as_ref()))
    }

    /// Ships all pending batches, sends `Finish`, collects every worker's
    /// final shard, waits for the processes to exit, and returns the merged
    /// sketch of the whole stream.
    ///
    /// # Errors
    ///
    /// [`ClusterError::WorkerDied`] if a worker process died or exited
    /// uncleanly, or the transport / codec / merge failure.  Remaining
    /// workers are killed on the error path (no orphans).
    pub fn finish(mut self) -> Result<Box<U::Shard>, ClusterError> {
        self.flush();
        self.links.check_fault()?;
        // `Finish` goes out to every worker before any final shard is read
        // (as in `snapshot`), and a faulted link is recovered once
        // (reconnect, replay the journal, re-`Finish`) when a policy is
        // configured.
        let workers = self.links.workers.len();
        let shards = self
            .links
            .exchange(0..workers, &Frame::Finish)
            .map_err(|(_, error)| error)?;
        merge_shards::<U>(
            &self.links.spec,
            shards.iter().map(Vec::as_slice).enumerate(),
        )
        .map_err(|(_, error)| error)
    }
}

/// Opens worker `index`'s link through `transport` — [`Transport::reopen`]
/// after a fault, which may re-resolve the worker — and primes the fresh
/// session from `journal`: `Hello`, `Restore` of the checkpoint (if any),
/// then every journaled frame, byte for byte.  A session starts from empty
/// state and a shard is a pure fold of its batch stream, so the primed
/// session holds exactly the journaled shard.  Start-up, recovery and
/// resharding all attach links through here.
fn prime_link(
    transport: &dyn Transport,
    index: usize,
    spec: &SketchSpec,
    journal: &ShardJournal,
    reopen: bool,
) -> Result<Box<dyn WorkerConnection>, ClusterError> {
    let mut conn = if reopen {
        transport.reopen(index)?
    } else {
        transport.open(index)?
    };
    let hello = Frame::Hello(HelloConfig {
        worker_index: index as u64,
        spec: spec.clone(),
    });
    conn.send(&hello).map_err(|e| wire_fault(index, e))?;
    if let Some(bytes) = &journal.checkpoint {
        conn.send(&Frame::Restore(bytes.clone()))
            .map_err(|e| wire_fault(index, e))?;
    }
    for (frame, _) in &journal.frames {
        conn.send_raw(frame).map_err(|e| wire_fault(index, e))?;
    }
    Ok(conn)
}

/// Opens worker `index`'s link primed from `journal` (see [`prime_link`])
/// — at start-up, or when a reshard attaches a split or merged shard.
/// When the first open fails and a recovery policy is configured, the
/// policy's remaining attempts re-open it before giving up.
fn open_link(
    transport: &dyn Transport,
    index: usize,
    spec: &SketchSpec,
    recovery: Option<RecoveryPolicy>,
    journal: &ShardJournal,
) -> Result<Box<dyn WorkerConnection>, ClusterError> {
    let prime = |reopen| prime_link(transport, index, spec, journal, reopen);
    let error = match prime(false) {
        Ok(conn) => return Ok(conn),
        Err(error) => error,
    };
    let Some(policy) = recovery else {
        return Err(error);
    };
    with_backoff(policy, index, 2, error, || prime(true)).map(|(conn, _)| conn)
}

/// The reconnect loop: runs `attempt` for attempts `first..=max_retries`,
/// sleeping `(n − 1) × backoff` before attempt `n` (linear backoff: a
/// flapping worker is probed quickly at first, ever more patiently after),
/// and returns the first fresh link with its attempt number — or
/// [`ClusterError::RecoveryExhausted`] carrying the last failure, which is
/// `last` if no attempt ran.
fn with_backoff(
    policy: RecoveryPolicy,
    worker: usize,
    first: usize,
    mut last: ClusterError,
    mut attempt: impl FnMut() -> Result<Box<dyn WorkerConnection>, ClusterError>,
) -> Result<(Box<dyn WorkerConnection>, usize), ClusterError> {
    for n in first..=policy.max_retries {
        if n > 1 {
            std::thread::sleep(policy.backoff * (n as u32 - 1));
        }
        match attempt() {
            Ok(conn) => return Ok((conn, n)),
            Err(error) => last = error,
        }
    }
    Err(ClusterError::RecoveryExhausted {
        worker,
        attempts: policy.max_retries,
        last: last.to_string(),
    })
}

/// The decode-and-merge fold every report ends in: decodes each
/// `(worker, bytes)` shard and merges it into the first (exact for every
/// workspace sketch).  Failures carry the worker the bytes came from.
fn merge_shards<'b, U: ClusterUpdate>(
    spec: &SketchSpec,
    shards: impl IntoIterator<Item = (usize, &'b [u8])>,
) -> Result<Box<U::Shard>, (usize, ClusterError)> {
    let mut merged: Option<Box<U::Shard>> = None;
    for (worker, bytes) in shards {
        let shard = U::shard_from_bytes(spec, bytes)
            .map_err(|message| (worker, ClusterError::Frame { worker, message }))?;
        match &mut merged {
            None => merged = Some(shard),
            Some(into) => U::merge(into.as_mut(), shard.as_ref())
                .map_err(|e| (worker, ClusterError::Sketch(e)))?,
        }
    }
    Ok(merged.expect("cluster always has at least one worker"))
}

// Dropping a `ClusterAggregator` drops its worker links; each transport's
// connection reaps its own resources (`PipeConnection` kills and waits on
// the child, sockets just close), so an abandoned — or failed — aggregator
// leaves no orphan processes behind.

/// Reads the `Shard` reply a `Snapshot`/`Finish` request promises, and the
/// worker's session counters ([`Frame::Stats`]) when it reports them ahead
/// of the shard (workers do so before the final `Finish` shard).  The
/// stats frame is optional, so sessions that end before `Finish` handling
/// (or older workers) still hand their shard over.
fn read_shard(
    conn: &mut dyn WorkerConnection,
    index: usize,
) -> Result<(Option<WorkerStats>, Vec<u8>), ClusterError> {
    let mut stats = None;
    let mut reply = conn.recv();
    if let Ok(Some(Frame::Stats(counters))) = reply {
        stats = Some(counters);
        reply = conn.recv();
    }
    match reply {
        Ok(Some(Frame::Shard(bytes))) => Ok((stats, bytes)),
        Ok(Some(Frame::Err(message))) => Err(ClusterError::WorkerReported {
            worker: index,
            message,
        }),
        Ok(Some(other)) => Err(ClusterError::Protocol {
            worker: index,
            expected: "Shard",
            got: other.kind().to_string(),
        }),
        Ok(None) | Err(WireError::Truncated) => Err(ClusterError::WorkerDied { worker: index }),
        Err(e) => Err(wire_fault(index, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A connection that records every frame it is asked to send.
    struct RecordingConnection {
        frames: Arc<Mutex<Vec<Frame>>>,
    }

    impl WorkerConnection for RecordingConnection {
        fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
            self.frames.lock().expect("frames lock").push(frame.clone());
            Ok(())
        }

        fn recv(&mut self) -> Result<Option<Frame>, WireError> {
            Ok(None)
        }

        fn close_send(&mut self) {}

        fn kill(&mut self) -> std::io::Result<()> {
            Ok(())
        }

        fn confirm_finished(&mut self) -> std::io::Result<bool> {
            Ok(true)
        }
    }

    /// Pins the encoding law the frame chunker's arithmetic rests on: a
    /// `Batch` frame's payload is exactly `BATCH_FRAME_OVERHEAD` bytes of
    /// framing plus `WIRE_BYTES` per update, for both stream models.
    #[test]
    fn batch_frame_encoding_is_overhead_plus_fixed_width_updates() {
        for n in [0usize, 1, 3, 100] {
            let items = Frame::Batch(BatchPayload::Items(vec![7; n]));
            assert_eq!(
                serde::to_bytes(&items).len(),
                BATCH_FRAME_OVERHEAD + n * <u64 as ClusterUpdate>::WIRE_BYTES,
                "Items({n})"
            );
            let updates = Frame::Batch(BatchPayload::Updates(vec![(7, -7); n]));
            assert_eq!(
                serde::to_bytes(&updates).len(),
                BATCH_FRAME_OVERHEAD + n * <(u64, i64) as ClusterUpdate>::WIRE_BYTES,
                "Updates({n})"
            );
        }
    }

    /// The frame cap sits exactly at `MAX_FRAME_LEN`: a batch of `cap`
    /// updates encodes to at most the limit, one more update crosses it —
    /// the `MAX_FRAME_LEN ± 1` boundary, checked through the encoding law
    /// pinned above (materializing a 256 MiB frame in a unit test would
    /// prove nothing more).
    #[test]
    fn frame_chunk_cap_sits_exactly_at_max_frame_len() {
        let f0_cap = max_updates_per_frame::<u64>();
        assert!(BATCH_FRAME_OVERHEAD + f0_cap * 8 <= MAX_FRAME_LEN);
        assert!(BATCH_FRAME_OVERHEAD + (f0_cap + 1) * 8 > MAX_FRAME_LEN);
        let l0_cap = max_updates_per_frame::<(u64, i64)>();
        assert!(BATCH_FRAME_OVERHEAD + l0_cap * 16 <= MAX_FRAME_LEN);
        assert!(BATCH_FRAME_OVERHEAD + (l0_cap + 1) * 16 > MAX_FRAME_LEN);
    }

    /// The hand-rolled encoder produces, byte for byte, what the codec's
    /// `write_frame` produces for the same batch — the law that lets the
    /// dispatch path skip `Frame` construction entirely, for both stream
    /// models, including the empty batch and sign-extreme values.
    #[test]
    fn encoded_batch_frames_are_byte_identical_to_the_codec() {
        use crate::frame::write_frame;
        let mut buf = Vec::new();
        for n in [0usize, 1, 3, 100] {
            let items: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .chain((n > 0).then_some(u64::MAX))
                .collect();
            encode_batch_frame(&mut buf, &items);
            let mut reference = Vec::new();
            write_frame(&mut reference, &Frame::Batch(BatchPayload::Items(items))).expect("write");
            assert_eq!(buf, reference, "Items({n})");

            let updates: Vec<(u64, i64)> = (0..n as u64)
                .map(|i| (i, -(i as i64) - 1))
                .chain((n > 0).then_some((u64::MAX, i64::MIN)))
                .collect();
            encode_batch_frame(&mut buf, &updates);
            let mut reference = Vec::new();
            write_frame(
                &mut reference,
                &Frame::Batch(BatchPayload::Updates(updates)),
            )
            .expect("write");
            assert_eq!(buf, reference, "Updates({n})");
        }
    }

    /// Splitting behaviour at the cap: `cap` updates are one frame, `cap +
    /// 1` are two (the second carrying the single overflow update), and the
    /// concatenation preserves the update sequence exactly.  The recording
    /// double observes *decoded* frames through `send_raw`'s default
    /// decode-and-delegate, so this also exercises that round trip.
    #[test]
    fn oversized_batches_are_chunked_at_the_send_boundary() {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let mut conn = RecordingConnection {
            frames: Arc::clone(&frames),
        };
        let mut buf = Vec::new();
        let cap = 5usize; // small injected cap; the arithmetic test pins the real one
        let batch: Vec<u64> = (0..cap as u64).collect();
        send_encoded_batch_capped(&mut conn, 0, &batch, cap, &mut buf, None).expect("send");
        let batch: Vec<u64> = (0..cap as u64 + 1).collect();
        send_encoded_batch_capped(&mut conn, 0, &batch, cap, &mut buf, None).expect("send");
        let frames = frames.lock().expect("frames lock");
        let lens: Vec<usize> = frames
            .iter()
            .map(|f| match f {
                Frame::Batch(payload) => payload.len(),
                other => panic!("expected Batch, got {}", other.kind()),
            })
            .collect();
        assert_eq!(lens, vec![cap, cap, 1]);
        let mut replayed = Vec::new();
        for frame in frames.iter().skip(1) {
            let Frame::Batch(BatchPayload::Items(items)) = frame else {
                panic!("expected Items");
            };
            replayed.extend_from_slice(items);
        }
        assert_eq!(replayed, (0..cap as u64 + 1).collect::<Vec<_>>());
    }

    /// An empty routed batch must not reach the wire (or the journal): no
    /// frame is emitted for it, while a following non-empty batch flows
    /// normally.
    #[test]
    fn empty_batches_emit_no_frame_and_journal_nothing() {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let mut links = LinkSet {
            spec: SketchSpec::f0("knw-f0", 0.25, 1 << 20, 7),
            transport: Box::new(PipeTransport::new("unused")),
            workers: vec![Box::new(RecordingConnection {
                frames: Arc::clone(&frames),
            })],
            recovery: Some(RecoveryPolicy::default()),
            journals: vec![ShardJournal::new()],
            fault: None,
            send_buf: Vec::new(),
            metrics: AggregatorMetrics::register(1),
        };
        links.dispatch::<u64>(0, Vec::new());
        links.dispatch(0, vec![42u64]);
        let frames = frames.lock().expect("frames lock");
        assert_eq!(frames.len(), 1, "only the non-empty batch is framed");
        assert_eq!(
            *frames.first().expect("one frame"),
            Frame::Batch(BatchPayload::Items(vec![42]))
        );
        assert_eq!(
            links.journals[0].frames.len(),
            1,
            "empty batch journals nothing"
        );
        assert_eq!(links.journals[0].journaled, 1);
    }

    /// The journal records frames up to its update cap, discards itself on
    /// overflow, and re-anchors (clearing the overflow) on a checkpoint.
    #[test]
    fn journal_caps_and_checkpoints() {
        let frame_of = |items: &[u64]| -> Arc<[u8]> {
            let mut buf = Vec::new();
            encode_batch_frame(&mut buf, items);
            buf.into()
        };
        let mut journal = ShardJournal::new();
        journal.record(frame_of(&[1, 2, 3]), 3, 5);
        assert_eq!(journal.journaled, 3);
        assert!(!journal.overflowed);
        // 3 + 3 > 5: the journal overflows and frees its frames.
        journal.record(frame_of(&[4, 5, 6]), 3, 5);
        assert!(journal.overflowed);
        assert!(journal.frames.is_empty());
        assert_eq!(journal.journaled, 0);
        // Further frames are not accumulated while overflowed.
        journal.record(frame_of(&[7]), 1, 5);
        assert!(journal.frames.is_empty());
        // A checkpoint re-anchors and re-arms the journal.
        journal.truncate_to_checkpoint(vec![0xAB]);
        assert!(!journal.overflowed);
        assert_eq!(journal.checkpoint.as_deref(), Some(&[0xAB][..]));
        journal.record(frame_of(&[8, 9]), 2, 5);
        assert_eq!(journal.journaled, 2);
        assert_eq!(journal.frames.len(), 1);
        assert_eq!(
            journal.frames[0].0.as_ref(),
            frame_of(&[8, 9]).as_ref(),
            "the journal holds the encoded frame bytes"
        );
    }
}
