//! The length-prefixed frame protocol spoken between the aggregator and its
//! worker processes.
//!
//! # Wire format
//!
//! Every frame is a `u32` little-endian length prefix followed by exactly
//! that many payload bytes; the payload is the [`Frame`] enum encoded with
//! the workspace's serde binary codec (a `u32` variant index followed by
//! the variant's fields, see `dev-shims/serde`).  The format is
//! deliberately boring: framing survives any byte content, a reader can
//! skip frames it does not understand, and the golden-bytes tests below pin
//! the encoding so the two sides of the pipe (which are separate binaries)
//! cannot drift silently.
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────────────┐
//! │ len: u32LE │ payload: serde(Frame), exactly `len` bytes   │
//! └────────────┴──────────────────────────────────────────────┘
//! ```
//!
//! # Conversation
//!
//! ```text
//! aggregator → worker:  Hello{config}  (Batch{…})*  (Snapshot (…))*  Finish
//! worker → aggregator:                 Shard{bytes} per Snapshot/Finish,
//!                                      Err{message} on any failure
//! ```
//!
//! Decoding is strict and total: truncated input, oversized length
//! prefixes and codec rejections all surface as typed [`WireError`]s, never
//! panics — a crashed peer must not take the survivor down with it.

use serde::Serialize;
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on a frame's declared payload length: a corrupt or
/// adversarial length prefix must not translate into an unbounded
/// allocation.  256 MiB comfortably covers any sketch in the workspace
/// (sketches are *small* — that is the point of the paper).
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Which stream model a worker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StreamMode {
    /// Insert-only F0 streams (`u64` items).
    F0,
    /// Turnstile L0 streams (`(u64, i64)` signed updates).
    L0,
}

/// Everything a worker needs to construct its shard sketch: the stream
/// model, the estimator's zoo name, and the accuracy / universe / seed
/// parameters every estimator in the zoo is built from.
///
/// All workers of a run receive the *same* spec — identical configuration
/// and seeds are what make the final merge exact, precisely as with the
/// in-process engine's factory contract.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SketchSpec {
    /// Stream model (selects the zoo the name is resolved in).
    pub mode: StreamMode,
    /// Estimator name as reported by `CardinalityEstimator::name` /
    /// `TurnstileEstimator::name` (e.g. `"knw-f0"`, `"hyperloglog"`).
    pub estimator: String,
    /// Relative accuracy target ε.
    pub epsilon: f64,
    /// Universe size `n`.
    pub universe: u64,
    /// Hash seed shared by every shard.
    pub seed: u64,
}

impl SketchSpec {
    /// Creates an F0 spec.
    #[must_use]
    pub fn f0(estimator: impl Into<String>, epsilon: f64, universe: u64, seed: u64) -> Self {
        Self {
            mode: StreamMode::F0,
            estimator: estimator.into(),
            epsilon,
            universe,
            seed,
        }
    }

    /// Creates an L0 spec.
    #[must_use]
    pub fn l0(estimator: impl Into<String>, epsilon: f64, universe: u64, seed: u64) -> Self {
        Self {
            mode: StreamMode::L0,
            estimator: estimator.into(),
            epsilon,
            universe,
            seed,
        }
    }
}

/// The handshake payload: the worker's index (for diagnostics) and the
/// sketch spec it must instantiate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HelloConfig {
    /// This worker's shard index in the cluster.
    pub worker_index: u64,
    /// The sketch every worker of the run builds.
    pub spec: SketchSpec,
}

/// A batch of stream updates, in the worker's stream model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum BatchPayload {
    /// Insert-only items.
    Items(Vec<u64>),
    /// Signed turnstile updates.
    Updates(Vec<(u64, i64)>),
}

impl BatchPayload {
    /// Number of updates in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BatchPayload::Items(v) => v.len(),
            BatchPayload::Updates(v) => v.len(),
        }
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One protocol message.  See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Frame {
    /// Aggregator → worker: handshake carrying the sketch spec.
    Hello(HelloConfig),
    /// Aggregator → worker: a batch of stream updates to ingest.
    Batch(BatchPayload),
    /// Aggregator → worker: request the shard bytes the aggregator folds
    /// (midstream reporting): an L0 worker's updates since its last reply,
    /// an F0 worker's whole shard.  The worker answers with
    /// [`Frame::Shard`] and keeps going.
    Snapshot,
    /// Aggregator → worker: finalize — answer with [`Frame::Shard`] and
    /// exit cleanly.
    Finish,
    /// Worker → aggregator: the serialized shard sketch.
    Shard(Vec<u8>),
    /// Worker → aggregator: a worker-side failure, in human-readable form.
    Err(String),
    /// Worker → registry: a listening worker announcing the address it
    /// serves on (the `knw-worker --register` handshake; see
    /// [`WorkerRegistry`](crate::recovery::WorkerRegistry)).
    Register(String),
    /// Worker → aggregator: the worker-side ingest counters for the
    /// session, sent immediately before the final [`Frame::Shard`] reply
    /// to [`Frame::Finish`] so the aggregator can fold per-worker health
    /// into its fleet-wide metrics.
    Stats(WorkerStats),
}

impl Frame {
    /// A short name for protocol-violation diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "Hello",
            Frame::Batch(_) => "Batch",
            Frame::Snapshot => "Snapshot",
            Frame::Finish => "Finish",
            Frame::Shard(_) => "Shard",
            Frame::Err(_) => "Err",
            Frame::Register(_) => "Register",
            Frame::Stats(_) => "Stats",
        }
    }
}

/// A worker session's ingest counters, exported over the wire in a
/// [`Frame::Stats`] frame.  All fields count the session (one aggregator
/// link), not the process: a recovered-and-replayed worker reports the
/// replayed session's totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct WorkerStats {
    /// Frames of any kind received on the session.
    pub frames_received: u64,
    /// `Batch` frames ingested.
    pub batches_ingested: u64,
    /// Stream updates ingested across those batches.
    pub updates_ingested: u64,
    /// `Shard` replies served to midstream `Snapshot` requests.
    pub snapshots_served: u64,
}

/// Frame-level transport / codec failures.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream ended inside a frame (after a length prefix, or with a
    /// partial prefix) — the peer died mid-send.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        declared: u64,
    },
    /// The payload bytes were rejected by the codec.
    Codec(String),
    /// A read timeout fired *inside* a frame — after part of the length
    /// prefix or payload was already consumed.  Unlike a timeout between
    /// frames (plain [`WireError::Io`] with `TimedOut`/`WouldBlock`), the
    /// stream is now desynchronized: resuming reads on it would misparse
    /// leftover frame bytes as a fresh length prefix.  Recovery must
    /// re-dial, never retry in place.
    TimedOutMidFrame,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "frame i/o failed: {e}"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Oversized { declared } => {
                write!(
                    f,
                    "frame declares {declared} payload bytes, above the {MAX_FRAME_LEN} cap"
                )
            }
            WireError::Codec(msg) => write!(f, "frame payload rejected: {msg}"),
            WireError::TimedOutMidFrame => {
                write!(f, "read timed out mid-frame; the stream is desynchronized")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one length-prefixed frame.  The caller flushes (frames are
/// usually batched behind a `BufWriter`; flush before expecting an answer).
///
/// # Errors
///
/// [`WireError::Oversized`] if the encoded frame exceeds [`MAX_FRAME_LEN`],
/// [`WireError::Io`] on transport failure.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    writer.write_all(&encode_frame(frame)?)?;
    Ok(())
}

/// Encodes one frame to its on-the-wire bytes (length prefix + payload),
/// exactly as [`write_frame`] emits them.  The serve loop uses this to
/// build queued response bytes without holding a writer.
///
/// # Errors
///
/// [`WireError::Oversized`] if the encoded frame exceeds [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut wire = Vec::new();
    encode_into(&mut wire, |out| frame.serialize(out))?;
    Ok(wire)
}

/// Encodes a [`Frame::Shard`] reply into `out` (cleared first, capacity
/// kept) without the shard ever sitting in a `Vec` of its own: the length
/// prefix, the `Shard` tag and the byte-vector length are written around
/// whatever `shard` appends, and the two lengths are patched once it is
/// done.  The bytes are exactly those of
/// `encode_frame(&Frame::Shard(bytes))` for the bytes `shard` appends.
///
/// # Errors
///
/// [`WireError::Oversized`] if the encoded frame exceeds [`MAX_FRAME_LEN`].
pub fn encode_shard_frame(
    out: &mut Vec<u8>,
    shard: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    encode_into(out, |out| {
        out.extend_from_slice(&SHARD_TAG);
        let count_at = out.len();
        out.extend_from_slice(&[0; 8]);
        shard(out);
        let count = (out.len() - count_at - 8) as u64;
        out[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    })
}

/// The single encoding pass under every frame writer: a length-prefix
/// placeholder, then whatever `payload` appends, then the prefix patched
/// to the payload's length.  `out` is cleared first; its capacity is kept.
fn encode_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared: len as u64,
        });
    }
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// The codec's variant index of [`Frame::Shard`], as it leads the payload.
const SHARD_TAG: [u8; 4] = [4, 0, 0, 0];

/// A `Shard` payload's bytes ahead of the shard: the variant index (4) and
/// the byte-vector length (8).
const SHARD_HEADER: usize = 12;

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a *clean* end of stream (no bytes where a length
/// prefix would start) — the peer closed the connection between frames.
///
/// # Errors
///
/// [`WireError::Truncated`] if the stream ends inside a frame,
/// [`WireError::Oversized`] on an absurd length prefix, [`WireError::Codec`]
/// if the payload does not decode, [`WireError::Io`] on transport failure.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, WireError> {
    // A fresh scratch: the payload buffer is allocated at exactly the
    // frame's length and dropped with the call.
    Ok(FrameBuf::new().read(reader)?.map(FrameView::into_frame))
}

/// Reusable scratch for the allocation-free frame reader
/// ([`FrameBuf::read`]): the payload byte buffer plus decoded-batch
/// vectors, all retained (and regrown at most once) across reads.  One
/// `FrameBuf` per connection; the borrowed [`FrameView`] a read returns is
/// invalidated by the next read (the borrow checker enforces this).
#[derive(Debug, Default)]
pub struct FrameBuf {
    payload: Vec<u8>,
    items: Vec<u64>,
    updates: Vec<(u64, i64)>,
}

impl FrameBuf {
    /// Creates an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one length-prefixed frame without per-frame allocation.
    ///
    /// The reader under [`read_frame`] (same clean-EOF contract, same typed
    /// errors), but the payload lands in this scratch: `Batch` payloads are
    /// decoded into its retained vectors and returned as borrowed
    /// [`FrameView::Items`] / [`FrameView::Updates`] slices, a `Shard`
    /// comes back as [`FrameView::Shard`] borrowing the payload itself,
    /// and every other frame comes back as [`FrameView::Owned`].  The hot
    /// loops — a worker ingesting batches, the aggregator collecting shard
    /// replies — therefore perform no allocation once the scratch has
    /// grown to their largest frame.
    ///
    /// A batch or shard whose bytes deviate in any way from the strict
    /// encoding (length prefix not exactly covering the declared element
    /// count) falls back to the owning codec, which rejects it with the
    /// codec's error text.
    ///
    /// # Errors
    ///
    /// Exactly those of [`read_frame`].
    pub fn read(&mut self, reader: &mut impl Read) -> Result<Option<FrameView<'_>>, WireError> {
        let filled = self.fill(reader);
        if !matches!(filled, Ok(true)) {
            // No whole payload arrived: the scratch holds no frame.
            self.payload.clear();
        }
        if !filled? {
            return Ok(None);
        }
        decode_payload(&self.payload, &mut self.items, &mut self.updates).map(Some)
    }

    /// Reads one frame's length prefix and payload into `payload`;
    /// `Ok(false)` on a clean end of stream.
    fn fill(&mut self, reader: &mut impl Read) -> Result<bool, WireError> {
        let mut prefix = [0u8; 4];
        match read_exact_or_eof(reader, &mut prefix, false)? {
            ReadOutcome::CleanEof => return Ok(false),
            ReadOutcome::Partial => return Err(WireError::Truncated),
            ReadOutcome::Full => {}
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                declared: len as u64,
            });
        }
        // A scratch too small for this frame is replaced by exactly `len`
        // zeroed bytes, so a fresh one costs what a one-shot read does; a
        // large enough one is reused, zeroing at most the bytes it grows by.
        if self.payload.capacity() < len {
            self.payload = vec![0u8; len];
        } else {
            self.payload.resize(len, 0);
        }
        match read_exact_or_eof(reader, &mut self.payload, true)? {
            ReadOutcome::Full => Ok(true),
            _ => Err(WireError::Truncated),
        }
    }

    /// The shard bytes of the last frame read, if it was a strictly
    /// encoded `Shard` — what [`read`](Self::read) returned as
    /// [`FrameView::Shard`], still held after the view itself is gone.
    pub(crate) fn shard(&self) -> Option<&[u8]> {
        shard_bytes(&self.payload)
    }
}

/// One decoded frame from [`FrameBuf::read`] or [`FrameDecoder::next_view`];
/// batch contents and shard bytes borrow the reader's scratch instead of
/// allocating per frame.
#[derive(Debug, PartialEq)]
pub enum FrameView<'a> {
    /// A `Batch(Items(…))` frame, decoded into the scratch.
    Items(&'a [u64]),
    /// A `Batch(Updates(…))` frame, decoded into the scratch.
    Updates(&'a [(u64, i64)]),
    /// A `Shard(…)` frame's sketch bytes, borrowed from the payload.
    Shard(&'a [u8]),
    /// Any other frame, decoded through the owning codec path (control
    /// frames are rare and small; only batches and shards are worth
    /// borrowing).
    Owned(Frame),
}

impl FrameView<'_> {
    /// A short name for protocol-violation diagnostics, as [`Frame::kind`].
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FrameView::Items(_) | FrameView::Updates(_) => "Batch",
            FrameView::Shard(_) => "Shard",
            FrameView::Owned(frame) => frame.kind(),
        }
    }

    /// The owned frame this view shows (borrowed contents are copied out).
    pub(crate) fn into_frame(self) -> Frame {
        match self {
            FrameView::Items(items) => Frame::Batch(BatchPayload::Items(items.to_vec())),
            FrameView::Updates(updates) => Frame::Batch(BatchPayload::Updates(updates.to_vec())),
            FrameView::Shard(bytes) => Frame::Shard(bytes.to_vec()),
            FrameView::Owned(frame) => frame,
        }
    }
}

/// Reads one length-prefixed frame into `buf`, as [`FrameBuf::read`] does,
/// except that a `Shard` frame's bytes are copied out into an owned
/// [`FrameView::Owned`]`(`[`Frame::Shard`]`)`: for callers that keep a
/// reply past the next read.  Batches stay borrowed.
///
/// # Errors
///
/// Exactly those of [`read_frame`].
pub fn read_frame_into<'a>(
    reader: &mut impl Read,
    buf: &'a mut FrameBuf,
) -> Result<Option<FrameView<'a>>, WireError> {
    Ok(buf.read(reader)?.map(|view| match view {
        FrameView::Shard(bytes) => FrameView::Owned(Frame::Shard(bytes.to_vec())),
        view => view,
    }))
}

/// The shard bytes of a strictly encoded `Shard` payload: the variant
/// index 4, then a `u64` length equal to the bytes that follow it.
fn shard_bytes(payload: &[u8]) -> Option<&[u8]> {
    let (header, bytes) = payload.split_at_checked(SHARD_HEADER)?;
    let declared = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    (header[..4] == SHARD_TAG && declared == bytes.len() as u64).then_some(bytes)
}

/// Decodes one complete frame payload, borrowing `Batch` contents into the
/// caller's retained scratch vectors and `Shard` bytes from the payload.
/// This is the single decode shared by the blocking reader
/// ([`FrameBuf::read`]) and the incremental [`FrameDecoder`], so the two
/// paths cannot drift in layout or error text.
///
/// Fast paths: a strictly well-formed `Batch` or `Shard` frame.  A `Batch`
/// is laid out (all LE) as `[0..4)` Frame variant 1 = Batch, `[4..8)`
/// payload variant (0 = Items, 1 = Updates), `[8..16)` element count u64,
/// then count × stride bytes; a `Shard` as variant 4, a u64 byte count,
/// then the bytes.  A frame whose bytes deviate in any way (length not
/// exactly covering the declared element count) falls back to the owning
/// codec, which rejects it: the codec refuses truncated and trailing bytes
/// and unknown tags, so a `Batch` or `Shard` never decodes as
/// [`FrameView::Owned`].
fn decode_payload<'a>(
    payload: &'a [u8],
    items: &'a mut Vec<u64>,
    updates: &'a mut Vec<(u64, i64)>,
) -> Result<FrameView<'a>, WireError> {
    if let Some(bytes) = shard_bytes(payload) {
        return Ok(FrameView::Shard(bytes));
    }
    let len = payload.len();
    if len >= 16 && payload[..4] == [1, 0, 0, 0] {
        let tag = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
        let count_bytes: [u8; 8] = payload[8..16].try_into().expect("8 bytes");
        let count = u64::from_le_bytes(count_bytes) as usize;
        let stride: usize = match tag {
            0 => 8,
            1 => 16,
            _ => 0,
        };
        let strict_len = count
            .checked_mul(stride)
            .and_then(|body| body.checked_add(16));
        if stride != 0 && strict_len == Some(len) {
            let body = &payload[16..];
            match tag {
                0 => {
                    items.clear();
                    items.extend(
                        body.chunks_exact(8)
                            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
                    );
                    return Ok(FrameView::Items(items));
                }
                _ => {
                    updates.clear();
                    updates.extend(body.chunks_exact(16).map(|c| {
                        (
                            u64::from_le_bytes(c[..8].try_into().expect("8 bytes")),
                            i64::from_le_bytes(c[8..].try_into().expect("8 bytes")),
                        )
                    }));
                    return Ok(FrameView::Updates(updates));
                }
            }
        }
    }
    serde::from_bytes::<Frame>(payload)
        .map(FrameView::Owned)
        .map_err(|e| WireError::Codec(e.to_string()))
}

/// Incremental, resumable frame decoding for nonblocking readers.
///
/// The blocking readers above assume they may park inside a frame until the
/// rest arrives.  A readiness-driven serve loop cannot: a socket read
/// returns whatever bytes exist — possibly half a length prefix — and the
/// loop must move on to other sessions.  `FrameDecoder` owns that partial
/// state: [`push`](Self::push) whatever arrived, then drain complete frames
/// with [`next_view`](Self::next_view) (`Ok(None)` = need more bytes).
///
/// The decoder enforces the same [`MAX_FRAME_LEN`] bound and produces the
/// same typed errors as [`read_frame`] on the same byte streams (pinned by
/// the byte-at-a-time property test), and
/// [`mid_frame`](Self::mid_frame) reports whether buffered bytes stop
/// inside a frame — the fact the desync-vs-timeout fault taxonomy is built
/// on.  Memory stays bounded: consumed bytes are compacted away, and a
/// frame can demand at most `4 + MAX_FRAME_LEN` buffered bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Accumulated wire bytes; `[consumed..]` is not yet handed out.
    buf: Vec<u8>,
    /// Front bytes already returned as complete frames.
    consumed: usize,
    items: Vec<u64>,
    updates: Vec<(u64, i64)>,
}

/// Compact once the dead front exceeds this many bytes (and dominates the
/// buffer), so a long-lived session cannot grow its buffer unboundedly.
const DECODER_COMPACT_THRESHOLD: usize = 64 << 10;

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the buffered bytes end *inside* a frame (a partial length
    /// prefix or a partial payload).  A read timeout observed in this state
    /// means the stream is desynchronized — see
    /// [`WireError::TimedOutMidFrame`].
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.consumed
    }

    /// Bytes currently buffered and not yet decoded.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Decodes the next complete frame, borrowing `Batch` contents and
    /// `Shard` bytes from the decoder's scratch (the returned view is
    /// invalidated by the next call).  Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] on an absurd length prefix,
    /// [`WireError::Codec`] if a complete payload does not decode.  Errors
    /// are sticky in practice: the caller must drop the stream, since the
    /// byte position is no longer trustworthy.
    pub fn next_view(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        self.compact();
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                declared: len as u64,
            });
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let start = self.consumed + 4;
        self.consumed = start + len;
        decode_payload(
            &self.buf[start..start + len],
            &mut self.items,
            &mut self.updates,
        )
        .map(Some)
    }

    /// Owning convenience over [`next_view`](Self::next_view): the next
    /// complete frame as a [`Frame`], or `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Exactly those of [`next_view`](Self::next_view).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_view()?.map(FrameView::into_frame))
    }

    /// Drops fully consumed front bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed > DECODER_COMPACT_THRESHOLD {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

enum ReadOutcome {
    Full,
    CleanEof,
    Partial,
}

/// `read_exact`, but distinguishing "no bytes at all" (clean EOF between
/// frames) from "some bytes then EOF" (peer died mid-frame), and — when
/// `frame_started` or once any byte of `buf` landed — classifying a read
/// timeout as the desyncing [`WireError::TimedOutMidFrame`] instead of a
/// recoverable-in-place [`WireError::Io`] timeout.
fn read_exact_or_eof(
    reader: &mut impl Read,
    buf: &mut [u8],
    frame_started: bool,
) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
                    && (frame_started || filled > 0) =>
            {
                return Err(WireError::TimedOutMidFrame);
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame).expect("write");
        let mut reader = wire.as_slice();
        let back = read_frame(&mut reader).expect("read").expect("one frame");
        assert!(reader.is_empty(), "trailing bytes after one frame");
        back
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = [
            Frame::Hello(HelloConfig {
                worker_index: 3,
                spec: SketchSpec::f0("knw-f0", 0.1, 1 << 20, 42),
            }),
            Frame::Batch(BatchPayload::Items(vec![1, 2, 3])),
            Frame::Batch(BatchPayload::Updates(vec![(7, -2), (9, 5)])),
            Frame::Snapshot,
            Frame::Finish,
            Frame::Shard(vec![0xDE, 0xAD, 0xBE, 0xEF]),
            Frame::Err("boom".into()),
            Frame::Register("10.0.0.9:7001".into()),
            Frame::Stats(WorkerStats {
                frames_received: 100,
                batches_ingested: 42,
                updates_ingested: 171_000,
                snapshots_served: 3,
            }),
        ];
        for frame in &frames {
            assert_eq!(&round_trip(frame), frame, "{} deviated", frame.kind());
        }
    }

    /// Golden bytes: the encoding is pinned so the aggregator and worker
    /// binaries (separate executables!) cannot drift apart silently.  If
    /// this test fails, the wire format changed — bump both sides together.
    #[test]
    fn golden_bytes_are_stable() {
        // Finish = variant index 3, no fields; prefix says 4 payload bytes.
        let mut finish = Vec::new();
        write_frame(&mut finish, &Frame::Finish).expect("write");
        assert_eq!(finish, [4, 0, 0, 0, 3, 0, 0, 0]);

        // Shard(vec![1, 2]): variant 4, then a u64 length-prefixed byte Vec.
        let mut shard = Vec::new();
        write_frame(&mut shard, &Frame::Shard(vec![1, 2])).expect("write");
        assert_eq!(
            shard,
            [
                14, 0, 0, 0, // u32 frame length: 4 (tag) + 8 (vec len) + 2
                4, 0, 0, 0, // variant index 4 = Shard
                2, 0, 0, 0, 0, 0, 0, 0, // vec length 2 (u64 LE)
                1, 2, // the bytes
            ]
        );

        // Batch(Items([5])): variant 1, payload variant 0, one u64 item.
        let mut batch = Vec::new();
        write_frame(&mut batch, &Frame::Batch(BatchPayload::Items(vec![5]))).expect("write");
        assert_eq!(
            batch,
            [
                24, 0, 0, 0, // frame length: 4 + 4 + 8 + 8
                1, 0, 0, 0, // variant index 1 = Batch
                0, 0, 0, 0, // payload variant 0 = Items
                1, 0, 0, 0, 0, 0, 0, 0, // vec length 1
                5, 0, 0, 0, 0, 0, 0, 0, // the item
            ]
        );

        // Register("a:1"): the worker-discovery announcement, variant 6.
        let mut register = Vec::new();
        write_frame(&mut register, &Frame::Register("a:1".into())).expect("write");
        assert_eq!(
            register,
            [
                15, 0, 0, 0, // frame length: 4 (tag) + 8 (string len) + 3
                6, 0, 0, 0, // variant index 6 = Register
                3, 0, 0, 0, 0, 0, 0, 0, // string length 3 (u64 LE)
                b'a', b':', b'1', // the UTF-8 bytes
            ]
        );

        // Stats: the worker-side ingest counters, variant 7; four u64
        // fields in declaration order.
        let mut stats = Vec::new();
        write_frame(
            &mut stats,
            &Frame::Stats(WorkerStats {
                frames_received: 9,
                batches_ingested: 2,
                updates_ingested: 300,
                snapshots_served: 1,
            }),
        )
        .expect("write");
        assert_eq!(
            stats,
            [
                36, 0, 0, 0, // frame length: 4 (tag) + 4 × 8 (the counters)
                7, 0, 0, 0, // variant index 7 = Stats
                9, 0, 0, 0, 0, 0, 0, 0, // frames_received
                2, 0, 0, 0, 0, 0, 0, 0, // batches_ingested
                44, 1, 0, 0, 0, 0, 0, 0, // updates_ingested = 300
                1, 0, 0, 0, 0, 0, 0, 0, // snapshots_served
            ]
        );
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).expect("clean eof").is_none());
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error_not_a_panic() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Hello(HelloConfig {
                worker_index: 0,
                spec: SketchSpec::l0("knw-l0", 0.1, 1 << 16, 7),
            }),
        )
        .expect("write");
        for cut in 1..wire.len() {
            let mut reader = &wire[..cut];
            let err = read_frame(&mut reader).expect_err("truncated read must fail");
            assert!(
                matches!(err, WireError::Truncated | WireError::Codec(_)),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_variant_tag_is_a_codec_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Finish).expect("write");
        wire[4] = 0xFF; // smash the Frame variant index
        let mut reader = wire.as_slice();
        assert!(matches!(read_frame(&mut reader), Err(WireError::Codec(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let wire = u32::MAX.to_le_bytes();
        let mut reader = wire.as_slice();
        assert!(matches!(
            read_frame(&mut reader),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_garbage_inside_a_frame_is_a_codec_error() {
        // A valid Finish payload padded with one extra byte, with the
        // length prefix covering the padding: strict decode must reject.
        let wire = [5u8, 0, 0, 0, 3, 0, 0, 0, 9];
        let mut reader = wire.as_slice();
        assert!(matches!(read_frame(&mut reader), Err(WireError::Codec(_))));
    }

    #[test]
    fn borrowed_reader_agrees_with_owning_reader_on_every_frame_kind() {
        let frames = [
            Frame::Hello(HelloConfig {
                worker_index: 1,
                spec: SketchSpec::f0("knw-f0", 0.1, 1 << 20, 42),
            }),
            Frame::Batch(BatchPayload::Items(vec![])),
            Frame::Batch(BatchPayload::Items(vec![1, 2, u64::MAX])),
            Frame::Batch(BatchPayload::Updates(vec![(7, -2), (9, i64::MIN)])),
            Frame::Snapshot,
            Frame::Finish,
            Frame::Shard(vec![0xAB; 100]),
            Frame::Err("boom".into()),
            Frame::Register("h:1".into()),
            Frame::Stats(WorkerStats {
                frames_received: 4,
                batches_ingested: 2,
                updates_ingested: 8_192,
                snapshots_served: 0,
            }),
        ];
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).expect("write");
        }
        // One scratch across the whole stream, as the worker loop uses it.
        let mut buf = FrameBuf::new();
        let mut reader = wire.as_slice();
        for frame in &frames {
            let view = read_frame_into(&mut reader, &mut buf)
                .expect("read")
                .expect("a frame");
            match (frame, view) {
                (Frame::Batch(BatchPayload::Items(v)), FrameView::Items(s)) => {
                    assert_eq!(v.as_slice(), s);
                }
                (Frame::Batch(BatchPayload::Updates(v)), FrameView::Updates(s)) => {
                    assert_eq!(v.as_slice(), s);
                }
                (expected, FrameView::Owned(got)) => assert_eq!(expected, &got),
                (expected, got) => panic!("{} decoded as {got:?}", expected.kind()),
            }
        }
        assert!(read_frame_into(&mut reader, &mut buf)
            .expect("clean eof")
            .is_none());
    }

    #[test]
    fn borrowed_reader_reports_the_same_errors_as_the_owning_reader() {
        // Malformed batch: length prefix covers one byte more than the
        // declared element count — the fast path must decline and the
        // fallback must produce the owning reader's codec error.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Batch(BatchPayload::Items(vec![5]))).expect("write");
        wire.push(0); // payload grows by one byte…
        wire[0] += 1; // …and the prefix covers it
        let owning_err = read_frame(&mut wire.as_slice()).expect_err("owning rejects");
        let mut buf = FrameBuf::new();
        let borrowed_err =
            read_frame_into(&mut wire.as_slice(), &mut buf).expect_err("borrowed rejects");
        assert_eq!(owning_err.to_string(), borrowed_err.to_string());

        // Truncation and oversized prefixes behave identically too.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &Frame::Batch(BatchPayload::Items(vec![5]))).expect("write");
        truncated.pop();
        assert!(matches!(
            read_frame_into(&mut truncated.as_slice(), &mut buf),
            Err(WireError::Truncated)
        ));
        let oversized = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame_into(&mut oversized.as_slice(), &mut buf),
            Err(WireError::Oversized { .. })
        ));
    }

    /// Every frame kind of the protocol, encoded back to back.
    fn frame_zoo() -> Vec<Frame> {
        vec![
            Frame::Hello(HelloConfig {
                worker_index: 2,
                spec: SketchSpec::l0("knw-l0", 0.2, 1 << 12, 9),
            }),
            Frame::Batch(BatchPayload::Items(vec![])),
            Frame::Batch(BatchPayload::Items(vec![1, 2, u64::MAX])),
            Frame::Batch(BatchPayload::Updates(vec![(7, -2), (9, i64::MIN)])),
            Frame::Snapshot,
            Frame::Finish,
            Frame::Shard(vec![0xAB; 64]),
            Frame::Err("boom".into()),
            Frame::Register("h:1".into()),
            Frame::Stats(WorkerStats {
                frames_received: 7,
                batches_ingested: 3,
                updates_ingested: 12_288,
                snapshots_served: 1,
            }),
        ]
    }

    #[test]
    fn decoder_fed_byte_at_a_time_yields_every_frame() {
        let frames = frame_zoo();
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).expect("write");
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for &byte in &wire {
            decoder.push(std::slice::from_ref(&byte));
            while let Some(frame) = decoder.next_frame().expect("decode") {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, frames);
        assert!(!decoder.mid_frame(), "all bytes consumed");
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_mid_frame_tracks_partial_prefixes_and_payloads() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Finish).expect("write");
        let mut decoder = FrameDecoder::new();
        assert!(!decoder.mid_frame(), "empty decoder is between frames");
        for cut in 1..wire.len() {
            decoder.push(&wire[cut - 1..cut]);
            assert!(decoder.next_frame().expect("partial").is_none());
            assert!(decoder.mid_frame(), "{cut} bytes in is mid-frame");
        }
        decoder.push(&wire[wire.len() - 1..]);
        assert_eq!(decoder.next_frame().expect("decode"), Some(Frame::Finish));
        assert!(!decoder.mid_frame(), "back between frames");
    }

    #[test]
    fn decoder_rejects_oversized_and_corrupt_frames_like_read_frame() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::Oversized { .. })
        ));

        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Finish).expect("write");
        wire[4] = 0xFF; // smash the Frame variant index
        let owning = read_frame(&mut wire.as_slice()).expect_err("owning rejects");
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let incremental = decoder.next_frame().expect_err("decoder rejects");
        assert_eq!(owning.to_string(), incremental.to_string());
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Batch(BatchPayload::Items(vec![7; 512]))).expect("write");
        let mut decoder = FrameDecoder::new();
        // Far more traffic than the compaction threshold: buffered() staying
        // at zero between frames proves consumed bytes are dropped, not
        // accumulated for the connection's lifetime.
        for _ in 0..64 {
            decoder.push(&wire);
            match decoder.next_view().expect("decode").expect("one frame") {
                FrameView::Items(items) => assert_eq!(items.len(), 512),
                other => panic!("expected Items, got {other:?}"),
            }
            assert_eq!(decoder.buffered(), 0);
        }
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        for frame in frame_zoo() {
            let mut written = Vec::new();
            write_frame(&mut written, &frame).expect("write");
            assert_eq!(encode_frame(&frame).expect("encode"), written);
        }
    }

    /// A reader that yields a fixed prefix of bytes, then fails every
    /// subsequent read with a timeout — the socket shape of a peer stalling
    /// under `SO_RCVTIMEO`.
    struct StallingReader {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for StallingReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.bytes.len() {
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"));
            }
            let n = out.len().min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_between_frames_stays_a_recoverable_io_error() {
        let mut reader = StallingReader {
            bytes: Vec::new(),
            at: 0,
        };
        match read_frame(&mut reader) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            other => panic!("expected a plain Io timeout, got {other:?}"),
        }
    }

    #[test]
    fn timeout_mid_frame_is_typed_desync_at_every_cut() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Batch(BatchPayload::Items(vec![5, 6]))).expect("write");
        // Stall after every strict prefix — inside the length prefix and
        // inside the payload alike: the stream position is lost either way.
        for cut in 1..wire.len() {
            let mut reader = StallingReader {
                bytes: wire[..cut].to_vec(),
                at: 0,
            };
            match read_frame(&mut reader) {
                Err(WireError::TimedOutMidFrame) => {}
                other => panic!("cut {cut}: expected TimedOutMidFrame, got {other:?}"),
            }
            let mut reader = StallingReader {
                bytes: wire[..cut].to_vec(),
                at: 0,
            };
            let mut buf = FrameBuf::new();
            match read_frame_into(&mut reader, &mut buf) {
                Err(WireError::TimedOutMidFrame) => {}
                other => panic!("cut {cut} (borrowed): expected TimedOutMidFrame, got {other:?}"),
            }
        }
    }
}
