//! Property-based robustness tests of the frame decoder: whatever the wire
//! does to a frame — truncation anywhere, bit flips anywhere, oversized
//! length prefixes, raw byte soup — `read_frame` must return a typed
//! [`WireError`] or a valid frame, must never panic, and must never read
//! past the boundary the length prefix declares (no over-read into the
//! next frame's bytes).
//!
//! These are the guarantees the transports lean on: a crashed or malicious
//! peer can corrupt its own session, never the survivor's process.

use knw_cluster::{
    encode_frame, encode_shard_frame, read_frame, read_frame_into, write_frame, BatchPayload,
    Frame, FrameBuf, FrameDecoder, FrameView, HelloConfig, SketchSpec, WireError, WorkerStats,
    MAX_FRAME_LEN,
};
use proptest::prelude::*;
use std::io::Read;

/// A reader that counts consumed bytes, to prove `read_frame` never reads
/// past the declared frame boundary.
struct CountingReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> CountingReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (&self.data[self.pos..]).read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

/// Builds one frame of every protocol shape from drawn parameters.
fn arbitrary_frame(kind: u64, a: u64, payload: &[u8]) -> Frame {
    let names = knw_cluster::f0_estimator_names();
    match kind % 8 {
        0 => Frame::Hello(HelloConfig {
            worker_index: a,
            spec: SketchSpec::f0(names[(a % names.len() as u64) as usize], 0.1, 1 << 16, a),
        }),
        1 if a.is_multiple_of(2) => Frame::Batch(BatchPayload::Items(
            payload.iter().map(|&b| u64::from(b)).collect(),
        )),
        1 => Frame::Batch(BatchPayload::Updates(
            payload
                .iter()
                .map(|&b| (u64::from(b), i64::from(b as i8)))
                .collect(),
        )),
        2 => Frame::Snapshot,
        3 => Frame::Finish,
        4 => Frame::Shard(payload.to_vec()),
        5 => Frame::Err(String::from_utf8_lossy(payload).into_owned()),
        6 => Frame::Register(String::from_utf8_lossy(payload).into_owned()),
        _ => Frame::Stats(WorkerStats {
            frames_received: a,
            batches_ingested: a / 2,
            updates_ingested: payload.len() as u64,
            snapshots_served: a % 3,
        }),
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame).expect("encode");
    wire
}

/// The payload length the (possibly corrupted) prefix declares.
fn declared_len(wire: &[u8]) -> usize {
    u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize
}

/// Decodes one frame while checking the no-over-read property: however the
/// bytes were mangled, the decoder consumes at most the four prefix bytes
/// plus the payload length the prefix declares.
fn decode_checked(wire: &[u8]) -> Result<Option<Frame>, WireError> {
    let mut reader = CountingReader::new(wire);
    let result = read_frame(&mut reader);
    if wire.len() >= 4 {
        let budget = 4usize.saturating_add(declared_len(wire));
        assert!(
            reader.pos <= budget,
            "decoder consumed {} bytes of a frame declaring {} payload bytes",
            reader.pos,
            declared_len(wire)
        );
    } else {
        assert!(reader.pos <= wire.len());
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid frame decodes back to itself, and the decoder consumes
    /// exactly the frame's bytes — nothing of whatever follows on the wire.
    #[test]
    fn valid_frames_round_trip_and_consume_exactly_their_bytes(
        kind in 0u64..8,
        a in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        trailing in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let frame = arbitrary_frame(kind, a, &payload);
        let mut wire = encode(&frame);
        let frame_len = wire.len();
        wire.extend_from_slice(&trailing);
        let mut reader = CountingReader::new(&wire);
        let decoded = read_frame(&mut reader).expect("valid frame").expect("one frame");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(reader.pos, frame_len);
    }

    /// Truncating a valid frame anywhere — inside the prefix, inside the
    /// payload — yields a typed error, never a panic and never a bogus
    /// frame.
    #[test]
    fn truncation_anywhere_is_a_typed_error(
        kind in 0u64..8,
        a in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        cut_seed in any::<u64>(),
    ) {
        let wire = encode(&arbitrary_frame(kind, a, &payload));
        let cut = 1 + (cut_seed % (wire.len() as u64 - 1)) as usize;
        match decode_checked(&wire[..cut]) {
            Err(WireError::Truncated | WireError::Codec(_)) => {}
            other => prop_assert!(false, "cut {} of {}: unexpected {:?}", cut, wire.len(), other),
        }
    }

    /// Flipping any single bit of a valid frame never panics and never
    /// over-reads; whatever comes back is a typed error or a (different
    /// but well-formed) frame.
    #[test]
    fn bit_flips_never_panic_and_never_overread(
        kind in 0u64..8,
        a in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        flip_seed in any::<u64>(),
    ) {
        let mut wire = encode(&arbitrary_frame(kind, a, &payload));
        let bit = (flip_seed % (wire.len() as u64 * 8)) as usize;
        wire[bit / 8] ^= 1 << (bit % 8);
        // Flipping a high prefix bit may declare an absurd length: that
        // exact case must come back as the typed Oversized error.
        let oversized = declared_len(&wire) > MAX_FRAME_LEN;
        match decode_checked(&wire) {
            Err(WireError::Oversized { declared }) => {
                prop_assert!(oversized, "spurious Oversized({declared})");
            }
            Err(WireError::Truncated | WireError::Codec(_)) | Ok(Some(_)) => {
                prop_assert!(!oversized, "an oversized declaration must be rejected");
            }
            other => prop_assert!(false, "bit {}: unexpected {:?}", bit, other),
        }
    }

    /// A length prefix above `MAX_FRAME_LEN` is rejected as `Oversized` no
    /// matter what follows — the decoder must not trust it into an
    /// unbounded allocation or a long blocking read.
    #[test]
    fn oversized_declarations_are_rejected(
        excess in 1u64..=(u32::MAX as u64 - MAX_FRAME_LEN as u64),
        junk in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let declared = MAX_FRAME_LEN as u64 + excess;
        let mut wire = (declared as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&junk);
        match decode_checked(&wire) {
            Err(WireError::Oversized { declared: seen }) => {
                prop_assert_eq!(seen, declared);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Raw byte soup — no structure at all — never panics the decoder and
    /// never over-reads; every outcome is `Ok` or a typed error.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Every path through the decoder is acceptable except a panic or
        // an over-read, both checked inside decode_checked.
        let _ = decode_checked(&bytes);
    }

    /// Corrupting the frame's variant tag to anything outside the enum is
    /// a typed codec rejection.
    #[test]
    fn unknown_variant_tags_are_codec_errors(tag in 8u32..u32::MAX) {
        let mut wire = encode(&Frame::Finish);
        wire[4..8].copy_from_slice(&tag.to_le_bytes());
        match decode_checked(&wire) {
            Err(WireError::Codec(_)) => {}
            other => prop_assert!(false, "tag {}: unexpected {:?}", tag, other),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The resumable decoder agrees with the blocking decoder on every
    /// frame shape, under the most adversarial delivery the wire can
    /// produce: one byte at a time.  A sequence of valid frames fed to a
    /// [`FrameDecoder`](knw_cluster::FrameDecoder) byte-by-byte yields
    /// exactly the frames `read_frame` yields from the same bytes, in
    /// order, with the decoder mid-frame at every strictly interior cut
    /// and empty at every frame boundary.
    #[test]
    fn byte_at_a_time_decoding_equals_read_frame(
        shapes in prop::collection::vec((0u64..8, any::<u64>()), 1..6),
        payload in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let frames: Vec<Frame> = shapes
            .iter()
            .map(|&(kind, a)| arbitrary_frame(kind, a, &payload))
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&encode(frame));
        }

        // The blocking reference: read_frame over the concatenated bytes.
        let mut reader = CountingReader::new(&wire);
        let mut reference = Vec::new();
        while let Some(frame) = read_frame(&mut reader).expect("valid stream") {
            reference.push(frame);
            if reader.pos == wire.len() {
                break;
            }
        }
        prop_assert_eq!(&reference, &frames);

        // The resumable decoder, fed one byte at a time.
        let mut decoder = knw_cluster::FrameDecoder::new();
        let mut streamed = Vec::new();
        for (i, &byte) in wire.iter().enumerate() {
            decoder.push(std::slice::from_ref(&byte));
            while let Some(frame) = decoder.next_frame().expect("valid byte") {
                streamed.push(frame);
            }
            let boundary = streamed.iter().map(|f| encode(f).len()).sum::<usize>() == i + 1;
            prop_assert_eq!(
                decoder.mid_frame(),
                !boundary,
                "mid_frame wrong after byte {}",
                i
            );
        }
        prop_assert_eq!(streamed, frames);
        prop_assert!(!decoder.mid_frame(), "decoder must end empty");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `Batch` frame only ever decodes borrowed.  Valid batches of both
    /// stream models, every truncation and every single-byte mutation of
    /// them, through `read_frame_into` and through
    /// `FrameDecoder::next_view`, yield a borrowed batch, another frame,
    /// `None` or a typed error — never an owned `Batch`, for which neither
    /// the worker nor the serve loop has a path.
    #[test]
    fn batches_never_decode_as_owned_frames(
        turnstile in any::<bool>(),
        values in prop::collection::vec(any::<u64>(), 0..12),
        flip in 1u8..=255,
    ) {
        let payload = if turnstile {
            BatchPayload::Updates(values.iter().map(|&v| (v, v as i64)).collect())
        } else {
            BatchPayload::Items(values)
        };
        let wire = encode(&Frame::Batch(payload));
        let mut variants = vec![wire.clone()];
        variants.extend((0..wire.len()).map(|cut| wire[..cut].to_vec()));
        variants.extend((0..wire.len()).map(|i| {
            let mut mutated = wire.clone();
            mutated[i] ^= flip;
            mutated
        }));
        let owned_batch = |view: &Result<Option<FrameView<'_>>, WireError>| {
            matches!(view, Ok(Some(FrameView::Owned(Frame::Batch(_)))))
        };
        for bytes in &variants {
            let mut buf = FrameBuf::new();
            let blocking = read_frame_into(&mut bytes.as_slice(), &mut buf);
            prop_assert!(!owned_batch(&blocking), "read_frame_into on {:?}", bytes);
            let mut decoder = FrameDecoder::new();
            decoder.push(bytes);
            let streamed = decoder.next_view();
            prop_assert!(!owned_batch(&streamed), "next_view on {:?}", bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `Shard` frame decodes borrowed, and its in-place encoder writes
    /// the codec's bytes.  A valid shard comes back as
    /// [`FrameView::Shard`] over exactly the encoded bytes through
    /// `FrameBuf::read` and `FrameDecoder::next_view` (and owned, with the
    /// same bytes, through `read_frame_into`); `encode_shard_frame` — into
    /// a reused buffer holding an older, longer frame — equals
    /// `encode_frame(&Frame::Shard(..))` byte for byte; every truncation is
    /// a typed error, and no single-byte mutation panics or decodes as an
    /// owned `Shard`, for which the aggregator has no path.
    #[test]
    fn shards_decode_borrowed_and_encode_in_place(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        stale in prop::collection::vec(any::<u8>(), 0..160),
        flip in 1u8..=255,
    ) {
        let wire = encode_frame(&Frame::Shard(bytes.clone())).expect("encode");
        let mut in_place = Vec::new();
        encode_shard_frame(&mut in_place, |out| out.extend_from_slice(&stale)).expect("encode");
        encode_shard_frame(&mut in_place, |out| out.extend_from_slice(&bytes)).expect("encode");
        prop_assert_eq!(&in_place, &wire);

        let mut buf = FrameBuf::new();
        let blocking = buf.read(&mut wire.as_slice()).expect("valid frame");
        prop_assert_eq!(blocking, Some(FrameView::Shard(&bytes)));
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let streamed = decoder.next_view().expect("valid frame");
        prop_assert_eq!(streamed, Some(FrameView::Shard(&bytes)));
        let owned = read_frame_into(&mut wire.as_slice(), &mut buf).expect("valid frame");
        prop_assert_eq!(owned, Some(FrameView::Owned(Frame::Shard(bytes.clone()))));

        for cut in 1..wire.len() {
            match buf.read(&mut &wire[..cut]) {
                Err(WireError::Truncated) => {}
                other => prop_assert!(false, "cut {}: unexpected {:?}", cut, other),
            }
        }
        for i in 0..wire.len() {
            let mut mutated = wire.clone();
            mutated[i] ^= flip;
            let blocking = buf.read(&mut mutated.as_slice());
            prop_assert!(
                !matches!(blocking, Ok(Some(FrameView::Owned(Frame::Shard(_))))),
                "FrameBuf::read on {:?}",
                mutated
            );
            let mut decoder = FrameDecoder::new();
            decoder.push(&mutated);
            let streamed = decoder.next_view();
            prop_assert!(
                !matches!(streamed, Ok(Some(FrameView::Owned(Frame::Shard(_))))),
                "next_view on {:?}",
                mutated
            );
        }
    }
}
