//! The worker side of the cluster protocol: one process, one shard sketch
//! per session.
//!
//! [`run_worker`] is transport-agnostic (any `Read`/`Write` pair), so the
//! same loop serves the `knw-worker` binary in both of its modes —
//! stdin/stdout pipes when spawned by an aggregator, a TCP serve loop
//! ([`serve`]) under `knw-worker --listen <addr>` — as well as Unix
//! sockets and in-process tests over byte buffers.
//!
//! A session is one generic loop: the `Hello` frame's stream model picks
//! the update type once, and the shard sketch is then built, fed and
//! encoded through [`ClusterUpdate`].  Every session starts from an empty
//! shard.  It is a strict state machine:
//!
//! ```text
//! wait Hello ──► ingest loop:  Batch     → apply to the shard sketch
//!                              Snapshot  → reply Shard{bytes}, then an L0
//!                                          shard starts over; keep going
//!                              Finish    → reply Shard{bytes}, exit Ok
//!                              clean EOF → exit Ok (aggregator went away)
//! ```
//!
//! The aggregator folds every reply into the sketch it keeps, so a reply
//! carries what that fold needs ([`ClusterUpdate::replied`]): an L0 shard
//! the updates since the last reply, an F0 shard all it holds.
//!
//! Every failure — codec rejection, protocol violation, unknown estimator,
//! stream-model mismatch — is reported to the aggregator as an `Err` frame
//! (best effort) *and* returned to the caller, so the binary exits nonzero
//! and process supervisors see the crash.

use crate::accept::accept_loop;
use crate::aggregator::ClusterUpdate;
use crate::frame::{
    encode_shard_frame, read_frame, write_frame, Frame, FrameBuf, FrameView, SketchSpec,
    StreamMode, WireError, WorkerStats,
};
use knw_metrics::knw_log;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Sends an `Err` frame best-effort (the pipe may already be gone) and
/// returns the message as the loop's error.
fn report(output: &mut impl Write, message: String) -> Result<(), String> {
    let _ = write_frame(output, &Frame::Err(message.clone()));
    let _ = output.flush();
    Err(message)
}

/// Runs the worker protocol loop to completion over the given transport.
///
/// The session's ingest counters are reported back to the aggregator as a
/// [`Frame::Stats`] immediately before the final shard, and mirrored into
/// the process-wide metrics registry (`knw_worker_*` counters) on every
/// exit path, so a long-lived `--listen` worker accumulates fleet-visible
/// totals across sessions.
///
/// # Errors
///
/// Returns the failure message (already sent to the aggregator as an `Err`
/// frame where the transport still worked): transport/codec failures,
/// protocol violations, unknown estimator names, stream-model mismatches.
pub fn run_worker(input: &mut impl Read, output: &mut impl Write) -> Result<(), String> {
    let mut stats = WorkerStats::default();
    let result = run_session(input, output, &mut stats);
    mirror_stats(&stats);
    result
}

/// Adds a finished session's counters to the process-wide registry.  The
/// hot path only touches plain `u64` locals; this one batch of atomic adds
/// per session is the entire registry cost of the ingest loop.
fn mirror_stats(stats: &WorkerStats) {
    let registry = knw_metrics::global();
    let pairs = [
        ("knw_worker_frames_received_total", stats.frames_received),
        ("knw_worker_batches_ingested_total", stats.batches_ingested),
        ("knw_worker_updates_ingested_total", stats.updates_ingested),
        ("knw_worker_snapshots_served_total", stats.snapshots_served),
    ];
    for (name, value) in pairs {
        registry.counter(name, &[]).add(value);
    }
}

fn run_session(
    input: &mut impl Read,
    output: &mut impl Write,
    stats: &mut WorkerStats,
) -> Result<(), String> {
    // Handshake.
    let hello = match read_frame(input) {
        Ok(Some(Frame::Hello(hello))) => hello,
        Ok(Some(other)) => {
            return report(
                output,
                format!("protocol violation: expected Hello, got {}", other.kind()),
            )
        }
        // The aggregator vanished before saying anything; nothing to do.
        Ok(None) => return Ok(()),
        Err(e) => return report(output, format!("handshake failed: {e}")),
    };
    // The one place the session decides its stream model.
    match hello.spec.mode {
        StreamMode::F0 => ingest::<u64>(input, output, stats, &hello.spec),
        StreamMode::L0 => ingest::<(u64, i64)>(input, output, stats, &hello.spec),
    }
}

/// The ingest loop of a session whose `Hello` named the stream model of
/// `U`: builds the shard sketch from `spec`, then applies batches and
/// answers `Snapshot` / `Finish` through [`ClusterUpdate`], applying
/// [`ClusterUpdate::replied`] once a snapshot reply is written.
fn ingest<U: ClusterUpdate>(
    input: &mut impl Read,
    output: &mut impl Write,
    stats: &mut WorkerStats,
    spec: &SketchSpec,
) -> Result<(), String> {
    let mut shard = match U::build(spec) {
        Ok(shard) => shard,
        Err(e) => return report(output, e.to_string()),
    };

    // Batches — the hot path — are decoded through the borrowed reader
    // into one retained scratch, and shard replies are encoded into
    // another, so a long stream performs no per-frame allocation on the
    // worker side; control frames arrive as owned values.
    let mut buf = FrameBuf::new();
    let mut reply = Vec::new();
    loop {
        let view = match buf.read(input) {
            Ok(Some(view)) => view,
            // Clean EOF without Finish: the aggregator was dropped without
            // reporting; mirror the in-process engine (workers shut down
            // quietly when the router goes away).
            Ok(None) => return Ok(()),
            Err(WireError::Io(e)) => return Err(format!("transport failed: {e}")),
            Err(e) => return report(output, format!("bad frame: {e}")),
        };
        stats.frames_received += 1;
        if let Some(batch) = U::batch_view(&view) {
            stats.batches_ingested += 1;
            stats.updates_ingested += batch.len() as u64;
            U::apply(&mut shard, batch);
            continue;
        }
        match view {
            // A batch of the other stream model.
            FrameView::Items(_) | FrameView::Updates(_) => {
                let sent = match view {
                    FrameView::Items(_) => "insert-only batch sent to an L0",
                    _ => "turnstile batch sent to an F0",
                };
                return report(output, format!("stream-model mismatch: {sent} worker"));
            }
            FrameView::Owned(Frame::Snapshot) => {
                stats.snapshots_served += 1;
                send_shard::<U>(output, &shard, &mut reply)
                    .map_err(|e| format!("failed to send snapshot shard: {e}"))?;
                U::replied(&mut shard);
            }
            FrameView::Owned(Frame::Finish) => {
                // The session's counters ride back to the aggregator just
                // ahead of the final shard, so fleet-wide health rolls up
                // without a second round trip.
                write_frame(output, &Frame::Stats(*stats))
                    .map_err(|e| format!("failed to send session stats: {e}"))?;
                return send_shard::<U>(output, &shard, &mut reply)
                    .map_err(|e| format!("failed to send final shard: {e}"));
            }
            // Batches never land here: a `Batch` payload the borrowing
            // decode refuses, the codec refuses too.
            other => {
                return report(
                    output,
                    format!(
                        "protocol violation: unexpected {} frame midstream",
                        other.kind()
                    ),
                );
            }
        }
    }
}

/// Sends the shard as one `Shard` frame, serialized once, straight into the
/// session's retained `reply` buffer.
fn send_shard<U: ClusterUpdate>(
    output: &mut impl Write,
    shard: &U::Shard,
    reply: &mut Vec<u8>,
) -> Result<(), WireError> {
    encode_shard_frame(reply, |out| U::write_shard(shard, out))?;
    output.write_all(reply)?;
    output.flush()?;
    Ok(())
}

/// Knobs of the TCP serve loop ([`serve`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stop after this many sessions (`None` serves forever) — handy for
    /// tests and demos that want the worker to wind itself down.
    pub max_sessions: Option<usize>,
    /// Per-connection read/write timeout.  Bounded by default
    /// ([`DEFAULT_IO_TIMEOUT`](crate::DEFAULT_IO_TIMEOUT)): the serve loop
    /// handles sessions sequentially, so a half-open aggregator that never
    /// sends another byte must surface as a session error instead of
    /// wedging the worker (and everything queued behind it) forever.
    /// `None` blocks forever — only for aggregators that legitimately go
    /// quiet for long stretches.
    pub io_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_sessions: None,
            io_timeout: Some(crate::transport::DEFAULT_IO_TIMEOUT),
        }
    }
}

impl ServeOptions {
    /// Limits the loop to `sessions` aggregation sessions.
    #[must_use]
    pub fn with_max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = Some(sessions);
        self
    }
}

/// Runs one aggregation session ([`run_worker`]) over an accepted TCP
/// stream: buffered both ways, `TCP_NODELAY` on, optional read/write
/// timeouts.
///
/// # Errors
///
/// The session's failure message (protocol violation, codec rejection,
/// transport failure), exactly as [`run_worker`] reports it.
pub fn serve_connection(stream: &TcpStream, io_timeout: Option<Duration>) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    let configure = || -> std::io::Result<(TcpStream, TcpStream)> {
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Ok((stream.try_clone()?, stream.try_clone()?))
    };
    let (reader, writer) = configure().map_err(|e| format!("socket setup failed: {e}"))?;
    let mut input = BufReader::new(reader);
    let mut output = BufWriter::new(writer);
    run_worker(&mut input, &mut output)
}

/// The TCP serve loop behind `knw-worker --listen <addr>`: accepts
/// connections on `listener` and runs one aggregation session
/// ([`run_worker`]) per connection, sequentially.
///
/// A failed session does **not** stop the loop: the failure was already
/// reported to that session's aggregator as an `Err` frame (best effort)
/// and is logged to stderr here; a misbehaving client must not take a
/// shared worker host down.  Neither does a transient `accept(2)` failure
/// (`ECONNABORTED`, `EMFILE`, …): it is logged and retried with a short
/// growing backoff, up to eight *consecutive* failures.  The loop ends
/// after [`ServeOptions::max_sessions`] sessions, or never.
///
/// # Errors
///
/// A persistent `accept(2)` failure — nine consecutive accepts failed, so
/// the listener itself is broken.
pub fn serve(listener: &TcpListener, options: &ServeOptions) -> std::io::Result<()> {
    serve_accepting(|| listener.accept(), options)
}

/// The serve loop behind [`serve`], over any accept source (tests inject
/// accept failures through it).
fn serve_accepting(
    mut accept: impl FnMut() -> std::io::Result<(TcpStream, SocketAddr)>,
    options: &ServeOptions,
) -> std::io::Result<()> {
    let registry = knw_metrics::global();
    let sessions = registry.counter("knw_worker_sessions_total", &[]);
    let failed = registry.counter("knw_worker_sessions_failed_total", &[]);
    let accept_retries = registry.counter("knw_worker_accept_retries_total", &[]);
    if options.max_sessions == Some(0) {
        return Ok(());
    }
    let mut served = 0usize;
    accept_loop(
        "knw-worker",
        || accept().inspect_err(|_| accept_retries.inc()),
        |(stream, peer)| {
            if let Err(message) = serve_connection(&stream, options.io_timeout) {
                // `message` can embed raw peer-supplied bytes (codec errors
                // quote the offending frame); the structured logger escapes
                // the value so a hostile client cannot forge log records.
                failed.inc();
                knw_log!(
                    WARN,
                    "knw-worker",
                    "session failed",
                    peer = peer,
                    error = message,
                );
            }
            sessions.inc();
            served += 1;
            options.max_sessions.is_none_or(|max| served < max)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{BatchPayload, HelloConfig, SketchSpec};
    use crate::spec::build_f0;

    fn hello(spec: SketchSpec) -> Frame {
        Frame::Hello(HelloConfig {
            worker_index: 0,
            spec,
        })
    }

    fn script(frames: &[Frame]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            write_frame(&mut wire, frame).expect("write");
        }
        wire
    }

    fn run(input: &[u8]) -> (Result<(), String>, Vec<Frame>) {
        let mut reader = input;
        let mut output = Vec::new();
        let result = run_worker(&mut reader, &mut output);
        let mut replies = Vec::new();
        let mut cursor = output.as_slice();
        while let Some(frame) = read_frame(&mut cursor).expect("well-formed replies") {
            replies.push(frame);
        }
        (result, replies)
    }

    #[test]
    fn full_conversation_yields_the_correct_shard() {
        let spec = SketchSpec::f0("knw-f0", 0.1, 1 << 16, 5);
        let wire = script(&[
            hello(spec.clone()),
            Frame::Batch(BatchPayload::Items((0..500).collect())),
            Frame::Snapshot,
            Frame::Batch(BatchPayload::Items((500..900).collect())),
            Frame::Finish,
        ]);
        let (result, replies) = run(&wire);
        result.expect("clean run");
        assert_eq!(
            replies.len(),
            3,
            "one snapshot + the session stats + one final shard"
        );
        // The session counters ride just ahead of the final shard: two
        // batches of 500 + 400 updates, one snapshot served, and four
        // frames total after the handshake.
        assert_eq!(
            replies[1],
            Frame::Stats(WorkerStats {
                frames_received: 4,
                batches_ingested: 2,
                updates_ingested: 900,
                snapshots_served: 1,
            })
        );
        // The final shard must decode to the sketch a local run produces.
        let Frame::Shard(bytes) = &replies[2] else {
            panic!("expected Shard, got {}", replies[2].kind());
        };
        let wired = u64::shard_from_bytes(&spec, bytes).expect("decodes");
        let mut local = build_f0(&spec).expect("builds");
        local.insert_batch(&(0..900).collect::<Vec<_>>());
        assert_eq!(wired.estimate(), local.estimate());
    }

    #[test]
    fn mode_mismatch_is_reported_as_an_err_frame() {
        let wire = script(&[
            hello(SketchSpec::f0("knw-f0", 0.1, 1 << 16, 5)),
            Frame::Batch(BatchPayload::Updates(vec![(1, 1)])),
        ]);
        let (result, replies) = run(&wire);
        assert!(result.is_err());
        assert!(matches!(replies.as_slice(), [Frame::Err(m)] if m.contains("mismatch")));
    }

    #[test]
    fn unknown_estimator_is_reported_as_an_err_frame() {
        let wire = script(&[hello(SketchSpec::f0("bogus", 0.1, 1 << 16, 5))]);
        let (result, replies) = run(&wire);
        assert!(result.is_err());
        assert!(matches!(replies.as_slice(), [Frame::Err(m)] if m.contains("bogus")));
    }

    #[test]
    fn missing_hello_is_a_protocol_violation() {
        let wire = script(&[Frame::Snapshot]);
        let (result, replies) = run(&wire);
        assert!(result.is_err());
        assert!(matches!(replies.as_slice(), [Frame::Err(m)] if m.contains("expected Hello")));
    }

    #[test]
    fn clean_eof_before_finish_is_a_quiet_shutdown() {
        let wire = script(&[
            hello(SketchSpec::l0("knw-l0", 0.2, 1 << 12, 9)),
            Frame::Batch(BatchPayload::Updates(vec![(1, 1), (2, 3)])),
        ]);
        let (result, replies) = run(&wire);
        result.expect("quiet shutdown");
        assert!(replies.is_empty());
    }

    #[test]
    fn serve_loop_survives_transient_accept_failures() {
        use std::net::TcpListener;
        // One injected ECONNABORTED (a backlog client that vanished), then
        // real accepts: the loop must log-and-retry, and the later, real
        // session must still complete.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
            let wire = script(&[
                hello(SketchSpec::f0("exact", 0.1, 1 << 12, 3)),
                Frame::Batch(BatchPayload::Items(vec![1, 2, 3])),
                Frame::Finish,
            ]);
            writer.write_all(&wire).expect("write session");
            writer.flush().expect("flush");
            let mut reader = std::io::BufReader::new(stream);
            let stats = read_frame(&mut reader).expect("reply").expect("the stats");
            assert!(matches!(stats, Frame::Stats(_)), "got {}", stats.kind());
            read_frame(&mut reader).expect("reply").expect("one Shard")
        });
        let mut injected = false;
        let options = ServeOptions::default().with_max_sessions(1);
        serve_accepting(
            || {
                if !injected {
                    injected = true;
                    return Err(std::io::Error::from(std::io::ErrorKind::ConnectionAborted));
                }
                listener.accept()
            },
            &options,
        )
        .expect("the loop must survive a transient accept failure");
        let reply = client.join().expect("client thread");
        assert!(matches!(reply, Frame::Shard(_)), "got {}", reply.kind());
    }

    #[test]
    fn persistent_accept_failures_end_the_loop_with_the_error() {
        let mut attempts = 0usize;
        let result = serve_accepting(
            || {
                attempts += 1;
                Err(std::io::Error::other("listener broke"))
            },
            &ServeOptions::default(),
        );
        assert!(result.is_err());
        // ACCEPT_RETRIES consecutive retries, then the final failure.
        assert_eq!(attempts, crate::accept::ACCEPT_RETRIES + 1);
    }

    #[test]
    fn corrupt_frame_midstream_is_reported_not_panicked() {
        let mut wire = script(&[hello(SketchSpec::f0("exact", 0.1, 1 << 16, 5))]);
        wire.extend_from_slice(&[3, 0, 0, 0, 0xFF, 0xFF, 0xFF]); // garbage frame
        let (result, replies) = run(&wire);
        assert!(result.is_err());
        assert!(matches!(replies.as_slice(), [Frame::Err(m)] if m.contains("bad frame")));
    }
}
