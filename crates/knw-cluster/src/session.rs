//! The multi-session serve loop: one nonblocking event loop
//! ([`Poller`]) multiplexing hundreds-to-thousands of
//! concurrent client sessions over one shared
//! [`ClusterAggregator`] — the
//! estimation-as-a-service shape, with **no thread per session**.
//!
//! Each accepted connection is a small state machine
//! (`Greeting → Streaming → Snapshotting → Finished / Errored`) owning a
//! resumable [`FrameDecoder`] for its inbound bytes
//! and a bounded write queue for its outbound replies.  Clients speak the
//! ordinary worker frame protocol: `Hello{spec}` (which must match the
//! serving aggregator's spec), then `Batch` frames that are routed into
//! the shared worker fleet, with `Snapshot` answered by a point-in-time
//! merged `Shard` and `Finish` answered the same way before the session
//! closes.  Because every sketch in the workspace merges exactly and is
//! order/partition independent, arbitrary interleavings of sessions leave
//! the aggregate bit-identical to a single-process run over the union of
//! their streams.
//!
//! Backpressure is per session: a session whose replies are not draining
//! (write queue above its byte bound) stops being *read* until the queue
//! drains below half the bound — a slow reader throttles itself, never
//! the loop or its neighbours.  Fault taxonomy mirrors the wire layer's:
//! a session idle past the deadline *between* frames is a plain timeout,
//! while one that stalls *mid-frame* is desynchronized and is told so in
//! its `Err` frame (see
//! [`WireError::TimedOutMidFrame`](crate::WireError::TimedOutMidFrame)).
//! A fleet-side failure poisons the aggregator exactly as in the blocking
//! path: waiting sessions get a best-effort `Err` frame and
//! [`serve_sessions`] returns the typed error.

use crate::aggregator::{ClusterAggregator, ClusterUpdate};
use crate::error::ClusterError;
use crate::expo::{request_complete, scrape_response, MAX_REQUEST_BYTES};
use crate::frame::{encode_frame, Frame, FrameDecoder, FrameView, HelloConfig, SketchSpec};
use crate::poll::{Interest, Poller};
use knw_metrics::{knw_log, Counter, Gauge, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The listener's token; session tokens start above it.
const LISTENER_TOKEN: u64 = 0;

/// The metrics listener's token; scrape-connection tokens count *down*
/// from just below it, so they can never collide with session tokens
/// (which count up from `LISTENER_TOKEN + 1`).
const METRICS_LISTENER_TOKEN: u64 = u64::MAX;

/// Fallback poll tick: the upper bound on how long the loop sleeps when no
/// readiness arrives *and no deadline is pending*.  When sessions or scrape
/// connections carry deadlines, the wait is clamped to the nearest one
/// ([`ServeLoop::next_wakeup`]), so this bound only governs bookkeeping
/// latency on a fully idle loop — it can be long without delaying reaping.
const TICK: Duration = Duration::from_secs(2);

/// Consecutive accept failures tolerated before the loop gives up —
/// mirrors the sequential serve loop's bounded accept retries.
const MAX_ACCEPT_FAILURES: usize = 64;

/// How long a scrape connection may take end to end before it is reaped;
/// a stalled scraper must not hold descriptors on a serving loop.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(10);

/// Knobs of [`serve_sessions`].
#[derive(Debug, Clone)]
pub struct SessionServeOptions {
    /// Stop after this many sessions completed (`None`: serve forever —
    /// the loop then only returns on a fleet fault).
    pub max_sessions: Option<usize>,
    /// Concurrent-session ceiling; connections beyond it are refused
    /// (accepted and immediately closed) instead of admitted.
    pub max_concurrent: usize,
    /// Per-session write-queue bound in bytes: a session whose queue
    /// exceeds it stops being read until the queue drains below half.
    pub max_write_queue: usize,
    /// Per-session idle deadline (`None`: never time a session out).
    pub idle_timeout: Option<Duration>,
    /// A listener serving live Prometheus-text scrapes of the process-wide
    /// metrics registry, multiplexed on the same epoll loop as the
    /// sessions (no scrape thread; a scrape can never block a session,
    /// and vice versa).  `None` disables the endpoint.
    pub metrics_listener: Option<Arc<TcpListener>>,
    /// Runtime elastic-rescale commands: every fleet size received here is
    /// applied as [`ClusterAggregator::scale_to`] between loop ticks —
    /// never mid-merge, so sessions observe a rescale only as a routing
    /// epoch swap.  Feed it from a stdin reader or signal handler thread
    /// (`knw-aggregate --serve`'s `rescale N` command does).  Wrapped in
    /// `Arc<Mutex<…>>` because an [`mpsc::Receiver`](Receiver) is
    /// single-consumer while the options struct must stay `Clone`.
    pub rescale: Option<Arc<Mutex<Receiver<usize>>>>,
}

impl Default for SessionServeOptions {
    fn default() -> Self {
        Self {
            max_sessions: None,
            max_concurrent: 4096,
            max_write_queue: 1 << 20,
            idle_timeout: Some(Duration::from_secs(30)),
            metrics_listener: None,
            rescale: None,
        }
    }
}

impl SessionServeOptions {
    /// Stops the loop after `count` completed sessions.
    #[must_use]
    pub fn with_max_sessions(mut self, count: usize) -> Self {
        self.max_sessions = Some(count);
        self
    }

    /// Caps concurrently admitted sessions.
    #[must_use]
    pub fn with_max_concurrent(mut self, count: usize) -> Self {
        self.max_concurrent = count.max(1);
        self
    }

    /// Bounds each session's write queue (bytes).
    #[must_use]
    pub fn with_max_write_queue(mut self, bytes: usize) -> Self {
        self.max_write_queue = bytes.max(1);
        self
    }

    /// Sets the per-session idle deadline (`None` disables it).
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Registers `listener` as a live `/metrics` scrape endpoint on the
    /// serve loop (Prometheus text format; see [`crate::expo`]).
    #[must_use]
    pub fn with_metrics_listener(mut self, listener: Arc<TcpListener>) -> Self {
        self.metrics_listener = Some(listener);
        self
    }

    /// Attaches a runtime rescale command channel (see
    /// [`rescale`](Self::rescale)).
    #[must_use]
    pub fn with_rescale_channel(mut self, receiver: Receiver<usize>) -> Self {
        self.rescale = Some(Arc::new(Mutex::new(receiver)));
        self
    }
}

/// What a [`serve_sessions`] run did — the soak tests' bounded-memory
/// evidence (peak concurrency and peak queue bytes are measured, not
/// assumed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions that completed without error (including fire-and-forget
    /// clients that left cleanly between frames).
    pub sessions_served: usize,
    /// Sessions that errored (protocol violation, mid-frame abort, idle
    /// timeout, codec rejection).
    pub sessions_errored: usize,
    /// Connections refused over [`SessionServeOptions::max_concurrent`].
    pub sessions_refused: usize,
    /// Most sessions simultaneously admitted.
    pub peak_concurrent: usize,
    /// Largest write queue any session ever held, in bytes.
    pub peak_write_queue_bytes: usize,
    /// `Shard` replies produced for `Snapshot` / `Finish` requests.
    pub snapshots_served: u64,
    /// Batch frames routed into the shared aggregator.
    pub batches_ingested: u64,
    /// Stream updates routed into the shared aggregator.
    pub updates_ingested: u64,
}

/// The serve loop's registry mirror: every [`ServeStats`] movement also
/// lands in these pre-registered process-wide handles (`knw_serve_*`), so
/// a live scrape sees the same numbers the run's final `ServeStats`
/// snapshot reports.  `ServeStats` itself stays a plain snapshot view —
/// the registry is the live surface, the struct the API-stable one.
struct ServeMetrics {
    sessions_served: Arc<Counter>,
    sessions_errored: Arc<Counter>,
    sessions_refused: Arc<Counter>,
    /// Currently admitted sessions.
    active_sessions: Arc<Gauge>,
    /// High-water admitted sessions (monotone via `set_max`).
    peak_concurrent: Arc<Gauge>,
    /// Total bytes currently queued across all write queues.
    write_queue_bytes: Arc<Gauge>,
    /// High-water single-session write queue (monotone via `set_max`).
    write_queue_peak_bytes: Arc<Gauge>,
    snapshots_served: Arc<Counter>,
    batches_ingested: Arc<Counter>,
    updates_ingested: Arc<Counter>,
    /// Completed `/metrics` scrapes answered by this loop.
    scrapes: Arc<Counter>,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            sessions_served: registry.counter("knw_serve_sessions_served_total", &[]),
            sessions_errored: registry.counter("knw_serve_sessions_errored_total", &[]),
            sessions_refused: registry.counter("knw_serve_sessions_refused_total", &[]),
            active_sessions: registry.gauge("knw_serve_active_sessions", &[]),
            peak_concurrent: registry.gauge("knw_serve_peak_concurrent_sessions", &[]),
            write_queue_bytes: registry.gauge("knw_serve_write_queue_bytes", &[]),
            write_queue_peak_bytes: registry.gauge("knw_serve_write_queue_peak_bytes", &[]),
            snapshots_served: registry.counter("knw_serve_snapshots_served_total", &[]),
            batches_ingested: registry.counter("knw_serve_batches_ingested_total", &[]),
            updates_ingested: registry.counter("knw_serve_updates_ingested_total", &[]),
            scrapes: registry.counter("knw_serve_scrapes_total", &[]),
        }
    }
}

/// One in-flight `/metrics` scrape on the serve loop: buffer the request
/// until its header terminator, render the registry once, drain the
/// response, close.  Never blocks — both phases run only on readiness.
struct ScrapeConn {
    stream: TcpStream,
    request: Vec<u8>,
    response: Vec<u8>,
    /// Bytes of `response` already written.
    head: usize,
    opened: Instant,
}

impl ScrapeConn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            request: Vec::new(),
            response: Vec::new(),
            head: 0,
            opened: Instant::now(),
        }
    }

    /// Advances the scrape as far as the socket allows.  Returns `true`
    /// when the connection is finished (answered or failed) and should be
    /// reaped; `Some(true)` in `answered` distinguishes a completed scrape
    /// from an aborted one.
    fn drive(&mut self, answered: &mut bool) -> bool {
        if self.response.is_empty() {
            let mut chunk = [0u8; 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    // EOF before a complete request: nothing to answer.
                    Ok(0) => return true,
                    Ok(n) => {
                        self.request.extend_from_slice(&chunk[..n]);
                        if request_complete(&self.request) {
                            break;
                        }
                        if self.request.len() > MAX_REQUEST_BYTES {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return true,
                }
            }
            if !request_complete(&self.request) {
                return false;
            }
            self.response = scrape_response(knw_metrics::global());
        }
        while self.head < self.response.len() {
            match self.stream.write(&self.response[self.head..]) {
                Ok(0) => return true,
                Ok(n) => self.head += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
        *answered = true;
        true
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Waiting for the `Hello{spec}` handshake.
    Greeting,
    /// Ingesting `Batch` frames.
    Streaming,
    /// A `Snapshot` or `Finish` is pending the shared point-in-time
    /// merge; the session's inbound frames are not processed until the
    /// reply is queued.  `finish` closes the session after the reply.
    Snapshotting { finish: bool },
    /// Done; closes once the write queue drains.
    Finished,
    /// Failed; the queued `Err` frame (if any) drains, then closes.
    Errored,
}

/// One admitted connection.
struct Session {
    stream: TcpStream,
    decoder: FrameDecoder,
    state: SessionState,
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the queue's front chunk already written.
    write_head: usize,
    queued_bytes: usize,
    /// Reading suspended by backpressure.
    paused: bool,
    /// The peer closed its write half (EOF observed).
    read_closed: bool,
    /// Close immediately, ignoring the queue (write side is dead too).
    defunct: bool,
    last_activity: Instant,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Session {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            state: SessionState::Greeting,
            write_queue: VecDeque::new(),
            write_head: 0,
            queued_bytes: 0,
            paused: false,
            read_closed: false,
            defunct: false,
            last_activity: Instant::now(),
            registered: Interest::READABLE,
        }
    }

    fn terminal(&self) -> bool {
        matches!(self.state, SessionState::Finished | SessionState::Errored)
    }

    fn enqueue(&mut self, bytes: Vec<u8>, peak: &mut usize) {
        self.queued_bytes += bytes.len();
        *peak = (*peak).max(self.queued_bytes);
        self.write_queue.push_back(bytes);
    }

    /// Queues an `Err` frame and moves the session to `Errored`.
    fn fail(&mut self, message: &str, peak: &mut usize) {
        if !self.defunct {
            if let Ok(reply) = encode_frame(&Frame::Err(message.to_string())) {
                self.enqueue(reply, peak);
            }
        }
        self.state = SessionState::Errored;
    }

    /// Drains the write queue as far as the socket allows.  Returns
    /// `false` if the socket failed (the session is defunct).
    fn flush_writes(&mut self) -> bool {
        while let Some(front) = self.write_queue.front() {
            match self.stream.write(&front[self.write_head..]) {
                Ok(0) => {
                    self.defunct = true;
                    return false;
                }
                Ok(n) => {
                    self.write_head += n;
                    self.queued_bytes -= n;
                    self.last_activity = Instant::now();
                    if self.write_head == front.len() {
                        self.write_queue.pop_front();
                        self.write_head = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.defunct = true;
                    return false;
                }
            }
        }
        true
    }

    /// The interest this session should be registered for right now.
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.read_closed && !self.paused && !self.terminal(),
            writable: !self.write_queue.is_empty(),
        }
    }

    /// Whether the session can be closed and reaped.
    fn closeable(&self) -> bool {
        if self.defunct {
            return true;
        }
        let drained = self.write_queue.is_empty();
        match self.state {
            SessionState::Finished | SessionState::Errored => drained,
            // A peer that closed its write half mid-conversation with
            // nothing left to decode or reply is gone.
            _ => self.read_closed && drained && !self.awaiting_snapshot(),
        }
    }

    fn awaiting_snapshot(&self) -> bool {
        matches!(self.state, SessionState::Snapshotting { .. })
    }
}

/// Serves concurrent client sessions on `listener`, routing every
/// session's batches into the shared `aggregator` — see the module docs
/// for the protocol, state machine and backpressure rules.
///
/// Returns the run's [`ServeStats`] once
/// [`max_sessions`](SessionServeOptions::max_sessions) sessions completed
/// and none remain active.  The aggregator stays usable afterwards (e.g.
/// for a final `finish()` report over everything the sessions streamed).
///
/// # Errors
///
/// A fleet-side failure during a snapshot merge (worker death the
/// recovery policy could not repair, merge incompatibility, …) poisons
/// the aggregator and is returned typed, exactly as in the blocking
/// path; waiting sessions are sent a best-effort `Err` frame first.
/// Listener-level failures surface as [`ClusterError::Io`].
pub fn serve_sessions<U: ClusterUpdate>(
    listener: &TcpListener,
    aggregator: &mut ClusterAggregator<U>,
    options: &SessionServeOptions,
) -> Result<ServeStats, ClusterError> {
    ServeLoop {
        listener,
        aggregator,
        options,
        poller: Poller::new().map_err(io_error)?,
        sessions: HashMap::new(),
        scrapes: HashMap::new(),
        next_token: LISTENER_TOKEN + 1,
        next_scrape_token: METRICS_LISTENER_TOKEN - 1,
        completed: 0,
        accept_failures: 0,
        waiters: Vec::new(),
        stats: ServeStats::default(),
        metrics: ServeMetrics::register(knw_metrics::global()),
        read_buf: vec![0u8; 64 << 10],
    }
    .run()
}

fn io_error(source: std::io::Error) -> ClusterError {
    ClusterError::Io {
        worker: None,
        source,
    }
}

struct ServeLoop<'a, U: ClusterUpdate> {
    listener: &'a TcpListener,
    aggregator: &'a mut ClusterAggregator<U>,
    options: &'a SessionServeOptions,
    poller: Poller,
    sessions: HashMap<u64, Session>,
    /// In-flight `/metrics` scrapes (tokens descend from
    /// `METRICS_LISTENER_TOKEN - 1`).
    scrapes: HashMap<u64, ScrapeConn>,
    next_token: u64,
    next_scrape_token: u64,
    completed: usize,
    accept_failures: usize,
    /// Sessions whose `Snapshot` / `Finish` awaits this tick's merge.
    waiters: Vec<u64>,
    stats: ServeStats,
    metrics: ServeMetrics,
    read_buf: Vec<u8>,
}

impl<U: ClusterUpdate> ServeLoop<'_, U> {
    fn run(mut self) -> Result<ServeStats, ClusterError> {
        self.listener.set_nonblocking(true).map_err(io_error)?;
        self.poller
            .register(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE,
            )
            .map_err(io_error)?;
        if let Some(metrics_listener) = &self.options.metrics_listener {
            metrics_listener.set_nonblocking(true).map_err(io_error)?;
            self.poller
                .register(
                    metrics_listener.as_raw_fd(),
                    METRICS_LISTENER_TOKEN,
                    Interest::READABLE,
                )
                .map_err(io_error)?;
        }
        let mut events = Vec::new();
        loop {
            // Sleep until readiness, the nearest session/scrape deadline,
            // or the fallback tick — whichever comes first.  Without the
            // deadline clamp, an idle session on an otherwise-quiet server
            // would outlive its `idle_timeout` by up to a whole tick
            // (deadlines are only *checked* in `maintain`, which only runs
            // when the wait returns).
            let timeout = self.next_wakeup().map_or(TICK, |until| until.min(TICK));
            self.poller
                .wait(&mut events, Some(timeout))
                .map_err(io_error)?;
            for event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready()?;
                    continue;
                }
                if event.token == METRICS_LISTENER_TOKEN {
                    self.accept_scrapes();
                    continue;
                }
                if self.scrapes.contains_key(&event.token) {
                    self.drive_scrape(event.token);
                    continue;
                }
                let Some(session) = self.sessions.get_mut(&event.token) else {
                    continue;
                };
                if event.writable() {
                    session.flush_writes();
                }
                if event.readable() {
                    Self::read_ready(
                        session,
                        event.token,
                        self.aggregator,
                        &mut self.read_buf,
                        &mut self.stats,
                        &mut self.waiters,
                        &self.metrics,
                    );
                }
            }
            // Coalesce this tick's Snapshot/Finish requests into one
            // point-in-time merge; draining a waiter's remaining buffered
            // frames may queue the next request, hence the loop.
            while !self.waiters.is_empty() {
                self.resolve_snapshots()?;
            }
            self.maintain()?;
            self.apply_rescales()?;
            if self
                .options
                .max_sessions
                .is_some_and(|n| self.completed >= n)
                && self.sessions.is_empty()
            {
                return Ok(self.stats);
            }
        }
    }

    /// Drains the rescale command channel and applies each requested fleet
    /// size via [`ClusterAggregator::scale_to`] — between ticks, after this
    /// tick's snapshot merges, so a rescale never interleaves with a merge.
    /// Refusals that leave the fleet intact (unsupported, pool exhausted,
    /// journal overflow — all raised before any session is severed) are
    /// logged and serving continues; a mid-reshard fault poisons the
    /// aggregator and aborts the loop typed, like any other fleet fault.
    fn apply_rescales(&mut self) -> Result<(), ClusterError> {
        let Some(channel) = &self.options.rescale else {
            return Ok(());
        };
        let mut requests = Vec::new();
        if let Ok(receiver) = channel.lock() {
            while let Ok(target) = receiver.try_recv() {
                requests.push(target);
            }
        }
        for target in requests {
            match self.aggregator.scale_to(target) {
                Ok(()) => {}
                Err(
                    error @ (ClusterError::RescaleUnsupported { .. }
                    | ClusterError::PoolExhausted { .. }
                    | ClusterError::JournalOverflow { .. }),
                ) => {
                    knw_log!(
                        WARN,
                        "knw-serve",
                        "rescale refused; fleet unchanged",
                        target = target,
                        error = error,
                    );
                }
                Err(error) => return Err(error),
            }
        }
        Ok(())
    }

    /// Accepts every pending connection (level-triggered: stop at
    /// `WouldBlock`).
    fn accept_ready(&mut self) -> Result<(), ClusterError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_failures = 0;
                    if self.sessions.len() >= self.options.max_concurrent {
                        self.stats.sessions_refused += 1;
                        self.metrics.sessions_refused.inc();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.sessions_refused += 1;
                        self.metrics.sessions_refused.inc();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        self.stats.sessions_refused += 1;
                        self.metrics.sessions_refused.inc();
                        continue;
                    }
                    self.sessions.insert(token, Session::new(stream));
                    self.stats.peak_concurrent =
                        self.stats.peak_concurrent.max(self.sessions.len());
                    self.metrics.active_sessions.set(self.sessions.len() as u64);
                    self.metrics
                        .peak_concurrent
                        .set_max(self.sessions.len() as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (ECONNABORTED, EMFILE
                    // bursts) are tolerated with the same bounded patience
                    // as the sequential serve loop.
                    self.accept_failures += 1;
                    if self.accept_failures >= MAX_ACCEPT_FAILURES {
                        return Err(io_error(e));
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts every pending scrape connection on the metrics listener.
    /// A scrape endpoint is never load-bearing: any failure here just
    /// skips a scrape, it cannot end the serve loop.
    fn accept_scrapes(&mut self) {
        let Some(listener) = self.options.metrics_listener.clone() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_scrape_token;
                    self.next_scrape_token -= 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.scrapes.insert(token, ScrapeConn::new(stream));
                    // A complete request may already be buffered in the
                    // kernel; drive it now rather than waiting a tick.
                    self.drive_scrape(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Advances one scrape connection and reaps it when finished.
    fn drive_scrape(&mut self, token: u64) {
        let Some(conn) = self.scrapes.get_mut(&token) else {
            return;
        };
        let mut answered = false;
        if conn.drive(&mut answered) {
            let conn = self.scrapes.remove(&token).expect("scrape exists");
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if answered {
                self.metrics.scrapes.inc();
            }
        } else if !conn.response.is_empty() {
            // Mid-response with a full socket buffer: wait for writability.
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, Interest::WRITABLE);
        }
    }

    /// Reads whatever arrived on a session and processes its complete
    /// frames (stopping at a `Snapshot`/`Finish`, which parks the session
    /// until the tick's shared merge).
    #[allow(clippy::too_many_arguments)]
    fn read_ready(
        session: &mut Session,
        token: u64,
        aggregator: &mut ClusterAggregator<U>,
        read_buf: &mut [u8],
        stats: &mut ServeStats,
        waiters: &mut Vec<u64>,
        metrics: &ServeMetrics,
    ) {
        loop {
            if session.paused || session.terminal() || session.read_closed {
                break;
            }
            match session.stream.read(read_buf) {
                Ok(0) => {
                    session.read_closed = true;
                    break;
                }
                Ok(n) => {
                    session.last_activity = Instant::now();
                    session.decoder.push(&read_buf[..n]);
                    Self::drain_frames(session, token, aggregator, stats, waiters, metrics);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    session.defunct = true;
                    session.state = SessionState::Errored;
                    break;
                }
            }
        }
        if session.read_closed && session.decoder.mid_frame() && !session.terminal() {
            // The peer died inside a frame: the session is desynced, not
            // merely closed.
            session.state = SessionState::Errored;
        }
    }

    /// Processes complete frames buffered in the session's decoder,
    /// according to its state.
    fn drain_frames(
        session: &mut Session,
        token: u64,
        aggregator: &mut ClusterAggregator<U>,
        stats: &mut ServeStats,
        waiters: &mut Vec<u64>,
        metrics: &ServeMetrics,
    ) {
        while matches!(
            session.state,
            SessionState::Greeting | SessionState::Streaming
        ) {
            let view = match session.decoder.next_view() {
                Ok(Some(view)) => view,
                Ok(None) => break,
                Err(e) => {
                    let message = e.to_string();
                    session.fail(&message, &mut stats.peak_write_queue_bytes);
                    break;
                }
            };
            if session.state == SessionState::Greeting {
                match view {
                    FrameView::Owned(Frame::Hello(hello)) => {
                        if &hello.spec == aggregator.spec() {
                            session.state = SessionState::Streaming;
                        } else {
                            session.fail(
                                "session spec does not match the serving aggregator's spec",
                                &mut stats.peak_write_queue_bytes,
                            );
                        }
                    }
                    other => {
                        let message = format!(
                            "protocol violation: expected Hello, got {}",
                            view_kind(&other)
                        );
                        session.fail(&message, &mut stats.peak_write_queue_bytes);
                    }
                }
                continue;
            }
            if let Some(batch) = U::batch_view(&view) {
                aggregator.ingest_batch(batch);
                stats.batches_ingested += 1;
                stats.updates_ingested += batch.len() as u64;
                metrics.batches_ingested.inc();
                metrics.updates_ingested.add(batch.len() as u64);
                continue;
            }
            match view {
                FrameView::Owned(Frame::Snapshot) => {
                    session.state = SessionState::Snapshotting { finish: false };
                    waiters.push(token);
                }
                FrameView::Owned(Frame::Finish) => {
                    session.state = SessionState::Snapshotting { finish: true };
                    waiters.push(token);
                }
                other => {
                    let message = format!(
                        "protocol violation: expected Batch/Snapshot/Finish, got {}",
                        view_kind(&other)
                    );
                    session.fail(&message, &mut stats.peak_write_queue_bytes);
                }
            }
        }
    }

    /// Produces ONE point-in-time merged shard for every session whose
    /// `Snapshot`/`Finish` is pending, queues the replies, and resumes
    /// (or finishes) the waiters.  A fleet failure poisons the aggregator
    /// and aborts the serve loop with the typed error, after a
    /// best-effort `Err` frame to the waiters.
    fn resolve_snapshots(&mut self) -> Result<(), ClusterError> {
        let waiters = std::mem::take(&mut self.waiters);
        let reply = match self.aggregator.snapshot() {
            Ok(merged) => encode_frame(&Frame::Shard(U::shard_bytes(merged.as_ref())))
                .map_err(|e| io_error(std::io::Error::new(ErrorKind::InvalidData, e.to_string()))),
            Err(error) => {
                let message = error.to_string();
                for token in &waiters {
                    if let Some(session) = self.sessions.get_mut(token) {
                        session.fail(&message, &mut self.stats.peak_write_queue_bytes);
                        session.flush_writes();
                    }
                }
                return Err(error);
            }
        }?;
        for token in waiters {
            let Some(session) = self.sessions.get_mut(&token) else {
                continue;
            };
            let SessionState::Snapshotting { finish } = session.state else {
                continue;
            };
            session.enqueue(reply.clone(), &mut self.stats.peak_write_queue_bytes);
            self.stats.snapshots_served += 1;
            self.metrics.snapshots_served.inc();
            session.flush_writes();
            session.state = if finish {
                SessionState::Finished
            } else {
                SessionState::Streaming
            };
            if !finish {
                // Frames that arrived behind the request are buffered in
                // the decoder; process them now (possibly queueing the
                // session's next snapshot).
                Self::drain_frames(
                    session,
                    token,
                    self.aggregator,
                    &mut self.stats,
                    &mut self.waiters,
                    &self.metrics,
                );
            }
        }
        Ok(())
    }

    /// Time until the nearest pending deadline — a session's idle cutoff
    /// (`last_activity + idle_timeout`) or a scrape connection's
    /// end-to-end deadline (`opened + SCRAPE_DEADLINE`) — or `None` when
    /// nothing carries a deadline.
    ///
    /// One extra millisecond is added past the deadline: the epoll timeout
    /// truncates to milliseconds and `maintain` reaps on *strictly
    /// exceeding* the deadline, so waking exactly on it would find nothing
    /// to reap and go around again.
    fn next_wakeup(&self) -> Option<Duration> {
        let idle_deadlines = self.options.idle_timeout.into_iter().flat_map(|idle| {
            self.sessions
                .values()
                .map(move |session| session.last_activity + idle)
        });
        let scrape_deadlines = self
            .scrapes
            .values()
            .map(|conn| conn.opened + SCRAPE_DEADLINE);
        let nearest = idle_deadlines.chain(scrape_deadlines).min()?;
        Some(nearest.saturating_duration_since(Instant::now()) + Duration::from_millis(1))
    }

    /// Per-tick housekeeping: backpressure transitions, idle deadlines,
    /// interest reconciliation, and reaping of closeable sessions.
    fn maintain(&mut self) -> Result<(), ClusterError> {
        let now = Instant::now();
        // Reap scrape connections that blew their deadline — a stalled
        // scraper must not hold descriptors forever on a serving loop.
        let expired: Vec<u64> = self
            .scrapes
            .iter()
            .filter(|(_, conn)| now.duration_since(conn.opened) > SCRAPE_DEADLINE)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let conn = self.scrapes.remove(&token).expect("expired scrape exists");
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        let mut queued_total = 0u64;
        let mut reap = Vec::new();
        for (&token, session) in &mut self.sessions {
            queued_total += session.queued_bytes as u64;
            // Backpressure: pause reading over the bound, resume below
            // half of it.
            if session.queued_bytes > self.options.max_write_queue {
                session.paused = true;
            } else if session.paused && session.queued_bytes <= self.options.max_write_queue / 2 {
                session.paused = false;
            }
            if let Some(idle) = self.options.idle_timeout {
                if now.duration_since(session.last_activity) > idle {
                    if session.terminal() {
                        // Already failing/finished and still not drained:
                        // the peer stopped reading; give up on it.
                        session.defunct = true;
                    } else if session.decoder.mid_frame() {
                        session.fail(
                            "read timed out mid-frame; the stream is desynchronized",
                            &mut self.stats.peak_write_queue_bytes,
                        );
                    } else {
                        session.fail(
                            "session idle timeout",
                            &mut self.stats.peak_write_queue_bytes,
                        );
                    }
                    session.flush_writes();
                }
            }
            if session.closeable() {
                reap.push(token);
                continue;
            }
            let desired = session.desired_interest();
            if desired != session.registered
                && self
                    .poller
                    .modify(session.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                session.registered = desired;
            }
        }
        for token in reap {
            let session = self.sessions.remove(&token).expect("reaped session exists");
            let _ = self.poller.deregister(session.stream.as_raw_fd());
            if session.state == SessionState::Errored {
                self.stats.sessions_errored += 1;
                self.metrics.sessions_errored.inc();
            } else {
                self.stats.sessions_served += 1;
                self.metrics.sessions_served.inc();
            }
            self.completed += 1;
        }
        self.metrics.active_sessions.set(self.sessions.len() as u64);
        self.metrics.write_queue_bytes.set(queued_total);
        self.metrics
            .write_queue_peak_bytes
            .set_max(self.stats.peak_write_queue_bytes as u64);
        Ok(())
    }
}

/// A short name for protocol-violation diagnostics on a decoded view.
fn view_kind(view: &FrameView<'_>) -> &'static str {
    match view {
        FrameView::Items(_) | FrameView::Updates(_) => "Batch",
        FrameView::Owned(frame) => frame.kind(),
    }
}

/// What [`drive_sessions`] observed — the client half of the soak
/// harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Sessions that completed their conversation.
    pub sessions: usize,
    /// `Shard` replies received and length-validated across all sessions.
    pub shard_replies: usize,
    /// Total bytes written to the server.
    pub bytes_sent: u64,
    /// Frames encoded and queued toward the server across all sessions
    /// (`Hello`, `Batch`, `Snapshot`, `Finish`).
    pub frames_sent: u64,
    /// Largest encoded chunk any session ever held pending on its socket,
    /// in bytes — the drain-side mirror of the server's
    /// [`ServeStats::peak_write_queue_bytes`].
    pub peak_queued_bytes: usize,
}

/// Client state for one in-flight driven session.
struct ClientSession<'a, U> {
    stream: TcpStream,
    updates: &'a [U],
    cursor: usize,
    /// The encoded chunk currently being written.
    out: Vec<u8>,
    out_head: usize,
    batches_since_snapshot: usize,
    sent_finish: bool,
    expected_shards: usize,
    decoder: FrameDecoder,
    shards_received: usize,
    done: bool,
    registered: Interest,
}

/// Drives `streams.len()` **concurrent** client sessions against a
/// [`serve_sessions`] endpoint at `addr` from a single thread (its own
/// nonblocking event loop — no thread per session on either side).  Each
/// session sends `Hello{spec}`, its stream as `Batch` frames of `batch`
/// updates (with a `Snapshot` request every `snapshot_every` batches, if
/// set), then `Finish`, and waits for every expected `Shard` reply.
///
/// # Errors
///
/// [`ClusterError::WorkerReported`] (session index as the "worker") if
/// the server answers any session with an `Err` frame,
/// [`ClusterError::Timeout`] if the drive exceeds `deadline`, and
/// [`ClusterError::Io`] / [`ClusterError::Frame`] on transport or codec
/// failures.
pub fn drive_sessions<U: ClusterUpdate>(
    addr: &str,
    spec: &SketchSpec,
    streams: &[Vec<U>],
    batch: usize,
    snapshot_every: Option<usize>,
    deadline: Duration,
) -> Result<DriveStats, ClusterError> {
    let batch = batch.max(1);
    let started = Instant::now();
    let mut stats = DriveStats::default();
    let mut poller = Poller::new().map_err(io_error)?;
    let mut clients: HashMap<u64, ClientSession<'_, U>> = HashMap::new();
    for (index, updates) in streams.iter().enumerate() {
        let stream = TcpStream::connect(addr).map_err(|e| ClusterError::ConnectFailed {
            worker: index,
            addr: addr.to_string(),
            source: e,
        })?;
        stream.set_nonblocking(true).map_err(io_error)?;
        let _ = stream.set_nodelay(true);
        let hello = encode_frame(&Frame::Hello(HelloConfig {
            worker_index: index as u64,
            spec: spec.clone(),
        }))
        .map_err(|e| io_error(std::io::Error::new(ErrorKind::InvalidData, e.to_string())))?;
        stats.frames_sent += 1;
        stats.peak_queued_bytes = stats.peak_queued_bytes.max(hello.len());
        let token = index as u64;
        poller
            .register(stream.as_raw_fd(), token, Interest::BOTH)
            .map_err(io_error)?;
        clients.insert(
            token,
            ClientSession {
                stream,
                updates,
                cursor: 0,
                out: hello,
                out_head: 0,
                batches_since_snapshot: 0,
                sent_finish: false,
                expected_shards: 1,
                decoder: FrameDecoder::new(),
                shards_received: 0,
                done: false,
                registered: Interest::BOTH,
            },
        );
    }

    let mut events = Vec::new();
    let mut read_buf = vec![0u8; 64 << 10];
    while !clients.is_empty() {
        if started.elapsed() > deadline {
            let &worker = clients.keys().next().expect("nonempty");
            return Err(ClusterError::Timeout {
                worker: worker as usize,
            });
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .map_err(io_error)?;
        for event in &events {
            let Some(client) = clients.get_mut(&event.token) else {
                continue;
            };
            if event.writable() {
                client_write(client, batch, snapshot_every, &mut stats)?;
            }
            if event.readable() {
                client_read(client, event.token as usize, &mut read_buf, &mut stats)?;
            }
        }
        let mut finished = Vec::new();
        for (&token, client) in &mut clients {
            if client.done {
                finished.push(token);
                continue;
            }
            let desired = Interest {
                readable: true,
                writable: client.out_head < client.out.len() || !client.sent_finish,
            };
            if desired != client.registered {
                poller
                    .modify(client.stream.as_raw_fd(), token, desired)
                    .map_err(io_error)?;
                client.registered = desired;
            }
        }
        for token in finished {
            let client = clients.remove(&token).expect("finished client exists");
            let _ = poller.deregister(client.stream.as_raw_fd());
            stats.sessions += 1;
        }
    }
    Ok(stats)
}

/// Writes as much of a client's conversation as the socket accepts,
/// lazily encoding the next frame(s) whenever the current chunk drains.
fn client_write<U: ClusterUpdate>(
    client: &mut ClientSession<'_, U>,
    batch: usize,
    snapshot_every: Option<usize>,
    stats: &mut DriveStats,
) -> Result<(), ClusterError> {
    loop {
        if client.out_head == client.out.len() {
            client.out.clear();
            client.out_head = 0;
            if client.cursor < client.updates.len() {
                let end = (client.cursor + batch).min(client.updates.len());
                let chunk = client.updates[client.cursor..end].to_vec();
                client.cursor = end;
                client.out = encode_frame(&Frame::Batch(U::payload(chunk))).map_err(|e| {
                    io_error(std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
                })?;
                stats.frames_sent += 1;
                client.batches_since_snapshot += 1;
                if snapshot_every.is_some_and(|every| client.batches_since_snapshot >= every) {
                    client.batches_since_snapshot = 0;
                    client.expected_shards += 1;
                    let mut snapshot = encode_frame(&Frame::Snapshot).expect("tiny frame");
                    snapshot.extend_from_slice(&client.out);
                    std::mem::swap(&mut client.out, &mut snapshot);
                    stats.frames_sent += 1;
                }
            } else if !client.sent_finish {
                client.out = encode_frame(&Frame::Finish).expect("tiny frame");
                client.sent_finish = true;
                stats.frames_sent += 1;
            } else {
                return Ok(());
            }
            stats.peak_queued_bytes = stats.peak_queued_bytes.max(client.out.len());
        }
        match client.stream.write(&client.out[client.out_head..]) {
            Ok(0) => {
                return Err(io_error(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "server closed the session mid-conversation",
                )))
            }
            Ok(n) => {
                client.out_head += n;
                stats.bytes_sent += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
}

/// Reads and decodes a client's replies; the session is done once every
/// expected `Shard` arrived after `Finish` was sent.
fn client_read<U: ClusterUpdate>(
    client: &mut ClientSession<'_, U>,
    index: usize,
    read_buf: &mut [u8],
    stats: &mut DriveStats,
) -> Result<(), ClusterError> {
    loop {
        match client.stream.read(read_buf) {
            Ok(0) => {
                if client.sent_finish && client.shards_received >= client.expected_shards {
                    client.done = true;
                    return Ok(());
                }
                return Err(ClusterError::WorkerDied { worker: index });
            }
            Ok(n) => client.decoder.push(&read_buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ClusterError::io(index, e)),
        }
        loop {
            match client.decoder.next_frame() {
                Ok(Some(Frame::Shard(bytes))) => {
                    if bytes.is_empty() {
                        return Err(ClusterError::Frame {
                            worker: index,
                            message: "empty shard reply".to_string(),
                        });
                    }
                    client.shards_received += 1;
                    stats.shard_replies += 1;
                    if client.sent_finish && client.shards_received >= client.expected_shards {
                        client.done = true;
                        return Ok(());
                    }
                }
                Ok(Some(Frame::Err(message))) => {
                    return Err(ClusterError::WorkerReported {
                        worker: index,
                        message,
                    })
                }
                Ok(Some(other)) => {
                    return Err(ClusterError::Protocol {
                        worker: index,
                        expected: "Shard",
                        got: other.kind().to_string(),
                    })
                }
                Ok(None) => break,
                Err(e) => {
                    return Err(ClusterError::Frame {
                        worker: index,
                        message: e.to_string(),
                    })
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders_clamp_and_compose() {
        let options = SessionServeOptions::default()
            .with_max_sessions(5)
            .with_max_concurrent(0)
            .with_max_write_queue(0)
            .with_idle_timeout(None);
        assert_eq!(options.max_sessions, Some(5));
        assert_eq!(options.max_concurrent, 1, "concurrency clamps to one");
        assert_eq!(options.max_write_queue, 1, "queue bound clamps to one");
        assert!(options.idle_timeout.is_none());
    }

    #[test]
    fn session_backpressure_fields_track_the_queue() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut session = Session::new(stream);
        let mut peak = 0;
        session.enqueue(vec![0u8; 100], &mut peak);
        session.enqueue(vec![0u8; 50], &mut peak);
        assert_eq!(session.queued_bytes, 150);
        assert_eq!(peak, 150);
        assert!(session.desired_interest().writable);
        assert!(session.flush_writes(), "loopback accepts the bytes");
        assert_eq!(session.queued_bytes, 0);
        assert!(!session.desired_interest().writable);
        assert!(!session.closeable(), "an active session stays open");
        session.state = SessionState::Finished;
        assert!(session.closeable(), "drained terminal session reaps");
    }
}
