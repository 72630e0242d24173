//! How the aggregator reaches its workers: the transport layer under the
//! frame protocol.
//!
//! The frame codec ([`crate::frame`]) and the worker loop
//! ([`crate::run_worker`]) are transport-agnostic — any `Read`/`Write` pair
//! carries them.  This module names the two transports the aggregator
//! ships with and hides their differences behind two small traits:
//!
//! * [`Transport`] — a factory that opens one link per worker index.
//!   [`PipeTransport`] *spawns* a `knw-worker` child process per worker and
//!   talks over its stdin/stdout pipes (the single-box topology).
//!   [`TcpTransport`] *connects* to already-running workers listening on
//!   TCP addresses (`knw-worker --listen <addr>`), which is what an actual
//!   multi-host run looks like.
//! * [`WorkerConnection`] — one live, framed, bidirectional link.  The
//!   aggregator only ever sends frames, receives frames, half-closes, and
//!   tears down; whether that maps to pipe writes and `waitpid` or socket
//!   writes and `shutdown(2)` is the connection's business.
//!
//! # Failure model
//!
//! Pipes fail like processes: a broken pipe or EOF means the child died.
//! Sockets add two failure shapes of their own, and each gets a typed
//! [`ClusterError`] variant mirroring
//! [`WorkerDied`](ClusterError::WorkerDied):
//!
//! * the peer was never there — [`ClusterError::ConnectFailed`] (refused,
//!   unreachable, or the connect timed out), raised before any frame flows;
//! * the peer is there but wedged — every TCP link carries read/write
//!   timeouts (see [`TcpClusterConfig::io_timeout`]), so a half-open or
//!   stalled worker surfaces as [`ClusterError::Timeout`] within a bounded
//!   interval instead of hanging the aggregation forever.

use crate::error::ClusterError;
use crate::frame::{read_frame, write_frame, Frame, WireError};
use crate::recovery::{RecoveryPolicy, WorkerRegistry};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default TCP connect timeout: long enough for a loaded host to accept,
/// short enough that a dead address fails the run promptly.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default per-link read/write timeout on TCP transports.  Generous —
/// workers may legitimately spend a while serializing a large shard — but
/// bounded: a stalled peer surfaces as [`ClusterError::Timeout`] instead of
/// hanging the aggregation forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One live, framed, bidirectional link to a worker.
///
/// Implementations pair a buffered writer with a buffered reader over the
/// transport's byte stream; [`send`](Self::send) flushes, so a frame is on
/// the wire when the call returns.
pub trait WorkerConnection: Send {
    /// Writes one frame and flushes it to the worker.
    ///
    /// # Errors
    ///
    /// The wire-level failure; the caller attributes it to a worker index.
    fn send(&mut self, frame: &Frame) -> Result<(), WireError>;

    /// Writes one *pre-encoded* frame — length prefix included, exactly as
    /// [`write_frame`] would lay it out — and flushes it.  This is the
    /// aggregator's zero-copy dispatch path: the hot loop encodes each
    /// `Batch` frame once into a reused buffer and hands the bytes straight
    /// to the link, so neither an owning `Frame` nor a fresh payload `Vec`
    /// exists per send.  The default implementation decodes the bytes and
    /// delegates to [`send`](Self::send), so connection doubles that only
    /// observe decoded frames keep working unchanged.
    ///
    /// # Errors
    ///
    /// The wire-level failure; the caller attributes it to a worker index.
    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut reader = bytes;
        match read_frame(&mut reader)? {
            Some(frame) => self.send(&frame),
            None => Ok(()),
        }
    }

    /// Reads the worker's next frame (`Ok(None)` on clean end of stream).
    ///
    /// # Errors
    ///
    /// The wire-level failure; the caller attributes it to a worker index.
    fn recv(&mut self) -> Result<Option<Frame>, WireError>;

    /// Signals end-of-input to the worker: closes the pipe's stdin, or
    /// shuts down the socket's write half.  Idempotent; the read side
    /// stays open so a final `Shard` can still arrive.
    fn close_send(&mut self);

    /// Forcibly severs the link: kills the child process, or shuts the
    /// socket down in both directions.  Used for fault injection and for
    /// tear-down of abandoned aggregations.
    ///
    /// # Errors
    ///
    /// The underlying `kill(2)` / `shutdown(2)` failure, if any.
    fn kill(&mut self) -> std::io::Result<()>;

    /// Confirms the worker wound the session down cleanly after `Finish`:
    /// a pipe worker must exit with status zero; a TCP worker must close
    /// the connection (it keeps serving other sessions).  Returns
    /// `Ok(false)` for an unclean shutdown.
    ///
    /// # Errors
    ///
    /// The transport failure observed while confirming (including a read
    /// timeout on a socket that never closes).
    fn confirm_finished(&mut self) -> std::io::Result<bool>;
}

/// A factory for worker links: opens one [`WorkerConnection`] per worker
/// index.  The aggregator is written against this trait, so the pipe,
/// socket and any future transport share every line of routing, merging
/// and supervision code.
pub trait Transport: Send {
    /// Opens the link to worker `index` (spawns the child, or connects the
    /// socket).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Io`] if a child cannot be spawned,
    /// [`ClusterError::ConnectFailed`] if a socket cannot be connected.
    fn open(&self, index: usize) -> Result<Box<dyn WorkerConnection>, ClusterError>;

    /// Re-opens the link to worker `index` after a fault, re-resolving the
    /// worker if the transport supports it.  The default is plain
    /// [`open`](Self::open) — re-spawn the child, re-dial the same address;
    /// [`TcpTransport`] additionally falls back to the next
    /// [registered](crate::WorkerRegistry) replacement address when the
    /// static one stays unreachable (and remembers the substitution for
    /// later faults).
    ///
    /// # Errors
    ///
    /// Same as [`open`](Self::open), from the last address attempted.
    fn reopen(&self, index: usize) -> Result<Box<dyn WorkerConnection>, ClusterError> {
        self.open(index)
    }

    /// Tells the transport that worker `index` no longer exists — a
    /// scale-down retired its shard — so per-index state (a re-resolved
    /// replacement address, a pool assignment) must be expired rather than
    /// remembered forever, and a pooled address can be returned for later
    /// re-adoption.  The default is a no-op: the pipe transport holds no
    /// per-index state (the child dies with its connection).
    fn retire(&self, index: usize) {
        let _ = index;
    }
}

/// Liveness-probes a worker address before recovery or placement adopts
/// it: a bare TCP connect is not evidence of a serving worker (the kernel
/// completes handshakes into a dead or wedged process's listen backlog),
/// so the probe opens a throwaway connection, greets it with a frame, and
/// requires **any** framed reply within `io_timeout` — a live `knw-worker`
/// serve loop answers even this out-of-order greeting with a typed `Err`
/// frame before closing the session, while a dead one yields EOF and a
/// wedged one times out.  The probed session is separate from (and closed
/// before) any connection the caller actually adopts.
///
/// Shared by the TCP transport's recovery re-resolution, the pool
/// transport's placement draws, and the registry's continuous background
/// probing.
#[must_use]
pub fn probe_worker(addr: &str, connect_timeout: Duration, io_timeout: Duration) -> bool {
    let Ok(stream) = connect_first(addr, connect_timeout) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    let deadline = Some(io_timeout);
    if stream.set_read_timeout(deadline).is_err() || stream.set_write_timeout(deadline).is_err() {
        return false;
    }
    let mut writer = stream;
    let Ok(reader) = writer.try_clone() else {
        return false;
    };
    if write_frame(&mut writer, &Frame::Snapshot).is_err() || writer.flush().is_err() {
        return false;
    }
    matches!(read_frame(&mut BufReader::new(reader)), Ok(Some(_)))
}

/// Connects to the first reachable of `addr`'s resolved socket addresses
/// (a hostname may resolve to several — e.g. IPv6 then IPv4 for
/// `localhost`; a worker listening on only one family must still be
/// reachable).
fn connect_first(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last_error = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_error = Some(e),
        }
    }
    Err(last_error.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "address resolved to no socket address",
        )
    }))
}

/// Opens a configured framed TCP link to `addr`, attributing failure to
/// worker `index`.
fn open_tcp_link(
    index: usize,
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Option<Duration>,
) -> Result<Box<dyn WorkerConnection>, ClusterError> {
    let connect = || -> std::io::Result<TcpConnection> {
        let stream = connect_first(addr, connect_timeout)?;
        // Frames are already batched; ship them as they flush.
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let reader = stream.try_clone()?;
        Ok(TcpConnection {
            writer: BufWriter::new(stream),
            reader: BufReader::new(reader),
            write_open: true,
        })
    };
    match connect() {
        Ok(conn) => Ok(Box::new(conn)),
        Err(source) => Err(ClusterError::ConnectFailed {
            worker: index,
            addr: addr.to_string(),
            source,
        }),
    }
}

/// Spawns a `knw-worker --listen <addr>` child process and parses the
/// `listening on <addr>` banner it prints, returning the child and the
/// address it actually bound (meaningful with port 0).  The `--listen`
/// discovery handshake in one place, shared by benches, tests and
/// supervisors; the caller owns (and eventually reaps) the child.  The
/// child's stderr is inherited, so the serve loop's session-failure
/// diagnostics stay observable.
///
/// How long [`spawn_listening_worker`] waits for the `listening on`
/// banner before declaring the child stuck, killing it, and returning a
/// typed error.  Generous — a healthy worker prints within milliseconds;
/// the bound only exists so a wedged child (or one handed an address it
/// can never bind) cannot hang its supervisor forever.
pub const BANNER_DEADLINE: Duration = Duration::from_secs(10);

/// # Errors
///
/// Spawn failures; a child that exited without printing the banner (e.g.
/// handed an un-bindable address — reaped, with its exit status in the
/// message); a child that printed nothing within [`BANNER_DEADLINE`]
/// (killed and reaped, `ErrorKind::TimedOut`); or a child that printed
/// something other than the banner (killed and reaped,
/// `ErrorKind::InvalidData`).  The wait is bounded in every path — a
/// silent child can never hang its supervisor on the banner read.
pub fn spawn_listening_worker(
    worker_exe: &Path,
    addr: &str,
    extra_args: &[&str],
) -> std::io::Result<(Child, String)> {
    use std::io::BufRead;
    let mut child = Command::new(worker_exe)
        .arg("--listen")
        .arg(addr)
        .args(extra_args)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    // The banner read happens on a helper thread so the wait can be
    // bounded: a blocking read_line on the pipe itself has no deadline,
    // and a child that neither prints nor exits would hang the caller
    // forever.  (If the deadline fires, the detached thread unblocks as
    // soon as the killed child's pipe closes, then exits.)
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut banner = String::new();
        let result = BufReader::new(stdout)
            .read_line(&mut banner)
            .map(|_| banner);
        let _ = tx.send(result);
    });
    let banner = match rx.recv_timeout(BANNER_DEADLINE) {
        Ok(Ok(banner)) => banner,
        Ok(Err(e)) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "worker printed no banner within {BANNER_DEADLINE:?}; \
                     killed and reaped"
                ),
            ));
        }
    };
    if banner.is_empty() {
        // EOF before any banner: the child exited (or closed stdout)
        // without ever serving — an un-bindable address, a bad flag, an
        // early crash.  Reap it and surface the exit status.
        let status = child.wait()?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("worker exited before printing its banner ({status})"),
        ));
    }
    let Some(bound) = banner.trim().strip_prefix("listening on ") else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected worker banner {banner:?}"),
        ));
    };
    Ok((child, bound.to_string()))
}

/// A fleet of listening `knw-worker --listen` processes, reaped on drop so
/// a panicking caller (a failing test, an aborted bench) leaves no
/// forever-serving strays behind.  The process-supervision counterpart of
/// [`spawn_listening_worker`], shared by the integration tests, the
/// benches, and any embedding supervisor.
pub struct ListeningWorkerFleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl ListeningWorkerFleet {
    /// Spawns `count` listening workers on `addr` (`127.0.0.1:0` picks a
    /// free localhost port per worker) and collects their bound
    /// addresses.  Already-spawned workers are reaped if a later spawn
    /// fails.
    ///
    /// # Errors
    ///
    /// The first spawn or banner-handshake failure.
    pub fn spawn(worker_exe: &Path, addr: &str, count: usize) -> std::io::Result<Self> {
        let mut fleet = Self {
            children: Vec::with_capacity(count),
            addrs: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let (child, bound) = spawn_listening_worker(worker_exe, addr, &[])?;
            fleet.children.push(child);
            fleet.addrs.push(bound);
        }
        Ok(fleet)
    }

    /// The bound worker addresses, in shard order.
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Kills the worker *process* behind shard `index` — real fault
    /// injection, not a polite shutdown.
    ///
    /// # Errors
    ///
    /// The underlying `kill(2)` failure, if any.
    pub fn kill(&mut self, index: usize) -> std::io::Result<()> {
        self.children[index].kill()?;
        let _ = self.children[index].wait();
        Ok(())
    }
}

impl Drop for ListeningWorkerFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// --------------------------------------------------------------------- pipe

/// The single-box transport: spawn one `knw-worker` child process per
/// worker and speak frames over its stdin/stdout pipes.
#[derive(Debug, Clone)]
pub struct PipeTransport {
    worker_exe: PathBuf,
}

impl PipeTransport {
    /// Creates a pipe transport spawning the given worker executable.
    #[must_use]
    pub fn new(worker_exe: impl Into<PathBuf>) -> Self {
        Self {
            worker_exe: worker_exe.into(),
        }
    }

    /// The worker executable this transport spawns.
    #[must_use]
    pub fn worker_exe(&self) -> &Path {
        &self.worker_exe
    }
}

impl Transport for PipeTransport {
    fn open(&self, index: usize) -> Result<Box<dyn WorkerConnection>, ClusterError> {
        let mut child = Command::new(&self.worker_exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| ClusterError::io(index, e))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(Box::new(PipeConnection {
            child,
            stdin: Some(BufWriter::new(stdin)),
            stdout: BufReader::new(stdout),
        }))
    }
}

/// A spawned `knw-worker` child on stdin/stdout pipes.
struct PipeConnection {
    child: Child,
    /// `None` once the pipe was half-closed (at `Finish`).
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
}

impl WorkerConnection for PipeConnection {
    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        let Some(stdin) = self.stdin.as_mut() else {
            // Writing after close_send: the pipe is gone, same as a dead
            // child from the caller's perspective.
            return Err(WireError::Io(std::io::ErrorKind::BrokenPipe.into()));
        };
        write_frame(stdin, frame)?;
        stdin.flush()?;
        Ok(())
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(WireError::Io(std::io::ErrorKind::BrokenPipe.into()));
        };
        stdin.write_all(bytes)?;
        stdin.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        read_frame(&mut self.stdout)
    }

    fn close_send(&mut self) {
        drop(self.stdin.take());
    }

    fn kill(&mut self) -> std::io::Result<()> {
        drop(self.stdin.take());
        self.child.kill()
    }

    fn confirm_finished(&mut self) -> std::io::Result<bool> {
        Ok(self.child.wait()?.success())
    }
}

impl Drop for PipeConnection {
    /// Reaps the child so an abandoned (or failed) link leaves no orphan
    /// process behind.  A no-op for children already waited on.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------- tcp

/// Sizing and safety knobs of a TCP cluster run: the shared engine knobs
/// (shard count = worker count, batch size, routing policy,
/// pre-coalescing) plus the worker addresses and the transport timeouts.
///
/// The shard count always tracks the address list — one worker, one shard —
/// so a spec mismatch between the two cannot exist.
#[derive(Debug, Clone)]
pub struct TcpClusterConfig {
    /// Routing knobs, shared verbatim with the in-process engine.  The
    /// shard count is forced to `addrs.len()`.
    pub engine: knw_engine::EngineConfig,
    /// One `host:port` per worker, in shard order.
    pub addrs: Vec<String>,
    /// How long to wait for each worker to accept the connection.
    pub connect_timeout: Duration,
    /// Per-link read/write timeout (`None` blocks forever — not
    /// recommended; the default keeps every failure mode bounded).
    pub io_timeout: Option<Duration>,
    /// Reconnect-and-replay recovery for faulted workers (`None` — the
    /// default — keeps the pre-recovery behaviour: the first
    /// `WorkerDied`/`Timeout` fails the run).
    pub recovery: Option<RecoveryPolicy>,
    /// Worker-discovery registry the recovery path re-resolves lost
    /// workers through (spare `knw-worker --register` hosts); `None` limits
    /// recovery to reconnecting the static addresses.
    pub registry: Option<Arc<WorkerRegistry>>,
}

impl TcpClusterConfig {
    /// Creates a TCP cluster configuration for the given worker addresses
    /// (one shard per address) with default engine knobs and timeouts.
    #[must_use]
    pub fn new<A: Into<String>>(addrs: impl IntoIterator<Item = A>) -> Self {
        let addrs: Vec<String> = addrs.into_iter().map(Into::into).collect();
        Self {
            engine: knw_engine::EngineConfig::new(addrs.len()),
            addrs,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            recovery: None,
            registry: None,
        }
    }

    /// Replaces the engine knobs (batch size, routing, pre-coalescing).
    /// The shard count is re-forced to the address count.
    #[must_use]
    pub fn with_engine(mut self, engine: knw_engine::EngineConfig) -> Self {
        self.engine = engine.with_shards(self.addrs.len());
        self
    }

    /// Sets the connect timeout.
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the per-link read/write timeout (`None` blocks forever).
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Enables reconnect-and-replay recovery with the given policy.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attaches a worker-discovery registry: the recovery path pops
    /// registered replacement addresses when a worker's static address
    /// stays unreachable.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<WorkerRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }
}

/// The multi-host transport: connect to already-running workers
/// (`knw-worker --listen <addr>`) over TCP.
///
/// Worker addresses come from the static list, from an attached
/// [`WorkerRegistry`] pool of `knw-worker --listen --register` spares, or
/// both.  An index beyond the static list — every index of a fleet built
/// with an empty list, as `from_pool` does — is placed by popping pool
/// addresses until one passes the connect-and-greet liveness probe
/// ([`probe_worker`]) and connects.
///
/// Recovery re-resolution: [`reopen`](Transport::reopen) first re-dials the
/// worker's current address; if that stays unreachable and a registry is
/// attached, it draws a replacement from the pool the same way, and
/// remembers the substitution so later faults on the same worker dial the
/// replacement directly.  [`retire`](Transport::retire) — a scale-down
/// removed the slot — hands the worker's address back to the pool, so a
/// later grow can re-adopt the still-serving worker.
#[derive(Debug)]
pub struct TcpTransport {
    addrs: Vec<String>,
    connect_timeout: Duration,
    io_timeout: Option<Duration>,
    registry: Option<Arc<WorkerRegistry>>,
    /// Re-resolved replacement addresses, by worker index.
    overrides: Mutex<HashMap<usize, String>>,
}

impl TcpTransport {
    /// Creates a TCP transport for the given worker addresses and timeouts.
    #[must_use]
    pub fn new(config: &TcpClusterConfig) -> Self {
        Self {
            addrs: config.addrs.clone(),
            connect_timeout: config.connect_timeout,
            io_timeout: config.io_timeout,
            registry: config.registry.clone(),
            overrides: Mutex::new(HashMap::new()),
        }
    }

    /// The statically configured worker addresses, in shard order.
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The address worker `index` currently resolves to: its registered
    /// replacement if recovery re-resolved it (or a pool draw placed it
    /// there), the static address otherwise.  `None` for a grown index
    /// beyond the static list that has no pool assignment yet.
    #[must_use]
    pub fn current_addr(&self, index: usize) -> Option<String> {
        self.overrides
            .lock()
            .expect("transport overrides lock")
            .get(&index)
            .cloned()
            .or_else(|| self.addrs.get(index).cloned())
    }

    /// Draws a probed-healthy address from the attached registry pool,
    /// assigns it to `index`, and connects — the placement path shared by
    /// [`open`](Transport::open) on grown indices and
    /// [`reopen`](Transport::reopen)'s re-resolution fallback.  Returns
    /// `None` when no attached registry can supply a live address.
    fn open_from_pool(&self, index: usize) -> Option<Box<dyn WorkerConnection>> {
        let registry = self.registry.as_ref()?;
        while let Some(addr) = registry.take_address() {
            if !probe_worker(
                &addr,
                self.connect_timeout,
                self.io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT),
            ) {
                continue;
            }
            match open_tcp_link(index, &addr, self.connect_timeout, self.io_timeout) {
                Ok(conn) => {
                    self.overrides
                        .lock()
                        .expect("transport overrides lock")
                        .insert(index, addr);
                    return Some(conn);
                }
                Err(_) => continue,
            }
        }
        None
    }
}

impl Transport for TcpTransport {
    fn open(&self, index: usize) -> Result<Box<dyn WorkerConnection>, ClusterError> {
        match self.current_addr(index) {
            Some(addr) => open_tcp_link(index, &addr, self.connect_timeout, self.io_timeout),
            // A grown index beyond the static list: the pool is the only
            // possible placement.
            None => self
                .open_from_pool(index)
                .ok_or(ClusterError::PoolExhausted { needed: 1, live: 0 }),
        }
    }

    fn reopen(&self, index: usize) -> Result<Box<dyn WorkerConnection>, ClusterError> {
        // First choice: the address the worker last answered on (a
        // supervisor may have restarted it in place).
        let static_error = match self.open(index) {
            Ok(conn) => return Ok(conn),
            Err(e) => e,
        };
        // Fallback: pop registered replacements until one *answers a
        // liveness probe* and connects.  Unreachable or unresponsive pops
        // are discarded — a stale announcement, or a spare whose listen
        // backlog still accepts for a dead serve loop, must not burn a
        // bounded recovery attempt on a doomed replay.
        self.open_from_pool(index).ok_or(static_error)
    }

    fn retire(&self, index: usize) {
        // Expire the override — the index no longer exists, so a later
        // grow must not inherit a stale substitution — and hand the
        // still-serving worker's address back to the pool for re-adoption.
        let expired = self
            .overrides
            .lock()
            .expect("transport overrides lock")
            .remove(&index);
        if let Some(registry) = &self.registry {
            if let Some(addr) = expired.or_else(|| self.addrs.get(index).cloned()) {
                registry.return_address(addr);
            }
        }
    }
}

/// One framed TCP link to a listening worker.
struct TcpConnection {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    write_open: bool,
}

impl WorkerConnection for TcpConnection {
    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        if !self.write_open {
            return Err(WireError::Io(std::io::ErrorKind::BrokenPipe.into()));
        }
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if !self.write_open {
            return Err(WireError::Io(std::io::ErrorKind::BrokenPipe.into()));
        }
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        read_frame(&mut self.reader)
    }

    fn close_send(&mut self) {
        if self.write_open {
            self.write_open = false;
            let _ = self.writer.flush();
            let _ = self.writer.get_ref().shutdown(Shutdown::Write);
        }
    }

    fn kill(&mut self) -> std::io::Result<()> {
        self.write_open = false;
        self.writer.get_ref().shutdown(Shutdown::Both)
    }

    fn confirm_finished(&mut self) -> std::io::Result<bool> {
        // A finishing worker sends its Shard and closes the connection (it
        // may keep serving *other* sessions); clean EOF is the handshake.
        match read_frame(&mut self.reader) {
            Ok(None) => Ok(true),
            Ok(Some(_)) => Ok(false),
            Err(WireError::Truncated) => Ok(false),
            Err(WireError::Io(e)) => Err(e),
            Err(_) => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_failure_is_typed_and_names_the_address() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let config =
            TcpClusterConfig::new([addr.clone()]).with_connect_timeout(Duration::from_millis(500));
        let transport = TcpTransport::new(&config);
        match transport.open(0).map(|_| "a connection") {
            Err(ClusterError::ConnectFailed {
                worker,
                addr: failed,
                ..
            }) => {
                assert_eq!(worker, 0);
                assert_eq!(failed, addr);
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn unresolvable_address_is_a_connect_failure() {
        let config = TcpClusterConfig::new(["not an address"]);
        match TcpTransport::new(&config).open(0).map(|_| "a connection") {
            Err(ClusterError::ConnectFailed { worker: 0, .. }) => {}
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn tcp_config_keeps_shards_locked_to_the_address_count() {
        let config = TcpClusterConfig::new(["a:1", "b:2", "c:3"])
            .with_engine(knw_engine::EngineConfig::new(16));
        assert_eq!(config.engine.shards, 3);
        assert_eq!(config.addrs.len(), 3);
    }

    #[test]
    fn tcp_round_trip_over_a_local_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let frame = read_frame(&mut reader).expect("read").expect("frame");
            write_frame(&mut writer, &frame).expect("write");
            writer.flush().expect("flush");
        });
        let config = TcpClusterConfig::new([addr]);
        let mut conn = TcpTransport::new(&config).open(0).expect("connect");
        conn.send(&Frame::Snapshot).expect("send");
        let back = conn.recv().expect("recv").expect("one frame");
        assert_eq!(back, Frame::Snapshot);
        echo.join().expect("echo thread");
        // The peer closed after echoing: a clean shutdown from our side.
        assert!(conn.confirm_finished().expect("confirm"));
    }
}
