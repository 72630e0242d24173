//! How the aggregator reaches its workers: the link layer under the frame
//! protocol.
//!
//! A worker is either a spawned `knw-worker` child, spoken to over its
//! stdin/stdout pipes (the single-box topology), or an already-running
//! `knw-worker --listen <addr>` reached over TCP (the multi-host
//! topology), as the [`WorkerSource`] says.  Both are one crate-private
//! link type — a buffered writer and reader, plus the peer behind them for
//! the few operations that differ (half-close, kill, finish confirmation,
//! the reaping drop) — and one crate-private placement type, built from
//! the [`WorkerSource`], decides where each worker index's link comes
//! from: a fresh child, the static address, a re-resolved replacement, or
//! a draw from a [`WorkerRegistry`] pool.
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
//!   timeouts (see
//!   [`ClusterConfig::io_timeout`](crate::ClusterConfig::io_timeout)), so
//!   a half-open or stalled worker surfaces as [`ClusterError::Timeout`]
//!   within a bounded interval instead of hanging the aggregation forever.

use crate::aggregator::{ClusterConfig, WorkerSource};
use crate::error::ClusterError;
use crate::frame::{encode_frame, Frame, FrameBuf, FrameView, HelloConfig, SketchSpec, WireError};
use crate::recovery::WorkerRegistry;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// TCP connect timeout: long enough for a loaded host to accept, short
/// enough that a dead address fails the run promptly.
pub(crate) const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default per-link read/write timeout on TCP links.  Generous — workers
/// may legitimately spend a while serializing a large shard — but bounded:
/// a stalled peer surfaces as [`ClusterError::Timeout`] instead of hanging
/// the aggregation forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Liveness-probes a worker address before recovery or placement adopts
/// it: a bare TCP connect is not evidence of a serving worker (the kernel
/// completes handshakes into a dead or wedged process's listen backlog),
/// so the probe opens a throwaway connection, runs a minimal session on it
/// — a `Hello` for the cheap `exact` F0 sketch, then a `Snapshot` — and
/// requires **any** framed reply within `io_timeout`.  A live `knw-worker`
/// answers with the empty sketch's `Shard` and ends the session quietly
/// when the probe hangs up, so a probe is neither a protocol violation nor
/// a failed session on the worker's side; a dead worker yields EOF and a
/// wedged one times out.  The probed session is separate from (and closed
/// before) any connection the caller actually adopts.
///
/// Shared by recovery re-resolution and pool placement draws, and by the
/// registry's continuous background probing.
#[must_use]
pub fn probe_worker(addr: &str, connect_timeout: Duration, io_timeout: Duration) -> bool {
    let Ok(mut link) = Link::connect(addr, connect_timeout, Some(io_timeout)) else {
        return false;
    };
    let hello = Frame::Hello(HelloConfig {
        worker_index: 0,
        spec: SketchSpec::f0("exact", 0.5, 1 << 10, 0),
    });
    let mut greeting = encode_frame(&hello).expect("a control frame is tiny");
    greeting.extend(encode_frame(&Frame::Snapshot).expect("a control frame is tiny"));
    link.send(&greeting).is_ok() && matches!(link.recv(), Ok(Some(_)))
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

/// How long [`spawn_listening_worker`] waits for the `listening on`
/// banner before declaring the child stuck, killing it, and returning a
/// typed error.  Generous — a healthy worker prints within milliseconds;
/// the bound only exists so a wedged child (or one handed an address it
/// can never bind) cannot hang its supervisor forever.
pub const BANNER_DEADLINE: Duration = Duration::from_secs(10);

/// Spawns a `knw-worker --listen <addr>` child process and parses the
/// `listening on <addr>` banner it prints, returning the child and the
/// address it actually bound (meaningful with port 0).  The `--listen`
/// discovery handshake in one place, shared by benches, tests and
/// supervisors; the caller owns (and eventually reaps) the child.  The
/// child's stderr is inherited, so the serve loop's session-failure
/// diagnostics stay observable.
///
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

/// One live, framed, bidirectional link to a worker: a buffered writer and
/// reader over a spawned child's pipes or a connected socket, and the
/// retained buffer the worker's frames are read into.
pub(crate) struct Link {
    /// `None` once the send side was half-closed or the link severed.
    writer: Option<BufWriter<Box<dyn Write + Send>>>,
    reader: BufReader<Box<dyn Read + Send>>,
    /// Holds the last frame received — a `Shard` reply stays here, read
    /// in place by the merge, until the next receive.
    received: FrameBuf,
    peer: Peer,
}

/// What stands behind a [`Link`]'s byte streams.
enum Peer {
    /// A spawned `knw-worker` child, reaped when its link goes.
    Child(Child),
    /// A listening worker's socket, kept for `shutdown(2)`.
    Socket(TcpStream),
}

impl Link {
    /// Spawns `exe` and links to it over its stdin/stdout pipes.
    pub(crate) fn spawn(exe: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(Self::new(
            Box::new(stdin),
            Box::new(stdout),
            Peer::Child(child),
        ))
    }

    /// Connects to `addr` (see [`connect_first`]) with `TCP_NODELAY` and
    /// `io_timeout` on reads and writes.
    pub(crate) fn connect(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let stream = connect_first(addr, connect_timeout)?;
        // Frames are already batched; ship them as they flush.
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let (writer, reader) = (stream.try_clone()?, stream.try_clone()?);
        Ok(Self::new(
            Box::new(writer),
            Box::new(reader),
            Peer::Socket(stream),
        ))
    }

    fn new(writer: Box<dyn Write + Send>, reader: Box<dyn Read + Send>, peer: Peer) -> Self {
        Self {
            writer: Some(BufWriter::new(writer)),
            reader: BufReader::new(reader),
            received: FrameBuf::new(),
            peer,
        }
    }

    /// Writes one encoded frame (length prefix included, as [`encode_frame`]
    /// lays it out) and flushes it, so the frame is on the wire when the
    /// call returns.  Fails with `BrokenPipe` after a half-close or kill.
    pub(crate) fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        // Writing after a half-close: the stream is gone, the same as a dead
        // worker from the caller's side.
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| WireError::Io(std::io::ErrorKind::BrokenPipe.into()))?;
        writer.write_all(frame)?;
        writer.flush()?;
        Ok(())
    }

    /// Reads the worker's next frame (`Ok(None)` on a clean end of stream)
    /// into the link's retained buffer, as [`FrameBuf::read`] does.
    pub(crate) fn recv(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        self.received.read(&mut self.reader)
    }

    /// The shard bytes of the last frame received, if it was a `Shard`.
    pub(crate) fn shard(&self) -> Option<&[u8]> {
        self.received.shard()
    }

    /// Signals end of input: closes the child's stdin, or shuts the
    /// socket's write half down.  Idempotent; the read side stays open so a
    /// final `Shard` can still arrive.
    pub(crate) fn close_send(&mut self) {
        if let Some(mut writer) = self.writer.take() {
            let _ = writer.flush();
            if let Peer::Socket(socket) = &self.peer {
                let _ = socket.shutdown(Shutdown::Write);
            }
        }
    }

    /// Severs the link: kills and reaps the child, or shuts the socket down
    /// both ways.  Used for fault injection, resharding and tear-down.
    pub(crate) fn kill(&mut self) -> std::io::Result<()> {
        // Sever first: a buffered write still pending towards a wedged peer
        // then fails fast when the writer drops, instead of blocking.
        let severed = match &mut self.peer {
            // Reaped even if the kill fails (the child already exited).
            Peer::Child(child) => child.kill().and(child.wait().map(drop)),
            Peer::Socket(socket) => socket.shutdown(Shutdown::Both),
        };
        self.writer = None;
        severed
    }

    /// Confirms the worker wound the session down cleanly after `Finish`:
    /// a child must exit with status zero; a listening worker must close
    /// the connection (it keeps serving other sessions).  `Ok(false)` for
    /// an unclean shutdown; `Err` for an I/O failure such as a read timeout.
    pub(crate) fn confirm_finished(&mut self) -> std::io::Result<bool> {
        if let Peer::Child(child) = &mut self.peer {
            return Ok(child.wait()?.success());
        }
        // A finishing worker sends its Shard and closes the connection;
        // clean EOF is the handshake, and any further byte is not.  (Read
        // beside the frame buffer, which still holds that Shard.)
        let mut byte = [0u8; 1];
        loop {
            match self.reader.read(&mut byte) {
                Ok(0) => return Ok(true),
                Ok(_) => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The child's process id, for a pipe link.
    #[cfg(test)]
    fn pid(&self) -> Option<u32> {
        match &self.peer {
            Peer::Child(child) => Some(child.id()),
            Peer::Socket(_) => None,
        }
    }
}

impl Drop for Link {
    /// Kills and reaps a child, so an abandoned (or failed) link leaves no
    /// orphan process behind; a socket just closes.
    fn drop(&mut self) {
        if matches!(self.peer, Peer::Child(_)) {
            let _ = self.kill();
        }
    }
}

/// Where each worker index's [`Link`] comes from: a spawned child per
/// open, or a TCP address from the static list, from an attached
/// [`WorkerRegistry`] pool of `knw-worker --listen --register` spares, or
/// both.  An index beyond the static list — every index of a pool-placed
/// fleet, whose list is empty — is placed by popping pool addresses until
/// one passes the connect-and-greet liveness probe ([`probe_worker`]) and
/// connects.  [`reopen`](Self::reopen) falls back to such a draw when the
/// usual open fails, and the substitution sticks for later faults on the
/// same index; [`retire`](Self::retire) — a scale-down removed the slot —
/// hands the worker's address back to the pool, so a later grow can
/// re-adopt the still-serving worker.
pub(crate) struct Placement {
    /// The `knw-worker` executable to spawn; `None` for TCP workers.
    spawn: Option<PathBuf>,
    /// Static TCP addresses, in shard order.
    addrs: Vec<String>,
    registry: Option<Arc<WorkerRegistry>>,
    io_timeout: Option<Duration>,
    /// Re-resolved replacement addresses and pool draws, by worker index.
    overrides: HashMap<usize, String>,
}

impl Placement {
    /// The placement `config` describes, for a fleet of `shards` workers.
    /// Refuses a TCP config with neither addresses nor a registry (a typed
    /// [`ClusterError::Io`]), and a pool placement whose pool cannot cover
    /// the fleet ([`ClusterError::PoolExhausted`], before any dial).
    pub(crate) fn new(config: &ClusterConfig, shards: usize) -> Result<Self, ClusterError> {
        let (spawn, addrs, registry) = match &config.workers {
            WorkerSource::Spawn(exe) => (Some(exe.clone()), Vec::new(), None),
            WorkerSource::Tcp { addrs, registry } => (None, addrs.clone(), registry.clone()),
        };
        if spawn.is_none() && addrs.is_empty() {
            // `with_shards` clamps 0 to 1, so an empty list with no pool
            // would reach `open(0)`; refuse it typed instead.
            let pool = registry.as_ref().ok_or_else(|| ClusterError::Io {
                worker: None,
                source: std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "a TCP cluster needs at least one worker address or a registry pool",
                ),
            })?;
            let live = pool.live_available();
            if live < shards {
                return Err(ClusterError::PoolExhausted {
                    needed: shards,
                    live,
                });
            }
        }
        Ok(Self {
            spawn,
            addrs,
            registry,
            io_timeout: config.io_timeout,
            overrides: HashMap::new(),
        })
    }

    /// Restates a failed start-up open: a pool draw that lost a race after
    /// the pre-check reports the fleet's shortfall, not the failed draw.
    pub(crate) fn fleet_error(&self, shards: usize, error: ClusterError) -> ClusterError {
        match (error, &self.registry) {
            (ClusterError::PoolExhausted { .. }, Some(pool)) => ClusterError::PoolExhausted {
                needed: shards,
                live: pool.live_available(),
            },
            (other, _) => other,
        }
    }

    /// Opens worker `index`'s link: spawns a child ([`ClusterError::Io`]
    /// on failure), or dials the address the index resolves to
    /// ([`ClusterError::ConnectFailed`]) — a pool draw for an index that has
    /// none ([`ClusterError::PoolExhausted`]).
    pub(crate) fn open(&mut self, index: usize) -> Result<Link, ClusterError> {
        if let Some(exe) = &self.spawn {
            return Link::spawn(exe).map_err(|e| ClusterError::io(index, e));
        }
        // The replacement recovery or a pool draw settled on, else the
        // static address.
        match self.overrides.get(&index).or(self.addrs.get(index)) {
            Some(addr) => self.dial(index, addr),
            // A grown index beyond the static list: the pool is the only
            // possible placement.
            None => self
                .open_from_pool(index)
                .ok_or(ClusterError::PoolExhausted { needed: 1, live: 0 }),
        }
    }

    /// Re-opens worker `index`'s link after a fault: the usual open first
    /// (a supervisor may have restarted the worker in place), then a probed
    /// pool replacement.  Unreachable or unresponsive pops are discarded —
    /// a stale announcement, or a spare whose listen backlog still accepts
    /// for a dead serve loop, must not burn a bounded recovery attempt on a
    /// doomed replay.  Fails with the first attempt's error.
    pub(crate) fn reopen(&mut self, index: usize) -> Result<Link, ClusterError> {
        let first_error = match self.open(index) {
            Ok(link) => return Ok(link),
            Err(e) => e,
        };
        self.open_from_pool(index).ok_or(first_error)
    }

    /// Forgets worker `index`, retired by a scale-down: expires its
    /// override, so a later grow does not inherit a stale substitution, and
    /// hands the still-serving worker's address back to the pool.
    pub(crate) fn retire(&mut self, index: usize) {
        let expired = self.overrides.remove(&index);
        if let Some(pool) = &self.registry {
            if let Some(addr) = expired.or_else(|| self.addrs.get(index).cloned()) {
                pool.return_address(addr);
            }
        }
    }

    fn dial(&self, index: usize, addr: &str) -> Result<Link, ClusterError> {
        Link::connect(addr, DEFAULT_CONNECT_TIMEOUT, self.io_timeout).map_err(|source| {
            ClusterError::ConnectFailed {
                worker: index,
                addr: addr.to_string(),
                source,
            }
        })
    }

    /// Draws a probed-healthy address from the pool, assigns it to `index`
    /// and connects; `None` when no pool can supply a live address.
    fn open_from_pool(&mut self, index: usize) -> Option<Link> {
        let pool = self.registry.as_ref()?;
        let probe_timeout = self.io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT);
        while let Some(addr) = pool.take_address() {
            if !probe_worker(&addr, DEFAULT_CONNECT_TIMEOUT, probe_timeout) {
                continue;
            }
            if let Ok(link) = self.dial(index, &addr) {
                self.overrides.insert(index, addr);
                return Some(link);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A registry-less TCP placement over `addrs`.
    fn tcp<const N: usize>(addrs: [&str; N]) -> Placement {
        Placement::new(&ClusterConfig::tcp(addrs, None), N).expect("a static placement")
    }

    fn wire(frame: &Frame) -> Vec<u8> {
        encode_frame(frame).expect("encode")
    }

    /// A pipe link to `/bin/cat`, which echoes every frame back.
    fn cat() -> Link {
        Link::spawn(Path::new("/bin/cat")).expect("spawn cat")
    }

    /// A one-connection local listener whose accepted stream `peer` runs.
    fn listen(peer: impl FnOnce(TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        (
            addr,
            std::thread::spawn(move || peer(listener.accept().expect("accept").0)),
        )
    }

    fn connect(addr: &str) -> Link {
        Link::connect(addr, DEFAULT_CONNECT_TIMEOUT, Some(DEFAULT_IO_TIMEOUT)).expect("connect")
    }

    /// A probe is a well-formed session to a real worker: the worker
    /// answers it and ends the session without an error.
    #[test]
    fn a_probe_is_a_clean_worker_session() {
        let (addr, worker) = listen(|stream| {
            let session = crate::worker::serve_connection(&stream, Some(DEFAULT_IO_TIMEOUT));
            assert_eq!(session, Ok(()));
        });
        let timeout = DEFAULT_IO_TIMEOUT;
        assert!(probe_worker(&addr, timeout, timeout));
        worker.join().expect("the probed session ends cleanly");
    }

    #[test]
    fn connect_failure_is_typed_and_names_the_address() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        match tcp([addr.as_str()]).open(0).map(|_| "a connection") {
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
        match tcp(["not an address"]).open(0).map(|_| "a connection") {
            Err(ClusterError::ConnectFailed { worker: 0, .. }) => {}
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn tcp_config_keeps_shards_locked_to_the_address_count() {
        let config = crate::ClusterConfig::tcp(["a:1", "b:2", "c:3"], None)
            .with_engine(knw_engine::EngineConfig::new(16));
        assert_eq!(config.engine.shards, 3);
        let crate::WorkerSource::Tcp { addrs, .. } = &config.workers else {
            panic!("a TCP config");
        };
        assert_eq!(addrs.len(), 3);
    }

    #[test]
    fn tcp_round_trip_over_a_local_listener() {
        let (addr, echo) = listen(|mut stream| {
            let frame = read_frame(&mut stream).expect("read").expect("frame");
            stream.write_all(&wire(&frame)).expect("write");
        });
        let mut conn = tcp([addr.as_str()]).open(0).expect("connect");
        conn.send(&wire(&Frame::Snapshot)).expect("send");
        let back = conn.recv().expect("recv").expect("one frame");
        assert_eq!(back, FrameView::Owned(Frame::Snapshot));
        echo.join().expect("echo thread");
        // The peer closed after echoing: a clean shutdown from our side.
        assert!(conn.confirm_finished().expect("confirm"));
    }

    /// Dropping or killing a pipe link reaps its child: no process is left
    /// behind, not even a zombie.
    #[test]
    fn dropped_or_killed_pipe_links_leave_no_child() {
        let gone = |pid: u32| !Path::new(&format!("/proc/{pid}")).exists();
        let link = cat();
        let pid = link.pid().expect("a child");
        assert!(!gone(pid), "the child runs while linked");
        drop(link);
        assert!(gone(pid), "drop reaps the child");

        let mut link = cat();
        let pid = link.pid().expect("a child");
        link.kill().expect("kill");
        assert!(gone(pid), "kill reaps the child");
        assert!(
            link.send(&wire(&Frame::Snapshot)).is_err(),
            "no send after kill"
        );
        assert!(!link.confirm_finished().expect("a killed child"));
    }

    /// After a socket link's half-close the peer reads a clean EOF between
    /// frames, and the link still receives the peer's last frame.
    #[test]
    fn a_half_closed_socket_still_receives_the_last_frame() {
        let (addr, peer) = listen(|mut stream| {
            assert_eq!(read_frame(&mut stream).expect("read"), Some(Frame::Finish));
            assert_eq!(read_frame(&mut stream).expect("clean EOF"), None);
            stream
                .write_all(&wire(&Frame::Shard(vec![7; 3])))
                .expect("write");
        });
        let mut link = connect(&addr);
        link.send(&wire(&Frame::Finish)).expect("send");
        link.close_send();
        link.close_send(); // idempotent
        assert!(
            link.send(&wire(&Frame::Snapshot)).is_err(),
            "no send after close"
        );
        assert_eq!(link.recv().expect("recv"), Some(FrameView::Shard(&[7; 3])));
        peer.join().expect("peer thread");
        assert!(link.confirm_finished().expect("the peer closed"));
    }

    /// `confirm_finished` is `true` only for a clean exit (child) or a clean
    /// close (socket).
    #[test]
    fn confirm_finished_tells_clean_from_unclean_ends() {
        let mut link = cat();
        link.send(&wire(&Frame::Snapshot)).expect("send");
        link.close_send();
        assert_eq!(
            link.recv().expect("echo"),
            Some(FrameView::Owned(Frame::Snapshot))
        );
        assert!(link.confirm_finished().expect("cat exits 0 on EOF"));
        let mut link = Link::spawn(Path::new("/bin/false")).expect("spawn false");
        assert!(!link.confirm_finished().expect("false exits 1"));

        // A peer that sends another frame, or half a frame, then closes.
        for tail in [wire(&Frame::Finish), vec![9, 0, 0, 0, 1]] {
            let (addr, peer) = listen(move |mut stream| stream.write_all(&tail).expect("write"));
            let mut link = connect(&addr);
            peer.join().expect("peer thread");
            assert!(!link.confirm_finished().expect("an unclean close"));
        }
    }
}
