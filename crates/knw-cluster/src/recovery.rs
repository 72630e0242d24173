//! Supervised worker membership: the recovery policy knobs and the
//! worker-discovery registry behind reconnect-and-replay.
//!
//! The estimators merge **exactly** and every shard is a *pure fold* of the
//! batch stream routed to it — so a lost worker's state is not lost at all:
//! replaying the same batches, in the same order, through a fresh worker
//! reproduces the shard byte for byte.  The aggregator keeps a bounded
//! per-shard **replay journal** (see `aggregator.rs`) of exactly those
//! batches; this module supplies the two remaining ingredients:
//!
//! * [`RecoveryPolicy`] — how hard to try (reconnect attempts, backoff) and
//!   how much to remember (the journal bound);
//! * [`WorkerRegistry`] — the `--register` handshake: spare workers
//!   announce their listening addresses to the aggregator side, and the
//!   TCP transport's re-resolution pops one when a dead worker's static
//!   address stays unreachable.
//!
//! ```text
//!   spare host$ knw-worker --listen 0.0.0.0:7001 --register agg:9000
//!                      │
//!                      │  Register{addr} frame, one TCP connection
//!                      ▼
//!   aggregator:  WorkerRegistry::bind("0.0.0.0:9000")  ──►  address pool
//!                      ▲                                        │
//!             recovery path pops the next address when a worker is gone
//! ```

use crate::frame::{read_frame, write_frame, Frame};
use crate::transport::probe_worker;
use knw_metrics::knw_log;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default number of reconnect attempts per worker fault.
pub const DEFAULT_MAX_RETRIES: usize = 3;

/// Default base backoff between reconnect attempts (attempt `k` waits
/// `k × backoff`, so a flapping worker is probed quickly at first and ever
/// more patiently after).
pub const DEFAULT_BACKOFF: Duration = Duration::from_millis(100);

/// Default per-shard replay-journal bound, in updates.  At 8–16 bytes per
/// update this caps journal memory at 32–64 MiB per shard; every
/// acknowledged snapshot truncates the journal back to a checkpoint.
pub const DEFAULT_JOURNAL_CAP: usize = 1 << 22;

/// Consecutive `accept(2)` failures the registry's collector thread
/// absorbs before going inert (mirrors the worker serve loop's bound).
const ACCEPT_RETRIES: usize = 8;

/// How the aggregator recovers lost workers: reconnect-and-replay sizing.
///
/// Attached to a cluster configuration
/// ([`ClusterConfig::with_recovery`](crate::ClusterConfig::with_recovery)),
/// this turns a mid-stream `WorkerDied` / `Timeout` / `ConnectFailed` from
/// a run-fatal error into a supervised reconnect: the transport re-opens
/// the link (same address, a respawned child, or a freshly
/// [registered](WorkerRegistry) replacement), the aggregator replays the
/// shard's journal through it, and the run resumes — bit-identical,
/// because the shard state is a pure fold of exactly those batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Reconnect attempts per fault before giving up with
    /// [`RecoveryExhausted`](crate::ClusterError::RecoveryExhausted).
    pub max_retries: usize,
    /// Base backoff between attempts (attempt `k` sleeps `k × backoff`).
    pub backoff: Duration,
    /// Per-shard journal bound, in updates.  When a shard's journal would
    /// exceed this, the journal is discarded (memory stays bounded) and a
    /// later fault on that shard surfaces as
    /// [`JournalOverflow`](crate::ClusterError::JournalOverflow) instead of
    /// recovering.  Acknowledged snapshots truncate the journal to a
    /// checkpoint, restarting the budget.
    pub journal_cap: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: DEFAULT_MAX_RETRIES,
            backoff: DEFAULT_BACKOFF,
            journal_cap: DEFAULT_JOURNAL_CAP,
        }
    }
}

impl RecoveryPolicy {
    /// Sets the number of reconnect attempts per fault (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries.max(1);
        self
    }

    /// Sets the base backoff between reconnect attempts.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the per-shard journal bound, in updates (clamped to ≥ 1).
    #[must_use]
    pub fn with_journal_cap(mut self, journal_cap: usize) -> Self {
        self.journal_cap = journal_cap.max(1);
        self
    }
}

/// A pooled spare worker address plus the outcome of its last health
/// probe.  A freshly announced (or returned) address counts as healthy
/// until a probe says otherwise — probing is advisory, the pop-time skip
/// only acts on a recorded failure.
#[derive(Debug, Clone)]
struct PoolEntry {
    addr: String,
    failed: bool,
}

/// The aggregator-side half of the `--register` handshake: listens on a TCP
/// port, collects the addresses announced by `knw-worker --listen …
/// --register <this port>` processes ([`Frame::Register`]), and hands them
/// out to the transport's recovery and placement paths
/// ([`take_address`](Self::take_address)) when a worker's static address
/// stays unreachable — or, under pool placement, when a fleet slot needs a
/// worker at all.
///
/// The accept loop runs on a background thread owned by this handle; a
/// malformed announcement is logged and dropped without disturbing the
/// pool.  [`start_probing`](Self::start_probing) adds a second background
/// thread that continuously health-probes pooled spares (connect **and**
/// greet — a listen backlog accepting for a dead serve loop does not
/// count), so a dead spare is marked before recovery or placement would
/// burn an attempt on it.  Dropping the registry stops both threads.
pub struct WorkerRegistry {
    addr: SocketAddr,
    pool: Arc<Mutex<VecDeque<PoolEntry>>>,
    stop: Arc<AtomicBool>,
    /// Condvar pair the probe thread sleeps on between rounds, so drop can
    /// wake it immediately instead of waiting out the interval.
    probe_gate: Arc<(Mutex<bool>, Condvar)>,
    probe_thread: Mutex<Option<JoinHandle<()>>>,
    thread: Option<JoinHandle<()>>,
}

impl WorkerRegistry {
    /// Binds the registry listener (`"127.0.0.1:0"` picks a free port; see
    /// [`local_addr`](Self::local_addr)) and starts accepting
    /// announcements.
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(Mutex::new(VecDeque::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::spawn(move || {
                // Same transient-accept treatment as the worker serve loop:
                // log-and-retry with growing backoff, give up (the registry
                // goes inert; the pool keeps serving what it holds) only on
                // persistent failure.  A spinning accept loop would burn the
                // core precisely when a churning cluster needs it.
                let mut consecutive_failures = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let (stream, peer) = match listener.accept() {
                        Ok(accepted) => accepted,
                        Err(e) => {
                            consecutive_failures += 1;
                            if consecutive_failures > ACCEPT_RETRIES {
                                knw_log!(
                                    WARN,
                                    "worker-registry",
                                    "accept failed persistently; no further announcements \
                                     will be collected",
                                    error = e,
                                    retries = consecutive_failures,
                                );
                                return;
                            }
                            knw_log!(
                                WARN,
                                "worker-registry",
                                "accept failed; retrying",
                                error = e,
                                retry = consecutive_failures,
                                max_retries = ACCEPT_RETRIES,
                            );
                            std::thread::sleep(
                                Duration::from_millis(20) * consecutive_failures as u32,
                            );
                            continue;
                        }
                    };
                    consecutive_failures = 0;
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // One frame per announcement; a peer that stalls must
                    // not wedge the registry.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    match read_frame(&mut BufReader::new(stream)) {
                        Ok(Some(Frame::Register(worker_addr))) => {
                            knw_metrics::global()
                                .counter("knw_registry_announcements_total", &[])
                                .inc();
                            pool.lock()
                                .expect("registry pool lock")
                                .push_back(PoolEntry {
                                    addr: worker_addr,
                                    failed: false,
                                });
                        }
                        Ok(None) => {}
                        other => {
                            // `other` can carry raw peer-supplied bytes; the
                            // structured logger escapes the value so a
                            // hostile announcer cannot forge log records.
                            knw_metrics::global()
                                .counter("knw_registry_malformed_announcements_total", &[])
                                .inc();
                            knw_log!(
                                WARN,
                                "worker-registry",
                                "ignoring malformed announcement",
                                peer = peer,
                                frame = format_args!("{other:?}"),
                            );
                        }
                    }
                }
            })
        };
        Ok(Self {
            addr,
            pool,
            stop,
            probe_gate: Arc::new((Mutex::new(false), Condvar::new())),
            probe_thread: Mutex::new(None),
            thread: Some(thread),
        })
    }

    /// The address the registry listens on — what workers pass to
    /// `--register`.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Pops the next registered worker address (FIFO), if any — skipping
    /// (but not discarding) addresses whose last health probe failed, so a
    /// recovery or placement attempt is never burned on a spare the probe
    /// thread already knows is dead.  Callers still discard addresses that
    /// turn out to be unreachable at adoption time.
    #[must_use]
    pub fn take_address(&self) -> Option<String> {
        let mut pool = self.pool.lock().expect("registry pool lock");
        let next = pool.iter().position(|entry| !entry.failed)?;
        pool.remove(next).map(|entry| entry.addr)
    }

    /// Number of registered, not-yet-taken worker addresses (including
    /// ones whose last health probe failed — see
    /// [`live_available`](Self::live_available)).
    #[must_use]
    pub fn available(&self) -> usize {
        self.pool.lock().expect("registry pool lock").len()
    }

    /// Number of pooled addresses [`take_address`](Self::take_address)
    /// would currently consider: registered and not failing their last
    /// health probe.
    #[must_use]
    pub fn live_available(&self) -> usize {
        self.pool
            .lock()
            .expect("registry pool lock")
            .iter()
            .filter(|entry| !entry.failed)
            .count()
    }

    /// Returns a previously taken address to the pool (FIFO tail) — used
    /// when a scale-down retires a worker whose process keeps serving, so
    /// a later grow can re-adopt it.  The entry re-enters as healthy; the
    /// probe thread re-checks it like any other spare.
    pub fn return_address(&self, addr: String) {
        self.pool
            .lock()
            .expect("registry pool lock")
            .push_back(PoolEntry {
                addr,
                failed: false,
            });
    }

    /// Starts the continuous health-probe thread: every `interval`, each
    /// pooled spare is probed with the transport's connect-and-greet
    /// liveness check (`timeout` bounds both the connect and the greet
    /// reply) and its pool entry is marked accordingly.  Probe outcomes
    /// are counted (`knw_registry_probe_ok_total` /
    /// `knw_registry_probe_failed_total`) and state *transitions* are
    /// logged — a spare going dark is a `WARN`, one coming back an `INFO`.
    /// Idempotent: later calls are no-ops.  The thread stops when the
    /// registry is dropped.
    pub fn start_probing(&self, interval: Duration, timeout: Duration) {
        let mut slot = self.probe_thread.lock().expect("registry probe slot");
        if slot.is_some() {
            return;
        }
        let pool = Arc::clone(&self.pool);
        let stop = Arc::clone(&self.stop);
        let gate = Arc::clone(&self.probe_gate);
        *slot = Some(std::thread::spawn(move || {
            let ok_counter = knw_metrics::global().counter("knw_registry_probe_ok_total", &[]);
            let failed_counter =
                knw_metrics::global().counter("knw_registry_probe_failed_total", &[]);
            while !stop.load(Ordering::SeqCst) {
                // Snapshot the addresses, probe with the pool unlocked (a
                // probe can block for the full timeout), then write the
                // outcomes back by address.
                let addrs: Vec<String> = pool
                    .lock()
                    .expect("registry pool lock")
                    .iter()
                    .map(|entry| entry.addr.clone())
                    .collect();
                for addr in addrs {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let alive = probe_worker(&addr, timeout, timeout);
                    if alive {
                        ok_counter.inc();
                    } else {
                        failed_counter.inc();
                    }
                    let mut pool = pool.lock().expect("registry pool lock");
                    for entry in pool.iter_mut().filter(|entry| entry.addr == addr) {
                        if entry.failed && alive {
                            knw_log!(
                                INFO,
                                "worker-registry",
                                "spare answered its health probe again",
                                addr = entry.addr,
                            );
                        } else if !entry.failed && !alive {
                            knw_log!(
                                WARN,
                                "worker-registry",
                                "spare failed its health probe; pops will skip it",
                                addr = entry.addr,
                            );
                        }
                        entry.failed = !alive;
                    }
                }
                let (lock, condvar) = &*gate;
                let stopped = lock.lock().expect("registry probe gate");
                let _unused = condvar
                    .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                    .expect("registry probe gate");
            }
        }));
    }
}

impl fmt::Debug for WorkerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerRegistry")
            .field("addr", &self.addr)
            .field("available", &self.available())
            .finish()
    }
}

impl Drop for WorkerRegistry {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake and join the probe thread (it re-checks the stop flag both
        // per-probe and around its interval sleep).
        {
            let (lock, condvar) = &*self.probe_gate;
            *lock.lock().expect("registry probe gate") = true;
            condvar.notify_all();
        }
        if let Some(probe) = self
            .probe_thread
            .lock()
            .expect("registry probe slot")
            .take()
        {
            let _ = probe.join();
        }
        // Unblock the accept loop so the thread observes the stop flag.  A
        // wildcard bind (0.0.0.0 / ::) is not connectable on every
        // platform, so the wake-up dials the matching loopback instead.
        let wake = if self.addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if self.addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            SocketAddr::new(loopback, self.addr.port())
        } else {
            self.addr
        };
        let woke = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.thread.take() {
            if woke {
                let _ = thread.join();
            }
            // If the wake-up connect failed the collector may still be
            // blocked in accept(2); joining would deadlock the dropping
            // thread, so the handle is released instead — the thread ends
            // with the process.
        }
    }
}

/// The worker-side half of the `--register` handshake: announces
/// `worker_addr` (the address the worker serves on) to the registry at
/// `registry_addr` with a single [`Frame::Register`] over a short-lived
/// connection.
///
/// # Errors
///
/// The connect or send failure — the caller (the `knw-worker` binary, a
/// supervisor script) decides whether an unreachable registry is fatal.
pub fn register_worker(registry_addr: &str, worker_addr: &str) -> std::io::Result<()> {
    let stream = TcpStream::connect(registry_addr)?;
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &Frame::Register(worker_addr.to_string()))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builders_clamp_degenerate_values() {
        let policy = RecoveryPolicy::default()
            .with_max_retries(0)
            .with_journal_cap(0)
            .with_backoff(Duration::from_millis(7));
        assert_eq!(policy.max_retries, 1);
        assert_eq!(policy.journal_cap, 1);
        assert_eq!(policy.backoff, Duration::from_millis(7));
    }

    #[test]
    fn registered_addresses_come_back_in_fifo_order() {
        let registry = WorkerRegistry::bind("127.0.0.1:0").expect("bind registry");
        let addr = registry.local_addr().to_string();
        register_worker(&addr, "10.0.0.1:7001").expect("announce 1");
        register_worker(&addr, "10.0.0.2:7001").expect("announce 2");
        // Announcements land asynchronously; wait briefly for both.
        for _ in 0..200 {
            if registry.available() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.available(), 2);
        assert_eq!(registry.take_address().as_deref(), Some("10.0.0.1:7001"));
        assert_eq!(registry.take_address().as_deref(), Some("10.0.0.2:7001"));
        assert_eq!(registry.take_address(), None);
    }

    /// The probe thread marks a backlog-only fake (connects fine, never
    /// answers the greet) as failed, and `take_address` skips it in favour
    /// of a spare that answers — without discarding the failed entry.
    #[test]
    fn pops_skip_spares_that_failed_their_probe() {
        let registry = WorkerRegistry::bind("127.0.0.1:0").expect("bind registry");
        let registry_addr = registry.local_addr().to_string();

        // A listen backlog with no serve loop behind it: the probe's
        // connect succeeds, the greet goes unanswered.
        let backlog_only = TcpListener::bind("127.0.0.1:0").expect("bind fake spare");
        let fake_addr = backlog_only.local_addr().expect("addr").to_string();
        register_worker(&registry_addr, &fake_addr).expect("register fake");

        // A minimal live "worker": accepts, reads the greeting, answers
        // with any framed reply — which is all the probe requires.
        let live = TcpListener::bind("127.0.0.1:0").expect("bind live spare");
        let live_addr = live.local_addr().expect("addr").to_string();
        let serve = std::thread::spawn(move || {
            while let Ok((stream, _)) = live.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let _ = read_frame(&mut reader);
                let mut writer = BufWriter::new(stream);
                let _ = write_frame(&mut writer, &Frame::Err("probe ack".into()));
                let _ = writer.flush();
            }
        });
        register_worker(&registry_addr, &live_addr).expect("register live");
        for _ in 0..400 {
            if registry.available() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.available(), 2);

        registry.start_probing(Duration::from_millis(20), Duration::from_millis(300));
        for _ in 0..400 {
            if registry.live_available() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(registry.live_available(), 1, "fake spare marked failed");
        // FIFO would hand out the fake first; the probe-aware pop skips it
        // and lands on the live spare, leaving the failed entry pooled.
        assert_eq!(registry.take_address().as_deref(), Some(live_addr.as_str()));
        assert_eq!(registry.take_address(), None);
        assert_eq!(registry.available(), 1);
        drop(registry);
        drop(backlog_only);
        drop(serve);
    }

    #[test]
    fn malformed_announcements_are_ignored() {
        let registry = WorkerRegistry::bind("127.0.0.1:0").expect("bind registry");
        let addr = registry.local_addr();
        {
            let mut garbage = TcpStream::connect(addr).expect("connect");
            garbage
                .write_all(&[5, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0])
                .expect("write");
        }
        register_worker(&addr.to_string(), "good:1").expect("announce");
        for _ in 0..200 {
            if registry.available() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(registry.take_address().as_deref(), Some("good:1"));
    }
}
