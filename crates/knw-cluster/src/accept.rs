//! The one blocking accept loop, behind the `knw-worker --listen` serve
//! loop, the [`WorkerRegistry`](crate::WorkerRegistry) collector and the
//! [`MetricsServer`](crate::MetricsServer); the nonblocking `--serve` loop,
//! which never sleeps, accepts on its own.
//!
//! A transient failure (`ECONNABORTED`, `EMFILE` pressure that clears when
//! connections close) is retried after a growing backoff: a spinning loop
//! would burn a core exactly when the host is under pressure.

use knw_metrics::knw_log;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive accept failures absorbed before the loop decides the
/// listener itself is broken.
pub(crate) const ACCEPT_RETRIES: usize = 8;

/// Base backoff after a failed accept: the `k`-th consecutive failure
/// sleeps `k ×` this, giving descriptor pressure room to clear.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Hands every connection `accept` yields to `handle` until `handle`
/// returns `false`.  The accept source is generic so the failure path is
/// testable without provoking real `EMFILE`; `target` names the caller in
/// log records.
///
/// # Errors
///
/// The last failure, once `ACCEPT_RETRIES + 1` consecutive accepts failed.
pub(crate) fn accept_loop<C>(
    target: &str,
    mut accept: impl FnMut() -> io::Result<C>,
    mut handle: impl FnMut(C) -> bool,
) -> io::Result<()> {
    let mut failures = 0usize;
    loop {
        match accept() {
            Ok(conn) => {
                failures = 0;
                if !handle(conn) {
                    return Ok(());
                }
            }
            Err(e) if failures >= ACCEPT_RETRIES => return Err(e),
            Err(e) => {
                failures += 1;
                knw_log!(
                    WARN,
                    target,
                    "accept failed; retrying",
                    error = e,
                    retry = failures,
                    max_retries = ACCEPT_RETRIES,
                );
                std::thread::sleep(ACCEPT_BACKOFF * failures as u32);
            }
        }
    }
}

/// A listener served by [`accept_loop`] on a background thread.  Dropping
/// it sets the stop flag, wakes the blocked `accept(2)` with a loopback
/// connect, and joins the thread.
#[derive(Debug)]
pub(crate) struct AcceptThread {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AcceptThread {
    /// Binds `addr` and runs `handle` on each accepted connection, one at a
    /// time, on a new thread that is running when this returns.  After
    /// persistent accept failures the thread logs a WARN and ends; the
    /// owner stays usable.
    pub(crate) fn spawn(
        addr: &str,
        target: &'static str,
        mut handle: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (started, running) = mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _ = started.send(());
                let served = accept_loop(
                    target,
                    || listener.accept(),
                    |(stream, peer)| {
                        // The wake-up connect from `drop` is not served.
                        let running = !stop.load(Ordering::SeqCst);
                        if running {
                            handle(stream, peer);
                        }
                        running
                    },
                );
                if let Err(error) = served {
                    knw_log!(
                        WARN,
                        target,
                        "accept failed persistently; the listener stops",
                        error = error,
                    );
                }
            })
        };
        // Return only once the thread runs: its start-up (stack and signal
        // stack mappings) overlapping the caller's next steps doubled the
        // time `knw-aggregate --serve` took to spawn its worker fleet.
        let _ = running.recv();
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for AcceptThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // A wildcard bind (0.0.0.0 / ::) is not connectable on every
        // platform, so the wake-up dials the matching loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let woke = TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.thread.take() {
            if woke {
                let _ = thread.join();
            }
            // If the wake-up connect failed the thread may still be blocked
            // in accept(2); joining would deadlock the dropping thread, so
            // the handle is released instead — the thread ends with the
            // process.
        }
    }
}
