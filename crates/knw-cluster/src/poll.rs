//! A thin, dependency-free readiness-polling wrapper over the kernel's
//! `epoll(7)` interface — the event-notification substrate of the
//! multi-session serve loop (see [`session`](crate::session)), its only
//! user.
//!
//! The workspace builds in offline environments with no crates.io access,
//! so `mio`/`tokio` cannot be dependencies; the same discipline that gives
//! `dev-shims` its hand-rolled `serde` gives this module hand-declared
//! `extern "C"` bindings against the libc symbols `std` already links
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`).  Nothing here is
//! clever: one level-triggered epoll instance, `u64` tokens chosen by the
//! caller, and a `wait` that fills a caller-owned event buffer.
//!
//! Level-triggered is deliberate: a readiness the loop could not fully
//! consume this tick (short read, paused session) simply reports again
//! next tick — no edge-tracking state machine to get wrong.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;
use std::time::Duration;

// The epoll constants, verbatim from the kernel ABI.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`.  On x86-64 the kernel declares it
/// packed (no padding between `events` and `data`); other architectures
/// use natural layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// Which readiness classes a registration asks to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    bits: u32,
}

impl Event {
    /// The fd has bytes to read (or a hangup to observe by reading 0).
    #[must_use]
    pub fn readable(&self) -> bool {
        self.bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }

    /// The fd accepts writes.
    #[must_use]
    pub fn writable(&self) -> bool {
        self.bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }
}

/// A level-triggered epoll instance: register fds under caller-chosen
/// tokens, then [`wait`](Self::wait) for readiness.  The epoll fd is
/// closed on drop.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
    /// Kernel-filled scratch, retained across waits.
    scratch: Vec<EpollEvent>,
}

impl std::fmt::Debug for EpollEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `repr(packed)` forbids referencing the fields directly; copy out.
        let (events, data) = (self.events, self.data);
        f.debug_struct("EpollEvent")
            .field("events", &events)
            .field("data", &data)
            .finish()
    }
}

/// Events one `wait` call can deliver; a busier loop simply sees the rest
/// next tick (level-triggered readiness re-reports).
const MAX_EVENTS_PER_WAIT: usize = 1024;

impl Poller {
    /// Creates a fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The `epoll_create1(2)` failure, if any.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error reported through errno.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            scratch: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS_PER_WAIT],
        })
    }

    /// Registers `fd` under `token` for `interest`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` failure, if any.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes an existing registration's interest (the token may change
    /// too).
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` failure, if any.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        // SAFETY: epfd and fd are owned-open fds and the event pointer is a
        // valid, initialized struct for the duration of the call.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Removes `fd` from the instance.  (Closing the fd removes it too;
    /// explicit deregistration keeps the bookkeeping honest when the fd
    /// outlives its session.)
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` failure, if any.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent { events: 0, data: 0 };
        // SAFETY: epfd and fd are owned-open fds; the event pointer is a
        // valid (ignored for DEL, but pre-2.6.9-kernel-safe) struct.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits for readiness, filling `events` (cleared first).  `None`
    /// blocks indefinitely; a zero timeout polls.  An `EINTR`-interrupted
    /// wait returns zero events instead of an error — the caller's loop
    /// just ticks again.
    ///
    /// # Errors
    ///
    /// The `epoll_wait(2)` failure, if any.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(t) => c_int::try_from(t.as_millis().min(i32::MAX as u128)).expect("clamped"),
        };
        // SAFETY: the scratch buffer is a live, properly sized allocation
        // of `EpollEvent`; the kernel writes at most `maxevents` entries.
        let rc = unsafe {
            epoll_wait(
                self.epfd,
                self.scratch.as_mut_ptr(),
                c_int::try_from(self.scratch.len()).expect("bounded scratch"),
                timeout_ms,
            )
        };
        if rc < 0 {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(error);
        }
        let count = rc as usize;
        events.extend(self.scratch[..count].iter().map(|raw| {
            let (bits, data) = (raw.events, raw.data);
            Event { token: data, bits }
        }));
        Ok(count)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd was returned open by epoll_create1 and is closed
        // exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_tracks_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        let mut events = Vec::new();

        // A fresh, empty socket: writable but not readable.
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller
            .register(server.as_raw_fd(), 7, both)
            .expect("register");
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        let event = events.iter().find(|e| e.token == 7).expect("one event");
        assert!(event.writable() && !event.readable());

        // Bytes arrive: read-readiness reports, and (level-triggered)
        // keeps reporting until consumed.
        client.write_all(b"ping").expect("write");
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .expect("wait");
            assert!(events.iter().any(|e| e.token == 7 && e.readable()));
        }
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).expect("read"), 4);

        // Interest can be narrowed: write-only registration stops the
        // read-readiness wakeups even with bytes pending.
        client.write_all(b"more").expect("write");
        let write_only = Interest {
            readable: false,
            writable: true,
        };
        poller
            .modify(server.as_raw_fd(), 7, write_only)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        let event = events.iter().find(|e| e.token == 7).expect("one event");
        assert!(event.writable());

        // Peer hangup surfaces as readable/hangup readiness.
        poller
            .modify(server.as_raw_fd(), 7, Interest::READABLE)
            .expect("modify");
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        let event = events.iter().find(|e| e.token == 7).expect("one event");
        assert!(event.readable());

        poller.deregister(server.as_raw_fd()).expect("deregister");
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "deregistered fd must not report");
    }

    #[test]
    fn zero_timeout_polls_without_blocking() {
        let mut poller = Poller::new().expect("poller");
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("wait");
        assert!(events.is_empty());
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
