//! Plain-text metrics exposition: `knw-aggregate --metrics <addr>` runs a
//! [`MetricsServer`] in every mode — a background accept thread answering
//! one scrape per short-lived connection from the process-wide registry.
//! The registry's counters and gauges are lock-free atomics, so the scrape
//! thread never stalls the serve loop or the aggregation it reports on.
//!
//! The "HTTP" here is deliberately tiny (the offline-shim discipline: no
//! hyper, no HTTP crate): read until the header terminator, ignore the
//! request line entirely, answer `200 OK` with the registry rendered in
//! Prometheus text format 0.0.4, close.  Every scraper — `curl`,
//! Prometheus, a test harness — speaks this much.

use crate::accept::AcceptThread;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Caps how many request bytes a scrape connection may send before the
/// header terminator; a peer streaming garbage is cut off, not buffered.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long one scrape may take end to end.  Scrapes are answered one at a
/// time, so a stalled scraper must not hold the endpoint for longer.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(10);

/// Wraps an exposition body in a complete `HTTP/1.1 200 OK` response
/// (Prometheus text format 0.0.4, length, `Connection: close`), ready to
/// write verbatim.
fn http_response(body: &str) -> Vec<u8> {
    let mut response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

/// Whether `buf` holds a complete scrape request: everything up to the
/// header terminator (`\r\n\r\n`, or a bare `\n\n` from hand-typed
/// clients).  The request contents are never interpreted — any complete
/// request is answered with the full exposition.
fn request_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// The `/metrics` endpoint: a background accept thread answering one
/// scrape per connection from the process-wide registry, and counting
/// each answered scrape in `knw_serve_scrapes_total`.
///
/// Dropping the server stops the thread.
#[derive(Debug)]
pub struct MetricsServer(AcceptThread);

impl MetricsServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free port; see
    /// [`local_addr`](Self::local_addr)) and starts answering scrapes of
    /// the process-wide registry.
    ///
    /// # Errors
    ///
    /// The bind failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let scrapes = knw_metrics::global().counter("knw_serve_scrapes_total", &[]);
        let listener = AcceptThread::spawn(addr, "metrics-server", move |stream, _peer| {
            if serve_one_scrape(stream).is_ok() {
                scrapes.inc();
            }
        })?;
        Ok(Self(listener))
    }

    /// The address the server listens on — what a scraper dials.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }
}

/// Answers one blocking scrape: read to the header terminator (bounded in
/// bytes), write the full exposition, close — all within
/// [`SCRAPE_DEADLINE`].
fn serve_one_scrape(mut stream: TcpStream) -> std::io::Result<()> {
    let deadline = Instant::now() + SCRAPE_DEADLINE;
    // Each blocking call may wait only for what is left of the deadline.
    let time_left = || {
        let left = deadline.saturating_duration_since(Instant::now());
        (!left.is_zero()).then_some(left).ok_or(ErrorKind::TimedOut)
    };
    let mut request = Vec::new();
    let mut chunk = [0u8; 1024];
    while !request_complete(&request) && request.len() < MAX_REQUEST_BYTES {
        stream.set_read_timeout(Some(time_left()?))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&chunk[..n]);
    }
    let response = http_response(&knw_metrics::global().render());
    let mut written = 0;
    while written < response.len() {
        stream.set_write_timeout(Some(time_left()?))?;
        match stream.write(&response[written..])? {
            0 => return Err(ErrorKind::WriteZero.into()),
            n => written += n,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Serializes the tests that scrape: `knw_serve_scrapes_total` lives in
    /// the process-wide registry.
    static SCRAPING: Mutex<()> = Mutex::new(());

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    #[test]
    fn responses_carry_the_exposition_headers_and_exact_length() {
        let body = "knw_test_total 1\n";
        let response = http_response(body);
        let text = String::from_utf8(response).expect("ASCII response");
        let (head, tail) = text.split_once("\r\n\r\n").expect("header terminator");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(head.contains("Connection: close"));
        assert_eq!(tail, body);
    }

    #[test]
    fn request_completion_waits_for_the_header_terminator() {
        assert!(!request_complete(b""));
        assert!(!request_complete(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"));
        assert!(request_complete(
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
        ));
        assert!(request_complete(b"GET /metrics\n\n"), "bare-LF clients");
    }

    #[test]
    fn a_real_scraper_gets_the_registry_over_tcp() {
        let _scraping = SCRAPING.lock().unwrap_or_else(PoisonError::into_inner);
        // The server scrapes the process-wide registry; plant a marker
        // counter so the assertion is independent of whatever other tests
        // registered.
        knw_metrics::global()
            .counter("knw_expo_selftest_total", &[])
            .add(3);
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let response = scrape(server.local_addr());
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.contains("# TYPE knw_expo_selftest_total counter"));
        assert!(response.contains("knw_expo_selftest_total 3"));
    }

    /// A scraper that connects and sends nothing is dropped at the scrape
    /// deadline, the scraper queued behind it is then answered, and only
    /// answered scrapes are counted.
    #[test]
    fn a_silent_scraper_is_dropped_at_the_deadline() {
        let _scraping = SCRAPING.lock().unwrap_or_else(PoisonError::into_inner);
        let scrapes = knw_metrics::global().counter("knw_serve_scrapes_total", &[]);
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let before = scrapes.get();
        let started = Instant::now();
        let mut silent = TcpStream::connect(addr).expect("connect");
        let answered = std::thread::spawn(move || scrape(addr));
        silent
            .set_read_timeout(Some(2 * SCRAPE_DEADLINE))
            .expect("timeout");
        let eof = silent.read(&mut [0u8; 1]).expect("closed, not timed out");
        let waited = started.elapsed();
        assert_eq!(eof, 0, "the silent scraper got no answer");
        assert!(
            waited >= SCRAPE_DEADLINE - Duration::from_millis(500),
            "dropped before the deadline: {waited:?}"
        );
        assert!(
            waited < SCRAPE_DEADLINE + Duration::from_secs(5),
            "held past the deadline: {waited:?}"
        );
        assert!(answered
            .join()
            .expect("scraper thread")
            .starts_with("HTTP/1.1 200 OK\r\n"));
        // One scrape at a time: this one renders after the answered scrape
        // was counted, and before it is counted itself.
        let body = scrape(addr);
        let line = format!("knw_serve_scrapes_total {}\n", before + 1);
        assert!(body.contains(&line), "{body}");
    }
}
