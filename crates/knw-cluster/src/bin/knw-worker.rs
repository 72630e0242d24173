//! The shard worker process: speaks the `knw-cluster` frame protocol (see
//! `knw_cluster::frame`), holding one shard sketch per aggregation session.
//!
//! Two modes:
//!
//! * **Pipe** (no flags): one session on stdin/stdout.  Spawned by the
//!   aggregator (`knw_cluster::ClusterAggregator::start` with a pipe
//!   `ClusterConfig`, or the
//!   `knw-aggregate` demo binary); not intended for interactive use.
//!   Exits 0 on a clean `Finish` (or aggregator EOF), nonzero after
//!   reporting an `Err` frame.
//! * **Listen** (`--listen <addr>`): a TCP serve loop.  Binds the address
//!   (port 0 picks a free port), prints `listening on <addr>` on stdout so
//!   supervisors and tests can discover the bound port, then serves one
//!   aggregation session per accepted connection, sequentially, forever —
//!   or for `--sessions N` sessions (`--once` = `--sessions 1`).  A failed
//!   session is reported to its aggregator and logged, and the loop keeps
//!   serving; transient `accept(2)` failures are retried with backoff;
//!   `--io-timeout SECS` bounds how long a session may stall on a
//!   half-open peer.  Aggregators reach listening workers with
//!   a TCP `ClusterConfig` / `knw-aggregate --transport tcp`.
//!   With `--register ADDR` the worker additionally announces its bound
//!   address to the worker registry at `ADDR`
//!   (`knw_cluster::WorkerRegistry`), volunteering as a recovery spare: a
//!   `--recover`ing aggregator that loses a worker re-resolves the lost
//!   shard onto the next registered spare and replays its journal there.

use knw_cluster::ServeOptions;
use knw_metrics::knw_log;
use std::io::{stdin, stdout, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    listen: Option<String>,
    register: Option<String>,
    serve: ServeOptions,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        listen: None,
        register: None,
        serve: ServeOptions::default(),
    };
    let mut serve_flag = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--listen" => opts.listen = Some(value("--listen")?),
            "--register" => opts.register = Some(value("--register")?),
            "--once" => {
                serve_flag = Some("--once");
                opts.serve.max_sessions = Some(1);
            }
            "--sessions" => {
                serve_flag = Some("--sessions");
                opts.serve.max_sessions =
                    Some(value("--sessions")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--io-timeout" => {
                serve_flag = Some("--io-timeout");
                let secs: u64 = value("--io-timeout")?.parse().map_err(|e| format!("{e}"))?;
                // 0 = no timeout (a zero Duration would be rejected by
                // set_read_timeout and fail every session).
                opts.serve.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--help" | "-h" => {
                println!(
                    "usage: knw-worker                      one session on stdin/stdout (pipe mode)\n\
                     \u{20}      knw-worker --listen ADDR     TCP serve loop (one session per connection)\n\
                     \u{20}        [--once | --sessions N]    stop after 1 / N sessions (default: forever)\n\
                     \u{20}        [--io-timeout SECS]        per-connection read/write timeout\n\
                     \u{20}                                   (default 30; 0 = none)\n\
                     \u{20}        [--register ADDR]          announce the bound address to an\n\
                     \u{20}                                   aggregator's worker registry (recovery\n\
                     \u{20}                                   re-resolves lost workers onto this one)\n\
                     Prints `listening on <addr>` once bound; port 0 picks a free port."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // The serve knobs belong to listen mode; in pipe mode they would be
    // silently dropped, which reads like a hang — reject instead.
    if opts.listen.is_none() {
        if let Some(flag) = serve_flag {
            return Err(format!("{flag} is only meaningful with --listen ADDR"));
        }
        if opts.register.is_some() {
            return Err("--register is only meaningful with --listen ADDR".into());
        }
    }
    Ok(opts)
}

fn listen(addr: &str, register: Option<&str>, serve: &ServeOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    // Announce the bound address (meaningful with port 0) so whoever
    // started us knows where to point the aggregator.
    println!("listening on {bound}");
    stdout().flush()?;
    // The --register handshake: announce the bound address to the
    // aggregator side's WorkerRegistry, so a recovering aggregator can
    // re-resolve a lost worker onto this one.  An unreachable registry is
    // fatal — a spare that silently failed to register would never be
    // found, which reads like a hang on the aggregator side.
    if let Some(registry) = register {
        knw_cluster::register_worker(registry, &bound.to_string())?;
    }
    knw_cluster::serve(&listener, serve)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            knw_log!(ERROR, "knw-worker", "invalid arguments", error = message);
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = &opts.listen {
        return match listen(addr, opts.register.as_deref(), &opts.serve) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                knw_log!(
                    ERROR,
                    "knw-worker",
                    "listener failed",
                    addr = addr,
                    error = e
                );
                ExitCode::FAILURE
            }
        };
    }
    let mut input = BufReader::new(stdin().lock());
    let mut output = BufWriter::new(stdout().lock());
    match knw_cluster::run_worker(&mut input, &mut output) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            knw_log!(ERROR, "knw-worker", "session failed", error = message);
            ExitCode::FAILURE
        }
    }
}
