//! The cluster demo front end: fans a synthetic workload out to N workers
//! over the frame protocol, merges their serialized shards, and checks the
//! merged estimate against a single-process run of the same sketch — which
//! must agree **bit for bit** (that is the whole point of exact
//! mergeability).
//!
//! ```text
//! knw-aggregate [--transport pipe|tcp|pool] [--workers N] [--mode f0|l0]
//!               [--estimator NAME] [--updates COUNT] [--universe N]
//!               [--epsilon E] [--seed S]
//!               [--routing round-robin|hash-affine] [--precoalesce]
//!               [--recover]
//!               [--worker PATH]                       (pipe transport)
//!               [--connect ADDR]... [--io-timeout S]  (tcp transport)
//!               [--pool REGADDR]                      (pool placement)
//!               [--serve ADDR [--sessions N]]         (serve mode, Linux)
//!               [--metrics ADDR]                      (scrape endpoint)
//! ```
//!
//! Three transports:
//!
//! * `--transport pipe` (default): spawns `--workers` N `knw-worker` child
//!   processes on stdin/stdout pipes.  The worker binary defaults to the
//!   sibling `knw-worker` next to this executable (`--worker PATH`
//!   overrides).
//! * `--transport tcp`: connects to **already-running** workers — one
//!   `--connect host:port` per worker (repeatable; start them with
//!   `knw-worker --listen host:port`).  The worker count is the address
//!   count; `--io-timeout SECS` bounds every read/write so a stalled
//!   worker fails the run instead of hanging it (`0` disables the bound).
//! * `--pool REGADDR` (implies `--transport pool`): binds a worker
//!   registry on `REGADDR` and places `--workers` N shards from the pool
//!   of spares that announce themselves (`knw-worker --listen 0 --register
//!   REGADDR`) — no static address list.  Spares are health-probed
//!   continuously; if the pool cannot cover N live workers the run refuses
//!   typed instead of starting a smaller fleet.  `--io-timeout` bounds
//!   these links too.
//!
//! In `--serve` mode the process also reads **control commands** from
//! stdin: `rescale N` elastically reshards the live fleet to N workers
//! ([`ClusterAggregator::scale_to`]) with the merged estimate staying
//! bit-identical; retired workers return to the pool and grows draw from
//! it.
//!
//! With `--serve ADDR` (Linux) the binary stops generating its own
//! workload and becomes **estimation-as-a-service**: it binds `ADDR`,
//! prints a `serving on <addr>` banner, and multiplexes concurrent client
//! sessions (the frame protocol: `Hello`, `Batch`…, `Snapshot`/`Finish`)
//! over the shared worker fleet with one nonblocking event loop — no
//! thread per session.  `--sessions N` stops after N completed sessions
//! and prints the merged estimate plus the serve statistics.
//!
//! `--metrics ADDR` exposes the process-wide metrics registry as a
//! Prometheus-text-format scrape endpoint for the duration of the run: in
//! serve mode the listener is multiplexed on the same nonblocking event
//! loop as the sessions; in the generate modes a background
//! [`MetricsServer`] thread answers scrapes.
//!
//! With `--mode l0` the stream is churn-heavy signed updates; otherwise a
//! skewed insert-only stream.  `--recover` turns worker loss from a
//! run-fatal error into a supervised reconnect-and-replay (default
//! [`RecoveryPolicy`]): on either transport the lost shard is rebuilt on a
//! fresh link from the aggregator's replay journal.

use knw_cluster::{
    sibling_worker_exe, ClusterAggregator, ClusterConfig, ClusterError, ClusterUpdate,
    MetricsServer, RecoveryPolicy, SketchSpec, WorkerRegistry, WorkerSource,
};
use knw_engine::{EngineConfig, RoutingPolicy};
use knw_metrics::knw_log;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    transport: String,
    /// `None` until `--workers`; pipe transport defaults to 4, the tcp
    /// transport derives the count from `--connect` and rejects the flag.
    workers: Option<usize>,
    mode: String,
    /// `None` until `--estimator`; defaults per mode (`knw-f0` / `knw-l0`).
    estimator: Option<String>,
    updates: usize,
    universe: u64,
    epsilon: f64,
    seed: u64,
    routing: RoutingPolicy,
    precoalesce: bool,
    worker: Option<PathBuf>,
    connect: Vec<String>,
    /// Pool placement: bind a [`WorkerRegistry`] on this address, wait for
    /// `--workers` spares to announce themselves (`knw-worker --listen 0
    /// --register ADDR`), and place the fleet from the pool — no static
    /// address list.
    pool: Option<String>,
    /// `None` until `--io-timeout`; `Some(0)` disables the timeout.
    io_timeout_secs: Option<u64>,
    /// Reconnect-and-replay recovery for lost workers (`--recover`).
    recover: bool,
    /// Serve mode: bind this address and multiplex client sessions over
    /// the worker fleet instead of generating a synthetic workload.
    serve: Option<String>,
    /// Serve mode: stop after this many completed sessions.
    sessions: Option<usize>,
    /// Bind this address as a Prometheus-text scrape endpoint for the run.
    metrics: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            transport: "pipe".into(),
            workers: None,
            mode: "f0".into(),
            estimator: None,
            updates: 1_000_000,
            universe: 1 << 20,
            epsilon: 0.05,
            seed: 7,
            routing: RoutingPolicy::RoundRobin,
            precoalesce: false,
            worker: None,
            connect: Vec::new(),
            pool: None,
            io_timeout_secs: None,
            recover: false,
            serve: None,
            sessions: None,
            metrics: None,
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options::default();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--transport" => {
                opts.transport = match value("--transport")?.as_str() {
                    transport @ ("pipe" | "tcp" | "pool") => transport.to_string(),
                    other => {
                        return Err(format!(
                            "unknown transport {other:?} (expected pipe, tcp or pool)"
                        ))
                    }
                };
            }
            "--workers" => {
                opts.workers = Some(value("--workers")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--mode" => {
                opts.mode = match value("--mode")?.as_str() {
                    mode @ ("f0" | "l0") => mode.to_string(),
                    other => return Err(format!("unknown mode {other:?} (expected f0 or l0)")),
                };
            }
            "--estimator" => opts.estimator = Some(value("--estimator")?),
            "--updates" => {
                opts.updates = value("--updates")?.parse().map_err(|e| format!("{e}"))?
            }
            "--universe" => {
                opts.universe = value("--universe")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--epsilon" => {
                opts.epsilon = value("--epsilon")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--routing" => {
                opts.routing = match value("--routing")?.as_str() {
                    "round-robin" => RoutingPolicy::RoundRobin,
                    "hash-affine" => RoutingPolicy::HashAffine { seed: 0 },
                    other => return Err(format!("unknown routing policy {other:?}")),
                };
            }
            "--precoalesce" => opts.precoalesce = true,
            "--recover" => opts.recover = true,
            "--worker" => opts.worker = Some(PathBuf::from(value("--worker")?)),
            "--connect" => opts.connect.push(value("--connect")?),
            "--pool" => opts.pool = Some(value("--pool")?),
            "--serve" => opts.serve = Some(value("--serve")?),
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--sessions" => {
                opts.sessions = Some(value("--sessions")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--io-timeout" => {
                opts.io_timeout_secs =
                    Some(value("--io-timeout")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: knw-aggregate [--transport pipe|tcp|pool] [--workers N] [--mode f0|l0]\n\
                     \u{20}                    [--estimator NAME] [--updates COUNT] [--universe N]\n\
                     \u{20}                    [--epsilon E] [--seed S]\n\
                     \u{20}                    [--routing round-robin|hash-affine] [--precoalesce]\n\
                     \u{20}                    [--recover]\n\
                     \u{20}                    [--worker PATH]                       (pipe transport)\n\
                     \u{20}                    [--connect ADDR]... [--io-timeout S]  (tcp transport)\n\
                     \u{20}                    [--pool REGADDR]                      (pool placement)\n\
                     \u{20}                    [--serve ADDR [--sessions N]]         (serve mode, Linux)\n\
                     \u{20}                    [--metrics ADDR]                      (scrape endpoint)\n\
                     transports: pipe spawns N `knw-worker` children on stdin/stdout;\n\
                     \u{20}           tcp connects to running `knw-worker --listen ADDR` hosts,\n\
                     \u{20}           one --connect per worker;\n\
                     \u{20}           pool binds a registry on REGADDR and places --workers N\n\
                     \u{20}           shards from the spares that `knw-worker --register` there.\n\
                     --recover: reconnect-and-replay lost workers (bounded retries +\n\
                     \u{20}          per-shard replay journal) instead of failing the run.\n\
                     --serve ADDR: estimation-as-a-service — bind ADDR, print a\n\
                     \u{20}          `serving on <addr>` banner, and multiplex concurrent\n\
                     \u{20}          client sessions over the worker fleet (one nonblocking\n\
                     \u{20}          event loop, no thread per session; Linux only).\n\
                     \u{20}          stdin accepts `rescale N` to reshard the live fleet\n\
                     \u{20}          elastically between sessions (estimates stay exact).\n\
                     --metrics ADDR: serve Prometheus-text scrapes of the process\n\
                     \u{20}          metrics registry for the duration of the run (port 0\n\
                     \u{20}          picks a free port; prints `metrics on <addr>`).\n\
                     F0 estimators: {}\nL0 estimators: {}",
                    knw_cluster::f0_estimator_names().join(", "),
                    knw_cluster::l0_estimator_names().join(", "),
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // `--pool ADDR` selects the pool placement without a `--transport`
    // spelling; an explicit `--transport pool` without the address is a
    // misconfiguration.
    if opts.pool.is_some() && opts.transport == "pipe" {
        opts.transport = "pool".into();
    }
    // Each transport owns its flags; a flag for another transport is a
    // misconfiguration, not something to silently ignore.
    match opts.transport.as_str() {
        "tcp" => {
            if opts.pool.is_some() {
                return Err(
                    "--pool conflicts with --transport tcp; the pool IS the placement \
                            (drop the --transport flag)"
                        .into(),
                );
            }
            if opts.connect.is_empty() {
                return Err("--transport tcp needs at least one --connect ADDR".into());
            }
            if opts.workers.is_some() {
                return Err(
                    "--workers is pipe/pool-only; the tcp worker count is the number of \
                     --connect flags"
                        .into(),
                );
            }
            if opts.worker.is_some() {
                return Err("--worker PATH is pipe-only; tcp connects to running workers".into());
            }
        }
        "pool" => {
            if opts.pool.is_none() {
                return Err(
                    "--transport pool needs --pool ADDR (the registry bind address)".into(),
                );
            }
            if !opts.connect.is_empty() {
                return Err(
                    "--connect conflicts with --pool; pooled workers announce themselves \
                     via `knw-worker --register`"
                        .into(),
                );
            }
            if opts.worker.is_some() {
                return Err(
                    "--worker PATH is pipe-only; pooled workers are already running".into(),
                );
            }
        }
        _ => {
            if !opts.connect.is_empty() {
                return Err("--connect is only meaningful with --transport tcp".into());
            }
            if opts.io_timeout_secs.is_some() {
                return Err(
                    "--io-timeout is only meaningful with --transport tcp or --pool".into(),
                );
            }
        }
    }
    if opts.sessions.is_some() && opts.serve.is_none() {
        return Err("--sessions is only meaningful with --serve ADDR".into());
    }
    Ok(opts)
}

/// How long the pool placement waits for enough spares to announce
/// themselves before refusing with `PoolExhausted`.
const POOL_WAIT: Duration = Duration::from_secs(30);

/// The cluster configuration the flags describe.  Pool placement is a TCP
/// configuration with an empty address list, drawing every shard from
/// `registry`; the caller binds that registry, so this conversion opens no
/// socket.
fn cluster_config(
    opts: &Options,
    registry: Option<Arc<WorkerRegistry>>,
) -> Result<ClusterConfig, ClusterError> {
    let engine = EngineConfig::new(opts.workers.unwrap_or(4))
        .with_routing(opts.routing)
        .with_precoalesce(opts.precoalesce);
    let mut config = if opts.transport == "pipe" {
        let worker = opts
            .worker
            .clone()
            .or_else(sibling_worker_exe)
            .ok_or_else(|| ClusterError::Io {
                worker: None,
                source: std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "knw-worker binary not found; pass --worker PATH",
                ),
            })?;
        ClusterConfig::pipe(engine.shards, worker)
    } else {
        ClusterConfig::tcp(opts.connect.iter().cloned(), registry)
    }
    .with_engine(engine);
    if let Some(secs) = opts.io_timeout_secs {
        // 0 = no timeout (a zero Duration would be rejected by
        // set_read_timeout and fail every connection).
        config = config.with_io_timeout((secs > 0).then(|| Duration::from_secs(secs)));
    }
    if opts.recover {
        // Pipe recovery re-spawns a fresh child and replays the journal.
        config = config.with_recovery(RecoveryPolicy::default());
    }
    Ok(config)
}

/// [`cluster_config`] with the `--pool` registry bound: its spares are
/// health-probed, and get a bounded window to announce themselves.
fn configure(opts: &Options) -> Result<ClusterConfig, ClusterError> {
    let Some(addr) = &opts.pool else {
        return cluster_config(opts, None);
    };
    let registry = Arc::new(
        WorkerRegistry::bind(addr).map_err(|source| ClusterError::Io {
            worker: None,
            source,
        })?,
    );
    println!("worker pool registry on {}", registry.local_addr());
    // Health-probe the spares continuously: pops skip addresses that
    // failed their last connect-and-greet probe.
    registry.start_probing(Duration::from_secs(2), Duration::from_secs(1));
    // Spares race the aggregator's startup; give them a bounded window to
    // announce themselves before refusing.
    let deadline = std::time::Instant::now() + POOL_WAIT;
    while registry.live_available() < opts.workers.unwrap_or(4)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster_config(opts, Some(registry))
}

/// How the banner names the workers' transport.
fn describe(config: &ClusterConfig) -> String {
    match &config.workers {
        WorkerSource::Spawn(_) => "pipe (spawned children)".into(),
        WorkerSource::Tcp {
            addrs,
            registry: Some(registry),
        } if addrs.is_empty() => format!(
            "pool (registry {}, {} live spare(s))",
            registry.local_addr(),
            registry.live_available(),
        ),
        WorkerSource::Tcp { addrs, .. } => format!("tcp ({})", addrs.join(", ")),
    }
}

/// A skewed insert-only stream (a few hot items, a long tail).
fn f0_stream(len: usize, universe: u64, seed: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            let x = (i + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // ~1/4 of the stream hits a 256-item hot set.
            if x.is_multiple_of(4) {
                x % 256
            } else {
                x % universe
            }
        })
        .collect()
}

/// A churn-heavy signed stream (inserts, partial deletes, cancellations).
fn l0_stream(len: usize, universe: u64, seed: u64) -> Vec<(u64, i64)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| (next() % universe, (next() % 9) as i64 - 4))
        .collect()
}

/// Serve mode: bind `addr`, multiplex client sessions over the worker
/// fleet with the nonblocking event loop, and (once `--sessions N`
/// completes) print the merged estimate and serve statistics.
#[cfg(target_os = "linux")]
fn run_serve(opts: &Options, addr: &str, estimator: &str) -> Result<(), ClusterError> {
    use knw_cluster::{serve_sessions, SessionServeOptions};
    use std::net::TcpListener;

    let config = configure(opts)?;
    let listener = TcpListener::bind(addr).map_err(|source| ClusterError::Io {
        worker: None,
        source,
    })?;
    let bound = listener.local_addr().map_err(|source| ClusterError::Io {
        worker: None,
        source,
    })?;

    let mut serve_opts = SessionServeOptions::default();
    if let Some(n) = opts.sessions {
        serve_opts = serve_opts.with_max_sessions(n);
    }
    // The scrape listener rides the same epoll loop as the sessions — no
    // extra thread; see `SessionServeOptions::with_metrics_listener`.
    if let Some(metrics_addr) = &opts.metrics {
        let scrape = TcpListener::bind(metrics_addr).map_err(|source| ClusterError::Io {
            worker: None,
            source,
        })?;
        let scrape_bound = scrape.local_addr().map_err(|source| ClusterError::Io {
            worker: None,
            source,
        })?;
        serve_opts = serve_opts.with_metrics_listener(std::sync::Arc::new(scrape));
        println!("metrics on {scrape_bound}");
    }

    // Runtime elastic rescaling: a control thread reads stdin lines and
    // forwards `rescale N` commands to the serve loop, which applies them
    // between ticks as `ClusterAggregator::scale_to(N)`.  The thread
    // blocks on stdin for the life of the process; it never outlives main.
    let (rescale_tx, rescale_rx) = std::sync::mpsc::channel::<usize>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => return, // EOF: no controller attached
                Ok(_) => {}
            }
            let mut words = line.split_whitespace();
            match (words.next(), words.next().map(str::parse::<usize>)) {
                (Some("rescale"), Some(Ok(target))) => {
                    if rescale_tx.send(target).is_err() {
                        return; // serve loop gone
                    }
                    knw_log!(INFO, "knw-aggregate", "rescale queued", target = target);
                }
                (None, _) => {} // blank line
                _ => {
                    knw_log!(
                        WARN,
                        "knw-aggregate",
                        "unknown control command (expected `rescale N`)",
                        line = line.trim(),
                    );
                }
            }
        }
    });
    serve_opts = serve_opts.with_rescale_channel(rescale_rx);

    println!(
        "serving on {bound} ({} workers via {}, `{estimator}`) …",
        config.engine.shards,
        describe(&config),
    );

    let (stats, estimate) = if opts.mode == "l0" {
        let spec = SketchSpec::l0(estimator, opts.epsilon, opts.universe, opts.seed);
        let mut aggregator = ClusterAggregator::<(u64, i64)>::start(&config, &spec)?;
        let stats = serve_sessions(&listener, &mut aggregator, &serve_opts)?;
        let merged = aggregator.finish()?;
        (
            stats,
            <(u64, i64) as ClusterUpdate>::estimate(merged.as_ref()),
        )
    } else {
        let spec = SketchSpec::f0(estimator, opts.epsilon, opts.universe, opts.seed);
        let mut aggregator = ClusterAggregator::<u64>::start(&config, &spec)?;
        let stats = serve_sessions(&listener, &mut aggregator, &serve_opts)?;
        let merged = aggregator.finish()?;
        (stats, <u64 as ClusterUpdate>::estimate(merged.as_ref()))
    };

    println!(
        "sessions served    : {} ({} errored, {} refused; peak {} concurrent)",
        stats.sessions_served,
        stats.sessions_errored,
        stats.sessions_refused,
        stats.peak_concurrent,
    );
    println!(
        "ingested           : {} updates in {} batches; {} snapshots served",
        stats.updates_ingested, stats.batches_ingested, stats.snapshots_served,
    );
    println!("merged estimate    : {estimate}");
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn run_serve(_opts: &Options, _addr: &str, _estimator: &str) -> Result<(), ClusterError> {
    Err(ClusterError::Io {
        worker: None,
        source: std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "--serve needs the epoll readiness loop and is Linux-only",
        ),
    })
}

/// Streams `stream` through a fleet started from `config` and through one
/// local sketch; returns the cluster-merged and single-process estimates.
fn aggregate<U: ClusterUpdate>(
    config: &ClusterConfig,
    spec: &SketchSpec,
    stream: &[U],
) -> Result<(f64, f64), ClusterError> {
    let mut cluster = ClusterAggregator::<U>::start(config, spec)?;
    for chunk in stream.chunks(1 << 16) {
        cluster.ingest_batch(chunk);
    }
    let merged = cluster.finish()?;
    let mut single = U::build(spec)?;
    U::apply(single.as_mut(), stream);
    Ok((U::estimate(merged.as_ref()), U::estimate(single.as_ref())))
}

fn run(opts: &Options) -> Result<(), ClusterError> {
    let estimator = opts.estimator.clone().unwrap_or_else(|| {
        if opts.mode == "l0" {
            "knw-l0"
        } else {
            "knw-f0"
        }
        .to_string()
    });

    if let Some(addr) = &opts.serve {
        return run_serve(opts, addr, &estimator);
    }

    // The generate modes are blocking, so the scrape endpoint is a
    // background thread; held until the run finishes, then dropped.
    let mut _metrics_server = None;
    if let Some(metrics_addr) = &opts.metrics {
        let server = MetricsServer::bind(metrics_addr).map_err(|source| ClusterError::Io {
            worker: None,
            source,
        })?;
        println!("metrics on {}", server.local_addr());
        _metrics_server = Some(server);
    }

    let config = configure(opts)?;

    println!(
        "aggregating over {} workers via {} ({:?} routing{}) for `{estimator}` over {} updates …",
        config.engine.shards,
        describe(&config),
        opts.routing,
        if opts.precoalesce {
            ", pre-coalescing"
        } else {
            ""
        },
        opts.updates,
    );

    let (cluster_estimate, single_estimate) = if opts.mode == "l0" {
        let spec = SketchSpec::l0(&estimator, opts.epsilon, opts.universe, opts.seed);
        aggregate(
            &config,
            &spec,
            &l0_stream(opts.updates, opts.universe, opts.seed),
        )?
    } else {
        let spec = SketchSpec::f0(&estimator, opts.epsilon, opts.universe, opts.seed);
        aggregate(
            &config,
            &spec,
            &f0_stream(opts.updates, opts.universe, opts.seed),
        )?
    };

    println!("cluster-merged estimate : {cluster_estimate}");
    println!("single-process estimate : {single_estimate}");
    println!(
        "bit-identical           : {}",
        cluster_estimate.to_bits() == single_estimate.to_bits()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            knw_log!(ERROR, "knw-aggregate", "invalid arguments", error = message);
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            knw_log!(ERROR, "knw-aggregate", "run failed", error = e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(args: &[&str]) -> Options {
        parse_args(args.iter().map(|arg| (*arg).to_string())).expect("valid flags")
    }

    /// Pool-placed links get the `--io-timeout` bound like static TCP
    /// links do, and `--io-timeout 0` disables it.
    #[test]
    fn pool_placement_honours_the_io_timeout() {
        let config = cluster_config(
            &options(&["--pool", "127.0.0.1:0", "--io-timeout", "3"]),
            None,
        )
        .expect("config");
        assert!(matches!(&config.workers, WorkerSource::Tcp { addrs, .. } if addrs.is_empty()));
        assert_eq!(config.io_timeout, Some(Duration::from_secs(3)));
        let config = cluster_config(
            &options(&["--pool", "127.0.0.1:0", "--io-timeout", "0"]),
            None,
        )
        .expect("config");
        assert_eq!(config.io_timeout, None);
    }
}
