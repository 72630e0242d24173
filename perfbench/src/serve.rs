//! The serve workloads: `knw-aggregate --serve` with a pipe-worker fleet,
//! driven over the frame protocol by client sessions, one thread each.
//!
//! Each session is a closed loop: it writes `snapshot_every` pre-encoded
//! `Batch` frames, then a `Snapshot`, and waits for the `Shard` reply
//! before it goes on.  Set-up is measured by a round trip, from process
//! launch to the reply to the first `Snapshot` on an empty aggregate (the
//! `serving on` banner comes before the fleet is spawned).

use crate::report::Report;
use crate::trace::{finish_trace, traced_cycle, ModeTally, Tracer};
use crate::{gen, probes, procfs, prom, stats, Run, OUT_DIR, SETUP_PAUSE, SKETCH_SEED};
use knw_cluster::{
    encode_frame, read_frame_into, ClusterUpdate, Frame, FrameBuf, FrameView, HelloConfig,
    SketchSpec,
};
use knw_engine::RoutingPolicy;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const UNIVERSE: u64 = 1 << 24;
const EPSILON: f64 = 0.05;
const WORKERS: usize = 2;
/// Bound on every socket read or write, on waiting for the banner and on
/// waiting for the process to exit: a stall fails the run, never hangs it.
const IO_DEADLINE: Duration = Duration::from_secs(20);

/// How one serve workload drives the service.
struct Shape {
    /// Client sessions, one thread each.
    sessions: usize,
    batch: usize,
    snapshot_every: usize,
    pool_per_session: usize,
    routing: RoutingPolicy,
    aggregate_args: &'static [&'static str],
    /// Launches per run: each measures set-up; the last one serves the load.
    launches: usize,
    /// The first session's loop cycles per CPU window (see `CpuWindows`).
    cycles_per_window: usize,
}

/// A stream model the serve workloads drive.
trait Served: ClusterUpdate + Sync {
    /// Whether re-applying an update the sketch has seen leaves it
    /// unchanged (inserts: yes; signed turnstile updates: no).
    const IDEMPOTENT: bool;
    const MERGE_METRIC: &'static str;
    fn spec() -> SketchSpec;
    fn generate(len: usize, seed: u64) -> Vec<Self>;
    /// The exact answer over what was sent.
    fn exact(sent: &[&[Self]]) -> f64;
    /// Layer probes particular to the stream model.
    fn model_probes(report: &mut Report, pool: &[Self], shape: &Shape, reference_ns: f64);
}

impl Served for u64 {
    const IDEMPOTENT: bool = true;
    const MERGE_METRIC: &'static str = "core.f0_merge_us";

    fn spec() -> SketchSpec {
        SketchSpec::f0("knw-f0", EPSILON, UNIVERSE, SKETCH_SEED)
    }

    fn generate(len: usize, seed: u64) -> Vec<Self> {
        gen::uniform(len, UNIVERSE, seed)
    }

    /// Distinct items.
    fn exact(sent: &[&[Self]]) -> f64 {
        let mut items = sent.concat();
        items.sort_unstable();
        items.dedup();
        items.len() as f64
    }

    fn model_probes(report: &mut Report, pool: &[Self], _: &Shape, reference_ns: f64) {
        report.layer(
            "hash.pairwise_ns_per_item",
            probes::pairwise_hash_ns(pool, UNIVERSE, SKETCH_SEED),
        );
        report.layer("core.f0_insert_ns_per_item", reference_ns);
    }
}

impl Served for (u64, i64) {
    const IDEMPOTENT: bool = false;
    const MERGE_METRIC: &'static str = "core.l0_merge_us";

    fn spec() -> SketchSpec {
        SketchSpec::l0("knw-l0", EPSILON, UNIVERSE, SKETCH_SEED)
    }

    fn generate(len: usize, seed: u64) -> Vec<Self> {
        gen::churn(len, UNIVERSE, seed)
    }

    /// Items whose net count is nonzero.
    fn exact(sent: &[&[Self]]) -> f64 {
        let mut net: HashMap<u64, i64> = HashMap::new();
        for &(item, delta) in sent.iter().flat_map(|batch| batch.iter()) {
            *net.entry(item).or_insert(0) += delta;
        }
        net.values().filter(|&&v| v != 0).count() as f64
    }

    fn model_probes(report: &mut Report, pool: &[Self], shape: &Shape, reference_ns: f64) {
        report.layer("core.l0_update_ns_per_update", reference_ns);
        let (ns, ratio) = probes::coalesce(pool, shape.batch);
        report.layer("core.coalesce_ns_per_update", ns);
        report.layer("core.coalesce_out_per_in", ratio);
    }
}

pub fn run_f0(run: &Run) -> Result<Report, String> {
    let shape = Shape {
        sessions: 2,
        batch: 1024,
        snapshot_every: 256,
        pool_per_session: 1 << 21,
        routing: RoutingPolicy::RoundRobin,
        aggregate_args: &[],
        // A launch takes a few milliseconds, so many are cheap.
        launches: 31,
        // About a third of a second: updates the other session has sent but
        // not yet had answered blur a window by at most one of its cycles.
        cycles_per_window: 32,
    };
    run_serve::<u64>(run, &shape)
}

pub fn run_l0(run: &Run) -> Result<Report, String> {
    let shape = Shape {
        // One session: snapshot requests of two sessions that arrive in the
        // same tick share one merge, and merges are most of this workload's
        // CPU time, so with two its cost per update moved with their timing.
        sessions: 1,
        batch: 4096,
        snapshot_every: 16,
        pool_per_session: 1 << 20,
        routing: RoutingPolicy::HashAffine { seed: 0 },
        aggregate_args: &["--precoalesce", "--routing", "hash-affine"],
        // A launch takes about half a second (the L0 shards are large).
        launches: 7,
        // A cycle takes about half a second and is the only one in flight.
        cycles_per_window: 1,
    };
    run_serve::<(u64, i64)>(run, &shape)
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// A running `knw-aggregate --serve`, leader of its own process group
/// (which its pipe workers join).  Dropping it kills the group if anything
/// in it still runs, reaps the aggregator and waits, bounded, until every
/// worker has ended — on every exit path, panics included.
struct Aggregate {
    child: Child,
    workers: Vec<u32>,
    lines: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
    stdout: Vec<String>,
    serve_addr: String,
    metrics_addr: String,
}

impl Aggregate {
    fn launch(
        exe: &Path,
        spec: &SketchSpec,
        shape: &Shape,
        sessions: usize,
        log: &Path,
    ) -> Result<Self, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut child = Command::new(exe)
            .args(["--serve", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--mode", if Self::is_l0(spec) { "l0" } else { "f0" }])
            .args(["--estimator", &spec.estimator])
            .args(["--epsilon", &spec.epsilon.to_string()])
            .args(["--universe", &spec.universe.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--sessions", &sessions.to_string()])
            .args(shape.aggregate_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut aggregate = Aggregate {
            child,
            workers: Vec::new(),
            lines,
            reader: Some(reader),
            stdout: Vec::new(),
            serve_addr: String::new(),
            metrics_addr: String::new(),
        };
        let deadline = Instant::now() + IO_DEADLINE;
        while aggregate.serve_addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = aggregate
                .lines
                .recv_timeout(left)
                .map_err(|_| "knw-aggregate printed no `serving on` banner".to_string())?;
            if let Some(addr) = line.strip_prefix("metrics on ") {
                aggregate.metrics_addr = addr.trim().to_string();
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                aggregate.serve_addr = rest.split_whitespace().next().unwrap_or("").to_string();
            }
            aggregate.stdout.push(line);
        }
        Ok(aggregate)
    }

    fn is_l0(spec: &SketchSpec) -> bool {
        spec.mode == knw_cluster::StreamMode::L0
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits, bounded, for the exit that follows the last served session.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + IO_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.drain_stdout();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("knw-aggregate exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("knw-aggregate did not exit after its last session".into()),
                Err(e) => return Err(format!("wait for knw-aggregate: {e}")),
            }
        }
    }

    fn drain_stdout(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.stdout.extend(self.lines.try_iter());
    }

    /// The `merged estimate : X` line printed on exit.
    fn merged_estimate(&self) -> Option<f64> {
        self.stdout.iter().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "merged estimate").then(|| value.trim().parse().ok())?
        })
    }
}

impl Drop for Aggregate {
    fn drop(&mut self) {
        let running = matches!(self.child.try_wait(), Ok(None));
        if running || self.workers.iter().any(|&pid| !procfs::ended(pid)) {
            // SAFETY: kill(2) takes two integers and touches no memory of
            // this process.  The negative pid names the process group the
            // child leads (spawned with `process_group(0)`); it cannot have
            // been reused, since the child is unreaped or a member lives.
            unsafe {
                kill(-(self.child.id() as i32), SIGKILL);
            }
        }
        let _ = self.child.wait();
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.workers.iter().any(|&pid| !procfs::ended(pid)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.drain_stdout();
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let fail = |e: std::io::Error| format!("connect {addr}: {e}");
    let sockaddr: SocketAddr = addr.parse().map_err(|e| format!("address {addr:?}: {e}"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, IO_DEADLINE).map_err(fail)?;
    stream.set_nodelay(true).map_err(fail)?;
    stream.set_read_timeout(Some(IO_DEADLINE)).map_err(fail)?;
    stream.set_write_timeout(Some(IO_DEADLINE)).map_err(fail)?;
    Ok(stream)
}

/// Reads one reply, which must be a `Shard`; returns its bytes.
fn read_shard(stream: &mut TcpStream, buf: &mut FrameBuf) -> Result<Vec<u8>, String> {
    match read_frame_into(stream, buf) {
        Ok(Some(FrameView::Owned(Frame::Shard(bytes)))) => Ok(bytes),
        Ok(Some(FrameView::Owned(Frame::Err(message)))) => Err(format!("server error: {message}")),
        Ok(Some(_)) => Err("unexpected reply frame".into()),
        Ok(None) => Err("server closed the session".into()),
        Err(e) => Err(format!("reply: {e}")),
    }
}

fn encoded(frame: &Frame) -> Result<Vec<u8>, String> {
    encode_frame(frame).map_err(|e| e.to_string())
}

/// Writes `request`, then reads the `Shard` reply.
fn round_trip(
    stream: &mut TcpStream,
    request: &[u8],
    buf: &mut FrameBuf,
) -> Result<Vec<u8>, String> {
    stream
        .write_all(request)
        .map_err(|e| format!("request: {e}"))?;
    read_shard(stream, buf)
}

/// What one client session did in the timed phase.
struct SessionOutcome {
    stream: Option<TcpStream>,
    batches_sent: u64,
    end: Option<Instant>,
    /// (reply time, latency in microseconds) of each snapshot query.
    latencies_us: Vec<(Instant, f64)>,
    tally: [ModeTally; 2],
    tracer: Tracer,
    /// The fleet's CPU time per update, measured by the first session.
    cpu: Option<procfs::CpuWindows>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

/// What every session of one run shares.
struct Load<'a> {
    addr: &'a str,
    shape: &'a Shape,
    run: &'a Run,
    barrier: &'a Barrier,
    origin: Instant,
    /// Updates answered so far, summed over the sessions.
    acked: &'a AtomicU64,
    /// The CPU clock of the service's processes.
    fleet: &'a procfs::CpuClock,
}

fn drive_session(index: u32, hello: &[u8], frames: &[Vec<u8>], load: &Load) -> SessionOutcome {
    let (shape, run) = (load.shape, load.run);
    let mut out = SessionOutcome {
        stream: None,
        batches_sent: 0,
        end: None,
        latencies_us: Vec::new(),
        tally: Default::default(),
        tracer: Tracer::new(load.origin, index),
        cpu: None,
        attempted: 0,
        failed: 0,
        error: None,
    };
    let opened = connect(load.addr).and_then(|mut stream| {
        stream
            .write_all(hello)
            .map_err(|e| format!("hello: {e}"))
            .map(|()| stream)
    });
    load.barrier.wait();
    let mut stream = match opened {
        Ok(stream) => stream,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    if index == 0 {
        match procfs::CpuWindows::start(load.fleet.clone(), load.acked.load(Ordering::SeqCst)) {
            Ok(cpu) => out.cpu = Some(cpu),
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        }
    }
    let snapshot = encode_frame(&Frame::Snapshot).expect("tiny frame");
    let mut buf = FrameBuf::new();
    let start = Instant::now();
    let batch = shape.batch as u64;
    for cycle in 0.. {
        let traced = traced_cycle(run.trace, cycle);
        let first_span = out.tracer.len();
        let cycle_start = Instant::now();
        for _ in 0..shape.snapshot_every {
            let frame = &frames[out.batches_sent as usize % frames.len()];
            out.attempted += 1;
            let t0 = Instant::now();
            if let Err(e) = stream.write_all(frame) {
                out.failed += 1;
                out.error = Some(format!("batch write: {e}"));
                return out;
            }
            if traced {
                out.tracer
                    .record("client.batch_write", t0, Instant::now(), batch);
            }
            out.batches_sent += 1;
        }
        out.attempted += 1;
        let q0 = Instant::now();
        let reply = round_trip(&mut stream, &snapshot, &mut buf);
        let q1 = Instant::now();
        match reply {
            Ok(bytes) if !bytes.is_empty() => {}
            Ok(_) => {
                out.failed += 1;
                out.error = Some("empty shard reply".into());
                return out;
            }
            Err(e) => {
                out.failed += 1;
                out.error = Some(format!("snapshot: {e}"));
                return out;
            }
        }
        out.latencies_us.push((q1, (q1 - q0).as_secs_f64() * 1e6));
        let updates = shape.snapshot_every as u64 * batch;
        let acked = load.acked.fetch_add(updates, Ordering::SeqCst) + updates;
        let window_ends = (cycle + 1) % shape.cycles_per_window as u64 == 0;
        if let Some(cpu) = out.cpu.as_mut().filter(|_| window_ends) {
            if let Err(e) = cpu.mark(acked) {
                out.failed += 1;
                out.error = Some(e);
                return out;
            }
        }
        out.end = Some(q1);
        out.tally[usize::from(traced)].add(updates, cycle_start, q1);
        if traced {
            out.tracer.record("client.snapshot_wait", q0, q1, 1);
            out.tracer
                .close_parent("cycle", first_span, cycle_start, q1, updates);
        }
        if start.elapsed() >= run.seconds {
            break;
        }
    }
    out.stream = Some(stream);
    out
}

/// The batches a session sent, as the single-process reference must see
/// them: in order, cycling through the pool; for idempotent updates one
/// pass over the pool stands for any number of passes.
fn sent_batches<U: Served>(pool: &[U], batch: usize, sent: u64) -> Vec<&[U]> {
    let batches: Vec<&[U]> = pool.chunks(batch).collect();
    let count = if U::IDEMPOTENT {
        (sent as usize).min(batches.len())
    } else {
        sent as usize
    };
    (0..count).map(|i| batches[i % batches.len()]).collect()
}

fn sibling_exe(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not built (run.sh builds it)", path.display()))
    }
}

fn run_serve<U: Served>(run: &Run, shape: &Shape) -> Result<Report, String> {
    let spec = U::spec();
    let mut report = Report::default();
    report.param("estimator", &spec.estimator);
    report.param("epsilon", spec.epsilon);
    report.param("universe", spec.universe);
    report.param("workers", format!("{WORKERS} (pipe)"));
    report.param("sessions", shape.sessions);
    report.param("updates_per_batch", shape.batch);
    report.param("batches_per_snapshot", shape.snapshot_every);
    report.param("pool_updates_per_session", shape.pool_per_session);
    report.param("aggregate_args", shape.aggregate_args.join(" "));
    report.param("launches", shape.launches);
    report.param("cycles_per_cpu_window", shape.cycles_per_window);

    let exe = sibling_exe("knw-aggregate")?;
    let pools: Vec<Vec<U>> = (0..shape.sessions)
        .map(|s| U::generate(shape.pool_per_session, gen::derive(run.seed, s as u64)))
        .collect();
    let frames: Vec<Vec<Vec<u8>>> = pools
        .iter()
        .map(|pool| {
            pool.chunks(shape.batch)
                .map(|chunk| encoded(&Frame::Batch(U::payload(chunk.to_vec()))))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let hello = |index: usize| {
        encoded(&Frame::Hello(HelloConfig {
            worker_index: index as u64,
            spec: spec.clone(),
        }))
    };
    let snapshot = encoded(&Frame::Snapshot)?;
    let finish = encoded(&Frame::Finish)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let log = PathBuf::from(format!(
        "{OUT_DIR}/{}-{}.aggregate.log",
        run.workload, run.seed
    ));
    let _ = std::fs::remove_file(&log);

    // Set-up: every launch answers a first query on an empty aggregate;
    // all but the last then exit after that one session.
    let mut buf = FrameBuf::new();
    let mut serving = None;
    for launch in 0..shape.launches {
        let last = launch + 1 == shape.launches;
        std::thread::sleep(SETUP_PAUSE);
        let launched = Instant::now();
        let mut aggregate = Aggregate::launch(
            &exe,
            &spec,
            shape,
            if last { 1 + shape.sessions } else { 1 },
            &log,
        )?;
        let mut stream = connect(&aggregate.serve_addr)?;
        stream
            .write_all(&hello(shape.sessions)?)
            .map_err(|e| format!("hello: {e}"))?;
        round_trip(&mut stream, &snapshot, &mut buf)?;
        report.setup_s.push(launched.elapsed().as_secs_f64());
        round_trip(&mut stream, &finish, &mut buf)?;
        drop(stream);
        if last {
            aggregate.workers = procfs::children(aggregate.pid());
            serving = Some(aggregate);
        } else {
            aggregate.wait_exit()?;
        }
    }
    let mut aggregate = serving.expect("the last launch serves");
    if aggregate.workers.len() != WORKERS {
        report.notes.push(format!(
            "found {} worker processes, expected {WORKERS}",
            aggregate.workers.len()
        ));
    }
    let mut fleet = vec![aggregate.pid()];
    fleet.extend(&aggregate.workers);
    let fleet_clock = procfs::CpuClock::new(&fleet)?;
    // (aggregator, workers, client) CPU clocks, for the busy fractions.
    let clocks = (
        procfs::CpuClock::new(&fleet[..1])?,
        procfs::CpuClock::new(&fleet[1..])?,
        procfs::CpuClock::new(&[std::process::id()])?,
    );
    let read = |(a, w, c): &(procfs::CpuClock, procfs::CpuClock, procfs::CpuClock)| {
        Ok::<_, String>((a.ns()?, w.ns()?, c.ns()?))
    };
    let cpu_before = read(&clocks)?;

    let hellos: Vec<Vec<u8>> = (0..shape.sessions).map(hello).collect::<Result<_, _>>()?;
    let barrier = Barrier::new(shape.sessions + 1);
    let acked = AtomicU64::new(0);
    let load = Load {
        addr: &aggregate.serve_addr,
        shape,
        run,
        barrier: &barrier,
        origin: Instant::now(),
        acked: &acked,
        fleet: &fleet_clock,
    };
    let (start, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.sessions)
            .map(|i| {
                let (hello, frames, load) = (&hellos[i], &frames[i], &load);
                scope.spawn(move || drive_session(i as u32, hello, frames, load))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes: Vec<SessionOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client session thread"))
            .collect();
        (start, outcomes)
    });
    let elapsed = outcomes
        .iter()
        .filter_map(|o| o.end)
        .max()
        .map_or(Duration::ZERO, |end| end - start);
    let cpu_after = read(&clocks)?;
    let busy_s = |after: u64, before: u64| (after - before) as f64 / 1e9;
    report.peak_rss_bytes = fleet
        .iter()
        .filter_map(|&pid| procfs::memory(pid, "VmHWM"))
        .sum::<u64>() as f64;
    let scrape = if run.trace {
        Some(prom::scrape(&aggregate.metrics_addr)?)
    } else {
        None
    };

    let mut tracer = Tracer::new(load.origin, 0);
    // Concurrent sessions add their rates: (untraced, traced) updates/s.
    let mut rates = (0.0, 0.0);
    let mut sessions_sent = Vec::new();
    let mut replies = Vec::new();
    let mut latencies = Vec::new();
    let mut cpu = None;
    for outcome in outcomes {
        report.attempted += outcome.attempted;
        report.failed += outcome.failed;
        latencies.extend(outcome.latencies_us);
        rates.0 += outcome.tally[0].rate();
        rates.1 += outcome.tally[1].rate();
        tracer.absorb(outcome.tracer);
        sessions_sent.push(outcome.batches_sent);
        cpu = cpu.or(outcome.cpu);
        if let Some(error) = outcome.error {
            report.notes.push(format!("session failed: {error}"));
        }
        // Finish: the reply is the merge of everything either session sent.
        if let Some(mut stream) = outcome.stream {
            report.attempted += 1;
            match round_trip(&mut stream, &finish, &mut buf) {
                Ok(bytes) => replies.push(bytes),
                Err(e) => {
                    report.failed += 1;
                    report.notes.push(format!("finish: {e}"));
                }
            }
        }
    }
    report.throughput_ups = rates.0;
    report.cpu_ns_per_update = cpu.map_or(f64::NAN, |cpu| cpu.median_ns_per_unit());
    latencies.sort_by_key(|&(at, _)| at);
    report.query_us = latencies.into_iter().map(|(_, us)| us).collect();
    if report.failed == 0 {
        aggregate.wait_exit()?;
    }
    let merged_line = aggregate.merged_estimate();
    drop(aggregate);

    // Oracle: every final reply, and the estimate the aggregator prints on
    // exit, equal a single-process sketch built from the same spec over
    // everything the sessions sent.
    let sent: Vec<&[U]> = pools
        .iter()
        .zip(&sessions_sent)
        .flat_map(|(pool, &n)| sent_batches(pool, shape.batch, n))
        .collect();
    let sent_updates: usize = sent.iter().map(|b| b.len()).sum();
    let t0 = Instant::now();
    let mut reference = U::build(&spec).map_err(|e| e.to_string())?;
    for batch in &sent {
        U::apply(&mut *reference, batch);
    }
    let reference_ns = t0.elapsed().as_nanos() as f64 / sent_updates.max(1) as f64;
    let expected = U::estimate(&*reference);
    let mut mismatches = Vec::new();
    for (i, bytes) in replies.iter().enumerate() {
        match U::shard_from_bytes(&spec, bytes) {
            Ok(shard) if U::estimate(&*shard).to_bits() == expected.to_bits() => {}
            Ok(shard) => mismatches.push(format!(
                "finish reply {i}: {} vs single-process {expected}",
                U::estimate(&*shard)
            )),
            Err(e) => mismatches.push(format!("finish reply {i} does not decode: {e}")),
        }
    }
    if report.failed == 0 && merged_line.map(f64::to_bits) != Some(expected.to_bits()) {
        mismatches.push(format!(
            "printed merged estimate {merged_line:?} vs single-process {expected}"
        ));
    }
    report.correct = report.failed == 0 && replies.len() == shape.sessions && mismatches.is_empty();
    report.notes.extend(mismatches);
    let exact = U::exact(&sent);
    report.abs_rel_error = (expected - exact).abs() / exact;

    if run.trace {
        let first_pass = sent_batches(&pools[0], shape.batch, frames[0].len() as u64).concat();
        U::model_probes(&mut report, &first_pass, shape, reference_ns);
        // Two shards over the halves of what was sent (with two sessions,
        // about one session's batches each).
        let shard_of = |part: &[&[U]]| -> Result<Vec<u8>, String> {
            let mut shard = U::build(&spec).map_err(|e| e.to_string())?;
            for batch in part {
                U::apply(&mut *shard, batch);
            }
            Ok(U::shard_bytes(&*shard))
        };
        let (a, b) = sent.split_at(sent.len() / 2);
        report.layer(
            U::MERGE_METRIC,
            probes::merge_us::<U>(&spec, &shard_of(a)?, &shard_of(b)?, 5)?,
        );
        report.layer(
            "engine.route_ns_per_update",
            probes::route_ns(&first_pass, shape.routing, WORKERS),
        );
        let (encode, decode) = probes::frame_ns(&first_pass, shape.batch);
        report.layer("frame.batch_encode_ns_per_update", encode);
        report.layer("frame.batch_decode_ns_per_update", decode);
        report.layer(
            "codec.shard_bytes",
            replies.last().map_or(0, Vec::len) as f64,
        );
        let (encode_us, decode_us) = probes::codec_us::<U>(&spec, &*reference, 5)?;
        report.layer("codec.shard_encode_us", encode_us);
        report.layer("codec.shard_decode_us", decode_us);

        let samples = scrape.expect("scraped in traced runs");
        let ingested = prom::sum(&samples, "knw_serve_updates_ingested_total");
        report.layer(
            "cluster.wire_bytes_per_update",
            prom::sum(&samples, "knw_cluster_worker_send_bytes_total") / ingested.max(1.0),
        );
        report.layer(
            "cluster.frames_sent",
            prom::sum(&samples, "knw_cluster_worker_sends_total"),
        );
        report.layer(
            "cluster.coalesced_updates",
            prom::sum(&samples, "knw_cluster_coalesced_updates_total"),
        );
        report.layer(
            "cluster.fleet_snapshot_p50_us",
            prom::labeled(
                &samples,
                "knw_cluster_snapshot_latency_ns",
                "quantile",
                "0.5",
            )
            .unwrap_or(0.0)
                / 1e3,
        );
        report.layer(
            "serve.merges_per_snapshot_reply",
            prom::sum(&samples, "knw_cluster_snapshot_latency_ns_count")
                / prom::sum(&samples, "knw_serve_snapshots_served_total").max(1.0),
        );
        report.layer(
            "serve.write_queue_peak_bytes",
            prom::sum(&samples, "knw_serve_write_queue_peak_bytes"),
        );

        let wall = elapsed.as_secs_f64();
        report.layer(
            "cpu.aggregator_busy_frac",
            busy_s(cpu_after.0, cpu_before.0) / wall,
        );
        report.layer(
            "cpu.workers_busy_frac",
            busy_s(cpu_after.1, cpu_before.1) / wall,
        );
        let writes = tracer.durations_ns("client.batch_write");
        report.layer(
            "client.batch_write_blocked_us",
            writes.iter().sum::<f64>() / writes.len().max(1) as f64 / 1e3,
        );
        report.layer(
            "client.snapshot_wait_us",
            stats::median(&tracer.durations_ns("client.snapshot_wait")).unwrap_or(0.0) / 1e3,
        );
        finish_trace(
            run,
            &mut report,
            &tracer,
            rates,
            busy_s(cpu_after.2, cpu_before.2),
            elapsed,
        );
    }
    Ok(report)
}
