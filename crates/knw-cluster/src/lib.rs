//! Multi-process distributed aggregation over the KNW serde wire format.
//!
//! The KNW sketches merge *exactly*: shards built over disjoint substreams
//! reproduce the single-stream estimate bit for bit (`knw-core`'s
//! mergeable contract, PR 1 and PR 2).  Until now the repo only exercised
//! that property inside one process — threads exchanging cloned sketches.
//! This crate is the missing layer: worker **processes** that never share
//! memory ingest substreams and exchange **serialized** shards with an
//! aggregator, which merges them with the same `merge_dyn` fold the
//! in-process engine uses.  Workers scale across cores, across machines,
//! or across restarts — and the combine step at the end is cheap and
//! exact.
//!
//! # Process topology and transports
//!
//! ```text
//!                         ┌───────────────────────────┐
//!                         │        aggregator         │
//!                         │  ShardBatcher (RoundRobin │
//!                         │  or HashAffine) + optional│
//!                         │  L0 pre-coalescing        │
//!                         └─┬───────┬───────┬───────┬─┘
//!              Hello,Batch…,│       │       │       │ …Finish
//!                           ▼       ▼       ▼       ▼
//!                      ┌───────┐┌───────┐┌───────┐┌───────┐
//!                      │worker0││worker1││worker2││worker3│  spawned children
//!                      │sketch ││sketch ││sketch ││sketch │  or listening hosts
//!                      └───┬───┘└───┬───┘└───┬───┘└───┬───┘
//!                          │        │        │        │
//!                          └──one Shard{serialized bytes} each──┐
//!                                                               ▼
//!                          deserialize → merge_dyn fold → merged estimate
//! ```
//!
//! The frame layer is transport-agnostic, and the [`transport`] module
//! names the two transports that carry it:
//!
//! * [`PipeTransport`] forks `knw-worker` child processes and speaks
//!   frames over stdin/stdout pipes (the single-box topology);
//! * [`TcpTransport`] connects to **already-running** workers
//!   (`knw-worker --listen <addr>`, the [`serve`] loop) over TCP sockets
//!   with bounded connect/read/write timeouts: the multi-host topology.
//!   `knw-aggregate --transport tcp --connect host:port …` is the CLI
//!   front.  With an empty address list the same transport places the
//!   whole fleet from a [`WorkerRegistry`] pool instead.
//!
//! One [`ClusterConfig`] names which ([`WorkerSource`]), along with the
//! engine knobs, the recovery policy and the TCP timeouts, and one
//! constructor, [`ClusterAggregator::start`], opens the fleet from it.
//!
//! # The frame protocol
//!
//! All traffic is length-prefixed frames (`u32` little-endian length +
//! serde-codec payload, see [`frame`]):
//!
//! | frame | direction | meaning |
//! |---|---|---|
//! | `Hello{worker_index, spec}` | aggregator → worker | handshake: which sketch to build ([`SketchSpec`]: stream model, zoo name, ε, n, seed) |
//! | `Batch{Items\|Updates}` | aggregator → worker | a routed batch of stream updates |
//! | `Snapshot` | aggregator → worker | request the current shard bytes (midstream reporting); the worker keeps running |
//! | `Finish` | aggregator → worker | finalize: send the shard and exit cleanly |
//! | `Shard{bytes}` | worker → aggregator | the serialized shard sketch (the workspace serde codec) |
//! | `Err{message}` | worker → aggregator | worker-side failure, before the worker exits nonzero |
//! | `Stats{counters}` | worker → aggregator | session ingest counters ([`WorkerStats`]), sent once before the final `Finish` shard |
//!
//! Routing reuses [`knw_engine::ShardBatcher`] — the *same* code that
//! routes the in-process `ShardedEngine`/`ShardRouter` — so in-process and
//! cross-process runs of the same [`EngineConfig`](knw_engine::EngineConfig)
//! produce identical shard contents.  Two policies:
//! [`RoutingPolicy::RoundRobin`](knw_engine::RoutingPolicy) (batch-cyclic,
//! valid because every workspace sketch merges exactly under arbitrary
//! partitions) and
//! [`RoutingPolicy::HashAffine`](knw_engine::RoutingPolicy) (item → fixed
//! worker; required for correct by-item partitioning of turnstile streams
//! when a shard structure needs to see all of an item's inserts and
//! deletes).  For turnstile streams the aggregator can additionally
//! **pre-coalesce** batches (sum each item's deltas via
//! [`knw_core::coalesce`]) before the shard split, cutting wire traffic
//! and restoring the coalescing window the split would otherwise dilute.
//!
//! # The zero-copy wire path
//!
//! `Batch` frames dominate the wire traffic, and both ends handle them
//! without per-frame allocation:
//!
//! * **Sending** ([`aggregator`]): each routed batch is encoded once into
//!   a buffer the aggregator reuses across every send (the fixed-width
//!   layout is written directly; no owning [`Frame`] or payload `Vec` is
//!   built) and handed to the link as raw bytes
//!   ([`WorkerConnection::send_raw`]).  With recovery enabled, the replay
//!   journal shares the *encoded* frame bytes as `Arc<[u8]>` — replay
//!   re-sends them verbatim, with no re-encoding.
//! * **Receiving** ([`worker`]): the ingest loop decodes frames with
//!   [`read_frame_into`] into a per-connection [`FrameBuf`], yielding a
//!   [`FrameView`] whose batch contents *borrow* the scratch buffer.
//!
//! The ownership rules of the borrowed decode: a [`FrameView`] borrows its
//! [`FrameBuf`] until dropped, so each view must be fully consumed (the
//! batch applied to the shard sketch) before the next
//! [`read_frame_into`] call reuses the scratch — the borrow checker
//! enforces exactly this.  A caller that needs a frame to outlive the next
//! read must copy the borrowed slice out (or use the owning
//! [`read_frame`], which allocates per frame).  Non-batch frames are rare
//! control traffic and arrive as [`FrameView::Owned`]; strictness is
//! unchanged — bytes a borrowing decode rejects are rejected with the
//! same error the owning decode reports.
//!
//! # Sessions & the serve loop
//!
//! The blocking topologies above put the aggregator at one end of the
//! wire.  The [`session`] module (Linux) turns it around into
//! **estimation-as-a-service**: `knw-aggregate --serve <addr>` runs a
//! single-threaded nonblocking readiness loop ([`serve_sessions`], built
//! on the [`poll`] epoll wrapper — the offline-shim discipline again, no
//! external event library) that multiplexes hundreds-to-thousands of
//! concurrent *client* sessions over one shared worker fleet.  Each
//! session is a state machine, never a thread:
//!
//! ```text
//!            Hello{spec}          Batch*                Snapshot
//!  accept ──► Greeting ─────────► Streaming ──────────► Snapshotting ─┐
//!                │ bad spec /         │  ▲     Shard{bytes} queued    │
//!                │ wrong frame        │  └──────────────◄─────────────┘
//!                ▼                    │ Finish
//!             Errored ◄── decode ─────┼──────► Snapshotting{finish}
//!            (Err frame    error      │                 │ Shard{bytes}
//!             queued)                 ▼                 ▼
//!                                 (clean EOF)        Finished
//! ```
//!
//! Inbound bytes feed a per-session resumable [`FrameDecoder`] — the
//! loop reads whatever the socket has, and partial frames simply wait in
//! the decoder until the rest arrives (no blocking read ever holds the
//! loop hostage).  Decoded batches route into the shared `ShardBatcher`
//! exactly as the blocking aggregator's own ingest does; since every
//! sketch merges exactly and is order/partition independent, arbitrary
//! session interleavings stay bit-identical to a single-process run over
//! the union of the streams.  `Snapshot`/`Finish` requests arriving in
//! the same tick coalesce into **one** point-in-time merge (pending
//! batcher contents included), whose encoded `Shard` reply is shared.
//!
//! Backpressure is per session and byte-bounded: replies go into a
//! bounded write queue, and a session whose queue exceeds
//! [`SessionServeOptions::max_write_queue`] stops being *read* until it
//! drains below half — a slow reader throttles only itself.  The fault
//! taxonomy mirrors the wire layer's timeout/desync split: a session
//! idle *between* frames is a plain idle timeout, while one that stalls
//! *mid-frame* (decoder holding a partial frame) is desynchronized and
//! its `Err` frame says so; on the aggregator→worker side the same split
//! is [`ClusterError::Timeout`] (recoverable in place) versus
//! [`ClusterError::Desynced`] (recoverable only by re-dial + journal
//! replay).  Fleet-side failures poison the aggregator under the same
//! rules as the blocking path and abort the serve loop typed.
//!
//! # Failure model & recovery
//!
//! A worker crash is detected at the link (broken write, EOF where a
//! `Shard` was due, nonzero exit, reset connection) and surfaces as
//! [`ClusterError::WorkerDied`] — the cross-process mirror of the engine's
//! [`SketchError::ShardPanicked`](knw_core::SketchError::ShardPanicked):
//! a lost shard means the merged estimate would silently undercount, so no
//! estimate is produced.  The socket transport adds two failure shapes of
//! its own, each typed: a worker that was never reachable is
//! [`ClusterError::ConnectFailed`] (raised before any frame flows), and a
//! half-open or stalled peer trips the transport's read/write timeouts as
//! [`ClusterError::Timeout`] — every failure mode resolves within a
//! bounded interval; nothing hangs.  Malformed frames and worker-reported
//! failures get their own typed variants; nothing in the protocol path
//! panics on bad bytes.
//!
//! With a [`RecoveryPolicy`] configured
//! ([`ClusterConfig::with_recovery`], `knw-aggregate --recover`), those
//! link faults stop being run-fatal.
//! The aggregator keeps a bounded per-shard **replay journal** — the
//! serialized checkpoint of the last acknowledged snapshot plus every
//! batch routed to the shard since ([`RecoveryPolicy::journal_cap`] bounds
//! it, in updates) — and on `WorkerDied` / `Timeout` / `ConnectFailed` it
//! re-resolves the worker (the same address or a respawned child by
//! default; a spare host announced through the [`WorkerRegistry`] /
//! `knw-worker --register` handshake when the static address stays dead),
//! opens a fresh link, restores the checkpoint (`Restore` frame), replays
//! the journal, and resumes.  The replay is *exact*, not approximate:
//! every session starts from fresh state and a shard is a pure fold of its
//! batch stream, so `checkpoint ⊕ fold(journal)` reproduces the lost
//! shard byte for byte — each journaled batch is applied exactly once to
//! exactly one live session (a batch sent to a link that then faulted is
//! never double-counted, because the dead session's state is discarded
//! wholesale and rebuilt).  Reports wait for an in-flight recovery — a
//! snapshot never merges a partial cluster — and each acknowledged
//! snapshot truncates the journals to fresh checkpoints, so journal
//! memory is bounded by snapshot cadence, not stream length.
//!
//! Recovery itself fails typed and bounded: when every reconnect attempt
//! the policy allows ([`RecoveryPolicy::max_retries`], linear
//! [`RecoveryPolicy::backoff`]) is gone, reporting refuses with
//! [`ClusterError::RecoveryExhausted`]; when the journal had to be
//! discarded to honour its bound before the fault, with
//! [`ClusterError::JournalOverflow`].  Deterministic failures (protocol
//! violations, codec rejections, merge incompatibilities) are never
//! retried — a fresh worker fed the same journal would reproduce them.
//!
//! # Placement & elastic resharding
//!
//! The [`WorkerRegistry`] is a *placement* layer, not just a recovery
//! side-channel: a TCP [`ClusterConfig`] with the registry and no
//! addresses starts an N-worker fleet entirely from the registry's pool of
//! announced spares (`knw-worker --listen 0 --register <reg>`).  The registry's
//! background prober ([`WorkerRegistry::start_probing`]) re-checks every
//! pooled spare with the same connect-and-greet liveness probe recovery
//! uses (not a bare connect — a backlog-only listener fails it), counts
//! results under `knw_registry_probe_{ok,failed}_total`, and pops skip
//! addresses that failed their last probe, so placements only ever draw
//! live workers.  When the pool cannot cover the requested fleet,
//! construction refuses typed with [`ClusterError::PoolExhausted`] — a
//! fleet is never silently smaller than asked for.
//!
//! On top of placement sits **exact elastic resharding**:
//! [`ClusterAggregator::scale_to`] grows or shrinks the live fleet
//! mid-stream with the estimate staying bit-identical to a single-process
//! run.  Routing follows a versioned **epoch table**
//! ([`knw_hash::rng::epoch_shard_for_key`] inside the shared
//! [`ShardBatcher`](knw_engine::ShardBatcher) — still the single hash
//! site): linear hashing makes each grow step a *refinement* that moves
//! keys from exactly one split-parent shard to the new shard.  A grow
//! splits the parent's replay journal under the new table (new shard =
//! parent checkpoint ⊕ moved updates; parent restarts with the kept ones),
//! a shrink `Finish`es the top shard and folds its final bytes into the
//! split parent via the same exact `merge_dyn` used everywhere else.
//! Retired workers hand their addresses back to the pool
//! ([`Transport::retire`]); `knw-aggregate --pool <reg> --workers N
//! --serve …` exposes the whole flow on the CLI, including a runtime
//! `rescale N` command.  Reshard traffic is counted under
//! `knw_cluster_reshard_{scale_ups,scale_downs,replayed_frames,
//! moved_keys}_total` and timed by `knw_cluster_reshard_latency_ns`.
//!
//! # Observability
//!
//! Every layer feeds the process-wide
//! [`knw_metrics`] registry (lock-free atomic counters/gauges and
//! log-linear histograms — cheap enough to leave on in the hot paths),
//! and structured leveled logging (`knw_log!`, `KNW_LOG` env filter)
//! replaces ad-hoc stderr prints throughout:
//!
//! * **engine routing** — per-shard `knw_engine_shard_{batches,updates}_total`
//!   from the in-process [`ShardedEngine`](knw_engine::ShardedEngine), and
//!   `knw_cluster_shard_*` for batches the aggregator routes to workers;
//! * **aggregator** — per-worker `knw_cluster_worker_{sends,send_bytes,
//!   faults,recoveries,replayed_frames}_total`, turnstile
//!   `knw_cluster_coalesced_updates_total`, and the
//!   `knw_cluster_snapshot_latency_ns` histogram around every merged
//!   snapshot/finish exchange;
//! * **workers** — each worker counts its own session ingest
//!   ([`WorkerStats`]) and ships it to the aggregator
//!   in a `Stats` frame just before its final `Finish` shard, where it
//!   lands as per-worker `knw_fleet_*_total` counters — fleet-wide health
//!   without a scrape endpoint per worker (listening workers also mirror
//!   the counters into their own registry as `knw_worker_*_total`);
//! * **serve loop** — `knw_serve_*` session/ingest counters and
//!   active/peak/write-queue gauges behind the [`ServeStats`] snapshot.
//!
//! The registry is scraped live in Prometheus text format 0.0.4 (see
//! [`expo`]): `knw-aggregate --metrics <addr>` answers scrapes from the
//! serve loop itself (one more epoll token, no thread) in `--serve` mode,
//! or from a background [`MetricsServer`] thread in the blocking modes.
//! Log lines are `key=value` structured records on stderr; values are
//! escaped/quoted before interpolation, so peer-supplied bytes (a garbage
//! client's frame, a failed session's message) cannot forge fields or
//! split lines.
//!
//! # Example
//!
//! The `knw-aggregate` binary is the demo front end (`knw-aggregate
//! --workers 4 --estimator knw-f0 …` over pipes, or `knw-aggregate
//! --transport tcp --connect host:port --connect host:port …` against
//! listening workers); programmatically:
//!
//! ```no_run
//! use knw_cluster::{ClusterConfig, F0ClusterAggregator, SketchSpec};
//!
//! // Four spawned workers; `ClusterConfig::tcp(["hostA:7001", …], None)`
//! // would reach listening ones instead.
//! let config = ClusterConfig::pipe(4, "target/release/knw-worker");
//! let spec = SketchSpec::f0("knw-f0", 0.05, 1 << 20, 7);
//! let mut cluster = F0ClusterAggregator::start(&config, &spec).unwrap();
//! for i in 0..1_000_000u64 {
//!     cluster.ingest(i % 250_000);
//! }
//! let merged = cluster.finish().unwrap();
//! println!("distinct ≈ {}", merged.estimate());
//! ```

pub mod aggregator;
pub mod error;
pub mod expo;
pub mod frame;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod recovery;
#[cfg(target_os = "linux")]
pub mod session;
pub mod spec;
pub mod transport;
pub mod worker;

pub use aggregator::{
    sibling_worker_exe, ClusterAggregator, ClusterConfig, ClusterUpdate, F0ClusterAggregator,
    L0ClusterAggregator, WorkerSource,
};
pub use error::ClusterError;
pub use expo::MetricsServer;
pub use frame::{
    encode_frame, read_frame, read_frame_into, write_frame, BatchPayload, Frame, FrameBuf,
    FrameDecoder, FrameView, HelloConfig, SketchSpec, StreamMode, WireError, WorkerStats,
    MAX_FRAME_LEN,
};
#[cfg(target_os = "linux")]
pub use poll::{Event, Interest, Poller};
pub use recovery::{
    register_worker, RecoveryPolicy, WorkerRegistry, DEFAULT_BACKOFF, DEFAULT_JOURNAL_CAP,
    DEFAULT_MAX_RETRIES,
};
#[cfg(target_os = "linux")]
pub use session::{drive_sessions, serve_sessions, DriveStats, ServeStats, SessionServeOptions};
pub use spec::{
    build_f0, build_l0, f0_estimator_names, f0_shard_from_bytes, l0_estimator_names,
    l0_shard_from_bytes, WireF0Sketch, WireL0Sketch,
};
pub use transport::{
    probe_worker, spawn_listening_worker, ListeningWorkerFleet, PipeTransport, TcpTransport,
    Transport, WorkerConnection, BANNER_DEADLINE, DEFAULT_CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT,
};
pub use worker::{run_worker, serve, serve_connection, ServeOptions, DEFAULT_MAX_ACCEPT_RETRIES};
