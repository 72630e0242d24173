//! Error types of the distributed aggregation layer.

use knw_core::SketchError;
use std::fmt;

/// Errors arising on the aggregator side of a cluster run: transport
/// failures, protocol violations, worker crashes, and sketch-level merge
/// incompatibilities.
///
/// The variants mirror the in-process engine's failure philosophy
/// ([`SketchError::ShardPanicked`]): a lost worker means the merged estimate
/// would silently undercount, so reporting refuses with a typed error
/// naming the worker instead of producing a number.
#[derive(Debug)]
pub enum ClusterError {
    /// An I/O error on a worker pipe (spawn failure, broken pipe, …).
    Io {
        /// Index of the worker whose pipe failed (`None` for spawn-time
        /// failures not attributable to a worker).
        worker: Option<usize>,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A frame could not be decoded: truncated length prefix, oversized
    /// declared length, or a payload the codec rejects.
    Frame {
        /// Index of the worker the malformed frame came from.
        worker: usize,
        /// Codec-level description of the failure.
        message: String,
    },
    /// A worker process died (its stream ended, or it exited nonzero)
    /// before delivering its shard; the shard's updates are lost, so no
    /// trustworthy merged estimate can be produced.
    WorkerDied {
        /// Index of the dead worker.
        worker: usize,
    },
    /// A worker's socket could not be connected: refused, unreachable,
    /// unresolvable, or the connect attempt timed out.  Raised before any
    /// frame flows — the aggregation never starts on a partial cluster.
    ConnectFailed {
        /// Index of the unreachable worker.
        worker: usize,
        /// The address that failed to connect.
        addr: String,
        /// The underlying connect failure.
        source: std::io::Error,
    },
    /// A worker link timed out mid-conversation: the peer is half-open or
    /// stalled (accepted the connection but stopped reading or replying).
    /// The transport's read/write timeouts bound how long the aggregator
    /// waits before raising this.
    Timeout {
        /// Index of the stalled worker.
        worker: usize,
    },
    /// A worker link's read timed out *inside* a frame: part of the length
    /// prefix or payload was already consumed when the deadline fired, so
    /// the byte stream is desynchronized — resuming reads on the same
    /// connection would misparse leftover frame bytes as a fresh length
    /// prefix.  Unlike [`ClusterError::Timeout`] (a between-frames stall,
    /// recoverable in place), this link is only recoverable by re-dialing
    /// and replaying the journal on a fresh connection.
    Desynced {
        /// Index of the worker whose stream desynchronized.
        worker: usize,
    },
    /// A worker answered with a frame the protocol does not allow in the
    /// current state (e.g. a `Batch` where a `Shard` was expected).
    Protocol {
        /// Index of the offending worker.
        worker: usize,
        /// The frame kind the aggregator was waiting for.
        expected: &'static str,
        /// A rendering of what arrived instead.
        got: String,
    },
    /// A worker reported an error of its own (an `Err` frame): unknown
    /// estimator, mode mismatch, or a local codec failure.
    WorkerReported {
        /// Index of the reporting worker.
        worker: usize,
        /// The worker's error message, verbatim.
        message: String,
    },
    /// Reconnect-and-replay recovery gave up on a worker: every reconnect
    /// attempt the [`RecoveryPolicy`](crate::RecoveryPolicy) allowed failed
    /// (the static address stayed unreachable and no registered replacement
    /// worked), so the shard's updates cannot be reconstructed anywhere and
    /// no trustworthy merged estimate can be produced.
    RecoveryExhausted {
        /// Index of the unrecoverable worker.
        worker: usize,
        /// How many reconnect attempts were made before giving up.
        attempts: usize,
        /// A rendering of the last attempt's failure.
        last: String,
    },
    /// A worker's replay journal overflowed its configured bound
    /// ([`RecoveryPolicy::journal_cap`](crate::RecoveryPolicy)) before the
    /// fault: the batches needed to rebuild the shard were discarded to
    /// honour the memory bound, so the worker cannot be replayed.  Take
    /// snapshots more often (each acknowledged snapshot truncates the
    /// journal to a checkpoint) or raise the cap.
    JournalOverflow {
        /// Index of the worker whose journal overflowed.
        worker: usize,
        /// The configured per-shard journal bound, in updates.
        cap: usize,
    },
    /// The worker pool could not cover the requested fleet size: too few
    /// registered spares passed their health probe.  Raised by
    /// `ClusterAggregator::start` for a pool-placed fleet (a TCP config with
    /// no addresses) before any aggregation starts, and by
    /// `scale_to` when a grow cannot draw enough live workers — the fleet
    /// is never silently smaller than asked for.
    PoolExhausted {
        /// How many live workers the caller asked for.
        needed: usize,
        /// How many the pool could actually provide.
        live: usize,
    },
    /// `scale_to` was called on an aggregator that cannot reshard exactly:
    /// journaling is off (no [`RecoveryPolicy`](crate::RecoveryPolicy), so
    /// there is nothing to replay onto a split shard), or a prior fault has
    /// already poisoned the run.
    RescaleUnsupported {
        /// Why the aggregator refused to reshard.
        reason: &'static str,
    },
    /// The requested estimator name is not in the wire-format zoo.
    UnknownEstimator {
        /// The name that failed to resolve.
        name: String,
    },
    /// Merging the collected shards failed (mismatched configuration or
    /// seeds — the cluster-level equivalent of a misconfigured factory).
    Sketch(SketchError),
}

impl ClusterError {
    /// Wraps an I/O error attributable to a specific worker.
    #[must_use]
    pub fn io(worker: usize, source: std::io::Error) -> Self {
        ClusterError::Io {
            worker: Some(worker),
            source,
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io { worker, source } => match worker {
                Some(w) => write!(f, "i/o error on worker {w}: {source}"),
                None => write!(f, "i/o error: {source}"),
            },
            ClusterError::Frame { worker, message } => {
                write!(f, "malformed frame from worker {worker}: {message}")
            }
            ClusterError::WorkerDied { worker } => {
                write!(
                    f,
                    "worker process {worker} died before delivering its shard; \
                     its updates are lost"
                )
            }
            ClusterError::ConnectFailed {
                worker,
                addr,
                source,
            } => {
                write!(
                    f,
                    "connecting to worker {worker} at {addr} failed: {source}"
                )
            }
            ClusterError::Timeout { worker } => {
                write!(
                    f,
                    "worker {worker} stalled: the link timed out before it \
                     answered; its shard cannot be trusted"
                )
            }
            ClusterError::Desynced { worker } => {
                write!(
                    f,
                    "worker {worker}'s link timed out mid-frame and is \
                     desynchronized; it cannot be resumed in place, only \
                     re-dialed and replayed"
                )
            }
            ClusterError::Protocol {
                worker,
                expected,
                got,
            } => {
                write!(
                    f,
                    "protocol violation from worker {worker}: expected {expected}, got {got}"
                )
            }
            ClusterError::WorkerReported { worker, message } => {
                write!(f, "worker {worker} reported an error: {message}")
            }
            ClusterError::RecoveryExhausted {
                worker,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "worker {worker} could not be recovered after {attempts} \
                     reconnect attempt(s); last failure: {last}"
                )
            }
            ClusterError::JournalOverflow { worker, cap } => {
                write!(
                    f,
                    "worker {worker}'s replay journal overflowed its \
                     {cap}-update bound before the fault; the shard cannot \
                     be replayed (snapshot more often, or raise the cap)"
                )
            }
            ClusterError::PoolExhausted { needed, live } => {
                write!(
                    f,
                    "the worker pool cannot cover the requested fleet: \
                     {needed} live worker(s) needed, {live} available after \
                     health probing"
                )
            }
            ClusterError::RescaleUnsupported { reason } => {
                write!(f, "the aggregation cannot be resharded: {reason}")
            }
            ClusterError::UnknownEstimator { name } => {
                write!(
                    f,
                    "spec field `estimator`: {name:?} is not in the wire-format zoo"
                )
            }
            ClusterError::Sketch(e) => write!(f, "shard merge failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io { source, .. } | ClusterError::ConnectFailed { source, .. } => {
                Some(source)
            }
            ClusterError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for ClusterError {
    fn from(e: SketchError) -> Self {
        ClusterError::Sketch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_worker() {
        let died = ClusterError::WorkerDied { worker: 2 };
        assert!(died.to_string().contains("worker process 2"));
        let proto = ClusterError::Protocol {
            worker: 1,
            expected: "Shard",
            got: "Batch".into(),
        };
        assert!(proto.to_string().contains("expected Shard"));
        let io = ClusterError::io(3, std::io::Error::other("pipe gone"));
        assert!(io.to_string().contains("worker 3"));
        assert!(std::error::Error::source(&io).is_some());
        let sketch = ClusterError::from(SketchError::SeedMismatch);
        assert!(sketch.to_string().contains("seeds"));
        let refused = ClusterError::ConnectFailed {
            worker: 4,
            addr: "10.0.0.9:7000".into(),
            source: std::io::ErrorKind::ConnectionRefused.into(),
        };
        assert!(refused.to_string().contains("worker 4"));
        assert!(refused.to_string().contains("10.0.0.9:7000"));
        assert!(std::error::Error::source(&refused).is_some());
        let stalled = ClusterError::Timeout { worker: 1 };
        assert!(stalled.to_string().contains("worker 1"));
        assert!(stalled.to_string().contains("timed out"));
        let desynced = ClusterError::Desynced { worker: 6 };
        assert!(desynced.to_string().contains("worker 6"));
        assert!(desynced.to_string().contains("mid-frame"));
        let exhausted = ClusterError::RecoveryExhausted {
            worker: 5,
            attempts: 3,
            last: "connection refused".into(),
        };
        assert!(exhausted.to_string().contains("worker 5"));
        assert!(exhausted.to_string().contains("3 reconnect"));
        assert!(exhausted.to_string().contains("connection refused"));
        let overflow = ClusterError::JournalOverflow { worker: 2, cap: 64 };
        assert!(overflow.to_string().contains("worker 2"));
        assert!(overflow.to_string().contains("64-update"));
        let exhausted_pool = ClusterError::PoolExhausted { needed: 4, live: 2 };
        assert!(exhausted_pool.to_string().contains("4 live worker(s)"));
        assert!(exhausted_pool.to_string().contains("2 available"));
        let unsupported = ClusterError::RescaleUnsupported {
            reason: "journaling is off",
        };
        assert!(unsupported.to_string().contains("journaling is off"));
    }

    #[test]
    fn unknown_estimator_names_the_spec_field() {
        let unknown = ClusterError::UnknownEstimator {
            name: "bogus".into(),
        };
        let message = unknown.to_string();
        assert!(message.contains("`estimator`"), "{message}");
        assert!(message.contains("bogus"), "{message}");
    }
}
