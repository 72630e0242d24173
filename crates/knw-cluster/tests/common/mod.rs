//! Helpers shared by the cluster integration suites: the worker binary,
//! the test streams, registered spares, the recovery policy and TCP
//! configuration, and a dead address.  Each suite uses a subset.
#![allow(dead_code)]

use knw_cluster::{spawn_listening_worker, ClusterConfig, RecoveryPolicy, WorkerRegistry};
use knw_engine::{EngineConfig, RoutingPolicy};
use std::net::{TcpListener, TcpStream};
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKER_EXE: &str = env!("CARGO_BIN_EXE_knw-worker");
pub const EPS: f64 = 0.1;
pub const UNIVERSE: u64 = 1 << 16;

/// A spare worker process, reaped on drop (test panics must not leak
/// forever-serving strays).
pub struct Spare(Child);

impl Drop for Spare {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a spare `--listen --register` worker and waits until its
/// announcement landed in the registry.
pub fn spawn_registered_spare(registry: &WorkerRegistry) -> Spare {
    let registry_addr = registry.local_addr().to_string();
    let before = registry.available();
    let (child, _) = spawn_listening_worker(
        WORKER_EXE.as_ref(),
        "127.0.0.1:0",
        &["--register", &registry_addr],
    )
    .expect("spawn spare worker");
    for _ in 0..400 {
        if registry.available() > before {
            return Spare(child);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("spare worker never registered");
}

/// A fast-failing recovery policy for tests: retries stay bounded in
/// wall-clock even when every attempt must time out.
pub fn test_policy() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(4)
        .with_backoff(Duration::from_millis(50))
}

/// A test-sized TCP configuration over `addrs`, journaling under
/// [`test_policy`].
pub fn tcp_config(
    addrs: &[String],
    routing: RoutingPolicy,
    registry: Option<Arc<WorkerRegistry>>,
) -> ClusterConfig {
    ClusterConfig::tcp(addrs.iter().cloned(), registry)
        .with_engine(
            EngineConfig::new(addrs.len())
                .with_batch_size(512)
                .with_routing(routing),
        )
        .with_recovery(test_policy())
}

/// A localhost address nothing listens on: bind a free port, drop the
/// listener, then wait until a connect to it is refused.  Dropping alone
/// is not enough: a worker process spawned by a concurrent test holds an
/// inherited copy of the listening socket until it execs, and a connect in
/// that window succeeds.
pub fn dead_addr() -> String {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("bind a free port")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(5);
    while TcpStream::connect(&addr).is_ok() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    addr
}

/// A skewed insert-only stream.
pub fn items(len: u64) -> Vec<u64> {
    (0..len)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % UNIVERSE)
        .collect()
}

/// A churn-heavy signed update stream (mixed signs, cancellations).
pub fn updates(len: u64) -> Vec<(u64, i64)> {
    (0..len)
        .map(|i| {
            let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (x % 4_096, (x % 9) as i64 - 4)
        })
        .collect()
}

/// Lets a severed link's FIN/RST reach the aggregator's socket before the
/// stream continues, so the fault is observed deterministically.
pub fn let_fault_propagate() {
    std::thread::sleep(Duration::from_millis(100));
}
