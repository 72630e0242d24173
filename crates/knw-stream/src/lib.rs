//! Workload and synthetic-trace generators for evaluating streaming
//! cardinality estimators.
//!
//! The paper motivates distinct-elements estimation with network monitoring
//! (distinct destination IPs, port scans, the Code Red worm spread measured by
//! Estan et al.), query optimization (distinct values per column feeding join
//! selectivity estimates), and data cleaning via the Hamming norm (columns
//! that are "mostly similar").  The original traces are long gone and were
//! proprietary anyway; this crate provides synthetic equivalents that exercise
//! the same code paths and the same cardinality-growth shapes.
//!
//! * [`generator`] — element-distribution generators (uniform, Zipfian,
//!   sequential, clustered, duplicate-heavy) behind one [`StreamGenerator`]
//!   trait.
//! * [`network`] — synthetic packet-header traces: steady traffic, worm-style
//!   source spread, port scans and DDoS floods.
//! * [`turnstile`] — insert/delete workloads for the L0 experiments, with
//!   configurable delete fraction, sign mixing and full-cancellation phases.
//! * [`union`] — interleavings of several streams, for the merge experiments.
//!
//! Everything is deterministic given a seed.

pub mod generator;
pub mod network;
pub mod turnstile;
pub mod union;

pub use generator::{
    ClusteredGenerator, SequentialGenerator, StreamGenerator, UniformGenerator, ZipfGenerator,
};
pub use network::{NetworkTraceGenerator, PacketEvent, TrafficProfile};
pub use turnstile::{TurnstileOp, TurnstileWorkload, TurnstileWorkloadBuilder};
pub use union::{
    interleave_round_robin, partition_by_item, partition_round_robin, partition_updates_by_item,
    partition_updates_round_robin,
};
