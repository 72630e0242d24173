//! Measurement harness for the KNW reproduction experiments.
//!
//! The experiment binaries in `src/bin/` (one per experiment, its id in the
//! file header) use this library for three things:
//!
//! * [`accuracy`] — collecting relative-error distributions and success rates
//!   against ground truth;
//! * [`timing`] — per-update latency statistics (mean / p99 / worst case) and
//!   throughput, the quantities behind the "update time" column of Figure 1;
//! * [`report`] — rendering aligned text tables (the same rows the paper's
//!   tables report) and CSV lines for downstream plotting.
//!
//! Everything here is deliberately dependency-free and deterministic so that
//! `cargo run -p knw-bench --bin <experiment> --release` regenerates the
//! numbers recorded in `EXPERIMENTS.md` exactly (up to machine speed for the
//! timing experiments).

pub mod accuracy;
pub mod report;
pub mod timing;

pub use accuracy::AccuracyStats;
pub use report::Table;
pub use timing::{measure_updates, UpdateTiming};
