//! The repository benchmark runner: one workload per invocation.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `f0_serve`, `l0_serve_churn`, `f0_engine`, `keyed_store`
//! (see README.md).  Inputs come from `--seed` and are generated before
//! timing; the timed phase runs for `--seconds`; every run then checks its
//! outputs against a single-process reference.  `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics, whose spans are
//! also written to `perfbench/out/`.  The last line of stdout is the result
//! object; the exit code is 0 only for a correct run.

mod engine;
mod gen;
mod probes;
mod procfs;
mod prom;
mod report;
mod serve;
mod stats;
mod store;
mod trace;

use report::{json_str, Report};
use std::process::ExitCode;
use std::time::Duration;

/// Seed of every sketch's hash functions: part of the system's
/// configuration, fixed across runs; `--seed` varies the inputs.
pub const SKETCH_SEED: u64 = 7;

/// Pause before each set-up repetition.  Back to back, the repetitions of
/// one run fall into a few milliseconds of the machine's state, and their
/// median moves by a quarter from run to run; spaced out, each starts idle
/// and together they span a fraction of a second.
pub const SETUP_PAUSE: Duration = Duration::from_millis(5);

/// Where traced runs write their spans, relative to the working directory.
pub const OUT_DIR: &str = "perfbench/out";

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn provenance(run: &Run, report: &Report) -> Vec<(String, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), json_str(&run.workload)),
        ("seed".to_string(), run.seed.to_string()),
        ("seconds".to_string(), run.seconds.as_secs().to_string()),
        ("trace".to_string(), run.trace.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        (
            "cpu_model".to_string(),
            json_str(&procfs::cpu_model(&cpuinfo).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "rustc".to_string(),
            json_str(&command_output("rustc", &["-V"])),
        ),
        (
            "git_commit".to_string(),
            json_str(&command_output("git", &["rev-parse", "HEAD"])),
        ),
    ];
    let params: Vec<(String, String)> = report
        .params
        .iter()
        .map(|(k, v)| (k.to_string(), json_str(v)))
        .collect();
    let body: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    fields.push(("params".to_string(), format!("{{{}}}", body.join(", "))));
    fields
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run.workload.as_str() {
        "f0_serve" => serve::run_f0(&run),
        "l0_serve_churn" => serve::run_l0(&run),
        "f0_engine" => engine::run(&run),
        "keyed_store" => store::run(&run),
        other => Err(format!(
            "unknown workload {other:?} (expected f0_serve, l0_serve_churn, f0_engine or keyed_store)"
        )),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", run.workload);
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        eprintln!("perfbench: {}: {note}", run.workload);
    }
    let (text, finite) = report::render(&report, run.trace, &provenance(&run, &report));
    print!("{text}");
    if report.correct && finite && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
