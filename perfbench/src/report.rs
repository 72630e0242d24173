//! The result a run prints: metric names and units (mirrored in
//! `BENCHMARK.json`), provenance, and the final JSON line.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_ns_per_update", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs.  A metric of a layer the
/// workload does not reach prints as 0 and is listed under
/// `not_applicable` in the info line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hash.pairwise_ns_per_item", "ns"),
    ("core.f0_insert_ns_per_item", "ns"),
    ("core.l0_update_ns_per_update", "ns"),
    ("core.coalesce_ns_per_update", "ns"),
    ("core.coalesce_out_per_in", "ratio"),
    ("core.f0_merge_us", "us"),
    ("core.l0_merge_us", "us"),
    ("engine.route_ns_per_update", "ns"),
    ("engine.snapshot_us", "us"),
    ("frame.batch_encode_ns_per_update", "ns"),
    ("frame.batch_decode_ns_per_update", "ns"),
    ("codec.shard_bytes", "bytes"),
    ("codec.shard_encode_us", "us"),
    ("codec.shard_decode_us", "us"),
    ("cluster.wire_bytes_per_update", "bytes"),
    ("cluster.frames_sent", "count"),
    ("cluster.coalesced_updates", "count"),
    ("cluster.fleet_snapshot_p50_us", "us"),
    ("serve.merges_per_snapshot_reply", "ratio"),
    ("serve.write_queue_peak_bytes", "bytes"),
    ("cpu.aggregator_busy_frac", "cpu"),
    ("cpu.workers_busy_frac", "cpu"),
    ("cpu.client_busy_frac", "cpu"),
    ("client.batch_write_blocked_us", "us"),
    ("client.snapshot_wait_us", "us"),
    ("store.ingest_ns_per_update", "ns"),
    ("store.promotions", "count"),
    ("store.evictions", "count"),
    ("store.reloads", "count"),
    ("store.reloads_per_update", "ratio"),
    ("store.budget_high_water_mb", "MB"),
    ("accuracy.abs_rel_error", "ratio"),
    ("accuracy.failed_ops_frac", "ratio"),
    ("trace.throughput_traced_mups", "Mupd/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether the run's outputs passed the correctness oracle.
    pub correct: bool,
    /// Batches plus queries attempted in the timed phase.
    pub attempted: u64,
    /// Of those, failed, refused or timed out.
    pub failed: u64,
    /// CPU time of the processes under test per update, the cadence
    /// queries included: the median over windows of the closed loop.
    pub cpu_ns_per_update: f64,
    /// Wall-clock updates per second: the median over the loop cycles of
    /// each cycle's rate (concurrent sessions' medians summed).  Reported,
    /// not bounded.
    pub throughput_ups: f64,
    /// Wall-clock estimate-query latencies, in microseconds, pooled over
    /// the client threads in the order the answers arrived.  Reported, not
    /// bounded.
    pub query_us: Vec<f64>,
    /// Launch-to-first-answer times, seconds, one per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the processes under test, bytes.
    pub peak_rss_bytes: f64,
    /// |estimate − exact| / exact of the final answer.
    pub abs_rel_error: f64,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// Free-form notes (oracle failures, stalls).
    pub notes: Vec<String>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }
}

/// The tail rule: the highest percentile with this many samples beyond it,
/// taken per window of exactly `TAIL_WINDOW` consecutive queries (p90),
/// median over the windows.
const TAIL_BEYOND: usize = 10;
const TAIL_WINDOW: usize = 100;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise — the caller marks the run
/// failed before that can reach the result line).
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The printed output: human-readable lines, a provenance line, an info
/// line, and the result object as the last line.  Returns the text and
/// whether every printed metric is a finite number.
pub fn render(report: &Report, trace: bool, provenance: &[(String, String)]) -> (String, bool) {
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    let mut info: Vec<(String, String)> = Vec::new();
    let mut not_applicable = Vec::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            let value = report.layers.get(name).copied().unwrap_or_else(|| {
                not_applicable.push(json_str(name));
                0.0
            });
            values.push((name, unit, value));
        }
        info.push((
            "not_applicable".into(),
            format!("[{}]", not_applicable.join(", ")),
        ));
    } else {
        for &(name, unit) in END_TO_END {
            let value = match name {
                "cpu_ns_per_update" => report.cpu_ns_per_update,
                "setup_s" => stats::median(&report.setup_s).unwrap_or(f64::NAN),
                "peak_rss_mb" => report.peak_rss_bytes / 1e6,
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            values.push((name, unit, value));
        }
        let tail = stats::windowed_tail(&report.query_us, TAIL_BEYOND, TAIL_WINDOW);
        let median = |samples: &[f64]| json_num(stats::median(samples).unwrap_or(f64::NAN));
        info.push((
            "wall_throughput_mups".into(),
            json_num(report.throughput_ups / 1e6),
        ));
        if !report.query_us.is_empty() {
            info.push(("query_p50_us".into(), median(&report.query_us)));
            info.push((
                "query_tail_us".into(),
                json_num(tail.map_or(f64::NAN, |t| t.value)),
            ));
            info.push((
                "query_tail_percentile".into(),
                json_num(tail.map_or(f64::NAN, |t| t.percentile)),
            ));
            info.push((
                "query_tail_windows".into(),
                tail.map_or(0, |t| t.windows).to_string(),
            ));
            info.push(("query_samples".into(), report.query_us.len().to_string()));
        }
        info.push(("setup_repetitions".into(), report.setup_s.len().to_string()));
    }
    info.push(("abs_rel_error".into(), json_num(report.abs_rel_error)));
    info.push((
        "failed_ops_frac".into(),
        json_num(report.failed as f64 / report.attempted.max(1) as f64),
    ));
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    info.push(("notes".into(), format!("[{}]", notes.join(", "))));

    let finite = values.iter().all(|&(_, _, v)| v.is_finite());
    let mut out = String::new();
    for &(name, unit, value) in &values {
        let _ = writeln!(out, "{name:<36} {value:>18.6} {unit}");
    }
    if !trace {
        if let Some(t) = stats::windowed_tail(&report.query_us, TAIL_BEYOND, TAIL_WINDOW) {
            let _ = writeln!(
                out,
                "wall clock (not bounded): {:.6} Mupd/s; query p50 {:.3} us, \
                 tail {:.3} us = median over {} windows of each window's p{:.3} \
                 ({TAIL_BEYOND} of {} samples beyond it), {} queries in all",
                report.throughput_ups / 1e6,
                stats::median(&report.query_us).unwrap_or(f64::NAN),
                t.value,
                t.windows,
                t.percentile,
                t.window_samples,
                report.query_us.len()
            );
        }
    }
    let _ = writeln!(
        out,
        "{}",
        object(&[("provenance".into(), object(provenance))])
    );
    let _ = writeln!(out, "{}", object(&[("info".into(), object(&info))]));
    let metrics: Vec<(String, String)> = values
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(value),
                    json_str(unit)
                ),
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct && finite,
        report.attempted,
        report.failed,
        object(&metrics)
    );
    (out, finite)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this runner prints, with the same units.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let definition = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let flat: String = definition.split_whitespace().collect();
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = flat
                .find(&format!("\"{section}\":["))
                .expect("section present");
            let body = &flat[start..flat[start..].find(']').map(|e| start + e).expect("closed")];
            let named: Vec<&str> = body
                .match_indices("\"name\":\"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    &rest[..rest.find('"').expect("closed name")]
                })
                .collect();
            let expected: Vec<&str> = list.iter().map(|&(n, _)| n).collect();
            assert_eq!(named, expected, "{section} names drifted");
            for &(name, unit) in list {
                let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
                assert!(
                    body.contains(&entry),
                    "{section}: {name} must have unit {unit}"
                );
            }
        }
    }

    #[test]
    fn untraced_output_ends_with_the_result_object() {
        let report = Report {
            correct: true,
            attempted: 12,
            cpu_ns_per_update: 12.5,
            throughput_ups: 2.5e6,
            query_us: (1..=20).map(f64::from).collect(),
            setup_s: vec![0.2, 0.1, 0.3],
            peak_rss_bytes: 3e6,
            ..Report::default()
        };
        let (out, finite) = render(&report, false, &[("seed".into(), "1".into())]);
        assert!(finite);
        let last = out.lines().last().expect("output");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"cpu_ns_per_update\": {\"value\": 12.5, \"unit\": \"ns\"}, \
             \"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 3, \"unit\": \"MB\"}}}"
        );
        assert!(out.contains("median over 1 windows of each window's p50.000"));
        assert!(out.contains(
            "\"wall_throughput_mups\": 2.5, \"query_p50_us\": 10.5, \"query_tail_us\": 10,"
        ));
    }

    #[test]
    fn a_run_without_cpu_windows_is_incorrect() {
        let report = Report {
            correct: true,
            attempted: 3,
            cpu_ns_per_update: f64::NAN,
            query_us: vec![1.0, 2.0],
            setup_s: vec![0.1],
            ..Report::default()
        };
        let (out, finite) = render(&report, false, &[]);
        assert!(!finite);
        assert!(out
            .lines()
            .last()
            .expect("output")
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_output_lists_every_layer_metric() {
        let mut report = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        report.layer("store.evictions", 7.0);
        let (out, _) = render(&report, true, &[]);
        let last = out.lines().last().expect("output");
        for &(name, _) in PER_LAYER {
            assert!(last.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(last.contains("\"store.evictions\": {\"value\": 7,"));
        assert!(!out.contains("\"not_applicable\": [\"store.evictions\""));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\u000ad\"");
    }
}
