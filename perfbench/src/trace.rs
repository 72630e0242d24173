//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A traced run alternates: odd loop cycles record spans, even cycles run
//! untraced, so the traced and untraced throughput of one run share their
//! inputs, warm-up and machine state.  A cycle is one pass of a workload's
//! closed loop; its layer calls are its child spans.

use crate::report::Report;
use crate::{Run, OUT_DIR};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The thread (client session or loop) that recorded it.
    pub thread: u32,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covered (updates, queries, bytes).
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span log against a shared origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` as a span without a parent yet.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, items: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
            items,
        });
    }

    /// Records a parent span whose children were recorded first: every
    /// parentless span from index `first_child` on is re-parented to it.
    pub fn close_parent(
        &mut self,
        name: &'static str,
        first_child: usize,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let parent = self.spans.len();
        for span in &mut self.spans[first_child..] {
            span.parent.get_or_insert(parent);
        }
        self.record(name, start, end, items);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total nanoseconds of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Total work items of the spans called `name`.
    pub fn items(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.items).sum()
    }

    /// Durations (ns) of the spans called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64).collect()
    }

    /// Nanoseconds per item over the spans called `name`.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / self.items(name).max(1) as f64
    }

    /// The share of the time of the spans called `root` that none of their
    /// direct children covers.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for span in &self.spans {
            if span.name == root {
                total += span.ns();
            } else if span.parent.is_some_and(|p| self.spans[p].name == root) {
                covered += span.ns();
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - covered as f64 / total as f64
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"thread\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                span.name, span.thread, span.start_ns, span.end_ns, span.items
            );
        }
        out
    }
}

/// The update rates of one loop mode's cycles (traced or untraced).
#[derive(Debug, Clone, Default)]
pub struct ModeTally {
    rates: Vec<f64>,
}

impl ModeTally {
    /// Records a cycle that applied `updates` between `start` and `end`.
    pub fn add(&mut self, updates: u64, start: Instant, end: Instant) {
        let secs = end.saturating_duration_since(start).as_secs_f64();
        if secs > 0.0 {
            self.rates.push(updates as f64 / secs);
        }
    }

    /// Updates per second: the median cycle's rate, so a burst of
    /// interference moves a few cycles, not the result (0 without cycles).
    pub fn rate(&self) -> f64 {
        crate::stats::median(&self.rates).unwrap_or(0.0)
    }
}

/// Whether loop cycle `cycle` records spans.
pub fn traced_cycle(trace: bool, cycle: u64) -> bool {
    trace && cycle % 2 == 1
}

/// The layer metrics every traced run reports, and the span file.
///
/// `rates` holds the (untraced, traced) updates per second of the run's
/// two kinds of loop cycle.
pub fn finish_trace(
    run: &Run,
    report: &mut Report,
    tracer: &Tracer,
    rates: (f64, f64),
    client_cpu_s: f64,
    elapsed: Duration,
) {
    report.layer("cpu.client_busy_frac", client_cpu_s / elapsed.as_secs_f64());
    report.layer("accuracy.abs_rel_error", report.abs_rel_error);
    report.layer(
        "accuracy.failed_ops_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.layer("trace.throughput_traced_mups", rates.1 / 1e6);
    report.layer("trace.overhead_frac", 1.0 - rates.1 / rates.0);
    report.layer("trace.unattributed_frac", tracer.unattributed_frac("cycle"));
    write_spans(run, report, tracer);
}

/// Writes the spans to `perfbench/out/<workload>-<seed>.spans.jsonl`.
fn write_spans(run: &Run, report: &mut Report, tracer: &Tracer) {
    let path = format!("{OUT_DIR}/{}-{}.spans.jsonl", run.workload, run.seed);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    if let Err(e) = written {
        report
            .notes
            .push(format!("could not write spans to {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_time_is_the_parent_minus_its_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut tracer = Tracer::new(origin, 0);
        let first = tracer.len();
        tracer.record("write", at(0), at(30), 3);
        tracer.record("wait", at(40), at(90), 1);
        tracer.close_parent("cycle", first, at(0), at(100), 4);
        assert!((tracer.unattributed_frac("cycle") - 0.2).abs() < 1e-9);
        assert_eq!(tracer.total_ns("write"), 30_000_000);
        assert_eq!(tracer.ns_per_item("write"), 10_000_000.0);

        let mut other = Tracer::new(origin, 1);
        let first = other.len();
        other.record("write", at(0), at(100), 1);
        other.close_parent("cycle", first, at(0), at(100), 1);
        tracer.absorb(other);
        assert!((tracer.unattributed_frac("cycle") - 0.1).abs() < 1e-9);
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl
            .lines()
            .last()
            .expect("five lines")
            .contains("\"thread\":1"));
        assert!(jsonl
            .lines()
            .nth(3)
            .expect("five lines")
            .contains("\"parent\":4"));
    }

    #[test]
    fn mode_rate_is_the_median_cycle_rate() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut tally = ModeTally::default();
        assert_eq!(tally.rate(), 0.0);
        tally.add(100, at(0), at(100));
        tally.add(100, at(100), at(150));
        tally.add(100, at(150), at(1150));
        assert_eq!(
            tally.rate(),
            1000.0,
            "the slow cycle does not drag the median"
        );
    }

    #[test]
    fn odd_cycles_are_traced_only_in_trace_mode() {
        assert!(!traced_cycle(false, 1));
        assert!(!traced_cycle(true, 0));
        assert!(traced_cycle(true, 1));
    }
}
