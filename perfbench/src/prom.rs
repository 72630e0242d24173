//! A parser for the Prometheus text exposition the `--metrics` endpoint
//! serves, and the scrape that fetches it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One sample line: `name{label="value",…} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parses an exposition body.  `#` lines and blank lines are skipped.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(parse_line)
        .collect()
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let bad = |why: &str| format!("{why}: {line:?}");
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| bad("no value"))?;
    let name = &line[..name_end];
    if name.is_empty() {
        return Err(bad("empty metric name"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let mut chars = body.char_indices();
        let mut key = String::new();
        let close = loop {
            let (i, c) = chars.next().ok_or_else(|| bad("unterminated labels"))?;
            match c {
                '}' if key.is_empty() => break i,
                ',' | ' ' if key.is_empty() => {}
                '=' => {
                    if chars.next().map(|(_, c)| c) != Some('"') {
                        return Err(bad("unquoted label value"));
                    }
                    let mut value = String::new();
                    loop {
                        match chars
                            .next()
                            .ok_or_else(|| bad("unterminated label value"))?
                        {
                            (_, '"') => break,
                            (_, '\\') => match chars.next().map(|(_, c)| c) {
                                Some('n') => value.push('\n'),
                                Some(c) => value.push(c),
                                None => return Err(bad("dangling escape")),
                            },
                            (_, c) => value.push(c),
                        }
                    }
                    labels.push((std::mem::take(&mut key), value));
                }
                c => key.push(c),
            }
        };
        rest = &body[close + 1..];
    }
    let value = rest
        .split_whitespace()
        .next()
        .ok_or_else(|| bad("no value"))?;
    let value = value.parse::<f64>().map_err(|_| bad("unparsable value"))?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Sum of every sample of `name`, across label sets (0 when absent).
pub fn sum(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// The sample of `name` carrying the label `key="value"`.
pub fn labeled(samples: &[Sample], name: &str, key: &str, value: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value))
        .map(|s| s.value)
}

/// Fetches and parses `GET /metrics` from `addr`.
pub fn scrape(addr: &str) -> Result<Vec<Sample>, String> {
    let fail = |e: std::io::Error| format!("scrape {addr}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(fail)?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map_err(fail)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(fail)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or_else(|| format!("scrape {addr}: no header terminator"))?;
    parse(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "# TYPE knw_cluster_snapshot_latency_ns summary\n\
        knw_cluster_snapshot_latency_ns{quantile=\"0.5\"} 7340032\n\
        knw_cluster_snapshot_latency_ns{quantile=\"0.99\"} 9437184\n\
        knw_cluster_snapshot_latency_ns_sum 1500000000\n\
        knw_cluster_snapshot_latency_ns_count 190\n\
        # TYPE knw_cluster_worker_send_bytes_total counter\n\
        knw_cluster_worker_send_bytes_total{worker=\"0\"} 1000\n\
        knw_cluster_worker_send_bytes_total{worker=\"1\"} 2500\n\
        \n\
        knw_odd{path=\"a\\\"b\\\\c\\nd\",x=\"}\"} 1.5e3\n";

    #[test]
    fn parses_counters_summaries_and_labels() {
        let samples = parse(EXPOSITION).expect("valid exposition");
        assert_eq!(samples.len(), 7);
        assert_eq!(sum(&samples, "knw_cluster_worker_send_bytes_total"), 3500.0);
        assert_eq!(
            sum(&samples, "knw_cluster_snapshot_latency_ns_count"),
            190.0
        );
        assert_eq!(
            labeled(
                &samples,
                "knw_cluster_snapshot_latency_ns",
                "quantile",
                "0.5"
            ),
            Some(7_340_032.0)
        );
        assert_eq!(sum(&samples, "absent_total"), 0.0);
    }

    #[test]
    fn unescapes_label_values() {
        let samples = parse(EXPOSITION).expect("valid exposition");
        let odd = samples.iter().find(|s| s.name == "knw_odd").expect("odd");
        assert_eq!(
            odd.labels,
            vec![
                ("path".to_string(), "a\"b\\c\nd".to_string()),
                ("x".to_string(), "}".to_string()),
            ]
        );
        assert_eq!(odd.value, 1500.0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("knw_total").is_err());
        assert!(parse("knw_total{a=\"1\" 3").is_err());
        assert!(parse("knw_total{a=1} 3").is_err());
        assert!(parse("knw_total twelve").is_err());
    }
}
