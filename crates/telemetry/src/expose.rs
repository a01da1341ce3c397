//! Dual exposition: Prometheus-style text and `serde_json` values.
//!
//! Text format (one sample per line, stable order):
//!
//! ```text
//! live_journal_retractions_total 42
//! live_shard_commit_ns{shard="0",quantile="0.5"} 18432
//! live_shard_commit_ns{shard="0",quantile="0.9"} 24576
//! live_shard_commit_ns{shard="0",quantile="0.99"} 30720
//! live_shard_commit_ns_count{shard="0"} 128
//! live_shard_commit_ns_sum{shard="0"} 2359296
//! live_shard_commit_ns_max{shard="0"} 31044
//! ```
//!
//! Counters and gauges are one line; histograms expand to three
//! quantile samples plus `_count` / `_sum` / `_max`. Label keys and
//! values are emitted verbatim — instrument names and label values
//! in this workspace are code-chosen identifiers (shard indices,
//! source slugs), so no escaping layer is applied; callers must not
//! feed `"` or newlines into label values.
//!
//! The JSON form is an object keyed by the rendered series name;
//! histograms become `{count, sum, max, p50, p90, p99}` objects.

use serde_json::{json, Value};

use crate::histogram::HistogramSnapshot;

/// The value side of one registered series at snapshot time.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Full histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One registered series at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Instrument name, e.g. `live_ingest_stage_ns`.
    pub name: String,
    /// Sorted `(key, value)` label pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// Renders `{k="v",...}` for the label set, with room to append
/// extra pairs (the quantile label); empty input with no extras
/// renders as nothing.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders snapshots in the Prometheus-style text format described
/// in the module docs.
pub fn render_text(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for snap in snapshots {
        let plain = label_block(&snap.labels, None);
        match &snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{}{plain} {v}\n", snap.name));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{}{plain} {v}\n", snap.name));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                    let labels = label_block(&snap.labels, Some(("quantile", q)));
                    out.push_str(&format!("{}{labels} {v}\n", snap.name));
                }
                out.push_str(&format!("{}_count{plain} {}\n", snap.name, h.count()));
                out.push_str(&format!("{}_sum{plain} {}\n", snap.name, h.sum()));
                out.push_str(&format!("{}_max{plain} {}\n", snap.name, h.max()));
            }
        }
    }
    out
}

/// Renders snapshots as one JSON object keyed by rendered series
/// name (`name{labels}`), values as described in the module docs.
pub fn to_json(snapshots: &[MetricSnapshot]) -> Value {
    let mut map = serde_json::Map::new();
    for snap in snapshots {
        let key = format!("{}{}", snap.name, label_block(&snap.labels, None));
        let value = match &snap.value {
            MetricValue::Counter(v) => json!(v),
            MetricValue::Gauge(v) => json!(v),
            MetricValue::Histogram(h) => json!({
                "count": h.count(),
                "sum": h.sum(),
                "max": h.max(),
                "p50": h.p50(),
                "p90": h.p90(),
                "p99": h.p99(),
            }),
        };
        map.insert(key, value);
    }
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_snapshots() -> Vec<MetricSnapshot> {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        vec![
            MetricSnapshot {
                name: "commits_total".into(),
                labels: vec![],
                value: MetricValue::Counter(42),
            },
            MetricSnapshot {
                name: "queue_depth".into(),
                labels: vec![("shard".into(), "1".into())],
                value: MetricValue::Gauge(-3),
            },
            MetricSnapshot {
                name: "commit_ns".into(),
                labels: vec![("shard".into(), "1".into())],
                value: MetricValue::Histogram(h.snapshot()),
            },
        ]
    }

    #[test]
    fn text_format_is_stable() {
        let text = render_text(&sample_snapshots());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "commits_total 42");
        assert_eq!(lines[1], "queue_depth{shard=\"1\"} -3");
        assert!(lines[2].starts_with("commit_ns{shard=\"1\",quantile=\"0.5\"} "));
        assert!(lines[4].starts_with("commit_ns{shard=\"1\",quantile=\"0.99\"} "));
        assert_eq!(lines[5], "commit_ns_count{shard=\"1\"} 3");
        assert_eq!(lines[6], "commit_ns_sum{shard=\"1\"} 60");
        assert_eq!(lines[7], "commit_ns_max{shard=\"1\"} 30");
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn json_format_carries_distribution_summary() {
        let value = to_json(&sample_snapshots());
        assert_eq!(value.get("commits_total"), Some(&serde_json::json!(42)));
        assert_eq!(
            value.get("queue_depth{shard=\"1\"}"),
            Some(&serde_json::json!(-3))
        );
        let hist = value.get("commit_ns{shard=\"1\"}").cloned().unwrap();
        assert_eq!(hist.get("count"), Some(&serde_json::json!(3)));
        assert_eq!(hist.get("sum"), Some(&serde_json::json!(60)));
        assert_eq!(hist.get("max"), Some(&serde_json::json!(30)));
    }
}
