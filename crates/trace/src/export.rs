//! Prometheus text exposition of a [`MetricsRegistry`]. The per-frame
//! timeline exporters (Chrome trace-event JSON and JSON Lines) live on
//! [`FlightRecorder`](crate::FlightRecorder).

use std::fmt::Write as _;

use crate::metrics::{MetricValue, MetricsRegistry};

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes Prometheus HELP text (`\` and newline).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitizes a metric or label name to `[a-zA-Z_][a-zA-Z0-9_]*`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per metric family,
/// cumulative `_bucket`/`_sum`/`_count` series for histograms.
pub fn prometheus_text(metrics: &MetricsRegistry) -> String {
    let snapshot = metrics.snapshot();
    let help = metrics.help_texts();
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for (key, value) in &snapshot {
        let family = sanitize_name(&key.name);
        if last_family.as_deref() != Some(family.as_str()) {
            if let Some(h) = help.get(&key.name) {
                let _ = writeln!(out, "# HELP {family} {}", escape_help(h));
            }
            let ty = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {family} {ty}");
            last_family = Some(family.clone());
        }
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{family}{} {}",
                    render_labels(&key.labels, None),
                    fmt_value(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, bound) in h.bounds.iter().enumerate() {
                    cumulative += h.counts[i];
                    let _ = writeln!(
                        out,
                        "{family}_bucket{} {cumulative}",
                        render_labels(&key.labels, Some(("le", &fmt_value(*bound))))
                    );
                }
                cumulative += h.counts[h.bounds.len()];
                let _ = writeln!(
                    out,
                    "{family}_bucket{} {cumulative}",
                    render_labels(&key.labels, Some(("le", "+Inf")))
                );
                let _ = writeln!(
                    out,
                    "{family}_sum{} {}",
                    render_labels(&key.labels, None),
                    fmt_value(h.sum)
                );
                let _ = writeln!(
                    out,
                    "{family}_count{} {cumulative}",
                    render_labels(&key.labels, None)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_escapes_label_values_and_help() {
        let m = MetricsRegistry::new();
        m.describe("weird", "line1\nline2 \\ backslash");
        m.counter_add("weird", &[("path", "a\\b\"c\nd")], 1.0);
        let text = prometheus_text(&m);
        assert!(text.contains("# HELP weird line1\\nline2 \\\\ backslash"));
        assert!(text.contains("path=\"a\\\\b\\\"c\\nd\""));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let m = MetricsRegistry::new();
        for v in [1.5e-6, 1.5e-6, 3e-6, 1.0] {
            m.observe("lat_seconds", &[], v);
        }
        let text = prometheus_text(&m);
        assert!(text.contains("lat_seconds_bucket{le=\"0.000001\"} 0"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.000002\"} 2"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.000004\"} 3"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_seconds_count 4"));
    }
}
