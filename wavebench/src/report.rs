//! What one run reports: a human-readable table, then one JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured (or modeled, for `model_` metrics).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was obtained: sample counts, sources, caveats.
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Frames the run asked the system for (set-up, timed and checked).
    pub attempted: u64,
    /// Frames that failed: an error, a non-finite pixel, a mismatch with the
    /// serial reference, or a fleet drop.
    pub failed: u64,
    /// Invariants that did not hold (e.g. modeled values that differ
    /// between two runs of the same seed). Empty when correct.
    pub violations: Vec<String>,
    /// Metrics, in the order of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable table.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Whether every output checked out and every invariant held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records a broken invariant.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// The human-readable table (every metric with its unit and note).
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<24} {:>14.6} {:<9} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<24} {:>14.6} {:<9} {} failed of {} attempted frames",
            "error_rate", error_rate, "ratio", self.failed, self.attempted
        );
        for l in &self.lines {
            let _ = writeln!(s, "  {l}");
        }
        for v in &self.violations {
            let _ = writeln!(s, "  VIOLATION: {v}");
        }
        s
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values are written as `null`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("fps", "frames/s", 12.5, String::new());
        o.push("setup_s", "s", 0.25, String::new());
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"fps\": {\"value\": 12.5, \"unit\": \"frames/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.failed = 1;
        assert!(!o.correct());
        assert!(o.table().contains("error_rate"));
    }
}
