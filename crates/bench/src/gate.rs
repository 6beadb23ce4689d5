//! Bench regression gate: compares a freshly measured [`BenchReport`]
//! against a committed baseline `BENCH_pipeline.json` and flags
//! regressions beyond a tolerance.
//!
//! The gate is deliberately asymmetric per metric:
//!
//! * `frames_per_second` regresses when the *current* value drops below
//!   `baseline * (1 - tolerance)` — slower is bad, faster is fine.
//! * `energy_mj_per_frame` and `p99_ns_per_frame` regress when the
//!   current value climbs above `baseline * (1 + tolerance)` — more
//!   energy or a fatter tail is bad, less is fine.
//!
//! Rows are matched by the `(backend, threads, frame_size, depth, rule)`
//! five-tuple so a baseline captured with a different thread count,
//! geometry, fusion rule or kernel matrix degrades to warnings, never
//! false failures. Baseline rows predating the `frame_size`/`depth`/`rule`
//! columns are read as the historical defaults (88x72, depth 1,
//! `window-energy`). Other keys, such as the `columnar` flag the committed
//! baseline's rows still carry, are ignored. Missing rows or missing
//! metrics (e.g. a baseline predating the energy columns) are skipped
//! with a warning rather than treated as regressions, so the gate can be
//! adopted against historical baselines.

use crate::experiments::{BenchReport, BenchRow};
use wavefuse_trace::JsonValue;

/// One metric comparison between a current bench row and its baseline.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Backend label of the row (paper naming, e.g. `FPGA`).
    pub backend: String,
    /// Worker threads of the row.
    pub threads: usize,
    /// Frame geometry of the row.
    pub frame_size: (usize, usize),
    /// Pipelining depth of the row.
    pub depth: usize,
    /// Detail fusion rule label of the row.
    pub rule: String,
    /// Metric name (`frames_per_second`, `energy_mj_per_frame`,
    /// `p99_ns_per_frame`).
    pub metric: &'static str,
    /// Baseline value from the committed report.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Whether the current value violates the tolerance band.
    pub regressed: bool,
}

/// The full result of gating a report against a baseline.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Every metric comparison performed, in row order.
    pub checks: Vec<GateCheck>,
    /// Rows or metrics that could not be compared (skipped, not failed).
    pub warnings: Vec<String>,
    /// The relative tolerance used (e.g. `0.25` for ±25%).
    pub tolerance: f64,
}

impl GateOutcome {
    /// `true` when no compared metric regressed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.regressed)
    }

    /// Number of regressed metric comparisons.
    pub fn regressions(&self) -> usize {
        self.checks.iter().filter(|c| c.regressed).count()
    }
}

/// Extracts a named `f64` metric from a baseline row object.
fn metric(row: &JsonValue, name: &str) -> Option<f64> {
    row.get(name).and_then(JsonValue::as_f64)
}

/// Frame geometry of a baseline row; rows predating the column read as
/// the historical default (88x72).
fn baseline_frame_size(row: &JsonValue) -> (usize, usize) {
    row.get("frame_size")
        .and_then(JsonValue::as_arr)
        .and_then(|a| match a {
            [w, h] => Some((w.as_f64()? as usize, h.as_f64()? as usize)),
            _ => None,
        })
        .unwrap_or((88, 72))
}

/// Pipelining depth of a baseline row; rows predating the column read as
/// the historical default (1, no software pipelining).
fn baseline_depth(row: &JsonValue) -> usize {
    row.get("depth")
        .and_then(JsonValue::as_f64)
        .map_or(1, |d| d as usize)
}

/// Detail fusion rule label of a baseline row; rows predating the column
/// read as the historical default rule (`window-energy`, radius 1).
fn baseline_rule(row: &JsonValue) -> &str {
    row.get("rule")
        .and_then(JsonValue::as_str)
        .unwrap_or("window-energy")
}

/// Finds the baseline row matching a current row's identity five-tuple.
fn find_baseline_row<'a>(rows: &'a [JsonValue], cur: &BenchRow) -> Option<&'a JsonValue> {
    rows.iter().find(|r| {
        r.get("backend").and_then(JsonValue::as_str) == Some(cur.backend.as_str())
            && r.get("threads").and_then(JsonValue::as_f64) == Some(cur.threads as f64)
            && baseline_frame_size(r) == cur.frame_size
            && baseline_depth(r) == cur.depth
            && baseline_rule(r) == cur.rule
    })
}

/// Reads and parses a baseline report from disk, degrading every failure
/// mode — missing file, unreadable file, empty file, truncated or
/// otherwise corrupt JSON — to a warning instead of an error. In those
/// cases the returned document is [`JsonValue::Null`], which
/// [`check_against_baseline`] in turn degrades to per-row warnings, so a
/// bench run with `--check` never hard-fails just because the baseline
/// is absent or damaged (it still fails on genuine regressions).
pub fn load_baseline(path: &str) -> (JsonValue, Option<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return (
                JsonValue::Null,
                Some(format!(
                    "baseline {path} unreadable ({e}); gate degrades to warnings"
                )),
            );
        }
    };
    if text.trim().is_empty() {
        return (
            JsonValue::Null,
            Some(format!(
                "baseline {path} is empty; gate degrades to warnings"
            )),
        );
    }
    match JsonValue::parse(&text) {
        Ok(v) => (v, None),
        Err(e) => (
            JsonValue::Null,
            Some(format!(
                "baseline {path} is not valid JSON ({e}); gate degrades to warnings"
            )),
        ),
    }
}

/// Compares `current` against a parsed baseline report, with a relative
/// `tolerance` (fraction, e.g. `0.25`).
///
/// The baseline is the JSON document produced by serializing a
/// [`BenchReport`] (the committed `BENCH_pipeline.json`); an arbitrary
/// document degrades to warnings for every row.
pub fn check_against_baseline(
    current: &BenchReport,
    baseline: &JsonValue,
    tolerance: f64,
) -> GateOutcome {
    let tolerance = tolerance.max(0.0);
    let mut outcome = GateOutcome {
        checks: Vec::new(),
        warnings: Vec::new(),
        tolerance,
    };
    let empty: [JsonValue; 0] = [];
    let base_rows: &[JsonValue] = match baseline.get("rows").and_then(JsonValue::as_arr) {
        Some(rows) => rows,
        None => {
            outcome
                .warnings
                .push("baseline has no `rows` array; nothing compared".into());
            &empty
        }
    };
    for cur in &current.rows {
        let ident = format!(
            "{} threads={} size={}x{} depth={} rule={}",
            cur.backend, cur.threads, cur.frame_size.0, cur.frame_size.1, cur.depth, cur.rule
        );
        let Some(base) = find_baseline_row(base_rows, cur) else {
            if !base_rows.is_empty() {
                outcome
                    .warnings
                    .push(format!("no baseline row for {ident}; skipped"));
            }
            continue;
        };
        // (metric name, baseline, current, higher-is-better)
        let comparisons: [(&'static str, Option<f64>, f64, bool); 3] = [
            (
                "frames_per_second",
                metric(base, "frames_per_second"),
                cur.frames_per_second,
                true,
            ),
            (
                "energy_mj_per_frame",
                metric(base, "energy_mj_per_frame"),
                cur.energy_mj_per_frame,
                false,
            ),
            (
                "p99_ns_per_frame",
                metric(base, "p99_ns_per_frame"),
                cur.p99_ns_per_frame,
                false,
            ),
        ];
        for (name, base_value, cur_value, higher_is_better) in comparisons {
            let Some(base_value) = base_value else {
                outcome
                    .warnings
                    .push(format!("baseline row {ident} lacks `{name}`; skipped"));
                continue;
            };
            let regressed = if higher_is_better {
                cur_value < base_value * (1.0 - tolerance)
            } else {
                cur_value > base_value * (1.0 + tolerance)
            };
            outcome.checks.push(GateCheck {
                backend: cur.backend.clone(),
                threads: cur.threads,
                frame_size: cur.frame_size,
                depth: cur.depth,
                rule: cur.rule.clone(),
                metric: name,
                baseline: base_value,
                current: cur_value,
                regressed,
            });
        }
    }
    if outcome.checks.is_empty() && outcome.warnings.is_empty() {
        outcome
            .warnings
            .push("no rows compared against the baseline".into());
    }
    outcome
}

/// Renders the gate outcome as a human-readable report.
pub fn render_gate(outcome: &GateOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Bench regression gate (tolerance ±{:.0}%)\n",
        outcome.tolerance * 100.0
    ));
    out.push_str(&format!(
        "{:>8} {:>7} {:>10} {:>5} {:>15} | {:>20} | {:>12} {:>12} | {}\n",
        "backend", "threads", "size", "depth", "rule", "metric", "baseline", "current", "verdict"
    ));
    out.push_str(&"-".repeat(115));
    out.push('\n');
    for c in &outcome.checks {
        out.push_str(&format!(
            "{:>8} {:>7} {:>10} {:>5} {:>15} | {:>20} | {:>12.3} {:>12.3} | {}\n",
            c.backend,
            c.threads,
            format!("{}x{}", c.frame_size.0, c.frame_size.1),
            c.depth,
            c.rule,
            c.metric,
            c.baseline,
            c.current,
            if c.regressed { "REGRESSED" } else { "ok" }
        ));
    }
    for w in &outcome.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out.push_str(&format!(
        "gate: {} ({} checks, {} regressions, {} warnings)\n",
        if outcome.passed() { "PASS" } else { "FAIL" },
        outcome.checks.len(),
        outcome.regressions(),
        outcome.warnings.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_trace::ToJson;

    fn report() -> BenchReport {
        BenchReport {
            frame_size: (88, 72),
            levels: 3,
            scene_seed: 2016,
            warmup_frames: 4,
            frames: 8,
            reps: 3,
            lane_path: "portable",
            rows: vec![BenchRow {
                backend: "FPGA".into(),
                threads: 2,
                frame_size: (88, 72),
                depth: 1,
                frames: 8,
                kernel: "zynq-sim".into(),
                rule: "window-energy".into(),
                wall_s: 0.1,
                frames_per_second: 80.0,
                ns_per_frame: 1.25e7,
                mean_frames_per_second: 78.0,
                energy_mj_per_frame: 12.0,
                fps_per_watt: 144.9,
                p50_ns_per_frame: 1.2e7,
                p99_ns_per_frame: 1.4e7,
                phase_s: vec![("forward".into(), 0.05)],
                pool_hits: 10,
                pool_misses: 2,
                pool_bytes: 4096,
            }],
        }
    }

    #[test]
    fn identical_baseline_passes() {
        let cur = report();
        let base = cur.to_json();
        let out = check_against_baseline(&cur, &base, 0.25);
        assert!(out.passed(), "{}", render_gate(&out));
        assert_eq!(out.checks.len(), 3);
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn inflated_fps_baseline_fails_only_fps() {
        let cur = report();
        let mut base = cur.to_json();
        // Inflate the baseline fps 100x: the current run now looks slow.
        if let JsonValue::Obj(pairs) = &mut base {
            let rows = pairs.iter_mut().find(|(k, _)| k == "rows").unwrap();
            if let JsonValue::Arr(rows) = &mut rows.1 {
                if let JsonValue::Obj(row) = &mut rows[0] {
                    let fps = row
                        .iter_mut()
                        .find(|(k, _)| k == "frames_per_second")
                        .unwrap();
                    fps.1 = JsonValue::Num(8000.0);
                }
            }
        }
        let out = check_against_baseline(&cur, &base, 0.25);
        assert!(!out.passed());
        assert_eq!(out.regressions(), 1);
        let bad = out.checks.iter().find(|c| c.regressed).unwrap();
        assert_eq!(bad.metric, "frames_per_second");
    }

    #[test]
    fn higher_energy_and_p99_regress_lower_do_not() {
        let mut cur = report();
        let base = cur.to_json();
        cur.rows[0].energy_mj_per_frame = 20.0; // +67% > 25%
        cur.rows[0].p99_ns_per_frame = 1.0e7; // improvement
        let out = check_against_baseline(&cur, &base, 0.25);
        assert_eq!(out.regressions(), 1);
        assert_eq!(
            out.checks.iter().find(|c| c.regressed).unwrap().metric,
            "energy_mj_per_frame"
        );
    }

    #[test]
    fn missing_rows_and_metrics_warn_instead_of_failing() {
        let cur = report();
        // Baseline with a different identity triple: no row matches.
        let mut other = report();
        other.rows[0].threads = 4;
        let out = check_against_baseline(&cur, &other.to_json(), 0.25);
        assert!(out.passed());
        assert!(out.checks.is_empty());
        assert!(!out.warnings.is_empty());
        // Baseline missing the new metric columns entirely.
        let mut stripped = cur.to_json();
        if let JsonValue::Obj(pairs) = &mut stripped {
            let rows = pairs.iter_mut().find(|(k, _)| k == "rows").unwrap();
            if let JsonValue::Arr(rows) = &mut rows.1 {
                if let JsonValue::Obj(row) = &mut rows[0] {
                    row.retain(|(k, _)| k != "energy_mj_per_frame" && k != "p99_ns_per_frame");
                }
            }
        }
        let out = check_against_baseline(&cur, &stripped, 0.25);
        assert!(out.passed());
        assert_eq!(out.checks.len(), 1); // fps still compared
        assert_eq!(out.warnings.len(), 2);
    }

    #[test]
    fn legacy_baseline_rows_read_as_default_size_and_depth() {
        // A baseline written before the frame_size/depth/rule columns
        // existed must still match a current (88x72, depth 1,
        // window-energy) row exactly...
        let cur = report();
        let mut legacy = cur.to_json();
        if let JsonValue::Obj(pairs) = &mut legacy {
            let rows = pairs.iter_mut().find(|(k, _)| k == "rows").unwrap();
            if let JsonValue::Arr(rows) = &mut rows.1 {
                if let JsonValue::Obj(row) = &mut rows[0] {
                    row.retain(|(k, _)| {
                        k != "frame_size" && k != "depth" && k != "frames" && k != "rule"
                    });
                }
            }
        }
        let out = check_against_baseline(&cur, &legacy, 0.25);
        assert!(out.passed(), "{}", render_gate(&out));
        assert_eq!(out.checks.len(), 3);
        assert!(out.warnings.is_empty());

        // ...and degrade a larger-frame or deeper row to a warning, not a
        // false comparison against the 88x72 figures.
        let mut vga = report();
        vga.rows[0].frame_size = (640, 480);
        let out = check_against_baseline(&vga, &legacy, 0.25);
        assert!(out.checks.is_empty());
        assert_eq!(out.warnings.len(), 1);

        let mut deep = report();
        deep.rows[0].depth = 2;
        let out = check_against_baseline(&deep, &legacy, 0.25);
        assert!(out.checks.is_empty());
        assert_eq!(out.warnings.len(), 1);

        // ...and a row measured under a different fusion rule must not be
        // compared against the legacy (implicitly window-energy) figures.
        let mut ruled = report();
        ruled.rows[0].rule = "choose-max".into();
        let out = check_against_baseline(&ruled, &legacy, 0.25);
        assert!(out.checks.is_empty());
        assert_eq!(out.warnings.len(), 1);
    }

    #[test]
    fn rows_for_different_rules_gate_independently() {
        let mut cur = report();
        cur.rows[0].rule = "choose-max".into();
        // Same-rule baseline: full comparison.
        let base = cur.to_json();
        let out = check_against_baseline(&cur, &base, 0.25);
        assert!(out.passed(), "{}", render_gate(&out));
        assert_eq!(out.checks.len(), 3);
        // A window-energy baseline never gates a choose-max row.
        let out = check_against_baseline(&cur, &report().to_json(), 0.25);
        assert!(out.checks.is_empty());
        assert_eq!(out.warnings.len(), 1);
    }

    #[test]
    fn garbage_baseline_degrades_to_warning() {
        let cur = report();
        let out = check_against_baseline(&cur, &JsonValue::Null, 0.25);
        assert!(out.passed());
        assert!(!out.warnings.is_empty());
    }

    #[test]
    fn missing_empty_and_truncated_baseline_files_degrade_to_warnings() {
        let (doc, warning) = load_baseline("/nonexistent/BENCH_pipeline.json");
        assert!(matches!(doc, JsonValue::Null));
        assert!(warning.unwrap().contains("unreadable"));

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/gate-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text, needle) in [
            ("empty.json", "", "empty"),
            (
                "truncated.json",
                "{\"rows\": [{\"backend\": \"FP",
                "not valid JSON",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let (doc, warning) = load_baseline(path.to_str().unwrap());
            assert!(
                matches!(doc, JsonValue::Null),
                "{name} should parse to Null"
            );
            assert!(warning.unwrap().contains(needle), "{name} warning text");
            // A Null baseline must gate to warnings, never a failure.
            let out = check_against_baseline(&report(), &doc, 0.25);
            assert!(out.passed());
            assert!(!out.warnings.is_empty());
        }

        let good = dir.join("good.json");
        std::fs::write(&good, report().to_json().render()).unwrap();
        let (doc, warning) = load_baseline(good.to_str().unwrap());
        assert!(warning.is_none());
        assert!(check_against_baseline(&report(), &doc, 0.25).passed());
    }

    #[test]
    fn serve_rows_are_gated_by_the_same_five_tuple() {
        let mut cur = report();
        cur.rows[0].backend = "SERVE-64".into();
        cur.rows[0].kernel = "fleet-shared-pool".into();
        let base = cur.to_json();
        let out = check_against_baseline(&cur, &base, 0.25);
        assert!(out.passed(), "{}", render_gate(&out));
        assert_eq!(out.checks.len(), 3);

        // A serve throughput collapse is a regression, not a warning.
        cur.rows[0].frames_per_second = 1.0;
        let out = check_against_baseline(&cur, &base, 0.25);
        assert_eq!(out.regressions(), 1);

        // A serve row never matches a single-stream row of the same
        // threads/size/depth: the backend label disambiguates.
        let single = report();
        let out = check_against_baseline(&cur, &single.to_json(), 0.25);
        assert!(out.checks.is_empty());
    }
}
