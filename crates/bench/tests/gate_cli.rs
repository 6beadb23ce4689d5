//! End-user tests of the `repro` binary's bench regression gate and
//! flight-recorder export.

use std::path::PathBuf;
use std::process::Command;

use wavefuse_trace::JsonValue;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("repro-gate-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).expect("temp dir");
    p
}

fn run_bench(out_path: &std::path::Path, extra: &[&str]) -> std::process::Output {
    let mut cmd = repro();
    cmd.args([
        "bench",
        "--frames",
        "2",
        "--threads",
        "2",
        "--bench-out",
        out_path.to_str().unwrap(),
    ]);
    cmd.args(extra);
    cmd.output().expect("spawn repro bench")
}

/// Applies `edit` to every row object of a bench report document.
fn edit_rows(doc: &mut JsonValue, mut edit: impl FnMut(&mut Vec<(String, JsonValue)>)) {
    if let JsonValue::Obj(pairs) = doc {
        let rows = pairs.iter_mut().find(|(k, _)| k == "rows").unwrap();
        if let JsonValue::Arr(rows) = &mut rows.1 {
            for row in rows {
                if let JsonValue::Obj(fields) = row {
                    edit(fields);
                }
            }
        }
    }
}

#[test]
fn bench_rows_carry_energy_and_quantile_columns() {
    let dir = tmp_dir("columns");
    let path = dir.join("bench.json");
    let out = run_bench(&path, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid json");
    let rows = doc.get("rows").and_then(JsonValue::as_arr).expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        let backend = row.get("backend").and_then(JsonValue::as_str).unwrap();
        for key in [
            "energy_mj_per_frame",
            "fps_per_watt",
            "p50_ns_per_frame",
            "p99_ns_per_frame",
        ] {
            let v = row
                .get(key)
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("{backend} row missing {key}"));
            assert!(v.is_finite() && v > 0.0, "{backend} {key} = {v}");
        }
        let p50 = row.get("p50_ns_per_frame").and_then(JsonValue::as_f64);
        let p99 = row.get("p99_ns_per_frame").and_then(JsonValue::as_f64);
        assert!(p50 <= p99, "{backend}: p50 {p50:?} > p99 {p99:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_passes_against_own_baseline_and_fails_inflated_one() {
    let dir = tmp_dir("gate");
    let baseline = dir.join("baseline.json");
    let out = run_bench(&baseline, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Self-check with a generous tolerance: run-to-run wall-clock noise
    // must not trip the gate.
    let out = run_bench(
        &dir.join("rerun.json"),
        &[
            "--check",
            baseline.to_str().unwrap(),
            "--tolerance",
            "10000",
        ],
    );
    assert!(
        out.status.success(),
        "self-check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Bench regression gate"), "{stdout}");
    assert!(stdout.contains("gate: PASS"), "{stdout}");

    // A baseline whose rows still carry the retired `"columnar": true`
    // key (as the committed BENCH_pipeline.json does) must keep gating:
    // every row is compared, none degrades to a warning.
    let mut doc = JsonValue::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    edit_rows(&mut doc, |fields| {
        fields.push(("columnar".to_string(), JsonValue::Bool(true)));
    });
    let legacy = dir.join("legacy.json");
    std::fs::write(&legacy, doc.render()).unwrap();
    let out = run_bench(
        &dir.join("rerun_legacy.json"),
        &["--check", legacy.to_str().unwrap(), "--tolerance", "10000"],
    );
    assert!(
        out.status.success(),
        "legacy-keyed self-check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate: PASS"), "{stdout}");
    assert!(
        !stdout.contains("(0 checks"),
        "legacy rows produced no comparisons:\n{stdout}"
    );
    assert!(
        stdout.contains(", 0 warnings)"),
        "legacy rows degraded to warnings:\n{stdout}"
    );

    // Inflate the baseline's fps 100x: the fresh run must now regress.
    let mut doc = JsonValue::parse(&std::fs::read_to_string(&baseline).unwrap()).unwrap();
    edit_rows(&mut doc, |fields| {
        let fps = fields
            .iter_mut()
            .find(|(k, _)| k == "frames_per_second")
            .unwrap();
        let inflated = fps.1.as_f64().unwrap() * 100.0;
        fps.1 = JsonValue::Num(inflated);
    });
    let inflated = dir.join("inflated.json");
    std::fs::write(&inflated, doc.render()).unwrap();
    let out = run_bench(
        &dir.join("rerun2.json"),
        &["--check", inflated.to_str().unwrap(), "--tolerance", "25"],
    );
    assert!(
        !out.status.success(),
        "gate must exit non-zero against the inflated baseline"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regression gate failed"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_upsert_replaces_a_legacy_keyed_row() {
    // A SERVE-2/threads-2 row written while rows still carried the
    // `columnar` key must be replaced, not duplicated, and every other
    // row must survive the upsert.
    let dir = tmp_dir("upsert");
    let path = dir.join("bench.json");
    std::fs::write(
        &path,
        "{\"rows\":[\
         {\"backend\":\"SERVE-2\",\"threads\":2,\"columnar\":true,\"frames_per_second\":1.0},\
         {\"backend\":\"NEON\",\"threads\":1,\"columnar\":true,\"frames_per_second\":2.0}]}\n",
    )
    .unwrap();
    let out = repro()
        .args([
            "serve",
            "--streams",
            "2",
            "--frames",
            "2",
            "--threads",
            "2",
            "--bench-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn repro serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid json");
    let rows = doc.get("rows").and_then(JsonValue::as_arr).expect("rows");
    let key = |r: &JsonValue| {
        (
            r.get("backend")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
            r.get("threads").and_then(JsonValue::as_f64),
        )
    };
    let serve: Vec<&JsonValue> = rows
        .iter()
        .filter(|r| key(r) == (Some("SERVE-2".into()), Some(2.0)))
        .collect();
    assert_eq!(serve.len(), 1, "{}", doc.render());
    assert!(serve[0].get("columnar").is_none(), "legacy row survived");
    assert!(
        rows.iter()
            .any(|r| key(r) == (Some("NEON".into()), Some(1.0))),
        "unrelated row dropped: {}",
        doc.render()
    );
    assert_eq!(rows.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_with_unreadable_baseline_degrades_to_a_warning() {
    // A missing, empty, or truncated baseline must not hard-fail the run
    // (a fresh checkout has no history to gate against): the gate warns
    // and every row degrades to a warning instead of a verdict.
    let dir = tmp_dir("nobase");
    let out = run_bench(
        &dir.join("bench.json"),
        &["--check", dir.join("missing.json").to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "missing baseline must degrade, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("gate degrades to warnings"),
        "expected a degradation warning on stderr:\n{stderr}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("gate: PASS"),
        "an unreadable baseline leaves nothing to regress against"
    );

    // Truncated JSON degrades the same way.
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, "{\"rows\":[{\"backend\":").unwrap();
    let out = run_bench(
        &dir.join("bench2.json"),
        &["--check", truncated.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "truncated baseline must degrade, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("gate degrades to warnings"),
        "expected a degradation warning for truncated JSON"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_flight_record_round_trips() {
    let dir = tmp_dir("flight");
    let jsonl = dir.join("flight.jsonl");
    let frames = 6;
    let out = repro()
        .args([
            "eval",
            "--frames",
            &frames.to_string(),
            "--flight-record",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .expect("spawn repro eval");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flight recorder"), "{stdout}");

    // The JSONL has one record per frame, each a flat object with the
    // energy split and phase timings.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), frames);
    let mut energy_sum = 0.0;
    for (i, line) in lines.iter().enumerate() {
        let rec = JsonValue::parse(line).expect("valid record");
        assert_eq!(
            rec.get("frame").and_then(JsonValue::as_f64),
            Some(i as f64),
            "records are oldest-first"
        );
        for key in ["energy_mj", "ps_mj", "pl_mj", "forward_s", "decision"] {
            assert!(rec.get(key).is_some(), "record {i} missing {key}");
        }
        energy_sum += rec.get("energy_mj").and_then(JsonValue::as_f64).unwrap();
    }
    assert!(energy_sum > 0.0);

    // The companion Chrome trace parses and has frame + phase spans.
    let trace_path = dir.join("flight.jsonl.trace.json");
    let trace = JsonValue::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents");
    // One metadata event + per frame one span + five phase spans.
    assert_eq!(events.len(), 1 + frames * 6);
    std::fs::remove_dir_all(&dir).ok();
}
