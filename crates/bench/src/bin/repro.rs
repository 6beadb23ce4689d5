//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p wavefuse-bench --bin repro --release -- all
//! cargo run -p wavefuse-bench --bin repro --release -- fig9a fig10
//! cargo run -p wavefuse-bench --bin repro --release -- \
//!     eval --flight-record out.jsonl --metrics out.prom
//! ```
//!
//! Subcommands: `fig2`, `table1`, `fig9a`, `fig9b`, `fig9c`, `fig10`,
//! `crossover`, `adaptive`, `ablation`, `quality`, `levels`, `throughput`,
//! `timeline`, `bench`, `serve`, `eval`, `all`.
//!
//! The `bench` subcommand measures real wall-clock pipeline throughput
//! (frames/sec and ns/frame per backend, serial and on the worker pool,
//! with the measured per-phase split) and writes `BENCH_pipeline.json`
//! in the current directory; `--frames <n>` sets the timed frames per
//! configuration (default 64) and `--threads <n>` the worker count of
//! the threaded rows (default: host parallelism clamped to 2..=4).
//! `--frame-size <WxH>` changes the measured geometry (default `88x72`)
//! and `--depth <k>` requests depth-k software pipelining for the
//! threaded rows (serial rows always run at depth 1). `--matrix`
//! additionally records the NEON scaling curve — 1/2/4/8 threads x
//! {88x72, 640x480, 1920x1080} x depth {1,2,3} — as extra report rows.
//! Each report row records the kernel name. `--rule
//! choose-max|window-energy|weighted|activity-guided` selects the detail
//! fusion rule (default `window-energy`, the paper's 3x3 neighborhood
//! energy rule); the rule label is part of each row's identity key, so
//! rows measured under different rules gate independently.
//!
//! `bench --check <baseline.json>` additionally gates the fresh run
//! against a committed baseline report and exits non-zero when
//! `frames_per_second` drops — or `energy_mj_per_frame` /
//! `p99_ns_per_frame` climbs — beyond `--tolerance <pct>` (default 25).
//! A missing, empty, or corrupt baseline file degrades the gate to
//! warnings (the run still completes) so a fresh checkout can bootstrap
//! its own baseline.
//!
//! The `serve` subcommand measures multi-stream serving: `--streams <n>`
//! (default 64) independent fusion streams share one worker fleet
//! (`--threads`, same default as `bench`) with cross-stream batch
//! packing, each serving `--frames <n>` timed frames (default 32) after
//! a warm-up window, followed by the sequential one-engine-per-stream
//! baseline for the same budget. It prints aggregate fps, fairness,
//! energy per frame, and per-stream p50/p99 latency, then upserts a
//! `SERVE-<streams>` row into the `--bench-out` report (default
//! `BENCH_pipeline.json`, preserving existing rows) so the regression
//! gate covers serving; `--serve-out <path>` additionally writes the
//! full per-stream JSON report, and `--check`/`--tolerance` gate the
//! serve row like `bench` does.
//!
//! The `eval` subcommand runs an instrumented pipeline and exports its
//! telemetry: `--flight-record <path>` dumps the pipeline's per-frame
//! flight recorder as JSONL at `<path>` plus a Chrome trace on the
//! modeled clock at `<path>.trace.json` (load it in Perfetto or
//! `chrome://tracing`), `--metrics <path>` writes a Prometheus text
//! exposition, and `--frames <n>` sets the run length (default 20). The
//! eval reconciles the flight record's per-phase time and per-frame
//! energy sums against the pipeline's accumulated totals and fails when
//! a phase disagrees by more than 1% or the energy by more than 0.1%.

use std::process::ExitCode;

use wavefuse_bench::experiments::{self, Quantity};
use wavefuse_bench::{gate, report};
use wavefuse_trace::{export, JsonValue, ToJson};

const USAGE: &str = "usage: repro [fig2|table1|fig9a|fig9b|fig9c|fig10|crossover|adaptive|ablation|quality|levels|throughput|timeline|bench|serve|eval|all]... \
[--metrics <path>] [--flight-record <path>] [--frames <n>] [--threads <n>] [--frame-size <WxH>] [--depth <k>] [--matrix] \
[--rule choose-max|window-energy|weighted|activity-guided] \
[--streams <n>] [--bench-out <path>] [--serve-out <path>] [--check <baseline.json>] [--tolerance <pct>]";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Split `--option value` pairs from subcommand words.
    let mut args: Vec<String> = Vec::new();
    let mut options: Vec<(String, String)> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "help" {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            // Valueless flags.
            if name == "matrix" {
                options.push((name.to_string(), "true".to_string()));
                continue;
            }
            let Some(value) = it.next() else {
                eprintln!("option --{name} needs a value\n{USAGE}");
                return ExitCode::from(2);
            };
            options.push((name.to_string(), value.clone()));
        } else {
            args.push(a.clone());
        }
    }
    let opt = |name: &str| {
        options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    if args.is_empty() || args.iter().any(|a| a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let wants = |name: &str| args.iter().any(|a| a == name || a == "all");
    let needs_matrix = ["fig9a", "fig9b", "fig9c", "fig10", "all"]
        .iter()
        .any(|n| args.iter().any(|a| a == n));

    let run = || -> Result<(), Box<dyn std::error::Error>> {
        if wants("fig2") {
            let phases = experiments::fig2_profile()?;
            println!("{}", report::render_profile(&phases));
        }
        if wants("table1") {
            let t12 = experiments::table1_resources(12);
            let t20 = experiments::table1_resources(20);
            println!("{}", report::render_table1(&t12, &t20));
        }
        if needs_matrix {
            eprintln!("collecting evaluation matrix (5 sizes x 3 backends x 10 frames)...");
            let matrix = experiments::collect_matrix()?;
            if wants("fig9a") {
                let s = experiments::fig9_series(&matrix, Quantity::Forward);
                println!(
                    "{}",
                    report::render_series("Fig. 9a — forward DT-CWT time", "seconds", &s)
                );
            }
            if wants("fig9b") {
                let s = experiments::fig9_series(&matrix, Quantity::Total);
                println!(
                    "{}",
                    report::render_series("Fig. 9b — total time taken", "seconds", &s)
                );
            }
            if wants("fig9c") {
                let s = experiments::fig9_series(&matrix, Quantity::Inverse);
                println!(
                    "{}",
                    report::render_series("Fig. 9c — inverse DT-CWT time", "seconds", &s)
                );
            }
            if wants("fig10") {
                let s = experiments::fig9_series(&matrix, Quantity::Energy);
                println!(
                    "{}",
                    report::render_series("Fig. 10 — total energy used", "millijoules", &s)
                );
            }
        }
        if wants("crossover") {
            let c = experiments::crossover_report()?;
            println!("{}", report::render_crossovers(&c));
        }
        if wants("adaptive") {
            eprintln!("running adaptive-policy comparison (6 policies x 20 frames)...");
            let a = experiments::adaptive_comparison()?;
            println!("{}", report::render_adaptive(&a));
        }
        if wants("ablation") {
            let rows = experiments::ablation_report()?;
            println!("{}", report::render_ablation(&rows));
        }
        if wants("levels") {
            eprintln!("running decomposition-level sweep...");
            let rows = experiments::levels_sweep()?;
            println!("{}", report::render_levels(&rows));
        }
        if wants("throughput") {
            eprintln!("running throughput report...");
            let rows = experiments::throughput_report()?;
            println!("{}", report::render_throughput(&rows));
        }
        if wants("timeline") {
            use wavefuse_zynq::{timeline, Direction, RowCycles, ZynqConfig};
            let cfg = ZynqConfig::default();
            println!(
                "## PS/PL activity, five 88-sample rows through the double-buffered path (Fig. 5)"
            );
            // 88 words in and out, one pipeline clock per decimated output.
            let row = RowCycles::of(88, 88, 44, Direction::Forward, &cfg);
            let events = timeline::double_buffer_timeline(5, &row, &cfg);
            println!("{}", timeline::render_ascii(&events, 100));
        }
        if wants("quality") {
            eprintln!("running fusion-quality comparison...");
            let rows = experiments::quality_comparison(88, 72)?;
            println!("{}", report::render_quality(&rows));
        }
        if wants("bench") {
            let frames: usize = match opt("frames").as_deref() {
                Some(v) => v.parse().map_err(|_| format!("bad --frames '{v}'"))?,
                None => 64,
            };
            let threads: Option<usize> = match opt("threads").as_deref() {
                Some(v) => Some(v.parse().map_err(|_| format!("bad --threads '{v}'"))?),
                None => None,
            };
            let frame_size: (usize, usize) = match opt("frame-size").as_deref() {
                Some(v) => {
                    let parse = || -> Option<(usize, usize)> {
                        let (w, h) = v.split_once(['x', 'X'])?;
                        Some((w.trim().parse().ok()?, h.trim().parse().ok()?))
                    };
                    parse().ok_or_else(|| format!("bad --frame-size '{v}' (expected WxH)"))?
                }
                None => (88, 72),
            };
            let depth: usize = match opt("depth").as_deref() {
                Some(v) => v.parse().map_err(|_| format!("bad --depth '{v}'"))?,
                None => 1,
            };
            let rule = match opt("rule").as_deref() {
                Some(v) => experiments::parse_rule(v).ok_or_else(|| {
                    format!(
                        "bad --rule '{v}' (expected choose-max, window-energy, \
                         weighted, or activity-guided)"
                    )
                })?,
                None => wavefuse_core::rules::FusionRule::WindowEnergy { radius: 1 },
            };
            eprintln!("measuring pipeline throughput ({frames} timed frames per configuration)...");
            let bench = if opt("matrix").is_some() {
                eprintln!(
                    "recording NEON scaling matrix (threads x frame sizes x pipeline depths)..."
                );
                experiments::pipeline_bench_with_matrix(frames, threads, rule)?
            } else {
                experiments::pipeline_bench(frames, threads, frame_size, depth, rule)?
            };
            println!("{}", report::render_bench(&bench));
            let path = opt("bench-out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
            std::fs::write(&path, format!("{}\n", bench.to_json().render()))?;
            eprintln!("wrote throughput benchmark to {path}");
            if let Some(baseline_path) = opt("check") {
                gate_report(&bench, &baseline_path, opt("tolerance").as_deref())?;
            }
        }
        if wants("serve") {
            let streams: usize = match opt("streams").as_deref() {
                Some(v) => v.parse().map_err(|_| format!("bad --streams '{v}'"))?,
                None => 64,
            };
            let frames: usize = match opt("frames").as_deref() {
                Some(v) => v.parse().map_err(|_| format!("bad --frames '{v}'"))?,
                None => 32,
            };
            let threads: Option<usize> = match opt("threads").as_deref() {
                Some(v) => Some(v.parse().map_err(|_| format!("bad --threads '{v}'"))?),
                None => None,
            };
            eprintln!(
                "serving {streams} streams ({frames} timed frames each) on a shared fleet..."
            );
            let serve = experiments::serve_bench(streams, frames, threads)?;
            println!("{}", report::render_serve(&serve));
            if let Some(path) = opt("serve-out") {
                std::fs::write(
                    &path,
                    format!("{}\n", experiments::serve_json(&serve).render()),
                )?;
                eprintln!("wrote serve report to {path}");
            }
            let path = opt("bench-out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
            upsert_serve_row(&path, &serve)?;
            eprintln!(
                "upserted SERVE-{} row into {path} (other rows preserved)",
                serve.streams
            );
            if let Some(baseline_path) = opt("check") {
                let mini = experiments::BenchReport {
                    frame_size: (88, 72),
                    levels: wavefuse_bench::paper::LEVELS,
                    scene_seed: experiments::SCENE_SEED,
                    warmup_frames: experiments::BENCH_WARMUP_FRAMES,
                    frames,
                    reps: 1,
                    lane_path: wavefuse_simd::SimdKernel::new().lane_path(),
                    rows: vec![experiments::serve_row(&serve)],
                };
                gate_report(&mini, &baseline_path, opt("tolerance").as_deref())?;
            }
        }
        if wants("eval") {
            let frames: usize = match opt("frames").as_deref() {
                Some(v) => v.parse().map_err(|_| format!("bad --frames '{v}'"))?,
                None => 20,
            };
            eprintln!("running instrumented evaluation ({frames} frames)...");
            let eval = experiments::telemetry_eval(frames)?;
            println!("{}", report::render_telemetry(&eval));
            if let Some(path) = opt("metrics") {
                std::fs::write(&path, export::prometheus_text(&eval.metrics))?;
                eprintln!("wrote Prometheus metrics to {path}");
            }
            if let Some(path) = opt("flight-record") {
                std::fs::write(&path, eval.flight.jsonl())?;
                let trace_path = format!("{path}.trace.json");
                std::fs::write(&trace_path, eval.flight.chrome_trace())?;
                eprintln!(
                    "wrote flight recorder ({} frames) to {path} and {trace_path}",
                    eval.flight.len()
                );
            }
            if let Some(err) = eval.energy_error.filter(|&e| e > 0.001) {
                return Err(format!(
                    "flight-recorder energy {:.4} mJ disagrees with pipeline total {:.4} mJ \
                     by {:.4}% (limit 0.1%)",
                    eval.flight_energy_mj,
                    eval.stats.energy_mj,
                    err * 100.0
                )
                .into());
            }
            if let Some(err) = eval.max_phase_error.filter(|&e| e > 0.01) {
                return Err(format!(
                    "flight-record/stats phase disagreement {:.3}% exceeds 1%",
                    err * 100.0
                )
                .into());
            }
        }
        Ok(())
    };

    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Gates `current` against the baseline file, printing the outcome. A
/// missing/empty/corrupt baseline degrades to warnings; a genuine metric
/// regression beyond the tolerance is an error.
fn gate_report(
    current: &experiments::BenchReport,
    baseline_path: &str,
    tolerance: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let tolerance: f64 = match tolerance {
        Some(v) => {
            v.parse::<f64>()
                .map_err(|_| format!("bad --tolerance '{v}'"))?
                / 100.0
        }
        None => 0.25,
    };
    let (baseline, warning) = gate::load_baseline(baseline_path);
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    let outcome = gate::check_against_baseline(current, &baseline, tolerance);
    println!("{}", gate::render_gate(&outcome));
    if !outcome.passed() {
        return Err(format!(
            "bench regression gate failed: {} metric(s) regressed beyond ±{:.0}% \
             of {baseline_path}",
            outcome.regressions(),
            tolerance * 100.0
        )
        .into());
    }
    Ok(())
}

/// Replaces (or appends) the `SERVE-<streams>` row matching this run's
/// `(backend, threads)` identity in the bench report at `path`,
/// preserving every other row. A missing or unreadable report
/// starts from an empty `{"rows": []}` document. The file is always
/// written back newline-terminated.
fn upsert_serve_row(
    path: &str,
    serve: &experiments::ServeBench,
) -> Result<(), Box<dyn std::error::Error>> {
    let row = experiments::serve_row(serve).to_json();
    let label = format!("SERVE-{}", serve.streams);
    let (doc, _) = gate::load_baseline(path);
    let mut pairs = match doc {
        JsonValue::Obj(pairs) => pairs,
        _ => Vec::new(),
    };
    if !pairs.iter().any(|(k, _)| k == "rows") {
        pairs.push(("rows".to_string(), JsonValue::Arr(Vec::new())));
    }
    for (key, value) in &mut pairs {
        if key != "rows" {
            continue;
        }
        if let JsonValue::Arr(rows) = value {
            rows.retain(|r| {
                !(r.get("backend").and_then(JsonValue::as_str) == Some(label.as_str())
                    && r.get("threads").and_then(JsonValue::as_f64) == Some(serve.threads as f64))
            });
            rows.push(row.clone());
        } else {
            *value = JsonValue::Arr(vec![row.clone()]);
        }
    }
    std::fs::write(path, format!("{}\n", JsonValue::Obj(pairs).render()))
        .map_err(|e| format!("cannot write {path}: {e}").into())
}
