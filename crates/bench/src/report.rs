//! Plain-text table rendering for the `repro` binary.

use crate::experiments::{
    AblationRow, BenchReport, CrossoverReport, LevelsRow, PolicyOutcome, QualityRow, ResourceRow,
    SeriesRow, ServeBench, ThroughputRow,
};
use wavefuse_core::Backend;

/// Renders a Fig. 9/10-style series table with per-size mode ratios.
pub fn render_series(title: &str, unit: &str, rows: &[SeriesRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>9} {:>9}\n",
        "size", "ARM", "ARM+NEON", "ARM+FPGA", "NEON/ARM", "FPGA/ARM"
    ));
    out.push_str(&"-".repeat(68));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>8} | {:>10.4} {:>10.4} {:>10.4} | {:>9.3} {:>9.3}\n",
            format!("{}x{}", r.size.0, r.size.1),
            r.arm,
            r.neon,
            r.fpga,
            r.neon / r.arm,
            r.fpga / r.arm
        ));
    }
    out.push_str(&format!("(values in {unit}, ten fused frames per cell)\n"));
    out
}

/// Renders the Fig. 2 profile bars.
pub fn render_profile(phases: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("## Fig. 2 — profile of fusing two input images (ARM only)\n");
    for (name, pct) in phases {
        let bar = "#".repeat((pct / 2.0).round() as usize);
        out.push_str(&format!("{name:>18} {pct:5.1}% {bar}\n"));
    }
    out
}

/// Renders Table I next to the paper's reported values.
pub fn render_table1(ours_12: &[ResourceRow], deployed_20: &[ResourceRow]) -> String {
    let mut out = String::new();
    out.push_str("## Table I — wavelet engine complexity (xc7z020clg484-1)\n");
    out.push_str(&format!(
        "{:>10} | {:>9} {:>9} {:>4} | {:>9} {:>4} | {:>16}\n",
        "resource", "available", "12-tap", "%", "20-tap", "%", "paper (12-tap)"
    ));
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for (row12, row20) in ours_12.iter().zip(deployed_20) {
        let paper = crate::paper::TABLE1_UTILIZATION
            .iter()
            .find(|(n, _, _, _)| *n == row12.resource)
            .expect("paper row");
        out.push_str(&format!(
            "{:>10} | {:>9} {:>9} {:>3}% | {:>9} {:>3}% | {:>10} ({:>2}%)\n",
            row12.resource,
            row12.available,
            row12.used,
            row12.percent,
            row20.used,
            row20.percent,
            paper.1,
            paper.3
        ));
    }
    out
}

/// Renders the crossover report with the paper's intervals.
pub fn render_crossovers(c: &CrossoverReport) -> String {
    let fmt = |e: Option<usize>| e.map_or("none".into(), |v| format!("{v}x{v}"));
    format!(
        "## Breaking points (smallest square frame where ARM+FPGA beats ARM+NEON)\n\
         forward transform : {:>7}   (paper: between 35x35 and 40x40)\n\
         inverse transform : {:>7}   (paper: above 40x40)\n\
         total time        : {:>7}   (paper: between 40x40 and 64x48)\n\
         total energy      : {:>7}   (paper: between 40x40 and 64x48)\n",
        fmt(c.forward_edge),
        fmt(c.inverse_edge),
        fmt(c.total_edge),
        fmt(c.energy_edge),
    )
}

/// Renders the adaptive-policy comparison.
pub fn render_adaptive(outcomes: &[PolicyOutcome]) -> String {
    let mut out = String::new();
    out.push_str("## Adaptive execution over a mixed-size workload (20 frames, 5 sizes)\n");
    out.push_str(&format!(
        "{:>26} | {:>9} {:>11} | {:>14}\n",
        "policy", "time (s)", "energy (mJ)", "ARM/NEON/FPGA"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for o in outcomes {
        out.push_str(&format!(
            "{:>26} | {:>9.4} {:>11.2} | {:>4}/{:>4}/{:>4}\n",
            o.policy,
            o.total_s,
            o.energy_mj,
            o.backend_usage[Backend::Arm],
            o.backend_usage[Backend::Neon],
            o.backend_usage[Backend::Fpga]
        ));
    }
    out
}

/// Formats a self-check error, or why it was skipped.
fn check_error(err: Option<f64>) -> String {
    err.map_or("skipped (ring wrapped)".into(), |e| {
        format!("{:.4}%", e * 100.0)
    })
}

/// Renders the telemetry self-check: flight-record per-phase time against
/// the pipeline's own accumulators, plus energy reconciliation.
pub fn render_telemetry(eval: &crate::experiments::TelemetryEval) -> String {
    let mut out = String::new();
    out.push_str("## Telemetry self-check (flight record vs pipeline statistics)\n");
    out.push_str(&format!(
        "{:>10} | {:>12} {:>12} | {:>9}\n",
        "phase", "flight (s)", "stats (s)", "error"
    ));
    out.push_str(&"-".repeat(52));
    out.push('\n');
    for (phase, flight_s, stat_s) in &eval.phase_check {
        let err = eval
            .max_phase_error
            .map(|_| (flight_s - stat_s).abs() / stat_s.max(1e-12));
        out.push_str(&format!(
            "{phase:>10} | {flight_s:>12.6} {stat_s:>12.6} | {:>9}\n",
            check_error(err)
        ));
    }
    let s = &eval.stats;
    out.push_str(&format!(
        "frames {} | backend use ARM/NEON/FPGA {}/{}/{} | gate drops {}\n",
        s.frames,
        s.backend_usage[Backend::Arm],
        s.backend_usage[Backend::Neon],
        s.backend_usage[Backend::Fpga],
        s.gate_drops,
    ));
    out.push_str(&format!(
        "energy {:.2} mJ | max phase error {}\n",
        s.energy_mj,
        check_error(eval.max_phase_error),
    ));
    out.push_str(&format!(
        "flight recorder {} frames{} | per-frame energy sum {:.2} mJ | reconciliation error {}\n",
        eval.flight.len(),
        if eval.flight.wrapped() {
            " (wrapped)"
        } else {
            ""
        },
        eval.flight_energy_mj,
        check_error(eval.energy_error),
    ));
    out
}

/// Renders the design-choice ablations.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("## Ablation — FPGA path design choices (ten-frame 88x72 forward phase)\n");
    for r in rows {
        out.push_str(&format!(
            "{:>45} : {:>8.4} s  ({:.2}x)\n",
            r.configuration, r.forward_s, r.slowdown
        ));
    }
    out
}

/// Renders the decomposition-level sweep.
pub fn render_levels(rows: &[LevelsRow]) -> String {
    let mut out = String::new();
    out.push_str("## Decomposition-level sweep at 88x72 (seconds per fused frame)\n");
    out.push_str(&format!(
        "{:>6} | {:>9} {:>9} {:>9} | {:>8}\n",
        "levels", "ARM", "NEON", "FPGA", "LL size"
    ));
    out.push_str(&"-".repeat(60));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>6} | {:>9.5} {:>9.5} {:>9.5} | {:>8}\n",
            r.levels,
            r.arm_s,
            r.neon_s,
            r.fpga_s,
            format!("{}x{}", r.ll_dims.0, r.ll_dims.1)
        ));
    }
    out
}

/// Renders the throughput report.
pub fn render_throughput(rows: &[ThroughputRow]) -> String {
    let mut out = String::new();
    out.push_str("## Modeled fusion throughput (frames/second)\n");
    out.push_str(&format!(
        "{:>8} | {:>8} {:>8} {:>8}\n",
        "size", "ARM", "NEON", "FPGA"
    ));
    out.push_str(&"-".repeat(39));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>8} | {:>8.1} {:>8.1} {:>8.1}\n",
            format!("{}x{}", r.size.0, r.size.1),
            r.fps[0],
            r.fps[1],
            r.fps[2]
        ));
    }
    out
}

/// Renders the measured wall-clock throughput benchmark.
pub fn render_bench(bench: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Measured pipeline throughput ({} levels, best of {} windows, {} timed frames at {}x{}, {} lane path)\n",
        bench.levels,
        bench.reps,
        bench.frames,
        bench.frame_size.0,
        bench.frame_size.1,
        bench.lane_path
    ));
    out.push_str(&format!(
        "{:>8} | {:>16} | {:>13} | {:>9} {:>7} {:>5} | {:>10} {:>10} {:>12} {:>12} | {:>9} {:>8} | {:>14}\n",
        "backend",
        "kernel",
        "rule",
        "size",
        "threads",
        "depth",
        "fps",
        "mean fps",
        "p50 ns",
        "p99 ns",
        "mJ/frame",
        "fps/W",
        "pool hit/miss"
    ));
    out.push_str(&"-".repeat(154));
    out.push('\n');
    for r in &bench.rows {
        out.push_str(&format!(
            "{:>8} | {:>16} | {:>13} | {:>9} {:>7} {:>5} | {:>10.1} {:>10.1} {:>12.0} {:>12.0} | {:>9.3} {:>8.1} | {:>8}/{}\n",
            r.backend,
            r.kernel,
            r.rule,
            format!("{}x{}", r.frame_size.0, r.frame_size.1),
            r.threads,
            r.depth,
            r.frames_per_second,
            r.mean_frames_per_second,
            r.p50_ns_per_frame,
            r.p99_ns_per_frame,
            r.energy_mj_per_frame,
            r.fps_per_watt,
            r.pool_hits,
            r.pool_misses
        ));
    }
    out
}

/// Renders a multi-stream serving window: fleet-level aggregates, the
/// sequential baseline it beats, and the per-stream breakdown.
pub fn render_serve(bench: &ServeBench) -> String {
    let r = &bench.report;
    let mut out = String::new();
    out.push_str(&format!(
        "## Multi-stream serving: {} streams x {} frames on a shared {}-thread fleet\n",
        r.streams, bench.frames_per_stream, r.threads
    ));
    out.push_str(&format!(
        "aggregate {:.1} fps over {:.3} s wall | sequential baseline {:.1} fps over {:.3} s | speedup {:.2}x\n",
        r.aggregate_fps, r.wall_s, bench.sequential_fps, bench.sequential_wall_s, bench.speedup
    ));
    out.push_str(&format!(
        "fairness (min/max stream fps) {:.3} | energy {:.3} mJ/frame | drops {} | plan cache {} plans, {} hits | qos infeasible {}\n",
        r.fairness,
        r.energy_mj_per_frame,
        r.total_drops,
        r.plan_cache_entries,
        r.plan_cache_hits,
        r.qos_infeasible
    ));
    out.push_str(
        "p50/p99: capture to retire, including the round a captured frame waits before submit | missed: submit to retire over the stream deadline\n",
    );
    out.push_str(&format!(
        "{:>6} | {:>8} | {:>9} {:>6} {:>5} | {:>8} {:>5} {:>6} | {:>8} {:>10} {:>10} | {:>9}\n",
        "stream",
        "backend",
        "size",
        "levels",
        "depth",
        "frames",
        "drops",
        "missed",
        "fps",
        "p50 ms",
        "p99 ms",
        "mJ/frame"
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for s in &r.per_stream {
        out.push_str(&format!(
            "{:>6} | {:>8} | {:>9} {:>6} {:>5} | {:>8} {:>5} {:>6} | {:>8.1} {:>10.3} {:>10.3} | {:>9.3}\n",
            s.stream,
            s.backend,
            format!("{}x{}", s.frame_size.0, s.frame_size.1),
            s.levels,
            s.depth,
            s.frames,
            s.drops,
            s.deadline_misses,
            s.fps,
            s.p50_latency_s * 1e3,
            s.p99_latency_s * 1e3,
            s.energy_mj_per_frame
        ));
    }
    out
}

/// Renders the fusion-quality comparison.
pub fn render_quality(rows: &[QualityRow]) -> String {
    let mut out = String::new();
    out.push_str("## Fusion quality at 88x72 (higher is better)\n");
    out.push_str(&format!(
        "{:>30} | {:>8} {:>8} {:>8} {:>8}\n",
        "method", "entropy", "spatial", "Q^AB/F", "MI"
    ));
    out.push_str(&"-".repeat(70));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>30} | {:>8.3} {:>8.4} {:>8.3} {:>8.3}\n",
            r.method, r.entropy, r.spatial_frequency, r.qabf, r.mutual_information
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_flight_ring_reports_skipped_checks() {
        let mut flight = wavefuse_trace::FlightRecorder::new(1);
        for frame in 0..2 {
            flight.record(wavefuse_trace::FrameRecord {
                frame,
                ..Default::default()
            });
        }
        let eval = crate::experiments::TelemetryEval {
            metrics: std::sync::Arc::default(),
            stats: Default::default(),
            phase_check: vec![("forward".into(), 0.5, 1.0)],
            max_phase_error: None,
            flight,
            flight_energy_mj: 1.0,
            energy_error: None,
        };
        let text = render_telemetry(&eval);
        assert!(
            text.contains("max phase error skipped (ring wrapped)"),
            "{text}"
        );
        assert!(
            text.contains("reconciliation error skipped (ring wrapped)"),
            "{text}"
        );
        assert!(text.contains("(wrapped)"), "{text}");
        assert!(
            !text.contains("0.0000%"),
            "a skipped check is not a 0% error:\n{text}"
        );
    }

    #[test]
    fn series_render_contains_all_sizes() {
        let rows = vec![
            SeriesRow {
                size: (32, 24),
                arm: 0.2,
                neon: 0.18,
                fpga: 0.25,
            },
            SeriesRow {
                size: (88, 72),
                arm: 1.7,
                neon: 1.5,
                fpga: 0.9,
            },
        ];
        let s = render_series("Fig. 9a", "seconds", &rows);
        assert!(s.contains("32x24") && s.contains("88x72"));
        assert!(s.contains("0.529"), "ratio column rendered: {s}");
    }

    #[test]
    fn crossover_render_handles_none() {
        let s = render_crossovers(&CrossoverReport {
            forward_edge: Some(39),
            inverse_edge: None,
            total_edge: Some(41),
            energy_edge: Some(41),
        });
        assert!(s.contains("39x39"));
        assert!(s.contains("none"));
    }
}
