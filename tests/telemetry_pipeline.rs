//! Cross-crate telemetry integration: the flight record and metrics of an
//! instrumented pipeline run must agree with the pipeline's own statistics.

use std::sync::Arc;

use wavefuse::core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse::core::engine::PHASE_NAMES;
use wavefuse::core::pipeline::{BackendChoice, PipelineConfig, PipelineStats, VideoFusionPipeline};
use wavefuse::core::Backend;
use wavefuse::trace::json::JsonValue;
use wavefuse::trace::{export, FlightRecorder, MetricValue, MetricsRegistry};

fn instrumented_run(frames: usize) -> (Arc<MetricsRegistry>, FlightRecorder, PipelineStats) {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
            Policy::Online(Objective::Time),
            3,
        ))),
        scene_seed: 11,
        threads: 1,
        depth: 1,
    })
    .unwrap();
    pipe.set_telemetry(Arc::clone(&metrics));
    for i in 0..frames {
        // A bursty thermal field every third step exercises the gate.
        pipe.step_with_burst(if i % 3 == 2 { 2 } else { 1 })
            .unwrap();
    }
    (metrics, pipe.flight_recorder().clone(), pipe.stats())
}

/// The `traceEvents` of a flight record's Chrome export, parsed back.
fn chrome_events(flight: &FlightRecorder) -> Vec<JsonValue> {
    let parsed = JsonValue::parse(&flight.chrome_trace()).expect("exporter emits valid JSON");
    let Some(JsonValue::Arr(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents array missing")
    };
    events.clone()
}

/// `(ts, dur)` of a complete span, in modeled microseconds.
fn span_extent(ev: &JsonValue) -> (f64, f64) {
    let num = |k: &str| ev.get(k).and_then(JsonValue::as_f64).expect(k);
    (num("ts"), num("dur"))
}

#[test]
fn phase_spans_sum_to_pipeline_phase_timing() {
    let (_, flight, stats) = instrumented_run(12);
    assert_eq!(flight.len() as u64, stats.frames);
    for (i, (phase, stat_s)) in stats.timing.phases().into_iter().enumerate() {
        let flight_s: f64 = flight.iter().map(|r| r.phase_s[i]).sum();
        let err = (flight_s - stat_s).abs() / stat_s;
        assert!(
            err < 0.01,
            "{phase}: flight record {flight_s:.9} vs stats {stat_s:.9} ({:.3}% off)",
            err * 100.0
        );
    }
}

#[test]
fn frame_spans_enclose_their_phase_spans() {
    let (_, flight, stats) = instrumented_run(6);
    let events = chrome_events(&flight);
    let cat = |e: &JsonValue| e.get("cat").and_then(JsonValue::as_str).map(str::to_owned);
    let frames: Vec<&JsonValue> = events
        .iter()
        .filter(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| n.starts_with("frame "))
        })
        .collect();
    assert_eq!(frames.len() as u64, stats.frames);
    for frame in &frames {
        let (start, dur) = span_extent(frame);
        let eps = 1e-6 * dur.max(1.0);
        let children: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| cat(e).as_deref() == Some("phase"))
            .map(span_extent)
            .filter(|&(ts, d)| ts >= start - eps && ts + d <= start + dur + eps)
            .collect();
        assert_eq!(children.len(), PHASE_NAMES.len(), "5 phases per frame");
        let child_total: f64 = children.iter().map(|&(_, d)| d).sum();
        assert!(
            (child_total - dur).abs() <= 1e-9 * child_total.max(1.0),
            "phases sum {child_total} vs frame span {dur}"
        );
    }
}

#[test]
fn counters_match_pipeline_stats() {
    let (metrics, _, stats) = instrumented_run(9);
    let series = metrics.snapshot();
    let counter = |name: &str, backend: Option<&str>| -> f64 {
        series
            .iter()
            .filter(|(k, _)| {
                k.name == name
                    && backend
                        .is_none_or(|b| k.labels.iter().any(|(lk, lv)| lk == "backend" && lv == b))
            })
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("{name} should be a counter, got {other:?}"),
            })
            .sum()
    };
    assert_eq!(counter("wavefuse_frames_total", None) as u64, stats.frames);
    for backend in Backend::ALL {
        assert_eq!(
            counter("wavefuse_frames_total", Some(backend.label())) as u64,
            stats.backend_usage[backend],
            "per-backend frame counter for {}",
            backend.label()
        );
    }
    assert_eq!(
        counter("wavefuse_gate_drops_total", None) as u64,
        stats.gate_drops
    );
}

#[test]
fn chrome_trace_of_a_run_parses_and_balances() {
    let (_, flight, stats) = instrumented_run(5);
    // Sum the exported per-phase durations (µs) and compare with the
    // pipeline's accumulated modeled time.
    let phase_us: f64 = chrome_events(&flight)
        .iter()
        .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("phase"))
        .map(|e| span_extent(e).1)
        .sum();
    let stats_us = stats.timing.total_seconds() * 1e6;
    let err = (phase_us - stats_us).abs() / stats_us;
    assert!(
        err < 0.01,
        "chrome phase spans {phase_us:.1} µs vs stats {stats_us:.1} µs"
    );
}

#[test]
fn prometheus_export_carries_the_acceptance_series() {
    let (metrics, _, _) = instrumented_run(8);
    let prom = export::prometheus_text(&metrics);
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_frames_total{")),
        "per-backend frame counters:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_frame_seconds_bucket{")),
        "frame-latency histogram:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_phase_seconds_bucket{")),
        "phase-latency histogram:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_pipeline_energy_millijoules")),
        "energy gauge:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_gate_drops_total")),
        "gate-drop counter:\n{prom}"
    );
}

#[test]
fn scheduler_decisions_appear_in_the_trace() {
    let (metrics, flight, stats) = instrumented_run(7);
    // One decision and one prediction-error observation per frame.
    let series = metrics.snapshot();
    let decisions: f64 = series
        .iter()
        .filter(|(k, _)| k.name == "wavefuse_scheduler_decisions_total")
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            other => panic!("decisions should be a counter, got {other:?}"),
        })
        .sum();
    assert_eq!(decisions as u64, stats.frames, "one decision per frame");
    let observations: u64 = series
        .iter()
        .filter(|(k, _)| k.name == "wavefuse_scheduler_prediction_error")
        .map(|(_, v)| match v {
            MetricValue::Histogram(h) => h.count,
            other => panic!("prediction error should be a histogram, got {other:?}"),
        })
        .sum();
    assert_eq!(observations, stats.frames, "one observation per frame");
    // The flight record carries each frame's decision.
    assert_eq!(flight.len() as u64, stats.frames);
    for r in flight.iter() {
        assert_eq!(r.decision, "online-time", "frame {}", r.frame);
    }
}
