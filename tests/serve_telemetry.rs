//! Serving-layer telemetry: per-stream Prometheus series with capped
//! label cardinality.
//!
//! Every stream exports its frame counter and capture-to-retire latency
//! histogram under a `stream="<id>"` label; streams beyond the first 16
//! fold into a single `stream="overflow"` series so a large fleet cannot
//! blow up the exporter's cardinality. Streams that share a label (the
//! overflow streams, or two fleets on one registry) add into one series,
//! so each label's latency histogram counts exactly its delivered frames.

use std::sync::Arc;

use wavefuse::core::serve::{FleetConfig, StreamConfig, StreamManager};
use wavefuse::trace::{export, MetricsRegistry};

#[test]
fn per_stream_series_are_exported_with_capped_cardinality() {
    let telemetry = Arc::new(MetricsRegistry::new());
    // Uncapped fleet: every stream delivers, so every label's frame
    // counter and latency histogram export. 18 streams: ids 0..=15 get
    // their own label, 16 and 17 fold into the overflow bucket.
    let mut mgr = StreamManager::new(FleetConfig {
        threads: 2,
        columnar: true,
        max_in_flight: None,
    });
    mgr.set_telemetry(Arc::clone(&telemetry));
    for s in 0..18 {
        mgr.admit(StreamConfig {
            frame_size: (48, 40),
            scene_seed: s as u64,
            ..StreamConfig::default()
        })
        .unwrap();
    }
    let report = mgr.run(3).unwrap();
    assert_eq!(report.total_drops, 0);

    // A second, tightly capped fleet on the same registry forces drops so
    // the labeled drop counter exports too.
    let mut capped = StreamManager::new(FleetConfig {
        threads: 2,
        columnar: true,
        max_in_flight: Some(2),
    });
    capped.set_telemetry(Arc::clone(&telemetry));
    for s in 0..4 {
        capped
            .admit(StreamConfig {
                frame_size: (48, 40),
                depth: 2,
                scene_seed: 50 + s,
                ..StreamConfig::default()
            })
            .unwrap();
    }
    assert!(
        capped.run(3).unwrap().total_drops > 0,
        "cap of 2 vs 8 demand"
    );

    let prom = export::prometheus_text(&telemetry);
    for series in [
        "wavefuse_stream_frames_total{stream=\"0\"}",
        "wavefuse_stream_frames_total{stream=\"15\"}",
        "wavefuse_stream_frames_total{stream=\"overflow\"}",
    ] {
        assert!(
            prom.lines().any(|l| l.starts_with(series)),
            "missing {series}:\n{prom}"
        );
    }
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_stream_drops_total{stream=\"")),
        "drop counter with a stream label:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_frame_latency_seconds_bucket{")
                && l.contains("stream=\"3\"")),
        "per-stream latency histogram:\n{prom}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wavefuse_frame_latency_seconds_bucket{")
                && l.contains("stream=\"overflow\"")),
        "overflow latency histogram:\n{prom}"
    );
    // Cardinality cap: no raw ids past the bucket boundary ever export.
    for folded in ["stream=\"16\"", "stream=\"17\""] {
        assert!(
            !prom.contains(folded),
            "{folded} must fold into the overflow bucket:\n{prom}"
        );
    }
    // Every label's latency histogram holds one sample per delivered
    // frame: shared labels accumulate instead of replacing each other.
    let value = |series: &str| -> Option<f64> {
        prom.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
    };
    let labels: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("wavefuse_stream_frames_total{stream=\""))
        .filter_map(|l| l.split_once('"').map(|(label, _)| label))
        .collect();
    assert_eq!(labels.len(), 17, "16 own labels + overflow:\n{prom}");
    for label in labels {
        let frames = value(&format!(
            "wavefuse_stream_frames_total{{stream=\"{label}\"}}"
        ));
        let samples = value(&format!(
            "wavefuse_frame_latency_seconds_count{{stream=\"{label}\"}}"
        ));
        assert!(
            frames.is_some_and(|f| f > 0.0),
            "stream {label}: {frames:?}"
        );
        assert_eq!(
            samples, frames,
            "stream {label}: latency samples vs delivered frames:\n{prom}"
        );
    }
}
