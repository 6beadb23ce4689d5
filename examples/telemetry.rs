//! End-to-end telemetry walkthrough: run the instrumented pipeline and
//! export its flight record and metrics in all three formats.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! Writes `telemetry.trace.json` (the flight record on the modeled clock;
//! open in <https://ui.perfetto.dev> or `chrome://tracing`),
//! `telemetry.prom` (Prometheus text exposition) and `telemetry.jsonl`
//! (one flight record per frame) into the current directory, then prints
//! the headline numbers the record carries.

use std::sync::Arc;

use wavefuse::core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse::core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse::core::Backend;
use wavefuse::trace::{export, MetricsRegistry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let metrics = Arc::new(MetricsRegistry::new());

    // The paper's evaluation pipeline, online-adaptive, with a thermal
    // camera that occasionally runs a field ahead (so the frame gate drops).
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
            Policy::Online(Objective::Time),
            3,
        ))),
        scene_seed: 7,
        threads: 1,
        depth: 1,
    })?;
    pipe.set_telemetry(Arc::clone(&metrics));

    for i in 0..24 {
        pipe.step_with_burst(if i % 6 == 5 { 2 } else { 1 })?;
    }
    let stats = pipe.stats();

    let flight = pipe.flight_recorder();
    std::fs::write("telemetry.trace.json", flight.chrome_trace())?;
    std::fs::write("telemetry.prom", export::prometheus_text(&metrics))?;
    std::fs::write("telemetry.jsonl", flight.jsonl())?;

    println!(
        "{} frames fused in {:.2} ms modeled time, {:.2} mJ",
        stats.frames,
        stats.timing.total_seconds() * 1e3,
        stats.energy_mj
    );
    println!(
        "backend use ARM/NEON/FPGA: {}/{}/{}, gate drops: {}",
        stats.backend_usage[Backend::Arm],
        stats.backend_usage[Backend::Neon],
        stats.backend_usage[Backend::Fpga],
        stats.gate_drops
    );
    println!(
        "{} frames in the flight record ({} dropped by the ring)",
        flight.len(),
        flight.total() - flight.len() as u64
    );

    // A taste of the Prometheus exposition.
    let prom = export::prometheus_text(&metrics);
    for line in prom
        .lines()
        .filter(|l| l.starts_with("wavefuse_frames_total"))
    {
        println!("{line}");
    }
    println!("wrote telemetry.trace.json, telemetry.prom, telemetry.jsonl");
    Ok(())
}
