//! The end-to-end video-fusion pipeline (paper §VI, Fig. 7).
//!
//! Couples the two camera models to the fusion engine: the visible stream
//! arrives through the USB/PS path, the thermal stream through the BT.656
//! decode → scale path, both gated through the depth-1 frame gate (the
//! paper's output FIFO), then fused frame by frame on a fixed or
//! adaptively chosen backend, accumulating modeled time and energy.
//!
//! A pipeline is a [`StreamManager`] fleet of one stream: the frame
//! driver, its capture-ahead schedule and the flight recorder live in
//! [`crate::serve`], and the methods here delegate to it.

use std::sync::Arc;

use wavefuse_trace::{FlightRecorder, MetricsRegistry};

use crate::adaptive::{AdaptiveScheduler, Objective, Policy};
use crate::backend::{Backend, BackendCounts};
use crate::engine::{FusionEngine, FusionOutput, PhaseTiming};
use crate::serve::StreamManager;
use crate::FusionError;

/// Frames the always-on flight recorder retains (the paper profiles runs
/// of tens of frames; 1024 covers every harness in this workspace without
/// wrapping while still bounding memory at ~300 KiB).
pub const FLIGHT_CAPACITY: usize = 1024;

/// How the pipeline picks a backend per frame.
#[derive(Debug)]
pub enum BackendChoice {
    /// Always the same backend.
    Fixed(Backend),
    /// Per-frame decision by an [`AdaptiveScheduler`] (with observation
    /// feedback for the online policy).
    Adaptive(Box<AdaptiveScheduler>),
}

impl BackendChoice {
    /// The backend for the next `width` x `height` frame.
    pub(crate) fn choose(&mut self, width: usize, height: usize) -> Result<Backend, FusionError> {
        match self {
            BackendChoice::Fixed(b) => Ok(*b),
            BackendChoice::Adaptive(s) => s.choose(width, height),
        }
    }

    /// The flight record's decision label.
    pub(crate) fn decision(&self) -> &'static str {
        match self {
            BackendChoice::Fixed(_) => "fixed",
            BackendChoice::Adaptive(s) => match s.policy() {
                Policy::Model(Objective::Time) => "model-time",
                Policy::Model(Objective::Energy) => "model-energy",
                Policy::Online(Objective::Time) => "online-time",
                Policy::Online(Objective::Energy) => "online-energy",
            },
        }
    }
}

/// Pipeline configuration.
#[derive(Debug)]
pub struct PipelineConfig {
    /// Fused frame geometry (both streams are delivered at this size).
    pub frame_size: (usize, usize),
    /// DT-CWT decomposition depth.
    pub levels: usize,
    /// Backend selection.
    pub backend: BackendChoice,
    /// Scene seed (reproducibility).
    pub scene_seed: u64,
    /// Transform worker threads (1 = serial on the caller's thread). Values
    /// above 1 spawn a persistent [`wavefuse_dtcwt::WorkerPool`] for the
    /// pipeline, reused for every frame.
    pub threads: usize,
    /// Software-pipelining depth: how many frames may be in flight at
    /// once (1 = the classic schedule with single-frame capture overlap).
    /// Depth > 1 takes effect only on the pooled CPU backends
    /// (`Fixed(Arm|Neon)` with `threads > 1`); any other configuration
    /// silently degrades to 1 so the depth-1 schedule stays bit-for-bit
    /// unchanged.
    pub depth: usize,
}

impl Default for PipelineConfig {
    /// The paper's evaluation default: 88x72 frames, 3 levels, fixed NEON,
    /// serial transforms.
    fn default() -> Self {
        PipelineConfig {
            frame_size: (88, 72),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 1,
            threads: 1,
            depth: 1,
        }
    }
}

/// Accumulated statistics of a pipeline run (or of one serving stream).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Fused frames produced.
    pub frames: u64,
    /// Accumulated per-phase modeled time.
    pub timing: PhaseTiming,
    /// Accumulated modeled energy, millijoules.
    pub energy_mj: f64,
    /// Frames executed per backend, indexable by [`Backend`].
    pub backend_usage: BackendCounts,
    /// Thermal frames dropped at the frame gate.
    pub gate_drops: u64,
}

/// The dual-camera fusion pipeline.
///
/// # Examples
///
/// ```
/// use wavefuse_core::pipeline::{PipelineConfig, VideoFusionPipeline};
///
/// let mut pipe = VideoFusionPipeline::new(PipelineConfig::default())?;
/// let fused = pipe.step()?;
/// assert_eq!(fused.image.dims(), (88, 72));
/// assert_eq!(pipe.stats().frames, 1);
/// # Ok::<(), wavefuse_core::FusionError>(())
/// ```
#[derive(Debug)]
pub struct VideoFusionPipeline {
    fleet: StreamManager,
}

impl VideoFusionPipeline {
    /// Builds the pipeline: scene, cameras, engine, and the first captured
    /// frame pair.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] if the configured geometry cannot
    /// support the decomposition depth, and capture errors.
    pub fn new(config: PipelineConfig) -> Result<Self, FusionError> {
        Ok(VideoFusionPipeline {
            fleet: StreamManager::pipeline(config)?,
        })
    }

    /// Attaches a metrics registry to the pipeline and every component
    /// beneath it (engine, accelerator kernels, adaptive scheduler).
    ///
    /// Each [`step`](Self::step) then records per-backend frame counters,
    /// frame-latency and frame-energy histograms, gate-drop counters,
    /// energy totals and the stream's series (see
    /// [`StreamManager::set_telemetry`]). The per-frame timeline is the
    /// [flight recorder](Self::flight_recorder), which is always on.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        self.fleet.instrument_streams(&telemetry);
        self.fleet.set_telemetry(telemetry);
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.fleet.telemetry()
    }

    /// Captures one frame pair and fuses it.
    ///
    /// The thermal path models the paper's FIFO gating: the camera offers
    /// its field to the gate; the fusion step takes it. (At one offer per
    /// step nothing drops — drops appear when the producer outpaces the
    /// consumer, see [`VideoFusionPipeline::step_with_burst`].)
    ///
    /// # Errors
    ///
    /// Propagates capture and transform errors.
    pub fn step(&mut self) -> Result<FusionOutput, FusionError> {
        self.step_with_burst(1)
    }

    /// Like [`step`](Self::step), but the thermal camera produces `burst`
    /// fields per frame while only one is consumed — excess fields drop at
    /// the gate exactly as in the paper's hardware FIFO.
    ///
    /// A step runs the frame driver's rounds (see [`crate::serve`]): submit
    /// the held frame, capture the next frame while its transforms run on
    /// the worker pool (if any), fuse, and retire down to `depth - 1`
    /// pending frames; it returns the frame that retires. The first step
    /// at depth k runs k rounds. A frame's first field is offered when it
    /// is captured and its other `burst - 1` at the submit, so the capture
    /// sequence (and hence every fused frame and statistic) is the serial
    /// schedule's — only the wall-clock overlap differs. Dropping or
    /// reconfiguring the pipeline abandons the held frame and the k-1
    /// pending ones; a reconfigure finishes those serially, and later
    /// steps hand them out in order.
    ///
    /// # Errors
    ///
    /// Propagates capture and transform errors.
    pub fn step_with_burst(&mut self, burst: usize) -> Result<FusionOutput, FusionError> {
        self.fleet.step(burst)
    }

    /// Runs `n` fused frames (the paper profiles runs of 10), recycling
    /// each output buffer back into the engine's pool — the steady state of
    /// a run performs no heap allocation on the CPU backends.
    ///
    /// # Errors
    ///
    /// Propagates the first frame error encountered.
    pub fn run(&mut self, n: usize) -> Result<PipelineStats, FusionError> {
        for _ in 0..n {
            let out = self.step()?;
            self.recycle(out);
        }
        Ok(self.stats())
    }

    /// Returns a stepped-out fused frame's buffer to the engine's pool so
    /// the next [`step`](Self::step) reuses it instead of allocating.
    pub fn recycle(&self, output: FusionOutput) {
        self.engine().recycle(output);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PipelineStats {
        self.fleet.stream_stats(0)
    }

    /// Cumulative measured wall-clock seconds spent capturing/scaling
    /// frame pairs (webcam + thermal capture and gating) — the
    /// capture-side companion of
    /// [`FusionEngine::wall_phase_totals`]; the bench harness reports
    /// per-run deltas.
    pub fn wall_capture_seconds(&self) -> f64 {
        self.fleet.wall_capture_seconds(0)
    }

    /// Effective pipelining depth: the configured
    /// [`PipelineConfig::depth`] after the degrade rule (1 unless a fixed
    /// CPU backend runs on a worker pool).
    pub fn depth(&self) -> usize {
        self.engine().pipeline_depth()
    }

    /// The always-on per-frame flight recorder (the last
    /// [`FLIGHT_CAPACITY`] frames, oldest overwritten first; stream -1).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        self.fleet.flight_recorder()
    }

    /// The engine (e.g. for prediction queries).
    pub fn engine(&self) -> &FusionEngine {
        self.fleet.engine(0)
    }

    /// Mutable engine access (e.g. to change the fusion rule or
    /// reconfigure telemetry between runs).
    pub fn engine_mut(&mut self) -> &mut FusionEngine {
        self.fleet.engine_mut(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{Objective, Policy};
    use wavefuse_dtcwt::Image;

    #[test]
    fn ten_frame_run_accumulates() {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 3,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        let stats = pipe.run(10).unwrap();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.backend_usage, [0, 10, 0]);
        assert!(stats.timing.total_seconds() > 0.0);
        assert!(stats.energy_mj > 0.0);
        assert_eq!(stats.gate_drops, 0);
    }

    #[test]
    fn threaded_pipeline_matches_serial_exactly() {
        // The worker-pool pipeline must produce bit-identical fused frames
        // and stats to the serial one, frame after frame.
        let config = |threads| PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 7,
            threads,
            depth: 1,
        };
        let mut serial = VideoFusionPipeline::new(config(1)).unwrap();
        let mut pooled = VideoFusionPipeline::new(config(3)).unwrap();
        for _ in 0..3 {
            let a = serial.step().unwrap();
            let b = pooled.step().unwrap();
            assert_eq!(a.image, b.image);
            serial.recycle(a);
            pooled.recycle(b);
        }
        assert_eq!(serial.stats(), pooled.stats());
        // Bursty thermal production must also be schedule-invariant: the
        // software-pipelined prefetch accounts for the field it already
        // offered, so gate drops and fused frames stay identical.
        for burst in [2, 1, 3] {
            let a = serial.step_with_burst(burst).unwrap();
            let b = pooled.step_with_burst(burst).unwrap();
            assert_eq!(a.image, b.image, "burst {burst}");
            serial.recycle(a);
            pooled.recycle(b);
        }
        assert_eq!(serial.stats(), pooled.stats());
    }

    #[test]
    fn depth_k_pipeline_matches_serial_exactly() {
        // The depth-k schedule reorders only wall-clock overlap: the
        // capture sequence, fused frames, statistics and flight-recorded
        // modeled quantities are all identical to the serial pipeline.
        let config = |threads, depth| PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 13,
            threads,
            depth,
        };
        let mut serial = VideoFusionPipeline::new(config(1, 1)).unwrap();
        for depth in [2usize, 3] {
            let mut piped = VideoFusionPipeline::new(config(2, depth)).unwrap();
            for i in 0..6 {
                let a = serial.step().unwrap();
                let b = piped.step().unwrap();
                assert_eq!(a.image, b.image, "depth {depth} frame {i}");
                assert_eq!(a.timing, b.timing, "depth {depth} frame {i}");
                serial.recycle(a);
                piped.recycle(b);
            }
            let rec = piped.flight_recorder();
            assert_eq!(rec.len(), 6);
            for r in rec.iter() {
                assert_eq!(r.depth, depth as u64);
                assert!(r.slot >= 0 && (r.slot as usize) < depth, "slot {}", r.slot);
            }
            assert_eq!(serial.stats(), piped.stats(), "depth {depth}");
            serial = VideoFusionPipeline::new(config(1, 1)).unwrap();
        }
    }

    #[test]
    fn shrinking_the_ring_mid_run_keeps_the_serial_frame_sequence() {
        // After its first step a depth-3 pooled pipeline holds two pending
        // frames; shrinking the engine's ring abandons their batches. Each
        // must still retire as its own frame, in order, and the frames
        // after them must follow.
        let config = |threads, depth| PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 17,
            threads,
            depth,
        };
        let mut serial = VideoFusionPipeline::new(config(1, 1)).unwrap();
        let mut piped = VideoFusionPipeline::new(config(2, 3)).unwrap();
        for i in 0..6 {
            if i == 1 {
                piped.engine_mut().set_pipeline_depth(1);
            }
            let a = serial.step().unwrap();
            let b = piped.step().unwrap();
            assert_eq!(a.image, b.image, "frame {i}");
            serial.recycle(a);
            piped.recycle(b);
        }
        assert_eq!(piped.depth(), 1);
        assert_eq!(serial.stats(), piped.stats());
    }

    #[test]
    fn depth_degrades_to_one_without_a_pool_or_fixed_cpu_backend() {
        // Serial threads: depth silently degrades; the flight recorder
        // shows the classic schedule.
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 3,
            threads: 1,
            depth: 3,
        })
        .unwrap();
        pipe.run(2).unwrap();
        assert!(pipe.flight_recorder().iter().all(|r| r.depth == 1));
        // FPGA backend: also degrades, even on a pool.
        let mut fpga = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Fpga),
            scene_seed: 3,
            threads: 2,
            depth: 3,
        })
        .unwrap();
        fpga.run(2).unwrap();
        assert!(fpga.flight_recorder().iter().all(|r| r.depth == 1));
    }

    #[test]
    fn steady_state_run_reuses_pooled_buffers() {
        // After the first frame warms the pool, `run` recycles the output
        // buffer each step: exactly one miss, the rest hits.
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 3,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        pipe.run(6).unwrap();
        let stats = pipe.engine().buffer_pool().stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 5, "{stats:?}");
    }

    #[test]
    fn bursty_thermal_source_drops_at_gate() {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (32, 24),
            levels: 2,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 1,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        pipe.step_with_burst(3).unwrap();
        assert_eq!(pipe.stats().gate_drops, 2);
    }

    #[test]
    fn adaptive_pipeline_uses_both_accelerators() {
        // Large frames: the model policy must route to the FPGA.
        let mut big = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (88, 72),
            levels: 3,
            backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
                Policy::Model(Objective::Time),
                3,
            ))),
            scene_seed: 5,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        big.run(2).unwrap();
        assert_eq!(
            big.stats().backend_usage[Backend::Fpga],
            2,
            "large frames -> FPGA"
        );

        let mut small = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (32, 24),
            levels: 3,
            backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
                Policy::Model(Objective::Time),
                3,
            ))),
            scene_seed: 5,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        small.run(2).unwrap();
        assert_eq!(
            small.stats().backend_usage[Backend::Neon],
            2,
            "small frames -> NEON"
        );
    }

    #[test]
    fn online_pipeline_on_a_pool_matches_the_serial_pipeline() {
        // The online policy explores NEON (pooled frames on `threads: 2`)
        // and then exploits the FPGA (frames that run whole in
        // `FusionEngine::stage` on the same pooled engine); both runs must
        // deliver the same images and statistics bit for bit.
        let run = |threads| {
            let mut pipe = VideoFusionPipeline::new(PipelineConfig {
                frame_size: (88, 72),
                levels: 3,
                backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
                    Policy::Online(Objective::Time),
                    3,
                ))),
                scene_seed: 9,
                threads,
                depth: 1,
            })
            .unwrap();
            let images: Vec<Image> = (0..6).map(|_| pipe.step().unwrap().image).collect();
            (images, pipe.stats())
        };
        let (serial_images, serial) = run(1);
        let (pooled_images, pooled) = run(2);
        assert_eq!(pooled_images, serial_images);
        assert_eq!(pooled, serial);
        for backend in [Backend::Neon, Backend::Fpga] {
            assert!(pooled.backend_usage[backend] > 0, "{backend:?} unused");
        }
    }

    #[test]
    fn flight_recorder_reconciles_with_stats() {
        for backend in Backend::ALL {
            let mut pipe = VideoFusionPipeline::new(PipelineConfig {
                frame_size: (48, 40),
                levels: 3,
                backend: BackendChoice::Fixed(backend),
                scene_seed: 11,
                threads: 1,
                depth: 1,
            })
            .unwrap();
            pipe.run(6).unwrap();
            let rec = pipe.flight_recorder();
            assert_eq!(rec.len(), 6);
            assert!(!rec.wrapped());
            // Per-frame energy sums back to the aggregate stat exactly
            // (each record copies the frame's energy verbatim), and the
            // PS/PL split partitions it.
            let sum: f64 = rec.iter().map(|r| r.energy_mj).sum();
            let stats = pipe.stats();
            assert!(
                (sum - stats.energy_mj).abs() <= 1e-9 * stats.energy_mj,
                "{backend:?}: recorder {sum} vs stats {}",
                stats.energy_mj
            );
            for r in rec.iter() {
                assert_eq!(r.backend, backend.label());
                assert_eq!(r.decision, "fixed");
                assert!((r.ps_mj + r.pl_mj - r.energy_mj).abs() < 1e-12);
                assert!(r.predicted_s > 0.0);
                assert!((r.deadline_s - 1.0 / 30.0).abs() < 1e-12);
                match backend {
                    // The accelerator backends must charge PL-busy time...
                    Backend::Fpga => {
                        assert!(r.pl_busy_s > 0.0, "{backend:?}: no PL busy time");
                        assert!(r.pl_mj > 0.0);
                    }
                    // ...and the CPU ones must not.
                    _ => {
                        assert_eq!(r.pl_busy_s, 0.0);
                        assert_eq!(r.pl_mj, 0.0);
                    }
                }
            }
            // Frame indices are recorded in order.
            let frames: Vec<u64> = rec.iter().map(|r| r.frame).collect();
            assert_eq!(frames, [0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn fpga_predictions_track_measured_frame_cost() {
        // The analytic FPGA prediction is validated against the simulator
        // elsewhere at 2%; the flight record carries both sides.
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (88, 72),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Fpga),
            scene_seed: 2016,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        pipe.run(3).unwrap();
        for r in pipe.flight_recorder().iter() {
            let err = (r.predicted_s - r.model_dur_s).abs() / r.model_dur_s;
            assert!(
                err < 0.05,
                "frame {}: predicted {} vs measured {}",
                r.frame,
                r.predicted_s,
                r.model_dur_s
            );
        }
    }

    #[test]
    fn fused_output_keeps_thermal_hotspots_and_visible_texture() {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (64, 48),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: 9,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        let out = pipe.step().unwrap();
        // The lamp (hot in thermal, dim in visible) must be present in the
        // fused frame: compare the lamp spot against the image mean.
        let img = &out.image;
        let lamp = img.get((0.72 * 64.0) as usize, (0.22 * 48.0) as usize);
        let mean: f32 = img.as_slice().iter().sum::<f32>() / img.len() as f32;
        assert!(lamp > mean, "lamp {lamp} vs mean {mean}");
    }
}
