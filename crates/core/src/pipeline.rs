//! The end-to-end video-fusion pipeline (paper §VI, Fig. 7).
//!
//! Couples the two camera models to the fusion engine: the visible stream
//! arrives through the USB/PS path, the thermal stream through the BT.656
//! decode → scale path, both gated through the depth-1 frame gate (the
//! paper's output FIFO), then fused frame by frame on a fixed or
//! adaptively chosen backend, accumulating modeled time and energy.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wavefuse_dtcwt::{Image, PoolStats, WorkerSchedStats};
use wavefuse_trace::{FlightRecorder, FrameRecord, MetricsRegistry};
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::fifo::FrameGate;
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

use crate::adaptive::{AdaptiveScheduler, Objective, Policy};
use crate::backend::{Backend, BackendCounts};
use crate::engine::{FusionEngine, FusionOutput, PendingFusion, PhaseTiming};
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
    /// above 1 spawn a persistent [`wavefuse_dtcwt::WorkerPool`] in the
    /// engine, reused for every frame.
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

/// One frame submitted to the engine but not yet retired: everything the
/// retirement step needs to finish it and write its flight record.
#[derive(Debug)]
struct InFlightFrame {
    pending: PendingFusion,
    backend: Backend,
    wall_start: Duration,
}

/// Accumulated statistics of a pipeline run.
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
    engine: FusionEngine,
    web: WebCamera,
    thermal: ThermalCamera,
    gate: FrameGate<Frame>,
    backend: BackendChoice,
    stats: PipelineStats,
    telemetry: Option<Arc<MetricsRegistry>>,
    /// Reusable visible-capture slot (the webcam writes into it in place).
    visible: Frame,
    /// Free list of thermal frame buffers ping-ponged through the gate, so
    /// the double-buffered steady state captures without allocating.
    thermal_free: Vec<Frame>,
    /// Whether the next frame's captures already ran, overlapped with the
    /// previous frame's in-flight inverse transform (software pipelining;
    /// only set when the engine runs a worker pool at depth 1).
    prefetched: bool,
    /// Effective pipelining depth (after the degrade rule in
    /// [`PipelineConfig::depth`]); 1 = the classic schedule.
    depth: usize,
    /// Frames submitted but not yet retired, oldest first (depth > 1).
    /// In-order retirement: `step` always finishes the front.
    in_flight: VecDeque<InFlightFrame>,
    /// Always-on per-frame flight recorder (ring of the last
    /// [`FLIGHT_CAPACITY`] frames; recording is allocation-free).
    flight: FlightRecorder,
    /// Host wall-clock origin for flight-record timestamps.
    wall_origin: Instant,
    /// Cumulative wall-clock seconds spent capturing/scaling frame pairs
    /// (webcam + thermal capture and gating), across all steps — the
    /// capture-side companion of the engine's `wall_phase_totals`; the
    /// bench harness reports per-run deltas.
    wall_capture_s: f64,
    /// Engine scheduler totals already charged to flight records.
    last_sched: WorkerSchedStats,
    /// Buffer-pool counters already charged to flight records.
    last_pool: PoolStats,
}

impl VideoFusionPipeline {
    /// Builds the pipeline: scene, cameras, engine.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] if the configured geometry cannot
    /// support the decomposition depth.
    pub fn new(config: PipelineConfig) -> Result<Self, FusionError> {
        let (w, h) = config.frame_size;
        let scene = ScenePair::new(config.scene_seed);
        let mut engine = FusionEngine::new(config.levels)?;
        engine.set_threads(config.threads);
        // Depth > 1 needs the worker-pool submit/finish split and a fixed
        // CPU backend; everything else degrades to the depth-1 schedule.
        let depth = match &config.backend {
            BackendChoice::Fixed(Backend::Arm | Backend::Neon) if config.threads > 1 => {
                config.depth.max(1)
            }
            _ => 1,
        };
        engine.set_pipeline_depth(depth);
        if depth > 1 {
            // Pre-reserve per-slot combo stores and the output pool from
            // the plan, so first frames at large sizes don't miss-spike.
            engine.reserve_frame_buffers(w, h)?;
        }
        Ok(VideoFusionPipeline {
            engine,
            web: WebCamera::new(scene.clone(), w, h),
            thermal: ThermalCamera::new(scene, w, h),
            gate: FrameGate::new(),
            backend: config.backend,
            stats: PipelineStats::default(),
            telemetry: None,
            visible: Frame::new(Image::zeros(0, 0), 0),
            thermal_free: Vec::with_capacity(4 + depth),
            prefetched: false,
            depth,
            in_flight: VecDeque::with_capacity(depth),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            wall_origin: Instant::now(),
            wall_capture_s: 0.0,
            last_sched: WorkerSchedStats::default(),
            last_pool: PoolStats::default(),
        })
    }

    /// Attaches a metrics registry to the pipeline and every component
    /// beneath it (engine, accelerator kernels, adaptive scheduler).
    ///
    /// Each [`step`](Self::step) then records per-backend frame counters,
    /// frame-latency and frame-energy histograms, gate-drop counters, and
    /// energy totals. The per-frame timeline is the
    /// [flight recorder](Self::flight_recorder), which is always on.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        telemetry.describe(
            "wavefuse_frames_total",
            "Fused frames produced, by executing backend",
        );
        telemetry.describe(
            "wavefuse_gate_drops_total",
            "Thermal fields dropped at the depth-1 frame gate",
        );
        telemetry.describe(
            "wavefuse_frame_seconds",
            "Modeled end-to-end latency per fused frame, seconds",
        );
        telemetry.describe(
            "wavefuse_pipeline_energy_millijoules",
            "Accumulated modeled energy over the pipeline run",
        );
        telemetry.describe(
            "wavefuse_frame_energy_millijoules",
            "Modeled per-frame energy, millijoules",
        );
        self.engine.set_telemetry(Arc::clone(&telemetry));
        if let BackendChoice::Adaptive(s) = &mut self.backend {
            s.set_telemetry(Arc::clone(&telemetry));
        }
        self.telemetry = Some(telemetry);
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref()
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
    /// fields while only one is consumed — excess fields drop at the gate
    /// exactly as in the paper's hardware FIFO.
    ///
    /// When the engine runs a worker pool, the step is software-pipelined:
    /// after the frame's transforms are submitted, the *next* frame's
    /// captures run while the inverse transform is still in flight on the
    /// workers, and the following step skips the captures it already has.
    /// The capture sequence (and hence every fused frame and statistic) is
    /// identical to the serial schedule — only the wall-clock overlap
    /// differs.
    ///
    /// At depth > 1 (see [`PipelineConfig::depth`]) the step runs the
    /// depth-k schedule instead: the first call fills the ring by
    /// capturing and submitting k frames, and every call thereafter
    /// captures + submits frame `i+k-1` and retires frame `i` — so the
    /// capture of a new frame overlaps the in-flight transforms of the
    /// k-1 frames ahead of it. Captures keep their serial order, so the
    /// fused frames and statistics are bit-identical to depth 1; `burst`
    /// applies to each capture performed during the call (capture-time
    /// semantics). Dropping or reconfiguring the pipeline abandons the
    /// k-1 captured-but-unretired frames.
    ///
    /// # Errors
    ///
    /// Propagates capture and transform errors.
    pub fn step_with_burst(&mut self, burst: usize) -> Result<FusionOutput, FusionError> {
        if self.depth > 1 {
            return self.step_pipelined(burst);
        }
        let wall_start = self.wall_origin.elapsed();
        // One thermal field and the visible frame may already be captured,
        // overlapped with the previous step's in-flight inverse.
        let t_cap = Instant::now();
        let prefetched = std::mem::take(&mut self.prefetched);
        for _ in 0..burst.max(1) - usize::from(prefetched) {
            self.capture_thermal_field()?;
        }
        let thermal = self.gate.take().expect("gate holds at least one field");
        if !prefetched {
            self.web.capture_into(&mut self.visible);
        }
        self.wall_capture_s += t_cap.elapsed().as_secs_f64();

        let (w, h) = self.visible.image().dims();
        let backend = match &mut self.backend {
            BackendChoice::Fixed(b) => *b,
            BackendChoice::Adaptive(s) => s.choose(w, h)?,
        };
        let pending = self
            .engine
            .fuse_submit(self.visible.image(), thermal.image(), backend)?;
        if pending.inverse_in_flight() {
            // Software pipelining: the inverse of this frame runs on the
            // workers while we capture the next frame pair here. (A capture
            // error abandons the pending frame; the engine recovers the
            // stray batch on its next submission.)
            let t_cap = Instant::now();
            self.capture_thermal_field()?;
            self.web.capture_into(&mut self.visible);
            self.prefetched = true;
            self.wall_capture_s += t_cap.elapsed().as_secs_f64();
        }
        let slot = pending.slot();
        let out = self.engine.fuse_finish(pending)?;
        // The consumed thermal frame's buffer goes back to the free list
        // for the next capture.
        self.thermal_free.push(thermal);
        if let BackendChoice::Adaptive(s) = &mut self.backend {
            s.observe(w, h, backend, out.timing.total_seconds(), out.energy_mj);
        }
        self.record_frame(&out, backend, wall_start, slot);
        Ok(out)
    }

    /// Runs one depth-k schedule step: fill the in-flight ring to k
    /// frames (one capture+submit in steady state, k of them on the first
    /// call), then retire the oldest. See
    /// [`step_with_burst`](Self::step_with_burst).
    fn step_pipelined(&mut self, burst: usize) -> Result<FusionOutput, FusionError> {
        while self.in_flight.len() < self.depth {
            self.capture_and_submit(burst)?;
        }
        let frame = self.in_flight.pop_front().expect("ring was just filled");
        let slot = frame.pending.slot();
        let out = self.engine.fuse_finish(frame.pending)?;
        self.record_frame(&out, frame.backend, frame.wall_start, slot);
        Ok(out)
    }

    /// Captures one frame pair (thermal through the gate, `burst` fields
    /// offered) and submits it to the engine, pushing the pending frame
    /// onto the in-flight ring. Depth-k path only.
    fn capture_and_submit(&mut self, burst: usize) -> Result<(), FusionError> {
        let wall_start = self.wall_origin.elapsed();
        let t_cap = Instant::now();
        for _ in 0..burst.max(1) {
            self.capture_thermal_field()?;
        }
        let thermal = self.gate.take().expect("gate holds at least one field");
        self.web.capture_into(&mut self.visible);
        self.wall_capture_s += t_cap.elapsed().as_secs_f64();
        let backend = match &self.backend {
            BackendChoice::Fixed(b) => *b,
            // The constructor degrades adaptive configurations to depth 1.
            BackendChoice::Adaptive(_) => unreachable!("depth > 1 requires a fixed backend"),
        };
        let pending = self
            .engine
            .fuse_submit(self.visible.image(), thermal.image(), backend)?;
        // The forward + fuse phases ran inside the submit; only the
        // inverse is still in flight, so both capture buffers are free.
        self.thermal_free.push(thermal);
        self.in_flight.push_back(InFlightFrame {
            pending,
            backend,
            wall_start,
        });
        Ok(())
    }

    /// Accumulates statistics, the flight record and telemetry for one
    /// retired frame (shared by the serial and depth-k paths).
    fn record_frame(
        &mut self,
        out: &FusionOutput,
        backend: Backend,
        wall_start: Duration,
        slot: Option<usize>,
    ) {
        let drops_before = self.stats.gate_drops;
        let frame_index = self.stats.frames;
        // Modeled clock position of this frame = everything fused so far.
        let model_start_s = self.stats.timing.total_seconds();
        self.stats.frames += 1;
        self.stats.timing.accumulate(&out.timing);
        self.stats.energy_mj += out.energy_mj;
        self.stats.backend_usage[backend] += 1;
        self.stats.gate_drops = self.gate.dropped();
        let gate_drops = self.stats.gate_drops - drops_before;

        let decision = match &self.backend {
            BackendChoice::Fixed(_) => "fixed",
            BackendChoice::Adaptive(s) => match s.policy() {
                Policy::Model(Objective::Time) => "model-time",
                Policy::Model(Objective::Energy) => "model-energy",
                Policy::Online(Objective::Time) => "online-time",
                Policy::Online(Objective::Energy) => "online-energy",
            },
        };
        // Per-frame deltas of cumulative engine counters. `saturating_sub`
        // because an `engine_mut()` reconfiguration (set_threads) swaps in
        // a fresh pool with zeroed counters mid-run.
        let sched = self.engine.sched_totals();
        let steals = sched.steals.saturating_sub(self.last_sched.steals);
        let batches_claimed = sched
            .batches_claimed
            .saturating_sub(self.last_sched.batches_claimed);
        let parked_ns = sched.parked_ns.saturating_sub(self.last_sched.parked_ns);
        self.last_sched = sched;
        let pool_stats = self.engine.buffer_pool().stats();
        let pool_hit = pool_stats.hits > self.last_pool.hits;
        self.last_pool = pool_stats;
        let wall_end = self.wall_origin.elapsed();
        self.flight.record(FrameRecord {
            frame: frame_index,
            decision,
            depth: self.depth as u64,
            slot: slot.map_or(-1, |s| s as i64),
            wall_start_us: wall_start.as_secs_f64() * 1e6,
            wall_dur_us: (wall_end - wall_start).as_secs_f64() * 1e6,
            model_start_s,
            deadline_s: 1.0 / self.web.fps(),
            pool_hit,
            gate_drops,
            batches_claimed,
            steals,
            parked_ns,
            ..self.engine.frame_record(out)
        });

        if let Some(m) = &self.telemetry {
            m.counter_add(
                "wavefuse_frames_total",
                &[("backend", backend.label())],
                1.0,
            );
            m.observe(
                "wavefuse_frame_seconds",
                &[("backend", backend.label())],
                out.timing.total_seconds(),
            );
            m.observe("wavefuse_frame_energy_millijoules", &[], out.energy_mj);
            m.gauge_set(
                "wavefuse_pipeline_energy_millijoules",
                &[],
                self.stats.energy_mj,
            );
            if gate_drops > 0 {
                m.counter_add("wavefuse_gate_drops_total", &[], gate_drops as f64);
            }
        }
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
            self.engine.recycle(out);
        }
        Ok(self.stats)
    }

    /// Returns a stepped-out fused frame's buffer to the engine's pool so
    /// the next [`step`](Self::step) reuses it instead of allocating.
    pub fn recycle(&self, output: FusionOutput) {
        self.engine.recycle(output);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Cumulative measured wall-clock seconds spent capturing/scaling
    /// frame pairs (webcam + thermal capture and gating) — the
    /// capture-side companion of
    /// [`FusionEngine::wall_phase_totals`]; the bench harness reports
    /// per-run deltas.
    pub fn wall_capture_seconds(&self) -> f64 {
        self.wall_capture_s
    }

    /// Effective pipelining depth: the configured
    /// [`PipelineConfig::depth`] after the degrade rule (1 unless a fixed
    /// CPU backend runs on a worker pool).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The always-on per-frame flight recorder (the last
    /// [`FLIGHT_CAPACITY`] frames, oldest overwritten first).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The engine (e.g. for prediction queries).
    pub fn engine(&self) -> &FusionEngine {
        &self.engine
    }

    /// Mutable engine access (e.g. to change the fusion rule or
    /// reconfigure telemetry between runs).
    pub fn engine_mut(&mut self) -> &mut FusionEngine {
        &mut self.engine
    }

    /// Captures one thermal field into a free-list buffer and offers it to
    /// the gate, reclaiming the buffer immediately if the occupied gate
    /// rejects it (the paper's depth-1 FIFO drop).
    fn capture_thermal_field(&mut self) -> Result<(), FusionError> {
        let mut field = self
            .thermal_free
            .pop()
            .unwrap_or_else(|| Frame::new(Image::zeros(0, 0), 0));
        self.thermal.capture_into(&mut field)?;
        if let Some(rejected) = self.gate.offer_reclaiming(field) {
            self.thermal_free.push(rejected);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{Objective, Policy};

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
        assert_eq!(stats.backend_usage, [0, 10, 0, 0]);
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
    fn flight_recorder_reconciles_with_stats() {
        for backend in Backend::ALL_EXTENDED {
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
                    Backend::Fpga | Backend::Hybrid => {
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
