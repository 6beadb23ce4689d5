//! The frame driver: N streams over one optional shared worker pool.
//!
//! Each device in the paper runs one loop — capture, forward DT-CWT x2,
//! fuse, inverse (§VI, Fig. 7) — and its driver double-buffers (Fig. 5), so
//! the PS prepares the next input while the accelerator works. This module
//! is that loop, for one stream or many. A [`StreamManager`] owns the
//! streams, the shared [`WorkerPool`] (absent for the serial pipeline), the
//! fleet plan cache, the packing order, the fleet cap and one
//! [`FlightRecorder`]; [`VideoFusionPipeline`] is a fleet of one stream.
//!
//! A stream owns its engine, its cameras, its thermal [`FrameGate`] and
//! buffer free list, its backend choice (fixed, or a pipeline's
//! [`AdaptiveScheduler`]), its pending frames and its statistics. It holds
//! one captured frame between rounds. A round runs, per chunk of up to
//! [`PACK_STREAMS`] streams:
//!
//! 1. **Empty the ring**: stash every inverse batch still in flight, in
//!    global submission order, so the chunk's forwards fill a free ring.
//! 2. **Submit** every stream's held frame through the engine's one entry
//!    point, `FusionEngine::stage`. A pooled CPU frame publishes its four
//!    forward jobs into the shared ring without draining them, so 16
//!    streams x 4 row-tree jobs fill the ring's 64 slots and the workers
//!    see a deep queue; any other frame (an FPGA frame, or any frame of a
//!    serial fleet) runs whole inside the stage. A fleet cap first drops
//!    the globally oldest pending frame, charged to its own stream
//!    (cross-stream backpressure).
//! 3. **Capture ahead**: right after its submit (the stage copied the
//!    inputs or ran the frame), the stream captures its next frame while
//!    the workers run the forwards, so the ring is busy from the first
//!    submit of the round.
//! 4. **Fuse**, in the same order, through `FusionEngine::advance`: a
//!    pooled frame harvests its own (oldest-remaining) forwards, fuses on
//!    the dispatcher and leaves its inverse batch in flight; a frame that
//!    ran whole is queued as it is.
//! 5. **Retire** every stream down to `depth - 1` pending frames. A
//!    retirement stashes inverse batches in global submission order (the
//!    ring's `drain_partial` harvests oldest first) only up to its own
//!    frame, so a depth-k stream's newest inverse keeps running through
//!    the retirements and into the next round's step 1.
//!
//! Latency runs from a frame's capture, so it includes the round its
//! frame waits at the stream before submit; deadline misses and flight
//! records run from submit.
//!
//! Each delivered frame updates its stream's statistics, writes one
//! [`FrameRecord`] tagged with its stream into the fleet's recorder, and
//! emits both the pipeline metrics and the per-stream metrics, so a fleet
//! frame is explained exactly like a pipeline frame. The pool's scheduler
//! counters are fleet-wide; the one recorder charges their deltas once.
//!
//! Two more mechanics make sharing a pool pay: [`TransformPlan`]s are
//! cached fleet-wide by `(geometry, levels)` and handed to same-shape
//! engines ([`FusionEngine::adopt_plan`]), and admission picks each `Auto`
//! stream's operating point (deepest feasible levels, then the
//! minimum-energy CPU backend by [`decide`]).
//!
//! Results are bit-identical to running each stream alone: packing changes
//! only job interleaving in the ring, and every stream's combo-order
//! accumulation still happens at its own retirement (see [`solo_digest`]
//! and `tests/serve_identity.rs`).
//!
//! [`VideoFusionPipeline`]: crate::pipeline::VideoFusionPipeline
//! [`AdaptiveScheduler`]: crate::adaptive::AdaptiveScheduler

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use wavefuse_dtcwt::{
    Dwt2d, Image, PoolStats, WorkerPool, WorkerSchedStats, BATCH_SLOTS, FORWARD_JOBS_PER_PAIR,
};
use wavefuse_power::PowerModel;
use wavefuse_trace::{FlightRecorder, FrameRecord, LogHistogram, MetricsRegistry};
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::fifo::FrameGate;
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

use crate::adaptive::{decide, Objective, DEFAULT_RULE};
use crate::backend::Backend;
use crate::cost::{CostModel, TransformPlan};
use crate::engine::{build_worker_pool, FusionEngine, FusionOutput, PendingFusion};
use crate::pipeline::{BackendChoice, PipelineConfig, PipelineStats, FLIGHT_CAPACITY};
use crate::FusionError;

/// Streams per packed round: one frame pair per stream, each
/// [`FORWARD_JOBS_PER_PAIR`] forward jobs, fills the pool's
/// [`BATCH_SLOTS`]-slot ring exactly (16 x 4 = 64; the submit-side
/// capacity check admits the 64th job at 63 outstanding). A fleet of up
/// to this many streams runs a round as one ring fill; larger fleets are
/// packed in chunks of this size, with the ring drained between chunks.
pub const PACK_STREAMS: usize = BATCH_SLOTS / FORWARD_JOBS_PER_PAIR;

/// How a stream's backend (and decomposition depth) is chosen at
/// admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamBackend {
    /// Pin the stream to one pooled CPU backend ([`Backend::Arm`] or
    /// [`Backend::Neon`]; the FPGA path is serial by construction and
    /// cannot be packed into the shared ring).
    Fixed(Backend),
    /// Let admission pick: deepest feasible levels, then the minimum-energy
    /// CPU backend meeting `1 / target_fps` ([`decide`]). Falls back
    /// to NEON at the configured levels when no operating point is
    /// feasible (counted in [`ServeReport::qos_infeasible`]).
    Auto {
        /// The stream's real-time throughput target.
        target_fps: f64,
    },
}

/// One stream's admission parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Frame geometry of this stream's cameras.
    pub frame_size: (usize, usize),
    /// Requested DT-CWT decomposition levels (an `Auto` backend may pick
    /// fewer).
    pub levels: usize,
    /// Scene seed — streams with different seeds carry different content.
    pub scene_seed: u64,
    /// Frame-pipelining depth: how many of this stream's frames may be
    /// pending retirement at once. Each round retires the stream down to
    /// `depth - 1` pending frames, so depth 1 retires every frame within
    /// its own round, and depth k lets a frame's inverse run through
    /// k - 1 later retirements.
    pub depth: usize,
    /// Backend selection policy.
    pub backend: StreamBackend,
    /// Per-frame budget in seconds from submit to retirement; slower
    /// frames count as deadline misses. It excludes the round a captured
    /// frame waits before submit, which the latency quantiles include.
    /// The default is the 30 fps camera period.
    pub deadline_s: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            frame_size: (88, 72),
            levels: 3,
            scene_seed: 2016,
            depth: 1,
            backend: StreamBackend::Fixed(Backend::Neon),
            deadline_s: 1.0 / 30.0,
        }
    }
}

/// Fleet-wide configuration of a [`StreamManager`].
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads of the shared pool (>= 1).
    pub threads: usize,
    /// Ignored; drop with the next benchmark PR (the benchmark harness
    /// pins this field). The NEON kernels have one column path.
    pub columnar: bool,
    /// Cap on frames pending retirement across the whole fleet. Admitting
    /// a frame past the cap **drops** the globally oldest pending frame
    /// (cross-stream backpressure, charged to that frame's own stream).
    /// `None` disables the cap (each stream is still bounded by its own
    /// `depth`).
    pub max_in_flight: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            threads: 2,
            columnar: true,
            max_in_flight: None,
        }
    }
}

/// A frame pending retirement: the engine token, its fleet-wide
/// submission number, its latency clock (capture end) and its deadline
/// and flight-record start (submit).
#[derive(Debug)]
struct PendingFrame {
    pending: PendingFusion,
    seq: u64,
    captured: Instant,
    submitted: Instant,
}

/// One stream: the per-stream half of the frame driver (see the module
/// docs).
#[derive(Debug)]
struct Stream {
    engine: FusionEngine,
    backend: BackendChoice,
    /// Flight-record stream tag: the admission index, or -1 for a
    /// pipeline's stream.
    tag: i64,
    deadline_s: f64,
    frame_size: (usize, usize),
    web: WebCamera,
    thermal: ThermalCamera,
    /// The paper's depth-1 thermal FIFO; the held frame's field waits here.
    gate: FrameGate<Frame>,
    /// Thermal buffers ping-ponged through the gate, so the steady state
    /// captures without allocating.
    thermal_free: Vec<Frame>,
    /// The held frame's visible image.
    visible: Frame,
    /// When the held frame's capture finished: its latency clock.
    captured: Instant,
    /// Capture end and submit time of this round's frame, from its submit
    /// to its fuse.
    staged: (Instant, Instant),
    pending: VecDeque<PendingFrame>,
    /// Delivered frames not yet handed out (a pipeline) or recycled.
    retired: VecDeque<FusionOutput>,
    stats: PipelineStats,
    latency: LogHistogram,
    drops: u64,
    deadline_misses: u64,
    /// Modeled energy of the frames delivered in this
    /// [`StreamManager::run`] window, summed frame by frame so equal
    /// windows report equal bits.
    window_mj: f64,
    digest: u64,
    /// Wall-clock seconds spent capturing (both cameras and the gate).
    wall_capture_s: f64,
    /// Buffer-pool counters already charged to flight records.
    last_pool: PoolStats,
}

impl Stream {
    /// Offers `fields` thermal fields to the gate (a full gate drops the
    /// newcomer, as the paper's FIFO does) and, with `visible`, captures
    /// the visible frame and restarts the latency clock.
    fn capture(&mut self, fields: usize, visible: bool) -> Result<(), FusionError> {
        let t0 = Instant::now();
        for _ in 0..fields {
            let mut field = self
                .thermal_free
                .pop()
                .unwrap_or_else(|| Frame::new(Image::zeros(0, 0), 0));
            self.thermal.capture_into(&mut field)?;
            if let Some(rejected) = self.gate.offer_reclaiming(field) {
                self.thermal_free.push(rejected);
            }
        }
        if visible {
            self.web.capture_into(&mut self.visible);
            self.captured = Instant::now();
        }
        self.wall_capture_s += t0.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Per-stream slice of a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream index (admission order).
    pub stream: usize,
    /// Executing backend label.
    pub backend: &'static str,
    /// Decomposition levels actually running (an `Auto` stream may run
    /// fewer than requested).
    pub levels: usize,
    /// Frame-pipelining depth.
    pub depth: usize,
    /// Frame geometry.
    pub frame_size: (usize, usize),
    /// Frames delivered during the measured window.
    pub frames: u64,
    /// Frames dropped by fleet backpressure during the window.
    pub drops: u64,
    /// Delivered frames whose submit-to-retire time exceeded the stream's
    /// deadline.
    pub deadline_misses: u64,
    /// Delivered frames per second over the window's wall clock.
    pub fps: f64,
    /// Median capture-to-retire latency, seconds (cumulative since the
    /// last [`StreamManager::reset_latency_stats`]). It includes the round
    /// a captured frame waits before submit; a frame held across the
    /// reset keeps its capture time.
    pub p50_latency_s: f64,
    /// 99th-percentile capture-to-retire latency, seconds.
    pub p99_latency_s: f64,
    /// Modeled energy per delivered frame, millijoules.
    pub energy_mj_per_frame: f64,
}

/// What one [`StreamManager::run`] window measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Streams admitted.
    pub streams: usize,
    /// Worker threads of the shared pool.
    pub threads: usize,
    /// Wall-clock seconds of the window.
    pub wall_s: f64,
    /// Frames delivered across all streams.
    pub total_frames: u64,
    /// Frames dropped by fleet backpressure.
    pub total_drops: u64,
    /// Delivered frames per second, fleet-wide.
    pub aggregate_fps: f64,
    /// min/max per-stream fps ratio (1.0 = perfectly fair; only streams
    /// that delivered frames count).
    pub fairness: f64,
    /// Mean modeled energy per delivered frame, millijoules.
    pub energy_mj_per_frame: f64,
    /// Distinct `(geometry, levels)` plans built for the whole fleet.
    pub plan_cache_entries: usize,
    /// Admissions served from the shared plan cache instead of building.
    pub plan_cache_hits: u64,
    /// `Auto` admissions whose deadline no operating point could meet
    /// (they fall back to NEON at the requested levels).
    pub qos_infeasible: u64,
    /// One entry per stream, admission order.
    pub per_stream: Vec<StreamReport>,
}

/// Per-stream counters snapshotted at a window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct StreamSnapshot {
    frames: u64,
    drops: u64,
    deadline_misses: u64,
}

/// The frame driver's fleet half: owns the optional shared
/// [`WorkerPool`], the fleet plan cache, the admitted streams, the
/// cross-stream packing / retirement protocol and the flight recorder.
/// See the module docs for the schedule.
#[derive(Debug)]
pub struct StreamManager {
    pool: Option<Arc<WorkerPool>>,
    threads: usize,
    max_in_flight: Option<usize>,
    streams: Vec<Stream>,
    /// Fleet plan cache: `(levels, plan)`, matched on `frame_dims()` too.
    plans: Vec<(usize, Arc<TransformPlan>)>,
    plan_hits: u64,
    qos_infeasible: u64,
    /// Stream ids of pending frames in submission order — the global
    /// retirement FIFO backpressure drops pop from. Its length is the
    /// fleet's pending count the cap bounds.
    retire_fifo: VecDeque<usize>,
    /// `(submission number, stream id)` of every inverse batch still
    /// (unstashed) in the shared ring, in submission order. A retirement
    /// stashes up to its own frame; each chunk starts by emptying it.
    unstashed: VecDeque<(u64, usize)>,
    /// Frames submitted fleet-wide: the next submission number.
    submissions: u64,
    digests: bool,
    telemetry: Option<Arc<MetricsRegistry>>,
    /// One record per delivered frame, fleet-wide: the last
    /// [`FLIGHT_CAPACITY`] frames; recording is allocation-free.
    flight: FlightRecorder,
    /// Host wall-clock origin for flight-record timestamps.
    wall_origin: Instant,
    /// Worker-pool scheduler totals already charged to flight records.
    last_sched: WorkerSchedStats,
}

impl StreamManager {
    /// Builds a manager with its shared worker fleet (no streams yet).
    pub fn new(fleet: FleetConfig) -> Self {
        StreamManager::with_pool(Some(fleet.threads.max(1)), fleet.max_in_flight)
    }

    /// A manager whose streams share a pool of `threads` workers, or run
    /// serially on the caller's thread with `None`.
    fn with_pool(threads: Option<usize>, max_in_flight: Option<usize>) -> Self {
        StreamManager {
            pool: threads.map(|t| Arc::new(build_worker_pool(t, true))),
            threads: threads.unwrap_or(1),
            max_in_flight,
            streams: Vec::new(),
            plans: Vec::new(),
            plan_hits: 0,
            qos_infeasible: 0,
            retire_fifo: VecDeque::new(),
            unstashed: VecDeque::new(),
            submissions: 0,
            digests: false,
            telemetry: None,
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            wall_origin: Instant::now(),
            last_sched: WorkerSchedStats::default(),
        }
    }

    /// The pipeline's driver: a fleet of one stream, on a private pool when
    /// `config.threads > 1` and serial otherwise, at the depth
    /// [`PipelineConfig::depth`]'s degrade rule leaves.
    pub(crate) fn pipeline(config: PipelineConfig) -> Result<Self, FusionError> {
        let pooled = config.threads > 1;
        let depth = match &config.backend {
            BackendChoice::Fixed(Backend::Arm | Backend::Neon) if pooled => config.depth,
            _ => 1,
        };
        let mut fleet = StreamManager::with_pool(pooled.then_some(config.threads), None);
        let stream = StreamConfig {
            frame_size: config.frame_size,
            levels: config.levels,
            scene_seed: config.scene_seed,
            depth,
            ..StreamConfig::default()
        };
        fleet.add_stream(&stream, config.levels, config.backend, -1)?;
        Ok(fleet)
    }

    /// Enables per-stream output digesting: every delivered frame's pixel
    /// bits are folded into the stream's FNV-1a digest (see
    /// [`StreamManager::stream_digest`]). Off by default — hashing every
    /// output is bit-identity-test machinery, not serving work.
    pub fn set_digests(&mut self, enabled: bool) {
        self.digests = enabled;
    }

    /// Attaches a metrics registry. Each delivered frame then records the
    /// pipeline series (per-backend frame counters, frame-latency and
    /// frame-energy histograms, the energy gauge, gate drops) and the
    /// per-stream series (labeled frame counters and capture-to-retire
    /// latency histograms); each drop records a labeled drop counter.
    /// Stream labels come from [`stream_label`] (cardinality-capped), so
    /// streams that share a label add into one series. The streams'
    /// engines stay un-instrumented — the shared pool's counters are
    /// fleet-global and per-engine delta reporting would double-count them.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        for (name, help) in [
            (
                "wavefuse_frames_total",
                "Fused frames produced, by executing backend",
            ),
            (
                "wavefuse_gate_drops_total",
                "Thermal fields dropped at the depth-1 frame gate",
            ),
            (
                "wavefuse_frame_seconds",
                "Modeled end-to-end latency per fused frame, seconds",
            ),
            (
                "wavefuse_pipeline_energy_millijoules",
                "Accumulated modeled energy over the run, all streams",
            ),
            (
                "wavefuse_frame_energy_millijoules",
                "Modeled per-frame energy, millijoules",
            ),
            (
                "wavefuse_stream_frames_total",
                "Frames delivered, by serving stream",
            ),
            (
                "wavefuse_stream_drops_total",
                "Frames dropped by fleet backpressure, by serving stream",
            ),
            (
                "wavefuse_frame_latency_seconds",
                "Capture-to-retire frame latency",
            ),
        ] {
            telemetry.describe(name, help);
        }
        self.telemetry = Some(telemetry);
    }

    /// The attached metrics registry, if any.
    pub(crate) fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref()
    }

    /// Attaches `telemetry` to every stream's engine and adaptive
    /// scheduler too — what a pipeline does. A fleet on a shared pool must
    /// not (see [`StreamManager::set_telemetry`]).
    pub(crate) fn instrument_streams(&mut self, telemetry: &Arc<MetricsRegistry>) {
        for st in &mut self.streams {
            st.engine.set_telemetry(Arc::clone(telemetry));
            if let BackendChoice::Adaptive(s) = &mut st.backend {
                s.set_telemetry(Arc::clone(telemetry));
            }
        }
    }

    /// Admits one stream into the fleet: resolves its operating point
    /// ([`decide`] for `Auto`), builds its engine on the shared pool,
    /// installs the fleet-cached plan, pre-sizes every steady-state
    /// buffer, constructs its deterministic cameras and captures its first
    /// frame. Returns the stream id.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] if the geometry cannot support
    /// even one decomposition level.
    ///
    /// # Panics
    ///
    /// Panics if a `Fixed` backend is not a pooled CPU backend, or if an
    /// `Auto` target rate is not finite and positive.
    pub fn admit(&mut self, cfg: StreamConfig) -> Result<usize, FusionError> {
        let (backend, levels, feasible) = operating_point(&cfg)?;
        if !feasible {
            self.qos_infeasible += 1;
        }
        let tag = self.streams.len() as i64;
        self.add_stream(&cfg, levels, BackendChoice::Fixed(backend), tag)
    }

    /// Builds one stream (see [`StreamManager::admit`]) and returns its id.
    /// Without a pool the engine stays serial at depth 1.
    fn add_stream(
        &mut self,
        cfg: &StreamConfig,
        levels: usize,
        backend: BackendChoice,
        tag: i64,
    ) -> Result<usize, FusionError> {
        let (w, h) = cfg.frame_size;
        let depth = cfg.depth.max(1);
        let mut engine = FusionEngine::new(levels)?;
        engine.adopt_plan(self.fleet_plan(w, h, levels)?);
        if let Some(pool) = &self.pool {
            engine.set_shared_pool(Arc::clone(pool));
            engine.set_pipeline_depth(depth);
            engine.reserve_frame_buffers(w, h)?;
        }
        let scene = ScenePair::new(cfg.scene_seed);
        let mut stream = Stream {
            engine,
            backend,
            tag,
            deadline_s: cfg.deadline_s,
            frame_size: (w, h),
            web: WebCamera::new(scene.clone(), w, h),
            thermal: ThermalCamera::new(scene, w, h),
            gate: FrameGate::new(),
            thermal_free: Vec::with_capacity(4),
            visible: Frame::new(Image::zeros(0, 0), 0),
            captured: Instant::now(),
            staged: (Instant::now(), Instant::now()),
            pending: VecDeque::with_capacity(depth),
            retired: VecDeque::with_capacity(depth),
            stats: PipelineStats::default(),
            latency: LogHistogram::with_defaults(),
            drops: 0,
            deadline_misses: 0,
            window_mj: 0.0,
            digest: FNV_OFFSET,
            wall_capture_s: 0.0,
            last_pool: PoolStats::default(),
        };
        // The first frame is captured now: it warms the capture path, so
        // the first round is already allocation-free, and it is the frame
        // that round submits.
        stream.capture(1, true)?;
        self.streams.push(stream);
        self.retire_fifo.reserve(depth);
        self.unstashed.reserve(depth);
        Ok(self.streams.len() - 1)
    }

    /// Looks up (or builds and caches) the fleet-shared plan for a
    /// geometry/levels pair.
    fn fleet_plan(
        &mut self,
        w: usize,
        h: usize,
        levels: usize,
    ) -> Result<Arc<TransformPlan>, FusionError> {
        if let Some((_, plan)) = self
            .plans
            .iter()
            .find(|(l, p)| *l == levels && p.frame_dims() == (w, h))
        {
            self.plan_hits += 1;
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(TransformPlan::dtcwt(w, h, levels)?);
        self.plans.push((levels, Arc::clone(&plan)));
        Ok(plan)
    }

    /// Admitted streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Worker threads of the shared pool (1 without one).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// FNV-1a digest over the pixel bits of every frame a stream has
    /// delivered — byte-identical streams produce equal digests (see
    /// [`solo_digest`]). Stays at the FNV offset basis unless
    /// [`StreamManager::set_digests`] enabled digesting.
    pub fn stream_digest(&self, stream: usize) -> u64 {
        self.streams[stream].digest
    }

    /// Frames a stream has delivered (drops excluded).
    pub fn stream_frames(&self, stream: usize) -> u64 {
        self.streams[stream].stats.frames
    }

    /// Frames dropped from a stream by fleet backpressure.
    pub fn stream_drops(&self, stream: usize) -> u64 {
        self.streams[stream].drops
    }

    /// Accumulated statistics of a stream's delivered frames (modeled
    /// time and energy, backend use, gate drops).
    pub fn stream_stats(&self, stream: usize) -> PipelineStats {
        self.streams[stream].stats
    }

    /// The backend a stream was admitted on.
    pub fn stream_backend(&self, stream: usize) -> Backend {
        match self.streams[stream].backend {
            BackendChoice::Fixed(b) => b,
            // Only a pipeline's stream schedules adaptively, and a
            // pipeline's fleet is private.
            BackendChoice::Adaptive(_) => unreachable!("admitted streams run a fixed backend"),
        }
    }

    /// The decomposition levels a stream actually runs.
    pub fn stream_levels(&self, stream: usize) -> usize {
        self.streams[stream].engine.levels()
    }

    /// Distinct plans in the fleet cache.
    pub fn plan_cache_entries(&self) -> usize {
        self.plans.len()
    }

    /// Admissions served from the fleet plan cache.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_hits
    }

    /// The fleet's flight recorder: one record per delivered frame (drops
    /// excluded), tagged with its stream, oldest overwritten first.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// A stream's engine.
    pub(crate) fn engine(&self, stream: usize) -> &FusionEngine {
        &self.streams[stream].engine
    }

    /// A stream's engine, mutably (a pipeline's reconfigure hook). Every
    /// inverse batch still in the ring is stashed first: a reconfigure may
    /// abandon or replace the engine's ring, and the unstashed FIFO must
    /// not outlive the batches it names.
    pub(crate) fn engine_mut(&mut self, stream: usize) -> &mut FusionEngine {
        self.stash_through(u64::MAX);
        &mut self.streams[stream].engine
    }

    /// Cumulative wall-clock seconds a stream spent capturing.
    pub(crate) fn wall_capture_seconds(&self, stream: usize) -> f64 {
        self.streams[stream].wall_capture_s
    }

    /// Replaces every stream's latency histogram (they are cumulative and
    /// cannot be snapshotted differentially) — call between a warm-up
    /// window and the measured window.
    pub fn reset_latency_stats(&mut self) {
        for s in &mut self.streams {
            s.latency = LogHistogram::with_defaults();
        }
    }

    /// Drives every stream for `frames_per_stream` rounds (one submit and
    /// one capture per stream per round), retires everything still
    /// pending, and reports the window: aggregate and per-stream
    /// throughput, latency quantiles, fairness, energy, drops, and
    /// plan-cache effectiveness.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error (none occur for supported
    /// geometries).
    pub fn run(&mut self, frames_per_stream: usize) -> Result<ServeReport, FusionError> {
        let before: Vec<StreamSnapshot> = self
            .streams
            .iter_mut()
            .map(|s| {
                s.window_mj = 0.0;
                StreamSnapshot {
                    frames: s.stats.frames,
                    drops: s.drops,
                    deadline_misses: s.deadline_misses,
                }
            })
            .collect();
        let t0 = Instant::now();
        for _ in 0..frames_per_stream {
            self.round(1)?;
            self.recycle_retired();
        }
        while let Some(&i) = self.retire_fifo.front() {
            self.retire(i, false)?;
        }
        self.recycle_retired();
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(self.report(wall_s, &before))
    }

    /// Runs rounds (offering `burst` thermal fields per frame) until
    /// stream 0 has retired a frame, and hands that frame out: a
    /// pipeline's step.
    pub(crate) fn step(&mut self, burst: usize) -> Result<FusionOutput, FusionError> {
        loop {
            if let Some(out) = self.streams[0].retired.pop_front() {
                return Ok(out);
            }
            self.round(burst)?;
        }
    }

    /// One round of the schedule in the module docs, in chunks of
    /// [`PACK_STREAMS`] streams.
    fn round(&mut self, burst: usize) -> Result<(), FusionError> {
        let n = self.streams.len();
        for start in (0..n).step_by(PACK_STREAMS) {
            let chunk = start..n.min(start + PACK_STREAMS);
            // Empty the ring for this chunk's forwards: the inverses a
            // deeper stream left running ran behind the last retirements.
            self.stash_through(u64::MAX);
            for i in chunk.clone() {
                self.submit(i, burst)?;
            }
            for i in chunk.clone() {
                self.fuse(i)?;
            }
            for i in chunk {
                while self.streams[i].pending.len() >= self.streams[i].engine.pipeline_depth() {
                    self.retire(i, false)?;
                }
            }
        }
        Ok(())
    }

    /// Enforces the fleet cap, then stages stream `i`'s held frame
    /// ([`FusionEngine::stage`]). A frame gets `burst` thermal fields; its
    /// first was offered when it was captured.
    fn submit(&mut self, i: usize, burst: usize) -> Result<(), FusionError> {
        while let Some(cap) = self.max_in_flight {
            if self.retire_fifo.len() < cap {
                break;
            }
            let victim = *self
                .retire_fifo
                .front()
                .expect("frames in flight imply FIFO entries");
            self.retire(victim, true)?;
        }
        let st = &mut self.streams[i];
        let submitted = Instant::now();
        // A frame whose capture failed is captured whole here.
        let held = st.gate.is_occupied();
        st.capture(burst.max(1) - usize::from(held), !held)?;
        st.staged = (st.captured, submitted);
        let thermal = st.gate.take().expect("a captured field waits at the gate");
        let (w, h) = st.visible.image().dims();
        let result = st.backend.choose(w, h).and_then(|backend| {
            st.engine
                .stage(st.visible.image(), thermal.image(), backend)
        });
        // The stage is done with the inputs: it copied them, or ran the
        // whole frame.
        st.thermal_free.push(thermal);
        result?;
        // Capture ahead while this frame's forward jobs run.
        st.capture(1, true)
    }

    /// Takes stream `i`'s staged frame up to its inverse
    /// ([`FusionEngine::advance`]) and queues it for retirement.
    fn fuse(&mut self, i: usize) -> Result<(), FusionError> {
        let st = &mut self.streams[i];
        let pending = st.engine.advance()?;
        let seq = self.submissions;
        self.submissions += 1;
        if pending.slot().is_some() {
            self.unstashed.push_back((seq, i));
        }
        let (captured, submitted) = st.staged;
        st.pending.push_back(PendingFrame {
            pending,
            seq,
            captured,
            submitted,
        });
        self.retire_fifo.push_back(i);
        Ok(())
    }

    /// Harvests the unstashed inverse batches of frames submitted up to
    /// number `seq` from the shared ring into their engines' slot stashes,
    /// in global submission order — the only order `drain_partial`'s
    /// oldest-first contract allows. Newer batches stay in flight.
    fn stash_through(&mut self, seq: u64) {
        while let Some(&(s, i)) = self.unstashed.front() {
            if s > seq {
                break;
            }
            self.unstashed.pop_front();
            let stashed = self.streams[i].engine.stash_oldest_in_flight();
            debug_assert!(stashed, "FIFO entry without an unstashed batch");
        }
    }

    /// Returns every delivered output to its engine's buffer pool.
    fn recycle_retired(&mut self) {
        for st in &mut self.streams {
            while let Some(out) = st.retired.pop_front() {
                st.engine.recycle(out);
            }
        }
    }

    /// Retires stream `i`'s oldest pending frame. A `dropped` frame is
    /// discarded and charged to the stream's drop counter. A delivered one
    /// updates the stream's statistics, digest and adaptive scheduler,
    /// writes its flight record and metrics, and joins the stream's
    /// retired outputs. The frame's inverse batch, and every older one, is
    /// stashed first, so retirement order across streams is free.
    fn retire(&mut self, i: usize, dropped: bool) -> Result<(), FusionError> {
        let PendingFrame {
            pending,
            seq,
            captured,
            submitted,
        } = self.streams[i]
            .pending
            .pop_front()
            .expect("retire without a pending frame");
        self.stash_through(seq);
        remove_first(&mut self.retire_fifo, i);
        let st = &mut self.streams[i];
        let slot = pending.slot();
        let out = st.engine.fuse_finish(pending)?;
        let label = stream_label(i);
        if dropped {
            st.drops += 1;
            st.engine.recycle(out);
            if let Some(m) = &self.telemetry {
                m.counter_add("wavefuse_stream_drops_total", &[("stream", label)], 1.0);
            }
            return Ok(());
        }
        let latency_s = captured.elapsed().as_secs_f64();
        let wall_dur_s = submitted.elapsed().as_secs_f64();
        if wall_dur_s > st.deadline_s {
            st.deadline_misses += 1;
        }
        st.latency.observe(latency_s);
        if self.digests {
            st.digest = fnv1a_image(st.digest, &out.image);
        }
        if let BackendChoice::Adaptive(s) = &mut st.backend {
            let (w, h) = out.image.dims();
            s.observe(w, h, out.backend, out.timing.total_seconds(), out.energy_mj);
        }
        // Modeled clock position of this frame = everything this stream
        // fused so far.
        let model_start_s = st.stats.timing.total_seconds();
        let gate_drops = st.gate.dropped() - st.stats.gate_drops;
        let frame = st.stats.frames;
        st.stats.frames += 1;
        st.stats.timing.accumulate(&out.timing);
        st.stats.energy_mj += out.energy_mj;
        st.window_mj += out.energy_mj;
        st.stats.backend_usage[out.backend] += 1;
        st.stats.gate_drops += gate_drops;
        // Per-frame deltas of cumulative counters; the pool's are
        // fleet-wide, charged once here. `saturating_sub` because a
        // reconfigure can swap in a fresh pool with zeroed counters.
        let sched = st.engine.sched_totals();
        let pool = st.engine.buffer_pool().stats();
        self.flight.record(FrameRecord {
            frame,
            stream: st.tag,
            decision: st.backend.decision(),
            depth: st.engine.pipeline_depth() as u64,
            slot: slot.map_or(-1, |s| s as i64),
            wall_start_us: (submitted - self.wall_origin).as_secs_f64() * 1e6,
            wall_dur_us: wall_dur_s * 1e6,
            model_start_s,
            deadline_s: st.deadline_s,
            pool_hit: pool.hits > st.last_pool.hits,
            gate_drops,
            batches_claimed: sched
                .batches_claimed
                .saturating_sub(self.last_sched.batches_claimed),
            steals: sched.steals.saturating_sub(self.last_sched.steals),
            parked_ns: sched.parked_ns.saturating_sub(self.last_sched.parked_ns),
            ..st.engine.frame_record(&out)
        });
        self.last_sched = sched;
        st.last_pool = pool;
        let (backend, frame_s, frame_mj) = (
            out.backend.label(),
            out.timing.total_seconds(),
            out.energy_mj,
        );
        st.retired.push_back(out);
        if let Some(m) = &self.telemetry {
            m.counter_add("wavefuse_frames_total", &[("backend", backend)], 1.0);
            m.observe("wavefuse_frame_seconds", &[("backend", backend)], frame_s);
            m.observe("wavefuse_frame_energy_millijoules", &[], frame_mj);
            let total_mj: f64 = self.streams.iter().map(|s| s.stats.energy_mj).sum();
            m.gauge_set("wavefuse_pipeline_energy_millijoules", &[], total_mj);
            if gate_drops > 0 {
                m.counter_add("wavefuse_gate_drops_total", &[], gate_drops as f64);
            }
            m.counter_add("wavefuse_stream_frames_total", &[("stream", label)], 1.0);
            m.observe(
                "wavefuse_frame_latency_seconds",
                &[("stream", label)],
                latency_s,
            );
        }
        Ok(())
    }

    /// Builds the window report from the per-stream deltas.
    fn report(&self, wall_s: f64, before: &[StreamSnapshot]) -> ServeReport {
        let wall = wall_s.max(1e-12);
        let mut per_stream = Vec::with_capacity(self.streams.len());
        let mut total_frames = 0u64;
        let mut total_drops = 0u64;
        let mut total_energy = 0.0;
        let mut slowest_fps = f64::INFINITY;
        let mut fastest_fps: f64 = 0.0;
        for (i, s) in self.streams.iter().enumerate() {
            let frames = s.stats.frames - before[i].frames;
            let drops = s.drops - before[i].drops;
            let energy = s.window_mj;
            let fps = frames as f64 / wall;
            if frames > 0 {
                slowest_fps = slowest_fps.min(fps);
                fastest_fps = fastest_fps.max(fps);
            }
            total_frames += frames;
            total_drops += drops;
            total_energy += energy;
            per_stream.push(StreamReport {
                stream: i,
                backend: self.stream_backend(i).label(),
                levels: s.engine.levels(),
                depth: s.engine.pipeline_depth(),
                frame_size: s.frame_size,
                frames,
                drops,
                deadline_misses: s.deadline_misses - before[i].deadline_misses,
                fps,
                p50_latency_s: s.latency.quantile(0.50),
                p99_latency_s: s.latency.quantile(0.99),
                energy_mj_per_frame: energy / (frames.max(1) as f64),
            });
        }
        ServeReport {
            streams: self.streams.len(),
            threads: self.threads,
            wall_s,
            total_frames,
            total_drops,
            aggregate_fps: total_frames as f64 / wall,
            fairness: if fastest_fps > 0.0 && slowest_fps.is_finite() {
                slowest_fps / fastest_fps
            } else {
                0.0
            },
            energy_mj_per_frame: total_energy / (total_frames.max(1) as f64),
            plan_cache_entries: self.plans.len(),
            plan_cache_hits: self.plan_hits,
            qos_infeasible: self.qos_infeasible,
            per_stream,
        }
    }
}

/// Static label strings for per-stream metric series: streams 0..=15 get
/// their own label, everything beyond folds into one `"overflow"` bucket
/// so fleet size cannot blow up exporter cardinality.
pub fn stream_label(stream: usize) -> &'static str {
    const LABELS: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    LABELS.get(stream).copied().unwrap_or("overflow")
}

/// Resolves a stream's `(backend, levels, feasible)` operating point —
/// validated pass-through for `Fixed`; for `Auto`, the deepest depth at
/// which [`decide`] finds a CPU backend (those are what the ring can pack)
/// meeting the frame period, minimum energy first. When none does,
/// `feasible` is `false` and the stream falls back to NEON at the
/// requested levels. Admission and [`solo_digest`] both resolve here, so
/// the solo reference fuses at the operating point the fleet admitted.
///
/// # Errors
///
/// Returns [`FusionError::Transform`] if the geometry cannot support even
/// one decomposition level.
///
/// # Panics
///
/// Panics if a `Fixed` backend is not a pooled CPU backend, or if an
/// `Auto` target rate is not finite and positive.
fn operating_point(cfg: &StreamConfig) -> Result<(Backend, usize, bool), FusionError> {
    let target_fps = match cfg.backend {
        StreamBackend::Fixed(b) => {
            assert!(
                matches!(b, Backend::Arm | Backend::Neon),
                "serving packs streams onto the pooled CPU backends"
            );
            return Ok((b, cfg.levels, true));
        }
        StreamBackend::Auto { target_fps } => target_fps,
    };
    assert!(
        target_fps.is_finite() && target_fps > 0.0,
        "an Auto stream needs a finite, positive target rate"
    );
    let (w, h) = cfg.frame_size;
    let deadline_s = 1.0 / target_fps;
    let (cost, power) = (CostModel::calibrated(), PowerModel::zc702());
    let candidates = [Backend::Neon, Backend::Arm];
    // Deepest depth first. A geometry without even one level gets the
    // one-level plan's `BadLevels` error.
    let cap = cfg.levels.min(Dwt2d::max_levels(w, h)).max(1);
    for levels in (1..=cap).rev() {
        let plan = TransformPlan::dtcwt(w, h, levels)?;
        if let Some(p) = decide(
            &cost,
            &power,
            DEFAULT_RULE,
            &plan,
            &candidates,
            Objective::Energy,
            deadline_s,
        ) {
            return Ok((p.backend, levels, true));
        }
    }
    Ok((Backend::Neon, cfg.levels, false))
}

/// Fuses `frames` frames of a stream's deterministic source **serially**
/// (its own cameras and a pool-free [`FusionEngine::fuse`] per frame, no
/// frame driver) and returns the FNV-1a digest of the delivered pixel
/// stream — the bit-identity reference the fleet path must reproduce. The
/// stream runs at the operating point [`StreamManager::admit`] resolves.
///
/// `_columnar` is ignored; drop with the next benchmark PR (the benchmark
/// harness pins this signature).
///
/// # Errors
///
/// Same as [`StreamManager::admit`].
pub fn solo_digest(cfg: &StreamConfig, _columnar: bool, frames: usize) -> Result<u64, FusionError> {
    let (w, h) = cfg.frame_size;
    let (backend, levels, _) = operating_point(cfg)?;
    let mut engine = FusionEngine::new(levels)?;
    let scene = ScenePair::new(cfg.scene_seed);
    let mut web = WebCamera::new(scene.clone(), w, h);
    let mut thermal = ThermalCamera::new(scene, w, h);
    let mut visible = Frame::new(Image::zeros(0, 0), 0);
    let mut field = Frame::new(Image::zeros(0, 0), 0);
    let mut digest = FNV_OFFSET;
    for _ in 0..frames {
        thermal.capture_into(&mut field)?;
        web.capture_into(&mut visible);
        let out = engine.fuse(visible.image(), field.image(), backend)?;
        digest = fnv1a_image(digest, &out.image);
        engine.recycle(out);
    }
    Ok(digest)
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds an image's pixel bits into an FNV-1a 64 digest (allocation-free).
fn fnv1a_image(mut hash: u64, img: &Image) -> u64 {
    for &px in img.as_slice() {
        for byte in px.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Removes the earliest occurrence of `value` from the FIFO.
fn remove_first(fifo: &mut VecDeque<usize>, value: usize) {
    let pos = fifo
        .iter()
        .position(|&v| v == value)
        .expect("retired stream has a FIFO entry");
    fifo.remove(pos);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_shape_streams_share_one_plan() {
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        });
        for _ in 0..4 {
            mgr.admit(StreamConfig::default()).unwrap();
        }
        assert_eq!(mgr.plan_cache_entries(), 1);
        assert_eq!(mgr.plan_cache_hits(), 3);
        // A different geometry (or level count) builds a second plan.
        mgr.admit(StreamConfig {
            frame_size: (64, 48),
            ..StreamConfig::default()
        })
        .unwrap();
        mgr.admit(StreamConfig {
            levels: 2,
            ..StreamConfig::default()
        })
        .unwrap();
        assert_eq!(mgr.plan_cache_entries(), 3);
    }

    #[test]
    fn fleet_delivers_every_streams_frame_budget() {
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        });
        mgr.set_digests(true);
        for seed in 0..3 {
            mgr.admit(StreamConfig {
                scene_seed: 100 + seed,
                ..StreamConfig::default()
            })
            .unwrap();
        }
        let report = mgr.run(5).unwrap();
        assert_eq!(report.total_frames, 15);
        assert_eq!(report.total_drops, 0);
        assert!(report.aggregate_fps > 0.0);
        assert!(report.fairness > 0.0 && report.fairness <= 1.0);
        for (i, s) in report.per_stream.iter().enumerate() {
            assert_eq!(s.frames, 5, "stream {i}");
            assert_ne!(mgr.stream_digest(i), FNV_OFFSET, "stream {i} digested");
        }
        // Different seeds produce different content.
        assert_ne!(mgr.stream_digest(0), mgr.stream_digest(1));
    }

    #[test]
    fn equal_windows_report_equal_energy_bits() {
        // Every frame here has the same modeled energy, so every window
        // must report the first window's bits, however many windows ran
        // before it.
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        });
        for seed in 0..3 {
            mgr.admit(StreamConfig {
                frame_size: (48, 40),
                scene_seed: seed,
                ..StreamConfig::default()
            })
            .unwrap();
        }
        let bits = |r: &ServeReport| {
            let mut b = vec![r.energy_mj_per_frame.to_bits()];
            b.extend(r.per_stream.iter().map(|s| s.energy_mj_per_frame.to_bits()));
            b
        };
        let first = bits(&mgr.run(1).unwrap());
        for window in 1..20 {
            assert_eq!(bits(&mgr.run(1).unwrap()), first, "window {window}");
        }
    }

    #[test]
    fn auto_streams_take_admission_operating_points() {
        let mut mgr = StreamManager::new(FleetConfig::default());
        // Loose deadline: admission picks a deep, feasible CPU point.
        let relaxed = mgr
            .admit(StreamConfig {
                backend: StreamBackend::Auto { target_fps: 1.0 },
                ..StreamConfig::default()
            })
            .unwrap();
        assert!(matches!(
            mgr.stream_backend(relaxed),
            Backend::Arm | Backend::Neon
        ));
        assert!(mgr.stream_levels(relaxed) >= 1);
        // Impossible deadline: infeasible, falls back to NEON as requested.
        let strict = mgr
            .admit(StreamConfig {
                backend: StreamBackend::Auto { target_fps: 1e9 },
                ..StreamConfig::default()
            })
            .unwrap();
        assert_eq!(mgr.stream_backend(strict), Backend::Neon);
        let report = mgr.run(2).unwrap();
        assert_eq!(report.qos_infeasible, 1);
    }

    /// Admits one `Auto` stream and returns `(backend, levels, infeasible)`.
    fn admit_auto(
        (w, h): (usize, usize),
        levels: usize,
        target_fps: f64,
    ) -> Result<(Backend, usize, bool), FusionError> {
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 1,
            ..FleetConfig::default()
        });
        let id = mgr.admit(StreamConfig {
            frame_size: (w, h),
            levels,
            backend: StreamBackend::Auto { target_fps },
            ..StreamConfig::default()
        })?;
        Ok((
            mgr.stream_backend(id),
            mgr.stream_levels(id),
            mgr.qos_infeasible == 1,
        ))
    }

    /// `(seconds, millijoules)` of one CPU operating point under
    /// [`CostModel::predict`].
    fn cpu_point(dims: (usize, usize), levels: usize, backend: Backend) -> (f64, f64) {
        let plan = TransformPlan::dtcwt(dims.0, dims.1, levels).unwrap();
        let seconds = CostModel::calibrated()
            .predict(&plan, DEFAULT_RULE, backend)
            .total_seconds();
        let energy = PowerModel::zc702().energy_mj(backend.execution_mode(), seconds);
        (seconds, energy)
    }

    /// The fastest one-level CPU frame rate at a geometry.
    fn one_level_ceiling(dims: (usize, usize)) -> f64 {
        let fastest = cpu_point(dims, 1, Backend::Neon)
            .0
            .min(cpu_point(dims, 1, Backend::Arm).0);
        1.0 / fastest
    }

    #[test]
    fn relaxed_rate_buys_depth() {
        let ceiling = one_level_ceiling((88, 72));
        let (_, relaxed, infeasible) = admit_auto((88, 72), 5, ceiling / 10.0).unwrap();
        assert!(!infeasible);
        assert_eq!(relaxed, 5, "a relaxed rate affords the full depth");
        let (_, tight, infeasible) = admit_auto((88, 72), 5, ceiling * 0.95).unwrap();
        assert!(!infeasible);
        assert!(relaxed > tight, "{relaxed} vs {tight}");
    }

    #[test]
    fn admitted_points_meet_the_frame_period_at_minimum_energy() {
        let dims = (64, 48);
        let ceiling = one_level_ceiling(dims);
        let mut feasible = 0;
        for scale in [0.1, 0.3, 0.5, 0.7, 0.9, 1.1] {
            let fps = ceiling * scale;
            let (backend, levels, infeasible) = admit_auto(dims, 4, fps).unwrap();
            if infeasible {
                continue;
            }
            feasible += 1;
            let (seconds, energy) = cpu_point(dims, levels, backend);
            assert!(seconds <= 1.0 / fps, "{fps} fps: {backend:?} at {levels}");
            for other in [Backend::Neon, Backend::Arm] {
                let (s, e) = cpu_point(dims, levels, other);
                if s <= 1.0 / fps {
                    assert!(energy <= e, "{fps} fps: {backend:?} vs {other:?}");
                }
            }
        }
        assert_eq!(feasible, 5, "only the rate above the ceiling is infeasible");
    }

    #[test]
    fn auto_admission_rejects_geometry_without_a_level() {
        assert!(matches!(
            admit_auto((1, 1), 3, 10.0),
            Err(FusionError::Transform(
                wavefuse_dtcwt::DtcwtError::BadLevels {
                    requested: 1,
                    max_supported: 0
                }
            ))
        ));
    }

    #[test]
    fn governor_tracks_the_platform_ceiling() {
        let ceiling = one_level_ceiling((88, 72));
        // Just below the ceiling is feasible, just above is not.
        assert!(!admit_auto((88, 72), 3, ceiling * 0.95).unwrap().2);
        assert!(admit_auto((88, 72), 3, ceiling * 1.10).unwrap().2);
    }

    #[test]
    #[should_panic(expected = "finite, positive target rate")]
    fn auto_admission_rejects_nan_rate() {
        let _ = admit_auto((88, 72), 3, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite, positive target rate")]
    fn auto_admission_rejects_zero_rate() {
        let _ = admit_auto((88, 72), 3, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite, positive target rate")]
    fn auto_admission_rejects_negative_rate() {
        let _ = admit_auto((88, 72), 3, -30.0);
    }

    #[test]
    fn fleet_cap_drops_are_charged_to_the_owning_stream() {
        // Two streams at depth 2 with a fleet cap of 2: each round packs
        // two new frames on top of two pending, so the cap evicts the
        // globally oldest pending frames — and every delivery/drop must
        // land on the right stream's counters.
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 2,
            max_in_flight: Some(2),
            ..FleetConfig::default()
        });
        for seed in 0..2 {
            mgr.admit(StreamConfig {
                depth: 2,
                scene_seed: seed,
                ..StreamConfig::default()
            })
            .unwrap();
        }
        let rounds = 6;
        let report = mgr.run(rounds).unwrap();
        assert!(report.total_drops > 0, "cap must force drops");
        for s in &report.per_stream {
            assert_eq!(
                s.frames + s.drops,
                rounds as u64,
                "stream {}: every captured frame is delivered or dropped",
                s.stream
            );
        }
    }

    #[test]
    fn stream_labels_cap_cardinality() {
        assert_eq!(stream_label(0), "0");
        assert_eq!(stream_label(15), "15");
        assert_eq!(stream_label(16), "overflow");
        assert_eq!(stream_label(5000), "overflow");
    }

    #[test]
    fn mixed_geometry_fleet_runs() {
        let mut mgr = StreamManager::new(FleetConfig {
            threads: 2,
            ..FleetConfig::default()
        });
        for (i, size) in [(88, 72), (64, 48), (88, 72), (48, 40)].iter().enumerate() {
            mgr.admit(StreamConfig {
                frame_size: *size,
                scene_seed: i as u64,
                ..StreamConfig::default()
            })
            .unwrap();
        }
        let report = mgr.run(3).unwrap();
        assert_eq!(report.total_frames, 12);
        assert_eq!(report.plan_cache_entries, 3);
        assert_eq!(report.plan_cache_hits, 1);
    }
}
