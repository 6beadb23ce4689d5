//! Multi-stream fusion serving: N independent streams over one shared
//! worker fleet.
//!
//! The paper's platform fuses one visible+thermal pair per device; a
//! production deployment serves many concurrent streams. This module adds
//! that layer on top of [`FusionEngine`]: a [`StreamManager`] owns N
//! streams — each with its own geometry, decomposition depth, scene seed,
//! pipelining depth, and deadline — all multiplexed onto **one** shared
//! [`WorkerPool`], so the fleet scales with host cores instead of
//! spawning a pool (and paying its warm-up) per stream.
//!
//! Three mechanics make the sharing pay:
//!
//! * **Cross-stream batch packing.** Up to [`PACK_STREAMS`] streams'
//!   forward DT-CWTs are staged into the work-stealing ring *together*
//!   ([`FusionEngine::packed_forward_submit`]) before any are drained —
//!   16 frame pairs x 4 row-tree jobs fills the ring's 64 slots exactly —
//!   so workers always see a deep queue instead of draining one stream at
//!   a time. Harvests run in submission order (the ring's `drain_partial`
//!   contract), coordinated by the manager's global FIFO.
//! * **Shared plan cache.** [`TransformPlan`]s are cached fleet-wide,
//!   keyed by `(geometry, levels)`, and handed to same-shape engines via
//!   [`FusionEngine::adopt_plan`] — 64 identical streams build one plan,
//!   not 64.
//! * **Fleet-level QoS.** Admission picks each `Auto` stream's operating
//!   point (deepest feasible levels, then the minimum-energy CPU backend by
//!   [`decide`]), and the engine's oldest-frame retirement doubles as
//!   cross-stream backpressure: a fleet-wide in-flight cap drops the
//!   globally oldest pending frame, charged to its own stream's counters.
//!
//! Results are bit-identical to running each stream alone: packing changes
//! only job interleaving in the ring, and every stream's combo-order
//! accumulation still happens at its own retirement (see
//! [`solo_digest`] and `tests/serve_identity.rs`).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use wavefuse_dtcwt::{Dwt2d, Image, WorkerPool, BATCH_SLOTS, FORWARD_JOBS_PER_PAIR};
use wavefuse_power::PowerModel;
use wavefuse_trace::{LogHistogram, MetricsRegistry};
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

use crate::adaptive::{decide, Objective, DEFAULT_RULE};
use crate::backend::Backend;
use crate::cost::{CostModel, TransformPlan};
use crate::engine::{build_worker_pool, FusionEngine, PendingFusion};
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
    /// pending retirement at once (1 = retire before the next capture).
    pub depth: usize,
    /// Backend selection policy.
    pub backend: StreamBackend,
    /// Per-frame latency budget in seconds; slower retirements count as
    /// deadline misses. The default is the 30 fps camera period.
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

/// A frame pending retirement: the engine token plus its capture time
/// (the latency clock).
#[derive(Debug)]
struct PendingFrame {
    pending: PendingFusion,
    captured: Instant,
}

/// One admitted stream: its engine (sharing the fleet pool), deterministic
/// cameras, pending-frame queue, and per-stream accounting.
#[derive(Debug)]
struct Stream {
    engine: FusionEngine,
    backend: Backend,
    levels: usize,
    depth: usize,
    deadline_s: f64,
    frame_size: (usize, usize),
    web: WebCamera,
    thermal: ThermalCamera,
    visible: Frame,
    field: Frame,
    captured: Instant,
    pending: VecDeque<PendingFrame>,
    latency: LogHistogram,
    frames: u64,
    drops: u64,
    deadline_misses: u64,
    energy_mj: f64,
    digest: u64,
}

impl Stream {
    /// Captures the next visible/thermal pair into the reusable frame
    /// slots and starts the frame's latency clock.
    fn capture(&mut self) -> Result<(), FusionError> {
        self.thermal.capture_into(&mut self.field)?;
        self.web.capture_into(&mut self.visible);
        self.captured = Instant::now();
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
    /// Delivered frames that missed the stream's deadline.
    pub deadline_misses: u64,
    /// Delivered frames per second over the window's wall clock.
    pub fps: f64,
    /// Median capture-to-retire latency, seconds (cumulative since the
    /// last [`StreamManager::reset_latency_stats`]).
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
    energy_mj: f64,
}

/// The multi-tenant serving layer: owns the shared [`WorkerPool`], the
/// fleet plan cache, the admitted streams, and the cross-stream packing /
/// retirement protocol. See the module docs for the architecture.
#[derive(Debug)]
pub struct StreamManager {
    pool: Arc<WorkerPool>,
    threads: usize,
    max_in_flight: Option<usize>,
    streams: Vec<Stream>,
    /// Fleet plan cache: `(levels, plan)`, matched on `frame_dims()` too.
    plans: Vec<(usize, Arc<TransformPlan>)>,
    plan_hits: u64,
    qos_infeasible: u64,
    /// Stream ids of pending frames in pool-submission order — the global
    /// retirement FIFO backpressure drops pop from.
    retire_fifo: VecDeque<usize>,
    /// Stream ids whose newest inverse batch is still (unstashed) in the
    /// shared ring, in submission order — the stash walk empties this
    /// before each packed chunk.
    unstashed: VecDeque<usize>,
    in_flight: usize,
    digests: bool,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl StreamManager {
    /// Builds a manager with its shared worker fleet (no streams yet).
    pub fn new(fleet: FleetConfig) -> Self {
        let threads = fleet.threads.max(1);
        StreamManager {
            pool: Arc::new(build_worker_pool(threads, true)),
            threads,
            max_in_flight: fleet.max_in_flight,
            streams: Vec::new(),
            plans: Vec::new(),
            plan_hits: 0,
            qos_infeasible: 0,
            retire_fifo: VecDeque::new(),
            unstashed: VecDeque::new(),
            in_flight: 0,
            digests: false,
            telemetry: None,
        }
    }

    /// Enables per-stream output digesting: every delivered frame's pixel
    /// bits are folded into the stream's FNV-1a digest (see
    /// [`StreamManager::stream_digest`]). Off by default — hashing every
    /// output is bit-identity-test machinery, not serving work.
    pub fn set_digests(&mut self, enabled: bool) {
        self.digests = enabled;
    }

    /// Attaches a metrics registry: per-stream labeled frame/drop counters
    /// and latency histograms are recorded at each retirement. Stream
    /// labels come from [`stream_label`] (cardinality-capped), so streams
    /// that share a label add into one series. The streams' engines stay
    /// un-instrumented — the shared pool's counters are fleet-global and
    /// per-engine delta reporting would double-count them.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        telemetry.describe(
            "wavefuse_stream_frames_total",
            "Frames delivered, by serving stream",
        );
        telemetry.describe(
            "wavefuse_stream_drops_total",
            "Frames dropped by fleet backpressure, by serving stream",
        );
        telemetry.describe(
            "wavefuse_frame_latency_seconds",
            "Capture-to-retire frame latency",
        );
        self.telemetry = Some(telemetry);
    }

    /// Admits one stream into the fleet: resolves its operating point
    /// ([`decide`] for `Auto`), builds its engine on the shared pool,
    /// installs the fleet-cached plan, pre-sizes every steady-state
    /// buffer, and constructs its deterministic cameras. Returns the
    /// stream id.
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
        let (w, h) = cfg.frame_size;
        let (backend, levels, feasible) = operating_point(&cfg)?;
        if !feasible {
            self.qos_infeasible += 1;
        }
        let depth = cfg.depth.max(1);
        let mut engine = FusionEngine::new(levels)?;
        engine.set_shared_pool(Arc::clone(&self.pool));
        engine.set_pipeline_depth(depth);
        engine.adopt_plan(self.fleet_plan(w, h, levels)?);
        engine.reserve_frame_buffers(w, h)?;
        let scene = ScenePair::new(cfg.scene_seed);
        let mut stream = Stream {
            engine,
            backend,
            levels,
            depth,
            deadline_s: cfg.deadline_s,
            frame_size: (w, h),
            web: WebCamera::new(scene.clone(), w, h),
            thermal: ThermalCamera::new(scene, w, h),
            visible: Frame::new(Image::zeros(0, 0), 0),
            field: Frame::new(Image::zeros(0, 0), 0),
            captured: Instant::now(),
            pending: VecDeque::with_capacity(depth),
            latency: LogHistogram::with_defaults(),
            frames: 0,
            drops: 0,
            deadline_misses: 0,
            energy_mj: 0.0,
            digest: FNV_OFFSET,
        };
        // Warm the capture path so the first packed round is already in
        // the zero-allocation steady state, then rebuild the cameras so
        // the delivered content sequence still starts at frame 0 (the
        // fleet must stay bit-identical to a solo run — `solo_digest`).
        stream.capture()?;
        let scene = ScenePair::new(cfg.scene_seed);
        stream.web = WebCamera::new(scene.clone(), w, h);
        stream.thermal = ThermalCamera::new(scene, w, h);
        let id = self.streams.len();
        self.streams.push(stream);
        self.retire_fifo.reserve(depth);
        self.unstashed.reserve(depth);
        Ok(id)
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

    /// Worker threads of the shared pool.
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
        self.streams[stream].frames
    }

    /// Frames dropped from a stream by fleet backpressure.
    pub fn stream_drops(&self, stream: usize) -> u64 {
        self.streams[stream].drops
    }

    /// The backend a stream was admitted on.
    pub fn stream_backend(&self, stream: usize) -> Backend {
        self.streams[stream].backend
    }

    /// The decomposition levels a stream actually runs.
    pub fn stream_levels(&self, stream: usize) -> usize {
        self.streams[stream].levels
    }

    /// Distinct plans in the fleet cache.
    pub fn plan_cache_entries(&self) -> usize {
        self.plans.len()
    }

    /// Admissions served from the fleet plan cache.
    pub fn plan_cache_hits(&self) -> u64 {
        self.plan_hits
    }

    /// Replaces every stream's latency histogram (they are cumulative and
    /// cannot be snapshotted differentially) — call between a warm-up
    /// window and the measured window.
    pub fn reset_latency_stats(&mut self) {
        for s in &mut self.streams {
            s.latency = LogHistogram::with_defaults();
        }
    }

    /// Drives every stream for `frames_per_stream` rounds (one capture per
    /// stream per round), retires everything still pending, and reports
    /// the window: aggregate and per-stream throughput, latency quantiles,
    /// fairness, energy, drops, and plan-cache effectiveness.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error (none occur for supported
    /// geometries).
    pub fn run(&mut self, frames_per_stream: usize) -> Result<ServeReport, FusionError> {
        let before: Vec<StreamSnapshot> = self
            .streams
            .iter()
            .map(|s| StreamSnapshot {
                frames: s.frames,
                drops: s.drops,
                deadline_misses: s.deadline_misses,
                energy_mj: s.energy_mj,
            })
            .collect();
        let t0 = Instant::now();
        for _ in 0..frames_per_stream {
            self.round()?;
        }
        self.drain()?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(self.report(wall_s, &before))
    }

    /// One packed round: every stream captures and fuses one frame, packed
    /// into the shared ring in chunks of [`PACK_STREAMS`].
    fn round(&mut self) -> Result<(), FusionError> {
        let n = self.streams.len();
        let mut start = 0;
        while start < n {
            let end = (start + PACK_STREAMS).min(n);
            // Empty the shared ring: stash every in-flight inverse batch,
            // walking the global FIFO so `drain_partial`'s oldest-first
            // harvests land in the right engines' slots.
            self.stash_all();
            // Phase A — pack the chunk: one capture + four forward jobs
            // per stream, no drains, so the ring fills with up to 64
            // cross-stream jobs. Backpressure retires/drops first.
            for i in start..end {
                self.admit_frame(i)?;
            }
            // Phase B — collect in the same order: each stream harvests
            // its own (oldest-remaining) forwards, fuses, and leaves its
            // four inverse jobs in flight behind the later streams'
            // forwards.
            for i in start..end {
                let pending = self.streams[i].engine.packed_forward_finish()?;
                let captured = self.streams[i].captured;
                self.streams[i]
                    .pending
                    .push_back(PendingFrame { pending, captured });
                self.retire_fifo.push_back(i);
                self.unstashed.push_back(i);
                self.in_flight += 1;
            }
            start = end;
        }
        Ok(())
    }

    /// Retires every pending frame (deliveries, not drops), leaving the
    /// ring and every stream idle.
    fn drain(&mut self) -> Result<(), FusionError> {
        self.stash_all();
        while let Some(&i) = self.retire_fifo.front() {
            self.retire(i, false)?;
        }
        Ok(())
    }

    /// Harvests every unstashed inverse batch from the shared ring into
    /// its engine's slot stash, in global submission order — the only
    /// order `drain_partial`'s oldest-first contract allows.
    fn stash_all(&mut self) {
        while let Some(i) = self.unstashed.pop_front() {
            let stashed = self.streams[i].engine.stash_oldest_in_flight();
            debug_assert!(stashed, "FIFO entry without an unstashed batch");
        }
    }

    /// Backpressure + capture + packed submit for one stream's next frame.
    fn admit_frame(&mut self, i: usize) -> Result<(), FusionError> {
        // Per-stream depth: retire this stream's oldest before exceeding
        // its pipelining depth.
        while self.streams[i].pending.len() >= self.streams[i].depth {
            self.retire(i, false)?;
        }
        // Fleet cap: drop the globally oldest pending frame, whichever
        // stream owns it (cross-stream backpressure).
        while let Some(cap) = self.max_in_flight {
            if self.in_flight < cap {
                break;
            }
            let victim = *self
                .retire_fifo
                .front()
                .expect("frames in flight imply FIFO entries");
            self.retire(victim, true)?;
        }
        let st = &mut self.streams[i];
        st.capture()?;
        let backend = st.backend;
        st.engine
            .packed_forward_submit(st.visible.image(), st.field.image(), backend)
    }

    /// Retires stream `i`'s oldest pending frame. `dropped` frames are
    /// discarded and charged to the stream's drop counter instead of its
    /// delivery stats. The frame must already be stashed (the pool is not
    /// touched), so retirement order across streams is free.
    fn retire(&mut self, i: usize, dropped: bool) -> Result<(), FusionError> {
        let pf = self.streams[i]
            .pending
            .pop_front()
            .expect("retire without a pending frame");
        remove_first(&mut self.retire_fifo, i);
        self.in_flight -= 1;
        let st = &mut self.streams[i];
        let out = st.engine.fuse_finish(pf.pending)?;
        let latency_s = pf.captured.elapsed().as_secs_f64();
        if dropped {
            st.drops += 1;
        } else {
            st.frames += 1;
            st.energy_mj += out.energy_mj;
            if latency_s > st.deadline_s {
                st.deadline_misses += 1;
            }
            st.latency.observe(latency_s);
            if self.digests {
                st.digest = fnv1a_image(st.digest, &out.image);
            }
        }
        st.engine.recycle(out);
        if let Some(m) = &self.telemetry {
            let label = stream_label(i);
            if dropped {
                m.counter_add("wavefuse_stream_drops_total", &[("stream", label)], 1.0);
            } else {
                m.counter_add("wavefuse_stream_frames_total", &[("stream", label)], 1.0);
                m.observe(
                    "wavefuse_frame_latency_seconds",
                    &[("stream", label)],
                    latency_s,
                );
            }
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
            let frames = s.frames - before[i].frames;
            let drops = s.drops - before[i].drops;
            let energy = s.energy_mj - before[i].energy_mj;
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
                backend: s.backend.label(),
                levels: s.levels,
                depth: s.depth,
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
/// (no pool, depth 1) and returns the FNV-1a digest of the delivered pixel
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
