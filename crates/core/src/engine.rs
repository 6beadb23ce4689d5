//! The fusion engine: decompose → fuse → reconstruct on a chosen backend.

use std::collections::VecDeque;
use std::sync::Arc;

use wavefuse_dtcwt::{
    ComboStore, CwtPyramid, Dtcwt, FilterKernel, Image, JobOutcome, PoolHandle, PoolStats,
    ScalarKernel, Scratch, WorkerPool, WorkerSchedStats,
};
use wavefuse_power::PowerModel;
use wavefuse_simd::SimdKernel;
use wavefuse_trace::{FrameRecord, MetricsRegistry};
use wavefuse_zynq::FpgaKernel;

use crate::backend::Backend;
use crate::cost::{CostModel, Direction, TransformPlan};
use crate::rules::{fuse_pyramids_with_kernel, FusionRule, FusionScratch, LowpassRule};
use crate::FusionError;

/// Modeled time of one fused frame, split into the paper's Fig. 2 phases.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    /// Capture/scale of both inputs (sensor hand-off, color conversion,
    /// geometry scaling — before the transforms start).
    pub capture_s: f64,
    /// Forward DT-CWT of both inputs.
    pub forward_s: f64,
    /// Coefficient fusion (always on the PS).
    pub fusion_s: f64,
    /// Inverse DT-CWT of the fused pyramid.
    pub inverse_s: f64,
    /// Residual display/bookkeeping overhead (everything not attributable
    /// to capture or the transform phases).
    pub overhead_s: f64,
}

impl PhaseTiming {
    /// Sum of all phases, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.capture_s + self.forward_s + self.fusion_s + self.inverse_s + self.overhead_s
    }

    /// Adds another frame's phases into this accumulator.
    pub fn accumulate(&mut self, other: &PhaseTiming) {
        self.capture_s += other.capture_s;
        self.forward_s += other.forward_s;
        self.fusion_s += other.fusion_s;
        self.inverse_s += other.inverse_s;
        self.overhead_s += other.overhead_s;
    }
}

/// Result of fusing one frame pair.
#[derive(Debug, Clone)]
pub struct FusionOutput {
    /// The fused frame.
    pub image: Image,
    /// Modeled per-phase time.
    pub timing: PhaseTiming,
    /// Backend that executed the transforms.
    pub backend: Backend,
    /// Modeled energy, millijoules.
    pub energy_mj: f64,
    /// Seconds the PL engine was busy this frame (0 on CPU-only backends);
    /// the flight recorder charges the power model's PL increment over it.
    pub pl_busy_s: f64,
    /// Cost model's predicted total frame seconds for this backend and
    /// geometry ([`CostModel::predict`], the prediction every backend
    /// decision ranks by), recorded next to the measured `timing` so
    /// prediction error is visible per frame.
    pub predicted_s: f64,
}

/// An in-flight fusion started by [`FusionEngine::fuse_submit`].
///
/// On the pooled CPU backends the inverse transform is still running on the
/// workers while the caller holds this — overlap capture/render of the next
/// frame with it, then call [`FusionEngine::fuse_finish`] to collect the
/// result. On the serial and FPGA backends everything already completed
/// inside `fuse_submit` and `fuse_finish` only does accounting.
#[derive(Debug)]
pub struct PendingFusion {
    /// Output buffer (the fused image once the inverse lands).
    image: Image,
    backend: Backend,
    dims: (usize, usize),
    /// Whether four inverse combo jobs are still in flight on the pool.
    inverse_in_flight: bool,
    /// Ring slot owning this frame's fused pyramid and inverse buffers
    /// (pooled CPU path only — see [`FusionEngine::set_pipeline_depth`]).
    slot: Option<usize>,
    /// Modeled forward seconds (both inputs).
    forward_s: f64,
    /// Modeled inverse seconds.
    inverse_s: f64,
    /// Measured wall-clock phase seconds so far.
    wall_forward_s: f64,
    wall_fusion_s: f64,
    wall_inverse_s: f64,
    /// PL-busy seconds accumulated across the frame's transforms.
    pl_busy_s: f64,
}

impl PendingFusion {
    /// Whether the inverse transform is still running on the worker pool —
    /// i.e. whether there is real work to overlap with.
    pub fn inverse_in_flight(&self) -> bool {
        self.inverse_in_flight
    }

    /// The backend executing this frame.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The engine ring slot this frame's in-flight state lives in (`None`
    /// on the serial and FPGA paths, which complete inside
    /// [`FusionEngine::fuse_submit`]).
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }
}

/// One ring slot of the depth-k frame pipeline (see
/// [`FusionEngine::set_pipeline_depth`]). Slots never alias: each owns its
/// frame's fused pyramid, inverse combo buffers, and harvested-outcome
/// stash, so several frames' inverse batches can be outstanding on the
/// worker pool concurrently.
#[derive(Debug)]
struct FrameSlot {
    /// This frame's fused pyramid, `Arc`-shared with the workers while its
    /// inverse batch is in flight (exclusive again once harvested).
    fused: Arc<CwtPyramid>,
    /// Per-combo reconstruction buffers of this slot's pooled inverse.
    inv_bufs: Vec<Image>,
    /// Outcomes harvested ahead of this frame's `fuse_finish` (a later
    /// submit clears the pool's ring prefix before collecting its own
    /// forward jobs), awaiting combo-order accumulation.
    stash: Vec<JobOutcome>,
    /// Whether `stash` holds this slot's four harvested outcomes.
    stashed: bool,
    /// Whether this slot's inverse batch was submitted and not yet retired.
    busy: bool,
}

impl FrameSlot {
    fn new() -> Self {
        FrameSlot {
            fused: Arc::new(CwtPyramid::empty()),
            inv_bufs: Vec::new(),
            stash: Vec::with_capacity(INVERSE_BATCH_JOBS),
            stashed: false,
            busy: false,
        }
    }
}

/// The complete fusion engine.
///
/// Owns one kernel instance per backend (so the FPGA engine's coefficient
/// registers stay warm across frames, as on the real platform), the
/// transform configuration, the fusion rule, the calibrated models — and
/// the steady-state machinery of the zero-allocation hot path: scratch
/// arenas, pyramid/image slots ping-ponged across frames, a cached
/// [`TransformPlan`] per frame geometry, an output buffer pool, and an
/// optional persistent [`WorkerPool`] (see [`FusionEngine::set_threads`]).
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct FusionEngine {
    dtcwt: Arc<Dtcwt>,
    levels: usize,
    rule: FusionRule,
    lowpass_rule: LowpassRule,
    cost: CostModel,
    power: PowerModel,
    kernels: Kernels,
    telemetry: Option<Arc<MetricsRegistry>>,
    // --- steady-state reusable transform state (the zero-alloc hot path) ---
    /// Per-geometry cost plans, so `fuse` never rebuilds op lists per
    /// frame. Shared (`Arc`) so a fleet owner can hand the same plan to
    /// every same-geometry engine (see [`FusionEngine::adopt_plan`]).
    plans: Vec<Arc<TransformPlan>>,
    /// Serial-path transform scratch (workers own their own).
    scratch: Scratch,
    /// Per-combo forward output staging (input `a`, and the serial paths).
    combos: ComboStore,
    /// Second combo store so both inputs' forwards can be in flight at once
    /// on the pool (input `b`).
    combos_b: ComboStore,
    /// Forward pyramids of the two inputs (the dispatcher fuses them).
    pyr_a: CwtPyramid,
    pyr_b: CwtPyramid,
    /// Depth-k in-flight frame ring: one slot per frame whose inverse may
    /// be outstanding on the pool (a single slot at the default depth 1,
    /// reproducing the classic submit/finish overlap).
    slots: Vec<FrameSlot>,
    /// Busy slot indices, oldest submission first (in-order retirement).
    inflight: VecDeque<usize>,
    /// Next ring slot to submit into (round-robin; always idle thanks to
    /// the ring-full backpressure in [`FusionEngine::fuse_submit`]).
    next_slot: usize,
    /// Configured pipelining depth = ring size, `>= 1`.
    depth: usize,
    /// Fused-pyramid staging of the serial CPU and FPGA paths, which
    /// complete inside `fuse_submit` (pooled frames stage in their ring
    /// slot's pyramid instead).
    fused_serial: CwtPyramid,
    /// Input image slots for the pooled forward (same `Arc` discipline).
    img_a: Arc<Image>,
    img_b: Arc<Image>,
    /// Fusion-rule energy-map scratch.
    fusion_scratch: FusionScratch,
    /// Worker outcome staging (drained and reused every dispatch).
    outcomes: Vec<JobOutcome>,
    /// Pool the fused output images are drawn from; callers recycle via
    /// [`FusionEngine::recycle`] to keep the steady state allocation-free.
    out_pool: PoolHandle,
    /// Pool counters already reported to telemetry (delta tracking).
    reported_pool: PoolStats,
    /// Transpose-bytes counter value already reported (delta tracking, same
    /// scheme as the pool counters).
    reported_transpose: u64,
    /// Per-worker scheduler counters already reported to telemetry (delta
    /// tracking; sized to the pool's thread count).
    reported_sched: Vec<WorkerSchedStats>,
    /// Persistent transform workers; `None` runs the serial in-place path.
    /// Shared (`Arc`) so a fleet of engines can multiplex one pool — see
    /// [`FusionEngine::set_shared_pool`].
    pool: Option<Arc<WorkerPool>>,
    /// In-progress packed forward parked between
    /// [`FusionEngine::packed_forward_submit`] and
    /// [`FusionEngine::packed_forward_finish`].
    packed: Option<PackedForward>,
    /// Cumulative measured wall-clock seconds per phase (host time, not the
    /// modeled platform clock) — see [`FusionEngine::wall_phase_totals`].
    wall: PhaseTiming,
}

/// Per-frame state parked between [`FusionEngine::packed_forward_submit`]
/// and [`FusionEngine::packed_forward_finish`] while the eight forward
/// jobs are in flight on the shared pool.
#[derive(Debug)]
struct PackedForward {
    backend: Backend,
    dims: (usize, usize),
    submitted: std::time::Instant,
}

/// The engine's three backend kernels, grouped so the one a frame runs on
/// can be borrowed by [`Backend`] while other engine fields stay free.
#[derive(Debug)]
struct Kernels {
    scalar: ScalarKernel,
    simd: SimdKernel,
    fpga: FpgaKernel,
}

impl Kernels {
    fn get(&mut self, backend: Backend) -> &mut dyn FilterKernel {
        match backend {
            Backend::Arm => &mut self.scalar,
            Backend::Neon => &mut self.simd,
            Backend::Fpga => &mut self.fpga,
        }
    }

    /// Zeroes the cycle ledger `backend` reads its modeled time from (the
    /// FPGA kernel; the CPU backends are priced by the plan).
    fn restart_ledger(&mut self, backend: Backend) {
        if backend == Backend::Fpga {
            self.fpga.reset_ledger();
        }
    }
}

/// Worker kernel-slot index of the scalar (ARM) kernel.
const WORKER_SLOT_SCALAR: usize = 0;
/// Worker kernel-slot index of the SIMD (NEON) kernel.
const WORKER_SLOT_SIMD: usize = 1;
/// Maximum cached cost plans (see [`FusionEngine::ensure_plan`]).
const PLAN_CACHE_SLOTS: usize = 8;
/// Jobs per pooled inverse batch: one per tree combination.
const INVERSE_BATCH_JOBS: usize = 4;

/// The five phase names, in timeline order, as they appear in the flight
/// record's phase spans and the `phase` metric label.
pub const PHASE_NAMES: [&str; 5] = ["capture", "forward", "fusion", "inverse", "overhead"];

impl PhaseTiming {
    /// `(phase name, seconds)` pairs in [`PHASE_NAMES`] order.
    pub fn phases(&self) -> [(&'static str, f64); 5] {
        [
            ("capture", self.capture_s),
            ("forward", self.forward_s),
            ("fusion", self.fusion_s),
            ("inverse", self.inverse_s),
            ("overhead", self.overhead_s),
        ]
    }
}

impl FusionEngine {
    /// Creates an engine with the standard configuration: `levels`-deep
    /// DT-CWT, 3x3 window-energy detail rule, averaged lowpass.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] for `levels == 0`.
    pub fn new(levels: usize) -> Result<Self, FusionError> {
        FusionEngine::with_rules(
            levels,
            FusionRule::WindowEnergy { radius: 1 },
            LowpassRule::Average,
        )
    }

    /// Creates an engine with explicit fusion rules.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] for `levels == 0`.
    pub fn with_rules(
        levels: usize,
        rule: FusionRule,
        lowpass_rule: LowpassRule,
    ) -> Result<Self, FusionError> {
        Ok(FusionEngine {
            dtcwt: Arc::new(Dtcwt::new(levels)?),
            levels,
            rule,
            lowpass_rule,
            cost: CostModel::calibrated(),
            power: PowerModel::zc702(),
            kernels: Kernels {
                scalar: ScalarKernel::new(),
                simd: SimdKernel::new(),
                fpga: FpgaKernel::new(),
            },
            telemetry: None,
            plans: Vec::new(),
            scratch: Scratch::new(),
            combos: ComboStore::new(),
            combos_b: ComboStore::new(),
            pyr_a: CwtPyramid::empty(),
            pyr_b: CwtPyramid::empty(),
            slots: vec![FrameSlot::new()],
            inflight: VecDeque::with_capacity(1),
            next_slot: 0,
            depth: 1,
            fused_serial: CwtPyramid::empty(),
            img_a: Arc::new(Image::zeros(0, 0)),
            img_b: Arc::new(Image::zeros(0, 0)),
            fusion_scratch: FusionScratch::new(),
            outcomes: Vec::with_capacity(8),
            out_pool: PoolHandle::new(),
            reported_pool: PoolStats::default(),
            reported_transpose: wavefuse_dtcwt::transpose_bytes_total(),
            reported_sched: Vec::new(),
            pool: None,
            packed: None,
            wall: PhaseTiming::default(),
        })
    }

    /// Sets the number of transform worker threads. `threads <= 1` runs the
    /// transforms serially on the caller's thread (the default); larger
    /// values build a private [`WorkerPool`] (see [`build_worker_pool`])
    /// and attach it like [`FusionEngine::set_shared_pool`], fanning the
    /// four tree combinations of every CPU-backend transform out across
    /// workers. Fusion always runs on the dispatcher. The FPGA backend
    /// always runs serially (the modeled device is a single engine).
    pub fn set_threads(&mut self, threads: usize) {
        if threads <= 1 {
            self.recover_in_flight();
            self.pool = None;
            self.reported_sched.clear();
        } else {
            self.set_shared_pool(Arc::new(build_worker_pool(threads, true)));
        }
    }

    /// Sets the detail-coefficient fusion rule for subsequent frames.
    /// In-flight frames are abandoned first (their fused pyramids were
    /// produced under the old rule, so letting them retire would mix
    /// rules within one benchmark window).
    pub fn set_rule(&mut self, rule: FusionRule) {
        self.recover_in_flight();
        self.rule = rule;
    }

    /// Attaches a [`WorkerPool`] (see [`build_worker_pool`]), which may be
    /// shared by a fleet of engines. The engine multiplexes its forward and
    /// inverse combo batches onto the pool's ring; fusion runs on the
    /// dispatcher between them, so the ring only ever carries transform
    /// jobs and a shared ring behaves exactly like a private one.
    ///
    /// Call this before any frames are in flight (at stream admission);
    /// attaching mid-flight abandons in-flight frames like
    /// [`FusionEngine::set_threads`], which on a *shared* ring would
    /// harvest other engines' jobs — the fleet owner must retire every
    /// engine's in-flight frames first.
    pub fn set_shared_pool(&mut self, pool: Arc<WorkerPool>) {
        self.recover_in_flight();
        self.reported_sched.clear();
        self.reported_sched
            .resize(pool.threads(), WorkerSchedStats::default());
        self.pool = Some(pool);
    }

    /// Number of transform threads (1 when running serially).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// Sets the frame-pipelining depth: how many frames may have their
    /// inverse transform outstanding on the worker pool at once. Depth 1
    /// (the default) is the classic single-frame submit/finish overlap;
    /// larger depths give every in-flight frame a private ring slot (fused
    /// pyramid, inverse buffers, outcome stash), so `fuse_submit` of frame
    /// N+k-1 runs while frames N..N+k-2 are still synthesizing. Pooled
    /// frames must retire in submission order; submitting onto a full ring
    /// abandons the oldest unfinished frame (backpressure a well-behaved
    /// caller never triggers). Serial and FPGA frames complete inside
    /// `fuse_submit` regardless of depth. Results are bit-identical
    /// at every depth — combos are still accumulated in combo order at
    /// each frame's own `fuse_finish`.
    ///
    /// Any currently in-flight frames are abandoned, as with
    /// [`FusionEngine::set_threads`].
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        let depth = depth.max(1);
        self.recover_in_flight();
        self.slots.resize_with(depth, FrameSlot::new);
        self.inflight.reserve(depth);
        self.next_slot = 0;
        self.depth = depth;
    }

    /// The configured frame-pipelining depth.
    pub fn pipeline_depth(&self) -> usize {
        self.depth
    }

    /// Pre-sizes every reconfigure-dependent buffer for `width` x `height`
    /// frames, so first frames after a resolution/depth change don't pay
    /// one-time allocations (and `pool_misses` don't spike): the plan
    /// cache, each ring slot's four inverse combo buffers, both forward
    /// combo stores, and `depth + 1` pooled output frames (the frames in
    /// flight plus the one being retired). The output-pool reservation is
    /// O(ring slots), not O(levels x buffers) — per-level staging lives in
    /// the scratch arenas and combo stores, which are grown in place here,
    /// never drawn from the pool.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Transform`] if the geometry cannot support
    /// the configured decomposition depth.
    pub fn reserve_frame_buffers(
        &mut self,
        width: usize,
        height: usize,
    ) -> Result<(), FusionError> {
        self.ensure_plan(width, height)?;
        for slot in &mut self.slots {
            while slot.inv_bufs.len() < INVERSE_BATCH_JOBS {
                slot.inv_bufs.push(Image::zeros(0, 0));
            }
            for buf in &mut slot.inv_bufs {
                if buf.width() * buf.height() < width * height {
                    *buf = Image::zeros(width, height);
                }
            }
        }
        self.combos.reserve(width, height, self.levels);
        self.combos_b.reserve(width, height, self.levels);
        self.out_pool.preallocate(width, height, self.depth + 1);
        Ok(())
    }

    /// Name of the filter kernel a backend executes with.
    pub fn kernel_name(&self, backend: Backend) -> &'static str {
        match backend {
            Backend::Arm => self.kernels.scalar.name(),
            Backend::Neon => self.kernels.simd.name(),
            Backend::Fpga => self.kernels.fpga.name(),
        }
    }

    /// The frame buffer pool fused output images are drawn from. Release
    /// buffers back (or use [`FusionEngine::recycle`]) to keep the steady
    /// state allocation-free; its [`PoolStats`] feed the
    /// `wavefuse_pool_*` metrics when telemetry is attached.
    pub fn buffer_pool(&self) -> &PoolHandle {
        &self.out_pool
    }

    /// Returns a fused output's image buffer to the engine's pool so the
    /// next frame can reuse it instead of allocating.
    pub fn recycle(&self, output: FusionOutput) {
        self.out_pool.release(output.image);
    }

    /// Attaches a metrics registry: every subsequent [`FusionEngine::fuse`]
    /// records phase-latency histograms and energy, pool and scheduler
    /// counters. The registry is propagated to the FPGA kernel for
    /// DMA/cycle accounting.
    pub fn set_telemetry(&mut self, telemetry: Arc<MetricsRegistry>) {
        telemetry.describe(
            "wavefuse_phase_seconds",
            "Modeled per-phase latency of one fused frame, seconds",
        );
        telemetry.describe(
            "wavefuse_energy_millijoules_total",
            "Modeled energy spent fusing frames, millijoules",
        );
        telemetry.describe(
            "wavefuse_pool_hits_total",
            "Frame-buffer acquisitions served from the pool free list",
        );
        telemetry.describe(
            "wavefuse_pool_misses_total",
            "Frame-buffer acquisitions that allocated a fresh buffer",
        );
        telemetry.describe(
            "wavefuse_pool_bytes_allocated_total",
            "Bytes allocated by frame-buffer pool misses",
        );
        telemetry.describe(
            "wavefuse_transpose_bytes",
            "Bytes copied by Image::transpose_into staging (zero in steady \
             state on the columnar SIMD backends)",
        );
        telemetry.describe(
            "wavefuse_batches_claimed_total",
            "Work-stealing claim chunks taken from the shared cursor, per worker",
        );
        telemetry.describe(
            "wavefuse_steals_total",
            "Claims that continued a range another worker had been running, \
             per worker",
        );
        telemetry.describe(
            "wavefuse_worker_parked_seconds_total",
            "Seconds workers spent parked on the idle condvar, per worker",
        );
        self.kernels.fpga.set_telemetry(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.telemetry.as_ref()
    }

    /// Decomposition depth.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The detail fusion rule.
    pub fn rule(&self) -> FusionRule {
        self.rule
    }

    /// The platform power model in use.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The DT-CWT this engine runs.
    pub fn transform(&self) -> &Dtcwt {
        &self.dtcwt
    }

    /// Caches the cost plan for a frame geometry (validating it), so the
    /// hot path never rebuilds per-frame op lists.
    fn ensure_plan(&mut self, w: usize, h: usize) -> Result<(), FusionError> {
        if self.plans.iter().any(|p| p.frame_dims() == (w, h)) {
            return Ok(());
        }
        let plan = TransformPlan::dtcwt(w, h, self.levels)?;
        self.adopt_plan(Arc::new(plan));
        Ok(())
    }

    /// Installs an externally built (typically fleet-shared) cost plan into
    /// the engine's plan cache, so same-geometry engines in a fleet share
    /// one plan instead of each rebuilding it. A plan for the same geometry
    /// already in the cache is kept (first wins); the cache is bounded,
    /// evicting its oldest plan when full, as for plans the engine builds.
    pub fn adopt_plan(&mut self, plan: Arc<TransformPlan>) {
        if self
            .plans
            .iter()
            .any(|p| p.frame_dims() == plan.frame_dims())
        {
            return;
        }
        // Bound the cache so engines fed many geometries (size sweeps)
        // don't grow it without limit.
        if self.plans.len() == PLAN_CACHE_SLOTS {
            self.plans.remove(0);
        }
        self.plans.push(plan);
    }

    fn cached_plan(&self, w: usize, h: usize) -> &TransformPlan {
        self.plans
            .iter()
            .find(|p| p.frame_dims() == (w, h))
            .expect("ensure_plan caches before use")
            .as_ref()
    }

    /// Fuses one frame pair on the given backend.
    ///
    /// Functionally, all backends produce the same fused image (within
    /// `f32` rounding); they differ in the modeled time and energy.
    ///
    /// Equivalent to [`FusionEngine::fuse_submit`] immediately followed by
    /// [`FusionEngine::fuse_finish`] (no overlap).
    ///
    /// # Errors
    ///
    /// * [`FusionError::DimensionMismatch`] if the frames differ in size.
    /// * [`FusionError::Transform`] if the frames cannot support the
    ///   configured decomposition depth.
    pub fn fuse(
        &mut self,
        a: &Image,
        b: &Image,
        backend: Backend,
    ) -> Result<FusionOutput, FusionError> {
        let pending = self.fuse_submit(a, b, backend)?;
        self.fuse_finish(pending)
    }

    /// Starts fusing one frame pair, returning once all work that needs the
    /// input images is done. Every frame fuses on this (the dispatcher)
    /// thread through the SIMD `fuse_strip`, between the forward and the
    /// inverse. On the pooled CPU backends the inverse transform of the
    /// fused pyramid is still running on the workers when this returns —
    /// the caller may overlap independent work (capturing the next frame
    /// pair, rendering) before [`FusionEngine::fuse_finish`]. Exactly one
    /// `fuse_finish` must follow each successful `fuse_submit`.
    ///
    /// # Errors
    ///
    /// Same as [`FusionEngine::fuse`].
    pub fn fuse_submit(
        &mut self,
        a: &Image,
        b: &Image,
        backend: Backend,
    ) -> Result<PendingFusion, FusionError> {
        // Ring-full backpressure: a well-behaved caller finishes the
        // oldest frame before submitting onto a full ring. If that frame's
        // token was dropped without a finish instead, abandon its batch so
        // the ring (and the pool's slot window behind it) cannot overflow.
        while self.inflight.len() >= self.depth {
            self.abandon_oldest_in_flight();
        }
        if self.pool.is_some() && matches!(backend, Backend::Arm | Backend::Neon) {
            // Harvest older frames' in-flight inverse outcomes into their
            // slots first (oldest first), so the forward collect only waits
            // on this frame's eight jobs. Workers run the ring in submission
            // order either way, so stashing early costs no overlap — the
            // combo-order accumulation still happens at each frame's own
            // `fuse_finish`.
            while self.stash_oldest_in_flight() {}
            self.packed_forward_submit(a, b, backend)?;
            return self.packed_forward_finish();
        }
        if a.dims() != b.dims() {
            return Err(FusionError::DimensionMismatch {
                a: a.dims(),
                b: b.dims(),
            });
        }
        let (w, h) = a.dims();
        self.ensure_plan(w, h)?;

        // The output buffer comes from the pool; recycle it afterwards
        // (see `recycle`) and the steady state never allocates.
        let mut pending = PendingFusion {
            image: self.out_pool.acquire(w, h),
            backend,
            dims: (w, h),
            inverse_in_flight: false,
            slot: None,
            forward_s: 0.0,
            inverse_s: 0.0,
            wall_forward_s: 0.0,
            wall_fusion_s: 0.0,
            wall_inverse_s: 0.0,
            pl_busy_s: 0.0,
        };
        match self.run_serial(a, b, &mut pending) {
            Ok(()) => Ok(pending),
            Err(e) => {
                self.out_pool.release(pending.image);
                Err(e)
            }
        }
    }

    /// Stages one frame pair's eight forward DT-CWT jobs into the worker
    /// pool **without draining them** — the packing half of cross-stream
    /// batch coalescing. A fleet owner calls this for several engines in a
    /// row so every stream's forwards land in the shared ring together,
    /// then calls [`FusionEngine::packed_forward_finish`] on each engine in
    /// the same order.
    ///
    /// Unlike [`FusionEngine::fuse_submit`] this never abandons frames as
    /// ring backpressure (an abandon drains the *globally* oldest jobs,
    /// which on a shared ring may belong to another stream) — the caller
    /// must retire or stash this engine's oldest frame first when the ring
    /// is full.
    ///
    /// # Errors
    ///
    /// * [`FusionError::DimensionMismatch`] if the frames differ in size.
    /// * [`FusionError::Transform`] if the frames cannot support the
    ///   configured decomposition depth.
    ///
    /// # Panics
    ///
    /// If the engine has no worker pool, `backend` is not a CPU backend, a
    /// packed forward is already staged, or the frame ring is full.
    pub fn packed_forward_submit(
        &mut self,
        a: &Image,
        b: &Image,
        backend: Backend,
    ) -> Result<(), FusionError> {
        assert!(
            self.packed.is_none(),
            "one packed forward per engine at a time"
        );
        assert!(
            matches!(backend, Backend::Arm | Backend::Neon),
            "packed forwards run on the pooled CPU backends"
        );
        assert!(
            self.inflight.len() < self.depth,
            "packed submit onto a full frame ring: retire the oldest frame first"
        );
        if a.dims() != b.dims() {
            return Err(FusionError::DimensionMismatch {
                a: a.dims(),
                b: b.dims(),
            });
        }
        let (w, h) = a.dims();
        self.ensure_plan(w, h)?;
        stage_image(&mut self.img_a, a);
        stage_image(&mut self.img_b, b);
        let pool = self
            .pool
            .as_ref()
            .expect("packed forwards need a worker pool");
        // Stamped before the submit so the eight job publishes count as
        // forward wall time.
        let submitted = std::time::Instant::now();
        self.dtcwt.forward_pooled_pair_submit(
            pool,
            worker_slot(backend),
            &self.img_a,
            &mut self.combos,
            &self.img_b,
            &mut self.combos_b,
        )?;
        self.packed = Some(PackedForward {
            backend,
            dims: (w, h),
            submitted,
        });
        Ok(())
    }

    /// Harvests the packed forwards staged by
    /// [`FusionEngine::packed_forward_submit`] (which must be the oldest
    /// jobs left in the ring — collects run in submit order across the
    /// fleet), fuses the pyramids on the dispatcher through the SIMD
    /// `fuse_strip`, and leaves the inverse batch in flight. This is the pooled
    /// path of [`FusionEngine::fuse_submit`] too, so a private pool and a
    /// fleet-shared one fuse identically. Retire with
    /// [`FusionEngine::fuse_finish`].
    ///
    /// # Errors
    ///
    /// Propagates worker errors from the forward jobs, earliest-submitted
    /// first.
    ///
    /// # Panics
    ///
    /// If no packed forward is staged.
    pub fn packed_forward_finish(&mut self) -> Result<PendingFusion, FusionError> {
        let PackedForward {
            backend,
            dims: (w, h),
            submitted,
        } = self.packed.take().expect("no packed forward staged");
        let kslot = worker_slot(backend);
        let pool = Arc::clone(
            self.pool
                .as_ref()
                .expect("packed forwards need a worker pool"),
        );
        let image = self.out_pool.acquire(w, h);
        if let Err(e) = self.dtcwt.forward_pooled_pair_collect(
            &pool,
            (w, h),
            &mut self.combos,
            &mut self.pyr_a,
            &mut self.combos_b,
            &mut self.pyr_b,
            &mut self.outcomes,
        ) {
            self.out_pool.release(image);
            return Err(e.into());
        }
        let t1 = std::time::Instant::now();
        let si = self.next_slot;
        let fslot = &mut self.slots[si];
        fuse_pyramids_with_kernel(
            &mut self.kernels.simd,
            &self.pyr_a,
            &self.pyr_b,
            self.rule,
            self.lowpass_rule,
            &mut self.fusion_scratch,
            exclusive_pyramid(&mut fslot.fused),
        );
        let t2 = std::time::Instant::now();
        if let Err(e) = self.dtcwt.inverse_pooled_submit(
            &pool,
            kslot,
            &fslot.fused,
            &mut fslot.inv_bufs,
            si as u32,
        ) {
            self.out_pool.release(image);
            return Err(e.into());
        }
        fslot.busy = true;
        fslot.stashed = false;
        self.inflight.push_back(si);
        self.next_slot = (si + 1) % self.depth;
        let (forward_s, _) = self.take_phase_cost(backend, (w, h), Direction::Forward);
        let (inverse_s, _) = self.take_phase_cost(backend, (w, h), Direction::Inverse);
        Ok(PendingFusion {
            image,
            backend,
            dims: (w, h),
            inverse_in_flight: true,
            slot: Some(si),
            forward_s,
            inverse_s,
            wall_forward_s: (t1 - submitted).as_secs_f64(),
            wall_fusion_s: (t2 - t1).as_secs_f64(),
            wall_inverse_s: 0.0,
            pl_busy_s: 0.0,
        })
    }

    /// Completes an in-flight fusion: collects the pooled inverse (if one
    /// is still running), computes the modeled timing/energy, and emits
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Propagates worker errors from the in-flight inverse transform.
    pub fn fuse_finish(&mut self, pending: PendingFusion) -> Result<FusionOutput, FusionError> {
        let PendingFusion {
            mut image,
            backend,
            dims: (w, h),
            inverse_in_flight,
            slot,
            forward_s,
            inverse_s,
            wall_forward_s,
            wall_fusion_s,
            mut wall_inverse_s,
            pl_busy_s,
        } = pending;
        if inverse_in_flight {
            let si = slot.expect("pooled frames carry their ring slot");
            let t0 = std::time::Instant::now();
            let result = if self.slots[si].busy {
                // In-order retirement: pooled frames finish in submission
                // order (the pipeline's own ring guarantees this).
                let front = self.inflight.front().copied();
                assert_eq!(
                    front,
                    Some(si),
                    "fuse_finish out of submission order: slot {si}, oldest in flight {front:?}"
                );
                self.inflight.pop_front();
                if !self.slots[si].stashed {
                    if let Some(pool) = &self.pool {
                        let fslot = &mut self.slots[si];
                        fslot.stash.clear();
                        pool.drain_partial(INVERSE_BATCH_JOBS, &mut fslot.stash);
                        fslot.stashed = true;
                    }
                }
                let fslot = &mut self.slots[si];
                fslot.busy = false;
                fslot.stashed = false;
                self.dtcwt.inverse_collect_outcomes(
                    &mut fslot.stash,
                    &mut fslot.inv_bufs,
                    &mut image,
                )
            } else {
                // The pool vanished (or was rebuilt) under the pending
                // frame — the reconfigure already abandoned its batch —
                // but the fused pyramid is still staged in the slot, so
                // recover with a serial inverse on the backend's kernel.
                let fused = Arc::clone(&self.slots[si].fused);
                self.dtcwt.inverse_into(
                    self.kernels.get(backend),
                    &fused,
                    &mut self.scratch,
                    &mut image,
                )
            };
            if let Err(e) = result {
                self.out_pool.release(image);
                return Err(e.into());
            }
            wall_inverse_s += t0.elapsed().as_secs_f64();
        }
        self.wall.forward_s += wall_forward_s;
        self.wall.fusion_s += wall_fusion_s;
        self.wall.inverse_s += wall_inverse_s;

        let plan = self.cached_plan(w, h);
        let timing = PhaseTiming {
            capture_s: self.cost.capture_seconds(plan),
            forward_s,
            fusion_s: self.cost.fusion_seconds(plan, self.rule),
            inverse_s,
            overhead_s: self.cost.frame_overhead_seconds(plan),
        };
        let predicted_s = self.cost.predict(plan, self.rule, backend).total_seconds();
        let energy_mj = self
            .power
            .energy_mj(backend.execution_mode(), timing.total_seconds());
        if let Some(m) = &self.telemetry {
            for (phase, dur) in timing.phases() {
                m.observe(
                    "wavefuse_phase_seconds",
                    &[("phase", phase), ("backend", backend.label())],
                    dur,
                );
            }
            m.counter_add(
                "wavefuse_energy_millijoules_total",
                &[("backend", backend.label())],
                energy_mj,
            );
            // Report frame-pool activity as counter deltas since the last
            // report, so restarts of the exporter see monotone counters.
            let stats = self.out_pool.stats();
            let prev = self.reported_pool;
            if stats != prev {
                m.counter_add(
                    "wavefuse_pool_hits_total",
                    &[],
                    (stats.hits - prev.hits) as f64,
                );
                m.counter_add(
                    "wavefuse_pool_misses_total",
                    &[],
                    (stats.misses - prev.misses) as f64,
                );
                m.counter_add(
                    "wavefuse_pool_bytes_allocated_total",
                    &[],
                    (stats.bytes_allocated - prev.bytes_allocated) as f64,
                );
                self.reported_pool = stats;
            }
            let transposed = wavefuse_dtcwt::transpose_bytes_total();
            if transposed != self.reported_transpose {
                m.counter_add(
                    "wavefuse_transpose_bytes",
                    &[("backend", backend.label())],
                    (transposed - self.reported_transpose) as f64,
                );
                self.reported_transpose = transposed;
            }
            // Scheduler counters, per worker, as deltas since the last
            // report (same monotone-counter scheme as the pool stats).
            if let Some(pool) = &self.pool {
                for worker in 0..pool.threads().min(self.reported_sched.len()) {
                    let cur = pool.sched_stats(worker);
                    let prev = self.reported_sched[worker];
                    if cur == prev {
                        continue;
                    }
                    let label = worker_label(worker);
                    m.counter_add(
                        "wavefuse_batches_claimed_total",
                        &[("worker", label)],
                        (cur.batches_claimed - prev.batches_claimed) as f64,
                    );
                    m.counter_add(
                        "wavefuse_steals_total",
                        &[("worker", label)],
                        (cur.steals - prev.steals) as f64,
                    );
                    m.counter_add(
                        "wavefuse_worker_parked_seconds_total",
                        &[("worker", label)],
                        (cur.parked_ns - prev.parked_ns) as f64 * 1e-9,
                    );
                    self.reported_sched[worker] = cur;
                }
            }
        }
        Ok(FusionOutput {
            image,
            timing,
            backend,
            energy_mj,
            pl_busy_s,
            predicted_s,
        })
    }

    /// The engine-known part of a finished frame's flight record: backend,
    /// kernel, threads, the modeled per-phase time and energy, the PS/PL
    /// energy split, PL busy time and the cost model's prediction. Callers
    /// fill the schedule fields (frame index, clocks, decision, counters)
    /// with struct update syntax. Allocation-free.
    pub fn frame_record(&self, out: &FusionOutput) -> FrameRecord {
        let power_w = self.power.power_w(out.backend.execution_mode());
        let mut phase_s = [0.0; 5];
        let mut phase_mj = [0.0; 5];
        for (i, (_, dur)) in out.timing.phases().iter().enumerate() {
            phase_s[i] = *dur;
            phase_mj[i] = power_w * dur * 1e3;
        }
        // PS/PL energy split: the PL increment is charged only over the PL
        // engine's busy window (from the cycle ledger / DMA timeline); the
        // PS share absorbs the rest, including the PL idle/static part of
        // the mode's rail power, so ps_mj + pl_mj == energy_mj exactly.
        let pl_mj = (self.power.pl_increment_w() * out.pl_busy_s * 1e3).min(out.energy_mj);
        FrameRecord {
            backend: out.backend.label(),
            kernel: self.kernel_name(out.backend),
            threads: self.threads() as u64,
            model_dur_s: out.timing.total_seconds(),
            phase_s,
            phase_mj,
            energy_mj: out.energy_mj,
            ps_mj: out.energy_mj - pl_mj,
            pl_mj,
            pl_busy_s: out.pl_busy_s,
            predicted_s: out.predicted_s,
            ..FrameRecord::default()
        }
    }

    /// Summed scheduler counters of the worker pool (zeros when running
    /// serially). Allocation-free; the pipeline's flight recorder charges
    /// per-frame deltas of this.
    pub fn sched_totals(&self) -> WorkerSchedStats {
        self.pool
            .as_ref()
            .map(|p| p.sched_totals())
            .unwrap_or_default()
    }

    /// Harvests the engine's **oldest unstashed** in-flight inverse batch
    /// from the pool into its ring slot's outcome stash, returning whether
    /// a batch was stashed. The frame itself stays pending — its
    /// [`FusionEngine::fuse_finish`] later accumulates the stash without
    /// touching the pool.
    ///
    /// This is the fleet hand-off primitive: `drain_partial` harvests the
    /// *globally* oldest jobs in the shared ring, so a fleet owner
    /// multiplexing engines over one pool must call this across its
    /// engines in global submission order to empty the ring before packing
    /// the next round of batches into it.
    pub fn stash_oldest_in_flight(&mut self) -> bool {
        let Some(pool) = &self.pool else {
            return false;
        };
        for idx in 0..self.inflight.len() {
            let si = self.inflight[idx];
            let fslot = &mut self.slots[si];
            if !fslot.stashed {
                fslot.stash.clear();
                pool.drain_partial(INVERSE_BATCH_JOBS, &mut fslot.stash);
                fslot.stashed = true;
                return true;
            }
        }
        false
    }

    /// Abandons the oldest in-flight pooled frame (a [`PendingFusion`]
    /// dropped without [`FusionEngine::fuse_finish`], or ring-full
    /// backpressure): harvests its four outcomes if they are still on the
    /// pool and recycles the buffers, leaving the slot idle. Errors are
    /// discarded.
    fn abandon_oldest_in_flight(&mut self) {
        let Some(si) = self.inflight.pop_front() else {
            return;
        };
        let fslot = &mut self.slots[si];
        if !fslot.stashed {
            if let Some(pool) = &self.pool {
                fslot.stash.clear();
                pool.drain_partial(INVERSE_BATCH_JOBS, &mut fslot.stash);
            }
        }
        Dtcwt::recycle_inverse_outcomes(&mut fslot.stash, &mut fslot.inv_bufs);
        fslot.stashed = false;
        fslot.busy = false;
    }

    /// Abandons every in-flight pooled frame, oldest first (see
    /// [`FusionEngine::abandon_oldest_in_flight`]), so the pool is
    /// quiescent for a reconfigure.
    fn recover_in_flight(&mut self) {
        while !self.inflight.is_empty() {
            self.abandon_oldest_in_flight();
        }
    }

    /// Cumulative measured **wall-clock** seconds the engine has spent in
    /// each transform phase (forward / fusion / inverse), across all frames
    /// and backends. Unlike [`PhaseTiming`] results from
    /// [`FusionEngine::fuse`] — which model the paper's platform — these are
    /// host times, so they reflect worker-pool parallelism and overlap; the
    /// bench harness reports their per-run deltas. `capture_s` and
    /// `overhead_s` are always zero (capture/render happen outside the
    /// engine).
    pub fn wall_phase_totals(&self) -> PhaseTiming {
        self.wall
    }

    /// Runs forward x2 → fuse → inverse serially on the backend's own
    /// kernel, writing the fused frame into `p.image` and the modeled and
    /// measured phase times into `p`. Fusion runs on the SIMD `fuse_strip`,
    /// as on every path: by the fold-order contract of
    /// [`wavefuse_dtcwt::fuse`] it is bit-identical to the scalar reference,
    /// and the model prices fusion at the ARM rate on every backend, so on
    /// the FPGA backend it stays on the PS, as in the paper, and charges
    /// nothing to the cycle ledger.
    fn run_serial(
        &mut self,
        a: &Image,
        b: &Image,
        p: &mut PendingFusion,
    ) -> Result<(), FusionError> {
        let backend = p.backend;
        self.kernels.restart_ledger(backend);
        let t0 = std::time::Instant::now();
        let kernel = self.kernels.get(backend);
        self.dtcwt.forward_into(
            kernel,
            a,
            &mut self.combos,
            &mut self.scratch,
            &mut self.pyr_a,
        )?;
        self.dtcwt.forward_into(
            kernel,
            b,
            &mut self.combos,
            &mut self.scratch,
            &mut self.pyr_b,
        )?;
        let t1 = std::time::Instant::now();
        let (forward_s, forward_pl_s) = self.take_phase_cost(backend, p.dims, Direction::Forward);
        fuse_pyramids_with_kernel(
            &mut self.kernels.simd,
            &self.pyr_a,
            &self.pyr_b,
            self.rule,
            self.lowpass_rule,
            &mut self.fusion_scratch,
            &mut self.fused_serial,
        );
        let t2 = std::time::Instant::now();
        let kernel = self.kernels.get(backend);
        self.dtcwt
            .inverse_into(kernel, &self.fused_serial, &mut self.scratch, &mut p.image)?;
        p.wall_inverse_s = t2.elapsed().as_secs_f64();
        let (inverse_s, inverse_pl_s) = self.take_phase_cost(backend, p.dims, Direction::Inverse);
        p.forward_s = forward_s;
        p.inverse_s = inverse_s;
        p.pl_busy_s = forward_pl_s + inverse_pl_s;
        p.wall_forward_s = (t1 - t0).as_secs_f64();
        p.wall_fusion_s = (t2 - t1).as_secs_f64();
        Ok(())
    }

    /// Modeled `(seconds, PL-busy seconds)` of one frame's transform phase
    /// on `backend`: both forwards, or the inverse. The CPU backends are
    /// priced by the cached plan. The FPGA backend reads the cycle ledger
    /// its kernel filled since the last restart, which is then restarted
    /// for the next phase.
    fn take_phase_cost(
        &mut self,
        backend: Backend,
        (w, h): (usize, usize),
        dir: Direction,
    ) -> (f64, f64) {
        let transforms = match dir {
            Direction::Forward => 2.0,
            Direction::Inverse => 1.0,
        };
        let plan = self.cached_plan(w, h);
        let cost = match backend {
            Backend::Arm => (transforms * self.cost.arm_seconds(plan, dir), 0.0),
            Backend::Neon => (transforms * self.cost.neon_seconds(plan, dir), 0.0),
            Backend::Fpga => {
                let fpga = &self.kernels.fpga;
                (
                    fpga.ledger().elapsed_seconds,
                    fpga.ledger().pl_busy_seconds(fpga.config()),
                )
            }
        };
        self.kernels.restart_ledger(backend);
        cost
    }
}

/// Builds the standard transform [`WorkerPool`]: `threads` workers, each
/// owning a scalar (ARM) kernel in slot 0 and a SIMD (NEON) kernel in slot
/// 1 — the pool layout every [`FusionEngine`] expects.
/// [`FusionEngine::set_threads`] builds one privately; a fleet owner builds
/// one here and attaches it to many engines via
/// [`FusionEngine::set_shared_pool`].
///
/// `_columnar` is ignored; drop with the next benchmark PR (the benchmark
/// harness pins this signature).
pub fn build_worker_pool(threads: usize, _columnar: bool) -> WorkerPool {
    WorkerPool::new(threads, &mut |_| {
        vec![
            Box::new(ScalarKernel::new()) as Box<dyn FilterKernel + Send>,
            Box::new(SimdKernel::new()) as Box<dyn FilterKernel + Send>,
        ]
    })
}

/// Worker kernel slot (see [`build_worker_pool`]) of a pooled CPU backend.
fn worker_slot(backend: Backend) -> usize {
    match backend {
        Backend::Arm => WORKER_SLOT_SCALAR,
        _ => WORKER_SLOT_SIMD,
    }
}

/// Static label strings for per-worker metric series, so per-frame delta
/// reporting never formats. Pools larger than the table fold the excess
/// workers into the last label.
fn worker_label(worker: usize) -> &'static str {
    const LABELS: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "7"];
    LABELS[worker.min(LABELS.len() - 1)]
}

/// Copies `src` into a shared input slot. In steady state the engine holds
/// the only reference (workers drop theirs when their job completes), so
/// this is a straight buffer reuse; the clone fallback only fires if a
/// caller retained the `Arc` (which the engine API never exposes).
fn stage_image(slot: &mut Arc<Image>, src: &Image) {
    match Arc::get_mut(slot) {
        Some(img) => img.copy_from(src),
        None => *slot = Arc::new(src.clone()),
    }
}

/// Regains exclusive access to the shared fused-pyramid slot, replacing it
/// with a fresh one in the (steady-state impossible) case that a worker
/// still holds a reference.
fn exclusive_pyramid(slot: &mut Arc<CwtPyramid>) -> &mut CwtPyramid {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(CwtPyramid::empty());
    }
    Arc::get_mut(slot).expect("freshly created Arc is unique")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(w: usize, h: usize) -> (Image, Image) {
        (
            Image::from_fn(w, h, |x, y| ((x * 5 + y * 2) % 17) as f32 / 16.0),
            Image::from_fn(w, h, |x, y| ((x + y * y) % 23) as f32 / 22.0),
        )
    }

    #[test]
    fn all_backends_produce_the_same_image() {
        let (a, b) = inputs(40, 40);
        let mut eng = FusionEngine::new(3).unwrap();
        let arm = eng.fuse(&a, &b, Backend::Arm).unwrap();
        let neon = eng.fuse(&a, &b, Backend::Neon).unwrap();
        let fpga = eng.fuse(&a, &b, Backend::Fpga).unwrap();
        assert!(arm.image.max_abs_diff(&neon.image) < 1e-3);
        assert!(arm.image.max_abs_diff(&fpga.image) < 1e-3);
    }

    #[test]
    fn fused_image_combines_complementary_content() {
        // A carries a left-half feature, B a right-half feature; the fused
        // image must carry both.
        let w = 48;
        let a = Image::from_fn(w, w, |x, y| {
            if x < w / 2 && (x / 3 + y / 3) % 2 == 0 {
                1.0
            } else {
                0.3
            }
        });
        let b = Image::from_fn(w, w, |x, y| {
            if x >= w / 2 && (x / 3 + y / 3) % 2 == 1 {
                1.0
            } else {
                0.3
            }
        });
        let mut eng = FusionEngine::new(2).unwrap();
        let out = eng.fuse(&a, &b, Backend::Neon).unwrap().image;
        // Variance on each half should be comparable to the active source's.
        let var = |img: &Image, x0: usize, x1: usize| -> f64 {
            let vals: Vec<f64> = (x0..x1)
                .flat_map(|x| (0..w).map(move |y| (x, y)))
                .map(|(x, y)| img.get(x, y) as f64)
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64
        };
        assert!(var(&out, 0, w / 2) > 0.5 * var(&a, 0, w / 2));
        assert!(var(&out, w / 2, w) > 0.5 * var(&b, w / 2, w));
    }

    #[test]
    fn worker_pool_fusion_is_bit_identical() {
        // The pooled path must reproduce the serial path exactly, at any
        // thread count, for both CPU backends — and stay exact when the
        // engine alternates frame sizes (exercising the plan cache and
        // scratch reshaping).
        let mut serial = FusionEngine::new(3).unwrap();
        for threads in [2, 3, 5] {
            let mut eng = FusionEngine::new(3).unwrap();
            eng.set_threads(threads);
            assert_eq!(eng.threads(), threads);
            for (w, h) in [(88, 72), (40, 40), (88, 72)] {
                let (a, b) = inputs(w, h);
                for backend in [Backend::Neon, Backend::Arm] {
                    let want = serial.fuse(&a, &b, backend).unwrap();
                    let got = eng.fuse(&a, &b, backend).unwrap();
                    assert_eq!(
                        got.image, want.image,
                        "threads={threads} {w}x{h} {backend:?}"
                    );
                    assert_eq!(got.timing, want.timing);
                }
            }
        }
    }

    #[test]
    fn depth_k_pipelined_fusion_is_bit_identical() {
        // With k frames in flight the combo accumulation still happens per
        // frame in combo order, so every depth must reproduce the serial
        // engine exactly — images and modeled timing both.
        let mut serial = FusionEngine::new(3).unwrap();
        for depth in [2usize, 3] {
            let mut eng = FusionEngine::new(3).unwrap();
            eng.set_threads(2);
            eng.set_pipeline_depth(depth);
            assert_eq!(eng.pipeline_depth(), depth);
            let frames: Vec<(Image, Image)> = (0..6)
                .map(|i| {
                    (
                        Image::from_fn(88, 72, move |x, y| {
                            ((x * 5 + y * 2 + i) % 17) as f32 / 16.0
                        }),
                        Image::from_fn(88, 72, move |x, y| {
                            ((x + y * y + 3 * i) % 23) as f32 / 22.0
                        }),
                    )
                })
                .collect();
            let mut pending = VecDeque::new();
            let mut got = Vec::new();
            for (a, b) in &frames {
                if pending.len() == depth {
                    got.push(eng.fuse_finish(pending.pop_front().unwrap()).unwrap());
                }
                pending.push_back(eng.fuse_submit(a, b, Backend::Neon).unwrap());
            }
            while let Some(p) = pending.pop_front() {
                got.push(eng.fuse_finish(p).unwrap());
            }
            assert_eq!(got.len(), frames.len());
            for ((a, b), out) in frames.iter().zip(&got) {
                let want = serial.fuse(a, b, Backend::Neon).unwrap();
                assert_eq!(out.image, want.image, "depth {depth}");
                assert_eq!(out.timing, want.timing, "depth {depth}");
            }
        }
    }

    #[test]
    fn ring_full_submit_abandons_dropped_oldest() {
        let (a, b) = inputs(40, 40);
        let mut serial = FusionEngine::new(3).unwrap();
        let want = serial.fuse(&a, &b, Backend::Neon).unwrap();
        let mut eng = FusionEngine::new(3).unwrap();
        eng.set_threads(2);
        eng.set_pipeline_depth(2);
        // Drop the first token without finishing it: the third submit
        // fills the ring and must reclaim that abandoned slot instead of
        // overflowing; the surviving frames still retire in order.
        let p0 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        drop(p0);
        let p1 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        let p2 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        let out1 = eng.fuse_finish(p1).unwrap();
        let out2 = eng.fuse_finish(p2).unwrap();
        assert_eq!(out1.image, want.image);
        assert_eq!(out2.image, want.image);
    }

    #[test]
    fn reconfigure_mid_flight_recovers_serially() {
        let (a, b) = inputs(40, 40);
        let mut serial = FusionEngine::new(3).unwrap();
        let want = serial.fuse(&a, &b, Backend::Neon).unwrap();
        let mut eng = FusionEngine::new(3).unwrap();
        eng.set_threads(2);
        eng.set_pipeline_depth(2);
        let p0 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        let p1 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        // Dropping the pool abandons both in-flight batches; the staged
        // per-slot pyramids still let the tokens finish (serial inverse).
        eng.set_threads(1);
        let out0 = eng.fuse_finish(p0).unwrap();
        let out1 = eng.fuse_finish(p1).unwrap();
        assert_eq!(out0.image, want.image);
        assert_eq!(out1.image, want.image);
    }

    #[test]
    fn reserved_buffers_keep_first_frame_pool_misses_flat() {
        let (a, b) = inputs(96, 80);
        let mut eng = FusionEngine::new(3).unwrap();
        eng.set_threads(2);
        eng.set_pipeline_depth(2);
        eng.reserve_frame_buffers(96, 80).unwrap();
        let stats0 = eng.buffer_pool().stats();
        assert_eq!(
            (stats0.hits, stats0.misses),
            (0, 0),
            "reservation must charge neither hits nor misses"
        );
        let p0 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        let p1 = eng.fuse_submit(&a, &b, Backend::Neon).unwrap();
        let o0 = eng.fuse_finish(p0).unwrap();
        let o1 = eng.fuse_finish(p1).unwrap();
        let stats = eng.buffer_pool().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 0),
            "depth-2 first frames must be served from the reservation"
        );
        eng.recycle(o0);
        eng.recycle(o1);
    }

    #[test]
    fn reservation_is_per_slot_not_per_level_at_1080p() {
        // The output-pool reservation scales with the ring (depth + 1
        // frames), not with levels x buffers — checked at the full-HD
        // geometry without running a fusion.
        let mut eng = FusionEngine::new(3).unwrap();
        eng.set_pipeline_depth(3);
        eng.reserve_frame_buffers(1920, 1080).unwrap();
        assert_eq!(eng.buffer_pool().free_buffers(), 4);
        let s = eng.buffer_pool().stats();
        assert_eq!((s.hits, s.misses, s.bytes_allocated), (0, 0, 0));
        // Re-reserving the same geometry is idempotent.
        eng.reserve_frame_buffers(1920, 1080).unwrap();
        assert_eq!(eng.buffer_pool().free_buffers(), 4);
    }

    #[test]
    fn kernel_names_per_backend() {
        let eng = FusionEngine::new(2).unwrap();
        assert_eq!(eng.kernel_name(Backend::Arm), "arm-scalar");
        assert_eq!(eng.kernel_name(Backend::Neon), "neon-simd");
        assert_eq!(eng.kernel_name(Backend::Fpga), "zynq-fpga");
    }

    #[test]
    fn repeated_fusion_is_deterministic() {
        // Scratch/pyramid reuse across frames must not change results.
        let (a, b) = inputs(35, 35);
        let mut eng = FusionEngine::new(2).unwrap();
        let first = eng.fuse(&a, &b, Backend::Neon).unwrap().image;
        let second = eng.fuse(&a, &b, Backend::Neon).unwrap().image;
        assert_eq!(first, second);
    }

    #[test]
    fn recycled_outputs_make_the_pool_hit() {
        let (a, b) = inputs(48, 40);
        let mut eng = FusionEngine::new(3).unwrap();
        let first = eng.fuse(&a, &b, Backend::Neon).unwrap();
        eng.recycle(first);
        let _second = eng.fuse(&a, &b, Backend::Neon).unwrap();
        let stats = eng.buffer_pool().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes_allocated, 48 * 40 * 4);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (a, _) = inputs(32, 24);
        let (_, b) = inputs(40, 24);
        let mut eng = FusionEngine::new(2).unwrap();
        assert!(matches!(
            eng.fuse(&a, &b, Backend::Arm),
            Err(FusionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn timing_ordering_large_frames() {
        // At the paper's full frame size: FPGA < NEON < ARM total time.
        let (a, b) = inputs(88, 72);
        let mut eng = FusionEngine::new(3).unwrap();
        let t_arm = eng
            .fuse(&a, &b, Backend::Arm)
            .unwrap()
            .timing
            .total_seconds();
        let t_neon = eng
            .fuse(&a, &b, Backend::Neon)
            .unwrap()
            .timing
            .total_seconds();
        let t_fpga = eng
            .fuse(&a, &b, Backend::Fpga)
            .unwrap()
            .timing
            .total_seconds();
        assert!(
            t_fpga < t_neon && t_neon < t_arm,
            "{t_fpga} {t_neon} {t_arm}"
        );
    }

    #[test]
    fn prediction_matches_execution_for_fpga() {
        let (a, b) = inputs(64, 48);
        let mut eng = FusionEngine::new(3).unwrap();
        let measured = eng.fuse(&a, &b, Backend::Fpga).unwrap().timing;
        let plan = TransformPlan::dtcwt(64, 48, 3).unwrap();
        let predicted = eng.cost.predict(&plan, eng.rule, Backend::Fpga);
        let err = (measured.forward_s - predicted.forward_s).abs() / measured.forward_s;
        assert!(err < 0.05, "forward prediction off by {:.1}%", err * 100.0);
        let err_i = (measured.inverse_s - predicted.inverse_s).abs() / measured.inverse_s;
        assert!(
            err_i < 0.05,
            "inverse prediction off by {:.1}%",
            err_i * 100.0
        );
    }

    /// One FPGA frame run by hand on `kernel`: its ledger is read around
    /// two `forward_into` calls and one `inverse_into` of the scalar-fused
    /// pyramid, restarted before each phase. Returns the image, forward
    /// seconds, inverse seconds and PL-busy seconds.
    fn ledger_reference(kernel: &mut FpgaKernel, a: &Image, b: &Image) -> (Image, f64, f64, f64) {
        let read = |k: &FpgaKernel| {
            let l = k.ledger();
            (l.elapsed_seconds, l.pl_busy_seconds(k.config()))
        };
        let t = Dtcwt::new(3).unwrap();
        let (mut combos, mut scratch) = (ComboStore::new(), Scratch::new());
        let (mut pa, mut pb) = (CwtPyramid::empty(), CwtPyramid::empty());
        kernel.reset_ledger();
        t.forward_into(kernel, a, &mut combos, &mut scratch, &mut pa)
            .unwrap();
        t.forward_into(kernel, b, &mut combos, &mut scratch, &mut pb)
            .unwrap();
        let (forward_s, forward_pl_s) = read(kernel);
        let mut fused = CwtPyramid::empty();
        crate::rules::fuse_pyramids_into(
            &pa,
            &pb,
            FusionRule::WindowEnergy { radius: 1 },
            LowpassRule::Average,
            &mut FusionScratch::new(),
            &mut fused,
        );
        kernel.reset_ledger();
        let mut out = Image::zeros(0, 0);
        t.inverse_into(kernel, &fused, &mut scratch, &mut out)
            .unwrap();
        let (inverse_s, inverse_pl_s) = read(kernel);
        (out, forward_s, inverse_s, forward_pl_s + inverse_pl_s)
    }

    #[test]
    fn fpga_frames_match_their_kernel_ledgers_exactly() {
        // Fusion on the PS must charge nothing to the ledger, and each
        // phase must be read between its own resets: the engine's modeled
        // times are then bit-equal to a hand-run kernel's, frame after
        // frame.
        for (w, h) in [(64, 48), (88, 72)] {
            let (a, b) = inputs(w, h);
            let mut eng = FusionEngine::new(3).unwrap();
            let mut fpga = FpgaKernel::new();
            for (x, y) in [(&a, &b), (&b, &a)] {
                let (image, forward_s, inverse_s, pl_busy_s) = ledger_reference(&mut fpga, x, y);
                let got = eng.fuse(x, y, Backend::Fpga).unwrap();
                let tag = format!("{w}x{h}");
                assert_eq!(got.image, image, "{tag}");
                assert_eq!(got.timing.forward_s.to_bits(), forward_s.to_bits(), "{tag}");
                assert_eq!(got.timing.inverse_s.to_bits(), inverse_s.to_bits(), "{tag}");
                assert_eq!(got.pl_busy_s.to_bits(), pl_busy_s.to_bits(), "{tag}");
                assert!(pl_busy_s > 0.0, "{tag}");
            }
        }
    }

    #[test]
    fn energy_uses_mode_power() {
        let (a, b) = inputs(64, 48);
        let mut eng = FusionEngine::new(3).unwrap();
        let out = eng.fuse(&a, &b, Backend::Neon).unwrap();
        let expect = eng
            .power_model()
            .energy_mj(Backend::Neon.execution_mode(), out.timing.total_seconds());
        assert!((out.energy_mj - expect).abs() < 1e-12);
    }
}
