//! The three workloads: the systems they build, the closed loop that times
//! them, and the untimed check against a serial reference.

use std::sync::Arc;
use std::time::Instant;

use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::serve::{solo_digest, FleetConfig, StreamBackend, StreamConfig, StreamManager};
use wavefuse_core::{Backend, FusionEngine};
use wavefuse_dtcwt::Image;
use wavefuse_metrics::petrovic_qabf;
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

use crate::check::{all_finite, bit_equal, fnv1a_image, peak_rss_mib, FNV_OFFSET};
use crate::spans::Recorder;
use crate::stats::{mean, median, quantile, sorted};
use crate::{layers, BenchError, Outcome, LEVELS};

/// The paper's evaluation frame sizes (DATE 2016, Figs. 9-10); they
/// straddle the NEON/FPGA crossover.
pub const PAPER_SIZES: [(usize, usize); 5] = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 640x480 NEON pipeline, 2 worker threads, depth 2, one camera pair.
    VgaNeonD2,
    /// Serial engine with the adaptive scheduler over the paper's sizes.
    PaperSizesAdaptive,
    /// 16-stream fleet (12 at 88x72, 4 at 320x240) on a 2-thread pool.
    ServeMixed16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::VgaNeonD2,
        Workload::PaperSizesAdaptive,
        Workload::ServeMixed16,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VgaNeonD2 => "vga-neon-d2",
            Workload::PaperSizesAdaptive => "paper-sizes-adaptive",
            Workload::ServeMixed16 => "serve-mixed-16",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's frame mix, `((width, height), weight)`, and the worker
    /// threads and pipelining depth its system runs with. `tiny` shrinks the
    /// frames for smoke tests.
    pub fn shape(self, tiny: bool) -> Shape {
        match self {
            Workload::VgaNeonD2 => Shape {
                mix: vec![(if tiny { (64, 48) } else { (640, 480) }, 1)],
                threads: 2,
                depth: 2,
            },
            Workload::PaperSizesAdaptive => Shape {
                mix: PAPER_SIZES.iter().map(|&d| (d, 1)).collect(),
                threads: 1,
                depth: 1,
            },
            Workload::ServeMixed16 => Shape {
                mix: if tiny {
                    vec![((40, 32), 3), ((64, 48), 1)]
                } else {
                    vec![((88, 72), 12), ((320, 240), 4)]
                },
                threads: 2,
                depth: 1,
            },
        }
    }

    /// `(instances, windows per instance)` of a `--trace 0` run: each
    /// instance is built once (one `setup_s` sample), then runs that many
    /// consecutive timed windows. Windows are short (0.5 s for the adaptive
    /// mix, about 2 s for the fleet at 45 s runs) so that a short spell of
    /// host contention spoils few of them.
    fn windows(self, tiny: bool) -> (usize, usize) {
        match (self, tiny) {
            (_, true) => (2, 2),
            (Workload::PaperSizesAdaptive, false) => (30, 3),
            _ => (10, 2),
        }
    }

    /// Calls the check compares against the serial reference (frames; fleet
    /// rounds for the serve workload).
    fn check_calls(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::VgaNeonD2, false) => 4,
            (Workload::PaperSizesAdaptive, false) => 4 * PAPER_SIZES.len(),
            (Workload::PaperSizesAdaptive, true) => PAPER_SIZES.len(),
            _ => 3,
        }
    }
}

/// Calls each instance makes after set-up and before its first timed
/// window opens.
const WARMUP_CALLS: usize = 2;

/// Frame mix and system configuration of a workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Frame geometries with their weight (streams, or frames per cycle).
    pub mix: Vec<((usize, usize), usize)>,
    /// Worker threads of the system's pool (1 = serial).
    pub threads: usize,
    /// Frames that may be in flight per stream.
    pub depth: usize,
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed: seeds every scene and stream.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink frames and repetition counts (smoke tests only).
    pub tiny: bool,
}

/// Scene seed of fleet stream `stream` under workload seed `seed`.
pub fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(stream as u64)
}

/// The fleet's streams. Serve: every fourth stream is a large one, so each
/// packed chunk of eight mixes both sizes. Other workloads: one stream per
/// unit of weight in their frame mix (used by the serve-layer probe).
pub fn fleet_streams(workload: Workload, seed: u64, tiny: bool) -> Vec<StreamConfig> {
    let shape = workload.shape(tiny);
    let sizes: Vec<(usize, usize)> = match workload {
        Workload::ServeMixed16 => {
            let (small, large) = (shape.mix[0].0, shape.mix[1].0);
            let n = shape.mix[0].1 + shape.mix[1].1;
            (0..n)
                .map(|i| if i % 4 == 3 { large } else { small })
                .collect()
        }
        _ => shape
            .mix
            .iter()
            .flat_map(|&(d, weight)| std::iter::repeat_n(d, weight))
            .collect(),
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, frame_size)| StreamConfig {
            frame_size,
            levels: LEVELS,
            scene_seed: stream_seed(seed, i),
            depth: shape.depth,
            backend: StreamBackend::Fixed(Backend::Neon),
            ..StreamConfig::default()
        })
        .collect()
}

/// Fleet configuration of the serve workload and the serve-layer probe.
pub fn fleet_config(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        columnar: true,
        max_in_flight: None,
    }
}

/// Pipeline configuration of the VGA workload (`threads`/`depth` vary
/// between the system under test and its serial reference).
pub fn vga_config(seed: u64, tiny: bool, threads: usize, depth: usize) -> PipelineConfig {
    PipelineConfig {
        frame_size: Workload::VgaNeonD2.shape(tiny).mix[0].0,
        levels: LEVELS,
        backend: BackendChoice::Fixed(Backend::Neon),
        scene_seed: seed,
        threads,
        depth,
    }
}

/// The adaptive workload's inputs: `n` visible/thermal pairs cycling
/// through [`PAPER_SIZES`], frame `i` rendered at `t = i / 30` s.
pub fn adaptive_inputs(seed: u64, n: usize) -> Vec<(Image, Image)> {
    let scene = ScenePair::new(seed);
    (0..n)
        .map(|i| {
            let (w, h) = PAPER_SIZES[i % PAPER_SIZES.len()];
            let t = i as f64 / 30.0;
            (scene.render_visible(w, h, t), scene.render_thermal(w, h, t))
        })
        .collect()
}

/// The adaptive scheduler every adaptive system uses: the calibrated cost
/// model minimizing modeled energy over the default {NEON, FPGA}.
pub fn energy_scheduler() -> AdaptiveScheduler {
    AdaptiveScheduler::new(Policy::Model(Objective::Energy), LEVELS)
}

/// What one call into a system delivered.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    frames: u64,
    dropped: u64,
}

/// A system under test, driven one call at a time by the closed loop.
trait System {
    /// Asks for the next frame (one fleet round for the serve workload),
    /// recording spans around the public calls when `rec` is given.
    fn next(&mut self, rec: Option<&mut Recorder>, request: u64) -> Result<Delivery, BenchError>;

    /// How many calls before the delivering one the delivered frame was
    /// captured in (depth - 1 for the depth-k pipeline, else 0).
    fn lag(&self) -> usize {
        0
    }

    /// Modeled `[energy_mj, seconds]` of every delivery so far, in order
    /// (per fleet round: `[energy_mj_per_frame, 0]`).
    fn model_log(&self) -> &[[f64; 2]];
}

/// Runs `f` inside a span when recording.
fn span<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.time(name, request, f),
        None => f(),
    }
}

struct VgaSystem {
    pipe: VideoFusionPipeline,
    log: Vec<[f64; 2]>,
}

impl System for VgaSystem {
    fn next(&mut self, rec: Option<&mut Recorder>, request: u64) -> Result<Delivery, BenchError> {
        let mut rec = rec;
        let out = span(&mut rec, "pipeline.step", request, || self.pipe.step())?;
        self.log.push([out.energy_mj, out.timing.total_seconds()]);
        self.pipe.recycle(out);
        Ok(Delivery {
            frames: 1,
            dropped: 0,
        })
    }

    fn lag(&self) -> usize {
        self.pipe.depth() - 1
    }

    fn model_log(&self) -> &[[f64; 2]] {
        &self.log
    }
}

struct AdaptiveSystem {
    engine: FusionEngine,
    sched: AdaptiveScheduler,
    inputs: Arc<Vec<(Image, Image)>>,
    next: usize,
    log: Vec<[f64; 2]>,
}

impl System for AdaptiveSystem {
    /// One cycle through the paper's sizes: a frame of each.
    fn next(&mut self, rec: Option<&mut Recorder>, request: u64) -> Result<Delivery, BenchError> {
        let mut rec = rec;
        for _ in 0..PAPER_SIZES.len() {
            let (a, b) = &self.inputs[self.next % self.inputs.len()];
            self.next += 1;
            let (w, h) = a.dims();
            let sched = &mut self.sched;
            let backend = span(&mut rec, "adaptive.choose", request, || sched.choose(w, h))?;
            let name = if backend == Backend::Fpga {
                "zynq.fuse"
            } else {
                "engine.fuse"
            };
            let engine = &mut self.engine;
            let out = span(&mut rec, name, request, || engine.fuse(a, b, backend))?;
            self.log.push([out.energy_mj, out.timing.total_seconds()]);
            self.engine.recycle(out);
        }
        Ok(Delivery {
            frames: PAPER_SIZES.len() as u64,
            dropped: 0,
        })
    }

    fn model_log(&self) -> &[[f64; 2]] {
        &self.log
    }
}

struct ServeSystem {
    mgr: StreamManager,
    log: Vec<[f64; 2]>,
}

impl System for ServeSystem {
    fn next(&mut self, rec: Option<&mut Recorder>, request: u64) -> Result<Delivery, BenchError> {
        let mut rec = rec;
        let mgr = &mut self.mgr;
        let report = span(&mut rec, "serve.run", request, || mgr.run(1))?;
        self.log.push([report.energy_mj_per_frame, 0.0]);
        Ok(Delivery {
            frames: report.total_frames,
            dropped: report.total_drops,
        })
    }

    fn model_log(&self) -> &[[f64; 2]] {
        &self.log
    }
}

/// Room reserved up front in per-call logs, so the timed loop does not
/// reallocate in the common case.
const LOG_CAPACITY: usize = 1 << 16;

/// Constructs a workload's system and delivers its first frame (one round
/// for the fleet): the interval `setup_s` measures.
fn build(
    workload: Workload,
    p: &Params,
    inputs: &Arc<Vec<(Image, Image)>>,
) -> Result<Box<dyn System>, BenchError> {
    let mut sys: Box<dyn System> = match workload {
        Workload::VgaNeonD2 => Box::new(VgaSystem {
            pipe: VideoFusionPipeline::new(vga_config(p.seed, p.tiny, 2, 2))?,
            log: Vec::with_capacity(LOG_CAPACITY),
        }),
        Workload::PaperSizesAdaptive => Box::new(AdaptiveSystem {
            engine: FusionEngine::new(LEVELS)?,
            sched: energy_scheduler(),
            inputs: Arc::clone(inputs),
            next: 0,
            log: Vec::with_capacity(LOG_CAPACITY),
        }),
        Workload::ServeMixed16 => {
            let shape = workload.shape(p.tiny);
            let mut mgr = StreamManager::new(fleet_config(shape.threads));
            for cfg in fleet_streams(workload, p.seed, p.tiny) {
                mgr.admit(cfg)?;
            }
            Box::new(ServeSystem {
                mgr,
                log: Vec::with_capacity(LOG_CAPACITY),
            })
        }
    };
    sys.next(None, 0)?;
    Ok(sys)
}

/// What a timed window measured.
#[derive(Debug, Default)]
struct Window {
    /// Per delivery: latency, milliseconds.
    lat_ms: Vec<f64>,
    frames: u64,
    dropped: u64,
    /// Calls made, including warm-up.
    calls: u64,
    /// Frames attempted, including warm-up.
    attempted: u64,
    elapsed_s: f64,
    error: Option<String>,
}

impl Window {
    /// Frames delivered per second over the window.
    fn fps(&self) -> f64 {
        self.frames as f64 / self.elapsed_s
    }
}

/// The closed loop: `warmup` untimed calls, then calls until `seconds`
/// have passed. Only `Instant::now()` and pushes into pre-sized vectors run
/// between the timed calls.
fn timed_loop(
    sys: &mut dyn System,
    frames_per_call: u64,
    warmup: usize,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Window {
    let lag = sys.lag();
    let mut win = Window {
        lat_ms: Vec::with_capacity(LOG_CAPACITY),
        ..Window::default()
    };
    // Start times of the last `lag + 1` calls, oldest first.
    let mut starts: Vec<Instant> = Vec::with_capacity(lag + 1);
    let mut origin = Instant::now();
    loop {
        if win.calls == warmup as u64 {
            origin = Instant::now();
        }
        let timed = win.calls >= warmup as u64;
        if timed && origin.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let request = win.calls;
        let root = rec.as_deref_mut().map(|r| r.begin("frame", request));
        let start = Instant::now();
        let result = sys.next(rec.as_deref_mut(), request);
        let end = Instant::now();
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), root) {
            r.end(id);
        }
        if starts.len() > lag {
            starts.remove(0);
        }
        starts.push(start);
        win.calls += 1;
        win.attempted += frames_per_call;
        match result {
            Ok(d) => {
                win.dropped += d.dropped;
                if timed {
                    win.frames += d.frames;
                    win.lat_ms.push((end - starts[0]).as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                win.error = Some(e.to_string());
                break;
            }
        }
    }
    win.elapsed_s = origin.elapsed().as_secs_f64();
    win
}

/// What the untimed check found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Frames compared against the reference.
    pub frames: u64,
    /// Frames that failed the comparison, were non-finite, errored or
    /// dropped.
    pub failed: u64,
    /// QAB/F of each checked frame.
    pub qabf: Vec<f64>,
    /// Modeled `[energy_mj, seconds]` per call of the system under test.
    pub model: Vec<[f64; 2]>,
    /// Mean modeled energy per delivered frame, mJ.
    pub model_mj_per_frame: f64,
    /// Mean modeled platform time per delivered frame, seconds.
    pub model_s_per_frame: f64,
    /// FNV-1a digests of the delivered frames (one per fleet stream for
    /// the serve workload).
    pub digests: Vec<u64>,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

/// Runs a fresh instance of the workload's system for a fixed number of
/// calls and compares every delivered frame with a serial depth-1
/// reference built from the same seed. Untimed.
///
/// # Errors
///
/// Errors of the reference path (the system under test's errors count as
/// failed frames instead).
pub fn check(workload: Workload, p: &Params) -> Result<Checked, BenchError> {
    let calls = workload.check_calls(p.tiny);
    match workload {
        Workload::VgaNeonD2 => check_vga(p, calls),
        Workload::PaperSizesAdaptive => check_adaptive(p, calls),
        Workload::ServeMixed16 => check_serve(p, calls),
    }
}

/// Scores and digests one delivered frame against its reference.
fn check_frame(c: &mut Checked, got: &Image, want: &Image, vis: &Image, thermal: &Image) {
    c.frames += 1;
    if !all_finite(got) {
        c.failed += 1;
        c.problems
            .push(format!("frame {}: non-finite pixel", c.frames - 1));
    } else if !bit_equal(got, want) {
        c.failed += 1;
        c.problems.push(format!(
            "frame {}: differs from the serial reference",
            c.frames - 1
        ));
    }
    c.qabf.push(petrovic_qabf(vis, thermal, got));
    c.digests.push(fnv1a_image(FNV_OFFSET, got));
}

fn finish_model(c: &mut Checked) {
    c.model_mj_per_frame = mean(&c.model.iter().map(|m| m[0]).collect::<Vec<_>>());
    c.model_s_per_frame = mean(&c.model.iter().map(|m| m[1]).collect::<Vec<_>>());
}

fn check_vga(p: &Params, frames: usize) -> Result<Checked, BenchError> {
    let mut c = Checked::default();
    let mut test = VideoFusionPipeline::new(vga_config(p.seed, p.tiny, 2, 2))?;
    let mut reference = VideoFusionPipeline::new(vga_config(p.seed, p.tiny, 1, 1))?;
    // The pipeline's inputs, replayed: one thermal field then one visible
    // frame per fused frame, from the same scene.
    let (w, h) = vga_config(p.seed, p.tiny, 1, 1).frame_size;
    let scene = ScenePair::new(p.seed);
    let mut thermal = ThermalCamera::new(scene.clone(), w, h);
    let mut web = WebCamera::new(scene, w, h);
    let (mut vis, mut th) = (Frame::filled(0, 0, 0.0), Frame::filled(0, 0, 0.0));
    for i in 0..frames {
        let want = reference.step()?;
        thermal.capture_into(&mut th)?;
        web.capture_into(&mut vis);
        match test.step() {
            Ok(got) => {
                check_frame(&mut c, &got.image, &want.image, vis.image(), th.image());
                c.model.push([got.energy_mj, got.timing.total_seconds()]);
                test.recycle(got);
            }
            Err(e) => {
                c.frames += 1;
                c.failed += 1;
                c.problems.push(format!("frame {i}: {e}"));
            }
        }
        reference.recycle(want);
    }
    finish_model(&mut c);
    Ok(c)
}

fn check_adaptive(p: &Params, frames: usize) -> Result<Checked, BenchError> {
    let mut c = Checked::default();
    let inputs = adaptive_inputs(p.seed, frames);
    let mut engine = FusionEngine::new(LEVELS)?;
    let mut sched = energy_scheduler();
    for (i, (a, b)) in inputs.iter().enumerate() {
        let (w, h) = a.dims();
        let got = sched.choose(w, h).and_then(|bk| engine.fuse(a, b, bk));
        match got {
            Ok(got) => {
                // Replay: a fresh engine per frame on the backend chosen, so
                // no state carried across geometry switches can hide.
                let want = FusionEngine::new(LEVELS)?.fuse(a, b, got.backend)?;
                check_frame(&mut c, &got.image, &want.image, a, b);
                c.model.push([got.energy_mj, got.timing.total_seconds()]);
                engine.recycle(got);
            }
            Err(e) => {
                c.frames += 1;
                c.failed += 1;
                c.problems.push(format!("frame {i}: {e}"));
            }
        }
    }
    finish_model(&mut c);
    Ok(c)
}

fn check_serve(p: &Params, rounds: usize) -> Result<Checked, BenchError> {
    let mut c = Checked::default();
    let workload = Workload::ServeMixed16;
    let streams = fleet_streams(workload, p.seed, p.tiny);
    let mut mgr = StreamManager::new(fleet_config(workload.shape(p.tiny).threads));
    mgr.set_digests(true);
    for cfg in &streams {
        mgr.admit(*cfg)?;
    }
    let mut fleet_mj = 0.0;
    let mut fleet_frames = 0u64;
    for r in 0..rounds {
        match mgr.run(1) {
            Ok(rep) => {
                c.model.push([rep.energy_mj_per_frame, 0.0]);
                fleet_mj += rep.energy_mj_per_frame * rep.total_frames as f64;
                fleet_frames += rep.total_frames;
                if rep.total_drops > 0 {
                    c.failed += rep.total_drops;
                    c.problems
                        .push(format!("round {r}: {} frames dropped", rep.total_drops));
                }
            }
            Err(e) => {
                c.failed += streams.len() as u64;
                c.problems.push(format!("round {r}: {e}"));
            }
        }
    }
    // Serial replay of every stream: the reference digest, the frames to
    // score, and the modeled platform time the fleet report leaves out.
    let mut replay_mj = 0.0;
    let mut replay_s = 0.0;
    for (i, cfg) in streams.iter().enumerate() {
        let (w, h) = cfg.frame_size;
        let scene = ScenePair::new(cfg.scene_seed);
        let mut thermal = ThermalCamera::new(scene.clone(), w, h);
        let mut web = WebCamera::new(scene, w, h);
        let (mut vis, mut th) = (Frame::filled(0, 0, 0.0), Frame::filled(0, 0, 0.0));
        let mut engine = FusionEngine::new(cfg.levels)?;
        let mut digest = FNV_OFFSET;
        let mut finite = true;
        for _ in 0..rounds {
            thermal.capture_into(&mut th)?;
            web.capture_into(&mut vis);
            let out = engine.fuse(vis.image(), th.image(), Backend::Neon)?;
            digest = fnv1a_image(digest, &out.image);
            finite &= all_finite(&out.image);
            c.qabf
                .push(petrovic_qabf(vis.image(), th.image(), &out.image));
            replay_mj += out.energy_mj;
            replay_s += out.timing.total_seconds();
            engine.recycle(out);
        }
        let solo = solo_digest(cfg, true, rounds)?;
        let fleet = mgr.stream_digest(i);
        c.frames += rounds as u64;
        c.digests.push(fleet);
        if fleet != solo || digest != solo || !finite {
            c.failed += rounds as u64;
            c.problems.push(format!(
                "stream {i}: fleet {fleet:016x}, solo {solo:016x}, replay {digest:016x}, finite {finite}"
            ));
        }
    }
    let n = c.frames.max(1) as f64;
    c.model_mj_per_frame = fleet_mj / fleet_frames.max(1) as f64;
    c.model_s_per_frame = replay_s / n;
    let replay_mj = replay_mj / n;
    if (replay_mj - c.model_mj_per_frame).abs() > 1e-9 * replay_mj {
        c.problems.push(format!(
            "fleet energy {} mJ/frame vs serial replay {replay_mj} mJ/frame",
            c.model_mj_per_frame
        ));
    }
    Ok(c)
}

/// Inputs shared by every instance of a workload's system.
fn inputs(workload: Workload, p: &Params) -> Arc<Vec<(Image, Image)>> {
    Arc::new(match workload {
        Workload::PaperSizesAdaptive => adaptive_inputs(p.seed, workload.check_calls(p.tiny)),
        _ => Vec::new(),
    })
}

/// Frames one call delivers: a frame, a cycle of the paper's sizes, or a
/// fleet round.
fn frames_per_call(workload: Workload, p: &Params) -> u64 {
    match workload {
        Workload::VgaNeonD2 => 1,
        Workload::PaperSizesAdaptive => PAPER_SIZES.len() as u64,
        Workload::ServeMixed16 => fleet_streams(workload, p.seed, p.tiny).len() as u64,
    }
}

/// Asserts the timed instance's modeled values equal the check instance's,
/// bit for bit, over the calls both made.
fn compare_models(out: &mut Outcome, timed: &[[f64; 2]], checked: &[[f64; 2]]) {
    let n = timed.len().min(checked.len());
    if let Some(i) = (0..n).find(|&i| {
        timed[i][0].to_bits() != checked[i][0].to_bits()
            || timed[i][1].to_bits() != checked[i][1].to_bits()
    }) {
        out.violation(format!(
            "modeled values of call {i} differ between two runs of one seed: {:?} vs {:?}",
            timed[i], checked[i]
        ));
    }
}

/// Folds the check's findings into the outcome.
fn apply_check(out: &mut Outcome, c: &Checked) {
    out.attempted += c.frames;
    out.failed += c.failed;
    for problem in &c.problems {
        out.violation(problem.clone());
    }
    out.lines.push(format!(
        "check: {} frames compared bit for bit with the serial depth-1 reference, {} failed",
        c.frames, c.failed
    ));
    out.lines.push(format!(
        "determinism: model_mj_per_frame bits {:016x}, model_ms_per_frame bits {:016x}, qabf bits {:016x}",
        c.model_mj_per_frame.to_bits(),
        (c.model_s_per_frame * 1e3).to_bits(),
        mean(&c.qabf).to_bits()
    ));
}

/// Folds a timed window's attempts and failures into the outcome.
fn apply_window(out: &mut Outcome, win: &Window, label: &str) {
    out.attempted += win.attempted;
    out.failed += win.dropped;
    if let Some(e) = &win.error {
        out.failed += 1;
        out.violation(format!("{label} window: {e}"));
    }
    if win.dropped > 0 {
        out.violation(format!("{label} window: {} frames dropped", win.dropped));
    }
}

/// Runs one workload and reports its metrics.
///
/// # Errors
///
/// Errors building a system or its reference.
pub fn run(workload: Workload, p: &Params) -> Result<Outcome, BenchError> {
    let mut out = Outcome::default();
    let inputs = inputs(workload, p);
    let shape = workload.shape(p.tiny);
    out.lines.push(format!(
        "workload {} seed {} seconds {} trace {} | frame mix {:?}, {} worker threads, depth {}, {} host CPUs",
        workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        shape.mix,
        shape.threads,
        shape.depth,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    if p.trace {
        run_traced(workload, p, &inputs, &mut out)?;
    } else {
        run_timed(workload, p, &inputs, &mut out)?;
    }
    Ok(out)
}

/// Timings come from the windows run at the host's contended speed: those
/// whose delivery rate is at most this multiple of the run's 5th-percentile
/// window rate. Other tenants of the shared host halve a core's speed for
/// stretches of tens of seconds, and which cores they share shifts between
/// runs. Almost every run spends some windows at the contended speed, so
/// selecting them gives the steadiest run-to-run figures; the windows run
/// faster than that are listed in the table but not used.
const CONTENDED: f64 = 1.25;

/// `--trace 0`: several instances are built in turn (each build is one
/// set-up sample); each warms up and runs consecutive timed windows that
/// together fill `--seconds`. Then the check.
fn run_timed(
    workload: Workload,
    p: &Params,
    inputs: &Arc<Vec<(Image, Image)>>,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    let per_call = frames_per_call(workload, p);
    let (builds, per_build) = workload.windows(p.tiny);
    let seconds = p.seconds / (builds * per_build) as f64;
    let mut setups = Vec::with_capacity(builds);
    let mut windows = Vec::with_capacity(builds * per_build);
    let mut models = Vec::with_capacity(builds);
    for _ in 0..builds {
        let t0 = Instant::now();
        let mut sys = build(workload, p, inputs)?;
        setups.push(t0.elapsed().as_secs_f64());
        out.attempted += per_call;
        for w in 0..per_build {
            let warmup = if w == 0 { WARMUP_CALLS } else { 0 };
            let win = timed_loop(sys.as_mut(), per_call, warmup, seconds, None);
            apply_window(out, &win, "timed");
            windows.push(win);
        }
        models.push(sys.model_log().to_vec());
    }
    let peak = peak_rss_mib();
    let c = check(workload, p)?;
    for m in &models {
        compare_models(out, m, &c.model);
    }
    apply_check(out, &c);
    push_end_to_end(out, &windows, &c, &setups, peak);
    Ok(())
}

/// `--trace 1`: one instance runs alternating untraced and traced slices
/// (the tracing overhead), then the layer probes and the check.
fn run_traced(
    workload: Workload,
    p: &Params,
    inputs: &Arc<Vec<(Image, Image)>>,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    let per_call = frames_per_call(workload, p);
    let mut sys = build(workload, p, inputs)?;
    out.attempted += per_call;
    // Untraced and traced slices alternate, so drift on a shared host
    // hits both sides alike.
    const SLICES: usize = 4;
    let slice = p.seconds / (2 * SLICES) as f64;
    let mut rec = Recorder::new(LOG_CAPACITY);
    let mut sides = [(0u64, 0.0f64); 2];
    for k in 0..SLICES {
        for (side, traced) in [false, true].into_iter().enumerate() {
            let warmup = if k == 0 && !traced { WARMUP_CALLS } else { 0 };
            let r = traced.then_some(&mut rec);
            let win = timed_loop(sys.as_mut(), per_call, warmup, slice, r);
            apply_window(out, &win, if traced { "traced" } else { "untraced" });
            sides[side].0 += win.frames;
            sides[side].1 += win.elapsed_s;
        }
    }
    drop(sys);
    let [fps_plain, fps_traced] = sides.map(|(frames, s)| frames as f64 / s);
    out.lines.push(format!(
        "tracing overhead: untraced {fps_plain:.3} fps ({} frames), traced {fps_traced:.3} fps ({} frames)",
        sides[0].0, sides[1].0
    ));
    out.lines
        .push("main-loop spans (count, total ms, self ms):".to_string());
    for (name, n, total, self_ms) in rec.summary() {
        out.lines
            .push(format!("  {name:<18} {n:>7} {total:>12.3} {self_ms:>12.3}"));
    }
    layers::probe(workload, p, out)?;
    out.push(
        "trace.overhead",
        "ratio",
        fps_plain / fps_traced - 1.0,
        "untraced fps / traced fps - 1, main loop".to_string(),
    );
    let c = check(workload, p)?;
    apply_check(out, &c);
    Ok(())
}

fn push_end_to_end(out: &mut Outcome, wins: &[Window], c: &Checked, setups: &[f64], peak: f64) {
    let rates: Vec<f64> = wins.iter().map(Window::fps).collect();
    let slow = quantile(&sorted(&rates), 0.05);
    let kept: Vec<usize> = (0..wins.len())
        .filter(|&i| rates[i] <= CONTENDED * slow)
        .collect();
    let pick = |v: &[f64]| kept.iter().map(|&i| v[i]).collect::<Vec<f64>>();
    // Latency quantiles are exact per window; the metric is their median
    // over the selected windows. Pooling windows instead would mix
    // frames of different host speeds into one distribution, and a
    // quantile that falls between two frame-size clusters (the adaptive
    // mix) then jumps with the mix.
    let lat = |q: f64| -> Vec<f64> {
        wins.iter()
            .map(|w| quantile(&sorted(&w.lat_ms), q))
            .collect()
    };
    let samples: usize = kept.iter().map(|&i| wins[i].lat_ms.len()).sum();
    let frames: u64 = kept.iter().map(|&i| wins[i].frames).sum();
    let kept_note = format!(
        "{} of {} windows at the contended rate",
        kept.len(),
        wins.len()
    );
    out.lines.push(format!(
        "window rates (frames/s): {rates:.2?}; contended: rate <= {CONTENDED} x {slow:.2}"
    ));
    out.push(
        "fps",
        "frames/s",
        median(&pick(&rates)),
        format!("median window rate; {kept_note}, {frames} frames"),
    );
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        out.push(
            name,
            "ms",
            median(&pick(&lat(q))),
            format!("median of exact per-window quantiles; {kept_note}, n={samples}"),
        );
    }
    out.push(
        "model_mj_per_frame",
        "model_mJ",
        c.model_mj_per_frame,
        format!("modeled (ZC702), {} checked frames", c.frames),
    );
    out.push(
        "model_ms_per_frame",
        "model_ms",
        c.model_s_per_frame * 1e3,
        format!("modeled (ZC702), {} checked frames", c.frames),
    );
    out.push(
        "qabf",
        "score",
        mean(&c.qabf),
        format!("mean Petrovic QAB/F, {} frames", c.qabf.len()),
    );
    out.push(
        "frames_ok_ratio",
        "ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        format!("1 - error_rate, {} attempted", out.attempted),
    );
    out.push(
        "setup_s",
        "s",
        median(setups),
        format!(
            "median of {} set-ups, construction to first delivery",
            setups.len()
        ),
    );
    out.push(
        "peak_rss_mib",
        "MiB",
        peak,
        "VmHWM after the timed window".to_string(),
    );
}
