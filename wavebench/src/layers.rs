//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public entry points at the workload's frame
//! geometries, inside spans, and reduces the spans to the layer's metrics.
//! A multi-geometry workload reports the mean of per-geometry medians,
//! weighted by the geometry's share of the workload's frames. Every layer is
//! probed on every workload, so each traced run reports the same metrics;
//! a layer the workload does not exercise is marked `off-path` in the table.

use std::collections::VecDeque;
use std::sync::Arc;

use wavefuse_core::cost::TransformPlan;
use wavefuse_core::engine::build_worker_pool;
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::rules::fuse_pyramids_with_kernel;
use wavefuse_core::serve::StreamManager;
use wavefuse_core::{Backend, FusionEngine, FusionRule, FusionScratch, LowpassRule};
use wavefuse_dtcwt::{ComboStore, CwtPyramid, Dtcwt, Image, Scratch};
use wavefuse_simd::SimdKernel;
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;
use wavefuse_zynq::FpgaKernel;

use crate::spans::{Recorder, Span};
use crate::stats::{mean, median};
use crate::workloads::{energy_scheduler, fleet_config, fleet_streams, Params, Workload};
use crate::{BenchError, Outcome, LEVELS};

/// Request ids of a geometry's spans start at `geometry * GEOMETRY_STRIDE`.
const GEOMETRY_STRIDE: u64 = 1 << 20;

/// One geometry of the workload's frame mix with its captured frames.
struct Geometry {
    dims: (usize, usize),
    weight: f64,
    /// Visible/thermal pairs from the cameras.
    pairs: Vec<(Image, Image)>,
}

impl Geometry {
    fn request(&self, g: usize, rep: usize) -> u64 {
        g as u64 * GEOMETRY_STRIDE + rep as u64
    }
}

/// Probe repetitions at a geometry: enough frames for a stable median,
/// fewer for big frames so a traced run stays short.
fn reps(dims: (usize, usize), tiny: bool) -> usize {
    if tiny {
        3
    } else {
        (2_000_000 / (dims.0 * dims.1)).clamp(5, 24)
    }
}

/// Median duration (ms) of the spans named `name` at geometry `g`.
fn med(rec: &Recorder, name: &str, g: usize) -> f64 {
    let v: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name && s.end_ns > 0 && s.request / GEOMETRY_STRIDE == g as u64)
        .map(Span::ms)
        .collect();
    median(&v)
}

/// Mean of `f(g)` over the geometries with `keep(g)`, weighted by share.
fn weighted(geoms: &[Geometry], keep: impl Fn(usize) -> bool, f: impl Fn(usize) -> f64) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (g, geom) in geoms.iter().enumerate().filter(|(g, _)| keep(*g)) {
        num += geom.weight * f(g);
        den += geom.weight;
    }
    num / den
}

/// Layers each workload's own loop calls; the rest are probed off-path.
fn on_path(workload: Workload, layer: &str) -> bool {
    let layers: &[&str] = match workload {
        Workload::VgaNeonD2 => &["video", "dtcwt", "fusion", "ring", "engine", "pipeline"],
        Workload::PaperSizesAdaptive => &["dtcwt", "fusion", "engine", "zynq", "adaptive", "power"],
        Workload::ServeMixed16 => &["video", "dtcwt", "fusion", "ring", "engine", "serve"],
    };
    layers.iter().any(|l| layer.starts_with(l))
}

/// Runs every layer probe at the workload's geometries and pushes the
/// per-layer metrics (all of them but `trace.overhead`) in
/// `BENCHMARK.json` order.
///
/// # Errors
///
/// Engine, capture and transform errors.
pub fn probe(workload: Workload, p: &Params, out: &mut Outcome) -> Result<(), BenchError> {
    let shape = workload.shape(p.tiny);
    let mut rec = Recorder::new(1 << 14);
    let mut m: Vec<(&'static str, f64, String)> = Vec::new();

    // --- video: one thermal field plus one visible frame per pair ---
    let mut geoms = Vec::new();
    for (g, &(dims, weight)) in shape.mix.iter().enumerate() {
        let scene = ScenePair::new(p.seed);
        let mut thermal = ThermalCamera::new(scene.clone(), dims.0, dims.1);
        let mut web = WebCamera::new(scene, dims.0, dims.1);
        let (mut vis, mut th) = (Frame::filled(0, 0, 0.0), Frame::filled(0, 0, 0.0));
        thermal.capture_into(&mut th)?;
        web.capture_into(&mut vis);
        let mut geom = Geometry {
            dims,
            weight: weight as f64,
            pairs: Vec::new(),
        };
        for r in 0..reps(dims, p.tiny) {
            rec.time("video.capture", geom.request(g, r), || {
                thermal.capture_into(&mut th)?;
                web.capture_into(&mut vis);
                Ok::<(), BenchError>(())
            })?;
            geom.pairs.push((vis.image().clone(), th.image().clone()));
        }
        geoms.push(geom);
    }
    let all = |_: usize| true;
    m.push((
        "video.capture_ms",
        weighted(&geoms, all, |g| med(&rec, "video.capture", g)),
        "WebCamera + ThermalCamera capture_into per pair".into(),
    ));

    // --- dtcwt + simd: serial transforms and dispatcher-side fusion ---
    let rule = FusionRule::WindowEnergy { radius: 1 };
    let mut plans = Vec::new();
    for (g, geom) in geoms.iter().enumerate() {
        let dt = Dtcwt::new(LEVELS)?;
        let mut simd = SimdKernel::new();
        let (mut combos, mut scratch) = (ComboStore::new(), Scratch::new());
        let (mut pa, mut pb, mut pf) = (
            CwtPyramid::empty(),
            CwtPyramid::empty(),
            CwtPyramid::empty(),
        );
        let mut fs = FusionScratch::new();
        let mut img = Image::zeros(geom.dims.0, geom.dims.1);
        for (r, (a, b)) in geom.pairs.iter().enumerate() {
            // The first pair warms the scratch buffers and is not timed.
            let req = if r == 0 { u64::MAX } else { geom.request(g, r) };
            rec.time("dtcwt.forward", req, || {
                dt.forward_into(&mut simd, a, &mut combos, &mut scratch, &mut pa)
            })?;
            rec.time("dtcwt.forward", req, || {
                dt.forward_into(&mut simd, b, &mut combos, &mut scratch, &mut pb)
            })?;
            rec.time("fusion.fuse", req, || {
                fuse_pyramids_with_kernel(
                    &mut simd,
                    &pa,
                    &pb,
                    rule,
                    LowpassRule::Average,
                    &mut fs,
                    &mut pf,
                )
            });
            rec.time("dtcwt.inverse", req, || {
                dt.inverse_into(&mut simd, &pf, &mut scratch, &mut img)
            })?;
        }
        plans.push(TransformPlan::dtcwt(geom.dims.0, geom.dims.1, LEVELS)?);
    }
    let per_geometry =
        |name: &str| -> Vec<f64> { (0..geoms.len()).map(|g| med(&rec, name, g)).collect() };
    let (fwd_ms, inv_ms) = (per_geometry("dtcwt.forward"), per_geometry("dtcwt.inverse"));
    let fwd = |g: usize| fwd_ms[g];
    let inv = |g: usize| inv_ms[g];
    m.push((
        "dtcwt.forward_ms",
        weighted(&geoms, all, fwd),
        "serial forward_into, SimdKernel".into(),
    ));
    m.push((
        "dtcwt.inverse_ms",
        weighted(&geoms, all, inv),
        "serial inverse_into, SimdKernel".into(),
    ));
    // Computed MAC counts (TransformPlan) over measured time, aggregated
    // over the mix as total MACs / total time.
    let gmacs = |macs: &dyn Fn(usize) -> f64, ms: &dyn Fn(usize) -> f64| {
        weighted(&geoms, all, macs) / weighted(&geoms, all, ms) / 1e6
    };
    m.push((
        "dtcwt.forward_gmacs",
        gmacs(&|g| plans[g].forward_macs() as f64, &fwd),
        "computed MACs (TransformPlan::forward_macs) / measured time".into(),
    ));
    m.push((
        "dtcwt.inverse_gmacs",
        gmacs(&|g| plans[g].inverse_macs() as f64, &inv),
        "computed MACs (TransformPlan::inverse_macs) / measured time".into(),
    ));
    m.push((
        "fusion.fuse_ms",
        weighted(&geoms, all, |g| med(&rec, "fusion.fuse", g)),
        "rules::fuse_pyramids_with_kernel, SimdKernel, window-energy rule".into(),
    ));

    // --- dtcwt::workers: the work-stealing ring ---
    let pool = build_worker_pool(2, true);
    let dt = Arc::new(Dtcwt::new(LEVELS)?);
    let mut sched = vec![[0.0f64; 3]; geoms.len()];
    for (g, geom) in geoms.iter().enumerate() {
        let (mut ca, mut cb) = (ComboStore::new(), ComboStore::new());
        let (mut pa, mut pb) = (CwtPyramid::empty(), CwtPyramid::empty());
        let mut outcomes = Vec::new();
        let mut deltas = Vec::new();
        for (r, (a, b)) in geom.pairs.iter().enumerate() {
            let (a, b) = (Arc::new(a.clone()), Arc::new(b.clone()));
            let req = if r == 0 { u64::MAX } else { geom.request(g, r) };
            let before = pool.sched_totals();
            rec.time("ring.forward_pair", req, || {
                // Worker kernel slot 1 is the SIMD kernel (build_worker_pool).
                dt.forward_pooled_pair(
                    &pool,
                    1,
                    &a,
                    &mut ca,
                    &mut pa,
                    &b,
                    &mut cb,
                    &mut pb,
                    &mut outcomes,
                )
            })?;
            let after = pool.sched_totals();
            if r > 0 {
                deltas.push([
                    (after.steals - before.steals) as f64,
                    (after.batches_claimed - before.batches_claimed) as f64,
                    (after.parked_ns - before.parked_ns) as f64 / 1e6,
                ]);
            }
        }
        for (k, s) in sched[g].iter_mut().enumerate() {
            *s = mean(&deltas.iter().map(|d| d[k]).collect::<Vec<_>>());
        }
    }
    let pair = |g: usize| med(&rec, "ring.forward_pair", g);
    m.push((
        "ring.forward_pair_ms",
        weighted(&geoms, all, pair),
        "forward_pooled_pair, build_worker_pool(2, true)".into(),
    ));
    m.push((
        "ring.speedup",
        2.0 * weighted(&geoms, all, fwd) / weighted(&geoms, all, pair),
        "2 x serial forward / pooled pair".into(),
    ));
    for (k, name) in ["ring.steals", "ring.batches_claimed", "ring.parked_ms"]
        .into_iter()
        .enumerate()
    {
        m.push((
            name,
            weighted(&geoms, all, |g| sched[g][k]),
            "per pair, delta of sched_totals()".into(),
        ));
    }

    // --- engine: submit/finish on the workload's engine configuration ---
    let mut hit_ratio = vec![0.0; geoms.len()];
    for (g, geom) in geoms.iter().enumerate() {
        let mut engine = FusionEngine::new(LEVELS)?;
        let backend = match workload {
            Workload::PaperSizesAdaptive => energy_scheduler().choose(geom.dims.0, geom.dims.1)?,
            Workload::ServeMixed16 => {
                engine.set_shared_pool(Arc::new(build_worker_pool(shape.threads, true)));
                Backend::Neon
            }
            Workload::VgaNeonD2 => {
                engine.set_threads(shape.threads);
                Backend::Neon
            }
        };
        engine.set_pipeline_depth(shape.depth);
        let mut pending = VecDeque::with_capacity(shape.depth);
        let n = geom.pairs.len();
        for r in 0..n + shape.depth {
            let req = geom.request(g, r);
            if let Some((a, b)) = geom.pairs.get(r) {
                pending.push_back(
                    rec.time("engine.submit", req, || engine.fuse_submit(a, b, backend))?,
                );
            }
            if pending.len() == shape.depth || r >= n {
                if let Some(pf) = pending.pop_front() {
                    let fused = rec.time("engine.finish", req, || engine.fuse_finish(pf))?;
                    engine.recycle(fused);
                }
            }
        }
        let stats = engine.buffer_pool().stats();
        hit_ratio[g] = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    }
    m.push((
        "engine.submit_ms",
        weighted(&geoms, all, |g| med(&rec, "engine.submit", g)),
        "FusionEngine::fuse_submit".into(),
    ));
    m.push((
        "engine.finish_ms",
        weighted(&geoms, all, |g| med(&rec, "engine.finish", g)),
        "FusionEngine::fuse_finish (waits for the in-flight inverse)".into(),
    ));
    m.push((
        "engine.pool_hit_ratio",
        weighted(&geoms, all, |g| hit_ratio[g]),
        "buffer_pool().stats() hits / acquisitions".into(),
    ));

    // --- pipeline: capture + fuse steps ---
    for (g, geom) in geoms.iter().enumerate() {
        let backend = match workload {
            Workload::PaperSizesAdaptive => BackendChoice::Adaptive(Box::new(energy_scheduler())),
            _ => BackendChoice::Fixed(Backend::Neon),
        };
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: geom.dims,
            levels: LEVELS,
            backend,
            scene_seed: p.seed,
            threads: shape.threads,
            depth: shape.depth,
        })?;
        for _ in 0..shape.depth {
            let fused = pipe.step()?;
            pipe.recycle(fused);
        }
        for r in 0..geom.pairs.len() {
            let fused = rec.time("pipeline.step", geom.request(g, r), || pipe.step())?;
            pipe.recycle(fused);
        }
    }
    m.push((
        "pipeline.step_ms",
        weighted(&geoms, all, |g| med(&rec, "pipeline.step", g)),
        "VideoFusionPipeline::step".into(),
    ));

    // --- zynq: the simulated FPGA transform ---
    let mut cycles = vec![0.0; geoms.len()];
    for (g, geom) in geoms.iter().enumerate() {
        let dt = Dtcwt::new(LEVELS)?;
        let mut fpga = FpgaKernel::new();
        let (mut combos, mut scratch, mut pyr) =
            (ComboStore::new(), Scratch::new(), CwtPyramid::empty());
        let mut per_call = Vec::new();
        for (r, (a, _)) in geom
            .pairs
            .iter()
            .enumerate()
            .take(fpga_reps(geom.dims, p.tiny))
        {
            let req = if r == 0 { u64::MAX } else { geom.request(g, r) };
            let before = fpga.ledger().pl_cycles;
            rec.time("zynq.forward", req, || {
                dt.forward_into(&mut fpga, a, &mut combos, &mut scratch, &mut pyr)
            })?;
            per_call.push((fpga.ledger().pl_cycles - before) as f64);
        }
        cycles[g] = mean(&per_call);
    }
    m.push((
        "zynq.forward_ms",
        weighted(&geoms, all, |g| med(&rec, "zynq.forward", g)),
        "forward_into with FpgaKernel (host time)".into(),
    ));

    // --- adaptive + zynq + power: the scheduler's choice, then fuse ---
    let mut engine = FusionEngine::new(LEVELS)?;
    let mut sched = energy_scheduler();
    let pl_w = engine.power_model().pl_increment_w();
    // Per geometry: FPGA share, mean model error, PL mJ, energy mJ.
    let mut acc = vec![[0.0f64; 4]; geoms.len()];
    for (g, geom) in geoms.iter().enumerate() {
        let n = fpga_reps(geom.dims, p.tiny);
        for (r, (a, b)) in geom.pairs.iter().enumerate().take(n) {
            let req = geom.request(g, r);
            let (w, h) = geom.dims;
            let backend = rec.time("adaptive.choose", req, || sched.choose(w, h))?;
            let name = if backend == Backend::Fpga {
                "zynq.fuse"
            } else {
                "engine.fuse"
            };
            let fused = rec.time(name, req, || engine.fuse(a, b, backend))?;
            let total = fused.timing.total_seconds();
            acc[g][0] += f64::from(u8::from(backend == Backend::Fpga));
            acc[g][1] += (fused.predicted_s - total).abs() / total;
            acc[g][2] += pl_w * fused.pl_busy_s * 1e3;
            acc[g][3] += fused.energy_mj;
            engine.recycle(fused);
        }
        for a in &mut acc[g] {
            *a /= n as f64;
        }
    }
    m.push((
        "zynq.fuse_ms",
        weighted(&geoms, |g| acc[g][0] > 0.0, |g| med(&rec, "zynq.fuse", g)),
        "FusionEngine::fuse host time, frames the scheduler sent to the FPGA".into(),
    ));
    m.push((
        "zynq.ledger_cycles",
        weighted(&geoms, all, |g| cycles[g]),
        "PL cycles per forward, FpgaKernel::ledger()".into(),
    ));
    m.push((
        "adaptive.choose_us",
        weighted(&geoms, all, |g| med(&rec, "adaptive.choose", g) * 1e3),
        "AdaptiveScheduler::choose, Model(Energy)".into(),
    ));
    let counts = sched.decision_counts();
    m.push((
        "adaptive.fpga_share",
        weighted(&geoms, all, |g| acc[g][0]),
        format!(
            "share of frames sent to the FPGA; decision_counts() {:?}",
            counts.as_array()
        ),
    ));
    m.push((
        "adaptive.model_error",
        weighted(&geoms, all, |g| acc[g][1]),
        "|predicted_s - modeled total| / modeled total".into(),
    ));
    m.push((
        "power.pl_share",
        weighted(&geoms, all, |g| acc[g][2]) / weighted(&geoms, all, |g| acc[g][3]),
        "modeled: PL increment x pl_busy_s / energy_mj".into(),
    ));

    // --- serve: the workload's frame mix as a fleet ---
    let mut mgr = StreamManager::new(fleet_config(shape.threads));
    for cfg in fleet_streams(workload, p.seed, p.tiny) {
        mgr.admit(cfg)?;
    }
    mgr.run(1)?;
    let rounds = if p.tiny { 2 } else { 8 };
    let report = rec.time("serve.run", 0, || mgr.run(rounds))?;
    m.push((
        "serve.fairness",
        report.fairness,
        format!("min/max stream fps over {rounds} rounds"),
    ));
    m.push((
        "serve.plan_cache_hits",
        mgr.plan_cache_hits() as f64,
        format!(
            "{} admissions, {} plans",
            mgr.stream_count(),
            mgr.plan_cache_entries()
        ),
    ));
    m.push((
        "serve.drops",
        report.total_drops as f64,
        "fleet backpressure drops".into(),
    ));

    for (name, unit) in crate::PER_LAYER
        .iter()
        .filter(|(n, _)| *n != "trace.overhead")
    {
        let (_, value, note) = m
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("every per-layer metric but the tracing overhead is probed");
        let layer = name.split('.').next().expect("layer-qualified name");
        let path = if on_path(workload, layer) {
            ""
        } else {
            "[off-path] "
        };
        out.push(name, unit, *value, format!("{path}{note}"));
    }
    out.lines
        .push("probe spans (count, total ms, self ms):".to_string());
    for (name, n, total, self_ms) in rec.summary() {
        out.lines
            .push(format!("  {name:<18} {n:>7} {total:>12.3} {self_ms:>12.3}"));
    }
    Ok(())
}

/// Repetitions of the FPGA probes (the simulator is slow on big frames).
fn fpga_reps(dims: (usize, usize), tiny: bool) -> usize {
    if tiny {
        3
    } else {
        (600_000 / (dims.0 * dims.1)).clamp(3, reps(dims, false))
    }
}
