//! Experiment runners.
//!
//! Every function actually *executes* the system — frames are rendered by
//! the synthetic scene, captured through the camera models, transformed by
//! the real kernels (the FPGA times come from the cycle-level simulator's
//! ledger) — and returns the series the corresponding paper artifact plots.

use wavefuse_trace::{JsonValue, ToJson};

use wavefuse_core::adaptive::{crossover_edge, AdaptiveScheduler, Objective, Policy};
use wavefuse_core::baseline::{average_fusion, dwt_fusion, laplacian_fusion, swt_fusion};
use wavefuse_core::cost::{CostModel, Direction, TransformPlan};
use wavefuse_core::engine::PhaseTiming;
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::profile::profile_fusion;
use wavefuse_core::rules::{FusionRule, LowpassRule};
use wavefuse_core::serve::{FleetConfig, ServeReport, StreamConfig, StreamManager};
use wavefuse_core::{Backend, BackendCounts, FusionEngine, FusionError};
use wavefuse_dtcwt::{FilterBank, Image};
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;
use wavefuse_zynq::bus::gp_port_ps_cycles;
use wavefuse_zynq::resources::{estimate, XC7Z020};

use crate::paper::{FRAMES_PER_RUN, LEVELS, PAPER_SIZES};

/// Scene seed used by every experiment (reproducibility).
pub const SCENE_SEED: u64 = 2016;

/// One run of the evaluation matrix: a frame size crossed with a backend.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Frame geometry.
    pub size: (usize, usize),
    /// Backend label (paper naming).
    pub backend: String,
    /// Ten-frame forward-phase seconds.
    pub forward_s: f64,
    /// Ten-frame fusion-phase seconds.
    pub fusion_s: f64,
    /// Ten-frame inverse-phase seconds.
    pub inverse_s: f64,
    /// Ten-frame total seconds.
    pub total_s: f64,
    /// Ten-frame energy, millijoules.
    pub energy_mj: f64,
}

/// Runs the full 5-sizes x 3-backends matrix of the paper's §VII: ten
/// frames captured, decomposed, fused and reconstructed per cell.
///
/// # Errors
///
/// Propagates pipeline errors (none occur for the paper's geometries).
pub fn collect_matrix() -> Result<Vec<MatrixEntry>, FusionError> {
    let mut rows = Vec::new();
    for &(w, h) in &PAPER_SIZES {
        for backend in Backend::ALL {
            let mut pipe = VideoFusionPipeline::new(PipelineConfig {
                frame_size: (w, h),
                levels: LEVELS,
                backend: BackendChoice::Fixed(backend),
                scene_seed: SCENE_SEED,
                threads: 1,
                depth: 1,
            })?;
            let stats = pipe.run(FRAMES_PER_RUN)?;
            rows.push(MatrixEntry {
                size: (w, h),
                backend: backend.label().to_string(),
                forward_s: stats.timing.forward_s,
                fusion_s: stats.timing.fusion_s,
                inverse_s: stats.timing.inverse_s,
                total_s: stats.timing.total_seconds(),
                energy_mj: stats.energy_mj,
            });
        }
    }
    Ok(rows)
}

/// Which quantity of the matrix a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// Fig. 9a: forward-phase seconds.
    Forward,
    /// Fig. 9c: inverse-phase seconds.
    Inverse,
    /// Fig. 9b: total seconds.
    Total,
    /// Fig. 10: energy in millijoules.
    Energy,
}

/// One per-size row of a Fig. 9/10 series: the three modes' values.
#[derive(Debug, Clone)]
pub struct SeriesRow {
    /// Frame geometry.
    pub size: (usize, usize),
    /// ARM-only value.
    pub arm: f64,
    /// ARM+NEON value.
    pub neon: f64,
    /// ARM+FPGA value.
    pub fpga: f64,
}

/// Extracts a figure's series from the collected matrix.
pub fn fig9_series(matrix: &[MatrixEntry], quantity: Quantity) -> Vec<SeriesRow> {
    let value = |e: &MatrixEntry| match quantity {
        Quantity::Forward => e.forward_s,
        Quantity::Inverse => e.inverse_s,
        Quantity::Total => e.total_s,
        Quantity::Energy => e.energy_mj,
    };
    PAPER_SIZES
        .iter()
        .map(|&size| {
            let get = |label: &str| {
                matrix
                    .iter()
                    .find(|e| e.size == size && e.backend == label)
                    .map(value)
                    .expect("matrix covers all cells")
            };
            SeriesRow {
                size,
                arm: get("ARM Only"),
                neon: get("ARM+NEON"),
                fpga: get("ARM+FPGA"),
            }
        })
        .collect()
}

/// Fig. 2: phase-level profile of fusing two captured 88x72 frames on the
/// ARM, as percentages.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig2_profile() -> Result<Vec<(String, f64)>, FusionError> {
    let scene = ScenePair::new(SCENE_SEED);
    let a = scene.render_visible(88, 72, 0.0);
    let b = scene.render_thermal(88, 72, 0.0);
    let mut engine = FusionEngine::new(LEVELS)?;
    let report = profile_fusion(&mut engine, &a, &b, Backend::Arm)?;
    Ok(report
        .percentages()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect())
}

/// One Table I row: resource, used, available, percent.
#[derive(Debug, Clone)]
pub struct ResourceRow {
    /// Resource name.
    pub resource: String,
    /// Units used.
    pub used: u64,
    /// Units available on the xc7z020.
    pub available: u64,
    /// Rounded percentage.
    pub percent: u64,
}

/// Table I: estimated utilization of the wavelet engine, for the paper's
/// 12-tap geometry and for this reproduction's deployed 20-tap engine.
pub fn table1_resources(taps: usize) -> Vec<ResourceRow> {
    let u = estimate(taps);
    let p = u.percentages(&XC7Z020);
    [
        ("Registers", u.registers, XC7Z020.registers, p[0]),
        ("LUTs", u.luts, XC7Z020.luts, p[1]),
        ("Slices", u.slices, XC7Z020.slices, p[2]),
        ("BUFG", u.bufg, XC7Z020.bufg, p[3]),
    ]
    .into_iter()
    .map(|(r, used, avail, pct)| ResourceRow {
        resource: r.to_string(),
        used,
        available: avail,
        percent: pct,
    })
    .collect()
}

/// Crossover ("breaking point") analysis.
#[derive(Debug, Clone)]
pub struct CrossoverReport {
    /// Smallest square edge where the FPGA's forward phase beats NEON's.
    pub forward_edge: Option<usize>,
    /// Smallest square edge where the FPGA's inverse phase beats NEON's.
    pub inverse_edge: Option<usize>,
    /// Smallest square edge where the FPGA wins on total frame time.
    pub total_edge: Option<usize>,
    /// Smallest square edge where the FPGA wins on energy.
    pub energy_edge: Option<usize>,
}

/// Sweeps square frame sizes to locate all four breaking points.
///
/// # Errors
///
/// Propagates model errors for unsupported geometries.
pub fn crossover_report() -> Result<CrossoverReport, FusionError> {
    let model = CostModel::calibrated();
    let power = wavefuse_power::PowerModel::zc702();
    let phase_edge = |dir: Direction| -> Option<usize> {
        (24..=96).find(|&e| {
            let plan = TransformPlan::dtcwt(e, e, LEVELS).expect("supported");
            model.fpga_seconds(&plan, dir) < model.neon_seconds(&plan, dir)
        })
    };
    Ok(CrossoverReport {
        forward_edge: phase_edge(Direction::Forward),
        inverse_edge: phase_edge(Direction::Inverse),
        total_edge: crossover_edge(&model, &power, LEVELS, Objective::Time, 24, 96)?,
        energy_edge: crossover_edge(&model, &power, LEVELS, Objective::Energy, 24, 96)?,
    })
}

/// Result of running one backend policy over the mixed-size workload.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Policy label.
    pub policy: String,
    /// Total modeled seconds over the workload.
    pub total_s: f64,
    /// Total modeled energy, millijoules.
    pub energy_mj: f64,
    /// Frames per backend, indexable by [`Backend`].
    pub backend_usage: BackendCounts,
}

/// The adaptive-execution experiment (the paper's §VIII future work): a
/// workload whose frame size varies (as decomposition level and sensor
/// windowing do in practice), run under fixed-NEON, fixed-FPGA, and the
/// model-driven and online adaptive policies.
///
/// # Errors
///
/// Propagates engine errors.
pub fn adaptive_comparison() -> Result<Vec<PolicyOutcome>, FusionError> {
    let sizes: Vec<(usize, usize)> = PAPER_SIZES
        .iter()
        .cycle()
        .take(PAPER_SIZES.len() * 4)
        .copied()
        .collect();
    let scene = ScenePair::new(SCENE_SEED);

    let mut outcomes = Vec::new();
    let policies: Vec<(String, Option<Policy>, Option<Backend>)> = vec![
        ("fixed ARM".into(), None, Some(Backend::Arm)),
        ("fixed NEON".into(), None, Some(Backend::Neon)),
        ("fixed FPGA".into(), None, Some(Backend::Fpga)),
        (
            "adaptive (model, time)".into(),
            Some(Policy::Model(Objective::Time)),
            None,
        ),
        (
            "adaptive (model, energy)".into(),
            Some(Policy::Model(Objective::Energy)),
            None,
        ),
        (
            "adaptive (online, time)".into(),
            Some(Policy::Online(Objective::Time)),
            None,
        ),
    ];

    for (label, policy, fixed) in policies {
        let mut engine = FusionEngine::new(LEVELS)?;
        let mut sched = policy.map(|p| AdaptiveScheduler::new(p, LEVELS));
        let mut total_s = 0.0;
        let mut energy = 0.0;
        let mut usage = BackendCounts::new();
        for (i, &(w, h)) in sizes.iter().enumerate() {
            let t = i as f64 / 30.0;
            let a = scene.render_visible(w, h, t);
            let b = scene.render_thermal(w, h, t);
            let backend = match (&mut sched, fixed) {
                (Some(s), _) => s.choose(w, h)?,
                (None, Some(b)) => b,
                _ => unreachable!("policy xor fixed"),
            };
            let out = engine.fuse(&a, &b, backend)?;
            if let Some(s) = &mut sched {
                s.observe(w, h, backend, out.timing.total_seconds(), out.energy_mj);
            }
            total_s += out.timing.total_seconds();
            energy += out.energy_mj;
            usage[backend] += 1;
        }
        outcomes.push(PolicyOutcome {
            policy: label,
            total_s,
            energy_mj: energy,
            backend_usage: usage,
        });
    }
    Ok(outcomes)
}

/// One ablation row: a design choice toggled, with resulting ten-frame
/// 88x72 forward-phase time.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub configuration: String,
    /// Ten-frame forward-phase seconds at 88x72.
    pub forward_s: f64,
    /// Slowdown versus the full design.
    pub slowdown: f64,
}

/// Ablates the paper's §V design choices on the FPGA path: the ACP
/// hardware `memcpy` (vs. CPU-driven general-purpose port transfers) and
/// the Fig. 5 double buffering (vs. serial copy-then-process).
///
/// # Errors
///
/// Propagates model errors.
pub fn ablation_report() -> Result<Vec<AblationRow>, FusionError> {
    let model = CostModel::calibrated();
    let plan = TransformPlan::dtcwt(88, 72, LEVELS)?;
    let frames = FRAMES_PER_RUN as f64;
    let full = 2.0 * frames * model.fpga_seconds(&plan, Direction::Forward);

    // (a) No double buffering: copy and engine run serialize.
    let ps_t = model.zynq.ps_period();
    let pl_t = model.zynq.pl_period();
    let mut no_overlap = 0.0;
    let mut gp_port = 0.0;
    for op in plan.forward_ops() {
        let row = op.row_cycles(Direction::Forward, &model.zynq);
        let fixed = row.ps_cycles as f64 * ps_t;
        let copy_s = row.copy_cycles as f64 * ps_t;
        no_overlap += op.count as f64 * (fixed + copy_s + row.pl_cycles() as f64 * pl_t);
        // (b) GP port: the CPU moves every word itself at ~25 cycles/word,
        // and the pipeline still runs, serially.
        let gp_s = gp_port_ps_cycles(op.words_in + op.words_out) as f64 * ps_t;
        let pipe_only = row.pipeline_cycles as f64 * pl_t;
        gp_port += op.count as f64 * (fixed + gp_s + pipe_only);
    }
    no_overlap *= 2.0 * frames;
    gp_port *= 2.0 * frames;

    Ok(vec![
        AblationRow {
            configuration: "full design (ACP DMA + double buffering)".into(),
            forward_s: full,
            slowdown: 1.0,
        },
        AblationRow {
            configuration: "no double buffering (serial copy/process)".into(),
            forward_s: no_overlap,
            slowdown: no_overlap / full,
        },
        AblationRow {
            configuration: "GP-port transfers (CPU moves the data)".into(),
            forward_s: gp_port,
            slowdown: gp_port / full,
        },
    ])
}

/// One row of the decomposition-level sweep.
#[derive(Debug, Clone)]
pub struct LevelsRow {
    /// Decomposition depth.
    pub levels: usize,
    /// ARM per-frame seconds.
    pub arm_s: f64,
    /// NEON per-frame seconds.
    pub neon_s: f64,
    /// FPGA per-frame seconds.
    pub fpga_s: f64,
    /// Coarsest-level LL dimensions.
    pub ll_dims: (usize, usize),
}

/// Varies the decomposition depth at the paper's full 88x72 frame size
/// ("the decomposition level of the DT-CWT was varied", §VII). Deeper
/// levels add geometrically less work, but their rows shrink below the
/// FPGA's profitability threshold, so each added level costs the FPGA more
/// relative to NEON.
///
/// # Errors
///
/// Propagates engine errors.
pub fn levels_sweep() -> Result<Vec<LevelsRow>, FusionError> {
    let scene = ScenePair::new(SCENE_SEED);
    let a = scene.render_visible(88, 72, 0.0);
    let b = scene.render_thermal(88, 72, 0.0);
    let mut rows = Vec::new();
    for levels in 1..=5 {
        let mut engine = FusionEngine::new(levels)?;
        let time = |engine: &mut FusionEngine, backend: Backend| -> Result<f64, FusionError> {
            Ok(engine.fuse(&a, &b, backend)?.timing.total_seconds())
        };
        let arm_s = time(&mut engine, Backend::Arm)?;
        let neon_s = time(&mut engine, Backend::Neon)?;
        let fpga_s = time(&mut engine, Backend::Fpga)?;
        let pyr = wavefuse_dtcwt::Dtcwt::new(levels)?.forward(&a)?;
        let ll_dims = pyr.lowpass()[0].dims();
        rows.push(LevelsRow {
            levels,
            arm_s,
            neon_s,
            fpga_s,
            ll_dims,
        });
    }
    Ok(rows)
}

/// One row of the throughput report.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Frame geometry.
    pub size: (usize, usize),
    /// Achieved frames/second per backend `[ARM, NEON, FPGA]` under the
    /// modeled platform.
    pub fps: [f64; 3],
}

/// Modeled fusion throughput (frames per second) per backend and size —
/// the figure of merit the related work (paper §II: 25-30 fps at VGA)
/// reports.
///
/// # Errors
///
/// Propagates engine errors.
pub fn throughput_report() -> Result<Vec<ThroughputRow>, FusionError> {
    let scene = ScenePair::new(SCENE_SEED);
    let mut engine = FusionEngine::new(LEVELS)?;
    let mut rows = Vec::new();
    for &(w, h) in &PAPER_SIZES {
        let a = scene.render_visible(w, h, 0.0);
        let b = scene.render_thermal(w, h, 0.0);
        let mut fps = [0.0f64; 3];
        for backend in Backend::ALL {
            let t = engine.fuse(&a, &b, backend)?.timing.total_seconds();
            fps[backend.index()] = 1.0 / t;
        }
        rows.push(ThroughputRow { size: (w, h), fps });
    }
    Ok(rows)
}

/// Fusion-quality comparison row.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Method label.
    pub method: String,
    /// Shannon entropy of the fused frame, bits.
    pub entropy: f64,
    /// Spatial frequency.
    pub spatial_frequency: f64,
    /// Petrović `Q^{AB/F}` edge preservation.
    pub qabf: f64,
    /// Fusion mutual information `I(A;F) + I(B;F)`, bits.
    pub mutual_information: f64,
}

/// Compares DT-CWT fusion against the baselines on a captured scene pair
/// (the paper's §I claim that DT-CWT fusion quality motivates the system).
///
/// # Errors
///
/// Propagates engine errors.
pub fn quality_comparison(w: usize, h: usize) -> Result<Vec<QualityRow>, FusionError> {
    let scene = ScenePair::new(SCENE_SEED);
    let a = scene.render_visible(w, h, 0.0);
    let b = scene.render_thermal(w, h, 0.0);

    let mut engine = FusionEngine::with_rules(
        LEVELS,
        FusionRule::WindowEnergy { radius: 1 },
        LowpassRule::Average,
    )?;
    let dtcwt_img = engine.fuse(&a, &b, Backend::Neon)?.image;
    let mut engine_max =
        FusionEngine::with_rules(LEVELS, FusionRule::MaxMagnitude, LowpassRule::Average)?;
    let dtcwt_max_img = engine_max.fuse(&a, &b, Backend::Neon)?.image;
    let mut engine_act = FusionEngine::with_rules(
        LEVELS,
        FusionRule::ActivityGuided {
            radius: 1,
            match_threshold: 0.75,
        },
        LowpassRule::Average,
    )?;
    let dtcwt_act_img = engine_act.fuse(&a, &b, Backend::Neon)?.image;
    let avg = average_fusion(&a, &b);
    let dwt = dwt_fusion(&a, &b, FilterBank::cdf_9_7()?, LEVELS)?;
    let swt = swt_fusion(&a, &b, FilterBank::cdf_9_7()?, LEVELS)?;
    let lap = laplacian_fusion(&a, &b, LEVELS)?;

    let row = |method: &str, img: &Image| QualityRow {
        method: method.to_string(),
        entropy: wavefuse_metrics::entropy(img),
        spatial_frequency: wavefuse_metrics::spatial_frequency(img),
        qabf: wavefuse_metrics::petrovic_qabf(&a, &b, img),
        mutual_information: wavefuse_metrics::fusion_mutual_information(&a, &b, img),
    };
    Ok(vec![
        row("averaging", &avg),
        row("laplacian pyramid", &lap),
        row("dwt (cdf 9/7), max-abs", &dwt),
        row("swt (cdf 9/7, undecimated)", &swt),
        row("dt-cwt, max-magnitude", &dtcwt_max_img),
        row("dt-cwt, activity-guided", &dtcwt_act_img),
        row("dt-cwt, window-energy (ours)", &dtcwt_img),
    ])
}

/// Outcome of the instrumented evaluation run: the metrics registry (for
/// exporting), the pipeline's own statistics, its flight recorder, and the
/// cross-check between them — per-phase and per-frame energy sums over the
/// flight records against the engine's accumulated
/// [`PhaseTiming`] and energy.
#[derive(Debug)]
pub struct TelemetryEval {
    /// The metrics registry attached to the run, ready to export.
    pub metrics: std::sync::Arc<wavefuse_trace::MetricsRegistry>,
    /// Pipeline statistics accumulated by the run itself.
    pub stats: wavefuse_core::pipeline::PipelineStats,
    /// `(phase, flight-record seconds, stats seconds)` per phase, in
    /// timeline order.
    pub phase_check: Vec<(String, f64, f64)>,
    /// Largest relative disagreement between flight record and stats over
    /// the phases (the 1 % gate); `None` when the ring wrapped and the
    /// check was skipped.
    pub max_phase_error: Option<f64>,
    /// The pipeline's flight recorder (a clone of the ring after the run),
    /// for `--flight-record` export.
    pub flight: wavefuse_trace::FlightRecorder,
    /// Per-frame energy summed over the flight recorder, millijoules.
    pub flight_energy_mj: f64,
    /// Relative disagreement between the recorder's per-frame energy sum
    /// and `stats.energy_mj` (the 0.1 % reconciliation gate); `None` when
    /// the ring wrapped and the check was skipped.
    pub energy_error: Option<f64>,
}

/// Runs an instrumented pipeline (online-adaptive at the paper's 88x72,
/// with a bursty thermal source so the frame gate drops fields) and
/// cross-checks its flight record against the pipeline's statistics.
///
/// # Errors
///
/// Propagates engine errors.
pub fn telemetry_eval(frames: usize) -> Result<TelemetryEval, FusionError> {
    let metrics = std::sync::Arc::new(wavefuse_trace::MetricsRegistry::new());
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: LEVELS,
        backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
            Policy::Online(Objective::Time),
            LEVELS,
        ))),
        scene_seed: SCENE_SEED,
        threads: 1,
        depth: 1,
    })?;
    pipe.set_telemetry(std::sync::Arc::clone(&metrics));
    for i in 0..frames.max(1) {
        // Every fourth step the thermal camera races ahead by one field,
        // exercising the gate-drop path.
        pipe.step_with_burst(if i % 4 == 3 { 2 } else { 1 })?;
    }
    let stats = pipe.stats();

    // The flight recorder copies each frame's modeled phase times and
    // energy verbatim, so its sums must reproduce the aggregate stats (to
    // rounding) — unless the ring wrapped and lost the oldest frames.
    let flight = pipe.flight_recorder().clone();
    let flight_energy_mj: f64 = flight.iter().map(|r| r.energy_mj).sum();
    let phase_check: Vec<(String, f64, f64)> = stats
        .timing
        .phases()
        .iter()
        .enumerate()
        .map(|(i, (phase, stat_s))| {
            let flight_s: f64 = flight.iter().map(|r| r.phase_s[i]).sum();
            (phase.to_string(), flight_s, *stat_s)
        })
        .collect();
    let rel = |got: f64, want: f64| (got - want).abs() / want.max(1e-12);
    let (max_phase_error, energy_error) = if flight.wrapped() {
        (None, None)
    } else {
        (
            Some(
                phase_check
                    .iter()
                    .map(|(_, f, s)| rel(*f, *s))
                    .fold(0.0, f64::max),
            ),
            Some(rel(flight_energy_mj, stats.energy_mj)),
        )
    };
    Ok(TelemetryEval {
        metrics,
        stats,
        phase_check,
        max_phase_error,
        flight,
        flight_energy_mj,
        energy_error,
    })
}

/// Untimed frames stepped before the throughput measurement starts, so
/// the buffer pool, scratch arenas and plan cache are warm and the timed
/// window sees the zero-allocation steady state.
pub const BENCH_WARMUP_FRAMES: usize = 4;

/// Timed windows per configuration; the report keeps the fastest (the
/// usual min-time discipline, robust against scheduler noise) alongside
/// the mean.
pub const BENCH_REPS: usize = 3;

/// One measured pipeline configuration: a backend at a thread count,
/// frame size and pipelining depth.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Backend label (paper naming).
    pub backend: String,
    /// Worker threads driving the engine (1 = serial, no pool).
    pub threads: usize,
    /// Frame geometry of this row (rows of one report may differ when
    /// the scaling matrix is included).
    pub frame_size: (usize, usize),
    /// Effective pipelining depth (frames in flight; 1 = no software
    /// pipelining beyond the single-frame capture overlap).
    pub depth: usize,
    /// Timed frames per window for this row (large frames measure fewer).
    pub frames: usize,
    /// Kernel implementation name behind this backend (e.g. `neon-simd`).
    pub kernel: String,
    /// Detail fusion rule label this row ran under (see [`rule_label`]);
    /// part of the row identity so rows for different rules gate
    /// independently.
    pub rule: String,
    /// Wall-clock seconds of the fastest timed window.
    pub wall_s: f64,
    /// Throughput of the fastest window, fused frames per second.
    pub frames_per_second: f64,
    /// Nanoseconds per fused frame in the fastest window.
    pub ns_per_frame: f64,
    /// Mean throughput across all [`BENCH_REPS`] windows.
    pub mean_frames_per_second: f64,
    /// Modeled energy per fused frame, millijoules (deterministic: from
    /// the cost/power models over the timed frames).
    pub energy_mj_per_frame: f64,
    /// Measured throughput per modeled watt of this backend's execution
    /// mode — the paper's energy-efficiency figure of merit.
    pub fps_per_watt: f64,
    /// Median wall-clock nanoseconds per `step()` — exact sorted-sample
    /// quantile within a window, best (lowest) window kept.
    pub p50_ns_per_frame: f64,
    /// 99th-percentile wall-clock nanoseconds per `step()` (same
    /// discipline as the p50).
    pub p99_ns_per_frame: f64,
    /// Measured per-frame wall-clock phase split, `(phase, seconds)` in
    /// timeline order — from the engine's `Instant`-based accounting of
    /// this row's own run, so backend and thread count both show up.
    /// `overhead` is the wall remainder (capture, gating, telemetry).
    pub phase_s: Vec<(String, f64)>,
    /// Engine buffer-pool hits over the whole run (warm-up included).
    pub pool_hits: u64,
    /// Engine buffer-pool misses over the whole run.
    pub pool_misses: u64,
    /// Bytes the engine buffer pool allocated over the whole run.
    pub pool_bytes: u64,
}

/// The measured throughput benchmark: every backend serially, plus the
/// CPU backends on the persistent worker pool.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Frame geometry (the paper's camera default).
    pub frame_size: (usize, usize),
    /// Decomposition levels.
    pub levels: usize,
    /// Scene seed shared by every configuration.
    pub scene_seed: u64,
    /// Untimed warm-up frames per configuration.
    pub warmup_frames: usize,
    /// Timed frames per window.
    pub frames: usize,
    /// Timed windows per configuration (the row keeps the fastest).
    pub reps: usize,
    /// One row per `(backend, threads)` configuration.
    pub rows: Vec<BenchRow>,
}

/// One configuration of the wall-clock benchmark.
#[derive(Debug, Clone, Copy)]
struct BenchCase {
    backend: Backend,
    threads: usize,
    /// Requested pipelining depth (the pipeline's degrade rule applies).
    depth: usize,
    frame_size: (usize, usize),
    /// Timed frames per window.
    frames: usize,
    /// Untimed warm-up frames (covers the depth-k prologue).
    warmup: usize,
    /// Detail fusion rule the window runs under.
    rule: FusionRule,
}

/// The stable row-key label of a fusion rule (what `BenchRow::rule`
/// records and what `repro bench --rule` accepts). Parameters are folded
/// into the label only when they change the work shape (the window
/// radius); blend weights and thresholds don't.
pub fn rule_label(rule: FusionRule) -> String {
    match rule {
        FusionRule::MaxMagnitude => "choose-max".to_string(),
        FusionRule::WindowEnergy { radius: 1 } => "window-energy".to_string(),
        FusionRule::WindowEnergy { radius } => format!("window-energy-r{radius}"),
        FusionRule::Weighted { .. } => "weighted".to_string(),
        FusionRule::ActivityGuided { radius: 1, .. } => "activity-guided".to_string(),
        FusionRule::ActivityGuided { radius, .. } => format!("activity-guided-r{radius}"),
    }
}

/// Parses a `--rule` argument back into a [`FusionRule`]. Accepts the
/// labels [`rule_label`] produces for the parameterless presets.
pub fn parse_rule(name: &str) -> Option<FusionRule> {
    match name {
        "choose-max" => Some(FusionRule::MaxMagnitude),
        "window-energy" => Some(FusionRule::WindowEnergy { radius: 1 }),
        "weighted" => Some(FusionRule::Weighted { alpha: 0.5 }),
        "activity-guided" => Some(FusionRule::ActivityGuided {
            radius: 1,
            match_threshold: 0.75,
        }),
        _ => None,
    }
}

/// Measures one configuration: warm-up, [`BENCH_REPS`] timed windows,
/// per-step latency quantiles, measured phase split and pool counters.
fn bench_case(case: BenchCase) -> Result<BenchRow, FusionError> {
    let frames = case.frames.max(1);
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: case.frame_size,
        levels: LEVELS,
        backend: BackendChoice::Fixed(case.backend),
        scene_seed: SCENE_SEED,
        threads: case.threads,
        depth: case.depth,
    })?;
    pipe.engine_mut().set_rule(case.rule);
    pipe.run(case.warmup)?;
    let warm_wall = pipe.engine().wall_phase_totals();
    let warm_capture = pipe.wall_capture_seconds();
    let warm_energy_mj = pipe.stats().energy_mj;
    let mut best_s = f64::INFINITY;
    let mut total_s = 0.0;
    let mut best_p50_ns = f64::INFINITY;
    let mut best_p99_ns = f64::INFINITY;
    // Per-step samples, reused across windows (sized once, no timed
    // allocation). Each step is timed individually so the row carries
    // real latency quantiles, not just window means. At depth > 1 a
    // "step" is retire-one-submit-one in the steady state, so the
    // quantiles remain per-delivered-frame figures.
    let mut samples_ns: Vec<u64> = Vec::with_capacity(frames);
    for _ in 0..BENCH_REPS {
        samples_ns.clear();
        let start = std::time::Instant::now();
        for _ in 0..frames {
            let t0 = std::time::Instant::now();
            let out = pipe.step()?;
            pipe.recycle(out);
            samples_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let window_s = start.elapsed().as_secs_f64();
        best_s = best_s.min(window_s);
        total_s += window_s;
        samples_ns.sort_unstable();
        // Keep the best window's quantiles — the min-time discipline
        // applied per order statistic, robust against one noisy window.
        best_p50_ns = best_p50_ns.min(sorted_quantile_ns(&samples_ns, 0.50));
        best_p99_ns = best_p99_ns.min(sorted_quantile_ns(&samples_ns, 0.99));
    }
    let timed_frames = (BENCH_REPS * frames) as f64;
    let energy_mj_per_frame = (pipe.stats().energy_mj - warm_energy_mj) / timed_frames;
    let power_w = wavefuse_power::PowerModel::zc702().power_w(case.backend.execution_mode());
    let frames_per_second = frames as f64 / best_s.max(1e-12);
    // Measured (not modeled) phase split: the engine's wall-clock
    // accounting for this row's own timed windows, so every
    // backend x threads configuration reports its own numbers.
    let wall = pipe.engine().wall_phase_totals();
    let capture_s = (pipe.wall_capture_seconds() - warm_capture) / timed_frames;
    let forward_s = (wall.forward_s - warm_wall.forward_s) / timed_frames;
    let fusion_s = (wall.fusion_s - warm_wall.fusion_s) / timed_frames;
    let inverse_s = (wall.inverse_s - warm_wall.inverse_s) / timed_frames;
    let per_frame = PhaseTiming {
        capture_s,
        forward_s,
        fusion_s,
        inverse_s,
        // Everything outside the measured phases: gating, telemetry and
        // pipeline bookkeeping.
        overhead_s: (total_s / timed_frames - capture_s - forward_s - fusion_s - inverse_s)
            .max(0.0),
    };
    let pool = pipe.engine().buffer_pool().stats();
    Ok(BenchRow {
        backend: case.backend.label().to_string(),
        threads: case.threads,
        frame_size: case.frame_size,
        depth: pipe.depth(),
        frames,
        kernel: pipe.engine().kernel_name(case.backend).to_string(),
        rule: rule_label(case.rule),
        wall_s: best_s,
        frames_per_second,
        ns_per_frame: best_s * 1e9 / frames as f64,
        mean_frames_per_second: timed_frames / total_s.max(1e-12),
        energy_mj_per_frame,
        fps_per_watt: frames_per_second / power_w.max(1e-12),
        p50_ns_per_frame: best_p50_ns,
        p99_ns_per_frame: best_p99_ns,
        phase_s: per_frame
            .phases()
            .iter()
            .map(|&(name, s)| (name.to_string(), s))
            .collect(),
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pool_bytes: pool.bytes_allocated,
    })
}

/// Measures real wall-clock pipeline throughput (fixed seed) for
/// `frames` timed steps per configuration. Unlike [`throughput_report`],
/// which inverts the *modeled* per-frame time, this times actual
/// execution with `std::time::Instant`, after a
/// [`BENCH_WARMUP_FRAMES`]-frame warm-up so pools and plan caches are
/// hot. Each backend runs serially; ARM and NEON additionally run on
/// the persistent worker pool with `threads` workers (defaulting to the
/// host parallelism clamped to 2..=4), at the requested pipelining
/// `depth` (serial rows degrade to depth 1 per the pipeline rule).
///
/// # Errors
///
/// Propagates pipeline errors (none occur for supported geometries).
pub fn pipeline_bench(
    frames: usize,
    threads: Option<usize>,
    frame_size: (usize, usize),
    depth: usize,
    rule: FusionRule,
) -> Result<BenchReport, FusionError> {
    let frames = frames.max(1);
    let depth = depth.max(1);
    let threaded = threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map_or(2, usize::from)
            .clamp(2, 4)
    });
    let mut configs: Vec<(Backend, usize)> = Backend::ALL.iter().map(|&b| (b, 1)).collect();
    if threaded > 1 {
        configs.push((Backend::Arm, threaded));
        configs.push((Backend::Neon, threaded));
    }

    let mut rows = Vec::new();
    for (backend, threads) in configs {
        rows.push(bench_case(BenchCase {
            backend,
            threads,
            depth,
            frame_size,
            frames,
            warmup: BENCH_WARMUP_FRAMES.max(depth + 1),
            rule,
        })?);
    }
    Ok(BenchReport {
        frame_size,
        levels: LEVELS,
        scene_seed: SCENE_SEED,
        warmup_frames: BENCH_WARMUP_FRAMES,
        frames,
        reps: BENCH_REPS,
        rows,
    })
}

/// The frame sizes of the recorded scaling curve: the paper's camera
/// default, VGA, and full HD.
pub const SCALING_SIZES: [(usize, usize); 3] = [(88, 72), (640, 480), (1920, 1080)];

/// Thread counts of the recorded scaling curve.
pub const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Pipelining depths of the recorded scaling curve.
pub const SCALING_DEPTHS: [usize; 3] = [1, 2, 3];

/// Timed frames per window for a scaling-curve cell: large frames
/// measure fewer so the full matrix stays tractable.
fn scaling_frames(frames: usize, (w, h): (usize, usize)) -> usize {
    match w * h {
        0..=65_535 => frames,
        65_536..=1_000_000 => (frames / 8).max(4),
        _ => (frames / 16).max(3),
    }
}

/// The NEON scaling curve: [`SCALING_THREADS`] x [`SCALING_SIZES`] x
/// [`SCALING_DEPTHS`], one measured row per cell. Serial cells run only
/// at depth 1 (the pipeline degrades depth without a worker pool, so
/// deeper serial cells would duplicate the same measurement).
///
/// # Errors
///
/// Propagates pipeline errors (none occur for supported geometries).
pub fn scaling_matrix(frames: usize, rule: FusionRule) -> Result<Vec<BenchRow>, FusionError> {
    let mut rows = Vec::new();
    for frame_size in SCALING_SIZES {
        let cell_frames = scaling_frames(frames.max(1), frame_size);
        for threads in SCALING_THREADS {
            for depth in SCALING_DEPTHS {
                if threads == 1 && depth > 1 {
                    continue;
                }
                rows.push(bench_case(BenchCase {
                    backend: Backend::Neon,
                    threads,
                    depth,
                    frame_size,
                    frames: cell_frames,
                    warmup: BENCH_WARMUP_FRAMES.max(depth + 1),
                    rule,
                })?);
            }
        }
    }
    Ok(rows)
}

/// [`pipeline_bench`] plus the [`scaling_matrix`] rows, deduplicated by
/// the five-tuple row identity `(backend, threads, frame_size, depth,
/// rule)` so the default rows are never measured twice.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn pipeline_bench_with_matrix(
    frames: usize,
    threads: Option<usize>,
    rule: FusionRule,
) -> Result<BenchReport, FusionError> {
    let mut bench = pipeline_bench(frames, threads, (88, 72), 1, rule)?;
    for row in scaling_matrix(frames, rule)? {
        let dup = bench.rows.iter().any(|r| {
            r.backend == row.backend
                && r.threads == row.threads
                && r.frame_size == row.frame_size
                && r.depth == row.depth
                && r.rule == row.rule
        });
        if !dup {
            bench.rows.push(row);
        }
    }
    Ok(bench)
}

/// One measured multi-stream serving window plus its sequential baseline:
/// the same total frame budget served the naive way (one stream at a
/// time, each paying its own engine construction, worker-pool spawn, and
/// warm-up — exactly the costs the shared fleet amortizes away).
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Concurrent streams on the shared fleet.
    pub streams: usize,
    /// Timed frames per stream.
    pub frames_per_stream: usize,
    /// Worker threads of the shared pool.
    pub threads: usize,
    /// The fleet window's measurements.
    pub report: ServeReport,
    /// Wall-clock seconds of the sequential baseline.
    pub sequential_wall_s: f64,
    /// Sequential baseline throughput, frames per second.
    pub sequential_fps: f64,
    /// `aggregate_fps / sequential_fps` — cross-stream packing's payoff.
    pub speedup: f64,
}

/// Measures multi-stream serving: `streams` identical 88x72 NEON streams
/// (distinct scene seeds) on one shared `threads`-worker fleet, after a
/// [`BENCH_WARMUP_FRAMES`]-round warm-up, then the sequential baseline at
/// the same thread count and frame budget. Both sides follow the bench
/// convention of keeping the best of [`BENCH_REPS`] windows (the
/// sequential sweep constructs fresh engines every repetition — cold
/// per-stream setup is exactly what it measures).
///
/// # Errors
///
/// Propagates engine errors (none occur for supported geometries).
pub fn serve_bench(
    streams: usize,
    frames: usize,
    threads: Option<usize>,
) -> Result<ServeBench, FusionError> {
    let streams = streams.max(1);
    let frames = frames.max(1);
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(2, usize::from)
                .clamp(2, 4)
        })
        .max(1);
    let mut mgr = StreamManager::new(FleetConfig {
        threads,
        ..FleetConfig::default()
    });
    for s in 0..streams {
        mgr.admit(StreamConfig {
            scene_seed: SCENE_SEED + s as u64,
            ..StreamConfig::default()
        })?;
    }
    // One full cold sweep: engine construction, private pool spawn, and
    // the first fuse of every stream, exactly as the baseline measures.
    let sequential_sweep = |streams: usize, frames: usize| -> Result<f64, FusionError> {
        let t0 = std::time::Instant::now();
        for s in 0..streams {
            let mut engine = FusionEngine::new(LEVELS)?;
            engine.set_threads(threads);
            let scene = ScenePair::new(SCENE_SEED + s as u64);
            let mut web = WebCamera::new(scene.clone(), 88, 72);
            let mut thermal = ThermalCamera::new(scene, 88, 72);
            let mut visible = Frame::new(Image::zeros(0, 0), 0);
            let mut field = Frame::new(Image::zeros(0, 0), 0);
            for _ in 0..frames {
                thermal.capture_into(&mut field)?;
                web.capture_into(&mut visible);
                let out = engine.fuse(visible.image(), field.image(), Backend::Neon)?;
                engine.recycle(out);
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    // Untimed burn: push the host past its frequency/scheduler ramp-up so
    // neither side of the comparison is measured against a cold machine.
    sequential_sweep(streams, frames.min(8))?;
    // Each repetition pairs a fleet window with a temporally adjacent
    // sequential sweep, so slow drift in the host's available CPU (the
    // dominant noise on shared machines) cancels inside the pair; the
    // reported repetition is the one with the *median* paired speedup —
    // a self-consistent (window, sweep) pair, not a best-of mix. Each
    // fleet window re-warms first because the sweep's fresh engines evict
    // the fleet's working set.
    let mut reps: Vec<(ServeReport, f64)> = Vec::with_capacity(BENCH_REPS);
    for _ in 0..BENCH_REPS {
        mgr.run(BENCH_WARMUP_FRAMES)?;
        mgr.reset_latency_stats();
        let window = mgr.run(frames)?;
        let sweep_wall_s = sequential_sweep(streams, frames)?;
        reps.push((window, sweep_wall_s));
    }
    // Paired speedup is proportional to `window fps * sweep wall` (the
    // frame budget is constant), so sorting on that picks the median rep.
    reps.sort_by(|a, b| {
        (a.0.aggregate_fps * a.1)
            .partial_cmp(&(b.0.aggregate_fps * b.1))
            .expect("finite bench measurements")
    });
    let mid = reps.len() / 2;
    let (report, sequential_wall_s) = reps.swap_remove(mid);
    let sequential_fps = (streams * frames) as f64 / sequential_wall_s.max(1e-12);
    Ok(ServeBench {
        streams,
        frames_per_stream: frames,
        threads,
        speedup: report.aggregate_fps / sequential_fps.max(1e-12),
        report,
        sequential_wall_s,
        sequential_fps,
    })
}

/// Maps a serve window onto a [`BenchRow`] so the regression gate's
/// five-tuple row identity `(backend, threads, frame_size, depth, rule)`
/// covers serving: the backend label is `SERVE-<streams>` and the
/// kernel `fleet-shared-pool`, so serve rows never collide with
/// single-stream rows. Latency quantiles are the **worst stream's**
/// (gating fairness as well as tail latency); `frames` is per stream.
pub fn serve_row(bench: &ServeBench) -> BenchRow {
    let r = &bench.report;
    let worst_p50 = r
        .per_stream
        .iter()
        .map(|s| s.p50_latency_s)
        .fold(0.0, f64::max);
    let worst_p99 = r
        .per_stream
        .iter()
        .map(|s| s.p99_latency_s)
        .fold(0.0, f64::max);
    let power_w = wavefuse_power::PowerModel::zc702().power_w(Backend::Neon.execution_mode());
    BenchRow {
        backend: format!("SERVE-{}", bench.streams),
        threads: bench.threads,
        frame_size: (88, 72),
        depth: 1,
        frames: bench.frames_per_stream,
        kernel: "fleet-shared-pool".to_string(),
        rule: rule_label(FusionRule::WindowEnergy { radius: 1 }),
        wall_s: r.wall_s,
        frames_per_second: r.aggregate_fps,
        ns_per_frame: r.wall_s * 1e9 / (r.total_frames.max(1) as f64),
        mean_frames_per_second: r.aggregate_fps,
        energy_mj_per_frame: r.energy_mj_per_frame,
        fps_per_watt: r.aggregate_fps / power_w.max(1e-12),
        p50_ns_per_frame: worst_p50 * 1e9,
        p99_ns_per_frame: worst_p99 * 1e9,
        phase_s: Vec::new(),
        pool_hits: 0,
        pool_misses: 0,
        pool_bytes: 0,
    }
}

/// Renders a serve window (with its per-stream breakdown and sequential
/// baseline) as a JSON object — the `repro serve --serve-out` payload.
pub fn serve_json(bench: &ServeBench) -> JsonValue {
    let r = &bench.report;
    let per_stream = r
        .per_stream
        .iter()
        .map(|s| {
            obj(vec![
                ("stream", s.stream.to_json()),
                ("backend", s.backend.to_json()),
                ("levels", s.levels.to_json()),
                ("depth", s.depth.to_json()),
                ("frame_size", s.frame_size.to_json()),
                ("frames", s.frames.to_json()),
                ("drops", s.drops.to_json()),
                ("deadline_misses", s.deadline_misses.to_json()),
                ("fps", s.fps.to_json()),
                ("p50_latency_s", s.p50_latency_s.to_json()),
                ("p99_latency_s", s.p99_latency_s.to_json()),
                ("energy_mj_per_frame", s.energy_mj_per_frame.to_json()),
            ])
        })
        .collect();
    obj(vec![
        ("streams", r.streams.to_json()),
        ("threads", r.threads.to_json()),
        ("frames_per_stream", bench.frames_per_stream.to_json()),
        ("wall_s", r.wall_s.to_json()),
        ("total_frames", r.total_frames.to_json()),
        ("total_drops", r.total_drops.to_json()),
        ("aggregate_fps", r.aggregate_fps.to_json()),
        ("fairness", r.fairness.to_json()),
        ("energy_mj_per_frame", r.energy_mj_per_frame.to_json()),
        ("plan_cache_entries", r.plan_cache_entries.to_json()),
        ("plan_cache_hits", r.plan_cache_hits.to_json()),
        ("qos_infeasible", r.qos_infeasible.to_json()),
        ("sequential_wall_s", bench.sequential_wall_s.to_json()),
        ("sequential_fps", bench.sequential_fps.to_json()),
        ("speedup", bench.speedup.to_json()),
        ("per_stream", JsonValue::Arr(per_stream)),
    ])
}

/// Exact ceil-rank quantile of an ascending-sorted sample set, as f64 ns.
fn sorted_quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Builds a JSON object from field pairs (report-row serialization).
fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl ToJson for MatrixEntry {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("size", self.size.to_json()),
            ("backend", self.backend.to_json()),
            ("forward_s", self.forward_s.to_json()),
            ("fusion_s", self.fusion_s.to_json()),
            ("inverse_s", self.inverse_s.to_json()),
            ("total_s", self.total_s.to_json()),
            ("energy_mj", self.energy_mj.to_json()),
        ])
    }
}

impl ToJson for SeriesRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("size", self.size.to_json()),
            ("arm", self.arm.to_json()),
            ("neon", self.neon.to_json()),
            ("fpga", self.fpga.to_json()),
        ])
    }
}

impl ToJson for ResourceRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("resource", self.resource.to_json()),
            ("used", self.used.to_json()),
            ("available", self.available.to_json()),
            ("percent", self.percent.to_json()),
        ])
    }
}

impl ToJson for CrossoverReport {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("forward_edge", self.forward_edge.to_json()),
            ("inverse_edge", self.inverse_edge.to_json()),
            ("total_edge", self.total_edge.to_json()),
            ("energy_edge", self.energy_edge.to_json()),
        ])
    }
}

impl ToJson for PolicyOutcome {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("policy", self.policy.to_json()),
            ("total_s", self.total_s.to_json()),
            ("energy_mj", self.energy_mj.to_json()),
            (
                "backend_usage",
                self.backend_usage.as_array().as_slice().to_json(),
            ),
        ])
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("configuration", self.configuration.to_json()),
            ("forward_s", self.forward_s.to_json()),
            ("slowdown", self.slowdown.to_json()),
        ])
    }
}

impl ToJson for LevelsRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("levels", self.levels.to_json()),
            ("arm_s", self.arm_s.to_json()),
            ("neon_s", self.neon_s.to_json()),
            ("fpga_s", self.fpga_s.to_json()),
            ("ll_dims", self.ll_dims.to_json()),
        ])
    }
}

impl ToJson for ThroughputRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("size", self.size.to_json()),
            ("fps", self.fps.as_slice().to_json()),
        ])
    }
}

impl ToJson for QualityRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("method", self.method.to_json()),
            ("entropy", self.entropy.to_json()),
            ("spatial_frequency", self.spatial_frequency.to_json()),
            ("qabf", self.qabf.to_json()),
            ("mutual_information", self.mutual_information.to_json()),
        ])
    }
}

impl ToJson for BenchRow {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("backend", self.backend.to_json()),
            ("threads", self.threads.to_json()),
            ("frame_size", self.frame_size.to_json()),
            ("depth", self.depth.to_json()),
            ("frames", self.frames.to_json()),
            ("kernel", self.kernel.to_json()),
            ("rule", self.rule.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("frames_per_second", self.frames_per_second.to_json()),
            ("ns_per_frame", self.ns_per_frame.to_json()),
            (
                "mean_frames_per_second",
                self.mean_frames_per_second.to_json(),
            ),
            ("energy_mj_per_frame", self.energy_mj_per_frame.to_json()),
            ("fps_per_watt", self.fps_per_watt.to_json()),
            ("p50_ns_per_frame", self.p50_ns_per_frame.to_json()),
            ("p99_ns_per_frame", self.p99_ns_per_frame.to_json()),
            (
                "phase_s",
                JsonValue::Obj(
                    self.phase_s
                        .iter()
                        .map(|(name, s)| (name.clone(), JsonValue::Num(*s)))
                        .collect(),
                ),
            ),
            ("pool_hits", self.pool_hits.to_json()),
            ("pool_misses", self.pool_misses.to_json()),
            ("pool_bytes_allocated", self.pool_bytes.to_json()),
        ])
    }
}

impl ToJson for BenchReport {
    fn to_json(&self) -> JsonValue {
        obj(vec![
            ("frame_size", self.frame_size.to_json()),
            ("levels", self.levels.to_json()),
            ("scene_seed", self.scene_seed.to_json()),
            ("warmup_frames", self.warmup_frames.to_json()),
            ("frames", self.frames.to_json()),
            ("reps", self.reps.to_json()),
            (
                "rows",
                JsonValue::Arr(self.rows.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_cells() {
        let m = collect_matrix().unwrap();
        assert_eq!(m.len(), PAPER_SIZES.len() * 3);
        let s = fig9_series(&m, Quantity::Total);
        assert_eq!(s.len(), PAPER_SIZES.len());
        // Times grow with frame size for every mode.
        for w in s.windows(2) {
            assert!(w[1].arm > w[0].arm);
        }
    }

    #[test]
    fn crossovers_land_in_paper_intervals() {
        let c = crossover_report().unwrap();
        let f = c.forward_edge.unwrap();
        assert!(f > 35 && f <= 40, "forward edge {f}");
        let t = c.total_edge.unwrap();
        assert!(t > 40 && t <= 64, "total edge {t}");
        let e = c.energy_edge.unwrap();
        assert!(e > 40 && e <= 64, "energy edge {e}");
    }

    #[test]
    fn adaptive_beats_both_fixed_accelerators() {
        let outcomes = adaptive_comparison().unwrap();
        let get = |label: &str| {
            outcomes
                .iter()
                .find(|o| o.policy.starts_with(label))
                .expect("policy present")
        };
        let neon = get("fixed NEON").total_s;
        let fpga = get("fixed FPGA").total_s;
        let adaptive = get("adaptive (model, time)").total_s;
        assert!(adaptive <= neon + 1e-9, "{adaptive} vs neon {neon}");
        assert!(adaptive <= fpga + 1e-9, "{adaptive} vs fpga {fpga}");
        // And it genuinely mixes both accelerators.
        let usage = get("adaptive (model, time)").backend_usage;
        assert!(
            usage[Backend::Neon] > 0 && usage[Backend::Fpga] > 0,
            "usage {usage:?}"
        );
    }

    #[test]
    fn ablations_show_the_design_choices_pay() {
        let rows = ablation_report().unwrap();
        assert!((rows[0].slowdown - 1.0).abs() < 1e-12);
        assert!(rows[1].slowdown > 1.0, "double buffering must help");
        assert!(
            rows[2].slowdown > rows[1].slowdown,
            "GP port must be the worst"
        );
    }

    #[test]
    fn deeper_levels_cost_geometrically_less() {
        let rows = levels_sweep().unwrap();
        assert_eq!(rows.len(), 5);
        // Marginal cost of each extra level shrinks on every backend.
        for w in rows.windows(2) {
            assert!(w[1].arm_s > w[0].arm_s, "more levels, more work");
        }
        let d12 = rows[1].arm_s - rows[0].arm_s;
        let d45 = rows[4].arm_s - rows[3].arm_s;
        assert!(
            d45 < 0.5 * d12,
            "marginal level cost must decay: {d12} vs {d45}"
        );
        // The LL band shrinks by half per level.
        assert_eq!(rows[0].ll_dims, (44, 36));
        assert_eq!(rows[2].ll_dims, (11, 9));
    }

    #[test]
    fn throughput_ordering_and_scale() {
        let rows = throughput_report().unwrap();
        // At the paper's 88x72 full frames, the FPGA sustains ~11 fps;
        // ARM manages ~6.
        let full = rows.last().unwrap();
        assert!(
            full.fps[0] > 3.0 && full.fps[0] < 10.0,
            "ARM {}",
            full.fps[0]
        );
        assert!(full.fps[2] > full.fps[1], "FPGA beats NEON at 88x72");
        // Small frames run far faster than large ones everywhere.
        assert!(rows[0].fps[1] > 2.0 * full.fps[1]);
    }

    #[test]
    fn quality_ranking_favors_dtcwt() {
        let rows = quality_comparison(88, 72).unwrap();
        let get = |m: &str| {
            rows.iter()
                .find(|r| r.method.starts_with(m))
                .expect("method present")
                .clone()
        };
        let avg = get("averaging");
        let ours = get("dt-cwt, window-energy");
        assert!(ours.qabf > avg.qabf, "{} vs {}", ours.qabf, avg.qabf);
        assert!(ours.spatial_frequency > avg.spatial_frequency);
    }
}
