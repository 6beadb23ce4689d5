//! `wavefuse` — command-line front-end to the fusion system.
//!
//! ```text
//! wavefuse fuse <visible.pgm> <thermal.pgm> -o fused.pgm [--backend neon]
//!          [--levels 3] [--rule window|maxmag|average|activity]
//!          [--threads 1] [--trace t.json] [--metrics m.prom]
//! wavefuse demo -o out/ [--frames 5] [--size 88x72] [--seed 42]
//!          [--threads 1] [--trace t.json] [--metrics m.prom]
//! ```
//!
//! Works on binary PGM (`P5`) images, the format the examples emit.
//! `--trace` writes the run's per-frame flight record as a Chrome trace on
//! the modeled clock (open in Perfetto or `chrome://tracing`); `--metrics`
//! writes a Prometheus text exposition.

use std::process::ExitCode;
use std::sync::Arc;

use wavefuse::core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse::core::rules::{FusionRule, LowpassRule};
use wavefuse::core::{Backend, FusionEngine};
use wavefuse::dtcwt::Dwt2d;
use wavefuse::trace::{export, FlightRecorder, FrameRecord, MetricsRegistry};
use wavefuse::video::pgm;
use wavefuse::video::scene::ScenePair;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("option --{name} needs a value"))?;
                options.push((name.to_string(), value.clone()));
            } else if a == "-o" {
                let value = it.next().ok_or("option -o needs a value")?;
                options.push(("output".to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn opt_or(&self, name: &str, default: &str) -> String {
        self.opt(name).unwrap_or(default).to_string()
    }
}

fn parse_backend(s: &str) -> Result<Option<Backend>, String> {
    Ok(Some(match s {
        "arm" => Backend::Arm,
        "neon" => Backend::Neon,
        "fpga" => Backend::Fpga,
        "auto" => return Ok(None),
        other => return Err(format!("unknown backend '{other}' (arm|neon|fpga|auto)")),
    }))
}

fn parse_rule(s: &str) -> Result<FusionRule, String> {
    Ok(match s {
        "window" => FusionRule::WindowEnergy { radius: 1 },
        "maxmag" => FusionRule::MaxMagnitude,
        "average" => FusionRule::Weighted { alpha: 0.5 },
        "activity" => FusionRule::ActivityGuided {
            radius: 1,
            match_threshold: 0.75,
        },
        other => {
            return Err(format!(
                "unknown rule '{other}' (window|maxmag|average|activity)"
            ))
        }
    })
}

/// Builds a metrics registry if `--metrics` was given.
fn metrics_for(args: &Args) -> Option<Arc<MetricsRegistry>> {
    args.opt("metrics")
        .map(|_| Arc::new(MetricsRegistry::new()))
}

/// Writes the exports requested by `--trace` (the flight record as a
/// Chrome trace) and `--metrics` (the registry as Prometheus text).
fn write_telemetry(
    args: &Args,
    flight: &FlightRecorder,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<(), String> {
    if let Some(path) = args.opt("trace") {
        std::fs::write(path, flight.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (load in Perfetto)");
    }
    if let (Some(path), Some(m)) = (args.opt("metrics"), metrics) {
        std::fs::write(path, export::prometheus_text(m)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote Prometheus metrics to {path}");
    }
    Ok(())
}

/// Parses `--threads N` (default 1 = serial; larger spawns the engine's
/// persistent worker pool for the CPU backends).
fn parse_threads(args: &Args) -> Result<usize, String> {
    args.opt_or("threads", "1")
        .parse()
        .map_err(|_| "bad --threads".to_string())
}

fn parse_size(s: &str) -> Result<(usize, usize), String> {
    let (w, h) = s.split_once('x').ok_or("size must look like 88x72")?;
    Ok((
        w.parse().map_err(|_| "bad width")?,
        h.parse().map_err(|_| "bad height")?,
    ))
}

fn cmd_fuse(args: &Args) -> Result<(), String> {
    let [a_path, b_path] = &args.positional[..] else {
        return Err("fuse needs exactly two input images".into());
    };
    let out_path = args.opt("output").ok_or("fuse needs -o <output.pgm>")?;
    let levels: usize = args
        .opt_or("levels", "3")
        .parse()
        .map_err(|_| "bad --levels")?;
    let rule = parse_rule(&args.opt_or("rule", "window"))?;
    let backend = parse_backend(&args.opt_or("backend", "auto"))?;
    let threads = parse_threads(args)?;

    let a = pgm::read_pgm(a_path).map_err(|e| format!("{a_path}: {e}"))?;
    let b = pgm::read_pgm(b_path).map_err(|e| format!("{b_path}: {e}"))?;
    if a.dims() != b.dims() {
        return Err(format!(
            "inputs differ in size: {}x{} vs {}x{}",
            a.width(),
            a.height(),
            b.width(),
            b.height()
        ));
    }
    let max_levels = Dwt2d::max_levels(a.width(), a.height());
    if levels > max_levels {
        return Err(format!(
            "--levels {levels} unsupported for this size (max {max_levels})"
        ));
    }

    let backend = match backend {
        Some(b) => b,
        None => {
            let mut sched = AdaptiveScheduler::new(Policy::Model(Objective::Energy), levels);
            sched
                .choose(a.width(), a.height())
                .map_err(|e| e.to_string())?
        }
    };
    let mut engine =
        FusionEngine::with_rules(levels, rule, LowpassRule::Average).map_err(|e| e.to_string())?;
    engine.set_threads(threads);
    let metrics = metrics_for(args);
    if let Some(m) = &metrics {
        engine.set_telemetry(Arc::clone(m));
    }
    let out = engine.fuse(&a, &b, backend).map_err(|e| e.to_string())?;
    let mut flight = FlightRecorder::new(1);
    flight.record(engine.frame_record(&out));
    write_telemetry(args, &flight, metrics.as_ref())?;
    pgm::write_pgm(&out.image, out_path).map_err(|e| format!("{out_path}: {e}"))?;
    eprintln!(
        "fused {}x{} on {} in {:.2} ms (modeled), {:.3} mJ -> {out_path}",
        a.width(),
        a.height(),
        out.backend.label(),
        out.timing.total_seconds() * 1e3,
        out.energy_mj
    );
    Ok(())
}

fn cmd_demo(args: &Args) -> Result<(), String> {
    let out_dir = args.opt_or("output", "out");
    let frames: usize = args
        .opt_or("frames", "5")
        .parse()
        .map_err(|_| "bad --frames")?;
    let (w, h) = parse_size(&args.opt_or("size", "88x72"))?;
    let seed: u64 = args
        .opt_or("seed", "42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let threads = parse_threads(args)?;

    let scene = ScenePair::new(seed);
    let mut engine = FusionEngine::new(3).map_err(|e| e.to_string())?;
    engine.set_threads(threads);
    let mut sched = AdaptiveScheduler::new(Policy::Model(Objective::Energy), 3);
    let metrics = metrics_for(args);
    if let Some(m) = &metrics {
        engine.set_telemetry(Arc::clone(m));
        sched.set_telemetry(Arc::clone(m));
    }
    let mut flight = FlightRecorder::new(frames);
    let mut model_start_s = 0.0;
    for i in 0..frames {
        let t = i as f64 / 10.0;
        let vis = scene.render_visible(w, h, t);
        let ir = scene.render_thermal(w, h, t);
        let backend = sched.choose(w, h).map_err(|e| e.to_string())?;
        let out = engine.fuse(&vis, &ir, backend).map_err(|e| e.to_string())?;
        flight.record(FrameRecord {
            frame: i as u64,
            model_start_s,
            ..engine.frame_record(&out)
        });
        model_start_s += out.timing.total_seconds();
        pgm::write_pgm(&vis, format!("{out_dir}/demo_{i:03}_visible.pgm"))
            .map_err(|e| e.to_string())?;
        pgm::write_pgm(&ir, format!("{out_dir}/demo_{i:03}_thermal.pgm"))
            .map_err(|e| e.to_string())?;
        pgm::write_pgm(&out.image, format!("{out_dir}/demo_{i:03}_fused.pgm"))
            .map_err(|e| e.to_string())?;
        eprintln!(
            "frame {i}: {} | {:.2} ms | {:.3} mJ",
            out.backend.label(),
            out.timing.total_seconds() * 1e3,
            out.energy_mj
        );
    }
    write_telemetry(args, &flight, metrics.as_ref())?;
    eprintln!("wrote {frames} frame triples under {out_dir}/");
    Ok(())
}

fn usage() -> &'static str {
    "usage:\n  \
     wavefuse fuse <visible.pgm> <thermal.pgm> -o <fused.pgm> \
     [--backend arm|neon|fpga|auto] [--levels N] [--rule window|maxmag|average|activity] \
     [--threads N] [--trace <t.json>] [--metrics <m.prom>]\n  \
     wavefuse demo [-o <dir>] [--frames N] [--size WxH] [--seed S] \
     [--threads N] [--trace <t.json>] [--metrics <m.prom>]"
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "fuse" => cmd_fuse(&args),
        "demo" => cmd_demo(&args),
        "--help" | "-h" | "help" => {
            eprintln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wavefuse: {e}");
            ExitCode::FAILURE
        }
    }
}
