//! The wavefuse benchmark: end-to-end metrics on three workloads, and
//! per-layer metrics from spans recorded around public calls.
//!
//! Every number is taken from outside the library, through the public APIs
//! of `wavefuse-video`, `wavefuse-dtcwt`, `wavefuse-simd`, `wavefuse-zynq`,
//! `wavefuse-power` and `wavefuse-core`. Wall-clock metrics come from
//! `Instant` around those calls; modeled metrics (ZC702 energy and platform
//! time) come from `FusionOutput` and carry a `model_` prefix. The program
//! never sees anything but the frames its cameras and scenes generate from
//! the workload seed.
//!
//! A `--trace 0` run has three parts, in this order:
//!
//! 1. **Set-up**, repeated: construct the system and deliver its first
//!    call's frames. Each instance built is one `setup_s` sample.
//! 2. **Timed windows**: each instance warms up, then runs a closed loop
//!    (the next call as soon as the previous one returns) over a few short
//!    windows; together they fill `--seconds`. Nothing but `Instant::now()`
//!    and a push into a pre-sized vector runs between the timed calls. The
//!    timings come from the windows run at the host's contended rate (see
//!    `workloads::CONTENDED`).
//! 3. **Check** (untimed): a fresh instance of the same configuration is
//!    compared bit for bit against a serial depth-1 reference built from the
//!    same seed; QAB/F is scored on the checked frames, and the modeled
//!    per-frame values of every timed instance must equal the check
//!    instance's bit for bit.
//!
//! A `--trace 1` run alternates untraced and traced slices of the same loop
//! (the tracing overhead), then runs the layer probes of [`layers`], then
//! the check.

pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use report::{Metric, Outcome};
pub use workloads::{Params, Workload};

/// DT-CWT decomposition depth of every workload.
pub const LEVELS: usize = 3;

/// End-to-end metrics printed with `--trace 0`, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("fps", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("model_mj_per_frame", "model_mJ"),
    ("model_ms_per_frame", "model_ms"),
    ("qabf", "score"),
    ("frames_ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics printed with `--trace 1`, as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("video.capture_ms", "ms"),
    ("dtcwt.forward_ms", "ms"),
    ("dtcwt.inverse_ms", "ms"),
    ("dtcwt.forward_gmacs", "GMAC/s"),
    ("dtcwt.inverse_gmacs", "GMAC/s"),
    ("fusion.fuse_ms", "ms"),
    ("ring.forward_pair_ms", "ms"),
    ("ring.speedup", "x"),
    ("ring.steals", "count"),
    ("ring.batches_claimed", "count"),
    ("ring.parked_ms", "ms"),
    ("engine.submit_ms", "ms"),
    ("engine.finish_ms", "ms"),
    ("engine.pool_hit_ratio", "ratio"),
    ("pipeline.step_ms", "ms"),
    ("zynq.fuse_ms", "ms"),
    ("zynq.forward_ms", "ms"),
    ("zynq.ledger_cycles", "count"),
    ("adaptive.choose_us", "us"),
    ("adaptive.fpga_share", "ratio"),
    ("adaptive.model_error", "ratio"),
    ("power.pl_share", "ratio"),
    ("serve.fairness", "ratio"),
    ("serve.plan_cache_hits", "count"),
    ("serve.drops", "count"),
    ("trace.overhead", "ratio"),
];

/// Boxed error of a benchmark run (engine, capture and transform errors).
pub type BenchError = Box<dyn std::error::Error>;
