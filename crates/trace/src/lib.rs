//! # wavefuse-trace — zero-dependency observability
//!
//! The paper's whole argument rests on *measuring* per-phase time and
//! energy per backend (Figs. 8–10, Table I). This crate gives the rest of
//! the workspace that same instrumentation discipline as a first-class
//! subsystem, with no external dependencies (the build environment is
//! offline). It keeps one record of each kind:
//!
//! * [`flight::FlightRecorder`] — the per-frame timeline: a fixed-capacity
//!   ring of [`flight::FrameRecord`]s (one per fused frame: dual-clock
//!   timestamps, per-phase time and energy, the PS/PL split, the backend
//!   decision and its prediction, scheduler counters) with Chrome-trace
//!   (Perfetto / `chrome://tracing`) and JSON Lines export.
//! * [`metrics::MetricsRegistry`] — counters, gauges and histograms with
//!   label support (backend, phase, stream), rendered by
//!   [`export::prometheus_text`].
//! * [`histogram::LogHistogram`] — the one histogram type: allocation-free,
//!   lock-free, thread-sharded and log-bucketed. Every registry histogram
//!   series is one.
//! * [`json`] — the hand-rolled JSON writer/parser the exporters (and the
//!   bench harness) share.
//!
//! Instrumented components (pipeline, engine, scheduler, ZYNQ driver,
//! serving fleet) accept an `Arc<MetricsRegistry>` via `set_telemetry`.
//!
//! # Examples
//!
//! ```
//! use wavefuse_trace::{export, FlightRecorder, FrameRecord, MetricsRegistry};
//!
//! let mut flight = FlightRecorder::new(16);
//! flight.record(FrameRecord {
//!     backend: "NEON",
//!     model_dur_s: 0.010, // the cost model says 10 ms
//!     ..FrameRecord::default()
//! });
//! assert!(flight.chrome_trace().contains("\"frame 0 [NEON]\""));
//!
//! let metrics = MetricsRegistry::new();
//! metrics.counter_add("frames_total", &[("backend", "NEON")], 1.0);
//! let prom = export::prometheus_text(&metrics);
//! assert!(prom.contains("frames_total{backend=\"NEON\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;

pub use flight::{FlightRecorder, FrameRecord};
pub use histogram::LogHistogram;
pub use json::{JsonValue, ToJson};
pub use metrics::{MetricValue, MetricsRegistry, SeriesKey};
