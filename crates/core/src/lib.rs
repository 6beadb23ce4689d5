//! # wavefuse-core — the DT-CWT video-fusion system
//!
//! The primary contribution of the reproduced paper: a complete video-fusion
//! engine that decomposes visible and infrared frames with the Dual-Tree
//! Complex Wavelet Transform, combines the coefficients with a fusion rule,
//! reconstructs the fused frame — and runs the compute-heavy transforms on
//! any of three backends with modeled time and energy:
//!
//! * [`Backend::Arm`] — plain scalar code on the Cortex-A9 model;
//! * [`Backend::Neon`] — the 4-lane SIMD engine (`wavefuse-simd`);
//! * [`Backend::Fpga`] — the simulated PL wavelet engine (`wavefuse-zynq`).
//!
//! The headline finding of the paper is implemented in
//! [`adaptive::AdaptiveScheduler`]: the FPGA wins only above a frame-size
//! threshold (between 35x35 and 40x40 for time, between 40x40 and 64x48 for
//! energy), so a run-time selector that switches between NEON and FPGA
//! dominates both fixed choices. Every model-driven choice is one
//! [`adaptive::decide`] over [`cost::CostModel::predict`], the calibrated
//! timing model in [`cost`]; per-phase attribution (the paper's Fig. 2) in
//! [`profile`]; comparison baselines (plain-DWT, Laplacian-pyramid, and
//! averaging fusion) in [`baseline`].
//!
//! # Examples
//!
//! ```
//! use wavefuse_core::{Backend, FusionEngine};
//! use wavefuse_dtcwt::Image;
//!
//! let visible = Image::from_fn(88, 72, |x, y| ((x + y) % 13) as f32 / 12.0);
//! let thermal = Image::from_fn(88, 72, |x, y| ((x * y) % 7) as f32 / 6.0);
//! let mut engine = FusionEngine::new(3)?;
//! let out = engine.fuse(&visible, &thermal, Backend::Neon)?;
//! assert_eq!(out.image.dims(), (88, 72));
//! assert!(out.timing.total_seconds() > 0.0);
//! # Ok::<(), wavefuse_core::FusionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod backend;
pub mod baseline;
pub mod cost;
pub mod engine;
pub mod pipeline;
pub mod profile;
pub mod rules;
pub mod serve;

mod error;

pub use backend::{Backend, BackendCounts};
pub use engine::{FusionEngine, FusionOutput};
pub use error::FusionError;
pub use rules::{FusionRule, FusionScratch, LowpassRule};
