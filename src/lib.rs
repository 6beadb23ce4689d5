//! # wavefuse
//!
//! Umbrella crate for the wavefuse workspace: an energy-efficient DT-CWT
//! video-fusion system with heterogeneous CPU / SIMD / (simulated) FPGA
//! backends, reproducing Nunez-Yanez & Sun, *"Energy Efficient Video Fusion
//! with Heterogeneous CPU-FPGA Devices"*, DATE 2016.
//!
//! This crate re-exports every member crate under a short module name so
//! examples and downstream users need a single dependency:
//!
//! ```
//! use wavefuse::dtcwt::Dtcwt;
//! use wavefuse::video::Frame;
//!
//! let frame = Frame::filled(16, 16, 0.5f32);
//! let transform = Dtcwt::new(2)?;
//! let pyramid = transform.forward(&frame.into_image())?;
//! assert_eq!(pyramid.levels(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the repository `README.md` for the architecture overview and
//! `EXPERIMENTS.md` for the paper-reproduction results.

#![forbid(unsafe_code)]

pub use wavefuse_core as core;
pub use wavefuse_dtcwt as dtcwt;
pub use wavefuse_metrics as metrics;
pub use wavefuse_numerics as numerics;
pub use wavefuse_power as power;
pub use wavefuse_simd as simd;
pub use wavefuse_trace as trace;
pub use wavefuse_video as video;
pub use wavefuse_zynq as zynq;
