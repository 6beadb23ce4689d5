//! Dual-Tree Complex Wavelet Transform (DT-CWT) and classic DWT substrate.
//!
//! This crate implements the wavelet machinery of the DATE 2016 video-fusion
//! system: validated two-channel filter banks (including Kingsbury's
//! near-symmetric and quarter-shift DT-CWT banks), 1-D and separable 2-D
//! decimated transforms with exact perfect reconstruction, multi-level
//! pyramids, and the dual-tree complex transform with six oriented complex
//! subbands per level.
//!
//! The compute-heavy inner loops are routed through the [`kernel::FilterKernel`]
//! trait so the SIMD engine (`wavefuse-simd`) and the simulated FPGA wavelet
//! engine (`wavefuse-zynq`) can substitute their own implementations — the
//! same mechanism the paper uses to swap NEON and PL execution.
//!
//! # Examples
//!
//! ```
//! use wavefuse_dtcwt::{Dtcwt, Image};
//!
//! let img = Image::from_fn(32, 24, |x, y| ((x + y) % 7) as f32);
//! let transform = Dtcwt::new(2)?;
//! let pyramid = transform.forward(&img)?;
//! assert_eq!(pyramid.levels(), 2);
//! assert_eq!(pyramid.subbands(0).len(), 6); // six orientations
//! let back = transform.inverse(&pyramid)?;
//! assert!(back.max_abs_diff(&img) < 1e-3);
//! # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod design;
pub mod dtcwt;
pub mod dwt1d;
pub mod dwt2d;
pub mod filters;
pub mod fuse;
pub mod image;
pub mod kernel;
pub mod scratch;
pub mod swt;
pub mod workers;

mod error;

pub use dtcwt::{CwtPyramid, Dtcwt, Orientation, FORWARD_JOBS_PER_PAIR};
pub use dwt2d::{Dwt2d, DwtPyramid};
pub use error::DtcwtError;
pub use filters::FilterBank;
pub use fuse::{fuse_strip_scalar, FuseOp, FuseScratch};
pub use image::{transpose_bytes_total, ComplexImage, Image};
pub use kernel::{FilterKernel, ScalarKernel};
pub use scratch::{ColScratch, ComboSlot, ComboStore, PoolHandle, PoolStats, Scratch};
pub use workers::{Job, JobOutcome, JobPayload, WorkerPool, WorkerSchedStats, BATCH_SLOTS};
