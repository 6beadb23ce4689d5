//! The "NEON engine": SIMD filter kernels on one lane-generic vector type.
//!
//! The paper vectorizes the forward and inverse DT-CWT for the ARM
//! Cortex-A9's NEON unit — 128-bit quad registers holding four `f32` lanes,
//! driven both by manual intrinsics (`float32x4_t`, Fig. 3) and by compiler
//! auto-vectorization (`-mfpu=neon -ftree-vectorize`). This crate reproduces
//! both flavors with one vector type and one kernel body:
//!
//! * [`Lanes<N>`](Lanes) — `N` `f32` lanes with elementwise ops and no FMA
//!   contraction, so each lane is bit-identical to the scalar expression on
//!   every target. [`F32x4`] (`N = 4`) is the quad register; the columnar
//!   column passes and strip fusion batch eight columns in [`F32x8`] and
//!   finish the right edge at four and one lanes. LLVM lowers the lane
//!   loops to native SIMD (SSE/NEON) on release builds.
//! * [`NeonKernel`] — the [`wavefuse_dtcwt::FilterKernel`]: tap caches, row
//!   loops, transpose-free columnar column passes and strip fusion, written
//!   once. Its two instantiations differ only in the row dot product:
//!   [`SimdKernel`] accumulates in an [`F32x4`] and folds with a horizontal
//!   add, exactly the structure of the paper's intrinsics listing;
//!   [`AutoVecKernel`] uses plain `[f32; 4]` loops with fixed trip counts,
//!   mirroring the paper's `__restrict` + masked-length C code.
//!
//! Both flavors are verified bit-for-bit-close against the scalar reference
//! in the tests, and their columnar column passes are bit-identical to
//! staging the row path through transposes — see [`kernel`].
//!
//! # Examples
//!
//! ```
//! use wavefuse_dtcwt::{Dtcwt, Image};
//! use wavefuse_simd::SimdKernel;
//!
//! let img = Image::from_fn(40, 40, |x, y| (x * y % 17) as f32);
//! let t = Dtcwt::new(2)?;
//! let pyr = t.forward_with(&mut SimdKernel::new(), &img)?;
//! let back = t.inverse_with(&mut SimdKernel::new(), &pyr)?;
//! assert!(back.max_abs_diff(&img) < 1e-3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuse;
pub mod kernel;
pub mod vector;

pub use fuse::fuse_strip_simd;
pub use kernel::{AutoVecKernel, NeonKernel, SimdKernel};
pub use vector::{F32x4, F32x8, Lanes, Mask, Mask8};

/// Number of `f32` lanes in the modeled NEON quad register.
///
/// The cost model's vector speedup divides by this: it is the width of the
/// row dot product ([`F32x4`]), not of the wider lane groups the column
/// passes and strip fusion use.
pub const LANES: usize = 4;
