//! The "NEON engine": SIMD filter kernels on one lane-generic vector type.
//!
//! The paper vectorizes the forward and inverse DT-CWT for the ARM
//! Cortex-A9's NEON unit — 128-bit quad registers holding four `f32` lanes,
//! driven both by manual intrinsics (`float32x4_t`, Fig. 3) and by compiler
//! auto-vectorization (`-mfpu=neon -ftree-vectorize`). Both builds sum each
//! output in the same order, so this crate reproduces them with one vector
//! type and one kernel:
//!
//! * [`Lanes<N>`](Lanes) — `N` `f32` lanes with elementwise ops and no FMA
//!   contraction, so each lane is bit-identical to the scalar expression on
//!   every target. [`F32x4`] (`N = 4`) is the quad register; the row and
//!   column passes step 16 outputs at a time, then 8, 4 and 1, and strip
//!   fusion steps 8 and then 1.
//! * [`SimdKernel`] (`"neon-simd"`) — the [`wavefuse_dtcwt::FilterKernel`]:
//!   tap caches, lane-parallel row and column passes and strip fusion.
//!   Rows and columns share one lane body: each lane computes one output,
//!   with the four `tap % 4` partial sums and the pairwise fold of the
//!   paper's quad-register dot.
//!
//! # Lane paths
//!
//! The lane bodies are compiled twice. The *portable* copy targets the
//! build's baseline (SSE2 on x86-64, where a [`F32x8`] op is two 128-bit
//! halves; NEON on aarch64). On x86-64 a second copy is compiled with
//! `#[target_feature(enable = "avx2")]`, where the same op is one 256-bit
//! instruction. A kernel asks the CPU once, when it is built, and runs the
//! widest copy the CPU has ([`SimdKernel::lane_path`] names it). There is
//! no knob: no feature, flag or environment variable picks the path. Only
//! `avx2` is enabled, not `fma`, so both copies evaluate the same unfused
//! expressions and produce the same output bits; the tests sweep one copy
//! against the other.
//!
//! The crate root denies `unsafe` code. Calling an AVX2 copy is `unsafe`
//! (it would fault on a CPU without AVX2), so those calls live in one
//! private module, the only one that allows it, each next to a `SAFETY:`
//! line: only CPU detection produces the AVX2 path.
//!
//! The kernel is verified close to the scalar reference in the tests; its
//! row passes are bit-identical to two per-output dots, one per NEON build
//! of the paper (an [`F32x4`] accumulator folded with a horizontal add, and
//! plain `[f32; 4]` loops with fixed trip counts), and its column passes to
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

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fuse;
mod isa;
pub mod kernel;
pub mod vector;

pub use kernel::SimdKernel;
pub use vector::{F32x4, F32x8, Lanes, Mask, Mask8};

/// Number of `f32` lanes in the modeled NEON quad register.
///
/// The cost model's vector speedup divides by this: it is the width of the
/// modeled quad-register dot product ([`F32x4`]), not of the wider lane
/// groups the row and column passes and strip fusion use.
pub const LANES: usize = 4;
