//! Numerical substrate for the wavefuse workspace.
//!
//! This crate provides the small, self-contained numerical kernels that the
//! wavelet filter-design and analysis code in `wavefuse-dtcwt` is built on:
//!
//! * [`complex`] — a minimal complex-number type, [`complex::Complex64`].
//! * [`poly`] — dense polynomials and Durand–Kerner root finding, used by the
//!   Daubechies spectral-factorization filter designer.
//! * [`linalg`] — dense matrices, partial-pivot Gaussian elimination and
//!   least-squares solves, used by the biorthogonal dual-filter designer.
//! * [`conv`] — direct convolution, even-lag autocorrelation and
//!   upsampling, used by the filter designer and its validation.
//! * [`stats`] — summary statistics and histogram/entropy helpers shared by
//!   the fusion-quality metrics.
//!
//! The crate is dependency-free and deterministic: the same inputs always
//! produce bit-identical outputs, which the simulation crates rely on.
//!
//! # Examples
//!
//! ```
//! use wavefuse_numerics::poly::Polynomial;
//!
//! // roots of x^2 - 3x + 2 = (x - 1)(x - 2)
//! let p = Polynomial::new(vec![2.0, -3.0, 1.0]);
//! let mut roots: Vec<f64> = p.roots().unwrap().iter().map(|r| r.re).collect();
//! roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert!((roots[0] - 1.0).abs() < 1e-9 && (roots[1] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod conv;
pub mod linalg;
pub mod poly;
pub mod stats;

mod error;

pub use error::NumericsError;
