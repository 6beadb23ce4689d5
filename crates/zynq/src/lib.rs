//! Simulated ZYNQ-7000 platform: the FPGA half of the fusion system.
//!
//! The paper maps the forward and inverse DT-CWT onto the ZYNQ's
//! programmable logic (PL) as a VIVADO_HLS-generated wavelet engine, fed
//! through the Accelerator Coherency Port (ACP) by a custom DMA and driven
//! from Linux through a kernel-level driver with a double-buffered ioctl
//! interface (paper Figs. 4–5, Table I). Real ZC702 silicon is not available
//! to this reproduction, so this crate provides a **cycle-level simulator**
//! of that subsystem:
//!
//! * [`config::ZynqConfig`] — clock frequencies (533 MHz PS / 100 MHz PL)
//!   and the calibrated bus/driver latency constants.
//! * [`bus`] — AXI4-Lite register port and ACP burst-DMA timing models.
//! * [`engine::WaveletEngine`] — the HLS core of Fig. 4: a fixed-size dual
//!   shift-register datapath computing one lowpass and one highpass MAC per
//!   clock at initiation interval 1, with BRAM line buffers and three
//!   command modes (coefficient load / forward / inverse). The datapath
//!   *functionally computes* the transform — its outputs are verified
//!   against the scalar software reference. The register fixes each
//!   output's tap order; the simulator evaluates many outputs at once,
//!   lane-parallel, in that order, so finite results are bit-identical to
//!   a one-output-per-clock run (a NaN result may differ in payload or
//!   sign bit only, as the lane loops may commute `fadd` operands).
//! * [`driver::WaveletDriver`] — the kernel-driver model: kmalloc'd DMA
//!   areas, `mmap`-style user mappings, `ioctl` offset control, ping-pong
//!   double buffering.
//! * [`kernel::FpgaKernel`] — a [`wavefuse_dtcwt::FilterKernel`] backend
//!   routing every row through driver + engine while accumulating a
//!   [`ledger::CycleLedger`] of PS and PL cycles. Its column passes run in
//!   the engine without transposes, each column charged as one row call.
//! * [`ledger::RowCycles`] — the one cost of a row pass, shared by the
//!   engine, the ledger, the analytic cost model and the Fig. 5 timeline.
//! * [`resources`] — an analytic HLS resource estimator reproducing
//!   Table I's utilization on the xc7z020.
//!
//! # Examples
//!
//! ```
//! use wavefuse_dtcwt::{Dtcwt, Image};
//! use wavefuse_zynq::FpgaKernel;
//!
//! let img = Image::from_fn(32, 24, |x, y| (x + y) as f32);
//! let t = Dtcwt::new(2)?;
//! let mut fpga = FpgaKernel::new();
//! let pyr = t.forward_with(&mut fpga, &img)?;
//! let back = t.inverse_with(&mut fpga, &pyr)?;
//! assert!(back.max_abs_diff(&img) < 1e-3);
//! // The ledger has accounted every bus word and pipeline cycle.
//! assert!(fpga.ledger().pl_cycles > 0);
//! assert!(fpga.ledger().elapsed_seconds > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod config;
pub mod driver;
pub mod engine;
pub mod kernel;
pub mod ledger;
pub mod resources;
pub mod timeline;

mod error;

pub use config::ZynqConfig;
pub use error::ZynqError;
pub use kernel::{DmaTimeline, FpgaKernel};
pub use ledger::{coeff_load_ps_cycles, CycleLedger, Direction, RowCycles};
