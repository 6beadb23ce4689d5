//! Power and energy models of the ZC702 platform.
//!
//! The paper measures board power with "power-recording software running
//! simultaneously with the fusion process" and reports three facts this
//! module encodes directly:
//!
//! * fusing on the ARM alone and on ARM+NEON draws *approximately the same
//!   power* (the NEON unit sits inside the already-powered A9);
//! * ARM+FPGA draws **19.2 mW more (+3.6 %)** — the net of extra PL power
//!   minus the reduced PS load — which pins the baseline at ≈533 mW;
//! * energy is power × total time (Fig. 10 = Fig. 9b × the power model).
//!
//! [`model::PowerModel`] holds those constants. The per-frame energy log
//! the measurement software kept is the flight record's `phase_mj` /
//! `energy_mj` (`wavefuse-trace`), charged from this model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;

pub use model::{ExecutionMode, PowerModel};
