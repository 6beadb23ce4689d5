//! The run-time choice between the two compiled copies of the lane bodies,
//! and the crate's one `unsafe` boundary.
//!
//! The lane bodies — the kernel's `filter_cols`, `filter_cols2` and
//! `synth_cols`, which every row and column pass runs on, and
//! [`fuse_strip_simd`](crate::fuse) — are plain Rust over
//! [`Lanes<N>`](crate::Lanes), marked `#[inline(always)]`. The portable
//! path calls them as compiled for the build target (SSE2 on baseline
//! x86-64, NEON on aarch64). On x86-64 the [`avx2`] wrappers compile the
//! same bodies a second time with `#[target_feature(enable = "avx2")]`, so
//! a [`Lanes<8>`](crate::F32x8) op becomes one 256-bit instruction instead
//! of two 128-bit halves. Only `avx2` is enabled, never `fma`: every lane
//! still evaluates an unfused `acc + x * tap`, so both copies produce the
//! same output bits.
//!
//! [`Isa::detect`] asks the CPU once, when a [`SimdKernel`](crate::SimdKernel)
//! is built, and the kernel keeps the answer. Running AVX2 instructions on
//! a CPU without them is undefined behaviour, which is why a call into an
//! AVX2 copy is `unsafe`: the invariant each `SAFETY:` line below cites is
//! that only `detect` produces an [`Isa`] holding `Path::Avx2`, and only
//! after `is_x86_feature_detected!("avx2")` said yes. `Path` and the field
//! holding it are private to this module, so no other code can build one.

#![allow(unsafe_code)]

use crate::{fuse, kernel};
use wavefuse_dtcwt::{ComplexImage, DtcwtError, FuseOp, FuseScratch, Image};

/// Which compiled copy of the lane bodies a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The bodies as compiled for the build target.
    Portable,
    /// The bodies compiled with AVX2 enabled (x86-64 CPUs that have it).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Default for Isa {
    fn default() -> Self {
        Self::detect()
    }
}

impl Isa {
    /// The bodies as compiled for the build target, on every CPU.
    #[cfg(test)]
    pub(crate) const PORTABLE: Isa = Isa(Path::Portable);

    /// The widest path this CPU runs: the only constructor of the AVX2
    /// path.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa(Path::Avx2);
        }
        Isa(Path::Portable)
    }

    /// The path's name: `"avx2"` or `"portable"`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Path::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => "avx2",
        }
    }

    /// [`kernel::filter_cols`] on this path.
    pub(crate) fn filter_cols(self, data: &[f32], idx: &[usize], taps: &[f32], out: &mut [f32]) {
        match self.0 {
            Path::Portable => kernel::filter_cols(data, idx, taps, out),
            // SAFETY: only `detect` builds `Path::Avx2`, after the CPU reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => unsafe { avx2::filter_cols(data, idx, taps, out) },
        }
    }

    /// [`kernel::filter_cols2`] on this path.
    pub(crate) fn filter_cols2(
        self,
        data: &[f32],
        idx: &[usize],
        t0: &[f32],
        t1: &[f32],
        lo: &mut [f32],
        hi: &mut [f32],
    ) {
        match self.0 {
            Path::Portable => kernel::filter_cols2(data, idx, t0, t1, lo, hi),
            // SAFETY: only `detect` builds `Path::Avx2`, after the CPU reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => unsafe { avx2::filter_cols2(data, idx, t0, t1, lo, hi) },
        }
    }

    /// [`kernel::synth_cols`] on this path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn synth_cols(
        self,
        lo: &[f32],
        hi: &[f32],
        idx0: &[usize],
        idx1: &[usize],
        t0: &[f32],
        t1: &[f32],
        out: &mut [f32],
    ) {
        match self.0 {
            Path::Portable => kernel::synth_cols(lo, hi, idx0, idx1, t0, t1, out),
            // SAFETY: only `detect` builds `Path::Avx2`, after the CPU reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => unsafe { avx2::synth_cols(lo, hi, idx0, idx1, t0, t1, out) },
        }
    }

    /// [`fuse::fuse_strip_simd`] on this path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fuse_strip(
        self,
        a: &ComplexImage,
        b: &ComplexImage,
        y0: usize,
        y1: usize,
        op: FuseOp,
        fs: &mut FuseScratch,
        out_re: &mut Image,
        out_im: &mut Image,
    ) -> Result<(), DtcwtError> {
        match self.0 {
            Path::Portable => fuse::fuse_strip_simd(a, b, y0, y1, op, fs, out_re, out_im),
            // SAFETY: only `detect` builds `Path::Avx2`, after the CPU reported AVX2.
            #[cfg(target_arch = "x86_64")]
            Path::Avx2 => unsafe { avx2::fuse_strip(a, b, y0, y1, op, fs, out_re, out_im) },
        }
    }
}

/// The paths a test sweep checks: the portable one, plus the detected one
/// when it differs. On a CPU without AVX2 this says so on stderr (written
/// past the test harness's capture), so a sweep never passes silently
/// having checked one path.
#[cfg(test)]
pub(crate) fn test_paths() -> Vec<Isa> {
    let detected = Isa::detect();
    if detected == Isa::PORTABLE {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "note: this CPU has no AVX2; only the portable lane path was checked"
        );
        vec![Isa::PORTABLE]
    } else {
        vec![Isa::PORTABLE, detected]
    }
}

/// The lane bodies compiled with AVX2 enabled. Each wrapper's callee is
/// `#[inline(always)]`, so its whole body is generated inside the
/// wrapper, under the wrapper's target features.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn filter_cols(data: &[f32], idx: &[usize], taps: &[f32], out: &mut [f32]) {
        kernel::filter_cols(data, idx, taps, out)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn filter_cols2(
        data: &[f32],
        idx: &[usize],
        t0: &[f32],
        t1: &[f32],
        lo: &mut [f32],
        hi: &mut [f32],
    ) {
        kernel::filter_cols2(data, idx, t0, t1, lo, hi)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn synth_cols(
        lo: &[f32],
        hi: &[f32],
        idx0: &[usize],
        idx1: &[usize],
        t0: &[f32],
        t1: &[f32],
        out: &mut [f32],
    ) {
        kernel::synth_cols(lo, hi, idx0, idx1, t0, t1, out)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn fuse_strip(
        a: &ComplexImage,
        b: &ComplexImage,
        y0: usize,
        y1: usize,
        op: FuseOp,
        fs: &mut FuseScratch,
        out_re: &mut Image,
        out_im: &mut Image,
    ) -> Result<(), DtcwtError> {
        fuse::fuse_strip_simd(a, b, y0, y1, op, fs, out_re, out_im)
    }
}
