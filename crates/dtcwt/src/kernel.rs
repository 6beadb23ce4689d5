//! The pluggable inner-loop compute kernel.
//!
//! All decimated filtering in this workspace — the plain DWT, the DT-CWT and
//! the fusion pipeline built on them — funnels through two primitive row
//! operations: a decimating dual-filter *analysis* and an interpolating
//! dual-filter *synthesis*. [`FilterKernel`] abstracts those primitives so
//! that each of the paper's compute engines can provide its own
//! implementation:
//!
//! * [`ScalarKernel`] (here) — the reference ARM-style scalar code.
//! * `SimdKernel` in `wavefuse-simd` — the NEON-style 4-lane vectorized code.
//! * `FpgaKernel` in `wavefuse-zynq` — the simulated PL wavelet engine,
//!   which also accounts bus transfers and pipeline cycles.
//!
//! # Data layout contract
//!
//! Rows are passed *pre-extended*: the caller materializes the circular
//! boundary extension so kernels only ever perform contiguous, in-bounds
//! reads — exactly the access pattern of the paper's shift-register FPGA
//! datapath and of aligned NEON loads.
//!
//! For **analysis**, `ext` holds the extended signal with the original
//! sample `x[i]` at `ext[left + i]`; output `k` is the dot product of the
//! *reversed* filter with the window starting at
//! `left + 2k + phase - (taps - 1)`.
//!
//! For **synthesis**, the decimated `lo`/`hi` channels arrive left-extended
//! and the kernel computes the two polyphase dot products per output sample.
//!
//! # Column passes
//!
//! The separable 2-D transforms also route their **vertical** pass through
//! the kernel ([`FilterKernel::analyze_cols`] /
//! [`FilterKernel::synthesize_cols`]). The default implementations transpose
//! the image and reuse the row primitives, so the scalar kernel works
//! unchanged. The NEON kernels and the FPGA kernel override them with
//! a transpose-free path that filters adjacent columns in lanes (the FPGA
//! kernel still charges each column as one row call). An override must be
//! bit-identical to the transpose staging ([`fallback_analyze_cols`],
//! [`fallback_synthesize_cols`]), which the tests use as its oracle.

use crate::dwt1d::{analyze_into, synthesize_into, BankTaps, Phase};
use crate::image::Image;
use crate::scratch::{ColScratch, Scratch1d};
use crate::DtcwtError;

/// Decimating/interpolating dual-filter row kernel.
///
/// Implementations must be numerically equivalent to [`ScalarKernel`] within
/// `f32` rounding; the integration test suite enforces this for every
/// backend.
pub trait FilterKernel {
    /// Human-readable kernel name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Decimating analysis of one row.
    ///
    /// * `ext` — circularly extended input; `x[i]` lives at `ext[left + i]`.
    /// * `left` — extension margin (must be ≥ `h0.len().max(h1.len()) - 1`).
    /// * `h0`, `h1` — analysis lowpass/highpass taps in natural order.
    /// * `phase` — decimation phase (0 or 1); the dual-tree level-1 trees
    ///   differ only in this value.
    /// * `lo`, `hi` — outputs, each of length `n/2` for an original row of
    ///   even length `n`.
    ///
    /// Semantics: `lo[k] = Σ_j h0[j] · x[(2k + phase − j) mod n]`, and the
    /// same for `hi` with `h1`.
    #[allow(clippy::too_many_arguments)]
    fn analyze_row(
        &mut self,
        ext: &[f32],
        left: usize,
        h0: &[f32],
        h1: &[f32],
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    );

    /// Interpolating synthesis of one row (inverse of [`analyze_row`]).
    ///
    /// * `lo_ext`, `hi_ext` — circularly left-extended decimated channels;
    ///   channel sample `k` lives at index `left + k`.
    /// * `g0`, `g1` — synthesis lowpass/highpass taps in natural order.
    /// * `phase` — must match the analysis phase.
    /// * `out` — output row of length `2 * (channel length)`.
    ///
    /// Semantics: `out[m] = Σ_k g0[m − 2k − phase] · lo[k] + Σ_k g1[m − 2k −
    /// phase] · hi[k]` (circular in `k`). The caller applies the final
    /// delay-compensating rotation.
    ///
    /// [`analyze_row`]: FilterKernel::analyze_row
    #[allow(clippy::too_many_arguments)]
    fn synthesize_row(
        &mut self,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        g0: &[f32],
        g1: &[f32],
        phase: usize,
        out: &mut [f32],
    );

    /// Decimating analysis of every **column** of `img` (the vertical pass
    /// of one separable 2-D analysis level).
    ///
    /// Writes the vertically decimated lowpass/highpass halves into `lo` and
    /// `hi` (each reshaped to `width` x `height / 2`). Semantics per column
    /// `x`: `lo[x][k] = Σ_j h0[j] · img[x][(2k + phase − j) mod height]`,
    /// exactly [`FilterKernel::analyze_row`] applied to the transposed image
    /// — implementations must be bit-identical to that staging, which the
    /// default implementation performs literally.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadDimensions`] for empty images or odd heights.
    #[allow(clippy::too_many_arguments)]
    fn analyze_cols(
        &mut self,
        taps: &BankTaps,
        phase: Phase,
        img: &Image,
        lo: &mut Image,
        hi: &mut Image,
        cs: &mut ColScratch,
        s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        fallback_analyze_cols(self, taps, phase, img, lo, hi, cs, s1)
    }

    /// Interpolating synthesis of every **column** (inverse of
    /// [`FilterKernel::analyze_cols`]): reconstructs `out` (reshaped to
    /// `width` x `2 * height`) from the decimated channel images `lo` and
    /// `hi`, including the final delay-compensating rotation along the
    /// column axis. Implementations must be bit-identical to transposing,
    /// running [`crate::dwt1d::synthesize_into`] per row, and transposing
    /// back — which the default implementation performs literally.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadDimensions`] if the channel images are empty
    /// or disagree in size.
    #[allow(clippy::too_many_arguments)]
    fn synthesize_cols(
        &mut self,
        taps: &BankTaps,
        phase: Phase,
        lo: &Image,
        hi: &Image,
        out: &mut Image,
        cs: &mut ColScratch,
        s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        fallback_synthesize_cols(self, taps, phase, lo, hi, out, cs, s1)
    }

    /// Accounts a row pass the caller did not run because it already holds
    /// the result: `rows` rows of `width` samples, filtered through `taps`
    /// at `phase` exactly as [`crate::dwt2d::analyze_rows_into`] would.
    ///
    /// The DT-CWT's two combos of one row tree share their level-1 row
    /// pass (same bank, same phase, same image); it runs once and this hook
    /// is called where the second combo's own pass used to run. The
    /// default does nothing: a compute kernel has nothing to account. A
    /// kernel that models a platform overrides it to charge the calls that
    /// platform makes, in the order the skipped pass would have made them.
    fn charge_shared_rows(&mut self, taps: &BankTaps, phase: Phase, width: usize, rows: usize) {
        let _ = (taps, phase, width, rows);
    }

    /// Fuses rows `[y0, y1)` of one oriented complex subband pair into
    /// `out_re`/`out_im` (reshaped to `w × (y1 − y0)`; output row `t` is
    /// source row `y0 + t`).
    ///
    /// The default delegates to the scalar reference
    /// [`crate::fuse::fuse_strip_scalar`]; vectorized kernels override it
    /// but must honor the fold-order contract in [`crate::fuse`] so every
    /// implementation is bit-identical for any strip decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::MalformedPyramid`] if the subband shapes
    /// differ or the strip rows fall outside the subband.
    #[allow(clippy::too_many_arguments)]
    fn fuse_strip(
        &mut self,
        a: &crate::image::ComplexImage,
        b: &crate::image::ComplexImage,
        y0: usize,
        y1: usize,
        op: crate::fuse::FuseOp,
        fs: &mut crate::fuse::FuseScratch,
        out_re: &mut Image,
        out_im: &mut Image,
    ) -> Result<(), DtcwtError> {
        crate::fuse::fuse_strip_scalar(a, b, y0, y1, op, fs, out_re, out_im)
    }
}

/// Transpose-based column analysis: the [`FilterKernel::analyze_cols`]
/// default the scalar kernel runs, and the oracle the NEON and
/// FPGA kernels' transpose-free column passes are tested against bit for
/// bit.
#[allow(clippy::too_many_arguments)]
pub fn fallback_analyze_cols<K: FilterKernel + ?Sized>(
    kernel: &mut K,
    taps: &BankTaps,
    phase: Phase,
    img: &Image,
    lo: &mut Image,
    hi: &mut Image,
    cs: &mut ColScratch,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    img.transpose_into(&mut cs.ta); // width = original height
    let (w, h) = cs.ta.dims();
    cs.tb.reshape(w / 2, h);
    cs.tc.reshape(w / 2, h);
    for y in 0..h {
        analyze_into(
            kernel,
            taps,
            cs.ta.row(y),
            phase,
            cs.tb.row_mut(y),
            cs.tc.row_mut(y),
            s1,
        )?;
    }
    cs.tb.transpose_into(lo);
    cs.tc.transpose_into(hi);
    Ok(())
}

/// Transpose-based column synthesis: the [`FilterKernel::synthesize_cols`]
/// default, see [`fallback_analyze_cols`].
#[allow(clippy::too_many_arguments)]
pub fn fallback_synthesize_cols<K: FilterKernel + ?Sized>(
    kernel: &mut K,
    taps: &BankTaps,
    phase: Phase,
    lo: &Image,
    hi: &Image,
    out: &mut Image,
    cs: &mut ColScratch,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    lo.transpose_into(&mut cs.ta);
    hi.transpose_into(&mut cs.tb);
    let (w, h) = cs.ta.dims();
    cs.tc.reshape(w * 2, h);
    for y in 0..h {
        synthesize_into(
            kernel,
            taps,
            cs.ta.row(y),
            cs.tb.row(y),
            phase,
            cs.tc.row_mut(y),
            s1,
        )?;
    }
    cs.tc.transpose_into(out);
    Ok(())
}

/// Reference scalar implementation, modeling plain ARM Cortex-A9 execution.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::{FilterKernel, ScalarKernel};
///
/// let mut k = ScalarKernel::new();
/// assert_eq!(k.name(), "arm-scalar");
/// // Haar analysis of [1, 3]: lo = (1+3)/sqrt(2), hi = (3-1)/sqrt(2)
/// let h = std::f32::consts::FRAC_1_SQRT_2;
/// let ext = [3.0f32, 1.0, 3.0, 1.0]; // circular extension, left = 1
/// let (mut lo, mut hi) = ([0.0f32], [0.0f32]);
/// k.analyze_row(&ext, 1, &[h, h], &[h, -h], 1, &mut lo, &mut hi);
/// assert!((lo[0] - 4.0 * h).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScalarKernel {
    rev0: Vec<f32>,
    rev1: Vec<f32>,
    key0: Vec<f32>,
    key1: Vec<f32>,
}

/// Returns `true` (and records `taps` as the new key) when `taps` differ
/// from the cached key. Keying by value rather than by pointer makes the
/// cache immune to reallocated-but-identical filter storage, and a transform
/// pass reuses one filter across every row, so derived tap vectors are
/// rebuilt once per pass instead of once per row.
pub fn taps_changed(key: &mut Vec<f32>, taps: &[f32]) -> bool {
    if key.as_slice() == taps {
        return false;
    }
    key.clear();
    key.extend_from_slice(taps);
    true
}

impl ScalarKernel {
    /// Creates a new scalar kernel.
    pub fn new() -> Self {
        ScalarKernel::default()
    }

    fn load_reversed(cache: &mut Vec<f32>, taps: &[f32]) {
        cache.clear();
        cache.extend(taps.iter().rev());
    }
}

impl FilterKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "arm-scalar"
    }

    fn analyze_row(
        &mut self,
        ext: &[f32],
        left: usize,
        h0: &[f32],
        h1: &[f32],
        phase: usize,
        lo: &mut [f32],
        hi: &mut [f32],
    ) {
        debug_assert_eq!(lo.len(), hi.len());
        // Reversing once turns each output into a contiguous ascending dot
        // product — the same windowing the FPGA shift register performs.
        if taps_changed(&mut self.key0, h0) {
            Self::load_reversed(&mut self.rev0, h0);
        }
        if taps_changed(&mut self.key1, h1) {
            Self::load_reversed(&mut self.rev1, h1);
        }
        let (l0, l1) = (h0.len(), h1.len());
        for k in 0..lo.len() {
            let center = left + 2 * k + phase;
            let w0 = &ext[center + 1 - l0..=center];
            let mut acc0 = 0.0f32;
            for (c, x) in self.rev0.iter().zip(w0) {
                acc0 += c * x;
            }
            lo[k] = acc0;
            let w1 = &ext[center + 1 - l1..=center];
            let mut acc1 = 0.0f32;
            for (c, x) in self.rev1.iter().zip(w1) {
                acc1 += c * x;
            }
            hi[k] = acc1;
        }
    }

    fn synthesize_row(
        &mut self,
        lo_ext: &[f32],
        hi_ext: &[f32],
        left: usize,
        g0: &[f32],
        g1: &[f32],
        phase: usize,
        out: &mut [f32],
    ) {
        for (m, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            // Lowpass branch: taps j with j ≡ (m - phase) (mod 2).
            acc += polyphase_dot(lo_ext, left, g0, m, phase);
            acc += polyphase_dot(hi_ext, left, g1, m, phase);
            *o = acc;
        }
        fn polyphase_dot(ch_ext: &[f32], left: usize, g: &[f32], m: usize, phase: usize) -> f32 {
            // out[m] += Σ_j g[j] ch[(m - phase - j)/2] over j with matching
            // parity; k may go negative, absorbed by the left extension.
            let mp = m as isize - phase as isize;
            let j0 = (mp & 1).unsigned_abs(); // parity of (m - phase)
            let mut acc = 0.0f32;
            let mut j = j0 as isize;
            while (j as usize) < g.len() {
                let k = (mp - j) / 2;
                acc += g[j as usize] * ch_ext[(left as isize + k) as usize];
                j += 2;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haar_analysis_by_hand() {
        let h = std::f32::consts::FRAC_1_SQRT_2;
        // x = [1, 2, 3, 4], circular ext with left margin 1.
        let ext = [4.0f32, 1.0, 2.0, 3.0, 4.0, 1.0];
        let (mut lo, mut hi) = (vec![0.0f32; 2], vec![0.0f32; 2]);
        let mut k = ScalarKernel::new();
        // phase 1: lo[k] = h*(x[2k+1] + x[2k])
        k.analyze_row(&ext, 1, &[h, h], &[-h, h], 1, &mut lo, &mut hi);
        assert!((lo[0] - h * 3.0).abs() < 1e-6);
        assert!((lo[1] - h * 7.0).abs() < 1e-6);
        // h1 = [-h, h]: hi[k] = h1[0]*x[2k+1] + h1[1]*x[2k] = h*(x[2k] - x[2k+1])
        assert!((hi[0] + h * 1.0).abs() < 1e-6);
        assert!((hi[1] + h * 1.0).abs() < 1e-6);
    }

    #[test]
    fn analysis_phase_zero_wraps() {
        let h = std::f32::consts::FRAC_1_SQRT_2;
        let ext = [4.0f32, 1.0, 2.0, 3.0, 4.0, 1.0];
        let (mut lo, mut hi) = (vec![0.0f32; 2], vec![0.0f32; 2]);
        let mut k = ScalarKernel::new();
        // phase 0: lo[0] = h*(x[0] + x[-1 mod 4]) = h*(1 + 4)
        k.analyze_row(&ext, 1, &[h, h], &[-h, h], 0, &mut lo, &mut hi);
        assert!((lo[0] - h * 5.0).abs() < 1e-6);
    }

    #[test]
    fn tap_cache_tracks_filter_changes_by_value() {
        let h = std::f32::consts::FRAC_1_SQRT_2;
        let ext = [4.0f32, 1.0, 2.0, 3.0, 4.0, 1.0];
        let (mut lo, mut hi) = (vec![0.0f32; 2], vec![0.0f32; 2]);
        let mut cached = ScalarKernel::new();
        // Warm the cache with Haar, then switch filters through the *same*
        // kernel instance; results must match a fresh kernel per filter.
        cached.analyze_row(&ext, 1, &[h, h], &[-h, h], 1, &mut lo, &mut hi);
        for taps in [[0.25f32, 0.75], [h, h], [1.0, 0.0]] {
            let (mut lo_c, mut hi_c) = (vec![0.0f32; 2], vec![0.0f32; 2]);
            cached.analyze_row(&ext, 1, &taps, &[-h, h], 1, &mut lo_c, &mut hi_c);
            let mut fresh = ScalarKernel::new();
            let (mut lo_f, mut hi_f) = (vec![0.0f32; 2], vec![0.0f32; 2]);
            fresh.analyze_row(&ext, 1, &taps, &[-h, h], 1, &mut lo_f, &mut hi_f);
            assert_eq!(lo_c, lo_f, "{taps:?}");
            assert_eq!(hi_c, hi_f, "{taps:?}");
        }
    }

    #[test]
    fn synthesis_reconstructs_haar_by_hand() {
        // Analyze then synthesize a length-4 signal with Haar at phase 1 and
        // verify the raw (unrotated) output is the input delayed by c = 1.
        let h = std::f32::consts::FRAC_1_SQRT_2;
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let ext = [4.0f32, 1.0, 2.0, 3.0, 4.0, 1.0];
        let (mut lo, mut hi) = (vec![0.0f32; 2], vec![0.0f32; 2]);
        let mut k = ScalarKernel::new();
        let (h0, h1) = ([h, h], [-h, h]);
        k.analyze_row(&ext, 1, &h0, &h1, 1, &mut lo, &mut hi);
        // Orthonormal synthesis: g = reversed analysis.
        let g0 = [h, h];
        let g1 = [h, -h];
        // Left-extend channels circularly by 2.
        let lo_ext = [lo[0], lo[1], lo[0], lo[1]];
        let hi_ext = [hi[0], hi[1], hi[0], hi[1]];
        let mut out = vec![0.0f32; 4];
        k.synthesize_row(&lo_ext, &hi_ext, 2, &g0, &g1, 1, &mut out);
        // Delay c = (2 + 2)/2 - 1 = 1: out[m] == x[(m - 1) mod 4].
        for m in 0..4 {
            let expect = x[(m + 4 - 1) % 4];
            assert!(
                (out[m] - expect).abs() < 1e-5,
                "m = {m}: {out:?} vs delayed {x:?}"
            );
        }
    }
}
