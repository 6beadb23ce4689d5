//! The NEON engine's [`FilterKernel`]: one kernel body, two row-dot flavours.
//!
//! [`NeonKernel`] owns the tap caches, the row loops, the columnar column
//! passes and strip fusion. Its `MANUAL` parameter picks only the inner row
//! dot product, the one place the paper's two NEON builds differ:
//!
//! * [`SimdKernel`] (`MANUAL = true`) mirrors the *manual* intrinsics
//!   (Fig. 3): the filter is reversed once so each output becomes a
//!   contiguous dot product, accumulated four lanes at a time in an
//!   [`F32x4`] quad register and folded with [`F32x4::horizontal_sum`].
//! * [`AutoVecKernel`] (`MANUAL = false`) mirrors the *compiler
//!   auto-vectorized* build (`-mfpu=neon -ftree-vectorize`): plain
//!   `[f32; 4]` arithmetic with four independent accumulators and fixed
//!   trip counts, the shape LLVM (like GCC in the paper) vectorizes without
//!   intrinsics.
//!
//! Tap vectors are zero-padded to a multiple of four so neither dot has a
//! scalar remainder — the paper makes the same "iteration count is a
//! multiple of the lane count" argument. Both dots fold their four partials
//! as `(p0 + p2) + (p1 + p3)`, so the two flavours produce identical bits.
//!
//! # Columnar column passes
//!
//! The kernel overrides the [`FilterKernel`] column-pass methods with a
//! **transpose-free columnar path**: a [`Lanes<N>`] vector holds `N`
//! *adjacent columns* — 8, then 4, then 1 at the right image edge — rows
//! are loaded stride-1, and each lane accumulates its own column's
//! convolution, with no transposes and no horizontal sums. Bit-identity with
//! the transpose-staged row path is preserved by replicating the row dot
//! product's exact summation structure per column: four partial
//! accumulators indexed by `tap_index % 4` (the four lanes of the row
//! path's accumulator register) folded as `(p0 + p2) + (p1 + p3)`. Since
//! every column is independent, lane width and strip splitting never change
//! any column's value.

use crate::vector::{F32x4, Lanes};
use wavefuse_dtcwt::dwt1d::{BankTaps, Phase};
use wavefuse_dtcwt::kernel::{fallback_analyze_cols, fallback_synthesize_cols, taps_changed};
use wavefuse_dtcwt::scratch::{ColScratch, Scratch1d};
use wavefuse_dtcwt::{ComplexImage, DtcwtError, FilterKernel, FuseOp, FuseScratch, Image};

/// Pads `taps` (reversed) to a multiple of four lanes with leading or
/// trailing zeros.
fn reversed_padded(taps: &[f32], pad_front: bool, out: &mut Vec<f32>) {
    let len4 = taps.len().div_ceil(4) * 4;
    out.clear();
    if pad_front {
        out.resize(len4 - taps.len(), 0.0);
    }
    out.extend(taps.iter().rev());
    if !pad_front {
        out.resize(len4, 0.0);
    }
}

/// Splits `taps` into its even- and odd-indexed polyphase components,
/// reversed and front-padded to a lane multiple (for synthesis). Builds
/// both components in place — no temporaries — so cached rebuilds stay
/// allocation-free once the output vectors have warmed capacity.
fn polyphase_reversed(taps: &[f32], even: &mut Vec<f32>, odd: &mut Vec<f32>) {
    let ne = taps.len().div_ceil(2); // even-indexed tap count
    let no = taps.len() / 2; // odd-indexed tap count
    even.clear();
    even.resize(ne.div_ceil(4) * 4 - ne, 0.0);
    for i in (0..ne).rev() {
        even.push(taps[2 * i]);
    }
    odd.clear();
    odd.resize(no.div_ceil(4) * 4 - no, 0.0);
    for i in (0..no).rev() {
        odd.push(taps[2 * i + 1]);
    }
}

/// Manual-intrinsics row dot: [`F32x4`] multiply-accumulate, then the
/// pairwise horizontal add.
fn simd_dot(window: &[f32], taps4: &[f32]) -> f32 {
    debug_assert!(taps4.len().is_multiple_of(4));
    debug_assert!(window.len() >= taps4.len());
    let mut acc = F32x4::ZERO;
    for (w, t) in window.chunks_exact(4).zip(taps4.chunks_exact(4)) {
        acc = acc.mul_add(F32x4::load(w), F32x4::load(t));
    }
    acc.horizontal_sum()
}

/// Two dot products over one shared window (equal-length padded taps): each
/// window vector is loaded once and fed to both accumulators. Per filter the
/// accumulation sequence is exactly [`simd_dot`]'s, so the pairing changes
/// load traffic only, never a result bit.
fn simd_dot2(window: &[f32], taps0: &[f32], taps1: &[f32]) -> (f32, f32) {
    debug_assert_eq!(taps0.len(), taps1.len());
    debug_assert!(taps0.len().is_multiple_of(4));
    debug_assert!(window.len() >= taps0.len());
    let mut acc0 = F32x4::ZERO;
    let mut acc1 = F32x4::ZERO;
    for ((w, t0), t1) in window
        .chunks_exact(4)
        .zip(taps0.chunks_exact(4))
        .zip(taps1.chunks_exact(4))
    {
        let wv = F32x4::load(w);
        acc0 = acc0.mul_add(wv, F32x4::load(t0));
        acc1 = acc1.mul_add(wv, F32x4::load(t1));
    }
    (acc0.horizontal_sum(), acc1.horizontal_sum())
}

/// Auto-vectorization row dot: plain `[f32; 4]` accumulators the compiler
/// vectorizes on its own, folded in [`F32x4::horizontal_sum`]'s order.
#[inline(always)]
fn unrolled_dot(window: &[f32], taps4: &[f32]) -> f32 {
    debug_assert!(taps4.len().is_multiple_of(4));
    let mut acc = [0.0f32; 4];
    for (w, t) in window.chunks_exact(4).zip(taps4.chunks_exact(4)) {
        acc[0] += w[0] * t[0];
        acc[1] += w[1] * t[1];
        acc[2] += w[2] * t[2];
        acc[3] += w[3] * t[3];
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Shared-window pair of [`unrolled_dot`]s — same load-sharing trick as
/// [`simd_dot2`], same bit-identity argument: each filter's per-lane
/// accumulation order is unchanged.
#[inline(always)]
fn unrolled_dot2(window: &[f32], taps0: &[f32], taps1: &[f32]) -> (f32, f32) {
    debug_assert_eq!(taps0.len(), taps1.len());
    debug_assert!(taps0.len().is_multiple_of(4));
    let mut a = [0.0f32; 4];
    let mut b = [0.0f32; 4];
    for ((w, t0), t1) in window
        .chunks_exact(4)
        .zip(taps0.chunks_exact(4))
        .zip(taps1.chunks_exact(4))
    {
        for l in 0..4 {
            a[l] += w[l] * t0[l];
            b[l] += w[l] * t1[l];
        }
    }
    ((a[0] + a[2]) + (a[1] + a[3]), (b[0] + b[2]) + (b[1] + b[3]))
}

/// Per-column vertical dot product over `N` columns starting at column
/// `x0`: `offs[i]` is the flat offset (`wrapped_row * stride`) of padded
/// tap `i`'s source row in the image's backing slice, and the four
/// partial accumulators indexed by `i % 4` replicate the lanes of the row
/// path's accumulator register, folded in [`F32x4::horizontal_sum`]'s
/// `(p0 + p2) + (p1 + p3)` order — this is what makes the columnar result
/// bit-identical to both row dots per column.
#[inline(always)]
fn col_dot<const N: usize>(data: &[f32], offs: &[usize], taps: &[f32], x0: usize) -> Lanes<N> {
    debug_assert!(taps.len().is_multiple_of(4));
    debug_assert_eq!(offs.len(), taps.len());
    let load = |i: usize| Lanes::<N>::load(&data[offs[i] + x0..]);
    let (mut p0, mut p1, mut p2, mut p3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    let mut i = 0;
    while i < taps.len() {
        p0 = p0.mul_add(load(i), Lanes::splat(taps[i]));
        p1 = p1.mul_add(load(i + 1), Lanes::splat(taps[i + 1]));
        p2 = p2.mul_add(load(i + 2), Lanes::splat(taps[i + 2]));
        p3 = p3.mul_add(load(i + 3), Lanes::splat(taps[i + 3]));
        i += 4;
    }
    (p0 + p2) + (p1 + p3)
}

/// Fills `idx` with `len` flat row *offsets* (`row * stride` into the image's
/// backing slice) for circularly wrapped row indices starting at `base`
/// (which may be negative or beyond `n`, as tap windows reach across the
/// image borders — the same values the row path reads from its materialized
/// circular extension). Interior windows skip the modular arithmetic; only
/// the few border rows pay for `rem_euclid`.
fn fill_wrapped(idx: &mut Vec<usize>, base: isize, len: usize, n: usize, stride: usize) {
    idx.clear();
    if base >= 0 && base as usize + len <= n {
        idx.extend((base as usize..base as usize + len).map(|r| r * stride));
    } else {
        idx.extend((0..len).map(|i| (base + i as isize).rem_euclid(n as isize) as usize * stride));
    }
}

/// Fused lowpass + highpass vertical dot product for filters sharing one
/// offset window (equal tap counts, e.g. the q-shift banks): every source
/// row vector is loaded once and feeds both filters' partial accumulators.
/// Each filter's per-column accumulation sequence is exactly [`col_dot`]'s,
/// so the fusion changes memory traffic, not one bit of output.
#[inline(always)]
fn col_dot2<const N: usize>(
    data: &[f32],
    offs: &[usize],
    t0: &[f32],
    t1: &[f32],
    x0: usize,
) -> (Lanes<N>, Lanes<N>) {
    debug_assert!(t0.len().is_multiple_of(4));
    debug_assert_eq!(t0.len(), t1.len());
    debug_assert_eq!(offs.len(), t0.len());
    let load = |i: usize| Lanes::<N>::load(&data[offs[i] + x0..]);
    let (mut a0, mut a1, mut a2, mut a3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    let (mut b0, mut b1, mut b2, mut b3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    let mut i = 0;
    while i < t0.len() {
        let r0 = load(i);
        a0 = a0.mul_add(r0, Lanes::splat(t0[i]));
        b0 = b0.mul_add(r0, Lanes::splat(t1[i]));
        let r1 = load(i + 1);
        a1 = a1.mul_add(r1, Lanes::splat(t0[i + 1]));
        b1 = b1.mul_add(r1, Lanes::splat(t1[i + 1]));
        let r2 = load(i + 2);
        a2 = a2.mul_add(r2, Lanes::splat(t0[i + 2]));
        b2 = b2.mul_add(r2, Lanes::splat(t1[i + 2]));
        let r3 = load(i + 3);
        a3 = a3.mul_add(r3, Lanes::splat(t0[i + 3]));
        b3 = b3.mul_add(r3, Lanes::splat(t1[i + 3]));
        i += 4;
    }
    ((a0 + a2) + (a1 + a3), (b0 + b2) + (b1 + b3))
}

/// Filters one output row of both analysis channels in a single pass over
/// the shared offset window (see [`col_dot2`]).
fn filter_cols2(
    data: &[f32],
    idx: &[usize],
    t0: &[f32],
    t1: &[f32],
    lo: &mut [f32],
    hi: &mut [f32],
) {
    let w = lo.len();
    let mut x = 0;
    while x + 8 <= w {
        let (a, b) = col_dot2::<8>(data, idx, t0, t1, x);
        a.store(&mut lo[x..]);
        b.store(&mut hi[x..]);
        x += 8;
    }
    while x + 4 <= w {
        let (a, b) = col_dot2::<4>(data, idx, t0, t1, x);
        a.store(&mut lo[x..]);
        b.store(&mut hi[x..]);
        x += 4;
    }
    while x < w {
        let (a, b) = col_dot2::<1>(data, idx, t0, t1, x);
        a.store(&mut lo[x..]);
        b.store(&mut hi[x..]);
        x += 1;
    }
}

/// Filters one output row of the columnar analysis across all column groups.
fn filter_cols(data: &[f32], idx: &[usize], taps: &[f32], out: &mut [f32]) {
    let w = out.len();
    let mut x = 0;
    while x + 8 <= w {
        col_dot::<8>(data, idx, taps, x).store(&mut out[x..]);
        x += 8;
    }
    while x + 4 <= w {
        col_dot::<4>(data, idx, taps, x).store(&mut out[x..]);
        x += 4;
    }
    while x < w {
        col_dot::<1>(data, idx, taps, x).store(&mut out[x..]);
        x += 1;
    }
}

/// Reconstructs one output row of the columnar synthesis (the lane-wise sum
/// of the two channel dot products, matching the row path's
/// `dot(lo) + dot(hi)` per column).
#[allow(clippy::too_many_arguments)]
fn synth_cols(
    lo: &[f32],
    hi: &[f32],
    idx0: &[usize],
    idx1: &[usize],
    t0: &[f32],
    t1: &[f32],
    out: &mut [f32],
) {
    let w = out.len();
    let mut x = 0;
    while x + 8 <= w {
        (col_dot::<8>(lo, idx0, t0, x) + col_dot::<8>(hi, idx1, t1, x)).store(&mut out[x..]);
        x += 8;
    }
    while x + 4 <= w {
        (col_dot::<4>(lo, idx0, t0, x) + col_dot::<4>(hi, idx1, t1, x)).store(&mut out[x..]);
        x += 4;
    }
    while x < w {
        (col_dot::<1>(lo, idx0, t0, x) + col_dot::<1>(hi, idx1, t1, x)).store(&mut out[x..]);
        x += 1;
    }
}

/// Columnar analysis. Tap caches are the kernel's `reversed_padded`
/// vectors.
#[allow(clippy::too_many_arguments)]
fn columnar_analyze(
    rev0: &[f32],
    rev1: &[f32],
    l0: usize,
    l1: usize,
    phase: Phase,
    img: &Image,
    lo: &mut Image,
    hi: &mut Image,
    cs: &mut ColScratch,
) {
    let (w, h) = img.dims();
    let half = h / 2;
    lo.reshape(w, half);
    hi.reshape(w, half);
    let phase = phase.offset();
    let data = img.as_slice();
    // Equal-length filters (the orthonormal banks, e.g. q-shift at DT-CWT
    // levels >= 2) share one offset window per output row — fuse the two
    // channel filters so each source row is loaded once.
    let fused = l0 == l1 && rev0.len() == rev1.len();
    for k in 0..half {
        // Window top of output row k: source rows (2k + phase + 1 - l .. ],
        // wrapped circularly; trailing zero-pad taps read (and ignore) the
        // rows the row path's right extension margin covers.
        let c = (2 * k + phase) as isize;
        fill_wrapped(&mut cs.idx0, c + 1 - l0 as isize, rev0.len(), h, w);
        if fused {
            filter_cols2(data, &cs.idx0, rev0, rev1, lo.row_mut(k), hi.row_mut(k));
        } else {
            fill_wrapped(&mut cs.idx1, c + 1 - l1 as isize, rev1.len(), h, w);
            filter_cols(data, &cs.idx0, rev0, lo.row_mut(k));
            filter_cols(data, &cs.idx1, rev1, hi.row_mut(k));
        }
    }
}

/// Columnar polyphase synthesis; the final
/// delay-compensating rotation is fused into the destination row index.
#[allow(clippy::too_many_arguments)]
fn columnar_synthesize(
    g0_even: &[f32],
    g0_odd: &[f32],
    g1_even: &[f32],
    g1_odd: &[f32],
    phase: Phase,
    delay: usize,
    lo: &Image,
    hi: &Image,
    out: &mut Image,
    cs: &mut ColScratch,
) {
    let (w, nh) = lo.dims();
    let n = nh * 2;
    out.reshape(w, n);
    let d = delay % n;
    let phase = phase.offset();
    let lo_data = lo.as_slice();
    let hi_data = hi.as_slice();
    for m in 0..n {
        let mp = m as isize - phase as isize;
        let parity = (mp & 1) as usize;
        let (t0, t1) = if parity == 0 {
            (g0_even, g1_even)
        } else {
            (g0_odd, g1_odd)
        };
        let k_top = (mp - parity as isize) / 2; // highest contributing k
        fill_wrapped(&mut cs.idx0, k_top + 1 - t0.len() as isize, t0.len(), nh, w);
        if t0.len() == t1.len() {
            cs.idx1.clone_from(&cs.idx0);
        } else {
            fill_wrapped(&mut cs.idx1, k_top + 1 - t1.len() as isize, t1.len(), nh, w);
        }
        // Raw sample m lands at output row (m - delay) mod n — the rotation
        // the row path applies as a separate copy.
        let dst = (m + n - d) % n;
        synth_cols(
            lo_data,
            hi_data,
            &cs.idx0,
            &cs.idx1,
            t0,
            t1,
            out.row_mut(dst),
        );
    }
}

/// The NEON engine's filter kernel; `MANUAL` selects the row dot flavour
/// (see the [module docs](self)). Use it through [`SimdKernel`] or
/// [`AutoVecKernel`].
#[derive(Debug, Clone)]
pub struct NeonKernel<const MANUAL: bool> {
    rev0: Vec<f32>,
    rev1: Vec<f32>,
    g0_even: Vec<f32>,
    g0_odd: Vec<f32>,
    g1_even: Vec<f32>,
    g1_odd: Vec<f32>,
    a_key0: Vec<f32>,
    a_key1: Vec<f32>,
    s_key0: Vec<f32>,
    s_key1: Vec<f32>,
    columnar: bool,
}

/// Manual 4-lane vectorized kernel (the paper's NEON-intrinsics flavor).
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::{FilterKernel, ScalarKernel};
/// use wavefuse_simd::SimdKernel;
///
/// // SIMD analysis matches the scalar reference.
/// let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
/// let bank = wavefuse_dtcwt::FilterBank::cdf_9_7()?;
/// let taps = wavefuse_dtcwt::dwt1d::BankTaps::new(&bank);
/// let mut scalar = ScalarKernel::new();
/// let mut simd = SimdKernel::new();
/// let a = wavefuse_dtcwt::dwt1d::analyze(&mut scalar, &taps, &x, wavefuse_dtcwt::dwt1d::Phase::A)?;
/// let b = wavefuse_dtcwt::dwt1d::analyze(&mut simd, &taps, &x, wavefuse_dtcwt::dwt1d::Phase::A)?;
/// for (u, v) in a.0.iter().zip(&b.0) {
///     assert!((u - v).abs() < 1e-5);
/// }
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
pub type SimdKernel = NeonKernel<true>;

/// Compiler-auto-vectorization flavor: plain loops with four independent
/// accumulators and no lane intrinsics, the shape `-ftree-vectorize`
/// exploits in the paper's auto-vectorized build.
pub type AutoVecKernel = NeonKernel<false>;

impl<const MANUAL: bool> Default for NeonKernel<MANUAL> {
    fn default() -> Self {
        NeonKernel {
            rev0: Vec::new(),
            rev1: Vec::new(),
            g0_even: Vec::new(),
            g0_odd: Vec::new(),
            g1_even: Vec::new(),
            g1_odd: Vec::new(),
            a_key0: Vec::new(),
            a_key1: Vec::new(),
            s_key0: Vec::new(),
            s_key1: Vec::new(),
            columnar: true,
        }
    }
}

impl<const MANUAL: bool> NeonKernel<MANUAL> {
    /// Creates a new kernel (columnar column passes enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// This flavour's row dot product.
    #[inline(always)]
    fn dot(window: &[f32], taps4: &[f32]) -> f32 {
        if MANUAL {
            simd_dot(window, taps4)
        } else {
            unrolled_dot(window, taps4)
        }
    }

    /// This flavour's shared-window dot pair.
    #[inline(always)]
    fn dot2(window: &[f32], taps0: &[f32], taps1: &[f32]) -> (f32, f32) {
        if MANUAL {
            simd_dot2(window, taps0, taps1)
        } else {
            unrolled_dot2(window, taps0, taps1)
        }
    }

    /// Rebuilds the reversed analysis taps, only when the filter actually
    /// changes (keyed by tap values). Trailing zero-pad taps read past the
    /// window center, which the caller's right extension margin covers.
    fn analysis_taps(&mut self, h0: &[f32], h1: &[f32]) {
        if taps_changed(&mut self.a_key0, h0) {
            reversed_padded(h0, false, &mut self.rev0);
        }
        if taps_changed(&mut self.a_key1, h1) {
            reversed_padded(h1, false, &mut self.rev1);
        }
    }

    /// Rebuilds the polyphase synthesis taps when the filter changes.
    fn synthesis_taps(&mut self, g0: &[f32], g1: &[f32]) {
        if taps_changed(&mut self.s_key0, g0) {
            polyphase_reversed(g0, &mut self.g0_even, &mut self.g0_odd);
        }
        if taps_changed(&mut self.s_key1, g1) {
            polyphase_reversed(g1, &mut self.g1_even, &mut self.g1_odd);
        }
    }
}

impl<const MANUAL: bool> FilterKernel for NeonKernel<MANUAL> {
    fn name(&self) -> &'static str {
        if MANUAL {
            "neon-simd"
        } else {
            "neon-autovec"
        }
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
        self.analysis_taps(h0, h1);
        let (l0, l1) = (h0.len(), h1.len());
        if l0 == l1 && self.rev0.len() == self.rev1.len() {
            // Equal-length pair (the q-shift orthonormal banks): both filters
            // read the same window, so share its loads across the two dots.
            for k in 0..lo.len() {
                let center = left + 2 * k + phase;
                let (a, b) = Self::dot2(&ext[center + 1 - l0..], &self.rev0, &self.rev1);
                lo[k] = a;
                hi[k] = b;
            }
        } else {
            for k in 0..lo.len() {
                let center = left + 2 * k + phase;
                lo[k] = Self::dot(&ext[center + 1 - l0..], &self.rev0);
                hi[k] = Self::dot(&ext[center + 1 - l1..], &self.rev1);
            }
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
        // Polyphase split: outputs of each parity use every other tap, and
        // the channel window is contiguous — so each output is again a
        // lane-aligned dot product (front-padded taps read below the window,
        // covered by the caller's left extension margin).
        self.synthesis_taps(g0, g1);
        for (m, o) in out.iter_mut().enumerate() {
            let mp = m as isize - phase as isize;
            let parity = (mp & 1) as usize;
            let (t0, t1) = if parity == 0 {
                (&self.g0_even, &self.g1_even)
            } else {
                (&self.g0_odd, &self.g1_odd)
            };
            let k_top = (mp - parity as isize) / 2; // highest contributing k
            let start0 = (left as isize + k_top + 1 - t0.len() as isize) as usize;
            let start1 = (left as isize + k_top + 1 - t1.len() as isize) as usize;
            *o = Self::dot(&lo_ext[start0..], t0) + Self::dot(&hi_ext[start1..], t1);
        }
    }

    fn columnar(&self) -> bool {
        self.columnar
    }

    fn set_columnar(&mut self, enabled: bool) {
        self.columnar = enabled;
    }

    // Note on summation order: the *row* path differs from the scalar kernel
    // (4-lane partials vs a single running sum), which is why row results are
    // compared against scalar with a small tolerance. The *column* path below
    // replicates the row path's own order per column, so columnar output is
    // bit-identical to this kernel's transpose-staged fallback — not merely
    // close to it.
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
        if !self.columnar {
            return fallback_analyze_cols(self, taps, phase, img, lo, hi, cs, s1);
        }
        let (w, h) = img.dims();
        if w == 0 || h == 0 || !h.is_multiple_of(2) {
            return Err(DtcwtError::BadDimensions {
                width: w,
                height: h,
                reason: "column analysis requires even non-zero height",
            });
        }
        self.analysis_taps(&taps.h0, &taps.h1);
        columnar_analyze(
            &self.rev0,
            &self.rev1,
            taps.h0.len(),
            taps.h1.len(),
            phase,
            img,
            lo,
            hi,
            cs,
        );
        Ok(())
    }

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
        if !self.columnar {
            return fallback_synthesize_cols(self, taps, phase, lo, hi, out, cs, s1);
        }
        if lo.is_empty() || lo.dims() != hi.dims() {
            return Err(DtcwtError::BadDimensions {
                width: hi.width(),
                height: hi.height(),
                reason: "column synthesis channels must be non-empty and equal-sized",
            });
        }
        self.synthesis_taps(&taps.g0, &taps.g1);
        columnar_synthesize(
            &self.g0_even,
            &self.g0_odd,
            &self.g1_even,
            &self.g1_odd,
            phase,
            taps.delay(),
            lo,
            hi,
            out,
            cs,
        );
        Ok(())
    }

    fn fuse_strip(
        &mut self,
        a: &ComplexImage,
        b: &ComplexImage,
        y0: usize,
        y1: usize,
        op: FuseOp,
        fs: &mut FuseScratch,
        out_re: &mut Image,
        out_im: &mut Image,
    ) -> Result<(), DtcwtError> {
        crate::fuse::fuse_strip_simd(a, b, y0, y1, op, fs, out_re, out_im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefuse_dtcwt::dwt1d::{analyze, synthesize, BankTaps, Phase};
    use wavefuse_dtcwt::{Dtcwt, FilterBank, Image, ScalarKernel};

    fn banks() -> Vec<FilterBank> {
        vec![
            FilterBank::haar().unwrap(),
            FilterBank::daubechies(3).unwrap(),
            FilterBank::legall_5_3().unwrap(),
            FilterBank::cdf_9_7().unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
            FilterBank::qshift_b().unwrap().time_reverse(),
        ]
    }

    fn signal(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.37).sin() + (i as f32 * 0.011).cos()) * 5.0)
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn analysis_matches_scalar_all_banks_phases() {
        for bank in banks() {
            let taps = BankTaps::new(&bank);
            for phase in [Phase::A, Phase::B] {
                for n in [8usize, 22, 64, 88] {
                    let x = signal(n);
                    let mut sc = ScalarKernel::new();
                    let mut si = SimdKernel::new();
                    let mut av = AutoVecKernel::new();
                    let (lo_s, hi_s) = analyze(&mut sc, &taps, &x, phase).unwrap();
                    let (lo_v, hi_v) = analyze(&mut si, &taps, &x, phase).unwrap();
                    let (lo_a, hi_a) = analyze(&mut av, &taps, &x, phase).unwrap();
                    let what = format!("{} n={n} {phase:?}", bank.name());
                    assert_close(&lo_s, &lo_v, 1e-4, &format!("simd lo {what}"));
                    assert_close(&hi_s, &hi_v, 1e-4, &format!("simd hi {what}"));
                    assert_close(&lo_s, &lo_a, 1e-4, &format!("autovec lo {what}"));
                    assert_close(&hi_s, &hi_a, 1e-4, &format!("autovec hi {what}"));
                }
            }
        }
    }

    #[test]
    fn synthesis_matches_scalar_all_banks_phases() {
        for bank in banks() {
            let taps = BankTaps::new(&bank);
            for phase in [Phase::A, Phase::B] {
                let x = signal(48);
                let mut sc = ScalarKernel::new();
                let (lo, hi) = analyze(&mut sc, &taps, &x, phase).unwrap();
                let ref_out = synthesize(&mut sc, &taps, &lo, &hi, phase).unwrap();
                let mut si = SimdKernel::new();
                let simd_out = synthesize(&mut si, &taps, &lo, &hi, phase).unwrap();
                let mut av = AutoVecKernel::new();
                let auto_out = synthesize(&mut av, &taps, &lo, &hi, phase).unwrap();
                let what = format!("{} {phase:?}", bank.name());
                assert_close(&ref_out, &simd_out, 1e-4, &format!("simd {what}"));
                assert_close(&ref_out, &auto_out, 1e-4, &format!("autovec {what}"));
            }
        }
    }

    #[test]
    fn full_dtcwt_round_trip_through_simd() {
        let img = Image::from_fn(88, 72, |x, y| ((x * 3 + y * 7) % 23) as f32 * 0.5);
        let t = Dtcwt::new(3).unwrap();
        let pyr = t.forward_with(&mut SimdKernel::new(), &img).unwrap();
        let back = t.inverse_with(&mut SimdKernel::new(), &pyr).unwrap();
        assert!(back.max_abs_diff(&img) < 2e-3);
    }

    #[test]
    fn simd_and_scalar_pyramids_agree() {
        let img = Image::from_fn(64, 48, |x, y| ((x ^ y) % 31) as f32);
        let t = Dtcwt::new(3).unwrap();
        let p_scalar = t.forward_with(&mut ScalarKernel::new(), &img).unwrap();
        let p_simd = t.forward_with(&mut SimdKernel::new(), &img).unwrap();
        for level in 0..3 {
            for (a, b) in p_scalar.subbands(level).iter().zip(p_simd.subbands(level)) {
                assert!(a.re.max_abs_diff(&b.re) < 1e-3);
                assert!(a.im.max_abs_diff(&b.im) < 1e-3);
            }
        }
    }

    #[test]
    fn kernel_names() {
        assert_eq!(SimdKernel::new().name(), "neon-simd");
        assert_eq!(AutoVecKernel::new().name(), "neon-autovec");
    }

    #[test]
    fn cached_taps_survive_alternating_filter_banks() {
        // One long-lived kernel instance cycling through every bank twice
        // (the worker-pool usage pattern) must match fresh per-bank kernels.
        let x = signal(40);
        let mut si = SimdKernel::new();
        let mut av = AutoVecKernel::new();
        for round in 0..2 {
            for bank in banks() {
                let taps = BankTaps::new(&bank);
                for phase in [Phase::A, Phase::B] {
                    let mut sc = ScalarKernel::new();
                    let (lo, hi) = analyze(&mut sc, &taps, &x, phase).unwrap();
                    let ref_out = synthesize(&mut sc, &taps, &lo, &hi, phase).unwrap();
                    let what = format!("{} {phase:?} round {round}", bank.name());
                    let (lo_v, hi_v) = analyze(&mut si, &taps, &x, phase).unwrap();
                    let (lo_a, hi_a) = analyze(&mut av, &taps, &x, phase).unwrap();
                    assert_close(&lo, &lo_v, 1e-4, &format!("simd lo {what}"));
                    assert_close(&hi, &hi_v, 1e-4, &format!("simd hi {what}"));
                    assert_close(&lo, &lo_a, 1e-4, &format!("autovec lo {what}"));
                    assert_close(&hi, &hi_a, 1e-4, &format!("autovec hi {what}"));
                    let out_v = synthesize(&mut si, &taps, &lo, &hi, phase).unwrap();
                    let out_a = synthesize(&mut av, &taps, &lo, &hi, phase).unwrap();
                    assert_close(&ref_out, &out_v, 1e-4, &format!("simd syn {what}"));
                    assert_close(&ref_out, &out_a, 1e-4, &format!("autovec syn {what}"));
                }
            }
        }
    }

    /// Runs one kernel's column analysis + synthesis round trip.
    fn cols_round_trip(
        k: &mut dyn FilterKernel,
        taps: &BankTaps,
        phase: Phase,
        img: &Image,
    ) -> (Image, Image, Image) {
        let mut lo = Image::zeros(0, 0);
        let mut hi = Image::zeros(0, 0);
        let mut rec = Image::zeros(0, 0);
        let mut cs = ColScratch::new();
        let mut s1 = Scratch1d::new();
        k.analyze_cols(taps, phase, img, &mut lo, &mut hi, &mut cs, &mut s1)
            .unwrap();
        k.synthesize_cols(taps, phase, &lo, &hi, &mut rec, &mut cs, &mut s1)
            .unwrap();
        (lo, hi, rec)
    }

    #[test]
    fn columnar_bit_identical_to_fallback() {
        // The columnar path must reproduce the transpose-staged fallback
        // bit-for-bit: same kernel type, columnar on vs off, exact equality.
        // Widths below the 4-lane group force the scalar tail; width 13
        // exercises the 8-, 4-, and 1-lane groups together.
        for bank in banks() {
            let taps = BankTaps::new(&bank);
            for phase in [Phase::A, Phase::B] {
                for (w, h) in [(2usize, 8usize), (3, 12), (13, 10), (16, 22), (40, 36)] {
                    let img =
                        Image::from_fn(w, h, |x, y| ((x * 13 + y * 7) % 29) as f32 * 0.31 - 4.0);
                    let what = format!("{} {phase:?} {w}x{h}", bank.name());
                    let mut on = SimdKernel::new();
                    let mut off = SimdKernel::new();
                    off.set_columnar(false);
                    assert!(on.columnar() && !off.columnar());
                    let (lo_c, hi_c, rec_c) = cols_round_trip(&mut on, &taps, phase, &img);
                    let (lo_f, hi_f, rec_f) = cols_round_trip(&mut off, &taps, phase, &img);
                    assert_eq!(lo_c.as_slice(), lo_f.as_slice(), "simd lo {what}");
                    assert_eq!(hi_c.as_slice(), hi_f.as_slice(), "simd hi {what}");
                    assert_eq!(rec_c.as_slice(), rec_f.as_slice(), "simd rec {what}");

                    let mut av_on = AutoVecKernel::new();
                    let mut av_off = AutoVecKernel::new();
                    av_off.set_columnar(false);
                    let (alo_c, ahi_c, arec_c) = cols_round_trip(&mut av_on, &taps, phase, &img);
                    let (alo_f, ahi_f, arec_f) = cols_round_trip(&mut av_off, &taps, phase, &img);
                    assert_eq!(alo_c.as_slice(), alo_f.as_slice(), "autovec lo {what}");
                    assert_eq!(ahi_c.as_slice(), ahi_f.as_slice(), "autovec hi {what}");
                    assert_eq!(arec_c.as_slice(), arec_f.as_slice(), "autovec rec {what}");
                }
            }
        }
    }

    #[test]
    fn columnar_full_pyramids_bit_identical() {
        // End to end: the whole DT-CWT forward + inverse must not change by
        // a single bit when the columnar path replaces the transpose path.
        let img = Image::from_fn(88, 72, |x, y| ((x * 3 + y * 7) % 23) as f32 * 0.5);
        let t = Dtcwt::new(3).unwrap();
        let mut on = SimdKernel::new();
        let mut off = SimdKernel::new();
        off.set_columnar(false);
        let p_on = t.forward_with(&mut on, &img).unwrap();
        let p_off = t.forward_with(&mut off, &img).unwrap();
        for level in 0..3 {
            for (a, b) in p_on.subbands(level).iter().zip(p_off.subbands(level)) {
                assert_eq!(a.re.as_slice(), b.re.as_slice(), "re level {level}");
                assert_eq!(a.im.as_slice(), b.im.as_slice(), "im level {level}");
            }
        }
        let r_on = t.inverse_with(&mut on, &p_on).unwrap();
        let r_off = t.inverse_with(&mut off, &p_off).unwrap();
        assert_eq!(r_on.as_slice(), r_off.as_slice());
    }

    #[test]
    fn columnar_rejects_bad_shapes() {
        let taps = BankTaps::new(&FilterBank::cdf_9_7().unwrap());
        let mut k = SimdKernel::new();
        let odd = Image::from_fn(8, 7, |_, _| 1.0);
        let mut lo = Image::zeros(0, 0);
        let mut hi = Image::zeros(0, 0);
        let mut cs = ColScratch::new();
        let mut s1 = Scratch1d::new();
        assert!(k
            .analyze_cols(&taps, Phase::A, &odd, &mut lo, &mut hi, &mut cs, &mut s1)
            .is_err());
        let a = Image::from_fn(8, 4, |_, _| 1.0);
        let b = Image::from_fn(8, 5, |_, _| 1.0);
        let mut out = Image::zeros(0, 0);
        assert!(k
            .synthesize_cols(&taps, Phase::A, &a, &b, &mut out, &mut cs, &mut s1)
            .is_err());
    }

    #[test]
    fn padding_helpers() {
        let mut out = Vec::new();
        reversed_padded(&[1.0, 2.0, 3.0], false, &mut out);
        assert_eq!(out, vec![3.0, 2.0, 1.0, 0.0]);
        reversed_padded(&[1.0, 2.0, 3.0], true, &mut out);
        assert_eq!(out, vec![0.0, 3.0, 2.0, 1.0]);
        let (mut e, mut o) = (Vec::new(), Vec::new());
        polyphase_reversed(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut e, &mut o);
        assert_eq!(e, vec![0.0, 5.0, 3.0, 1.0]);
        assert_eq!(o, vec![0.0, 0.0, 4.0, 2.0]);
    }
}
