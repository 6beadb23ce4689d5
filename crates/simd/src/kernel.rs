//! The NEON engine's [`FilterKernel`]: one lane body for rows and columns.
//!
//! [`SimdKernel`] owns the tap caches, the lane-parallel row and column
//! passes and strip fusion. The paper builds its NEON transform two ways,
//! and the tests check the lane passes against a per-output row dot in each
//! style:
//!
//! * the *manual* intrinsics (Fig. 3): the filter is reversed once so each
//!   output becomes a contiguous dot product, accumulated four lanes at a
//!   time in an [`F32x4`](crate::F32x4) quad register and folded with
//!   [`F32x4::horizontal_sum`](crate::F32x4::horizontal_sum);
//! * the *compiler auto-vectorized* build (`-mfpu=neon -ftree-vectorize`):
//!   plain `[f32; 4]` arithmetic with four independent accumulators.
//!
//! Tap vectors are zero-padded to a multiple of four so no dot has a scalar
//! remainder — the paper makes the same "iteration count is a multiple of
//! the lane count" argument. Both dots fold their four partials as
//! `(p0 + p2) + (p1 + p3)`, so the two builds produce identical bits, and
//! the lane passes replay that order, so one kernel stands for both.
//!
//! # Lane-parallel passes
//!
//! Every pass runs on one lane-generic body, `col_dot` over [`Lanes<N>`]:
//! lane `x` computes output `x`, 16 outputs at a time, then at most one
//! step of 8 and one of 4, then 1 at a time at the end, with no horizontal
//! sums. An offset table `offs` names the source of each padded tap for
//! output 0, and output `x` reads `data[offs[i] + x]`, so each tap is one
//! contiguous `N`-wide load.
//!
//! The three lane loops on that body (`filter_cols`, `filter_cols2` and
//! `synth_cols`) are compiled twice, portable and with AVX2 (see the
//! [crate docs](crate#lane-paths)), and every pass calls them through the
//! path the kernel detected when it was built. The 16-output step is what
//! fills AVX2's registers: a `Lanes<16>` accumulator is two 256-bit
//! registers, where the portable copy splits each 8-lane op in two.
//!
//! * **Column passes** hold `N` *adjacent columns* of one output row: rows
//!   are loaded stride-1 straight from the image, with no transposes.
//! * **Row analysis** splits the extended row once into `[even | odd]`
//!   samples; consecutive outputs step the input by two, so tap `i` of every
//!   output reads one contiguous run of one half.
//! * **Row synthesis** runs the two output parities separately: within a
//!   parity the channel window slides by one sample per output, so each
//!   parity is one contiguous lane pass, stored at stride 2.
//!
//! Bit-identity with the per-output dot product (the test oracle, and the
//! transpose staging of it that the column passes are checked against) comes
//! from replaying its exact summation structure per lane: four partial
//! accumulators indexed by `tap_index % 4` (the four lanes of the dot's
//! accumulator register) folded as `(p0 + p2) + (p1 + p3)`, each update an
//! unfused `acc + sample * tap`. Since every output is independent, lane width
//! never changes any output's value.

use crate::isa::Isa;
use crate::vector::Lanes;
use wavefuse_dtcwt::dwt1d::{BankTaps, Phase};
use wavefuse_dtcwt::kernel::taps_changed;
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

/// Lane-parallel dot product of the `N` outputs starting at output `x0`:
/// `offs[i]` is the offset in `data` of padded tap `i`'s source sample for
/// output 0, and output `x` reads `data[offs[i] + x]` (a wrapped image row
/// in the column passes, the split row in the row passes). The four partial
/// accumulators indexed by `i % 4` replicate the lanes of the per-output
/// dot's accumulator register, folded in
/// [`F32x4::horizontal_sum`](crate::F32x4::horizontal_sum)'s
/// `(p0 + p2) + (p1 + p3)` order — this is what makes every lane
/// bit-identical to both per-output dots.
#[inline(always)]
fn col_dot<const N: usize>(data: &[f32], offs: &[usize], taps: &[f32], x0: usize) -> Lanes<N> {
    debug_assert!(taps.len().is_multiple_of(4));
    debug_assert_eq!(offs.len(), taps.len());
    let data = &data[x0..];
    let load = |o: usize| Lanes::<N>::load(&data[o..]);
    let (mut p0, mut p1, mut p2, mut p3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    for (o, t) in offs.chunks_exact(4).zip(taps.chunks_exact(4)) {
        p0 = p0.mul_add(load(o[0]), Lanes::splat(t[0]));
        p1 = p1.mul_add(load(o[1]), Lanes::splat(t[1]));
        p2 = p2.mul_add(load(o[2]), Lanes::splat(t[2]));
        p3 = p3.mul_add(load(o[3]), Lanes::splat(t[3]));
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

/// Fused lowpass + highpass lane dot product for filters sharing one
/// offset window (equal tap counts, e.g. the q-shift banks): every source
/// vector is loaded once and feeds both filters' partial accumulators.
/// Each filter's per-output accumulation sequence is exactly [`col_dot`]'s,
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
    let data = &data[x0..];
    let load = |o: usize| Lanes::<N>::load(&data[o..]);
    let (mut a0, mut a1, mut a2, mut a3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    let (mut b0, mut b1, mut b2, mut b3) = (Lanes::ZERO, Lanes::ZERO, Lanes::ZERO, Lanes::ZERO);
    for ((o, ta), tb) in offs
        .chunks_exact(4)
        .zip(t0.chunks_exact(4))
        .zip(t1.chunks_exact(4))
    {
        let r0 = load(o[0]);
        a0 = a0.mul_add(r0, Lanes::splat(ta[0]));
        b0 = b0.mul_add(r0, Lanes::splat(tb[0]));
        let r1 = load(o[1]);
        a1 = a1.mul_add(r1, Lanes::splat(ta[1]));
        b1 = b1.mul_add(r1, Lanes::splat(tb[1]));
        let r2 = load(o[2]);
        a2 = a2.mul_add(r2, Lanes::splat(ta[2]));
        b2 = b2.mul_add(r2, Lanes::splat(tb[2]));
        let r3 = load(o[3]);
        a3 = a3.mul_add(r3, Lanes::splat(ta[3]));
        b3 = b3.mul_add(r3, Lanes::splat(tb[3]));
    }
    ((a0 + a2) + (a1 + a3), (b0 + b2) + (b1 + b3))
}

/// Runs `$body` for the outputs `x..x + $n` of `0..$w`: 16 outputs per
/// step, then at most one 8- and one 4-output step, then one at a time.
/// `$n` is a `const` in `$body`, so each step instantiates the lane body at
/// its own width.
macro_rules! lane_steps {
    ($w:expr, |$x:ident, $n:ident| $body:expr) => {{
        let w = $w;
        let mut $x = 0;
        while $x + 16 <= w {
            const $n: usize = 16;
            $body;
            $x += $n;
        }
        while $x + 8 <= w {
            const $n: usize = 8;
            $body;
            $x += $n;
        }
        while $x + 4 <= w {
            const $n: usize = 4;
            $body;
            $x += $n;
        }
        while $x < w {
            const $n: usize = 1;
            $body;
            $x += $n;
        }
    }};
}

/// Filters `lo.len()` outputs of both analysis channels in a single pass
/// over the shared offset window (see [`col_dot2`]).
#[inline(always)]
pub(crate) fn filter_cols2(
    data: &[f32],
    idx: &[usize],
    t0: &[f32],
    t1: &[f32],
    lo: &mut [f32],
    hi: &mut [f32],
) {
    lane_steps!(lo.len(), |x, N| {
        let (a, b) = col_dot2::<N>(data, idx, t0, t1, x);
        a.store(&mut lo[x..]);
        b.store(&mut hi[x..]);
    });
}

/// Filters `out.len()` outputs of one analysis channel: a whole output row
/// of a column pass, or a whole channel of a row pass.
#[inline(always)]
pub(crate) fn filter_cols(data: &[f32], idx: &[usize], taps: &[f32], out: &mut [f32]) {
    lane_steps!(out.len(), |x, N| col_dot::<N>(data, idx, taps, x)
        .store(&mut out[x..]));
}

/// Reconstructs `out.len()` synthesis outputs: the lane-wise sum of the
/// two channel dot products, matching the per-output `dot(lo) + dot(hi)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn synth_cols(
    lo: &[f32],
    hi: &[f32],
    idx0: &[usize],
    idx1: &[usize],
    t0: &[f32],
    t1: &[f32],
    out: &mut [f32],
) {
    lane_steps!(out.len(), |x, N| (col_dot::<N>(lo, idx0, t0, x)
        + col_dot::<N>(hi, idx1, t1, x))
    .store(&mut out[x..]));
}

/// Columnar analysis. Tap caches are the kernel's `reversed_padded`
/// vectors.
#[allow(clippy::too_many_arguments)]
fn lane_analyze_cols(
    isa: Isa,
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
    lo.reshape_for_overwrite(w, half);
    hi.reshape_for_overwrite(w, half);
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
            isa.filter_cols2(data, &cs.idx0, rev0, rev1, lo.row_mut(k), hi.row_mut(k));
        } else {
            fill_wrapped(&mut cs.idx1, c + 1 - l1 as isize, rev1.len(), h, w);
            isa.filter_cols(data, &cs.idx0, rev0, lo.row_mut(k));
            isa.filter_cols(data, &cs.idx1, rev1, hi.row_mut(k));
        }
    }
}

/// Columnar polyphase synthesis; the final
/// delay-compensating rotation is fused into the destination row index.
#[allow(clippy::too_many_arguments)]
fn lane_synthesize_cols(
    isa: Isa,
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
    out.reshape_for_overwrite(w, n);
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
        isa.synth_cols(
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

/// Splits `ext` into its even samples followed by its odd samples in
/// `split`, and returns the even count: `ext[p]` lands at `split[p / 2]`
/// for even `p` and at `split[even + p / 2]` for odd `p`.
fn split_even_odd(ext: &[f32], split: &mut Vec<f32>) -> usize {
    let even = ext.len().div_ceil(2);
    split.resize(ext.len(), 0.0);
    let (e, o) = split.split_at_mut(even);
    for ((pair, e), o) in ext.chunks_exact(2).zip(e.iter_mut()).zip(o.iter_mut()) {
        *e = pair[0];
        *o = pair[1];
    }
    if let Some(&last) = ext.chunks_exact(2).remainder().first() {
        e[even - 1] = last;
    }
    even
}

/// Fills `offs` with the split-row offsets of `len` taps whose window for
/// output 0 starts at extended-row index `start`. Output `k` reads
/// `ext[start + i + 2k]`, which is `split[offs[i] + k]`: stepping two
/// samples in `ext` is one step within the same half.
fn fill_split(offs: &mut Vec<usize>, start: usize, len: usize, even: usize) {
    offs.clear();
    offs.extend((start..start + len).map(|p| p / 2 + (p & 1) * even));
}

/// The NEON engine's filter kernel (see the [module docs](self)), named
/// `"neon-simd"`.
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
#[derive(Debug, Clone, Default)]
pub struct SimdKernel {
    /// The compiled copy of the lane bodies every pass runs, detected when
    /// the kernel is built.
    isa: Isa,
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
    /// Row passes: the split extended row (analysis) or the outputs of
    /// each parity (synthesis).
    row: Vec<f32>,
    /// Row passes: the lowpass and highpass tap offset tables.
    offs0: Vec<usize>,
    offs1: Vec<usize>,
}

impl SimdKernel {
    /// Creates a new kernel on the widest lane path this CPU runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane path this kernel runs: `"avx2"` when it was built on an
    /// x86-64 CPU with AVX2, else `"portable"` (the build target's own
    /// vector instructions). Both paths produce the same bits; they differ
    /// in speed only.
    pub fn lane_path(&self) -> &'static str {
        self.isa.name()
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

impl FilterKernel for SimdKernel {
    fn name(&self) -> &'static str {
        "neon-simd"
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
        // Output k's window starts at ext[left + 2k + phase + 1 - l]; trailing
        // zero-pad taps read into the caller's right extension margin.
        let start = left + phase + 1;
        let even = split_even_odd(ext, &mut self.row);
        fill_split(&mut self.offs0, start - l0, self.rev0.len(), even);
        if l0 == l1 && self.rev0.len() == self.rev1.len() {
            // Equal-length pair (the q-shift orthonormal banks): both filters
            // read the same window, so share its loads across the two dots.
            self.isa
                .filter_cols2(&self.row, &self.offs0, &self.rev0, &self.rev1, lo, hi);
        } else {
            fill_split(&mut self.offs1, start - l1, self.rev1.len(), even);
            self.isa.filter_cols(&self.row, &self.offs0, &self.rev0, lo);
            self.isa.filter_cols(&self.row, &self.offs1, &self.rev1, hi);
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
        // Polyphase split: outputs of one parity use every other tap, and
        // the next output of that parity slides the channel window by one
        // sample — so each parity is one lane pass over contiguous windows
        // (front-padded taps read below the window, covered by the caller's
        // left extension margin), staged in one half of `row`.
        self.synthesis_taps(g0, g1);
        debug_assert!(out.len().is_multiple_of(2));
        let half = out.len() / 2;
        self.row.resize(out.len(), 0.0);
        let (even_run, odd_run) = self.row.split_at_mut(half);
        for (parity, run) in [(0, &mut *even_run), (1, &mut *odd_run)] {
            let (t0, t1) = if parity == 0 {
                (&self.g0_even, &self.g1_even)
            } else {
                (&self.g0_odd, &self.g1_odd)
            };
            // The first output of this parity, m = (phase + parity) mod 2,
            // has its highest contributing channel sample at
            // k_top = (m - phase - parity) / 2: -1 for phase 1's odd parity,
            // else 0. Its window ends at channel index left + k_top.
            let top = left + 1 - phase * parity;
            self.offs0.clear();
            self.offs0.extend(top - t0.len()..top);
            self.offs1.clear();
            self.offs1.extend(top - t1.len()..top);
            self.isa
                .synth_cols(lo_ext, hi_ext, &self.offs0, &self.offs1, t0, t1, run);
        }
        // Even-parity outputs sit at m = phase (mod 2), odd-parity ones at
        // the other slot of each output pair.
        for ((pair, &e), &o) in out.chunks_exact_mut(2).zip(&*even_run).zip(&*odd_run) {
            pair[phase] = e;
            pair[1 - phase] = o;
        }
    }

    // Note on summation order: the *row* path differs from the scalar kernel
    // (4-lane partials vs a single running sum), which is why row results are
    // compared against scalar with a small tolerance. The *column* path below
    // replicates the row path's own order per column, so its output is
    // bit-identical to staging this kernel's rows through transposes (the
    // `fallback_*_cols` functions, its test oracle) — not merely close to it.
    fn analyze_cols(
        &mut self,
        taps: &BankTaps,
        phase: Phase,
        img: &Image,
        lo: &mut Image,
        hi: &mut Image,
        cs: &mut ColScratch,
        _s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        let (w, h) = img.dims();
        if w == 0 || h == 0 || !h.is_multiple_of(2) {
            return Err(DtcwtError::BadDimensions {
                width: w,
                height: h,
                reason: "column analysis requires even non-zero height",
            });
        }
        self.analysis_taps(&taps.h0, &taps.h1);
        lane_analyze_cols(
            self.isa,
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
        _s1: &mut Scratch1d,
    ) -> Result<(), DtcwtError> {
        if lo.is_empty() || lo.dims() != hi.dims() {
            return Err(DtcwtError::BadDimensions {
                width: hi.width(),
                height: hi.height(),
                reason: "column synthesis channels must be non-empty and equal-sized",
            });
        }
        self.synthesis_taps(&taps.g0, &taps.g1);
        lane_synthesize_cols(
            self.isa,
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
        self.isa.fuse_strip(a, b, y0, y1, op, fs, out_re, out_im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::test_paths;
    use crate::vector::F32x4;
    use wavefuse_dtcwt::dwt1d::{analyze, synthesize, BankTaps, Phase};
    use wavefuse_dtcwt::{Dtcwt, FilterBank, Image, ScalarKernel};

    /// Manual-intrinsics per-output dot: [`F32x4`] multiply-accumulate, then the
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

    /// Auto-vectorization per-output dot: plain `[f32; 4]` accumulators the compiler
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

    /// The per-output row passes: each output is its own short dot, over
    /// the kernel's own tap caches. With [`simd_dot`] it mirrors the paper's
    /// intrinsics build, with [`unrolled_dot`] its auto-vectorized build;
    /// both are bit-exact oracles of the lane-parallel
    /// `analyze_row`/`synthesize_row`.
    struct PerOutput {
        k: SimdKernel,
        name: &'static str,
        dot: Dot,
        dot2: Dot2,
    }

    /// A per-output dot over one window, and its shared-window pair.
    type Dot = fn(&[f32], &[f32]) -> f32;
    type Dot2 = fn(&[f32], &[f32], &[f32]) -> (f32, f32);

    impl PerOutput {
        fn simd() -> Self {
            PerOutput {
                k: SimdKernel::new(),
                name: "simd_dot",
                dot: simd_dot,
                dot2: simd_dot2,
            }
        }

        fn unrolled() -> Self {
            PerOutput {
                k: SimdKernel::new(),
                name: "unrolled_dot",
                dot: unrolled_dot,
                dot2: unrolled_dot2,
            }
        }
    }

    impl FilterKernel for PerOutput {
        fn name(&self) -> &'static str {
            self.name
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
            let (k, dot, dot2) = (&mut self.k, self.dot, self.dot2);
            k.analysis_taps(h0, h1);
            let (l0, l1) = (h0.len(), h1.len());
            for j in 0..lo.len() {
                let center = left + 2 * j + phase;
                if l0 == l1 && k.rev0.len() == k.rev1.len() {
                    (lo[j], hi[j]) = dot2(&ext[center + 1 - l0..], &k.rev0, &k.rev1);
                } else {
                    lo[j] = dot(&ext[center + 1 - l0..], &k.rev0);
                    hi[j] = dot(&ext[center + 1 - l1..], &k.rev1);
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
            let (k, dot) = (&mut self.k, self.dot);
            k.synthesis_taps(g0, g1);
            for (m, o) in out.iter_mut().enumerate() {
                let mp = m as isize - phase as isize;
                let parity = (mp & 1) as usize;
                let (t0, t1) = if parity == 0 {
                    (&k.g0_even, &k.g1_even)
                } else {
                    (&k.g0_odd, &k.g1_odd)
                };
                let k_top = (mp - parity as isize) / 2;
                let start0 = (left as isize + k_top + 1 - t0.len() as isize) as usize;
                let start1 = (left as isize + k_top + 1 - t1.len() as isize) as usize;
                *o = dot(&lo_ext[start0..], t0) + dot(&hi_ext[start1..], t1);
            }
        }
    }

    /// The ten banks of the workspace's column-pass identity suite.
    fn sweep_banks() -> Vec<FilterBank> {
        vec![
            FilterBank::haar().unwrap(),
            FilterBank::daubechies(2).unwrap(),
            FilterBank::daubechies(3).unwrap(),
            FilterBank::daubechies(4).unwrap(),
            FilterBank::legall_5_3().unwrap(),
            FilterBank::cdf_9_7().unwrap(),
            FilterBank::near_sym_a().unwrap(),
            FilterBank::near_sym_b().unwrap(),
            FilterBank::qshift_b().unwrap(),
            FilterBank::qshift_b().unwrap().time_reverse(),
        ]
    }

    /// Bit pattern with every NaN mapped to one canonical NaN: the lane
    /// loops may commute `fadd` operands, which moves only NaN payloads.
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    fn assert_rows_match(got: &[f32], want: &[f32], finite: bool, what: &str) {
        if finite {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "{what}");
        } else {
            assert_eq!(canonical_bits(got), canonical_bits(want), "{what}");
        }
    }

    /// A kernel on the given lane path.
    fn kernel_on(isa: Isa) -> SimdKernel {
        SimdKernel {
            isa,
            ..SimdKernel::new()
        }
    }

    /// Sweeps the lane-parallel rows against both per-output dots on every
    /// lane path: every sweep bank, output widths 1..=80, both phases,
    /// analysis and synthesis, on a finite row and on the same row seeded
    /// with NaN and ±inf at both ends and in the middle. One kernel per
    /// path and one oracle of each dot serve the whole sweep, so tap caches
    /// and row scratch are reused across banks and widths.
    #[test]
    fn lane_rows_match_the_per_output_dots_bit_for_bit() {
        for isa in test_paths() {
            lane_rows_match_the_per_output_dots_on(isa);
        }
    }

    fn lane_rows_match_the_per_output_dots_on(isa: Isa) {
        let mut lanes = kernel_on(isa);
        let mut oracles = [PerOutput::simd(), PerOutput::unrolled()];
        for bank in sweep_banks() {
            let taps = BankTaps::new(&bank);
            for width in 1..=80 {
                let finite = signal(2 * width);
                let mut poisoned = finite.clone();
                poisoned[0] = f32::NAN;
                poisoned[width] = f32::INFINITY;
                poisoned[2 * width - 1] = f32::NEG_INFINITY;
                for (x, is_finite) in [(finite, true), (poisoned, false)] {
                    for phase in [Phase::A, Phase::B] {
                        let (lo, hi) = analyze(&mut lanes, &taps, &x, phase).unwrap();
                        let (c_lo, c_hi) = x.split_at(width);
                        let out = synthesize(&mut lanes, &taps, c_lo, c_hi, phase).unwrap();
                        for oracle in &mut oracles {
                            let what = format!(
                                "{} ({}) vs {} {} width {width} {phase:?} finite={is_finite}",
                                lanes.name(),
                                isa.name(),
                                oracle.name(),
                                bank.name()
                            );
                            let (lo_o, hi_o) = analyze(oracle, &taps, &x, phase).unwrap();
                            assert_rows_match(&lo, &lo_o, is_finite, &format!("lo {what}"));
                            assert_rows_match(&hi, &hi_o, is_finite, &format!("hi {what}"));
                            let out_o = synthesize(oracle, &taps, c_lo, c_hi, phase).unwrap();
                            assert_rows_match(&out, &out_o, is_finite, &format!("syn {what}"));
                        }
                    }
                }
            }
        }
    }

    /// Output widths that hit every lane step and tail: each of 1..=80,
    /// and the 16-lane step alone (88 = 5 x 16 + 8, 160, 320).
    fn sweep_widths() -> impl Iterator<Item = usize> {
        (1..=80).chain([88, 160, 320])
    }

    /// A finite plane, and the same plane with NaN, ±inf, ±0 and positive
    /// and negative subnormals scattered over lane blocks and tails.
    fn sweep_planes(w: usize, h: usize, seed: usize) -> [Image; 2] {
        let finite = Image::from_fn(w, h, |x, y| {
            ((x * 7 + y * 13 + seed) as f32 * 0.37).sin() * 3.0 - 0.5
        });
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e-40,
            -f32::MIN_POSITIVE / 8.0,
        ];
        let mut poisoned = finite.clone();
        for y in 0..h {
            for x in 0..w {
                if (x * 5 + y * 3 + seed).is_multiple_of(11) {
                    poisoned.set(x, y, specials[(x + 2 * y + seed) % specials.len()]);
                }
            }
        }
        [finite, poisoned]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The portable and detected lane paths are two compilations of one
    /// body, so they must agree on every output bit for row and column
    /// analysis and synthesis and strip fusion, over every sweep bank, both
    /// phases, the sweep widths and finite and non-finite planes. The one
    /// freedom is a transform output's NaN payload: each compilation may
    /// commute an `fadd`'s operands, and x86 returns the first operand's
    /// NaN, so where an input NaN meets an `inf - inf` NaN the sign bit may
    /// differ. Every other bit — ±inf, ±0, subnormals — must match.
    #[test]
    fn lane_paths_agree_bit_for_bit() {
        let paths = test_paths();
        let mut kernels: Vec<SimdKernel> = paths.iter().map(|&isa| kernel_on(isa)).collect();
        let (mut cs, mut s1) = (ColScratch::new(), Scratch1d::new());
        let rows_h = 6; // plane height: even, and short enough to wrap every bank
        for bank in sweep_banks() {
            let taps = BankTaps::new(&bank);
            for width in sweep_widths() {
                for (plane, src) in sweep_planes(width, rows_h, width).iter().enumerate() {
                    for phase in [Phase::A, Phase::B] {
                        let mut outs = Vec::new();
                        for k in &mut kernels {
                            // Rows: the plane's first two rows as one row
                            // of 2 * width samples.
                            let row = &src.as_slice()[..2 * width];
                            let (lo, hi) = analyze(k, &taps, row, phase).unwrap();
                            let syn =
                                synthesize(k, &taps, &row[..width], &row[width..], phase).unwrap();
                            let (mut clo, mut chi) = (Image::zeros(0, 0), Image::zeros(0, 0));
                            k.analyze_cols(&taps, phase, src, &mut clo, &mut chi, &mut cs, &mut s1)
                                .unwrap();
                            let mut csyn = Image::zeros(0, 0);
                            k.synthesize_cols(
                                &taps, phase, &clo, &chi, &mut csyn, &mut cs, &mut s1,
                            )
                            .unwrap();
                            outs.push([
                                lo,
                                hi,
                                syn,
                                clo.into_vec(),
                                chi.into_vec(),
                                csyn.into_vec(),
                            ]);
                        }
                        for (isa, out) in paths.iter().zip(&outs).skip(1) {
                            for (part, (got, want)) in out.iter().zip(&outs[0]).enumerate() {
                                let what = format!(
                                    "{} vs portable: {} width {width} {phase:?} plane {plane} \
                                     output {part} (row lo/hi/syn, col lo/hi/syn)",
                                    isa.name(),
                                    bank.name()
                                );
                                assert_rows_match(got, want, plane == 0, &what);
                            }
                        }
                    }
                }
            }
        }
        let ops = [
            FuseOp::MaxMagnitude,
            FuseOp::Weighted { alpha: 0.3 },
            FuseOp::WindowEnergy { radius: 1 },
            FuseOp::WindowEnergy { radius: 3 },
            FuseOp::ActivityGuided {
                radius: 2,
                match_threshold: 0.75,
            },
        ];
        let mut fs = FuseScratch::new();
        for width in sweep_widths() {
            let h = 5;
            let [ar, ar_bad] = sweep_planes(width, h, 1);
            let [ai, ai_bad] = sweep_planes(width, h, 2);
            let [br, br_bad] = sweep_planes(width, h, 3);
            let [bi, bi_bad] = sweep_planes(width, h, 4);
            let finite = (
                ComplexImage::new(ar, ai).unwrap(),
                ComplexImage::new(br, bi).unwrap(),
            );
            let poisoned = (
                ComplexImage::new(ar_bad, ai_bad).unwrap(),
                ComplexImage::new(br_bad, bi_bad).unwrap(),
            );
            for (plane, (a, b)) in [finite, poisoned].iter().enumerate() {
                for op in ops {
                    let mut outs = Vec::new();
                    for k in &mut kernels {
                        let (mut re, mut im) = (Image::zeros(0, 0), Image::zeros(0, 0));
                        k.fuse_strip(a, b, 1, h, op, &mut fs, &mut re, &mut im)
                            .unwrap();
                        outs.push((bits(re.as_slice()), bits(im.as_slice())));
                    }
                    for (isa, out) in paths.iter().zip(&outs).skip(1) {
                        let what = format!("{op:?} width {width} plane {plane}");
                        assert_eq!(out.0, outs[0].0, "{} re {what}", isa.name());
                        assert_eq!(out.1, outs[0].1, "{} im {what}", isa.name());
                    }
                }
            }
        }
    }

    /// The column passes and strip fusion reshape their outputs without
    /// zero-filling, so a reused output must come out bit-identical to a
    /// fresh one: NaN-filled buffers at the same geometry and a larger one.
    #[test]
    fn outputs_overwrite_stale_buffers() {
        let taps = BankTaps::new(&FilterBank::near_sym_b().unwrap());
        let (mut cs, mut s1) = (ColScratch::new(), Scratch1d::new());
        let mut k = SimdKernel::new();
        let src = &sweep_planes(37, 10, 0)[0];
        let stale = |w: usize, h: usize| Image::filled(w, h, f32::NAN);
        let (mut lo, mut hi) = (Image::zeros(0, 0), Image::zeros(0, 0));
        k.analyze_cols(&taps, Phase::A, src, &mut lo, &mut hi, &mut cs, &mut s1)
            .unwrap();
        let mut out = Image::zeros(0, 0);
        k.synthesize_cols(&taps, Phase::B, &lo, &hi, &mut out, &mut cs, &mut s1)
            .unwrap();
        let a = ComplexImage::new(lo.clone(), hi.clone()).unwrap();
        let b = ComplexImage::new(hi.clone(), lo.clone()).unwrap();
        let op = FuseOp::WindowEnergy { radius: 1 };
        let (mut re, mut im) = (Image::zeros(0, 0), Image::zeros(0, 0));
        k.fuse_strip(&a, &b, 0, 5, op, &mut FuseScratch::new(), &mut re, &mut im)
            .unwrap();
        for (w, h) in [(37, 5), (40, 12)] {
            let (mut slo, mut shi) = (stale(w, h), stale(w, h));
            k.analyze_cols(&taps, Phase::A, src, &mut slo, &mut shi, &mut cs, &mut s1)
                .unwrap();
            assert_eq!(
                bits(slo.as_slice()),
                bits(lo.as_slice()),
                "analysis lo over {w}x{h}"
            );
            assert_eq!(
                bits(shi.as_slice()),
                bits(hi.as_slice()),
                "analysis hi over {w}x{h}"
            );
            let mut sout = stale(w, h);
            k.synthesize_cols(&taps, Phase::B, &lo, &hi, &mut sout, &mut cs, &mut s1)
                .unwrap();
            assert_eq!(
                bits(sout.as_slice()),
                bits(out.as_slice()),
                "synthesis over {w}x{h}"
            );
            let (mut sre, mut sim) = (stale(w, h), stale(w, h));
            k.fuse_strip(
                &a,
                &b,
                0,
                5,
                op,
                &mut FuseScratch::new(),
                &mut sre,
                &mut sim,
            )
            .unwrap();
            assert_eq!(
                bits(sre.as_slice()),
                bits(re.as_slice()),
                "fusion re over {w}x{h}"
            );
            assert_eq!(
                bits(sim.as_slice()),
                bits(im.as_slice()),
                "fusion im over {w}x{h}"
            );
        }
    }

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
                    let (lo_s, hi_s) = analyze(&mut sc, &taps, &x, phase).unwrap();
                    let (lo_v, hi_v) = analyze(&mut si, &taps, &x, phase).unwrap();
                    let what = format!("{} n={n} {phase:?}", bank.name());
                    assert_close(&lo_s, &lo_v, 1e-4, &format!("simd lo {what}"));
                    assert_close(&hi_s, &hi_v, 1e-4, &format!("simd hi {what}"));
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
                let what = format!("{} {phase:?}", bank.name());
                assert_close(&ref_out, &simd_out, 1e-4, &format!("simd {what}"));
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
    }

    #[test]
    fn cached_taps_survive_alternating_filter_banks() {
        // One long-lived kernel instance cycling through every bank twice
        // (the worker-pool usage pattern) must match fresh per-bank kernels.
        let x = signal(40);
        let mut si = SimdKernel::new();
        for round in 0..2 {
            for bank in banks() {
                let taps = BankTaps::new(&bank);
                for phase in [Phase::A, Phase::B] {
                    let mut sc = ScalarKernel::new();
                    let (lo, hi) = analyze(&mut sc, &taps, &x, phase).unwrap();
                    let ref_out = synthesize(&mut sc, &taps, &lo, &hi, phase).unwrap();
                    let what = format!("{} {phase:?} round {round}", bank.name());
                    let (lo_v, hi_v) = analyze(&mut si, &taps, &x, phase).unwrap();
                    assert_close(&lo, &lo_v, 1e-4, &format!("simd lo {what}"));
                    assert_close(&hi, &hi_v, 1e-4, &format!("simd hi {what}"));
                    let out_v = synthesize(&mut si, &taps, &lo, &hi, phase).unwrap();
                    assert_close(&ref_out, &out_v, 1e-4, &format!("simd syn {what}"));
                }
            }
        }
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
