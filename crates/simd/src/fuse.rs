//! Vectorized strip fusion — the NEON-style implementation of the
//! [`wavefuse_dtcwt::fuse`] fold-order contract.
//!
//! Every rule has one block body, generic over the lane count: the interior
//! of each row runs it on [`Lanes<8>`] blocks (two modeled quad registers,
//! matching the columnar transform path) and the ragged tail runs the same
//! body on `Lanes<1>`. Only the clamped borders of the horizontal window
//! keep a separate scalar fold. Bit-identity with
//! [`wavefuse_dtcwt::fuse_strip_scalar`] holds by construction:
//!
//! * every vector op is a lane loop with no FMA, so lane `x` evaluates
//!   exactly the scalar expression tree for column `x`;
//! * the windowed sums fold in the same ascending order, seeded with the
//!   first window element — never a zero accumulator;
//! * the choose rules compare with [`Lanes::ge`] and copy one source's
//!   lanes verbatim with [`crate::vector::Mask::select`] (the NEON
//!   `vcgeq_f32`/`vbslq_f32` pair), so selection is exact;
//! * the Burt–Kolczynski match/blend arithmetic reuses the scalar
//!   [`fuse::activity_weights`] per lane after the vectorized window sums.

use crate::vector::Lanes;
use wavefuse_dtcwt::fuse::{self, FuseOp, FuseScratch};
use wavefuse_dtcwt::{ComplexImage, DtcwtError, Image};

const W8: usize = 8;

/// Vectorized twin of [`wavefuse_dtcwt::fuse_strip_scalar`]: fuses rows
/// `[y0, y1)` of one subband pair into `out_re`/`out_im`, bit-identical to
/// the scalar reference for every rule. A lane body: the kernel runs it
/// through its detected path (`Isa::fuse_strip`), which compiles it
/// (with every helper below) once per path.
///
/// # Errors
///
/// Returns [`DtcwtError::MalformedPyramid`] if the subband shapes differ or
/// the strip rows fall outside the subband.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fuse_strip_simd(
    a: &ComplexImage,
    b: &ComplexImage,
    y0: usize,
    y1: usize,
    op: FuseOp,
    fs: &mut FuseScratch,
    out_re: &mut Image,
    out_im: &mut Image,
) -> Result<(), DtcwtError> {
    let (w, h) = fuse::check_strip(a, b, y0, y1)?;
    out_re.reshape_for_overwrite(w, y1 - y0);
    out_im.reshape_for_overwrite(w, y1 - y0);
    let radius = match op {
        FuseOp::MaxMagnitude | FuseOp::Weighted { .. } => None,
        FuseOp::WindowEnergy { radius } | FuseOp::ActivityGuided { radius, .. } => Some(radius),
    };
    if let Some(radius) = radius {
        horizontal_products(a, a, y0, y1, h, radius, &mut fs.erow, &mut fs.ha);
        horizontal_products(b, b, y0, y1, h, radius, &mut fs.erow, &mut fs.hb);
    }
    if let FuseOp::ActivityGuided { radius, .. } = op {
        horizontal_products(a, b, y0, y1, h, radius, &mut fs.erow, &mut fs.hx);
    }
    let win = WindowSums {
        fs,
        h,
        r: radius.unwrap_or(0) as isize,
        lo: radius.map_or(0, |r| fuse::strip_source_span(y0, y1, h, r).0),
    };
    for y in y0..y1 {
        let src = Sources::rows(a, b, y);
        let (ore, oim) = (out_re.row_mut(y - y0), out_im.row_mut(y - y0));
        let mut x = 0;
        while x + W8 <= w {
            let (re, im) = fuse_block::<W8>(op, &src, &win, x, y);
            re.store(&mut ore[x..]);
            im.store(&mut oim[x..]);
            x += W8;
        }
        for x in x..w {
            let (re, im) = fuse_block::<1>(op, &src, &win, x, y);
            re.store(&mut ore[x..]);
            im.store(&mut oim[x..]);
        }
    }
    Ok(())
}

/// One source row of each subband: `a.re`, `a.im`, `b.re`, `b.im`.
struct Sources<'a>([&'a [f32]; 4]);

impl<'a> Sources<'a> {
    #[inline(always)]
    fn rows(a: &'a ComplexImage, b: &'a ComplexImage, y: usize) -> Self {
        Sources([a.re.row(y), a.im.row(y), b.re.row(y), b.im.row(y)])
    }

    /// Loads `[ar, ai, br, bi]` at columns `x..x + N`. Spelled out rather
    /// than `array::map`, which LLVM leaves as an out-of-line baseline call:
    /// inside the AVX2 copy that costs a `vzeroupper` and a round trip
    /// through memory on every block.
    #[inline(always)]
    fn load<const N: usize>(&self, x: usize) -> [Lanes<N>; 4] {
        let [ar, ai, br, bi] = self.0;
        [
            Lanes::load(&ar[x..]),
            Lanes::load(&ai[x..]),
            Lanes::load(&br[x..]),
            Lanes::load(&bi[x..]),
        ]
    }
}

/// The staged horizontal window sums of a windowed rule and the geometry
/// of their vertical fold (unused by the pointwise rules).
struct WindowSums<'a> {
    fs: &'a FuseScratch,
    h: usize,
    r: isize,
    lo: usize,
}

impl WindowSums<'_> {
    /// Vertical clamped window fold of `N` columns of `hmap` — at `N = 1`
    /// exactly [`fuse::vertical_sum`] (ascending `dy`, seeded with the first
    /// window row; no clamping needed in `x` since blocks stay in-bounds).
    #[inline(always)]
    fn vertical_sum<const N: usize>(&self, hmap: &Image, x: usize, y: usize) -> Lanes<N> {
        let yy = |dy: isize| ((y as isize + dy).clamp(0, self.h as isize - 1) as usize) - self.lo;
        let mut acc = Lanes::load(&hmap.row(yy(-self.r))[x..]);
        let mut dy = -self.r + 1;
        while dy <= self.r {
            acc += Lanes::load(&hmap.row(yy(dy))[x..]);
            dy += 1;
        }
        acc
    }
}

/// Fuses columns `x..x + N` of row `y` under `op`, returning the fused
/// `(re, im)` lanes — the one body both the 8-lane blocks and the one-lane
/// tail run.
#[inline(always)]
fn fuse_block<const N: usize>(
    op: FuseOp,
    src: &Sources,
    win: &WindowSums,
    x: usize,
    y: usize,
) -> (Lanes<N>, Lanes<N>) {
    let [ar, ai, br, bi] = src.load::<N>(x);
    match op {
        FuseOp::MaxMagnitude => {
            let pick = (ar * ar + ai * ai).ge(br * br + bi * bi);
            (pick.select(ar, br), pick.select(ai, bi))
        }
        FuseOp::Weighted { alpha } => {
            let (va, vb) = (Lanes::splat(alpha), Lanes::splat(1.0 - alpha));
            (va * ar + vb * br, va * ai + vb * bi)
        }
        FuseOp::WindowEnergy { .. } => {
            let ea = win.vertical_sum::<N>(&win.fs.ha, x, y);
            let pick = ea.ge(win.vertical_sum(&win.fs.hb, x, y));
            (pick.select(ar, br), pick.select(ai, bi))
        }
        FuseOp::ActivityGuided {
            match_threshold, ..
        } => {
            // Window sums vectorize; the branchy match/blend math runs the
            // scalar expression per lane.
            let ea = win.vertical_sum::<N>(&win.fs.ha, x, y);
            let eb = win.vertical_sum::<N>(&win.fs.hb, x, y);
            let cx = win.vertical_sum::<N>(&win.fs.hx, x, y);
            let (mut re, mut im) = ([0.0; N], [0.0; N]);
            for i in 0..N {
                let (w_a, w_b) = fuse::activity_weights(
                    ea.lanes()[i],
                    eb.lanes()[i],
                    cx.lanes()[i],
                    match_threshold,
                );
                re[i] = w_a * ar.lanes()[i] + w_b * br.lanes()[i];
                im[i] = w_a * ai.lanes()[i] + w_b * bi.lanes()[i];
            }
            (Lanes::new(re), Lanes::new(im))
        }
    }
}

/// Vectorized twin of [`fuse::horizontal_cross`], and of
/// [`fuse::horizontal_energy`] when `b` is `a` (`re * re + im * im` is the
/// same expression tree): stages each source row's `ar * br + ai * bi` in
/// 8-lane blocks and a one-lane tail, then applies the horizontal window,
/// which writes every pixel of `hmap`'s row, so `hmap` is not zeroed first.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn horizontal_products(
    a: &ComplexImage,
    b: &ComplexImage,
    y0: usize,
    y1: usize,
    h: usize,
    radius: usize,
    erow: &mut Vec<f32>,
    hmap: &mut Image,
) {
    let (w, _) = a.dims();
    let (lo, hi) = fuse::strip_source_span(y0, y1, h, radius);
    hmap.reshape_for_overwrite(w, hi - lo);
    if erow.len() != w {
        erow.resize(w, 0.0);
    }
    #[inline(always)]
    fn product<const N: usize>(src: &Sources, x: usize, erow: &mut [f32]) {
        let [ar, ai, br, bi] = src.load::<N>(x);
        (ar * br + ai * bi).store(&mut erow[x..]);
    }
    for yy in lo..hi {
        let src = Sources::rows(a, b, yy);
        let mut x = 0;
        while x + W8 <= w {
            product::<W8>(&src, x, erow);
            x += W8;
        }
        for x in x..w {
            product::<1>(&src, x, erow);
        }
        horizontal_window_simd(erow, radius, hmap.row_mut(yy - lo));
    }
}

/// Vectorized twin of [`fuse::horizontal_window`]: clamped borders run the
/// scalar fold; the interior (where the whole window is in-bounds) folds
/// shifted 8-lane loads in the same ascending `dx` order.
#[inline(always)]
fn horizontal_window_simd(erow: &[f32], radius: usize, out: &mut [f32]) {
    let w = erow.len();
    let r = radius as isize;
    let scalar_at = |x: usize| {
        let idx = |dx: isize| (x as isize + dx).clamp(0, w as isize - 1) as usize;
        let mut acc = erow[idx(-r)];
        let mut dx = -r + 1;
        while dx <= r {
            acc += erow[idx(dx)];
            dx += 1;
        }
        acc
    };
    // Left border: the window clamps at 0. The border loops iterate
    // subslices, not `take`/`skip` adapters, for the reason given at
    // `Sources::load`.
    let left_end = radius.min(w);
    for (x, o) in out[..left_end].iter_mut().enumerate() {
        *o = scalar_at(x);
    }
    // Interior: x ≥ r and x + 7 + r ≤ w − 1.
    let mut x = left_end;
    while x >= radius && x + W8 + radius <= w {
        let mut acc = Lanes::<W8>::load(&erow[x - radius..]);
        let mut dx = 1;
        while dx <= 2 * radius {
            acc += Lanes::load(&erow[x - radius + dx..]);
            dx += 1;
        }
        acc.store(&mut out[x..]);
        x += W8;
    }
    // Right border + ragged tail.
    for (i, o) in out[x..w].iter_mut().enumerate() {
        *o = scalar_at(x + i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{test_paths, Isa};
    use wavefuse_dtcwt::fuse_strip_scalar;

    fn pair(w: usize, h: usize) -> (ComplexImage, ComplexImage) {
        let mut a = ComplexImage::zeros(w, h);
        let mut b = ComplexImage::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                a.re.set(x, y, ((x * 3 + y * 7) % 13) as f32 * 0.31 - 1.9);
                a.im.set(x, y, ((x + y * 5) % 11) as f32 * 0.27 - 1.3);
                b.re.set(x, y, ((x * 5 + y) % 17) as f32 * 0.21 - 1.7);
                b.im.set(x, y, ((x * 2 + y * 3) % 7) as f32 * 0.41 - 1.2);
            }
        }
        (a, b)
    }

    /// `pair(w, h)` with NaN, ±inf and ±0.0 scattered over all four
    /// planes, landing both inside 8-lane blocks and in ragged tail columns.
    fn non_finite_pair(w: usize, h: usize) -> (ComplexImage, ComplexImage) {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let (mut a, mut b) = pair(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = specials[(x + y) % specials.len()];
                if (x + 2 * y) % 9 == 0 {
                    a.re.set(x, y, v);
                }
                if (2 * x + y) % 11 == 3 {
                    a.im.set(x, y, v);
                }
                if (x + y) % 7 == 5 {
                    b.re.set(x, y, v);
                }
                if (3 * x + y) % 13 == 1 {
                    b.im.set(x, y, v);
                }
            }
        }
        (a, b)
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn simd_strip_fusion_matches_scalar_bit_for_bit() {
        // Every lane path × rule × radius × odd/even widths (vector blocks
        // + ragged tails) × strip decompositions must reproduce the scalar
        // reference exactly, on finite inputs and on inputs carrying NaN,
        // ±inf and ±0.0 (compared as bits, so NaN and signed zeros count).
        for isa in test_paths() {
            strip_fusion_matches_scalar_on(isa);
        }
    }

    fn strip_fusion_matches_scalar_on(isa: Isa) {
        let ops = [
            FuseOp::MaxMagnitude,
            FuseOp::Weighted { alpha: 0.3 },
            FuseOp::WindowEnergy { radius: 1 },
            FuseOp::WindowEnergy { radius: 2 },
            FuseOp::WindowEnergy { radius: 4 },
            FuseOp::ActivityGuided {
                radius: 1,
                match_threshold: 0.75,
            },
            FuseOp::ActivityGuided {
                radius: 3,
                match_threshold: 0.5,
            },
        ];
        for (w, h) in [(5usize, 4usize), (8, 8), (23, 11), (32, 16), (45, 13)] {
            for (inputs, (a, b)) in [
                ("finite", pair(w, h)),
                ("non-finite", non_finite_pair(w, h)),
            ] {
                for op in ops {
                    let mut fs = FuseScratch::new();
                    let (mut want_re, mut want_im) = (Image::zeros(0, 0), Image::zeros(0, 0));
                    fuse_strip_scalar(&a, &b, 0, h, op, &mut fs, &mut want_re, &mut want_im)
                        .unwrap();
                    for rows in [1usize, 2, 5, h] {
                        let (mut sre, mut sim) = (Image::zeros(0, 0), Image::zeros(0, 0));
                        let mut y0 = 0;
                        while y0 < h {
                            let y1 = (y0 + rows).min(h);
                            isa.fuse_strip(&a, &b, y0, y1, op, &mut fs, &mut sre, &mut sim)
                                .unwrap();
                            for y in y0..y1 {
                                let what = format!(
                                    "{} {inputs} {op:?} {w}x{h} rows={rows} y={y}",
                                    isa.name()
                                );
                                assert_eq!(
                                    bits(sre.row(y - y0)),
                                    bits(want_re.row(y)),
                                    "{what} re"
                                );
                                assert_eq!(
                                    bits(sim.row(y - y0)),
                                    bits(want_im.row(y)),
                                    "{what} im"
                                );
                            }
                            y0 = y1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_strip_fusion_rejects_bad_strips() {
        let (a, b) = pair(8, 8);
        let mut fs = FuseScratch::new();
        let (mut re, mut im) = (Image::zeros(0, 0), Image::zeros(0, 0));
        assert!(fuse_strip_simd(
            &a,
            &b,
            4,
            4,
            FuseOp::MaxMagnitude,
            &mut fs,
            &mut re,
            &mut im
        )
        .is_err());
        assert!(fuse_strip_simd(
            &a,
            &b,
            0,
            9,
            FuseOp::MaxMagnitude,
            &mut fs,
            &mut re,
            &mut im
        )
        .is_err());
    }

    #[test]
    fn stale_window_maps_never_reach_the_output() {
        // The window maps are resized without zeroing: scratch holding NaN
        // from a larger earlier subband must fuse exactly like a fresh one,
        // on every lane path.
        let ops = [
            FuseOp::WindowEnergy { radius: 1 },
            FuseOp::WindowEnergy { radius: 3 },
            FuseOp::ActivityGuided {
                radius: 2,
                match_threshold: 0.75,
            },
        ];
        let (w, h) = (23, 11);
        let (a, b) = pair(w, h);
        for isa in test_paths() {
            for op in ops {
                for rows in [1usize, 4, h] {
                    let mut fresh = FuseScratch::new();
                    let mut stale = FuseScratch::new();
                    for map in [&mut stale.ha, &mut stale.hb, &mut stale.hx] {
                        *map = Image::from_fn(2 * w, 2 * h, |_, _| f32::NAN);
                    }
                    let mut y0 = 0;
                    while y0 < h {
                        let y1 = (y0 + rows).min(h);
                        let run = |fs: &mut FuseScratch| {
                            let (mut re, mut im) = (Image::zeros(0, 0), Image::zeros(0, 0));
                            isa.fuse_strip(&a, &b, y0, y1, op, fs, &mut re, &mut im)
                                .unwrap();
                            (bits(re.as_slice()), bits(im.as_slice()))
                        };
                        assert_eq!(
                            run(&mut stale),
                            run(&mut fresh),
                            "{} {op:?} rows={rows} y0={y0}",
                            isa.name()
                        );
                        y0 = y1;
                    }
                }
            }
        }
    }

    #[test]
    fn window_wider_than_the_subband_stays_exact() {
        // Radius larger than either dimension: everything clamps, borders
        // dominate, and the SIMD interior never runs — still identical.
        let (a, b) = pair(6, 3);
        let op = FuseOp::WindowEnergy { radius: 7 };
        let mut fs = FuseScratch::new();
        let (mut want_re, mut want_im) = (Image::zeros(0, 0), Image::zeros(0, 0));
        fuse_strip_scalar(&a, &b, 0, 3, op, &mut fs, &mut want_re, &mut want_im).unwrap();
        let (mut got_re, mut got_im) = (Image::zeros(0, 0), Image::zeros(0, 0));
        fuse_strip_simd(&a, &b, 0, 3, op, &mut fs, &mut got_re, &mut got_im).unwrap();
        assert_eq!(got_re, want_re);
        assert_eq!(got_im, want_im);
    }
}
