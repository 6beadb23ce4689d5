//! Strip-level coefficient-fusion primitives.
//!
//! The fusion phase combines two pyramids' oriented complex subbands pixel
//! by pixel. This module defines the **numerical contract** for that phase:
//! [`fuse_strip_scalar`] fuses one horizontal row strip `[y0, y1)` of a
//! subband pair, and every other implementation — the SIMD kernels in
//! `wavefuse-simd`, the dispatcher's full-height fusion pass in
//! `wavefuse-core` — must reproduce it bit for bit.
//!
//! # Fold-order contract
//!
//! The windowed rules ([`FuseOp::WindowEnergy`], [`FuseOp::ActivityGuided`])
//! use **separable** clamped window sums, O(r) per pixel instead of the
//! naive O((2r+1)²):
//!
//! 1. per source row, the raw energy `E[x] = re[x]*re[x] + im[x]*im[x]`
//!    (for the cross map, `a.re*b.re + a.im*b.im`);
//! 2. a horizontal pass `H[x] = Σ_{dx=-r..=r} E[clamp(x+dx)]`, folded in
//!    **ascending `dx` order starting from the first window element**
//!    (no zero seed);
//! 3. a vertical pass per output pixel `Σ_{dy=-r..=r} H[x, clamp(y+dy)]`,
//!    folded in **ascending `dy` order starting from the first window row**.
//!
//! Each output pixel's vertical fold touches only horizontal sums of source
//! rows in `[clamp(y0-r), clamp(y1-1+r)]`, and the horizontal sums depend
//! only on their own source row — so a strip decomposition of the rows
//! `[0, h)` produces exactly the same bits as one full-height pass, for any
//! strip boundaries. A vectorized implementation keeps the identity by
//! evaluating the same per-lane expression trees in the same fold order
//! (lane `x` of an 8-wide block computes exactly the scalar expression for
//! column `x`); the strict choose rules (`MaxMagnitude`, the window-energy
//! select) copy one source's bits verbatim, so their lane selects are exact
//! by construction.
//!
//! `MaxMagnitude` compares **squared** magnitudes (`re² + im²`), which
//! selects the same coefficient as comparing `hypot` magnitudes but skips
//! the two square roots per pixel.

use crate::error::DtcwtError;
use crate::image::{ComplexImage, Image};

/// A plain-data fusion operator, mirror of `wavefuse-core`'s `FusionRule`
/// without the crate dependency (dtcwt must not depend on core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FuseOp {
    /// Keep the coefficient of larger (squared) magnitude.
    MaxMagnitude,
    /// Choose by clamped `(2r+1)²` local energy, computed separably.
    WindowEnergy {
        /// Window radius in coefficients (1 → 3×3).
        radius: usize,
    },
    /// Fixed blend `alpha * A + (1 - alpha) * B`.
    Weighted {
        /// Weight of the first input, in `[0, 1]`.
        alpha: f32,
    },
    /// Burt–Kolczynski salience/match rule: select where the sources
    /// disagree, salience-weighted blend where they agree.
    ActivityGuided {
        /// Window radius for salience and match (1 → 3×3).
        radius: usize,
        /// Match measure below which pure selection is used, in `[0, 1]`.
        match_threshold: f32,
    },
}

/// Reusable intermediates for the windowed rules. The images hold the
/// horizontal window sums for the clamped source-row span of one strip and
/// retain capacity across frames, so steady-state fusion performs no heap
/// allocation. One instance per worker scratch / per engine.
#[derive(Debug, Clone, Default)]
pub struct FuseScratch {
    /// Horizontal window-energy sums of `a`, `w × span` for the strip's
    /// clamped source-row span.
    pub ha: Image,
    /// Horizontal window-energy sums of `b`.
    pub hb: Image,
    /// Horizontal window sums of the cross term (ActivityGuided only).
    pub hx: Image,
    /// Raw per-row energy staging, length `w`.
    pub erow: Vec<f32>,
}

impl FuseScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> Self {
        FuseScratch::default()
    }
}

/// Validates a strip request against a subband pair, returning `(w, h)`.
///
/// # Errors
///
/// Returns [`DtcwtError::MalformedPyramid`] if the subband shapes differ or
/// the strip rows fall outside the subband.
pub fn check_strip(
    a: &ComplexImage,
    b: &ComplexImage,
    y0: usize,
    y1: usize,
) -> Result<(usize, usize), DtcwtError> {
    if a.dims() != b.dims() {
        return Err(DtcwtError::MalformedPyramid(format!(
            "fusion subband shapes differ: {:?} vs {:?}",
            a.dims(),
            b.dims()
        )));
    }
    let (w, h) = a.dims();
    if y0 >= y1 || y1 > h {
        return Err(DtcwtError::MalformedPyramid(format!(
            "fusion strip rows {y0}..{y1} out of range for height {h}"
        )));
    }
    Ok((w, h))
}

/// Fuses rows `[y0, y1)` of one subband pair into `out_re`/`out_im`
/// (reshaped to `w × (y1 - y0)`; output row `t` is source row `y0 + t`).
///
/// This is the scalar reference implementation of the fold-order contract
/// (see the module docs); [`crate::kernel::FilterKernel::fuse_strip`]
/// defaults to it.
///
/// # Errors
///
/// Returns [`DtcwtError::MalformedPyramid`] if the subband shapes differ or
/// the strip rows fall outside the subband.
#[allow(clippy::too_many_arguments)]
pub fn fuse_strip_scalar(
    a: &ComplexImage,
    b: &ComplexImage,
    y0: usize,
    y1: usize,
    op: FuseOp,
    fs: &mut FuseScratch,
    out_re: &mut Image,
    out_im: &mut Image,
) -> Result<(), DtcwtError> {
    let (w, h) = check_strip(a, b, y0, y1)?;
    out_re.reshape(w, y1 - y0);
    out_im.reshape(w, y1 - y0);
    match op {
        FuseOp::MaxMagnitude => {
            for y in y0..y1 {
                let (ar, ai) = (a.re.row(y), a.im.row(y));
                let (br, bi) = (b.re.row(y), b.im.row(y));
                let ore = out_re.row_mut(y - y0);
                let oim = out_im.row_mut(y - y0);
                for x in 0..w {
                    let ma = ar[x] * ar[x] + ai[x] * ai[x];
                    let mb = br[x] * br[x] + bi[x] * bi[x];
                    let pick_a = ma >= mb;
                    ore[x] = if pick_a { ar[x] } else { br[x] };
                    oim[x] = if pick_a { ai[x] } else { bi[x] };
                }
            }
        }
        FuseOp::Weighted { alpha } => {
            let beta = 1.0 - alpha;
            for y in y0..y1 {
                let (ar, ai) = (a.re.row(y), a.im.row(y));
                let (br, bi) = (b.re.row(y), b.im.row(y));
                let ore = out_re.row_mut(y - y0);
                let oim = out_im.row_mut(y - y0);
                for x in 0..w {
                    ore[x] = alpha * ar[x] + beta * br[x];
                    oim[x] = alpha * ai[x] + beta * bi[x];
                }
            }
        }
        FuseOp::WindowEnergy { radius } => {
            let (lo, _hi) = strip_source_span(y0, y1, h, radius);
            horizontal_energy(a, y0, y1, h, radius, &mut fs.erow, &mut fs.ha);
            horizontal_energy(b, y0, y1, h, radius, &mut fs.erow, &mut fs.hb);
            let r = radius as isize;
            for y in y0..y1 {
                let (ar, ai) = (a.re.row(y), a.im.row(y));
                let (br, bi) = (b.re.row(y), b.im.row(y));
                let ore = out_re.row_mut(y - y0);
                let oim = out_im.row_mut(y - y0);
                for x in 0..w {
                    let (ea, eb) = vertical_sum2(&fs.ha, &fs.hb, x, y, h, r, lo);
                    let pick_a = ea >= eb;
                    ore[x] = if pick_a { ar[x] } else { br[x] };
                    oim[x] = if pick_a { ai[x] } else { bi[x] };
                }
            }
        }
        FuseOp::ActivityGuided {
            radius,
            match_threshold,
        } => {
            let (lo, _hi) = strip_source_span(y0, y1, h, radius);
            horizontal_energy(a, y0, y1, h, radius, &mut fs.erow, &mut fs.ha);
            horizontal_energy(b, y0, y1, h, radius, &mut fs.erow, &mut fs.hb);
            horizontal_cross(a, b, y0, y1, h, radius, &mut fs.erow, &mut fs.hx);
            let r = radius as isize;
            for y in y0..y1 {
                let (ar, ai) = (a.re.row(y), a.im.row(y));
                let (br, bi) = (b.re.row(y), b.im.row(y));
                let ore = out_re.row_mut(y - y0);
                let oim = out_im.row_mut(y - y0);
                for x in 0..w {
                    let (ea, eb) = vertical_sum2(&fs.ha, &fs.hb, x, y, h, r, lo);
                    let cross = vertical_sum(&fs.hx, x, y, h, r, lo);
                    let (w_a, w_b) = activity_weights(ea, eb, cross, match_threshold);
                    ore[x] = w_a * ar[x] + w_b * br[x];
                    oim[x] = w_a * ai[x] + w_b * bi[x];
                }
            }
        }
    }
    Ok(())
}

/// The clamped source-row span `[lo, hi)` a strip's windowed rules read.
pub fn strip_source_span(y0: usize, y1: usize, h: usize, radius: usize) -> (usize, usize) {
    (y0.saturating_sub(radius), (y1 + radius).min(h))
}

/// Burt–Kolczynski salience/match weights for one coefficient — the exact
/// scalar expression tree every implementation evaluates.
#[inline]
pub fn activity_weights(ea: f32, eb: f32, cross: f32, match_threshold: f32) -> (f32, f32) {
    let denom = ea + eb;
    // Match measure in [-1, 1]; 1 = locally identical.
    let m = if denom > 1e-20 {
        2.0 * cross / denom
    } else {
        1.0
    };
    let a_stronger = ea >= eb;
    if m < match_threshold {
        // Sources disagree: pure selection of the stronger.
        if a_stronger {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    } else {
        // Sources agree: salience-weighted blend.
        let w_max = 0.5 + 0.5 * (1.0 - m) / (1.0 - match_threshold).max(1e-6);
        let w_min = 1.0 - w_max;
        if a_stronger {
            (w_max, w_min)
        } else {
            (w_min, w_max)
        }
    }
}

/// Vertical clamped window fold over one horizontal-sum map (ascending
/// `dy`, seeded with the first window row). `lo` is the map's first source
/// row, from [`strip_source_span`].
#[inline]
pub fn vertical_sum(hmap: &Image, x: usize, y: usize, h: usize, r: isize, lo: usize) -> f32 {
    let yy = |dy: isize| ((y as isize + dy).clamp(0, h as isize - 1) as usize) - lo;
    let mut acc = hmap.row(yy(-r))[x];
    let mut dy = -r + 1;
    while dy <= r {
        acc += hmap.row(yy(dy))[x];
        dy += 1;
    }
    acc
}

/// [`vertical_sum`] over two maps at once (the common A/B pair).
#[inline]
fn vertical_sum2(
    ha: &Image,
    hb: &Image,
    x: usize,
    y: usize,
    h: usize,
    r: isize,
    lo: usize,
) -> (f32, f32) {
    (
        vertical_sum(ha, x, y, h, r, lo),
        vertical_sum(hb, x, y, h, r, lo),
    )
}

/// Fills `hmap` (reshaped to `w × span`) with the horizontal clamped
/// window sums of `c`'s per-pixel energy over the strip's source span.
pub fn horizontal_energy(
    c: &ComplexImage,
    y0: usize,
    y1: usize,
    h: usize,
    radius: usize,
    erow: &mut Vec<f32>,
    hmap: &mut Image,
) {
    let (w, _) = c.dims();
    let (lo, hi) = strip_source_span(y0, y1, h, radius);
    hmap.reshape(w, hi - lo);
    if erow.len() != w {
        erow.resize(w, 0.0);
    }
    for yy in lo..hi {
        let (re, im) = (c.re.row(yy), c.im.row(yy));
        for x in 0..w {
            erow[x] = re[x] * re[x] + im[x] * im[x];
        }
        horizontal_window(erow, radius, hmap.row_mut(yy - lo));
    }
}

/// As [`horizontal_energy`] for the cross term `a.re*b.re + a.im*b.im`.
#[allow(clippy::too_many_arguments)]
pub fn horizontal_cross(
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
    let (lo, hi) = strip_source_span(y0, y1, h, radius);
    hmap.reshape(w, hi - lo);
    if erow.len() != w {
        erow.resize(w, 0.0);
    }
    for yy in lo..hi {
        let (ar, ai) = (a.re.row(yy), a.im.row(yy));
        let (br, bi) = (b.re.row(yy), b.im.row(yy));
        for x in 0..w {
            erow[x] = ar[x] * br[x] + ai[x] * bi[x];
        }
        horizontal_window(erow, radius, hmap.row_mut(yy - lo));
    }
}

/// Horizontal clamped window fold of one staged energy row (ascending
/// `dx`, seeded with the first window element).
pub fn horizontal_window(erow: &[f32], radius: usize, out: &mut [f32]) {
    let w = erow.len();
    let r = radius as isize;
    let idx = |x: usize, dx: isize| (x as isize + dx).clamp(0, w as isize - 1) as usize;
    for (x, o) in out.iter_mut().enumerate() {
        let mut acc = erow[idx(x, -r)];
        let mut dx = -r + 1;
        while dx <= r {
            acc += erow[idx(x, dx)];
            dx += 1;
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(w: usize, h: usize) -> (ComplexImage, ComplexImage) {
        let mut a = ComplexImage::zeros(w, h);
        let mut b = ComplexImage::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                a.re.set(x, y, ((x * 3 + y * 7) % 13) as f32 - 6.0);
                a.im.set(x, y, ((x + y * 5) % 11) as f32 - 5.0);
                b.re.set(x, y, ((x * 5 + y) % 17) as f32 - 8.0);
                b.im.set(x, y, ((x * 2 + y * 3) % 7) as f32 - 3.0);
            }
        }
        (a, b)
    }

    /// Naive O((2r+1)²) clamped window-energy sum, the pre-separable oracle.
    fn naive_energy(c: &ComplexImage, x: usize, y: usize, r: isize) -> f32 {
        let (w, h) = c.dims();
        let mut acc = 0.0f64;
        for dy in -r..=r {
            for dx in -r..=r {
                let sx = (x as isize + dx).clamp(0, w as isize - 1) as usize;
                let sy = (y as isize + dy).clamp(0, h as isize - 1) as usize;
                let (re, im) = (c.re.get(sx, sy), c.im.get(sx, sy));
                acc += (re * re + im * im) as f64;
            }
        }
        acc as f32
    }

    #[test]
    fn separable_window_matches_naive_window_numerically() {
        let (a, _) = pair(13, 9);
        let (w, h) = a.dims();
        for radius in [1usize, 2, 3] {
            let mut fs = FuseScratch::new();
            let mut erow = Vec::new();
            let mut hmap = Image::zeros(0, 0);
            horizontal_energy(&a, 0, h, h, radius, &mut erow, &mut hmap);
            fs.ha = hmap;
            let r = radius as isize;
            for y in 0..h {
                for x in 0..w {
                    let sep = vertical_sum(&fs.ha, x, y, h, r, 0);
                    let naive = naive_energy(&a, x, y, r);
                    assert!(
                        (sep - naive).abs() <= 1e-3 * naive.abs().max(1.0),
                        "r={radius} ({x},{y}): {sep} vs {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn strips_reproduce_full_height_bit_for_bit() {
        let (a, b) = pair(17, 14);
        let h = a.dims().1;
        let ops = [
            FuseOp::MaxMagnitude,
            FuseOp::WindowEnergy { radius: 1 },
            FuseOp::WindowEnergy { radius: 3 },
            FuseOp::Weighted { alpha: 0.3 },
            FuseOp::ActivityGuided {
                radius: 2,
                match_threshold: 0.75,
            },
        ];
        for op in ops {
            let mut fs = FuseScratch::new();
            let (mut want_re, mut want_im) = (Image::zeros(0, 0), Image::zeros(0, 0));
            fuse_strip_scalar(&a, &b, 0, h, op, &mut fs, &mut want_re, &mut want_im).unwrap();
            for rows in [1usize, 3, 5, h] {
                let (mut sre, mut sim) = (Image::zeros(0, 0), Image::zeros(0, 0));
                let mut y0 = 0;
                while y0 < h {
                    let y1 = (y0 + rows).min(h);
                    fuse_strip_scalar(&a, &b, y0, y1, op, &mut fs, &mut sre, &mut sim).unwrap();
                    for y in y0..y1 {
                        assert_eq!(sre.row(y - y0), want_re.row(y), "{op:?} rows={rows} y={y}");
                        assert_eq!(sim.row(y - y0), want_im.row(y), "{op:?} rows={rows} y={y}");
                    }
                    y0 = y1;
                }
            }
        }
    }

    #[test]
    fn max_magnitude_copies_source_bits() {
        let (a, b) = pair(9, 6);
        let mut fs = FuseScratch::new();
        let (mut fre, mut fim) = (Image::zeros(0, 0), Image::zeros(0, 0));
        fuse_strip_scalar(
            &a,
            &b,
            0,
            6,
            FuseOp::MaxMagnitude,
            &mut fs,
            &mut fre,
            &mut fim,
        )
        .unwrap();
        for y in 0..6 {
            for x in 0..9 {
                let from_a = fre.get(x, y) == a.re.get(x, y) && fim.get(x, y) == a.im.get(x, y);
                let from_b = fre.get(x, y) == b.re.get(x, y) && fim.get(x, y) == b.im.get(x, y);
                assert!(from_a || from_b, "({x},{y}) not copied verbatim");
            }
        }
    }

    #[test]
    fn bad_strips_are_rejected() {
        let (a, b) = pair(8, 8);
        let mut fs = FuseScratch::new();
        let (mut re, mut im) = (Image::zeros(0, 0), Image::zeros(0, 0));
        for (y0, y1) in [(3, 3), (5, 4), (0, 9)] {
            assert!(matches!(
                fuse_strip_scalar(
                    &a,
                    &b,
                    y0,
                    y1,
                    FuseOp::MaxMagnitude,
                    &mut fs,
                    &mut re,
                    &mut im
                ),
                Err(DtcwtError::MalformedPyramid(_))
            ));
        }
        let c = ComplexImage::zeros(4, 8);
        assert!(matches!(
            fuse_strip_scalar(
                &a,
                &c,
                0,
                8,
                FuseOp::MaxMagnitude,
                &mut fs,
                &mut re,
                &mut im
            ),
            Err(DtcwtError::MalformedPyramid(_))
        ));
    }
}
