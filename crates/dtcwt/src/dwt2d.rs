//! Separable two-dimensional decimated wavelet transform.
//!
//! One level of the 2-D transform filters rows then columns, producing the
//! four subbands of the paper's Fig. 1 (`LL`, `LH`, `HL`, `HH`, named
//! horizontal frequency first); the multi-level [`Dwt2d`] recursively
//! decomposes the `LL` band. Odd-sized inputs are edge-padded to even per
//! level and cropped on reconstruction, so any frame size — including the
//! paper's 35x35 extraction — round-trips exactly.

use crate::dwt1d::{analyze, analyze_into, synthesize, synthesize_into, BankTaps, Phase};
use crate::filters::FilterBank;
use crate::image::Image;
use crate::kernel::{FilterKernel, ScalarKernel};
use crate::scratch::{ColScratch, Scratch1d, Scratch2d};
use crate::DtcwtError;

/// The three detail subbands of one decomposition level.
///
/// Names give the *horizontal* frequency first, as in the paper's Fig. 1:
/// `lh` is low-horizontal/high-vertical, `hl` is high-horizontal/low-vertical.
#[derive(Debug, Clone, PartialEq)]
pub struct Subbands {
    /// Low horizontal, high vertical frequency.
    pub lh: Image,
    /// High horizontal, low vertical frequency.
    pub hl: Image,
    /// High horizontal, high vertical frequency.
    pub hh: Image,
}

impl Subbands {
    /// Creates zero-pixel placeholder subbands without allocating; the
    /// `*_into` transforms reshape them on first use.
    pub fn empty() -> Self {
        Subbands {
            lh: Image::zeros(0, 0),
            hl: Image::zeros(0, 0),
            hh: Image::zeros(0, 0),
        }
    }
}

/// All four bands of a single 2-D analysis step.
#[derive(Debug, Clone, PartialEq)]
pub struct OneLevel {
    /// Low-low (approximation) band.
    pub ll: Image,
    /// Detail bands.
    pub detail: Subbands,
}

/// Per-axis configuration of a single 2-D analysis step: the bank taps and
/// decimation phase used along that axis. The DT-CWT's four tree
/// combinations are built from these.
#[derive(Debug, Clone)]
pub struct AxisSpec<'a> {
    /// Filter taps along this axis.
    pub taps: &'a BankTaps,
    /// Decimation phase along this axis.
    pub phase: Phase,
}

/// One level of separable 2-D analysis with independent row/column specs.
///
/// The input must have even dimensions (callers pad first).
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] for empty or odd-sized inputs.
pub fn analyze_level(
    kernel: &mut dyn FilterKernel,
    rows: &AxisSpec<'_>,
    cols: &AxisSpec<'_>,
    img: &Image,
) -> Result<OneLevel, DtcwtError> {
    let (w, h) = img.dims();
    if w == 0 || h == 0 || w % 2 != 0 || h % 2 != 0 {
        return Err(DtcwtError::BadDimensions {
            width: w,
            height: h,
            reason: "2-d analysis requires even non-zero dimensions",
        });
    }
    // Row pass: filter along x.
    let mut low = Image::zeros(w / 2, h);
    let mut high = Image::zeros(w / 2, h);
    for y in 0..h {
        let (lo, hi) = analyze(kernel, rows.taps, img.row(y), rows.phase)?;
        low.row_mut(y).copy_from_slice(&lo);
        high.row_mut(y).copy_from_slice(&hi);
    }
    // Column pass: routed through the kernel (columnar or transpose-based).
    let (ll, lh) = analyze_columns(kernel, cols, &low)?;
    let (hl, hh) = analyze_columns(kernel, cols, &high)?;
    Ok(OneLevel {
        ll,
        detail: Subbands { lh, hl, hh },
    })
}

fn analyze_columns(
    kernel: &mut dyn FilterKernel,
    spec: &AxisSpec<'_>,
    img: &Image,
) -> Result<(Image, Image), DtcwtError> {
    let mut low = Image::zeros(0, 0);
    let mut high = Image::zeros(0, 0);
    let mut cs = ColScratch::new();
    let mut s1 = Scratch1d::new();
    kernel.analyze_cols(
        spec.taps, spec.phase, img, &mut low, &mut high, &mut cs, &mut s1,
    )?;
    Ok((low, high))
}

/// Allocation-free variant of [`analyze_level`]: writes the approximation
/// band into `ll` and the detail bands into `detail`, staging intermediates
/// in the scratch arenas. Produces bit-identical results to the allocating
/// path (the cache-blocked transposes are pure copies).
///
/// This is [`analyze_rows_into`] into the scratch halves followed by
/// [`analyze_cols_into`].
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] for empty or odd-sized inputs.
#[allow(clippy::too_many_arguments)]
pub fn analyze_level_into(
    kernel: &mut dyn FilterKernel,
    rows: &AxisSpec<'_>,
    cols: &AxisSpec<'_>,
    img: &Image,
    ll: &mut Image,
    detail: &mut Subbands,
    s2: &mut Scratch2d,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    let Scratch2d { low, high, col } = s2;
    analyze_rows_into(kernel, rows, img, low, high, s1)?;
    analyze_cols_into(kernel, cols, low, high, ll, detail, col, s1)
}

/// The row half of [`analyze_level_into`]: filters every row of `img`
/// along x, straight into the half-width images `low` and `high`
/// (reshaped to `width / 2` x `height`).
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] for empty or odd-sized inputs.
pub fn analyze_rows_into(
    kernel: &mut dyn FilterKernel,
    rows: &AxisSpec<'_>,
    img: &Image,
    low: &mut Image,
    high: &mut Image,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    let (w, h) = img.dims();
    if w == 0 || h == 0 || w % 2 != 0 || h % 2 != 0 {
        return Err(DtcwtError::BadDimensions {
            width: w,
            height: h,
            reason: "2-d analysis requires even non-zero dimensions",
        });
    }
    low.reshape(w / 2, h);
    high.reshape(w / 2, h);
    for y in 0..h {
        analyze_into(
            kernel,
            rows.taps,
            img.row(y),
            rows.phase,
            low.row_mut(y),
            high.row_mut(y),
            s1,
        )?;
    }
    Ok(())
}

/// The column half of [`analyze_level_into`]: filters the row-pass halves
/// `low` and `high` along y, routed through the kernel (columnar or
/// transpose-based), into `ll` and the three detail bands.
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] for empty halves or odd heights.
#[allow(clippy::too_many_arguments)]
pub fn analyze_cols_into(
    kernel: &mut dyn FilterKernel,
    cols: &AxisSpec<'_>,
    low: &Image,
    high: &Image,
    ll: &mut Image,
    detail: &mut Subbands,
    col: &mut ColScratch,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    kernel.analyze_cols(cols.taps, cols.phase, low, ll, &mut detail.lh, col, s1)?;
    kernel.analyze_cols(
        cols.taps,
        cols.phase,
        high,
        &mut detail.hl,
        &mut detail.hh,
        col,
        s1,
    )
}

/// One level of separable 2-D synthesis; exact inverse of [`analyze_level`].
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] if the four bands do not all share
/// the same dimensions.
pub fn synthesize_level(
    kernel: &mut dyn FilterKernel,
    rows: &AxisSpec<'_>,
    cols: &AxisSpec<'_>,
    level: &OneLevel,
) -> Result<Image, DtcwtError> {
    let (bw, bh) = level.ll.dims();
    for band in [&level.detail.lh, &level.detail.hl, &level.detail.hh] {
        if band.dims() != (bw, bh) {
            return Err(DtcwtError::BadDimensions {
                width: band.width(),
                height: band.height(),
                reason: "subband dimensions disagree with LL band",
            });
        }
    }
    if bw == 0 || bh == 0 {
        return Err(DtcwtError::BadDimensions {
            width: bw,
            height: bh,
            reason: "empty subbands",
        });
    }
    // Invert the column pass.
    let low = synthesize_columns(kernel, cols, &level.ll, &level.detail.lh)?;
    let high = synthesize_columns(kernel, cols, &level.detail.hl, &level.detail.hh)?;
    // Invert the row pass.
    let (hw, h) = (bw, bh * 2);
    let mut out = Image::zeros(hw * 2, h);
    for y in 0..h {
        let row = synthesize(kernel, rows.taps, low.row(y), high.row(y), rows.phase)?;
        out.row_mut(y).copy_from_slice(&row);
    }
    Ok(out)
}

fn synthesize_columns(
    kernel: &mut dyn FilterKernel,
    spec: &AxisSpec<'_>,
    lo: &Image,
    hi: &Image,
) -> Result<Image, DtcwtError> {
    let mut out = Image::zeros(0, 0);
    let mut cs = ColScratch::new();
    let mut s1 = Scratch1d::new();
    kernel.synthesize_cols(spec.taps, spec.phase, lo, hi, &mut out, &mut cs, &mut s1)?;
    Ok(out)
}

/// Allocation-free variant of [`synthesize_level`]: reconstructs from the
/// four bands into `out`, staging intermediates in the scratch arenas.
/// Bit-identical to the allocating path.
///
/// # Errors
///
/// Returns [`DtcwtError::BadDimensions`] if the four bands do not all share
/// the same non-empty dimensions.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_level_into(
    kernel: &mut dyn FilterKernel,
    rows: &AxisSpec<'_>,
    cols: &AxisSpec<'_>,
    ll: &Image,
    lh: &Image,
    hl: &Image,
    hh: &Image,
    out: &mut Image,
    s2: &mut Scratch2d,
    s1: &mut Scratch1d,
) -> Result<(), DtcwtError> {
    let (bw, bh) = ll.dims();
    for band in [lh, hl, hh] {
        if band.dims() != (bw, bh) {
            return Err(DtcwtError::BadDimensions {
                width: band.width(),
                height: band.height(),
                reason: "subband dimensions disagree with LL band",
            });
        }
    }
    if bw == 0 || bh == 0 {
        return Err(DtcwtError::BadDimensions {
            width: bw,
            height: bh,
            reason: "empty subbands",
        });
    }
    let Scratch2d { low, high, col } = s2;
    // Invert the column pass.
    kernel.synthesize_cols(cols.taps, cols.phase, ll, lh, low, col, s1)?;
    kernel.synthesize_cols(cols.taps, cols.phase, hl, hh, high, col, s1)?;
    // Invert the row pass.
    let h = bh * 2;
    out.reshape(bw * 2, h);
    for y in 0..h {
        synthesize_into(
            kernel,
            rows.taps,
            low.row(y),
            high.row(y),
            rows.phase,
            out.row_mut(y),
            s1,
        )?;
    }
    Ok(())
}

/// A multi-level real DWT pyramid.
///
/// Level 0 is the finest scale. `pre_pad_dims[l]` records the image size
/// that entered level `l` *before* even-padding, so the inverse can crop
/// back exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DwtPyramid {
    detail: Vec<Subbands>,
    ll: Image,
    pre_pad_dims: Vec<(usize, usize)>,
}

impl DwtPyramid {
    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.detail.len()
    }

    /// Detail subbands of `level` (0 = finest).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn detail(&self, level: usize) -> &Subbands {
        &self.detail[level]
    }

    /// Mutable detail subbands of `level` (for fusion rules).
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn detail_mut(&mut self, level: usize) -> &mut Subbands {
        &mut self.detail[level]
    }

    /// Final approximation (LL) band.
    pub fn ll(&self) -> &Image {
        &self.ll
    }

    /// Mutable final approximation band.
    pub fn ll_mut(&mut self) -> &mut Image {
        &mut self.ll
    }

    /// The original image dimensions this pyramid decomposes.
    pub fn input_dims(&self) -> (usize, usize) {
        self.pre_pad_dims[0]
    }
}

/// A multi-level separable 2-D DWT with a fixed bank and depth.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::{Dwt2d, FilterBank, Image};
///
/// let img = Image::from_fn(40, 40, |x, y| (x as f32 - y as f32).sin());
/// let dwt = Dwt2d::new(FilterBank::cdf_9_7()?, 3)?;
/// let pyr = dwt.forward(&img)?;
/// let back = dwt.inverse(&pyr)?;
/// assert!(back.max_abs_diff(&img) < 1e-4);
/// # Ok::<(), wavefuse_dtcwt::DtcwtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dwt2d {
    bank: FilterBank,
    taps: BankTaps,
    levels: usize,
}

impl Dwt2d {
    /// Creates a transform with the given bank and number of levels.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadLevels`] if `levels == 0`.
    pub fn new(bank: FilterBank, levels: usize) -> Result<Self, DtcwtError> {
        if levels == 0 {
            return Err(DtcwtError::BadLevels {
                requested: 0,
                max_supported: usize::MAX,
            });
        }
        let taps = BankTaps::new(&bank);
        Ok(Dwt2d { bank, taps, levels })
    }

    /// The filter bank in use.
    pub fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Maximum usable decomposition depth for a `w`-by-`h` image (each level
    /// pads to even and halves; decomposition stops before a dimension would
    /// fall below 2).
    pub fn max_levels(w: usize, h: usize) -> usize {
        let (mut w, mut h) = (w, h);
        let mut n = 0;
        while w >= 2 && h >= 2 {
            w = (w + w % 2) / 2;
            h = (h + h % 2) / 2;
            n += 1;
        }
        n
    }

    /// Forward transform with the default scalar kernel.
    ///
    /// # Errors
    ///
    /// See [`Dwt2d::forward_with`].
    pub fn forward(&self, img: &Image) -> Result<DwtPyramid, DtcwtError> {
        self.forward_with(&mut ScalarKernel::new(), img)
    }

    /// Forward transform through a caller-supplied kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadLevels`] if the image cannot support the
    /// configured depth, and [`DtcwtError::BadDimensions`] for empty images.
    pub fn forward_with(
        &self,
        kernel: &mut dyn FilterKernel,
        img: &Image,
    ) -> Result<DwtPyramid, DtcwtError> {
        let (w, h) = img.dims();
        let max = Self::max_levels(w, h);
        if self.levels > max {
            return Err(DtcwtError::BadLevels {
                requested: self.levels,
                max_supported: max,
            });
        }
        let spec = AxisSpec {
            taps: &self.taps,
            phase: Phase::A,
        };
        let mut detail = Vec::with_capacity(self.levels);
        let mut pre_pad_dims = Vec::with_capacity(self.levels);
        let mut cur = img.clone();
        for _ in 0..self.levels {
            pre_pad_dims.push(cur.dims());
            let padded = cur.pad_to_even();
            let level = analyze_level(kernel, &spec, &spec, &padded)?;
            detail.push(level.detail);
            cur = level.ll;
        }
        Ok(DwtPyramid {
            detail,
            ll: cur,
            pre_pad_dims,
        })
    }

    /// Inverse transform with the default scalar kernel.
    ///
    /// # Errors
    ///
    /// See [`Dwt2d::inverse_with`].
    pub fn inverse(&self, pyr: &DwtPyramid) -> Result<Image, DtcwtError> {
        self.inverse_with(&mut ScalarKernel::new(), pyr)
    }

    /// Inverse transform through a caller-supplied kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::MalformedPyramid`] if the pyramid's level count
    /// does not match this transform, and [`DtcwtError::BadDimensions`] if
    /// subband shapes are inconsistent.
    pub fn inverse_with(
        &self,
        kernel: &mut dyn FilterKernel,
        pyr: &DwtPyramid,
    ) -> Result<Image, DtcwtError> {
        if pyr.levels() != self.levels {
            return Err(DtcwtError::MalformedPyramid(format!(
                "pyramid has {} levels, transform expects {}",
                pyr.levels(),
                self.levels
            )));
        }
        let spec = AxisSpec {
            taps: &self.taps,
            phase: Phase::A,
        };
        let mut cur = pyr.ll.clone();
        for l in (0..self.levels).rev() {
            let level = OneLevel {
                ll: cur,
                detail: pyr.detail[l].clone(),
            };
            let padded = synthesize_level(kernel, &spec, &spec, &level)?;
            let (ow, oh) = pyr.pre_pad_dims[l];
            cur = if padded.dims() == (ow, oh) {
                padded
            } else {
                padded.crop(0, 0, ow, oh)
            };
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(w: usize, h: usize) -> Image {
        Image::from_fn(w, h, |x, y| {
            ((x as f32 * 0.7).sin() + (y as f32 * 0.4).cos()) * 10.0 + ((x * y) % 13) as f32 * 0.3
        })
    }

    #[test]
    fn single_level_round_trip() {
        let bank = FilterBank::near_sym_b().unwrap();
        let taps = BankTaps::new(&bank);
        let spec = AxisSpec {
            taps: &taps,
            phase: Phase::A,
        };
        let img = test_image(16, 12);
        let mut k = ScalarKernel::new();
        let level = analyze_level(&mut k, &spec, &spec, &img).unwrap();
        assert_eq!(level.ll.dims(), (8, 6));
        let back = synthesize_level(&mut k, &spec, &spec, &level).unwrap();
        assert!(back.max_abs_diff(&img) < 1e-4);
    }

    #[test]
    fn mixed_phase_round_trip() {
        // Row phase B, column phase A (a DT-CWT tree combination).
        let bank = FilterBank::near_sym_b().unwrap();
        let taps = BankTaps::new(&bank);
        let rows = AxisSpec {
            taps: &taps,
            phase: Phase::B,
        };
        let cols = AxisSpec {
            taps: &taps,
            phase: Phase::A,
        };
        let img = test_image(24, 16);
        let mut k = ScalarKernel::new();
        let level = analyze_level(&mut k, &rows, &cols, &img).unwrap();
        let back = synthesize_level(&mut k, &rows, &cols, &level).unwrap();
        assert!(back.max_abs_diff(&img) < 1e-4);
    }

    #[test]
    fn pooled_level_matches_allocating_level_exactly() {
        // The pooled path must be bit-identical: transposes are pure copies
        // and the row arithmetic is shared, so exact equality is required.
        let bank = FilterBank::near_sym_b().unwrap();
        let taps = BankTaps::new(&bank);
        let rows = AxisSpec {
            taps: &taps,
            phase: Phase::B,
        };
        let cols = AxisSpec {
            taps: &taps,
            phase: Phase::A,
        };
        let mut s1 = Scratch1d::new();
        let mut s2 = Scratch2d::new();
        let mut ll = Image::zeros(0, 0);
        let mut detail = Subbands {
            lh: Image::zeros(0, 0),
            hl: Image::zeros(0, 0),
            hh: Image::zeros(0, 0),
        };
        let mut back = Image::zeros(0, 0);
        // Reuse one scratch across sizes to prove stale state cannot leak.
        for (w, h) in [(2, 2), (16, 12), (36, 36), (88, 72), (4, 30)] {
            let img = test_image(w, h);
            let mut k = ScalarKernel::new();
            let level = analyze_level(&mut k, &rows, &cols, &img).unwrap();
            analyze_level_into(
                &mut k,
                &rows,
                &cols,
                &img,
                &mut ll,
                &mut detail,
                &mut s2,
                &mut s1,
            )
            .unwrap();
            assert_eq!(ll, level.ll, "{w}x{h} ll");
            assert_eq!(detail, level.detail, "{w}x{h} detail");

            let alloc_back = synthesize_level(&mut k, &rows, &cols, &level).unwrap();
            synthesize_level_into(
                &mut k, &rows, &cols, &ll, &detail.lh, &detail.hl, &detail.hh, &mut back, &mut s2,
                &mut s1,
            )
            .unwrap();
            assert_eq!(back, alloc_back, "{w}x{h} synthesis");
        }
    }

    #[test]
    fn pooled_level_rejects_bad_inputs_like_allocating() {
        let bank = FilterBank::haar().unwrap();
        let taps = BankTaps::new(&bank);
        let spec = AxisSpec {
            taps: &taps,
            phase: Phase::A,
        };
        let mut s1 = Scratch1d::new();
        let mut s2 = Scratch2d::new();
        let mut ll = Image::zeros(0, 0);
        let mut detail = Subbands {
            lh: Image::zeros(0, 0),
            hl: Image::zeros(0, 0),
            hh: Image::zeros(0, 0),
        };
        let odd = test_image(5, 4);
        assert!(analyze_level_into(
            &mut ScalarKernel::new(),
            &spec,
            &spec,
            &odd,
            &mut ll,
            &mut detail,
            &mut s2,
            &mut s1,
        )
        .is_err());
        let mut out = Image::zeros(0, 0);
        let ll_band = Image::zeros(4, 4);
        let bad = Image::zeros(2, 4);
        assert!(synthesize_level_into(
            &mut ScalarKernel::new(),
            &spec,
            &spec,
            &ll_band,
            &bad,
            &ll_band,
            &ll_band,
            &mut out,
            &mut s2,
            &mut s1,
        )
        .is_err());
    }

    #[test]
    fn multi_level_round_trip_paper_sizes() {
        // The paper's five evaluation frame sizes, including odd 35x35.
        for (w, h) in [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)] {
            let img = test_image(w, h);
            let levels = 3.min(Dwt2d::max_levels(w, h));
            let dwt = Dwt2d::new(FilterBank::legall_5_3().unwrap(), levels).unwrap();
            let pyr = dwt.forward(&img).unwrap();
            assert_eq!(pyr.levels(), levels);
            assert_eq!(pyr.input_dims(), (w, h));
            let back = dwt.inverse(&pyr).unwrap();
            let err = back.max_abs_diff(&img);
            assert!(err < 1e-3, "{w}x{h}: err {err}");
        }
    }

    #[test]
    fn subband_shapes_halve_per_level() {
        let dwt = Dwt2d::new(FilterBank::haar().unwrap(), 3).unwrap();
        let pyr = dwt.forward(&test_image(88, 72)).unwrap();
        assert_eq!(pyr.detail(0).lh.dims(), (44, 36));
        assert_eq!(pyr.detail(1).lh.dims(), (22, 18));
        assert_eq!(pyr.detail(2).lh.dims(), (11, 9));
        assert_eq!(pyr.ll().dims(), (11, 9));
    }

    #[test]
    fn too_many_levels_rejected() {
        let dwt = Dwt2d::new(FilterBank::haar().unwrap(), 8).unwrap();
        let err = dwt.forward(&test_image(16, 16)).unwrap_err();
        assert!(matches!(err, DtcwtError::BadLevels { .. }));
        assert!(Dwt2d::new(FilterBank::haar().unwrap(), 0).is_err());
    }

    #[test]
    fn level_count_mismatch_rejected() {
        let dwt2 = Dwt2d::new(FilterBank::haar().unwrap(), 2).unwrap();
        let dwt3 = Dwt2d::new(FilterBank::haar().unwrap(), 3).unwrap();
        let pyr = dwt2.forward(&test_image(32, 32)).unwrap();
        assert!(matches!(
            dwt3.inverse(&pyr),
            Err(DtcwtError::MalformedPyramid(_))
        ));
    }

    #[test]
    fn max_levels_examples() {
        assert_eq!(Dwt2d::max_levels(88, 72), 7);
        assert_eq!(Dwt2d::max_levels(2, 2), 1);
        assert_eq!(Dwt2d::max_levels(1, 100), 0);
        assert_eq!(Dwt2d::max_levels(35, 35), 6);
    }

    #[test]
    fn haar_ll_is_block_average() {
        // With Haar, LL of a 2x2 block equals 2 * mean (gain sqrt(2) per axis).
        let img = Image::from_vec(2, 2, vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let dwt = Dwt2d::new(FilterBank::haar().unwrap(), 1).unwrap();
        let pyr = dwt.forward(&img).unwrap();
        assert!((pyr.ll().get(0, 0) - 8.0).abs() < 1e-5); // (1+3+5+7)/2
    }

    #[test]
    fn constant_image_has_zero_detail() {
        let img = Image::filled(16, 16, 3.0);
        let dwt = Dwt2d::new(FilterBank::cdf_9_7().unwrap(), 2).unwrap();
        let pyr = dwt.forward(&img).unwrap();
        for l in 0..2 {
            let d = pyr.detail(l);
            for band in [&d.lh, &d.hl, &d.hh] {
                for &v in band.as_slice() {
                    assert!(v.abs() < 1e-4);
                }
            }
        }
    }
}
