//! Bilinear video scaler.
//!
//! Models the paper's `Video_Scale` block, which resamples the thermal
//! decoder's 720x243 field into the webcam-matched 640x480 raster before
//! fusion. The implementation is a standard separable bilinear resampler
//! with edge clamping, usable for both the upscale in the capture path and
//! the downscale to the paper's 88x72 evaluation frames.

use crate::VideoError;
use wavefuse_dtcwt::Image;

/// Resamples `src` to `dst_w` x `dst_h` with bilinear interpolation
/// (pixel-center aligned, edges clamped).
///
/// # Errors
///
/// Returns [`VideoError::EmptyImage`] if the source or destination is
/// zero-sized.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::Image;
/// use wavefuse_video::scaler::resize_bilinear;
///
/// let src = Image::from_fn(720, 243, |x, y| (x + y) as f32);
/// let dst = resize_bilinear(&src, 640, 480)?; // the paper's scaling step
/// assert_eq!(dst.dims(), (640, 480));
/// # Ok::<(), wavefuse_video::VideoError>(())
/// ```
pub fn resize_bilinear(src: &Image, dst_w: usize, dst_h: usize) -> Result<Image, VideoError> {
    let mut out = Image::zeros(0, 0);
    resize_bilinear_into(src, dst_w, dst_h, &mut out)?;
    Ok(out)
}

/// Buffer-reusing variant of [`resize_bilinear`]: resamples into `out`
/// (reshaped, capacity reused). The identity geometry degenerates to a
/// plain copy. Identical pixels to the allocating path. Builds a one-shot
/// [`BilinearPlan`]; hold a plan directly to resample repeatedly at a
/// fixed geometry without any allocation.
///
/// # Errors
///
/// As [`resize_bilinear`].
pub fn resize_bilinear_into(
    src: &Image,
    dst_w: usize,
    dst_h: usize,
    out: &mut Image,
) -> Result<(), VideoError> {
    let (sw, sh) = src.dims();
    if sw == 0 || sh == 0 || dst_w == 0 || dst_h == 0 {
        return Err(VideoError::EmptyImage);
    }
    BilinearPlan::new(sw, sh, dst_w, dst_h)?.apply(src, out)
}

/// Source tap pair and interpolation weight for one destination row or
/// column under pixel-center mapping: dst center `(i + 0.5)` maps to
/// clamped src coordinate `i0 + w` with neighbour `i1`.
fn tap(i: usize, scale: f32, src_len: usize) -> (usize, usize, f32) {
    let f = ((i as f32 + 0.5) * scale - 0.5).clamp(0.0, (src_len - 1) as f32);
    let i0 = f.floor() as usize;
    let i1 = (i0 + 1).min(src_len - 1);
    (i0, i1, f - i0 as f32)
}

/// A prepared bilinear resample for one fixed geometry.
///
/// Precomputes the per-column and per-row source taps and weights so
/// repeated resamples (the capture path runs two per thermal frame) skip
/// the per-pixel coordinate math. [`BilinearPlan::apply`] runs the
/// horizontal pass once per referenced source row into a two-row cache
/// the plan owns, then blends each output row from the cached pair in one
/// contiguous lane loop; every output keeps the per-pixel expression
/// `top * (1 - wy) + bot * wy` with `top`/`bot` = `a * (1 - wx) + b * wx`,
/// so the pixels are bit-identical to the direct evaluation.
#[derive(Debug, Clone)]
pub struct BilinearPlan {
    src: (usize, usize),
    dst: (usize, usize),
    /// Left source column per destination column.
    x0: Vec<u32>,
    /// Right source column per destination column.
    x1: Vec<u32>,
    /// `1 - wx` per destination column.
    wl: Vec<f32>,
    /// `wx` per destination column.
    wr: Vec<f32>,
    /// `(y0, y1, wy)` per destination row.
    ymap: Vec<(usize, usize, f32)>,
    /// Horizontally resampled source rows, `dst_w` each; slot `y & 1`
    /// holds source row `y`.
    rows: [Vec<f32>; 2],
    /// Source row held by each cache slot (`usize::MAX` = none).
    held: [usize; 2],
}

impl BilinearPlan {
    /// Prepares a `src_w` x `src_h` to `dst_w` x `dst_h` resample.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::EmptyImage`] if either geometry is zero-sized.
    pub fn new(src_w: usize, src_h: usize, dst_w: usize, dst_h: usize) -> Result<Self, VideoError> {
        if src_w == 0 || src_h == 0 || dst_w == 0 || dst_h == 0 {
            return Err(VideoError::EmptyImage);
        }
        let sx = src_w as f32 / dst_w as f32;
        let sy = src_h as f32 / dst_h as f32;
        let xmap: Vec<_> = (0..dst_w).map(|x| tap(x, sx, src_w)).collect();
        let col = |i0: usize| u32::try_from(i0).expect("source width fits in u32");
        Ok(BilinearPlan {
            src: (src_w, src_h),
            dst: (dst_w, dst_h),
            x0: xmap.iter().map(|t| col(t.0)).collect(),
            x1: xmap.iter().map(|t| col(t.1)).collect(),
            wl: xmap.iter().map(|t| 1.0 - t.2).collect(),
            wr: xmap.iter().map(|t| t.2).collect(),
            ymap: (0..dst_h).map(|y| tap(y, sy, src_h)).collect(),
            rows: [vec![0.0; dst_w], vec![0.0; dst_w]],
            held: [usize::MAX; 2],
        })
    }

    /// The planned source geometry.
    pub fn src_dims(&self) -> (usize, usize) {
        self.src
    }

    /// The planned destination geometry.
    pub fn dst_dims(&self) -> (usize, usize) {
        self.dst
    }

    /// Resamples `src` into `out` (reshaped, capacity reused) using the
    /// prepared taps. The identity geometry degenerates to a plain copy.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::GeometryMismatch`] if `src` does not match the
    /// planned source geometry.
    pub fn apply(&mut self, src: &Image, out: &mut Image) -> Result<(), VideoError> {
        if src.dims() != self.src {
            return Err(VideoError::GeometryMismatch {
                expected: self.src,
                actual: src.dims(),
            });
        }
        if self.src == self.dst {
            out.copy_from(src);
            return Ok(());
        }
        let (dst_w, dst_h) = self.dst;
        out.reshape(dst_w, dst_h);
        let data = src.as_slice();
        // Cached rows belong to whatever source the last call resampled.
        self.held = [usize::MAX; 2];
        for (y, out_row) in out.as_mut_slice().chunks_exact_mut(dst_w).enumerate() {
            let (y0, y1, wy) = self.ymap[y];
            self.resample_row(data, y0);
            self.resample_row(data, y1);
            let (top, bot) = (&self.rows[y0 & 1], &self.rows[y1 & 1]);
            let wt = 1.0 - wy;
            for ((o, &t), &b) in out_row.iter_mut().zip(top).zip(bot) {
                *o = t * wt + b * wy;
            }
        }
        Ok(())
    }

    /// Makes cache slot `y & 1` hold source row `y` of `data` resampled
    /// horizontally. An output row reads source rows `y0` and `y0 + 1` (or
    /// `y0` twice at the clamped edge), which never share a slot, and `y0`
    /// never decreases, so each referenced source row is resampled once.
    fn resample_row(&mut self, data: &[f32], y: usize) {
        let slot = y & 1;
        if self.held[slot] == y {
            return;
        }
        self.held[slot] = y;
        let sw = self.src.0;
        let row = &data[y * sw..(y + 1) * sw];
        let taps = self
            .x0
            .iter()
            .zip(&self.x1)
            .zip(self.wl.iter().zip(&self.wr));
        for (h, ((&x0, &x1), (&wl, &wr))) in self.rows[slot].iter_mut().zip(taps) {
            *h = row[x0 as usize] * wl + row[x1 as usize] * wr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scale_is_clone() {
        let src = Image::from_fn(10, 8, |x, y| (x * y) as f32);
        let out = resize_bilinear(&src, 10, 8).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn empty_rejected() {
        let src = Image::zeros(0, 0);
        assert_eq!(resize_bilinear(&src, 4, 4), Err(VideoError::EmptyImage));
        let ok = Image::zeros(4, 4);
        assert_eq!(resize_bilinear(&ok, 0, 4), Err(VideoError::EmptyImage));
    }

    #[test]
    fn constant_image_stays_constant() {
        let src = Image::filled(7, 5, 3.25);
        let out = resize_bilinear(&src, 29, 17).unwrap();
        for &v in out.as_slice() {
            assert!((v - 3.25).abs() < 1e-6);
        }
    }

    #[test]
    fn upscale_by_two_interpolates_midpoints() {
        // A horizontal ramp upscaled 2x must remain a (piecewise) ramp.
        let src = Image::from_fn(4, 1, |x, _| x as f32);
        let out = resize_bilinear(&src, 8, 1).unwrap();
        // Monotone non-decreasing, endpoints clamped.
        for i in 1..8 {
            assert!(out.get(i, 0) >= out.get(i - 1, 0));
        }
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(7, 0), 3.0);
        // Interior midpoints are true averages: dst x=2 maps to src 0.75.
        assert!((out.get(2, 0) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn downscale_averages_locally() {
        // 2x2 checkerboard downscaled to 1x1 lands between the extremes.
        let src = Image::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let out = resize_bilinear(&src, 1, 1).unwrap();
        assert!((out.get(0, 0) - 0.5).abs() < 1e-6);
    }

    /// The direct per-pixel bilinear evaluation.
    fn reference(src: &Image, dw: usize, dh: usize) -> Image {
        let (sw, sh) = src.dims();
        let sx = sw as f32 / dw as f32;
        let sy = sh as f32 / dh as f32;
        Image::from_fn(dw, dh, |x, y| {
            let fy = ((y as f32 + 0.5) * sy - 0.5).clamp(0.0, (sh - 1) as f32);
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(sh - 1);
            let wy = fy - y0 as f32;
            let fx = ((x as f32 + 0.5) * sx - 0.5).clamp(0.0, (sw - 1) as f32);
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(sw - 1);
            let wx = fx - x0 as f32;
            let top = src.get(x0, y0) * (1.0 - wx) + src.get(x1, y0) * wx;
            let bot = src.get(x0, y1) * (1.0 - wx) + src.get(x1, y1) * wx;
            top * (1.0 - wy) + bot * wy
        })
    }

    fn bits(img: &Image) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn plan_matches_per_pixel_reference_exactly() {
        // The prepared-tap resample must be bit-identical to the direct
        // per-pixel bilinear evaluation: the capture path's two geometries
        // at every output size, odd widths for the lane tails, and one
        // plan applied to two sources in turn so a stale row cache shows.
        let cases = [
            ((53, 37), (88, 72)),
            ((53, 37), (17, 90)),
            ((53, 37), (120, 11)),
            ((384, 288), (720, 243)),
            ((720, 243), (32, 24)),
            ((720, 243), (88, 72)),
            ((720, 243), (320, 240)),
            ((720, 243), (640, 480)),
            ((53, 37), (1, 5)),
            ((53, 37), (7, 13)),
            ((53, 37), (9, 40)),
            ((53, 37), (15, 3)),
            ((1, 9), (7, 5)),
            ((15, 2), (9, 1)),
        ];
        for ((sw, sh), (dw, dh)) in cases {
            let mut plan = BilinearPlan::new(sw, sh, dw, dh).unwrap();
            let mut out = Image::zeros(0, 0);
            for k in 0..2 {
                let src = Image::from_fn(sw, sh, |x, y| {
                    ((x * 31 + y * 17 + k * 59) % 101) as f32 * 0.0137
                });
                let want = bits(&reference(&src, dw, dh));
                plan.apply(&src, &mut out).unwrap();
                assert_eq!(out.dims(), (dw, dh));
                assert!(bits(&out) == want, "{sw}x{sh} -> {dw}x{dh}, source {k}");
                let direct = resize_bilinear(&src, dw, dh).unwrap();
                assert_eq!(direct.dims(), (dw, dh));
                assert!(bits(&direct) == want, "{sw}x{sh} -> {dw}x{dh} one-shot");
            }
        }
    }

    #[test]
    fn plan_rejects_mismatched_source() {
        let mut plan = BilinearPlan::new(8, 6, 4, 3).unwrap();
        assert_eq!(plan.src_dims(), (8, 6));
        assert_eq!(plan.dst_dims(), (4, 3));
        let wrong = Image::zeros(9, 6);
        let mut out = Image::zeros(0, 0);
        assert_eq!(
            plan.apply(&wrong, &mut out),
            Err(VideoError::GeometryMismatch {
                expected: (8, 6),
                actual: (9, 6),
            })
        );
    }

    #[test]
    fn paper_thermal_scaling_geometry() {
        let src = Image::from_fn(720, 243, |x, y| ((x ^ y) % 97) as f32);
        let out = resize_bilinear(&src, 640, 480).unwrap();
        assert_eq!(out.dims(), (640, 480));
        // Range preserved (bilinear is a convex combination).
        let (lo, hi) = out
            .as_slice()
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        assert!(lo >= 0.0 && hi <= 96.0);
    }
}
