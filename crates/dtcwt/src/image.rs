//! Row-major single-channel image buffers.
//!
//! [`Image`] is the plain `f32` raster all transforms operate on;
//! [`ComplexImage`] holds one oriented DT-CWT subband as separate real and
//! imaginary planes (structure-of-arrays, which the SIMD kernels prefer).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::DtcwtError;

/// Process-wide count of bytes moved by [`Image::transpose_into`]. The
/// columnar kernel path exists precisely to keep this flat in the steady
/// state; the telemetry layer exports deltas as `wavefuse_transpose_bytes`
/// and the allocation tests pin it to zero for the SIMD backends.
static TRANSPOSE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Cumulative bytes copied by transpose operations since process start.
///
/// Monotonic; callers interested in a window (one frame, one bench rep)
/// should subtract two snapshots.
pub fn transpose_bytes_total() -> u64 {
    TRANSPOSE_BYTES.load(Ordering::Relaxed)
}

/// A row-major single-channel `f32` image.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::Image;
///
/// let mut img = Image::zeros(4, 3); // width 4, height 3
/// img.set(1, 2, 0.5);
/// assert_eq!(img.get(1, 2), 0.5);
/// assert_eq!(img.row(2)[1], 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a zero-filled image. Width and height may be zero (an empty
    /// image), which is occasionally useful as a placeholder.
    pub fn zeros(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image filled with a constant value.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        Image {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from existing row-major pixel data.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadDimensions`] if `data.len() != width * height`
    /// or the product overflows `usize`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self, DtcwtError> {
        if width.checked_mul(height) != Some(data.len()) {
            return Err(DtcwtError::BadDimensions {
                width,
                height,
                reason: "pixel buffer length does not match width * height",
            });
        }
        Ok(Image {
            width,
            height,
            data,
        })
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut img = Image::zeros(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image holds no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Borrows row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        assert!(y < self.height, "row out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Borrows row `y` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        assert!(y < self.height, "row out of bounds");
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Borrows the whole pixel buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrows the whole pixel buffer mutably (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the image, returning the pixel buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Re-dimensions the image in place to `width` x `height`, zero-filling
    /// all pixels. Never shrinks the underlying allocation, so reshaping to
    /// a size seen before performs no heap allocation.
    pub fn reshape(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, 0.0);
    }

    /// Makes `self` a pixel-exact copy of `src`, reusing the existing
    /// allocation when it is large enough.
    pub fn copy_from(&mut self, src: &Image) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Returns the transposed image (width and height swapped).
    pub fn transpose(&self) -> Image {
        let mut out = Image::zeros(self.height, self.width);
        self.transpose_into(&mut out);
        out
    }

    /// Cache-blocked tile edge: 32x32 `f32` tiles are 4 KiB per side, so a
    /// source tile and a destination tile fit in L1 together.
    const TRANSPOSE_TILE: usize = 32;

    /// Writes the transposed image into `out` (reshaped to `height` x
    /// `width`), walking 32x32 tiles so both the row-major reads and the
    /// column-major writes stay cache-resident.
    pub fn transpose_into(&self, out: &mut Image) {
        out.reshape(self.height, self.width);
        let (w, h) = (self.width, self.height);
        TRANSPOSE_BYTES.fetch_add(
            (w * h * std::mem::size_of::<f32>()) as u64,
            Ordering::Relaxed,
        );
        const T: usize = Image::TRANSPOSE_TILE;
        for y0 in (0..h).step_by(T) {
            let y1 = (y0 + T).min(h);
            for x0 in (0..w).step_by(T) {
                let x1 = (x0 + T).min(w);
                for y in y0..y1 {
                    for x in x0..x1 {
                        out.data[x * h + y] = self.data[y * w + x];
                    }
                }
            }
        }
    }

    /// Extracts the sub-image with top-left corner `(x0, y0)` and the given
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the image bounds.
    pub fn crop(&self, x0: usize, y0: usize, width: usize, height: usize) -> Image {
        assert!(
            x0 + width <= self.width && y0 + height <= self.height,
            "crop window out of bounds"
        );
        let mut out = Image::zeros(width, height);
        self.crop_into(x0, y0, width, height, &mut out);
        out
    }

    /// Writes the sub-image with top-left corner `(x0, y0)` and the given
    /// size into `out` (reshaped to `width` x `height`).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the image bounds.
    pub fn crop_into(&self, x0: usize, y0: usize, width: usize, height: usize, out: &mut Image) {
        assert!(
            x0 + width <= self.width && y0 + height <= self.height,
            "crop window out of bounds"
        );
        out.reshape(width, height);
        for y in 0..height {
            let src = &self.data[(y0 + y) * self.width + x0..][..width];
            out.row_mut(y).copy_from_slice(src);
        }
    }

    /// Pads the image on the right/bottom by edge replication so both
    /// dimensions become even. Returns `self` unchanged if already even.
    pub fn pad_to_even(&self) -> Image {
        let w = self.width + self.width % 2;
        let h = self.height + self.height % 2;
        if (w, h) == (self.width, self.height) {
            return self.clone();
        }
        Image::from_fn(w, h, |x, y| {
            self.get(x.min(self.width - 1), y.min(self.height - 1))
        })
    }

    /// Edge-replicating pad to even dimensions, written into `out`. Unlike
    /// [`Image::pad_to_even`] this also runs for already-even inputs (as a
    /// plain copy), so callers can use `out` unconditionally.
    pub fn pad_to_even_into(&self, out: &mut Image) {
        let w = self.width + self.width % 2;
        let h = self.height + self.height % 2;
        if (w, h) == (self.width, self.height) {
            out.copy_from(self);
            return;
        }
        out.reshape(w, h);
        for y in 0..h {
            let sy = y.min(self.height - 1);
            let src = &self.data[sy * self.width..(sy + 1) * self.width];
            let dst = &mut out.data[y * w..(y + 1) * w];
            dst[..self.width].copy_from_slice(src);
            for v in &mut dst[self.width..] {
                *v = src[self.width - 1];
            }
        }
    }

    /// Sum of squared pixel values.
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Largest absolute pixel difference against another image of identical
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.dims(), other.dims(), "image dimensions differ");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Elementwise in-place addition of another image scaled by `k`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_scaled(&mut self, other: &Image, k: f32) {
        assert_eq!(self.dims(), other.dims(), "image dimensions differ");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Multiplies every pixel by `k` in place.
    pub fn scale_in_place(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }
}

impl Default for Image {
    /// An empty 0x0 image; useful as a no-allocation placeholder for
    /// buffers that are reshaped on first use.
    fn default() -> Self {
        Image::zeros(0, 0)
    }
}

/// One oriented complex subband stored as separate real/imaginary planes.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexImage {
    /// Real plane.
    pub re: Image,
    /// Imaginary plane.
    pub im: Image,
}

impl ComplexImage {
    /// Creates a zero-filled complex image.
    pub fn zeros(width: usize, height: usize) -> Self {
        ComplexImage {
            re: Image::zeros(width, height),
            im: Image::zeros(width, height),
        }
    }

    /// Creates a complex image from real and imaginary planes.
    ///
    /// # Errors
    ///
    /// Returns [`DtcwtError::BadDimensions`] if the planes disagree in size.
    pub fn new(re: Image, im: Image) -> Result<Self, DtcwtError> {
        if re.dims() != im.dims() {
            return Err(DtcwtError::BadDimensions {
                width: im.width(),
                height: im.height(),
                reason: "real and imaginary planes have different dimensions",
            });
        }
        Ok(ComplexImage { re, im })
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        self.re.dims()
    }

    /// Re-dimensions both planes in place, zero-filled, reusing their
    /// allocations (see [`Image::reshape`]).
    pub fn reshape(&mut self, width: usize, height: usize) {
        self.re.reshape(width, height);
        self.im.reshape(width, height);
    }

    /// Magnitude `sqrt(re^2 + im^2)` at pixel `(x, y)`.
    #[inline]
    pub fn magnitude_at(&self, x: usize, y: usize) -> f32 {
        self.re.get(x, y).hypot(self.im.get(x, y))
    }

    /// Returns the magnitude plane as a real image.
    pub fn magnitude(&self) -> Image {
        let (w, h) = self.dims();
        Image::from_fn(w, h, |x, y| self.magnitude_at(x, y))
    }

    /// Sum of `re^2 + im^2` over the subband.
    pub fn energy(&self) -> f64 {
        self.re.energy() + self.im.energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Image::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Image::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_dimensions_whose_product_overflows() {
        // The product wraps to 0, the length of the empty buffer.
        let half = 1usize << (usize::BITS / 2);
        assert!(Image::from_vec(half, half, vec![]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = Image::zeros(3, 2);
        img.set(2, 1, 7.0);
        assert_eq!(img.get(2, 1), 7.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn get_out_of_bounds_panics() {
        Image::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn transpose_round_trip() {
        let img = Image::from_fn(5, 3, |x, y| (x * 10 + y) as f32);
        let t = img.transpose();
        assert_eq!(t.dims(), (3, 5));
        assert_eq!(t.get(1, 4), img.get(4, 1));
        assert_eq!(t.transpose(), img);
    }

    #[test]
    fn transpose_into_matches_naive_on_awkward_sizes() {
        // Exercise tile-boundary cases around the 32-pixel block edge plus
        // degenerate shapes; the blocked transpose must equal the naive one.
        for (w, h) in [
            (1, 1),
            (3, 2),
            (31, 33),
            (32, 32),
            (33, 31),
            (35, 35),
            (88, 72),
            (64, 1),
            (1, 64),
        ] {
            let img = Image::from_fn(w, h, |x, y| (x * 131 + y * 17) as f32 * 0.25 - 3.0);
            let mut naive = Image::zeros(h, w);
            for y in 0..h {
                for x in 0..w {
                    naive.set(y, x, img.get(x, y));
                }
            }
            let mut blocked = Image::zeros(0, 0);
            img.transpose_into(&mut blocked);
            assert_eq!(blocked, naive, "{w}x{h}");
        }
    }

    #[test]
    fn reshape_and_copy_from_reuse_capacity() {
        let mut img = Image::zeros(8, 8);
        img.set(3, 3, 1.0);
        img.reshape(4, 4);
        assert_eq!(img.dims(), (4, 4));
        assert_eq!(img.get(3, 3), 0.0); // zeroed, not stale
        let src = Image::from_fn(2, 3, |x, y| (x + 10 * y) as f32);
        img.copy_from(&src);
        assert_eq!(img, src);
    }

    #[test]
    fn pad_to_even_into_matches_allocating_path() {
        for (w, h) in [(3, 3), (4, 3), (3, 4), (4, 4), (1, 1), (35, 35)] {
            let img = Image::from_fn(w, h, |x, y| (y * w + x) as f32);
            let mut out = Image::zeros(0, 0);
            img.pad_to_even_into(&mut out);
            assert_eq!(out, img.pad_to_even(), "{w}x{h}");
        }
    }

    #[test]
    fn crop_into_matches_crop() {
        let img = Image::from_fn(6, 5, |x, y| (y * 6 + x) as f32);
        let mut out = Image::zeros(9, 9);
        img.crop_into(1, 2, 3, 2, &mut out);
        assert_eq!(out, img.crop(1, 2, 3, 2));
    }

    #[test]
    fn crop_extracts_window() {
        let img = Image::from_fn(4, 4, |x, y| (y * 4 + x) as f32);
        let c = img.crop(1, 2, 2, 2);
        assert_eq!(c.as_slice(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn pad_to_even_replicates_edges() {
        let img = Image::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        let p = img.pad_to_even();
        assert_eq!(p.dims(), (4, 4));
        assert_eq!(p.get(3, 0), img.get(2, 0));
        assert_eq!(p.get(0, 3), img.get(0, 2));
        assert_eq!(p.get(3, 3), img.get(2, 2));
        // Already-even images come back unchanged.
        let even = Image::zeros(4, 2);
        assert_eq!(even.pad_to_even(), even);
    }

    #[test]
    fn energy_and_diff() {
        let a = Image::filled(2, 2, 2.0);
        let b = Image::filled(2, 2, 1.5);
        assert_eq!(a.energy(), 16.0);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Image::filled(2, 1, 1.0);
        let b = Image::filled(2, 1, 2.0);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 2.0]);
        a.scale_in_place(0.25);
        assert_eq!(a.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn complex_image_magnitude() {
        let mut c = ComplexImage::zeros(2, 2);
        c.re.set(0, 0, 3.0);
        c.im.set(0, 0, 4.0);
        assert_eq!(c.magnitude_at(0, 0), 5.0);
        assert_eq!(c.magnitude().get(0, 0), 5.0);
        assert_eq!(c.energy(), 25.0);
    }

    #[test]
    fn complex_image_plane_mismatch_rejected() {
        assert!(ComplexImage::new(Image::zeros(2, 2), Image::zeros(3, 2)).is_err());
    }
}
