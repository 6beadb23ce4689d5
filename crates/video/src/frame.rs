//! Frame types and pixel-format conversions.

use crate::VideoError;
use wavefuse_dtcwt::Image;

/// Raw pixel formats produced by the capture front-ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PixelFormat {
    /// 8-bit grayscale, one byte per pixel.
    Gray8,
    /// Packed YUV 4:2:2 (`Cb Y0 Cr Y1`), two bytes per pixel — the thermal
    /// camera's BT.656 payload format in the paper.
    Yuv422,
    /// Packed 24-bit RGB (`R G B`), the webcam's native USB format; the
    /// paper gray-scales this stream before fusion.
    Rgb888,
}

impl PixelFormat {
    /// Bytes per pixel of the packed representation.
    pub fn bytes_per_pixel(self) -> usize {
        match self {
            PixelFormat::Gray8 => 1,
            PixelFormat::Yuv422 => 2,
            PixelFormat::Rgb888 => 3,
        }
    }
}

/// An undecoded frame straight from a capture device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    format: PixelFormat,
    width: usize,
    height: usize,
    bytes: Vec<u8>,
}

impl RawFrame {
    /// Wraps raw bytes as a frame.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::BadFrameLength`] if `bytes` does not match
    /// `width * height * bytes_per_pixel`.
    pub fn new(
        format: PixelFormat,
        width: usize,
        height: usize,
        bytes: Vec<u8>,
    ) -> Result<Self, VideoError> {
        let expected = width * height * format.bytes_per_pixel();
        if bytes.len() != expected {
            return Err(VideoError::BadFrameLength {
                expected,
                actual: bytes.len(),
            });
        }
        Ok(RawFrame {
            format,
            width,
            height,
            bytes,
        })
    }

    /// An empty placeholder frame (zero-sized, no allocation), for use as a
    /// reusable output slot of the `_into` capture-path functions.
    pub fn empty() -> Self {
        RawFrame {
            format: PixelFormat::Gray8,
            width: 0,
            height: 0,
            bytes: Vec::new(),
        }
    }

    /// Moves this frame's byte storage out for reuse (cleared, capacity
    /// kept), leaving the frame empty.
    pub(crate) fn take_storage(&mut self) -> Vec<u8> {
        self.width = 0;
        self.height = 0;
        self.format = PixelFormat::Gray8;
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes.clear();
        bytes
    }

    /// Sets this frame's format and geometry and returns its payload for
    /// the caller to overwrite in full. The storage is resized only when
    /// the byte length changes, so a steady-state frame keeps its bytes
    /// (stale until overwritten) instead of being refilled every call.
    pub(crate) fn reshape(
        &mut self,
        format: PixelFormat,
        width: usize,
        height: usize,
    ) -> &mut [u8] {
        self.format = format;
        self.width = width;
        self.height = height;
        self.bytes
            .resize(width * height * format.bytes_per_pixel(), 0);
        &mut self.bytes
    }

    /// Adopts `bytes` as this frame's payload, validating the length like
    /// [`RawFrame::new`].
    pub(crate) fn assign(
        &mut self,
        format: PixelFormat,
        width: usize,
        height: usize,
        bytes: Vec<u8>,
    ) -> Result<(), VideoError> {
        let expected = width * height * format.bytes_per_pixel();
        if bytes.len() != expected {
            return Err(VideoError::BadFrameLength {
                expected,
                actual: bytes.len(),
            });
        }
        self.format = format;
        self.width = width;
        self.height = height;
        self.bytes = bytes;
        Ok(())
    }

    /// Pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// `(width, height)` in pixels.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Raw byte payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Converts to a grayscale [`Frame`] (luma extraction for YUV, `[0, 1]`
    /// normalization for both) — the paper gray-scales the webcam stream
    /// before fusion.
    pub fn to_gray(&self, seq: u64) -> Frame {
        let mut out = Frame::new(Image::zeros(0, 0), 0);
        self.to_gray_into(seq, &mut out);
        out
    }

    /// Allocation-free variant of [`RawFrame::to_gray`]: converts into
    /// `out`'s image buffer (reshaped, capacity reused) and stamps its
    /// sequence number.
    pub fn to_gray_into(&self, seq: u64, out: &mut Frame) {
        out.seq = seq;
        let img = &mut out.image;
        img.reshape_for_overwrite(self.width, self.height);
        match self.format {
            PixelFormat::Gray8 => {
                for (dst, &b) in img.as_mut_slice().iter_mut().zip(&self.bytes) {
                    *dst = UNIT_BYTE[usize::from(b)];
                }
            }
            PixelFormat::Yuv422 => {
                // Packed Cb Y0 Cr Y1: luma sits at odd byte positions.
                for (dst, pair) in img
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.bytes.chunks_exact(2))
                {
                    *dst = UNIT_BYTE[usize::from(pair[1])];
                }
            }
            PixelFormat::Rgb888 => {
                // ITU-R BT.601 luma weights, as OpenCV's grayscale
                // conversion (the paper's display path) uses.
                for (dst, rgb) in img
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.bytes.chunks_exact(3))
                {
                    let [r, g, b] = [rgb[0], rgb[1], rgb[2]].map(f32::from);
                    *dst = (0.299 * r + 0.587 * g + 0.114 * b) / 255.0;
                }
            }
        }
    }
}

/// `b as f32 / 255.0` for every byte value `b`: the Gray8 and YUV luma
/// normalization as one table load per pixel instead of a divide.
static UNIT_BYTE: [f32; 256] = {
    let mut table = [0.0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as f32 / 255.0;
        b += 1;
    }
    table
};

/// A decoded single-channel `f32` frame with a sequence number.
///
/// # Examples
///
/// ```
/// use wavefuse_dtcwt::Image;
/// use wavefuse_video::Frame;
///
/// let f = Frame::filled(8, 8, 0.25f32);
/// assert_eq!(f.seq(), 0);
/// assert_eq!(f.image().get(3, 3), 0.25);
/// let img: Image = f.into_image();
/// assert_eq!(img.dims(), (8, 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    image: Image,
    seq: u64,
}

impl Frame {
    /// Wraps a decoded image with a sequence number.
    pub fn new(image: Image, seq: u64) -> Self {
        Frame { image, seq }
    }

    /// A constant-valued frame with sequence number 0 (handy in tests and
    /// docs).
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        Frame::new(Image::filled(width, height, value), 0)
    }

    /// The pixel data.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Mutable pixel data.
    pub fn image_mut(&mut self) -> &mut Image {
        &mut self.image
    }

    /// Capture sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overwrites the sequence number (used by the pooled capture path,
    /// which reuses frame buffers across captures).
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Consumes the frame, returning the image.
    pub fn into_image(self) -> Image {
        self.image
    }

    /// Quantizes back to 8-bit grayscale bytes (clamping to `[0, 1]`),
    /// for display or re-encoding.
    pub fn to_gray8_bytes(&self) -> Vec<u8> {
        self.image
            .as_slice()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect()
    }
}

impl From<Frame> for Image {
    fn from(f: Frame) -> Image {
        f.into_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_frame_length_validated() {
        assert!(RawFrame::new(PixelFormat::Gray8, 4, 4, vec![0; 15]).is_err());
        assert!(RawFrame::new(PixelFormat::Gray8, 4, 4, vec![0; 16]).is_ok());
        assert!(RawFrame::new(PixelFormat::Yuv422, 4, 4, vec![0; 32]).is_ok());
    }

    #[test]
    fn gray8_to_gray_normalizes() {
        let raw = RawFrame::new(PixelFormat::Gray8, 2, 1, vec![0, 255]).unwrap();
        let f = raw.to_gray(3);
        assert_eq!(f.seq(), 3);
        assert_eq!(f.image().get(0, 0), 0.0);
        assert_eq!(f.image().get(1, 0), 1.0);
        // Every byte value, Gray8 and YUV luma alike, normalizes to the
        // bits of the runtime division.
        let bytes: Vec<u8> = (0..=255).collect();
        let want: Vec<u32> = bytes
            .iter()
            .map(|&b| (f32::from(b) / std::hint::black_box(255.0f32)).to_bits())
            .collect();
        let gray = RawFrame::new(PixelFormat::Gray8, 16, 16, bytes.clone()).unwrap();
        let yuv_bytes = bytes.iter().flat_map(|&b| [0x80, b]).collect();
        let yuv = RawFrame::new(PixelFormat::Yuv422, 16, 16, yuv_bytes).unwrap();
        for raw in [gray, yuv] {
            let got: Vec<u32> = raw
                .to_gray(0)
                .image()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "{:?}", raw.format());
        }
    }

    #[test]
    fn yuv422_extracts_luma() {
        // Cb=128 Y0=100 Cr=128 Y1=200
        let raw = RawFrame::new(PixelFormat::Yuv422, 2, 1, vec![128, 100, 128, 200]).unwrap();
        let f = raw.to_gray(0);
        assert!((f.image().get(0, 0) - 100.0 / 255.0).abs() < 1e-6);
        assert!((f.image().get(1, 0) - 200.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn rgb888_uses_bt601_luma() {
        // Pure red / green / blue pixels map to their BT.601 weights.
        let raw = RawFrame::new(
            PixelFormat::Rgb888,
            3,
            1,
            vec![255, 0, 0, 0, 255, 0, 0, 0, 255],
        )
        .unwrap();
        let f = raw.to_gray(0);
        assert!((f.image().get(0, 0) - 0.299).abs() < 1e-5);
        assert!((f.image().get(1, 0) - 0.587).abs() < 1e-5);
        assert!((f.image().get(2, 0) - 0.114).abs() < 1e-5);
        // White maps to 1.0, black to 0.0.
        let wb = RawFrame::new(PixelFormat::Rgb888, 2, 1, vec![255, 255, 255, 0, 0, 0]).unwrap();
        let g = wb.to_gray(0);
        assert!((g.image().get(0, 0) - 1.0).abs() < 1e-5);
        assert_eq!(g.image().get(1, 0), 0.0);
    }

    #[test]
    fn gray8_round_trip() {
        let raw = RawFrame::new(PixelFormat::Gray8, 3, 2, vec![10, 20, 30, 40, 50, 60]).unwrap();
        let f = raw.to_gray(0);
        assert_eq!(f.to_gray8_bytes(), vec![10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn to_gray8_clamps() {
        let mut f = Frame::filled(2, 1, 2.0);
        f.image_mut().set(1, 0, -1.0);
        assert_eq!(f.to_gray8_bytes(), vec![255, 0]);
    }

    #[test]
    fn to_gray_into_overwrites_stale_buffers() {
        // `to_gray_into` reshapes without zero-filling: a NaN-filled frame
        // at the same geometry and at a larger one must match a fresh
        // conversion bit for bit, in every pixel format.
        let bits = |img: &Image| {
            img.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let (w, h) = (7, 3);
        for format in [PixelFormat::Gray8, PixelFormat::Yuv422, PixelFormat::Rgb888] {
            let len = w * h * format.bytes_per_pixel();
            let bytes = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            let raw = RawFrame::new(format, w, h, bytes).unwrap();
            let fresh = raw.to_gray(1);
            for (sw, sh) in [(w, h), (w + 2, h + 4)] {
                let mut stale = Frame::new(Image::filled(sw, sh, f32::NAN), 0);
                raw.to_gray_into(1, &mut stale);
                assert_eq!(
                    bits(stale.image()),
                    bits(fresh.image()),
                    "{format:?} over {sw}x{sh}"
                );
            }
        }
    }
}
