//! Camera models: the two capture front-ends of the paper's Fig. 7.
//!
//! * [`WebCamera`] models the Logitech C160 USB webcam: frames are decoded
//!   on the PS side, arriving as 8-bit grayscale (the paper gray-scales the
//!   webcam stream before fusion).
//! * [`ThermalCamera`] models the Thermoteknix MicroCAM 384H XTi: the
//!   sensor's native raster is formatted into a 720x243 YUV 4:2:2 field,
//!   serialized as a BT.656 byte stream (what crosses the FMC connector),
//!   decoded by the [`crate::bt656`] decoder, and resampled by the
//!   [`crate::scaler`] — the full PL-side path of the paper.

use crate::bt656;
use crate::frame::{Frame, PixelFormat, RawFrame};
use crate::scaler::BilinearPlan;
use crate::scene::{RenderScratch, ScenePair};
use crate::VideoError;
use wavefuse_dtcwt::Image;

/// Native raster of the modeled MicroCAM 384H XTi sensor.
pub const THERMAL_SENSOR_DIMS: (usize, usize) = (384, 288);

/// BT.656 field geometry the thermal camera emits (as in the paper's
/// `Video_Scale (720x243 to 640x480, 60Hz)` block).
pub const THERMAL_FIELD_DIMS: (usize, usize) = (720, 243);

/// USB webcam model (PS-side decode).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct WebCamera {
    scene: ScenePair,
    width: usize,
    height: usize,
    fps: f64,
    seq: u64,
    // Reusable capture-path scratch (render tables, rendered scene and
    // quantized sensor bytes), so steady-state captures via `capture_into`
    // do not allocate.
    scratch: RenderScratch,
    render: Image,
    raw: RawFrame,
}

impl WebCamera {
    /// Creates a webcam delivering `width` x `height` frames at 30 fps.
    pub fn new(scene: ScenePair, width: usize, height: usize) -> Self {
        WebCamera {
            scene,
            width,
            height,
            fps: 30.0,
            seq: 0,
            scratch: RenderScratch::default(),
            render: Image::zeros(0, 0),
            raw: RawFrame::empty(),
        }
    }

    /// Frames per second of the capture clock.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Captures the next frame: render → RGB sensor quantization → USB
    /// decode → grayscale conversion (the paper gray-scales the webcam
    /// stream before fusion).
    pub fn capture(&mut self) -> Frame {
        let mut out = Frame::new(Image::zeros(0, 0), 0);
        self.capture_into(&mut out);
        out
    }

    /// Allocation-free variant of [`WebCamera::capture`]: runs the same
    /// render → quantize → grayscale path through internal scratch buffers
    /// and writes the result into `out` (reshaped, capacity reused).
    pub fn capture_into(&mut self, out: &mut Frame) {
        let seq = self.seq;
        let t = seq as f64 / self.fps;
        self.seq += 1;
        self.scene.render_visible_scratch(
            self.width,
            self.height,
            t,
            &mut self.scratch,
            &mut self.render,
        );
        let mut bytes = self.raw.take_storage();
        bytes.reserve(self.width * self.height * 3);
        quantize_rgb(&self.render, &mut bytes);
        self.raw
            .assign(PixelFormat::Rgb888, self.width, self.height, bytes)
            .expect("sensor geometry is consistent");
        self.raw.to_gray_into(seq, out);
    }
}

/// Quantizes a rendered `[0, 1]` image to packed RGB sensor bytes. Warm
/// cast: slightly boosted red, slightly cut blue, chosen so the BT.601
/// luma recovers the rendered value exactly
/// (0.299*1.04 + 0.587*1.0 + 0.114*0.895 = 1.0).
fn quantize_rgb(img: &Image, bytes: &mut Vec<u8>) {
    bytes.clear();
    bytes.resize(img.as_slice().len() * 3, 0);
    for (rgb, &v) in bytes.chunks_exact_mut(3).zip(img.as_slice()) {
        let v = v.clamp(0.0, 1.0);
        rgb[0] = ((v * 1.04).min(1.0) * 255.0).round() as u8;
        rgb[1] = (v * 255.0).round() as u8;
        rgb[2] = (v * 0.895 * 255.0).round() as u8;
    }
}

/// Thermal camera model (PL-side BT.656 decode + scaling).
#[derive(Debug, Clone)]
pub struct ThermalCamera {
    scene: ScenePair,
    field_fps: f64,
    seq: u64,
    // Reusable capture-path scratch covering every stage of the pipe
    // (render, field resample, YUV pack, BT.656 stream, decode, luma), so
    // steady-state captures via `capture_into` do not allocate.
    scratch: RenderScratch,
    native: Image,
    field: Image,
    yuv: RawFrame,
    stream: Vec<u8>,
    decoded: RawFrame,
    gray: Frame,
    /// Prepared sensor-to-field resample (fixed geometry).
    up: BilinearPlan,
    /// Prepared field-to-output resample; `None` for zero output dims
    /// (reported as an error at capture time, as the scaler would).
    down: Option<BilinearPlan>,
}

impl ThermalCamera {
    /// Creates a thermal camera delivering `out_width` x `out_height`
    /// frames (after decode and scaling) at 60 fields/s.
    pub fn new(scene: ScenePair, out_width: usize, out_height: usize) -> Self {
        let (sw, sh) = THERMAL_SENSOR_DIMS;
        let (fw, fh) = THERMAL_FIELD_DIMS;
        ThermalCamera {
            scene,
            field_fps: 60.0,
            seq: 0,
            scratch: RenderScratch::default(),
            native: Image::zeros(0, 0),
            field: Image::zeros(0, 0),
            yuv: RawFrame::empty(),
            stream: Vec::new(),
            decoded: RawFrame::empty(),
            gray: Frame::new(Image::zeros(0, 0), 0),
            up: BilinearPlan::new(sw, sh, fw, fh).expect("non-empty field geometry"),
            down: BilinearPlan::new(fw, fh, out_width, out_height).ok(),
        }
    }

    /// The raw BT.656 byte stream of the next field — what the FMC pins
    /// carry. Exposed so tests and examples can exercise the decoder
    /// directly.
    pub fn next_field_stream(&mut self) -> Vec<u8> {
        self.render_field_yuv();
        bt656::encode(&self.yuv)
    }

    /// Renders the next field into `self.yuv` (advancing the sequence
    /// counter): render at sensor dims → resample to field geometry →
    /// YUV 4:2:2 pack, all through scratch buffers.
    fn render_field_yuv(&mut self) {
        let t = self.seq as f64 / self.field_fps;
        self.seq += 1;
        let (sw, sh) = THERMAL_SENSOR_DIMS;
        self.scene
            .render_thermal_scratch(sw, sh, t, &mut self.scratch, &mut self.native);
        self.up
            .apply(&self.native, &mut self.field)
            .expect("planned sensor geometry");
        yuv422_from_gray_into(&self.field, &mut self.yuv);
    }

    /// Captures the next frame through the full path:
    /// render → field format → BT.656 encode → decode → luma → scale.
    ///
    /// # Errors
    ///
    /// Propagates BT.656 decode errors (which for this camera's own streams
    /// indicates a model bug) and scaler errors for zero output dimensions.
    pub fn capture(&mut self) -> Result<Frame, VideoError> {
        let mut out = Frame::new(Image::zeros(0, 0), 0);
        self.capture_into(&mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`ThermalCamera::capture`]: runs the same
    /// full capture path through internal scratch buffers and writes the
    /// result into `out` (reshaped, capacity reused).
    ///
    /// # Errors
    ///
    /// As [`ThermalCamera::capture`].
    pub fn capture_into(&mut self, out: &mut Frame) -> Result<(), VideoError> {
        let seq = self.seq;
        self.render_field_yuv();
        bt656::encode_into(&self.yuv, &mut self.stream);
        let (fw, fh) = THERMAL_FIELD_DIMS;
        bt656::decode_into(&self.stream, fw, fh, &mut self.decoded)?;
        self.decoded.to_gray_into(seq, &mut self.gray);
        self.down
            .as_ref()
            .ok_or(VideoError::EmptyImage)?
            .apply(self.gray.image(), out.image_mut())?;
        out.set_seq(seq);
        Ok(())
    }
}

/// Packs a grayscale image into YUV 4:2:2 bytes with neutral chroma,
/// clamping luma into the BT.656-legal `1..=254` range. Reuses `out`'s
/// byte storage.
fn yuv422_from_gray_into(img: &Image, out: &mut RawFrame) {
    let (w, h) = img.dims();
    let mut bytes = out.take_storage();
    if bytes.len() != w * h * 2 {
        // Neutral Cb/Cr bytes are invariant — prefill them once per
        // geometry; steady-state captures only rewrite the luma bytes.
        bytes.clear();
        bytes.resize(w * h * 2, 0x80);
    }
    for (pair, &v) in bytes.chunks_exact_mut(2).zip(img.as_slice()) {
        // Integer round-half-up: bit-identical to `.round() as u8` on the
        // clamped [0, 253] range (positive halves round away from zero
        // either way), but lowers to SSE2-vectorizable converts instead of
        // a scalar `roundf` call per pixel.
        let x = v.clamp(0.0, 1.0) * 253.0;
        let t = x as i32;
        pair[1] = (t + i32::from(x - t as f32 >= 0.5)) as u8 + 1;
    }
    out.assign(PixelFormat::Yuv422, w, h, bytes)
        .expect("geometry is consistent");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webcam_advances_sequence() {
        let mut cam = WebCamera::new(ScenePair::new(1), 32, 24);
        let f0 = cam.capture();
        let f1 = cam.capture();
        assert_eq!(f0.seq(), 0);
        assert_eq!(f1.seq(), 1);
        assert_eq!(f0.image().dims(), (32, 24));
    }

    #[test]
    fn thermal_capture_full_path() {
        let mut cam = ThermalCamera::new(ScenePair::new(2), 88, 72);
        let f = cam.capture().unwrap();
        assert_eq!(f.image().dims(), (88, 72));
        for &v in f.image().as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn thermal_stream_is_valid_bt656() {
        let mut cam = ThermalCamera::new(ScenePair::new(3), 40, 30);
        let stream = cam.next_field_stream();
        let (fw, fh) = THERMAL_FIELD_DIMS;
        let raw = bt656::decode(&stream, fw, fh).unwrap();
        assert_eq!(raw.dims(), THERMAL_FIELD_DIMS);
        // Luma stays in the legal range.
        for chunk in raw.bytes().chunks_exact(2) {
            assert!(chunk[1] >= 1 && chunk[1] <= 254);
        }
    }

    #[test]
    fn cameras_view_the_same_scene() {
        // The warm body's thermal signature and the visible silhouette sit
        // at the same normalized location: cross-check via the scene.
        let scene = ScenePair::new(4);
        let (bx, by) = scene.body_center(0.0);
        let mut cam = ThermalCamera::new(scene, 96, 96);
        let f = cam.capture().unwrap();
        let px = (bx * 96.0) as usize;
        let py = (by * 96.0) as usize;
        let center = f.image().get(px.min(95), py.min(95));
        let corner = f.image().get(2, 2);
        assert!(center > corner + 0.2, "body {center} vs corner {corner}");
    }

    #[test]
    fn quantization_path_matches_scene_brightness() {
        let scene = ScenePair::new(5);
        let mut cam = WebCamera::new(scene.clone(), 64, 48);
        let f = cam.capture();
        let direct = scene.render_visible(64, 48, 0.0);
        // Per-channel 8-bit quantization bounds the luma error at half an
        // LSB, plus the red-channel headroom clamp for near-white pixels.
        assert!(f.image().max_abs_diff(&direct) <= 0.5 / 255.0 + 0.299 * 0.04 + 1e-6);
    }
}
