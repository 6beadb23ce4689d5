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
        let bytes = self
            .raw
            .reshape(PixelFormat::Rgb888, self.width, self.height);
        quantize_rgb(self.render.as_slice(), bytes);
        self.raw.to_gray_into(seq, out);
    }
}

/// Quantizes a rendered `[0, 1]` image to packed RGB sensor bytes, one
/// `R G B` triple per pixel of `img` into `bytes`. Warm cast: slightly
/// boosted red, slightly cut blue, chosen so the BT.601 luma recovers the
/// rendered value exactly (0.299*1.04 + 0.587*1.0 + 0.114*0.895 = 1.0).
fn quantize_rgb(img: &[f32], bytes: &mut [u8]) {
    pack_lanes::<3>(img, bytes, |v| {
        let v = v.clamp(0.0, 1.0);
        u32::from_le_bytes([
            round_u8((v * 1.04).min(1.0) * 255.0),
            round_u8(v * 255.0),
            round_u8(v * 0.895 * 255.0),
            0,
        ])
    });
}

/// Pixels per chunk of the byte packers.
const LANES: usize = 16;

/// Packs `src` into `out`, `N` bytes per pixel: the low `N` bytes,
/// little-endian, of the word `px` maps the pixel to. Each chunk of
/// [`LANES`] pixels computes its words into an array first, so the
/// arithmetic runs in packed lanes, then stores their bytes; the tail runs
/// `px` pixel by pixel.
#[inline(always)]
fn pack_lanes<const N: usize>(src: &[f32], out: &mut [u8], px: impl Fn(f32) -> u32) {
    debug_assert_eq!(out.len(), src.len() * N);
    let mut pixels = src.chunks_exact(LANES);
    let mut packed = out.chunks_exact_mut(LANES * N);
    for (s, o) in (&mut pixels).zip(&mut packed) {
        let mut words = [0u32; LANES];
        for (w, &v) in words.iter_mut().zip(s) {
            *w = px(v);
        }
        for (o, w) in o.chunks_exact_mut(N).zip(words) {
            o.copy_from_slice(&w.to_le_bytes()[..N]);
        }
    }
    let tail = packed.into_remainder().chunks_exact_mut(N);
    for (o, &v) in tail.zip(pixels.remainder()) {
        o.copy_from_slice(&px(v).to_le_bytes()[..N]);
    }
}

/// 2^23: adding it to a float in `[0, 2^23)` rounds the sum to an integer
/// (ties to even), which then sits in the low mantissa bits.
const MAGIC: f32 = 8_388_608.0;

/// `x.round() as u8` — round half away from zero, saturating to
/// `0..=255`, NaN to 0 — in branch-free float steps that lower to packed
/// SSE2/NEON ops instead of a scalar `roundf` call or a saturating
/// convert per pixel.
#[inline(always)]
fn round_u8(x: f32) -> u8 {
    // Saturate into [0, 255]; both compares are false for NaN, so NaN
    // lands on 0.
    let c = if x > 0.0 { x } else { 0.0 };
    let c = if c < 255.0 { c } else { 255.0 };
    // Round to nearest, ties to even; the integer sits in `t`'s mantissa.
    let t = c + MAGIC;
    // Ties to even and half away from zero differ only on an exact tie
    // that went down (`c - rounded` is exact here).
    let tie_down = c - (t - MAGIC) == 0.5;
    (t.to_bits() + u32::from(tie_down)) as u8
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
            .as_mut()
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
    let bytes = out.reshape(PixelFormat::Yuv422, w, h);
    pack_lanes::<2>(img.as_slice(), bytes, |v| {
        u32::from_le_bytes([0x80, round_u8(v.clamp(0.0, 1.0) * 253.0) + 1, 0, 0])
    });
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

    /// The scalar RGB quantize the lane packer replaced.
    fn scalar_rgb(v: f32) -> [u8; 3] {
        let v = v.clamp(0.0, 1.0);
        [
            ((v * 1.04).min(1.0) * 255.0).round() as u8,
            (v * 255.0).round() as u8,
            (v * 0.895 * 255.0).round() as u8,
        ]
    }

    /// The scalar YUV luma byte (integer round-half-up on `[0, 253]`) the
    /// lane packer replaced.
    fn scalar_luma(v: f32) -> u8 {
        let x = v.clamp(0.0, 1.0) * 253.0;
        let t = x as i32;
        (t + i32::from(x - t as f32 >= 0.5)) as u8 + 1
    }

    /// Checks `round_u8` against `.round() as u8` on every value of `xs`.
    fn check_round_u8(xs: &[f32]) {
        if let Some(&x) = xs.iter().find(|&&x| round_u8(x) != x.round() as u8) {
            panic!("round_u8({x:e}) [{:#x}] = {}", x.to_bits(), round_u8(x));
        }
    }

    /// Checks the YUV packer against its scalar expression on every value
    /// of `xs` (as one row, so the lane chunks and the tail both run).
    fn check_yuv(xs: &[f32], img: &mut Image, yuv: &mut RawFrame) {
        img.reshape(xs.len(), 1);
        img.as_mut_slice().copy_from_slice(xs);
        yuv422_from_gray_into(img, yuv);
        let mut packed = xs.iter().zip(yuv.bytes().chunks_exact(2));
        if let Some((v, cy)) = packed.find(|&(&v, cy)| *cy != [0x80, scalar_luma(v)]) {
            panic!("yuv({v:e}) [{:#x}] = {cy:?}", v.to_bits());
        }
    }

    #[test]
    fn lane_rounding_matches_scalar_expressions() {
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::MIN,
            -0.5,
            255.0,
            255.5,
            256.0,
            MAGIC,
            -MAGIC,
        ];
        // Every quantization level and half-way point of both scales, in
        // sample space and in scaled space, with its 1-ulp neighbours.
        for k in 0..=255u16 {
            let k = f32::from(k);
            for x in [
                k / 253.0,
                k / 255.0,
                (k + 0.5) / 253.0,
                (k + 0.5) / 255.0,
                k + 0.5,
                k,
            ] {
                xs.extend([x.next_down(), x, x.next_up()]);
            }
        }
        check_round_u8(&xs);
        check_yuv(&xs, &mut Image::zeros(0, 0), &mut RawFrame::empty());
        let mut rgb = vec![0; xs.len() * 3];
        quantize_rgb(&xs, &mut rgb);
        for (&v, rgb) in xs.iter().zip(rgb.chunks_exact(3)) {
            assert_eq!(rgb, scalar_rgb(v), "rgb({v:e}) [{:#x}]", v.to_bits());
        }
    }

    #[test]
    #[ignore = "exhaustive: all 2^32 f32 bit patterns, ~30 s in release"]
    fn lane_rounding_matches_scalar_expressions_for_every_f32() {
        // `round_u8` equals `.round() as u8` everywhere, so the RGB
        // quantize (the same expressions around it) follows; the YUV luma
        // replaced a different expression and is swept on its own.
        let sweep = |his: std::ops::RangeInclusive<u16>| {
            let (mut img, mut yuv) = (Image::zeros(0, 0), RawFrame::empty());
            let mut xs = vec![0.0f32; 1 << 16];
            for hi in his {
                let base = u32::from(hi) << 16;
                for (lo, x) in xs.iter_mut().enumerate() {
                    *x = f32::from_bits(base | lo as u32);
                }
                check_round_u8(&xs);
                check_yuv(&xs, &mut img, &mut yuv);
            }
        };
        // Two halves on two threads.
        std::thread::scope(|s| {
            s.spawn(|| sweep(0..=0x7fff));
            sweep(0x8000..=u16::MAX);
        });
    }

    /// FNV-1a 64 over `img`'s dims and pixel bits, folded into `h`.
    fn fnv1a(mut h: u64, img: &Image) -> u64 {
        let (w, ht) = img.dims();
        let words = [w as u32, ht as u32]
            .into_iter()
            .chain(img.as_slice().iter().map(|v| v.to_bits()));
        for word in words {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Digest of 8 frames per seed over seeds 1, 29 and 41 for each
    /// camera at one output geometry: `(thermal, webcam)`.
    fn capture_digests(w: usize, h: usize) -> (u64, u64) {
        let (mut thermal, mut web) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for seed in [1, 29, 41] {
            let mut ir = ThermalCamera::new(ScenePair::new(seed), w, h);
            let mut vis = WebCamera::new(ScenePair::new(seed), w, h);
            let mut frame = Frame::new(Image::zeros(0, 0), 0);
            for _ in 0..8 {
                ir.capture_into(&mut frame).unwrap();
                thermal = fnv1a(thermal, frame.image());
                vis.capture_into(&mut frame);
                web = fnv1a(web, frame.image());
            }
        }
        (thermal, web)
    }

    #[test]
    fn capture_frames_are_pinned() {
        // Every capture stage is an optimized form of a fixed per-pixel
        // expression; these digests were recorded from the scalar chain,
        // so any change in an output bit of either camera shows here.
        let pins = [
            ((32, 24), (0x18ee_8e5d_8481_90d0, 0x7e15_68d3_95b3_8f6f)),
            ((88, 72), (0x307a_12d3_964c_bfd0, 0x1a54_730d_1f11_2454)),
            ((97, 61), (0x488e_2489_d10f_9dbb, 0x6019_f53b_8d9a_ceeb)),
            ((320, 240), (0x861d_7980_be5b_784e, 0x1961_32ca_9d0a_8109)),
            ((640, 480), (0x34f4_362c_5b40_be8c, 0x1724_0172_9fb5_eb7c)),
        ];
        let got: Vec<_> = pins
            .iter()
            .map(|&((w, h), _)| ((w, h), capture_digests(w, h)))
            .collect();
        assert_eq!(got, pins, "((w, h), (thermal, webcam))");
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
