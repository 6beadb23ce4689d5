//! Synthetic dual-modality scene.
//!
//! Stands in for the paper's physical scene (Fig. 8): the two sensors view
//! the same world but measure different things, and fusion is only
//! meaningful because their information is complementary. The parametric
//! scene here provides exactly that structure:
//!
//! * the **visible** rendering carries background texture, a striped
//!   calibration board, and a *cold occluder* box that hides part of the
//!   scene — none of which radiate heat;
//! * the **thermal** rendering carries a moving warm body and a hot lamp
//!   spot, both nearly invisible in the visible band, and sees *through*
//!   the visually opaque occluder;
//! * each modality adds its own sensor noise (fine shot noise for the
//!   CMOS webcam, coarser NETD-style noise for the microbolometer).
//!
//! Rendering is deterministic in `(seed, time, pixel)`, so every experiment
//! is reproducible bit-for-bit.

use wavefuse_dtcwt::Image;

/// A deterministic two-modality scene generator.
///
/// # Examples
///
/// ```
/// use wavefuse_video::scene::ScenePair;
///
/// let scene = ScenePair::new(42);
/// let vis = scene.render_visible(64, 48, 0.0);
/// let ir = scene.render_thermal(64, 48, 0.0);
/// assert_eq!(vis.dims(), ir.dims());
/// // Determinism: same seed and time give the same pixels.
/// assert_eq!(vis, ScenePair::new(42).render_visible(64, 48, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenePair {
    seed: u64,
}

/// Reusable per-column tables for the procedural renders.
///
/// Every term of the scene that depends on the horizontal coordinate alone
/// (texture sinusoids, board stripes, occluder shading, the horizontal
/// falloff of the warm body and lamp) is evaluated once per column here
/// instead of once per pixel; the row-only terms hoist into the row loop.
/// Holding one across frames makes steady-state rendering allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RenderScratch {
    /// Texture/ambient sinusoid per column.
    tex: Vec<f64>,
    /// Calibration-board stripe value per column (`NaN` outside the board).
    stripe: Vec<f64>,
    /// Occluder-panel value per column (`NaN` outside the panel).
    occ: Vec<f64>,
    /// Horizontal warm-body falloff term per column.
    body: Vec<f64>,
    /// Horizontal lamp falloff term per column.
    lamp: Vec<f64>,
    /// NETD noise per column pair (the grain is 2x2 blocks), refreshed
    /// every other row.
    noise_row: Vec<f64>,
}

impl RenderScratch {
    /// Sizes every table to `w` columns (capacity reused).
    fn fit(&mut self, w: usize) {
        for table in [
            &mut self.tex,
            &mut self.stripe,
            &mut self.occ,
            &mut self.body,
            &mut self.lamp,
        ] {
            table.resize(w, 0.0);
        }
        self.noise_row.resize(w.div_ceil(2), 0.0);
    }
}

impl ScenePair {
    /// Creates a scene from a seed controlling noise and object placement.
    pub fn new(seed: u64) -> Self {
        ScenePair { seed }
    }

    /// The seed this scene was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Normalized center of the warm body at time `t` seconds (it patrols
    /// horizontally).
    pub fn body_center(&self, t: f64) -> (f64, f64) {
        let phase = (self.seed % 7) as f64 * 0.37;
        let x = 0.5 + 0.3 * (0.4 * t + phase).sin();
        let y = 0.55 + 0.05 * (0.9 * t + phase).cos();
        (x, y)
    }

    /// Renders the visible-band view in `[0, 1]`.
    pub fn render_visible(&self, w: usize, h: usize, t: f64) -> Image {
        let mut out = Image::zeros(0, 0);
        self.render_visible_into(w, h, t, &mut out);
        out
    }

    /// Buffer-reusing variant of [`ScenePair::render_visible`]: renders
    /// into `out` (reshaped, capacity reused). Identical pixels. Builds a
    /// one-shot [`RenderScratch`]; steady-state callers should hold one and
    /// use [`ScenePair::render_visible_scratch`] instead.
    pub fn render_visible_into(&self, w: usize, h: usize, t: f64, out: &mut Image) {
        self.render_visible_scratch(w, h, t, &mut RenderScratch::default(), out);
    }

    /// Renders the visible-band view through caller-held column tables, so
    /// repeated renders allocate nothing. Identical pixels to
    /// [`ScenePair::render_visible`].
    pub fn render_visible_scratch(
        &self,
        w: usize,
        h: usize,
        t: f64,
        scratch: &mut RenderScratch,
        out: &mut Image,
    ) {
        let (bx, by) = self.body_center(t);
        let tn = (t * 1000.0) as u64;
        out.reshape(w, h);
        scratch.fit(w);
        // Per-column terms, same expressions as the per-pixel form so the
        // assembled value is bit-identical.
        for px in 0..w {
            let x = (px as f64 + 0.5) / w as f64;
            scratch.tex[px] = (x * 40.0).sin();
            // Striped calibration board (visible only); NaN = outside.
            scratch.stripe[px] = if (0.08..0.30).contains(&x) {
                if (((x - 0.08) * 50.0) as u64).is_multiple_of(2) {
                    0.9
                } else {
                    0.15
                }
            } else {
                f64::NAN
            };
            // Cold occluder: a dark panel the visible camera cannot see
            // past; NaN = outside.
            scratch.occ[px] = if (0.55..0.85).contains(&x) {
                0.12 + 0.02 * ((x * 90.0).sin())
            } else {
                f64::NAN
            };
            scratch.body[px] = ((x - bx) / 0.06).powi(2);
        }
        let data = out.as_mut_slice();
        for py in 0..h {
            let y = (py as f64 + 0.5) / h as f64;
            let base = 0.45 + 0.25 * (1.0 - y);
            let cosy = (y * 31.0).cos();
            let dy2 = ((y - by) / 0.16).powi(2);
            let stripe_row = (0.15..0.45).contains(&y);
            let occ_row = (0.35..0.8).contains(&y);
            let row = &mut data[py * w..(py + 1) * w];
            for (px, o) in row.iter_mut().enumerate() {
                // Illumination gradient + wall texture.
                let mut v = base + 0.08 * (scratch.tex[px] * cosy);
                if stripe_row && !scratch.stripe[px].is_nan() {
                    v = scratch.stripe[px];
                }
                if occ_row && !scratch.occ[px].is_nan() {
                    v = scratch.occ[px];
                }
                // The warm body is barely visible (low-contrast silhouette).
                if scratch.body[px] + dy2 < 1.0 {
                    v = v * 0.8 + 0.05;
                }
                // CMOS shot noise.
                v += 0.015 * self.noise(px as u64, py as u64, tn, 1);
                *o = (v.clamp(0.0, 1.0)) as f32;
            }
        }
    }

    /// Renders the thermal (LWIR) view in `[0, 1]`.
    pub fn render_thermal(&self, w: usize, h: usize, t: f64) -> Image {
        let mut out = Image::zeros(0, 0);
        self.render_thermal_into(w, h, t, &mut out);
        out
    }

    /// Buffer-reusing variant of [`ScenePair::render_thermal`]: renders
    /// into `out` (reshaped, capacity reused). Identical pixels. Builds a
    /// one-shot [`RenderScratch`]; steady-state callers should hold one and
    /// use [`ScenePair::render_thermal_scratch`] instead.
    pub fn render_thermal_into(&self, w: usize, h: usize, t: f64, out: &mut Image) {
        self.render_thermal_scratch(w, h, t, &mut RenderScratch::default(), out);
    }

    /// Renders the thermal view through caller-held column tables, so
    /// repeated renders allocate nothing. Identical pixels to
    /// [`ScenePair::render_thermal`].
    pub fn render_thermal_scratch(
        &self,
        w: usize,
        h: usize,
        t: f64,
        scratch: &mut RenderScratch,
        out: &mut Image,
    ) {
        let (bx, by) = self.body_center(t);
        let lampx = 0.72;
        let lampy = 0.22;
        let tn = (t * 1000.0) as u64;
        out.reshape(w, h);
        scratch.fit(w);
        // Per-column terms, same expressions as the per-pixel form so the
        // assembled value is bit-identical.
        for px in 0..w {
            let x = (px as f64 + 0.5) / w as f64;
            scratch.tex[px] = (x * 3.0).sin();
            // The Gaussian falloffs are separable: exp(-(dx2 + dy2)) =
            // exp(-dx2) * exp(-dy2), so each axis is exponentiated once
            // per row/column instead of once per pixel.
            scratch.body[px] = (-((x - bx) / 0.07).powi(2)).exp();
            scratch.lamp[px] = (-((x - lampx) / 0.035).powi(2)).exp();
        }
        let data = out.as_mut_slice();
        for py in 0..h {
            let y = (py as f64 + 0.5) / h as f64;
            let cosy = (y * 2.0).cos();
            let body_y = (-((y - by) / 0.18).powi(2)).exp();
            let lamp_y = (-((y - lampy) / 0.05).powi(2)).exp();
            if py % 2 == 0 {
                // NETD grain is constant over 2x2 blocks; hash each block
                // once and reuse it for four pixels.
                for (i, n) in scratch.noise_row.iter_mut().enumerate() {
                    *n = self.noise(i as u64, py as u64 / 2, tn, 2);
                }
            }
            let row = &mut data[py * w..(py + 1) * w];
            // Ambient temperature field: smooth, no visible-band texture —
            // the visible occluder is transparent at LWIR. Then the warm
            // body (bright ellipse, soft falloff), the hot lamp spot and
            // the microbolometer's coarse-grained NETD noise.
            let pixel = |tex: f64, body: f64, lamp: f64, noise: f64| {
                let mut v = 0.25 + 0.05 * (tex + cosy);
                v += 0.55 * (body * body_y);
                v += 0.7 * (lamp * lamp_y);
                v += 0.02 * noise;
                (v.clamp(0.0, 1.0)) as f32
            };
            // Column pairs share one noise value, so each pair runs as one
            // two-wide step; an odd width leaves one column for the tail.
            let pairs = w / 2;
            let terms = scratch.tex[..2 * pairs]
                .chunks_exact(2)
                .zip(scratch.body[..2 * pairs].chunks_exact(2))
                .zip(scratch.lamp[..2 * pairs].chunks_exact(2))
                .zip(&scratch.noise_row);
            for (o, (((tex, body), lamp), &n)) in row.chunks_exact_mut(2).zip(terms) {
                o[0] = pixel(tex[0], body[0], lamp[0], n);
                o[1] = pixel(tex[1], body[1], lamp[1], n);
            }
            if w % 2 == 1 {
                let px = w - 1;
                row[px] = pixel(
                    scratch.tex[px],
                    scratch.body[px],
                    scratch.lamp[px],
                    scratch.noise_row[pairs],
                );
            }
        }
    }

    /// Deterministic noise in `[-1, 1]` from a SplitMix64-style hash.
    fn noise(&self, x: u64, y: u64, t: u64, channel: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(x.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(y.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(t.wrapping_mul(0xd6e8_feb8_6659_fd93))
            .wrapping_add(channel);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(xs: &[f32]) -> f32 {
        xs.iter().sum::<f32>() / xs.len() as f32
    }

    #[test]
    fn hoisted_renders_match_per_pixel_reference_exactly() {
        // The column-table renders must be bit-identical to the direct
        // per-pixel evaluation of the scene formulas: odd and even widths
        // (the thermal row runs column pairs plus an odd tail), a single
        // column, and the thermal sensor raster.
        let scene = ScenePair::new(11);
        for ((w, h), t) in [(97, 61), (1, 9), (64, 18), (384, 288)]
            .into_iter()
            .flat_map(|dims| [0.0, 0.73, 4.2].map(|t| (dims, t)))
        {
            let tn = (t * 1000.0) as u64;
            let (bx, by) = scene.body_center(t);
            let vis_ref = Image::from_fn(w, h, |px, py| {
                let x = (px as f64 + 0.5) / w as f64;
                let y = (py as f64 + 0.5) / h as f64;
                let mut v = 0.45 + 0.25 * (1.0 - y) + 0.08 * ((x * 40.0).sin() * (y * 31.0).cos());
                if (0.08..0.30).contains(&x) && (0.15..0.45).contains(&y) {
                    v = if (((x - 0.08) * 50.0) as u64).is_multiple_of(2) {
                        0.9
                    } else {
                        0.15
                    };
                }
                if (0.55..0.85).contains(&x) && (0.35..0.8).contains(&y) {
                    v = 0.12 + 0.02 * ((x * 90.0).sin());
                }
                let d2 = ((x - bx) / 0.06).powi(2) + ((y - by) / 0.16).powi(2);
                if d2 < 1.0 {
                    v = v * 0.8 + 0.05;
                }
                v += 0.015 * scene.noise(px as u64, py as u64, tn, 1);
                (v.clamp(0.0, 1.0)) as f32
            });
            let ir_ref = Image::from_fn(w, h, |px, py| {
                let x = (px as f64 + 0.5) / w as f64;
                let y = (py as f64 + 0.5) / h as f64;
                let mut v = 0.25 + 0.05 * ((x * 3.0).sin() + (y * 2.0).cos());
                v += 0.55
                    * ((-((x - bx) / 0.07).powi(2)).exp() * (-((y - by) / 0.18).powi(2)).exp());
                v += 0.7
                    * ((-((x - 0.72) / 0.035).powi(2)).exp()
                        * (-((y - 0.22) / 0.05).powi(2)).exp());
                v += 0.02 * scene.noise(px as u64 / 2, py as u64 / 2, tn, 2);
                (v.clamp(0.0, 1.0)) as f32
            });
            let bits = |img: &Image| {
                img.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            let vis = scene.render_visible(w, h, t);
            let ir = scene.render_thermal(w, h, t);
            assert_eq!((vis.dims(), ir.dims()), ((w, h), (w, h)));
            assert!(bits(&vis) == bits(&vis_ref), "visible {w}x{h} t={t}");
            assert!(bits(&ir) == bits(&ir_ref), "thermal {w}x{h} t={t}");
        }
    }

    #[test]
    fn deterministic_rendering() {
        let a = ScenePair::new(5).render_thermal(32, 32, 1.5);
        let b = ScenePair::new(5).render_thermal(32, 32, 1.5);
        assert_eq!(a, b);
        let c = ScenePair::new(6).render_thermal(32, 32, 1.5);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn values_in_unit_range() {
        let scene = ScenePair::new(1);
        for img in [
            scene.render_visible(48, 40, 0.3),
            scene.render_thermal(48, 40, 0.3),
        ] {
            for &v in img.as_slice() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn body_moves_over_time() {
        let scene = ScenePair::new(3);
        let (x0, _) = scene.body_center(0.0);
        let (x1, _) = scene.body_center(2.0);
        assert!((x0 - x1).abs() > 0.01);
        let a = scene.render_thermal(64, 48, 0.0);
        let b = scene.render_thermal(64, 48, 2.0);
        assert!(a.max_abs_diff(&b) > 0.1, "thermal view must change");
    }

    #[test]
    fn modalities_are_complementary() {
        // Inside the occluder box the visible image is dark and flat while
        // the thermal image can still show the lamp-side warmth; and the
        // lamp region is hot in thermal but unremarkable in visible.
        let scene = ScenePair::new(9);
        let vis = scene.render_visible(100, 100, 0.0);
        let ir = scene.render_thermal(100, 100, 0.0);
        // Occluder interior (visible): dark.
        let occ: Vec<f32> = (40..75)
            .flat_map(|y| (58..82).map(move |x| (x, y)))
            .map(|(x, y)| vis.get(x, y))
            .collect();
        assert!(mean(&occ) < 0.25, "occluder should look dark in visible");
        // Lamp core: thermal much brighter than visible at the same spot.
        let lamp_ir = ir.get(72, 22);
        let lamp_vis = vis.get(72, 22);
        assert!(lamp_ir > lamp_vis + 0.3, "{lamp_ir} vs {lamp_vis}");
        // Calibration-board stripes exist only in visible: spread check.
        let stripe_vis: Vec<f32> = (20..40).map(|x| vis.get(x, 25)).collect();
        let stripe_ir: Vec<f32> = (20..40).map(|x| ir.get(x, 25)).collect();
        let spread = |v: &[f32]| {
            v.iter().cloned().fold(f32::MIN, f32::max) - v.iter().cloned().fold(f32::MAX, f32::min)
        };
        assert!(spread(&stripe_vis) > 4.0 * spread(&stripe_ir));
    }
}
