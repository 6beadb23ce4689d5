//! Visualizes the DT-CWT's six orientation-selective subbands (the
//! property behind the fusion quality the paper builds on).
//!
//! ```text
//! cargo run --release --example subband_gallery
//! ```
//!
//! Writes, under `out/gallery/`, the magnitude of each oriented subband
//! for a star-like test pattern (each band lights up only for edges near
//! its angle).

use wavefuse::dtcwt::{Dtcwt, Image, Orientation};
use wavefuse::video::pgm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A radial "siemens star" excites every orientation somewhere.
    let n = 128;
    let star = Image::from_fn(n, n, |x, y| {
        let dx = x as f64 - n as f64 / 2.0;
        let dy = y as f64 - n as f64 / 2.0;
        let theta = dy.atan2(dx);
        let r = (dx * dx + dy * dy).sqrt();
        if r < 4.0 || r > n as f64 / 2.0 - 2.0 {
            0.5
        } else {
            (0.5 + 0.5 * (theta * 12.0).sin()) as f32
        }
    });
    pgm::write_pgm(&star, "out/gallery/star_input.pgm")?;

    let t = Dtcwt::new(2)?;
    let pyr = t.forward(&star)?;
    println!("level-1 subband energies (the six orientations):");
    for o in Orientation::ALL {
        let band = pyr.subband(0, o);
        let mag = band.magnitude();
        // Normalize for display.
        let peak = mag
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v))
            .max(1e-9);
        let vis = Image::from_fn(mag.width(), mag.height(), |x, y| mag.get(x, y) / peak);
        let name = format!(
            "out/gallery/band_{}.pgm",
            o.to_string().replace('+', "p").replace('-', "m")
        );
        pgm::write_pgm(&vis, &name)?;
        println!("  {o:>7}: energy {:>10.1} -> {name}", band.energy());
    }
    Ok(())
}
