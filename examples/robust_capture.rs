//! Robust capture: what a deployed fusion camera needs beyond the paper's
//! lab prototype — glitched wires, misaligned mounts and sensor noise —
//! handled by the resilient BT.656 decoder, phase-correlation registration
//! and DT-CWT denoising, end to end.
//!
//! ```text
//! cargo run --release --example robust_capture
//! ```

use wavefuse::core::{Backend, FusionEngine};
use wavefuse::dtcwt::analysis::circular_shift;
use wavefuse::dtcwt::denoise::denoise;
use wavefuse::dtcwt::{Dtcwt, Image};
use wavefuse::metrics::{petrovic_qabf, psnr};
use wavefuse::video::camera::{ThermalCamera, THERMAL_FIELD_DIMS};
use wavefuse::video::register::align_to;
use wavefuse::video::scaler::resize_bilinear;
use wavefuse::video::scene::ScenePair;
use wavefuse::video::{bt656, pgm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = ScenePair::new(2016);
    let (w, h) = (88, 72);
    let visible = scene.render_visible(w, h, 0.0);

    // 1. A glitched BT.656 field: corrupt three active-line sync words, as
    //    a marginal FMC link would.
    let mut camera = ThermalCamera::new(scene.clone(), w, h);
    let mut stream = camera.next_field_stream();
    let sav_active = bt656::xy_byte(false, false, false);
    let sav_positions: Vec<usize> = stream
        .windows(4)
        .enumerate()
        .filter(|(_, win)| *win == [0xff, 0x00, 0x00, sav_active])
        .map(|(i, _)| i)
        .collect();
    for k in [10usize, 60, 120] {
        stream[sav_positions[k] + 3] = 0x81; // invalid protection bits
    }
    let (fw, fh) = THERMAL_FIELD_DIMS;
    let strict = bt656::decode(&stream, fw, fh);
    println!(
        "strict decoder on the glitched stream: {}",
        match &strict {
            Ok(_) => "accepted (unexpected)".to_string(),
            Err(e) => format!("rejected: {e}"),
        }
    );
    let (raw, report) = bt656::decode_resilient(&stream, fw, fh)?;
    println!(
        "resilient decoder: {} good lines, {} concealed, {} resync bytes",
        report.good_lines, report.concealed_lines, report.resync_bytes
    );
    let thermal_full = raw.to_gray(0);
    let thermal = resize_bilinear(thermal_full.image(), w, h)?;

    // 2. A misaligned mount: the thermal camera is bolted 5 px right,
    //    3 px down of the webcam. Register before fusing.
    let misaligned = circular_shift(&thermal, 5, 3);
    let reference = scene.render_thermal(w, h, 0.0);
    let (registered, t) = align_to(&reference, &misaligned)?;
    println!(
        "registration: estimated shift ({}, {}) with confidence {:.3}",
        t.dx, t.dy, t.confidence
    );

    // 3. Sensor noise: soft-threshold the registered thermal frame.
    let transform = Dtcwt::new(3)?;
    let cleaned = denoise(&transform, &registered, 0.8)?;
    println!(
        "denoise: {:.1} dB -> {:.1} dB against the clean render",
        psnr(&reference, &registered),
        psnr(&reference, &cleaned)
    );

    // 4. Fuse, and compare against fusing the raw damaged stream.
    let mut engine = FusionEngine::new(3)?;
    let robust = engine.fuse(&visible, &cleaned, Backend::Fpga)?.image;
    let naive = engine.fuse(&visible, &misaligned, Backend::Fpga)?.image;
    let q = |img: &Image| petrovic_qabf(&visible, &reference, img);
    println!(
        "edge preservation Q^AB/F: naive {:.3} -> robust {:.3}",
        q(&naive),
        q(&robust)
    );

    pgm::write_pgm(&naive, "out/robust_naive.pgm")?;
    pgm::write_pgm(&robust, "out/robust_pipeline.pgm")?;
    println!("wrote out/robust_{{naive,pipeline}}.pgm");
    Ok(())
}
