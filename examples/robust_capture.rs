//! Robust capture: what a deployed fusion camera needs beyond the paper's
//! lab prototype — a glitched BT.656 link — handled by the resilient
//! decoder, then fused on the FPGA end to end.
//!
//! ```text
//! cargo run --release --example robust_capture
//! ```

use wavefuse::core::{Backend, FusionEngine};
use wavefuse::dtcwt::Image;
use wavefuse::metrics::{petrovic_qabf, psnr};
use wavefuse::video::camera::{ThermalCamera, THERMAL_FIELD_DIMS};
use wavefuse::video::scaler::resize_bilinear;
use wavefuse::video::scene::ScenePair;
use wavefuse::video::{bt656, pgm, RawFrame};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = ScenePair::new(2016);
    let (w, h) = (88, 72);
    let visible = scene.render_visible(w, h, 0.0);

    // 1. A glitched BT.656 field: corrupt three active-line sync words, as
    //    a marginal FMC link would.
    let mut camera = ThermalCamera::new(scene.clone(), w, h);
    let mut stream = camera.next_field_stream();
    let (fw, fh) = THERMAL_FIELD_DIMS;
    let gray = |raw: &RawFrame| resize_bilinear(raw.to_gray(0).image(), w, h);
    let reference = gray(&bt656::decode(&stream, fw, fh)?)?;
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
    let thermal = gray(&raw)?;
    println!(
        "concealed thermal frame: {:.1} dB against the undamaged field",
        psnr(&reference, &thermal)
    );

    // 2. Fuse the concealed frame on the FPGA, and compare against fusing
    //    the frame an undamaged link would have delivered.
    let mut engine = FusionEngine::new(3)?;
    let clean = engine.fuse(&visible, &reference, Backend::Fpga)?.image;
    let robust = engine.fuse(&visible, &thermal, Backend::Fpga)?.image;
    let q = |img: &Image| petrovic_qabf(&visible, &reference, img);
    println!(
        "edge preservation Q^AB/F: clean link {:.3}, glitched link {:.3}",
        q(&clean),
        q(&robust)
    );

    pgm::write_pgm(&clean, "out/robust_clean.pgm")?;
    pgm::write_pgm(&robust, "out/robust_pipeline.pgm")?;
    println!("wrote out/robust_{{clean,pipeline}}.pgm");
    Ok(())
}
