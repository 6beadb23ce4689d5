//! End-to-end pipeline tests: the full capture → BT.656 decode → scale →
//! gate → decompose → fuse → reconstruct path of the paper's Fig. 7, across
//! crates.

use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::Backend;
use wavefuse_video::bt656;
use wavefuse_video::camera::{ThermalCamera, THERMAL_FIELD_DIMS};
use wavefuse_video::scaler::resize_bilinear;
use wavefuse_video::scene::ScenePair;

#[test]
fn full_capture_path_produces_fused_video() {
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Fixed(Backend::Fpga),
        scene_seed: 42,
        threads: 1,
        depth: 1,
    })
    .unwrap();
    let stats = pipe.run(5).unwrap();
    assert_eq!(stats.frames, 5);
    assert_eq!(stats.backend_usage, [0, 0, 5]);
    // Energy accounting is consistent with the FPGA power mode.
    let p_fpga = pipe
        .engine()
        .power_model()
        .power_w(wavefuse_power::ExecutionMode::ArmFpga);
    let implied_energy = stats.timing.total_seconds() * p_fpga * 1e3;
    assert!((stats.energy_mj - implied_energy).abs() < 1e-9);
}

#[test]
fn pipeline_is_deterministic_for_a_seed() {
    let run = |seed: u64| {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (48, 40),
            levels: 3,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: seed,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        let out = pipe.step().unwrap();
        out.image
    };
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b, "same seed, same fused frame");
    assert!(a.max_abs_diff(&c) > 1e-4, "different seed, different frame");
}

#[test]
fn manual_capture_path_equals_camera_shortcut() {
    // Decoding the camera's own BT.656 stream by hand must give the same
    // frame the camera's capture() returns.
    let scene = ScenePair::new(5);
    let mut cam_a = ThermalCamera::new(scene.clone(), 88, 72);
    let mut cam_b = ThermalCamera::new(scene, 88, 72);

    let stream = cam_a.next_field_stream();
    let (fw, fh) = THERMAL_FIELD_DIMS;
    let raw = bt656::decode(&stream, fw, fh).unwrap();
    let gray = raw.to_gray(0);
    let manual = resize_bilinear(gray.image(), 88, 72).unwrap();

    let auto = cam_b.capture().unwrap();
    assert_eq!(manual, *auto.image());
}

#[test]
fn adaptive_pipeline_reacts_to_frame_size() {
    for ((w, h), expect_fpga) in [((88, 72), true), ((32, 24), false)] {
        let mut pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: (w, h),
            levels: 3,
            backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
                Policy::Model(Objective::Energy),
                3,
            ))),
            scene_seed: 1,
            threads: 1,
            depth: 1,
        })
        .unwrap();
        let stats = pipe.run(3).unwrap();
        if expect_fpga {
            assert_eq!(
                stats.backend_usage[Backend::Fpga],
                3,
                "{w}x{h} should use the FPGA"
            );
        } else {
            assert_eq!(
                stats.backend_usage[Backend::Neon],
                3,
                "{w}x{h} should use NEON"
            );
        }
    }
}

#[test]
fn online_policy_converges_in_the_pipeline() {
    // The online scheduler explores both accelerators, then settles on the
    // right one for the size.
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Adaptive(Box::new(AdaptiveScheduler::new(
            Policy::Online(Objective::Time),
            3,
        ))),
        scene_seed: 2,
        threads: 1,
        depth: 1,
    })
    .unwrap();
    let stats = pipe.run(6).unwrap();
    // One exploration frame each, then four exploitation frames on FPGA.
    assert_eq!(
        stats.backend_usage[Backend::Neon],
        1,
        "one NEON exploration"
    );
    assert_eq!(stats.backend_usage[Backend::Fpga], 5, "FPGA wins at 88x72");
}

#[test]
fn fused_stream_tracks_the_moving_body() {
    // Over time the warm body moves; the fused video must move with it.
    let mut pipe = VideoFusionPipeline::new(PipelineConfig {
        frame_size: (64, 48),
        levels: 2,
        backend: BackendChoice::Fixed(Backend::Neon),
        scene_seed: 11,
        threads: 1,
        depth: 1,
    })
    .unwrap();
    let first = pipe.step().unwrap().image;
    for _ in 0..30 {
        pipe.step().unwrap();
    }
    let later = pipe.step().unwrap().image;
    assert!(
        first.max_abs_diff(&later) > 0.05,
        "scene motion must appear in the fused stream"
    );
}
