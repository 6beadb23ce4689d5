//! Bit-identity of the vectorized fusion stage.
//!
//! The fusion fold-order contract (see `wavefuse_dtcwt::fuse`) promises
//! that evaluating a subband with the SIMD kernel's `fuse_strip`
//! reproduces the serial scalar reference bit for bit: the horizontal and
//! vertical window-energy folds are seeded and ordered identically, and
//! the vector lanes evaluate exactly the scalar expression tree. Every
//! frame fuses on the engine's dispatcher thread through
//! `fuse_pyramids_with_kernel`. These tests pin that promise at every
//! layer — the kernels themselves, the engine's pooled path, depth-k
//! pipelining, and the shared-fleet serving path — across rules, window
//! radii, thread counts and frame sizes, including odd geometries.

use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::rules::{
    fuse_pyramids_into, fuse_pyramids_with_kernel, FusionScratch, LowpassRule,
};
use wavefuse_core::serve::{solo_digest, FleetConfig, StreamConfig, StreamManager};
use wavefuse_core::{Backend, FusionEngine, FusionRule};
use wavefuse_dtcwt::{CwtPyramid, Dtcwt, Dwt2d, FilterKernel, Image, ScalarKernel};
use wavefuse_simd::SimdKernel;

/// Every fusion rule the kernels must reproduce, across window radii.
const RULES: [FusionRule; 6] = [
    FusionRule::MaxMagnitude,
    FusionRule::WindowEnergy { radius: 1 },
    FusionRule::WindowEnergy { radius: 2 },
    FusionRule::WindowEnergy { radius: 3 },
    FusionRule::Weighted { alpha: 0.25 },
    FusionRule::ActivityGuided {
        radius: 2,
        match_threshold: 0.75,
    },
];

fn inputs(w: usize, h: usize) -> (Image, Image) {
    (
        Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 101) as f32 * 0.013 - 0.5),
        Image::from_fn(w, h, |x, y| ((x * 13 + y * 29) % 97) as f32 * 0.017 - 0.6),
    )
}

fn pyramids(w: usize, h: usize, levels: usize) -> (CwtPyramid, CwtPyramid) {
    let (ia, ib) = inputs(w, h);
    let t = Dtcwt::new(levels).expect("levels supported");
    let mut k = SimdKernel::new();
    let a = t.forward_with(&mut k, &ia).expect("forward a");
    let b = t.forward_with(&mut k, &ib).expect("forward b");
    (a, b)
}

fn assert_subbands_bit_identical(a: &CwtPyramid, b: &CwtPyramid, what: &str) {
    for level in 0..a.levels() {
        for (i, (x, y)) in a.subbands(level).iter().zip(b.subbands(level)).enumerate() {
            assert_eq!(x.re, y.re, "{what}: level {level} band {i} re diverged");
            assert_eq!(x.im, y.im, "{what}: level {level} band {i} im diverged");
        }
    }
    assert_eq!(a.lowpass(), b.lowpass(), "{what}: lowpass diverged");
}

/// The SIMD and scalar kernels' fusion reproduces the serial scalar
/// reference bit for bit, for every rule and radius, on even and odd
/// subband geometries.
#[test]
fn kernel_fusion_matches_scalar_reference_across_rules_and_geometries() {
    for (w, h) in [(88, 72), (96, 80), (50, 38)] {
        let (a, b) = pyramids(w, h, 3.min(Dwt2d::max_levels(w, h)));
        let mut scratch = FusionScratch::new();
        let mut reference = CwtPyramid::empty();
        let mut fused = CwtPyramid::empty();
        for rule in RULES {
            fuse_pyramids_into(
                &a,
                &b,
                rule,
                LowpassRule::Average,
                &mut scratch,
                &mut reference,
            );
            let kernels: [(&str, Box<dyn FilterKernel>); 2] = [
                ("simd", Box::new(SimdKernel::new())),
                ("scalar", Box::new(ScalarKernel::new())),
            ];
            for (name, mut kernel) in kernels {
                fuse_pyramids_with_kernel(
                    kernel.as_mut(),
                    &a,
                    &b,
                    rule,
                    LowpassRule::Average,
                    &mut scratch,
                    &mut fused,
                );
                assert_subbands_bit_identical(
                    &reference,
                    &fused,
                    &format!("{w}x{h} {rule:?} {name}"),
                );
            }
        }
    }
}

/// The engine's pooled path (transforms on the worker ring, fusion on the
/// dispatcher) produces the same fused frame as the serial engine.
#[test]
fn pooled_engine_fusion_is_bit_identical_to_serial() {
    let (ia, ib) = inputs(88, 72);
    for rule in RULES {
        for backend in [Backend::Neon, Backend::Arm] {
            let mut serial =
                FusionEngine::with_rules(3, rule, LowpassRule::Average).expect("engine");
            let reference = serial.fuse(&ia, &ib, backend).expect("serial fuse");
            for threads in [2usize, 4] {
                let mut pooled =
                    FusionEngine::with_rules(3, rule, LowpassRule::Average).expect("engine");
                pooled.set_threads(threads);
                let out = pooled.fuse(&ia, &ib, backend).expect("pooled fuse");
                assert_eq!(
                    reference.image, out.image,
                    "{rule:?} on {backend:?} with {threads} threads diverged from serial"
                );
            }
        }
    }
}

fn pipeline(threads: usize, depth: usize) -> VideoFusionPipeline {
    VideoFusionPipeline::new(PipelineConfig {
        frame_size: (88, 72),
        levels: 3,
        backend: BackendChoice::Fixed(Backend::Neon),
        scene_seed: 2016,
        threads,
        depth,
    })
    .expect("default geometry supports three levels")
}

/// Depth-k pipelining fuses each frame on the dispatcher between the
/// stashed inverses of older frames and its own inverse batch; the
/// delivered frame stream must stay bit-identical to the serial pipeline
/// under every rule.
#[test]
fn depth_k_pipelined_fusion_is_bit_identical_to_serial() {
    for rule in [
        FusionRule::MaxMagnitude,
        FusionRule::WindowEnergy { radius: 2 },
    ] {
        let mut serial = pipeline(1, 1);
        serial.engine_mut().set_rule(rule);
        let reference: Vec<Image> = (0..6).map(|_| serial.step().expect("step").image).collect();
        for (threads, depth) in [(2usize, 1usize), (2, 2), (4, 3)] {
            let mut piped = pipeline(threads, depth);
            piped.engine_mut().set_rule(rule);
            for (i, want) in reference.iter().enumerate() {
                let got = piped.step().expect("piped step");
                assert_eq!(
                    want, &got.image,
                    "{rule:?} threads={threads} depth={depth} frame {i} diverged"
                );
                piped.recycle(got);
            }
        }
    }
}

/// Fleet engines share one ring, interleaving their transform batches,
/// and fuse with the vectorized kernel on the dispatcher — and must still
/// match the solo serial reference digest.
#[test]
fn serve_fleet_fusion_is_bit_identical_to_solo() {
    let configs: Vec<StreamConfig> = (0..3)
        .map(|s| StreamConfig {
            frame_size: if s == 1 { (64, 48) } else { (88, 72) },
            scene_seed: 4000 + s,
            ..StreamConfig::default()
        })
        .collect();
    let mut mgr = StreamManager::new(FleetConfig {
        threads: 2,
        ..FleetConfig::default()
    });
    mgr.set_digests(true);
    for cfg in &configs {
        mgr.admit(*cfg).unwrap();
    }
    let report = mgr.run(5).expect("serve window");
    assert_eq!(report.total_drops, 0);
    for (i, cfg) in configs.iter().enumerate() {
        assert_eq!(
            mgr.stream_digest(i),
            solo_digest(cfg, true, 5).unwrap(),
            "stream {i} diverged from its solo run"
        );
    }
}
