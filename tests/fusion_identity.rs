//! Bit-identity of the strip-parallel, vectorized fusion stage.
//!
//! The fusion fold-order contract (see `wavefuse_dtcwt::fuse`) promises
//! that splitting a subband into row strips, fanning them out across the
//! work-stealing ring, and evaluating each strip with the SIMD kernel
//! reproduces the serial scalar reference bit for bit: the horizontal
//! and vertical window-energy folds are seeded and ordered identically,
//! and the vector lanes evaluate exactly the scalar expression tree.
//! These tests pin that promise at every layer — raw strip jobs on a
//! pool, the engine's pooled fusion path, depth-k pipelining, and the
//! shared-fleet serving path — across rules, window radii, thread
//! counts, strip widths and frame sizes.

use std::sync::Arc;

use wavefuse_core::engine::build_worker_pool;
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::rules::{fuse_pyramids_into, FusionScratch, LowpassRule};
use wavefuse_core::serve::{solo_digest, FleetConfig, StreamConfig, StreamManager};
use wavefuse_core::{Backend, FusionEngine, FusionRule};
use wavefuse_dtcwt::{CwtPyramid, Dtcwt, Dwt2d, Image, Job, JobOutcome, JobPayload};
use wavefuse_simd::SimdKernel;

/// Every fusion rule the strips must reproduce, across window radii.
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

fn pyramids(w: usize, h: usize, levels: usize) -> (Arc<CwtPyramid>, Arc<CwtPyramid>) {
    let (ia, ib) = inputs(w, h);
    let t = Dtcwt::new(levels).expect("levels supported");
    let mut k = SimdKernel::new();
    let a = t.forward_with(&mut k, &ia).expect("forward a");
    let b = t.forward_with(&mut k, &ib).expect("forward b");
    (Arc::new(a), Arc::new(b))
}

/// Fuses `a`/`b` by submitting one `FuseStrip` job per `rows`-row strip
/// to `pool` (kernel slot 1 = SIMD) and assembling the outcomes, exactly
/// like the engine's pooled fusion dispatcher. Strips of one band are
/// submitted and drained together, so any `rows` works regardless of the
/// 64-slot ring capacity.
fn fuse_via_strips(
    pool: &wavefuse_dtcwt::WorkerPool,
    a: &Arc<CwtPyramid>,
    b: &Arc<CwtPyramid>,
    rule: FusionRule,
    rows: usize,
    fused: &mut CwtPyramid,
) -> usize {
    fused.reshape_like(a);
    let op = rule.to_op();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut total = 0;
    for level in 0..a.levels() {
        for band in 0..a.subbands(level).len() {
            let h = a.subbands(level)[band].re.height();
            let mut submitted = 0;
            let mut y0 = 0;
            while y0 < h {
                let y1 = (y0 + rows.max(1)).min(h);
                pool.submit(Job::FuseStrip {
                    a: Arc::clone(a),
                    b: Arc::clone(b),
                    tag: 7,
                    strip: submitted,
                    level,
                    band,
                    kernel: 1,
                    y0,
                    y1,
                    op,
                    re: Image::zeros(0, 0),
                    im: Image::zeros(0, 0),
                });
                submitted += 1;
                y0 = y1;
            }
            outcomes.clear();
            assert!(
                pool.drain(submitted, &mut outcomes).is_none(),
                "strip job failed"
            );
            total += submitted;
            for o in outcomes.drain(..) {
                let JobPayload::FuseStrip { y0, re, im } = o.payload else {
                    panic!("unexpected payload");
                };
                let sb = &mut fused.subbands_mut(level)[band];
                for yy in 0..re.height() {
                    sb.re.row_mut(y0 + yy).copy_from_slice(re.row(yy));
                    sb.im.row_mut(y0 + yy).copy_from_slice(im.row(yy));
                }
            }
        }
    }
    total
}

fn assert_subbands_bit_identical(a: &CwtPyramid, b: &CwtPyramid, what: &str) {
    for level in 0..a.levels() {
        for (i, (x, y)) in a.subbands(level).iter().zip(b.subbands(level)).enumerate() {
            assert_eq!(x.re, y.re, "{what}: level {level} band {i} re diverged");
            assert_eq!(x.im, y.im, "{what}: level {level} band {i} im diverged");
        }
    }
}

/// Raw strip jobs across the ring reproduce the serial scalar reference
/// bit for bit, for every rule, radius, thread count, strip width and a
/// mix of even/odd subband geometries.
#[test]
fn strip_jobs_match_scalar_reference_across_rules_threads_and_strip_widths() {
    for (w, h) in [(88, 72), (96, 80), (50, 38)] {
        let (a, b) = pyramids(w, h, 3.min(Dwt2d::max_levels(w, h)));
        let mut scratch = FusionScratch::new();
        let mut reference = CwtPyramid::empty();
        let mut strip_fused = CwtPyramid::empty();
        for rule in RULES {
            fuse_pyramids_into(
                &a,
                &b,
                rule,
                LowpassRule::Average,
                &mut scratch,
                &mut reference,
            );
            for threads in [1usize, 2, 4] {
                let pool = build_worker_pool(threads, true);
                for rows in [1usize, 3, 8, usize::MAX] {
                    let n = fuse_via_strips(&pool, &a, &b, rule, rows, &mut strip_fused);
                    assert!(n > 0);
                    assert_subbands_bit_identical(
                        &reference,
                        &strip_fused,
                        &format!("{w}x{h} {rule:?} threads={threads} rows={rows}"),
                    );
                }
            }
        }
    }
}

/// The engine's pooled fusion path (strip-parallel, SIMD) produces the
/// same fused frame as the serial engine, which fuses on the dispatcher
/// thread — and actually fans out strips when pooled.
#[test]
fn pooled_engine_fusion_is_bit_identical_to_serial() {
    let (ia, ib) = inputs(88, 72);
    for rule in RULES {
        for backend in [Backend::Neon, Backend::Arm] {
            let mut serial =
                FusionEngine::with_rules(3, rule, LowpassRule::Average).expect("engine");
            let reference = serial.fuse(&ia, &ib, backend).expect("serial fuse");
            assert_eq!(
                reference.fusion_strips, 0,
                "serial fusion must not fan out strips"
            );
            for threads in [2usize, 4] {
                let mut pooled =
                    FusionEngine::with_rules(3, rule, LowpassRule::Average).expect("engine");
                pooled.set_threads(threads);
                let out = pooled.fuse(&ia, &ib, backend).expect("pooled fuse");
                assert!(
                    out.fusion_strips > 0,
                    "{backend:?} threads={threads}: pooled fusion should run as strips"
                );
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

/// Depth-k pipelining routes fusion through the same strip path between
/// the stashed inverses and the next forward batch; the delivered frame
/// stream must stay bit-identical to the serial pipeline under every
/// rule.
#[test]
fn depth_k_strip_fusion_is_bit_identical_to_serial() {
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
            // The pooled pipeline really took the strip path.
            assert!(
                piped.flight_recorder().iter().any(|r| r.fusion_strips > 0),
                "threads={threads} depth={depth}: no frame fused via strips"
            );
        }
    }
}

/// A fleet-shared ring cannot host fusion waves (other streams' jobs are
/// interleaved), so fleet engines fuse with the vectorized kernel on the
/// dispatcher — and must still match the solo serial reference digest.
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
