//! The benchmark's own tests: runs of one seed agree bit for bit, seeds
//! change the inputs, and a tiny run prints every metric `BENCHMARK.json`
//! names.

use wavebench::check::bit_equal;
use wavebench::stats::mean;
use wavebench::workloads::{self, adaptive_inputs, check, fleet_streams, vga_config};
use wavebench::{Params, Workload, END_TO_END, LEVELS, PER_LAYER};
use wavefuse_core::pipeline::VideoFusionPipeline;
use wavefuse_core::{Backend, FusionEngine};
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;

fn tiny(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.2,
        trace,
        tiny: true,
    }
}

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn section_names(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = next.map_or(json.len(), |n| {
        json.find(&format!("\"{n}\"")).expect("next section")
    });
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_benchmark_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        section_names(&json, "end_to_end", Some("per_layer")),
        names(&END_TO_END)
    );
    assert_eq!(section_names(&json, "per_layer", None), names(&PER_LAYER));
    let listed = section_names(&json, "workloads", Some("end_to_end"));
    assert!(listed.len() >= 2);
    assert!(
        listed.iter().all(|n| Workload::parse(n).is_some()),
        "{listed:?}"
    );
}

#[test]
fn same_seed_gives_identical_digests_modeled_metrics_and_qabf() {
    for w in Workload::ALL {
        let a = check(w, &tiny(5, false)).unwrap();
        let b = check(w, &tiny(5, false)).unwrap();
        assert_eq!(a.failed, 0, "{}: {:?}", w.name(), a.problems);
        assert!(a.problems.is_empty(), "{}: {:?}", w.name(), a.problems);
        assert!(!a.digests.is_empty());
        assert_eq!(a.digests, b.digests, "{}", w.name());
        assert_eq!(
            a.model_mj_per_frame.to_bits(),
            b.model_mj_per_frame.to_bits()
        );
        assert_eq!(a.model_s_per_frame.to_bits(), b.model_s_per_frame.to_bits());
        assert_eq!(mean(&a.qabf).to_bits(), mean(&b.qabf).to_bits());
        assert!(a.model_mj_per_frame > 0.0 && a.model_s_per_frame > 0.0);
    }
}

#[test]
fn different_seeds_give_different_inputs_and_outputs() {
    assert_ne!(adaptive_inputs(1, 5), adaptive_inputs(2, 5));
    let seeds = |seed| -> Vec<u64> {
        fleet_streams(Workload::ServeMixed16, seed, false)
            .iter()
            .map(|s| s.scene_seed)
            .collect()
    };
    let (one, two) = (seeds(1), seeds(2));
    assert_eq!(one.len(), 16);
    assert!(one.iter().all(|s| !two.contains(s)), "{one:?} vs {two:?}");
    for w in Workload::ALL {
        let a = check(w, &tiny(1, false)).unwrap();
        let b = check(w, &tiny(2, false)).unwrap();
        assert!(
            a.digests.iter().all(|d| !b.digests.contains(d)),
            "{}: a seed change must change every delivered frame",
            w.name()
        );
    }
}

#[test]
fn replayed_cameras_feed_the_pipeline_the_frames_qabf_is_scored_on() {
    let cfg = vga_config(3, true, 1, 1);
    let (w, h) = cfg.frame_size;
    let mut pipe = VideoFusionPipeline::new(cfg).unwrap();
    let scene = ScenePair::new(3);
    let mut thermal = ThermalCamera::new(scene.clone(), w, h);
    let mut web = WebCamera::new(scene, w, h);
    let (mut vis, mut th) = (Frame::filled(0, 0, 0.0), Frame::filled(0, 0, 0.0));
    let mut engine = FusionEngine::new(LEVELS).unwrap();
    for _ in 0..3 {
        thermal.capture_into(&mut th).unwrap();
        web.capture_into(&mut vis);
        let replayed = engine.fuse(vis.image(), th.image(), Backend::Neon).unwrap();
        let delivered = pipe.step().unwrap();
        assert!(bit_equal(&replayed.image, &delivered.image));
    }
}

#[test]
fn tiny_runs_print_every_named_metric() {
    for w in Workload::ALL {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = workloads::run(w, &tiny(7, trace)).unwrap();
            assert!(out.correct(), "{} trace {trace}: {}", w.name(), out.table());
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{} trace {trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                assert_eq!(
                    Some(m.unit),
                    expected.iter().find(|(n, _)| *n == m.name).map(|(_, u)| *u)
                );
            }
            let json = out.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for name in &want {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
            }
            let table = out.table();
            assert!(table.contains("error_rate"), "{table}");
        }
    }
}
