//! Cross-stream bit-identity: sharing the fleet must never change pixels.
//!
//! The serving layer packs many streams' jobs into one worker ring, but
//! every stream's forward/fuse/inverse arithmetic is confined to its own
//! engine's buffers and the combo-order accumulation is schedule-invariant,
//! so each stream's delivered pixel stream must be byte-identical to fusing
//! the same deterministic source alone on a serial engine — for every
//! fleet thread count, for mixed geometries, and regardless of which other
//! streams share the ring.

use wavefuse_core::serve::{
    solo_digest, FleetConfig, ServeReport, StreamBackend, StreamConfig, StreamManager, PACK_STREAMS,
};
use wavefuse_core::Backend;

const FRAMES: usize = 6;

/// Runs a fleet over `configs` and asserts every stream's digest equals
/// its solo (serial, pool-free) reference.
fn assert_fleet_matches_solo(threads: usize, configs: &[StreamConfig]) -> ServeReport {
    let mut mgr = StreamManager::new(FleetConfig {
        threads,
        ..FleetConfig::default()
    });
    mgr.set_digests(true);
    for cfg in configs {
        mgr.admit(*cfg).unwrap();
    }
    let report = mgr.run(FRAMES).unwrap();
    assert_eq!(report.total_drops, 0, "identity runs must not drop");
    for (i, cfg) in configs.iter().enumerate() {
        assert_eq!(mgr.stream_frames(i), FRAMES as u64, "stream {i} delivered");
        let solo = solo_digest(cfg, true, FRAMES).unwrap();
        assert_eq!(
            mgr.stream_digest(i),
            solo,
            "stream {i} ({:?} {:?} seed {}) diverged from its solo run \
             on a {threads}-thread fleet",
            cfg.frame_size,
            cfg.backend,
            cfg.scene_seed
        );
    }
    report
}

/// Four same-shape NEON streams with distinct content.
fn uniform_fleet() -> Vec<StreamConfig> {
    (0..4)
        .map(|s| StreamConfig {
            scene_seed: 2016 + s,
            ..StreamConfig::default()
        })
        .collect()
}

/// Mixed geometries and mixed backends sharing one ring.
fn mixed_fleet() -> Vec<StreamConfig> {
    vec![
        StreamConfig {
            frame_size: (88, 72),
            scene_seed: 1,
            ..StreamConfig::default()
        },
        StreamConfig {
            frame_size: (64, 48),
            scene_seed: 2,
            ..StreamConfig::default()
        },
        StreamConfig {
            frame_size: (48, 40),
            backend: StreamBackend::Fixed(Backend::Arm),
            scene_seed: 3,
            ..StreamConfig::default()
        },
        StreamConfig {
            frame_size: (88, 72),
            scene_seed: 4,
            ..StreamConfig::default()
        },
    ]
}

#[test]
fn shared_fleet_is_bit_identical_to_solo_runs() {
    for threads in [1, 2, 4] {
        assert_fleet_matches_solo(threads, &uniform_fleet());
    }
}

#[test]
fn mixed_size_fleet_is_bit_identical_to_solo_runs() {
    for threads in [1, 2, 4] {
        assert_fleet_matches_solo(threads, &mixed_fleet());
    }
}

#[test]
fn auto_streams_match_solo_at_their_admitted_operating_point() {
    // Admission fuses a tight-rate `Auto` stream at fewer levels than it
    // asked for; the solo reference must fuse at that same operating
    // point. At 88x72 the 6.5-8.5 fps band is where admission steps the
    // depth down; slower rates keep every level, and faster ones fit no
    // depth and fall back to NEON at the requested levels.
    const LEVELS: usize = 5;
    let rates = [3.0, 5.0, 6.5, 6.75, 7.0, 7.5, 8.0, 8.25, 8.5, 15.0, 30.0];
    let configs: Vec<StreamConfig> = rates
        .iter()
        .enumerate()
        .map(|(i, &target_fps)| StreamConfig {
            frame_size: (88, 72),
            levels: LEVELS,
            scene_seed: 300 + i as u64,
            backend: StreamBackend::Auto { target_fps },
            ..StreamConfig::default()
        })
        .collect();
    let report = assert_fleet_matches_solo(2, &configs);
    assert!(
        report.per_stream.iter().any(|s| s.levels < LEVELS),
        "no swept rate was admitted below {LEVELS} levels: {:?}",
        report
            .per_stream
            .iter()
            .map(|s| (rates[s.stream], s.levels))
            .collect::<Vec<_>>()
    );
}

#[test]
fn fleet_packing_leaves_digests_independent_of_neighbors() {
    // A stream's pixels must not depend on who shares the ring: the same
    // stream config digests identically in a 2-stream and a 5-stream
    // fleet.
    let target = StreamConfig {
        scene_seed: 777,
        ..StreamConfig::default()
    };
    let mut small = StreamManager::new(FleetConfig {
        threads: 2,
        ..FleetConfig::default()
    });
    small.set_digests(true);
    small.admit(target).unwrap();
    small
        .admit(StreamConfig {
            scene_seed: 1,
            ..StreamConfig::default()
        })
        .unwrap();
    small.run(FRAMES).unwrap();

    let mut large = StreamManager::new(FleetConfig {
        threads: 2,
        ..FleetConfig::default()
    });
    large.set_digests(true);
    large.admit(target).unwrap();
    for s in 0..4 {
        large
            .admit(StreamConfig {
                frame_size: if s % 2 == 0 { (64, 48) } else { (88, 72) },
                scene_seed: 10 + s,
                ..StreamConfig::default()
            })
            .unwrap();
    }
    large.run(FRAMES).unwrap();

    assert_eq!(small.stream_digest(0), large.stream_digest(0));
    assert_eq!(
        small.stream_digest(0),
        solo_digest(&target, true, FRAMES).unwrap()
    );
}

#[test]
fn deep_streams_across_two_chunks_match_solo_runs() {
    // Two packing chunks, with depth-2 and depth-3 streams whose newest
    // inverses stay in flight across retirements and rounds next to
    // depth-1 streams that retire within their own round.
    let configs: Vec<StreamConfig> = (0..PACK_STREAMS + 2)
        .map(|s| StreamConfig {
            frame_size: if s % 3 == 0 { (64, 48) } else { (40, 32) },
            scene_seed: 300 + s as u64,
            depth: 1 + s % 3,
            ..StreamConfig::default()
        })
        .collect();
    for threads in [1, 2] {
        assert_fleet_matches_solo(threads, &configs);
    }
}
