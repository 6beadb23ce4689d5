//! Fleet backpressure: oversubscribing the shared ring must degrade by
//! dropping the oldest frames — never by deadlocking, losing accounting,
//! or charging a drop to the wrong stream.

use wavefuse_core::serve::{solo_digest, FleetConfig, StreamConfig, StreamManager};

const ROUNDS: usize = 6;

#[test]
fn oversubscribed_fleet_never_deadlocks_and_accounts_every_frame() {
    // Twelve pipelined streams against a fleet cap of four keeps the ring
    // permanently oversubscribed: every round must still terminate, and
    // every captured frame must show up as exactly one delivery or one
    // drop on its own stream.
    for threads in [1, 2, 4] {
        let mut mgr = StreamManager::new(FleetConfig {
            threads,
            max_in_flight: Some(4),
            ..FleetConfig::default()
        });
        for s in 0..12 {
            mgr.admit(StreamConfig {
                frame_size: if s % 3 == 0 { (64, 48) } else { (48, 40) },
                depth: 2,
                scene_seed: s as u64,
                ..StreamConfig::default()
            })
            .unwrap();
        }
        let report = mgr.run(ROUNDS).unwrap();
        assert!(
            report.total_drops > 0,
            "a 24-deep demand against a cap of 4 must force drops ({threads} threads)"
        );
        let mut frames = 0;
        let mut drops = 0;
        for s in &report.per_stream {
            assert_eq!(
                s.frames + s.drops,
                ROUNDS as u64,
                "stream {}: every captured frame is delivered or dropped",
                s.stream
            );
            assert_eq!(s.frames, mgr.stream_frames(s.stream));
            assert_eq!(s.drops, mgr.stream_drops(s.stream));
            frames += s.frames;
            drops += s.drops;
        }
        assert_eq!(frames, report.total_frames);
        assert_eq!(drops, report.total_drops);
        assert_eq!(frames + drops, (12 * ROUNDS) as u64);
    }
}

#[test]
fn drops_land_on_the_stream_holding_the_oldest_frames() {
    // One deep stream (depth 4) next to two shallow ones under a cap of 3:
    // the shallow streams retire their single pending frame before each
    // capture, so the globally oldest pending frame — the eviction victim —
    // always belongs to the deep stream. Its neighbors must come through
    // drop-free and bit-identical to running alone.
    for threads in [1, 2, 4] {
        let mut mgr = StreamManager::new(FleetConfig {
            threads,
            max_in_flight: Some(3),
            ..FleetConfig::default()
        });
        mgr.set_digests(true);
        let deep = mgr
            .admit(StreamConfig {
                depth: 4,
                scene_seed: 100,
                ..StreamConfig::default()
            })
            .unwrap();
        let shallow: Vec<StreamConfig> = (0..2)
            .map(|s| StreamConfig {
                scene_seed: 200 + s,
                ..StreamConfig::default()
            })
            .collect();
        let shallow_ids: Vec<usize> = shallow.iter().map(|cfg| mgr.admit(*cfg).unwrap()).collect();

        let report = mgr.run(ROUNDS).unwrap();
        assert!(
            mgr.stream_drops(deep) > 0,
            "the deep stream owns the oldest frames ({threads} threads)"
        );
        assert_eq!(
            mgr.stream_frames(deep) + mgr.stream_drops(deep),
            ROUNDS as u64
        );
        for (cfg, &id) in shallow.iter().zip(&shallow_ids) {
            assert_eq!(mgr.stream_drops(id), 0, "shallow stream {id} dropped");
            assert_eq!(mgr.stream_frames(id), ROUNDS as u64);
            assert_eq!(
                mgr.stream_digest(id),
                solo_digest(cfg, true, ROUNDS).unwrap(),
                "stream {id} pixels changed under a neighbor's backpressure"
            );
        }
        assert_eq!(report.total_drops, mgr.stream_drops(deep));
    }
}

#[test]
fn uncapped_fleet_reports_no_drops() {
    // Without a fleet cap the per-stream depth is the only backpressure:
    // nothing is ever dropped, whatever the oversubscription.
    let mut mgr = StreamManager::new(FleetConfig {
        threads: 2,
        ..FleetConfig::default()
    });
    for s in 0..8 {
        mgr.admit(StreamConfig {
            depth: 1 + (s % 3),
            scene_seed: s as u64,
            ..StreamConfig::default()
        })
        .unwrap();
    }
    let report = mgr.run(ROUNDS).unwrap();
    assert_eq!(report.total_drops, 0);
    assert_eq!(report.total_frames, (8 * ROUNDS) as u64);
}
