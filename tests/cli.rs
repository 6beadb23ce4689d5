//! End-user tests of the `wavefuse` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn wavefuse() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wavefuse"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wavefuse-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&p).expect("temp dir");
    p
}

#[test]
fn demo_fuse_round_trip() {
    let dir = tmp_dir("roundtrip");
    // 1. demo produces frame triples.
    let out = wavefuse()
        .args([
            "demo",
            "-o",
            dir.to_str().unwrap(),
            "--frames",
            "2",
            "--size",
            "48x40",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let vis = dir.join("demo_000_visible.pgm");
    let ir = dir.join("demo_000_thermal.pgm");
    assert!(vis.exists() && ir.exists());

    // 2. fuse them on every backend spelling.
    for backend in ["arm", "neon", "fpga", "auto"] {
        let fused = dir.join(format!("fused_{backend}.pgm"));
        let out = wavefuse()
            .args([
                "fuse",
                vis.to_str().unwrap(),
                ir.to_str().unwrap(),
                "-o",
                fused.to_str().unwrap(),
                "--backend",
                backend,
                "--rule",
                "activity",
            ])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(fused.exists());
    }

    // The fused PGM parses and matches the source geometry.
    let img = wavefuse_video::pgm::read_pgm(dir.join("fused_auto.pgm")).expect("valid pgm");
    assert_eq!(img.dims(), (48, 40));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    // No arguments: usage + exit code 2.
    let out = wavefuse().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown commands, including the removed `denoise`.
    let out = wavefuse().arg("explode").output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let out = wavefuse()
        .args(["denoise", "x.pgm", "-o", "y.pgm"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");

    // Missing input file.
    let out = wavefuse()
        .args([
            "fuse",
            "/nonexistent/a.pgm",
            "/nonexistent/b.pgm",
            "-o",
            "/tmp/x.pgm",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());

    // Bad backend names: an unknown one, and the row-split backend that
    // is no longer offered. Both list the backends that are.
    let dir = tmp_dir("badargs");
    let img = dir.join("a.pgm");
    wavefuse_video::pgm::write_pgm(&wavefuse_dtcwt::Image::filled(16, 16, 0.5), &img).unwrap();
    for backend in ["gpu", "hybrid"] {
        let out = wavefuse()
            .args([
                "fuse",
                img.to_str().unwrap(),
                img.to_str().unwrap(),
                "-o",
                dir.join("o.pgm").to_str().unwrap(),
                "--backend",
                backend,
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{backend}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown backend"), "{backend}: {stderr}");
        assert!(stderr.contains("arm|neon|fpga|auto"), "{backend}: {stderr}");
    }

    // A header whose width * height overflows: an error, not a panic.
    let huge = dir.join("huge.pgm");
    std::fs::write(&huge, b"P5\n4294967296 4294967296\n255\n").unwrap();
    let out = wavefuse()
        .args([
            "fuse",
            huge.to_str().unwrap(),
            huge.to_str().unwrap(),
            "-o",
            dir.join("o.pgm").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pgm:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_mismatched_inputs_and_depths() {
    let dir = tmp_dir("mismatch");
    let a = dir.join("a.pgm");
    let b = dir.join("b.pgm");
    wavefuse_video::pgm::write_pgm(&wavefuse_dtcwt::Image::filled(16, 16, 0.5), &a).unwrap();
    wavefuse_video::pgm::write_pgm(&wavefuse_dtcwt::Image::filled(24, 16, 0.5), &b).unwrap();
    let out = wavefuse()
        .args([
            "fuse",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "-o",
            dir.join("o.pgm").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("differ in size"));

    // Unsupportable decomposition depth for a tiny image.
    let out = wavefuse()
        .args([
            "fuse",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "-o",
            dir.join("o.pgm").to_str().unwrap(),
            "--levels",
            "9",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--levels"));
    std::fs::remove_dir_all(&dir).ok();
}
