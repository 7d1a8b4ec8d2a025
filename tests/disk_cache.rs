//! End-to-end behavior of [`DiskCacheSession`] against its own process'
//! global memo caches. A single #[test] keeps the global cache counters
//! deterministic (integration-test binaries get a fresh process, so the
//! caches start empty here regardless of what other test binaries do).

use std::fs;
use std::path::{Path, PathBuf};

use fusecu::pipeline::{validate_buffer_sweep_with, DiskCacheSession};
use fusecu::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("disk-cache").join(name);
    // The tmp dir persists across `cargo test` invocations; start fresh so
    // the cold-start assertions below hold on reruns too.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn session_lifecycle_cold_save_and_recovery() {
    let dir = tmp("session");

    // Cold start: nothing on disk yet.
    let mut session = DiskCacheSession::at(dir.clone());
    assert_eq!(session.loaded(), 0);

    // Touch every cache the session persists: the sweep fills the
    // dataflow cache, the platform comparison fills the operator,
    // fused-pair, and chain-plan caches.
    let mm = MatMul::new(512, 384, 384);
    let points = validate_buffer_sweep_with(mm, &[64 * 1024, 512 * 1024], Parallelism::Serial);
    assert_eq!(points.len(), 2);
    let row = compare_platforms(&zoo::blenderbot());
    assert!(row.speedup(Platform::FuseCu, Platform::Tpuv4i) > 1.0);

    let saved = session.flush().unwrap();
    assert!(saved > 0, "a non-trivial run must persist entries");
    assert_eq!(session.flush().unwrap(), 0, "nothing grew since the last flush");
    for file in ["dataflow.cache", "operators.cache", "plans.cache"] {
        let text = fs::read_to_string(dir.join(file)).unwrap();
        assert!(text.starts_with("fusecu-cache v1\n"), "{file} lacks the magic");
        assert!(text.contains("fingerprint "), "{file} lacks a fingerprint");
    }
    let summary = session.summary();
    assert!(summary.contains("overall hit rate"), "summary: {summary}");
    assert!(summary.contains(&format!("{}", dir.display())));

    // A second session over the same directory re-reads the files; every
    // entry already lives in this process' caches, so nothing new is
    // inserted — and nothing errors.
    let warm = DiskCacheSession::at(dir.clone());
    assert_eq!(warm.loaded(), 0);

    // Corrupt and stale files are cold starts, not errors.
    let dataflow = dir.join("dataflow.cache");
    let good = fs::read_to_string(&dataflow).unwrap();
    fs::write(&dataflow, good.replacen("fingerprint ", "fingerprint stale-", 1)).unwrap();
    let stale = DiskCacheSession::at(dir.clone());
    assert_eq!(stale.loaded(), 0);
    fs::write(&dataflow, "garbage\n").unwrap();
    let corrupt = DiskCacheSession::at(dir.clone());
    assert_eq!(corrupt.loaded(), 0);

    // A disabled session never touches the disk.
    let mut off = DiskCacheSession::disabled();
    assert_eq!(off.loaded(), 0);
    assert_eq!(off.flush().unwrap(), 0);
    assert!(off.summary().contains("disabled"));
    assert!(off.summary().contains("overall hit rate"));
}
