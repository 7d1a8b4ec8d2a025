//! A damaged cache file cold-starts alone. The four cache files of one
//! real run are written once; then each case flips one bit of one file,
//! or truncates it, and preloads the directory into emptied process
//! caches. Loading must never panic, the damaged file must preload
//! nothing, and every other file must preload exactly what it holds.
//!
//! Sections that share a file share its checksum, so a file is the unit
//! that cold-starts. The memo caches are process-wide, so this binary
//! holds only this property.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use fusecu::pipeline::{compare_platforms, validate_buffer_sweep_with, DiskCacheSession};
use fusecu::prelude::*;
use fusecu_search::cache::{cache_files, caches};
use proptest::prelude::*;

fn clear_caches() {
    for c in caches() {
        c.section.clear();
    }
}

/// The registry's files in load order, with the entries their caches
/// hold now.
fn file_entries() -> Vec<(&'static str, usize)> {
    cache_files(caches())
        .map(|(store, sections)| {
            let entries = sections.iter().map(|s| s.counters().entries).sum();
            (store.file, entries)
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cache-corruption")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real run's cache files, in load order: each file's name, bytes
/// and the entries it preloads into empty caches.
fn written() -> &'static [(&'static str, Vec<u8>, usize)] {
    static FILES: OnceLock<Vec<(&'static str, Vec<u8>, usize)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = tmp("intact");
        let mut session = DiskCacheSession::at(dir.clone());
        let mm = MatMul::new(256, 192, 192);
        validate_buffer_sweep_with(mm, &[16 * 1024], Parallelism::Serial);
        compare_platforms(&zoo::blenderbot());
        session.flush().unwrap();
        drop(session);

        // The planner digest has run by now, and a process runs it once,
        // so a preload into emptied caches is all that fills them.
        clear_caches();
        let session = DiskCacheSession::at(dir.clone());
        let counts = file_entries();
        assert_eq!(session.loaded(), counts.iter().map(|(_, n)| n).sum::<usize>());
        counts
            .into_iter()
            .map(|(file, entries)| {
                assert!(entries > 0, "{file} holds no entries");
                (file, fs::read(dir.join(file)).unwrap(), entries)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_damaged_file_cold_starts_alone(
        damaged in 0usize..4,
        offset in any::<usize>(),
        truncate in any::<bool>(),
        bit in 0u32..8,
    ) {
        let files = written();
        let dir = tmp("case");
        for (i, (file, bytes, _)) in files.iter().enumerate() {
            let mut bytes = bytes.clone();
            if i == damaged {
                let at = offset % bytes.len();
                if truncate {
                    bytes.truncate(at);
                } else {
                    bytes[at] ^= 1 << bit;
                }
            }
            fs::write(dir.join(file), bytes).unwrap();
        }

        clear_caches();
        let session = DiskCacheSession::at(dir);
        let want: Vec<(&str, usize)> = files
            .iter()
            .enumerate()
            .map(|(i, (file, _, entries))| (*file, if i == damaged { 0 } else { *entries }))
            .collect();
        prop_assert_eq!(file_entries(), want.clone());
        prop_assert_eq!(session.loaded(), want.iter().map(|(_, n)| n).sum::<usize>());
    }
}
