//! The end-to-end evaluation pipeline behind every figure.
//!
//! * [`validate_buffer_sweep`] — Fig 9: principle-optimized memory access
//!   against the exhaustive oracle and the DAT-style genetic searcher over
//!   the 32 KiB – 32 MiB buffer range;
//! * [`compare_platforms`] — Fig 10: normalized memory access and
//!   utilization of the five platforms on one model;
//! * [`sequence_sweep`] — Fig 11: the LLaMA2 sequence-length study.
//!
//! The architecture evaluation uses the read-write partial-sum accounting
//! (spilled partials are physically read back), while Fig 9's optimizer
//! validation uses the paper's per-visit equations; both policies ride the
//! same reuse analysis.
//!
//! Every sweep fans its independent points across cores through
//! `fusecu-search`'s parallel engine and shared memo caches; the `_with`
//! variants take an explicit [`Parallelism`] (the binaries' `--serial`
//! escape hatch), and serial/parallel runs produce identical results.
//! [`DiskCacheSession`] extends the sharing across *processes*: the figure
//! binaries preload every memo cache from `target/fusecu-cache/` on
//! startup and write the completed entries back on exit, so a warm rerun
//! answers every repeated point from disk (`--no-disk-cache` opts out).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use fusecu_arch::{evaluate_graph, ArraySpec, GraphPerf, Platform};
use fusecu_dataflow::persist::{self, CacheSection};
use fusecu_dataflow::CostModel;
use fusecu_ir::MatMul;
use fusecu_models::TransformerConfig;
use fusecu_search::cache::{cache_files, caches};
use fusecu_search::{
    par_map, CacheStats, DataflowCache, Parallelism, SectionCounters, SweepEngine, SweepOutcome,
};

/// The cost model used for architecture evaluation (Fig 10/11).
pub fn evaluation_model() -> CostModel {
    CostModel::read_write()
}

/// The cost model used for optimizer validation (Fig 9), matching the
/// paper's memory-access equations.
pub fn validation_model() -> CostModel {
    CostModel::paper()
}

/// The Fig 9 buffer sweep: 32 KiB to 32 MiB in powers of two.
pub fn fig9_buffer_sizes() -> Vec<u64> {
    (15..=25).map(|p| 1u64 << p).collect()
}

/// One Fig 9 data point: memory access of the three optimizers at one
/// buffer size.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Buffer size in elements.
    pub buffer: u64,
    /// Principle-based (one-shot) memory access.
    pub principle_ma: u64,
    /// Exhaustive-search memory access and evaluation count.
    pub exhaustive: (u64, u64),
    /// Genetic-search (DAT-style) memory access and evaluation count.
    pub genetic: (u64, u64),
}

impl SweepPoint {
    /// Whether the principles met (or beat) both searchers.
    pub fn principles_optimal(&self) -> bool {
        self.principle_ma <= self.exhaustive.0 && self.principle_ma <= self.genetic.0
    }
}

/// Runs the Fig 9 validation for one matmul over a buffer sweep, fanning
/// the points across all available cores through the shared dataflow
/// cache.
///
/// # Panics
///
/// Panics if a buffer size is below the 3-element minimum.
pub fn validate_buffer_sweep(mm: MatMul, buffers: &[u64]) -> Vec<SweepPoint> {
    validate_buffer_sweep_with(mm, buffers, Parallelism::Auto)
}

/// [`validate_buffer_sweep`] with an explicit work-distribution policy
/// (the figure binaries' `--serial` escape hatch). Serial and parallel
/// runs produce identical points: the engine assigns results by item
/// index and every optimizer is deterministic.
pub fn validate_buffer_sweep_with(
    mm: MatMul,
    buffers: &[u64],
    parallelism: Parallelism,
) -> Vec<SweepPoint> {
    let engine = SweepEngine::new(validation_model()).with_parallelism(parallelism);
    engine
        .sweep(&[mm], buffers)
        .into_iter()
        .map(|o| SweepPoint {
            buffer: o.buffer,
            principle_ma: o.principle.total_ma(),
            exhaustive: (o.exhaustive.best().total_ma(), o.exhaustive.evaluations()),
            genetic: (o.genetic.best().total_ma(), o.genetic.evaluations()),
        })
        .collect()
}

/// One point of the worker-scaling study: the full Fig 9 sweep timed at a
/// fixed worker count, from a cold cache.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Wall-clock time of the sweep (timing only; excluded from the
    /// determinism digest).
    pub seconds: f64,
    /// Deterministic digest over every outcome's answers — identical
    /// across worker counts and across runs, the proof the scaling study
    /// timed the *same* computation at every point.
    pub digest: u64,
}

/// Digest of a sweep's outcomes: every answer and evaluation count, no
/// timing. Two runs computing the same sweep hash identically.
fn sweep_digest(outcomes: &[SweepOutcome]) -> u64 {
    let mut h = DefaultHasher::new();
    for o in outcomes {
        o.buffer.hash(&mut h);
        o.principle.total_ma().hash(&mut h);
        o.exhaustive.best().total_ma().hash(&mut h);
        o.exhaustive.evaluations().hash(&mut h);
        o.genetic.best().total_ma().hash(&mut h);
        o.genetic.evaluations().hash(&mut h);
    }
    h.finish()
}

/// Times the Fig 9 `(mm × buffers)` sweep at each worker count, each run
/// from its own cold [`DataflowCache`] so every point measures compute
/// rather than hits left behind by the previous point. Each per-run cache
/// is dropped with its engine when the point finishes — repeated curves
/// no longer grow the process.
///
/// # Panics
///
/// Panics if a buffer size is below the 3-element minimum.
pub fn scaling_curve(mm: MatMul, buffers: &[u64], worker_counts: &[usize]) -> Vec<ScalingPoint> {
    worker_counts
        .iter()
        .map(|&workers| {
            let cache = std::sync::Arc::new(DataflowCache::new());
            let engine = SweepEngine::new(validation_model())
                .with_parallelism(Parallelism::Threads(workers))
                .with_cache(cache);
            let t0 = Instant::now();
            let outcomes = engine.sweep(&[mm], buffers);
            let seconds = t0.elapsed().as_secs_f64();
            ScalingPoint {
                workers,
                seconds,
                digest: sweep_digest(&outcomes),
            }
        })
        .collect()
}

/// One Fig 10 row: the five platforms evaluated on one model.
#[derive(Debug, Clone)]
pub struct PlatformRow {
    /// The model evaluated.
    pub model: TransformerConfig,
    /// The architecture point.
    pub spec: ArraySpec,
    perfs: Vec<(Platform, GraphPerf)>,
}

impl PlatformRow {
    /// The evaluated performance on one platform.
    pub fn perf(&self, platform: Platform) -> &GraphPerf {
        &self
            .perfs
            .iter()
            .find(|(p, _)| *p == platform)
            .expect("all platforms evaluated")
            .1
    }

    /// Memory access normalized to TPUv4i (the Fig 10 bar heights).
    pub fn normalized_ma(&self, platform: Platform) -> f64 {
        self.perf(platform).total_ma() as f64 / self.perf(Platform::Tpuv4i).total_ma() as f64
    }

    /// Utilization (the Fig 10 line values).
    pub fn utilization(&self, platform: Platform) -> f64 {
        self.perf(platform).utilization(&self.spec)
    }

    /// Speedup of `platform` over `base`.
    pub fn speedup(&self, platform: Platform, base: Platform) -> f64 {
        self.perf(base).total_cycles() as f64 / self.perf(platform).total_cycles() as f64
    }
}

/// Evaluates one model on every platform at the paper's default
/// architecture point.
pub fn compare_platforms(model: &TransformerConfig) -> PlatformRow {
    compare_platforms_at(model, &ArraySpec::paper_default())
}

/// Evaluates one model on every platform at an explicit architecture
/// point, one platform per worker thread.
pub fn compare_platforms_at(model: &TransformerConfig, spec: &ArraySpec) -> PlatformRow {
    compare_platforms_at_with(model, spec, Parallelism::Auto)
}

/// [`compare_platforms_at`] with an explicit work-distribution policy.
pub fn compare_platforms_at_with(
    model: &TransformerConfig,
    spec: &ArraySpec,
    parallelism: Parallelism,
) -> PlatformRow {
    let cost = evaluation_model();
    let graph = model.build_graph();
    let perfs = par_map(parallelism, &Platform::ALL, |_, p| {
        (*p, evaluate_graph(spec, *p, &cost, &graph))
    });
    PlatformRow {
        model: model.clone(),
        spec: *spec,
        perfs,
    }
}

/// Evaluates a whole model suite, fanning `(model, platform)` pairs — the
/// finest independent grain — across workers. Row order follows `models`;
/// results are identical to calling [`compare_platforms_at`] per model.
pub fn compare_suite_with(
    models: &[TransformerConfig],
    spec: &ArraySpec,
    parallelism: Parallelism,
) -> Vec<PlatformRow> {
    let cost = evaluation_model();
    let graphs: Vec<_> = models.iter().map(|m| m.build_graph()).collect();
    let pairs: Vec<(usize, Platform)> = (0..models.len())
        .flat_map(|i| Platform::ALL.iter().map(move |&p| (i, p)))
        .collect();
    let perfs = par_map(parallelism, &pairs, |_, &(i, p)| {
        (p, evaluate_graph(spec, p, &cost, &graphs[i]))
    });
    models
        .iter()
        .zip(perfs.chunks_exact(Platform::ALL.len()))
        .map(|(m, row)| PlatformRow {
            model: m.clone(),
            spec: *spec,
            perfs: row.to_vec(),
        })
        .collect()
}

/// Fig 10 means over a model suite: returns, per platform, the average
/// normalized MA, the average utilization, and the average speedup over
/// TPUv4i.
pub fn suite_means(rows: &[PlatformRow]) -> Vec<(Platform, f64, f64, f64)> {
    Platform::ALL
        .iter()
        .map(|p| {
            let n = rows.len() as f64;
            let ma = rows.iter().map(|r| r.normalized_ma(*p)).sum::<f64>() / n;
            let util = rows.iter().map(|r| r.utilization(*p)).sum::<f64>() / n;
            let spd = rows
                .iter()
                .map(|r| r.speedup(*p, Platform::Tpuv4i))
                .sum::<f64>()
                / n;
            (*p, ma, util, spd)
        })
        .collect()
}

/// Evaluates one model's *decode* step (one query token against a KV cache
/// of `context_len` tokens) on every platform — the autoregressive-phase
/// extension of the Fig 10 methodology.
pub fn compare_platforms_decode(model: &TransformerConfig, context_len: u64) -> PlatformRow {
    compare_platforms_decode_with(model, context_len, Parallelism::Auto)
}

/// [`compare_platforms_decode`] with an explicit work-distribution policy.
pub fn compare_platforms_decode_with(
    model: &TransformerConfig,
    context_len: u64,
    parallelism: Parallelism,
) -> PlatformRow {
    let spec = ArraySpec::paper_default();
    let cost = evaluation_model();
    let graph = model.build_decode_graph(context_len);
    let perfs = par_map(parallelism, &Platform::ALL, |_, p| {
        (*p, evaluate_graph(&spec, *p, &cost, &graph))
    });
    PlatformRow {
        model: model.clone(),
        spec,
        perfs,
    }
}

/// The Fig 11 sweep: LLaMA2 at each sequence length, all platforms.
pub fn sequence_sweep(seq_lengths: &[u64]) -> Vec<(u64, PlatformRow)> {
    sequence_sweep_with(seq_lengths, Parallelism::Auto)
}

/// [`sequence_sweep`] with an explicit work-distribution policy. The fan
/// is over `(sequence length, platform)` pairs — the finest independent
/// grain — with each inner evaluation kept serial so worker counts do not
/// multiply.
pub fn sequence_sweep_with(
    seq_lengths: &[u64],
    parallelism: Parallelism,
) -> Vec<(u64, PlatformRow)> {
    let configs: Vec<TransformerConfig> = seq_lengths
        .iter()
        .map(|&s| fusecu_models::zoo::llama2_with_seq(s))
        .collect();
    let rows = compare_suite_with(&configs, &ArraySpec::paper_default(), parallelism);
    seq_lengths.iter().copied().zip(rows).collect()
}

/// One process's view of the disk-backed memo caches.
///
/// Construct it first thing in `main` (usually via
/// [`DiskCacheSession::from_args`]); it preloads every persisted memo
/// cache of the registry ([`fusecu_search::cache::caches`]) from its
/// directory and, when dropped, rewrites each file whose caches gained
/// entries since it was read. A missing, corrupt, or stale-fingerprint
/// file is a cold start, never an error. Print [`DiskCacheSession::summary`] at the end of a run for the
/// aggregate hit/miss line, or [`DiskCacheSession::stats_json`] for the
/// machine-readable per-section breakdown (`--stats-json`).
///
/// Long-running processes (the `serve` daemon) should call
/// [`DiskCacheSession::flush`] periodically instead of relying on the
/// flush on drop: flush tracks how many entries each cache file held when
/// it was last read or written and rewrites **only the files whose caches
/// grew** (atomic temp-file + rename per file, safe against concurrent
/// readers and other flushing processes), so previously-flushed entries
/// survive a later panic or `SIGKILL` and an all-hits interval writes
/// nothing.
#[derive(Debug)]
pub struct DiskCacheSession {
    dir: Option<PathBuf>,
    loaded: usize,
    /// Entries each cache file held when it was last read or written, in
    /// the registry's file order. Counts only grow (deterministic memo
    /// caches), so `current > flushed` is the dirty test; an eviction can
    /// make `current` drop below `flushed`, in which case the on-disk file
    /// is a superset and still valid.
    flushed: Vec<usize>,
}

/// Entries held by `sections`.
fn entries(sections: &[&dyn CacheSection]) -> usize {
    sections.iter().map(|s| s.counters().entries).sum()
}

impl DiskCacheSession {
    /// A session over the default cache directory (`$FUSECU_CACHE_DIR` if
    /// set, else `target/fusecu-cache`), disabled when the process was
    /// invoked with `--no-disk-cache`.
    pub fn from_args() -> DiskCacheSession {
        if std::env::args().any(|a| a == "--no-disk-cache") {
            DiskCacheSession::disabled()
        } else {
            DiskCacheSession::at(persist::default_cache_dir())
        }
    }

    /// A session that never touches the disk: nothing is preloaded and
    /// [`DiskCacheSession::flush`] (and drop) are no-ops. The in-process
    /// memo caches still work.
    pub fn disabled() -> DiskCacheSession {
        DiskCacheSession {
            dir: None,
            loaded: 0,
            flushed: Vec::new(),
        }
    }

    /// A session over an explicit directory, preloading every cache file
    /// found there.
    pub fn at(dir: PathBuf) -> DiskCacheSession {
        // Files load in registry order, and each file's fingerprint is
        // computed just before that file is read. The planner digest of
        // `graphs.cache` replans probe graphs; after the other three loads
        // it finds their entries warm and takes about 1 ms, against
        // 2-2.7 ms alone (EXPERIMENTS.md, "Answers at read time"), and
        // these loads are most of a daemon's set-up time. Each file's
        // flush baseline is taken right after its own preload, before the
        // next file's probe runs: a warm start then has nothing to
        // rewrite, while the entries a later probe adds (the planner
        // digest prices pairs that no file may hold yet) count as dirty.
        let mut loaded = 0;
        let flushed = cache_files(caches())
            .map(|(store, sections)| {
                loaded += persist::load(&dir.join(store.file), &(store.fingerprint)(), &sections);
                entries(&sections)
            })
            .collect();
        DiskCacheSession {
            dir: Some(dir),
            loaded,
            flushed,
        }
    }

    /// Number of entries preloaded from disk at construction.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Completed entries not yet written to disk — the daemon's snapshot
    /// trigger. Always 0 for a disabled session.
    pub fn dirty_entries(&self) -> usize {
        cache_files(caches())
            .zip(&self.flushed)
            .map(|((_, sections), &old)| entries(&sections).saturating_sub(old))
            .sum()
    }

    /// Incremental snapshot: rewrites only the cache files whose caches
    /// gained entries since they were last read or written, and returns
    /// the number of entries written (0 when everything is clean or the
    /// session is disabled). Each file is written atomically (temp file +
    /// rename), so a reader — or a crash mid-flush — never observes a torn
    /// file, and entries flushed earlier survive a later panic or
    /// `SIGKILL`. Called automatically on drop (best-effort, errors
    /// swallowed).
    pub fn flush(&mut self) -> io::Result<usize> {
        let Some(dir) = &self.dir else {
            return Ok(0);
        };
        let mut written = 0;
        for ((store, sections), flushed) in cache_files(caches()).zip(&mut self.flushed) {
            let now = entries(&sections);
            if now > *flushed {
                written += persist::save(&dir.join(store.file), &(store.fingerprint)(), &sections)?;
                *flushed = now;
            }
        }
        Ok(written)
    }

    /// Aggregate hit/miss counters of every memo cache the session
    /// persists.
    pub fn stats(&self) -> CacheStats {
        caches()
            .iter()
            .filter(|c| c.store.is_some())
            .fold(CacheStats::default(), |sum, c| sum.plus(c.section.counters().stats))
    }

    /// Per-section counters of every process-wide memo cache, including
    /// the in-memory-only chain cache (which [`DiskCacheSession::stats`]
    /// and the persisted files exclude).
    pub fn stats_sections(&self) -> Vec<SectionCounters> {
        caches().iter().map(|c| c.section.counters()).collect()
    }

    /// One-line machine-readable cache report (the binaries' `--stats-json`
    /// output): per-section hits/misses/entries/evictions plus an overall
    /// aggregate across every section listed.
    pub fn stats_json(&self) -> String {
        let sections = self.stats_sections();
        let mut overall = CacheStats::default();
        let mut body = String::new();
        for s in &sections {
            overall = overall.plus(s.stats);
            if !body.is_empty() {
                body.push(',');
            }
            body.push_str(&format!("\"{}\":{}", s.name, s.json()));
        }
        let dir = match &self.dir {
            Some(dir) => format!("\"{}\"", json_escape(&dir.display().to_string())),
            None => "null".to_string(),
        };
        format!(
            "{{\"dir\":{dir},\"preloaded\":{},\"dirty\":{},\"sections\":{{{body}}},\"overall\":{{\"hits\":{},\"misses\":{},\"hit_rate\":{:.6}}}}}",
            self.loaded,
            self.dirty_entries(),
            overall.hits,
            overall.misses,
            overall.hit_rate()
        )
    }

    /// One summary line for the end of a figure run. Ends with the
    /// greppable `overall hit rate` token CI keys on:
    ///
    /// ```text
    /// disk cache [target/fusecu-cache]: 1182 entries preloaded; 3540 hits / 0 misses (100.0% overall hit rate)
    /// ```
    pub fn summary(&self) -> String {
        let s = self.stats();
        let origin = match &self.dir {
            Some(dir) => format!("disk cache [{}]: {} entries preloaded", dir.display(), self.loaded),
            None => "disk cache disabled (--no-disk-cache)".to_string(),
        };
        format!(
            "{origin}; {} hits / {} misses ({:.1}% overall hit rate)",
            s.hits,
            s.misses,
            100.0 * s.hit_rate()
        )
    }
}

impl Drop for DiskCacheSession {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Minimal JSON string escaping for paths embedded in the stats report.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_models::zoo;

    #[test]
    fn fig9_sweep_principles_always_optimal() {
        // The Fig 9 headline on the paper's worked-example matmul.
        let mm = MatMul::new(1024, 768, 768);
        let buffers: Vec<u64> = vec![32 * 1024, 512 * 1024, 4 * 1024 * 1024];
        for point in validate_buffer_sweep(mm, &buffers) {
            assert_eq!(
                point.principle_ma, point.exhaustive.0,
                "bs={}: principles must equal the oracle",
                point.buffer
            );
            assert!(point.principles_optimal());
            // One-shot vs search: the searchers evaluate thousands of
            // candidates; the principles none.
            assert!(point.exhaustive.1 > 1_000, "bs={}", point.buffer);
        }
    }

    #[test]
    fn fig9_buffer_range_matches_paper() {
        let sizes = fig9_buffer_sizes();
        assert_eq!(*sizes.first().unwrap(), 32 * 1024);
        assert_eq!(*sizes.last().unwrap(), 32 * 1024 * 1024);
    }

    #[test]
    fn scaling_curve_is_deterministic_across_worker_counts() {
        // Small sweep: the digest column must be constant across worker
        // counts (same computation) and across repeat runs (deterministic).
        let mm = MatMul::new(96, 64, 80);
        let buffers = [128u64, 2_048, 32_768];
        let a = scaling_curve(mm, &buffers, &[1, 2, 4]);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|p| p.digest == a[0].digest), "{a:?}");
        assert!(a.iter().all(|p| p.seconds >= 0.0));
        let b = scaling_curve(mm, &buffers, &[2]);
        assert_eq!(b[0].digest, a[0].digest);
    }

    #[test]
    fn fig10_row_shape() {
        let row = compare_platforms(&zoo::blenderbot());
        assert!((row.normalized_ma(Platform::Tpuv4i) - 1.0).abs() < 1e-12);
        assert!(row.normalized_ma(Platform::FuseCu) < row.normalized_ma(Platform::UnfCu) + 1e-12);
        assert!(row.normalized_ma(Platform::UnfCu) <= row.normalized_ma(Platform::Gemmini));
        assert!(row.speedup(Platform::FuseCu, Platform::Tpuv4i) > 1.0);
    }

    #[test]
    fn fig11_longer_sequences_fuse_better() {
        // The paper: "greater memory access reduction observed for longer
        // sequences". The fusion-specific saving is FuseCU's MA relative to
        // the identical-but-unfused UnfCU; the eliminated score matrix
        // grows as S², so the ratio must fall monotonically with S.
        let rows = sequence_sweep(&[256, 1024, 4096, 16_384]);
        let ratios: Vec<f64> = rows
            .iter()
            .map(|(_, r)| r.normalized_ma(Platform::FuseCu) / r.normalized_ma(Platform::UnfCu))
            .collect();
        for w in ratios.windows(2) {
            assert!(
                w[1] < w[0],
                "fusion benefit must grow with sequence length: {ratios:?}"
            );
        }
        // And at the long end FuseCU's absolute normalized MA also drops.
        let long = &rows[rows.len() - 1].1;
        let mid = &rows[1].1;
        assert!(long.normalized_ma(Platform::FuseCu) < mid.normalized_ma(Platform::FuseCu));
    }

    #[test]
    fn decode_step_evaluates_and_stays_ordered() {
        let row = compare_platforms_decode(&zoo::llama2(), 4096);
        assert!((row.normalized_ma(Platform::Tpuv4i) - 1.0).abs() < 1e-12);
        // Decode is dominated by weight streaming: FuseCU still never loses.
        assert!(row.normalized_ma(Platform::FuseCu) <= 1.0);
        assert!(row.speedup(Platform::FuseCu, Platform::Tpuv4i) >= 1.0);
        // The per-head attention ops are 1xLxd: utilization collapses on a
        // rigid WS fabric relative to prefill.
        let prefill = compare_platforms(&zoo::llama2());
        assert!(row.utilization(Platform::Tpuv4i) < prefill.utilization(Platform::Tpuv4i));
    }

    #[test]
    fn suite_means_cover_all_platforms() {
        let rows = vec![compare_platforms(&zoo::blenderbot())];
        let means = suite_means(&rows);
        assert_eq!(means.len(), 5);
        let fuse = means.iter().find(|(p, ..)| *p == Platform::FuseCu).unwrap();
        assert!(fuse.1 < 1.0 && fuse.3 > 1.0);
    }
}
