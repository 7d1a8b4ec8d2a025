//! Concurrent memoization for dataflow-optimization results.
//!
//! The figure pipeline evaluates the same `(matmul, buffer size, cost
//! model)` points over and over: Fig 9 sweeps one shape across eleven
//! buffer sizes per optimizer, Fig 10 revisits identical projection shapes
//! across platforms and models, and the ablation sweeps re-run entire
//! grids with only the bandwidth changed (which the buffer-level optimum
//! does not depend on). [`DataflowCache`] memoizes each optimizer's result
//! behind a sharded concurrent map so a repeated point is computed exactly
//! once per process — including under the parallel sweep engine
//! ([`crate::parallel`]), where per-key `OnceLock` cells guarantee a key
//! raced by two workers is still evaluated by only one of them.
//!
//! The generic machinery ([`MemoCache`], [`CacheStats`]) now lives in
//! [`fusecu_dataflow::memo`] so the fusion planner can memoize without a
//! dependency cycle; this module re-exports it, so the historical
//! `fusecu_search::cache::MemoCache` import path keeps working.
//!
//! Results also survive across *processes*: [`DataflowCache::save_to`] and
//! [`DataflowCache::load_from`] round-trip the completed entries through
//! the versioned disk format of [`crate::persist`].

use std::path::Path;
use std::sync::{Arc, OnceLock};

use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::{CostModel, Dataflow};
use fusecu_ir::MatMul;

pub use fusecu_dataflow::memo::{CacheStats, MemoCache, SectionCounters};

use crate::exhaustive::{ExhaustiveSearch, SearchResult};
use crate::genetic::GeneticSearch;

/// The memoization key of one intra-operator optimization problem: the
/// shape, the buffer budget in elements, and the cost model. Everything an
/// optimizer's answer depends on — and nothing else (bandwidth and array
/// geometry live above the buffer level).
pub type SweepKey = (MatMul, u64, CostModel);

/// Memoized front-end to the three intra-operator optimizers, keyed on
/// `(MatMul, bs, CostModel)`.
///
/// Each optimizer has its own map so a caller that only needs the
/// principle result never pays for a search. All three searchers are
/// deterministic (the genetic searcher runs on a fixed seed), so cached
/// and freshly computed results are indistinguishable — which is what lets
/// the parallel sweep engine promise byte-identical output to a serial
/// run, and what makes the disk cache safe to reload.
pub struct DataflowCache {
    pub(crate) principle: MemoCache<SweepKey, Option<Dataflow>>,
    pub(crate) exhaustive: MemoCache<SweepKey, Option<SearchResult>>,
    pub(crate) genetic: MemoCache<SweepKey, Option<SearchResult>>,
}

impl DataflowCache {
    /// An empty cache.
    pub fn new() -> DataflowCache {
        DataflowCache {
            principle: MemoCache::new(),
            exhaustive: MemoCache::new(),
            genetic: MemoCache::new(),
        }
    }

    /// The process-wide shared cache. Every figure binary and the default
    /// sweep engine route through this instance, so shapes repeated across
    /// figures within one process are optimized once.
    pub fn global() -> &'static DataflowCache {
        Self::global_arc_ref()
    }

    /// A clone of the [`Arc`] behind [`DataflowCache::global`], for callers
    /// (e.g. [`crate::parallel::SweepEngine`]) that hold the cache by
    /// shared ownership instead of a `'static` borrow — no `Box::leak`.
    pub fn global_arc() -> Arc<DataflowCache> {
        Arc::clone(Self::global_arc_ref())
    }

    fn global_arc_ref() -> &'static Arc<DataflowCache> {
        static GLOBAL: OnceLock<Arc<DataflowCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(DataflowCache::new()))
    }

    /// Memoized [`try_optimize_with`]: the one-shot principle optimizer.
    pub fn principle(&self, model: &CostModel, mm: MatMul, bs: u64) -> Option<Dataflow> {
        self.principle
            .get_or_compute((mm, bs, *model), || try_optimize_with(model, mm, bs))
    }

    /// [`DataflowCache::principle`] if it is already cached (a hit), else
    /// `None` without computing or counting anything ([`MemoCache::get`]).
    pub fn principle_if_cached(
        &self,
        model: &CostModel,
        mm: MatMul,
        bs: u64,
    ) -> Option<Option<Dataflow>> {
        self.principle.get(&(mm, bs, *model), |df| *df)
    }

    /// Memoized exhaustive-oracle search.
    pub fn exhaustive(&self, model: &CostModel, mm: MatMul, bs: u64) -> Option<SearchResult> {
        self.exhaustive.get_or_compute((mm, bs, *model), || {
            ExhaustiveSearch::new(*model).try_optimize(mm, bs)
        })
    }

    /// Memoized genetic (DAT-style) search.
    pub fn genetic(&self, model: &CostModel, mm: MatMul, bs: u64) -> Option<SearchResult> {
        self.genetic.get_or_compute((mm, bs, *model), || {
            GeneticSearch::new(*model).optimize(mm, bs)
        })
    }

    /// Aggregated hit/miss counters over the three optimizer maps.
    pub fn stats(&self) -> CacheStats {
        self.principle
            .stats()
            .plus(self.exhaustive.stats())
            .plus(self.genetic.stats())
    }

    /// Per-optimizer counters for machine-readable stats
    /// (`--stats-json`, the serve daemon's `stats` verb).
    pub fn sections(&self) -> [SectionCounters; 3] {
        [
            self.principle.counters("principle"),
            self.exhaustive.counters("exhaustive"),
            self.genetic.counters("genetic"),
        ]
    }

    /// Drops all entries while keeping the hit/miss counters, recording
    /// the removed entries as evictions (the serve daemon's memory cap).
    /// Returns the number of entries evicted.
    pub fn evict_all(&self) -> usize {
        self.principle.evict_all() + self.exhaustive.evict_all() + self.genetic.evict_all()
    }

    /// Number of distinct cached points across the three maps.
    pub fn len(&self) -> usize {
        self.principle.len() + self.exhaustive.len() + self.genetic.len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters. Tests use this to start
    /// from a cold cache; the figure binaries never need it.
    pub fn clear(&self) {
        self.principle.clear();
        self.exhaustive.clear();
        self.genetic.clear();
    }

    /// Writes every completed entry to `path` in the versioned format of
    /// [`crate::persist`], atomically (write-then-rename). Returns the
    /// number of entries written.
    pub fn save_to(&self, path: &Path) -> std::io::Result<usize> {
        crate::persist::save_dataflow_cache(self, path)
    }

    /// Preloads entries from a file previously written by
    /// [`DataflowCache::save_to`]. A missing, corrupt, or stale-fingerprint
    /// file is a cold start: the method returns 0 and the cache is left
    /// unchanged. Returns the number of entries preloaded.
    pub fn load_from(&self, path: &Path) -> usize {
        crate::persist::load_dataflow_cache(self, path)
    }
}

impl Default for DataflowCache {
    fn default() -> DataflowCache {
        DataflowCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataflow_cache_matches_direct_computation() {
        let cache = DataflowCache::new();
        let model = CostModel::paper();
        let mm = MatMul::new(256, 96, 192);
        let bs = 8_192;
        let cached = cache.principle(&model, mm, bs).unwrap();
        let direct = try_optimize_with(&model, mm, bs).unwrap();
        assert_eq!(cached, direct);
        let searched = cache.exhaustive(&model, mm, bs).unwrap();
        assert_eq!(searched, ExhaustiveSearch::new(model).try_optimize(mm, bs).unwrap());
        let ga = cache.genetic(&model, mm, bs).unwrap();
        assert_eq!(ga, GeneticSearch::new(model).optimize(mm, bs).unwrap());
        // Second round: all hits, no recomputation.
        let before = cache.stats();
        cache.principle(&model, mm, bs);
        cache.exhaustive(&model, mm, bs);
        cache.genetic(&model, mm, bs);
        let delta = cache.stats().since(before);
        assert_eq!(delta, CacheStats { hits: 3, misses: 0 });
    }

    #[test]
    fn infeasible_points_are_cached_too() {
        let cache = DataflowCache::new();
        let model = CostModel::paper();
        let mm = MatMul::new(4, 4, 4);
        assert!(cache.exhaustive(&model, mm, 2).is_none());
        assert!(cache.exhaustive(&model, mm, 2).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
