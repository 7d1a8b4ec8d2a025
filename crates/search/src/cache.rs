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
//! The generic machinery ([`MemoCache`], [`CacheStats`]) lives in
//! [`fusecu_dataflow::memo`] so the fusion planner can memoize without a
//! dependency cycle; this module re-exports it.
//!
//! This module also holds the **cache registry** ([`caches`]): every
//! process-wide memo cache of the workspace — the three optimizer maps
//! here, the operator cache of `fusecu-arch`, and the fused-pair,
//! chain-plan, chain-optimum and graph-plan caches of `fusecu-fusion` —
//! declared once, with its section name and, when it persists, its cache
//! file and record codec. Stats reports, eviction, clearing, and the disk
//! session of `fusecu::pipeline` all loop over it, and every cache file is
//! saved and loaded through the one generic [`fusecu_dataflow::persist`]
//! path. [`DataflowCache::save_to`] and [`DataflowCache::load_from`]
//! round-trip one cache's maps through that path.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use fusecu_arch::op_cache;
use fusecu_arch::persist::{
    arch_fingerprint, graph_fingerprint, GRAPH_CODEC, OP_CODEC, PAIR_CODEC, PLAN_CODEC,
};
use fusecu_dataflow::persist::{self, CacheSection, Codec, Section};
use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::{CostModel, Dataflow};
use fusecu_fusion::chain::chain_cache;
use fusecu_fusion::graph_planner::graph_cache;
use fusecu_fusion::optimizer::pair_cache;
use fusecu_fusion::planner::plan_cache;
use fusecu_ir::MatMul;

pub use fusecu_dataflow::memo::{CacheStats, MemoCache, SectionCounters};

use crate::exhaustive::{ExhaustiveSearch, SearchResult};
use crate::genetic::GeneticSearch;
use crate::persist::{PRINCIPLE_CODEC, SEARCH_CODEC};

/// A file of the cache directory: its name, and the probe that
/// fingerprints the models its entries depend on.
#[derive(Debug)]
pub struct CacheStore {
    /// The file's name in the cache directory.
    pub file: &'static str,
    /// The fingerprint the file is stamped with. Some probes replan or
    /// remap fixed inputs, so it is computed only when the file is read or
    /// written.
    pub fingerprint: fn() -> String,
}

/// The optimizer maps, under the base fingerprint: its cost-model digest
/// covers everything their answers depend on.
static DATAFLOW: CacheStore = CacheStore {
    file: "dataflow.cache",
    fingerprint: persist::fingerprint,
};

/// Operator candidates, whose compute cycles come out of the mapping
/// model: stamped with its digest.
static OPERATORS: CacheStore = CacheStore {
    file: "operators.cache",
    fingerprint: arch_fingerprint,
};

/// Fused-pair optima and chain plans, under the mapping digest too.
static PLANS: CacheStore = CacheStore {
    file: "plans.cache",
    fingerprint: arch_fingerprint,
};

/// Whole-graph plans, under the planner digest: a planner change
/// cold-starts this file alone, a mapping change keeps it warm.
static GRAPHS: CacheStore = CacheStore {
    file: "graphs.cache",
    fingerprint: graph_fingerprint,
};

/// One memo cache of the registry.
pub struct RegisteredCache<'a> {
    /// The cache under its section name, with its record codec when it
    /// persists.
    pub section: Box<dyn CacheSection + 'a>,
    /// The file that holds it, or `None` for a cache kept in memory only.
    pub store: Option<&'static CacheStore>,
}

fn persisted<'a, K, V>(
    name: &'static str,
    cache: &'a MemoCache<K, V>,
    codec: Codec<K, V>,
    store: &'static CacheStore,
) -> RegisteredCache<'a>
where
    K: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    RegisteredCache {
        section: Box::new(Section {
            name,
            cache,
            codec: Some(codec),
        }),
        store: Some(store),
    }
}

/// The registry, with `dataflow`'s maps as the optimizer maps: every memo
/// cache, once. Its order is the order of the stats report. The sections
/// of one file are adjacent and in file order, and the files come in the
/// order a disk session loads them.
fn registry(dataflow: &DataflowCache) -> [RegisteredCache<'_>; 8] {
    [
        persisted("principle", &dataflow.principle, PRINCIPLE_CODEC, &DATAFLOW),
        persisted("exhaustive", &dataflow.exhaustive, SEARCH_CODEC, &DATAFLOW),
        persisted("genetic", &dataflow.genetic, SEARCH_CODEC, &DATAFLOW),
        persisted("operators", op_cache(), OP_CODEC, &OPERATORS),
        persisted("pairs", pair_cache(), PAIR_CODEC, &PLANS),
        persisted("plans", plan_cache(), PLAN_CODEC, &PLANS),
        RegisteredCache {
            section: Box::new(Section {
                name: "chains",
                cache: chain_cache(),
                codec: None,
            }),
            store: None,
        },
        persisted("graphs", graph_cache(), GRAPH_CODEC, &GRAPHS),
    ]
}

/// Every process-wide memo cache: the registry over
/// [`DataflowCache::global`], in the order of the stats report
/// (principle, exhaustive, genetic, operators, pairs, plans, chains,
/// graphs).
pub fn caches() -> &'static [RegisteredCache<'static>] {
    static CACHES: OnceLock<[RegisteredCache<'static>; 8]> = OnceLock::new();
    CACHES.get_or_init(|| registry(DataflowCache::global()))
}

/// The persisted caches of `caches` grouped by the file that holds them:
/// the files in load order (`dataflow.cache`, `operators.cache`,
/// `plans.cache`, `graphs.cache`), each with its sections in file order.
pub fn cache_files<'c>(
    caches: &'c [RegisteredCache<'_>],
) -> impl Iterator<Item = (&'static CacheStore, Vec<&'c dyn CacheSection>)> {
    caches
        .chunk_by(|a, b| a.store.map(|s| s.file) == b.store.map(|s| s.file))
        .filter_map(|run| {
            let sections = run.iter().map(|c| &*c.section as &dyn CacheSection).collect();
            Some((run[0].store?, sections))
        })
}

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

    /// Calls `f` with the three optimizer maps as the registry's sections
    /// of `dataflow.cache`, in file order.
    fn with_sections<R>(&self, f: impl FnOnce(&[&dyn CacheSection]) -> R) -> R {
        let registry = registry(self);
        let (_, sections) = cache_files(&registry)
            .find(|(store, _)| std::ptr::eq(*store, &DATAFLOW))
            .expect("the registry persists the optimizer maps");
        f(&sections)
    }

    /// Aggregated hit/miss counters over the three optimizer maps.
    pub fn stats(&self) -> CacheStats {
        self.sections()
            .iter()
            .fold(CacheStats::default(), |sum, s| sum.plus(s.stats))
    }

    /// Per-optimizer counters for machine-readable stats
    /// (`--stats-json`, the serve daemon's `stats` verb).
    pub fn sections(&self) -> [SectionCounters; 3] {
        self.with_sections(|sections| std::array::from_fn(|i| sections[i].counters()))
    }

    /// Number of distinct cached points across the three maps.
    pub fn len(&self) -> usize {
        self.sections().iter().map(|s| s.entries).sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters. Tests use this to start
    /// from a cold cache; the figure binaries never need it.
    pub fn clear(&self) {
        self.with_sections(|sections| sections.iter().for_each(|s| s.clear()));
    }

    /// Writes every completed entry to `path` as `dataflow.cache` is
    /// written ([`persist::save`]), atomically (write-then-rename).
    /// Returns the number of entries written.
    pub fn save_to(&self, path: &Path) -> std::io::Result<usize> {
        self.with_sections(|sections| persist::save(path, &persist::fingerprint(), sections))
    }

    /// Preloads entries from a file previously written by
    /// [`DataflowCache::save_to`]. A missing, corrupt, or stale-fingerprint
    /// file is a cold start: the method returns 0 and the cache is left
    /// unchanged. Returns the number of entries preloaded.
    pub fn load_from(&self, path: &Path) -> usize {
        self.with_sections(|sections| persist::load(path, &persist::fingerprint(), sections))
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
