//! Deterministic parallel execution for sweep workloads.
//!
//! The figure pipeline is embarrassingly parallel — every `(shape, buffer
//! size, optimizer)` point is an independent pure computation — yet the
//! seed ran them strictly serially (the full Fig 9 timing section alone
//! took minutes). This module fans sweep points across OS threads with
//! `std::thread::scope` (no external dependencies) while keeping results
//! **bit-for-bit identical** to a serial run: workers claim contiguous
//! index ranges from an atomic counter, collect each range's results
//! locally, and the ranges are spliced back in index order at join time —
//! the output never depends on scheduling, no per-item locks exist, and
//! every computation is deterministic (the genetic searcher runs on a
//! fixed seed).
//!
//! [`SweepEngine`] is the high-level entry point used by the figure
//! binaries: a `(shapes × buffers)` sweep evaluating the principle,
//! exhaustive, and genetic optimizers per point through a shared
//! [`DataflowCache`], so repeated points — within a sweep or across
//! figures in one process — are computed once. [`par_map`] is the
//! underlying primitive for heavy items (the platform comparison grids of
//! Fig 10/11); [`par_map_batched`] is its population-scoring sibling —
//! per-worker state built once per fan-out, a min-items-per-worker floor
//! so tiny or cheap batches never pay a thread handoff — and
//! [`par_sum_indexed`] is the collect-nothing reduction the throughput
//! benchmarks measure with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fusecu_dataflow::{CostModel, Dataflow};
use fusecu_ir::MatMul;

use crate::cache::DataflowCache;
use crate::exhaustive::SearchResult;

/// How a sweep distributes its work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One item at a time on the calling thread — the `--serial` escape
    /// hatch, and the reference semantics parallel runs must reproduce.
    Serial,
    /// One worker per available hardware thread.
    Auto,
    /// An explicit worker count (values of 0 or 1 degenerate to serial).
    Threads(usize),
}

impl Parallelism {
    /// Parses the conventional command-line override: `--serial` forces
    /// [`Parallelism::Serial`], `--threads N` pins the worker count, and
    /// anything else defaults to [`Parallelism::Auto`].
    pub fn from_args() -> Parallelism {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--serial") {
            return Parallelism::Serial;
        }
        if let Some(i) = args.iter().position(|a| a == "--threads") {
            if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                return Parallelism::Threads(n);
            }
        }
        Parallelism::Auto
    }

    /// The worker count this policy resolves to on the current machine.
    ///
    /// `Auto` resolves `available_parallelism()` **once per process** (a
    /// `OnceLock`): the query is a syscall, and population scoring asks
    /// on every GA generation — tens of thousands of times per search.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => {
                static AUTO_WORKERS: OnceLock<usize> = OnceLock::new();
                *AUTO_WORKERS.get_or_init(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
            }
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// The block of indices one atomic claim hands a worker:
/// `len / (workers * 4)` rounded up, never below one. Four blocks per
/// worker keeps the tail balanced (a straggler holds at most a quarter of
/// its fair share) while cutting the claim traffic on very cheap items —
/// a 1M-item cheap-map fans out with dozens of claims instead of a
/// million.
fn claim_chunk(len: usize, workers: usize) -> usize {
    len.div_ceil(workers * 4).max(1)
}

/// Batched population scoring refuses to fan out below this many items
/// per worker: a thread handoff costs tens of microseconds, so a batch
/// that cannot amortize it over at least a few scores runs faster on the
/// calling thread. A tiny population (fewer than `2 ×` this) therefore
/// never spawns threads at all.
const MIN_BATCH_PER_WORKER: usize = 8;

/// The worker count a batched fan-out actually uses: the requested count
/// clamped so every worker has at least [`MIN_BATCH_PER_WORKER`] items.
/// Below two workers the caller runs serially on its own thread.
fn batched_workers(len: usize, requested: usize) -> usize {
    requested.min(len / MIN_BATCH_PER_WORKER)
}

/// Stack size for spawned workers. Scoring closures are shallow (the
/// simulator keeps its arenas on the heap), so the platform default —
/// commonly 8 MiB — buys nothing; worse, a fleet of default-sized stacks
/// overflows the C runtime's thread-stack cache, so every fan-out maps
/// and faults fresh stacks, a cost (and, under memory pressure, a stall)
/// charged entirely to the parallel path. Modest stacks stay cached
/// across fan-outs.
const WORKER_STACK_BYTES: usize = 2 << 20;

/// The claim loop shared by every parallel primitive here: `workers`
/// scoped threads claim contiguous index ranges of `chunk` from one
/// atomic counter and run `work` on each range with a per-worker state
/// built once by `init`. Returns every `(range start, range result)` in
/// claim order per worker; a panic in any worker propagates (workers
/// are joined explicitly, the first panic payload is re-thrown, and the
/// remaining workers drain the counter normally — no deadlock).
fn claim_ranges<S, SegR, Init, Work>(
    workers: usize,
    len: usize,
    chunk: usize,
    init: Init,
    work: Work,
) -> Vec<(usize, SegR)>
where
    SegR: Send,
    Init: Fn() -> S + Sync,
    Work: Fn(&mut S, std::ops::Range<usize>) -> SegR + Sync,
{
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|slot| {
                std::thread::Builder::new()
                    .name(format!("fusecu-worker-{slot}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, || {
                        let mut state = init();
                        let mut segments: Vec<(usize, SegR)> = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= len {
                                break;
                            }
                            let range = start..(start + chunk).min(len);
                            segments.push((start, work(&mut state, range)));
                        }
                        segments
                    })
                    .expect("spawn scoring worker")
            })
            .collect();
        let mut all = Vec::with_capacity(len.div_ceil(chunk));
        for handle in handles {
            match handle.join() {
                Ok(segments) => all.extend(segments),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        all
    })
}

/// Splices range-tagged result segments back into item order and checks
/// they tile `len` exactly once — the claim scheme hands out disjoint
/// ranges by construction, and this is the join-time proof.
fn splice_segments<R>(mut segments: Vec<(usize, Vec<R>)>, len: usize) -> Vec<R> {
    segments.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(len);
    for (start, segment) in segments {
        assert_eq!(start, out.len(), "claimed ranges must tile the items exactly once");
        out.extend(segment);
    }
    assert_eq!(out.len(), len, "scope joined with items unfinished");
    out
}

/// Applies `f` to every item, fanning across `par.workers()` scoped
/// threads, and returns the results **in item order** regardless of how
/// the scheduler interleaved the workers.
///
/// Workers claim contiguous blocks of indices from one atomic counter
/// (about a quarter of a worker's fair share each, not one item at a
/// time) and collect each block's
/// results locally; blocks are spliced back in index order when the
/// scope joins, so the output is bit-identical to a serial run no matter
/// how blocks interleave — with **no per-item locks**: the only shared
/// write during the map is the claim counter's `fetch_add`.
///
/// `f` receives `(index, &item)` so callers can label work without
/// capturing mutable state. A panic in any worker propagates to the
/// caller when the scope joins.
///
/// This primitive fans out whenever there are at least two items and two
/// workers — right for *heavy* items (sweep points, platform grids).
/// Cheap-item population scoring should use [`par_map_batched`], which
/// adds a min-items-per-worker floor and per-worker state.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.workers().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = claim_chunk(items.len(), workers);
    let segments = claim_ranges(
        workers,
        items.len(),
        chunk,
        || (),
        |_, range| {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                out.push(f(i, &items[i]));
            }
            out
        },
    );
    splice_segments(segments, items.len())
}

/// [`par_map`] for population scoring: one atomic claim hands a worker a
/// whole contiguous sub-population, scored against a per-worker state
/// built once by `init` when the worker starts (a scratch-arena lease, a
/// scoring session) and reused for every item the worker ever claims —
/// the handoff amortizes over the full batch instead of costing per item.
///
/// Results come back in item order, bit-identical to a serial run (which
/// also builds `init()` exactly once, so per-worker state must not leak
/// into scores — it is reuse, not input). A fan-out needs at least
/// eight items per worker: tiny populations run on the calling thread
/// without spawning anything.
pub fn par_map_batched<T, R, S, Init, F>(par: Parallelism, items: &[T], init: Init, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = batched_workers(items.len(), par.workers());
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunk = claim_chunk(items.len(), workers);
    let segments = claim_ranges(
        workers,
        items.len(),
        chunk,
        &init,
        |state, range| {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                out.push(f(state, i, &items[i]));
            }
            out
        },
    );
    splice_segments(segments, items.len())
}

/// Wrapping sum of `f(state, index)` over `0..len`, fanned out with the
/// same batched claiming as [`par_map_batched`] but collecting nothing:
/// each worker folds its claims into one accumulator. Wrapping addition
/// is commutative, so the digest is identical to a serial fold no matter
/// how claims interleave. This is the throughput-measurement primitive —
/// millions of scores, one `u64` out, no result buffers distorting the
/// measurement.
pub fn par_sum_indexed<S, Init, F>(par: Parallelism, len: usize, init: Init, f: F) -> u64
where
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> u64 + Sync,
{
    let workers = batched_workers(len, par.workers());
    if workers <= 1 {
        let mut state = init();
        return (0..len).fold(0u64, |acc, i| acc.wrapping_add(f(&mut state, i)));
    }
    let chunk = claim_chunk(len, workers);
    let partials = claim_ranges(workers, len, chunk, &init, |state, range| {
        range.fold(0u64, |acc, i| acc.wrapping_add(f(state, i)))
    });
    partials
        .into_iter()
        .fold(0u64, |acc, (_, partial)| acc.wrapping_add(partial))
}

/// One fully evaluated sweep point: the three optimizers' answers for one
/// `(shape, buffer size)` pair.
///
/// `Eq` compares every field — including the searchers' evaluation counts
/// — so sequence equality between a serial and a parallel sweep is a
/// complete determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// The matmul swept.
    pub mm: MatMul,
    /// Buffer size in elements.
    pub buffer: u64,
    /// The one-shot principle optimizer's dataflow.
    pub principle: Dataflow,
    /// The exhaustive oracle's result.
    pub exhaustive: SearchResult,
    /// The genetic (DAT-style) searcher's result.
    pub genetic: SearchResult,
}

/// The three per-point optimizers a sweep fans out, as explicit work items
/// so a single slow searcher never serializes a whole point.
#[derive(Debug, Clone, Copy)]
enum Optimizer {
    Principle,
    Exhaustive,
    Genetic,
}

const OPTIMIZERS: [Optimizer; 3] = [Optimizer::Principle, Optimizer::Exhaustive, Optimizer::Genetic];

/// Per-item result of the fan-out phase; variants mirror [`Optimizer`].
enum OptimizerResult {
    Principle(Option<Dataflow>),
    Search(Option<SearchResult>),
}

/// The parallel `(shapes × buffers × optimizers)` sweep engine behind the
/// Fig 9 validation and its timing study.
pub struct SweepEngine {
    model: CostModel,
    parallelism: Parallelism,
    cache: Arc<DataflowCache>,
}

impl SweepEngine {
    /// An engine over `model` with automatic parallelism and the shared
    /// process-wide [`DataflowCache`].
    pub fn new(model: CostModel) -> SweepEngine {
        SweepEngine {
            model,
            parallelism: Parallelism::Auto,
            cache: DataflowCache::global_arc(),
        }
    }

    /// Overrides the work-distribution policy.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SweepEngine {
        self.parallelism = parallelism;
        self
    }

    /// Routes lookups through an explicit shared cache instead of the
    /// process-global one. Cold-cache measurements (the Fig 9 timing
    /// study, tests) hand each engine a fresh `Arc::new(...)`, which is
    /// dropped with the engine — no leak.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<DataflowCache>) -> SweepEngine {
        self.cache = cache;
        self
    }

    /// The cache this engine reads and fills.
    pub fn cache(&self) -> &DataflowCache {
        &self.cache
    }

    /// The engine's cost model.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Evaluates every `(shape, buffer)` pair with all three optimizers,
    /// returning outcomes in `shapes`-major, `buffers`-minor order —
    /// identical for serial and parallel runs.
    ///
    /// # Panics
    ///
    /// Panics when a buffer size cannot hold any tile of a shape
    /// (`bs < 3`), matching the serial pipeline's behavior.
    pub fn sweep(&self, shapes: &[MatMul], buffers: &[u64]) -> Vec<SweepOutcome> {
        let mut items = Vec::with_capacity(shapes.len() * buffers.len() * OPTIMIZERS.len());
        for &mm in shapes {
            for &bs in buffers {
                for opt in OPTIMIZERS {
                    items.push((mm, bs, opt));
                }
            }
        }
        let results = par_map(self.parallelism, &items, |_, &(mm, bs, opt)| match opt {
            Optimizer::Principle => OptimizerResult::Principle(self.cache.principle(&self.model, mm, bs)),
            Optimizer::Exhaustive => OptimizerResult::Search(self.cache.exhaustive(&self.model, mm, bs)),
            Optimizer::Genetic => OptimizerResult::Search(self.cache.genetic(&self.model, mm, bs)),
        });
        items
            .chunks_exact(OPTIMIZERS.len())
            .zip(results.chunks_exact(OPTIMIZERS.len()))
            .map(|(point, answers)| {
                let (mm, bs, _) = point[0];
                let infeasible = || -> ! {
                    panic!("buffer of {bs} elements cannot hold any tile of {mm}")
                };
                let [OptimizerResult::Principle(p), OptimizerResult::Search(e), OptimizerResult::Search(g)] =
                    answers
                else {
                    unreachable!("fan-out emits the optimizers in a fixed order")
                };
                SweepOutcome {
                    mm,
                    buffer: bs,
                    principle: p.unwrap_or_else(|| infeasible()),
                    exhaustive: e.unwrap_or_else(|| infeasible()),
                    genetic: g.unwrap_or_else(|| infeasible()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let serial = par_map(Parallelism::Serial, &items, |i, &x| (i as u64, x * x));
        let parallel = par_map(Parallelism::Threads(7), &items, |i, &x| (i as u64, x * x));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[5], (5, 25));
    }

    #[test]
    fn claim_chunks_cover_without_starving() {
        // Chunks divide the work into at least one block per worker (no
        // worker-count collapse) and at most ~4 blocks per worker.
        for (len, workers) in [(1usize, 2usize), (7, 8), (97, 7), (10_000, 8), (33, 4)] {
            let chunk = claim_chunk(len, workers);
            assert!(chunk >= 1, "len={len} workers={workers}");
            let blocks = len.div_ceil(chunk);
            assert!(blocks <= workers * 4, "len={len} workers={workers} blocks={blocks}");
            // Every index is covered exactly once by the block walk.
            let mut seen = vec![false; len];
            let mut start = 0;
            while start < len {
                for slot in &mut seen[start..(start + chunk).min(len)] {
                    assert!(!*slot);
                    *slot = true;
                }
                start += chunk;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u64> = vec![];
        assert!(par_map(Parallelism::Auto, &empty, |_, &x: &u64| x).is_empty());
        assert_eq!(par_map(Parallelism::Threads(8), &[3u64], |_, &x| x + 1), vec![4]);
    }

    #[test]
    fn par_map_batched_matches_serial_and_plain_map() {
        let items: Vec<u64> = (0..1_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for par in [Parallelism::Serial, Parallelism::Threads(3), Parallelism::Threads(16)] {
            let batched = par_map_batched(par, &items, || 0u64, |calls, _, &x| {
                *calls += 1;
                x.wrapping_mul(x) ^ 7
            });
            assert_eq!(batched, serial, "par={par:?}");
        }
    }

    #[test]
    fn batched_state_builds_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..10_000).collect();
        let inits = AtomicUsize::new(0);
        let out = par_map_batched(
            Parallelism::Threads(4),
            &items,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _, &x| x,
        );
        assert_eq!(out, items);
        // One state per worker (not per item, not per claim); the serial
        // path builds exactly one.
        let spawned = batched_workers(items.len(), 4);
        assert_eq!(inits.load(Ordering::Relaxed), spawned);
        assert_eq!(spawned, 4);
    }

    #[test]
    fn tiny_populations_never_spawn_threads() {
        // The min-items-per-worker floor: a 1-item (or any sub-2×floor)
        // batch runs on the calling thread, no matter how many workers
        // the caller asked for.
        let caller = std::thread::current().id();
        for len in [1usize, 2, 7, 2 * MIN_BATCH_PER_WORKER - 1] {
            let items: Vec<u64> = (0..len as u64).collect();
            let out = par_map_batched(Parallelism::Threads(8), &items, || (), |_, _, &x| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "a {len}-item population must not fan out"
                );
                x + 1
            });
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
        // And the floor scales: at exactly 2×floor, two workers are allowed.
        assert_eq!(batched_workers(2 * MIN_BATCH_PER_WORKER, 8), 2);
        assert_eq!(batched_workers(0, 8), 0);
        assert_eq!(batched_workers(1_000_000, 8), 8);
    }

    #[test]
    fn par_sum_indexed_matches_serial_fold() {
        let serial = (0..100_000u64).fold(0u64, |a, i| a.wrapping_add(i.wrapping_mul(i)));
        for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(8)] {
            let sum = par_sum_indexed(par, 100_000, || (), |_, i| {
                (i as u64).wrapping_mul(i as u64)
            });
            assert_eq!(sum, serial, "par={par:?}");
        }
        assert_eq!(par_sum_indexed(Parallelism::Threads(8), 0, || (), |_, _| 1), 0);
    }

    #[test]
    fn auto_workers_resolve_once_and_stay_stable() {
        let first = Parallelism::Auto.workers();
        for _ in 0..1_000 {
            assert_eq!(Parallelism::Auto.workers(), first);
        }
        assert!(first >= 1);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let items: Vec<u64> = (0..500).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::Threads(4), &items, |i, &x| {
                assert!(i != 250, "intentional test panic");
                x
            })
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn workers_resolve_sensibly() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn sweep_matches_direct_optimizer_calls() {
        let cache = Arc::new(DataflowCache::new());
        let model = CostModel::paper();
        let engine = SweepEngine::new(model)
            .with_parallelism(Parallelism::Threads(4))
            .with_cache(cache);
        let shapes = [MatMul::new(64, 48, 80), MatMul::new(17, 90, 33)];
        let buffers = [64, 1_024, 16_384];
        let outcomes = engine.sweep(&shapes, &buffers);
        assert_eq!(outcomes.len(), shapes.len() * buffers.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.mm, shapes[i / buffers.len()]);
            assert_eq!(o.buffer, buffers[i % buffers.len()]);
            let direct = crate::ExhaustiveSearch::new(model).optimize(o.mm, o.buffer);
            assert_eq!(o.exhaustive, direct);
            assert_eq!(o.principle.total_ma(), direct.best().total_ma());
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn sweep_panics_on_infeasible_buffer() {
        let cache = Arc::new(DataflowCache::new());
        let engine = SweepEngine::new(CostModel::paper()).with_cache(cache);
        let _ = engine.sweep(&[MatMul::new(4, 4, 4)], &[2]);
    }
}
