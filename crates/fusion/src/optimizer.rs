//! Closed-form fused-dataflow optimization and the Principle 4 decision.
//!
//! Like the intra-operator principles, the fused optimum needs no search:
//! the candidate set is a constant-size family of tiling *policies* (square
//! shared tiles, column-streamed intermediate in either orientation, one or
//! both shared dimensions untiled), each crossed with the two binary phase
//! tilings (`T_K ∈ {1, K}`, `T_N ∈ {1, N}` — intermediate values only waste
//! buffer, since producer/consumer traffic depends solely on whether the
//! phase loop is untiled). The only remaining free scalars per policy are
//! the shared tile edges: `T_M` runs over its balanced representatives and
//! the largest `T_L` that fits is solved in closed form from the buffer
//! footprint.
//!
//! [`decide`] compares the fused optimum with the sum of the per-operator
//! optima and reports **Principle 4**'s prediction: fusion is profitable
//! exactly when both operators' optimal intra-dataflows share an NRA class.
//! The planners apply the same profitability test against the solo optima
//! they already hold, pricing each pair with [`optimize_pair_cached`].

use std::sync::OnceLock;

use fusecu_dataflow::memo::{CacheStats, MemoCache, SectionCounters};
use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::tiling::balanced_tile_iter;
use fusecu_dataflow::{CostModel, NraClass};

use crate::nest::{FusedDataflow, FusedNest, FusedTiling};
use crate::pair::{FusedDim, FusedPair};

/// Largest `s ∈ [1, hi]` with `feasible(s)`, assuming monotone feasibility.
/// Returns `None` when even `s = 1` fails.
pub(crate) fn max_feasible(hi: u64, feasible: impl Fn(u64) -> bool) -> Option<u64> {
    let hi = hi.max(1);
    if !feasible(1) {
        return None;
    }
    if feasible(hi) {
        return Some(hi);
    }
    let (mut lo, mut hi) = (1u64, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Balances one shared tile: smallest even tile with the same iteration
/// count.
pub(crate) fn balance(dim_size: u64, tile: u64) -> u64 {
    let t = tile.min(dim_size);
    dim_size.div_ceil(dim_size.div_ceil(t))
}

/// The largest `T_L ∈ [1, L]` at which `nest` (its own `T_L` ignored)
/// fits `bs` elements, or `None` when even `T_L = 1` does not fit.
///
/// Solved, not searched: the untiled `T_L = L` is tested directly, and
/// below `L` the footprint is a fixed max of two lines in `T_L`
/// ([`FusedNest::footprint_in_l`]) whose largest fitting value has a
/// closed form. Feasibility is monotone over `T_L < L`, so this is the
/// answer a bisection over `[1, L]` finds; the untiled boundary may fit
/// with a smaller footprint than `T_L = L − 1` (a persistent tile stops
/// being charged), which is why it is tested on its own.
fn max_tile_l(pair: &FusedPair, nest: FusedNest, bs: u64) -> Option<u64> {
    let l = pair.dim(FusedDim::L);
    let at = |t_l| FusedNest::new(nest.outer_is_m, nest.tiling.with(FusedDim::L, t_l));
    if l == 1 {
        return at(1).fits(pair, bs).then_some(1);
    }
    let below_l = at(1).footprint_in_l(pair).max_fitting(bs)?;
    Some(if at(l).fits(pair, bs) {
        l
    } else {
        below_l.min(l - 1)
    })
}

/// Hands every closed-form fused candidate that fits the buffer to `f`
/// without allocating; [`candidates`] collects them.
fn for_each_candidate(
    model: &CostModel,
    pair: FusedPair,
    bs: u64,
    mut f: impl FnMut(FusedDataflow),
) {
    let k = pair.dim(FusedDim::K);
    let n = pair.dim(FusedDim::N);
    let l = pair.dim(FusedDim::L);
    for outer_is_m in [true, false] {
        for t_k in [1, k] {
            for t_n in [1, n] {
                for t_m in balanced_tile_iter(pair.dim(FusedDim::M)) {
                    let nest = FusedNest::new(outer_is_m, FusedTiling::new(t_m, t_k, 1, t_n));
                    // Footprint is nondecreasing in T_M; once even T_L = 1
                    // fails, larger T_M cannot recover.
                    let Some(t_l) = max_tile_l(&pair, nest, bs) else {
                        break;
                    };
                    let tiling = nest.tiling.with(FusedDim::L, balance(l, t_l));
                    let nest = FusedNest::new(outer_is_m, tiling);
                    debug_assert!(nest.fits(&pair, bs));
                    f(FusedDataflow::score(model, pair, nest));
                }
            }
        }
    }
}

/// Every closed-form fused candidate that fits the buffer.
///
/// Structure is enumerated exactly (two shared-loop orders, the two useful
/// phase tilings each for `K` and `N`); the intermediate-tile split is
/// swept losslessly: `T_M` runs over its balanced representatives and the
/// maximal feasible `T_L` is solved in closed form from the buffer
/// footprint, which is linear in `T_L` in each phase while `L` iterates.
/// Any optimal `(T_M, T_L)` is dominated by the candidate at `T_M`'s
/// representative (same `M` iteration count, no larger footprint) with the
/// derived `T_L` (memory access is non-increasing in `T_L`), so the family
/// contains the fused optimum — which `fusecu-search`'s fused oracle
/// confirms by enumeration.
pub fn candidates(model: &CostModel, pair: FusedPair, bs: u64) -> Vec<FusedDataflow> {
    let mut out = Vec::new();
    for_each_candidate(model, pair, bs, |c| out.push(c));
    out
}

/// The closed-form fused optimum for a pair, or `None` when no fused
/// dataflow fits the buffer. Ties on memory access go to the smaller
/// footprint, then to the earlier candidate.
pub fn optimize_pair(model: &CostModel, pair: FusedPair, bs: u64) -> Option<FusedDataflow> {
    let key = |c: &FusedDataflow| (c.total_ma(), c.footprint());
    let mut best: Option<FusedDataflow> = None;
    for_each_candidate(model, pair, bs, |c| {
        if best.is_none_or(|b| key(&c) < key(&b)) {
            best = Some(c);
        }
    });
    best
}

/// The memoization key of one fused-pair optimization: everything the
/// answer depends on, and nothing else.
pub type PairKey = (FusedPair, u64, CostModel);

fn pair_cache() -> &'static MemoCache<PairKey, Option<FusedDataflow>> {
    static CACHE: OnceLock<MemoCache<PairKey, Option<FusedDataflow>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Memoized [`optimize_pair`]: the ablation grids re-optimize identical
/// pairs across every spec that shares a buffer size, and the chain
/// planner revisits the same adjacent pairs across chains.
pub fn optimize_pair_cached(model: &CostModel, pair: FusedPair, bs: u64) -> Option<FusedDataflow> {
    pair_cache().get_or_compute((pair, bs, *model), || optimize_pair(model, pair, bs))
}

/// Per-section counters of the process-wide fused-pair cache, for
/// machine-readable stats (`--stats-json`, the serve daemon).
pub fn pair_cache_counters() -> SectionCounters {
    pair_cache().counters("pairs")
}

/// Drops every fused-pair cache entry, keeping the hit/miss counters and
/// counting the drops as evictions. Returns the number evicted.
pub fn pair_cache_evict_all() -> usize {
    pair_cache().evict_all()
}

/// Drops all fused-pair cache entries and resets its counters — for
/// tests and the stress harness's cold-start-per-process baseline.
pub fn pair_cache_clear() {
    pair_cache().clear();
}

/// Hit/miss counters of the process-wide fused-pair cache.
pub fn pair_cache_stats() -> CacheStats {
    pair_cache().stats()
}

/// Completed fused-pair cache entries, for the disk persistence layer.
pub fn pair_cache_snapshot() -> Vec<(PairKey, Option<FusedDataflow>)> {
    pair_cache().snapshot()
}

/// Preloads fused-pair entries saved by an earlier process; returns the
/// number inserted. Counters are untouched.
pub fn pair_cache_preload(
    entries: impl IntoIterator<Item = (PairKey, Option<FusedDataflow>)>,
) -> usize {
    pair_cache().preload(entries)
}

/// The outcome of applying Principle 4 to one producer/consumer pair.
#[derive(Debug, Clone, Copy)]
pub struct FusionDecision {
    pair: FusedPair,
    buffer: u64,
    fused: Option<FusedDataflow>,
    unfused_ma: u64,
    producer_class: Option<NraClass>,
    consumer_class: Option<NraClass>,
}

impl FusionDecision {
    /// The pair under decision.
    pub fn pair(&self) -> FusedPair {
        self.pair
    }

    /// The buffer size the decision was made for.
    pub fn buffer(&self) -> u64 {
        self.buffer
    }

    /// The best fused dataflow, when one fits the buffer.
    pub fn fused(&self) -> Option<&FusedDataflow> {
        self.fused.as_ref()
    }

    /// Total MA of executing the two operators unfused, each with its
    /// principle-optimal intra-dataflow (intermediate written and re-read).
    pub fn unfused_ma(&self) -> u64 {
        self.unfused_ma
    }

    /// NRA class of the producer's optimal intra-dataflow.
    pub fn producer_class(&self) -> Option<NraClass> {
        self.producer_class
    }

    /// NRA class of the consumer's optimal intra-dataflow.
    pub fn consumer_class(&self) -> Option<NraClass> {
        self.consumer_class
    }

    /// Whether the two operators' optimal intra-dataflows share an NRA
    /// class — Principle 4's precondition for profitable fusion.
    pub fn same_nra(&self) -> bool {
        self.producer_class.is_some() && self.producer_class == self.consumer_class
    }

    /// Whether fusing strictly reduces memory access.
    pub fn profitable(&self) -> bool {
        self.fused
            .is_some_and(|f| f.total_ma() < self.unfused_ma)
    }

    /// Memory access saved by fusing (zero when unprofitable).
    pub fn saved_ma(&self) -> u64 {
        self.fused
            .map_or(0, |f| self.unfused_ma.saturating_sub(f.total_ma()))
    }

    /// The memory access of the better execution (fused if profitable).
    pub fn best_ma(&self) -> u64 {
        match self.fused {
            Some(f) => f.total_ma().min(self.unfused_ma),
            None => self.unfused_ma,
        }
    }
}

/// Applies Principle 4 to a pair: computes per-operator optima, the fused
/// optimum, and the profitability verdict. Returns `None` when `bs` is too
/// small to hold even a unit tile per operand (`bs < 3`), since then
/// neither fused nor unfused execution is definable — callers fall back to
/// whatever plan the surrounding level has, typically unfused.
///
/// This is the pair-level Principle 4 report (NRA classes included). The
/// chain and graph planners do not call it: they already hold both solo
/// optima and compare [`optimize_pair_cached`] against them directly,
/// which is the same [`FusionDecision::profitable`] test without solving
/// the two operators again.
pub fn try_decide(model: &CostModel, pair: FusedPair, bs: u64) -> Option<FusionDecision> {
    let p_opt = try_optimize_with(model, pair.producer(), bs)?;
    let c_opt = try_optimize_with(model, pair.consumer(), bs)?;
    Some(FusionDecision {
        pair,
        buffer: bs,
        fused: optimize_pair_cached(model, pair, bs),
        unfused_ma: p_opt.total_ma() + c_opt.total_ma(),
        producer_class: p_opt.class(),
        consumer_class: c_opt.class(),
    })
}

/// Applies Principle 4 to a pair: computes per-operator optima, the fused
/// optimum, and the profitability verdict.
///
/// # Panics
///
/// Panics when `bs` is too small to hold even a unit tile per operand
/// (`bs < 3`); use [`try_decide`] to handle that case gracefully.
pub fn decide(model: &CostModel, pair: FusedPair, bs: u64) -> FusionDecision {
    try_decide(model, pair, bs)
        .unwrap_or_else(|| panic!("buffer of {bs} elements cannot hold any tile"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_ir::MatMul;

    fn pair(m: u64, k: u64, l: u64, n: u64) -> FusedPair {
        FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap()
    }

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    #[test]
    fn max_feasible_bisects() {
        assert_eq!(max_feasible(100, |s| s * s <= 170), Some(13));
        assert_eq!(max_feasible(10, |s| s <= 10), Some(10));
        assert_eq!(max_feasible(10, |_| false), None);
        assert_eq!(max_feasible(1, |s| s == 1), Some(1));
    }

    /// The candidate list as it was derived before the closed form: the
    /// largest fitting `T_L` by bisection over `[1, L]` per balanced
    /// `T_M`, followed by an explicit probe of the untiled `T_L = L`.
    fn bisection_candidates(model: &CostModel, pair: FusedPair, bs: u64) -> Vec<FusedDataflow> {
        let k = pair.dim(FusedDim::K);
        let n = pair.dim(FusedDim::N);
        let l = pair.dim(FusedDim::L);
        let mut out = Vec::new();
        for outer_is_m in [true, false] {
            for t_k in [1, k] {
                for t_n in [1, n] {
                    for t_m in fusecu_dataflow::tiling::balanced_tiles(pair.dim(FusedDim::M)) {
                        let build = |t_l: u64| {
                            FusedNest::new(outer_is_m, FusedTiling::new(t_m, t_k, t_l, t_n))
                        };
                        if !build(1).fits(&pair, bs) {
                            break;
                        }
                        let t_l = max_feasible(l, |t_l| build(t_l).fits(&pair, bs)).unwrap();
                        out.push(FusedDataflow::score(model, pair, build(balance(l, t_l))));
                        if t_l < l && build(l).fits(&pair, bs) {
                            out.push(FusedDataflow::score(model, pair, build(l)));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn closed_form_t_l_matches_bisection() {
        // Unit dimensions, the three- to five-element buffers where only
        // unit tiles fit, and buffers past the whole pair's footprint. The
        // phase dimensions K and N only enter as {1, full}, so they need
        // fewer sizes than the swept M and the solved L.
        const SHARED: [u64; 6] = [1, 2, 3, 7, 16, 61];
        const PHASE: [u64; 3] = [1, 3, 61];
        let mut compared = 0;
        for model in [CostModel::paper(), CostModel::read_write()] {
            for [m, k, l, n] in SHARED.iter().flat_map(|&m| {
                PHASE.iter().flat_map(move |&k| {
                    SHARED
                        .iter()
                        .flat_map(move |&l| PHASE.iter().map(move |&n| [m, k, l, n]))
                })
            }) {
                let p = pair(m, k, l, n);
                let whole = p.external_ideal_ma() + p.intermediate_elems();
                for bs in [3, 4, 5, 9, 40, 300, 2_500, whole, whole + 1, 1 << 40] {
                    let want = bisection_candidates(&model, p, bs);
                    assert_eq!(candidates(&model, p, bs), want, "{p} bs={bs} {model:?}");
                    compared += want.len();
                }
            }
        }
        assert!(
            compared > 100_000,
            "sweep compared only {compared} candidates"
        );
    }

    #[test]
    fn attention_pair_fuses_profitably() {
        // (Q·Kᵀ)·V with a huge 1M-element intermediate: fusion must win
        // across a wide range of buffer sizes (the FlashAttention effect).
        let p = pair(1024, 64, 1024, 64);
        for bs in [16 * 1024, 64 * 1024, 512 * 1024] {
            let d = decide(&MODEL, p, bs);
            assert!(d.profitable(), "bs={bs}");
            assert!(d.saved_ma() > 0);
            assert_eq!(d.best_ma(), d.fused().unwrap().total_ma());
        }
    }

    #[test]
    fn fused_ma_never_below_external_lower_bound() {
        let shapes = [
            pair(64, 64, 64, 64),
            pair(1024, 64, 1024, 64),
            pair(100, 30, 50, 70),
        ];
        for p in shapes {
            for bs in [64, 1024, 65_536, 4_000_000] {
                if let Some(f) = optimize_pair(&MODEL, p, bs) {
                    assert!(f.total_ma() >= p.external_ideal_ma(), "{p} bs={bs}");
                    assert!(f.footprint() <= bs);
                }
            }
        }
    }

    #[test]
    fn huge_buffer_reaches_external_lower_bound() {
        let p = pair(128, 32, 96, 64);
        let bs = 10_000_000;
        let f = optimize_pair(&MODEL, p, bs).unwrap();
        assert_eq!(f.total_ma(), p.external_ideal_ma());
    }

    #[test]
    fn try_decide_degrades_gracefully_on_tiny_buffers() {
        // Regression: the panicking `decide` used to be the only entry
        // point, so any caller probing a sub-minimal buffer aborted. Two
        // elements cannot hold a tile per operand; three can.
        let p = pair(64, 64, 64, 64);
        assert!(try_decide(&MODEL, p, 2).is_none());
        let d = try_decide(&MODEL, p, 3).expect("three elements admit unit tiles");
        assert!(d.fused().is_some());
    }

    #[test]
    fn cached_pair_optimum_matches_direct() {
        let p = pair(100, 30, 50, 70);
        for bs in [2u64, 64, 65_536] {
            assert_eq!(
                optimize_pair_cached(&MODEL, p, bs),
                optimize_pair(&MODEL, p, bs),
                "bs={bs}"
            );
        }
    }

    #[test]
    fn minimum_fused_buffer_is_three_elements() {
        // The smallest fused nest is the scalar OS-IS pipeline: a 1x1 C
        // tile plus one phase's two unit tiles = 3 elements. Below that no
        // fused dataflow exists; at exactly 3 it exists and still saves the
        // 2|C| intermediate traffic (both halves are Single-NRA).
        let p = pair(64, 64, 64, 64);
        assert!(optimize_pair(&MODEL, p, 2).is_none());
        let d = decide(&MODEL, p, 3);
        assert!(d.fused().is_some());
        assert!(d.profitable());
        assert_eq!(d.saved_ma(), 2 * p.intermediate_elems());
    }

    #[test]
    fn same_nra_pairs_are_profitable() {
        // Principle 4, positive direction: symmetric pairs whose halves
        // land in the same regime fuse profitably.
        let cases = [
            (pair(512, 512, 512, 512), 16 * 1024),  // both Single-NRA
            (pair(1024, 768, 768, 768), 512 * 1024), // both Two-NRA
            (pair(256, 64, 64, 64), 1 << 22),        // both Three-NRA
        ];
        for (p, bs) in cases {
            let d = decide(&MODEL, p, bs);
            assert!(d.same_nra(), "{p} bs={bs}: classes {:?}/{:?}", d.producer_class(), d.consumer_class());
            assert!(d.profitable(), "{p} bs={bs} must fuse profitably");
        }
    }

    #[test]
    fn cross_nra_pair_is_not_profitable() {
        // Principle 4, negative direction: a producer deep in Single-NRA
        // territory feeding a consumer in Two-NRA territory. The fused
        // compromise loses more on external tensors than C saves when the
        // intermediate is small relative to the redundant traffic.
        // Producer: (4096, 4096, 64) -> Dmin = 64 is L; consumer
        // (4096, 64, 4096). With bs = 2048 the producer's Dmin² bounds
        // differ strongly from the consumer's.
        let p = pair(4096, 4096, 64, 4096);
        let bs = 6 * 1024;
        let d = decide(&MODEL, p, bs);
        if !d.same_nra() {
            assert!(
                !d.profitable(),
                "cross-NRA fusion should not be profitable: fused {:?} vs unfused {}",
                d.fused().map(|f| f.total_ma()),
                d.unfused_ma()
            );
        }
    }

    #[test]
    fn candidate_set_is_sweep_sized() {
        let p = pair(128, 128, 128, 128);
        let c = candidates(&MODEL, p, 1 << 20);
        // 2 orders x 2 K-tilings x 2 N-tilings x O(sqrt(M)) sweep points.
        assert!(c.len() <= 2 * 2 * 2 * 2 * (128f64.sqrt() as usize + 2));
        assert!(!c.is_empty());
        for f in &c {
            assert!(f.footprint() <= 1 << 20);
        }
    }

    #[test]
    fn fused_optimum_monotone_in_buffer() {
        let p = pair(640, 80, 320, 160);
        let mut last = u64::MAX;
        for bs in [256, 2_048, 16_384, 131_072, 1 << 20, 1 << 24] {
            if let Some(f) = optimize_pair(&MODEL, p, bs) {
                assert!(f.total_ma() <= last, "bs={bs}");
                last = f.total_ma();
            }
        }
        assert_eq!(last, p.external_ideal_ma());
    }
}
