//! Fusion planning over matmul chains and operator graphs.
//!
//! The paper applies Principle 4 to each pair of connected operators
//! (§III-B2 end). FuseCU's hardware fuses two matmuls at a time (the four
//! CUs form one producer/consumer pipeline), so a chain plan partitions the
//! chain into solo operators and fused pairs — a minimum-cost partition
//! found by dynamic programming over the chain.

use std::fmt;
use std::sync::OnceLock;

use fusecu_dataflow::memo::{CacheStats, MemoCache, SectionCounters};
use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::{CostModel, Dataflow};
use fusecu_ir::MmChain;

use crate::nest::FusedDataflow;
use crate::optimizer::optimize_pair_cached;
use crate::pair::FusedPair;

/// One step of a chain plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// Matmul `index` executes alone with its optimal intra-dataflow.
    Solo {
        /// Index of the matmul within the chain.
        index: usize,
        /// Its principle-optimal dataflow.
        dataflow: Dataflow,
    },
    /// Matmuls `index` and `index + 1` execute fused.
    Pair {
        /// Index of the producer within the chain.
        index: usize,
        /// The fused dataflow.
        fused: FusedDataflow,
    },
}

impl ChainStep {
    /// Memory access of this step.
    pub fn ma(&self) -> u64 {
        match self {
            ChainStep::Solo { dataflow, .. } => dataflow.total_ma(),
            ChainStep::Pair { fused, .. } => fused.total_ma(),
        }
    }

    /// Number of matmuls the step covers (1 or 2).
    pub fn width(&self) -> usize {
        match self {
            ChainStep::Solo { .. } => 1,
            ChainStep::Pair { .. } => 2,
        }
    }
}

/// A minimum-memory-access execution plan for one matmul chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPlan {
    steps: Vec<ChainStep>,
    total_ma: u64,
    buffer: u64,
}

impl ChainPlan {
    /// Rebuilds a plan from its steps, recomputing the total from them.
    /// This is the reconstruction entry point for the disk persistence
    /// layer, which stores only the steps; planning always goes through
    /// [`plan_chain`].
    pub fn from_steps(steps: Vec<ChainStep>, buffer: u64) -> ChainPlan {
        let total_ma = steps.iter().map(ChainStep::ma).sum();
        ChainPlan {
            steps,
            total_ma,
            buffer,
        }
    }

    /// The steps, producer-first.
    pub fn steps(&self) -> &[ChainStep] {
        &self.steps
    }

    /// Total memory access of the plan.
    pub fn total_ma(&self) -> u64 {
        self.total_ma
    }

    /// The buffer size the plan was computed for.
    pub fn buffer(&self) -> u64 {
        self.buffer
    }

    /// Number of fused pairs in the plan.
    pub fn fused_pair_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ChainStep::Pair { .. }))
            .count()
    }
}

impl fmt::Display for ChainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            match step {
                ChainStep::Solo { index, dataflow } => {
                    writeln!(f, "  mm{index}: solo  ma={}", dataflow.total_ma())?;
                }
                ChainStep::Pair { index, fused } => {
                    writeln!(
                        f,
                        "  mm{index}+mm{}: fused ma={}",
                        index + 1,
                        fused.total_ma()
                    )?;
                }
            }
        }
        write!(f, "  total ma = {}", self.total_ma)
    }
}

/// Plans one chain by dynamic programming: each matmul either runs solo at
/// its principle-optimal dataflow or joins its neighbor in a fused pair —
/// whichever partition minimizes total memory access. Returns `None` when
/// `bs` cannot hold any solo dataflow (`bs < 3`), in which case no
/// execution of the chain is definable at all.
pub fn try_plan_chain(model: &CostModel, chain: &MmChain, bs: u64) -> Option<ChainPlan> {
    let n = chain.len();
    let solo: Vec<Dataflow> = (0..n)
        .map(|i| try_optimize_with(model, chain.mm(i), bs))
        .collect::<Option<_>>()?;
    let fused: Vec<Option<FusedDataflow>> = (0..n.saturating_sub(1))
        .map(|i| {
            let pair = FusedPair::try_new(chain.mm(i), chain.mm(i + 1))
                .expect("chain invariant guarantees pair shapes");
            // Principle 4's profitability test against the solo optima at
            // hand: a pair that does not fit or does not strictly save
            // simply never fuses, and the DP below keeps the solo plans.
            let unfused_ma = solo[i].total_ma() + solo[i + 1].total_ma();
            optimize_pair_cached(model, pair, bs).filter(|f| f.total_ma() < unfused_ma)
        })
        .collect();

    // dp[i]: best MA for the first i matmuls; choice[i]: width of the last
    // step in the optimal prefix plan of length i.
    let mut dp = vec![0u64; n + 1];
    let mut choice = vec![1usize; n + 1];
    for i in 1..=n {
        dp[i] = dp[i - 1] + solo[i - 1].total_ma();
        choice[i] = 1;
        if i >= 2 {
            if let Some(f) = &fused[i - 2] {
                let cand = dp[i - 2] + f.total_ma();
                if cand < dp[i] {
                    dp[i] = cand;
                    choice[i] = 2;
                }
            }
        }
    }

    let mut steps = Vec::new();
    let mut i = n;
    while i > 0 {
        if choice[i] == 2 {
            steps.push(ChainStep::Pair {
                index: i - 2,
                fused: fused[i - 2].expect("choice 2 implies profitable fusion"),
            });
            i -= 2;
        } else {
            steps.push(ChainStep::Solo {
                index: i - 1,
                dataflow: solo[i - 1],
            });
            i -= 1;
        }
    }
    steps.reverse();
    Some(ChainPlan {
        steps,
        total_ma: dp[n],
        buffer: bs,
    })
}

/// Panicking form of [`try_plan_chain`], for callers that have already
/// validated the buffer (e.g. via `ArraySpec::validate`).
///
/// # Panics
///
/// Panics when `bs < 3` (no dataflow fits at all).
pub fn plan_chain(model: &CostModel, chain: &MmChain, bs: u64) -> ChainPlan {
    try_plan_chain(model, chain, bs)
        .unwrap_or_else(|| panic!("buffer of {bs} elements cannot hold any tile"))
}

/// The memoization key of one chain-planning problem.
pub type PlanKey = (MmChain, u64, CostModel);

fn plan_cache() -> &'static MemoCache<PlanKey, Option<ChainPlan>> {
    static CACHE: OnceLock<MemoCache<PlanKey, Option<ChainPlan>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Memoized [`try_plan_chain`]: the evaluation pipeline re-plans identical
/// chains for every `ArraySpec` in an ablation grid, even though the plan
/// depends only on `(chain, bs, model)`.
pub fn try_plan_chain_cached(model: &CostModel, chain: &MmChain, bs: u64) -> Option<ChainPlan> {
    plan_cache().get_or_compute((chain.clone(), bs, *model), || {
        try_plan_chain(model, chain, bs)
    })
}

/// [`try_plan_chain_cached`]'s plan read through `read` if it is already
/// cached (a hit), else `None` without planning or counting anything
/// ([`MemoCache::get`]).
pub fn try_plan_chain_if_cached<R>(
    model: &CostModel,
    chain: &MmChain,
    bs: u64,
    read: impl FnOnce(Option<&ChainPlan>) -> R,
) -> Option<R> {
    plan_cache().get(&(chain.clone(), bs, *model), |plan| read(plan.as_ref()))
}

/// Memoized [`plan_chain`].
///
/// # Panics
///
/// Panics when `bs < 3` (no dataflow fits at all).
pub fn plan_chain_cached(model: &CostModel, chain: &MmChain, bs: u64) -> ChainPlan {
    try_plan_chain_cached(model, chain, bs)
        .unwrap_or_else(|| panic!("buffer of {bs} elements cannot hold any tile"))
}

/// Hit/miss counters of the process-wide chain-plan cache.
pub fn plan_cache_stats() -> CacheStats {
    plan_cache().stats()
}

/// Per-section counters of the process-wide chain-plan cache, for
/// machine-readable stats (`--stats-json`, the serve daemon).
pub fn plan_cache_counters() -> SectionCounters {
    plan_cache().counters("plans")
}

/// Drops every chain-plan cache entry, keeping the hit/miss counters and
/// counting the drops as evictions. Returns the number evicted.
pub fn plan_cache_evict_all() -> usize {
    plan_cache().evict_all()
}

/// Drops all chain-plan cache entries and resets its counters — for
/// tests and the stress harness's cold-start-per-process baseline.
pub fn plan_cache_clear() {
    plan_cache().clear();
}

/// Completed chain-plan cache entries, for the disk persistence layer.
pub fn plan_cache_snapshot() -> Vec<(PlanKey, Option<ChainPlan>)> {
    plan_cache().snapshot()
}

/// Preloads chain-plan entries saved by an earlier process; returns the
/// number inserted. Counters are untouched.
pub fn plan_cache_preload(
    entries: impl IntoIterator<Item = (PlanKey, Option<ChainPlan>)>,
) -> usize {
    plan_cache().preload(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_ir::MatMul;

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    fn attention_chain() -> MmChain {
        MmChain::try_new(vec![
            MatMul::new(1024, 64, 1024),
            MatMul::new(1024, 1024, 64),
        ])
        .unwrap()
    }

    #[test]
    fn single_matmul_plans_solo() {
        let chain = MmChain::single(MatMul::new(64, 64, 64));
        let plan = plan_chain(&MODEL, &chain, 4096);
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(plan.fused_pair_count(), 0);
        assert!(matches!(plan.steps()[0], ChainStep::Solo { index: 0, .. }));
    }

    #[test]
    fn attention_chain_fuses() {
        let plan = plan_chain(&MODEL, &attention_chain(), 64 * 1024);
        assert_eq!(plan.fused_pair_count(), 1);
        assert_eq!(plan.steps().len(), 1);
        // Fusing must beat the all-solo plan.
        let solo_total: u64 = (0..2)
            .map(|i| {
                try_optimize_with(&MODEL, attention_chain().mm(i), 64 * 1024)
                    .unwrap()
                    .total_ma()
            })
            .sum();
        assert!(plan.total_ma() < solo_total);
    }

    #[test]
    fn plan_never_worse_than_all_solo() {
        let chains = [
            attention_chain(),
            MmChain::try_new(vec![
                MatMul::new(128, 512, 128),
                MatMul::new(128, 128, 512),
                MatMul::new(128, 512, 64),
            ])
            .unwrap(),
        ];
        for chain in chains {
            for bs in [512u64, 8_192, 262_144] {
                let plan = plan_chain(&MODEL, &chain, bs);
                let solo_total: u64 = (0..chain.len())
                    .map(|i| try_optimize_with(&MODEL, chain.mm(i), bs).unwrap().total_ma())
                    .sum();
                assert!(plan.total_ma() <= solo_total, "bs={bs}");
                // Steps cover every matmul exactly once.
                let covered: usize = plan.steps().iter().map(ChainStep::width).sum();
                assert_eq!(covered, chain.len());
                // Reported total matches the steps.
                let step_total: u64 = plan.steps().iter().map(ChainStep::ma).sum();
                assert_eq!(step_total, plan.total_ma());
            }
        }
    }

    #[test]
    fn three_chain_picks_best_single_pair() {
        // In a 3-matmul chain only one adjacent pair can fuse; the planner
        // must pick the better one.
        let chain = MmChain::try_new(vec![
            MatMul::new(256, 32, 2048), // big intermediate after mm0
            MatMul::new(256, 2048, 32), // big intermediate consumed by mm1
            MatMul::new(256, 32, 32),   // small tail
        ])
        .unwrap();
        let plan = plan_chain(&MODEL, &chain, 32 * 1024);
        assert!(plan.fused_pair_count() >= 1);
        if let ChainStep::Pair { index, .. } = plan.steps()[0] {
            assert_eq!(index, 0, "the large intermediate pair should fuse first");
        } else {
            panic!("expected the first step to be the fused large pair");
        }
    }

    #[test]
    fn tiny_buffer_returns_none_instead_of_panicking() {
        // Regression: probing a sub-minimal buffer used to abort inside
        // `plan_chain`'s unwrap; the fallible entry point reports it.
        assert!(try_plan_chain(&MODEL, &attention_chain(), 2).is_none());
        // Three elements is the minimum footprint of any dataflow, solo or
        // fused — the smallest buffer with a definable plan.
        let plan = try_plan_chain(&MODEL, &attention_chain(), 3).unwrap();
        assert_eq!(
            plan.steps().iter().map(ChainStep::width).sum::<usize>(),
            attention_chain().len()
        );
    }

    #[test]
    fn cached_plan_matches_direct() {
        let chain = attention_chain();
        for bs in [2u64, 512, 64 * 1024] {
            assert_eq!(
                try_plan_chain_cached(&MODEL, &chain, bs),
                try_plan_chain(&MODEL, &chain, bs),
                "bs={bs}"
            );
        }
        // Second lookup of a cached key is a hit.
        let before = plan_cache_stats();
        let _ = try_plan_chain_cached(&MODEL, &chain, 64 * 1024);
        let delta = plan_cache_stats().since(before);
        assert_eq!((delta.hits, delta.misses), (1, 0));
    }

    #[test]
    fn from_steps_round_trips_a_plan() {
        let plan = plan_chain(&MODEL, &attention_chain(), 64 * 1024);
        let rebuilt = ChainPlan::from_steps(plan.steps().to_vec(), plan.buffer());
        assert_eq!(rebuilt, plan);
    }

    #[test]
    fn display_summarizes_plan() {
        let plan = plan_chain(&MODEL, &attention_chain(), 64 * 1024);
        let s = plan.to_string();
        assert!(s.contains("fused") && s.contains("total ma"), "{s}");
    }
}
