//! Whole-graph fusion planning: minimum-memory-access fusion structure
//! over an operator DAG.
//!
//! [`plan_chain`](crate::planner::plan_chain) partitions one linear chain;
//! real transformer blocks branch (Q/K/V fan-out, residual adds), and the
//! greedy chain decomposition claims fan-in consumers by insertion order,
//! silently dropping fusion candidates. This module plans over the
//! [`MmDag`] instead — every matmul plus *every* fusable link — and picks
//! the fusion structure directly.
//!
//! A fusion structure is a **vertex-disjoint path cover** of the link
//! graph: each chosen path of `k ≥ 2` matmuls executes as one fused unit
//! (a pair for `k = 2`, a k-ary chain holding every interior intermediate
//! resident for `k ≥ 3`), and no two paths share a matmul. Each candidate
//! path is weighted by the memory access it saves over running its
//! matmuls solo (instance counts applied); depth-2 paths are priced by the
//! closed-form pair oracle — bit-identical to the historical max-weight
//! matching — and deeper paths by the [`crate::chain`] oracle. The planner
//! finds the maximum-saving disjoint path set per link component by
//! exhaustive branch-and-bound (components of transformer graphs hold a
//! handful of matmuls), yielding to a deterministic greedy sweep above
//! [`PlannerConfig::exact_search_max_links`] candidates. When no deeper
//! path has positive saving the cover degenerates to the pair matching,
//! and with no profitable links at all, to solo execution — so the planner
//! can never be worse than either predecessor.

use std::fmt;
use std::sync::OnceLock;

use fusecu_dataflow::memo::{MemoCache, SectionCounters};
use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::{CostModel, Dataflow};
use fusecu_ir::{MatMul, MmDag, NodeId, OpGraph};

use crate::chain::{optimize_chain_cached, FusedChain, FusedChainDataflow};
use crate::nest::FusedDataflow;
use crate::optimizer::{optimize_pair_cached, try_decide, FusionDecision};
use crate::pair::FusedPair;
use crate::planner::{try_plan_chain_cached, ChainStep};

/// Tunable knobs of the whole-graph planner. [`Default`] reproduces the
/// shipped behavior; tests and ablations construct their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Per-component candidate budget of the exact branch-and-bound cover
    /// search (historically a hard-coded 24-link cutoff); components with
    /// more positive-saving candidates fall back to a deterministic
    /// heaviest-first greedy sweep. Exhaustive search stays tractable well
    /// past any transformer component, so the sweep is a safety valve for
    /// adversarial dense graphs, not a path the zoo reaches.
    pub exact_search_max_links: usize,
    /// Longest fused path (in matmuls) the planner may realize. Depth 2
    /// restricts planning to the classical pair matching; the default
    /// covers every chain a transformer block exposes.
    pub max_fusion_depth: usize,
}

impl Default for PlannerConfig {
    fn default() -> PlannerConfig {
        PlannerConfig {
            exact_search_max_links: 24,
            max_fusion_depth: 6,
        }
    }
}

impl PlannerConfig {
    /// The configuration restricting fusion to pairs — the historical
    /// max-weight matching planner.
    pub fn pairs_only() -> PlannerConfig {
        PlannerConfig {
            max_fusion_depth: 2,
            ..PlannerConfig::default()
        }
    }
}

/// One step of a whole-graph fusion plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphStep {
    /// The matmul at `node` executes alone with its optimal intra-dataflow.
    Solo {
        /// Graph node of the matmul.
        node: NodeId,
        /// Instance count of the node.
        count: u64,
        /// Its principle-optimal dataflow.
        dataflow: Dataflow,
    },
    /// The matmuls at `producer` and `consumer` execute as a fused pair.
    Fused {
        /// Graph node of the producer matmul.
        producer: NodeId,
        /// Graph node of the consumer matmul.
        consumer: NodeId,
        /// Instance count (equal on both endpoints by link construction).
        count: u64,
        /// The fused dataflow.
        fused: FusedDataflow,
    },
    /// Three or more matmuls execute as one k-ary fused chain, every
    /// interior intermediate resident on chip.
    FusedChain {
        /// Graph nodes of the chained matmuls, producer-most first.
        nodes: Vec<NodeId>,
        /// Instance count (equal along the path by link construction).
        count: u64,
        /// The fused chain dataflow.
        chain: FusedChainDataflow,
    },
}

impl GraphStep {
    /// Memory access of one instance of this step.
    pub fn ma(&self) -> u64 {
        match self {
            GraphStep::Solo { dataflow, .. } => dataflow.total_ma(),
            GraphStep::Fused { fused, .. } => fused.total_ma(),
            GraphStep::FusedChain { chain, .. } => chain.total_ma(),
        }
    }

    /// Memory access of the step with its instance count applied.
    pub fn total_ma(&self) -> u64 {
        self.ma() * self.count()
    }

    /// Instance count of the step.
    pub fn count(&self) -> u64 {
        match self {
            GraphStep::Solo { count, .. }
            | GraphStep::Fused { count, .. }
            | GraphStep::FusedChain { count, .. } => *count,
        }
    }

    /// Number of matmuls the step covers (1, 2, or the chain depth).
    pub fn width(&self) -> usize {
        match self {
            GraphStep::Solo { .. } => 1,
            GraphStep::Fused { .. } => 2,
            GraphStep::FusedChain { nodes, .. } => nodes.len(),
        }
    }
}

/// A minimum-memory-access fusion plan for a whole operator graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphPlan {
    steps: Vec<GraphStep>,
    total_ma: u64,
    buffer: u64,
}

impl GraphPlan {
    /// Rebuilds a plan from its steps, recomputing the total from them.
    /// This is the reconstruction entry point for the disk persistence
    /// layer; planning always goes through [`try_plan_graph`].
    pub fn from_steps(steps: Vec<GraphStep>, buffer: u64) -> GraphPlan {
        let total_ma = steps.iter().map(GraphStep::total_ma).sum();
        GraphPlan {
            steps,
            total_ma,
            buffer,
        }
    }

    /// The steps, in matmul node order (fused steps sort by producer).
    pub fn steps(&self) -> &[GraphStep] {
        &self.steps
    }

    /// Total memory access over the graph, instance counts applied.
    pub fn total_ma(&self) -> u64 {
        self.total_ma
    }

    /// The buffer size the plan was computed for.
    pub fn buffer(&self) -> u64 {
        self.buffer
    }

    /// Number of fused pairs in the plan (not weighted by count).
    pub fn fused_pair_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, GraphStep::Fused { .. }))
            .count()
    }

    /// Number of fused steps of any depth — pairs and deeper chains.
    pub fn fused_step_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| !matches!(s, GraphStep::Solo { .. }))
            .count()
    }

    /// Deepest fusion in the plan: the widest step's matmul count
    /// (1 when everything runs solo).
    pub fn max_fusion_depth(&self) -> usize {
        self.steps.iter().map(GraphStep::width).max().unwrap_or(1)
    }

    /// Number of solo steps in the plan (not weighted by count).
    pub fn solo_count(&self) -> usize {
        self.steps.len() - self.fused_step_count()
    }

    /// Histogram of step widths: `hist[d]` counts steps covering exactly
    /// `d + 1` matmuls (`hist[0]` = solos, `hist[1]` = pairs, …).
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_fusion_depth()];
        for step in &self.steps {
            hist[step.width() - 1] += 1;
        }
        hist
    }
}

impl fmt::Display for GraphPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            match step {
                GraphStep::Solo {
                    node,
                    count,
                    dataflow,
                } => {
                    writeln!(
                        f,
                        "  n{}: solo  x{count} ma={}",
                        node.0,
                        dataflow.total_ma()
                    )?;
                }
                GraphStep::Fused {
                    producer,
                    consumer,
                    count,
                    fused,
                } => {
                    writeln!(
                        f,
                        "  n{}+n{}: fused x{count} ma={}",
                        producer.0,
                        consumer.0,
                        fused.total_ma()
                    )?;
                }
                GraphStep::FusedChain {
                    nodes,
                    count,
                    chain,
                } => {
                    let path: Vec<String> = nodes.iter().map(|n| format!("n{}", n.0)).collect();
                    writeln!(
                        f,
                        "  {}: chain x{count} ma={}",
                        path.join("+"),
                        chain.total_ma()
                    )?;
                }
            }
        }
        write!(f, "  total ma = {}", self.total_ma)
    }
}

/// The fused realization of one candidate path.
enum CoverKind {
    Pair(FusedDataflow),
    Chain(FusedChainDataflow),
}

/// A candidate path whose fused execution saves memory access over its
/// matmuls' solo optima: the covered matmul indices (producer-most
/// first), the fused dataflow, and the saving with counts applied.
struct Candidate {
    mms: Vec<usize>,
    kind: CoverKind,
    weight: u64,
}

/// Maximum-weight vertex-disjoint cover over one component's candidates.
/// `cands` must be sorted heaviest-first; returns indices into it.
/// Exhaustive include/exclude search with a suffix-sum bound; include-first
/// plus a strict improvement test makes ties resolve toward heavier,
/// earlier candidates, deterministically.
fn best_cover(config: &PlannerConfig, cands: &[&Candidate], n_mms: usize) -> Vec<usize> {
    let free = |used: &[bool], c: &Candidate| c.mms.iter().all(|&m| !used[m]);
    let claim = |used: &mut [bool], c: &Candidate, v: bool| {
        for &m in &c.mms {
            used[m] = v;
        }
    };

    if cands.len() > config.exact_search_max_links {
        // Greedy fallback: heaviest candidate first, skip anything touching
        // a claimed matmul. Never reached by the zoo; a safety valve for
        // adversarial dense graphs.
        let mut used = vec![false; n_mms];
        let mut picked = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            if free(&used, c) {
                claim(&mut used, c, true);
                picked.push(i);
            }
        }
        return picked;
    }

    // suffix[i]: total weight still reachable from candidate i on — the
    // branch-and-bound pruning bound. Every kept candidate has weight > 0,
    // so "can't strictly beat the incumbent" is a safe cut.
    let suffix: Vec<u64> = {
        let mut s = vec![0u64; cands.len() + 1];
        for i in (0..cands.len()).rev() {
            s[i] = s[i + 1] + cands[i].weight;
        }
        s
    };

    struct Search<'a> {
        cands: &'a [&'a Candidate],
        suffix: &'a [u64],
    }
    impl Search<'_> {
        fn run(
            &self,
            i: usize,
            used: &mut [bool],
            cur: &mut Vec<usize>,
            cur_w: u64,
            best: &mut (u64, Vec<usize>),
        ) {
            if cur_w + self.suffix[i] <= best.0 {
                return;
            }
            if i == self.cands.len() {
                *best = (cur_w, cur.clone());
                return;
            }
            let c = self.cands[i];
            if c.mms.iter().all(|&m| !used[m]) {
                for &m in &c.mms {
                    used[m] = true;
                }
                cur.push(i);
                self.run(i + 1, used, cur, cur_w + c.weight, best);
                cur.pop();
                for &m in &c.mms {
                    used[m] = false;
                }
            }
            self.run(i + 1, used, cur, cur_w, best);
        }
    }

    let mut best = (0u64, Vec::new());
    let mut used = vec![false; n_mms];
    Search {
        cands,
        suffix: &suffix,
    }
    .run(0, &mut used, &mut Vec::new(), 0, &mut best);
    best.1
}

/// Scores one candidate path against its matmuls' solo optima, keeping it
/// only when the fused execution strictly saves memory access. Depth-2
/// paths are priced by the pair oracle and deeper paths by the k-ary chain
/// oracle; for a pair the strict-saving test against the two solo optima
/// is Principle 4's profitability verdict, so the weights are exactly the
/// historical matching weights.
fn score_path(
    model: &CostModel,
    dag: &MmDag,
    solo: &[Dataflow],
    path: &[usize],
    bs: u64,
) -> Option<Candidate> {
    let mms = dag.mms();
    let count = mms[path[0]].2;
    let solo_ma: u64 = path.iter().map(|&i| solo[i].total_ma()).sum();
    let (kind, fused_ma) = if path.len() == 2 {
        let pair = FusedPair::try_new(mms[path[0]].1, mms[path[1]].1).ok()?;
        let fused = optimize_pair_cached(model, pair, bs)?;
        let ma = fused.total_ma();
        (CoverKind::Pair(fused), ma)
    } else {
        let shapes: Vec<_> = path.iter().map(|&i| mms[i].1).collect();
        let chain = FusedChain::try_new(&shapes).ok()?;
        let fused = optimize_chain_cached(model, &chain, bs)?;
        let ma = fused.total_ma();
        (CoverKind::Chain(fused), ma)
    };
    let saved = solo_ma.checked_sub(fused_ma)?;
    (saved > 0).then_some(Candidate {
        mms: path.to_vec(),
        kind,
        weight: saved * count,
    })
}

/// Plans a whole matmul DAG under an explicit [`PlannerConfig`]: every
/// matmul runs solo at its principle-optimal dataflow unless a profitable
/// candidate path claims it into a fused pair or deeper chain, and the
/// chosen paths form the maximum-saving vertex-disjoint cover of the link
/// graph. Returns `None` when `bs` cannot hold any dataflow at all
/// (`bs < 3`).
pub fn try_plan_dag_with(
    config: &PlannerConfig,
    model: &CostModel,
    dag: &MmDag,
    bs: u64,
) -> Option<GraphPlan> {
    let mms = dag.mms();
    // Graphs repeat shapes (a layer's Q/K/V/output projections): solve each
    // distinct shape once.
    let mut solved: Vec<(MatMul, Dataflow)> = Vec::new();
    let solo: Vec<Dataflow> = mms
        .iter()
        .map(|&(_, mm, _)| {
            if let Some(&(_, df)) = solved.iter().find(|(shape, _)| *shape == mm) {
                return Some(df);
            }
            let df = try_optimize_with(model, mm, bs)?;
            solved.push((mm, df));
            Some(df)
        })
        .collect::<Option<_>>()?;

    // Score every candidate path with the closed-form oracles; keep the
    // ones that beat their matmuls' solo optima.
    let mut cands: Vec<Candidate> = dag
        .simple_paths(config.max_fusion_depth.max(2))
        .iter()
        .filter_map(|path| score_path(model, dag, &solo, path, bs))
        .collect();
    cands.sort_by(|a, b| {
        b.weight
            .cmp(&a.weight)
            .then(a.mms.len().cmp(&b.mms.len()))
            .then_with(|| a.mms.cmp(&b.mms))
    });

    // Disjoint covers never cross components, so search each independently.
    let mut fused_of: Vec<Option<&Candidate>> = vec![None; mms.len()];
    for component in dag.components() {
        let comp: Vec<&Candidate> = cands
            .iter()
            .filter(|c| component.contains(&c.mms[0]))
            .collect();
        if comp.is_empty() {
            continue;
        }
        for picked in best_cover(config, &comp, mms.len()) {
            let c = comp[picked];
            for &m in &c.mms {
                fused_of[m] = Some(c);
            }
        }
    }

    let mut steps = Vec::new();
    for (i, (node, _, count)) in mms.iter().enumerate() {
        match fused_of[i] {
            Some(c) if c.mms[0] == i => {
                steps.push(match &c.kind {
                    CoverKind::Pair(fused) => {
                        let (consumer, _, _) = mms[c.mms[1]];
                        GraphStep::Fused {
                            producer: *node,
                            consumer,
                            count: *count,
                            fused: *fused,
                        }
                    }
                    CoverKind::Chain(chain) => GraphStep::FusedChain {
                        nodes: c.mms.iter().map(|&m| mms[m].0).collect(),
                        count: *count,
                        chain: chain.clone(),
                    },
                });
            }
            Some(_) => {} // interior/consumer matmul: emitted with its head
            None => steps.push(GraphStep::Solo {
                node: *node,
                count: *count,
                dataflow: solo[i],
            }),
        }
    }
    Some(GraphPlan::from_steps(steps, bs))
}

/// Plans a whole matmul DAG with the default [`PlannerConfig`]. Returns
/// `None` when `bs` cannot hold any dataflow at all (`bs < 3`).
pub fn try_plan_dag(model: &CostModel, dag: &MmDag, bs: u64) -> Option<GraphPlan> {
    try_plan_dag_with(&PlannerConfig::default(), model, dag, bs)
}

/// Plans a whole operator graph via its fusable-link DAG. Returns `None`
/// when `bs < 3` (no dataflow fits at all).
pub fn try_plan_graph(model: &CostModel, graph: &OpGraph, bs: u64) -> Option<GraphPlan> {
    try_plan_dag(model, &graph.mm_dag(), bs)
}

/// Panicking form of [`try_plan_graph`], for callers that have already
/// validated the buffer (e.g. via `ArraySpec::validate`).
///
/// # Panics
///
/// Panics when `bs < 3` (no dataflow fits at all).
pub fn plan_graph(model: &CostModel, graph: &OpGraph, bs: u64) -> GraphPlan {
    try_plan_graph(model, graph, bs)
        .unwrap_or_else(|| panic!("buffer of {bs} elements cannot hold any tile"))
}

/// The memoization key of one whole-graph planning problem (under the
/// default [`PlannerConfig`]).
pub type GraphKey = (MmDag, u64, CostModel);

/// The process-wide whole-graph plan cache.
pub fn graph_cache() -> &'static MemoCache<GraphKey, Option<GraphPlan>> {
    static CACHE: OnceLock<MemoCache<GraphKey, Option<GraphPlan>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Memoized [`try_plan_dag`]: ablation grids re-plan the same model graph
/// for every `ArraySpec`, but the plan depends only on `(dag, bs, model)`.
pub fn try_plan_dag_cached(model: &CostModel, dag: &MmDag, bs: u64) -> Option<GraphPlan> {
    graph_cache().get_or_compute((dag.clone(), bs, *model), || try_plan_dag(model, dag, bs))
}

/// [`try_plan_dag_cached`]'s plan read through `read` if it is already
/// cached (a hit), else `None` without planning or counting anything
/// ([`MemoCache::get`]).
pub fn try_plan_dag_if_cached<R>(
    model: &CostModel,
    dag: &MmDag,
    bs: u64,
    read: impl FnOnce(Option<&GraphPlan>) -> R,
) -> Option<R> {
    graph_cache().get(&(dag.clone(), bs, *model), |plan| read(plan.as_ref()))
}

/// Memoized [`try_plan_graph`].
pub fn try_plan_graph_cached(model: &CostModel, graph: &OpGraph, bs: u64) -> Option<GraphPlan> {
    try_plan_dag_cached(model, &graph.mm_dag(), bs)
}

/// Per-section counters of the process-wide graph-plan cache, for
/// machine-readable stats (`--stats-json`, the serve daemon).
pub fn graph_cache_counters() -> SectionCounters {
    graph_cache().counters("graphs")
}

/// Drops all graph-plan cache entries and resets its counters — for
/// tests and the stress harness's cold-start-per-process baseline.
pub fn graph_cache_clear() {
    graph_cache().clear();
}

/// Preloads graph-plan entries saved by an earlier process; returns the
/// number inserted. Counters are untouched.
pub fn graph_cache_preload(
    entries: impl IntoIterator<Item = (GraphKey, Option<GraphPlan>)>,
) -> usize {
    graph_cache().preload(entries)
}

/// The legacy chain-decomposition plan lifted to a [`GraphPlan`]: the
/// graph is split by [`OpGraph::mm_chains`] (deterministic fan-in
/// claiming) and each chain planned by the pairwise chain DP. Kept as the
/// comparison baseline — on branchy graphs [`try_plan_graph`] must never
/// be worse than this, and the delta is exactly what whole-graph planning
/// buys.
pub fn try_plan_graph_chained(model: &CostModel, graph: &OpGraph, bs: u64) -> Option<GraphPlan> {
    let mut steps = Vec::new();
    for (ids, chain, count) in graph.mm_chains() {
        let plan = try_plan_chain_cached(model, &chain, bs)?;
        for step in plan.steps() {
            steps.push(match step {
                ChainStep::Solo { index, dataflow } => GraphStep::Solo {
                    node: ids[*index],
                    count,
                    dataflow: *dataflow,
                },
                ChainStep::Pair { index, fused } => GraphStep::Fused {
                    producer: ids[*index],
                    consumer: ids[*index + 1],
                    count,
                    fused: *fused,
                },
            });
        }
    }
    steps.sort_by_key(|s| match s {
        GraphStep::Solo { node, .. } => *node,
        GraphStep::Fused { producer, .. } => *producer,
        GraphStep::FusedChain { nodes, .. } => nodes[0],
    });
    Some(GraphPlan::from_steps(steps, bs))
}

/// Chain decomposition with cost-aware fan-in claiming: at each fan-in
/// site the producer whose fused pairing with the consumer saves the most
/// memory access (at this model/buffer) wins the claim, instead of the
/// structural default. This is the "legacy path picks the lower-MA
/// pairing" fix for callers that still want chains.
pub fn min_ma_chains(
    model: &CostModel,
    graph: &OpGraph,
    bs: u64,
) -> Vec<(Vec<NodeId>, fusecu_ir::MmChain, u64)> {
    graph.mm_chains_by(|g, consumer, candidates| {
        let cmm = g
            .node(consumer)
            .kind
            .as_matmul()
            .expect("fan-in claim sites are matmuls");
        let gain = |id: NodeId| -> u64 {
            let n = g.node(id);
            let Some(pmm) = n.kind.as_matmul() else {
                return 0;
            };
            let Ok(pair) = FusedPair::try_new(pmm, cmm) else {
                return 0;
            };
            try_decide(model, pair, bs)
                .filter(FusionDecision::profitable)
                .map_or(0, |d| d.saved_ma() * n.count)
        };
        let mut best = candidates[0];
        let mut best_gain = gain(best);
        for &c in &candidates[1..] {
            let w = gain(c);
            if w > best_gain {
                best = c;
                best_gain = w;
            }
        }
        best
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_chain;
    use fusecu_ir::{MatMul, MmChain};

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    fn attention_graph(count: u64) -> OpGraph {
        let mut g = OpGraph::new();
        let a = g.add_matmul("qk", MatMul::new(1024, 64, 1024), count);
        let s = g.add_softmax("sm", 1024, 1024, count);
        let b = g.add_matmul("pv", MatMul::new(1024, 1024, 64), count);
        g.connect(a, s);
        g.connect(s, b);
        g
    }

    /// A linear graph over an arbitrary matmul sequence, fusable wherever
    /// the shapes chain.
    fn path_graph(shapes: &[MatMul]) -> OpGraph {
        let mut g = OpGraph::new();
        let mut prev = None;
        for (i, mm) in shapes.iter().enumerate() {
            let n = g.add_matmul(format!("mm{i}"), *mm, 1);
            if let Some(p) = prev {
                g.connect(p, n);
            }
            prev = Some(n);
        }
        g
    }

    #[test]
    fn linear_chain_graph_plan_matches_chain_dp() {
        let g = attention_graph(192);
        let chain = MmChain::try_new(vec![
            MatMul::new(1024, 64, 1024),
            MatMul::new(1024, 1024, 64),
        ])
        .unwrap();
        for bs in [512u64, 8_192, 64 * 1024] {
            let gp = try_plan_graph(&MODEL, &g, bs).unwrap();
            let cp = plan_chain(&MODEL, &chain, bs);
            assert_eq!(gp.total_ma(), cp.total_ma() * 192, "bs={bs}");
            assert_eq!(gp.fused_pair_count(), cp.fused_pair_count(), "bs={bs}");
        }
    }

    #[test]
    fn graph_plan_weights_by_count() {
        let plan = plan_graph(&MODEL, &attention_graph(192), 64 * 1024);
        assert_eq!(plan.fused_pair_count(), 1);
        assert_eq!(plan.steps().len(), 1);
        assert_eq!(plan.total_ma(), plan.steps()[0].ma() * 192);
    }

    /// Two shape-compatible producers feed one consumer through a residual
    /// add. One is a fat cross-NRA producer that cannot profitably fuse,
    /// the other fuses well — but the fat one was inserted first.
    fn fan_in_graph(good_first: bool) -> (OpGraph, NodeId, NodeId) {
        let mut g = OpGraph::new();
        let mk_bad = |g: &mut OpGraph| g.add_matmul("bad", MatMul::new(1024, 4096, 1024), 1);
        let mk_good = |g: &mut OpGraph| g.add_matmul("good", MatMul::new(1024, 64, 1024), 1);
        let (bad, good) = if good_first {
            let good = mk_good(&mut g);
            let bad = mk_bad(&mut g);
            (bad, good)
        } else {
            let bad = mk_bad(&mut g);
            let good = mk_good(&mut g);
            (bad, good)
        };
        let add = g.add_elementwise("residual", 1024 * 1024, 1);
        let q = g.add_matmul("consumer", MatMul::new(1024, 1024, 64), 1);
        g.connect(bad, add);
        g.connect(good, add);
        g.connect(add, q);
        (g, bad, good)
    }

    #[test]
    fn fan_in_planner_picks_the_lower_ma_pairing() {
        for good_first in [false, true] {
            let (g, bad, good) = fan_in_graph(good_first);
            let plan = try_plan_graph(&MODEL, &g, 64 * 1024).unwrap();
            assert_eq!(plan.fused_pair_count(), 1, "good_first={good_first}");
            let fused_producer = plan
                .steps()
                .iter()
                .find_map(|s| match s {
                    GraphStep::Fused { producer, .. } => Some(*producer),
                    _ => None,
                })
                .unwrap();
            assert_eq!(
                fused_producer, good,
                "planner must fuse the profitable producer regardless of insertion order"
            );
            assert_ne!(fused_producer, bad);
        }
    }

    #[test]
    fn fan_in_plan_total_is_insertion_order_invariant() {
        let (g1, ..) = fan_in_graph(false);
        let (g2, ..) = fan_in_graph(true);
        let p1 = try_plan_graph(&MODEL, &g1, 64 * 1024).unwrap();
        let p2 = try_plan_graph(&MODEL, &g2, 64 * 1024).unwrap();
        assert_eq!(p1.total_ma(), p2.total_ma());
    }

    #[test]
    fn dag_plan_never_worse_than_chained() {
        for good_first in [false, true] {
            let (g, ..) = fan_in_graph(good_first);
            for bs in [512u64, 8_192, 64 * 1024] {
                let dag = try_plan_graph(&MODEL, &g, bs).unwrap();
                let chained = try_plan_graph_chained(&MODEL, &g, bs).unwrap();
                assert!(
                    dag.total_ma() <= chained.total_ma(),
                    "bs={bs} good_first={good_first}: dag {} > chained {}",
                    dag.total_ma(),
                    chained.total_ma()
                );
            }
        }
    }

    #[test]
    fn min_ma_chains_claims_the_profitable_producer() {
        for good_first in [false, true] {
            let (g, _, good) = fan_in_graph(good_first);
            let chains = min_ma_chains(&MODEL, &g, 64 * 1024);
            let claimed = chains
                .iter()
                .find(|(ids, ..)| ids.len() == 2)
                .expect("the consumer chains with exactly one producer");
            assert_eq!(
                claimed.0[0], good,
                "cost-aware claiming must pick the profitable producer (good_first={good_first})"
            );
        }
    }

    #[test]
    fn tiny_buffer_returns_none_instead_of_panicking() {
        let (g, ..) = fan_in_graph(false);
        assert!(try_plan_graph(&MODEL, &g, 2).is_none());
        let plan = try_plan_graph(&MODEL, &g, 3).unwrap();
        let covered: usize = plan.steps().iter().map(GraphStep::width).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn cached_plan_matches_direct() {
        let (g, ..) = fan_in_graph(false);
        for bs in [2u64, 512, 64 * 1024] {
            assert_eq!(
                try_plan_graph_cached(&MODEL, &g, bs),
                try_plan_graph(&MODEL, &g, bs),
                "bs={bs}"
            );
        }
        let before = graph_cache().stats();
        let _ = try_plan_graph_cached(&MODEL, &g, 64 * 1024);
        let delta = graph_cache().stats().since(before);
        assert_eq!((delta.hits, delta.misses), (1, 0));
    }

    #[test]
    fn from_steps_round_trips_a_plan() {
        let plan = plan_graph(&MODEL, &attention_graph(12), 64 * 1024);
        let rebuilt = GraphPlan::from_steps(plan.steps().to_vec(), plan.buffer());
        assert_eq!(rebuilt, plan);
    }

    #[test]
    fn display_summarizes_plan() {
        let plan = plan_graph(&MODEL, &attention_graph(12), 64 * 1024);
        let s = plan.to_string();
        assert!(s.contains("fused") && s.contains("total ma"), "{s}");
    }

    #[test]
    fn pairs_only_cover_is_exact_on_a_path() {
        // A 4-matmul chain has 3 links; a matching can take links 0+2 or
        // just 1. Weights are the real oracle's — under the pairs-only
        // config the cover must equal the chain DP, which is exact on
        // pairs; the default (depth-aware) config may only improve on it.
        let shapes = [
            MatMul::new(256, 32, 2048),
            MatMul::new(256, 2048, 32),
            MatMul::new(256, 32, 2048),
            MatMul::new(256, 2048, 32),
        ];
        let chain = MmChain::try_new(shapes.to_vec()).unwrap();
        let g = path_graph(&shapes);
        let pairs_only = PlannerConfig::pairs_only();
        for bs in [4_096u64, 32 * 1024, 256 * 1024] {
            let dag = g.mm_dag();
            let pp = try_plan_dag_with(&pairs_only, &MODEL, &dag, bs).unwrap();
            let cp = plan_chain(&MODEL, &chain, bs);
            assert_eq!(pp.total_ma(), cp.total_ma(), "bs={bs}");
            let gp = try_plan_dag(&MODEL, &dag, bs).unwrap();
            assert!(gp.total_ma() <= pp.total_ma(), "bs={bs}");
        }
    }

    #[test]
    fn depth_three_chain_beats_the_best_pair_matching() {
        // The attention Q-suffix of `zoo::mini_attention`:
        // qk^T (24,8,24) → pv (24,24,8) → out_proj (24,8,16). With the
        // whole 24-wide intermediate panel resident, the depth-3 chain
        // reaches the external lower bound; any pair matching must leave
        // one intermediate in memory.
        let shapes = [
            MatMul::new(24, 8, 24),
            MatMul::new(24, 24, 8),
            MatMul::new(24, 8, 16),
        ];
        let g = path_graph(&shapes);
        let dag = g.mm_dag();
        let bs = 4_096;
        let deep = try_plan_dag(&MODEL, &dag, bs).unwrap();
        let pairs = try_plan_dag_with(&PlannerConfig::pairs_only(), &MODEL, &dag, bs).unwrap();
        assert_eq!(deep.max_fusion_depth(), 3);
        assert_eq!(deep.fused_step_count(), 1);
        let chain = FusedChain::try_new(&shapes).unwrap();
        assert_eq!(deep.total_ma(), chain.external_ideal_ma());
        assert!(
            deep.total_ma() < pairs.total_ma(),
            "depth-3 {} must strictly beat pairwise {}",
            deep.total_ma(),
            pairs.total_ma()
        );
    }

    #[test]
    fn unprofitable_depth_falls_back_to_the_pair_matching() {
        // A tiny buffer cannot hold any interior panel chain, so the
        // depth-aware planner must degrade to exactly the pair matching.
        let shapes = [
            MatMul::new(256, 32, 2048),
            MatMul::new(256, 2048, 32),
            MatMul::new(256, 32, 2048),
            MatMul::new(256, 2048, 32),
        ];
        let g = path_graph(&shapes);
        let dag = g.mm_dag();
        let bs = 4_096; // interior panels are 256x2048 or 256x32 wide
        let deep = try_plan_dag(&MODEL, &dag, bs).unwrap();
        let pairs = try_plan_dag_with(&PlannerConfig::pairs_only(), &MODEL, &dag, bs).unwrap();
        assert!(deep.total_ma() <= pairs.total_ma());
        if deep.max_fusion_depth() <= 2 {
            assert_eq!(deep, pairs);
        }
    }

    #[test]
    fn greedy_threshold_covers_both_sides_on_one_graph() {
        // Outer links save 2·32·48 each at this buffer, the middle link
        // 2·32·64: the greedy sweep grabs the heavy middle link and blocks
        // both outer ones, while the exact cover takes the outer pair.
        // The same graph planned on both sides of the hoisted threshold
        // pins the exact/greedy split.
        let shapes = [
            MatMul::new(32, 16, 48),
            MatMul::new(32, 48, 64),
            MatMul::new(32, 64, 48),
            MatMul::new(32, 48, 16),
        ];
        let g = path_graph(&shapes);
        let dag = g.mm_dag();
        let bs = 64 * 1024;
        let exact_cfg = PlannerConfig {
            exact_search_max_links: 24,
            max_fusion_depth: 2,
        };
        let greedy_cfg = PlannerConfig {
            exact_search_max_links: 2, // 3 candidate links > 2 -> greedy
            max_fusion_depth: 2,
        };
        let exact = try_plan_dag_with(&exact_cfg, &MODEL, &dag, bs).unwrap();
        let greedy = try_plan_dag_with(&greedy_cfg, &MODEL, &dag, bs).unwrap();
        assert_eq!(exact.fused_pair_count(), 2, "{exact}");
        assert_eq!(greedy.fused_pair_count(), 1, "{greedy}");
        assert!(
            exact.total_ma() < greedy.total_ma(),
            "exact {} must beat greedy {}",
            exact.total_ma(),
            greedy.total_ma()
        );
        // And the default config (exact, depth-aware) is never worse than
        // either restricted planner.
        let dflt = try_plan_dag(&MODEL, &dag, bs).unwrap();
        assert!(dflt.total_ma() <= exact.total_ma());
    }

    #[test]
    fn depth_histogram_counts_step_widths() {
        let shapes = [
            MatMul::new(24, 8, 24),
            MatMul::new(24, 24, 8),
            MatMul::new(24, 8, 16),
        ];
        let g = path_graph(&shapes);
        let plan = try_plan_graph(&MODEL, &g, 4_096).unwrap();
        assert_eq!(plan.depth_histogram(), vec![0, 0, 1]);
        let solo_heavy = plan_graph(&MODEL, &attention_graph(1), 3);
        assert_eq!(solo_heavy.depth_histogram().len(), solo_heavy.max_fusion_depth());
    }
}
