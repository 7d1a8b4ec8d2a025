//! Differential proof that the two traffic-accounting tiers agree.
//!
//! The driver prices a nest two ways: the naive walk
//! ([`fusecu_sim::driver::oracle`], one residency check per slot per
//! innermost body, and the walk the tiled replays run on) and the closed
//! form (no tile loops at all). Correctness rests on both producing
//! byte-identical counters, and on those counters equalling the
//! analytical model — this suite is that proof, over randomized orders
//! and tilings plus pinned boundary shapes (unit tiles, full-dimension
//! tiles, untiled axes, ragged edges, single-iteration loops).
//!
//! Tile ranges deliberately exceed the dimension ranges: both tiers and
//! the analytical model clamp oversized tiles, so `tile > dim` must be
//! exercised, not filtered out.

use proptest::prelude::*;

use fusecu_dataflow::{CostModel, LoopNest, MemoryAccess, Tiling};
use fusecu_fusion::{ExtTensor, FusedNest, FusedPair, FusedTiling};
use fusecu_ir::MatMul;
use fusecu_sim::driver::{measure_fused_nest, measure_nest, oracle};

fn model() -> CostModel {
    CostModel::paper()
}

/// Asserts naive == closed-form == analytical for one nest.
fn assert_nest_paths_agree(mm: MatMul, nest: &LoopNest) -> MemoryAccess {
    let naive = oracle::measure_nest(mm, nest);
    let closed = measure_nest(mm, nest);
    let predicted = model().evaluate(mm, nest);
    assert_eq!(closed, naive, "closed form vs naive oracle: {mm} {nest:?}");
    assert_eq!(closed, predicted, "closed form vs model: {mm} {nest:?}");
    closed
}

/// Asserts the fused tiers agree and match `FusedNest::evaluate`.
fn assert_fused_paths_agree(pair: &FusedPair, nest: &FusedNest) -> [u64; 4] {
    let naive = oracle::measure_fused_nest(pair, nest);
    let closed = measure_fused_nest(pair, nest);
    assert_eq!(closed, naive, "closed form vs naive oracle: {pair} {nest}");
    let predicted = nest.evaluate(&model(), pair);
    for (slot, t) in ExtTensor::ALL.iter().enumerate() {
        assert_eq!(
            closed[slot],
            predicted.of(*t),
            "closed form vs model for {t:?}: {pair} {nest}"
        );
    }
    closed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random shape × order × (possibly oversized, ragged) tiling.
    #[test]
    fn nest_tiers_agree_on_random_genomes(
        m in 1u64..24,
        k in 1u64..24,
        l in 1u64..24,
        order_ix in 0usize..6,
        tm in 1u64..32,
        tk in 1u64..32,
        tl in 1u64..32,
    ) {
        let mm = MatMul::new(m, k, l);
        let nest = LoopNest::new(LoopNest::orders()[order_ix], Tiling::new(tm, tk, tl));
        assert_nest_paths_agree(mm, &nest);
    }

    /// Random fused pair × shared-loop order × ragged four-way tiling.
    #[test]
    fn fused_tiers_agree_on_random_genomes(
        m in 1u64..16,
        k in 1u64..16,
        l in 1u64..16,
        n in 1u64..16,
        outer in 0u8..2,
        tm in 1u64..20,
        tk in 1u64..20,
        tl in 1u64..20,
        tn in 1u64..20,
    ) {
        let pair = FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap();
        let nest = FusedNest::new(outer == 0, FusedTiling::new(tm, tk, tl, tn));
        assert_fused_paths_agree(&pair, &nest);
    }
}

/// Boundary tilings pinned deterministically so a failure prints the
/// concrete nest rather than a shrunken proptest case.
#[test]
fn nest_tiers_agree_on_boundary_tilings() {
    let mm = MatMul::new(12, 10, 8);
    let tilings = [
        Tiling::new(1, 1, 1),    // unit tiles: one run per body everywhere
        Tiling::new(12, 10, 8),  // full-dim: every loop single-iteration
        Tiling::new(64, 64, 64), // oversized: must clamp to full-dim
        Tiling::new(5, 10, 3),   // ragged M and L edges, untiled K
        Tiling::new(12, 3, 8),   // only K iterates
        Tiling::new(5, 4, 3),    // ragged on every axis
        Tiling::new(12, 10, 3),  // single non-trivial innermost-capable axis
        Tiling::new(7, 7, 7),    // ragged, no axis divides evenly
    ];
    for order in LoopNest::orders() {
        for tiling in tilings {
            let nest = LoopNest::new(order, tiling);
            assert_nest_paths_agree(mm, &nest);
        }
    }
}

/// Degenerate shapes: vectors and scalars exercise `count == 1` and
/// `edge == full` simultaneously.
#[test]
fn nest_tiers_agree_on_degenerate_shapes() {
    for mm in [
        MatMul::new(1, 1, 1),
        MatMul::new(1, 9, 1),
        MatMul::new(16, 1, 4),
        MatMul::new(2, 2, 2),
    ] {
        for order in LoopNest::orders() {
            for t in [1u64, 2, 3, 16] {
                let nest = LoopNest::new(order, Tiling::new(t, t, t));
                assert_nest_paths_agree(mm, &nest);
            }
        }
    }
}

#[test]
fn fused_tiers_agree_on_boundary_tilings() {
    let pair = FusedPair::try_new(MatMul::new(10, 6, 12), MatMul::new(10, 12, 8)).unwrap();
    let tilings = [
        FusedTiling::new(1, 1, 1, 1),     // unit tiles
        FusedTiling::new(10, 6, 12, 8),   // full-dim everywhere
        FusedTiling::new(32, 32, 32, 32), // oversized: clamps to full-dim
        FusedTiling::new(4, 6, 5, 8),     // ragged shared dims, whole phases
        FusedTiling::new(10, 4, 12, 3),   // whole shared dims, ragged phases
        FusedTiling::new(3, 4, 5, 6),     // ragged everywhere
        FusedTiling::new(10, 6, 5, 8),    // only L iterates among shared dims
    ];
    for outer_is_m in [true, false] {
        for tiling in tilings {
            let nest = FusedNest::new(outer_is_m, tiling);
            assert_fused_paths_agree(&pair, &nest);
        }
    }
}

// --- k-ary fused chains: the depth-parametric model vs the simulator ---

use fusecu_fusion::{
    try_plan_dag_with, ChainNest, FusedChain, PlannerConfig,
};
use fusecu_ir::OpGraph;
use fusecu_sim::driver::{execute_fused_chain, measure_fused_chain};
use fusecu_sim::Matrix;

/// Asserts the two chain tiers agree and match [`ChainNest::evaluate`].
fn assert_chain_paths_agree(chain: &FusedChain, nest: &ChainNest) -> Vec<u64> {
    let naive = oracle::measure_fused_chain(chain, nest);
    let closed = measure_fused_chain(chain, nest);
    assert_eq!(closed, naive, "closed form vs naive oracle: {chain} {nest:?}");
    let predicted = nest.evaluate(&model(), chain);
    assert_eq!(
        closed,
        predicted.per_tensor(),
        "closed form vs analytical model: {chain} {nest:?}"
    );
    closed
}

/// A random fan-out tree of matmuls over a shared `M`: node `i > 0`
/// consumes the output of a random earlier node, so every prefix of
/// `parents`/`dims` is a valid DAG with chains, forks, and solo leaves.
fn tree_graph(m: u64, head: u64, dims: &[u64], parents: &[usize]) -> OpGraph {
    let mut g = OpGraph::new();
    let mut ids = Vec::new();
    let mut cols = Vec::new();
    for (i, (&n, &p)) in dims.iter().zip(parents).enumerate() {
        let k = if i == 0 { head } else { cols[p % i] };
        let id = g.add_matmul(format!("mm{i}"), MatMul::new(m, k, n), 1);
        if i > 0 {
            g.connect(ids[p % i], id);
        }
        ids.push(id);
        cols.push(n);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random chain depth × dims × (possibly oversized, ragged) tiling:
    /// naive == closed form == analytical, at any depth.
    #[test]
    fn chain_tiers_agree_on_random_genomes(
        dims in proptest::collection::vec(1u64..12, 3..7),
        t_m in 1u64..16,
        tiles in proptest::collection::vec(1u64..16, 5..6),
    ) {
        let mms: Vec<MatMul> = dims
            .windows(2)
            .map(|w| MatMul::new(13, w[0], w[1]))
            .collect();
        let chain = FusedChain::try_new(&mms).unwrap();
        let nest = ChainNest::new(t_m, tiles[..chain.depth()].to_vec());
        assert_chain_paths_agree(&chain, &nest);
    }

    /// The analytical k-ary model matches a step-by-step replay on real
    /// matrices exactly — and the replayed chain computes the right
    /// product (interior panels never corrupt the numerics).
    #[test]
    fn chain_replay_matches_model_exactly(
        dims in proptest::collection::vec(1u64..8, 3..7),
        t_m in 1u64..10,
        tiles in proptest::collection::vec(1u64..10, 5..6),
        seed in 0u64..1024,
    ) {
        let m = 9u64;
        let mms: Vec<MatMul> = dims
            .windows(2)
            .map(|w| MatMul::new(m, w[0], w[1]))
            .collect();
        let chain = FusedChain::try_new(&mms).unwrap();
        let nest = ChainNest::new(t_m, tiles[..chain.depth()].to_vec());

        let x = Matrix::pseudo_random(m as usize, chain.col(0) as usize, seed);
        let ws: Vec<Matrix> = (0..chain.depth())
            .map(|i| {
                Matrix::pseudo_random(
                    chain.col(i) as usize,
                    chain.col(i + 1) as usize,
                    seed + 1 + i as u64,
                )
            })
            .collect();
        let run = execute_fused_chain(&x, &ws, &chain, &nest);
        let predicted = nest.evaluate(&model(), &chain);
        prop_assert_eq!(&run.measured[..], predicted.per_tensor());
        let reference = ws.iter().fold(x, |acc, w| acc.matmul(w));
        prop_assert_eq!(run.out, reference);
    }

    /// On random small DAGs, the depth-aware path-cover plan never
    /// scores worse than the best pairwise matching over the same links.
    #[test]
    fn dag_depth_plan_never_loses_to_pair_matching(
        head in 1u64..48,
        dims in proptest::collection::vec(1u64..48, 2..7),
        parents in proptest::collection::vec(0usize..6, 2..7),
        bs_shift in 8u32..14,
    ) {
        let n = dims.len().min(parents.len());
        let graph = tree_graph(64, head, &dims[..n], &parents[..n]);
        let dag = graph.mm_dag();
        let bs = 1u64 << bs_shift;
        let deep = try_plan_dag_with(&PlannerConfig::default(), &model(), &dag, bs);
        let pairs = try_plan_dag_with(&PlannerConfig::pairs_only(), &model(), &dag, bs);
        let (Some(deep), Some(pairs)) = (&deep, &pairs) else {
            // Tiny buffers can make some solo optimum infeasible; both
            // planners must then agree the graph is unplannable.
            prop_assert!(deep.is_none() && pairs.is_none());
            return Ok(());
        };
        prop_assert!(
            deep.total_ma() <= pairs.total_ma(),
            "depth-aware {} > pairwise {}",
            deep.total_ma(),
            pairs.total_ma()
        );
    }
}

/// Boundary chains pinned deterministically: unit tiles, full-dimension
/// tiles, oversized tiles, ragged edges, and unit interior dims.
#[test]
fn chain_tiers_agree_on_boundary_nests() {
    let chains = [
        FusedChain::try_new(&[
            MatMul::new(12, 6, 9),
            MatMul::new(12, 9, 4),
            MatMul::new(12, 4, 7),
        ])
        .unwrap(),
        FusedChain::try_new(&[
            MatMul::new(5, 1, 1),
            MatMul::new(5, 1, 8),
            MatMul::new(5, 8, 1),
            MatMul::new(5, 1, 3),
        ])
        .unwrap(),
    ];
    for chain in &chains {
        let k = chain.depth();
        let nests = [
            ChainNest::new(1, vec![1; k]),
            ChainNest::new(chain.m(), (0..k).map(|i| ChainNest::phase_dim(chain, i)).collect()),
            ChainNest::new(64, vec![64; k]),
            ChainNest::new(5, vec![3; k]),
            ChainNest::new(7, (0..k).map(|i| 1 + i as u64).collect()),
        ];
        for nest in &nests {
            assert_chain_paths_agree(chain, nest);
        }
    }
}
