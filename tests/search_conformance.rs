//! Differential conformance: every searcher's winning mapping, replayed on
//! the cycle-level simulator, must (a) compute the exact product and
//! (b) measure exactly the traffic the searcher reported as its cost.
//!
//! This closes the loop the other direction from `simulator_integration`:
//! there, hand-picked nests prove the model matches the machine; here, the
//! *optimizers' own winners* — principle-based, exhaustive, and genetic,
//! under both the analytical and the simulated fitness backend — are the
//! nests under test, across a grid of shapes and buffer sizes. A searcher
//! that returned an infeasible or mis-costed mapping fails loudly.
//!
//! The grid kept in the default run is sized for CI; the `#[ignore]`d
//! heavy variants sweep larger shapes in release mode (see the CI
//! workflow's simulator-conformance step).

use fusecu::prelude::*;
use fusecu_dataflow::principles;
use fusecu_search::GeneticConfig;
use fusecu_fusion::{optimize_pair, ExtTensor, FusedPair};
use fusecu_sim::driver::{execute_fused_nest, execute_nest};
use fusecu_sim::Matrix;

/// The paper's per-visit accounting — the one the drivers reproduce
/// exactly, making "measured == reported" an equality, not a bound.
const MODEL: CostModel = CostModel {
    partial_sums: PartialSumPolicy::PerVisit,
};

const BACKENDS: [Fitness; 2] = [Fitness::Analytical, Fitness::Simulated];

/// Replays `df`'s nest over pseudo-random operands and asserts exact
/// output and exact agreement between measured and reported traffic.
fn assert_nest_conformant(df: &Dataflow, bs: u64, label: &str) {
    let mm = df.mm();
    assert!(
        df.buffer_elems() <= bs,
        "{label}: winner footprint {} exceeds buffer {bs}",
        df.buffer_elems()
    );
    let a = Matrix::pseudo_random(mm.m() as usize, mm.k() as usize, 0xC0FF_EE01);
    let b = Matrix::pseudo_random(mm.k() as usize, mm.l() as usize, 0xC0FF_EE02);
    let run = execute_nest(&a, &b, mm, df.nest());
    assert_eq!(run.out, a.matmul(&b), "{label}: replayed product is wrong");
    assert_eq!(
        run.measured,
        df.ma(),
        "{label}: measured traffic disagrees with the reported cost"
    );
}

/// The fused analogue: replay the fused winner and require the exact chain
/// product plus per-tensor traffic agreement.
fn assert_fused_conformant(fused: &FusedDataflow, pair: FusedPair, bs: u64, label: &str) {
    use fusecu_fusion::FusedDim::{K, L, M, N};
    assert!(
        fused.footprint() <= bs,
        "{label}: fused footprint {} exceeds buffer {bs}",
        fused.footprint()
    );
    let d_of = |t| pair.dim(t) as usize;
    let a = Matrix::pseudo_random(d_of(M), d_of(K), 0xC0FF_EE03);
    let b = Matrix::pseudo_random(d_of(K), d_of(L), 0xC0FF_EE04);
    let d = Matrix::pseudo_random(d_of(L), d_of(N), 0xC0FF_EE05);
    let run = execute_fused_nest(&a, &b, &d, &pair, fused.nest());
    assert_eq!(
        run.out,
        a.matmul(&b).matmul(&d),
        "{label}: replayed chain output is wrong"
    );
    let predicted = fused.nest().evaluate(&MODEL, &pair);
    for (i, t) in ExtTensor::ALL.iter().enumerate() {
        assert_eq!(
            run.measured[i],
            predicted.of(*t),
            "{label}: tensor {t} measured traffic disagrees"
        );
    }
    let total: u64 = run.measured.iter().sum();
    assert_eq!(
        total,
        fused.total_ma(),
        "{label}: total measured traffic disagrees with the reported cost"
    );
}

/// A faster GA for the conformance grid: same algorithm, fewer rounds.
fn grid_ga_config() -> GeneticConfig {
    GeneticConfig {
        population: 24,
        generations: 20,
        ..GeneticConfig::default()
    }
}

fn single_op_grid(shapes: &[MatMul], buffers: &[u64]) {
    for &mm in shapes {
        for &bs in buffers {
            // Principle-based winner (one per point; no fitness backend —
            // the principles never search).
            let principled = principles::optimize_with(&MODEL, mm, bs);
            assert_nest_conformant(&principled, bs, &format!("principles {mm} bs={bs}"));
            for fitness in BACKENDS {
                let label = |who: &str| format!("{who}[{fitness:?}] {mm} bs={bs}");
                let ex = ExhaustiveSearch::new(MODEL)
                    .with_fitness(fitness)
                    .optimize(mm, bs);
                assert_nest_conformant(&ex.best(), bs, &label("exhaustive"));
                let ga = GeneticSearch::with_config(MODEL, grid_ga_config())
                    .with_fitness(fitness)
                    .optimize(mm, bs)
                    .expect("grid buffers all feasible");
                assert_nest_conformant(&ga.best(), bs, &label("genetic"));
                // Searchers never report a cheaper cost than the oracle.
                assert!(
                    ga.best().total_ma() >= ex.best().total_ma(),
                    "{}: GA beat the oracle",
                    label("genetic")
                );
            }
        }
    }
}

fn fused_grid(pairs: &[FusedPair], buffers: &[u64]) {
    for &pair in pairs {
        for &bs in buffers {
            if let Some(closed) = optimize_pair(&MODEL, pair, bs) {
                assert_fused_conformant(&closed, pair, bs, &format!("closed-form {pair} bs={bs}"));
            }
            for fitness in BACKENDS {
                let label = |who: &str| format!("{who}[{fitness:?}] {pair} bs={bs}");
                if let Some((fx, _)) = FusedExhaustive::new(MODEL)
                    .with_fitness(fitness)
                    .optimize(pair, bs)
                {
                    assert_fused_conformant(&fx, pair, bs, &label("fused-exhaustive"));
                }
                if let Some((fg, _)) = FusedGenetic::with_config(MODEL, grid_ga_config())
                    .with_fitness(fitness)
                    .optimize(pair, bs)
                {
                    assert_fused_conformant(&fg, pair, bs, &label("fused-genetic"));
                }
            }
        }
    }
}

#[test]
fn every_searchers_winner_replays_exactly() {
    let shapes = [
        MatMul::new(12, 10, 8),
        MatMul::new(9, 14, 6),
        MatMul::new(16, 8, 12),
        MatMul::new(7, 7, 7),
    ];
    let buffers = [8u64, 64, 512, 4_096];
    single_op_grid(&shapes, &buffers);
}

#[test]
fn every_fused_searchers_winner_replays_exactly() {
    let pairs = [
        FusedPair::try_new(MatMul::new(10, 6, 12), MatMul::new(10, 12, 8)).unwrap(),
        FusedPair::try_new(MatMul::new(12, 8, 10), MatMul::new(12, 10, 6)).unwrap(),
    ];
    let buffers = [16u64, 200, 2_000];
    fused_grid(&pairs, &buffers);
}

#[test]
fn tiny_buffers_still_conform() {
    // Near the feasibility floor the winners degenerate to unit-ish tiles;
    // the replay contract must hold there too.
    single_op_grid(&[MatMul::new(6, 5, 4)], &[3, 4, 6]);
    let pair = FusedPair::try_new(MatMul::new(6, 4, 8), MatMul::new(6, 8, 4)).unwrap();
    fused_grid(&[pair], &[4, 8]);
}

// --- heavy variants: release-mode CI step only (`cargo test -- --ignored`) ---

#[test]
#[ignore = "heavy: release-mode CI conformance step"]
fn heavy_single_op_conformance() {
    let shapes = [
        MatMul::new(64, 48, 56),
        MatMul::new(96, 32, 80),
        MatMul::new(33, 65, 47),
        MatMul::new(128, 24, 72),
        MatMul::new(51, 51, 51),
    ];
    let buffers = [32u64, 256, 1_024, 16_384, 262_144];
    single_op_grid(&shapes, &buffers);
}

#[test]
#[ignore = "heavy: release-mode CI conformance step"]
fn heavy_fused_conformance() {
    let pairs = [
        FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16)).unwrap(),
        FusedPair::try_new(MatMul::new(48, 16, 32), MatMul::new(48, 32, 24)).unwrap(),
        FusedPair::try_new(MatMul::new(40, 36, 20), MatMul::new(40, 20, 44)).unwrap(),
        FusedPair::try_new(MatMul::new(27, 45, 18), MatMul::new(27, 18, 33)).unwrap(),
    ];
    let buffers = [64u64, 512, 2_048, 65_536];
    fused_grid(&pairs, &buffers);
}

#[test]
#[ignore = "heavy: release-mode CI conformance step"]
fn heavy_default_ga_conformance() {
    // The full default GA configuration (64×60), simulated fitness, on a
    // mid-size shape — the exact workload the parallel-by-default scoring
    // exists for.
    let mm = MatMul::new(48, 40, 32);
    for bs in [256u64, 8_192] {
        let ga = GeneticSearch::new(MODEL)
            .with_fitness(Fitness::Simulated)
            .optimize(mm, bs)
            .expect("feasible");
        assert_nest_conformant(&ga.best(), bs, &format!("default GA {mm} bs={bs}"));
    }
}

#[test]
#[ignore = "heavy: release-mode CI conformance step"]
fn heavy_full_and_traffic_only_ga_agree() {
    // The same deterministic default GA under both simulated modes — the
    // tiled Full replay and the closed-form TrafficOnly — must elect the
    // *same* winner at the same cost (the modes score byte-identically,
    // and the search is seeded), and that winner must replay
    // conformantly. This is the end-to-end proof that scoring in closed
    // form changes throughput only, never the search outcome.
    use fusecu_sim::SimMode;
    let mm = MatMul::new(48, 40, 32);
    for bs in [256u64, 8_192] {
        let best_of = |mode: SimMode| {
            GeneticSearch::new(MODEL)
                .with_fitness(Fitness::Simulated)
                .with_sim_mode(mode)
                .optimize(mm, bs)
                .expect("feasible")
                .best()
        };
        let full = best_of(SimMode::Full);
        let winner = best_of(SimMode::TrafficOnly);
        assert_eq!(
            (winner.nest(), winner.total_ma()),
            (full.nest(), full.total_ma()),
            "TrafficOnly GA winner diverged from the Full replay at bs={bs}"
        );
        assert_nest_conformant(&full, bs, &format!("simulated GA {mm} bs={bs}"));
    }
    let pair = FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16)).unwrap();
    for bs in [512u64, 4_096] {
        let best_of = |mode: SimMode| {
            FusedGenetic::new(MODEL)
                .with_fitness(Fitness::Simulated)
                .with_sim_mode(mode)
                .optimize(pair, bs)
                .expect("feasible")
                .0
        };
        let full = best_of(SimMode::Full);
        let winner = best_of(SimMode::TrafficOnly);
        assert_eq!(
            (winner.nest(), winner.total_ma()),
            (full.nest(), full.total_ma()),
            "fused TrafficOnly GA winner diverged from the Full replay at bs={bs}"
        );
        assert_fused_conformant(&full, pair, bs, &format!("simulated fused GA {pair} bs={bs}"));
    }
}
