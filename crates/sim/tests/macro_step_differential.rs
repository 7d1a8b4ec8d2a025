//! Differential proof that the wavefront macro-step tier equals the
//! per-cycle engine and the tiled replays, byte for byte.
//!
//! The macro tier (the `*_macro` runs and drivers) replaces synchronous
//! per-cycle register stepping and tile-by-tile replay with the direct
//! kernel plus algebraic cycle/traffic derivation from the skew structure
//! of the WS/OS/IS schedules. It is only admissible because it is
//! **bit-identical** to the per-cycle engine and the tiled replays on
//! outputs, cycle counts, and every traffic counter — this suite is that
//! proof, over random shapes in all three [`Stationary`] modes, the
//! `promote_acc_to_stationary` fused-tile handoff, fused pairs on a CU
//! and on the four-CU fabric, and depth-≥3 fused chains.
//!
//! All arithmetic is exact over `i64` (operands are bounded integers), so
//! the comparisons below are exact equality, never tolerance.

use proptest::prelude::*;

use fusecu_arch::Stationary;
use fusecu_dataflow::{LoopNest, Tiling};
use fusecu_fusion::{ChainNest, FusedChain, FusedNest, FusedPair, FusedTiling};
use fusecu_ir::MatMul;
use fusecu_sim::driver::{
    execute_fused_chain, execute_fused_chain_macro, execute_fused_nest, execute_fused_nest_macro,
    execute_nest, execute_nest_macro, execute_on_cu, execute_on_cu_macro,
};
use fusecu_sim::fabric::{
    fabric_tile_fusion, fabric_tile_fusion_macro, narrow_column_fusion,
    narrow_column_fusion_macro, wide_column_fusion, wide_column_fusion_macro,
};
use fusecu_sim::fusion::{column_fusion, column_fusion_macro, tile_fusion, tile_fusion_macro};
use fusecu_sim::{CuArray, FabricShape, Matrix};

/// Clamp a raw sample into `1..=limit` deterministically.
fn dim(raw: usize, limit: usize) -> usize {
    1 + raw % limit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Single-CU macro runs equal the per-cycle engine in every
    /// stationary mode: same output matrix, same cycle count.
    #[test]
    fn array_macro_runs_match_per_cycle(
        n in 2usize..7,
        m_raw in 0usize..64,
        k_raw in 0usize..64,
        l_raw in 0usize..64,
        seed in 0u64..1024,
    ) {
        // WS streams M freely but holds B (K×L) stationary; IS holds A
        // (M×K) and streams L; OS accumulates M×L in place with K free.
        let mut cycle = CuArray::new(n, Stationary::Ws);
        let mut wave = CuArray::new(n, Stationary::Ws);

        let (m, k, l) = (dim(m_raw, 4 * n), dim(k_raw, n), dim(l_raw, n));
        let a = Matrix::pseudo_random(m, k, seed);
        let b = Matrix::pseudo_random(k, l, seed + 1);
        let r = cycle.run_ws(&a, &b);
        let w = wave.run_ws_macro(&a, &b);
        prop_assert_eq!(&w.out, &r.out, "ws out");
        prop_assert_eq!(w.cycles, r.cycles, "ws cycles");

        let (m, k, l) = (dim(m_raw, n), dim(k_raw, n), dim(l_raw, 4 * n));
        let a = Matrix::pseudo_random(m, k, seed + 2);
        let b = Matrix::pseudo_random(k, l, seed + 3);
        let r = cycle.run_is(&a, &b);
        let w = wave.run_is_macro(&a, &b);
        prop_assert_eq!(&w.out, &r.out, "is out");
        prop_assert_eq!(w.cycles, r.cycles, "is cycles");

        let (m, k, l) = (dim(m_raw, n), dim(k_raw, 4 * n), dim(l_raw, n));
        let a = Matrix::pseudo_random(m, k, seed + 4);
        let b = Matrix::pseudo_random(k, l, seed + 5);
        let r = cycle.run_os(&a, &b);
        let w = wave.run_os_macro(&a, &b);
        prop_assert_eq!(&w.out, &r.out, "os out");
        prop_assert_eq!(w.cycles, r.cycles, "os cycles");
    }

    /// The fused-tile handoff: a macro OS pass must leave the PE
    /// accumulator grid exactly where the per-cycle pass does, so that
    /// `promote_acc_to_stationary` + a resident IS pass chain
    /// byte-identically through PE state.
    #[test]
    fn os_promote_handoff_matches_per_cycle(
        n in 2usize..7,
        m_raw in 0usize..64,
        k_raw in 0usize..64,
        l_raw in 0usize..64,
        nn_raw in 0usize..64,
        seed in 0u64..1024,
    ) {
        let (m, l) = (dim(m_raw, n), dim(l_raw, n));
        let (k, nn) = (dim(k_raw, 4 * n), dim(nn_raw, 4 * n));
        let a = Matrix::pseudo_random(m, k, seed);
        let b = Matrix::pseudo_random(k, l, seed + 1);
        let d = Matrix::pseudo_random(l, nn, seed + 2);
        let mut cycle = CuArray::new(n, Stationary::Os);
        let mut wave = CuArray::new(n, Stationary::Os);
        cycle.run_os(&a, &b);
        wave.run_os_macro(&a, &b);
        for r in 0..n {
            for c in 0..n {
                prop_assert_eq!(wave.pe(r, c).acc(), cycle.pe(r, c).acc(), "acc {},{}", r, c);
            }
        }
        cycle.promote_acc_to_stationary();
        wave.promote_acc_to_stationary();
        let is = cycle.run_is_resident(m, &d);
        let ism = wave.run_is_resident_macro(m, &d);
        prop_assert_eq!(&ism.out, &is.out, "resident IS out");
        prop_assert_eq!(ism.cycles, is.cycles, "resident IS cycles");
    }

    /// Fused mappings on one CU: tile fusion (OS→promote→IS) and column
    /// fusion (lockstep IS producer + OS consumer) — output, cycles, and
    /// intermediate volume all equal.
    #[test]
    fn cu_fusion_macro_matches_per_cycle(
        n in 2usize..7,
        m_raw in 0usize..64,
        k_raw in 0usize..64,
        l_raw in 0usize..64,
        nn_raw in 0usize..64,
        seed in 0u64..1024,
    ) {
        // Tile fusion: intermediate C (M×L) must fit the array.
        let (m, l) = (dim(m_raw, n), dim(l_raw, n));
        let (k, nn) = (dim(k_raw, 4 * n), dim(nn_raw, 4 * n));
        let a = Matrix::pseudo_random(m, k, seed);
        let b = Matrix::pseudo_random(k, l, seed + 1);
        let d = Matrix::pseudo_random(l, nn, seed + 2);
        let r = tile_fusion(n, &a, &b, &d);
        let w = tile_fusion_macro(n, &a, &b, &d);
        prop_assert_eq!(&w.out, &r.out, "tile fusion out");
        prop_assert_eq!(w.cycles, r.cycles, "tile fusion cycles");
        prop_assert_eq!(w.intermediate_elems, r.intermediate_elems);

        // Column fusion: A (M×K) and E (M×N) fit one array, L streams.
        let (m, k, nn) = (dim(m_raw, n), dim(k_raw, n), dim(nn_raw, n));
        let l = dim(l_raw, 4 * n);
        let a = Matrix::pseudo_random(m, k, seed + 3);
        let b = Matrix::pseudo_random(k, l, seed + 4);
        let d = Matrix::pseudo_random(l, nn, seed + 5);
        let r = column_fusion(n, &a, &b, &d);
        let w = column_fusion_macro(n, &a, &b, &d);
        prop_assert_eq!(&w.out, &r.out, "column fusion out");
        prop_assert_eq!(w.cycles, r.cycles, "column fusion cycles");
        prop_assert_eq!(w.intermediate_elems, r.intermediate_elems);
    }

    /// Fabric-scale runs and fusion: WS across all three reshapes,
    /// fabric tile fusion (2N-scale promote handoff), and the wide /
    /// narrow column-fusion arrangements.
    #[test]
    fn fabric_macro_matches_per_cycle(
        n in 2usize..5,
        shape_ix in 0usize..3,
        m_raw in 0usize..64,
        k_raw in 0usize..64,
        l_raw in 0usize..64,
        nn_raw in 0usize..64,
        seed in 0u64..1024,
    ) {
        let shape = FabricShape::ALL[shape_ix];
        let (rows, cols) = shape.logical(n);

        let (m, k, l) = (dim(m_raw, 3 * rows), dim(k_raw, rows), dim(l_raw, cols));
        let a = Matrix::pseudo_random(m, k, seed);
        let b = Matrix::pseudo_random(k, l, seed + 1);
        let mut cycle = fusecu_sim::FuseCuFabric::new(n, shape, Stationary::Ws);
        let mut wave = fusecu_sim::FuseCuFabric::new(n, shape, Stationary::Ws);
        let r = cycle.run_ws(&a, &b);
        let w = wave.run_ws_macro(&a, &b);
        prop_assert_eq!(&w.out, &r.out, "fabric ws out");
        prop_assert_eq!(w.cycles, r.cycles, "fabric ws cycles");

        // Fabric tile fusion: C (M×L) fits the logical array, the
        // resident-IS stream needs L ≤ cols too.
        let (m, l) = (dim(m_raw, rows), dim(l_raw, cols.min(rows)));
        let (k, nn) = (dim(k_raw, 3 * n), dim(nn_raw, 3 * n));
        let a = Matrix::pseudo_random(m, k, seed + 2);
        let b = Matrix::pseudo_random(k, l, seed + 3);
        let d = Matrix::pseudo_random(l, nn, seed + 4);
        let r = fabric_tile_fusion(n, shape, &a, &b, &d);
        let w = fabric_tile_fusion_macro(n, shape, &a, &b, &d);
        prop_assert_eq!(&w.out, &r.out, "fabric tile fusion out");
        prop_assert_eq!(w.cycles, r.cycles, "fabric tile fusion cycles");
        prop_assert_eq!(w.intermediate_elems, r.intermediate_elems);

        // Narrow (2N×N) and wide (N×2N) column fusion.
        let l = dim(l_raw, 6 * n);
        let (m, k, nn) = (dim(m_raw, 2 * n), dim(k_raw, n), dim(nn_raw, n));
        let a = Matrix::pseudo_random(m, k, seed + 5);
        let b = Matrix::pseudo_random(k, l, seed + 6);
        let d = Matrix::pseudo_random(l, nn, seed + 7);
        let r = narrow_column_fusion(n, &a, &b, &d);
        let w = narrow_column_fusion_macro(n, &a, &b, &d);
        prop_assert_eq!(&w.out, &r.out, "narrow column fusion out");
        prop_assert_eq!(w.cycles, r.cycles, "narrow column fusion cycles");
        prop_assert_eq!(w.intermediate_elems, r.intermediate_elems);

        let (m, k, nn) = (dim(m_raw, n), dim(k_raw, 2 * n), dim(nn_raw, 2 * n));
        let a = Matrix::pseudo_random(m, k, seed + 8);
        let b = Matrix::pseudo_random(k, l, seed + 9);
        let d = Matrix::pseudo_random(l, nn, seed + 10);
        let r = wide_column_fusion(n, &a, &b, &d);
        let w = wide_column_fusion_macro(n, &a, &b, &d);
        prop_assert_eq!(&w.out, &r.out, "wide column fusion out");
        prop_assert_eq!(w.cycles, r.cycles, "wide column fusion cycles");
        prop_assert_eq!(w.intermediate_elems, r.intermediate_elems);
    }

    /// The tiled driver: `execute_nest_macro` equals `execute_nest` on
    /// both the product and every traffic counter, over random genomes
    /// (order × possibly oversized, ragged tiling).
    #[test]
    fn nest_driver_macro_matches_per_cycle(
        m in 1u64..24,
        k in 1u64..24,
        l in 1u64..24,
        order_ix in 0usize..6,
        tm in 1u64..32,
        tk in 1u64..32,
        tl in 1u64..32,
        seed in 0u64..1024,
    ) {
        let mm = MatMul::new(m, k, l);
        let nest = LoopNest::new(LoopNest::orders()[order_ix], Tiling::new(tm, tk, tl));
        let a = Matrix::pseudo_random(m as usize, k as usize, seed);
        let b = Matrix::pseudo_random(k as usize, l as usize, seed + 1);
        let full = execute_nest(&a, &b, mm, &nest);
        let wave = execute_nest_macro(&a, &b, mm, &nest);
        prop_assert_eq!(&wave.out, &full.out, "nest out");
        prop_assert_eq!(wave.measured, full.measured, "nest traffic");
    }

    /// The fused driver: `execute_fused_nest_macro` equals
    /// `execute_fused_nest` on the output and all four counters.
    #[test]
    fn fused_driver_macro_matches_per_cycle(
        m in 1u64..16,
        k in 1u64..16,
        l in 1u64..16,
        n in 1u64..16,
        outer in 0u8..2,
        tm in 1u64..20,
        tk in 1u64..20,
        tl in 1u64..20,
        tn in 1u64..20,
        seed in 0u64..1024,
    ) {
        let pair = FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap();
        let nest = FusedNest::new(outer == 0, FusedTiling::new(tm, tk, tl, tn));
        let a = Matrix::pseudo_random(m as usize, k as usize, seed);
        let b = Matrix::pseudo_random(k as usize, l as usize, seed + 1);
        let d = Matrix::pseudo_random(l as usize, n as usize, seed + 2);
        let full = execute_fused_nest(&a, &b, &d, &pair, &nest);
        let wave = execute_fused_nest_macro(&a, &b, &d, &pair, &nest);
        prop_assert_eq!(&wave.out, &full.out, "fused out");
        prop_assert_eq!(wave.measured, full.measured, "fused traffic");
    }

    /// K-ary chains at depth ≥ 3: `execute_fused_chain_macro` equals
    /// `execute_fused_chain` on the output and every per-tensor counter.
    #[test]
    fn chain_driver_macro_matches_per_cycle(
        dims in proptest::collection::vec(1u64..12, 4..7),
        t_m in 1u64..16,
        tiles in proptest::collection::vec(1u64..16, 5..6),
        seed in 0u64..1024,
    ) {
        let m = 11u64;
        let mms: Vec<MatMul> = dims
            .windows(2)
            .map(|w| MatMul::new(m, w[0], w[1]))
            .collect();
        let chain = FusedChain::try_new(&mms).unwrap();
        prop_assert!(chain.depth() >= 3, "suite must exercise deep chains");
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
        let full = execute_fused_chain(&x, &ws, &chain, &nest);
        let wave = execute_fused_chain_macro(&x, &ws, &chain, &nest);
        prop_assert_eq!(&wave.out, &full.out, "chain out");
        prop_assert_eq!(wave.measured, full.measured, "chain traffic");
    }

    /// The CU tiling driver: `execute_on_cu_macro` equals
    /// `execute_on_cu` (product and summed cycles) in all three modes,
    /// including ragged edge tiles.
    #[test]
    fn execute_on_cu_macro_matches_per_cycle(
        n in 2usize..6,
        m in 1usize..20,
        k in 1usize..20,
        l in 1usize..20,
        mode_ix in 0usize..3,
        seed in 0u64..1024,
    ) {
        let mode = [Stationary::Ws, Stationary::Is, Stationary::Os][mode_ix];
        let a = Matrix::pseudo_random(m, k, seed);
        let b = Matrix::pseudo_random(k, l, seed + 1);
        let (out, cycles) = execute_on_cu(&a, &b, mode, n);
        let (out_m, cycles_m) = execute_on_cu_macro(&a, &b, mode, n);
        prop_assert_eq!(&out_m, &out, "{:?} out", mode);
        prop_assert_eq!(cycles_m, cycles, "{:?} cycles", mode);
    }
}

/// Boundary shapes pinned deterministically so a failure prints the
/// concrete case rather than a shrunken proptest case: unit dims, square
/// full-array tiles, streams much longer than the array.
#[test]
fn macro_tier_matches_on_boundary_shapes() {
    for (n, m, k, l) in [
        (2usize, 1usize, 1usize, 1usize),
        (4, 4, 4, 4),
        (4, 4, 16, 4),
        (6, 1, 6, 1),
        (5, 5, 20, 5),
    ] {
        let a = Matrix::pseudo_random(m, k, 7);
        let b = Matrix::pseudo_random(k, l, 8);
        let mut cycle = CuArray::new(n, Stationary::Os);
        let mut wave = CuArray::new(n, Stationary::Os);
        let r = cycle.run_os(&a, &b);
        let w = wave.run_os_macro(&a, &b);
        assert_eq!(w.out, r.out, "n={n} m={m} k={k} l={l}");
        assert_eq!(w.cycles, r.cycles, "n={n} m={m} k={k} l={l}");
    }
    // Oversized macro inputs must panic exactly like the per-cycle runs.
    let r = std::panic::catch_unwind(|| {
        let mut cu = CuArray::new(2, Stationary::Os);
        cu.run_os_macro(&Matrix::zero(5, 2), &Matrix::zero(2, 2))
    });
    assert!(r.is_err(), "oversized OS macro tile must panic");
}
