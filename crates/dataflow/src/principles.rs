//! Principles 1–3: closed-form optimal intra-operator dataflow (§III-A).
//!
//! Unlike searching-based DSE, each NRA class has an *analytical* optimum:
//!
//! * **Principle 1 (Single-NRA)** — make a tensor stationary, maximize the
//!   tiles of its two dimensions equally, minimize the third dimension's
//!   tile; the smallest tensor is the best stationary choice.
//! * **Principle 2 (Two-NRA)** — untile one dimension, maximize the tile of
//!   the dimension absent from the redundant tensor, minimize the other; the
//!   smallest dimension is the best to untile.
//! * **Principle 3 (Three-NRA)** — keep the smallest tensor fully resident;
//!   remaining tile sizes do not affect memory access.
//!
//! [`optimize`] evaluates the (constant-size) candidate set of closed forms
//! and returns the best — a one-shot O(1) optimization whose result the
//! `fusecu-search` crate verifies against exhaustive enumeration (Fig 9).

use fusecu_ir::{MatMul, MmDim, Operand};

use crate::loopnest::{CostModel, Dataflow, LoopNest};
use crate::tiling::{div_ceil, Tiling};

/// Smallest buffer (in elements) any matmul dataflow can run in: one element
/// per operand tile.
pub const MIN_BUFFER_ELEMS: u64 = 3;

/// Largest integer `t` with `t² + 2t ≤ bs`, i.e. the equal stationary-tile
/// edge admitted by the buffer constraint of Eq. 2 with `T_c = 1`.
fn equal_tile_edge(bs: u64) -> u64 {
    (bs + 1).isqrt().saturating_sub(1)
}

/// Closed-form Single-NRA dataflow with a chosen stationary tensor.
///
/// Tiling per Principle 1: the non-stationary dimension's tile is 1; the
/// stationary dimensions share the remaining buffer as evenly as their sizes
/// allow (with clamp-and-redistribute when one dimension is shorter than the
/// balanced edge). Loop order puts the non-stationary dimension innermost so
/// the stationary tile enjoys full temporal reuse.
///
/// Returns `None` when `bs < MIN_BUFFER_ELEMS`.
pub fn single_nra(model: &CostModel, mm: MatMul, bs: u64, stationary: Operand) -> Option<Dataflow> {
    if bs < MIN_BUFFER_ELEMS {
        return None;
    }
    let [da, db] = stationary.dims();
    let dc = stationary.missing_dim();
    let t = equal_tile_edge(bs).max(1);

    // Clamp to the dimension sizes, then hand freed buffer to the other
    // dimension; one extra redistribution pass reaches the fixed point.
    let mut best: Option<Dataflow> = None;
    for (first, second) in [(da, db), (db, da)] {
        let mut t_first = t.min(mm.dim(first));
        let mut t_second = ((bs - t_first) / (t_first + 1)).clamp(1, mm.dim(second));
        t_first = ((bs - t_second) / (t_second + 1)).clamp(1, mm.dim(first));
        t_second = ((bs - t_first) / (t_first + 1)).clamp(1, mm.dim(second));
        let tiling = Tiling::new(1, 1, 1)
            .with(first, t_first)
            .with(second, t_second)
            .with(dc, 1)
            .balanced(mm);
        if !tiling.fits(mm, bs) {
            continue;
        }
        let nest = LoopNest::new([first, second, dc], tiling);
        let df = model.dataflow(mm, nest);
        if best.is_none_or(|b| df.total_ma() < b.total_ma()) {
            best = Some(df);
        }
    }
    best
}

/// Closed-form Two-NRA dataflow: dimension `untiled` is fully resident,
/// dimension `inner` is the minimized innermost loop, and the remaining
/// dimension's tile is maximized per Principle 2.
///
/// The redundant tensor is the one containing both `untiled` and `inner`;
/// its reload count is the iteration count of the maximized outer dimension.
///
/// Returns `None` when the buffer cannot hold the untiled dimension
/// (`bs < 2·D_u + 1`) or when `untiled == inner`.
pub fn two_nra(model: &CostModel, mm: MatMul, bs: u64, untiled: MmDim, inner: MmDim) -> Option<Dataflow> {
    if untiled == inner {
        return None;
    }
    let du = mm.dim(untiled);
    let outer = MmDim::other(untiled, inner);
    // Footprint: D_u·T_p (tensor {untiled, outer}) + D_u (tensor
    // {untiled, inner} at T_v = 1) + T_p (tensor {outer, inner}).
    if bs < 2 * du + 1 {
        return None;
    }
    let t_p = ((bs - du) / (du + 1)).clamp(1, mm.dim(outer));
    let tiling = Tiling::new(1, 1, 1)
        .with(untiled, du)
        .with(inner, 1)
        .with(outer, t_p)
        .balanced(mm);
    debug_assert!(tiling.fits(mm, bs));
    let nest = LoopNest::new([outer, untiled, inner], tiling);
    Some(model.dataflow(mm, nest))
}

/// Closed-form Three-NRA dataflow: the `resident` tensor is kept entirely
/// on-chip (both its dimensions untiled); the third dimension is tiled with
/// whatever the leftover buffer affords (Principle 3: it does not matter for
/// memory access, but a larger tile helps the mapping stage).
///
/// Returns `None` when `bs < |resident| + D_a + D_b`.
pub fn three_nra(model: &CostModel, mm: MatMul, bs: u64, resident: Operand) -> Option<Dataflow> {
    let [da, db] = resident.dims();
    let dc = resident.missing_dim();
    let footprint = mm.tensor_elems(resident);
    let per_c = mm.dim(da) + mm.dim(db);
    if bs < footprint + per_c {
        return None;
    }
    let t_c = ((bs - footprint) / per_c).clamp(1, mm.dim(dc));
    let tiling = Tiling::new(1, 1, 1)
        .with(da, mm.dim(da))
        .with(db, mm.dim(db))
        .with(dc, t_c)
        .balanced(mm);
    debug_assert!(tiling.fits(mm, bs));
    let nest = LoopNest::new([dc, da, db], tiling);
    Some(model.dataflow(mm, nest))
}

/// Best Single-NRA per Principle 1's scheduling rule (smallest tensor
/// stationary).
pub fn principle_single_nra(model: &CostModel, mm: MatMul, bs: u64) -> Option<Dataflow> {
    single_nra(model, mm, bs, mm.smallest_tensor())
}

/// Best Two-NRA per Principle 2's scheduling rule (smallest dimension
/// untiled); both choices of the minimized inner dimension are evaluated.
pub fn principle_two_nra(model: &CostModel, mm: MatMul, bs: u64) -> Option<Dataflow> {
    let du = mm.min_dim_role();
    MmDim::ALL
        .iter()
        .filter(|d| **d != du)
        .filter_map(|inner| two_nra(model, mm, bs, du, *inner))
        .min_by_key(Dataflow::total_ma)
}

/// Best Three-NRA per Principle 3's scheduling rule (smallest tensor
/// resident).
pub fn principle_three_nra(model: &CostModel, mm: MatMul, bs: u64) -> Option<Dataflow> {
    three_nra(model, mm, bs, mm.smallest_tensor())
}

/// Every closed-form candidate: all stationary choices, all
/// (untiled, inner) pairs, all resident choices. A superset of the
/// principle-selected ones, still constant-size; used to validate that the
/// principles' scheduling rules pick the winners.
pub fn all_candidates(model: &CostModel, mm: MatMul, bs: u64) -> Vec<Dataflow> {
    let mut out = Vec::with_capacity(12);
    for s in Operand::ALL {
        out.extend(single_nra(model, mm, bs, s));
        out.extend(three_nra(model, mm, bs, s));
    }
    for du in MmDim::ALL {
        for dv in MmDim::ALL {
            if du != dv {
                out.extend(two_nra(model, mm, bs, du, dv));
            }
        }
    }
    out
}

/// The exact principle family for one stationary choice: sweep the
/// stationary tensor's first dimension over its balanced tile
/// representatives and derive the maximal second tile analytically.
///
/// The structure is fixed by Principle 1 (third dimension's tile at 1,
/// non-stationary dimension innermost); only the integer split of the
/// buffer between the two stationary dimensions is swept. The sweep is
/// lossless: any optimal `(T_a, T_b)` is dominated by the candidate at
/// `T_a`'s balanced representative with the derived maximal `T_b`. Untiled
/// sweeps (`T_a = D_a`) make this family subsume the Two- and Three-NRA
/// closed forms, so minimizing over the three stationary choices yields the
/// global optimum of the loop-nest model in `O(√D)` evaluations — no
/// combinatorial search.
pub fn stationary_sweep(
    model: &CostModel,
    mm: MatMul,
    bs: u64,
    stationary: Operand,
) -> Option<Dataflow> {
    if bs < MIN_BUFFER_ELEMS {
        return None;
    }
    let [da, db] = stationary.dims();
    let dc = stationary.missing_dim();
    let mut best: Option<Dataflow> = None;
    for t_a in crate::tiling::balanced_tile_iter(mm.dim(da)) {
        if t_a + 1 >= bs {
            break; // no room left for T_b >= 1 (footprint T_b(T_a+1) + T_a)
        }
        let t_b = ((bs - t_a) / (t_a + 1)).clamp(1, mm.dim(db));
        let tiling = Tiling::new(1, 1, 1)
            .with(da, t_a)
            .with(db, t_b)
            .with(dc, 1)
            .balanced(mm);
        if !tiling.fits(mm, bs) {
            continue;
        }
        let df = model.dataflow(mm, LoopNest::new([da, db, dc], tiling));
        if best.is_none_or(|b| {
            (df.total_ma(), df.buffer_elems()) < (b.total_ma(), b.buffer_elems())
        }) {
            best = Some(df);
        }
    }
    best
}

/// One-shot principle-based optimization (Principles 1–3 + the buffer-size
/// regime selection of §III-A4) under a given cost model.
///
/// Minimizes over the three [`stationary_sweep`] families — an exact,
/// search-free optimization whose result equals the exhaustive-search
/// optimum (verified by `fusecu-search`). Ties prefer the higher NRA class
/// (more tensors at their lower bound), then the smaller buffer footprint.
///
/// Returns `None` only when `bs < MIN_BUFFER_ELEMS`.
pub fn try_optimize_with(model: &CostModel, mm: MatMul, bs: u64) -> Option<Dataflow> {
    Operand::ALL
        .iter()
        .filter_map(|s| stationary_sweep(model, mm, bs, *s))
        .min_by(|x, y| {
            x.total_ma()
                .cmp(&y.total_ma())
                .then_with(|| {
                    let nx = x.class().map_or(0, |c| c.count());
                    let ny = y.class().map_or(0, |c| c.count());
                    ny.cmp(&nx) // more NRA tensors first
                })
                .then_with(|| x.buffer_elems().cmp(&y.buffer_elems()))
        })
}

/// [`try_optimize_with`] under the paper's cost model.
///
/// # Panics
///
/// Panics when `bs < MIN_BUFFER_ELEMS` (no dataflow fits at all).
pub fn optimize(mm: MatMul, bs: u64) -> Dataflow {
    optimize_with(&CostModel::paper(), mm, bs)
}

/// [`try_optimize_with`] that panics on an infeasible buffer.
///
/// # Panics
///
/// Panics when `bs < MIN_BUFFER_ELEMS`.
pub fn optimize_with(model: &CostModel, mm: MatMul, bs: u64) -> Dataflow {
    try_optimize_with(model, mm, bs)
        .unwrap_or_else(|| panic!("buffer of {bs} elements cannot hold any tile of {mm}"))
}

/// The ideal minimal memory access achievable for the matmul under the
/// buffer size — the communication lower bound the principles target.
pub fn lower_bound_ma(mm: MatMul, bs: u64) -> u64 {
    optimize(mm, bs).total_ma()
}

/// Convenience: number of `outer`-dimension sweeps of the redundant tensor
/// under the Two-NRA closed form (used by architecture mapping).
pub fn two_nra_reload_count(mm: MatMul, bs: u64, untiled: MmDim, inner: MmDim) -> Option<u64> {
    let outer = MmDim::other(untiled, inner);
    let du = mm.dim(untiled);
    if bs < 2 * du + 1 {
        return None;
    }
    let t_p = ((bs - du) / (du + 1)).clamp(1, mm.dim(outer));
    Some(div_ceil(mm.dim(outer), t_p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopnest::NraClass;

    const MODEL: CostModel = CostModel {
        partial_sums: crate::loopnest::PartialSumPolicy::PerVisit,
    };

    #[test]
    fn equal_tile_edge_is_exact() {
        for bs in [3u64, 8, 15, 24, 100, 1023, 1 << 20] {
            let t = equal_tile_edge(bs);
            assert!(t * t + 2 * t <= bs, "bs={bs} t={t}");
            assert!((t + 1) * (t + 1) + 2 * (t + 1) > bs, "bs={bs} t={t}");
        }
    }

    #[test]
    fn paper_example_two_nra() {
        // §III-A: A(1024,768) x B(768,768), BS = 512 KiB -> Two-NRA,
        // K untiled, T_M maximized (balanced to 512), T_L = 1, MA(B) = 2KL.
        let mm = MatMul::new(1024, 768, 768);
        let bs = 512 * 1024;
        let df = optimize(mm, bs);
        assert_eq!(df.class(), Some(NraClass::Two));
        assert!(df.tiling().is_untiled(mm, MmDim::K));
        assert_eq!(df.tiling().tile(MmDim::M), 512);
        assert_eq!(df.tiling().tile(MmDim::L), 1);
        assert_eq!(df.ma().of(Operand::Lhs), 1024 * 768);
        assert_eq!(df.ma().of(Operand::Out), 1024 * 768);
        assert_eq!(df.ma().of(Operand::Rhs), 2 * 768 * 768);
        assert!(df.buffer_elems() <= bs);
    }

    #[test]
    fn tiny_buffer_selects_single_nra() {
        let mm = MatMul::new(512, 512, 512);
        // BS well under Dmin²/4 = 65536.
        let df = optimize(mm, 16 * 1024);
        assert_eq!(df.class(), Some(NraClass::Single));
        // Smallest tensor stationary: all equal here, so any; check the
        // stationary tensor is accessed once.
        let nra = df.nra_tensors();
        assert_eq!(nra.len(), 1);
        assert_eq!(df.ma().of(nra[0]), mm.tensor_elems(nra[0]));
    }

    #[test]
    fn large_buffer_reaches_lower_bound() {
        let mm = MatMul::new(300, 100, 200);
        let bs = mm.min_tensor_elems() + 300 + 100 + 10_000;
        let df = optimize(mm, bs);
        assert_eq!(df.class(), Some(NraClass::Three));
        assert_eq!(df.total_ma(), mm.ideal_ma());
    }

    #[test]
    fn infeasible_buffer_is_none() {
        let mm = MatMul::new(4, 4, 4);
        assert!(try_optimize_with(&MODEL, mm, 2).is_none());
        assert!(try_optimize_with(&MODEL, mm, 3).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn optimize_panics_below_min_buffer() {
        let _ = optimize(MatMul::new(4, 4, 4), 2);
    }

    #[test]
    fn principle_choices_match_full_candidate_scan() {
        // The paper's scheduling rules (smallest tensor stationary, smallest
        // dim untiled, smallest tensor resident) pick the best candidate of
        // their class across a spread of shapes and buffers.
        let shapes = [
            MatMul::new(64, 256, 1024),
            MatMul::new(1024, 64, 256),
            MatMul::new(256, 1024, 64),
            MatMul::new(512, 512, 512),
            MatMul::new(100, 300, 200),
        ];
        for mm in shapes {
            for bs in [64, 500, 4096, 60_000, 300_000, 2_000_000] {
                let textbook_best = all_candidates(&MODEL, mm, bs)
                    .into_iter()
                    .map(|d| d.total_ma())
                    .min()
                    .unwrap();
                // Principle-selected candidates of each class:
                let picks = [
                    principle_single_nra(&MODEL, mm, bs),
                    principle_two_nra(&MODEL, mm, bs),
                    principle_three_nra(&MODEL, mm, bs),
                ];
                let principle_best = picks
                    .into_iter()
                    .flatten()
                    .map(|d| d.total_ma())
                    .min()
                    .unwrap();
                assert_eq!(
                    principle_best, textbook_best,
                    "mm={mm} bs={bs}: principle scheduling rule missed the optimum"
                );
            }
        }
    }

    #[test]
    fn textbook_forms_track_the_exact_optimum() {
        // The equal-split closed forms of the paper track the exact swept
        // optimum; the gap is pure integer granularity and peaks when an
        // asymmetric iteration-count split (e.g. 2x3 instead of 3x3)
        // squeezes under the buffer bound where the equal split cannot.
        let shapes = [
            MatMul::new(64, 256, 1024),
            MatMul::new(512, 512, 512),
            MatMul::new(1024, 768, 768),
        ];
        for mm in shapes {
            for bs in [64u64, 4096, 60_000, 300_000, 2_000_000] {
                let exact = try_optimize_with(&MODEL, mm, bs).unwrap().total_ma();
                let textbook = all_candidates(&MODEL, mm, bs)
                    .into_iter()
                    .map(|d| d.total_ma())
                    .min()
                    .unwrap();
                assert!(textbook >= exact, "mm={mm} bs={bs}");
                assert!(
                    textbook as f64 <= 1.20 * exact as f64,
                    "mm={mm} bs={bs}: textbook {textbook} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn two_nra_reload_count_matches_dataflow() {
        let mm = MatMul::new(1024, 768, 768);
        let bs = 512 * 1024;
        let reloads = two_nra_reload_count(mm, bs, MmDim::K, MmDim::L).unwrap();
        assert_eq!(reloads, 2);
        assert!(two_nra_reload_count(mm, 100, MmDim::K, MmDim::L).is_none());
    }

    #[test]
    fn ma_is_monotone_in_buffer_size() {
        let mm = MatMul::new(384, 768, 96);
        let mut last = u64::MAX;
        for bs in [8, 64, 512, 4096, 32_768, 262_144, 2_097_152] {
            if let Some(df) = try_optimize_with(&MODEL, mm, bs) {
                assert!(df.total_ma() <= last, "bs={bs}");
                last = df.total_ma();
            }
        }
        assert_eq!(last, mm.ideal_ma());
    }

    #[test]
    fn optimum_never_below_ideal() {
        for mm in [MatMul::new(7, 9, 5), MatMul::new(128, 128, 128)] {
            for bs in [3, 10, 100, 1000, 100_000] {
                let df = try_optimize_with(&MODEL, mm, bs).unwrap();
                assert!(df.total_ma() >= mm.ideal_ma());
                assert!(df.buffer_elems() <= bs);
            }
        }
    }

    #[test]
    fn transposition_symmetry() {
        // Dataflow optimization is symmetric under A<->B transposition.
        let mm = MatMul::new(640, 80, 320);
        for bs in [50, 5_000, 500_000] {
            let a = try_optimize_with(&MODEL, mm, bs).unwrap().total_ma();
            let b = try_optimize_with(&MODEL, mm.transposed(), bs).unwrap().total_ma();
            assert_eq!(a, b, "bs={bs}");
        }
    }
}
