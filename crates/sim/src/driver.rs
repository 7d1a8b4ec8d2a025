//! Tiled execution drivers: running full-size matmuls through the
//! simulated fabric and *measuring* the traffic the analytical model
//! predicts.
//!
//! Two drivers:
//!
//! * [`execute_nest`] replays a buffer-level [`LoopNest`] with a modeled
//!   one-tile-per-operand buffer, computing each tile with a golden kernel
//!   and counting every element fetched or written on a tile switch. Its
//!   measured traffic must equal
//!   [`CostModel::evaluate`](fusecu_dataflow::CostModel::evaluate) exactly — the execution-level proof of the
//!   memory-access model that Fig 9 relies on.
//! * [`execute_on_cu`] runs each tile's arithmetic through the systolic
//!   [`CuArray`] instead of a golden kernel, proving the mapping handles
//!   every (possibly ragged) tile a real schedule produces.
//!
//! Traffic accounting has two tiers, byte-identical (pinned by
//! `tests/traffic_differential` and the `sim_throughput` digests):
//!
//! * the **naive walk** ([`oracle`]) checks every operand slot on every
//!   innermost iteration. It is the reference, and the tiled replays
//!   ([`execute_nest_with`], [`execute_fused_nest_with`],
//!   [`execute_fused_chain`]) move values inside that same walk, so their
//!   counters are the oracle's by construction;
//! * the **closed form** ([`measure_nest`] / [`measure_fused_nest`] /
//!   [`measure_fused_chain`], the [`crate::SimMode::TrafficOnly`] fast
//!   path) prices interior tiles analytically and folds the ragged edge
//!   fringe into per-axis span sums, with no tile loops at all.
//!
//! Value movement also has two tiers: the tiled replays above, and the
//! **macro tier** ([`execute_nest_macro`] / [`execute_fused_nest_macro`] /
//! [`execute_fused_chain_macro`]), which computes the same outputs with
//! one cache-blocked direct kernel pass per matmul and takes its counters
//! from the closed forms — byte-identical on outputs and every traffic
//! counter (pinned by `tests/macro_step_differential`). Neither clocks a
//! PE; [`execute_on_cu`] does, and [`execute_on_cu_macro`] is its
//! macro-stepped counterpart.

use fusecu_arch::Stationary;
use fusecu_dataflow::{LoopNest, MemoryAccess};
use fusecu_fusion::{ChainNest, FusedChain, FusedNest, FusedPair};
use fusecu_ir::{MatMul, MmDim, Operand};

use crate::array::CuArray;
use crate::matrix::Matrix;
use crate::scratch::SimScratch;
use oracle::{FusedChainStep, FusedStep};

/// The result of replaying a loop nest: the product and the measured
/// per-tensor buffer↔memory traffic.
#[derive(Debug, Clone)]
pub struct NestRun {
    /// The computed product.
    pub out: Matrix,
    /// Measured traffic, comparable to
    /// [`CostModel::evaluate`](fusecu_dataflow::CostModel::evaluate).
    pub measured: MemoryAccess,
}

/// Per-dimension tile geometry for the closed forms: the iteration count,
/// the clamped full-tile span, and the (possibly ragged) span of the final
/// edge tile. `total()` prices the whole axis in one step — `count − 1`
/// interior tiles charged analytically plus the edge fringe — so no
/// per-tile walk along the axis remains.
#[derive(Debug, Clone, Copy)]
struct DimSpans {
    count: usize,
    full: usize,
    edge: usize,
}

impl DimSpans {
    fn new(dim: u64, tile: u64) -> DimSpans {
        let full = tile.min(dim) as usize;
        let dim = dim as usize;
        let count = dim.div_ceil(full);
        DimSpans {
            count,
            full,
            edge: dim - (count - 1) * full,
        }
    }

    /// Sum of all tile spans along the axis (the dimension size).
    fn total(&self) -> u64 {
        ((self.count - 1) * self.full + self.edge) as u64
    }
}

/// Counters-only nest measurement ([`crate::SimMode::TrafficOnly`]) in
/// closed form: no loops over tiles at all. Each operand's traffic is its
/// footprint times the number of maximal constant-residency runs the walk
/// would produce, with edge-clamped axis sums (`(count−1)·full + edge`)
/// pricing interior tiles analytically and the ragged fringe in one term.
/// The result is byte-identical to the naive oracle
/// ([`oracle::measure_nest`]), and so to a full replay, which runs on that
/// walk — proven by the `traffic_differential` suite across random and
/// boundary tilings.
///
/// Derivation, per operand slot with its absent dimension at loop level
/// `r` and level iteration counts `c0, c1, c2` (single-iteration loops are
/// transparent, exactly as in the analytical model's reload multiplier):
///
/// * `r = 2` (absent innermost): the key is the body index — one run per
///   body, and the runs tile the footprint exactly once;
/// * `r = 1`: a multi-iteration innermost loop re-streams the footprint on
///   every middle iteration (`c1` reloads), otherwise one stream;
/// * `r = 0`: any iterating inner loop forces `c0` reloads, otherwise one.
pub fn measure_nest(mm: MatMul, nest: &LoopNest) -> MemoryAccess {
    let pos = MmDim::ALL.map(|d| {
        nest.order
            .iter()
            .position(|x| *x == d)
            .expect("order holds every dim")
    });
    let lv = nest.order.map(|d| DimSpans::new(mm.dim(d), nest.tiling.tile(d)));

    let mut traffic = [0u64; 3]; // A, B, C
    for (slot, op) in Operand::ALL.iter().enumerate() {
        let [da, db] = op.dims();
        let (qa, qb) = (pos[da as usize], pos[db as usize]);
        let reloads = match 3 - qa - qb {
            2 => 1,
            1 if lv[2].count > 1 => lv[1].count as u64,
            0 if lv[1].count > 1 || lv[2].count > 1 => lv[0].count as u64,
            _ => 1,
        };
        traffic[slot] = reloads * lv[qa].total() * lv[qb].total();
    }
    MemoryAccess::new(traffic[0], traffic[1], traffic[2])
}

/// Full nest replay through a caller-provided [`SimScratch`]: identical
/// semantics to [`execute_nest`], but every tile buffer and the output
/// accumulation live in `scratch`, so replaying many nests of one shape
/// (the simulated-fitness hot path) allocates only on the first call.
/// The tiles move inside the naive accounting walk
/// ([`oracle::measure_nest`]), so the counters are the oracle's. The
/// product is left in `scratch.out()`; the measured traffic returns.
///
/// # Panics
///
/// Panics when the matrices do not match the nest's matmul dimensions.
pub fn execute_nest_with(
    a: &Matrix,
    b: &Matrix,
    mm: MatMul,
    nest: &LoopNest,
    scratch: &mut SimScratch,
) -> MemoryAccess {
    assert_eq!((a.rows() as u64, a.cols() as u64), (mm.m(), mm.k()));
    assert_eq!((b.rows() as u64, b.cols() as u64), (mm.k(), mm.l()));
    let t_of = |d: MmDim| nest.tiling.tile(d).min(mm.dim(d)) as usize;
    let (tm, tk, tl) = (t_of(MmDim::M), t_of(MmDim::K), t_of(MmDim::L));
    let SimScratch {
        a_tile,
        b_tile,
        prod,
        out,
        ..
    } = scratch;
    out.reset_zeroed(mm.m() as usize, mm.l() as usize);
    oracle::nest_walk(mm, nest, |im, ik, il| {
        // Compute this tile's contribution (golden arithmetic; the
        // systolic path is validated by `execute_on_cu`).
        a.tile_into(im * tm, ik * tk, tm, tk, a_tile);
        b.tile_into(ik * tk, il * tl, tk, tl, b_tile);
        a_tile.matmul_into(b_tile, prod);
        out.add_tile(im * tm, il * tl, prod);
    })
}

/// Replays `nest` over `a × b`, fetching one tile per operand into a
/// modeled buffer and charging a full (edge-clamped) tile of traffic on
/// every tile switch; the output tile is charged per residency visit,
/// matching the paper's accounting.
///
/// Convenience wrapper over [`execute_nest_with`] with a fresh scratch;
/// replay loops should hold a [`SimScratch`] and call that directly.
///
/// # Panics
///
/// Panics when the matrices do not match the nest's matmul dimensions.
pub fn execute_nest(a: &Matrix, b: &Matrix, mm: MatMul, nest: &LoopNest) -> NestRun {
    let mut scratch = SimScratch::new();
    let measured = execute_nest_with(a, b, mm, nest, &mut scratch);
    NestRun {
        out: scratch.take_out(),
        measured,
    }
}

/// Wavefront macro-stepped nest replay through a caller-provided
/// [`SimScratch`]: the product lands in `scratch.out()` via one
/// cache-blocked `matmul_into` pass and the traffic comes from the closed
/// form — no tile walk, no per-cycle stepping. Byte-identical to
/// [`execute_nest_with`] on both the product and every counter (the
/// product is tiling-invariant exact integer arithmetic; the counters are
/// the proven closed form), as pinned by `tests/macro_step_differential`.
///
/// # Panics
///
/// Panics when the matrices do not match the nest's matmul dimensions.
pub fn execute_nest_macro_with(
    a: &Matrix,
    b: &Matrix,
    mm: MatMul,
    nest: &LoopNest,
    scratch: &mut SimScratch,
) -> MemoryAccess {
    assert_eq!((a.rows() as u64, a.cols() as u64), (mm.m(), mm.k()));
    assert_eq!((b.rows() as u64, b.cols() as u64), (mm.k(), mm.l()));
    a.matmul_into(b, &mut scratch.out);
    measure_nest(mm, nest)
}

/// Wavefront macro-stepped [`execute_nest`]: convenience wrapper over
/// [`execute_nest_macro_with`] with a fresh scratch.
///
/// # Panics
///
/// Panics when the matrices do not match the nest's matmul dimensions.
pub fn execute_nest_macro(a: &Matrix, b: &Matrix, mm: MatMul, nest: &LoopNest) -> NestRun {
    let mut scratch = SimScratch::new();
    let measured = execute_nest_macro_with(a, b, mm, nest, &mut scratch);
    NestRun {
        out: scratch.take_out(),
        measured,
    }
}

/// The result of replaying a fused nest: the chain output and the measured
/// per-external-tensor traffic.
#[derive(Debug, Clone)]
pub struct FusedNestRun {
    /// The computed `E = (A × B) × D`.
    pub out: Matrix,
    /// Measured traffic per external tensor, in `ExtTensor::ALL` order
    /// (`A, B, D, E`), comparable to `FusedNest::evaluate`.
    pub measured: [u64; 4],
}

/// Counters-only fused measurement ([`crate::SimMode::TrafficOnly`]) in
/// closed form — the fused analogue of [`measure_nest`], byte-identical to
/// the naive oracle ([`oracle::measure_fused_nest`]) and so to a full
/// replay (proven by the `traffic_differential` suite). Traffic is in
/// `ExtTensor::ALL` order (`A, B, D, E`).
///
/// Each external tensor spans one shared (anchor) dimension and one phase
/// dimension; with `n_other` the iteration count of the *other* shared
/// loop, the walk produces:
///
/// * `n_other` footprint streams when the tensor's phase loop iterates
///   more than once (the phase re-streams it inside every shared tile);
/// * `n_other` streams when the anchor sits on the **inner** shared loop
///   and iterates (each outer iteration revisits every anchor tile);
/// * one stream otherwise (all revisits hit the resident tile).
pub fn measure_fused_nest(pair: &FusedPair, nest: &FusedNest) -> [u64; 4] {
    use fusecu_fusion::FusedDim;
    let gd = |d: FusedDim| DimSpans::new(pair.dim(d), nest.tiling.clamped_tile(pair, d));
    let (m, k, l, n) = (
        gd(FusedDim::M),
        gd(FusedDim::K),
        gd(FusedDim::L),
        gd(FusedDim::N),
    );
    let outer_is_m = nest.shared_order()[0] == FusedDim::M;
    let (outer_count, inner_count) = if outer_is_m {
        (m.count, l.count)
    } else {
        (l.count, m.count)
    };

    // Slots in `ExtTensor::ALL` order: (anchor, phase, anchor-is-outer).
    let slots = [
        (m, k, outer_is_m),  // A = M×K, anchored on the M shared loop
        (l, k, !outer_is_m), // B = K×L, anchored on L
        (l, n, !outer_is_m), // D = L×N, anchored on L
        (m, n, outer_is_m),  // E = M×N, anchored on M
    ];
    slots.map(|(anchor, phase, anchor_is_outer)| {
        let reloads = if phase.count > 1 || (!anchor_is_outer && anchor.count > 1) {
            (if anchor_is_outer { inner_count } else { outer_count }) as u64
        } else {
            1
        };
        reloads * anchor.total() * phase.total()
    })
}

/// Full fused replay through a caller-provided [`SimScratch`]: identical
/// semantics to [`execute_fused_nest`], with every tile buffer (including
/// the modeled `C` register file) and the output accumulation living in
/// `scratch`. The tiles move inside the naive accounting walk
/// ([`oracle::measure_fused_nest`]). The chain output is left in
/// `scratch.out()`; the measured per-tensor traffic returns.
///
/// # Panics
///
/// Panics when the matrices do not match the pair's dimensions.
pub fn execute_fused_nest_with(
    a: &Matrix,
    b: &Matrix,
    d: &Matrix,
    pair: &FusedPair,
    nest: &FusedNest,
    scratch: &mut SimScratch,
) -> [u64; 4] {
    use fusecu_fusion::FusedDim;
    let dims = |t: FusedDim| pair.dim(t) as usize;
    assert_eq!((a.rows(), a.cols()), (dims(FusedDim::M), dims(FusedDim::K)));
    assert_eq!((b.rows(), b.cols()), (dims(FusedDim::K), dims(FusedDim::L)));
    assert_eq!((d.rows(), d.cols()), (dims(FusedDim::L), dims(FusedDim::N)));
    let tile = |t: FusedDim| nest.tiling.clamped_tile(pair, t) as usize;
    let (tm, tk, tl, tn) = (
        tile(FusedDim::M),
        tile(FusedDim::K),
        tile(FusedDim::L),
        tile(FusedDim::N),
    );
    let SimScratch {
        a_tile,
        b_tile,
        prod,
        c_tile,
        out,
    } = scratch;
    out.reset_zeroed(dims(FusedDim::M), dims(FusedDim::N));
    oracle::fused_nest_walk(pair, nest, |step| match step {
        FusedStep::Begin(sm, sl) => c_tile.reset_zeroed(sm, sl),
        FusedStep::Producer(im, il, ik) => {
            a.tile_into(im * tm, ik * tk, tm, tk, a_tile);
            b.tile_into(ik * tk, il * tl, tk, tl, b_tile);
            a_tile.matmul_into(b_tile, prod);
            c_tile.add_tile(0, 0, prod);
        }
        FusedStep::Consumer(im, il, inn) => {
            d.tile_into(il * tl, inn * tn, tl, tn, b_tile);
            c_tile.matmul_into(b_tile, prod);
            out.add_tile(im * tm, inn * tn, prod);
        }
    })
}

/// Replays a fused nest over real matrices: shared tile loops over the
/// intermediate's dimensions, a producer phase accumulating each `C` tile
/// in a modeled register file, and a consumer phase draining it into `E` —
/// the intermediate never counts as traffic. External tensors charge one
/// (edge-clamped) tile on every residency switch, output per visit.
///
/// Convenience wrapper over [`execute_fused_nest_with`] with a fresh
/// scratch.
///
/// # Panics
///
/// Panics when the matrices do not match the pair's dimensions.
pub fn execute_fused_nest(
    a: &Matrix,
    b: &Matrix,
    d: &Matrix,
    pair: &FusedPair,
    nest: &FusedNest,
) -> FusedNestRun {
    let mut scratch = SimScratch::new();
    let measured = execute_fused_nest_with(a, b, d, pair, nest, &mut scratch);
    FusedNestRun {
        out: scratch.take_out(),
        measured,
    }
}

/// Wavefront macro-stepped fused replay through a caller-provided
/// [`SimScratch`]: the composed product `E = (A × B) × D` lands in
/// `scratch.out()` via two cache-blocked `matmul_into` passes (the
/// intermediate reuses the scratch's modeled register file `c_tile`) and
/// the traffic comes from the closed form. Byte-identical to
/// [`execute_fused_nest_with`] on the output and all four counters.
///
/// # Panics
///
/// Panics when the matrices do not match the pair's dimensions.
pub fn execute_fused_nest_macro_with(
    a: &Matrix,
    b: &Matrix,
    d: &Matrix,
    pair: &FusedPair,
    nest: &FusedNest,
    scratch: &mut SimScratch,
) -> [u64; 4] {
    use fusecu_fusion::FusedDim;
    let dims = |t: FusedDim| pair.dim(t) as usize;
    assert_eq!((a.rows(), a.cols()), (dims(FusedDim::M), dims(FusedDim::K)));
    assert_eq!((b.rows(), b.cols()), (dims(FusedDim::K), dims(FusedDim::L)));
    assert_eq!((d.rows(), d.cols()), (dims(FusedDim::L), dims(FusedDim::N)));
    a.matmul_into(b, &mut scratch.c_tile);
    scratch.c_tile.matmul_into(d, &mut scratch.out);
    measure_fused_nest(pair, nest)
}

/// Wavefront macro-stepped [`execute_fused_nest`]: convenience wrapper
/// over [`execute_fused_nest_macro_with`] with a fresh scratch.
///
/// # Panics
///
/// Panics when the matrices do not match the pair's dimensions.
pub fn execute_fused_nest_macro(
    a: &Matrix,
    b: &Matrix,
    d: &Matrix,
    pair: &FusedPair,
    nest: &FusedNest,
) -> FusedNestRun {
    let mut scratch = SimScratch::new();
    let measured = execute_fused_nest_macro_with(a, b, d, pair, nest, &mut scratch);
    FusedNestRun {
        out: scratch.take_out(),
        measured,
    }
}

/// The result of replaying a k-ary fused chain: the chain output and the
/// measured per-external-tensor traffic.
#[derive(Debug, Clone)]
pub struct FusedChainRun {
    /// The computed `O = X × W_0 × … × W_{k-1}`.
    pub out: Matrix,
    /// Measured traffic per external tensor, in chain slot order
    /// (`X, W_0 … W_{k-1}, O`), comparable to `ChainNest::evaluate`.
    pub measured: Vec<u64>,
}

/// Counters-only chain measurement in closed form — the k-ary analogue of
/// [`measure_fused_nest`], byte-identical to the naive oracle
/// ([`oracle::measure_fused_chain`]) and so to a full replay. Traffic is
/// in chain slot order (`X, W_0 … W_{k-1}, O`):
///
/// * `X` and `O` key on the row panel and stream exactly once;
/// * `W_i` re-streams on every row panel when its phase loop iterates
///   more than once, otherwise its single tile stays resident for the
///   whole run — one load.
pub fn measure_fused_chain(chain: &FusedChain, nest: &ChainNest) -> Vec<u64> {
    let k = chain.depth();
    let n_m = nest.m_iterations(chain);
    let mut traffic = Vec::with_capacity(k + 2);
    traffic.push(chain.m() * chain.col(0));
    for i in 0..k {
        let reloads = if nest.phase_iterations(chain, i) > 1 {
            n_m
        } else {
            1
        };
        traffic.push(chain.weight_elems(i) * reloads);
    }
    traffic.push(chain.m() * chain.col(k));
    traffic
}

/// Replays a k-ary fused chain over real matrices: a shared loop over `M`
/// row panels, reduction phases accumulating each interior panel
/// `Y_i[sm, c_{i+1}]` on chip (they never count as traffic), and a final
/// phase draining the last panel through `W_{k-1}` into `O`. External
/// tensors charge one (edge-clamped) tile on every residency switch; the
/// panels move inside the naive accounting walk
/// ([`oracle::measure_fused_chain`]).
///
/// # Panics
///
/// Panics when `ws` does not hold exactly `chain.depth()` weights or any
/// matrix does not match the chain's dimensions.
pub fn execute_fused_chain(
    x: &Matrix,
    ws: &[Matrix],
    chain: &FusedChain,
    nest: &ChainNest,
) -> FusedChainRun {
    let k = chain.depth();
    assert_eq!(ws.len(), k, "one weight per chained matmul");
    assert_eq!(
        (x.rows() as u64, x.cols() as u64),
        (chain.m(), chain.col(0))
    );
    for (i, w) in ws.iter().enumerate() {
        assert_eq!(
            (w.rows() as u64, w.cols() as u64),
            (chain.col(i), chain.col(i + 1)),
            "weight {i}"
        );
    }
    let t_m = nest.clamped_t_m(chain) as usize;
    let tiles: Vec<usize> = (0..k)
        .map(|i| nest.clamped_phase_tile(chain, i) as usize)
        .collect();
    let mut out = Matrix::zero(chain.m() as usize, chain.col(k) as usize);
    // The resident interior panels Y_0 … Y_{k-2}; phase i reads Y_{i-1}
    // (or X) and accumulates into Y_i without touching memory. Sized per
    // row panel by the BeginPanel reset.
    let mut panels: Vec<Matrix> = (0..k - 1).map(|_| Matrix::zero(1, 1)).collect();
    let mut sm_cur = 0usize;
    let measured = oracle::fused_chain_walk(chain, nest, |step| match step {
        FusedChainStep::BeginPanel(sm) => {
            sm_cur = sm;
            for (i, p) in panels.iter_mut().enumerate() {
                p.reset_zeroed(sm, chain.col(i + 1) as usize);
            }
        }
        FusedChainStep::Phase(phase, im, it) => {
            let t = tiles[phase];
            if phase + 1 == k {
                // Drain: O[:, it·t ..] += Y_{k-2} × W_{k-1} column tile.
                let w_cols = ws[k - 1].tile(0, it * t, chain.col(k - 1) as usize, t);
                let prod = panels[k - 2].matmul(&w_cols);
                out.add_tile(im * t_m, it * t, &prod);
            } else {
                // Reduce: Y_phase += (X | Y_{phase-1}) row slice × W rows.
                let src = if phase == 0 {
                    x.tile(im * t_m, it * t, t_m, t)
                } else {
                    panels[phase - 1].tile(0, it * t, sm_cur, t)
                };
                let w_rows = ws[phase].tile(it * t, 0, t, chain.col(phase + 1) as usize);
                let prod = src.matmul(&w_rows);
                panels[phase].add_tile(0, 0, &prod);
            }
        }
    });
    FusedChainRun { out, measured }
}

/// Wavefront macro-stepped [`execute_fused_chain`]: the chain output is
/// the left-to-right fold of cache-blocked direct matmuls (exact integer
/// arithmetic, so identical to the tiled panel replay bit for bit) and the
/// per-tensor traffic comes from the closed form
/// ([`measure_fused_chain`]). Byte-identical to [`execute_fused_chain`] on
/// the output and every counter.
///
/// # Panics
///
/// Panics when `ws` does not hold exactly `chain.depth()` weights or any
/// matrix does not match the chain's dimensions.
pub fn execute_fused_chain_macro(
    x: &Matrix,
    ws: &[Matrix],
    chain: &FusedChain,
    nest: &ChainNest,
) -> FusedChainRun {
    let k = chain.depth();
    assert_eq!(ws.len(), k, "one weight per chained matmul");
    assert_eq!(
        (x.rows() as u64, x.cols() as u64),
        (chain.m(), chain.col(0))
    );
    for (i, w) in ws.iter().enumerate() {
        assert_eq!(
            (w.rows() as u64, w.cols() as u64),
            (chain.col(i), chain.col(i + 1)),
            "weight {i}"
        );
    }
    let mut out = x.matmul(&ws[0]);
    for w in &ws[1..] {
        out = out.matmul(w);
    }
    FusedChainRun {
        out,
        measured: measure_fused_chain(chain, nest),
    }
}

/// The naive accounting walks: the traffic oracle. Each checks every
/// operand slot on every innermost iteration and charges an (edge-clamped)
/// tile whenever a slot's resident tile changes. The tiled replays move
/// values inside these walks through their `visit` callbacks, and the
/// differential suite and the benchmark pin the closed forms against them
/// byte for byte.
pub mod oracle {
    use fusecu_dataflow::{LoopNest, MemoryAccess};
    use fusecu_fusion::{ChainNest, ExtTensor, FusedChain, FusedDim, FusedNest, FusedPair};
    use fusecu_ir::{MatMul, MmDim, Operand};

    /// One step of the fused replay schedule, as visited by
    /// [`fused_nest_walk`].
    pub(super) enum FusedStep {
        /// A new shared tile begins with the given clamped `(M, L)` spans.
        Begin(usize, usize),
        /// One producer reduction step `ik` inside shared tile `(im, il)`.
        Producer(usize, usize, usize),
        /// One consumer drain step `inn` inside shared tile `(im, il)`.
        Consumer(usize, usize, usize),
    }

    /// One step of the k-ary chain replay schedule, as visited by
    /// [`fused_chain_walk`].
    pub(super) enum FusedChainStep {
        /// A new shared `M` row panel begins with the given clamped span:
        /// every interior panel resets.
        BeginPanel(usize),
        /// One tile step `it` of phase `phase` inside row panel `im`:
        /// reduction phases accumulate into the resident interior panel,
        /// the final phase drains through `W_{k-1}` into `O`.
        Phase(usize, usize, usize),
    }

    /// Naive-walk nest measurement: the reference for
    /// [`super::measure_nest`].
    pub fn measure_nest(mm: MatMul, nest: &LoopNest) -> MemoryAccess {
        nest_walk(mm, nest, |_, _, _| {})
    }

    /// The naive nest walk: calls `visit(im, ik, il)` on every innermost
    /// iteration, after charging that iteration's residency switches.
    pub(super) fn nest_walk(
        mm: MatMul,
        nest: &LoopNest,
        mut visit: impl FnMut(usize, usize, usize),
    ) -> MemoryAccess {
        let dims = MmDim::ALL.map(|d| mm.dim(d) as usize);
        let tiles = MmDim::ALL.map(|d| nest.tiling.tile(d).min(mm.dim(d)) as usize);
        let pos = MmDim::ALL.map(|d| {
            nest.order
                .iter()
                .position(|x| *x == d)
                .expect("order holds every dim")
        });
        let span = |d: MmDim, i: usize| {
            let t = tiles[d as usize];
            t.min(dims[d as usize] - i * t)
        };
        let counts = nest.order.map(|d| nest.tiling.iterations(mm, d) as usize);

        let mut traffic = [0u64; 3]; // A, B, C
        let mut resident: [Option<(usize, usize)>; 3] = [None; 3];
        for i0 in 0..counts[0] {
            for i1 in 0..counts[1] {
                for i2 in 0..counts[2] {
                    let iter = [i0, i1, i2];
                    let at = |d: MmDim| iter[pos[d as usize]];
                    for (slot, op) in Operand::ALL.iter().enumerate() {
                        let [da, db] = op.dims();
                        let key = (at(da), at(db));
                        if resident[slot] != Some(key) {
                            traffic[slot] += (span(da, key.0) * span(db, key.1)) as u64;
                            resident[slot] = Some(key);
                        }
                    }
                    visit(at(MmDim::M), at(MmDim::K), at(MmDim::L));
                }
            }
        }
        MemoryAccess::new(traffic[0], traffic[1], traffic[2])
    }

    /// Naive-walk fused measurement (`ExtTensor::ALL` order): the
    /// reference for [`super::measure_fused_nest`].
    pub fn measure_fused_nest(pair: &FusedPair, nest: &FusedNest) -> [u64; 4] {
        fused_nest_walk(pair, nest, |_| {})
    }

    /// The naive fused walk: calls `visit` on every step of the schedule,
    /// each producer and consumer step after charging its residency
    /// switches.
    pub(super) fn fused_nest_walk(
        pair: &FusedPair,
        nest: &FusedNest,
        mut visit: impl FnMut(FusedStep),
    ) -> [u64; 4] {
        let dims = FusedDim::ALL.map(|d| pair.dim(d) as usize);
        let tiles = FusedDim::ALL.map(|d| nest.tiling.clamped_tile(pair, d) as usize);
        let iters = FusedDim::ALL.map(|d| nest.tiling.iterations(pair, d) as usize);
        let span = |d: FusedDim, i: usize| {
            let t = tiles[d as usize];
            t.min(dims[d as usize] - i * t)
        };
        let it = |d: FusedDim| iters[d as usize];

        let [s0, s1] = nest.shared_order();
        let mut traffic = [0u64; 4];
        let mut resident: [Option<(usize, usize)>; 4] = [None; 4];
        let mut touch = |slot: usize, t: ExtTensor, key: (usize, usize)| {
            if resident[slot] != Some(key) {
                let [da, db] = t.dims();
                traffic[slot] += (span(da, key.0) * span(db, key.1)) as u64;
                resident[slot] = Some(key);
            }
        };
        for i0 in 0..it(s0) {
            for i1 in 0..it(s1) {
                let (im, il) = if s0 == FusedDim::M { (i0, i1) } else { (i1, i0) };
                visit(FusedStep::Begin(
                    span(FusedDim::M, im),
                    span(FusedDim::L, il),
                ));
                // Producer phase: accumulate the C tile in "registers".
                for ik in 0..it(FusedDim::K) {
                    touch(0, ExtTensor::A, (im, ik));
                    touch(1, ExtTensor::B, (ik, il));
                    visit(FusedStep::Producer(im, il, ik));
                }
                // Consumer phase: drain the C tile through D into E.
                for inn in 0..it(FusedDim::N) {
                    touch(2, ExtTensor::D, (il, inn));
                    touch(3, ExtTensor::E, (im, inn));
                    visit(FusedStep::Consumer(im, il, inn));
                }
            }
        }
        traffic
    }

    /// Naive-walk k-ary chain measurement (chain slot order
    /// `X, W_0 … W_{k-1}, O`): the reference for
    /// [`super::measure_fused_chain`].
    pub fn measure_fused_chain(chain: &FusedChain, nest: &ChainNest) -> Vec<u64> {
        fused_chain_walk(chain, nest, |_| {})
    }

    /// The naive chain walk: calls `visit` at every row panel and on every
    /// phase step, after charging the step's residency switches. `X` and
    /// `O` tiles key on `(im, it)`, weight tiles on their phase index alone
    /// (so a single-tile phase stays resident across row panels).
    pub(super) fn fused_chain_walk(
        chain: &FusedChain,
        nest: &ChainNest,
        mut visit: impl FnMut(FusedChainStep),
    ) -> Vec<u64> {
        let k = chain.depth();
        let m = chain.m();
        let t_m = nest.clamped_t_m(chain) as usize;
        let n_m = nest.m_iterations(chain) as usize;
        let span = |dim: u64, tile: usize, i: usize| tile.min(dim as usize - i * tile);
        let mut traffic = vec![0u64; k + 2];
        let mut resident: Vec<Option<(usize, usize)>> = vec![None; k + 2];
        for im in 0..n_m {
            let sm = span(m, t_m, im);
            visit(FusedChainStep::BeginPanel(sm));
            for phase in 0..k {
                let tile = nest.clamped_phase_tile(chain, phase) as usize;
                let dim = ChainNest::phase_dim(chain, phase);
                let iters = nest.phase_iterations(chain, phase) as usize;
                for it in 0..iters {
                    let sp = span(dim, tile, it);
                    if phase == 0 && resident[0] != Some((im, it)) {
                        traffic[0] += (sm * sp) as u64;
                        resident[0] = Some((im, it));
                    }
                    let w_span = if phase + 1 == k {
                        chain.col(k - 1) as usize * sp
                    } else {
                        sp * chain.col(phase + 1) as usize
                    };
                    if resident[1 + phase] != Some((0, it)) {
                        traffic[1 + phase] += w_span as u64;
                        resident[1 + phase] = Some((0, it));
                    }
                    if phase + 1 == k {
                        let slot = k + 1;
                        if resident[slot] != Some((im, it)) {
                            traffic[slot] += (sm * sp) as u64;
                            resident[slot] = Some((im, it));
                        }
                    }
                    visit(FusedChainStep::Phase(phase, im, it));
                }
            }
        }
        traffic
    }
}

/// Runs a full matmul through a CU by tiling to the array edge with the
/// requested stationary, accumulating partial products across the reduction
/// tiles. Returns the product and the summed systolic cycle count.
///
/// # Panics
///
/// Panics on dimension mismatch between `a` and `b`.
pub fn execute_on_cu(a: &Matrix, b: &Matrix, stationary: Stationary, n: usize) -> (Matrix, u64) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, l) = (a.rows(), a.cols(), b.cols());
    let mut cu = CuArray::new(n, stationary);
    let mut out = Matrix::zero(m, l);
    let mut cycles = 0u64;
    let step = |d: usize| d.div_ceil(n);
    match stationary {
        Stationary::Ws => {
            for ik in 0..step(k) {
                for il in 0..step(l) {
                    let b_tile = b.tile(ik * n, il * n, n, n);
                    let a_cols = a.tile(0, ik * n, m, n);
                    let r = cu.run_ws(&a_cols, &b_tile);
                    out.add_tile(0, il * n, &r.out);
                    cycles += r.cycles;
                }
            }
        }
        Stationary::Is => {
            for im in 0..step(m) {
                for ik in 0..step(k) {
                    let a_tile = a.tile(im * n, ik * n, n, n);
                    let b_rows = b.tile(ik * n, 0, n, l);
                    let r = cu.run_is(&a_tile, &b_rows);
                    out.add_tile(im * n, 0, &r.out);
                    cycles += r.cycles;
                }
            }
        }
        Stationary::Os => {
            for im in 0..step(m) {
                for il in 0..step(l) {
                    let a_rows = a.tile(im * n, 0, n, k);
                    let b_cols = b.tile(0, il * n, k, n);
                    // One OS pass accumulates the whole reduction on-array.
                    let r = cu.run_os(&a_rows, &b_cols);
                    out.set_tile(im * n, il * n, &r.out);
                    cycles += r.cycles;
                }
            }
        }
    }
    (out, cycles)
}

/// Wavefront macro-stepped [`execute_on_cu`]: the same tile schedule per
/// stationary mode, but each tile pass is a macro run — the tile's product
/// lands via the direct kernel and its cycle count comes from the skew
/// algebra. Byte-identical to [`execute_on_cu`] on the product and the
/// summed cycle count.
///
/// # Panics
///
/// Panics on dimension mismatch between `a` and `b`.
pub fn execute_on_cu_macro(
    a: &Matrix,
    b: &Matrix,
    stationary: Stationary,
    n: usize,
) -> (Matrix, u64) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, k, l) = (a.rows(), a.cols(), b.cols());
    let mut cu = CuArray::new(n, stationary);
    let mut out = Matrix::zero(m, l);
    let mut cycles = 0u64;
    let step = |d: usize| d.div_ceil(n);
    match stationary {
        Stationary::Ws => {
            for ik in 0..step(k) {
                for il in 0..step(l) {
                    let b_tile = b.tile(ik * n, il * n, n, n);
                    let a_cols = a.tile(0, ik * n, m, n);
                    let r = cu.run_ws_macro(&a_cols, &b_tile);
                    out.add_tile(0, il * n, &r.out);
                    cycles += r.cycles;
                }
            }
        }
        Stationary::Is => {
            for im in 0..step(m) {
                for ik in 0..step(k) {
                    let a_tile = a.tile(im * n, ik * n, n, n);
                    let b_rows = b.tile(ik * n, 0, n, l);
                    let r = cu.run_is_macro(&a_tile, &b_rows);
                    out.add_tile(im * n, 0, &r.out);
                    cycles += r.cycles;
                }
            }
        }
        Stationary::Os => {
            for im in 0..step(m) {
                for il in 0..step(l) {
                    let a_rows = a.tile(im * n, 0, n, k);
                    let b_cols = b.tile(0, il * n, k, n);
                    let r = cu.run_os_macro(&a_rows, &b_cols);
                    out.set_tile(im * n, il * n, &r.out);
                    cycles += r.cycles;
                }
            }
        }
    }
    (out, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_dataflow::{CostModel, Tiling};

    #[test]
    fn nest_replay_matches_golden_product() {
        let mm = MatMul::new(10, 7, 9);
        let a = Matrix::pseudo_random(10, 7, 31);
        let b = Matrix::pseudo_random(7, 9, 32);
        let nest = LoopNest::new([MmDim::M, MmDim::L, MmDim::K], Tiling::new(3, 2, 4));
        let run = execute_nest(&a, &b, mm, &nest);
        assert_eq!(run.out, a.matmul(&b));
    }

    #[test]
    fn measured_traffic_equals_analytical_model() {
        // The execution-level proof of the cost model: replay many nests
        // and require exact agreement with CostModel::evaluate.
        let model = CostModel::paper();
        let mm = MatMul::new(12, 10, 8);
        let a = Matrix::pseudo_random(12, 10, 41);
        let b = Matrix::pseudo_random(10, 8, 42);
        for order in LoopNest::orders() {
            for tiling in [
                Tiling::new(1, 1, 1),
                Tiling::new(3, 2, 4),
                Tiling::new(5, 10, 3),
                Tiling::new(12, 1, 8),
                Tiling::new(7, 7, 7),
            ] {
                let nest = LoopNest::new(order, tiling);
                let run = execute_nest(&a, &b, mm, &nest);
                assert_eq!(
                    run.measured,
                    model.evaluate(mm, &nest),
                    "order {order:?} tiling {tiling}"
                );
                assert_eq!(run.out, a.matmul(&b));
            }
        }
    }

    #[test]
    fn traffic_only_nest_counters_match_full_mode() {
        // SimMode::TrafficOnly must be byte-identical to the full replay's
        // counters across orders and tilings.
        let mm = MatMul::new(12, 10, 8);
        let a = Matrix::pseudo_random(12, 10, 41);
        let b = Matrix::pseudo_random(10, 8, 42);
        let mut scratch = SimScratch::new();
        for order in LoopNest::orders() {
            for tiling in [
                Tiling::new(1, 1, 1),
                Tiling::new(3, 2, 4),
                Tiling::new(5, 10, 3),
                Tiling::new(12, 1, 8),
            ] {
                let nest = LoopNest::new(order, tiling);
                let full = execute_nest_with(&a, &b, mm, &nest, &mut scratch);
                assert_eq!(
                    measure_nest(mm, &nest),
                    full,
                    "order {order:?} tiling {tiling}"
                );
            }
        }
    }

    #[test]
    fn traffic_only_fused_counters_match_full_mode() {
        use fusecu_fusion::{FusedNest, FusedPair, FusedTiling};
        use fusecu_ir::MatMul;
        let pair = FusedPair::try_new(MatMul::new(10, 6, 12), MatMul::new(10, 12, 8)).unwrap();
        let a = Matrix::pseudo_random(10, 6, 81);
        let b = Matrix::pseudo_random(6, 12, 82);
        let d = Matrix::pseudo_random(12, 8, 83);
        let mut scratch = SimScratch::new();
        for outer_is_m in [true, false] {
            for (tm, tk, tl, tn) in [(1u64, 1u64, 1u64, 1u64), (5, 2, 4, 3), (4, 6, 12, 2)] {
                let nest = FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, tl, tn));
                let full = execute_fused_nest_with(&a, &b, &d, &pair, &nest, &mut scratch);
                assert_eq!(measure_fused_nest(&pair, &nest), full, "{nest}");
            }
        }
    }

    #[test]
    fn nest_accounting_tiers_agree() {
        // Naive oracle == closed form, including ragged edges, untiled
        // dims, unit tiles, and single-tile axes. The dedicated proptest
        // suite covers random genomes; this pins a deterministic grid.
        let mm = MatMul::new(12, 10, 8);
        for order in LoopNest::orders() {
            for tiling in [
                Tiling::new(1, 1, 1),
                Tiling::new(3, 2, 4),
                Tiling::new(5, 10, 3),
                Tiling::new(12, 1, 8),
                Tiling::new(7, 7, 7),
                Tiling::new(12, 10, 8),
                Tiling::new(12, 10, 3),
                Tiling::new(5, 10, 8),
            ] {
                let nest = LoopNest::new(order, tiling);
                let naive = oracle::measure_nest(mm, &nest);
                assert_eq!(
                    measure_nest(mm, &nest),
                    naive,
                    "closed form vs naive: order {order:?} tiling {tiling}"
                );
            }
        }
    }

    #[test]
    fn fused_accounting_tiers_agree() {
        use fusecu_fusion::{FusedNest, FusedPair, FusedTiling};
        let pair = FusedPair::try_new(MatMul::new(10, 6, 12), MatMul::new(10, 12, 8)).unwrap();
        for outer_is_m in [true, false] {
            for (tm, tk, tl, tn) in [
                (1u64, 1u64, 1u64, 1u64),
                (5, 2, 4, 3),
                (4, 6, 12, 2),
                (10, 6, 12, 8),
                (10, 3, 12, 8),
                (3, 6, 5, 8),
                (10, 6, 5, 3),
            ] {
                let nest = FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, tl, tn));
                let naive = oracle::measure_fused_nest(&pair, &nest);
                assert_eq!(
                    measure_fused_nest(&pair, &nest),
                    naive,
                    "closed form vs naive: {nest}"
                );
            }
        }
    }

    #[test]
    fn shared_scratch_replays_are_identical_to_fresh_runs() {
        // One scratch reused across many nests must never bleed state.
        let mm = MatMul::new(9, 11, 7);
        let a = Matrix::pseudo_random(9, 11, 51);
        let b = Matrix::pseudo_random(11, 7, 52);
        let mut scratch = SimScratch::new();
        for order in LoopNest::orders() {
            let nest = LoopNest::new(order, Tiling::new(4, 3, 5));
            let reused = execute_nest_with(&a, &b, mm, &nest, &mut scratch);
            let fresh = execute_nest(&a, &b, mm, &nest);
            assert_eq!(reused, fresh.measured, "order {order:?}");
            assert_eq!(scratch.out(), &fresh.out, "order {order:?}");
        }
    }

    #[test]
    fn fused_nest_replay_matches_golden_and_model() {
        use fusecu_fusion::{ExtTensor, FusedNest, FusedPair, FusedTiling};
        use fusecu_ir::MatMul;
        let pair = FusedPair::try_new(MatMul::new(10, 6, 12), MatMul::new(10, 12, 8)).unwrap();
        let a = Matrix::pseudo_random(10, 6, 81);
        let b = Matrix::pseudo_random(6, 12, 82);
        let d = Matrix::pseudo_random(12, 8, 83);
        let golden = a.matmul(&b).matmul(&d);
        let model = CostModel::paper();
        for outer_is_m in [true, false] {
            for (tm, tk, tl, tn) in [
                (1u64, 1u64, 1u64, 1u64),
                (5, 2, 4, 3),
                (10, 6, 3, 8),
                (4, 6, 12, 2),
                (10, 3, 12, 8),
            ] {
                let nest = FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, tl, tn));
                let run = execute_fused_nest(&a, &b, &d, &pair, &nest);
                assert_eq!(run.out, golden, "{nest}");
                let predicted = nest.evaluate(&model, &pair);
                for (i, t) in ExtTensor::ALL.iter().enumerate() {
                    assert_eq!(
                        run.measured[i],
                        predicted.of(*t),
                        "{nest} tensor {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn optimized_fused_nest_replays_exactly() {
        use fusecu_fusion::{optimize_pair, ExtTensor, FusedPair};
        use fusecu_ir::MatMul;
        let pair = FusedPair::try_new(MatMul::new(24, 8, 24), MatMul::new(24, 24, 8)).unwrap();
        let a = Matrix::pseudo_random(24, 8, 91);
        let b = Matrix::pseudo_random(8, 24, 92);
        let d = Matrix::pseudo_random(24, 8, 93);
        let model = CostModel::paper();
        for bs in [16u64, 120, 800] {
            if let Some(fused) = optimize_pair(&model, pair, bs) {
                let run = execute_fused_nest(&a, &b, &d, &pair, fused.nest());
                assert_eq!(run.out, a.matmul(&b).matmul(&d), "bs={bs}");
                let total: u64 = run.measured.iter().sum();
                assert_eq!(total, fused.total_ma(), "bs={bs}");
                let _ = ExtTensor::ALL;
            }
        }
    }

    /// The deterministic chain grid shared by the replay and tier tests:
    /// a handful of depths with ragged spans, swept over shared tiles and
    /// every untiled/tiled phase mask (widths 1 and 2 when tiled).
    fn chain_grid(
        mut check: impl FnMut(&fusecu_fusion::FusedChain, &fusecu_fusion::ChainNest),
    ) {
        use fusecu_fusion::{ChainNest, FusedChain};
        use fusecu_ir::MatMul;
        let mk = |m: u64, cols: &[u64]| {
            let mms: Vec<MatMul> = cols
                .windows(2)
                .map(|w| MatMul::new(m, w[0], w[1]))
                .collect();
            FusedChain::try_new(&mms).unwrap()
        };
        for c in [
            mk(7, &[5, 9, 4]),
            mk(12, &[4, 4, 10, 6]),
            mk(24, &[8, 24, 8, 16]),
            mk(5, &[13, 3, 6, 2, 7]),
        ] {
            let k = c.depth();
            for t_m in [1u64, 3, 5, 24] {
                for mask in 0u64..(1 << k) {
                    let tiles: Vec<u64> = (0..k)
                        .map(|i| {
                            if mask & (1 << i) != 0 {
                                ChainNest::phase_dim(&c, i)
                            } else {
                                1 + (i as u64 % 2)
                            }
                        })
                        .collect();
                    check(&c, &ChainNest::new(t_m, tiles));
                }
            }
        }
    }

    #[test]
    fn chain_accounting_tiers_agree() {
        // Naive oracle == closed form == analytical model, across depths
        // 3..5, ragged spans, and untiled/tiled phase masks.
        let model = CostModel::paper();
        chain_grid(|c, nest| {
            let naive = oracle::measure_fused_chain(c, nest);
            assert_eq!(
                measure_fused_chain(c, nest),
                naive,
                "closed form vs naive: chain={c} nest={nest}"
            );
            assert_eq!(
                nest.evaluate(&model, c).per_tensor(),
                naive,
                "analytical model vs naive: chain={c} nest={nest}"
            );
        });
    }

    #[test]
    fn fused_chain_replay_matches_golden_and_model() {
        // Full replay: exact product and byte-exact agreement with the
        // analytical k-ary chain model, for every grid point.
        let model = CostModel::paper();
        chain_grid(|c, nest| {
            let k = c.depth();
            let x = Matrix::pseudo_random(c.m() as usize, c.col(0) as usize, 7);
            let ws: Vec<Matrix> = (0..k)
                .map(|i| {
                    Matrix::pseudo_random(
                        c.col(i) as usize,
                        c.col(i + 1) as usize,
                        8 + i as u64,
                    )
                })
                .collect();
            let golden = ws.iter().fold(x.clone(), |acc, w| acc.matmul(w));
            let run = execute_fused_chain(&x, &ws, c, nest);
            assert_eq!(run.out, golden, "chain={c} nest={nest}");
            assert_eq!(
                run.measured,
                nest.evaluate(&model, c).per_tensor(),
                "chain={c} nest={nest}"
            );
        });
    }

    #[test]
    fn optimized_fused_chain_replays_exactly() {
        use fusecu_fusion::{optimize_chain, FusedChain};
        use fusecu_ir::MatMul;
        // The mini-attention Q suffix: qk^T → pv → out_proj.
        let c = FusedChain::try_new(&[
            MatMul::new(24, 8, 24),
            MatMul::new(24, 24, 8),
            MatMul::new(24, 8, 16),
        ])
        .unwrap();
        let x = Matrix::pseudo_random(24, 8, 17);
        let ws = [
            Matrix::pseudo_random(8, 24, 18),
            Matrix::pseudo_random(24, 8, 19),
            Matrix::pseudo_random(8, 16, 20),
        ];
        let golden = ws.iter().fold(x.clone(), |acc, w| acc.matmul(w));
        let model = CostModel::paper();
        let mut any = false;
        for bs in [64u64, 600, 4_096] {
            if let Some(fused) = optimize_chain(&model, &c, bs) {
                any = true;
                let run = execute_fused_chain(&x, &ws, &c, fused.nest());
                assert_eq!(run.out, golden, "bs={bs}");
                let total: u64 = run.measured.iter().sum();
                assert_eq!(total, fused.total_ma(), "bs={bs}");
            }
        }
        assert!(any, "at least one buffer size must admit the chain");
    }

    #[test]
    fn cu_execution_handles_ragged_tiles() {
        let a = Matrix::pseudo_random(9, 10, 51);
        let b = Matrix::pseudo_random(10, 7, 52);
        let golden = a.matmul(&b);
        for stationary in [Stationary::Ws, Stationary::Is, Stationary::Os] {
            let (out, cycles) = execute_on_cu(&a, &b, stationary, 4);
            assert_eq!(out, golden, "{stationary}");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn cu_execution_matches_across_array_sizes() {
        let a = Matrix::pseudo_random(6, 6, 61);
        let b = Matrix::pseudo_random(6, 6, 62);
        let (small, _) = execute_on_cu(&a, &b, Stationary::Ws, 2);
        let (large, _) = execute_on_cu(&a, &b, Stationary::Ws, 8);
        assert_eq!(small, large);
        assert_eq!(small, a.matmul(&b));
    }

    #[test]
    fn bigger_arrays_use_fewer_cycles() {
        let a = Matrix::pseudo_random(16, 16, 71);
        let b = Matrix::pseudo_random(16, 16, 72);
        let (_, c4) = execute_on_cu(&a, &b, Stationary::Os, 4);
        let (_, c8) = execute_on_cu(&a, &b, Stationary::Os, 8);
        assert!(c8 < c4);
    }
}
