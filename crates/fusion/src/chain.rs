//! The k-ary fused matmul chain and its depth-parametric cost model.
//!
//! [`crate::pair`] covers exactly two fused matmuls; this module
//! generalizes the fused loop-nest model to a chain of `k ≥ 2` matmuls
//! `Y_0 = X × W_0`, `Y_i = Y_{i-1} × W_i`, sharing one row dimension `M`:
//!
//! ```text
//! for (m tiles of size T_M)                        // single shared loop
//!   phase 0:   for c_0 tiles { Y_0 panel += X_tile × W_0 rows }
//!   phase i:   for c_i tiles { Y_i panel += Y_{i-1} panel × W_i rows }
//!   phase k-1: for c_k tiles { O_tile = Y_{k-2} panel × W_{k-1} cols }
//! ```
//!
//! Every interior intermediate `Y_i` is held as a full-width row panel
//! `[T_M, c_{i+1}]`, resident simultaneously across the whole phase
//! sequence, so none of them ever touches memory — the k-ary extension of
//! the pair model's memory-silent `C`. The externals are the chain input
//! `X[M, c_0]`, the weights `W_i[c_i, c_{i+1}]`, and the output
//! `O[M, c_k]`; their traffic follows the same trailing-window reuse
//! analysis as [`crate::nest::FusedNest`], and at `k = 2` the model
//! coincides term for term with the pair model's untiled-`L` slice
//! (`T_L = L`), which the tests pin.
//!
//! The same MA-first objective applies: [`optimize_chain`] minimizes total
//! external memory access, breaking ties toward the smaller footprint, over
//! the closed-form candidate family (binary phase tilings crossed with the
//! bisected maximal `T_M`).

use std::fmt;
use std::sync::OnceLock;

use fusecu_dataflow::memo::{MemoCache, SectionCounters};
use fusecu_dataflow::CostModel;
use fusecu_ir::MatMul;

use crate::optimizer::{balance, max_feasible};

/// Error building a fused chain from incompatible matmuls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainFusionError {
    /// Fewer than two matmuls.
    TooShort,
    /// A matmul's row dimension differs from the chain's shared `M`.
    RowMismatch {
        /// Index of the offending matmul.
        index: usize,
    },
    /// A matmul's reduction dimension differs from its producer's output
    /// columns.
    ShapeMismatch {
        /// Index of the offending (consumer) matmul.
        index: usize,
    },
}

impl fmt::Display for ChainFusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainFusionError::TooShort => write!(f, "a fused chain needs at least two matmuls"),
            ChainFusionError::RowMismatch { index } => {
                write!(f, "matmul {index} does not share the chain's row dimension")
            }
            ChainFusionError::ShapeMismatch { index } => {
                write!(f, "matmul {index} cannot read its producer's output")
            }
        }
    }
}

impl std::error::Error for ChainFusionError {}

/// A validated chain of `k ≥ 2` matmuls `mm_i = [M, c_i] × [c_i, c_{i+1}]`
/// sharing the row dimension `M`, with every interior intermediate
/// memory-silent when fused.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FusedChain {
    m: u64,
    /// The column trail `c_0 … c_k` (`k + 1` entries).
    dims: Vec<u64>,
}

impl FusedChain {
    /// Validates a matmul sequence as a fusable chain: at least two
    /// matmuls, all sharing `M`, each reading its predecessor's output
    /// (`mm_{i+1}.k == mm_i.l`).
    pub fn try_new(mms: &[MatMul]) -> Result<FusedChain, ChainFusionError> {
        if mms.len() < 2 {
            return Err(ChainFusionError::TooShort);
        }
        let m = mms[0].m();
        let mut dims = Vec::with_capacity(mms.len() + 1);
        dims.push(mms[0].k());
        for (i, mm) in mms.iter().enumerate() {
            if mm.m() != m {
                return Err(ChainFusionError::RowMismatch { index: i });
            }
            if mm.k() != dims[i] {
                return Err(ChainFusionError::ShapeMismatch { index: i });
            }
            dims.push(mm.l());
        }
        Ok(FusedChain { m, dims })
    }

    /// Number of matmuls in the chain (`k`).
    pub fn depth(&self) -> usize {
        self.dims.len() - 1
    }

    /// The shared row dimension `M`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Column dimension `c_i` (`i ∈ 0..=k`).
    pub fn col(&self, i: usize) -> u64 {
        self.dims[i]
    }

    /// The `i`-th matmul `[M, c_i] × [c_i, c_{i+1}]`.
    pub fn mm(&self, i: usize) -> MatMul {
        MatMul::new(self.m, self.dims[i], self.dims[i + 1])
    }

    /// Elements of the weight `W_i[c_i, c_{i+1}]`.
    pub fn weight_elems(&self, i: usize) -> u64 {
        self.dims[i] * self.dims[i + 1]
    }

    /// Elements of all interior intermediates `Y_0 … Y_{k-2}` combined.
    pub fn interior_elems(&self) -> u64 {
        self.dims[1..self.depth()].iter().map(|c| self.m * c).sum()
    }

    /// The infinite-buffer fused lower bound: every external tensor
    /// streamed exactly once.
    pub fn external_ideal_ma(&self) -> u64 {
        let k = self.depth();
        let weights: u64 = (0..k).map(|i| self.weight_elems(i)).sum();
        self.m * self.dims[0] + weights + self.m * self.dims[k]
    }

    /// The infinite-buffer unfused bound: the external bound plus a write
    /// and a re-read of every interior intermediate.
    pub fn unfused_ideal_ma(&self) -> u64 {
        self.external_ideal_ma() + 2 * self.interior_elems()
    }

    /// Total multiply-accumulates of the chain.
    pub fn macs(&self) -> u64 {
        (0..self.depth()).map(|i| self.m * self.weight_elems(i)).sum()
    }
}

impl fmt::Display for FusedChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chain[{}; {}", self.depth(), self.m)?;
        for c in &self.dims {
            write!(f, "x{c}")?;
        }
        write!(f, "]")
    }
}

/// A chain loop nest: the shared `M` tile plus one tile size per phase.
///
/// Phase `i < k-1` tiles its reduction dimension `c_i` (the rows of `W_i`
/// streamed into the resident `Y_i` panel); the final phase `k-1` tiles the
/// output dimension `c_k` (the columns of `W_{k-1}` and of `O`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainNest {
    /// Shared `M` tile size.
    pub t_m: u64,
    /// Per-phase tile sizes (`k` entries).
    pub phase_tiles: Vec<u64>,
}

impl ChainNest {
    /// Creates a chain nest.
    ///
    /// # Panics
    ///
    /// Panics if any tile size is zero.
    pub fn new(t_m: u64, phase_tiles: Vec<u64>) -> ChainNest {
        assert!(
            t_m > 0 && phase_tiles.iter().all(|&t| t > 0),
            "tile sizes must be non-zero"
        );
        ChainNest { t_m, phase_tiles }
    }

    /// The dimension phase `i` tiles: `c_i` for reduction phases, `c_k`
    /// for the final output phase.
    pub fn phase_dim(chain: &FusedChain, i: usize) -> u64 {
        if i + 1 == chain.depth() {
            chain.col(chain.depth())
        } else {
            chain.col(i)
        }
    }

    /// Clamped shared tile size.
    pub fn clamped_t_m(&self, chain: &FusedChain) -> u64 {
        self.t_m.min(chain.m())
    }

    /// Clamped tile size of phase `i`.
    pub fn clamped_phase_tile(&self, chain: &FusedChain, i: usize) -> u64 {
        self.phase_tiles[i].min(Self::phase_dim(chain, i))
    }

    /// Iteration count of the shared `M` loop.
    pub fn m_iterations(&self, chain: &FusedChain) -> u64 {
        chain.m().div_ceil(self.clamped_t_m(chain))
    }

    /// Iteration count of phase `i`'s tile loop.
    pub fn phase_iterations(&self, chain: &FusedChain, i: usize) -> u64 {
        Self::phase_dim(chain, i).div_ceil(self.clamped_phase_tile(chain, i))
    }

    /// Reload multiplier of the weight `W_i`: its tiles change inside
    /// phase `i`, so a multi-iteration phase re-streams the whole weight
    /// on every shared `M` iteration; a single-iteration phase keeps it
    /// resident (one load) — exactly the pair model's trailing-window rule
    /// applied to the sequence `[M loop, phase-i loop]`.
    pub fn weight_multiplier(&self, chain: &FusedChain, i: usize) -> u64 {
        if self.phase_iterations(chain, i) > 1 {
            self.m_iterations(chain)
        } else {
            1
        }
    }

    /// Whether `W_i` must stay resident across the other phases (counted
    /// persistently in the footprint): a single-tile phase under an
    /// iterating `M` loop, mirroring the pair model's persistence of `B`
    /// and `D`.
    pub fn weight_is_persistent(&self, chain: &FusedChain, i: usize) -> bool {
        self.phase_iterations(chain, i) == 1 && self.m_iterations(chain) > 1
    }

    /// Memory access of the chain input `X[M, c_0]`: its tile key changes
    /// with every `(m, c_0)` index, so it is streamed exactly once.
    pub fn x_ma(&self, chain: &FusedChain) -> u64 {
        chain.m() * chain.col(0)
    }

    /// Memory access of the weight `W_i`.
    pub fn weight_ma(&self, chain: &FusedChain, i: usize) -> u64 {
        chain.weight_elems(i) * self.weight_multiplier(chain, i)
    }

    /// Memory access of the output `O[M, c_k]`. Every `O` tile is written
    /// once from a fully reduced panel, so its reload multiplier is 1 and
    /// the read-write partial-sum policy charges the same as per-visit
    /// (`2·1 − 1 = 1`).
    pub fn out_ma(&self, _model: &CostModel, chain: &FusedChain) -> u64 {
        chain.m() * chain.col(chain.depth())
    }

    /// Full external-tensor memory access.
    pub fn evaluate(&self, model: &CostModel, chain: &FusedChain) -> ChainMa {
        let k = chain.depth();
        let mut per = Vec::with_capacity(k + 2);
        per.push(self.x_ma(chain));
        for i in 0..k {
            per.push(self.weight_ma(chain, i));
        }
        per.push(self.out_ma(model, chain));
        ChainMa { per }
    }

    /// Buffer footprint: every interior panel `[T_M, c_{i+1}]` resident
    /// simultaneously, every persistent weight in full, plus the largest
    /// phase's transient tiles.
    pub fn footprint(&self, chain: &FusedChain) -> u64 {
        let k = chain.depth();
        let t_m = self.clamped_t_m(chain);
        let panels: u64 = chain.dims[1..k].iter().map(|c| t_m * c).sum();
        let mut persistent = 0u64;
        let mut max_trans = 0u64;
        for i in 0..k {
            let tile = self.clamped_phase_tile(chain, i);
            let w_tile = if i + 1 == k {
                chain.col(k - 1) * tile // W_{k-1} column tile
            } else {
                tile * chain.col(i + 1) // W_i row tile
            };
            let mut trans = 0u64;
            if self.weight_is_persistent(chain, i) {
                persistent += chain.weight_elems(i);
            } else {
                trans += w_tile;
            }
            if i == 0 {
                trans += t_m * tile; // X tile
            }
            if i + 1 == k {
                trans += t_m * tile; // O tile
            }
            max_trans = max_trans.max(trans);
        }
        panels + persistent + max_trans
    }

    /// Whether the nest fits in a buffer of `bs` elements.
    pub fn fits(&self, chain: &FusedChain, bs: u64) -> bool {
        self.footprint(chain) <= bs
    }
}

impl fmt::Display for ChainNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shared m={} ; phases", self.t_m)?;
        for t in &self.phase_tiles {
            write!(f, " {t}")?;
        }
        Ok(())
    }
}

/// Per-tensor and total memory access of a chain dataflow, in elements:
/// slot 0 is `X`, slots `1..=k` are the weights, slot `k+1` is `O`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChainMa {
    per: Vec<u64>,
}

impl ChainMa {
    /// Traffic of the chain input `X`.
    pub fn of_x(&self) -> u64 {
        self.per[0]
    }

    /// Traffic of the weight `W_i`.
    pub fn of_weight(&self, i: usize) -> u64 {
        self.per[1 + i]
    }

    /// Traffic of the output `O`.
    pub fn of_out(&self) -> u64 {
        *self.per.last().expect("a chain has at least 4 tensors")
    }

    /// Per-tensor traffic in slot order (`X, W_0 … W_{k-1}, O`).
    pub fn per_tensor(&self) -> &[u64] {
        &self.per
    }

    /// Total external traffic (the interior panels contribute zero).
    pub fn total(&self) -> u64 {
        self.per.iter().sum()
    }
}

impl fmt::Display for ChainMa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MA(X)={} MA(W)={:?} MA(O)={} total={}",
            self.of_x(),
            &self.per[1..self.per.len() - 1],
            self.of_out(),
            self.total()
        )
    }
}

/// A scored chain dataflow — the k-ary analogue of
/// [`crate::nest::FusedDataflow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedChainDataflow {
    chain: FusedChain,
    nest: ChainNest,
    ma: ChainMa,
    footprint: u64,
}

impl FusedChainDataflow {
    /// Scores a nest for a chain under a cost model.
    pub fn score(model: &CostModel, chain: FusedChain, nest: ChainNest) -> FusedChainDataflow {
        let ma = nest.evaluate(model, &chain);
        let footprint = nest.footprint(&chain);
        FusedChainDataflow {
            chain,
            nest,
            ma,
            footprint,
        }
    }

    /// The fused chain.
    pub fn chain(&self) -> &FusedChain {
        &self.chain
    }

    /// The chain nest.
    pub fn nest(&self) -> &ChainNest {
        &self.nest
    }

    /// The memory-access breakdown.
    pub fn ma(&self) -> &ChainMa {
        &self.ma
    }

    /// Total external memory access.
    pub fn total_ma(&self) -> u64 {
        self.ma.total()
    }

    /// Buffer footprint in elements.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }
}

impl fmt::Display for FusedChainDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} | {} | buf={}",
            self.chain, self.nest, self.ma, self.footprint
        )
    }
}

/// Every closed-form chain candidate that fits the buffer.
///
/// Weight traffic depends only on whether each phase loop iterates, so
/// intermediate phase tiles are dominated: each phase is either streamed
/// at width 1 or held untiled — `2^k` binary combinations. Per
/// combination the footprint is nondecreasing in `T_M` below `M` (the
/// persistence flags are constant there), so the maximal feasible `T_M`
/// is found by bisection, with `T_M = M` handled by the bisection's
/// fast path (the footprint can dip there when persistent weights stop
/// being double-counted).
pub fn chain_candidates(model: &CostModel, chain: &FusedChain, bs: u64) -> Vec<FusedChainDataflow> {
    let k = chain.depth();
    let m = chain.m();
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << k.min(16)) {
        let tiles: Vec<u64> = (0..k)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    ChainNest::phase_dim(chain, i)
                } else {
                    1
                }
            })
            .collect();
        let build = |t_m: u64| ChainNest::new(t_m, tiles.clone());
        let Some(t_m) = max_feasible(m, |t| build(t).fits(chain, bs)) else {
            continue;
        };
        let nest = build(balance(m, t_m));
        debug_assert!(nest.fits(chain, bs));
        out.push(FusedChainDataflow::score(model, chain.clone(), nest));
    }
    out
}

/// The closed-form chain optimum, or `None` when no chain nest fits the
/// buffer. Same objective as the pair optimizer: minimum total memory
/// access, ties broken toward the smaller footprint.
pub fn optimize_chain(model: &CostModel, chain: &FusedChain, bs: u64) -> Option<FusedChainDataflow> {
    chain_candidates(model, chain, bs).into_iter().min_by(|x, y| {
        x.total_ma()
            .cmp(&y.total_ma())
            .then_with(|| x.footprint().cmp(&y.footprint()))
    })
}

/// The memoization key of one chain optimization.
pub type ChainFusionKey = (FusedChain, u64, CostModel);

/// The process-wide chain-optimum cache. Unlike the other memo caches it
/// is kept in memory only: chain optima are cheap to rebuild from the
/// persisted graph plans.
pub fn chain_cache() -> &'static MemoCache<ChainFusionKey, Option<FusedChainDataflow>> {
    static CACHE: OnceLock<MemoCache<ChainFusionKey, Option<FusedChainDataflow>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Memoized [`optimize_chain`]: the graph planner re-prices the same
/// sub-paths across components, buffer sweeps, and ablation grids.
pub fn optimize_chain_cached(
    model: &CostModel,
    chain: &FusedChain,
    bs: u64,
) -> Option<FusedChainDataflow> {
    chain_cache().get_or_compute((chain.clone(), bs, *model), || {
        optimize_chain(model, chain, bs)
    })
}

/// Per-section counters of the process-wide chain-optimum cache, for
/// machine-readable stats (`--stats-json`, the serve daemon). The cache
/// is in memory only, so `entries` always starts at zero in a fresh
/// process.
pub fn chain_cache_counters() -> SectionCounters {
    chain_cache().counters("chains")
}

/// Drops all chain-optimum cache entries and resets its counters — for
/// tests and the stress harness's cold-start-per-process baseline.
pub fn chain_cache_clear() {
    chain_cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{FusedNest, FusedTiling};
    use crate::pair::{ExtTensor, FusedPair};

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    fn chain(m: u64, dims: &[u64]) -> FusedChain {
        let mms: Vec<MatMul> = dims
            .windows(2)
            .map(|w| MatMul::new(m, w[0], w[1]))
            .collect();
        FusedChain::try_new(&mms).unwrap()
    }

    #[test]
    fn validation_rejects_incompatible_sequences() {
        assert_eq!(
            FusedChain::try_new(&[MatMul::new(8, 4, 8)]),
            Err(ChainFusionError::TooShort)
        );
        assert_eq!(
            FusedChain::try_new(&[MatMul::new(8, 4, 8), MatMul::new(9, 8, 4)]),
            Err(ChainFusionError::RowMismatch { index: 1 })
        );
        assert_eq!(
            FusedChain::try_new(&[MatMul::new(8, 4, 8), MatMul::new(8, 6, 4)]),
            Err(ChainFusionError::ShapeMismatch { index: 1 })
        );
        let c = chain(8, &[4, 8, 4, 16]);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.mm(1), MatMul::new(8, 8, 4));
    }

    #[test]
    fn ideal_bounds_match_hand_count() {
        let c = chain(24, &[8, 24, 8, 16]);
        // X + W_0 + W_1 + W_2 + O.
        let ext = 24 * 8 + 8 * 24 + 24 * 8 + 8 * 16 + 24 * 16;
        assert_eq!(c.external_ideal_ma(), ext);
        // Interior Y_0[24,24] and Y_1[24,8], each written and re-read.
        assert_eq!(c.interior_elems(), 24 * 24 + 24 * 8);
        assert_eq!(c.unfused_ideal_ma(), ext + 2 * (24 * 24 + 24 * 8));
        assert_eq!(c.macs(), 24 * (8 * 24 + 24 * 8 + 8 * 16));
    }

    /// At `k = 2` the chain schedule is exactly the pair model's
    /// `T_L = L` slice: same traffic per tensor, same footprint,
    /// including the persistence rules — the subsumption invariant the
    /// tentpole relies on.
    #[test]
    fn depth_two_matches_pair_model_at_full_width() {
        let shapes = [(24u64, 8u64, 24u64, 8u64), (7, 5, 9, 4), (64, 8, 64, 8)];
        for (m, k, l, n) in shapes {
            let c = chain(m, &[k, l, n]);
            let p = FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap();
            for model in [CostModel::paper(), CostModel::read_write()] {
                for t_m in [1, 3, m.div_ceil(2), m] {
                    for t_k in [1, 2, k] {
                        for t_n in [1, 3, n] {
                            let cn = ChainNest::new(t_m, vec![t_k, t_n]);
                            let pn = FusedNest::new(true, FusedTiling::new(t_m, t_k, l, t_n));
                            let cma = cn.evaluate(&model, &c);
                            let pma = pn.evaluate(&model, &p);
                            let label = format!("m={m} k={k} l={l} n={n} nest={cn}");
                            assert_eq!(cma.of_x(), pma.of(ExtTensor::A), "{label}");
                            assert_eq!(cma.of_weight(0), pma.of(ExtTensor::B), "{label}");
                            assert_eq!(cma.of_weight(1), pma.of(ExtTensor::D), "{label}");
                            assert_eq!(cma.of_out(), pma.of(ExtTensor::E), "{label}");
                            assert_eq!(cn.footprint(&c), pn.footprint(&p), "{label}");
                        }
                    }
                }
            }
        }
    }

    /// Literal simulation of the chain schedule: one resident tile per
    /// external tensor, charging an edge-clamped tile load on every key
    /// change — the same residency discipline as the pair model's
    /// simulation test.
    fn simulate(chain: &FusedChain, nest: &ChainNest) -> Vec<u64> {
        let k = chain.depth();
        let m = chain.m();
        let t_m = nest.clamped_t_m(chain) as usize;
        let n_m = nest.m_iterations(chain) as usize;
        let span = |dim: u64, tile: usize, i: usize| tile.min(dim as usize - i * tile);
        let mut traffic = vec![0u64; k + 2];
        let mut resident: Vec<Option<(usize, usize)>> = vec![None; k + 2];
        for im in 0..n_m {
            let sm = span(m, t_m, im);
            for phase in 0..k {
                let tile = nest.clamped_phase_tile(chain, phase) as usize;
                let dim = ChainNest::phase_dim(chain, phase);
                let iters = nest.phase_iterations(chain, phase) as usize;
                for it in 0..iters {
                    let sp = span(dim, tile, it);
                    if phase == 0 {
                        // X tile [t_m, t_0], key (im, it).
                        if resident[0] != Some((im, it)) {
                            traffic[0] += (sm * sp) as u64;
                            resident[0] = Some((im, it));
                        }
                    }
                    // Weight tile: rows for reduction phases, columns for
                    // the final phase; key is the phase index alone.
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
                        // O tile [t_m, t_out], written once per key.
                        let slot = k + 1;
                        if resident[slot] != Some((im, it)) {
                            traffic[slot] += (sm * sp) as u64;
                            resident[slot] = Some((im, it));
                        }
                    }
                }
            }
        }
        traffic
    }

    #[test]
    fn analytical_ma_matches_loop_simulation() {
        let chains = [
            chain(7, &[5, 9, 4]),
            chain(12, &[4, 4, 10, 6]),
            chain(24, &[8, 24, 8, 16]),
            chain(5, &[13, 3, 6, 2, 7]),
        ];
        for c in &chains {
            let k = c.depth();
            for t_m in [1u64, 2, 3, 5, 24] {
                for mask in 0u64..(1 << k) {
                    let tiles: Vec<u64> = (0..k)
                        .map(|i| {
                            let d = ChainNest::phase_dim(c, i);
                            if mask & (1 << i) != 0 {
                                d
                            } else {
                                1 + (i as u64 % 2) // widths 1 and 2
                            }
                        })
                        .collect();
                    let nest = ChainNest::new(t_m, tiles);
                    let ma = nest.evaluate(&MODEL, c);
                    assert_eq!(
                        ma.per_tensor(),
                        simulate(c, &nest),
                        "chain={c} nest={nest}"
                    );
                }
            }
        }
    }

    #[test]
    fn huge_buffer_reaches_external_lower_bound() {
        let c = chain(24, &[8, 24, 8, 16]);
        let f = optimize_chain(&MODEL, &c, 1 << 20).unwrap();
        assert_eq!(f.total_ma(), c.external_ideal_ma());
        assert_eq!(f.nest().m_iterations(&c), 1);
    }

    #[test]
    fn optimum_respects_buffer_and_lower_bound() {
        let c = chain(64, &[16, 48, 16, 32]);
        let mut last = u64::MAX;
        for bs in [64u64, 256, 2_048, 16_384, 1 << 20] {
            if let Some(f) = optimize_chain(&MODEL, &c, bs) {
                assert!(f.footprint() <= bs, "bs={bs}");
                assert!(f.total_ma() >= c.external_ideal_ma(), "bs={bs}");
                assert!(f.total_ma() <= last, "bs={bs}: optimum must be monotone");
                last = f.total_ma();
            }
        }
        assert_eq!(last, c.external_ideal_ma());
    }

    #[test]
    fn tiny_buffer_returns_none() {
        // The smallest depth-3 nest holds two unit-width interior panels
        // plus a unit transient set; below that nothing fits.
        let c = chain(64, &[16, 48, 16, 32]);
        assert!(optimize_chain(&MODEL, &c, 3).is_none());
        assert!(optimize_chain(&MODEL, &c, 1 << 20).is_some());
    }

    #[test]
    fn cached_chain_optimum_matches_direct() {
        let c = chain(24, &[8, 24, 8, 16]);
        for bs in [3u64, 512, 1 << 20] {
            assert_eq!(
                optimize_chain_cached(&MODEL, &c, bs),
                optimize_chain(&MODEL, &c, bs),
                "bs={bs}"
            );
        }
    }

    #[test]
    fn display_renders() {
        let c = chain(24, &[8, 24, 8, 16]);
        let f = optimize_chain(&MODEL, &c, 1 << 20).unwrap();
        let s = f.to_string();
        assert!(s.contains("chain[3;") && s.contains("buf="), "{s}");
    }
}
