//! Per-operator optimization within one platform's dataflow space.
//!
//! Following the paper's §II-A split, the buffer↔memory level (tiling +
//! scheduling) and the PE↔buffer level (mapping) are optimized separately:
//!
//! * the buffer-level loop nest comes from the principle optimizer,
//!   restricted to the platform's supported stationaries and — for rigid
//!   systolic designs — to array-aligned stationary tiles;
//! * the spatial mapping picks the best array shape from the platform's
//!   flexibility menu ([`crate::flex`]).
//!
//! The two couple through the final cycle count `max(compute, DRAM)`; the
//! chosen configuration minimizes `(memory access, cycles)` — communication
//! first, matching the paper's lower-bound objective. Memory access is the
//! primary metric throughout the paper (and the only one its principles
//! bound); cycles only break ties between stationaries with equal traffic.
//! Putting cycles first would let a larger buffer or a faster DRAM link
//! *raise* traffic by trading MA for compute overlap, breaking the
//! monotonicity the lower-bound analysis guarantees.

use std::sync::OnceLock;

use fusecu_dataflow::principles::stationary_sweep;
use fusecu_dataflow::{CostModel, Dataflow, LoopNest, Tiling};
use fusecu_ir::{MatMul, Operand};
use fusecu_dataflow::memo::{MemoCache, SectionCounters};

use crate::flex::best_mapping;
use crate::platform::Platform;
use crate::spec::ArraySpec;
use crate::stationary::Stationary;

/// Buffer-level dataflow of a rigid systolic design ("low tiling
/// flexibility"): the stationary tensor is staged in exactly one `N × N`
/// array panel at a time (clamped to the dimension sizes), so the two
/// stationary dimensions' tiles are pinned to the panel edge and only the
/// streamed dimension tiles freely (its tile does not change memory access;
/// the minimum footprint of 1 is used). This is how TPU-class pipelines
/// stage weights, and it is the restriction that costs TPUv4i/Gemmini their
/// memory traffic in Fig 10: every panel switch re-streams the non-resident
/// operands.
///
/// The staging pipeline can, however, chain consecutive panels along *one*
/// stationary dimension (the weight-FIFO effect: panels prefetch back to
/// back along the contraction or output-column axis), so one stationary
/// tile may grow in panel multiples while the other stays pinned at `N`.
/// Both aggregation axes are tried and the better one kept.
///
/// When even a single panel does not fit the buffer, the panel shrinks to
/// the largest feasible edge — rigid hardware with a tiny scratchpad still
/// runs, just with a smaller logical panel.
fn panel_dataflow(
    model: &CostModel,
    mm: MatMul,
    bs: u64,
    stationary: Operand,
    n: u64,
) -> Option<Dataflow> {
    let [da, db] = stationary.dims();
    let dc = stationary.missing_dim();
    let mut best: Option<Dataflow> = None;
    for (agg, pin) in [(da, db), (db, da)] {
        let mut edge = n;
        while edge > 0 {
            let t_pin = edge.min(mm.dim(pin));
            let base = Tiling::new(1, 1, 1).with(pin, t_pin).with(dc, 1);
            if !base.with(agg, edge.min(mm.dim(agg))).fits(mm, bs) {
                edge /= 2;
                continue;
            }
            // Largest panel multiple (or the full dimension) that fits.
            let mut t_agg = edge.min(mm.dim(agg));
            loop {
                let next = if t_agg + edge >= mm.dim(agg) {
                    mm.dim(agg)
                } else {
                    t_agg + edge
                };
                if next == t_agg || !base.with(agg, next).fits(mm, bs) {
                    break;
                }
                t_agg = next;
            }
            let nest = LoopNest::new([da, db, dc], base.with(agg, t_agg));
            let df = model.dataflow(mm, nest);
            if best.is_none_or(|b| df.total_ma() < b.total_ma()) {
                best = Some(df);
            }
            break;
        }
    }
    best
}

/// The selected execution of one matmul on one platform.
#[derive(Debug, Clone, Copy)]
pub struct OpPerf {
    mm: MatMul,
    count: u64,
    stationary: Stationary,
    shape: (u64, u64),
    dataflow: Dataflow,
    compute_cycles: u64,
    dram_cycles: u64,
}

impl OpPerf {
    /// The matmul.
    pub fn mm(&self) -> MatMul {
        self.mm
    }

    /// Instance count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The chosen PE-level stationary.
    pub fn stationary(&self) -> Stationary {
        self.stationary
    }

    /// The chosen logical array shape per CU.
    pub fn shape(&self) -> (u64, u64) {
        self.shape
    }

    /// The chosen buffer-level dataflow.
    pub fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }

    /// Total memory access over all instances, in elements.
    pub fn total_ma(&self) -> u64 {
        self.dataflow.total_ma() * self.count
    }

    /// Wall-clock compute cycles over all instances (CU parallelism
    /// applied).
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// DRAM transfer cycles over all instances.
    pub fn dram_cycles(&self) -> u64 {
        self.dram_cycles
    }

    /// Execution cycles with compute/DRAM overlap (double buffering).
    pub fn cycles(&self) -> u64 {
        self.compute_cycles.max(self.dram_cycles)
    }

    /// Total MACs over all instances.
    pub fn macs(&self) -> u64 {
        self.mm.macs() * self.count
    }
}

/// One per-stationary candidate execution: the expensive,
/// bandwidth-invariant half of [`optimize_op`].
///
/// The buffer-level dataflow and the array mapping depend only on the
/// shape, the platform, the buffer budget, and the array edge — never on
/// DRAM bandwidth, CU count, or instance count, which enter only in the
/// final cycle division. Caching at this granularity lets a bandwidth
/// ablation or a CU-count sweep reuse every candidate list and re-run only
/// the arithmetic of [`select_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCandidate {
    stationary: Stationary,
    shape: (u64, u64),
    dataflow: Dataflow,
    unit_compute_cycles: u64,
}

impl OpCandidate {
    /// Rebuilds a candidate from its parts — the reconstruction entry
    /// point for the disk persistence layer. Candidate generation always
    /// goes through [`op_candidates`].
    pub fn new(
        stationary: Stationary,
        shape: (u64, u64),
        dataflow: Dataflow,
        unit_compute_cycles: u64,
    ) -> OpCandidate {
        OpCandidate {
            stationary,
            shape,
            dataflow,
            unit_compute_cycles,
        }
    }

    /// The PE-level stationary this candidate keeps resident.
    pub fn stationary(&self) -> Stationary {
        self.stationary
    }

    /// The chosen logical array shape per CU.
    pub fn shape(&self) -> (u64, u64) {
        self.shape
    }

    /// The buffer-level dataflow.
    pub fn dataflow(&self) -> &Dataflow {
        &self.dataflow
    }

    /// Compute cycles of a single instance on a single CU.
    pub fn unit_compute_cycles(&self) -> u64 {
        self.unit_compute_cycles
    }
}

/// The per-stationary candidate executions of one matmul on one platform,
/// in the platform's stationary order. Empty when the buffer cannot hold
/// even a unit tiling.
pub fn op_candidates(
    spec: &ArraySpec,
    platform: Platform,
    model: &CostModel,
    mm: MatMul,
) -> Vec<OpCandidate> {
    let mut out = Vec::new();
    for &stationary in platform.stationaries() {
        let operand = stationary.operand();
        let dataflow = if platform.array_aligned_tiles() {
            panel_dataflow(model, mm, spec.buffer_elems, operand, spec.pe_dim)
        } else {
            stationary_sweep(model, mm, spec.buffer_elems, operand)
        };
        let Some(dataflow) = dataflow else { continue };
        let [d1, d2] = stationary.array_dims().map(|d| mm.dim(d));
        let d3 = mm.dim(stationary.moving_dim());
        let (unit_compute_cycles, shape) = best_mapping(platform.tiling_flex(), spec, d1, d2, d3);
        out.push(OpCandidate {
            stationary,
            shape,
            dataflow,
            unit_compute_cycles,
        });
    }
    out
}

/// The cheap, bandwidth-dependent half of [`optimize_op`]: applies the
/// instance count, CU parallelism, and DRAM bandwidth to each candidate
/// and keeps the lexicographic `(memory access, cycles)` minimum, in
/// candidate order. `None` when the candidate list is empty.
pub fn select_op(spec: &ArraySpec, count: u64, candidates: &[OpCandidate]) -> Option<OpPerf> {
    let mut best: Option<OpPerf> = None;
    for c in candidates {
        let compute_cycles = (c.unit_compute_cycles * count).div_ceil(spec.num_cus);
        let dram_cycles = (c.dataflow.total_ma() * count).div_ceil(spec.bw_elems_per_cycle);
        let cand = OpPerf {
            mm: c.dataflow.mm(),
            count,
            stationary: c.stationary,
            shape: c.shape,
            dataflow: c.dataflow,
            compute_cycles,
            dram_cycles,
        };
        let better = match &best {
            None => true,
            Some(b) => (cand.total_ma(), cand.cycles()) < (b.total_ma(), b.cycles()),
        };
        if better {
            best = Some(cand);
        }
    }
    best
}

/// Optimizes one matmul (with `count` identical instances) within a
/// platform's dataflow space.
///
/// Instances are data-parallel across the CUs; compute cycles are CU-cycles
/// divided by the CU count (ceiling).
///
/// # Panics
///
/// Panics when the buffer cannot hold even a unit tiling (`buffer < 3`).
pub fn optimize_op(
    spec: &ArraySpec,
    platform: Platform,
    model: &CostModel,
    mm: MatMul,
    count: u64,
) -> OpPerf {
    assert!(count > 0, "instance count must be non-zero");
    select_op(spec, count, &op_candidates(spec, platform, model, mm)).unwrap_or_else(|| {
        panic!(
            "buffer of {} elements cannot hold any tile of {mm}",
            spec.buffer_elems
        )
    })
}

/// Memoization key of one candidate-generation problem: every input
/// [`op_candidates`] depends on. Deliberately *narrower* than `ArraySpec`:
/// only the array edge and the buffer budget enter candidate generation,
/// so sweeping bandwidth or CU count reuses the cached list. (Keying on
/// the full spec was the PR 1 bug that made the ablation bandwidth sweep
/// miss on every point.)
pub type TileKey = (MatMul, Platform, u64, u64, CostModel);

fn tile_key(spec: &ArraySpec, platform: Platform, model: &CostModel, mm: MatMul) -> TileKey {
    (mm, platform, spec.pe_dim, spec.buffer_elems, *model)
}

/// The process-wide operator cache.
pub fn op_cache() -> &'static MemoCache<TileKey, Vec<OpCandidate>> {
    static CACHE: OnceLock<MemoCache<TileKey, Vec<OpCandidate>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// [`optimize_op`] through the process-wide operator cache.
///
/// Graph evaluation revisits the same operator many times — transformer
/// graphs repeat shapes across layers (already aggregated into `count`)
/// and, more importantly, the figure grids re-evaluate identical
/// `(shape, platform)` points across models, bandwidth sweeps, CU counts,
/// and sequence lengths. The expensive candidate generation is cached on
/// [`TileKey`]; the per-call [`select_op`] arithmetic applies the
/// remaining spec fields, so cached and uncached paths select identically.
///
/// # Panics
///
/// Panics when the buffer cannot hold even a unit tiling (`buffer < 3`).
pub fn optimize_op_cached(
    spec: &ArraySpec,
    platform: Platform,
    model: &CostModel,
    mm: MatMul,
    count: u64,
) -> OpPerf {
    try_optimize_op_cached(spec, platform, model, mm, count).unwrap_or_else(|| {
        panic!(
            "buffer of {} elements cannot hold any tile of {mm}",
            spec.buffer_elems
        )
    })
}

/// Fallible form of [`optimize_op_cached`]: `None` when the buffer cannot
/// hold even a unit tiling (`buffer < 3`), instead of panicking. The entry
/// point for callers probing sub-minimal buffers (ablation sweeps, the
/// graceful graph-evaluation path).
pub fn try_optimize_op_cached(
    spec: &ArraySpec,
    platform: Platform,
    model: &CostModel,
    mm: MatMul,
    count: u64,
) -> Option<OpPerf> {
    assert!(count > 0, "instance count must be non-zero");
    let candidates = op_cache().get_or_compute(tile_key(spec, platform, model, mm), || {
        op_candidates(spec, platform, model, mm)
    });
    select_op(spec, count, &candidates)
}

/// Per-section counters of the process-wide operator cache, for
/// machine-readable stats (`--stats-json`, the serve daemon).
pub fn op_cache_counters() -> SectionCounters {
    op_cache().counters("operators")
}

/// Drops all operator-cache entries and resets its counters — for tests
/// and the stress harness's cold-start-per-process baseline.
pub fn op_cache_clear() {
    op_cache().clear();
}

/// Preloads operator-cache entries saved by an earlier process; returns
/// the number inserted. Counters are untouched.
pub fn op_cache_preload(
    entries: impl IntoIterator<Item = (TileKey, Vec<OpCandidate>)>,
) -> usize {
    op_cache().preload(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArraySpec {
        ArraySpec::paper_default()
    }

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    #[test]
    fn panel_dataflow_pins_one_dim_and_aggregates_the_other() {
        let mm = MatMul::new(4096, 768, 768);
        let df = panel_dataflow(&MODEL, mm, 512 * 1024, Operand::Rhs, 128).unwrap();
        let (tk, tl) = (
            df.tiling().tile(fusecu_ir::MmDim::K),
            df.tiling().tile(fusecu_ir::MmDim::L),
        );
        // One stationary dimension pinned to the 128-panel, the other
        // aggregated to the full dimension through the staging FIFO.
        assert!(
            (tk == 768 && tl == 128) || (tk == 128 && tl == 768),
            "got T_K={tk}, T_L={tl}"
        );
        assert_eq!(df.tiling().tile(fusecu_ir::MmDim::M), 1);
        // Clamped when a dimension is shorter than the panel.
        let small = MatMul::new(1024, 64, 1024);
        let df = panel_dataflow(&MODEL, small, 512 * 1024, Operand::Rhs, 128).unwrap();
        assert!(df.tiling().tile(fusecu_ir::MmDim::K) <= 64);
    }

    #[test]
    fn panel_shrinks_under_tiny_buffers() {
        let mm = MatMul::new(4096, 768, 768);
        let df = panel_dataflow(&MODEL, mm, 4 * 1024, Operand::Rhs, 128).unwrap();
        assert!(df.buffer_elems() <= 4 * 1024);
        assert!(panel_dataflow(&MODEL, mm, 2, Operand::Rhs, 128).is_none());
    }

    #[test]
    fn tpu_is_weight_stationary_only() {
        let p = optimize_op(&spec(), Platform::Tpuv4i, &MODEL, MatMul::new(1024, 768, 768), 1);
        assert_eq!(p.stationary(), Stationary::Ws);
        assert_eq!(p.shape(), (128, 128));
    }

    #[test]
    fn flexible_stationary_never_hurts() {
        // Gemmini's space strictly contains TPUv4i's, UnfCU's contains
        // Gemmini's: cycles and MA must be monotone along that chain.
        let shapes = [
            MatMul::new(1024, 64, 1024),
            MatMul::new(16384, 768, 768),
            MatMul::new(256, 4096, 256),
        ];
        for mm in shapes {
            let tpu = optimize_op(&spec(), Platform::Tpuv4i, &MODEL, mm, 4);
            let gem = optimize_op(&spec(), Platform::Gemmini, &MODEL, mm, 4);
            let unf = optimize_op(&spec(), Platform::UnfCu, &MODEL, mm, 4);
            assert!(gem.cycles() <= tpu.cycles(), "{mm}");
            assert!(unf.total_ma() <= gem.total_ma(), "{mm}");
        }
    }

    #[test]
    fn small_reduction_dim_hurts_rigid_ws() {
        // Attention QK^T per head: K = 64 < 128. TPU's weight panel is half
        // idle; Planaria's fission and UnfCU's reshape recover utilization.
        let mm = MatMul::new(1024, 64, 1024);
        let tpu = optimize_op(&spec(), Platform::Tpuv4i, &MODEL, mm, 64);
        let pla = optimize_op(&spec(), Platform::Planaria, &MODEL, mm, 64);
        let unf = optimize_op(&spec(), Platform::UnfCu, &MODEL, mm, 64);
        assert!(pla.compute_cycles() < tpu.compute_cycles());
        assert!(unf.compute_cycles() < tpu.compute_cycles());
    }

    #[test]
    fn cycles_overlap_compute_and_dram() {
        let p = optimize_op(&spec(), Platform::FuseCu, &MODEL, MatMul::new(512, 512, 512), 1);
        assert_eq!(p.cycles(), p.compute_cycles().max(p.dram_cycles()));
        assert!(p.macs() == 512 * 512 * 512);
    }

    #[test]
    fn count_scales_work() {
        let mm = MatMul::new(512, 512, 512);
        let one = optimize_op(&spec(), Platform::UnfCu, &MODEL, mm, 1);
        let eight = optimize_op(&spec(), Platform::UnfCu, &MODEL, mm, 8);
        assert_eq!(eight.total_ma(), 8 * one.total_ma());
        assert!(eight.compute_cycles() >= 2 * one.compute_cycles());
    }

    #[test]
    fn cache_key_ignores_bandwidth_and_cu_count() {
        // Regression for the PR 1 bug: keying the operator cache on the
        // full ArraySpec made every bandwidth point of the ablation sweep
        // a miss. Candidate generation depends only on the array edge and
        // the buffer budget.
        let mm = MatMul::new(1024, 64, 1024);
        let base = spec();
        let fast = ArraySpec {
            bw_elems_per_cycle: 4 * base.bw_elems_per_cycle,
            ..base
        };
        let wide = ArraySpec {
            num_cus: 2 * base.num_cus,
            ..base
        };
        let key = tile_key(&base, Platform::UnfCu, &MODEL, mm);
        assert_eq!(key, tile_key(&fast, Platform::UnfCu, &MODEL, mm));
        assert_eq!(key, tile_key(&wide, Platform::UnfCu, &MODEL, mm));
        // Inputs that do change the candidates still split the key.
        let bigger = base.with_buffer(2 * base.buffer_elems);
        assert_ne!(key, tile_key(&bigger, Platform::UnfCu, &MODEL, mm));
        assert_ne!(key, tile_key(&base, Platform::Tpuv4i, &MODEL, mm));
    }

    #[test]
    fn cached_selection_matches_uncached() {
        // The cached path recombines cached candidates with per-call
        // selection; it must be indistinguishable from the direct path
        // across the spec fields excluded from the key.
        let mm = MatMul::new(1024, 768, 768);
        let base = spec();
        for bw in [256u64, 448, 1024] {
            for cus in [1u64, 4] {
                let s = ArraySpec {
                    bw_elems_per_cycle: bw,
                    num_cus: cus,
                    ..base
                };
                for count in [1u64, 64] {
                    let direct = optimize_op(&s, Platform::FuseCu, &MODEL, mm, count);
                    let cached = optimize_op_cached(&s, Platform::FuseCu, &MODEL, mm, count);
                    assert_eq!(direct.stationary(), cached.stationary());
                    assert_eq!(direct.shape(), cached.shape());
                    assert_eq!(direct.dataflow(), cached.dataflow());
                    assert_eq!(direct.total_ma(), cached.total_ma());
                    assert_eq!(direct.cycles(), cached.cycles());
                }
            }
        }
    }

    #[test]
    fn rigid_platforms_pay_more_memory_traffic() {
        // The Fig 10 mechanism: panel staging re-streams the non-resident
        // operands per panel; flexible tiling aggregates.
        let mm = MatMul::new(16384, 768, 768);
        let tpu = optimize_op(&spec(), Platform::Tpuv4i, &MODEL, mm, 1);
        let unf = optimize_op(&spec(), Platform::UnfCu, &MODEL, mm, 1);
        assert!(tpu.total_ma() > 2 * unf.total_ma());
    }
}
