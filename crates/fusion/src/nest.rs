//! The fused loop-nest cost model.
//!
//! A fused dataflow for a pair is modeled as:
//!
//! ```text
//! for (outer shared tile loop over M or L)
//!   for (inner shared tile loop over the other of M, L)
//!     phase 1: for k-tiles { C_tile += A_tile × B_tile }   // producer
//!     phase 2: for n-tiles { E_tile += C_tile × D_tile }   // consumer
//! ```
//!
//! Each shared iteration fully produces one intermediate tile `C[T_M, T_L]`
//! and then fully consumes it, so `C` never touches memory — the defining
//! property of fusion (§III-B1). The five Fig 4 patterns are tilings of this
//! skeleton:
//!
//! * OS–IS tile fusion (Single-NRA, Fig 4(a)): `T_K = T_N = 1`, square
//!   `T_M = T_L`;
//! * Two-NRA OS–IS / untiled-`L` column fusion (Fig 4(b)/(c)): one of
//!   `M`, `L` untiled or streamed at width 1;
//! * Three-NRA untiled / resident-`C` fusion (Fig 4(d)/(e)): both shared
//!   dimensions untiled, whole `C` on chip.
//!
//! External-tensor traffic uses the same trailing-window reuse analysis as
//! the intra-operator model (`fusecu_dataflow::reuse`); producer tensors see
//! the loop sequence `[shared…, K]`, consumer tensors `[shared…, N]`.
//! Tensors whose reuse window reaches a shared loop must stay resident
//! across the opposite phase and are charged in both phases' footprints.

use std::fmt;

use fusecu_dataflow::reuse::reload_multiplier;
use fusecu_dataflow::{CostModel, PartialSumPolicy};

use crate::pair::{ExtTensor, FusedDim, FusedPair};

/// Tile sizes for the four fused dimensions `(T_M, T_K, T_L, T_N)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedTiling {
    t: [u64; 4],
}

fn idx(dim: FusedDim) -> usize {
    match dim {
        FusedDim::M => 0,
        FusedDim::K => 1,
        FusedDim::L => 2,
        FusedDim::N => 3,
    }
}

impl FusedTiling {
    /// Creates a fused tiling.
    ///
    /// # Panics
    ///
    /// Panics if any tile size is zero.
    pub fn new(t_m: u64, t_k: u64, t_l: u64, t_n: u64) -> FusedTiling {
        assert!(
            t_m > 0 && t_k > 0 && t_l > 0 && t_n > 0,
            "tile sizes must be non-zero"
        );
        FusedTiling {
            t: [t_m, t_k, t_l, t_n],
        }
    }

    /// Tile size of one dimension.
    pub fn tile(&self, dim: FusedDim) -> u64 {
        self.t[idx(dim)]
    }

    /// Returns a copy with one tile replaced.
    #[must_use]
    pub fn with(&self, dim: FusedDim, tile: u64) -> FusedTiling {
        assert!(tile > 0, "tile sizes must be non-zero");
        let mut t = self.t;
        t[idx(dim)] = tile;
        FusedTiling { t }
    }

    /// Effective (clamped) tile size for a pair.
    pub fn clamped_tile(&self, pair: &FusedPair, dim: FusedDim) -> u64 {
        self.tile(dim).min(pair.dim(dim))
    }

    /// Tile-loop iteration count along `dim`.
    pub fn iterations(&self, pair: &FusedPair, dim: FusedDim) -> u64 {
        pair.dim(dim).div_ceil(self.clamped_tile(pair, dim))
    }

    /// Whether `dim` is untiled for the pair.
    pub fn is_untiled(&self, pair: &FusedPair, dim: FusedDim) -> bool {
        self.iterations(pair, dim) == 1
    }

    /// Buffer footprint of one external tensor's tile.
    pub fn tensor_tile_elems(&self, pair: &FusedPair, t: ExtTensor) -> u64 {
        let [a, b] = t.dims();
        self.clamped_tile(pair, a) * self.clamped_tile(pair, b)
    }

    /// Footprint of the intermediate tile `C[T_M, T_L]`.
    pub fn intermediate_tile_elems(&self, pair: &FusedPair) -> u64 {
        self.clamped_tile(pair, FusedDim::M) * self.clamped_tile(pair, FusedDim::L)
    }
}

impl fmt::Display for FusedTiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T(m={}, k={}, l={}, n={})",
            self.t[0], self.t[1], self.t[2], self.t[3]
        )
    }
}

/// A fused loop nest: the shared-loop order plus the tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedNest {
    /// Whether the `M` tile loop is the outermost shared loop (otherwise
    /// `L` is). Irrelevant when either shared dimension is untiled.
    pub outer_is_m: bool,
    /// Tile sizes.
    pub tiling: FusedTiling,
}

impl FusedNest {
    /// Creates a fused nest.
    pub fn new(outer_is_m: bool, tiling: FusedTiling) -> FusedNest {
        FusedNest { outer_is_m, tiling }
    }

    /// The shared loop dimensions, outermost first.
    pub fn shared_order(&self) -> [FusedDim; 2] {
        if self.outer_is_m {
            [FusedDim::M, FusedDim::L]
        } else {
            [FusedDim::L, FusedDim::M]
        }
    }

    /// The three-loop sequence seen by one external tensor:
    /// `[shared outer, shared inner, phase loop]` where the phase loop is
    /// `K` for producer tensors and `N` for consumer tensors.
    fn sequence(&self, pair: &FusedPair, t: ExtTensor) -> [(bool, u64); 3] {
        let [s0, s1] = self.shared_order();
        let phase = if t.is_producer() {
            FusedDim::K
        } else {
            FusedDim::N
        };
        [s0, s1, phase].map(|d| (t.contains(d), self.tiling.iterations(pair, d)))
    }

    /// Reload multiplier of one external tensor.
    pub fn reload_multiplier(&self, pair: &FusedPair, t: ExtTensor) -> u64 {
        reload_multiplier(self.sequence(pair, t))
    }

    /// Whether the tensor's reuse window reaches a shared loop, meaning its
    /// tile must stay resident across the opposite phase.
    pub fn is_persistent(&self, pair: &FusedPair, t: ExtTensor) -> bool {
        let seq = self.sequence(pair, t);
        for (i, (contains, iters)) in seq.iter().enumerate().rev() {
            if *iters == 1 {
                continue;
            }
            if *contains {
                return false; // window closed before any shared loop
            }
            if i < 2 {
                return true; // open window reaches shared loop i
            }
        }
        false
    }

    /// Memory access of one external tensor.
    pub fn tensor_ma(&self, model: &CostModel, pair: &FusedPair, t: ExtTensor) -> u64 {
        let mult = self.reload_multiplier(pair, t);
        let footprint = pair.tensor_elems(t);
        match (t, model.partial_sums) {
            (ExtTensor::E, PartialSumPolicy::ReadWrite) => footprint * (2 * mult - 1),
            _ => footprint * mult,
        }
    }

    /// Full external-tensor memory access.
    pub fn evaluate(&self, model: &CostModel, pair: &FusedPair) -> FusedMa {
        let per = ExtTensor::ALL.map(|t| self.tensor_ma(model, pair, t));
        FusedMa { per }
    }

    /// Buffer footprint: the intermediate tile, every persistent tensor's
    /// tile, and the larger of the two phases' transient tiles.
    pub fn footprint(&self, pair: &FusedPair) -> u64 {
        let mut persistent = 0u64;
        let mut trans = [0u64; 2]; // producer, consumer phases
        for t in ExtTensor::ALL {
            let elems = self.tiling.tensor_tile_elems(pair, t);
            if self.is_persistent(pair, t) {
                persistent += elems;
            } else {
                trans[usize::from(!t.is_producer())] += elems;
            }
        }
        self.tiling.intermediate_tile_elems(pair) + persistent + trans[0].max(trans[1])
    }

    /// Whether the nest fits in a buffer of `bs` elements.
    pub fn fits(&self, pair: &FusedPair, bs: u64) -> bool {
        self.footprint(pair) <= bs
    }

    /// [`FusedNest::footprint`] as a function of `T_L` over `T_L < L`,
    /// with the other three tiles of this nest. While `L` still iterates
    /// every persistence flag is fixed, and each tile is either constant
    /// in `T_L` or proportional to it.
    pub(crate) fn footprint_in_l(&self, pair: &FusedPair) -> FootprintInL {
        let nest = FusedNest::new(self.outer_is_m, self.tiling.with(FusedDim::L, 1));
        debug_assert!(!nest.tiling.is_untiled(pair, FusedDim::L), "L must iterate");
        // Each line is `[base, slope]`; at T_L = 1 an L-spanning tile's
        // size is its slope.
        let mut persistent = [0, nest.tiling.intermediate_tile_elems(pair)];
        let mut phases = [[0u64; 2]; 2]; // producer, consumer
        for t in ExtTensor::ALL {
            let line = if nest.is_persistent(pair, t) {
                &mut persistent
            } else {
                &mut phases[usize::from(!t.is_producer())]
            };
            line[usize::from(t.contains(FusedDim::L))] += nest.tiling.tensor_tile_elems(pair, t);
        }
        FootprintInL { persistent, phases }
    }

    /// Number of non-redundantly-accessed tensors per operator, counting
    /// the memory-silent intermediate for both (it is trivially
    /// non-redundant). Used to attribute a Fig 4 NRA pattern to each side.
    pub fn op_nra_counts(&self, pair: &FusedPair) -> (usize, usize) {
        let nra = |t: ExtTensor| usize::from(self.reload_multiplier(pair, t) == 1);
        (
            1 + nra(ExtTensor::A) + nra(ExtTensor::B),
            1 + nra(ExtTensor::D) + nra(ExtTensor::E),
        )
    }
}

/// The buffer footprint of a fused nest as a function of `T_L` while `L`
/// iterates: `p(T_L) + max(q₀(T_L), q₁(T_L))`, where `p` covers the
/// intermediate and the persistent tiles and `q₀`, `q₁` the producer's
/// and consumer's transient tiles, each a line `base + slope·T_L` with
/// nonnegative coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FootprintInL {
    persistent: [u64; 2],
    phases: [[u64; 2]; 2],
}

impl FootprintInL {
    /// The footprint at `T_L = t_l`.
    #[cfg(test)]
    pub(crate) fn at(&self, t_l: u64) -> u64 {
        let line = |[base, slope]: [u64; 2]| base + slope * t_l;
        line(self.persistent) + line(self.phases[0]).max(line(self.phases[1]))
    }

    /// The largest `T_L ≥ 1` whose footprint fits `bs` elements, or
    /// `None` when even `T_L = 1` does not fit: `min_j ⌊(bs − bⱼ)/sⱼ⌋`
    /// over the two phase lines added to the persistent one. The slope is
    /// at least `T_M ≥ 1` (the intermediate tile), so the division is
    /// defined.
    pub(crate) fn max_fitting(&self, bs: u64) -> Option<u64> {
        let [base, slope] = self.persistent;
        let fit = |[b, s]: [u64; 2]| bs.checked_sub(base + b).map(|room| room / (slope + s));
        let t_l = fit(self.phases[0])?.min(fit(self.phases[1])?);
        (t_l >= 1).then_some(t_l)
    }
}

impl fmt::Display for FusedNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [s0, s1] = self.shared_order();
        write!(
            f,
            "shared {s0},{s1} ; phase1 k / phase2 n ; {}",
            self.tiling
        )
    }
}

/// Per-tensor and total memory access of a fused dataflow, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FusedMa {
    per: [u64; 4], // A, B, D, E
}

impl FusedMa {
    /// Traffic of one external tensor.
    pub fn of(&self, t: ExtTensor) -> u64 {
        self.per[match t {
            ExtTensor::A => 0,
            ExtTensor::B => 1,
            ExtTensor::D => 2,
            ExtTensor::E => 3,
        }]
    }

    /// Total external traffic (the intermediate contributes zero).
    pub fn total(&self) -> u64 {
        self.per.iter().sum()
    }
}

impl fmt::Display for FusedMa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MA(A)={} MA(B)={} MA(D)={} MA(E)={} total={}",
            self.per[0],
            self.per[1],
            self.per[2],
            self.per[3],
            self.total()
        )
    }
}

/// A scored fused dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedDataflow {
    pair: FusedPair,
    nest: FusedNest,
    ma: FusedMa,
    footprint: u64,
}

impl FusedDataflow {
    /// Scores a nest for a pair under a cost model.
    pub fn score(model: &CostModel, pair: FusedPair, nest: FusedNest) -> FusedDataflow {
        FusedDataflow {
            pair,
            nest,
            ma: nest.evaluate(model, &pair),
            footprint: nest.footprint(&pair),
        }
    }

    /// The fused pair.
    pub fn pair(&self) -> FusedPair {
        self.pair
    }

    /// The fused nest.
    pub fn nest(&self) -> &FusedNest {
        &self.nest
    }

    /// The memory-access breakdown.
    pub fn ma(&self) -> FusedMa {
        self.ma
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

impl fmt::Display for FusedDataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {} | buf={}", self.nest, self.ma, self.footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_ir::MatMul;

    fn pair(m: u64, k: u64, l: u64, n: u64) -> FusedPair {
        FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap()
    }

    /// Literal simulation of the fused tile loops: one resident tile per
    /// tensor, charging a (possibly partial, edge-clamped) tile load on
    /// every index change.
    fn simulate(pair: &FusedPair, nest: &FusedNest, t: ExtTensor) -> u64 {
        let [s0, s1] = nest.shared_order();
        let phase = if t.is_producer() {
            FusedDim::K
        } else {
            FusedDim::N
        };
        let span = |d: FusedDim, i: u64| {
            let tile = nest.tiling.clamped_tile(pair, d);
            tile.min(pair.dim(d) - i * tile)
        };
        let n0 = nest.tiling.iterations(pair, s0);
        let n1 = nest.tiling.iterations(pair, s1);
        let np = nest.tiling.iterations(pair, phase);
        let mut resident = None;
        let mut traffic = 0u64;
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for ip in 0..np {
                    let at = |d: FusedDim| {
                        if d == s0 {
                            i0
                        } else if d == s1 {
                            i1
                        } else {
                            ip
                        }
                    };
                    let [da, db] = t.dims();
                    let key = (at(da), at(db));
                    if resident != Some(key) {
                        traffic += span(da, key.0) * span(db, key.1);
                        resident = Some(key);
                    }
                }
            }
        }
        traffic
    }

    #[test]
    fn tile_fusion_matches_hand_derivation() {
        // Fig 4(a): Single-NRA OS-IS, square shared tiles T, T_K = T_N = 1.
        // Every term is MKL-like product / T.
        let p = pair(64, 32, 48, 16);
        let nest = FusedNest::new(true, FusedTiling::new(8, 1, 8, 1));
        let model = CostModel::paper();
        let ma = nest.evaluate(&model, &p);
        assert_eq!(ma.of(ExtTensor::A), 64 * 32 * (48 / 8)); // per l tile
        assert_eq!(ma.of(ExtTensor::B), 32 * 48 * (64 / 8)); // per m tile
        assert_eq!(ma.of(ExtTensor::D), 48 * 16 * (64 / 8)); // per m tile
        assert_eq!(ma.of(ExtTensor::E), 64 * 16 * (48 / 8)); // per l tile
        assert_eq!(nest.op_nra_counts(&p), (1, 1));
    }

    #[test]
    fn column_fusion_keeps_output_resident() {
        // Fig 4(b)-style: stream C columns (T_L = 1), N untiled so E
        // accumulates on-chip across the L loop.
        let p = pair(256, 64, 128, 64);
        let nest = FusedNest::new(true, FusedTiling::new(64, 64, 1, 64));
        let model = CostModel::paper();
        let ma = nest.evaluate(&model, &p);
        assert_eq!(ma.of(ExtTensor::A), 256 * 64); // K untiled, A per m tile
        assert_eq!(ma.of(ExtTensor::E), 256 * 64); // resident across l
        assert!(nest.is_persistent(&p, ExtTensor::E));
        assert!(!nest.is_persistent(&p, ExtTensor::D));
        // B and D re-streamed per m tile.
        assert_eq!(ma.of(ExtTensor::B), 64 * 128 * (256 / 64));
        assert_eq!(ma.of(ExtTensor::D), 128 * 64 * (256 / 64));
    }

    #[test]
    fn resident_intermediate_reaches_lower_bound() {
        // Fig 4(e): whole C on chip -> every external tensor streamed once.
        let p = pair(32, 16, 24, 8);
        let nest = FusedNest::new(true, FusedTiling::new(32, 4, 24, 4));
        let ma = nest.evaluate(&CostModel::paper(), &p);
        assert_eq!(ma.total(), p.external_ideal_ma());
        assert_eq!(nest.op_nra_counts(&p), (3, 3));
    }

    #[test]
    fn analytical_ma_matches_loop_simulation() {
        let model = CostModel::paper();
        let pairs = [pair(7, 5, 9, 4), pair(12, 4, 4, 10), pair(5, 13, 3, 6)];
        for p in pairs {
            for outer_is_m in [true, false] {
                for tm in [1, 2, 5, 7] {
                    for tk in [1, 3, 13] {
                        for tl in [1, 2, 4, 9] {
                            for tn in [1, 3, 10] {
                                let nest = FusedNest::new(
                                    outer_is_m,
                                    FusedTiling::new(tm, tk, tl, tn),
                                );
                                for t in ExtTensor::ALL {
                                    assert_eq!(
                                        nest.tensor_ma(&model, &p, t),
                                        simulate(&p, &nest, t),
                                        "pair={p} nest={nest} tensor={t}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_counts_persistent_tensors_in_both_phases() {
        let p = pair(256, 64, 128, 64);
        // Column fusion: E (64x64) persistent, A (64x64) persistent
        // (K untiled, reused across the l loop), C tile 64x1.
        let nest = FusedNest::new(true, FusedTiling::new(64, 64, 1, 64));
        assert!(nest.is_persistent(&p, ExtTensor::A));
        let c = 64;
        let pers = 64 * 64 + 64 * 64; // A + E
        let trans1 = 64; // B tile (64x1)
        let trans2 = 64; // D tile (1x64)
        assert_eq!(nest.footprint(&p), c + pers + trans1.max(trans2));
    }

    #[test]
    fn footprint_in_l_is_the_footprint_below_l() {
        let pairs = [pair(7, 5, 9, 4), pair(12, 1, 4, 10), pair(5, 13, 3, 1)];
        for p in pairs {
            for outer_is_m in [true, false] {
                for tm in [1, 2, 5, 12] {
                    for tk in [1, 3, 13] {
                        for tn in [1, 3, 10] {
                            let nest = FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, 1, tn));
                            let line = nest.footprint_in_l(&p);
                            for tl in 1..p.dim(FusedDim::L) {
                                let at =
                                    FusedNest::new(outer_is_m, nest.tiling.with(FusedDim::L, tl));
                                assert_eq!(line.at(tl), at.footprint(&p), "pair={p} nest={at}");
                                for bs in [line.at(tl) - 1, line.at(tl)] {
                                    let fits = line.max_fitting(bs).is_some_and(|t| t >= tl);
                                    assert_eq!(fits, at.fits(&p, bs), "pair={p} nest={at} bs={bs}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shared_order_only_matters_when_both_tiled() {
        let p = pair(64, 8, 64, 8);
        let model = CostModel::paper();
        // L untiled: order irrelevant.
        let t = FusedTiling::new(8, 1, 64, 1);
        assert_eq!(
            FusedNest::new(true, t).evaluate(&model, &p),
            FusedNest::new(false, t).evaluate(&model, &p)
        );
        // Both shared dims tiled and K untiled: A's reuse window reaches the
        // inner shared loop, so which dimension is inner changes A's traffic.
        let t2 = FusedTiling::new(8, 8, 8, 1);
        let m_outer = FusedNest::new(true, t2);
        let l_outer = FusedNest::new(false, t2);
        assert_eq!(m_outer.reload_multiplier(&p, ExtTensor::A), 1);
        assert_eq!(l_outer.reload_multiplier(&p, ExtTensor::A), 8);
        assert_ne!(
            m_outer.evaluate(&model, &p),
            l_outer.evaluate(&model, &p)
        );
    }

    #[test]
    fn read_write_policy_charges_spilled_e() {
        let p = pair(64, 8, 64, 8);
        // E tiled with L shared-looping over it: partial sums revisit.
        let nest = FusedNest::new(true, FusedTiling::new(8, 1, 8, 1));
        let mult = nest.reload_multiplier(&p, ExtTensor::E);
        assert!(mult > 1);
        let pv = nest.tensor_ma(&CostModel::paper(), &p, ExtTensor::E);
        let rw = nest.tensor_ma(&CostModel::read_write(), &p, ExtTensor::E);
        assert_eq!(pv, 64 * 8 * mult);
        assert_eq!(rw, 64 * 8 * (2 * mult - 1));
    }

    #[test]
    fn display_renders() {
        let p = pair(4, 4, 4, 4);
        let nest = FusedNest::new(false, FusedTiling::new(2, 1, 2, 1));
        let df = FusedDataflow::score(&CostModel::paper(), p, nest);
        let s = df.to_string();
        assert!(s.contains("shared l,m") && s.contains("buf="), "{s}");
    }
}
