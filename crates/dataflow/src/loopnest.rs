//! The generic loop-nest memory-access model.
//!
//! A matmul dataflow at the memory↔buffer level is a *tiled, ordered* loop
//! nest: tile sizes for `M, K, L` plus a loop order over the tile loops
//! (Fig 2(a)/(b) of the paper). This module scores any such nest:
//!
//! * each operand streams its full footprint once per *reload sweep*;
//! * an operand's tile enjoys temporal reuse across the trailing (innermost)
//!   loops whose dimensions it does not contain — the "stationary" effect;
//! * untiled loops (one iteration) are transparent: they never force
//!   reloads, which is exactly why un-tiling a dimension grants an operand
//!   non-redundant access (§III-A2).
//!
//! The resulting per-tensor traffic is exact (uneven edge tiles included)
//! because tiles partition each dimension: one full sweep of an operand
//! streams exactly its footprint.

use std::fmt;

use fusecu_ir::{MatMul, MmDim, Operand};

use crate::tiling::Tiling;

/// How partial sums of the output are charged when the reduction loop
/// revisits an evicted output tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartialSumPolicy {
    /// Charge the output footprint once per visit — the paper's convention
    /// (its Eq. 1 counts `ML` for a stationary output and symmetric products
    /// otherwise). Used throughout the reproduction for comparability.
    #[default]
    PerVisit,
    /// Charge read + write per revisit (`2r − 1` footprints for `r` visits):
    /// a DRAM-accurate accounting of partial-sum spilling. Provided for
    /// sensitivity studies; never cheaper than [`PartialSumPolicy::PerVisit`].
    ReadWrite,
}

/// Number of tensors with non-redundant access — the paper's dataflow
/// classes (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NraClass {
    /// Exactly one tensor (the stationary one) is accessed once.
    Single,
    /// Two tensors accessed once (one dimension untiled).
    Two,
    /// All three tensors accessed once — the intra-operator lower bound.
    Three,
}

impl NraClass {
    /// The class for a given NRA tensor count (1–3).
    pub fn from_count(count: usize) -> Option<NraClass> {
        match count {
            1 => Some(NraClass::Single),
            2 => Some(NraClass::Two),
            3 => Some(NraClass::Three),
            _ => None,
        }
    }

    /// Number of non-redundantly-accessed tensors.
    pub fn count(self) -> usize {
        match self {
            NraClass::Single => 1,
            NraClass::Two => 2,
            NraClass::Three => 3,
        }
    }
}

impl fmt::Display for NraClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NraClass::Single => "Single-NRA",
            NraClass::Two => "Two-NRA",
            NraClass::Three => "Three-NRA",
        };
        f.write_str(s)
    }
}

/// A tiled, ordered loop nest for one matmul: the memory-level dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopNest {
    /// Loop order from **outermost to innermost** tile loop.
    pub order: [MmDim; 3],
    /// Tile sizes.
    pub tiling: Tiling,
}

impl LoopNest {
    /// Creates a nest; the order must name each dimension exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `order` repeats a dimension.
    pub fn new(order: [MmDim; 3], tiling: Tiling) -> LoopNest {
        assert!(
            order[0] != order[1] && order[0] != order[2] && order[1] != order[2],
            "loop order must be a permutation of m, k, l"
        );
        LoopNest { order, tiling }
    }

    /// All six loop orders.
    pub fn orders() -> [[MmDim; 3]; 6] {
        use MmDim::{K, L, M};
        [
            [M, K, L],
            [M, L, K],
            [K, M, L],
            [K, L, M],
            [L, M, K],
            [L, K, M],
        ]
    }

    /// The reload multiplier of one operand: how many times its full
    /// footprint streams from memory.
    ///
    /// Scans loops from innermost to outermost. Loops with a single
    /// iteration are transparent. Trailing loops over dimensions absent from
    /// the operand give temporal reuse; once a loop over one of the
    /// operand's own dimensions (with more than one iteration) is crossed,
    /// every outer absent-dimension loop multiplies the traffic.
    pub fn reload_multiplier(&self, mm: MatMul, op: Operand) -> u64 {
        crate::reuse::reload_multiplier(
            self.order
                .map(|dim| (op.contains(dim), self.tiling.iterations(mm, dim))),
        )
    }

    /// Whether the operand is accessed without redundancy under this nest.
    pub fn is_nra(&self, mm: MatMul, op: Operand) -> bool {
        self.reload_multiplier(mm, op) == 1
    }

    /// The operands accessed without redundancy.
    pub fn nra_tensors(&self, mm: MatMul) -> Vec<Operand> {
        Operand::ALL
            .iter()
            .copied()
            .filter(|op| self.is_nra(mm, *op))
            .collect()
    }

    /// The NRA class of this nest, if at least one tensor is non-redundant.
    pub fn nra_class(&self, mm: MatMul) -> Option<NraClass> {
        NraClass::from_count(
            Operand::ALL
                .iter()
                .filter(|op| self.is_nra(mm, **op))
                .count(),
        )
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "for {} / for {} / for {} ; {}",
            self.order[0], self.order[1], self.order[2], self.tiling
        )
    }
}

/// Per-tensor and total memory access of a dataflow, in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryAccess {
    per: [u64; 3], // A, B, C
}

impl MemoryAccess {
    /// Builds from per-operand traffic `(A, B, C)`.
    pub fn new(a: u64, b: u64, c: u64) -> MemoryAccess {
        MemoryAccess { per: [a, b, c] }
    }

    /// Traffic of one operand.
    pub fn of(&self, op: Operand) -> u64 {
        match op {
            Operand::Lhs => self.per[0],
            Operand::Rhs => self.per[1],
            Operand::Out => self.per[2],
        }
    }

    /// Total traffic.
    pub fn total(&self) -> u64 {
        self.per.iter().sum()
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MA(A)={} MA(B)={} MA(C)={} total={}",
            self.per[0],
            self.per[1],
            self.per[2],
            self.total()
        )
    }
}

/// The memory-access cost model shared by the principle optimizer and the
/// searching baseline.
///
/// Derives `Hash`/`Eq` so it can serve as part of a memoization key (see
/// `fusecu-search`'s dataflow cache, keyed on `(MatMul, bs, CostModel)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CostModel {
    /// Partial-sum accounting for the output tensor.
    pub partial_sums: PartialSumPolicy,
}

impl CostModel {
    /// A model with the paper's per-visit output accounting.
    pub fn paper() -> CostModel {
        CostModel {
            partial_sums: PartialSumPolicy::PerVisit,
        }
    }

    /// A model charging read+write for spilled partial sums.
    pub fn read_write() -> CostModel {
        CostModel {
            partial_sums: PartialSumPolicy::ReadWrite,
        }
    }

    /// Memory access of one operand under a nest.
    pub fn tensor_ma(&self, mm: MatMul, nest: &LoopNest, op: Operand) -> u64 {
        let mult = nest.reload_multiplier(mm, op);
        let footprint = mm.tensor_elems(op);
        match (op, self.partial_sums) {
            (Operand::Out, PartialSumPolicy::ReadWrite) => footprint * (2 * mult - 1),
            _ => footprint * mult,
        }
    }

    /// Full per-tensor memory access of a nest.
    pub fn evaluate(&self, mm: MatMul, nest: &LoopNest) -> MemoryAccess {
        MemoryAccess::new(
            self.tensor_ma(mm, nest, Operand::Lhs),
            self.tensor_ma(mm, nest, Operand::Rhs),
            self.tensor_ma(mm, nest, Operand::Out),
        )
    }

    /// Packages a nest with its cost and class into a [`Dataflow`].
    pub fn dataflow(&self, mm: MatMul, nest: LoopNest) -> Dataflow {
        Dataflow {
            mm,
            nest,
            ma: self.evaluate(mm, &nest),
            class: nest.nra_class(mm),
        }
    }
}

/// A scored dataflow: the nest, its memory access, and its NRA class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataflow {
    mm: MatMul,
    nest: LoopNest,
    ma: MemoryAccess,
    class: Option<NraClass>,
}

impl Dataflow {
    /// The matmul this dataflow executes.
    pub fn mm(&self) -> MatMul {
        self.mm
    }

    /// The loop nest.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// The tile sizes.
    pub fn tiling(&self) -> Tiling {
        self.nest.tiling
    }

    /// The memory access breakdown.
    pub fn ma(&self) -> MemoryAccess {
        self.ma
    }

    /// Total memory access.
    pub fn total_ma(&self) -> u64 {
        self.ma.total()
    }

    /// The NRA class (`None` when every tensor suffers redundant access).
    pub fn class(&self) -> Option<NraClass> {
        self.class
    }

    /// Buffer elements occupied by the live tiles.
    pub fn buffer_elems(&self) -> u64 {
        self.nest.tiling.buffer_elems(self.mm)
    }

    /// The non-redundantly-accessed operands.
    pub fn nra_tensors(&self) -> Vec<Operand> {
        self.nest.nra_tensors(self.mm)
    }

    /// Renders the dataflow as Fig 2-style pseudocode: the tile loops with
    /// their trip counts and tile sizes, the innermost tile computation,
    /// and the reuse annotation per tensor.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut indent = String::new();
        for dim in self.nest.order {
            let n = self.nest.tiling.iterations(self.mm, dim);
            let t = self.nest.tiling.tile(dim).min(self.mm.dim(dim));
            let note = if n == 1 { " (untiled)" } else { "" };
            let _ = writeln!(out, "{indent}for {dim}1 in 0..{n}:   # T_{dim} = {t}{note}");
            indent.push_str("  ");
        }
        let _ = writeln!(out, "{indent}C[m1, l1] += A[m1, k1] x B[k1, l1]");
        for op in Operand::ALL {
            let mult = self.nest.reload_multiplier(self.mm, op);
            let _ = writeln!(
                out,
                "# {op}: {}",
                if mult == 1 {
                    "non-redundant (accessed once)".to_string()
                } else {
                    format!("streamed {mult}x its footprint")
                }
            );
        }
        out
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {}", self.nest, self.ma)?;
        if let Some(c) = self.class {
            write!(f, " [{c}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MmDim::{K, L, M};

    /// Brute-force MA: simulate the tile loops, tracking the resident tile
    /// index per tensor and charging a full tile load on change.
    fn simulate_ma(mm: MatMul, nest: &LoopNest, op: Operand) -> u64 {
        let n: Vec<u64> = nest
            .order
            .iter()
            .map(|d| nest.tiling.iterations(mm, *d))
            .collect();
        let tile_span = |dim: MmDim, i: u64| -> u64 {
            let t = nest.tiling.tile(dim).min(mm.dim(dim));
            let start = i * t;
            t.min(mm.dim(dim) - start)
        };
        let mut resident: Option<(u64, u64)> = None;
        let mut traffic = 0u64;
        for i0 in 0..n[0] {
            for i1 in 0..n[1] {
                for i2 in 0..n[2] {
                    let iter = [i0, i1, i2];
                    let pos =
                        |dim: MmDim| iter[nest.order.iter().position(|d| *d == dim).unwrap()];
                    let [da, db] = op.dims();
                    let key = (pos(da), pos(db));
                    if resident != Some(key) {
                        traffic += tile_span(da, key.0) * tile_span(db, key.1);
                        resident = Some(key);
                    }
                }
            }
        }
        traffic
    }

    #[test]
    fn output_stationary_matches_eq1() {
        // Fig 2(b)/Eq 1: order M, L, K(innermost); C stationary.
        let mm = MatMul::new(64, 32, 48);
        let tiling = Tiling::new(8, 1, 6);
        let nest = LoopNest::new([M, L, K], tiling);
        let model = CostModel::paper();
        let ma = model.evaluate(mm, &nest);
        // MA = MKL(1/T_L + 1/T_M) + ML
        assert_eq!(ma.of(Operand::Lhs), 64 * 32 * (48 / 6));
        assert_eq!(ma.of(Operand::Rhs), 32 * 48 * (64 / 8));
        assert_eq!(ma.of(Operand::Out), 64 * 48);
        assert_eq!(nest.nra_class(mm), Some(NraClass::Single));
        assert_eq!(nest.nra_tensors(mm), vec![Operand::Out]);
    }

    #[test]
    fn two_nra_matches_eq3() {
        // Fig 3 top / Eq 3: K untiled, order M, L; A and C non-redundant.
        let mm = MatMul::new(64, 32, 48);
        let tiling = Tiling::new(16, 32, 1);
        let nest = LoopNest::new([M, L, K], tiling);
        let ma = CostModel::paper().evaluate(mm, &nest);
        assert_eq!(ma.of(Operand::Lhs), 64 * 32);
        assert_eq!(ma.of(Operand::Out), 64 * 48);
        assert_eq!(ma.of(Operand::Rhs), 64 * 32 * 48 / 16); // MKL / T_M
        assert_eq!(nest.nra_class(mm), Some(NraClass::Two));
    }

    #[test]
    fn three_nra_reaches_lower_bound() {
        let mm = MatMul::new(64, 32, 48);
        // Smallest tensor A (64x32) resident; tile L.
        let tiling = Tiling::new(64, 32, 4);
        let nest = LoopNest::new([L, M, K], tiling);
        let ma = CostModel::paper().evaluate(mm, &nest);
        assert_eq!(ma.total(), mm.ideal_ma());
        assert_eq!(nest.nra_class(mm), Some(NraClass::Three));
    }

    #[test]
    fn untiled_dim_position_is_irrelevant() {
        let mm = MatMul::new(64, 32, 48);
        let tiling = Tiling::new(16, 32, 1);
        let model = CostModel::paper();
        // K untiled: the same MA regardless of where K sits in the order.
        let reference = model.evaluate(mm, &LoopNest::new([M, L, K], tiling));
        for order in [[M, K, L], [K, M, L], [M, L, K]] {
            let nest = LoopNest::new(order, tiling);
            assert_eq!(model.evaluate(mm, &nest), reference, "order {order:?}");
        }
    }

    #[test]
    fn model_matches_tile_loop_simulation() {
        // Exhaustive cross-check of the analytical multiplier against a
        // literal tile-loop simulation, including uneven edge tiles.
        let model = CostModel::paper();
        let shapes = [
            MatMul::new(7, 5, 9),
            MatMul::new(12, 4, 4),
            MatMul::new(5, 13, 3),
        ];
        for mm in shapes {
            for order in LoopNest::orders() {
                for tm in [1, 2, 3, 7] {
                    for tk in [1, 2, 5] {
                        for tl in [1, 3, 4, 9] {
                            let nest = LoopNest::new(order, Tiling::new(tm, tk, tl));
                            for op in [Operand::Lhs, Operand::Rhs] {
                                assert_eq!(
                                    model.tensor_ma(mm, &nest, op),
                                    simulate_ma(mm, &nest, op),
                                    "mm={mm} nest={nest} op={op}"
                                );
                            }
                            // Output under PerVisit equals visit-counted tile
                            // traffic too.
                            assert_eq!(
                                model.tensor_ma(mm, &nest, Operand::Out),
                                simulate_ma(mm, &nest, Operand::Out),
                                "mm={mm} nest={nest} op=C"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn read_write_policy_never_cheaper() {
        let mm = MatMul::new(16, 16, 16);
        for order in LoopNest::orders() {
            let nest = LoopNest::new(order, Tiling::new(4, 4, 4));
            let pv = CostModel::paper().evaluate(mm, &nest).total();
            let rw = CostModel::read_write().evaluate(mm, &nest).total();
            assert!(rw >= pv);
        }
    }

    #[test]
    fn read_write_counts_spills() {
        let mm = MatMul::new(8, 8, 8);
        // K outermost with C tiled: partial sums spill K-1 times.
        let nest = LoopNest::new([K, M, L], Tiling::new(2, 2, 2));
        let mult = nest.reload_multiplier(mm, Operand::Out);
        assert_eq!(mult, 4);
        assert_eq!(
            CostModel::read_write().tensor_ma(mm, &nest, Operand::Out),
            64 * (2 * 4 - 1)
        );
    }

    #[test]
    fn full_residency_gives_three_nra_for_any_order() {
        let mm = MatMul::new(6, 7, 8);
        let tiling = Tiling::full(mm);
        for order in LoopNest::orders() {
            let nest = LoopNest::new(order, tiling);
            assert_eq!(nest.nra_class(mm), Some(NraClass::Three));
            assert_eq!(CostModel::paper().evaluate(mm, &nest).total(), mm.ideal_ma());
        }
    }

    #[test]
    fn innermost_loop_shields_only_its_absent_tensor() {
        // Order M, K, L with everything tiled: the innermost L loop grants
        // reuse to A = (M,K) only; B is re-swept per M tile and C per K tile.
        let mm = MatMul::new(8, 8, 8);
        let nest = LoopNest::new([M, K, L], Tiling::new(2, 2, 2));
        assert_eq!(nest.nra_tensors(mm), vec![Operand::Lhs]);
        assert_eq!(nest.nra_class(mm), Some(NraClass::Single));
        assert_eq!(nest.reload_multiplier(mm, Operand::Rhs), 4); // per M tile
        assert_eq!(nest.reload_multiplier(mm, Operand::Out), 4); // per K tile
    }

    #[test]
    fn display_renders() {
        let mm = MatMul::new(4, 4, 4);
        let nest = LoopNest::new([M, L, K], Tiling::new(2, 4, 2));
        let df = CostModel::paper().dataflow(mm, nest);
        let s = df.to_string();
        assert!(s.contains("for m") && s.contains("total="), "{s}");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn repeated_order_dim_panics() {
        let _ = LoopNest::new([M, M, K], Tiling::new(1, 1, 1));
    }
}
