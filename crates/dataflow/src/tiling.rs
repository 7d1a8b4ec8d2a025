//! Tile-size assignment for the three matmul dimensions.

use std::fmt;

use fusecu_ir::{MatMul, MmDim, Operand};

/// Ceiling division for positive operands.
pub(crate) fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// Balanced tile representatives for a dimension of size `d`, ascending and
/// deduplicated: `{ceil(d / n) : n ∈ [1, d]}`.
///
/// Memory access under the loop-nest model depends only on iteration counts
/// `N_d = ceil(D / T_d)`, while buffer footprint grows with tile size; the
/// smallest tile achieving a given count is `ceil(D / n)`. Optimizing over
/// these `O(2·√D)` representatives is therefore lossless with respect to
/// the full tile range `[1, D]`.
///
/// ```
/// use fusecu_dataflow::tiling::balanced_tiles;
/// assert_eq!(balanced_tiles(6), vec![1, 2, 3, 6]);
/// assert_eq!(balanced_tiles(1), vec![1]);
/// ```
pub fn balanced_tiles(d: u64) -> Vec<u64> {
    balanced_tile_iter(d).collect()
}

/// [`balanced_tiles`] generated on the fly, for sweeps that visit each
/// representative once and must not allocate.
///
/// ```
/// use fusecu_dataflow::tiling::{balanced_tile_iter, balanced_tiles};
/// assert!(balanced_tile_iter(1000).eq(balanced_tiles(1000)));
/// ```
pub fn balanced_tile_iter(d: u64) -> impl Iterator<Item = u64> {
    assert!(d > 0, "dimension size must be non-zero");
    // Iteration count, descending => tiles ascending; `None` once the
    // untiled representative has been produced.
    let mut n = Some(d);
    std::iter::from_fn(move || {
        let t = d.div_ceil(n?);
        // Skip to the next iteration count that changes the tile.
        let same_tile_min_n = d.div_ceil(t);
        n = (same_tile_min_n > 1).then(|| same_tile_min_n - 1);
        Some(t)
    })
}

/// Tile sizes `(T_M, T_K, T_L)` held in the buffer for one matmul.
///
/// A dimension is *untiled* when its tile equals the full dimension size,
/// making its tile loop a single iteration — the mechanism behind the
/// Two-/Three-NRA dataflows (§III-A2/A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    t: [u64; 3], // indexed by MmDim order M, K, L
}

fn idx(dim: MmDim) -> usize {
    match dim {
        MmDim::M => 0,
        MmDim::K => 1,
        MmDim::L => 2,
    }
}

impl Tiling {
    /// Creates a tiling from `(T_M, T_K, T_L)`.
    ///
    /// # Panics
    ///
    /// Panics if any tile size is zero.
    pub fn new(t_m: u64, t_k: u64, t_l: u64) -> Tiling {
        assert!(t_m > 0 && t_k > 0 && t_l > 0, "tile sizes must be non-zero");
        Tiling { t: [t_m, t_k, t_l] }
    }

    /// The tiling in which every dimension is fully resident (all untiled).
    pub fn full(mm: MatMul) -> Tiling {
        Tiling::new(mm.m(), mm.k(), mm.l())
    }

    /// Tile size of one dimension.
    pub fn tile(&self, dim: MmDim) -> u64 {
        self.t[idx(dim)]
    }

    /// Returns a copy with one dimension's tile replaced.
    #[must_use]
    pub fn with(&self, dim: MmDim, tile: u64) -> Tiling {
        assert!(tile > 0, "tile sizes must be non-zero");
        let mut t = self.t;
        t[idx(dim)] = tile;
        Tiling { t }
    }

    /// Clamps every tile to its dimension size (tiles larger than the
    /// dimension waste no buffer in practice, so they are normalized away).
    #[must_use]
    pub fn clamped(&self, mm: MatMul) -> Tiling {
        Tiling {
            t: [
                self.t[0].min(mm.m()),
                self.t[1].min(mm.k()),
                self.t[2].min(mm.l()),
            ],
        }
    }

    /// Number of tile-loop iterations along `dim`: `ceil(D / T_d)`.
    pub fn iterations(&self, mm: MatMul, dim: MmDim) -> u64 {
        div_ceil(mm.dim(dim), self.tile(dim))
    }

    /// Whether `dim` is untiled (single tile covering the whole dimension).
    pub fn is_untiled(&self, mm: MatMul, dim: MmDim) -> bool {
        self.iterations(mm, dim) == 1
    }

    /// Buffer footprint in elements of one operand's tile.
    pub fn tensor_tile_elems(&self, mm: MatMul, op: Operand) -> u64 {
        let [a, b] = op.dims();
        self.tile(a).min(mm.dim(a)) * self.tile(b).min(mm.dim(b))
    }

    /// Total buffer footprint: one live tile per operand (Eq. 2 / Eq. 4 of
    /// the paper generalized to arbitrary tilings).
    pub fn buffer_elems(&self, mm: MatMul) -> u64 {
        Operand::ALL
            .iter()
            .map(|op| self.tensor_tile_elems(mm, *op))
            .sum()
    }

    /// Whether the tiling's live tiles fit in `buffer` elements.
    pub fn fits(&self, mm: MatMul, buffer: u64) -> bool {
        self.buffer_elems(mm) <= buffer
    }

    /// Balances tile sizes so tiles along each dimension are as even as
    /// possible without increasing the iteration count: `T_d ←
    /// ceil(D / ceil(D / T_d))`.
    ///
    /// This mirrors the paper's §III-A example, where the analytic maximum
    /// `T_M = 680` is reported as the balanced `T_M = 512` (both give two
    /// iterations over `M = 1024`). Memory access is unchanged; the buffer
    /// footprint shrinks or stays equal.
    #[must_use]
    pub fn balanced(&self, mm: MatMul) -> Tiling {
        let bal = |dim: MmDim| {
            let d = mm.dim(dim);
            let t = self.tile(dim).min(d);
            div_ceil(d, div_ceil(d, t))
        };
        Tiling {
            t: [bal(MmDim::M), bal(MmDim::K), bal(MmDim::L)],
        }
    }
}

impl fmt::Display for Tiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T(m={}, k={}, l={})", self.t[0], self.t[1], self.t[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_match_eq2() {
        // Paper Eq. 2: T_M T_K + T_K T_L + T_M T_L <= BS.
        let mm = MatMul::new(100, 100, 100);
        let t = Tiling::new(8, 2, 16);
        assert_eq!(t.buffer_elems(mm), 8 * 2 + 2 * 16 + 8 * 16);
        assert!(t.fits(mm, 176));
        assert!(!t.fits(mm, 175));
    }

    #[test]
    fn untiled_detection() {
        let mm = MatMul::new(8, 16, 4);
        let t = Tiling::new(8, 4, 4);
        assert!(t.is_untiled(mm, MmDim::M));
        assert!(!t.is_untiled(mm, MmDim::K));
        assert!(t.is_untiled(mm, MmDim::L));
        assert_eq!(t.iterations(mm, MmDim::K), 4);
    }

    #[test]
    fn iterations_use_ceiling() {
        let mm = MatMul::new(10, 1, 1);
        let t = Tiling::new(3, 1, 1);
        assert_eq!(t.iterations(mm, MmDim::M), 4);
    }

    #[test]
    fn clamp_limits_to_dims() {
        let mm = MatMul::new(4, 4, 4);
        let t = Tiling::new(100, 2, 100).clamped(mm);
        assert_eq!(t.tile(MmDim::M), 4);
        assert_eq!(t.tile(MmDim::K), 2);
        // Oversized tiles also never inflate footprints even unclamped.
        let big = Tiling::new(100, 100, 100);
        assert_eq!(big.buffer_elems(mm), 3 * 16);
    }

    #[test]
    fn balanced_preserves_iteration_counts() {
        let mm = MatMul::new(1024, 768, 768);
        let t = Tiling::new(680, 768, 1);
        let b = t.balanced(mm);
        assert_eq!(b.tile(MmDim::M), 512); // paper's reported T_M
        for d in MmDim::ALL {
            assert_eq!(b.iterations(mm, d), t.iterations(mm, d));
        }
        assert!(b.buffer_elems(mm) <= t.buffer_elems(mm));
    }

    #[test]
    fn with_replaces_one_dim() {
        let t = Tiling::new(1, 2, 3).with(MmDim::K, 9);
        assert_eq!(t, Tiling::new(1, 9, 3));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_tile_panics() {
        let _ = Tiling::new(1, 0, 1);
    }
}
