//! Allocation-count regression tests for the closed-form optimizers.
//!
//! The solo optimizer sweeps `O(√M)` balanced tiles per stationary choice
//! and the fused-pair optimizer `O(√M)` per phase tiling, scoring one
//! candidate at each. Scoring must count and fold rather than collect, so
//! the number of heap allocations per call is independent of the problem
//! size: the same at `M = 1,024` as at `M = 65,536`.
//!
//! This lives in an integration test (its own crate) because the fusion
//! library is `#![forbid(unsafe_code)]`, while a `GlobalAlloc` impl is
//! necessarily `unsafe`. The counter is thread-local, so parallel test
//! threads never pollute each other's counts, and the allocator falls
//! back to [`System`] for the actual memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fusecu_dataflow::principles::try_optimize_with;
use fusecu_dataflow::CostModel;
use fusecu_fusion::optimizer::optimize_pair;
use fusecu_fusion::FusedPair;
use fusecu_ir::MatMul;

struct CountingAlloc;

thread_local! {
    /// Allocations observed on this thread. `const` init keeps the
    /// thread-local itself from allocating lazily inside the counted
    /// region.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` because TLS may be unavailable during thread teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

const SMALL_M: u64 = 1_024;
const LARGE_M: u64 = 65_536;
const MODELS: [CostModel; 2] = [
    CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    },
    CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::ReadWrite,
    },
];

#[test]
fn solo_optimizer_allocations_do_not_grow_with_m() {
    for model in MODELS {
        for bs in [4 << 10, 512 << 10] {
            let at = |m| allocations(|| try_optimize_with(&model, MatMul::new(m, 768, 768), bs));
            let (small, df) = at(SMALL_M);
            assert!(df.is_some());
            let (large, df) = at(LARGE_M);
            assert!(df.is_some());
            assert_eq!(
                small, large,
                "bs={bs}: {small} allocations at M={SMALL_M}, {large} at M={LARGE_M}"
            );
        }
    }
}

#[test]
fn pair_optimizer_allocations_do_not_grow_with_m() {
    for model in MODELS {
        for bs in [4 << 10, 512 << 10] {
            let at = |m| {
                let pair = FusedPair::try_new(MatMul::new(m, 64, 1_024), MatMul::new(m, 1_024, 64))
                    .unwrap();
                allocations(|| optimize_pair(&model, pair, bs))
            };
            let (small, fused) = at(SMALL_M);
            assert!(fused.is_some());
            let (large, fused) = at(LARGE_M);
            assert!(fused.is_some());
            assert_eq!(
                small, large,
                "bs={bs}: {small} allocations at M={SMALL_M}, {large} at M={LARGE_M}"
            );
        }
    }
}
