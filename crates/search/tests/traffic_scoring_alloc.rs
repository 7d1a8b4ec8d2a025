//! Allocation-count regression for the default simulated scoring,
//! [`SimMode::TrafficOnly`](fusecu_sim::SimMode::TrafficOnly).
//!
//! The closed-form backend never touches data, so scoring a whole
//! population through the scorers' sessions must touch the allocator
//! exactly zero times: no scratch lease, no tile buffers, no per-genome
//! state. This is the search-layer counterpart of the sim crate's
//! `alloc_regression` suite (same counting-[`GlobalAlloc`] idiom — an
//! integration test because the library crates forbid unsafe code).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fusecu_dataflow::{CostModel, LoopNest, Tiling};
use fusecu_fusion::{FusedNest, FusedPair, FusedTiling};
use fusecu_ir::MatMul;
use fusecu_search::{Fitness, FusedScorer, NestScorer};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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

fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn traffic_only_population_scoring_never_allocates() {
    // Sessions and every score through them must not allocate.
    let mm = MatMul::new(48, 40, 32);
    let scorer = NestScorer::new(Fitness::Simulated, CostModel::paper(), mm);
    let nests: Vec<LoopNest> = LoopNest::orders()
        .into_iter()
        .flat_map(|order| {
            [(6, 8, 4), (48, 40, 32), (7, 7, 7), (1, 1, 1)]
                .map(|(tm, tk, tl)| LoopNest::new(order, Tiling::new(tm, tk, tl)))
        })
        .collect();
    let (count, total) = allocations(|| {
        let mut total = 0u64;
        for _ in 0..16 {
            let mut session = scorer.session();
            for nest in &nests {
                total += session.score(nest);
            }
        }
        total
    });
    assert!(total > 0);
    assert_eq!(count, 0, "TrafficOnly nest scoring allocated {count} times");
}

#[test]
fn traffic_only_fused_population_scoring_never_allocates() {
    let pair = FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16)).unwrap();
    let scorer = FusedScorer::new(Fitness::Simulated, CostModel::paper(), pair);
    let nests: Vec<FusedNest> = [true, false]
        .into_iter()
        .flat_map(|outer_is_m| {
            [(8, 6, 10, 4), (32, 24, 40, 16), (5, 5, 5, 5)]
                .map(|(tm, tk, tl, tn)| FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, tl, tn)))
        })
        .collect();
    let (count, total) = allocations(|| {
        let mut total = 0u64;
        for _ in 0..16 {
            let mut session = scorer.session();
            for nest in &nests {
                total += session.score(nest);
            }
        }
        total
    });
    assert!(total > 0);
    assert_eq!(
        count, 0,
        "TrafficOnly fused scoring allocated {count} times"
    );
}
