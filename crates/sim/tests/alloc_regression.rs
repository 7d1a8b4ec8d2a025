//! Allocation-count regression tests for the simulator hot paths.
//!
//! The PR that introduced the flat edge arenas and `SimScratch` claims
//! **zero heap allocations per cycle** in steady state. These tests pin
//! that down with a counting [`GlobalAlloc`]: after a warm-up pass sizes
//! every buffer, the counted region must perform literally zero `alloc`
//! or `realloc` calls.
//!
//! This lives in an integration test (its own crate) because the sim
//! library itself is `#![forbid(unsafe_code)]`, while a `GlobalAlloc`
//! impl is necessarily `unsafe`. The counter is thread-local, so parallel
//! test threads never pollute each other's counts, and the allocator
//! falls back to [`System`] for the actual memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fusecu_arch::Stationary;
use fusecu_dataflow::{LoopNest, Tiling};
use fusecu_ir::{MatMul, MmDim};
use fusecu_sim::driver::{
    execute_fused_nest_macro_with, execute_nest_macro_with, execute_nest_with,
    measure_fused_nest, measure_nest,
};
use fusecu_sim::{CuArray, FabricShape, FuseCuFabric, Matrix, SimScratch};

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

#[test]
fn cu_array_steps_are_allocation_free() {
    let n = 8;
    let mut cu = CuArray::new(n, Stationary::Ws);
    let weights = Matrix::pseudo_random(n, n, 7);
    cu.load_stationary(&weights);
    let mut west = vec![1i64; n];
    let mut north = vec![2i64; n];
    let mut east = vec![0i64; n];
    let mut south = vec![0i64; n];
    // Warm-up: first steps may size internal wire scratch.
    for _ in 0..4 {
        cu.step_into(&west, &north, &mut east, &mut south);
    }
    let (count, _) = allocations(|| {
        for t in 0..256 {
            west.fill(t);
            north.fill(-t);
            cu.step_into(&west, &north, &mut east, &mut south);
        }
    });
    assert_eq!(count, 0, "CuArray::step_into allocated {count} times in 256 cycles");
}

#[test]
fn fabric_steps_are_allocation_free() {
    let n = 4;
    for shape in [FabricShape::Square, FabricShape::Wide, FabricShape::Narrow] {
        let mut fabric = FuseCuFabric::new(n, shape, Stationary::Ws);
        let (rows, cols) = fabric.logical();
        let weights = Matrix::pseudo_random(rows, cols, 11);
        fabric.load_stationary(&weights);
        let mut west = vec![1i64; rows];
        let mut north = vec![2i64; cols];
        let mut east = vec![0i64; rows];
        let mut south = vec![0i64; cols];
        for _ in 0..4 {
            fabric.step_into(&west, &north, &mut south);
            fabric.step_east_into(&west, &north, &mut east);
        }
        let (count, _) = allocations(|| {
            for t in 0..128 {
                west.fill(t);
                north.fill(-t);
                fabric.step_into(&west, &north, &mut south);
                fabric.step_east_into(&west, &north, &mut east);
            }
        });
        assert_eq!(count, 0, "{shape:?} fabric stepping allocated {count} times");
    }
}

#[test]
fn traffic_only_replay_never_allocates() {
    // TrafficOnly is allocation-free from the first call — not just in
    // steady state — because it touches no data at all.
    let mm = MatMul::new(96, 80, 64);
    let nest = LoopNest::new([MmDim::M, MmDim::K, MmDim::L], Tiling::new(8, 10, 4));
    let pair = fusecu_fusion::FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16))
        .unwrap();
    let fused = fusecu_fusion::FusedNest::new(true, fusecu_fusion::FusedTiling::new(8, 6, 10, 4));
    let (count, (ma, ft)) = allocations(|| (measure_nest(mm, &nest), measure_fused_nest(&pair, &fused)));
    assert!(ma.total() > 0 && ft.iter().sum::<u64>() > 0);
    assert_eq!(count, 0, "counters-only replay allocated {count} times");
}

#[test]
fn closed_form_scoring_population_never_allocates() {
    // The closed-form TrafficOnly fast path must stay zero-allocation
    // across a whole scoring population, not just one call — this is what lets the search loop replay
    // thousands of genomes per second with no allocator traffic at all.
    // Genomes are built outside the counted region; only scoring counts.
    let mm = MatMul::new(96, 80, 64);
    let nests: Vec<LoopNest> = LoopNest::orders()
        .into_iter()
        .flat_map(|order| {
            [(8, 10, 4), (96, 80, 64), (7, 7, 7), (1, 1, 1)]
                .map(|(tm, tk, tl)| LoopNest::new(order, Tiling::new(tm, tk, tl)))
        })
        .collect();
    let pair = fusecu_fusion::FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16))
        .unwrap();
    let fused: Vec<fusecu_fusion::FusedNest> = [true, false]
        .into_iter()
        .flat_map(|outer_is_m| {
            [(8, 6, 10, 4), (32, 24, 40, 16), (5, 5, 5, 5)].map(|(tm, tk, tl, tn)| {
                fusecu_fusion::FusedNest::new(outer_is_m, fusecu_fusion::FusedTiling::new(tm, tk, tl, tn))
            })
        })
        .collect();
    let (count, total) = allocations(|| {
        let mut total = 0u64;
        for nest in &nests {
            total += measure_nest(mm, nest).total();
        }
        for nest in &fused {
            total += measure_fused_nest(&pair, nest).iter().sum::<u64>();
        }
        total
    });
    assert!(total > 0);
    assert_eq!(count, 0, "closed-form scoring allocated {count} times");
}

#[test]
fn warm_scratch_replay_is_allocation_free() {
    // Full-mode genome replay: after one warm-up sizes the scratch, every
    // further replay of same-shape nests allocates nothing.
    let mm = MatMul::new(48, 40, 32);
    let a = Matrix::pseudo_random(48, 40, 21);
    let b = Matrix::pseudo_random(40, 32, 22);
    let mut scratch = SimScratch::new();
    let nests: Vec<LoopNest> = LoopNest::orders()
        .into_iter()
        .map(|order| LoopNest::new(order, Tiling::new(6, 8, 4)))
        .collect();
    for nest in &nests {
        execute_nest_with(&a, &b, mm, nest, &mut scratch);
    }
    let (count, total) = allocations(|| {
        let mut total = 0u64;
        for _ in 0..16 {
            for nest in &nests {
                total += execute_nest_with(&a, &b, mm, nest, &mut scratch).total();
            }
        }
        total
    });
    assert!(total > 0);
    assert_eq!(count, 0, "warm-scratch replays allocated {count} times");
}

#[test]
fn macro_step_replay_is_allocation_free() {
    // The wavefront macro-step tier through a warm scratch: zero
    // steady-state allocations for both the nest and fused drivers —
    // nothing per-cycle survives, and nothing per-genome either.
    let mm = MatMul::new(48, 40, 32);
    let a = Matrix::pseudo_random(48, 40, 21);
    let b = Matrix::pseudo_random(40, 32, 22);
    let pair = fusecu_fusion::FusedPair::try_new(MatMul::new(32, 24, 40), MatMul::new(32, 40, 16))
        .unwrap();
    let fa = Matrix::pseudo_random(32, 24, 23);
    let fb = Matrix::pseudo_random(24, 40, 24);
    let fd = Matrix::pseudo_random(40, 16, 25);
    let fused = fusecu_fusion::FusedNest::new(true, fusecu_fusion::FusedTiling::new(8, 6, 10, 4));
    let mut scratch = SimScratch::new();
    let nests: Vec<LoopNest> = LoopNest::orders()
        .into_iter()
        .map(|order| LoopNest::new(order, Tiling::new(6, 8, 4)))
        .collect();
    // Warm-up sizes the scratch arenas once.
    execute_nest_macro_with(&a, &b, mm, &nests[0], &mut scratch);
    execute_fused_nest_macro_with(&fa, &fb, &fd, &pair, &fused, &mut scratch);
    let (count, total) = allocations(|| {
        let mut total = 0u64;
        for _ in 0..16 {
            for nest in &nests {
                total += execute_nest_macro_with(&a, &b, mm, nest, &mut scratch).total();
            }
            total += execute_fused_nest_macro_with(&fa, &fb, &fd, &pair, &fused, &mut scratch)
                .iter()
                .sum::<u64>();
        }
        total
    });
    assert!(total > 0);
    assert_eq!(count, 0, "macro-step replays allocated {count} times");
}
