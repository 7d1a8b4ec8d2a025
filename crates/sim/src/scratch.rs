//! Reusable simulation scratch: preallocated tile buffers shared across
//! driver replays, and the [`SimMode`] switch between full value replay
//! and counters-only measurement.
//!
//! The tiled drivers ([`crate::driver`]) walk a loop nest and, per
//! innermost iteration, copy out two operand tiles and multiply them. Done
//! naively that is three heap allocations per tile visit — the dominant
//! cost of simulated-fitness scoring, where a genetic searcher replays
//! thousands of genomes against the same shape. [`SimScratch`] owns those
//! buffers and lets every replay reuse them: after the first genome sizes
//! the arenas, steady-state replay allocates nothing.
//!
//! [`ScratchPool`] makes the reuse thread-safe for parallel population
//! scoring: each worker checks a scratch out, replays with it, and returns
//! it, so a generation needs at most one arena per worker rather than one
//! per genome.

use std::sync::Mutex;

use crate::matrix::Matrix;

/// How much of the machine a driver replay actually simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Replay the nest tile by tile on real operands: golden tile kernels
    /// compute the product while the naive accounting walk
    /// ([`crate::driver::oracle`]) measures traffic. No PE is clocked; the
    /// per-cycle engine is [`crate::CuArray`] / [`crate::FuseCuFabric`].
    /// The default.
    #[default]
    Full,
    /// Skip value movement entirely and compute only the traffic counters
    /// a fitness scores. Resolves to the closed-form
    /// `measure_nest`/`measure_fused_nest` in the driver: no loops over
    /// tiles, interior tiles priced analytically and the ragged edge
    /// fringe folded into edge-clamped span sums. Byte-identical counters
    /// to [`SimMode::Full`] — proven against the naive oracle by the
    /// `traffic_differential` suite.
    TrafficOnly,
}

/// Preallocated tile/stream/accumulator buffers for the tiled drivers,
/// sized lazily by the first replay and reused by every one after it.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Producer left-operand tile (`A`).
    pub(crate) a_tile: Matrix,
    /// Producer right-operand tile (`B`, or the consumer stream `D`).
    pub(crate) b_tile: Matrix,
    /// Product-tile accumulator written by `matmul_into`.
    pub(crate) prod: Matrix,
    /// Fused-pair intermediate tile (`C`), the modeled register file.
    pub(crate) c_tile: Matrix,
    /// Full output accumulation (`C` for single nests, `E` for fused).
    pub(crate) out: Matrix,
}

impl SimScratch {
    /// A fresh, unsized scratch; the first replay sizes the buffers.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// The output matrix of the most recent full replay threaded through
    /// this scratch.
    pub fn out(&self) -> &Matrix {
        &self.out
    }

    /// Moves the output matrix out of the scratch (leaving an empty one),
    /// for callers that need an owned product.
    pub fn take_out(&mut self) -> Matrix {
        std::mem::take(&mut self.out)
    }
}

/// A lock-guarded free list of [`SimScratch`] arenas for parallel scoring:
/// holds at most as many arenas as threads ever replayed concurrently.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SimScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// Checks an arena out of the pool for the lifetime of the returned
    /// lease; dropping the lease returns the arena (with its sized
    /// buffers) to the pool. This is the batch-scoring entry point: a
    /// worker leases once, replays a whole sub-population against the
    /// same arena, and pays the pool lock twice per batch instead of
    /// twice per genome.
    pub fn lease(&self) -> ScratchLease<'_> {
        let scratch = self
            .free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        ScratchLease {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Runs `f` with a pooled scratch, returning the scratch to the pool
    /// afterwards (even a fresh one, so its sized buffers are kept).
    pub fn with<R>(&self, f: impl FnOnce(&mut SimScratch) -> R) -> R {
        let mut lease = self.lease();
        f(&mut lease)
    }

    /// Number of arenas currently checked in.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

/// A [`SimScratch`] checked out of a [`ScratchPool`]; derefs to the
/// arena and checks it back in on drop.
#[derive(Debug)]
pub struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    /// `Some` until dropped; `Option` only so `drop` can move it out.
    scratch: Option<SimScratch>,
}

impl std::ops::Deref for ScratchLease<'_> {
    type Target = SimScratch;

    fn deref(&self) -> &SimScratch {
        self.scratch.as_ref().expect("lease holds a scratch until drop")
    }
}

impl std::ops::DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut SimScratch {
        self.scratch.as_mut().expect("lease holds a scratch until drop")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            // A poisoned pool means a panic is already unwinding; losing
            // the arena is fine (don't double-panic in drop).
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_returned_arenas() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        pool.with(|s| s.out.reset_zeroed(4, 4));
        assert_eq!(pool.idle(), 1);
        // The returned arena keeps its sizing.
        pool.with(|s| assert_eq!((s.out.rows(), s.out.cols()), (4, 4)));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_grows_under_concurrent_checkout() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    pool.with(|s| {
                        s.prod.reset_zeroed(2, 2);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    })
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 3);
    }

    #[test]
    fn lease_holds_one_arena_across_many_uses() {
        let pool = ScratchPool::new();
        {
            let mut lease = pool.lease();
            lease.out.reset_zeroed(3, 3);
            // The arena stays checked out for the whole batch.
            assert_eq!(pool.idle(), 0);
            lease.prod.reset_zeroed(2, 2);
        }
        // Drop returns it, sizing intact.
        assert_eq!(pool.idle(), 1);
        pool.with(|s| assert_eq!((s.out.rows(), s.out.cols()), (3, 3)));
    }

    #[test]
    fn default_mode_is_full() {
        assert_eq!(SimMode::default(), SimMode::Full);
    }
}
