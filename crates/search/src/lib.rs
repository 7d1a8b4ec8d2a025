//! # fusecu-search — the searching-based DSE baseline (DAT-class)
//!
//! The paper validates its principles against DAT, a searching-based
//! optimizer combining mixed-integer programming and genetic algorithms
//! (§V-A, Fig 9). This crate plays DAT's role with two searchers over the
//! *same* loop-nest cost model the principles use:
//!
//! * [`exhaustive`] — full enumeration of loop orders × balanced tile
//!   representatives. Balanced representatives make the enumeration lossless
//!   (see [`space`]), so this searcher is a strict optimality oracle: if the
//!   principles ever miss the optimum, exhaustive search exposes it.
//! * [`genetic`] — a GAMMA/DAT-style genetic algorithm with tournament
//!   selection, crossover, mutation, and elitism. Like DAT it does *not*
//!   guarantee global optimality, reproducing the paper's observation that
//!   "in some cases, our dataflow outperform DAT because DAT uses genetic
//!   algorithm that does not guarantee global optimization".
//! * [`fused_exhaustive`] — enumeration over the fused-pair nest space,
//!   validating the closed-form fused optimizer of `fusecu-fusion`.
//! * [`chain_exhaustive`] — enumeration over the k-ary fused-chain nest
//!   space, validating the depth-parametric chain optimizer's dominance
//!   pruning against a full scan of balanced tile representatives.
//!
//! Every searcher ranks candidates through a pluggable [`fitness`]
//! backend: the analytical loop-nest model by default;
//! [`Fitness::Simulated`], which replays each candidate nest on the
//! tiled drivers of `fusecu-sim` and scores by *measured* traffic; or
//! [`Fitness::Latency`], which scores by the arch cycle model
//! (`max(compute, DRAM)` on a given array) — a genuinely different
//! objective that can rank genome pairs opposite to traffic.
//!
//! Two infrastructure modules drive the figure sweeps that use these
//! searchers at scale: [`cache`] memoizes optimizer results behind a
//! concurrent map keyed on `(MatMul, bs, CostModel)`, and [`parallel`]
//! fans `(shape × buffer × optimizer)` sweep points across scoped threads
//! with deterministic, serial-identical output ordering.
//!
//! ```
//! use fusecu_ir::MatMul;
//! use fusecu_dataflow::{principles, CostModel};
//! use fusecu_search::exhaustive::ExhaustiveSearch;
//!
//! let mm = MatMul::new(256, 96, 192);
//! let model = CostModel::paper();
//! let searched = ExhaustiveSearch::new(model).optimize(mm, 8_192);
//! let principled = principles::optimize_with(&model, mm, 8_192);
//! assert_eq!(searched.best().total_ma(), principled.total_ma());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chain_exhaustive;
pub mod exhaustive;
pub mod fitness;
pub mod fused_exhaustive;
pub mod fused_genetic;
pub mod genetic;
pub mod parallel;
pub mod persist;
pub mod space;

pub use cache::{CacheStats, DataflowCache, MemoCache, SectionCounters};
pub use chain_exhaustive::ChainExhaustive;
pub use exhaustive::{ExhaustiveSearch, SearchResult};
pub use fitness::{Fitness, FusedScorer, FusedSession, NestScorer, NestSession};
pub use fused_exhaustive::FusedExhaustive;
pub use fused_genetic::FusedGenetic;
pub use genetic::{GeneticConfig, GeneticSearch};
pub use parallel::{par_map, par_map_batched, par_sum_indexed, Parallelism, SweepEngine, SweepOutcome};
