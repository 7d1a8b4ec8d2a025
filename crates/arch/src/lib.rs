//! # fusecu-arch — spatial-accelerator platform and performance models
//!
//! Reproduces §IV (FuseCU) and the §V evaluation methodology: each platform
//! is a *restriction of the dataflow space* plus a *spatial mapping menu*,
//! evaluated with one shared cycle model (Fig 8's template: PE fabric +
//! on-chip buffer + 1 TB/s memory port).
//!
//! | platform | stationary | tiling flexibility | fusion |
//! |---|---|---|---|
//! | TPUv4i   | WS          | low (array-aligned tiles) | — |
//! | Gemmini  | WS, OS      | low                       | — |
//! | Planaria | WS          | high (array fission)      | — |
//! | UnfCU    | WS, OS, IS  | middle (square/wide/narrow reshape) | — |
//! | FuseCU   | WS, OS, IS  | middle                    | tile + column |
//!
//! All platforms use the TPUv4i compute configuration: four 128×128 PE
//! compute units and 1 TB/s of on-chip bandwidth (§V-A). Every platform's
//! dataflow is optimized *within its supported space* ("All designs undergo
//! our optimization process … for fair comparisons").
//!
//! The cycle model charges, per spatial tile, the streaming depth of the
//! moving dimension plus systolic fill/drain (`d₃ + A + B` on an `A×B`
//! array), overlaps compute with memory (`max(compute, DRAM)`), and defines
//! utilization as achieved MACs over `cycles × peak MACs/cycle` — the
//! quantity Fig 10's line chart plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod eval;
pub mod flex;
pub mod fused;
pub mod intra;
pub mod latency;
pub mod mapping;
pub mod persist;
pub mod platform;
pub mod spec;
pub mod stationary;

pub use energy::EnergyModel;
pub use eval::{evaluate_graph, try_evaluate_graph, GraphPerf};
pub use flex::TilingFlex;
pub use intra::{
    op_cache, op_cache_clear, op_cache_counters, op_cache_preload, op_candidates, optimize_op,
    optimize_op_cached, select_op, try_optimize_op_cached, OpCandidate, OpPerf, TileKey,
};
pub use latency::{fused_compute_cycles, fused_latency, nest_compute_cycles, nest_latency};
pub use mapping::{classify_intermediate, recommended_mapping, IntermediateShape};
pub use platform::Platform;
pub use spec::ArraySpec;
pub use stationary::Stationary;
