//! # fusecu-sim — functional cycle-level simulation of the FuseCU fabric
//!
//! The paper implements FuseCU in Chisel and verifies it in RTL simulation;
//! this crate is the equivalent executable evidence in Rust. It models the
//! X-Stationary PE (§IV-B, Fig 6) at the register-transfer level, assembles
//! compute units out of them, and executes real (integer) matrix
//! multiplications through the systolic dataflows:
//!
//! * weight-stationary, output-stationary, and input-stationary single-CU
//!   runs ([`array::CuArray`]), each checked against a golden matmul;
//! * **tile fusion** — an OS pass leaves `C` in the PE accumulators, then
//!   the XS muxes flip the same PEs to IS and consume `C` in place
//!   ([`fusion::tile_fusion`]): the intermediate never leaves the array;
//! * **column fusion** — a producer array in IS streams columns of `C`
//!   through the inter-CU port muxes into a consumer array in OS
//!   ([`fusion::column_fusion`]): the intermediate is never materialized;
//! * the four-CU [`fabric`] with Fig 7's square/wide/narrow reshapes,
//!   proven cycle-for-cycle equivalent to a monolithic array, plus
//!   fabric-scale tile fusion (intermediates up to `2N × 2N` promoted in
//!   place) and wide column fusion (Fig 7(e), untiled dimensions up to
//!   `2N` streaming between 2-CU halves);
//! * a tiling [`driver`] that executes arbitrarily large matmuls tile by
//!   tile with golden tile kernels and *measures* buffer↔array traffic,
//!   cross-checking the analytical memory-access model of
//!   `fusecu-dataflow` in execution ([`SimMode::Full`]). Traffic
//!   accounting has two byte-identical tiers: the naive walk
//!   ([`driver::oracle`]), inside which the tiled replays move their
//!   values, and a closed form with no tile loops at all
//!   ([`driver::measure_nest`] / [`driver::measure_fused_nest`], the
//!   [`SimMode::TrafficOnly`] scoring path). K-ary fused chains get the
//!   same two tiers plus a full replay ([`driver::execute_fused_chain`])
//!   that threads every interior intermediate through resident on-chip
//!   panels.
//!
//! Value replay is two-tier as well. The per-cycle engine
//! ([`array::CuArray`], [`fabric::FuseCuFabric`], the [`fusion`] runs and
//! [`driver::execute_on_cu`]) clocks every PE; the **wavefront macro-step
//! tier** exploits the skew structure of the WS/OS/IS schedules to land
//! each run's outputs with a direct kernel and derive its cycles
//! algebraically — the `*_macro` runs on [`array::CuArray`] /
//! [`fabric::FuseCuFabric`] / [`fusion`], and the `execute_*_macro`
//! drivers, which take their traffic from the closed forms. All of it is
//! pinned byte-identical to the per-cycle engine and the tiled replays by
//! the `macro_step_differential` suite.
//!
//! All simulations are exact over `i64`, so every check is bit-precise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod driver;
pub mod fabric;
pub mod fusion;
pub mod matrix;
pub mod pe;
pub mod scratch;

pub use array::CuArray;
pub use fabric::{FabricShape, FuseCuFabric};
pub use matrix::Matrix;
pub use scratch::{ScratchLease, ScratchPool, SimMode, SimScratch};
