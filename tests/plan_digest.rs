//! Byte-identity pin for the fusion planners.
//!
//! Hashes the full `Debug` rendering of every step that
//! [`try_plan_dag_with`] (default config) and [`try_plan_chain`] return
//! for the Table II zoo's prefill and branchy graphs and every chain of
//! their `mm_chains` decomposition, under both cost models and five
//! buffer sizes from the three-element minimum to 4 Mi elements. The
//! rendering carries every node id, count, loop order, tile, per-tensor
//! memory access and footprint, so any change to which plan is chosen, or
//! to how it is tiled, moves the digest.
//!
//! The constant was recorded before the planners' pricing was rewritten
//! to solve the fused tile bound in closed form and reuse solo optima; a
//! speed-up of the planners must leave it unchanged. If a deliberate
//! model change moves it, re-derive it and state why in the same commit.

use std::fmt::Debug;

use fusecu::fusion::planner::try_plan_chain;
use fusecu::prelude::*;

/// Digest of every step of every plan below, recorded at the parent of
/// the closed-form pricing change.
const PLAN_DIGEST: u64 = 0x0567_29b8_71d0_e044;

const BUFFERS: [u64; 5] = [3, 4 << 10, 64 << 10, 512 << 10, 4 << 20];

/// FNV-1a over bytes: a fixed, toolchain-independent hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, value: &impl Debug) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(b"\n");
    }
}

/// The 14 cold-planning graphs: each zoo model's prefill and branchy
/// graph.
fn graphs() -> Vec<(String, OpGraph)> {
    zoo::all()
        .iter()
        .flat_map(|config| {
            [
                (format!("{}/prefill", config.name), config.build_graph()),
                (
                    format!("{}/branchy", config.name),
                    config.build_branchy_graph(),
                ),
            ]
        })
        .collect()
}

#[test]
fn dag_and_chain_plans_are_pinned() {
    let graphs = graphs();
    assert_eq!(graphs.len(), 14, "zoo gained or lost a model");
    let config = PlannerConfig::default();
    let mut h = Fnv::new();
    for (label, graph) in &graphs {
        let dag = graph.mm_dag();
        let chains = graph.mm_chains();
        for model in [CostModel::paper(), CostModel::read_write()] {
            for bs in BUFFERS {
                h.debug(&(label, model, bs));
                match try_plan_dag_with(&config, &model, &dag, bs) {
                    None => h.debug(&"dag none"),
                    Some(plan) => {
                        h.debug(&plan.total_ma());
                        for step in plan.steps() {
                            h.debug(step);
                        }
                    }
                }
                for (ids, chain, count) in &chains {
                    h.debug(&(ids, count));
                    match try_plan_chain(&model, chain, bs) {
                        None => h.debug(&"chain none"),
                        Some(plan) => {
                            h.debug(&plan.total_ma());
                            for step in plan.steps() {
                                h.debug(step);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(h.0, PLAN_DIGEST, "plan digest {:#018x} moved", h.0);
}
