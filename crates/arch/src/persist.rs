//! Record codecs and model digests for the arch- and fusion-level memo
//! caches, which persist through the generic
//! [`fusecu_dataflow::persist`] save and load:
//!
//! * the **operator cache** ([`crate::intra`]): per
//!   `(mm, platform, pe_dim, buffer, model)` key, the bandwidth-independent
//!   candidate list (stationary, CU shape, panel dataflow, unit compute
//!   cycles) that [`crate::intra::select_op`] re-scores per bandwidth;
//! * the **fusion caches** ([`fusecu_fusion`]): the memoized fused-pair
//!   optima, whole-chain plans and whole-graph plans.
//!
//! The cache registry of `fusecu_search::cache` names the file each of
//! them lives in. As in the search-level format, records store
//! reconstruction inputs (shapes, loop orders, tile sizes) and re-derive
//! costs through the cost model on load, except the operator cache's
//! `unit_compute_cycles`, whose
//! recomputation is exactly the expensive mapping search the cache exists
//! to skip — it is stored verbatim and guarded by the file checksum.
//! Because those verbatim cycles come out of the mapping/cycle model, the
//! arch files are stamped with [`arch_fingerprint`]: the base fingerprint
//! extended with a behavioral digest of [`best_mapping`] over a probe
//! grid. If the mapping or cycle equations change — even without a crate
//! version bump — the digest changes and every arch cache file becomes a
//! cold start instead of serving stale cycle counts. Graph plans are
//! stamped with [`graph_fingerprint`] instead, a digest of the planner.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use fusecu_dataflow::persist::{
    decode_dataflow, decode_mm, decode_model, encode_dataflow, encode_mm, encode_model,
    fingerprint_with, Codec, RecordReader,
};
use fusecu_dataflow::CostModel;
use fusecu_fusion::graph_planner::{try_plan_dag, GraphKey, GraphPlan, GraphStep};
use fusecu_fusion::planner::{ChainPlan, ChainStep, PlanKey};
use fusecu_fusion::{
    ChainNest, FusedChain, FusedChainDataflow, FusedDataflow, FusedDim, FusedNest, FusedPair,
    FusedTiling, PairKey,
};
use fusecu_ir::{FuseLink, MatMul, MmChain, MmDag, NodeId, OpGraph};

use crate::flex::{best_mapping, TilingFlex};
use crate::intra::{OpCandidate, TileKey};
use crate::platform::Platform;
use crate::spec::ArraySpec;
use crate::stationary::Stationary;

/// Records of the operator cache ([`crate::intra::op_cache`]).
pub const OP_CODEC: Codec<TileKey, Vec<OpCandidate>> = Codec {
    encode: |key, candidates| encode_op_entry(key, candidates),
    decode: decode_op_entry,
};

/// Records of the fused-pair cache
/// ([`fusecu_fusion::optimizer::pair_cache`]).
pub const PAIR_CODEC: Codec<PairKey, Option<FusedDataflow>> = Codec {
    encode: encode_pair_entry,
    decode: decode_pair_entry,
};

/// Records of the chain-plan cache ([`fusecu_fusion::planner::plan_cache`]).
pub const PLAN_CODEC: Codec<PlanKey, Option<ChainPlan>> = Codec {
    encode: encode_plan_entry,
    decode: decode_plan_entry,
};

/// Records of the whole-graph plan cache
/// ([`fusecu_fusion::graph_planner::graph_cache`]).
pub const GRAPH_CODEC: Codec<GraphKey, Option<GraphPlan>> = Codec {
    encode: encode_graph_entry,
    decode: decode_graph_entry,
};

/// A behavioral digest of the mapping/cycle model: [`best_mapping`]'s
/// chosen `(cycles, shape)` over every flexibility grade on a fixed probe
/// grid of workload extents, at the paper's architecture point. Any change
/// to the stream-cycle equations or the shape menus changes this value.
pub fn mapping_model_digest() -> String {
    static DIGEST: OnceLock<String> = OnceLock::new();
    DIGEST
        .get_or_init(|| {
            let spec = ArraySpec::paper_default();
            let mut h = DefaultHasher::new();
            for flex in [TilingFlex::Low, TilingFlex::Middle, TilingFlex::High] {
                // Extents exercising under-filled, exact, and ragged tiles.
                for (d1, d2, d3) in [(1u64, 1, 1), (96, 128, 64), (128, 128, 1024), (200, 40, 7)] {
                    best_mapping(flex, &spec, d1, d2, d3).hash(&mut h);
                }
            }
            format!("mapping-{:016x}", h.finish())
        })
        .clone()
}

/// The fingerprint stamped on arch-level cache files: the base format
/// fingerprint (crate/format version + cost-model digest) extended with
/// [`mapping_model_digest`].
pub fn arch_fingerprint() -> String {
    fingerprint_with(&mapping_model_digest())
}

fn encode_stationary(s: Stationary) -> u64 {
    match s {
        Stationary::Ws => 0,
        Stationary::Os => 1,
        Stationary::Is => 2,
    }
}

fn decode_stationary(v: u64) -> Option<Stationary> {
    match v {
        0 => Some(Stationary::Ws),
        1 => Some(Stationary::Os),
        2 => Some(Stationary::Is),
        _ => None,
    }
}

fn encode_platform(p: Platform) -> u64 {
    match p {
        Platform::Tpuv4i => 0,
        Platform::Gemmini => 1,
        Platform::Planaria => 2,
        Platform::UnfCu => 3,
        Platform::FuseCu => 4,
    }
}

fn decode_platform(v: u64) -> Option<Platform> {
    match v {
        0 => Some(Platform::Tpuv4i),
        1 => Some(Platform::Gemmini),
        2 => Some(Platform::Planaria),
        3 => Some(Platform::UnfCu),
        4 => Some(Platform::FuseCu),
        _ => None,
    }
}

/// A fused pair is four dimensions: `M, K, L, N` (the producer is
/// `M×K×L`, the consumer `M×L×N`; `try_new` re-checks the shared edge).
fn encode_pair(pair: FusedPair, out: &mut Vec<u64>) {
    let (p, c) = (pair.producer(), pair.consumer());
    out.extend([p.m(), p.k(), p.l(), c.l()]);
}

fn decode_pair(r: &mut RecordReader<'_>) -> Option<FusedPair> {
    let (m, k, l, n) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let producer = MatMul::try_new(m, k, l).ok()?;
    let consumer = MatMul::try_new(m, l, n).ok()?;
    FusedPair::try_new(producer, consumer).ok()
}

/// A fused nest is `outer_is_m` plus four tile sizes (5 tokens); the
/// dataflow is re-scored through the model on decode.
fn encode_fused_nest(nest: &FusedNest, out: &mut Vec<u64>) {
    out.push(u64::from(nest.outer_is_m));
    for d in [FusedDim::M, FusedDim::K, FusedDim::L, FusedDim::N] {
        out.push(nest.tiling.tile(d));
    }
}

fn decode_fused(
    model: &CostModel,
    pair: FusedPair,
    bs: u64,
    r: &mut RecordReader<'_>,
) -> Option<FusedDataflow> {
    let outer_is_m = r.bool()?;
    let (t_m, t_k, t_l, t_n) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    if t_m == 0 || t_k == 0 || t_l == 0 || t_n == 0 {
        return None; // FusedTiling::new panics on zero tiles
    }
    let nest = FusedNest::new(outer_is_m, FusedTiling::new(t_m, t_k, t_l, t_n));
    let fused = FusedDataflow::score(model, pair, nest);
    (fused.footprint() <= bs).then_some(fused)
}

// --- operator cache ------------------------------------------------------

fn encode_op_entry(key: &TileKey, candidates: &[OpCandidate]) -> Vec<u64> {
    let (mm, platform, pe_dim, buffer_elems, model) = key;
    let mut out = Vec::with_capacity(8 + 13 * candidates.len());
    encode_mm(*mm, &mut out);
    out.push(encode_platform(*platform));
    out.extend([*pe_dim, *buffer_elems]);
    encode_model(model, &mut out);
    out.push(candidates.len() as u64);
    for c in candidates {
        out.push(encode_stationary(c.stationary()));
        out.extend([c.shape().0, c.shape().1]);
        encode_dataflow(c.dataflow(), &mut out);
        out.push(c.unit_compute_cycles());
    }
    out
}

fn decode_op_entry(record: &[u64]) -> Option<(TileKey, Vec<OpCandidate>)> {
    let mut r = RecordReader::new(record);
    let mm = decode_mm(&mut r)?;
    let platform = decode_platform(r.u64()?)?;
    let (pe_dim, buffer_elems) = (r.u64()?, r.u64()?);
    let model = decode_model(&mut r)?;
    let count = r.u64()?;
    let mut candidates = Vec::with_capacity(count.min(16) as usize);
    for _ in 0..count {
        let stationary = decode_stationary(r.u64()?)?;
        let shape = (r.u64()?, r.u64()?);
        if shape.0 == 0 || shape.1 == 0 {
            return None;
        }
        let dataflow = decode_dataflow(&model, &mut r)?;
        if dataflow.mm() != mm || dataflow.buffer_elems() > buffer_elems {
            return None;
        }
        candidates.push(OpCandidate::new(stationary, shape, dataflow, r.u64()?));
    }
    r.finish()?;
    Some(((mm, platform, pe_dim, buffer_elems, model), candidates))
}

// --- fusion caches -------------------------------------------------------

fn encode_pair_entry(key: &PairKey, value: &Option<FusedDataflow>) -> Vec<u64> {
    let (pair, bs, model) = key;
    let mut out = Vec::with_capacity(12);
    encode_pair(*pair, &mut out);
    out.push(*bs);
    encode_model(model, &mut out);
    match value {
        None => out.push(0),
        Some(fused) => {
            out.push(1);
            encode_fused_nest(fused.nest(), &mut out);
        }
    }
    out
}

fn decode_pair_entry(record: &[u64]) -> Option<(PairKey, Option<FusedDataflow>)> {
    let mut r = RecordReader::new(record);
    let pair = decode_pair(&mut r)?;
    let bs = r.u64()?;
    let model = decode_model(&mut r)?;
    let value = if r.bool()? {
        Some(decode_fused(&model, pair, bs, &mut r)?)
    } else {
        None
    };
    r.finish()?;
    Some(((pair, bs, model), value))
}

fn encode_plan_entry(key: &PlanKey, value: &Option<ChainPlan>) -> Vec<u64> {
    let (chain, bs, model) = key;
    let mut out = Vec::new();
    out.push(chain.mms().len() as u64);
    for &mm in chain.mms() {
        encode_mm(mm, &mut out);
    }
    out.push(*bs);
    encode_model(model, &mut out);
    match value {
        None => out.push(0),
        Some(plan) => {
            out.push(1);
            out.push(plan.steps().len() as u64);
            for step in plan.steps() {
                match step {
                    ChainStep::Solo { dataflow, .. } => {
                        out.push(0);
                        encode_dataflow(dataflow, &mut out);
                    }
                    ChainStep::Pair { fused, .. } => {
                        out.push(1);
                        encode_fused_nest(fused.nest(), &mut out);
                    }
                }
            }
        }
    }
    out
}

fn decode_plan_entry(record: &[u64]) -> Option<(PlanKey, Option<ChainPlan>)> {
    let mut r = RecordReader::new(record);
    let len = r.u64()?;
    if len == 0 {
        return None; // MmChain::try_new asserts non-empty
    }
    let mut mms = Vec::with_capacity(len.min(64) as usize);
    for _ in 0..len {
        mms.push(decode_mm(&mut r)?);
    }
    let chain = MmChain::try_new(mms).ok()?;
    let bs = r.u64()?;
    let model = decode_model(&mut r)?;
    let value = if r.bool()? {
        let step_count = r.u64()?;
        let mut steps = Vec::with_capacity(step_count.min(64) as usize);
        let mut cursor = 0usize;
        for _ in 0..step_count {
            let step = match r.u64()? {
                0 => {
                    let dataflow = decode_dataflow(&model, &mut r)?;
                    if dataflow.mm() != chain.mm(cursor) || dataflow.buffer_elems() > bs {
                        return None;
                    }
                    ChainStep::Solo {
                        index: cursor,
                        dataflow,
                    }
                }
                1 => {
                    if cursor + 1 >= chain.mms().len() {
                        return None;
                    }
                    let pair =
                        FusedPair::try_new(chain.mm(cursor), chain.mm(cursor + 1)).ok()?;
                    ChainStep::Pair {
                        index: cursor,
                        fused: decode_fused(&model, pair, bs, &mut r)?,
                    }
                }
                _ => return None,
            };
            cursor += step.width();
            if cursor > chain.mms().len() {
                return None;
            }
            steps.push(step);
        }
        if cursor != chain.mms().len() {
            return None; // plan must cover the chain exactly
        }
        Some(ChainPlan::from_steps(steps, bs))
    } else {
        None
    };
    r.finish()?;
    Some(((chain, bs, model), value))
}

// --- whole-graph plan cache ----------------------------------------------

/// A behavioral digest of the whole-graph fusion planner: the full plan
/// structure (step kinds, endpoints, per-step traffic) [`try_plan_dag`]
/// chooses on a fixed probe set — a linear attention chain, a fan-in DAG
/// with competing producers, and a four-matmul chain deep enough to admit
/// k-ary fusion — across both cost models and a buffer sweep spanning
/// infeasible, tight, and ample. Any change to path enumeration, candidate
/// weighting, or the cover search changes this value. (The deep-chain
/// probe arrived with the k-ary planner, so pre-k-ary graph cache files
/// cold-start exactly once.)
pub fn graph_planner_digest() -> String {
    static DIGEST: OnceLock<String> = OnceLock::new();
    DIGEST
        .get_or_init(|| {
            let probes = [
                probe_chain_graph(),
                probe_fan_in_graph(),
                probe_deep_chain_graph(),
            ];
            let mut h = DefaultHasher::new();
            for model in [CostModel::paper(), CostModel::read_write()] {
                for graph in &probes {
                    let dag = graph.mm_dag();
                    for bs in [2u64, 4 * 1024, 64 * 1024] {
                        match try_plan_dag(&model, &dag, bs) {
                            None => 0u64.hash(&mut h),
                            Some(plan) => {
                                1u64.hash(&mut h);
                                plan.total_ma().hash(&mut h);
                                for step in plan.steps() {
                                    match step {
                                        GraphStep::Solo {
                                            node,
                                            count,
                                            dataflow,
                                        } => (0u64, node.0, *count, dataflow.total_ma())
                                            .hash(&mut h),
                                        GraphStep::Fused {
                                            producer,
                                            consumer,
                                            count,
                                            fused,
                                        } => (1u64, producer.0, consumer.0, *count, fused.total_ma())
                                            .hash(&mut h),
                                        GraphStep::FusedChain {
                                            nodes,
                                            count,
                                            chain,
                                        } => {
                                            2u64.hash(&mut h);
                                            for n in nodes {
                                                n.0.hash(&mut h);
                                            }
                                            (*count, chain.total_ma()).hash(&mut h);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            format!("graph-planner-{:016x}", h.finish())
        })
        .clone()
}

/// One attention head chain: the canonical profitable fusion.
fn probe_chain_graph() -> OpGraph {
    let mut g = OpGraph::new();
    let a = g.add_matmul("qk", MatMul::new(256, 32, 256), 4);
    let s = g.add_softmax("sm", 256, 256, 4);
    let b = g.add_matmul("pv", MatMul::new(256, 256, 32), 4);
    g.connect(a, s);
    g.connect(s, b);
    g
}

/// A four-matmul attention-style chain whose depth-3+ fusion is
/// profitable at the ample probe buffer: the probe pinning the
/// depth-weighted path cover.
fn probe_deep_chain_graph() -> OpGraph {
    let mut g = OpGraph::new();
    let a = g.add_matmul("q_proj", MatMul::new(256, 64, 32), 2);
    let b = g.add_matmul("qk", MatMul::new(256, 32, 256), 2);
    let c = g.add_matmul("pv", MatMul::new(256, 256, 32), 2);
    let d = g.add_matmul("out_proj", MatMul::new(256, 32, 64), 2);
    g.connect(a, b);
    g.connect(b, c);
    g.connect(c, d);
    g
}

/// Two shape-compatible producers of one consumer: the fan-in site whose
/// claim the planner must decide by saved traffic, not insertion order.
fn probe_fan_in_graph() -> OpGraph {
    let mut g = OpGraph::new();
    let fat = g.add_matmul("fat", MatMul::new(256, 1024, 256), 1);
    let slim = g.add_matmul("slim", MatMul::new(256, 32, 256), 1);
    let add = g.add_elementwise("residual", 256 * 256, 1);
    let q = g.add_matmul("consumer", MatMul::new(256, 256, 32), 1);
    g.connect(fat, add);
    g.connect(slim, add);
    g.connect(add, q);
    g
}

/// The fingerprint stamped on whole-graph plan cache files: the base
/// format fingerprint extended with [`graph_planner_digest`]. Distinct
/// from [`arch_fingerprint`] because graph plans depend on the planner,
/// not the mapping/cycle model: a mapping change keeps graph plans warm,
/// a planner change cold-starts exactly this file.
pub fn graph_fingerprint() -> String {
    fingerprint_with(&graph_planner_digest())
}

fn encode_graph_entry(key: &GraphKey, value: &Option<GraphPlan>) -> Vec<u64> {
    let (dag, bs, model) = key;
    let mut out = Vec::new();
    out.push(dag.mms().len() as u64);
    for (id, mm, count) in dag.mms() {
        out.push(id.0 as u64);
        encode_mm(*mm, &mut out);
        out.push(*count);
    }
    out.push(dag.links().len() as u64);
    for l in dag.links() {
        out.extend([l.producer as u64, l.consumer as u64]);
    }
    out.push(*bs);
    encode_model(model, &mut out);
    match value {
        None => out.push(0),
        Some(plan) => {
            out.push(1);
            out.push(plan.steps().len() as u64);
            for step in plan.steps() {
                match step {
                    GraphStep::Solo {
                        node,
                        count,
                        dataflow,
                    } => {
                        out.extend([0, node.0 as u64, *count]);
                        encode_dataflow(dataflow, &mut out);
                    }
                    GraphStep::Fused {
                        producer,
                        consumer,
                        count,
                        fused,
                    } => {
                        out.extend([1, producer.0 as u64, consumer.0 as u64, *count]);
                        encode_fused_nest(fused.nest(), &mut out);
                    }
                    GraphStep::FusedChain {
                        nodes,
                        count,
                        chain,
                    } => {
                        out.extend([2, nodes.len() as u64]);
                        out.extend(nodes.iter().map(|n| n.0 as u64));
                        out.push(*count);
                        let nest = chain.nest();
                        out.push(nest.t_m);
                        out.extend(nest.phase_tiles.iter().copied());
                    }
                }
            }
        }
    }
    out
}

fn decode_graph_entry(record: &[u64]) -> Option<(GraphKey, Option<GraphPlan>)> {
    let mut r = RecordReader::new(record);
    let mm_count = r.u64()?;
    let mut mms = Vec::with_capacity(mm_count.min(64) as usize);
    for _ in 0..mm_count {
        let id = NodeId(usize::try_from(r.u64()?).ok()?);
        let mm = decode_mm(&mut r)?;
        mms.push((id, mm, r.u64()?));
    }
    let link_count = r.u64()?;
    let mut links = Vec::with_capacity(link_count.min(64) as usize);
    for _ in 0..link_count {
        links.push(FuseLink {
            producer: usize::try_from(r.u64()?).ok()?,
            consumer: usize::try_from(r.u64()?).ok()?,
        });
    }
    // `from_parts` re-checks every link invariant a hostile record could
    // violate (bad indices, shape or count mismatches, duplicate ids).
    let dag = MmDag::from_parts(mms, links)?;
    let bs = r.u64()?;
    let model = decode_model(&mut r)?;
    let lookup = |id: NodeId| dag.mms().iter().find(|(n, ..)| *n == id).copied();
    let value = if r.bool()? {
        let step_count = r.u64()?;
        let mut steps = Vec::with_capacity(step_count.min(64) as usize);
        let mut covered: Vec<NodeId> = Vec::new();
        for _ in 0..step_count {
            match r.u64()? {
                0 => {
                    let node = NodeId(usize::try_from(r.u64()?).ok()?);
                    let count = r.u64()?;
                    let (_, mm, node_count) = lookup(node)?;
                    let dataflow = decode_dataflow(&model, &mut r)?;
                    if count != node_count || dataflow.mm() != mm || dataflow.buffer_elems() > bs
                    {
                        return None;
                    }
                    covered.push(node);
                    steps.push(GraphStep::Solo {
                        node,
                        count,
                        dataflow,
                    });
                }
                1 => {
                    let producer = NodeId(usize::try_from(r.u64()?).ok()?);
                    let consumer = NodeId(usize::try_from(r.u64()?).ok()?);
                    let count = r.u64()?;
                    let (_, pmm, pcount) = lookup(producer)?;
                    let (_, cmm, _) = lookup(consumer)?;
                    if count != pcount {
                        return None;
                    }
                    let pair = FusedPair::try_new(pmm, cmm).ok()?;
                    let fused = decode_fused(&model, pair, bs, &mut r)?;
                    covered.extend([producer, consumer]);
                    steps.push(GraphStep::Fused {
                        producer,
                        consumer,
                        count,
                        fused,
                    });
                }
                2 => {
                    let n = usize::try_from(r.u64()?).ok()?;
                    if !(3..=64).contains(&n) {
                        return None;
                    }
                    let mut nodes = Vec::with_capacity(n);
                    for _ in 0..n {
                        nodes.push(NodeId(usize::try_from(r.u64()?).ok()?));
                    }
                    let count = r.u64()?;
                    let mut shapes = Vec::with_capacity(n);
                    for &id in &nodes {
                        let (_, mm, node_count) = lookup(id)?;
                        if node_count != count {
                            return None;
                        }
                        shapes.push(mm);
                    }
                    // `try_new` re-checks the shared M and chained edges.
                    let chain = FusedChain::try_new(&shapes).ok()?;
                    let t_m = r.u64()?;
                    let mut tiles = Vec::with_capacity(n);
                    for _ in 0..n {
                        tiles.push(r.u64()?);
                    }
                    if t_m == 0 || tiles.contains(&0) {
                        return None; // ChainNest::new panics on zero tiles
                    }
                    let fused =
                        FusedChainDataflow::score(&model, chain, ChainNest::new(t_m, tiles));
                    if fused.footprint() > bs {
                        return None;
                    }
                    covered.extend(nodes.iter().copied());
                    steps.push(GraphStep::FusedChain {
                        nodes,
                        count,
                        chain: fused,
                    });
                }
                _ => return None,
            }
        }
        // The plan must cover every matmul of the DAG exactly once.
        let mut expected: Vec<NodeId> = dag.mms().iter().map(|(n, ..)| *n).collect();
        expected.sort();
        covered.sort();
        if covered != expected {
            return None;
        }
        Some(GraphPlan::from_steps(steps, bs))
    } else {
        None
    };
    r.finish()?;
    Some(((dag, bs, model), value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_dataflow::persist::{load, save, CacheFile, Section};
    use fusecu_fusion::graph_planner::{graph_cache, graph_cache_preload};
    use fusecu_fusion::{optimize_pair, try_plan_chain};

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    /// The record layout of one fixed entry of each section, token by
    /// token: files written by earlier builds must keep loading.
    #[test]
    fn record_layouts_are_pinned() {
        use fusecu_dataflow::{LoopNest, Tiling};
        use fusecu_ir::MmDim;
        let (a, b, c) = (MatMul::new(8, 16, 8), MatMul::new(8, 8, 16), MatMul::new(8, 16, 4));
        let solo = |mm| {
            MODEL.dataflow(mm, LoopNest::new([MmDim::M, MmDim::L, MmDim::K], Tiling::new(4, 8, 2)))
        };
        let pair = FusedPair::try_new(a, b).unwrap();
        let fused =
            FusedDataflow::score(&MODEL, pair, FusedNest::new(true, FusedTiling::new(4, 8, 8, 2)));

        let op_key = (a, Platform::FuseCu, 128, 4_096, MODEL);
        let ops = vec![OpCandidate::new(Stationary::Os, (4, 8), solo(a), 77)];
        let rec = (OP_CODEC.encode)(&op_key, &ops);
        // key: m k l, platform, pe_dim, buffer, model; candidate count;
        // each: stationary, CU shape, dataflow (m k l, order, tiles), cycles.
        assert_eq!(rec, [8, 16, 8, 4, 128, 4096, 0, 1, 1, 4, 8, 8, 16, 8, 0, 2, 1, 4, 8, 2, 77]);
        assert_eq!((OP_CODEC.decode)(&rec), Some((op_key, ops)));

        let pair_key = (pair, 4_096, MODEL);
        let rec = (PAIR_CODEC.encode)(&pair_key, &Some(fused));
        // key: m k l n, bs, model; tag; nest: outer_is_m, tiles m k l n.
        assert_eq!(rec, [8, 16, 8, 16, 4096, 0, 1, 1, 4, 8, 8, 2]);
        assert_eq!((PAIR_CODEC.decode)(&rec), Some((pair_key, Some(fused))));

        let chain = MmChain::try_new(vec![a, b, c]).unwrap();
        let steps = vec![
            ChainStep::Pair { index: 0, fused },
            ChainStep::Solo { index: 2, dataflow: solo(c) },
        ];
        let plan_key = (chain, 4_096, MODEL);
        let plan = Some(ChainPlan::from_steps(steps, 4_096));
        let rec = (PLAN_CODEC.encode)(&plan_key, &plan);
        // key: chain length, shapes, bs, model; tag; step count; each:
        // kind (1 pair, 0 solo) and its nest or dataflow.
        assert_eq!(
            rec,
            [
                3, 8, 16, 8, 8, 8, 16, 8, 16, 4, 4096, 0, 1, 2, 1, 1, 4, 8, 8, 2, 0, 8, 16, 4, 0, 2,
                1, 4, 8, 2
            ]
        );
        assert_eq!((PLAN_CODEC.decode)(&rec), Some((plan_key, plan)));

        let links = vec![
            FuseLink { producer: 0, consumer: 1 },
            FuseLink { producer: 1, consumer: 2 },
        ];
        let dag =
            MmDag::from_parts(vec![(NodeId(0), a, 2), (NodeId(1), b, 2), (NodeId(3), c, 2)], links)
                .unwrap();
        let steps = vec![
            GraphStep::Fused { producer: NodeId(0), consumer: NodeId(1), count: 2, fused },
            GraphStep::Solo { node: NodeId(3), count: 2, dataflow: solo(c) },
        ];
        let graph_key = (dag, 4_096, MODEL);
        let plan = Some(GraphPlan::from_steps(steps, 4_096));
        let rec = (GRAPH_CODEC.encode)(&graph_key, &plan);
        // key: node count, each (id, m k l, count); link count, each
        // (producer, consumer); bs, model; tag; step count; each: kind,
        // endpoints, count, nest or dataflow.
        assert_eq!(
            rec,
            [
                3, 0, 8, 16, 8, 2, 1, 8, 8, 16, 2, 3, 8, 16, 4, 2, 2, 0, 1, 1, 2, 4096, 0, 1, 2, 1,
                0, 1, 2, 1, 4, 8, 8, 2, 0, 3, 2, 8, 16, 4, 0, 2, 1, 4, 8, 2
            ]
        );
        assert_eq!((GRAPH_CODEC.decode)(&rec), Some((graph_key, plan)));
    }


    #[test]
    fn pair_entry_round_trips() {
        let pair = FusedPair::try_new(MatMul::new(256, 64, 256), MatMul::new(256, 256, 64))
            .unwrap();
        for bs in [2, 40_000] {
            let value = optimize_pair(&MODEL, pair, bs);
            let rec = encode_pair_entry(&(pair, bs, MODEL), &value);
            let (key, back) = decode_pair_entry(&rec).unwrap();
            assert_eq!(key, (pair, bs, MODEL));
            assert_eq!(back, value);
        }
    }

    #[test]
    fn plan_entry_round_trips() {
        let chain = MmChain::try_new(vec![
            MatMul::new(1024, 64, 1024),
            MatMul::new(1024, 1024, 64),
            MatMul::new(1024, 64, 256),
        ])
        .unwrap();
        for bs in [2, 64 * 1024] {
            let value = try_plan_chain(&MODEL, &chain, bs);
            let rec = encode_plan_entry(&(chain.clone(), bs, MODEL), &value);
            let (key, back) = decode_plan_entry(&rec).unwrap();
            assert_eq!(key.0, chain);
            assert_eq!(back, value);
        }
    }

    #[test]
    fn op_entry_round_trips() {
        use crate::intra::op_candidates;
        use crate::spec::ArraySpec;
        let spec = ArraySpec::paper_default();
        let mm = MatMul::new(512, 384, 640);
        for platform in [Platform::Tpuv4i, Platform::FuseCu] {
            let key = (mm, platform, spec.pe_dim, spec.buffer_elems, MODEL);
            let candidates = op_candidates(&spec, platform, &MODEL, mm);
            let rec = encode_op_entry(&key, &candidates);
            let (back_key, back) = decode_op_entry(&rec).unwrap();
            assert_eq!(back_key, key);
            assert_eq!(back, candidates);
        }
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let pair = FusedPair::try_new(MatMul::new(128, 64, 128), MatMul::new(128, 128, 64))
            .unwrap();
        let value = optimize_pair(&MODEL, pair, 40_000);
        let rec = encode_pair_entry(&(pair, 40_000, MODEL), &value);
        // Layout: [m, k, l, n, bs, model, tag, outer_is_m, t_m, t_k, t_l, t_n]
        // Zero tile (FusedTiling::new would panic; decoder must reject).
        let mut bad = rec.clone();
        *bad.last_mut().unwrap() = 0;
        assert!(decode_pair_entry(&bad).is_none());
        // Claimed footprint no longer fits the key's buffer.
        let mut bad = rec.clone();
        bad[4] = 3; // shrink bs below any fused footprint for this pair
        assert!(decode_pair_entry(&bad).is_none());
        // Out-of-range model and tag discriminants.
        let mut bad = rec.clone();
        bad[5] = 7;
        assert!(decode_pair_entry(&bad).is_none());
        let mut bad = rec.clone();
        bad[6] = 2;
        assert!(decode_pair_entry(&bad).is_none());
        // A truncated record underruns the reader.
        assert!(decode_pair_entry(&rec[..rec.len() - 1]).is_none());
    }

    #[test]
    fn graph_entry_round_trips() {
        let dag = probe_fan_in_graph().mm_dag();
        for bs in [2u64, 64 * 1024] {
            let value = try_plan_dag(&MODEL, &dag, bs);
            let rec = encode_graph_entry(&(dag.clone(), bs, MODEL), &value);
            let (key, back) = decode_graph_entry(&rec).unwrap();
            assert_eq!(key, (dag.clone(), bs, MODEL));
            assert_eq!(back, value);
        }
    }

    #[test]
    fn graph_entry_with_chain_step_round_trips() {
        use fusecu_fusion::graph_planner::GraphStep;
        let dag = probe_deep_chain_graph().mm_dag();
        for bs in [2u64, 64 * 1024] {
            let value = try_plan_dag(&MODEL, &dag, bs);
            if bs > 2 {
                let plan = value.as_ref().expect("ample buffer must plan");
                assert!(
                    plan.steps()
                        .iter()
                        .any(|s| matches!(s, GraphStep::FusedChain { .. })),
                    "the deep-chain probe must exercise the k-ary encode path"
                );
            }
            let rec = encode_graph_entry(&(dag.clone(), bs, MODEL), &value);
            let (key, back) = decode_graph_entry(&rec).unwrap();
            assert_eq!(key, (dag.clone(), bs, MODEL));
            assert_eq!(back, value);
        }
        // A zero phase tile inside the chain payload must be rejected.
        let value = try_plan_dag(&MODEL, &dag, 64 * 1024);
        let rec = encode_graph_entry(&(dag.clone(), 64 * 1024, MODEL), &value);
        let mut bad = rec.clone();
        *bad.last_mut().unwrap() = 0;
        assert!(decode_graph_entry(&bad).is_none());
        // A truncated chain record underruns the reader.
        assert!(decode_graph_entry(&rec[..rec.len() - 1]).is_none());
    }

    #[test]
    fn tampered_graph_entries_are_rejected() {
        let dag = probe_fan_in_graph().mm_dag();
        let value = try_plan_dag(&MODEL, &dag, 64 * 1024);
        assert!(value.is_some(), "probe must plan at an ample buffer");
        let rec = encode_graph_entry(&(dag.clone(), 64 * 1024, MODEL), &value);
        // A link pointing past the matmul list.
        let mut bad = rec.clone();
        let link_base = 1 + dag.mms().len() * 5 + 1;
        bad[link_base] = 99;
        assert!(decode_graph_entry(&bad).is_none());
        // A truncated record underruns the reader.
        assert!(decode_graph_entry(&rec[..rec.len() - 1]).is_none());
        // A zero tile inside the fused step payload.
        let mut bad = rec.clone();
        *bad.last_mut().unwrap() = 0;
        assert!(decode_graph_entry(&bad).is_none());
    }

    #[test]
    fn graph_planner_digest_change_forces_a_cold_start() {
        let dir =
            std::env::temp_dir().join(format!("fusecu-graph-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graphs.cache");

        // Warm the graph-plan cache with one real entry and persist it.
        let dag = probe_chain_graph().mm_dag();
        let plan = try_plan_dag(&MODEL, &dag, 64 * 1024);
        graph_cache_preload(vec![((dag, 64 * 1024, MODEL), plan)]);
        let graphs = Section {
            name: "graphs",
            cache: graph_cache(),
            codec: Some(GRAPH_CODEC),
        };
        assert!(save(&path, &graph_fingerprint(), &[&graphs]).unwrap() >= 1);

        // Same digest: the file is readable and carries the entry.
        let file = CacheFile::load_with(&path, &graph_fingerprint()).unwrap();
        assert!(file.records() >= 1);

        // Re-stamp the same body under a *different* planner digest, as a
        // changed link enumeration or matching search would have: the load
        // must cold-start rather than serve stale fusion structure.
        file.save_with(&path, &fingerprint_with("graph-planner-changed"))
            .unwrap();
        assert!(CacheFile::load_with(&path, &graph_fingerprint()).is_none());
        assert_eq!(load(&path, &graph_fingerprint(), &[&graphs]), 0);
        // The stale file is also invisible under the other fingerprints.
        assert!(CacheFile::load(&path).is_none());
        assert!(CacheFile::load_with(&path, &arch_fingerprint()).is_none());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_fingerprint_is_distinct_from_arch_and_base() {
        assert_eq!(graph_planner_digest(), graph_planner_digest());
        let fp = graph_fingerprint();
        assert_ne!(fp, arch_fingerprint());
        assert_ne!(fp, fusecu_dataflow::persist::fingerprint());
        assert!(fp.starts_with(&fusecu_dataflow::persist::fingerprint()));
    }

    #[test]
    fn mapping_digest_is_stable_and_extends_the_fingerprint() {
        // Deterministic within a process (OnceLock) and distinct from the
        // base fingerprint: arch files must not be readable as sweep files.
        assert_eq!(mapping_model_digest(), mapping_model_digest());
        let fp = arch_fingerprint();
        assert_ne!(fp, fusecu_dataflow::persist::fingerprint());
        assert!(fp.starts_with(&fusecu_dataflow::persist::fingerprint()));
    }

    #[test]
    fn mapping_digest_change_forces_a_cold_start() {
        let dir = std::env::temp_dir().join(format!("fusecu-arch-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.cache");

        // Warm the operator cache with one real entry and persist it.
        use crate::intra::{op_cache, op_cache_preload, op_candidates};
        let spec = ArraySpec::paper_default();
        let mm = MatMul::new(320, 96, 448);
        let key = (mm, Platform::Tpuv4i, spec.pe_dim, spec.buffer_elems, MODEL);
        let candidates = op_candidates(&spec, Platform::Tpuv4i, &MODEL, mm);
        op_cache_preload(vec![(key, candidates)]);
        let operators = Section {
            name: "operators",
            cache: op_cache(),
            codec: Some(OP_CODEC),
        };
        assert!(save(&path, &arch_fingerprint(), &[&operators]).unwrap() >= 1);

        // Same digest: the file is readable and carries the entry. (The
        // preload count is 0 here only because the process-wide cache
        // already holds the key we just warmed it with.)
        let file = CacheFile::load_with(&path, &arch_fingerprint()).unwrap();
        assert!(file.records() >= 1);

        // Re-stamp the same body under a *different* mapping digest, as a
        // changed mapping/cycle model would have: the load must cold-start.
        file.save_with(&path, &fingerprint_with("mapping-models-changed"))
            .unwrap();
        assert!(CacheFile::load_with(&path, &arch_fingerprint()).is_none());
        assert_eq!(load(&path, &arch_fingerprint(), &[&operators]), 0);
        // And the stale file is also invisible to the base-fingerprint loader.
        assert!(CacheFile::load(&path).is_none());

        std::fs::remove_dir_all(&dir).ok();
    }
}
