//! Deterministic input generation. Every workload's inputs are a pure
//! function of `--seed`; the program under test only ever sees the
//! generated graphs and request lines.
//!
//! The *content* of each workload is fixed (the 14 Table II graphs, the
//! warm query catalog) and the seed decides order, grouping and request
//! ids. On a two-vCPU VM, p99
//! over one-off random model configs swung 17–22 ms between same-seed
//! runs while a fixed set planned many times held within a few percent;
//! a fixed content set also keeps `ma_vs_ideal` identical across seeds.

use std::collections::HashSet;
use std::fmt::Write as _;

use fusecu::ir::{MatMul, MmDag, OpGraph};
use fusecu::models::zoo;
use fusecu::server::{Request, MAX_GRAPH_LINKS, MAX_GRAPH_NODES};

/// Seed of the fixed query catalogs (never the workload seed).
const CATALOG_SEED: u64 = 0x00F1_7E55_CA7A_106E;

/// SplitMix64: a small, fast, fully specified generator, so the inputs
/// are identical on every machine and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The `plan_cold` graph set: the prefill and branchy graph of each of the
/// seven Table II models, labelled `<model>/<kind>`.
pub fn plan_graphs() -> Vec<(String, OpGraph)> {
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

/// Endless graph order for `plan_cold`: back-to-back seeded permutations,
/// so every graph is planned equally often whatever the run length.
pub struct EpochOrder {
    rng: Rng,
    n: usize,
    epoch: Vec<usize>,
}

impl EpochOrder {
    /// Order over `0..n` for `seed`.
    pub fn new(seed: u64, n: usize) -> EpochOrder {
        EpochOrder {
            rng: Rng::new(seed ^ 0x9A11_C01D),
            n,
            epoch: Vec::new(),
        }
    }
}

impl Iterator for EpochOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.epoch.is_empty() {
            self.epoch = (0..self.n).collect();
            self.rng.shuffle(&mut self.epoch);
        }
        self.epoch.pop()
    }
}

fn plan_graph_body(dag: &MmDag, bs: u64, model: &str) -> Option<String> {
    if dag.mms().len() > MAX_GRAPH_NODES || dag.links().len() > MAX_GRAPH_LINKS {
        return None;
    }
    let mut s = format!("plan-graph {bs} {model} {}", dag.mms().len());
    for (id, mm, count) in dag.mms() {
        let _ = write!(s, " {} {} {} {} {count}", id.0, mm.m(), mm.k(), mm.l());
    }
    let _ = write!(s, " {}", dag.links().len());
    for link in dag.links() {
        let _ = write!(s, " {} {}", link.producer, link.consumer);
    }
    Some(s)
}

fn plan_chain_body(mms: &[MatMul], bs: u64, model: &str) -> String {
    let mut s = format!("plan-chain {bs} {model} {}", mms.len());
    for mm in mms {
        let _ = write!(s, " {} {} {}", mm.m(), mm.k(), mm.l());
    }
    s
}

fn optimize_op_body(mm: MatMul, bs: u64, model: &str) -> String {
    format!("optimize-op {} {} {} {bs} {model}", mm.m(), mm.k(), mm.l())
}

/// A small shape the exhaustive oracle prices in a few milliseconds.
fn small_op_body(rng: &mut Rng) -> String {
    let mm = MatMul::new(rng.range(8, 64), rng.range(8, 64), rng.range(8, 64));
    let bs = [64, 256, 1024][rng.below(3) as usize];
    let model = ["paper", "rw"][rng.below(2) as usize];
    optimize_op_body(mm, bs, model)
}

/// Whether a request body is a small-shape `optimize-op` the oracle check
/// may sample.
pub fn is_small_op(body: &str) -> bool {
    matches!(
        Request::parse(body),
        Ok(Request::OptimizeOp { mm, .. }) if mm.m().max(mm.k()).max(mm.l()) <= 64
    )
}

/// The fixed `serve_warm` catalog: all four verbs over the zoo graphs,
/// their chains and operators at two buffer sizes and both cost models,
/// plus fixed random shapes (scores, off-grid operators, 2-op chains and
/// small operators for the oracle check). Deduplicated, in a fixed order.
pub fn warm_catalog() -> Vec<String> {
    let buffers = [1u64 << 19, 1u64 << 22];
    let models = ["paper", "rw"];
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut push = |body: String| {
        if seen.insert(body.clone()) {
            out.push(body);
        }
    };
    for config in zoo::all() {
        for graph in [config.build_graph(), config.build_branchy_graph()] {
            let dag = graph.mm_dag();
            for bs in buffers {
                for model in models {
                    if let Some(body) = plan_graph_body(&dag, bs, model) {
                        push(body);
                    }
                }
            }
            for (_, chain, _) in graph.mm_chains() {
                if chain.mms().len() >= 2 {
                    for bs in buffers {
                        push(plan_chain_body(chain.mms(), bs, "rw"));
                    }
                }
            }
            for (_, mm, _) in dag.mms() {
                for bs in buffers {
                    for model in models {
                        push(optimize_op_body(*mm, bs, model));
                    }
                }
            }
        }
    }
    let mut rng = Rng::new(CATALOG_SEED);
    let orders = ["mkl", "mlk", "kml", "klm", "lmk", "lkm"];
    for _ in 0..40 {
        push(small_op_body(&mut rng));
        let (m, k, l) = (rng.range(1, 512), rng.range(1, 512), rng.range(1, 512));
        let order = orders[rng.below(6) as usize];
        let (tm, tk, tl) = (rng.range(1, m), rng.range(1, k), rng.range(1, l));
        push(format!("score {m} {k} {l} {order} {tm} {tk} {tl} rw"));
        let bs = buffers[rng.below(2) as usize];
        push(optimize_op_body(MatMul::new(m, k, l), bs, "paper"));
        push(plan_chain_body(
            &[MatMul::new(m, k, l), MatMul::new(m, l, k)],
            bs,
            "paper",
        ));
    }
    out
}

/// Endless `serve_warm` request stream: back-to-back seeded permutations
/// of the catalog, drawn a round at a time.
pub struct WarmStream {
    order: EpochOrder,
    seq: u64,
}

impl WarmStream {
    /// The stream of `catalog.len()`-sized epochs for `seed`.
    pub fn new(seed: u64, catalog_len: usize) -> WarmStream {
        WarmStream {
            order: EpochOrder::new(seed ^ 0x3A23, catalog_len),
            seq: 0,
        }
    }

    /// The next `n` request lines over distinct catalog queries, with
    /// their catalog indices. A query drawn twice (only possible where a
    /// round spans two epochs) is skipped the second time.
    pub fn next_round(&mut self, catalog: &[String], n: usize) -> (Vec<String>, Vec<usize>) {
        let (mut lines, mut indices) = (Vec::with_capacity(n), Vec::with_capacity(n));
        while indices.len() < n {
            let i = self.order.next().expect("epoch order is endless");
            if !indices.contains(&i) {
                self.seq += 1;
                lines.push(format!("w{} {}", self.seq, catalog[i]));
                indices.push(i);
            }
        }
        (lines, indices)
    }
}

/// The unfused lower bound `|A|+|B|+|C|` (instance counts applied) of the
/// matmuls a planning query covers; `None` for verbs that return no plan.
pub fn ideal_ma(body: &str) -> Option<u64> {
    match Request::parse(body).ok()? {
        Request::OptimizeOp { mm, .. } => Some(mm.ideal_ma()),
        Request::PlanChain { chain, .. } => Some(chain.mms().iter().map(MatMul::ideal_ma).sum()),
        Request::PlanGraph { dag, .. } => Some(
            dag.mms()
                .iter()
                .map(|(_, mm, count)| mm.ideal_ma() * count)
                .sum(),
        ),
        Request::Score { .. } | Request::Ping => None,
    }
}

/// The memory access a reply reports (`<id> ok ma <n> ...`).
pub fn reply_ma(reply: &str) -> Option<u64> {
    let mut toks = reply.split_whitespace().skip(1);
    (toks.next()? == "ok" && toks.next()? == "ma").then_some(())?;
    toks.next()?.parse().ok()
}

/// The request body of a line (everything after the id).
pub fn body_of(line: &str) -> &str {
    line.split_once(' ').map_or("", |(_, body)| body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_cover_every_index() {
        let mut order = EpochOrder::new(3, 14);
        let mut first: Vec<usize> = (0..14).map(|_| order.next().unwrap()).collect();
        first.sort_unstable();
        assert_eq!(first, (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn every_catalog_body_parses() {
        for body in warm_catalog() {
            assert!(Request::parse(&body).is_ok(), "{body}");
        }
    }
}
