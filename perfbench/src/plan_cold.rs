//! `plan_cold`: one operation is one Fig 10 row — `try_evaluate_graph` on
//! all five platforms at `ArraySpec::paper_default()` — with every memo
//! cache cleared first, so it is the cost of planning a model from
//! scratch. It runs in-process and bypasses the daemon, persistence and
//! cache hits.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use fusecu::arch::eval::StepPerf;
use fusecu::arch::{
    op_cache_preload, op_candidates, try_evaluate_graph, ArraySpec, GraphPerf, Platform,
};
use fusecu::dataflow::principles::try_optimize_with;
use fusecu::dataflow::CostModel;
use fusecu::fusion::chain::{optimize_chain, FusedChain};
use fusecu::fusion::graph_planner::{
    graph_cache_preload, try_plan_dag_with, GraphStep, PlannerConfig,
};
use fusecu::fusion::optimizer::try_decide;
use fusecu::fusion::pair::FusedPair;
use fusecu::ir::{MatMul, OpGraph};
use fusecu::search::{DataflowCache, SectionCounters};

use crate::gen::{plan_graphs, EpochOrder};
use crate::report::{phase_metrics, Report, Round, Sample, Starts};
use crate::trace::Tracer;
use crate::{Ctx, TraceOut};

/// The cost model of the Fig 10 evaluation.
fn model() -> CostModel {
    fusecu::pipeline::evaluation_model()
}

/// Clears every process-wide memo cache, entries and counters.
pub fn clear_caches() {
    DataflowCache::global().clear();
    fusecu::arch::op_cache_clear();
    fusecu::fusion::optimizer::pair_cache_clear();
    fusecu::fusion::planner::plan_cache_clear();
    fusecu::fusion::chain::chain_cache_clear();
    fusecu::fusion::graph_planner::graph_cache_clear();
}

/// Counters of the six memo caches the planner and the daemon use, in the
/// order of the `cache.*` metrics.
pub fn cache_sections() -> [SectionCounters; 6] {
    [
        DataflowCache::global().sections()[0],
        fusecu::arch::op_cache_counters(),
        fusecu::fusion::optimizer::pair_cache_counters(),
        fusecu::fusion::planner::plan_cache_counters(),
        fusecu::fusion::chain::chain_cache_counters(),
        fusecu::fusion::graph_planner::graph_cache_counters(),
    ]
}

/// The `cache.*` hit-rate metrics, by index into [`cache_sections`]. The
/// chain cache has none: no workload hits it (a cold row prices each
/// chain once, and `plan-chain` answers from the plan cache).
pub const HIT_RATES: [(usize, &str); 5] = [
    (0, "cache.principle.hit_rate"),
    (1, "cache.operators.hit_rate"),
    (2, "cache.pairs.hit_rate"),
    (3, "cache.plans.hit_rate"),
    (5, "cache.graphs.hit_rate"),
];

/// One Fig 10 row, platforms in `Platform::ALL` order.
fn row(spec: &ArraySpec, graph: &OpGraph) -> Option<Vec<GraphPerf>> {
    Platform::ALL
        .iter()
        .map(|&p| try_evaluate_graph(spec, p, &model(), graph))
        .collect()
}

/// Digest of everything a row reports, step by step.
fn digest(perfs: &[GraphPerf]) -> u64 {
    let mut h = DefaultHasher::new();
    for perf in perfs {
        perf.platform().hash(&mut h);
        for step in perf.steps() {
            (step.total_ma(), step.cycles(), step.macs()).hash(&mut h);
        }
    }
    h.finish()
}

/// The `(shape, count)` multiset a graph's matmuls form.
fn matmul_multiset(graph: &OpGraph) -> Vec<(u64, u64, u64, u64)> {
    let mut out: Vec<_> = graph
        .matmuls()
        .map(|(_, mm, count)| (mm.m(), mm.k(), mm.l(), count))
        .collect();
    out.sort_unstable();
    out
}

/// The `(shape, count)` multiset a platform's steps cover.
fn covered_multiset(perf: &GraphPerf) -> Vec<(u64, u64, u64, u64)> {
    let key = |mm: MatMul, count| (mm.m(), mm.k(), mm.l(), count);
    let mut out = Vec::new();
    for step in perf.steps() {
        match step {
            StepPerf::Solo(p) => out.push(key(p.mm(), p.count())),
            StepPerf::Fused(p) => {
                let pair = p.fused().pair();
                out.push(key(pair.producer(), p.count()));
                out.push(key(pair.consumer(), p.count()));
            }
            StepPerf::FusedChain(p) => {
                let chain = p.chain().chain();
                out.extend((0..chain.depth()).map(|i| key(chain.mm(i), p.count())));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Invariants every correct row keeps: each matmul covered exactly once
/// on every platform, and FuseCU MA ≤ UnfCU MA ≤ TPUv4i MA.
fn row_invariants(graph: &OpGraph, perfs: &[GraphPerf]) -> Result<(), String> {
    let want = matmul_multiset(graph);
    for perf in perfs {
        if covered_multiset(perf) != want {
            return Err(format!(
                "{} does not cover every matmul exactly once",
                perf.platform()
            ));
        }
    }
    let ma =
        |p: Platform| perfs[Platform::ALL.iter().position(|&q| q == p).expect("listed")].total_ma();
    let (fuse, unf, tpu) = (
        ma(Platform::FuseCu),
        ma(Platform::UnfCu),
        ma(Platform::Tpuv4i),
    );
    if !(fuse <= unf && unf <= tpu) {
        return Err(format!(
            "MA order broken: FuseCU {fuse}, UnfCU {unf}, TPUv4i {tpu}"
        ));
    }
    Ok(())
}

/// The graphs with their reference row digests, checked once untimed.
struct Inputs {
    graphs: Vec<(String, OpGraph)>,
    digests: Vec<u64>,
    ma_vs_ideal: f64,
}

fn inputs(report: &mut Report, spec: &ArraySpec) -> Inputs {
    let graphs = plan_graphs();
    let mut digests = Vec::new();
    let (mut ma, mut ideal) = (0u64, 0u64);
    for (label, graph) in &graphs {
        clear_caches();
        let Some(perfs) = row(spec, graph) else {
            report.fail(format!("{label}: no row at the paper's buffer"));
            digests.push(0);
            continue;
        };
        let invariants = row_invariants(graph, &perfs);
        report.check(invariants.is_ok(), || {
            format!("{label}: {}", invariants.clone().unwrap_err())
        });
        digests.push(digest(&perfs));
        ma += perfs[Platform::ALL.len() - 1].total_ma();
        ideal += graph
            .matmuls()
            .map(|(_, mm, count)| mm.ideal_ma() * count)
            .sum::<u64>();
    }
    Inputs {
        graphs,
        digests,
        ma_vs_ideal: ma as f64 / ideal as f64,
    }
}

/// Runs cold rows for `seconds`, checking each, with fresh set-up probes
/// spread over the phase; returns the latencies and the starts.
fn untraced_phase(
    ctx: &Ctx,
    report: &mut Report,
    spec: &ArraySpec,
    inputs: &Inputs,
    order: &mut EpochOrder,
) -> (Vec<Sample>, Starts) {
    let mut latencies = Vec::new();
    let mut starts = Starts::default();
    let want = probe_answer(&inputs.graphs, inputs.digests[0]);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        starts.at(start.elapsed().as_secs_f64(), || {
            let run = ctx.probe(report, &["--probe-setup"])?;
            report.check(run.out.trim_end() == want, || {
                format!("set-up probe printed {:?}, want {want:?}", run.out)
            });
            Some(run.first_line_s)
        });
        let i = order.next().expect("epoch order is endless");
        let (label, graph) = &inputs.graphs[i];
        clear_caches();
        let t0 = Instant::now();
        let perfs = row(spec, graph);
        latencies.push((t0.elapsed(), i as u32));
        report.check(
            perfs.as_deref().map(digest) == Some(inputs.digests[i]),
            || format!("{label}: row differs from its reference"),
        );
    }
    (latencies, starts)
}

/// Lookups and entries summed over operations.
#[derive(Debug, Default)]
pub struct CacheTally {
    hits: [u64; 6],
    misses: [u64; 6],
    entries: u64,
    samples: u64,
}

impl CacheTally {
    /// Adds one snapshot of [`cache_sections`].
    pub fn add(&mut self, sections: &[SectionCounters; 6]) {
        for (i, s) in sections.iter().enumerate() {
            self.hits[i] += s.stats.hits;
            self.misses[i] += s.stats.misses;
            self.entries += s.entries as u64;
        }
        self.samples += 1;
    }

    /// Records the `cache.*` metrics: hit rate per section of
    /// [`HIT_RATES`] (0 when the section saw no lookup) and mean entries
    /// per snapshot.
    pub fn record(&self, report: &mut Report) {
        for (i, name) in HIT_RATES {
            let lookups = self.hits[i] + self.misses[i];
            let rate = if lookups == 0 {
                0.0
            } else {
                self.hits[i] as f64 / lookups as f64
            };
            report.metric(name, rate, "ratio");
        }
        report.metric(
            "cache.entries",
            self.entries as f64 / self.samples.max(1) as f64,
            "count",
        );
    }
}

/// What the fresh set-up probe prints: its inputs, and the digest of its
/// first answer.
fn probe_answer(graphs: &[(String, OpGraph)], first_row: u64) -> String {
    let shapes: Vec<_> = graphs.iter().map(|(_, g)| matmul_multiset(g)).collect();
    format!(
        "ready {} {:016x} {first_row:016x}",
        graphs.len(),
        crate::proc::fnv64(format!("{shapes:?}").as_bytes())
    )
}

/// The fresh-process set-up probe: builds the workload's inputs and gives
/// its first answer, the row of the first graph (the same graph for every
/// seed), and reports both.
pub fn probe_setup() {
    let graphs = plan_graphs();
    let first_row = row(&ArraySpec::paper_default(), &graphs[0].1).map_or(0, |p| digest(&p));
    println!("{}", probe_answer(&graphs, first_row));
}

/// Untraced run: the end-to-end metrics.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let spec = ArraySpec::paper_default();
    let inputs = inputs(report, &spec);
    let mut order = EpochOrder::new(ctx.seed, inputs.graphs.len());
    let (latencies, starts) = untraced_phase(ctx, report, &spec, &inputs, &mut order);
    // A row is a round of its own.
    let rounds: Vec<Round> = latencies
        .iter()
        .map(|&(took, graph)| (1, took, graph))
        .collect();
    phase_metrics(report, &latencies, &rounds, &starts);
    let rss = crate::proc::peak_rss_mib("/proc/self/status").unwrap_or(f64::NAN);
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("ma_vs_ideal", inputs.ma_vs_ideal, "ratio");
}

/// The stages that make up a row, as the traced row calls them.
const ROW_STAGES: [&str; 5] = [
    "ir.mm_dag",
    "fusion.plan",
    "arch.op_candidates",
    "arch.eval_fusecu",
    "arch.eval_baselines",
];
/// Accepted range of the row stages' summed time over the untraced row
/// time, %: the stages must account for a row's work within 5 %.
const STAGE_SUM_PCT: std::ops::RangeInclusive<f64> = 95.0..=105.0;

/// Traced run. Each operation plans one graph three times on cleared
/// caches: as an untraced row, as the same row with its stages called
/// one by one in spans (the two in alternating order, for the tracing
/// overhead and the stage sum), and through the planner's own stages, for
/// the split of planning time.
pub fn run_traced(ctx: &Ctx, report: &mut Report) -> TraceOut {
    let spec = ArraySpec::paper_default();
    let inputs = inputs(report, &spec);
    let mut order = EpochOrder::new(ctx.seed, inputs.graphs.len());
    let mut tracer = Tracer::new();
    let mut counts = StageCounts::default();
    let mut tally = CacheTally::default();
    let (mut ops, mut untraced_ns, mut traced_ns) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let i = order.next().expect("epoch order is endless");
        let (label, graph) = &inputs.graphs[i];
        for traced in [ops % 2 == 0, ops % 2 == 1] {
            clear_caches();
            let perfs = if traced {
                let (perfs, ns) = traced_row(&mut tracer, ops, &spec, graph);
                traced_ns += ns;
                perfs
            } else {
                let t0 = Instant::now();
                let perfs = row(&spec, graph);
                untraced_ns += t0.elapsed().as_nanos() as u64;
                tally.add(&cache_sections());
                perfs
            };
            report.check(
                perfs.as_deref().map(digest) == Some(inputs.digests[i]),
                || format!("{label}: row (traced: {traced}) differs from its reference"),
            );
        }
        clear_caches();
        planner_stages(&mut tracer, &mut counts, ops, &spec, graph);
        ops += 1;
    }

    let totals = tracer.totals();
    let per_op = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / ops.max(1) as f64)
    };
    let plan_us = per_op("fusion.plan");
    let cover_us = plan_us
        - [
            "fusion.pair_price",
            "fusion.chain_price",
            "dataflow.principle",
            "ir.simple_paths",
        ]
        .iter()
        .map(|s| per_op(s))
        .sum::<f64>();
    let stages = vec![
        ("ir.mm_dag_us", per_op("ir.mm_dag")),
        ("ir.simple_paths_us", per_op("ir.simple_paths")),
        ("dataflow.principle_us", per_op("dataflow.principle")),
        ("fusion.pair_price_us", per_op("fusion.pair_price")),
        ("fusion.chain_price_us", per_op("fusion.chain_price")),
        ("fusion.cover_self_us", cover_us),
        ("arch.op_candidates_us", per_op("arch.op_candidates")),
        ("arch.eval_fusecu_us", per_op("arch.eval_fusecu")),
        ("arch.eval_baselines_us", per_op("arch.eval_baselines")),
    ];
    for &(name, us) in &stages {
        report.metric(name, us, "us");
    }
    report.metric("fusion.plan_us", plan_us, "us");
    let per_row = |n: u64| n as f64 / ops.max(1) as f64;
    report.metric(
        "fusion.profitable_ratio",
        counts.profitable as f64 / counts.priced.max(1) as f64,
        "ratio",
    );
    report.metric(
        "dataflow.principle_calls",
        per_row(counts.principle),
        "count",
    );
    report.metric("ir.paths", per_row(counts.paths), "count");
    tally.record(report);

    let untraced_us = untraced_ns as f64 / 1e3 / ops.max(1) as f64;
    let stage_sum_pct = 100.0 * ROW_STAGES.iter().map(|s| per_op(s)).sum::<f64>() / untraced_us;
    report.metric("trace.stage_sum_pct", stage_sum_pct, "%");
    report.check(STAGE_SUM_PCT.contains(&stage_sum_pct), || {
        format!("a row's stages sum to {stage_sum_pct:.1}% of the untraced row time, outside {STAGE_SUM_PCT:?}")
    });
    let rows_per_s = |ns: u64| ops as f64 / (ns.max(1) as f64 / 1e9);
    report.metric("trace.untraced_ops_per_s", rows_per_s(untraced_ns), "ops/s");
    report.metric("trace.traced_ops_per_s", rows_per_s(traced_ns), "ops/s");
    TraceOut {
        tracer,
        stages,
        op_base_us: untraced_us,
    }
}

/// Work counts of the planner's stages.
#[derive(Debug, Default)]
struct StageCounts {
    principle: u64,
    paths: u64,
    priced: u64,
    profitable: u64,
}

/// One row with its stages called from outside, each in its own span
/// under an `op` span: the DAG, the planner, then the arch layer, with the
/// plan and the operator candidates preloaded so that each evaluation
/// span holds only its own work. Returns the row and the `op` span's
/// duration, ns.
fn traced_row(
    tracer: &mut Tracer,
    op: u64,
    spec: &ArraySpec,
    graph: &OpGraph,
) -> (Option<Vec<GraphPerf>>, u64) {
    let model = model();
    let bs = spec.buffer_elems;
    let root = tracer.begin("op", op);
    let dag = tracer.time("ir.mm_dag", op, || graph.mm_dag());
    let plan = tracer.time("fusion.plan", op, || {
        try_plan_dag_with(&PlannerConfig::default(), &model, &dag, bs)
    });
    tracer.time("bench.preload", op, || {
        graph_cache_preload([((dag, bs, model), plan.clone())])
    });
    tracer.time("arch.op_candidates", op, || {
        for platform in Platform::ALL {
            let mut mms: Vec<MatMul> = match (&plan, platform.supports_fusion()) {
                (Some(plan), true) => plan
                    .steps()
                    .iter()
                    .filter_map(|s| match s {
                        GraphStep::Solo { node, .. } => graph.node(*node).kind.as_matmul(),
                        _ => None,
                    })
                    .collect(),
                _ => graph.matmuls().map(|(_, mm, _)| mm).collect(),
            };
            mms.sort_unstable_by_key(|mm| (mm.m(), mm.k(), mm.l()));
            mms.dedup();
            op_cache_preload(mms.into_iter().map(|mm| {
                (
                    (mm, platform, spec.pe_dim, spec.buffer_elems, model),
                    op_candidates(spec, platform, &model, mm),
                )
            }));
        }
    });
    let fuse = tracer.time("arch.eval_fusecu", op, || {
        try_evaluate_graph(spec, Platform::FuseCu, &model, graph)
    });
    let baselines: Option<Vec<GraphPerf>> = tracer.time("arch.eval_baselines", op, || {
        Platform::ALL[..Platform::ALL.len() - 1]
            .iter()
            .map(|&p| try_evaluate_graph(spec, p, &model, graph))
            .collect()
    });
    let ns = tracer.end(root);
    let perfs = baselines.zip(fuse).map(|(mut perfs, fuse)| {
        perfs.push(fuse);
        perfs
    });
    (perfs, ns)
}

/// The planner's stages, called from outside under a `stages` span: path
/// enumeration, solo principle optima, and the pricing of every candidate
/// path (pair oracle or chain oracle). Cover search is what the planner's
/// time in the traced row exceeds these by.
fn planner_stages(
    tracer: &mut Tracer,
    counts: &mut StageCounts,
    op: u64,
    spec: &ArraySpec,
    graph: &OpGraph,
) {
    let model = model();
    let bs = spec.buffer_elems;
    let dag = graph.mm_dag();
    let root = tracer.begin("stages", op);
    let paths = tracer.time("ir.simple_paths", op, || {
        dag.simple_paths(PlannerConfig::default().max_fusion_depth.max(2))
    });
    counts.paths += paths.len() as u64;
    let mut solo = Vec::new();
    for (_, mm, _) in dag.mms() {
        counts.principle += 1;
        solo.push(tracer.time("dataflow.principle", op, || {
            try_optimize_with(&model, *mm, bs)
        }));
    }
    for path in &paths {
        let shapes: Vec<MatMul> = path.iter().map(|&i| dag.mms()[i].1).collect();
        let solo_ma: u64 = path
            .iter()
            .filter_map(|&i| solo[i].map(|d| d.total_ma()))
            .sum();
        let profitable = if let [producer, consumer] = shapes[..] {
            let Ok(pair) = FusedPair::try_new(producer, consumer) else {
                continue;
            };
            let decision = tracer.time("fusion.pair_price", op, || try_decide(&model, pair, bs));
            decision.is_some_and(|d| d.profitable())
        } else {
            let Ok(chain) = FusedChain::try_new(&shapes) else {
                continue;
            };
            let fused = tracer.time("fusion.chain_price", op, || {
                optimize_chain(&model, &chain, bs)
            });
            fused.is_some_and(|f| f.total_ma() < solo_ma)
        };
        counts.priced += 1;
        counts.profitable += u64::from(profitable);
    }
    tracer.end(root);
}
