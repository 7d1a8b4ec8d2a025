//! Serve-mode stress harness: QPS and tail latency of the `fusecu-serve`
//! request path, cold versus warm, with the byte-identity self-checks the
//! daemon's contract promises.
//!
//! Writes `BENCH_serve.json` (repo root by default, `--out <path>` to
//! override) from one process on one machine:
//!
//! * `cold` — the per-process baseline: every memo cache evicted before
//!   each sampled query, answered directly (no daemon), the cost a fresh
//!   CLI invocation pays per query;
//! * `pass1` — the same full mix replayed once through the batching
//!   front-end against cold caches (caching and in-batch dedup active);
//! * `warm` — the mix replayed again at 1/2/4/8 client threads with a
//!   pipeline depth of 32 per client, per-request latencies recorded and
//!   reduced to p50/p99/p999.
//!
//! The mix is duplicate-heavy on purpose — zoo-derived graph/chain/op
//! queries plus seeded-LCG random shapes, each appearing in adjacent
//! bursts and across repetitions — the service workload where batching
//! and deduplication earn their keep.
//!
//! Self-checked gates (asserted here, re-checked from the JSON by CI):
//! every warm response byte-identical to the serial pass-1 response and
//! to a direct non-daemon evaluation; second-pass cache hit rate >= 90%;
//! batch dedup factor > 1; warm QPS >= 10x the cold-per-process baseline.
//! `--quick` shrinks the mix for CI.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use fusecu::server::{spawn_frontend, BatchConfig, Server, Submission};
use fusecu_search::{CacheStats, DataflowCache, Parallelism};

/// Pipelined requests kept in flight per client thread.
const DEPTH: usize = 32;

/// A client's pipelined requests awaiting replies: send time, the
/// reply channel, and the line's index in the mix.
type Inflight = VecDeque<(Instant, Receiver<String>, usize)>;

/// What each client thread brings home: its request latencies, its
/// mismatch count, and its (line index, response) pairs.
type ClientTally = (Vec<u64>, usize, Vec<(usize, String)>);

/// Aggregate hit/miss counters over every process-wide memo cache.
fn all_cache_stats() -> CacheStats {
    DataflowCache::global()
        .stats()
        .plus(fusecu_arch::op_cache_stats())
        .plus(fusecu_fusion::optimizer::pair_cache_stats())
        .plus(fusecu_fusion::planner::plan_cache_stats())
        .plus(fusecu_fusion::chain::chain_cache_stats())
        .plus(fusecu_fusion::graph_planner::graph_cache_stats())
}

/// Drops every entry from every process-wide memo cache (counters kept):
/// the state a fresh process starts from.
fn evict_all_caches() {
    DataflowCache::global().evict_all();
    fusecu_arch::op_cache_evict_all();
    fusecu_fusion::optimizer::pair_cache_evict_all();
    fusecu_fusion::planner::plan_cache_evict_all();
    fusecu_fusion::chain::chain_cache_evict_all();
    fusecu_fusion::graph_planner::graph_cache_evict_all();
}

/// Deterministic LCG step (no external RNG; the mix must be identical
/// across runs and machines).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn pick(state: &mut u64, n: u64) -> u64 {
    lcg(state) % n
}

/// The distinct request bodies of the stress mix: zoo-derived graph,
/// chain, and operator queries plus seeded random shapes.
fn unique_queries(quick: bool) -> Vec<String> {
    let buffers = [1u64 << 19, 1u64 << 22];
    let models = ["paper", "rw"];
    let mut q: Vec<String> = Vec::new();

    let zoo = fusecu_models::zoo::all();
    let zoo_take = if quick { 2 } else { 4 };
    for config in zoo.iter().take(zoo_take) {
        let graph = config.build_graph();
        let dag = graph.mm_dag();
        for &bs in &buffers {
            for &model in &models {
                if dag.mms().len() <= fusecu::server::MAX_GRAPH_NODES
                    && dag.links().len() <= fusecu::server::MAX_GRAPH_LINKS
                {
                    let mut s = format!("plan-graph {bs} {model} {}", dag.mms().len());
                    for (id, mm, count) in dag.mms() {
                        let _ = write!(s, " {} {} {} {} {count}", id.0, mm.m(), mm.k(), mm.l());
                    }
                    let _ = write!(s, " {}", dag.links().len());
                    for link in dag.links() {
                        let _ = write!(s, " {} {}", link.producer, link.consumer);
                    }
                    q.push(s);
                }
            }
        }
        for (_, chain, _) in graph.mm_chains() {
            if chain.mms().len() < 2 || chain.mms().len() > fusecu::server::MAX_CHAIN_OPS {
                continue;
            }
            for &bs in &buffers {
                let mut s = format!("plan-chain {bs} rw {}", chain.mms().len());
                for mm in chain.mms() {
                    let _ = write!(s, " {} {} {}", mm.m(), mm.k(), mm.l());
                }
                q.push(s);
            }
        }
        for (_, mm, _) in dag.mms() {
            for &bs in &buffers {
                for &model in &models {
                    q.push(format!(
                        "optimize-op {} {} {} {bs} {model}",
                        mm.m(),
                        mm.k(),
                        mm.l()
                    ));
                }
            }
        }
    }

    // Seeded random small shapes: scores (pure evaluation) and operator
    // optimizations off the zoo grid.
    let mut state = 0x00F1_7E55_5EED_u64;
    let orders = ["mkl", "mlk", "kml", "klm", "lmk", "lkm"];
    let random = if quick { 24 } else { 96 };
    for _ in 0..random {
        let m = 1 + pick(&mut state, 512);
        let k = 1 + pick(&mut state, 512);
        let l = 1 + pick(&mut state, 512);
        match pick(&mut state, 3) {
            0 => {
                let order = orders[pick(&mut state, 6) as usize];
                let tm = 1 + pick(&mut state, m);
                let tk = 1 + pick(&mut state, k);
                let tl = 1 + pick(&mut state, l);
                q.push(format!("score {m} {k} {l} {order} {tm} {tk} {tl} rw"));
            }
            1 => q.push(format!(
                "optimize-op {m} {k} {l} {} paper",
                buffers[pick(&mut state, 2) as usize]
            )),
            _ => q.push(format!(
                "plan-chain {} paper 2 {m} {k} {l} {m} {l} {k}",
                buffers[pick(&mut state, 2) as usize]
            )),
        }
    }
    q
}

/// One pass of the mix: every unique query in adjacent bursts (in-flight
/// duplicates for the deduper), repeated to the target length, ids = the
/// global line index.
fn build_mix(uniques: &[String], quick: bool) -> Vec<String> {
    let (burst, reps) = if quick { (2, 8) } else { (2, 40) };
    let mut lines = Vec::with_capacity(uniques.len() * burst * reps);
    let mut id = 0usize;
    for rep in 0..reps {
        // Vary the traversal start per repetition so batches mix shapes.
        let offset = (rep * 7) % uniques.len();
        for i in 0..uniques.len() {
            let body = &uniques[(offset + i) % uniques.len()];
            for _ in 0..burst {
                lines.push(format!("{id} {body}"));
                id += 1;
            }
        }
    }
    lines
}

/// Result of one daemon replay.
struct RunResult {
    seconds: f64,
    latencies_us: Vec<u64>,
    mismatches: usize,
    responses: Vec<String>,
}

/// Replays `lines` through the batching front-end with `clients` threads,
/// `DEPTH`-deep pipelining each, recording per-request latency. When
/// `expected` is given, every response is compared byte-for-byte against
/// `expected[global line index]`. Responses are returned indexed by line.
fn replay(sink: &Sender<Submission>, lines: &[String], clients: usize, expected: Option<&[String]>) -> RunResult {
    let chunk = lines.len().div_ceil(clients);
    let t0 = Instant::now();
    let per_client: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let slice_start = (c * chunk).min(lines.len());
                let slice_end = ((c + 1) * chunk).min(lines.len());
                let slice = &lines[slice_start..slice_end];
                let sink = sink.clone();
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(slice.len());
                    let mut mismatches = 0usize;
                    let mut responses: Vec<(usize, String)> = Vec::with_capacity(slice.len());
                    let mut inflight: Inflight = VecDeque::with_capacity(DEPTH);
                    let mut drain = |inflight: &mut Inflight| {
                        let (sent, rx, idx) = inflight.pop_front().expect("inflight");
                        let resp = rx.recv().expect("response");
                        latencies.push(sent.elapsed().as_micros() as u64);
                        if let Some(want) = expected {
                            if want[idx] != resp {
                                mismatches += 1;
                            }
                        }
                        responses.push((idx, resp));
                    };
                    for (i, line) in slice.iter().enumerate() {
                        if inflight.len() == DEPTH {
                            drain(&mut inflight);
                        }
                        let (tx, rx) = channel();
                        let sent = Instant::now();
                        sink.send(Submission {
                            line: line.clone(),
                            reply: tx,
                        })
                        .expect("daemon alive");
                        inflight.push_back((sent, rx, slice_start + i));
                    }
                    while !inflight.is_empty() {
                        drain(&mut inflight);
                    }
                    (latencies, mismatches, responses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let seconds = t0.elapsed().as_secs_f64();

    let mut latencies_us = Vec::with_capacity(lines.len());
    let mut mismatches = 0;
    let mut responses = vec![String::new(); lines.len()];
    for (lat, mm, resp) in per_client {
        latencies_us.extend(lat);
        mismatches += mm;
        for (idx, r) in resp {
            responses[idx] = r;
        }
    }
    latencies_us.sort_unstable();
    RunResult {
        seconds,
        latencies_us,
        mismatches,
        responses,
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    let uniques = unique_queries(quick);
    let mix = build_mix(&uniques, quick);
    eprintln!(
        "[mix] {} unique queries, {} lines per pass",
        uniques.len(),
        mix.len()
    );

    // --- Phase A: cold-per-process baseline. Every cache evicted before
    // each sampled query; answered directly, no daemon. This is the cost
    // a one-query CLI process pays, sampled across the mix.
    let cold_server = Server::new(Parallelism::Serial);
    let cold_samples = if quick { 40 } else { 120 };
    let stride = (mix.len() / cold_samples).max(1);
    let sampled: Vec<&String> = mix.iter().step_by(stride).take(cold_samples).collect();
    let t0 = Instant::now();
    let cold_responses: Vec<(usize, String)> = sampled
        .iter()
        .enumerate()
        .map(|(i, line)| {
            evict_all_caches();
            (i * stride, cold_server.answer_line(line))
        })
        .collect();
    let cold_seconds = t0.elapsed().as_secs_f64();
    let cold_qps = sampled.len() as f64 / cold_seconds;
    eprintln!(
        "[cold] {} sampled queries in {cold_seconds:.2}s -> {cold_qps:.1} qps (per-process baseline)",
        sampled.len()
    );

    // --- Daemon: one server + batching front-end, shared by every phase.
    evict_all_caches();
    let server = Arc::new(Server::new(Parallelism::Auto));
    let (sink, frontend) = spawn_frontend(Arc::clone(&server), BatchConfig::default());

    // --- Phase B: pass 1, cold caches but batching + dedup + memoization
    // active. Its responses become the serial reference every later run
    // must match byte-for-byte.
    let before1 = all_cache_stats();
    let pass1 = replay(&sink, &mix, 1, None);
    let d1 = all_cache_stats().since(before1);
    let pass1_qps = mix.len() as f64 / pass1.seconds;
    eprintln!(
        "[pass1] {} lines in {:.2}s -> {pass1_qps:.1} qps, cache {:.1}% hits",
        mix.len(),
        pass1.seconds,
        100.0 * d1.hit_rate()
    );

    // --- Phase C: warm replays at 1/2/4/8 client threads. The first run
    // is "pass 2": its cache-hit rate is the warm-cache gate.
    let mut warm_rows = String::new();
    let mut warm_mismatches = 0usize;
    let mut pass2_hit_rate = 0.0;
    let mut warm_qps_1 = 0.0;
    for (i, &clients) in [1usize, 2, 4, 8].iter().enumerate() {
        let before = all_cache_stats();
        let run = replay(&sink, &mix, clients, Some(&pass1.responses));
        let delta = all_cache_stats().since(before);
        let qps = mix.len() as f64 / run.seconds;
        let (p50, p99, p999) = (
            percentile(&run.latencies_us, 0.50),
            percentile(&run.latencies_us, 0.99),
            percentile(&run.latencies_us, 0.999),
        );
        if i == 0 {
            pass2_hit_rate = delta.hit_rate();
            warm_qps_1 = qps;
        }
        warm_mismatches += run.mismatches;
        eprintln!(
            "[warm] clients={clients}: {qps:.1} qps, p50 {p50}us p99 {p99}us p999 {p999}us, {:.1}% hits, {} mismatches",
            100.0 * delta.hit_rate(),
            run.mismatches
        );
        if !warm_rows.is_empty() {
            warm_rows.push_str(",\n    ");
        }
        let _ = write!(
            warm_rows,
            "{{ \"clients\": {clients}, \"qps\": {qps:.1}, \"p50_us\": {p50}, \"p99_us\": {p99}, \"p999_us\": {p999}, \"hit_rate\": {:.4}, \"hits\": {}, \"misses\": {} }}",
            delta.hit_rate(),
            delta.hits,
            delta.misses
        );
    }

    // --- Byte-identity: daemon responses vs direct (non-daemon) serial
    // evaluation, and the cold-phase responses vs the same reference.
    let direct = Server::new(Parallelism::Serial);
    let direct_mismatches = mix
        .iter()
        .enumerate()
        .filter(|(i, line)| direct.answer_line(line) != pass1.responses[*i])
        .count();
    let cold_mismatches = cold_responses
        .iter()
        .filter(|(idx, resp)| *resp != pass1.responses[*idx])
        .count();

    drop(sink);
    frontend.join().expect("frontend thread");

    let stats = server.stats();
    let deduped = stats.deduped.load(Ordering::Relaxed);
    let computed = stats.computed.load(Ordering::Relaxed);
    let dedup_factor = (deduped + computed) as f64 / computed.max(1) as f64;
    let speedup = warm_qps_1 / cold_qps;
    eprintln!(
        "[dedup] {deduped} deduplicated / {computed} computed -> factor {dedup_factor:.2}"
    );
    eprintln!(
        "[identity] warm {warm_mismatches}, direct {direct_mismatches}, cold {cold_mismatches} mismatches"
    );
    eprintln!("[speedup] warm {warm_qps_1:.1} qps vs cold {cold_qps:.1} qps -> {speedup:.1}x");

    let gates = [
        ("warm_hit_rate_ok", pass2_hit_rate >= 0.90),
        ("dedup_ok", dedup_factor > 1.0),
        (
            "identical_ok",
            warm_mismatches == 0 && direct_mismatches == 0 && cold_mismatches == 0,
        ),
        ("speedup_ok", speedup >= 10.0),
    ];

    let json = format!(
        "{{\n  \"benchmark\": \"serve_stress\",\n  \"quick\": {quick},\n  \"available_parallelism\": {},\n  \"mix\": {{ \"unique\": {}, \"lines_per_pass\": {}, \"pipeline_depth\": {DEPTH} }},\n  \"cold\": {{ \"sampled\": {}, \"seconds\": {cold_seconds:.3}, \"qps\": {cold_qps:.1} }},\n  \"pass1\": {{ \"qps\": {pass1_qps:.1}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n  \"warm\": [\n    {warm_rows}\n  ],\n  \"pass2_hit_rate\": {pass2_hit_rate:.4},\n  \"dedup\": {{ \"requests\": {}, \"deduped\": {deduped}, \"computed\": {computed}, \"factor\": {dedup_factor:.3} }},\n  \"identity\": {{ \"warm_mismatches\": {warm_mismatches}, \"direct_mismatches\": {direct_mismatches}, \"cold_mismatches\": {cold_mismatches} }},\n  \"speedup_warm_vs_cold\": {speedup:.2},\n  \"gates\": {{ {} }}\n}}\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        uniques.len(),
        mix.len(),
        sampled.len(),
        d1.hits,
        d1.misses,
        d1.hit_rate(),
        stats.requests.load(Ordering::Relaxed),
        gates
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&out, &json).expect("write benchmark output");
    println!("wrote {out}");

    for (name, ok) in gates {
        assert!(ok, "gate failed: {name}");
    }
}
