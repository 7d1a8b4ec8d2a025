//! How `Server::answer_batch` splits a batch: every distinct query that
//! needs no planning (a cache hit, `ping`, `score`) is answered on the
//! calling thread, and only the cache misses fan out through the parallel
//! engine. The split must not change what the caches count: a batch of
//! warm and cold queries leaves every section's hit and miss counters
//! where answering the same lines serially leaves them.
//!
//! The memo caches and their counters are process-wide, so this is the
//! only test in its binary: no other test can touch them while it
//! measures.

use std::sync::atomic::Ordering;

use fusecu::pipeline::DiskCacheSession;
use fusecu::server::Server;
use fusecu_dataflow::memo::SectionCounters;
use fusecu_search::{DataflowCache, Parallelism};

fn clear_caches() {
    DataflowCache::global().clear();
    fusecu::arch::op_cache_clear();
    fusecu::fusion::optimizer::pair_cache_clear();
    fusecu::fusion::planner::plan_cache_clear();
    fusecu::fusion::chain::chain_cache_clear();
    fusecu::fusion::graph_planner::graph_cache_clear();
}

fn sections() -> Vec<SectionCounters> {
    DiskCacheSession::disabled().stats_sections()
}

/// Distinct cacheable bodies, one of each verb per `i`, sized so debug
/// builds plan them quickly.
fn cacheable(i: u64) -> [String; 3] {
    let (m, k, l) = (16 + 8 * i, 24 + 8 * (i % 5), 16 + 16 * (i % 3));
    let model = if i.is_multiple_of(2) { "paper" } else { "rw" };
    [
        format!("optimize-op {m} {k} {l} {} {model}", 512 << (i % 3)),
        format!("plan-chain 4096 {model} 2 {m} {k} {l} {m} {l} {k}"),
        format!(
            "plan-graph 8192 {model} 3 0 {m} {k} {l} 2 1 {m} {l} {k} 2 2 {m} {l} {m} 2 2 0 1 0 2"
        ),
    ]
}

/// Answers `lines` on a fresh server after clearing every cache and
/// warming it with `warm`; returns the replies, the server, and each cache
/// section's counters as they moved while the lines were answered.
fn answer(
    warm: &[String],
    lines: &[String],
    batched: bool,
) -> (Vec<String>, Server, Vec<SectionCounters>) {
    clear_caches();
    let warmer = Server::new(Parallelism::Serial);
    for (i, body) in warm.iter().enumerate() {
        assert!(warmer.answer_line(&format!("w{i} {body}")).contains(" ok "));
    }
    let before = sections();
    let server = Server::new(Parallelism::Auto);
    let replies = if batched {
        server.answer_batch(lines)
    } else {
        lines.iter().map(|line| server.answer_line(line)).collect()
    };
    let moved = sections()
        .into_iter()
        .zip(before)
        .map(|(after, before)| SectionCounters {
            stats: after.stats.since(before.stats),
            ..after
        })
        .collect();
    (replies, server, moved)
}

#[test]
fn hits_answer_inline_misses_fan_out_and_cache_counters_match_serial() {
    let warm: Vec<String> = (0..6).flat_map(cacheable).collect();
    let cold: Vec<String> = (6..14).flat_map(cacheable).collect();
    let plain = [
        "ping".to_string(),
        "score 64 64 64 mkl 8 8 8 rw".to_string(),
        "score 48 32 16 lkm 4 32 2 paper".to_string(),
    ];
    // Warm, cold and plain queries interleaved, each once.
    let mut bodies: Vec<&String> = Vec::new();
    for (i, body) in cold.iter().enumerate() {
        bodies.extend(warm.get(i));
        bodies.push(body);
        bodies.extend(plain.get(i));
    }
    let lines: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| format!("r{i} {body}"))
        .collect();

    let (serial, _, serial_counts) = answer(&warm, &lines, false);
    let (batch, server, batch_counts) = answer(&warm, &lines, true);
    assert_eq!(batch, serial, "batch replies differ from serial ones");
    assert!(
        batch.iter().all(|reply| reply.contains(" ok ")),
        "{batch:?}"
    );
    assert_eq!(
        batch_counts, serial_counts,
        "cache counters moved differently"
    );
    let hits = batch_counts.iter().map(|c| c.stats.hits).sum::<u64>();
    assert!(
        hits >= warm.len() as u64,
        "the warm queries hit: {batch_counts:?}"
    );

    let stats = server.stats();
    assert_eq!(
        stats.inline.load(Ordering::Relaxed),
        (warm.len() + plain.len()) as u64
    );
    assert_eq!(stats.fanned_out.load(Ordering::Relaxed), cold.len() as u64);
    assert_eq!(stats.computed.load(Ordering::Relaxed), lines.len() as u64);
    assert!(stats.json().ends_with(&format!(
        "\"inline\":{},\"fanned_out\":{}}}",
        warm.len() + plain.len(),
        cold.len()
    )));
}
