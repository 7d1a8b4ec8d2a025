//! `serve_warm`: the hit path of a long-lived daemon. It drives the real
//! `serve` binary over stdio with its flags at their defaults, as a closed
//! loop from one thread: the single stdio caller waits for its replies.
//! The disk cache is preloaded from an untimed cold pass over the same
//! catalog, so every cacheable query hits. Each round sends the whole
//! catalog (426 distinct queries, about 29 KB) in one write, in a seeded
//! order: the default 1 ms batch window is shared by the round, so the
//! per-line cost of the hit path (parse, lookup, reply) is most of it.
//!
//! Rounds are that long because the shared host stalls a vCPU for
//! milliseconds at a time, in busy periods often enough that most tenths
//! of a second hold one: a round of a few milliseconds absorbs a stall in
//! a smaller share than a round of 32 lines (about 1.5 ms), which a stall
//! made three to eight times as long.
//!
//! TCP is not a workload yet: the daemon writes each TCP reply as two
//! writes (payload, then `"\n"`) with Nagle's algorithm on, so the
//! newline waits for the peer's delayed ACK and a closed-loop request
//! measures the kernel (about 44 ms) rather than the daemon. Traced runs
//! record `serve.reply_tcp_ms` beside `serve.reply_stdio_ms` so a fix shows
//! the day it lands.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use fusecu::pipeline::DiskCacheSession;
use fusecu::search::{par_map, ExhaustiveSearch, Parallelism};
use fusecu::server::{spawn_frontend, BatchConfig, Request, Server, Submission};

use crate::gen::{body_of, ideal_ma, is_small_op, reply_ma, warm_catalog, Rng, WarmStream};
use crate::plan_cold::HIT_RATES;
use crate::proc::{Daemon, TcpDaemon};
use crate::report::{percentile, phase_metrics, Report, Round, Sample, Starts};
use crate::trace::Tracer;
use crate::{Ctx, TraceOut};

/// Small-shape `optimize-op` replies checked against the exhaustive
/// oracle per run (about 12 ms each, outside the timed phase).
const ORACLE_SAMPLES: usize = 16;

/// The warm query catalog, its reference answers, and its preloaded
/// cache dir.
struct Catalog {
    bodies: Vec<String>,
    /// `Server::answer_line` of each body, evaluated serially in this
    /// process, without its id.
    payloads: Vec<String>,
    small: Vec<bool>,
    dir: PathBuf,
    ma_vs_ideal: f64,
}

impl Catalog {
    /// Checks one reply byte for byte against the serial reference for
    /// the same line: its id, then the reference payload of its query.
    fn check(&self, report: &mut Report, line: &str, i: usize, reply: &str) {
        let id = line.split_once(' ').map_or(line, |(id, _)| id);
        let ok = reply
            .strip_prefix(id)
            .and_then(|rest| rest.strip_prefix(' '))
            == Some(self.payloads[i].as_str());
        report.check(ok, || {
            format!(
                "reply to {line:?} was {reply:?}, serial reference \"{id} {}\"",
                self.payloads[i]
            )
        });
    }
}

/// What one timed daemon phase saw.
#[derive(Debug, Default)]
struct Phase {
    latencies: Vec<Sample>,
    rounds: Vec<Round>,
    rss_mib: f64,
    stats: String,
    /// One daemon reply per small-shape `optimize-op` query, for the
    /// oracle check.
    small_ops: Vec<(String, String)>,
}

/// Checks a seeded sample of small-shape `optimize-op` replies against
/// the exhaustive search's optimum, an independent reference.
fn oracle_sample(report: &mut Report, seed: u64, mut candidates: Vec<(String, String)>) {
    candidates.sort();
    Rng::new(seed ^ 0x0AC1E).shuffle(&mut candidates);
    report.check(candidates.len() >= ORACLE_SAMPLES, || {
        format!(
            "only {} small operators to sample for the oracle",
            candidates.len()
        )
    });
    for (body, reply) in candidates.iter().take(ORACLE_SAMPLES) {
        let Ok(Request::OptimizeOp { mm, bs, model }) = Request::parse(body) else {
            report.fail(format!("oracle sample {body:?} is not an optimize-op"));
            continue;
        };
        let best = ExhaustiveSearch::new(model)
            .try_optimize(mm, bs)
            .map(|r| r.best().total_ma());
        report.check(best.is_some() && best == reply_ma(reply), || {
            format!("{body:?}: daemon {reply:?}, exhaustive optimum {best:?}")
        });
    }
}

/// Total memory access the replies report over their unfused lower
/// bound, over the planning queries among `pairs`.
fn ma_vs_ideal<'a>(report: &mut Report, pairs: impl Iterator<Item = (&'a str, &'a str)>) -> f64 {
    let (mut ma, mut ideal) = (0u64, 0u64);
    for (body, reply) in pairs {
        if let Some(bound) = ideal_ma(body) {
            match reply_ma(reply) {
                Some(got) => {
                    ma += got;
                    ideal += bound;
                }
                None => report.fail(format!("{body:?} returned no plan: {reply:?}")),
            }
        }
    }
    ma as f64 / ideal as f64
}

/// One fresh daemon on `dir`: seconds from spawn to its correct answer
/// to `line` (`want`), or `None` if it failed. The daemon then exits
/// cleanly.
fn setup_start(ctx: &Ctx, report: &mut Report, dir: &Path, line: &str, want: &str) -> Option<f64> {
    let t0 = Instant::now();
    let started = Daemon::spawn(&ctx.serve_bin, dir).and_then(|mut d| {
        let reply = d.ask(line)?;
        let answer_s = t0.elapsed().as_secs_f64();
        Ok((reply, answer_s, d.finish()?))
    });
    match started {
        Ok((reply, answer_s, status)) => {
            let ok = reply == want && status.success();
            report.check(ok, || {
                format!("fresh start: {reply:?} (want {want:?}), exit {status}")
            });
            ok.then_some(answer_s)
        }
        Err(e) => {
            report.fail(format!("fresh start: {e}"));
            None
        }
    }
}

/// Closes a daemon after its phase, recording peak RSS and (when asked)
/// the `stats` reply first.
fn close(report: &mut Report, mut daemon: Daemon, phase: &mut Phase, want_stats: bool) {
    phase.rss_mib = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    if want_stats {
        match daemon.ask("x stats") {
            Ok(stats) => phase.stats = stats,
            Err(e) => report.fail(format!("stats: {e}")),
        }
    }
    match daemon.finish() {
        Ok(status) => report.check(status.success(), || format!("daemon exited with {status}")),
        Err(e) => report.fail(format!("daemon exit: {e}")),
    }
}

/// Spawns the phase daemon and waits for its first (untimed) answer.
fn start(ctx: &Ctx, report: &mut Report, dir: &Path, first: &str) -> Option<Daemon> {
    let mut daemon = match Daemon::spawn(&ctx.serve_bin, dir) {
        Ok(d) => d,
        Err(e) => {
            report.fail(format!("spawn {}: {e}", ctx.serve_bin.display()));
            return None;
        }
    };
    match daemon.ask(first) {
        Ok(_) => Some(daemon),
        Err(e) => {
            report.fail(format!("first answer: {e}"));
            None
        }
    }
}

/// The untimed cold pass that fills `dir`: every catalog query once, in
/// one write, then EOF so the daemon snapshots its caches.
/// Every reply must equal `Server::answer_line` on the same line,
/// evaluated serially in this process (two workers); that evaluation also
/// warms this process's caches for the in-process replay. Returns the
/// reference answers.
fn cold_pass(ctx: &Ctx, report: &mut Report, bodies: &[String], dir: &Path) -> Vec<String> {
    let lines: Vec<String> = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| format!("c{i} {body}"))
        .collect();
    let mut replies = Vec::new();
    if let Some(mut daemon) = start(ctx, report, dir, &format!("s0 {}", bodies[0])) {
        let received = daemon.send(&lines).and_then(|()| {
            for _ in &lines {
                replies.push(daemon.recv()?);
            }
            Ok(())
        });
        if let Err(e) = received {
            report.fail(format!("cold pass: {e}"));
        }
        close(report, daemon, &mut Phase::default(), false);
    }
    let reference = Server::new(Parallelism::Serial);
    let want = par_map(Parallelism::Auto, &lines, |_, line| {
        reference.answer_line(line)
    });
    for (i, (line, want)) in lines.iter().zip(&want).enumerate() {
        match replies.get(i) {
            Some(got) => report.check(got == want, || {
                format!("reply to {line:?} was {got:?}, serial reference {want:?}")
            }),
            None => report.fail(format!("no reply to {line:?}")),
        }
    }
    for file in ["dataflow.cache", "plans.cache", "graphs.cache"] {
        report.check(dir.join(file).is_file(), || {
            format!("cold pass left no {file}")
        });
    }
    want
}

/// Untimed preparation shared by both runs: the catalog, its reference
/// answers, its preloaded cache dir, and its `ma_vs_ideal`.
fn warm_setup(ctx: &Ctx, report: &mut Report) -> Catalog {
    let bodies = warm_catalog();
    let dir = ctx.fresh_dir("warm-cache");
    let answers = cold_pass(ctx, report, &bodies, &dir);
    let ma_vs_ideal = ma_vs_ideal(
        report,
        bodies
            .iter()
            .map(String::as_str)
            .zip(answers.iter().map(String::as_str)),
    );
    Catalog {
        payloads: answers.iter().map(|a| body_of(a).to_string()).collect(),
        small: bodies.iter().map(|b| is_small_op(b)).collect(),
        bodies,
        dir,
        ma_vs_ideal,
    }
}

/// A closed loop of warm rounds for `seconds`: each round's lines go in
/// one write, and the next round waits for all of its replies. Every
/// reply is checked as it arrives. With `starts`, fresh daemons on the
/// same cache dir are started between rounds, spread over the phase.
fn warm_phase(
    ctx: &Ctx,
    report: &mut Report,
    cat: &Catalog,
    stream: &mut WarmStream,
    seconds: f64,
    mut starts: Option<&mut Starts>,
) -> Phase {
    let mut phase = Phase::default();
    let first = format!("s0 {}", cat.bodies[0]);
    let want_first = Server::new(Parallelism::Serial).answer_line(&first);
    let Some(mut daemon) = start(ctx, report, &cat.dir, &first) else {
        return phase;
    };
    let mut sampled = HashSet::new();
    let begin = Instant::now();
    'rounds: while begin.elapsed().as_secs_f64() < seconds {
        if let Some(starts) = starts.as_deref_mut() {
            starts.at(begin.elapsed().as_secs_f64(), || {
                setup_start(ctx, report, &cat.dir, &first, &want_first)
            });
        }
        let (lines, indices) = stream.next_round(&cat.bodies, cat.bodies.len());
        let t0 = Instant::now();
        if let Err(e) = daemon.send(&lines) {
            report.fail(format!("round write: {e}"));
            break;
        }
        // A line's cost class is its place in the round: replies come in
        // order, so that sets most of its latency.
        for (place, (line, &i)) in lines.iter().zip(&indices).enumerate() {
            match daemon.recv() {
                Ok(reply) => {
                    phase.latencies.push((t0.elapsed(), place as u32));
                    cat.check(report, line, i, &reply);
                    if cat.small[i] && sampled.insert(i) {
                        phase.small_ops.push((cat.bodies[i].clone(), reply));
                    }
                }
                Err(e) => {
                    report.fail(format!("no reply to {line:?}: {e}"));
                    break 'rounds;
                }
            }
        }
        // Every round sends the whole catalog: one cost class.
        phase.rounds.push((lines.len() as u32, t0.elapsed(), 0));
    }
    close(report, daemon, &mut phase, starts.is_none());
    phase
}

/// Untraced `serve_warm` run: the end-to-end metrics.
pub fn run_warm(ctx: &Ctx, report: &mut Report) {
    let cat = warm_setup(ctx, report);
    let mut stream = WarmStream::new(ctx.seed, cat.bodies.len());
    let mut starts = Starts::default();
    let phase = warm_phase(
        ctx,
        report,
        &cat,
        &mut stream,
        ctx.seconds,
        Some(&mut starts),
    );
    oracle_sample(report, ctx.seed, phase.small_ops);
    phase_metrics(report, &phase.latencies, &phase.rounds, &starts);
    report.metric("peak_rss_mb", phase.rss_mib, "MiB");
    report.metric("ma_vs_ideal", cat.ma_vs_ideal, "ratio");
}

/// Traced `serve_warm` run: a daemon phase for the daemon's own counters,
/// then the following rounds replayed in-process through `fusecu::server`.
pub fn run_warm_traced(ctx: &Ctx, report: &mut Report) -> TraceOut {
    let cat = warm_setup(ctx, report);
    load_probe(ctx, report, &cat.dir);
    let mut stream = WarmStream::new(ctx.seed, cat.bodies.len());
    let phase = warm_phase(ctx, report, &cat, &mut stream, ctx.seconds * 0.4, None);
    daemon_counters(report, &phase);
    let round_us = phase.rounds.iter().map(|r| r.1.as_secs_f64()).sum::<f64>() * 1e6
        / phase.rounds.len().max(1) as f64;
    replay(report, &cat, &mut stream, ctx.seconds * 0.4, round_us)
}

// --- traced replay -----------------------------------------------------------

/// Sends `lines` through the batching front-end and collects the replies.
fn through_frontend(sink: &Sender<Submission>, lines: &[String]) -> Vec<String> {
    let (tx, rx) = channel();
    for line in lines {
        let _ = sink.send(Submission {
            line: line.clone(),
            reply: tx.clone(),
        });
    }
    (0..lines.len()).filter_map(|_| rx.recv().ok()).collect()
}

/// Replays rounds in-process for `seconds`. Each round goes through
/// `spawn_frontend` with the daemon's default `BatchConfig` twice, in
/// alternating order: once untimed by spans, and once as a traced
/// operation (`op` around `server.frontend`), which is the same work with
/// spans, for the tracing overhead. The same round is then taken apart
/// under a `stages` span: `Request::parse` plus dedup (`server.parse`),
/// `Server::eval` of each distinct query (`server.eval`), and
/// `Server::answer_batch` (`server.batch`). The frontend's time beyond
/// `server.batch` is the batch window's wait. `round_us` is the mean
/// untraced daemon round, for the slowest stage's share.
fn replay(
    report: &mut Report,
    cat: &Catalog,
    stream: &mut WarmStream,
    seconds: f64,
    round_us: f64,
) -> TraceOut {
    let direct = Server::new(Parallelism::Auto);
    let (sink, handle) = spawn_frontend(
        Arc::new(Server::new(Parallelism::Auto)),
        BatchConfig::default(),
    );
    let mut tracer = Tracer::new();
    let (mut ops, mut lines_total, mut untraced_ns, mut traced_ns) = (0u64, 0u64, 0u128, 0u128);
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < seconds {
        let (lines, indices) = stream.next_round(&cat.bodies, cat.bodies.len());
        let op = ops;
        let mut answers = Vec::new();
        for traced in [op % 2 == 0, op % 2 == 1] {
            if traced {
                let root = tracer.begin("op", op);
                answers
                    .push(tracer.time("server.frontend", op, || through_frontend(&sink, &lines)));
                traced_ns += u128::from(tracer.end(root));
            } else {
                let t0 = Instant::now();
                answers.push(through_frontend(&sink, &lines));
                untraced_ns += t0.elapsed().as_nanos();
            }
        }
        let root = tracer.begin("stages", op);
        let uniques: Vec<Request> = tracer.time("server.parse", op, || {
            let mut seen = HashSet::new();
            lines
                .iter()
                .filter_map(|line| Request::parse(body_of(line)).ok())
                .filter(|req| seen.insert(req.canonical()))
                .collect()
        });
        let payloads: Vec<String> = tracer.time("server.eval", op, || {
            uniques.iter().map(|req| direct.eval(req)).collect()
        });
        answers.push(tracer.time("server.batch", op, || direct.answer_batch(&lines)));
        tracer.end(root);
        report.check(payloads.len() == lines.len(), || {
            format!(
                "a round of {} distinct queries parsed to {}",
                lines.len(),
                payloads.len()
            )
        });
        for (j, (line, &i)) in lines.iter().zip(&indices).enumerate() {
            let id = line.split_once(' ').map_or(line.as_str(), |(id, _)| id);
            let eval = payloads.get(j).map(|p| format!("{id} {p}"));
            for reply in answers.iter().map(|a| a.get(j)).chain([eval.as_ref()]) {
                match reply {
                    Some(reply) => cat.check(report, line, i, reply),
                    None => report.fail(format!("in-process replay lost {line:?}")),
                }
            }
        }
        ops += 1;
        lines_total += lines.len() as u64;
    }
    drop(sink);
    if handle.join().is_err() {
        report.fail("in-process batch loop panicked".to_string());
    }

    let totals = tracer.totals();
    let per_op = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / ops.max(1) as f64)
    };
    let window_us = per_op("server.frontend") - per_op("server.batch");
    let stages = vec![
        ("server.parse_us", per_op("server.parse")),
        ("server.eval_us", per_op("server.eval")),
        ("server.batch_us", per_op("server.batch")),
        ("server.window_wait_us", window_us),
    ];
    for &(name, us) in &stages {
        report.metric(name, us, "us");
    }
    let lines_per_s = |ns: u128| lines_total as f64 / (ns.max(1) as f64 / 1e9);
    report.metric(
        "trace.untraced_ops_per_s",
        lines_per_s(untraced_ns),
        "ops/s",
    );
    report.metric("trace.traced_ops_per_s", lines_per_s(traced_ns), "ops/s");
    TraceOut {
        tracer,
        stages,
        op_base_us: round_us,
    }
}

/// A number at a key path in the daemon's `stats` JSON.
fn stats_num(stats: &str, path: &[&str]) -> Option<f64> {
    let mut rest = stats;
    for key in path {
        let pat = format!("\"{key}\":");
        rest = &rest[rest.find(&pat)? + pat.len()..];
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Server and cache counters from the daemon's `stats` reply.
fn daemon_counters(report: &mut Report, phase: &Phase) {
    let server = |key: &str| stats_num(&phase.stats, &["server", key]);
    let (Some(requests), Some(batches)) = (server("requests"), server("batches")) else {
        report.fail(format!("unreadable stats reply {:?}", phase.stats));
        return;
    };
    report.metric("server.batch_lines", requests / batches.max(1.0), "count");
    let get = |section: &str, key| {
        stats_num(&phase.stats, &["sections", section, key]).unwrap_or(f64::NAN)
    };
    const SECTIONS: [&str; 6] = [
        "principle",
        "operators",
        "pairs",
        "plans",
        "chains",
        "graphs",
    ];
    for (i, name) in HIT_RATES {
        let (hits, misses) = (get(SECTIONS[i], "hits"), get(SECTIONS[i], "misses"));
        let rate = if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        };
        report.metric(name, rate, "ratio");
    }
    let entries = SECTIONS
        .iter()
        .map(|&section| get(section, "entries"))
        .sum();
    report.metric("cache.entries", entries, "count");
}

// --- persistence and transport probes -------------------------------------

/// Fresh-process probe: times `DiskCacheSession::at` (load plus its
/// fingerprint probes) on `dir` and prints `<ms> <entries>`. Exits
/// without the session's flush-on-drop, so the probe never writes.
pub fn probe_load(dir: &Path) -> ! {
    let t0 = Instant::now();
    let session = DiskCacheSession::at(dir.to_path_buf());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("{ms} {}", session.loaded());
    let _ = std::io::stdout().flush();
    std::process::exit(0)
}

/// `persist.load_ms` (minimum over five fresh processes) and
/// `persist.load_entries` for `dir`.
fn load_probe(ctx: &Ctx, report: &mut Report, dir: &Path) {
    let dir_arg = dir.display().to_string();
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..5 {
        let Some(run) = ctx.probe(report, &["--probe-load", &dir_arg]) else {
            continue;
        };
        let mut toks = run.out.split_whitespace().map(str::parse::<f64>);
        if let (Some(Ok(ms)), Some(Ok(entries))) = (toks.next(), toks.next()) {
            if best.is_none_or(|(b, _)| ms < b) {
                best = Some((ms, entries));
            }
        } else {
            report.fail(format!("load probe printed {:?}", run.out));
        }
    }
    let (ms, entries) = best.unwrap_or((f64::NAN, f64::NAN));
    report.metric("persist.load_ms", ms, "ms");
    report.metric("persist.load_entries", entries, "count");
}

/// Median of `n` timed closed-loop repeats of `ask`, after one untimed
/// call; every reply is checked against `want`.
fn median_round_trip_ms(
    report: &mut Report,
    what: &str,
    n: usize,
    want: &str,
    mut ask: impl FnMut() -> std::io::Result<String>,
) -> f64 {
    let mut ms = Vec::new();
    for i in 0..=n {
        let t0 = Instant::now();
        match ask() {
            Ok(reply) => {
                let elapsed = t0.elapsed().as_secs_f64() * 1e3;
                report.check(reply == want, || {
                    format!("{what}: {reply:?}, want {want:?}")
                });
                if i > 0 {
                    ms.push(elapsed);
                }
            }
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                break;
            }
        }
    }
    ms.sort_by(f64::total_cmp);
    percentile(&ms, 0.5)
}

/// One warm request in a closed loop over stdio, over TCP, and through
/// the in-process frontend: `serve.reply_stdio_ms`, `serve.reply_tcp_ms`,
/// and `serve.transport_us` (stdio minus in-process).
pub fn transport_probe(ctx: &Ctx, report: &mut Report) {
    let line = "t optimize-op 512 256 384 65536 rw";
    let want = Server::new(Parallelism::Serial).answer_line(line);

    let stdio_ms = match Daemon::spawn(&ctx.serve_bin, &ctx.fresh_dir("transport-stdio")) {
        Ok(mut daemon) => {
            let ms = median_round_trip_ms(report, "stdio", 40, &want, || daemon.ask(line));
            close(report, daemon, &mut Phase::default(), false);
            ms
        }
        Err(e) => {
            report.fail(format!("stdio daemon: {e}"));
            f64::NAN
        }
    };

    let (sink, handle) = spawn_frontend(
        Arc::new(Server::new(Parallelism::Auto)),
        BatchConfig::default(),
    );
    let frontend_ms = median_round_trip_ms(report, "frontend", 40, &want, || {
        through_frontend(&sink, &[line.to_string()])
            .pop()
            .ok_or_else(|| std::io::Error::other("frontend dropped the reply"))
    });
    drop(sink);
    if handle.join().is_err() {
        report.fail("frontend batch loop panicked".to_string());
    }

    let tcp_ms = match TcpDaemon::spawn(&ctx.serve_bin, &ctx.fresh_dir("transport-tcp")) {
        Ok(mut daemon) => {
            let ms = median_round_trip_ms(report, "tcp", 15, &want, || daemon.ask(line));
            match daemon.finish() {
                Ok(status) => report.check(status.success(), || {
                    format!("tcp daemon exited with {status}")
                }),
                Err(e) => report.fail(format!("tcp daemon exit: {e}")),
            }
            ms
        }
        Err(e) => {
            report.fail(format!("tcp daemon: {e}"));
            f64::NAN
        }
    };

    report.metric("serve.transport_us", (stdio_ms - frontend_ms) * 1e3, "us");
    report.metric("serve.reply_stdio_ms", stdio_ms, "ms");
    report.metric("serve.reply_tcp_ms", tcp_ms, "ms");
}
