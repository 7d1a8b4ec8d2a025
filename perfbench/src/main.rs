//! `perfbench` — end-to-end and per-layer benchmark of cold model planning
//! and the `serve` daemon.
//!
//! ```text
//! perfbench --serve-bin <path> --state-dir <dir>
//!           --workload <plan_cold|serve_warm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --serve-bin <path> --state-dir <dir> --self-test
//! ```
//!
//! `run.sh` next to this package builds the `serve` binary and this
//! harness from the tree under test and passes the first two flags. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! reports the per-layer metrics, from spans the harness records around
//! its own calls into each layer's public functions. Every run checks the
//! answers it measured, prints every metric by name with its unit, and
//! ends with one JSON line; a run with any failure lists the failures on
//! stderr and exits 1.

mod gen;
mod plan_cold;
mod proc;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::SystemTime;

use report::Report;
use trace::Tracer;

/// The benchmark's workloads.
const WORKLOADS: [&str; 2] = ["plan_cold", "serve_warm"];

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ma_vs_ideal", "ratio"),
];

/// Per-layer metrics, reported by every traced run. A workload that
/// bypasses a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("fusion.pair_price_us", "us"),
    ("fusion.chain_price_us", "us"),
    ("fusion.plan_us", "us"),
    ("fusion.cover_self_us", "us"),
    ("fusion.profitable_ratio", "ratio"),
    ("dataflow.principle_us", "us"),
    ("dataflow.principle_calls", "count"),
    ("ir.mm_dag_us", "us"),
    ("ir.simple_paths_us", "us"),
    ("ir.paths", "count"),
    ("arch.op_candidates_us", "us"),
    ("arch.eval_fusecu_us", "us"),
    ("arch.eval_baselines_us", "us"),
    ("server.window_wait_us", "us"),
    ("server.batch_lines", "count"),
    ("server.parse_us", "us"),
    ("server.eval_us", "us"),
    ("server.batch_us", "us"),
    ("cache.principle.hit_rate", "ratio"),
    ("cache.operators.hit_rate", "ratio"),
    ("cache.pairs.hit_rate", "ratio"),
    ("cache.plans.hit_rate", "ratio"),
    ("cache.graphs.hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("persist.load_ms", "ms"),
    ("persist.load_entries", "count"),
    ("serve.transport_us", "us"),
    ("serve.reply_stdio_ms", "ms"),
    ("serve.reply_tcp_ms", "ms"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_pct", "%"),
    ("trace.slowest_stage_us", "us"),
    ("trace.slowest_stage_share_pct", "%"),
    ("trace.spans", "count"),
];

/// One run's settings.
pub struct Ctx {
    /// The `serve` binary built from the tree under test.
    pub serve_bin: PathBuf,
    /// Scratch space for this run's cache dirs.
    pub state: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// This harness, for fresh-process probes.
    pub exe: PathBuf,
}

impl Ctx {
    /// An empty directory `name` under the run's state dir.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.state.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir must be writable");
        dir
    }

    /// Runs this harness with `args` as a fresh process.
    pub fn probe(&self, report: &mut Report, args: &[&str]) -> Option<proc::ProbeRun> {
        match proc::run_probe(Command::new(&self.exe).args(args)) {
            Ok(run) => Some(run),
            Err(e) => {
                report.fail(format!("probe {args:?}: {e}"));
                None
            }
        }
    }
}

/// A traced run's spans, its stage metrics (µs per operation), and the
/// untraced cost of one operation, for naming the slowest stage.
pub struct TraceOut {
    /// Every span of the traced phase.
    pub tracer: Tracer,
    /// The workload's stages as `(metric, µs per operation)`.
    pub stages: Vec<(&'static str, f64)>,
    /// Mean untraced cost of one traced operation, µs.
    pub op_base_us: f64,
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every `.rs` and `.toml` file under `dir`, skipping build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// Which code this run measured: the commit (when the checkout is a git
/// repository), a digest of the source tree, and digests of the `serve`
/// binary and this harness. Fails the run if `serve` is older than a
/// source file of a crate it is built from, so a stale binary is never
/// timed.
fn provenance(report: &mut Report, ctx: &Ctx) -> String {
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("none".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut tree = Vec::new();
    for f in &files {
        tree.extend_from_slice(f.to_string_lossy().as_bytes());
        tree.extend(std::fs::read(f).unwrap_or_default());
    }
    // `serve` links every crate but the figure binaries' `bench`.
    let newest = files
        .iter()
        .filter(|f| {
            f.starts_with("crates")
                && !f.starts_with("crates/bench")
                && f.components().any(|c| c.as_os_str() == "src")
        })
        .filter_map(|f| mtime(f))
        .max();
    let built = mtime(&ctx.serve_bin);
    report.check(built.is_some() && built >= newest, || {
        format!(
            "{} is older than the sources it is built from",
            ctx.serve_bin.display()
        )
    });
    let digest = |p: &Path| std::fs::read(p).map_or(0, |b| proc::fnv64(&b));
    format!(
        "{{\"commit\":\"{commit}\",\"tree_fnv64\":\"{:016x}\",\"serve_fnv64\":\"{:016x}\",\"harness_fnv64\":\"{:016x}\",\"available_parallelism\":{}}}",
        proc::fnv64(&tree),
        digest(&ctx.serve_bin),
        digest(&ctx.exe),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

/// One run of one workload.
fn run(ctx: &Ctx, workload: &str, traced: bool, report: &mut Report) {
    if !traced {
        match workload {
            "plan_cold" => plan_cold::run(ctx, report),
            _ => serve::run_warm(ctx, report),
        }
        for (name, _) in END_TO_END {
            if report.value(name).is_none() {
                report.fail(format!("metric {name} was not measured"));
            }
        }
        return;
    }
    let out = match workload {
        "plan_cold" => plan_cold::run_traced(ctx, report),
        _ => serve::run_warm_traced(ctx, report),
    };
    serve::transport_probe(ctx, report);
    trace_metrics(report, &out);
    let path = ctx
        .state
        .parent()
        .unwrap_or(&ctx.state)
        .join("traces")
        .join(format!("{workload}-{}.jsonl", ctx.seed));
    match out.tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
    let bypassed: &[&str] = match workload {
        "plan_cold" => &["server.", "persist."],
        _ => &[
            "fusion.",
            "dataflow.",
            "ir.",
            "arch.",
            "trace.stage_sum_pct",
        ],
    };
    for (name, unit) in PER_LAYER {
        if report.value(name).is_none() {
            if bypassed.iter().any(|p| name.starts_with(p)) {
                report.metric(name, 0.0, unit);
            } else {
                report.fail(format!("metric {name} was not measured"));
            }
        }
    }
}

/// Tracing overhead and the slowest stage.
fn trace_metrics(report: &mut Report, out: &TraceOut) {
    if let (Some(untraced), Some(traced)) = (
        report.value("trace.untraced_ops_per_s"),
        report.value("trace.traced_ops_per_s"),
    ) {
        report.metric("trace.overhead_pct", 100.0 * (1.0 - traced / untraced), "%");
    }
    let (name, us) = out
        .stages
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", 0.0));
    report.metric("trace.slowest_stage_us", us, "us");
    report.metric(
        "trace.slowest_stage_share_pct",
        100.0 * us / out.op_base_us,
        "%",
    );
    report.metric(
        "trace.spans",
        out.tracer.totals().values().map(|t| t.count).sum::<u64>() as f64,
        "count",
    );
    println!(
        "slowest stage: {name} = {us:.1} us per operation ({:.1}% of an untraced operation, {:.1} us)",
        100.0 * us / out.op_base_us,
        out.op_base_us
    );
}

/// Deterministic inputs, then a short run of every workload in both
/// modes, each of which must pass every check and print every metric.
fn self_test(base: &Ctx, report: &mut Report) {
    let warm = |seed| {
        let catalog = gen::warm_catalog();
        let mut s = gen::WarmStream::new(seed, catalog.len());
        (0..2)
            .flat_map(|_| s.next_round(&catalog, catalog.len()).0)
            .collect::<Vec<_>>()
    };
    let plan = |seed| gen::EpochOrder::new(seed, 14).take(56).collect::<Vec<_>>();
    report.check(warm(7) == warm(7) && warm(7) != warm(8), || {
        "serve_warm bytes not seed-determined".into()
    });
    report.check(plan(7) == plan(7) && plan(7) != plan(8), || {
        "plan_cold order not seed-determined".into()
    });
    // Long enough for the thousand operations p99 needs.
    for (traced, seconds) in [(false, 10.0), (true, 6.0)] {
        for workload in WORKLOADS {
            let ctx = Ctx {
                seconds,
                state: base.state.join(workload),
                seed: 7,
                serve_bin: base.serve_bin.clone(),
                exe: base.exe.clone(),
            };
            let mut sub = Report::default();
            run(&ctx, workload, traced, &mut sub);
            println!(
                "self-test {workload} trace={}:\n{}",
                u8::from(traced),
                sub.table()
            );
            report.check(sub.correct(), || {
                format!("{workload} trace={traced}: {:?}", sub.failures())
            });
            let _ = std::fs::remove_dir_all(&ctx.state);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--probe-setup") {
        plan_cold::probe_setup();
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = arg(&args, "--probe-load") {
        serve::probe_load(Path::new(&dir));
    }
    let usage = "usage: perfbench --serve-bin <path> --state-dir <dir> \
                 (--self-test | --workload <name> --seed <n> --seconds <s> --trace <0|1>)";
    let (Some(serve_bin), Some(state_dir)) = (arg(&args, "--serve-bin"), arg(&args, "--state-dir"))
    else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let exe = std::env::current_exe().expect("the harness knows its own path");
    let serve_bin = PathBuf::from(serve_bin);
    if !serve_bin.is_file() {
        eprintln!("perfbench: no serve binary at {}", serve_bin.display());
        return ExitCode::from(2);
    }
    let self_testing = args.iter().any(|a| a == "--self-test");
    let workload = arg(&args, "--workload").unwrap_or_default();
    let seed = arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let trace = arg(&args, "--trace");
    let valid = WORKLOADS.contains(&workload.as_str())
        && seed.is_some()
        && seconds.is_some_and(|s| s > 0.0 && s <= 60.0)
        && matches!(trace.as_deref(), Some("0" | "1"));
    if !self_testing && !valid {
        eprintln!("{usage}\nworkloads: {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    }
    let traced = trace.as_deref() == Some("1");
    let ctx = Ctx {
        serve_bin,
        state: PathBuf::from(state_dir).join(if self_testing {
            "self-test"
        } else {
            workload.as_str()
        }),
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(1.0),
        exe,
    };
    let _ = std::fs::remove_dir_all(&ctx.state);

    let mut report = Report::default();
    let meta = provenance(&mut report, &ctx);
    if self_testing {
        println!("perfbench self-test");
        self_test(&ctx, &mut report);
    } else {
        println!(
            "perfbench {workload} seed={} seconds={} trace={}",
            ctx.seed,
            ctx.seconds,
            u8::from(traced)
        );
        run(&ctx, &workload, traced, &mut report);
    }
    let _ = std::fs::remove_dir_all(&ctx.state);

    println!("run {meta}");
    print!("{}", report.table());
    for failure in report.failures().iter().take(50) {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
