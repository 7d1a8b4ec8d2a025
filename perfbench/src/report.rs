//! A run's result: checks attempted and failed, and named metrics with
//! their units, printed for people and as the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failure that no operation count covers (a daemon that
    /// would not start, a missing reply stream).
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    /// Adds a line of context printed above the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failures so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The metric recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// One line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        let rate = self.failed() as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<32} {rate:>16.6} ratio ({} failed / {} attempted)",
            "error_rate",
            self.failed(),
            self.attempted
        );
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (name, value, unit) in &self.metrics {
            if !metrics.is_empty() {
                metrics.push(',');
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed()
        )
    }
}

/// Nearest-rank percentile of ascending `sorted` (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One operation of a timed phase: how long it took, and its cost class
/// (the graph on `plan_cold`, the place in the round on `serve_warm`).
pub type Sample = (Duration, u32);

/// One round of a timed phase's closed loop: the operations it completed,
/// how long it took, and its cost class. A `plan_cold` round is one row.
pub type Round = (u32, Duration, u32);

/// On a shared host (measured on a two-vCPU VM) the same cold row runs
/// about 1.1x its fastest time in quiet stretches and up to 2x in busy
/// ones, which switch within seconds and take a different share of every
/// run; so does a fresh start. Noise only adds, so the timing metrics come
/// from the fastest tenth of each cost class's operations and rounds, and
/// `setup_s` from the fastest tenth of its starts: a slower program slows
/// every operation and every start, a busy stretch only some. Operations
/// are kept one by one, not by quiet stretches of the run, because a run
/// can be busy throughout: over nine `plan_cold` runs, `p99_ms` over the
/// quietest tenth of one-second windows spread 0.24 of its median, and over
/// the fastest tenth of each class 0.08.
const KEEP: f64 = 0.1;
/// Operations kept at least, so that p99 has ten beyond it: a run too
/// busy to finish ten times as many keeps a larger share of each class.
const MIN_KEPT_OPS: usize = 1000;
/// Interval between groups of fresh starts.
const START_EVERY_S: f64 = 1.0;
/// Fresh starts per group.
const STARTS_PER_GROUP: usize = 2;

/// Fresh starts of the system under test made during a timed phase, each
/// timed from spawn to its first correct answer. They are spread over the
/// whole phase, [`STARTS_PER_GROUP`] every [`START_EVERY_S`], so that no
/// one busy stretch covers all of them; the phase pauses for them, between
/// operations.
#[derive(Debug, Default)]
pub struct Starts {
    /// Seconds from spawn to the first correct answer, per start.
    answer_s: Vec<f64>,
    next_group: usize,
}

impl Starts {
    /// Makes the starts due at `elapsed_s` into the phase: `start` runs one
    /// start and returns its seconds to the first correct answer, `None`
    /// when it failed.
    pub fn at(&mut self, elapsed_s: f64, mut start: impl FnMut() -> Option<f64>) {
        let group = (elapsed_s / START_EVERY_S) as usize;
        if group < self.next_group {
            return;
        }
        self.next_group = group + 1;
        for _ in 0..STARTS_PER_GROUP {
            self.answer_s.extend(start());
        }
    }
}

/// The fastest [`KEEP`] of each cost class's items by the time `took`
/// gives, and more of each class, in equal numbers, if that keeps fewer
/// than `min_kept` in all.
fn fastest_per_class<T: Copy>(
    items: &[T],
    min_kept: usize,
    class: impl Fn(&T) -> u32,
    took: impl Fn(&T) -> Duration,
) -> Vec<T> {
    let mut by_class: BTreeMap<u32, Vec<T>> = BTreeMap::new();
    for item in items {
        by_class.entry(class(item)).or_default().push(*item);
    }
    let per_class = min_kept.div_ceil(by_class.len().max(1));
    by_class
        .into_values()
        .flat_map(|mut v| {
            v.sort_by_key(&took);
            v.truncate(((v.len() as f64 * KEEP).round() as usize).max(per_class));
            v
        })
        .collect()
}

/// Sorted milliseconds of `samples`.
fn sorted_ms(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.0.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Records the metrics every workload takes from its timed phase:
/// `p50_ms` and `p99_ms` over the fastest tenth of each cost class's
/// operations (at least ten beyond p99), `ops_per_s` over the fastest
/// tenth of each class's rounds, and `setup_s`, the median of the fastest
/// tenth of the phase's starts. Each cost class is kept in the same share,
/// so the kept operations hold the classes in the phase's mix.
pub fn phase_metrics(report: &mut Report, samples: &[Sample], rounds: &[Round], starts: &Starts) {
    let all = sorted_ms(samples);
    let ms = sorted_ms(&fastest_per_class(samples, MIN_KEPT_OPS, |s| s.1, |s| s.0));
    let kept_rounds = fastest_per_class(rounds, 1, |r| r.2, |r| r.1);
    report.note(format!(
        "{} operations in {} rounds, p50 {:.3} ms, p99 {:.3} ms; metrics over the fastest tenth of each class: {} operations, {} rounds",
        all.len(),
        rounds.len(),
        percentile(&all, 0.50),
        percentile(&all, 0.99),
        ms.len(),
        kept_rounds.len(),
    ));
    report.check(ms.len() >= MIN_KEPT_OPS, || {
        format!(
            "only {} operations kept; p99 needs {MIN_KEPT_OPS} for ten beyond it",
            ms.len()
        )
    });
    let mut setup = starts.answer_s.clone();
    setup.sort_by(f64::total_cmp);
    let fastest = &setup[..((setup.len() as f64 * KEEP).round() as usize)
        .max(1)
        .min(setup.len())];
    report.note(format!(
        "set-up: {} starts; fastest {:.3} ms, median {:.3} ms; setup_s over the fastest {}",
        setup.len(),
        percentile(&setup, 0.0) * 1e3,
        percentile(&setup, 0.5) * 1e3,
        fastest.len(),
    ));
    report.metric("setup_s", percentile(fastest, 0.5), "s");
    let ops: u32 = kept_rounds.iter().map(|r| r.0).sum();
    let busy_s: f64 = kept_rounds.iter().map(|r| r.1.as_secs_f64()).sum();
    report.metric("ops_per_s", f64::from(ops) / busy_s, "ops/s");
    report.metric("p50_ms", percentile(&ms, 0.50), "ms");
    report.metric("p99_ms", percentile(&ms, 0.99), "ms");
}
