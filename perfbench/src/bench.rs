//! One benchmark run: set-up, the timed closed loop, and (with tracing)
//! the per-layer bookkeeping and the separate traced pass.

use std::time::Instant;

use mai_core::engine::EngineStats;

use crate::trace::{Layer, Meter};
use crate::workload::{Job, Workload};
use crate::yardstick::{self, median};

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Passes over the program set in the traced run.
pub const TRACE_REPS: usize = 2;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: &'static Workload,
    /// The seed of the generated sources.
    pub seed: u64,
    /// How long the timed loop runs (it always ends on a whole pass).
    pub seconds: f64,
    /// Report per-layer metrics (and run the traced pass) instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Analyses run, set-up passes included.
    pub attempted: usize,
    /// Analyses that panicked or answered differently from the reference,
    /// plus traced solves whose work counters differ from the untraced ones.
    pub failed: usize,
    /// Timed analyses (the latency sample count).
    pub samples: usize,
    /// Whole passes over the program set in the timed loop.
    pub passes: usize,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Raw wall-clock figures printed for the reader, not reported: the
    /// host's drift makes them too unsteady to compare two runs by.
    pub wall: Vec<Metric>,
    /// The traced pass's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
    /// Why analyses failed, one line each.
    pub errors: Vec<String>,
}

impl Report {
    /// Whether every analysis was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn wall_metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.wall.push(Metric { name, value, unit });
    }

    fn attempt(
        &mut self,
        workload: &Workload,
        job: &Job,
        meter: &mut Meter,
        concrete: bool,
    ) -> Option<crate::lang::Outcome> {
        self.attempted += 1;
        match meter.analysis(|m| workload.attempt(job, m, concrete)) {
            Ok(outcome) => Some(outcome),
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Work counters summed (peaks: maximised) over the timed loop.
#[derive(Debug, Default)]
struct Counts {
    stats: EngineStats,
    states: usize,
    flow_keys: usize,
}

impl Counts {
    fn add(&mut self, outcome: &crate::lang::Outcome) {
        for stats in &outcome.stats {
            self.stats.merge(stats);
        }
        for facts in &outcome.answer {
            self.states += facts.states;
            self.flow_keys += facts.flow_keys;
        }
    }
}

/// The `q`-quantile of samples, by nearest rank.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark.
pub fn run(config: &Config) -> Report {
    let workload = config.workload;
    let mut report = Report::default();

    // Set-up: generate and print the sources, then one untimed cold pass
    // over the set — with the concrete checks — which fills the global
    // name pool and the allocator.  Repeated; the median is reported.
    let mut jobs = Vec::new();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        jobs = workload.jobs(config.seed);
        for job in &jobs {
            report.attempt(workload, job, &mut Meter::default(), true);
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // The timed closed loop: one client, whole passes over the set, the
    // yardstick timed after every analysis.
    let mut meter = Meter::default();
    let mut counts = Counts::default();
    let mut latencies = Vec::new();
    let mut sticks = Vec::new();
    let start = Instant::now();
    loop {
        for job in &jobs {
            let begin = Instant::now();
            let outcome = report.attempt(workload, job, &mut meter, false);
            latencies.push(begin.elapsed().as_secs_f64());
            sticks.push(yardstick::time_once());
            if let Some(outcome) = outcome {
                counts.add(&outcome);
            }
        }
        report.passes += 1;
        if start.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
    }
    report.samples = latencies.len();
    let relative = yardstick::relative(&latencies, &sticks);
    // A pass's cost in yardsticks; every pass fixes the same states.
    let pass_costs: Vec<f64> = relative
        .chunks(jobs.len())
        .map(|pass| pass.iter().sum())
        .collect();
    let states_per_pass = counts.states as f64 / report.passes as f64;
    let stick_s = median(&sticks);

    report.wall_metric("latency_s.p50", quantile(&latencies, 0.5), "s");
    report.wall_metric("latency_s.p90", quantile(&latencies, 0.9), "s");
    report.wall_metric(
        "states_per_s",
        counts.states as f64 / latencies.iter().sum::<f64>(),
        "1/s",
    );
    report.wall_metric("yardstick_s", stick_s, "s");
    if !config.trace {
        report.metric(
            "latency_yardsticks.p50",
            quantile(&relative, 0.5),
            "yardsticks",
        );
        report.metric(
            "latency_yardsticks.p90",
            quantile(&relative, 0.9),
            "yardsticks",
        );
        report.metric(
            "states_per_yardstick",
            states_per_pass / median(&pass_costs),
            "1/yardstick",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("setup_s", median(&setup_s), "s");
        return report;
    }

    // Per-layer bookkeeping of the main run, per pass over the set.
    let passes = report.passes as f64;
    let per_pass = |x: usize| x as f64 / passes;
    let s = counts.stats;
    for (name, layer) in [
        ("parse.s", Layer::Parse),
        ("convert.s", Layer::Convert),
        ("typecheck.s", Layer::Typecheck),
        ("solve.s", Layer::Solve),
        ("query.s", Layer::Query),
    ] {
        report.metric(name, meter.totals.secs(layer) / passes, "s");
    }
    report.metric("engine.states_stepped", per_pass(s.states_stepped), "count");
    report.metric("engine.reenqueued", per_pass(s.reenqueued), "count");
    report.metric("engine.rounds", per_pass(s.iterations), "count");
    report.metric("engine.peak_frontier", s.peak_frontier as f64, "count");
    report.metric(
        "engine.step_yield",
        ratio(counts.states as f64, s.states_stepped as f64),
        "ratio",
    );
    report.metric("intern.hits", per_pass(s.intern_hits), "count");
    report.metric("intern.misses", per_pass(s.intern_misses), "count");
    report.metric("intern.hit_ratio", s.intern_hit_rate(), "ratio");
    report.metric("store.joins", per_pass(s.store_joins), "count");
    report.metric(
        "store.joins_applied",
        per_pass(s.store_joins_applied),
        "count",
    );
    report.metric(
        "store.join_yield",
        ratio(s.store_joins_applied as f64, s.store_joins as f64),
        "ratio",
    );
    report.metric("store.spine_clones", per_pass(s.spine_clones), "count");
    report.metric("store.bytes_shared", s.store_bytes_shared as f64, "bytes");
    report.metric("query.flow_entries", per_pass(counts.flow_keys), "count");
    report.metric("yardstick.s", stick_s, "s");

    traced_pass(workload, &jobs, &mut report);
    report
}

/// The traced pass: every program solved untraced, then traced with spans,
/// [`TRACE_REPS`] times.  The traced solve must reproduce the untraced
/// work counters field for field.
fn traced_pass(workload: &Workload, jobs: &[Job], report: &mut Report) {
    let mut traced = Meter::traced();
    let mut plain_solve_s = 0.0;
    for _ in 0..TRACE_REPS {
        for job in jobs {
            let mut plain = Meter::default();
            let untraced = report.attempt(workload, job, &mut plain, false);
            plain_solve_s += plain.totals.secs(Layer::Solve);
            let with_spans = report.attempt(workload, job, &mut traced, false);
            if let (Some(a), Some(b)) = (untraced, with_spans) {
                if a.stats != b.stats {
                    report.fail(format!(
                        "{:?}: tracing changed the work counters: {:?} vs {:?}",
                        job.family, a.stats, b.stats
                    ));
                }
            }
        }
    }
    let rec = traced.recorder().expect("a traced meter records spans");
    let reps = TRACE_REPS as f64;
    let own = rec.self_ns();
    let (calls, branches) = rec.step_counts();
    let fold_s = traced.fold_ns as f64 * 1e-9;
    let semantics_s = own.secs(Layer::Semantics);
    let gc_s = own.secs(Layer::Gc);
    report.metric("semantics.s", semantics_s / reps, "s");
    report.metric(
        "semantics.us_per_call",
        ratio(semantics_s * 1e6, calls as f64),
        "us",
    );
    report.metric(
        "semantics.branches_per_call",
        ratio(branches as f64, calls as f64),
        "ratio",
    );
    report.metric("gc.s", gc_s / reps, "s");
    report.metric("store.fold_s", fold_s / reps, "s");
    // The engine's own work — interning, dependency closure, delta
    // extraction, bookkeeping — is the untraced solve time less the layers
    // the trace separates out.  The untraced time keeps the engine's
    // trace-only label formatting out of it.
    report.metric(
        "engine.other_s",
        (plain_solve_s - semantics_s - gc_s - fold_s) / reps,
        "s",
    );
    report.metric(
        "trace.overhead_ratio",
        ratio(traced.totals.secs(Layer::Solve), plain_solve_s),
        "ratio",
    );
    report.metric("trace.spans", rec.span_count() as f64, "count");
    report.spans_json = Some(rec.to_json());
}

/// The last line a run prints: one JSON object.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
