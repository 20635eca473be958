//! The benchmark's own checks: seeded sources, parser round trips, the
//! closed-form references against the Kleene oracle, tracing parity, the
//! memory metric, and the metric names against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::process::Command;

use perfbench::bench::{self, Config};
use perfbench::gen::{Family, Source};
use perfbench::lang::cps::CpsAnalysis;
use perfbench::lang::{cps, lambda};
use perfbench::reference;
use perfbench::workload::{Job, Workload, WORKLOADS};
use perfbench::yardstick;

fn texts(workload: &Workload, seed: u64) -> Vec<String> {
    workload
        .jobs(seed)
        .into_iter()
        .map(|job| match job.source {
            Source::Cps(text) | Source::Lambda(text) => text,
            Source::Fj(program) => program.main.to_string(),
        })
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_sources() {
    for workload in &WORKLOADS {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(
                texts(workload, seed),
                texts(workload, seed),
                "{}",
                workload.name
            );
        }
    }
}

#[test]
fn different_seeds_give_different_sources() {
    for workload in &WORKLOADS {
        let distinct: BTreeSet<Vec<String>> = (0..64).map(|seed| texts(workload, seed)).collect();
        assert_eq!(distinct.len(), 64, "{}", workload.name);
    }
}

#[test]
fn every_generated_program_round_trips_through_display() {
    for workload in &WORKLOADS {
        for seed in [0, 1] {
            for job in workload.jobs(seed) {
                match &job.source {
                    Source::Cps(text) => {
                        let p = cps::parse(text).expect("generated CPS parses");
                        assert_eq!(&p.to_string(), text);
                        assert_eq!(cps::parse(&p.to_string()).expect("reparses"), p);
                    }
                    Source::Lambda(text) => {
                        let t = lambda::parse(text).expect("generated λ parses");
                        assert_eq!(&t.to_string(), text);
                        assert_eq!(lambda::parse(&t.to_string()).expect("reparses"), t);
                    }
                    Source::Fj(_) => {}
                }
            }
        }
    }
}

/// A one-program workload, for running the oracle on small sizes.
fn small(analysis: CpsAnalysis, family: Family) -> (Workload, Job) {
    let programs: &'static [Family] = Box::leak(Box::new([family]));
    let workload = Workload {
        name: "small",
        analysis,
        programs,
    };
    let job = workload.jobs(3).remove(0);
    (workload, job)
}

#[test]
fn closed_forms_match_the_kleene_oracle_at_small_sizes() {
    let mut cases = Vec::new();
    for n in 1..=3 {
        for w in 2..=4 {
            cases.push((CpsAnalysis::Kcfa1, Family::KcfaWide { n, w }));
            cases.push((CpsAnalysis::Kcfa1Gc, Family::KcfaWide { n, w }));
        }
    }
    for n in 1..=6 {
        cases.push((CpsAnalysis::Mono, Family::IdChain(n)));
        cases.push((CpsAnalysis::Mono, Family::FanOut(n)));
        cases.push((CpsAnalysis::Kcfa1Gc, Family::GarbageChain(n)));
        cases.push((CpsAnalysis::Kcfa1, Family::LetChain(n)));
        cases.push((CpsAnalysis::Kcfa1, Family::NestedCells(n)));
    }
    for k in 1..=4 {
        cases.push((CpsAnalysis::Kcfa1, Family::ChurchAdd(k)));
        cases.push((CpsAnalysis::Kcfa1, Family::ChurchMul(k)));
        cases.push((CpsAnalysis::Kcfa1, Family::ChurchExp(k)));
    }
    for (analysis, family) in cases {
        let (workload, job) = small(analysis, family);
        let oracle = workload.oracle(&job).expect("generated sources parse");
        assert_eq!(oracle, reference::expected(family, analysis), "{family:?}");
        // The timed pipeline agrees too, concrete check included.
        let outcome = workload
            .attempt(&job, &mut Default::default(), true)
            .unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(outcome.answer, oracle, "{family:?}");
    }
}

#[test]
fn every_workload_program_matches_its_reference_and_concrete_run() {
    for workload in &WORKLOADS {
        for job in workload.jobs(0) {
            workload
                .attempt(&job, &mut Default::default(), true)
                .unwrap_or_else(|why| panic!("{}: {why}", workload.name));
        }
    }
}

fn names(report: &bench::Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn traced_runs_reproduce_the_work_counters_and_report_every_layer() {
    for workload in &WORKLOADS {
        let report = bench::run(&Config {
            workload,
            seed: 5,
            seconds: 0.0,
            trace: true,
        });
        assert!(report.correct(), "{}: {:?}", workload.name, report.errors);
        let names = names(&report);
        for name in [
            "semantics.s",
            "gc.s",
            "store.fold_s",
            "engine.other_s",
            "trace.overhead_ratio",
            "engine.states_stepped",
            "query.flow_entries",
        ] {
            assert!(names.contains(&name), "{}: no {name}", workload.name);
        }
        let spans = report.spans_json.expect("traced runs keep their spans");
        assert!(spans.contains("\"name\":\"semantics\""));
        assert!(spans.contains("\"name\":\"solve\""));
    }
}

/// The text of the repository's `BENCHMARK.json`.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json_and_back() {
    let declared = benchmark_json();
    let count = |needle: &str| declared.matches(needle).count();
    let mut printed = BTreeSet::new();
    for trace in [false, true] {
        let report = bench::run(&Config {
            workload: &WORKLOADS[1],
            seed: 0,
            seconds: 0.0,
            trace,
        });
        for m in &report.metrics {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert_eq!(count(&entry), 1, "{entry} is not declared exactly once");
            printed.insert(m.name);
        }
    }
    assert_eq!(
        count("\"unit\""),
        printed.len(),
        "a declared metric is never printed"
    );
}

fn peak_rss(workload: &str, seconds: &str) -> f64 {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "9", "--seconds", seconds])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let field = last
        .split("\"peak_rss_mb\": {\"value\": ")
        .nth(1)
        .expect("peak_rss_mb is reported");
    field[..field.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

#[test]
fn peak_rss_does_not_grow_with_run_length() {
    for workload in ["cps-wide", "lang-mix"] {
        let short = peak_rss(workload, "1");
        let long = peak_rss(workload, "2");
        assert!(
            (long - short).abs() <= 0.05 * short,
            "{workload}: peak RSS went from {short} MB to {long} MB when the run doubled"
        );
    }
}

#[test]
fn the_result_line_is_one_json_object_with_the_four_keys() {
    let report = bench::run(&Config {
        workload: &WORKLOADS[1],
        seed: 0,
        seconds: 0.0,
        trace: false,
    });
    let line = bench::result_json(&report);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(
        line.contains(", \"failed\": 0, \"metrics\": {\"latency_yardsticks.p50\": {\"value\": ")
    );
    assert!(line.ends_with("}}}"));
}

#[test]
fn yardstick_ratios_cancel_a_uniform_change_of_host_speed() {
    let walls = [4.0, 8.0, 6.0, 4.0, 8.0, 6.0, 4.0];
    let sticks = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0];
    let base = yardstick::relative(&walls, &sticks);
    assert_eq!(base, vec![4.0, 8.0, 6.0, 4.0, 8.0, 6.0, 4.0]);
    // A host running everything 1.5x slower leaves the ratios alone.
    let slow = |xs: &[f64]| xs.iter().map(|x| x * 1.5).collect::<Vec<_>>();
    assert_eq!(yardstick::relative(&slow(&walls), &slow(&sticks)), base);
    // The window is clipped at the ends and centred elsewhere.
    let long: Vec<f64> = (0..30).map(|i| if i < 15 { 1.0 } else { 3.0 }).collect();
    let ratios = yardstick::relative(&[3.0; 30], &long);
    assert_eq!(ratios[0], 3.0);
    assert_eq!(ratios[29], 1.0);
    assert_ne!(yardstick::work(), 0);
}
