//! The experiment report binary: regenerates the qualitative tables listed
//! in `EXPERIMENTS.md` (E1–E16), prints them to stdout and writes the
//! machine-readable `BENCH_report.json` next to the current directory so
//! the performance trajectory is tracked across PRs.
//!
//! Run with `cargo run -p mai-bench --release`.
//!
//! With `--check-regress`, instead of regenerating the report, the binary
//! re-measures the *deterministic* work counters (step-function invocations
//! and contribution joins per engine and workload), compares them against
//! the committed `BENCH_report.json`, and exits non-zero if any counter
//! regressed — the CI gate that keeps the engines from quietly re-doing
//! work they had stopped doing.  Timing fields (`wall_ms`, `host_cpus`,
//! `*_ms`) are recorded on every row but never gated.
//!
//! With `--trace-out <path>`, the binary instead solves one kCFA workload
//! on the sequential direct engine with the tracing sink attached, writes
//! the Chrome trace-event JSON to `<path>` (load it in Perfetto or
//! `chrome://tracing`), and self-validates the export.  With `--profile`,
//! it prints the human-readable phase/hot-spot profile of the same solve.
//!
//! `--repeat N` overrides how often each timed solve is repeated — every
//! repeated row reports the minimum (`*_ms`) wall-clock; `--check-regress`
//! still samples counters only.
//!
//! Governance knobs (E15): `--max-steps N` sets the step budget of the
//! exhaustion/resume exercise (default 32); `--deadline-ms N` additionally
//! prints a deadline-bounded solve of the largest workload (reported-only,
//! never committed — wall-clock bound outcomes are host-dependent);
//! `--cancel-after-ms N` sets the watchdog delay of the cancellation row
//! (default 2).

use std::time::Instant;

use mai_bench::report::Json;
use mai_bench::{
    cancel_latency_row, cloning_vs_shared, cps_corpus, direct_row, gc_rows, governed_row,
    host_cpus, incremental_row, interned_row, polyvariance_rows, telemetry_row, widening_row,
    worklist_row, E10_SCALE_WIDTH, PROFILE_TOP_K,
};
use mai_core::store::StoreLike;
use mai_cps::analysis::{analyse_kcfa_shared, analyse_mono};
use mai_cps::convert::cps_convert;
use mai_cps::programs::{garbage_chain, id_chain, kcfa_worst_case, kcfa_worst_case_scaled};
use mai_cps::{analyse_concrete_collecting, interpret_with_limit, PState};
use mai_fj::analysis::result_classes;
use mai_lambda::decode_church_numeral;

fn heading(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// E1 — adequacy: the concrete interpreter and the fresh-address concrete
/// collecting semantics agree on termination for the terminating corpus.
fn experiment_adequacy() {
    heading("E1  concrete interpreter vs. concrete collecting semantics");
    for (name, program) in cps_corpus() {
        let concrete = interpret_with_limit(&program, 2_000);
        let collecting = analyse_concrete_collecting(&program, 128);
        let collecting_halts = collecting
            .value()
            .distinct_states()
            .iter()
            .any(PState::is_final);
        println!(
            "{name:<18} concrete-halts={:<5} collecting-halts={:<5} collecting-converged={}",
            concrete.halted(),
            collecting_halts,
            collecting.converged()
        );
    }
}

/// E2 — polyvariance sweep (0CFA / 1CFA / 2CFA).
fn experiment_polyvariance() -> Vec<Json> {
    heading("E2  polyvariance sweep (shared store)");
    let mut rows = Vec::new();
    for (name, program) in cps_corpus() {
        for row in polyvariance_rows(name, &program) {
            println!("{}", row.render());
            rows.push(row.to_json());
        }
    }
    rows
}

/// E3 — heap cloning vs. shared-store widening.
fn experiment_cloning() {
    heading("E3  per-state (heap-cloning) vs. shared-store configurations");
    for n in [2usize, 3, 4, 5] {
        let chain = id_chain(n);
        let (cloned, shared) = cloning_vs_shared(&chain);
        println!("id-chain-{n:<2}        cloned={cloned:<7} shared={shared:<7}");
    }
    for n in [1usize, 2, 3] {
        let worst = kcfa_worst_case(n);
        let (cloned, shared) = cloning_vs_shared(&worst);
        println!("kcfa-worst-{n:<2}      cloned={cloned:<7} shared={shared:<7}");
    }
}

/// E4 — abstract counting.
fn experiment_counting() {
    heading("E4  abstract counting (per-state counting store)");
    for (name, program) in cps_corpus() {
        let counted = mai_cps::analysis::analyse_kcfa_count_cloned::<1>(&program);
        let mut single = 0usize;
        let mut total = 0usize;
        for (_, store) in counted.iter() {
            single += store.single_count();
            total += store.addresses().len();
        }
        println!("{name:<18} singleton-count-certificates={single:<6} of {total}");
    }
}

/// E5 — abstract garbage collection.
fn experiment_gc() {
    heading("E5  abstract garbage collection (1CFA, shared store)");
    for n in [4usize, 6, 8] {
        let program = garbage_chain(n);
        for row in gc_rows("garbage-chain", &program) {
            println!("n={n:<3} {}", row.render());
        }
    }
}

/// E6 — the same monadic parameters drive all three languages.
fn experiment_reuse() {
    heading("E6  cross-language reuse of the monadic parameters");
    let cps_program = cps_convert(&mai_lambda::programs::church_multiplication(2, 2));
    let cps_result = analyse_mono(&cps_program);
    println!(
        "CPS     0CFA on church 2×2: {} states",
        cps_result.distinct_states().len()
    );
    let cesk_result = mai_lambda::analyse_mono(&mai_lambda::programs::church_multiplication(2, 2));
    println!(
        "CESK    0CFA on church 2×2: {} states",
        cesk_result.distinct_states().len()
    );
    let fj_result = mai_fj::analyse_mono(&mai_fj::programs::two_cells());
    println!(
        "FJ      0CFA on two-cells : {} states, result classes {:?}",
        fj_result.distinct_states().len(),
        result_classes(&fj_result)
    );
    println!(
        "church 2×2 decodes concretely to {}",
        decode_church_numeral(&mai_lambda::programs::church_multiplication(2, 2))
    );
}

/// E7 — classical expected CFA results.
fn experiment_classic() {
    heading("E7  textbook flow sets");
    let fan = mai_cps::programs::fan_out(5);
    let mono = analyse_mono(&fan);
    let one = analyse_kcfa_shared::<1>(&fan);
    let mono_flows = mai_cps::flow_map_of_store(mono.store());
    let x = mai_core::Name::from("x");
    println!(
        "fan-out-5: |0CFA flow set of x| = {} (expected 5), 1CFA singleton addresses = {}",
        mono_flows[&x].len(),
        mai_cps::AnalysisMetrics::of_shared(&one).singleton_flows
    );
}

/// E8 — the frontier-driven worklist engine vs. naive Kleene iteration:
/// identical fixpoints, strictly fewer step-function invocations.
fn experiment_worklist() -> Vec<Json> {
    heading("E8  worklist engine vs. Kleene iteration (1CFA, shared store)");
    let mut rows = Vec::new();
    for (name, program) in cps_corpus() {
        let row = worklist_row(name, &program);
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    for (n, name) in [(3usize, "kcfa-worst-3"), (4, "kcfa-worst-4")] {
        let program = kcfa_worst_case(n);
        let row = worklist_row(name, &program);
        println!("n={n:<3} {}", row.render());
        println!("     engine: {}", row.stats);
        rows.push(row.to_json());
    }
    rows
}

/// E9 — the incremental accumulator engine vs. the PR-1 rescanning engine:
/// identical fixpoints, O(|frontier|) instead of O(|states|) contribution
/// joins per round.
fn experiment_incremental() -> Vec<Json> {
    heading("E9  incremental accumulator vs. PR-1 rescanning engine (1CFA, shared store)");
    let mut rows = Vec::new();
    for (name, program) in cps_corpus() {
        let row = incremental_row(name, &program);
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    for (n, name) in [(3usize, "kcfa-worst-3"), (4, "kcfa-worst-4")] {
        let program = kcfa_worst_case(n);
        let row = incremental_row(name, &program);
        println!("n={n:<3} {}", row.render());
        println!("     incremental: {}", row.incremental);
        println!("     rescan:      {}", row.rescan);
        rows.push(row.to_json());
    }
    rows
}

/// The E10 workload list: the benchmark corpus plus the scaled k-CFA
/// worst-case family at the depths where wall-clock differences are
/// visible.  Shared by the report and by `--check-regress` so the two
/// always measure the same rows.
fn e10_workloads() -> Vec<(String, mai_cps::syntax::CExp, usize)> {
    let mut workloads: Vec<(String, mai_cps::syntax::CExp, usize)> = cps_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_string(), program, 5))
        .collect();
    workloads.push(("kcfa-worst-4".to_string(), kcfa_worst_case(4), 5));
    for n in 3..=6 {
        workloads.push((
            format!("kcfa-worst-{n}w{E10_SCALE_WIDTH}"),
            kcfa_worst_case_scaled(n, E10_SCALE_WIDTH),
            5,
        ));
    }
    workloads
}

/// E10 — the id-indexed (hash-consed) engine vs. the PR-2 structural-key
/// incremental engine: identical fixpoints, O(1) state identity.
fn experiment_interned() -> Vec<Json> {
    heading(
        "E10  id-indexed (interned) engine vs. structural incremental engine (1CFA, shared store)",
    );
    let mut rows = Vec::new();
    for (name, program, repeats) in e10_workloads() {
        let row = interned_row(name, &program, repeat_count(repeats));
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// The value of a `--flag value` style argument, if present.
fn string_arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of a `--flag N` style argument, if present.
fn numeric_arg(flag: &str) -> Option<usize> {
    string_arg(flag).and_then(|v| v.parse().ok())
}

/// The `--repeat` override: how often each timed solve is repeated
/// (defaults to the section's own repeat count when absent).
fn repeat_count(default: usize) -> usize {
    numeric_arg("--repeat").unwrap_or(default).max(1)
}

/// The `--max-steps` knob: the step budget of the E15 exhaustion/resume
/// exercise (default 32 — small enough to bite on every corpus workload).
fn max_steps_budget() -> usize {
    numeric_arg("--max-steps").unwrap_or(32).max(1)
}

/// The `--cancel-after-ms` knob: the watchdog delay of the E15
/// cancellation row (default 2ms).
fn cancel_after() -> std::time::Duration {
    std::time::Duration::from_millis(numeric_arg("--cancel-after-ms").unwrap_or(2) as u64)
}

/// The E13 workload list: the scaled k-CFA worst-case lanes family at the
/// acceptance depths.
fn e13_workloads() -> Vec<(String, mai_cps::syntax::CExp)> {
    (3..=6)
        .map(|n| {
            (
                format!("kcfa-worst-{n}w{E10_SCALE_WIDTH}"),
                kcfa_worst_case_scaled(n, E10_SCALE_WIDTH),
            )
        })
        .collect()
}

/// E13 — engine telemetry: the sequential direct engine solved with the
/// tracing sink attached, on the kCFA lanes family.  Tracing is pure
/// observation — each row asserts the traced solve reproduces the
/// untraced fixpoint and work counters bit-for-bit — and the committed
/// per-round profiles decompose every round's wall-clock into step and
/// join time, with the hot-spot attribution.  All of it is reported-only:
/// `--check-regress` gates nothing in this section.
fn experiment_telemetry() -> Json {
    heading("E13  engine telemetry (traced direct engine, 1CFA, shared store)");
    println!("host cpus: {}", host_cpus());
    let mut rows = Vec::new();
    for (name, program) in e13_workloads() {
        let row = telemetry_row(name, &program);
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    Json::obj([
        ("host_cpus", Json::Int(host_cpus() as u64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The E15 workload list: the benchmark corpus plus the two largest k-CFA
/// worst cases, where the default 32-step budget genuinely exhausts and
/// the resume chain runs several links long.  Shared by the report and by
/// `--check-regress`.
fn e15_workloads() -> Vec<(String, mai_cps::syntax::CExp)> {
    let mut workloads: Vec<(String, mai_cps::syntax::CExp)> = cps_corpus()
        .into_iter()
        .map(|(name, program)| (name.to_string(), program))
        .collect();
    workloads.push(("kcfa-worst-4".to_string(), kcfa_worst_case(4)));
    workloads.push((
        format!("kcfa-worst-4w{E10_SCALE_WIDTH}"),
        kcfa_worst_case_scaled(4, E10_SCALE_WIDTH),
    ));
    workloads
}

/// E15 — governed engines: governed-off parity (unlimited budgets are
/// byte-identical to the classic engines, counters included — asserted,
/// and the `governed` counters plus the deterministic `resume_links` are
/// regression-gated), and step-budgeted solves resumed link by link onto
/// the one-shot fixpoint.  A cancellation row follows: a watchdog thread
/// cancels a governed solve after `--cancel-after-ms`, and the solve must
/// either complete first or stop with `Exhausted(Cancelled)` — a hang or a
/// mangled outcome fails the report.  With `--deadline-ms N`, additionally
/// prints a deadline-bounded solve of the largest workload.  The
/// cancellation and deadline rows are reported-only and never committed,
/// because wall-clock-bound outcomes depend on the host.
fn experiment_governed() -> Vec<Json> {
    let max_steps = max_steps_budget();
    heading("E15  governed engines: budgets, resume, parity (1CFA, shared store)");
    let mut rows = Vec::new();
    for (name, program) in e15_workloads() {
        let row = governed_row(name.clone(), &program, max_steps);
        assert!(row.parity, "{name}: governed-off parity broke");
        assert!(row.resumed_equal, "{name}: resume diverged from one-shot");
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    let program = kcfa_worst_case_scaled(3, E10_SCALE_WIDTH);
    let cancel = cancel_latency_row(
        format!("kcfa-worst-3w{E10_SCALE_WIDTH}"),
        &program,
        cancel_after(),
    );
    println!("{}", cancel.render());
    assert!(cancel.ok(), "the governed solve ignored its cancel token");
    if let Some(ms) = numeric_arg("--deadline-ms") {
        use mai_core::engine::Budget;
        let program = kcfa_worst_case_scaled(4, E10_SCALE_WIDTH);
        let budget = Budget::unlimited().with_timeout(std::time::Duration::from_millis(ms as u64));
        let start = Instant::now();
        let (outcome, stats) =
            mai_cps::analysis::analyse_kcfa_shared_governed::<1>(&program, &budget);
        println!(
            "deadline demo      kcfa-worst-4w{E10_SCALE_WIDTH} deadline={ms}ms wall={:<8.2?} \
             rounds={:<4} outcome={} (reported-only)",
            start.elapsed(),
            stats.iterations,
            outcome
                .exhaust_reason()
                .map_or("complete", mai_core::engine::ExhaustReason::as_str),
        );
    }
    rows
}

/// The E16 step budget of the join-only solve: deep enough that the
/// shallow capped chain completes under plain join, shallow enough that
/// the unbounded and deep-capped chains visibly starve it.
const E16_STEP_BUDGET: usize = 64;

/// The E16 workload list: the unbounded counting loop (latent
/// non-termination — join-only iteration must starve the step budget), a
/// shallow capped chain (join-only completes; pins the precision the
/// narrowing pass must recover) and a deep capped chain (finite height,
/// but join-only needs `Θ(cap)` rounds where widening needs `Θ(1)`).
/// Shared by the report and by `--check-regress`.
fn e16_workloads() -> Vec<(String, Option<i64>)> {
    vec![
        ("count-unbounded".to_string(), None),
        ("count-cap-12".to_string(), Some(12)),
        ("count-cap-4096".to_string(), Some(4096)),
    ]
}

/// E16 — widening on the infinite-height interval domain: join-only
/// budget starvation vs. widened convergence with narrowing, and carrier
/// parity.  The widened counters are regression-gated.
fn experiment_widening() -> Vec<Json> {
    heading("E16  widening: interval counting loops, chain depth vs. widening points");
    let mut rows = Vec::new();
    for (name, cap) in e16_workloads() {
        let row = widening_row(name.clone(), cap, E16_STEP_BUDGET);
        assert!(row.carrier_parity, "{name}: Rc carrier diverged");
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// The `--widening-canary` mode: the CI non-termination canary.  Solves
/// the unbounded counting loop join-only under a step budget — it must
/// stop with a *clean* `StepBudget` exhaustion, never hang — and then
/// with engine widening points, where the same loop must complete.  Both
/// legs run under the workflow's `timeout-minutes` backstop, so a
/// regression in either the budget plumbing or the widening-point
/// selection turns into a red build, not a stalled runner.
fn widening_canary() -> std::process::ExitCode {
    use mai_core::engine::{Budget, WidenPolicy};
    use mai_core::{DirectCollecting, SolveFrom};
    type IS = mai_core::store::IntervalStore<u8>;
    println!("Monadic Abstract Interpreters — widening canary (unbounded interval loop)");
    let step = mai_bench::counting_step(None);

    let fuel = Budget::unlimited().with_max_steps(E16_STEP_BUDGET);
    let (join_only, stats) = <mai_bench::WideningDomain as DirectCollecting<
        mai_bench::CountState,
        u64,
        IS,
    >>::explore_frontier_governed(
        &step, SolveFrom::Fresh(mai_bench::CountState(0)), &fuel
    );
    println!(
        "join-only   budget={E16_STEP_BUDGET} steps={} outcome={}",
        stats.states_stepped,
        join_only
            .exhaust_reason()
            .map_or("complete", mai_core::engine::ExhaustReason::as_str),
    );
    if join_only.exhaust_reason() != Some(mai_core::engine::ExhaustReason::StepBudget) {
        eprintln!("canary failed: join-only iteration did not starve the step budget cleanly");
        return std::process::ExitCode::FAILURE;
    }

    let widened = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
    let (outcome, stats) = <mai_bench::WideningDomain as DirectCollecting<
        mai_bench::CountState,
        u64,
        IS,
    >>::explore_frontier_governed(
        &step, SolveFrom::Fresh(mai_bench::CountState(0)), &widened
    );
    println!(
        "widened     widens={} steps={} outcome={}",
        stats.widen_applied,
        stats.states_stepped,
        outcome
            .exhaust_reason()
            .map_or("complete", mai_core::engine::ExhaustReason::as_str),
    );
    if !outcome.is_complete() {
        eprintln!("canary failed: widening points did not force convergence");
        return std::process::ExitCode::FAILURE;
    }
    let bound = outcome.into_complete().store().fetch(&0u8);
    println!("loop-head counter bound: {bound}");
    if bound != mai_core::lattice::Interval::at_least(0) {
        eprintln!("canary failed: widened bound is not [0, +∞)");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

/// The traced workload behind `--trace-out` and `--profile`: one solve of
/// the E13 acceptance program on the sequential direct engine.
fn traced_acceptance_solve() -> mai_bench::TelemetryRow {
    let program = kcfa_worst_case_scaled(4, E10_SCALE_WIDTH);
    telemetry_row(format!("kcfa-worst-4w{E10_SCALE_WIDTH}"), &program)
}

/// The `--trace-out <path>` mode: writes the Chrome trace-event JSON of
/// one traced direct-engine solve to `path`, then self-validates the
/// export — it must parse back and contain at least one slice for each
/// phase category (`step`, `join`).  Non-zero exit otherwise, so CI can
/// smoke the whole telemetry path.
fn trace_out(path: &str) -> std::process::ExitCode {
    let row = traced_acceptance_solve();
    println!("Monadic Abstract Interpreters — Chrome trace export (direct engine)");
    println!("{}", row.render());
    if !row.equal {
        eprintln!("traced fixpoint diverged from the untraced solve");
        return std::process::ExitCode::FAILURE;
    }
    let chrome = row.trace.chrome_trace_json();
    if let Err(err) = std::fs::write(path, &chrome) {
        eprintln!("failed to write {path}: {err}");
        return std::process::ExitCode::FAILURE;
    }
    let parsed = match Json::parse(&chrome) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("exported trace is not valid JSON: {err}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let events = parsed.get("traceEvents").map(Json::items).unwrap_or(&[]);
    let count = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
            .count()
    };
    println!(
        "wrote {path}: {} events (step={} join={})",
        events.len(),
        count("step"),
        count("join"),
    );
    for cat in ["step", "join"] {
        if count(cat) == 0 {
            eprintln!("exported trace has no '{cat}' events");
            return std::process::ExitCode::FAILURE;
        }
    }
    std::process::ExitCode::SUCCESS
}

/// The `--profile` mode: prints the human-readable phase split and
/// hot-spot attribution of one traced direct-engine solve.
fn profile() -> std::process::ExitCode {
    let row = traced_acceptance_solve();
    println!("Monadic Abstract Interpreters — engine profile (direct engine)");
    println!("{}", row.render());
    print!("{}", row.trace.profile_summary(PROFILE_TOP_K));
    if row.equal {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!("traced fixpoint diverged from the untraced solve");
        std::process::ExitCode::FAILURE
    }
}

/// E11 — the direct-style carrier on the persistent store spine vs. the
/// PR-3 interned engine on the `Rc`-closure carrier: identical fixpoints
/// and identical work counters, no `Rc<dyn Fn>` allocation per bind.
fn experiment_persistent() -> Vec<Json> {
    heading(
        "E11  direct-style carrier (persistent spine) vs. Rc-closure interned engine \
         (1CFA, shared store)",
    );
    let mut rows = Vec::new();
    for (name, program, repeats) in e10_workloads() {
        let row = direct_row(name, &program, repeat_count(repeats));
        println!("{}", row.render());
        rows.push(row.to_json());
    }
    rows
}

/// One deterministic counter of one engine row: `(section, program,
/// counter-path, fresh value)`.  `higher_is_better` selects the regression
/// direction: most counters measure *work* (growth regresses), the
/// structural-sharing byte counter measures *savings* (shrinkage
/// regresses).
type CounterSample = (&'static str, String, &'static str, u64);

/// Every counter path the regression gate samples, by report section.
/// Every `EngineStats` field is deterministic, so any of them may be
/// gated.  Reported-only fields — `wall_ms`, `host_cpus`, the `*_ms`
/// timings and the whole `e13_engine_telemetry` section — are deliberately
/// absent: the gate pins *work*, never wall-clock, and a unit test keeps
/// timing fields from creeping in.
const GATED_COUNTER_PATHS: &[(&str, &[&str])] = &[
    (
        "e8_worklist_vs_kleene",
        &[
            "kleene_steps",
            "engine.states_stepped",
            "engine.store_joins",
            "engine.widen_applied",
        ],
    ),
    (
        "e9_incremental_vs_rescan",
        &[
            "incremental.states_stepped",
            "incremental.store_joins",
            "incremental.widen_applied",
            "rescan.states_stepped",
            "rescan.store_joins",
            "rescan.widen_applied",
        ],
    ),
    (
        "e10_interned_vs_structural",
        &[
            "interned.states_stepped",
            "interned.store_joins",
            "interned.widen_applied",
            "structural.states_stepped",
            "structural.store_joins",
            "structural.widen_applied",
        ],
    ),
    (
        "e11_persistent_vs_interned",
        &[
            "direct.states_stepped",
            "direct.store_joins",
            "direct.widen_applied",
            "direct.spine_clones",
            "direct.store_bytes_shared",
        ],
    ),
    (
        "e15_governed",
        &[
            "governed.states_stepped",
            "governed.store_joins",
            "governed.widen_applied",
            "resume_links",
        ],
    ),
    (
        "e16_widening",
        &[
            "widened.states_stepped",
            "widened.store_joins_applied",
            "widened.widen_applied",
        ],
    ),
];

/// The gated counter paths of one section.
fn section_paths(section: &str) -> &'static [&'static str] {
    GATED_COUNTER_PATHS
        .iter()
        .find(|(s, _)| *s == section)
        .map(|(_, paths)| *paths)
        .unwrap_or_else(|| panic!("section {section} has no gated counters"))
}

/// Samples every gated counter of one freshly measured row, reading the
/// values out of the row's own JSON rendering — the same representation
/// `--check-regress` walks in the committed report, so the fresh and
/// committed sides cannot drift apart.
fn sample_row(samples: &mut Vec<CounterSample>, section: &'static str, key: String, row: &Json) {
    for path in section_paths(section) {
        let value = committed_counter(row, path)
            .unwrap_or_else(|| panic!("{section}/{key}: fresh row misses gated counter {path}"));
        samples.push((section, key.clone(), path, value));
    }
}

/// Whether a larger fresh value is the good direction for this counter.
fn higher_is_better(counter: &str) -> bool {
    counter.ends_with("store_bytes_shared")
}

/// Reads `row.engine.states_stepped`-style nested counters out of a parsed
/// report row.
fn committed_counter(row: &Json, path: &str) -> Option<u64> {
    let mut value = row;
    for part in path.split('.') {
        value = value.get(part)?;
    }
    value.as_u64()
}

/// Measures every deterministic engine counter the report tracks, without
/// printing the tables.
fn fresh_counters() -> Vec<CounterSample> {
    let mut samples: Vec<CounterSample> = Vec::new();
    let mut corpus = cps_corpus();
    corpus.push(("kcfa-worst-3", kcfa_worst_case(3)));
    corpus.push(("kcfa-worst-4", kcfa_worst_case(4)));
    // E8: Kleene step counts and worklist engine counters.
    for (name, program) in &corpus {
        let row = worklist_row(name, program);
        assert!(row.equal, "{name}: worklist fixpoint differs from Kleene");
        sample_row(
            &mut samples,
            "e8_worklist_vs_kleene",
            name.to_string(),
            &row.to_json(),
        );
    }
    // E9: incremental vs. rescanning counters.
    for (name, program) in &corpus {
        let row = incremental_row(name, program);
        assert!(
            row.equal,
            "{name}: incremental fixpoint differs from rescan"
        );
        sample_row(
            &mut samples,
            "e9_incremental_vs_rescan",
            name.to_string(),
            &row.to_json(),
        );
    }
    // E11: direct-carrier counters (work + structural sharing).  The work
    // counters must also *match* the Rc carrier's — the solver is shared —
    // which pins the carriers to each other, not just to the baseline.
    for (name, program, _) in e10_workloads() {
        let row = direct_row(name.clone(), &program, 1);
        assert!(row.equal, "{name}: direct fixpoint differs from Rc carrier");
        assert_eq!(
            (
                row.rc.states_stepped,
                row.rc.store_joins,
                row.rc.spine_clones
            ),
            (
                row.direct.states_stepped,
                row.direct.store_joins,
                row.direct.spine_clones
            ),
            "{name}: carriers disagree on work counters"
        );
        sample_row(
            &mut samples,
            "e11_persistent_vs_interned",
            name,
            &row.to_json(),
        );
    }
    // E10: id-indexed vs. structural counters.
    for (name, program, _) in e10_workloads() {
        let row = interned_row(name.clone(), &program, 1);
        assert!(
            row.equal,
            "{name}: interned fixpoint differs from structural"
        );
        sample_row(
            &mut samples,
            "e10_interned_vs_structural",
            name,
            &row.to_json(),
        );
    }
    // E15: governed-engine counters.  `governed_row` runs the unlimited
    // budget (parity with the classic engines — counters included) and the
    // step-budgeted resume chain; both invariants are asserted here, and
    // the governed work counters plus the deterministic resume-link count
    // are pinned to the committed baseline.
    for (name, program) in e15_workloads() {
        let row = governed_row(name.clone(), &program, max_steps_budget());
        assert!(row.parity, "{name}: governed-off parity broke");
        assert!(row.resumed_equal, "{name}: resume diverged from one-shot");
        sample_row(&mut samples, "e15_governed", name, &row.to_json());
    }
    // E16: widened-solve counters.  Widening points make the governed
    // engine's work deterministic, so the gate pins it; carrier parity is
    // asserted here just as in the report.
    for (name, cap) in e16_workloads() {
        let row = widening_row(name.clone(), cap, E16_STEP_BUDGET);
        assert!(row.carrier_parity, "{name}: Rc carrier diverged");
        sample_row(&mut samples, "e16_widening", name, &row.to_json());
    }
    samples
}

/// The `--check-regress` mode: compares freshly measured deterministic
/// counters against the committed `BENCH_report.json`.  Exits non-zero on
/// any counter that grew (the engine does *more* work than the committed
/// baseline); counters that shrank are reported as improvements and pass
/// (regenerate the report to lock them in).
fn check_regress() -> std::process::ExitCode {
    println!("Monadic Abstract Interpreters — counter regression check");
    let path = "BENCH_report.json";
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(json) => json,
            Err(err) => {
                eprintln!("failed to parse {path}: {err}");
                return std::process::ExitCode::FAILURE;
            }
        },
        Err(err) => {
            eprintln!("failed to read {path}: {err}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut missing = 0usize;
    for (section, program, counter, fresh) in fresh_counters() {
        let baseline = committed
            .get(section)
            .and_then(|rows| {
                rows.items()
                    .iter()
                    .find(|row| row.get("program").and_then(Json::as_str) == Some(&program))
            })
            .and_then(|row| committed_counter(row, counter));
        match baseline {
            Some(committed_value) if fresh != committed_value => {
                // `store_bytes_shared` regresses when sharing *shrinks*;
                // every work counter regresses when it *grows*.
                let regressed = if higher_is_better(counter) {
                    fresh < committed_value
                } else {
                    fresh > committed_value
                };
                if regressed {
                    regressions += 1;
                    println!(
                        "REGRESSION  {section}/{program} {counter}: {fresh} vs committed {committed_value}"
                    );
                } else {
                    improvements += 1;
                    println!(
                        "improved    {section}/{program} {counter}: {fresh} vs committed {committed_value}"
                    );
                }
            }
            Some(_) => {}
            None => {
                missing += 1;
                println!(
                    "new row     {section}/{program} {counter}: {fresh} (no committed baseline)"
                );
            }
        }
    }
    println!(
        "\ncheck-regress: {regressions} regression(s), {improvements} improvement(s), {missing} new counter(s)"
    );
    if regressions > 0 {
        println!("step/join counters regressed — investigate, or regenerate BENCH_report.json if intentional");
        std::process::ExitCode::FAILURE
    } else {
        if improvements > 0 {
            println!(
                "counters improved — regenerate BENCH_report.json to lock the new baseline in"
            );
        }
        std::process::ExitCode::SUCCESS
    }
}

fn main() -> std::process::ExitCode {
    if std::env::args().any(|arg| arg == "--check-regress") {
        return check_regress();
    }
    if std::env::args().any(|arg| arg == "--widening-canary") {
        return widening_canary();
    }
    if let Some(path) = string_arg("--trace-out") {
        return trace_out(&path);
    }
    if std::env::args().any(|arg| arg == "--profile") {
        return profile();
    }
    let started = Instant::now();
    println!("Monadic Abstract Interpreters — experiment report");
    experiment_adequacy();
    let polyvariance = experiment_polyvariance();
    experiment_cloning();
    experiment_counting();
    experiment_gc();
    experiment_reuse();
    experiment_classic();
    let worklist = experiment_worklist();
    let incremental = experiment_incremental();
    let interned = experiment_interned();
    let persistent = experiment_persistent();
    let telemetry = experiment_telemetry();
    let governed = experiment_governed();
    let widening = experiment_widening();

    let report = Json::obj([
        ("schema_version", Json::Int(9)),
        (
            "report_wall_clock_ms",
            Json::Num(started.elapsed().as_secs_f64() * 1e3),
        ),
        ("e2_polyvariance", Json::Arr(polyvariance)),
        ("e8_worklist_vs_kleene", Json::Arr(worklist)),
        ("e9_incremental_vs_rescan", Json::Arr(incremental)),
        ("e10_interned_vs_structural", Json::Arr(interned)),
        ("e11_persistent_vs_interned", Json::Arr(persistent)),
        ("e13_engine_telemetry", telemetry),
        ("e15_governed", Json::Arr(governed)),
        ("e16_widening", Json::Arr(widening)),
    ]);
    let path = "BENCH_report.json";
    match std::fs::write(path, report.render() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("\nfailed to write {path}: {err}"),
    }
    println!("done.");
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite guarantee behind `wall_ms`/`host_cpus`: the
    /// regression gate samples *work* counters only.  No gated path may
    /// name a timing or host field, and the telemetry section is never
    /// gated at all.
    #[test]
    fn regress_gate_never_samples_timing_fields() {
        for (section, paths) in GATED_COUNTER_PATHS {
            assert_ne!(
                *section, "e13_engine_telemetry",
                "the telemetry section is reported-only"
            );
            for path in *paths {
                for part in path.split('.') {
                    assert!(
                        part != "wall_ms" && part != "host_cpus" && !part.ends_with("_ms"),
                        "{section}: gated counter path {path} samples a timing field"
                    );
                }
            }
        }
    }

    /// Every gated path resolves inside the JSON rendering its section's
    /// row type produces — a path typo would otherwise only surface as a
    /// panic in the (slow) `--check-regress` mode.
    #[test]
    fn gated_paths_resolve_in_fresh_rows() {
        let program = mai_cps::programs::kcfa_worst_case_scaled(2, 3);
        let rows: Vec<(&str, Json)> = vec![
            (
                "e8_worklist_vs_kleene",
                worklist_row("w", &program).to_json(),
            ),
            (
                "e9_incremental_vs_rescan",
                incremental_row("w", &program).to_json(),
            ),
            (
                "e10_interned_vs_structural",
                interned_row("w", &program, 1).to_json(),
            ),
            (
                "e11_persistent_vs_interned",
                direct_row("w", &program, 1).to_json(),
            ),
            ("e15_governed", governed_row("w", &program, 8).to_json()),
            ("e16_widening", widening_row("w", Some(12), 64).to_json()),
        ];
        for (section, row) in rows {
            for path in section_paths(section) {
                assert!(
                    committed_counter(&row, path).is_some(),
                    "{section}: gated path {path} does not resolve"
                );
            }
        }
    }
}
