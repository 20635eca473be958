//! Tracing is observation, never behaviour: the on/off parity suite.
//!
//! Every fixpoint engine — Kleene iteration (`explore_fp`), the
//! rescanning and structural worklist engines, the id-indexed incremental
//! engine and the direct-carrier engine — has a `_traced` entry point that threads a
//! [`TraceSink`](monadic_ai::core::telemetry::TraceSink) through the
//! solve.  The telemetry layer's central guarantee is that the sink is
//! write-only: attaching a recording [`TraceBuffer`] must reproduce the
//! untraced fixpoint **and** the untraced [`EngineStats`] bit-for-bit,
//! while still delivering one [`RoundTrace`] per solver round.  These
//! tests assert that parity over the kCFA workload family, across all
//! three language substrates, and validate the Chrome trace-event export
//! schema end to end.
//!
//! [`TraceBuffer`]: monadic_ai::core::telemetry::TraceBuffer
//! [`RoundTrace`]: monadic_ai::core::telemetry::RoundTrace

use monadic_ai::core::collect::{explore_fp, explore_fp_traced};
use monadic_ai::core::engine::{
    explore_worklist_rescan_stats, explore_worklist_rescan_traced_stats, explore_worklist_stats,
    explore_worklist_structural_stats, explore_worklist_structural_traced_stats,
    explore_worklist_traced_stats, EngineStats,
};
use monadic_ai::core::telemetry::TraceBuffer;
use monadic_ai::core::{KCallAddr, KCallCtx, SharedStoreDomain, StorePassing};
use monadic_ai::cps::analysis::KStore;
use monadic_ai::cps::programs::{id_chain, kcfa_worst_case, kcfa_worst_case_scaled};
use monadic_ai::cps::PState;
use monadic_ai::{cps, fj, lambda};

type Ctx = KCallCtx<1>;
type M = StorePassing<Ctx, KStore>;
type Domain = SharedStoreDomain<PState<KCallAddr>, Ctx, KStore>;

/// The workloads the parity suite sweeps: a monotone chain, the kCFA
/// worst case and its widened (rebuild-triggering) scaled variant.
fn corpus() -> Vec<monadic_ai::cps::syntax::CExp> {
    vec![
        id_chain(3),
        kcfa_worst_case(2),
        kcfa_worst_case_scaled(2, 4),
    ]
}

/// One round record per solver round, whose joins and rebuild flags add
/// up to the engine's counters.
fn assert_sequential_rounds(trace: &TraceBuffer, stats: &EngineStats, label: &str) {
    assert_eq!(
        trace.rounds.len(),
        stats.iterations,
        "{label}: one RoundTrace per solver round"
    );
    assert_eq!(
        trace.rounds.iter().map(|r| r.joins).sum::<usize>(),
        stats.store_joins,
        "{label}: per-round joins sum to the engine counter"
    );
    assert_eq!(
        trace.rounds.iter().filter(|r| r.rebuild).count(),
        stats.rebuild_rounds,
        "{label}: rebuild rounds are flagged"
    );
}

#[test]
fn kleene_traced_matches_untraced() {
    for program in corpus() {
        let untraced: Domain =
            explore_fp::<M, _, _, _>(cps::mnext::<M, KCallAddr>, PState::inject(program.clone()));
        let mut trace = TraceBuffer::new();
        let traced: Domain = explore_fp_traced::<M, _, _, _, _>(
            cps::mnext::<M, KCallAddr>,
            PState::inject(program),
            &mut trace,
        );
        assert_eq!(traced, untraced, "Kleene fixpoint changed under tracing");
        assert!(!trace.rounds.is_empty());
        // Kleene re-steps the whole domain each round, so the frontier is
        // the domain size and grows monotonically.
        let frontiers: Vec<usize> = trace.rounds.iter().map(|r| r.frontier).collect();
        assert!(frontiers.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*frontiers.last().unwrap(), untraced.len());
    }
}

#[test]
fn worklist_engines_traced_match_untraced() {
    for program in corpus() {
        let inject = || PState::inject(program.clone());
        let step = cps::mnext::<M, KCallAddr>;

        let (untraced, stats): (Domain, _) = explore_worklist_stats::<M, _, _, _>(step, inject());
        let mut trace = TraceBuffer::new();
        let (traced, traced_stats): (Domain, _) =
            explore_worklist_traced_stats::<M, _, _, _, _>(step, inject(), &mut trace);
        assert_eq!(traced, untraced, "interned fixpoint changed under tracing");
        assert_eq!(traced_stats, stats, "interned stats changed under tracing");
        assert_sequential_rounds(&trace, &stats, "interned");

        let (untraced, stats): (Domain, _) =
            explore_worklist_rescan_stats::<M, _, _, _>(step, inject());
        let mut trace = TraceBuffer::new();
        let (traced, traced_stats): (Domain, _) =
            explore_worklist_rescan_traced_stats::<M, _, _, _, _>(step, inject(), &mut trace);
        assert_eq!(traced, untraced, "rescan fixpoint changed under tracing");
        assert_eq!(traced_stats, stats, "rescan stats changed under tracing");
        assert_sequential_rounds(&trace, &stats, "rescan");

        let (untraced, stats): (Domain, _) =
            explore_worklist_structural_stats::<M, _, _, _>(step, inject());
        let mut trace = TraceBuffer::new();
        let (traced, traced_stats): (Domain, _) =
            explore_worklist_structural_traced_stats::<M, _, _, _, _>(step, inject(), &mut trace);
        assert_eq!(
            traced, untraced,
            "structural fixpoint changed under tracing"
        );
        assert_eq!(
            traced_stats, stats,
            "structural stats changed under tracing"
        );
        assert_sequential_rounds(&trace, &stats, "structural");
    }
}

#[test]
fn direct_engine_traced_matches_untraced_across_languages() {
    let program = kcfa_worst_case_scaled(2, 4);
    let (untraced, stats) = cps::analysis::analyse_kcfa_shared_direct::<1>(&program);
    let mut trace = TraceBuffer::new();
    let (traced, traced_stats) =
        cps::analysis::analyse_kcfa_shared_direct_traced::<1, _>(&program, &mut trace);
    assert_eq!(traced, untraced, "cps: direct fixpoint changed");
    assert_eq!(traced_stats, stats, "cps: direct stats changed");
    assert_sequential_rounds(&trace, &stats, "cps/direct");
    // The direct engine attributes step cost per interned state.
    assert!(!trace.top_states(4).is_empty());

    let term = lambda::programs::church_multiplication(2, 2);
    let (untraced, stats) = lambda::analysis::analyse_kcfa_shared_direct::<1>(&term);
    let mut trace = TraceBuffer::new();
    let (traced, traced_stats) =
        lambda::analysis::analyse_kcfa_shared_direct_traced::<1, _>(&term, &mut trace);
    assert_eq!(traced, untraced, "lambda: direct fixpoint changed");
    assert_eq!(traced_stats, stats, "lambda: direct stats changed");
    assert_sequential_rounds(&trace, &stats, "lambda/direct");

    let fj_program = fj::programs::pair_fst();
    let (untraced, stats) = fj::analysis::analyse_kcfa_shared_direct::<1>(&fj_program);
    let mut trace = TraceBuffer::new();
    let (traced, traced_stats) =
        fj::analysis::analyse_kcfa_shared_direct_traced::<1, _>(&fj_program, &mut trace);
    assert_eq!(traced, untraced, "fj: direct fixpoint changed");
    assert_eq!(traced_stats, stats, "fj: direct stats changed");
    assert_sequential_rounds(&trace, &stats, "fj/direct");
}

#[test]
fn chrome_trace_export_is_schema_valid() {
    use mai_bench::report::Json;

    let program = kcfa_worst_case_scaled(2, 4);
    let mut trace = TraceBuffer::new();
    let (_, stats) = cps::analysis::analyse_kcfa_shared_direct_traced::<1, _>(&program, &mut trace);
    let chrome = trace.chrome_trace_json();
    let parsed = Json::parse(&chrome).expect("Chrome trace export parses as JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = parsed
        .get("traceEvents")
        .expect("traceEvents array")
        .items();
    assert!(!events.is_empty());
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("phase tag");
        assert!(
            matches!(ph, "X" | "i" | "M"),
            "unexpected event phase {ph:?}"
        );
        assert!(event.get("pid").is_some());
        assert!(event.get("tid").is_some());
        if ph == "X" {
            // Complete events need a timestamp and a duration.
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
        }
    }
    // One step and one join slice per round on the driver thread.
    let slices = |cat: &str| {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some(cat))
            .count()
    };
    assert_eq!(slices("step"), stats.iterations);
    assert_eq!(slices("join"), stats.iterations);
}
