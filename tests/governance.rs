//! Governance of the engines: budgets, cancellation and resumable
//! partials.
//!
//! The suite pins three properties over the *same committed corpus* the
//! differential suite replays (`tests/common`):
//!
//! 1. **Governed-off parity** — `Budget::unlimited()` runs are
//!    byte-identical to the classic entry points, fixpoint *and* every
//!    work counter.  The governed solver is the single implementation,
//!    so this pins the "wrapper passes unlimited" contract.
//! 2. **Resume soundness** — an `Exhausted` partial's seed, resumed,
//!    converges onto exactly the one-shot fixpoint; chaining arbitrarily
//!    many tight budgets changes nothing.
//! 3. **Cancel latency** — a cancellation raised *inside* a step is
//!    observed within one round, asserted from traced telemetry, not
//!    timing.

use std::collections::BTreeSet;

use mai_core::engine::{Budget, CancelToken, DirectCollecting, ExhaustReason, Outcome, SolveFrom};
use mai_core::store::BasicStore;
use mai_core::telemetry::TraceBuffer;
use mai_lambda::analysis as la;
use mai_lambda::Term;

mod common;
use common::{term_from_seed, COMMITTED_SEEDS};

/// The resume chain is provably finite (each resumed round steps at least
/// one state of a finite abstract space), but a regression that dropped
/// the seed's accumulated store could loop — bound the chain defensively.
const MAX_RESUME_CHAIN: usize = 10_000;

// ---------------------------------------------------------------------------
// Governed-off parity
// ---------------------------------------------------------------------------

#[test]
fn unlimited_budget_is_byte_identical_to_the_classic_engines() {
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (direct, direct_stats) = la::analyse_kcfa_shared_direct::<1>(&term);
        let (outcome, stats) = la::analyse_kcfa_shared_governed::<1>(&term, &Budget::unlimited());
        assert!(
            outcome.is_complete(),
            "unlimited budget exhausted on seed {seed:#x}"
        );
        assert_eq!(
            outcome.into_complete(),
            direct,
            "governed-off CESK fixpoint differs on seed {seed:#x}"
        );
        assert_eq!(
            stats, direct_stats,
            "governed-off CESK work counters differ on seed {seed:#x}"
        );

        let program = mai_cps::cps_convert(&term);
        let (c_direct, c_direct_stats) =
            mai_cps::analysis::analyse_kcfa_shared_direct::<1>(&program);
        let (c_outcome, c_stats) =
            mai_cps::analysis::analyse_kcfa_shared_governed::<1>(&program, &Budget::unlimited());
        assert_eq!(
            c_outcome.into_complete(),
            c_direct,
            "governed-off CPS fixpoint differs on seed {seed:#x}"
        );
        assert_eq!(
            c_stats, c_direct_stats,
            "governed-off CPS work counters differ on seed {seed:#x}"
        );
    }
}

// ---------------------------------------------------------------------------
// Resume soundness
// ---------------------------------------------------------------------------

/// Chains `analyse_kcfa_shared_resume` under `budget` until completion,
/// starting from an already-obtained outcome.
fn drain_resume_chain(
    mut outcome: Outcome<la::KCeskShared<1>, la::KCeskSeed<1>>,
    budget: &Budget,
    ctx: &str,
) -> la::KCeskShared<1> {
    for _ in 0..MAX_RESUME_CHAIN {
        match outcome {
            Outcome::Complete(value) => return value,
            Outcome::Exhausted {
                reason,
                resume_seed,
                ..
            } => {
                assert_eq!(reason, ExhaustReason::RoundBudget, "{ctx}: wrong reason");
                outcome = la::analyse_kcfa_shared_resume::<1>(*resume_seed, budget).0;
            }
        }
    }
    panic!("{ctx}: resume chain failed to converge in {MAX_RESUME_CHAIN} links")
}

#[test]
fn exhausted_partials_resume_onto_the_one_shot_fixpoint() {
    let tight = Budget::unlimited().with_max_rounds(1);
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        let (oracle, _) = la::analyse_kcfa_shared_direct::<1>(&term);
        let ctx = format!("seed {seed:#x}");

        // One tight round, then a single unlimited resume.
        let (first, _) = la::analyse_kcfa_shared_governed::<1>(&term, &tight);
        match first {
            Outcome::Complete(value) => assert_eq!(value, oracle, "{ctx}: one-round completion"),
            Outcome::Exhausted { resume_seed, .. } => {
                let (resumed, _) =
                    la::analyse_kcfa_shared_resume::<1>(*resume_seed, &Budget::unlimited());
                assert_eq!(
                    resumed.into_complete(),
                    oracle,
                    "{ctx}: unlimited resume diverged from the one-shot fixpoint"
                );
            }
        }

        // The worst case: every link of the chain is one round.
        let (chained, _) = la::analyse_kcfa_shared_governed::<1>(&term, &tight);
        let fixpoint = drain_resume_chain(chained, &tight, &ctx);
        assert_eq!(
            fixpoint, oracle,
            "{ctx}: one-round resume chain diverged from the one-shot fixpoint"
        );
    }
}

// ---------------------------------------------------------------------------
// Budgets on the concrete interpreters (the unified PR-1 step limits)
// ---------------------------------------------------------------------------

/// Ω — the canonical diverging term.
fn omega() -> Term {
    let mut b = mai_lambda::syntax::TermBuilder::new();
    let self_app = |b: &mut mai_lambda::syntax::TermBuilder| {
        let app = b.app(Term::var("x"), Term::var("x"));
        Term::lam("x", app)
    };
    let f = self_app(&mut b);
    let a = self_app(&mut b);
    b.app(f, a)
}

#[test]
fn step_budgets_halt_divergent_concrete_runs() {
    let term = omega();
    let budget = Budget::unlimited().with_max_steps(50);
    assert!(matches!(
        mai_lambda::concrete::evaluate_governed(&term, &budget),
        mai_lambda::concrete::Outcome::OutOfFuel { .. }
    ));
    let program = mai_cps::cps_convert(&term);
    assert!(matches!(
        mai_cps::concrete::interpret_governed(&program, &budget),
        mai_cps::concrete::Outcome::OutOfFuel { .. }
    ));
}

#[test]
fn cancellation_stops_a_concrete_run_before_its_first_step() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    assert!(matches!(
        mai_lambda::concrete::evaluate_governed(&omega(), &budget),
        mai_lambda::concrete::Outcome::OutOfFuel { .. }
    ));
    let fj = mai_fj::programs::pair_fst();
    assert!(matches!(
        mai_fj::concrete::run_governed(&fj, &budget),
        mai_fj::concrete::Outcome::OutOfFuel { .. }
    ));
}

#[test]
fn fj_budgeted_run_resumes_nothing_but_reports_fuel() {
    let fj = mai_fj::programs::pair_fst();
    let out = mai_fj::concrete::run_governed(&fj, &Budget::unlimited().with_max_steps(1));
    assert!(matches!(out, mai_fj::concrete::Outcome::OutOfFuel { .. }));
    // The same program under an unlimited budget still halts normally.
    let out = mai_fj::concrete::run_governed(&fj, &Budget::unlimited());
    assert!(out.halted());
}

// ---------------------------------------------------------------------------
// Traced cancel latency on a crafted chain machine
// ---------------------------------------------------------------------------

/// A heap value for the chain machines (never actually bound; the store
/// exists to satisfy the shared-store domain shape).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Probe(u8);

impl mai_core::gc::Touches<u8> for Probe {
    fn touches(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

/// A state of the crafted chain machines.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Chain(u32);

impl mai_core::StateRoots for Chain {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        BTreeSet::new()
    }
}

type ChainStore = BasicStore<u8, Probe>;
type ChainDom = mai_core::SharedStoreDomain<Chain, u64, ChainStore>;

#[test]
fn sequential_cancellation_lands_within_one_round() {
    // The chain 0 → 1 → … → 10 steps exactly one state per round, so
    // state `n` is stepped in round `n + 1`.  The step of state 3 (round
    // 4) raises cancellation *mid-round*; the governor observes it at
    // that round's boundary, so exactly 4 rounds are recorded.
    let token = CancelToken::new();
    let cancel = token.clone();
    let step = move |ps: Chain, g: u64, s: ChainStore| {
        if ps.0 == 3 {
            cancel.cancel();
        }
        if ps.0 >= 10 {
            vec![]
        } else {
            vec![((Chain(ps.0 + 1), g), s)]
        }
    };
    let budget = Budget::unlimited().with_cancel(token);
    let mut sink = TraceBuffer::new();
    let (outcome, stats): (Outcome<ChainDom, _>, _) = ChainDom::explore_frontier_governed_traced(
        &step,
        SolveFrom::Fresh(Chain(0)),
        &budget,
        &mut sink,
    );
    assert_eq!(outcome.exhaust_reason(), Some(ExhaustReason::Cancelled));
    assert_eq!(stats.iterations, 4, "cancel latency exceeded one round");
    assert_eq!(sink.rounds.len(), 4, "cancel latency exceeded one round");
    assert!(
        sink.governor_events
            .iter()
            .any(|e| e.reason == ExhaustReason::Cancelled),
        "no governor event recorded for the cancellation"
    );
}
