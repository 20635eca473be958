//! One adapter per language.
//!
//! These files are the only place that names the languages' `analyse_*`
//! entry points and `mnext_direct`: a change to a language's entry points
//! or semantics updates its adapter and no workload definition.  Every
//! adapter runs the same pipeline — front end, solve, query — and reports
//! its answers as [`Facts`], one per solve.

pub mod cps;
pub mod fj;
pub mod lambda;

use mai_core::engine::EngineStats;

/// Steps the concrete interpreters may take before a program counts as
/// non-halting (which leaves the concrete check vacuous).
pub const CONCRETE_STEPS: usize = 100_000;

/// The answers of one solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    /// `(state, context)` pairs of the fixpoint.
    pub states: usize,
    /// Variables (or FJ cells) with a non-empty flow set.
    pub flow_keys: usize,
    /// Distinct abstract error messages among the reachable states.
    pub errors: usize,
    /// The classes an FJ program may evaluate to (empty for λ and CPS).
    pub result_classes: Vec<String>,
}

/// One solve's answers, work counters and concrete-check verdict.
#[derive(Debug, Clone)]
pub struct Solved {
    /// What the queries answered.
    pub facts: Facts,
    /// The engine's work counters.
    pub stats: EngineStats,
    /// Whether the fixpoint contains a final (halted) state.
    pub reaches_final: bool,
}

/// One program's trip through a language pipeline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The answers, one per solve, in pipeline order.
    pub answer: Vec<Facts>,
    /// The work counters, one per solve, in pipeline order.
    pub stats: Vec<EngineStats>,
    /// The concrete check: `false` when a concrete run halted but the
    /// abstract fixpoint missed its result.  `true` when not checked.
    pub concrete_ok: bool,
}

impl Outcome {
    fn new(solves: Vec<Solved>, concrete_ok: bool) -> Self {
        let (answer, stats) = solves.into_iter().map(|s| (s.facts, s.stats)).unzip();
        Outcome {
            answer,
            stats,
            concrete_ok,
        }
    }
}
