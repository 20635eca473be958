//! The workloads: a fixed program set each, analysed one program at a time
//! in a closed loop with one client, on the sequential direct engine.
//!
//! Every set has five programs whose latencies lie within about 3× of each
//! other, spaced roughly 1.3× apart.  With five equally weighted programs,
//! p50 falls in the middle of the third-slowest program's samples and p90
//! in the middle of the slowest program's — never on the gap between two
//! programs, the gap that made an earlier benchmark's p90 bimodal — and
//! the spacing keeps a burst of host speed-up or slow-down from
//! reordering neighbouring programs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::gen::{self, Family, Source};
use crate::lang::cps::CpsAnalysis;
use crate::lang::{cps, fj, lambda, Facts, Outcome};
use crate::reference;
use crate::trace::Meter;

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// How CPS programs (including converted λ programs) are analysed.
    pub analysis: CpsAnalysis,
    /// The program set, cycled in a seeded order.
    pub programs: &'static [Family],
}

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    // Many states, a frontier about w wide, half the steps re-enqueues:
    // loads the engine, interning and the store fold; parsing is noise.
    Workload {
        name: "cps-wide",
        analysis: CpsAnalysis::Kcfa1,
        programs: &[
            Family::KcfaWide { n: 6, w: 16 },
            Family::KcfaWide { n: 8, w: 16 },
            Family::KcfaWide { n: 4, w: 24 },
            Family::KcfaWide { n: 6, w: 24 },
            Family::KcfaWide { n: 8, w: 24 },
        ],
    },
    // n+3 states whose flow sets all have n members: each step fans out
    // n ways, so the semantic step dominates and interning idles.
    Workload {
        name: "cps-mono",
        analysis: CpsAnalysis::Mono,
        programs: &[
            Family::IdChain(32),
            Family::FanOut(36),
            Family::IdChain(39),
            Family::FanOut(42),
            Family::IdChain(46),
        ],
    },
    // The cps-wide engine and semantics under abstract GC: every branch
    // pays a reachability closure and a store restriction.  The only
    // workload that runs gc.
    Workload {
        name: "cps-gc",
        analysis: CpsAnalysis::Kcfa1Gc,
        programs: &[
            Family::KcfaWide { n: 4, w: 16 },
            Family::GarbageChain(330),
            Family::KcfaWide { n: 6, w: 16 },
            Family::KcfaWide { n: 8, w: 16 },
            Family::GarbageChain(500),
        ],
    },
    // λ texts analysed directly and after CPS conversion, and FJ programs
    // through the type checker: the only workload that runs the lambda
    // and fj crates, convert and typecheck.
    Workload {
        name: "lang-mix",
        analysis: CpsAnalysis::Kcfa1,
        programs: &[
            Family::ChurchAdd(520),
            Family::NestedCells(57),
            Family::ChurchExp(600),
            Family::LetChain(160),
            Family::NestedCells(80),
        ],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One program of a workload's set, generated for one seed.
#[derive(Debug, Clone)]
pub struct Job {
    /// The generator family and size.
    pub family: Family,
    /// The generated source.
    pub source: Source,
    /// The closed-form answers.
    pub expected: Vec<Facts>,
}

impl Workload {
    /// The program set for `seed`, in the seed's cycle order.
    pub fn jobs(&self, seed: u64) -> Vec<Job> {
        let prefix = gen::name_prefix(seed);
        gen::permutation(seed, self.programs.len())
            .into_iter()
            .map(|i| {
                let family = self.programs[i];
                Job {
                    family,
                    source: family.source(&prefix),
                    expected: reference::expected(family, self.analysis),
                }
            })
            .collect()
    }

    /// Runs one job through its language pipeline and checks the answers.
    /// `Err` carries why the analysis failed: a front-end error, a panic,
    /// an answer that differs from the reference, or (with `concrete`) a
    /// concrete run whose result the fixpoint misses.
    pub fn attempt(&self, job: &Job, meter: &mut Meter, concrete: bool) -> Result<Outcome, String> {
        let outcome = catch_unwind(AssertUnwindSafe(|| match &job.source {
            Source::Cps(text) => cps::run(text, self.analysis, meter, concrete),
            Source::Lambda(text) => lambda::run(text, meter, concrete),
            Source::Fj(program) => fj::run(program, meter, concrete),
        }))
        .map_err(|_| format!("{:?}: the pipeline panicked", job.family))??;
        if outcome.answer != job.expected {
            return Err(format!(
                "{:?}: answered {:?}, the reference is {:?}",
                job.family, outcome.answer, job.expected
            ));
        }
        if !outcome.concrete_ok {
            return Err(format!(
                "{:?}: a concrete run halted but the fixpoint misses its result",
                job.family
            ));
        }
        Ok(outcome)
    }

    /// The Kleene-iteration oracle's answers for `job` — slow, for the
    /// self-tests at small sizes.
    pub fn oracle(&self, job: &Job) -> Result<Vec<Facts>, String> {
        Ok(match &job.source {
            Source::Cps(text) => vec![cps::oracle(&cps::parse(text)?, self.analysis)],
            Source::Lambda(text) => lambda::oracle(&lambda::parse(text)?),
            Source::Fj(program) => fj::oracle(program),
        })
    }
}
