//! The CPS adapter: `parse_program`, the CPS analyses, `interpret_with_limit`.

use std::collections::BTreeSet;

use mai_core::addr::NamedAddress;
use mai_core::engine::{explore_worklist_direct_traced_stats, with_state_gc, EngineStats};
use mai_core::store::StoreLike;
use mai_core::{BasicStore, KCallCtx, MonoAddr, MonoCtx, SharedStoreDomain};
use mai_cps::analysis::{
    abstract_errors, analyse_kcfa_shared, analyse_kcfa_shared_direct, analyse_kcfa_shared_gc,
    analyse_kcfa_shared_gc_direct, analyse_mono, analyse_mono_direct, flow_map_of_store,
    KCfaShared, KStore, MonoShared,
};
use mai_cps::{interpret_with_limit, mnext_direct, parse_program, CExp, PState, Val};

use super::{Facts, Outcome, Solved, CONCRETE_STEPS};
use crate::trace::{Layer, Meter};

/// Which CPS analysis a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpsAnalysis {
    /// 1CFA with a shared store.
    Kcfa1,
    /// 1CFA with a shared store and abstract garbage collection.
    Kcfa1Gc,
    /// 0CFA with a shared store.
    Mono,
}

/// Parses, solves and queries one CPS source text.
pub fn run(
    text: &str,
    analysis: CpsAnalysis,
    meter: &mut Meter,
    concrete: bool,
) -> Result<Outcome, String> {
    let program = meter.time(Layer::Parse, || parse(text))?;
    let solved = solve(&program, analysis, meter);
    let concrete_ok = !concrete || !halts(&program) || solved.reaches_final;
    Ok(Outcome::new(vec![solved], concrete_ok))
}

/// Parses one CPS source text.
pub fn parse(text: &str) -> Result<CExp, String> {
    parse_program(text).map_err(|e| e.to_string())
}

/// Whether the concrete interpreter halts on `program`.
pub fn halts(program: &CExp) -> bool {
    interpret_with_limit(program, CONCRETE_STEPS).halted()
}

/// Solves `program` with `analysis` and runs the queries.
pub fn solve(program: &CExp, analysis: CpsAnalysis, meter: &mut Meter) -> Solved {
    match analysis {
        CpsAnalysis::Kcfa1 => {
            let (fp, stats) = meter.solve(
                || analyse_kcfa_shared_direct::<1>(program),
                |rec, sink| {
                    explore_worklist_direct_traced_stats::<_, _, _, KCfaShared<1>, _, _>(
                        rec.step(Layer::Semantics, mnext_direct::<KCallCtx<1>, KStore>),
                        PState::inject(program.clone()),
                        sink,
                    )
                },
            );
            query(&fp, stats, meter)
        }
        CpsAnalysis::Kcfa1Gc => {
            let (fp, stats) = meter.solve(
                || analyse_kcfa_shared_gc_direct::<1>(program),
                |rec, sink| {
                    let semantics = rec.step(Layer::Semantics, mnext_direct::<KCallCtx<1>, KStore>);
                    explore_worklist_direct_traced_stats::<_, _, _, KCfaShared<1>, _, _>(
                        rec.step(Layer::Gc, with_state_gc(semantics)),
                        PState::inject(program.clone()),
                        sink,
                    )
                },
            );
            query(&fp, stats, meter)
        }
        CpsAnalysis::Mono => {
            let (fp, stats) = meter.solve(
                || analyse_mono_direct(program),
                |rec, sink| {
                    explore_worklist_direct_traced_stats::<_, _, _, MonoShared, _, _>(
                        rec.step(
                            Layer::Semantics,
                            mnext_direct::<MonoCtx, BasicStore<MonoAddr, Val<MonoAddr>>>,
                        ),
                        PState::inject(program.clone()),
                        sink,
                    )
                },
            );
            query(&fp, stats, meter)
        }
    }
}

/// The Kleene-iteration oracle's answer for `program` under `analysis`.
pub fn oracle(program: &CExp, analysis: CpsAnalysis) -> Facts {
    let stats = EngineStats::default();
    let solved = match analysis {
        CpsAnalysis::Kcfa1 => answers(&analyse_kcfa_shared::<1>(program), stats),
        CpsAnalysis::Kcfa1Gc => answers(&analyse_kcfa_shared_gc::<1>(program), stats),
        CpsAnalysis::Mono => answers(&analyse_mono(program), stats),
    };
    solved.facts
}

fn query<A, C, S>(
    fp: &SharedStoreDomain<PState<A>, C, S>,
    stats: EngineStats,
    meter: &mut Meter,
) -> Solved
where
    A: NamedAddress,
    C: Ord + Clone,
    S: StoreLike<A, D = BTreeSet<Val<A>>>,
{
    meter.time(Layer::Query, || answers(fp, stats))
}

fn answers<A, C, S>(fp: &SharedStoreDomain<PState<A>, C, S>, stats: EngineStats) -> Solved
where
    A: NamedAddress,
    C: Ord + Clone,
    S: StoreLike<A, D = BTreeSet<Val<A>>>,
{
    let states = fp.distinct_states();
    Solved {
        facts: Facts {
            states: fp.len(),
            flow_keys: flow_map_of_store(fp.store()).len(),
            errors: abstract_errors(&states).len(),
            result_classes: Vec::new(),
        },
        stats,
        reaches_final: states.iter().any(PState::is_final),
    }
}
