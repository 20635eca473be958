//! The Featherweight Java adapter: `check_program`, the FJ analysis,
//! `run_with_limit`.

use mai_core::engine::explore_worklist_direct_traced_stats;
use mai_core::engine::EngineStats;
use mai_core::KCallCtx;
use mai_fj::analysis::{
    abstract_errors, analyse_kcfa_shared, analyse_kcfa_shared_direct, class_flow_map,
    result_classes, KFjShared, KFjStore,
};
use mai_fj::{check_program, mnext_direct, run_with_limit, PState, Program};

use super::{Facts, Outcome, Solved, CONCRETE_STEPS};
use crate::trace::{Layer, Meter};

/// Type-checks, solves at 1CFA and queries one FJ program.
pub fn run(program: &Program, meter: &mut Meter, concrete: bool) -> Result<Outcome, String> {
    meter
        .time(Layer::Typecheck, || check_program(program))
        .map_err(|e| e.to_string())?;
    let solved = solve(program, meter);
    let concrete_ok = !concrete
        || match run_with_limit(program, CONCRETE_STEPS).result_class() {
            Some(class) => solved.facts.result_classes.contains(&class.to_string()),
            None => true,
        };
    Ok(Outcome::new(vec![solved], concrete_ok))
}

fn solve(program: &Program, meter: &mut Meter) -> Solved {
    let (fp, stats) = meter.solve(
        || analyse_kcfa_shared_direct::<1>(program),
        |rec, sink| {
            let table = &program.table;
            explore_worklist_direct_traced_stats::<_, _, _, KFjShared<1>, _, _>(
                rec.step(Layer::Semantics, move |ps, ctx, store| {
                    mnext_direct::<KCallCtx<1>, KFjStore>(table, ps, ctx, store)
                }),
                PState::inject(program.main.clone()),
                sink,
            )
        },
    );
    meter.time(Layer::Query, || answers(&fp, stats))
}

/// The Kleene-iteration oracle's answers for `program`.
pub fn oracle(program: &Program) -> Vec<Facts> {
    vec![answers(&analyse_kcfa_shared::<1>(program), EngineStats::default()).facts]
}

fn answers(fp: &KFjShared<1>, stats: EngineStats) -> Solved {
    let states = fp.distinct_states();
    Solved {
        facts: Facts {
            states: fp.len(),
            flow_keys: class_flow_map(fp.store()).len(),
            errors: abstract_errors(&states).len(),
            result_classes: result_classes(fp).iter().map(|c| c.to_string()).collect(),
        },
        stats,
        reaches_final: states.iter().any(PState::is_final),
    }
}
