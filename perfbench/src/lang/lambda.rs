//! The λ adapter: `parse_term`, the λ-CESK analysis, `cps_convert` into the
//! CPS adapter, `evaluate_with_limit`.

use mai_core::engine::{explore_worklist_direct_traced_stats, EngineStats};
use mai_core::KCallCtx;
use mai_cps::cps_convert;
use mai_lambda::analysis::{
    abstract_errors, analyse_kcfa_shared, analyse_kcfa_shared_direct, flow_map_of_store,
    KCeskShared, KCeskStore,
};
use mai_lambda::{evaluate_with_limit, mnext_direct, parse_term, PState, Term};

use super::cps::{self, CpsAnalysis};
use super::{Facts, Outcome, Solved, CONCRETE_STEPS};
use crate::trace::{Layer, Meter};

/// Parses one λ source text, then analyses it twice at 1CFA: as a λ-CESK
/// program, and CPS-converted through the CPS analysis.
pub fn run(text: &str, meter: &mut Meter, concrete: bool) -> Result<Outcome, String> {
    let term = meter.time(Layer::Parse, || parse(text))?;
    let direct = solve(&term, meter);
    let converted = meter.time(Layer::Convert, || cps_convert(&term));
    let via_cps = cps::solve(&converted, CpsAnalysis::Kcfa1, meter);
    let concrete_ok = !concrete
        || ((!evaluate_with_limit(&term, CONCRETE_STEPS).halted() || direct.reaches_final)
            && (!cps::halts(&converted) || via_cps.reaches_final));
    Ok(Outcome::new(vec![direct, via_cps], concrete_ok))
}

/// Parses one λ source text.
pub fn parse(text: &str) -> Result<Term, String> {
    parse_term(text).map_err(|e| e.to_string())
}

fn solve(term: &Term, meter: &mut Meter) -> Solved {
    let (fp, stats) = meter.solve(
        || analyse_kcfa_shared_direct::<1>(term),
        |rec, sink| {
            explore_worklist_direct_traced_stats::<_, _, _, KCeskShared<1>, _, _>(
                rec.step(Layer::Semantics, mnext_direct::<KCallCtx<1>, KCeskStore>),
                PState::inject(term.clone()),
                sink,
            )
        },
    );
    meter.time(Layer::Query, || answers(&fp, stats))
}

/// The Kleene-iteration oracle's answers for `term`: directly, and after
/// CPS conversion.
pub fn oracle(term: &Term) -> Vec<Facts> {
    let direct = answers(&analyse_kcfa_shared::<1>(term), EngineStats::default());
    vec![
        direct.facts,
        cps::oracle(&cps_convert(term), CpsAnalysis::Kcfa1),
    ]
}

fn answers(fp: &KCeskShared<1>, stats: EngineStats) -> Solved {
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
