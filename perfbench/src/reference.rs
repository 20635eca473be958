//! Closed-form reference answers, one per generator family and analysis.
//!
//! None of these comes from the engine being timed: each is a formula in
//! the family's size parameters, confirmed against the Kleene-iteration
//! oracle (`analyse_kcfa_shared`, `analyse_kcfa_shared_gc`, `analyse_mono`)
//! at small sizes by this package's tests.

use crate::gen::Family;
use crate::lang::cps::CpsAnalysis;
use crate::lang::Facts;

fn facts(states: usize, flow_keys: usize) -> Facts {
    Facts {
        states,
        flow_keys,
        errors: 0,
        result_classes: Vec::new(),
    }
}

/// The answers a program of `family` must produce, one per solve of its
/// pipeline.  CPS programs are solved with `analysis`; λ programs at 1CFA
/// directly and again after CPS conversion; FJ programs at 1CFA.
///
/// # Panics
///
/// On a CPS family paired with an analysis no workload runs it under.
pub fn expected(family: Family, analysis: CpsAnalysis) -> Vec<Facts> {
    use CpsAnalysis::*;
    match (family, analysis) {
        // Lanes of the k-CFA paradox, each 4n+3 states wide, plus the
        // five states of the relay; without GC every lane keeps its 2n+2
        // bindings, with GC only n+1 of them survive in the shared store.
        (Family::KcfaWide { n, w }, Kcfa1) if w >= 2 => {
            vec![facts(w * (4 * n + 3) + 5, w * (2 * n + 2) + 8)]
        }
        (Family::KcfaWide { n, w }, Kcfa1Gc) if w >= 2 => {
            vec![facts(w * (4 * n + 3) + 5, w * (n + 1) + 9)]
        }
        (Family::IdChain(n) | Family::FanOut(n), Mono) => vec![facts(n + 3, n + 3)],
        (Family::GarbageChain(n), Kcfa1Gc) => vec![facts(2 * n + 2, 2)],
        (Family::LetChain(n), _) => vec![facts(8 * n + 6, n + 2), facts(4 * n + 3, 3 * n + 4)],
        (Family::ChurchAdd(_) | Family::ChurchMul(_), _) => vec![facts(13, 2), facts(8, 9)],
        (Family::ChurchExp(_), _) => vec![facts(18, 3), facts(11, 13)],
        (Family::NestedCells(n), _) => vec![Facts {
            result_classes: vec!["A".to_string()],
            ..facts(9 * n + 1, 2)
        }],
        (family, analysis) => panic!("no reference answer for {family:?} under {analysis:?}"),
    }
}
