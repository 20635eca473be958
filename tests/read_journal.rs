//! The read journal's contract, checked on generated programs.
//!
//! The shared-store engines take a step's dependencies from what the step
//! actually read (`mai_core::store::reads`), plus its changed write
//! targets, plus the successor closure for branches that ran abstract GC.
//! Two properties make that sound, and this suite checks both across the
//! random λ-terms of the differential suite (CESK, and CPS through the
//! CPS transform) and a Featherweight Java program family:
//!
//! 1. **Reads stay inside the roots' closure.**  At every reached state,
//!    one step against the final store reads only addresses in
//!    `reachable(state_roots, store)` — the `StateRoots` contract abstract
//!    GC already relies on, here observed rather than assumed.
//! 2. **The journal-dependency fixpoint is the Kleene fixpoint.**  The
//!    direct worklist engine (journal dependencies) lands on exactly the
//!    fixpoint of `explore_fp`, with and without abstract GC.

use std::collections::BTreeSet;
use std::fmt::Debug;

use mai_core::addr::Context;
use mai_core::lattice::WidenLattice;
use mai_core::monad::Value;
use mai_core::store::{reads, BasicStore, CountingStore, StoreDelta, StoreLike};
use mai_core::{
    reachable, KCallAddr, KCallCtx, MonoAddr, MonoCtx, SharedStoreDomain, StateRoots, StepFn,
    Touches,
};
use mai_lambda::syntax::TermBuilder;
use mai_lambda::Term;
use proptest::prelude::*;

mod common;
use common::{shape_strategy, term_from_seed, to_term, COMMITTED_SEEDS};

/// Re-steps every state of `fixpoint` against its final store with the
/// read journal armed, and asserts each read address lies in the closure
/// of the state's roots.  Returns how many reads were checked.
fn reads_within_roots<Ps, G, S, F>(
    label: &str,
    fixpoint: &SharedStoreDomain<Ps, G, S>,
    step: &F,
) -> usize
where
    Ps: Value + Ord + Debug + StateRoots,
    G: Value + Ord,
    S: StoreLike<Ps::Addr> + Value,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    let store = fixpoint.store();
    let mut checked = 0;
    for (ps, g) in fixpoint.states() {
        reads::arm::<Ps::Addr>();
        step.step(ps.clone(), g.clone(), store.clone());
        let read = reads::take::<Ps::Addr>();
        let closure = reachable(ps.state_roots(), store);
        for a in &read {
            assert!(
                closure.contains(a),
                "{label}: stepping {ps:?} read {a:?}, outside reachable(state_roots, store)"
            );
        }
        checked += read.len();
    }
    checked
}

/// Both properties for one CESK configuration; returns the reads checked.
fn cesk<C, S>(label: &str, term: &Term) -> usize
where
    C: Context + std::hash::Hash,
    S: StoreLike<C::Addr, D = BTreeSet<mai_lambda::Storable<C::Addr>>>
        + StoreDelta<C::Addr>
        + Value
        + WidenLattice,
{
    use mai_lambda::analysis as la;
    type Dom<C, S> = SharedStoreDomain<mai_lambda::PState<<C as Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = la::analyse::<C, S, _>(term);
    let (journal, _): (Dom<C, S>, _) = la::analyse_worklist_direct::<C, S, _>(term);
    assert_eq!(journal, kleene, "{label}: journal fixpoint != explore_fp");
    let gc_kleene: Dom<C, S> = la::analyse_with_gc::<C, S, _>(term);
    let (gc_journal, _): (Dom<C, S>, _) = la::analyse_with_gc_worklist_direct::<C, S, _>(term);
    assert_eq!(
        gc_journal, gc_kleene,
        "{label} gc: journal fixpoint != explore_fp"
    );
    reads_within_roots(label, &kleene, &mai_lambda::mnext_direct::<C, S>)
}

/// Both properties for one CPS configuration; returns the reads checked.
fn cps<C, S>(label: &str, program: &mai_cps::CExp) -> usize
where
    C: Context + std::hash::Hash,
    S: StoreLike<C::Addr, D = BTreeSet<mai_cps::Val<C::Addr>>>
        + StoreDelta<C::Addr>
        + Value
        + WidenLattice,
{
    use mai_cps::analysis as ca;
    type Dom<C, S> = SharedStoreDomain<mai_cps::PState<<C as Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = ca::analyse::<C, S, _>(program);
    let (journal, _): (Dom<C, S>, _) = ca::analyse_worklist_direct::<C, S, _>(program);
    assert_eq!(journal, kleene, "{label}: journal fixpoint != explore_fp");
    let gc_kleene: Dom<C, S> = ca::analyse_gc::<C, S, _>(program);
    let (gc_journal, _): (Dom<C, S>, _) = ca::analyse_gc_worklist_direct::<C, S, _>(program);
    assert_eq!(
        gc_journal, gc_kleene,
        "{label} gc: journal fixpoint != explore_fp"
    );
    reads_within_roots(label, &kleene, &mai_cps::mnext_direct::<C, S>)
}

/// Both properties for one FJ configuration; returns the reads checked.
fn fj<C, S>(label: &str, program: &mai_fj::Program) -> usize
where
    C: Context + std::hash::Hash,
    S: StoreLike<C::Addr, D = BTreeSet<mai_fj::Storable<C::Addr>>>
        + StoreDelta<C::Addr>
        + Value
        + WidenLattice,
{
    use mai_fj::analysis as fa;
    type Dom<C, S> = SharedStoreDomain<mai_fj::PState<<C as Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = fa::analyse::<C, S, _>(program);
    let (journal, _): (Dom<C, S>, _) = fa::analyse_worklist_direct::<C, S, _>(program);
    assert_eq!(journal, kleene, "{label}: journal fixpoint != explore_fp");
    let gc_kleene: Dom<C, S> = fa::analyse_with_gc::<C, S, _>(program);
    let (gc_journal, _): (Dom<C, S>, _) = fa::analyse_with_gc_worklist_direct::<C, S, _>(program);
    assert_eq!(
        gc_journal, gc_kleene,
        "{label} gc: journal fixpoint != explore_fp"
    );
    let step = |ps, ctx, store| mai_fj::mnext_direct::<C, S>(&program.table, ps, ctx, store);
    reads_within_roots(label, &kleene, &step)
}

/// One λ-term through the CESK machine and, CPS-converted, the CPS
/// machine, at {0CFA, 1CFA} × {basic, counting}.
fn lambda_matrix(term: &Term) -> usize {
    type LS<A> = mai_lambda::Storable<A>;
    type CV<A> = mai_cps::Val<A>;
    let program = mai_cps::cps_convert(term);
    cesk::<MonoCtx, BasicStore<MonoAddr, LS<MonoAddr>>>("CESK mono basic", term)
        + cesk::<MonoCtx, CountingStore<MonoAddr, LS<MonoAddr>>>("CESK mono counting", term)
        + cesk::<KCallCtx<1>, BasicStore<KCallAddr, LS<KCallAddr>>>("CESK 1CFA basic", term)
        + cesk::<KCallCtx<1>, CountingStore<KCallAddr, LS<KCallAddr>>>("CESK 1CFA counting", term)
        + cps::<MonoCtx, BasicStore<MonoAddr, CV<MonoAddr>>>("CPS mono basic", &program)
        + cps::<MonoCtx, CountingStore<MonoAddr, CV<MonoAddr>>>("CPS mono counting", &program)
        + cps::<KCallCtx<1>, BasicStore<KCallAddr, CV<KCallAddr>>>("CPS 1CFA basic", &program)
        + cps::<KCallCtx<1>, CountingStore<KCallAddr, CV<KCallAddr>>>("CPS 1CFA counting", &program)
}

#[test]
fn committed_seeds_read_inside_their_roots() {
    let checked: usize = COMMITTED_SEEDS
        .iter()
        .map(|&seed| lambda_matrix(&term_from_seed(seed)))
        .sum();
    // The corpus must actually read the store, or the check is vacuous.
    assert!(
        checked > 0,
        "no store reads observed on the committed corpus"
    );
}

#[test]
fn fj_nested_cells_read_inside_their_roots() {
    type FS<A> = mai_fj::Storable<A>;
    let mut checked = 0;
    for n in 1..=5 {
        let program = mai_fj::programs::nested_cells(n);
        checked += fj::<MonoCtx, BasicStore<MonoAddr, FS<MonoAddr>>>("FJ mono basic", &program);
        checked +=
            fj::<KCallCtx<1>, BasicStore<KCallAddr, FS<KCallAddr>>>("FJ 1CFA basic", &program);
        checked += fj::<KCallCtx<1>, CountingStore<KCallAddr, FS<KCallAddr>>>(
            "FJ 1CFA counting",
            &program,
        );
    }
    assert!(checked > 0, "no store reads observed on nested_cells");
}

proptest! {
    /// Every random term of the differential suite's generator.
    #[test]
    fn prop_random_terms_read_inside_their_roots(shape in shape_strategy()) {
        lambda_matrix(&to_term(&shape, &mut TermBuilder::new()));
    }
}
