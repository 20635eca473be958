//! Randomized differential testing of the analysis engines and carriers.
//!
//! A proptest generator produces small (possibly open, possibly diverging)
//! λ-terms; each term is analysed as a CESK machine (`mai-lambda`) and,
//! through the CPS transform, as a CPS machine (`mai-cps`), across the
//! configuration matrix context ∈ {0CFA (mono), k-CFA k=0, k-CFA k=1} ×
//! store ∈ {basic, counting} × {plain, abstract GC}, and each
//! configuration is solved by every engine and carrier in the tree:
//!
//! * naive Kleene iteration (`analyse*` — the paper's literal algorithm,
//!   the ground truth),
//! * the PR-1 rescanning worklist engine (`analyse_*_rescan`),
//! * the PR-2 structural-key incremental engine (`analyse_*_structural`),
//! * the PR-3 id-indexed engine on the `Rc`-closure carrier
//!   (`analyse_*_worklist`),
//! * the id-indexed engine on the direct-style carrier
//!   (`analyse_*_direct`).
//!
//! All five solvers must produce bit-identical fixpoints, and the two
//! carriers of the id-indexed engine must additionally agree on every
//! work counter (`EngineStats` compared with plain `==`).  Two drivers run
//! the suite: a `proptest!` block (deterministic fixed-seed stub; case count
//! pinned in CI via `PROPTEST_CASES`) covering the 1CFA shared-store
//! configuration on every case, and an explicit list of **committed
//! seeds** (below) that replays the *full* matrix reproducibly — change a
//! seed and the whole derived program corpus changes, so the list is part
//! of the reviewable surface.

use std::collections::BTreeSet;

use mai_core::store::{BasicStore, CountingStore};
use mai_core::{KCallAddr, KCallCtx, MonoAddr, MonoCtx};
use mai_lambda::syntax::TermBuilder;
use mai_lambda::Term;
use proptest::prelude::*;

// The committed seeds and the deterministic λ-term generator live in
// `tests/common` so the governance suite replays the same corpus.
mod common;
use common::{shape_strategy, term_from_seed, to_term, COMMITTED_SEEDS};

// ---------------------------------------------------------------------------
// The per-configuration engine pentagon
// ---------------------------------------------------------------------------

/// Solves one CESK configuration with all five engine/carrier combinations
/// (plus the GC'd variants of each) and asserts them identical.
fn cesk_pentagon<C, S>(term: &Term)
where
    C: mai_core::addr::Context + std::hash::Hash,
    S: mai_core::store::StoreLike<C::Addr, D = BTreeSet<mai_lambda::Storable<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::monad::Value
        + mai_core::lattice::WidenLattice,
{
    use mai_lambda::analysis as la;
    type Dom<C, S> =
        mai_core::SharedStoreDomain<mai_lambda::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = la::analyse::<C, S, _>(term);
    let (interned, interned_stats): (Dom<C, S>, _) = la::analyse_worklist::<C, S, _>(term);
    let (structural, _): (Dom<C, S>, _) = la::analyse_worklist_structural::<C, S, _>(term);
    let (rescan, _): (Dom<C, S>, _) = la::analyse_worklist_rescan::<C, S, _>(term);
    let (direct, direct_stats): (Dom<C, S>, _) = la::analyse_worklist_direct::<C, S, _>(term);
    assert_eq!(interned, kleene, "CESK interned != Kleene");
    assert_eq!(structural, kleene, "CESK structural != Kleene");
    assert_eq!(rescan, kleene, "CESK rescan != Kleene");
    assert_eq!(direct, kleene, "CESK direct != Kleene");
    assert_eq!(
        direct_stats, interned_stats,
        "CESK direct != Rc carrier work counters"
    );

    let gc_kleene: Dom<C, S> = la::analyse_with_gc::<C, S, _>(term);
    let (gc_interned, gc_interned_stats): (Dom<C, S>, _) =
        la::analyse_with_gc_worklist::<C, S, _>(term);
    let (gc_structural, _): (Dom<C, S>, _) =
        la::analyse_with_gc_worklist_structural::<C, S, _>(term);
    let (gc_rescan, _): (Dom<C, S>, _) = la::analyse_with_gc_worklist_rescan::<C, S, _>(term);
    let (gc_direct, gc_direct_stats): (Dom<C, S>, _) =
        la::analyse_with_gc_worklist_direct::<C, S, _>(term);
    assert_eq!(gc_interned, gc_kleene, "CESK gc interned != Kleene");
    assert_eq!(gc_structural, gc_kleene, "CESK gc structural != Kleene");
    assert_eq!(gc_rescan, gc_kleene, "CESK gc rescan != Kleene");
    assert_eq!(gc_direct, gc_kleene, "CESK gc direct != Kleene");
    assert_eq!(
        gc_direct_stats, gc_interned_stats,
        "CESK gc direct != Rc carrier work counters"
    );
}

/// Solves one CPS configuration with all five engine/carrier combinations
/// (plus the GC'd variants) and asserts them identical.
fn cps_pentagon<C, S>(program: &mai_cps::CExp)
where
    C: mai_core::addr::Context + std::hash::Hash,
    S: mai_core::store::StoreLike<C::Addr, D = BTreeSet<mai_cps::Val<C::Addr>>>
        + mai_core::store::StoreDelta<C::Addr>
        + mai_core::monad::Value
        + mai_core::lattice::WidenLattice,
{
    use mai_cps::analysis as ca;
    type Dom<C, S> =
        mai_core::SharedStoreDomain<mai_cps::PState<<C as mai_core::addr::Context>::Addr>, C, S>;

    let kleene: Dom<C, S> = ca::analyse::<C, S, _>(program);
    let (interned, interned_stats): (Dom<C, S>, _) = ca::analyse_worklist::<C, S, _>(program);
    let (structural, _): (Dom<C, S>, _) = ca::analyse_worklist_structural::<C, S, _>(program);
    let (rescan, _): (Dom<C, S>, _) = ca::analyse_worklist_rescan::<C, S, _>(program);
    let (direct, direct_stats): (Dom<C, S>, _) = ca::analyse_worklist_direct::<C, S, _>(program);
    assert_eq!(interned, kleene, "CPS interned != Kleene");
    assert_eq!(structural, kleene, "CPS structural != Kleene");
    assert_eq!(rescan, kleene, "CPS rescan != Kleene");
    assert_eq!(direct, kleene, "CPS direct != Kleene");
    assert_eq!(
        direct_stats, interned_stats,
        "CPS direct != Rc carrier work counters"
    );

    let gc_kleene: Dom<C, S> = ca::analyse_gc::<C, S, _>(program);
    let (gc_interned, gc_interned_stats): (Dom<C, S>, _) =
        ca::analyse_gc_worklist::<C, S, _>(program);
    let (gc_structural, _): (Dom<C, S>, _) = ca::analyse_gc_worklist_structural::<C, S, _>(program);
    let (gc_rescan, _): (Dom<C, S>, _) = ca::analyse_gc_worklist_rescan::<C, S, _>(program);
    let (gc_direct, gc_direct_stats): (Dom<C, S>, _) =
        ca::analyse_gc_worklist_direct::<C, S, _>(program);
    assert_eq!(gc_interned, gc_kleene, "CPS gc interned != Kleene");
    assert_eq!(gc_structural, gc_kleene, "CPS gc structural != Kleene");
    assert_eq!(gc_rescan, gc_kleene, "CPS gc rescan != Kleene");
    assert_eq!(gc_direct, gc_kleene, "CPS gc direct != Kleene");
    assert_eq!(
        gc_direct_stats, gc_interned_stats,
        "CPS gc direct != Rc carrier work counters"
    );
}

/// The full configuration matrix for one generated term, both languages:
/// {mono, k-CFA k=0, k-CFA k=1} × {basic, counting} × {plain, GC} × five
/// engines.
fn full_matrix(term: &Term) {
    type LStorable<A> = mai_lambda::Storable<A>;
    type CVal<A> = mai_cps::Val<A>;

    // CESK side.
    cesk_pentagon::<MonoCtx, BasicStore<MonoAddr, LStorable<MonoAddr>>>(term);
    cesk_pentagon::<MonoCtx, CountingStore<MonoAddr, LStorable<MonoAddr>>>(term);
    cesk_pentagon::<KCallCtx<0>, BasicStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<0>, CountingStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, LStorable<KCallAddr>>>(term);
    cesk_pentagon::<KCallCtx<1>, CountingStore<KCallAddr, LStorable<KCallAddr>>>(term);

    // CPS side, through the CPS transform.
    let program = mai_cps::cps_convert(term);
    cps_pentagon::<MonoCtx, BasicStore<MonoAddr, CVal<MonoAddr>>>(&program);
    cps_pentagon::<MonoCtx, CountingStore<MonoAddr, CVal<MonoAddr>>>(&program);
    cps_pentagon::<KCallCtx<0>, BasicStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<0>, CountingStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, CVal<KCallAddr>>>(&program);
    cps_pentagon::<KCallCtx<1>, CountingStore<KCallAddr, CVal<KCallAddr>>>(&program);
}

#[test]
fn committed_seeds_replay_the_full_matrix() {
    for seed in COMMITTED_SEEDS {
        let term = term_from_seed(seed);
        full_matrix(&term);
    }
}

// ---------------------------------------------------------------------------
// The committed interval counting-loop workloads (infinite-height domain)
// ---------------------------------------------------------------------------

/// A program point of the interval counting loop (see [`counting_step`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CountSt(u8);

impl mai_core::StateRoots for CountSt {
    type Addr = u8;

    fn state_roots(&self) -> BTreeSet<u8> {
        // Only the loop head reads the counter cell, so only it re-enters
        // the frontier when the cell grows — the re-enqueue channel the
        // engines' widening-point selection watches.
        if self.0 == 1 {
            [0u8].into_iter().collect()
        } else {
            BTreeSet::new()
        }
    }
}

type IStore = mai_core::store::IntervalStore<u8>;
type IDom = mai_core::SharedStoreDomain<CountSt, u64, IStore>;

/// The counting-loop workload over the infinite-height interval domain:
/// `0 ⟨x := 0⟩ → 1 ⟨loop head: exit | x := (x ⊓ guard) + 1; goto 1⟩ → 2`.
/// Under plain join the loop-head contribution grows `x` by one every
/// round — the latent non-termination the engines' widening machinery
/// exists for.  `cap = None` counts without bound; `cap = Some(c)` guards
/// the increment with `x < c`, which the narrowing post-pass can recover
/// after the widened ascent overshoots to `+∞`.
fn counting_step(
    cap: Option<i64>,
) -> impl Fn(CountSt, u64, IStore) -> Vec<((CountSt, u64), IStore)> {
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::store::StoreLike;
    move |ps, g, s| match ps.0 {
        0 => vec![((CountSt(1), g), s.bind(0u8, Interval::singleton(0)))],
        1 => {
            let x = s.fetch(&0u8);
            let body = match cap {
                Some(c) => x.meet(Interval::at_most(c - 1)),
                None => x,
            };
            let mut branches = vec![((CountSt(2), g), s.clone())];
            if !body.is_bottom() {
                let incremented = body + Interval::singleton(1);
                branches.push(((CountSt(1), g), s.replace(0u8, incremented)));
            }
            branches
        }
        _ => vec![((ps, g), s)],
    }
}

/// The same loop on the `Rc`-closure carrier (`StorePassing`), desugared
/// by `run_store_passing` exactly as the language crates' `mnext` is —
/// the carrier-duality half of the interval workload.
fn m_counting_step(
    cap: Option<i64>,
) -> impl Fn(
    CountSt,
) -> <mai_core::monad::StorePassing<u64, IStore> as mai_core::monad::MonadFamily>::M<CountSt> {
    use mai_core::lattice::{Interval, Lattice, MeetLattice};
    use mai_core::monad::{
        MonadFamily, MonadPlus, MonadState, MonadTrans, StateT, StorePassing, VecM,
    };
    use mai_core::store::StoreLike;
    type M = StorePassing<u64, IStore>;
    move |ps| match ps.0 {
        0 => {
            let write =
                <M as MonadTrans>::lift(<StateT<IStore, VecM> as MonadState<IStore>>::modify(
                    move |s: IStore| s.bind(0u8, Interval::singleton(0)),
                ));
            M::bind(write, |_| M::pure(CountSt(1)))
        }
        1 => {
            let fetched = <M as MonadTrans>::lift(
                <StateT<IStore, VecM> as MonadState<IStore>>::gets(|s: &IStore| s.fetch(&0u8)),
            );
            M::bind(fetched, move |x: Interval| {
                let body = match cap {
                    Some(c) => x.meet(Interval::at_most(c - 1)),
                    None => x,
                };
                let exit = M::pure(CountSt(2));
                if body.is_bottom() {
                    exit
                } else {
                    let incremented = body + Interval::singleton(1);
                    let write = <M as MonadTrans>::lift(<StateT<IStore, VecM> as MonadState<
                        IStore,
                    >>::modify(
                        move |s: IStore| s.replace(0u8, incremented),
                    ));
                    M::mplus(exit, M::bind(write, |_| M::pure(CountSt(1))))
                }
            })
        }
        _ => M::pure(ps),
    }
}

#[test]
fn interval_counting_loop_diverges_without_widening_and_converges_with_it() {
    use mai_core::engine::{Budget, WidenPolicy};
    use mai_core::lattice::Interval;
    use mai_core::monad::run_store_passing;
    use mai_core::store::StoreLike;
    use mai_core::{DirectCollecting, ExhaustReason, Outcome, SolveFrom};

    for (cap, expected) in [
        (None, Interval::at_least(0)),
        (Some(10), Interval::range(0, 10)),
    ] {
        let step = counting_step(cap);
        let label = match cap {
            None => "uncapped",
            Some(_) => "capped",
        };

        // Without widening the uncapped ascent never stabilises: a step
        // budget is the only thing that stops it, and it must report
        // cleanly as budget exhaustion (an under-approximation), not
        // convergence.  The capped loop has finite height, so join-only
        // iteration legitimately completes — and pins the precision the
        // narrowing pass must recover after widening overshoots.
        let fuel = Budget::unlimited().with_max_steps(64);
        let (join_only, _) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &step,
                SolveFrom::Fresh(CountSt(0)),
                &fuel,
            );
        match cap {
            None => assert_eq!(
                join_only.exhaust_reason(),
                Some(ExhaustReason::StepBudget),
                "{label}: join-only iteration must starve the step budget"
            ),
            Some(_) => {
                let Outcome::Complete(finite) = join_only else {
                    panic!("{label}: join-only iteration of a finite chain must converge")
                };
                assert_eq!(
                    finite.store().fetch(&0u8),
                    expected,
                    "{label}: join-only counter bound"
                );
            }
        }

        // With widening the same solve completes, and the outcome shape
        // keeps widening-forced convergence distinguishable from budget
        // exhaustion.
        let widened = Budget::unlimited().with_widening(WidenPolicy::after_growths(3));
        let (outcome, seq_stats) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &step,
                SolveFrom::Fresh(CountSt(0)),
                &widened,
            );
        let Outcome::Complete(sequential) = outcome else {
            panic!("{label}: widened direct solve must converge");
        };
        assert_eq!(
            sequential.store().fetch(&0u8),
            expected,
            "{label}: widened (then narrowed) counter bound"
        );
        assert!(seq_stats.widen_applied > 0, "{label}: widening never fired");

        // Carrier duality: the Rc-closure step desugars to the identical
        // solve — fixpoint and every work counter byte-for-byte.
        let m_step = m_counting_step(cap);
        let rc_step = move |ps: CountSt, g: u64, s: IStore| run_store_passing(m_step(ps), g, s);
        let (rc_outcome, rc_stats) =
            <IDom as DirectCollecting<CountSt, u64, IStore>>::explore_frontier_governed(
                &rc_step,
                SolveFrom::Fresh(CountSt(0)),
                &widened,
            );
        let Outcome::Complete(rc) = rc_outcome else {
            panic!("{label}: widened Rc-carrier solve must converge");
        };
        assert_eq!(rc, sequential, "{label}: Rc carrier != direct carrier");
        assert_eq!(rc_stats, seq_stats, "{label}: Rc carrier work counters");

        // Soundness against the whole-domain widened Kleene oracle: the
        // engines' per-address widening points are at least as precise,
        // never unsound.
        let oracle: IDom = mai_core::collect::explore_fp_widened::<
            mai_core::monad::StorePassing<u64, IStore>,
            CountSt,
            IDom,
            _,
        >(m_counting_step(cap), CountSt(0), 3, 2);
        assert!(
            mai_core::Lattice::leq(&sequential, &oracle),
            "{label}: engine fixpoint is not below the widened Kleene oracle"
        );
    }
}

#[test]
fn committed_seeds_derive_a_stable_corpus() {
    // The corpus is part of the reviewable surface: if the generator or a
    // seed changes, this digest moves and the diff shows it.
    let rendered: Vec<String> = COMMITTED_SEEDS
        .iter()
        .map(|seed| term_from_seed(*seed).to_string())
        .collect();
    // At least one generated program must actually exercise application
    // (the matrix on a corpus of bare variables would be vacuous).
    assert!(rendered.iter().any(|t| t.contains('(')));
    let digest = mai_core::fx_hash_of(&rendered);
    assert_eq!(
        digest, 0x576f_8cb3_103b_c135,
        "committed differential corpus changed: {rendered:#?}"
    );
}

proptest! {
    /// Every random term: the 1CFA shared-store configuration (the one the
    /// benchmarks run) across all five engines, both languages, plus the
    /// GC'd direct-vs-Rc pair.
    #[test]
    fn prop_engines_agree_on_random_terms(shape in shape_strategy()) {
        let term = to_term(&shape, &mut TermBuilder::new());
        cesk_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, mai_lambda::Storable<KCallAddr>>>(&term);
        let program = mai_cps::cps_convert(&term);
        cps_pentagon::<KCallCtx<1>, BasicStore<KCallAddr, mai_cps::Val<KCallAddr>>>(&program);
    }
}
