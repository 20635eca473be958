//! The direct-style (allocation-free) step carrier.
//!
//! The paper's `StorePassing` monad is encoded in this crate as
//! reference-counted closures: a computation is an `Rc<dyn Fn(S) -> …>`,
//! and every [`MonadFamily::bind`](super::MonadFamily::bind) allocates a
//! fresh `Rc` wrapping the continuation.  That encoding is maximally
//! faithful to the Haskell original — computations are first-class, can be
//! re-run, and the non-determinism at the bottom of the stack re-invokes
//! continuations per branch — but it makes every transition of every
//! analysis pay one heap allocation *per bind* plus the closure-capture
//! clones those binds force.
//!
//! This module provides the second carrier the fixpoint engines can run
//! the very same semantics on: a **direct-style step monad** in which a
//! computation is not a closure but its *result* — the eagerly evaluated
//! vector of `(value, guts, store)` branches — and [`MonadStep::bind`] is
//! plain function composition: a `for` loop feeding each branch to a
//! monomorphized `FnMut` continuation that receives the branch's guts and
//! store context by value (the mutable threading the `Rc` encoding hides
//! inside its closures, made explicit).  No `Rc<dyn Fn>` is ever
//! allocated; the only allocation is the output vector itself, and with
//! the persistent [`PMap`](crate::pmap) spine the per-branch store is an
//! `Arc` bump away.
//!
//! The observable behaviour is identical by construction:
//!
//! ```text
//! run_store_passing(m, g, s)  ==  the StepM value of the same program
//! ```
//!
//! which the monad-law suite checks over `(result, guts, store)`
//! observations — the `Rc` carriers stay in the tree as the oracle the
//! direct carrier is differentially tested against, and each engine picks
//! its carrier per entry point (`analyse_*_worklist` runs the `Rc` oracle,
//! `analyse_*_direct` the direct fast path).

use std::marker::PhantomData;

use super::Value;

/// A direct-style computation producing `A`: the eagerly evaluated
/// branches, each carrying the guts and store it was produced on.  This is
/// the desugared `g -> s -> [((a, g), s)]` shape of the paper's
/// `StorePassing` (§5.3.1) with the function arrow already applied.
pub type StepM<A, G, S> = Vec<(A, G, S)>;

/// The direct-style counterpart of [`MonadFamily`](super::MonadFamily):
/// a monad whose computations are eagerly evaluated against an explicit
/// `(guts, store)` context instead of being built as closures.
///
/// `pure` takes the context it yields (there is no ambient state to read
/// it from), and `bind`'s continuation is an [`FnMut`] receiving each
/// branch's context **by value** — it is called once per branch, in order,
/// and never retained, so it monomorphizes to a plain function call.
///
/// # Laws
///
/// The monad laws hold over observable branch vectors (checked by the
/// property suite in `tests/monad_laws.rs` against the `Rc`-closure
/// oracle):
///
/// * left identity: `bind(pure(a, g, s), k) == k(a, g, s)`
/// * right identity: `bind(m, pure) == m`
/// * associativity: `bind(bind(m, k), h) == bind(m, |a, g, s|
///   bind(k(a, g, s), h))`
pub trait MonadStep {
    /// The outer state (the analysis guts: context/time).
    type Guts: Value;

    /// The inner state (the store).
    type Store: Value;

    /// The type of computations producing values of type `A`.
    type M<A: Value>;

    /// The computation that yields `a` on the given context, unchanged.
    fn pure<A: Value>(a: A, guts: Self::Guts, store: Self::Store) -> Self::M<A>;

    /// Sequencing as plain function composition: feed every branch of `m`
    /// to `k` and concatenate the results.
    fn bind<A: Value, B: Value, K>(m: Self::M<A>, k: K) -> Self::M<B>
    where
        K: FnMut(A, Self::Guts, Self::Store) -> Self::M<B>;

    /// The failing computation (no branches).
    fn mzero<A: Value>() -> Self::M<A>;

    /// Non-deterministic choice: all branches of `x`, then all of `y`.
    fn mplus<A: Value>(x: Self::M<A>, y: Self::M<A>) -> Self::M<A>;

    /// Functorial map, derived from `bind`/`pure`.
    fn fmap<A: Value, B: Value, F>(m: Self::M<A>, mut f: F) -> Self::M<B>
    where
        F: FnMut(A) -> B,
    {
        Self::bind(m, move |a, g, s| Self::pure(f(a), g, s))
    }
}

/// The one direct-style carrier: computations are [`StepM`] vectors.
///
/// ```rust
/// use mai_core::monad::direct::{DirectStep, MonadStep};
///
/// type M = DirectStep<u32, u32>;
/// // get the store, double it, return the old value — one branch, no Rc.
/// let m = M::bind(M::pure((), 7, 100), |(), g, s| M::pure(s, g, s * 2));
/// assert_eq!(m, vec![(100, 7, 200)]);
/// ```
pub struct DirectStep<G, S>(PhantomData<(G, S)>);

impl<G: Value, S: Value> MonadStep for DirectStep<G, S> {
    type Guts = G;
    type Store = S;
    type M<A: Value> = StepM<A, G, S>;

    #[inline]
    fn pure<A: Value>(a: A, guts: G, store: S) -> StepM<A, G, S> {
        vec![(a, guts, store)]
    }

    #[inline]
    fn bind<A: Value, B: Value, K>(m: StepM<A, G, S>, mut k: K) -> StepM<B, G, S>
    where
        K: FnMut(A, G, S) -> StepM<B, G, S>,
    {
        // The common case is a single branch: avoid the concat entirely.
        let mut it = m.into_iter();
        let first = match it.next() {
            Some((a, g, s)) => k(a, g, s),
            None => return Vec::new(),
        };
        let mut out = first;
        for (a, g, s) in it {
            out.extend(k(a, g, s));
        }
        out
    }

    #[inline]
    fn mzero<A: Value>() -> StepM<A, G, S> {
        Vec::new()
    }

    #[inline]
    fn mplus<A: Value>(mut x: StepM<A, G, S>, y: StepM<A, G, S>) -> StepM<A, G, S> {
        x.extend(y);
        x
    }
}

/// Reshapes direct-style branches into the `[((a, g), s)]` form
/// [`run_store_passing`](super::run_store_passing) produces — the engines'
/// transition-function currency, and the shape the carrier-equivalence
/// tests compare on.
pub fn into_runs<A: Value, G: Value, S: Value>(m: StepM<A, G, S>) -> Vec<((A, G), S)> {
    m.into_iter().map(|(a, g, s)| ((a, g), s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monad::{
        run_store_passing, MonadFamily, MonadState, MonadTrans, StateT, StorePassing, VecM,
    };

    type G = u64;
    type S = u64;
    type D = DirectStep<G, S>;
    type Rc = StorePassing<G, S>;

    /// A sample program written against both carriers: tick the guts,
    /// branch on the store value, write back per branch.
    fn sample_rc() -> <Rc as MonadFamily>::M<u64> {
        let tick = <Rc as MonadState<G>>::modify(|t| t + 1);
        Rc::bind(tick, |_| {
            let fetched =
                <Rc as MonadTrans>::lift(crate::monad::gets_nd_set::<StateT<S, VecM>, S, u64, _>(
                    |s| [*s, *s + 10].into_iter().collect(),
                ));
            Rc::bind(fetched, |v| {
                let write = <Rc as MonadTrans>::lift(<StateT<S, VecM> as MonadState<S>>::modify(
                    move |s| s + v,
                ));
                Rc::bind(write, move |_| Rc::pure(v))
            })
        })
    }

    fn sample_direct(guts: G, store: S) -> StepM<u64, G, S> {
        let m = D::pure((), guts + 1, store);
        D::bind(m, |(), g, s| {
            let branches: StepM<u64, G, S> = [s, s + 10].into_iter().map(|v| (v, g, s)).collect();
            D::bind(branches, |v, g, s| D::pure(v, g, s + v))
        })
    }

    #[test]
    fn direct_carrier_matches_the_rc_oracle() {
        for (guts, store) in [(0u64, 5u64), (3, 0), (7, 100)] {
            let rc: Vec<((u64, G), S)> = run_store_passing(sample_rc(), guts, store);
            let direct = into_runs(sample_direct(guts, store));
            assert_eq!(rc, direct, "carriers diverged at ({guts}, {store})");
        }
    }

    #[test]
    fn bind_is_branch_concatenation_in_order() {
        let two = D::mplus(D::pure(1u8, 0, 0), D::pure(2u8, 0, 0));
        let m = D::bind(two, |v, g, s| {
            D::mplus(D::pure((v, 'a'), g, s), D::pure((v, 'b'), g, s))
        });
        let vals: Vec<(u8, char)> = m.into_iter().map(|(v, _, _)| v).collect();
        assert_eq!(vals, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
    }

    #[test]
    fn monad_laws_hold_observationally() {
        let k = |x: u64, g: G, s: S| D::pure(x + s, g + 1, s);
        // Left identity.
        assert_eq!(D::bind(D::pure(3, 7, 9), k), k(3, 7, 9));
        // Right identity.
        let m = sample_direct(2, 4);
        assert_eq!(D::bind(m.clone(), D::pure), m);
        // Associativity.
        let h = |x: u64, g: G, s: S| D::mplus(D::pure(x, g, s), D::pure(x * 2, g, s + 1));
        let lhs = D::bind(D::bind(m.clone(), k), h);
        let rhs = D::bind(m, |a, g, s| D::bind(k(a, g, s), h));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mzero_annihilates_and_mplus_is_union() {
        let none: StepM<u8, G, S> = D::mzero();
        assert!(D::bind(none.clone(), D::pure::<u8>).is_empty());
        let one = D::pure(1u8, 0, 0);
        assert_eq!(D::mplus(none.clone(), one.clone()), one);
        assert_eq!(D::mplus(one.clone(), none), one);
        assert_eq!(D::fmap(one, |v| v * 3), D::pure(3u8, 0, 0));
    }
}
