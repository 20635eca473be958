//! The frontier-driven worklist fixpoint engine.
//!
//! The paper's `Collecting` interface (§5.2) deliberately decouples the
//! monadic transition function `mnext` from the *global* fixed-point
//! strategy that drives it — but the only strategy the paper (and the
//! [`explore_fp`](crate::collect::explore_fp) driver) provides is naive
//! Kleene iteration: every pass re-steps **every** state accumulated so
//! far, making the overall analysis quadratic in the number of discovered
//! states even though each state's successors almost never change.
//!
//! This module exploits the same decoupling in the other direction, the way
//! *Abstracting Definitional Interpreters* (Darais et al.) exploits its
//! caching fixpoint: a domain that implements [`FrontierCollecting`] can be
//! solved by [`explore_worklist`], which only re-steps states whose inputs
//! may actually have changed.
//!
//! Two solving strategies are provided, one per analysis domain:
//!
//! * **Per-state stores** ([`PerStateDomain`](crate::collect::PerStateDomain),
//!   §5.3.3): a `((state, guts), store)` triple is a *closed* unit — its
//!   successors depend on nothing else — so the engine is plain frontier
//!   reachability over triples: a seen-set plus a FIFO worklist, each triple
//!   stepped exactly once.
//! * **Shared (widened) store**
//!   ([`SharedStoreDomain`](crate::collect::SharedStoreDomain), §6.5): a
//!   `(state, guts)` pair reads the single global store, so a pair's
//!   successors can change when the store is widened.  The engine is an
//!   **incremental accumulator**: it maintains one running domain, steps
//!   only the frontier (new pairs, plus pairs invalidated through a reverse
//!   dependency index over the addresses their transition may read — the
//!   [`reachable`] closure of their [`StateRoots`],
//!   the same root set abstract GC uses), and folds only those re-stepped
//!   contributions back in with the change-tracking in-place joins of the
//!   lattice layer.  Per-address store deltas fall out of the fold
//!   ([`StoreDelta::join_in_place_delta`](crate::store::StoreDelta)), so a
//!   round costs O(|frontier| × store-join) — the PR-1 engine's remaining
//!   O(|states| × store-join) per-round re-join is gone.  That PR-1
//!   *rescanning* solver is retained as
//!   [`FrontierCollecting::explore_frontier_rescan`] for differential
//!   testing and as the E9 benchmark baseline.
//!
//! All strategies compute *exactly* the fixpoint
//! [`explore_fp`](crate::collect::explore_fp) computes — see the
//! shared-store solver's module docs for why folding only the frontier is
//! exact — so the Kleene driver remains usable as a reference oracle (and
//! is asserted equal across the test corpus).  The engines additionally report
//! [`EngineStats`] so experiment harnesses can quantify the work saved.
//!
//! ## Choosing a driver
//!
//! Use [`explore_worklist`] (or the language crates' `analyse_*_worklist`
//! entry points) whenever the analysis is the bottleneck: on worklist-hard
//! workloads such as `kcfa_worst_case` the engine steps a small fraction of
//! the states Kleene iteration re-steps.  Use
//! [`explore_fp`](crate::collect::explore_fp) when you want the paper's
//! literal algorithm, a second opinion in a differential test, or a domain
//! that implements only [`Collecting`].

pub mod governor;
mod per_state;
mod shared;

pub use governor::{
    Budget, CancelToken, ExhaustReason, Outcome, ResumeSeed, SolveFrom, WidenPolicy,
};
pub use shared::{
    explore_rescan_governed_stats, explore_structural_governed_stats, SharedResumeSeed,
};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::addr::Address;
use crate::collect::Collecting;
use crate::gc::{reachable, Touches};
use crate::lattice::WidenLattice;
use crate::monad::{MonadFamily, Value};
use crate::store::StoreLike;
use crate::telemetry::{NoopSink, TraceSink};

/// Instrumentation gathered by a worklist run (for the experiment harness
/// and for asserting that the engine does strictly less work than Kleene
/// iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Worklist pops (per-state engine) or solver rounds (shared-store
    /// engine).
    pub iterations: usize,
    /// How many times the monadic step function was actually executed.
    pub states_stepped: usize,
    /// Steps whose cached contribution was reused instead of being
    /// re-executed: per round, the states *not* on the frontier.  The
    /// incremental engine does not even visit them on fast-path rounds
    /// (rebuild rounds re-execute everything, so they contribute no hits);
    /// the rescan engine replays them from its memo table.
    pub cache_hits: usize,
    /// Previously-stepped states that were re-enqueued because an address
    /// they read was widened (shared-store engine only).
    pub reenqueued: usize,
    /// Address-level store-growth events: how many `(round, address)`
    /// pairs saw the global store change under the accumulating fold
    /// (shared-store engine only).  Counts *join* growth — see
    /// [`EngineStats::widen_applied`] for true widening applications; the
    /// two were one counter (`store_widenings`) before real widening
    /// existed, and conflating them would make the taxonomy lie.
    pub store_joins_applied: usize,
    /// True widening applications: how many `(round, address)` pairs were
    /// accumulated with the co-domain's `▽` instead of `⊔` because the
    /// address had been designated a widening point by the budget's
    /// [`WidenPolicy`].  0 whenever
    /// widening is off (the default).  Deterministic, so `--check-regress`
    /// gates it like the other work counters.
    pub widen_applied: usize,
    /// Contribution joins folded into the running (or rebuilt) domain: the
    /// per-round cost the incremental engine drops from O(|states|) to
    /// O(|frontier|).  For the per-state engine, successful domain inserts.
    pub store_joins: usize,
    /// Rounds of the incremental shared-store engine that re-stepped and
    /// re-folded *every* cached pair because a re-stepped contribution
    /// shrank — evidence of a non-monotone step function.  0 for every
    /// configuration of this framework (including abstract GC, whose
    /// contributions stay monotone across rounds); a hand-written
    /// non-monotone semantics triggers it.
    pub rebuild_rounds: usize,
    /// The largest observed frontier: for the per-state engine, the peak
    /// worklist (queue) length; for the round-based shared-store engine,
    /// the largest number of states actually stepped in a single round
    /// (cached states are not part of a round's frontier).
    pub peak_frontier: usize,
    /// Intern-table lookups that found an existing id (id-indexed engines
    /// only): how often a step produced an already-known state, i.e. how
    /// much deep hashing/cloning the hash-consing layer amortised away.
    pub intern_hits: usize,
    /// Intern-table lookups that allocated a fresh id (id-indexed engines
    /// only).  Always equals [`EngineStats::distinct_states`].
    pub intern_misses: usize,
    /// Distinct interned states: `(state, guts)` pairs for the shared-store
    /// engine, `((state, guts), store)` triples for the per-state engine.
    pub distinct_states: usize,
    /// Distinct environments among the fixpoint's states.  The engines are
    /// language-generic and cannot see environments, so this is filled in
    /// at the language boundary (the `distinct_env_count` helpers of the
    /// language crates, used by the E10 experiment rows); 0 when nothing
    /// filled it.
    pub distinct_envs: usize,
    /// Whole-store spine clones the solver performed: one per step (the
    /// pre-store handed to the transition function) plus one per cached
    /// contribution folded into the accumulator.  With the persistent
    /// [`PMap`](crate::pmap) spine each clone is an `Arc` bump, but the
    /// *count* is a deterministic work measure — a growing count means the
    /// engine started re-stepping or re-folding work it had stopped doing,
    /// so `mai-bench --check-regress` gates on it like on steps and joins.
    pub spine_clones: usize,
    /// The peak, over solver rounds, of the approximate bytes of the
    /// accumulated store's spine shared (`Arc` strong count > 1) with the
    /// solver's cached deltas — sampled after each round's fold phase via
    /// [`StoreLike::shared_spine_bytes`](crate::store::StoreLike), while
    /// the adoptions that fold performed are still live.  0 for stores
    /// without a persistent spine and for the per-state engine (which has
    /// no single accumulated store).  Deterministic for a deterministic
    /// run; `--check-regress` treats a *drop* as a structural-sharing
    /// regression.
    pub store_bytes_shared: usize,
}

impl EngineStats {
    /// Joins two stat records: additive *work* counters (steps, joins,
    /// hits, re-enqueues, widenings, spine clones, intern traffic, rounds)
    /// are summed; *gauge* counters (peaks: frontier, shared bytes; totals:
    /// distinct states/envs) take the maximum.  `merge` is associative and
    /// commutative, so summing the records of several solves is
    /// independent of their order.
    pub fn merge(&mut self, other: &EngineStats) {
        self.iterations += other.iterations;
        self.states_stepped += other.states_stepped;
        self.cache_hits += other.cache_hits;
        self.reenqueued += other.reenqueued;
        self.store_joins_applied += other.store_joins_applied;
        self.widen_applied += other.widen_applied;
        self.store_joins += other.store_joins;
        self.rebuild_rounds += other.rebuild_rounds;
        self.peak_frontier = self.peak_frontier.max(other.peak_frontier);
        self.intern_hits += other.intern_hits;
        self.intern_misses += other.intern_misses;
        self.distinct_states = self.distinct_states.max(other.distinct_states);
        self.distinct_envs = self.distinct_envs.max(other.distinct_envs);
        self.spine_clones += other.spine_clones;
        self.store_bytes_shared = self.store_bytes_shared.max(other.store_bytes_shared);
    }

    /// Average contribution joins per solver round — the E9 headline metric
    /// (O(|frontier|) for the incremental engine, O(|states|) for the
    /// rescanning engine and naive Kleene iteration).
    pub fn joins_per_round(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.store_joins as f64 / self.iterations as f64
        }
    }

    /// Fraction of intern lookups served by an existing id — the E10
    /// headline metric for the hash-consing layer (how much state identity
    /// work became O(1)).  0 when the run did not intern (structural
    /// engines).
    pub fn intern_hit_rate(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iters={} stepped={} hits={} reenq={} addr-joins={} widened={} joins={} rebuilds={} \
             peak={} intern={}/{} distinct={} clones={} shared-bytes={}",
            self.iterations,
            self.states_stepped,
            self.cache_hits,
            self.reenqueued,
            self.store_joins_applied,
            self.widen_applied,
            self.store_joins,
            self.rebuild_rounds,
            self.peak_frontier,
            self.intern_hits,
            self.intern_misses,
            self.distinct_states,
            self.spine_clones,
            self.store_bytes_shared
        )
    }
}

/// States that can report the addresses their next transition may read,
/// as a set of *roots* to be closed over the store.
///
/// This is the engine-facing view of the language crates'
/// [`Touches`] instances: the address type becomes an
/// associated type so that the shared-store engines can name it without an
/// unconstrained type parameter.  The contract is the one abstract garbage
/// collection (§6.4) already relies on: a transition from `self` may only
/// fetch addresses inside `reachable(self.state_roots(), store)`.
///
/// The roots serve abstract GC ([`with_state_gc`]), the successor closure
/// of GC'd branches, and the structural/rescanning oracle engines.  The
/// id-indexed engines no longer close them over the store for ordinary
/// dependency tracking: they record what a step actually read
/// ([`crate::store::reads`]).  `tests/read_journal.rs` checks this
/// contract against those recorded reads at every reached state.
pub trait StateRoots {
    /// The address type this state touches.
    type Addr: Address;

    /// The root addresses of the state (typically its `touches()` set).
    fn state_roots(&self) -> BTreeSet<Self::Addr>;
}

/// The engines' carrier-neutral view of a transition function: the
/// desugared `g -> s -> [((state, g), s)]` shape of the `StorePassing`
/// monad (paper §5.3.1), as a plain function.
///
/// Two producers exist:
///
/// * `run_store_passing ∘ mnext` — the **`Rc`-closure oracle carrier**
///   (every `Fn(Ps, G, S) -> Vec<((Ps, G), S)>` closure implements this
///   trait, so wrapping a monadic step is one line);
/// * the language crates' `mnext_direct` — the **direct-style carrier**
///   ([`crate::monad::direct`]), which evaluates the same semantics with
///   `bind` as plain function composition and no `Rc<dyn Fn>` allocation
///   per bind.
///
/// The solvers are written once against this trait and therefore compute
/// identical fixpoints (and identical work counters) on either carrier;
/// only the per-step constant factor differs.
pub trait StepFn<Ps, G, S> {
    /// Steps one `(state, guts, store)` configuration to its successor
    /// branches.
    fn step(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)>;
}

impl<F, Ps, G, S> StepFn<Ps, G, S> for F
where
    F: Fn(Ps, G, S) -> Vec<((Ps, G), S)>,
{
    fn step(&self, ps: Ps, guts: G, store: S) -> Vec<((Ps, G), S)> {
        self(ps, guts, store)
    }
}

/// Wraps a direct-style step function so that every produced branch is
/// followed by abstract garbage collection: the branch's store is
/// restricted to the addresses reachable from the successor state's roots
/// (the paper's `STEP-GC` rule of §6.4, on the direct carrier).
///
/// This is the direct-style counterpart of
/// [`with_gc`](crate::collect::with_gc) specialised to the one strategy
/// every language crate uses — restrict-to-reachable from the stepped
/// state's [`StateRoots`] — so the languages' `analyse_*_gc_direct` entry
/// points need no per-language GC plumbing.
pub fn with_state_gc<Ps, G, S, F>(step: F) -> impl Fn(Ps, G, S) -> Vec<((Ps, G), S)>
where
    Ps: StateRoots,
    S: StoreLike<Ps::Addr>,
    S::D: Touches<Ps::Addr>,
    F: StepFn<Ps, G, S>,
{
    move |ps: Ps, guts: G, store: S| {
        step.step(ps, guts, store)
            .into_iter()
            .map(|((ps2, g2), s2)| {
                let live = reachable(ps2.state_roots(), &s2);
                let s2 = s2.filter_store(|a| live.contains(a));
                ((ps2, g2), s2)
            })
            .collect()
    }
}

/// Per-address growth bookkeeping behind the budget's [`WidenPolicy`]:
/// decides, round by round, **where** the shared-store engines accumulate
/// with the co-domain's widening `▽` instead of plain join `⊔`.
///
/// The policy is the classical delayed-widening discipline, made
/// address-local: every address starts as a join point; each fold that
/// grows it counts one growth; once an address has grown strictly more
/// than [`WidenPolicy::growth_threshold`] times it is designated a
/// *widening point* and every later fold widens it
/// ([`StoreDelta::widen_in_place_delta`](crate::store::StoreDelta)).
/// Termination: each address joins at most `threshold + 1` times before
/// switching to `▽`, and the co-domain guarantees every `▽`-chain
/// stabilises in finitely many steps, so the per-address chain — and with
/// it the store half of the fixpoint iteration — is finite.
///
/// A tracker built from a disabled policy never designates a point, and
/// [`StoreDelta::widen_in_place_delta`](crate::store::StoreDelta) with an
/// empty point set *is* `join_in_place_delta`, so engines call the widened
/// fold unconditionally and stay byte-identical to the pre-widening
/// engines whenever widening is off (the default).
pub(crate) struct WidenTracker<A: Address> {
    enabled: bool,
    threshold: usize,
    growths: BTreeMap<A, usize>,
    points: BTreeSet<A>,
}

impl<A: Address> WidenTracker<A> {
    pub(crate) fn new(policy: &WidenPolicy) -> Self {
        WidenTracker {
            enabled: policy.enabled,
            threshold: policy.growth_threshold,
            growths: BTreeMap::new(),
            points: BTreeSet::new(),
        }
    }

    /// The current widening points (always empty when widening is off).
    pub(crate) fn points(&self) -> &BTreeSet<A> {
        &self.points
    }

    /// Splits a fold's changed-address set into `(joined, widened)` counts
    /// against the points that were in force *during* that fold — call
    /// before [`WidenTracker::record`].
    pub(crate) fn classify(&self, changed: &BTreeSet<A>) -> (usize, usize) {
        if self.points.is_empty() {
            return (changed.len(), 0);
        }
        let widened = changed.iter().filter(|a| self.points.contains(*a)).count();
        (changed.len() - widened, widened)
    }

    /// Records one growth for every changed address; addresses past the
    /// threshold become widening points for all subsequent folds.
    pub(crate) fn record(&mut self, changed: &BTreeSet<A>) {
        if !self.enabled {
            return;
        }
        for a in changed {
            let n = self.growths.entry(a.clone()).or_insert(0);
            *n += 1;
            if *n > self.threshold {
                self.points.insert(a.clone());
            }
        }
    }
}

/// The decreasing half of the widening/narrowing pair, run as an
/// engine-independent post-pass once a widened solve has stabilised:
/// `σ_{k+1} = σ_k △ F(σ_k)`, where `F(σ)` is the join of every discovered
/// state's step image over `σ` — each pass can only tighten bounds the
/// widening over-shot (`▽` loses a bound to ±∞; if the semantics actually
/// caps the value, one image sweep recovers the cap), and the pass stops
/// as soon as an iterate refines nothing, or after `passes` sweeps.
///
/// The image is assembled from what each branch actually **wrote**: the
/// pre-store handed to a re-stepped state is armed for write journaling
/// ([`StoreDelta::arm_write_journal`](crate::store::StoreDelta)), and each
/// result branch's journal — exactly the addresses it bound or replaced,
/// with the written values — is joined into the image.  This meets the
/// contract the store-level narrow needs: `image(a)`, when present, is an
/// upper bound of *every* producer's contribution at `a`, and a silent
/// address is one **no producer wrote**, so leaving it untouched is sound.
/// A value-level diff against the accumulator cannot provide this — a
/// branch that writes exactly the current binding (say `x := y` with
/// `y = [0,+∞)`) diffs as unchanged, and dropping it from the image would
/// let another branch's tighter write (`x := [0,5]`) narrow the address
/// below values that genuinely flow there.  A store that does not journal
/// falls back to contributing its whole branch store — inflationary (a
/// store-passing branch threads the accumulator through, so nothing
/// tightens), but sound; only journaling stores recover precision.
///
/// The pass is a pure function of the *final* `(states, store)` pair and
/// the step function — no engine round structure enters it — so every
/// engine that converged to the same widened fixpoint narrows to the same
/// store, preserving the cross-engine byte-identity contract.  Its step
/// executions are deliberately **not** counted in [`EngineStats`]: the
/// work-counter invariants (`store_joins == states_stepped` on fast-path
/// runs, traced-vs-untraced counter equality) describe the solve, and the
/// refinement sweep is not part of the solve.  For the same reason the
/// budget's round/step limits do not gate the sweep — but its *wall-clock*
/// bounds do: [`Budget::interrupted`] is polled between state re-steps,
/// and a deadline or cancellation abandons the refinement early.  That is
/// safe — the widened store is already a sound `Complete` result, and
/// every completed `σ_{k+1} = σ_k △ F(σ_k)` iterate (the only thing an
/// abort can skip) only refines it further.
pub(crate) fn narrow_store_post_pass<Ps, G, S, F>(
    states: &BTreeSet<(Ps, G)>,
    store: &mut S,
    step: &F,
    passes: usize,
    budget: &Budget,
) where
    Ps: Value + Ord + StateRoots,
    G: Value + Ord,
    S: crate::store::StoreDelta<Ps::Addr> + WidenLattice,
    F: StepFn<Ps, G, S>,
{
    for _ in 0..passes {
        let mut image = S::bottom();
        for (ps, g) in states.iter() {
            if budget.interrupted().is_some() {
                return;
            }
            let mut pre = store.clone();
            pre.arm_write_journal();
            for ((_, _), mut s2) in step.step(ps.clone(), g.clone(), pre) {
                match s2.take_write_journal() {
                    Some(written) => image.join_in_place(written),
                    None => image.join_in_place(s2),
                };
            }
        }
        if !store.narrow_in_place(image) {
            break;
        }
    }
}

/// Analysis domains solvable directly from a desugared [`StepFn`] — the
/// carrier-selecting face of the engines.  [`FrontierCollecting`] methods
/// wrap their `Rc`-closure step into a [`StepFn`] and delegate here, so
/// both carriers run byte-identical solver code.
///
/// The *governed* solver is the one implementation: the classic
/// `explore_frontier_direct*` entry points are default wrappers passing
/// [`Budget::unlimited`] and unwrapping the guaranteed-`Complete`
/// outcome, so governed-off runs are byte-identical (fixpoint *and*
/// work counters) to the pre-governor engines by construction.
pub trait DirectCollecting<Ps, G, S>: Sized {
    /// What an `Exhausted` partial carries to continue the solve — see
    /// [`ResumeSeed`].
    type Seed;

    /// The governed frontier-driven solve: starts fresh or from a resume
    /// seed, consults `budget` at every round boundary, and reports
    /// either the fixpoint or a resumable partial.
    fn explore_frontier_governed_traced<F, T>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
        sink: &mut T,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug;

    /// [`Self::explore_frontier_governed_traced`] without a sink.
    fn explore_frontier_governed<F>(
        step: &F,
        from: SolveFrom<Ps, Self::Seed>,
        budget: &Budget,
    ) -> (Outcome<Self, Self::Seed>, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_governed_traced(step, from, budget, &mut NoopSink)
    }

    /// Solves `lfp (λX. inject(initial) ⊔ applyStep(step, X))` with the
    /// default frontier-driven engine, from a direct-style step function.
    fn explore_frontier_direct<F>(step: &F, initial: Ps) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        Ps: fmt::Debug,
    {
        Self::explore_frontier_direct_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier_direct`] with a
    /// [`TraceSink`] observing the solve:
    /// one [`RoundTrace`](crate::telemetry::RoundTrace) per round plus
    /// per-state step-cost and per-address join-traffic attribution.
    /// Identical fixpoint and identical [`EngineStats`] at every sink —
    /// tracing never feeds back into the solve.
    fn explore_frontier_direct_traced<F, T>(
        step: &F,
        initial: Ps,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: StepFn<Ps, G, S>,
        T: TraceSink,
        Ps: fmt::Debug,
    {
        let (outcome, stats) = Self::explore_frontier_governed_traced(
            step,
            SolveFrom::Fresh(initial),
            &Budget::unlimited(),
            sink,
        );
        (outcome.into_complete(), stats)
    }
}

/// Computes the collecting semantics with the worklist engine from a
/// direct-style step function — the carrier-selected counterpart of
/// [`explore_worklist_stats`].
pub fn explore_worklist_direct_stats<Ps, G, S, Fp, F>(step: F, initial: Ps) -> (Fp, EngineStats)
where
    Ps: fmt::Debug,
    Fp: DirectCollecting<Ps, G, S>,
    F: StepFn<Ps, G, S>,
{
    Fp::explore_frontier_direct(&step, initial)
}

/// [`explore_worklist_direct_stats`] with a
/// [`TraceSink`] observing the solve.
pub fn explore_worklist_direct_traced_stats<Ps, G, S, Fp, F, T>(
    step: F,
    initial: Ps,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    Ps: fmt::Debug,
    Fp: DirectCollecting<Ps, G, S>,
    F: StepFn<Ps, G, S>,
    T: TraceSink,
{
    Fp::explore_frontier_direct_traced(&step, initial, sink)
}

/// Analysis domains that can be solved by a frontier-driven worklist engine
/// instead of naive Kleene iteration.
///
/// Implementations must compute the same fixpoint
/// [`explore_fp`](crate::collect::explore_fp) computes for the same step
/// function; the difference is purely operational (how much work is
/// re-done).  This is the engine-side extension of the paper's `Collecting`
/// class — the third degree of freedom of `runAnalysis` (the fixed-point
/// strategy), made swappable.
pub trait FrontierCollecting<M: MonadFamily, A: Value>: Collecting<M, A> {
    /// Solves `lfp (λX. inject(initial) ⊔ applyStep(step, X))` with a
    /// frontier-driven worklist, returning the fixpoint and the work
    /// statistics.
    ///
    /// This is the *incremental accumulator*: the solver maintains one
    /// running domain and folds in only the contributions of re-stepped
    /// states, so a round costs O(|frontier| × store-join) instead of the
    /// O(|states| × store-join) the rescanning engine pays.
    fn explore_frontier<F>(step: &F, initial: A) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        A: fmt::Debug,
    {
        Self::explore_frontier_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier`] with a
    /// [`TraceSink`] observing the solve.
    /// Identical fixpoint and identical [`EngineStats`] at every sink.
    fn explore_frontier_traced<F, T>(step: &F, initial: A, sink: &mut T) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        T: TraceSink,
        A: fmt::Debug;

    /// The PR-1 *rescanning* solver: memoises step outcomes the same way,
    /// but rebuilds the iterate by re-joining **every** cached contribution
    /// each round.  Computes the identical fixpoint; kept as the
    /// differential-testing oracle and the baseline the E9 benchmarks
    /// measure the incremental accumulator against.  Domains whose
    /// [`Self::explore_frontier`] already steps each state exactly once
    /// (the per-state domain) use it unchanged.
    fn explore_frontier_rescan<F>(step: &F, initial: A) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        A: fmt::Debug,
    {
        Self::explore_frontier_rescan_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier_rescan`] with a
    /// [`TraceSink`] observing the solve.
    fn explore_frontier_rescan_traced<F, T>(
        step: &F,
        initial: A,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        T: TraceSink,
        A: fmt::Debug,
    {
        Self::explore_frontier_traced(step, initial, sink)
    }

    /// The PR-2 *structural-key* incremental accumulator: the same
    /// frontier/fold strategy as [`Self::explore_frontier`], but with every
    /// engine table keyed by the full `(state, guts)` structure — `BTreeMap`
    /// lookups paying a deep `Ord` walk per comparison, frontier, successor
    /// and dependency sets deep-cloning states.  Computes the identical
    /// fixpoint; kept as a differential-testing oracle and the baseline the
    /// E10 benchmarks measure the id-indexed engine against.  Domains whose
    /// [`Self::explore_frontier`] never had a structural-key incarnation
    /// (the per-state domain) use it unchanged.
    fn explore_frontier_structural<F>(step: &F, initial: A) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        A: fmt::Debug,
    {
        Self::explore_frontier_structural_traced(step, initial, &mut NoopSink)
    }

    /// [`Self::explore_frontier_structural`] with a
    /// [`TraceSink`] observing the solve.
    fn explore_frontier_structural_traced<F, T>(
        step: &F,
        initial: A,
        sink: &mut T,
    ) -> (Self, EngineStats)
    where
        F: Fn(A) -> M::M<A>,
        T: TraceSink,
        A: fmt::Debug,
    {
        Self::explore_frontier_traced(step, initial, sink)
    }
}

/// Computes the collecting semantics with the worklist engine — the drop-in
/// counterpart of [`explore_fp`](crate::collect::explore_fp).
pub fn explore_worklist<M, A, Fp, F>(step: F, initial: A) -> Fp
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    Fp::explore_frontier(&step, initial).0
}

/// Like [`explore_worklist`], additionally returning the [`EngineStats`]
/// describing how much work the run performed.
pub fn explore_worklist_stats<M, A, Fp, F>(step: F, initial: A) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    Fp::explore_frontier(&step, initial)
}

/// [`explore_worklist_stats`] with a
/// [`TraceSink`] observing the solve.
pub fn explore_worklist_traced_stats<M, A, Fp, F, T>(
    step: F,
    initial: A,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
    T: TraceSink,
{
    Fp::explore_frontier_traced(&step, initial, sink)
}

/// Solves with the PR-1 *rescanning* worklist engine
/// ([`FrontierCollecting::explore_frontier_rescan`]): same fixpoint, but
/// every round re-joins every cached contribution.  Exposed for
/// differential testing and for the E9 incremental-vs-rescan benchmarks.
pub fn explore_worklist_rescan_stats<M, A, Fp, F>(step: F, initial: A) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    Fp::explore_frontier_rescan(&step, initial)
}

/// [`explore_worklist_rescan_stats`] with a
/// [`TraceSink`] observing the solve.
pub fn explore_worklist_rescan_traced_stats<M, A, Fp, F, T>(
    step: F,
    initial: A,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
    T: TraceSink,
{
    Fp::explore_frontier_rescan_traced(&step, initial, sink)
}

/// Solves with the PR-2 *structural-key* incremental engine
/// ([`FrontierCollecting::explore_frontier_structural`]): same fixpoint and
/// same frontier strategy as [`explore_worklist_stats`], but state identity
/// is structural (deep `Ord`/clone) instead of id-indexed.  Exposed for
/// differential testing and as the baseline of the E10
/// interned-vs-incremental benchmarks.
pub fn explore_worklist_structural_stats<M, A, Fp, F>(step: F, initial: A) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
{
    Fp::explore_frontier_structural(&step, initial)
}

/// [`explore_worklist_structural_stats`] with a
/// [`TraceSink`] observing the solve.
pub fn explore_worklist_structural_traced_stats<M, A, Fp, F, T>(
    step: F,
    initial: A,
    sink: &mut T,
) -> (Fp, EngineStats)
where
    M: MonadFamily,
    A: Value + fmt::Debug,
    Fp: FrontierCollecting<M, A>,
    F: Fn(A) -> M::M<A>,
    T: TraceSink,
{
    Fp::explore_frontier_structural_traced(&step, initial, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{explore_fp, PerStateDomain, SharedStoreDomain};
    use crate::lattice::Lattice;
    use crate::monad::{MonadPlus, MonadState, MonadTrans, StateT, StorePassing, VecM};
    use crate::store::{BasicStore, StoreLike};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A pointer-shaped heap value for the randomized machines.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Ptr(u8);

    impl crate::gc::Touches<u8> for Ptr {
        fn touches(&self) -> BTreeSet<u8> {
            [self.0].into_iter().collect()
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct St(u8);

    impl StateRoots for St {
        type Addr = u8;

        fn state_roots(&self) -> BTreeSet<u8> {
            [self.0 % 4].into_iter().collect()
        }
    }

    type S = BasicStore<u8, Ptr>;
    type M = StorePassing<u64, S>;

    /// A family of small randomized machines over 16 states and 4 heap
    /// cells: the `table` entry for state `n` encodes its successor offsets
    /// and whether it reads or writes its cell.
    fn table_step(table: Vec<u8>) -> impl Fn(St) -> <M as crate::monad::MonadFamily>::M<St> {
        move |st: St| {
            let n = st.0;
            let code = *table.get(n as usize % table.len().max(1)).unwrap_or(&0);
            let next = St((n + 1 + code % 3) % 16);
            match code % 4 {
                // Plain jump.
                0 => M::pure(next),
                // Branching jump.
                1 => M::mplus(M::pure(next), M::pure(St((n + 7) % 16))),
                // Write the state's cell.
                2 => {
                    let cell = n % 4;
                    let write = <M as MonadTrans>::lift(
                        <StateT<S, VecM> as MonadState<S>>::modify(move |store: S| {
                            store.bind(cell, [Ptr((code + 1) % 4)].into_iter().collect())
                        }),
                    );
                    M::bind(write, move |_| M::pure(next.clone()))
                }
                // Read the state's cell and follow the stored pointers.
                _ => {
                    let cell = n % 4;
                    let fetched = <M as MonadTrans>::lift(crate::monad::gets_nd_set::<
                        StateT<S, VecM>,
                        S,
                        Ptr,
                        _,
                    >(move |store| {
                        store.fetch(&cell)
                    }));
                    let via_heap = M::bind(fetched, move |ptr| M::pure(St((ptr.0 + 8) % 16)));
                    M::mplus(M::pure(next), via_heap)
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_shared_worklist_equals_kleene_on_random_machines(
            table in proptest::collection::vec(0u8..12, 1..16)
        ) {
            let step = table_step(table);
            let kleene: SharedStoreDomain<St, u64, S> =
                explore_fp::<M, St, _, _>(&step, St(0));
            let (worklist, stats): (SharedStoreDomain<St, u64, S>, _) =
                explore_worklist_stats::<M, St, _, _>(&step, St(0));
            prop_assert_eq!(&worklist, &kleene);
            // …and so does the PR-1 rescanning solver.
            let (rescan, rescan_stats): (SharedStoreDomain<St, u64, S>, _) =
                explore_worklist_rescan_stats::<M, St, _, _>(&step, St(0));
            prop_assert_eq!(&rescan, &kleene);
            // The result is a genuine fixpoint of the Kleene functional.
            type Domain = SharedStoreDomain<St, u64, S>;
            let again = <Domain as crate::collect::Collecting<M, St>>::apply_step(&step, &worklist)
                .join(<Domain as crate::collect::Collecting<M, St>>::inject(St(0)));
            prop_assert!(again.leq(&worklist));
            // Stats sanity: every state pair was stepped at least once.
            prop_assert!(stats.states_stepped >= worklist.len());
            prop_assert_eq!(stats.states_stepped - stats.reenqueued, worklist.len());
            // These machines are GC-free, so every round stays on the
            // monotone fast path: one contribution fold per stepped pair,
            // never more than the rescanning engine's full re-joins.
            prop_assert_eq!(stats.rebuild_rounds, 0);
            prop_assert_eq!(stats.store_joins, stats.states_stepped);
            prop_assert!(stats.store_joins <= rescan_stats.store_joins);
        }

        #[test]
        fn prop_per_state_worklist_equals_kleene_on_random_machines(
            table in proptest::collection::vec(0u8..12, 1..16)
        ) {
            let step = table_step(table);
            let kleene: PerStateDomain<St, u64, S> =
                explore_fp::<M, St, _, _>(&step, St(0));
            let (worklist, stats): (PerStateDomain<St, u64, S>, _) =
                explore_worklist_stats::<M, St, _, _>(&step, St(0));
            prop_assert_eq!(&worklist, &kleene);
            // Frontier reachability steps every triple exactly once.
            prop_assert_eq!(stats.states_stepped, worklist.len());
        }
    }
}
