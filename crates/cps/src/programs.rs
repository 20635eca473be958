//! Benchmark and example CPS programs.
//!
//! These are the workloads used by the test suite, the examples and the
//! experiment harness (`mai-bench`): classic control-flow-analysis stress
//! programs expressed directly in CPS, plus size-parameterised generators
//! for the scaling experiments.  Programs built from direct-style λ-terms
//! (Church arithmetic and friends) are produced by [`crate::convert`]
//! instead.

use mai_core::name::{LabelSupply, Name};

use crate::syntax::{AExp, CExp, Lambda, Var};

/// A tiny builder around a [`LabelSupply`] for constructing CPS programs
/// programmatically with correctly labelled call sites.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    labels: LabelSupply,
}

impl ProgramBuilder {
    /// Creates a fresh builder.
    pub fn new() -> Self {
        ProgramBuilder {
            labels: LabelSupply::new(),
        }
    }

    /// A variable reference.
    pub fn var(&self, name: &str) -> AExp {
        AExp::var(name)
    }

    /// A λ-abstraction.
    pub fn lam(&self, params: &[&str], body: CExp) -> AExp {
        AExp::Lam(Lambda::new(
            params.iter().map(|p| Name::from(*p)).collect::<Vec<Var>>(),
            body,
        ))
    }

    /// A call site with a fresh label.
    pub fn call(&mut self, f: AExp, args: Vec<AExp>) -> CExp {
        CExp::call(self.labels.fresh(), f, args)
    }

    /// The `exit` expression.
    pub fn exit(&self) -> CExp {
        CExp::Exit
    }
}

/// `((λ (x k) (k x)) (λ (y j) (j y)) (λ (r) exit))` — the identity function
/// applied to the identity function; the smallest interesting program.
pub fn identity_application() -> CExp {
    let mut b = ProgramBuilder::new();
    let inner = b.call(b.var("k"), vec![b.var("x")]);
    let id = b.lam(&["x", "k"], inner);
    let arg_body = b.call(b.var("j"), vec![b.var("y")]);
    let arg = b.lam(&["y", "j"], arg_body);
    let exit = b.exit();
    let halt = b.lam(&["r"], exit);
    b.call(id, vec![arg, halt])
}

/// `((λ (f) (f f)) (λ (g) (g g)))` — the classic divergent Ω term.  Finite
/// abstract analyses terminate on it; the concrete interpreter does not.
pub fn omega() -> CExp {
    let mut b = ProgramBuilder::new();
    let ff = b.call(b.var("f"), vec![b.var("f")]);
    let outer = b.lam(&["f"], ff);
    let gg = b.call(b.var("g"), vec![b.var("g")]);
    let inner = b.lam(&["g"], gg);
    b.call(outer, vec![inner])
}

/// A chain of `n` applications of a single shared identity function to `n`
/// syntactically distinct argument functions:
///
/// ```text
/// let id = λ (x k). k x in
///   id a₁ (λ v₁. id a₂ (λ v₂. … exit))
/// ```
///
/// Under a monovariant analysis every `aᵢ` flows into the single binding of
/// `x` (and from there into every `vⱼ`); a 1-CFA analysis keeps the chain
/// precise.  This is the standard polyvariance stress test, and its
/// per-state-store analysis grows very quickly with `n`.
pub fn id_chain(n: usize) -> CExp {
    let mut b = ProgramBuilder::new();
    // Innermost continuation body: exit.
    let mut body = b.exit();
    // Build from the inside out: id aᵢ (λ (vᵢ) body)
    for i in (0..n).rev() {
        let arg_name = format!("a{i}");
        let cont_param = format!("v{i}");
        // The argument lambda: a distinct one-parameter function per step.
        let arg_inner = b.exit();
        let arg = b.lam(&[arg_name.as_str()], arg_inner);
        let cont = b.lam(&[cont_param.as_str()], body);
        body = b.call(b.var("id"), vec![arg, cont]);
    }
    let kx = b.call(b.var("k"), vec![b.var("x")]);
    let id = b.lam(&["x", "k"], kx);
    let top = b.lam(&["id"], body);
    b.call(top, vec![id])
}

/// The k-CFA "paradox" worst case (Van Horn & Might; Might, Smaragdakis &
/// Van Horn, PLDI 2010), scaled by `n`: `n` nested calls of a shared
/// two-continuation function, where each level can observe the bindings of
/// every enclosing level.  Heap-cloning analyses explore exponentially many
/// store variants as `n` grows; a shared-store analysis stays polynomial.
pub fn kcfa_worst_case(n: usize) -> CExp {
    kcfa_worst_case_scaled(n, 1)
}

/// The k-CFA worst case with a *scale knob*: `width` independent **lanes**
/// of the depth-`n` paradox, all abstractly live at the same time.
///
/// Each lane is a full copy of the classic cascade (with lane-local
/// variable names and fresh labels), wrapped as `λ (chᵢ) ⟨cascade over
/// chᵢ⟩`.  The lanes are then merged into **one** abstract address by a
/// two-stage relay —
///
/// ```text
/// merge = λ (x k). (k x)          ; entered from exactly one call site…
/// pump  = λ (y j). (merge y j)    ; …this one, whatever fed the pump
/// ```
///
/// — so after the `width` seeding calls `(pump laneᵢ …)` the single 1-CFA
/// address of `x` holds *every* lane, and the final dispatch `(r chooser)`
/// fans out to all of them at once.  From that round on, all `width`
/// cascades advance simultaneously and independently (lane-local names and
/// labels keep their stores disjoint), so the abstract transition graph is
/// `width` lanes wide instead of `width` times longer: total state count
/// and call-site count still grow as `n × width`, but the *frontier* of
/// the fixpoint engines now carries `≈ width` states per round.  This is
/// what makes the family the E10/E11 wall-clock workload: a wide frontier
/// loads the engine's per-round bookkeeping, where a chain-shaped scale
/// knob would step one state per round.
///
/// `kcfa_worst_case_scaled(n, 1)` is byte-for-byte [`kcfa_worst_case`]`(n)`.
pub fn kcfa_worst_case_scaled(n: usize, width: usize) -> CExp {
    let mut b = ProgramBuilder::new();
    // The shared function: takes a value and a continuation, calls the
    // continuation with *both* of two locally-created functions, creating
    // genuine non-determinism at every level.
    //
    //   chooser = λ (p k). (k p)
    //
    // and each level i of a lane does:
    //   (ch f_i  (λ (c_i) (ch g_i (λ (d_i) <next level>))))
    // where f_i / g_i are distinct lambdas closing over earlier c/d's.
    if width <= 1 {
        // The classic single-lane paradox, byte-for-byte.
        let mut body = b.exit();
        for i in (0..n).rev() {
            let c = format!("c{i}");
            let d = format!("d{i}");
            // g closes over c to keep earlier bindings live.
            let g_body = b.call(b.var(c.as_str()), vec![b.var("w")]);
            let g = b.lam(&["w"], g_body);
            let inner_cont = b.lam(&[d.as_str()], body);
            let inner_call = b.call(b.var("chooser"), vec![g, inner_cont]);
            let f_inner = b.exit();
            let f = b.lam(&["z"], f_inner);
            let outer_cont = b.lam(&[c.as_str()], inner_call);
            body = b.call(b.var("chooser"), vec![f, outer_cont]);
        }
        let kp = b.call(b.var("k"), vec![b.var("p")]);
        let chooser = b.lam(&["p", "k"], kp);
        let top = b.lam(&["chooser"], body);
        return b.call(top, vec![chooser]);
    }

    // One classic cascade per lane, over lane-local names (`l3c0`, `l3d0`,
    // …) so the lanes' store footprints are disjoint under every context.
    let lanes: Vec<AExp> = (0..width)
        .map(|l| {
            let ch = format!("ch{l}");
            let mut body = b.exit();
            for i in (0..n).rev() {
                let c = format!("l{l}c{i}");
                let d = format!("l{l}d{i}");
                let w = format!("l{l}w{i}");
                let z = format!("l{l}z{i}");
                let g_body = b.call(b.var(c.as_str()), vec![b.var(w.as_str())]);
                let g = b.lam(&[w.as_str()], g_body);
                let inner_cont = b.lam(&[d.as_str()], body);
                let inner_call = b.call(b.var(ch.as_str()), vec![g, inner_cont]);
                let f_inner = b.exit();
                let f = b.lam(&[z.as_str()], f_inner);
                let outer_cont = b.lam(&[c.as_str()], inner_call);
                body = b.call(b.var(ch.as_str()), vec![f, outer_cont]);
            }
            b.lam(&[ch.as_str()], body)
        })
        .collect();

    // Seeding, inside out: the last pumped continuation dispatches the
    // merged lane set; every earlier one pumps the next lane.
    //
    //   (pump lane₀ (λ (r0) (pump lane₁ (λ (r1) … (λ (r_last) (r_last
    //   chooser))))))
    let r_last = format!("r{}", width - 1);
    let dispatch = b.call(b.var(r_last.as_str()), vec![b.var("chooser")]);
    let mut cont = b.lam(&[r_last.as_str()], dispatch);
    let mut seed = b.call(b.var("pump"), vec![lanes[width - 1].clone(), cont]);
    for l in (0..width - 1).rev() {
        let r = format!("r{l}");
        cont = b.lam(&[r.as_str()], seed);
        seed = b.call(b.var("pump"), vec![lanes[l].clone(), cont]);
    }

    // merge is entered from exactly one call site (inside pump), so under
    // 1-CFA — and any coarser context — `x` is a single address that
    // accumulates every pumped lane.
    let kx = b.call(b.var("k"), vec![b.var("x")]);
    let merge = b.lam(&["x", "k"], kx);
    let merge_call = b.call(b.var("merge"), vec![b.var("y"), b.var("j")]);
    let pump = b.lam(&["y", "j"], merge_call);
    let kp = b.call(b.var("k"), vec![b.var("p")]);
    let chooser = b.lam(&["p", "k"], kp);

    let with_pump = b.call(b.lam(&["pump"], seed), vec![pump]);
    let with_merge = b.call(b.lam(&["merge"], with_pump), vec![merge]);
    b.call(b.lam(&["chooser"], with_merge), vec![chooser])
}

/// A program that creates a long chain of bindings of which only the most
/// recent is ever live: a garbage-collection stress test.  Without abstract
/// GC the (monovariant) store accumulates every generation; with GC each
/// step's dead bindings are dropped.
pub fn garbage_chain(n: usize) -> CExp {
    let mut b = ProgramBuilder::new();
    // step = λ (junk k). (k (λ (u) exit))    — the argument is dead on arrival
    let mut body = b.exit();
    for i in (0..n).rev() {
        let junk_name = format!("t{i}");
        let junk_inner = b.exit();
        let junk = b.lam(&[format!("j{i}").as_str()], junk_inner);
        let cont = b.lam(&[junk_name.as_str()], body);
        body = b.call(b.var("step"), vec![junk, cont]);
    }
    let fresh_exit = b.exit();
    let fresh = b.lam(&["u"], fresh_exit);
    let step_body = b.call(b.var("k"), vec![fresh]);
    let step = b.lam(&["junk", "k"], step_body);
    let top = b.lam(&["step"], body);
    b.call(top, vec![step])
}

/// `n` distinct call sites of one shared identity function, each passing a
/// distinct argument function and immediately exiting.  The flow set of the
/// identity's parameter has `n` elements under 0CFA and is a singleton per
/// context under 1CFA — the textbook polyvariance example.
pub fn fan_out(n: usize) -> CExp {
    let mut b = ProgramBuilder::new();
    let mut body = b.exit();
    for i in (0..n).rev() {
        let arg_inner = b.exit();
        let arg = b.lam(&[format!("p{i}").as_str()], arg_inner);
        let cont_body = body;
        let cont = b.lam(&[format!("r{i}").as_str()], cont_body);
        body = b.call(b.var("id"), vec![arg, cont]);
    }
    let kx = b.call(b.var("k"), vec![b.var("x")]);
    let id = b.lam(&["x", "k"], kx);
    let top = b.lam(&["id"], body);
    b.call(top, vec![id])
}

/// The standard corpus used by the experiment harness: name / program
/// pairs covering the qualitative claims of the paper's §6 and §8.
pub fn standard_corpus() -> Vec<(&'static str, CExp)> {
    vec![
        ("identity", identity_application()),
        ("omega", omega()),
        ("id-chain-4", id_chain(4)),
        ("id-chain-8", id_chain(8)),
        ("fan-out-6", fan_out(6)),
        ("kcfa-worst-3", kcfa_worst_case(3)),
        ("garbage-chain-6", garbage_chain(6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyse_kcfa_shared, analyse_mono, flow_map_of_store};
    use crate::semantics::PState;

    #[test]
    fn all_generated_programs_are_closed() {
        for (name, program) in standard_corpus() {
            assert!(program.is_closed(), "{name} has free variables");
        }
        for n in 0..6 {
            assert!(id_chain(n).is_closed());
            assert!(kcfa_worst_case(n).is_closed());
            assert!(garbage_chain(n).is_closed());
            assert!(fan_out(n).is_closed());
        }
    }

    #[test]
    fn scaled_worst_case_at_width_one_is_the_classic_generator() {
        for n in 0..5 {
            assert_eq!(
                kcfa_worst_case_scaled(n, 1).to_string(),
                kcfa_worst_case(n).to_string()
            );
        }
    }

    #[test]
    fn scaled_worst_case_grows_with_the_width_knob() {
        assert!(kcfa_worst_case_scaled(3, 4).is_closed());
        assert!(
            kcfa_worst_case_scaled(3, 4).call_site_count()
                > kcfa_worst_case_scaled(3, 1).call_site_count()
        );
        let wide = crate::analysis::analyse_kcfa_shared::<1>(&kcfa_worst_case_scaled(2, 3));
        let narrow = crate::analysis::analyse_kcfa_shared::<1>(&kcfa_worst_case_scaled(2, 1));
        assert!(wide.len() > narrow.len());
    }

    #[test]
    fn generated_programs_have_unique_labels() {
        for (name, program) in standard_corpus() {
            let labels = program.labels();
            assert!(
                !labels.is_empty() || program.is_exit(),
                "{name} has no call sites"
            );
            // Labels are a set, so uniqueness is by construction; check that
            // the count grows with the size parameter for the generators.
        }
        assert!(id_chain(8).call_site_count() > id_chain(4).call_site_count());
        assert!(fan_out(8).call_site_count() > fan_out(2).call_site_count());
    }

    #[test]
    fn programs_parse_back_from_their_rendering() {
        use crate::parser::parse_program;
        for (name, program) in standard_corpus() {
            let reparsed = parse_program(&program.to_string())
                .unwrap_or_else(|e| panic!("{name} failed to re-parse: {e}"));
            // Labels may differ, but structure (rendering) must round-trip.
            assert_eq!(reparsed.to_string(), program.to_string(), "{name}");
        }
    }

    #[test]
    fn analyses_terminate_on_the_whole_corpus() {
        for (name, program) in standard_corpus() {
            let mono = analyse_mono(&program);
            assert!(!mono.is_empty(), "{name} produced an empty analysis");
            let one = analyse_kcfa_shared::<1>(&program);
            assert!(!one.is_empty(), "{name} produced an empty 1-CFA analysis");
        }
    }

    #[test]
    fn fan_out_flow_sets_show_the_polyvariance_gap() {
        let program = fan_out(5);
        let mono = analyse_mono(&program);
        let flows = flow_map_of_store(mono.store());
        // Under 0CFA the shared identity's parameter accumulates all five
        // argument lambdas.
        assert_eq!(flows[&mai_core::Name::from("x")].len(), 5);
    }

    #[test]
    fn omega_is_finite_for_the_abstract_semantics() {
        let result = analyse_mono(&omega());
        // The abstract state space of Ω is tiny and the analysis must halt.
        assert!(result.distinct_states().len() <= 4);
        assert!(!result.distinct_states().iter().any(PState::is_final));
    }
}
