//! Seeded source generation.
//!
//! Every program of a workload comes from one of the language crates'
//! generator families at a fixed size.  The seed never changes a size, so
//! every seed costs the same work and carries the same reference answer;
//! it changes the *text*: all variables get one seed-derived prefix (an
//! α-renaming, which keeps the relative order of names and therefore the
//! engines' iteration order) and the cycle order of the program set is a
//! seeded permutation.

use mai_core::Name;
use mai_cps::{AExp, CExp};
use mai_fj::Program;
use mai_lambda::Term;

/// SplitMix64: a tiny, well-mixed deterministic generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `bound` (`bound > 0`).
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The seed's variable prefix: `q` and four letters.  Every seed's prefix
/// has the same length, so parsing and name hashing cost the same for
/// every seed, and no prefixed name can spell a reserved word.
pub fn name_prefix(seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x6e61_6d65_7072_6566);
    let mut prefix = String::from("q");
    for _ in 0..4 {
        prefix.push(char::from(b'a' + rng.below(26) as u8));
    }
    prefix
}

/// A seeded permutation of `0..len` (Fisher–Yates).
pub fn permutation(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x6f72_6465_7273_6565);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// A generator family at a fixed size.  Church terms apply the operator to
/// two copies of the numeral `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `mai_cps::programs::kcfa_worst_case_scaled(n, w)`.
    KcfaWide { n: usize, w: usize },
    /// `mai_cps::programs::id_chain(n)`.
    IdChain(usize),
    /// `mai_cps::programs::fan_out(n)`.
    FanOut(usize),
    /// `mai_cps::programs::garbage_chain(n)`.
    GarbageChain(usize),
    /// `mai_lambda::programs::let_chain(n)`.
    LetChain(usize),
    /// `mai_lambda::programs::church_addition(k, k)`.
    ChurchAdd(usize),
    /// `mai_lambda::programs::church_multiplication(k, k)`.
    ChurchMul(usize),
    /// `mai_lambda::programs::church_exponentiation(k, k)`.
    ChurchExp(usize),
    /// `mai_fj::programs::nested_cells(n)`.
    NestedCells(usize),
}

/// A generated program, as the pipeline receives it.
#[derive(Debug, Clone)]
pub enum Source {
    /// CPS source text, for `mai_cps::parser::parse_program`.
    Cps(String),
    /// Direct-style λ source text, for `mai_lambda::parser::parse_term`.
    Lambda(String),
    /// A Featherweight Java program.  The FJ crate has no parser, so its
    /// generator's syntax tree is the program's source.
    Fj(Program),
}

impl Family {
    /// The program's source, with every variable renamed by `prefix`.
    pub fn source(self, prefix: &str) -> Source {
        use mai_cps::programs as cps;
        use mai_lambda::programs as lam;
        let cps_text = |e: CExp| Source::Cps(rename_cexp(&e, prefix).to_string());
        let lambda_text = |t: Term| Source::Lambda(rename_term(&t, prefix).to_string());
        match self {
            Family::KcfaWide { n, w } => cps_text(cps::kcfa_worst_case_scaled(n, w)),
            Family::IdChain(n) => cps_text(cps::id_chain(n)),
            Family::FanOut(n) => cps_text(cps::fan_out(n)),
            Family::GarbageChain(n) => cps_text(cps::garbage_chain(n)),
            Family::LetChain(n) => lambda_text(lam::let_chain(n)),
            Family::ChurchAdd(k) => lambda_text(lam::church_addition(k, k)),
            Family::ChurchMul(k) => lambda_text(lam::church_multiplication(k, k)),
            Family::ChurchExp(k) => lambda_text(lam::church_exponentiation(k, k)),
            Family::NestedCells(n) => Source::Fj(mai_fj::programs::nested_cells(n)),
        }
    }
}

fn prefixed(prefix: &str, name: &Name) -> Name {
    Name::new(format!("{prefix}{name}"))
}

fn rename_cexp(e: &CExp, prefix: &str) -> CExp {
    match e {
        CExp::Call { label, f, args } => CExp::call(
            *label,
            rename_aexp(f, prefix),
            args.iter().map(|a| rename_aexp(a, prefix)).collect(),
        ),
        CExp::Exit | CExp::Error(_) => e.clone(),
    }
}

fn rename_aexp(a: &AExp, prefix: &str) -> AExp {
    match a {
        AExp::Ref(v) => AExp::Ref(prefixed(prefix, v)),
        AExp::Lam(lam) => AExp::lam(
            lam.params().iter().map(|p| prefixed(prefix, p)).collect(),
            rename_cexp(lam.body(), prefix),
        ),
    }
}

fn rename_term(t: &Term, prefix: &str) -> Term {
    match t {
        Term::Var(v) => Term::Var(prefixed(prefix, v)),
        Term::Lam { param, body } => Term::lam(prefixed(prefix, param), rename_term(body, prefix)),
        Term::App { label, func, arg } => {
            Term::app(*label, rename_term(func, prefix), rename_term(arg, prefix))
        }
        Term::Let {
            label,
            name,
            rhs,
            body,
        } => Term::let_in(
            *label,
            prefixed(prefix, name),
            rename_term(rhs, prefix),
            rename_term(body, prefix),
        ),
    }
}
