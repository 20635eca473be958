//! Addresses, contexts and polyvariance (paper §6.1).
//!
//! In the abstracted abstract machine, the *allocator* decides how many
//! abstract variants of each variable binding exist, and the *context*
//! ("time-stamp") it consults decides how execution history is remembered.
//! Together they fix the polyvariance and context-sensitivity of the
//! analysis — independently of the language being analysed.
//!
//! The paper packages this as the `Addressable a c` class with a functional
//! dependency `c → a`; here the context type owns its address type as an
//! associated type:
//!
//! * [`ConcreteCtx`] — fresh addresses at every allocation: instantiates the
//!   *concrete* (collecting) semantics of §5.3, where addresses are plain
//!   integers.
//! * [`MonoCtx`] — the monovariant allocator of 0CFA (§2.3.1): the address
//!   of a variable is the variable itself.
//! * [`KCallCtx<K>`] — call-strings of length at most `K`, the k-CFA
//!   contexts of §2.4.1/§6.1.
//! * [`BoundedCtx<N>`] — contexts drawn from the bounded naturals
//!   `{0, …, N-1}` mentioned in §3.4 as a further example.

mod bounded;
mod concrete;
mod kcall;
mod mono;

pub use bounded::{BoundedAddr, BoundedCtx};
pub use concrete::{ConcreteAddr, ConcreteCtx};
pub use kcall::{KCallAddr, KCallCtx};
pub use mono::{MonoAddr, MonoCtx};

#[cfg(test)]
mod named_tests {
    use super::*;

    #[test]
    fn named_addresses_expose_their_variable() {
        let x = Name::from("x");
        assert_eq!(MonoCtx.valloc(&x).variable(), &x);
        assert_eq!(ConcreteCtx { time: 3 }.valloc(&x).variable(), &x);
        assert_eq!(KCallCtx::<2>::empty().valloc(&x).variable(), &x);
        assert_eq!(BoundedCtx::<4>::initial().valloc(&x).variable(), &x);
    }
}

use std::fmt::Debug;

use crate::name::{Label, Name};

/// Types usable as abstract (or concrete) addresses.
///
/// This is a "trait alias" for the constraints every address representation
/// needs: cloneable, totally ordered (so that it can key stores and appear
/// inside power-set lattices), hashable (so that it can be placed in the
/// persistent [`PMap`](crate::pmap) store spine and in the id-indexed
/// engine's dependency index) and printable.
pub trait Address: Clone + Ord + std::hash::Hash + Debug + 'static {}

impl<T: Clone + Ord + std::hash::Hash + Debug + 'static> Address for T {}

/// Types with a distinguished initial value (the paper's `HasInitial`
/// class, §5.3.3).  Used to seed the "guts" component when a state is
/// injected into an analysis domain.
pub trait HasInitial {
    /// The initial value (`τ₀` for contexts).
    fn initial() -> Self;
}

impl HasInitial for () {
    fn initial() -> Self {}
}

impl HasInitial for u64 {
    fn initial() -> Self {
        0
    }
}

/// Addresses that remember which variable they bind.
///
/// All the address representations provided by this crate carry the bound
/// variable, which lets language-independent tooling (flow-set extraction,
/// precision metrics, pretty-printing of analysis results) group store
/// bindings by source variable regardless of the polyvariance in use.
pub trait NamedAddress: Address {
    /// The variable this address binds.
    fn variable(&self) -> &Name;
}

impl NamedAddress for ConcreteAddr {
    fn variable(&self) -> &Name {
        &self.name
    }
}

impl NamedAddress for MonoAddr {
    fn variable(&self) -> &Name {
        &self.0
    }
}

impl NamedAddress for KCallAddr {
    fn variable(&self) -> &Name {
        &self.name
    }
}

impl NamedAddress for BoundedAddr {
    fn variable(&self) -> &Name {
        &self.name
    }
}

/// The paper's `Addressable` class: an analysis context (`c`) together with
/// its address type (`a`), the initial context `τ₀`, the allocator `valloc`
/// and the context-transition function `advance`.
///
/// `advance` receives the [`Label`] of the call/transition site being
/// crossed; k-CFA contexts push it onto their call string, monovariant and
/// concrete contexts ignore it or merely count.
///
/// ```rust
/// use mai_core::addr::{Context, KCallCtx};
/// use mai_core::name::{Label, Name};
///
/// let ctx = KCallCtx::<1>::initial_context().advanced(Label::new(3));
/// let addr = ctx.valloc(&Name::from("x"));
/// let deeper = ctx.advanced(Label::new(4));
/// assert_ne!(addr, deeper.valloc(&Name::from("x")));
/// ```
pub trait Context: Clone + Ord + Debug + HasInitial + 'static {
    /// The address representation allocated under this kind of context.
    type Addr: Address;

    /// The initial context `τ₀` (same as [`HasInitial::initial`], provided
    /// for call-site readability).
    fn initial_context() -> Self {
        Self::initial()
    }

    /// Allocates an address for a variable binding in this context
    /// (the paper's `valloc`).
    fn valloc(&self, name: &Name) -> Self::Addr;

    /// Advances the context across a transition at program point `site`
    /// (the paper's `advance`, here by value).
    #[must_use]
    fn advance(self, site: Label) -> Self;

    /// Convenience: [`Context::advance`] on a borrowed context.
    #[must_use]
    fn advanced(&self, site: Label) -> Self {
        self.clone().advance(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_context_mirrors_has_initial() {
        assert_eq!(MonoCtx::initial_context(), MonoCtx::initial());
        assert_eq!(KCallCtx::<2>::initial_context(), KCallCtx::<2>::initial());
    }

    #[test]
    fn unit_and_u64_have_initials() {
        assert_eq!(<()>::initial(), ());
        assert_eq!(u64::initial(), 0);
    }
}
