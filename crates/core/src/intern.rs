//! Hash-consed interning: dense integer ids for structurally-equal values.
//!
//! The polyvariant machines treat abstract states as first-class map keys,
//! so every `BTreeMap<(Ps, G), …>` lookup in the fixpoint engines used to
//! pay a deep structural `Ord` walk over the whole state — environment,
//! continuation, context — and every frontier round deep-cloned states
//! wholesale.  *Abstracting Definitional Interpreters* leans on sharing of
//! configurations for exactly this reason: once each distinct state is
//! mapped to a dense id, clone and equality become O(1) and every engine
//! table (step cache, reverse dependency index, seen-set, frontier) becomes
//! a flat `Vec` indexed by the id.
//!
//! [`Interner<T, I>`] is that map: a per-run hash-consing table from values
//! to dense ids, keyed by precomputed [Fx hashes](crate::hash) so a value is
//! deeply hashed exactly once (on intern) and deeply compared only against
//! the rare same-hash candidates.  [`StateId`] and [`EnvId`] are the two id
//! currencies of the framework — machine states (paired with their guts)
//! and environments — kept as distinct newtypes so they cannot be mixed up.
//!
//! Interning is *per run*: an id is meaningful only relative to the
//! interner that produced it, and the engines un-intern (resolve) back to
//! structural values only at the language boundary.

use std::fmt;

use crate::hash::{fx_hash_of, FxHashMap};

/// A dense integer id handed out by an [`Interner`].
///
/// Implementations are trivial `u32` newtypes; the trait exists so the
/// interner (and the engines built on it) can be generic over the id
/// currency while keeping [`StateId`] and [`EnvId`] unmixable.
pub trait InternKey: Copy + Eq + Ord + std::hash::Hash + fmt::Debug + 'static {
    /// Wraps a dense index as an id.
    fn from_index(index: usize) -> Self;

    /// The dense index of this id (always `< interner.len()`).
    fn index(self) -> usize;
}

macro_rules! intern_key {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl InternKey for $name {
            #[inline]
            fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                $name(index as u32)
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

intern_key! {
    /// The id of an interned `(state, guts)` pair — the engines' currency.
    StateId, "σ"
}

intern_key! {
    /// The id of an interned environment.
    EnvId, "ρ"
}

/// A per-run hash-consing table: every distinct value is assigned a dense
/// id on first sight and the same id forever after.
///
/// The table stores each value exactly once (in insertion order) and keys
/// the lookup by the value's precomputed [Fx hash](crate::hash::fx_hash_of),
/// so interning an already-seen value costs one hash walk plus (usually) one
/// deep equality check, and everything downstream can work with O(1)
/// id copies and comparisons instead.
///
/// ```rust
/// use mai_core::intern::{Interner, StateId};
///
/// let mut interner: Interner<String, StateId> = Interner::new();
/// let a = interner.intern("state".to_string());
/// let b = interner.intern("state".to_string());
/// let c = interner.intern("other".to_string());
/// assert_eq!(a, b);           // ids agree with structural equality
/// assert_ne!(a, c);
/// assert_eq!(interner.resolve(a), "state");
/// assert_eq!(interner.len(), 2);
/// assert_eq!((interner.hits(), interner.misses()), (1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Interner<T, I: InternKey = StateId> {
    /// Precomputed hash → candidate ids (almost always a single candidate).
    buckets: FxHashMap<u64, Vec<I>>,
    /// The interned values, indexed by id (insertion order).
    values: Vec<T>,
    hits: usize,
}

impl<T, I: InternKey> Default for Interner<T, I> {
    fn default() -> Self {
        Interner {
            buckets: FxHashMap::default(),
            values: Vec::new(),
            hits: 0,
        }
    }
}

impl<T: std::hash::Hash + Eq, I: InternKey> Interner<T, I> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a value, returning its dense id: the existing id if a
    /// structurally-equal value was interned before, a fresh one otherwise.
    pub fn intern(&mut self, value: T) -> I {
        let hash = fx_hash_of(&value);
        let candidates = self.buckets.entry(hash).or_default();
        for &id in candidates.iter() {
            if self.values[id.index()] == value {
                self.hits += 1;
                return id;
            }
        }
        let id = I::from_index(self.values.len());
        candidates.push(id);
        self.values.push(value);
        id
    }

    /// The id of an already-interned value, if any (no stats, no insert).
    pub fn get(&self, value: &T) -> Option<I> {
        let candidates = self.buckets.get(&fx_hash_of(value))?;
        candidates
            .iter()
            .copied()
            .find(|id| &self.values[id.index()] == value)
    }

    /// Un-interns an id back to the value it stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: I) -> &T {
        &self.values[id.index()]
    }

    /// How many distinct values have been interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The interned values in id (insertion) order; `values()[id.index()]`
    /// is `resolve(id)`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// How many [`Interner::intern`] calls found an existing id.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// How many [`Interner::intern`] calls allocated a fresh id — by
    /// construction, one per distinct value, so this is [`Interner::len`].
    pub fn misses(&self) -> usize {
        self.values.len()
    }
}

/// Counts the distinct values of an iterator by interning them — the shared
/// implementation behind the language crates' `distinct_env_count` helpers
/// (the language-boundary half of the engine's intern statistics).
pub fn distinct_count<T: std::hash::Hash + Eq, I: IntoIterator<Item = T>>(items: I) -> usize {
    let mut interner: Interner<T, EnvId> = Interner::new();
    for item in items {
        interner.intern(item);
    }
    interner.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i: Interner<u64, StateId> = Interner::new();
        let ids: Vec<StateId> = (0..100).map(|n| i.intern(n % 10)).collect();
        assert_eq!(i.len(), 10);
        assert_eq!(i.misses(), 10);
        assert_eq!(i.hits(), 90);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(*i.resolve(*id), (n % 10) as u64);
            assert!(id.index() < i.len());
        }
        // Values are stored in first-sight order.
        assert_eq!(i.values(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn get_does_not_insert() {
        let mut i: Interner<&'static str, EnvId> = Interner::new();
        assert_eq!(i.get(&"x"), None);
        let id = i.intern("x");
        assert_eq!(i.get(&"x"), Some(id));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn state_and_env_ids_display_distinctly() {
        assert_eq!(StateId::from_index(3).to_string(), "σ3");
        assert_eq!(EnvId::from_index(3).to_string(), "ρ3");
    }

    proptest! {
        /// The hash-consing law: ids agree with structural equality.
        #[test]
        fn prop_ids_agree_with_structural_equality(
            values in proptest::collection::vec((0u8..16, 0u8..16), 0..64)
        ) {
            let mut interner: Interner<(u8, u8), StateId> = Interner::new();
            let ids: Vec<StateId> =
                values.iter().map(|v| interner.intern(*v)).collect();
            for (a, ia) in values.iter().zip(ids.iter()) {
                for (b, ib) in values.iter().zip(ids.iter()) {
                    prop_assert_eq!(a == b, ia == ib);
                }
            }
            // Resolution round-trips.
            for (v, id) in values.iter().zip(ids.iter()) {
                prop_assert_eq!(interner.resolve(*id), v);
            }
            // Accounting: every intern is a hit or a miss, misses == len.
            prop_assert_eq!(interner.hits() + interner.misses(), values.len());
            prop_assert_eq!(interner.misses(), interner.len());
        }
    }
}
