//! Interned identifiers and program-point labels.
//!
//! Every language substrate (CPS, direct-style λ-calculus, Featherweight
//! Java) refers to variables, fields and methods through [`Name`] and to
//! program points (call sites, allocation sites) through [`Label`].  Keeping
//! these in the core crate is what allows the polyvariance machinery of
//! [`crate::addr`] to be completely language-independent: a k-CFA context is
//! a bounded string of [`Label`]s no matter which calculus produced them.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::hash::{FxBuildHasher, FxHashSet};

/// The global name pool: every [`Name`] ever created, deduplicated by
/// content.  Hot paths (parsers, allocators, synthetic continuation names)
/// construct the same handful of identifiers over and over; pooling makes
/// every such construction return the *same* `Arc<str>`, so no fresh
/// allocation happens after first sight and equality usually short-circuits
/// on pointer identity.
///
/// Deliberate trade-offs: entries are never evicted (identifier sets are
/// tiny and shared across the analyses of one process; a long-lived server
/// embedding many unrelated programs would retain their identifier
/// strings).  One mutex guards the whole pool: the analyses step states on
/// one thread, so the lock is uncontended and costs one atomic pair per
/// construction.
static NAME_POOL: Mutex<FxHashSet<Arc<str>>> =
    Mutex::new(FxHashSet::with_hasher(FxBuildHasher::new()));

/// An identifier: a variable, field, method or class name.
///
/// Internally a cheaply-cloneable shared string, globally interned: two
/// `Name`s with the same content share one allocation.  `Name`s are ordered
/// and hashable so that they can serve as keys of environments and as
/// components of abstract addresses.
///
/// ```rust
/// use mai_core::name::Name;
/// let x = Name::from("x");
/// assert_eq!(x.as_str(), "x");
/// assert_eq!(x.to_string(), "x");
/// ```
#[derive(Clone)]
pub struct Name(Arc<str>);

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Pooled names with equal content share an allocation, so the
        // pointer check almost always decides; the content comparison keeps
        // equality structural unconditionally.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Content hash, consistent with the structural `PartialEq`.
        self.0.hash(state);
    }
}

impl Name {
    /// Creates a new name from anything string-like, deduplicated through
    /// the global name pool: the same content always yields the same shared
    /// allocation.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        let mut pool = NAME_POOL.lock().expect("name pool poisoned");
        if let Some(existing) = pool.get(s) {
            return Name(Arc::clone(existing));
        }
        let fresh: Arc<str> = Arc::from(s);
        pool.insert(Arc::clone(&fresh));
        Name(fresh)
    }

    /// A view of the underlying identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Derives a fresh, related name by appending a suffix.
    ///
    /// Used by the machine constructions that need synthetic names (for
    /// example store-allocated continuations use the name of the expression
    /// label they belong to).
    pub fn suffixed(&self, suffix: &str) -> Self {
        Name::new(format!("{}{}", self.0, suffix))
    }

    /// A synthetic name `<prefix><tag><index>`, cached by `(tag, index)`.
    ///
    /// Machine step functions mint the same synthetic names (continuation
    /// addresses per program point and frame kind) on every transition;
    /// this constructor skips even the `format!` after first sight, where
    /// [`Name::new`] would still build the string before pooling it.
    pub fn synthetic(prefix: &'static str, tag: &'static str, index: u32) -> Self {
        type Cache = std::collections::HashMap<(&'static str, &'static str, u32), Name>;
        static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
        let mut cache = CACHE
            .get_or_init(Mutex::default)
            .lock()
            .expect("synthetic name cache poisoned");
        cache
            .entry((prefix, tag, index))
            .or_insert_with(|| Name::new(format!("{prefix}{tag}{index}")))
            .clone()
    }

    /// Whether two names share their underlying allocation — true for any
    /// two pooled names with equal content (an O(1) equality witness).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::new(s)
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A program-point label.
///
/// Labels are attached to call sites (and other interesting program points)
/// by each language front end; the context abstractions of [`crate::addr`]
/// record bounded sequences of them.  Label `0` is reserved for "no
/// particular program point" (used e.g. by synthetic halt continuations).
///
/// ```rust
/// use mai_core::name::Label;
/// let l = Label::new(42);
/// assert_eq!(l.index(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label(u32);

impl Label {
    /// Creates a label with the given index.
    pub fn new(index: u32) -> Self {
        Label(index)
    }

    /// The reserved "nowhere" label.
    pub fn none() -> Self {
        Label(0)
    }

    /// The numeric index of this label.
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// A monotonically increasing supply of fresh labels.
///
/// Language front ends use one `LabelSupply` per program so that every call
/// site receives a unique [`Label`].
///
/// ```rust
/// use mai_core::name::LabelSupply;
/// let mut supply = LabelSupply::new();
/// let a = supply.fresh();
/// let b = supply.fresh();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelSupply {
    next: u32,
}

impl LabelSupply {
    /// Creates a supply whose first fresh label is `ℓ1` (`ℓ0` is reserved).
    pub fn new() -> Self {
        LabelSupply { next: 1 }
    }

    /// Produces the next unused label.
    pub fn fresh(&mut self) -> Label {
        let l = Label(self.next);
        self.next += 1;
        l
    }

    /// How many labels have been handed out so far.
    pub fn count(&self) -> u32 {
        self.next.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(Name::from("x"), Name::new(String::from("x")));
        assert!(Name::from("a") < Name::from("b"));
    }

    #[test]
    fn name_display_and_debug_are_nonempty() {
        let n = Name::from("foo");
        assert_eq!(n.to_string(), "foo");
        assert!(format!("{:?}", n).contains("foo"));
    }

    #[test]
    fn suffixed_derives_distinct_names() {
        let n = Name::from("k");
        let s = n.suffixed("$1");
        assert_ne!(n, s);
        assert_eq!(s.as_str(), "k$1");
    }

    #[test]
    fn labels_are_ordered_by_index() {
        assert!(Label::new(1) < Label::new(2));
        assert_eq!(Label::none().index(), 0);
    }

    #[test]
    fn label_supply_is_injective() {
        let mut supply = LabelSupply::new();
        let labels: BTreeSet<Label> = (0..100).map(|_| supply.fresh()).collect();
        assert_eq!(labels.len(), 100);
        assert!(!labels.contains(&Label::none()));
        assert_eq!(supply.count(), 100);
    }

    #[test]
    fn equal_names_share_one_pooled_allocation() {
        let a = Name::from("pooled-name-test");
        let b = Name::new(String::from("pooled-name-test"));
        assert!(a.ptr_eq(&b), "the pool must deduplicate equal content");
        assert_eq!(a, b);
        // Distinct content stays distinct.
        let c = Name::from("pooled-name-test-2");
        assert!(!a.ptr_eq(&c));
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_names_are_cached_and_formatted() {
        let a = Name::synthetic("$kont-", "ar", 7);
        let b = Name::synthetic("$kont-", "ar", 7);
        assert!(a.ptr_eq(&b));
        assert_eq!(a.as_str(), "$kont-ar7");
        assert_ne!(a, Name::synthetic("$kont-", "fn", 7));
        assert_ne!(a, Name::synthetic("$kont-", "ar", 8));
        // The cache and the pool agree: building the same text the long way
        // round yields the same allocation.
        assert!(a.ptr_eq(&Name::from("$kont-ar7")));
    }

    #[test]
    fn names_work_as_map_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Name::from("x"), 1);
        m.insert(Name::from("y"), 2);
        assert_eq!(m[&Name::from("x")], 1);
    }
}
