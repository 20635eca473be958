//! The read journal: which addresses one transition actually fetched.
//!
//! The shared-store engines cache each step's outcome together with the
//! addresses it depends on, and re-step it when one of them grows.  The
//! read journal supplies the *fetched* part of that set: the engine arms
//! it, runs the transition, and takes it — every per-address read
//! accessor of the stores ([`StoreLike::fetch`](super::StoreLike::fetch),
//! [`StoreLike::fetch_ref`](super::StoreLike::fetch_ref),
//! [`StoreLike::contains`](super::StoreLike::contains) and
//! [`Counter::count`](super::Counter::count)) calls [`record`] on the way.
//! A read is an effect the engine observes, rather than something it
//! over-approximates with the §6.4 reachability closure of the state's
//! roots.
//!
//! The journal is thread-local rather than carried by the store: reads go
//! through `&self`, and a store-carried log would need interior
//! mutability inside values that are also hashed and compared as
//! analysis-domain keys.  The engine runs one step on one thread from
//! start to finish, so a per-thread journal sees exactly that step's
//! reads — including reads made on clones and derived stores.
//!
//! Unarmed, [`record`] is one thread-local check and records nothing.
//! [`arm`] always starts from an empty journal, so a step that panicked
//! while armed cannot leak its reads into the next one.

use std::any::Any;
use std::cell::RefCell;

thread_local! {
    /// The armed journal: a `Vec<A>` for the address type it was armed
    /// with, or `None` when unarmed.
    static JOURNAL: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// Arms this thread's journal for addresses of type `A`, discarding
/// anything a previous, never-taken arm recorded.
pub fn arm<A: 'static>() {
    JOURNAL.with(|journal| *journal.borrow_mut() = Some(Box::new(Vec::<A>::new())));
}

/// Records a read of `a` if this thread's journal is armed for `A`.
#[inline]
pub fn record<A: Clone + 'static>(a: &A) {
    // `try_with`: a store read while thread-locals are being torn down
    // has no step to belong to.
    let _ = JOURNAL.try_with(|journal| {
        if let Some(reads) = journal.borrow_mut().as_mut() {
            if let Some(reads) = reads.downcast_mut::<Vec<A>>() {
                reads.push(a.clone());
            }
        }
    });
}

/// Disarms this thread's journal and returns the reads recorded since
/// [`arm`], in read order and with repeats (empty when it was not armed
/// for `A`).
pub fn take<A: 'static>() -> Vec<A> {
    JOURNAL
        .with(|journal| journal.borrow_mut().take())
        .and_then(|reads| reads.downcast::<Vec<A>>().ok())
        .map_or_else(Vec::new, |reads| *reads)
}
