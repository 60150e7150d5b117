//! Concurrency primitives: the `std`/[loom] switch, cache padding and the
//! workspace's one lock.
//!
//! The lock-free code in this crate ([`crate::ring`], [`crate::eventcount`],
//! [`crate::waker`], the heap home's seal-and-follow in [`crate::fifo`]) is
//! written against this module instead of `std` directly. In a normal build it re-exports
//! the `std` types (plus a zero-cost `UnsafeCell` wrapper exposing loom's
//! closure-based access API). Under `RUSTFLAGS="--cfg loom"` it re-exports
//! loom's instrumented equivalents, which exhaustively explore every
//! interleaving the C11 memory model permits — including weak-memory
//! reorderings a test machine may never exhibit.
//!
//! loom is a registry crate, so the model checks build this same source
//! through the sibling `verify/` workspace (the root workspace resolves to
//! path packages only):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --manifest-path verify/Cargo.toml --release
//! ```
//!
//! [`Mutex`] is the non-poisoning lock every crate in the workspace uses;
//! it is `std`'s under either backend. There is no condition variable: a
//! thread that sleeps parks on an eventcount ([`crate::eventcount`]).
//!
//! [loom]: https://docs.rs/loom

use std::sync::{LockResult, MutexGuard, PoisonError, TryLockError};

#[cfg(loom)]
pub(crate) use loom::{
    cell::UnsafeCell,
    sync::{
        atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicUsize, Ordering},
        Arc,
    },
    thread::yield_now,
};

#[cfg(not(loom))]
pub(crate) use std::{
    sync::{
        atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicUsize, Ordering},
        Arc,
    },
    thread::yield_now,
};

/// Pads and aligns a value to 128 bytes — two x86-64 cache lines, so the
/// adjacent-line prefetcher cannot make two padded values false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// CPU relax hint used inside busy-wait loops. Under loom a busy spin would
/// starve the model checker (it can only switch threads at loom operations),
/// so every pause must be a loom yield instead.
#[cfg(not(loom))]
#[inline]
pub(crate) fn spin_loop() {
    std::hint::spin_loop();
}

/// CPU relax hint (loom backend: a model-checker yield).
#[cfg(loom)]
#[inline]
pub(crate) fn spin_loop() {
    loom::thread::yield_now();
}

/// `std::cell::UnsafeCell` behind loom's `with`/`with_mut` closure API, so
/// the same call sites compile against either backend. The closures receive
/// raw pointers; dereferencing them carries exactly the usual `UnsafeCell`
/// obligations (no aliasing `&mut`, no data races — here guaranteed by the
/// SPSC head/tail protocol).
#[cfg(not(loom))]
#[derive(Debug)]
pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    pub(crate) fn new(data: T) -> Self {
        UnsafeCell(std::cell::UnsafeCell::new(data))
    }

    /// Shared access to the contents as `*const T`.
    #[inline]
    pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Exclusive access to the contents as `*mut T`. The *caller's* protocol
    /// (not the borrow checker) must guarantee exclusivity — which is why
    /// loom's instrumented version exists to check it.
    #[inline]
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Kernels panic under `catch_unwind` by design, so a panic while a lock is
/// held is an expected event and never a reason to fail the next locker:
/// every value these locks guard is valid between any two statements.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// `std::sync::Mutex` without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// New unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until locked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoisoned(self.0.lock())
    }

    /// Lock if free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A thread panics while holding the lock; the next `lock()` (and
    /// `try_lock()`) still succeed and see its writes.
    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let shared = Arc::new(Mutex::new(0u32));
        let holder = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let mut guard = holder.lock();
            *guard = 7;
            panic!("kernel panicked while holding the lock");
        })
        .join();
        assert!(died.is_err());

        assert_eq!(*shared.lock(), 7);
        assert_eq!(shared.try_lock().map(|g| *g), Some(7));
    }

    #[test]
    fn try_lock_reports_contention_as_none() {
        let m = Mutex::new(());
        let _held = m.lock();
        assert!(m.try_lock().is_none());
    }
}
