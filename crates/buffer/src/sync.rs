//! Concurrency primitives, swappable for [loom] model checking.
//!
//! The lock-free code in this crate ([`crate::ring`], [`crate::eventcount`],
//! [`crate::fence`], [`crate::waker`]) is written against this module
//! instead of `std` directly. In a normal build it re-exports
//! the `std` types (plus a zero-cost [`UnsafeCell`] wrapper exposing loom's
//! closure-based access API). Under `RUSTFLAGS="--cfg loom"` it re-exports
//! loom's instrumented equivalents, which exhaustively explore every
//! interleaving the C11 memory model permits — including weak-memory
//! reorderings a test machine may never exhibit.
//!
//! Run the model checks with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p raft-buffer --test loom_spsc --release
//! ```
//!
//! [loom]: https://docs.rs/loom

#[cfg(loom)]
pub(crate) use loom::{
    cell::UnsafeCell,
    sync::{
        atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering},
        Arc,
    },
    thread::yield_now,
};

#[cfg(not(loom))]
pub(crate) use std::{
    sync::{
        atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering},
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
