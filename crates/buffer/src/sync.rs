//! Concurrency primitives: the `std`/[loom] switch, cache padding and the
//! workspace's one lock wrapper.
//!
//! The lock-free code in this crate ([`crate::ring`], [`crate::eventcount`],
//! [`crate::ResizeFence`], [`crate::waker`]) is written against this module
//! instead of `std` directly. In a normal build it re-exports
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
//! [`Mutex`] and [`Condvar`] are the non-poisoning lock pair every crate in
//! the workspace uses; they are `std`'s under either backend.
//!
//! [loom]: https://docs.rs/loom

use std::sync::{LockResult, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

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

/// Where the store→load barrier of an asymmetric Dekker handshake can be
/// `membarrier(2)`: a real kernel, reached through the crate's one raw
/// `syscall`.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri), not(loom)))]
mod membarrier {
    /// `membarrier(2)` on x86_64.
    const SYS_MEMBARRIER: isize = 324;
    const CMD_PRIVATE_EXPEDITED: usize = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: usize = 1 << 4;

    fn membarrier(cmd: usize) -> isize {
        // SAFETY: membarrier (324) takes `(cmd, flags, cpu_id)` by value and
        // dereferences no pointer.
        unsafe { crate::futex::syscall(SYS_MEMBARRIER, [cmd, 0, 0, 0, 0, 0]) }
    }

    /// Register this process for the private expedited command, once per
    /// process; `false` if the kernel refuses (too old, or filtered).
    pub(super) fn registered() -> bool {
        static REGISTERED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *REGISTERED.get_or_init(|| membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0)
    }

    /// A full memory barrier on every CPU running a thread of this process.
    pub(super) fn expedited() {
        let ret = membarrier(CMD_PRIVATE_EXPEDITED);
        // The light side only has a compiler barrier, so a failed call
        // cannot be patched over with a local fence. After a successful
        // registration the kernel documents no failure.
        assert_eq!(
            ret, 0,
            "membarrier(PRIVATE_EXPEDITED) failed after registering"
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri), not(loom))))]
mod membarrier {
    pub(super) fn registered() -> bool {
        false
    }

    pub(super) fn expedited() {
        unreachable!("membarrier is never registered on this target");
    }
}

/// The two barriers of an asymmetric Dekker handshake (Dice, Huang & Yang,
/// "Asymmetric Dekker Synchronization", 2001): each side stores its flag,
/// takes its barrier, then loads the other side's flag, and at least one
/// side sees the other's store. The frequent side takes
/// [`light_barrier`](Self::light_barrier), the rare side
/// [`heavy_barrier`](Self::heavy_barrier).
///
/// Where the process registered for `membarrier(2)`'s private expedited
/// command, the light barrier is a compiler barrier and the heavy one a
/// `membarrier` call, which runs a full barrier on every CPU that is running
/// a thread of this process (a thread that is not running was ordered by
/// its context switch). Whatever point of the light side's program that
/// barrier lands on, it orders the light side's store before its load (or
/// both after the heavy side's store), exactly as a `fence(SeqCst)` there
/// would. Under loom or miri, off Linux x86_64, or if registration fails,
/// both barriers are `fence(SeqCst)` — the symmetric protocol the loom
/// models check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Barriers {
    membarrier: bool,
}

impl Barriers {
    /// The pair this process can use. Registers for `membarrier` on the
    /// first call in the process (~2 µs single-threaded, ~10 ms once other
    /// threads exist), so call it on a set-up path, never per operation.
    pub(crate) fn new() -> Self {
        Barriers {
            membarrier: membarrier::registered(),
        }
    }

    /// `true` when the pair is the compiler barrier plus `membarrier`.
    #[cfg(all(test, not(loom)))]
    pub(crate) fn asymmetric(self) -> bool {
        self.membarrier
    }

    /// The frequent side's store→load barrier.
    #[inline]
    pub(crate) fn light_barrier(self) {
        if self.membarrier {
            std::sync::atomic::compiler_fence(Ordering::SeqCst);
        } else {
            fence(Ordering::SeqCst);
        }
    }

    /// The rare side's store→load barrier.
    pub(crate) fn heavy_barrier(self) {
        if self.membarrier {
            membarrier::expedited();
        } else {
            fence(Ordering::SeqCst);
        }
    }
}

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

/// `std::sync::Condvar` for guards of [`Mutex`], without poisoning.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Wait until notified or `timeout` elapses; the flag is `true` on
    /// timeout. Spurious wake-ups happen: callers re-check their condition.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, result) = unpoisoned(self.0.wait_timeout(guard, timeout));
        (guard, result.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A thread panics while holding the lock; the next `lock()` (and
    /// `try_lock()`, and a timed wait) still succeed and see its writes.
    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let holder = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let mut guard = holder.0.lock();
            *guard = 7;
            panic!("kernel panicked while holding the lock");
        })
        .join();
        assert!(died.is_err());

        assert_eq!(*shared.0.lock(), 7);
        assert_eq!(shared.0.try_lock().map(|g| *g), Some(7));
        let (guard, timed_out) = shared
            .1
            .wait_timeout(shared.0.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*guard, 7);
    }

    #[test]
    fn try_lock_reports_contention_as_none() {
        let m = Mutex::new(());
        let _held = m.lock();
        assert!(m.try_lock().is_none());
    }
}
