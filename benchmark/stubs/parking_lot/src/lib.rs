//! Offline stand-in for the `parking_lot` surface the raftlib crates use,
//! written over `std::sync`. The container has no crates.io access, so the
//! benchmark's manifest patches `parking_lot` to this crate; it is not the
//! published one. Poisoning is ignored, as `parking_lot` has none.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

/// Mutual exclusion without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard of a [`Mutex`]. The inner guard is optional only so that
/// [`Condvar`] can move it through `std`'s by-value wait.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// New unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until locked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Lock if free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Access through exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside Condvar::wait")
    }
}

/// Result of a timed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking the guard by `&mut`, as `parking_lot` does.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wait until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Wait until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }
}

/// Reader-writer lock without poisoning. The value lives beside a
/// `std::sync::RwLock<()>` rather than inside it because the library needs
/// `data_ptr()`, which `std`'s lock only offers on nightly.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    lock: sync::RwLock<()>,
    data: UnsafeCell<T>,
}

// SAFETY: the same bounds `std::sync::RwLock` has. Readers share `&T`
// across threads (`T: Sync`), a writer may move `T`'s contents between
// threads (`T: Send`); every access through a guard holds `lock`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// Shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    data: &'a UnsafeCell<T>,
    _held: sync::RwLockReadGuard<'a, ()>,
}

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    data: &'a UnsafeCell<T>,
    _held: sync::RwLockWriteGuard<'a, ()>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the read lock is held for the guard's lifetime, so no
        // writer guard exists and no `&mut T` can alias this reference.
        unsafe { &*self.data.get() }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the write lock is held, so this guard is the only access.
        unsafe { &*self.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the write lock is held and `self` is borrowed mutably, so
        // the reference is unique.
        unsafe { &mut *self.data.get() }
    }
}

impl<T> RwLock<T> {
    /// New unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            lock: sync::RwLock::new(()),
            data: UnsafeCell::new(value),
        }
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            data: &self.data,
            _held: self.lock.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            data: &self.data,
            _held: self.lock.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Access through exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Raw pointer to the protected value, without locking. The caller
    /// provides the synchronisation, as with the published crate.
    pub fn data_ptr(&self) -> *mut T {
        self.data.get()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}
