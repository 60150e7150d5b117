//! Edge-triggered wakers on the FIFO shared core.
//!
//! The work-stealing scheduler never scans for runnable kernels: it parks a
//! kernel once, **arms** a [`WakerSlot`] on each side it waits on, and the
//! *other* endpoint of that stream turns readiness into an O(1) callback
//! when it changes the stream.
//!
//! Each heap FIFO owns two slots, one per side a task can wait on: the
//! **data side** (the consumer's), notified by `push`/batch-commit/`close`/
//! `post_async` ("data or EoS is visible"), and the **room side** (the
//! producer's), notified by every release of slots, a consumer drop, a
//! resize and a drain ("a write would not wait"). A pool task waits for
//! input on the first and for room on the second, so a kernel that moves at
//! most one element per port per run never parks its worker inside a link;
//! a thread blocked in a link waits on the FIFO's
//! [`crate::eventcount::ThreadPark`] instead (a `futex(2)` wait on its `seq`
//! word). A [`TaskWake`] is the one backend nobody sleeps on.
//!
//! ## The lost-wakeup problem
//!
//! Arming and notification race on two distinct locations — the `armed`
//! flag and the stream state (head/tail/closed). That is the eventcount
//! protocol of [`crate::eventcount`], and a [`WakerSlot`] *is* an
//! [`EventCount`] whose [`Wake`] backend ([`TaskWake`]) delivers the wake by
//! calling the registered [`FifoWaker`] instead of waking a thread: there is
//! **no interleaving in which the scheduler parks a task on an
//! observed-empty (or observed-full) queue and the notifier skips the
//! wake**, each arm produces **at most one** callback, and both sides
//! "winning" costs one spurious wake, which the scheduler's task state
//! machine absorbs. `tests/loom_eventcount.rs` model-checks exactly this
//! window.
//!
//! ## One wake per link per claim
//!
//! The fence that makes a notify lossless is the expensive part of it, and
//! a stream that moves a thousand elements while its peer is queued needs
//! none of the thousand. So a pool worker runs each claim under
//! [`ClaimWakes`]: inside it, a push or a pop still stores `tail` / `head`
//! per element (the peer sees every element at once), but only *owes* its
//! task wake — the first touch of a link side records it in one
//! thread-local list, and the owed wakes are paid (one fenced notify per
//! link side, then the `pushed` / `popped` announcement) when the claim
//! ends and before the thread waits anywhere (`Shared::blocked`, a close).
//! The stream writes precede the fence in program order, so the deferred
//! notify pairs with the parked task's arm exactly as an immediate one
//! would (`tests/loom_stealing.rs`). Outside a claim — thread-per-kernel
//! runs, user threads — every notify is immediate.
//!
//! When no waker was ever registered (thread-per-kernel runs),
//! [`TaskWake::listening`] is false and every notify site degrades to a
//! single relaxed load and branch.

// The waker handle is a std Arc even under loom: the Arc is payload, not
// protocol — publication of the cell contents is ordered entirely by the
// (loom-instrumented) `state` atomic and SeqCst fences below, so the model
// checker still explores every ordering that matters.
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::eventcount::{EventCount, Wake};
use crate::sync::{
    AtomicU32, AtomicUsize,
    Ordering::{Relaxed, Release},
    UnsafeCell,
};

/// Callback invoked (at most once per arm) when a stream becomes actionable
/// for the registered side. Implementations must be cheap and non-blocking:
/// they run inline on the notifying endpoint's thread — typically an O(1)
/// task enqueue plus a worker unpark.
pub trait FifoWaker: Send + Sync {
    /// Deliver the wake.
    fn wake(&self);
}

/// `state` values: no waker installed / installation in progress /
/// installed and published.
const EMPTY: usize = 0;
const INSTALLING: usize = 1;
const SET: usize = 2;

/// One registration point for a [`FifoWaker`], owned by the FIFO core.
///
/// Lifecycle: the scheduler [`register`](EventCount::register)s a waker once
/// per run (first caller wins; the slot stays registered for the FIFO's
/// lifetime, so no reclamation race exists), then repeatedly
/// [`arm`](EventCount::arm)s it before parking the task that waits on this
/// side and re-checks the stream state per the eventcount protocol. The
/// FIFO calls [`notify`](EventCount::notify) after every state change the
/// task might be waiting on — or, inside a [`ClaimWakes`], owes it.
pub type WakerSlot = EventCount<TaskWake>;

/// [`Wake`] backend of a [`WakerSlot`]: the eventcount words plus the
/// write-once cell holding the callback that stands in for "unpark".
pub struct TaskWake {
    armed: AtomicU32,
    seq: AtomicU32,
    /// Publication state of `waker` (EMPTY → INSTALLING → SET, one-way).
    state: AtomicUsize,
    /// The installed waker. Written once by the INSTALLING winner, read
    /// only after observing `state == SET`.
    waker: UnsafeCell<Option<Arc<dyn FifoWaker>>>,
}

// SAFETY: the `waker` cell is written only by the single thread that wins
// the EMPTY→INSTALLING CAS, strictly before the Release store of SET; every
// read happens after observing SET (via the SeqCst fence in the eventcount's
// notify, which upgrades the relaxed `listening` load to an acquire of that
// publication). The cell is never written again, so shared references
// cannot alias a mutation.
unsafe impl Send for TaskWake {}
// SAFETY: see the `Send` justification above — all cross-thread access to
// the cell is ordered by the state protocol.
unsafe impl Sync for TaskWake {}

impl Default for TaskWake {
    fn default() -> Self {
        TaskWake {
            armed: AtomicU32::new(0),
            seq: AtomicU32::new(0),
            state: AtomicUsize::new(EMPTY),
            waker: UnsafeCell::new(None),
        }
    }
}

impl Wake for TaskWake {
    type Word = AtomicU32;
    #[inline]
    fn armed(&self) -> &AtomicU32 {
        &self.armed
    }
    #[inline]
    fn seq(&self) -> &AtomicU32 {
        &self.seq
    }
    /// Tasks do not sleep here: the scheduler parks them itself.
    fn park(&self, _epoch: u32, _timeout: std::time::Duration) -> bool {
        false
    }
    fn unpark(&self) {
        self.waker.with(|p| {
            // SAFETY: notify only gets here after `listening` observed SET
            // and the protocol's SeqCst fence acquired it, so the INSTALLING
            // thread's write to the cell happened-before this read; the
            // cell is never written again after SET.
            if let Some(w) = unsafe { (*p).as_ref() } {
                w.wake();
            }
        });
    }
    #[inline]
    fn listening(&self) -> bool {
        self.state.load(Relaxed) == SET
    }
}

impl EventCount<TaskWake> {
    /// An empty, unarmed slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `waker`. Returns `false` (dropping `waker`) if a waker is
    /// already installed or being installed — registration is once per
    /// slot lifetime, which is what makes lock-free reads on the notify
    /// path sound.
    pub fn register(&self, waker: Arc<dyn FifoWaker>) -> bool {
        let slot = self.backend();
        if slot
            .state
            .compare_exchange(EMPTY, INSTALLING, Relaxed, Relaxed)
            .is_err()
        {
            return false;
        }
        slot.waker.with_mut(|p| {
            // SAFETY: we won the EMPTY→INSTALLING CAS, so no other thread
            // writes the cell, and no reader dereferences it until the
            // Release store of SET below publishes our write.
            unsafe { *p = Some(waker) };
        });
        slot.state.store(SET, Release);
        true
    }

    /// `true` once a waker is installed.
    #[inline]
    pub fn is_registered(&self) -> bool {
        self.backend().listening()
    }
}

std::thread_local! {
    /// Set while this thread runs a pool claim ([`ClaimWakes`]).
    static DEFERRING: Cell<bool> = const { Cell::new(false) };
    /// The task wakes this thread owes, one per link side.
    static OWED: RefCell<Vec<Owed>> = const { RefCell::new(Vec::new()) };
}

/// One owed task wake: the link it is owed on, and how to pay it.
struct Owed {
    link: *const (),
    pay: unsafe fn(*const ()),
}

/// Task wakes deferred for one pool claim (module docs): while a
/// `ClaimWakes` lives, every per-element task wake on this thread is owed
/// instead of delivered, once per link side, and dropping it pays them.
/// One-off changes (close, async signal, drain, resize, rewind) still
/// notify at once.
#[must_use = "dropping it pays the owed wakes and ends the deferral"]
pub struct ClaimWakes {
    /// Tied to the thread whose wakes it defers.
    _thread: PhantomData<*const ()>,
}

impl ClaimWakes {
    /// Start deferring this thread's task wakes.
    pub fn begin() -> Self {
        DEFERRING.set(true);
        ClaimWakes {
            _thread: PhantomData,
        }
    }
}

impl Drop for ClaimWakes {
    fn drop(&mut self) {
        DEFERRING.set(false);
        pay_owed();
    }
}

/// `true` inside a [`ClaimWakes`]: task wakes are owed, not delivered.
#[inline]
pub(crate) fn deferring() -> bool {
    DEFERRING.get()
}

/// Record a task wake owed on `link`, paid later by `pay(link)`.
///
/// # Safety
/// `link` must stay valid until `pay` runs, and `pay(link)` must be sound
/// to call once, on this thread.
pub(crate) unsafe fn owe(link: *const (), pay: unsafe fn(*const ())) {
    OWED.with_borrow_mut(|owed| owed.push(Owed { link, pay }));
}

/// Pay every task wake this thread owes, oldest first. Paying runs the
/// registered wakers, so the list is taken out while they run.
pub(crate) fn pay_owed() {
    let mut owed = OWED.with_borrow_mut(std::mem::take);
    if owed.is_empty() {
        return;
    }
    for o in &owed {
        // SAFETY: `owe`'s contract; each entry is paid once and dropped.
        unsafe { (o.pay)(o.link) };
    }
    owed.clear();
    // Keep the allocation unless a waker owed something meanwhile.
    OWED.with_borrow_mut(|cur| {
        if cur.is_empty() {
            *cur = owed;
        }
    });
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountingWaker(AtomicU64);
    impl FifoWaker for CountingWaker {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting() -> (Arc<CountingWaker>, Arc<dyn FifoWaker>) {
        let w = Arc::new(CountingWaker(AtomicU64::new(0)));
        (w.clone(), w)
    }

    #[test]
    fn notify_without_registration_is_noop() {
        let slot = WakerSlot::new();
        slot.arm();
        slot.notify(); // must not crash or spin
        assert!(!slot.is_registered());
        assert!(slot.disarm(), "arm was never claimed");
    }

    #[test]
    fn one_wake_per_arm() {
        let slot = WakerSlot::new();
        let (counter, waker) = counting();
        assert!(slot.register(waker));
        assert!(slot.is_registered());

        slot.notify(); // not armed: no wake
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);

        slot.arm();
        slot.notify();
        slot.notify(); // edge-triggered: second notify finds it disarmed
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);

        slot.arm();
        slot.notify();
        assert_eq!(counter.0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn second_registration_is_rejected() {
        let slot = WakerSlot::new();
        let (counter_a, waker_a) = counting();
        let (counter_b, waker_b) = counting();
        assert!(slot.register(waker_a));
        assert!(!slot.register(waker_b));
        slot.arm();
        slot.notify();
        assert_eq!(counter_a.0.load(Ordering::SeqCst), 1);
        assert_eq!(counter_b.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disarm_cancels_pending_wake() {
        let slot = WakerSlot::new();
        let (counter, waker) = counting();
        slot.register(waker);
        slot.arm();
        assert!(slot.disarm());
        slot.notify();
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_notifiers_deliver_exactly_one_wake_per_arm() {
        let slot = Arc::new(WakerSlot::new());
        let (counter, waker) = counting();
        slot.register(waker);
        for round in 0..200u64 {
            slot.arm();
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let slot = slot.clone();
                    std::thread::spawn(move || slot.notify())
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(counter.0.load(Ordering::SeqCst), round + 1);
        }
    }
}
