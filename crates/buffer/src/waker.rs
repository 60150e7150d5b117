//! Edge-triggered wakers on the FIFO shared core.
//!
//! The work-stealing scheduler never scans for runnable kernels: it parks a
//! kernel once, **arms** a [`WakerSlot`] on each of its input streams, and
//! the *producer side* of the stream turns readiness into an O(1) callback
//! at the moment data (or EoS, or an async signal) arrives.
//!
//! Each heap FIFO owns one slot, on the **consumer side**, notified by
//! `push`/batch-commit/`close`/`post_async` ("data or EoS is visible"). A
//! task is parked only on its inputs: a producer waiting for space blocks
//! its thread on the FIFO's [`crate::eventcount::ThreadPark`] instead (a
//! `futex(2)` wait on its `seq` word), so the space side has no slot to
//! notify. A [`TaskWake`] is the one backend nobody sleeps on.
//!
//! ## The lost-wakeup problem
//!
//! Arming and notification race on two distinct locations — the `armed`
//! flag and the stream state (head/tail/closed). That is the eventcount
//! protocol of [`crate::eventcount`], and a [`WakerSlot`] *is* an
//! [`EventCount`] whose [`Wake`] backend ([`TaskWake`]) delivers the wake by
//! calling the registered [`FifoWaker`] instead of waking a thread: there is
//! **no interleaving in which the scheduler parks a task on an
//! observed-empty queue and the notifier skips the wake**, each arm produces
//! **at most one** callback (a stream pushing a thousand elements while its
//! consumer is already queued costs a thousand fence + load pairs, not a
//! thousand callbacks), and both sides "winning" costs one spurious wake,
//! which the scheduler's task state machine absorbs.
//! `tests/loom_eventcount.rs` model-checks exactly this window.
//!
//! When no waker was ever registered (thread-per-kernel runs),
//! [`TaskWake::listening`] is false and every notify site degrades to a
//! single relaxed load and branch.

// The waker handle is a std Arc even under loom: the Arc is payload, not
// protocol — publication of the cell contents is ordered entirely by the
// (loom-instrumented) `state` atomic and SeqCst fences below, so the model
// checker still explores every ordering that matters.
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
/// [`arm`](EventCount::arm)s it before parking the consuming task
/// and re-checks the stream state per the eventcount protocol. The FIFO
/// calls [`notify`](EventCount::notify) after every state change the task
/// might be waiting on.
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
