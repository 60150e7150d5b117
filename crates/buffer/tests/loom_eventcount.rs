//! Loom model checks for the one eventcount protocol
//! ([`raft_buffer::eventcount`]), run over every wake backend it has.
//!
//! These tests only compile and run under the loom cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p raft-buffer --test loom_eventcount --release
//! ```
//!
//! The property under test is the **lost-wakeup freedom** every parked
//! endpoint and every parked scheduler task depends on: a waiter that
//! (1) arms, (2) re-checks the stream state, and (3) parks on finding
//! nothing actionable must *always* be woken by a notifier that published
//! a change — the classic store-buffering (Dekker) window between "queue
//! observed empty" and "park". The fence pairing is written once, in
//! `EventCount::{arm, notify}`; what differs per backend is only where the
//! two words live and what "wake" means, so each model is a generic
//! function instantiated once per kind of sleeper:
//!
//! * [`ThreadPark`] — the futex-words model. Every sleeping thread, over
//!   owned words or a segment's, waits with `FUTEX_WAIT` on `seq`, and the
//!   `FUTEX_WAKE` needs no modelling: the kernel sleeps only while
//!   `seq == epoch`, so the bump *is* the wake (under loom `ThreadPark`
//!   skips the syscall). The mapped `Futex` backend borrows `std` atomics
//!   out of an `mmap`, which loom cannot instrument, and runs the same
//!   `EventCount` code over them;
//! * [`TaskWake`] — the `WakerSlot` the work-stealing scheduler arms, wake
//!   = the registered callback.
//!
//! For both, "the wake was delivered" is observable as `seq` having
//! moved past the waiter's epoch; the task backend is additionally checked
//! through its callback. The lossy `notify_if_armed` hot path is *not*
//! modelled as lost-wakeup free — it is not; its bounded park is counted
//! (`rescues`) instead.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::thread;
use std::sync::Arc;

use raft_buffer::eventcount::{EventCount, ThreadPark, Wake, Word};
use raft_buffer::waker::TaskWake;
use raft_buffer::{FifoWaker, WakerSlot};

/// Records wake delivery; stands in for the scheduler's "enqueue task".
struct FlagWaker(AtomicBool);

impl FifoWaker for FlagWaker {
    fn wake(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One backend under test: how to build it, and a second opinion (beyond
/// `seq`) on whether its wake was delivered.
trait Backend: Wake + Send + Sync + Sized + 'static {
    fn make() -> (EventCount<Self>, Box<dyn Fn() -> bool>);
}

impl Backend for ThreadPark {
    fn make() -> (EventCount<Self>, Box<dyn Fn() -> bool>) {
        (EventCount::over(ThreadPark::default()), Box::new(|| true))
    }
}

impl Backend for TaskWake {
    fn make() -> (EventCount<Self>, Box<dyn Fn() -> bool>) {
        let slot = WakerSlot::new();
        let woken = Arc::new(FlagWaker(AtomicBool::new(false)));
        assert!(slot.register(woken.clone()));
        (slot, Box::new(move || woken.0.load(Ordering::Acquire)))
    }
}

fn seq_of<W: Wake>(event: &EventCount<W>) -> u32 {
    event.backend().seq().load(Ordering::Relaxed)
}

/// The waiter's park protocol against a notifier's publish + notify: no
/// interleaving may end with the waiter parked on an observed-empty queue
/// *and* no wake delivered. The SeqCst fence in `arm` (after the armed
/// store, before the re-check) and in `notify` (after the stream write,
/// before the armed read) forbid the store-buffering interleaving where
/// both sides miss each other.
fn no_lost_wakeup_between_recheck_and_park<W: Backend>() {
    loom::model(|| {
        let (event, callback_fired) = W::make();
        let event = Arc::new(event);
        let queue = Arc::new(AtomicUsize::new(0)); // stands in for occupancy

        let producer = {
            let (event, queue) = (event.clone(), queue.clone());
            thread::spawn(move || {
                // Publish data, then notify — the order every notify site
                // follows (state write happens-before the fence inside
                // notify()).
                queue.store(1, Ordering::Release);
                event.notify();
            })
        };

        // Waiter side of `block_until`'s park branch (and of the
        // scheduler's): arm, re-check, park-if-empty.
        let epoch = event.arm();
        let parked = queue.load(Ordering::Acquire) == 0;
        if !parked {
            event.disarm();
        }

        producer.join().unwrap();

        if parked {
            // The re-check missed the data, so the producer's fence came
            // later in the SC order — its armed read cannot have missed our
            // arm: the claim bumped `seq` (a futex wait on `epoch` would
            // refuse to sleep) and fired the callback.
            assert_ne!(
                seq_of(&event),
                epoch,
                "lost wakeup: parked on observed-empty queue with no seq bump"
            );
            assert!(callback_fired(), "lost wakeup: no callback delivered");
        }
    });
}

/// A disarm racing a notify: the arm is claimed exactly once — either the
/// waiter withdraws it (disarm returns true, no wake) or the notifier
/// claims it (seq bumped, disarm returns false) — never both, never
/// neither. This is what makes "absorb the in-flight wake as spurious"
/// sound on every re-check-succeeded path.
fn arm_is_claimed_exactly_once<W: Backend>() {
    loom::model(|| {
        let (event, _) = W::make();
        let event = Arc::new(event);
        let epoch = event.arm();
        let notifier = {
            let event = event.clone();
            thread::spawn(move || event.notify())
        };
        let claimed_by_us = event.disarm();
        notifier.join().unwrap();

        let wake_fired = seq_of(&event) == epoch.wrapping_add(1);
        assert!(
            claimed_by_us != wake_fired,
            "arm claimed {} times (disarm={claimed_by_us}, wake={wake_fired})",
            claimed_by_us as u32 + wake_fired as u32,
        );
    });
}

#[test]
fn thread_park_no_lost_wakeup() {
    no_lost_wakeup_between_recheck_and_park::<ThreadPark>();
}

#[test]
fn task_callback_no_lost_wakeup() {
    no_lost_wakeup_between_recheck_and_park::<TaskWake>();
}

#[test]
fn thread_park_arm_is_claimed_exactly_once() {
    arm_is_claimed_exactly_once::<ThreadPark>();
}

#[test]
fn task_callback_arm_is_claimed_exactly_once() {
    arm_is_claimed_exactly_once::<TaskWake>();
}
