//! Loom model of the work-stealing scheduler's claim-time-disarm window —
//! the certification demanded by the exactly-once recovery work: journaled
//! replay is meaningless on a scheduler that can lose wakeups.
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p raft-buffer --test loom_stealing --release
//! ```
//!
//! The scheduler lives in `raftlib-core` (`stealing.rs`), but the protocol
//! under test is built entirely from this crate's [`WakerSlot`] plus a
//! four-state task atomic, so the model reconstructs it here in miniature,
//! mirroring `wake_task` / claim / park line for line.
//!
//! ## The bug being certified away
//!
//! `wake_task` has a readiness filter: a multi-input task is only enqueued
//! when *all* inputs have data, because enqueueing early burns a claim →
//! not-ready → re-arm → park cycle per input (O(width²) churn across a
//! reduce row). The filter's original failure path was a bare `return` —
//! and the notify that invoked `wake_task` had already *consumed* that
//! input's arm. Two producers finishing pushes on the two inputs at the
//! same moment could then each observe the *other* queue as still empty
//! (classic store-buffering), both drop their wake, and leave the task
//! IDLE forever with both inputs full: the ~10% `stealing_pipeline…` hang.
//!
//! The fix re-arms every input and re-checks once before dropping. The
//! re-arm's SeqCst fence pairs with the producers' notify fences, so the
//! "both re-checks miss" interleaving would need each fence to precede the
//! other — a cycle in the SC order. [`filter_drop_rearms_both_inputs`]
//! has loom prove exactly that; [`notify_during_running_is_never_lost`]
//! covers the second half of the window, a notify landing while the task
//! is RUNNING or mid-park.
//!
//! ## Worker parks
//!
//! Workers themselves sleep on the same eventcount: each owns an
//! `EventCount<ThreadPark>`, parks by arm → re-check "any queue non-empty"
//! → wait, and every enqueue a parked worker must see is followed by
//! `wake_worker` (a fenced `notify` of each worker's eventcount until one
//! claims an arm). [`worker_park_races_enqueue_and_wake`] checks that an
//! enqueue racing a park always leaves the task claimed or the parker woken.
//!
//! ## One wake per link per claim
//!
//! Inside a pool claim a push stores `tail` (a pop `head`) per element but
//! pays its task wake once, at claim end. [`claim_end_wake_covers_every_push_of_the_claim`]
//! and its room-side twin [`claim_end_room_wake_covers_every_release_of_the_claim`]
//! check that one fence after many counter stores still pairs with the
//! parking task's arm.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use raft_buffer::eventcount::Wake;
use raft_buffer::{EventCount, FifoWaker, ThreadPark, WakerSlot};

const IDLE: usize = 0;
const QUEUED: usize = 1;
const RUNNING: usize = 2;
const NOTIFIED: usize = 3;

/// One task slot with `W` input streams: the miniature of
/// `stealing::TaskSlot` (state machine) + per-input consumer [`WakerSlot`]s
/// + occupancies standing in for the FIFOs.
struct Task<const W: usize> {
    state: AtomicUsize,
    slots: [WakerSlot; W],
    occupancy: [AtomicUsize; W],
    /// Times the task was pushed onto a run queue (deque/injector).
    enqueues: AtomicUsize,
}

impl<const W: usize> Task<W> {
    fn new() -> Self {
        Task {
            state: AtomicUsize::new(IDLE),
            slots: std::array::from_fn(|_| WakerSlot::new()),
            occupancy: std::array::from_fn(|_| AtomicUsize::new(0)),
            enqueues: AtomicUsize::new(0),
        }
    }

    /// `scheduler::inputs_ready` in miniature: all inputs non-empty.
    fn ready(&self) -> bool {
        self.occupancy.iter().all(|o| o.load(Ordering::Acquire) > 0)
    }

    /// `stealing::Core::wake_task` with the certified fix: on filter
    /// failure re-arm *all* inputs (the arm carries a SeqCst fence pairing
    /// with the producers' notify fences) and re-check once.
    fn wake_task(&self) {
        if !self.ready() {
            for s in &self.slots {
                s.arm();
            }
            if !self.ready() {
                return;
            }
        }
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            match cur {
                IDLE => {
                    match self.state.compare_exchange(
                        IDLE,
                        QUEUED,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            self.enqueues.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(c) => cur = c,
                    }
                }
                RUNNING => {
                    match self.state.compare_exchange(
                        RUNNING,
                        NOTIFIED,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return,
                        Err(c) => cur = c,
                    }
                }
                // QUEUED / NOTIFIED: a wake is already owed.
                _ => return,
            }
        }
    }

    /// Worker claim: swap to RUNNING, then disarm every input — claim-time
    /// disarm absorbs stale arms so each arm wakes at most once.
    fn claim(&self) {
        self.state.swap(RUNNING, Ordering::AcqRel);
        for s in &self.slots {
            s.disarm();
        }
    }

    /// One `run()`: drain whatever is visible on every input.
    fn run_drain(&self) -> usize {
        self.occupancy
            .iter()
            .map(|o| o.swap(0, Ordering::AcqRel))
            .sum()
    }

    /// Worker park protocol: arm all → re-check → CAS RUNNING→IDLE; a CAS
    /// loss (NOTIFIED landed mid-park) or a successful re-check re-queues
    /// instead of idling.
    fn park(&self) {
        for s in &self.slots {
            s.arm();
        }
        if self.ready() {
            self.state.store(QUEUED, Ordering::SeqCst);
            self.enqueues.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            self.state.store(QUEUED, Ordering::SeqCst);
            self.enqueues.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The waker registered on each input slot: fires the shared `wake_task`.
/// Holds the task weakly so iterations don't leak through the
/// slot → waker → task → slot cycle.
struct TaskWaker<const W: usize>(Weak<Task<W>>);

impl<const W: usize> FifoWaker for TaskWaker<W> {
    fn wake(&self) {
        if let Some(t) = self.0.upgrade() {
            t.wake_task();
        }
    }
}

fn install_waker<const W: usize>(task: &Arc<Task<W>>) {
    let waker: Arc<dyn FifoWaker> = Arc::new(TaskWaker(Arc::downgrade(task)));
    for s in &task.slots {
        assert!(s.register(waker.clone()));
    }
}

/// The certified race: a parked two-input task (IDLE, both arms set) and
/// two producers pushing one element each. Every producer's notify runs
/// the readiness filter; with the old bare-`return` drop path, loom finds
/// the interleaving where both filters observe the *other* input as empty,
/// both wakes are dropped with both arms consumed, and the task is IDLE
/// with data on both inputs — a permanent hang, since no further push is
/// coming. The re-arm + re-check makes that terminal state unreachable.
#[test]
fn filter_drop_rearms_both_inputs() {
    loom::model(|| {
        let task = Arc::new(Task::<2>::new());
        install_waker(&task);
        // Parked: worker armed both inputs and went IDLE.
        for s in &task.slots {
            s.arm();
        }

        let producers: Vec<_> = (0..2)
            .map(|i| {
                let task = Arc::clone(&task);
                loom::thread::spawn(move || {
                    // Publish, then notify — the order every FIFO push
                    // site follows.
                    task.occupancy[i].store(1, Ordering::Release);
                    task.slots[i].notify();
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }

        // Both inputs hold data and no further notify will ever come: the
        // task must have been enqueued.
        assert_eq!(
            task.state.load(Ordering::SeqCst),
            QUEUED,
            "lost wakeup: both inputs full, task not enqueued"
        );
        assert!(task.enqueues.load(Ordering::Relaxed) >= 1);
    });
}

/// The other half of the window: a notify landing while the worker has the
/// task claimed (RUNNING) or is mid-park. The claim-time disarm, the
/// RUNNING→NOTIFIED transition, and the park protocol's arm → re-check →
/// CAS must combine so that data present at quiescence always leaves the
/// task enqueued — never IDLE over a non-empty input.
#[test]
fn notify_during_running_is_never_lost() {
    loom::model(|| {
        let task = Arc::new(Task::<1>::new());
        install_waker(&task);
        // The task was just enqueued (its arm consumed by that wake).
        task.state.store(QUEUED, Ordering::SeqCst);

        let worker = {
            let task = Arc::clone(&task);
            loom::thread::spawn(move || {
                task.claim();
                task.run_drain();
                task.park();
            })
        };
        let producer = {
            let task = Arc::clone(&task);
            loom::thread::spawn(move || {
                task.occupancy[0].fetch_add(1, Ordering::AcqRel);
                task.slots[0].notify();
            })
        };
        worker.join().unwrap();
        producer.join().unwrap();

        // If the element survived the drain, someone must have re-queued
        // the task for it (wake_task or the park re-check) — IDLE over a
        // non-empty input is the hang.
        if task.occupancy[0].load(Ordering::SeqCst) > 0 {
            assert_eq!(
                task.state.load(Ordering::SeqCst),
                QUEUED,
                "lost wakeup: data present, task not re-queued"
            );
        }
    });
}

/// One claim of a producer task, racing a consumer task that parks: the
/// producer stores `tail` per element (two pushes) but only owes its task
/// wake, and pays it once at claim end — one fenced notify after both
/// stores — while the consumer, running, drains what it sees and parks
/// (arm → re-check → CAS). An element the drain missed is seen by the
/// re-check or the claim-end notify finds the arm: the task is never left
/// IDLE over data, however the two stores and the one fence interleave
/// with the arm.
#[test]
fn claim_end_wake_covers_every_push_of_the_claim() {
    loom::model(|| {
        let task = Arc::new(Task::<1>::new());
        install_waker(&task);
        task.state.store(QUEUED, Ordering::SeqCst);

        let producer = {
            let task = Arc::clone(&task);
            loom::thread::spawn(move || {
                // Two pushes: a `tail` store each, the wake owed.
                task.occupancy[0].fetch_add(1, Ordering::AcqRel);
                task.occupancy[0].fetch_add(1, Ordering::AcqRel);
                // Claim end: the one owed wake is paid.
                task.slots[0].notify();
            })
        };
        task.claim();
        task.run_drain();
        task.park();
        producer.join().unwrap();

        if task.occupancy[0].load(Ordering::SeqCst) > 0 {
            assert_eq!(
                task.state.load(Ordering::SeqCst),
                QUEUED,
                "lost wakeup: data left by the claim, consumer task not re-queued"
            );
        }
    });
}

/// The room-side twin: a producer task that found its ring full parks on
/// its room slot (arm → re-check → CAS) while the consumer's claim releases
/// slots per element (a `head` store each) and pays its owed room wake once,
/// at claim end. Here the task's one "port" counts free slots: the
/// producer's run fills every slot it sees, the consumer's releases free
/// them. Room freed by the claim is seen by the re-check or the claim-end
/// notify finds the arm: the producer is never left IDLE with room to fill.
#[test]
fn claim_end_room_wake_covers_every_release_of_the_claim() {
    loom::model(|| {
        let producer = Arc::new(Task::<1>::new());
        install_waker(&producer);
        producer.state.store(QUEUED, Ordering::SeqCst);
        let free = |t: &Task<1>| t.occupancy[0].load(Ordering::SeqCst);

        let consumer = {
            let producer = Arc::clone(&producer);
            loom::thread::spawn(move || {
                // Two pops: a `head` store each, the room wake owed.
                producer.occupancy[0].fetch_add(1, Ordering::AcqRel);
                producer.occupancy[0].fetch_add(1, Ordering::AcqRel);
                // Claim end: the one owed room wake is paid.
                producer.slots[0].notify();
            })
        };
        // The producer's claim fills what room it sees, then finds the
        // ring full and parks on room.
        producer.claim();
        producer.run_drain();
        producer.park();
        consumer.join().unwrap();

        if free(&producer) > 0 {
            assert_eq!(
                producer.state.load(Ordering::SeqCst),
                QUEUED,
                "lost wakeup: room freed by the claim, producer task not re-queued"
            );
        }
    });
}

/// The pool in miniature: one eventcount per worker, and the queues (deques
/// + injector) collapsed into one count of claimable tasks.
struct Pool {
    parks: [EventCount<ThreadPark>; 2],
    queued: AtomicUsize,
}

impl Pool {
    /// `stealing::Core::wake_worker`: notify each worker's eventcount until
    /// one claims an arm.
    fn wake_worker(&self) {
        self.parks.iter().any(EventCount::notify);
    }

    /// A claim from any queue.
    fn claim(&self) -> bool {
        self.queued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| q.checked_sub(1))
            .is_ok()
    }
}

/// Worker 0 is running: it queues a task (a quantum yield into the
/// injector, or a wake) and calls `wake_worker`, whose first notify lands
/// on its own unarmed eventcount. Worker 1 has found nothing and parks:
/// arm → re-check → wait. The task must end up claimed by the re-check or
/// the parked worker woken — `seq` moved past its epoch, so `wait` cannot
/// sleep — never neither.
#[test]
fn worker_park_races_enqueue_and_wake() {
    loom::model(|| {
        let pool = Arc::new(Pool {
            parks: Default::default(),
            queued: AtomicUsize::new(0),
        });
        let running = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || {
                pool.queued.fetch_add(1, Ordering::Release);
                pool.wake_worker();
            })
        };

        let park = &pool.parks[1];
        let epoch = park.arm();
        let claimed = pool.claim();
        if claimed {
            park.disarm();
        }
        running.join().unwrap();

        if !claimed {
            assert_ne!(
                park.backend().seq().load(Ordering::Relaxed),
                epoch,
                "lost wakeup: task queued, parked worker never woken"
            );
        }
    });
}
