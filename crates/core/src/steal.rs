//! Work-stealing queues for [`crate::scheduler::SchedulerKind::Stealing`]:
//! a per-worker Chase–Lev deque and a bounded, locked FIFO injector.
//!
//! Both queues move **task ids** (`usize` indices into the scheduler's
//! runner table), not boxed work items. That makes the deque implementable
//! in 100% safe Rust: every slot is an `AtomicUsize`, so the racy
//! read-value-then-CAS shape of the Chase–Lev `steal` is an atomic load
//! whose result is simply discarded when the CAS loses — no torn reads, no
//! `MaybeUninit`, no reclamation.
//!
//! Capacity is **fixed** at construction. The scheduler's task state
//! machine guarantees each task id is in at most one queue at a time
//! (IDLE→QUEUED transitions are claimed by a single CAS winner), so a
//! capacity of `n_tasks` per queue can never overflow; overflow therefore
//! panics as a scheduler-invariant violation rather than growing.
//!
//! The deque follows Chase & Lev, "Dynamic Circular Work-Stealing Deque"
//! (SPAA'05) with the C11 orderings from Lê et al., "Correct and Efficient
//! Work-Stealing for Weak Memory Models" (PPoPP'13). The injector is a
//! `VecDeque` under the workspace's one mutex: it carries seeds, off-pool
//! wakes and one yield per quantum, too little traffic for a lock-free
//! queue to pay for its proof.

use std::collections::VecDeque;
use std::sync::atomic::{
    fence, AtomicIsize, AtomicUsize,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};

use raft_buffer::sync::{CachePadded, Mutex};

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// A task id was stolen.
    Success(usize),
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
}

/// Fixed-capacity Chase–Lev deque. The owning worker pushes and pops at the
/// *bottom* (LIFO — hot caches); thieves steal from the *top* (FIFO —
/// oldest, least cache-warm work).
///
/// `push`/`pop` must only be called by the owning worker thread; `steal`
/// may be called from any thread. This is a runtime protocol (the
/// scheduler gives each worker its own deque index), not a type-level one,
/// but violating it can only mis-order task ids — the slots are atomics, so
/// there is no memory unsafety to reach.
#[derive(Debug)]
pub struct WorkerDeque {
    /// Ring of task ids; length is a power of two.
    slots: Box<[AtomicUsize]>,
    mask: usize,
    /// Owner end. Signed so the transient `bottom = top - 1` state in `pop`
    /// cannot underflow.
    bottom: CachePadded<AtomicIsize>,
    /// Thief end; monotonically increasing.
    top: CachePadded<AtomicIsize>,
}

impl WorkerDeque {
    /// A deque that can hold `capacity` task ids (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        WorkerDeque {
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
            bottom: CachePadded::new(AtomicIsize::new(0)),
            top: CachePadded::new(AtomicIsize::new(0)),
        }
    }

    /// Owner: push a task id at the bottom.
    ///
    /// # Panics
    /// If the deque is full — impossible while the scheduler's
    /// one-queue-per-task invariant holds, so a panic here is a bug report.
    pub fn push(&self, task: usize) {
        let b = self.bottom.load(Relaxed);
        // Acquire: pairs with thieves' top CAS; a stale (smaller) top only
        // makes the fullness check more conservative, never less.
        let t = self.top.load(Acquire);
        assert!(
            b - t <= self.mask as isize,
            "WorkerDeque overflow: task {task} pushed into a full deque \
             (scheduler one-queue-per-task invariant violated)"
        );
        self.slots[b as usize & self.mask].store(task, Relaxed);
        // Release: publishes the slot store before the new bottom becomes
        // visible to a thief's Acquire bottom load.
        fence(Release);
        self.bottom.store(b + 1, Relaxed);
    }

    /// Owner: pop the most recently pushed task id (LIFO end).
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Relaxed) - 1;
        self.bottom.store(b, Relaxed);
        // SeqCst: orders the bottom decrement before the top load in the SC
        // total order — the Dekker handshake against a concurrent thief
        // (its CAS on `top` is SeqCst), so both sides cannot take the same
        // last element.
        fence(SeqCst);
        let t = self.top.load(Relaxed);
        if t <= b {
            let task = self.slots[b as usize & self.mask].load(Relaxed);
            if t == b {
                // Last element: race the thieves for it via top.
                let won = self.top.compare_exchange(t, t + 1, SeqCst, Relaxed).is_ok();
                self.bottom.store(b + 1, Relaxed);
                return won.then_some(task);
            }
            Some(task)
        } else {
            // Already empty; undo the decrement.
            self.bottom.store(b + 1, Relaxed);
            None
        }
    }

    /// Thief: steal the oldest task id (FIFO end). Any thread.
    pub fn steal(&self) -> Steal {
        // Acquire top first, then SeqCst-fence, then Acquire bottom: the
        // fence orders our top read before the bottom read against the
        // owner's pop-side SeqCst fence (Lê et al. §4).
        let t = self.top.load(Acquire);
        fence(SeqCst);
        let b = self.bottom.load(Acquire);
        if t < b {
            // Atomic slot load: if the CAS below fails the value is simply
            // discarded, so a racing overwrite by the owner is harmless.
            let task = self.slots[t as usize & self.mask].load(Relaxed);
            if self.top.compare_exchange(t, t + 1, SeqCst, Relaxed).is_ok() {
                return Steal::Success(task);
            }
            return Steal::Retry;
        }
        Steal::Empty
    }

    /// Observed emptiness (racy; for idle heuristics only).
    pub fn is_empty(&self) -> bool {
        self.bottom.load(Relaxed) <= self.top.load(Relaxed)
    }

    /// Entries currently queued. Exact for the owner; for other threads a
    /// racy snapshot (fine for heuristics like "is work backing up?").
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Relaxed);
        let t = self.top.load(Relaxed);
        b.saturating_sub(t).max(0) as usize
    }
}

/// Bounded FIFO queue: the global entry point for tasks that do not go
/// onto a worker's own deque — initial seeds, wakes fired off the pool, and
/// quantum yields. Workers drain it before (or, right after a yield, after)
/// stealing from each other.
///
/// A plain lock around a `VecDeque`, so the fullness check is exact. A
/// lock-free ring would not be bounded by the task count: a consumer
/// preempted between its ticket CAS and its slot release gets lapped, and a
/// producer then sees the ring full with fewer than `capacity` tasks live.
#[derive(Debug)]
pub struct Injector {
    queue: Mutex<VecDeque<usize>>,
    capacity: usize,
}

impl Injector {
    /// An injector that can hold `capacity` task ids.
    pub fn new(capacity: usize) -> Self {
        Injector {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Enqueue a task id. Any thread.
    ///
    /// # Panics
    /// If the queue is full — impossible while the scheduler's
    /// one-queue-per-task invariant holds.
    pub fn push(&self, task: usize) {
        let mut queue = self.queue.lock();
        assert!(
            queue.len() < self.capacity,
            "Injector overflow: task {task} pushed into a full queue \
             (scheduler one-queue-per-task invariant violated)"
        );
        queue.push_back(task);
    }

    /// Dequeue the oldest task id, if any. Any thread.
    pub fn pop(&self) -> Option<usize> {
        self.queue.lock().pop_front()
    }

    /// Observed emptiness (racy once the lock is released).
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn deque_lifo_for_owner() {
        let d = WorkerDeque::new(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn deque_fifo_for_thief() {
        let d = WorkerDeque::new(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Steal::Success(1));
        assert_eq!(d.steal(), Steal::Success(2));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn deque_capacity_rounds_up() {
        let d = WorkerDeque::new(5); // rounds to 8
        for i in 0..8 {
            d.push(i);
        }
        for i in (0..8).rev() {
            assert_eq!(d.pop(), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "WorkerDeque overflow")]
    fn deque_overflow_panics() {
        let d = WorkerDeque::new(2);
        d.push(0);
        d.push(1);
        d.push(2);
    }

    #[test]
    fn injector_is_fifo() {
        let q = Injector::new(8);
        assert!(q.is_empty());
        q.push(10);
        q.push(20);
        q.push(30);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn injector_wraps_generations() {
        let q = Injector::new(2);
        for round in 0..10 {
            q.push(round);
            q.push(round + 100);
            assert_eq!(q.pop(), Some(round));
            assert_eq!(q.pop(), Some(round + 100));
            assert_eq!(q.pop(), None);
        }
    }

    /// Churn at capacity = live bound, with more threads than cores: every
    /// thread pops an id and pushes it straight back, so the queue never
    /// holds more than `LIVE` ids and a push must never see it full. (A
    /// lock-free ring whose pop can be lapped while its holder is
    /// preempted fails exactly this.)
    #[test]
    fn injector_churn_at_live_bound_never_overflows() {
        const LIVE: usize = 4;
        let q = Arc::new(Injector::new(LIVE));
        for t in 0..LIVE {
            q.push(t);
        }
        let threads = 2 * std::thread::available_parallelism().map_or(2, |n| n.get()) + 2;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        let churners: Vec<_> = (0..threads)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut moved = 0u64;
                    while std::time::Instant::now() < deadline {
                        for _ in 0..64 {
                            if let Some(t) = q.pop() {
                                q.push(t);
                                moved += 1;
                            }
                        }
                    }
                    moved
                })
            })
            .collect();
        let moved: u64 = churners.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(moved > 0);
        let mut left: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        left.sort_unstable();
        assert_eq!(
            left,
            (0..LIVE).collect::<Vec<_>>(),
            "lost or duplicated ids"
        );
    }

    /// Stress: every task id pushed (from several threads, each id once —
    /// mirroring the scheduler invariant) is popped/stolen exactly once.
    #[test]
    fn no_task_lost_or_duplicated_under_contention() {
        const PER_THREAD: usize = 1000;
        const PRODUCERS: usize = 4;
        let total = PER_THREAD * PRODUCERS;
        let q = Arc::new(Injector::new(total));
        let d = Arc::new(WorkerDeque::new(total));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        q.push(p * PER_THREAD + i);
                    }
                })
            })
            .collect();

        // Owner drains injector into its deque and pops; two thieves steal.
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let d = d.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        match d.steal() {
                            Steal::Success(t) => {
                                got.push(t);
                                dry = 0;
                            }
                            Steal::Retry => {}
                            Steal::Empty => dry += 1,
                        }
                    }
                    got
                })
            })
            .collect();

        let mut seen: Vec<usize> = Vec::with_capacity(total);
        let mut idle = 0;
        while seen.len() < total && idle < 100_000 {
            let mut progressed = false;
            while let Some(t) = q.pop() {
                d.push(t);
                progressed = true;
            }
            if let Some(t) = d.pop() {
                seen.push(t);
                progressed = true;
            }
            if progressed {
                idle = 0;
            } else {
                idle += 1;
                std::thread::yield_now();
            }
            // Leave some stealable work: stop hoarding once producers exit.
            if seen.len() + 64 >= total {
                break;
            }
        }

        for p in producers {
            p.join().unwrap();
        }
        // Final drain so thieves can go dry.
        while let Some(t) = q.pop() {
            d.push(t);
        }
        while let Some(t) = d.pop() {
            seen.push(t);
        }
        for t in thieves {
            seen.extend(t.join().unwrap());
        }
        // Anything the thieves missed at the end.
        while let Some(t) = d.pop() {
            seen.push(t);
        }

        assert_eq!(seen.len(), total, "lost or duplicated task ids");
        let unique: HashSet<_> = seen.iter().copied().collect();
        assert_eq!(unique.len(), total, "duplicated task ids");
    }
}
