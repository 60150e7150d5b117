//! The run queue of [`crate::scheduler::SchedulerKind::Stealing`]: one
//! bounded, locked FIFO per worker.
//!
//! A queue moves **task ids** (`usize` indices into the scheduler's runner
//! table), not boxed work items. Its owner pops the front; an idle sibling
//! steals the front too, so a thief takes the oldest entry and the owner's
//! order is never reversed.
//!
//! Capacity is **fixed** at construction. The scheduler's task state
//! machine guarantees each task id is in at most one queue at a time
//! (IDLE→QUEUED transitions are claimed by a single CAS winner), so a
//! capacity of `n_tasks` per queue can never overflow; overflow therefore
//! panics as a scheduler-invariant violation rather than growing.
//!
//! A `VecDeque` under the workspace's one mutex: a queue carries its own
//! worker's wakes and yields plus the odd steal — one uncontended lock per
//! claim, too little traffic for a lock-free queue to pay for its proof.

use std::collections::VecDeque;

use raft_buffer::sync::Mutex;

/// Bounded FIFO of task ids, one per worker: what the worker claims from
/// first, and what its idle siblings steal from.
///
/// A plain lock around a `VecDeque`, so the fullness check is exact. A
/// lock-free ring would not be bounded by the task count: a consumer
/// preempted between its ticket CAS and its slot release gets lapped, and a
/// producer then sees the ring full with fewer than `capacity` tasks live.
#[derive(Debug)]
pub struct RunQueue {
    queue: Mutex<VecDeque<usize>>,
    capacity: usize,
}

impl RunQueue {
    /// A queue that can hold `capacity` task ids.
    pub fn new(capacity: usize) -> Self {
        RunQueue {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Enqueue a task id at the back. Any thread. Returns the queue's
    /// length after the push.
    ///
    /// # Panics
    /// If the queue is full — impossible while the scheduler's
    /// one-queue-per-task invariant holds.
    pub fn push(&self, task: usize) -> usize {
        let mut queue = self.queue.lock();
        assert!(
            queue.len() < self.capacity,
            "RunQueue overflow: task {task} pushed into a full queue \
             (scheduler one-queue-per-task invariant violated)"
        );
        queue.push_back(task);
        queue.len()
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
    fn injector_is_fifo() {
        let q = RunQueue::new(8);
        assert!(q.is_empty());
        assert_eq!(q.push(10), 1);
        assert_eq!(q.push(20), 2);
        assert_eq!(q.push(30), 3);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn injector_wraps_generations() {
        let q = RunQueue::new(2);
        for round in 0..10 {
            q.push(round);
            q.push(round + 100);
            assert_eq!(q.pop(), Some(round));
            assert_eq!(q.pop(), Some(round + 100));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    #[should_panic(expected = "RunQueue overflow")]
    fn run_queue_overflow_panics() {
        let q = RunQueue::new(2);
        q.push(0);
        q.push(1);
        q.push(2);
    }

    /// Churn at capacity = live bound, with more threads than cores: every
    /// thread pops an id and pushes it straight back, so the queue never
    /// holds more than `LIVE` ids and a push must never see it full. (A
    /// lock-free ring whose pop can be lapped while its holder is
    /// preempted fails exactly this.)
    #[test]
    fn injector_churn_at_live_bound_never_overflows() {
        const LIVE: usize = 4;
        let q = Arc::new(RunQueue::new(LIVE));
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
    /// mirroring the scheduler invariant) is claimed exactly once, by the
    /// queue's owner or by one of two thieves.
    #[test]
    fn no_task_lost_or_duplicated_under_contention() {
        const PER_THREAD: usize = 1000;
        const PRODUCERS: usize = 4;
        let total = PER_THREAD * PRODUCERS;
        let q = Arc::new(RunQueue::new(total));

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
        // The owner and two thieves pop alike until the queue stays dry.
        let claimers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        match q.pop() {
                            Some(t) => {
                                got.push(t);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        let mut seen: Vec<usize> = claimers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        // Anything pushed after every claimer went dry.
        seen.extend(std::iter::from_fn(|| q.pop()));

        assert_eq!(seen.len(), total, "lost or duplicated task ids");
        let unique: HashSet<_> = seen.iter().copied().collect();
        assert_eq!(unique.len(), total, "duplicated task ids");
    }
}
