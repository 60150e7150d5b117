//! Runtime protocol shadow checker for the unsafe FIFO fabric
//! (`raft_protocol_check` feature).
//!
//! The hot path in [`crate::fifo`] is lock-free and `unsafe`: its soundness
//! argument rests on a protocol — exactly one producer and one consumer,
//! each reaching only its own ring between taking it and letting it go,
//! and monotonic published counters. A resize never touches a slot under a
//! live endpoint: the producer seals its own ring and the consumer follows
//! on its own, so there is no third party to check. This module turns that
//! argument into executable assertions. Each FIFO carries a
//! [`FifoShadow`], driven from the one chokepoint where an endpoint takes
//! its ring (`Shared::enter`) and the one where it lets it go (the arena's
//! drop).
//!
//! Checks:
//!
//! * **SPSC discipline** — at most one thread holds the producer's ring,
//!   at most one the consumer's. A second holder (e.g. a duplicated
//!   producer handle) is reported with both thread ids.
//! * **Monotonic sequence** — the producer's published `tail` and the
//!   consumer's published `head` never decrease across holds. Each role is
//!   checked only against its *own* counter (cross-role comparisons would
//!   race against legitimate concurrent progress).
//!
//! A violation increments [`violations`] and panics with a message prefixed
//! `raft_protocol_check violation:` — under chaos CI any violation fails
//! the run. The checker costs a few atomics per operation and exists for
//! test/CI builds only; the feature is off by default.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::fifo::Role;

/// Process-wide count of detected protocol violations (each one also
/// panics; the counter survives `catch_unwind` for test assertions).
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Total protocol violations detected so far in this process.
pub fn violations() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Monotonic per-thread id (1-based; `ThreadId::as_u64` is unstable).
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cold]
fn violation(msg: String) -> ! {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    panic!("raft_protocol_check violation: {msg}");
}

/// Shadow state attached to every FIFO when the checker is compiled in.
#[derive(Debug, Default)]
pub(crate) struct FifoShadow {
    /// Thread id currently holding each [`Role`]'s ring (0 = none).
    holders: [AtomicU64; 2],
    /// Highest counter each [`Role`] has published (`tail` for the
    /// producer, `head` for the consumer) when letting its ring go.
    published: [AtomicUsize; 2],
}

impl FifoShadow {
    /// Called as `role`'s endpoint takes its ring.
    pub(crate) fn enter(&self, role: Role) {
        let tid = current_tid();
        let holder = &self.holders[role as usize];
        if let Err(prev) = holder.compare_exchange(0, tid, Ordering::SeqCst, Ordering::SeqCst) {
            violation(format!(
                "two {role:?} endpoints inside the critical section at once \
                 (thread {prev} already inside, thread {tid} entered): the \
                 stream is SPSC — exactly one producer and one consumer \
                 handle may operate at a time"
            ));
        }
    }

    /// Called as `role`'s endpoint lets its ring go. `published` is the
    /// role's own monotonic counter (`tail` for the producer, `head` for
    /// the consumer) as published by this hold.
    pub(crate) fn exit(&self, role: Role, published: usize) {
        let prev = self.published[role as usize].swap(published, Ordering::SeqCst);
        if published < prev {
            violation(format!(
                "{role:?} published a non-monotonic sequence: counter moved \
                 backwards from {prev} to {published}"
            ));
        }
        let tid = current_tid();
        let owner = self.holders[role as usize].swap(0, Ordering::SeqCst);
        if owner != tid {
            violation(format!(
                "{role:?} critical-section exit by thread {tid} but the \
                 section was owned by thread {owner}"
            ));
        }
    }
}
