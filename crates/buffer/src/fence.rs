//! Lock-free resize exclusion: a Dekker-style membership fence.
//!
//! The paper's monitor thread resizes a live FIFO while the producer and
//! consumer keep streaming ("lock-free exclusion", §4). The original
//! implementation guarded every push/pop with a shared `RwLock` read
//! acquisition — correct, but it puts an atomic RMW on the hot path and the
//! lock word itself becomes a contended cache line between the endpoints.
//!
//! [`ResizeFence`] replaces that with an *arena membership* protocol:
//!
//! * Each endpoint owns a cache-padded `active` flag. It raises the flag on
//!   entry to a ring critical section (one uncontended SeqCst swap on a line
//!   nobody else writes), checks `pending`, and drops it with a plain
//!   Release store on exit. Batch operations ([`WriteSlice`], `pop_slice`)
//!   hold one membership across the whole batch, amortizing entry to
//!   fractions of a cycle per element — and fixed-capacity FIFOs skip the
//!   fence altogether.
//! * The monitor raises `pending`, then waits for both `active` flags to
//!   drop. Endpoints that see `pending` at entry back out, wait out the
//!   resize, and re-enter.
//!
//! [`WriteSlice`]: crate::fifo::WriteSlice
//!
//! Entry is where the memory-model subtlety lives; it is the classic
//! store-buffering (Dekker) pattern:
//!
//! ```text
//! endpoint:  active.swap(true, SeqCst);  pending.load(SeqCst)
//! monitor:   pending.swap(true, SeqCst); active.load(SeqCst)
//! ```
//!
//! All four accesses are SeqCst, so they have a single total order `S`
//! consistent with each thread's program order. If the endpoint's `pending`
//! load misses the monitor's store, then in `S` that load — and the
//! endpoint's `active` swap before it — precede the monitor's `pending`
//! swap, so the monitor's later `active` load must see the endpoint's swap:
//! at least one side always sees the other. Both may "lose" (endpoint backs
//! out *and* monitor waits one extra round) — that is safe, just one wasted
//! retry. With anything weaker, both writes could sit in store buffers
//! while both loads read stale values, and an endpoint would stream into a
//! ring that is mid-`memcpy`. The swap (one locked RMW on x86) is what buys
//! the store→load ordering; a plain store would need a full fence after it.
//!
//! Publication of the resized storage itself rides on the flag edges: the
//! endpoint's `active = false` is a Release store (its last ring access
//! happens-before it), the monitor's load of `active` is Acquire; after the
//! resize, the monitor's `pending = false` Release pairs with the endpoint's
//! Acquire re-check, so the new slot array is fully visible on re-entry.
//!
//! The fence is built on `crate::sync`, so `--cfg loom` model-checks the
//! protocol (see `tests/loom_fence.rs`).

use crate::sync::{
    AtomicBool, CachePadded,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};

/// Which endpoint an [`ResizeFence`] operation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The producing endpoint.
    Producer,
    /// The consuming endpoint.
    Consumer,
}

/// Dekker-style membership fence excluding endpoint ring access from
/// monitor-driven resizes. See the module docs for the protocol.
#[derive(Debug)]
pub struct ResizeFence {
    /// Raised by the resizer before it waits out the endpoints. Endpoints
    /// poll it with a Relaxed load on every operation.
    pending: AtomicBool,
    /// Producer is inside the arena (may touch ring storage).
    producer_active: CachePadded<AtomicBool>,
    /// Consumer is inside the arena.
    consumer_active: CachePadded<AtomicBool>,
}

impl Default for ResizeFence {
    fn default() -> Self {
        Self::new()
    }
}

impl ResizeFence {
    /// A fence with both endpoints outside the arena and no resize pending.
    pub fn new() -> Self {
        ResizeFence {
            pending: AtomicBool::new(false),
            producer_active: CachePadded::new(AtomicBool::new(false)),
            consumer_active: CachePadded::new(AtomicBool::new(false)),
        }
    }

    #[inline]
    fn active(&self, role: Role) -> &AtomicBool {
        match role {
            Role::Producer => &self.producer_active,
            Role::Consumer => &self.consumer_active,
        }
    }

    /// Fast-path check: is a resize waiting for this endpoint to leave?
    ///
    /// One Relaxed load — the endpoint calls this at the top of every
    /// operation *while already inside the arena*. Relaxed is enough for the
    /// check itself because missing a freshly-raised flag for a few
    /// operations is harmless: the monitor cannot proceed until this
    /// endpoint's `active` flag drops, so the ring is never mutated under us.
    #[inline]
    pub fn resize_pending(&self) -> bool {
        self.pending.load(Relaxed)
    }

    /// Enter the arena as `role`, waiting out any pending resize.
    ///
    /// On return the endpoint's `active` flag is raised, no resize is in
    /// progress, and any storage mutation by a previous resize is visible
    /// (Acquire on the `pending` re-check pairs with the resizer's Release
    /// in [`end_resize`](Self::end_resize)).
    pub fn enter(&self, role: Role) {
        let active = self.active(role);
        loop {
            // Dekker: the SeqCst RMW orders our `active` write before the
            // `pending` load in the SC total order, so this load and the
            // resizer's `active` load can't both miss (see module docs).
            active.swap(true, SeqCst);
            if !self.pending.load(SeqCst) {
                return;
            }
            // Resize in flight — back out and wait for it to finish. Resizes
            // are short (one copy) and there is no wake signal, so the shared
            // spin-then-yield strategy applies.
            active.store(false, Release);
            let mut waiter = crate::wait::Waiter::new(crate::wait::WaitStrategy::spinning());
            while self.pending.load(Acquire) {
                waiter.pause();
            }
        }
    }

    /// Leave the arena as `role` (before parking, on drop, or when backing
    /// off for a resize). Release: orders all our ring accesses before the
    /// flag drop the resizer acquires.
    #[inline]
    pub fn exit(&self, role: Role) {
        self.active(role).store(false, Release);
    }

    /// Resizer side: raise `pending` and wait until both endpoints have left
    /// the arena. On return the resizer has exclusive access to the ring
    /// storage (endpoints' Release flag-drops acquired) until
    /// [`end_resize`](Self::end_resize).
    ///
    /// Must not be called concurrently with itself — resizer-vs-resizer
    /// exclusion is the caller's job (the FIFO keeps a lock for that; it is
    /// simply no longer on the endpoint hot path).
    pub fn begin_resize(&self) {
        // Dekker: SeqCst RMW orders the `pending` write before the `active`
        // loads below in the SC total order. The SeqCst loads also acquire
        // the endpoints' Release flag-drops, ordering their last ring access
        // before our mutation.
        self.pending.swap(true, SeqCst);
        let mut waiter = crate::wait::Waiter::new(crate::wait::WaitStrategy::spinning());
        while self.producer_active.load(SeqCst) {
            waiter.pause();
        }
        waiter.reset();
        while self.consumer_active.load(SeqCst) {
            waiter.pause();
        }
    }

    /// Resizer side: publish the mutated storage (Release) and let endpoints
    /// re-enter.
    pub fn end_resize(&self) {
        self.pending.store(false, Release);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_toggle_active() {
        let f = ResizeFence::new();
        f.enter(Role::Producer);
        assert!(f.producer_active.load(Relaxed));
        assert!(!f.consumer_active.load(Relaxed));
        f.exit(Role::Producer);
        assert!(!f.producer_active.load(Relaxed));
    }

    #[test]
    fn begin_resize_blocks_entry_until_end() {
        let f = std::sync::Arc::new(ResizeFence::new());
        f.begin_resize();
        assert!(f.resize_pending());
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            // blocks until end_resize, then enters
            f2.enter(Role::Consumer);
            f2.exit(Role::Consumer);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!f.consumer_active.load(Relaxed));
        f.end_resize();
        t.join().unwrap();
        assert!(!f.resize_pending());
    }

    #[test]
    fn begin_resize_waits_for_occupants() {
        let f = std::sync::Arc::new(ResizeFence::new());
        f.enter(Role::Producer);
        let f2 = f.clone();
        let t = std::thread::spawn(move || {
            f2.begin_resize();
            f2.end_resize();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // resizer is stuck on our raised flag
        assert!(f.resize_pending());
        f.exit(Role::Producer);
        t.join().unwrap();
    }
}
