//! Lock-free resize exclusion: an asymmetric Dekker membership fence.
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
//!   entry to a ring critical section (a plain store on a line nobody else
//!   writes), checks `pending`, and drops it with a plain Release store on
//!   exit. Batch operations ([`WriteSlice`], `pop_slice`) hold one
//!   membership across the whole batch, and fixed-capacity FIFOs skip the
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
//! endpoint:  active = true;   light barrier;  load pending (Acquire)
//! resizer:   pending = true;  heavy barrier;  load active  (Acquire)
//! ```
//!
//! Each side needs its store ordered before its load, or both stores could
//! sit in store buffers while both loads read stale values, and an endpoint
//! would stream into a ring that is mid-`memcpy`. Endpoints enter millions
//! of times per resize, so the barrier pair is asymmetric
//! (`crate::sync::Barriers`): where the process registered for
//! `membarrier(2)`, the endpoint's light barrier is only a compiler
//! barrier, and the resizer's heavy barrier is one
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` call, which runs a full
//! barrier on every CPU running one of this process's threads before it
//! returns.
//!
//! Why one side always sees the other: the heavy barrier lands on the
//! endpoint's thread at some point of its program (a thread that is not
//! running was ordered by its context switch). If that point precedes the
//! endpoint's `active` store, the resizer's `pending` store is visible to
//! every later load of the endpoint, which therefore backs out. If it
//! follows the store, the store is visible before `membarrier` returns, so
//! the resizer's `active` load sees it (or the Release drop that ends the
//! membership) and waits. Both may "lose" (endpoint backs out *and* the
//! resizer waits one extra round) — that is safe, just one wasted retry.
//! The compiler barrier keeps the store and the load in program order, which
//! is all the argument asks of the endpoint. Under loom or miri, off Linux
//! x86_64, or where registration fails, both barriers are `fence(SeqCst)`:
//! the two fences are totally ordered, and the load after the later one
//! sees the store before the earlier one — the same guarantee, the
//! symmetric protocol `tests/loom_fence.rs` model-checks.
//!
//! Publication of the resized storage itself rides on the flag edges: the
//! endpoint's `active = false` is a Release store (its last ring access
//! happens-before it), the resizer's load of `active` is Acquire; after the
//! resize, the resizer's `pending = false` Release pairs with the endpoint's
//! Acquire re-check, so the new slot array is fully visible on re-entry.
//!
//! The fence is built on `crate::sync`, so `--cfg loom` model-checks the
//! protocol (see `tests/loom_fence.rs`).

use crate::sync::{
    AtomicBool, Barriers, CachePadded,
    Ordering::{Acquire, Relaxed, Release},
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
    /// Raised by the resizer before it waits out the endpoints; loaded once
    /// per entry.
    pending: AtomicBool,
    /// The barrier pair, chosen once at construction: endpoints branch on
    /// it at every entry, so it sits beside `pending` rather than behind a
    /// process-global.
    barriers: Barriers,
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
    /// The first fence of a process registers it for `membarrier(2)`.
    pub fn new() -> Self {
        ResizeFence {
            pending: AtomicBool::new(false),
            barriers: Barriers::new(),
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

    /// Enter the arena as `role`, waiting out any pending resize.
    ///
    /// On return the endpoint's `active` flag is raised, no resize is in
    /// progress, and any storage mutation by a previous resize is visible
    /// (Acquire on the `pending` re-check pairs with the resizer's Release
    /// in [`end_resize`](Self::end_resize)).
    ///
    /// Deliberately not `#[inline]`: inlined into every endpoint operation,
    /// it bloated the fixed-capacity paths that never take it, and a
    /// cross-thread `push`/`pop` on a fixed ring ran up to 3× slower.
    pub fn enter(&self, role: Role) {
        let active = self.active(role);
        loop {
            // Dekker, light side: the barrier orders our `active` store
            // before the `pending` load, so this load and the resizer's
            // `active` load can't both miss (see module docs).
            active.store(true, Relaxed);
            self.barriers.light_barrier();
            if !self.pending.load(Acquire) {
                return;
            }
            self.back_off(active);
        }
    }

    /// Resize in flight — leave and wait for it to finish. Resizes are short
    /// (one copy) and there is no wake signal, so the shared
    /// spin-then-yield strategy applies.
    #[cold]
    fn back_off(&self, active: &AtomicBool) {
        active.store(false, Release);
        let mut waiter = crate::wait::Waiter::new(crate::wait::WaitStrategy::Spinning);
        while self.pending.load(Acquire) {
            waiter.pause();
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
        // Dekker, heavy side: the barrier orders the `pending` store before
        // the `active` loads below. The Acquire loads also synchronize with
        // the endpoints' Release flag drops, ordering their last ring
        // access before our mutation.
        self.pending.store(true, Relaxed);
        self.barriers.heavy_barrier();
        let mut waiter = crate::wait::Waiter::new(crate::wait::WaitStrategy::Spinning);
        while self.producer_active.load(Acquire) {
            waiter.pause();
        }
        waiter.reset();
        while self.consumer_active.load(Acquire) {
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
        assert!(f.pending.load(Relaxed));
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
        assert!(!f.pending.load(Relaxed));
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
        assert!(f.pending.load(Relaxed));
        f.exit(Role::Producer);
        t.join().unwrap();
    }

    /// The asymmetric pair is what makes entry cheap: where the platform
    /// has it, a fence must not silently fall back to the symmetric one.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn new_fence_uses_membarrier_on_linux_x86_64() {
        assert!(
            ResizeFence::new().barriers.asymmetric(),
            "membarrier registration failed: entry fell back to fence(SeqCst)"
        );
    }

    /// Two endpoint threads and a resizer hammer the fence, each doing a
    /// non-atomic read-modify-write of state the fence guards: the
    /// endpoints each their own word (as the ring's head/tail protocol
    /// keeps them apart), the resizer both. An overlap of a resize with an
    /// endpoint's critical section loses an update, which the final counts
    /// expose. Run it in release too: only there are the loads and stores
    /// free to reorder as the barriers allow.
    #[test]
    fn stress_endpoint_updates_survive_concurrent_resizes() {
        use std::cell::UnsafeCell;
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        const ENTRIES: u64 = 1_000_000;
        const RESIZES: u64 = 1_000;
        /// What one resize adds to each word.
        const RESIZE_STEP: u64 = 1 << 32;

        struct Guarded {
            fence: ResizeFence,
            words: [UnsafeCell<u64>; 2],
            resizes: AtomicU64,
        }
        // SAFETY: `words[i]` is accessed only by endpoint `i` inside its
        // membership or by the resizer between `begin_resize` and
        // `end_resize`, which is the exclusion under test.
        unsafe impl Sync for Guarded {}

        /// A read-modify-write split into a volatile load and store, so
        /// the compiler keeps both and an overlapping writer loses one.
        fn bump(word: &UnsafeCell<u64>, by: u64) {
            // SAFETY: the caller holds the exclusion the test is about;
            // the pointer is the cell's own and valid.
            unsafe {
                let v = std::ptr::read_volatile(word.get());
                std::ptr::write_volatile(word.get(), v + by);
            }
        }

        let g = Arc::new(Guarded {
            fence: ResizeFence::new(),
            words: [UnsafeCell::new(0), UnsafeCell::new(0)],
            resizes: AtomicU64::new(0),
        });
        let endpoints: Vec<_> = [Role::Producer, Role::Consumer]
            .into_iter()
            .enumerate()
            .map(|(i, role)| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut entries = 0;
                    while entries < ENTRIES || g.resizes.load(Relaxed) < RESIZES {
                        g.fence.enter(role);
                        bump(&g.words[i], 1);
                        g.fence.exit(role);
                        entries += 1;
                        if entries % 4096 == 0 {
                            // Three busy threads on a small host would
                            // otherwise starve timing-sensitive tests
                            // running beside this one.
                            std::thread::yield_now();
                        }
                    }
                    entries
                })
            })
            .collect();
        let mut resizes = 0;
        while resizes < RESIZES || !endpoints.iter().all(|t| t.is_finished()) {
            g.fence.begin_resize();
            bump(&g.words[0], RESIZE_STEP);
            bump(&g.words[1], RESIZE_STEP);
            g.fence.end_resize();
            resizes += 1;
            g.resizes.store(resizes, Relaxed);
            std::thread::yield_now();
        }
        for (i, t) in endpoints.into_iter().enumerate() {
            let entries = t.join().unwrap();
            g.fence.enter(Role::Consumer);
            // SAFETY: both endpoint threads have been joined.
            let word = unsafe { *g.words[i].get() };
            g.fence.exit(Role::Consumer);
            assert_eq!(
                (word >> 32, word & (RESIZE_STEP - 1)),
                (resizes, entries),
                "word {i}: a resize overlapped an endpoint's critical section"
            );
        }
    }
}
