//! The one SPSC ring protocol every stream in this crate speaks.
//!
//! A stream is a FIFO whose only variable is *where its slots live* (paper
//! §3–§4). So the protocol is written once, against a [`Backing`] that
//! answers only "where are `head`, `tail` and slot *i*", and the endpoint
//! families are thin wrappers: [`crate::spsc::BoundedSpsc`] (fixed heap
//! array), [`crate::fifo::Fifo`] (heap array swappable behind the
//! [`crate::fence::ResizeFence`]), [`crate::shm::ShmRing`] and the
//! [`crate::arena`] free list (a mapped segment).
//!
//! `head` (next read) and `tail` (next write) are monotonically increasing
//! counters compared with wrapping subtraction; slot *i* is `i` masked by
//! `capacity - 1`. Each side owns a cursor holding an **exact mirror of its
//! own counter** and a **stale, conservative cache of the opposite one**
//! (FastForward), so the common push or pop never loads a shared counter:
//!
//! * [`ProducerCursor::claim`] refreshes its `head` cache (**Acquire**) only
//!   when the ring looks too full; it pairs with the **Release** store in
//!   [`ConsumerCursor::release`], ordering the consumer's read-out of a
//!   slot before the producer's reuse of it.
//! * [`ConsumerCursor::ready`] refreshes its `tail` cache (**Acquire**) only
//!   when the ring looks empty; it pairs with the **Release** store in
//!   [`ProducerCursor::publish`], making slot contents visible before the
//!   consumer reads them.
//!
//! A cache *behind* the true counter can only cause a spurious refresh,
//! never a protocol violation. Built on `crate::sync`, so `--cfg loom`
//! checks the very code the endpoints run (`tests/loom_ring.rs`, over the
//! heap backing and a loom-typed stand-in for a segment).

use std::mem::MaybeUninit;

use crate::error::TryPopError;
use crate::sync::{
    AtomicUsize, CachePadded,
    Ordering::{self, Acquire, Release},
    UnsafeCell,
};

/// A shared monotonic counter, wherever it lives: an `AtomicUsize` in this
/// process (loom's under `--cfg loom`) or an `AtomicU64` word of a segment.
pub trait Counter {
    /// Load the counter.
    fn load(&self, order: Ordering) -> usize;
    /// Store the counter.
    fn store(&self, value: usize, order: Ordering);
}

impl Counter for AtomicUsize {
    #[inline]
    fn load(&self, order: Ordering) -> usize {
        Self::load(self, order)
    }
    #[inline]
    fn store(&self, value: usize, order: Ordering) {
        Self::store(self, value, order);
    }
}

impl Counter for std::sync::atomic::AtomicU64 {
    #[inline]
    fn load(&self, order: Ordering) -> usize {
        Self::load(self, order) as usize
    }
    #[inline]
    fn store(&self, value: usize, order: Ordering) {
        Self::store(self, value as u64, order);
    }
}

/// Where a ring's two counters live.
pub trait Counters {
    /// The counter word type.
    type Counter: Counter;
    /// Next index to read; only the consumer stores it.
    fn head(&self) -> &Self::Counter;
    /// Next index to write; only the producer stores it.
    fn tail(&self) -> &Self::Counter;
}

/// Where a ring's slots live.
///
/// # Safety
/// The cursors dereference what `slot` hands out. An implementation must
/// return the same two counters from `head`/`tail` on every call, make
/// `capacity` a constant power of two for as long as a cursor may use the
/// backing, and `slot` must pass a pointer that is valid for reads and
/// writes of one `Item` for the duration of the call, the same memory for
/// equal `idx & (capacity - 1)` and disjoint memory otherwise.
pub unsafe trait Backing: Counters {
    /// What one slot holds.
    type Item;
    /// Slot count; a power of two.
    fn capacity(&self) -> usize;
    /// Run `f` on the slot for monotonic index `idx` (masked by the
    /// backing); whether it may be read or written is the cursors' business.
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<Self::Item>) -> R) -> R;
}

/// The fixed heap backing ([`crate::BoundedSpsc`] wraps it): a boxed
/// power-of-two slot array with `head` and `tail` on separate cache lines,
/// so one side's stores never invalidate the line the other spins on. The cells are `crate::sync` cells: loom checks every slot access.
pub struct HeapRing<I> {
    slots: Box<[UnsafeCell<MaybeUninit<I>>]>,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: a slot is only ever touched through the cursor protocol: written
// strictly before the Release store of `tail` that publishes it, read
// strictly after an Acquire load observes that store. Every slot access is
// ordered by that pair, so the ring may move to or be shared with another
// thread whenever the items themselves may (`I: Send`).
unsafe impl<I: Send> Send for HeapRing<I> {}
// SAFETY: see the `Send` justification above.
unsafe impl<I: Send> Sync for HeapRing<I> {}

impl<I> HeapRing<I> {
    /// An empty ring of `capacity` slots, rounded up to a power of two.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        HeapRing {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Elements currently queued (telemetry: the two loads are not one
    /// snapshot; the cursors track their own side exactly).
    pub fn occupancy(&self) -> usize {
        self.tail
            .load(Acquire)
            .saturating_sub(self.head.load(Acquire))
    }
}

impl<I> Counters for HeapRing<I> {
    type Counter = AtomicUsize;
    #[inline]
    fn head(&self) -> &AtomicUsize {
        &self.head
    }
    #[inline]
    fn tail(&self) -> &AtomicUsize {
        &self.tail
    }
}

// SAFETY: the boxed slice never changes length; `slot` indexes it (bounds-
// checked) by the masked index, one cell per slot.
unsafe impl<I> Backing for HeapRing<I> {
    type Item = I;
    #[inline]
    fn capacity(&self) -> usize {
        self.slots.len()
    }
    #[inline]
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<I>) -> R) -> R {
        self.slots[idx & (self.slots.len() - 1)].with_mut(f)
    }
}

impl<I> Drop for HeapRing<I> {
    fn drop(&mut self) {
        // `&mut self`: both endpoint handles are gone, so Relaxed suffices
        // (loom's atomics have no `get_mut`).
        for i in self.head.load(Ordering::Relaxed)..self.tail.load(Ordering::Relaxed) {
            // SAFETY: every index in `[head, tail)` was published and not
            // yet read out, so the slot is initialized; access is exclusive
            // and each slot is visited once.
            self.slot(i, |p| unsafe { (*p).assume_init_drop() });
        }
    }
}

/// The producing side's private state, owned by the one producer handle.
#[derive(Debug)]
pub struct ProducerCursor {
    tail: usize,
    head_cache: usize,
}

impl ProducerCursor {
    /// A cursor resuming at the ring's current counters (the surviving
    /// values when re-attaching to a segment).
    ///
    /// # Safety
    /// The single-producer contract is taken on here: at most one
    /// `ProducerCursor` may be in use per ring at a time, and only ever with
    /// the ring it was attached to. The safe methods rely on both.
    pub unsafe fn attach(ring: &impl Counters) -> Self {
        ProducerCursor {
            tail: ring.tail().load(Ordering::Relaxed),
            head_cache: ring.head().load(Ordering::Relaxed),
        }
    }

    /// Next index this producer will write (== elements ever published).
    #[inline]
    pub fn tail(&self) -> usize {
        self.tail
    }

    /// Slots free to write from [`tail`](Self::tail) on, looking past the
    /// cache only if fewer than `want` appear free. `0`: full at refresh.
    #[inline]
    pub fn claim<B: Backing>(&mut self, ring: &B, want: usize) -> usize {
        let capacity = ring.capacity();
        if self.tail.wrapping_sub(self.head_cache) + want > capacity {
            // The new value is the true head or older, so the room we
            // report stays conservative.
            self.head_cache = ring.head().load(Acquire);
        }
        capacity.saturating_sub(self.tail.wrapping_sub(self.head_cache))
    }

    /// Write `item` into claimed slot `tail + offset` without publishing it.
    ///
    /// # Safety
    /// `offset` must be below the last [`claim`](Self::claim) result and the
    /// slot must not already hold an unpublished item.
    #[inline]
    pub unsafe fn write<B: Backing>(&self, ring: &B, offset: usize, item: B::Item) {
        ring.slot(self.tail + offset, |p| {
            // SAFETY: the slot is outside the live region `[head, tail)`
            // (claimed against a head cache that never runs ahead of the
            // true head), so the consumer does not touch it until `publish`;
            // no other producer exists (`attach`).
            unsafe { (*p).write(item) };
        });
    }

    /// Publish the `n` slots written since the last publish: one **Release**
    /// store of `tail`, whatever `n`.
    #[inline]
    pub fn publish(&mut self, ring: &impl Counters, n: usize) {
        self.tail += n;
        ring.tail().store(self.tail, Release);
    }

    /// Push one item, handing it back when the ring is full.
    #[inline]
    pub fn push<B: Backing>(&mut self, ring: &B, item: B::Item) -> Result<(), B::Item> {
        if self.claim(ring, 1) == 0 {
            return Err(item);
        }
        // SAFETY: one slot claimed above; nothing unpublished is pending.
        unsafe { self.write(ring, 0, item) };
        self.publish(ring, 1);
        Ok(())
    }

    /// Push as many of `want` items as fit, published together. `items` is
    /// told how many that is and yields exactly those. Returns the count.
    #[inline]
    pub fn push_some<B: Backing, I: Iterator<Item = B::Item>>(
        &mut self,
        ring: &B,
        want: usize,
        items: impl FnOnce(usize) -> I,
    ) -> usize {
        let room = self.claim(ring, want).min(want);
        let mut n = 0;
        for item in items(room).take(room) {
            // SAFETY: `n < room` slots claimed; slot `n` not yet written.
            unsafe { self.write(ring, n, item) };
            n += 1;
        }
        if n > 0 {
            self.publish(ring, n);
        }
        n
    }
}

/// The consuming side's private state, owned by the one consumer handle.
#[derive(Debug)]
pub struct ConsumerCursor {
    head: usize,
    tail_cache: usize,
}

impl ConsumerCursor {
    /// A cursor resuming at the ring's current counters.
    ///
    /// # Safety
    /// The single-consumer twin of [`ProducerCursor::attach`]: at most one
    /// `ConsumerCursor` in use per ring, used only with that ring.
    pub unsafe fn attach(ring: &impl Counters) -> Self {
        ConsumerCursor {
            head: ring.head().load(Ordering::Relaxed),
            tail_cache: ring.tail().load(Ordering::Relaxed),
        }
    }

    /// Next index this consumer will read (== elements ever released, plus
    /// any [`held`](Self::held)).
    #[inline]
    pub fn head(&self) -> usize {
        self.head
    }

    /// Elements ready to read, looking past the cache only if none are.
    /// `0` means empty at refresh time.
    #[inline]
    pub fn ready(&mut self, ring: &impl Counters) -> usize {
        if self.head == self.tail_cache {
            // tail only grows: the refreshed value can only reveal more.
            self.tail_cache = ring.tail().load(Acquire);
        }
        self.tail_cache.wrapping_sub(self.head)
    }

    /// [`ready`](Self::ready) after an unconditional reload of `tail` — for
    /// callers that want the largest batch, not just a non-empty one.
    #[inline]
    pub fn refresh(&mut self, ring: &impl Counters) -> usize {
        self.tail_cache = self.head;
        self.ready(ring)
    }

    /// [`ready`](Self::ready) with the closed double-check: `Closed` only
    /// once `producer_closed` (an Acquire read of the flag) holds *and* a
    /// later reload of `tail` still shows nothing — the producer may have
    /// pushed between our tail load and its close.
    #[inline]
    pub fn poll(
        &mut self,
        ring: &impl Counters,
        producer_closed: impl FnOnce() -> bool,
    ) -> Result<usize, TryPopError> {
        match self.ready(ring) {
            0 if !producer_closed() => Err(TryPopError::Empty),
            0 => match self.refresh(ring) {
                0 => Err(TryPopError::Closed),
                n => Ok(n),
            },
            n => Ok(n),
        }
    }

    /// Move the item out of ready slot `head + offset` without releasing it.
    ///
    /// # Safety
    /// `offset` must be below the last [`ready`](Self::ready) result, and
    /// each slot may be read out at most once before it is released.
    #[inline]
    pub unsafe fn read<B: Backing>(&self, ring: &B, offset: usize) -> B::Item {
        // SAFETY: `head + offset < tail` was observed through an Acquire
        // load of `tail`, which synchronizes with the Release publish after
        // the producer initialized the slot; it is not written again until
        // `release` frees it, and no other consumer exists (`attach`).
        // Single read-out is the caller's contract.
        ring.slot(self.head + offset, |p| unsafe { (*p).assume_init_read() })
    }

    /// Hand the first `n` ready slots back to the producer, with every
    /// [`held`](Self::held) one before them: one **Release** store of
    /// `head`, whatever `n`.
    #[inline]
    pub fn release(&mut self, ring: &impl Counters, n: usize) {
        self.head += n;
        ring.head().store(self.head, Release);
    }

    /// Read past the first `n` ready slots without handing them back: they
    /// stay in the ring, initialized and out of the producer's reach, until
    /// a [`release`](Self::release) frees them or [`unhold`](Self::unhold)
    /// makes them ready again.
    #[inline]
    pub fn hold(&mut self, n: usize) {
        self.head += n;
    }

    /// Slots read past and not yet released: this cursor's `head` minus the
    /// ring's, which only this consumer stores (a Relaxed load reads its
    /// own last store).
    #[inline]
    pub fn held(&self, ring: &impl Counters) -> usize {
        self.head.wrapping_sub(ring.head().load(Ordering::Relaxed))
    }

    /// Step back over the held slots, so they are read again; returns how
    /// many.
    #[inline]
    pub fn unhold(&mut self, ring: &impl Counters) -> usize {
        let held = self.held(ring);
        self.head = self.head.wrapping_sub(held);
        held
    }

    /// Pop one item, if any is ready.
    #[inline]
    pub fn pop<B: Backing>(&mut self, ring: &B) -> Option<B::Item> {
        self.try_pop(ring, || false).ok()
    }

    /// Pop one item through the closed double-check of [`poll`](Self::poll).
    #[inline]
    pub fn try_pop<B: Backing>(
        &mut self,
        ring: &B,
        producer_closed: impl FnOnce() -> bool,
    ) -> Result<B::Item, TryPopError> {
        self.poll(ring, producer_closed)?;
        // SAFETY: at least one element is ready; it is released right away.
        let item = unsafe { self.read(ring, 0) };
        self.release(ring, 1);
        Ok(item)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Counters that count their own loads, under cursors placed anywhere.
    #[derive(Default)]
    struct Probe {
        head: AtomicUsize,
        tail: AtomicUsize,
        loads: std::cell::Cell<u32>,
    }

    impl Counters for Probe {
        type Counter = AtomicUsize;
        fn head(&self) -> &AtomicUsize {
            self.loads.set(self.loads.get() + 1);
            &self.head
        }
        fn tail(&self) -> &AtomicUsize {
            self.loads.set(self.loads.get() + 1);
            &self.tail
        }
    }

    // SAFETY: never hands out a pointer.
    unsafe impl Backing for Probe {
        type Item = u8;
        fn capacity(&self) -> usize {
            8
        }
        fn slot<R>(&self, _: usize, _: impl FnOnce(*mut MaybeUninit<u8>) -> R) -> R {
            unreachable!("index arithmetic only")
        }
    }

    fn probe(head: usize, tail: usize) -> Probe {
        let p = Probe::default();
        p.head.store(head, Ordering::Relaxed);
        p.tail.store(tail, Ordering::Relaxed);
        p
    }

    #[test]
    fn producer_skips_refresh_when_cache_shows_room() {
        let ring = probe(3, 0);
        let mut p = ProducerCursor {
            tail: 3,
            head_cache: 0,
        };
        assert_eq!(p.claim(&ring, 1), 5);
        assert_eq!(
            ring.loads.get(),
            0,
            "cache showed room; no shared load needed"
        );
    }

    #[test]
    fn producer_refreshes_on_apparent_full() {
        // tail=8, cache says head=0 → looks full for capacity 8; the
        // refresh reveals the consumer advanced to 5.
        let mut p = ProducerCursor {
            tail: 8,
            head_cache: 0,
        };
        assert_eq!(p.claim(&probe(5, 8), 1), 5);
        assert_eq!(p.head_cache, 5);
        // Still full after refresh → zero room.
        let mut p = ProducerCursor {
            tail: 8,
            head_cache: 0,
        };
        assert_eq!(p.claim(&probe(0, 8), 1), 0);
    }

    #[test]
    fn producer_batch_want_triggers_refresh() {
        // Room for 2 through the cache, but the batch wants 4.
        let mut p = ProducerCursor {
            tail: 6,
            head_cache: 0,
        };
        assert_eq!(p.claim(&probe(4, 6), 4), 6);
    }

    #[test]
    fn consumer_skips_refresh_when_cache_shows_data() {
        let ring = probe(4, 7);
        let mut c = ConsumerCursor {
            head: 4,
            tail_cache: 7,
        };
        assert_eq!(c.ready(&ring), 3);
        assert_eq!(ring.loads.get(), 0);
    }

    #[test]
    fn consumer_refreshes_on_apparent_empty() {
        let mut c = ConsumerCursor {
            head: 4,
            tail_cache: 4,
        };
        assert_eq!(c.ready(&probe(4, 9)), 5);
        assert_eq!(c.tail_cache, 9);
        let mut c = ConsumerCursor {
            head: 4,
            tail_cache: 4,
        };
        assert_eq!(c.ready(&probe(4, 4)), 0);
    }

    #[test]
    fn counters_wrap_safely() {
        // Counters are monotonically increasing usize values that may wrap;
        // the arithmetic must survive the wraparound point.
        let ring = probe(0, 0);
        let mut p = ProducerCursor {
            tail: usize::MAX,
            head_cache: usize::MAX - 2,
        };
        assert_eq!(p.claim(&ring, 1), 6);
        let mut c = ConsumerCursor {
            head: usize::MAX - 3,
            tail_cache: usize::MAX,
        };
        assert_eq!(c.ready(&ring), 3);
        assert_eq!(ring.loads.get(), 0);
    }

    #[test]
    fn ring_cursors_batch_and_poll_over_the_heap_backing() {
        // The cursors driven directly, the way every endpoint family does.
        let ring = &HeapRing::<u32>::with_capacity(4);
        // SAFETY: the only cursors on this ring, used with it alone.
        let (mut pc, mut cc) =
            unsafe { (ProducerCursor::attach(ring), ConsumerCursor::attach(ring)) };
        let mut items: Vec<u32> = (0..6).collect();
        let pushed = pc.push_some(ring, 6, |n| items.drain(..n));
        assert_eq!(
            (pushed, items.as_slice()),
            (4, &[4, 5][..]),
            "only what fits"
        );
        assert_eq!(pc.push(ring, 9), Err(9));
        assert_eq!(cc.poll(ring, || false), Ok(4));
        // SAFETY: 3 of the 4 ready slots, each read out once, then released.
        let got: Vec<u32> = (0..3).map(|i| unsafe { cc.read(ring, i) }).collect();
        cc.release(ring, 3);
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!((cc.pop(ring), cc.pop(ring)), (Some(3), None));
        assert_eq!(cc.poll(ring, || false), Err(TryPopError::Empty));
        assert_eq!(cc.poll(ring, || true), Err(TryPopError::Closed));
        assert_eq!((pc.tail(), cc.head(), ring.occupancy()), (4, 4, 0));
    }

    #[test]
    fn held_slots_stay_out_of_the_producers_reach_until_released() {
        let ring = &HeapRing::<u32>::with_capacity(4);
        // SAFETY: the only cursors on this ring, used with it alone.
        let (mut pc, mut cc) =
            unsafe { (ProducerCursor::attach(ring), ConsumerCursor::attach(ring)) };
        assert_eq!(pc.push_some(ring, 4, |n| 0..n as u32), 4);
        assert_eq!(cc.ready(ring), 4);
        cc.hold(2);
        assert_eq!(
            (cc.held(ring), cc.ready(ring), pc.claim(ring, 1)),
            (2, 2, 0)
        );
        assert_eq!(cc.unhold(ring), 2);
        assert_eq!((cc.head(), cc.ready(ring)), (0, 4), "held slots read again");
        cc.hold(2);
        cc.release(ring, 0);
        assert_eq!((cc.held(ring), pc.claim(ring, 1)), (0, 2));
        assert_eq!((cc.pop(ring), ring.occupancy()), (Some(2), 1));
    }
}
