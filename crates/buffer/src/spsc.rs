//! Fixed-capacity, lock-free SPSC ring buffer.
//!
//! [`BoundedSpsc`] is the ring protocol of [`crate::ring`] over its fixed
//! heap backing ([`HeapRing`]) plus the two things a queue needs beyond a
//! ring: a closed flag per side, and blocking `push`/`pop` that spin and
//! yield (there is no wake signal to park on). The common-case push or pop
//! is one Relaxed load (the closed flag), the slot access, and one Release
//! store.
//!
//! It is used directly for the FIFO ablation bench and is the differential
//! reference `tests/proptest_fifo.rs` holds [`crate::fifo::Fifo`] against.
//! All atomics and cells come from `crate::sync`, so `--cfg loom` model-
//! checks every permitted interleaving (`tests/loom_ring.rs`).

use crate::error::{PopError, PushError, TryPopError, TryPushError};
use crate::ring::{Backing, ConsumerCursor, HeapRing, ProducerCursor};
use crate::signal::Signal;
use crate::sync::{
    Arc, AtomicBool,
    Ordering::{Acquire, Relaxed, Release},
};
use crate::wait::{WaitStrategy, Waiter};

/// Shared state of a fixed-capacity SPSC queue: the ring, and the closed
/// flags on a line of their own (they are written once per endpoint
/// lifetime).
struct Core<T> {
    ring: HeapRing<(T, Signal)>,
    /// Producer is gone (stream closed).
    producer_closed: AtomicBool,
    /// Consumer is gone (pushes are pointless).
    consumer_closed: AtomicBool,
}

/// A fixed-capacity lock-free SPSC queue, split into producer and consumer
/// halves by [`BoundedSpsc::new`].
pub struct BoundedSpsc<T>(std::marker::PhantomData<T>);

impl<T: Send> BoundedSpsc<T> {
    /// Create a ring with at least `capacity` slots (rounded up to a power of
    /// two) and return the two endpoint handles.
    #[allow(clippy::new_ret_no_self)] // intentionally a factory of the two halves
    pub fn new(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
        let core = Arc::new(Core {
            ring: HeapRing::with_capacity(capacity),
            producer_closed: AtomicBool::new(false),
            consumer_closed: AtomicBool::new(false),
        });
        // SAFETY: the only two cursors this ring will ever have; each lives
        // in a non-Clone handle that keeps the ring it came from.
        let (tx, rx) = unsafe {
            (
                ProducerCursor::attach(&core.ring),
                ConsumerCursor::attach(&core.ring),
            )
        };
        (
            SpscProducer {
                core: core.clone(),
                cursor: tx,
            },
            SpscConsumer { core, cursor: rx },
        )
    }
}

/// Producing half of a [`BoundedSpsc`]. `Send` (the handle owns the producer
/// role exclusively, so moving it only moves which thread plays producer)
/// but not `Clone`.
pub struct SpscProducer<T> {
    core: Arc<Core<T>>,
    cursor: ProducerCursor,
}

/// Consuming half of a [`BoundedSpsc`]. `Send` but not `Clone`.
pub struct SpscConsumer<T> {
    core: Arc<Core<T>>,
    cursor: ConsumerCursor,
}

impl<T: Send> SpscProducer<T> {
    /// Attempt to enqueue without blocking.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), TryPushError<T>> {
        self.try_push_signal(value, Signal::None)
    }

    /// Attempt to enqueue an element with a synchronous signal.
    #[inline]
    pub fn try_push_signal(&mut self, value: T, signal: Signal) -> Result<(), TryPushError<T>> {
        if self.core.consumer_closed.load(Relaxed) {
            return Err(TryPushError::Closed(value));
        }
        self.cursor
            .push(&self.core.ring, (value, signal))
            .map_err(|(value, _)| TryPushError::Full(value))
    }

    /// Spin until the element fits or the consumer disconnects.
    pub fn push(&mut self, mut value: T) -> Result<(), PushError<T>> {
        // Spin-then-yield: the SPSC ring has no parking primitive, so the
        // shared wait strategy never asks us to park (and under loom every
        // step degrades to a model-checker yield).
        let mut waiter = Waiter::new(WaitStrategy::spinning());
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Closed(v)) => return Err(PushError(v)),
                Err(TryPushError::Full(v)) => {
                    value = v;
                    waiter.pause();
                }
            }
        }
    }

    /// Queue capacity in elements.
    pub fn capacity(&self) -> usize {
        self.core.ring.capacity()
    }

    /// Elements currently queued.
    pub fn occupancy(&self) -> usize {
        self.core.ring.occupancy()
    }

    /// `true` once the consumer half has been dropped.
    pub fn is_closed(&self) -> bool {
        self.core.consumer_closed.load(Relaxed)
    }
}

impl<T> Drop for SpscProducer<T> {
    fn drop(&mut self) {
        self.core.producer_closed.store(true, Release);
    }
}

impl<T: Send> SpscConsumer<T> {
    /// Attempt to dequeue without blocking.
    #[inline]
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        self.try_pop_signal().map(|(v, _)| v)
    }

    /// Attempt to dequeue an element together with its signal.
    #[inline]
    pub fn try_pop_signal(&mut self) -> Result<(T, Signal), TryPopError> {
        let core = &*self.core;
        self.cursor
            .try_pop(&core.ring, || core.producer_closed.load(Acquire))
    }

    /// Spin until an element arrives; `Err` once closed *and* drained.
    pub fn pop(&mut self) -> Result<T, PopError> {
        // See `push`: shared spin-then-yield strategy, loom-safe.
        let mut waiter = Waiter::new(WaitStrategy::spinning());
        loop {
            match self.try_pop() {
                Ok(v) => return Ok(v),
                Err(TryPopError::Closed) => return Err(PopError),
                Err(TryPopError::Empty) => waiter.pause(),
            }
        }
    }

    /// Reference to the front element, if any (no copy).
    pub fn peek(&mut self) -> Option<&T> {
        if self.cursor.ready(&self.core.ring) == 0 {
            return None;
        }
        // SAFETY: a ready slot is initialized and inside the live region;
        // the producer cannot reuse it until the consumer releases it, and
        // only the consumer (this handle, borrowed mutably) can do that. The
        // returned reference borrows `self`, so it dies before any `pop` by
        // the same thread. The pointer does not escape the closure — only
        // the derived shared reference, which stays valid because the slot
        // is not moved or mutated while the live region holds it.
        Some(
            self.core
                .ring
                .slot(self.cursor.head(), |p| unsafe { &(*p).assume_init_ref().0 }),
        )
    }

    /// Queue capacity in elements.
    pub fn capacity(&self) -> usize {
        self.core.ring.capacity()
    }

    /// Elements currently queued.
    pub fn occupancy(&self) -> usize {
        self.core.ring.occupancy()
    }

    /// `true` once the producer dropped and the ring drained.
    pub fn is_finished(&self) -> bool {
        self.core.producer_closed.load(Acquire) && self.core.ring.occupancy() == 0
    }
}

impl<T> Drop for SpscConsumer<T> {
    fn drop(&mut self) {
        self.core.consumer_closed.store(true, Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = BoundedSpsc::<u32>::new(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = BoundedSpsc::<u32>::new(8);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = BoundedSpsc::<u32>::new(0);
        assert_eq!(p.capacity(), 1);
    }

    #[test]
    fn push_pop_in_order() {
        let (mut p, mut c) = BoundedSpsc::new(4);
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert!(matches!(p.try_push(9), Err(TryPushError::Full(9))));
        for i in 0..4 {
            assert_eq!(c.try_pop().unwrap(), i);
        }
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn wraps_around() {
        let (mut p, mut c) = BoundedSpsc::new(2);
        for round in 0..100 {
            p.try_push(round * 2).unwrap();
            p.try_push(round * 2 + 1).unwrap();
            assert_eq!(c.try_pop().unwrap(), round * 2);
            assert_eq!(c.try_pop().unwrap(), round * 2 + 1);
        }
    }

    #[test]
    fn close_semantics() {
        let (mut p, mut c) = BoundedSpsc::new(4);
        p.try_push(1).unwrap();
        drop(p);
        assert_eq!(c.try_pop().unwrap(), 1);
        assert_eq!(c.try_pop(), Err(TryPopError::Closed));
        assert!(c.is_finished());
    }

    #[test]
    fn consumer_drop_closes_producer() {
        let (mut p, c) = BoundedSpsc::new(4);
        drop(c);
        assert!(p.is_closed());
        assert!(matches!(p.try_push(1), Err(TryPushError::Closed(1))));
    }

    #[test]
    fn signals_ride_with_elements() {
        let (mut p, mut c) = BoundedSpsc::new(4);
        p.try_push_signal(7u8, Signal::EoS).unwrap();
        assert_eq!(c.try_pop_signal().unwrap(), (7, Signal::EoS));
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut p, mut c) = BoundedSpsc::new(4);
        p.try_push(42).unwrap();
        assert_eq!(c.peek(), Some(&42));
        assert_eq!(c.peek(), Some(&42));
        assert_eq!(c.try_pop().unwrap(), 42);
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn drops_remaining_elements() {
        // Use a type with a drop counter to verify no leaks.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (mut p, c) = BoundedSpsc::new(8);
        for _ in 0..5 {
            p.try_push(D).unwrap();
        }
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut p, mut c) = BoundedSpsc::new(16);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(i).unwrap();
            }
        });
        let mut expected = 0;
        while let Ok(v) = c.pop() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
    }

    #[test]
    fn cached_indices_stay_conservative() {
        // Fill, drain on the consumer side, then verify the producer's
        // stale head_cache only causes a refresh — never a lost slot.
        let (mut p, mut c) = BoundedSpsc::new(2);
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        // producer believes the ring is full; consumer frees both slots
        assert_eq!(c.try_pop().unwrap(), 1);
        assert_eq!(c.try_pop().unwrap(), 2);
        // the next push must refresh head_cache and succeed
        p.try_push(3).unwrap();
        p.try_push(4).unwrap();
        assert!(matches!(p.try_push(5), Err(TryPushError::Full(5))));
        assert_eq!(c.try_pop().unwrap(), 3);
        assert_eq!(c.try_pop().unwrap(), 4);
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    }
}
