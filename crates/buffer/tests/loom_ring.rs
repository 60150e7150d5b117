//! Loom model checks for the one SPSC ring protocol ([`raft_buffer::ring`]),
//! run over every kind of backing it has.
//!
//! These tests only compile and run under the loom cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p raft-buffer --test loom_ring --release
//! ```
//!
//! The cursors are written against `raft_buffer`'s `sync` shim, so under
//! `--cfg loom` the code modelled here *is* the code `BoundedSpsc`, `Fifo`,
//! `ShmRing` and the arena free list run — there is no hand copy to drift.
//! What differs between those families is only the [`Backing`], so each
//! cursor-level model is a generic function instantiated twice:
//!
//! * over [`HeapRing`] — the fixed heap backing, cache-padded counters,
//!   exactly what `BoundedSpsc` wraps;
//! * over [`SegWords`] — a loom-typed stand-in for a mapped segment. The
//!   real `ShmSegment`'s words are `std` atomics at fixed offsets of an
//!   `mmap`, which loom cannot instrument; `SegWords` lays the same words
//!   out (`OFF_HEAD`, `OFF_TAIL`, `OFF_PRODUCER_CLOSED`, an unpadded slot
//!   array standing in for the data region) in loom types and implements
//!   the same two traits `SegRing` does.
//!
//! Each `loom::model` body is executed once per interleaving the C11 memory
//! model allows for its threads, so models are kept tiny (capacity 1-2, 2-3
//! operations) — enough to cover every acquire/release pair in the head/tail
//! protocol, the close/drain double-check, slot reuse on wraparound, and the
//! held slots a journaled consumer releases late.
//! The endpoint-level models at the bottom add what `BoundedSpsc` owns on
//! top of the ring: closed flags driven by handle drops.
#![cfg(loom)]

use std::mem::MaybeUninit;

use loom::cell::UnsafeCell;
use loom::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Acquire, Ordering::Release};
use loom::sync::Arc;
use loom::thread;
use raft_buffer::ring::{Backing, ConsumerCursor, Counters, HeapRing, ProducerCursor};
use raft_buffer::{BoundedSpsc, Signal, TryPopError, TryPushError};

/// A segment's ring words and data region, in loom types.
struct SegWords {
    /// `OFF_HEAD`.
    head: AtomicUsize,
    /// `OFF_TAIL`.
    tail: AtomicUsize,
    /// The data region: `capacity` slots of one element each.
    slots: Box<[UnsafeCell<MaybeUninit<u64>>]>,
}

// SAFETY: the slot array is raced on by design — exactly one producer and
// one consumer, serialized per-slot by the head/tail protocol under test.
// Loom's instrumented UnsafeCell turns any protocol hole into a model
// failure instead of silent UB.
unsafe impl Send for SegWords {}
// SAFETY: see Send.
unsafe impl Sync for SegWords {}

impl Counters for SegWords {
    type Counter = AtomicUsize;
    fn head(&self) -> &AtomicUsize {
        &self.head
    }
    fn tail(&self) -> &AtomicUsize {
        &self.tail
    }
}

// SAFETY: a fixed boxed slice indexed by the masked index.
unsafe impl Backing for SegWords {
    type Item = u64;
    fn capacity(&self) -> usize {
        self.slots.len()
    }
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<u64>) -> R) -> R {
        self.slots[idx & (self.slots.len() - 1)].with_mut(f)
    }
}

/// A way to make a ring of `u64`s under the model.
trait Model: Backing<Item = u64> + Send + Sync + 'static {
    fn with_capacity(capacity: usize) -> Self;
}

impl Model for HeapRing<u64> {
    fn with_capacity(capacity: usize) -> Self {
        HeapRing::with_capacity(capacity)
    }
}

impl Model for SegWords {
    fn with_capacity(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        SegWords {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }
}

/// A ring plus the producer-closed word every endpoint family keeps beside
/// it (`OFF_PRODUCER_CLOSED` in a segment, an `AtomicBool` on the heap).
struct Link<B> {
    ring: B,
    producer_closed: AtomicU32,
}

fn link<B: Model>(capacity: usize) -> (Arc<Link<B>>, ProducerCursor, ConsumerCursor) {
    let link = Arc::new(Link {
        ring: B::with_capacity(capacity),
        producer_closed: AtomicU32::new(0),
    });
    // SAFETY: the only two cursors this ring gets; each is moved to the one
    // thread playing its role and used with this ring alone.
    let (p, c) = unsafe {
        (
            ProducerCursor::attach(&link.ring),
            ConsumerCursor::attach(&link.ring),
        )
    };
    (link, p, c)
}

/// Pop through the closed double-check, the way every endpoint does.
fn try_pop<B: Model>(link: &Link<B>, c: &mut ConsumerCursor) -> Result<u64, TryPopError> {
    c.try_pop(&link.ring, || link.producer_closed.load(Acquire) == 1)
}

/// Capacity 1 forces every element after the first to reuse a slot while
/// both endpoints run — the cached-index refresh and the slot-reuse
/// ordering (consumer's Release head store before producer's overwrite)
/// are both on the critical path of every interleaving.
fn wraparound_transfer_preserves_order<B: Model>() {
    loom::model(|| {
        let (link, mut p, mut c) = link::<B>(1);
        let producer = {
            let link = link.clone();
            thread::spawn(move || {
                for i in 1..=2u64 {
                    while p.push(&link.ring, i).is_err() {
                        thread::yield_now();
                    }
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match try_pop(&link, &mut c) {
                Ok(v) => got.push(v),
                Err(TryPopError::Empty) => thread::yield_now(),
                Err(TryPopError::Closed) => panic!("nobody closed"),
            }
        }
        assert_eq!(got, vec![1, 2]);
        producer.join().unwrap();
    });
}

/// A batch published with one Release store must arrive whole and in order,
/// whatever prefix of it the consumer's cached tail reveals first; the
/// consumer reads what it sees ready and releases it with one store, the
/// way a FIFO batch read does.
fn batch_publish_is_one_store<B: Model>() {
    loom::model(|| {
        let (link, mut p, mut c) = link::<B>(2);
        let producer = {
            let link = link.clone();
            thread::spawn(move || {
                assert_eq!(p.push_some(&link.ring, 2, |n| (7..9u64).take(n)), 2);
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            let n = c.ready(&link.ring);
            if n == 0 {
                thread::yield_now();
                continue;
            }
            // SAFETY: `n` slots are ready; each is read out once, then the
            // run is released together.
            got.extend((0..n).map(|i| unsafe { c.read(&link.ring, i) }));
            c.release(&link.ring, n);
        }
        assert_eq!(got, vec![7, 8]);
        producer.join().unwrap();
    });
}

/// A push racing the close: the consumer must never observe `Closed` while
/// the pushed element is still in flight (the double-check in `poll`).
fn close_delivers_only_after_drain<B: Model>() {
    loom::model(|| {
        let (link, mut p, mut c) = link::<B>(2);
        let producer = {
            let link = link.clone();
            thread::spawn(move || {
                p.push(&link.ring, 7).unwrap();
                link.producer_closed.store(1, Release);
            })
        };
        let mut got = Vec::new();
        loop {
            match try_pop(&link, &mut c) {
                Ok(v) => got.push(v),
                Err(TryPopError::Empty) => thread::yield_now(),
                Err(TryPopError::Closed) => break,
            }
        }
        assert_eq!(got, vec![7]);
        producer.join().unwrap();
    });
}

/// A journaled consumer's transaction: it reads two elements in place and
/// *holds* their slots, reads them again after stepping back (a rewind),
/// and releases both late (the commit). The producer, pushing a third
/// element into a ring of two, must not write a held slot before that
/// release — loom's cells flag any write racing the in-place reads.
fn held_slots_are_never_overwritten<B: Model>() {
    loom::model(|| {
        let (link, mut p, mut c) = link::<B>(2);
        let producer = {
            let link = link.clone();
            thread::spawn(move || {
                for i in 1..=3u64 {
                    while p.push(&link.ring, i).is_err() {
                        thread::yield_now();
                    }
                }
            })
        };
        // SAFETY: only called on a ready slot, which is read in place
        // (`u64` is `Copy`) and never moved out.
        let at_head = |c: &ConsumerCursor| {
            link.ring
                .slot(c.head(), |slot| unsafe { (*slot).assume_init_read() })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            if c.ready(&link.ring) == 0 {
                thread::yield_now();
                continue;
            }
            got.push(at_head(&c));
            c.hold(1);
        }
        assert_eq!((got.as_slice(), c.held(&link.ring)), (&[1, 2][..], 2));
        assert_eq!(c.unhold(&link.ring), 2);
        assert_eq!(at_head(&c), 1, "a held slot reads the same again");
        c.hold(2);
        c.release(&link.ring, 0);
        loop {
            match try_pop(&link, &mut c) {
                Ok(v) => break assert_eq!(v, 3),
                Err(_) => thread::yield_now(),
            }
        }
        producer.join().unwrap();
    });
}

#[test]
fn heap_held_slots_are_never_overwritten() {
    held_slots_are_never_overwritten::<HeapRing<u64>>();
}

#[test]
fn segment_held_slots_are_never_overwritten() {
    held_slots_are_never_overwritten::<SegWords>();
}

#[test]
fn heap_wraparound_transfer_preserves_order() {
    wraparound_transfer_preserves_order::<HeapRing<u64>>();
}

#[test]
fn segment_wraparound_transfer_preserves_order() {
    wraparound_transfer_preserves_order::<SegWords>();
}

#[test]
fn heap_batch_publish_is_one_store() {
    batch_publish_is_one_store::<HeapRing<u64>>();
}

#[test]
fn segment_batch_publish_is_one_store() {
    batch_publish_is_one_store::<SegWords>();
}

#[test]
fn heap_close_delivers_only_after_drain() {
    close_delivers_only_after_drain::<HeapRing<u64>>();
}

#[test]
fn segment_close_delivers_only_after_drain() {
    close_delivers_only_after_drain::<SegWords>();
}

// ---------------------------------------------------------------------------
// Endpoint level: what `BoundedSpsc` adds to the ring.
// ---------------------------------------------------------------------------

#[test]
fn spsc_push_pop_all_interleavings_preserve_order() {
    loom::model(|| {
        let (mut p, mut c) = BoundedSpsc::new(2);
        let producer = thread::spawn(move || {
            p.try_push(1u32).unwrap();
            p.try_push(2u32).unwrap();
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            match c.try_pop() {
                Ok(v) => got.push(v),
                Err(TryPopError::Empty) => thread::yield_now(),
                Err(TryPopError::Closed) => panic!("closed before both elements arrived"),
            }
        }
        assert_eq!(got, vec![1, 2]);
        producer.join().unwrap();
    });
}

#[test]
fn spsc_producer_drop_closes_only_after_drain() {
    // A producer that pushes and immediately disconnects must never make
    // the consumer observe Closed while an element is still in flight.
    loom::model(|| {
        let (mut p, mut c) = BoundedSpsc::new(2);
        let producer = thread::spawn(move || {
            p.try_push(7u32).unwrap();
            // Dropping the producer closes the stream.
        });
        let mut got = Vec::new();
        loop {
            match c.try_pop() {
                Ok(v) => got.push(v),
                Err(TryPopError::Empty) => thread::yield_now(),
                Err(TryPopError::Closed) => break,
            }
        }
        assert_eq!(got, vec![7]);
        producer.join().unwrap();
    });
}

#[test]
fn spsc_consumer_drop_rejects_push() {
    loom::model(|| {
        let (mut p, c) = BoundedSpsc::new(1);
        let closer = thread::spawn(move || drop(c));
        // Racing with the drop: success and Closed are both acceptable.
        match p.try_push(1u32) {
            Ok(()) | Err(TryPushError::Closed(_)) => {}
            Err(TryPushError::Full(_)) => panic!("ring cannot be full yet"),
        }
        closer.join().unwrap();
        // After join the close is visible (join is a synchronization edge):
        // every further push must be rejected, even into a non-full ring.
        assert!(matches!(
            p.try_push_signal(2u32, Signal::None),
            Err(TryPushError::Closed(_))
        ));
    });
}

#[test]
fn spsc_drop_drains_in_flight_elements() {
    // Runs single-threaded inside the model so loom's instrumented cells
    // still check the drain path's cell accesses.
    loom::model(|| {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct D(std::sync::Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = BoundedSpsc::new(2);
        p.try_push(D(drops.clone())).unwrap();
        p.try_push(D(drops.clone())).unwrap();
        drop(p);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    });
}
