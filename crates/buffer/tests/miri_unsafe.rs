//! Deterministic exercises of every unsafe path in `raft-buffer`, written
//! to run under Miri as well as natively:
//!
//! ```text
//! cargo +nightly miri test -p raft-buffer --test miri_unsafe
//! ```
//!
//! Miri checks what loom does not: uninitialized reads, use-after-free,
//! leaks, and Stacked/Tree Borrows aliasing violations in the
//! `UnsafeCell<MaybeUninit<..>>` slot protocol. There is one unsafe ring
//! core (`raft_buffer::ring`); the tests below drive it over each of its
//! backings — fixed heap (`BoundedSpsc`), a chain of fixed heap rings the
//! producer seals and the consumer follows (`Fifo`), and a segment (`ShmRing` / the arena free list, which
//! under Miri sit on `ShmSegment::create_heap`). Thread counts and element
//! counts are tiny because Miri executes ~3 orders of magnitude slower than
//! native.
#![cfg(not(loom))]

use raft_buffer::arena::{ArenaError, ShmArena};
use raft_buffer::shm::ShmRing;
use raft_buffer::{fifo_with, BoundedSpsc, Descriptor, FifoConfig, Signal, TryPopError};

/// Covers: the same fill → reject → drain → refill-across-the-wrap script
/// through the one ring core over each of its three backings, so every
/// slot write, read-out and reuse the cursors perform is checked against
/// heap cells, a heap ring whose capacity is requested mid-script and raw
/// segment memory alike.
#[test]
fn one_ring_core_over_heap_swappable_and_segment_backings() {
    fn script(mut push: impl FnMut(u64) -> bool, mut pop: impl FnMut() -> Option<u64>) {
        assert!(push(1) && push(2));
        assert!(!push(3), "capacity 2 is full");
        assert_eq!(pop(), Some(1));
        assert!(push(3), "freed slot is reused across the wrap");
        assert_eq!((pop(), pop(), pop()), (Some(2), Some(3), None));
    }
    let (mut p, mut c) = BoundedSpsc::new(2);
    script(|v| p.try_push(v).is_ok(), || c.try_pop().ok());

    let (fifo, mut p, mut c) = fifo_with::<u64>(FifoConfig {
        initial_capacity: 2,
        min_capacity: 2,
        ..FifoConfig::default()
    });
    script(
        |v| p.try_push(v).is_ok(),
        || {
            // Post a larger capacity and the old one back, under the cursors.
            assert_eq!((fifo.resize(8), fifo.resize(2)), (8, 2));
            c.try_pop().ok()
        },
    );

    let (mut p, mut c) = ShmRing::<u64>::pair(2);
    script(|v| p.try_push(v).is_ok(), || c.try_pop().ok());
}

/// Covers: slot write (push), slot read-out (pop), slot reuse (wraparound),
/// and the in-place peek reference — all of the ring's raw-pointer paths.
#[test]
fn spsc_slot_protocol_single_threaded() {
    let (mut p, mut c) = BoundedSpsc::new(2);
    for round in 0..5u32 {
        p.try_push_signal(round, Signal::None).unwrap();
        p.try_push_signal(round + 100, Signal::EoS).unwrap();
        assert_eq!(c.peek(), Some(&round));
        assert_eq!(c.try_pop_signal().unwrap(), (round, Signal::None));
        assert_eq!(c.try_pop_signal().unwrap(), (round + 100, Signal::EoS));
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    }
}

/// Covers: drop-time drain of initialized slots (`HeapRing::drop`) with a
/// heap-owning element type, so Miri's leak checker sees any missed drop.
#[test]
fn spsc_drop_drains_heap_elements() {
    let (mut p, c) = BoundedSpsc::new(8);
    for i in 0..5 {
        p.try_push(vec![i; 16]).unwrap();
    }
    drop(p);
    drop(c);
}

/// Covers: the cross-thread release/acquire handoff with real parallelism.
/// Small N keeps Miri's schedule exploration affordable.
#[test]
fn spsc_cross_thread_handoff() {
    let (mut p, mut c) = BoundedSpsc::new(2);
    const N: u32 = 16;
    let producer = std::thread::spawn(move || {
        for i in 0..N {
            p.push(Box::new(i)).unwrap();
        }
    });
    let mut expected = 0;
    while let Ok(v) = c.pop() {
        assert_eq!(*v, expected);
        expected += 1;
    }
    assert_eq!(expected, N);
    producer.join().unwrap();
}

/// Covers: the resizable FIFO's unsafe handoff paths (the producer's seal,
/// the consumer's raw slot move when it follows) under Miri.
#[test]
fn fifo_resize_copy_under_miri() {
    let (fifo, mut p, mut c) = fifo_with::<u32>(FifoConfig {
        initial_capacity: 2,
        ..FifoConfig::default()
    });
    for i in 0..2 {
        p.push(i).unwrap();
    }
    // Request while the ring is full: the next push seals, and the first
    // pop's tail refresh follows, moving both elements.
    fifo.resize(8);
    for i in 2..6 {
        p.push(i).unwrap();
    }
    for i in 0..6 {
        assert_eq!(c.pop().unwrap(), i);
    }
}

/// Covers: the zero-copy batch views' raw-pointer paths — in-place slot
/// construction through `reserve`/`WriteSlice`, partial commits (reserved
/// but unwritten slots must never be read or dropped), and borrowed reads
/// through `pop_slice`'s `SliceView`. Heap-owning elements let Miri's leak
/// checker catch a drop of an uninitialized slot or a missed element drop.
#[test]
fn batch_views_under_miri() {
    let (_fifo, mut p, mut c) = fifo_with::<Vec<u8>>(FifoConfig {
        initial_capacity: 4,
        ..FifoConfig::default()
    });
    // Full commit. (Single-threaded, so every reserve below is sized to
    // the room actually available — reserve blocks when the ring is full.)
    let mut slice = p.reserve(3).unwrap();
    for i in 0..3u8 {
        slice.push(vec![i; 8]);
    }
    drop(slice);
    let sum: usize = c
        .pop_slice(2, |view| view.iter().map(|v| v.len()).sum())
        .unwrap();
    assert_eq!(sum, 16);
    // Partial commit: 2 reserved, only 1 written — the unwritten slot must
    // be neither read nor dropped.
    let mut slice = p.reserve(2).unwrap();
    slice.push(vec![9; 8]);
    drop(slice);
    // Zero commit: reserved and abandoned — publishes nothing.
    drop(p.reserve(2).unwrap());

    assert_eq!(c.pop().unwrap(), vec![2; 8]);
    assert_eq!(c.pop().unwrap(), vec![9; 8]);
    // Reserve wider than the ring: takes the grow path, then leaves one
    // element in flight at drop to exercise the storage drain.
    let mut slice = p.reserve(6).unwrap();
    slice.push(vec![7; 8]);
    drop(slice);
}

/// Covers: the full arena descriptor lifecycle over a heap-backed segment
/// (under Miri `memfd_supported()` is false, so `pair` takes the
/// `create_heap` path — same layout, same raw-pointer arithmetic, no
/// inline-asm syscalls). Exercises every unsafe access in `arena.rs`:
/// the generation words, the free-ring entry reads/writes, and the
/// payload slices minted by `PayloadWrite::bytes` / `ArenaRx::resolve` —
/// including the paths where a stale descriptor must be rejected *before*
/// any payload pointer is formed.
#[test]
fn arena_descriptor_lifecycle_under_miri() {
    // One slot: every recycle reuses the same payload memory, so a
    // generation bug would alias live and stale descriptors.
    let (mut tx, mut rx) = ShmArena::pair(1, 32);
    // alloc → write the payload in place → publish the descriptor.
    let mut w = tx.alloc(5).unwrap();
    w.bytes().copy_from_slice(b"hello");
    let d = w.publish();
    assert!(tx.alloc(1).is_none(), "sole slot is in flight");
    // consume: resolve borrows the payload bytes inside the segment.
    assert_eq!(rx.resolve(&d).unwrap(), b"hello");
    rx.free(d).unwrap();
    // Use-after-free and double-free land on a generation mismatch — a
    // recoverable error return, never a payload access.
    assert_eq!(rx.resolve(&d), Err(ArenaError::Stale));
    assert_eq!(rx.free(d), Err(ArenaError::Stale));
    // The slot recycles through the free ring onto a fresh (odd)
    // generation; the old descriptor stays dead.
    let d2 = tx.push_bytes(b"again").unwrap();
    assert_eq!(d2.slot, d.slot, "one-slot arena must reuse the slot");
    assert_ne!(d2.generation, d.generation);
    assert_eq!(rx.resolve(&d2).unwrap(), b"again");
    assert_eq!(rx.resolve(&d), Err(ArenaError::Stale));
    rx.free(d2).unwrap();
    // Malformed descriptors are rejected structurally, before any
    // generation word (let alone payload byte) is touched.
    assert_eq!(
        rx.resolve(&Descriptor {
            slot: 99,
            ..Descriptor::default()
        }),
        Err(ArenaError::Malformed)
    );
}

/// Covers: the intended cross-link composition with real parallelism —
/// payload staged in the arena by one thread, 16-byte descriptor through
/// a (heap-backed) `ShmRing`, the other thread resolving the payload in
/// place and recycling the slot. Two slots and eight transfers force the
/// free ring to wrap while both threads are live, so Miri checks the
/// release/acquire edge that publishes payload bytes across the ring
/// against its weak-memory and aliasing rules.
#[test]
fn descriptors_cross_a_ring_under_miri() {
    let (mut tx, mut rx) = ShmArena::pair(2, 16);
    let (mut p, mut c) = ShmRing::<Descriptor>::pair(2);
    const N: u8 = 8;
    let producer = std::thread::spawn(move || {
        for i in 0..N {
            // Arena exhaustion is backpressure: wait for the consumer to
            // recycle a slot.
            let d = loop {
                match tx.push_bytes(&[i; 10]) {
                    Some(d) => break d,
                    None => std::thread::yield_now(),
                }
            };
            while p.try_push(d).is_err() {
                std::thread::yield_now();
            }
        }
    });
    let mut seen = 0u8;
    while seen < N {
        match c.try_pop() {
            Ok(d) => {
                assert_eq!(rx.resolve(&d).unwrap(), &[seen; 10][..]);
                rx.free(d).unwrap();
                seen += 1;
            }
            Err(_) => std::thread::yield_now(),
        }
    }
    producer.join().unwrap();
}

/// Covers: `allocate`'s in-place default construction (`WriteGuard`) and
/// the `peek_range` window's borrowed indexing, both raw-pointer paths.
#[test]
fn write_guard_and_peek_range_under_miri() {
    let (_fifo, mut p, mut c) = fifo_with::<String>(FifoConfig {
        initial_capacity: 4,
        ..FifoConfig::default()
    });
    for i in 0..3 {
        let mut g = p.allocate().unwrap();
        g.push_str(&i.to_string());
        // Guard drop publishes the element.
    }
    {
        let w = c.peek_range(3).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(&w[0], "0");
        assert_eq!(&w[2], "2");
    }
    assert_eq!(c.advance(2), 2);
    assert_eq!(c.pop().unwrap(), "2");
}

/// Covers: a journaled consumer's held slots — pops served as copies of
/// slots the cursor keeps, a `pop_slice` and a `peek_range` + `advance`
/// that only hold, the rewind reading them again, a seal the consumer
/// follows while they are held, moving them with the live region, the
/// commit dropping them in place, and the drain dropping what is still held
/// when the FIFO goes. Heap-owning
/// elements let Miri catch a double drop or a leak.
#[test]
fn journal_held_slots_under_miri() {
    let (fifo, mut p, mut c) = fifo_with::<String>(FifoConfig {
        initial_capacity: 4,
        ..FifoConfig::default()
    });
    c.enable_journal();
    for i in 0..4 {
        p.push(i.to_string()).unwrap();
    }
    assert_eq!(c.pop().unwrap(), "0");
    assert_eq!(c.pop_slice(2, |view| view[1].clone()).unwrap(), "2");
    assert_eq!(c.rewind_consumed(), 3);
    assert_eq!(c.pop().unwrap(), "0", "a rewind serves the held slot again");
    assert_eq!(fifo.resize(16), 16);
    // The ring is full: this push seals it. Reading past its four slots
    // follows, moving the held "0".."3" into the new ring.
    p.push("4".to_string()).unwrap();
    let read: Vec<String> = (0..4).map(|_| c.pop().unwrap()).collect();
    assert_eq!(read, ["1", "2", "3", "4"]);
    assert_eq!(c.rewind_consumed(), 5);
    assert_eq!(c.pop().unwrap(), "0", "the moved slot is served again");
    assert_eq!(c.commit_consumed(), 1);
    assert_eq!(&c.peek_range(2).unwrap()[0], "1");
    assert_eq!(c.advance(2), 2);
    // "1" and "2" held, "3" and "4" unread: the drain drops all four.
    drop((p, c, fifo));
}
