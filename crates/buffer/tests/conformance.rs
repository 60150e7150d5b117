//! One conformance table, two homes: every row runs the same script
//! through `Producer`/`Consumer` over the heap home (`fifo_with`) and over
//! the segment home (`ShmRing::pair` — a memfd natively, the heap-backed
//! twin under Miri, so `cargo miri test --test conformance` executes the
//! segment slot code too). The endpoints are one implementation; this is
//! the suite that says so.
#![cfg(not(loom))]

use raft_buffer::fifo::Home;
use raft_buffer::shm::ShmRing;
use raft_buffer::{fifo_with, Consumer, FifoConfig, Producer, Signal, TryPopError, TryPushError};

/// A fresh fixed-capacity link of `u64`s over home `H`.
type Link<H> = fn(usize) -> (Producer<u64, H>, Consumer<u64, H>);
/// One row of the table: what it pins, and the script.
type Row<H> = (&'static str, fn(Link<H>));

fn in_order_across_threads<H: Home<u64> + Send + Sync + 'static>(link: Link<H>) {
    // Miri runs ~3 orders of magnitude slower than native.
    let n = if cfg!(miri) { 200 } else { 50_000 };
    let (mut p, mut c) = link(4);
    let producer = std::thread::spawn(move || {
        for i in 0..n {
            p.push(i).unwrap();
        }
        p.rescues()
    });
    let mut expected = 0;
    while let Ok(v) = c.pop() {
        assert_eq!(v, expected);
        expected += 1;
    }
    assert_eq!(expected, n);
    // Wakes may be lost to the lossy per-element notify under load; what
    // the table pins is the counter being readable on both homes.
    let _ = (producer.join().unwrap(), c.rescues());
}

fn try_full_empty_closed<H: Home<u64>>(link: Link<H>) {
    let (mut p, mut c) = link(2);
    assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    p.try_push(1).unwrap();
    p.try_push(2).unwrap();
    assert!(matches!(p.try_push(3), Err(TryPushError::Full(3))));
    assert_eq!((p.occupancy(), p.capacity()), (2, 2));
    assert_eq!(c.try_pop(), Ok(1));
    p.try_push(3).unwrap(); // freed slot reused across the wrap
    assert_eq!((c.try_pop(), c.try_pop()), (Ok(2), Ok(3)));
    drop(c);
    assert!(p.is_closed());
    assert!(matches!(p.try_push(4), Err(TryPushError::Closed(4))));
    assert!(p.push(4).is_err());
}

fn batch_views<H: Home<u64>>(link: Link<H>) {
    let (mut p, mut c) = link(8);
    {
        let mut w = p.reserve(5).unwrap();
        for i in 0..4 {
            w.push(i * 10);
        }
        w.push_signal(40, Signal::EoS);
    }
    assert_eq!(c.occupancy(), 5);
    let seen = c
        .pop_slice(3, |v| {
            assert_eq!(v.signal(0), Signal::None);
            v.iter().copied().collect::<Vec<_>>()
        })
        .unwrap();
    assert_eq!(seen, [0, 10, 20]);
    {
        let window = c.peek_range(2).unwrap();
        assert_eq!((window[0], window[1]), (30, 40));
        assert_eq!(window.signal(1), Signal::EoS);
    }
    assert_eq!(c.advance(1), 1);
    assert_eq!(c.peek(|v, s| (*v, s)), Some((40, Signal::EoS)));
    let mut out = Vec::new();
    assert_eq!(c.pop_range(8, &mut out), Ok(1));
    assert_eq!(out, [40]);
    // A request no fixed ring can ever hold fails instead of wedging.
    assert!(c.peek_range(64).is_err());
    // A batch that fills the ring exactly goes in whole, without blocking.
    let mut items: Vec<u64> = (0..c.capacity() as u64).collect();
    p.push_batch(&mut items).unwrap();
    assert!(items.is_empty());
    assert_eq!(c.occupancy(), c.capacity());
    assert!(matches!(p.try_push(99), Err(TryPushError::Full(99))));
}

fn eos_on_drop_and_close<H: Home<u64>>(link: Link<H>) {
    let (mut p, mut c) = link(2);
    p.try_push(1).unwrap();
    drop(p);
    assert_eq!(c.try_pop(), Ok(1));
    assert_eq!(c.try_pop(), Err(TryPopError::Closed));
    assert!(c.pop().is_err());
    assert!(c.is_finished());

    let (mut p, mut c) = link(2);
    p.try_push(2).unwrap();
    p.close();
    assert_eq!(c.pop(), Ok(2));
    assert!(c.pop().is_err());
    assert!(c.is_finished() && p.fifo().is_finished());
}

fn signal_round_trip<H: Home<u64>>(link: Link<H>) {
    let (mut p, mut c) = link(4);
    p.try_push_signal(1, Signal::SoS).unwrap();
    p.push_signal(2, Signal::User(7)).unwrap();
    {
        let mut g = p.allocate().unwrap();
        *g = 3;
        g.set_signal(Signal::Error(u32::MAX));
    }
    assert_eq!(c.try_pop_signal(), Ok((1, Signal::SoS)));
    assert_eq!(c.pop_signal(), Ok((2, Signal::User(7))));
    assert_eq!(c.pop_signal(), Ok((3, Signal::Error(u32::MAX))));
}

fn stats_reach_the_link<H: Home<u64>>(link: Link<H>) {
    let (mut p, mut c) = link(4);
    for i in 0..3 {
        p.try_push(i).unwrap();
    }
    c.try_pop().unwrap();
    let s = c.fifo().snapshot();
    assert_eq!((s.pushed, s.popped, s.occupancy, s.capacity), (3, 1, 2, 4));
    assert_eq!((s.rescues, s.forced_acks, s.resizes), (0, 0, 0));
}

fn table<H: Home<u64> + Send + Sync + 'static>(link: Link<H>) {
    let rows: [Row<H>; 6] = [
        ("in-order push/pop across threads", in_order_across_threads),
        ("try_* Full/Empty/Closed", try_full_empty_closed),
        ("reserve/pop_slice/peek_range batch views", batch_views),
        ("EoS on drop and on close()", eos_on_drop_and_close),
        ("signals ride with their element", signal_round_trip),
        ("stats snapshot", stats_reach_the_link),
    ];
    for (name, row) in rows {
        eprintln!("  {name}");
        row(link);
    }
}

#[test]
fn heap_home_conforms() {
    table(|capacity| {
        let (_fifo, p, c) = fifo_with::<u64>(FifoConfig::fixed(capacity));
        (p, c)
    });
}

#[test]
fn segment_home_conforms() {
    table(ShmRing::<u64>::pair);
}

/// The signal word of a segment slot is untrusted input: a word no encoder
/// produces (here: every bit set) must pop as `Signal::None`, never as an
/// invalid enum discriminant.
#[test]
fn forged_signal_word_pops_as_none() {
    let (mut p, mut c) = ShmRing::<u64>::pair(2);
    p.try_push_signal(5, Signal::EoS).unwrap();
    // Schema-3 slot 0: the element at +0, the signal word at +8.
    let word = p.segment().data_ptr().wrapping_add(8).cast::<u64>();
    // SAFETY: inside the data region (2 slots × 16 bytes), 8-aligned; the
    // slot is published and nobody else is touching it.
    unsafe { word.write(u64::MAX) };
    assert_eq!(c.peek(|v, s| (*v, s)), Some((5, Signal::None)));
    assert_eq!(c.try_pop_signal(), Ok((5, Signal::None)));
    // ...and so does the empty word of a slot a lying peer "published".
    p.try_push(6).unwrap();
    // SAFETY: as above, slot 1's signal word at +24.
    unsafe { word.wrapping_add(2).write(0) };
    assert_eq!(c.try_pop_signal(), Ok((6, Signal::None)));
}
