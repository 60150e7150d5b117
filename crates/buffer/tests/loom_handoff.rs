//! Loom model checks for the heap home's resize handoff: the producer
//! seals its ring into a new one, the consumer follows.
//!
//! These tests only compile and run under the loom cfg, through the
//! `verify/` workspace:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --manifest-path verify/Cargo.toml --test loom_handoff --release
//! ```
//!
//! The models drive the real [`raft_buffer::Fifo`] endpoints. Its `head`,
//! `tail`, posted target and each ring's `next` are `crate::sync` atomics,
//! so loom explores every order the C11 model allows between the
//! producer's seal (`next` stored Release, then `tail`) and the journaled
//! consumer's tail refresh (`tail` loaded Acquire, then `next`). A consumer
//! that loaded a `tail` past the seal but missed `next` would read the new
//! ring's indices out of the old ring — stale elements, which the value
//! checks below catch. A move that lost a held slot shows up the same way
//! on the replay after the rewind.
//!
//! Only the non-blocking endpoints are used, with a model yield whenever
//! a ring looks full or empty, so each model stays a handful of
//! operations per thread.
#![cfg(loom)]

use loom::thread;
use raft_buffer::{fifo_with, Consumer, FifoConfig, TryPopError};

/// A two-slot ring that may grow to four, with a journaled consumer.
fn link() -> (
    raft_buffer::Fifo<u64>,
    raft_buffer::Producer<u64>,
    Consumer<u64>,
) {
    let (fifo, p, mut c) = fifo_with::<u64>(FifoConfig {
        initial_capacity: 2,
        max_capacity: 4,
        min_capacity: 2,
        ..FifoConfig::default()
    });
    c.enable_journal();
    (fifo, p, c)
}

/// Read `n` elements, yielding to the model while the ring looks empty.
fn read(c: &mut Consumer<u64>, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| loop {
            match c.try_pop() {
                Ok(v) => break v,
                Err(TryPopError::Empty) => thread::yield_now(),
                Err(e) => panic!("stream ended early: {e:?}"),
            }
        })
        .collect()
}

/// Spawn a producer of `0..n`, yielding to the model while its ring is
/// full.
fn produce(mut p: raft_buffer::Producer<u64>, n: u64) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        for i in 0..n {
            while p.try_push(i).is_err() {
                thread::yield_now();
            }
        }
    })
}

#[test]
fn seal_races_a_journaled_refresh_hold_and_rewind() {
    loom::model(|| {
        let (fifo, p, mut c) = link();
        // Posted before the producer starts: its third push finds the
        // two-slot ring full and seals it into one of four.
        assert_eq!(fifo.resize(4), 4);
        let producer = produce(p, 3);
        assert_eq!(read(&mut c, 3), [0, 1, 2]);
        assert_eq!(c.rewind_consumed(), 3);
        assert_eq!(read(&mut c, 3), [0, 1, 2], "held slots replay in order");
        assert_eq!(c.commit_consumed(), 3);
        producer.join().unwrap();
    });
}

#[test]
fn request_posted_while_slots_are_held_is_sealed_and_followed() {
    loom::model(|| {
        let (fifo, p, mut c) = link();
        let producer = produce(p, 3);
        assert_eq!(read(&mut c, 1), [0]);
        // The read-side trigger's request, racing the producer's refresh:
        // with both slots held the producer cannot go on until it seals.
        assert_eq!(fifo.resize(4), 4);
        assert_eq!(read(&mut c, 2), [1, 2]);
        assert_eq!(c.rewind_consumed(), 3);
        assert_eq!(read(&mut c, 3), [0, 1, 2]);
        producer.join().unwrap();
    });
}
