//! Chaos suite for the shared-memory link family: deterministic fault
//! injection at the segment-attach and futex-wake sites.
//!
//! Runs only with `--features raft_failpoints`. The CI chaos and
//! multi-process jobs execute this under pinned seeds (`RAFT_CHAOS_SEED`);
//! every firing decision is drawn from the seed, so a failure reproduces
//! exactly with `RAFT_CHAOS_SEED=<n> cargo test -p raft-buffer --features
//! raft_failpoints --test chaos_shm`.
#![cfg(all(feature = "raft_failpoints", not(loom)))]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use raft_buffer::failpoints::{self, FailAction};
use raft_buffer::shm::{ShmRing, ShmSegment, DATA_OFFSET, SEG_SCHEMA};

/// The failpoint registry is process-global; tests serialize on this so
/// one test's armed sites never fire inside another's transfer.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::reset();
    guard
}

fn chaos_seed() -> u64 {
    std::env::var("RAFT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// `buffer::shm::attach` armed with `ShortIo`: a rejected attach must be a
/// clean `InvalidData` error *before* the segment claims anything, so the
/// caller can simply retry — eventually attaching, claiming the consumer
/// role exactly once, and carrying data.
#[test]
fn rejected_attach_is_clean_and_retryable() {
    if !ShmSegment::memfd_supported() {
        eprintln!("skipping: no memfd on this platform");
        return;
    }
    let _guard = chaos_guard();
    failpoints::set_seed(chaos_seed());
    let (mut p, fd) = ShmRing::<u64>::create_producer(8).expect("create ring");

    // A segment written by a schema-2 build (bare `T` slots, no signal
    // word) is the same kind of rejection, for real: refused by the
    // equality check with `InvalidData`, nothing claimed, fd retryable.
    // The schema is the u32 at byte 8 of the header, which ends where the
    // data region of a ≤ 256-aligned element begins.
    let header = p.segment().data_ptr().wrapping_sub(DATA_OFFSET);
    // SAFETY: byte 8 of the mapping: in bounds, 4-aligned, only ever
    // accessed as an atomic u32.
    let schema = unsafe {
        &*header
            .wrapping_add(8)
            .cast::<std::sync::atomic::AtomicU32>()
    };
    assert_eq!(
        schema.load(std::sync::atomic::Ordering::Relaxed),
        SEG_SCHEMA
    );
    schema.store(2, std::sync::atomic::Ordering::Relaxed);
    let refused = ShmRing::<u64>::attach_consumer(fd)
        .err()
        .expect("schema 2 refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData, "{refused}");
    schema.store(SEG_SCHEMA, std::sync::atomic::Ordering::Relaxed);

    // Rate 1 with a budget of 4 firings: each attach draws twice (the hit
    // macro, then the ShortIo check), so attempts 1 and 2 are rejected and
    // attempt 3 succeeds — deterministically, for every chaos seed.
    failpoints::arm("buffer::shm::attach", FailAction::ShortIo, 1, 4);

    let mut clean_failures = 0u32;
    let mut consumer = None;
    for _ in 0..8 {
        match ShmRing::<u64>::attach_consumer(fd) {
            Ok(c) => {
                consumer = Some(c);
                break;
            }
            Err(e) => {
                // Every injected failure surfaces as InvalidData from the
                // failpoint — never a role-claim conflict (AddrInUse would
                // mean a failed attach leaked a claim) and never a panic.
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                clean_failures += 1;
            }
        }
    }
    failpoints::reset();
    let mut c = consumer.expect("attach must succeed once the firing budget drains");
    assert_eq!(
        clean_failures, 2,
        "budget 4 at two draws/attach rejects exactly 2"
    );

    // The survivor link is fully functional.
    for i in 0..8u64 {
        p.try_push(i).unwrap();
    }
    for i in 0..8u64 {
        assert_eq!(c.try_pop().unwrap(), i);
    }
    // And the consumer role was claimed exactly once, by the survivor.
    assert!(ShmRing::<u64>::attach_consumer(fd).is_err());
}

/// `buffer::futex::wake` armed with `Stall`: delayed (effectively lost)
/// wakes must never corrupt or wedge a blocking transfer — the bounded
/// 2 ms park timeout re-checks the stream regardless, so chaos at the
/// wake site costs latency, never correctness.
#[test]
fn stalled_wakes_never_wedge_blocking_transfer() {
    let _guard = chaos_guard();
    failpoints::set_seed(chaos_seed());
    failpoints::arm(
        "buffer::futex::wake",
        FailAction::Stall(Duration::from_micros(500)),
        2,
        0,
    );

    // Tiny capacity plus a deliberately slow consumer: the producer runs
    // 4 elements ahead, exhausts its (64-pause, 16-yield) backoff budget
    // during the consumer's sleep, and futex-parks — so nearly every pop's
    // notify reaches the armed wake site.
    let (mut p, mut c) = ShmRing::<u64>::pair(4);
    const N: u64 = 200;
    let producer = std::thread::spawn(move || {
        for i in 0..N {
            p.push(i).unwrap();
        }
    });
    let mut expected = 0;
    while let Ok(v) = c.pop() {
        assert_eq!(v, expected, "stalled wakes must not reorder or drop");
        expected += 1;
        if expected % 2 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    assert_eq!(expected, N);
    producer.join().unwrap();
    assert!(
        failpoints::hits("buffer::futex::wake") > 0,
        "a parked producer's wake-ups must reach the chaos site"
    );
    failpoints::reset();
}
