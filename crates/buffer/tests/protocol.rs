//! Integration tests for the `raft_protocol_check` shadow checker: clean
//! SPSC traffic (with concurrent resizes, so the producer seals and the
//! consumer follows) stays violation-free, and a deliberately duplicated
//! producer handle is caught.

#![cfg(feature = "raft_protocol_check")]

use std::panic::{catch_unwind, AssertUnwindSafe};

use raft_buffer::fifo::{fifo_with, FifoConfig};
use raft_buffer::protocol::violations;

#[test]
fn clean_spsc_traffic_with_resizes_has_no_violations() {
    let (fifo, mut tx, mut rx) = fifo_with::<u64>(FifoConfig {
        initial_capacity: 8,
        max_capacity: 1 << 12,
        min_capacity: 8,
        ..Default::default()
    });

    const N: u64 = 20_000;
    let producer = std::thread::spawn(move || {
        for i in 0..N {
            tx.push(i).unwrap();
        }
    });
    let resizer = std::thread::spawn(move || {
        // Post targets while traffic flows: the producer seals into each
        // and the consumer follows.
        for step in 0..200 {
            let cap = if step % 2 == 0 { 1 << 10 } else { 16 };
            fifo.resize(cap);
            std::thread::yield_now();
        }
    });
    let consumer = std::thread::spawn(move || {
        let mut expect = 0u64;
        while expect < N {
            if let Ok(v) = rx.pop() {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
    });

    // Any protocol violation panics the offending thread: unwrap propagates.
    producer.join().unwrap();
    resizer.join().unwrap();
    consumer.join().unwrap();
}

#[test]
fn duplicated_producer_handle_is_caught() {
    // Nothing else stands between the duplicate handle and silent slot
    // corruption: the shadow checker is the only guard.
    let (_fifo, mut tx, _rx) = fifo_with::<u64>(FifoConfig::fixed(8));

    let before = violations();
    let mut dup = tx.protocol_test_duplicate();
    // Hold the producer's ring with a zero-copy batch view, then drive the
    // second handle into it.
    let slice = tx.reserve(2).unwrap();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = dup.try_push(42);
    }));
    let err = result.expect_err("second producer must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("raft_protocol_check violation"),
        "unexpected panic payload: {msg}"
    );
    assert!(msg.contains("SPSC"), "unexpected message: {msg}");
    assert!(violations() > before);
    drop(slice);
    // The original producer still works after the aborted intrusion.
    std::mem::forget(dup); // its Drop would close the stream for tx
    tx.push(7).unwrap();
}
