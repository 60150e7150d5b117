//! Loom model checks for the Dekker-style resize fence
//! ([`raft_buffer::fence::ResizeFence`]).
//!
//! These tests only compile and run under the loom cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p raft-buffer --test loom_fence --release
//! ```
//!
//! The fence's whole job is mutual exclusion between an endpoint's ring
//! access and a resizer's storage mutation, established by a store-buffering
//! (Dekker) pattern that is only correct under SeqCst — exactly the kind of
//! property a test machine's strong memory model can silently fail to
//! exercise. Each model therefore wraps the "storage" in loom's
//! instrumented `UnsafeCell`: if any interleaving lets an endpoint's cell
//! access overlap the resizer's `with_mut`, loom reports the race even when
//! the data happens to come out right.
//!
//! Under loom the fence takes `fence(SeqCst)` on both sides of the
//! handshake (`sync::Barriers`'s symmetric form); a native build on Linux
//! x86_64 replaces the endpoint's fence with a compiler barrier and the
//! resizer's with `membarrier(2)`, which loom cannot model and
//! `fence::tests` stress-tests on hardware instead.
#![cfg(loom)]

use loom::cell::UnsafeCell;
use loom::sync::Arc;
use loom::thread;
use raft_buffer::{ResizeFence, Role};

/// A fence-guarded stand-in for ring storage: one cell the endpoint writes
/// under membership and the resizer rewrites under `begin_resize`.
struct Guarded {
    fence: ResizeFence,
    storage: UnsafeCell<u64>,
}

#[test]
fn resize_never_overlaps_producer_access() {
    loom::model(|| {
        let g = Arc::new(Guarded {
            fence: ResizeFence::new(),
            storage: UnsafeCell::new(0),
        });
        let g2 = g.clone();
        let producer = thread::spawn(move || {
            for _ in 0..2 {
                g2.fence.enter(Role::Producer);
                // Exclusive storage access while inside the arena; loom
                // flags this against the resizer's with_mut if the Dekker
                // handshake ever lets both in at once.
                g2.storage.with_mut(|p| unsafe { *p += 1 });
                g2.fence.exit(Role::Producer);
            }
        });
        g.fence.begin_resize();
        g.storage.with_mut(|p| unsafe { *p += 100 });
        g.fence.end_resize();
        producer.join().unwrap();
        g.fence.enter(Role::Consumer);
        let v = g.storage.with(|p| unsafe { *p });
        g.fence.exit(Role::Consumer);
        assert_eq!(v, 102);
    });
}

#[test]
fn resize_publication_visible_on_reentry() {
    // An endpoint that enters after a resize completed must observe the
    // resizer's storage mutation (Release on `pending` drop / flag edges,
    // Acquire on the endpoint's re-check). The instrumented cell turns any
    // missing happens-before edge into a reported race rather than a
    // silently stale read.
    loom::model(|| {
        let g = Arc::new(Guarded {
            fence: ResizeFence::new(),
            storage: UnsafeCell::new(0),
        });
        let g2 = g.clone();
        let resizer = thread::spawn(move || {
            g2.fence.begin_resize();
            g2.storage.with_mut(|p| unsafe { *p = 42 });
            g2.fence.end_resize();
        });
        g.fence.enter(Role::Consumer);
        let v = g.storage.with(|p| unsafe { *p });
        g.fence.exit(Role::Consumer);
        // Entered either entirely before or entirely after the resize.
        assert!(v == 0 || v == 42, "torn or unsynchronized read: {v}");
        resizer.join().unwrap();
    });
}

#[test]
fn resizer_excludes_both_endpoints() {
    // Producer and consumer touch disjoint cells (as the real ring's
    // head/tail protocol guarantees); the resizer mutates both. The fence
    // must exclude the resizer from each endpoint independently.
    loom::model(|| {
        struct TwoCells {
            fence: ResizeFence,
            a: UnsafeCell<u64>,
            b: UnsafeCell<u64>,
        }
        let g = Arc::new(TwoCells {
            fence: ResizeFence::new(),
            a: UnsafeCell::new(0),
            b: UnsafeCell::new(0),
        });
        let gp = g.clone();
        let producer = thread::spawn(move || {
            gp.fence.enter(Role::Producer);
            gp.a.with_mut(|p| unsafe { *p += 1 });
            gp.fence.exit(Role::Producer);
        });
        let gc = g.clone();
        let consumer = thread::spawn(move || {
            gc.fence.enter(Role::Consumer);
            gc.b.with_mut(|p| unsafe { *p += 1 });
            gc.fence.exit(Role::Consumer);
        });
        g.fence.begin_resize();
        g.a.with_mut(|p| unsafe { *p += 10 });
        g.b.with_mut(|p| unsafe { *p += 10 });
        g.fence.end_resize();
        producer.join().unwrap();
        consumer.join().unwrap();
        g.fence.begin_resize();
        let (a, b) = (g.a.with(|p| unsafe { *p }), g.b.with(|p| unsafe { *p }));
        g.fence.end_resize();
        assert_eq!((a, b), (11, 11));
    });
}

#[test]
fn backed_out_endpoint_retries_and_succeeds() {
    // An endpoint that loses the Dekker race backs out, waits for
    // `pending` to drop, and re-enters — it must never give up or deadlock
    // with the resizer.
    loom::model(|| {
        let g = Arc::new(Guarded {
            fence: ResizeFence::new(),
            storage: UnsafeCell::new(0),
        });
        let g2 = g.clone();
        let resizer = thread::spawn(move || {
            g2.fence.begin_resize();
            g2.storage.with_mut(|p| unsafe { *p += 100 });
            g2.fence.end_resize();
        });
        g.fence.enter(Role::Producer);
        g.storage.with_mut(|p| unsafe { *p += 1 });
        g.fence.exit(Role::Producer);
        resizer.join().unwrap();
        g.fence.enter(Role::Producer);
        let v = g.storage.with(|p| unsafe { *p });
        g.fence.exit(Role::Producer);
        assert_eq!(v, 101);
    });
}
