//! A fused chain's batch path allocates nothing per batch: the group
//! reuses the buffers it owns, and `Fold` reads through one it keeps. So
//! quadrupling the stream leaves the allocation count where it was — what
//! a run allocates (rings, their seals, threads, the report) does not
//! scale with the element count. A test binary of its own, because the
//! counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use raft_kernels::{Fold, Generate, Map};
use raftlib::prelude::*;

/// The system allocator, counting allocation calls.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by one `exe()` of `Generate(batch 512) → Map(+1)×4 →
/// Fold(xor)` over `n` elements, after checking the fold's result.
fn allocations(n: u64) -> usize {
    let mut map = RaftMap::new();
    let mut prev = map.add(Generate::new(0..n).with_batch(512));
    for _ in 0..4 {
        let stage = map.add(Map::new(|x: u64| x + 1));
        map.connect(prev, stage).unwrap();
        prev = stage;
    }
    let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc ^= v);
    let sink = map.add(fold);
    map.connect(prev, sink).unwrap();
    let before = ALLOCS.load(Relaxed);
    let report = map.exe().unwrap();
    let made = ALLOCS.load(Relaxed) - before;
    assert_eq!(report.fused.len(), 1, "the four maps fuse into one group");
    assert_eq!(report.fused[0].items_out, n);
    assert_eq!(*total.lock().unwrap(), (4..n + 4).fold(0, |a, v| a ^ v));
    made
}

#[test]
fn fused_chain_allocates_nothing_per_batch() {
    let small = allocations(1 << 18);
    let large = allocations(1 << 20);
    assert!(
        large.abs_diff(small) < 64,
        "2^18 elements made {small} allocations, 2^20 made {large}"
    );
}
