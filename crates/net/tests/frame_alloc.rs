//! `Frame::read_from` must not allocate what a peer merely claims: a
//! 5-byte header promising a `MAX_FRAME` payload, then EOF, is an error
//! that never held 1 MiB. A test binary of its own, because the counting
//! allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use raft_net::frame::{Frame, FrameKind, MAX_FRAME};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        PEAK.fetch_max(
            LIVE.fetch_add(layout.size(), Relaxed) + layout.size(),
            Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn forged_length_allocates_only_what_arrives() {
    let mut header = (MAX_FRAME as u32).to_le_bytes().to_vec();
    header.push(FrameKind::Data as u8);
    let mut reader = std::io::Cursor::new(header);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    assert!(Frame::read_from(&mut reader).is_err());
    let peak = PEAK.load(Relaxed) - before;
    assert!(peak < 1 << 20, "a {MAX_FRAME}-byte claim held {peak} bytes");
}
