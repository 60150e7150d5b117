//! Shared-memory link backing: mapped segments and the *segment home* of
//! the stream FIFO — the paper's second link allocator (§3 names heap,
//! shared memory, and TCP; DESIGN §14 has the selection matrix).
//!
//! ## Segments
//!
//! [`ShmSegment`] wraps an anonymous `memfd_create(2)` file mapped
//! `MAP_SHARED`, created with raw syscalls (no `libc`, same idiom as
//! `core`'s `affinity.rs`). The fd is created **without** `MFD_CLOEXEC`, so
//! a `std::process::Command` child inherits it and attaches by number —
//! that fd is the entire cross-process handshake. Every segment starts with
//! a versioned header (magic, schema, kind, capacity, element layout,
//! total length) that [`ShmSegment::attach`] validates before trusting a
//! single byte; a mismatched peer build is a clean error, not corruption.
//!
//! A heap-backed twin ([`ShmSegment::create_heap`]) provides the same
//! layout on plain memory for platforms without `memfd` and for miri (which
//! cannot execute the inline-asm syscalls). Protocol code never knows the
//! difference.
//!
//! ## The ring
//!
//! There is no shm endpoint type: [`ShmRing`]'s constructors return the
//! crate's one [`Producer`]/[`Consumer`] pair ([`crate::fifo`]) over
//! [`Seg`], the [`Home`] whose `head`/`tail`, closed flags and `(armed,
//! seq)` wake words are this module's header words (cache-line-separated
//! counters in the prelude) and whose slots fill the data region. So a
//! cross-process link has the same blocking `push`/`pop`, batch
//! views (`reserve`/`pop_slice`), statistics, counted rescues and consumer
//! journal as an in-process one; blocking parks on a
//! [`crate::futex::Futex`] eventcount over the segment's control line.
//! The capacity is fixed at creation.
//!
//! Elements must be [`ShmItem`] — plain-old-data that is meaningful in
//! another address space. That excludes pointers/handles by construction;
//! variable-size payloads cross by descriptor through [`crate::arena`]. A
//! slot is a [`SegSlot`]: the element, then its synchronous [`Signal`] as
//! an encoded `u64` (never the enum itself — see the trust model).
//!
//! [`SegRing`] is the same data region seen as a bare ring [`Backing`] of
//! `T`s, for the arena's free list.
//!
//! ### Trust model
//!
//! `attach` validates the header shape, but a *live* peer is still free to
//! scribble on its side of the protocol. The handles here stay memory-safe
//! regardless: every header-derived quantity (capacity, element layout,
//! data offset) is **snapshotted into the local `ShmSegment` at
//! create/attach and never re-read from the mapping** — a peer rewriting
//! the header after attach changes nothing this process computes with.
//! Every slot index is masked before use, slot types are `Copy` POD (any
//! bit pattern is a value, never UB — which is why a slot's signal is a raw
//! word decoded on the way out, an unknown word reading as `Signal::None`),
//! and counters are only compared with wrapping arithmetic. A byzantine peer can deliver garbage elements — it
//! cannot make this process read or write out of bounds.
//!
//! ## Role reclaim (generations)
//!
//! The producer/consumer role words are **generation counters**: even =
//! free at generation *g*, odd = claimed. A fresh segment starts at 0;
//! claiming CASes even→odd, and a supervisor that has *reaped* a dead
//! role-holder revokes the claim by CASing that exact odd generation back
//! to even ([`ShmSegment::revoke_role`]) — a mismatched generation is
//! refused, so a live (or already-reclaimed) worker's role can never be
//! stolen out from under it. A respawned worker then claims the next odd
//! generation and resumes over the same mapping. Anything the dead worker
//! left behind fails cleanly against the new epoch: its arena descriptors
//! carry stale slot generations, and its futex arms cost at most one
//! bounded park. What it popped but never committed is still in its ring
//! slots: recovery rewinds `head` to the commit word and the replacement
//! reads it again.
//!
//! The header also carries a heartbeat eventcount ([`ShmSegment::heartbeat`])
//! a worker bumps per processed item and a watcher futex-parks on, plus a
//! cumulative commit word ([`ShmSegment::commit_word`]) — the cross-process
//! ack cursor that bounds the parent's
//! [`DescriptorSender`](crate::arena::DescriptorSender): a ring slot is
//! reused only once the worker has committed what it held.

use std::io;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{
    AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

use crate::eventcount::{EventCount, Wake};
use crate::fifo::{Consumer, Fifo, Home, LinkAlloc, Producer, Role, Slot};
use crate::futex::Futex;
use crate::ring::{Backing, Counters};
use crate::signal::Signal;

/// "RAFTSHM\0" — first eight bytes of every segment.
pub const SEG_MAGIC: u64 = 0x5241_4654_5348_4d00;
/// Bumped on any incompatible layout or protocol change; attach requires
/// equality. Schema 2 added generation-bumped role reclaim and the
/// heartbeat/commit supervision words — a schema-1 peer would treat a
/// revoked role word as "claimed forever", so the bump keeps mixed builds
/// from silently disagreeing about liveness. Schema 3 widened the ring slot
/// from a bare `T` to [`SegSlot<T>`] (element + signal word).
pub const SEG_SCHEMA: u32 = 3;
/// Header `kind` for an SPSC ring segment.
pub const SEG_KIND_RING: u32 = 1;
/// Header `kind` for an arena segment (see [`crate::arena`]).
pub const SEG_KIND_ARENA: u32 = 2;

/// Byte offsets of the fixed segment prelude. The header occupies the
/// first cache line; the head and tail counters each get their own line
/// (the producer's tail stores must not invalidate the line the consumer
/// spins on); the fourth line holds the close flags, futex waker words,
/// role-claim words and the supervision words. Data begins at
/// [`DATA_OFFSET`] (or higher if the element alignment demands it).
const OFF_MAGIC: usize = 0;
const OFF_SCHEMA: usize = 8;
const OFF_KIND: usize = 12;
const OFF_CAPACITY: usize = 16;
const OFF_ELEM_SIZE: usize = 24;
const OFF_ELEM_ALIGN: usize = 32;
const OFF_TOTAL_LEN: usize = 40;
const OFF_DATA_OFFSET: usize = 48;
const OFF_HEAD: usize = 64;
const OFF_TAIL: usize = 128;
const OFF_PRODUCER_CLOSED: usize = 192;
const OFF_CONSUMER_CLOSED: usize = 196;
const OFF_CONS_ARMED: usize = 200;
const OFF_CONS_SEQ: usize = 204;
const OFF_PROD_ARMED: usize = 208;
const OFF_PROD_SEQ: usize = 212;
const OFF_CLAIM_PRODUCER: usize = 216;
const OFF_CLAIM_CONSUMER: usize = 220;
/// Supervision words (schema 2): heartbeat eventcount (armed + seq) and
/// the worker's cumulative commit cursor. Bytes 224–231 and 248–255 are
/// reserved.
const OFF_HB_ARMED: usize = 232;
const OFF_HB_SEQ: usize = 236;
const OFF_COMMIT: usize = 240;
/// First data byte (for alignments ≤ 256).
pub const DATA_OFFSET: usize = 256;

const PAGE: usize = 4096;

fn align_up(n: usize, a: usize) -> usize {
    (n + a - 1) & !(a - 1)
}

// ---------------------------------------------------------------------------
// Raw syscalls (x86_64 Linux, no libc — affinity.rs idiom).
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod sys {
    use crate::futex::syscall;
    use std::io;

    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const MAP_SHARED: usize = 1;

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// `memfd_create(name, flags=0)`. No `MFD_CLOEXEC`: the fd must
    /// survive exec so spawned workers can attach by inherited number.
    pub fn memfd_create() -> io::Result<i32> {
        let name = b"raft-shm\0";
        // SAFETY: memfd_create (319) reads the NUL-terminated name and
        // takes no other pointers.
        check(unsafe { syscall(319, [name.as_ptr() as usize, 0, 0, 0, 0, 0]) }).map(|fd| fd as i32)
    }

    pub fn ftruncate(fd: i32, len: usize) -> io::Result<()> {
        // SAFETY: ftruncate (77) takes no pointers.
        check(unsafe { syscall(77, [fd as usize, len, 0, 0, 0, 0]) }).map(|_| ())
    }

    pub fn mmap_shared(fd: i32, len: usize) -> io::Result<*mut u8> {
        let prot = PROT_READ | PROT_WRITE;
        // SAFETY: mmap(NULL, len, RW, SHARED, fd, 0) (9) takes no pointers
        // in; the kernel picks the address. Failures come back as -errno in
        // [-4095, -1].
        check(unsafe { syscall(9, [0, len, prot, MAP_SHARED, fd as usize, 0]) })
            .map(|p| p as *mut u8)
    }

    /// # Safety
    /// `ptr..ptr+len` must be a live mapping created by [`mmap_shared`]
    /// and never touched again after this call.
    pub unsafe fn munmap(ptr: *mut u8, len: usize) {
        // SAFETY: munmap (11); caller contract — the range is a whole live
        // mapping.
        unsafe { syscall(11, [ptr as usize, len, 0, 0, 0, 0]) };
    }

    /// `dup(fd)` — attach duplicates the caller's fd so every segment
    /// owns (and closes) a distinct descriptor.
    pub fn dup(fd: i32) -> io::Result<i32> {
        // SAFETY: dup (32) takes no pointers.
        check(unsafe { syscall(32, [fd as usize, 0, 0, 0, 0, 0]) }).map(|fd| fd as i32)
    }

    pub fn close(fd: i32) {
        // SAFETY: close (3) takes no pointers.
        unsafe { syscall(3, [fd as usize, 0, 0, 0, 0, 0]) };
    }

    /// `fstat(fd).st_size` — the only field we need, at byte 48 of the
    /// x86_64 `struct stat`.
    pub fn fstat_size(fd: i32) -> io::Result<usize> {
        let mut statbuf = [0u8; 144];
        // SAFETY: fstat (5) writes at most 144 bytes (sizeof struct stat on
        // x86_64) into the live stack buffer.
        check(unsafe { syscall(5, [fd as usize, statbuf.as_mut_ptr() as usize, 0, 0, 0, 0]) })?;
        let mut size = [0u8; 8];
        size.copy_from_slice(&statbuf[48..56]);
        Ok(i64::from_ne_bytes(size) as usize)
    }
}

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

/// A mapped shared-memory segment with a validated, versioned header.
///
/// Created either over a `memfd` (cross-process capable, fd inheritable) or
/// over plain heap memory (same layout, single-process — the fallback for
/// non-Linux targets and for miri). All protocol words live at fixed
/// offsets in the first four cache lines; see the `OFF_*` constants.
pub struct ShmSegment {
    ptr: *mut u8,
    len: usize,
    /// Backing memfd, or `-1` when heap-backed.
    fd: i32,
    /// Set for heap backing so `Drop` can deallocate.
    heap: Option<std::alloc::Layout>,
    // Local snapshot of the header geometry, taken once at create/attach.
    // Bounds and pointer math use ONLY these fields — never the words in
    // the mapping, which a live peer can rewrite at any time (see the
    // trust model in the module docs).
    capacity: usize,
    elem_size: usize,
    elem_align: usize,
    data_offset: usize,
}

// SAFETY: the segment is a raw memory region; all concurrent access goes
// through atomics at fixed offsets or through the ring/arena protocols,
// which impose their own ordering. Moving or sharing the owning struct
// does not move the mapping.
unsafe impl Send for ShmSegment {}
// SAFETY: see Send — `&ShmSegment` only hands out atomic views and raw
// pointers whose use sites carry their own safety contracts.
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    /// `true` when this build can create real `memfd` segments.
    pub fn memfd_supported() -> bool {
        cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)))
    }

    fn layout_len(elem_align: usize, data_bytes: usize) -> (usize, usize) {
        let data_offset = align_up(DATA_OFFSET, elem_align.max(8));
        let total = align_up(data_offset + data_bytes, PAGE);
        (data_offset, total)
    }

    /// Create a memfd-backed segment (errors on unsupported platforms).
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    pub fn create(
        kind: u32,
        capacity: u64,
        elem_size: usize,
        elem_align: usize,
        data_bytes: usize,
    ) -> io::Result<ShmSegment> {
        let (data_offset, total) = Self::layout_len(elem_align, data_bytes);
        let fd = sys::memfd_create()?;
        if let Err(e) = sys::ftruncate(fd, total) {
            sys::close(fd);
            return Err(e);
        }
        let ptr = match sys::mmap_shared(fd, total) {
            Ok(p) => p,
            Err(e) => {
                sys::close(fd);
                return Err(e);
            }
        };
        let seg = ShmSegment {
            ptr,
            len: total,
            fd,
            heap: None,
            capacity: capacity as usize,
            elem_size,
            elem_align,
            data_offset,
        };
        seg.init_header(kind, capacity, elem_size, elem_align, data_offset);
        Ok(seg)
    }

    /// Unsupported platform: always an error (callers fall back to
    /// [`ShmSegment::create_heap`]).
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    pub fn create(
        _kind: u32,
        _capacity: u64,
        _elem_size: usize,
        _elem_align: usize,
        _data_bytes: usize,
    ) -> io::Result<ShmSegment> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memfd segments require x86_64 Linux",
        ))
    }

    /// Create a heap-backed segment with the identical layout. Works on
    /// every platform (and under miri); cannot cross a process boundary.
    pub fn create_heap(
        kind: u32,
        capacity: u64,
        elem_size: usize,
        elem_align: usize,
        data_bytes: usize,
    ) -> ShmSegment {
        let (data_offset, total) = Self::layout_len(elem_align, data_bytes);
        let layout = std::alloc::Layout::from_size_align(total, PAGE).expect("segment layout");
        // SAFETY: layout has non-zero size (total ≥ one page).
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "segment allocation failed");
        let seg = ShmSegment {
            ptr,
            len: total,
            fd: -1,
            heap: Some(layout),
            capacity: capacity as usize,
            elem_size,
            elem_align,
            data_offset,
        };
        seg.init_header(kind, capacity, elem_size, elem_align, data_offset);
        seg
    }

    fn init_header(
        &self,
        kind: u32,
        capacity: u64,
        elem_size: usize,
        elem_align: usize,
        data_offset: usize,
    ) {
        // Creation is single-threaded (the segment has not been shared
        // yet), so plain writes through the word views are fine; the first
        // share (fd pass / Arc clone) provides the ordering.
        self.u64_at(OFF_MAGIC).store(SEG_MAGIC, Relaxed);
        self.u32_at(OFF_SCHEMA).store(SEG_SCHEMA, Relaxed);
        self.u32_at(OFF_KIND).store(kind, Relaxed);
        self.u64_at(OFF_CAPACITY).store(capacity, Relaxed);
        self.u64_at(OFF_ELEM_SIZE).store(elem_size as u64, Relaxed);
        self.u64_at(OFF_ELEM_ALIGN)
            .store(elem_align as u64, Relaxed);
        self.u64_at(OFF_TOTAL_LEN).store(self.len as u64, Relaxed);
        self.u64_at(OFF_DATA_OFFSET)
            .store(data_offset as u64, Relaxed);
    }

    /// Map an inherited fd and validate its header against expectations.
    ///
    /// Rejects (with `InvalidData`) any magic/schema mismatch, a `kind`
    /// other than `expect_kind`, or a header whose total length disagrees
    /// with the file's actual size — a truncated or foreign segment never
    /// gets a single protocol access. The chaos harness can fail this call
    /// via the `buffer::shm::attach` failpoint.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    pub fn attach(fd: i32, expect_kind: u32) -> io::Result<ShmSegment> {
        crate::failpoint!("buffer::shm::attach");
        #[cfg(feature = "raft_failpoints")]
        if matches!(
            crate::failpoints::check("buffer::shm::attach"),
            Some(crate::failpoints::FailAction::ShortIo)
        ) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "failpoint: segment attach rejected",
            ));
        }
        // Own a private duplicate: the caller keeps its fd, and this
        // segment's Drop closes only what it owns.
        let fd = sys::dup(fd)?;
        let total = match sys::fstat_size(fd) {
            Ok(t) => t,
            Err(e) => {
                sys::close(fd);
                return Err(e);
            }
        };
        if total < DATA_OFFSET || total % PAGE != 0 {
            sys::close(fd);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment too small or unaligned",
            ));
        }
        let ptr = match sys::mmap_shared(fd, total) {
            Ok(p) => p,
            Err(e) => {
                sys::close(fd);
                return Err(e);
            }
        };
        let mut seg = ShmSegment {
            ptr,
            len: total,
            fd,
            heap: None,
            capacity: 0,
            elem_size: 0,
            elem_align: 0,
            data_offset: 0,
        };
        // Read the header geometry exactly once, validated, and freeze it
        // into the local fields; nothing re-reads it afterwards.
        seg.snapshot_header(expect_kind)?;
        Ok(seg)
    }

    /// Unsupported platform: attach always fails.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    pub fn attach(_fd: i32, _expect_kind: u32) -> io::Result<ShmSegment> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memfd segments require x86_64 Linux",
        ))
    }

    /// Validate the mapped header once and copy its geometry into the
    /// local fields. Called only from `attach`; the header is never read
    /// again after this returns.
    #[cfg_attr(
        not(all(target_os = "linux", target_arch = "x86_64", not(miri))),
        allow(dead_code)
    )]
    fn snapshot_header(&mut self, expect_kind: u32) -> io::Result<()> {
        let fail = |what: &str| Err(io::Error::new(io::ErrorKind::InvalidData, what.to_string()));
        if self.u64_at(OFF_MAGIC).load(Relaxed) != SEG_MAGIC {
            return fail("bad segment magic");
        }
        if self.u32_at(OFF_SCHEMA).load(Relaxed) != SEG_SCHEMA {
            return fail("segment schema version mismatch");
        }
        if self.u32_at(OFF_KIND).load(Relaxed) != expect_kind {
            return fail("segment kind mismatch");
        }
        if self.u64_at(OFF_TOTAL_LEN).load(Relaxed) != self.len as u64 {
            return fail("segment length disagrees with header");
        }
        let elem_align = self.u64_at(OFF_ELEM_ALIGN).load(Relaxed) as usize;
        if elem_align == 0 || !elem_align.is_power_of_two() {
            return fail("segment element alignment not a power of two");
        }
        let data_offset = self.u64_at(OFF_DATA_OFFSET).load(Relaxed) as usize;
        if data_offset < DATA_OFFSET || data_offset > self.len {
            return fail("segment data offset out of range");
        }
        // Misaligned data would turn every slot (and the arena's atomic
        // generation words) into UB, not a clean error — reject it here.
        if !data_offset.is_multiple_of(elem_align.max(8)) {
            return fail("segment data offset misaligned for element");
        }
        self.capacity = self.u64_at(OFF_CAPACITY).load(Relaxed) as usize;
        self.elem_size = self.u64_at(OFF_ELEM_SIZE).load(Relaxed) as usize;
        self.elem_align = elem_align;
        self.data_offset = data_offset;
        Ok(())
    }

    /// The inheritable backing fd (`None` for heap segments).
    pub fn fd(&self) -> Option<i32> {
        (self.fd >= 0).then_some(self.fd)
    }

    /// `true` when backed by a real memfd (cross-process capable).
    pub fn is_memfd(&self) -> bool {
        self.fd >= 0
    }

    /// Element capacity (local snapshot taken at create/attach).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Element size (local snapshot taken at create/attach).
    pub fn elem_size(&self) -> usize {
        self.elem_size
    }

    /// Element alignment (local snapshot taken at create/attach).
    pub fn elem_align(&self) -> usize {
        self.elem_align
    }

    /// Bytes available in the data region.
    pub fn data_len(&self) -> usize {
        self.len - self.data_offset
    }

    /// First byte of the data region.
    pub fn data_ptr(&self) -> *mut u8 {
        // In-bounds by construction: data_offset ≤ len, and it is a local
        // field (validated once at attach, computed at create) that a peer
        // rewriting the header word cannot move.
        self.ptr.wrapping_add(self.data_offset)
    }

    #[inline]
    fn u64_at(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.len && off.is_multiple_of(8));
        // SAFETY: the prelude offsets are all within the first page of a
        // mapping at least one page long, 8-aligned on a page-aligned
        // base; AtomicU64 has the same layout as u64 and any bit pattern
        // is valid. The returned borrow cannot outlive the mapping
        // (lifetime tied to &self, Drop unmaps only with exclusive access).
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    #[inline]
    fn u32_at(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= self.len && off.is_multiple_of(4));
        // SAFETY: as `u64_at`, with 4-byte alignment.
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    /// Shared ring head (next read index).
    #[inline]
    pub fn head(&self) -> &AtomicU64 {
        self.u64_at(OFF_HEAD)
    }

    /// Shared ring tail (next write index).
    #[inline]
    pub fn tail(&self) -> &AtomicU64 {
        self.u64_at(OFF_TAIL)
    }

    /// Producer-gone flag.
    #[inline]
    pub fn producer_closed(&self) -> &AtomicU32 {
        self.u32_at(OFF_PRODUCER_CLOSED)
    }

    /// Consumer-gone flag.
    #[inline]
    pub fn consumer_closed(&self) -> &AtomicU32 {
        self.u32_at(OFF_CONSUMER_CLOSED)
    }

    /// Eventcount the producer notifies when data becomes visible.
    #[inline]
    pub fn consumer_waker(&self) -> EventCount<Futex<'_>> {
        EventCount::futex(self.u32_at(OFF_CONS_ARMED), self.u32_at(OFF_CONS_SEQ))
    }

    /// Eventcount the consumer notifies when space becomes visible.
    #[inline]
    pub fn producer_waker(&self) -> EventCount<Futex<'_>> {
        EventCount::futex(self.u32_at(OFF_PROD_ARMED), self.u32_at(OFF_PROD_SEQ))
    }

    /// The ring [`Backing`] whose counters are this segment's `head`/`tail`
    /// and whose `capacity` (a power of two) slots of `T` start `offset`
    /// bytes into the data region.
    ///
    /// The caller vouches that `offset + capacity * size_of::<T>()` lies
    /// inside the data region and that `offset` is aligned for `T` (ring
    /// attach validates exactly this; the arena derives it from validated
    /// geometry).
    #[inline]
    pub(crate) fn ring_at<T: ShmItem>(&self, offset: usize, capacity: usize) -> SegRing<'_, T> {
        debug_assert!(capacity.is_power_of_two());
        debug_assert!(offset + capacity * std::mem::size_of::<T>() <= self.data_len());
        SegRing {
            seg: self,
            base: self.data_ptr().wrapping_add(offset).cast::<T>(),
            mask: capacity - 1,
        }
    }

    #[inline]
    fn role_word(&self, producer: bool) -> &AtomicU32 {
        self.u32_at(if producer {
            OFF_CLAIM_PRODUCER
        } else {
            OFF_CLAIM_CONSUMER
        })
    }

    /// Claim the producer or consumer role; `false` means another handle
    /// (possibly in another process) currently holds it. See
    /// [`Self::claim_role_generation`] for the generation protocol.
    pub fn claim_role(&self, producer: bool) -> bool {
        self.claim_role_generation(producer).is_some()
    }

    /// Claim a role and return the odd generation the claim landed on.
    ///
    /// The role word is a generation counter: even = free, odd = claimed.
    /// The claim CASes the current even value to the next odd one, so a
    /// role that was revoked after a worker death ([`Self::revoke_role`])
    /// is claimable again — at a *new* generation, which is what makes the
    /// dead worker's leftovers detectable as stale.
    pub fn claim_role_generation(&self, producer: bool) -> Option<u32> {
        let word = self.role_word(producer);
        let mut cur = word.load(Relaxed);
        loop {
            if cur & 1 == 1 {
                return None; // currently claimed
            }
            let next = cur.wrapping_add(1);
            match word.compare_exchange(cur, next, Acquire, Relaxed) {
                Ok(_) => return Some(next),
                Err(now) => cur = now,
            }
        }
    }

    /// Current role-word value (odd = claimed, even = free). The value a
    /// supervisor snapshots before attempting [`Self::revoke_role`].
    pub fn role_generation(&self, producer: bool) -> u32 {
        self.role_word(producer).load(Acquire)
    }

    /// Revoke a dead holder's role claim: CAS the exact odd generation
    /// `expected` back to even, freeing the role for a respawned worker.
    ///
    /// Returns the new (even) generation on success and the *current* word
    /// value on refusal. Refusals are the trust model: a caller may only
    /// revoke a generation it observed from a worker it has itself killed
    /// and reaped — if the word moved (the role was already reclaimed and
    /// re-claimed, or `expected` never was the live claim), the CAS fails
    /// rather than yanking a live worker's role.
    pub fn revoke_role(&self, producer: bool, expected: u32) -> Result<u32, u32> {
        if expected & 1 == 0 {
            return Err(self.role_generation(producer));
        }
        let next = expected.wrapping_add(1);
        match self
            .role_word(producer)
            .compare_exchange(expected, next, Acquire, Acquire)
        {
            Ok(_) => Ok(next),
            Err(cur) => Err(cur),
        }
    }

    /// Clear one side's closed flag — the respawn path's "reopen": the
    /// supervisor wrote the dead worker's closed flag at reap time (so
    /// blocked peers unpark promptly) and clears it here, after the role
    /// is revoked and before the replacement worker is spawned.
    pub fn reopen_role(&self, producer: bool) {
        if producer {
            self.producer_closed().store(0, Release);
        } else {
            self.consumer_closed().store(0, Release);
        }
    }

    /// Cross-process heartbeat over the header's eventcount words.
    #[inline]
    pub fn heartbeat(&self) -> Heartbeat<'_> {
        EventCount::futex(self.u32_at(OFF_HB_ARMED), self.u32_at(OFF_HB_SEQ))
    }

    /// The worker's cumulative commit cursor: how many ring elements it
    /// has *fully processed* (results published), i.e. the ring position of
    /// the first it has not. The parent's
    /// [`DescriptorSender`](crate::arena::DescriptorSender) overwrites no
    /// ring slot at or after it and rewinds `head` to it when the worker
    /// dies; a worker
    /// that dies between publishing a result and bumping this word is
    /// re-delivered the element, and the duplicate result is deduplicated by
    /// its sequence number downstream.
    #[inline]
    pub fn commit_word(&self) -> &AtomicU64 {
        self.u64_at(OFF_COMMIT)
    }
}

/// The segment's heartbeat: an [`EventCount`] over two header words, the
/// same [`Futex`] backend the ring's wakers use, plus a
/// **level-preserving** [`beat`](EventCount::beat): every beat bumps `seq`
/// whether or not a watcher is armed, because the count itself is the
/// liveness signal (a claimed-arm-only bump would let beats land invisibly
/// between arms and a healthy worker would read as wedged).
///
/// Watcher protocol: the eventcount's own — `let epoch = arm();` if
/// `epoch` moved since the last observation the worker is alive (`disarm`
/// and record it), otherwise `wait(epoch, slice)` futex-parks until the
/// next beat or the bounded slice elapses. The kernel sleeps only while
/// `seq == epoch`, so a beat that lands after the arm is never slept
/// through.
pub type Heartbeat<'a> = EventCount<Futex<'a>>;

impl EventCount<Futex<'_>> {
    /// Worker side: bump the count, then wake an armed watcher. An
    /// unarmed beat costs the `fetch_add`, a fence and one load.
    #[inline]
    pub fn beat(&self) {
        self.backend().seq().fetch_add(1, Release);
        self.notify();
    }

    /// Current beat count.
    #[inline]
    pub fn count(&self) -> u32 {
        self.backend().seq().load(Acquire)
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        match self.heap {
            Some(layout) => {
                // SAFETY: allocated in create_heap with this exact layout;
                // Drop has exclusive access, so no views remain.
                unsafe { std::alloc::dealloc(self.ptr, layout) };
            }
            None => {
                #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
                {
                    // SAFETY: ptr/len are the live mapping created by
                    // create/attach; nothing touches it after Drop.
                    unsafe { sys::munmap(self.ptr, self.len) };
                    sys::close(self.fd);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ShmItem
// ---------------------------------------------------------------------------

/// Plain-old-data that may cross a process boundary through a shared ring.
///
/// # Safety
/// Implementors must be `Copy` types for which **every bit pattern is a
/// valid value** and whose meaning does not depend on the address space
/// (no pointers, no handles, no padding with invariants). The ring reads
/// elements straight out of shared memory; a type that violates this can
/// turn a byzantine peer into undefined behavior.
pub unsafe trait ShmItem: Copy + Send + 'static {}

macro_rules! shm_items {
    ($($t:ty)*) => {$(
        // SAFETY: fixed-width integers and floats are address-space-
        // independent and valid for every bit pattern.
        unsafe impl ShmItem for $t {}
    )*};
}
shm_items!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize f32 f64);
// SAFETY: an array of ShmItems has no padding invariants of its own.
unsafe impl<T: ShmItem, const N: usize> ShmItem for [T; N] {}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

/// The [`Backing`] a segment offers the ring protocol: `head`/`tail` are
/// the prelude's counter words, the slots are `T`s somewhere in the data
/// region (see `ShmSegment::ring_at`). Every index is masked before use,
/// so whatever a byzantine peer does to the counters, slot pointers stay
/// inside the region validated at attach.
pub struct SegRing<'a, T> {
    seg: &'a ShmSegment,
    base: *mut T,
    mask: usize,
}

impl<T> Counters for SegRing<'_, T> {
    type Counter = AtomicU64;
    #[inline]
    fn head(&self) -> &AtomicU64 {
        self.seg.head()
    }
    #[inline]
    fn tail(&self) -> &AtomicU64 {
        self.seg.tail()
    }
}

// SAFETY: `mask` is fixed at construction from snapshotted geometry; `slot`
// offsets `base` by the masked index, which `ring_at`'s caller vouched stays
// inside the mapped data region — distinct `T`-sized cells per index.
unsafe impl<T: ShmItem> Backing for SegRing<'_, T> {
    type Item = T;
    #[inline]
    fn capacity(&self) -> usize {
        self.mask + 1
    }
    #[inline]
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<T>) -> R) -> R {
        // Masked index: always inside the region `ring_at` was vouched for.
        // Slots are POD (`ShmItem`: any bit pattern is a value), so even a
        // slot the cursor protocol was lied to about reads as garbage, not
        // as UB.
        f(self.base.wrapping_add(idx & self.mask).cast())
    }
}

/// One slot of a ring segment (schema 3): the element followed by its
/// synchronous signal as a raw word. [`Signal`] is an enum, so it crosses
/// the boundary through [`Signal::encode`] and comes back through
/// [`Signal::decode`], where a word no encoder produces reads as
/// [`Signal::None`] — a byzantine peer delivers garbage values, never an
/// invalid discriminant.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct SegSlot<T> {
    value: T,
    signal: u64,
}

impl<T: ShmItem> Slot<T> for SegSlot<T> {
    #[inline]
    fn pack(value: T, signal: Signal) -> Self {
        SegSlot {
            value,
            signal: signal.encode(),
        }
    }
    #[inline]
    fn unpack(self) -> (T, Signal) {
        (self.value, self.signal())
    }
    #[inline]
    fn value(&self) -> &T {
        &self.value
    }
    #[inline]
    fn value_mut(&mut self) -> &mut T {
        &mut self.value
    }
    #[inline]
    fn signal(&self) -> Signal {
        Signal::decode(self.signal).unwrap_or_default()
    }
    #[inline]
    fn set_signal(&mut self, signal: Signal) {
        self.signal = signal.encode();
    }
}

/// The segment [`Home`]: `head`/`tail`, the closed flags and one
/// `(armed, seq)` futex eventcount per direction are the header words of an
/// attached ring segment, the slots fill its data region. The capacity is
/// fixed — a mapped segment cannot be swapped under a live peer — so there
/// is nothing to seal or follow.
pub struct Seg<T> {
    seg: Arc<ShmSegment>,
    /// First slot and index mask, from the geometry snapshotted at
    /// create/attach (never re-read from the mapping).
    base: *mut SegSlot<T>,
    mask: usize,
}

// SAFETY: `base` points into the mapping `seg` keeps alive; slots are only
// touched through the head/tail protocol (written strictly before the
// Release store of `tail` that publishes them, read strictly after an
// Acquire load observes it), so the home may move to or be shared with
// another thread whenever the elements may.
unsafe impl<T: Send> Send for Seg<T> {}
// SAFETY: see `Send`.
unsafe impl<T: Send> Sync for Seg<T> {}

impl<T: ShmItem> Seg<T> {
    /// The home over a ring segment whose data region the caller has
    /// checked holds `capacity` (a power of two) aligned `SegSlot<T>`s.
    fn over(seg: Arc<ShmSegment>) -> Self {
        debug_assert!(seg.capacity().is_power_of_two());
        debug_assert!(seg.capacity() * std::mem::size_of::<SegSlot<T>>() <= seg.data_len());
        Seg {
            base: seg.data_ptr().cast(),
            mask: seg.capacity() - 1,
            seg,
        }
    }

    /// The backing segment.
    pub(crate) fn segment(&self) -> &Arc<ShmSegment> {
        &self.seg
    }
}

// SAFETY: `head`/`tail` are fixed header words; `mask` is fixed at
// construction from snapshotted geometry and every index is masked, so
// whatever a byzantine peer does to the counters, slot pointers stay inside
// the region validated at attach — distinct `SegSlot<T>` cells per index.
// Slots are POD (`ShmItem` plus a raw word: any bit pattern is a value), so
// even a slot the cursor protocol was lied to about reads as garbage, not
// as UB.
unsafe impl<T: ShmItem> Home<T> for Seg<T> {
    type Slot = SegSlot<T>;
    type Counter = AtomicU64;
    type Wake<'a>
        = Futex<'a>
    where
        T: 'a;
    const ALLOC: LinkAlloc = LinkAlloc::Shm;

    #[inline]
    fn head(&self) -> &AtomicU64 {
        self.seg.head()
    }
    #[inline]
    fn tail(&self) -> &AtomicU64 {
        self.seg.tail()
    }
    #[inline]
    fn producer_closed(&self) -> bool {
        self.seg.producer_closed().load(Acquire) == 1
    }
    #[inline]
    fn consumer_closed(&self) -> bool {
        self.seg.consumer_closed().load(Relaxed) == 1
    }
    fn set_closed(&self, role: Role) {
        match role {
            Role::Producer => self.seg.producer_closed().store(1, Release),
            Role::Consumer => self.seg.consumer_closed().store(1, Release),
        }
    }
    #[inline]
    fn event(&self, role: Role) -> EventCount<Futex<'_>> {
        match role {
            Role::Producer => self.seg.producer_waker(),
            Role::Consumer => self.seg.consumer_waker(),
        }
    }
    #[inline]
    fn capacity(&self, _role: Role) -> usize {
        self.mask + 1
    }
    #[inline]
    unsafe fn slot(&self, _role: Role, idx: usize) -> *mut MaybeUninit<SegSlot<T>> {
        self.base.wrapping_add(idx & self.mask).cast()
    }
}

/// Factory for shared-memory SPSC rings of `T`: constructors that return
/// the crate's one pair of endpoints ([`Producer`]/[`Consumer`]) over the
/// segment home. The two handles may live in different processes,
/// connected by the segment fd.
pub struct ShmRing<T>(PhantomData<T>);

/// Producing half of a [`ShmRing`]; one per segment, enforced by a
/// CAS-claimed role word in the header.
pub type ShmRingProducer<T> = Producer<T, Seg<T>>;

/// Consuming half of a [`ShmRing`].
pub type ShmRingConsumer<T> = Consumer<T, Seg<T>>;

impl<T: ShmItem> ShmRing<T> {
    fn ring_segment(capacity: usize, memfd: bool) -> io::Result<ShmSegment> {
        let capacity = capacity.max(1).next_power_of_two();
        // The header records the *element's* layout (what two builds must
        // agree on); the slot stride follows from it on both sides.
        let (size, align) = (std::mem::size_of::<T>(), std::mem::align_of::<T>());
        let bytes = capacity * std::mem::size_of::<SegSlot<T>>();
        if memfd {
            ShmSegment::create(SEG_KIND_RING, capacity as u64, size, align, bytes)
        } else {
            Ok(ShmSegment::create_heap(
                SEG_KIND_RING,
                capacity as u64,
                size,
                align,
                bytes,
            ))
        }
    }

    /// In-process pair over one segment (memfd when available, heap
    /// otherwise) — the single-address-space configuration used by tests
    /// and the descriptor bench.
    #[allow(clippy::new_ret_no_self)]
    pub fn pair(capacity: usize) -> (ShmRingProducer<T>, ShmRingConsumer<T>) {
        let memfd = ShmSegment::memfd_supported();
        let seg = Arc::new(Self::ring_segment(capacity, memfd).unwrap_or_else(|_| {
            Self::ring_segment(capacity, false).expect("heap ring segment cannot fail")
        }));
        assert!(seg.claim_role(true) && seg.claim_role(false));
        let link = Fifo::over(Seg::over(seg));
        // SAFETY: both CAS-claimed roles of the fresh segment are ours.
        unsafe { (link.producer(), link.consumer()) }
    }

    /// A fresh memfd ring with one role claimed, and its fd.
    fn create(capacity: usize, producer: bool) -> io::Result<(Fifo<T, Seg<T>>, i32)> {
        let seg = Self::ring_segment(capacity, true)?;
        let fd = seg.fd().expect("memfd segment has an fd");
        assert!(seg.claim_role(producer), "fresh segment role");
        Ok((Fifo::over(Seg::over(Arc::new(seg))), fd))
    }

    /// Create a memfd ring and take the producer role; pass the returned
    /// fd to the peer process for [`ShmRing::attach_consumer`].
    pub fn create_producer(capacity: usize) -> io::Result<(ShmRingProducer<T>, i32)> {
        // SAFETY: `create` claimed the segment's producer role, so no other
        // producer endpoint exists, even in another process.
        Self::create(capacity, true).map(|(link, fd)| (unsafe { link.producer() }, fd))
    }

    /// Create a memfd ring and take the consumer role (for result paths
    /// flowing child → parent).
    pub fn create_consumer(capacity: usize) -> io::Result<(ShmRingConsumer<T>, i32)> {
        // SAFETY: as `create_producer`, for the consumer role.
        Self::create(capacity, false).map(|(link, fd)| (unsafe { link.consumer() }, fd))
    }

    /// Attach to an inherited fd as the producer. Validates the header
    /// (magic, schema, kind, capacity, element layout) and claims the
    /// producer role; both can fail cleanly.
    pub fn attach_producer(fd: i32) -> io::Result<ShmRingProducer<T>> {
        // SAFETY: `attach_ring` claimed the producer role.
        Self::attach_ring(fd, true).map(|link| unsafe { link.producer() })
    }

    /// Attach to an inherited fd as the consumer (see
    /// [`ShmRing::attach_producer`]).
    pub fn attach_consumer(fd: i32) -> io::Result<ShmRingConsumer<T>> {
        // SAFETY: `attach_ring` claimed the consumer role.
        Self::attach_ring(fd, false).map(|link| unsafe { link.consumer() })
    }

    fn attach_ring(fd: i32, producer: bool) -> io::Result<Fifo<T, Seg<T>>> {
        let seg = ShmSegment::attach(fd, SEG_KIND_RING)?;
        let cap = seg.capacity();
        let fail = |what: &str| Err(io::Error::new(io::ErrorKind::InvalidData, what.to_string()));
        if !cap.is_power_of_two() {
            return fail("ring capacity not a power of two");
        }
        if seg.elem_size() != std::mem::size_of::<T>()
            || seg.elem_align() != std::mem::align_of::<T>()
        {
            return fail("ring element layout mismatch");
        }
        match cap.checked_mul(std::mem::size_of::<SegSlot<T>>()) {
            Some(bytes) if bytes <= seg.data_len() => {}
            _ => return fail("ring data region smaller than capacity"),
        }
        if !seg.claim_role(producer) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                "ring role already claimed",
            ));
        }
        Ok(Fifo::over(Seg::over(Arc::new(seg))))
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::error::TryPushError;
    use std::time::Duration;

    #[test]
    fn heap_segment_layout_roundtrip() {
        let seg = ShmSegment::create_heap(SEG_KIND_RING, 8, 8, 8, 64);
        assert_eq!(seg.capacity(), 8);
        assert_eq!(seg.elem_size(), 8);
        assert!(!seg.is_memfd());
        assert!(seg.data_len() >= 64);
        assert_eq!(seg.data_ptr() as usize % 8, 0);
    }

    #[test]
    fn memfd_segment_create_and_attach() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        let seg = ShmSegment::create(SEG_KIND_RING, 16, 4, 4, 64).unwrap();
        let fd = seg.fd().unwrap();
        seg.commit_word().store(0xBEEF, Release);
        // Second mapping of the same fd sees the first one's writes.
        let peer = ShmSegment::attach(fd, SEG_KIND_RING).unwrap();
        assert_eq!(peer.commit_word().load(Acquire), 0xBEEF);
        assert_eq!(peer.capacity(), 16);
        // Kind mismatch rejected.
        assert!(ShmSegment::attach(fd, SEG_KIND_ARENA).is_err());
        // attach dups the fd, so each segment closes its own descriptor.
        drop(peer);
        drop(seg);
    }

    #[test]
    fn role_claims_are_exclusive() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        let (p, fd) = ShmRing::<u64>::create_producer(8).unwrap();
        // Producer role is taken; attaching as producer must fail, as
        // consumer must succeed exactly once.
        assert!(ShmRing::<u64>::attach_producer(fd).is_err());
        let c = ShmRing::<u64>::attach_consumer(fd).unwrap();
        assert!(ShmRing::<u64>::attach_consumer(fd).is_err());
        drop((p, c));
    }

    #[test]
    fn geometry_snapshot_ignores_header_rewrites() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        // Attach a peer, then scribble over the header the way a byzantine
        // process could: the peer's snapshotted geometry must not move.
        let seg = ShmSegment::create(SEG_KIND_RING, 16, 8, 8, 128).unwrap();
        let peer = ShmSegment::attach(seg.fd().unwrap(), SEG_KIND_RING).unwrap();
        let (ptr, len, cap) = (peer.data_ptr(), peer.data_len(), peer.capacity());
        seg.u64_at(OFF_DATA_OFFSET).store(u64::MAX, Relaxed);
        seg.u64_at(OFF_CAPACITY).store(u64::MAX, Relaxed);
        seg.u64_at(OFF_ELEM_SIZE).store(u64::MAX, Relaxed);
        assert_eq!(peer.data_ptr(), ptr);
        assert_eq!(peer.data_len(), len);
        assert_eq!(peer.capacity(), cap);
    }

    #[test]
    fn attach_rejects_misaligned_data_offset() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        let seg = ShmSegment::create(SEG_KIND_RING, 16, 8, 8, 128).unwrap();
        let fd = seg.fd().unwrap();
        // data_offset = 260: in range, 4-aligned, but not 8-aligned — slot
        // reads of u64 would be UB, so attach must reject it cleanly.
        seg.u64_at(OFF_DATA_OFFSET).store(260, Relaxed);
        assert!(ShmSegment::attach(fd, SEG_KIND_RING).is_err());
        // Non-power-of-two element alignment is rejected too.
        seg.u64_at(OFF_DATA_OFFSET)
            .store(DATA_OFFSET as u64, Relaxed);
        seg.u64_at(OFF_ELEM_ALIGN).store(24, Relaxed);
        assert!(ShmSegment::attach(fd, SEG_KIND_RING).is_err());
        // Restoring the header makes attach succeed again.
        seg.u64_at(OFF_ELEM_ALIGN).store(8, Relaxed);
        assert!(ShmSegment::attach(fd, SEG_KIND_RING).is_ok());
    }

    #[test]
    fn attach_rejects_an_older_schema() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        // Schema 2 rings held bare `T` slots: a schema-3 attacher reading
        // them as `SegSlot<T>` would take every other element for a signal
        // word. The equality check refuses, and the fd stays attachable.
        let (p, fd) = ShmRing::<u64>::create_producer(8).unwrap();
        let schema = p.segment().u32_at(OFF_SCHEMA);
        schema.store(2, Relaxed);
        let refused = ShmRing::<u64>::attach_consumer(fd).err().unwrap();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        schema.store(SEG_SCHEMA, Relaxed);
        assert!(ShmRing::<u64>::attach_consumer(fd).is_ok());
    }

    #[test]
    fn attach_rejects_element_layout_mismatch() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        // `SegSlot<u64>` and `SegSlot<u32>` are both 16 bytes, 8-aligned:
        // the header records the element's own layout, so the two still
        // disagree.
        let (_p, fd) = ShmRing::<u64>::create_producer(8).unwrap();
        assert!(ShmRing::<u32>::attach_consumer(fd).is_err());
        assert!(ShmRing::<[u32; 2]>::attach_consumer(fd).is_err());
    }

    #[test]
    fn role_generations_reclaim_after_revoke() {
        let seg = ShmSegment::create_heap(SEG_KIND_RING, 8, 8, 8, 64);
        // Fresh segment: claim succeeds at generation 1, double-claim fails.
        assert_eq!(seg.claim_role_generation(true), Some(1));
        assert_eq!(seg.claim_role_generation(true), None);
        assert_eq!(seg.role_generation(true), 1);
        // Revoking a *live* role at a stale generation is refused: the
        // supervisor must have observed the current odd generation from a
        // worker it killed and reaped, not a guess.
        assert_eq!(seg.revoke_role(true, 3), Err(1));
        assert_eq!(seg.revoke_role(true, 0), Err(1));
        assert_eq!(seg.role_generation(true), 1);
        // Revoke at the observed generation frees the role (now even)...
        assert_eq!(seg.revoke_role(true, 1), Ok(2));
        // ...and revoking twice is refused (word is even = unclaimed).
        assert_eq!(seg.revoke_role(true, 2), Err(2));
        // The replacement claims at the next odd generation.
        assert_eq!(seg.claim_role_generation(true), Some(3));
        // Roles are independent per side.
        assert_eq!(seg.claim_role_generation(false), Some(1));
    }

    #[test]
    fn rewound_head_keeps_pushes_off_the_uncommitted_slots() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        // The rewind moves the *shared* head backward, which only a
        // consumer whose cursor is gone (dead + revoked) can tolerate — so
        // the test follows the real reap sequence, not a live consumer.
        let (mut p, fd) = ShmRing::<u64>::create_producer(4).unwrap();
        let mut c = ShmRing::<u64>::attach_consumer(fd).unwrap();
        for i in 0..6u64 {
            p.try_push(i).unwrap();
            if i < 4 {
                assert_eq!(c.try_pop().unwrap(), i);
            }
        }
        let gen = p.segment().role_generation(false);
        std::mem::forget(c);
        assert_eq!(p.segment().revoke_role(false, gen), Ok(gen + 1));
        // 2.. were never committed: the ring still holds them in order.
        assert_eq!(p.rewind_head(2), [2, 3, 4, 5]);
        // Full again. The producer last read head at 4: a head cache left
        // there would see room and overwrite 2 and 3.
        assert!(matches!(p.try_push(6), Err(TryPushError::Full(6))));
        p.segment().reopen_role(false);
        let mut c2 = ShmRing::<u64>::attach_consumer(fd).unwrap();
        for i in 2..6u64 {
            assert_eq!(c2.try_pop().unwrap(), i);
        }
        p.try_push(6).unwrap();
        assert_eq!(c2.try_pop().unwrap(), 6);
    }

    #[test]
    fn heartbeat_beats_are_level_preserving() {
        let seg = ShmSegment::create_heap(SEG_KIND_RING, 8, 8, 8, 64);
        let hb = seg.heartbeat();
        // Beats land even with no watcher armed — a watcher arming later
        // still sees progress (this is what FutexWaker::notify would lose).
        hb.beat();
        hb.beat();
        assert_eq!(hb.count(), 2);
        let epoch = hb.arm();
        assert_eq!(epoch, 2);
        hb.beat();
        assert_ne!(hb.count(), epoch);
        // An armed watcher whose epoch is already stale must not block.
        assert!(!hb.wait(epoch, Duration::from_millis(50)) || hb.count() != epoch);
        hb.disarm();
    }
}
