//! Pass-by-descriptor payload arena inside a shared segment.
//!
//! Rings move fixed-size elements; real workloads move `Vec<u8>`-class
//! payloads. Copying each payload through ring slots costs a memcpy per
//! hop (BENCH_fifo.json's `xthread_*` ceilings are exactly that memcpy).
//! The arena inverts this: the payload is written **once** into a slab
//! slot inside the segment, and what crosses the ring is a 16-byte
//! [`Descriptor`] — offset, length, slot, generation.
//!
//! ## Layout (segment kind = [`crate::shm::SEG_KIND_ARENA`])
//!
//! The data region holds three consecutive arrays, all derivable from the
//! header's `capacity` (slot count) and `elem_size` (slot size):
//!
//! ```text
//! [ generations: capacity × AtomicU32, 64-padded ]
//! [ free ring:   capacity.next_power_of_two() × u32, 64-padded ]
//! [ payloads:    capacity × slot_size bytes ]
//! ```
//!
//! ## Free-slot recycling
//!
//! Freed slots flow back from the consuming side ([`ArenaRx`]) to the
//! allocating side ([`ArenaTx`]) through an embedded SPSC **free ring** —
//! the [`crate::ring`] protocol over the segment's `head`/`tail` words and
//! the free-ring array, with Rx as its producer and Tx as its consumer. It is sized to the next power of two ≥ slot count, so with at
//! most `capacity` slots in flight it can never overflow.
//!
//! ## Generations catch use-after-free
//!
//! `generations[slot]` is even while the slot is free, odd while live.
//! [`ArenaTx::alloc`] bumps it odd and stamps the value into the
//! descriptor; [`ArenaRx::resolve`] and [`ArenaRx::free`] verify the stamp
//! still matches. A descriptor held past its `free` (use-after-free), a
//! double-free, or a descriptor forged/corrupted across the boundary all
//! land on a mismatched or even generation and are rejected as
//! [`ArenaError::Stale`] — turning the classic shared-memory lifetime bug
//! into a recoverable error return.
//!
//! ## Visibility contract
//!
//! The arena itself orders only the generation words. Payload bytes are
//! published by the **descriptor's ride through a ring**: the producer
//! writes the payload, then pushes the descriptor (Release store of the
//! ring tail); the consumer's Acquire pop makes the payload bytes visible
//! before `resolve` reads them. Handing a descriptor to the peer by any
//! channel without a release/acquire edge is outside the contract.
//!
//! ## Surviving a dead consumer
//!
//! A SIGKILL'd Rx process leaves live-generation slots it will never free
//! and possibly a half-finished free (generation flipped even, free-ring
//! entry never published). After the supervisor has reaped the worker and
//! revoked its role word, [`ArenaTx::sweep_orphans`] repairs both: it
//! re-enrolls every slot that is neither free-ring-enrolled nor still
//! referenced by an uncommitted descriptor. [`DescriptorSender`] packages
//! the full producer-side recovery contract — a descriptor ring that holds
//! every descriptor until the worker commits it, its rewind to the commit
//! word, and the arena sweep — so a respawned worker re-attaches and reads
//! exactly the uncommitted suffix over payload slots the sweep left
//! untouched.

use std::io;
use std::sync::atomic::{
    AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

use crate::eventcount::{block_until, PARK_TIMEOUT};
use crate::ring::{Backing, ConsumerCursor, ProducerCursor};
use crate::shm::{SegRing, ShmItem, ShmRingProducer, ShmSegment, SEG_KIND_ARENA};
use crate::stats::StatsSnapshot;

/// Fixed-size ticket for one payload in the arena. 16 bytes, POD, crosses
/// process boundaries through any `ShmRing<Descriptor>`.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Descriptor {
    /// Byte offset of the payload inside the arena's payload region
    /// (always `slot * slot_size`; carried explicitly and re-validated).
    pub offset: u32,
    /// Payload length in bytes (≤ slot size).
    pub len: u32,
    /// Slab slot index.
    pub slot: u32,
    /// Liveness stamp: must match `generations[slot]` (odd) to resolve.
    pub generation: u32,
}

// SAFETY: repr(C) struct of four u32s — no padding, every bit pattern is a
// value, nothing address-space-dependent. A forged descriptor is caught by
// validation, not UB.
unsafe impl ShmItem for Descriptor {}

/// Why a descriptor was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArenaError {
    /// Generation mismatch: the slot was freed (use-after-free), freed
    /// twice, or the descriptor was never issued by this arena epoch.
    Stale,
    /// Structurally invalid: slot index, offset, or length out of range.
    Malformed,
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::Stale => write!(f, "stale descriptor (generation mismatch)"),
            ArenaError::Malformed => write!(f, "malformed descriptor"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Factory for descriptor arenas; see the module docs for the protocol.
pub struct ShmArena;

/// Geometry derived once from the segment header.
#[derive(Clone, Copy)]
struct Geometry {
    slots: usize,
    slot_size: usize,
    /// Free-ring capacity (power of two ≥ slots).
    fcap: usize,
    gen_off: usize,
    free_off: usize,
    payload_off: usize,
}

fn align64(n: usize) -> usize {
    (n + 63) & !63
}

impl Geometry {
    fn for_counts(slots: usize, slot_size: usize) -> Geometry {
        let fcap = slots.next_power_of_two();
        let gen_bytes = align64(slots * 4);
        let free_bytes = align64(fcap * 4);
        Geometry {
            slots,
            slot_size,
            fcap,
            gen_off: 0,
            free_off: gen_bytes,
            payload_off: gen_bytes + free_bytes,
        }
    }

    fn data_bytes(&self) -> usize {
        self.payload_off + self.slots * self.slot_size
    }

    fn of_segment(seg: &ShmSegment) -> Geometry {
        Geometry::for_counts(seg.capacity(), seg.elem_size())
    }
}

/// Shared accessors over an arena segment.
struct ArenaCore {
    seg: Arc<ShmSegment>,
    geo: Geometry,
}

impl ArenaCore {
    #[inline]
    fn generation(&self, slot: usize) -> &AtomicU32 {
        debug_assert!(slot < self.geo.slots);
        // SAFETY: slot < slots (validated by every caller), so the word is
        // inside the generations array, which is inside the mapped data
        // region; 4-aligned (64-aligned base + 4×slot). AtomicU32 is
        // layout-compatible with u32 and any bit pattern is valid.
        unsafe { &*(self.seg.data_ptr().add(self.geo.gen_off + slot * 4) as *const AtomicU32) }
    }

    /// The free ring: `fcap` slot indices at `free_off`, counted by the
    /// segment's `head`/`tail` words.
    #[inline]
    fn free_ring(&self) -> SegRing<'_, u32> {
        // In-bounds: free_off + fcap*4 ≤ payload_off ≤ data_len.
        self.seg.ring_at(self.geo.free_off, self.geo.fcap)
    }

    #[inline]
    fn payload_ptr(&self, offset: usize) -> *mut u8 {
        self.seg
            .data_ptr()
            .wrapping_add(self.geo.payload_off + offset)
    }

    /// Structural validation shared by resolve/free. Returns the slot.
    fn validate(&self, d: &Descriptor) -> Result<usize, ArenaError> {
        let slot = d.slot as usize;
        if slot >= self.geo.slots
            || d.len as usize > self.geo.slot_size
            || d.offset as usize != slot * self.geo.slot_size
        {
            return Err(ArenaError::Malformed);
        }
        Ok(slot)
    }
}

impl ShmArena {
    fn segment(slots: usize, slot_size: usize, memfd: bool) -> io::Result<ShmSegment> {
        assert!(slots > 0 && slot_size > 0, "arena geometry");
        // Descriptors carry offset/len as u32: the payload region must stay
        // u32-addressable or publish() would mint truncated offsets that
        // validate() then rejects as Malformed.
        assert!(
            slots
                .checked_mul(slot_size)
                .is_some_and(|bytes| bytes <= u32::MAX as usize),
            "arena payload region exceeds u32 descriptor addressing"
        );
        let geo = Geometry::for_counts(slots, slot_size);
        let seg = if memfd {
            ShmSegment::create(
                SEG_KIND_ARENA,
                slots as u64,
                slot_size,
                64,
                geo.data_bytes(),
            )?
        } else {
            ShmSegment::create_heap(
                SEG_KIND_ARENA,
                slots as u64,
                slot_size,
                64,
                geo.data_bytes(),
            )
        };
        // Pre-fill the free ring with every slot: entries [0, slots),
        // free-ring tail = slots (fcap ≥ slots, so all of them fit).
        let ring = seg.ring_at::<u32>(geo.free_off, geo.fcap);
        // SAFETY: creation is single-threaded; no other cursor exists yet.
        unsafe { ProducerCursor::attach(&ring) }.push_some(&ring, slots, |n| 0..n as u32);
        Ok(seg)
    }

    /// In-process pair over one segment (memfd when available).
    pub fn pair(slots: usize, slot_size: usize) -> (ArenaTx, ArenaRx) {
        let memfd = ShmSegment::memfd_supported();
        let seg = Self::segment(slots, slot_size, memfd)
            .unwrap_or_else(|_| Self::segment(slots, slot_size, false).expect("heap arena"));
        let seg = Arc::new(seg);
        assert!(seg.claim_role(true) && seg.claim_role(false));
        (Self::tx_over(seg.clone()), Self::rx_over(seg))
    }

    /// Create a memfd arena and take the allocating side; pass the fd to
    /// the consuming process for [`ShmArena::attach_rx`].
    pub fn create_tx(slots: usize, slot_size: usize) -> io::Result<(ArenaTx, i32)> {
        let seg = Self::segment(slots, slot_size, true)?;
        let fd = seg.fd().expect("memfd segment has an fd");
        assert!(seg.claim_role(true), "fresh segment role");
        Ok((Self::tx_over(Arc::new(seg)), fd))
    }

    /// Attach to an inherited arena fd as the consuming side.
    pub fn attach_rx(fd: i32) -> io::Result<ArenaRx> {
        let seg = ShmSegment::attach(fd, SEG_KIND_ARENA)?;
        let fail = |what: &str| Err(io::Error::new(io::ErrorKind::InvalidData, what.to_string()));
        // Bound the header counts with checked math BEFORE deriving a
        // geometry from them: a forged header must not be able to overflow
        // the layout arithmetic (wrapped data_bytes would falsely pass the
        // size check) or exceed u32 descriptor addressing.
        let (slots, slot_size) = (seg.capacity(), seg.elem_size());
        if slots == 0 || slot_size == 0 {
            return fail("arena geometry empty");
        }
        match slots.checked_mul(slot_size) {
            Some(bytes) if bytes <= u32::MAX as usize => {}
            _ => return fail("arena payload region exceeds u32 descriptor addressing"),
        }
        let geo = Geometry::for_counts(slots, slot_size);
        if geo.data_bytes() > seg.data_len() {
            return fail("arena geometry disagrees with segment size");
        }
        if !seg.claim_role(false) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                "arena role already claimed",
            ));
        }
        Ok(Self::rx_over(Arc::new(seg)))
    }

    /// Block until a recycled slot is probably available in the arena on
    /// `seg` ([`ArenaTx::segment`]) — the arena-full analogue of the ring's
    /// blocking push, for callers whose [`ArenaTx::alloc`] came back
    /// `None`. The free ring's shared `head`/`tail` words say whether a
    /// slot is free, so the wait needs no [`ArenaTx`]: a caller that keeps
    /// it behind a lock parks without holding it. Escalates through the
    /// same spin→yield→futex-park ladder as the ring endpoints, parking on
    /// the segment's producer waker (which [`ArenaRx::free`] notifies); one
    /// park is bounded, so a lost cross-process wake costs at most
    /// [`PARK_TIMEOUT`].
    ///
    /// Returns `true` when the caller should retry `alloc` (a slot became
    /// visible or the bounded park elapsed) and `false` when the consuming
    /// side is gone — no slot will ever come back, so allocation can never
    /// succeed again.
    pub fn wait_free_slot(seg: &ShmSegment) -> bool {
        // Bounded contract: the budget is one park long, so a scheduler-
        // driven caller gets control back to observe stop requests. (Too
        // short to ever count a rescue; nobody reads this counter.)
        let unread = AtomicU64::new(0);
        let poll = || {
            // Any entry between the shared head and tail is a free slot.
            if seg.tail().load(Acquire) != seg.head().load(Relaxed) {
                return Some(true);
            }
            (seg.consumer_closed().load(Relaxed) == 1).then_some(false)
        };
        let parked = Some(PARK_TIMEOUT);
        block_until(&seg.producer_waker(), &unread, parked, || false, poll).unwrap_or(true)
    }

    fn tx_over(seg: Arc<ShmSegment>) -> ArenaTx {
        let geo = Geometry::of_segment(&seg);
        let core = ArenaCore { seg, geo };
        ArenaTx {
            // SAFETY: the caller holds the segment's CAS-claimed Tx role —
            // the free ring's only consumer; used with that ring alone.
            free: unsafe { ConsumerCursor::attach(&core.free_ring()) },
            core,
        }
    }

    fn rx_over(seg: Arc<ShmSegment>) -> ArenaRx {
        let geo = Geometry::of_segment(&seg);
        let core = ArenaCore { seg, geo };
        ArenaRx {
            // SAFETY: as `tx_over`: the Rx role is the only producer.
            free: unsafe { ProducerCursor::attach(&core.free_ring()) },
            core,
        }
    }
}

/// Allocating side: `alloc` → write payload → `publish` → send the
/// descriptor through a ring.
pub struct ArenaTx {
    core: ArenaCore,
    /// Free-ring consumer state.
    free: ConsumerCursor,
}

/// Consuming side: `resolve` → read payload in place → `free`.
pub struct ArenaRx {
    core: ArenaCore,
    /// Free-ring producer state.
    free: ProducerCursor,
}

// SAFETY: single handle per side (CAS-claimed role); all shared state is
// accessed through the free-ring protocol and atomic generation words.
unsafe impl Send for ArenaTx {}
// SAFETY: see ArenaTx.
unsafe impl Send for ArenaRx {}

/// In-flight allocation: write the payload through [`PayloadWrite::bytes`],
/// then [`PayloadWrite::publish`] to obtain the descriptor. Dropping the
/// guard without publishing leaks the slot until the arena is recycled —
/// deliberate, since un-publishing would need a free-ring push from the
/// wrong side.
pub struct PayloadWrite<'a> {
    tx: &'a mut ArenaTx,
    slot: usize,
    generation: u32,
    len: usize,
}

impl PayloadWrite<'_> {
    /// The payload bytes to fill (exactly the allocation length).
    pub fn bytes(&mut self) -> &mut [u8] {
        let off = self.slot * self.tx.core.geo.slot_size;
        // SAFETY: the slot is live (alloc popped it from the free ring and
        // no descriptor exists yet, so the Rx side cannot touch it); the
        // range [off, off+len) lies inside this slot's payload area, which
        // is inside the mapped data region. &mut self on the guard makes
        // the borrow exclusive in this process, and the peer process never
        // reads a slot before a descriptor for it arrives over a ring.
        unsafe { std::slice::from_raw_parts_mut(self.tx.core.payload_ptr(off), self.len) }
    }

    /// Seal the payload and mint its descriptor.
    pub fn publish(self) -> Descriptor {
        Descriptor {
            offset: (self.slot * self.tx.core.geo.slot_size) as u32,
            len: self.len as u32,
            slot: self.slot as u32,
            generation: self.generation,
        }
    }
}

impl ArenaTx {
    /// Reserve a slot for `len` payload bytes. `None` when `len` exceeds
    /// the slot size or every slot is in flight (arena full — backpressure
    /// belongs to the caller, typically the ring push that follows).
    pub fn alloc(&mut self, len: usize) -> Option<PayloadWrite<'_>> {
        if len > self.core.geo.slot_size {
            return None;
        }
        // Pop one slot index off the free ring (we are its consumer).
        let slot = self.free.pop(&self.core.free_ring())? as usize;
        if slot >= self.core.geo.slots {
            // A byzantine peer fed us garbage; the entry is dropped rather
            // than indexed out of range.
            return None;
        }
        // Free slots carry an even generation; bump to odd = live. Release
        // pairs with resolve's Acquire load.
        let gen = self.core.generation(slot);
        let g = gen.load(Relaxed).wrapping_add(1);
        let g = if g & 1 == 0 { g.wrapping_add(1) } else { g };
        gen.store(g, Release);
        Some(PayloadWrite {
            tx: self,
            slot,
            generation: g,
            len,
        })
    }

    /// Convenience: allocate, copy `payload` in, publish.
    pub fn push_bytes(&mut self, payload: &[u8]) -> Option<Descriptor> {
        let mut w = self.alloc(payload.len())?;
        w.bytes().copy_from_slice(payload);
        Some(w.publish())
    }

    /// Total payload slots.
    pub fn slots(&self) -> usize {
        self.core.geo.slots
    }

    /// Payload bytes per slot.
    pub fn slot_size(&self) -> usize {
        self.core.geo.slot_size
    }

    /// Slots currently available to allocate (telemetry estimate).
    pub fn free_slots(&self) -> usize {
        let seg = &*self.core.seg;
        (seg.tail().load(Acquire) as usize).saturating_sub(self.free.head())
    }

    /// Reclaim slots orphaned by a dead consumer. Caller contract: the Rx
    /// role holder is dead **and reaped**, and its role word has been
    /// revoked — the sweep temporarily acts as the free ring's producer,
    /// which is sound only while no live Rx exists.
    ///
    /// Three crash windows are repaired, keyed off each slot's generation
    /// word and the free ring's *shared* tail (the dead Rx's local tail
    /// mirror died with it, so the shared word is authoritative):
    ///
    /// * **live orphan** — odd generation, not `in_flight`: the worker
    ///   died holding the payload past its commit; bump even, re-enroll;
    /// * **mid-free loss** — even generation, not enrolled in
    ///   `[head, tail)`: the worker died between its generation CAS and
    ///   the free-ring publish; re-enroll;
    /// * **torn enrollment** — an entry written at the shared tail whose
    ///   publish never landed: overwritten by the re-enrollment there.
    ///
    /// `in_flight(slot, generation)` must return `true` for descriptors
    /// the ring will re-deliver: their payload bytes survive untouched, so
    /// the replacement worker resolves them as if nothing happened.
    /// Returns the number of slots re-enrolled.
    pub fn sweep_orphans(&mut self, in_flight: impl Fn(u32, u32) -> bool) -> usize {
        let ring = self.core.free_ring();
        // Stand in for the dead Rx as the free ring's producer, resuming at
        // the shared tail.
        // SAFETY: the caller contract (Rx dead and reaped, role revoked)
        // makes this the free ring's only producer cursor.
        let mut enroll = unsafe { ProducerCursor::attach(&ring) };
        let head = self.core.seg.head().load(Acquire) as usize;
        let mut enrolled = vec![false; self.core.geo.slots];
        for idx in head..enroll.tail() {
            // SAFETY: entries in [head, tail) were published by a Release
            // store of the tail (u32: any bit pattern is a value).
            let s = ring.slot(idx, |p| unsafe { (*p).assume_init_read() }) as usize;
            if s < self.core.geo.slots {
                enrolled[s] = true;
            }
        }
        let mut swept = 0;
        for (slot, slot_enrolled) in enrolled.iter().enumerate() {
            let gen = self.core.generation(slot);
            let g = gen.load(Acquire);
            if g & 1 == 1 {
                if in_flight(slot as u32, g) {
                    continue;
                }
                gen.store(g.wrapping_add(1), Release);
            } else if *slot_enrolled {
                continue;
            }
            // Sound under the caller contract (Rx dead, role revoked);
            // fcap ≥ slots bounds the enrolled count, so the push fits.
            let pushed = enroll.push(&ring, slot as u32);
            debug_assert!(pushed.is_ok(), "free ring overflow impossible by sizing");
            swept += 1;
        }
        swept
    }

    /// The backing segment (fd for the peer attach).
    pub fn segment(&self) -> &ShmSegment {
        &self.core.seg
    }

    /// An owned handle on the backing segment (supervisor bookkeeping
    /// outlives the endpoint that created it).
    pub fn segment_shared(&self) -> Arc<ShmSegment> {
        self.core.seg.clone()
    }
}

impl ArenaRx {
    /// Borrow the payload bytes named by `d`, verifying structure and
    /// generation. The borrow is tied to `&self`; the producer cannot
    /// recycle the slot while the descriptor is unfreed, so the bytes
    /// stay stable for the borrow's life.
    pub fn resolve(&self, d: &Descriptor) -> Result<&[u8], ArenaError> {
        let slot = self.core.validate(d)?;
        // Acquire pairs with alloc's Release store of the odd generation.
        let g = self.core.generation(slot).load(Acquire);
        if g != d.generation || g & 1 == 0 {
            return Err(ArenaError::Stale);
        }
        // SAFETY: offset/len validated against the slot geometry; the
        // bytes were published by the ring edge that delivered `d` (module
        // docs: visibility contract). The slot stays live until `free`.
        Ok(unsafe {
            std::slice::from_raw_parts(self.core.payload_ptr(d.offset as usize), d.len as usize)
        })
    }

    /// Return `d`'s slot to the allocator. Rejects stale/forged
    /// descriptors; a double free is therefore an error, not corruption.
    pub fn free(&mut self, d: Descriptor) -> Result<(), ArenaError> {
        let slot = self.core.validate(&d)?;
        let gen = self.core.generation(slot);
        // Odd (live) and matching → even (free). The CAS closes the
        // double-free race with itself: only one free per generation wins.
        if d.generation & 1 == 0
            || gen
                .compare_exchange(d.generation, d.generation.wrapping_add(1), Release, Relaxed)
                .is_err()
        {
            return Err(ArenaError::Stale);
        }
        // Push the slot back on the free ring (we are its producer). The
        // ring can never be full: at most `slots` entries exist in flight
        // and fcap ≥ slots.
        let pushed = self.free.push(&self.core.free_ring(), slot as u32);
        debug_assert!(pushed.is_ok(), "free ring overflow impossible by sizing");
        // A producer blocked in `ShmArena::wait_free_slot` parks on this
        // waker.
        self.core.seg.producer_waker().notify_if_armed();
        Ok(())
    }

    /// Total payload slots.
    pub fn slots(&self) -> usize {
        self.core.geo.slots
    }

    /// Payload bytes per slot.
    pub fn slot_size(&self) -> usize {
        self.core.geo.slot_size
    }

    /// The backing segment.
    pub fn segment(&self) -> &ShmSegment {
        &self.core.seg
    }

    /// An owned handle on the backing segment (see
    /// [`ArenaTx::segment_shared`]).
    pub fn segment_shared(&self) -> Arc<ShmSegment> {
        self.core.seg.clone()
    }
}

impl Drop for ArenaRx {
    fn drop(&mut self) {
        self.core.seg.consumer_closed().store(1, Release);
        // Full-contract notify: a producer parked in
        // `ShmArena::wait_free_slot` right now must see that no slot will
        // ever come back.
        self.core.seg.producer_waker().notify();
    }
}

/// What [`DescriptorSender::send_bytes`] did with the payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// In an arena slot, its descriptor in the ring — which keeps it until
    /// the worker commits it, so it reaches a worker whatever happens.
    Sent,
    /// Not accepted *yet*: every arena slot is in flight, or the worker is
    /// gone (its ring consumer is closed while it respawns, or for good).
    /// Nothing was sent; retry the same payload.
    Busy,
}

/// Producer-side bundle for a supervised descriptor link: an [`ArenaTx`]
/// for the payload bytes and the descriptor ring, which is the link's
/// journal across worker deaths — the cross-process half of the recovery
/// contract.
///
/// Nothing is pushed twice, so a descriptor's ring position is its
/// sequence number, and the worker's cumulative
/// [`commit word`](ShmSegment::commit_word) is the position of the first
/// descriptor it has not fully processed. The commit word is the
/// producer's release bound: a send waits while `capacity` descriptors are
/// uncommitted, so ring slots `[commit, tail)` are never overwritten and
/// hold exactly what a dead worker left undone. The worker-side contract,
/// per descriptor: resolve → process → *publish the result* → bump the
/// commit word to `seq + 1` → **then** free the slot. A death between the
/// publish and the bump re-delivers the descriptor, and the duplicate
/// result is deduplicated downstream by its sequence number; freeing before
/// committing would let the rewound ring hand the replacement worker a
/// stale descriptor.
///
/// Supervisor recovery after kill + reap + role revocation (both
/// segments): [`Self::begin_recovery`] rewinds the ring and sweeps the
/// arena → reopen roles → respawn. The replacement reads the uncommitted
/// suffix from the ring.
pub struct DescriptorSender {
    tx: ArenaTx,
    ring: ShmRingProducer<Descriptor>,
    /// The highest commit observed: a commit word below it (a byzantine
    /// worker) reads as it.
    acked: u64,
}

impl DescriptorSender {
    /// Bundle `tx` and `ring`. The journal bound is ignored: the ring is
    /// the journal, so at most its capacity of descriptors is uncommitted.
    pub fn new(tx: ArenaTx, ring: ShmRingProducer<Descriptor>, _journal_bound: usize) -> Self {
        DescriptorSender { tx, ring, acked: 0 }
    }

    /// The ring tail and the commit word, clamped to what it can honestly
    /// be, whatever a byzantine worker writes: no more than was pushed, and
    /// no less than the last commit observed or `tail − capacity` (every
    /// push found room below the commit).
    fn positions(&self) -> (u64, u64) {
        let seg = self.ring.segment();
        let tail = seg.tail().load(Relaxed).max(self.acked);
        let floor = tail.saturating_sub(self.ring.capacity() as u64);
        let commit = seg.commit_word().load(Acquire);
        (tail, commit.clamp(floor.max(self.acked), tail))
    }

    /// Write `payload` into an arena slot and push its descriptor, first
    /// waiting while `capacity` descriptors are uncommitted. The wait parks
    /// on the ring's producer eventcount, which the worker's next pop
    /// notifies (it commits before it pops again; a ring of one slot has no
    /// next pop, so there the bounded park ends the wait); a park the wake
    /// missed counts in the ring's `rescues`. [`SendOutcome::Busy`] (arena full,
    /// worker gone) leaves no trace — the caller retries, typically after
    /// [`ShmArena::wait_free_slot`].
    pub fn send_bytes(&mut self, payload: &[u8]) -> SendOutcome {
        let (seg, capacity) = (self.ring.segment(), self.ring.capacity() as u64);
        let room = || {
            if seg.consumer_closed().load(Acquire) == 1 {
                return Some(false);
            }
            let (tail, commit) = self.positions();
            (tail - commit < capacity).then_some(true)
        };
        let room = room().unwrap_or_else(|| {
            let ring = self.ring.fifo();
            let rescues = &ring.stats().writer.rescues;
            block_until(&seg.producer_waker(), rescues, None, || false, room).unwrap_or(false)
        });
        if !room {
            return SendOutcome::Busy;
        }
        let Some(d) = self.tx.push_bytes(payload) else {
            return SendOutcome::Busy;
        };
        // Room below the commit is room in the ring (the true head is at or
        // past the commit). Only a worker gone since the wait fails this;
        // its slot stays live until the recovery sweep re-enrolls it.
        match self.ring.try_push(d) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Busy,
        }
    }

    /// Count what the worker committed since the last call.
    pub fn ack_committed(&mut self) -> usize {
        let (_, commit) = self.positions();
        let released = commit - self.acked;
        self.acked = commit;
        released as usize
    }

    /// Descriptors pushed but not yet committed by the worker.
    pub fn pending(&self) -> usize {
        let (tail, commit) = self.positions();
        (tail - commit) as usize
    }

    /// `true` while the worker's ring consumer is closed: from its death
    /// (the reaper writes the flag) until the roles reopen, or for good.
    pub fn recovering(&self) -> bool {
        self.ring_segment().consumer_closed().load(Acquire) == 1
    }

    /// Statistics of the descriptor ring's producer end: what this process
    /// pushed, how long it was blocked, and how many parks a wake missed
    /// (`rescues`).
    pub fn ring_snapshot(&self) -> StatsSnapshot {
        self.ring.fifo().snapshot()
    }

    /// Rewind the ring to the dead worker's commit and sweep the arena:
    /// `head := commit`, then re-enroll every arena slot that no descriptor
    /// in ring slots `[commit, tail)` references. Never blocks. Returns the
    /// arena slots swept; [`Self::pending`] is what the replacement reads.
    ///
    /// Caller contract: the worker is dead and reaped, and its consumer
    /// roles on **both** segments have been revoked — the rewind stores the
    /// shared head, which only the (now nonexistent) consumer otherwise
    /// owns.
    pub fn begin_recovery(&mut self) -> usize {
        self.ack_committed();
        let suffix = self.ring.rewind_head(self.acked as usize);
        // The generation each uncommitted descriptor needs, by slot (a live
        // slot backs at most one of them).
        let mut keep = vec![None; self.tx.slots()];
        for d in suffix {
            if let Some(kept) = keep.get_mut(d.slot as usize) {
                *kept = Some(d.generation);
            }
        }
        self.tx
            .sweep_orphans(|slot, generation| keep[slot as usize] == Some(generation))
    }

    /// The descriptor ring's backing segment (roles, commit word,
    /// heartbeat live here).
    pub fn ring_segment(&self) -> &ShmSegment {
        self.ring.segment()
    }

    /// Owned handle on the descriptor ring's segment.
    pub fn ring_segment_shared(&self) -> Arc<ShmSegment> {
        self.ring.segment_shared()
    }

    /// The arena's backing segment.
    pub fn arena_segment(&self) -> &ShmSegment {
        self.tx.segment()
    }

    /// Owned handle on the arena's segment.
    pub fn arena_segment_shared(&self) -> Arc<ShmSegment> {
        self.tx.segment_shared()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::shm::{ShmRing, ShmRingConsumer};
    use crate::sync::Mutex;

    #[test]
    fn alloc_publish_resolve_free_roundtrip() {
        let (mut tx, mut rx) = ShmArena::pair(4, 64);
        let d = tx.push_bytes(b"hello arena").unwrap();
        assert_eq!(d.len, 11);
        assert_eq!(rx.resolve(&d).unwrap(), b"hello arena");
        rx.free(d).unwrap();
        // Freed slot is recyclable and lands on a new generation.
        let d2 = tx.push_bytes(b"second").unwrap();
        assert_eq!(rx.resolve(&d2).unwrap(), b"second");
    }

    #[test]
    fn generation_mismatch_rejected_after_free() {
        let (mut tx, mut rx) = ShmArena::pair(2, 32);
        let d = tx.push_bytes(b"payload").unwrap();
        rx.free(d).unwrap();
        // Use-after-free: the held descriptor no longer resolves…
        assert_eq!(rx.resolve(&d), Err(ArenaError::Stale));
        // …and a double free is rejected too.
        assert_eq!(rx.free(d), Err(ArenaError::Stale));
    }

    #[test]
    fn malformed_descriptors_rejected() {
        let (mut tx, rx) = ShmArena::pair(2, 32);
        let d = tx.push_bytes(b"x").unwrap();
        let bad_slot = Descriptor { slot: 99, ..d };
        assert_eq!(rx.resolve(&bad_slot), Err(ArenaError::Malformed));
        let bad_len = Descriptor { len: 1000, ..d };
        assert_eq!(rx.resolve(&bad_len), Err(ArenaError::Malformed));
        let bad_off = Descriptor {
            offset: d.offset + 1,
            ..d
        };
        assert_eq!(rx.resolve(&bad_off), Err(ArenaError::Malformed));
        // Forged generation.
        let forged = Descriptor {
            generation: d.generation.wrapping_add(2),
            ..d
        };
        assert_eq!(rx.resolve(&forged), Err(ArenaError::Stale));
    }

    #[test]
    fn arena_exhaustion_and_recycling() {
        let (mut tx, mut rx) = ShmArena::pair(2, 16);
        let d1 = tx.push_bytes(b"a").unwrap();
        let d2 = tx.push_bytes(b"b").unwrap();
        assert!(tx.alloc(1).is_none(), "all slots in flight");
        rx.free(d1).unwrap();
        let d3 = tx.push_bytes(b"c").unwrap();
        assert_eq!(rx.resolve(&d3).unwrap(), b"c");
        assert_eq!(rx.resolve(&d2).unwrap(), b"b");
        rx.free(d2).unwrap();
        rx.free(d3).unwrap();
        assert_eq!(tx.free_slots(), 2);
    }

    #[test]
    fn oversize_alloc_refused() {
        let (mut tx, _rx) = ShmArena::pair(2, 16);
        assert!(tx.alloc(17).is_none());
        assert!(tx.alloc(16).is_some());
    }

    #[test]
    fn wait_free_slot_wakes_on_free_and_fails_on_close() {
        let (mut tx, mut rx) = ShmArena::pair(1, 32);
        let d = tx.push_bytes(b"fill").unwrap();
        // Arena full: a blocked producer thread must wake when the
        // consumer frees the slot and then allocate successfully.
        let waiter = std::thread::spawn(move || {
            while tx.alloc(1).is_none() {
                if !ShmArena::wait_free_slot(tx.segment()) {
                    return false;
                }
            }
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        rx.free(d).unwrap();
        assert!(waiter.join().unwrap(), "producer woke and allocated");
    }

    #[test]
    fn wait_free_slot_observes_consumer_gone() {
        let (mut tx, rx) = ShmArena::pair(1, 32);
        let _d = tx.push_bytes(b"fill").unwrap();
        drop(rx);
        // The slot can never come back: the wait must report that rather
        // than spin forever (bounded by the park timeout regardless).
        let t0 = std::time::Instant::now();
        assert!(!ShmArena::wait_free_slot(tx.segment()));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn descriptors_cross_a_ring() {
        // The intended composition: payload in the arena, descriptor
        // through the ring, consumer resolves in place then frees.
        let (mut tx, mut rx) = ShmArena::pair(8, 128);
        let (mut p, mut c) = ShmRing::<Descriptor>::pair(8);
        for i in 0..32u8 {
            let d = tx.push_bytes(&[i; 100]).unwrap();
            p.try_push(d).unwrap();
            let d = c.try_pop().unwrap();
            let bytes = rx.resolve(&d).unwrap();
            assert_eq!(bytes, &[i; 100][..]);
            rx.free(d).unwrap();
        }
    }

    #[test]
    fn cross_process_attach_roundtrip() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        let (mut tx, fd) = ShmArena::create_tx(4, 64).unwrap();
        let mut rx = ShmArena::attach_rx(fd).unwrap();
        assert!(ShmArena::attach_rx(fd).is_err(), "rx role exclusive");
        let d = tx.push_bytes(b"via second mapping").unwrap();
        assert_eq!(rx.resolve(&d).unwrap(), b"via second mapping");
        rx.free(d).unwrap();
    }

    #[test]
    fn sweep_reclaims_orphans_and_spares_in_flight() {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return;
        }
        let (mut tx, fd) = ShmArena::create_tx(4, 32).unwrap();
        let mut rx = ShmArena::attach_rx(fd).unwrap();
        // d1 stays in flight (a ring would re-deliver it), d2 is orphaned
        // live, d3 was freed properly before the "kill".
        let d1 = tx.push_bytes(b"keep").unwrap();
        let d2 = tx.push_bytes(b"orphan").unwrap();
        let d3 = tx.push_bytes(b"freed").unwrap();
        rx.free(d3).unwrap();
        // SIGKILL: no drop glue runs; the role stays claimed.
        let gen = tx.segment().role_generation(false);
        std::mem::forget(rx);
        tx.segment().revoke_role(false, gen).unwrap();
        let swept = tx.sweep_orphans(|slot, g| (slot, g) == (d1.slot, d1.generation));
        assert_eq!(swept, 1, "only the orphan is reclaimed");
        tx.segment().reopen_role(false);
        // The replacement consumer resolves the surviving in-flight
        // payload; the swept orphan is stale.
        let mut rx2 = ShmArena::attach_rx(fd).unwrap();
        assert_eq!(rx2.resolve(&d1).unwrap(), b"keep");
        assert_eq!(rx2.resolve(&d2), Err(ArenaError::Stale));
        rx2.free(d1).unwrap();
        // Every slot is allocatable again: nothing leaked.
        for _ in 0..4 {
            assert!(tx.push_bytes(b"x").is_some());
        }
    }

    #[test]
    fn descriptor_sender_busy_when_arena_full() {
        let (arena_tx, arena_rx) = ShmArena::pair(2, 32);
        let (ring_p, mut ring_c) = ShmRing::<Descriptor>::pair(8);
        // pair() claims both arena roles; we only exercise the Tx side.
        let mut rx = arena_rx;
        let mut sender = DescriptorSender::new(arena_tx, ring_p, 16);
        assert_eq!(sender.send_bytes(b"a"), SendOutcome::Sent);
        assert_eq!(sender.send_bytes(b"b"), SendOutcome::Sent);
        assert_eq!(sender.send_bytes(b"c"), SendOutcome::Busy);
        assert_eq!(sender.pending(), 2);
        // Worker frees a slot: the retry goes through.
        let d = ring_c.try_pop().unwrap();
        assert_eq!(rx.resolve(&d).unwrap(), b"a");
        rx.free(d).unwrap();
        assert!(ShmArena::wait_free_slot(sender.arena_segment()));
        assert_eq!(sender.send_bytes(b"c"), SendOutcome::Sent);
    }

    /// A worker's ends of a supervised descriptor link: the ring's
    /// consumer and the arena's Rx.
    type Worker = (ShmRingConsumer<Descriptor>, ArenaRx);

    /// The ring and arena segments, as the supervisor holds them.
    type Segments = [Arc<ShmSegment>; 2];

    /// A [`DescriptorSender`] over memfd segments — a ring of `ring` slots,
    /// an arena of `slots` — with its worker attached, its segments and
    /// the two fds a respawned worker attaches by; `None` without memfd.
    fn supervised(
        ring: usize,
        slots: usize,
    ) -> Option<(DescriptorSender, Worker, Segments, (i32, i32))> {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return None;
        }
        let (tx, arena_fd) = ShmArena::create_tx(slots, 32).unwrap();
        let (ring_p, ring_fd) = ShmRing::<Descriptor>::create_producer(ring).unwrap();
        let sender = DescriptorSender::new(tx, ring_p, 0);
        let segs = [sender.ring_segment_shared(), sender.arena_segment_shared()];
        let fds = (ring_fd, arena_fd);
        Some((sender, attach(fds), segs, fds))
    }

    fn attach((ring_fd, arena_fd): (i32, i32)) -> Worker {
        let c = ShmRing::<Descriptor>::attach_consumer(ring_fd).unwrap();
        (c, ShmArena::attach_rx(arena_fd).unwrap())
    }

    /// The reaper's part after a SIGKILL (no drop glue ran, so the worker's
    /// closed flags are unset and its roles claimed): write the closed
    /// flags, wake whoever waits, revoke the roles on both segments.
    fn reap(segs: &Segments) {
        for seg in segs {
            seg.consumer_closed().store(1, Release);
            seg.producer_waker().notify();
            seg.revoke_role(false, seg.role_generation(false)).unwrap();
        }
    }

    fn kill(segs: &Segments, worker: Worker) {
        std::mem::forget(worker);
        reap(segs);
    }

    fn reopen(segs: &Segments) {
        for seg in segs {
            seg.reopen_role(false);
        }
    }

    /// The worker contract for the next descriptor: resolve, check the
    /// payload (`[seq as u8; 8]`), commit `seq + 1`, then free. `false`
    /// when the ring is empty.
    fn process(segs: &Segments, (c, rx): &mut Worker, seq: u64) -> bool {
        let Ok(d) = c.try_pop() else {
            return false;
        };
        assert_eq!(rx.resolve(&d).unwrap(), &[seq as u8; 8][..]);
        segs[0].commit_word().store(seq + 1, Release);
        rx.free(d).unwrap();
        true
    }

    /// Spin until a thread parks on (or is about to park on) the ring's
    /// producer eventcount.
    fn until_parked(ring: &ShmSegment) {
        use crate::eventcount::Wake;
        while ring.producer_waker().backend().armed().load(Acquire) == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn descriptor_sender_recovers_across_simulated_kill() {
        let Some((mut sender, mut worker, segs, fds)) = supervised(8, 8) else {
            return;
        };
        for i in 0..6u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
        }
        for i in 0..3 {
            assert!(process(&segs, &mut worker, i));
        }
        // Pops one more, then dies before committing it: that descriptor
        // and the two un-popped ones are the uncommitted suffix.
        let _in_flight = worker.0.try_pop().unwrap();
        kill(&segs, worker);

        assert_eq!(sender.begin_recovery(), 0, "every live slot is in the ring");
        assert_eq!(sender.pending(), 3);
        assert!(sender.recovering());
        assert_eq!(sender.send_bytes(b"zz"), SendOutcome::Busy);
        assert_eq!(sender.pending(), 3);
        reopen(&segs);
        assert!(!sender.recovering());

        // Respawned worker re-attaches and receives exactly the
        // uncommitted suffix, payload bytes intact — and nothing else.
        let mut worker = attach(fds);
        for i in 3..6 {
            assert!(process(&segs, &mut worker, i));
        }
        assert!(!process(&segs, &mut worker, 6));
        assert_eq!(sender.ack_committed(), 3);
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn producer_replays_after_simulated_kill() {
        let Some((mut sender, mut worker, segs, fds)) = supervised(8, 8) else {
            return;
        };
        for i in 0..6u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
        }
        assert_eq!(sender.pending(), 6);
        // The worker consumes and commits four, then is SIGKILL'd.
        for i in 0..4 {
            assert!(process(&segs, &mut worker, i));
        }
        std::mem::forget(worker);

        // A send that lands before the reaper writes the closed flag goes
        // into the ring, which keeps it for the replacement.
        assert_eq!(sender.send_bytes(&[6; 8]), SendOutcome::Sent);
        reap(&segs);
        // The rewind keeps the two un-popped descriptors and that send.
        assert_eq!(sender.begin_recovery(), 0);
        assert_eq!(sender.pending(), 3);
        assert!(sender.recovering());
        // New sends are refused (nothing sent) until the roles reopen.
        assert_eq!(sender.send_bytes(b"zz"), SendOutcome::Busy);
        assert_eq!(sender.pending(), 3);
        reopen(&segs);

        // Respawned worker re-attaches and sees exactly the uncommitted
        // suffix in order, then what is sent after the reopen.
        let mut worker = attach(fds);
        assert!(!sender.recovering());
        assert_eq!(sender.send_bytes(&[7; 8]), SendOutcome::Sent);
        for i in 4..8 {
            assert!(process(&segs, &mut worker, i));
        }
        assert!(!process(&segs, &mut worker, 8));
        assert_eq!(sender.ring_snapshot().rescues, 0);
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn replay_backlog_drains_without_blocking() {
        // A ring (4) full of popped, uncommitted descriptors: the next send
        // waits for a commit. The supervisor's reaction never blocks on it:
        // it writes the closed flags before it takes the sender lock, which
        // ends that wait with `Busy`, and the rewind only stores words.
        let Some((sender, mut worker, segs, fds)) = supervised(4, 16) else {
            return;
        };
        let sender = Mutex::new(sender);
        for i in 0..4u8 {
            assert_eq!(sender.lock().send_bytes(&[i; 8]), SendOutcome::Sent);
            assert!(worker.0.try_pop().is_ok());
        }
        assert_eq!(sender.lock().pending(), 4);
        std::thread::scope(|s| {
            let waiting = s.spawn(|| sender.lock().send_bytes(&[4; 8]));
            until_parked(&segs[0]);
            kill(&segs, worker);
            assert_eq!(waiting.join().unwrap(), SendOutcome::Busy);
        });
        let mut sender = sender.lock();
        assert_eq!(sender.begin_recovery(), 0);
        reopen(&segs);
        let mut worker = attach(fds);

        // The whole ring is the uncommitted suffix, still in its slots.
        assert_eq!(sender.pending(), 4);
        assert!(!sender.recovering());
        // A send queues behind the suffix once a commit frees a slot.
        assert!(process(&segs, &mut worker, 0));
        assert_eq!(sender.send_bytes(&[4; 8]), SendOutcome::Sent);
        assert_eq!(sender.pending(), 4);
        for i in 1..5 {
            assert!(process(&segs, &mut worker, i));
        }
        assert!(!process(&segs, &mut worker, 5));
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn replaying_a_full_window_touches_each_entry_once() {
        // 2,048 payloads through a 64-slot ring whose worker pops and never
        // commits: only the ring's capacity can be uncommitted, so the 65th
        // send waits — seen from this second thread. The worker dies; its
        // replacement receives every descriptor exactly once, in order, and
        // each was pushed once.
        const N: u64 = 2048;
        let Some((sender, mut worker, segs, fds)) = supervised(64, N as usize) else {
            return;
        };
        let sender = Mutex::new(sender);
        let ring = &segs[0];
        std::thread::scope(|s| {
            let shipper = s.spawn(|| {
                let mut sent = 0;
                while sent < N {
                    match sender.lock().send_bytes(&[sent as u8; 8]) {
                        SendOutcome::Sent => sent += 1,
                        SendOutcome::Busy => std::thread::yield_now(),
                    }
                }
            });
            let mut popped = 0;
            while popped < 64 {
                popped += u64::from(worker.0.try_pop().is_ok());
            }
            until_parked(ring);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!shipper.is_finished());
            assert_eq!(ring.tail().load(Acquire), 64, "the 65th send waits");
            kill(&segs, worker);
            assert_eq!(sender.lock().begin_recovery(), 0);
            assert_eq!(ring.head().load(Acquire), 0, "rewound to the commit");
            reopen(&segs);
            let mut worker = attach(fds);
            let mut next = 0;
            while next < N {
                if process(&segs, &mut worker, next) {
                    next += 1;
                }
            }
            shipper.join().unwrap();
            assert!(!process(&segs, &mut worker, N));
        });
        let mut sender = sender.lock();
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
        assert_eq!(sender.ring_snapshot().pushed, N, "one push per entry");
    }

    #[test]
    fn a_kill_with_ring_and_arena_full_delivers_every_payload_once() {
        // Ring and arena both 8: the worker commits two, the sender refills
        // both to the brim, and the worker dies holding three popped,
        // uncommitted descriptors while a send waits for a commit. After the
        // rewind every payload arrives exactly once, in order and
        // byte-identical (payloads fill their whole 32-byte slot).
        const N: u64 = 24;
        let Some((sender, mut worker, segs, fds)) = supervised(8, 8) else {
            return;
        };
        let payload = |i: u64| -> Vec<u8> { (0..32).map(|b| (i * 37 + b) as u8).collect() };
        let sender = Mutex::new(sender);
        // Pop one descriptor; if `commit`, collect its payload, commit, free.
        fn take(segs: &Segments, got: &mut Vec<u8>, worker: &mut Worker, commit: bool) -> bool {
            let Ok(d) = worker.0.try_pop() else {
                return false;
            };
            if commit {
                got.extend_from_slice(worker.1.resolve(&d).unwrap());
                segs[0].commit_word().store(got.len() as u64 / 32, Release);
                worker.1.free(d).unwrap();
            }
            true
        }
        let mut got = Vec::new();
        std::thread::scope(|s| {
            let shipper = s.spawn(|| {
                let mut sent = 0;
                while sent < N {
                    match sender.lock().send_bytes(&payload(sent)) {
                        SendOutcome::Sent => sent += 1,
                        SendOutcome::Busy => {
                            let _ = ShmArena::wait_free_slot(&segs[1]);
                            std::thread::yield_now();
                        }
                    }
                }
            });
            until_parked(&segs[0]);
            for commit in [true, true, false, false, false] {
                assert!(take(&segs, &mut got, &mut worker, commit));
            }
            // Positions [2, 10) fill the ring (by commit) and the arena.
            while segs[0].tail().load(Acquire) < 10 {
                std::thread::yield_now();
            }
            until_parked(&segs[0]);
            assert_eq!(segs[1].tail().load(Acquire), segs[1].head().load(Acquire));
            kill(&segs, worker);
            let mut sender = sender.lock();
            assert_eq!(sender.begin_recovery(), 0, "all eight slots in flight");
            assert_eq!(sender.pending(), 8);
            reopen(&segs);
            drop(sender);
            let mut worker = attach(fds);
            while got.len() < N as usize * 32 {
                take(&segs, &mut got, &mut worker, true);
            }
            shipper.join().unwrap();
            assert!(!take(&segs, &mut got, &mut worker, true));
        });
        let expected: Vec<u8> = (0..N).flat_map(payload).collect();
        assert!(got == expected, "delivery diverged from the sent bytes");
        assert_eq!(sender.lock().pending(), 0);
    }

    #[test]
    fn a_byzantine_commit_word_is_clamped() {
        let Some((mut sender, mut worker, segs, fds)) = supervised(8, 8) else {
            return;
        };
        for i in 0..12u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
            if i < 8 {
                assert!(process(&segs, &mut worker, i.into()));
            }
        }
        // A commit taken back below what every push saw reads as that
        // floor: never more than the ring's capacity is uncommitted…
        segs[0].commit_word().store(0, Release);
        assert_eq!(sender.pending(), 8);
        segs[0].commit_word().store(8, Release);
        assert_eq!(sender.ack_committed(), 8);
        // …a commit behind the last one observed takes nothing back…
        segs[0].commit_word().store(1, Release);
        assert_eq!((sender.ack_committed(), sender.pending()), (0, 4));
        // …and one past the tail counts only what was pushed.
        segs[0].commit_word().store(u64::MAX, Release);
        assert_eq!((sender.ack_committed(), sender.pending()), (4, 0));
        // The rewind lands on the tail: nothing is re-delivered, and the
        // four skipped descriptors' slots are swept back.
        kill(&segs, worker);
        assert_eq!(sender.begin_recovery(), 4);
        reopen(&segs);
        let mut worker = attach(fds);
        segs[0].commit_word().store(12, Release);
        assert_eq!(sender.send_bytes(&[12; 8]), SendOutcome::Sent);
        assert!(process(&segs, &mut worker, 12));
        assert!(!process(&segs, &mut worker, 13));
    }
}
