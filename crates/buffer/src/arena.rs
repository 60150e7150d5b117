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
//! referenced by a journaled in-flight descriptor. [`DescriptorSender`]
//! packages the full producer-side recovery contract — a descriptor ring,
//! the replay window of every descriptor sent and not yet committed, and
//! the arena sweep — so a respawned worker re-attaches and receives exactly
//! the unacknowledged suffix over payload slots the sweep left untouched.

use std::io;
use std::sync::atomic::{
    AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

use crate::eventcount::{block_until, PARK_TIMEOUT};
use crate::journal::ReplayWindow;
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

    /// Block until a recycled slot is probably available — the arena-full
    /// analogue of the ring's blocking push, for callers whose [`alloc`]
    /// came back `None`. Escalates through the same spin→yield→futex-park
    /// ladder as the ring endpoints, parking on the segment's producer
    /// waker (which [`ArenaRx::free`] notifies); one park is bounded, so a
    /// lost cross-process wake costs at most [`PARK_TIMEOUT`].
    ///
    /// Returns `true` when the caller should retry `alloc` (a slot became
    /// visible or the bounded park elapsed) and `false` when the consuming
    /// side is gone — no slot will ever come back, so allocation can never
    /// succeed again.
    ///
    /// [`alloc`]: ArenaTx::alloc
    pub fn wait_free_slot(&mut self) -> bool {
        let ArenaTx { core, free } = self;
        let (seg, ring) = (&*core.seg, core.free_ring());
        // Bounded contract: the budget is one park long, so a scheduler-
        // driven caller gets control back to observe stop requests. (Too
        // short to ever count a rescue; nobody reads this counter.)
        let unread = AtomicU64::new(0);
        block_until(
            &seg.producer_waker(),
            &unread,
            Some(PARK_TIMEOUT),
            || false,
            || match free.refresh(&ring) {
                // Any entry past our head is a slot for the next alloc.
                0 => (seg.consumer_closed().load(Relaxed) == 1).then_some(false),
                _ => Some(true),
            },
        )
        .unwrap_or(true)
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
    /// `in_flight(slot, generation)` must return `true` for descriptors a
    /// journal will re-deliver: their payload bytes survive untouched, so
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
        // A producer blocked in `wait_free_slot` parks on this waker.
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
        // Full-contract notify: a producer parked in `wait_free_slot` right
        // now must see that no slot will ever come back.
        self.core.seg.producer_waker().notify();
    }
}

/// What [`DescriptorSender::send_bytes`] did with the payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// Journaled and pushed (or retained for replay if the ring closed
    /// mid-push — either way the payload will reach a worker).
    Sent,
    /// Not accepted *yet*: every arena slot is in flight, or a recovery
    /// window is open. Nothing was journaled; retry the same payload.
    Busy,
}

/// Producer-side bundle for a supervised descriptor link: an [`ArenaTx`]
/// for the payload bytes, a descriptor ring, and the replay window that
/// makes delivery exactly-once across worker deaths — the cross-process
/// half of the recovery contract, kept here, at the boundary that can lose
/// what the ring held.
///
/// Every descriptor is appended to the window *before* it is pushed,
/// acknowledged only when the worker advances the ring segment's
/// [`commit word`](ShmSegment::commit_word) (clamped to what was pushed),
/// and re-pushed in order by [`Self::replay`] after the supervisor has
/// reaped the dead worker. The worker-side contract that recovery relies
/// on, per descriptor: resolve → process → *publish the result* → bump the
/// commit word to `seq + 1` → **then** free the slot. A death between the
/// publish and the bump re-delivers the descriptor, and the duplicate
/// result is deduplicated downstream by its sequence number; freeing before
/// committing would let a sweep-surviving replay hand the replacement
/// worker a stale descriptor.
///
/// Supervisor recovery sequence after kill + reap + role revocation (both
/// segments): [`Self::begin_recovery`] → reopen roles → respawn →
/// [`Self::replay`].
pub struct DescriptorSender {
    tx: ArenaTx,
    ring: ShmRingProducer<Descriptor>,
    /// Descriptors sent and not yet committed, by sequence number:
    /// `[acked, next)` went to the ring, `[next, next_seq)` is a backlog
    /// still to push (a replay larger than the ring, or sends behind it).
    window: ReplayWindow<Descriptor>,
    /// Sequence number of the next descriptor to push.
    next: u64,
    /// Sends are refused between [`Self::begin_recovery`] and
    /// [`Self::replay`].
    recovering: bool,
}

impl DescriptorSender {
    /// Bundle `tx` and `ring` with a replay window of at most
    /// `journal_bound` unacknowledged descriptors (0 = unbounded). The bound
    /// must cover the ring capacity plus the worker's commit lag, or forced
    /// acks (counted in the ring's [`StatsSnapshot::forced_acks`]) puncture
    /// replay coverage — `2 × capacity` is a comfortable floor.
    pub fn new(tx: ArenaTx, ring: ShmRingProducer<Descriptor>, journal_bound: usize) -> Self {
        DescriptorSender {
            tx,
            ring,
            window: ReplayWindow::new(journal_bound),
            next: 0,
            recovering: false,
        }
    }

    /// Write `payload` into an arena slot, journal its descriptor and push
    /// it, blocking while the ring is full — unless a backlog is still
    /// draining: then the descriptor queues behind it (window order stays
    /// delivery order) and nothing blocks. A worker found gone leaves it
    /// journaled, which is exactly what replay covers.
    /// [`SendOutcome::Busy`] (arena full or recovering) leaves no trace —
    /// the caller retries, typically after [`Self::wait_arena_slot`].
    pub fn send_bytes(&mut self, payload: &[u8]) -> SendOutcome {
        if self.recovering {
            return SendOutcome::Busy;
        }
        let Some(d) = self.tx.push_bytes(payload) else {
            return SendOutcome::Busy;
        };
        let forced = self.window.forced_acks();
        self.window.append(d);
        let now_forced = self.window.forced_acks();
        if now_forced != forced {
            let ring = self.ring.fifo();
            ring.stats().writer.forced_acks.store(now_forced, Relaxed);
        }
        // A forced ack of a descriptor not yet pushed loses it: skip past.
        self.next = self.next.max(self.window.acked());
        if self.next + 1 == self.window.next_seq() && self.ring.push(d).is_ok() {
            self.next += 1;
        }
        self.ack_committed();
        SendOutcome::Sent
    }

    /// Park until a recycled arena slot is probably available; `false`
    /// means the consuming side is gone (see [`ArenaTx::wait_free_slot`]).
    pub fn wait_arena_slot(&mut self) -> bool {
        self.tx.wait_free_slot()
    }

    /// Retire the descriptors the worker has committed and push any replay
    /// backlog into free ring space. Returns how many were retired. Call
    /// this periodically after a recovery: it is the pump that finishes a
    /// replay too large to fit the ring in one go.
    ///
    /// Never blocks: a supervisor thread calls this from its reaction path,
    /// and parking it on ring space would deadlock if the replacement
    /// worker dies mid-replay (nobody left to reap it).
    pub fn ack_committed(&mut self) -> usize {
        let committed = self.ring.segment().commit_word().load(Acquire);
        // Only what was pushed can have been processed, whatever a
        // byzantine worker writes.
        let released = self.window.ack(committed.min(self.next));
        if !self.recovering {
            self.pump();
        }
        released
    }

    /// Push the backlog in window order while the ring has room. Stops at
    /// a full ring (a later pump retries) or a gone worker (the next
    /// recovery rewinds `next`). Returns how many were pushed.
    fn pump(&mut self) -> usize {
        let mut pushed = 0;
        for &(_, d) in self.window.iter_from(self.next) {
            if self.ring.try_push(d).is_err() {
                break;
            }
            pushed += 1;
        }
        self.next += pushed as u64;
        pushed
    }

    /// Descriptors journaled but not yet committed by the worker.
    pub fn pending(&self) -> usize {
        self.window.len()
    }

    /// `true` while sends are gated by an open recovery window.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// Statistics of the descriptor ring's producer end: what this process
    /// pushed, how long it was blocked, and whether a safety net fired
    /// (`rescues`, `forced_acks`).
    pub fn ring_snapshot(&self) -> StatsSnapshot {
        self.ring.fifo().snapshot()
    }

    /// Open the recovery window: drain the dead worker's un-popped
    /// descriptor residue, fold its final commit into the journal, rewind
    /// the push cursor to the first unacknowledged descriptor, refuse sends
    /// until [`Self::replay`], and sweep arena slots not referenced by the
    /// unacknowledged suffix. Returns `(ring residue drained, arena slots
    /// swept)`.
    ///
    /// Caller contract: the worker is dead and reaped, and its consumer
    /// roles on **both** segments have been revoked — residue draining
    /// moves the shared head, which only the (now nonexistent) consumer
    /// otherwise owns.
    pub fn begin_recovery(&mut self) -> (u64, usize) {
        self.recovering = true;
        let drained = self.ring.segment().drain_residue();
        self.ack_committed();
        self.next = self.window.acked();
        // The generation the window will re-deliver, by slot (a live slot
        // backs at most one unacknowledged descriptor).
        let mut keep = vec![None; self.tx.slots()];
        for (_, d) in self.window.iter_from(self.next) {
            if let Some(kept) = keep.get_mut(d.slot as usize) {
                *kept = Some(d.generation);
            }
        }
        let swept = self
            .tx
            .sweep_orphans(|slot, generation| keep[slot as usize] == Some(generation));
        (drained, swept)
    }

    /// Close the recovery window and re-push as much of the unacknowledged
    /// suffix as fits the ring *without blocking*. Whatever does not fit
    /// drains on later [`Self::ack_committed`] pumps, ahead of any new
    /// send, so the replacement worker still observes strict window order.
    /// Returns the descriptors re-pushed now.
    pub fn replay(&mut self) -> usize {
        self.recovering = false;
        self.pump()
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

    /// The underlying arena allocator.
    pub fn arena(&mut self) -> &mut ArenaTx {
        &mut self.tx
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::shm::{ShmRing, ShmRingConsumer};

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
                if !tx.wait_free_slot() {
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
        assert!(!tx.wait_free_slot());
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
        // d1 stays in flight (a journal would replay it), d2 is orphaned
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
        assert!(sender.wait_arena_slot());
        assert_eq!(sender.send_bytes(b"c"), SendOutcome::Sent);
    }

    /// A worker's ends of a supervised descriptor link: the ring's
    /// consumer and the arena's Rx.
    type Worker = (ShmRingConsumer<Descriptor>, ArenaRx);

    /// A [`DescriptorSender`] over memfd segments — a ring of `ring` slots,
    /// an arena of `slots` — with its worker attached and the two fds a
    /// respawned worker attaches by; `None` without memfd.
    fn supervised(
        ring: usize,
        slots: usize,
        journal_bound: usize,
    ) -> Option<(DescriptorSender, Worker, (i32, i32))> {
        if !ShmSegment::memfd_supported() {
            eprintln!("skipping: no memfd on this platform");
            return None;
        }
        let (tx, arena_fd) = ShmArena::create_tx(slots, 32).unwrap();
        let (ring_p, ring_fd) = ShmRing::<Descriptor>::create_producer(ring).unwrap();
        let sender = DescriptorSender::new(tx, ring_p, journal_bound);
        let fds = (ring_fd, arena_fd);
        Some((sender, attach(fds), fds))
    }

    fn attach((ring_fd, arena_fd): (i32, i32)) -> Worker {
        let c = ShmRing::<Descriptor>::attach_consumer(ring_fd).unwrap();
        (c, ShmArena::attach_rx(arena_fd).unwrap())
    }

    /// SIGKILL the worker — no drop glue runs, so its closed flags stay
    /// unset — and revoke its roles on both segments, as the reaper does.
    fn kill(sender: &DescriptorSender, worker: Worker) {
        let ring_gen = sender.ring_segment().role_generation(false);
        let arena_gen = sender.arena_segment().role_generation(false);
        std::mem::forget(worker);
        sender.ring_segment().revoke_role(false, ring_gen).unwrap();
        let arena = sender.arena_segment();
        arena.revoke_role(false, arena_gen).unwrap();
    }

    fn reopen(sender: &DescriptorSender) {
        sender.ring_segment().reopen_role(false);
        sender.arena_segment().reopen_role(false);
    }

    /// The worker contract for the next descriptor: resolve, check the
    /// payload (`[seq as u8; 8]`), commit `seq + 1`, then free. `false`
    /// when the ring is empty.
    fn process(sender: &DescriptorSender, (c, rx): &mut Worker, seq: u64) -> bool {
        let Ok(d) = c.try_pop() else {
            return false;
        };
        assert_eq!(rx.resolve(&d).unwrap(), &[seq as u8; 8][..]);
        sender.ring_segment().commit_word().store(seq + 1, Release);
        rx.free(d).unwrap();
        true
    }

    #[test]
    fn descriptor_sender_recovers_across_simulated_kill() {
        let Some((mut sender, mut worker, fds)) = supervised(8, 8, 32) else {
            return;
        };
        for i in 0..6u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
        }
        for i in 0..3 {
            assert!(process(&sender, &mut worker, i));
        }
        // Pops one more, then dies before committing it: that descriptor
        // and the two un-popped ones are the unacknowledged suffix.
        let _in_flight = worker.0.try_pop().unwrap();
        kill(&sender, worker);

        let (drained, swept) = sender.begin_recovery();
        assert_eq!(drained, 2, "two descriptors never popped");
        assert_eq!(swept, 0, "every live slot is journal-referenced");
        assert_eq!(sender.pending(), 3);
        assert_eq!(sender.send_bytes(b"zz"), SendOutcome::Busy);
        reopen(&sender);

        // Respawned worker re-attaches and receives exactly the
        // unacknowledged suffix, payload bytes intact.
        let mut worker = attach(fds);
        assert_eq!(sender.replay(), 3);
        for i in 3..6 {
            assert!(process(&sender, &mut worker, i));
        }
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn producer_replays_after_simulated_kill() {
        let Some((mut sender, mut worker, fds)) = supervised(8, 8, 32) else {
            return;
        };
        for i in 0..6u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
        }
        assert_eq!(sender.pending(), 6);
        // The worker consumes and commits four, then is SIGKILL'd.
        for i in 0..4 {
            assert!(process(&sender, &mut worker, i));
        }
        kill(&sender, worker);

        // The reaper writes the dead worker's closed flag: a send that
        // lands now is still journaled — that is what replay is for.
        sender.ring_segment().consumer_closed().store(1, Release);
        assert_eq!(sender.send_bytes(&[6; 8]), SendOutcome::Sent);
        // Recovery drops the two un-popped descriptors and folds the final
        // commit into the window.
        assert_eq!(sender.begin_recovery(), (2, 0));
        assert_eq!(sender.pending(), 3);
        assert!(sender.recovering());
        // New sends are refused (not journaled) until replay.
        assert_eq!(sender.send_bytes(b"zz"), SendOutcome::Busy);
        assert_eq!(sender.pending(), 3);
        reopen(&sender);

        // Respawned worker re-attaches and sees exactly the
        // unacknowledged suffix in order, then what is sent after replay.
        let mut worker = attach(fds);
        assert_eq!(sender.replay(), 3);
        assert!(!sender.recovering());
        assert_eq!(sender.send_bytes(&[7; 8]), SendOutcome::Sent);
        for i in 4..8 {
            assert!(process(&sender, &mut worker, i));
        }
        let stats = sender.ring_snapshot();
        assert_eq!((stats.forced_acks, stats.rescues), (0, 0));
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn replay_backlog_drains_without_blocking() {
        // Unacked window (8) larger than the ring (4): a full replay
        // cannot fit in one go and must never block the caller — the
        // supervisor thread replays from its reaction path, and parking
        // there deadlocks if the replacement dies mid-replay.
        let Some((mut sender, mut worker, fds)) = supervised(4, 16, 32) else {
            return;
        };
        for i in 0..8u8 {
            // Interleave pops (uncommitted) so blocking sends never park.
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
            assert!(worker.0.try_pop().is_ok());
        }
        assert_eq!(sender.pending(), 8);
        kill(&sender, worker);
        assert_eq!(sender.begin_recovery(), (0, 0));
        reopen(&sender);
        let mut worker = attach(fds);

        // Only the ring's worth fits immediately; the rest is backlog.
        assert_eq!(sender.replay(), 4);
        assert!(!sender.recovering());
        // New sends while a backlog drains queue *behind* it.
        assert_eq!(sender.send_bytes(&[8; 8]), SendOutcome::Sent);
        assert_eq!(sender.pending(), 9);

        // The replacement drains; ack pumps push the backlog in journal
        // order until everything (including the queued new send) arrives.
        let mut got = 0;
        while got < 9 {
            if process(&sender, &mut worker, got) {
                got += 1;
            } else {
                sender.ack_committed();
            }
        }
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }

    #[test]
    fn replaying_a_full_window_touches_each_entry_once() {
        // The supervisor replays under its lock, and the frozen `xproc_shm`
        // workload allows 2,048 unacknowledged entries: the replay pushes
        // each entry of that suffix once, in order, and loses none.
        const WINDOW: u64 = 2048;
        let Some((mut sender, mut worker, fds)) = supervised(64, WINDOW as usize, 2048) else {
            return;
        };
        for i in 0..WINDOW {
            // Popped but never committed: the whole window stays unacked.
            assert_eq!(sender.send_bytes(&[i as u8; 8]), SendOutcome::Sent);
            assert!(worker.0.try_pop().is_ok());
        }
        assert_eq!(sender.pending(), WINDOW as usize);

        kill(&sender, worker);
        sender.begin_recovery();
        reopen(&sender);
        let mut worker = attach(fds);
        let pushed = sender.ring_snapshot().pushed;
        assert_eq!(sender.replay(), 64);
        let mut next = 0;
        while next < WINDOW {
            if process(&sender, &mut worker, next) {
                next += 1;
            } else {
                sender.ack_committed();
            }
        }
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
        let stats = sender.ring_snapshot();
        assert_eq!(stats.pushed - pushed, WINDOW, "one push per entry");
        assert_eq!(stats.forced_acks, 0);
    }

    #[test]
    fn a_journal_bound_below_the_in_flight_count_counts_forced_acks() {
        // Eight descriptors in flight over a bound of five: the three
        // oldest drop out of the window unacknowledged, and the ring's
        // producer statistics say so.
        let Some((mut sender, mut worker, _fds)) = supervised(8, 8, 5) else {
            return;
        };
        for i in 0..8u8 {
            assert_eq!(sender.send_bytes(&[i; 8]), SendOutcome::Sent);
        }
        assert_eq!(sender.pending(), 5);
        assert_eq!(sender.ring_snapshot().forced_acks, 3);
        // Delivery itself is untouched: the worker still sees all eight.
        for i in 0..8 {
            assert!(process(&sender, &mut worker, i));
        }
        sender.ack_committed();
        assert_eq!(sender.pending(), 0);
    }
}
