//! The production stream FIFO: the [`crate::ring`] protocol over heap
//! storage that a monitor can swap out while the stream runs.
//!
//! RaftLib resizes queues while the application runs (§4): a monitor thread
//! wakes every δ and grows a queue when the writer has been blocked for 3δ,
//! or when a reader asked for more items than the queue can ever hold. The
//! resize itself uses "lock-free exclusion" and prefers the moment when the
//! ring is in a *non-wrapped* position so the live region can be moved with
//! one contiguous copy.
//!
//! What this module adds to the ring core, and nothing else:
//!
//! * **Swappable storage.** `head`/`tail` live *outside* the slot storage,
//!   so a resize only swaps the storage and never disturbs the cursors.
//!   Endpoints touch slots only through an `Arena` — RAII membership in
//!   the Dekker-style [`ResizeFence`] (one SeqCst swap + one load to enter,
//!   one Release store to leave; free for fixed-capacity FIFOs) that doubles
//!   as the ring's [`Backing`]. A resize takes the resizer lock **and** the
//!   fence, copies the live region (single `memcpy` when source and
//!   destination are both non-wrapped, element-wise otherwise) and swaps.
//! * **Blocking endpoints.** Every wait — `push`, `push_batch`, `reserve`,
//!   `allocate`, `pop`, `peek_range`, `pop_slice` — is one call to
//!   `Shared::block_until`, i.e. the crate's one blocking loop
//!   ([`crate::eventcount::block_until`]) bracketed by the `*_blocked_since`
//!   stamps the monitor's 3δ rule consumes, ended early by drain level
//!   `QUIESCED` or the link's admission deadline.
//! * **Two kinds of sleeper per direction.** "Data is visible" and "space is
//!   visible" each have a `Side`: a [`WakerSlot`] for a scheduler task and
//!   a [`ThreadPark`] eventcount for a blocked thread, notified together.
//! * Zero-copy batch views: [`Producer::reserve`] hands out a
//!   [`WriteSlice`] that is written in place and published with one counter
//!   store on drop; [`Consumer::pop_slice`] lends the front of the queue to
//!   a closure as a [`SliceView`] and consumes it afterwards — both hold one
//!   arena membership for the whole batch.
//! * Staging and journaling for the exactly-once recovery contract
//!   ([`crate::journal`]), admission policies, telemetry ([`FifoStats`]).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Index};
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{PopError, PushError, TryPopError, TryPushError};
use crate::eventcount::{self, Blocked, EventCount, ThreadPark};
use crate::fence::{ResizeFence, Role};
use crate::journal::{AdmissionPolicy, JournalConfig, ReplayWindow};
use crate::ring::{Backing, ConsumerCursor, Counters, ProducerCursor};
use crate::signal::Signal;
use crate::stats::{FifoStats, StatsSnapshot};
use crate::sync::{AtomicUsize, CachePadded, Mutex};
use crate::waker::WakerSlot;

/// Drain levels for the cooperative shutdown protocol (see
/// [`Fifo::set_drain_level`]). `RUNNING` is normal operation; `DRAINING`
/// asks sources to stop while in-flight data keeps flowing; `QUIESCED`
/// fails blocked endpoints fast so a wedged graph still terminates.
pub const DRAIN_RUNNING: u8 = 0;
/// Sources stop, in-flight elements still flow (see [`DRAIN_RUNNING`]).
pub const DRAIN_DRAINING: u8 = 1;
/// Blocked pushes fail fast and pops on an empty ring report end-of-stream.
pub const DRAIN_QUIESCED: u8 = 2;

/// Which allocator backs a link's element storage — the paper's three
/// link allocators (§3): process-local heap, a shared-memory segment for
/// co-located processes, and TCP for cross-machine edges. The mapper
/// classifies each link from its placement (DESIGN §14 has the matrix);
/// `RAFT_LINK_ALLOC` overrides globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkAlloc {
    /// Process-local heap ring (the default; fastest within one process).
    #[default]
    Heap,
    /// `memfd`-backed mapped segment (see [`crate::shm`]): zero-copy
    /// between co-located processes. Implies a fixed capacity — a mapped
    /// segment cannot be resized under a live peer. Falls back to `Heap`
    /// (recorded as such) on platforms without `memfd`.
    Shm,
    /// Serialized over a TCP link (`raft-net`); the only option across
    /// machines. In-process FIFOs treat this as `Heap` — the socket pair
    /// lives at the graph layer, not in the ring.
    Tcp,
}

impl LinkAlloc {
    /// Parse a `RAFT_LINK_ALLOC` value (`heap` | `shm` | `tcp`).
    pub fn parse(s: &str) -> Option<LinkAlloc> {
        match s.to_ascii_lowercase().as_str() {
            "heap" => Some(LinkAlloc::Heap),
            "shm" => Some(LinkAlloc::Shm),
            "tcp" => Some(LinkAlloc::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for LinkAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad`, not `write_str`: report tables format this with a width.
        f.pad(match self {
            LinkAlloc::Heap => "heap",
            LinkAlloc::Shm => "shm",
            LinkAlloc::Tcp => "tcp",
        })
    }
}

/// Construction parameters for a [`Fifo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoConfig {
    /// Starting capacity in elements (rounded up to a power of two).
    pub initial_capacity: usize,
    /// Growth ceiling — the paper's "buffer cap" engineering solution for
    /// queues that would otherwise grow without bound.
    pub max_capacity: usize,
    /// Shrink floor.
    pub min_capacity: usize,
    /// When set, the link records consumed elements in a replay journal and
    /// stages produced elements until commit — the exactly-once recovery
    /// contract (see [`crate::journal`]). Requires `T: Clone` at the wiring
    /// layer; `None` keeps the historical lossy-restart behavior.
    pub journal: Option<JournalConfig>,
    /// What the producer does when the ring is full (see
    /// [`AdmissionPolicy`]). `Block` preserves the paper's lossless
    /// blocking-write semantics.
    pub admission: AdmissionPolicy,
    /// Storage allocator for the ring (see [`LinkAlloc`]). `Shm` pins the
    /// capacity to `initial_capacity` and places the slots in a mapped
    /// segment.
    pub alloc: LinkAlloc,
}

impl Default for FifoConfig {
    fn default() -> Self {
        FifoConfig {
            initial_capacity: 64,
            max_capacity: 1 << 22,
            min_capacity: 8,
            journal: None,
            admission: AdmissionPolicy::Block,
            alloc: LinkAlloc::Heap,
        }
    }
}

impl FifoConfig {
    /// Config with a fixed capacity (resizing disabled: floor == ceiling).
    pub fn fixed(capacity: usize) -> Self {
        let c = capacity.max(1).next_power_of_two();
        FifoConfig {
            initial_capacity: c,
            max_capacity: c,
            min_capacity: c,
            ..Default::default()
        }
    }

    /// Config starting at `initial` with the default ceiling/floor.
    pub fn starting_at(initial: usize) -> Self {
        FifoConfig {
            initial_capacity: initial,
            ..Default::default()
        }
    }

    /// Enable the exactly-once replay journal on this link.
    pub fn journaled(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Select the storage allocator for this link.
    pub fn with_alloc(mut self, alloc: LinkAlloc) -> Self {
        self.alloc = alloc;
        self
    }

    /// Set the overload admission policy for this link.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }
}

/// One storage slot: a possibly-uninitialized `(element, signal)` pair.
type Slot<T> = UnsafeCell<MaybeUninit<(T, Signal)>>;

/// What owns the slot memory. Heap rings own a boxed slice; shm rings own
/// a mapped segment whose data region *is* the slot array. The hot path
/// never inspects this — it goes through the cached raw pointer below.
enum StorageOwner<T> {
    Heap(#[allow(dead_code)] Box<[Slot<T>]>), // held for Drop, read via `ptr`
    Seg(#[allow(dead_code)] crate::shm::ShmSegment), // held for Drop/unmap
}

/// Swappable slot storage; everything else lives in [`Shared`].
struct Storage<T> {
    /// First slot; stride `size_of::<Slot<T>>()`, `capacity` slots long.
    /// Cached out of `owner` so `slot()` is one add+mask, no branch on the
    /// backing kind (and no bounds check, unlike the old boxed-slice
    /// index).
    ptr: *mut Slot<T>,
    mask: usize,
    owner: StorageOwner<T>,
}

// SAFETY: slots are only touched through the head/tail protocol — the
// producer writes a slot strictly before publishing it with a Release store
// of `tail`, the consumer reads it strictly after an Acquire load of `tail`,
// and a resize holds the fence (both endpoints outside their critical
// sections, their exits acquired) while it mutates. Every access is
// therefore ordered, so the storage may move to (Send) or be shared with
// (Sync) other threads whenever the elements themselves are Send.
unsafe impl<T: Send> Send for Storage<T> {}
// SAFETY: see the `Send` justification above.
unsafe impl<T: Send> Sync for Storage<T> {}

impl<T> Storage<T> {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let mut slots: Box<[Slot<T>]> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let ptr = slots.as_mut_ptr();
        Storage {
            ptr,
            mask: capacity - 1,
            owner: StorageOwner::Heap(slots),
        }
    }

    /// Place the slot array in a freshly created `memfd` segment — the
    /// shared-memory link backing (fails on platforms without memfd; the
    /// caller falls back to the heap and records the downgrade). The
    /// segment is process-private here (only this process maps it), so
    /// any `T` is permissible — unlike [`crate::shm::ShmRing`], nothing
    /// is read from another address space.
    fn with_segment(capacity: usize) -> std::io::Result<Self> {
        let capacity = capacity.max(1).next_power_of_two();
        let (size, align) = (
            std::mem::size_of::<Slot<T>>(),
            std::mem::align_of::<Slot<T>>(),
        );
        let seg = crate::shm::ShmSegment::create(
            crate::shm::SEG_KIND_RING,
            capacity as u64,
            size,
            align,
            capacity * size.max(1),
        )?;
        let ptr = seg.data_ptr().cast::<Slot<T>>();
        // Fresh zeroed segment: every slot starts as an uninitialized
        // MaybeUninit, exactly like the heap path.
        Ok(Storage {
            ptr,
            mask: capacity - 1,
            owner: StorageOwner::Seg(seg),
        })
    }

    /// `true` when the slots live in a mapped segment.
    fn is_shm(&self) -> bool {
        matches!(self.owner, StorageOwner::Seg(_))
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Raw pointer to the slot for monotonic index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: the masked index is < capacity, and `ptr` points at a
        // live array of `capacity` slots owned by `self.owner` (boxed
        // slice or mapped segment) for exactly as long as `self` lives.
        // Only the UnsafeCell raw pointer escapes; dereferencing it is the
        // caller's (protocol-ordered) obligation, as before.
        unsafe { (*self.ptr.add(idx & self.mask)).get() }
    }
}

/// One direction of "the peer moved": `data` is notified when elements, EoS
/// or an async signal become visible to the consumer, `space` when room (or
/// a dead consumer) becomes visible to the producer. Either kind of sleeper
/// may be waiting on it, so both are told, with one call.
#[derive(Default)]
struct Side {
    /// Event-driven readiness hook for a scheduler task; registered/armed
    /// by the work-stealing scheduler, a single relaxed load when unused.
    task: WakerSlot,
    /// Where a thread blocked in this endpoint's `block_until` parks.
    thread: EventCount<ThreadPark>,
}

impl Side {
    /// Per-element notify: one relaxed load per sleeper kind when nobody
    /// waits. The thread half is the lossy `notify_if_armed` (bounded park,
    /// rescues counted); a registered task always gets the fenced notify —
    /// it has no timeout to fall back on.
    #[inline]
    fn notify(&self) {
        self.task.notify();
        self.thread.notify_if_armed();
    }

    /// Fenced notify for changes that will not be repeated (close, drop,
    /// drain, async signal, resize, rewind): never loses a wake.
    fn notify_fenced(&self) {
        self.task.notify();
        self.thread.notify();
    }
}

/// State shared by producer, consumer, and monitor.
struct Shared<T> {
    /// Slot storage. Replaced only by [`Shared::resize`], which holds
    /// `resizing` and the fence; endpoints reach it through an [`Arena`].
    storage: UnsafeCell<Storage<T>>,
    /// Serializes resizers against each other (never on an endpoint path).
    resizing: Mutex<()>,
    /// `storage.capacity()`, for third parties that hold no membership.
    capacity: AtomicUsize,
    /// Dekker-style exclusion between endpoint ring access and resizes.
    fence: ResizeFence,
    /// `false` when the config pins the capacity (floor == ceiling): the
    /// storage can never be swapped, so endpoints skip the fence entirely
    /// and run at raw SPSC speed.
    resizable: bool,
    /// The allocator actually backing the slots (a requested `Shm` that
    /// fell back to the heap is recorded as `Heap`); surfaced per-link in
    /// `ExeReport`.
    alloc: LinkAlloc,
    /// Next index to read (monotonic). Own cache line: the producer loads
    /// it only when its cached copy says the ring is full.
    head: CachePadded<AtomicUsize>,
    /// Next index to write (monotonic), cache line apart from `head`.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Out-of-band signal channel ("asynchronous signaling", §4.2).
    async_signal: AtomicU64,
    /// Sleepers waiting for data, EoS or an async signal.
    data: Side,
    /// Sleepers waiting for space (pop, batch drain, consumer drop, grow).
    space: Side,
    /// Cooperative drain level ([`DRAIN_RUNNING`] / [`DRAIN_DRAINING`] /
    /// [`DRAIN_QUIESCED`]); raised monotonically by the monitor or a stop
    /// handle, never lowered.
    drain: AtomicU8,
    /// Elements awaiting replay after a journal rewind. Counted into
    /// [`Shared::occupancy`] so schedulers see a rewound link as ready and
    /// `is_finished` stays false until the replay is consumed.
    journal_pending: std::sync::atomic::AtomicUsize,
    /// Set once the consumer endpoint enabled its replay journal.
    journaled: AtomicBool,
    stats: FifoStats,
    cfg: FifoConfig,
    /// Protocol shadow checker (SPSC discipline, monotonic sequences,
    /// resize-fence transitions); driven from the arena chokepoints below.
    #[cfg(feature = "raft_protocol_check")]
    shadow: crate::protocol::FifoShadow,
}

// SAFETY: everything but `storage` is Sync on its own. The `UnsafeCell` is
// read only by endpoints holding fence membership (or, for fixed-capacity
// FIFOs, always — nothing ever writes it) and written only by a resizer
// holding `resizing` and the fence, which excludes every reader; the
// storage itself is Send + Sync for `T: Send` (see `Storage`).
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Counters for Shared<T> {
    type Counter = AtomicUsize;
    #[inline]
    fn head(&self) -> &AtomicUsize {
        &self.head
    }
    #[inline]
    fn tail(&self) -> &AtomicUsize {
        &self.tail
    }
}

/// RAII membership in the resize fence for one role — and, because holding
/// it is exactly what makes the storage pointer stable, the ring's
/// [`Backing`]. Being RAII, user closures that panic (`peek`, `pop_slice`)
/// cannot strand the monitor waiting on a raised `active` flag; the batch
/// guards ([`WriteSlice`], [`PeekRange`]) simply own one.
struct Arena<'a, T> {
    shared: &'a Shared<T>,
    role: Role,
}

impl<T> Counters for Arena<'_, T> {
    type Counter = AtomicUsize;
    #[inline]
    fn head(&self) -> &AtomicUsize {
        &self.shared.head
    }
    #[inline]
    fn tail(&self) -> &AtomicUsize {
        &self.shared.tail
    }
}

// SAFETY: holding the arena pins the storage, so `capacity` cannot change
// under a cursor that uses it; `Storage::slot` masks the index into its live
// slot array, one cell per slot.
unsafe impl<T> Backing for Arena<'_, T> {
    type Item = (T, Signal);
    #[inline]
    fn capacity(&self) -> usize {
        // SAFETY: `self` is the membership `storage` asks for.
        unsafe { self.shared.storage() }.capacity()
    }
    #[inline]
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<(T, Signal)>) -> R) -> R {
        // SAFETY: as in `capacity`.
        f(unsafe { self.shared.storage() }.slot(idx))
    }
}

impl<T> Drop for Arena<'_, T> {
    #[inline]
    fn drop(&mut self) {
        let shared = self.shared;
        #[cfg(feature = "raft_protocol_check")]
        shared.shadow.exit(
            self.role,
            match self.role {
                Role::Producer => shared.tail.load(Relaxed),
                Role::Consumer => shared.head.load(Relaxed),
            },
        );
        if shared.resizable {
            shared.fence.exit(self.role);
        }
    }
}

impl<T> Shared<T> {
    /// Enter the ring critical section for `role`. Free for fixed-capacity
    /// FIFOs (nothing can swap the storage); one SeqCst swap + load
    /// otherwise.
    #[inline]
    fn enter(&self, role: Role) -> Arena<'_, T> {
        if self.resizable {
            self.fence.enter(role);
        }
        // Shadow CS strictly inside the fence CS: entered only after the
        // fence is held, so the checker cannot flag interleavings the
        // fence already excludes.
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.enter(role);
        Arena { shared: self, role }
    }

    /// The slot storage, for a caller *currently holding an [`Arena`]*.
    ///
    /// # Safety
    /// An `Arena` for the caller's role must be alive for as long as the
    /// returned reference is used: membership excludes any storage swap
    /// (and fixed-capacity FIFOs can never swap).
    #[inline]
    unsafe fn storage(&self) -> &Storage<T> {
        // SAFETY: per the function contract, no resize (the only writer)
        // can run while the caller holds membership, so a shared reference
        // to the contents cannot alias a mutation.
        unsafe { &*self.storage.get() }
    }

    /// Current capacity (third-party view; endpoints inside an arena read
    /// the storage itself).
    #[inline]
    fn capacity(&self) -> usize {
        self.capacity.load(Acquire)
    }

    /// Elements observable by the consumer: ring contents plus journal
    /// entries queued for replay after a rewind.
    #[inline]
    fn occupancy(&self) -> usize {
        let ring = self
            .tail
            .load(Acquire)
            .saturating_sub(self.head.load(Acquire));
        ring + self.journal_pending.load(Acquire)
    }

    #[inline]
    fn quiesced(&self) -> bool {
        self.drain.load(Acquire) >= DRAIN_QUIESCED
    }

    /// Producer closed (or link quiesced) and everything consumed,
    /// including any journal replay.
    fn is_finished(&self) -> bool {
        (self.producer_closed.load(Acquire) || self.quiesced()) && self.occupancy() == 0
    }

    /// The cursor just published: count it, leave the arena, tell the
    /// consumer side.
    #[inline]
    fn published(&self, arena: Arena<'_, T>, tail: usize) {
        // Single-writer counter: total pushed == tail, so a plain store
        // replaces a fetch_add.
        self.stats.writer.pushed.store(tail as u64, Relaxed);
        drop(arena);
        self.data.notify();
    }

    /// The cursor just released: count it, leave the arena, tell the
    /// producer side.
    #[inline]
    fn released(&self, arena: Arena<'_, T>, head: usize) {
        // Single-writer counter: total popped == head.
        self.stats.reader.popped.store(head as u64, Relaxed);
        drop(arena);
        self.space.notify();
    }

    /// Block `role` until `ready` yields — the one place a FIFO endpoint
    /// waits. The first poll is the (inlined) fast path and touches no
    /// clock; only then does [`blocked`](Self::blocked) take over.
    #[inline]
    fn block_until<R>(
        &self,
        role: Role,
        budget: Option<Duration>,
        mut ready: impl FnMut() -> Option<R>,
    ) -> Result<R, Blocked> {
        match ready() {
            Some(r) => Ok(r),
            None => self.blocked(role, budget, ready),
        }
    }

    /// The slow half of [`block_until`](Self::block_until): the wait is
    /// visible to the monitor through `*_blocked_since` (3δ of continuous
    /// writer blocking grows the queue) and runs the crate's blocking loop
    /// on the role's [`Side`], ended early by drain level `QUIESCED` or by
    /// `budget` (the admission deadline).
    #[cold]
    fn blocked<R>(
        &self,
        role: Role,
        budget: Option<Duration>,
        ready: impl FnMut() -> Option<R>,
    ) -> Result<R, Blocked> {
        type Stamp = fn(&FifoStats);
        let stats = &self.stats;
        let (side, rescues, begin, end): (_, _, Stamp, Stamp) = match role {
            Role::Producer => (
                &self.space,
                &stats.writer.rescues,
                FifoStats::writer_block_begin,
                FifoStats::writer_block_end,
            ),
            Role::Consumer => (
                &self.data,
                &stats.reader.rescues,
                FifoStats::reader_block_begin,
                FifoStats::reader_block_end,
            ),
        };
        begin(stats);
        // We are *outside* the fence while parked, so a resize can proceed
        // while we sleep.
        let result =
            eventcount::block_until(&side.thread, rescues, budget, || self.quiesced(), ready);
        end(stats);
        result
    }
}

impl<T: Send> Shared<T> {
    /// Non-blocking push straight to the ring.
    #[inline]
    fn try_push(
        &self,
        cursor: &mut ProducerCursor,
        value: T,
        signal: Signal,
    ) -> Result<(), TryPushError<T>> {
        if self.consumer_closed.load(Relaxed) {
            return Err(TryPushError::Closed(value));
        }
        let arena = self.enter(Role::Producer);
        match cursor.push(&arena, (value, signal)) {
            Ok(()) => {
                self.published(arena, cursor.tail());
                Ok(())
            }
            Err((value, _)) => Err(TryPushError::Full(value)),
        }
    }

    /// Push as many elements from the front of `items` as currently fit,
    /// under a single arena entry and one publish; the rest stay in
    /// `items`. `pair` attaches each element's signal.
    #[inline]
    fn push_some<U>(
        &self,
        cursor: &mut ProducerCursor,
        items: &mut Vec<U>,
        pair: impl Fn(U) -> (T, Signal),
    ) -> Result<usize, PushError<()>> {
        if items.is_empty() {
            return Ok(0);
        }
        if self.consumer_closed.load(Relaxed) {
            return Err(PushError(()));
        }
        let arena = self.enter(Role::Producer);
        let n = cursor.push_some(&arena, items.len(), |n| items.drain(..n).map(&pair));
        if n > 0 {
            self.published(arena, cursor.tail());
        }
        Ok(n)
    }

    /// Blocking push straight to the ring (the commit flush path and the
    /// unstaged common case), applying the link's admission policy: a full
    /// ring blocks, sheds at once (`Shed` is a zero budget) or sheds when
    /// the `BlockTimeout` budget runs out.
    #[inline]
    fn push(
        &self,
        cursor: &mut ProducerCursor,
        value: T,
        signal: Signal,
    ) -> Result<(), PushError<T>> {
        let mut held = match self.try_push(cursor, value, signal) {
            Ok(()) => return Ok(()),
            Err(TryPushError::Closed(v)) => return Err(PushError(v)),
            Err(TryPushError::Full(v)) => Some(v),
        };
        let sent = self.block_until(Role::Producer, self.cfg.admission.budget(), || {
            let value = held.take().expect("handed back by every failed attempt");
            match self.try_push(cursor, value, signal) {
                Ok(()) => Some(true),
                Err(TryPushError::Closed(v)) => {
                    held = Some(v);
                    Some(false)
                }
                Err(TryPushError::Full(v)) => {
                    held = Some(v);
                    None
                }
            }
        });
        match sent {
            Ok(true) => Ok(()),
            Err(Blocked::TimedOut) => {
                // The burst outlasted the budget: drop now, count it, stay
                // live.
                self.stats.writer.shed.fetch_add(1, Relaxed);
                Ok(())
            }
            // Consumer gone, or quiesced: nobody will drain this ring —
            // fail fast rather than wedge the draining graph.
            Ok(false) | Err(Blocked::Abandoned) => {
                Err(PushError(held.expect("handed back by the failed attempt")))
            }
        }
    }

    /// Non-blocking pop. On a journaled link, rewound elements are
    /// re-served (as clones, in original order) before anything new is
    /// taken from the ring, and every live pop is recorded for possible
    /// replay.
    #[inline]
    fn try_pop(
        &self,
        cursor: &mut ConsumerCursor,
        journal: &mut Option<Box<ConsumerJournal<T>>>,
    ) -> Result<(T, Signal), TryPopError> {
        if let Some(j) = journal {
            if j.cursor < j.window.next_seq() {
                // Replaying a rewound transaction: serve from the window
                // without touching the ring.
                let (v, s) = j
                    .window
                    .get(j.cursor)
                    .expect("replay cursor inside retained window");
                let pair = ((j.clone_fn)(v), *s);
                j.cursor += 1;
                // Saturating: the cursor can trail `next_seq` without a
                // rewind if recording was interrupted mid-pop (failpoint or
                // caught panic between the ring pop and the cursor bump);
                // re-serving that entry must not underflow the counter.
                let _ = self
                    .journal_pending
                    .fetch_update(AcqRel, Acquire, |v| v.checked_sub(1));
                self.stats.reader.replayed.fetch_add(1, Relaxed);
                return Ok(pair);
            }
        }
        // Emptiness is decided on the counters alone, before paying for an
        // arena entry. Quiesced mid-drain reports end-of-stream so a blocked
        // consumer kernel terminates even though its producer is still
        // alive upstream.
        match cursor.poll(self, || self.producer_closed.load(Acquire)) {
            Ok(_) => {}
            Err(TryPopError::Empty) if self.quiesced() => return Err(TryPopError::Closed),
            Err(e) => return Err(e),
        }
        let arena = self.enter(Role::Consumer);
        let Some(pair) = cursor.pop(&arena) else {
            return Err(TryPopError::Empty);
        };
        self.released(arena, cursor.head());
        if let Some(j) = journal {
            // Record the live pop for possible replay; the cursor tracks
            // next_seq while recording.
            j.window.append(((j.clone_fn)(&pair.0), pair.1));
            j.cursor = j.window.next_seq();
        }
        Ok(pair)
    }

    /// Consume `k` ready elements through `each` under one arena entry and
    /// one release — what `advance` and `pop_range` are.
    #[inline]
    fn drain(&self, cursor: &mut ConsumerCursor, k: usize, each: impl FnMut((T, Signal))) {
        let arena = self.enter(Role::Consumer);
        cursor.pop_some(&arena, k, each);
        self.released(arena, cursor.head());
    }

    /// Resize the ring to `new_capacity` (clamped to config bounds and to
    /// current occupancy). Returns the resulting capacity.
    ///
    /// Takes the resizer lock (vs. other resizers), then the
    /// [`ResizeFence`] (vs. the endpoints, who retry as soon as
    /// `end_resize` clears the pending flag). The live region is moved with
    /// one contiguous copy when both source and destination regions are
    /// non-wrapped (the paper's preferred resize position), element-wise
    /// otherwise.
    fn resize(&self, new_capacity: usize) -> usize {
        if !self.resizable {
            // Fixed-capacity config: endpoints skip the fence, so mutating
            // the storage here would be unsound — and the clamp below could
            // only ever return the current capacity anyway.
            return self.capacity();
        }
        let _resizing = self.resizing.lock();
        // Chaos hook: inject a stall (or panic) while holding the resizer
        // lock but before the fence, the window where a wedged resize is
        // most visible to the endpoints.
        crate::failpoint!("buffer::fifo::resize");
        self.fence.begin_resize();
        // SAFETY: the fence excludes both endpoints and the lock excludes
        // other resizers, so until `end_resize` this is the only reference
        // to the storage.
        let storage = unsafe { &mut *self.storage.get() };
        // With the fence held, both endpoints are outside their critical
        // sections; their counter stores happened-before their (acquired)
        // fence exits, so Relaxed loads here read the settled values and
        // nobody moves them until end_resize.
        let head = self.head.load(Relaxed);
        let tail = self.tail.load(Relaxed);
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.resize_begin();
        let live = tail - head;
        let new_capacity = new_capacity
            .clamp(self.cfg.min_capacity, self.cfg.max_capacity)
            .max(live)
            .next_power_of_two();
        if new_capacity != storage.capacity() {
            let new = Storage::<T>::with_capacity(new_capacity);
            let old_mask = storage.mask;
            if live > 0 {
                let src_start = head & old_mask;
                let dst_start = head & new.mask;
                let src_contig = src_start + live <= storage.capacity();
                let dst_contig = dst_start + live <= new.capacity();
                // SAFETY: exclusive access (above). Source slots
                // `[head, tail)` are initialized (live region); destination
                // slots are freshly allocated and distinct allocations, so
                // the ranges cannot overlap. `new_capacity >= live` (clamped
                // above) guarantees the destination indices stay in bounds,
                // and the bit-copy is a move: the old slots are discarded as
                // `MaybeUninit` (never dropped) right after, so no element
                // is duplicated or leaked.
                unsafe {
                    if src_contig && dst_contig {
                        // Fast path: one memcpy of the whole live region.
                        std::ptr::copy_nonoverlapping(
                            storage.slot(src_start),
                            new.slot(head),
                            live,
                        );
                    } else {
                        // Wrapped on either side: move element-wise.
                        for i in 0..live {
                            std::ptr::copy_nonoverlapping(
                                storage.slot((head + i) & old_mask),
                                new.slot(head + i),
                                1,
                            );
                        }
                    }
                }
            }
            // Old slots' live elements were moved out byte-wise: discarding
            // the old storage is safe because MaybeUninit never drops its
            // contents.
            *storage = new;
            self.capacity.store(new_capacity, Release);
            self.stats.monitor.resizes.fetch_add(1, Relaxed);
        }
        #[cfg(feature = "raft_protocol_check")]
        self.shadow
            .resize_end(head, tail, self.head.load(Relaxed), self.tail.load(Relaxed));
        // Publish the new storage (Release inside) before endpoints re-enter.
        self.fence.end_resize();
        // A grow makes space visible to a parked producer.
        self.space.notify_fenced();
        new_capacity
    }

    /// Grow until `capacity >= target` (bounded). Returns `true` if the
    /// final capacity satisfies the request.
    fn grow_to(&self, target: usize) -> bool {
        self.capacity() >= target || self.resize(target.next_power_of_two()) >= target
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Last owner of the FIFO: drop whatever elements remain exactly once.
        // (Storage never drops its MaybeUninit contents itself.)
        let storage = self.storage.get_mut();
        for i in self.head.load(Relaxed)..self.tail.load(Relaxed) {
            // SAFETY: [head, tail) is the live region; exclusive access here.
            unsafe { (*storage.slot(i)).assume_init_drop() };
        }
    }
}

/// The dynamically resizable stream FIFO. Create one with [`fifo_with`];
/// this handle is the monitor/third-party view, [`Producer`]/[`Consumer`]
/// are the data endpoints.
pub struct Fifo<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Fifo {
            shared: self.shared.clone(),
        }
    }
}

/// Create a FIFO with the given configuration; returns the monitor-facing
/// handle plus the two endpoints.
pub fn fifo_with<T: Send>(cfg: FifoConfig) -> (Fifo<T>, Producer<T>, Consumer<T>) {
    let mut cfg = FifoConfig {
        initial_capacity: cfg
            .initial_capacity
            .clamp(1, cfg.max_capacity.max(1))
            .next_power_of_two(),
        max_capacity: cfg.max_capacity.max(1).next_power_of_two(),
        min_capacity: cfg.min_capacity.max(1).next_power_of_two(),
        ..cfg
    };
    // A mapped segment cannot be swapped out under a live peer: an shm
    // link runs at its initial capacity, fixed (which also means the
    // endpoints skip the resize fence and run at raw SPSC speed).
    if cfg.alloc == LinkAlloc::Shm {
        cfg.max_capacity = cfg.initial_capacity;
        cfg.min_capacity = cfg.initial_capacity;
    }
    let storage = if cfg.alloc == LinkAlloc::Shm {
        Storage::with_segment(cfg.initial_capacity)
            .unwrap_or_else(|_| Storage::with_capacity(cfg.initial_capacity))
    } else {
        Storage::with_capacity(cfg.initial_capacity)
    };
    // Record what actually backs the slots, not what was asked for.
    let alloc = if storage.is_shm() {
        LinkAlloc::Shm
    } else {
        LinkAlloc::Heap
    };
    let shared = Arc::new(Shared {
        capacity: AtomicUsize::new(storage.capacity()),
        storage: UnsafeCell::new(storage),
        resizing: Mutex::new(()),
        fence: ResizeFence::new(),
        resizable: cfg.max_capacity != cfg.min_capacity,
        alloc,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        async_signal: AtomicU64::new(0),
        data: Side::default(),
        space: Side::default(),
        drain: AtomicU8::new(DRAIN_RUNNING),
        journal_pending: std::sync::atomic::AtomicUsize::new(0),
        journaled: AtomicBool::new(false),
        stats: FifoStats::new(),
        cfg,
        #[cfg(feature = "raft_protocol_check")]
        shadow: crate::protocol::FifoShadow::new(),
    });
    (
        Fifo {
            shared: shared.clone(),
        },
        Producer {
            // SAFETY: a fresh FIFO gets exactly one cursor per role, each
            // owned by a non-Clone endpoint that keeps `shared` with it.
            cursor: unsafe { ProducerCursor::attach(&*shared) },
            shared: shared.clone(),
            staged: None,
        },
        Consumer {
            // SAFETY: see the producer cursor above.
            cursor: unsafe { ConsumerCursor::attach(&*shared) },
            shared,
            journal: None,
        },
    )
}

impl<T: Send> Fifo<T> {
    /// Current capacity (elements).
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Current occupancy (elements queued).
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// The FIFO's telemetry counters.
    pub fn stats(&self) -> &FifoStats {
        &self.shared.stats
    }

    /// Point-in-time statistics snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.shared
            .stats
            .snapshot(self.capacity(), self.occupancy())
    }

    /// The allocator actually backing this link's slots.
    pub fn link_alloc(&self) -> LinkAlloc {
        self.shared.alloc
    }

    /// The configured growth ceiling.
    pub fn max_capacity(&self) -> usize {
        self.shared.cfg.max_capacity
    }

    /// The configured shrink floor.
    pub fn min_capacity(&self) -> usize {
        self.shared.cfg.min_capacity
    }

    /// `true` once the producer closed (or the link quiesced) and all data —
    /// including journal entries awaiting replay — has been consumed.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }

    /// Raise the cooperative drain level (monotonic; lowering is ignored).
    /// At [`DRAIN_QUIESCED`] blocked producers fail fast and pops on an
    /// empty ring observe end-of-stream, so a wedged graph still terminates.
    pub fn set_drain_level(&self, level: u8) {
        crate::failpoint!("buffer::fifo::drain");
        let prev = self.shared.drain.fetch_max(level, AcqRel);
        if prev < level {
            // Both endpoints may be parked on conditions that will now never
            // arrive; the new level must be actionable immediately.
            self.shared.data.notify_fenced();
            self.shared.space.notify_fenced();
        }
    }

    /// Current cooperative drain level.
    pub fn drain_level(&self) -> u8 {
        self.shared.drain.load(Acquire)
    }

    /// `true` once the consumer endpoint enabled its replay journal.
    pub fn journaled(&self) -> bool {
        self.shared.journaled.load(Acquire)
    }

    /// Post an asynchronous (out-of-band) signal, immediately visible to the
    /// consumer regardless of queued data.
    pub fn post_async(&self, signal: Signal) {
        self.shared.async_signal.store(signal.encode(), Release);
        self.shared.data.notify_fenced();
    }

    /// Take a pending asynchronous signal, if any.
    pub fn take_async(&self) -> Option<Signal> {
        Signal::decode(self.shared.async_signal.swap(0, Acquire))
    }

    /// `true` while an asynchronous signal is posted and unconsumed. Part
    /// of the readiness predicate: an async signal is actionable input for
    /// a consumer kernel even when no data is queued.
    pub fn has_async(&self) -> bool {
        self.shared.async_signal.load(Acquire) != 0
    }

    /// Resize the ring to `new_capacity` (clamped to config bounds and to
    /// current occupancy); see [`ResizeFence`] for the exclusion protocol.
    /// Returns the resulting capacity.
    pub fn resize(&self, new_capacity: usize) -> usize {
        self.shared.resize(new_capacity)
    }

    /// Grow by doubling (bounded by `max_capacity`). Returns `true` if the
    /// capacity changed.
    pub fn grow(&self) -> bool {
        let cur = self.capacity();
        if cur >= self.shared.cfg.max_capacity {
            return false;
        }
        self.resize(cur * 2) > cur
    }

    /// Grow until `capacity >= target` (bounded). Returns `true` if the
    /// final capacity satisfies the request.
    pub fn grow_to(&self, target: usize) -> bool {
        self.shared.grow_to(target)
    }

    /// Halve the capacity (bounded by `min_capacity` and occupancy).
    pub fn shrink(&self) -> bool {
        let cur = self.capacity();
        if cur <= self.shared.cfg.min_capacity {
            return false;
        }
        self.resize(cur / 2) < cur
    }

    /// Monitor tick: record an occupancy sample into the histogram.
    pub fn sample(&self) {
        self.shared.stats.sample_occupancy(self.occupancy());
    }
}

/// Monitor-facing, type-erased view of a FIFO — what the runtime's monitor
/// thread holds for every stream in the application.
pub trait Monitorable: Send + Sync {
    /// Current capacity (elements).
    fn capacity(&self) -> usize;
    /// Current occupancy (elements).
    fn occupancy(&self) -> usize;
    /// Telemetry counters.
    fn stats(&self) -> &FifoStats;
    /// Double the capacity; `true` if changed.
    fn grow(&self) -> bool;
    /// Grow to at least `target`; `true` if satisfied.
    fn grow_to(&self, target: usize) -> bool;
    /// Halve the capacity; `true` if changed.
    fn shrink(&self) -> bool;
    /// Record an occupancy sample.
    fn sample(&self);
    /// Growth ceiling.
    fn max_capacity(&self) -> usize;
    /// Statistics snapshot.
    fn snapshot(&self) -> StatsSnapshot;
    /// Producer closed and drained.
    fn is_finished(&self) -> bool;
    /// Post an asynchronous signal to the consumer side.
    fn post_async(&self, signal: Signal);
    /// `true` while an asynchronous signal is posted and unconsumed.
    fn has_async(&self) -> bool {
        false
    }
    /// Waker slot notified when data/EoS becomes visible to the consumer.
    fn consumer_waker(&self) -> &WakerSlot;
    /// Waker slot notified when space becomes visible to the producer.
    fn producer_waker(&self) -> &WakerSlot;
    /// Raise the cooperative drain level (no-op for links without drain
    /// support).
    fn set_drain_level(&self, _level: u8) {}
    /// Current cooperative drain level.
    fn drain_level(&self) -> u8 {
        DRAIN_RUNNING
    }
    /// The allocator backing this link's storage (for `ExeReport`).
    fn link_alloc(&self) -> LinkAlloc {
        LinkAlloc::Heap
    }
    /// `true` when an exactly-once replay journal records this link.
    fn journaled(&self) -> bool {
        false
    }
}

impl<T: Send> Monitorable for Fifo<T> {
    fn capacity(&self) -> usize {
        Fifo::capacity(self)
    }
    fn link_alloc(&self) -> LinkAlloc {
        Fifo::link_alloc(self)
    }
    fn occupancy(&self) -> usize {
        Fifo::occupancy(self)
    }
    fn stats(&self) -> &FifoStats {
        Fifo::stats(self)
    }
    fn grow(&self) -> bool {
        Fifo::grow(self)
    }
    fn grow_to(&self, target: usize) -> bool {
        Fifo::grow_to(self, target)
    }
    fn shrink(&self) -> bool {
        Fifo::shrink(self)
    }
    fn sample(&self) {
        Fifo::sample(self);
    }
    fn max_capacity(&self) -> usize {
        Fifo::max_capacity(self)
    }
    fn snapshot(&self) -> StatsSnapshot {
        Fifo::snapshot(self)
    }
    fn is_finished(&self) -> bool {
        Fifo::is_finished(self)
    }
    fn post_async(&self, signal: Signal) {
        Fifo::post_async(self, signal);
    }
    fn has_async(&self) -> bool {
        Fifo::has_async(self)
    }
    fn consumer_waker(&self) -> &WakerSlot {
        &self.shared.data.task
    }
    fn producer_waker(&self) -> &WakerSlot {
        &self.shared.space.task
    }
    fn set_drain_level(&self, level: u8) {
        Fifo::set_drain_level(self, level);
    }
    fn drain_level(&self) -> u8 {
        Fifo::drain_level(self)
    }
    fn journaled(&self) -> bool {
        Fifo::journaled(self)
    }
}

/// Producing endpoint of a [`Fifo`]. One per stream; `Send` (the handle is
/// the unique owner of the producer role, so sending it only relocates the
/// role), not `Clone`.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// The ring's producer-side state (exact tail, conservative head cache).
    cursor: ProducerCursor,
    /// When `Some`, pushes are staged here instead of published to the ring;
    /// [`commit_produced`](Producer::commit_produced) flushes them,
    /// [`rewind_produced`](Producer::rewind_produced) discards them — the
    /// output half of the exactly-once contract (see [`crate::journal`]).
    staged: Option<Vec<(T, Signal)>>,
}

impl<T: Send> Producer<T> {
    /// Non-blocking push of `(value, signal)`. With staging enabled the
    /// element lands in the pending buffer (never `Full`) and reaches the
    /// ring at the next [`commit_produced`](Self::commit_produced).
    pub fn try_push_signal(&mut self, value: T, signal: Signal) -> Result<(), TryPushError<T>> {
        if let Some(pending) = self.staged.as_mut() {
            if self.shared.consumer_closed.load(Relaxed) {
                return Err(TryPushError::Closed(value));
            }
            pending.push((value, signal));
            return Ok(());
        }
        self.shared.try_push(&mut self.cursor, value, signal)
    }

    /// Non-blocking push.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), TryPushError<T>> {
        self.try_push_signal(value, Signal::None)
    }

    /// Blocking push of `(value, signal)`; errs only if the consumer is gone
    /// (or the link quiesced mid-drain). With staging enabled the element is
    /// buffered instead — see [`try_push_signal`](Self::try_push_signal).
    ///
    /// While blocked, the producer is visible to the monitor through
    /// `writer_blocked_since` — after 3δ of continuous blocking the monitor
    /// grows this queue (the paper's write-side resize trigger). Under a
    /// shedding [`AdmissionPolicy`] a full ring drops the element (counted
    /// in the `shed` statistic) instead of blocking indefinitely.
    pub fn push_signal(&mut self, value: T, signal: Signal) -> Result<(), PushError<T>> {
        if self.staged.is_some() {
            return match self.try_push_signal(value, signal) {
                Ok(()) => Ok(()),
                Err(TryPushError::Closed(v)) | Err(TryPushError::Full(v)) => Err(PushError(v)),
            };
        }
        self.shared.push(&mut self.cursor, value, signal)
    }

    /// Blocking push; errs only if the consumer is gone.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_signal(value, Signal::None)
    }

    /// Push as many elements from `items` as currently fit, under a single
    /// fence entry (the batch path split adapters and sources use). Returns
    /// the number pushed; the rest stay in `items`.
    pub fn try_push_batch(&mut self, items: &mut Vec<T>) -> Result<usize, PushError<()>> {
        self.shared
            .push_some(&mut self.cursor, items, |v| (v, Signal::None))
    }

    /// Blocking batch push: pushes *all* of `items`, waiting for room as
    /// needed. Errs only if the consumer is gone (remaining items stay in
    /// `items`) or the link quiesced. With staging enabled the whole batch
    /// is buffered until commit; under a shedding admission policy a full
    /// ring drops the remainder (counted) instead of blocking.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        let Producer {
            shared,
            cursor,
            staged,
        } = self;
        if let Some(pending) = staged {
            if shared.consumer_closed.load(Relaxed) {
                return Err(PushError(()));
            }
            pending.extend(items.drain(..).map(|v| (v, Signal::None)));
            return Ok(());
        }
        let budget = shared.cfg.admission.budget();
        while !items.is_empty() {
            // One wait per stretch without progress: progress restarts the
            // backoff schedule, the blocked stamp and the admission budget.
            let step = || match shared.push_some(cursor, items, |v| (v, Signal::None)) {
                Ok(0) => None,
                progress => Some(progress),
            };
            match shared.block_until(Role::Producer, budget, step) {
                Ok(progress) => {
                    progress?;
                }
                Err(Blocked::Abandoned) => return Err(PushError(())),
                Err(Blocked::TimedOut) => {
                    // Degrade: drop the remainder rather than block on a
                    // ring nobody is draining fast enough.
                    let shed = items.drain(..).count() as u64;
                    shared.stats.writer.shed.fetch_add(shed, Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Reserve `n` slots for in-place batch writing; blocks until they are
    /// free (growing the ring on the spot if `n` exceeds its capacity,
    /// bounded by `max_capacity` — larger requests are clamped). The
    /// returned [`WriteSlice`] is filled with [`WriteSlice::push`] and the
    /// whole batch is published with a single counter store when it drops.
    ///
    /// Holding the slice holds fence membership: a resize waits until the
    /// slice is dropped. Errs only if the consumer is gone or the link
    /// quiesced.
    pub fn reserve(&mut self, n: usize) -> Result<WriteSlice<'_, T>, PushError<()>> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        let n = n.clamp(1, shared.cfg.max_capacity);
        let arena = shared.block_until(Role::Producer, None, || {
            if shared.consumer_closed.load(Relaxed) || shared.quiesced() {
                return Some(None);
            }
            if n > shared.capacity() {
                // Write-side on-the-spot grow (cold; resizer path). We are
                // outside the arena here, so it cannot deadlock on us.
                shared.grow_to(n);
            }
            let arena = shared.enter(Role::Producer);
            (cursor.claim(&arena, n) >= n).then_some(Some(arena))
        });
        match arena {
            Ok(Some(arena)) => Ok(WriteSlice {
                arena,
                cursor,
                cap: n,
                written: 0,
            }),
            _ => Err(PushError(())),
        }
    }

    /// In-place write: returns a guard holding a defaulted element; mutate it
    /// through `DerefMut` and it is committed (pushed) when the guard drops —
    /// the paper's `allocate_s` semantics. Blocks while the ring is full.
    ///
    /// The guard is a one-slot [`reserve`](Self::reserve): it holds fence
    /// membership, so a concurrent resize waits until the guard drops.
    pub fn allocate(&mut self) -> Result<WriteGuard<'_, T>, PushError<T>>
    where
        T: Default,
    {
        let mut slot = self.reserve(1).map_err(|_| PushError(T::default()))?;
        slot.push(T::default());
        Ok(WriteGuard(slot))
    }

    /// Stage outputs instead of publishing them: after this call every push
    /// lands in a pending buffer that only reaches the ring on
    /// [`commit_produced`](Self::commit_produced) — the output half of the
    /// exactly-once recovery contract (see [`crate::journal`]). Zero-copy
    /// writes ([`reserve`](Self::reserve) / [`allocate`](Self::allocate))
    /// bypass staging and publish directly. Elements still staged when the
    /// producer closes are discarded.
    pub fn enable_staging(&mut self) {
        if self.staged.is_none() {
            self.staged = Some(Vec::new());
        }
    }

    /// `true` once [`enable_staging`](Self::enable_staging) was called.
    pub fn staging_enabled(&self) -> bool {
        self.staged.is_some()
    }

    /// Elements currently staged and not yet published.
    pub fn staged_len(&self) -> usize {
        self.staged.as_ref().map_or(0, Vec::len)
    }

    /// Publish every staged element to the ring, blocking for room as
    /// needed (the link's admission policy applies). Returns the number
    /// published; errs if the consumer is gone, in which case the remaining
    /// staged elements are discarded.
    pub fn commit_produced(&mut self) -> Result<usize, PushError<()>> {
        let Producer {
            shared,
            cursor,
            staged,
        } = self;
        // The buffer keeps its capacity across commits: a transaction per
        // element must not cost an allocator round-trip per commit.
        let Some(items) = staged.as_mut().filter(|items| !items.is_empty()) else {
            return Ok(0);
        };
        let mut published = 0;
        let mut result = Ok(());
        while !items.is_empty() {
            // Fast path: publish whatever fits as one batch — a single
            // fence entry, tail store, and consumer notify for the whole
            // run, instead of per-element publication.
            result = match shared.push_some(cursor, items, |pair| pair) {
                Ok(0) => {
                    // Ring full: fall back to the blocking single push,
                    // which applies the admission policy (grow, block,
                    // shed, or time out) before the loop batches again.
                    let (v, s) = items.remove(0);
                    published += 1;
                    shared.push(cursor, v, s).map_err(|_| PushError(()))
                }
                Ok(n) => {
                    published += n;
                    Ok(())
                }
                Err(closed) => Err(closed),
            };
            if result.is_err() {
                items.clear();
            }
        }
        result.map(|()| published)
    }

    /// Discard every staged element — the rewind half of a failed
    /// transaction. Returns how many were discarded.
    pub fn rewind_produced(&mut self) -> usize {
        self.staged.as_mut().map_or(0, |pending| {
            let n = pending.len();
            pending.clear();
            n
        })
    }

    /// Close the stream: the consumer drains what remains, then sees
    /// `Closed`. Idempotent.
    pub fn close(&mut self) {
        self.shared.producer_closed.store(true, Release);
        // EoS is actionable for a parked consumer.
        self.shared.data.notify_fenced();
    }

    /// `true` once the consumer endpoint dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.consumer_closed.load(Relaxed)
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// Monitor-facing handle for this FIFO.
    pub fn fifo(&self) -> Fifo<T> {
        Fifo {
            shared: self.shared.clone(),
        }
    }

    /// Test double that deliberately breaks the single-producer contract:
    /// a second live producer handle over the same stream. Exists so the
    /// protocol checker's SPSC-discipline detection can be exercised; any
    /// real use is undefined behavior by construction.
    #[cfg(feature = "raft_protocol_check")]
    #[doc(hidden)]
    pub fn protocol_test_duplicate(&self) -> Producer<T> {
        Producer {
            shared: self.shared.clone(),
            // SAFETY: deliberately *not* upheld — a second producer cursor
            // is the contract violation this double exists to provoke. The
            // shadow checker panics before the two can touch a slot.
            cursor: unsafe { ProducerCursor::attach(&*self.shared) },
            staged: None,
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Implicit EoS: a parked consumer must observe the close.
        self.shared.producer_closed.store(true, Release);
        self.shared.data.notify_fenced();
    }
}

/// In-place batch write window returned by [`Producer::reserve`]. Fill it
/// front-to-back with [`push`](WriteSlice::push); everything written is
/// published with one counter store when the slice drops.
pub struct WriteSlice<'a, T: Send> {
    /// Membership held since `reserve`; pins the storage under the window.
    arena: Arena<'a, T>,
    cursor: &'a mut ProducerCursor,
    cap: usize,
    written: usize,
}

impl<T: Send> WriteSlice<'_, T> {
    /// Write the next element of the batch in place.
    ///
    /// # Panics
    /// If the reservation is already full (`remaining() == 0`).
    #[inline]
    pub fn push(&mut self, value: T) {
        self.push_signal(value, Signal::None);
    }

    /// Write the next element with a synchronous signal attached.
    ///
    /// # Panics
    /// If the reservation is already full.
    #[inline]
    pub fn push_signal(&mut self, value: T, signal: Signal) {
        assert!(
            self.written < self.cap,
            "WriteSlice overflow: reserved {} slots",
            self.cap
        );
        // SAFETY: `reserve` claimed `cap` slots against a conservative head
        // and `written < cap` of them are filled; single producer (the
        // slice mutably borrows its cursor); the consumer cannot see any of
        // it until Drop publishes.
        unsafe {
            self.cursor
                .write(&self.arena, self.written, (value, signal));
        }
        self.written += 1;
    }

    /// Slots still unwritten in this reservation.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.cap - self.written
    }

    /// Elements written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.written
    }

    /// `true` if nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

impl<T: Send> Drop for WriteSlice<'_, T> {
    fn drop(&mut self) {
        if self.written > 0 {
            let shared = self.arena.shared;
            self.cursor.publish(shared, self.written);
            shared
                .stats
                .writer
                .pushed
                .store(self.cursor.tail() as u64, Relaxed);
            shared.data.notify();
        }
        // `arena` drops after this body: membership ends with the slice.
    }
}

/// RAII guard returned by [`Producer::allocate`]: a one-slot [`WriteSlice`]
/// already holding a defaulted element. Commits the element on drop (or
/// discards it via [`WriteGuard::abort`]).
///
/// Holds fence membership for its lifetime: references handed out by
/// `Deref` stay valid because any resize must wait for the guard.
pub struct WriteGuard<'a, T: Send + Default>(WriteSlice<'a, T>);

impl<T: Send + Default> WriteGuard<'_, T> {
    #[inline]
    fn pair(&self) -> *mut (T, Signal) {
        let slice = &self.0;
        // The one reserved slot, initialized by `allocate` and not yet
        // published (the cursor's tail has not moved).
        slice
            .arena
            .slot(slice.cursor.tail(), |p| p.cast::<(T, Signal)>())
    }

    /// Attach a synchronous signal to the element being written.
    pub fn set_signal(&mut self, signal: Signal) {
        // SAFETY: initialized in allocate(), invisible to the consumer until
        // the slice publishes, storage pinned by the slice's membership;
        // `&mut self` makes the access exclusive.
        unsafe { (*self.pair()).1 = signal };
    }

    /// Abandon the element without sending it.
    pub fn abort(mut self) {
        // SAFETY: initialized in allocate(), never published; dropped exactly
        // once because the slice then publishes nothing.
        unsafe { std::ptr::drop_in_place(self.pair()) };
        self.0.written = 0;
    }
}

impl<T: Send + Default> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: initialized, unpublished slot, storage pinned by the fence.
        unsafe { &(*self.pair()).0 }
    }
}

impl<T: Send + Default> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref; single producer, so no aliasing.
        unsafe { &mut (*self.pair()).0 }
    }
}

/// Consuming endpoint of a [`Fifo`]. One per stream; `Send`, not `Clone`.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// The ring's consumer-side state (exact head, conservative tail cache).
    cursor: ConsumerCursor,
    /// Replay journal for the exactly-once recovery contract (see
    /// [`crate::journal`]): records a clone of every popped element until
    /// the transaction commits, re-serves them after a rewind.
    journal: Option<Box<ConsumerJournal<T>>>,
}

/// Consumer-side journal state (boxed: the unjournaled common case pays one
/// pointer of space and a null check per pop).
struct ConsumerJournal<T> {
    window: ReplayWindow<(T, Signal)>,
    /// Next sequence number to serve. Equal to `window.next_seq()` while
    /// recording (live); behind it while replaying after a rewind.
    cursor: u64,
    /// Captured at [`Consumer::enable_journal`], where `T: Clone` is known;
    /// keeps the `Clone` bound off the `Consumer` type itself.
    clone_fn: fn(&T) -> T,
}

impl<T: Send> Consumer<T> {
    /// Non-blocking pop of `(value, signal)`. On a journaled link,
    /// rewound elements are re-served (as clones, in original order) before
    /// anything new is taken from the ring, and every live pop is recorded
    /// for possible replay.
    pub fn try_pop_signal(&mut self) -> Result<(T, Signal), TryPopError> {
        self.shared.try_pop(&mut self.cursor, &mut self.journal)
    }

    /// Non-blocking pop.
    #[inline]
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        self.try_pop_signal().map(|(v, _)| v)
    }

    /// Blocking pop of `(value, signal)`; errs when the stream closed and
    /// drained.
    pub fn pop_signal(&mut self) -> Result<(T, Signal), PopError> {
        let Consumer {
            shared,
            cursor,
            journal,
        } = self;
        let popped = shared.block_until(Role::Consumer, None, || {
            match shared.try_pop(cursor, journal) {
                Ok(pair) => Some(Some(pair)),
                Err(TryPopError::Closed) => Some(None),
                Err(TryPopError::Empty) => None,
            }
        });
        // `Abandoned` cannot outrun `try_pop`, which already reports a
        // quiesced empty ring as closed.
        popped.ok().flatten().ok_or(PopError)
    }

    /// Blocking pop.
    #[inline]
    pub fn pop(&mut self) -> Result<T, PopError> {
        self.pop_signal().map(|(v, _)| v)
    }

    /// Blocking sliding-window view of the next `n` elements without
    /// consuming them — the paper's `peek_range`. If `n` exceeds the current
    /// capacity the request is recorded and the ring is grown on the spot
    /// (read-side resize trigger), rather than deadlocking.
    ///
    /// Returns `Err(PopError)` if the stream closes (or quiesces) before `n`
    /// elements are available (fewer than `n` remain, forever).
    pub fn peek_range(&mut self, n: usize) -> Result<PeekRange<'_, T>, PopError> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        shared.stats.note_read_request(n);
        let arena = shared.block_until(Role::Consumer, None, || {
            // Grow first if the request can never be satisfied (paper: queue
            // "tagged for resizing" when a read request exceeds capacity).
            // We are outside the arena here, so the resize cannot deadlock
            // against our own membership.
            if n > shared.capacity() && !shared.grow_to(n) {
                // Request exceeds even max_capacity: impossible.
                return Some(None);
            }
            if cursor.refresh(shared) >= n {
                // Occupancy can only grow from here (we are the consumer),
                // so entering the arena and taking the window is race-free.
                return Some(Some(shared.enter(Role::Consumer)));
            }
            (shared.producer_closed.load(Acquire) && cursor.refresh(shared) < n).then_some(None)
        });
        match arena {
            Ok(Some(arena)) => Ok(PeekRange {
                view: SliceView {
                    shared,
                    head: cursor.head(),
                    len: n,
                },
                _arena: arena,
            }),
            _ => Err(PopError),
        }
    }

    /// Reference to the front element, if present (non-blocking). The
    /// closure style keeps the fence membership scoped.
    pub fn peek<R>(&mut self, f: impl FnOnce(&T, Signal) -> R) -> Option<R> {
        let shared = &*self.shared;
        if self.cursor.ready(shared) == 0 {
            return None;
        }
        // RAII: `f` is user code — membership must survive a panic inside it.
        let arena = shared.enter(Role::Consumer);
        // SAFETY: membership held by `arena`; single consumer; the slot is
        // ready (observed through an Acquire load of `tail`), so it is
        // initialized and stays so until this consumer releases it.
        let pair = arena.slot(self.cursor.head(), |p| unsafe { &*(*p).as_ptr() });
        Some(f(&pair.0, pair.1))
    }

    /// Pop up to `n` elements into `out`; blocks until at least one element
    /// is available or the stream ends. Returns the number popped.
    ///
    /// Takes what is visible once something is — it does not wait for *more*
    /// data — under one fence entry and one release, so a producer waiting
    /// for room is told once per call, not once per element.
    pub fn pop_range(&mut self, n: usize, out: &mut Vec<T>) -> Result<usize, PopError> {
        self.shared.stats.note_read_request(n);
        if self.journal.is_some() {
            // Journaled link: route through the per-element path so every
            // element is recorded (and replay is served first). Gives up the
            // single-fence batch amortization for the recovery guarantee.
            let before = out.len();
            out.push(self.pop()?);
            out.extend(std::iter::from_fn(|| self.try_pop().ok()).take(n.saturating_sub(1)));
            return Ok(out.len() - before);
        }
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        let ready = shared.block_until(Role::Consumer, None, || {
            match cursor.poll(shared, || shared.producer_closed.load(Acquire)) {
                Ok(ready) => Some(ready),
                Err(TryPopError::Closed) => Some(0),
                Err(TryPopError::Empty) => None,
            }
        });
        match ready {
            Ok(ready) if ready > 0 => {
                let k = ready.min(n.max(1));
                out.reserve(k);
                shared.drain(cursor, k, |(v, _)| out.push(v));
                Ok(k)
            }
            // Closed and drained, or quiesced.
            _ => Err(PopError),
        }
    }

    /// Lend the front of the queue to `f` as a zero-copy [`SliceView`] of up
    /// to `n` elements, then consume exactly the elements viewed. Blocks
    /// until at least one element is available; the view may hold fewer than
    /// `n` if the stream is running dry. Errs once the stream is closed (or
    /// quiesced) and drained.
    ///
    /// The whole batch costs one fence entry and one counter store. If `f`
    /// panics, nothing is consumed.
    pub fn pop_slice<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&SliceView<'_, T>) -> R,
    ) -> Result<R, PopError> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        shared.stats.note_read_request(n);
        // A full reload each poll: the view should be as large as the ring
        // allows, not as large as a stale cache remembers.
        let avail = shared.block_until(Role::Consumer, None, || match cursor.refresh(shared) {
            0 if !shared.producer_closed.load(Acquire) => None,
            // Closed: one more look, the producer may have pushed between
            // our tail load and its close.
            0 => Some(cursor.refresh(shared)),
            avail => Some(avail),
        });
        let k = match avail {
            Ok(avail) if avail > 0 => avail.min(n.max(1)),
            _ => return Err(PopError),
        };
        // RAII: `f` is user code — membership must survive a panic inside it
        // (on unwind nothing is consumed; head stays put).
        let arena = shared.enter(Role::Consumer);
        let r = f(&SliceView {
            shared,
            head: cursor.head(),
            len: k,
        });
        cursor.pop_some(&arena, k, drop);
        shared.released(arena, cursor.head());
        Ok(r)
    }

    /// Advance past `n` elements previously inspected via `peek_range`,
    /// dropping them under a single fence entry. Returns how many were
    /// actually available to advance past.
    pub fn advance(&mut self, n: usize) -> usize {
        let k = self.cursor.refresh(&*self.shared).min(n);
        if k > 0 {
            self.shared.drain(&mut self.cursor, k, drop);
        }
        k
    }

    /// Enable the consumer-side replay journal — the input half of the
    /// exactly-once recovery contract (see [`crate::journal`]). Every pop
    /// records a clone; [`commit_consumed`](Self::commit_consumed)
    /// acknowledges them, [`rewind_consumed`](Self::rewind_consumed) queues
    /// them for replay. Call once at wiring time, before the first pop.
    ///
    /// Zero-copy read paths (`pop_slice`, `peek_range` + `advance`) bypass
    /// the journal; journaled links must consume through the per-element or
    /// `pop_range` paths (the runtime's supervised wiring does).
    pub fn enable_journal(&mut self, cfg: JournalConfig)
    where
        T: Clone,
    {
        fn clone_of<T: Clone>(v: &T) -> T {
            v.clone()
        }
        if self.journal.is_none() {
            self.journal = Some(Box::new(ConsumerJournal {
                window: ReplayWindow::new(cfg.bound),
                cursor: 0,
                clone_fn: clone_of::<T>,
            }));
            self.shared.journaled.store(true, Release);
        }
    }

    /// `true` once [`enable_journal`](Self::enable_journal) was called.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Elements queued to be re-served after a rewind.
    pub fn replay_pending(&self) -> usize {
        self.journal
            .as_ref()
            .map_or(0, |j| (j.window.next_seq() - j.cursor) as usize)
    }

    /// Journal entries force-dropped by the replay bound — elements whose
    /// replay coverage was lost (see [`JournalConfig::bound`]).
    pub fn journal_forced_acks(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.window.forced_acks())
    }

    /// Commit the current transaction: acknowledge every element popped
    /// since the last commit, releasing it from the replay window. Returns
    /// how many entries were released.
    pub fn commit_consumed(&mut self) -> usize {
        let Some(j) = self.journal.as_mut() else {
            return 0;
        };
        j.cursor = j.window.next_seq();
        self.shared.journal_pending.store(0, Release);
        j.window.ack_all()
    }

    /// Rewind the current transaction: every unacknowledged element will be
    /// re-served (as a clone, in original order) by subsequent pops.
    /// Returns how many elements were queued for replay. A second panic
    /// before the next commit replays the same elements again.
    pub fn rewind_consumed(&mut self) -> usize {
        let Some(j) = self.journal.as_mut() else {
            return 0;
        };
        j.cursor = j.window.acked();
        let pending = j.window.len();
        self.shared.journal_pending.store(pending, Release);
        if pending > 0 {
            // The restarted kernel's task must observe itself as ready even
            // though the ring may be empty.
            self.shared.data.notify_fenced();
        }
        pending
    }

    /// Take a pending asynchronous signal, if any.
    pub fn take_async(&mut self) -> Option<Signal> {
        Signal::decode(self.shared.async_signal.swap(0, Acquire))
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// Producer closed (or link quiesced) and everything consumed,
    /// including any journal replay.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }

    /// Monitor-facing handle for this FIFO.
    pub fn fifo(&self) -> Fifo<T> {
        Fifo {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_closed.store(true, Release);
        // A parked producer must observe the broken stream.
        self.shared.space.notify_fenced();
        // Remaining elements are dropped by Shared::drop (exactly once, with
        // exclusive access) — not here, to avoid racing a late producer push.
    }
}

/// Zero-copy read view of the `len` elements at the front of the queue:
/// lent to the closure of [`Consumer::pop_slice`], and what a
/// [`PeekRange`] dereferences to. Valid only while its creator holds fence
/// membership (around the closure / for the window's lifetime).
pub struct SliceView<'a, T: Send> {
    shared: &'a Shared<T>,
    head: usize,
    len: usize,
}

impl<T: Send> SliceView<'_, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view is empty (never for `pop_slice`, which waits for
    /// data).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn pair(&self, i: usize) -> &(T, Signal) {
        assert!(i < self.len, "view index {i} out of bounds {}", self.len);
        // SAFETY: whoever built the view holds consumer membership for as
        // long as it exists, so the storage cannot be swapped; `[head, head
        // + len)` was ready (observed via Acquire) when the view was taken
        // and the consumer, mutably borrowed by the view's creator, does not
        // release it before the view is gone.
        unsafe { &*(*self.shared.storage().slot(self.head + i)).as_ptr() }
    }

    /// Signal attached to the `i`-th element.
    pub fn signal(&self, i: usize) -> Signal {
        self.pair(i).1
    }

    /// Iterate over the view.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl<T: Send> Index<usize> for SliceView<'_, T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.pair(i).0
    }
}

/// Borrowed sliding window over the front of the queue (see
/// [`Consumer::peek_range`]): a [`SliceView`] that owns its fence
/// membership, so resizes wait until it is dropped.
pub struct PeekRange<'a, T: Send> {
    view: SliceView<'a, T>,
    _arena: Arena<'a, T>,
}

impl<'a, T: Send> Deref for PeekRange<'a, T> {
    type Target = SliceView<'a, T>;
    fn deref(&self) -> &SliceView<'a, T> {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventcount::Wake;
    use std::time::Instant;

    fn small() -> (Fifo<u64>, Producer<u64>, Consumer<u64>) {
        fifo_with(FifoConfig {
            initial_capacity: 4,
            max_capacity: 1 << 16,
            min_capacity: 2,
            ..Default::default()
        })
    }

    #[test]
    fn basic_order() {
        let (_f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(c.try_pop().unwrap(), i);
        }
    }

    #[test]
    fn full_then_grow_preserves_order() {
        let (f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert!(matches!(p.try_push(99), Err(TryPushError::Full(99))));
        assert!(f.grow());
        assert_eq!(f.capacity(), 8);
        for i in 4..8 {
            p.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(c.try_pop().unwrap(), i);
        }
    }

    #[test]
    fn grow_with_wrapped_ring() {
        let (f, mut p, mut c) = small();
        // Fill, drain half, refill: live region wraps the array end.
        for i in 0..4u64 {
            p.try_push(i).unwrap();
        }
        assert_eq!(c.try_pop().unwrap(), 0);
        assert_eq!(c.try_pop().unwrap(), 1);
        p.try_push(4).unwrap();
        p.try_push(5).unwrap();
        // live = [2,3,4,5] with head index 2 of 4 -> wrapped
        assert!(f.grow());
        for i in 2..6 {
            assert_eq!(c.try_pop().unwrap(), i);
        }
    }

    #[test]
    fn shrink_respects_occupancy() {
        let (f, mut p, _c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 16,
            max_capacity: 64,
            min_capacity: 2,
            ..Default::default()
        });
        for i in 0..10 {
            p.try_push(i).unwrap();
        }
        // shrink to 8 would lose data: resize clamps to >= occupancy (10 -> 16)
        let c = f.resize(8);
        assert!(c >= 10, "capacity {c} must hold 10 live elements");
    }

    #[test]
    fn resize_to_same_capacity_is_noop() {
        let (f, _p, _c) = small();
        let before = f.snapshot().resizes;
        f.resize(4);
        assert_eq!(f.snapshot().resizes, before);
    }

    #[test]
    fn close_drain_semantics() {
        let (_f, mut p, mut c) = small();
        p.try_push(1).unwrap();
        p.close();
        assert_eq!(c.pop().unwrap(), 1);
        assert!(c.pop().is_err());
        assert!(c.is_finished());
    }

    #[test]
    fn producer_drop_closes() {
        let (_f, p, mut c) = small();
        drop(p);
        assert_eq!(c.try_pop(), Err(TryPopError::Closed));
    }

    #[test]
    fn consumer_drop_rejects_push() {
        let (_f, mut p, c) = small();
        drop(c);
        assert!(matches!(p.try_push(1), Err(TryPushError::Closed(1))));
        assert!(p.push(1).is_err());
    }

    #[test]
    fn blocking_push_unblocks_on_pop() {
        let (_f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let t = std::thread::spawn(move || {
            p.push(4).unwrap(); // blocks until a pop
            p
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c.pop().unwrap(), 0);
        let _p = t.join().unwrap();
        assert_eq!(c.pop().unwrap(), 1);
    }

    #[test]
    fn blocking_push_unblocks_on_grow() {
        let (f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let t = std::thread::spawn(move || {
            p.push(4).unwrap();
            p
        });
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            f.stats().writer_blocked_for_ns() > 0,
            "writer should appear blocked"
        );
        assert!(f.grow());
        let _p = t.join().unwrap();
        for i in 0..5 {
            assert_eq!(c.pop().unwrap(), i);
        }
    }

    #[test]
    fn blocking_pop_unblocks_on_push() {
        let (_f, mut p, mut c) = small();
        let t = std::thread::spawn(move || c.pop().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        p.push(77).unwrap();
        assert_eq!(t.join().unwrap(), 77);
    }

    #[test]
    fn peek_range_window() {
        let (_f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        {
            let w = c.peek_range(3).unwrap();
            assert_eq!(w.len(), 3);
            assert_eq!(w[0], 0);
            assert_eq!(w[1], 1);
            assert_eq!(w[2], 2);
            let sum: u64 = w.iter().sum();
            assert_eq!(sum, 3);
        }
        // window did not consume
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.advance(2), 2);
        assert_eq!(c.try_pop().unwrap(), 2);
    }

    #[test]
    fn peek_range_grows_ring_when_larger_than_capacity() {
        let (f, mut p, mut c) = small();
        let t = std::thread::spawn(move || {
            for i in 0..10 {
                p.push(i).unwrap();
            }
            p
        });
        {
            let w = c.peek_range(10).unwrap();
            assert_eq!(w.len(), 10);
            for i in 0..10 {
                assert_eq!(w[i as usize], i as u64);
            }
        }
        assert!(f.capacity() >= 10);
        assert!(f.snapshot().resizes >= 1);
        let _p = t.join().unwrap();
    }

    #[test]
    fn peek_range_fails_when_stream_too_short() {
        let (_f, mut p, mut c) = small();
        p.try_push(1).unwrap();
        p.close();
        assert!(c.peek_range(3).is_err());
        // the single element is still poppable
        assert_eq!(c.pop().unwrap(), 1);
    }

    #[test]
    fn pop_range_batches() {
        let (_f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        let got = c.pop_range(3, &mut out).unwrap();
        assert_eq!(got, 3);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn signals_synchronous_with_data() {
        let (_f, mut p, mut c) = small();
        p.try_push_signal(10, Signal::SoS).unwrap();
        p.try_push(11).unwrap();
        p.try_push_signal(12, Signal::EoS).unwrap();
        assert_eq!(c.try_pop_signal().unwrap(), (10, Signal::SoS));
        assert_eq!(c.try_pop_signal().unwrap(), (11, Signal::None));
        assert_eq!(c.try_pop_signal().unwrap(), (12, Signal::EoS));
    }

    #[test]
    fn async_signal_out_of_band() {
        let (f, mut p, mut c) = small();
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        f.post_async(Signal::Flush);
        // visible immediately, before any data is consumed
        assert_eq!(c.take_async(), Some(Signal::Flush));
        assert_eq!(c.take_async(), None);
        assert_eq!(c.try_pop().unwrap(), 1);
    }

    #[test]
    fn allocate_commits_on_drop() {
        let (_f, mut p, mut c) = small();
        {
            let mut g = p.allocate().unwrap();
            *g = 42;
        }
        assert_eq!(c.try_pop().unwrap(), 42);
    }

    #[test]
    fn allocate_with_signal() {
        let (_f, mut p, mut c) = small();
        {
            let mut g = p.allocate().unwrap();
            *g = 7;
            g.set_signal(Signal::EoS);
        }
        assert_eq!(c.try_pop_signal().unwrap(), (7, Signal::EoS));
    }

    #[test]
    fn allocate_abort_discards() {
        let (_f, mut p, mut c) = small();
        {
            let mut g = p.allocate().unwrap();
            *g = 13;
            g.abort();
        }
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
        p.try_push(1).unwrap();
        assert_eq!(c.try_pop().unwrap(), 1);
    }

    #[test]
    fn allocate_read_back() {
        let (_f, mut p, mut c) = small();
        {
            let mut g = p.allocate().unwrap();
            *g = 5;
            assert_eq!(*g, 5); // Deref sees what DerefMut wrote
        }
        assert_eq!(c.try_pop().unwrap(), 5);
    }

    #[test]
    fn stats_counters() {
        let (f, mut p, mut c) = small();
        for i in 0..3 {
            p.try_push(i).unwrap();
        }
        c.try_pop().unwrap();
        let s = f.snapshot();
        assert_eq!(s.pushed, 3);
        assert_eq!(s.popped, 1);
        assert_eq!(s.occupancy, 2);
    }

    #[test]
    fn reserve_commits_on_drop() {
        let (_f, mut p, mut c) = small();
        {
            let mut w = p.reserve(3).unwrap();
            assert_eq!(w.remaining(), 3);
            w.push(10);
            w.push_signal(11, Signal::EoS);
            assert_eq!(w.len(), 2);
            // third slot left unwritten: only 2 are published
        }
        assert_eq!(c.try_pop_signal().unwrap(), (10, Signal::None));
        assert_eq!(c.try_pop_signal().unwrap(), (11, Signal::EoS));
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn reserve_grows_ring_when_larger_than_capacity() {
        let (f, mut p, mut c) = small();
        {
            let mut w = p.reserve(10).unwrap();
            for i in 0..10 {
                w.push(i);
            }
        }
        assert!(f.capacity() >= 10);
        assert!(f.snapshot().resizes >= 1);
        for i in 0..10 {
            assert_eq!(c.try_pop().unwrap(), i);
        }
    }

    #[test]
    fn reserve_to_closed_consumer_errs() {
        let (_f, mut p, c) = small();
        drop(c);
        assert!(p.reserve(2).is_err());
    }

    #[test]
    fn reserve_blocks_until_room() {
        let (_f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(4));
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let t = std::thread::spawn(move || {
            let mut w = p.reserve(2).unwrap(); // blocks: only 0 free
            w.push(4);
            w.push(5);
            drop(w);
            p
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(c.pop().unwrap(), 1);
        let _p = t.join().unwrap();
        for i in 2..6 {
            assert_eq!(c.pop().unwrap(), i);
        }
    }

    #[test]
    #[should_panic(expected = "WriteSlice overflow")]
    fn reserve_overflow_panics() {
        let (_f, mut p, _c) = small();
        let mut w = p.reserve(1).unwrap();
        w.push(1);
        w.push(2); // beyond the reservation
    }

    #[test]
    fn pop_slice_views_then_consumes() {
        let (_f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push_signal(i, if i == 3 { Signal::EoS } else { Signal::None })
                .unwrap();
        }
        let sum = c
            .pop_slice(3, |v| {
                assert_eq!(v.len(), 3);
                assert_eq!(v.signal(0), Signal::None);
                v.iter().sum::<u64>()
            })
            .unwrap();
        assert_eq!(sum, 3);
        // exactly the viewed elements were consumed
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.try_pop_signal().unwrap(), (3, Signal::EoS));
    }

    #[test]
    fn pop_slice_partial_tail_and_close() {
        let (_f, mut p, mut c) = small();
        p.try_push(7).unwrap();
        p.close();
        // asks for 8, stream only ever has 1: view holds the remainder
        let got = c.pop_slice(8, |v| v.iter().copied().collect::<Vec<_>>());
        assert_eq!(got.unwrap(), vec![7]);
        assert!(c.pop_slice(1, |_| ()).is_err());
    }

    #[test]
    fn pop_slice_panic_consumes_nothing() {
        let (_f, mut p, mut c) = small();
        p.try_push(1).unwrap();
        p.try_push(2).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.pop_slice(2, |_| panic!("boom"));
        }));
        assert!(r.is_err());
        // nothing consumed, and the fence was released (resize still works)
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.try_pop().unwrap(), 1);
    }

    #[test]
    fn cross_thread_stress_with_concurrent_resizes() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: 1 << 12,
            min_capacity: 2,
            ..Default::default()
        });
        const N: u64 = 200_000;
        let monitor = {
            let f = f.clone();
            std::thread::spawn(move || {
                // Aggressively resize up and down while traffic flows.
                for i in 0..500 {
                    if i % 2 == 0 {
                        f.grow();
                    } else {
                        f.shrink();
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        };
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(i).unwrap();
            }
        });
        let mut expected = 0u64;
        while let Ok(v) = c.pop() {
            assert_eq!(v, expected, "reordered or lost element under resize");
            expected += 1;
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
        monitor.join().unwrap();
    }

    #[test]
    fn batch_views_under_concurrent_resizes() {
        // Same storm as above, but all traffic goes through reserve/pop_slice.
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: 1 << 12,
            min_capacity: 2,
            ..Default::default()
        });
        const N: u64 = 100_000;
        const BATCH: usize = 7; // deliberately not a power of two
        let monitor = {
            let f = f.clone();
            std::thread::spawn(move || {
                for i in 0..300 {
                    if i % 2 == 0 {
                        f.grow();
                    } else {
                        f.shrink();
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        };
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                let mut w = p.reserve(BATCH.min((N - i) as usize)).unwrap();
                while w.remaining() > 0 {
                    w.push(i);
                    i += 1;
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            let popped = c
                .pop_slice(BATCH, |v| {
                    for j in 0..v.len() {
                        assert_eq!(v[j], expected + j as u64, "batch view corrupted");
                    }
                    v.len() as u64
                })
                .unwrap();
            expected += popped;
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
        monitor.join().unwrap();
    }

    #[test]
    fn drop_with_heap_elements_no_leak() {
        let (_f, mut p, c) = fifo_with::<String>(FifoConfig::starting_at(8));
        for i in 0..5 {
            p.try_push(format!("value-{i}")).unwrap();
        }
        drop(c); // strings are dropped by Shared::drop when _f and p go too
        drop(p);
    }

    #[test]
    fn batch_push_fills_and_blocks_correctly() {
        let (_f, mut p, mut c) = small();
        let mut items: Vec<u64> = (0..10).collect();
        // capacity 4: only 4 fit non-blockingly
        let n = p.try_push_batch(&mut items).unwrap();
        assert_eq!(n, 4);
        assert_eq!(items.len(), 6);
        assert_eq!(c.try_pop().unwrap(), 0);
        // blocking batch completes once a consumer drains concurrently
        let consumer = std::thread::spawn(move || {
            let mut got = vec![0u64]; // already popped
            while let Ok(v) = c.pop() {
                got.push(v);
            }
            got
        });
        p.push_batch(&mut items).unwrap();
        assert!(items.is_empty());
        p.close();
        drop(p);
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_push_to_closed_consumer_errs() {
        let (_f, mut p, c) = small();
        drop(c);
        let mut items = vec![1u64, 2];
        assert!(p.try_push_batch(&mut items).is_err());
        assert_eq!(items.len(), 2, "items must be handed back");
        assert!(p.push_batch(&mut items).is_err());
    }

    #[test]
    fn batch_push_empty_is_noop() {
        let (_f, mut p, _c) = small();
        let mut items: Vec<u64> = Vec::new();
        assert_eq!(p.try_push_batch(&mut items).unwrap(), 0);
        p.push_batch(&mut items).unwrap();
    }

    #[test]
    fn fixed_config_never_resizes() {
        let (f, mut p, _c) = fifo_with::<u32>(FifoConfig::fixed(8));
        for i in 0..8 {
            p.try_push(i).unwrap();
        }
        assert!(!f.grow());
        assert!(!f.shrink());
        assert_eq!(f.capacity(), 8);
    }

    #[test]
    fn shm_backed_fifo_roundtrip() {
        let cfg = FifoConfig::fixed(8).with_alloc(LinkAlloc::Shm);
        let (f, mut p, mut c) = fifo_with::<u64>(cfg);
        if crate::shm::ShmSegment::memfd_supported() {
            assert_eq!(f.link_alloc(), LinkAlloc::Shm);
        } else {
            assert_eq!(f.link_alloc(), LinkAlloc::Heap);
        }
        // Shm storage is fixed-capacity: a mapped segment cannot be
        // resized under a live peer.
        assert!(!f.grow());
        for i in 0..8u64 {
            p.try_push(i).unwrap();
        }
        assert!(matches!(p.try_push(99), Err(TryPushError::Full(_))));
        // Zero-copy views work over the mapped segment too.
        let seen = c
            .pop_slice(8, |view| view.iter().copied().collect::<Vec<_>>())
            .unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        let mut ws = p.reserve(4).unwrap();
        for i in 0..4u64 {
            ws.push(i * 10);
        }
        drop(ws);
        assert_eq!(c.try_pop().unwrap(), 0);
        assert_eq!(c.try_pop().unwrap(), 10);
    }

    #[test]
    fn journal_rewind_replays_uncommitted_pops() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        c.enable_journal(JournalConfig::default());
        assert!(f.journaled());
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(c.pop().unwrap(), 1);
        // Transaction fails: both pops must be re-served, in order.
        assert_eq!(c.rewind_consumed(), 2);
        assert_eq!(c.replay_pending(), 2);
        assert_eq!(f.occupancy(), 4, "replay counts as occupancy");
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(c.pop().unwrap(), 1);
        assert_eq!(c.pop().unwrap(), 2);
        // A second failure before commit replays everything again.
        assert_eq!(c.rewind_consumed(), 3);
        assert_eq!(
            (0..3).map(|_| c.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(c.commit_consumed(), 3);
        assert_eq!(c.rewind_consumed(), 0, "committed entries stay acked");
        assert_eq!(c.pop().unwrap(), 3);
        assert_eq!(f.snapshot().replayed, 5);
    }

    #[test]
    fn journal_is_finished_waits_for_replay() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        c.enable_journal(JournalConfig::default());
        p.try_push(7).unwrap();
        p.close();
        drop(p);
        assert_eq!(c.pop().unwrap(), 7);
        c.rewind_consumed();
        assert!(!f.is_finished(), "pending replay is unconsumed data");
        assert_eq!(c.pop().unwrap(), 7);
        c.commit_consumed();
        assert!(f.is_finished());
    }

    #[test]
    fn staging_publishes_only_on_commit() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        p.enable_staging();
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(f.occupancy(), 0, "staged pushes are not published");
        assert_eq!(p.staged_len(), 2);
        // Failed transaction: outputs vanish without a trace.
        assert_eq!(p.rewind_produced(), 2);
        p.push(3).unwrap();
        p.push(4).unwrap();
        assert_eq!(p.commit_produced().unwrap(), 2);
        assert_eq!(c.pop().unwrap(), 3);
        assert_eq!(c.pop().unwrap(), 4);
        assert_eq!(p.commit_produced().unwrap(), 0, "commit is idempotent");
    }

    #[test]
    fn shed_policy_drops_on_full_and_counts() {
        let (f, mut p, _c) =
            fifo_with::<u64>(FifoConfig::fixed(4).with_admission(AdmissionPolicy::Shed));
        for i in 0..4 {
            p.push(i).unwrap();
        }
        // Ring full, consumer idle: Block would hang here — Shed returns.
        p.push(99).unwrap();
        p.push(100).unwrap();
        assert_eq!(f.occupancy(), 4);
        assert_eq!(f.snapshot().shed, 2);
        let mut batch = vec![1u64, 2, 3];
        p.push_batch(&mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(f.snapshot().shed, 5);
    }

    #[test]
    fn block_timeout_policy_degrades_to_shed() {
        let (f, mut p, _c) = fifo_with::<u64>(
            FifoConfig::fixed(2)
                .with_admission(AdmissionPolicy::BlockTimeout(Duration::from_millis(5))),
        );
        p.push(0).unwrap();
        p.push(1).unwrap();
        let t0 = Instant::now();
        p.push(2).unwrap(); // blocks ~5ms, then sheds
        assert!(t0.elapsed() >= Duration::from_millis(4));
        assert_eq!(f.snapshot().shed, 1);
    }

    #[test]
    fn quiesce_fails_blocked_endpoints_fast() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(2));
        p.push(0).unwrap();
        p.push(1).unwrap();
        assert_eq!(f.drain_level(), DRAIN_RUNNING);
        f.set_drain_level(DRAIN_QUIESCED);
        // Full ring + quiesce: the blocking push errs instead of wedging.
        assert!(p.push(2).is_err());
        // Queued data still drains...
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(c.pop().unwrap(), 1);
        // ...then the consumer sees end-of-stream though the producer lives.
        assert!(matches!(c.try_pop(), Err(TryPopError::Closed)));
        assert!(c.is_finished());
        assert!(f.is_finished());
    }

    /// Block `blocked` on its own thread, wait until it has armed its park
    /// (it is asleep or about to be), then let `act` make its condition
    /// true. Returns what `blocked` returned.
    fn wake_once_parked<R: Send>(
        armed: &dyn Fn() -> bool,
        blocked: impl FnOnce() -> R + Send,
        act: impl FnOnce(),
    ) -> R {
        std::thread::scope(|s| {
            let sleeper = s.spawn(blocked);
            while !armed() {
                std::thread::yield_now();
            }
            act();
            sleeper.join().unwrap()
        })
    }

    fn space_armed<T>(f: &Fifo<T>) -> impl Fn() -> bool + '_ {
        || Wake::armed(f.shared.space.thread.backend()).load(Acquire) == 1
    }

    fn data_armed<T>(f: &Fifo<T>) -> impl Fn() -> bool + '_ {
        || Wake::armed(f.shared.data.thread.backend()).load(Acquire) == 1
    }

    /// A full fixed ring of two, for the producer-side rows.
    fn full() -> (Fifo<u64>, Producer<u64>, Consumer<u64>) {
        let (f, mut p, c) = fifo_with::<u64>(FifoConfig::fixed(2));
        p.try_push(0).unwrap();
        p.try_push(1).unwrap();
        (f, p, c)
    }

    #[test]
    fn no_blocking_entry_point_needs_the_park_timeout() {
        // Every blocking entry point parks through the same arm → re-check →
        // wait(epoch) sequence, so a peer that acts once the sleeper has
        // armed always wakes it: the 2 ms backstop never has to. One row per
        // entry point; each returns the rescues its link counted.
        type Row = (&'static str, fn() -> u64);
        let rows: [Row; 9] = [
            ("push", || {
                let (f, mut p, mut c) = full();
                wake_once_parked(
                    &space_armed(&f),
                    || p.push(2).unwrap(),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("push_batch", || {
                let (f, mut p, mut c) = full();
                let mut items = vec![2, 3];
                wake_once_parked(
                    &space_armed(&f),
                    || p.push_batch(&mut items).unwrap(),
                    || assert_eq!(c.pop_range(2, &mut Vec::new()).unwrap(), 2),
                );
                f.snapshot().rescues
            }),
            ("reserve", || {
                let (f, mut p, mut c) = full();
                wake_once_parked(
                    &space_armed(&f),
                    || drop(p.reserve(1).unwrap()),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("allocate", || {
                let (f, mut p, mut c) = full();
                wake_once_parked(
                    &space_armed(&f),
                    || drop(p.allocate().unwrap()),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("pop", || {
                let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(2));
                let got = wake_once_parked(
                    &data_armed(&f),
                    || c.pop().unwrap(),
                    || {
                        p.push(7).unwrap();
                    },
                );
                assert_eq!(got, 7);
                f.snapshot().rescues
            }),
            ("peek_range", || {
                let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(2));
                p.push(1).unwrap();
                let seen = wake_once_parked(
                    &data_armed(&f),
                    || c.peek_range(2).unwrap().iter().sum::<u64>(),
                    || p.push(2).unwrap(),
                );
                assert_eq!(seen, 3);
                f.snapshot().rescues
            }),
            ("pop_slice", || {
                let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(2));
                let seen = wake_once_parked(
                    &data_armed(&f),
                    || c.pop_slice(2, |v| v[0]).unwrap(),
                    || p.push(5).unwrap(),
                );
                assert_eq!(seen, 5);
                f.snapshot().rescues
            }),
            ("ShmRing::push", || {
                let (mut p, mut c) = crate::shm::ShmRing::<u64>::pair(1);
                p.try_push(0).unwrap();
                let seg = p.segment_shared();
                let armed = || Wake::armed(seg.producer_waker().backend()).load(Acquire) == 1;
                wake_once_parked(
                    &armed,
                    || p.push(1).unwrap(),
                    || {
                        c.try_pop().unwrap();
                    },
                );
                p.rescues()
            }),
            ("ShmRing::pop", || {
                let (mut p, mut c) = crate::shm::ShmRing::<u64>::pair(1);
                let seg = c.segment_shared();
                let armed = || Wake::armed(seg.consumer_waker().backend()).load(Acquire) == 1;
                let got = wake_once_parked(
                    &armed,
                    || c.pop().unwrap(),
                    || {
                        p.try_push(4).unwrap();
                    },
                );
                assert_eq!(got, 4);
                c.rescues()
            }),
        ];
        for (entry, round) in rows {
            for n in 0..200 {
                assert_eq!(round(), 0, "{entry}: park rescued on round {n}");
            }
        }
    }

    #[test]
    fn drain_level_is_monotonic() {
        let (f, _p, _c) = fifo_with::<u64>(FifoConfig::default());
        f.set_drain_level(DRAIN_QUIESCED);
        f.set_drain_level(DRAIN_DRAINING); // lowering is ignored
        assert_eq!(f.drain_level(), DRAIN_QUIESCED);
    }
}
