//! The production stream FIFO: lock-free SPSC fast path + dynamic resizing.
//!
//! RaftLib resizes queues while the application runs (§4): a monitor thread
//! wakes every δ and grows a queue when the writer has been blocked for 3δ,
//! or when a reader asked for more items than the queue can ever hold. The
//! resize itself uses "lock-free exclusion" and prefers the moment when the
//! ring is in a *non-wrapped* position so the live region can be moved with
//! one contiguous copy.
//!
//! Reproduction here:
//!
//! * `head`/`tail` are monotonic atomic counters living *outside* the slot
//!   storage (each on its own cache line), so a resize only swaps the
//!   storage and never disturbs the producer/consumer protocol;
//! * each endpoint keeps a local mirror of its own counter plus a stale
//!   cache of the opposite one ([`crate::spsc`]'s cached-index scheme), so
//!   the common-case push/pop never loads its own shared counter and only
//!   refreshes the opposite counter when the ring looks full/empty;
//! * push/pop are excluded from resizes by the Dekker-style
//!   [`ResizeFence`] — one flag store + SeqCst fence + one load per
//!   operation, no lock RMW and no shared contended lock word. The old
//!   per-op `RwLock` read acquisition is gone from the hot path; the lock
//!   survives only for resizer-vs-resizer exclusion and third-party
//!   `capacity()` reads;
//! * a resize takes the exclusive lock **and** the fence, copies the live
//!   region (single `memcpy` when source and destination are both
//!   non-wrapped, element-wise otherwise), and swaps storage;
//! * blocked endpoints record `*_blocked_since` timestamps in
//!   [`FifoStats`], which is precisely the signal the monitor's 3δ rule
//!   consumes; parked threads are woken by the opposite endpoint or by a
//!   resize;
//! * zero-copy batch views: [`Producer::reserve`] hands out a
//!   [`WriteSlice`] that is written in place and committed (published with
//!   one counter store) on drop; [`Consumer::pop_slice`] lends the front of
//!   the queue to a closure as a [`SliceView`] and consumes it afterwards —
//!   both amortize the fence entry over the whole batch.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Index};
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::{PopError, PushError, TryPopError, TryPushError};
use crate::fence::{ResizeFence, Role};
use crate::index::{consumer_ready_elems, producer_free_slots};
use crate::journal::{AdmissionPolicy, JournalConfig, ReplayWindow};
use crate::signal::Signal;
use crate::stats::{FifoStats, StatsSnapshot};
use crate::wait::{WaitAction, WaitStrategy, Waiter};
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

/// State shared by producer, consumer, and monitor.
struct Shared<T> {
    /// Slot storage. Endpoints access it **without** taking this lock —
    /// they hold [`ResizeFence`] membership instead and go through
    /// [`RwLock::data_ptr`]. The lock only serializes resizers against each
    /// other and covers third-party `capacity()` reads.
    storage: RwLock<Storage<T>>,
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
    /// Next index to read (monotonic). Own cache line: the producer spins
    /// on this only when its cached copy says the ring is full.
    head: CachePadded<AtomicUsize>,
    /// Next index to write (monotonic), cache line apart from `head`.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Out-of-band signal channel ("asynchronous signaling", §4.2).
    async_signal: AtomicU64,
    /// Set while the producer is parked waiting for space.
    writer_waiting: AtomicBool,
    /// Set while the consumer is parked waiting for data.
    reader_waiting: AtomicBool,
    park: Mutex<()>,
    unpark: Condvar,
    /// Event-driven readiness hook for the consuming side: notified when
    /// data, EoS, or an async signal becomes visible. Registered/armed by
    /// the work-stealing scheduler; a single relaxed load when unused.
    consumer_waker: WakerSlot,
    /// Readiness hook for the producing side: notified when space becomes
    /// visible (pop, batch drain, consumer drop, grow).
    producer_waker: WakerSlot,
    /// Cooperative drain level ([`DRAIN_RUNNING`] / [`DRAIN_DRAINING`] /
    /// [`DRAIN_QUIESCED`]); raised monotonically by the monitor or a stop
    /// handle, never lowered.
    drain: AtomicU8,
    /// Elements awaiting replay after a journal rewind. Counted into
    /// [`Shared::occupancy`] so schedulers see a rewound link as ready and
    /// `is_finished` stays false until the replay is consumed.
    journal_pending: AtomicUsize,
    /// Set once the consumer endpoint enabled its replay journal.
    journaled: AtomicBool,
    stats: FifoStats,
    cfg: FifoConfig,
    /// Protocol shadow checker (SPSC discipline, monotonic sequences,
    /// resize-fence transitions); driven from the arena chokepoints below.
    #[cfg(feature = "raft_protocol_check")]
    shadow: crate::protocol::FifoShadow,
}

impl<T> Shared<T> {
    /// Elements in the ring proper (excluding journal replay).
    #[inline]
    fn ring_occupancy(&self) -> usize {
        self.tail
            .load(Acquire)
            .saturating_sub(self.head.load(Acquire))
    }

    /// Elements observable by the consumer: ring contents plus journal
    /// entries queued for replay after a rewind.
    #[inline]
    fn occupancy(&self) -> usize {
        self.ring_occupancy() + self.journal_pending.load(Acquire)
    }

    /// Wake any parked endpoint. Cheap when nobody is waiting (one relaxed
    /// load each).
    #[inline]
    fn wake(&self) {
        if self.writer_waiting.load(Relaxed) || self.reader_waiting.load(Relaxed) {
            let _g = self.park.lock();
            self.unpark.notify_all();
        }
    }

    /// Enter the ring critical section for `role`. Free for fixed-capacity
    /// FIFOs (nothing can swap the storage); one SeqCst swap + load
    /// otherwise.
    #[inline]
    fn arena_enter(&self, role: Role) {
        if self.resizable {
            self.fence.enter(role);
        }
        // Shadow CS strictly inside the fence CS: entered only after the
        // fence is held, so the checker cannot flag interleavings the
        // fence already excludes.
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.enter(role);
    }

    /// Leave the ring critical section for `role`.
    #[inline]
    fn arena_exit(&self, role: Role) {
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.exit(
            role,
            match role {
                Role::Producer => self.tail.load(Relaxed),
                Role::Consumer => self.head.load(Relaxed),
            },
        );
        if self.resizable {
            self.fence.exit(role);
        }
    }

    /// Raw storage access for an endpoint *currently inside
    /// [`arena_enter`](Self::arena_enter)*.
    ///
    /// # Safety
    /// The caller must be inside an `arena_enter`/`arena_exit` pair for its
    /// role: membership excludes any storage swap (and fixed-capacity FIFOs
    /// can never swap), so the reference is stable for the duration of the
    /// critical section.
    #[inline]
    unsafe fn storage_unlocked(&self) -> &Storage<T> {
        // SAFETY: per the function contract, no resize (the only writer)
        // can run while the caller holds membership, so a shared reference
        // to the contents cannot alias a mutation.
        unsafe { &*self.storage.data_ptr() }
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Last owner of the FIFO: drop whatever elements remain exactly once.
        // (Storage never drops its MaybeUninit contents itself.)
        let storage = self.storage.write();
        let head = self.head.load(Relaxed);
        let tail = self.tail.load(Relaxed);
        for i in head..tail {
            // SAFETY: [head, tail) is the live region; exclusive access here.
            unsafe { (*storage.slot(i)).assume_init_drop() };
        }
    }
}

/// RAII fence membership, so user closures that panic (peek, pop_slice)
/// can't strand the monitor waiting on a raised `active` flag.
struct ArenaGuard<'a, T> {
    shared: &'a Shared<T>,
    role: Role,
}

impl<'a, T> ArenaGuard<'a, T> {
    #[inline]
    fn enter(shared: &'a Shared<T>, role: Role) -> Self {
        shared.arena_enter(role);
        ArenaGuard { shared, role }
    }
}

impl<T> Drop for ArenaGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.shared.arena_exit(self.role);
    }
}

/// How long a parked endpoint sleeps before re-checking, as a missed-wakeup
/// safety net. The event path (condvar notify + [`WakerSlot`]) is what
/// actually delivers wakeups; this bound only papers over the inherent
/// relaxed-flag race on the condvar path, so it is a pure safety net rather
/// than a polling rate — stretched from the old 200 µs accordingly.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// Spin → yield → park schedule shared by every blocking endpoint loop.
const ENDPOINT_WAIT: WaitStrategy = WaitStrategy::parking(PARK_TIMEOUT);

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
        storage: RwLock::new(storage),
        fence: ResizeFence::new(),
        resizable: cfg.max_capacity != cfg.min_capacity,
        alloc,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        async_signal: AtomicU64::new(0),
        writer_waiting: AtomicBool::new(false),
        reader_waiting: AtomicBool::new(false),
        park: Mutex::new(()),
        unpark: Condvar::new(),
        consumer_waker: WakerSlot::new(),
        producer_waker: WakerSlot::new(),
        drain: AtomicU8::new(DRAIN_RUNNING),
        journal_pending: AtomicUsize::new(0),
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
            shared: shared.clone(),
            tail: 0,
            head_cache: 0,
            staged: None,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
            journal: None,
        },
    )
}

impl<T: Send> Fifo<T> {
    /// Current capacity (elements).
    pub fn capacity(&self) -> usize {
        self.shared.storage.read().capacity()
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
        (self.shared.producer_closed.load(Acquire)
            || self.shared.drain.load(Acquire) >= DRAIN_QUIESCED)
            && self.shared.occupancy() == 0
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
            self.shared.consumer_waker.notify();
            self.shared.producer_waker.notify();
            self.shared.wake();
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
        self.shared.consumer_waker.notify();
        self.shared.wake();
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
    /// current occupancy). Returns the resulting capacity.
    ///
    /// Takes the exclusive storage lock (vs. other resizers and third-party
    /// `capacity()` readers), then the [`ResizeFence`] (vs. the endpoints,
    /// who retry as soon as `end_resize` clears the pending flag). The live
    /// region is moved with one contiguous copy when both source and
    /// destination regions are non-wrapped (the paper's preferred resize
    /// position), element-wise otherwise.
    pub fn resize(&self, new_capacity: usize) -> usize {
        let shared = &self.shared;
        if !shared.resizable {
            // Fixed-capacity config: endpoints skip the fence, so mutating
            // the storage here would be unsound — and the clamp below could
            // only ever return the current capacity anyway.
            return self.capacity();
        }
        let mut guard = shared.storage.write();
        // Chaos hook: inject a stall (or panic) while holding the storage
        // lock but before the fence, the window where a wedged resize is
        // most visible to the endpoints.
        crate::failpoint!("buffer::fifo::resize");
        shared.fence.begin_resize();
        // With the fence held, both endpoints are outside their critical
        // sections; their counter stores happened-before their (acquired)
        // fence exits, so Relaxed loads here read the settled values and
        // nobody moves them until end_resize.
        let head = shared.head.load(Relaxed);
        let tail = shared.tail.load(Relaxed);
        #[cfg(feature = "raft_protocol_check")]
        shared.shadow.resize_begin();
        let live = tail - head;
        let new_capacity = new_capacity
            .clamp(shared.cfg.min_capacity, shared.cfg.max_capacity)
            .max(live)
            .next_power_of_two();
        if new_capacity == guard.capacity() {
            #[cfg(feature = "raft_protocol_check")]
            shared.shadow.resize_end(
                head,
                tail,
                shared.head.load(Relaxed),
                shared.tail.load(Relaxed),
            );
            shared.fence.end_resize();
            return new_capacity;
        }
        let new = Storage::<T>::with_capacity(new_capacity);
        let old_mask = guard.mask;
        let old_cap = guard.capacity();
        if live > 0 {
            let src_start = head & old_mask;
            let dst_start = head & new.mask;
            let src_contig = src_start + live <= old_cap;
            let dst_contig = dst_start + live <= new.capacity();
            // SAFETY: the fence excludes both endpoints and the write lock
            // excludes other resizers, so nothing reads or writes either
            // storage concurrently. Source slots `[head, tail)` are
            // initialized (live region); destination slots are freshly
            // allocated and distinct allocations, so the ranges cannot
            // overlap. `new_capacity >= live` (clamped above) guarantees the
            // destination indices stay in bounds, and the bit-copy is a
            // move: the old slots are discarded as `MaybeUninit` (never
            // dropped) right after, so no element is duplicated or leaked.
            unsafe {
                if src_contig && dst_contig {
                    // Fast path: one memcpy of the whole live region.
                    std::ptr::copy_nonoverlapping(guard.slot(src_start), new.slot(head), live);
                } else {
                    // Wrapped on either side: move element-wise.
                    for i in 0..live {
                        std::ptr::copy_nonoverlapping(
                            guard.slot((head + i) & old_mask),
                            new.slot(head + i),
                            1,
                        );
                    }
                }
            }
        }
        // Old slots' live elements were moved out byte-wise: discarding the
        // old storage is safe because MaybeUninit never drops its contents.
        *guard = new;
        shared.stats.monitor.resizes.fetch_add(1, Relaxed);
        #[cfg(feature = "raft_protocol_check")]
        shared.shadow.resize_end(
            head,
            tail,
            shared.head.load(Relaxed),
            shared.tail.load(Relaxed),
        );
        // Publish the new storage (Release inside) before endpoints re-enter.
        shared.fence.end_resize();
        drop(guard);
        // A grow makes space visible to a parked producer-side task.
        shared.producer_waker.notify();
        shared.wake();
        new_capacity
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
        if self.capacity() >= target {
            return true;
        }
        self.resize(target.next_power_of_two()) >= target
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
        &self.shared.consumer_waker
    }
    fn producer_waker(&self) -> &WakerSlot {
        &self.shared.producer_waker
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

/// Producing endpoint of a [`Fifo`]. One per stream; `Send`, not `Clone`.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local mirror of `shared.tail` — exact between operations, so the
    /// fast path never loads its own shared counter.
    tail: usize,
    /// Stale (conservative) copy of `shared.head`; refreshed only when the
    /// ring looks full. Never ahead of the true head, so staleness can only
    /// cause a spurious refresh, never an overwrite.
    head_cache: usize,
    /// When `Some`, pushes are staged here instead of published to the ring;
    /// [`commit_produced`](Producer::commit_produced) flushes them,
    /// [`rewind_produced`](Producer::rewind_produced) discards them — the
    /// output half of the exactly-once contract (see [`crate::journal`]).
    staged: Option<Vec<(T, Signal)>>,
}

// SAFETY: the producer handle is the unique owner of the producer role (not
// Clone), so sending it to another thread only relocates that role; all slot
// access it performs is ordered by the head/tail protocol and `T: Send`
// covers the elements that cross threads.
unsafe impl<T: Send> Send for Producer<T> {}

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
        self.try_push_signal_ring(value, signal)
    }

    /// Non-blocking push straight to the ring, bypassing any staging buffer
    /// (used by the commit flush).
    fn try_push_signal_ring(&mut self, value: T, signal: Signal) -> Result<(), TryPushError<T>> {
        let shared = &*self.shared;
        if shared.consumer_closed.load(Relaxed) {
            return Err(TryPushError::Closed(value));
        }
        shared.arena_enter(Role::Producer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        let tail = self.tail;
        // Shared cached-index fast path (see `crate::index`): refresh pairs
        // Acquire with the consumer's Release store of `head`, ordering its
        // read-out of the slot before our reuse of it.
        let room = producer_free_slots(tail, &mut self.head_cache, storage.capacity(), 1, || {
            shared.head.load(Acquire)
        });
        if room == 0 {
            shared.arena_exit(Role::Producer);
            return Err(TryPushError::Full(value));
        }
        // SAFETY: single producer; slot [tail] is outside the live region
        // (checked against a conservative head), and the fence keeps the
        // storage pointer stable.
        unsafe { (*storage.slot(tail)).write((value, signal)) };
        shared.tail.store(tail + 1, Release);
        self.tail = tail + 1;
        // Single-writer counter: total pushed == tail, so a plain store
        // replaces the old fetch_add.
        shared.stats.writer.pushed.store((tail + 1) as u64, Relaxed);
        shared.arena_exit(Role::Producer);
        // Event-driven readiness: hand the new element to a parked consumer
        // task (one relaxed load when no scheduler registered a waker).
        shared.consumer_waker.notify();
        if shared.reader_waiting.load(Relaxed) {
            shared.wake();
        }
        Ok(())
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
        self.push_signal_ring(value, signal)
    }

    /// Blocking push straight to the ring (the commit flush path and the
    /// unstaged common case). Applies the link's admission policy.
    fn push_signal_ring(&mut self, value: T, signal: Signal) -> Result<(), PushError<T>> {
        let mut value = match self.try_push_signal_ring(value, signal) {
            Ok(()) => return Ok(()),
            Err(TryPushError::Closed(v)) => return Err(PushError(v)),
            Err(TryPushError::Full(v)) => v,
        };
        if self.shared.cfg.admission == AdmissionPolicy::Shed {
            // Full ring + shedding policy: drop now, count it, stay live.
            self.shared.stats.writer.shed.fetch_add(1, Relaxed);
            return Ok(());
        }
        let deadline = match self.shared.cfg.admission {
            AdmissionPolicy::BlockTimeout(t) => Some(Instant::now() + t),
            _ => None,
        };
        self.shared.stats.writer_block_begin();
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let result = loop {
            match self.try_push_signal_ring(value, signal) {
                Ok(()) => break Ok(()),
                Err(TryPushError::Closed(v)) => break Err(PushError(v)),
                Err(TryPushError::Full(v)) => value = v,
            }
            if self.shared.drain.load(Acquire) >= DRAIN_QUIESCED {
                // Quiesced: nobody will drain this ring — fail fast rather
                // than wedge the draining graph.
                break Err(PushError(value));
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    // Burst outlasted the timeout: degrade to shedding.
                    self.shared.stats.writer.shed.fetch_add(1, Relaxed);
                    break Ok(());
                }
            }
            if waiter.pause_or_park() != WaitAction::Park {
                continue;
            }
            // Park until a pop or a resize makes room. We are *outside* the
            // fence here, so a resize can proceed while we sleep.
            self.shared.writer_waiting.store(true, Relaxed);
            let mut g = self.shared.park.lock();
            // Re-check under the lock to close the race with wake(). The
            // read lock (not the fence) covers the capacity read; it only
            // contends with a resizer, never the consumer.
            let full = {
                let storage = self.shared.storage.read();
                self.tail - self.shared.head.load(Acquire) >= storage.capacity()
            };
            if full && !self.shared.consumer_closed.load(Relaxed) {
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
            }
            drop(g);
            self.shared.writer_waiting.store(false, Relaxed);
        };
        self.shared.stats.writer_block_end();
        result
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
        if items.is_empty() {
            return Ok(0);
        }
        let shared = &*self.shared;
        if shared.consumer_closed.load(Relaxed) {
            return Err(PushError(()));
        }
        shared.arena_enter(Role::Producer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        let mut tail = self.tail;
        let room = producer_free_slots(
            tail,
            &mut self.head_cache,
            storage.capacity(),
            items.len(),
            || shared.head.load(Acquire),
        );
        let n = room.min(items.len());
        for v in items.drain(..n) {
            // SAFETY: single producer; slots [tail, tail+n) are outside the
            // live region, so nothing reads them until the Release store of
            // `tail` below publishes the batch.
            unsafe { (*storage.slot(tail)).write((v, Signal::None)) };
            tail += 1;
        }
        if n > 0 {
            shared.tail.store(tail, Release);
            self.tail = tail;
            shared.stats.writer.pushed.store(tail as u64, Relaxed);
        }
        shared.arena_exit(Role::Producer);
        if n > 0 {
            shared.consumer_waker.notify();
            if shared.reader_waiting.load(Relaxed) {
                shared.wake();
            }
        }
        Ok(n)
    }

    /// Blocking batch push: pushes *all* of `items`, waiting for room as
    /// needed. Errs only if the consumer is gone (remaining items stay in
    /// `items`) or the link quiesced. With staging enabled the whole batch
    /// is buffered until commit; under a shedding admission policy a full
    /// ring drops the remainder (counted) instead of blocking.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        if let Some(pending) = self.staged.as_mut() {
            if self.shared.consumer_closed.load(Relaxed) {
                return Err(PushError(()));
            }
            pending.extend(items.drain(..).map(|v| (v, Signal::None)));
            return Ok(());
        }
        let deadline = match self.shared.cfg.admission {
            AdmissionPolicy::BlockTimeout(t) => Some(Instant::now() + t),
            _ => None,
        };
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let mut began_block = false;
        while !items.is_empty() {
            let pushed = self.try_push_batch(items)?;
            if items.is_empty() {
                break;
            }
            if pushed == 0 {
                if self.shared.drain.load(Acquire) >= DRAIN_QUIESCED {
                    if began_block {
                        self.shared.stats.writer_block_end();
                    }
                    return Err(PushError(()));
                }
                let shed_now = self.shared.cfg.admission == AdmissionPolicy::Shed
                    || deadline.is_some_and(|d| Instant::now() >= d);
                if shed_now {
                    // Degrade: drop the remainder rather than block on a
                    // ring nobody is draining fast enough.
                    self.shared
                        .stats
                        .writer
                        .shed
                        .fetch_add(items.len() as u64, Relaxed);
                    items.clear();
                    break;
                }
                if !began_block {
                    self.shared.stats.writer_block_begin();
                    began_block = true;
                }
                if waiter.pause_or_park() == WaitAction::Park {
                    self.shared.writer_waiting.store(true, Relaxed);
                    let mut g = self.shared.park.lock();
                    self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
                    drop(g);
                    self.shared.writer_waiting.store(false, Relaxed);
                }
            } else {
                waiter.reset();
            }
        }
        if began_block {
            self.shared.stats.writer_block_end();
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
    /// slice is dropped. Errs only if the consumer is gone.
    pub fn reserve(&mut self, n: usize) -> Result<WriteSlice<'_, T>, PushError<()>> {
        let n = n.clamp(1, self.shared.cfg.max_capacity);
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let mut began_block = false;
        loop {
            if self.shared.consumer_closed.load(Relaxed)
                || self.shared.drain.load(Acquire) >= DRAIN_QUIESCED
            {
                if began_block {
                    self.shared.stats.writer_block_end();
                }
                return Err(PushError(()));
            }
            if n > self.capacity() {
                // Write-side on-the-spot grow (cold; resizer path).
                let f = Fifo {
                    shared: self.shared.clone(),
                };
                f.grow_to(n);
            }
            self.shared.arena_enter(Role::Producer);
            // SAFETY: fence membership held; released on the failure path
            // below, or by WriteSlice::drop on success.
            let storage = unsafe { self.shared.storage_unlocked() };
            let tail = self.tail;
            let room =
                producer_free_slots(tail, &mut self.head_cache, storage.capacity(), n, || {
                    self.shared.head.load(Acquire)
                });
            if room >= n {
                if began_block {
                    self.shared.stats.writer_block_end();
                }
                return Ok(WriteSlice {
                    producer: self,
                    base: tail,
                    cap: n,
                    written: 0,
                });
            }
            self.shared.arena_exit(Role::Producer);
            if !began_block {
                self.shared.stats.writer_block_begin();
                began_block = true;
            }
            if waiter.pause_or_park() == WaitAction::Park {
                self.shared.writer_waiting.store(true, Relaxed);
                let mut g = self.shared.park.lock();
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
                drop(g);
                self.shared.writer_waiting.store(false, Relaxed);
            }
        }
    }

    /// In-place write: returns a guard holding a defaulted element; mutate it
    /// through `DerefMut` and it is committed (pushed) when the guard drops —
    /// the paper's `allocate_s` semantics. Blocks while the ring is full.
    ///
    /// The guard holds fence membership, so a concurrent resize waits until
    /// the guard drops.
    pub fn allocate(&mut self) -> Result<WriteGuard<'_, T>, PushError<T>>
    where
        T: Default,
    {
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let mut began_block = false;
        loop {
            if self.shared.consumer_closed.load(Relaxed)
                || self.shared.drain.load(Acquire) >= DRAIN_QUIESCED
            {
                if began_block {
                    self.shared.stats.writer_block_end();
                }
                return Err(PushError(T::default()));
            }
            self.shared.arena_enter(Role::Producer);
            // SAFETY: fence membership held; released on the failure path
            // below, or by WriteGuard::drop on success.
            let storage = unsafe { self.shared.storage_unlocked() };
            let tail = self.tail;
            let room =
                producer_free_slots(tail, &mut self.head_cache, storage.capacity(), 1, || {
                    self.shared.head.load(Acquire)
                });
            if room > 0 {
                if began_block {
                    self.shared.stats.writer_block_end();
                }
                // SAFETY: single producer; slot outside the live region.
                unsafe { (*storage.slot(tail)).write((T::default(), Signal::None)) };
                return Ok(WriteGuard {
                    producer: self,
                    tail,
                    committed: false,
                });
            }
            self.shared.arena_exit(Role::Producer);
            if !began_block {
                self.shared.stats.writer_block_begin();
                began_block = true;
            }
            if waiter.pause_or_park() == WaitAction::Park {
                self.shared.writer_waiting.store(true, Relaxed);
                let mut g = self.shared.park.lock();
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
                drop(g);
                self.shared.writer_waiting.store(false, Relaxed);
            }
        }
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
        if self.staged.as_ref().is_none_or(Vec::is_empty) {
            return Ok(0);
        }
        // Take the buffer out (push_signal_ring needs `&mut self`) but put
        // it back with its capacity intact: a transaction per element must
        // not cost an allocator round-trip per commit.
        let mut items = self.staged.take().expect("checked above");
        let mut published = 0;
        let mut closed = false;
        while !items.is_empty() {
            // Fast path: publish whatever fits as one batch — a single
            // fence entry, tail store, and consumer notify for the whole
            // run, instead of per-element publication.
            match self.try_push_pairs(&mut items) {
                Ok(0) => {
                    // Ring full: fall back to the blocking single push,
                    // which applies the admission policy (grow, block,
                    // shed, or time out) before the loop batches again.
                    let (v, s) = items.remove(0);
                    match self.push_signal_ring(v, s) {
                        Ok(()) => published += 1,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                Ok(n) => published += n,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        items.clear();
        self.staged = Some(items);
        if closed {
            return Err(PushError(()));
        }
        Ok(published)
    }

    /// Batch variant of [`try_push_batch`](Self::try_push_batch) that
    /// preserves each element's [`Signal`] — the staged-commit publish
    /// path. Pushes as many pairs as currently fit under a single fence
    /// entry; the rest stay in `items`.
    fn try_push_pairs(&mut self, items: &mut Vec<(T, Signal)>) -> Result<usize, PushError<()>> {
        if items.is_empty() {
            return Ok(0);
        }
        let shared = &*self.shared;
        if shared.consumer_closed.load(Relaxed) {
            return Err(PushError(()));
        }
        shared.arena_enter(Role::Producer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        let mut tail = self.tail;
        let room = producer_free_slots(
            tail,
            &mut self.head_cache,
            storage.capacity(),
            items.len(),
            || shared.head.load(Acquire),
        );
        let n = room.min(items.len());
        for pair in items.drain(..n) {
            // SAFETY: single producer; slots [tail, tail+n) are outside the
            // live region, so nothing reads them until the Release store of
            // `tail` below publishes the batch.
            unsafe { (*storage.slot(tail)).write(pair) };
            tail += 1;
        }
        if n > 0 {
            shared.tail.store(tail, Release);
            self.tail = tail;
            shared.stats.writer.pushed.store(tail as u64, Relaxed);
        }
        shared.arena_exit(Role::Producer);
        if n > 0 {
            shared.consumer_waker.notify();
            if shared.reader_waiting.load(Relaxed) {
                shared.wake();
            }
        }
        Ok(n)
    }

    /// Discard every staged element — the rewind half of a failed
    /// transaction. Returns how many were discarded.
    pub fn rewind_produced(&mut self) -> usize {
        match self.staged.as_mut() {
            Some(pending) => {
                let n = pending.len();
                pending.clear();
                n
            }
            None => 0,
        }
    }

    /// Close the stream: the consumer drains what remains, then sees
    /// `Closed`. Idempotent.
    pub fn close(&mut self) {
        self.shared.producer_closed.store(true, Release);
        // EoS is actionable for a parked consumer-side task.
        self.shared.consumer_waker.notify();
        self.shared.wake();
    }

    /// `true` once the consumer endpoint dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.consumer_closed.load(Relaxed)
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.storage.read().capacity()
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
            tail: self.tail,
            head_cache: self.head_cache,
            staged: None,
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_closed.store(true, Release);
        // Implicit EoS: a parked consumer-side task must observe the close.
        self.shared.consumer_waker.notify();
        self.shared.wake();
    }
}

/// RAII guard returned by [`Producer::allocate`]; commits the element on
/// drop (or discards it via [`WriteGuard::abort`]).
///
/// Holds fence membership for its lifetime: references handed out by
/// `Deref` stay valid because any resize must wait for the guard.
pub struct WriteGuard<'a, T: Send + Default> {
    producer: &'a mut Producer<T>,
    tail: usize,
    committed: bool,
}

impl<'a, T: Send + Default> WriteGuard<'a, T> {
    #[inline]
    fn slot(&self) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: the guard holds fence membership (entered in allocate,
        // exited in Drop), so the storage cannot be swapped under us.
        unsafe { self.producer.shared.storage_unlocked().slot(self.tail) }
    }

    /// Attach a synchronous signal to the element being written.
    pub fn set_signal(&mut self, signal: Signal) {
        // SAFETY: slot was initialized in allocate() and is not yet visible
        // to the consumer (tail not advanced); storage pinned by the fence.
        unsafe {
            (*self.slot()).assume_init_mut().1 = signal;
        }
    }

    /// Abandon the element without sending it.
    pub fn abort(mut self) {
        // SAFETY: initialized in allocate(), never published.
        unsafe { (*self.slot()).assume_init_drop() };
        self.committed = true; // prevent Drop from publishing
    }
}

impl<'a, T: Send + Default> Deref for WriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: initialized, unpublished slot, storage pinned by the fence.
        unsafe { &(*self.slot()).assume_init_ref().0 }
    }
}

impl<'a, T: Send + Default> DerefMut for WriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref; single producer, so no aliasing.
        unsafe { &mut (*self.slot()).assume_init_mut().0 }
    }
}

impl<'a, T: Send + Default> Drop for WriteGuard<'a, T> {
    fn drop(&mut self) {
        let shared = &*self.producer.shared;
        if !self.committed {
            shared.tail.store(self.tail + 1, Release);
            self.producer.tail = self.tail + 1;
            shared
                .stats
                .writer
                .pushed
                .store((self.tail + 1) as u64, Relaxed);
        }
        shared.arena_exit(Role::Producer);
        if !self.committed {
            shared.consumer_waker.notify();
            if shared.reader_waiting.load(Relaxed) {
                shared.wake();
            }
        }
    }
}

/// In-place batch write window returned by [`Producer::reserve`]. Fill it
/// front-to-back with [`push`](WriteSlice::push); everything written is
/// published with one counter store when the slice drops.
pub struct WriteSlice<'a, T: Send> {
    producer: &'a mut Producer<T>,
    base: usize,
    cap: usize,
    written: usize,
}

impl<'a, T: Send> WriteSlice<'a, T> {
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
        let shared = &*self.producer.shared;
        // SAFETY: the slice holds fence membership (entered in reserve,
        // exited in Drop) so the storage is pinned; reserve checked that
        // [base, base+cap) is outside the live region against a conservative
        // head, and the consumer cannot see any of it until Drop publishes.
        unsafe {
            (*shared.storage_unlocked().slot(self.base + self.written)).write((value, signal))
        };
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

impl<'a, T: Send> Drop for WriteSlice<'a, T> {
    fn drop(&mut self) {
        let shared = &*self.producer.shared;
        if self.written > 0 {
            let tail = self.base + self.written;
            shared.tail.store(tail, Release);
            self.producer.tail = tail;
            shared.stats.writer.pushed.store(tail as u64, Relaxed);
        }
        shared.arena_exit(Role::Producer);
        if self.written > 0 {
            shared.consumer_waker.notify();
            if shared.reader_waiting.load(Relaxed) {
                shared.wake();
            }
        }
    }
}

/// Consuming endpoint of a [`Fifo`]. One per stream; `Send`, not `Clone`.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local mirror of `shared.head` — exact between operations.
    head: usize,
    /// Stale (conservative) copy of `shared.tail`; refreshed only when the
    /// ring looks empty. Never ahead of the true tail, so staleness can only
    /// hide elements momentarily, never show uninitialized slots.
    tail_cache: usize,
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

// SAFETY: same argument as `Producer` — one non-Clone handle per role.
unsafe impl<T: Send> Send for Consumer<T> {}

impl<T: Send> Consumer<T> {
    /// Refresh `tail_cache` and return how many elements are visible.
    #[inline]
    fn refresh_avail(&mut self) -> usize {
        // Acquire pairs with the producer's Release store of `tail`, making
        // the slots it published visible before we read them. Force the
        // shared-helper refresh path by treating the cache as spent.
        self.tail_cache = self.head;
        let shared = &*self.shared;
        consumer_ready_elems(self.head, &mut self.tail_cache, || {
            shared.tail.load(Acquire)
        })
    }

    /// Non-blocking pop of `(value, signal)`. On a journaled link,
    /// rewound elements are re-served (as clones, in original order) before
    /// anything new is taken from the ring, and every live pop is recorded
    /// for possible replay.
    pub fn try_pop_signal(&mut self) -> Result<(T, Signal), TryPopError> {
        if let Some(j) = self.journal.as_mut() {
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
                    .shared
                    .journal_pending
                    .fetch_update(AcqRel, Acquire, |v| v.checked_sub(1));
                self.shared.stats.reader.replayed.fetch_add(1, Relaxed);
                return Ok(pair);
            }
        }
        let head = self.head;
        if head == self.tail_cache && self.refresh_avail() == 0 {
            return if self.shared.producer_closed.load(Acquire) {
                // Re-check: the producer may have pushed between our tail
                // load and its close.
                if self.refresh_avail() == 0 {
                    Err(TryPopError::Closed)
                } else {
                    Err(TryPopError::Empty)
                }
            } else if self.shared.drain.load(Acquire) >= DRAIN_QUIESCED {
                // Quiesced mid-drain: report end-of-stream so a blocked
                // consumer kernel terminates even though its producer is
                // still alive upstream.
                Err(TryPopError::Closed)
            } else {
                Err(TryPopError::Empty)
            };
        }
        let shared = &*self.shared;
        shared.arena_enter(Role::Consumer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        // SAFETY: single consumer; `head < tail` was observed through an
        // Acquire load of `tail`, so the slot is initialized and the
        // producer won't touch it until our Release store of `head` below.
        let pair = unsafe { (*storage.slot(head)).assume_init_read() };
        shared.head.store(head + 1, Release);
        self.head = head + 1;
        // Single-writer counter: total popped == head.
        shared.stats.reader.popped.store((head + 1) as u64, Relaxed);
        shared.arena_exit(Role::Consumer);
        if let Some(j) = self.journal.as_mut() {
            // Record the live pop for possible replay; the cursor tracks
            // next_seq while recording.
            j.window.append(((j.clone_fn)(&pair.0), pair.1));
            j.cursor = j.window.next_seq();
        }
        // Freed space is actionable for a parked producer-side task.
        shared.producer_waker.notify();
        if shared.writer_waiting.load(Relaxed) {
            shared.wake();
        }
        Ok(pair)
    }

    /// Non-blocking pop.
    #[inline]
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        self.try_pop_signal().map(|(v, _)| v)
    }

    /// Blocking pop of `(value, signal)`; errs when the stream closed and
    /// drained.
    pub fn pop_signal(&mut self) -> Result<(T, Signal), PopError> {
        match self.try_pop_signal() {
            Ok(p) => return Ok(p),
            Err(TryPopError::Closed) => return Err(PopError),
            Err(TryPopError::Empty) => {}
        }
        self.shared.stats.reader_block_begin();
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let result = loop {
            match self.try_pop_signal() {
                Ok(p) => break Ok(p),
                Err(TryPopError::Closed) => break Err(PopError),
                Err(TryPopError::Empty) => {}
            }
            if waiter.pause_or_park() != WaitAction::Park {
                continue;
            }
            self.shared.reader_waiting.store(true, Relaxed);
            let mut g = self.shared.park.lock();
            let empty = self.head == self.shared.tail.load(Acquire);
            if empty && !self.shared.producer_closed.load(Acquire) {
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
            }
            drop(g);
            self.shared.reader_waiting.store(false, Relaxed);
        };
        self.shared.stats.reader_block_end();
        result
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
    /// Returns `Err(PopError)` if the stream closes before `n` elements are
    /// available (fewer than `n` remain, forever).
    pub fn peek_range(&mut self, n: usize) -> Result<PeekRange<'_, T>, PopError> {
        self.shared.stats.note_read_request(n);
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        loop {
            // Grow first if the request can never be satisfied (paper: queue
            // "tagged for resizing" when a read request exceeds capacity).
            // We are outside the fence here, so the resize cannot deadlock
            // against our own membership.
            if n > self.capacity() {
                let f = Fifo {
                    shared: self.shared.clone(),
                };
                if !f.grow_to(n) {
                    // Request exceeds even max_capacity: impossible.
                    return Err(PopError);
                }
            }
            if self.refresh_avail() >= n {
                // Occupancy can only grow from here (we are the consumer),
                // so entering the fence and taking the window is race-free.
                self.shared.arena_enter(Role::Consumer);
                return Ok(PeekRange {
                    consumer: self,
                    len: n,
                });
            }
            if self.shared.producer_closed.load(Acquire) && self.refresh_avail() < n {
                return Err(PopError);
            }
            self.shared.stats.reader_block_begin();
            if waiter.pause_or_park() == WaitAction::Park {
                self.shared.reader_waiting.store(true, Relaxed);
                let mut g = self.shared.park.lock();
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
                drop(g);
                self.shared.reader_waiting.store(false, Relaxed);
            }
            self.shared.stats.reader_block_end();
        }
    }

    /// Reference to the front element, if present (non-blocking). The
    /// closure style keeps the fence membership scoped.
    pub fn peek<R>(&mut self, f: impl FnOnce(&T, Signal) -> R) -> Option<R> {
        let head = self.head;
        if head == self.tail_cache && self.refresh_avail() == 0 {
            return None;
        }
        let shared = &*self.shared;
        // RAII: `f` is user code — membership must survive a panic inside it.
        let _arena = ArenaGuard::enter(shared, Role::Consumer);
        // SAFETY: fence membership held by `_arena`; single consumer; live
        // slot observed through an Acquire load of `tail`.
        let pair = unsafe { &*(*shared.storage_unlocked().slot(head)).as_ptr() };
        Some(f(&pair.0, pair.1))
    }

    /// Pop up to `max` elements, moving them into `out` under one fence
    /// entry. Non-blocking w.r.t. waiting for *more* data: takes what is
    /// visible now. Returns the number moved.
    fn bulk_pop_into(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        if self.journal.is_some() {
            // Journaled link: route through the per-element path so every
            // element is recorded (and replay is served first). Gives up the
            // single-fence batch amortization for the recovery guarantee.
            let mut moved = 0;
            while moved < max {
                match self.try_pop_signal() {
                    Ok((v, _s)) => {
                        out.push(v);
                        moved += 1;
                    }
                    Err(_) => break,
                }
            }
            return moved;
        }
        let head = self.head;
        let avail = if self.tail_cache == head {
            self.refresh_avail()
        } else {
            self.tail_cache - head
        };
        let k = avail.min(max);
        if k == 0 {
            return 0;
        }
        let shared = &*self.shared;
        shared.arena_enter(Role::Consumer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        out.reserve(k);
        for i in 0..k {
            // SAFETY: single consumer; `[head, head+k)` is inside the live
            // region observed through an Acquire load of `tail`.
            let (v, _s) = unsafe { (*storage.slot(head + i)).assume_init_read() };
            out.push(v);
        }
        shared.head.store(head + k, Release);
        self.head = head + k;
        shared.stats.reader.popped.store((head + k) as u64, Relaxed);
        shared.arena_exit(Role::Consumer);
        shared.producer_waker.notify();
        if shared.writer_waiting.load(Relaxed) {
            shared.wake();
        }
        k
    }

    /// Pop up to `n` elements into `out`; blocks until at least one element
    /// is available or the stream ends. Returns the number popped.
    pub fn pop_range(&mut self, n: usize, out: &mut Vec<T>) -> Result<usize, PopError> {
        self.shared.stats.note_read_request(n);
        let first = self.pop()?;
        out.push(first);
        Ok(1 + self.bulk_pop_into(n.saturating_sub(1), out))
    }

    /// Lend the front of the queue to `f` as a zero-copy [`SliceView`] of up
    /// to `n` elements, then consume exactly the elements viewed. Blocks
    /// until at least one element is available; the view may hold fewer than
    /// `n` if the stream is running dry. Errs once the stream is closed and
    /// drained.
    ///
    /// The whole batch costs one fence entry and one counter store. If `f`
    /// panics, nothing is consumed.
    pub fn pop_slice<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&SliceView<'_, T>) -> R,
    ) -> Result<R, PopError> {
        self.shared.stats.note_read_request(n);
        let mut waiter = Waiter::new(ENDPOINT_WAIT);
        let mut began_block = false;
        let wait = loop {
            if self.refresh_avail() > 0 {
                break Ok(());
            }
            if self.shared.producer_closed.load(Acquire) {
                if self.refresh_avail() > 0 {
                    break Ok(());
                }
                break Err(PopError);
            }
            if !began_block {
                self.shared.stats.reader_block_begin();
                began_block = true;
            }
            if waiter.pause_or_park() == WaitAction::Park {
                self.shared.reader_waiting.store(true, Relaxed);
                let mut g = self.shared.park.lock();
                self.shared.unpark.wait_for(&mut g, PARK_TIMEOUT);
                drop(g);
                self.shared.reader_waiting.store(false, Relaxed);
            }
        };
        if began_block {
            self.shared.stats.reader_block_end();
        }
        wait?;
        let shared = &*self.shared;
        let head = self.head;
        let k = (self.tail_cache - head).min(n.max(1));
        // RAII: `f` is user code — membership must survive a panic inside it
        // (on unwind nothing is consumed; head stays put).
        let arena = ArenaGuard::enter(shared, Role::Consumer);
        let r = f(&SliceView {
            shared,
            head,
            len: k,
        });
        // SAFETY: fence membership still held by `arena`.
        let storage = unsafe { shared.storage_unlocked() };
        for i in 0..k {
            // SAFETY: single consumer; `[head, head+k)` is live (observed
            // via Acquire above); each slot is dropped exactly once because
            // `head` advances past all of them below.
            unsafe { (*storage.slot(head + i)).assume_init_drop() };
        }
        shared.head.store(head + k, Release);
        self.head = head + k;
        shared.stats.reader.popped.store((head + k) as u64, Relaxed);
        drop(arena);
        shared.producer_waker.notify();
        if shared.writer_waiting.load(Relaxed) {
            shared.wake();
        }
        Ok(r)
    }

    /// Advance past `n` elements previously inspected via `peek_range`,
    /// dropping them under a single fence entry. Returns how many were
    /// actually available to advance past.
    pub fn advance(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let head = self.head;
        let k = self.refresh_avail().min(n);
        if k == 0 {
            return 0;
        }
        let shared = &*self.shared;
        shared.arena_enter(Role::Consumer);
        // SAFETY: fence membership held until the exit below.
        let storage = unsafe { shared.storage_unlocked() };
        for i in 0..k {
            // SAFETY: single consumer; `[head, head+k)` is live; dropped
            // exactly once (head advances below).
            unsafe { (*storage.slot(head + i)).assume_init_drop() };
        }
        shared.head.store(head + k, Release);
        self.head = head + k;
        shared.stats.reader.popped.store((head + k) as u64, Relaxed);
        shared.arena_exit(Role::Consumer);
        shared.producer_waker.notify();
        if shared.writer_waiting.load(Relaxed) {
            shared.wake();
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
            self.shared.consumer_waker.notify();
            self.shared.wake();
        }
        pending
    }

    /// Take a pending asynchronous signal, if any.
    pub fn take_async(&mut self) -> Option<Signal> {
        Signal::decode(self.shared.async_signal.swap(0, Acquire))
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.storage.read().capacity()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// Producer closed (or link quiesced) and everything consumed,
    /// including any journal replay.
    pub fn is_finished(&self) -> bool {
        (self.shared.producer_closed.load(Acquire)
            || self.shared.drain.load(Acquire) >= DRAIN_QUIESCED)
            && self.shared.occupancy() == 0
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
        // A parked producer-side task must observe the broken stream.
        self.shared.producer_waker.notify();
        self.shared.wake();
        // Remaining elements are dropped by Shared::drop (exactly once, with
        // exclusive access) — not here, to avoid racing a late producer push.
    }
}

/// Borrowed sliding window over the front of the queue (see
/// [`Consumer::peek_range`]). Holding it holds fence membership: resizes
/// wait until it is dropped.
pub struct PeekRange<'a, T: Send> {
    consumer: &'a mut Consumer<T>,
    len: usize,
}

impl<'a, T: Send> PeekRange<'a, T> {
    /// Number of elements visible in this window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, i: usize) -> *mut MaybeUninit<(T, Signal)> {
        assert!(
            i < self.len,
            "peek_range index {i} out of bounds {}",
            self.len
        );
        // SAFETY: the window holds fence membership (entered in peek_range,
        // exited in Drop), so the storage cannot be swapped under us.
        unsafe {
            self.consumer
                .shared
                .storage_unlocked()
                .slot(self.consumer.head + i)
        }
    }

    /// Signal attached to the `i`-th element of the window.
    pub fn signal(&self, i: usize) -> Signal {
        // SAFETY: elements [head, head+len) were live when the window was
        // taken and the consumer (borrowed mutably by us) has not advanced.
        unsafe { (*self.slot(i)).assume_init_ref().1 }
    }

    /// Iterate over the window.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl<'a, T: Send> Index<usize> for PeekRange<'a, T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        // SAFETY: as in signal().
        unsafe { &(*self.slot(i)).assume_init_ref().0 }
    }
}

impl<'a, T: Send> Drop for PeekRange<'a, T> {
    fn drop(&mut self) {
        self.consumer.shared.arena_exit(Role::Consumer);
    }
}

/// Zero-copy read view lent to the closure of [`Consumer::pop_slice`].
/// Valid only inside that closure (fence membership is held around it).
pub struct SliceView<'a, T: Send> {
    shared: &'a Shared<T>,
    head: usize,
    len: usize,
}

impl<'a, T: Send> SliceView<'a, T> {
    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view is empty (never — pop_slice waits for data).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, i: usize) -> *mut MaybeUninit<(T, Signal)> {
        assert!(
            i < self.len,
            "SliceView index {i} out of bounds {}",
            self.len
        );
        // SAFETY: pop_slice holds fence membership around the closure, so
        // the storage cannot be swapped while the view exists.
        unsafe { self.shared.storage_unlocked().slot(self.head + i) }
    }

    /// Signal attached to the `i`-th element.
    pub fn signal(&self, i: usize) -> Signal {
        // SAFETY: [head, head+len) is the live region observed via Acquire;
        // the consumer does not advance until the closure returns.
        unsafe { (*self.slot(i)).assume_init_ref().1 }
    }

    /// Iterate over the view.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl<'a, T: Send> Index<usize> for SliceView<'a, T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        // SAFETY: as in signal().
        unsafe { &(*self.slot(i)).assume_init_ref().0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn drain_level_is_monotonic() {
        let (f, _p, _c) = fifo_with::<u64>(FifoConfig::default());
        f.set_drain_level(DRAIN_QUIESCED);
        f.set_drain_level(DRAIN_DRAINING); // lowering is ignored
        assert_eq!(f.drain_level(), DRAIN_QUIESCED);
    }
}
