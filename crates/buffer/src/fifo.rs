//! The stream FIFO: the crate's one pair of blocking ring endpoints, over
//! whichever *home* their control words and slots live in.
//!
//! A stream is one FIFO whose only variable is where its slots live (paper
//! §3–§4). [`Producer`], [`Consumer`] and the monitor-facing [`Fifo`] are
//! therefore written once, generic over a statically dispatched [`Home`]:
//!
//! * the **heap home** ([`Heap`], the default — `Producer<T>` is it):
//!   in-process words, a task-waker slot plus a [`ThreadPark`] eventcount
//!   per direction, and slot storage a monitor can swap out while the
//!   stream runs. RaftLib resizes queues at run time (§4): a monitor wakes
//!   every δ and grows a queue whose writer has been blocked for 3δ, or
//!   whose reader asked for more items than it can ever hold. `head`/`tail`
//!   live *outside* the slot storage, so a resize only swaps the storage;
//!   endpoints touch slots only under membership in the Dekker-style
//!   [`ResizeFence`] (one SeqCst swap + one load to enter, one Release
//!   store to leave; free for fixed-capacity FIFOs), and a resize takes the
//!   resizer lock **and** the fence, copies the live region (one `memcpy`
//!   when source and destination are both non-wrapped, element-wise
//!   otherwise) and swaps;
//! * the **segment home** ([`crate::shm::Seg`], built by the
//!   [`crate::shm::ShmRing`] constructors): every word and slot at a fixed
//!   offset of a mapped segment another process can attach, a
//!   [`crate::futex::Futex`] eventcount per direction, fixed capacity — so
//!   the fence and growth are absent by construction.
//!
//! What the endpoints add to the ring core, on either home:
//!
//! * **Blocking.** Every wait — `push`, `push_batch`, `reserve`,
//!   `allocate`, `pop`, `peek_range`, `pop_slice` — is one call to
//!   `Shared::block_until`, i.e. the crate's one blocking loop
//!   ([`crate::eventcount::block_until`]) bracketed by the `*_blocked_since`
//!   stamps the monitor's 3δ rule consumes. A full ring blocks the writer
//!   and an empty one the reader; only drain level `QUIESCED` ends a wait
//!   early, so no element is ever dropped.
//! * Zero-copy batch views: [`Producer::reserve`] hands out a
//!   [`WriteSlice`] that is written in place and published with one counter
//!   store on drop; [`Consumer::pop_slice`] lends the front of the queue to
//!   a closure as a [`SliceView`] and consumes it afterwards — both hold one
//!   membership for the whole batch.
//! * **One window type on both endpoints** for the exactly-once recovery
//!   contract ([`FifoConfig::journal`]): everything appended and not yet
//!   acknowledged, with three cursors `acked ≤ cursor ≤ appended`. On a
//!   producer the cursor is *published*: *staging* is `[cursor, appended)`,
//!   and a *replay backlog* is the same region after a rewind; on the heap
//!   home publishing moves an element into the ring and thereby
//!   acknowledges it, on the segment home published elements are retained
//!   until the consuming process advances the segment's commit word. On a
//!   journaled consumer the cursor is *served*: every pop is copied in, a
//!   rewind moves the cursor back to `acked`, and the commit acknowledges.
//! * Telemetry ([`FifoStats`]), counted rescues.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Index};
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicU8,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;

use crate::error::{PopError, PushError, TryPopError, TryPushError};
use crate::eventcount::{self, Blocked, EventCount, ThreadPark, Wake};
use crate::fence::{ResizeFence, Role};
use crate::journal::{ReplayWindow, JOURNAL_BOUND};
use crate::ring::{Backing, ConsumerCursor, Counter, Counters, ProducerCursor};
use crate::shm::{Seg, ShmItem, ShmSegment};

use crate::signal::Signal;
use crate::stats::{FifoStats, StatsSnapshot};
use crate::sync::{AtomicUsize, CachePadded, Mutex};
use crate::waker::WakerSlot;

/// Drain levels for the cooperative shutdown protocol (see
/// [`Monitorable::set_drain_level`]). `RUNNING` is normal operation; `DRAINING`
/// asks sources to stop while in-flight data keeps flowing; `QUIESCED`
/// fails blocked endpoints fast so a wedged graph still terminates.
pub const DRAIN_RUNNING: u8 = 0;
/// Sources stop, in-flight elements still flow (see [`DRAIN_RUNNING`]).
pub const DRAIN_DRAINING: u8 = 1;
/// Blocked pushes fail fast and pops on an empty ring report end-of-stream.
pub const DRAIN_QUIESCED: u8 = 2;

/// Which allocator backs a link's element storage — the paper's three
/// link allocators (§3): process-local heap, a shared-memory segment for
/// co-located processes, and TCP for cross-machine edges. A *reported*
/// fact, never a request: it names the home the link's endpoints were
/// constructed over ([`Fifo::link_alloc`]), and is what the mapper's pure
/// placement function `classify_link` returns (DESIGN §14 has the matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkAlloc {
    /// Process-local heap ring (the default; fastest within one process).
    #[default]
    Heap,
    /// Mapped segment (see [`crate::shm`]): zero-copy between co-located
    /// processes. Implies a fixed capacity — a mapped segment cannot be
    /// resized under a live peer.
    Shm,
    /// Serialized over a TCP link (`raft-net`); the only option across
    /// machines. The socket pair lives at the graph layer, not in a ring.
    Tcp,
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
    /// When set, the link takes part in the exactly-once recovery contract:
    /// one `run()` is a transaction. Elements popped are recorded (a clone;
    /// at most `JOURNAL_BOUND` = 4096 unacknowledged, older ones are
    /// force-acknowledged and counted in `forced_acks`) and elements pushed
    /// are staged. A commit acknowledges the pops and publishes the pushes;
    /// a rewind after a panic the supervision policy absorbed discards the
    /// pushes and re-serves the pops, in order. Requires `T: Clone` at the
    /// wiring layer; `false` keeps the historical lossy-restart behavior.
    pub journal: bool,
}

impl Default for FifoConfig {
    fn default() -> Self {
        FifoConfig {
            initial_capacity: 64,
            max_capacity: 1 << 22,
            min_capacity: 8,
            journal: false,
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
    pub fn journaled(mut self) -> Self {
        self.journal = true;
        self
    }
}

/// How one slot stores an element with its synchronous signal.
pub trait Slot<T>: Sized {
    /// The slot contents for `(value, signal)`.
    fn pack(value: T, signal: Signal) -> Self;
    /// The element and signal a slot holds.
    fn unpack(self) -> (T, Signal);
    /// The element, in place.
    fn value(&self) -> &T;
    /// The element, in place and writable.
    fn value_mut(&mut self) -> &mut T;
    /// The signal riding with the element.
    fn signal(&self) -> Signal;
    /// Replace the signal riding with the element.
    fn set_signal(&mut self, signal: Signal);
}

/// The heap home's slot: the pair itself (nothing leaves the process, so
/// the enum is stored as it is).
impl<T> Slot<T> for (T, Signal) {
    #[inline]
    fn pack(value: T, signal: Signal) -> Self {
        (value, signal)
    }
    #[inline]
    fn unpack(self) -> (T, Signal) {
        self
    }
    #[inline]
    fn value(&self) -> &T {
        &self.0
    }
    #[inline]
    fn value_mut(&mut self) -> &mut T {
        &mut self.0
    }
    #[inline]
    fn signal(&self) -> Signal {
        self.1
    }
    #[inline]
    fn set_signal(&mut self, signal: Signal) {
        self.1 = signal;
    }
}

/// Where a stream's control words and slots live — the one thing that
/// differs between an in-process link and a cross-process one. The
/// endpoints are generic over it and statically dispatched, so
/// `Producer<T>` (the [`Heap`] default) compiles to the heap path alone.
///
/// A home says *where* things are; what is done with them — the ring
/// protocol, the notify rules, the blocking loop — is written once, above
/// it.
///
/// # Safety
/// The endpoints dereference what [`slot`](Self::slot) returns and run the
/// [`crate::ring`] protocol over `head`/`tail`. An implementation must
/// return the same two counters on every call; between `enter(role)` and
/// the matching `exit(role)`, `capacity` must be a constant power of two
/// and `slot` must return a pointer valid for reads and writes of one
/// `Slot`, the same memory for equal `idx & (capacity - 1)` and disjoint
/// memory otherwise.
pub unsafe trait Home<T> {
    /// What one slot holds.
    type Slot: Slot<T>;
    /// The `head`/`tail` word type.
    type Counter: Counter;
    /// Where the `(armed, seq)` wake words live and how a sleeper is woken.
    type Wake<'a>: Wake
    where
        Self: 'a;
    /// What a link over this home reports as its allocator.
    const ALLOC: LinkAlloc;

    /// Next index to read; only the consumer stores it.
    fn head(&self) -> &Self::Counter;
    /// Next index to write; only the producer stores it.
    fn tail(&self) -> &Self::Counter;
    /// `true` once the producer endpoint is gone (Acquire: everything it
    /// published before closing is visible).
    fn producer_closed(&self) -> bool;
    /// `true` once the consumer endpoint is gone (a Relaxed hint).
    fn consumer_closed(&self) -> bool;
    /// Mark `role`'s endpoint gone (Release).
    fn set_closed(&self, role: Role);
    /// The eventcount a thread blocked as `role` parks on: the consumer
    /// waits for data, EoS or an async signal, the producer for space or a
    /// dead consumer.
    fn event(&self, role: Role) -> EventCount<Self::Wake<'_>>;
    /// The scheduler-task readiness hook for `role`, where the home has one.
    fn task(&self, _role: Role) -> Option<&WakerSlot> {
        None
    }
    /// Pin the slot storage for `role` until the matching [`exit`](Self::exit)
    /// (nothing to do where the storage can never move).
    #[inline]
    fn enter(&self, _role: Role) {}
    /// End the critical section opened by [`enter`](Self::enter).
    #[inline]
    fn exit(&self, _role: Role) {}
    /// Current capacity in slots.
    fn capacity(&self) -> usize;
    /// The slot for monotonic index `idx`.
    ///
    /// # Safety
    /// The caller must be between `enter` and `exit` for its role; whether
    /// the slot may be read or written is the cursor protocol's business.
    unsafe fn slot(&self, idx: usize) -> *mut MaybeUninit<Self::Slot>;
    /// Make room for `target` slots if this home can grow (the caller is
    /// outside its critical section); `true` if the capacity then suffices.
    fn grow_to(&self, target: usize, _stats: &FifoStats) -> bool {
        self.capacity() >= target
    }
}

/// Swappable slot storage of the heap home.
struct Storage<T> {
    /// First slot of `slots`, cached so `slot()` is one add+mask with no
    /// bounds check.
    ptr: *mut HeapSlot<T>,
    mask: usize,
    /// Held for Drop; read via `ptr`.
    _slots: Box<[HeapSlot<T>]>,
}

/// One heap slot: a possibly-uninitialized `(element, signal)` pair.
type HeapSlot<T> = UnsafeCell<MaybeUninit<(T, Signal)>>;

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
        let mut slots: Box<[HeapSlot<T>]> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Storage {
            ptr: slots.as_mut_ptr(),
            mask: capacity - 1,
            _slots: slots,
        }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Raw pointer to the slot for monotonic index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: the masked index is < capacity, and `ptr` points at the
        // boxed array of `capacity` slots `self` owns. Only the UnsafeCell
        // raw pointer escapes; dereferencing it is the caller's
        // (protocol-ordered) obligation.
        unsafe { (*self.ptr.add(idx & self.mask)).get() }
    }
}

/// One direction of "the peer moved" on the heap home. Either kind of
/// sleeper may be waiting on it, so both are told, with one call.
#[derive(Default)]
struct Side {
    /// Event-driven readiness hook for a scheduler task; registered/armed
    /// by the work-stealing scheduler, a single relaxed load when unused.
    task: WakerSlot,
    /// Where a thread blocked in this endpoint's `block_until` parks.
    thread: ThreadPark,
}

/// The heap [`Home`]: in-process control words and slot storage that
/// [`Fifo::resize`] can swap out under the [`ResizeFence`].
pub struct Heap<T> {
    /// Slot storage. Replaced only by [`Heap::resize`], which holds
    /// `resizing` and the fence; endpoints reach it between `enter`/`exit`.
    storage: UnsafeCell<Storage<T>>,
    /// Serializes resizers against each other (never on an endpoint path).
    resizing: Mutex<()>,
    /// `storage.capacity()`, written under the fence.
    capacity: AtomicUsize,
    /// Dekker-style exclusion between endpoint ring access and resizes.
    fence: ResizeFence,
    /// Resize bounds; equal when the config pins the capacity — then the
    /// storage can never be swapped, endpoints skip the fence entirely and
    /// run at raw SPSC speed.
    min_capacity: usize,
    max_capacity: usize,
    /// Next index to read (monotonic). Own cache line: the producer loads
    /// it only when its cached copy says the ring is full.
    head: CachePadded<AtomicUsize>,
    /// Next index to write (monotonic), cache line apart from `head`.
    tail: CachePadded<AtomicUsize>,
    producer_closed: AtomicBool,
    consumer_closed: AtomicBool,
    /// Sleepers waiting for data, EoS or an async signal.
    data: Side,
    /// Sleepers waiting for space (pop, batch drain, consumer drop, grow).
    space: Side,
    /// Protocol shadow checker (SPSC discipline, monotonic sequences,
    /// resize-fence transitions); driven from `enter`/`exit`/`resize`.
    #[cfg(feature = "raft_protocol_check")]
    shadow: crate::protocol::FifoShadow,
}

// SAFETY: everything but `storage` is Sync on its own. The `UnsafeCell` is
// read only by endpoints holding fence membership (or, for fixed-capacity
// FIFOs, always — nothing ever writes it) and written only by a resizer
// holding `resizing` and the fence, which excludes every reader; the
// storage itself is Send + Sync for `T: Send` (see `Storage`).
unsafe impl<T: Send> Sync for Heap<T> {}

impl<T> Heap<T> {
    fn new(cfg: &FifoConfig) -> Self {
        let storage = Storage::with_capacity(cfg.initial_capacity);
        Heap {
            capacity: AtomicUsize::new(storage.capacity()),
            storage: UnsafeCell::new(storage),
            resizing: Mutex::new(()),
            fence: ResizeFence::new(),
            min_capacity: cfg.min_capacity,
            max_capacity: cfg.max_capacity,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            producer_closed: AtomicBool::new(false),
            consumer_closed: AtomicBool::new(false),
            data: Side::default(),
            space: Side::default(),
            #[cfg(feature = "raft_protocol_check")]
            shadow: crate::protocol::FifoShadow::new(),
        }
    }

    #[inline]
    fn resizable(&self) -> bool {
        self.min_capacity != self.max_capacity
    }

    /// The side `role` sleeps on.
    #[inline]
    fn side(&self, role: Role) -> &Side {
        match role {
            Role::Producer => &self.space,
            Role::Consumer => &self.data,
        }
    }

    /// Resize the ring to `new_capacity` (clamped to the bounds and to
    /// current occupancy). Returns the resulting capacity.
    ///
    /// Takes the resizer lock (vs. other resizers), then the
    /// [`ResizeFence`] (vs. the endpoints, who retry as soon as
    /// `end_resize` clears the pending flag). The live region is moved with
    /// one contiguous copy when both source and destination regions are
    /// non-wrapped (the paper's preferred resize position), element-wise
    /// otherwise.
    fn resize(&self, new_capacity: usize, stats: &FifoStats) -> usize {
        if !self.resizable() {
            // Fixed-capacity config: endpoints skip the fence, so mutating
            // the storage here would be unsound — and the clamp below could
            // only ever return the current capacity anyway.
            return self.capacity.load(Acquire);
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
            .clamp(self.min_capacity, self.max_capacity)
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
            stats.monitor.resizes.fetch_add(1, Relaxed);
        }
        #[cfg(feature = "raft_protocol_check")]
        self.shadow
            .resize_end(head, tail, self.head.load(Relaxed), self.tail.load(Relaxed));
        // Publish the new storage (Release inside) before endpoints re-enter.
        self.fence.end_resize();
        new_capacity
    }
}

// SAFETY: `head`/`tail` are fields; `capacity` and the storage change only
// inside `resize`, which holds the fence and so runs strictly outside every
// `enter`/`exit` bracket (a fixed-capacity heap never resizes, which is what
// lets it skip the fence); `Storage::slot` masks the index into its live
// slot array, one cell per slot.
unsafe impl<T> Home<T> for Heap<T> {
    type Slot = (T, Signal);
    type Counter = AtomicUsize;
    type Wake<'a>
        = &'a ThreadPark
    where
        T: 'a;
    const ALLOC: LinkAlloc = LinkAlloc::Heap;

    #[inline]
    fn head(&self) -> &AtomicUsize {
        &self.head
    }
    #[inline]
    fn tail(&self) -> &AtomicUsize {
        &self.tail
    }
    #[inline]
    fn producer_closed(&self) -> bool {
        self.producer_closed.load(Acquire)
    }
    #[inline]
    fn consumer_closed(&self) -> bool {
        self.consumer_closed.load(Relaxed)
    }
    fn set_closed(&self, role: Role) {
        match role {
            Role::Producer => self.producer_closed.store(true, Release),
            Role::Consumer => self.consumer_closed.store(true, Release),
        }
    }
    #[inline]
    fn event(&self, role: Role) -> EventCount<&ThreadPark> {
        EventCount::over(&self.side(role).thread)
    }
    #[inline]
    fn task(&self, role: Role) -> Option<&WakerSlot> {
        Some(&self.side(role).task)
    }
    /// Free for fixed-capacity FIFOs (nothing can swap the storage); one
    /// SeqCst swap + load otherwise.
    #[inline]
    fn enter(&self, role: Role) {
        if self.resizable() {
            self.fence.enter(role);
        }
        // Shadow CS strictly inside the fence CS: entered only after the
        // fence is held, so the checker cannot flag interleavings the
        // fence already excludes.
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.enter(role);
    }
    #[inline]
    fn exit(&self, role: Role) {
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.exit(
            role,
            match role {
                Role::Producer => self.tail.load(Relaxed),
                Role::Consumer => self.head.load(Relaxed),
            },
        );
        if self.resizable() {
            self.fence.exit(role);
        }
    }
    #[inline]
    fn capacity(&self) -> usize {
        self.capacity.load(Acquire)
    }
    #[inline]
    unsafe fn slot(&self, idx: usize) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: per the function contract the caller holds membership, so
        // no resize (the only writer) can run: a shared reference to the
        // storage cannot alias a mutation.
        unsafe { &*self.storage.get() }.slot(idx)
    }
    fn grow_to(&self, target: usize, stats: &FifoStats) -> bool {
        self.capacity() >= target || self.resize(target.next_power_of_two(), stats) >= target
    }
}

impl<T> Drop for Heap<T> {
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

/// Link state shared by producer, consumer, and monitor: the [`Home`] plus
/// what is local to this process whichever home it is.
struct Shared<T, H: Home<T>> {
    home: H,
    /// Out-of-band signal channel ("asynchronous signaling", §4.2).
    async_signal: AtomicU64,
    /// Cooperative drain level ([`DRAIN_RUNNING`] / [`DRAIN_DRAINING`] /
    /// [`DRAIN_QUIESCED`]); raised monotonically by the monitor or a stop
    /// handle, never lowered.
    drain: AtomicU8,
    /// Elements awaiting replay after a journal rewind. Counted into
    /// [`Shared::occupancy`] so schedulers see a rewound link as ready and
    /// `is_finished` stays false until the replay is consumed.
    journal_pending: std::sync::atomic::AtomicUsize,
    stats: FifoStats,
    cfg: FifoConfig,
    _elem: std::marker::PhantomData<fn(T) -> T>,
}

impl<T, H: Home<T>> Counters for Shared<T, H> {
    type Counter = H::Counter;
    #[inline]
    fn head(&self) -> &H::Counter {
        self.home.head()
    }
    #[inline]
    fn tail(&self) -> &H::Counter {
        self.home.tail()
    }
}

/// RAII bracket of [`Home::enter`]/[`Home::exit`] for one role — and,
/// because holding it is exactly what makes the slots stable, the ring's
/// [`Backing`]. Being RAII, user closures that panic (`peek`, `pop_slice`)
/// cannot strand the monitor waiting on a raised `active` flag; the batch
/// guards ([`WriteSlice`], [`PeekRange`]) simply own one.
struct Arena<'a, T, H: Home<T>> {
    shared: &'a Shared<T, H>,
    role: Role,
}

impl<T, H: Home<T>> Counters for Arena<'_, T, H> {
    type Counter = H::Counter;
    #[inline]
    fn head(&self) -> &H::Counter {
        self.shared.home.head()
    }
    #[inline]
    fn tail(&self) -> &H::Counter {
        self.shared.home.tail()
    }
}

// SAFETY: the arena is the `enter`/`exit` bracket under which `Home`
// guarantees a constant capacity and valid, per-index-disjoint slots.
unsafe impl<T, H: Home<T>> Backing for Arena<'_, T, H> {
    type Item = H::Slot;
    #[inline]
    fn capacity(&self) -> usize {
        self.shared.home.capacity()
    }
    #[inline]
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<H::Slot>) -> R) -> R {
        // SAFETY: `self` is the membership `slot` asks for.
        f(unsafe { self.shared.home.slot(idx) })
    }
}

impl<T, H: Home<T>> Drop for Arena<'_, T, H> {
    #[inline]
    fn drop(&mut self) {
        self.shared.home.exit(self.role);
    }
}

impl<T, H: Home<T>> Shared<T, H> {
    fn new(home: H, cfg: FifoConfig) -> Arc<Self> {
        Arc::new(Shared {
            home,
            async_signal: AtomicU64::new(0),
            drain: AtomicU8::new(DRAIN_RUNNING),
            journal_pending: std::sync::atomic::AtomicUsize::new(0),
            stats: FifoStats::new(),
            cfg,
            _elem: std::marker::PhantomData,
        })
    }

    /// Enter the ring critical section for `role`.
    #[inline]
    fn enter(&self, role: Role) -> Arena<'_, T, H> {
        self.home.enter(role);
        Arena { shared: self, role }
    }

    /// Per-element wake of whoever sleeps as `role`: one relaxed load per
    /// sleeper kind when nobody waits. A parked thread gets the lossy
    /// [`EventCount::notify_if_armed`] (bounded park, rescues counted); a
    /// registered task always gets the fenced notify — it has no timeout to
    /// fall back on.
    #[inline]
    fn notify(&self, role: Role) {
        if let Some(task) = self.home.task(role) {
            task.notify();
        }
        self.home.event(role).notify_if_armed();
    }

    /// Wake for a change that will not be repeated (close, drop, drain,
    /// async signal, resize, rewind): never loses one.
    fn notify_fenced(&self, role: Role) {
        if let Some(task) = self.home.task(role) {
            task.notify();
        }
        self.home.event(role).notify();
    }

    /// Mark `role`'s endpoint gone and tell the other side.
    fn close(&self, role: Role) {
        self.home.set_closed(role);
        self.notify_fenced(match role {
            Role::Producer => Role::Consumer,
            Role::Consumer => Role::Producer,
        });
    }

    /// Grow to at least `target` slots if the home can (cold; the caller
    /// is outside its arena, so a resize cannot deadlock on it). `true` if
    /// the capacity then suffices.
    fn grow_to(&self, target: usize) -> bool {
        let satisfied = self.home.grow_to(target, &self.stats);
        // A grow makes space visible to a parked producer.
        self.notify_fenced(Role::Producer);
        satisfied
    }

    /// Elements observable by the consumer: ring contents plus journal
    /// entries queued for replay after a rewind.
    #[inline]
    fn occupancy(&self) -> usize {
        let ring = self
            .home
            .tail()
            .load(Acquire)
            .saturating_sub(self.home.head().load(Acquire));
        ring + self.journal_pending.load(Acquire)
    }

    #[inline]
    fn quiesced(&self) -> bool {
        self.drain.load(Acquire) >= DRAIN_QUIESCED
    }

    /// Producer closed (or link quiesced) and everything consumed,
    /// including any journal replay.
    fn is_finished(&self) -> bool {
        (self.home.producer_closed() || self.quiesced()) && self.occupancy() == 0
    }

    /// The cursor just published: count it, leave the arena, tell the
    /// consumer side.
    #[inline]
    fn published(&self, arena: Arena<'_, T, H>, tail: usize) {
        // Single-writer counter: total pushed == tail, so a plain store
        // replaces a fetch_add.
        self.stats.writer.pushed.store(tail as u64, Relaxed);
        drop(arena);
        self.notify(Role::Consumer);
    }

    /// The cursor just released: count it, leave the arena, tell the
    /// producer side.
    #[inline]
    fn released(&self, arena: Arena<'_, T, H>, head: usize) {
        // Single-writer counter: total popped == head.
        self.stats.reader.popped.store(head as u64, Relaxed);
        drop(arena);
        self.notify(Role::Producer);
    }

    /// Block `role` until `ready` yields — the one place a FIFO endpoint
    /// waits. The first poll is the (inlined) fast path and touches no
    /// clock; only then does [`blocked`](Self::blocked) take over.
    #[inline]
    fn block_until<R>(
        &self,
        role: Role,
        mut ready: impl FnMut() -> Option<R>,
    ) -> Result<R, Blocked> {
        match ready() {
            Some(r) => Ok(r),
            None => self.blocked(role, ready),
        }
    }

    /// The slow half of [`block_until`](Self::block_until): the wait is
    /// visible to the monitor through `*_blocked_since` (3δ of writer
    /// blocking within six ticks grows the queue) and runs the crate's
    /// blocking loop on the eventcount `role` sleeps on, ended early only
    /// by drain level `QUIESCED`.
    #[cold]
    fn blocked<R>(&self, role: Role, ready: impl FnMut() -> Option<R>) -> Result<R, Blocked> {
        type Stamp = fn(&FifoStats);
        let stats = &self.stats;
        let (rescues, begin, end): (_, Stamp, Stamp) = match role {
            Role::Producer => (
                &stats.writer.rescues,
                FifoStats::writer_block_begin,
                FifoStats::writer_block_end,
            ),
            Role::Consumer => (
                &stats.reader.rescues,
                FifoStats::reader_block_begin,
                FifoStats::reader_block_end,
            ),
        };
        begin(stats);
        // We are *outside* the arena while parked, so a resize can proceed
        // while we sleep.
        let event = self.home.event(role);
        let result = eventcount::block_until(&event, rescues, None, || self.quiesced(), ready);
        end(stats);
        result
    }

    /// Non-blocking push straight to the ring.
    #[inline]
    fn try_push(
        &self,
        cursor: &mut ProducerCursor,
        value: T,
        signal: Signal,
    ) -> Result<(), TryPushError<T>> {
        if self.home.consumer_closed() {
            return Err(TryPushError::Closed(value));
        }
        let arena = self.enter(Role::Producer);
        match cursor.push(&arena, H::Slot::pack(value, signal)) {
            Ok(()) => {
                self.published(arena, cursor.tail());
                Ok(())
            }
            Err(slot) => Err(TryPushError::Full(slot.unpack().0)),
        }
    }

    /// Push as many of `want` elements as currently fit, under a single
    /// arena entry and one publish. `items` is told how many that is and
    /// yields exactly those.
    #[inline]
    fn push_some<I: Iterator<Item = (T, Signal)>>(
        &self,
        cursor: &mut ProducerCursor,
        want: usize,
        items: impl FnOnce(usize) -> I,
    ) -> Result<usize, PushError<()>> {
        if want == 0 {
            return Ok(0);
        }
        if self.home.consumer_closed() {
            return Err(PushError(()));
        }
        let arena = self.enter(Role::Producer);
        let n = cursor.push_some(&arena, want, |n| items(n).map(|(v, s)| H::Slot::pack(v, s)));
        if n > 0 {
            self.published(arena, cursor.tail());
        }
        Ok(n)
    }

    /// Blocking push straight to the ring: a full ring blocks until the
    /// consumer makes room.
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
        let sent = self.block_until(Role::Producer, || {
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
            // Consumer gone, or quiesced: nobody will drain this ring —
            // fail fast rather than wedge the draining graph.
            Ok(false) | Err(_) => Err(PushError(held.expect("handed back by the failed attempt"))),
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
        window: &mut Option<Box<Window<T>>>,
    ) -> Result<(T, Signal), TryPopError> {
        if let Some(w) = window.as_deref_mut().filter(|w| w.staged() > 0) {
            // Replaying a rewound transaction: serve from the window
            // without touching the ring.
            let pair = w.next();
            // Saturating: the cursor can trail the window without a rewind
            // if recording was interrupted mid-pop (failpoint or caught
            // panic between the ring pop and the cursor move); re-serving
            // that entry must not underflow the counter.
            let _ = self
                .journal_pending
                .fetch_update(AcqRel, Acquire, |v| v.checked_sub(1));
            self.stats.reader.replayed.fetch_add(1, Relaxed);
            return Ok(pair);
        }
        // Emptiness is decided on the counters alone, before paying for an
        // arena entry. Quiesced mid-drain reports end-of-stream so a blocked
        // consumer kernel terminates even though its producer is still
        // alive upstream.
        match cursor.poll(self, || self.home.producer_closed()) {
            Ok(_) => {}
            Err(TryPopError::Empty) if self.quiesced() => return Err(TryPopError::Closed),
            Err(e) => return Err(e),
        }
        let arena = self.enter(Role::Consumer);
        let Some(slot) = cursor.pop(&arena) else {
            return Err(TryPopError::Empty);
        };
        self.released(arena, cursor.head());
        let (value, signal) = slot.unpack();
        // By value, not `&value`: a borrow here would put the popped pair
        // through memory on every pop, journaled or not (~3x per pop).
        let value = match window {
            Some(w) => w.serve_live(value, signal, &self.stats.reader.forced_acks),
            None => value,
        };
        Ok((value, signal))
    }

    /// Consume `k` ready elements through `each` under one arena entry and
    /// one release — what `advance` and `pop_range` are.
    #[inline]
    fn drain(&self, cursor: &mut ConsumerCursor, k: usize, mut each: impl FnMut((T, Signal))) {
        let arena = self.enter(Role::Consumer);
        cursor.pop_some(&arena, k, |slot| each(slot.unpack()));
        self.released(arena, cursor.head());
    }
}

/// The stream FIFO's monitor/third-party handle; [`Producer`]/[`Consumer`]
/// are the data endpoints. Create a heap-home FIFO with [`fifo_with`], a
/// segment-home one with the [`crate::shm::ShmRing`] constructors.
pub struct Fifo<T, H: Home<T> = Heap<T>> {
    shared: Arc<Shared<T, H>>,
}

impl<T, H: Home<T>> Clone for Fifo<T, H> {
    fn clone(&self) -> Self {
        Fifo {
            shared: self.shared.clone(),
        }
    }
}

/// Create a heap-home FIFO with the given configuration; returns the
/// monitor-facing handle plus the two endpoints.
pub fn fifo_with<T: Send>(cfg: FifoConfig) -> (Fifo<T>, Producer<T>, Consumer<T>) {
    let max_capacity = cfg.max_capacity.max(1).next_power_of_two();
    let cfg = FifoConfig {
        initial_capacity: cfg
            .initial_capacity
            .clamp(1, max_capacity)
            .next_power_of_two(),
        max_capacity,
        // A ceiling below the default floor lowers the floor with it: the
        // resize clamp needs `min ≤ max`.
        min_capacity: cfg.min_capacity.clamp(1, max_capacity).next_power_of_two(),
        ..cfg
    };
    let fifo = Fifo {
        shared: Shared::new(Heap::new(&cfg), cfg),
    };
    // SAFETY: a fresh FIFO gets exactly one endpoint per role.
    let (producer, consumer) = unsafe { (fifo.producer(), fifo.consumer()) };
    (fifo, producer, consumer)
}

impl<T, H: Home<T>> Fifo<T, H> {
    /// A link over a home built elsewhere in the crate (the segment
    /// constructors), fixed at its capacity, with no endpoint yet.
    pub(crate) fn over(home: H) -> Self {
        let cfg = FifoConfig::fixed(home.capacity());
        Fifo {
            shared: Shared::new(home, cfg),
        }
    }

    /// The producing endpoint, resuming at the ring's current counters (the
    /// surviving values when re-attaching to a segment).
    ///
    /// # Safety
    /// The single-producer contract is taken on here: no other producer
    /// endpoint (or cursor) may exist for this link, in any process.
    pub(crate) unsafe fn producer(&self) -> Producer<T, H> {
        Producer {
            // SAFETY: the caller's contract; the cursor stays with `shared`.
            cursor: unsafe { ProducerCursor::attach(&*self.shared) },
            shared: self.shared.clone(),
            window: None,
        }
    }

    /// The consuming endpoint, resuming at the ring's current counters.
    ///
    /// # Safety
    /// The single-consumer twin of [`producer`](Self::producer).
    pub(crate) unsafe fn consumer(&self) -> Consumer<T, H> {
        Consumer {
            // SAFETY: the caller's contract; the cursor stays with `shared`.
            cursor: unsafe { ConsumerCursor::attach(&*self.shared) },
            shared: self.shared.clone(),
            window: None,
        }
    }

    /// Current capacity (elements).
    pub fn capacity(&self) -> usize {
        self.shared.home.capacity()
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

    /// The allocator backing this link: the home its endpoints were built
    /// over.
    pub fn link_alloc(&self) -> LinkAlloc {
        H::ALLOC
    }

    /// `true` once the producer closed (or the link quiesced) and all data —
    /// including journal entries awaiting replay — has been consumed.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }
}

impl<T> Fifo<T> {
    /// Resize the ring to `new_capacity` (clamped to config bounds and to
    /// current occupancy); see [`ResizeFence`] for the exclusion protocol.
    /// Returns the resulting capacity.
    pub fn resize(&self, new_capacity: usize) -> usize {
        let capacity = self.shared.home.resize(new_capacity, &self.shared.stats);
        // A grow makes space visible to a parked producer.
        self.shared.notify_fenced(Role::Producer);
        capacity
    }
}

/// Monitor-facing, type-erased view of a FIFO — what the runtime's monitor
/// thread, the schedulers' readiness gate and the stealing wakers hold for
/// every stream in the application.
pub trait Monitorable: Send + Sync {
    /// Current capacity (elements).
    fn capacity(&self) -> usize;
    /// Current occupancy (elements).
    fn occupancy(&self) -> usize;
    /// Telemetry counters.
    fn stats(&self) -> &FifoStats;
    /// Double the capacity (bounded by `max_capacity`); `true` if changed.
    fn grow(&self) -> bool;
    /// Grow to at least `target` (bounded); `true` if satisfied.
    fn grow_to(&self, target: usize) -> bool;
    /// Halve the capacity (bounded by `min_capacity` and occupancy); `true`
    /// if changed.
    fn shrink(&self) -> bool;
    /// Monitor tick: record an occupancy sample into the histogram.
    fn sample(&self);
    /// The configured growth ceiling.
    fn max_capacity(&self) -> usize;
    /// Statistics snapshot.
    fn snapshot(&self) -> StatsSnapshot;
    /// Producer closed (or link quiesced) and drained, journal replay
    /// included.
    fn is_finished(&self) -> bool;
    /// Post an asynchronous (out-of-band) signal, immediately visible to
    /// the consumer regardless of queued data (process-local, like the
    /// drain level).
    fn post_async(&self, signal: Signal);
    /// `true` while an asynchronous signal is posted and unconsumed. Part
    /// of the readiness predicate: an async signal is actionable input for
    /// a consumer kernel even when no data is queued.
    fn has_async(&self) -> bool;
    /// Waker slot notified when data/EoS becomes visible to the consumer.
    fn consumer_waker(&self) -> &WakerSlot;
    /// Waker slot notified when space becomes visible to the producer.
    fn producer_waker(&self) -> &WakerSlot;
    /// Raise the cooperative drain level (monotonic; lowering is ignored).
    /// At [`DRAIN_QUIESCED`] blocked producers fail fast and pops on an
    /// empty ring observe end-of-stream, so a wedged graph still
    /// terminates.
    fn set_drain_level(&self, level: u8);
    /// Current cooperative drain level.
    fn drain_level(&self) -> u8;
    /// The allocator backing this link's storage (for `ExeReport`).
    fn link_alloc(&self) -> LinkAlloc;
}

impl<T: Send> Monitorable for Fifo<T> {
    fn capacity(&self) -> usize {
        Fifo::capacity(self)
    }
    fn occupancy(&self) -> usize {
        Fifo::occupancy(self)
    }
    fn stats(&self) -> &FifoStats {
        Fifo::stats(self)
    }
    fn grow(&self) -> bool {
        let cur = self.capacity();
        cur < self.shared.cfg.max_capacity && self.resize(cur * 2) > cur
    }
    fn grow_to(&self, target: usize) -> bool {
        self.shared.grow_to(target)
    }
    fn shrink(&self) -> bool {
        let cur = self.capacity();
        cur > self.shared.cfg.min_capacity && self.resize(cur / 2) < cur
    }
    fn sample(&self) {
        self.shared.stats.sample_occupancy(self.occupancy());
    }
    fn max_capacity(&self) -> usize {
        self.shared.cfg.max_capacity
    }
    fn snapshot(&self) -> StatsSnapshot {
        Fifo::snapshot(self)
    }
    fn is_finished(&self) -> bool {
        Fifo::is_finished(self)
    }
    fn post_async(&self, signal: Signal) {
        self.shared.async_signal.store(signal.encode(), Release);
        self.shared.notify_fenced(Role::Consumer);
    }
    fn has_async(&self) -> bool {
        self.shared.async_signal.load(Acquire) != 0
    }
    fn consumer_waker(&self) -> &WakerSlot {
        &self.shared.home.data.task
    }
    fn producer_waker(&self) -> &WakerSlot {
        &self.shared.home.space.task
    }
    fn set_drain_level(&self, level: u8) {
        crate::failpoint!("buffer::fifo::drain");
        let prev = self.shared.drain.fetch_max(level, AcqRel);
        if prev < level {
            // Both endpoints may be parked on conditions that will now never
            // arrive; the new level must be actionable immediately.
            self.shared.notify_fenced(Role::Consumer);
            self.shared.notify_fenced(Role::Producer);
        }
    }
    fn drain_level(&self) -> u8 {
        self.shared.drain.load(Acquire)
    }
    fn link_alloc(&self) -> LinkAlloc {
        Fifo::link_alloc(self)
    }
}

/// Producing endpoint of a [`Fifo`]. One per stream; `Send` (the handle is
/// the unique owner of the producer role, so sending it only relocates the
/// role), not `Clone`.
pub struct Producer<T, H: Home<T> = Heap<T>> {
    shared: Arc<Shared<T, H>>,
    /// The ring's producer-side state (exact tail, conservative head cache).
    cursor: ProducerCursor,
    /// When `Some`, pushes are appended here instead of published to the
    /// ring — the output half of the exactly-once contract (see
    /// [`crate::journal`]) and the endpoint's one pending buffer.
    window: Option<Box<Window<T>>>,
}

/// Everything appended to one endpoint and not yet acknowledged, in
/// sequence order, under three cursors `acked ≤ cursor ≤ appended`. Both
/// endpoints keep their pending entries in one:
///
/// * on a **producer** the middle cursor is *published*: `[cursor,
///   appended)` is **staged** — not yet in the ring (a transaction's
///   uncommitted outputs, or a replay backlog after a rewind) — and
///   `[acked, cursor)` is **retained** — in the ring (or past it), kept
///   until the consuming side says it will never need it again;
/// * on a journaled **consumer** the middle cursor is *served*: `[acked,
///   cursor)` is what the open transaction popped, and `[cursor,
///   appended)` is what a rewind queued to be served again.
///
/// Rewinding either end is `cursor ← acked`, and handing out the entry at
/// the cursor either moves it or copies it (`retain`). Who acknowledges
/// depends on where a handed-out element can still be lost. Within a
/// process the ring itself is reliable, so handing an element to it is
/// delivering it: publishing *moves* the entry out and acknowledges it
/// (`retain` is `None`, the retained region stays empty, no `Clone`
/// needed). Across a process boundary the consumer can die with the ring's
/// contents: publishing *copies* the entry and the segment's commit word
/// acknowledges it ([`Producer::ack_committed`]). A consumer copies every
/// pop into its window, and the transaction commit acknowledges it.
struct Window<T> {
    /// Entries `[acked, appended)`, numbered in append order from 0.
    entries: ReplayWindow<(T, Signal)>,
    /// Sequence number of the next entry to hand out.
    cursor: u64,
    /// How to copy a retained entry when handing it out; `None` moves it.
    retain: Option<fn(&T) -> T>,
    /// Sends are refused between [`Producer::begin_recovery`] and
    /// [`Producer::replay_unacked`].
    recovering: bool,
}

impl<T> Window<T> {
    fn new(bound: usize, retain: Option<fn(&T) -> T>) -> Box<Self> {
        Box::new(Window {
            entries: ReplayWindow::new(bound),
            cursor: 0,
            retain,
            recovering: false,
        })
    }

    /// Entries appended and not yet handed out.
    fn staged(&self) -> usize {
        (self.entries.next_seq() - self.cursor) as usize
    }

    /// The entry at the cursor, for the ring (producer) or the kernel
    /// (consumer).
    fn next(&mut self) -> (T, Signal) {
        let seq = self.cursor;
        self.cursor += 1;
        match self.retain {
            // Nothing is retained, so the entry at the cursor is the front.
            None => self.entries.take_front(),
            Some(copy) => self.entries.get(seq).map(|(v, s)| (copy(v), *s)),
        }
        .expect("the cursor is inside the window")
    }

    /// Append `entry`, mirroring a forced acknowledgement (the bound
    /// dropped an entry that can no longer be replayed) into the endpoint's
    /// `forced_acks` counter.
    fn append(&mut self, entry: (T, Signal), forced_acks: &AtomicU64) {
        self.entries.append(entry);
        let forced = self.entries.forced_acks();
        if forced != forced_acks.load(Relaxed) {
            forced_acks.store(forced, Relaxed);
        }
        // A forced ack of an entry not yet handed out loses it: skip past.
        self.cursor = self.cursor.max(self.entries.acked());
    }

    /// A consumer's live pop: keep a copy for replay, serve the original.
    fn serve_live(&mut self, value: T, signal: Signal, forced_acks: &AtomicU64) -> T {
        let copy = self.retain.expect("a consumer window copies");
        self.append((copy(&value), signal), forced_acks);
        self.cursor = self.entries.next_seq();
        value
    }

    /// Hand everything unacknowledged out again, oldest first.
    fn rewind(&mut self) {
        self.cursor = self.entries.acked();
    }
}

impl<T, H: Home<T>> Producer<T, H> {
    /// Append `(value, signal)` to the window (never `Full`), unless the
    /// consumer is gone.
    fn stage(&mut self, value: T, signal: Signal) -> Result<(), T> {
        if self.shared.home.consumer_closed() {
            return Err(value);
        }
        self.append(value, signal);
        Ok(())
    }

    /// Append `(value, signal)` to the window.
    fn append(&mut self, value: T, signal: Signal) {
        let window = self.window.as_mut().expect("staging enabled");
        window.append((value, signal), &self.shared.stats.writer.forced_acks);
    }

    /// Hand staged entries to the ring in order, one batch — a single
    /// arena entry, tail store and consumer notify — per stretch of room.
    /// On a full ring, `block` waits for room; otherwise the rest stays
    /// staged. Returns the number published; errs if the consumer is gone.
    fn flush(&mut self, block: bool) -> Result<usize, PushError<()>> {
        let Producer {
            shared,
            cursor,
            window,
        } = self;
        let Some(window) = window else {
            return Ok(0);
        };
        let mut published = 0;
        while window.staged() > 0 {
            let staged = window.staged();
            let entries = &mut *window;
            let batch = move |n| std::iter::repeat_with(move || entries.next()).take(n);
            match shared.push_some(cursor, staged, batch)? {
                0 if block => {
                    let (v, s) = window.next();
                    shared.push(cursor, v, s).map_err(|_| PushError(()))?;
                    published += 1;
                }
                0 => break,
                n => published += n,
            }
        }
        Ok(published)
    }

    /// Non-blocking push of `(value, signal)`. With staging enabled the
    /// element lands in the pending window (never `Full`) and reaches the
    /// ring at the next [`commit_produced`](Self::commit_produced).
    pub fn try_push_signal(&mut self, value: T, signal: Signal) -> Result<(), TryPushError<T>> {
        if self.window.is_some() {
            return self.stage(value, signal).map_err(TryPushError::Closed);
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
    /// grows this queue (the paper's write-side resize trigger).
    pub fn push_signal(&mut self, value: T, signal: Signal) -> Result<(), PushError<T>> {
        if self.window.is_some() {
            return self.stage(value, signal).map_err(PushError);
        }
        self.shared.push(&mut self.cursor, value, signal)
    }

    /// Blocking push; errs only if the consumer is gone.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_signal(value, Signal::None)
    }

    /// Blocking batch push: pushes *all* of `items`, as many as fit under
    /// one fence entry at a time, waiting for room as needed. Errs only if
    /// the consumer is gone (remaining items stay in `items`) or the link
    /// quiesced. With staging enabled the whole batch is buffered until
    /// commit.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        if self.window.is_some() {
            if self.shared.home.consumer_closed() {
                return Err(PushError(()));
            }
            for v in items.drain(..) {
                self.append(v, Signal::None);
            }
            return Ok(());
        }
        let Producer { shared, cursor, .. } = self;
        while !items.is_empty() {
            // One wait per stretch without progress: progress restarts the
            // backoff schedule and the blocked stamp.
            let step = || match shared.push_some(cursor, items.len(), |n| {
                items.drain(..n).map(|v| (v, Signal::None))
            }) {
                Ok(0) => None,
                progress => Some(progress),
            };
            shared
                .block_until(Role::Producer, step)
                .map_err(|_| PushError(()))??;
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
    pub fn reserve(&mut self, n: usize) -> Result<WriteSlice<'_, T, H>, PushError<()>> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        let n = n.clamp(1, shared.cfg.max_capacity);
        let arena = shared.block_until(Role::Producer, || {
            if shared.home.consumer_closed() || shared.quiesced() {
                return Some(None);
            }
            if n > shared.home.capacity() {
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
    pub fn allocate(&mut self) -> Result<WriteGuard<'_, T, H>, PushError<T>>
    where
        T: Default,
    {
        let mut slot = self.reserve(1).map_err(|_| PushError(T::default()))?;
        slot.push(T::default());
        Ok(WriteGuard(slot))
    }

    /// Stage outputs instead of publishing them: after this call every push
    /// lands in the pending window and only reaches the ring on
    /// [`commit_produced`](Self::commit_produced) — the output half of the
    /// exactly-once recovery contract (see [`FifoConfig::journal`]).
    /// Zero-copy writes ([`reserve`](Self::reserve) /
    /// [`allocate`](Self::allocate)) bypass staging and publish directly.
    /// Elements still staged when the producer closes are discarded.
    pub fn enable_staging(&mut self) {
        if self.window.is_none() {
            self.window = Some(Window::new(0, None));
        }
    }

    /// `true` once staging (or replay) is enabled: pushes go through the
    /// pending window.
    pub fn journaled(&self) -> bool {
        self.window.is_some()
    }

    /// Elements currently staged and not yet published.
    pub fn staged_len(&self) -> usize {
        self.window.as_ref().map_or(0, |w| w.staged())
    }

    /// Publish every staged element to the ring, blocking for room as
    /// needed. Returns the number published; errs if the consumer is gone,
    /// in which case the remaining staged elements are discarded.
    pub fn commit_produced(&mut self) -> Result<usize, PushError<()>> {
        let committed = self.flush(true);
        if committed.is_err() {
            self.rewind_produced();
        }
        committed
    }

    /// Discard every staged element — the rewind half of a failed
    /// transaction. Returns how many were discarded.
    pub fn rewind_produced(&mut self) -> usize {
        self.window
            .as_mut()
            .map_or(0, |w| w.entries.truncate(w.cursor))
    }

    /// Close the stream: the consumer drains what remains, then sees
    /// `Closed`. Idempotent.
    pub fn close(&mut self) {
        // EoS is actionable for a parked consumer: the notify is fenced.
        self.shared.close(Role::Producer);
    }

    /// `true` once the consumer endpoint dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.home.consumer_closed()
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.home.capacity()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// Parks of this endpoint that ended by timeout and then found room:
    /// wakes that were owed and never came. Stays 0 unless the lossy
    /// per-element notify lost a race (or a wake syscall stalled).
    pub fn rescues(&self) -> u64 {
        self.shared.stats.writer.rescues.load(Relaxed)
    }

    /// Monitor-facing handle for this FIFO.
    pub fn fifo(&self) -> Fifo<T, H> {
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
    pub fn protocol_test_duplicate(&self) -> Producer<T, H> {
        // SAFETY: deliberately *not* upheld — a second producer endpoint is
        // the contract violation this double exists to provoke. The shadow
        // checker panics before the two can touch a slot.
        unsafe { self.fifo().producer() }
    }
}

/// Cross-process exactly-once on the segment home: the producer half of a
/// link whose consumer is a worker *process* that can be SIGKILLed, reaped
/// and respawned over the same segment (see `core::proc`).
///
/// Every sent element is appended to the window *before* it is pushed,
/// acknowledged only when the consuming worker advances the segment's
/// [`commit word`](ShmSegment::commit_word), and re-delivered in order by
/// [`replay_unacked`](Self::replay_unacked) after the supervisor has reaped
/// the dead worker, revoked its role, and drained the un-popped residue.
/// The worker-side contract that makes the commit word safe: *publish the
/// result of element `n`, then store `n+1`* — a death between the two
/// re-delivers element `n`, and the duplicate result is deduplicated
/// downstream by its sequence number.
impl<T: ShmItem> Producer<T, Seg<T>> {
    /// The backing segment (fd, commit word, heartbeat, …).
    pub fn segment(&self) -> &ShmSegment {
        self.shared.home.segment()
    }

    /// An owned handle on the backing segment — what a supervisor keeps so
    /// it can write close flags and revoke roles while the producer handle
    /// itself sits behind a lock.
    pub fn segment_shared(&self) -> Arc<ShmSegment> {
        self.shared.home.segment().clone()
    }

    /// Retain published elements for replay, at most `bound` of them
    /// unacknowledged (0 = unbounded). The bound must cover the ring
    /// capacity plus the worker's commit lag, or forced acks (counted in
    /// [`StatsSnapshot::forced_acks`]) will puncture replay coverage —
    /// `2 × capacity` is a comfortable floor. Call before the first send;
    /// the methods below require it.
    pub fn enable_replay(&mut self, bound: usize) {
        self.window = Some(Window::new(bound, Some(T::clone)));
    }

    fn replay_window(&mut self) -> &mut Window<T> {
        self.window.as_mut().expect("enable_replay() was called")
    }

    /// Append `value` and push it, blocking while the ring is full.
    /// Returns `false` — value **not** appended, retry later — only while
    /// a recovery window is open ([`begin_recovery`](Self::begin_recovery)
    /// has run and [`replay_unacked`](Self::replay_unacked) has not). A
    /// push that finds the consumer gone after the append still returns
    /// `true`: the entry is retained, and that is exactly the window
    /// replay covers.
    pub fn send(&mut self, value: T) -> bool {
        if self.recovering() {
            return false;
        }
        // While a replay backlog is still draining the new entry queues
        // behind it (window order stays delivery order) and nothing blocks.
        let block = self.staged_len() == 0;
        // Appended even if the consumer looks gone: a worker that died (or
        // whose reaper wrote the flag) is what replay is for.
        self.append(value, Signal::None);
        let _ = self.flush(block);
        self.ack_committed();
        true
    }

    /// Release the entries the worker has committed and drain any replay
    /// backlog into free ring space. Returns how many entries were
    /// released. Call this periodically after a recovery: it is the pump
    /// that finishes a replay too large to fit the ring in one go.
    ///
    /// Never blocks: a supervisor thread calls this from its reaction path,
    /// and parking it on ring space would deadlock if the replacement
    /// worker dies mid-replay (nobody left to reap it).
    pub fn ack_committed(&mut self) -> usize {
        let committed = self.segment().commit_word().load(Acquire);
        let window = self.replay_window();
        // Only what was handed to the ring can have been processed,
        // whatever a byzantine worker writes.
        let released = window.entries.ack(committed.min(window.cursor));
        if !window.recovering {
            // Full: retry on a later pump. Closed: the worker died again;
            // the next recovery cycle rewinds the cursor.
            let _ = self.flush(false);
        }
        released
    }

    /// Open the recovery window: discard the dead worker's un-popped ring
    /// residue, fold its final commit into the window, rewind `published`
    /// to `acked`, and refuse sends until
    /// [`replay_unacked`](Self::replay_unacked). Returns the residue count
    /// dropped.
    ///
    /// Caller contract: the worker is dead **and reaped**, and its consumer
    /// role has been revoked — residue draining moves the shared head, which
    /// only the (now nonexistent) consumer otherwise owns.
    pub fn begin_recovery(&mut self) -> u64 {
        self.replay_window().recovering = true;
        let dropped = self.segment().drain_residue();
        self.ack_committed();
        self.replay_window().rewind();
        dropped
    }

    /// Close the recovery window and re-push as much of the unacknowledged
    /// suffix as fits the ring *without blocking*. Whatever does not fit
    /// drains on subsequent [`ack_committed`](Self::ack_committed) pumps
    /// (and ahead of any new sends), so the replacement worker still
    /// observes strict window order. Returns entries re-pushed immediately.
    pub fn replay_unacked(&mut self) -> usize {
        self.replay_window().recovering = false;
        self.flush(false).unwrap_or(0)
    }

    /// `true` while sends are refused by an open recovery window.
    pub fn recovering(&self) -> bool {
        self.window.as_ref().is_some_and(|w| w.recovering)
    }

    /// Entries appended and not yet committed by the worker.
    pub fn pending(&self) -> usize {
        self.window.as_ref().map_or(0, |w| w.entries.len())
    }

    /// The unacknowledged entries, by sequence number in send order.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &(u64, (T, Signal))> {
        self.window
            .iter()
            .flat_map(|w| w.entries.iter_from(w.entries.acked()))
    }
}

impl<T, H: Home<T>> Drop for Producer<T, H> {
    fn drop(&mut self) {
        // Implicit EoS: a parked consumer must observe the close.
        self.shared.close(Role::Producer);
    }
}

/// In-place batch write window returned by [`Producer::reserve`]. Fill it
/// front-to-back with [`push`](WriteSlice::push); everything written is
/// published with one counter store when the slice drops.
pub struct WriteSlice<'a, T, H: Home<T> = Heap<T>> {
    /// Membership held since `reserve`; pins the storage under the window.
    arena: Arena<'a, T, H>,
    cursor: &'a mut ProducerCursor,
    cap: usize,
    written: usize,
}

impl<T, H: Home<T>> WriteSlice<'_, T, H> {
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
                .write(&self.arena, self.written, H::Slot::pack(value, signal));
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

impl<T, H: Home<T>> Drop for WriteSlice<'_, T, H> {
    fn drop(&mut self) {
        if self.written > 0 {
            let shared = self.arena.shared;
            self.cursor.publish(shared, self.written);
            shared
                .stats
                .writer
                .pushed
                .store(self.cursor.tail() as u64, Relaxed);
            shared.notify(Role::Consumer);
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
pub struct WriteGuard<'a, T, H: Home<T> = Heap<T>>(WriteSlice<'a, T, H>);

impl<T, H: Home<T>> WriteGuard<'_, T, H> {
    #[inline]
    fn slot(&self) -> *mut H::Slot {
        let slice = &self.0;
        // The one reserved slot, initialized by `allocate` and not yet
        // published (the cursor's tail has not moved).
        slice
            .arena
            .slot(slice.cursor.tail(), |p| p.cast::<H::Slot>())
    }

    /// Attach a synchronous signal to the element being written.
    pub fn set_signal(&mut self, signal: Signal) {
        // SAFETY: initialized in allocate(), invisible to the consumer until
        // the slice publishes, storage pinned by the slice's membership;
        // `&mut self` makes the access exclusive.
        unsafe { (*self.slot()).set_signal(signal) };
    }

    /// Abandon the element without sending it.
    pub fn abort(mut self) {
        // SAFETY: initialized in allocate(), never published; dropped exactly
        // once because the slice then publishes nothing.
        unsafe { std::ptr::drop_in_place(self.slot()) };
        self.0.written = 0;
    }
}

impl<T, H: Home<T>> Deref for WriteGuard<'_, T, H> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: initialized, unpublished slot, storage pinned by the fence.
        unsafe { (*self.slot()).value() }
    }
}

impl<T, H: Home<T>> DerefMut for WriteGuard<'_, T, H> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref; single producer, so no aliasing.
        unsafe { (*self.slot()).value_mut() }
    }
}

/// Consuming endpoint of a [`Fifo`]. One per stream; `Send`, not `Clone`.
pub struct Consumer<T, H: Home<T> = Heap<T>> {
    shared: Arc<Shared<T, H>>,
    /// The ring's consumer-side state (exact head, conservative tail cache).
    cursor: ConsumerCursor,
    /// Replay journal for the exactly-once recovery contract (see
    /// [`crate::journal`]): records a clone of every popped element until
    /// the transaction commits, re-serves them after a rewind. Boxed: the
    /// unjournaled common case pays one pointer and a null check per pop.
    window: Option<Box<Window<T>>>,
}

impl<T, H: Home<T>> Consumer<T, H> {
    /// Non-blocking pop of `(value, signal)`. On a journaled link,
    /// rewound elements are re-served (as clones, in original order) before
    /// anything new is taken from the ring, and every live pop is recorded
    /// for possible replay.
    pub fn try_pop_signal(&mut self) -> Result<(T, Signal), TryPopError> {
        self.shared.try_pop(&mut self.cursor, &mut self.window)
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
            window,
        } = self;
        let popped = shared.block_until(Role::Consumer, || match shared.try_pop(cursor, window) {
            Ok(pair) => Some(Some(pair)),
            Err(TryPopError::Closed) => Some(None),
            Err(TryPopError::Empty) => None,
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
    pub fn peek_range(&mut self, n: usize) -> Result<PeekRange<'_, T, H>, PopError> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        shared.stats.note_read_request(n);
        let arena = shared.block_until(Role::Consumer, || {
            // Grow first if the request can never be satisfied (paper: queue
            // "tagged for resizing" when a read request exceeds capacity).
            // We are outside the arena here, so the resize cannot deadlock
            // against our own membership.
            if n > shared.home.capacity() && !shared.grow_to(n) {
                // Request exceeds even max_capacity: impossible.
                return Some(None);
            }
            if cursor.refresh(shared) >= n {
                // Occupancy can only grow from here (we are the consumer),
                // so entering the arena and taking the window is race-free.
                return Some(Some(shared.enter(Role::Consumer)));
            }
            (shared.home.producer_closed() && cursor.refresh(shared) < n).then_some(None)
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
        let slot = arena.slot(self.cursor.head(), |p| unsafe { &*(*p).as_ptr() });
        Some(f(slot.value(), slot.signal()))
    }

    /// Pop up to `n` elements into `out`; blocks until at least one element
    /// is available or the stream ends. Returns the number popped.
    ///
    /// Takes what is visible once something is — it does not wait for *more*
    /// data — under one fence entry and one release, so a producer waiting
    /// for room is told once per call, not once per element.
    pub fn pop_range(&mut self, n: usize, out: &mut Vec<T>) -> Result<usize, PopError> {
        self.shared.stats.note_read_request(n);
        if self.window.is_some() {
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
        let ready = shared.block_until(Role::Consumer, || {
            match cursor.poll(shared, || shared.home.producer_closed()) {
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
        f: impl FnOnce(&SliceView<'_, T, H>) -> R,
    ) -> Result<R, PopError> {
        let shared = &*self.shared;
        let cursor = &mut self.cursor;
        shared.stats.note_read_request(n);
        // A full reload each poll: the view should be as large as the ring
        // allows, not as large as a stale cache remembers.
        let avail = shared.block_until(Role::Consumer, || match cursor.refresh(shared) {
            0 if !shared.home.producer_closed() => None,
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
    /// exactly-once recovery contract (see [`FifoConfig::journal`]). Every
    /// pop records a clone (at most `JOURNAL_BOUND` unacknowledged);
    /// [`commit_consumed`](Self::commit_consumed) acknowledges them,
    /// [`rewind_consumed`](Self::rewind_consumed) queues them for replay.
    /// Call once at wiring time, before the first pop.
    ///
    /// Zero-copy read paths (`pop_slice`, `peek_range` + `advance`) bypass
    /// the journal; journaled links must consume through the per-element or
    /// `pop_range` paths (the runtime's supervised wiring does).
    pub fn enable_journal(&mut self)
    where
        T: Clone,
    {
        if self.window.is_none() {
            self.window = Some(Window::new(JOURNAL_BOUND, Some(T::clone)));
        }
    }

    /// `true` once the replay journal is enabled.
    pub fn journaled(&self) -> bool {
        self.window.is_some()
    }

    /// Commit the current transaction: acknowledge every element served
    /// since the last commit, releasing it from the replay window. Returns
    /// how many entries were released.
    pub fn commit_consumed(&mut self) -> usize {
        self.window.as_mut().map_or(0, |w| w.entries.ack(w.cursor))
    }

    /// Rewind the current transaction: every unacknowledged element will be
    /// re-served (as a clone, in original order) by subsequent pops.
    /// Returns how many elements were queued for replay. A second panic
    /// before the next commit replays the same elements again.
    pub fn rewind_consumed(&mut self) -> usize {
        let Some(w) = self.window.as_mut() else {
            return 0;
        };
        w.rewind();
        let pending = w.staged();
        self.shared.journal_pending.store(pending, Release);
        if pending > 0 {
            // The restarted kernel's task must observe itself as ready even
            // though the ring may be empty.
            self.shared.notify_fenced(Role::Consumer);
        }
        pending
    }

    /// Take a pending asynchronous signal, if any.
    pub fn take_async(&mut self) -> Option<Signal> {
        Signal::decode(self.shared.async_signal.swap(0, Acquire))
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.home.capacity()
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

    /// Parks of this endpoint that ended by timeout and then found data
    /// (see [`Producer::rescues`]).
    pub fn rescues(&self) -> u64 {
        self.shared.stats.reader.rescues.load(Relaxed)
    }

    /// Monitor-facing handle for this FIFO.
    pub fn fifo(&self) -> Fifo<T, H> {
        Fifo {
            shared: self.shared.clone(),
        }
    }
}

impl<T: ShmItem> Consumer<T, Seg<T>> {
    /// The backing segment (fd, commit word, heartbeat, …).
    pub fn segment(&self) -> &ShmSegment {
        self.shared.home.segment()
    }

    /// An owned handle on the backing segment (see
    /// [`Producer::segment_shared`]).
    pub fn segment_shared(&self) -> Arc<ShmSegment> {
        self.shared.home.segment().clone()
    }
}

impl<T, H: Home<T>> Drop for Consumer<T, H> {
    fn drop(&mut self) {
        // A parked producer must observe the broken stream.
        self.shared.close(Role::Consumer);
        // Remaining elements are dropped by Shared::drop (exactly once, with
        // exclusive access) — not here, to avoid racing a late producer push.
    }
}

/// Zero-copy read view of the `len` elements at the front of the queue:
/// lent to the closure of [`Consumer::pop_slice`], and what a
/// [`PeekRange`] dereferences to. Valid only while its creator holds fence
/// membership (around the closure / for the window's lifetime).
pub struct SliceView<'a, T, H: Home<T> = Heap<T>> {
    shared: &'a Shared<T, H>,
    head: usize,
    len: usize,
}

impl<T, H: Home<T>> SliceView<'_, T, H> {
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
    fn slot(&self, i: usize) -> &H::Slot {
        assert!(i < self.len, "view index {i} out of bounds {}", self.len);
        // SAFETY: whoever built the view holds consumer membership for as
        // long as it exists, so the storage cannot be swapped; `[head, head
        // + len)` was ready (observed via Acquire) when the view was taken
        // and the consumer, mutably borrowed by the view's creator, does not
        // release it before the view is gone.
        unsafe { &*(*self.shared.home.slot(self.head + i)).as_ptr() }
    }

    /// Signal attached to the `i`-th element.
    pub fn signal(&self, i: usize) -> Signal {
        self.slot(i).signal()
    }

    /// Iterate over the view.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl<T, H: Home<T>> Index<usize> for SliceView<'_, T, H> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        self.slot(i).value()
    }
}

/// Borrowed sliding window over the front of the queue (see
/// [`Consumer::peek_range`]): a [`SliceView`] that owns its fence
/// membership, so resizes wait until it is dropped.
pub struct PeekRange<'a, T, H: Home<T> = Heap<T>> {
    view: SliceView<'a, T, H>,
    _arena: Arena<'a, T, H>,
}

impl<'a, T, H: Home<T>> Deref for PeekRange<'a, T, H> {
    type Target = SliceView<'a, T, H>;
    fn deref(&self) -> &SliceView<'a, T, H> {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventcount::Wake;
    use std::time::Duration;

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
            f.stats().writer_blocked_total_ns() > 0,
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
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(4));
        // Capacity 4: the first 4 fit at once, then the batch blocks until
        // the consumer drains.
        let producer = std::thread::spawn(move || {
            let mut items: Vec<u64> = (0..10).collect();
            p.push_batch(&mut items).unwrap();
            assert!(items.is_empty());
        });
        while f.occupancy() < 4 || f.stats().writer_blocked_total_ns() == 0 {
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        while let Ok(v) = c.pop() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_push_to_closed_consumer_errs() {
        let (_f, mut p, c) = small();
        drop(c);
        let mut items = vec![1u64, 2];
        assert!(p.push_batch(&mut items).is_err());
        assert_eq!(items.len(), 2, "items must be handed back");
    }

    #[test]
    fn batch_push_empty_is_noop() {
        let (_f, mut p, _c) = small();
        p.push_batch(&mut Vec::new()).unwrap();
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
    fn journal_rewind_replays_uncommitted_pops() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        c.enable_journal();
        assert!(c.journaled());
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(c.pop().unwrap(), 1);
        // Transaction fails: both pops must be re-served, in order.
        assert_eq!(c.rewind_consumed(), 2);
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
        c.enable_journal();
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
    fn journal_bound_forces_the_oldest_pops_out_and_replays_the_rest() {
        // One transaction pops past the constant bound: the three oldest
        // pops can no longer be replayed, and the reader side says so.
        const N: u64 = JOURNAL_BOUND as u64 + 3;
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        c.enable_journal();
        for i in 0..N {
            p.push(i).unwrap();
            assert_eq!(c.pop().unwrap(), i);
        }
        assert_eq!(f.stats().reader.forced_acks.load(Relaxed), 3);
        assert_eq!(f.snapshot().forced_acks, 3);
        assert_eq!(c.rewind_consumed(), JOURNAL_BOUND);
        let replayed: Vec<u64> = (0..JOURNAL_BOUND).map(|_| c.pop().unwrap()).collect();
        assert_eq!(replayed, (3..N).collect::<Vec<_>>());
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
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
    fn ceiling_below_the_default_floor_lowers_the_floor() {
        // `min_capacity` stays at its default 8 above a ceiling of 4: the
        // floor follows the ceiling down, so a resize past the ceiling
        // clamps instead of panicking with the resize fence held.
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            max_capacity: 4,
            ..Default::default()
        });
        assert_eq!(f.capacity(), 4);
        for i in 0..3 {
            p.try_push(i).unwrap();
        }
        assert_eq!(f.resize(8), 4);
        assert!(!f.grow());
        // The fence was released: the endpoints still get in.
        p.try_push(3).unwrap();
        assert_eq!(
            (0..4).map(|_| c.pop().unwrap()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
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

    /// A home the park-timeout table can build links over and look into.
    trait Probe: Home<u64> + Sized + Send + Sync {
        /// A fresh fixed ring of two.
        fn link() -> (Fifo<u64, Self>, Producer<u64, Self>, Consumer<u64, Self>);
        /// `true` while a thread parked as `role` has armed its eventcount.
        fn armed(&self, role: Role) -> bool;
    }

    impl Probe for Heap<u64> {
        fn link() -> (Fifo<u64>, Producer<u64>, Consumer<u64>) {
            fifo_with(FifoConfig::fixed(2))
        }
        fn armed(&self, role: Role) -> bool {
            Wake::armed(&self.side(role).thread).load(Acquire) == 1
        }
    }

    impl Probe for Seg<u64> {
        fn link() -> (Fifo<u64, Self>, Producer<u64, Self>, Consumer<u64, Self>) {
            let (p, c) = crate::shm::ShmRing::pair(2);
            (p.fifo(), p, c)
        }
        fn armed(&self, role: Role) -> bool {
            Wake::armed(self.event(role).backend()).load(Acquire) == 1
        }
    }

    fn armed<H: Probe>(f: &Fifo<u64, H>, role: Role) -> impl Fn() -> bool + '_ {
        move || f.shared.home.armed(role)
    }

    /// A full ring of two, for the producer-side rows.
    fn full<H: Probe>() -> (Fifo<u64, H>, Producer<u64, H>, Consumer<u64, H>) {
        let (f, mut p, c) = H::link();
        p.try_push(0).unwrap();
        p.try_push(1).unwrap();
        (f, p, c)
    }

    /// A blocking entry point, and a round of it that returns the rescues
    /// its link counted.
    type ParkRow = (&'static str, fn() -> u64);

    fn park_rows<H: Probe>() -> [ParkRow; 7] {
        use Role::{Consumer as C, Producer as P};
        [
            ("push", || {
                let (f, mut p, mut c) = full::<H>();
                wake_once_parked(
                    &armed(&f, P),
                    || p.push(2).unwrap(),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("push_batch", || {
                let (f, mut p, mut c) = full::<H>();
                let mut items = vec![2, 3];
                wake_once_parked(
                    &armed(&f, P),
                    || p.push_batch(&mut items).unwrap(),
                    || assert_eq!(c.pop_range(2, &mut Vec::new()).unwrap(), 2),
                );
                f.snapshot().rescues
            }),
            ("reserve", || {
                let (f, mut p, mut c) = full::<H>();
                wake_once_parked(
                    &armed(&f, P),
                    || drop(p.reserve(1).unwrap()),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("allocate", || {
                let (f, mut p, mut c) = full::<H>();
                wake_once_parked(
                    &armed(&f, P),
                    || drop(p.allocate().unwrap()),
                    || {
                        c.pop().unwrap();
                    },
                );
                f.snapshot().rescues
            }),
            ("pop", || {
                let (f, mut p, mut c) = H::link();
                let got = wake_once_parked(
                    &armed(&f, C),
                    || c.pop().unwrap(),
                    || {
                        p.push(7).unwrap();
                    },
                );
                assert_eq!(got, 7);
                f.snapshot().rescues
            }),
            ("peek_range", || {
                let (f, mut p, mut c) = H::link();
                p.push(1).unwrap();
                let seen = wake_once_parked(
                    &armed(&f, C),
                    || c.peek_range(2).unwrap().iter().sum::<u64>(),
                    || p.push(2).unwrap(),
                );
                assert_eq!(seen, 3);
                f.snapshot().rescues
            }),
            ("pop_slice", || {
                let (f, mut p, mut c) = H::link();
                let seen = wake_once_parked(
                    &armed(&f, C),
                    || c.pop_slice(2, |v| v[0]).unwrap(),
                    || p.push(5).unwrap(),
                );
                assert_eq!(seen, 5);
                f.snapshot().rescues
            }),
        ]
    }

    #[test]
    fn no_blocking_entry_point_needs_the_park_timeout() {
        // Every blocking entry point parks through the same arm → re-check →
        // wait(epoch) sequence, so a peer that acts once the sleeper has
        // armed always wakes it: the 2 ms backstop never has to — on either
        // home.
        for (home, rows) in [
            ("heap", park_rows::<Heap<u64>>()),
            ("segment", park_rows::<Seg<u64>>()),
        ] {
            for (entry, round) in rows {
                for n in 0..200 {
                    assert_eq!(round(), 0, "{home} {entry}: park rescued on round {n}");
                }
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
