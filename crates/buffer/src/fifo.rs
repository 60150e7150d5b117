//! The stream FIFO: the crate's one pair of blocking ring endpoints, over
//! whichever *home* their control words and slots live in.
//!
//! A stream is one FIFO whose only variable is where its slots live (paper
//! §3–§4). [`Producer`], [`Consumer`] and the monitor-facing [`Fifo`] are
//! therefore written once, generic over a statically dispatched [`Home`]:
//!
//! * the **heap home** ([`Heap`], the default — `Producer<T>` is it):
//!   in-process words, a [`ThreadPark`] eventcount per direction plus a
//!   task-waker slot on the data side, and a chain of fixed heap rings.
//!   RaftLib resizes queues at run time (§4): a monitor wakes every δ and
//!   grows a queue whose writer has been blocked for 3δ, or whose reader
//!   asked for more items than it can ever hold. No ring is resized in
//!   place. A resize is a *request*: [`Fifo::resize`] posts a target
//!   capacity in one word of the link. The producer *seals* its ring when
//!   it next refreshes its head cache (a publish boundary): it starts a
//!   new ring of the target size, records there the tail it sealed at, and
//!   links it from the old ring last. The consumer *follows* when it next
//!   refreshes its tail cache: it moves its live region — held slots and
//!   unread ones — into the new ring at the same indices and frees the old
//!   one. `head`/`tail` live outside the rings, so indices stay global and
//!   each endpoint only ever touches its own ring;
//! * the **segment home** ([`crate::shm::Seg`], built by the
//!   [`crate::shm::ShmRing`] constructors): every word and slot at a fixed
//!   offset of a mapped segment another process can attach, a
//!   [`crate::futex::Futex`] eventcount per direction, fixed capacity — so
//!   a resize request never changes it.
//!
//! What the endpoints add to the ring core, on either home:
//!
//! * **Blocking.** There are two waits: the writes' `Shared::wait_room`
//!   behind `push`, `push_batch`, `reserve`, `allocate` and the staged
//!   commit, and the reads' `Shared::wait_ready` behind `pop`, `pop_range`,
//!   `pop_slice` and `peek_range`. Each is one call to
//!   `Shared::block_until`, i.e. the crate's one blocking loop
//!   ([`crate::eventcount::block_until`]), which records each blocked
//!   episode the monitor's 3δ rule consumes; on either home its park is a
//!   `futex(2)` wait on the eventcount's `seq` word. Every write publishes through
//!   the one `Shared::publish`. A full ring blocks the writer and an empty
//!   one the reader; only drain level `QUIESCED` ends a wait early — an
//!   operation that does not wait succeeds at any level — so no element is
//!   ever dropped.
//! * Zero-copy batch views: [`Producer::reserve`] hands out a
//!   [`WriteSlice`] that is written in place and published with one counter
//!   store on drop; [`Consumer::pop_slice`] lends the front of the queue to
//!   a closure as a [`SliceView`] and consumes it afterwards.
//! * The exactly-once recovery contract, stated once at
//!   [`FifoConfig::journal`]. A journaled **consumer** keeps no copy: the
//!   ring is its journal. Every read path — pop, `pop_range`, `pop_slice`,
//!   `peek_range` + `advance` — reads past its elements and *holds* their
//!   slots instead of handing them back; the commit releases them (one
//!   `head` store), a rewind moves the read head back onto them. A staging
//!   **producer** keeps its uncommitted writes in a plain pending batch;
//!   the commit publishes it in order, a rewind clears it. Across a
//!   process boundary the segment ring outlives its consumer, so it stays
//!   the journal there too: the worker's commit word bounds the producer,
//!   and recovery rewinds `head` to it ([`crate::arena::DescriptorSender`]).
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
use crate::ring::{Backing, ConsumerCursor, Counter, Counters, ProducerCursor};
use crate::shm::{Seg, ShmItem, ShmSegment};

use crate::signal::Signal;
use crate::stats::{FifoStats, StatsSnapshot};
use crate::sync::{AtomicPtr, AtomicUsize, CachePadded};
use crate::waker::WakerSlot;

/// Drain levels for the cooperative shutdown protocol (see
/// [`Monitorable::set_drain_level`]). `RUNNING` is normal operation; `DRAINING`
/// asks sources to stop while in-flight data keeps flowing; `QUIESCED`
/// fails blocked endpoints fast so a wedged graph still terminates.
pub const DRAIN_RUNNING: u8 = 0;
/// Sources stop, in-flight elements still flow (see [`DRAIN_RUNNING`]).
pub const DRAIN_DRAINING: u8 = 1;
/// Every wait ends: a write that finds the ring full fails fast (one that
/// finds room succeeds, on every write path), and a pop on an empty ring
/// reports end-of-stream.
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
    /// Hard ceiling — the paper's "buffer cap" engineering solution for
    /// queues that would otherwise grow without bound. Requests that come
    /// from a real need (a read window, a `reserve`, a batch larger than
    /// the ring) grow up to it; the monitor's writer-blocked doubling, a
    /// guess, stops earlier, at about 1 MiB of slots (never below
    /// `min_capacity`).
    pub max_capacity: usize,
    /// Shrink floor.
    pub min_capacity: usize,
    /// When set, the link takes part in the exactly-once recovery contract
    /// (this is its one statement for in-process links). One `run()` is a
    /// transaction, on every read and write path:
    ///
    /// * every element read stays in its ring slot, **held** by the
    ///   consumer's cursor — within a process the ring survives a kernel
    ///   panic, so it is the consumer's journal and no copy is kept;
    /// * every element written is **staged** on the producer, unpublished;
    /// * if the run returns, the scheduler **commits**: the held slots are
    ///   released and the staged writes published, in order;
    /// * if the run panics under a restart/replace policy, the scheduler
    ///   **rewinds**: the staged writes are discarded and the read head
    ///   moves back onto the held slots, so the restarted kernel reads the
    ///   exact same elements, in order.
    ///
    /// For a deterministic kernel this is exactly-once *observable*
    /// processing: downstream sees each input's effect once, byte-identical
    /// to a fault-free run. Held slots stay held until committed, so a
    /// second panic replays again. A transaction that would hold more than
    /// the ring's ceiling lets its oldest reads go early, counted in
    /// `forced_acks` — the loss is visible, never silent. Requires
    /// `T: Clone` at the wiring layer; `false` keeps the historical
    /// lossy-restart behavior.
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

/// Which endpoint of a link an operation concerns; `role as usize`
/// indexes per-role pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The producing endpoint.
    Producer,
    /// The consuming endpoint.
    Consumer,
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
/// return the same two counters on every call. Each role reaches one ring
/// at a time: `capacity(role)` is a power of two, and `slot(role, idx)` a
/// pointer valid for reads and writes of one `Slot`, the same memory for
/// equal `idx & (capacity(role) - 1)` and disjoint memory otherwise. Both
/// stay so until that role's own [`seal`](Self::seal) (producer) or
/// [`follow`](Self::follow) (consumer) changes them, and whatever is in the
/// live region `[head, tail)` keeps its index across the change.
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
    /// Slots in the ring `role` reaches.
    fn capacity(&self, role: Role) -> usize;
    /// The slot for monotonic index `idx` in the ring `role` reaches.
    ///
    /// # Safety
    /// The caller is `role`'s one endpoint; whether the slot may be read or
    /// written is the cursor protocol's business.
    unsafe fn slot(&self, role: Role, idx: usize) -> *mut MaybeUninit<Self::Slot>;
    /// Where the producer's ring differs from `target` slots, start a new
    /// ring of `max(target, tail - head)` slots and hand the old one to the
    /// consumer (nothing to do where the capacity is fixed).
    ///
    /// # Safety
    /// The caller is the one producer, at a publish boundary: every slot
    /// below `tail` is published and none above is written; `head` is a
    /// committed head it loaded (Acquire).
    #[inline]
    unsafe fn seal(&self, _target: usize, _tail: usize, _head: usize) {}
    /// Move onto every ring the producer sealed the consumer's into, taking
    /// the consumer's live region along; called right after the consumer
    /// loaded `tail` (Acquire).
    ///
    /// # Safety
    /// The caller is the one consumer, holding no reference into a slot.
    #[inline]
    unsafe fn follow(&self) {}
}

/// One heap slot: a possibly-uninitialized `(element, signal)` pair.
type HeapSlot<T> = UnsafeCell<MaybeUninit<(T, Signal)>>;

/// One fixed ring of the heap home, and the ring its producer sealed it
/// into. Aligned to its own cache lines: the consumer loads `next` at every
/// tail refresh, so no hot word may share them.
#[repr(align(128))]
struct Ring<T> {
    slots: Box<[HeapSlot<T>]>,
    /// The tail at the seal that started this ring: the first index the
    /// producer wrote here (0 for a link's first ring).
    sealed_at: usize,
    /// The ring the producer moved on to; null while it writes here. Stored
    /// once, Release, after the producer's last write to this ring.
    next: AtomicPtr<Ring<T>>,
}

impl<T> Ring<T> {
    /// A ring of `capacity` slots (a power of two), leaked to its owner.
    fn alloc(capacity: usize, sealed_at: usize) -> *mut Ring<T> {
        Box::into_raw(Box::new(Ring {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            sealed_at,
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// One endpoint's ring as it reaches its slots: the ring, its first slot
/// and its index mask, cached so `slot()` is one add+mask.
struct View<T> {
    ring: *mut Ring<T>,
    base: *const HeapSlot<T>,
    mask: usize,
}

impl<T> View<T> {
    fn of(ring: *mut Ring<T>) -> Self {
        // SAFETY: a live ring; shared, since the producer may be writing
        // its slots (through their cells) already.
        let slots = unsafe { &(*ring).slots };
        View {
            ring,
            base: slots.as_ptr(),
            mask: slots.len() - 1,
        }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Raw pointer to the slot for monotonic index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: the masked index is < capacity, and `base` points at the
        // ring's boxed array of `capacity` slots. Only the UnsafeCell raw
        // pointer escapes; dereferencing it is the caller's
        // (protocol-ordered) obligation.
        unsafe { (*self.base.add(idx & self.mask)).get() }
    }
}

/// The heap [`Home`]: in-process control words and a chain of fixed rings.
/// The producer writes the newest ring and the consumer reads the oldest;
/// they are the same ring except between a seal and the consumer's follow.
pub struct Heap<T> {
    /// The producer's ring and the consumer's, by [`Role`]; each read and
    /// replaced only by its endpoint. Read at every slot access, so padded
    /// away from the wake words both sides write.
    views: CachePadded<[UnsafeCell<View<T>>; 2]>,
    /// Next index to read (monotonic). Own cache line: the producer loads
    /// it only when its cached copy says the ring is full.
    head: CachePadded<AtomicUsize>,
    /// Next index to write (monotonic), cache line apart from `head`.
    tail: CachePadded<AtomicUsize>,
    /// Each [`Role`]'s endpoint is gone.
    closed: [AtomicBool; 2],
    /// Where a thread blocked as each [`Role`] parks: a producer waiting
    /// for space (pop, batch drain, consumer drop, grow), a consumer for
    /// data, EoS or an async signal.
    parks: [ThreadPark; 2],
    /// Readiness hook for a consumer's scheduler task, told with its park;
    /// registered/armed by the work-stealing scheduler, a single relaxed
    /// load when unused. The pool parks a task only on its inputs, so the
    /// space side has no such hook.
    task: WakerSlot,
}

// SAFETY: each ring is reached through one endpoint's view at a time: the
// producer's until it seals it (its Release store of `next` orders every
// write before the handoff), then the consumer's, whose Acquire load of
// `next` precedes its move. Slots in between are touched only through the
// head/tail protocol. Elements only ever move between threads, so the
// home may be sent and shared whenever they may be sent.
unsafe impl<T: Send> Send for Heap<T> {}
// SAFETY: see `Send`.
unsafe impl<T: Send> Sync for Heap<T> {}

impl<T> Heap<T> {
    fn new(cfg: &FifoConfig) -> Self {
        let ring = Ring::alloc(cfg.initial_capacity, 0);
        Heap {
            views: CachePadded::new([
                UnsafeCell::new(View::of(ring)),
                UnsafeCell::new(View::of(ring)),
            ]),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            closed: Default::default(),
            parks: Default::default(),
            task: WakerSlot::new(),
        }
    }
}

// SAFETY: `head`/`tail` are fields. A view changes only in its own
// endpoint's `seal`/`follow`; `View::slot` masks the index into the view's
// ring, one cell per slot. A seal leaves every live index in the old ring,
// which the consumer reads until its follow moves `[head, sealed_at)` to
// the same indices of the new ring — disjoint from the producer's writes
// there, `[sealed_at, head + capacity)`, because the new ring holds
// `sealed_at - head` (see `seal`).
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
        self.closed[Role::Producer as usize].load(Acquire)
    }
    #[inline]
    fn consumer_closed(&self) -> bool {
        self.closed[Role::Consumer as usize].load(Relaxed)
    }
    fn set_closed(&self, role: Role) {
        self.closed[role as usize].store(true, Release);
    }
    #[inline]
    fn event(&self, role: Role) -> EventCount<&ThreadPark> {
        EventCount::over(&self.parks[role as usize])
    }
    #[inline]
    fn task(&self, role: Role) -> Option<&WakerSlot> {
        match role {
            Role::Consumer => Some(&self.task),
            Role::Producer => None,
        }
    }
    #[inline]
    fn capacity(&self, role: Role) -> usize {
        // SAFETY: only `role`'s endpoint replaces its view, and it is the
        // caller.
        unsafe { &*self.views[role as usize].get() }.capacity()
    }
    #[inline]
    unsafe fn slot(&self, role: Role, idx: usize) -> *mut MaybeUninit<(T, Signal)> {
        // SAFETY: the caller is `role`'s endpoint, the view's only writer.
        unsafe { &*self.views[role as usize].get() }.slot(idx)
    }

    /// Seal the producer's ring into one of `max(target, tail - head)`
    /// slots. Both bounds hold for the consumer's follow: the new ring has
    /// room for the whole live region `[head, tail)` at the same indices,
    /// and `claim` keeps every later write within `head + capacity` of the
    /// committed head, so the producer's writes and the consumer's move
    /// never share a slot. Out of line: inlined into `claim`, it bloats
    /// every write's fast path.
    #[cold]
    unsafe fn seal(&self, target: usize, tail: usize, head: usize) {
        // SAFETY: the caller is the producer, the view's only writer.
        let view = unsafe { &mut *self.views[Role::Producer as usize].get() };
        let capacity = target.max(tail - head).next_power_of_two();
        if target == view.capacity() || capacity == view.capacity() {
            return;
        }
        // Chaos hook: a stall (or panic) as the producer hands off.
        crate::failpoint!("buffer::fifo::resize");
        let ring = Ring::alloc(capacity, tail);
        // Last, Release: the consumer that acquires it sees `sealed_at` and
        // every slot written before the seal. The producer never touches
        // the old ring again.
        // SAFETY: the producer's ring is live until the consumer frees it,
        // which it does only after loading this pointer.
        unsafe { &*view.ring }.next.store(ring, Release);
        *view = View::of(ring);
    }

    #[inline]
    unsafe fn follow(&self) {
        // SAFETY: the caller is the consumer, the view's only writer.
        let view = unsafe { &*self.views[Role::Consumer as usize].get() };
        // SAFETY: the consumer's ring is live until it follows past it.
        if !unsafe { &*view.ring }.next.load(Acquire).is_null() {
            // SAFETY: the caller's contract.
            unsafe { self.move_on() };
        }
    }
}

impl<T> Heap<T> {
    /// The consumer's follow, once its ring is sealed: out of line, since
    /// every tail refresh checks for it.
    ///
    /// # Safety
    /// As [`Home::follow`].
    #[cold]
    unsafe fn move_on(&self) {
        // SAFETY: the caller is the consumer, the view's only writer.
        let view = unsafe { &mut *self.views[Role::Consumer as usize].get() };
        loop {
            // SAFETY: the consumer's ring is live until it frees it below.
            let next = unsafe { &*view.ring }.next.load(Acquire);
            if next.is_null() {
                return;
            }
            let new = View::of(next);
            // SAFETY: `sealed_at` was written before the Release store the
            // load above acquired, and never again.
            let sealed_at = unsafe { (*next).sealed_at };
            // Held and unread slots alike: everything not yet released.
            for i in self.head.load(Relaxed)..sealed_at {
                // SAFETY: `[head, sealed_at)` is initialized in the old ring
                // (published before the seal) and free in the new one (see
                // `seal`); the bit-copy is a move, since the old slots are
                // freed as `MaybeUninit` without a drop.
                unsafe { std::ptr::copy_nonoverlapping(view.slot(i), new.slot(i), 1) };
            }
            // SAFETY: sealed, so the producer is done with it, and no view
            // of it is left.
            drop(unsafe { Box::from_raw(view.ring) });
            *view = new;
        }
    }
}

impl<T> Drop for Heap<T> {
    fn drop(&mut self) {
        // Last owner of the FIFO: drop whatever elements remain exactly
        // once, walking from the consumer's ring along every seal it did
        // not follow. Rings never drop their `MaybeUninit` contents.
        let (mut from, tail) = (self.head.load(Relaxed), self.tail.load(Relaxed));
        // SAFETY: exclusive access.
        let mut ring = unsafe { (*self.views[Role::Consumer as usize].get()).ring };
        while !ring.is_null() {
            // SAFETY: exclusive access; each ring of the chain is live,
            // visited once and then freed.
            let owned = unsafe { Box::from_raw(ring) };
            ring = owned.next.load(Relaxed);
            // SAFETY: a non-null `next` is the live ring after this one.
            let to = unsafe { ring.as_ref() }.map_or(tail, |next| next.sealed_at);
            let mask = owned.slots.len() - 1;
            for i in from..to {
                // SAFETY: `[from, to)` is the part of the live region this
                // ring holds, each slot initialized and dropped once.
                unsafe { (*owned.slots[i & mask].get()).assume_init_drop() };
            }
            from = to;
        }
    }
}

/// Link state shared by producer, consumer, and monitor: the [`Home`] plus
/// what is local to this process whichever home it is.
struct Shared<T, H: Home<T>> {
    home: H,
    /// The posted capacity: what the link reports, and what the producer's
    /// next seal makes its ring ([`Fifo::resize`]).
    target: AtomicUsize,
    /// Out-of-band signal channel ("asynchronous signaling", §4.2).
    async_signal: AtomicU64,
    /// Cooperative drain level ([`DRAIN_RUNNING`] / [`DRAIN_DRAINING`] /
    /// [`DRAIN_QUIESCED`]); raised monotonically by the monitor or a stop
    /// handle, never lowered.
    drain: AtomicU8,
    /// One-off changes (EoS, async signal, drain level) made visible to
    /// the consumer whose notify has not returned yet (see
    /// [`Shared::announcing`]).
    announcing: std::sync::atomic::AtomicUsize,
    stats: FifoStats,
    cfg: FifoConfig,
    /// Protocol shadow checker (SPSC discipline, monotonic sequences);
    /// driven from `enter` and the arena's drop.
    #[cfg(feature = "raft_protocol_check")]
    shadow: crate::protocol::FifoShadow,
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
    /// The consumer's tail refresh, and then the one extra Acquire load of
    /// its ring's `next`: a seal precedes every `tail` store past it.
    #[inline]
    fn refresh_tail(&self) -> usize {
        let tail = self.home.tail().load(Acquire);
        // SAFETY: only a consumer cursor refreshes its tail cache, and a
        // link has one (its `attach` contract); between its operations it
        // holds no slot reference.
        unsafe { self.home.follow() };
        tail
    }
}

/// One endpoint's hold on its ring — the ring's [`Backing`] for `role`,
/// and the chokepoint where the shadow checker sees the endpoint take its
/// ring and let it go.
struct Arena<'a, T, H: Home<T>> {
    shared: &'a Shared<T, H>,
    role: Role,
}

/// What a producer's poll finds: its arena and the slots free from its
/// tail.
type Room<'a, T, H> = (Arena<'a, T, H>, usize);

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

// SAFETY: an arena is taken by `role`'s one endpoint, and `Home` keeps that
// role's ring constant and its slots valid and per-index-disjoint until
// the endpoint's own seal — the one `claim` makes, at a publish boundary.
unsafe impl<T, H: Home<T>> Backing for Arena<'_, T, H> {
    type Item = H::Slot;
    #[inline]
    fn capacity(&self) -> usize {
        self.shared.home.capacity(self.role)
    }
    #[inline]
    fn slot<R>(&self, idx: usize, f: impl FnOnce(*mut MaybeUninit<H::Slot>) -> R) -> R {
        // SAFETY: the arena's role is the caller's.
        f(unsafe { self.shared.home.slot(self.role, idx) })
    }
    #[inline]
    fn seal(&self, tail: usize, head: usize) -> usize {
        debug_assert_eq!(self.role, Role::Producer);
        let target = self.shared.target.load(Relaxed);
        // SAFETY: only `claim` seals, on the one producer's cursor at a
        // publish boundary, right after its Acquire load of `head`.
        unsafe { self.shared.home.seal(target, tail, head) };
        self.capacity()
    }
}

#[cfg(feature = "raft_protocol_check")]
impl<T, H: Home<T>> Drop for Arena<'_, T, H> {
    fn drop(&mut self) {
        let published = match self.role {
            Role::Producer => self.tail().load(Relaxed),
            Role::Consumer => self.head().load(Relaxed),
        };
        self.shared.shadow.exit(self.role, published);
    }
}

impl<T, H: Home<T>> Shared<T, H> {
    fn new(home: H, cfg: FifoConfig) -> Arc<Self> {
        Arc::new(Shared {
            home,
            target: AtomicUsize::new(cfg.initial_capacity),
            async_signal: AtomicU64::new(0),
            drain: AtomicU8::new(DRAIN_RUNNING),
            announcing: std::sync::atomic::AtomicUsize::new(0),
            stats: FifoStats::new(),
            cfg,
            #[cfg(feature = "raft_protocol_check")]
            shadow: Default::default(),
            _elem: std::marker::PhantomData,
        })
    }

    /// Take `role`'s ring.
    #[inline]
    fn enter(&self, role: Role) -> Arena<'_, T, H> {
        #[cfg(feature = "raft_protocol_check")]
        self.shadow.enter(role);
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

    /// Run `change`, a one-off change that makes the consumer ready and
    /// then notifies it, counted as under way until it returns: the
    /// change's own Release store orders the count before it, so whoever
    /// acquires the change and then reads 0 knows its notify returned
    /// ([`Monitorable::announced`]).
    fn announcing<R>(&self, change: impl FnOnce() -> R) -> R {
        self.announcing.fetch_add(1, AcqRel);
        let result = change();
        self.announcing.fetch_sub(1, Release);
        result
    }

    /// Mark `role`'s endpoint gone and tell the other side.
    fn close(&self, role: Role) {
        self.announcing(|| {
            self.home.set_closed(role);
            crate::failpoint!("buffer::fifo::close");
            self.notify_fenced(match role {
                Role::Producer => Role::Consumer,
                Role::Consumer => Role::Producer,
            });
        });
    }

    /// Post `target` slots — clamped to the bounds and to the occupancy,
    /// rounded up to a power of two — as the capacity, counting a change,
    /// and tell a parked producer: its next poll seals. Returns the posted
    /// capacity. Out of line: `wait_room`'s poll names it, and inlined
    /// there it bloats every write's fast path.
    #[cold]
    fn resize(&self, target: usize) -> usize {
        let target = target
            .clamp(self.cfg.min_capacity, self.cfg.max_capacity)
            .max(self.occupancy())
            .next_power_of_two();
        if self.target.swap(target, Relaxed) != target {
            self.stats.monitor.resizes.fetch_add(1, Relaxed);
        }
        self.notify_fenced(Role::Producer);
        target
    }

    /// The posted capacity.
    #[inline]
    fn capacity(&self) -> usize {
        self.target.load(Relaxed)
    }

    /// Elements in the ring and not yet acknowledged: unread, or held by a
    /// journaled consumer's open transaction.
    #[inline]
    fn occupancy(&self) -> usize {
        self.home
            .tail()
            .load(Acquire)
            .saturating_sub(self.home.head().load(Acquire))
    }

    #[inline]
    fn quiesced(&self) -> bool {
        self.drain.load(Acquire) >= DRAIN_QUIESCED
    }

    /// Producer closed (or link quiesced) and everything consumed and
    /// acknowledged.
    fn is_finished(&self) -> bool {
        (self.home.producer_closed() || self.quiesced()) && self.occupancy() == 0
    }

    /// Block `role` until `ready` yields — the one place a FIFO endpoint
    /// waits. The first poll is the (inlined) fast path and touches no
    /// clock; only then does [`blocked`](Self::blocked) take over. Always
    /// inlined: `wait_room` runs every write's fast path through here, and
    /// outlined it returns the arena through memory on each push.
    #[inline(always)]
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

    /// The slow half of [`block_until`](Self::block_until): the crate's
    /// blocking loop on the eventcount `role` sleeps on, recording into
    /// `role`'s [`crate::Blocking`] (3δ of writer blocking within six ticks
    /// grows the queue), ended early only by drain level `QUIESCED`.
    #[cold]
    fn blocked<R>(&self, role: Role, ready: impl FnMut() -> Option<R>) -> Result<R, Blocked> {
        let record = match role {
            Role::Producer => &self.stats.writer.blocked,
            Role::Consumer => &self.stats.reader.blocked,
        };
        let event = self.home.event(role);
        eventcount::block_until(&event, record, None, || self.quiesced(), ready)
    }

    /// Publish the `n` slots written since the last publish — the one
    /// publish of every write path: one `tail` store, then tell the
    /// consumer side. `pushed` is
    /// stored only once the notify has returned, so it counts the elements
    /// whose wake-up has been delivered ([`Monitorable::announced`]); a
    /// single-writer counter equal to the tail, so a plain store replaces a
    /// fetch_add.
    #[inline]
    fn publish(&self, arena: &Arena<'_, T, H>, cursor: &mut ProducerCursor, n: usize) {
        if n == 0 {
            return;
        }
        cursor.publish(arena, n);
        // Chaos hook: the producer descheduled between publishing and
        // notifying, a window a rescue sweep must not count as a lost wake.
        crate::failpoint!("buffer::fifo::publish");
        self.notify(Role::Consumer);
        self.stats
            .writer
            .pushed
            .store(cursor.tail() as u64, Relaxed);
    }

    /// Write `items` into the slots `room` found free, in order and no more
    /// than it found, then [`publish`](Self::publish) them. Returns how
    /// many.
    #[inline]
    fn fill(
        &self,
        (arena, free): Room<'_, T, H>,
        cursor: &mut ProducerCursor,
        items: impl IntoIterator<Item = (T, Signal)>,
    ) -> usize {
        let mut n = 0;
        for (value, signal) in items.into_iter().take(free) {
            // SAFETY: `room` claimed `free` slots from the tail, and the
            // `n < free` before this one are the only ones written.
            unsafe { cursor.write(&arena, n, H::Slot::pack(value, signal)) };
            n += 1;
        }
        self.publish(&arena, cursor, n);
        n
    }

    /// The non-blocking poll of every write: errs once the consumer is
    /// gone, `None` while fewer than `min` slots are free, else the
    /// producer's arena and the free count.
    #[inline]
    fn room(
        &self,
        cursor: &mut ProducerCursor,
        min: usize,
    ) -> Result<Option<Room<'_, T, H>>, PushError<()>> {
        if self.home.consumer_closed() {
            return Err(PushError(()));
        }
        let arena = self.enter(Role::Producer);
        let free = cursor.claim(&arena, min);
        Ok((free >= min).then_some((arena, free)))
    }

    /// Block until `min` slots are free for a write of `want ≥ min`
    /// elements — the one wait of every blocking write. A write larger than
    /// the ring requests a larger one first (the write-side twin of
    /// `wait_ready`'s trigger), which the claim that finds too little room
    /// seals into, so a reservation can be met; the caller clamps `want` to
    /// the ceiling. Errs once the
    /// consumer is gone, or when drain level `QUIESCED` ends the wait: a
    /// write that finds room succeeds at any level.
    #[inline]
    fn wait_room(
        &self,
        cursor: &mut ProducerCursor,
        min: usize,
        want: usize,
    ) -> Result<Room<'_, T, H>, PushError<()>> {
        let room = self.block_until(Role::Producer, || {
            // One element always fits, so a single write never loads the
            // capacity here.
            if want > 1 && want > self.capacity() {
                self.resize(want);
            }
            self.room(cursor, min).transpose()
        });
        room.unwrap_or(Err(PushError(())))
    }

    /// Non-blocking pop: the element at the cursor, moved out — or, for a
    /// journaled consumer (`copy`), copied out of the slot it then holds.
    #[inline]
    fn try_pop(
        &self,
        cursor: &mut ConsumerCursor,
        copy: Option<fn(&T) -> T>,
    ) -> Result<(T, Signal), TryPopError> {
        // Emptiness is decided on the counters alone, before taking the
        // ring. Quiesced mid-drain reports end-of-stream so a blocked
        // consumer kernel terminates even though its producer is still
        // alive upstream.
        match cursor.poll(self, || self.home.producer_closed()) {
            Ok(_) => {}
            Err(TryPopError::Empty) if self.quiesced() => return Err(TryPopError::Closed),
            Err(e) => return Err(e),
        }
        let arena = self.enter(Role::Consumer);
        // By value, not through a borrow: a borrow here would put the popped
        // pair through memory on every pop (~3x per pop).
        let pair = Self::take(&arena, cursor, 0, copy);
        self.consume(arena, cursor, 1, copy.is_some(), false);
        Ok(pair)
    }

    /// The element at ready offset `i` from the cursor: moved out of its
    /// slot, or copied with `copy` and left there for the cursor to hold.
    #[inline]
    fn take(
        arena: &Arena<'_, T, H>,
        cursor: &ConsumerCursor,
        i: usize,
        copy: Option<fn(&T) -> T>,
    ) -> (T, Signal) {
        match copy {
            // SAFETY: `i` is ready, and the caller's `consume` releases the
            // slot without reading it again.
            None => unsafe { cursor.read(arena, i) }.unpack(),
            Some(copy) => arena.slot(cursor.head() + i, |p| {
                // SAFETY: ready, so initialized; the caller's `consume`
                // holds the slot, and nothing moves the element out of it.
                let slot = unsafe { (*p).assume_init_ref() };
                (copy(slot.value()), slot.signal())
            }),
        }
    }

    /// End a read of the `k` elements at the cursor — every consuming path
    /// does: hold them until commit (`hold`), or hand their slots back,
    /// dropping them first if they are still there (`in_place`: viewed, or
    /// held until now).
    #[inline]
    fn consume(
        &self,
        arena: Arena<'_, T, H>,
        cursor: &mut ConsumerCursor,
        k: usize,
        hold: bool,
        in_place: bool,
    ) {
        if hold {
            cursor.hold(k);
            // Chaos hook: a crash right after a read is recorded, the
            // element copied out and its slot held — a rewind must replay
            // it.
            crate::failpoint!("buffer::fifo::hold");
            return;
        }
        if in_place && std::mem::needs_drop::<H::Slot>() {
            for i in 0..k {
                // SAFETY: ready, so initialized, and never read out (a view
                // or a copy only borrowed it); dropped once, then released.
                arena.slot(cursor.head() + i, |p| unsafe { (*p).assume_init_drop() });
            }
        }
        cursor.release(&arena, k);
        // Single-writer counter: total popped == head.
        self.stats
            .reader
            .popped
            .store(cursor.head() as u64, Relaxed);
        self.notify(Role::Producer);
    }

    /// Drop the elements the cursor holds in place and release their slots:
    /// one `head` store and one producer notify. Returns how many.
    fn release_held(&self, cursor: &mut ConsumerCursor) -> usize {
        // Chaos hook: a commit delayed before it lets go of anything.
        crate::failpoint!("buffer::fifo::commit");
        let held = cursor.unhold(self);
        if held > 0 {
            self.consume(self.enter(Role::Consumer), cursor, held, false, true);
        }
        held
    }

    /// Block until `min` elements are ready at the cursor — the one wait of
    /// every blocking read. The ring must hold them behind whatever the
    /// cursor holds: if it cannot, it requests a larger ring (the paper's
    /// read-side trigger), which the producer seals into; at its ceiling the held elements are released
    /// early and counted in `forced_acks` (they can no longer be replayed);
    /// a request no ring can hold fails. Every poll reloads `tail`, so a
    /// batch read sees all that is there, not what a stale cache shows.
    /// Returns the count ready; errs once a closed (or quiesced) stream
    /// leaves it below `min` for good.
    fn wait_ready(&self, cursor: &mut ConsumerCursor, min: usize) -> Result<usize, PopError> {
        let ready = self.block_until(Role::Consumer, || {
            let need = min + cursor.held(self);
            let capacity = self.capacity();
            // At the ceiling already: a resize would end where it started.
            if need > capacity && (capacity >= self.cfg.max_capacity || self.resize(need) < need) {
                if min > self.capacity() {
                    return Some(None);
                }
                let forced = self.release_held(cursor) as u64;
                self.stats.reader.forced_acks.fetch_add(forced, Relaxed);
            }
            match cursor.refresh(self) {
                ready if ready >= min => Some(Some(ready)),
                // Closed: one more look, the producer may have pushed
                // between our tail load and its close.
                _ if self.home.producer_closed() => {
                    Some(Some(cursor.refresh(self)).filter(|&ready| ready >= min))
                }
                _ => None,
            }
        });
        ready.ok().flatten().ok_or(PopError)
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
        let cfg = FifoConfig::fixed(home.capacity(Role::Producer));
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
            staged: None,
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
            copy: None,
        }
    }

    /// Current capacity (elements): the posted target of the last
    /// [`resize`](Self::resize), which the rings follow.
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

    /// The allocator backing this link: the home its endpoints were built
    /// over.
    pub fn link_alloc(&self) -> LinkAlloc {
        H::ALLOC
    }

    /// `true` once the producer closed (or the link quiesced) and all data
    /// has been consumed and acknowledged.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }

    /// Request a ring of `new_capacity` slots: clamped to the config bounds
    /// and to the current occupancy, rounded up to a power of two, and
    /// posted as what [`capacity`](Self::capacity) reports. No slot is
    /// touched here: the producer seals its ring into one of that size at
    /// its next head refresh, and the consumer follows (a segment's ring
    /// keeps its size — its bounds are equal). Returns the posted capacity.
    pub fn resize(&self, new_capacity: usize) -> usize {
        self.shared.resize(new_capacity)
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
    /// Resize toward `target` slots (see [`Fifo::resize`]); returns the
    /// resulting capacity.
    fn resize(&self, target: usize) -> usize;
    /// The `(min, max)` capacity bounds, powers of two.
    fn bounds(&self) -> (usize, usize);
    /// Bytes per ring slot (an element with its signal): what one more
    /// slot of capacity costs.
    fn slot_bytes(&self) -> usize;
    /// Monitor tick: record an occupancy sample into the histogram and
    /// return it.
    fn sample(&self) -> usize;
    /// Statistics snapshot.
    fn snapshot(&self) -> StatsSnapshot;
    /// Producer closed (or link quiesced) and drained, every element
    /// acknowledged.
    fn is_finished(&self) -> bool;
    /// Post an asynchronous (out-of-band) signal, immediately visible to
    /// the consumer regardless of queued data (process-local, like the
    /// drain level).
    fn post_async(&self, signal: Signal);
    /// `true` while an asynchronous signal is posted and unconsumed. Part
    /// of the readiness predicate: an async signal is actionable input for
    /// a consumer kernel even when no data is queued.
    fn has_async(&self) -> bool;
    /// `true` when the consumer has input to act on whose notify has
    /// returned: an element counted in `pushed` (stored only after the
    /// publish's notify) and not yet acknowledged (`popped`; a rewound
    /// element is not), or an async signal, end of stream or drain level
    /// with no one-off notify under way. A consumer task found idle with
    /// only unannounced input is about to be woken, not forgotten: its
    /// producer was descheduled between publishing and notifying.
    fn announced(&self) -> bool;
    /// Waker slot notified when data/EoS becomes visible to the consumer.
    fn consumer_waker(&self) -> &WakerSlot;
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
    fn resize(&self, target: usize) -> usize {
        Fifo::resize(self, target)
    }
    fn bounds(&self) -> (usize, usize) {
        (self.shared.cfg.min_capacity, self.shared.cfg.max_capacity)
    }
    fn slot_bytes(&self) -> usize {
        std::mem::size_of::<<Heap<T> as Home<T>>::Slot>()
    }
    fn sample(&self) -> usize {
        let (occupancy, stats) = (self.occupancy(), &self.shared.stats);
        stats.monitor.occupancy.record(occupancy as u64, 1);
        occupancy
    }
    fn snapshot(&self) -> StatsSnapshot {
        Fifo::snapshot(self)
    }
    fn is_finished(&self) -> bool {
        Fifo::is_finished(self)
    }
    fn post_async(&self, signal: Signal) {
        self.shared.announcing(|| {
            self.shared.async_signal.store(signal.encode(), Release);
            self.shared.notify_fenced(Role::Consumer);
        });
    }
    fn has_async(&self) -> bool {
        self.shared.async_signal.load(Acquire) != 0
    }
    fn announced(&self) -> bool {
        let shared = &self.shared;
        let (writer, reader) = (&shared.stats.writer, &shared.stats.reader);
        writer.pushed.load(Relaxed) > reader.popped.load(Relaxed)
            // The change first, then the count: see `Shared::announcing`.
            || ((self.has_async() || self.is_finished())
                && shared.announcing.load(Acquire) == 0)
    }
    fn consumer_waker(&self) -> &WakerSlot {
        &self.shared.home.task
    }
    fn set_drain_level(&self, level: u8) {
        crate::failpoint!("buffer::fifo::drain");
        self.shared.announcing(|| {
            let prev = self.shared.drain.fetch_max(level, AcqRel);
            if prev < level {
                // Both endpoints may be parked on conditions that will now
                // never arrive; the new level must be actionable immediately.
                self.shared.notify_fenced(Role::Consumer);
                self.shared.notify_fenced(Role::Producer);
            }
        });
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
    /// When `Some`, writes are staged here instead of published to the ring
    /// until [`commit_produced`](Self::commit_produced) — the output half of
    /// the exactly-once recovery contract ([`FifoConfig::journal`]).
    staged: Option<Vec<(T, Signal)>>,
}

impl<T, H: Home<T>> Producer<T, H> {
    /// Non-blocking push of `(value, signal)`. With staging enabled the
    /// element is staged (never `Full`) and reaches the ring at the next
    /// [`commit_produced`](Self::commit_produced).
    pub fn try_push_signal(&mut self, value: T, signal: Signal) -> Result<(), TryPushError<T>> {
        if let Some(staged) = &mut self.staged {
            if self.shared.home.consumer_closed() {
                return Err(TryPushError::Closed(value));
            }
            staged.push((value, signal));
            return Ok(());
        }
        match self.shared.room(&mut self.cursor, 1) {
            Ok(Some(room)) => {
                self.shared.fill(room, &mut self.cursor, [(value, signal)]);
                Ok(())
            }
            Ok(None) => Err(TryPushError::Full(value)),
            Err(_) => Err(TryPushError::Closed(value)),
        }
    }

    /// Non-blocking push.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), TryPushError<T>> {
        self.try_push_signal(value, Signal::None)
    }

    /// Blocking push of `(value, signal)`; errs only if the consumer is gone
    /// (or the link quiesced while the ring was full). With staging enabled
    /// the element is buffered instead — see
    /// [`try_push_signal`](Self::try_push_signal).
    ///
    /// While blocked, the producer's open episode is visible to the monitor
    /// ([`FifoStats::writer_blocked_total_ns`]) — after 3δ of blocking the
    /// monitor grows this queue (the paper's write-side resize trigger).
    pub fn push_signal(&mut self, value: T, signal: Signal) -> Result<(), PushError<T>> {
        if self.staged.is_some() {
            // Staging never waits: only a gone consumer fails it.
            return self
                .try_push_signal(value, signal)
                .map_err(|e| PushError(e.into_inner()));
        }
        match self.shared.wait_room(&mut self.cursor, 1, 1) {
            Ok(room) => {
                self.shared.fill(room, &mut self.cursor, [(value, signal)]);
                Ok(())
            }
            Err(_) => Err(PushError(value)),
        }
    }

    /// Blocking push; errs only if the consumer is gone.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_signal(value, Signal::None)
    }

    /// Blocking batch push: pushes *all* of `items`, as many as fit with
    /// one publish at a time, waiting for room as needed. A batch
    /// larger than the ring requests a larger one (bounded by
    /// `max_capacity`), as [`reserve`](Self::reserve) does. Errs only if
    /// the consumer is gone (remaining items stay in `items`) or the link
    /// quiesced while the ring was full. With staging enabled the whole
    /// batch is buffered until commit.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        if let Some(staged) = &mut self.staged {
            if self.shared.home.consumer_closed() {
                return Err(PushError(()));
            }
            staged.extend(items.drain(..).map(|v| (v, Signal::None)));
            return Ok(());
        }
        let Producer { shared, cursor, .. } = self;
        while !items.is_empty() {
            let want = items.len().min(shared.cfg.max_capacity);
            let room = shared.wait_room(cursor, 1, want)?;
            let n = room.1.min(items.len());
            shared.fill(room, cursor, items.drain(..n).map(|v| (v, Signal::None)));
        }
        Ok(())
    }

    /// Reserve `n` slots for in-place batch writing; blocks until they are
    /// free (requesting a larger ring if `n` exceeds its capacity, which
    /// this claim seals into, bounded by `max_capacity` — larger requests
    /// are clamped). The
    /// returned [`WriteSlice`] is filled with [`WriteSlice::push`]; when it
    /// drops, what was written is published with a single counter store —
    /// or, on a staging producer, staged behind earlier pushes (published
    /// at [`commit_produced`](Self::commit_produced)).
    ///
    /// Errs only if the consumer is gone, or the link quiesced while the
    /// slots were not free.
    pub fn reserve(&mut self, n: usize) -> Result<WriteSlice<'_, T, H>, PushError<()>> {
        let n = n.clamp(1, self.shared.cfg.max_capacity);
        let (arena, _) = self.shared.wait_room(&mut self.cursor, n, n)?;
        Ok(WriteSlice {
            arena,
            cursor: &mut self.cursor,
            staged: self.staged.as_mut(),
            cap: n,
            written: 0,
        })
    }

    /// In-place write: returns a guard holding a defaulted element; mutate it
    /// through `DerefMut` and it is committed (pushed) when the guard drops —
    /// the paper's `allocate_s` semantics. Blocks while the ring is full.
    ///
    /// The guard is a one-slot [`reserve`](Self::reserve).
    pub fn allocate(&mut self) -> Result<WriteGuard<'_, T, H>, PushError<T>>
    where
        T: Default,
    {
        let mut slot = self.reserve(1).map_err(|_| PushError(T::default()))?;
        slot.push(T::default());
        Ok(WriteGuard(slot))
    }

    /// Stage outputs instead of publishing them: after this call every push
    /// is staged on the producer and only reaches the ring on
    /// [`commit_produced`](Self::commit_produced) — the output half of the
    /// exactly-once recovery contract (see [`FifoConfig::journal`]). What a
    /// [`reserve`](Self::reserve) or [`allocate`](Self::allocate) wrote is
    /// staged when it drops, behind earlier pushes. Elements still staged
    /// when the producer closes are discarded.
    pub fn enable_staging(&mut self) {
        self.staged.get_or_insert_with(Vec::new);
    }

    /// `true` once staging is enabled: pushes are staged until commit.
    pub fn journaled(&self) -> bool {
        self.staged.is_some()
    }

    /// Elements currently staged and not yet published.
    pub fn staged_len(&self) -> usize {
        self.staged.as_ref().map_or(0, Vec::len)
    }

    /// Publish every staged element to the ring in order, blocking for room
    /// as needed — one batch (a single tail store and consumer notify) per
    /// stretch of room; the ring does not grow for a commit.
    /// Returns the number published; errs if the consumer is gone, in which
    /// case the remaining staged elements are discarded.
    pub fn commit_produced(&mut self) -> Result<usize, PushError<()>> {
        let Producer {
            shared,
            cursor,
            staged: Some(staged),
        } = self
        else {
            return Ok(0);
        };
        // Whatever is left in the drain when it drops is discarded.
        let mut items = staged.drain(..);
        let mut published = 0;
        while items.len() > 0 {
            let room = shared.wait_room(cursor, 1, 1)?;
            published += shared.fill(room, cursor, items.by_ref());
        }
        Ok(published)
    }

    /// Discard every staged element — the rewind half of a failed
    /// transaction. Returns how many were discarded.
    pub fn rewind_produced(&mut self) -> usize {
        self.staged.as_mut().map_or(0, |staged| {
            let discarded = staged.len();
            staged.clear();
            discarded
        })
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
        self.shared.capacity()
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.shared.occupancy()
    }

    /// Parks of this endpoint that ended by timeout and then found room:
    /// wakes that were owed and never came. Stays 0 unless the lossy
    /// per-element notify lost a race (or a wake syscall stalled).
    pub fn rescues(&self) -> u64 {
        self.shared.stats.writer.blocked.rescues.load(Relaxed)
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

/// The segment behind a segment-home producer, for the supervision layer
/// that recovers its consuming process (see [`crate::arena::DescriptorSender`]).
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

    /// Move the shared `head` back to `to` — the rewind of a supervised
    /// ring whose consumer died — and return the elements of `[to, tail)`
    /// in order: they are still in their slots, and a respawned consumer
    /// reads them again from `to`. `head` moves backward here and nowhere
    /// else, so the head cache is re-read with it: it must never run ahead
    /// of the true head, or a later claim would reach a slot of
    /// `[to, old head)`.
    ///
    /// Caller contract: the consumer is dead and its role revoked (its
    /// cursor died with it), and `to ≤ tail` lies at or after the oldest
    /// slot not yet overwritten, `tail − capacity`.
    pub(crate) fn rewind_head(&mut self, to: usize) -> Vec<T> {
        let home = &self.shared.home;
        home.head().store(to as u64, Release);
        // SAFETY: replaces this producer's own cursor: still the one cursor.
        self.cursor = unsafe { ProducerCursor::attach(&*self.shared) };
        (to..self.cursor.tail())
            .map(|i| {
                // SAFETY: the producer's own ring; slots in `[to, tail)`
                // hold what this producer published there (the contract),
                // and a slot's bits are a value whatever they are.
                let slot = unsafe { (*home.slot(Role::Producer, i)).assume_init_read() };
                slot.unpack().0
            })
            .collect()
    }
}

impl<T, H: Home<T>> Drop for Producer<T, H> {
    fn drop(&mut self) {
        // Implicit EoS: a parked consumer must observe the close.
        self.shared.close(Role::Producer);
    }
}

/// In-place batch write window returned by [`Producer::reserve`]. Fill it
/// front-to-back with [`push`](WriteSlice::push); when the slice drops,
/// what was written is published through the producer's one publish (one
/// counter store) — or, on a staging producer, staged like a push.
pub struct WriteSlice<'a, T, H: Home<T> = Heap<T>> {
    /// The producer's ring, taken by `reserve`: it stays put until the
    /// next claim, after this slice.
    arena: Arena<'a, T, H>,
    cursor: &'a mut ProducerCursor,
    /// The producer's staged writes, if it stages.
    staged: Option<&'a mut Vec<(T, Signal)>>,
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
        if let Some(staged) = self.staged.as_deref_mut() {
            // Staging: the written slots were scratch; move what they hold
            // behind the staged writes, unpublished.
            for i in 0..self.written {
                let slot = self.arena.slot(self.cursor.tail() + i, |p| {
                    // SAFETY: written by `push_signal`, never published, and
                    // moved out once here.
                    unsafe { (*p).assume_init_read() }
                });
                staged.push(slot.unpack());
            }
        } else {
            self.arena
                .shared
                .publish(&self.arena, self.cursor, self.written);
        }
    }
}

/// RAII guard returned by [`Producer::allocate`]: a one-slot [`WriteSlice`]
/// already holding a defaulted element. Commits the element on drop (or
/// discards it via [`WriteGuard::abort`]).
///
/// References handed out by `Deref` stay valid: the producer's ring stays
/// put until its next claim, after the guard.
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
        // the slice publishes, in a ring that stays put under the slice;
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
        // SAFETY: initialized, unpublished slot of a ring that stays put.
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
    /// Set by [`enable_journal`](Self::enable_journal): how a pop copies an
    /// element out of the slot the cursor then holds until commit. `None`
    /// moves it out and releases the slot at once.
    copy: Option<fn(&T) -> T>,
}

impl<T, H: Home<T>> Consumer<T, H> {
    /// Non-blocking pop of `(value, signal)`. On a journaled link the
    /// element stays in its slot until commit, and a rewind serves it again.
    pub fn try_pop_signal(&mut self) -> Result<(T, Signal), TryPopError> {
        self.shared.try_pop(&mut self.cursor, self.copy)
    }

    /// Non-blocking pop.
    #[inline]
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        self.try_pop_signal().map(|(v, _)| v)
    }

    /// Blocking pop of `(value, signal)`; errs when the stream closed and
    /// drained.
    pub fn pop_signal(&mut self) -> Result<(T, Signal), PopError> {
        // One poll before the shared wait: most pops find data, and the
        // wait's capacity and held-slot checks stay off their path.
        match self.try_pop_signal() {
            Err(TryPopError::Empty) => {}
            popped => return popped.map_err(|_| PopError),
        }
        self.shared.wait_ready(&mut self.cursor, 1)?;
        self.try_pop_signal().map_err(|_| PopError)
    }

    /// Blocking pop.
    #[inline]
    pub fn pop(&mut self) -> Result<T, PopError> {
        self.pop_signal().map(|(v, _)| v)
    }

    /// Blocking sliding-window view of the next `n` elements without
    /// consuming them — the paper's `peek_range`. If `n` exceeds the current
    /// capacity the request is recorded and a larger ring requested
    /// (read-side resize trigger), rather than deadlocking.
    ///
    /// Returns `Err(PopError)` if the stream closes (or quiesces) before `n`
    /// elements are available (fewer than `n` remain, forever).
    pub fn peek_range(&mut self, n: usize) -> Result<PeekRange<'_, T, H>, PopError> {
        let shared = &*self.shared;
        shared.stats.note_read_request(n);
        shared.wait_ready(&mut self.cursor, n)?;
        Ok(PeekRange {
            // Ready elements only grow from here (we are the consumer), and
            // the consumer cannot follow a seal while the view borrows it.
            view: SliceView {
                shared,
                head: self.cursor.head(),
                len: n,
            },
            _arena: shared.enter(Role::Consumer),
        })
    }

    /// Reference to the front element, if present (non-blocking). The
    /// closure style keeps the borrow scoped.
    pub fn peek<R>(&mut self, f: impl FnOnce(&T, Signal) -> R) -> Option<R> {
        let shared = &*self.shared;
        if self.cursor.ready(shared) == 0 {
            return None;
        }
        let arena = shared.enter(Role::Consumer);
        // SAFETY: single consumer; the slot is ready (observed through an
        // Acquire load of `tail`), so it is initialized and stays so until
        // this consumer releases it.
        let slot = arena.slot(self.cursor.head(), |p| unsafe { &*(*p).as_ptr() });
        Some(f(slot.value(), slot.signal()))
    }

    /// Pop up to `n` elements into `out`; blocks until at least one element
    /// is available or the stream ends. Returns the number popped.
    ///
    /// Takes what is visible once something is — it does not wait for *more*
    /// data — with one release, so a producer waiting
    /// for room is told once per call, not once per element.
    pub fn pop_range(&mut self, n: usize, out: &mut Vec<T>) -> Result<usize, PopError> {
        let shared = &*self.shared;
        shared.stats.note_read_request(n);
        let k = shared.wait_ready(&mut self.cursor, 1)?.min(n.max(1));
        out.reserve(k);
        let arena = shared.enter(Role::Consumer);
        for i in 0..k {
            out.push(Shared::take(&arena, &self.cursor, i, self.copy).0);
        }
        shared.consume(arena, &mut self.cursor, k, self.copy.is_some(), false);
        Ok(k)
    }

    /// Lend the front of the queue to `f` as a zero-copy [`SliceView`] of up
    /// to `n` elements, then consume exactly the elements viewed. Blocks
    /// until at least one element is available; the view may hold fewer than
    /// `n` if the stream is running dry. Errs once the stream is closed (or
    /// quiesced) and drained.
    ///
    /// The whole batch costs one counter store. If `f` panics, nothing is
    /// consumed.
    pub fn pop_slice<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&SliceView<'_, T, H>) -> R,
    ) -> Result<R, PopError> {
        let shared = &*self.shared;
        shared.stats.note_read_request(n);
        let k = shared.wait_ready(&mut self.cursor, 1)?.min(n.max(1));
        // `f` is user code: on unwind nothing is consumed; head stays put.
        let arena = shared.enter(Role::Consumer);
        let r = f(&SliceView {
            shared,
            head: self.cursor.head(),
            len: k,
        });
        shared.consume(arena, &mut self.cursor, k, self.copy.is_some(), true);
        Ok(r)
    }

    /// Advance past `n` elements previously inspected via `peek_range`
    /// with one release. Returns how many were actually available
    /// to advance past.
    pub fn advance(&mut self, n: usize) -> usize {
        let shared = &*self.shared;
        let k = self.cursor.refresh(shared).min(n);
        if k > 0 {
            let arena = shared.enter(Role::Consumer);
            shared.consume(arena, &mut self.cursor, k, self.copy.is_some(), true);
        }
        k
    }

    /// Enable the consumer-side journal — the input half of the
    /// exactly-once recovery contract (see [`FifoConfig::journal`]). Every
    /// read path then holds the slots it reads (a pop serves a copy);
    /// [`commit_consumed`](Self::commit_consumed) releases them,
    /// [`rewind_consumed`](Self::rewind_consumed) serves them again. Call
    /// once at wiring time, before the first pop.
    pub fn enable_journal(&mut self)
    where
        T: Clone,
    {
        self.copy = Some(T::clone);
    }

    /// `true` once the journal is enabled.
    pub fn journaled(&self) -> bool {
        self.copy.is_some()
    }

    /// Elements read since the last commit, still held in their slots (0
    /// unless journaled).
    pub fn held(&self) -> usize {
        self.cursor.held(&*self.shared)
    }

    /// Commit the current transaction: drop every element read since the
    /// last commit and release its slot. Returns how many were released.
    pub fn commit_consumed(&mut self) -> usize {
        self.shared.release_held(&mut self.cursor)
    }

    /// Rewind the current transaction: every element read since the last
    /// commit is served again, in order, by the next reads. Returns how
    /// many. A second panic before the next commit replays them again.
    pub fn rewind_consumed(&mut self) -> usize {
        let rewound = self.cursor.unhold(&*self.shared);
        if rewound > 0 {
            let replayed = &self.shared.stats.reader.replayed;
            replayed.fetch_add(rewound as u64, Relaxed);
            // The restarted kernel's task must observe itself as ready.
            self.shared.notify_fenced(Role::Consumer);
        }
        rewound
    }

    /// Take a pending asynchronous signal, if any.
    pub fn take_async(&mut self) -> Option<Signal> {
        Signal::decode(self.shared.async_signal.swap(0, Acquire))
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Elements this endpoint has yet to read: queued behind its cursor,
    /// rewound ones included, held ones not — `occupancy() > 0` means the
    /// next read finds data. [`Fifo::occupancy`] counts the whole ring.
    pub fn occupancy(&self) -> usize {
        self.shared
            .home
            .tail()
            .load(Acquire)
            .wrapping_sub(self.cursor.head())
    }

    /// Producer closed (or link quiesced) and everything consumed and
    /// acknowledged.
    pub fn is_finished(&self) -> bool {
        self.shared.is_finished()
    }

    /// `true` when the next pop (or [`take_async`](Self::take_async)) has
    /// something to act on: data visible through this endpoint's cursor
    /// (rewound elements included), a posted async signal, or the end of
    /// the stream. The shared `tail` is loaded only when the cursor's cached
    /// view is empty, so a consumer with data in view touches only its own
    /// cache lines.
    #[inline]
    pub fn ready(&mut self) -> bool {
        self.cursor.ready(&*self.shared) > 0
            || self.shared.async_signal.load(Acquire) != 0
            || self.shared.is_finished()
    }

    /// Parks of this endpoint that ended by timeout and then found data
    /// (see [`Producer::rescues`]).
    pub fn rescues(&self) -> u64 {
        self.shared.stats.reader.blocked.rescues.load(Relaxed)
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
/// [`PeekRange`] dereferences to. It borrows the consumer (around the
/// closure / for the window's lifetime), so the consumer's ring stays put
/// under it.
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
        // SAFETY: whoever built the view borrows the consumer for as long as
        // it exists, so the consumer's ring stays put; `[head, head + len)`
        // was ready (observed via Acquire) when the view was taken
        // and the consumer, mutably borrowed by the view's creator, does not
        // release it before the view is gone.
        unsafe { &*(*self.shared.home.slot(Role::Consumer, self.head + i)).as_ptr() }
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
/// [`Consumer::peek_range`]): a [`SliceView`] that holds the consumer's
/// ring until it is dropped.
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
        assert!(f.resize(4 * 2) > 4);
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
        assert!(f.resize(4 * 2) > 4);
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

    /// The producer's ring and the consumer's, by capacity.
    fn rings<T>(f: &Fifo<T>) -> (usize, usize) {
        let home = &f.shared.home;
        (home.capacity(Role::Producer), home.capacity(Role::Consumer))
    }

    #[test]
    fn journal_holds_across_a_seal_then_the_new_ring_fills_whole() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: 64,
            min_capacity: 4,
            ..Default::default()
        });
        c.enable_journal();
        for i in 0..4 {
            p.push(i).unwrap();
        }
        assert_eq!((c.pop().unwrap(), c.pop().unwrap()), (0, 1));
        assert_eq!(f.resize(16), 16);
        assert_eq!(rings(&f), (4, 4), "a request touches no ring");
        // The ring is full (held slots count): the claim refreshes and seals.
        p.push(4).unwrap();
        assert_eq!(rings(&f), (16, 4), "sealed, not yet followed");
        assert_eq!((c.pop().unwrap(), c.pop().unwrap()), (2, 3));
        // The next tail refresh follows, moving the four held slots along.
        assert_eq!(c.pop().unwrap(), 4);
        assert_eq!(rings(&f), (16, 16));
        assert_eq!(c.rewind_consumed(), 5);
        let replay: Vec<u64> = (0..5).map(|_| c.pop().unwrap()).collect();
        assert_eq!(replay, [0, 1, 2, 3, 4], "the moved slots replay in order");
        assert_eq!(c.commit_consumed(), 5);
        for i in 5..21 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.try_push(21), Err(TryPushError::Full(21)));
        assert_eq!(f.occupancy(), 16, "the new ring fills to its capacity");
        assert!((5..21).all(|i| c.pop().unwrap() == i));
    }

    #[test]
    fn peek_range_spans_the_seal() {
        let (f, mut p, mut c) = small();
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(c.pop().unwrap(), 0);
        assert_eq!(f.resize(8), 8);
        for i in 4..7 {
            p.try_push(i).unwrap();
        }
        assert_eq!(rings(&f), (8, 4), "sealed at index 4");
        let window: Vec<u64> = c.peek_range(5).unwrap().iter().copied().collect();
        assert_eq!(window, [1, 2, 3, 4, 5]);
        assert_eq!(rings(&f), (8, 8));
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.pop().unwrap(), 6);
    }

    #[test]
    fn two_seals_before_one_follow_drop_each_element_once() {
        use std::sync::atomic::AtomicUsize;
        /// Counts its own drops.
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Relaxed);
            }
        }
        type Link<'a> = (
            Fifo<Counted<'a>>,
            Producer<Counted<'a>>,
            Consumer<Counted<'a>>,
        );
        /// Index 0 popped; 1 in the first ring, 2..5 in the second (sealed
        /// at 2), 5 in the third (sealed at 5); the consumer still on the
        /// first.
        fn sealed_twice(drops: &[AtomicUsize; 6]) -> Link<'_> {
            let (f, mut p, mut c) = fifo_with(FifoConfig {
                initial_capacity: 2,
                max_capacity: 64,
                min_capacity: 2,
                ..Default::default()
            });
            let mut push = |r: std::ops::Range<usize>| {
                r.for_each(|i| assert!(p.try_push(Counted(&drops[i])).is_ok()));
            };
            push(0..2);
            drop(c.pop().unwrap());
            f.resize(4);
            push(2..5);
            f.resize(16);
            push(5..6);
            assert_eq!(rings(&f), (16, 2), "two seals, no follow");
            (f, p, c)
        }
        let once = |drops: &[AtomicUsize; 6]| drops.iter().all(|d| d.load(Relaxed) == 1);
        let drops = Default::default();
        drop(sealed_twice(&drops));
        assert!(once(&drops), "the drop walks the unfollowed chain");
        let drops = Default::default();
        let (f, p, mut c) = sealed_twice(&drops);
        drop(c.pop().unwrap()); // index 1, still in the first ring
        drop(c.pop().unwrap()); // index 2: one refresh follows both seals
        assert_eq!(rings(&f), (16, 16));
        drop((f, p, c));
        assert!(once(&drops), "every element dropped once");
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
        assert!(f.resize(4 * 2) > 4);
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

    /// `ready` is the pool's per-run gate: false only on an empty, open
    /// ring with nothing to replay and no signal posted.
    #[test]
    fn consumer_ready_covers_data_replay_signal_and_end() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        c.enable_journal();
        assert!(!c.ready(), "empty open ring");
        p.try_push(1).unwrap();
        assert!(c.ready(), "data in the ring");
        assert_eq!(c.pop().unwrap(), 1);
        assert!(!c.ready(), "drained");
        assert_eq!(c.rewind_consumed(), 1);
        assert!(c.ready(), "rewound journal backlog");
        assert_eq!(c.pop().unwrap(), 1);
        c.commit_consumed();
        assert!(!c.ready());
        f.post_async(Signal::Flush);
        assert!(c.ready(), "posted async signal");
        assert_eq!(c.take_async(), Some(Signal::Flush));
        assert!(!c.ready());
        p.close();
        assert!(c.ready(), "closed and drained");
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
        // nothing consumed, and the consumer reads on
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
                        f.resize(f.capacity() * 2);
                    } else {
                        f.resize(f.capacity() / 2);
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
                        f.resize(f.capacity() * 2);
                    } else {
                        f.resize(f.capacity() / 2);
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
        assert_eq!(f.resize(8 * 2), 8);
        assert_eq!(f.resize(8 / 2), 8);
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

    /// A journaled consumer reading through `read`, rewound, reads the same
    /// elements again; commit releases them and the ring drains.
    fn rewind_replays(read: impl Fn(&mut Consumer<u64>) -> Vec<u64>) {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::starting_at(8));
        c.enable_journal();
        for i in 0..6 {
            p.try_push(i).unwrap();
        }
        let first = read(&mut c);
        assert!(!first.is_empty());
        assert_eq!(f.occupancy(), 6, "held slots stay in the ring");
        assert_eq!(c.rewind_consumed(), first.len());
        assert_eq!(read(&mut c), first, "a rewind re-serves the same reads");
        assert_eq!(c.commit_consumed(), first.len());
        assert_eq!(c.rewind_consumed(), 0, "committed reads stay acknowledged");
        assert_eq!(f.occupancy(), 6 - first.len());
        assert_eq!(f.snapshot().popped, first.len() as u64);
    }

    #[test]
    fn journal_rewind_replays_pop_range() {
        rewind_replays(|c| {
            let mut out = Vec::new();
            c.pop_range(4, &mut out).unwrap();
            out
        });
    }

    #[test]
    fn journal_rewind_replays_pop_slice() {
        rewind_replays(|c| c.pop_slice(4, |v| v.iter().copied().collect()).unwrap());
    }

    #[test]
    fn journal_rewind_replays_peek_range_and_advance() {
        rewind_replays(|c| {
            let window: Vec<u64> = c.peek_range(3).unwrap().iter().copied().collect();
            assert_eq!(c.advance(2), 2);
            let next = c.peek(|v, _| *v).unwrap();
            assert_eq!(next, window[2], "the advance moved the read head");
            window[..2].to_vec()
        });
    }

    #[test]
    fn journal_held_elements_drop_exactly_once() {
        let token = Arc::new(());
        let (f, mut p, mut c) = fifo_with::<Arc<()>>(FifoConfig::default());
        c.enable_journal();
        for _ in 0..6 {
            p.push(token.clone()).unwrap();
        }
        drop(c.pop().unwrap());
        c.pop_slice(2, |_| ()).unwrap();
        assert_eq!(Arc::strong_count(&token), 7, "a pop serves a copy");
        c.rewind_consumed();
        drop(c.pop().unwrap());
        assert_eq!(c.commit_consumed(), 1);
        assert_eq!(Arc::strong_count(&token), 6, "commit drops in place");
        assert_eq!(c.advance(2), 2);
        drop((f, p, c));
        assert_eq!(Arc::strong_count(&token), 1, "the drain drops held slots");
    }

    #[test]
    fn journal_staged_reserve_and_allocate_publish_only_at_commit() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::default());
        p.enable_staging();
        p.push(1).unwrap();
        {
            let mut slice = p.reserve(2).unwrap();
            slice.push(2);
            slice.push(3);
        }
        *p.allocate().unwrap() = 4;
        p.allocate().unwrap().abort();
        assert_eq!((f.occupancy(), p.staged_len()), (0, 4), "nothing published");
        assert_eq!(p.rewind_produced(), 4, "a rewind discards the writes");
        *p.allocate().unwrap() = 5;
        p.reserve(1).unwrap().push(6);
        p.push(7).unwrap();
        assert_eq!(p.commit_produced().unwrap(), 3);
        let got: Vec<u64> = (0..3).map(|_| c.pop().unwrap()).collect();
        assert_eq!(got, [5, 6, 7], "staged in write order");
        assert_eq!(c.try_pop(), Err(TryPopError::Empty));
    }

    /// One transaction reads `n` elements from a producer thread; returns
    /// the link after the reads, the consumer and its forced acks.
    fn journal_one_transaction(cfg: FifoConfig, n: u64) -> (Fifo<u64>, Consumer<u64>, u64) {
        let (f, mut p, mut c) = fifo_with::<u64>(cfg);
        c.enable_journal();
        let producer = std::thread::spawn(move || (0..n).for_each(|i| p.push(i).unwrap()));
        for i in 0..n {
            assert_eq!(c.pop().unwrap(), i);
        }
        producer.join().unwrap();
        let forced = f.snapshot().forced_acks;
        (f, c, forced)
    }

    #[test]
    fn journal_ceiling_valve_grows_a_resizable_ring() {
        let (f, mut c, forced) = journal_one_transaction(FifoConfig::starting_at(8), 300);
        assert_eq!(forced, 0, "the ring grew to hold the transaction");
        assert!(f.capacity() >= 300, "capacity {}", f.capacity());
        assert_eq!(c.rewind_consumed(), 300);
        assert!((0..300).all(|i| c.pop().unwrap() == i));
        assert_eq!(c.commit_consumed(), 300);
    }

    #[test]
    fn journal_ceiling_valve_forces_whole_rings_on_a_fixed_ring() {
        // Each time 8 held elements fill the ring and the next read needs a
        // slot, the valve releases all 8: 24 of 32 lose replay coverage.
        let (_f, mut c, forced) = journal_one_transaction(FifoConfig::fixed(8), 32);
        assert_eq!(forced, 24);
        assert_eq!(c.rewind_consumed(), 8, "the last full ring is still held");
        assert!((24..32).all(|i| c.pop().unwrap() == i));
        assert_eq!(c.try_pop(), Err(TryPopError::Closed));
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
    fn staging_commits_in_order_without_growing_and_errs_once_the_consumer_is_gone() {
        // A stage larger than the ring commits in order, one stretch of
        // room at a time. The ring may grow, so the capacity check has
        // teeth: a commit does not grow it.
        let cfg = FifoConfig {
            initial_capacity: 8,
            ..FifoConfig::default()
        };
        let (f, mut p, mut c) = fifo_with::<u64>(cfg);
        p.enable_staging();
        for i in 0..40 {
            p.push(i).unwrap();
        }
        for i in 40..60 {
            p.try_push(i).unwrap();
        }
        p.push_batch(&mut (60..100).collect()).unwrap();
        assert_eq!((p.staged_len(), f.occupancy()), (100, 0));
        let reader = std::thread::spawn(move || -> Vec<u64> {
            (0..100).map(|_| c.pop().unwrap()).collect()
        });
        assert_eq!(p.commit_produced().unwrap(), 100);
        assert_eq!(reader.join().unwrap(), (0..100).collect::<Vec<_>>());
        assert_eq!(f.capacity(), 8, "a commit does not grow the ring");

        // The consumer gone: every staging write errs.
        let (_f, mut p, c) = fifo_with::<u64>(FifoConfig::fixed(8));
        p.enable_staging();
        drop(c);
        assert_eq!(p.push(1), Err(PushError(1)));
        assert_eq!(p.try_push(2), Err(TryPushError::Closed(2)));
        assert_eq!(p.push_batch(&mut vec![3]), Err(PushError(())));

        // A commit that finds it gone, after publishing a ring's worth,
        // discards the rest.
        let (_f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(8));
        p.enable_staging();
        p.push_batch(&mut (0..20).collect()).unwrap();
        let reader = std::thread::spawn(move || c.pop().unwrap());
        assert!(p.commit_produced().is_err());
        assert_eq!(reader.join().unwrap(), 0);
        assert_eq!(p.staged_len(), 0, "the rest is discarded");
    }

    #[test]
    fn ceiling_below_the_default_floor_lowers_the_floor() {
        // `min_capacity` stays at its default 8 above a ceiling of 4: the
        // floor follows the ceiling down, so a resize past the ceiling
        // clamps instead of panicking.
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            max_capacity: 4,
            ..Default::default()
        });
        assert_eq!(f.capacity(), 4);
        for i in 0..3 {
            p.try_push(i).unwrap();
        }
        assert_eq!(f.resize(8), 4);
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
            Wake::armed(&self.parks[role as usize]).load(Acquire) == 1
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

    fn park_rows<H: Probe>() -> [ParkRow; 8] {
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
            ("staged commit_produced", || {
                let (f, mut p, mut c) = full::<H>();
                p.enable_staging();
                p.push(2).unwrap();
                wake_once_parked(
                    &armed(&f, P),
                    || assert_eq!(p.commit_produced().unwrap(), 1),
                    || {
                        c.pop().unwrap();
                    },
                );
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
    fn quiesce_fails_only_the_writes_that_would_wait() {
        // Drain level `QUIESCED` ends waits; a write that finds room does
        // not wait, so it succeeds — on every write path, on either home.
        fn check<H: Probe>(home: &str) {
            type Write<H> = fn(&mut Producer<u64, H>) -> bool;
            let rows: [(&str, Write<H>); 4] = [
                ("push", |p| p.push(2).is_ok()),
                ("push_batch", |p| p.push_batch(&mut vec![2]).is_ok()),
                ("reserve", |p| p.reserve(1).is_ok()),
                ("allocate", |p| p.allocate().is_ok()),
            ];
            for (entry, write) in rows {
                for (full, (f, mut p, _c)) in [(false, H::link()), (true, full::<H>())] {
                    f.shared.drain.fetch_max(DRAIN_QUIESCED, AcqRel);
                    assert_eq!(write(&mut p), !full, "{home} {entry}, full ring: {full}");
                }
            }
        }
        check::<Heap<u64>>("heap");
        check::<Seg<u64>>("segment");
    }

    #[test]
    fn drain_level_is_monotonic() {
        let (f, _p, _c) = fifo_with::<u64>(FifoConfig::default());
        f.set_drain_level(DRAIN_QUIESCED);
        f.set_drain_level(DRAIN_DRAINING); // lowering is ignored
        assert_eq!(f.drain_level(), DRAIN_QUIESCED);
    }
}
