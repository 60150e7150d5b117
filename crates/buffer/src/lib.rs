#![warn(missing_docs)]

//! # raft-buffer
//!
//! Ring-buffer FIFOs backing the streams of `raftlib`, a Rust reproduction of
//! RaftLib (Beard, Li & Chamberlain, PMAM'15).
//!
//! The paper models every stream as a FIFO queue whose only variable is
//! *where its slots live* — heap, shared memory, TCP (§3) — and whose
//! capacity is tuned *dynamically* by a monitor thread ("lock-free
//! exclusion", resize preferred when the ring is in a non-wrapped position,
//! §4). The crate says each protocol once:
//!
//! * [`ring`] — **the one SPSC ring**: producer/consumer cursors with cached
//!   opposite indices (`claim`/`publish`, `ready`/`release`, the closed
//!   double-check), generic over a [`ring::Backing`] that answers only
//!   "where are `head`, `tail` and slot *i*".
//! * [`eventcount`] — **the one "sleep until the peer moves"**: an
//!   `(armed, seq)` eventcount whose Dekker fences are written once. A
//!   thread sleeps one way, `futex(2)` on `seq`, over words owned
//!   ([`ThreadPark`]) or mapped from a segment ([`Futex`]); a scheduler
//!   task is woken by the callback of a [`WakerSlot`] instead. Plus the one
//!   blocking loop ([`eventcount::block_until`]: spin → yield → park,
//!   bounded parks whose *rescues* are counted).
//!
//! The endpoint families are thin wrappers over those two:
//!
//! * [`BoundedSpsc`] — the ring over a fixed heap array. The baseline of
//!   the fixed-vs-resizable ablation bench and the differential reference
//!   for the FIFO.
//! * [`Fifo`] — the production stream and the crate's one pair of
//!   blocking endpoints, generic over a [`fifo::Home`] that says where the
//!   control words and slots live: the heap home ([`fifo::Heap`], a chain
//!   of fixed rings — a resize posts a target, the producer seals its ring
//!   and starts one of that size, and the consumer follows, moving its
//!   live region across; no element operation pays for it) or the segment
//!   home ([`shm::Seg`], a mapped `memfd` segment another process attaches;
//!   [`ShmRing`] holds its constructors). Adds per-element [`Signal`]s
//!   delivered synchronously with data, blocking (a full ring blocks the writer;
//!   only drain level `QUIESCED` ends the wait early), exactly-once
//!   recovery with the ring as the journal ([`FifoConfig::journal`]),
//!   zero-copy batch views ([`Producer::reserve`],
//!   [`Consumer::pop_slice`]) and the telemetry
//!   ([`FifoStats`]) that feeds the monitor.
//! * the [`arena`] free list — the bare ring over a mapped segment.
//!
//! In-process elements travel as `(T, Signal)` pairs so that synchronous
//! signals (end of stream, user signals) arrive at the consumer exactly when
//! the accompanying element does — the paper's "synchronized signaling".
//!
//! ## Concurrency contract
//!
//! Each FIFO has exactly one producer handle and one consumer handle; the
//! type system enforces this (the handles are `Send` but not `Clone`).
//! A third party — the monitor — may call [`Fifo::resize`] and read
//! stats at any time; a resize only posts a target, which the producer
//! acts on.
//!
//! The crate has no registry dependencies: the one lock is `std`'s behind
//! the non-poisoning [`sync::Mutex`], and sleeps are raw `futex(2)` calls.

pub mod arena;
mod error;
pub mod eventcount;
#[cfg(feature = "raft_failpoints")]
pub mod failpoints;
pub mod fifo;
mod futex;
#[cfg(feature = "raft_protocol_check")]
pub mod protocol;
pub mod ring;
pub mod shm;
mod signal;
mod spsc;
mod stats;
pub mod sync;
mod wait;
pub mod waker;

pub use arena::{
    ArenaError, ArenaRx, ArenaTx, Descriptor, DescriptorSender, SendOutcome, ShmArena,
};
pub use error::{PopError, PushError, TryPopError, TryPushError};
pub use eventcount::{EventCount, ThreadPark};
pub use fifo::{
    fifo_with, Consumer, Fifo, FifoConfig, LinkAlloc, PeekRange, Producer, Role, SliceView,
    WriteGuard, WriteSlice, DRAIN_DRAINING, DRAIN_QUIESCED, DRAIN_RUNNING,
};
pub use futex::Futex;
pub use shm::{Heartbeat, ShmRing, ShmSegment};
pub use signal::Signal;
pub use spsc::{BoundedSpsc, SpscConsumer, SpscProducer};
pub use stats::{Blocking, FifoStats, LogHist, StatsSnapshot, HIST_BUCKETS};
pub use wait::{WaitAction, WaitStrategy, Waiter};
pub use waker::{ClaimWakes, FifoWaker, WakerSlot};

/// Consult a failpoint site, executing panic/stall actions in place.
///
/// Expands to nothing unless the crate is built with the
/// `raft_failpoints` feature, so hook sites cost zero in normal builds.
/// I/O sites that need to observe [`failpoints::FailAction::ShortIo`]
/// call [`failpoints::check`] directly instead.
#[cfg(feature = "raft_failpoints")]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoints::hit($site)
    };
}

/// No-op: the `raft_failpoints` feature is off.
#[cfg(not(feature = "raft_failpoints"))]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {};
}
