//! The system under test, as the benchmark sees it.
//!
//! Every library item the benchmark touches is re-exported here and nowhere
//! else, so a later change that renames or moves one has a single line to
//! follow — and so it is visible at a glance that the benchmark depends on
//! no `crossbeam`/`parking_lot`/`bytes`/`rand` type and on only the two
//! scheduler kinds the roadmap keeps.

pub use raft_algos::corpus::{generate as generate_corpus, CorpusSpec};
pub use raft_algos::{Horspool, Match, Matcher};
pub use raft_buffer::arena::{DescriptorSender, ShmArena};
pub use raft_buffer::shm::{ShmRing, ShmRingConsumer};
pub use raft_buffer::{fifo_with, BoundedSpsc, Descriptor, FifoConfig, TryPopError};
pub use raft_kernels::{ByteChunk, ByteChunkSource, DescShip, Fold, Generate, Map, SliceMap};
pub use raft_net::tcp_bridge;
pub use raftlib::{
    Context, DescLink, ExeReport, KStatus, Kernel, KernelOutcome, MapConfig, PortSpec, ProcPolicy,
    ProcSupervisor, RaftMap, SegmentLink, WorkerSpec,
};

/// The two schedulers the benchmark drives.
pub mod scheduler {
    /// Named only to be stored and passed on; constructed only by the two
    /// functions below.
    pub use raftlib::SchedulerKind;

    /// One OS thread per kernel: the paper's default, the reference semantics.
    pub fn thread_per_kernel() -> SchedulerKind {
        SchedulerKind::ThreadPerKernel
    }

    /// The event-driven work-stealing pool, unpinned.
    pub fn stealing(workers: usize) -> SchedulerKind {
        SchedulerKind::Stealing {
            workers,
            pin: false,
        }
    }
}
