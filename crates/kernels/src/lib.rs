#![warn(missing_docs)]

//! # raft-kernels
//!
//! The standard kernel library for `raftlib`, reproducing the stock kernels
//! the RaftLib paper uses in its examples and benchmark (§4.2, Figures 3,
//! 5, 6, 9):
//!
//! * [`Generate`] — bounded sources from iterators or generator closures
//!   (the paper's random-number `generate` kernel);
//! * [`Print`] / [`Count`] — stream sinks, including the paper's `print`
//!   kernel;
//! * [`read_each`] / [`write_each`] — C++ standard-library container
//!   integration (Figure 5): feed a stream from any iterator (a
//!   [`Generate`]), collect a stream back into a `Vec` the caller keeps a
//!   handle to;
//! * [`ForEach`] — the zero-copy array source of Figure 6: the array is
//!   shared (`Arc`), and what streams are `(range, Arc)` slices
//!   ([`ArraySlice`]) — no element copying;
//! * [`Map`] / [`FilterMap`] / [`Fold`] — per-item transforms and the
//!   `reduce`-to-a-value kernel of Figure 6; [`SliceMap`] — the batch
//!   variant, transforming zero-copy slices borrowed straight from the
//!   input ring;
//! * [`ByteChunkSource`] / [`ByteChunk`] — the "read file & distribute"
//!   kernel of the text-search topology (Figure 8): shares one in-memory
//!   corpus and streams zero-copy chunk descriptors;
//! * [`DescChunkSource`] / [`DescCount`] — the cross-process variant:
//!   payload bytes live in a shared-memory arena and streams carry 16-byte
//!   [`raft_buffer::Descriptor`]s, so the same zero-copy pattern survives a
//!   process boundary;
//! * [`Tee`] / [`Zip`] / [`Take`] — stream duplication, element-wise
//!   joining, truncation;
//! * [`SlidingWindow`] — the §3 sliding-window access pattern, built on
//!   `peek_range`; [`Batch`] / [`Flatten`] — grouping and ungrouping;
//! * [`Stamp`] / [`Resequence`] — §4.1's third stream discipline: process
//!   out of order (replicated), re-order downstream.

#[cfg(feature = "raft_failpoints")]
mod chaos;

mod bytes;
mod containers;
mod descriptors;
mod generate;
mod routing;
mod sequence;
mod sinks;
mod transforms;
mod windows;

#[cfg(feature = "raft_failpoints")]
pub use chaos::{ChaosConfig, ChaosKernel};

pub use bytes::{ByteChunk, ByteChunkSource};
pub use containers::{
    for_each, read_each, write_each, ArraySlice, CollectHandle, ForEach, WriteEach,
};
pub use descriptors::{DescChunkSource, DescCount, DescFree, DescShip};
pub use generate::Generate;
pub use routing::{Take, Tee, Zip};
pub use sequence::{map_seq, Resequence, Seq, Stamp};
pub use sinks::{Count, Print};
pub use transforms::{FilterMap, Fold, FoldHandle, Map, SliceMap};
pub use windows::{Batch, Flatten, SlidingWindow};
