#![warn(missing_docs)]

//! # raft-net
//!
//! TCP stream links and remote kernel execution for distributed `raftlib`
//! programs.
//!
//! The paper (§4.1): "With RaftLib there is no difference between a
//! distributed and a non-distributed program from the perspective of the
//! developer. A separate system called 'oar' is a mesh of network clients
//! that continually feed system information to each other." Only oar's
//! remote execution is reproduced here. The information mesh is not,
//! because nothing reads that information: placement
//! ([`raftlib::map_kernels`]) takes its [`raftlib::Domain`] from the caller.
//!
//! * [`Wire`] — serde-free binary encoding for stream elements (the link
//!   type selection in §4.2 chooses TCP when endpoints live on different
//!   nodes; elements must then cross a byte boundary);
//! * [`frame`] — length-prefixed message framing: sequence-numbered
//!   data/signal frames (so synchronous signals survive the network hop),
//!   EoS, and the control frames, plus the one receive path every link
//!   shares ([`frame::read_element`]);
//! * [`TcpOut`]/[`TcpIn`] — the one socket endpoint pair: drop-in stream
//!   kernels that forward a stream over a socket, making a pipeline
//!   spanning two maps (two "nodes") look exactly like a local one. Built
//!   from an address ([`TcpIn::bind`] + [`TcpOut::connect`], policy in
//!   [`NetConfig`]) a link reconnects and resumes exactly once, in order;
//!   built from a handed socket ([`tcp_bridge`]) any socket error ends the
//!   stream;
//! * [`compress`] — §4.2's future-work link compression: an LZ77-family
//!   codec applied per frame, with a raw fallback for incompressible
//!   payloads (used by [`TcpOut::compressed`]);
//! * [`RemoteWorker`] — oar's "remotely compile and execute kernels":
//!   workers register named kernel factories ([`KernelRegistry`]), clients
//!   submit kernel-chain jobs and stream data through them
//!   ([`RemoteStage`] embeds the remote hop as an ordinary pipeline stage).

pub mod compress;
pub mod frame;
mod journal;
mod link;
mod remote;
mod wire;

pub use frame::{Frame, FrameKind};
pub use link::{tcp_bridge, NetConfig, TcpIn, TcpOut};
pub use remote::{remote_apply, KernelRegistry, RemoteStage, RemoteWorker};
pub use wire::{VecWireMarker, Wire};
