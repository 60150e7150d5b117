#![warn(missing_docs)]

//! # raftlib
//!
//! A Rust stream-parallel processing runtime reproducing **RaftLib: A C++
//! Template Library for High Performance Stream Parallel Processing**
//! (Beard, Li & Chamberlain, PMAM'15).
//!
//! An application is a set of sequential [`Kernel`]s joined by FIFO streams.
//! Kernels declare typed, named ports; a [`RaftMap`] wires them together
//! ([`RaftMap::link`], with link-time type checking) and [`RaftMap::exe`]
//! runs the graph: streams are allocated, kernels are scheduled (one OS
//! thread each by default, or a work-stealing pool), a monitor thread resizes
//! queues dynamically (writer blocked ≥ 3δ → grow; read request beyond
//! capacity → grow; sustained emptiness → shrink), and eligible kernels are
//! replicated automatically behind split/reduce adapters.
//!
//! ```
//! use raftlib::prelude::*;
//!
//! // The paper's Figure 1-3 "sum" application.
//! struct Sum;
//! impl Kernel for Sum {
//!     fn ports(&self) -> PortSpec {
//!         PortSpec::new()
//!             .input::<i64>("input_a")
//!             .input::<i64>("input_b")
//!             .output::<i64>("sum")
//!     }
//!     fn run(&mut self, ctx: &Context) -> KStatus {
//!         let mut a = ctx.input::<i64>("input_a");
//!         let mut b = ctx.input::<i64>("input_b");
//!         match (a.pop(), b.pop()) {
//!             (Ok(x), Ok(y)) => {
//!                 drop((a, b));
//!                 let mut out = ctx.output::<i64>("sum");
//!                 if out.push(x + y).is_err() { return KStatus::Stop; }
//!                 KStatus::Proceed
//!             }
//!             _ => KStatus::Stop,
//!         }
//!     }
//! }
//!
//! let mut map = RaftMap::new();
//! let mut n = 0i64;
//! let gen_a = map.add(lambda_source(move || { n += 1; (n <= 5).then_some(n) }));
//! let mut m = 0i64;
//! let gen_b = map.add(lambda_source(move || { m += 1; (m <= 5).then_some(m * 10) }));
//! let sum = map.add(Sum);
//! let sink = map.add(lambda_sink(|v: i64| println!("{v}")));
//! map.link(gen_a, "0", sum, "input_a").unwrap();
//! map.link(gen_b, "0", sum, "input_b").unwrap();
//! map.link(sum, "sum", sink, "0").unwrap();
//! let report = map.exe().unwrap();
//! assert_eq!(report.edge("sum").unwrap().stats.popped, 5);
//! ```
//!
//! Every item is exported at the crate root; [`prelude`] re-exports the
//! ones a typical application names.
//!
//! The crates around this one complete the reproduction: `raft-buffer`
//! (resizable lock-free FIFOs), `raft-kernels` (standard kernel library),
//! `raft-algos` (search algorithms & workloads), `raft-model` (queueing /
//! flow models), `raft-net` (TCP links and the "oar" mesh), `raft-bench`
//! (every table and figure of the paper's evaluation).

mod affinity;
mod algoset;
mod analysis;
mod check;
mod diagnostics;
mod error;
mod kernel;
mod lambda;
mod map;
mod mapper;
mod monitor;
mod parallel;
mod port;
mod proc;
mod report;
mod runtime;
mod scheduler;
mod steal;
mod stealing;
mod supervise;

pub use algoset::{AlgoSet, AlgoSwitch};
pub use analysis::{FusedGroupReport, FusionConfig, KernelClassification};
pub use check::{passes, CheckConfig, LintPass};
pub use diagnostics::{Diagnostic, Severity};
pub use error::{ExeError, LinkError, PortClosed};
pub use kernel::{
    per_element, per_element_filter, AnyBatch, ErasedBatchStage, KStatus, Kernel, PortDef, PortSpec,
};
pub use lambda::{lambda_map, lambda_sink, lambda_source, LambdaKernel};
pub use map::{KernelId, MapConfig, ParallelConfig, RaftMap, StopHandle};
pub use mapper::{classify_link, map_kernels, CommGraph, Domain, Mapping, Resource};
pub use monitor::{
    MonitorConfig, ResizeEvent, ResizeReason, WatchdogEvent, WatchdogKind, WidthEvent,
};
pub use parallel::SplitStrategy;
pub use port::{Context, InPort, OutPort};
pub use proc::{
    DescLink, ProcLink, ProcPolicy, ProcReport, ProcSupervisor, SegmentLink, WorkerSpec,
};
pub use report::render as render_report;
pub use runtime::{DrainEvent, DrainReason, EdgeReport, ExeReport, KernelReport};
pub use scheduler::{SchedulerKind, WorkerReport};
pub use supervise::{KernelFactory, KernelOutcome, SupervisorPolicy};

// Re-export the signal and FIFO config types users meet at the API surface.
pub use raft_buffer::{FifoConfig, LinkAlloc, Signal};

/// Everything needed to write and run a streaming application.
pub mod prelude {
    pub use crate::{
        lambda_map, lambda_sink, lambda_source, AlgoSet, CheckConfig, Context, DrainReason,
        ExeError, ExeReport, FifoConfig, FusionConfig, InPort, KStatus, Kernel, KernelId,
        KernelOutcome, LambdaKernel, LinkAlloc, LinkError, MapConfig, MonitorConfig, OutPort,
        PortClosed, PortSpec, ProcPolicy, ProcReport, ProcSupervisor, RaftMap, SchedulerKind,
        Severity, Signal, SplitStrategy, StopHandle, SupervisorPolicy, WatchdogKind, WorkerSpec,
    };
}
