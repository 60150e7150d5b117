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
//! The crates around this one complete the reproduction: `raft-buffer`
//! (resizable lock-free FIFOs), `raft-kernels` (standard kernel library),
//! `raft-algos` (search algorithms & workloads), `raft-model` (queueing /
//! flow models), `raft-net` (TCP links and the "oar" mesh), `raft-bench`
//! (every table and figure of the paper's evaluation).

pub mod affinity;
pub mod algoset;
pub mod analysis;
pub mod check;
pub mod diagnostics;
pub mod error;
pub mod kernel;
pub mod lambda;
pub mod map;
pub mod mapper;
pub mod monitor;
pub mod parallel;
pub mod port;
pub mod proc;
pub mod report;
pub mod runtime;
pub mod scheduler;
pub mod steal;
pub mod stealing;
pub mod supervise;

pub use algoset::{AlgoSet, AlgoSwitch};
pub use analysis::{
    classify, Analysis, CycleInfo, CycleVerdict, FusedGroupReport, FusionConfig, FusionGroup,
    GraphView, KernelClassification,
};
pub use check::{passes, CheckConfig, LintPass};
pub use diagnostics::{Diagnostic, Severity};
pub use error::{ExeError, LinkError, PortClosed};
pub use kernel::{
    per_element, per_element_filter, BatchKernel, ErasedBatchStage, KStatus, Kernel, PortDef,
    PortSpec,
};
pub use lambda::{lambda_map, lambda_sink, lambda_source, LambdaKernel};
pub use map::{KernelId, MapConfig, ParallelConfig, RaftMap, StopHandle};
pub use monitor::{
    MonitorConfig, ResizeEvent, ResizeReason, WatchdogEvent, WatchdogKind, WidthEvent,
};
pub use parallel::{Reduce, Split, SplitStrategy, WidthControl};
pub use port::{Context, InPort, OutPort};
pub use proc::{
    DescLink, JournaledRingLink, ProcLink, ProcPolicy, ProcReport, ProcSupervisor, SegmentLink,
    WorkerSpec,
};
pub use report::render as render_report;
pub use runtime::{DrainEvent, DrainReason, EdgeReport, ExeReport, KernelReport};
pub use scheduler::{SchedulerKind, WorkerReport};
pub use supervise::{KernelOutcome, SupervisorPolicy};

// Re-export the signal and FIFO config types users meet at the API surface.
pub use raft_buffer::{AdmissionPolicy, FifoConfig, LinkAlloc, Signal};

/// Everything needed to write and run a streaming application.
pub mod prelude {
    pub use crate::algoset::{AlgoSet, AlgoSwitch};
    pub use crate::analysis::KernelClassification;
    pub use crate::analysis::{FusedGroupReport, FusionConfig};
    pub use crate::check::CheckConfig;
    pub use crate::diagnostics::{Diagnostic, Severity};
    pub use crate::error::{ExeError, LinkError, PortClosed};
    pub use crate::kernel::{BatchKernel, KStatus, Kernel, PortSpec};
    pub use crate::lambda::{lambda_map, lambda_sink, lambda_source, LambdaKernel};
    pub use crate::map::{KernelId, MapConfig, ParallelConfig, RaftMap, StopHandle};
    pub use crate::monitor::{MonitorConfig, WatchdogEvent, WatchdogKind};
    pub use crate::parallel::SplitStrategy;
    pub use crate::port::{Context, InPort, OutPort};
    pub use crate::proc::{ProcPolicy, ProcReport, ProcSupervisor, WorkerSpec};
    pub use crate::runtime::{DrainEvent, DrainReason, ExeReport};
    pub use crate::scheduler::SchedulerKind;
    pub use crate::supervise::{KernelOutcome, SupervisorPolicy};
    pub use raft_buffer::{AdmissionPolicy, FifoConfig, LinkAlloc, Signal};
}
