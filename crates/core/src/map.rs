//! Application topology assembly — the paper's `raft::map`.
//!
//! Kernels are added to a [`RaftMap`] and wired with [`RaftMap::link`]
//! (Figure 3). Linking performs the checks the paper describes for `exe()`:
//! the port must exist, must not be double-connected, and the element types
//! at both ends must match (template-level type checking in C++; `TypeId`
//! equality here, so a mismatch is an `Err` at link time rather than a
//! runtime fault).
//!
//! Streams are *ordered* by default; [`RaftMap::link_unordered`] marks a
//! stream as safe for out-of-order delivery, which is the user-supplied
//! signal (§4.1: "indicated by the user at link type") that lets the
//! auto-parallelizer replicate the kernels on either end.

use std::sync::Arc;
use std::time::Duration;

use raft_buffer::{FifoConfig, DRAIN_DRAINING, DRAIN_QUIESCED};

use crate::analysis::fusion::FusionConfig;
use crate::check::CheckConfig;
use crate::diagnostics::{Diagnostic, Severity};
use crate::error::LinkError;
use crate::kernel::{Kernel, PortSpec};
use crate::monitor::MonitorConfig;
use crate::parallel::SplitStrategy;
use crate::runtime::{self, DrainReason, ExeReport, Shutdown};
use crate::scheduler::SchedulerKind;
use crate::supervise::SupervisorPolicy;

/// Handle to a kernel inside a [`RaftMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId(pub(crate) usize);

/// Global execution configuration.
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// Default FIFO configuration for every stream (overridable per link).
    pub fifo: FifoConfig,
    /// Monitor thread configuration (δ, resize rules, optimizer).
    pub monitor: MonitorConfig,
    /// Which scheduler executes the kernels.
    pub scheduler: SchedulerKind,
    /// Automatic parallelization settings.
    pub parallel: ParallelConfig,
    /// Static checker settings (lint severities and thresholds).
    pub check: CheckConfig,
    /// Kernel-fusion pass settings (chains of stateless single-in/
    /// single-out kernels collapse into one batch-executed kernel).
    pub fusion: FusionConfig,
    /// Grace period of the drain ladder: how long the runtime waits after
    /// raising drain level 1 (sources stop, in-flight data flushes) before
    /// escalating to level 2 (FIFOs fail fast) when the graph has not
    /// finished on its own. Applies to every stop reason alike
    /// ([`DrainReason`]).
    pub drain_grace: Duration,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            fifo: FifoConfig::default(),
            monitor: MonitorConfig::default(),
            scheduler: SchedulerKind::ThreadPerKernel,
            parallel: ParallelConfig::default(),
            check: CheckConfig::default(),
            fusion: FusionConfig::default(),
            drain_grace: Duration::from_millis(500),
        }
    }
}

/// Cooperative shutdown lever for a live graph.
///
/// Obtained from [`RaftMap::stop_handle`] *before* `exe()` consumes the
/// map; cloneable and `Send`, so a controller thread can stop a running
/// pipeline from outside. Requests are monotonic — the drain ladder only
/// ever goes up:
///
/// 1. [`StopHandle::drain`] — sources stop producing, in-flight data
///    flushes to the sinks (clean, lossless).
/// 2. [`StopHandle::quiesce`] — additionally, blocked FIFO operations fail
///    fast (pushes error, pops observe end-of-stream), unsticking kernels
///    that would never drain on their own. The runtime escalates from 1 to
///    2 by itself after [`MapConfig::drain_grace`].
#[derive(Debug, Clone)]
pub struct StopHandle {
    shutdown: Arc<Shutdown>,
}

impl StopHandle {
    /// Request a cooperative drain (ladder level 1).
    pub fn drain(&self) {
        self.shutdown.request(DRAIN_DRAINING, DrainReason::Caller);
    }

    /// Request an immediate quiesce (ladder level 2).
    pub fn quiesce(&self) {
        self.shutdown.request(DRAIN_QUIESCED, DrainReason::Caller);
    }
}

/// Auto-parallelization settings (§4.1).
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Replicate eligible kernels automatically at `exe()`.
    pub enabled: bool,
    /// Maximum replica count per kernel (defaults to available
    /// parallelism).
    pub max_width: u32,
    /// How split adapters distribute work.
    pub strategy: SplitStrategy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            enabled: false,
            max_width: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            strategy: SplitStrategy::RoundRobin,
        }
    }
}

pub(crate) struct KernelEntry {
    pub kernel: Box<dyn Kernel>,
    pub spec: PortSpec,
    pub name: String,
    /// User-requested replica width (None = let the runtime decide when
    /// auto-parallelization is on).
    pub width_hint: Option<u32>,
    /// Initial *active* width when a range was requested (replicas are
    /// built to `width_hint`, the optimizer widens from here).
    pub start_width: Option<u32>,
    /// Declared steady-state service rate (items/sec) for the `RC0007`
    /// capacity-feasibility lint; `None` = undeclared (pass skips).
    pub service_rate: Option<f64>,
    /// What the scheduler does if this kernel's `run()` panics
    /// (default: abort the whole map — the pre-supervision behavior).
    pub policy: SupervisorPolicy,
    /// Per-instance statelessness override for the `RC0009`/`RC0010`
    /// analysis passes; `None` defers to [`Kernel::is_stateless`].
    pub stateless: Option<bool>,
}

impl KernelEntry {
    /// Effective statelessness: the per-instance declaration when present,
    /// otherwise the kernel's own [`Kernel::is_stateless`].
    pub fn is_stateless(&self) -> bool {
        self.stateless.unwrap_or_else(|| self.kernel.is_stateless())
    }
}

#[derive(Debug, Clone)]
pub(crate) struct LinkEntry {
    pub src: usize,
    pub src_port: usize,
    pub dst: usize,
    pub dst_port: usize,
    /// `false` once the user declared the stream out-of-order safe.
    pub ordered: bool,
    /// Per-link FIFO override.
    pub fifo: Option<FifoConfig>,
}

/// The application map: kernels + streams + configuration.
pub struct RaftMap {
    pub(crate) kernels: Vec<KernelEntry>,
    pub(crate) links: Vec<LinkEntry>,
    pub(crate) cfg: MapConfig,
    /// The shutdown word pair [`StopHandle`]s request through and the run's
    /// contexts and control thread share.
    pub(crate) shutdown: Arc<Shutdown>,
}

impl Default for RaftMap {
    fn default() -> Self {
        Self::new()
    }
}

impl RaftMap {
    /// Empty map with default configuration.
    pub fn new() -> Self {
        Self::with_config(MapConfig::default())
    }

    /// Empty map with explicit configuration.
    pub fn with_config(cfg: MapConfig) -> Self {
        RaftMap {
            kernels: Vec::new(),
            links: Vec::new(),
            cfg,
            shutdown: Arc::default(),
        }
    }

    /// A [`StopHandle`] for shutting this map down after `exe()` starts.
    /// Take as many as needed before calling `exe()`; they all drive the
    /// same drain ladder.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            shutdown: self.shutdown.clone(),
        }
    }

    /// Mutable access to the configuration (before `exe`).
    pub fn config_mut(&mut self) -> &mut MapConfig {
        &mut self.cfg
    }

    /// Add a kernel; returns its handle. The analog of `kernel::make<>` in
    /// Figure 3.
    pub fn add<K: Kernel>(&mut self, kernel: K) -> KernelId {
        self.add_boxed(Box::new(kernel))
    }

    /// Add an already-boxed kernel.
    pub fn add_boxed(&mut self, kernel: Box<dyn Kernel>) -> KernelId {
        let spec = kernel.ports();
        let name = format!("{}#{}", kernel.name(), self.kernels.len());
        self.kernels.push(KernelEntry {
            kernel,
            spec,
            name,
            width_hint: None,
            start_width: None,
            service_rate: None,
            policy: SupervisorPolicy::Abort,
            stateless: None,
        });
        KernelId(self.kernels.len() - 1)
    }

    /// Set the supervision policy for `kernel`: what the scheduler does if
    /// its `run()` panics. The default, [`SupervisorPolicy::Abort`], fails
    /// the whole map; [`SupervisorPolicy::Skip`] drops the kernel and lets
    /// the pipeline drain; [`SupervisorPolicy::restart`] /
    /// [`SupervisorPolicy::replace`] rebuild it in place on its live
    /// streams.
    ///
    /// ```
    /// # use raftlib::prelude::*;
    /// # use raftlib::SupervisorPolicy;
    /// # let mut map = RaftMap::new();
    /// # let k = map.add(lambda_source(|| None::<i64>));
    /// map.supervise(k, SupervisorPolicy::restart(3));
    /// ```
    pub fn supervise(&mut self, kernel: KernelId, policy: SupervisorPolicy) {
        self.kernels[kernel.0].policy = policy;
    }

    /// The supervision policy currently set for `kernel`.
    pub fn policy(&self, kernel: KernelId) -> &SupervisorPolicy {
        &self.kernels[kernel.0].policy
    }

    /// Declare the expected steady-state service rate of `kernel`
    /// (items/sec). Purely advisory: the `RC0007` capacity lint uses the
    /// declared rates of a stream's two endpoints to estimate, via an
    /// M/M/1/K model, whether the stream's configured capacity ceiling can
    /// sustain the flow — turning a runtime stall into a pre-`exe()`
    /// warning.
    pub fn declare_service_rate(&mut self, kernel: KernelId, items_per_sec: f64) {
        self.kernels[kernel.0].service_rate = Some(items_per_sec);
    }

    /// Declare that `kernel` is stateless: its output for an item does not
    /// depend on previously-seen items. The `RC0009` replication-safety and
    /// `RC0010` supervision-soundness passes treat stateless kernels as safe
    /// to restart after a panic and safe to replicate behind an
    /// out-of-order split. Overrides [`Kernel::is_stateless`] for this
    /// instance only.
    pub fn declare_stateless(&mut self, kernel: KernelId) {
        self.kernels[kernel.0].stateless = Some(true);
    }

    /// Request that `kernel` run with `width` parallel replicas (subject to
    /// eligibility: single in/out, replicable, unordered links). A width
    /// hint of 1 pins the kernel sequential even under auto-parallelism.
    pub fn prefer_width(&mut self, kernel: KernelId, width: u32) {
        self.kernels[kernel.0].width_hint = Some(width.max(1));
        self.kernels[kernel.0].start_width = None;
    }

    /// Like [`RaftMap::prefer_width`], but start with only `start` replicas
    /// active: the monitor's optimizer widens toward `max` while the
    /// kernel's input stream stays backed up — the paper's dynamic
    /// bottleneck elimination (§3: "Raft dynamically monitors the system to
    /// eliminate the bottlenecks where possible").
    pub fn prefer_width_range(&mut self, kernel: KernelId, start: u32, max: u32) {
        let max = max.max(1);
        self.kernels[kernel.0].width_hint = Some(max);
        self.kernels[kernel.0].start_width = Some(start.clamp(1, max));
    }

    /// Display name of a kernel (for reports).
    pub fn kernel_name(&self, kernel: KernelId) -> &str {
        &self.kernels[kernel.0].name
    }

    fn resolve(
        &self,
        id: KernelId,
        port: &str,
        is_input: bool,
    ) -> Result<(usize, usize), LinkError> {
        let entry = self
            .kernels
            .get(id.0)
            .ok_or_else(|| LinkError::NoSuchKernel(format!("#{}", id.0)))?;
        let defs = if is_input {
            &entry.spec.inputs
        } else {
            &entry.spec.outputs
        };
        let idx =
            defs.iter()
                .position(|p| p.name == port)
                .ok_or_else(|| LinkError::NoSuchPort {
                    kernel: entry.name.clone(),
                    port: port.to_string(),
                    available: defs.iter().map(|p| p.name.clone()).collect(),
                })?;
        Ok((id.0, idx))
    }

    fn link_inner(
        &mut self,
        src: KernelId,
        src_port: &str,
        dst: KernelId,
        dst_port: &str,
        ordered: bool,
        fifo: Option<FifoConfig>,
    ) -> Result<(), LinkError> {
        if src == dst {
            return Err(LinkError::SelfLoop(self.kernels[src.0].name.clone()));
        }
        let (s, sp) = self.resolve(src, src_port, false)?;
        let (d, dp) = self.resolve(dst, dst_port, true)?;
        // One stream per port end.
        for l in &self.links {
            if l.src == s && l.src_port == sp {
                return Err(LinkError::AlreadyLinked {
                    kernel: self.kernels[s].name.clone(),
                    port: src_port.to_string(),
                });
            }
            if l.dst == d && l.dst_port == dp {
                return Err(LinkError::AlreadyLinked {
                    kernel: self.kernels[d].name.clone(),
                    port: dst_port.to_string(),
                });
            }
        }
        // Link-time type checking (§4.2).
        let so = &self.kernels[s].spec.outputs[sp];
        let di = &self.kernels[d].spec.inputs[dp];
        if so.type_id != di.type_id {
            return Err(LinkError::TypeMismatch {
                src: format!("{}.{}", self.kernels[s].name, src_port),
                dst: format!("{}.{}", self.kernels[d].name, dst_port),
                src_type: so.type_name,
                dst_type: di.type_name,
            });
        }
        self.links.push(LinkEntry {
            src: s,
            src_port: sp,
            dst: d,
            dst_port: dp,
            ordered,
            fifo,
        });
        Ok(())
    }

    /// Connect `src_port` of `src` to `dst_port` of `dst` with an ordered
    /// stream.
    pub fn link(
        &mut self,
        src: KernelId,
        src_port: &str,
        dst: KernelId,
        dst_port: &str,
    ) -> Result<(), LinkError> {
        self.link_inner(src, src_port, dst, dst_port, true, None)
    }

    /// Like [`RaftMap::link`], but declares the stream out-of-order safe —
    /// the eligibility signal for automatic kernel replication.
    pub fn link_unordered(
        &mut self,
        src: KernelId,
        src_port: &str,
        dst: KernelId,
        dst_port: &str,
    ) -> Result<(), LinkError> {
        self.link_inner(src, src_port, dst, dst_port, false, None)
    }

    /// Like [`RaftMap::link`] with a per-stream FIFO configuration
    /// (used by the Figure 4 harness to pin exact buffer sizes).
    pub fn link_with(
        &mut self,
        src: KernelId,
        src_port: &str,
        dst: KernelId,
        dst_port: &str,
        fifo: FifoConfig,
    ) -> Result<(), LinkError> {
        self.link_inner(src, src_port, dst, dst_port, true, Some(fifo))
    }

    /// Convenience: connect two kernels that have exactly one output and
    /// one input port respectively (most pipeline stages).
    pub fn connect(&mut self, src: KernelId, dst: KernelId) -> Result<(), LinkError> {
        let sp = self.single_port_name(src, false)?;
        let dp = self.single_port_name(dst, true)?;
        self.link(src, &sp, dst, &dp)
    }

    fn single_port_name(&self, id: KernelId, is_input: bool) -> Result<String, LinkError> {
        let entry = self
            .kernels
            .get(id.0)
            .ok_or_else(|| LinkError::NoSuchKernel(format!("#{}", id.0)))?;
        let defs = if is_input {
            &entry.spec.inputs
        } else {
            &entry.spec.outputs
        };
        if defs.len() != 1 {
            return Err(LinkError::NoSuchPort {
                kernel: entry.name.clone(),
                port: "<single>".to_string(),
                available: defs.iter().map(|p| p.name.clone()).collect(),
            });
        }
        Ok(defs[0].name.clone())
    }

    /// Run every registered static-analysis pass over the topology and
    /// return the findings (errors first). `exe()` calls this and refuses
    /// to run when any [`Severity::Error`] diagnostic is present; calling
    /// it directly lets an application surface warnings (or render them
    /// with [`RaftMap::to_dot_with`]) before committing to execution.
    pub fn check(&self) -> Vec<Diagnostic> {
        crate::check::run_all(self)
    }

    /// Render the topology as Graphviz DOT — a quick visualization of what
    /// `exe()` will run (ports on edge labels, dashed = out-of-order-safe).
    pub fn to_dot(&self) -> String {
        self.to_dot_with(&[])
    }

    /// [`RaftMap::to_dot`], with diagnosed kernels and streams highlighted:
    /// anything named in an `Error` diagnostic is colored red, `Warn`
    /// orange, `Info` (e.g. an `RC0008` deadlock-freedom certificate) blue.
    /// Pass the output of [`RaftMap::check`]. A legend subgraph documents
    /// the edge styles (dashed = out-of-order-safe) and severity colors.
    pub fn to_dot_with(&self, diagnostics: &[Diagnostic]) -> String {
        use std::fmt::Write as _;
        // Worst severity per kernel/link index, if any.
        let mut kernel_sev: Vec<Option<Severity>> = vec![None; self.kernels.len()];
        let mut link_sev: Vec<Option<Severity>> = vec![None; self.links.len()];
        for d in diagnostics {
            for &k in &d.kernels {
                if let Some(slot) = kernel_sev.get_mut(k) {
                    *slot = Some(slot.map_or(d.severity, |s| s.max(d.severity)));
                }
            }
            for &l in &d.links {
                if let Some(slot) = link_sev.get_mut(l) {
                    *slot = Some(slot.map_or(d.severity, |s| s.max(d.severity)));
                }
            }
        }
        let color = |sev: Option<Severity>| match sev {
            Some(Severity::Error) => Some("red"),
            Some(Severity::Warn) => Some("orange"),
            Some(Severity::Info) => Some("blue"),
            None => None,
        };
        let mut out = String::from(
            "digraph raft {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        for (i, k) in self.kernels.iter().enumerate() {
            let _ = write!(out, "  k{i} [label=\"{}\"", dot_escape(&k.name));
            if let Some(c) = color(kernel_sev[i]) {
                let _ = write!(out, ", color={c}, fontcolor={c}");
            }
            out.push_str("];\n");
        }
        for (li, l) in self.links.iter().enumerate() {
            let sp = &self.kernels[l.src].spec.outputs[l.src_port].name;
            let dp = &self.kernels[l.dst].spec.inputs[l.dst_port].name;
            let style = if l.ordered { "solid" } else { "dashed" };
            let _ = write!(
                out,
                "  k{} -> k{} [label=\"{}→{}\", style={}",
                l.src,
                l.dst,
                dot_escape(sp),
                dot_escape(dp),
                style
            );
            if let Some(c) = color(link_sev[li]) {
                let _ = write!(out, ", color={c}, fontcolor={c}");
            }
            out.push_str("];\n");
        }
        out.push_str(
            "  subgraph cluster_legend {\n    label=\"legend\";\n    fontsize=10;\n    \
             legend [shape=plaintext, label=\"solid edge: ordered stream\\l\
             dashed edge: out-of-order-safe stream\\l\
             red: error finding\\lorange: warning finding\\l\
             blue: info finding / RC0008 certificate\\l\"];\n  }\n",
        );
        out.push_str("}\n");
        out
    }

    /// Number of kernels currently in the map.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Number of streams currently in the map.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Validate, optimize, execute, and wait for completion — the paper's
    /// `map.exe()`. Consumes the map.
    pub fn exe(self) -> Result<ExeReport, crate::error::ExeError> {
        runtime::execute(self, None)
    }

    /// Execute with a deadline: if the application does not finish within
    /// `timeout`, the run enters the drain ladder (sources observe level 1
    /// via `Context::stop_requested`; after [`MapConfig::drain_grace`] the
    /// FIFOs fail fast) and execution joins as soon as the pipeline drains.
    pub fn exe_with_timeout(self, timeout: Duration) -> Result<ExeReport, crate::error::ExeError> {
        runtime::execute(self, Some(timeout))
    }
}

/// Escape a string for use inside a double-quoted DOT label: `\` and `"`
/// would otherwise terminate or corrupt the label. Newlines become DOT
/// line breaks. Used for both node and edge labels.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KStatus, PortSpec};
    use crate::port::Context;

    struct Producer1;
    impl Kernel for Producer1 {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u32>("out")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    struct Consumer1;
    impl Kernel for Consumer1 {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u32>("in")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    struct ConsumerI64;
    impl Kernel for ConsumerI64 {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<i64>("in")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    #[test]
    fn link_happy_path() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.link(p, "out", c, "in").unwrap();
        assert_eq!(m.link_count(), 1);
    }

    #[test]
    fn connect_single_ports() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.connect(p, c).unwrap();
        assert_eq!(m.link_count(), 1);
    }

    #[test]
    fn type_mismatch_detected_at_link_time() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(ConsumerI64);
        let err = m.link(p, "out", c, "in").unwrap_err();
        assert!(matches!(err, LinkError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn unknown_port_rejected() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        let err = m.link(p, "nope", c, "in").unwrap_err();
        assert!(matches!(err, LinkError::NoSuchPort { .. }), "{err}");
    }

    #[test]
    fn double_link_rejected() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c1 = m.add(Consumer1);
        let c2 = m.add(Consumer1);
        m.link(p, "out", c1, "in").unwrap();
        let err = m.link(p, "out", c2, "in").unwrap_err();
        assert!(matches!(err, LinkError::AlreadyLinked { .. }), "{err}");
    }

    #[test]
    fn self_loop_rejected() {
        struct Loopy;
        impl Kernel for Loopy {
            fn ports(&self) -> PortSpec {
                PortSpec::new().input::<u32>("in").output::<u32>("out")
            }
            fn run(&mut self, _ctx: &Context) -> KStatus {
                KStatus::Stop
            }
        }
        let mut m = RaftMap::new();
        let k = m.add(Loopy);
        let err = m.link(k, "out", k, "in").unwrap_err();
        assert!(matches!(err, LinkError::SelfLoop(_)));
    }

    #[test]
    fn dot_export_includes_kernels_and_edges() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.link(p, "out", c, "in").unwrap();
        let dot = m.to_dot();
        assert!(dot.starts_with("digraph raft {"));
        assert!(dot.contains("k0 -> k1"));
        assert!(dot.contains("out→in"));
        assert!(dot.contains("style=solid"));
    }

    #[test]
    fn dot_marks_unordered_links_dashed() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.link_unordered(p, "out", c, "in").unwrap();
        assert!(m.to_dot().contains("style=dashed"));
    }

    #[test]
    fn kernel_names_are_unique() {
        let mut m = RaftMap::new();
        let a = m.add(Producer1);
        let b = m.add(Producer1);
        assert_ne!(m.kernel_name(a), m.kernel_name(b));
    }

    #[test]
    fn dot_escape_handles_quotes_backslashes_newlines() {
        assert_eq!(dot_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(dot_escape(r"a\b"), r"a\\b");
        assert_eq!(dot_escape("a\nb"), r"a\nb");
        assert_eq!(dot_escape("plain"), "plain");
    }

    #[test]
    fn dot_export_escapes_hostile_kernel_names() {
        struct Evil;
        impl Kernel for Evil {
            fn ports(&self) -> PortSpec {
                PortSpec::new().output::<u32>("out")
            }
            fn run(&mut self, _ctx: &Context) -> KStatus {
                KStatus::Stop
            }
            fn name(&self) -> String {
                "ev\"il\\k".to_string()
            }
        }
        let mut m = RaftMap::new();
        let e = m.add(Evil);
        let c = m.add(Consumer1);
        m.link(e, "out", c, "in").unwrap();
        let dot = m.to_dot();
        assert!(dot.contains(r#"ev\"il\\k"#), "{dot}");
        // No unescaped quote may remain inside the label.
        assert!(!dot.contains(r#"label="ev"il"#), "{dot}");
    }

    #[test]
    fn dot_with_diagnostics_colors_offenders() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.link(p, "out", c, "in").unwrap();
        let diags = vec![
            crate::diagnostics::Diagnostic::new(
                "RC0008",
                "feedback-deadlock",
                crate::diagnostics::Severity::Error,
                "test",
            )
            .with_kernel(0)
            .with_link(0),
            crate::diagnostics::Diagnostic::new(
                "RC0007",
                "capacity",
                crate::diagnostics::Severity::Warn,
                "test",
            )
            .with_kernel(1),
        ];
        let dot = m.to_dot_with(&diags);
        assert!(
            dot.contains("k0 [label=\"Producer1#0\", color=red"),
            "{dot}"
        );
        assert!(
            dot.contains("k1 [label=\"Consumer1#1\", color=orange"),
            "{dot}"
        );
        assert!(dot.contains("style=solid, color=red"), "{dot}");
        // Plain export stays uncolored.
        assert!(!m.to_dot().contains("color=red"));
    }

    #[test]
    fn declared_rates_are_stored() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        m.declare_service_rate(p, 1000.0);
        assert_eq!(m.kernels[p.0].service_rate, Some(1000.0));
    }

    #[test]
    fn dot_info_findings_color_blue_and_legend_present() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        let c = m.add(Consumer1);
        m.link(p, "out", c, "in").unwrap();
        let diags = vec![crate::diagnostics::Diagnostic::new(
            "RC0008",
            "feedback-deadlock",
            crate::diagnostics::Severity::Info,
            "certified",
        )
        .with_kernel(0)
        .with_link(0)];
        let dot = m.to_dot_with(&diags);
        assert!(
            dot.contains("k0 [label=\"Producer1#0\", color=blue"),
            "{dot}"
        );
        assert!(dot.contains("style=solid, color=blue"), "{dot}");
        // Legend is always emitted, documenting dashed OOO edges.
        assert!(dot.contains("cluster_legend"), "{dot}");
        assert!(
            dot.contains("dashed edge: out-of-order-safe stream"),
            "{dot}"
        );
        assert!(m.to_dot().contains("cluster_legend"));
    }

    #[test]
    fn declared_statelessness_overrides_trait_default() {
        let mut m = RaftMap::new();
        let p = m.add(Producer1);
        assert!(!m.kernels[p.0].is_stateless());
        m.declare_stateless(p);
        assert!(m.kernels[p.0].is_stateless());
    }
}
