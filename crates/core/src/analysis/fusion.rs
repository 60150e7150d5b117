//! Kernel-fusion pass — collapse pipeline chains into one batch runner.
//!
//! The per-hop FIFO protocol dominates deep pipelines: every intermediate
//! stream costs a push, a pop, a waker arm and a scheduler hop *per
//! element*, which is why a depth-4 pipeline of trivial transforms runs two
//! orders of magnitude slower than depth 0. The paper treats kernels as
//! composable units precisely so the runtime may rewrite the graph for
//! performance (§3–4); this pass is that rewrite: at `exe()` time, maximal
//! chains of adjacent single-input/single-output *fusable* kernels compile
//! into one [`FusedKernel`] that executes the whole chain over owned
//! batches — a batched pop at the head (one blocking wait and one queue
//! protocol entry per batch, via [`PortDef::batch_pop`]), a tight per-stage
//! loop over the batch in the middle, and a `reserve`/`WriteSlice` publish
//! at the tail ([`PortDef::batch_push`]). Interior FIFOs, their monitor
//! entries, and their scheduler hops disappear entirely.
//!
//! A kernel joins a chain when all of the following hold:
//!
//! * it has exactly one input and one output port;
//! * [`Kernel::is_fusable`] is true and it compiles into a batch stage
//!   ([`Kernel::batch_stage`]);
//! * it is stateless ([`crate::map::KernelEntry::is_stateless`]) — fused
//!   stages see the stream batch-at-a-time, so cross-item state would
//!   observe different `run()` boundaries than the unfused kernel;
//! * its supervision policy is `Abort` or `Restart` and identical across
//!   the group (a fused group restarts **as a unit** via
//!   [`Kernel::clone_replica`] → per-stage fork);
//! * the parallel planner will not replicate it (replication wins: an
//!   expanded kernel sits behind split/reduce adapters);
//! * the connecting stream has no per-link FIFO override — an explicit
//!   [`FifoConfig`](raft_buffer::FifoConfig) pins that stream's capacity
//!   (the Figure 4 harness semantics), so it must stay materialized.
//!
//! The pass is planned once ([`plan`]) and consumed twice: the `RC0011`
//! info lint reports the planned groups pre-`exe()`, and [`apply`] rewrites
//! the kernel/link tables in place right before replica expansion. Because
//! the fused kernel is itself stateless, single-in/single-out and
//! replicable, the auto-parallelizer may then replicate the *whole group*.
//!
//! Fusion is on by default; [`MapConfig::fusion`](crate::map::MapConfig) is
//! the one switch (and batch size), which is also how to A/B a graph
//! against its unfused self.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::diagnostics::{Diagnostic, Severity};
use crate::kernel::{ErasedBatchStage, KStatus, Kernel, PortDef, PortSpec};
use crate::map::RaftMap;
use crate::port::Context;
use crate::supervise::SupervisorPolicy;

use super::replication::will_replicate;
use super::Analysis;

/// Fusion-pass configuration (part of [`crate::map::MapConfig`]).
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Fuse eligible chains at `exe()` (default: true).
    pub enabled: bool,
    /// Elements per fused batch: how many items the head pops (and the
    /// whole chain processes) per scheduling quantum.
    pub batch: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            enabled: true,
            batch: 512,
        }
    }
}

/// One planned fusion group: a maximal chain of fusable kernels, in
/// stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    /// Kernel indices along the chain (head first).
    pub members: Vec<usize>,
    /// Display names of the members, same order.
    pub names: Vec<String>,
}

/// Whether two adjacent kernels' supervision policies permit merging into
/// one unit: both fail-fast, or both the *same* restart budget (the group
/// then restarts as a unit under that budget). `Skip` and `Replace` have
/// per-kernel semantics a merged runner cannot honor.
fn policies_compatible(a: &SupervisorPolicy, b: &SupervisorPolicy) -> bool {
    match (a, b) {
        (SupervisorPolicy::Abort, SupervisorPolicy::Abort) => true,
        (
            SupervisorPolicy::Restart {
                max_restarts: m1,
                backoff: b1,
            },
            SupervisorPolicy::Restart {
                max_restarts: m2,
                backoff: b2,
            },
        ) => m1 == m2 && b1 == b2,
        _ => false,
    }
}

/// Whether kernel `k` may be a member of any fused chain.
fn kernel_fusable(map: &RaftMap, k: usize) -> bool {
    let e = &map.kernels[k];
    if e.spec.inputs.len() != 1 || e.spec.outputs.len() != 1 {
        return false;
    }
    if !e.kernel.is_fusable() || !e.is_stateless() {
        return false;
    }
    if !matches!(
        e.policy,
        SupervisorPolicy::Abort | SupervisorPolicy::Restart { .. }
    ) {
        return false;
    }
    // Replication wins over fusion: a kernel the parallel planner will
    // expand ends up between split/reduce adapters, not in a chain.
    let replicable = e.kernel.clone_replica().is_some();
    !will_replicate(map, k, replicable)
}

/// Compute the maximal fusable chains of `map`, in deterministic (head
/// index) order. Shared by the `RC0011` lint and [`apply`], so the planned
/// groups reported pre-`exe()` are exactly the groups the runtime fuses.
pub fn plan(map: &RaftMap) -> Vec<FusionGroup> {
    let n = map.kernels.len();
    let fusable: Vec<bool> = (0..n).map(|k| kernel_fusable(map, k)).collect();
    // With one input and one output port per fusable kernel, each side has
    // at most one stream, so chain succession is a simple next/prev table.
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut prev: Vec<Option<usize>> = vec![None; n];
    for l in &map.links {
        if fusable[l.src]
            && fusable[l.dst]
            && l.fifo.is_none()
            && policies_compatible(&map.kernels[l.src].policy, &map.kernels[l.dst].policy)
        {
            next[l.src] = Some(l.dst);
            prev[l.dst] = Some(l.src);
        }
    }
    let mut groups = Vec::new();
    for k in 0..n {
        // Chain heads only; a fusable cycle has no head and is skipped.
        if !fusable[k] || prev[k].is_some() || next[k].is_none() {
            continue;
        }
        let mut members = vec![k];
        let mut cur = k;
        while let Some(d) = next[cur] {
            members.push(d);
            cur = d;
        }
        let names = members
            .iter()
            .map(|&m| map.kernels[m].name.clone())
            .collect();
        groups.push(FusionGroup { members, names });
    }
    groups
}

/// RC0011: report each planned fusion group (informational). Emitted only
/// when fusion is enabled for this map, so the lint never promises a
/// rewrite the runtime won't perform.
pub(crate) fn lint_fusion(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    if !map.cfg.fusion.enabled {
        return Vec::new();
    }
    plan(map)
        .iter()
        .map(|g| {
            let chain = g.names.join(" -> ");
            let interior = g.members.len() - 1;
            let mut d = Diagnostic::new(
                "RC0011",
                "fusion",
                Severity::Info,
                format!(
                    "kernels {chain} fuse into one batch-executed kernel, \
                     eliminating {interior} interior stream(s) and their \
                     scheduler hops; the fused group restarts as a unit"
                ),
            )
            .with_help(
                "set MapConfig::fusion.enabled = false to A/B against the \
                 unfused graph",
            );
            for &m in &g.members {
                d = d.with_kernel(m);
            }
            d
        })
        .collect()
}

/// Shared batch telemetry of one fused group, exported through
/// [`crate::runtime::ExeReport::fused`]. Restarted or replicated instances
/// of the group accumulate into the same counters.
#[derive(Debug, Default)]
pub struct FusedStats {
    batches: AtomicU64,
    items_in: AtomicU64,
    items_out: AtomicU64,
}

/// Final per-group fusion telemetry in the [`crate::runtime::ExeReport`].
#[derive(Debug, Clone)]
pub struct FusedGroupReport {
    /// Fused kernel display name, e.g. `fused[map+map]#1`.
    pub name: String,
    /// Display names of the original member kernels, head first.
    pub members: Vec<String>,
    /// Configured batch size.
    pub batch: usize,
    /// Batches executed.
    pub batches: u64,
    /// Elements popped at the head.
    pub items_in: u64,
    /// Elements published at the tail.
    pub items_out: u64,
}

/// Bookkeeping `apply` hands to the runtime: the live stats handle plus
/// everything needed to assemble a [`FusedGroupReport`] after the run.
pub(crate) struct FusedGroupInfo {
    pub name: String,
    pub members: Vec<String>,
    pub batch: usize,
    pub stats: Arc<FusedStats>,
}

impl FusedGroupInfo {
    pub(crate) fn report(&self) -> FusedGroupReport {
        FusedGroupReport {
            name: self.name.clone(),
            members: self.members.clone(),
            batch: self.batch,
            batches: self.stats.batches.load(Ordering::Relaxed),
            items_in: self.stats.items_in.load(Ordering::Relaxed),
            items_out: self.stats.items_out.load(Ordering::Relaxed),
        }
    }
}

/// The compiled chain: one [`Kernel`] that pops a batch at the head, runs
/// every stage over it back to back, and publishes the survivors at the
/// tail. To the scheduler this is an ordinary kernel — one task, two
/// streams, regardless of how long the original chain was.
pub struct FusedKernel {
    stages: Vec<Box<dyn ErasedBatchStage>>,
    in_def: PortDef,
    out_def: PortDef,
    batch: usize,
    label: String,
    stats: Arc<FusedStats>,
}

impl Kernel for FusedKernel {
    fn ports(&self) -> PortSpec {
        PortSpec {
            inputs: vec![self.in_def.clone()],
            outputs: vec![self.out_def.clone()],
        }
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let Some((mut batch, n_in)) = (self.in_def.batch_pop)(ctx, 0, self.batch) else {
            return KStatus::Stop;
        };
        for stage in &mut self.stages {
            batch = stage.run_batch_erased(batch);
        }
        match (self.out_def.batch_push)(ctx, 0, batch) {
            Some(n_out) => {
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .items_in
                    .fetch_add(n_in as u64, Ordering::Relaxed);
                self.stats
                    .items_out
                    .fetch_add(n_out as u64, Ordering::Relaxed);
                KStatus::Proceed
            }
            None => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    // Members were stateless by construction, so the group is.
    fn is_stateless(&self) -> bool {
        true
    }

    /// Clean-slate copy of the whole group: every stage forks, or the
    /// group is not replicable/restartable as a unit. Telemetry stays
    /// shared so the report aggregates across instances.
    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        let stages: Option<Vec<_>> = self.stages.iter().map(|s| s.fork()).collect();
        Some(Box::new(FusedKernel {
            stages: stages?,
            in_def: self.in_def.clone(),
            out_def: self.out_def.clone(),
            batch: self.batch,
            label: self.label.clone(),
            stats: self.stats.clone(),
        }))
    }
}

/// Rewrite `map` in place: compile every planned group into a
/// [`FusedKernel`] installed at the head member's slot, drop the interior
/// members and streams, and compact the kernel/link tables. Returns the
/// telemetry bookkeeping for the report.
pub(crate) fn apply(map: &mut RaftMap, batch: usize) -> Vec<FusedGroupInfo> {
    let groups = plan(map);
    if groups.is_empty() {
        return Vec::new();
    }
    let mut infos = Vec::new();
    let mut dead_kernels = vec![false; map.kernels.len()];
    let mut dead_links = vec![false; map.links.len()];
    for g in &groups {
        // Compile every member. `is_fusable` promises a stage; if an
        // implementation breaks that contract, abandon the group with the
        // map untouched (stages were cloned out, members still run as-is).
        let mut stages = Vec::with_capacity(g.members.len());
        for &m in &g.members {
            match map.kernels[m].kernel.batch_stage() {
                Some(s) => stages.push(s),
                None => break,
            }
        }
        if stages.len() != g.members.len() {
            continue;
        }
        let head = g.members[0];
        let tail = *g.members.last().unwrap();
        let in_def = map.kernels[head].spec.inputs[0].clone();
        let out_def = map.kernels[tail].spec.outputs[0].clone();
        let label = format!(
            "fused[{}]",
            stages
                .iter()
                .map(|s| s.stage_name())
                .collect::<Vec<_>>()
                .join("+")
        );
        let name = format!("{label}#{head}");
        let stats = Arc::new(FusedStats::default());
        let fused = FusedKernel {
            stages,
            in_def: in_def.clone(),
            out_def: out_def.clone(),
            batch,
            label,
            stats: stats.clone(),
        };
        infos.push(FusedGroupInfo {
            name: name.clone(),
            members: g.names.clone(),
            batch,
            stats,
        });
        map.kernels[head].kernel = Box::new(fused);
        map.kernels[head].spec = PortSpec {
            inputs: vec![in_def],
            outputs: vec![out_def],
        };
        map.kernels[head].name = name;
        map.kernels[head].stateless = Some(true);
        // Interior streams disappear; the tail's outgoing stream now
        // leaves the head (the fused kernel's single output).
        for (li, l) in map.links.iter_mut().enumerate() {
            let src_in = g.members.contains(&l.src);
            let dst_in = g.members.contains(&l.dst);
            if src_in && dst_in {
                dead_links[li] = true;
            } else if l.src == tail {
                l.src = head;
                l.src_port = 0;
            }
        }
        for &m in &g.members[1..] {
            dead_kernels[m] = true;
        }
    }
    // Compact the tables, remapping link endpoints onto the new indices.
    let mut new_idx = vec![usize::MAX; map.kernels.len()];
    let mut kept = 0usize;
    for (i, dead) in dead_kernels.iter().enumerate() {
        if !dead {
            new_idx[i] = kept;
            kept += 1;
        }
    }
    let kernels = std::mem::take(&mut map.kernels);
    map.kernels = kernels
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| (!dead_kernels[i]).then_some(e))
        .collect();
    let links = std::mem::take(&mut map.links);
    map.links = links
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dead_links[*i])
        .map(|(_, mut l)| {
            l.src = new_idx[l.src];
            l.dst = new_idx[l.dst];
            l
        })
        .collect();
    infos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::per_element;
    use raft_buffer::FifoConfig;

    struct Src;
    impl Kernel for Src {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u64>("out")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }
    struct Sink;
    impl Kernel for Sink {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }
    /// Minimal fusable pass-through stage.
    struct AddOne;
    impl Kernel for AddOne {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            match input.pop() {
                Ok(v) => {
                    drop(input);
                    if ctx.output::<u64>("out").push(v + 1).is_err() {
                        return KStatus::Stop;
                    }
                    KStatus::Proceed
                }
                Err(_) => KStatus::Stop,
            }
        }
        fn name(&self) -> String {
            "add1".into()
        }
        fn is_stateless(&self) -> bool {
            true
        }
        fn is_fusable(&self) -> bool {
            true
        }
        fn batch_stage(&mut self) -> Option<Box<dyn ErasedBatchStage>> {
            Some(per_element("add1", |v: u64| v + 1))
        }
    }
    /// Same shape, not fusable (default hooks).
    struct Opaque;
    impl Kernel for Opaque {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    fn chain(n_stages: usize) -> RaftMap {
        let mut m = RaftMap::new();
        let src = m.add(Src);
        let mut prev = src;
        for _ in 0..n_stages {
            let k = m.add(AddOne);
            m.link(prev, "out", k, "in").unwrap();
            prev = k;
        }
        let sink = m.add(Sink);
        m.link(prev, "out", sink, "in").unwrap();
        m
    }

    #[test]
    fn plans_maximal_chain() {
        let m = chain(3);
        let groups = plan(&m);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![1, 2, 3]);
    }

    #[test]
    fn single_stage_is_not_a_group() {
        let m = chain(1);
        assert!(plan(&m).is_empty());
    }

    #[test]
    fn stateful_kernel_splits_the_chain() {
        let mut m = RaftMap::new();
        let src = m.add(Src);
        let a = m.add(AddOne);
        let b = m.add(Opaque);
        let c = m.add(AddOne);
        let d = m.add(AddOne);
        let sink = m.add(Sink);
        m.link(src, "out", a, "in").unwrap();
        m.link(a, "out", b, "in").unwrap();
        m.link(b, "out", c, "in").unwrap();
        m.link(c, "out", d, "in").unwrap();
        m.link(d, "out", sink, "in").unwrap();
        let groups = plan(&m);
        // a alone is length 1 (no group); c -> d fuses.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![3, 4]);
    }

    #[test]
    fn explicit_fifo_override_is_a_barrier() {
        let mut m = RaftMap::new();
        let src = m.add(Src);
        let a = m.add(AddOne);
        let b = m.add(AddOne);
        let sink = m.add(Sink);
        m.link(src, "out", a, "in").unwrap();
        m.link_with(a, "out", b, "in", FifoConfig::fixed(8))
            .unwrap();
        m.link(b, "out", sink, "in").unwrap();
        assert!(plan(&m).is_empty());
    }

    #[test]
    fn mismatched_policies_split_the_chain() {
        let mut m = chain(2);
        // members are kernels 1 and 2
        m.supervise(crate::map::KernelId(1), SupervisorPolicy::restart(3));
        assert!(plan(&m).is_empty());
        // identical restart budgets merge again
        m.supervise(crate::map::KernelId(2), SupervisorPolicy::restart(3));
        assert_eq!(plan(&m).len(), 1);
        // Skip never fuses
        m.supervise(crate::map::KernelId(1), SupervisorPolicy::Skip);
        assert!(plan(&m).is_empty());
    }

    #[test]
    fn apply_rewrites_kernels_and_links() {
        let mut m = chain(3);
        assert_eq!(m.kernel_count(), 5);
        assert_eq!(m.link_count(), 4);
        let infos = apply(&mut m, 64);
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].members.len(), 3);
        // src -> fused -> sink
        assert_eq!(m.kernel_count(), 3);
        assert_eq!(m.link_count(), 2);
        assert!(m.kernels[1].name.starts_with("fused[add1+add1+add1]"));
        assert_eq!(m.links[0].src, 0);
        assert_eq!(m.links[0].dst, 1);
        assert_eq!(m.links[1].src, 1);
        assert_eq!(m.links[1].dst, 2);
    }
}
