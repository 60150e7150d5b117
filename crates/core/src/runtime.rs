//! `exe()` — validation, parallelization planning, stream allocation,
//! execution, and the final report.
//!
//! The paper (§4): "When the user runs the exe() function of map object, the
//! graph is first checked to ensure it is fully connected, then type
//! checking is performed across each link. Before a link allocation type is
//! selected ... each kernel is mapped to a resource. ... Once memory is
//! allocated for each link, a thread continuously monitors all the queues
//! within the system and reallocates them as needed."
//!
//! Type checking already happened at `link` time; this module performs the
//! remaining steps in order: connectivity validation → automatic
//! parallelization (replica expansion with split/reduce insertion) → FIFO
//! allocation → monitor start → scheduling → join → report.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raft_buffer::fifo::Monitorable;
use raft_buffer::{LinkAlloc, StatsSnapshot, HIST_BUCKETS};

use crate::analysis::replication::{replication_links, requested_width};
use crate::error::ExeError;
use crate::kernel::Kernel;
use crate::map::{KernelEntry, LinkEntry, RaftMap};
use crate::monitor::{self, HealthTarget, ResizeEvent, WatchdogEvent, WidthEvent, WidthTarget};
use crate::parallel::WidthControl;
use crate::port::{Context, InEnd, OutEnd};
use crate::scheduler::{thread_per_kernel, KernelRunner, KernelTelemetry, SchedulerKind};
use crate::stealing::work_stealing;
use crate::supervise::KernelOutcome;

/// Final statistics of one stream.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// `src.port -> dst.port`.
    pub name: String,
    /// Snapshot at shutdown.
    pub stats: StatsSnapshot,
    /// Which allocator actually backed this link's element storage
    /// (the configured choice after fallbacks — a link configured `Shm`
    /// on a platform without `memfd` reports `Heap`).
    pub alloc: LinkAlloc,
}

/// Final statistics of one kernel.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Display name.
    pub name: String,
    /// Completed `run()` calls.
    pub runs: u64,
    /// Time spent inside `run()`, the sum of `service_hist` — exact when
    /// `timed_runs == runs`, otherwise the scheduler's sampled estimate: every
    /// run is timed while runs are few (the first 64) or slow (≥ ~4 µs), else
    /// one run in 64 stands for its stride, so the estimate is biased low for
    /// a kernel whose rare slow runs hide among fast ones.
    pub busy: Duration,
    /// How many of the `runs` were actually timed to back `busy`.
    pub timed_runs: u64,
    /// `busy` as ns per run by log2 bucket, weighted as `busy` is.
    pub service_hist: [u64; HIST_BUCKETS],
    /// `true` if this kernel panicked at least once (even if a restart
    /// later recovered it).
    pub panicked: bool,
    /// How execution ended: completed, restarted N times, skipped, or
    /// aborted (see [`SupervisorPolicy`](crate::supervise::SupervisorPolicy)).
    pub outcome: KernelOutcome,
    /// Journal transactions committed (zero for kernels without journaled
    /// links).
    pub commits: u64,
    /// Journal rewinds — each one is a panicked `run()` whose in-flight
    /// elements were re-queued and replayed instead of lost.
    pub rewinds: u64,
}

/// Why the runtime raised the drain ladder. Every stop reason is one of
/// these and enters the ladder the same way (`Shutdown::request`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainReason {
    /// A [`StopHandle`](crate::map::StopHandle) requested it.
    Caller,
    /// The `exe_with_timeout` deadline elapsed.
    Deadline,
    /// A `run()` invocation exceeded
    /// [`MonitorConfig::run_budget`](crate::monitor::MonitorConfig::run_budget).
    RunBudget,
    /// No stream moved for
    /// [`MonitorConfig::stall_timeout`](crate::monitor::MonitorConfig::stall_timeout).
    Stalled,
    /// An `Abort`-policy kernel panicked; `exe()` will return
    /// [`ExeError::KernelPanicked`].
    KernelPanicked,
    /// Level 1 did not finish the graph within
    /// [`MapConfig`](crate::map::MapConfig)`::drain_grace`; the runtime
    /// escalated to level 2 on its own.
    GraceExpired,
}

/// [`DrainReason`] by discriminant, for unpacking a request word.
const REASONS: [DrainReason; 6] = [
    DrainReason::Caller,
    DrainReason::Deadline,
    DrainReason::RunBudget,
    DrainReason::Stalled,
    DrainReason::KernelPanicked,
    DrainReason::GraceExpired,
];

/// One rung of the drain ladder being applied to the live graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainEvent {
    /// When it fired, relative to execution start.
    pub at: Duration,
    /// The level applied: 1 = draining (sources stop), 2 = quiesced
    /// (FIFOs fail fast).
    pub level: u8,
    /// What triggered it.
    pub reason: DrainReason,
}

/// The graph's one shutdown word pair, shared by every [`Context`], each
/// [`StopHandle`](crate::map::StopHandle) and the control thread.
///
/// Anyone may *request* a ladder level; only the control thread
/// ([`crate::monitor`]) *applies* one — to this word and to every FIFO —
/// and it alone escalates level 1 to level 2 when the grace period runs
/// out. Kernels read the applied level. Neither word publishes other data,
/// so every access is relaxed.
#[derive(Debug, Default)]
pub(crate) struct Shutdown {
    /// Highest request so far as `level << 4 | reason`, raised with
    /// `fetch_max`: a higher level always wins, and between two reasons for
    /// the same level the later-declared [`DrainReason`] is the one logged.
    /// `FINISHED` once the scheduler returned.
    requested: AtomicU8,
    /// The level in force: 0 running, 1 draining, 2 quiesced.
    applied: AtomicU8,
}

/// `requested` value that tells the control thread the run is over.
const FINISHED: u8 = u8::MAX;

impl Shutdown {
    /// Ask for ladder `level` (monotonic; a lower request is a no-op).
    pub(crate) fn request(&self, level: u8, reason: DrainReason) {
        self.requested
            .fetch_max(level << 4 | reason as u8, Ordering::Relaxed);
    }

    /// The highest level requested and why, or `None` once [`finish`]ed.
    ///
    /// [`finish`]: Shutdown::finish
    pub(crate) fn requested(&self) -> Option<(u8, DrainReason)> {
        let word = self.requested.load(Ordering::Relaxed);
        (word != FINISHED).then(|| (word >> 4, REASONS[usize::from(word & 0xf)]))
    }

    /// The scheduler returned: release the control thread.
    pub(crate) fn finish(&self) {
        self.requested.store(FINISHED, Ordering::Relaxed);
    }

    /// Put `level` in force. Control thread only.
    pub(crate) fn apply(&self, level: u8) {
        self.applied.store(level, Ordering::Relaxed);
    }

    /// The level in force.
    pub(crate) fn level(&self) -> u8 {
        self.applied.load(Ordering::Relaxed)
    }
}

/// Everything `exe()` reports back (the paper's observable statistics:
/// queue occupancy, service rates, throughput, histograms, resize log).
#[derive(Debug, Clone)]
pub struct ExeReport {
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-stream statistics.
    pub edges: Vec<EdgeReport>,
    /// Per-kernel statistics.
    pub kernels: Vec<KernelReport>,
    /// Dynamic resize log.
    pub resize_events: Vec<ResizeEvent>,
    /// Dynamic replication-width log.
    pub width_events: Vec<WidthEvent>,
    /// Deadline/stall watchdog firings (armed via
    /// [`MonitorConfig::run_budget`](crate::monitor::MonitorConfig::run_budget) /
    /// [`MonitorConfig::stall_timeout`](crate::monitor::MonitorConfig::stall_timeout)).
    pub watchdog_events: Vec<WatchdogEvent>,
    /// Kernels that were expanded, with their replica counts.
    pub replicated: Vec<(String, u32)>,
    /// The `RC0009` replication-safety classification of every kernel in
    /// the pre-expansion graph: statelessness, replicability, planned
    /// width, and whether the kernel sits behind an out-of-order split
    /// (see [`KernelClassification`](crate::KernelClassification)).
    pub kernel_classes: Vec<crate::analysis::KernelClassification>,
    /// Per-worker scheduler telemetry (steals, parks, wake-to-run latency);
    /// empty for schedulers that don't report it.
    pub workers: Vec<crate::scheduler::WorkerReport>,
    /// Kernel chains the fusion pass collapsed into single batch-executed
    /// kernels, with per-group batch telemetry (empty when fusion is
    /// disabled or nothing was fusable). See
    /// [`FusionConfig`](crate::FusionConfig).
    pub fused: Vec<crate::analysis::fusion::FusedGroupReport>,
    /// Drain-ladder rungs applied during this execution (empty when the
    /// graph finished on its own).
    pub drain_events: Vec<DrainEvent>,
    /// Per-worker-**process** supervision outcomes. The in-process runtime
    /// never fills this itself — a caller running part of the graph in
    /// supervised worker processes ([`crate::proc::ProcSupervisor`])
    /// assigns the fleet's reports here so one report covers both scopes.
    pub procs: Vec<crate::proc::ProcReport>,
}

impl ExeReport {
    /// Total dynamic resizes across all streams.
    pub fn total_resizes(&self) -> u64 {
        self.edges.iter().map(|e| e.stats.resizes).sum()
    }

    /// Total elements that crossed all streams.
    pub fn total_items(&self) -> u64 {
        self.edges.iter().map(|e| e.stats.popped).sum()
    }

    /// Find an edge report whose name contains `needle`.
    pub fn edge(&self, needle: &str) -> Option<&EdgeReport> {
        self.edges.iter().find(|e| e.name.contains(needle))
    }

    /// Find a kernel report whose name contains `needle`.
    pub fn kernel(&self, needle: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.name.contains(needle))
    }

    /// Total elements redelivered from link journals after rewinds.
    pub fn total_replayed(&self) -> u64 {
        self.edges.iter().map(|e| e.stats.replayed).sum()
    }

    /// Total journal rewinds (recovery events) across all kernels.
    pub fn total_rewinds(&self) -> u64 {
        self.kernels.iter().map(|k| k.rewinds).sum()
    }
}

/// Execute a map to completion; if `deadline` elapses first, the run enters
/// the drain ladder ([`DrainReason::Deadline`]).
pub(crate) fn execute(mut map: RaftMap, deadline: Option<Duration>) -> Result<ExeReport, ExeError> {
    // Static analysis before anything is allocated or spawned: the lint
    // registry in `crate::check` (an empty map, connectivity, reachability,
    // cycles, capacity feasibility). Any Error-severity finding aborts —
    // turning would-be runtime hangs into fast, explained failures.
    let diagnostics = map.check();
    if diagnostics.iter().any(|d| d.is_error()) {
        return Err(ExeError::CheckFailed { diagnostics });
    }
    // Classify the user-visible graph before replica expansion rewrites it:
    // the report should speak about the kernels the user added, not the
    // split/reduce adapters the planner inserts.
    let kernel_classes = crate::analysis::classify(&map);
    // Fuse before replica expansion so the pass sees the user's graph (and
    // the expansion planner then sees the fused kernels — a fused group is
    // itself a stateless single-in/single-out kernel it may replicate).
    let fused_infos = if map.cfg.fusion.enabled {
        let batch = map.cfg.fusion.batch.max(1);
        crate::analysis::fusion::apply(&mut map, batch)
    } else {
        Vec::new()
    };
    let planned_splits = expand_replicas(&mut map);
    let replicated = planned_splits
        .iter()
        .map(|p| (p.original_name.clone(), p.width))
        .collect::<Vec<_>>();

    // --- allocate one FIFO per link -------------------------------------
    let n_kernels = map.kernels.len();
    let mut inputs_of: Vec<Vec<(String, Box<dyn InEnd>)>> =
        (0..n_kernels).map(|_| Vec::new()).collect();
    let mut outputs_of: Vec<Vec<(String, Box<dyn OutEnd>)>> =
        (0..n_kernels).map(|_| Vec::new()).collect();
    let mut edge_names: Vec<String> = Vec::new();
    let mut edge_fifos: Vec<Arc<dyn Monitorable>> = Vec::new();
    for link in &map.links {
        let src = &map.kernels[link.src];
        let dst = &map.kernels[link.dst];
        let out_def = &src.spec.outputs[link.src_port];
        let in_def = &dst.spec.inputs[link.dst_port];
        let (producer, consumer) = (out_def.fifo_factory)(link.fifo.unwrap_or(map.cfg.fifo));
        edge_names.push(format!(
            "{}.{} -> {}.{}",
            src.name, out_def.name, dst.name, in_def.name
        ));
        edge_fifos.push(consumer.link());
        outputs_of[link.src].push((out_def.name.clone(), producer));
        inputs_of[link.dst].push((in_def.name.clone(), consumer));
    }

    // --- width targets for the optimizer ---------------------------------
    let width_targets: Vec<WidthTarget> = planned_splits
        .into_iter()
        .filter_map(|p| {
            let input_edge = map
                .links
                .iter()
                .position(|l| l.dst == p.split_idx)
                .map(|i| edge_fifos[i].clone())?;
            let replica_inputs: Vec<Arc<dyn Monitorable>> = map
                .links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.src == p.split_idx)
                .map(|(i, _)| edge_fifos[i].clone())
                .collect();
            Some(WidthTarget {
                control: p.control,
                input: input_edge,
                replica_inputs,
                name: p.original_name,
            })
        })
        .collect();

    // --- contexts & runners ----------------------------------------------
    let shutdown = map.shutdown.clone();
    let mut runners = Vec::with_capacity(n_kernels);
    let mut telemetries = Vec::with_capacity(n_kernels);
    let mut names = Vec::with_capacity(n_kernels);
    for ((entry, inputs), outputs) in map.kernels.into_iter().zip(inputs_of).zip(outputs_of) {
        let KernelEntry {
            kernel,
            name,
            policy,
            ..
        } = entry;
        let ctx = Context::new(name.clone(), inputs, outputs, shutdown.clone());
        let telemetry = Arc::new(KernelTelemetry::default());
        telemetries.push(telemetry.clone());
        names.push(name.clone());
        runners.push(KernelRunner {
            name,
            kernel,
            ctx,
            telemetry,
            policy,
            restarts: 0,
            journal_uncommitted: 0,
            untimed_left: 0,
        });
    }

    // --- control thread ----------------------------------------------------
    // The run's one piece of control machinery (§4): resize, width and
    // watchdog work at δ, plus the drain ladder every stop reason enters.
    let monitor_fifos: Vec<(String, Arc<dyn Monitorable>)> = edge_names
        .iter()
        .cloned()
        .zip(edge_fifos.iter().cloned())
        .collect();
    let health_targets: Vec<HealthTarget> = names
        .iter()
        .zip(&telemetries)
        .map(|(name, t)| HealthTarget {
            name: name.clone(),
            telemetry: t.clone(),
        })
        .collect();
    let control = monitor::spawn(
        map.cfg.monitor.clone(),
        map.cfg.drain_grace,
        deadline,
        monitor_fifos,
        width_targets,
        health_targets,
        shutdown.clone(),
    );

    // --- run ---------------------------------------------------------------
    let started = Instant::now();
    let sched_out = match map.cfg.scheduler {
        SchedulerKind::ThreadPerKernel => thread_per_kernel(runners),
        SchedulerKind::Stealing { workers, pin } => {
            // §4.1's mapping gives each kernel its home worker; stealing
            // then rebalances dynamically.
            let placement = crate::mapper::place_on_workers(
                runners.len(),
                map.links.iter().map(|l| (l.src, l.dst)),
                workers,
            );
            work_stealing(runners, workers, pin, &placement)
        }
    };
    let outcomes = sched_out.outcomes;
    let workers = sched_out.workers;
    let elapsed = started.elapsed();
    shutdown.finish();
    let log = control.join().expect("control thread panicked");

    // --- report ------------------------------------------------------------
    let edges = edge_names
        .into_iter()
        .zip(edge_fifos.iter())
        .map(|(name, f)| EdgeReport {
            name,
            stats: f.snapshot(),
            alloc: f.link_alloc(),
        })
        .collect();
    // Fatal = an Abort-policy panic: those (and only those) fail `exe()`.
    // Panics absorbed by Skip/Restart/Replace policies surface through the
    // per-kernel outcomes instead — graceful degradation.
    let mut fatal: Vec<String> = outcomes
        .iter()
        .filter(|o| o.fatal)
        .map(|o| o.name.clone())
        .collect();
    // Concurrent panics land in scheduler-dependent order; sort so callers
    // (and tests) see a deterministic list.
    fatal.sort();
    let outcome_of = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.outcome)
            .unwrap_or(KernelOutcome::Completed)
    };
    let kernels = names
        .into_iter()
        .zip(telemetries)
        .map(|(name, t)| {
            let outcome = outcome_of(&name);
            KernelReport {
                runs: t.runs.load(Ordering::Relaxed),
                busy: Duration::from_nanos(t.service.sum()),
                timed_runs: t.timed_runs.load(Ordering::Relaxed),
                service_hist: t.service.buckets(),
                name,
                panicked: outcome.panicked(),
                outcome,
                commits: t.commits.load(Ordering::Relaxed),
                rewinds: t.rewinds.load(Ordering::Relaxed),
            }
        })
        .collect();

    let report = ExeReport {
        elapsed,
        edges,
        kernels,
        resize_events: log.resizes,
        width_events: log.widths,
        watchdog_events: log.watchdog,
        replicated,
        kernel_classes,
        workers,
        fused: fused_infos.iter().map(|i| i.report()).collect(),
        drain_events: log.drains,
        procs: Vec::new(),
    };
    if fatal.is_empty() {
        Ok(report)
    } else {
        Err(ExeError::KernelPanicked { kernels: fatal })
    }
}

struct PlannedSplit {
    split_idx: usize,
    width: u32,
    control: WidthControl,
    original_name: String,
}

/// Expand every eligible kernel into `width` replicas with split/reduce
/// adapters (§4.1). Mutates the map's kernel and link tables in place.
fn expand_replicas(map: &mut RaftMap) -> Vec<PlannedSplit> {
    let mut planned = Vec::new();
    let strategy = map.cfg.parallel.strategy;

    // Snapshot candidate list first; expansion appends kernels/links.
    let candidates: Vec<usize> = (0..map.kernels.len()).collect();
    for k in candidates {
        let width = requested_width(map, k);
        if width <= 1 {
            continue;
        }
        // Eligibility: the shape RC0009 reports on...
        let Some((in_idx, out_idx)) = replication_links(map, k) else {
            continue;
        };
        // ...and the kernel can produce replicas.
        let Some(first_replica) = map.kernels[k].kernel.clone_replica() else {
            continue;
        };

        let original_name = map.kernels[k].name.clone();
        let in_def = &map.kernels[k].spec.inputs[0];
        let out_def = &map.kernels[k].spec.outputs[0];
        let in_adapters = (in_def.adapters)();
        let out_adapters = (out_def.adapters)();

        // Build adapters.
        let (split_kernel, control) = (in_adapters.split)(width as usize, strategy);
        if let Some(start) = map.kernels[k].start_width {
            control.set(start);
        }
        let reduce_kernel = (out_adapters.reduce)(width as usize);
        let split_idx = push_kernel(map, split_kernel, &format!("{original_name}-split"));
        let reduce_idx = push_kernel(map, reduce_kernel, &format!("{original_name}-reduce"));

        // Replicas: the original kernel is replica 0; the eligibility clone
        // becomes replica 1 and further clones fill the rest.
        let mut first_replica = Some(first_replica);
        let mut replica_idxs = vec![k];
        for r in 1..width {
            let replica = match first_replica.take() {
                Some(fr) => fr,
                None => map.kernels[k]
                    .kernel
                    .clone_replica()
                    .expect("clone_replica became None mid-expansion"),
            };
            let idx = push_kernel(map, replica, &format!("{original_name}-r{r}"));
            map.kernels[idx].policy = map.kernels[k].policy.clone();
            replica_idxs.push(idx);
        }

        // Rewire: upstream -> split
        let (in_ordered, in_fifo) = (map.links[in_idx].ordered, map.links[in_idx].fifo);
        let (out_ordered, out_fifo) = (map.links[out_idx].ordered, map.links[out_idx].fifo);
        map.links[in_idx].dst = split_idx;
        map.links[in_idx].dst_port = 0; // split's single input "in"
                                        // downstream <- reduce
        map.links[out_idx].src = reduce_idx;
        map.links[out_idx].src_port = 0; // reduce's single output "out"

        // split.i -> replica_i.in ; replica_i.out -> reduce.i
        for (i, &ri) in replica_idxs.iter().enumerate() {
            map.links.push(LinkEntry {
                src: split_idx,
                src_port: i,
                dst: ri,
                dst_port: 0,
                ordered: in_ordered,
                fifo: in_fifo,
            });
            map.links.push(LinkEntry {
                src: ri,
                src_port: 0,
                dst: reduce_idx,
                dst_port: i,
                ordered: out_ordered,
                fifo: out_fifo,
            });
        }

        planned.push(PlannedSplit {
            split_idx,
            width,
            control,
            original_name,
        });
    }
    planned
}

fn push_kernel(map: &mut RaftMap, kernel: Box<dyn Kernel>, name: &str) -> usize {
    let spec = kernel.ports();
    map.kernels.push(KernelEntry {
        kernel,
        spec,
        name: format!("{name}#{}", map.kernels.len()),
        width_hint: None,
        start_width: None,
        service_rate: None,
        policy: crate::supervise::SupervisorPolicy::Abort,
        stateless: None,
    });
    map.kernels.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_word_unpacks_and_only_rises() {
        for (code, reason) in REASONS.iter().enumerate() {
            assert_eq!(*reason as usize, code, "REASONS is indexed by discriminant");
        }
        let s = Shutdown::default();
        assert_eq!(s.requested(), Some((0, DrainReason::Caller)));
        s.request(1, DrainReason::Stalled);
        s.request(1, DrainReason::Caller);
        assert_eq!(s.requested(), Some((1, DrainReason::Stalled)));
        s.request(2, DrainReason::Caller);
        s.request(1, DrainReason::GraceExpired);
        assert_eq!(s.requested(), Some((2, DrainReason::Caller)));
        assert_eq!(s.level(), 0, "requesting applies nothing");
        s.finish();
        s.request(2, DrainReason::GraceExpired);
        assert_eq!(s.requested(), None);
    }
}
