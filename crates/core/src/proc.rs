//! Worker-*process* supervision: respawn, segment re-attach, and
//! cross-process recovery over shared-memory links.
//!
//! [`crate::supervise`] confines a panicking kernel; this module confines a
//! dying **process**. A [`ProcSupervisor`] owns a fleet of worker processes
//! (each typically this same binary re-executed with inherited memfd
//! descriptors, see `examples/xprocess_pipeline.rs`), watches each one
//! through a heartbeat eventcount in the shared segment header, and applies
//! the same `Abort`/`Skip`/`Restart` reaction surface as
//! [`SupervisorPolicy`] when a worker
//! crashes or wedges — kill, reap, revoke its shm role claims at the
//! generation it held, rewind its input ring to the commit word and sweep
//! what it left behind, and respawn with capped jittered backoff: the
//! replacement resumes exactly once from the uncommitted suffix.
//!
//! ## Watching in two gears
//!
//! Each worker gets one watcher thread on the segment's
//! [`Heartbeat`](raft_buffer::shm::Heartbeat) eventcount. In the **hot
//! gear** it only reads the beat counter (no arm, no futex): as long as
//! the count moved since the last look, it sleeps a whole slice — so on a
//! hot stream the worker's beats stay syscall-free (an unarmed beat never
//! issues `futex_wake`). Only after a full slice with *no* progress does
//! it shift to the **stall gear**: arm the eventcount and park on the
//! futex, where the worker's next beat wakes it immediately. The park is
//! *bounded* (a fraction of the wedge timeout) because a child's exit does
//! not wake a futex; the bounded wake doubles as the exit check, so a
//! crashed worker is reaped within one slice and a wedged one within one
//! wedge timeout. The kill path always follows `kill` with a blocking
//! `wait`, so a worker that exits concurrently with the deadline check is
//! reaped, never leaked as a zombie.
//!
//! ## Worker heartbeat contract
//!
//! The worker beats ([`Heartbeat::beat`](raft_buffer::shm::Heartbeat::beat))
//! at least once per wedge interval **including while idle** — a worker
//! that blocks indefinitely without beating is indistinguishable from a
//! wedged one and will be killed and respawned. Granularity above that
//! floor is the worker's choice: a beat is a `fetch_add` on the shared
//! header line and a `SeqCst` fence (plus a wake only while the watcher is
//! armed), so throughput-sensitive workers batch (e.g. one beat per 1 024
//! elements) and beat on every empty poll, while latency-insensitive ones
//! simply beat per iteration.
//!
//! ## What SIGKILL can and cannot lose
//!
//! Links registered on the [`WorkerSpec`] carry the recovery contract. A
//! [`DescLink`] re-delivers every element the dead worker consumed but did
//! not commit: a ring slot is reused only past the segment's commit word,
//! which the worker bumps *after* publishing each result, so recovery
//! rewinds the ring's head to it; descriptors' payload slots survive the
//! arena sweep while the ring still holds them. What SIGKILL *can* produce
//! is a duplicate result — a worker that died between publishing result
//! `n` and committing `n+1` re-emits it — which is why results carry their
//! sequence number and the parent deduplicates. It cannot lose an
//! uncommitted element, and it cannot corrupt the segment: everything the
//! dead worker held is keyed to a role generation that the revoke makes
//! stale.

use std::io;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raft_buffer::arena::DescriptorSender;
use raft_buffer::eventcount::block_until;
use raft_buffer::shm::ShmSegment;
use raft_buffer::{Blocking, EventCount, ThreadPark};
use raft_rng::Rng;

use crate::supervise::{KernelOutcome, SupervisorPolicy};

/// Builds the [`Command`] for spawn attempt `attempt` (0 for the first
/// spawn, then 1, 2, … per respawn). The attempt number lets a factory
/// vary the command per retry — different verbosity, a replacement binary —
/// which is what `Replace` means at process scope.
type CommandFactory = Box<dyn FnMut(u32) -> Command + Send>;

/// What the supervisor does when a worker process crashes or wedges —
/// the process-scope mirror of [`SupervisorPolicy`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcPolicy {
    /// Fail fast: mark the worker [`KernelOutcome::Aborted`], write its
    /// close flags so blocked peers unpark, and leave the fleet.
    Abort,
    /// Drop the worker but keep the pipeline alive: its close flags are
    /// written (EoS propagates to the peers) and it is reported as
    /// [`KernelOutcome::Skipped`].
    Skip,
    /// Kill/reap, revoke the dead worker's shm roles, recover the links,
    /// and respawn via the worker's command factory ([`WorkerSpec::new`]) —
    /// up to `max_restarts` times, sleeping a jittered
    /// `backoff * 2^attempt` (capped at 1 s) between attempts. Exhausting
    /// the budget escalates to [`KernelOutcome::Aborted`]. Every respawn is
    /// built fresh by the factory, so this also covers `Replace` semantics.
    Restart {
        /// Maximum respawns before giving up.
        max_restarts: u32,
        /// Base delay between attempts (doubled each attempt, jittered).
        backoff: Duration,
    },
}

/// Base respawn backoff of [`ProcPolicy::restart`].
const DEFAULT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a worker may go without a heartbeat before the supervisor kills
/// it as wedged, unless [`WorkerSpec::wedge_timeout`] says otherwise.
const DEFAULT_WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

impl ProcPolicy {
    /// Restart up to `max_restarts` times with a 10 ms base backoff.
    pub fn restart(max_restarts: u32) -> Self {
        ProcPolicy::Restart {
            max_restarts,
            backoff: DEFAULT_BACKOFF,
        }
    }

    /// Backoff before respawn attempt `attempt` (0-based), doubling per
    /// attempt and saturating at 1 s — same curve as the kernel-scope
    /// policy.
    fn backoff_for(&self, attempt: u32) -> Duration {
        let ProcPolicy::Restart { backoff, .. } = self else {
            return Duration::ZERO;
        };
        backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(Duration::from_secs(1))
    }
}

impl Default for ProcPolicy {
    /// Restart up to 3 times.
    fn default() -> Self {
        ProcPolicy::restart(3)
    }
}

impl From<&SupervisorPolicy> for ProcPolicy {
    /// Project the kernel-scope policy onto process scope. `Replace` maps
    /// to `Restart`: a respawned process is *always* built fresh by the
    /// command factory (there is no in-place state to re-enter), so the
    /// two variants coincide here.
    fn from(p: &SupervisorPolicy) -> ProcPolicy {
        match p {
            SupervisorPolicy::Abort => ProcPolicy::Abort,
            SupervisorPolicy::Skip => ProcPolicy::Skip,
            SupervisorPolicy::Restart {
                max_restarts,
                backoff,
            }
            | SupervisorPolicy::Replace {
                max_restarts,
                backoff,
                ..
            } => ProcPolicy::Restart {
                max_restarts: *max_restarts,
                backoff: *backoff,
            },
        }
    }
}

/// Jitter `d` into `[0.75 d, 1.25 d)` so a fleet of workers crashing
/// together does not respawn in lockstep. Drawn from a per-process,
/// per-attempt salt — deterministic enough to test, varied enough to
/// de-synchronize.
fn jittered(d: Duration, salt: u64) -> Duration {
    d.mul_f64(Rng::new(salt).range(0.75..1.25))
}

/// One shared-memory attachment the worker holds, with the producer-side
/// recovery hooks the supervisor drives around a respawn.
///
/// Reap sequence per dead worker (after kill + blocking reap):
/// 1. every segment's worker-side close flag is written and both wakers
///    are notified in full (the SIGKILL'd worker never ran its drop glue —
///    this unparks blocked peers promptly under *every* policy);
/// 2. *(restart only)* each role the worker held is revoked at the
///    generation currently in the word ([`ShmSegment::revoke_role`] —
///    a mismatch means the role is not the dead worker's to take and the
///    worker is aborted instead), then [`ProcLink::prepare_respawn`]
///    recovers each link — for a [`DescLink`], rewind the ring to the
///    commit word and sweep orphaned arena slots;
/// 3. *(restart only)* close flags are cleared
///    ([`ShmSegment::reopen_role`]) and the replacement is spawned; it
///    reads the uncommitted suffix from the rewound ring.
pub trait ProcLink: Send {
    /// The segments this link spans, with the role the **worker** holds on
    /// each (`true` = producer side).
    fn segments(&self) -> Vec<(Arc<ShmSegment>, bool)>;

    /// Recover producer-side state after the dead worker is reaped and its
    /// roles revoked; called before the respawn. Default: nothing to do.
    fn prepare_respawn(&mut self) {}
}

/// A descriptor ring + payload arena pair whose consumer sides live in the
/// worker (see [`DescriptorSender`]).
pub struct DescLink {
    sender: Arc<Mutex<DescriptorSender>>,
    /// Ring and arena segments, read once in `new`: a `send_bytes` waiting
    /// for the worker's commit holds the sender lock.
    segments: [Arc<ShmSegment>; 2],
}

impl DescLink {
    /// Supervise the worker-consumed descriptor link behind `sender`.
    pub fn new(sender: Arc<Mutex<DescriptorSender>>) -> Self {
        let s = sender.lock().expect("link lock");
        let segments = [s.ring_segment_shared(), s.arena_segment_shared()];
        drop(s);
        DescLink { sender, segments }
    }
}

impl ProcLink for DescLink {
    fn segments(&self) -> Vec<(Arc<ShmSegment>, bool)> {
        let [ring, arena] = &self.segments;
        vec![(ring.clone(), false), (arena.clone(), false)]
    }

    fn prepare_respawn(&mut self) {
        self.sender.lock().expect("link lock").begin_recovery();
    }
}

/// A bare segment with no journal — e.g. a result ring the worker
/// *produces* into. Recovery is role bookkeeping only; anything the dead
/// worker published but the parent had not popped is still in the ring
/// (drained normally), and anything unpublished never became visible.
pub struct SegmentLink {
    seg: Arc<ShmSegment>,
    worker_is_producer: bool,
}

impl SegmentLink {
    /// Supervise `seg`, on which the worker holds the producer
    /// (`worker_is_producer = true`) or consumer role.
    pub fn new(seg: Arc<ShmSegment>, worker_is_producer: bool) -> Self {
        SegmentLink {
            seg,
            worker_is_producer,
        }
    }
}

impl ProcLink for SegmentLink {
    fn segments(&self) -> Vec<(Arc<ShmSegment>, bool)> {
        vec![(self.seg.clone(), self.worker_is_producer)]
    }
}

/// Everything the supervisor needs to run one worker: how to spawn it,
/// which shm links it holds, where its heartbeat lives, and how to react
/// when it dies.
pub struct WorkerSpec {
    name: String,
    factory: CommandFactory,
    links: Vec<Box<dyn ProcLink>>,
    heartbeat: Option<Arc<ShmSegment>>,
    policy: ProcPolicy,
    wedge_timeout: Duration,
}

impl WorkerSpec {
    /// A worker called `name`, spawned by `factory` (which receives the
    /// attempt number: 0 first, then 1, 2, … per respawn). The policy
    /// defaults to [`ProcPolicy::default`], the wedge timeout to 30 s.
    pub fn new(
        name: impl Into<String>,
        factory: impl FnMut(u32) -> Command + Send + 'static,
    ) -> Self {
        WorkerSpec {
            name: name.into(),
            factory: Box::new(factory),
            links: Vec::new(),
            heartbeat: None,
            policy: ProcPolicy::default(),
            wedge_timeout: DEFAULT_WEDGE_TIMEOUT,
        }
    }

    /// React to crashes/wedges with `policy` (accepts a
    /// [`SupervisorPolicy`] reference via `From`).
    pub fn policy(mut self, policy: impl Into<ProcPolicy>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Kill the worker as wedged after `timeout` without a heartbeat.
    pub fn wedge_timeout(mut self, timeout: Duration) -> Self {
        self.wedge_timeout = timeout;
        self
    }

    /// Register a link for reap/recovery handling.
    pub fn link(mut self, link: impl ProcLink + 'static) -> Self {
        self.links.push(Box::new(link));
        self
    }

    /// Watch the heartbeat words of `seg` (usually the worker's input ring
    /// segment). Without one, wedge detection is disabled and the watcher
    /// falls back to bounded sleeps between exit checks.
    pub fn heartbeat_on(mut self, seg: Arc<ShmSegment>) -> Self {
        self.heartbeat = Some(seg);
        self
    }
}

/// Per-worker outcome, reported through
/// [`ExeReport::procs`](crate::runtime::ExeReport::procs).
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Worker name from its [`WorkerSpec`].
    pub name: String,
    /// How supervision ended, on the same scale as kernel supervision.
    pub outcome: KernelOutcome,
    /// Abnormal exits observed (including wedge kills).
    pub crashes: u32,
    /// Heartbeat stalls that led to a kill.
    pub wedges: u32,
    /// Successful respawns.
    pub respawns: u32,
    /// Last observed exit code (`None`: killed by signal).
    pub last_status: Option<i32>,
}

struct Shared {
    reports: Mutex<Vec<Option<ProcReport>>>,
    /// Notified after every report is written; [`ProcSupervisor::join`]
    /// sleeps on it.
    done: EventCount<ThreadPark>,
    halt: AtomicBool,
    /// Raised when any worker reaches a terminal outcome (its watcher
    /// ended) — see [`ProcSupervisor::terminal_flag`].
    terminal: Arc<AtomicBool>,
}

struct WorkerHandle {
    name: String,
    child: Arc<Mutex<Option<Child>>>,
    thread: Option<JoinHandle<()>>,
}

/// Supervises a fleet of worker processes over shared-memory links. See
/// the module docs for the protocol; `examples/xprocess_pipeline.rs` for
/// the end-to-end shape.
#[derive(Default)]
pub struct ProcSupervisor {
    shared: Arc<Shared>,
    workers: Vec<WorkerHandle>,
}

impl Default for Shared {
    fn default() -> Self {
        Shared {
            reports: Mutex::new(Vec::new()),
            done: EventCount::default(),
            halt: AtomicBool::new(false),
            terminal: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl ProcSupervisor {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawn `spec`'s first attempt and start its watcher thread.
    pub fn spawn(&mut self, mut spec: WorkerSpec) -> io::Result<()> {
        let child = (spec.factory)(0).spawn()?;
        let slot = {
            let mut reports = self.shared.reports.lock().expect("reports lock");
            reports.push(None);
            reports.len() - 1
        };
        let child = Arc::new(Mutex::new(Some(child)));
        let name = spec.name.clone();
        let shared = self.shared.clone();
        let child_for_thread = child.clone();
        let thread = std::thread::Builder::new()
            .name(format!("raft-proc:{name}"))
            .spawn(move || watch(spec, slot, child_for_thread, shared))
            .expect("spawn watcher thread");
        self.workers.push(WorkerHandle {
            name,
            child,
            thread: Some(thread),
        });
        Ok(())
    }

    /// Number of workers spawned into the fleet.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// `true` when no workers were spawned.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// A flag raised when **any** worker reaches a terminal outcome —
    /// completed, skipped, or aborted — i.e. that worker will never be
    /// respawned again. Kernels feeding the fleet poll it to stop
    /// retrying a `Busy` send that can no longer succeed (a `Busy` during
    /// a *restart* window clears on its own; one after a terminal outcome
    /// never does). In a single-worker fleet this is exactly the "give
    /// up" signal; in larger fleets it is conservative.
    pub fn terminal_flag(&self) -> Arc<AtomicBool> {
        self.shared.terminal.clone()
    }

    /// Wait up to `timeout` for every worker to reach an outcome, then
    /// return the per-worker reports in spawn order. Workers still running
    /// at the deadline are killed, reaped, and reported as
    /// [`KernelOutcome::Aborted`].
    pub fn join(mut self, timeout: Duration) -> Vec<ProcReport> {
        // Every report is followed by a fenced `notify`, so nothing is ever
        // rescued here; the record is not reported.
        let record = Blocking::default();
        let all_in = || {
            let reports = self.shared.reports.lock().expect("reports lock");
            reports.iter().all(Option::is_some).then_some(())
        };
        let _ = block_until(&self.shared.done, &record, Some(timeout), || false, all_in);
        self.shutdown();
        let reports = std::mem::take(&mut *self.shared.reports.lock().expect("reports lock"));
        reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| ProcReport {
                    name: self
                        .workers
                        .get(i)
                        .map(|w| w.name.clone())
                        .unwrap_or_default(),
                    outcome: KernelOutcome::Aborted,
                    crashes: 0,
                    wedges: 0,
                    respawns: 0,
                    last_status: None,
                })
            })
            .collect()
    }

    /// Kill every worker now and wait for the watchers to finish.
    pub fn abort(&mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.halt.store(true, Relaxed);
        for w in &self.workers {
            kill_and_reap(&w.child);
        }
        for w in &mut self.workers {
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for ProcSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Kill (if still running) and *blocking-wait* the child. The wait after
/// the kill is unconditional, which closes the classic zombie race: a
/// worker that exits between the deadline check and the kill is reaped
/// here, not leaked until parent exit.
fn kill_and_reap(child: &Arc<Mutex<Option<Child>>>) -> Option<std::process::ExitStatus> {
    let mut guard = child.lock().expect("child lock");
    let mut c = guard.take()?;
    let _ = c.kill();
    c.wait().ok()
}

/// Write the dead worker's close flags and notify both futex wakers on
/// every segment it touched. A SIGKILL'd worker never runs its drop glue,
/// so without this a peer blocked on a full ring (or an empty result ring)
/// stays parked until its bounded-park backstop; with it, the peer unparks
/// promptly and observes EoS / closure.
fn write_close_flags(segments: &[(Arc<ShmSegment>, bool)]) {
    for (seg, worker_is_producer) in segments {
        if *worker_is_producer {
            seg.producer_closed()
                .store(1, std::sync::atomic::Ordering::Release);
        } else {
            seg.consumer_closed()
                .store(1, std::sync::atomic::Ordering::Release);
        }
        seg.producer_waker().notify();
        seg.consumer_waker().notify();
    }
}

/// Revoke every role the dead worker held, at the generation currently in
/// each word. Safe because the worker is dead and reaped: nothing else can
/// move a worker-side role word concurrently. An even word (the worker
/// died before claiming) needs no revoke. Returns `false` if any revoke is
/// refused — the role is not ours to take, so the worker must be aborted
/// rather than respawned over a live claim.
fn revoke_roles(segments: &[(Arc<ShmSegment>, bool)]) -> bool {
    for (seg, worker_is_producer) in segments {
        let gen = seg.role_generation(*worker_is_producer);
        if gen & 1 == 1 && seg.revoke_role(*worker_is_producer, gen).is_err() {
            return false;
        }
    }
    true
}

fn watch(spec: WorkerSpec, slot: usize, child: Arc<Mutex<Option<Child>>>, shared: Arc<Shared>) {
    let WorkerSpec {
        name,
        mut factory,
        mut links,
        heartbeat,
        policy,
        wedge_timeout,
    } = spec;
    let segments: Vec<(Arc<ShmSegment>, bool)> = links.iter().flat_map(|l| l.segments()).collect();
    // Bounded park slice: short enough to reap an exited child promptly,
    // long enough that an idle watcher costs a handful of wakes per second.
    let slice = (wedge_timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(200));

    let mut crashes = 0u32;
    let mut wedges = 0u32;
    let mut respawns = 0u32;
    let mut last_status: Option<i32> = None;
    let mut last_count = heartbeat.as_ref().map_or(0, |s| s.heartbeat().count());
    let mut last_progress = Instant::now();

    let outcome = 'run: loop {
        // Exit check first: a crash is actionable immediately.
        let exited = {
            let mut guard = child.lock().expect("child lock");
            match guard.as_mut() {
                Some(c) => match c.try_wait() {
                    Ok(Some(status)) => {
                        guard.take();
                        Some(status)
                    }
                    Ok(None) => None,
                    Err(_) => {
                        guard.take();
                        None
                    }
                },
                // Taken by abort()/Drop: the fleet is shutting down.
                None => break 'run KernelOutcome::Aborted,
            }
        };
        let crashed = match exited {
            Some(status) if status.success() => {
                last_status = status.code();
                break 'run if respawns > 0 {
                    KernelOutcome::Restarted(respawns)
                } else {
                    KernelOutcome::Completed
                };
            }
            Some(status) => {
                last_status = status.code();
                true
            }
            None if shared.halt.load(Relaxed) => {
                kill_and_reap(&child);
                break 'run KernelOutcome::Aborted;
            }
            // Heartbeat / wedge detection, in two gears. Hot gear: an
            // *unarmed* count read once per slice — a streaming worker's
            // beats stay syscall-free (beat only futex-wakes when armed)
            // and this thread sleeps through the traffic instead of waking
            // per element. Stall gear: only when a whole slice passed with
            // no progress does the watcher arm and futex-park, so a
            // recovering worker's very next beat wakes it immediately.
            None => match &heartbeat {
                Some(seg) => {
                    let hb = seg.heartbeat();
                    let count = hb.count();
                    if count != last_count {
                        last_count = count;
                        last_progress = Instant::now();
                        std::thread::sleep(slice);
                        continue 'run;
                    }
                    let epoch = hb.arm();
                    if epoch != last_count {
                        hb.disarm();
                        last_count = epoch;
                        last_progress = Instant::now();
                        continue 'run;
                    }
                    if last_progress.elapsed() < wedge_timeout {
                        hb.wait(epoch, slice);
                        hb.disarm();
                        false
                    } else {
                        // Wedged: kill, reap, and take the crash path below.
                        hb.disarm();
                        wedges += 1;
                        if let Some(status) = kill_and_reap(&child) {
                            last_status = status.code();
                        }
                        true
                    }
                }
                None => {
                    std::thread::sleep(slice);
                    false
                }
            },
        };
        if crashed {
            crashes += 1;
            match crash_reaction(
                &policy,
                respawns,
                &segments,
                &mut links,
                &mut factory,
                &child,
                &shared,
            ) {
                Reaction::Respawned => {
                    respawns += 1;
                    last_progress = Instant::now();
                    last_count = heartbeat.as_ref().map_or(0, |s| s.heartbeat().count());
                }
                Reaction::Ended(outcome) => break 'run outcome,
            }
        }
    };

    // An aborted worker is gone for good, however it ended (shutdown, halt,
    // or a crash the policy would not respawn): its peers must not wait on.
    if outcome == KernelOutcome::Aborted {
        write_close_flags(&segments);
    }
    shared.terminal.store(true, Relaxed);
    shared.reports.lock().expect("reports lock")[slot] = Some(ProcReport {
        name,
        outcome,
        crashes,
        wedges,
        respawns,
        last_status,
    });
    shared.done.notify();
}

enum Reaction {
    Respawned,
    Ended(KernelOutcome),
}

/// Apply `policy` to a crash/wedge that has already been reaped.
fn crash_reaction(
    policy: &ProcPolicy,
    attempt: u32,
    segments: &[(Arc<ShmSegment>, bool)],
    links: &mut [Box<dyn ProcLink>],
    factory: &mut CommandFactory,
    child: &Arc<Mutex<Option<Child>>>,
    shared: &Arc<Shared>,
) -> Reaction {
    // Under every policy: unblock the peers the dead worker was wired to.
    write_close_flags(segments);
    let max_restarts = match policy {
        ProcPolicy::Abort => return Reaction::Ended(KernelOutcome::Aborted),
        ProcPolicy::Skip => return Reaction::Ended(KernelOutcome::Skipped),
        ProcPolicy::Restart { max_restarts, .. } => *max_restarts,
    };
    if attempt >= max_restarts {
        return Reaction::Ended(KernelOutcome::Aborted);
    }
    // Reclaim the dead worker's roles; refusal means the role moved under
    // us (not ours to take) — treat as fatal rather than fight over it.
    if !revoke_roles(segments) {
        return Reaction::Ended(KernelOutcome::Aborted);
    }
    for link in links.iter_mut() {
        link.prepare_respawn();
    }
    let salt = u64::from(std::process::id()) ^ (u64::from(attempt) << 32);
    std::thread::sleep(jittered(policy.backoff_for(attempt), salt));
    if shared.halt.load(Relaxed) {
        return Reaction::Ended(KernelOutcome::Aborted);
    }
    for (seg, worker_is_producer) in segments {
        seg.reopen_role(*worker_is_producer);
    }
    match factory(attempt + 1).spawn() {
        Ok(c) => {
            *child.lock().expect("child lock") = Some(c);
        }
        Err(_) => return Reaction::Ended(KernelOutcome::Aborted),
    }
    Reaction::Respawned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn policy_projection_from_kernel_scope() {
        assert_eq!(
            ProcPolicy::from(&SupervisorPolicy::Abort),
            ProcPolicy::Abort
        );
        assert_eq!(ProcPolicy::from(&SupervisorPolicy::Skip), ProcPolicy::Skip);
        let r = ProcPolicy::from(&SupervisorPolicy::restart_with_backoff(
            4,
            Duration::from_millis(7),
        ));
        assert_eq!(
            r,
            ProcPolicy::Restart {
                max_restarts: 4,
                backoff: Duration::from_millis(7)
            }
        );
        // Replace coincides with Restart at process scope.
        let rep = ProcPolicy::from(&SupervisorPolicy::replace(2, || unreachable!()));
        assert!(matches!(
            rep,
            ProcPolicy::Restart {
                max_restarts: 2,
                ..
            }
        ));
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_in_band() {
        let p = ProcPolicy::Restart {
            max_restarts: 8,
            backoff: Duration::from_millis(2),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(16));
        assert_eq!(p.backoff_for(30), Duration::from_secs(1));
        for salt in 0..64u64 {
            let j = jittered(Duration::from_millis(100), salt);
            assert!(j >= Duration::from_millis(75) && j < Duration::from_millis(125));
        }
    }

    #[test]
    fn desc_link_segments_need_no_sender_lock() {
        let (ring, _worker) = raft_buffer::ShmRing::<raft_buffer::Descriptor>::pair(2);
        let (tx, _rx) = raft_buffer::ShmArena::pair(2, 8);
        let sender = Arc::new(Mutex::new(DescriptorSender::new(tx, ring, 0)));
        let link = DescLink::new(sender.clone());
        // A send waiting on a commit-full ring holds the lock like this.
        let _held = sender.lock().unwrap();
        let (done, got) = std::sync::mpsc::channel();
        // Joined only once it answered: a call that waits on the lock fails
        // the check instead of hanging the test.
        let asking = std::thread::spawn(move || done.send(link.segments().len()));
        assert_eq!(got.recv_timeout(Duration::from_secs(1)), Ok(2));
        asking.join().unwrap().unwrap();
    }

    #[test]
    fn clean_exit_reports_completed() {
        let mut sup = ProcSupervisor::new();
        sup.spawn(WorkerSpec::new("ok", |_| sh("exit 0")).policy(ProcPolicy::Abort))
            .unwrap();
        let reports = sup.join(Duration::from_secs(10));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, KernelOutcome::Completed);
        assert_eq!(reports[0].crashes, 0);
        assert_eq!(reports[0].last_status, Some(0));
    }

    #[test]
    fn restart_budget_exhaustion_escalates_to_abort() {
        let mut sup = ProcSupervisor::new();
        sup.spawn(
            WorkerSpec::new("crasher", |_| sh("exit 3"))
                .policy(ProcPolicy::Restart {
                    max_restarts: 2,
                    backoff: Duration::from_millis(1),
                })
                .wedge_timeout(Duration::from_millis(100)),
        )
        .unwrap();
        let reports = sup.join(Duration::from_secs(20));
        assert_eq!(reports[0].outcome, KernelOutcome::Aborted);
        // First run + 2 respawns all crashed.
        assert_eq!(reports[0].crashes, 3);
        assert_eq!(reports[0].respawns, 2);
        assert_eq!(reports[0].last_status, Some(3));
    }

    #[test]
    fn skip_policy_reports_skipped() {
        let mut sup = ProcSupervisor::new();
        sup.spawn(
            WorkerSpec::new("skippee", |_| sh("exit 1"))
                .policy(ProcPolicy::Skip)
                .wedge_timeout(Duration::from_millis(100)),
        )
        .unwrap();
        let reports = sup.join(Duration::from_secs(10));
        assert_eq!(reports[0].outcome, KernelOutcome::Skipped);
        assert_eq!(reports[0].crashes, 1);
    }

    #[test]
    fn recovery_succeeds_on_a_later_attempt() {
        // Attempt 0 crashes; attempt 1 exits clean → Restarted(1).
        let mut sup = ProcSupervisor::new();
        sup.spawn(
            WorkerSpec::new("flaky", |attempt| {
                if attempt == 0 {
                    sh("exit 9")
                } else {
                    sh("exit 0")
                }
            })
            .policy(ProcPolicy::Restart {
                max_restarts: 3,
                backoff: Duration::from_millis(1),
            })
            .wedge_timeout(Duration::from_millis(100)),
        )
        .unwrap();
        let reports = sup.join(Duration::from_secs(20));
        assert_eq!(reports[0].outcome, KernelOutcome::Restarted(1));
        assert_eq!(reports[0].crashes, 1);
        assert_eq!(reports[0].respawns, 1);
    }

    #[test]
    fn wedge_kill_applies_policy() {
        // A worker that sleeps forever with no heartbeat segment would
        // never be killed; with one (that nobody beats), the wedge timer
        // fires and the policy applies.
        let seg = Arc::new(raft_buffer::shm::ShmSegment::create_heap(
            raft_buffer::shm::SEG_KIND_RING,
            8,
            8,
            8,
            64,
        ));
        let mut sup = ProcSupervisor::new();
        sup.spawn(
            WorkerSpec::new("wedged", |_| sh("sleep 30"))
                .policy(ProcPolicy::Skip)
                .heartbeat_on(seg)
                .wedge_timeout(Duration::from_millis(200)),
        )
        .unwrap();
        let t0 = Instant::now();
        let reports = sup.join(Duration::from_secs(20));
        assert_eq!(reports[0].outcome, KernelOutcome::Skipped);
        assert_eq!(reports[0].wedges, 1);
        assert!(reports[0].last_status.is_none(), "killed by signal");
        assert!(
            t0.elapsed() < Duration::from_secs(15),
            "did not wait out the sleep"
        );
    }
}
