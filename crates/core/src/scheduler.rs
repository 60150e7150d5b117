//! Kernel scheduling.
//!
//! The paper: "The initial scheduling algorithm for threads and processes is
//! simply the default thread-level scheduler provided by the underlying
//! operating system. ... RaftLib, of course, allows the substitution of any
//! scheduler desired." (§4.1)
//!
//! Two schedulers ship, one function each, chosen by [`SchedulerKind`]:
//!
//! * [`thread_per_kernel`] — the paper's default and this runtime's
//!   reference semantics: every kernel is an independent execution unit (an
//!   OS thread); blocking port operations simply block that thread and the
//!   OS multiplexes.
//! * [`crate::stealing::work_stealing`] — a fixed pool of workers for graphs
//!   with more kernels than cores: readiness (data on every input, room on
//!   every output) arrives through the FIFOs' [`raft_buffer::WakerSlot`]s
//!   as O(1) task enqueues onto the kernel's home worker's run queue (homes
//!   seeded by the §4.1 mapper), a claim runs the kernel for a time slice,
//!   stealing when idle, adaptive spin → yield → park idling, optional core
//!   pinning.
//!
//! Both run kernels through the same lifecycle, which exists once in this
//! module: `drive` (ready-gate → `run()` inside the unwind guard →
//! supervision → journal transaction → wind-down → flush-on-idle) and
//! `retire` (fatal → drain ladder, drop the runner so EoS propagates, name
//! the outcome). A scheduler decides only *which* kernel a thread drives
//! next and what it does while none is runnable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raft_buffer::{fifo::Monitorable, LogHist};

use crate::kernel::{KStatus, Kernel};
use crate::port::Context;
use crate::runtime::DrainReason;
use crate::supervise::{KernelOutcome, SupervisorPolicy};

/// Which scheduler `exe()` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// One OS thread per kernel (the paper's default).
    ThreadPerKernel,
    /// Event-driven work-stealing pool: kernels become runnable through
    /// FIFO wakers (no occupancy polling) and run from per-worker FIFO run
    /// queues; idle workers steal before parking. The mapper's partition
    /// assignment (§4.1) gives each kernel a home worker, and a woken
    /// kernel is queued on its home worker's queue, so a kernel leaves its
    /// core only when an idle sibling steals it, and stream data crosses
    /// cores only on the links the partition cuts.
    Stealing {
        /// Number of worker threads.
        workers: usize,
        /// Pin worker `w` to core `w % cores` (Linux; best-effort no-op
        /// elsewhere) so placement survives OS migration.
        pin: bool,
    },
}

/// Per-kernel execution counters (service statistics for the optimizer and
/// health signals for the watchdog).
///
/// Single-writer: only the thread currently driving the kernel stores here
/// (relaxed load + store, never a locked read-modify-write — the idiom
/// `raft_buffer::stats` uses for `pushed`/`popped`), and the alignment keeps
/// the counters on a line no other kernel's driver writes; the monitor and
/// the final report only read. Under the stealing scheduler successive
/// drivers are ordered by the task claim hand-off.
///
/// `runs`, `entered`, `commits` and `rewinds` are exact. `service` is a
/// sampled service-time histogram (after Beard & Chamberlain's run-time
/// service-rate approximation): a run is timed while runs are few (the
/// first 64) or slow (the last timed run took ≥ ~4 µs, so the clock pair is
/// under ~2 % of it); otherwise one run in 64 is timed and recorded with
/// weight 64, standing for its whole stride. Its sum estimates the time
/// spent inside `run()` and its count the runs. A kernel whose runs are all
/// slow, or that runs only a handful of times, is measured exactly; a
/// kernel firing a million sub-microsecond runs pays one clock pair per 64.
/// The estimate is biased low for bimodal kernels: a rare slow run (one
/// that blocks on a port, say) inside an untimed stride is counted at the
/// stride's fast sample. `timed_runs` says how many runs back the estimate.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct KernelTelemetry {
    /// Number of completed `run()` invocations.
    pub runs: AtomicU64,
    /// Nanoseconds per timed `run()`, each weighted by the number of runs
    /// it stands for.
    pub service: LogHist,
    /// How many `run()` invocations were actually timed; `service` is exact
    /// when this equals `runs`.
    pub timed_runs: AtomicU64,
    /// Number of *entered* `run()` invocations. `entered > runs` means the
    /// kernel is inside `run()` right now; the monitor's deadline watchdog
    /// uses an unchanged `(entered, runs)` pair across its run-budget
    /// window as the "stuck inside one invocation" signal.
    pub entered: AtomicU64,
    /// Journal transactions committed: `run()` invocations whose consumed
    /// inputs were acknowledged and staged outputs published (only counted
    /// for kernels with at least one journaled link).
    pub commits: AtomicU64,
    /// Journal rewinds: panicked `run()` invocations whose in-flight
    /// elements were re-queued for replay and staged outputs discarded —
    /// each one is a recovery event the final report surfaces.
    pub rewinds: AtomicU64,
}

/// Everything needed to execute one kernel to completion.
pub struct KernelRunner {
    /// Display name.
    pub name: String,
    /// The kernel itself.
    pub kernel: Box<dyn Kernel>,
    /// Its bound ports.
    pub ctx: Context,
    /// Service counters.
    pub telemetry: Arc<KernelTelemetry>,
    /// What to do when `run()` panics (default: abort the map).
    pub policy: SupervisorPolicy,
    /// Restarts consumed so far under a `Restart`/`Replace` policy.
    pub restarts: u32,
    /// Successful runs since the last commit (the open journal
    /// transaction's size). A kernel with a journaled port folds
    /// `ctx.commit_every()` clean runs into one transaction — committed
    /// when it fills, rewound when a `Restart`/`Replace` policy absorbs a
    /// panic; a kernel without one (the overwhelmingly common case) skips
    /// the whole path.
    pub journal_uncommitted: u32,
    /// Runs left in the current sampling stride that go untimed; `0` = the
    /// next run is timed (the initial value).
    pub untimed_left: u32,
}

impl KernelRunner {
    /// Commit the open transaction: publish staged outputs, acknowledge
    /// consumed inputs.
    fn journal_commit(&mut self) {
        self.ctx.commit();
        self.journal_uncommitted = 0;
        bump(&self.telemetry.commits, 1);
    }

    /// Count one successful run into the open transaction, committing when
    /// the interval fills or an input holds half its ring.
    fn journal_tick(&mut self) {
        let every = self.ctx.commit_every();
        if every == 0 {
            return;
        }
        self.journal_uncommitted += 1;
        if self.journal_uncommitted >= every || self.ctx.inputs_half_held() {
            self.journal_commit();
        }
    }

    /// Commit whatever the open transaction holds — called whenever the
    /// kernel stops making progress (clean completion, wind-down, going
    /// idle in [`drive`]) so staged outputs never sit unpublished while the
    /// kernel waits.
    fn journal_flush(&mut self) {
        if self.journal_uncommitted > 0 {
            self.journal_commit();
        }
    }

    /// Abort the open transaction: re-queue consumed inputs for replay,
    /// discard staged outputs. The restarted kernel re-pops exactly the
    /// elements the failed (and any earlier uncommitted) invocations
    /// consumed, oldest first; none of their outputs were published.
    fn journal_rewind(&mut self) {
        if self.ctx.commit_every() == 0 {
            return;
        }
        self.ctx.rewind();
        self.journal_uncommitted = 0;
        bump(&self.telemetry.rewinds, 1);
    }
}

/// What happened to one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerOutcome {
    /// Kernel display name.
    pub name: String,
    /// How the kernel's execution ended.
    pub outcome: KernelOutcome,
    /// `true` when the failure must fail the whole map (an `Abort`-policy
    /// panic): the scheduler enters the drain ladder and `exe()` returns
    /// `ExeError::KernelPanicked`.
    pub fatal: bool,
}

/// Terminal result of [`step`] for one kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepDone {
    pub(crate) outcome: KernelOutcome,
    pub(crate) fatal: bool,
}

/// Per-worker execution telemetry reported by pool-style schedulers
/// (currently only [`SchedulerKind::Stealing`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Core this worker pinned itself to, if pinning was requested and
    /// succeeded.
    pub pinned_core: Option<usize>,
    /// Task claims executed (time slices, not kernel `run()` calls).
    pub runs: u64,
    /// Kernel `run()` calls made inside those claims.
    pub kernel_runs: u64,
    /// Tasks obtained by stealing from another worker's run queue.
    pub steals: u64,
    /// Times the worker parked after exhausting spin and yield budgets.
    pub parks: u64,
    /// Wake-to-run latency samples observed (tasks claimed that carried a
    /// waker timestamp; self-requeues don't count).
    pub woken_tasks: u64,
    /// Total wake-to-run latency across those samples, nanoseconds.
    pub wake_to_run_ns: u64,
    /// Idle-but-ready tasks re-queued by the park-timeout safety sweep —
    /// nonzero means a wakeup was delivered late by the net, not lost.
    pub rescues: u64,
}

/// Everything a scheduler hands back to `exe()`: one outcome per kernel
/// plus optional per-worker telemetry. Shutdown reaches the kernels through
/// their [`Context`]s.
#[derive(Debug, Default)]
pub struct SchedulerOutput {
    /// One entry per kernel.
    pub outcomes: Vec<RunnerOutcome>,
    /// Per-worker telemetry; empty for schedulers that don't track it.
    pub workers: Vec<WorkerReport>,
}

/// One round of a pool claim, in `run()` calls: a claim reads the clock
/// once per round, so a round is the floor of a claim's length; also a
/// fully journaled kernel's commit cadence (`Context::commit_every`).
pub(crate) const QUANTUM: u32 = 32;

/// How long a pool claim runs: it ends at the first round boundary past
/// this slice. Long enough that a fast kernel's claim is hundreds of runs,
/// amortizing the claim and its one task wake per link; short enough that
/// one busy kernel cannot starve its worker's queue. A slow kernel's claim
/// is one round.
pub(crate) const SLICE: Duration = Duration::from_micros(25);

/// The readiness rule, input side: data (or EoS, or a pending async signal
/// — e.g. the `Signal::Error` a panicked upstream posts with no
/// accompanying data) on the stream.
pub(crate) fn input_ready(f: &dyn Monitorable) -> bool {
    f.occupancy() > 0 || f.is_finished() || f.has_async()
}

/// The readiness rule: data on *all* inputs and room on *all* outputs
/// ([`Monitorable::has_room`]), so a well-behaved kernel (moving at most
/// one item per port per `run`) never blocks a pool worker inside a link,
/// on an empty queue or a full one. Sources need only room, sinks only
/// data. This form reads the shared ring counters afresh, for the stealing
/// scheduler's checks made off the kernel's own cursors (the wake filter,
/// the re-check after arming, the sweep); a gated [`drive`] asks the same
/// question through the cursors (`Context::ready`).
pub(crate) fn task_ready(
    inputs: &[Arc<dyn Monitorable>],
    outputs: &[Arc<dyn Monitorable>],
) -> bool {
    inputs.iter().all(|f| input_ready(&**f)) && outputs.iter().all(|f| f.has_room())
}

/// Why [`drive`] handed the kernel back.
pub(crate) enum Driven {
    /// The kernel stopped, was skipped, or failed for good: [`retire`] it.
    Done(StepDone),
    /// Some input is empty or some output full. The open journal
    /// transaction was flushed, so nothing staged sits unpublished while
    /// the kernel waits.
    Idle,
    /// The slice ran out with the kernel still ready.
    Yielded,
}

/// The kernel lifecycle bracket every scheduler runs kernels through.
///
/// `slice = None` is the thread-per-kernel form: the kernel owns its
/// thread, so there is no readiness gate (blocking port operations block)
/// and the call returns only [`Driven::Done`]. `Some(slice)` is the pool
/// form, one claim: readiness is checked before every `run()`, and the
/// runs go in rounds of [`QUANTUM`]; at each round boundary one clock read
/// ends the claim once `slice` has passed since it began, so the caller
/// learns whether to requeue the task or park it.
pub(crate) fn drive(runner: &mut KernelRunner, slice: Option<Duration>) -> Driven {
    let Some(slice) = slice else {
        loop {
            if let Some(done) = step(runner).or_else(|| stop_winddown(runner)) {
                return Driven::Done(done);
            }
        }
    };
    // When the claim ends, and runs left in this round.
    let (ends, mut left) = (now() + slice, QUANTUM);
    loop {
        if !runner.ctx.ready() {
            runner.journal_flush();
            return Driven::Idle;
        }
        if left == 0 {
            if now() >= ends {
                return Driven::Yielded;
            }
            left = QUANTUM;
        }
        left -= 1;
        if let Some(done) = step(runner).or_else(|| stop_winddown(runner)) {
            return Driven::Done(done);
        }
    }
}

/// Retire a kernel [`drive`] reported done: a fatal outcome enters the
/// drain ladder, and dropping the runner drops its [`Context`], closing
/// every endpoint — EoS propagates downstream (and fires the consumers'
/// wakers) even when `run()` panicked before its first push. The drop runs
/// user code (the kernel's `Drop`) inside an unwind guard of its own: a
/// panic there aborts the kernel, fatally, instead of killing the thread
/// that retires it.
pub(crate) fn retire(mut runner: KernelRunner, done: StepDone) -> RunnerOutcome {
    let shutdown = runner.ctx.shutdown.clone();
    let name = std::mem::take(&mut runner.name);
    let done = match catch_unwind(AssertUnwindSafe(|| drop(runner))) {
        Ok(()) => done,
        Err(_) => StepDone {
            outcome: KernelOutcome::Aborted,
            fatal: true,
        },
    };
    if done.fatal {
        shutdown.request(raft_buffer::DRAIN_DRAINING, DrainReason::KernelPanicked);
    }
    RunnerOutcome {
        name,
        outcome: done.outcome,
        fatal: done.fatal,
    }
}

/// The `service` sampling rule's two constants (see [`KernelTelemetry`]):
/// the first `SAMPLE_STRIDE` runs are all timed, then one run per
/// `SAMPLE_STRIDE` is — unless the last timed run took at least
/// `SLOW_RUN_NS`, which keeps the next one timed too.
const SAMPLE_STRIDE: u32 = 64;
const SLOW_RUN_NS: u64 = 4096;

#[cfg(test)]
thread_local! {
    /// Clock reads made by this thread through [`now`].
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The bracket's only clock, so a test can count its reads.
#[inline]
fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    Instant::now()
}

/// Single-writer increment: a relaxed load + store instead of a locked
/// `fetch_add` (see [`KernelTelemetry`]).
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One `run()` invocation. Returns `None` while the kernel wants more
/// (`Proceed`, or a panic the supervision policy absorbed), `Some(done)`
/// when it stopped, was skipped, or failed for good. Always inlined, into
/// both of [`drive`]'s loops: each scheduler's loop then compiles around
/// the whole bracket, as the one loop did before the pool's got its gate.
#[inline(always)]
fn step(runner: &mut KernelRunner) -> Option<StepDone> {
    // This run's ordinal; `runs` catches up to it when the run returns, so
    // `entered > runs` exactly while the kernel is inside `run()`.
    let ordinal = runner.telemetry.entered.load(Ordering::Relaxed) + 1;
    runner.telemetry.entered.store(ordinal, Ordering::Relaxed);
    let started = if runner.untimed_left == 0 {
        Some(now())
    } else {
        runner.untimed_left -= 1;
        None
    };
    // The failpoint runs inside the unwind guard so an injected panic takes
    // exactly the policy-handled path a kernel panic would.
    let result = catch_unwind(AssertUnwindSafe(|| {
        raft_buffer::failpoint!("core::scheduler::step");
        runner.kernel.run(&runner.ctx)
    }));
    if let Some(started) = started {
        let ns = (now() - started).as_nanos() as u64;
        let stands_for = if ordinal <= u64::from(SAMPLE_STRIDE) || ns >= SLOW_RUN_NS {
            1
        } else {
            runner.untimed_left = SAMPLE_STRIDE - 1;
            u64::from(SAMPLE_STRIDE)
        };
        runner.telemetry.service.record(ns, stands_for);
        bump(&runner.telemetry.timed_runs, 1);
    }
    runner.telemetry.runs.store(ordinal, Ordering::Relaxed);
    match result {
        Ok(status) => {
            // Clean return: the run joins the open transaction; when the
            // commit interval fills (or the kernel stops) its effects become
            // visible — staged outputs publish, consumed inputs are
            // acknowledged.
            runner.journal_tick();
            match status {
                KStatus::Proceed => None,
                KStatus::Stop => {
                    runner.journal_flush();
                    Some(StepDone {
                        outcome: match runner.restarts {
                            0 => KernelOutcome::Completed,
                            n => KernelOutcome::Restarted(n),
                        },
                        fatal: false,
                    })
                }
            }
        }
        Err(_) => {
            // Supervision runs user code too (a `Replace` factory,
            // `clone_replica()`), so it gets its own unwind guard: a panic
            // there would otherwise kill the scheduler's thread with the
            // kernel half-retired. It counts as the restart budget running
            // out.
            let done = catch_unwind(AssertUnwindSafe(|| handle_panic(runner)))
                .unwrap_or_else(|_| Some(aborted(runner, false)));
            if done.is_none() {
                // The policy absorbed the panic (Restart/Replace with
                // budget left): roll the transaction back so the fresh
                // instance re-pops exactly what the failed run consumed.
                // Terminal outcomes skip this — their staged outputs are
                // simply dropped with the runner, never published.
                runner.journal_rewind();
            }
            done
        }
    }
}

/// Cooperative wind-down: once the drain ladder is at level 1 (any stop
/// reason), sources must finish instead of producing forever; kernels with
/// inputs drain naturally as upstream EoS arrives.
fn stop_winddown(runner: &mut KernelRunner) -> Option<StepDone> {
    if runner.ctx.input_count() == 0 && runner.ctx.stop_requested() {
        // Publish anything still staged before the runner is dropped.
        runner.journal_flush();
        Some(StepDone {
            outcome: KernelOutcome::Completed,
            fatal: false,
        })
    } else {
        None
    }
}

/// Terminal panic outcome. Asynchronous error propagation (§4.2's exception
/// pathway): downstream kernels see `Signal::Error` out-of-band, ahead of
/// whatever data is still queued.
fn aborted(runner: &KernelRunner, fatal: bool) -> StepDone {
    runner.ctx.post_error();
    StepDone {
        outcome: KernelOutcome::Aborted,
        fatal,
    }
}

/// Apply the runner's supervision policy to a caught panic.
fn handle_panic(runner: &mut KernelRunner) -> Option<StepDone> {
    match runner.policy.clone() {
        SupervisorPolicy::Abort => Some(aborted(runner, true)),
        // Skip-and-drain: no error signal — the kernel's ports close when
        // the caller drops the runner, EoS propagates, and downstream
        // stages flush whatever made it through.
        SupervisorPolicy::Skip => Some(StepDone {
            outcome: KernelOutcome::Skipped,
            fatal: false,
        }),
        SupervisorPolicy::Restart { max_restarts, .. } => {
            if runner.restarts >= max_restarts {
                return Some(aborted(runner, false));
            }
            // Clean-slate restart when the kernel supports replication;
            // otherwise re-enter the surviving instance in place.
            if let Some(fresh) = runner.kernel.clone_replica() {
                runner.kernel = fresh;
            }
            backoff_and_count(runner);
            None
        }
        SupervisorPolicy::Replace {
            max_restarts,
            factory,
            ..
        } => {
            if runner.restarts >= max_restarts {
                return Some(aborted(runner, false));
            }
            runner.kernel = factory();
            backoff_and_count(runner);
            None
        }
    }
}

fn backoff_and_count(runner: &mut KernelRunner) {
    if let Some(delay) = runner.policy.backoff_for(runner.restarts) {
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
    runner.restarts += 1;
}

/// Run every kernel to completion on an OS thread of its own.
pub(crate) fn thread_per_kernel(runners: Vec<KernelRunner>) -> SchedulerOutput {
    // Names stay beside the join handles: a kernel thread that dies
    // anyway (a scheduler bug — kernel panics, `Drop` included, are
    // caught) is still reported by name.
    let handles: Vec<_> = runners
        .into_iter()
        .map(|mut runner| {
            let name = runner.name.clone();
            let handle = std::thread::Builder::new()
                .name(format!("raft-{name}"))
                .spawn(move || match drive(&mut runner, None) {
                    Driven::Done(done) => retire(runner, done),
                    Driven::Idle | Driven::Yielded => {
                        unreachable!("an ungated drive returns only when the kernel is done")
                    }
                })
                .expect("spawn kernel thread");
            (name, handle)
        })
        .collect();
    let outcomes = handles
        .into_iter()
        .map(|(name, h)| {
            h.join().unwrap_or(RunnerOutcome {
                name,
                outcome: KernelOutcome::Aborted,
                fatal: true,
            })
        })
        .collect();
    SchedulerOutput {
        outcomes,
        workers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::PortSpec;
    use std::time::Duration;

    #[test]
    fn scheduler_kind_is_copy() {
        let k = SchedulerKind::Stealing {
            workers: 2,
            pin: false,
        };
        let k2 = k;
        assert_eq!(k, k2);
        assert_ne!(k, SchedulerKind::ThreadPerKernel);
    }

    /// Portless kernel: `Stop` on call number `stop_at`, `Proceed` before,
    /// after sleeping `nap` (zero returns at once: a trivial run).
    struct Ticker {
        calls: u64,
        stop_at: u64,
        nap: Duration,
    }

    impl Kernel for Ticker {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
        }
        fn run(&mut self, _: &Context) -> KStatus {
            std::thread::sleep(self.nap);
            self.calls += 1;
            if self.calls == self.stop_at {
                KStatus::Stop
            } else {
                KStatus::Proceed
            }
        }
    }

    fn runner(stop_at: u64, nap: Duration) -> KernelRunner {
        KernelRunner {
            name: "ticker".into(),
            kernel: Box::new(Ticker {
                calls: 0,
                stop_at,
                nap,
            }),
            ctx: Context::for_test(),
            telemetry: Arc::default(),
            policy: SupervisorPolicy::Abort,
            restarts: 0,
            journal_uncommitted: 0,
            untimed_left: 0,
        }
    }

    fn clock_reads() -> u64 {
        CLOCK_READS.with(std::cell::Cell::get)
    }

    const RUNS: u64 = 64_000;
    /// Every one of the first `SAMPLE_STRIDE` runs, then one per stride; the
    /// slack absorbs timed runs the host preempted past `SLOW_RUN_NS` (each
    /// keeps the next run timed).
    const MAX_TIMED: u64 = SAMPLE_STRIDE as u64 + RUNS / SAMPLE_STRIDE as u64 + 200;

    fn assert_sampled(r: &KernelRunner, reads: u64) {
        let t = &r.telemetry;
        assert_eq!(t.runs.load(Ordering::Relaxed), RUNS);
        assert_eq!(t.entered.load(Ordering::Relaxed), RUNS);
        let timed = t.timed_runs.load(Ordering::Relaxed);
        assert_eq!(reads, 2 * timed, "one clock pair per timed run");
        assert!(
            (u64::from(SAMPLE_STRIDE)..=MAX_TIMED).contains(&timed),
            "{timed} of {RUNS} trivial runs were timed"
        );
    }

    #[test]
    fn fast_runs_are_counted_exactly_and_timed_one_in_a_stride_ungated() {
        let mut r = runner(RUNS, Duration::ZERO);
        let before = clock_reads();
        assert!(matches!(drive(&mut r, None), Driven::Done(_)));
        assert_sampled(&r, clock_reads() - before);
    }

    #[test]
    fn fast_runs_are_counted_exactly_and_timed_one_in_a_stride_per_quantum() {
        // A zero slice ends every claim at its first round boundary: one
        // round of QUANTUM runs, and two clock reads (the claim's start and
        // that boundary) on top of the sampled runs' pairs.
        let mut r = runner(u64::MAX, Duration::ZERO);
        let before = clock_reads();
        let claims = RUNS / u64::from(QUANTUM);
        for _ in 0..claims {
            assert!(matches!(
                drive(&mut r, Some(Duration::ZERO)),
                Driven::Yielded
            ));
        }
        assert_sampled(&r, clock_reads() - before - 2 * claims);
    }

    #[test]
    fn a_claim_lasts_its_slice_in_whole_rounds_with_one_clock_read_each() {
        // Trivial runs: a claim is many rounds, one clock read per round.
        let mut r = runner(u64::MAX, Duration::ZERO);
        let before = clock_reads();
        let slice = Duration::from_millis(2);
        let began = Instant::now();
        assert!(matches!(drive(&mut r, Some(slice)), Driven::Yielded));
        assert!(began.elapsed() >= slice);
        let runs = r.telemetry.runs.load(Ordering::Relaxed);
        assert_eq!(
            runs % u64::from(QUANTUM),
            0,
            "{runs} runs: not whole rounds"
        );
        assert!(
            runs > 4 * u64::from(QUANTUM),
            "{runs} trivial runs in a 2 ms slice"
        );
        let timed = r.telemetry.timed_runs.load(Ordering::Relaxed);
        let rounds = runs / u64::from(QUANTUM);
        assert_eq!(clock_reads() - before, 2 * timed + 1 + rounds);
        // Slow runs: the claim ends at its first round boundary.
        let mut r = runner(u64::MAX, Duration::from_micros(50));
        assert!(matches!(drive(&mut r, Some(SLICE)), Driven::Yielded));
        assert_eq!(r.telemetry.runs.load(Ordering::Relaxed), u64::from(QUANTUM));
    }

    #[test]
    fn slow_runs_are_all_timed_and_busy_tracks_wall() {
        const SLOW_RUNS: u64 = 300;
        let mut r = runner(SLOW_RUNS, Duration::from_micros(50));
        let wall = Instant::now();
        assert!(matches!(drive(&mut r, None), Driven::Done(_)));
        let wall = wall.elapsed().as_nanos() as u64;
        let t = &r.telemetry;
        assert_eq!(t.runs.load(Ordering::Relaxed), SLOW_RUNS);
        assert_eq!(t.timed_runs.load(Ordering::Relaxed), SLOW_RUNS);
        let busy = t.service.sum();
        assert_eq!(t.service.count(), SLOW_RUNS);
        assert!(
            busy <= wall && busy >= wall - wall / 10,
            "busy {busy} ns vs wall {wall} ns"
        );
    }

    #[test]
    fn transactions_commit_at_the_context_cadence_or_not_at_all() {
        let commits = |r: &KernelRunner| r.telemetry.commits.load(Ordering::Relaxed);
        // No journaled port: the transaction path is skipped.
        let mut r = runner(100, Duration::ZERO);
        assert!(matches!(drive(&mut r, None), Driven::Done(_)));
        assert_eq!(commits(&r), 0);
        // One journaled output: a commit per QUANTUM runs, and the Stop
        // flushes the rest.
        let def = crate::kernel::PortDef::of::<u64>("out");
        let (out, _input) = (def.fifo_factory)(raft_buffer::FifoConfig::default().journaled());
        let mut r = runner(100, Duration::ZERO);
        r.ctx = Context::new(
            "test".into(),
            Vec::new(),
            vec![("out".into(), out)],
            Arc::default(),
        );
        assert!(matches!(drive(&mut r, None), Driven::Done(_)));
        assert_eq!(commits(&r), 100 / u64::from(QUANTUM) + 1);
    }
}
