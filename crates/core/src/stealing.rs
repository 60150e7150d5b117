//! Event-driven work-stealing scheduler.
//!
//! [`work_stealing`] multiplexes a graph over a fixed pool of workers without
//! ever scanning for runnable kernels:
//!
//! * **Readiness is pushed, not polled.** Each kernel is a *task* with a
//!   tiny state machine (`IDLE → QUEUED → RUNNING`). When a task blocks on
//!   empty inputs, the owning worker *arms* the consumer-side
//!   [`raft_buffer::WakerSlot`] of every input stream and steps away; the
//!   producer endpoint that next pushes data (or EoS, or an async signal)
//!   re-queues the task in O(1) from its own thread.
//! * **Per-worker deques, global injector.** A freshly woken task goes LIFO
//!   onto the waking worker's Chase–Lev deque (its inputs are cache-hot);
//!   idle workers steal the *oldest* entry from a victim's deque. Seeds,
//!   wakes fired off the pool and quantum yields go to the FIFO injector.
//! * **Fair yields.** A task that used up its quantum with inputs still
//!   ready goes to the back of the injector, and the worker that yielded
//!   claims own deque → steal → injector, so it gets the same task back
//!   only when nothing else is claimable anywhere. Every other claim is
//!   own deque → injector → steal. (A spinner re-queued on top of its own
//!   deque starves what sits beneath it; one re-claimed from the injector
//!   before stealing starves what sits on a worker that is blocked inside
//!   a link.)
//! * **One way to sleep.** Each worker parks on its own
//!   `EventCount<ThreadPark>` after the endpoints' spin → yield → park
//!   schedule, bounded by the same [`PARK_TIMEOUT`].
//! * **Optional core pinning.** `pin: true` makes worker `w` pin itself to
//!   core `w % cores` ([`crate::affinity`]), so the mapper-seeded initial
//!   placement survives OS migration.
//!
//! ## No lost wakeups
//!
//! A task parks by the eventcount waiter protocol over its inputs' waker
//! slots: arm every input → re-check readiness → CAS `RUNNING → IDLE`. The
//! arm's SeqCst fence pairs with the producer's fenced notify (DESIGN §10),
//! so a producer that published data is either seen by the re-check or
//! sees the arm and fires the wake; a wake firing *during* the run window
//! lands as `NOTIFIED` and forces a self-requeue instead of parking.
//! Spurious wakes (stale arms from an earlier park round) are absorbed by
//! the state machine: waking a `QUEUED` task is a no-op, and every claim
//! starts by disarming the inputs.
//!
//! A worker parks by the same protocol on its own eventcount: arm → re-check
//! "any queue non-empty, or pool done" → wait. Every enqueue that a parked
//! worker must see is followed by a fenced notify of the parked workers, so
//! the queue write and the arm cannot miss each other. A park that ran its
//! full length with its arm unclaimed sweeps for `IDLE` tasks with ready
//! inputs; each one it re-queues is a counted rescue, and the certified
//! paths keep that count at 0.

use std::sync::atomic::{
    AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::Instant;

use raft_buffer::eventcount::PARK_TIMEOUT;
use raft_buffer::sync::Mutex;
use raft_buffer::{
    EventCount, FifoWaker, ThreadPark, WaitAction, WaitStrategy, Waiter, DRAIN_DRAINING,
};

use crate::affinity;
use crate::runtime::{DrainReason, Shutdown};
use crate::scheduler::{
    drive, inputs_ready, retire, Driven, KernelRunner, RunnerOutcome, SchedulerOutput, StepDone,
    WorkerReport, QUANTUM,
};
use crate::steal::{Injector, Steal, WorkerDeque};
use crate::supervise::KernelOutcome;

/// Task is not queued anywhere and not running; only a waker (or initial
/// seeding) may move it to `QUEUED`.
const IDLE: u8 = 0;
/// Task sits in exactly one queue (a worker deque or the injector).
const QUEUED: u8 = 1;
/// A worker holds the task's runner right now.
const RUNNING: u8 = 2;
/// A wake arrived while `RUNNING`: the worker must requeue instead of
/// going idle.
const NOTIFIED: u8 = 3;

std::thread_local! {
    /// Set while this thread is a stealing-pool worker: the pool's `Core`
    /// address plus the worker index. Wakes that fire on a worker thread
    /// (the common case — kernels run on workers, and their pushes fire
    /// the peer's waker inline) are routed to that worker's own deque,
    /// skipping the injector and the worker wake.
    static WORKER_CTX: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// One kernel's scheduling state.
struct TaskSlot {
    /// `IDLE`/`QUEUED`/`RUNNING`/`NOTIFIED` — see the constants above.
    state: AtomicU8,
    /// The runner, present until the kernel finishes. The mutex is
    /// uncontended in steady state (the state machine admits one claimant);
    /// it exists so a claim that races a stale queue entry blocks briefly
    /// instead of aliasing.
    runner: Mutex<Option<KernelRunner>>,
    /// Nanoseconds-since-epoch timestamp of the wake that queued this task;
    /// 0 = queued by self-requeue (not a waker). Feeds wake-to-run latency.
    woken_at_ns: AtomicU64,
    /// Monitor handles of the task's input streams, readable without the
    /// runner mutex — the wake-side readiness filter (see [`Core::wake_task`])
    /// checks these on every waker fire.
    inputs: Vec<Arc<dyn raft_buffer::fifo::Monitorable>>,
}

/// State shared by workers and waker callbacks.
struct Core {
    tasks: Vec<TaskSlot>,
    injector: Injector,
    deques: Vec<WorkerDeque>,
    /// Worker `w` sleeps on `parks[w]`.
    parks: Vec<EventCount<ThreadPark>>,
    /// Kernels not yet finished; zeroed early if a worker thread dies.
    remaining: AtomicUsize,
    /// The map's shutdown word, for a worker thread that dies.
    shutdown: Arc<Shutdown>,
    /// Latency epoch for `woken_at_ns`.
    epoch: Instant,
}

impl Core {
    #[inline]
    fn now_ns(&self) -> u64 {
        // Saturate to 1 so a 0 timestamp still means "self-requeue".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Anything claimable anywhere? Racy, but exact enough as the re-check
    /// of a worker's armed park: an enqueue either lands before it or
    /// notifies after it.
    fn has_work(&self) -> bool {
        self.deques.iter().any(|d| !d.is_empty()) || !self.injector.is_empty()
    }

    /// Wake one armed worker, if any. Callers must have made the new work
    /// visible (queue push) first: `notify`'s fence pairs with the worker's
    /// arm, so either a notify claims the arm or the worker's re-check sees
    /// the work.
    fn wake_worker(&self) {
        self.parks.iter().any(EventCount::notify);
    }

    /// Wake every armed worker: the pool is done (or broken).
    fn wake_all(&self) {
        for park in &self.parks {
            park.notify();
        }
    }

    /// Queue `task` at the back of the injector and wake a worker for it.
    fn inject(&self, task: usize) {
        self.injector.push(task);
        self.wake_worker();
    }

    /// Move `task` to `QUEUED` and make it claimable. `via_waker` stamps
    /// the wake time for latency telemetry.
    fn enqueue(&self, task: usize, via_waker: bool) {
        if via_waker {
            self.tasks[task].woken_at_ns.store(self.now_ns(), Relaxed);
        }
        // Worker-local fast path: the wake fired on one of *this* pool's
        // worker threads, so the task can go LIFO onto that worker's own
        // deque — the worker drains it before it can ever park, so no
        // worker wake is needed unless entries are piling up behind it
        // (then a parked sibling is worth the futex: it can steal). If this
        // worker then blocks inside a link, a parked sibling steals the
        // entry after at most one park.
        if let Some((core_addr, me)) = WORKER_CTX.get() {
            if core_addr == self as *const Core as usize {
                self.deques[me].push(task);
                if self.deques[me].len() > 1 {
                    self.wake_worker();
                }
                return;
            }
        }
        self.inject(task);
    }

    /// Waker/state-machine entry: called with the task in any state.
    ///
    /// Wake-side readiness filter: a waker fires when *one* input gains
    /// data, but a multi-input kernel (join, reduce) is only runnable when
    /// *all* inputs have data — enqueueing early just burns a claim → not
    /// ready → re-arm → park cycle per lane (O(width²) churn across a
    /// row).
    ///
    /// Dropping the wake is only lossless if somebody is guaranteed to fire
    /// again: the notify that got us here already *consumed* this input's
    /// arm, so if the filter's view was stale (the data IS there, or lands
    /// right after the check) no later push would ever re-fire — the
    /// certified claim-time-disarm lost wakeup (`loom_stealing.rs`). So on
    /// filter failure we re-arm every input (the arm's SeqCst fence pairs
    /// with the producer's notify fence) and re-check once: either the
    /// re-check sees the data and we fall through to enqueue, or any
    /// subsequent push finds a fresh arm and re-enters here. Spurious arms
    /// are absorbed at claim time (every claim disarms first).
    fn wake_task(&self, task: usize) {
        if !inputs_ready(&self.tasks[task].inputs) {
            for f in &self.tasks[task].inputs {
                f.consumer_waker().arm();
            }
            if !inputs_ready(&self.tasks[task].inputs) {
                return;
            }
        }
        let state = &self.tasks[task].state;
        let mut cur = state.load(Relaxed);
        loop {
            match cur {
                IDLE => match state.compare_exchange_weak(IDLE, QUEUED, AcqRel, Relaxed) {
                    Ok(_) => {
                        self.enqueue(task, true);
                        return;
                    }
                    Err(c) => cur = c,
                },
                RUNNING => match state.compare_exchange_weak(RUNNING, NOTIFIED, AcqRel, Relaxed) {
                    // The running worker sees NOTIFIED at park time and
                    // requeues; nothing to push here.
                    Ok(_) => return,
                    Err(c) => cur = c,
                },
                // Already queued or already flagged: the wake is coalesced.
                _ => return,
            }
        }
    }

    /// Safety-net sweep run by a worker whose park ran its full length with
    /// its arm unclaimed: a task that is `IDLE` with ready inputs is the
    /// signature of a lost wakeup, so re-queue it.
    /// [`wake_task`](Self::wake_task)'s re-arm + re-check closes every hole
    /// the loom model covers; this sweep bounds the damage of any residual
    /// one to a single park period instead of a permanent hang, and turns
    /// "flaky after hours" into telemetry (`rescues` in the worker report).
    fn rescue_idle_ready(&self) -> u64 {
        let mut rescued = 0;
        for (task, slot) in self.tasks.iter().enumerate() {
            if slot.state.load(Acquire) != IDLE {
                continue;
            }
            // Skip finished kernels (runner taken); a held lock means the
            // task is mid-claim, which is not a lost wakeup.
            let live = slot.runner.try_lock().is_some_and(|g| g.is_some());
            if live && inputs_ready(&slot.inputs) {
                self.wake_task(task);
                rescued += 1;
            }
        }
        rescued
    }
}

/// The waker installed on every input stream of task `task`: an O(1)
/// enqueue running inline on the *producer's* thread.
struct TaskWaker {
    core: Arc<Core>,
    task: usize,
}

impl FifoWaker for TaskWaker {
    fn wake(&self) {
        self.core.wake_task(self.task);
    }
}

/// Claim source: own deque (LIFO) first; then injector (FIFO) → steal,
/// or — right after a yield — steal → injector, so the yielded task
/// (at the injector's back) comes back only when nothing else is
/// claimable. Returns the task id and whether it was stolen.
fn find_task(core: &Core, me: usize, yielded: bool) -> Option<(usize, bool)> {
    if let Some(t) = core.deques[me].pop() {
        return Some((t, false));
    }
    let injected = || core.injector.pop().map(|t| (t, false));
    let stolen = || {
        let n = core.deques.len();
        (1..n).find_map(|i| loop {
            match core.deques[(me + i) % n].steal() {
                Steal::Success(t) => break Some((t, true)),
                Steal::Retry => continue,
                Steal::Empty => break None,
            }
        })
    };
    if yielded {
        stolen().or_else(injected)
    } else {
        injected().or_else(stolen)
    }
}

/// Drive one claimed task for up to a quantum, pushing its outcome if the
/// kernel finished; `true` when it yielded the quantum. The kernel
/// lifecycle itself lives in [`drive`] / [`retire`]; this function owns
/// only the task state machine around it.
fn run_task(
    core: &Core,
    me: usize,
    task: usize,
    stats: &mut WorkerReport,
    outcomes: &mut Vec<RunnerOutcome>,
) -> bool {
    let slot = &core.tasks[task];
    // Claim: QUEUED → RUNNING. A wake observing RUNNING from here on
    // lands as NOTIFIED instead of double-queueing.
    let prev = slot.state.swap(RUNNING, AcqRel);
    debug_assert_eq!(prev, QUEUED, "claimed task {task} was not QUEUED");

    let mut guard = slot.runner.lock();
    let Some(runner) = guard.as_mut() else {
        // Stale entry for an already-finished kernel (can't happen under
        // the one-queue invariant, but degrade gracefully).
        slot.state.store(IDLE, Release);
        return false;
    };

    stats.runs += 1;
    let woken_at = slot.woken_at_ns.swap(0, Relaxed);
    if woken_at != 0 {
        stats.woken_tasks += 1;
        stats.wake_to_run_ns += core.now_ns().saturating_sub(woken_at);
    }
    // Absorb arms left over from an earlier park round so this run's
    // consumption can't burn a stale edge later.
    for f in runner.ctx.input_fifos() {
        f.consumer_waker().disarm();
    }

    match drive(runner, Some(QUANTUM)) {
        Driven::Done(done) => {
            let runner = guard.take().expect("runner present while RUNNING");
            drop(guard);
            // Retiring closes the runner's endpoints: EoS propagates
            // and *their* wakers fire, re-queueing consumers.
            outcomes.push(retire(runner, done));
            slot.state.store(IDLE, Release);
            // Saturating: a dead worker may have zeroed the count.
            let left = core
                .remaining
                .fetch_update(AcqRel, Acquire, |r| r.checked_sub(1));
            if left == Ok(1) {
                // Last kernel done: release every parked worker for exit.
                core.wake_all();
            }
            false
        }
        Driven::Yielded => {
            // Quantum exhausted mid-stream: still runnable, but behind
            // everything else claimable (module docs).
            drop(guard);
            slot.state.store(QUEUED, Release);
            core.inject(task);
            true
        }
        Driven::Idle => {
            // Blocked on empty inputs: arm every input's waker, then
            // re-check — the Dekker handshake that makes parking
            // lossless (module docs).
            for f in runner.ctx.input_fifos() {
                f.consumer_waker().arm();
            }
            let landed = inputs_ready(runner.ctx.input_fifos());
            drop(guard);
            // `landed`: data (or EoS) arrived between drive's readiness
            // check and the arms; stale arms are absorbed at the next
            // claim. A failed CAS means NOTIFIED: a waker fired during
            // the run window. Either way requeue (LIFO: its inputs are
            // cache-hot) rather than park, so the wake is never lost.
            if landed
                || slot
                    .state
                    .compare_exchange(RUNNING, IDLE, AcqRel, Acquire)
                    .is_err()
            {
                slot.state.store(QUEUED, Release);
                core.deques[me].push(task);
            }
            false
        }
    }
}

/// One worker thread: claim and run tasks until every kernel finished,
/// parking on `core.parks[me]` while nothing is claimable.
fn work(core: &Core, me: usize, stats: &mut WorkerReport) -> Vec<RunnerOutcome> {
    let _exit = ExitOnUnwind(core);
    let park = &core.parks[me];
    let mut outcomes = Vec::new();
    let mut waiter = Waiter::new(WaitStrategy::parking(PARK_TIMEOUT));
    let mut yielded = false;
    while core.remaining.load(Acquire) > 0 {
        if let Some((task, stolen)) = find_task(core, me, yielded) {
            waiter.reset();
            stats.steals += u64::from(stolen);
            yielded = run_task(core, me, task, stats, &mut outcomes);
            continue;
        }
        if waiter.pause_or_park() != WaitAction::Park {
            continue;
        }
        // The eventcount waiter protocol: arm, re-check, wait.
        stats.parks += 1;
        let epoch = park.arm();
        if core.has_work() || core.remaining.load(Acquire) == 0 {
            park.disarm();
            continue;
        }
        let timed_out = park.wait(epoch, PARK_TIMEOUT);
        if park.disarm() && timed_out {
            // Nobody woke us inside a full park: sweep for lost
            // wakeups before re-parking.
            stats.rescues += core.rescue_idle_ready();
        }
        // No waiter.reset() here: a real wake makes the next find_task
        // succeed, which resets it; after a timeout the waiter stays in
        // its park phase, so the worker re-parks without burning the
        // spin/yield budget on nothing.
    }
    outcomes
}

/// Pool exit for a worker thread that unwinds — a broken scheduler
/// invariant, since kernel panics (lifecycle included) are caught in
/// [`drive`] and [`retire`]: zero `remaining` and wake every worker so the
/// survivors stop claiming, and enter the drain ladder so none stays
/// blocked in a link. `execute` then retires the stranded runners.
struct ExitOnUnwind<'a>(&'a Core);

impl Drop for ExitOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let core = self.0;
            core.remaining.store(0, Release);
            core.wake_all();
            let reason = DrainReason::KernelPanicked;
            core.shutdown.request(DRAIN_DRAINING, reason);
        }
    }
}

/// Run every kernel to completion on a pool of `workers` threads (see the
/// module docs). `placement[k]` is the worker whose deque initially holds
/// kernel `k` (the mapper's partition assignment); with any other length
/// every task starts in the injector, in graph order. `pin` pins worker `w`
/// to core `w % cores` (best-effort).
pub(crate) fn work_stealing(
    runners: Vec<KernelRunner>,
    workers: usize,
    pin: bool,
    placement: &[usize],
) -> SchedulerOutput {
    let n = runners.len();
    let workers = workers.max(1);
    if n == 0 {
        return SchedulerOutput::default();
    }
    let shutdown = runners[0].ctx.shutdown.clone();
    let core = Arc::new(Core {
        tasks: runners
            .into_iter()
            .map(|r| TaskSlot {
                state: AtomicU8::new(QUEUED),
                woken_at_ns: AtomicU64::new(0),
                inputs: r.ctx.input_fifos().to_vec(),
                runner: Mutex::new(Some(r)),
            })
            .collect(),
        injector: Injector::new(n),
        deques: (0..workers).map(|_| WorkerDeque::new(n)).collect(),
        parks: (0..workers).map(|_| EventCount::default()).collect(),
        remaining: AtomicUsize::new(n),
        shutdown,
        epoch: Instant::now(),
    });

    // Install a waker on every input stream. The Arc chain
    // (fifo → TaskWaker → Core → runner → fifo) is cyclic only while
    // the runner is alive; taking the runner out on completion breaks
    // it, so everything frees at map teardown.
    for (id, slot) in core.tasks.iter().enumerate() {
        let guard = slot.runner.lock();
        if let Some(r) = guard.as_ref() {
            let waker: Arc<dyn FifoWaker> = Arc::new(TaskWaker {
                core: core.clone(),
                task: id,
            });
            for f in r.ctx.input_fifos() {
                f.consumer_waker().register(waker.clone());
            }
        }
    }

    // Seed initial placement: every task starts QUEUED. Workers have
    // not been spawned yet, so pushing into their deques from here is
    // single-threaded (the spawn below provides the happens-before).
    if placement.len() == n {
        for (id, &p) in placement.iter().enumerate() {
            core.deques[p % workers].push(id);
        }
    } else {
        for id in 0..n {
            core.injector.push(id);
        }
    }

    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("raft-steal-{w}"))
                .spawn(move || {
                    let mut stats = WorkerReport {
                        worker: w,
                        ..WorkerReport::default()
                    };
                    if pin {
                        let target = w % affinity::core_count();
                        stats.pinned_core = affinity::pin_current_thread(target).then_some(target);
                    }
                    WORKER_CTX.set(Some((Arc::as_ptr(&core) as usize, w)));
                    let outcomes = work(&core, w, &mut stats);
                    WORKER_CTX.set(None);
                    (stats, outcomes)
                })
                .expect("spawn stealing worker")
        })
        .collect();

    let mut outcomes = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(workers);
    for h in handles {
        // A worker thread itself panicking (not a kernel panic — those
        // are caught in drive()) is a scheduler bug; surface an empty
        // report rather than wedging the join loop.
        let (report, mut mine) = h.join().unwrap_or_else(|_| {
            let lost = WorkerReport {
                worker: usize::MAX,
                ..WorkerReport::default()
            };
            (lost, Vec::new())
        });
        outcomes.append(&mut mine);
        reports.push(report);
    }
    reports.sort_by_key(|r| r.worker);
    // A worker-thread panic could strand runners (never popped): drain
    // them as aborted so the outcome count always matches the kernel
    // count and their Contexts drop (EoS downstream).
    if outcomes.len() < n {
        for slot in &core.tasks {
            if let Some(runner) = slot.runner.lock().take() {
                let done = StepDone {
                    outcome: KernelOutcome::Aborted,
                    fatal: true,
                };
                outcomes.push(retire(runner, done));
            }
        }
    }
    SchedulerOutput {
        outcomes,
        workers: reports,
    }
}
