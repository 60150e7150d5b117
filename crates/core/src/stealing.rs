//! Event-driven work-stealing scheduler.
//!
//! [`work_stealing`] multiplexes a graph over a fixed pool of workers without
//! ever scanning for runnable kernels:
//!
//! * **Readiness is pushed, not polled, on both sides.** Each kernel is a
//!   *task* with a tiny state machine (`IDLE → QUEUED → RUNNING`). A run
//!   starts only when every input has data (or EoS, or an async signal)
//!   and every output has a free slot, judged through the kernel's own
//!   cursors. When a task is not ready, the owning worker *arms* the
//!   [`raft_buffer::WakerSlot`] of every side it waits on — the data side
//!   of an empty input, the room side of a full output — and steps away;
//!   the other endpoint, when it next pushes (or closes, or posts a
//!   signal) or releases slots, re-queues the task in O(1) from its own
//!   thread. So a kernel that moves at most one element per port per run
//!   never parks its worker inside a link. A task waiting for room is a
//!   blocked writer all the same: the gate times the wait, and the
//!   monitor's grow rule counts it ([`raft_buffer::Producer::ready`]).
//! * **Claims are time slices.** A claim runs the kernel in rounds of
//!   [`QUANTUM`](crate::scheduler::QUANTUM) runs and ends at the first
//!   round boundary past [`SLICE`] (one clock read per round): a fast
//!   kernel's claim is hundreds of runs, a slow one's a single round.
//! * **One task wake per link per claim.** Inside a claim the kernel's
//!   pushes and pops still move `tail` / `head` per element, but only owe
//!   their task wake ([`raft_buffer::ClaimWakes`]): the claim pays one
//!   fenced notify per link side it touched when it ends — before the task
//!   changes state — and the thread pays what it owes before it waits
//!   anywhere.
//! * **Kernels stay home.** Each worker owns one FIFO run queue, and each
//!   task has a *home* worker, seeded from the mapper's partition (§4.1), so
//!   only the links the partition cuts carry data between cores. A wake
//!   queues the task on its home queue, whichever thread fires it; a yield
//!   or an idle re-queue goes to the back of the running worker's own
//!   queue. A worker claims the front of its own queue, then steals the
//!   front of a sibling's; a steal makes the thief the task's new home.
//! * **Fair yields.** A task that used up its slice still ready goes to
//!   the back of its queue. If the worker then finds that same task at the
//!   front (nothing else was queued there), it tries one steal round first
//!   and re-queues the yielder if a steal succeeds: a spinner cannot starve
//!   a task stranded on a worker that is blocked inside a link (a kernel
//!   that moves more than one element per run can still block there).
//! * **One way to sleep.** Each worker parks on its own
//!   `EventCount<ThreadPark>` after the endpoints' spin → yield → park
//!   schedule, bounded by the same [`PARK_TIMEOUT`] — a `futex(2)` wait on
//!   the eventcount's `seq` word, as every blocked endpoint's is.
//! * **Optional core pinning.** `pin: true` makes worker `w` pin itself to
//!   core `w % cores` ([`crate::affinity`]), so the mapper-seeded initial
//!   placement survives OS migration.
//!
//! ## No lost wakeups
//!
//! A task parks by the eventcount waiter protocol over its ports' waker
//! slots: arm every side that is not ready → re-check readiness → CAS
//! `RUNNING → IDLE`. A side that is ready stays ready while the task is
//! off its worker (only the task itself consumes its inputs or fills its
//! outputs), so arming the others is enough. The arm's SeqCst fence pairs
//! with the peer's fenced notify (DESIGN §10) — made at once, or owed and
//! paid at the end of the peer's claim, after every counter store it
//! covers — so a peer that published data or freed room is either seen by
//! the re-check or sees the arm and fires the wake; a wake firing *during*
//! the run window lands as `NOTIFIED` and forces a self-requeue instead of
//! parking. Spurious wakes (stale arms from an earlier park round) are
//! absorbed by the state machine: waking a `QUEUED` task is a no-op, and
//! every claim starts by disarming every port.
//!
//! A worker parks by the same protocol on its own eventcount: arm → re-check
//! "any queue non-empty, or pool done" → wait. Every enqueue that a parked
//! worker must see is followed by a fenced notify — of the home worker
//! first, then of any parked sibling that could steal — so the queue write
//! and the arm cannot miss each other. A park that ran its full length with
//! its arm unclaimed sweeps for `IDLE` tasks that are ready and re-queues
//! them. One it re-queued itself, whose ports' notifies had all returned,
//! is a counted rescue, and the certified paths keep that count at 0.

use std::sync::atomic::{
    AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;
use std::time::Instant;

use raft_buffer::eventcount::PARK_TIMEOUT;
use raft_buffer::fifo::Monitorable;
use raft_buffer::sync::Mutex;
use raft_buffer::{
    ClaimWakes, EventCount, FifoWaker, ThreadPark, WaitAction, WaitStrategy, Waiter, DRAIN_DRAINING,
};

use crate::affinity;
use crate::runtime::{DrainReason, Shutdown};
use crate::scheduler::{
    drive, input_ready, retire, task_ready, Driven, KernelRunner, RunnerOutcome, SchedulerOutput,
    StepDone, WorkerReport, SLICE,
};
use crate::steal::RunQueue;
use crate::supervise::KernelOutcome;

/// Task is not queued anywhere and not running; only a waker (or initial
/// seeding) may move it to `QUEUED`.
const IDLE: u8 = 0;
/// Task sits in exactly one worker's run queue.
const QUEUED: u8 = 1;
/// A worker holds the task's runner right now.
const RUNNING: u8 = 2;
/// A wake arrived while `RUNNING`: the worker must requeue instead of
/// going idle.
const NOTIFIED: u8 = 3;

std::thread_local! {
    /// Set while this thread is a stealing-pool worker: the pool's `Core`
    /// address plus the worker index. A wake that fires on its task's home
    /// worker (a kernel feeding a consumer in the same partition) needs no
    /// worker wake: that worker drains its queue before it can park.
    static WORKER_CTX: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// One kernel's scheduling state.
struct TaskSlot {
    /// `IDLE`/`QUEUED`/`RUNNING`/`NOTIFIED` — see the constants above.
    state: AtomicU8,
    /// The worker whose queue a wake puts this task on. Only the worker
    /// that claims the task writes it (a steal moves it to the thief), and
    /// a waker reads it after its `IDLE → QUEUED` CAS, which the claimant's
    /// later release of the state orders after the write.
    home: AtomicUsize,
    /// The runner, present until the kernel finishes. The mutex is
    /// uncontended in steady state (the state machine admits one claimant);
    /// it exists so a claim that races a stale queue entry blocks briefly
    /// instead of aliasing.
    runner: Mutex<Option<KernelRunner>>,
    /// Nanoseconds-since-epoch timestamp of the wake that queued this task;
    /// 0 = queued by self-requeue (not a waker). Feeds wake-to-run latency.
    woken_at_ns: AtomicU64,
    /// Monitor handles of the task's input and output streams, readable
    /// without the runner mutex — the wake-side readiness filter (see
    /// [`Core::wake_task`]) checks these on every waker fire.
    inputs: Vec<Arc<dyn Monitorable>>,
    outputs: Vec<Arc<dyn Monitorable>>,
}

impl TaskSlot {
    /// The readiness rule over the shared counters ([`task_ready`]).
    fn ready(&self) -> bool {
        task_ready(&self.inputs, &self.outputs)
    }

    /// The waiter's arm + re-check: arm the waker slot of every side that
    /// is not ready — an input's data side, an output's room side — then
    /// re-check. `true` when the task is ready after all and must not park.
    fn arm_unready(&self) -> bool {
        let mut armed = false;
        for f in self.inputs.iter().filter(|f| !input_ready(&***f)) {
            f.consumer_waker().arm();
            armed = true;
        }
        for f in self.outputs.iter().filter(|f| !f.has_room()) {
            f.producer_waker().arm();
            armed = true;
        }
        !armed || self.ready()
    }

    /// Withdraw every arm: a claim absorbs those left from an earlier park
    /// round, so its own traffic cannot burn a stale edge later.
    fn disarm(&self) {
        for f in &self.inputs {
            f.consumer_waker().disarm();
        }
        for f in &self.outputs {
            f.producer_waker().disarm();
        }
    }

    /// Every port's readiness was notified ([`Monitorable::announced`],
    /// [`Monitorable::room_announced`]).
    fn announced(&self) -> bool {
        self.inputs.iter().all(|f| f.announced()) && self.outputs.iter().all(|f| f.room_announced())
    }
}

/// State shared by workers and waker callbacks.
struct Core {
    tasks: Vec<TaskSlot>,
    /// Worker `w` claims from `queues[w]` first; siblings steal from it.
    queues: Vec<RunQueue>,
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
    /// `workers` empty run queues over `tasks`, each a runner (`None` for a
    /// finished kernel) and its home worker; every task starts `QUEUED`,
    /// for the caller to seed.
    fn new(
        tasks: impl ExactSizeIterator<Item = (Option<KernelRunner>, usize)>,
        workers: usize,
        shutdown: Arc<Shutdown>,
    ) -> Core {
        let n = tasks.len();
        Core {
            tasks: tasks
                .map(|(r, home)| TaskSlot {
                    state: AtomicU8::new(QUEUED),
                    home: AtomicUsize::new(home % workers),
                    woken_at_ns: AtomicU64::new(0),
                    inputs: r
                        .iter()
                        .flat_map(|r| r.ctx.input_fifos())
                        .cloned()
                        .collect(),
                    outputs: r
                        .iter()
                        .flat_map(|r| r.ctx.output_fifos())
                        .cloned()
                        .collect(),
                    runner: Mutex::new(r),
                })
                .collect(),
            queues: (0..workers).map(|_| RunQueue::new(n)).collect(),
            parks: (0..workers).map(|_| EventCount::default()).collect(),
            remaining: AtomicUsize::new(n),
            shutdown,
            epoch: Instant::now(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        // Saturate to 1 so a 0 timestamp still means "self-requeue".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Anything claimable anywhere? Racy, but exact enough as the re-check
    /// of a worker's armed park: an enqueue either lands before it or
    /// notifies after it.
    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// The index of the calling thread if it is one of this pool's workers.
    fn this_worker(&self) -> Option<usize> {
        WORKER_CTX
            .get()
            .and_then(|(core, me)| (core == self as *const Core as usize).then_some(me))
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

    /// Queue `task` (already `QUEUED`) at the back of worker `me`'s queue,
    /// from `me`'s own thread. `me` drains its queue before it can park, so
    /// a worker wake is worth its futex only once entries pile up behind
    /// the one it runs next: then a parked sibling can steal.
    fn requeue_local(&self, me: usize, task: usize) {
        if self.queues[me].push(task) > 1 {
            self.wake_worker();
        }
    }

    /// A wake moved `task` to `QUEUED`: put it on its home queue, stamping
    /// the wake time for latency telemetry. Off the home worker's thread,
    /// wake the home worker; if it is not parked (busy, or blocked inside a
    /// link), wake any parked sibling so it can steal the task instead.
    fn enqueue(&self, task: usize) {
        let slot = &self.tasks[task];
        slot.woken_at_ns.store(self.now_ns(), Relaxed);
        let home = slot.home.load(Relaxed);
        if self.this_worker() == Some(home) {
            self.requeue_local(home, task);
            return;
        }
        self.queues[home].push(task);
        if !self.parks[home].notify() {
            self.wake_worker();
        }
    }

    /// Waker/state-machine entry: called with the task in any state.
    /// Returns `true` when this call moved the task `IDLE → QUEUED`.
    ///
    /// Wake-side readiness filter: a waker fires when *one* side becomes
    /// ready, but a task is only runnable when *all* inputs have data and
    /// all outputs room — enqueueing early just burns a claim → not ready
    /// → re-arm → park cycle per port (O(width²) churn across a join row).
    ///
    /// Dropping the wake is only lossless if somebody is guaranteed to fire
    /// again: the notify that got us here already *consumed* this side's
    /// arm, so if the filter's view was stale (the data or room IS there,
    /// or lands right after the check) no later change would ever re-fire
    /// — the certified claim-time-disarm lost wakeup (`loom_stealing.rs`).
    /// So on filter failure we re-arm every side that is not ready (the
    /// arm's SeqCst fence pairs with the peer's notify fence) and re-check
    /// once: either the re-check sees readiness and we fall through to
    /// enqueue, or any subsequent change finds a fresh arm and re-enters
    /// here. Spurious arms are absorbed at claim time (every claim disarms
    /// first).
    fn wake_task(&self, task: usize) -> bool {
        let slot = &self.tasks[task];
        if !slot.ready() && !slot.arm_unready() {
            return false;
        }
        let state = &self.tasks[task].state;
        let mut cur = state.load(Relaxed);
        loop {
            match cur {
                IDLE => match state.compare_exchange_weak(IDLE, QUEUED, AcqRel, Relaxed) {
                    Ok(_) => {
                        self.enqueue(task);
                        return true;
                    }
                    Err(c) => cur = c,
                },
                RUNNING => match state.compare_exchange_weak(RUNNING, NOTIFIED, AcqRel, Relaxed) {
                    // The running worker sees NOTIFIED at park time and
                    // requeues; nothing to push here.
                    Ok(_) => return false,
                    Err(c) => cur = c,
                },
                // Already queued or already flagged: the wake is coalesced.
                _ => return false,
            }
        }
    }

    /// Safety-net sweep run by a worker whose park ran its full length with
    /// its arm unclaimed: a task that is `IDLE` and ready is the signature
    /// of a lost wakeup, so re-queue it.
    /// [`wake_task`](Self::wake_task)'s re-arm + re-check closes every hole
    /// the loom model covers; this sweep bounds the damage of any residual
    /// one to a single park period instead of a permanent hang, and turns
    /// "flaky after hours" into telemetry (`rescues` in the worker report).
    /// Every such task is re-queued, but only a wake that was really lost
    /// counts: one this sweep itself queued (a wake in flight on another
    /// thread — its arm claimed, its CAS not yet run — was not lost) for a
    /// task whose every port was announced, i.e. whose readiness was
    /// already notified ([`TaskSlot::announced`]). A peer descheduled
    /// between publishing and notifying, or still inside the claim that
    /// owes the wake, has a wake still to deliver, however long the sweep
    /// waited for it.
    fn rescue_idle_ready(&self) -> u64 {
        let mut rescued = 0;
        for (task, slot) in self.tasks.iter().enumerate() {
            if slot.state.load(Acquire) != IDLE {
                continue;
            }
            // Skip finished kernels (runner taken); a held lock means the
            // task is mid-claim, which is not a lost wakeup.
            let live = slot.runner.try_lock().is_some_and(|g| g.is_some());
            if live && slot.ready() {
                // Read before the wake: a notify returning after it must
                // not make this wake look owed.
                let owed = slot.announced();
                rescued += u64::from(self.wake_task(task) && owed);
            }
        }
        rescued
    }
}

/// The waker installed on every port of task `task` — an input's data side,
/// an output's room side: an O(1) enqueue running inline on the peer
/// endpoint's thread.
struct TaskWaker {
    core: Arc<Core>,
    task: usize,
}

impl FifoWaker for TaskWaker {
    fn wake(&self) {
        self.core.wake_task(self.task);
    }
}

/// One steal round: the front of the first sibling queue that has one,
/// scanning from `me + 1`. The thief becomes the task's home.
fn steal(core: &Core, me: usize) -> Option<usize> {
    let n = core.queues.len();
    let task = (1..n).find_map(|i| core.queues[(me + i) % n].pop())?;
    core.tasks[task].home.store(me, Relaxed);
    Some(task)
}

/// Claim source: the front of `me`'s own queue, else a steal. If the front
/// is `yielded` — the task `me` just ran for a full slice, so nothing
/// else was queued here — try a steal first and put the yielder back if it
/// succeeds (module docs). Returns the task id and whether it was stolen.
fn find_task(core: &Core, me: usize, yielded: Option<usize>) -> Option<(usize, bool)> {
    match core.queues[me].pop() {
        Some(t) if Some(t) == yielded => match steal(core, me) {
            Some(s) => {
                core.queues[me].push(t);
                Some((s, true))
            }
            None => Some((t, false)),
        },
        Some(t) => Some((t, false)),
        None => steal(core, me).map(|t| (t, true)),
    }
}

/// Drive one claimed task for up to a slice, pushing its outcome if the
/// kernel finished; `true` when it yielded the slice. The kernel
/// lifecycle itself lives in [`drive`] / [`retire`]; this function owns
/// only the task state machine around it, and the claim's owed wakes.
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
    slot.disarm();
    let runs_before = runner.telemetry.runs.load(Relaxed);
    let wakes = ClaimWakes::begin();
    let driven = drive(runner, Some(SLICE));
    // Pay the claim's owed task wakes before the task changes state (or
    // retires and closes its links).
    drop(wakes);
    stats.kernel_runs += runner.telemetry.runs.load(Relaxed) - runs_before;

    match driven {
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
            // Slice used up mid-stream: still runnable, but behind
            // everything else queued here (module docs).
            drop(guard);
            slot.state.store(QUEUED, Release);
            core.requeue_local(me, task);
            true
        }
        Driven::Idle => {
            // An empty input or a full output: arm the waker of every side
            // not ready, then re-check — the Dekker handshake that makes
            // parking lossless (module docs).
            let landed = slot.arm_unready();
            drop(guard);
            // `landed`: data (or EoS) or room arrived between drive's
            // readiness check and the arms; stale arms are absorbed at the next
            // claim. A failed CAS means NOTIFIED: a waker fired during
            // the run window. Either way requeue rather than park, so the
            // wake is never lost.
            if landed
                || slot
                    .state
                    .compare_exchange(RUNNING, IDLE, AcqRel, Acquire)
                    .is_err()
            {
                slot.state.store(QUEUED, Release);
                core.requeue_local(me, task);
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
    let mut waiter = Waiter::new(WaitStrategy::Parking);
    let mut yielded = None;
    while core.remaining.load(Acquire) > 0 {
        if let Some((task, stolen)) = find_task(core, me, yielded) {
            waiter.reset();
            stats.steals += u64::from(stolen);
            yielded = run_task(core, me, task, stats, &mut outcomes).then_some(task);
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
/// module docs). `placement[k]` is kernel `k`'s initial home worker (the
/// mapper's partition assignment); with any other length kernel `k` starts
/// on worker `k % workers`. `pin` pins worker `w` to core `w % cores`
/// (best-effort).
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
    let seeded = placement.len() == n;
    let homes = (0..n).map(|k| if seeded { placement[k] } else { k });
    let tasks = runners.into_iter().map(Some).zip(homes);
    let core = Arc::new(Core::new(tasks, workers, shutdown));

    // Install a waker on every port: an input's data side, an output's
    // room side. The Arc chain (fifo → TaskWaker → Core → runner → fifo)
    // is cyclic only while the runner is alive; taking the runner out on
    // completion breaks it, so everything frees at map teardown.
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
            for f in r.ctx.output_fifos() {
                f.producer_waker().register(waker.clone());
            }
        }
    }

    // Seed: every task starts QUEUED on its home queue, in graph order.
    // Workers have not been spawned yet (the spawn below provides the
    // happens-before).
    for (id, slot) in core.tasks.iter().enumerate() {
        core.queues[slot.home.load(Relaxed)].push(id);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KStatus, Kernel, PortSpec};
    use crate::port::Context;
    use crate::supervise::SupervisorPolicy;

    /// A pool of `workers` runner-less tasks, task `k` homed on `homes[k]`,
    /// all `IDLE` with nothing queued.
    fn idle_core(homes: &[usize], workers: usize) -> Core {
        let core = Core::new(homes.iter().map(|&h| (None, h)), workers, Arc::default());
        for slot in &core.tasks {
            slot.state.store(IDLE, Relaxed);
        }
        core
    }

    #[test]
    fn a_wake_lands_on_the_home_queue_from_any_thread() {
        let core = idle_core(&[1, 1, 1], 2);
        // Off the pool, the home worker's park is notified first ...
        let _ = core.parks[1].arm();
        assert!(core.wake_task(0));
        assert!(!core.parks[1].disarm(), "the parked home worker was woken");
        // ... and a parked sibling when the home worker is not parked.
        let _ = core.parks[0].arm();
        assert!(core.wake_task(1));
        assert!(!core.parks[0].disarm(), "a parked sibling was woken");
        // On a sibling's own thread the task still goes home.
        WORKER_CTX.set(Some((&core as *const Core as usize, 0)));
        assert!(core.wake_task(2));
        WORKER_CTX.set(None);
        assert!(core.queues[0].is_empty());
        let home: Vec<_> = std::iter::from_fn(|| core.queues[1].pop()).collect();
        assert_eq!(home, [0, 1, 2]);
    }

    #[test]
    fn a_steal_moves_the_home_to_the_thief() {
        let core = idle_core(&[0], 2);
        core.tasks[0].state.store(QUEUED, Relaxed);
        core.queues[0].push(0);
        assert_eq!(find_task(&core, 1, None), Some((0, true)));
        assert_eq!(core.tasks[0].home.load(Relaxed), 1);
        // The next wake follows it to the thief.
        core.tasks[0].state.store(IDLE, Relaxed);
        assert!(core.wake_task(0));
        assert_eq!(core.queues[1].pop(), Some(0));
        assert!(core.queues[0].is_empty());
    }

    #[test]
    fn a_lone_yielder_is_claimed_only_after_a_steal_attempt() {
        let core = idle_core(&[0, 1], 2);
        // Nothing to steal: the yielder comes straight back.
        core.queues[0].push(0);
        assert_eq!(find_task(&core, 0, Some(0)), Some((0, false)));
        // A sibling's task is stealable: it runs first, and the yielder
        // goes back to its queue.
        core.queues[0].push(0);
        core.queues[1].push(1);
        assert_eq!(find_task(&core, 0, Some(0)), Some((1, true)));
        assert_eq!(core.queues[0].pop(), Some(0));
        assert!(core.queues[1].is_empty());
        // Any other front is claimed without a steal attempt.
        core.queues[0].push(0);
        core.queues[1].push(1);
        assert_eq!(find_task(&core, 0, None), Some((0, false)));
        assert_eq!(core.queues[1].pop(), Some(1));
    }

    struct Nop;

    impl Kernel for Nop {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
        }
        fn run(&mut self, _: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    fn runner() -> Option<KernelRunner> {
        Some(KernelRunner {
            name: "nop".into(),
            kernel: Box::new(Nop),
            ctx: Context::for_test(),
            telemetry: Arc::default(),
            policy: SupervisorPolicy::Abort,
            restarts: 0,
            journal_uncommitted: 0,
            untimed_left: 0,
        })
    }

    #[test]
    fn the_sweep_counts_only_tasks_it_queued_itself() {
        let tasks = [(runner(), 0), (runner(), 0), (None, 0)];
        let core = Core::new(tasks.into_iter(), 1, Arc::default());
        // Task 0 is lost (idle, ready, live); task 1 runs; task 2 finished.
        core.tasks[0].state.store(IDLE, Relaxed);
        core.tasks[1].state.store(RUNNING, Relaxed);
        core.tasks[2].state.store(IDLE, Relaxed);
        assert_eq!(core.rescue_idle_ready(), 1);
        assert_eq!(core.queues[0].pop(), Some(0));
        assert!(core.queues[0].is_empty());
        // A wake that already queued the task leaves the sweep nothing to
        // count: the sweep counts `wake_task`'s own verdict.
        core.tasks[0].state.store(IDLE, Relaxed);
        assert!(core.wake_task(0));
        assert!(!core.wake_task(0), "a second wake is coalesced");
        assert_eq!(core.rescue_idle_ready(), 0);
    }

    /// A one-task pool whose task consumes `consumer`, idle and armed.
    fn idle_consumer(consumer: raft_buffer::Consumer<u64>) -> Core {
        let mut runner = runner();
        if let Some(r) = &mut runner {
            r.ctx = Context::for_test().with_input("in", consumer);
        }
        let core = Core::new([(runner, 0)].into_iter(), 1, Arc::default());
        core.tasks[0].state.store(IDLE, Relaxed);
        core.tasks[0].inputs[0].consumer_waker().arm();
        core
    }

    #[test]
    fn the_sweep_counts_an_idle_task_whose_element_was_announced() {
        let (_fifo, mut producer, consumer) =
            raft_buffer::fifo_with::<u64>(raft_buffer::FifoConfig::default());
        let core = idle_consumer(consumer);
        // The push's notify returned (no waker was installed to fire), so
        // the element is announced and the wake-up is owed.
        producer.push(7).unwrap();
        assert!(core.tasks[0].inputs[0].announced());
        assert_eq!(core.rescue_idle_ready(), 1);
        assert_eq!(core.queues[0].pop(), Some(0));
    }

    #[test]
    fn the_sweep_requeues_but_does_not_count_an_unannounced_element() {
        /// A task waker that holds the producer inside its notify until
        /// the test has swept: the producer published, then stalled.
        struct Stalled(std::sync::Barrier);
        impl FifoWaker for Stalled {
            fn wake(&self) {
                self.0.wait(); // notify under way
                self.0.wait(); // swept
            }
        }

        let (_fifo, mut producer, consumer) =
            raft_buffer::fifo_with::<u64>(raft_buffer::FifoConfig::default());
        let core = idle_consumer(consumer);
        let stalled = Arc::new(Stalled(std::sync::Barrier::new(2)));
        assert!(core.tasks[0].inputs[0]
            .consumer_waker()
            .register(stalled.clone()));
        let pushing = std::thread::spawn(move || {
            producer.push(7).unwrap();
            producer
        });
        stalled.0.wait();
        assert!(!core.tasks[0].inputs[0].announced());
        assert_eq!(core.rescue_idle_ready(), 0, "a late wake is not a lost one");
        assert_eq!(
            core.queues[0].pop(),
            Some(0),
            "the task is re-queued anyway"
        );
        stalled.0.wait();
        let producer = pushing.join().unwrap();
        assert!(core.tasks[0].inputs[0].announced());
        // End of stream whose notify returned is announced too.
        core.tasks[0].state.store(IDLE, Relaxed);
        drop(producer);
        assert!(core.tasks[0].inputs[0].announced());
    }
}
