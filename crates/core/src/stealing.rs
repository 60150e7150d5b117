//! Event-driven work-stealing scheduler.
//!
//! [`WorkStealing`] multiplexes a graph over a fixed pool of workers without
//! ever scanning for runnable kernels:
//!
//! * **Readiness is pushed, not polled.** Each kernel is a *task* with a
//!   tiny state machine (`IDLE → QUEUED → RUNNING`). When a task blocks on
//!   empty inputs, the owning worker *arms* the consumer-side
//!   [`raft_buffer::WakerSlot`] of every input stream and steps away; the
//!   producer endpoint that next pushes data (or EoS, or an async signal)
//!   re-queues the task in O(1) from its own thread. The FIFO's internal
//!   `PARK_TIMEOUT` condvar stops being a polling rate and becomes a pure
//!   safety net.
//! * **Per-worker deques, global injector.** A worker pushes its own
//!   re-runnable tasks onto a Chase–Lev deque (LIFO for itself: hot
//!   caches) and drains the FIFO injector that waker callbacks feed; idle
//!   workers steal the *oldest* entry from a victim's deque before even
//!   thinking about parking.
//! * **Unified idle strategy.** Between "no work anywhere" and "parked on
//!   the condvar" sits the same adaptive spin → yield ladder
//!   ([`raft_buffer::Waiter`]) the blocking FIFO endpoints use.
//! * **Optional core pinning.** `pin: true` makes worker `w` pin itself to
//!   core `w % cores` ([`crate::affinity`]), so the mapper-seeded initial
//!   placement survives OS migration.
//!
//! ## No lost wakeups
//!
//! The park protocol is: arm every input's waker slot → re-check readiness
//! → CAS `RUNNING → IDLE`. The slot's SeqCst fence pairing (see
//! `raft-buffer`'s `waker.rs` proof) guarantees a producer that published
//! data either is seen by the re-check or sees the arm and fires the wake;
//! a wake firing *during* the run window lands as `NOTIFIED` and forces a
//! self-requeue instead of parking. Spurious wakes (stale arms from an
//! earlier park round) are absorbed by the state machine: waking a `QUEUED`
//! task is a no-op, and every claim starts by disarming the inputs.

use std::sync::atomic::{
    fence, AtomicU64, AtomicU8, AtomicUsize,
    Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raft_buffer::sync::{Condvar, Mutex};
use raft_buffer::{FifoWaker, WaitAction, WaitStrategy, Waiter};

use crate::affinity;
use crate::scheduler::{
    drive, inputs_ready, retire, Driven, KernelRunner, RunnerOutcome, Scheduler, SchedulerOutput,
    StepDone, WorkerReport, QUANTUM,
};
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

/// How long a parked worker sleeps before re-checking on its own — purely
/// a safety net against scheduler bugs, not a polling period (wakes arrive
/// through the condvar, so this can be long without adding wake latency).
const WORKER_PARK_TIMEOUT: Duration = Duration::from_millis(10);

std::thread_local! {
    /// Set while this thread is a stealing-pool worker: the pool's `Core`
    /// address plus the worker index. Wakes that fire on a worker thread
    /// (the common case — kernels run on workers, and their pushes fire
    /// the peer's waker inline) are routed to that worker's own deque,
    /// skipping the injector and the condvar syscall.
    static WORKER_CTX: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Pre-park backoff for workers: a short spin/yield ladder before touching
/// the condvar. Fewer yield rounds than the default parking ladder — an
/// idle worker that found nothing after spinning almost never finds work
/// by yielding (wakes arrive through the condvar), and on a loaded box
/// every yield is a context-switch round trip of pure overhead.
const WORKER_IDLE: WaitStrategy = WaitStrategy {
    spin_rounds: 6,
    yield_rounds: 4,
    park_timeout: Some(WORKER_PARK_TIMEOUT),
};

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
    injector: crate::steal::Injector,
    deques: Vec<crate::steal::WorkerDeque>,
    /// Kernels not yet finished.
    remaining: AtomicUsize,
    /// Workers currently inside the park protocol (incremented before the
    /// under-lock recheck). Enqueuers skip the condvar entirely while 0.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    unpark: Condvar,
    /// Latency epoch for `woken_at_ns`.
    epoch: Instant,
}

impl Core {
    #[inline]
    fn now_ns(&self) -> u64 {
        // Saturate to 1 so a 0 timestamp still means "self-requeue".
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// Anything claimable anywhere? Racy — used only under the park lock
    /// (where it is exact enough: a concurrent enqueuer either sees our
    /// sleeper count or we see its queue entry) and in idle heuristics.
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.deques.iter().any(|d| !d.is_empty())
    }

    /// Wake one parked worker if any are parked. Callers must have already
    /// made the new work visible (queue push) *before* calling; the SeqCst
    /// fence pairs with the one in the worker's park protocol so the
    /// sleeper-count check and the worker's work re-check cannot both miss.
    fn wake_worker(&self) {
        fence(SeqCst);
        if self.sleepers.load(Relaxed) > 0 {
            // Take the lock so the notify cannot slot between a parking
            // worker's re-check and its wait.
            let _g = self.park_lock.lock();
            self.unpark.notify_one();
        }
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
        // condvar wake is needed unless entries are piling up behind it
        // (then a parked sibling is worth the futex: it can steal).
        if let Some((core_addr, me)) = WORKER_CTX.get() {
            if core_addr == self as *const Core as usize {
                self.deques[me].push(task);
                if self.deques[me].len() > 1 {
                    self.wake_worker();
                }
                return;
            }
        }
        self.injector.push(task);
        self.wake_worker();
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

    /// Safety-net sweep run by a worker whose park timed out: a task that
    /// is `IDLE` with ready inputs is the signature of a lost wakeup, so
    /// re-queue it. [`wake_task`](Self::wake_task)'s re-arm + re-check
    /// closes every hole the loom model covers; this sweep bounds the
    /// damage of any residual one to a single park period instead of a
    /// permanent hang, and turns "flaky after hours" into telemetry
    /// (`rescues` in the worker report).
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

/// Event-driven work-stealing scheduler (see the module docs).
pub struct WorkStealing {
    /// Worker thread count.
    pub workers: usize,
    /// Pin worker `w` to core `w % cores` (best-effort).
    pub pin: bool,
    /// `placement[k]` = worker whose deque initially holds kernel `k`
    /// (typically the mapper's partition assignment). Empty = all tasks
    /// start in the injector in graph order.
    pub placement: Vec<usize>,
}

impl WorkStealing {
    /// Claim source: own deque (LIFO), then injector (FIFO), then steal
    /// from victims round-robin. Returns the task id and whether it was
    /// stolen.
    fn find_task(core: &Core, me: usize) -> Option<(usize, bool)> {
        if let Some(t) = core.deques[me].pop() {
            return Some((t, false));
        }
        if let Some(t) = core.injector.pop() {
            return Some((t, false));
        }
        let n = core.deques.len();
        for i in 1..n {
            let victim = (me + i) % n;
            loop {
                match core.deques[victim].steal() {
                    crate::steal::Steal::Success(t) => return Some((t, true)),
                    crate::steal::Steal::Retry => continue,
                    crate::steal::Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Drive one claimed task for up to a quantum; `Some` when the kernel
    /// finished. The kernel lifecycle itself lives in
    /// [`crate::scheduler::drive`] / [`retire`]; this function owns only the
    /// task state machine around it.
    fn run_task(
        core: &Core,
        me: usize,
        task: usize,
        stats: &mut WorkerReport,
    ) -> Option<RunnerOutcome> {
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
            return None;
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

        // Every arm below leaves the task QUEUED on our own deque, LIFO
        // (its inputs are cache-hot).
        let requeue = || {
            slot.state.store(QUEUED, Release);
            core.deques[me].push(task);
        };
        match drive(runner, Some(QUANTUM)) {
            Driven::Done(done) => {
                let runner = guard.take().expect("runner present while RUNNING");
                drop(guard);
                // Retiring closes the runner's endpoints: EoS propagates
                // and *their* wakers fire, re-queueing consumers.
                let outcome = retire(runner, done);
                slot.state.store(IDLE, Release);
                if core.remaining.fetch_sub(1, AcqRel) == 1 {
                    // Last kernel done: release every parked worker for exit.
                    let _g = core.park_lock.lock();
                    core.unpark.notify_all();
                }
                Some(outcome)
            }
            Driven::Yielded => {
                // Quantum exhausted mid-stream: yield the worker but stay
                // runnable.
                drop(guard);
                requeue();
                // Kick a parked sibling only when work is piling up behind
                // this worker — a lone requeued task is about to be
                // re-popped right here, and the futex round trip would be
                // pure overhead.
                if core.deques[me].len() > 1 && core.sleepers.load(Relaxed) > 0 {
                    core.wake_worker();
                }
                None
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
                // the run window. Either way requeue rather than park, so
                // the wake is never lost.
                if landed
                    || slot
                        .state
                        .compare_exchange(RUNNING, IDLE, AcqRel, Acquire)
                        .is_err()
                {
                    requeue();
                }
                None
            }
        }
    }
}

impl Scheduler for WorkStealing {
    fn execute(&self, runners: Vec<KernelRunner>) -> SchedulerOutput {
        let n = runners.len();
        let workers = self.workers.max(1);
        if n == 0 {
            return SchedulerOutput::default();
        }
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
            injector: crate::steal::Injector::new(n),
            deques: (0..workers)
                .map(|_| crate::steal::WorkerDeque::new(n))
                .collect(),
            remaining: AtomicUsize::new(n),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            unpark: Condvar::new(),
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
        if self.placement.len() == n {
            for (id, &p) in self.placement.iter().enumerate() {
                core.deques[p % workers].push(id);
            }
        } else {
            for id in 0..n {
                core.injector.push(id);
            }
        }

        let pin = self.pin;
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
                            stats.pinned_core =
                                affinity::pin_current_thread(target).then_some(target);
                        }
                        WORKER_CTX.set(Some((Arc::as_ptr(&core) as usize, w)));
                        let mut outcomes = Vec::new();
                        let mut waiter = Waiter::new(WORKER_IDLE);
                        while core.remaining.load(Acquire) > 0 {
                            if let Some((task, stolen)) = WorkStealing::find_task(&core, w) {
                                waiter.reset();
                                if stolen {
                                    stats.steals += 1;
                                }
                                outcomes.extend(WorkStealing::run_task(&core, w, task, &mut stats));
                                continue;
                            }
                            if waiter.pause_or_park() != WaitAction::Park {
                                continue;
                            }
                            // Park protocol: advertise, then re-check under
                            // the lock (enqueuers notify under the same
                            // lock, so no wake can slip between the check
                            // and the wait). The fence pairs with
                            // wake_worker's — see Core::wake_worker.
                            stats.parks += 1;
                            core.sleepers.fetch_add(1, SeqCst);
                            fence(SeqCst);
                            let mut g = core.park_lock.lock();
                            let mut timed_out = false;
                            if !core.has_work() && core.remaining.load(Acquire) > 0 {
                                (g, timed_out) = core.unpark.wait_timeout(g, WORKER_PARK_TIMEOUT);
                            }
                            drop(g);
                            core.sleepers.fetch_sub(1, SeqCst);
                            if timed_out {
                                // Nobody woke us inside a full park period:
                                // sweep for lost wakeups before re-parking.
                                stats.rescues += core.rescue_idle_ready();
                            }
                            // No waiter.reset() here: if the wake was real,
                            // find_task succeeds next iteration and resets
                            // it; if it was the safety-net timeout, the
                            // waiter stays in its park phase so the worker
                            // re-parks without burning the spin/yield
                            // budget on nothing.
                        }
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
}
