//! The queue monitor — RaftLib's δ-periodic resize and telemetry thread.
//!
//! §4 of the paper: "RaftLib deals with this by detecting this condition
//! with a monitoring thread, updated every δ ← 10 µs. ... On the side
//! writing to the queue, if the write process is blocked for a time period
//! of 3 × δ then the queue is resized. On the read side, if the reading
//! compute kernel requests more items than the queue has available then the
//! queue is tagged for resizing."
//!
//! One monitor thread serves the whole application ("a thread continuously
//! monitors all the queues within the system and reallocates them as needed
//! (either larger or smaller)", §4.2), and it is the run's only control
//! thread: always spawned, it also owns the drain ladder — the one path
//! every stop reason takes (`Ladder`) — and hands its event logs back
//! by value when it is joined. Each tick, after the ladder, it works per
//! target in three steps:
//!
//! 1. **observe:** read each link once into a `LinkSample` (the writer's
//!    blocked total, the largest read request, occupancy — also recorded
//!    into the occupancy histogram, the telemetry the paper exposes —,
//!    capacity and bounds), each split once into a `SplitSample`, and each
//!    watched kernel's `(entered, runs)` pair and the links' popped total;
//! 2. **decide:** pure functions of the sample and the target's own state
//!    (no clock, no atomic, no thread):
//!    * `LinkRules::decide` grows a link whose writer has been blocked
//!      ≥ 3δ in total over the last six ticks (`BLOCK_WINDOW`) — the
//!      paper's "blocked for a time period of 3 × δ" counted in aggregate,
//!      since a writer that a per-element wake frees one slot at a time
//!      blocks in episodes of microseconds yet may be blocked most of the
//!      run; the window restarts after a grow, so one stall pays for one
//!      grow —, else grows one whose reader requested more than its
//!      capacity, else shrinks one that stayed nearly empty for
//!      [`MonitorConfig::shrink_after_ticks`];
//!    * `SplitRules::decide` widens a split whose input stays backed up
//!      (bottleneck elimination, §3) and narrows one that stays idle;
//!    * `Unchanged::trips` fires the run-budget and stall watchdogs;
//! 3. **apply:** one `Monitorable::resize` per decision — a posted target
//!    the link's producer seals its ring into, logged when it changed —
//!    one width step, or a watchdog event plus a drain request.
//!
//! When resize monitoring is [`MonitorConfig::disabled`] the loop ticks at
//! 1 ms and runs only the ladder and the watchdogs.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raft_buffer::fifo::Monitorable;
use raft_buffer::{DRAIN_DRAINING, DRAIN_QUIESCED};

use crate::parallel::WidthControl;
use crate::runtime::{DrainEvent, DrainReason, Shutdown};
use crate::scheduler::KernelTelemetry;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sampling period δ. The paper uses 10 µs; the default here is 100 µs
    /// (kinder to small hosts), configurable down to the paper's value.
    pub delta: Duration,
    /// Master switch for resize monitoring. With it off, queues never
    /// resize, no occupancy histograms are collected and split widths stay
    /// put; the watchdogs and the drain ladder keep running at a 1 ms tick.
    pub enabled: bool,
    /// Consecutive low-occupancy ticks before a shrink (hysteresis).
    pub shrink_after_ticks: u32,
    /// Consecutive backed-up ticks before widening a split.
    pub widen_after_ticks: u32,
    /// Deadline watchdog: if a single `run()` invocation exceeds this
    /// budget, the monitor records a [`WatchdogEvent`] and enters the drain
    /// ladder ([`DrainReason::RunBudget`]) so the rest of the pipeline
    /// winds down. `None` (the default) disables the check.
    pub run_budget: Option<Duration>,
    /// Stall watchdog: if *no* stream moves any element for this long
    /// while streams are still open, the monitor records a
    /// [`WatchdogEvent`] and enters the drain ladder
    /// ([`DrainReason::Stalled`]). `None` (the default) disables the check.
    pub stall_timeout: Option<Duration>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            delta: Duration::from_micros(100),
            enabled: true,
            shrink_after_ticks: 200,
            widen_after_ticks: 20,
            run_budget: None,
            stall_timeout: None,
        }
    }
}

impl MonitorConfig {
    /// Fully disabled monitor (for the monitoring-overhead ablation).
    pub fn disabled() -> Self {
        MonitorConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// Arm the per-invocation `run()` deadline watchdog.
    pub fn with_run_budget(mut self, budget: Duration) -> Self {
        self.run_budget = Some(budget);
        self
    }

    /// Arm the stalled-streams watchdog.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }
}

/// Why a queue was resized (for the resize trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeReason {
    /// Writer blocked ≥ 3δ in total over the last six ticks.
    WriterBlocked,
    /// Reader requested more items than the capacity.
    ReadRequest,
    /// Sustained low occupancy.
    Shrink,
}

/// One entry of the resize trace.
#[derive(Debug, Clone)]
pub struct ResizeEvent {
    /// Time since monitor start.
    pub at: Duration,
    /// Index of the stream in the runtime's edge table.
    pub edge: usize,
    /// Edge display name (`src.port -> dst.port`).
    pub edge_name: String,
    /// Capacity before.
    pub old_capacity: usize,
    /// Capacity after.
    pub new_capacity: usize,
    /// Trigger.
    pub reason: ResizeReason,
}

/// A split adapter under optimizer control.
pub(crate) struct WidthTarget {
    /// The split's active-width control.
    pub control: WidthControl,
    /// The split's input stream (backed-up input ⇒ widen).
    pub input: Arc<dyn Monitorable>,
    /// The replicas' input streams (all starved ⇒ narrow).
    pub replica_inputs: Vec<Arc<dyn Monitorable>>,
    /// Display name for the width-change log.
    pub name: String,
}

/// A kernel under watchdog observation.
pub(crate) struct HealthTarget {
    /// Kernel display name (for the event log).
    pub name: String,
    /// Its scheduler telemetry; `entered > runs` with both counters
    /// unchanged across the budget window means "stuck inside one
    /// `run()` invocation".
    pub telemetry: Arc<KernelTelemetry>,
}

/// What the deadline watchdog detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogKind {
    /// A single `run()` invocation exceeded [`MonitorConfig::run_budget`].
    RunBudget {
        /// The offending kernel's display name.
        kernel: String,
    },
    /// No stream moved any element for [`MonitorConfig::stall_timeout`]
    /// while streams were still open.
    StalledStreams,
}

/// One entry of the watchdog event log. Each firing also enters the drain
/// ladder (sources observe level 1 via
/// [`Context::stop_requested`](crate::port::Context::stop_requested); a
/// graph that cannot drain is quiesced after the grace period), so a wedged
/// pipeline degrades to a partial result instead of a hang.
#[derive(Debug, Clone)]
pub struct WatchdogEvent {
    /// Time since monitor start.
    pub at: Duration,
    /// What was detected.
    pub kind: WatchdogKind,
}

/// A width-change log entry.
#[derive(Debug, Clone)]
pub struct WidthEvent {
    /// Time since monitor start.
    pub at: Duration,
    /// Split display name.
    pub split: String,
    /// Active width before.
    pub old_width: u32,
    /// Active width after.
    pub new_width: u32,
}

/// What the control thread hands back through its [`JoinHandle`].
#[derive(Debug, Default)]
pub(crate) struct ControlLog {
    pub resizes: Vec<ResizeEvent>,
    pub widths: Vec<WidthEvent>,
    pub watchdog: Vec<WatchdogEvent>,
    pub drains: Vec<DrainEvent>,
}

/// Tick of the control thread when resize monitoring is off.
const LADDER_TICK: Duration = Duration::from_millis(1);

/// Ticks over which a writer's blocked time is summed for the grow rule.
const BLOCK_WINDOW: usize = 6;

/// The drain ladder: the one shutdown path. Any reason → a
/// [`Shutdown::request`] → level 1 (sources stop, in-flight data flushes)
/// → `grace` → level 2 (FIFOs fail fast, so kernels blocked mid-push/pop
/// unstick). A request for level 2 climbs both rungs at once.
struct Ladder {
    /// The control thread's epoch: every event log's `at` counts from here.
    start: Instant,
    grace: Duration,
    /// `exe_with_timeout`'s deadline, until it fires.
    deadline_at: Option<Instant>,
    /// When level 1 runs out of grace, while level 1 is the level in force.
    escalate_at: Option<Instant>,
}

impl Ladder {
    /// One tick: two relaxed loads while nothing is requested, and no clock
    /// read unless a deadline or a grace period is pending. `false` once the
    /// run is over.
    fn tick(
        &mut self,
        shutdown: &Shutdown,
        fifos: &[(String, Arc<dyn Monitorable>)],
        log: &mut Vec<DrainEvent>,
    ) -> bool {
        if self.deadline_at.is_some() || self.escalate_at.is_some() {
            let now = Instant::now();
            if self.deadline_at.is_some_and(|at| now >= at) {
                self.deadline_at = None;
                shutdown.request(DRAIN_DRAINING, DrainReason::Deadline);
            }
            if self.escalate_at.is_some_and(|at| now >= at) {
                shutdown.request(DRAIN_QUIESCED, DrainReason::GraceExpired);
            }
        }
        let Some((want, reason)) = shutdown.requested() else {
            return false;
        };
        for level in shutdown.level() + 1..=want {
            shutdown.apply(level);
            for (_, f) in fifos {
                f.set_drain_level(level);
            }
            self.escalate_at = (level == DRAIN_DRAINING).then(|| Instant::now() + self.grace);
            log.push(DrainEvent {
                at: self.start.elapsed(),
                level,
                reason,
            });
        }
        true
    }
}

/// Start the control thread over the given streams, split adapters and
/// watched kernels. It runs until [`Shutdown::finish`] and returns its logs
/// by value; it ticks at δ when resize monitoring is enabled and at
/// [`LADDER_TICK`] otherwise (the resize, telemetry and width work is then
/// skipped; the ladder and the watchdogs are not).
pub(crate) fn spawn(
    cfg: MonitorConfig,
    drain_grace: Duration,
    deadline: Option<Duration>,
    fifos: Vec<(String, Arc<dyn Monitorable>)>,
    widths: Vec<WidthTarget>,
    health: Vec<HealthTarget>,
    shutdown: Arc<Shutdown>,
) -> JoinHandle<ControlLog> {
    std::thread::Builder::new()
        .name("raft-monitor".into())
        .spawn(move || {
            let start = Instant::now();
            let ladder = Ladder {
                start,
                grace: drain_grace,
                deadline_at: deadline.map(|d| start + d),
                escalate_at: None,
            };
            control_loop(cfg, ladder, fifos, widths, health, &shutdown)
        })
        .expect("spawn monitor thread")
}

/// One tick's reading of a link.
#[derive(Debug, Clone, Copy)]
struct LinkSample {
    /// The writer's blocked total, ns (`FifoStats::writer_blocked_total_ns`).
    blocked_ns: u64,
    /// The largest batch a reader ever requested.
    want: usize,
    occupancy: usize,
    capacity: usize,
    /// `(min, max)` capacity, powers of two.
    bounds: (usize, usize),
}

/// A link's rule state: the writer's blocked total at each of the last
/// [`BLOCK_WINDOW`] ticks, and the current low-occupancy streak.
#[derive(Debug, Default, Clone)]
struct LinkRules {
    blocked: [u64; BLOCK_WINDOW],
    low_ticks: u32,
}

impl LinkRules {
    /// The resize this sample calls for, if any; `oldest` indexes the
    /// window slot written [`BLOCK_WINDOW`] ticks ago.
    fn decide(
        &mut self,
        s: LinkSample,
        oldest: usize,
        cfg: &MonitorConfig,
    ) -> Option<(usize, ResizeReason)> {
        let (min, max) = s.bounds;
        let then = std::mem::replace(&mut self.blocked[oldest], s.blocked_ns);
        if s.capacity < max && s.blocked_ns.saturating_sub(then) >= 3 * cfg.delta.as_nanos() as u64
        {
            // Restart the window so one long stall does not trigger a
            // growth cascade.
            self.blocked = [s.blocked_ns; BLOCK_WINDOW];
            self.low_ticks = 0;
            return Some((s.capacity * 2, ResizeReason::WriterBlocked));
        }
        if s.capacity < max && s.want > s.capacity {
            self.low_ticks = 0;
            return Some((s.want, ResizeReason::ReadRequest));
        }
        // Never shrink below the largest batch a reader ever requested, or
        // the read-request rule would grow it straight back.
        let low = s.occupancy * 8 < s.capacity && s.capacity > min && s.capacity / 2 >= s.want;
        streak(&mut self.low_ticks, low, cfg.shrink_after_ticks)
            .then_some((s.capacity / 2, ResizeReason::Shrink))
    }
}

/// Extend the streak `n` of ticks on which `on` held, or end it; `true` when
/// it reaches `len`, which starts it over.
fn streak(n: &mut u32, on: bool, len: u32) -> bool {
    *n = if on { *n + 1 } else { 0 };
    let done = on && *n >= len;
    if done {
        *n = 0;
    }
    done
}

/// One tick's reading of a split adapter.
#[derive(Debug, Clone, Copy)]
struct SplitSample {
    width: u32,
    max_width: u32,
    /// The split's input is at least 3/4 full.
    backed_up: bool,
    /// The split's input and every active replica's input are empty.
    idle: bool,
}

/// A split's rule state: the current backed-up and idle streaks.
#[derive(Debug, Default, Clone)]
struct SplitRules {
    backed_up: u32,
    idle: u32,
}

impl SplitRules {
    /// `Some(true)` to widen by one replica, `Some(false)` to narrow by
    /// one: widen after `widen_after` backed-up ticks, narrow after eight
    /// times as many idle ones.
    fn decide(&mut self, s: SplitSample, widen_after: u32) -> Option<bool> {
        let widen = streak(
            &mut self.backed_up,
            s.backed_up && s.width < s.max_width,
            widen_after,
        );
        let narrow = streak(&mut self.idle, s.idle && s.width > 1, widen_after * 8);
        (widen || narrow).then_some(widen)
    }
}

/// A watchdog over a key that should keep changing: it trips once when the
/// key has stood still for a whole budget while armed.
#[derive(Debug, Clone)]
struct Unchanged<K> {
    key: K,
    since: Instant,
    fired: bool,
}

impl<K: PartialEq> Unchanged<K> {
    fn new(key: K, now: Instant) -> Self {
        Unchanged {
            key,
            since: now,
            fired: false,
        }
    }

    /// `true` the first time `key`, `armed` throughout, has not changed for
    /// `budget`; a new key or a disarmed tick starts over.
    fn trips(&mut self, key: K, armed: bool, now: Instant, budget: Duration) -> bool {
        if key != self.key || !armed {
            *self = Unchanged::new(key, now);
            return false;
        }
        let trip = !self.fired && now.duration_since(self.since) >= budget;
        self.fired |= trip;
        trip
    }
}

fn control_loop(
    cfg: MonitorConfig,
    mut ladder: Ladder,
    fifos: Vec<(String, Arc<dyn Monitorable>)>,
    widths: Vec<WidthTarget>,
    health: Vec<HealthTarget>,
    shutdown: &Shutdown,
) -> ControlLog {
    let mut log = ControlLog::default();
    let start = ladder.start;
    let tick = if cfg.enabled { cfg.delta } else { LADDER_TICK };
    let mut links = vec![LinkRules::default(); fifos.len()];
    let mut oldest = 0;
    let mut splits = vec![SplitRules::default(); widths.len()];
    let mut in_run = vec![Unchanged::new((0, 0), start); health.len()];
    let mut stalled = Unchanged::new(0, start);

    while ladder.tick(shutdown, &fifos, &mut log.drains) {
        // Watchdogs: a trip is logged and enters the ladder, which the next
        // tick applies.
        let mut trip = |kind, reason| {
            log.watchdog.push(WatchdogEvent {
                at: start.elapsed(),
                kind,
            });
            shutdown.request(DRAIN_DRAINING, reason);
        };
        if let Some(budget) = cfg.run_budget {
            let now = Instant::now();
            for (t, dog) in health.iter().zip(&mut in_run) {
                let entered = t.telemetry.entered.load(Ordering::Relaxed);
                let runs = t.telemetry.runs.load(Ordering::Relaxed);
                // Inside `run()` and has been, without returning, for the
                // whole budget.
                if dog.trips((entered, runs), entered > runs, now, budget) {
                    let kernel = t.name.clone();
                    trip(WatchdogKind::RunBudget { kernel }, DrainReason::RunBudget);
                }
            }
        }
        if let Some(timeout) = cfg.stall_timeout {
            let popped: u64 = fifos.iter().map(|(_, f)| f.stats().popped()).sum();
            let open = !fifos.iter().all(|(_, f)| f.is_finished());
            if stalled.trips(popped, open, Instant::now(), timeout) {
                trip(WatchdogKind::StalledStreams, DrainReason::Stalled);
            }
        }

        if cfg.enabled {
            for (edge, ((name, f), rules)) in fifos.iter().zip(&mut links).enumerate() {
                let stats = f.stats();
                let s = LinkSample {
                    blocked_ns: stats.writer_blocked_total_ns(),
                    want: stats.max_read_request(),
                    occupancy: f.sample(),
                    capacity: f.capacity(),
                    bounds: f.bounds(),
                };
                let Some((target, reason)) = rules.decide(s, oldest, &cfg) else {
                    continue;
                };
                let new_capacity = f.resize(target);
                if new_capacity != s.capacity {
                    log.resizes.push(ResizeEvent {
                        at: start.elapsed(),
                        edge,
                        edge_name: name.clone(),
                        old_capacity: s.capacity,
                        new_capacity,
                        reason,
                    });
                }
            }
            oldest = (oldest + 1) % BLOCK_WINDOW;

            for (t, rules) in widths.iter().zip(&mut splits) {
                let width = t.control.get();
                let in_occ = t.input.occupancy();
                let s = SplitSample {
                    width,
                    max_width: t.control.max(),
                    backed_up: in_occ * 4 >= t.input.capacity().max(1) * 3,
                    idle: in_occ == 0
                        && t.replica_inputs
                            .iter()
                            .take(width as usize)
                            .all(|r| r.occupancy() == 0),
                };
                if let Some(widen) = rules.decide(s, cfg.widen_after_ticks) {
                    log.widths.push(WidthEvent {
                        at: start.elapsed(),
                        split: t.name.clone(),
                        old_width: width,
                        new_width: if widen {
                            t.control.widen()
                        } else {
                            t.control.narrow()
                        },
                    });
                }
            }
        }

        // δ sleep. For very small δ a sleep overshoots; spin-sleep hybrid.
        if tick >= Duration::from_micros(50) {
            std::thread::sleep(tick);
        } else {
            let end = Instant::now() + tick;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_buffer::{fifo_with, FifoConfig};

    /// Run the control thread over `fifos` and `widths`; calling the
    /// returned closure ends the run and yields the logs.
    fn start(
        cfg: MonitorConfig,
        fifos: Vec<(String, Arc<dyn Monitorable>)>,
        widths: Vec<WidthTarget>,
    ) -> impl FnOnce() -> ControlLog {
        let shutdown = Arc::new(Shutdown::default());
        let grace = Duration::from_millis(500);
        let handle = spawn(cfg, grace, None, fifos, widths, vec![], shutdown.clone());
        move || {
            shutdown.finish();
            handle.join().unwrap()
        }
    }

    fn cfg_fast() -> MonitorConfig {
        MonitorConfig {
            delta: Duration::from_micros(100),
            shrink_after_ticks: 10,
            widen_after_ticks: 3,
            ..Default::default()
        }
    }

    #[test]
    fn grows_when_writer_blocked() {
        let (f, mut p, _c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: 64,
            min_capacity: 2,
            ..Default::default()
        });
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let finish = start(
            cfg_fast(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        // Block the writer in another thread.
        let t = std::thread::spawn(move || {
            p.push(4).unwrap();
            p
        });
        let _p = t.join().unwrap();
        let events = finish().resizes;
        assert!(
            events
                .iter()
                .any(|e| e.reason == ResizeReason::WriterBlocked),
            "expected a writer-block resize, got {events:?}"
        );
        assert!(f.capacity() >= 8);
    }

    fn writer_block_grows(events: &[ResizeEvent]) -> usize {
        events
            .iter()
            .filter(|e| e.reason == ResizeReason::WriterBlocked)
            .count()
    }

    /// Busy-wait `d`: a sleep this short overshoots by tens of µs.
    fn spin_for(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn blocked_time_survives_grows() {
        const MAX: usize = 1 << 16;
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: MAX,
            min_capacity: 2,
            ..Default::default()
        });
        let cfg = cfg_fast();
        let delta_ns = cfg.delta.as_nanos() as u64;
        let finish = start(
            cfg,
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        let writer = std::thread::spawn(move || {
            for i in 0..=MAX as u64 {
                p.push(i).unwrap();
            }
        });
        // Nothing pops until every grow the writer can force has happened.
        let deadline = Instant::now() + Duration::from_secs(20);
        while f.capacity() < MAX && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.capacity(), MAX);
        for i in 0..=MAX as u64 {
            assert_eq!(c.pop().unwrap(), i);
        }
        writer.join().unwrap();
        let events = finish().resizes;
        let grows = writer_block_grows(&events) as u64;
        // Every grow was paid for by 3δ of blocking; the counter must show it.
        let blocked = f.snapshot().writer_blocked_ns;
        assert!(
            blocked >= grows * 3 * delta_ns,
            "{grows} grows need ≥ {} ns of writer blocking, counter shows {blocked} ns",
            grows * 3 * delta_ns
        );
    }

    #[test]
    fn grows_when_writer_blocks_in_short_episodes() {
        const N: u64 = 2_000;
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::starting_at(64));
        for i in 0..64 {
            p.try_push(i).unwrap();
        }
        let go = Arc::new(std::sync::Barrier::new(2));
        // Each pop frees one slot, which the blocked writer takes at once:
        // the writer is blocked nearly all the time, ~20 µs at a stretch.
        let consumer = std::thread::spawn({
            let go = go.clone();
            move || {
                go.wait();
                for i in 0..N {
                    spin_for(Duration::from_micros(20));
                    assert_eq!(c.pop().unwrap(), i);
                }
            }
        });
        let finish = start(
            cfg_fast(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        go.wait();
        for i in 64..N {
            p.push(i).unwrap();
        }
        consumer.join().unwrap();
        let events = finish().resizes;
        assert!(
            writer_block_grows(&events) >= 1,
            "writer blocked {} ns in short episodes, no grow: {events:?}",
            f.snapshot().writer_blocked_ns
        );
    }

    #[test]
    fn keeps_size_when_writer_blocks_now_and_then() {
        // Every 4 ms the consumer lets the writer start one push on the full
        // ring, waits until it is about to push, spins 20 µs and pops one
        // element: each episode is ~20 µs plus a wake-up, under half of 3δ,
        // so at most two episodes — < 3δ — fall in any window the
        // monitor's six ticks can span unless it is starved for 8 ms. A
        // push the host preempted for longer stretches its episode towards
        // 3δ alone: such an attempt does not test the rule and is
        // discarded.
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let cfg = cfg_fast();
        let half_3delta = cfg.delta * 3 / 2;
        for _ in 0..8 {
            let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig::starting_at(64));
            for i in 0..64 {
                p.try_push(i).unwrap();
            }
            let finish = start(
                cfg.clone(),
                vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
                vec![],
            );
            let (go, turns) = std::sync::mpsc::channel();
            let pushing = Arc::new(AtomicBool::new(false));
            let consumer = std::thread::spawn({
                let pushing = pushing.clone();
                move || {
                    for _ in 0..12 {
                        std::thread::sleep(Duration::from_millis(4));
                        go.send(()).unwrap();
                        while !pushing.swap(false, SeqCst) {
                            std::thread::yield_now();
                        }
                        spin_for(Duration::from_micros(20));
                        c.pop().unwrap();
                    }
                    c // hung up, but still there for the last push
                }
            });
            let mut longest = Duration::ZERO;
            // Ends when the consumer has made its last turn and hung up.
            while turns.recv().is_ok() {
                pushing.store(true, SeqCst);
                let t = Instant::now();
                p.push(0).unwrap();
                longest = longest.max(t.elapsed());
            }
            let _c = consumer.join().unwrap();
            let events = finish().resizes;
            if longest >= half_3delta {
                continue;
            }
            assert!(
                f.snapshot().writer_blocked_ns > 0,
                "the writer never blocked"
            );
            assert_eq!(writer_block_grows(&events), 0, "{events:?}");
            assert_eq!(f.capacity(), 64);
            return;
        }
        panic!("the writer was preempted mid-episode in every attempt");
    }

    #[test]
    fn shrinks_idle_queue_after_hysteresis() {
        let (f, _p, _c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 64,
            max_capacity: 128,
            min_capacity: 4,
            ..Default::default()
        });
        let finish = start(
            cfg_fast(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        // idle queue: occupancy 0 for many ticks
        std::thread::sleep(Duration::from_millis(50));
        let events = finish().resizes;
        assert!(
            events.iter().any(|e| e.reason == ResizeReason::Shrink),
            "expected shrink events, got {events:?}"
        );
        assert!(f.capacity() < 64);
    }

    #[test]
    fn disabled_monitor_does_nothing() {
        let (f, mut p, _c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 4,
            max_capacity: 64,
            min_capacity: 4,
            ..Default::default()
        });
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        let finish = start(
            MonitorConfig::disabled(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        std::thread::sleep(Duration::from_millis(20));
        let events = finish().resizes;
        assert!(events.is_empty());
        assert_eq!(f.capacity(), 4);
        assert_eq!(f.snapshot().mean_occupancy, 4.0); // instantaneous only
    }

    #[test]
    fn optimizer_narrows_idle_split() {
        use crate::parallel::{Split, SplitStrategy};
        // A split with all queues idle: the optimizer should narrow it
        // after the (long) starvation window.
        let split = Split::<u64>::new(3, SplitStrategy::RoundRobin);
        let ctl = split.width_control();
        assert_eq!(ctl.get(), 3);
        let (f_in, _p1, _c1) = fifo_with::<u64>(FifoConfig::starting_at(8));
        let (f_r1, _p2, _c2) = fifo_with::<u64>(FifoConfig::starting_at(8));
        let (f_r2, _p3, _c3) = fifo_with::<u64>(FifoConfig::starting_at(8));
        let target = WidthTarget {
            control: ctl.clone(),
            input: Arc::new(f_in),
            replica_inputs: vec![Arc::new(f_r1), Arc::new(f_r2)],
            name: "idle-split".into(),
        };
        let cfg = MonitorConfig {
            delta: Duration::from_micros(100),
            widen_after_ticks: 2, // narrow threshold = 8x this
            ..Default::default()
        };
        let finish = start(cfg, vec![], vec![target]);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ctl.get() == 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let width_events = finish().widths;
        assert!(ctl.get() < 3, "optimizer never narrowed: {width_events:?}");
        assert!(!width_events.is_empty());
    }

    #[test]
    fn samples_fill_histogram() {
        let (f, mut p, _c) = fifo_with::<u64>(FifoConfig::starting_at(16));
        for i in 0..3 {
            p.try_push(i).unwrap();
        }
        let finish = start(
            cfg_fast(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        std::thread::sleep(Duration::from_millis(20));
        finish();
        let snap = f.snapshot();
        assert!(snap.occupancy_hist.iter().sum::<u64>() > 0);
        assert!(snap.mean_occupancy > 0.0);
    }

    /// A read request above the ceiling grows the link to the ceiling once,
    /// with a log entry, and then leaves it alone: no later tick posts the
    /// target again. The failpoint counts the producer's seals.
    #[test]
    fn read_request_above_the_ceiling_grows_once_and_logs_it() {
        let (f, mut p, mut c) = fifo_with::<u64>(FifoConfig {
            initial_capacity: 8,
            max_capacity: 256,
            min_capacity: 8,
            ..Default::default()
        });
        p.try_push(0).unwrap();
        assert_eq!(c.pop_range(512, &mut Vec::new()).unwrap(), 1);
        #[cfg(feature = "raft_failpoints")]
        {
            use raft_buffer::failpoints::{arm, FailAction};
            arm(
                "buffer::fifo::resize",
                FailAction::Stall(Duration::ZERO),
                1,
                0,
            );
        }
        let finish = start(
            MonitorConfig::default(),
            vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
            vec![],
        );
        std::thread::sleep(Duration::from_millis(30));
        let events = finish().resizes;
        let snap = f.snapshot();
        assert_eq!(
            snap.resizes,
            events.len() as u64,
            "unlogged resize: {events:?}"
        );
        assert!(
            matches!(
                events[..],
                [ResizeEvent {
                    reason: ResizeReason::ReadRequest,
                    old_capacity: 8,
                    new_capacity: 256,
                    ..
                }]
            ),
            "{events:?}"
        );
        #[cfg(feature = "raft_failpoints")]
        {
            // The registry is process-wide, so seals by tests running
            // alongside count too: compare with the ticks (one histogram
            // sample each) rather than expect exactly one hit.
            let hits = raft_buffer::failpoints::hits("buffer::fifo::resize");
            raft_buffer::failpoints::reset();
            let ticks: u64 = snap.occupancy_hist.iter().sum();
            assert!(hits < ticks / 2, "{hits} seals over {ticks} ticks");
        }
    }

    // ---- the rules alone: synthetic samples, no thread, no clock -------

    const DELTA_NS: u64 = 100_000;
    const TENTH: u64 = DELTA_NS / 10;

    /// A link of capacity 64 within `2..=1024`, full, nothing requested.
    fn link(blocked_ns: u64) -> LinkSample {
        LinkSample {
            blocked_ns,
            want: 0,
            occupancy: 64,
            capacity: 64,
            bounds: (2, 1 << 10),
        }
    }

    /// Feed `samples` tick by tick to fresh rules; the ticks that resized.
    fn feed(samples: impl IntoIterator<Item = LinkSample>) -> Vec<(usize, usize, ResizeReason)> {
        let cfg = cfg_fast();
        assert_eq!(cfg.delta.as_nanos() as u64, DELTA_NS);
        let mut rules = LinkRules::default();
        samples
            .into_iter()
            .enumerate()
            .filter_map(|(t, s)| {
                let (target, reason) = rules.decide(s, t % BLOCK_WINDOW, &cfg)?;
                Some((t, target, reason))
            })
            .collect()
    }

    /// The writer's blocked total per tick, from each tick's blocking in
    /// tenths of δ.
    fn blocked(tenths: &[u64]) -> impl Iterator<Item = LinkSample> + '_ {
        tenths.iter().scan(0, |total, t| {
            *total += t * TENTH;
            Some(link(*total))
        })
    }

    #[test]
    fn rule_grows_on_short_episodes_summing_to_3_delta_within_six_ticks() {
        // δ/2 of blocking on six consecutive ticks: 3δ by the sixth.
        let grows = feed(blocked(&[5, 5, 5, 5, 5, 5, 0, 0]));
        assert_eq!(grows, [(5, 128, ResizeReason::WriterBlocked)]);
        // The same 3δ, one δ/2 episode every other tick, spans eleven.
        assert_eq!(feed(blocked(&[5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 0])), []);
    }

    #[test]
    fn rule_grows_once_per_3_delta() {
        // One 3δ stall: after the grow the window restarts at the current
        // total, so the same blocked time does not pay for a second grow
        // while it is still in the window; a fresh 3δ grows again.
        let mut tenths = vec![30];
        tenths.extend([0; 8]);
        tenths.push(30);
        let grows = feed(blocked(&tenths));
        assert_eq!(
            grows,
            [
                (0, 128, ResizeReason::WriterBlocked),
                (9, 128, ResizeReason::WriterBlocked)
            ]
        );
    }

    #[test]
    fn rule_never_grows_at_the_ceiling() {
        let at_max = blocked(&[30, 30, 30]).map(|s| LinkSample {
            capacity: 1 << 10,
            occupancy: 1 << 10,
            ..s
        });
        assert_eq!(feed(at_max), []);
    }

    #[test]
    fn rule_grows_to_a_read_request_below_the_ceiling_only() {
        let want = |want, capacity| LinkSample {
            want,
            capacity,
            ..link(0)
        };
        assert_eq!(feed([want(100, 64)]), [(0, 100, ResizeReason::ReadRequest)]);
        assert_eq!(feed([want(4096, 1 << 10); 3]), []);
    }

    #[test]
    fn rule_shrinks_after_a_low_streak_only() {
        let shrink_after = cfg_fast().shrink_after_ticks as usize;
        let low = LinkSample {
            occupancy: 0,
            ..link(0)
        };
        assert_eq!(
            feed(vec![low; shrink_after]),
            [(shrink_after - 1, 32, ResizeReason::Shrink)]
        );
        // A busy tick restarts the streak.
        let mut interrupted = vec![low; shrink_after - 1];
        interrupted.push(link(0));
        interrupted.extend(vec![low; shrink_after - 1]);
        assert_eq!(feed(interrupted), []);
        // Never below a read request, never below the floor.
        let requested = LinkSample { want: 40, ..low };
        assert_eq!(feed(vec![requested; 5 * shrink_after]), []);
        let at_min = LinkSample {
            bounds: (64, 1 << 10),
            ..low
        };
        assert_eq!(feed(vec![at_min; 5 * shrink_after]), []);
    }

    /// Feed `samples` to fresh split rules; the ticks that changed width.
    fn feed_split(samples: &[SplitSample], widen_after: u32) -> Vec<(usize, bool)> {
        let mut rules = SplitRules::default();
        let ticks = samples.iter().enumerate();
        ticks
            .filter_map(|(t, s)| Some((t, rules.decide(*s, widen_after)?)))
            .collect()
    }

    #[test]
    fn rule_widens_a_backed_up_split_and_narrows_an_idle_one() {
        let backed_up = SplitSample {
            width: 1,
            max_width: 4,
            backed_up: true,
            idle: false,
        };
        let calm = SplitSample {
            backed_up: false,
            ..backed_up
        };
        assert_eq!(feed_split(&[backed_up; 3], 3), [(2, true)]);
        assert_eq!(
            feed_split(&[backed_up, backed_up, calm, backed_up, backed_up], 3),
            []
        );
        let at_max = SplitSample {
            width: 4,
            ..backed_up
        };
        assert_eq!(feed_split(&[at_max; 10], 3), []);

        let idle = SplitSample {
            width: 3,
            idle: true,
            ..calm
        };
        assert_eq!(feed_split(&[idle; 24], 3), [(23, false)]);
        assert_eq!(feed_split(&[idle; 23], 3), []);
        let narrowest = SplitSample { width: 1, ..idle };
        assert_eq!(feed_split(&[narrowest; 100], 3), []);
    }

    #[test]
    fn run_budget_trips_once_per_standstill_inside_run() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let budget = Duration::from_millis(10);
        let mut dog = Unchanged::new((0u64, 0u64), t0);
        let mut trips =
            |entered, runs, at| dog.trips((entered, runs), entered > runs, ms(at), budget);
        // Enters `run()` at 1 ms and stays: trips at 11 ms, once.
        assert!(!trips(1, 0, 1));
        assert!(!trips(1, 0, 10));
        assert!(trips(1, 0, 11));
        assert!(!trips(1, 0, 50));
        // Returns and is stuck in the next invocation: a new standstill.
        assert!(!trips(2, 1, 51));
        assert!(trips(2, 1, 61));
        // Between invocations (entered == runs) it never trips.
        assert!(!trips(2, 2, 62));
        assert!(!trips(2, 2, 1_000));
    }

    #[test]
    fn stall_trips_once_and_never_after_every_link_finished() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let timeout = Duration::from_millis(10);
        let mut dog = Unchanged::new(0u64, t0);
        assert!(!dog.trips(5, true, ms(1), timeout));
        assert!(!dog.trips(5, true, ms(10), timeout));
        assert!(dog.trips(5, true, ms(11), timeout));
        assert!(!dog.trips(5, true, ms(30), timeout));
        // Moving again, then standing still with every link finished.
        assert!(!dog.trips(9, true, ms(31), timeout));
        assert!(!dog.trips(9, false, ms(32), timeout));
        assert!(!dog.trips(9, false, ms(1_000), timeout));
    }
}
