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
//! by value when it is joined. Each tick it:
//!
//! 0. applies any requested drain level, fires the `exe` deadline and the
//!    grace-expiry escalation, and checks the run-budget and stall
//!    watchdogs (all of this also runs, at 1 ms, when resize monitoring is
//!    [`MonitorConfig::disabled`]);
//! 1. samples every queue's occupancy into its histogram (the telemetry the
//!    paper exposes: mean occupancy, service rate, throughput, occupancy
//!    histograms);
//! 2. grows queues whose writer has been blocked ≥ 3δ in total over the
//!    last six ticks (`BLOCK_WINDOW`). The paper's "blocked for a time period of
//!    3 × δ" is counted in aggregate, not as one continuous episode: a
//!    writer that a per-element wake frees for one slot at a time blocks in
//!    episodes of microseconds, yet may be blocked most of the run. After a
//!    grow the window restarts, so one stall pays for one grow;
//! 3. grows queues whose reader requested more than the current capacity;
//! 4. shrinks queues that stayed nearly empty for a long hysteresis window;
//! 5. when the dynamic optimizer is enabled, adjusts the active width of
//!    split adapters whose input is persistently backed up (bottleneck
//!    elimination, §3).

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
    /// Allow shrinking long-underutilized queues.
    pub shrink_enabled: bool,
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
            shrink_enabled: true,
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

/// Per-kernel watchdog bookkeeping: the `(entered, runs)` pair last seen
/// and when it last changed.
struct HealthState {
    last_entered: u64,
    last_runs: u64,
    since: Instant,
    fired: bool,
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
    let delta_ns = cfg.delta.as_nanos() as u64;
    let mut low_ticks: Vec<u32> = vec![0; fifos.len()];
    // Per link, the writer's blocked total at each of the last
    // BLOCK_WINDOW ticks; `oldest` indexes the one BLOCK_WINDOW ticks back.
    let mut blocked_window: Vec<[u64; BLOCK_WINDOW]> = vec![[0; BLOCK_WINDOW]; fifos.len()];
    let mut oldest = 0;
    let mut backed_up_ticks: Vec<u32> = vec![0; widths.len()];
    let mut starved_ticks: Vec<u32> = vec![0; widths.len()];
    let mut health_state: Vec<HealthState> = health
        .iter()
        .map(|_| HealthState {
            last_entered: 0,
            last_runs: 0,
            since: start,
            fired: false,
        })
        .collect();
    let mut last_popped: u64 = 0;
    let mut popped_since = start;
    let mut stall_fired = false;

    while ladder.tick(shutdown, &fifos, &mut log.drains) {
        // --- watchdogs: a trip is logged and enters the ladder, which the
        // --- next tick applies ------------------------------------------
        if let Some(budget) = cfg.run_budget {
            for (t, st) in health.iter().zip(health_state.iter_mut()) {
                let entered = t.telemetry.entered.load(Ordering::Relaxed);
                let runs = t.telemetry.runs.load(Ordering::Relaxed);
                if entered != st.last_entered || runs != st.last_runs {
                    st.last_entered = entered;
                    st.last_runs = runs;
                    st.since = Instant::now();
                    st.fired = false;
                } else if entered > runs && !st.fired && st.since.elapsed() >= budget {
                    // In `run()` right now and has been, without returning,
                    // for the whole budget window.
                    st.fired = true;
                    log.watchdog.push(WatchdogEvent {
                        at: start.elapsed(),
                        kind: WatchdogKind::RunBudget {
                            kernel: t.name.clone(),
                        },
                    });
                    shutdown.request(DRAIN_DRAINING, DrainReason::RunBudget);
                }
            }
        }
        if let Some(timeout) = cfg.stall_timeout {
            let popped: u64 = fifos.iter().map(|(_, f)| f.stats().popped()).sum();
            let all_finished = fifos.iter().all(|(_, f)| f.is_finished());
            if popped != last_popped || all_finished {
                last_popped = popped;
                popped_since = Instant::now();
                stall_fired = false;
            } else if !stall_fired && popped_since.elapsed() >= timeout {
                stall_fired = true;
                log.watchdog.push(WatchdogEvent {
                    at: start.elapsed(),
                    kind: WatchdogKind::StalledStreams,
                });
                shutdown.request(DRAIN_DRAINING, DrainReason::Stalled);
            }
        }

        for (i, (name, f)) in fifos.iter().enumerate() {
            if !cfg.enabled {
                break;
            }
            // 1. occupancy histogram sample
            f.sample();

            let capacity = f.capacity();
            let stats = f.stats();

            // 2. writer blocked ≥ 3δ over the window → grow
            let blocked = stats.writer_blocked_total_ns();
            let window = &mut blocked_window[i];
            let then = std::mem::replace(&mut window[oldest], blocked);
            if blocked.saturating_sub(then) >= 3 * delta_ns {
                let old = capacity;
                if f.grow() {
                    // Restart the window so one long stall does not
                    // trigger a growth cascade.
                    *window = [blocked; BLOCK_WINDOW];
                    log.resizes.push(ResizeEvent {
                        at: start.elapsed(),
                        edge: i,
                        edge_name: name.clone(),
                        old_capacity: old,
                        new_capacity: f.capacity(),
                        reason: ResizeReason::WriterBlocked,
                    });
                    low_ticks[i] = 0;
                    continue;
                }
            }

            // 3. read request larger than capacity → grow to fit
            let want = stats.max_read_request();
            if want > capacity {
                let old = capacity;
                if f.grow_to(want) {
                    log.resizes.push(ResizeEvent {
                        at: start.elapsed(),
                        edge: i,
                        edge_name: name.clone(),
                        old_capacity: old,
                        new_capacity: f.capacity(),
                        reason: ResizeReason::ReadRequest,
                    });
                    low_ticks[i] = 0;
                    continue;
                }
            }

            // 4. sustained low occupancy → shrink (hysteresis). Never
            // shrink below the largest batch a reader ever requested, or
            // the read-request trigger would immediately grow again
            // (grow/shrink oscillation).
            if cfg.shrink_enabled {
                let occ = f.occupancy();
                let floor = stats.max_read_request();
                if occ * 8 < capacity && capacity > 1 && capacity / 2 >= floor {
                    low_ticks[i] += 1;
                    if low_ticks[i] >= cfg.shrink_after_ticks {
                        let old = capacity;
                        if f.shrink() {
                            log.resizes.push(ResizeEvent {
                                at: start.elapsed(),
                                edge: i,
                                edge_name: name.clone(),
                                old_capacity: old,
                                new_capacity: f.capacity(),
                                reason: ResizeReason::Shrink,
                            });
                        }
                        low_ticks[i] = 0;
                    }
                } else {
                    low_ticks[i] = 0;
                }
            }
        }
        oldest = (oldest + 1) % BLOCK_WINDOW;

        // 5. dynamic replication width
        if cfg.enabled {
            for (i, t) in widths.iter().enumerate() {
                let cur = t.control.get();
                // Widen: split's input queue persistently > 3/4 full while
                // not all replicas are active.
                let in_occ = t.input.occupancy();
                let in_cap = t.input.capacity().max(1);
                if cur < t.control.max() && in_occ * 4 >= in_cap * 3 {
                    backed_up_ticks[i] += 1;
                    if backed_up_ticks[i] >= cfg.widen_after_ticks {
                        let new = t.control.widen();
                        log.widths.push(WidthEvent {
                            at: start.elapsed(),
                            split: t.name.clone(),
                            old_width: cur,
                            new_width: new,
                        });
                        backed_up_ticks[i] = 0;
                    }
                } else {
                    backed_up_ticks[i] = 0;
                }
                // Narrow: input empty and all active replica queues empty
                // for a long stretch.
                let all_idle = in_occ == 0
                    && t.replica_inputs
                        .iter()
                        .take(cur as usize)
                        .all(|r| r.occupancy() == 0);
                if cur > 1 && all_idle {
                    starved_ticks[i] += 1;
                    if starved_ticks[i] >= cfg.widen_after_ticks * 8 {
                        let new = t.control.narrow();
                        log.widths.push(WidthEvent {
                            at: start.elapsed(),
                            split: t.name.clone(),
                            old_width: cur,
                            new_width: new,
                        });
                        starved_ticks[i] = 0;
                    }
                } else {
                    starved_ticks[i] = 0;
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
    use raft_buffer::{fifo_with, AdmissionPolicy, FifoConfig};

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
        // On a full ring with a 20 µs admission budget each push blocks for
        // the spin → yield schedule (tens of µs) and sheds. One push every
        // 4 ms, each under half of 3δ, puts at most two episodes — < 3δ —
        // in any window the monitor's six ticks can span unless it is
        // starved for 8 ms. A push the host preempted for longer stretches
        // its episode towards 3δ alone: such an attempt does not test the
        // rule and is discarded.
        let cfg = cfg_fast();
        let half_3delta = cfg.delta * 3 / 2;
        for _ in 0..8 {
            let (f, mut p, _c) = fifo_with::<u64>(
                FifoConfig::starting_at(64)
                    .with_admission(AdmissionPolicy::BlockTimeout(Duration::from_micros(20))),
            );
            for i in 0..64 {
                p.try_push(i).unwrap();
            }
            let finish = start(
                cfg.clone(),
                vec![("edge0".into(), Arc::new(f.clone()) as Arc<dyn Monitorable>)],
                vec![],
            );
            let mut longest = Duration::ZERO;
            let end = Instant::now() + Duration::from_millis(50);
            while Instant::now() < end {
                let t = Instant::now();
                p.push(0).unwrap();
                longest = longest.max(t.elapsed());
                std::thread::sleep(Duration::from_millis(4));
            }
            let events = finish().resizes;
            if longest >= half_3delta {
                continue;
            }
            assert!(f.snapshot().shed > 0, "the writer never blocked");
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
            shrink_enabled: false,
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
}
