//! Chaos suite: deterministic fault injection against supervised maps.
//!
//! Runs only with `--features raft_failpoints`. The CI chaos job executes
//! this suite under three pinned seeds (`RAFT_CHAOS_SEED`); every firing
//! decision is drawn from the seed, so a failure reproduces exactly with
//! `RAFT_CHAOS_SEED=<n> cargo test -p raft-kernels --features
//! raft_failpoints --test chaos`.
#![cfg(feature = "raft_failpoints")]

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use raft_buffer::failpoints::{self, FailAction};
use raft_kernels::{write_each, ChaosConfig, ChaosKernel, Generate};
use raftlib::prelude::*;

/// The failpoint registry is process-global; chaos tests serialize on this
/// so one test's armed sites never fire inside another's map.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::reset();
    guard
}

fn chaos_seed() -> u64 {
    std::env::var("RAFT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Fault handling must be scheduler-independent: every chaos scenario runs
/// under the thread-per-kernel and work-stealing schedulers.
fn for_each_scheduler(body: impl Fn(SchedulerKind)) {
    for (label, sched) in [
        ("thread-per-kernel", SchedulerKind::ThreadPerKernel),
        (
            "stealing",
            SchedulerKind::Stealing {
                workers: 2,
                pin: false,
            },
        ),
    ] {
        // Each iteration starts from a clean registry so one scheduler's
        // exhausted failpoint budgets never leak into the next.
        failpoints::reset();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(sched)));
        if let Err(panic) = result {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("[scheduler = {label}] {msg}");
        }
    }
}

/// A ChaosKernel-injected panic under a Restart policy: the stage comes
/// back on its live ports and the stream arrives complete and in order.
#[test]
fn chaos_panic_absorbed_by_restart() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..800u64));
        let chaotic = map.add(ChaosKernel::new(
            lambda_map(|v: u64| v),
            ChaosConfig::panics(chaos_seed(), 4, 2),
        ));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", chaotic, "0").unwrap();
        map.link(chaotic, "0", dst, "in").unwrap();
        map.supervise(chaotic, SupervisorPolicy::restart(4));

        let report = map.exe().expect("restart absorbs injected panics");
        let outcome = report
            .kernels
            .iter()
            .find(|k| k.name.starts_with("chaos["))
            .expect("chaos kernel in report")
            .outcome;
        assert!(
            matches!(
                outcome,
                KernelOutcome::Completed | KernelOutcome::Restarted(_)
            ),
            "unexpected outcome {outcome:?}"
        );
        let got = std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap();
        assert_eq!(got, (0..800).collect::<Vec<u64>>());
    });
}

/// A hopeless stage (panics every invocation) under Skip: the rest of the
/// pipeline drains and the run is reported per kernel.
#[test]
fn chaos_hopeless_stage_skipped() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..100u64));
        let chaotic = map.add(ChaosKernel::new(
            lambda_map(|v: u64| v),
            ChaosConfig::panics(chaos_seed(), 1, 0), // every run, unlimited
        ));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", chaotic, "0").unwrap();
        map.link(chaotic, "0", dst, "in").unwrap();
        map.supervise(chaotic, SupervisorPolicy::Skip);

        let report = map.exe().expect("skip keeps the run alive");
        let outcome = report
            .kernels
            .iter()
            .find(|k| k.name.starts_with("chaos["))
            .unwrap()
            .outcome;
        assert_eq!(outcome, KernelOutcome::Skipped);
        let got = std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap();
        assert!(got.is_empty());
    });
}

/// Panics injected at the scheduler's own step site — before any kernel
/// code runs — take the policy path like any kernel panic; with Restart on
/// every stage the stream still arrives complete.
#[test]
fn scheduler_step_failpoint_is_policy_handled() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        failpoints::set_seed(chaos_seed());
        failpoints::arm("core::scheduler::step", FailAction::Panic, 50, 2);

        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..2_000u64));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.supervise(src, SupervisorPolicy::restart(5));
        map.supervise(dst, SupervisorPolicy::restart(5));

        let result = map.exe();
        let hits = failpoints::hits("core::scheduler::step");
        failpoints::reset();
        result.expect("step-site panics are absorbed by restart policies");
        assert!(hits > 0, "step failpoint site was never consulted");
        let got = std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap();
        assert_eq!(got, (0..2_000).collect::<Vec<u64>>());
    });
}

/// A crash injected right after the journal records a pop (the
/// `buffer::journal::append` site): the entry is retained, the scheduler
/// rewinds the transaction, and the restarted kernel re-pops it from the
/// replay window — the stream arrives byte-identical with one rewind per
/// injected crash. `one_in = 1` makes the firing schedule deterministic
/// regardless of seed: the first `budget` live pops crash (replay serves
/// don't consult the site, so each crash hits a fresh element).
#[test]
fn journal_append_crash_is_replayed_exactly_once() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        failpoints::set_seed(chaos_seed());
        failpoints::arm("buffer::journal::append", FailAction::Panic, 1, 3);

        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..800u64));
        let stage = map.add(lambda_map(|v: u64| v));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        let journaled = FifoConfig::default().journaled();
        map.link_with(src, "out", stage, "0", journaled).unwrap();
        map.link(stage, "0", dst, "in").unwrap();
        map.supervise(stage, SupervisorPolicy::restart(5));

        let report = map.exe();
        let hits = failpoints::hits("buffer::journal::append");
        failpoints::reset();
        let report = report.expect("journal-site crashes are absorbed by restart");
        assert!(hits > 0, "append failpoint site was never consulted");
        assert_eq!(
            report.total_rewinds(),
            3,
            "each injected crash is exactly one rewind"
        );
        assert!(
            report.total_replayed() >= 3,
            "rewound elements must be replayed"
        );
        let got = std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap();
        assert_eq!(
            got,
            (0..800).collect::<Vec<u64>>(),
            "recovery must be byte-identical"
        );
    });
}

/// A stall injected at the acknowledgement site (`buffer::journal::ack`,
/// consulted by the scheduler's post-run commit, outside the unwind
/// guard): commits slow down but nothing is lost and nothing rewinds.
#[test]
fn journal_ack_stall_is_harmless() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        failpoints::set_seed(chaos_seed());
        failpoints::arm(
            "buffer::journal::ack",
            FailAction::Stall(Duration::from_millis(5)),
            100,
            4,
        );

        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..800u64));
        let stage = map.add(lambda_map(|v: u64| v));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        let journaled = FifoConfig::default().journaled();
        map.link_with(src, "out", stage, "0", journaled).unwrap();
        map.link(stage, "0", dst, "in").unwrap();
        map.supervise(stage, SupervisorPolicy::restart(2));

        let report = map.exe();
        let hits = failpoints::hits("buffer::journal::ack");
        failpoints::reset();
        let report = report.expect("ack stalls only delay commits");
        assert!(hits > 0, "ack failpoint site was never consulted");
        assert_eq!(report.total_rewinds(), 0, "stalls are not crashes");
        let got = std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap();
        assert_eq!(got, (0..800).collect::<Vec<u64>>());
    });
}

/// A stall injected at the drain-escalation site (`buffer::fifo::drain`)
/// while a StopHandle winds down a live graph: the ladder is slowed, not
/// wedged — `exe()` still returns cleanly with the drain recorded.
#[test]
fn drain_ladder_survives_injected_stall() {
    let _guard = chaos_guard();
    failpoints::set_seed(chaos_seed());
    failpoints::arm(
        "buffer::fifo::drain",
        FailAction::Stall(Duration::from_millis(10)),
        1,
        8,
    );

    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        Some(i) // endless: only the drain ladder can stop this graph
    }));
    let (we, handle) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "0", dst, "in").unwrap();

    let stop = map.stop_handle();
    let controller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        stop.drain();
    });
    let report = map.exe();
    let hits = failpoints::hits("buffer::fifo::drain");
    failpoints::reset();
    controller.join().unwrap();
    let report = report.expect("a stalled drain escalation still completes");
    assert!(hits > 0, "drain failpoint site was never consulted");
    assert!(
        report.drain_events.iter().any(|ev| ev.level >= 1),
        "drain ladder never fired: {:?}",
        report.drain_events
    );
    let got = std::sync::Arc::try_unwrap(handle)
        .unwrap()
        .into_inner()
        .unwrap();
    let prefix: Vec<u64> = (1..=got.len() as u64).collect();
    assert_eq!(got, prefix, "drain must deliver an uninterrupted prefix");
}

/// A stall injected at the step site trips the deadline watchdog.
#[test]
fn injected_stall_trips_watchdog() {
    let _guard = chaos_guard();
    for_each_scheduler(|sched| {
        failpoints::set_seed(chaos_seed());
        failpoints::arm(
            "core::scheduler::step",
            FailAction::Stall(Duration::from_millis(150)),
            1, // first step stalls
            1,
        );

        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Generate::new(0..50_000u64));
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.config_mut().monitor =
            MonitorConfig::default().with_run_budget(Duration::from_millis(30));

        let result = map.exe();
        failpoints::reset();
        let report = result.expect("a stall is not a failure");
        assert!(
            report
                .watchdog_events
                .iter()
                .any(|ev| matches!(ev.kind, WatchdogKind::RunBudget { .. })),
            "expected a RunBudget firing, got {:?}",
            report.watchdog_events
        );
        drop(handle);
    });
}
