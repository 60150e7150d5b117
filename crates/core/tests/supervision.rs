//! Integration tests for supervised execution: restart/skip/replace
//! policies, graceful degradation of `exe()`, panic-path EoS propagation,
//! deterministic multi-panic reporting, and the deadline/stall watchdogs.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use raftlib::prelude::*;

/// Forwards `u64`s from "in" to "out", panicking (before touching any
/// port) while the shared counter is positive. Restarted/replaced
/// instances share the counter, so a budget of N panics means exactly N
/// faults across all incarnations.
struct FlakyForward {
    remaining_panics: Arc<AtomicU32>,
}

impl FlakyForward {
    fn new(panics: u32) -> Self {
        FlakyForward {
            remaining_panics: Arc::new(AtomicU32::new(panics)),
        }
    }
}

impl Kernel for FlakyForward {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.remaining_panics.load(Ordering::SeqCst) > 0 {
            self.remaining_panics.fetch_sub(1, Ordering::SeqCst);
            panic!("injected fault");
        }
        let mut input = ctx.input::<u64>("in");
        match input.pop_signal() {
            Ok((v, sig)) => {
                drop(input);
                let mut out = ctx.output::<u64>("out");
                if out.push_signal(v, sig).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "flaky-forward".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(FlakyForward {
            remaining_panics: self.remaining_panics.clone(),
        }))
    }
}

/// A source that panics on its very first `run()`, before pushing a single
/// element — the zero-iteration case of the drain loop.
struct PanicImmediately {
    label: String,
}

impl Kernel for PanicImmediately {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<u64>("out")
    }

    fn run(&mut self, _ctx: &Context) -> KStatus {
        panic!("boom before first push");
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

fn counting_sink() -> (impl Kernel, Arc<Mutex<Vec<u64>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let sink = lambda_sink(move |v: u64| {
        sink_seen.lock().unwrap().push(v);
    });
    (sink, seen)
}

/// Both schedulers the supervision machinery must behave identically
/// under. Policy handling lives in the shared `drive()` bracket, so a
/// regression in either scheduler's panic plumbing shows up here.
fn all_schedulers() -> Vec<(&'static str, SchedulerKind)> {
    vec![
        ("thread-per-kernel", SchedulerKind::ThreadPerKernel),
        (
            "stealing",
            SchedulerKind::Stealing {
                workers: 2,
                pin: false,
            },
        ),
    ]
}

/// Run `body` once per scheduler kind, labelling any failure with the
/// scheduler that produced it.
fn for_each_scheduler(body: impl Fn(SchedulerKind)) {
    for (label, sched) in all_schedulers() {
        eprintln!("  → scheduler: {label}");
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

/// Look a kernel up by base name (map entries are suffixed `#index`).
fn outcome_of(report: &ExeReport, name: &str) -> KernelOutcome {
    report
        .kernels
        .iter()
        .find(|k| k.name.split('#').next() == Some(name))
        .unwrap_or_else(|| panic!("kernel {name:?} missing from report"))
        .outcome
}

/// Strip the `#index` suffixes off a panic report for stable comparison.
fn base_names(kernels: &[String]) -> Vec<&str> {
    kernels
        .iter()
        .map(|k| k.split('#').next().unwrap())
        .collect()
}

/// Restart policy: two injected panics are absorbed, the kernel is rebuilt
/// on its live ports, and every element still flows end to end — under
/// every scheduler.
#[test]
fn restart_policy_recovers_and_loses_nothing() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 500).then_some(i)
        }));
        let flaky = map.add(FlakyForward::new(2));
        let (sink, seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "0", flaky, "in").unwrap();
        map.link(flaky, "out", dst, "0").unwrap();
        map.supervise(flaky, SupervisorPolicy::restart(5));

        let report = map.exe().expect("restart policy absorbs the panics");
        assert_eq!(
            outcome_of(&report, "flaky-forward"),
            KernelOutcome::Restarted(2)
        );
        assert_eq!(*seen.lock().unwrap(), (1..=500).collect::<Vec<u64>>());
    });
}

/// Skip policy: the panicking stage is dropped, EoS propagates, and the
/// run is reported per-kernel instead of failing wholesale.
#[test]
fn skip_policy_drains_pipeline() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 100).then_some(i)
        }));
        let flaky = map.add(FlakyForward::new(u32::MAX));
        let (sink, seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "0", flaky, "in").unwrap();
        map.link(flaky, "out", dst, "0").unwrap();
        map.supervise(flaky, SupervisorPolicy::Skip);

        let report = map.exe().expect("skip policy keeps exe() Ok");
        assert_eq!(outcome_of(&report, "flaky-forward"), KernelOutcome::Skipped);
        assert!(seen.lock().unwrap().is_empty());
    });
}

/// Replace policy: the factory's fresh instance takes over on the same
/// streams.
#[test]
fn replace_policy_installs_factory_kernel() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 300).then_some(i)
        }));
        // The original faults once; every replacement is clean.
        let flaky = map.add(FlakyForward::new(1));
        let (sink, seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "0", flaky, "in").unwrap();
        map.link(flaky, "out", dst, "0").unwrap();
        map.supervise(
            flaky,
            SupervisorPolicy::replace(3, || Box::new(FlakyForward::new(0))),
        );

        let report = map.exe().expect("replace policy absorbs the panic");
        assert_eq!(
            outcome_of(&report, "flaky-forward"),
            KernelOutcome::Restarted(1)
        );
        assert_eq!(*seen.lock().unwrap(), (1..=300).collect::<Vec<u64>>());
    });
}

/// An exhausted restart budget degrades to a skipped stage with an
/// `Aborted` outcome — but the run itself still completes.
#[test]
fn exhausted_restart_budget_degrades_gracefully() {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= 50).then_some(i)
    }));
    let flaky = map.add(FlakyForward::new(u32::MAX));
    let (sink, seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "0", flaky, "in").unwrap();
    map.link(flaky, "out", dst, "0").unwrap();
    map.supervise(flaky, SupervisorPolicy::restart(2));

    let report = map.exe().expect("exhaustion degrades, not aborts the run");
    assert_eq!(outcome_of(&report, "flaky-forward"), KernelOutcome::Aborted);
    assert!(seen.lock().unwrap().is_empty());
}

/// Panics in `run()` and then in the `clone_replica()` a `Restart` policy
/// calls — user code on the supervision path itself. (A replica requested
/// before the first fault, as `exe()`'s analysis does, succeeds.)
struct PanickyClone {
    faulted: bool,
}

impl Kernel for PanickyClone {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }

    fn run(&mut self, _ctx: &Context) -> KStatus {
        self.faulted = true;
        panic!("injected fault");
    }

    fn name(&self) -> String {
        "flaky-forward".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        assert!(!self.faulted, "replica construction failed");
        Some(Box::new(PanickyClone { faulted: false }))
    }
}

/// Regression: a panic inside the supervision path (a `Replace` factory,
/// `clone_replica()`) used to escape the unwind guard and kill the
/// scheduler's thread — `"<unknown>"` failing the run under
/// thread-per-kernel, a task stuck `RUNNING` and a hung `exe()` under
/// stealing. It counts as the restart budget running out: `Aborted`, the
/// run completes, downstream sees EoS.
#[test]
fn panic_in_supervision_path_degrades_gracefully() {
    type Wire = fn(&mut RaftMap) -> KernelId;
    let cases: [(&str, Wire); 2] = [
        ("replace factory", |map| {
            let k = map.add(FlakyForward::new(u32::MAX));
            // The first call is exe()'s static check validating the
            // replacement's ports; the supervisor's calls fail.
            let calls = AtomicU32::new(0);
            let factory = move || match calls.fetch_add(1, Ordering::SeqCst) {
                0 => Box::new(FlakyForward::new(0)) as Box<dyn Kernel>,
                _ => panic!("factory failed"),
            };
            map.supervise(k, SupervisorPolicy::replace(3, factory));
            k
        }),
        ("clone_replica", |map| {
            let k = map.add(PanickyClone { faulted: false });
            map.supervise(k, SupervisorPolicy::restart(3));
            k
        }),
    ];
    for_each_scheduler(|sched| {
        for (case, wire) in cases {
            // exe() runs on a helper thread so a hang fails the test
            // instead of wedging the suite.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut map = RaftMap::new();
                map.config_mut().scheduler = sched;
                let mut i = 0u64;
                let src = map.add(lambda_source(move || {
                    i += 1;
                    (i <= 50).then_some(i)
                }));
                let flaky = wire(&mut map);
                let (sink, seen) = counting_sink();
                let dst = map.add(sink);
                map.link(src, "0", flaky, "in").unwrap();
                map.link(flaky, "out", dst, "0").unwrap();
                let _ = tx.send((map.exe(), seen));
            });
            let (result, seen) = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("[{case}] exe() hung"));
            let report =
                result.unwrap_or_else(|e| panic!("[{case}] degrades, not aborts the run: {e:?}"));
            assert_eq!(
                outcome_of(&report, "flaky-forward"),
                KernelOutcome::Aborted,
                "[{case}]"
            );
            assert_eq!(outcome_of(&report, "lambda-sink"), KernelOutcome::Completed);
            assert!(seen.lock().unwrap().is_empty(), "[{case}]");
        }
    });
}

/// Default Abort policy: unchanged fail-fast behavior.
#[test]
fn abort_policy_fails_exe() {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= 50).then_some(i)
    }));
    let flaky = map.add(FlakyForward::new(u32::MAX));
    let (sink, _seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "0", flaky, "in").unwrap();
    map.link(flaky, "out", dst, "0").unwrap();

    match map.exe() {
        Err(ExeError::KernelPanicked { kernels }) => {
            assert_eq!(base_names(&kernels), vec!["flaky-forward"]);
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
}

/// Regression (zero-iteration drain): a kernel that panics before its
/// first push must still close its output streams, so downstream sees EoS
/// and `exe()` returns instead of hanging.
#[test]
fn panic_before_first_push_propagates_eos() {
    let mut map = RaftMap::new();
    let src = map.add(PanicImmediately {
        label: "instant-boom".to_string(),
    });
    let (sink, seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "out", dst, "0").unwrap();
    map.supervise(src, SupervisorPolicy::Skip);

    let report = map.exe().expect("skip turns the panic into EoS");
    assert_eq!(outcome_of(&report, "instant-boom"), KernelOutcome::Skipped);
    assert_eq!(outcome_of(&report, "lambda-sink"), KernelOutcome::Completed);
    assert!(seen.lock().unwrap().is_empty());
}

/// Same zero-iteration case under the default Abort policy: the error
/// surfaces and nothing hangs.
#[test]
fn panic_before_first_push_aborts_cleanly() {
    let mut map = RaftMap::new();
    let src = map.add(PanicImmediately {
        label: "instant-boom".to_string(),
    });
    let (sink, _seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "out", dst, "0").unwrap();

    match map.exe() {
        Err(ExeError::KernelPanicked { kernels }) => {
            assert_eq!(base_names(&kernels), vec!["instant-boom"]);
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
}

/// Two kernels panicking concurrently must be reported deterministically:
/// sorted by name, independent of which thread died first.
#[test]
fn concurrent_panics_report_deterministically() {
    for _ in 0..30 {
        let mut map = RaftMap::new();
        // Two disconnected panicking pipelines; thread interleaving decides
        // which dies first, the report must not care.
        let a = map.add(PanicImmediately {
            label: "aa-boom".to_string(),
        });
        let (sink_a, _) = counting_sink();
        let da = map.add(sink_a);
        map.link(a, "out", da, "0").unwrap();

        let z = map.add(PanicImmediately {
            label: "zz-boom".to_string(),
        });
        let (sink_z, _) = counting_sink();
        let dz = map.add(sink_z);
        map.link(z, "out", dz, "0").unwrap();

        match map.exe() {
            Err(ExeError::KernelPanicked { kernels }) => {
                assert_eq!(
                    base_names(&kernels),
                    vec!["aa-boom", "zz-boom"],
                    "panic report must be sorted and complete"
                );
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
    }
}

/// A kernel stuck inside one `run()` trips the deadline watchdog, which
/// raises the cooperative stop flag — an otherwise-infinite pipeline ends.
#[test]
fn run_budget_watchdog_stops_stuck_pipeline() {
    struct SleepyOnce {
        slept: bool,
    }
    impl Kernel for SleepyOnce {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            if !self.slept {
                self.slept = true;
                std::thread::sleep(Duration::from_millis(250));
            }
            let mut input = ctx.input::<u64>("in");
            match input.pop_signal() {
                Ok(_) => KStatus::Proceed,
                Err(_) => KStatus::Stop,
            }
        }
        fn name(&self) -> String {
            "sleepy-sink".to_string()
        }
    }

    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        // Infinite trickle source: only the watchdog can end this run.
        let src = map.add(lambda_source(move || {
            std::thread::sleep(Duration::from_micros(500));
            Some(1u64)
        }));
        let dst = map.add(SleepyOnce { slept: false });
        map.link(src, "0", dst, "in").unwrap();
        map.config_mut().monitor =
            MonitorConfig::default().with_run_budget(Duration::from_millis(40));

        let report = map.exe().expect("watchdog stop is a graceful end");
        let fired = report.watchdog_events.iter().any(
            |ev| matches!(&ev.kind, WatchdogKind::RunBudget { kernel } if kernel.starts_with("sleepy-sink")),
        );
        assert!(
            fired,
            "expected a RunBudget firing for sleepy-sink, got {:?}",
            report.watchdog_events
        );
    });
}

/// Streams open but no element moving trips the stall watchdog.
#[test]
fn stall_watchdog_ends_frozen_pipeline() {
    struct Holder;
    impl Kernel for Holder {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            // Keeps its output open but never produces; without the stall
            // watchdog this pipeline runs forever moving nothing.
            if ctx.stop_requested() {
                return KStatus::Stop;
            }
            std::thread::sleep(Duration::from_millis(1));
            KStatus::Proceed
        }
        fn name(&self) -> String {
            "holder".to_string()
        }
    }

    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(Holder);
        let (sink, seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "out", dst, "0").unwrap();
        map.config_mut().monitor =
            MonitorConfig::default().with_stall_timeout(Duration::from_millis(50));

        let report = map.exe().expect("stall stop is a graceful end");
        assert!(
            report
                .watchdog_events
                .iter()
                .any(|ev| matches!(ev.kind, WatchdogKind::StalledStreams)),
            "expected a StalledStreams firing, got {:?}",
            report.watchdog_events
        );
        assert!(seen.lock().unwrap().is_empty());
    });
}

/// A split→join diamond on `FifoConfig::fixed(4)` links that deadlocks by
/// construction: the split feeds only branch `a`, the join pops branch `b`
/// first. Once `WEDGED_AFTER` elements left the source the split is blocked
/// on the full `a` and the join on the empty `b` (waiting, or never ready),
/// for good; the source then pushes one element on its `alarm` port — which
/// the caller links — and finishes. No source is left to stop, so level 1
/// cannot end this graph; only level 2 can. The source never blocks: it
/// spins (`try_push`, `Proceed` on a full ring), so under a pool it must
/// yield its worker fairly to the split queued beneath it.
fn wedged_diamond(map: &mut RaftMap) -> KernelId {
    /// Ring `a` + the element the split holds + the split's input ring.
    const WEDGED_AFTER: u32 = 4 + 1 + 4;

    struct Flood {
        pushed: u32,
    }
    impl Kernel for Flood {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u64>("out").output::<u64>("alarm")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            match ctx.output::<u64>("out").try_push(0) {
                Ok(None) => self.pushed += 1,
                Ok(Some(_)) => {}
                Err(_) => return KStatus::Stop,
            }
            if self.pushed == WEDGED_AFTER {
                let _ = ctx.output::<u64>("alarm").push(0);
                return KStatus::Stop;
            }
            KStatus::Proceed
        }
        fn name(&self) -> String {
            "flood".to_string()
        }
    }

    struct LopsidedSplit;
    impl Kernel for LopsidedSplit {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
                .input::<u64>("in")
                .output::<u64>("a")
                .output::<u64>("b")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let Ok(v) = ctx.input::<u64>("in").pop() else {
                return KStatus::Stop;
            };
            match ctx.output::<u64>("a").push(v) {
                Ok(()) => KStatus::Proceed,
                Err(_) => KStatus::Stop,
            }
        }
        fn name(&self) -> String {
            "lopsided-split".to_string()
        }
    }

    struct BFirstJoin;
    impl Kernel for BFirstJoin {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
                .input::<u64>("a")
                .input::<u64>("b")
                .output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let (Ok(b), Ok(a)) = (ctx.input::<u64>("b").pop(), ctx.input::<u64>("a").pop()) else {
                return KStatus::Stop;
            };
            match ctx.output::<u64>("out").push(a + b) {
                Ok(()) => KStatus::Proceed,
                Err(_) => KStatus::Stop,
            }
        }
        fn name(&self) -> String {
            "b-first-join".to_string()
        }
    }

    let src = map.add(Flood { pushed: 0 });
    let split = map.add(LopsidedSplit);
    let join = map.add(BFirstJoin);
    let (sink, _seen) = counting_sink();
    let dst = map.add(sink);
    let fixed = FifoConfig::fixed(4);
    map.link_with(src, "out", split, "in", fixed).unwrap();
    map.link_with(split, "a", join, "a", fixed).unwrap();
    map.link_with(split, "b", join, "b", fixed).unwrap();
    map.link_with(join, "out", dst, "0", fixed).unwrap();
    src
}

/// `exe()` on a helper thread with a bounded wait, so a graph that stays
/// wedged fails the test instead of hanging it.
fn exe_bounded(map: RaftMap) -> Result<ExeReport, ExeError> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // The receiver is gone only when the wait below already failed.
        let _ = tx.send(map.exe());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("exe() did not return: the stop reason never reached level 2")
}

/// A stall trip enters the same ladder a stop handle does: level 1, then —
/// because this graph cannot drain — level 2 when the grace period expires.
#[test]
fn stall_trip_escalates_to_quiesce_on_deadlocked_diamond() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        map.config_mut().drain_grace = Duration::from_millis(50);
        map.config_mut().monitor =
            MonitorConfig::default().with_stall_timeout(Duration::from_millis(50));
        let src = wedged_diamond(&mut map);
        let (sink, _seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "alarm", dst, "0").unwrap();

        let report = exe_bounded(map).expect("a quiesced graph is a graceful end");
        let stalled = report
            .watchdog_events
            .iter()
            .find(|ev| matches!(ev.kind, WatchdogKind::StalledStreams))
            .unwrap_or_else(|| panic!("no StalledStreams in {:?}", report.watchdog_events));
        let rungs: Vec<_> = report
            .drain_events
            .iter()
            .map(|ev| (ev.level, ev.reason))
            .collect();
        assert_eq!(
            rungs,
            [(1, DrainReason::Stalled), (2, DrainReason::GraceExpired)]
        );
        assert!(
            stalled.at <= report.drain_events[0].at,
            "cause before effect"
        );
    });
}

/// An Abort-policy panic elsewhere in the map must still end a graph that
/// level 1 alone would strand, and surface as the error it is.
#[test]
fn fatal_panic_escalates_to_quiesce_on_deadlocked_diamond() {
    /// Panics on the alarm: once the diamond is wedged.
    struct LateBoom;
    impl Kernel for LateBoom {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("alarm")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            match ctx.input::<u64>("alarm").pop() {
                Ok(_) => panic!("boom once the diamond is wedged"),
                Err(_) => KStatus::Stop,
            }
        }
        fn name(&self) -> String {
            "late-boom".to_string()
        }
    }

    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        map.config_mut().drain_grace = Duration::from_millis(50);
        let src = wedged_diamond(&mut map);
        let boom = map.add(LateBoom);
        map.link(src, "alarm", boom, "alarm").unwrap();

        match exe_bounded(map) {
            Err(ExeError::KernelPanicked { kernels }) => {
                assert_eq!(base_names(&kernels), vec!["late-boom"]);
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
    });
}

/// The work-stealing scheduler runs a multi-stage pipeline to completion
/// with fewer workers than kernels, and surfaces per-worker telemetry in
/// the report.
#[test]
fn stealing_pipeline_completes_with_worker_telemetry() {
    let mut map = RaftMap::new();
    map.config_mut().scheduler = SchedulerKind::Stealing {
        workers: 2,
        pin: false,
    };
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= 10_000).then_some(i)
    }));
    let stage1 = map.add(lambda_map(|v: u64| v * 3));
    let stage2 = map.add(lambda_map(|v: u64| v + 1));
    let (sink, seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "0", stage1, "0").unwrap();
    map.link(stage1, "0", stage2, "0").unwrap();
    map.link(stage2, "0", dst, "0").unwrap();

    let report = map.exe().unwrap();
    assert_eq!(
        *seen.lock().unwrap(),
        (1..=10_000).map(|v| v * 3 + 1).collect::<Vec<u64>>()
    );
    assert_eq!(report.workers.len(), 2, "one report per worker");
    let total_runs: u64 = report.workers.iter().map(|w| w.runs).sum();
    assert!(total_runs >= 4, "4 kernels need at least 4 task claims");
    for w in &report.workers {
        assert_eq!(w.pinned_core, None, "pin: false must not pin");
    }
    for k in &report.kernels {
        assert_eq!(k.outcome, KernelOutcome::Completed, "{} not done", k.name);
    }
    let rescues: u64 = report.workers.iter().map(|w| w.rescues).sum();
    assert_eq!(
        rescues, 0,
        "a task wake-up was lost and caught by the sweep"
    );
}

/// A never-blocking spinner (`try_push`, `Proceed` on a full ring) feeding
/// a forwarder into a sink that pops twice per `run()`, on `fixed(4)` links:
/// the sink's second pop blocks its worker inside the link, so under a
/// two-worker pool the spinner and the forwarder share the other one. A
/// spinner re-claimed ahead of the forwarder starves it for good.
#[test]
fn spinning_source_does_not_starve_the_tasks_queued_beneath_it() {
    const N: u64 = 20_000;

    struct Spinner {
        next: u64,
    }
    impl Kernel for Spinner {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            match ctx.output::<u64>("out").try_push(self.next) {
                Ok(None) => self.next += 1,
                Ok(Some(_)) => {}
                Err(_) => return KStatus::Stop,
            }
            if self.next == N {
                KStatus::Stop
            } else {
                KStatus::Proceed
            }
        }
        fn name(&self) -> String {
            "spinner".to_string()
        }
    }

    struct PairSink {
        sum: Arc<AtomicU64>,
    }
    impl Kernel for PairSink {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            let (Ok(a), Ok(b)) = (input.pop(), input.pop()) else {
                return KStatus::Stop;
            };
            self.sum.fetch_add(a + b, Ordering::Relaxed);
            KStatus::Proceed
        }
        fn name(&self) -> String {
            "pair-sink".to_string()
        }
    }

    for_each_scheduler(|sched| {
        for _ in 0..10 {
            let mut map = RaftMap::new();
            map.config_mut().scheduler = sched;
            let sum = Arc::new(AtomicU64::new(0));
            let src = map.add(Spinner { next: 0 });
            let fwd = map.add(lambda_map(|v: u64| v));
            let dst = map.add(PairSink { sum: sum.clone() });
            let fixed = FifoConfig::fixed(4);
            map.link_with(src, "out", fwd, "0", fixed).unwrap();
            map.link_with(fwd, "0", dst, "in", fixed).unwrap();
            exe_bounded(map).expect("a spinner pipeline completes");
            assert_eq!(sum.load(Ordering::Relaxed), N * (N - 1) / 2);
        }
    });
}

/// A panic that escapes a kernel's lifecycle — here its `Drop`, run when
/// the kernel is retired — fails `exe()` like any Abort-policy panic,
/// under every scheduler, instead of killing the thread that retired it.
#[test]
fn panicking_drop_fails_exe_instead_of_hanging_it() {
    struct BoomOnDrop {
        left: u32,
    }
    impl Kernel for BoomOnDrop {
        fn ports(&self) -> PortSpec {
            PortSpec::new().output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            if self.left == 0 || ctx.output::<u64>("out").push(0).is_err() {
                return KStatus::Stop;
            }
            self.left -= 1;
            KStatus::Proceed
        }
        fn name(&self) -> String {
            "boom-on-drop".to_string()
        }
    }
    impl Drop for BoomOnDrop {
        fn drop(&mut self) {
            panic!("boom while dropping the kernel");
        }
    }

    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let src = map.add(BoomOnDrop { left: 100 });
        let (sink, seen) = counting_sink();
        let dst = map.add(sink);
        map.link(src, "out", dst, "0").unwrap();

        match exe_bounded(map) {
            Err(ExeError::KernelPanicked { kernels }) => {
                assert_eq!(base_names(&kernels), vec!["boom-on-drop"]);
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
        assert_eq!(
            seen.lock().unwrap().len(),
            100,
            "the drop still closed the link"
        );
    });
}

/// The watchdog must not fire on a healthy fast pipeline.
#[test]
fn watchdog_quiet_on_healthy_pipeline() {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= 20_000).then_some(i)
    }));
    let (sink, seen) = counting_sink();
    let dst = map.add(sink);
    map.link(src, "0", dst, "0").unwrap();
    map.config_mut().monitor = MonitorConfig::default()
        .with_run_budget(Duration::from_secs(5))
        .with_stall_timeout(Duration::from_secs(5));

    let report = map.exe().unwrap();
    assert!(report.watchdog_events.is_empty());
    assert_eq!(seen.lock().unwrap().len(), 20_000);
}
