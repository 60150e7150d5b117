//! Exactly-once recovery integration tests: the journaled-link contract
//! under mid-`run()` panics, the drain/quiesce ladder driven by a
//! [`StopHandle`], and overload-degradation admission policies.
//!
//! The load-bearing distinction from `supervision.rs`: the faults here
//! fire *after* the kernel has popped an element — the element is in
//! flight when the panic unwinds. Without a journal that element is gone
//! (the historical lossy-restart contract, pinned by
//! `unjournaled_restart_drops_in_flight`); with one, the scheduler rewinds
//! the transaction, the link replays it, and the output is byte-identical
//! to a fault-free run on every scheduler.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use raftlib::prelude::*;

const N: u64 = 2_000;

/// A map stage that panics exactly once per value in `panic_at`, *after*
/// popping the element — the in-flight-loss window. The fired set is
/// shared across restarts (the closure is `Clone`), so the replayed
/// element passes through on redelivery: deterministic faults, value- not
/// time-based, identical under every scheduler.
fn panic_once_map(panic_at: &[u64]) -> impl Kernel {
    let panic_at: HashSet<u64> = panic_at.iter().copied().collect();
    let fired = Arc::new(Mutex::new(HashSet::new()));
    lambda_map(move |v: u64| {
        if panic_at.contains(&v) && fired.lock().unwrap().insert(v) {
            panic!("injected in-flight fault at {v}");
        }
        v * 3
    })
}

fn journaled() -> FifoConfig {
    FifoConfig {
        journal: Some(JournalConfig::default()),
        ..FifoConfig::default()
    }
}

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

/// Build src → panicky map → sink with the given link config, run it under
/// `sched` with a Restart policy, and return (output, report).
fn run_faulty_pipeline(
    sched: SchedulerKind,
    fifo: Option<FifoConfig>,
    panic_at: &[u64],
) -> (Vec<u64>, ExeReport) {
    let mut map = RaftMap::new();
    map.config_mut().scheduler = sched;
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        let v = i;
        i += 1;
        (v < N).then_some(v)
    }));
    let flaky = map.add(panic_once_map(panic_at));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
    match fifo {
        Some(cfg) => {
            map.link_with(src, "0", flaky, "0", cfg).unwrap();
            map.link_with(flaky, "0", dst, "0", cfg).unwrap();
        }
        None => {
            map.link(src, "0", flaky, "0").unwrap();
            map.link(flaky, "0", dst, "0").unwrap();
        }
    }
    map.supervise(flaky, SupervisorPolicy::restart(panic_at.len() as u32 + 2));

    let report = map.exe().expect("restart policy absorbs injected panics");
    assert_no_forced_acks(&report);
    let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    (got, report)
}

/// A replay window that drops entries at its bound punctures replay
/// coverage silently — except that it is counted (ROADMAP item 6), and a
/// recovery run must show zero on every link. Park rescues are *not*
/// asserted here: the per-element `notify_if_armed` is lossy by design, and
/// this suite's in-process links show one in ~2 % of runs at the parent
/// commit too (3 of 150); the paths certified rescue-free are pinned by
/// `no_blocking_entry_point_needs_the_park_timeout` in `raft-buffer`.
fn assert_no_forced_acks(report: &ExeReport) {
    for e in &report.edges {
        assert_eq!(e.stats.forced_acks, 0, "{}: forced acks", e.name);
    }
}

fn expected_full() -> Vec<u64> {
    (0..N).map(|v| v * 3).collect()
}

/// The tentpole acceptance check: with journaled links, a Restart after a
/// mid-run panic replays the in-flight element and the output is
/// byte-identical to a fault-free run — first element, middle, and final
/// element all covered, on every scheduler.
#[test]
fn journaled_restart_is_byte_identical() {
    let panic_at = [0, 97, 512, 1024, N - 1];
    for_each_scheduler(|sched| {
        let (got, report) = run_faulty_pipeline(sched, Some(journaled()), &panic_at);
        assert_eq!(
            got,
            expected_full(),
            "journaled restart lost or reordered data"
        );
        assert_eq!(
            report.total_rewinds(),
            panic_at.len() as u64,
            "each injected panic is one journal rewind"
        );
        assert!(
            report.total_replayed() >= panic_at.len() as u64,
            "every rewound element must be redelivered (replayed {} < {})",
            report.total_replayed(),
            panic_at.len()
        );
        let flaky = report.kernel("lambda-map").expect("map kernel in report");
        assert!(flaky.commits > 0, "successful runs must commit");
        assert_eq!(flaky.rewinds, panic_at.len() as u64);
    });
}

/// A *partially* journaled kernel (journaled input, plain output) must
/// fall back to one-run transactions: its earlier runs' outputs are
/// already published, so a batched rewind would replay their inputs and
/// duplicate them downstream. Pins the commit-interval clamp in the
/// runtime wiring — the panic fires after the pop but before the output
/// push, so with per-run commits the output stays byte-identical.
#[test]
fn partially_journaled_kernel_commits_per_run() {
    let panic_at = [3, 250, 1999];
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            let v = i;
            i += 1;
            (v < N).then_some(v)
        }));
        let flaky = map.add(panic_once_map(&panic_at));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
        map.link_with(src, "0", flaky, "0", journaled()).unwrap();
        map.link(flaky, "0", dst, "0").unwrap(); // output NOT journaled
        map.supervise(flaky, SupervisorPolicy::restart(panic_at.len() as u32 + 2));

        let report = map.exe().expect("restart absorbs injected panics");
        assert_no_forced_acks(&report);
        let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        assert_eq!(
            got,
            expected_full(),
            "mixed journaling duplicated or lost elements"
        );
        assert_eq!(report.total_rewinds(), panic_at.len() as u64);
    });
}

/// The historical contract the journal fixes, pinned so the difference
/// stays observable: without a journal the popped element unwinds with the
/// panic and is simply gone — the output is exactly the fault-free stream
/// minus the panic values (no duplicates, no reordering, just loss).
#[test]
fn unjournaled_restart_drops_in_flight() {
    let panic_at = [97, 512, 1024];
    for_each_scheduler(|sched| {
        let (got, report) = run_faulty_pipeline(sched, None, &panic_at);
        let expected: Vec<u64> = (0..N)
            .filter(|v| !panic_at.contains(v))
            .map(|v| v * 3)
            .collect();
        assert_eq!(
            got, expected,
            "unjournaled restart should lose exactly the in-flight elements"
        );
        assert_eq!(report.total_rewinds(), 0, "no journal, no rewinds");
        assert_eq!(report.total_replayed(), 0);
    });
}

/// A [`StopHandle::drain`] on a live graph with an infinite source: the
/// source winds down at ladder level 1, in-flight data flushes, `exe()`
/// returns cleanly, and the sink saw an uninterrupted prefix of the
/// stream — drain is lossless for everything already produced.
#[test]
fn stop_handle_drains_live_graph_losslessly() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            Some(i) // never ends on its own
        }));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
        map.link(src, "0", dst, "0").unwrap();

        let handle = map.stop_handle();
        let controller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            handle.drain();
        });
        let report = map.exe().expect("drain is a clean shutdown, not an error");
        controller.join().unwrap();

        assert!(
            report
                .drain_events
                .iter()
                .any(|ev| ev.level == 1 && ev.reason == DrainReason::Caller),
            "missing caller-requested level-1 drain event: {:?}",
            report.drain_events
        );
        let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        assert!(
            !got.is_empty(),
            "graph should have made progress before the drain"
        );
        let prefix: Vec<u64> = (1..=got.len() as u64).collect();
        assert_eq!(got, prefix, "drain must flush an uninterrupted prefix");
    });
}

/// A [`StopHandle::quiesce`] unsticks a wedged graph: the producer is
/// blocked on a full fixed-size ring (the consumer sleeps per element), so
/// a level-1 drain alone would strand it — level 2 fails the blocked push
/// fast and `exe()` still returns in bounded time.
#[test]
fn stop_handle_quiesce_unsticks_blocked_producer() {
    for_each_scheduler(|sched| {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            Some(i)
        }));
        let dst = map.add(lambda_sink(move |_v: u64| {
            std::thread::sleep(Duration::from_millis(2));
        }));
        map.link_with(src, "0", dst, "0", FifoConfig::fixed(8))
            .unwrap();

        let handle = map.stop_handle();
        let controller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            handle.quiesce();
        });
        let start = std::time::Instant::now();
        let report = map.exe().expect("quiesce is a clean shutdown");
        controller.join().unwrap();

        assert!(
            report
                .drain_events
                .iter()
                .any(|ev| ev.level == 2 && ev.reason == DrainReason::Caller),
            "missing caller-requested level-2 quiesce event: {:?}",
            report.drain_events
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "quiesce must terminate a blocked producer promptly"
        );
    });
}

/// `AdmissionPolicy::Shed` on an overloaded link: the fast producer drops
/// instead of blocking, the drops are counted in the report, and what does
/// arrive is an in-order subsequence (shedding never reorders or
/// duplicates).
#[test]
fn shed_admission_degrades_and_reports() {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        let v = i;
        i += 1;
        (v < 5_000).then_some(v)
    }));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let dst = map.add(lambda_sink(move |v: u64| {
        // Slow consumer: ~1 µs of spinning per element keeps the ring full.
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        sink_seen.lock().unwrap().push(v);
    }));
    let cfg = FifoConfig {
        admission: AdmissionPolicy::Shed,
        ..FifoConfig::fixed(8)
    };
    map.link_with(src, "0", dst, "0", cfg).unwrap();

    let report = map.exe().expect("shedding is degradation, not failure");
    let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();

    assert!(report.total_shed() > 0, "overloaded link never shed");
    assert_eq!(
        got.len() as u64 + report.total_shed(),
        5_000,
        "every element is either delivered or counted as shed"
    );
    assert!(
        got.windows(2).all(|w| w[0] < w[1]),
        "shed output must stay strictly increasing (no reorder, no dup)"
    );
}

/// `BlockTimeout` falls back to shedding only under sustained overload: a
/// generous timeout on a briefly-full ring behaves like `Block` (lossless).
#[test]
fn block_timeout_is_lossless_when_consumer_keeps_up() {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        let v = i;
        i += 1;
        (v < 2_000).then_some(v)
    }));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
    let cfg = FifoConfig {
        admission: AdmissionPolicy::BlockTimeout(Duration::from_secs(5)),
        ..FifoConfig::fixed(16)
    };
    map.link_with(src, "0", dst, "0", cfg).unwrap();

    let report = map.exe().expect("clean run");
    let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    assert_eq!(report.total_shed(), 0, "healthy consumer, nothing shed");
    assert_eq!(got, (0..2_000).collect::<Vec<u64>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: for ANY set of injected in-flight panic values
    /// and any scheduler, a journaled pipeline under Restart produces
    /// output byte-identical to the fault-free run.
    #[test]
    fn journaled_output_matches_fault_free(
        panic_at in proptest::collection::vec(0..500u64, 0..6),
        sched_idx in 0..2usize,
    ) {
        // Dedupe: each distinct value fires at most one injected panic.
        let panic_at: Vec<u64> = panic_at
            .into_iter()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let sched = all_schedulers()[sched_idx].1;

        let mut map = RaftMap::new();
        map.config_mut().scheduler = sched;
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            let v = i;
            i += 1;
            (v < 500).then_some(v)
        }));
        let flaky = map.add(panic_once_map(&panic_at));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
        map.link_with(src, "0", flaky, "0", journaled()).unwrap();
        map.link_with(flaky, "0", dst, "0", journaled()).unwrap();
        map.supervise(flaky, SupervisorPolicy::restart(panic_at.len() as u32 + 1));

        let report = map.exe().expect("restart absorbs injected panics");
        assert_no_forced_acks(&report);
        let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        prop_assert_eq!(got, (0..500u64).map(|v| v * 3).collect::<Vec<u64>>());
        prop_assert_eq!(report.total_rewinds(), panic_at.len() as u64);
    }
}
