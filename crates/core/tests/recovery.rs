//! Exactly-once recovery integration tests: the journaled-link contract
//! under mid-`run()` panics and the drain/quiesce ladder driven by a
//! [`StopHandle`].
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
use raft_kernels::{Map, SliceMap, SlidingWindow};
use raftlib::prelude::*;

const N: u64 = 2_000;

/// A map stage that panics exactly once per value in `panic_at`, *after*
/// popping the element — the in-flight-loss window. The fired set is
/// shared across restarts (the closure is `Clone`), so the replayed
/// element passes through on redelivery: deterministic faults, value- not
/// time-based, identical under every scheduler.
fn panic_once_map(panic_at: &[u64]) -> impl Kernel {
    let fault = panic_once(panic_at);
    lambda_map(move |v: u64| {
        fault(v);
        v * 3
    })
}

/// The fault of [`panic_once_map`] on its own: panics the first time it
/// sees each value in `panic_at`, across restarts and clones.
fn panic_once(panic_at: &[u64]) -> impl Fn(u64) + Clone + Send + 'static {
    let panic_at: Arc<HashSet<u64>> = Arc::new(panic_at.iter().copied().collect());
    let fired = Arc::new(Mutex::new(HashSet::new()));
    move |v| {
        if panic_at.contains(&v) && fired.lock().unwrap().insert(v) {
            panic!("injected in-flight fault at {v}");
        }
    }
}

fn journaled() -> FifoConfig {
    FifoConfig::default().journaled()
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

/// Runs `inner` after panicking, once each, before the runs whose ordinals
/// (from 0) are in `before`: the panic lands between runs, so what it
/// rewinds is the earlier runs of the open transaction. Re-entered in place
/// on restart, so the run count survives it.
struct PanicBeforeRun<K> {
    inner: K,
    before: HashSet<u64>,
    runs: u64,
}

impl<K: Kernel> Kernel for PanicBeforeRun<K> {
    fn ports(&self) -> PortSpec {
        self.inner.ports()
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let run = self.runs;
        self.runs += 1;
        if self.before.remove(&run) {
            panic!("injected fault before run {run}");
        }
        self.inner.run(ctx)
    }
}

/// Reads up to 8 elements per run with `pop_range` and forwards each × 3,
/// calling `fault` on each before it is sent.
struct BatchMap<F> {
    fault: F,
    batch: Vec<u64>,
}

impl<F: Fn(u64) + Send + 'static> Kernel for BatchMap<F> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        // Re-entered in place on restart: drop what the failed run read.
        self.batch.clear();
        if ctx
            .input::<u64>("in")
            .pop_range(8, &mut self.batch)
            .is_err()
        {
            return KStatus::Stop;
        }
        let mut out = ctx.output::<u64>("out");
        for &v in &self.batch {
            (self.fault)(v);
            if out.push(v * 3).is_err() {
                return KStatus::Stop;
            }
        }
        KStatus::Proceed
    }
}

/// The kernel shapes [`journaled_output_matches_fault_free`] runs between
/// a source of `0..N` and a sink, one per stream access pattern: a lambda
/// map (per-element pop and push), `SliceMap` (`pop_slice` + `push_batch`),
/// `SlidingWindow(4, 4)` (`peek_range` + `advance`), a fused `Map → Map`
/// (`pop_range` in, `reserve` out), and [`BatchMap`] reading whole rings
/// of a `fixed(8)` link with `pop_range(8)`.
const SHAPES: [&str; 5] = [
    "lambda-map",
    "slice-map",
    "window",
    "fused-maps",
    "fixed-batch",
];

/// Build source → `shape` → sink with every link journaled through
/// the map-wide `FifoConfig` (so the fusable chain still fuses), inject the
/// faults `panic_at` names, run under Restart, and return the sink's output
/// (windows flattened), the fault-free output, the number of faults that
/// fire, and the report.
fn run_shape(
    shape: &str,
    sched: SchedulerKind,
    panic_at: &[u64],
) -> (Vec<u64>, Vec<u64>, u64, ExeReport) {
    let mut map = RaftMap::new();
    map.config_mut().scheduler = sched;
    map.config_mut().fifo = journaled();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        let v = i;
        i += 1;
        (v < N).then_some(v)
    }));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let restart = SupervisorPolicy::restart(panic_at.len() as u32 + 1);
    let inputs = 0..N;
    let (faults, expected): (u64, Vec<u64>) = match shape {
        "lambda-map" | "slice-map" => {
            let (k, (k_in, k_out)) = if shape == "lambda-map" {
                (map.add(panic_once_map(panic_at)), ("0", "0"))
            } else {
                let fault = panic_once(panic_at);
                let k = map.add(SliceMap::new(move |v: &u64| {
                    fault(*v);
                    v * 3
                }));
                (k, ("in", "out"))
            };
            let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
            map.link(src, "0", k, k_in).unwrap();
            map.link(k, k_out, dst, "0").unwrap();
            map.supervise(k, restart);
            (panic_at.len() as u64, inputs.map(|v| v * 3).collect())
        }
        "window" => {
            // One window per run: the fault for `v` comes before the run
            // that reads the window holding `v`.
            let before: HashSet<u64> = panic_at.iter().map(|v| v / 4).collect();
            let faults = before.len() as u64;
            let k = map.add(PanicBeforeRun {
                inner: SlidingWindow::<u64>::new(4, 4),
                before,
                runs: 0,
            });
            let dst = map.add(lambda_sink(move |w: Vec<u64>| {
                sink_seen.lock().unwrap().extend(w);
            }));
            map.link(src, "0", k, "in").unwrap();
            map.link(k, "out", dst, "0").unwrap();
            map.supervise(k, restart);
            (faults, inputs.collect())
        }
        "fixed-batch" => {
            let k = map.add(BatchMap {
                fault: panic_once(panic_at),
                batch: Vec::new(),
            });
            let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
            // One read can fill the ring: the transaction must commit before
            // the next read meets the ceiling, or the valve forces acks.
            let fixed = FifoConfig::fixed(8).journaled();
            map.link_with(src, "0", k, "in", fixed).unwrap();
            map.link(k, "out", dst, "0").unwrap();
            map.supervise(k, restart);
            (panic_at.len() as u64, inputs.map(|v| v * 3).collect())
        }
        _ => {
            let fault = panic_once(panic_at);
            let head = map.add(Map::new(move |v: u64| {
                fault(v);
                v * 3
            }));
            let tail = map.add(Map::new(|v: u64| v + 1));
            let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
            map.link(src, "0", head, "in").unwrap();
            map.link(head, "out", tail, "in").unwrap();
            map.link(tail, "out", dst, "0").unwrap();
            map.supervise(head, restart.clone());
            map.supervise(tail, restart);
            (panic_at.len() as u64, inputs.map(|v| v * 3 + 1).collect())
        }
    };
    let report = map.exe().expect("restart absorbs injected panics");
    if shape == "fused-maps" {
        assert_eq!(report.fused.len(), 1, "the two maps fuse");
    }
    let got = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    (got, expected, faults, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: for ANY set of injected panics, any scheduler
    /// and every stream access pattern ([`SHAPES`]), a journaled pipeline
    /// under Restart produces output byte-identical to the fault-free run.
    #[test]
    fn journaled_output_matches_fault_free(
        panic_at in proptest::collection::vec(0..N, 0..6),
        sched_idx in 0..2usize,
    ) {
        // Dedupe: each distinct value fires at most one injected panic.
        let panic_at: Vec<u64> = panic_at
            .into_iter()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let sched = all_schedulers()[sched_idx].1;
        for shape in SHAPES {
            let (got, expected, faults, report) = run_shape(shape, sched, &panic_at);
            assert_no_forced_acks(&report);
            prop_assert_eq!(got, expected, "shape {}", shape);
            prop_assert_eq!(report.total_rewinds(), faults, "shape {}", shape);
        }
    }
}

/// A replicated region with every link journaled completes on one stealing
/// worker, where a join that waited inside `run()` would wedge the pool:
/// nothing else could run to feed it (the join's own rule is pinned by
/// `parallel::tests::reduce_does_not_wait_on_its_own_held_element`).
#[test]
fn journaled_replicated_region_completes_on_one_stealing_worker() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut map = RaftMap::new();
        map.config_mut().scheduler = SchedulerKind::Stealing {
            workers: 1,
            pin: false,
        };
        map.config_mut().fifo = journaled();
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            let v = i;
            i += 1;
            (v < N).then_some(v)
        }));
        let work = map.add(Map::new(|v: u64| v * 3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let dst = map.add(lambda_sink(move |v: u64| sink_seen.lock().unwrap().push(v)));
        map.link_unordered(src, "0", work, "in").unwrap();
        map.link_unordered(work, "out", dst, "0").unwrap();
        map.prefer_width(work, 2);
        let report = map.exe().expect("the region runs to completion");
        let got = std::mem::take(&mut *seen.lock().unwrap());
        done.send((report.replicated.len(), got)).unwrap();
    });
    let (replicated, mut got) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a journaled replicated region completes on one worker");
    assert_eq!(replicated, 1, "the region was replicated");
    got.sort_unstable();
    assert_eq!(got, (0..N).map(|v| v * 3).collect::<Vec<u64>>());
}
