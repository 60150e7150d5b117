//! The control plane of a run is one thread, and it is always there: the
//! monitor thread owns the drain ladder, so `exe()` starts no thread besides
//! it and the scheduler's own, and a stop request is served even with resize
//! monitoring disabled.
//!
//! One `#[test]` on purpose: the thread census reads this process's whole
//! thread table (`/proc/self/task`, hence Linux only), so nothing else in
//! the binary may be running a map.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use raftlib::prelude::*;

/// `comm` of every thread of this process once the table has settled,
/// sorted. One pass over `/proc/self/task` is no snapshot: a thread ending
/// while it is read (a joined thread of the run before, still leaving the
/// thread list) makes the kernel's walk skip live threads after it. And a
/// new thread names itself only once it first runs, carrying its spawner's
/// `comm` until then. So the table is read until two passes in a row agree
/// and no thread but `spawner` itself carries its name (or 5 s pass).
fn thread_names(spawner: &str) -> Vec<String> {
    let pass = || {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("thread table")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim_end().to_string())
            .collect();
        names.sort();
        names
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = pass();
    loop {
        std::thread::yield_now();
        let next = pass();
        let unnamed = next.iter().filter(|name| *name == spawner).count();
        if (next == last && unnamed == 1) || Instant::now() > deadline {
            return next;
        }
        last = next;
    }
}

/// Run an infinite source into a sink under `monitor`, drain it from
/// outside after 30 ms, and return the thread names the sink saw on its
/// first element plus the report. At that point every thread of the run
/// exists: the control thread is spawned before the scheduler's, the source
/// thread produced the element and the sink thread is looking at it. The
/// run's threads are spawned from this one, which is why the controller
/// gets a name of its own.
fn drained_run(monitor: MonitorConfig) -> (Vec<String>, ExeReport) {
    let mut map = RaftMap::new();
    map.config_mut().monitor = monitor;
    let names = Arc::new(Mutex::new(Vec::new()));
    let spawner = std::fs::read_to_string("/proc/thread-self/comm").expect("own comm");
    let src = map.add(lambda_source(|| {
        std::thread::sleep(Duration::from_micros(200));
        Some(1u64)
    }));
    let seen = names.clone();
    let dst = map.add(lambda_sink(move |_: u64| {
        let mut seen = seen.lock().unwrap();
        if seen.is_empty() {
            *seen = thread_names(spawner.trim_end());
        }
    }));
    map.link(src, "0", dst, "0").unwrap();

    let handle = map.stop_handle();
    let controller = std::thread::Builder::new()
        .name("controller".into())
        .spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.drain();
        })
        .unwrap();
    // The deadline is only this test's safety net: a drain that is never
    // served shows up as a `Deadline` rung below instead of a hang.
    let report = map
        .exe_with_timeout(Duration::from_secs(20))
        .expect("a drained run is a clean end");
    controller.join().unwrap();
    let names = names.lock().unwrap().clone();
    (names, report)
}

#[test]
fn one_control_thread_always_present() {
    for monitor in [MonitorConfig::default(), MonitorConfig::disabled()] {
        let enabled = monitor.enabled;
        let (names, report) = drained_run(monitor);
        let rungs: Vec<_> = report
            .drain_events
            .iter()
            .map(|ev| (ev.level, ev.reason))
            .collect();
        assert_eq!(
            rungs,
            [(1, DrainReason::Caller)],
            "monitor enabled = {enabled}: StopHandle::drain() must end an infinite source"
        );
        // Every runtime thread is named `raft-…`: the two kernel threads
        // plus exactly one control thread, whatever it would be called.
        let runtime: Vec<_> = names.iter().filter(|n| n.starts_with("raft-")).collect();
        let control = runtime.iter().filter(|n| **n == "raft-monitor").count();
        assert_eq!(
            (runtime.len(), control),
            (2 + 1, 1),
            "monitor enabled = {enabled}: threads were {names:?}"
        );
    }
}
