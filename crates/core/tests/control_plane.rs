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
use std::time::Duration;

use raftlib::prelude::*;

/// `comm` of every thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("thread table")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// Run an infinite source into a sink under `monitor`, drain it from
/// outside after 30 ms, and return the thread names the sink saw on its
/// first element plus the report. At that point every thread of the run
/// exists: the control thread is spawned before the scheduler's, the source
/// thread produced the element and the sink thread is looking at it.
fn drained_run(monitor: MonitorConfig) -> (Vec<String>, ExeReport) {
    let mut map = RaftMap::new();
    map.config_mut().monitor = monitor;
    let names = Arc::new(Mutex::new(Vec::new()));
    let src = map.add(lambda_source(|| {
        std::thread::sleep(Duration::from_micros(200));
        Some(1u64)
    }));
    let seen = names.clone();
    let dst = map.add(lambda_sink(move |_: u64| {
        let mut seen = seen.lock().unwrap();
        if seen.is_empty() {
            *seen = thread_names();
        }
    }));
    map.link(src, "0", dst, "0").unwrap();

    let handle = map.stop_handle();
    let controller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        handle.drain();
    });
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
