//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! Ablation: monitoring overhead vs. δ.
//!
//! The paper's monitor samples every queue each δ = 10 µs and stresses that
//! the collection "is optimized to reduce overhead" (TimeTrial lineage).
//! This bench runs a saturated pipeline with δ ∈ {10 µs, 100 µs, 1 ms} and
//! with the monitor disabled, so the cost of observation is measured
//! directly.

use raft_bench::measure::{bench, Throughput};
use raft_kernels::{Count, Generate, Map};
use raftlib::prelude::*;

const ITEMS: u64 = 100_000;

fn run(monitor: MonitorConfig) -> std::time::Duration {
    let mut cfg = MapConfig::default();
    cfg.monitor = monitor;
    cfg.fifo = FifoConfig::starting_at(256);
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..ITEMS).with_batch(512));
    let work = map.add(Map::new(|x: u64| x.wrapping_mul(2654435761)));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link(src, "out", work, "in").unwrap();
    map.link(work, "out", sink, "in").unwrap();
    let report = map.exe().unwrap();
    assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), ITEMS);
    report.elapsed
}

fn main() {
    let items = Some(Throughput::Elements(ITEMS));
    bench("monitor_overhead/disabled", items, || {
        run(MonitorConfig::disabled())
    });
    for delta_us in [10u64, 100, 1000] {
        bench(
            &format!("monitor_overhead/delta_us/{delta_us}"),
            items,
            || {
                run(MonitorConfig {
                    delta: std::time::Duration::from_micros(delta_us),
                    ..Default::default()
                })
            },
        );
    }
}
