//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! Automatic parallelization and live monitoring.
//!
//! A deliberately unbalanced pipeline: a fast source feeds an expensive
//! transform. With auto-parallelism enabled the runtime replicates the
//! transform behind split/reduce adapters; the monitor thread resizes the
//! queues (§4's 3δ rule) and the report shows the telemetry the paper
//! exposes (occupancy histograms, service statistics, resize log).
//!
//! ```sh
//! cargo run --release --example parallel_pipeline
//! ```

use raft_kernels::{Count, Generate, Map};
use raftlib::prelude::*;

fn expensive(x: u64) -> u64 {
    // Busy work: a short, content-dependent loop.
    (0..500).fold(x, |acc, i| {
        acc.wrapping_mul(6364136223846793005).wrapping_add(i)
    })
}

fn main() {
    const N: u64 = 200_000;

    let mut cfg = MapConfig::default();
    cfg.parallel.enabled = true; // replicate every eligible kernel
    cfg.parallel.strategy = SplitStrategy::LeastUtilized;
    cfg.parallel.max_width = 4;
    cfg.fifo = FifoConfig {
        initial_capacity: 8, // tiny on purpose: watch the monitor grow it
        max_capacity: 1 << 16,
        min_capacity: 8,
        ..FifoConfig::default()
    };

    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..N).with_batch(128));
    let work = map.add(Map::new(expensive));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link_unordered(src, "out", work, "in").expect("link");
    map.link_unordered(work, "out", sink, "in").expect("link");

    let report = map.exe().expect("execution");

    println!(
        "processed {} items in {:?}",
        n.load(std::sync::atomic::Ordering::Relaxed),
        report.elapsed
    );
    println!("replicated kernels: {:?}", report.replicated);
    println!("\nper-kernel service statistics:");
    for k in &report.kernels {
        println!("  {:24} runs={:8} busy={:?}", k.name, k.runs, k.busy);
    }
    println!("\nper-stream telemetry:");
    for e in &report.edges {
        println!(
            "  {:44} items={:7} cap={:6} mean_occ={:8.1} resizes={}",
            e.name, e.stats.popped, e.stats.capacity, e.stats.mean_occupancy, e.stats.resizes
        );
    }
    if !report.resize_events.is_empty() {
        println!("\nresize log (first 10):");
        for ev in report.resize_events.iter().take(10) {
            println!(
                "  t={:9.3?} {:44} {} -> {} ({:?})",
                ev.at, ev.edge_name, ev.old_capacity, ev.new_capacity, ev.reason
            );
        }
    }
    if !report.width_events.is_empty() {
        println!("\nwidth changes:");
        for ev in &report.width_events {
            println!(
                "  t={:9.3?} {} {} -> {}",
                ev.at, ev.split, ev.old_width, ev.new_width
            );
        }
    }
}
