//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! §4's dynamic queue resizing, traced.
//!
//! A bursty source (fast bursts separated by idle gaps — the paper's
//! "behavior that differs from the steady state") feeds a fixed-rate
//! consumer through a deliberately tiny queue. The monitor grows the queue
//! when the writer has been blocked ≥ 3δ over its last six ticks and
//! shrinks it again during quiet phases; this harness dumps the resize log
//! and the occupancy histogram the monitor collected.
//!
//! ```sh
//! cargo run -p raft-bench --release --bin resize_trace
//! ```

use std::time::Duration;

use raft_kernels::{Count, Map};
use raftlib::prelude::*;

const BURSTS: u64 = 12;
const BURST_LEN: u64 = 4_000;

/// `BURST_LEN` items pushed one at a time at full speed, then a 15 ms gap.
/// The gap is slept between `run()` calls, outside any ring reservation. A
/// shrink the monitor posts in the gap is what the link reports at once;
/// the producer seals into the smaller ring at its next head refresh.
struct Bursty {
    next: u64,
}

impl Kernel for Bursty {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.next == BURSTS * BURST_LEN {
            return KStatus::Stop;
        }
        if self.next > 0 && self.next.is_multiple_of(BURST_LEN) {
            std::thread::sleep(Duration::from_millis(15));
        }
        if ctx.output::<u64>("out").push(self.next).is_err() {
            return KStatus::Stop;
        }
        self.next += 1;
        KStatus::Proceed
    }
}

fn main() {
    let mut cfg = MapConfig::default();
    cfg.fifo = FifoConfig {
        initial_capacity: 4,
        max_capacity: 1 << 14,
        min_capacity: 4,
        ..Default::default()
    };
    cfg.monitor.delta = Duration::from_micros(100);
    cfg.monitor.shrink_after_ticks = 40; // shrink during the idle gaps
    let delta = cfg.monitor.delta;

    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Bursty { next: 0 });
    // Consumer with a small fixed per-item cost.
    let work = map.add(Map::new(|x: u64| {
        std::hint::black_box((0..400).fold(x, |a, b| a.wrapping_add(b * x)))
    }));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link(src, "out", work, "in").expect("link");
    map.link(work, "out", sink, "in").expect("link");

    let report = map.exe().expect("run");
    assert_eq!(
        n.load(std::sync::atomic::Ordering::Relaxed),
        BURSTS * BURST_LEN
    );

    println!(
        "resize trace: {} bursts x {} items, δ = {:?}, elapsed {:?}",
        BURSTS, BURST_LEN, delta, report.elapsed
    );
    println!("{:-<72}", "");
    println!(
        "{:>10}  {:<34} {:>7} {:>7}  reason",
        "t", "edge", "from", "to"
    );
    println!("{:-<72}", "");
    for ev in &report.resize_events {
        println!(
            "{:>10.3?}  {:<34} {:>7} {:>7}  {:?}",
            ev.at, ev.edge_name, ev.old_capacity, ev.new_capacity, ev.reason
        );
    }
    println!("{:-<72}", "");
    let grows = report
        .resize_events
        .iter()
        .filter(|e| e.new_capacity > e.old_capacity)
        .count();
    let shrinks = report.resize_events.len() - grows;
    println!("{grows} grows, {shrinks} shrinks\n");

    for e in &report.edges {
        println!(
            "edge {:<40} final capacity {:>6}, mean occupancy {:>8.1}",
            e.name, e.stats.capacity, e.stats.mean_occupancy
        );
        // log2 occupancy histogram, rendered as bars
        let total: u64 = e.stats.occupancy_hist.iter().sum();
        if total == 0 {
            continue;
        }
        for (i, &count) in e.stats.occupancy_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let label = if i == 0 {
                "0".to_string()
            } else {
                format!("{}..{}", 1usize << (i - 1), (1usize << i) - 1)
            };
            let bar = "#".repeat(((count as f64 / total as f64) * 50.0).ceil() as usize);
            println!("  occ {label:>12}: {bar} {count}");
        }
    }
}
