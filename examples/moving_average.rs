//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! Sliding-window stream processing — §3's "stream access pattern is often
//! that of a sliding window, which should be accommodated efficiently.
//! RaftLib accommodates this through a peek_range function."
//!
//! A noisy signal streams through a `SlidingWindow` kernel (peek_range
//! under the hood — the ring grows automatically when the window exceeds
//! its capacity) into a smoothing kernel producing the moving average.
//!
//! ```sh
//! cargo run --example moving_average
//! ```

use raft_kernels::{write_each, Generate, Map, SlidingWindow};
use raftlib::prelude::*;

fn main() {
    const N: usize = 64;
    const WINDOW: usize = 8;

    // A deterministic "noisy sine": base wave plus a hash-noise term.
    let signal: Vec<f64> = (0..N)
        .map(|i| {
            let t = i as f64 / 8.0;
            let noise = ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / 16777216.0;
            t.sin() + (noise - 0.5) * 0.6
        })
        .collect();

    // Deliberately tiny queues: the 8-wide window forces a read-side grow.
    let mut cfg = MapConfig::default();
    cfg.fifo = FifoConfig {
        initial_capacity: 2,
        max_capacity: 1 << 10,
        min_capacity: 2,
        ..FifoConfig::default()
    };
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(signal.clone()));
    let window = map.add(SlidingWindow::<f64>::new(WINDOW, 1));
    let avg = map.add(Map::new(|w: Vec<f64>| {
        w.iter().sum::<f64>() / w.len() as f64
    }));
    let (we, out) = write_each::<f64>();
    let sink = map.add(we);
    map.link(src, "out", window, "in").expect("link window");
    map.link(window, "out", avg, "in").expect("link avg");
    map.link(avg, "out", sink, "in").expect("link sink");
    let report = map.exe().expect("run");

    let smoothed = out.lock().unwrap();
    println!("raw signal vs {WINDOW}-point moving average:");
    for (i, s) in smoothed.iter().enumerate() {
        let raw = signal[i + WINDOW - 1];
        let bar_at = |v: f64| ((v + 1.5) * 16.0) as usize;
        let mut line = vec![b' '; 52];
        line[bar_at(raw).min(51)] = b'.';
        line[bar_at(*s).min(51)] = b'#';
        println!(
            "{:>3} |{}| raw={raw:+.3} avg={s:+.3}",
            i,
            String::from_utf8_lossy(&line)
        );
    }
    println!(
        "\nwindow kernel grew its input ring via peek_range: {} resizes",
        report.total_resizes()
    );
    assert!(
        report
            .resize_events
            .iter()
            .any(|e| e.reason == raftlib::ResizeReason::ReadRequest),
        "expected a read-request-driven grow"
    );
}
