//! Distributed execution: two "nodes" joined by a TCP stream link (§4.1).
//!
//! Node A generates numbers and squares them; the stream then crosses a
//! real TCP socket to node B, which filters and folds. In the paper's
//! words: "the same code can be run on multi-cores in a distributed network
//! without the programmer having to do anything differently."
//!
//! ```sh
//! cargo run --example distributed
//! ```

use raft_kernels::{Fold, Generate, Map};
use raft_net::tcp_bridge;
use raftlib::prelude::*;

fn main() {
    const N: u64 = 10_000;

    let (tcp_out, tcp_in) = tcp_bridge::<u64>().expect("bridge");

    // Node A: generate -> square -> tcp-out
    let a = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..N));
        let square = map.add(Map::new(|x: u64| x * x));
        let out = map.add(tcp_out);
        map.link(src, "out", square, "in").unwrap();
        map.link(square, "out", out, "in").unwrap();
        map.exe().unwrap()
    });

    // Node B: tcp-in -> keep multiples of 3 -> fold
    let b = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(tcp_in);
        let keep = map.add(raft_kernels::FilterMap::new(|x: u64| {
            x.is_multiple_of(3).then_some(x)
        }));
        let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
        let sink = map.add(fold);
        map.link(src, "out", keep, "in").unwrap();
        map.link(keep, "out", sink, "in").unwrap();
        map.exe().unwrap();
        let result = *total.lock().unwrap();
        result
    });

    let report_a = a.join().expect("node A");
    let total = b.join().expect("node B");

    // ground truth: Σ i² for i in 0..N where i² % 3 == 0 (i.e. i % 3 == 0)
    let expected: u64 = (0..N).map(|i| i * i).filter(|x| x % 3 == 0).sum();
    println!("distributed fold result = {total} (expected {expected})");
    assert_eq!(total, expected);
    println!(
        "node A pushed {} items across {} local streams in {:?}",
        report_a.total_items(),
        report_a.edges.len(),
        report_a.elapsed
    );
}
