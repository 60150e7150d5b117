//! TCP stream-link throughput, with and without per-frame compression
//! (§4.2's future-work feature) — on compressible (text) and
//! incompressible (random) element streams.

use raft_bench::measure::{bench, Throughput};
use raft_kernels::{Count, Generate};
use raft_net::tcp_bridge;
use raftlib::prelude::*;

const ITEMS: usize = 2_000;

fn run(compressed: bool, payloads: Vec<Vec<u8>>) {
    let (tcp_out, tcp_in) = tcp_bridge::<Vec<u8>>().unwrap();
    let tcp_out = if compressed {
        tcp_out.compressed()
    } else {
        tcp_out
    };
    let n_items = payloads.len() as u64;
    let sender = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(payloads));
        let out = map.add(tcp_out);
        map.link(src, "out", out, "in").unwrap();
        map.exe().unwrap();
    });
    let mut map = RaftMap::new();
    let src = map.add(tcp_in);
    let (count, n) = Count::<Vec<u8>>::new();
    let sink = map.add(count);
    map.link(src, "out", sink, "in").unwrap();
    map.exe().unwrap();
    sender.join().unwrap();
    assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), n_items);
}

fn text_payloads() -> Vec<Vec<u8>> {
    (0..ITEMS)
        .map(|i| {
            format!(
                "stream element number {} with plenty of repeated text text text",
                i % 13
            )
            .into_bytes()
        })
        .collect()
}

fn random_payloads() -> Vec<Vec<u8>> {
    let mut rng = raft_rng::Rng::new(5);
    (0..ITEMS)
        .map(|_| (0..72).map(|_| rng.range(0..=u8::MAX)).collect())
        .collect()
}

fn main() {
    let bytes: usize = text_payloads().iter().map(Vec::len).sum();
    let bytes = Some(Throughput::Bytes(bytes as u64));
    for (label, compressed) in [("raw", false), ("compressed", true)] {
        bench(&format!("tcp_link/text/{label}"), bytes, || {
            run(compressed, text_payloads());
        });
        bench(&format!("tcp_link/random/{label}"), bytes, || {
            run(compressed, random_payloads());
        });
    }
}
