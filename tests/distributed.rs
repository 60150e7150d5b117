//! Distributed integration tests: pipelines spanning TCP links, remote
//! kernel execution, and their combinations with the local runtime
//! features (replication, compression).

use raft_kernels::{write_each, Count, Generate, Map};
use raft_net::{tcp_bridge, KernelRegistry, RemoteStage, RemoteWorker};
use raftlib::prelude::*;

/// Replicated local stage feeding a TCP hop: out-of-order local processing,
/// network crossing, exact multiset at the far end.
#[test]
fn replicated_stage_then_tcp_hop() {
    const N: u64 = 20_000;
    let (tcp_out, tcp_in) = tcp_bridge::<u64>().unwrap();

    let node_a = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..N));
        let work = map.add(Map::new(|x: u64| x * 5));
        let out = map.add(tcp_out);
        map.link_unordered(src, "out", work, "in").unwrap();
        map.link_unordered(work, "out", out, "in").unwrap();
        map.prefer_width(work, 3);
        map.exe().unwrap()
    });

    let node_b = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(tcp_in);
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        let got = handle.lock().unwrap().clone();
        got
    });

    let report_a = node_a.join().unwrap();
    assert_eq!(report_a.replicated.len(), 1);
    let mut got = node_b.join().unwrap();
    got.sort_unstable();
    assert_eq!(got, (0..N).map(|x| x * 5).collect::<Vec<u64>>());
}

/// Compressed TCP hop carries a large compressible stream correctly.
#[test]
fn compressed_hop_preserves_data() {
    const N: u32 = 5_000;
    let (tcp_out, tcp_in) = tcp_bridge::<String>().unwrap();
    let tcp_out = tcp_out.compressed();

    let sender = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(
            (0..N).map(|i| format!("element {} lorem ipsum dolor sit amet", i)),
        ));
        let out = map.add(tcp_out);
        map.link(src, "out", out, "in").unwrap();
        map.exe().unwrap();
    });
    let mut map = RaftMap::new();
    let src = map.add(tcp_in);
    let (count, n) = Count::<String>::new();
    let sink = map.add(count);
    map.link(src, "out", sink, "in").unwrap();
    map.exe().unwrap();
    sender.join().unwrap();
    assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), N as u64);
}

/// Remote stage chained with local replication, and two remote stages in
/// one pipeline.
#[test]
fn two_remote_stages_in_one_pipeline() {
    let mut reg1 = KernelRegistry::new();
    reg1.register("double", || Map::new(|x: u64| x * 2));
    let mut reg2 = KernelRegistry::new();
    reg2.register("dec", || Map::new(|x: u64| x - 1));
    let w1 = RemoteWorker::<u64>::serve("127.0.0.1:0", reg1).unwrap();
    let w2 = RemoteWorker::<u64>::serve("127.0.0.1:0", reg2).unwrap();

    let stage1 = RemoteStage::<u64>::connect(w1.addr(), &["double"]).unwrap();
    let stage2 = RemoteStage::<u64>::connect(w2.addr(), &["dec"]).unwrap();

    let mut map = RaftMap::new();
    let src = map.add(Generate::new(1..=1000u64));
    let r1 = map.add(stage1);
    let r2 = map.add(stage2);
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "out", r1, "in").unwrap();
    map.link(r1, "out", r2, "in").unwrap();
    map.link(r2, "out", dst, "in").unwrap();
    map.exe().unwrap();
    assert_eq!(
        *out.lock().unwrap(),
        (1..=1000u64).map(|x| x * 2 - 1).collect::<Vec<u64>>()
    );
}

/// Arc-shared corpus + remote worker: a text-search stage offloaded to a
/// "remote node", counts verified against ground truth.
#[test]
fn remote_search_stage_counts_matches() {
    use raft_algos::{Horspool, Matcher};
    let spec = raft_algos::corpus::CorpusSpec {
        size: 128 * 1024,
        matches_per_mb: 300.0,
        ..Default::default()
    };
    let corpus = raft_algos::corpus::generate(&spec);
    let expected = corpus.planted.len() as u64;
    let needle = corpus.needle.clone();

    // Worker counts matches per chunk (chunks shipped as raw bytes; the
    // worker is typed Vec<u8> end to end, so the count travels back as an
    // 8-byte little-endian payload).
    let mut reg = KernelRegistry::new();
    let needle2 = needle.clone();
    reg.register("count_matches", move || {
        let m = Horspool::new(&needle2);
        Map::new(move |chunk: Vec<u8>| (m.count(&chunk) as u64).to_le_bytes().to_vec())
    });
    let worker = RemoteWorker::<Vec<u8>>::serve("127.0.0.1:0", reg).unwrap();

    // Client: chunk the corpus (with min_end trimming handled by sending
    // non-overlapping chunks + scanning boundaries locally for simplicity).
    let overlap = needle.len() - 1;
    let chunks = raft_algos::split_chunks(corpus.data.len(), 8, 0);
    let payloads: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| corpus.data[c.start..c.end].to_vec())
        .collect();
    let remote_total: u64 =
        raft_net::remote_apply::<Vec<u8>>(worker.addr(), &["count_matches"], payloads.clone())
            .unwrap()
            .iter()
            .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
            .sum::<u64>()
            + {
                // boundary matches (straddling chunk edges) scanned locally
                let m = Horspool::new(&needle);
                let mut extra = 0u64;
                for c in chunks.windows(2) {
                    let edge_start = c[0].end.saturating_sub(overlap);
                    let edge_end = (c[0].end + overlap).min(corpus.data.len());
                    for f in m.find_all(&corpus.data[edge_start..edge_end]) {
                        let abs = edge_start as u64 + f.offset;
                        // only count if it truly straddles the boundary
                        if abs < c[0].end as u64 && abs + needle.len() as u64 > c[0].end as u64 {
                            extra += 1;
                        }
                    }
                }
                extra
            };
    assert_eq!(remote_total, expected);
}
