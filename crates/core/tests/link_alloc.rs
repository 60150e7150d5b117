//! The link allocator is a reported fact: `exe()` links are built over the
//! heap home and say so in the per-edge report, `ShmRing` endpoints report
//! the segment home, and the mapper's `classify_link` stays the pure
//! placement function that says which of the two a link *should* be.

use raft_buffer::shm::ShmRing;
use raftlib::prelude::*;
use raftlib::{classify_link, lambda_sink, lambda_source, map_kernels, CommGraph, Domain};

fn counting_pipeline(n: u64) -> (RaftMap, KernelId, KernelId) {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= n).then_some(i)
    }));
    let sink = map.add(lambda_sink(|_v: u64| {}));
    (map, src, sink)
}

#[test]
fn default_links_report_heap() {
    let (mut map, src, sink) = counting_pipeline(100);
    map.link(src, "0", sink, "0").unwrap();
    let report = map.exe().unwrap();
    assert_eq!(report.edges.len(), 1);
    assert_eq!(report.edges[0].alloc, LinkAlloc::Heap);
    assert_eq!(report.total_items(), 100);
}

#[test]
fn rendered_report_shows_alloc_column() {
    let (mut map, src, sink) = counting_pipeline(10);
    map.link(src, "0", sink, "0").unwrap();
    let report = map.exe().unwrap();
    let text = raftlib::render_report(&report);
    assert!(text.contains("alloc"), "{text}");
    assert!(text.contains("heap"), "{text}");
}

#[test]
fn shm_ring_links_report_shm() {
    // Same endpoint types, other home: the report is a fact about how the
    // link was constructed.
    let (mut p, mut c) = ShmRing::<u64>::pair(8);
    p.push(7).unwrap();
    assert_eq!(c.pop(), Ok(7));
    assert_eq!(p.fifo().link_alloc(), LinkAlloc::Shm);
    assert_eq!(c.fifo().link_alloc().to_string(), "shm");
}

#[test]
fn mapper_placement_classifies_links() {
    // 2 kernels forced onto different processes of one host: the single
    // pipeline edge classifies shm — a fact for whoever constructs the
    // link (`ShmRing::*` + `ProcSupervisor`), not a request to `exe()`.
    let mut g = CommGraph::new(2);
    g.add_edge(0, 1, 1);
    let topo = Domain::multi_process_host("node0", 2, 1, 2_000, 100);
    let m = map_kernels(&g, &topo);
    assert_eq!(
        classify_link(&m.assignment[0], &m.assignment[1]),
        LinkAlloc::Shm,
        "{m:?}"
    );
}
