//! Chaos suite for a TCP link built from an address (`TcpIn::bind` +
//! `TcpOut::connect`, the construction that resumes): injected short
//! writes at the framing boundary force real reconnects; delivery must
//! stay exactly-once.
//!
//! Runs only with `--features raft_failpoints`. The failpoint registry is
//! process-global and `net::frame::write` is a site every link in the
//! process passes through, so this test owns a test binary: armed inside
//! the crate's unit-test process it also fired in whatever `tcp_bridge`
//! test happened to run beside it. Reproduce a red run with
//! `RAFT_CHAOS_SEED=<n> cargo test -p raft-net --features raft_failpoints
//! --test chaos_net`.
#![cfg(feature = "raft_failpoints")]

use std::time::Duration;

use raft_buffer::failpoints;
use raft_kernels::{write_each, Generate};
use raft_net::{NetConfig, TcpIn, TcpOut};
use raftlib::prelude::*;

#[test]
fn injected_write_faults_do_not_lose_or_duplicate() {
    let seed = std::env::var("RAFT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    failpoints::set_seed(seed);
    const FAULTS: u32 = 6;
    failpoints::arm(
        "net::frame::write",
        failpoints::FailAction::ShortIo,
        40,
        u64::from(FAULTS),
    );

    // Small window (acks every 8 frames), so the blocking-ack
    // backpressure path runs too.
    // Every injected fault — on the sender's frames or the receiver's acks
    // and handshakes — can cost the sender one reconnect cycle, and a
    // reconnect's replay burst draws again, so faults do arrive back to
    // back: the retry budget must cover all of them for the link's
    // give-up rule never to be what a seed tests.
    let cfg = NetConfig {
        connect_timeout: Duration::from_millis(500),
        retries: FAULTS,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        window: 32,
    };
    let rin = TcpIn::<u64>::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let rout = TcpOut::<u64>::connect(rin.local_addr().unwrap(), cfg).unwrap();
    let node_a = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..2_000u64));
        let out = map.add(rout);
        map.link(src, "out", out, "in").unwrap();
        map.exe().unwrap();
    });
    let node_b = std::thread::spawn(move || {
        let mut map = RaftMap::new();
        let src = map.add(rin);
        let (we, handle) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        std::sync::Arc::try_unwrap(handle)
            .unwrap()
            .into_inner()
            .unwrap()
    });
    node_a.join().unwrap();
    let got = node_b.join().unwrap();
    assert_eq!(failpoints::fired("net::frame::write"), u64::from(FAULTS));
    failpoints::reset();
    assert_eq!(got, (0..2_000).collect::<Vec<u64>>());
}
