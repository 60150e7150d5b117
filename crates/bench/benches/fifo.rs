//! Ablation: fixed lock-free SPSC vs. the resizable FIFO.
//!
//! The resizable ring pays a shared `RwLock` acquisition per operation to
//! make the monitor's dynamic resizing possible (§4). This bench prices
//! that flexibility: same workload over `BoundedSpsc` (fixed) and `Fifo`
//! (resizable), single-threaded ping-pong and cross-thread streaming.

use raft_bench::jsonout::{compare_results, measure_melems_per_s, parse_results, JsonReport};
use raft_bench::measure::{bench, Throughput};
use raft_buffer::arena::{Descriptor, ShmArena};
use raft_buffer::shm::{ShmRing, ShmSegment};
use raft_buffer::{fifo_with, BoundedSpsc, FifoConfig};
use std::io::{Read as _, Write as _};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BATCH: u64 = 10_000;
/// Payload size for the shm-vs-TCP series (the ISSUE's 4 KiB point).
const PAYLOAD_4K: usize = 4096;
/// Payload size for the descriptor-vs-inline series.
const PAYLOAD_1K: usize = 1024;

fn bench_fifo() {
    /// Single-threaded ping-pong: push a batch, popping every fourth
    /// element and whenever the ring is full, then drain.
    macro_rules! pingpong {
        ($p:ident, $cns:ident) => {
            for i in 0..BATCH {
                while $p.try_push(i).is_err() {
                    let _ = $cns.try_pop();
                }
                if i % 4 == 0 {
                    let _ = $cns.try_pop();
                }
            }
            while $cns.try_pop().is_ok() {}
        };
    }
    /// Cross-thread streaming: a producer thread pushes, this one pops.
    macro_rules! stream {
        ($p:ident, $cns:ident) => {
            let t = std::thread::spawn(move || {
                for i in 0..BATCH * 10 {
                    $p.push(i).unwrap();
                }
            });
            let mut n = 0u64;
            while $cns.pop().is_ok() {
                n += 1;
            }
            t.join().unwrap();
            assert_eq!(n, BATCH * 10);
        };
    }

    let batch = Some(Throughput::Elements(BATCH));
    let (mut p, mut cns) = BoundedSpsc::<u64>::new(1024);
    bench(
        &format!("fifo_pingpong/bounded_spsc/{BATCH}"),
        batch,
        || {
            pingpong!(p, cns);
        },
    );
    let (_f, mut p, mut cns) = fifo_with::<u64>(FifoConfig::fixed(1024));
    bench(
        &format!("fifo_pingpong/resizable_fifo/{BATCH}"),
        batch,
        || {
            pingpong!(p, cns);
        },
    );

    let streamed = Some(Throughput::Elements(BATCH * 10));
    bench("fifo_cross_thread/bounded_spsc", streamed, || {
        let (mut p, mut cns) = BoundedSpsc::<u64>::new(1024);
        stream!(p, cns);
    });
    bench("fifo_cross_thread/resizable_fifo", streamed, || {
        let (_f, mut p, mut cns) = fifo_with::<u64>(FifoConfig::fixed(1024));
        stream!(p, cns);
    });
}

// --- cross-process workers (this binary, re-executed) ----------------------

/// Spawn this bench binary as a worker with the given mode + args.
fn spawn_worker(mode: &str, args: &[String]) -> Child {
    Command::new(std::env::current_exe().expect("current exe"))
        .arg(mode)
        .args(args)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn bench worker")
}

/// `--xchild-u64 <ring_fd>`: drain u64s from an inherited shm ring until
/// the producer closes.
fn xchild_u64(ring_fd: i32) {
    let mut ring = ShmRing::<u64>::attach_consumer(ring_fd).expect("attach ring");
    let mut sink = 0u64;
    while let Ok(v) = ring.pop() {
        sink = sink.wrapping_add(v);
    }
    std::hint::black_box(sink);
}

/// `--xchild-desc <ring_fd> <arena_fd>`: resolve each descriptor in the
/// inherited arena, touch the payload, recycle the slot.
fn xchild_desc(ring_fd: i32, arena_fd: i32) {
    let mut ring = ShmRing::<Descriptor>::attach_consumer(ring_fd).expect("attach ring");
    let mut rx = ShmArena::attach_rx(arena_fd).expect("attach arena");
    let mut sink = 0u64;
    while let Ok(d) = ring.pop() {
        if let Ok(bytes) = rx.resolve(&d) {
            // Touch first and last byte: proves the mapping is readable
            // without paying a full scan (the transport is what's priced).
            sink = sink.wrapping_add(bytes[0] as u64 + bytes[bytes.len() - 1] as u64);
        }
        let _ = rx.free(d);
    }
    std::hint::black_box(sink);
}

/// `--xchild-tcp <addr>`: connect to the parent and drain frames to EOF.
fn xchild_tcp(addr: &str) {
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).ok();
    let mut buf = vec![0u8; PAYLOAD_4K];
    let mut sink = 0u64;
    loop {
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => sink = sink.wrapping_add(buf[0] as u64 + n as u64),
        }
    }
    std::hint::black_box(sink);
}

// --- cross-process measurements ---------------------------------------------

/// Throughput of raw u64 elements into a child process through the
/// shm-backed SPSC ring (blocking push; parks on the cross-process futex
/// when the child falls behind).
fn measure_xprocess_shm_u64(min_time: Duration) -> f64 {
    let (mut p, fd) = ShmRing::<u64>::create_producer(4096).expect("ring");
    let child = spawn_worker("--xchild-u64", &[fd.to_string()]);
    // Warm: fault the pages and fill the pipe.
    for i in 0..BATCH {
        let _ = p.push(i);
    }
    let t0 = std::time::Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < min_time {
        for i in 0..BATCH {
            if p.push(i).is_err() {
                panic!("worker died mid-bench");
            }
        }
        n += BATCH;
    }
    let dt = t0.elapsed();
    drop(p); // close + final futex notify: child drains and exits
    wait_worker(child);
    n as f64 / dt.as_secs_f64() / 1e6
}

/// Throughput of `payload`-byte chunks into a child process, passed as
/// 16-byte arena descriptors through the shm ring. Returns payloads/s.
fn measure_xprocess_shm_desc(payload: usize, min_time: Duration) -> f64 {
    let (mut ring, ring_fd) = ShmRing::<Descriptor>::create_producer(1024).expect("ring");
    let (mut tx, arena_fd) = ShmArena::create_tx(2048, payload).expect("arena");
    let child = spawn_worker(
        "--xchild-desc",
        &[ring_fd.to_string(), arena_fd.to_string()],
    );
    let chunk = vec![0xa5u8; payload];
    let ship = |tx: &mut raft_buffer::arena::ArenaTx,
                ring: &mut raft_buffer::shm::ShmRingProducer<Descriptor>|
     -> bool {
        let d = loop {
            match tx.push_bytes(&chunk) {
                Some(d) => break d,
                None => std::thread::yield_now(), // all slots in flight
            }
        };
        ring.push(d).is_ok()
    };
    for _ in 0..1000 {
        assert!(ship(&mut tx, &mut ring));
    }
    let t0 = std::time::Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < min_time {
        for _ in 0..1000 {
            if !ship(&mut tx, &mut ring) {
                panic!("worker died mid-bench");
            }
        }
        n += 1000;
    }
    let dt = t0.elapsed();
    drop(ring);
    wait_worker(child);
    drop(tx);
    n as f64 / dt.as_secs_f64()
}

/// Throughput of 4 KiB frames into a child process over loopback TCP —
/// the wire alternative the shm link is priced against. Returns
/// payloads/s.
fn measure_xprocess_tcp(payload: usize, min_time: Duration) -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let child = spawn_worker("--xchild-tcp", &[addr]);
    let (mut sock, _) = listener.accept().expect("accept");
    sock.set_nodelay(true).ok();
    let chunk = vec![0xa5u8; payload];
    for _ in 0..1000 {
        sock.write_all(&chunk).expect("warm write");
    }
    let t0 = std::time::Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < min_time {
        for _ in 0..1000 {
            sock.write_all(&chunk).expect("write");
        }
        n += 1000;
    }
    let dt = t0.elapsed();
    drop(sock); // EOF: child exits
    wait_worker(child);
    n as f64 / dt.as_secs_f64()
}

/// In-process comparison at `PAYLOAD_1K`: the same bytes crossing a ring
/// as an inline `[u8; 1024]` element copy vs as an arena descriptor.
/// Returns `(inline_payloads_per_s, desc_payloads_per_s)`.
fn measure_desc_vs_inline(min_time: Duration) -> (f64, f64) {
    // Inline: each push copies the full kilobyte into the ring slot and
    // each pop copies it back out.
    let (mut p, mut c) = ShmRing::<[u8; PAYLOAD_1K]>::pair(256);
    let consumer = std::thread::spawn(move || {
        let mut sink = 0u64;
        while let Ok(v) = c.pop() {
            sink = sink.wrapping_add(v[0] as u64 + v[PAYLOAD_1K - 1] as u64);
        }
        std::hint::black_box(sink);
    });
    let chunk = [0xa5u8; PAYLOAD_1K];
    let t0 = std::time::Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < min_time {
        for _ in 0..1000 {
            p.push(chunk).expect("push inline");
        }
        n += 1000;
    }
    let inline_rate = n as f64 / t0.elapsed().as_secs_f64();
    drop(p);
    consumer.join().unwrap();

    // Descriptor: the kilobyte is written once into the arena; 16 bytes
    // cross the ring; the consumer reads the payload in place.
    let (mut ring, mut ring_c) = ShmRing::<Descriptor>::pair(256);
    let (mut tx, mut rx) = ShmArena::pair(512, PAYLOAD_1K);
    let consumer = std::thread::spawn(move || {
        let mut sink = 0u64;
        while let Ok(d) = ring_c.pop() {
            if let Ok(bytes) = rx.resolve(&d) {
                sink = sink.wrapping_add(bytes[0] as u64 + bytes[bytes.len() - 1] as u64);
            }
            let _ = rx.free(d);
        }
        std::hint::black_box(sink);
    });
    let t0 = std::time::Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < min_time {
        for _ in 0..1000 {
            let d = loop {
                match tx.push_bytes(&chunk) {
                    Some(d) => break d,
                    None => std::thread::yield_now(),
                }
            };
            ring.push(d).expect("push desc");
        }
        n += 1000;
    }
    let desc_rate = n as f64 / t0.elapsed().as_secs_f64();
    drop(ring);
    consumer.join().unwrap();
    (inline_rate, desc_rate)
}

fn wait_worker(mut child: Child) {
    // Supervision: a wedged worker fails the bench rather than hanging it.
    let t0 = std::time::Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "bench worker failed: {status:?}");
                return;
            }
            None if t0.elapsed() > Duration::from_secs(30) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("bench worker exceeded 30s watchdog");
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Run every measurement and assemble the report. Used by `--json`
/// (writes the file) and `--assert-fifo` (compares against the committed
/// reference without writing).
fn measure_all() -> JsonReport {
    let warm = Duration::from_millis(300);
    let min_time = Duration::from_secs(2);
    let mut report = JsonReport::new("fifo");

    let (mut p, mut cns) = BoundedSpsc::<u64>::new(1024);
    let rate = measure_melems_per_s(BATCH, warm, min_time, || {
        for i in 0..BATCH {
            while p.try_push(i).is_err() {
                let _ = cns.try_pop();
            }
            if i % 4 == 0 {
                let _ = cns.try_pop();
            }
        }
        while cns.try_pop().is_ok() {}
    });
    report.push("pingpong_bounded_spsc_melems_per_s", rate);

    let (_f, mut p, mut cns) = fifo_with::<u64>(FifoConfig::fixed(1024));
    let rate = measure_melems_per_s(BATCH, warm, min_time, || {
        for i in 0..BATCH {
            while p.try_push(i).is_err() {
                let _ = cns.try_pop();
            }
            if i % 4 == 0 {
                let _ = cns.try_pop();
            }
        }
        while cns.try_pop().is_ok() {}
    });
    report.push("pingpong_resizable_fifo_melems_per_s", rate);

    let rate = measure_melems_per_s(BATCH * 10, warm, min_time, || {
        let (mut p, mut cns) = BoundedSpsc::<u64>::new(1024);
        let t = std::thread::spawn(move || {
            for i in 0..BATCH * 10 {
                p.push(i).unwrap();
            }
        });
        let mut n = 0u64;
        while cns.pop().is_ok() {
            n += 1;
        }
        t.join().unwrap();
        assert_eq!(n, BATCH * 10);
    });
    report.push("xthread_bounded_spsc_melems_per_s", rate);

    let rate = measure_melems_per_s(BATCH * 10, warm, min_time, || {
        let (_f, mut p, mut cns) = fifo_with::<u64>(FifoConfig::fixed(1024));
        let t = std::thread::spawn(move || {
            for i in 0..BATCH * 10 {
                p.push(i).unwrap();
            }
        });
        let mut n = 0u64;
        while cns.pop().is_ok() {
            n += 1;
        }
        t.join().unwrap();
        assert_eq!(n, BATCH * 10);
    });
    report.push("xthread_resizable_fifo_melems_per_s", rate);

    // Investigated: the 369 → 277 Melem/s drop landed with the
    // cached-index overhaul. The ping-pong pattern (pop 1 of every 4
    // pushes) keeps the ring permanently full, so the producer's stale
    // head-cache looks full on almost every push and the op pays the
    // refresh *plus* the failed first attempt — the cached scheme's
    // worst case (seed's uncached ring re-measures ~1.4x faster on this
    // pattern, on this machine). Accepted: the same scheme took the
    // production resizable Fifo from 17.7 to ~90 on the identical
    // workload, and streaming (xthread) patterns keep their win.
    report.note(
        "pingpong_bounded_spsc_melems_per_s",
        "full-ring pingpong is the cached-index worst case: every push refreshes \
         head_cache and retries; accepted cost of the scheme that 5x'd the resizable \
         Fifo (see DESIGN 3)",
    );

    // --- shared-memory link family ------------------------------------------
    if ShmSegment::memfd_supported() {
        let rate = measure_xprocess_shm_u64(min_time);
        report.push("xprocess_shm_bounded_spsc_melems_per_s", rate);

        let shm4k = measure_xprocess_shm_desc(PAYLOAD_4K, min_time);
        report.push("xprocess_shm_4k_desc_kpayloads_per_s", shm4k / 1e3);
        let tcp4k = measure_xprocess_tcp(PAYLOAD_4K, min_time);
        report.push("xprocess_tcp_4k_kpayloads_per_s", tcp4k / 1e3);
        report.push("shm_over_tcp_4k_ratio", shm4k / tcp4k);

        let (inline_rate, desc_rate) = measure_desc_vs_inline(min_time);
        report.push("inline_1k_kpayloads_per_s", inline_rate / 1e3);
        report.push("desc_1k_kpayloads_per_s", desc_rate / 1e3);
        report.push("desc_over_inline_1k_ratio", desc_rate / inline_rate);
        report.note(
            "xprocess_shm_4k_desc_kpayloads_per_s",
            "4 KiB payloads cross the process boundary as 16-byte arena descriptors; \
             the payload bytes are written once and read in place by the peer",
        );
    } else {
        report.note(
            "xprocess_shm_bounded_spsc_melems_per_s",
            "skipped: memfd_create unavailable on this platform",
        );
    }
    report
}

/// `--json` mode: run everything and record it at the repo root as
/// `BENCH_fifo.json` (previous results are carried forward as
/// `baseline`).
fn json_mode() {
    let report = measure_all();
    let path = report.write().expect("write BENCH_fifo.json");
    println!("wrote {}", path.display());
}

/// `--assert-fifo` mode: the FIFO regression gate. Measures fresh,
/// compares against the committed `BENCH_fifo.json` (override the path
/// with `RAFT_BENCH_REF`), and fails the process on any series that
/// regressed more than 10% — plus the shm link's two absolute promises:
/// shm beats loopback TCP by ≥ 5x on 4 KiB payloads, and the descriptor
/// path beats the inline copy at 1 KiB.
fn assert_fifo_mode() {
    let ref_path = std::env::var_os("RAFT_BENCH_REF")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| JsonReport::new("fifo").path());
    let reference = match std::fs::read_to_string(&ref_path) {
        Ok(src) => parse_results(&src),
        Err(e) => {
            println!(
                "no reference at {} ({e}); gate passes vacuously",
                ref_path.display()
            );
            return;
        }
    };
    let report = measure_all();
    let fresh = report.results().to_vec();
    // Only the FIFO element-throughput series gate on the reference: the
    // TCP denominator and the derived ratios are noisy (scheduling, two
    // noisy measurements divided) and are asserted absolutely below
    // instead of differentially.
    let gated: Vec<(String, f64)> = fresh
        .iter()
        .filter(|(k, _)| k.ends_with("_melems_per_s"))
        .cloned()
        .collect();
    let mut failures = compare_results(&gated, &reference, 0.10);

    let get = |key: &str| fresh.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    if let Some(ratio) = get("shm_over_tcp_4k_ratio") {
        if ratio < 5.0 {
            failures.push(format!("shm_over_tcp_4k_ratio: {ratio:.1} < required 5.0"));
        }
    }
    if let Some(ratio) = get("desc_over_inline_1k_ratio") {
        if ratio < 1.0 {
            failures.push(format!(
                "desc_over_inline_1k_ratio: {ratio:.2} < required 1.0"
            ));
        }
    }

    if failures.is_empty() {
        println!(
            "fifo gate: {} series ok vs {}",
            fresh.len(),
            ref_path.display()
        );
    } else {
        eprintln!("fifo gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    // Worker modes: this binary re-executed as the consumer process of a
    // cross-process measurement.
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--xchild-u64") => return xchild_u64(args[2].parse().expect("ring fd")),
        Some("--xchild-desc") => {
            return xchild_desc(
                args[2].parse().expect("ring fd"),
                args[3].parse().expect("arena fd"),
            )
        }
        Some("--xchild-tcp") => return xchild_tcp(&args[2]),
        _ => {}
    }
    if args.iter().any(|a| a == "--json") {
        json_mode();
        return;
    }
    if args.iter().any(|a| a == "--assert-fifo") {
        assert_fifo_mode();
        return;
    }
    bench_fifo();
}
