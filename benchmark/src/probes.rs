//! Per-layer probes: each calls one layer directly, through its public
//! functions, on the two standard payloads (a `u64` and 4 KiB), with no
//! runtime around it unless the layer *is* the runtime. A probe runs a
//! frozen element count five times and reports the median.
//!
//! No probe starts more than two runnable threads or processes (`nproc` is
//! 2 where the baseline is recorded).

use std::process::Command;
use std::time::{Duration, Instant};

use crate::rng::XorShift;
use crate::stats::median;
use crate::sut::{
    fifo_with, tcp_bridge, BoundedSpsc, FifoConfig, Fold, Generate, Horspool, RaftMap, ShmArena,
    ShmRing, TryPopError,
};
use crate::workloads::scaled;
use crate::workloads::text_search::{count_inline, tiled_corpus};
use crate::workloads::xproc_shm::{seeded_payload, PAYLOAD_BYTES};

/// Slices per probe; the median is reported.
const SLICES: usize = 5;
/// Frozen element counts per slice, sized so a slice is tens of ms.
const RING_ELEMS: u64 = 2_000_000;
const FIFO_ELEMS: u64 = 1_000_000;
const BATCH_ELEMS: u64 = 16_000_000;
const BATCH: usize = 512;
const PING_PONGS: u64 = 20_000;
const SHM_ELEMS: u64 = 2_000_000;
const ARENA_PAYLOADS: u64 = 200_000;
const TCP_PAYLOADS: u64 = 20_000;
const SEARCH_BYTES: usize = 32 << 20;

/// The probe child's argv marker.
pub const SHM_DRAIN_FLAG: &str = "--shm-drain-worker";

fn median_of_slices(scale: f64, mut slice: impl FnMut(f64) -> f64) -> f64 {
    median(&(0..SLICES).map(|_| slice(scale)).collect::<Vec<_>>())
}

/// Run `producer` on a second thread and `consumer` on this one; wall time
/// of both.
fn two_threads(producer: impl FnOnce() + Send, consumer: impl FnOnce()) -> Duration {
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        let handle = scope.spawn(producer);
        consumer();
        handle.join().expect("probe producer thread");
        t0.elapsed()
    })
}

fn ns_per(elapsed: Duration, n: u64) -> f64 {
    elapsed.as_nanos() as f64 / n as f64
}

/// `n` elements pushed one at a time on a second thread and popped one at
/// a time on this one; ns per element.
fn per_element_ns(n: u64, mut push: impl FnMut(u64) + Send, mut pop: impl FnMut() -> u64) -> f64 {
    let elapsed = two_threads(
        move || (0..n).for_each(&mut push),
        || {
            let mut sum = 0u64;
            for _ in 0..n {
                sum = sum.wrapping_add(pop());
            }
            std::hint::black_box(sum);
        },
    );
    ns_per(elapsed, n)
}

/// `BoundedSpsc` push/pop across two threads: the floor for every stream.
pub fn spsc_xthread_ns(scale: f64) -> f64 {
    median_of_slices(scale, |scale| {
        let (mut tx, mut rx) = BoundedSpsc::<u64>::new(1024);
        per_element_ns(
            scaled(RING_ELEMS, scale),
            move |i| tx.push(i).expect("consumer alive"),
            || rx.pop().expect("producer alive"),
        )
    })
}

/// `Fifo` per-element `push`/`pop` across two threads, with `cfg`.
pub fn fifo_xthread_ns(cfg: FifoConfig, scale: f64) -> f64 {
    median_of_slices(scale, |scale| {
        let (_fifo, mut tx, mut rx) = fifo_with::<u64>(cfg);
        per_element_ns(
            scaled(FIFO_ELEMS, scale),
            move |i| tx.push(i).expect("consumer alive"),
            || rx.pop().expect("producer alive"),
        )
    })
}

/// `Fifo` batch views: `Producer::reserve` / `Consumer::pop_slice`, 512 at
/// a time, fixed capacity 1024.
pub fn fifo_batch_ns(scale: f64) -> f64 {
    median_of_slices(scale, |scale| {
        let n = scaled(BATCH_ELEMS, scale);
        let (_fifo, mut tx, mut rx) = fifo_with::<u64>(FifoConfig::fixed(1024));
        let elapsed = two_threads(
            move || {
                let mut next = 0u64;
                while next < n {
                    let want = BATCH.min((n - next) as usize);
                    let mut slice = tx.reserve(want).expect("consumer alive");
                    for _ in 0..slice.remaining().min(want) {
                        slice.push(next);
                        next += 1;
                    }
                }
            },
            || {
                let (mut got, mut sum) = (0u64, 0u64);
                while got < n {
                    got += rx
                        .pop_slice(BATCH, |view| {
                            for v in view.iter() {
                                sum = sum.wrapping_add(*v);
                            }
                            view.len() as u64
                        })
                        .expect("producer alive");
                }
                std::hint::black_box(sum);
            },
        );
        ns_per(elapsed, n)
    })
}

/// One element ping-ponged over two `Fifo`s with blocking `pop()`: both
/// rings are empty whenever a push arrives, so every hop is a wake-up.
/// Returns half the round trip, in µs.
pub fn fifo_wake_rtt_us(scale: f64) -> f64 {
    median_of_slices(scale, |scale| {
        let n = scaled(PING_PONGS, scale);
        let (_a, mut a_tx, mut a_rx) = fifo_with::<u64>(FifoConfig::default());
        let (_b, mut b_tx, mut b_rx) = fifo_with::<u64>(FifoConfig::default());
        let elapsed = two_threads(
            move || {
                while let Ok(v) = a_rx.pop() {
                    if b_tx.push(v).is_err() {
                        break;
                    }
                }
            },
            || {
                for i in 0..n {
                    a_tx.push(i).expect("peer alive");
                    assert_eq!(b_rx.pop().expect("peer alive"), i);
                }
                drop(a_tx); // closes the stream: the peer's pop errs and it ends
            },
        );
        elapsed.as_nanos() as f64 / n as f64 / 2.0 / 1e3
    })
}

/// Child of [`shm_xproc_ns`]: drain `u64`s from the inherited ring until
/// the producer closes it.
pub fn shm_drain_main(args: &[String]) -> Result<(), String> {
    let fd: i32 = args
        .first()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{SHM_DRAIN_FLAG}: bad descriptor argument"))?;
    let mut ring = ShmRing::<u64>::attach_consumer(fd).map_err(|e| format!("attach ring: {e}"))?;
    let mut sum = 0u64;
    loop {
        match ring.try_pop() {
            Ok(v) => sum = sum.wrapping_add(v),
            Err(TryPopError::Empty) => match ring.pop() {
                Ok(v) => sum = sum.wrapping_add(v),
                Err(_) => break,
            },
            Err(TryPopError::Closed) => break,
        }
    }
    std::hint::black_box(sum);
    Ok(())
}

/// `ShmRing<u64>` from this process to a child process.
pub fn shm_xproc_ns(scale: f64) -> f64 {
    median_of_slices(scale, |scale| {
        let n = scaled(SHM_ELEMS, scale);
        let (mut tx, fd) = ShmRing::<u64>::create_producer(1024).expect("create shm ring");
        let mut child = Command::new(std::env::current_exe().expect("current exe"))
            .arg(SHM_DRAIN_FLAG)
            .arg(fd.to_string())
            .spawn()
            .expect("spawn shm probe child");
        // Exclude process start: time only once the child is consuming.
        tx.push(0).expect("child alive");
        while tx.occupancy() > 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        for i in 0..n {
            tx.push(i).expect("child alive");
        }
        while tx.occupancy() > 0 {
            std::thread::yield_now();
        }
        let elapsed = t0.elapsed();
        drop(tx); // close: the child's pop errs and it exits
        let status = child.wait().expect("wait for shm probe child");
        assert!(status.success(), "shm probe child failed: {status}");
        ns_per(elapsed, n)
    })
}

/// One 4 KiB payload through the descriptor arena, one thread:
/// `alloc` + write + `publish`, then `resolve` + `free`.
pub fn arena_desc_4k_ns(scale: f64) -> f64 {
    let payload = seeded_payload(&mut XorShift::new(0, 7));
    median_of_slices(scale, |scale| {
        let n = scaled(ARENA_PAYLOADS, scale);
        let (mut tx, mut rx) = ShmArena::pair(64, PAYLOAD_BYTES);
        let mut sum = 0u64;
        let t0 = Instant::now();
        for _ in 0..n {
            let mut w = tx.alloc(PAYLOAD_BYTES).expect("free slot");
            w.bytes().copy_from_slice(&payload);
            let d = w.publish();
            let bytes = rx.resolve(&d).expect("fresh descriptor");
            sum = sum.wrapping_add(u64::from(bytes[0]) + u64::from(bytes[PAYLOAD_BYTES - 1]));
            rx.free(d).expect("live descriptor");
        }
        let elapsed = t0.elapsed();
        std::hint::black_box(sum);
        ns_per(elapsed, n)
    })
}

/// 4 KiB `Vec<u8>` payloads over `tcp_bridge` on 127.0.0.1: one map ends
/// in `TcpOut`, a second starts at `TcpIn`. `None` when loopback sockets
/// are not available.
pub fn tcp_loopback_4k_ns(scale: f64) -> Option<f64> {
    let payload = vec![0xA5u8; PAYLOAD_BYTES];
    let mut samples = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let n = scaled(TCP_PAYLOADS, scale);
        let (tcp_out, tcp_in) = tcp_bridge::<Vec<u8>>().ok()?;
        let mut send = RaftMap::new();
        let body = payload.clone();
        let source = send.add(Generate::new((0..n).map(move |_| body.clone())));
        let out = send.add(tcp_out);
        send.link(source, "out", out, "in").expect("link tcp-out");
        let mut recv = RaftMap::new();
        let input = recv.add(tcp_in);
        let (fold, received) = Fold::new(0u64, |acc: &mut u64, v: Vec<u8>| {
            *acc += u64::from(v.len() == PAYLOAD_BYTES);
        });
        let sink = recv.add(fold);
        recv.link(input, "out", sink, "in").expect("link tcp-in");
        let elapsed = two_threads(
            move || {
                send.exe().expect("sending map");
            },
            || {
                recv.exe().expect("receiving map");
            },
        );
        assert_eq!(*received.lock().expect("fold handle"), n, "payloads lost");
        samples.push(ns_per(elapsed, n));
    }
    Some(median(&samples))
}

/// `Horspool::find_into` over seeded text, one thread, no runtime, MB/s.
pub fn horspool_mb_s(seed: u64, scale: f64) -> f64 {
    let bytes = scaled(SEARCH_BYTES as u64, scale) as usize;
    let (hay, needle) = tiled_corpus(seed, bytes.min(1 << 20), bytes);
    let matcher = Horspool::new(&needle);
    median_of_slices(1.0, |_| {
        let t0 = Instant::now();
        std::hint::black_box(count_inline(&matcher, &hay));
        hay.len() as f64 / 1e6 / t0.elapsed().as_secs_f64()
    })
}
