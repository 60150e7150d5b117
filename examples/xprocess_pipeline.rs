//! Two OS processes joined by shared-memory zero-copy links, run under
//! the process supervisor.
//!
//! The parent runs a RaftMap graph that generates text records, stages
//! each one in a shared-memory arena, and streams 16-byte descriptors
//! through an shm-backed SPSC ring via [`DescShip`]. A *separate worker
//! process* (this same binary, re-executed with `--worker`) attaches the
//! segments by inherited file descriptor, parses the records in place —
//! the payload bytes are never copied between the processes — and ships
//! per-record results back on a second ring.
//!
//! The worker runs under [`ProcSupervisor`]: a heartbeat word in the
//! descriptor ring's header proves liveness (futex-parked watcher, no
//! polling), and a crashed worker is reaped, its segment roles reclaimed
//! by generation bump, the descriptor ring rewound to the worker's commit
//! word, and a replacement respawned which resumes from the uncommitted
//! descriptors still in the ring. Set `RAFT_XPROC_KILL_SEED=<n>` to make
//! the first worker incarnation SIGKILL itself mid-stream at a seeded
//! offset; the run still completes with the exact fault-free sum because
//! consumed-but-uncommitted records are re-delivered to the replacement and
//! the parent deduplicates results by sequence number.
//!
//! ```sh
//! cargo run --release --example xprocess_pipeline
//! RAFT_XPROC_KILL_SEED=42 cargo run --release --example xprocess_pipeline
//! ```

use std::process::Command;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use raft_buffer::arena::{DescriptorSender, ShmArena};
use raft_buffer::shm::{ShmItem, ShmRing, ShmSegment};
use raft_buffer::{Descriptor, TryPopError};
use raft_kernels::DescShip;
use raftlib::prelude::*;
use raftlib::{render_report, DescLink, SegmentLink};

const RECORDS: u64 = 50_000;
const RING_CAP: usize = 256;
const ARENA_SLOTS: usize = 512;
const SLOT_SIZE: usize = 64;
const RESULT_CAP: usize = 1024;

/// One per-record result shipped worker → parent. `seq` is the worker's
/// commit cursor for the record (its position in the descriptor stream),
/// which the parent uses to deduplicate replays: a worker that dies
/// between publishing a result and committing it will re-emit the same
/// `seq` after respawn.
#[repr(C)]
#[derive(Clone, Copy)]
struct ResultRec {
    seq: u64,
    value: u64,
}

// SAFETY: ResultRec is Copy, repr(C), contains only u64s (no padding,
// no pointers, any bit pattern valid), so it round-trips through shared
// memory byte-wise.
unsafe impl ShmItem for ResultRec {}

fn main() {
    let mut args = std::env::args();
    let _exe = args.next();
    if args.next().as_deref() == Some("--worker") {
        let ring_fd: i32 = args.next().expect("ring fd").parse().expect("ring fd");
        let arena_fd: i32 = args.next().expect("arena fd").parse().expect("arena fd");
        let result_fd: i32 = args.next().expect("result fd").parse().expect("result fd");
        worker(ring_fd, arena_fd, result_fd);
        return;
    }
    if !ShmSegment::memfd_supported() {
        println!("memfd_create unavailable; skipping cross-process demo");
        return;
    }
    parent();
}

/// Derive the kill offset from a chaos seed: one draw from the seeded
/// generator, mapped into the first half of the stream so the crash always
/// lands mid-flight.
fn kill_offset(seed: u64) -> u64 {
    raft_rng::Rng::new(seed).range(1..=RECORDS / 2)
}

/// Deliver SIGKILL to ourselves: no drop glue, no atexit, no chance to
/// flip close flags — exactly what the supervisor must tolerate.
fn die_hard() -> ! {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        // SYS_kill = 62.
        let mut nr: u64 = 62;
        // SAFETY: kill(getpid(), SIGKILL) targets only this process and
        // never returns; registers follow the x86-64 syscall ABI
        // (rcx/r11 clobbered by the instruction).
        unsafe {
            std::arch::asm!(
                "syscall",
                inout("rax") nr,
                in("rdi") u64::from(std::process::id()),
                in("rsi") 9u64, // SIGKILL
                out("rcx") _,
                out("r11") _,
            );
        }
        let _ = nr;
    }
    // Fallback (and unreachable-on-Linux tail): abort still skips all
    // drop glue.
    std::process::abort();
}

fn parent() {
    let kill_seed = std::env::var("RAFT_XPROC_KILL_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());

    let (ring, ring_fd) =
        ShmRing::<Descriptor>::create_producer(RING_CAP).expect("create ring segment");
    let (tx, arena_fd) = ShmArena::create_tx(ARENA_SLOTS, SLOT_SIZE).expect("create arena");
    let (mut results, result_fd) =
        ShmRing::<ResultRec>::create_consumer(RESULT_CAP).expect("create result ring");

    let sender = Arc::new(Mutex::new(DescriptorSender::new(tx, ring, 0)));
    let hb_seg = sender.lock().unwrap().ring_segment_shared();
    let result_seg = results.segment_shared();

    // memfd descriptors are created without CLOEXEC, so every worker
    // incarnation inherits them at the same numbers we pass on its
    // command line. The factory receives the attempt number; the worker
    // uses it to fire the seeded self-kill only on its first life.
    let exe = std::env::current_exe().expect("current exe");
    let factory = move |attempt: u32| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .arg(ring_fd.to_string())
            .arg(arena_fd.to_string())
            .arg(result_fd.to_string())
            .env("RAFT_XPROC_ATTEMPT", attempt.to_string());
        cmd
    };

    let mut sup = ProcSupervisor::new();
    sup.spawn(
        WorkerSpec::new("xproc-worker", factory)
            .policy(ProcPolicy::Restart {
                max_restarts: 5,
                backoff: Duration::from_millis(10),
            })
            .wedge_timeout(Duration::from_secs(10))
            .link(DescLink::new(sender.clone()))
            .link(SegmentLink::new(result_seg, true))
            .heartbeat_on(hb_seg),
    )
    .expect("spawn worker");
    let terminal = sup.terminal_flag();

    // Collector: drains the result ring, deduplicating by sequence
    // number. Termination is count-based, not end-of-stream-based: the
    // supervisor's reap path transiently sets close flags on the result
    // ring during a respawn, so `Closed` only ends the run once the
    // supervisor says the worker is terminally gone.
    let tflag = terminal.clone();
    let collector = std::thread::spawn(move || {
        let mut seen = vec![false; RECORDS as usize];
        let mut distinct = 0u64;
        let mut sum = 0u64;
        let mut dupes = 0u64;
        while distinct < RECORDS {
            match results.try_pop() {
                Ok(r) => {
                    let i = r.seq as usize;
                    if i < seen.len() && !seen[i] {
                        seen[i] = true;
                        distinct += 1;
                        sum += r.value;
                    } else {
                        dupes += 1;
                    }
                }
                Err(TryPopError::Empty) => std::thread::sleep(Duration::from_micros(200)),
                Err(TryPopError::Closed) => {
                    if tflag.load(Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        (distinct, sum, dupes)
    });

    // The parent half is an ordinary RaftMap graph; the process boundary
    // hides behind the DescShip sink.
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(raftlib::lambda_source(move || {
        i += 1;
        (i <= RECORDS).then_some(i)
    }));
    let ship = map.add(DescShip::new(
        sender.clone(),
        |v: &u64, buf: &mut Vec<u8>| {
            buf.extend_from_slice(format!("value:{v}\n").as_bytes());
        },
        Some(terminal.clone()),
    ));
    map.link(src, "0", ship, "in").unwrap();
    let started = Instant::now();
    let mut exe_report = map.exe().expect("parent graph");

    // Every record is in the ring. Wait for the worker to commit them
    // all, then signal end-of-stream by closing the producer side of the
    // descriptor ring.
    loop {
        {
            let mut s = sender.lock().unwrap();
            s.ack_committed();
            if s.pending() == 0 && !s.recovering() {
                break;
            }
        }
        if terminal.load(Relaxed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    {
        let s = sender.lock().unwrap();
        let seg = s.ring_segment();
        seg.producer_closed().store(1, Release);
        seg.consumer_waker().notify();
        // Nothing the ring holds is left uncommitted (unless the worker
        // is terminally gone). Park rescues are reported, not asserted:
        // under CPU oversubscription a bounded park legitimately stands in
        // for a late wake.
        if !terminal.load(Relaxed) {
            assert_eq!(s.pending(), 0, "descriptor ring");
        }
    }

    let (distinct, sum, dupes) = collector.join().expect("collector thread");
    let procs = sup.join(Duration::from_secs(60));
    exe_report.procs = procs;

    let expected: u64 = (1..=RECORDS).filter(|v| v % 2 == 0).sum();
    assert_eq!(
        distinct, RECORDS,
        "collector saw {distinct}/{RECORDS} distinct records"
    );
    assert_eq!(sum, expected, "worker sum mismatch");

    println!(
        "parent: {} records shipped as {}-byte descriptors in {:?}",
        RECORDS,
        std::mem::size_of::<Descriptor>(),
        started.elapsed()
    );
    if let Some(seed) = kill_seed {
        println!(
            "chaos: seed {} killed the worker after {} records; the rewound ring re-delivered the rest",
            seed,
            kill_offset(seed)
        );
    }
    println!(
        "worker: sum of even records = {sum} (expected {expected}, {dupes} replays deduplicated) ✓"
    );
    print!("{}", render_report(&exe_report));
}

/// The worker process: attach the segments by inherited fd, then parse
/// and filter records in place until the parent closes the ring.
///
/// The exactly-once contract per record: pop the descriptor, resolve and
/// process the payload, *publish the result*, then advance the commit
/// word, then free the arena slot, then beat the heartbeat. A crash
/// before the commit means the record is re-delivered to the replacement (a
/// duplicate result is possible — the parent dedups by `seq`); a crash
/// after means the parent acks it and never re-sends it.
fn worker(ring_fd: i32, arena_fd: i32, result_fd: i32) {
    let mut ring = ShmRing::<Descriptor>::attach_consumer(ring_fd).expect("attach ring");
    let mut rx = ShmArena::attach_rx(arena_fd).expect("attach arena");
    let mut results = ShmRing::<ResultRec>::attach_producer(result_fd).expect("attach results");
    let seg = ring.segment_shared();

    let attempt: u32 = std::env::var("RAFT_XPROC_ATTEMPT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let chaos = std::env::var("RAFT_XPROC_KILL_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(kill_offset);

    // Resume point: the commit word survives us. A replacement worker
    // starts numbering where its predecessor's last committed record
    // left off, which is exactly where the parent rewinds the ring.
    let mut seq = seg.commit_word().load(Acquire);
    let mut processed_this_run = 0u64;

    loop {
        // Beat per iteration — on the hot path and on empty polls — so
        // the watcher sees progress even when the stream stalls.
        seg.heartbeat().beat();
        match ring.try_pop() {
            Ok(d) => {
                let value = rx
                    .resolve(&d)
                    .ok()
                    .and_then(|bytes| {
                        std::str::from_utf8(bytes)
                            .ok()?
                            .trim_end()
                            .strip_prefix("value:")?
                            .parse::<u64>()
                            .ok()
                    })
                    .unwrap_or(0);
                let rec = ResultRec {
                    seq,
                    value: if value.is_multiple_of(2) { value } else { 0 },
                };
                if results.push(rec).is_err() {
                    break; // parent collector gone; nothing left to do
                }
                // The seeded crash lands in the nastiest window: result
                // published, commit not yet advanced. The replacement
                // re-processes this record and re-emits the same `seq`;
                // the parent's dedup makes it count once.
                if attempt == 0 && chaos == Some(processed_this_run + 1) {
                    die_hard();
                }
                seg.commit_word().store(seq + 1, Release);
                let _ = rx.free(d);
                seq += 1;
                processed_this_run += 1;
            }
            Err(TryPopError::Empty) => std::thread::sleep(Duration::from_micros(200)),
            Err(TryPopError::Closed) => break,
        }
    }
}
