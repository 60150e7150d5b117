//! Cross-process supervision scenarios: seeded `kill -9` mid-stream,
//! restart-budget exhaustion, role-reclaim refusal, and the blocked-
//! producer unpark regression (a SIGKILL'd worker never flips its own
//! close flags — the supervisor's reap path must do it on its behalf).
//!
//! This target is `harness = false`: the binary re-executes itself as
//! the worker process (`--worker <mode> <fds…>`), inheriting the shm
//! segments by file descriptor exactly like `examples/xprocess_pipeline`.
//! The parent half drives a real `RaftMap` graph through `DescShip` and
//! supervises the worker with `ProcSupervisor`.

use std::process::Command;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use raft_buffer::arena::{DescriptorSender, SendOutcome, ShmArena};
use raft_buffer::eventcount::Wake;
use raft_buffer::shm::{ShmItem, ShmRing, ShmSegment};
use raft_buffer::{Descriptor, TryPopError};
use raft_kernels::DescShip;
use raftlib::prelude::*;
use raftlib::{DescLink, SegmentLink};

/// The PR 4 failpoint seeds, reused so chaos placement stays comparable
/// across the fault-injection suites.
const SEEDS: [u64; 5] = [1, 7, 42, 99, 7177];
const RECORDS: u64 = 4_000;
const RING_CAP: usize = 128;
const ARENA_SLOTS: usize = 256;
const SLOT_SIZE: usize = 64;
const RESULT_CAP: usize = 512;

/// Per-record result shipped worker → parent; `seq` is the worker's
/// commit cursor for the record, which the parent uses to deduplicate
/// replayed work after a respawn.
#[repr(C)]
#[derive(Clone, Copy)]
struct ResultRec {
    seq: u64,
    value: u64,
}

// SAFETY: ResultRec is Copy, repr(C), and contains only u64s — no
// padding, no pointers, every bit pattern valid — so it round-trips
// through shared memory byte-wise.
unsafe impl ShmItem for ResultRec {}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--worker") {
        let fd = |i: usize| -> i32 { args[i].parse().expect("fd arg") };
        match args.get(2).map(String::as_str) {
            Some("pipeline") => pipeline_worker(fd(3), fd(4), fd(5)),
            Some("sleep") => sleeping_worker(fd(3)),
            other => panic!("unknown worker mode {other:?}"),
        }
        return;
    }
    if !ShmSegment::memfd_supported() {
        println!("proc_supervision: memfd_create unavailable; skipping");
        return;
    }
    byte_identical_output_across_seeded_kills();
    restart_budget_exhaustion_escalates_to_abort();
    stale_generation_reclaim_is_refused();
    killed_blocked_producer_unparks_promptly();
    abort_ends_a_send_waiting_on_the_commit();
    println!("proc_supervision: all scenarios passed");
}

/// Map a chaos seed to a kill offset in the first half of the stream.
fn kill_offset(seed: u64) -> u64 {
    raft_rng::Rng::new(seed).range(1..=RECORDS / 2)
}

/// SIGKILL ourselves: no drop glue, no close flags, no goodbye.
fn die_hard() -> ! {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        // SYS_kill = 62.
        let mut nr: u64 = 62;
        // SAFETY: kill(getpid(), SIGKILL) targets only this process and
        // never returns; rcx/r11 are clobbered per the syscall ABI.
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
    std::process::abort();
}

// --- worker modes (this binary, re-executed) -------------------------------

/// Consume descriptors, echo each parsed value back on the result ring,
/// honouring the exactly-once commit contract (publish result → commit →
/// free slot → beat). `RAFT_TEST_KILL_AT` plants a SIGKILL in the
/// publish-but-uncommitted window; by default only the first incarnation
/// (`RAFT_TEST_ATTEMPT=0`) dies, `RAFT_TEST_KILL_EVERY=1` makes every
/// incarnation die (for budget-exhaustion runs).
fn pipeline_worker(ring_fd: i32, arena_fd: i32, result_fd: i32) {
    let mut ring = ShmRing::<Descriptor>::attach_consumer(ring_fd).expect("attach ring");
    let mut rx = ShmArena::attach_rx(arena_fd).expect("attach arena");
    let mut results = ShmRing::<ResultRec>::attach_producer(result_fd).expect("attach results");
    let seg = ring.segment_shared();

    let attempt: u32 = std::env::var("RAFT_TEST_ATTEMPT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let kill_at: Option<u64> = std::env::var("RAFT_TEST_KILL_AT")
        .ok()
        .and_then(|s| s.parse().ok());
    let kill_every = std::env::var("RAFT_TEST_KILL_EVERY").is_ok();

    let mut seq = seg.commit_word().load(Acquire);
    let mut processed_this_run = 0u64;
    loop {
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
                if results.push(ResultRec { seq, value }).is_err() {
                    break;
                }
                // Crash in the nastiest window: result published, commit
                // not yet advanced — the replacement re-emits this seq.
                if (attempt == 0 || kill_every) && kill_at == Some(processed_this_run + 1) {
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

/// Attach the consumer role and then do nothing at all: never pops,
/// never beats the heartbeat, never exits. The supervisor must wedge-
/// kill it and flip the close flags on its behalf.
fn sleeping_worker(ring_fd: i32) {
    let _ring = ShmRing::<u64>::attach_consumer(ring_fd).expect("attach ring");
    std::thread::sleep(Duration::from_secs(120));
}

// --- parent-side pipeline harness ------------------------------------------

struct RunOutcome {
    /// Values indexed by sequence number (the journaled output).
    values: Vec<u64>,
    /// Distinct sequence numbers observed.
    distinct: u64,
    /// Results discarded as replayed duplicates.
    dupes: u64,
    report: ProcReport,
}

/// Drive the full parent graph with one supervised worker process.
fn run_pipeline(kill_at: Option<u64>, kill_every: bool, max_restarts: u32) -> RunOutcome {
    let (ring, ring_fd) = ShmRing::<Descriptor>::create_producer(RING_CAP).expect("ring");
    let (tx, arena_fd) = ShmArena::create_tx(ARENA_SLOTS, SLOT_SIZE).expect("arena");
    let (mut results, result_fd) =
        ShmRing::<ResultRec>::create_consumer(RESULT_CAP).expect("result ring");
    let sender = Arc::new(Mutex::new(DescriptorSender::new(tx, ring, 0)));
    let hb_seg = sender.lock().unwrap().ring_segment_shared();
    let result_seg = results.segment_shared();

    let exe = std::env::current_exe().expect("current exe");
    let factory = move |attempt: u32| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--worker", "pipeline"])
            .arg(ring_fd.to_string())
            .arg(arena_fd.to_string())
            .arg(result_fd.to_string())
            .env("RAFT_TEST_ATTEMPT", attempt.to_string());
        if let Some(off) = kill_at {
            cmd.env("RAFT_TEST_KILL_AT", off.to_string());
        }
        if kill_every {
            cmd.env("RAFT_TEST_KILL_EVERY", "1");
        }
        cmd
    };

    let mut sup = ProcSupervisor::new();
    sup.spawn(
        WorkerSpec::new("pipeline-worker", factory)
            .policy(ProcPolicy::Restart {
                max_restarts,
                backoff: Duration::from_millis(5),
            })
            .wedge_timeout(Duration::from_secs(5))
            .link(DescLink::new(sender.clone()))
            .link(SegmentLink::new(result_seg, true))
            .heartbeat_on(hb_seg),
    )
    .expect("spawn worker");
    let terminal = sup.terminal_flag();

    // Collector: count-based termination with dedup by seq. `Closed` is
    // only terminal once the supervisor gives up on the worker (the reap
    // path sets transient close flags during every respawn).
    let tflag = terminal.clone();
    let collector = std::thread::spawn(move || {
        let mut values = vec![0u64; RECORDS as usize];
        let mut seen = vec![false; RECORDS as usize];
        let mut distinct = 0u64;
        let mut dupes = 0u64;
        while distinct < RECORDS {
            match results.try_pop() {
                Ok(r) => {
                    let i = r.seq as usize;
                    if i < seen.len() && !seen[i] {
                        seen[i] = true;
                        values[i] = r.value;
                        distinct += 1;
                    } else {
                        dupes += 1;
                    }
                }
                Err(TryPopError::Empty) => {
                    if tflag.load(Relaxed) {
                        break; // worker terminally gone and ring drained
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(TryPopError::Closed) => {
                    if tflag.load(Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        (values, distinct, dupes)
    });

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
    map.exe().expect("parent graph");

    // Wait for full ack (or give up once the worker is terminally gone),
    // then close the producer side so a live worker drains and exits.
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

    let (values, distinct, dupes) = collector.join().expect("collector");
    let mut reports = sup.join(Duration::from_secs(60));
    assert_eq!(reports.len(), 1);
    RunOutcome {
        values,
        distinct,
        dupes,
        report: reports.remove(0),
    }
}

// --- scenarios -------------------------------------------------------------

/// A worker SIGKILL'd mid-stream at each seeded offset is respawned,
/// re-attaches via generation reclaim, and resumes from the rewound ring:
/// the collected output is byte-identical to the fault-free run.
fn byte_identical_output_across_seeded_kills() {
    let baseline = run_pipeline(None, false, 3);
    assert_eq!(baseline.distinct, RECORDS, "fault-free run incomplete");
    assert_eq!(baseline.report.outcome, KernelOutcome::Completed);
    assert_eq!(baseline.report.crashes, 0);
    let baseline_bytes: Vec<u8> = baseline
        .values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();

    for seed in SEEDS {
        let off = kill_offset(seed);
        let run = run_pipeline(Some(off), false, 3);
        assert_eq!(
            run.distinct, RECORDS,
            "seed {seed}: incomplete after respawn"
        );
        let bytes: Vec<u8> = run.values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(
            bytes, baseline_bytes,
            "seed {seed}: journaled output diverged from fault-free run"
        );
        assert_eq!(
            run.report.outcome,
            KernelOutcome::Restarted(1),
            "seed {seed}"
        );
        assert_eq!(run.report.crashes, 1, "seed {seed}");
        assert_eq!(run.report.respawns, 1, "seed {seed}");
        // The kill lands between result-publish and commit, so exactly
        // one replayed duplicate reaches the collector.
        assert_eq!(
            run.dupes, 1,
            "seed {seed}: expected one deduplicated replay"
        );
        // `last_status` tracks the most recent exit: the respawned
        // incarnation's clean 0, not the SIGKILL'd one's signal death.
        assert_eq!(run.report.last_status, Some(0), "seed {seed}");
        println!("  seed {seed}: kill at {off}, output byte-identical ✓");
    }
    println!("byte_identical_output_across_seeded_kills ✓");
}

/// A worker that dies on every incarnation burns through its restart
/// budget and escalates to Abort.
fn restart_budget_exhaustion_escalates_to_abort() {
    let run = run_pipeline(Some(20), true, 2);
    assert_eq!(run.report.outcome, KernelOutcome::Aborted);
    assert_eq!(
        run.report.crashes, 3,
        "initial attempt + 2 respawns all crash"
    );
    assert_eq!(run.report.respawns, 2);
    assert!(run.distinct < RECORDS, "run cannot complete");
    println!("restart_budget_exhaustion_escalates_to_abort ✓");
}

/// A role word that moved since it was observed is not ours to revoke:
/// the generation CAS refuses, which is what stops a supervisor from
/// reclaiming a role a *live* attacher re-claimed in the meantime.
fn stale_generation_reclaim_is_refused() {
    let (_p, fd) = ShmRing::<u64>::create_producer(8).expect("ring");
    let c = ShmRing::<u64>::attach_consumer(fd).expect("attach");
    let seg = c.segment_shared();

    // The consumer role is live at some odd generation g.
    let g = seg.role_generation(false);
    assert_eq!(g & 1, 1, "attached consumer holds an odd generation");
    // A claim attempt while the role is live is refused outright.
    assert_eq!(seg.claim_role_generation(false), None);

    // Simulate a full reap + reclaim cycle by another supervisor: the
    // word moves to g+2 (revoked, then re-claimed by the replacement).
    drop(c); // release cleanly: in this build drop ≠ revoke, so force it
    assert_eq!(seg.revoke_role(false, g), Ok(g + 1));
    assert_eq!(seg.claim_role_generation(false), Some(g + 2));

    // Our observation of g is now stale: the revoke CAS must refuse and
    // report the current generation, leaving the live claim intact.
    assert_eq!(seg.revoke_role(false, g), Err(g + 2));
    assert_eq!(seg.role_generation(false), g + 2);
    println!("stale_generation_reclaim_is_refused ✓");
}

/// Satellite regression: a producer parked on a full ring whose consumer
/// is SIGKILL'd must unpark promptly — the supervisor's reap path writes
/// the dead worker's close flags and performs the full-contract futex
/// notify on its behalf.
fn killed_blocked_producer_unparks_promptly() {
    let (mut producer, fd) = ShmRing::<u64>::create_producer(4).expect("ring");
    let seg = producer.segment_shared();

    let exe = std::env::current_exe().expect("current exe");
    let factory = move |_attempt: u32| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--worker", "sleep"]).arg(fd.to_string());
        cmd
    };

    let mut sup = ProcSupervisor::new();
    sup.spawn(
        WorkerSpec::new("sleeper", factory)
            .policy(ProcPolicy::Skip)
            .wedge_timeout(Duration::from_millis(300))
            .link(SegmentLink::new(seg.clone(), false))
            .heartbeat_on(seg),
    )
    .expect("spawn sleeper");

    // Fill the ring, then block in push. The sleeper never pops and
    // never beats, so the supervisor wedge-kills it; the reap path must
    // wake us with `Closed` well before any watchdog-scale timeout.
    let blocked = std::thread::spawn(move || {
        let started = Instant::now();
        let mut pushed = 0u64;
        loop {
            if producer.push(pushed).is_err() {
                return (pushed, started.elapsed());
            }
            pushed += 1;
        }
    });

    let reports = sup.join(Duration::from_secs(30));
    assert_eq!(reports[0].outcome, KernelOutcome::Skipped);
    assert_eq!(reports[0].wedges, 1);
    assert_eq!(reports[0].last_status, None, "wedge kill is a signal death");

    let (pushed, elapsed) = blocked.join().expect("blocked producer");
    assert!(pushed >= 4, "ring filled before blocking (pushed {pushed})");
    assert!(
        elapsed < Duration::from_secs(2),
        "blocked producer took {elapsed:?} to observe the reaped consumer"
    );
    println!("killed_blocked_producer_unparks_promptly ✓ ({elapsed:?})");
}

/// Shutdown writes the close flags too: a send waiting on a commit-full
/// descriptor ring (holding the sender lock) returns `Busy` once the fleet
/// is aborted, instead of re-parking for ever. The send and `abort()` run
/// on threads of their own, joined only after the check, so a send or a
/// shutdown that blocks fails the check instead of hanging the run.
fn abort_ends_a_send_waiting_on_the_commit() {
    let (ring, _ring_fd) = ShmRing::<Descriptor>::create_producer(2).expect("ring");
    let (tx, _arena_fd) = ShmArena::create_tx(8, SLOT_SIZE).expect("arena");
    let sender = Arc::new(Mutex::new(DescriptorSender::new(tx, ring, 0)));
    let ring_seg = sender.lock().unwrap().ring_segment_shared();
    let mut sup = ProcSupervisor::new();
    sup.spawn(
        WorkerSpec::new("never-commits", |_| {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", "sleep 30"]);
            cmd
        })
        .policy(ProcPolicy::Abort)
        .link(DescLink::new(sender.clone())),
    )
    .expect("spawn worker");
    for i in 0..2u8 {
        assert_eq!(sender.lock().unwrap().send_bytes(&[i]), SendOutcome::Sent);
    }
    let (done, sent) = std::sync::mpsc::channel();
    let third = sender.clone();
    let sending = std::thread::spawn(move || done.send(third.lock().unwrap().send_bytes(&[2])));
    while ring_seg.producer_waker().backend().armed().load(Acquire) == 0 {
        std::thread::yield_now();
    }
    let aborting = std::thread::spawn(move || sup.abort());
    assert_eq!(
        sent.recv_timeout(Duration::from_secs(1)),
        Ok(SendOutcome::Busy),
        "a send waiting on the commit outlived the fleet's abort"
    );
    sending.join().unwrap().unwrap();
    aborting.join().unwrap();
    println!("abort_ends_a_send_waiting_on_the_commit ✓");
}
