//! `xproc_shm`: the process boundary. The parent's graph
//! (`Generate → DescShip`) stages seeded 4 KiB payloads in a shared-memory
//! arena and ships 16-byte descriptors over an shm ring to one worker
//! process — this binary re-executed under `ProcSupervisor`, heartbeat on —
//! which checksums each payload in place and returns `(seq, sum)` on a
//! second ring. The worker serves every repetition of a run; it is started
//! on first use and reaped by `finish`. Fault-free: no respawn may happen.
//! In-process workloads predict no change from shm work; this one guards
//! the third ring copy.

use std::process::Command;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::{note_check_errors, phase, scaled, RepOutcome, Size, TraceCtx, Workload};
use crate::rng::XorShift;
use crate::sut::{
    DescLink, DescShip, Descriptor, DescriptorSender, Generate, KernelOutcome, MapConfig,
    ProcPolicy, ProcSupervisor, RaftMap, SegmentLink, ShmArena, ShmRing, ShmRingConsumer,
    TryPopError, WorkerSpec,
};

/// Payloads per repetition (frozen).
pub const PAYLOADS: u64 = 1 << 18;
/// Bytes per payload (frozen).
pub const PAYLOAD_BYTES: usize = 4096;
/// Distinct seeded payload bodies; payload `i` is body `i % POOL` with its
/// first word replaced by `i` (frozen).
pub const POOL: usize = 64;
/// Descriptor ring capacity, arena slots, result ring capacity (frozen).
pub const RING_CAP: usize = 256;
pub const ARENA_SLOTS: usize = 512;
pub const RESULT_CAP: usize = 1024;
/// Unacknowledged descriptors the journal may hold: above arena slots in
/// flight plus ring occupancy, so no forced ack ever fires.
const JOURNAL_BOUND: usize = 2048;

/// The worker's argv marker.
pub const WORKER_FLAG: &str = "--xproc-worker";

/// One result record, worker → parent: `[sequence tag, checksum]`.
type ResultRec = [u64; 2];

/// One payload body of seeded words.
pub fn seeded_payload(gen: &mut XorShift) -> Vec<u8> {
    (0..PAYLOAD_BYTES / 8)
        .flat_map(|_| gen.next_u64().to_le_bytes())
        .collect()
}

/// First word (the sequence tag) and wrapping sum of all words.
fn checksum(bytes: &[u8]) -> (u64, u64) {
    let mut words = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    let tag = words.next().unwrap_or(0);
    (tag, words.fold(tag, u64::wrapping_add))
}

/// The worker process: attach the three segments by inherited descriptor
/// number, then checksum payloads in place until the parent closes the
/// ring. Per record: publish the result, *then* advance the commit word,
/// then free the slot — the supervisor's exactly-once contract.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let fd = |i: usize| -> Result<i32, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{WORKER_FLAG}: bad descriptor argument {i}"))
    };
    let mut ring =
        ShmRing::<Descriptor>::attach_consumer(fd(0)?).map_err(|e| format!("attach ring: {e}"))?;
    let mut arena = ShmArena::attach_rx(fd(1)?).map_err(|e| format!("attach arena: {e}"))?;
    let mut results = ShmRing::<ResultRec>::attach_producer(fd(2)?)
        .map_err(|e| format!("attach results: {e}"))?;
    let seg = ring.segment_shared();
    let mut seq = seg.commit_word().load(Acquire);
    loop {
        seg.heartbeat().beat();
        let d = match ring.try_pop() {
            Ok(d) => d,
            Err(TryPopError::Closed) => break,
            // empty: park on the ring's futex instead of polling
            Err(TryPopError::Empty) => match ring.pop() {
                Ok(d) => d,
                Err(_) => break,
            },
        };
        // an unresolvable descriptor is reported as a record no payload has
        let rec = match arena.resolve(&d) {
            Ok(bytes) => {
                let (tag, sum) = checksum(bytes);
                [tag, sum]
            }
            Err(_) => [u64::MAX, 0],
        };
        if results.push(rec).is_err() {
            break; // parent gone
        }
        seg.commit_word().store(seq + 1, Release);
        let _ = arena.free(d);
        seq += 1;
    }
    Ok(())
}

/// The live worker process and the segments it is wired to. It outlives a
/// repetition: repetitions are back-to-back `exe()` calls of the parent
/// graph against one worker, so that process start and the supervisor's
/// reap latency are set-up cost, not part of every repetition.
struct Link {
    sender: Arc<Mutex<DescriptorSender>>,
    results: ShmRingConsumer<ResultRec>,
    supervisor: ProcSupervisor,
    terminal: Arc<AtomicBool>,
    /// Sequence tag of the next payload; tags run on across repetitions.
    next_tag: u64,
}

pub struct XprocShm {
    pool: Arc<Vec<Vec<u8>>>,
    /// Sum of words 1.. of each pool body (everything but the tag word).
    body_sums: Vec<u64>,
    payloads: u64,
    link: Option<Link>,
}

impl XprocShm {
    pub fn new(seed: u64, scale: f64) -> Self {
        let mut gen = XorShift::new(seed, 5);
        let pool: Vec<Vec<u8>> = (0..POOL).map(|_| seeded_payload(&mut gen)).collect();
        let body_sums = pool
            .iter()
            .map(|p| {
                let (tag, sum) = checksum(p);
                sum.wrapping_sub(tag)
            })
            .collect();
        XprocShm {
            pool: Arc::new(pool),
            body_sums,
            payloads: scaled(PAYLOADS, scale),
            link: None,
        }
    }

    /// The checksum the worker must return for payload `i`, computed
    /// without staging anything.
    fn expected(body_sums: &[u64], i: u64) -> u64 {
        body_sums[(i % POOL as u64) as usize].wrapping_add(i)
    }

    /// Create the segments and start the supervised worker.
    fn connect() -> Link {
        let (ring, ring_fd) =
            ShmRing::<Descriptor>::create_producer(RING_CAP).expect("create descriptor ring");
        let (tx, arena_fd) = ShmArena::create_tx(ARENA_SLOTS, PAYLOAD_BYTES).expect("create arena");
        let (results, result_fd) =
            ShmRing::<ResultRec>::create_consumer(RESULT_CAP).expect("create result ring");
        let sender = Arc::new(Mutex::new(DescriptorSender::new(tx, ring, JOURNAL_BOUND)));
        let heartbeat = sender.lock().expect("sender lock").ring_segment_shared();
        // memfd descriptors are created without CLOEXEC: the worker
        // inherits them at the numbers passed on its command line.
        let exe = std::env::current_exe().expect("current exe");
        let factory = move |_attempt: u32| {
            let mut cmd = Command::new(&exe);
            cmd.arg(WORKER_FLAG)
                .arg(ring_fd.to_string())
                .arg(arena_fd.to_string())
                .arg(result_fd.to_string());
            cmd
        };
        let mut supervisor = ProcSupervisor::new();
        supervisor
            .spawn(
                WorkerSpec::new("xproc-worker", factory)
                    .policy(ProcPolicy::restart(3))
                    .wedge_timeout(Duration::from_secs(10))
                    .link(DescLink::new(sender.clone()))
                    .link(SegmentLink::new(results.segment_shared(), true))
                    .heartbeat_on(heartbeat),
            )
            .expect("spawn worker");
        let terminal = supervisor.terminal_flag();
        Link {
            sender,
            results,
            supervisor,
            terminal,
            next_tag: 0,
        }
    }
}

impl Workload for XprocShm {
    fn unit(&self) -> &'static str {
        "payload"
    }

    fn run(&mut self, size: Size, trace: Option<&TraceCtx>) -> RepOutcome {
        let n = size.of(self.payloads);
        let mut out = RepOutcome {
            attempted: n,
            units: n as f64,
            ..Default::default()
        };
        if self.link.is_none() {
            let (link, spawn) = phase(trace, "core.proc.spawn", Self::connect);
            self.link = Some(link);
            out.proc_spawn = Some(spawn);
        }
        let link = self.link.as_mut().expect("connected above");
        let base = link.next_tag;
        link.next_tag += n;

        let (map, build) = phase(trace, "setup.build_map", || {
            let mut map = RaftMap::with_config(MapConfig::default());
            let source = map.add(Generate::new(base..base + n).with_batch(64));
            let pool = self.pool.clone();
            let ship = map.add(DescShip::new(
                link.sender.clone(),
                move |i: &u64, buf: &mut Vec<u8>| {
                    buf.extend_from_slice(&pool[(*i % POOL as u64) as usize]);
                    buf[..8].copy_from_slice(&i.to_le_bytes());
                },
                Some(link.terminal.clone()),
            ));
            map.link(source, "out", ship, "in").expect("link ship");
            map
        });
        out.build = build;
        out.check = phase(trace, "core.map.check", || {
            note_check_errors(&map, &mut out.violations);
        })
        .1;

        // The collector must drain results while the graph runs, or the
        // result ring fills and the whole loop backs up.
        let results = &mut link.results;
        let (body_sums, t0) = (&self.body_sums, Instant::now());
        let (report, wrong, got) = std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let (mut got, mut wrong) = (0u64, 0u64);
                while got < n {
                    let Ok([tag, sum]) = results.pop() else {
                        break; // worker terminally gone
                    };
                    if tag != base + got || sum != Self::expected(body_sums, tag) {
                        wrong += 1;
                    }
                    got += 1;
                }
                (wrong, got)
            });
            let report = match trace {
                Some(t) => t.tracer.span(t.root, "core.map.exe", |id| {
                    out.exe_spans.push(id);
                    map.exe()
                }),
                None => map.exe(),
            }
            .expect("xproc_shm exe");
            let (wrong, got) = collector.join().expect("collector thread");
            (report, wrong, got)
        });
        out.wall = t0.elapsed();
        out.failed = wrong + n.abs_diff(got);
        out.reports.push(report);
        out
    }

    /// Let the worker commit everything, end the stream, and reap it.
    fn finish(&mut self) -> RepOutcome {
        let mut out = RepOutcome::default();
        let Some(link) = self.link.take() else {
            return out;
        };
        loop {
            let mut s = link.sender.lock().expect("sender lock");
            s.ack_committed();
            if (s.pending() == 0 && !s.recovering()) || link.terminal.load(Relaxed) {
                let seg = s.ring_segment();
                seg.producer_closed().store(1, Release);
                seg.consumer_waker().notify();
                break;
            }
            drop(s);
            std::thread::sleep(Duration::from_micros(200));
        }
        for proc in link.supervisor.join(Duration::from_secs(60)) {
            out.proc_respawns += u64::from(proc.respawns);
            if proc.outcome != KernelOutcome::Completed {
                out.violations
                    .push(format!("worker ended {:?}, not Completed", proc.outcome));
            }
        }
        if out.proc_respawns != 0 {
            out.violations.push(format!(
                "{} respawns in a fault-free run",
                out.proc_respawns
            ));
        }
        out
    }

    fn reference_throughput(&mut self) -> f64 {
        // the same job in one thread: stage the payload, checksum it, verify
        let mut buf = vec![0u8; PAYLOAD_BYTES];
        let t0 = Instant::now();
        let mut ok = 0u64;
        for i in 0..self.payloads {
            buf.copy_from_slice(&self.pool[(i % POOL as u64) as usize]);
            buf[..8].copy_from_slice(&i.to_le_bytes());
            let (tag, sum) = checksum(std::hint::black_box(&buf));
            ok += u64::from(tag == i && sum == Self::expected(&self.body_sums, i));
        }
        assert_eq!(ok, self.payloads, "reference disagrees with itself");
        self.payloads as f64 / t0.elapsed().as_secs_f64()
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("xproc_shm.payloads", self.payloads as f64),
            ("xproc_shm.payload_bytes", PAYLOAD_BYTES as f64),
            ("xproc_shm.ring_capacity", RING_CAP as f64),
            ("xproc_shm.arena_slots", ARENA_SLOTS as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_sum_matches_a_staged_payload() {
        let w = XprocShm::new(9, 0.001);
        for i in [0u64, 1, 63, 64, 1000] {
            let mut buf = w.pool[(i % POOL as u64) as usize].clone();
            buf[..8].copy_from_slice(&i.to_le_bytes());
            assert_eq!(checksum(&buf), (i, XprocShm::expected(&w.body_sums, i)));
        }
    }
}
