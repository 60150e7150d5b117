//! The RaftLib-side pipelines the harnesses execute.

use std::sync::Arc;

use raft_algos::matmul::{MatPair, Matrix};
use raft_algos::{AhoCorasick, Horspool, Match, Matcher};
use raft_kernels::{ByteChunk, ByteChunkSource};
use raft_kernels::{Count, Fold, Generate, Map, SliceMap};
use raftlib::prelude::*;

/// Figure 8/9 topology: filereader → search×width → reduce. Returns
/// `(match count, execution report)`.
pub fn raftlib_search(
    corpus: &Arc<Vec<u8>>,
    matcher: Arc<dyn Matcher>,
    width: u32,
    chunk_size: usize,
) -> (u64, ExeReport) {
    let overlap = matcher.overlap();
    // Keep chunk descriptor queues modest; payloads are zero-copy.
    let cfg = MapConfig {
        fifo: FifoConfig::starting_at(16),
        ..Default::default()
    };
    let mut map = RaftMap::with_config(cfg);
    let filereader = map.add(ByteChunkSource::new(corpus.clone(), chunk_size, overlap));
    // Chunk descriptors are scanned by reference straight from the input
    // ring (SliceMap's pop_slice view) — no per-descriptor pop, and the
    // queue protocol is paid once per batch of chunks.
    let search = map.add(
        SliceMap::new(move |chunk: &ByteChunk| {
            let mut found: Vec<Match> = Vec::new();
            matcher.find_into(chunk.as_slice(), chunk.base(), chunk.min_end, &mut found);
            found.len() as u64
        })
        .with_batch(8),
    );
    let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
    let sink = map.add(fold);
    map.link_unordered(filereader, "out", search, "in")
        .expect("link search");
    map.link_unordered(search, "out", sink, "in")
        .expect("link fold");
    map.prefer_width(search, width);
    let report = map.exe().expect("raftlib search run");
    let n = *total.lock().unwrap();
    (n, report)
}

/// Build the searcher for Figure 10's RaftLib series.
pub fn search_matcher(kind: &str, needle: &[u8]) -> Arc<dyn Matcher> {
    match kind {
        "ac" => Arc::new(AhoCorasick::new(&[needle])),
        "bmh" => Arc::new(Horspool::new(needle)),
        other => panic!("unknown matcher {other:?}"),
    }
}

/// Items pushed through the `ports` depth-series pipeline.
pub const DEPTH_ITEMS: u64 = 100_000;

/// Batch size the fused depth series runs with; recorded in the JSON
/// report so the file is self-describing.
pub const DEPTH_FUSION_BATCH: usize = 512;

/// The `ports` depth-series pipeline: `Generate → Map×depth → Count`, all
/// queues fixed at 1024 elements, monitor off — the per-hop overhead
/// microbenchmark. `fusion` selects whether the map chain is collapsed by
/// the fusion pass, so fused and unfused runs are measured in the same
/// process on the same build. Returns the end-to-end wall time.
pub fn depth_pipeline(depth: usize, fusion: bool, batch: usize) -> std::time::Duration {
    let cfg = MapConfig {
        monitor: MonitorConfig::disabled(),
        fifo: FifoConfig::fixed(1024),
        fusion: FusionConfig {
            enabled: fusion,
            batch,
        },
        ..Default::default()
    };
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..DEPTH_ITEMS).with_batch(512));
    let mut prev = src;
    for _ in 0..depth {
        let stage = map.add(Map::new(|x: u64| x.wrapping_add(1)));
        map.connect(prev, stage).expect("link stage");
        prev = stage;
    }
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.connect(prev, sink).expect("link sink");
    let report = map.exe().expect("depth pipeline run");
    assert_eq!(n.load(std::sync::atomic::Ordering::Relaxed), DEPTH_ITEMS);
    if fusion && depth >= 2 {
        assert_eq!(
            report.fused.len(),
            1,
            "depth {depth}: map chain should fuse"
        );
    }
    report.elapsed
}

/// One row of the depth series: `(depth, unfused Melem/s, fused Melem/s)`.
pub type DepthRow = (usize, f64, f64);

/// The depth series behind `BENCH_ports.json`: measures every depth both
/// unfused and fused (best of three after a warm-up run), writes the
/// report, and returns `(path, rows)`.
pub fn ports_json_series() -> std::io::Result<(std::path::PathBuf, Vec<DepthRow>)> {
    let mut report = crate::jsonout::JsonReport::new("ports");
    report.push("fusion_batch", DEPTH_FUSION_BATCH as f64);
    let mut rows = Vec::new();
    for depth in [0usize, 1, 2, 4] {
        let rate = |fused: bool| {
            let _ = depth_pipeline(depth, fused, DEPTH_FUSION_BATCH); // warm-up
            let best = (0..3)
                .map(|_| depth_pipeline(depth, fused, DEPTH_FUSION_BATCH))
                .min()
                .expect("at least one run");
            DEPTH_ITEMS as f64 / best.as_secs_f64() / 1e6
        };
        let unfused = rate(false);
        let fused = rate(true);
        report.push(format!("pipeline_depth_{depth}_melems_per_s"), unfused);
        report.push(format!("pipeline_depth_{depth}_fused_melems_per_s"), fused);
        rows.push((depth, unfused, fused));
    }
    let path = report.write()?;
    Ok((path, rows))
}

/// CI gate for the fusion pass: at every depth ≥ 2 (the depths where a
/// fusable chain exists) the fused series must not lose to the unfused
/// one measured in the same run.
pub fn assert_fusion_wins(rows: &[(usize, f64, f64)]) -> Result<(), String> {
    for &(depth, unfused, fused) in rows {
        if depth >= 2 && fused < unfused {
            return Err(format!(
                "fusion regressed at depth {depth}: fused {fused:.3} < unfused {unfused:.3} Melem/s"
            ));
        }
    }
    Ok(())
}

/// Items pushed through the supervision/journal overhead pipeline.
pub const SUPERVISION_ITEMS: u64 = 2_000_000;

/// The supervision-ablation pipeline: `lambda_source → lambda_sink`, one
/// stream. `supervised` arms Restart policies (policy bookkeeping in the
/// step loop), `watchdog` arms the deadline/stall scans, and `journaled`
/// puts an exactly-once replay journal on the link — the fault-free cost
/// of the recovery contract (per-pop clone + record, per-run commit).
/// Returns the elements observed by the sink.
pub fn supervision_pipeline(supervised: bool, watchdog: bool, journaled: bool) -> u64 {
    let mut map = RaftMap::new();
    let mut i = 0u64;
    let src = map.add(lambda_source(move || {
        i += 1;
        (i <= SUPERVISION_ITEMS).then_some(i)
    }));
    let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink_counter = counter.clone();
    let dst = map.add(lambda_sink(move |_v: u64| {
        sink_counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }));
    if journaled {
        let cfg = FifoConfig::default().journaled();
        map.link_with(src, "0", dst, "0", cfg).unwrap();
    } else {
        map.link(src, "0", dst, "0").unwrap();
    }
    if supervised {
        map.supervise(src, SupervisorPolicy::restart(3));
        map.supervise(dst, SupervisorPolicy::restart(3));
    }
    if watchdog {
        map.config_mut().monitor = MonitorConfig::default()
            .with_run_budget(std::time::Duration::from_secs(10))
            .with_stall_timeout(std::time::Duration::from_secs(10));
    }
    map.exe().unwrap();
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

/// One timed supervision-pipeline execution, as Melems/s.
pub fn supervision_rate(supervised: bool, watchdog: bool, journaled: bool) -> f64 {
    let t0 = std::time::Instant::now();
    assert_eq!(
        supervision_pipeline(supervised, watchdog, journaled),
        SUPERVISION_ITEMS
    );
    SUPERVISION_ITEMS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Best-of-N rates of the four supervision variants, in Melems/s:
/// `(baseline, supervised, watchdog, journaled)`.
pub type SupervisionRates = (f64, f64, f64, f64);

/// The series behind `BENCH_supervision.json`: interleaved best-of-N rates
/// (peak rate is far more stable than a mean across whole-map executions,
/// which carry thread-spawn and scheduler noise) plus derived overhead
/// percentages. `include_proc` adds the cross-process series — supervised
/// worker process vs bare fork — and is only valid from a binary that
/// understands `RAFT_BENCH_PROC_WORKER` (the supervision bench). Returns
/// `(path, rates, proc_rates)`.
pub fn supervision_json_series(
    include_proc: bool,
) -> std::io::Result<(std::path::PathBuf, SupervisionRates, ProcRates)> {
    // (supervised, watchdog, journaled) per variant.
    const VARIANTS: [(bool, bool, bool); 4] = [
        (false, false, false),
        (true, false, false),
        (true, true, false),
        (true, false, true),
    ];
    // warm-up round for allocator/monitor caches
    for &(s, w, j) in &VARIANTS {
        let _ = supervision_rate(s, w, j);
    }
    let mut best = [0.0f64; 4];
    for _ in 0..8 {
        for (idx, &(s, w, j)) in VARIANTS.iter().enumerate() {
            best[idx] = best[idx].max(supervision_rate(s, w, j));
        }
    }
    let [baseline, supervised, watchdog, journaled] = best;

    let mut report = crate::jsonout::JsonReport::new("supervision");
    report.push("pipeline_baseline_melems_per_s", baseline);
    report.push("pipeline_supervised_melems_per_s", supervised);
    report.push("pipeline_watchdog_melems_per_s", watchdog);
    report.push("pipeline_journaled_melems_per_s", journaled);
    report.push(
        "supervised_overhead_percent",
        (baseline - supervised) / baseline * 100.0,
    );
    report.push(
        "watchdog_overhead_percent",
        (baseline - watchdog) / baseline * 100.0,
    );
    report.push(
        "journaled_overhead_percent",
        (supervised - journaled) / supervised * 100.0,
    );
    let proc_rates = if include_proc { proc_series() } else { None };
    if let Some((bare, proc_supervised)) = proc_rates {
        report.push("proc_bare_fork_melems_per_s", bare);
        report.push("proc_supervised_melems_per_s", proc_supervised);
        report.push(
            "proc_supervisor_overhead_percent",
            (bare - proc_supervised) / bare * 100.0,
        );
    }
    let path = report.write()?;
    Ok((
        path,
        (baseline, supervised, watchdog, journaled),
        proc_rates,
    ))
}

/// Items streamed to the worker process in the proc-supervision series.
pub const PROC_ITEMS: u64 = 1_000_000;

/// Worker half of the proc series (this bench binary, re-executed with
/// `RAFT_BENCH_PROC_WORKER=<ring_fd>`): drain u64s from the inherited shm
/// ring until the producer closes. The supervised variant also sets
/// `RAFT_BENCH_PROC_BEAT=1`, which makes the worker honour the heartbeat
/// contract. Beat granularity is the worker's choice — the watcher only
/// needs progress at least once per wedge interval — so the hot path
/// batches one beat per `PROC_BEAT_EVERY` pops (a beat is a fetch_add,
/// a `SeqCst` fence, and an RMW on the shared header line; per-element it
/// would dominate an 8-byte payload) and beats on every empty poll, where
/// a stall is what the watcher actually needs to distinguish from a wedge.
pub fn proc_drain_worker(ring_fd: i32, beat: bool) {
    use raft_buffer::shm::ShmRing;
    use raft_buffer::TryPopError;
    const PROC_BEAT_EVERY: u32 = 1024;
    let mut ring = ShmRing::<u64>::attach_consumer(ring_fd).expect("attach ring");
    let seg = ring.segment_shared();
    let mut sink = 0u64;
    let mut since_beat = 0u32;
    loop {
        match ring.try_pop() {
            Ok(v) => {
                sink = sink.wrapping_add(v);
                since_beat += 1;
                if beat && since_beat >= PROC_BEAT_EVERY {
                    seg.heartbeat().beat();
                    since_beat = 0;
                }
            }
            Err(TryPopError::Empty) => {
                if beat {
                    seg.heartbeat().beat();
                    since_beat = 0;
                }
                std::thread::yield_now();
            }
            Err(TryPopError::Closed) => break,
        }
    }
    if beat {
        seg.heartbeat().beat(); // final beat: wakes a parked watcher promptly
    }
    std::hint::black_box(sink);
}

/// One timed parent→worker-process stream, as Melems/s: push
/// [`PROC_ITEMS`] u64s through an shm ring to a re-exec'd worker.
/// `supervised` runs the worker under [`ProcSupervisor`] (watcher thread,
/// heartbeat protocol, role bookkeeping); bare mode is a plain
/// `Command::spawn`. The clock covers spawn + streaming until the worker
/// drains the last element; the reap is left outside it because its
/// latencies are fixed constants of a different shape (bare `wait()`
/// returns on exit, the watcher notices within one park slice) that would
/// drown the per-element cost this series exists to bound.
pub fn proc_rate(supervised: bool) -> f64 {
    use raft_buffer::shm::ShmRing;
    use raftlib::{ProcPolicy, ProcSupervisor, SegmentLink, WorkerSpec};
    use std::process::Command;
    use std::sync::atomic::Ordering::Acquire;

    let (mut producer, fd) = ShmRing::<u64>::create_producer(1024).expect("create ring");
    let seg_probe = producer.segment_shared();
    let drained = |seg: &raft_buffer::ShmSegment| {
        while seg.tail().load(Acquire) != seg.head().load(Acquire) {
            std::thread::yield_now();
        }
    };
    let exe = std::env::current_exe().expect("current exe");
    if supervised {
        let seg = producer.segment_shared();
        let factory = move |_attempt: u32| {
            let mut cmd = Command::new(&exe);
            cmd.env("RAFT_BENCH_PROC_WORKER", fd.to_string())
                .env("RAFT_BENCH_PROC_BEAT", "1");
            cmd
        };
        let t0 = std::time::Instant::now();
        let mut sup = ProcSupervisor::new();
        sup.spawn(
            WorkerSpec::new("bench-worker", factory)
                .policy(ProcPolicy::restart(3))
                .wedge_timeout(std::time::Duration::from_secs(10))
                .link(SegmentLink::new(seg.clone(), false))
                .heartbeat_on(seg),
        )
        .expect("spawn supervised worker");
        for i in 0..PROC_ITEMS {
            let _ = producer.push(i);
        }
        drained(&seg_probe);
        let rate = PROC_ITEMS as f64 / t0.elapsed().as_secs_f64() / 1e6;
        drop(producer); // close flag + futex notify: worker exits
        let reports = sup.join(std::time::Duration::from_secs(60));
        assert_eq!(
            reports[0].outcome,
            raftlib::KernelOutcome::Completed,
            "supervised bench worker did not complete"
        );
        rate
    } else {
        let t0 = std::time::Instant::now();
        let mut child = Command::new(&exe)
            .env("RAFT_BENCH_PROC_WORKER", fd.to_string())
            .spawn()
            .expect("spawn bare worker");
        for i in 0..PROC_ITEMS {
            let _ = producer.push(i);
        }
        drained(&seg_probe);
        let rate = PROC_ITEMS as f64 / t0.elapsed().as_secs_f64() / 1e6;
        drop(producer);
        assert!(child.wait().expect("wait worker").success());
        rate
    }
}

/// Best-of-N rates `(bare fork, supervised)` of the proc series, in
/// Melems/s. `None` on platforms without `memfd_create`. Only valid when
/// the current binary understands `RAFT_BENCH_PROC_WORKER` (the
/// supervision bench does).
pub type ProcRates = Option<(f64, f64)>;

fn proc_series() -> ProcRates {
    use raft_buffer::shm::ShmSegment;
    if !ShmSegment::memfd_supported() {
        return None;
    }
    // warm-up round for page faults and the exec cache
    let _ = proc_rate(false);
    let _ = proc_rate(true);
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..5 {
        best.0 = best.0.max(proc_rate(false));
        best.1 = best.1.max(proc_rate(true));
    }
    Some(best)
}

/// CI gate for the process supervisor's fault-free cost: a supervised
/// worker process must stream within 5% of a bare `fork`/`wait` of the
/// same worker, measured interleaved in the same run.
pub fn assert_proc_overhead(rates: &ProcRates) -> Result<(), String> {
    let Some((bare, supervised)) = *rates else {
        return Ok(()); // no memfd: nothing measured, nothing gated
    };
    let overhead = (bare - supervised) / bare * 100.0;
    if overhead >= 5.0 {
        return Err(format!(
            "proc supervisor fault-free overhead {overhead:.2}% >= 5% budget \
             (bare fork {bare:.3} vs supervised {supervised:.3} Melem/s)"
        ));
    }
    Ok(())
}

/// CI gate for the recovery contract's fault-free cost: journaling every
/// link must stay within 5% of the same supervised pipeline without a
/// journal, measured in the same process.
pub fn assert_journal_overhead(rates: &SupervisionRates) -> Result<(), String> {
    let (_, supervised, _, journaled) = *rates;
    let overhead = (supervised - journaled) / supervised * 100.0;
    if overhead >= 5.0 {
        return Err(format!(
            "journal fault-free overhead {overhead:.2}% >= 5% budget \
             (supervised {supervised:.3} vs journaled {journaled:.3} Melem/s)"
        ));
    }
    Ok(())
}

/// Figure 4 pipeline: generate matrix pairs → multiply → count, all queues
/// fixed to `capacity` elements (resizing disabled: the experiment measures
/// the effect of the static size). Returns the wall time.
pub fn matmul_pipeline(n_matrices: u64, dim: usize, capacity: usize) -> std::time::Duration {
    let cfg = MapConfig {
        fifo: FifoConfig::fixed(capacity),
        monitor: MonitorConfig::disabled(),
        ..Default::default()
    };
    let mut map = RaftMap::with_config(cfg);
    let src = map
        .add(Generate::new((0..n_matrices).map(move |i| MatPair::generate(dim, i))).with_batch(4));
    let mul = map.add(Map::new(move |p: MatPair| p.run(64)));
    let (count, _n) = Count::<Matrix>::new();
    let sink = map.add(count);
    map.link(src, "out", mul, "in").expect("link mul");
    map.link(mul, "out", sink, "in").expect("link sink");
    let report = map.exe().expect("matmul run");
    report.elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_algos::corpus::{generate, CorpusSpec};

    #[test]
    fn raftlib_search_exact_counts_both_algorithms() {
        let spec = CorpusSpec {
            size: 256 * 1024,
            matches_per_mb: 150.0,
            ..Default::default()
        };
        let c = generate(&spec);
        let expected = c.planted.len() as u64;
        let data = Arc::new(c.data);
        for kind in ["ac", "bmh"] {
            for width in [1u32, 2] {
                let matcher = search_matcher(kind, &c.needle);
                let (n, report) = raftlib_search(&data, matcher, width, 32 * 1024);
                assert_eq!(n, expected, "kind={kind} width={width}");
                if width > 1 {
                    assert_eq!(report.replicated.len(), 1);
                }
            }
        }
    }

    #[test]
    fn matmul_pipeline_runs() {
        let dt = matmul_pipeline(8, 16, 4);
        assert!(dt.as_nanos() > 0);
    }

    #[test]
    fn depth_pipeline_runs_fused_and_unfused() {
        // the fused run's internal assertions check the chain actually
        // collapsed and the count still lands
        assert!(depth_pipeline(2, false, 512).as_nanos() > 0);
        assert!(depth_pipeline(2, true, 512).as_nanos() > 0);
        assert!(depth_pipeline(0, true, 512).as_nanos() > 0);
    }

    #[test]
    fn assert_fusion_wins_flags_regressions() {
        assert!(assert_fusion_wins(&[(2, 1.0, 5.0), (4, 1.0, 9.0)]).is_ok());
        // depth < 2 has no fusable chain; never gated
        assert!(assert_fusion_wins(&[(0, 5.0, 4.0)]).is_ok());
        assert!(assert_fusion_wins(&[(2, 5.0, 4.0)]).is_err());
    }
}
