//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! Cross-crate integration tests: full topologies through the public API.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use raft_kernels::{read_each, write_each, Count, Fold, Generate, Map};
use raftlib::prelude::*;

/// The paper's Figure 1/3 application: two number sources, a sum kernel, a
/// sink.
struct Sum;
impl Kernel for Sum {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<i64>("input_a")
            .input::<i64>("input_b")
            .output::<i64>("sum")
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut a = ctx.input::<i64>("input_a");
        let mut b = ctx.input::<i64>("input_b");
        match (a.pop(), b.pop()) {
            (Ok(x), Ok(y)) => {
                drop((a, b));
                let mut out = ctx.output::<i64>("sum");
                if out.push(x + y).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            _ => KStatus::Stop,
        }
    }
}

#[test]
fn figure1_sum_application() {
    const COUNT: i64 = 100_000;
    let mut map = RaftMap::new();
    let a = map.add(Generate::new(0..COUNT));
    let b = map.add(Generate::new(0..COUNT));
    let sum = map.add(Sum);
    let (fold, total) = Fold::new(0i64, |acc: &mut i64, v: i64| *acc += v);
    let sink = map.add(fold);
    map.link(a, "out", sum, "input_a").unwrap();
    map.link(b, "out", sum, "input_b").unwrap();
    map.link(sum, "sum", sink, "in").unwrap();
    let report = map.exe().unwrap();
    // Σ (i + i) for i in 0..COUNT = COUNT * (COUNT-1)
    assert_eq!(*total.lock().unwrap(), COUNT * (COUNT - 1));
    assert_eq!(report.edge("sum").unwrap().stats.popped, COUNT as u64);
}

#[test]
fn unconnected_port_fails_validation() {
    let mut map = RaftMap::new();
    let _ = map.add(Generate::new(0..10u32));
    let err = map.exe().unwrap_err();
    match &err {
        ExeError::CheckFailed { diagnostics } => {
            // RC0001 = unconnected-port; RC0002 = no sink in the graph.
            assert!(
                diagnostics.iter().any(|d| d.code == "RC0001"),
                "{diagnostics:?}"
            );
        }
        other => panic!("expected CheckFailed, got {other}"),
    }
    assert!(err.to_string().contains("not connected"), "{err}");
}

#[test]
fn empty_map_fails() {
    let map = RaftMap::new();
    match map.exe().unwrap_err() {
        ExeError::CheckFailed { diagnostics } => {
            assert!(
                diagnostics.iter().any(|d| d.code == "RC0002"),
                "{diagnostics:?}"
            );
        }
        other => panic!("expected CheckFailed, got {other}"),
    }
}

#[test]
fn ordered_pipeline_preserves_sequence() {
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..10_000u64));
    let inc = map.add(Map::new(|x: u64| x + 1));
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "out", inc, "in").unwrap();
    map.link(inc, "out", dst, "in").unwrap();
    map.exe().unwrap();
    let got = out.lock().unwrap();
    assert_eq!(*got, (1..=10_000).collect::<Vec<u64>>());
}

/// Explicit replication via width hint: results arrive out of order but the
/// multiset is exactly preserved, and the report names the replicas.
#[test]
fn replicated_kernel_preserves_multiset() {
    const N: u64 = 50_000;
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..N));
    let work = map.add(Map::new(|x: u64| x * 3));
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link_unordered(src, "out", work, "in").unwrap();
    map.link_unordered(work, "out", dst, "in").unwrap();
    map.prefer_width(work, 4);
    let report = map.exe().unwrap();
    assert_eq!(report.replicated.len(), 1);
    assert_eq!(report.replicated[0].1, 4);
    let mut got = out.lock().unwrap().clone();
    got.sort_unstable();
    assert_eq!(got, (0..N).map(|x| x * 3).collect::<Vec<u64>>());
    // split + 4 replicas + reduce really exist
    assert!(report.kernels.iter().any(|k| k.name.contains("split")));
    assert!(report.kernels.iter().any(|k| k.name.contains("reduce")));
    assert!(report.kernels.iter().any(|k| k.name.contains("-r3")));
}

/// Width hints on ordered links are ignored (semantics would break).
#[test]
fn ordered_links_prevent_replication() {
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..1000u64));
    let work = map.add(Map::new(|x: u64| x));
    let (we, _out) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "out", work, "in").unwrap(); // ordered!
    map.link_unordered(work, "out", dst, "in").unwrap();
    map.prefer_width(work, 4);
    let report = map.exe().unwrap();
    assert!(report.replicated.is_empty());
}

/// Non-replicable kernels (no clone_replica) stay sequential.
#[test]
fn non_replicable_kernel_stays_sequential() {
    struct Stateful(u64);
    impl Kernel for Stateful {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            match input.pop() {
                Ok(v) => {
                    drop(input);
                    self.0 += v;
                    let mut out = ctx.output::<u64>("out");
                    if out.push(self.0).is_err() {
                        return KStatus::Stop;
                    }
                    KStatus::Proceed
                }
                Err(_) => KStatus::Stop,
            }
        }
    }
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(1..=100u64));
    let work = map.add(Stateful(0));
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link_unordered(src, "out", work, "in").unwrap();
    map.link_unordered(work, "out", dst, "in").unwrap();
    map.prefer_width(work, 4);
    let report = map.exe().unwrap();
    assert!(report.replicated.is_empty());
    // running sums: last value is 5050
    assert_eq!(*out.lock().unwrap().last().unwrap(), 5050);
}

/// A panicking kernel shuts the app down cleanly and is reported.
#[test]
fn kernel_panic_propagates_cleanly() {
    struct Bomb;
    impl Kernel for Bomb {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            match input.pop() {
                Ok(v) if v == 500 => panic!("boom at {v}"),
                Ok(v) => {
                    drop(input);
                    let mut out = ctx.output::<u64>("out");
                    let _ = out.push(v);
                    KStatus::Proceed
                }
                Err(_) => KStatus::Stop,
            }
        }
    }
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..1_000_000u64));
    let bomb = map.add(Bomb);
    let (count, _n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link(src, "out", bomb, "in").unwrap();
    map.link(bomb, "out", sink, "in").unwrap();
    let err = map.exe().unwrap_err();
    match err {
        ExeError::KernelPanicked { kernels } => {
            assert!(kernels.iter().any(|k| k.contains("Bomb")), "{kernels:?}");
        }
        other => panic!("expected KernelPanicked, got {other}"),
    }
}

/// Monitor grows a deliberately tiny queue under pressure (3δ rule end to
/// end).
#[test]
fn monitor_grows_queue_under_backpressure() {
    let mut cfg = MapConfig::default();
    cfg.fifo = FifoConfig {
        initial_capacity: 2,
        max_capacity: 1 << 12,
        min_capacity: 2,
        ..FifoConfig::default()
    };
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..20_000u64).with_batch(256));
    // Slow consumer: burn a little time per item.
    let slow = map.add(Map::new(|x: u64| {
        std::hint::black_box((0..50).fold(x, |a, b| a.wrapping_add(b)))
    }));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link(src, "out", slow, "in").unwrap();
    map.link(slow, "out", sink, "in").unwrap();
    let report = map.exe().unwrap();
    assert_eq!(n.load(Ordering::Relaxed), 20_000);
    assert!(
        report.total_resizes() > 0,
        "expected the monitor to grow the 2-slot queue: {report:?}"
    );
    // The source-side queue (consumer pops one at a time) must have grown
    // beyond its 2-slot start; whether the trigger was the 3δ writer-block
    // rule or a read request is timing-dependent.
    let src_edge = report.edge("generate").expect("source edge");
    assert!(
        src_edge.stats.capacity > 2 || src_edge.stats.resizes > 0,
        "source edge never grew: {src_edge:?}"
    );
}

/// read_each/write_each (Figure 5) through the real runtime, with a
/// transform between them.
#[test]
fn container_integration_roundtrip() {
    let input: Vec<u32> = (0..1000).rev().collect();
    let mut map = RaftMap::new();
    let src = map.add(read_each(input.clone()));
    let neg = map.add(Map::new(|x: u32| u64::from(x) + 1));
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "out", neg, "in").unwrap();
    map.link(neg, "out", dst, "in").unwrap();
    map.exe().unwrap();
    let got = out.lock().unwrap();
    assert_eq!(
        *got,
        input.iter().map(|&x| u64::from(x) + 1).collect::<Vec<_>>()
    );
}

/// Scheduler × topology matrix: both schedulers execute the same graphs to
/// the same results — a linear pipeline, a two-input kernel that must not
/// run until both inputs hold data (the pool's readiness gate), and a
/// replicated stage behind split/reduce adapters.
#[test]
fn schedulers_agree_on_topologies() {
    fn pipeline(cfg: MapConfig) {
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..10_000u64));
        let a = map.add(Map::new(|x: u64| x + 1));
        let b = map.add(Map::new(|x: u64| x * 2));
        let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
        let dst = map.add(fold);
        map.link(src, "out", a, "in").unwrap();
        map.link(a, "out", b, "in").unwrap();
        map.link(b, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(
            *total.lock().unwrap(),
            (1..=10_000u64).map(|x| x * 2).sum::<u64>()
        );
    }
    fn fan_in_sum(cfg: MapConfig) {
        let mut map = RaftMap::with_config(cfg);
        let a = map.add(Generate::new(0..5000i64));
        let b = map.add(Generate::new(0..5000i64));
        let sum = map.add(Sum);
        let (fold, total) = Fold::new(0i64, |acc: &mut i64, v: i64| *acc += v);
        let sink = map.add(fold);
        map.link(a, "out", sum, "input_a").unwrap();
        map.link(b, "out", sum, "input_b").unwrap();
        map.link(sum, "sum", sink, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*total.lock().unwrap(), 5000 * 4999);
    }
    fn replicated(cfg: MapConfig) {
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..5_000u64));
        let work = map.add(Map::new(|x: u64| x ^ 0xAB));
        let (count, n) = Count::<u64>::new();
        let dst = map.add(count);
        map.link_unordered(src, "out", work, "in").unwrap();
        map.link_unordered(work, "out", dst, "in").unwrap();
        map.prefer_width(work, 2);
        let report = map.exe().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 5_000);
        assert_eq!(report.replicated.len(), 1);
    }
    type Topology = fn(MapConfig);
    let topologies: [(&str, Topology); 3] = [
        ("pipeline", pipeline),
        ("fan_in_sum", fan_in_sum),
        ("replicated", replicated),
    ];
    let kinds = [
        SchedulerKind::ThreadPerKernel,
        SchedulerKind::Stealing {
            workers: 2,
            pin: false,
        },
    ];
    for kind in kinds {
        for (name, run) in topologies {
            eprintln!("{name} under {kind:?}");
            let mut cfg = MapConfig::default();
            cfg.scheduler = kind;
            run(cfg);
        }
    }
}

/// Asynchronous signal is visible downstream ahead of queued data.
#[test]
fn async_signals_bypass_data() {
    use raft_buffer::{fifo::Monitorable, fifo_with, FifoConfig, Signal};
    let (fifo, mut p, mut c) = fifo_with::<u64>(FifoConfig::starting_at(8));
    for i in 0..5 {
        p.try_push(i).unwrap();
    }
    fifo.post_async(Signal::Error(9));
    assert_eq!(c.take_async(), Some(Signal::Error(9)));
    assert_eq!(c.try_pop().unwrap(), 0);
}

/// Deadline execution winds sources down and still drains the pipeline.
#[test]
fn exe_with_timeout_stops_infinite_source() {
    let mut map = RaftMap::new();
    // Infinite source (polls stop_requested via Generate's run loop).
    let src = map.add(Generate::new(0u64..));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link(src, "out", sink, "in").unwrap();
    let report = map
        .exe_with_timeout(std::time::Duration::from_millis(200))
        .unwrap();
    assert!(n.load(Ordering::Relaxed) > 0, "should have processed items");
    assert!(report.elapsed < std::time::Duration::from_secs(30));
}

/// AlgoSet hot swap mid-stream switches implementations.
#[test]
fn algoset_hot_swap_mid_stream() {
    let mk = |tag: u64| -> Box<dyn Kernel> { Box::new(Map::new(move |x: u64| x * 10 + tag)) };
    let set = AlgoSet::new("tagger", vec![mk(1), mk(2)]);
    let sw = set.switch();
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..100_000u64).with_batch(16));
    // Swap from algorithm 0 to 1 while the app runs, once the stream has
    // made progress: a stage ahead of the set selects when it sees element
    // 10,000, so the swap lands mid-stream however fast the build is.
    let swapper = sw.clone();
    let progress = map.add(Map::new(move |x: u64| {
        if x == 10_000 {
            swapper.select(1);
        }
        x
    }));
    let work = map.add(set);
    let (we, out) = write_each::<u64>();
    let dst = map.add(we);
    map.link(src, "out", progress, "in").unwrap();
    map.link(progress, "out", work, "in").unwrap();
    map.link(work, "out", dst, "in").unwrap();
    map.exe().unwrap();
    assert_eq!(sw.active(), 1);
    let got = out.lock().unwrap();
    let tag1 = got.iter().filter(|v| *v % 10 == 1).count();
    let tag2 = got.iter().filter(|v| *v % 10 == 2).count();
    assert_eq!(tag1 + tag2, 100_000);
    assert!(tag2 > 0, "swap never took effect (tag2 = 0)");
}

/// Replication + least-utilized strategy end to end.
#[test]
fn least_utilized_split_strategy() {
    let mut cfg = MapConfig::default();
    cfg.parallel.strategy = SplitStrategy::LeastUtilized;
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..20_000u64));
    let work = map.add(Map::new(|x: u64| x));
    let (count, n) = Count::<u64>::new();
    let dst = map.add(count);
    map.link_unordered(src, "out", work, "in").unwrap();
    map.link_unordered(work, "out", dst, "in").unwrap();
    map.prefer_width(work, 3);
    let report = map.exe().unwrap();
    assert_eq!(n.load(Ordering::Relaxed), 20_000);
    assert_eq!(report.replicated, vec![("map#1".to_string(), 3)]);
}

/// Per-link FIFO overrides are respected.
#[test]
fn per_link_fifo_override() {
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..100u64));
    let (count, _n) = Count::<u64>::new();
    let dst = map.add(count);
    let sp = "out";
    map.link_with(src, sp, dst, "in", FifoConfig::fixed(4))
        .unwrap();
    let report = map.exe().unwrap();
    assert_eq!(report.edges[0].stats.capacity, 4);
    assert_eq!(report.edges[0].stats.resizes, 0);
}

/// Zero-copy byte chunk search: a small end-to-end text pipeline combining
/// kernels + algos, counting matches exactly.
#[test]
fn text_search_pipeline_exact_counts() {
    use raft_algos::{corpus, Matcher};
    use raft_kernels::{ByteChunk, ByteChunkSource};

    let spec = corpus::CorpusSpec {
        size: 256 * 1024,
        matches_per_mb: 200.0,
        ..Default::default()
    };
    let c = corpus::generate(&spec);
    let expected = c.planted.len() as u64;
    let needle = c.needle.clone();
    let data = Arc::new(c.data);

    let matcher = Arc::new(raft_algos::Horspool::new(&needle));
    let overlap = matcher.overlap();
    let mut map = RaftMap::new();
    let src = map.add(ByteChunkSource::new(data, 64 * 1024, overlap));
    let m2 = matcher.clone();
    let search = map.add(Map::new(move |chunk: ByteChunk| {
        let mut found = Vec::new();
        m2.find_into(chunk.as_slice(), chunk.base(), chunk.min_end, &mut found);
        found.len() as u64
    }));
    let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
    let sink = map.add(fold);
    map.link_unordered(src, "out", search, "in").unwrap();
    map.link_unordered(search, "out", sink, "in").unwrap();
    map.prefer_width(search, 2);
    map.exe().unwrap();
    assert_eq!(*total.lock().unwrap(), expected);
}

/// Dynamic bottleneck elimination: a width range starts narrow and the
/// monitor's optimizer widens the split while the input stays backed up.
#[test]
fn width_range_widens_under_load() {
    let mut cfg = MapConfig::default();
    cfg.fifo = FifoConfig::fixed(16); // fixed so backpressure is visible
    cfg.monitor.delta = std::time::Duration::from_micros(100);
    cfg.monitor.widen_after_ticks = 5;
    let mut map = RaftMap::with_config(cfg);
    // The source tops the split's input up one element at a time: a batch
    // waits for that many free slots, so a 128-batch (clamped to the ring)
    // would refill it only once it ran empty, and it would never stay
    // backed up.
    let src = map.add(Generate::new(0..10_000u64).with_batch(1));
    // Slow enough that one replica cannot keep up with the source. It
    // waits instead of spinning, so on a two-core host the source and the
    // split still get a core to keep its input full.
    let work = map.add(Map::new(|x: u64| {
        std::thread::sleep(std::time::Duration::from_micros(20));
        x
    }));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link_unordered(src, "out", work, "in").unwrap();
    map.link_unordered(work, "out", sink, "in").unwrap();
    map.prefer_width_range(work, 1, 4); // built to 4, starts at 1
    let report = map.exe().unwrap();
    assert_eq!(n.load(Ordering::Relaxed), 10_000);
    assert!(
        !report.width_events.is_empty(),
        "optimizer never widened the split: {report:?}"
    );
    let last = report.width_events.last().unwrap();
    assert!(last.new_width > 1, "width stayed at 1");
}

/// Panic in an upstream kernel reaches the downstream kernel as an
/// out-of-band `Signal::Error` — §4.2's asynchronous exception pathway.
#[test]
fn panic_posts_async_error_signal_downstream() {
    use std::sync::atomic::AtomicBool;
    static SAW_ERROR: AtomicBool = AtomicBool::new(false);

    struct Bomb;
    impl Kernel for Bomb {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            match input.pop() {
                Ok(100) => panic!("kaboom"),
                Ok(v) => {
                    drop(input);
                    let _ = ctx.output::<u64>("out").push(v);
                    KStatus::Proceed
                }
                Err(_) => KStatus::Stop,
            }
        }
    }

    struct Watcher;
    impl Kernel for Watcher {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            let check = |input: &mut raftlib::InPort<'_, u64>| {
                if let Some(Signal::Error(_)) = input.take_async() {
                    SAW_ERROR.store(true, Ordering::Relaxed);
                }
            };
            check(&mut input);
            match input.pop() {
                Ok(_) => KStatus::Proceed,
                Err(_) => {
                    // The stream may have closed *because* of a failure:
                    // check the out-of-band channel before winding down.
                    check(&mut input);
                    KStatus::Stop
                }
            }
        }
    }

    SAW_ERROR.store(false, Ordering::Relaxed);
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..1_000_000u64));
    let bomb = map.add(Bomb);
    let watch = map.add(Watcher);
    map.link(src, "out", bomb, "in").unwrap();
    map.link(bomb, "out", watch, "in").unwrap();
    let err = map.exe().unwrap_err();
    assert!(matches!(err, ExeError::KernelPanicked { .. }));
    assert!(
        SAW_ERROR.load(Ordering::Relaxed),
        "downstream never observed the async error signal"
    );
}

/// Under replica service-time skew, the least-utilized strategy routes
/// fewer items to the slow replica than round-robin does (which forces an
/// even 1/width share) — §4.1's "queue utilization used to direct data
/// flow to less utilized servers", verified from the edge statistics.
#[test]
fn least_utilized_starves_the_slow_replica() {
    use std::sync::atomic::AtomicUsize;

    struct SkewedWorker {
        replica: usize,
        next_replica: Arc<AtomicUsize>,
    }
    impl Kernel for SkewedWorker {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in").output::<u64>("out")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let mut input = ctx.input::<u64>("in");
            match input.pop() {
                Ok(v) => {
                    drop(input);
                    // replica 0 is drastically slower (well above the
                    // per-item framework overhead, so the skew is visible).
                    // It waits instead of spinning: a spinning replica holds
                    // a core, and on a two-core host that slows the "fast"
                    // replicas to its own rate, leaving no skew to route by.
                    if self.replica == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    // black_box inside the fold so release builds cannot
                    // collapse the sum to a closed form
                    let r = (0..100).fold(v, |a, b| a.wrapping_add(std::hint::black_box(b)));
                    let mut out = ctx.output::<u64>("out");
                    if out.push(r).is_err() {
                        return KStatus::Stop;
                    }
                    KStatus::Proceed
                }
                Err(_) => KStatus::Stop,
            }
        }
        fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
            Some(Box::new(SkewedWorker {
                replica: self.next_replica.fetch_add(1, Ordering::Relaxed),
                next_replica: self.next_replica.clone(),
            }))
        }
    }

    let run = |strategy: SplitStrategy| -> (u64, u64) {
        let mut cfg = MapConfig::default();
        cfg.parallel.strategy = strategy;
        cfg.fifo = FifoConfig::fixed(8);
        cfg.monitor = MonitorConfig::disabled();
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..2_000u64).with_batch(32));
        let work = map.add(SkewedWorker {
            replica: 0,
            next_replica: Arc::new(AtomicUsize::new(1)),
        });
        let (count, n) = Count::<u64>::new();
        let sink = map.add(count);
        map.link_unordered(src, "out", work, "in").unwrap();
        map.link_unordered(work, "out", sink, "in").unwrap();
        map.prefer_width(work, 3);
        let report = map.exe().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2_000);
        // items delivered to the slow replica (replica 0 = original kernel)
        let slow = report
            .edges
            .iter()
            .find(|e| e.name.contains("split") && e.name.contains("-> SkewedWorker#1.in"))
            .map(|e| e.stats.popped)
            .expect("slow replica edge");
        (slow, 2_000)
    };

    let (slow_rr, total) = run(SplitStrategy::RoundRobin);
    let (slow_lu, _) = run(SplitStrategy::LeastUtilized);
    // round-robin pins the slow replica at ~1/3 of the stream
    assert!(
        (slow_rr as f64) > 0.30 * total as f64 && (slow_rr as f64) < 0.37 * total as f64,
        "round-robin share was {slow_rr}/{total}"
    );
    // least-utilized routes the bulk of the stream around it
    assert!(
        (slow_lu as f64) < 0.5 * slow_rr as f64,
        "least-utilized should starve the slow replica: {slow_lu} vs round-robin {slow_rr}"
    );
}

/// A 32-output kernel linked in scrambled order: through the whole runtime
/// every port *name* still reaches the sink linked to that name, under both
/// schedulers.
#[test]
fn wide_kernel_port_names_reach_their_own_sinks() {
    const WIDTH: usize = 32;
    const ROUNDS: u64 = 50;
    struct Fan {
        round: u64,
    }
    impl Kernel for Fan {
        fn ports(&self) -> PortSpec {
            (0..WIDTH).fold(PortSpec::new(), |spec, i| {
                spec.output::<u64>(format!("o{i}"))
            })
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            for i in 0..WIDTH {
                let v = i as u64 * 1_000 + self.round;
                if ctx.output::<u64>(&format!("o{i}")).push(v).is_err() {
                    return KStatus::Stop;
                }
            }
            self.round += 1;
            if self.round == ROUNDS {
                KStatus::Stop
            } else {
                KStatus::Proceed
            }
        }
    }
    for scheduler in [
        SchedulerKind::ThreadPerKernel,
        SchedulerKind::Stealing {
            workers: 2,
            pin: false,
        },
    ] {
        let mut cfg = MapConfig::default();
        cfg.scheduler = scheduler;
        let mut map = RaftMap::with_config(cfg);
        let fan = map.add(Fan { round: 0 });
        let mut outs = Vec::new();
        // 13 is coprime to 32: a link order unrelated to declaration order.
        for i in (0..WIDTH).map(|k| (k * 13 + 5) % WIDTH) {
            let (we, out) = write_each::<u64>();
            let sink = map.add(we);
            map.link(fan, &format!("o{i}"), sink, "in").unwrap();
            outs.push((i, out));
        }
        map.exe().unwrap();
        for (i, out) in outs {
            let expect: Vec<u64> = (0..ROUNDS).map(|r| i as u64 * 1_000 + r).collect();
            assert_eq!(
                *out.lock().unwrap(),
                expect,
                "port o{i} under {scheduler:?}"
            );
        }
    }
}

/// Asking for a port the kernel never declared is a kernel bug: it panics
/// inside `run()`, and the runtime reports it like any other kernel panic.
#[test]
fn undeclared_port_access_fails_the_map() {
    struct Typo;
    impl Kernel for Typo {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u64>("in")
        }
        fn run(&mut self, ctx: &Context) -> KStatus {
            let _ = ctx.input::<u64>("inn").pop();
            KStatus::Stop
        }
    }
    let mut map = RaftMap::new();
    let src = map.add(Generate::new(0..10u64));
    let typo = map.add(Typo);
    map.link(src, "out", typo, "in").unwrap();
    match map.exe().unwrap_err() {
        ExeError::KernelPanicked { kernels } => {
            assert!(kernels.iter().any(|k| k.contains("Typo")), "{kernels:?}");
        }
        other => panic!("expected KernelPanicked, got {other}"),
    }
}
