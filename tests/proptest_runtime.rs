//  Config structs are assembled field-by-field in tests/benches for clarity.
#![allow(clippy::field_reassign_with_default)]
//! Property tests over the full runtime: for arbitrary pipeline shapes,
//! FIFO configurations, schedulers, and replication widths, data is
//! conserved and ordering guarantees hold.

use std::sync::atomic::Ordering;

use proptest::prelude::*;
use raft_kernels::{write_each, Count, Generate, Map, SliceMap};
use raftlib::prelude::*;

/// `0` = thread per kernel; `w > 0` = work stealing over `w` workers.
fn scheduler_strategy() -> impl Strategy<Value = usize> {
    0usize..=3
}

fn scheduler(workers: usize) -> SchedulerKind {
    match workers {
        0 => SchedulerKind::ThreadPerKernel,
        workers => SchedulerKind::Stealing {
            workers,
            pin: false,
        },
    }
}

/// A stateful relay: one pop and one push per run, adding one. Its state
/// (what it passed on) keeps the fusion pass away, so every hop is its own
/// kernel on its own link — under the pool, its own task.
struct Relay {
    passed: u64,
}

impl Kernel for Relay {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        let Ok(v) = ctx.input::<u64>("in").pop() else {
            return KStatus::Stop;
        };
        self.passed += 1;
        match ctx.output::<u64>("out").push(v.wrapping_add(1)) {
            Ok(()) => KStatus::Proceed,
            Err(_) => KStatus::Stop,
        }
    }
}

proptest! {
    // each case runs a real multi-threaded pipeline
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A linear pipeline of random depth with random queue capacities
    /// delivers every item exactly once, in order, under every scheduler.
    #[test]
    fn linear_pipeline_conserves_order(
        n in 1u64..5_000,
        depth in 0usize..4,
        cap in 1usize..64,
        sched in scheduler_strategy(),
    ) {
        let mut cfg = MapConfig::default();
        cfg.scheduler = scheduler(sched);
        cfg.fifo = FifoConfig {
            initial_capacity: cap,
            max_capacity: 1 << 14,
            min_capacity: 1,
            ..FifoConfig::default()
        };
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..n));
        let mut prev = src;
        for _ in 0..depth {
            let k = map.add(Map::new(|x: u64| x.wrapping_add(1)));
            map.connect(prev, k).unwrap();
            prev = k;
        }
        let (we, out) = write_each::<u64>();
        let sink = map.add(we);
        map.connect(prev, sink).unwrap();
        map.exe().unwrap();
        let got = out.lock().unwrap();
        let expect: Vec<u64> = (0..n).map(|x| x + depth as u64).collect();
        prop_assert_eq!(&*got, &expect);
    }

    /// The stateful twin of `linear_pipeline_conserves_order`: a chain of
    /// relays that nothing fuses, on fixed rings of any small size, so every
    /// hop is a task of its own and a full or empty ring is the common case
    /// — every item still arrives exactly once, in order, under every
    /// scheduler. The source writes one element per run, like the relays:
    /// a kernel the pool's readiness rule covers on every port.
    #[test]
    fn stateful_relay_chain_on_fixed_rings_conserves_order(
        n in 1u64..5_000,
        depth in 1usize..4,
        cap in 1usize..64,
        sched in scheduler_strategy(),
    ) {
        let mut cfg = MapConfig::default();
        cfg.scheduler = scheduler(sched);
        cfg.fifo = FifoConfig::fixed(cap);
        let mut map = RaftMap::with_config(cfg);
        let mut prev = map.add(Generate::new(0..n).with_batch(1));
        for _ in 0..depth {
            let k = map.add(Relay { passed: 0 });
            map.connect(prev, k).unwrap();
            prev = k;
        }
        let (we, out) = write_each::<u64>();
        let sink = map.add(we);
        map.connect(prev, sink).unwrap();
        let report = map.exe().unwrap();
        prop_assert!(report.fused.is_empty());
        let got = out.lock().unwrap();
        let expect: Vec<u64> = (0..n).map(|x| x + depth as u64).collect();
        prop_assert_eq!(&*got, &expect);
    }

    /// A pipeline built entirely from the zero-copy batch paths — a
    /// reserving source into chained SliceMap stages — delivers every item
    /// exactly once and in order for arbitrary batch sizes, queue
    /// capacities, and schedulers. Exercises reserve/WriteSlice on the push
    /// side and pop_slice/SliceView on the pop side across kernel
    /// boundaries.
    #[test]
    fn batch_view_pipeline_conserves_order(
        n in 1u64..5_000,
        depth in 1usize..4,
        cap in 1usize..64,
        src_batch in 1usize..128,
        map_batch in 1usize..128,
        sched in scheduler_strategy(),
    ) {
        let mut cfg = MapConfig::default();
        cfg.scheduler = scheduler(sched);
        cfg.fifo = FifoConfig {
            initial_capacity: cap,
            max_capacity: 1 << 14,
            min_capacity: 1,
            ..FifoConfig::default()
        };
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..n).with_batch(src_batch));
        let mut prev = src;
        for _ in 0..depth {
            let k = map.add(SliceMap::new(|x: &u64| x.wrapping_add(1)).with_batch(map_batch));
            map.connect(prev, k).unwrap();
            prev = k;
        }
        let (we, out) = write_each::<u64>();
        let sink = map.add(we);
        map.connect(prev, sink).unwrap();
        map.exe().unwrap();
        let got = out.lock().unwrap();
        let expect: Vec<u64> = (0..n).map(|x| x + depth as u64).collect();
        prop_assert_eq!(&*got, &expect);
    }

    /// Replication preserves the multiset for any width and queue size.
    #[test]
    fn replication_conserves_multiset(
        n in 1u64..5_000,
        width in 2u32..5,
        cap in 1usize..32,
    ) {
        let mut cfg = MapConfig::default();
        cfg.fifo = FifoConfig {
            initial_capacity: cap,
            max_capacity: 1 << 14,
            min_capacity: 1,
            ..FifoConfig::default()
        };
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..n));
        let work = map.add(Map::new(|x: u64| x * 7 + 1));
        let (we, out) = write_each::<u64>();
        let sink = map.add(we);
        map.link_unordered(src, "out", work, "in").unwrap();
        map.link_unordered(work, "out", sink, "in").unwrap();
        map.prefer_width(work, width);
        let report = map.exe().unwrap();
        prop_assert_eq!(report.replicated.len(), 1);
        let mut got = out.lock().unwrap().clone();
        got.sort_unstable();
        let expect: Vec<u64> = (0..n).map(|x| x * 7 + 1).collect();
        prop_assert_eq!(got, expect);
    }

    /// Fan-in: two sources into a 2-input merge kernel; totals conserved.
    #[test]
    fn fan_in_conserves_sum(na in 1u64..2_000, nb in 1u64..2_000) {
        struct Merge;
        impl Kernel for Merge {
            fn ports(&self) -> PortSpec {
                PortSpec::new()
                    .input::<u64>("a")
                    .input::<u64>("b")
                    .output::<u64>("out")
            }
            fn run(&mut self, ctx: &Context) -> KStatus {
                // Drain whichever inputs have data; stop when both closed.
                let mut forwarded = false;
                for name in ["a", "b"] {
                    let mut port = ctx.input::<u64>(name);
                    if let Ok(Some(v)) = port.try_pop() {
                        drop(port);
                        let mut out = ctx.output::<u64>("out");
                        if out.push(v).is_err() {
                            return KStatus::Stop;
                        }
                        forwarded = true;
                    }
                }
                if !forwarded && ctx.inputs_done() {
                    return KStatus::Stop;
                }
                if !forwarded {
                    std::thread::yield_now();
                }
                KStatus::Proceed
            }
        }
        let mut map = RaftMap::new();
        let a = map.add(Generate::new(1..=na));
        let b = map.add(Generate::new(1..=nb));
        let merge = map.add(Merge);
        let (count, total) = Count::<u64>::new();
        let sink = map.add(count);
        map.link(a, "out", merge, "a").unwrap();
        map.link(b, "out", merge, "b").unwrap();
        map.link(merge, "out", sink, "in").unwrap();
        map.exe().unwrap();
        prop_assert_eq!(total.load(Ordering::Relaxed), na + nb);
    }
}
