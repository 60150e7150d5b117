//! Ablation: split distribution strategy (§4.1) — round-robin vs.
//! least-utilized — under *skewed* replica service times.
//!
//! With identical replicas the strategies tie; the paper's least-utilized
//! ("queue utilization used to direct data flow to less utilized servers")
//! pays off when one replica is slower: round-robin keeps feeding the slow
//! replica at the same rate and its queue backs up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use raft_bench::measure::{bench, Throughput};
use raft_kernels::{Count, Generate};
use raftlib::prelude::*;

const ITEMS: u64 = 600;

/// Replicable kernel whose Nth replica is `skew`× slower than the others
/// (replica index assigned from a shared counter at clone time).
struct SkewedWorker {
    replica: usize,
    next_replica: Arc<AtomicUsize>,
    skew: u64,
}

impl SkewedWorker {
    fn new(skew: u64) -> Self {
        SkewedWorker {
            replica: 0,
            next_replica: Arc::new(AtomicUsize::new(1)),
            skew,
        }
    }
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
                // replica 0 is the slow one; skew must exceed the per-item
                // framework overhead for the strategies to differentiate
                let spins = if self.replica == 0 {
                    60 * self.skew
                } else {
                    60
                };
                // black_box inside the fold: without it LLVM collapses the
                // sum to a closed form and the "slow" replica is not slow.
                let r = (0..spins).fold(v, |a, b| a.wrapping_add(std::hint::black_box(b)));
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
            skew: self.skew,
        }))
    }
}

fn run(strategy: SplitStrategy, skew: u64) -> std::time::Duration {
    let mut cfg = MapConfig::default();
    cfg.parallel.strategy = strategy;
    cfg.fifo = FifoConfig::fixed(64);
    cfg.monitor = MonitorConfig::disabled();
    let mut map = RaftMap::with_config(cfg);
    let src = map.add(Generate::new(0..ITEMS).with_batch(64));
    let work = map.add(SkewedWorker::new(skew));
    let (count, n) = Count::<u64>::new();
    let sink = map.add(count);
    map.link_unordered(src, "out", work, "in").unwrap();
    map.link_unordered(work, "out", sink, "in").unwrap();
    map.prefer_width(work, 3);
    let report = map.exe().unwrap();
    assert_eq!(n.load(Ordering::Relaxed), ITEMS);
    report.elapsed
}

fn main() {
    let items = Some(Throughput::Elements(ITEMS));
    for skew in [1u64, 1_000, 5_000] {
        bench(&format!("split_strategy/round_robin/{skew}"), items, || {
            run(SplitStrategy::RoundRobin, skew)
        });
        bench(
            &format!("split_strategy/least_utilized/{skew}"),
            items,
            || run(SplitStrategy::LeastUtilized, skew),
        );
    }
}
