//! End-to-end fusion-pass tests: fused execution must be byte-identical to
//! unfused execution (same items, same order) for chains of stateless
//! transforms — across filters, stateful fusion barriers, end-of-stream,
//! small rings that resize mid-run, and randomized chains (proptest).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use raftlib::prelude::*;
use raftlib::{per_element_filter, ErasedBatchStage, ExeReport};

/// One pure per-item transform a chain stage applies.
#[derive(Clone, Debug)]
enum Op {
    Add(u64),
    Mul(u64),
    /// Keep only multiples of `k` (k ≥ 1).
    KeepMod(u64),
}

impl Op {
    fn apply(&self, v: u64) -> Option<u64> {
        match *self {
            Op::Add(k) => Some(v.wrapping_add(k)),
            Op::Mul(k) => Some(v.wrapping_mul(k)),
            Op::KeepMod(k) => v.is_multiple_of(k.max(1)).then_some(v),
        }
    }
}

/// A pipeline stage applying one [`Op`] per item. `fusable: false` models
/// an opaque/stateful kernel: same per-item semantics, but the fusion pass
/// must treat it as a chain barrier.
struct OpKernel {
    op: Op,
    fusable: bool,
}

impl Kernel for OpKernel {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<u64>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                if let Some(out) = self.op.apply(v) {
                    if ctx.output::<u64>("out").push(out).is_err() {
                        return KStatus::Stop;
                    }
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "op".to_string()
    }

    fn is_stateless(&self) -> bool {
        true
    }

    fn is_fusable(&self) -> bool {
        self.fusable
    }

    fn batch_stage(&mut self) -> Option<Box<dyn ErasedBatchStage>> {
        let op = self.op.clone();
        Some(per_element_filter("op", move |v: u64| op.apply(v)))
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(OpKernel {
            op: self.op.clone(),
            fusable: self.fusable,
        }))
    }
}

/// Build src -> stage… -> sink over `items`, run it with fusion forced on
/// or off, and return the sink's output plus the report.
fn run_chain(
    items: &[u64],
    ops: &[(Op, bool)],
    fused: bool,
    fifo_start: usize,
    batch: usize,
) -> (Vec<u64>, ExeReport) {
    let mut map = RaftMap::new();
    map.config_mut().fifo = FifoConfig::starting_at(fifo_start);
    map.config_mut().fusion = FusionConfig {
        enabled: fused,
        batch,
    };
    let mut feed = Vec::from(items).into_iter();
    let src = map.add(lambda_source(move || feed.next()));
    let mut prev = (src, "0".to_string());
    for (op, fusable) in ops {
        let k = map.add(OpKernel {
            op: op.clone(),
            fusable: *fusable,
        });
        map.link(prev.0, &prev.1, k, "in").unwrap();
        prev = (k, "out".to_string());
    }
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let sink = map.add(lambda_sink(move |v: u64| out2.lock().unwrap().push(v)));
    map.link(prev.0, &prev.1, sink, "0").unwrap();
    let report = map.exe().unwrap();
    let got = out.lock().unwrap().clone();
    (got, report)
}

#[test]
fn fused_pipeline_matches_unfused_output() {
    let items: Vec<u64> = (0..10_000).collect();
    let ops = [(Op::Add(1), true), (Op::Mul(3), true), (Op::Add(7), true)];
    let (unfused, ur) = run_chain(&items, &ops, false, 64, 512);
    let (fused, fr) = run_chain(&items, &ops, true, 64, 512);
    assert_eq!(fused, unfused);
    assert!(ur.fused.is_empty(), "fusion disabled must fuse nothing");
    assert_eq!(fr.fused.len(), 1);
    let g = &fr.fused[0];
    assert_eq!(g.members.len(), 3);
    assert_eq!(g.items_in, 10_000);
    assert_eq!(g.items_out, 10_000);
    assert!(g.batches >= 10_000 / 512);
    // The interior streams are gone: src->fused->sink only.
    assert_eq!(fr.edges.len(), 2);
    assert_eq!(ur.edges.len(), 4);
}

#[test]
fn fused_filter_chain_drops_the_same_items() {
    let items: Vec<u64> = (0..5_000).collect();
    let ops = [
        (Op::Add(2), true),
        (Op::KeepMod(3), true),
        (Op::Mul(5), true),
        (Op::KeepMod(2), true),
    ];
    let (unfused, _) = run_chain(&items, &ops, false, 32, 128);
    let (fused, fr) = run_chain(&items, &ops, true, 32, 128);
    assert_eq!(fused, unfused);
    let g = &fr.fused[0];
    assert_eq!(g.items_in, 5_000);
    assert_eq!(g.items_out as usize, fused.len());
    assert!(g.items_out < g.items_in);
}

#[test]
fn stateful_barrier_splits_but_preserves_output() {
    let items: Vec<u64> = (0..3_000).collect();
    // fusable, BARRIER, fusable, fusable: only the tail pair fuses.
    let ops = [
        (Op::Add(1), true),
        (Op::Mul(3), false),
        (Op::Add(5), true),
        (Op::Mul(7), true),
    ];
    let (unfused, _) = run_chain(&items, &ops, false, 16, 256);
    let (fused, fr) = run_chain(&items, &ops, true, 16, 256);
    assert_eq!(fused, unfused);
    assert_eq!(fr.fused.len(), 1);
    assert_eq!(fr.fused[0].members.len(), 2);
}

#[test]
fn tiny_rings_resize_under_fused_batches() {
    // Batch far larger than the starting ring: reserve/pop_range must loop
    // and the monitor may grow the rings mid-run; output must not change.
    let items: Vec<u64> = (0..4_000).collect();
    let ops = [(Op::Add(9), true), (Op::Add(1), true)];
    let (unfused, _) = run_chain(&items, &ops, false, 2, 512);
    let (fused, fr) = run_chain(&items, &ops, true, 2, 512);
    assert_eq!(fused, unfused);
    assert_eq!(fr.fused.len(), 1);
}

#[test]
fn empty_stream_propagates_eos_through_fused_group() {
    let ops = [(Op::Add(1), true), (Op::Mul(2), true)];
    let (fused, fr) = run_chain(&[], &ops, true, 8, 64);
    assert!(fused.is_empty());
    assert_eq!(fr.fused.len(), 1);
    assert_eq!(fr.fused[0].items_in, 0);
}

#[test]
fn exe_report_renders_fused_groups() {
    let items: Vec<u64> = (0..100).collect();
    let ops = [(Op::Add(1), true), (Op::Add(2), true)];
    let (_, fr) = run_chain(&items, &ops, true, 16, 32);
    let text = raftlib::render_report(&fr);
    assert!(text.contains("fused groups (1):"), "{text}");
    assert!(text.contains("op#1 -> op#2"), "{text}");
}

/// A fusable stage that panics exactly once (first sighting of `trigger`),
/// to exercise restart-as-a-unit semantics of fused groups.
struct PanicOnce {
    fired: Arc<AtomicBool>,
    trigger: u64,
}

impl Kernel for PanicOnce {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u64>("in").output::<u64>("out")
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<u64>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                if v == self.trigger && !self.fired.swap(true, Ordering::SeqCst) {
                    panic!("injected");
                }
                if ctx.output::<u64>("out").push(v).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }
    fn name(&self) -> String {
        "panic-once".to_string()
    }
    fn is_stateless(&self) -> bool {
        true
    }
    fn is_fusable(&self) -> bool {
        true
    }
    fn batch_stage(&mut self) -> Option<Box<dyn ErasedBatchStage>> {
        let fired = self.fired.clone();
        let trigger = self.trigger;
        Some(raftlib::per_element("panic-once", move |v: u64| {
            if v == trigger && !fired.swap(true, Ordering::SeqCst) {
                panic!("injected");
            }
            v
        }))
    }
    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(PanicOnce {
            fired: self.fired.clone(),
            trigger: self.trigger,
        }))
    }
}

#[test]
fn fused_group_restarts_as_a_unit() {
    let mut map = RaftMap::new();
    let mut feed = 0u64..2_000;
    let src = map.add(lambda_source(move || feed.next()));
    let a = map.add(OpKernel {
        op: Op::Add(0),
        fusable: true,
    });
    let b = map.add(PanicOnce {
        fired: Arc::new(AtomicBool::new(false)),
        trigger: 700,
    });
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let sink = map.add(lambda_sink(move |v: u64| out2.lock().unwrap().push(v)));
    map.link(src, "0", a, "in").unwrap();
    map.link(a, "out", b, "in").unwrap();
    map.link(b, "out", sink, "0").unwrap();
    // Identical restart budgets on both members: the chain fuses and the
    // whole group restarts (stage forks) when the injected panic fires.
    map.supervise(a, SupervisorPolicy::restart(2));
    map.supervise(b, SupervisorPolicy::restart(2));
    map.config_mut().fusion.batch = 64;
    let report = map.exe().unwrap();
    assert_eq!(report.fused.len(), 1, "chain must fuse despite Restart");
    let fk = report
        .kernels
        .iter()
        .find(|k| k.name.contains("fused["))
        .expect("fused kernel report");
    assert!(fk.panicked, "the injected panic must be recorded");
    // The in-flight batch is lost (same contract as an unfused restart
    // losing the in-flight item), but the pipeline recovers and drains.
    let got = out.lock().unwrap();
    assert!(
        got.len() >= 2_000 - 64 && got.len() < 2_000,
        "{}",
        got.len()
    );
    // Everything that did arrive is untransposed and duplicate-free.
    assert!(got.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn mismatched_restart_budgets_keep_kernels_unfused() {
    let mut map = RaftMap::new();
    let mut feed = 0u64..100;
    let src = map.add(lambda_source(move || feed.next()));
    let a = map.add(OpKernel {
        op: Op::Add(1),
        fusable: true,
    });
    let b = map.add(OpKernel {
        op: Op::Add(2),
        fusable: true,
    });
    let sink = map.add(lambda_sink(|_v: u64| {}));
    map.link(src, "0", a, "in").unwrap();
    map.link(a, "out", b, "in").unwrap();
    map.link(b, "out", sink, "0").unwrap();
    map.supervise(a, SupervisorPolicy::restart(1));
    map.supervise(b, SupervisorPolicy::restart(5));
    let report = map.exe().unwrap();
    assert!(report.fused.is_empty());
}

#[test]
fn per_link_fifo_override_is_respected_as_a_barrier() {
    let mut map = RaftMap::new();
    let mut feed = 0u64..100;
    let src = map.add(lambda_source(move || feed.next()));
    let a = map.add(OpKernel {
        op: Op::Add(1),
        fusable: true,
    });
    let b = map.add(OpKernel {
        op: Op::Add(2),
        fusable: true,
    });
    let sink = map.add(lambda_sink(|_v: u64| {}));
    map.link(src, "0", a, "in").unwrap();
    map.link_with(a, "out", b, "in", FifoConfig::fixed(8))
        .unwrap();
    map.link(b, "out", sink, "0").unwrap();
    let report = map.exe().unwrap();
    assert!(
        report.fused.is_empty(),
        "pinned stream must stay materialized"
    );
    assert_eq!(report.edges.len(), 3);
}

#[test]
fn declared_stateless_lambda_maps_fuse() {
    let mut map = RaftMap::new();
    let mut feed = 0u64..1_000;
    let src = map.add(lambda_source(move || feed.next()));
    let a = map.add(lambda_map(|v: u64| v + 1));
    let b = map.add(lambda_map(|v: u64| v * 2));
    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = out.clone();
    let sink = map.add(lambda_sink(move |v: u64| out2.lock().unwrap().push(v)));
    map.link(src, "0", a, "0").unwrap();
    map.link(a, "0", b, "0").unwrap();
    map.link(b, "0", sink, "0").unwrap();
    // lambda_map is fusable only once the user asserts purity.
    map.declare_stateless(a);
    map.declare_stateless(b);
    let report = map.exe().unwrap();
    assert_eq!(report.fused.len(), 1);
    assert_eq!(
        *out.lock().unwrap(),
        (0..1_000u64).map(|v| (v + 1) * 2).collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized chains: any mix of adds, muls and filters, any barrier
    /// placement, any ring start size and batch size — fused output is
    /// byte-identical to unfused.
    #[test]
    fn fused_execution_is_byte_identical(
        len in 0usize..600,
        fifo_start in 2usize..64,
        batch in 1usize..192,
        raw_ops in prop::collection::vec((0u8..3, 1u64..9, 0u8..2), 1..6),
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let ops: Vec<(Op, bool)> = raw_ops
            .iter()
            .map(|&(code, k, barrier)| {
                let op = match code {
                    0 => Op::Add(k),
                    1 => Op::Mul(k),
                    _ => Op::KeepMod(k),
                };
                (op, barrier == 0)
            })
            .collect();
        let (unfused, _) = run_chain(&items, &ops, false, fifo_start, batch);
        let (fused, _) = run_chain(&items, &ops, true, fifo_start, batch);
        prop_assert_eq!(fused, unfused);
    }
}
