//! `hop_chain_tpk` / `hop_chain_steal`: `source → relay → relay → sink`,
//! four benchmark-owned *stateful* kernels (so nothing fuses) moving one
//! `u64` per `run()` through `pop()` / `push()`. Every element pays ring +
//! port + scheduler step + block/wake on each of three hops — the
//! roadmap's unexplained 100× between the raw ring and a depth-1 map.
//!
//! The two workloads share graph, elements and seed and differ only in the
//! scheduler, so a scheduler change moves one and not the other.

use std::time::Instant;

use super::{note_check_errors, phase, scaled, RefCache, RepOutcome, Size, TraceCtx, Workload};
use crate::kernels::{hop_reference, Checksum, HopSink, HopSource, Relay, XorPrefix};
use crate::rng::XorShift;
use crate::sut::scheduler::SchedulerKind;
use crate::sut::{MapConfig, RaftMap};

/// Elements per repetition (frozen).
pub const ELEMENTS: u64 = 1 << 19;
/// Stateful hops between source and sink (frozen).
pub const RELAYS: usize = 2;

pub struct HopChain {
    gen: XorShift,
    elements: u64,
    scheduler: SchedulerKind,
    references: RefCache<Checksum>,
}

impl HopChain {
    pub fn new(seed: u64, scale: f64, scheduler: SchedulerKind) -> Self {
        HopChain {
            // same stream for both schedulers: they must see identical input
            gen: XorShift::new(seed, 2),
            elements: scaled(ELEMENTS, scale),
            scheduler,
            references: RefCache::default(),
        }
    }
}

impl Workload for HopChain {
    fn unit(&self) -> &'static str {
        "elem"
    }

    fn run(&mut self, size: Size, trace: Option<&TraceCtx>) -> RepOutcome {
        let n = size.of(self.elements);
        let mut out = RepOutcome {
            attempted: n,
            units: n as f64,
            ..Default::default()
        };
        let exe_id = trace.map(|t| t.tracer.reserve());
        let lane = |role| trace.zip(exe_id).map(|(t, id)| t.tracer.lane(role, id));
        let ((map, result), build) = phase(trace, "setup.build_map", || {
            let mut map = RaftMap::with_config(MapConfig {
                scheduler: self.scheduler,
                ..MapConfig::default()
            });
            let mut prev = map.add(HopSource::new(self.gen.clone(), n, lane("source")));
            for _ in 0..RELAYS {
                let relay = map.add(Relay::<u64, XorPrefix>::new(lane("stage")));
                map.link(prev, "out", relay, "in").expect("link relay");
                prev = relay;
            }
            let (sink, result) = HopSink::new(lane("sink"));
            let sink = map.add(sink);
            map.link(prev, "out", sink, "in").expect("link sink");
            (map, result)
        });
        out.build = build;
        out.check = phase(trace, "core.map.check", || {
            note_check_errors(&map, &mut out.violations);
        })
        .1;
        let t0 = Instant::now();
        let report = match (trace, exe_id) {
            (Some(t), Some(id)) => {
                out.exe_spans.push(id);
                t.tracer.span_as(id, t.root, "core.map.exe", || map.exe())
            }
            _ => map.exe(),
        }
        .expect("hop_chain exe");
        out.wall = t0.elapsed();

        if !report.fused.is_empty() {
            out.violations.push(format!(
                "{} fused groups in a stateful chain",
                report.fused.len()
            ));
        }
        let rescues: u64 = report.workers.iter().map(|w| w.rescues).sum();
        if rescues != 0 {
            out.violations
                .push(format!("{rescues} park-timeout rescues: a wakeup was late"));
        }
        let got = *result.lock().expect("sink result");
        let gen = self.gen.clone();
        let want = self.references.get_or(n, || hop_reference(gen, n, RELAYS));
        out.failed = n.abs_diff(got.count);
        if out.failed == 0 && got != want {
            out.failed = 1; // right count, wrong content or order
        }
        out.reports.push(report);
        out
    }

    fn reference_throughput(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(hop_reference(self.gen.clone(), self.elements, RELAYS));
        self.elements as f64 / t0.elapsed().as_secs_f64()
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("hop_chain.elements", self.elements as f64),
            ("hop_chain.relays", RELAYS as f64),
        ]
    }
}
