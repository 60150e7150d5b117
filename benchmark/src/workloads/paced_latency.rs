//! `paced_latency`: an **open loop**. The source emits `(seq, due_ns)` on a
//! fixed schedule of 5 000 elements/s — element `i` is due at
//! `t0 + i / rate` however late the source ran — through one stateful relay
//! to a sink that records `receipt − due`. The rings are almost always
//! empty, so every element takes the empty→non-empty path (spin → yield →
//! park, waker, futex/condvar) that the throughput workloads bypass.
//! Paired with `cpu_s` it catches latency bought by spinning, and the
//! reverse.

use std::time::Instant;

use super::{note_check_errors, phase, scaled, RepOutcome, Size, TraceCtx, Workload};
use crate::kernels::{KeepElement, Paced, PacedSink, PacedSource, Relay};
use crate::sut::{MapConfig, RaftMap};

/// Emission rate, elements per second (frozen).
pub const RATE_PER_S: u64 = 5_000;
/// Elements per repetition (frozen): two seconds of traffic, so a
/// repetition's p99 has 100 samples beyond it.
pub const ELEMENTS: u64 = 10_000;

pub struct PacedLatency {
    elements: u64,
}

impl PacedLatency {
    /// The schedule is the input; it has no random part, so the seed does
    /// not change it.
    pub fn new(_seed: u64, scale: f64) -> Self {
        PacedLatency {
            elements: scaled(ELEMENTS, scale),
        }
    }
}

impl Workload for PacedLatency {
    fn unit(&self) -> &'static str {
        "elem"
    }

    fn run(&mut self, size: Size, trace: Option<&TraceCtx>) -> RepOutcome {
        let n = size.of(self.elements);
        let mut out = RepOutcome {
            attempted: n,
            ..Default::default()
        };
        let exe_id = trace.map(|t| t.tracer.reserve());
        let lane = |role| trace.zip(exe_id).map(|(t, id)| t.tracer.lane(role, id));
        let ((map, lateness, latency), build) = phase(trace, "setup.build_map", || {
            let epoch = Instant::now();
            let mut map = RaftMap::with_config(MapConfig::default());
            let (source, lateness) = PacedSource::new(epoch, RATE_PER_S, n, lane("source"));
            let source = map.add(source);
            let relay = map.add(Relay::<Paced, KeepElement>::new(lane("stage")));
            let (sink, latency) = PacedSink::new(epoch, lane("sink"));
            let sink = map.add(sink);
            map.link(source, "out", relay, "in").expect("link relay");
            map.link(relay, "out", sink, "in").expect("link sink");
            (map, lateness, latency)
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
        .expect("paced_latency exe");
        out.wall = t0.elapsed();

        if !report.fused.is_empty() {
            out.violations.push(format!(
                "{} fused groups in a stateful chain",
                report.fused.len()
            ));
        }
        let latency = latency.lock().expect("sink result").clone();
        out.units = latency.received as f64;
        out.failed = n.abs_diff(latency.received) + latency.out_of_sequence;
        out.latency = Some(latency);
        out.generator = Some(lateness.lock().expect("generator result").clone());
        out.reports.push(report);
        out
    }

    /// Without the runtime an element is received the moment it is due:
    /// the reference delivers exactly the schedule's rate.
    fn reference_throughput(&mut self) -> f64 {
        RATE_PER_S as f64
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("paced_latency.rate_per_s", RATE_PER_S as f64),
            ("paced_latency.elements", self.elements as f64),
        ]
    }
}
