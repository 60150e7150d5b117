//! `fused_chain`: `Generate(batch 512) → Map(+1)×4 → Fold(xor)`, library
//! kernels only, default configuration. The four maps fuse into one
//! batch-executed kernel, so the streams are used in their *batch* mode
//! (`reserve` / `pop_slice` views) and per-element ring cost is amortised
//! away: a fusion or batch-view change shows here and nowhere else.

use std::time::Instant;

use super::{note_check_errors, phase, scaled, RefCache, RepOutcome, Size, TraceCtx, Workload};
use crate::rng::XorShift;
use crate::sut::{Fold, Generate, Map, MapConfig, RaftMap};

/// Elements per repetition (frozen).
pub const ELEMENTS: u64 = 1 << 24;
/// Source batch size (frozen).
pub const SOURCE_BATCH: usize = 512;
/// Chain depth (frozen).
pub const DEPTH: usize = 4;

pub struct FusedChain {
    /// Seeded first element; the stream is `start..start + n`.
    start: u64,
    elements: u64,
    references: RefCache<u64>,
}

impl FusedChain {
    pub fn new(seed: u64, scale: f64) -> Self {
        FusedChain {
            // top byte clear, so `start + n + DEPTH` cannot overflow
            start: XorShift::new(seed, 1).next_u64() >> 8,
            elements: scaled(ELEMENTS, scale),
            references: RefCache::default(),
        }
    }

    /// The job without the runtime: xor of `x + DEPTH` over the range.
    fn reference(start: u64, n: u64) -> u64 {
        let mut acc = 0u64;
        for x in start..start + n {
            let mut v = std::hint::black_box(x);
            for _ in 0..DEPTH {
                v = v.wrapping_add(1);
            }
            acc ^= v;
        }
        acc
    }
}

impl Workload for FusedChain {
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
        let range = self.start..self.start + n;
        let ((map, total), build) = phase(trace, "setup.build_map", || {
            let mut map = RaftMap::with_config(MapConfig::default());
            let mut prev = map.add(Generate::new(range).with_batch(SOURCE_BATCH));
            for _ in 0..DEPTH {
                let stage = map.add(Map::new(|x: u64| x.wrapping_add(1)));
                map.connect(prev, stage).expect("link stage");
                prev = stage;
            }
            let (fold, total) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc ^= v);
            let sink = map.add(fold);
            map.connect(prev, sink).expect("link sink");
            (map, total)
        });
        out.build = build;
        out.check = phase(trace, "core.map.check", || {
            note_check_errors(&map, &mut out.violations);
        })
        .1;
        let t0 = Instant::now();
        let report = match trace {
            Some(t) => t.tracer.span(t.root, "core.map.exe", |id| {
                out.exe_spans.push(id);
                map.exe()
            }),
            None => map.exe(),
        }
        .expect("fused_chain exe");
        out.wall = t0.elapsed();

        let delivered = match report.fused.as_slice() {
            [group] => {
                if group.items_in != n {
                    out.violations
                        .push(format!("fused group took {} of {n}", group.items_in));
                }
                group.items_out
            }
            groups => {
                out.violations
                    .push(format!("expected 1 fused group, got {}", groups.len()));
                report.edges.last().map_or(0, |e| e.stats.popped)
            }
        };
        let xor = *total.lock().expect("fold handle");
        out.failed = n.abs_diff(delivered);
        let start = self.start;
        let want = self.references.get_or(n, || Self::reference(start, n));
        if out.failed == 0 && xor != want {
            out.failed = 1; // right count, wrong content
        }
        out.reports.push(report);
        out
    }

    fn reference_throughput(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(Self::reference(self.start, self.elements));
        self.elements as f64 / t0.elapsed().as_secs_f64()
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fused_chain.elements", self.elements as f64),
            ("fused_chain.source_batch", SOURCE_BATCH as f64),
            ("fused_chain.depth", DEPTH as f64),
        ]
    }
}
