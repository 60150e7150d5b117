//! In-memory tracing of the benchmark's own code.
//!
//! Spans are recorded only around calls the benchmark makes *into* the
//! library (and inside the benchmark's own kernels); nothing is recorded
//! from inside the library. They are kept in memory and written out after
//! the run. The tree is
//!
//! ```text
//! workload
//! ├─ setup.generate_input
//! ├─ setup.build_map
//! ├─ core.map.check
//! └─ core.map.exe                       one per traced rep
//!    └─ kernel.<role>.run               every 1024th invocation
//!       ├─ core.port.pop
//!       └─ core.port.push
//! ```
//!
//! Every invocation of a traced kernel's `run()` is timed into an exact
//! per-(lane, op) aggregate; port operations are timed for one element in
//! 64. A span's *self time* is its duration minus the part its children
//! cover ([`self_time_ns`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::LogHist;
use crate::json::{obj, Json};

/// A `run()` invocation becomes a span once per this many invocations.
pub const RUN_SPAN_EVERY: u64 = 1024;
/// A port operation is timed once per this many elements.
pub const PORT_SAMPLE_EVERY: u64 = 64;
/// Sampled `run()` spans kept per lane; aggregates stay exact beyond it.
const MAX_RUN_SPANS_PER_LANE: usize = 2048;

/// Identifier of the root span; 0 means "no parent".
pub const NO_PARENT: u32 = 0;

/// One timed interval. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Static, so that recording a span inside a kernel never allocates.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Duration of `span` not covered by any of `children` (which may overlap
/// each other or stick out of the span; both are clipped).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

/// Count, total and distribution of one operation on one lane.
#[derive(Debug, Clone, Default)]
pub struct OpAgg {
    pub count: u64,
    pub total_ns: u64,
    pub hist: LogHist,
}

impl OpAgg {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }
}

/// Which port operation a kernel is timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortOp {
    Pop,
    Push,
}

/// What one traced kernel (one *lane*: under thread-per-kernel, one thread)
/// recorded during one `exe()`.
#[derive(Debug, Clone)]
pub struct Lane {
    pub role: &'static str,
    /// Span of the `exe()` call this lane ran under.
    pub exe_span: u32,
    /// Every `run()` invocation, exact.
    pub run: OpAgg,
    /// One element in [`PORT_SAMPLE_EVERY`].
    pub pop: OpAgg,
    pub push: OpAgg,
    /// Self time of the sampled `run()` spans (run minus port children).
    pub run_self: OpAgg,
    pub elems: u64,
    pub first_run_start_ns: u64,
    pub last_run_end_ns: u64,
}

/// How one lane's share of the `exe()` interval divides up. The four parts
/// sum to the `exe()` span exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneShares {
    /// `exe()` called → this kernel's first `run()`.
    pub spawn_ns: u64,
    /// Inside `run()`, blocking on ports included.
    pub run_ns: u64,
    /// Between consecutive `run()` calls: the scheduler's step bookkeeping.
    pub step_gap_ns: u64,
    /// This kernel's last `run()` returned → `exe()` returned.
    pub teardown_ns: u64,
}

impl Lane {
    /// Decompose `exe` = `(start, end)` for this lane.
    pub fn shares(&self, exe: (u64, u64)) -> LaneShares {
        let first = self.first_run_start_ns.clamp(exe.0, exe.1);
        let last = self.last_run_end_ns.clamp(first, exe.1);
        let run_ns = self.run.total_ns.min(last - first);
        LaneShares {
            spawn_ns: first - exe.0,
            run_ns,
            step_gap_ns: (last - first) - run_ns,
            teardown_ns: exe.1 - last,
        }
    }
}

/// Collects spans and lanes for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: String,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    lanes: Mutex<Vec<Lane>>,
}

impl Tracer {
    pub fn new(workload: &str) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        })
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An id for a span that will be recorded later with [`Self::span_as`]:
    /// kernels need their `exe()` span's id when they are built, before the
    /// span starts.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Time `f` as the span `id` under `parent`.
    pub fn span_as<R>(&self, id: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Record the root span `id` as running from the epoch until now.
    pub fn close_root(&self, id: u32, name: &'static str) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .push(Span {
                id,
                parent: NO_PARENT,
                name,
                start_ns: 0,
                end_ns,
            });
    }

    /// Time `f` as a new span under `parent`; `f` receives the span's id so
    /// that it can parent further spans.
    pub fn span<R>(&self, parent: u32, name: &'static str, f: impl FnOnce(u32) -> R) -> R {
        let id = self.reserve();
        self.span_as(id, parent, name, || f(id))
    }

    /// A recorder for one traced kernel running under span `exe_span`.
    pub fn lane(self: &Arc<Self>, role: &'static str, exe_span: u32) -> LaneRecorder {
        LaneRecorder {
            tracer: self.clone(),
            lane: Lane {
                role,
                exe_span,
                run: OpAgg::default(),
                pop: OpAgg::default(),
                push: OpAgg::default(),
                run_self: OpAgg::default(),
                elems: 0,
                first_run_start_ns: u64::MAX,
                last_run_end_ns: 0,
            },
            spans: Vec::new(),
            run_spans: 0,
            current: None,
        }
    }

    pub fn lanes(&self) -> Vec<Lane> {
        self.lanes
            .lock()
            .expect("no panic while holding the lane list")
            .clone()
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .len()
    }

    /// `(start, end)` of span `id`, once it has ended.
    pub fn span_interval(&self, id: u32) -> Option<(u64, u64)> {
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .iter()
            .find(|s| s.id == id)
            .map(|s| (s.start_ns, s.end_ns))
    }

    /// Directory the trace files go to: `out/` beside this package's
    /// manifest, which is inside the checkout the binary was built in.
    pub fn out_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    /// Write `trace-<workload>.json` and return its path.
    pub fn write(&self, seed: u64) -> std::io::Result<PathBuf> {
        let spans = self
            .spans
            .lock()
            .expect("no panic while holding the span list");
        let lanes = self.lanes();
        let span_json = spans.iter().map(|s| {
            obj([
                ("id", Json::from(u64::from(s.id))),
                ("parent", Json::from(u64::from(s.parent))),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("workload", Json::from(self.workload.as_str())),
            ])
        });
        let agg = |lane: &Lane, op: &str, a: &OpAgg, every: u64| {
            obj([
                ("lane", Json::from(lane.role)),
                ("exe_span", Json::from(u64::from(lane.exe_span))),
                ("op", Json::from(op)),
                ("sampled_every", Json::from(every)),
                ("count", Json::from(a.count)),
                ("total_ns", Json::from(a.total_ns)),
                (
                    "log_buckets",
                    Json::Arr(
                        a.hist
                            .buckets()
                            .into_iter()
                            .map(|(lo, c)| Json::Arr(vec![lo.into(), c.into()]))
                            .collect(),
                    ),
                ),
            ])
        };
        let mut aggregates = Vec::new();
        let mut lane_json = Vec::new();
        for lane in &lanes {
            let run = run_span_name(lane.role);
            aggregates.push(agg(lane, run, &lane.run, 1));
            aggregates.push(agg(
                lane,
                &format!("{run}.self"),
                &lane.run_self,
                RUN_SPAN_EVERY,
            ));
            aggregates.push(agg(lane, "core.port.pop", &lane.pop, PORT_SAMPLE_EVERY));
            aggregates.push(agg(lane, "core.port.push", &lane.push, PORT_SAMPLE_EVERY));
            if let Some(exe) = spans.iter().find(|s| s.id == lane.exe_span) {
                let sh = lane.shares((exe.start_ns, exe.end_ns));
                lane_json.push(obj([
                    ("lane", Json::from(lane.role)),
                    ("exe_span", Json::from(u64::from(lane.exe_span))),
                    ("exe_ns", Json::from(exe.end_ns - exe.start_ns)),
                    ("spawn_ns", Json::from(sh.spawn_ns)),
                    ("run_ns", Json::from(sh.run_ns)),
                    ("step_gap_ns", Json::from(sh.step_gap_ns)),
                    ("teardown_ns", Json::from(sh.teardown_ns)),
                ]));
            }
        }
        let doc = obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(seed)),
            ("run_span_every", Json::from(RUN_SPAN_EVERY)),
            ("port_sample_every", Json::from(PORT_SAMPLE_EVERY)),
            ("spans", Json::Arr(span_json.collect())),
            ("aggregates", Json::Arr(aggregates)),
            ("lanes", Json::Arr(lane_json)),
        ]);
        let dir = Self::out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        std::fs::write(&path, doc.to_line() + "\n")?;
        Ok(path)
    }
}

/// Name of a lane's `run()` spans.
fn run_span_name(role: &str) -> &'static str {
    match role {
        "source" => "kernel.source.run",
        "sink" => "kernel.sink.run",
        _ => "kernel.stage.run",
    }
}

/// Port operations a sampled `run()` span can hold as children; a kernel
/// here makes at most one pop and one push per `run()`.
const MAX_PORT_CHILDREN: usize = 4;

struct CurrentRun {
    start_ns: u64,
    /// `Some` when this invocation is one of the sampled spans.
    span_id: Option<u32>,
    /// A fixed array, so that nothing allocates inside the timed `run()`.
    children: [(PortOp, u64, u64); MAX_PORT_CHILDREN],
    n_children: usize,
}

/// Owned by one traced kernel; hands its lane to the tracer when dropped
/// (the runtime drops a kernel when it stops).
pub struct LaneRecorder {
    tracer: Arc<Tracer>,
    lane: Lane,
    spans: Vec<Span>,
    run_spans: usize,
    current: Option<CurrentRun>,
}

impl LaneRecorder {
    /// Call first thing in `run()`.
    #[inline]
    pub fn run_begin(&mut self) {
        let start_ns = self.tracer.now_ns();
        let sampled = self.lane.run.count.is_multiple_of(RUN_SPAN_EVERY)
            && self.run_spans < MAX_RUN_SPANS_PER_LANE;
        self.lane.first_run_start_ns = self.lane.first_run_start_ns.min(start_ns);
        self.current = Some(CurrentRun {
            start_ns,
            span_id: sampled.then(|| self.tracer.reserve()),
            children: [(PortOp::Pop, 0, 0); MAX_PORT_CHILDREN],
            n_children: 0,
        });
    }

    /// Time one port operation if this element is a sampled one (or the
    /// whole invocation is).
    #[inline]
    pub fn port<R>(&mut self, op: PortOp, f: impl FnOnce() -> R) -> R {
        let run_span = self.current.as_ref().and_then(|c| c.span_id);
        if run_span.is_none() && !self.lane.elems.is_multiple_of(PORT_SAMPLE_EVERY) {
            return f();
        }
        let start = self.tracer.now_ns();
        let out = f();
        let end = self.tracer.now_ns();
        match op {
            PortOp::Pop => self.lane.pop.record(end - start),
            PortOp::Push => self.lane.push.record(end - start),
        }
        if let Some(cur) = self.current.as_mut() {
            if cur.span_id.is_some() && cur.n_children < MAX_PORT_CHILDREN {
                cur.children[cur.n_children] = (op, start, end);
                cur.n_children += 1;
            }
        }
        out
    }

    /// Call last thing in `run()`; `elems` is how many elements it handled.
    #[inline]
    pub fn run_end(&mut self, elems: u64) {
        let Some(cur) = self.current.take() else {
            return;
        };
        let end_ns = self.tracer.now_ns();
        self.lane.run.record(end_ns - cur.start_ns);
        self.lane.elems += elems;
        self.lane.last_run_end_ns = end_ns;
        if let Some(id) = cur.span_id {
            // everything below runs after `end_ns` was taken
            self.run_spans += 1;
            let children = &cur.children[..cur.n_children];
            let intervals: Vec<(u64, u64)> = children.iter().map(|&(_, s, e)| (s, e)).collect();
            self.lane
                .run_self
                .record(self_time_ns((cur.start_ns, end_ns), &intervals));
            self.spans.push(Span {
                id,
                parent: self.lane.exe_span,
                name: run_span_name(self.lane.role),
                start_ns: cur.start_ns,
                end_ns,
            });
            for &(op, start_ns, end_ns) in children {
                self.spans.push(Span {
                    id: self.tracer.reserve(),
                    parent: id,
                    name: match op {
                        PortOp::Pop => "core.port.pop",
                        PortOp::Push => "core.port.push",
                    },
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

impl Drop for LaneRecorder {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned list just loses this lane.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.spans);
        }
        if let Ok(mut lanes) = self.tracer.lanes.lock() {
            lanes.push(self.lane.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 180)]), 60);
        // overlapping children count once
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160)]), 50);
        // children are clipped to the span; one fully outside is ignored
        assert_eq!(
            self_time_ns((100, 200), &[(50, 120), (190, 400), (300, 500)]),
            70
        );
        // nested child adds nothing
        assert_eq!(self_time_ns((0, 10), &[(2, 8), (3, 4)]), 4);
        assert_eq!(self_time_ns((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn lane_shares_tile_the_exe_span() {
        let mut lane = Tracer::new("t").lane("stage", 7).lane.clone();
        lane.first_run_start_ns = 1_100;
        lane.last_run_end_ns = 1_900;
        lane.run.total_ns = 600;
        let sh = lane.shares((1_000, 2_000));
        assert_eq!(
            sh,
            LaneShares {
                spawn_ns: 100,
                run_ns: 600,
                step_gap_ns: 200,
                teardown_ns: 100
            }
        );
        assert_eq!(
            sh.spawn_ns + sh.run_ns + sh.step_gap_ns + sh.teardown_ns,
            1_000
        );
    }

    #[test]
    fn recorder_samples_spans_and_keeps_exact_run_counts() {
        let tracer = Tracer::new("t");
        let exe = tracer.span(NO_PARENT, "core.map.exe", |exe| {
            let mut rec = tracer.lane("stage", exe);
            for _ in 0..(RUN_SPAN_EVERY + 5) {
                rec.run_begin();
                rec.port(PortOp::Pop, || std::hint::black_box(1));
                rec.port(PortOp::Push, || std::hint::black_box(2));
                rec.run_end(1);
            }
            exe
        });
        let lanes = tracer.lanes();
        assert_eq!(lanes.len(), 1);
        let lane = &lanes[0];
        assert_eq!(lane.run.count, RUN_SPAN_EVERY + 5);
        assert_eq!(lane.elems, RUN_SPAN_EVERY + 5);
        // invocations 0 and 1024 are spans; ports sampled 1 in 64 besides
        assert_eq!(lane.run_self.count, 2);
        assert_eq!(lane.pop.count, RUN_SPAN_EVERY / PORT_SAMPLE_EVERY + 1);
        let spans = tracer.spans.lock().unwrap();
        let runs: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "kernel.stage.run")
            .collect();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.parent == exe));
        for r in &runs {
            let kids: Vec<_> = spans.iter().filter(|s| s.parent == r.id).collect();
            assert_eq!(kids.len(), 2);
            assert!(kids
                .iter()
                .all(|k| k.start_ns >= r.start_ns && k.end_ns <= r.end_ns));
        }
    }
}
