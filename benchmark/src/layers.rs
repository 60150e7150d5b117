//! Per-layer metrics of the traced pass, computed from what the library
//! already reports (`ExeReport`) and from the lanes the benchmark's own
//! kernels recorded. Library kernels are never wrapped — a wrapper would
//! defeat fusion and make the traced graph a different graph.

use crate::hist::LogHist;
use crate::metrics::Values;
use crate::stats::median;
use crate::sut::ExeReport;
use crate::trace::{Lane, Tracer};
use crate::workloads::RepOutcome;

/// Which of the three roles a kernel plays, from its display name.
pub fn role_of(kernel_name: &str) -> &'static str {
    const SOURCES: [&str; 3] = ["generate", "filereader", "source"];
    const SINKS: [&str; 3] = ["fold", "desc-ship", "sink"];
    let base = kernel_name.split('#').next().unwrap_or(kernel_name);
    if SOURCES.iter().any(|s| base.contains(s)) {
        "source"
    } else if SINKS.iter().any(|s| base.contains(s)) {
        "sink"
    } else {
        "stage" // maps, fused groups, relays, split/reduce adapters
    }
}

/// `("a#0", "b#1")` from an edge name `"a#0.out -> b#1.in"`.
pub fn edge_ends(edge_name: &str) -> Option<(&str, &str)> {
    let (src, dst) = edge_name.split_once(" -> ")?;
    Some((src.rsplit_once('.')?.0, dst.rsplit_once('.')?.0))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `runs`, `elems_per_run`, `busy_share` of source, stage, sink.
const ROLE_METRICS: [[&str; 3]; 3] = [
    [
        "kernels.source.runs",
        "kernels.source.elems_per_run",
        "kernels.source.busy_share",
    ],
    [
        "kernels.stage.runs",
        "kernels.stage.elems_per_run",
        "kernels.stage.busy_share",
    ],
    [
        "kernels.sink.runs",
        "kernels.sink.elems_per_run",
        "kernels.sink.busy_share",
    ],
];

#[derive(Default)]
struct RoleSums {
    runs: f64,
    elems: f64,
    busy_s: f64,
    /// Σ over kernels of the `exe()` they ran in: the time they could have
    /// been busy.
    available_s: f64,
}

fn sums<'a>(roles: &'a mut [(&'static str, RoleSums); 3], role: &str) -> &'a mut RoleSums {
    &mut roles
        .iter_mut()
        .find(|(r, _)| *r == role)
        .expect("three roles")
        .1
}

/// Everything `ExeReport` carries, summed over the traced `exe()` calls.
pub fn from_reports(reports: &[&ExeReport], out: &mut Values) {
    let mut roles = [
        ("source", RoleSums::default()),
        ("stage", RoleSums::default()),
        ("sink", RoleSums::default()),
    ];
    let mut edges = 0.0;
    let mut edge_time_s = 0.0;
    let (mut writer_blocked, mut reader_blocked) = (0.0, 0.0);
    let (mut occupancy, mut capacity, mut resizes, mut hops) = (0.0, 0.0, 0.0, 0.0);
    let (mut groups, mut batches, mut fused_in) = (0.0, 0.0, 0.0);
    let (mut parks, mut steals, mut rescues, mut woken, mut wake_ns) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut width, mut skew) = (0.0f64, 0.0f64);
    let mut elapsed_s = 0.0;

    for report in reports {
        let elapsed = report.elapsed.as_secs_f64();
        elapsed_s += elapsed;
        for k in &report.kernels {
            let s = sums(&mut roles, role_of(&k.name));
            s.runs += k.runs as f64;
            s.busy_s += k.busy.as_secs_f64();
            s.available_s += elapsed;
        }
        for e in &report.edges {
            edges += 1.0;
            edge_time_s += elapsed;
            writer_blocked += e.stats.writer_blocked_ns as f64 / 1e9;
            reader_blocked += e.stats.reader_blocked_ns as f64 / 1e9;
            occupancy += e.stats.mean_occupancy;
            capacity += e.stats.capacity as f64;
            hops += e.stats.popped as f64;
            if let Some((src, dst)) = edge_ends(&e.name) {
                // a source's elements are what it pushed; everyone else's
                // are what they popped
                if role_of(src) == "source" {
                    sums(&mut roles, "source").elems += e.stats.pushed as f64;
                }
                let dst_role = role_of(dst);
                if dst_role != "source" {
                    sums(&mut roles, dst_role).elems += e.stats.popped as f64;
                }
            }
        }
        resizes += report.total_resizes() as f64;
        groups += report.fused.len() as f64;
        for g in &report.fused {
            batches += g.batches as f64;
            fused_in += g.items_in as f64;
        }
        for w in &report.workers {
            parks += w.parks as f64;
            steals += w.steals as f64;
            rescues += w.rescues as f64;
            woken += w.woken_tasks as f64;
            wake_ns += w.wake_to_run_ns as f64;
        }
        for (name, w) in &report.replicated {
            width = width.max(f64::from(*w));
            // the replicas' input streams leave the `<name>-split#n` adapter
            let split = format!("{name}-split#");
            let fed: Vec<f64> = report
                .edges
                .iter()
                .filter(|e| edge_ends(&e.name).is_some_and(|(src, _)| src.starts_with(&split)))
                .map(|e| e.stats.popped as f64)
                .collect();
            let (lo, hi) = fed
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            if fed.len() > 1 && lo > 0.0 {
                skew = skew.max(hi / lo);
            }
        }
    }

    let n = reports.len().max(1) as f64;
    for ((_, s), names) in roles.iter().zip(ROLE_METRICS) {
        out.insert(names[0], s.runs / n);
        out.insert(names[1], ratio(s.elems, s.runs));
        out.insert(names[2], ratio(s.busy_s, s.available_s));
    }
    out.insert(
        "buffer.fifo.writer_blocked_share",
        ratio(writer_blocked, edge_time_s),
    );
    out.insert(
        "buffer.fifo.reader_blocked_share",
        ratio(reader_blocked, edge_time_s),
    );
    out.insert("buffer.fifo.mean_occupancy", ratio(occupancy, edges));
    out.insert("buffer.fifo.final_capacity", ratio(capacity, edges));
    out.insert("core.monitor.resizes", resizes / n);
    out.insert("core.fusion.groups", groups / n);
    out.insert("core.fusion.batches", batches / n);
    out.insert("core.fusion.elems_per_batch", ratio(fused_in, batches));
    out.insert("core.scheduler.hop_ns", ratio(elapsed_s * 1e9, hops));
    out.insert("core.stealing.parks", parks / n);
    out.insert("core.stealing.steals", steals / n);
    out.insert("core.stealing.rescues", rescues / n);
    out.insert("core.stealing.wake_to_run_ns", ratio(wake_ns, woken));
    out.insert("core.parallel.width", width);
    out.insert("core.parallel.split_skew", skew);
}

/// What the benchmark's own kernels recorded: port costs, compute self
/// time, and how each lane's share of the `exe()` span divides up.
pub fn from_lanes(tracer: &Tracer, lanes: &[Lane], out: &mut Values) {
    let (mut pop, mut push, mut stage_self) = (LogHist::new(), LogHist::new(), LogHist::new());
    let (mut stage_elems, mut stage_runs) = (0.0, 0.0);
    let (mut gap_ns, mut runs) = (0.0, 0.0);
    let mut coverage = Vec::new();
    for lane in lanes {
        pop.merge(&lane.pop.hist);
        push.merge(&lane.push.hist);
        if lane.role == "stage" {
            stage_self.merge(&lane.run_self.hist);
            stage_elems += lane.elems as f64;
            stage_runs += lane.run.count as f64;
        }
        if let Some(exe) = tracer.span_interval(lane.exe_span) {
            let sh = lane.shares(exe);
            gap_ns += sh.step_gap_ns as f64;
            runs += lane.run.count as f64;
            coverage.push(ratio(sh.run_ns as f64, (exe.1 - exe.0) as f64));
        }
    }
    // Medians, not means: a mean is dominated by the few operations that
    // blocked or were descheduled, which the blocked shares already count.
    out.insert("core.port.pop_ns_per_elem", pop.percentile(50.0));
    out.insert("core.port.push_ns_per_elem", push.percentile(50.0));
    // self time of a sampled run, spread over the elements a run handles
    out.insert(
        "kernels.stage.compute_ns_per_elem",
        ratio(stage_self.percentile(50.0), ratio(stage_elems, stage_runs)),
    );
    out.insert("core.scheduler.step_gap_ns", ratio(gap_ns, runs));
    out.insert("trace.exe_lane_coverage", median(&coverage));
}

/// Latency and generator lateness of the open-loop workload (0 elsewhere).
pub fn from_open_loop(reps: &[RepOutcome], out: &mut Values) {
    let per_rep = |f: &dyn Fn(&RepOutcome) -> Option<f64>| -> f64 {
        median(&reps.iter().filter_map(f).collect::<Vec<_>>())
    };
    let us = |h: &crate::hist::LogHist, p: f64| h.percentile(p) / 1e3;
    out.insert(
        "latency_p50_us",
        per_rep(&|r| r.latency.as_ref().map(|l| us(&l.latency_ns, 50.0))),
    );
    out.insert(
        "latency_p99_us",
        per_rep(&|r| r.latency.as_ref().map(|l| us(&l.latency_ns, 99.0))),
    );
    out.insert(
        "gen.late_p99_us",
        per_rep(&|r| r.generator.as_ref().map(|g| us(&g.late_ns, 99.0))),
    );
    out.insert(
        "gen.late_share",
        per_rep(&|r| {
            r.generator.as_ref().map(|g| {
                ratio(
                    g.late_ns.count_above(1_000_000) as f64,
                    g.late_ns.count() as f64,
                )
            })
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_sort_into_roles_by_name() {
        for (name, role) in [
            ("generate#0", "source"),
            ("filereader#0", "source"),
            ("bench-source#0", "source"),
            ("bench-paced-source#0", "source"),
            ("fold#5", "sink"),
            ("desc-ship#1", "sink"),
            ("bench-sink#3", "sink"),
            ("bench-paced-sink#2", "sink"),
            ("map#1", "stage"),
            ("fused[map+map]#1", "stage"),
            ("slice_map#1", "stage"),
            ("bench-relay#2", "stage"),
        ] {
            assert_eq!(role_of(name), role, "{name}");
        }
    }

    #[test]
    fn edge_names_split_into_their_kernels() {
        assert_eq!(
            edge_ends("generate#0.out -> fused[map+map]#1.in"),
            Some(("generate#0", "fused[map+map]#1"))
        );
        assert_eq!(edge_ends("no arrow"), None);
    }
}
