//! The metric registry: every name the benchmark prints, with its unit and
//! direction, in the order it prints them. `BENCHMARK.json` at the
//! repository root repeats these tables for the driver; a unit test keeps
//! the two from drifting apart.

use crate::stats::Better;

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "throughput",
        unit: "units/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: no bound, printed by the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, on every workload (0 where a layer is not part
/// of the workload's graph).
pub const PER_LAYER: [PerLayer; 52] = [
    // demoted from the end-to-end list, see README
    lower("latency_p50_us", "us"),
    lower("latency_p99_us", "us"),
    lower("peak_rss_mb", "MiB"),
    // probes: one layer called directly
    lower("buffer.spsc.xthread_ns_per_elem", "ns"),
    lower("buffer.fifo.xthread_ns_per_elem", "ns"),
    lower("buffer.fifo.resizable_ns_per_elem", "ns"),
    lower("buffer.fifo.batch_ns_per_elem", "ns"),
    lower("buffer.fifo.wake_rtt_us", "us"),
    lower("buffer.shm.xproc_ns_per_elem", "ns"),
    lower("buffer.arena.desc_4k_ns_per_payload", "ns"),
    lower("net.link.loopback_4k_ns_per_payload", "ns"),
    higher("algos.horspool_mb_s", "MB/s"),
    lower("core.map.check_us", "us"),
    lower("core.map.exe_empty_ms", "ms"),
    higher("ref.inline_throughput", "units/s"),
    higher("ref.runtime_efficiency", "ratio"),
    // traced pass: kernels, from ExeReport
    lower("kernels.source.runs", "count"),
    higher("kernels.source.elems_per_run", "elem"),
    lower("kernels.source.busy_share", "ratio"),
    lower("kernels.stage.runs", "count"),
    higher("kernels.stage.elems_per_run", "elem"),
    lower("kernels.stage.busy_share", "ratio"),
    lower("kernels.sink.runs", "count"),
    higher("kernels.sink.elems_per_run", "elem"),
    lower("kernels.sink.busy_share", "ratio"),
    // traced pass: spans inside the benchmark's own kernels
    lower("core.port.pop_ns_per_elem", "ns"),
    lower("core.port.push_ns_per_elem", "ns"),
    lower("kernels.stage.compute_ns_per_elem", "ns"),
    lower("core.scheduler.step_gap_ns", "ns"),
    higher("trace.exe_lane_coverage", "ratio"),
    // traced pass: streams
    lower("buffer.fifo.writer_blocked_share", "ratio"),
    lower("buffer.fifo.reader_blocked_share", "ratio"),
    lower("buffer.fifo.mean_occupancy", "elem"),
    lower("buffer.fifo.final_capacity", "elem"),
    lower("core.monitor.resizes", "count"),
    // traced pass: fusion, scheduler, replication, processes
    higher("core.fusion.groups", "count"),
    lower("core.fusion.batches", "count"),
    higher("core.fusion.elems_per_batch", "elem"),
    lower("core.scheduler.hop_ns", "ns"),
    lower("core.stealing.parks", "count"),
    lower("core.stealing.steals", "count"),
    lower("core.stealing.wake_to_run_ns", "ns"),
    lower("core.stealing.rescues", "count"),
    higher("core.parallel.width", "count"),
    lower("core.parallel.split_skew", "ratio"),
    lower("core.proc.spawn_ms", "ms"),
    lower("core.proc.respawns", "count"),
    // validity of the open loop, and of the traced numbers themselves
    lower("gen.late_p99_us", "us"),
    lower("gen.late_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.reps", "count"),
    lower("trace.spans", "count"),
];

/// Measured values by metric name. Never iterated: output order is the
/// registry's.
pub type Values = std::collections::HashMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; this registry is what the
    /// binary prints. They must agree name for name.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
