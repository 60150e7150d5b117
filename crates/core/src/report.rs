//! Human-readable telemetry rendering — the paper's visualization
//! direction: "Future work in visualization could determine the best way
//! to display this information to the user in order to improve their
//! ability to act upon it" (§4.1).
//!
//! [`render`] turns an [`ExeReport`] into a fixed-width text dashboard:
//! per-kernel service times, per-stream occupancy and blocked time (log2
//! histogram sparklines), the resize and width-change logs. Everything
//! is plain text so it works in terminals, logs, and CI output.

use std::fmt::Write as _;
use std::time::Duration;

use crate::runtime::ExeReport;

/// Bars used for the histogram sparklines (8 levels).
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a log2 histogram as a sparkline (one glyph per bucket, `·` for
/// empty buckets up to the last used one).
fn sparkline(hist: &[u64]) -> String {
    let last_used = match hist.iter().rposition(|&c| c > 0) {
        Some(i) => i,
        None => return String::from("(no samples)"),
    };
    let max = *hist.iter().max().unwrap() as f64;
    hist[..=last_used]
        .iter()
        .map(|&c| {
            if c == 0 {
                '·'
            } else {
                let level = ((c as f64 / max) * 7.0).round() as usize;
                SPARKS[level.min(7)]
            }
        })
        .collect()
}

/// Render the full dashboard.
pub fn render(report: &ExeReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "══ raftlib run report ({:?}) ══", report.elapsed);

    let _ = writeln!(out, "\nkernels ({}):", report.kernels.len());
    let _ = writeln!(
        out,
        "  {:<28} {:>10} {:>12} {:>12}  service (log2 ns buckets)",
        "name", "runs", "busy", "ns/run"
    );
    for k in &report.kernels {
        let ns_per_run = (k.busy.as_nanos() as u64).checked_div(k.runs).unwrap_or(0);
        // `busy` is a sampled estimate unless every run was timed.
        let approx = if k.timed_runs < k.runs { "~" } else { "" };
        let flag = match k.outcome {
            crate::supervise::KernelOutcome::Completed => String::new(),
            other => format!("  ⚠ {other}"),
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12} {:>12}  {}{}",
            truncate(&k.name, 28),
            k.runs,
            format!("{approx}{:?}", k.busy),
            format!("{approx}{ns_per_run}"),
            sparkline(&k.service_hist),
            flag
        );
    }

    let _ = writeln!(out, "\nstreams ({}):", report.edges.len());
    let _ = writeln!(
        out,
        "  {:<44} {:>5} {:>9} {:>7} {:>9} {:>8}  occupancy (log2 buckets)",
        "edge", "alloc", "items", "cap", "mean occ", "resizes"
    );
    let waits = |ns, hist: &[u64]| format!("{:?} {}", Duration::from_nanos(ns), sparkline(hist));
    for e in &report.edges {
        // A rescue is a bounded park that timed out and found its condition
        // already true: a lost wakeup. A forced ack is a replay-window entry
        // its bound dropped: replay coverage lost. Healthy links have
        // neither, so the row only grows when there is something to act on.
        let mut nets = String::new();
        for (n, what) in [
            (e.stats.rescues, "park rescues"),
            (e.stats.forced_acks, "forced acks"),
        ] {
            if n > 0 {
                let _ = write!(nets, "  ⚠ {n} {what}");
            }
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>5} {:>9} {:>7} {:>9.1} {:>8}  {}{}",
            truncate(&e.name, 44),
            e.alloc,
            e.stats.popped,
            e.stats.capacity,
            e.stats.mean_occupancy,
            e.stats.resizes,
            sparkline(&e.stats.occupancy_hist),
            nets
        );
        // Blocked time, total and episode lengths per side, on a line of
        // its own under a link that had any.
        let s = &e.stats;
        if s.writer_blocked_ns + s.reader_blocked_ns > 0 {
            let w = waits(s.writer_blocked_ns, &s.writer_blocked_hist);
            let r = waits(s.reader_blocked_ns, &s.reader_blocked_hist);
            let _ = writeln!(out, "    blocked (log2 ns buckets): writer {w}  reader {r}");
        }
    }

    if !report.replicated.is_empty() {
        let _ = writeln!(out, "\nreplicated kernels:");
        for (name, w) in &report.replicated {
            let _ = writeln!(out, "  {name} × {w}");
        }
    }
    if !report.fused.is_empty() {
        let _ = writeln!(out, "\nfused groups ({}):", report.fused.len());
        let _ = writeln!(
            out,
            "  {:<28} {:>6} {:>9} {:>10} {:>10}  members",
            "group", "batch", "batches", "items in", "items out"
        );
        for g in &report.fused {
            let _ = writeln!(
                out,
                "  {:<28} {:>6} {:>9} {:>10} {:>10}  {}",
                truncate(&g.name, 28),
                g.batch,
                g.batches,
                g.items_in,
                g.items_out,
                g.members.join(" -> ")
            );
        }
    }
    if !report.kernel_classes.is_empty() {
        let _ = writeln!(
            out,
            "\nreplication classification ({}):",
            report.kernel_classes.len()
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>10} {:>5} {:>6} {:>5}",
            "kernel", "stateless", "replicable", "safe", "width", "ooo"
        );
        for c in &report.kernel_classes {
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>10} {:>5} {:>6} {:>5}",
                truncate(&c.name, 28),
                c.stateless,
                c.replicable,
                c.replication_safe,
                c.planned_width,
                c.ooo_inputs
            );
        }
    }
    if !report.resize_events.is_empty() {
        let _ = writeln!(out, "\nresize log ({} events):", report.resize_events.len());
        for ev in report.resize_events.iter().take(12) {
            let _ = writeln!(
                out,
                "  {:>10.3?}  {:<44} {:>6} → {:<6} {:?}",
                ev.at,
                truncate(&ev.edge_name, 44),
                ev.old_capacity,
                ev.new_capacity,
                ev.reason
            );
        }
        if report.resize_events.len() > 12 {
            let _ = writeln!(out, "  … {} more", report.resize_events.len() - 12);
        }
    }
    if !report.width_events.is_empty() {
        let _ = writeln!(out, "\nwidth changes:");
        for ev in &report.width_events {
            let _ = writeln!(
                out,
                "  {:>10.3?}  {} {} → {}",
                ev.at, ev.split, ev.old_width, ev.new_width
            );
        }
    }
    // Recovery section: only rendered when the run had journaled links
    // doing something (the common fault-free, unjournaled run stays
    // visually unchanged).
    let commits: u64 = report.kernels.iter().map(|k| k.commits).sum();
    if commits > 0 || report.total_rewinds() > 0 {
        let _ = writeln!(out, "\nrecovery (journaled links):");
        let _ = writeln!(out, "  {:<28} {:>9} {:>9}", "kernel", "commits", "rewinds");
        for k in report.kernels.iter().filter(|k| k.commits + k.rewinds > 0) {
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>9}",
                truncate(&k.name, 28),
                k.commits,
                k.rewinds
            );
        }
        let _ = writeln!(
            out,
            "  totals: {} rewinds, {} elements replayed",
            report.total_rewinds(),
            report.total_replayed()
        );
    }
    // Watchdog trips and ladder rungs share the control thread's clock, so
    // one time-ordered block puts a cause (trip) next to its effect (rung).
    let mut shutdown: Vec<_> = report
        .watchdog_events
        .iter()
        .map(|ev| (ev.at, format!("watchdog trip: {:?}", ev.kind)))
        .collect();
    shutdown.extend(report.drain_events.iter().map(|ev| {
        let what = match ev.level {
            1 => "level 1 (draining: sources stopped)",
            _ => "level 2 (quiesced: FIFOs fail fast)",
        };
        (ev.at, format!("{what}  [{:?}]", ev.reason))
    }));
    if !shutdown.is_empty() {
        shutdown.sort_by_key(|(at, _)| *at);
        let _ = writeln!(out, "\nshutdown:");
        for (at, what) in shutdown {
            let _ = writeln!(out, "  {at:>10.3?}  {what}");
        }
    }
    if !report.procs.is_empty() {
        let _ = writeln!(out, "\nworker processes ({}):", report.procs.len());
        let _ = writeln!(
            out,
            "  {:<16} {:>14} {:>8} {:>7} {:>9} {:>7}",
            "worker", "outcome", "crashes", "wedges", "respawns", "status"
        );
        for p in &report.procs {
            let status = p
                .last_status
                .map_or_else(|| "signal".to_string(), |c| c.to_string());
            let _ = writeln!(
                out,
                "  {:<16} {:>14} {:>8} {:>7} {:>9} {:>7}",
                truncate(&p.name, 16),
                p.outcome.to_string(),
                p.crashes,
                p.wedges,
                p.respawns,
                status
            );
        }
    }
    if !report.workers.is_empty() {
        let _ = writeln!(out, "\nworkers ({}):", report.workers.len());
        let _ = writeln!(
            out,
            "  {:<8} {:>6} {:>10} {:>10} {:>8} {:>7} {:>7} {:>8} {:>14}",
            "worker",
            "core",
            "claims",
            "runs/claim",
            "steals",
            "parks",
            "wakes",
            "rescues",
            "wake→run ns"
        );
        for w in &report.workers {
            let mean_wake_ns = w.wake_to_run_ns.checked_div(w.woken_tasks).unwrap_or(0);
            // `runs` counts claims; `kernel_runs` the `run()` calls in them.
            let runs_per_claim = w.kernel_runs as f64 / w.runs.max(1) as f64;
            let core = w
                .pinned_core
                .map_or_else(|| "-".to_string(), |c| c.to_string());
            let _ = writeln!(
                out,
                "  {:<8} {:>6} {:>10} {:>10.1} {:>8} {:>7} {:>7} {:>8} {:>14}",
                w.worker,
                core,
                w.runs,
                runs_per_claim,
                w.steals,
                w.parks,
                w.woken_tasks,
                w.rescues,
                mean_wake_ns
            );
        }
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}…", &s[..max - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[0, 0, 0]), "(no samples)");
        let s = sparkline(&[8, 0, 4, 1]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('█'));
        assert!(s.contains('·'));
        // trailing empty buckets are dropped
        assert_eq!(sparkline(&[1, 0, 0, 0]).chars().count(), 1);
    }

    #[test]
    fn truncate_behaviour() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("exactly-10", 10), "exactly-10");
        let t = truncate("much-longer-than-ten", 10);
        assert_eq!(t.chars().count(), 10);
        assert!(t.ends_with('…'));
    }

    #[test]
    fn renders_a_real_report() {
        use crate::prelude::*;
        use crate::{DrainEvent, WatchdogEvent};
        let mut map = RaftMap::new();
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 100).then_some(i)
        }));
        let sink = map.add(lambda_sink(|_v: u64| {}));
        map.link(src, "0", sink, "0").unwrap();
        let mut report = map.exe().unwrap();
        let text = render(&report);
        assert!(text.contains("raftlib run report"));
        assert!(text.contains("lambda-source"));
        assert!(text.contains("streams (1):"));
        assert!(text.contains("100")); // item count appears
                                       // Thread-per-kernel has no pool workers → no workers section.
        assert!(!text.contains("workers ("));

        // `busy` and `ns/run` are marked approximate exactly when some run
        // went untimed.
        let approx_cols = |r: &ExeReport| {
            let text = render(r);
            let line = text.lines().find(|l| l.contains("lambda-source")).unwrap();
            line.split_whitespace()
                .filter(|c| c.starts_with('~'))
                .count()
        };
        assert!(report.kernels[0].name.contains("lambda-source"));
        report.kernels[0].timed_runs = report.kernels[0].runs;
        assert_eq!(approx_cols(&report), 0);
        report.kernels[0].timed_runs -= 1;
        assert_eq!(approx_cols(&report), 2);

        // Blocked time gets a line of its own only when there is any.
        let stats = &mut report.edges[0].stats;
        (stats.writer_blocked_ns, stats.reader_blocked_ns) = (0, 0);
        stats.writer_blocked_hist = [0; raft_buffer::HIST_BUCKETS];
        stats.reader_blocked_hist = [0; raft_buffer::HIST_BUCKETS];
        assert!(!render(&report).contains("blocked"));
        report.edges[0].stats.writer_blocked_ns = 3_000;
        report.edges[0].stats.writer_blocked_hist[12] = 1;
        let text = render(&report);
        let want =
            "\n    blocked (log2 ns buckets): writer 3µs ············█  reader 0ns (no samples)\n";
        assert!(text.contains(want), "{text}");

        // Park rescues appear on the link's row only when there are any.
        report.edges[0].stats.rescues = 0;
        assert!(!render(&report).contains("park rescues"));
        report.edges[0].stats.rescues = 3;
        assert!(render(&report).contains("⚠ 3 park rescues"));
        // Forced acks sit beside them, under the same rule.
        assert!(!render(&report).contains("forced acks"));
        report.edges[0].stats.forced_acks = 2;
        assert!(render(&report).contains("⚠ 3 park rescues  ⚠ 2 forced acks"));

        // Watchdog trips and ladder rungs render as one block, by time.
        assert!(!render(&report).contains("shutdown:"));
        report.drain_events.push(DrainEvent {
            at: std::time::Duration::from_millis(3),
            level: 1,
            reason: DrainReason::Stalled,
        });
        report.watchdog_events.push(WatchdogEvent {
            at: std::time::Duration::from_millis(2),
            kind: WatchdogKind::StalledStreams,
        });
        let text = render(&report);
        let block = text.split("shutdown:").nth(1).expect("shutdown block");
        let trip = block.find("watchdog trip: StalledStreams").unwrap();
        let rung = block.find("level 1 (draining: sources stopped)  [Stalled]");
        assert!(trip < rung.unwrap(), "{block}");
    }

    #[test]
    fn report_exposes_replication_classification() {
        use crate::prelude::*;
        let mut map = RaftMap::new();
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 10).then_some(i)
        }));
        let work = map.add(lambda_map(|v: u64| v * 2));
        let sink = map.add(lambda_sink(|_v: u64| {}));
        map.link(src, "0", work, "0").unwrap();
        map.link(work, "0", sink, "0").unwrap();
        map.declare_stateless(work);
        let report = map.exe().unwrap();
        // Every pre-expansion kernel is classified in the report...
        assert_eq!(report.kernel_classes.len(), 3);
        let w = report
            .kernel_classes
            .iter()
            .find(|c| c.name.contains("lambda-map"))
            .unwrap();
        assert!(w.stateless && w.replicable);
        // ...and the rendered dashboard shows the table.
        let text = render(&report);
        assert!(text.contains("replication classification (3):"));
        assert!(text.contains("stateless"));
    }

    #[test]
    fn renders_worker_telemetry_under_stealing() {
        use crate::prelude::*;
        let mut map = RaftMap::new();
        map.config_mut().scheduler = SchedulerKind::Stealing {
            workers: 2,
            pin: false,
        };
        let mut i = 0u64;
        let src = map.add(lambda_source(move || {
            i += 1;
            (i <= 100).then_some(i)
        }));
        let sink = map.add(lambda_sink(|_v: u64| {}));
        map.link(src, "0", sink, "0").unwrap();
        let report = map.exe().unwrap();
        let text = render(&report);
        assert!(text.contains("workers (2):"));
        assert!(text.contains("claims") && text.contains("runs/claim"));
        assert!(text.contains("wake→run ns"));
        // Every kernel run happened inside some worker's claim.
        let in_claims: u64 = report.workers.iter().map(|w| w.kernel_runs).sum();
        assert_eq!(
            in_claims,
            report.kernels.iter().map(|k| k.runs).sum::<u64>()
        );
    }
}
