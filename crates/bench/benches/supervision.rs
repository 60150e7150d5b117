//! Ablation: cost of the supervision layer on the fault-free hot path.
//!
//! The supervision work (restart policies, per-step `entered` telemetry,
//! the deadline/stall watchdog riding the monitor thread) must be free
//! when nothing fails — the budget is <2% against the plain pipeline —
//! and the exactly-once link journal must stay within 5% of the same
//! supervised pipeline (the `--assert-journal` CI gate). Four variants of
//! the same source→sink stream:
//!
//! * `baseline` — default config: Abort policy, watchdog disarmed;
//! * `supervised` — Restart policy on every kernel (policy bookkeeping in
//!   the step loop) with the watchdog still disarmed;
//! * `watchdog` — Restart policies *and* both watchdogs armed with
//!   generous budgets, so the monitor runs the health scan each tick;
//! * `journaled` — Restart policies plus a replay journal on the link
//!   (per-pop record, per-run commit: the recovery contract's dead weight).
//!
//! The measured pipeline lives in `raft_bench::pipelines`: the plain
//! series and the `--json` gates run exactly the same code.

use raft_bench::measure::{bench, Throughput};
use raft_bench::pipelines::{
    assert_journal_overhead, assert_proc_overhead, proc_drain_worker, supervision_json_series,
    supervision_pipeline, SUPERVISION_ITEMS,
};

fn bench_supervision() {
    let items = Some(Throughput::Elements(SUPERVISION_ITEMS));
    for (name, supervised, watchdog, journaled) in [
        ("baseline", false, false, false),
        ("supervised", true, false, false),
        ("watchdog", true, true, false),
        ("journaled", true, false, true),
    ] {
        bench(&format!("supervision_overhead/{name}"), items, || {
            assert_eq!(
                supervision_pipeline(supervised, watchdog, journaled),
                SUPERVISION_ITEMS
            );
        });
    }
}

/// `--json` mode: the interleaved best-of-N series recorded at the repo
/// root as `BENCH_supervision.json`; `--assert-journal` additionally gates
/// the journal's fault-free overhead at 5%, `--assert-proc` gates the
/// process supervisor's fault-free overhead against a bare fork at 5%.
fn json_mode(gate_journal: bool, gate_proc: bool) {
    let (path, rates, proc_rates) =
        supervision_json_series(true).expect("write BENCH_supervision.json");
    println!("wrote {}", path.display());
    if gate_journal {
        if let Err(msg) = assert_journal_overhead(&rates) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    if gate_proc {
        if let Err(msg) = assert_proc_overhead(&proc_rates) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Worker mode first: the proc series re-executes this binary with the
    // ring fd in the environment; it must never fall through to the series.
    if let Ok(fd) = std::env::var("RAFT_BENCH_PROC_WORKER") {
        let beat = std::env::var("RAFT_BENCH_PROC_BEAT").is_ok();
        proc_drain_worker(fd.parse().expect("worker ring fd"), beat);
        return;
    }
    if std::env::args().any(|a| a == "--json") {
        json_mode(
            std::env::args().any(|a| a == "--assert-journal"),
            std::env::args().any(|a| a == "--assert-proc"),
        );
        return;
    }
    bench_supervision();
}
