//! Per-item overhead of the full runtime path: kernel `run()` dispatch +
//! typed port access + FIFO hop, measured end-to-end through small
//! pipelines of increasing depth — each depth both unfused (one FIFO hop
//! per stage) and fused (the map chain collapsed into one batch-executed
//! kernel by the fusion pass).

use raft_bench::measure::{bench, Throughput};
use raft_bench::pipelines::{
    assert_fusion_wins, depth_pipeline, ports_json_series, DEPTH_FUSION_BATCH, DEPTH_ITEMS,
};

fn bench_ports() {
    let items = Some(Throughput::Elements(DEPTH_ITEMS));
    for depth in [0usize, 1, 2, 4] {
        bench(&format!("pipeline_depth/unfused/{depth}"), items, || {
            depth_pipeline(depth, false, DEPTH_FUSION_BATCH)
        });
        bench(&format!("pipeline_depth/fused/{depth}"), items, || {
            depth_pipeline(depth, true, DEPTH_FUSION_BATCH)
        });
    }
}

/// `--json` mode: run the depth series (fused and unfused), record
/// `BENCH_ports.json` at the repo root (previous results carried forward
/// as `baseline`). With `--assert-fusion`, exit nonzero if the fused
/// series loses to the unfused one at any depth ≥ 2 — the CI gate on the
/// fusion pass.
fn json_mode(assert_fusion: bool) {
    let (path, rows) = ports_json_series().expect("write BENCH_ports.json");
    for &(depth, unfused, fused) in &rows {
        println!("depth {depth}: unfused {unfused:.3} Melem/s, fused {fused:.3} Melem/s");
    }
    println!("wrote {}", path.display());
    if assert_fusion {
        if let Err(msg) = assert_fusion_wins(&rows) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
        println!("fusion gate passed: fused >= unfused at every depth >= 2");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--json") {
        json_mode(args.iter().any(|a| a == "--assert-fusion"));
        return;
    }
    bench_ports();
}
