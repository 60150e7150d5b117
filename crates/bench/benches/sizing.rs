//! Ablation: the two buffer-sizing options of §4 — branch-and-bound search
//! vs. analytic (M/M/1/K) modeling.
//!
//! Branch-and-bound evaluates a real (here: simulated) execution per probe;
//! the analytic route needs only the measured arrival/service rates. The
//! bench measures both the wall cost of choosing a size and reports (via
//! assertions) that both land in the same neighbourhood on a Figure-4-like
//! cost bowl.

use raft_bench::measure::bench;
use raft_model::queues::MM1K;
use raft_model::sizing::{analytic_mm1k, branch_and_bound};

/// Figure-4-shaped cost (seconds) for a queue of `cap` elements, derived
/// from an M/M/1/K blocking model plus a linear cache penalty: blocking
/// serializes the pipeline; size costs cache.
fn simulated_exec_time(cap: usize) -> f64 {
    let q = MM1K::new(90.0, 100.0, cap.min(1 << 20) as u32);
    let base = 10.0;
    let blocking_penalty = 40.0 * q.blocking_probability();
    let cache_penalty = 1e-5 * cap as f64;
    base + blocking_penalty + cache_penalty
}

fn main() {
    bench("buffer_sizing/branch_and_bound", None, || {
        let r = branch_and_bound(1, 1 << 16, simulated_exec_time);
        assert!(r.capacity >= 16, "picked a blocking-heavy size: {r:?}");
        r
    });
    bench("buffer_sizing/analytic_mm1k", None, || {
        let k = analytic_mm1k(90.0, 100.0, 1e-3, 1 << 16);
        assert!(k >= 16);
        k
    });
}
