#![warn(missing_docs)]

//! # raft-bench
//!
//! Harnesses regenerating every table and figure of the RaftLib PMAM'15
//! evaluation, plus the ablation benches DESIGN.md calls out.
//!
//! Binaries (each prints the rows/series its table or figure reports):
//!
//! | target | artifact |
//! |---|---|
//! | `table1` | Table 1 — benchmarking hardware |
//! | `fig4_queue_size` | Figure 4 — matmul execution time vs. queue size |
//! | `fig10_text_search` | Figure 10 — search throughput vs. cores, 4 systems |
//! | `algo_swap` | §5 — AC→BMH hot swap removing the bottleneck |
//! | `resize_trace` | §4 — dynamic queue resizing under bursty rates |
//!
//! Benches (`cargo bench -p raft-bench --bench <name>`, each series timed
//! by [`measure::bench`]): `fifo`, `ports`, `search`, `split_strategy`,
//! `monitor_overhead`, `sizing`, `tcp_link`, `compress`, `matmul`,
//! `supervision`.
//!
//! This library holds the shared pieces: the two comparator systems the
//! paper benchmarks against (re-implemented, see DESIGN.md §4
//! substitutions), measurement utilities, and the pipelines themselves.

pub mod comparators;
pub mod jsonout;
pub mod measure;
pub mod pipelines;

/// Default corpus size for text-search harnesses (MiB); override with the
/// first CLI argument or the `RAFT_BENCH_MB` environment variable.
pub fn corpus_mb_default() -> usize {
    std::env::var("RAFT_BENCH_MB")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Core counts to sweep; the paper uses 1–16. Measured series run the
/// sweep with real threads (documenting the host's true core count);
/// modeled series always cover 1–16.
pub fn core_sweep(max: u32) -> Vec<u32> {
    let mut v = vec![1u32];
    let mut c = 2;
    while c <= max {
        v.push(c);
        c += if c < 8 { 2 } else { 4 };
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_covers_endpoints() {
        assert_eq!(core_sweep(1), vec![1]);
        assert_eq!(core_sweep(16), vec![1, 2, 4, 6, 8, 12, 16]);
        assert_eq!(core_sweep(4), vec![1, 2, 4]);
        assert_eq!(core_sweep(3), vec![1, 2, 3]);
    }
}
