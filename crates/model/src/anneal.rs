//! Simulated annealing over integer parameter vectors.
//!
//! §4 of the paper: "The flow-model approximation procedure can be combined
//! with well known optimization techniques such as simulated annealing or
//! analytic decomposition \[38,39,40\] to continually optimize long-running
//! high throughput streaming applications." This module provides that
//! search: parameters are integers (replica counts, buffer-size exponents),
//! the cost function is typically a [`crate::flow::FlowGraph`] analysis or
//! a calibration run.

use raft_rng::Rng;

/// One tunable dimension: an inclusive integer range.
#[derive(Debug, Clone, Copy)]
pub struct ParamRange {
    /// Smallest admissible value.
    pub lo: i64,
    /// Largest admissible value.
    pub hi: i64,
}

impl ParamRange {
    /// Construct; panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi);
        ParamRange { lo, hi }
    }

    fn clamp(&self, v: i64) -> i64 {
        v.clamp(self.lo, self.hi)
    }

    fn width(&self) -> i64 {
        self.hi - self.lo
    }
}

/// Annealing configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Starting temperature, in cost units.
    pub t0: f64,
    /// Multiplicative cooling factor per iteration (0 < alpha < 1).
    pub alpha: f64,
    /// Total iterations.
    pub iters: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            t0: 1.0,
            alpha: 0.995,
            iters: 2000,
            seed: 42,
        }
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult {
    /// Best parameter vector found.
    pub best: Vec<i64>,
    /// Its cost.
    pub best_cost: f64,
    /// Cost evaluations performed.
    pub evaluations: usize,
    /// Accepted moves (diagnostics: too low → t0 too small).
    pub accepted: usize,
}

/// Minimize `cost` over the box defined by `ranges`, starting from `init`
/// (clamped into range). Lower cost is better.
pub fn minimize(
    ranges: &[ParamRange],
    init: &[i64],
    cfg: AnnealConfig,
    mut cost: impl FnMut(&[i64]) -> f64,
) -> AnnealResult {
    assert_eq!(ranges.len(), init.len(), "dimension mismatch");
    assert!(!ranges.is_empty(), "need at least one parameter");
    let mut rng = Rng::new(cfg.seed);
    let mut cur: Vec<i64> = init.iter().zip(ranges).map(|(&v, r)| r.clamp(v)).collect();
    let mut cur_cost = cost(&cur);
    let mut best = cur.clone();
    let mut best_cost = cur_cost;
    let mut evaluations = 1usize;
    let mut accepted = 0usize;
    let mut temp = cfg.t0;

    for _ in 0..cfg.iters {
        // Propose: perturb one random dimension by a step scaled to both
        // the range width and the current temperature fraction.
        let d = rng.range(0..ranges.len());
        let frac = (temp / cfg.t0).max(0.02);
        let span = ((ranges[d].width() as f64 * frac).ceil() as i64).max(1);
        let step = rng.range(-span..=span);
        if step == 0 {
            temp *= cfg.alpha;
            continue;
        }
        let mut cand = cur.clone();
        cand[d] = ranges[d].clamp(cand[d] + step);
        if cand[d] == cur[d] {
            temp *= cfg.alpha;
            continue;
        }
        let c = cost(&cand);
        evaluations += 1;
        let accept = c <= cur_cost || {
            let p = ((cur_cost - c) / temp.max(1e-12)).exp();
            rng.f64() < p
        };
        if accept {
            cur = cand;
            cur_cost = c;
            accepted += 1;
            if c < best_cost {
                best_cost = c;
                best = cur.clone();
            }
        }
        temp *= cfg.alpha;
    }

    AnnealResult {
        best,
        best_cost,
        evaluations,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_quadratic_minimum() {
        let ranges = vec![ParamRange::new(-100, 100), ParamRange::new(-100, 100)];
        let r = minimize(&ranges, &[90, -90], AnnealConfig::default(), |p| {
            let x = (p[0] - 7) as f64;
            let y = (p[1] + 13) as f64;
            x * x + y * y
        });
        assert!(r.best_cost <= 4.0, "cost {} at {:?}", r.best_cost, r.best);
        assert!((r.best[0] - 7).abs() <= 2);
        assert!((r.best[1] + 13).abs() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let ranges = vec![ParamRange::new(0, 1000)];
        let run = || {
            minimize(&ranges, &[500], AnnealConfig::default(), |p| {
                ((p[0] - 321) as f64).abs()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn escapes_local_minimum() {
        // Double well: local min at x=10 (cost 5), global at x=90 (cost 0).
        let ranges = vec![ParamRange::new(0, 100)];
        let cost = |p: &[i64]| {
            let x = p[0] as f64;
            let a = (x - 10.0).abs() + 5.0;
            let b = (x - 90.0).abs();
            a.min(b)
        };
        let cfg = AnnealConfig {
            t0: 30.0,
            alpha: 0.999,
            iters: 5000,
            seed: 7,
        };
        let r = minimize(&ranges, &[10], cfg, cost);
        assert!(r.best_cost < 5.0, "stuck in local minimum: {:?}", r.best);
    }

    #[test]
    fn respects_bounds() {
        let ranges = vec![ParamRange::new(3, 9)];
        let r = minimize(&ranges, &[100], AnnealConfig::default(), |p| -(p[0] as f64));
        assert_eq!(r.best[0], 9); // pushed to the upper bound, not past
    }

    #[test]
    fn clamps_init_into_range() {
        let ranges = vec![ParamRange::new(0, 10)];
        let r = minimize(&ranges, &[-50], AnnealConfig::default(), |p| p[0] as f64);
        assert!(r.best[0] >= 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        minimize(
            &[ParamRange::new(0, 1)],
            &[0, 0],
            AnnealConfig::default(),
            |_| 0.0,
        );
    }

    /// End-to-end with the flow model: anneal replica counts to maximize
    /// throughput under a core budget — the paper's intended usage.
    #[test]
    fn anneals_replicas_against_flow_model() {
        use crate::flow::{FlowGraph, FlowKernel};
        let build = |w_search: i64, w_agg: i64| {
            let mut g = FlowGraph::new();
            let src = g.add_kernel(FlowKernel::new("reader", f64::INFINITY, 1.0));
            let search =
                g.add_kernel(FlowKernel::new("search", 100.0, 1.0).with_replicas(w_search as u32));
            let agg = g.add_kernel(FlowKernel::new("agg", 250.0, 1.0).with_replicas(w_agg as u32));
            g.add_edge(src, search);
            g.add_edge(search, agg);
            g.set_source_rate(src, 1000.0);
            g.analyze().throughput
        };
        const BUDGET: i64 = 12;
        let ranges = vec![ParamRange::new(1, 12), ParamRange::new(1, 12)];
        let r = minimize(&ranges, &[1, 1], AnnealConfig::default(), |p| {
            if p[0] + p[1] > BUDGET {
                return 1e12; // infeasible: over core budget
            }
            -build(p[0], p[1]) // maximize throughput
        });
        // Optimum: search needs ~8 replicas (800/s), agg 4 (1000/s capacity)
        // → throughput 800; anything ≥ 750 is a good solution.
        assert!(
            -r.best_cost >= 750.0,
            "throughput {} with {:?}",
            -r.best_cost,
            r.best
        );
        assert!(r.best[0] + r.best[1] <= BUDGET);
    }
}
