//! `raft-check` — static analysis of a [`RaftMap`] before execution.
//!
//! The paper's `exe()` validates the topology (connectivity, link types)
//! before running anything; Pacing Types (Kohn et al.) and Parameterized
//! Dataflow (Duggan & Yao) push further and show that static
//! well-formedness analysis of stream graphs catches deadlocks and rate
//! mismatches that a bounded-FIFO runtime can otherwise only hit at run
//! time — as a hang. This module is the stable facade over the
//! [`crate::analysis`] framework: a registry of named lint passes, each
//! with a stable code, all consuming one shared [`Analysis`] context
//! (adjacency, Tarjan SCCs, cycle solver verdicts) built once per check:
//!
//! | code     | lint                     | default severity | finding |
//! |----------|--------------------------|------------------|---------|
//! | `RC0001` | `unconnected-port`       | error            | a declared port has no stream |
//! | `RC0002` | `missing-endpoint`       | error            | graph is empty, or has no source / no sink |
//! | `RC0004` | `unreachable`            | error            | kernel not reachable from any source |
//! | `RC0007` | `capacity`               | warn             | configured capacity cannot sustain declared rates |
//! | `RC0008` | `feedback-deadlock`      | error (config)   | a bounded-FIFO cycle: certified (info), refuted, or unrated |
//! | `RC0009` | `replication-safety`     | warn (config)    | statelessness/ordering contradictions around replication |
//! | `RC0010` | `supervision-soundness`  | warn             | recovery policy unsound for the kernel or graph shape |
//! | `RC0011` | `fusion`                 | info             | chains the fusion pass will collapse into one batch kernel |
//!
//! Retired codes are never reused: `RC0003` (`cycle`) folded into
//! `RC0008`, and `RC0005` (`duplicate-link`) and `RC0006`
//! (`type-mismatch`) went because [`RaftMap::link`] refuses both defects
//! ([`crate::error::LinkError`]) before a map can be checked.
//!
//! [`RaftMap::check`] runs every pass and returns the findings in a
//! deterministic order (severity, then code, then involved kernels/links,
//! then message — so snapshot tests and CI logs are stable); `exe()`
//! refuses to run when any [`Severity::Error`] finding exists
//! ([`crate::error::ExeError::CheckFailed`]).
//!
//! `RC0008` reports each bounded-FIFO cycle exactly once, under the
//! certify-or-counterexample contract: `raft-model`'s
//! `min_capacity_for_blocking` solves for the minimal capacity assignment
//! under which no cycle stream can stay full, and the pass emits either an
//! informational certificate or a concrete token-flow showing how the
//! cycle wedges. A cycle with a kernel of undeclared rate cannot be
//! solved and is reported as a plain deadlock risk.

use crate::analysis::Analysis;
use crate::diagnostics::{Diagnostic, Severity};
use crate::map::RaftMap;

/// Configuration for the static checker (part of
/// [`crate::map::MapConfig`]).
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Severity of an `RC0008` finding on a cycle that is *refuted* or has
    /// undeclared rates. A cycle of bounded FIFOs is a deadlock risk, so
    /// this defaults to [`Severity::Error`]; downgrade to
    /// [`Severity::Warn`] for graphs with feedback edges that are known to
    /// be drained (e.g. credit loops). A cycle `RC0008` *certifies*
    /// deadlock-free is reported at [`Severity::Info`] regardless.
    pub cycle_severity: Severity,
    /// Severity of `RC0009` replication-safety findings. Defaults to
    /// [`Severity::Warn`]: the contradictions are real but the runtime
    /// degrades safely (it skips expansion); raise to [`Severity::Error`]
    /// to make `exe()` refuse such graphs.
    pub replication_severity: Severity,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            cycle_severity: Severity::Error,
            replication_severity: Severity::Warn,
        }
    }
}

/// One named lint pass in the registry.
pub struct LintPass {
    /// Stable code, e.g. `"RC0008"`.
    pub code: &'static str,
    /// Short name, e.g. `"feedback-deadlock"`.
    pub name: &'static str,
    /// One-line description of what the pass finds.
    pub summary: &'static str,
    run: fn(&Analysis) -> Vec<Diagnostic>,
}

/// The full lint registry, in code order.
pub fn passes() -> &'static [LintPass] {
    &PASSES
}

static PASSES: [LintPass; 8] = [
    LintPass {
        code: "RC0001",
        name: "unconnected-port",
        summary: "every declared port must be connected to a stream",
        run: crate::analysis::structure::lint_unconnected_ports,
    },
    LintPass {
        code: "RC0002",
        name: "missing-endpoint",
        summary: "the graph needs at least one source and one sink",
        run: crate::analysis::structure::lint_missing_endpoints,
    },
    LintPass {
        code: "RC0004",
        name: "unreachable",
        summary: "every kernel must be reachable from a source",
        run: crate::analysis::structure::lint_unreachable,
    },
    LintPass {
        code: "RC0007",
        name: "capacity",
        summary: "configured capacity must sustain the declared rates",
        run: crate::analysis::capacity::lint_capacity,
    },
    LintPass {
        code: "RC0008",
        name: "feedback-deadlock",
        summary: "every bounded-FIFO cycle is certified deadlock-free, refuted \
                  with a counterexample token-flow, or reported unrated",
        run: crate::analysis::capacity::lint_deadlock_certification,
    },
    LintPass {
        code: "RC0009",
        name: "replication-safety",
        summary: "statelessness and out-of-order safety must be consistent with \
                  the requested replication",
        run: crate::analysis::replication::lint_replication_safety,
    },
    LintPass {
        code: "RC0010",
        name: "supervision-soundness",
        summary: "each kernel's recovery policy must be sound for its state and \
                  graph position",
        run: crate::analysis::supervision::lint_supervision_soundness,
    },
    LintPass {
        code: "RC0011",
        name: "fusion",
        summary: "report the kernel chains the fusion pass will collapse into \
                  single batch-executed kernels at exe()",
        run: crate::analysis::fusion::lint_fusion,
    },
];

/// Run every registered pass over one shared [`Analysis`] context and
/// return the findings in a deterministic order: errors first, then within
/// a severity by code, involved kernels, involved links, and finally
/// message — byte-for-byte stable across runs for snapshot tests and CI
/// logs.
pub(crate) fn run_all(map: &RaftMap) -> Vec<Diagnostic> {
    let analysis = Analysis::new(map);
    let mut out = Vec::new();
    for pass in &PASSES {
        out.extend((pass.run)(&analysis));
    }
    out.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.kernels.cmp(&b.kernels))
            .then_with(|| a.links.cmp(&b.links))
            .then_with(|| a.message.cmp(&b.message))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_eight_distinct_codes() {
        let codes: std::collections::BTreeSet<&str> = passes().iter().map(|p| p.code).collect();
        assert_eq!(codes.len(), 8, "expected 8 lint passes, got {codes:?}");
        assert_eq!(codes.len(), passes().len(), "codes must be unique");
        for p in passes() {
            assert!(p.code.starts_with("RC"), "{}", p.code);
            assert!(!p.name.is_empty() && !p.summary.is_empty());
        }
    }

    #[test]
    fn run_all_is_deterministic_and_sorted() {
        use crate::kernel::{KStatus, Kernel, PortSpec};
        use crate::port::Context;

        struct Src;
        impl Kernel for Src {
            fn ports(&self) -> PortSpec {
                PortSpec::new().output::<u32>("out")
            }
            fn run(&mut self, _ctx: &Context) -> KStatus {
                KStatus::Stop
            }
        }
        struct Sink;
        impl Kernel for Sink {
            fn ports(&self) -> PortSpec {
                PortSpec::new().input::<u32>("in")
            }
            fn run(&mut self, _ctx: &Context) -> KStatus {
                KStatus::Stop
            }
        }

        // A graph with several findings: an overloaded stream (RC0007 warn)
        // plus two dangling ports (RC0001 errors).
        let mut m = RaftMap::new();
        let s = m.add(Src);
        let k = m.add(Sink);
        let _lonely_src = m.add(Src);
        let _lonely_sink = m.add(Sink);
        m.link(s, "out", k, "in").unwrap();
        m.declare_service_rate(s, 100.0);
        m.declare_service_rate(k, 10.0);

        let first = run_all(&m);
        for _ in 0..5 {
            assert_eq!(run_all(&m), first, "check output must be deterministic");
        }
        // Sorted: severity desc, then code asc, then kernels asc.
        for w in first.windows(2) {
            let key = |d: &Diagnostic| {
                (
                    std::cmp::Reverse(d.severity),
                    d.code,
                    d.kernels.clone(),
                    d.links.clone(),
                    d.message.clone(),
                )
            };
            assert!(key(&w[0]) <= key(&w[1]), "{:?} > {:?}", w[0], w[1]);
        }
    }
}
