//! `RC0010` supervision-policy soundness: cross-check each kernel's
//! [`crate::supervise::SupervisorPolicy`] against the graph and the
//! kernel's own capabilities.
//!
//! Three ways a per-kernel recovery policy can silently corrupt a run:
//!
//! * **Restart on a stateful kernel** — without `clone_replica` the
//!   scheduler re-enters the *same instance*, whose state is whatever the
//!   panic left behind (a half-updated accumulator, a poisoned cache);
//! * **Skip upstream of a merge** — skipping a kernel closes its outputs
//!   and lets the pipeline drain, but a downstream kernel merging several
//!   inputs (a counting reduce) then combines partial results as if they
//!   were complete;
//! * **Replace with a mismatched factory** — the replacement kernel is
//!   wired into the *existing* streams, so a factory producing different
//!   port names or element types would corrupt the channel contract. The
//!   factory is invoked once at check time and its ports compared.

use crate::diagnostics::{Diagnostic, Severity};
use crate::kernel::Kernel;
use crate::supervise::SupervisorPolicy;

use super::graph::kname;
use super::Analysis;

/// Severity of the Restart/Skip findings: the policy is legal but may
/// corrupt a run, so the graph still runs.
const SEVERITY: Severity = Severity::Warn;

/// RC0010: supervision-policy soundness. Restart/Skip findings are
/// warnings; Replace port mismatches are always [`Severity::Error`] — a
/// replacement with different port types can never be wired into the live
/// streams.
pub(crate) fn lint_supervision_soundness(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let mut out = Vec::new();

    for (k, entry) in map.kernels.iter().enumerate() {
        match &entry.policy {
            SupervisorPolicy::Abort => {}
            SupervisorPolicy::Restart { .. } => {
                // A restart is clean only when a fresh instance can be built
                // (clone_replica) or the kernel provably has no state to
                // corrupt (stateless).
                if entry.kernel.clone_replica().is_none() && !entry.is_stateless() {
                    out.push(
                        Diagnostic::new(
                            "RC0010",
                            "supervision-soundness",
                            SEVERITY,
                            format!(
                                "Restart policy on stateful kernel {}: without \
                                 clone_replica the scheduler re-enters the \
                                 same instance, whose state is whatever the \
                                 panic left behind",
                                entry.name,
                            ),
                        )
                        .with_help(
                            "implement clone_replica() for clean-slate \
                             restarts, use SupervisorPolicy::replace with a \
                             factory, or declare_stateless(k) if the kernel \
                             has no cross-item state",
                        )
                        .with_kernel(k),
                    );
                }
            }
            SupervisorPolicy::Skip => {
                // Skipping closes this kernel's outputs; a downstream kernel
                // merging several inputs then combines partial results.
                for &succ in &a.graph.adj[k] {
                    let fan_in = map.links.iter().filter(|l| l.dst == succ).count();
                    if fan_in >= 2 {
                        out.push(
                            Diagnostic::new(
                                "RC0010",
                                "supervision-soundness",
                                SEVERITY,
                                format!(
                                    "Skip policy on {} starves one of {} \
                                     inputs of downstream merge {}: a \
                                     counting reduce would silently combine \
                                     partial results as if they were complete",
                                    entry.name,
                                    fan_in,
                                    kname(map, succ),
                                ),
                            )
                            .with_help(
                                "use Restart/Replace so the input keeps \
                                 flowing, or Abort if partial merges are \
                                 unacceptable",
                            )
                            .with_kernels([k, succ]),
                        );
                    }
                }
            }
            SupervisorPolicy::Replace { factory, .. } => {
                // Invoke the factory once and compare the replacement's port
                // signature against the supervised kernel's live spec.
                let replacement = factory();
                let spec = replacement.ports();
                let expect = &entry.spec;
                let ports = |defs: &[crate::kernel::PortDef]| -> Vec<String> {
                    defs.iter()
                        .map(|d| format!("{}:{}", d.name, d.type_name))
                        .collect()
                };
                let (ein, eout) = (ports(&expect.inputs), ports(&expect.outputs));
                let (gin, gout) = (ports(&spec.inputs), ports(&spec.outputs));
                if ein != gin || eout != gout {
                    out.push(
                        Diagnostic::new(
                            "RC0010",
                            "supervision-soundness",
                            Severity::Error,
                            format!(
                                "Replace factory for {} builds a kernel with \
                                 ports in[{}] out[{}], but the live streams \
                                 expect in[{}] out[{}]: a replacement with a \
                                 different port signature cannot be wired in",
                                entry.name,
                                gin.join(", "),
                                gout.join(", "),
                                ein.join(", "),
                                eout.join(", "),
                            ),
                        )
                        .with_help(
                            "make the factory produce the same kernel type \
                             (same port names and element types) as the one \
                             it replaces",
                        )
                        .with_kernel(k),
                    );
                }
            }
        }
    }
    out
}
