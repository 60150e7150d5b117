//! Structural lint passes `RC0001`, `RC0002` and `RC0004`: connectivity,
//! endpoints and reachability, over the shared [`super::Analysis`]
//! substrate. Cycles are `RC0008`'s ([`super::capacity`]); a shared port
//! end and an element-type mismatch never reach a check, because
//! `RaftMap::link` refuses both.

use crate::diagnostics::{Diagnostic, Severity};

use super::graph::kname;
use super::Analysis;

/// RC0001: every declared input and output port must be linked (the seed's
/// `validate_connected`, migrated into the registry).
pub(crate) fn lint_unconnected_ports(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let mut out = Vec::new();
    for (ki, entry) in map.kernels.iter().enumerate() {
        for (pi, def) in entry.spec.inputs.iter().enumerate() {
            if !map.links.iter().any(|l| l.dst == ki && l.dst_port == pi) {
                out.push(
                    Diagnostic::new(
                        "RC0001",
                        "unconnected-port",
                        Severity::Error,
                        format!(
                            "input port {:?} of kernel {:?} is not connected",
                            def.name, entry.name
                        ),
                    )
                    .with_kernel(ki),
                );
            }
        }
        for (pi, def) in entry.spec.outputs.iter().enumerate() {
            if !map.links.iter().any(|l| l.src == ki && l.src_port == pi) {
                out.push(
                    Diagnostic::new(
                        "RC0001",
                        "unconnected-port",
                        Severity::Error,
                        format!(
                            "output port {:?} of kernel {:?} is not connected",
                            def.name, entry.name
                        ),
                    )
                    .with_kernel(ki),
                );
            }
        }
    }
    out
}

/// RC0002: a runnable dataflow graph needs at least one source (a kernel
/// with no input ports) and one sink (no output ports); otherwise nothing
/// can start, or nothing can finish draining.
pub(crate) fn lint_missing_endpoints(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let mut out = Vec::new();
    if map.kernels.is_empty() {
        out.push(Diagnostic::new(
            "RC0002",
            "missing-endpoint",
            Severity::Error,
            "map contains no kernels",
        ));
        return out;
    }
    if !map.kernels.iter().any(|k| k.spec.inputs.is_empty()) {
        out.push(Diagnostic::new(
            "RC0002",
            "missing-endpoint",
            Severity::Error,
            "graph has no source kernel (every kernel has input ports): \
             nothing can produce the first element",
        ));
    }
    if !map.kernels.iter().any(|k| k.spec.outputs.is_empty()) {
        out.push(Diagnostic::new(
            "RC0002",
            "missing-endpoint",
            Severity::Error,
            "graph has no sink kernel (every kernel has output ports): \
             backpressure has nowhere to drain",
        ));
    }
    out
}

/// RC0004: BFS from the sources; kernels no token can ever reach will
/// starve forever. Skipped when the graph has no sources at all — RC0002
/// already reports that, and flagging every kernel would be noise.
pub(crate) fn lint_unreachable(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    if a.graph.sources.is_empty() || a.graph.is_empty() {
        return Vec::new();
    }
    let seen = a.graph.reachable_from_sources();
    let unreached: Vec<usize> = (0..a.graph.len()).filter(|&i| !seen[i]).collect();
    if unreached.is_empty() {
        return Vec::new();
    }
    let names: Vec<&str> = unreached.iter().map(|&i| kname(map, i)).collect();
    vec![Diagnostic::new(
        "RC0004",
        "unreachable",
        Severity::Error,
        format!(
            "kernel(s) {{{}}} are not reachable from any source: their \
             inputs will never receive data",
            names.join(", ")
        ),
    )
    .with_kernels(unreached)]
}
