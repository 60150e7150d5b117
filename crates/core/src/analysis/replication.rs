//! `RC0009` replication/fusion-safety inference.
//!
//! The auto-parallelizer (§4.1, `runtime::expand_replicas`) replicates a
//! kernel only when the graph *shape* allows it — one input, one output,
//! both streams declared out-of-order safe, and `clone_replica()`
//! available. This pass propagates two further facts through the graph and
//! flags the contradictions the shape test cannot see:
//!
//! * **statelessness** (from [`crate::kernel::Kernel::is_stateless`] or
//!   [`crate::map::RaftMap::declare_stateless`]): a *stateful* kernel
//!   replicated behind an out-of-order split sees only a fraction of the
//!   stream in arbitrary order, so per-replica state silently diverges;
//! * **out-of-order taint** (from `link_unordered` declarations): every
//!   kernel downstream of a replicated region may receive reordered items,
//!   so a stream it feeds that is declared *ordered* is lying to its
//!   consumer (an ordered reduce fed by unordered replicas).
//!
//! The inferred per-kernel classification is exported through
//! [`crate::runtime::ExeReport::kernel_classes`] so later passes (fusion,
//! autoscaling) consume inferred facts instead of trusting declarations.

use crate::diagnostics::Diagnostic;
use crate::map::RaftMap;

use super::graph::{kname, link_label, GraphView};
use super::Analysis;

/// Inferred replication/fusion facts for one kernel, computed before
/// replica expansion and exported via
/// [`crate::runtime::ExeReport::kernel_classes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelClassification {
    /// Kernel display name (`Type#idx`).
    pub name: String,
    /// Stateless per [`crate::kernel::Kernel::is_stateless`] or
    /// [`crate::map::RaftMap::declare_stateless`].
    pub stateless: bool,
    /// `clone_replica()` produces replicas.
    pub replicable: bool,
    /// The graph shape permits replication: exactly one input and one
    /// output stream, both declared out-of-order safe, and the kernel is
    /// replicable.
    pub replication_safe: bool,
    /// Replica width the planner will use at `exe()` (1 = sequential; >1
    /// only when `replication_safe`).
    pub planned_width: u32,
    /// The kernel sits downstream of a region that will be replicated, so
    /// its inputs may arrive out of order.
    pub ooo_inputs: bool,
}

/// Width the expansion planner would use for kernel `k` (before the
/// eligibility shape test): the explicit hint, else the auto-parallel
/// default, else 1.
pub(crate) fn requested_width(map: &RaftMap, k: usize) -> u32 {
    match map.kernels[k].width_hint {
        Some(w) => w,
        None if map.cfg.parallel.enabled => map.cfg.parallel.max_width.max(1),
        None => 1,
    }
}

/// Mirror of `runtime::expand_replicas` eligibility *shape*: exactly one
/// input and one output port, both connected, both streams out-of-order
/// safe. (Replicability is checked separately so diagnostics can tell the
/// two failure modes apart.)
pub(crate) fn shape_allows_replication(map: &RaftMap, k: usize) -> bool {
    if map.kernels[k].spec.inputs.len() != 1 || map.kernels[k].spec.outputs.len() != 1 {
        return false;
    }
    let in_link = map.links.iter().position(|l| l.dst == k);
    let out_link = map.links.iter().position(|l| l.src == k);
    let (Some(in_idx), Some(out_idx)) = (in_link, out_link) else {
        return false;
    };
    !map.links[in_idx].ordered && !map.links[out_idx].ordered
}

/// Kernels the planner will actually replicate at `exe()`.
pub(crate) fn will_replicate(map: &RaftMap, k: usize, replicable: bool) -> bool {
    requested_width(map, k) > 1 && replicable && shape_allows_replication(map, k)
}

/// Compute the per-kernel classification for `map` (pre-expansion).
pub fn classify(map: &RaftMap) -> Vec<KernelClassification> {
    let graph = GraphView::build(map);
    classify_with(map, &graph)
}

pub(crate) fn classify_with(map: &RaftMap, graph: &GraphView) -> Vec<KernelClassification> {
    let n = map.kernels.len();
    let replicable: Vec<bool> = (0..n)
        .map(|k| map.kernels[k].kernel.clone_replica().is_some())
        .collect();
    let replicated: Vec<usize> = (0..n)
        .filter(|&k| will_replicate(map, k, replicable[k]))
        .collect();
    // Everything strictly downstream of a replicated kernel may see
    // reordered items (the replicated kernel itself re-merges via reduce).
    let mut tainted = vec![false; n];
    for &r in &replicated {
        let down = graph.downstream_of(&[r]);
        for (k, is_down) in down.iter().enumerate() {
            if *is_down && k != r {
                tainted[k] = true;
            }
        }
    }
    (0..n)
        .map(|k| {
            let e = &map.kernels[k];
            let safe = replicable[k] && shape_allows_replication(map, k);
            KernelClassification {
                name: e.name.clone(),
                stateless: e.is_stateless(),
                replicable: replicable[k],
                replication_safe: safe,
                planned_width: if will_replicate(map, k, replicable[k]) {
                    requested_width(map, k)
                } else {
                    1
                },
                ooo_inputs: tainted[k],
            }
        })
        .collect()
}

/// RC0009: flag contradictions between the requested parallelism, the
/// declared ordering of streams, and the kernels' statelessness. Severity
/// comes from [`crate::check::CheckConfig::replication_severity`]
/// (default [`crate::diagnostics::Severity::Warn`]).
pub(crate) fn lint_replication_safety(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let severity = map.cfg.check.replication_severity;
    let classes = classify_with(map, &a.graph);
    let mut out = Vec::new();

    for (k, class) in classes.iter().enumerate() {
        let width = requested_width(map, k);
        let explicit = map.kernels[k].width_hint.is_some();
        // Contradiction 1: replication requested but impossible.
        if explicit && width > 1 && !class.replicable {
            out.push(
                Diagnostic::new(
                    "RC0009",
                    "replication-safety",
                    severity,
                    format!(
                        "kernel {} requests width {} but Kernel::clone_replica \
                         returns None: the kernel carries non-replicable state \
                         and will run sequentially",
                        class.name, width,
                    ),
                )
                .with_help(
                    "implement clone_replica() for the kernel, or pin it \
                     sequential with prefer_width(k, 1)",
                )
                .with_kernel(k),
            );
            continue;
        }
        // Contradiction 2: replication requested but an attached stream is
        // declared ordered, so the planner will silently skip expansion.
        if explicit && width > 1 && class.replicable && !shape_allows_replication(map, k) {
            out.push(
                Diagnostic::new(
                    "RC0009",
                    "replication-safety",
                    severity,
                    format!(
                        "kernel {} requests width {} but its stream shape \
                         forbids replication (needs exactly one input and one \
                         output, both declared out-of-order safe): the \
                         request is silently ignored",
                        class.name, width,
                    ),
                )
                .with_help(
                    "declare the kernel's streams with link_unordered(..) if \
                     reordering is acceptable, or drop the width hint",
                )
                .with_kernel(k),
            );
            continue;
        }
        // Contradiction 3: a stateful kernel behind an out-of-order split.
        // Each replica sees an arbitrary subset of the stream, so any
        // cross-item state silently diverges.
        if class.planned_width > 1 && !class.stateless {
            out.push(
                Diagnostic::new(
                    "RC0009",
                    "replication-safety",
                    severity,
                    format!(
                        "stateful kernel {} will be replicated ×{} behind an \
                         out-of-order split: each replica sees only a subset \
                         of the stream in arbitrary order, so per-replica \
                         state diverges",
                        class.name, class.planned_width,
                    ),
                )
                .with_help(format!(
                    "declare_stateless(k) if {} is pure (clone_replica alone \
                     does not assert purity), or pin it sequential with \
                     prefer_width(k, 1)",
                    class.name,
                ))
                .with_kernel(k),
            );
        }
    }

    // Contradiction 4: an ordered stream fed from inside a replicated
    // region — the producer's items may arrive reordered, so the ordered
    // declaration downstream is a lie (e.g. an ordered reduce fed by
    // unordered replicas).
    for (li, l) in map.links.iter().enumerate() {
        if l.ordered && classes[l.src].ooo_inputs {
            out.push(
                Diagnostic::new(
                    "RC0009",
                    "replication-safety",
                    severity,
                    format!(
                        "stream {} is declared ordered but its producer {} is \
                         downstream of a replicated kernel: items may arrive \
                         reordered, and an order-sensitive consumer (e.g. a \
                         counting reduce) would silently mis-merge",
                        link_label(map, li),
                        kname(map, l.src),
                    ),
                )
                .with_help(
                    "declare the stream out-of-order safe with \
                     link_unordered(..), or pin the upstream replicated \
                     kernel to width 1",
                )
                .with_kernels([l.src, l.dst])
                .with_link(li),
            );
        }
    }
    out
}
