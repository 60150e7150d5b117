//! Dataflow analysis framework behind [`crate::map::RaftMap::check`].
//!
//! The original `check.rs` ran each lint as an independent function over
//! the raw map. This module restructures that into a shared-substrate
//! design: an [`Analysis`] context is built once per check — adjacency,
//! Tarjan SCCs and source-reachability in [`GraphView`], plus the `RC0008`
//! cycle solver verdicts — and every registered pass consumes it. Passes
//! live in submodules by theme:
//!
//! * [`structure`] — `RC0001`, `RC0002`, `RC0004`: connectivity,
//!   endpoints, reachability;
//! * [`capacity`] — `RC0007` capacity feasibility and `RC0008`, the one
//!   cycle pass: feedback-deadlock certification
//!   (certify-or-counterexample), or the deadlock risk of an unrated cycle;
//! * [`replication`] — `RC0009` replication/fusion-safety inference and
//!   the [`KernelClassification`] export;
//! * [`supervision`] — `RC0010` supervision-policy soundness;
//! * [`fusion`] — the `RC0011` fusion plan report *and* the `exe()`-time
//!   rewrite that collapses fusable chains into one batch-executed kernel.
//!
//! The registry itself (codes, names, ordering) stays in
//! [`crate::check`]; callers see it as [`crate::passes`].

pub(crate) mod capacity;
pub(crate) mod fusion;
mod graph;
pub(crate) mod replication;
pub(crate) mod structure;
pub(crate) mod supervision;

#[cfg(test)]
mod golden;

use capacity::CycleInfo;
pub use fusion::{FusedGroupReport, FusionConfig};
use graph::GraphView;
pub(crate) use replication::classify;
pub use replication::KernelClassification;

use crate::map::RaftMap;

/// Shared context every lint pass receives: the map under analysis, the
/// graph substrate, and the feedback cycles with their `RC0008` solver
/// verdicts. Built once per [`crate::map::RaftMap::check`] call.
pub struct Analysis<'m> {
    /// The map under analysis.
    pub(crate) map: &'m RaftMap,
    /// Adjacency / SCC / reachability substrate.
    pub graph: GraphView,
    /// Feedback cycles found by Tarjan, each with its solver verdict.
    pub cycles: Vec<CycleInfo>,
}

impl<'m> Analysis<'m> {
    /// Build the analysis context for `map`: graph view first, then the
    /// cycle solver over every cyclic SCC.
    pub fn new(map: &'m RaftMap) -> Self {
        let graph = GraphView::build(map);
        let cycles = capacity::certify_cycles(map, &graph);
        Analysis { map, graph, cycles }
    }
}
