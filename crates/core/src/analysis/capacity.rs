//! Queueing-model passes: `RC0007` capacity feasibility and `RC0008`
//! feedback-deadlock certification, the one cycle pass.
//!
//! Both reuse `raft-model`'s M/M/1/K estimates against one threshold,
//! [`BLOCKING_WARN`]. RC0007 warns per stream when the configured capacity
//! ceiling cannot sustain the declared rates. RC0008 reports every
//! bounded-FIFO feedback cycle once. A bounded-FIFO cycle deadlocks
//! only when *every* queue on it is full (each kernel blocked pushing to
//! the next); conversely, one stream that provably never stays full breaks
//! the deadlock condition. Around any cycle the utilizations multiply to 1
//! (`Π λᵢ/μᵢ = 1`), so demanding feasibility of *every* cycle stream is
//! vacuously impossible — the certificate is instead a *witness*: some
//! intra-cycle stream with λ < μ whose configured capacity meets the
//! minimal assignment keeping its steady-state blocking under the
//! threshold. The solver finds the minimal such assignment, and the pass
//! emits either the certificate or a concrete counterexample token-flow
//! showing how the cycle wedges — the certify-or-counterexample contract.
//! A cycle with a kernel of undeclared rate gets neither: it is reported
//! as a plain deadlock risk, naming the kernels to rate.

use raft_model::queues::{min_capacity_for_blocking, MM1K};

use crate::diagnostics::{Diagnostic, Severity};
use crate::map::RaftMap;
use crate::monitor::grow_ceiling;

use super::graph::{kname, link_label, GraphView};
use super::Analysis;

/// Steady-state producer blocking probability above which `RC0007` warns
/// and below which an `RC0008` witness stream keeps a cycle certified.
const BLOCKING_WARN: f64 = 0.05;

/// Verdict of the `RC0008` solver for one feedback cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleVerdict {
    /// At least one intra-cycle stream provably stays un-full: its λ < μ
    /// and its configured capacity meets the minimal assignment keeping
    /// steady-state blocking under the threshold. Deadlock requires every
    /// cycle queue full, so the cycle cannot deadlock under the declared
    /// rates.
    Certified {
        /// Witness links: `(link index, configured capacity, minimal
        /// feasible capacity)`, configured ≥ minimal for each.
        witnesses: Vec<(usize, u32, u32)>,
    },
    /// Every stream on the cycle can fill up: the cycle can deadlock.
    Refuted {
        /// Finite repairs, cheapest first: `(link index, configured
        /// capacity, minimal capacity that would turn the link into a
        /// certificate witness)`. Empty when every cycle stream has λ ≥ μ
        /// and no finite capacity assignment certifies the cycle.
        repairs: Vec<(usize, u32, u32)>,
    },
    /// Some cycle kernel has no declared service rate, so the solver has
    /// nothing to model; `RC0008` reports the cycle as a deadlock risk and
    /// names these kernels.
    Unknown {
        /// Cycle members without a declared rate.
        missing_rates: Vec<usize>,
    },
}

/// One feedback cycle found by the Tarjan pass, with its solver verdict.
#[derive(Debug, Clone)]
pub struct CycleInfo {
    /// Cycle members (kernel indices), sorted ascending.
    pub members: Vec<usize>,
    /// Intra-cycle link indices, in link-table order.
    pub links: Vec<usize>,
    /// What the RC0008 solver concluded.
    pub verdict: CycleVerdict,
}

/// Capacity ceiling of link `li` under a sustained blocked writer — the
/// monitor's growth ceiling for its configured bounds and element size —
/// clamped to `u32`.
pub(crate) fn link_capacity(map: &RaftMap, li: usize) -> u32 {
    let l = &map.links[li];
    let cfg = l.fifo.unwrap_or(map.cfg.fifo);
    let slot_bytes = map.kernels[l.src].spec.outputs[l.src_port].slot_bytes;
    let cap = grow_ceiling((cfg.min_capacity, cfg.max_capacity), slot_bytes);
    cap.clamp(1, u32::MAX as usize) as u32
}

/// Run the RC0008 solver over every cyclic SCC: for each intra-cycle link
/// compute the minimal capacity keeping steady-state blocking under
/// [`BLOCKING_WARN`], and compare against the link's growth ceiling.
pub(crate) fn certify_cycles(map: &RaftMap, graph: &GraphView) -> Vec<CycleInfo> {
    let mut out = Vec::new();
    for members in graph.cyclic_sccs() {
        let links: Vec<usize> = map
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| members.contains(&l.src) && members.contains(&l.dst))
            .map(|(i, _)| i)
            .collect();
        let missing_rates: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&k| map.kernels[k].service_rate.is_none())
            .collect();
        let verdict = if !missing_rates.is_empty() {
            CycleVerdict::Unknown { missing_rates }
        } else {
            let mut witnesses = Vec::new();
            let mut repairs = Vec::new();
            for &li in &links {
                let l = &map.links[li];
                let lambda = map.kernels[l.src].service_rate.expect("checked above");
                let mu = map.kernels[l.dst].service_rate.expect("checked above");
                let cap = link_capacity(map, li);
                match min_capacity_for_blocking(lambda, mu, BLOCKING_WARN) {
                    Some(k) if cap >= k => witnesses.push((li, cap, k)),
                    Some(k) => repairs.push((li, cap, k)),
                    None => {}
                }
            }
            if witnesses.is_empty() {
                // Cheapest repair first: the minimal capacity assignment
                // that would certify the cycle.
                repairs.sort_by_key(|&(li, _, k)| (k, li));
                CycleVerdict::Refuted { repairs }
            } else {
                CycleVerdict::Certified { witnesses }
            }
        };
        out.push(CycleInfo {
            members,
            links,
            verdict,
        });
    }
    out
}

/// RC0007: capacity feasibility. For every stream whose two kernels have
/// declared service rates, model the queue as M/M/1/K at the capacity the
/// monitor's 3δ "writer blocked" resize trigger grows it to at most
/// (`link_capacity`) and warn when the steady-state producer blocking
/// probability exceeds [`BLOCKING_WARN`] — the static version of that
/// trigger. The computed minimum
/// feasible capacity is attached as a `help:` line.
pub(crate) fn lint_capacity(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let mut out = Vec::new();
    for (li, l) in map.links.iter().enumerate() {
        let (Some(lambda), Some(mu)) = (
            map.kernels[l.src].service_rate,
            map.kernels[l.dst].service_rate,
        ) else {
            continue;
        };
        if !(lambda > 0.0 && mu > 0.0) {
            continue;
        }
        let cap = link_capacity(map, li);
        let blocking = MM1K::new(lambda, mu, cap).blocking_probability();
        if blocking <= BLOCKING_WARN {
            continue;
        }
        let help = match min_capacity_for_blocking(lambda, mu, BLOCKING_WARN) {
            Some(k) => format!(
                "a capacity ceiling of {k} would keep blocking under {:.0}% \
                 (e.g. link_with(.., FifoConfig::fixed({k})))",
                BLOCKING_WARN * 100.0
            ),
            None => "no finite capacity suffices (λ ≥ μ): widen the consumer \
                     or lower the producer rate"
                .to_string(),
        };
        out.push(
            Diagnostic::new(
                "RC0007",
                "capacity",
                Severity::Warn,
                format!(
                    "stream {} (capacity ceiling {cap}) cannot sustain the \
                     declared rates λ={lambda}/s -> μ={mu}/s: steady-state \
                     producer blocking ≈ {:.1}%",
                    link_label(map, li),
                    blocking * 100.0,
                ),
            )
            .with_help(help)
            .with_kernels([l.src, l.dst])
            .with_link(li),
        );
    }
    out
}

/// RC0008: feedback-deadlock certification, one finding per bounded-FIFO
/// cycle the Tarjan pass found: an [`Severity::Info`] certificate naming
/// the witness streams, or — at
/// [`crate::check::CheckConfig::cycle_severity`] — a concrete
/// counterexample token-flow with the cheapest repair, or, when some cycle
/// kernel has no declared rate, the plain deadlock risk and the kernels to
/// rate.
pub(crate) fn lint_deadlock_certification(a: &Analysis) -> Vec<Diagnostic> {
    let map = a.map;
    let mut out = Vec::new();
    for cycle in &a.cycles {
        let names: Vec<&str> = cycle.members.iter().map(|&i| kname(map, i)).collect();
        match &cycle.verdict {
            CycleVerdict::Unknown { missing_rates } => {
                let missing: Vec<&str> = missing_rates.iter().map(|&i| kname(map, i)).collect();
                out.push(
                    Diagnostic::new(
                        "RC0008",
                        "feedback-deadlock",
                        map.cfg.check.cycle_severity,
                        format!(
                            "cycle of bounded streams through {{{}}}: once every \
                             queue on the cycle fills, all {} kernels block \
                             forever (downgrade via \
                             MapConfig::check.cycle_severity if the feedback \
                             edge is provably drained); declare service rates \
                             on {{{}}} to let RC0008 attempt a deadlock-freedom \
                             certificate",
                            names.join(", "),
                            cycle.members.len(),
                            missing.join(", "),
                        ),
                    )
                    .with_kernels(cycle.members.iter().copied())
                    .with_links(cycle.links.iter().copied()),
                );
            }
            CycleVerdict::Certified { witnesses } => {
                let terms: Vec<String> = witnesses
                    .iter()
                    .map(|&(li, cap, min)| {
                        format!(
                            "{} (capacity {cap} ≥ minimal {min}) keeps \
                             steady-state blocking ≤ {:.0}% and can never \
                             stay full",
                            link_label(map, li),
                            BLOCKING_WARN * 100.0,
                        )
                    })
                    .collect();
                out.push(
                    Diagnostic::new(
                        "RC0008",
                        "feedback-deadlock",
                        Severity::Info,
                        format!(
                            "feedback cycle through {{{}}} certified \
                             deadlock-free under the declared service rates: \
                             deadlock requires every cycle queue to fill, \
                             but {}",
                            names.join(", "),
                            terms.join("; "),
                        ),
                    )
                    .with_kernels(cycle.members.iter().copied())
                    .with_links(cycle.links.iter().copied()),
                );
            }
            CycleVerdict::Refuted { repairs } => {
                // Concrete counterexample: fill every queue on the cycle in
                // link order; each producer then blocks and nothing can pop.
                let flow: Vec<String> = cycle
                    .links
                    .iter()
                    .map(|&li| {
                        let l = &map.links[li];
                        format!(
                            "push {} tokens into {} ({} now blocks)",
                            link_capacity(map, li),
                            link_label(map, li),
                            kname(map, l.src),
                        )
                    })
                    .collect();
                let help = match repairs.first() {
                    Some(&(li, cap, k)) => format!(
                        "minimal capacity assignment: raise {} from {cap} to \
                         ≥ {k} (link_with(.., FifoConfig::fixed({k}))) so one \
                         cycle queue provably never fills",
                        link_label(map, li),
                    ),
                    None => "no finite capacity assignment certifies this \
                             cycle (every cycle stream has λ ≥ μ): change \
                             the declared rates, or prove the feedback edge \
                             drained and downgrade via \
                             MapConfig::check.cycle_severity"
                        .to_string(),
                };
                out.push(
                    Diagnostic::new(
                        "RC0008",
                        "feedback-deadlock",
                        map.cfg.check.cycle_severity,
                        format!(
                            "feedback cycle through {{{}}} can deadlock under \
                             the declared service rates: every stream on the \
                             cycle can fill; counterexample token-flow: {}; \
                             every kernel on the cycle is now blocked pushing \
                             and no consumer can free space",
                            names.join(", "),
                            flow.join(", then "),
                        ),
                    )
                    .with_help(help)
                    .with_kernels(cycle.members.iter().copied())
                    .with_links(cycle.links.iter().copied()),
                );
            }
        }
    }
    out
}
