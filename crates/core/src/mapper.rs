//! Kernel-to-resource mapping.
//!
//! §4.1 of the paper: "the initial mapping algorithm provided with RaftLib
//! is a simple one (similar to a spanning tree) that attempts to place the
//! fewest number of 'streams' over high latency connections (i.e., across
//! physical compute cores or TCP links). It begins with a priority queue
//! with the highest latency link getting the highest priority, finds the
//! partition with the minimal number of links crossing it then proceeds to
//! partition based on the next highest latency link for these two
//! partitions. If no difference in latency exists ... then computation is
//! shared evenly amongst the cores. No claim is made to optimality for this
//! simple algorithm, however it is fast."
//!
//! The resource topology is a tree of latency domains (machine → socket →
//! core; network → machine). The partitioner recursively bisects the kernel
//! graph at each latency boundary, greedily minimizing the number of
//! streams crossing the cut while keeping the two sides balanced by the
//! capacity (core count) of each side.

use raft_buffer::LinkAlloc;

/// A leaf compute resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Display name (e.g. `"node0/socket0/core3"`). Segments are
    /// `/`-separated, outermost first; a `procN` segment marks a process
    /// boundary inside a machine (see [`classify_link`]).
    pub name: String,
}

impl Resource {
    /// The machine component: everything before the first `/` (the whole
    /// name if there is no `/`).
    pub fn machine(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }

    /// The process component, if the name carries a `procN` segment
    /// (`"node0/proc1/core3"` → `Some("proc1")`). Names without one are
    /// treated as a single process per machine.
    pub fn process(&self) -> Option<&str> {
        self.name
            .split('/')
            .find(|seg| seg.starts_with("proc") && seg[4..].bytes().all(|b| b.is_ascii_digit()))
    }
}

/// Select the link allocator for a stream between two placed kernels —
/// the paper's "link allocation type is selected" step (§4), resolved
/// from the placement: same process → heap ring, same machine but
/// different processes → shared-memory segment, different machines → TCP.
/// DESIGN §14 has the full matrix.
pub fn classify_link(src: &Resource, dst: &Resource) -> LinkAlloc {
    if src.machine() != dst.machine() {
        return LinkAlloc::Tcp;
    }
    match (src.process(), dst.process()) {
        (Some(a), Some(b)) if a != b => LinkAlloc::Shm,
        _ => LinkAlloc::Heap,
    }
}

/// A latency domain: either a leaf resource or a group of subdomains whose
/// members communicate at `internal_latency_ns` with each other.
#[derive(Debug, Clone)]
pub enum Domain {
    /// A single schedulable resource (one core / one accelerator slot).
    Leaf(Resource),
    /// Subdomains joined by links of the given latency.
    Group {
        /// Cost of crossing between children, in nanoseconds.
        internal_latency_ns: u64,
        /// Child domains.
        children: Vec<Domain>,
    },
}

impl Domain {
    /// A host with `cores` symmetric cores (uniform intra-host latency).
    pub fn symmetric_host(name: &str, cores: usize, core_latency_ns: u64) -> Domain {
        Domain::Group {
            internal_latency_ns: core_latency_ns,
            children: (0..cores)
                .map(|c| {
                    Domain::Leaf(Resource {
                        name: format!("{name}/core{c}"),
                    })
                })
                .collect(),
        }
    }

    /// A host partitioned into `procs` worker processes of
    /// `cores_per_proc` cores each. Crossing a process boundary costs
    /// `proc_latency_ns` (> core latency, < network latency), so the
    /// partitioner keeps chatty kernels inside one process and
    /// [`classify_link`] gives the cut edges shared-memory rings.
    pub fn multi_process_host(
        name: &str,
        procs: usize,
        cores_per_proc: usize,
        proc_latency_ns: u64,
        core_latency_ns: u64,
    ) -> Domain {
        Domain::Group {
            internal_latency_ns: proc_latency_ns,
            children: (0..procs)
                .map(|p| {
                    Domain::symmetric_host(
                        &format!("{name}/proc{p}"),
                        cores_per_proc,
                        core_latency_ns,
                    )
                })
                .collect(),
        }
    }

    /// A cluster of hosts joined by a network of the given latency.
    pub fn cluster(hosts: Vec<Domain>, network_latency_ns: u64) -> Domain {
        Domain::Group {
            internal_latency_ns: network_latency_ns,
            children: hosts,
        }
    }

    /// Total leaf count.
    pub fn capacity(&self) -> usize {
        match self {
            Domain::Leaf(_) => 1,
            Domain::Group { children, .. } => children.iter().map(Domain::capacity).sum(),
        }
    }

    fn leaves(&self, out: &mut Vec<Resource>) {
        match self {
            Domain::Leaf(r) => out.push(r.clone()),
            Domain::Group { children, .. } => {
                for c in children {
                    c.leaves(out);
                }
            }
        }
    }
}

/// The kernel communication graph handed to the mapper: `n` kernels and
/// weighted edges (weight = expected traffic; 1 if unknown).
#[derive(Debug, Clone, Default)]
pub struct CommGraph {
    /// Number of kernels.
    pub n: usize,
    /// `(a, b, weight)` undirected communication edges.
    pub edges: Vec<(usize, usize, u64)>,
}

impl CommGraph {
    /// Graph over `n` kernels with no edges yet.
    pub fn new(n: usize) -> Self {
        CommGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Add a communication edge.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a < self.n && b < self.n && a != b);
        self.edges.push((a, b, weight));
    }
}

/// Mapping result: `assignment[k]` is the resource for kernel `k`, plus the
/// total weight of streams that cross latency domains, scored by latency.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Chosen resource per kernel.
    pub assignment: Vec<Resource>,
    /// Σ (edge weight × link latency) over cut edges — the objective the
    /// partitioner minimizes.
    pub cut_cost_ns: u64,
}

/// Map `graph` onto `topology` with the paper's recursive latency-priority
/// bisection.
pub fn map_kernels(graph: &CommGraph, topology: &Domain) -> Mapping {
    let mut cut_cost = 0u64;
    let mut assignment: Vec<Option<Resource>> = vec![None; graph.n];
    let all: Vec<usize> = (0..graph.n).collect();
    place(graph, topology, &all, &mut assignment, &mut cut_cost);
    Mapping {
        assignment: assignment.into_iter().map(Option::unwrap).collect(),
        cut_cost_ns: cut_cost,
    }
}

fn place(
    graph: &CommGraph,
    domain: &Domain,
    kernels: &[usize],
    assignment: &mut [Option<Resource>],
    cut_cost: &mut u64,
) {
    match domain {
        Domain::Leaf(r) => {
            // Everything that remains shares this resource.
            for &k in kernels {
                assignment[k] = Some(r.clone());
            }
        }
        Domain::Group {
            internal_latency_ns,
            children,
        } => {
            // Split `kernels` into per-child groups, proportional to each
            // child's capacity, minimizing cut weight greedily.
            let mut remaining: Vec<usize> = kernels.to_vec();
            let total_cap: usize = children.iter().map(Domain::capacity).sum();
            for (ci, child) in children.iter().enumerate() {
                let is_last = ci == children.len() - 1;
                let quota = if is_last {
                    remaining.len()
                } else {
                    // proportional share, at least 0
                    (kernels.len() * child.capacity())
                        .div_ceil(total_cap)
                        .min(remaining.len())
                };
                let group = extract_group(graph, &mut remaining, quota);
                // Edges from this group to kernels left in `remaining` are
                // cut at this domain's latency.
                for &(a, b, w) in &graph.edges {
                    let a_in = group.contains(&a);
                    let b_in = group.contains(&b);
                    let a_rem = remaining.contains(&a);
                    let b_rem = remaining.contains(&b);
                    if (a_in && b_rem) || (b_in && a_rem) {
                        *cut_cost += w * internal_latency_ns;
                    }
                }
                place(graph, child, &group, assignment, cut_cost);
                if remaining.is_empty() {
                    // Later children get nothing; still recurse for shape
                    // correctness? No: nothing left to place.
                    break;
                }
            }
        }
    }
}

/// Min-cut group extraction: grow a group greedily by absorbing the
/// remaining kernel with the strongest ties to the group; try every seed
/// and keep the grouping with the smallest cut weight. Kernel graphs are
/// small (tens of kernels), so the O(n² · e) cost is negligible next to
/// queue allocation.
fn extract_group(graph: &CommGraph, remaining: &mut Vec<usize>, quota: usize) -> Vec<usize> {
    let quota = quota.min(remaining.len());
    if quota == 0 {
        return Vec::new();
    }
    if quota == remaining.len() {
        return std::mem::take(remaining);
    }

    let grow = |seed: usize| -> Vec<usize> {
        let mut group = vec![seed];
        let mut pool: Vec<usize> = remaining.iter().copied().filter(|&k| k != seed).collect();
        while group.len() < quota {
            let affinity = |k: usize| -> u64 {
                graph
                    .edges
                    .iter()
                    .filter(|(a, b, _)| {
                        (group.contains(a) && *b == k) || (group.contains(b) && *a == k)
                    })
                    .map(|(_, _, w)| *w)
                    .sum()
            };
            // Strongest ties win; ties broken toward the lowest kernel
            // index for determinism.
            let best = (0..pool.len())
                .max_by(|&i, &j| {
                    affinity(pool[i])
                        .cmp(&affinity(pool[j]))
                        .then(pool[j].cmp(&pool[i]))
                })
                .unwrap();
            group.push(pool.swap_remove(best));
        }
        group
    };

    let cut_weight = |group: &[usize]| -> u64 {
        graph
            .edges
            .iter()
            .filter(|(a, b, _)| {
                let a_in = group.contains(a);
                let b_in = group.contains(b);
                let a_rem = remaining.contains(a);
                let b_rem = remaining.contains(b);
                (a_in && b_rem && !b_in) || (b_in && a_rem && !a_in)
            })
            .map(|(_, _, w)| *w)
            .sum()
    };

    let mut best_group: Option<(u64, Vec<usize>)> = None;
    for &seed in remaining.iter() {
        let group = grow(seed);
        let cut = cut_weight(&group);
        let better = match &best_group {
            None => true,
            Some((best_cut, _)) => cut < *best_cut,
        };
        if better {
            best_group = Some((cut, group));
        }
    }
    let (_, group) = best_group.unwrap();
    remaining.retain(|k| !group.contains(k));
    group
}

/// Worker placement for a pool scheduler: map `n` kernels joined by `links`
/// (`(src, dst)` kernel indices; self-loops ignored) onto `workers`
/// symmetric cores and return `placement[k]` = worker index of kernel `k`.
pub(crate) fn place_on_workers(
    n: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
    workers: usize,
) -> Vec<usize> {
    let mut comm = CommGraph::new(n);
    for (src, dst) in links {
        if src != dst {
            comm.add_edge(src, dst, 1);
        }
    }
    let topo = Domain::symmetric_host("pool", workers.max(1), 100);
    let cores = leaves(&topo);
    map_kernels(&comm, &topo)
        .assignment
        .iter()
        .map(|r| {
            cores
                .iter()
                .position(|core| core == r)
                .expect("the mapper assigns leaves of the topology it was given")
        })
        .collect()
}

/// All leaves of a topology (for round-robin fallback mapping).
pub fn leaves(topology: &Domain) -> Vec<Resource> {
    let mut out = Vec::new();
    topology.leaves(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pipeline of 4 kernels on a 2-host cluster: the single cross-host cut
    /// should land on exactly one pipeline edge.
    #[test]
    fn pipeline_cut_once_across_network() {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 3, 10);
        let topo = Domain::cluster(
            vec![
                Domain::symmetric_host("a", 2, 100),
                Domain::symmetric_host("b", 2, 100),
            ],
            10_000,
        );
        let m = map_kernels(&g, &topo);
        // Exactly one pipeline edge crosses the network: cost 10 * 10_000,
        // plus possibly intra-host cuts at 100.
        let net_cuts = m.cut_cost_ns / 100_000;
        assert_eq!(net_cuts, 1, "expected exactly 1 network cut: {m:?}");
        // Both hosts used (2 kernels each).
        let host_a = m
            .assignment
            .iter()
            .filter(|r| r.name.starts_with("a/"))
            .count();
        assert_eq!(host_a, 2, "{:?}", m.assignment);
    }

    /// Uniform latency: kernels spread evenly across cores (the paper's
    /// fallback behaviour).
    #[test]
    fn uniform_latency_spreads_evenly() {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        let topo = Domain::symmetric_host("host", 4, 100);
        let m = map_kernels(&g, &topo);
        let mut names: Vec<&str> = m.assignment.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4, "each kernel on its own core: {m:?}");
    }

    /// Heavily-communicating pair sticks together when capacity allows.
    #[test]
    fn chatty_pair_stays_on_one_host() {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1, 1000); // chatty pair
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        let topo = Domain::cluster(
            vec![
                Domain::symmetric_host("a", 2, 100),
                Domain::symmetric_host("b", 2, 100),
            ],
            10_000,
        );
        let m = map_kernels(&g, &topo);
        let host_of = |k: usize| m.assignment[k].name.split('/').next().unwrap().to_string();
        assert_eq!(host_of(0), host_of(1), "chatty pair split: {m:?}");
    }

    #[test]
    fn more_kernels_than_cores_share() {
        let mut g = CommGraph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1, 1);
        }
        let topo = Domain::symmetric_host("host", 2, 100);
        let m = map_kernels(&g, &topo);
        assert_eq!(m.assignment.len(), 6);
        // both cores used
        let core0 = m
            .assignment
            .iter()
            .filter(|r| r.name.ends_with("core0"))
            .count();
        assert!((1..=5).contains(&core0));
    }

    #[test]
    fn single_kernel_single_core() {
        let g = CommGraph::new(1);
        let topo = Domain::symmetric_host("h", 1, 10);
        let m = map_kernels(&g, &topo);
        assert_eq!(m.assignment[0].name, "h/core0");
        assert_eq!(m.cut_cost_ns, 0);
    }

    /// The selection matrix of DESIGN §14: heap within a process, shm
    /// across processes on one machine, TCP across machines.
    #[test]
    fn classify_link_selection_matrix() {
        let r = |name: &str| Resource { name: name.into() };
        // Same process (explicit proc segment, or none at all).
        assert_eq!(
            classify_link(&r("a/proc0/core0"), &r("a/proc0/core1")),
            LinkAlloc::Heap
        );
        assert_eq!(classify_link(&r("a/core0"), &r("a/core1")), LinkAlloc::Heap);
        // Same machine, different processes.
        assert_eq!(
            classify_link(&r("a/proc0/core0"), &r("a/proc1/core0")),
            LinkAlloc::Shm
        );
        // Only one side names a process: conservatively co-resident.
        assert_eq!(
            classify_link(&r("a/proc0/core0"), &r("a/core1")),
            LinkAlloc::Heap
        );
        // Different machines always go over the wire, proc or not.
        assert_eq!(
            classify_link(&r("a/proc0/core0"), &r("b/proc0/core0")),
            LinkAlloc::Tcp
        );
        assert_eq!(classify_link(&r("a/core0"), &r("b/core0")), LinkAlloc::Tcp);
        // "processor" is not a proc segment; "proc12" is.
        assert_eq!(r("a/processor/core0").process(), None);
        assert_eq!(r("a/proc12/core0").process(), Some("proc12"));
    }

    /// A chatty pair placed by the partitioner stays inside one process of
    /// a multi-process host; the cut edge classifies as shm.
    #[test]
    fn multi_process_host_cuts_classify_shm() {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1, 1000); // chatty pair
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        let topo = Domain::multi_process_host("node0", 2, 2, 2_000, 100);
        assert_eq!(topo.capacity(), 4);
        let m = map_kernels(&g, &topo);
        let chatty = classify_link(&m.assignment[0], &m.assignment[1]);
        assert_eq!(chatty, LinkAlloc::Heap, "chatty pair split: {m:?}");
        // Some pipeline edge crosses the process boundary.
        let crossings = (0..3)
            .filter(|&i| classify_link(&m.assignment[i], &m.assignment[i + 1]) == LinkAlloc::Shm)
            .count();
        assert!(crossings >= 1, "no shm edge: {m:?}");
    }

    /// A 6-kernel pipeline on 2 workers: indices in range, 3 kernels each,
    /// exactly one edge cut; a self-loop is ignored, 0 workers means 1.
    #[test]
    fn place_on_workers_returns_balanced_indices() {
        let links: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).chain([(2, 2)]).collect();
        let placement = place_on_workers(6, links.iter().copied(), 2);
        assert_eq!(placement.len(), 6);
        assert!(placement.iter().all(|&w| w < 2), "{placement:?}");
        assert_eq!(placement.iter().filter(|&&w| w == 0).count(), 3);
        let cuts = links
            .iter()
            .filter(|(a, b)| placement[*a] != placement[*b])
            .count();
        assert_eq!(cuts, 1, "a pipeline bisects at one edge: {placement:?}");
        assert_eq!(place_on_workers(3, [(0, 1), (1, 2)], 0), vec![0, 0, 0]);
    }

    #[test]
    fn capacity_counts_leaves() {
        let topo = Domain::cluster(
            vec![
                Domain::symmetric_host("a", 3, 1),
                Domain::symmetric_host("b", 5, 1),
            ],
            100,
        );
        assert_eq!(topo.capacity(), 8);
        assert_eq!(leaves(&topo).len(), 8);
    }
}
