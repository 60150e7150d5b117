//! Golden-snapshot tests: the exact rendered [`Diagnostic`] text of every
//! RC code, byte for byte. They live inside the crate, under
//! `analysis::`, so the release CI leg that filters on that path runs them
//! in the build the benchmark measures. If a message is reworded these
//! tests fail loudly — rewording is fine, silent drift is not.

use raft_buffer::FifoConfig;

use crate::diagnostics::Diagnostic;
use crate::kernel::{KStatus, Kernel, PortSpec};
use crate::map::RaftMap;
use crate::port::Context;
use crate::supervise::SupervisorPolicy;

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

struct Map1;
impl Kernel for Map1 {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<u32>("in").output::<u32>("out")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

struct Stage;
impl Kernel for Stage {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<u32>("in")
            .input::<u32>("fb")
            .output::<u32>("out")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

struct FbStage;
impl Kernel for FbStage {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<u32>("in")
            .output::<u32>("out")
            .output::<u32>("fb")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

/// src -> a(Stage) -> b(FbStage) -> sink, with b.fb -> a.fb closing the
/// cycle {a, b}. Cycle links get fixed capacities so RC0008's numbers are
/// pinned.
fn cyclic_map(cycle_cap: usize) -> (RaftMap, crate::map::KernelId, crate::map::KernelId) {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let a = map.add(Stage);
    let b = map.add(FbStage);
    let sink = map.add(Sink);
    map.link(src, "out", a, "in").unwrap();
    map.link_with(a, "out", b, "in", FifoConfig::fixed(cycle_cap))
        .unwrap();
    map.link(b, "out", sink, "in").unwrap();
    map.link_with(b, "fb", a, "fb", FifoConfig::fixed(cycle_cap))
        .unwrap();
    (map, a, b)
}

fn find(diags: &[Diagnostic], code: &str) -> Diagnostic {
    diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {code} in {diags:#?}"))
        .clone()
}

#[test]
fn golden_rc0001_unconnected_port() {
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let a = m.add(Stage);
    let sink = m.add(Sink);
    m.link(src, "out", a, "in").unwrap();
    m.link(a, "out", sink, "in").unwrap();
    let d = find(&m.check(), "RC0001");
    assert_eq!(
        d.to_string(),
        "error[RC0001] unconnected-port: input port \"fb\" of kernel \
         \"Stage#1\" is not connected"
    );
}

#[test]
fn golden_rc0002_missing_endpoint() {
    let d = find(&RaftMap::new().check(), "RC0002");
    assert_eq!(
        d.to_string(),
        "error[RC0002] missing-endpoint: map contains no kernels"
    );
}

/// The text of the retired `RC0003` `cycle` pass, now `RC0008`'s finding
/// on a cycle without declared rates.
#[test]
fn golden_rc0003_cycle_unknown_rates() {
    let d = find(&cyclic_map(4).0.check(), "RC0008");
    assert_eq!(
        d.to_string(),
        "error[RC0008] feedback-deadlock: cycle of bounded streams through {Stage#1, \
         FbStage#2}: once every queue on the cycle fills, all 2 kernels \
         block forever (downgrade via MapConfig::check.cycle_severity if \
         the feedback edge is provably drained); declare service rates on \
         {Stage#1, FbStage#2} to let RC0008 attempt a deadlock-freedom \
         certificate"
    );
}

#[test]
fn golden_rc0004_unreachable() {
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let sink = m.add(Sink);
    let island = m.add(Map1);
    let island_sink = m.add(Sink);
    m.link(src, "out", sink, "in").unwrap();
    m.link(island, "out", island_sink, "in").unwrap();
    let d = find(&m.check(), "RC0004");
    assert_eq!(
        d.to_string(),
        "error[RC0004] unreachable: kernel(s) {Map1#2, Sink#3} are not \
         reachable from any source: their inputs will never receive data"
    );
}

#[test]
fn golden_rc0007_capacity() {
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let sink = m.add(Sink);
    m.link_with(src, "out", sink, "in", FifoConfig::fixed(1))
        .unwrap();
    m.declare_service_rate(src, 100.0);
    m.declare_service_rate(sink, 10.0);
    let d = find(&m.check(), "RC0007");
    // M/M/1/1 with rho = 10: blocking = rho/(1+rho) = 10/11 ~ 90.9%.
    assert_eq!(
        d.to_string(),
        "warning[RC0007] capacity: stream Src#0.out -> Sink#1.in (capacity \
         ceiling 1) cannot sustain the declared rates λ=100/s -> μ=10/s: \
         steady-state producer blocking ≈ 90.9%\n    help: no finite \
         capacity suffices (λ ≥ μ): widen the consumer or lower the \
         producer rate"
    );
}

#[test]
fn golden_rc0008_certified() {
    let (mut m, a, b) = cyclic_map(4);
    // Cycle members: Stage#1 (10/s) feeding FbStage#2 (100/s). The forward
    // stream has lambda < mu: minimal capacity 2, configured 4 -> witness.
    m.declare_service_rate(a, 10.0);
    m.declare_service_rate(b, 100.0);
    let d = find(&m.check(), "RC0008");
    assert_eq!(
        d.to_string(),
        "info[RC0008] feedback-deadlock: feedback cycle through {Stage#1, \
         FbStage#2} certified deadlock-free under the declared service \
         rates: deadlock requires every cycle queue to fill, but \
         Stage#1.out -> FbStage#2.in (capacity 4 ≥ minimal 2) keeps \
         steady-state blocking ≤ 5% and can never stay full"
    );
}

#[test]
fn golden_rc0008_refuted() {
    let (mut m, a, b) = cyclic_map(1);
    // Same rates, but the forward stream's capacity (1) is below the
    // minimal assignment (2): no witness, cycle refuted.
    m.declare_service_rate(a, 10.0);
    m.declare_service_rate(b, 100.0);
    let d = find(&m.check(), "RC0008");
    assert_eq!(
        d.to_string(),
        "error[RC0008] feedback-deadlock: feedback cycle through {Stage#1, \
         FbStage#2} can deadlock under the declared service rates: every \
         stream on the cycle can fill; counterexample token-flow: push 1 \
         tokens into Stage#1.out -> FbStage#2.in (Stage#1 now blocks), \
         then push 1 tokens into FbStage#2.fb -> Stage#1.fb (FbStage#2 now \
         blocks); every kernel on the cycle is now blocked pushing and no \
         consumer can free space\n    help: minimal capacity assignment: \
         raise Stage#1.out -> FbStage#2.in from 1 to ≥ 2 (link_with(.., \
         FifoConfig::fixed(2))) so one cycle queue provably never fills"
    );
}

#[test]
fn golden_rc0009_replication_safety() {
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let stage = m.add(Map1);
    let sink = m.add(Sink);
    m.link(src, "out", stage, "in").unwrap();
    m.link(stage, "out", sink, "in").unwrap();
    m.prefer_width(stage, 2); // Map1 has no clone_replica.
    let d = find(&m.check(), "RC0009");
    assert_eq!(
        d.to_string(),
        "warning[RC0009] replication-safety: kernel Map1#1 requests width \
         2 but Kernel::clone_replica returns None: the kernel carries \
         non-replicable state and will run sequentially\n    help: \
         implement clone_replica() for the kernel, or pin it sequential \
         with prefer_width(k, 1)"
    );
}

#[test]
fn golden_rc0011_fusion() {
    struct FMap;
    impl Kernel for FMap {
        fn ports(&self) -> PortSpec {
            PortSpec::new().input::<u32>("in").output::<u32>("out")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
        fn is_stateless(&self) -> bool {
            true
        }
        fn batch_stage(&self) -> Option<Box<dyn crate::kernel::ErasedBatchStage>> {
            Some(crate::kernel::per_element("fmap", |v: u32| v))
        }
    }
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let a = m.add(FMap);
    let b = m.add(FMap);
    let sink = m.add(Sink);
    m.link(src, "out", a, "in").unwrap();
    m.link(a, "out", b, "in").unwrap();
    m.link(b, "out", sink, "in").unwrap();
    let d = find(&m.check(), "RC0011");
    assert_eq!(
        d.to_string(),
        "info[RC0011] fusion: kernels FMap#1 -> FMap#2 fuse into one \
         batch-executed kernel, eliminating 1 interior stream(s) and their \
         scheduler hops; the fused group restarts as a unit\n    help: \
         set MapConfig::fusion.enabled = false to A/B against the unfused \
         graph"
    );
}

#[test]
fn golden_rc0010_supervision_soundness() {
    let mut m = RaftMap::new();
    let src = m.add(Src);
    let sink = m.add(Sink);
    m.link(src, "out", sink, "in").unwrap();
    m.supervise(sink, SupervisorPolicy::restart(3));
    let d = find(&m.check(), "RC0010");
    assert_eq!(
        d.to_string(),
        "warning[RC0010] supervision-soundness: Restart policy on stateful \
         kernel Sink#1: without clone_replica the scheduler re-enters the \
         same instance, whose state is whatever the panic left behind\n    \
         help: implement clone_replica() for clean-slate restarts, use \
         SupervisorPolicy::replace with a factory, or declare_stateless(k) \
         if the kernel has no cross-item state"
    );
}
