//! Property tests tying the RC0007/RC0008 capacity solver to the discrete
//! event simulator in `raft-model`: the static analysis must never promise
//! more than the simulated queue delivers.

use proptest::prelude::*;
use raft_model::des::{simulate, single_station, ServiceDist};
use raft_model::queues::min_capacity_for_blocking;
use raftlib::prelude::*;

/// Mirrors the blocking threshold RC0007 and RC0008 share.
const THRESHOLD: f64 = 0.05;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Solver soundness against the DES: when `min_capacity_for_blocking`
    /// says capacity `k` keeps steady-state blocking under the threshold,
    /// simulating the M/M/1/k queue agrees within simulation noise.
    #[test]
    fn solver_capacity_is_sound_against_des(
        lambda in 1.0f64..40.0,
        ratio in 0.15f64..0.85,
        seed in 0u64..1_000,
    ) {
        let mu = lambda / ratio; // utilization = ratio < 1
        let k = min_capacity_for_blocking(lambda, mu, THRESHOLD)
            .expect("solver must find a capacity for utilization < 1");
        let net = single_station(lambda, ServiceDist::Exp(mu), 1, k as usize);
        let sim = simulate(&net, 4_000.0 / lambda, seed);
        prop_assert!(
            sim.blocking_probability < THRESHOLD + 0.08,
            "solver said capacity {} keeps blocking under {}, DES measured {}",
            k, THRESHOLD, sim.blocking_probability
        );
    }

    /// When the solver declines (λ ≥ μ, no finite capacity suffices) the
    /// overload is real: the DES still drops arrivals at a roomy buffer.
    #[test]
    fn solver_refusal_means_real_overload(
        mu in 1.0f64..20.0,
        over in 1.1f64..3.0,
        seed in 0u64..1_000,
    ) {
        let lambda = mu * over;
        prop_assert_eq!(min_capacity_for_blocking(lambda, mu, THRESHOLD), None);
        let net = single_station(lambda, ServiceDist::Exp(mu), 1, 16);
        let sim = simulate(&net, 4_000.0 / lambda, seed);
        prop_assert!(
            sim.blocking_probability > 0.01,
            "overloaded stream (x{} over capacity) showed no blocking: {}",
            over, sim.blocking_probability
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The certify-or-counterexample contract, end to end: RC0008 never
    /// certifies a feedback cycle whose witness stream the DES can wedge.
    /// A bounded-FIFO cycle deadlocks only if every cycle queue stays full;
    /// the certificate names a witness stream that provably keeps space, so
    /// simulating that stream at its configured capacity must show blocking
    /// below the certification threshold (plus simulation noise).
    #[test]
    fn rc0008_never_certifies_a_cycle_the_des_can_wedge(
        lambda in 2.0f64..20.0,
        ratio in 0.10f64..0.90,
        cap_pow in 0u32..6,
        seed in 0u64..500,
    ) {
        let mu = lambda / ratio;
        let cap = 1usize << cap_pow;
        let mut m = RaftMap::new();
        let src = m.add(Src);
        let a = m.add(Stage);
        let b = m.add(FbStage);
        let sink = m.add(Sink);
        m.link(src, "out", a, "in").unwrap();
        m.link_with(a, "out", b, "in", FifoConfig::fixed(cap)).unwrap();
        m.link(b, "out", sink, "in").unwrap();
        m.link_with(b, "fb", a, "fb", FifoConfig::fixed(cap)).unwrap();
        m.declare_service_rate(a, lambda);
        m.declare_service_rate(b, mu);

        let diags = m.check();
        let rc8 = diags.iter().find(|d| d.code == "RC0008")
            .expect("cycle with declared rates must get an RC0008 verdict");
        if rc8.severity == Severity::Info {
            // Certified: the witness is the a -> b stream (the only cycle
            // stream with lambda < mu). Simulate it at the configured
            // capacity and demand the promised slack.
            let net = single_station(lambda, ServiceDist::Exp(mu), 1, cap);
            let sim = simulate(&net, 4_000.0 / lambda, seed);
            prop_assert!(
                sim.blocking_probability < THRESHOLD + 0.10,
                "RC0008 certified capacity {} for rates {} -> {}, but the \
                 DES wedges the witness stream {} of the time",
                cap, lambda, mu, sim.blocking_probability
            );
        } else {
            // Refuted: the finding must carry the concrete counterexample
            // and (lambda < mu here) a minimal repair in the help line.
            prop_assert!(rc8.message.contains("counterexample token-flow"));
            prop_assert!(
                rc8.help.as_deref().unwrap_or_default().contains("FifoConfig::fixed"),
                "feasible rates must yield a minimal capacity repair: {:?}",
                rc8.help
            );
        }
    }
}
