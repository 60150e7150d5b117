//! Discrete-event simulation of streaming queueing networks.
//!
//! The paper leans on analytic queueing results (M/M/1 family, flow models)
//! but notes their assumptions — product form, steady state — often break
//! in real streaming systems (§3). This simulator is the ground truth the
//! analytic machinery is validated against: a tandem/branching network of
//! service stations with finite buffers and blocking-after-service, driven
//! by an event calendar.
//!
//! Used by tests to confirm:
//! * M/M/1 and M/M/1/K closed forms (occupancy, blocking) match simulation;
//! * the flow model's throughput prediction matches simulated saturation
//!   throughput for pipelines with replicated stages.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use raft_rng::Rng;

/// Service-time distribution of a station.
#[derive(Debug, Clone, Copy)]
pub enum ServiceDist {
    /// Exponential with the given rate (mean 1/rate).
    Exp(f64),
    /// Deterministic service time.
    Det(f64),
    /// Uniform on `[lo, hi]`.
    Uniform(f64, f64),
}

impl ServiceDist {
    fn sample(&self, rng: &mut Rng) -> f64 {
        match *self {
            ServiceDist::Exp(rate) => {
                let u: f64 = rng.range(f64::EPSILON..1.0);
                -u.ln() / rate
            }
            ServiceDist::Det(t) => t,
            ServiceDist::Uniform(lo, hi) => rng.range(lo..=hi),
        }
    }

    /// Mean service time.
    pub fn mean(&self) -> f64 {
        match *self {
            ServiceDist::Exp(rate) => 1.0 / rate,
            ServiceDist::Det(t) => t,
            ServiceDist::Uniform(lo, hi) => (lo + hi) / 2.0,
        }
    }
}

/// One station (≈ one kernel): `servers` parallel replicas sharing an
/// input buffer of `buffer` slots (including in-service items).
#[derive(Debug, Clone)]
pub struct Station {
    /// Display name.
    pub name: String,
    /// Service time distribution of one replica.
    pub service: ServiceDist,
    /// Parallel replica count.
    pub servers: u32,
    /// Input buffer capacity (`usize::MAX` = unbounded).
    pub buffer: usize,
    /// Index of the downstream station, or `None` for a sink edge.
    pub next: Option<usize>,
}

/// Network description: stations chained by their `next` indices; station 0
/// receives external arrivals.
#[derive(Debug, Clone)]
pub struct Network {
    /// The stations.
    pub stations: Vec<Station>,
    /// External Poisson arrival rate into station 0.
    pub arrival_rate: f64,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Items that left the network.
    pub departures: u64,
    /// Items turned away at station 0 (arrival found the buffer full).
    pub drops: u64,
    /// Simulated time horizon.
    pub horizon: f64,
    /// Departure throughput (items per simulated second).
    pub throughput: f64,
    /// Time-averaged number in system per station.
    pub mean_in_system: Vec<f64>,
    /// Fraction of arrivals to station 0 that were blocked/dropped.
    pub blocking_probability: f64,
}

#[derive(Debug, PartialEq)]
enum Event {
    Arrival,
    Departure { station: usize },
}

/// Ordered event calendar entry.
struct Entry {
    at: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .partial_cmp(&other.at)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

/// State of one station during simulation.
struct StationState {
    /// Items in the station (queued + in service).
    in_system: usize,
    /// Busy replicas.
    busy: u32,
    /// Integral of in_system over time (for time averages).
    area: f64,
    last_change: f64,
}

/// Simulate `net` for `horizon` simulated seconds (seeded, deterministic).
///
/// Blocking model: an item finishing service at station *i* moves to
/// station `next[i]` only if that buffer has room; otherwise it *waits in
/// place*, holding its server (blocking-after-service — what a full
/// downstream FIFO does to a streaming kernel). External arrivals finding
/// station 0 full are dropped and counted.
pub fn simulate(net: &Network, horizon: f64, seed: u64) -> SimReport {
    assert!(!net.stations.is_empty());
    assert!(net.arrival_rate > 0.0);
    let mut rng = Rng::new(seed);
    let n = net.stations.len();
    let mut state: Vec<StationState> = (0..n)
        .map(|_| StationState {
            in_system: 0,
            busy: 0,
            area: 0.0,
            last_change: 0.0,
        })
        .collect();
    // Items blocked after service at station i, waiting for room downstream.
    let mut blocked_after_service = vec![0u32; n];

    let mut cal: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |cal: &mut BinaryHeap<Reverse<Entry>>, seq: &mut u64, at: f64, event: Event| {
        *seq += 1;
        cal.push(Reverse(Entry {
            at,
            seq: *seq,
            event,
        }));
    };

    // first arrival
    let dt = ServiceDist::Exp(net.arrival_rate).sample(&mut rng);
    push(&mut cal, &mut seq, dt, Event::Arrival);

    let mut arrivals = 0u64;
    let mut drops = 0u64;
    let mut departures = 0u64;

    // Advance a station's time-average integral.
    macro_rules! touch {
        ($i:expr, $now:expr) => {{
            let s = &mut state[$i];
            s.area += s.in_system as f64 * ($now - s.last_change);
            s.last_change = $now;
        }};
    }

    // Try to begin service at station i if a server and an unserved item
    // are available.
    macro_rules! try_start {
        ($i:expr, $now:expr, $cal:expr, $seq:expr, $rng:expr) => {{
            let st = &net.stations[$i];
            let unserved = state[$i].in_system as i64
                - state[$i].busy as i64
                - blocked_after_service[$i] as i64;
            if unserved > 0 && state[$i].busy + blocked_after_service[$i] < st.servers {
                state[$i].busy += 1;
                let t = st.service.sample($rng);
                push($cal, $seq, $now + t, Event::Departure { station: $i });
            }
        }};
    }

    while let Some(Reverse(Entry { at: now, event, .. })) = cal.pop() {
        if now > horizon {
            break;
        }
        match event {
            Event::Arrival => {
                arrivals += 1;
                // schedule next external arrival
                let dt = ServiceDist::Exp(net.arrival_rate).sample(&mut rng);
                push(&mut cal, &mut seq, now + dt, Event::Arrival);
                let s0 = &net.stations[0];
                if state[0].in_system >= s0.buffer {
                    drops += 1;
                } else {
                    touch!(0, now);
                    state[0].in_system += 1;
                    try_start!(0, now, &mut cal, &mut seq, &mut rng);
                }
            }
            Event::Departure { station: i } => {
                // Service completed at i; try to hand off downstream.
                match net.stations[i].next {
                    Some(j) if state[j].in_system >= net.stations[j].buffer => {
                        // Downstream full: block in place, keep the server.
                        state[i].busy -= 1;
                        blocked_after_service[i] += 1;
                        // Re-check on the next departure from j (handled
                        // below when j drains).
                    }
                    Some(j) => {
                        touch!(i, now);
                        touch!(j, now);
                        state[i].in_system -= 1;
                        state[i].busy -= 1;
                        state[j].in_system += 1;
                        try_start!(j, now, &mut cal, &mut seq, &mut rng);
                        try_start!(i, now, &mut cal, &mut seq, &mut rng);
                        // i drained one slot: unblock an upstream blocker.
                        unblock_feeders(
                            net,
                            &mut state,
                            &mut blocked_after_service,
                            i,
                            now,
                            &mut cal,
                            &mut seq,
                            &mut rng,
                            &mut departures,
                        );
                    }
                    None => {
                        touch!(i, now);
                        state[i].in_system -= 1;
                        state[i].busy -= 1;
                        departures += 1;
                        try_start!(i, now, &mut cal, &mut seq, &mut rng);
                        unblock_feeders(
                            net,
                            &mut state,
                            &mut blocked_after_service,
                            i,
                            now,
                            &mut cal,
                            &mut seq,
                            &mut rng,
                            &mut departures,
                        );
                    }
                }
            }
        }
    }

    let mean_in_system = state
        .iter()
        .map(|s| {
            let mut area = s.area;
            area += s.in_system as f64 * (horizon - s.last_change);
            area / horizon
        })
        .collect();
    SimReport {
        departures,
        drops,
        horizon,
        throughput: departures as f64 / horizon,
        mean_in_system,
        blocking_probability: if arrivals == 0 {
            0.0
        } else {
            drops as f64 / arrivals as f64
        },
    }
}

/// After station `drained` freed a buffer slot, move one blocked-after-
/// service item from any upstream feeder into it (cascading upstream).
#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn unblock_feeders(
    net: &Network,
    state: &mut [StationState],
    blocked: &mut [u32],
    drained: usize,
    now: f64,
    cal: &mut BinaryHeap<Reverse<Entry>>,
    seq: &mut u64,
    rng: &mut Rng,
    departures: &mut u64,
) {
    // Find a feeder of `drained` holding a blocked item.
    for i in 0..net.stations.len() {
        if net.stations[i].next == Some(drained)
            && blocked[i] > 0
            && state[drained].in_system < net.stations[drained].buffer
        {
            blocked[i] -= 1;
            // advance time-average integrals
            let s = &mut state[i];
            s.area += s.in_system as f64 * (now - s.last_change);
            s.last_change = now;
            let d = &mut state[drained];
            d.area += d.in_system as f64 * (now - d.last_change);
            d.last_change = now;

            state[i].in_system -= 1;
            state[drained].in_system += 1;
            // the freed server at i can start the next item
            let st = &net.stations[i];
            let unserved = state[i].in_system as i64 - state[i].busy as i64 - blocked[i] as i64;
            if unserved > 0 && state[i].busy + blocked[i] < st.servers {
                state[i].busy += 1;
                let t = st.service.sample(rng);
                *seq += 1;
                cal.push(Reverse(Entry {
                    at: now + t,
                    seq: *seq,
                    event: Event::Departure { station: i },
                }));
            }
            // start service at drained for the newly arrived item
            let st = &net.stations[drained];
            let unserved = state[drained].in_system as i64
                - state[drained].busy as i64
                - blocked[drained] as i64;
            if unserved > 0 && state[drained].busy + blocked[drained] < st.servers {
                state[drained].busy += 1;
                let t = st.service.sample(rng);
                *seq += 1;
                cal.push(Reverse(Entry {
                    at: now + t,
                    seq: *seq,
                    event: Event::Departure { station: drained },
                }));
            }
            // the upstream slot freed at i may itself unblock i's feeders
            unblock_feeders(net, state, blocked, i, now, cal, seq, rng, departures);
            return;
        }
    }
}

/// Convenience: a single M/M/c/K station fed at `lambda`.
pub fn single_station(lambda: f64, service: ServiceDist, servers: u32, buffer: usize) -> Network {
    Network {
        stations: vec![Station {
            name: "station".into(),
            service,
            servers,
            buffer,
            next: None,
        }],
        arrival_rate: lambda,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{MM1, MM1K};

    const HORIZON: f64 = 20_000.0;

    #[test]
    fn mm1_occupancy_matches_theory() {
        // λ=5, μ=10 → L = 1.0
        let net = single_station(5.0, ServiceDist::Exp(10.0), 1, usize::MAX);
        let sim = simulate(&net, HORIZON, 42);
        let theory = MM1::new(5.0, 10.0).mean_in_system();
        assert!(
            (sim.mean_in_system[0] - theory).abs() < 0.1,
            "sim {} vs theory {theory}",
            sim.mean_in_system[0]
        );
        // throughput ≈ λ (stable queue)
        assert!((sim.throughput - 5.0).abs() < 0.15, "{}", sim.throughput);
    }

    #[test]
    fn mm1k_blocking_matches_theory() {
        // λ=9, μ=10, K=4: appreciable blocking
        let net = single_station(9.0, ServiceDist::Exp(10.0), 1, 4);
        let sim = simulate(&net, HORIZON, 7);
        let theory = MM1K::new(9.0, 10.0, 4).blocking_probability();
        assert!(
            (sim.blocking_probability - theory).abs() < 0.02,
            "sim {} vs theory {theory}",
            sim.blocking_probability
        );
    }

    #[test]
    fn md1_queue_shorter_than_mm1() {
        let exp = simulate(
            &single_station(8.0, ServiceDist::Exp(10.0), 1, usize::MAX),
            HORIZON,
            1,
        );
        let det = simulate(
            &single_station(8.0, ServiceDist::Det(0.1), 1, usize::MAX),
            HORIZON,
            1,
        );
        assert!(
            det.mean_in_system[0] < exp.mean_in_system[0],
            "deterministic service must queue less: {} vs {}",
            det.mean_in_system[0],
            exp.mean_in_system[0]
        );
    }

    #[test]
    fn tandem_throughput_limited_by_bottleneck() {
        // stage0 fast (μ=50), stage1 slow (μ=8), fed at λ=20:
        // flow model predicts throughput 8.
        let net = Network {
            stations: vec![
                Station {
                    name: "fast".into(),
                    service: ServiceDist::Exp(50.0),
                    servers: 1,
                    buffer: 16,
                    next: Some(1),
                },
                Station {
                    name: "slow".into(),
                    service: ServiceDist::Exp(8.0),
                    servers: 1,
                    buffer: 16,
                    next: None,
                },
            ],
            arrival_rate: 20.0,
        };
        let sim = simulate(&net, HORIZON, 3);
        assert!(
            (sim.throughput - 8.0).abs() < 0.4,
            "bottleneck rate 8, simulated {}",
            sim.throughput
        );
    }

    #[test]
    fn replication_lifts_bottleneck_as_flow_model_predicts() {
        use crate::flow::{FlowGraph, FlowKernel};
        // slow stage replicated 3x: flow model predicts min(λ, 3μ)
        let lambda = 20.0;
        let mu = 8.0;
        let servers = 3;
        let net = Network {
            stations: vec![Station {
                name: "work".into(),
                service: ServiceDist::Exp(mu),
                servers,
                buffer: 64,
                next: None,
            }],
            arrival_rate: lambda,
        };
        let sim = simulate(&net, HORIZON, 9);

        let mut g = FlowGraph::new();
        let src = g.add_kernel(FlowKernel::new("src", f64::INFINITY, 1.0));
        let work = g.add_kernel(FlowKernel::new("work", mu, 1.0).with_replicas(servers));
        g.add_edge(src, work);
        g.set_source_rate(src, lambda);
        let predicted = g.analyze().throughput;

        assert!(
            (sim.throughput - predicted).abs() / predicted < 0.06,
            "flow model {predicted} vs sim {}",
            sim.throughput
        );
    }

    #[test]
    fn tiny_buffer_throttles_throughput() {
        // Same rates, buffer 1 vs buffer 64: the tiny buffer loses
        // throughput to blocking — Figure 4's left side.
        let mk = |buffer| Network {
            stations: vec![
                Station {
                    name: "a".into(),
                    service: ServiceDist::Exp(12.0),
                    servers: 1,
                    buffer: 64,
                    next: Some(1),
                },
                Station {
                    name: "b".into(),
                    service: ServiceDist::Exp(12.0),
                    servers: 1,
                    buffer,
                    next: None,
                },
            ],
            arrival_rate: 10.0,
        };
        let tiny = simulate(&mk(1), HORIZON, 5);
        let roomy = simulate(&mk(64), HORIZON, 5);
        assert!(
            tiny.throughput < roomy.throughput * 0.97,
            "tiny {} vs roomy {}",
            tiny.throughput,
            roomy.throughput
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let net = single_station(5.0, ServiceDist::Exp(10.0), 1, 8);
        let a = simulate(&net, 1000.0, 11);
        let b = simulate(&net, 1000.0, 11);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.drops, b.drops);
    }

    #[test]
    fn uniform_service_mean() {
        let d = ServiceDist::Uniform(0.5, 1.5);
        assert!((d.mean() - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(0);
        let avg: f64 = (0..10_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 10_000.0;
        assert!((avg - 1.0).abs() < 0.02);
    }
}
