//! Integration tests for the static graph checker (`raft-check`): the lint
//! registry behind [`RaftMap::check`] and the `exe()` fail-fast gate.

use raftlib::prelude::*;

struct Src;
impl Kernel for Src {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<i64>("out")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

struct Sink;
impl Kernel for Sink {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<i64>("in")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

/// A pass-through stage with a feedback input — lets tests build cycles
/// through the public `link` API.
struct Stage;
impl Kernel for Stage {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<i64>("in")
            .input::<i64>("fb")
            .output::<i64>("out")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

/// A stage that also produces the feedback edge.
struct FbStage;
impl Kernel for FbStage {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<i64>("in")
            .output::<i64>("out")
            .output::<i64>("fb")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

struct Map1;
impl Kernel for Map1 {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<i64>("in").output::<i64>("out")
    }
    fn run(&mut self, _ctx: &Context) -> KStatus {
        KStatus::Stop
    }
}

/// src -> a(Stage) -> b(FbStage) -> sink, with b.fb -> a.fb closing a cycle
/// {a, b}. Every port is connected, so RC0008 is the only error.
fn cyclic_map() -> RaftMap {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let a = map.add(Stage);
    let b = map.add(FbStage);
    let sink = map.add(Sink);
    map.link(src, "out", a, "in").unwrap();
    map.link(a, "out", b, "in").unwrap();
    map.link(b, "out", sink, "in").unwrap();
    map.link(b, "fb", a, "fb").unwrap();
    map
}

/// An unrated cycle gets the text of the retired `RC0003` `cycle` pass,
/// now reported under RC0008.
#[test]
fn cycle_is_diagnosed_with_rc0003() {
    let map = cyclic_map();
    let diags = map.check();
    let cycles: Vec<_> = diags.iter().filter(|d| d.code == "RC0008").collect();
    assert_eq!(cycles.len(), 1, "{diags:?}");
    let d = cycles[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("Stage#1"), "{}", d.message);
    assert!(d.message.contains("FbStage#2"), "{}", d.message);
    assert_eq!(d.kernels, vec![1, 2]);
    // Both intra-cycle links (a->b and b->a) are attached for highlighting.
    assert_eq!(d.links.len(), 2);
}

#[test]
fn exe_refuses_cyclic_map_fast() {
    let started = std::time::Instant::now();
    let err = cyclic_map().exe().unwrap_err();
    // Fail-fast: refused by static analysis, not by a runtime hang/timeout.
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    match err {
        ExeError::CheckFailed { diagnostics } => {
            assert!(diagnostics.iter().any(|d| d.code == "RC0008"));
            assert!(diagnostics.iter().any(|d| d.is_error()));
        }
        other => panic!("expected CheckFailed, got {other:?}"),
    }
}

#[test]
fn cycle_severity_is_configurable() {
    let mut map = cyclic_map();
    map.config_mut().check.cycle_severity = Severity::Warn;
    let diags = map.check();
    let cycle = diags.iter().find(|d| d.code == "RC0008").unwrap();
    assert_eq!(cycle.severity, Severity::Warn);
    assert!(!diags.iter().any(|d| d.is_error()), "{diags:?}");
    // Downgraded to a warning, the gate lets the graph through the static
    // check (it would then hang at runtime — that is the caller's call).
}

#[test]
fn unreachable_kernel_is_diagnosed_with_rc0004() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let sink = map.add(Sink);
    // An orphan island m -> s2 beside the real pipeline: m's input has no
    // upstream, so no token from any source can ever reach the island.
    let m = map.add(Map1);
    let s2 = map.add(Sink);
    map.link(src, "out", sink, "in").unwrap();
    map.link(m, "out", s2, "in").unwrap();
    let diags = map.check();
    let unreachable = diags.iter().find(|d| d.code == "RC0004").unwrap();
    assert_eq!(unreachable.severity, Severity::Error);
    assert!(
        unreachable.message.contains("Map1#2"),
        "{}",
        unreachable.message
    );
    assert!(
        unreachable.message.contains("Sink#3"),
        "{}",
        unreachable.message
    );
    assert_eq!(unreachable.kernels, vec![2, 3]);
}

#[test]
fn unconnected_port_is_diagnosed_with_rc0001() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let a = map.add(Stage);
    let sink = map.add(Sink);
    map.link(src, "out", a, "in").unwrap();
    map.link(a, "out", sink, "in").unwrap();
    // a.fb left dangling.
    let diags = map.check();
    let dangling: Vec<_> = diags.iter().filter(|d| d.code == "RC0001").collect();
    assert_eq!(dangling.len(), 1, "{diags:?}");
    assert!(
        dangling[0].message.contains("fb"),
        "{}",
        dangling[0].message
    );
    assert!(
        dangling[0].message.contains("Stage#1"),
        "{}",
        dangling[0].message
    );
}

#[test]
fn graph_without_source_or_sink_is_diagnosed_with_rc0002() {
    // Two stages feeding each other: no source, no sink (and a cycle).
    let mut map = RaftMap::new();
    let a = map.add(Map1);
    let b = map.add(Map1);
    map.link(a, "out", b, "in").unwrap();
    map.link(b, "out", a, "in").unwrap();
    let diags = map.check();
    let endpoints: Vec<_> = diags.iter().filter(|d| d.code == "RC0002").collect();
    assert_eq!(endpoints.len(), 2, "{diags:?}");
    assert!(endpoints.iter().any(|d| d.message.contains("no source")));
    assert!(endpoints.iter().any(|d| d.message.contains("no sink")));
    assert!(diags.iter().any(|d| d.code == "RC0008"));
}

#[test]
fn empty_map_is_diagnosed() {
    let map = RaftMap::new();
    let diags = map.check();
    assert!(diags.iter().any(|d| d.code == "RC0002" && d.is_error()));
}

#[test]
fn rc0007_help_names_minimum_feasible_capacity() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let sink = map.add(Sink);
    // Feasible rates (mu > lambda) but a deliberately tiny fixed capacity:
    // the help line must name the computed minimum, not just warn.
    map.link_with(src, "out", sink, "in", FifoConfig::fixed(1))
        .unwrap();
    map.declare_service_rate(src, 80.0);
    map.declare_service_rate(sink, 100.0);
    let diags = map.check();
    let cap = diags.iter().find(|d| d.code == "RC0007").unwrap();
    let help = cap.help.as_deref().unwrap_or_default();
    assert!(
        help.contains("capacity ceiling of"),
        "help must carry the computed minimum: {help}"
    );
}

/// RC0008: a seeded bad graph (under-provisioned feedback loop) is
/// rejected with an actionable diagnostic; applying the suggested minimal
/// capacity turns the same graph into a certified one that passes.
#[test]
fn rc0008_refutes_bad_cycle_and_certifies_corrected_one() {
    let build = |cap: usize| {
        let mut map = RaftMap::new();
        let src = map.add(Src);
        let a = map.add(Stage);
        let b = map.add(FbStage);
        let sink = map.add(Sink);
        map.link(src, "out", a, "in").unwrap();
        map.link_with(a, "out", b, "in", FifoConfig::fixed(cap))
            .unwrap();
        map.link(b, "out", sink, "in").unwrap();
        map.link_with(b, "fb", a, "fb", FifoConfig::fixed(1))
            .unwrap();
        // Forward stream a->b is drained 10x faster than filled; the
        // feedback stream is overloaded by construction (rates around a
        // cycle multiply to 1), so certification hinges on a->b's capacity.
        map.declare_service_rate(a, 10.0);
        map.declare_service_rate(b, 100.0);
        map
    };

    // Bad: capacity 1 on the witness candidate is below the minimum (2).
    let bad = build(1);
    let diags = bad.check();
    let rc8 = diags.iter().find(|d| d.code == "RC0008").unwrap();
    assert!(rc8.is_error(), "{rc8}");
    assert!(rc8.message.contains("counterexample"), "{}", rc8.message);
    let help = rc8.help.as_deref().unwrap_or_default();
    assert!(
        help.contains("≥ 2"),
        "actionable minimal assignment: {help}"
    );
    assert!(bad.exe().is_err(), "refuted cycle must not run");

    // Corrected: apply the suggested assignment -> certificate, no errors.
    let good = build(2);
    let diags = good.check();
    let rc8 = diags.iter().find(|d| d.code == "RC0008").unwrap();
    assert_eq!(rc8.severity, Severity::Info, "{rc8}");
    assert!(
        rc8.message.contains("certified deadlock-free"),
        "{}",
        rc8.message
    );
    // The certificate is the cycle's one finding, so nothing blocks exe().
    let on_cycle = diags.iter().filter(|d| d.links == rc8.links).count();
    assert_eq!(on_cycle, 1, "{diags:?}");
    assert!(!diags.iter().any(|d| d.is_error()), "{diags:?}");
}

/// Each bounded-FIFO cycle yields exactly one finding, whatever the solver
/// concludes: the unrated cycle a deadlock risk at `cycle_severity`, the
/// rated one a certificate when its forward stream holds the minimal
/// capacity (2) and a counterexample when it does not. `exe()` follows the
/// severity: it refuses the errors and runs the rest.
#[test]
fn each_cycle_yields_one_finding() {
    use Severity::{Error, Info, Warn};
    let rated = Some((10.0, 100.0));
    // (rates, forward-stream capacity, cycle_severity) ->
    // (severity, what the message says).
    let rows = [
        (None, 4, Error, Error, "declare service rates"),
        (None, 4, Warn, Warn, "declare service rates"),
        (rated, 2, Error, Info, "certified"),
        (rated, 1, Error, Error, "counterexample"),
    ];
    for (rates, cap, cycle_severity, severity, says) in rows {
        let mut map = RaftMap::new();
        let src = map.add(Src);
        let a = map.add(Stage);
        let b = map.add(FbStage);
        let sink = map.add(Sink);
        map.link(src, "out", a, "in").unwrap();
        map.link_with(a, "out", b, "in", FifoConfig::fixed(cap))
            .unwrap();
        map.link(b, "out", sink, "in").unwrap();
        map.link_with(b, "fb", a, "fb", FifoConfig::fixed(1))
            .unwrap();
        if let Some((ra, rb)) = rates {
            map.declare_service_rate(a, ra);
            map.declare_service_rate(b, rb);
        }
        map.config_mut().check.cycle_severity = cycle_severity;
        let row = format!("rates {rates:?}, capacity {cap}, {cycle_severity:?}");

        // A finding on the cycle names both of its streams (a -> b is link
        // 1, b -> a link 3); RC0007 may flag one of them on its own.
        let diags = map.check();
        let found: Vec<_> = diags.iter().filter(|d| d.links == [1, 3]).collect();
        assert_eq!(found.len(), 1, "{row}: {diags:#?}");
        let d = found[0];
        assert_eq!(d.code, "RC0008", "{row}: {d}");
        assert_eq!(d.severity, severity, "{row}: {d}");
        assert_eq!(d.kernels, [1, 2], "{row}: {d}");
        assert!(d.message.contains(says), "{row}: {d}");

        match map.exe() {
            Ok(_) => assert!(!d.is_error(), "{row}: ran despite {d}"),
            Err(ExeError::CheckFailed { diagnostics }) => {
                assert!(d.is_error(), "{row}: refused: {diagnostics:?}");
            }
            Err(other) => panic!("{row}: {other}"),
        }
    }
}

/// RC0009: a stateful kernel replicated behind an out-of-order split is
/// flagged; declaring it stateless clears the finding. With the severity
/// raised to Error the bad graph is rejected outright.
#[test]
fn rc0009_flags_stateful_replication_and_clears_when_declared_stateless() {
    let build = || {
        let mut map = RaftMap::new();
        let src = map.add(lambda_source(|| None::<i64>));
        let work = map.add(lambda_map(|v: i64| v * 2));
        let sink = map.add(lambda_sink(|_: i64| {}));
        map.link_unordered(src, "0", work, "0").unwrap();
        map.link_unordered(work, "0", sink, "0").unwrap();
        map.prefer_width(work, 4);
        (map, work)
    };

    // Bad: lambda_map clones its closure, so the kernel is replicable, but
    // nothing asserts it is pure — per-replica state could diverge.
    let (mut bad, _) = build();
    bad.config_mut().check.replication_severity = Severity::Error;
    let diags = bad.check();
    let rc9 = diags.iter().find(|d| d.code == "RC0009").unwrap();
    assert!(rc9.is_error(), "{rc9}");
    assert!(rc9.message.contains("stateful"), "{}", rc9.message);
    assert!(
        rc9.help
            .as_deref()
            .unwrap_or_default()
            .contains("declare_stateless"),
        "{rc9:?}"
    );
    assert!(bad.exe().is_err(), "rejected at Error severity");

    // Corrected: the declaration resolves the contradiction.
    let (mut good, work) = build();
    good.config_mut().check.replication_severity = Severity::Error;
    good.declare_stateless(work);
    assert!(
        !good.check().iter().any(|d| d.code == "RC0009"),
        "{:?}",
        good.check()
    );
    good.exe().unwrap();
}

/// RC0010: a Replace factory whose ports do not match the supervised
/// kernel is rejected (always an error); a matching factory passes.
#[test]
fn rc0010_rejects_mismatched_replace_factory_and_allows_matching_one() {
    let build = |policy: SupervisorPolicy| {
        let mut map = RaftMap::new();
        let src = map.add(lambda_source(|| None::<i64>));
        let sink = map.add(lambda_sink(|_: i64| {}));
        map.link(src, "0", sink, "0").unwrap();
        map.supervise(sink, policy);
        map
    };

    // Bad: the factory builds a kernel with a different element type.
    let bad = build(SupervisorPolicy::replace(1, || {
        Box::new(lambda_sink(|_: String| {}))
    }));
    let diags = bad.check();
    let rc10 = diags.iter().find(|d| d.code == "RC0010").unwrap();
    assert!(rc10.is_error(), "{rc10}");
    assert!(rc10.message.contains("ports"), "{}", rc10.message);
    assert!(bad.exe().is_err(), "mismatched factory must not run");

    // Corrected: a factory producing the same signature passes and runs.
    let good = build(SupervisorPolicy::replace(1, || {
        Box::new(lambda_sink(|_: i64| {}))
    }));
    assert!(
        !good.check().iter().any(|d| d.code == "RC0010"),
        "{:?}",
        good.check()
    );
    good.exe().unwrap();
}

/// RC0010: Restart on a kernel that cannot produce a clean replica warns;
/// Skip feeding a multi-input merge warns about partial results.
#[test]
fn rc0010_warns_on_restart_without_replica_and_skip_before_merge() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let sink = map.add(Sink);
    map.link(src, "out", sink, "in").unwrap();
    map.supervise(sink, SupervisorPolicy::restart(2));
    let diags = map.check();
    let rc10 = diags.iter().find(|d| d.code == "RC0010").unwrap();
    assert_eq!(rc10.severity, Severity::Warn);
    assert!(rc10.message.contains("Restart"), "{}", rc10.message);
    // Warnings alone do not block execution.
    assert!(!diags.iter().any(|d| d.is_error()), "{diags:?}");

    // Skip upstream of a 2-input merge.
    struct Merge;
    impl Kernel for Merge {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
                .input::<i64>("a")
                .input::<i64>("b")
                .output::<i64>("out")
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }
    let mut map = RaftMap::new();
    let s1 = map.add(lambda_source(|| None::<i64>));
    let s2 = map.add(lambda_source(|| None::<i64>));
    let merge = map.add(Merge);
    let sink = map.add(lambda_sink(|_: i64| {}));
    map.link(s1, "0", merge, "a").unwrap();
    map.link(s2, "0", merge, "b").unwrap();
    map.link(merge, "out", sink, "0").unwrap();
    map.supervise(s1, SupervisorPolicy::Skip);
    let diags = map.check();
    let skip = diags
        .iter()
        .find(|d| d.code == "RC0010" && d.message.contains("Skip"))
        .unwrap();
    assert!(skip.message.contains("partial results"), "{}", skip.message);
}

#[test]
fn capacity_lint_warns_on_overloaded_stream() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let sink = map.add(Sink);
    map.link(src, "out", sink, "in").unwrap();
    // Producer 10x faster than consumer: no finite buffer keeps blocking low.
    map.declare_service_rate(src, 100.0);
    map.declare_service_rate(sink, 10.0);
    let diags = map.check();
    let cap = diags.iter().find(|d| d.code == "RC0007").unwrap();
    assert_eq!(cap.severity, Severity::Warn);
    assert!(cap.message.contains("blocking"), "{}", cap.message);
    // The actionable suggestion rides on the help: line.
    let help = cap.help.as_deref().unwrap_or_default();
    assert!(help.contains("no finite capacity"), "{help}");
    assert!(cap.to_string().contains("help:"), "{cap}");
    // A warning alone must not block execution.
    assert!(!diags.iter().any(|d| d.is_error()), "{diags:?}");
}

#[test]
fn capacity_lint_quiet_on_feasible_rates_and_silent_without_rates() {
    let mut map = RaftMap::new();
    let src = map.add(Src);
    let sink = map.add(Sink);
    map.link(src, "out", sink, "in").unwrap();
    // No declared rates: the pass has nothing to model.
    assert!(!map.check().iter().any(|d| d.code == "RC0007"));
    // Declared feasible rates (consumer 10x faster): still quiet.
    map.declare_service_rate(src, 10.0);
    map.declare_service_rate(sink, 100.0);
    assert!(!map.check().iter().any(|d| d.code == "RC0007"));
}

#[test]
fn diagnostics_sort_errors_first() {
    let mut map = cyclic_map();
    // Add an overloaded stream so the run carries both an error and a warn.
    let src2 = map.add(Src);
    let sink2 = map.add(Sink);
    map.link(src2, "out", sink2, "in").unwrap();
    map.declare_service_rate(src2, 100.0);
    map.declare_service_rate(sink2, 10.0);
    let diags = map.check();
    let first_warn = diags.iter().position(|d| d.severity == Severity::Warn);
    let last_error = diags.iter().rposition(|d| d.is_error());
    if let (Some(w), Some(e)) = (first_warn, last_error) {
        assert!(e < w, "errors must sort before warnings: {diags:?}");
    } else {
        panic!("expected both severities, got {diags:?}");
    }
}

#[test]
fn clean_graph_checks_clean_and_runs() {
    let mut map = RaftMap::new();
    let mut n = 0i64;
    let src = map.add(lambda_source(move || {
        n += 1;
        (n <= 3).then_some(n)
    }));
    let sink = map.add(lambda_sink(|_: i64| {}));
    map.link(src, "0", sink, "0").unwrap();
    assert!(map.check().is_empty(), "{:?}", map.check());
    map.exe().unwrap();
}
