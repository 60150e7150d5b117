//! One run of one workload: set-up several times, a discarded warm-up,
//! fixed-size repetitions until `--seconds` have been measured, output
//! checks, and the result line.
//!
//! With tracing off the run produces the end-to-end metrics. With tracing
//! on it alternates untraced and traced repetitions (their difference is
//! the tracing overhead), runs the layer probes, writes the trace file and
//! produces the per-layer metrics. End-to-end numbers never come from a
//! traced repetition.

use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::procstat::{self, Host};
use crate::stats::{median, Better};
use crate::sut::FifoConfig;
use crate::trace::Tracer;
use crate::workloads::{self, RepOutcome, Size, TraceCtx, Workload};

/// Set-ups per run: at least `MIN`, then more while they are cheap (a
/// millisecond set-up is mostly thread spawn, and noisy), up to `MAX`. The
/// median is `setup_s`.
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 25;
const CHEAP_SETUP_BUDGET: Duration = Duration::from_millis(250);
/// Timed repetitions a run makes at the very least.
const MIN_REPS: usize = 3;
/// Zero-element executions behind `core.map.exe_empty_ms`.
const EMPTY_REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every frozen size; 1.0 except under `--smoke` and in tests.
    pub scale: f64,
}

/// The outcome of a run, as printed on the last line of standard output.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        obj([("value", Json::from(value)), ("unit", unit.into())]),
                    )
                })),
            ),
        ])
    }
}

/// Running totals over every verified repetition of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &mut RepOutcome) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.violations.append(&mut rep.violations);
    }
}

fn print_header(opts: &Opts, host: &Host, workload: &dyn Workload) {
    println!(
        "# raft-benchmark workload={} seed={} seconds={} trace={} scale={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale
    );
    println!(
        "# host: commit={} nproc={} cpu=\"{}\" kernel={} profile={} load1_start={:.2}{}",
        host.git_commit,
        host.nproc,
        host.cpu_model,
        host.kernel,
        host.build_profile,
        host.load_start,
        if host.noisy() { " host_noisy" } else { "" }
    );
    let constants: Vec<String> = workload
        .constants()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# frozen: {}", constants.join(" "));
}

/// Run `opts.workload` once and return its result.
pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let host = Host::capture();
    let make = || {
        workloads::create(&opts.workload, opts.seed, opts.scale)
            .ok_or_else(|| format!("unknown workload {:?}", opts.workload))
    };
    let mut tally = Tally::default();

    // Set-up, several times: generate the inputs, build the graph, check
    // it, and execute it on one unit of work (so allocation, fusion,
    // mapping and thread spawn are paid, and the first result is out).
    // `setup_s` is an end-to-end metric: a traced run skips this.
    let mut setups = Vec::with_capacity(MAX_SETUP_REPS);
    let setting_up = Instant::now();
    let more_setups = |done: usize| {
        done < MIN_SETUP_REPS
            || (done < MAX_SETUP_REPS && setting_up.elapsed() < CHEAP_SETUP_BUDGET)
    };
    while !opts.trace && more_setups(setups.len()) {
        let t0 = Instant::now();
        let mut workload = make()?;
        let mut rep = workload.run(Size::Minimal, None);
        let mut end = workload.finish();
        setups.push(t0.elapsed().as_secs_f64());
        tally.add(&mut rep);
        tally.add(&mut end);
    }

    // One more set-up with tracing on, so that the trace shows set-up too.
    // It is dropped before the measured inputs exist: two copies of a large
    // input at once would double the peak memory reported.
    let trace = opts.trace.then(|| {
        let tracer = Tracer::new(&opts.workload);
        let root = tracer.reserve();
        TraceCtx { tracer, root }
    });
    if let Some(ctx) = &trace {
        let mut workload = ctx
            .tracer
            .span(ctx.root, "setup.generate_input", |_| make())?;
        tally.add(&mut workload.run(Size::Minimal, Some(ctx)));
        tally.add(&mut workload.finish());
    }

    let mut workload = make()?;
    print_header(opts, &host, workload.as_ref());
    tally.add(&mut workload.run(Size::Warmup, None));
    tally.add(&mut workload.finish());

    let mut values = Values::default();
    if let Some(ctx) = &trace {
        traced_pass(opts, ctx, workload.as_mut(), &mut tally, &mut values)?;
    } else {
        let budget = Duration::from_secs_f64(opts.seconds);
        let started = Instant::now();
        let cpu_before = procstat::cpu_seconds();
        let mut throughput = Vec::new();
        while throughput.len() < MIN_REPS || started.elapsed() < budget {
            let mut rep = workload.run(Size::Full, None);
            throughput.push(rep.units / rep.wall.as_secs_f64());
            tally.add(&mut rep);
        }
        // reap the worker process, if any: its CPU counts from then on
        tally.add(&mut workload.finish());
        let cpu = procstat::cpu_seconds() - cpu_before;
        println!(
            "# {} repetitions; {}/s each: {}",
            throughput.len(),
            workload.unit(),
            throughput
                .iter()
                .map(|t| format!("{t:.4e}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        values.insert("throughput", median(&throughput));
        // The tick counters have 10 ms resolution, so CPU time is taken over
        // the whole loop (graph assembly and output checks between timed
        // regions included; they are a per mille of it) and divided.
        values.insert("cpu_s", cpu / throughput.len() as f64);
        values.insert("setup_s", median(&setups));
    }

    println!(
        "# load1_end={:.2} violations={}",
        procstat::load_average(),
        tally.violations.len()
    );
    for v in &tally.violations {
        println!("# violation: {v}");
    }
    let registry: Vec<(&'static str, &'static str, Better)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    };
    let mut metrics = Vec::with_capacity(registry.len());
    for (name, unit, better) in registry {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}  ({} is better)", better.as_str());
        metrics.push((name, value, unit));
    }
    Ok(RunResult {
        correct: tally.failed == 0 && tally.violations.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    })
}

fn traced_pass(
    opts: &Opts,
    ctx: &TraceCtx,
    workload: &mut dyn Workload,
    tally: &mut Tally,
    values: &mut Values,
) -> Result<(), String> {
    let tracer = &ctx.tracer;

    // Repetitions get half of `--seconds`; the probes need the rest.
    let mut untraced = Vec::new();
    let mut traced: Vec<RepOutcome> = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds * 0.5);
    let started = Instant::now();
    while traced.is_empty() || started.elapsed() < budget {
        let mut plain = workload.run(Size::Full, None);
        tally.add(&mut plain);
        untraced.push(plain);
        let mut rep = workload.run(Size::Full, Some(ctx));
        tally.add(&mut rep);
        traced.push(rep);
    }
    tracer.close_root(ctx.root, "workload");

    // from the runs
    values.insert("peak_rss_mb", procstat::peak_rss_mb()); // before the probes allocate
    let wall = |reps: &[RepOutcome]| {
        median(
            &reps
                .iter()
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let (plain_wall, traced_wall) = (wall(&untraced), wall(&traced));
    values.insert(
        "trace.overhead_share",
        (traced_wall - plain_wall) / plain_wall,
    );
    values.insert("trace.reps", traced.len() as f64);
    let reports: Vec<_> = traced.iter().flat_map(|r| r.reports.iter()).collect();
    layers::from_reports(&reports, values);
    // lanes of the full-size traced repetitions only (not the set-up run)
    let exe_spans: Vec<u32> = traced.iter().flat_map(|r| r.exe_spans.clone()).collect();
    let lanes: Vec<_> = tracer
        .lanes()
        .into_iter()
        .filter(|l| exe_spans.contains(&l.exe_span))
        .collect();
    layers::from_lanes(tracer, &lanes, values);
    layers::from_open_loop(&traced, values);
    let spawn_ms: Vec<f64> = untraced
        .iter()
        .chain(&traced)
        .filter_map(|r| r.proc_spawn.map(|d| d.as_secs_f64() * 1e3))
        .collect();
    values.insert("core.proc.spawn_ms", median(&spawn_ms));

    // the workload's own topology fed nothing: spawn and tear-down
    let mut empties: Vec<RepOutcome> = (0..EMPTY_REPS)
        .map(|_| workload.run(Size::Empty, None))
        .collect();
    empties.iter_mut().for_each(|rep| tally.add(rep));
    let med = |f: &dyn Fn(&RepOutcome) -> f64| median(&empties.iter().map(f).collect::<Vec<_>>());
    values.insert("core.map.check_us", med(&|r| r.check.as_secs_f64() * 1e6));
    values.insert(
        "core.map.exe_empty_ms",
        med(&|r| r.wall.as_secs_f64() * 1e3),
    );
    let mut end = workload.finish();
    values.insert("core.proc.respawns", end.proc_respawns as f64);
    tally.add(&mut end);

    // the same job without the runtime
    let inline = workload.reference_throughput();
    let throughput = median(
        &untraced
            .iter()
            .map(|r| r.units / r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    values.insert("ref.inline_throughput", inline);
    values.insert("ref.runtime_efficiency", throughput / inline);

    // one layer at a time
    let s = opts.scale;
    values.insert(
        "buffer.spsc.xthread_ns_per_elem",
        probes::spsc_xthread_ns(s),
    );
    values.insert(
        "buffer.fifo.xthread_ns_per_elem",
        probes::fifo_xthread_ns(FifoConfig::fixed(1024), s),
    );
    values.insert(
        "buffer.fifo.resizable_ns_per_elem",
        probes::fifo_xthread_ns(FifoConfig::default(), s),
    );
    values.insert("buffer.fifo.batch_ns_per_elem", probes::fifo_batch_ns(s));
    values.insert("buffer.fifo.wake_rtt_us", probes::fifo_wake_rtt_us(s));
    values.insert("buffer.shm.xproc_ns_per_elem", probes::shm_xproc_ns(s));
    values.insert(
        "buffer.arena.desc_4k_ns_per_payload",
        probes::arena_desc_4k_ns(s),
    );
    match probes::tcp_loopback_4k_ns(s) {
        Some(ns) => {
            values.insert("net.link.loopback_4k_ns_per_payload", ns);
        }
        None => println!("# note: loopback TCP unavailable; net.link probe reports 0"),
    }
    values.insert("algos.horspool_mb_s", probes::horspool_mb_s(opts.seed, s));

    let path = tracer
        .write(opts.seed)
        .map_err(|e| format!("write trace file: {e}"))?;
    values.insert("trace.spans", tracer.span_count() as f64);
    println!("# trace file: {}", path.display());
    Ok(())
}
