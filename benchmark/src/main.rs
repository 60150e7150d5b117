//! `raft-benchmark`: the frozen end-to-end + per-layer cost ledger of
//! raftlib-rs. See `README.md` beside this package and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! raft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object
//! raft-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--runs <k>] [--out <file>]
//!     the suite: every workload, each run in a fresh child process
//! raft-benchmark --smoke                 everything at ~1/100 size, checks only
//! raft-benchmark --selfcheck             the suite twice; fails on disagreement
//! raft-benchmark --compare <a> <b>       the pair rule over two suite files
//! ```

mod hist;
mod json;
mod kernels;
mod layers;
mod metrics;
mod probes;
mod procstat;
mod rng;
mod runner;
mod stats;
mod suite;
mod sut;
mod trace;
mod workloads;

use std::process::ExitCode;

/// `--seconds` of a suite run: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Option<f64>,
    runs: Option<usize>,
    out: Option<String>,
    smoke: bool,
    selfcheck: bool,
    compare: Option<(String, String)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => args.seed = Some(number(flag, value(flag, &mut it)?)?),
            "--seconds" => args.seconds = Some(number(flag, value(flag, &mut it)?)?),
            "--scale" => args.scale = Some(number(flag, value(flag, &mut it)?)?),
            "--runs" => args.runs = Some(number(flag, value(flag, &mut it)?)?),
            "--out" => args.out = Some(value(flag, &mut it)?.clone()),
            // `--trace 1`, `--trace 0`, or a bare `--trace`
            "--trace" => {
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--compare" => {
                let a = value(flag, &mut it)?.clone();
                let b = value(flag, &mut it)?.clone();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if args.scale.is_some_and(|s| !(s > 0.0 && s <= 1.0)) {
        return Err("--scale must be in (0, 1]".to_string());
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Re-executed children: the supervised worker and the shm probe's peer.
    match argv.first().map(String::as_str) {
        Some(workloads::xproc_shm::WORKER_FLAG) => {
            return workloads::xproc_shm::worker_main(&argv[1..]).map(|()| true)
        }
        Some(probes::SHM_DRAIN_FLAG) => return probes::shm_drain_main(&argv[1..]).map(|()| true),
        _ => {}
    }
    let args = parse(&argv)?;
    if let Some((a, b)) = &args.compare {
        return suite::compare_files(a, b);
    }
    let suite_opts = suite::SuiteOpts {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace.unwrap_or(true),
        scale: args.scale.unwrap_or(1.0),
        runs: args.runs.unwrap_or(1).max(1),
        out: args.out.clone(),
    };
    if args.smoke {
        return suite::smoke(&suite_opts);
    }
    if args.selfcheck {
        return suite::selfcheck(&suite_opts);
    }
    match &args.workload {
        Some(workload) => {
            let result = runner::run(&runner::Opts {
                workload: workload.clone(),
                seed: suite_opts.seed,
                seconds: suite_opts.seconds,
                trace: args.trace.unwrap_or(false),
                scale: suite_opts.scale,
            })?;
            println!("{}", result.to_json().to_line());
            // A wrong output is reported in the result line, not by the
            // exit code: the run itself completed.
            Ok(true)
        }
        None => suite::run_suite(&suite_opts).map(|_| true),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("raft-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
