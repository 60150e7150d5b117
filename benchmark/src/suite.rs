//! The suite and the modes built on it: every workload in a fresh child
//! process (so CPU time and peak memory are per workload), `--smoke`,
//! `--selfcheck` and `--compare`.

use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::procstat::{self, Host};
use crate::stats::{self, Verdict};
use crate::trace::Tracer;
use crate::workloads::NAMES;

/// What the suite runs.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Also make the traced pass for the per-layer numbers.
    pub trace: bool,
    pub scale: f64,
    /// Runs per workload; run `i` uses seed `seed + i`.
    pub runs: usize,
    pub out: Option<String>,
}

/// One child run's result line plus the `# ` header lines it printed.
struct ChildRun {
    result: Json,
    log: Vec<String>,
}

fn child_run(
    workload: &str,
    seed: u64,
    opts: &SuiteOpts,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &opts.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    if echo {
        for line in &lines {
            println!("  {line}");
        }
    }
    Ok(ChildRun {
        result: Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?,
        log: lines
            .iter()
            .filter(|l| l.starts_with("# "))
            .map(|l| l.to_string())
            .collect(),
    })
}

fn header(opts: &SuiteOpts, host: &Host) -> Json {
    obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("scale", Json::from(opts.scale)),
        ("runs", Json::from(opts.runs as u64)),
        ("git_commit", Json::from(host.git_commit.as_str())),
        ("nproc", Json::from(host.nproc as u64)),
        ("cpu_model", Json::from(host.cpu_model.as_str())),
        ("kernel", Json::from(host.kernel.as_str())),
        ("build_profile", Json::from(host.build_profile)),
        ("load1_start", Json::from(host.load_start)),
        ("load1_end", Json::from(procstat::load_average())),
        ("host_noisy", Json::from(host.noisy())),
    ])
}

/// Run every workload `opts.runs` times; print every metric; write and
/// return the result document.
pub fn run_suite(opts: &SuiteOpts) -> Result<Json, String> {
    let host = Host::capture();
    println!(
        "raft-benchmark suite: seed {} × {} runs, {} s per run, trace {}, nproc {}{}",
        opts.seed,
        opts.runs,
        opts.seconds,
        u8::from(opts.trace),
        host.nproc,
        if host.noisy() { " (host_noisy)" } else { "" }
    );
    let mut runs = Vec::new();
    for i in 0..opts.runs as u64 {
        for workload in NAMES {
            for trace in [false, true] {
                if trace && !opts.trace {
                    continue;
                }
                println!(
                    "{workload} seed {} trace {}",
                    opts.seed + i,
                    u8::from(trace)
                );
                let child = child_run(workload, opts.seed + i, opts, trace, true)?;
                runs.push(obj([
                    ("workload", Json::from(workload)),
                    ("seed", Json::from(opts.seed + i)),
                    ("trace", Json::from(trace)),
                    ("result", child.result),
                    (
                        "log",
                        Json::Arr(child.log.into_iter().map(Json::from).collect()),
                    ),
                ]));
            }
        }
    }
    let doc = obj([("header", header(opts, &host)), ("runs", Json::Arr(runs))]);
    let path = match &opts.out {
        Some(p) => std::path::PathBuf::from(p),
        None => Tracer::out_dir().join(format!("suite-seed{}.json", opts.seed)),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.to_line() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(doc)
}

/// Every workload and every probe at a hundredth of the size: output
/// checks only, no timing assertion.
pub fn smoke(opts: &SuiteOpts) -> Result<bool, String> {
    let opts = SuiteOpts {
        seconds: 0.05,
        scale: 0.01,
        ..opts.clone()
    };
    let mut ok = true;
    for workload in NAMES {
        for trace in [false, true] {
            let child = child_run(workload, opts.seed, &opts, trace, false)?;
            let correct = child.result.get("correct").and_then(Json::as_bool) == Some(true);
            let metrics = child.result.get("metrics").and_then(Json::as_obj);
            let finite = metrics.is_some_and(|m| {
                !m.is_empty()
                    && m.iter()
                        .all(|(_, v)| v.get("value").and_then(Json::as_f64).is_some())
            });
            println!(
                "smoke {workload:16} trace {} correct={correct} metrics={} {}",
                u8::from(trace),
                metrics.map_or(0, <[_]>::len),
                if correct && finite { "ok" } else { "FAILED" }
            );
            if !(correct && finite) {
                child.log.iter().for_each(|l| println!("  {l}"));
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// `workload → metric → values` of the untraced runs in a suite document.
fn end_to_end_values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn all_correct(doc: &Json) -> bool {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .all(|r| {
            r.get("result")
                .and_then(|x| x.get("correct"))
                .and_then(Json::as_bool)
                == Some(true)
        })
}

/// Compare two suite documents row by row. Returns whether no row is worse.
fn compare_docs(a: &Json, b: &Json) -> bool {
    println!(
        "{:16} {:12} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "wins"
    );
    let mut none_worse = true;
    for workload in NAMES {
        for EndToEnd {
            name,
            better,
            bound,
            ..
        } in END_TO_END
        {
            let (va, vb) = (
                end_to_end_values(a, workload, name),
                end_to_end_values(b, workload, name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:16} {name:12} missing on one side");
                none_worse = false;
                continue;
            }
            let c = stats::compare(&va, &vb, better, bound);
            println!(
                "{workload:16} {name:12} {:13.6} {:13.6} {:+7.2}% {:6.0}% {:>3}/{:<3} {:?}  \
                 A q1..q3 {:.6}..{:.6}  B q1..q3 {:.6}..{:.6}",
                c.median_a,
                c.median_b,
                c.worsening * 100.0,
                bound * 100.0,
                c.wins,
                c.pairs,
                c.verdict,
                c.quartiles_a.0,
                c.quartiles_a.1,
                c.quartiles_b.0,
                c.quartiles_b.1,
            );
            none_worse &= c.verdict != Verdict::Worse;
        }
    }
    println!("(change: how much worse B's median is than A's; negative is better)");
    none_worse
}

/// `--compare a.json b.json`.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    Ok(compare_docs(&a, &b) && all_correct(&a) && all_correct(&b))
}

/// The suite twice on the same build, seeds `seed` and `seed + 1`; fails if
/// any end-to-end metric of any workload disagrees beyond its bound, in
/// either direction.
pub fn selfcheck(opts: &SuiteOpts) -> Result<bool, String> {
    let side = |seed: u64, tag: &str| {
        run_suite(&SuiteOpts {
            seed,
            trace: false,
            out: Some(
                Tracer::out_dir()
                    .join(format!("selfcheck-{tag}.json"))
                    .display()
                    .to_string(),
            ),
            ..opts.clone()
        })
    };
    let a = side(opts.seed, "a")?;
    let b = side(opts.seed + 1, "b")?;
    let forwards = compare_docs(&a, &b);
    let backwards = compare_docs(&b, &a);
    let ok = forwards && backwards && all_correct(&a) && all_correct(&b);
    println!("selfcheck: {}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}
