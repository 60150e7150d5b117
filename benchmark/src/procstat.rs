//! CPU time, peak memory and host description, read from `/proc`.

use std::fs;

/// `USER_HZ`: the unit of the tick counters in `/proc/<pid>/stat`. Fixed at
/// 100 by the Linux ABI on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system ticks of a process plus those of its waited-for children,
/// from one `/proc/<pid>/stat` line. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime..cstime are fields 14..17
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut next = || fields.next()?.parse::<u64>().ok();
    let (utime, stime, cutime, cstime) = (next()?, next()?, next()?, next()?);
    Some(utime + stime + cutime + cstime)
}

/// CPU seconds this process and its reaped children have used so far.
/// Resolution is one tick (10 ms); a worker process is counted once the
/// supervisor has waited for it.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_SECOND
}

/// Value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// One-minute load average.
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(), // a checkout without history
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// Where and how a result was measured; printed with every output so that
/// numbers from different machines are never compared by accident.
#[derive(Debug, Clone)]
pub struct Host {
    pub git_commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub build_profile: &'static str,
    pub load_start: f64,
}

impl Host {
    /// Describe the host now; `load_start` is the load average before the
    /// benchmark has added any of its own.
    pub fn capture() -> Host {
        Host {
            git_commit: git_commit(),
            nproc: nproc(),
            cpu_model: cpu_model(),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            load_start: load_average(),
        }
    }

    /// Something else was already using more than half the cores.
    pub fn noisy(&self) -> bool {
        self.load_start > 0.5 * self.nproc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (raft) bench (x)) R 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    37 5 11 2 20 0 3 0 100 1000 50 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(37 + 5 + 11 + 2));
        assert_eq!(parse_stat_ticks("no paren here"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1000));
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "Missing"), None);
    }

    #[test]
    fn live_proc_reads_work() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
