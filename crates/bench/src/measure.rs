//! Measurement utilities: repeated timing, summary statistics, table
//! printing, and [`bench()`], the runner behind every `benches/*.rs` target.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Summary of a sample of measurements.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: Duration,
    /// 5th percentile (the paper's Figure 4 green line).
    pub p5: Duration,
    /// 95th percentile (the paper's Figure 4 red line).
    pub p95: Duration,
    /// Minimum observed.
    pub min: Duration,
    /// Maximum observed.
    pub max: Duration,
    /// Sample count.
    pub n: usize,
}

/// Run `f` `reps` times and summarize the wall-clock durations.
pub fn sample(reps: usize, mut f: impl FnMut()) -> Summary {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    summarize(&mut times)
}

/// Summarize a set of durations (sorts in place).
pub fn summarize(times: &mut [Duration]) -> Summary {
    assert!(!times.is_empty());
    times.sort_unstable();
    let n = times.len();
    let total: Duration = times.iter().sum();
    let pick = |q: f64| times[(((n - 1) as f64) * q).round() as usize];
    Summary {
        mean: total / n as u32,
        p5: pick(0.05),
        p95: pick(0.95),
        min: times[0],
        max: times[n - 1],
        n,
    }
}

/// Work one iteration of a [`bench()`] body does, for its throughput column.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Stream elements (or flops) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// One named series of a `benches/*.rs` target: time `f` with [`sample`]
/// and print a row — per-iteration mean, p5/p95 and throughput.
///
/// A body faster than `SAMPLE_FLOOR` is repeated inside each sample so
/// the clock reads stay off the measurement. Without cargo's `--bench`
/// flag, or with `-- --test` (the CI smoke mode), the body runs exactly
/// once: the target only proves it still works.
pub fn bench<R>(name: &str, work: Option<Throughput>, mut f: impl FnMut() -> R) {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") || !args.iter().any(|a| a == "--bench") {
        black_box(f());
        println!("{name}: ok");
        return;
    }
    let warm_up = sample(1, || drop(black_box(f()))).mean;
    let iters = (SAMPLE_FLOOR.as_nanos() / warm_up.as_nanos().max(1)).clamp(1, 1 << 24) as u32;
    let s = sample(SAMPLES, || (0..iters).for_each(|_| drop(black_box(f()))));
    let rate = |per_iter: u64, unit: &str| {
        let per_s = per_iter as f64 * f64::from(iters) / s.mean.as_secs_f64();
        format!("  {:>10.3} M{unit}/s", per_s / 1e6)
    };
    println!(
        "{name:<44} {:>12.3?} [p5 {:.3?}, p95 {:.3?}]{}",
        s.mean / iters,
        s.p5 / iters,
        s.p95 / iters,
        match work {
            Some(Throughput::Elements(n)) => rate(n, "elem"),
            Some(Throughput::Bytes(n)) => rate(n, "B"),
            None => String::new(),
        }
    );
}

/// Samples per [`bench`] series.
const SAMPLES: usize = 10;
/// Shortest sample [`bench`] will time; faster bodies are batched up to it.
const SAMPLE_FLOOR: Duration = Duration::from_millis(10);

/// Throughput in GB/s for `bytes` processed in `dt`.
pub fn gbps(bytes: usize, dt: Duration) -> f64 {
    (bytes as f64 / 1e9) / dt.as_secs_f64()
}

/// Render seconds compactly for table cells.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut times: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = summarize(&mut times);
        assert_eq!(s.n, 100);
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.p5, Duration::from_millis(6)); // index round(99*0.05)=5
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.mean, Duration::from_micros(50_500));
    }

    #[test]
    fn single_sample() {
        let s = sample(1, || std::thread::sleep(Duration::from_millis(1)));
        assert!(s.mean >= Duration::from_millis(1));
        assert_eq!(s.p5, s.p95);
    }

    #[test]
    fn gbps_math() {
        let g = gbps(2_000_000_000, Duration::from_secs(2));
        assert!((g - 1.0).abs() < 1e-12);
    }
}
