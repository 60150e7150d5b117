//! Log-bucket histogram: 32 sub-buckets per power of two, so a bucket is at
//! most 3.2 % wide, values below 32 are exact, and recording is an index
//! computation plus one add. Used for latencies and span durations in ns.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Smallest value that lands in bucket `idx`.
fn lower_bound(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = idx / SUB - 1;
    ((SUB + idx % SUB) as u64) << shift
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl LogHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Number of samples strictly above `v`'s bucket (so, for a `v` that is
    /// a bucket boundary, strictly above `v`'s 3 % neighbourhood).
    pub fn count_above(&self, v: u64) -> u64 {
        self.counts[index(v) + 1..].iter().sum()
    }

    /// The value below which `p` percent of the samples fall, interpolated
    /// linearly inside the bucket that holds that rank. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (p / 100.0).clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                let lo = lower_bound(idx) as f64;
                let hi = if idx + 1 < BUCKETS {
                    lower_bound(idx + 1) as f64
                } else {
                    self.max as f64
                };
                let frac = (target - before as f64) / c as f64;
                return (lo + frac * (hi - lo)).min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }

    /// Non-empty buckets as `(lower bound, count)`, for the trace files.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (lower_bound(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 65, 1000, 123_456_789, u64::MAX] {
            let idx = index(v);
            assert!(idx < BUCKETS);
            assert!(lower_bound(idx) <= v, "v={v}");
            if idx + 1 < BUCKETS {
                assert!(v < lower_bound(idx + 1), "v={v}");
                // width ≤ 1/32 of the lower bound
                let lo = lower_bound(idx);
                assert!(lower_bound(idx + 1) - lo <= (lo / 32).max(1), "v={v}");
            }
        }
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = LogHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (p, want) in [(50.0, 5_000.0), (90.0, 9_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p);
            assert!((got - want).abs() / want < 0.035, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.percentile(100.0), 10_000.0);
    }

    #[test]
    fn small_values_are_exact_and_empty_is_zero() {
        assert_eq!(LogHist::new().percentile(50.0), 0.0);
        let mut h = LogHist::new();
        for _ in 0..100 {
            h.record(7);
        }
        let p50 = h.percentile(50.0);
        assert!((7.0..=8.0).contains(&p50), "{p50}");
    }

    #[test]
    fn merge_adds_and_tail_count_sees_the_step() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        for _ in 0..990 {
            a.record(100);
        }
        for _ in 0..10 {
            b.record(2_000_000); // a 2 ms rescue step in the tail
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.count_above(1_000_000), 10);
        assert!(a.percentile(50.0) < 110.0);
        assert!(a.percentile(99.5) > 1_900_000.0);
    }
}
