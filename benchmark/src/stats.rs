//! Order statistics and the pair rule used by `--compare`.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so that spreads computed here match
/// the ones the driver computes. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric on one workload between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs and the medians differ by
    /// more than A's own interquartile range.
    Gain,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse, but a side's run-to-run spread exceeds the bound, so
    /// "unchanged" cannot be claimed.
    Unresolved,
    Unchanged,
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: (f64, f64),
    pub quartiles_b: (f64, f64),
    /// By how much B's median is worse than A's, as a share of A's
    /// (negative: better).
    pub worsening: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compare baseline `a` with candidate `b`; `a[i]` and `b[i]` are one pair.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Comparison {
    let (median_a, median_b) = (median(a), median(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (**y - **x) < 0.0)
        .count();
    let quartiles_a = quartiles(a);
    let iqr_a = quartiles_a.1 - quartiles_a.0;
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if pairs >= 10
        && wins * 10 >= pairs * 9
        && worsening < 0.0
        && (median_b - median_a).abs() > iqr_a
    {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    Comparison {
        median_a,
        median_b,
        quartiles_a,
        quartiles_b: quartiles(b),
        worsening,
        wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0)))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let a = around(100.0, 10);
        assert_eq!(
            compare(&a, &around(100.5, 10), Better::Lower, 0.1).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&a, &around(115.0, 10), Better::Lower, 0.1).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare(&a, &around(115.0, 10), Better::Higher, 0.1).verdict,
            Verdict::Gain
        );
        assert_eq!(
            compare(&a, &around(80.0, 10), Better::Lower, 0.1).verdict,
            Verdict::Gain
        );
        // a gain needs ten pairs
        assert_eq!(
            compare(&a[..5], &around(80.0, 5), Better::Lower, 0.1).verdict,
            Verdict::Unchanged
        );
        // a side noisier than the bound cannot be called unchanged
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 8.0 * f64::from(i % 5)).collect();
        assert_eq!(
            compare(&noisy, &a, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
    }
}
