//! Order statistics over pass samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample (a metric no pass produced).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(v, n=4)` uses, so a spread computed here reads
/// the same as one computed from `results.json` by a script.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |p: f64| {
        // 1-based rank (n + 1) * p, clamped into the sample.
        let rank = ((n + 1) as f64 * p).clamp(1.0, n as f64);
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Smallest and largest sample.
pub fn range(samples: &[f64]) -> (f64, f64) {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

/// Distance between the quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    q3 - q1
}

/// The highest of p75/p90/p95/p99 that still has at least ten samples
/// beyond it, as `(percent, value)`; `None` below 40 samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(samples);
    let n = v.len();
    [99u32, 95, 90, 75].into_iter().find_map(|pct| {
        let beyond = n * (100 - pct as usize) / 100;
        (beyond >= 10).then(|| (pct, v[n - beyond - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(range(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((75, 30.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
    }
}
