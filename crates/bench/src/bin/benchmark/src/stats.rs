//! Order statistics shared by the workloads, the trace fold and
//! `--compare`.

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive"
/// method). A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it: p99 from 1000 samples, p90 from 100, otherwise the median.
pub fn tail_pct(samples: usize) -> f64 {
    if samples >= 1000 {
        99.0
    } else if samples >= 100 {
        90.0
    } else {
        50.0
    }
}

/// Tracing overhead from alternating untraced and traced passes: the
/// median of each pair's time ratio, minus one. Pairing cancels the slow
/// spells a shared machine goes through, which hit both halves of a pair.
pub fn paired_overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced.iter().zip(traced).map(|(u, t)| t / u).collect();
    median(&ratios) - 1.0
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // Small samples extrapolate: quantiles([1, 3]) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn overhead_pairs_adjacent_passes() {
        // A slow spell doubles untraced passes 2-3 but only traced pass
        // 2: the ratio of medians would read -45%, the pairs read +10%.
        let overhead = paired_overhead(&[1.0, 2.0, 2.0], &[1.1, 2.2, 1.1]);
        assert!((overhead - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 90.0), 90.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_pct(0), 50.0);
        assert_eq!(tail_pct(99), 50.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(999), 90.0);
        assert_eq!(tail_pct(1000), 99.0);
        for n in [100usize, 250, 999, 1000, 5000] {
            let beyond = n - (tail_pct(n) / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "{n} samples leave {beyond} beyond the tail");
        }
    }
}
