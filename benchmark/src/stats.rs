//! Order statistics over timing samples.

/// Samples required beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Nearest-rank percentile (`pct` in percent) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `cap_pct` with at least
/// [`TAIL_SUPPORT`] samples beyond it, and its value. With too few samples
/// for any tail the median is returned with percentile `50`.
pub fn supported_tail(v: &[f64], cap_pct: f64) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 2 * TAIL_SUPPORT {
        return (50.0, median(&s));
    }
    let pct = (100.0 * (n - TAIL_SUPPORT) as f64 / n as f64).min(cap_pct);
    (pct, percentile_sorted(&s, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 12 samples support no tail: the median stands in.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(supported_tail(&few, 99.0), (50.0, 6.5));
        // 100 samples support p90 (10 beyond), not p99.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&hundred, 99.0), (90.0, 90.0));
        // 2000 samples support p99.5 and are capped at the percentile asked for.
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&many, 99.0), (99.0, 1980.0));
    }
}
