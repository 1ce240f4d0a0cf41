//! Order statistics over samples in which a failed operation ranks as +∞.

/// The value a failed operation contributes to every percentile.
pub const FAILED: f64 = f64::INFINITY;

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank value (+∞ when the rank falls on a failure).
    pub value: f64,
    /// Samples, failures included.
    pub n: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `samples`: the smallest
/// sample with at least `q`% of all samples at or below it.  Failures are
/// passed as [`FAILED`] and so rank above every time.  Returns NaN for an
/// empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct { value: f64::NAN, n };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Pct {
        value: sorted[rank - 1],
        n,
    }
}

/// Percentile `q` of each of up to `windows` consecutive chunks of
/// `samples` (kept in time order), then the median of those: a burst of
/// interference from outside the program moves one window, not the result.
/// Each chunk keeps at least ten samples beyond its percentile, so a p99
/// over fewer than 2000 samples is taken over all of them at once.  `n`
/// counts every sample.
pub fn windowed(samples: &[f64], windows: usize, q: f64) -> Pct {
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - q / 100.0) / 10.0).floor() as usize;
    let windows = windows.min(beyond).max(1);
    let size = n.div_ceil(windows).max(1);
    let per: Vec<f64> = samples
        .chunks(size)
        .map(|c| percentile(c, q).value)
        .collect();
    Pct {
        value: median(&per),
        n,
    }
}

/// Median by nearest rank (see [`percentile`]).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// Mean of `samples`; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0).value, 5.0);
        assert_eq!(percentile(&s, 90.0).value, 9.0);
        assert_eq!(percentile(&s, 99.0).value, 10.0);
        assert_eq!(percentile(&s, 10.0).value, 1.0);
        assert_eq!(percentile(&s, 50.0).n, 10);
        assert_eq!(percentile(&[3.0], 99.0).value, 3.0);
        assert!(percentile(&[], 50.0).value.is_nan());
    }

    #[test]
    fn failures_rank_as_infinity() {
        // 8 fast successes and 2 failures: p50 is a real time, p90 and p99
        // land on a failure.
        let mut s = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        s.push(FAILED);
        s.insert(0, FAILED);
        assert_eq!(percentile(&s, 50.0).value, 5.0);
        assert_eq!(percentile(&s, 80.0).value, 8.0);
        assert_eq!(percentile(&s, 90.0).value, f64::INFINITY);
        assert_eq!(percentile(&s, 99.0).value, f64::INFINITY);
        // Dropping the failures instead (what a filter on `ok` does) would
        // report a finite p99 for a run in which a fifth of the work failed.
        let ok: Vec<f64> = s.iter().copied().filter(|x| x.is_finite()).collect();
        assert_eq!(percentile(&ok, 99.0).value, 8.0);
    }

    #[test]
    fn windowed_median_ignores_one_disturbed_window() {
        let mut s = vec![1.0; 400];
        for x in &mut s[100..200] {
            *x = 50.0; // one window slowed by something outside the program
        }
        assert_eq!(windowed(&s, 4, 50.0), Pct { value: 1.0, n: 400 });
        assert_eq!(percentile(&s, 80.0).value, 50.0);
        assert_eq!(windowed(&s, 4, 80.0).value, 1.0);
        // A failure in most windows still shows.
        let f: Vec<f64> = (0..40)
            .map(|i| if i % 10 == 9 { FAILED } else { 1.0 })
            .collect();
        assert_eq!(windowed(&f, 4, 95.0).value, FAILED);
        assert_eq!(windowed(&[], 4, 50.0).n, 0);
        assert_eq!(windowed(&[2.0, 3.0], 8, 50.0).value, 2.0);
        // Too few samples for windows with ten beyond the p99: all at once.
        let mut t: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(windowed(&t, 4, 99.0).value, 990.0);
        t.extend((1..=1000).map(f64::from));
        assert_eq!(windowed(&t, 4, 99.0).value, 990.0, "two windows of 1000");
    }

    #[test]
    fn ratio_and_mean_of_nothing_are_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
