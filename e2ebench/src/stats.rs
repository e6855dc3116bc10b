//! The benchmark's own arithmetic: medians, percentiles with failures as
//! +∞, the tail percentile a sample supports, and the ladder's `max_rps`.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of finite values (the mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorted latencies where a failed request (`None`) counts as +∞, so it
/// misses every limit and sorts above every answered request.
pub fn with_failures(samples: &[Option<f64>]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest rank of percentile `p` in `n` samples, 1-based:
/// ⌈p·n/100⌉ clamped to `1..=n`. Exact for `p` with one decimal, where a
/// float product would round 99.9% of 10000 up to rank 9991.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it. NaN for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank position of `p` in `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it, or `None` when even p75 has fewer (then only the median is
/// supported).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_PERCENTILES.into_iter().find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// One ladder step as the `max_rps` rule sees it.
#[derive(Debug, Clone, Copy)]
pub struct StepVerdict {
    /// p99 latency at the step, failures as +∞.
    pub p99_ms: f64,
    /// Whether the generator fell further behind schedule over the step.
    pub late_grows: bool,
}

/// Index of the ladder's capacity step: the last step of the leading run
/// of steps whose p99 meets `limit_ms` while lateness does not grow. The
/// ladder stops at its first miss. `None` when even the first step misses.
pub fn max_rps_step(steps: &[StepVerdict], limit_ms: f64) -> Option<usize> {
    steps.iter().take_while(|s| s.p99_ms <= limit_ms && !s.late_grows).count().checked_sub(1)
}

/// Whether lateness grew over a step: the median lateness of the step's
/// last quarter exceeds that of its first quarter by more than `slack_ms`.
/// `late_ms` is in schedule order.
pub fn lateness_grows(late_ms: &[f64], slack_ms: f64) -> bool {
    let q = late_ms.len() / 4;
    if q == 0 {
        return false;
    }
    median(&late_ms[late_ms.len() - q..]) > median(&late_ms[..q]) + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9 beyond; p95 leaves 50.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn chosen_tail_has_ten_beyond_and_the_next_does_not() {
        for n in 1..3000 {
            let Some(p) = tail_percentile(n) else { continue };
            assert!(beyond(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            let higher = TAIL_PERCENTILES.iter().rev().find(|&&q| q > p);
            if let Some(&q) = higher {
                assert!(beyond(n, q) < TAIL_BEYOND, "n={n}: p{q} was also supported");
            }
        }
    }

    #[test]
    fn failures_enter_percentiles_as_infinity() {
        let mut samples: Vec<Option<f64>> = (1..=100).map(|i| Some(i as f64)).collect();
        let sorted = with_failures(&samples);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        // Ten failures push p90 out of the answered range entirely...
        samples.truncate(90);
        samples.extend(std::iter::repeat_n(None, 10));
        let sorted = with_failures(&samples);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 91.0), f64::INFINITY);
        // ...and eleven make p90 itself infinite.
        samples[89] = None;
        let sorted = with_failures(&samples);
        assert_eq!(percentile(&sorted, 90.0), f64::INFINITY);
        // A failure never lowers the median.
        assert_eq!(percentile(&sorted, 50.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 25.0), 1.0);
        assert_eq!(percentile(&s, 26.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    fn step(p99_ms: f64, late_grows: bool) -> StepVerdict {
        StepVerdict { p99_ms, late_grows }
    }

    #[test]
    fn max_rps_is_the_last_step_before_the_first_miss() {
        let limit = 10.0;
        assert_eq!(
            max_rps_step(&[step(1.0, false), step(2.0, false), step(50.0, false)], limit),
            Some(1)
        );
        assert_eq!(
            max_rps_step(&[step(1.0, false), step(2.0, false), step(9.0, false)], limit),
            Some(2)
        );
        // A step at exactly the limit meets it.
        assert_eq!(max_rps_step(&[step(10.0, false)], limit), Some(0));
        // Growing lateness fails a step whose p99 still looks fine.
        assert_eq!(
            max_rps_step(&[step(1.0, false), step(2.0, true), step(3.0, false)], limit),
            Some(0)
        );
        // A later step that passes again does not count: the ladder stopped.
        assert_eq!(
            max_rps_step(&[step(1.0, false), step(99.0, false), step(1.0, false)], limit),
            Some(0)
        );
        // Failures (+inf) miss the limit.
        assert_eq!(max_rps_step(&[step(f64::INFINITY, false)], limit), None);
        assert_eq!(max_rps_step(&[], limit), None);
    }

    #[test]
    fn lateness_growth_compares_first_and_last_quarters() {
        let steady = vec![0.1; 100];
        assert!(!lateness_grows(&steady, 1.0));
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        assert!(lateness_grows(&growing, 1.0));
        // Jitter inside the slack is not growth.
        let jitter: Vec<f64> = (0..100).map(|i| if i > 75 { 0.9 } else { 0.1 }).collect();
        assert!(!lateness_grows(&jitter, 1.0));
        assert!(!lateness_grows(&[5.0, 1.0, 9.0], 1.0));
    }
}
