//! Order statistics for the benchmark's own reports.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count), as Python's
/// `statistics.median` gives it. `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The nearest-rank `q` quantile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the percentile would rest on too
/// few observations to mean anything).
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(values.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        // 200 samples: rank 190, ten beyond it. 199 samples: rank 190, nine.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_quantile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(tail_quantile(&ramp(199), 0.95), None);
        // One iteration of paper-quick executes 210 distinct probes.
        assert_eq!(samples_beyond(210, 0.95), 10);
        assert_eq!(tail_quantile(&ramp(210), 0.95), Some(200.0));
    }

    #[test]
    fn the_median_is_a_tail_quantile_too_with_enough_samples() {
        let values: Vec<f64> = (0..21).map(f64::from).rev().collect();
        assert_eq!(tail_quantile(&values, 0.5), Some(10.0));
        assert_eq!(tail_quantile(&values[..19], 0.5), None);
    }

    #[test]
    fn no_samples_means_no_tail() {
        assert_eq!(samples_beyond(0, 0.95), 0);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }
}
