//! Order statistics for the benchmark's timings.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it: with fewer, the "p90" of a run is just its
//! slowest sample or two, and one stall moves it arbitrarily.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank position of quantile `q` (in `[0, 1]`) among `n`
/// sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `q` of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    (!s.is_empty()).then(|| s[rank(s.len(), q) - 1])
}

/// [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it (100 samples for a p90).
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        None
    } else {
        percentile(samples, q)
    }
}

/// Median (mean of the two middle samples for even counts); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), Some(9.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples put exactly 10 beyond the p90; 99 put only 9.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        // The median of 20 samples has 10 beyond it.
        assert_eq!(tail_percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
