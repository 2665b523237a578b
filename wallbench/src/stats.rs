//! Order statistics for latency samples.

/// Median of `values` (mean of the two middle samples for even counts).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the value at the highest percentile that still has at
/// least `beyond` samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to, in `(0, 100]`.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `values` with at least `beyond` samples
/// above it. With `n` samples sorted ascending, the pick is rank
/// `n - beyond - 1` (0-based), i.e. percentile `100 · (n - beyond) / n`.
/// Returns `None` when there are not enough samples for any such rank.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let rank = n - beyond - 1;
    Some(Tail { value: sorted[rank], percentile: 100.0 * (rank + 1) as f64 / n as f64, samples: n })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: the highest rank with ten samples above it
        // is the 90th value, i.e. the 90th percentile.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let above = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, 10);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // Eleven samples: only the smallest has ten above it.
        let t = tail(&v[..11], 10).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_samples_than_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
    }
}
