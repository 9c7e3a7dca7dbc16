//! Order statistics over latency samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentiles a run may report, highest first: p99 once a run
/// holds 1 000 requests, else p95 (which needs 200).
const TAIL_CANDIDATES: [f64; 2] = [99.0, 95.0];

/// Index of the nearest-rank `p`-th percentile in a sorted sample of
/// `n` (`n > 0`).
fn rank(p: f64, n: usize) -> usize {
    // `p * n` first: exact for whole-number percentiles, so a boundary
    // like p99 of 1 000 lands on rank 990, not 991.
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The highest tail percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= TAIL_BEYOND)
}

/// The nearest-rank `p`-th percentile of latencies where `None` marks a
/// failed request, which sorts beyond every answered one. Returns
/// `None` when the percentile falls on a failed request.
pub fn percentile(samples: &[Option<f64>], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut answered: Vec<f64> = samples.iter().flatten().copied().collect();
    answered.sort_by(f64::total_cmp);
    answered.get(rank(p, samples.len())).copied()
}

/// The median of `values` (mean of the middle two for an even count),
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selection_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), None);
        assert_eq!(tail_percentile(0), None);
        for n in 200..5000 {
            let p = tail_percentile(n).expect("a tail for every run size used");
            assert!(beyond(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            // Counted directly: samples 0..n, the percentile's value is
            // its rank, and everything above it lies beyond.
            let samples: Vec<Option<f64>> = (0..n).map(|i| Some(i as f64)).collect();
            let at = percentile(&samples, p).expect("all answered") as usize;
            assert!(n - 1 - at >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn failed_requests_sort_beyond_every_answer() {
        let mut samples: Vec<Option<f64>> = (0..200).map(|i| Some(f64::from(i))).collect();
        assert_eq!(percentile(&samples, 95.0), Some(189.0));
        for s in samples.iter_mut().take(10) {
            *s = None;
        }
        // Ten failures push the p95 rank onto the last answered sample.
        assert_eq!(percentile(&samples, 95.0), Some(199.0));
        samples[10] = None;
        assert_eq!(percentile(&samples, 95.0), None);
        assert_eq!(percentile(&samples, 50.0), Some(110.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
