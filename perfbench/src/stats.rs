//! Latency samples and the percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a p99 needs at least 1 000 samples and a p50 at least 20. Anything thinner is not a
//! measurement of that percentile and is reported as missing.

/// How many samples must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A bag of durations in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty bag with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, nanos: u64) {
        self.values.push(nanos);
        self.sorted = false;
    }

    /// The most recently added sample (0 when empty). Only meaningful before the first percentile query, which sorts the bag.
    pub fn last(&self) -> u64 {
        self.values.last().copied().unwrap_or(0)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Option<u64> {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        percentile_of_sorted(&self.values, q)
    }

    /// The median, under the same sample-count rule.
    pub fn median(&mut self) -> Option<u64> {
        self.percentile(0.5)
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly beyond the rank.
pub fn percentile_of_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank])
}

/// The median of a short list of measurements (set-up times, replay timings); the mean
/// of the two middle values for an even count. `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1 000 samples: rank 989 (0-based), 10 beyond — reported.
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_of_sorted(&sorted, 0.99), Some(990));
        // 999 samples: only 9 lie beyond the p99 rank — withheld.
        assert_eq!(percentile_of_sorted(&sorted[..999], 0.99), None);
        // A median needs 20 samples: 10 beyond rank 9.
        assert_eq!(percentile_of_sorted(&sorted[..20], 0.5), Some(10));
        assert_eq!(percentile_of_sorted(&sorted[..19], 0.5), None);
        assert_eq!(percentile_of_sorted(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_lazily() {
        let mut s = Samples::with_capacity(64);
        for v in (0..50u64).rev() {
            s.push(v);
        }
        assert_eq!(s.median(), Some(24));
        s.push(1_000);
        assert_eq!(s.len(), 51);
        assert_eq!(s.median(), Some(25));
    }

    #[test]
    fn median_of_short_lists() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
