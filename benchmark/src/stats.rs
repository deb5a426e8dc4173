//! Exact percentiles over recorded samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! the sorted samples themselves — never a histogram-bucket
//! interpolation — and is printed with the sample count behind it.

use std::time::Duration;

/// Latency samples in nanoseconds, kept whole until the run ends.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// Pre-sized so that recording never reallocates inside a window.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// Sorts once and answers percentile queries in microseconds.
    pub fn sorted(mut self) -> Sorted {
        self.ns.sort_unstable();
        Sorted { ns: self.ns }
    }
}

/// Sorted samples: the only thing percentiles are read from.
#[derive(Debug, Clone)]
pub struct Sorted {
    ns: Vec<u64>,
}

impl Sorted {
    /// Every sample of `parts` in one sorted set.
    pub fn pooled<'a>(parts: impl Iterator<Item = &'a Sorted>) -> Sorted {
        let mut ns: Vec<u64> = parts.flat_map(|p| p.ns.iter().copied()).collect();
        ns.sort_unstable();
        Sorted { ns }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile (`p` in 0..=1) in microseconds; `None`
    /// when nothing was recorded.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        percentile(&self.ns, p).map(|ns| ns as f64 / 1e3)
    }

    /// How many samples lie strictly beyond the `p` percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        self.ns.len() - rank(self.ns.len(), p).min(self.ns.len())
    }
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of a small set of floats (set-up repetitions).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // The textbook five-value example: p30 → 2nd, p40 → 2nd, p50 → 3rd.
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 0.30), Some(20));
        assert_eq!(percentile(&w, 0.40), Some(20));
        assert_eq!(percentile(&w, 0.50), Some(35));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some(7));
    }

    #[test]
    fn samples_sort_and_count_what_lies_beyond() {
        let mut s = Samples::with_capacity(4);
        for us in [400u64, 100, 300, 200] {
            s.push(Duration::from_micros(us));
        }
        let sorted = s.sorted();
        assert_eq!(sorted.len(), 4);
        assert_eq!(sorted.percentile_us(0.5), Some(200.0));
        assert_eq!(sorted.percentile_us(1.0), Some(400.0));
        assert_eq!(sorted.beyond(0.5), 2);
        let mut big = Samples::default();
        for i in 0..20_000u64 {
            big.push(Duration::from_nanos(i));
        }
        let big = big.sorted();
        assert_eq!(big.beyond(0.99), 200);
        let pooled = Sorted::pooled([&sorted, &big].into_iter());
        assert_eq!(pooled.len(), 20_004);
        assert_eq!(pooled.percentile_us(1.0), Some(400.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
