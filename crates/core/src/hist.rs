//! A bucket-keyed histogram that keeps every sample, for exact
//! summary statistics.
//!
//! [`Histogram`](inca_obs::metrics::Histogram) trades precision for
//! constant memory; the paper's Table 4 needs *exact* per-bucket mean,
//! standard deviation and median, which requires keeping the samples.
//! [`SampleHistogram`] buckets each observation by an integer key
//! (report size in bytes) into half-open `[lo, hi)` ranges and keeps
//! every sample value. It grows by 8 bytes per sample, which bounds
//! what it may be fed: the exhibits replay at most the paper's
//! 151,955-report week (§5.2.1), about 1.2 MB of samples.

/// Exact summary statistics for one bucket of a [`SampleHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSummary {
    /// The bucket's `[lo, hi)` key range.
    pub bucket: (usize, usize),
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean of the sample values.
    pub mean: f64,
    /// Population standard deviation (divides by `count`, not
    /// `count - 1`).
    pub std_dev: f64,
    /// Smallest sample value.
    pub min: f64,
    /// Largest sample value.
    pub max: f64,
    /// Median; for even counts, the midpoint of the two middle values.
    pub median: f64,
}

/// Buckets `f64` samples by an integer key into fixed half-open
/// ranges, keeping every sample.
///
/// Keys at or past the last bucket's upper bound are counted as
/// overflow rather than bucketed (the paper's Table 4 likewise leaves
/// >50 KB reports out of its rows).
#[derive(Debug, Clone)]
pub struct SampleHistogram {
    bounds: Vec<(usize, usize)>,
    /// Each bucket's samples, in arrival order.
    samples: Vec<Vec<f64>>,
    overflow: usize,
}

impl SampleHistogram {
    /// Creates a histogram over the given `[lo, hi)` key buckets.
    ///
    /// # Panics
    ///
    /// If any bucket is empty (`lo >= hi`) or the buckets are not
    /// sorted and non-overlapping.
    pub fn new(bounds: &[(usize, usize)]) -> SampleHistogram {
        assert!(
            bounds.iter().all(|&(lo, hi)| lo < hi),
            "sample histogram buckets must be non-empty [lo, hi) ranges"
        );
        assert!(
            bounds.windows(2).all(|w| w[0].1 <= w[1].0),
            "sample histogram buckets must be sorted and non-overlapping"
        );
        SampleHistogram {
            bounds: bounds.to_vec(),
            samples: vec![Vec::new(); bounds.len()],
            overflow: 0,
        }
    }

    /// Index of the bucket whose range contains `key`, or `None` if
    /// `key` falls outside every bucket.
    pub fn bucket_index(&self, key: usize) -> Option<usize> {
        self.bounds.iter().position(|&(lo, hi)| key >= lo && key < hi)
    }

    /// Records one sample under `key`. Returns the bucket index, or
    /// `None` when `key` fell outside every bucket (counted as
    /// overflow; the sample value is discarded).
    pub fn record(&mut self, key: usize, value: f64) -> Option<usize> {
        let index = self.bucket_index(key);
        match index {
            Some(i) => self.samples[i].push(value),
            None => self.overflow += 1,
        }
        index
    }

    /// Keys recorded outside every bucket.
    pub fn overflow_count(&self) -> usize {
        self.overflow
    }

    /// Statistics for bucket `i`, or `None` if it has no samples.
    pub fn summary(&self, i: usize) -> Option<BucketSummary> {
        let samples = self.samples.get(i).filter(|s| !s.is_empty())?;
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Some(BucketSummary {
            bucket: self.bounds[i],
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        })
    }

    /// `(bucket, count)` for every bucket, including empty ones.
    pub fn counts(&self) -> Vec<((usize, usize), usize)> {
        self.bounds.iter().zip(&self.samples).map(|(&b, s)| (b, s.len())).collect()
    }

    /// Number of bucketed samples whose bucket lies entirely below
    /// `threshold` (i.e. buckets with `hi <= threshold`).
    pub fn bucketed_below(&self, threshold: usize) -> usize {
        self.bounds
            .iter()
            .zip(&self.samples)
            .filter(|(&(_, hi), _)| hi <= threshold)
            .map(|(_, s)| s.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buckets() -> SampleHistogram {
        SampleHistogram::new(&[(0, 10), (10, 20), (20, 50)])
    }

    #[test]
    fn keys_land_in_half_open_ranges() {
        let h = buckets();
        assert_eq!(h.bucket_index(0), Some(0));
        assert_eq!(h.bucket_index(9), Some(0));
        assert_eq!(h.bucket_index(10), Some(1));
        assert_eq!(h.bucket_index(49), Some(2));
        assert_eq!(h.bucket_index(50), None);
    }

    #[test]
    fn summary_matches_table4_math() {
        let mut h = buckets();
        for v in [1.0, 2.0, 3.0, 4.0, 10.0] {
            h.record(5, v);
        }
        let s = h.summary(0).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.median, 3.0, "odd counts take the middle sample");
        // Population std-dev of {1,2,3,4,10}: sqrt(10) ≈ 3.162.
        assert!((s.std_dev - 10f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn even_count_median_is_the_midpoint() {
        let mut h = buckets();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(0, v);
        }
        assert_eq!(h.summary(0).unwrap().median, 2.5);
    }

    #[test]
    fn overflow_is_counted_not_bucketed() {
        let mut h = buckets();
        assert_eq!(h.record(5, 1.0), Some(0));
        assert_eq!(h.record(99, 1.0), None);
        assert_eq!(h.overflow_count(), 1);
        let bucketed: usize = h.counts().iter().map(|(_, n)| n).sum();
        assert_eq!(bucketed, 1, "overflow must not land in a bucket");
    }

    #[test]
    fn counts_and_threshold_queries() {
        let mut h = buckets();
        h.record(5, 0.1);
        h.record(15, 0.2);
        h.record(15, 0.3);
        assert_eq!(
            h.counts(),
            vec![((0, 10), 1), ((10, 20), 2), ((20, 50), 0)]
        );
        assert_eq!(h.bucketed_below(20), 3);
        assert_eq!(h.bucketed_below(10), 1);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_buckets_are_rejected() {
        SampleHistogram::new(&[(0, 10), (5, 20)]);
    }
}
