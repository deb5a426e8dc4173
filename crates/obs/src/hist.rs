//! A bucket-keyed histogram for exact summary statistics in bounded
//! memory.
//!
//! [`Histogram`](crate::metrics::Histogram) trades precision for
//! constant memory; some consumers — the paper's Table 4 response
//! statistics in particular — need *exact* per-bucket mean, standard
//! deviation, and median, which requires keeping the samples.
//! [`SampleHistogram`] buckets each observation by an integer key
//! (e.g. report size in bytes) into half-open `[lo, hi)` ranges and
//! retains the sample values for later summarisation — every one of
//! them up to [`SAMPLE_CAP`] per bucket, a fixed-size uniform sample
//! of them beyond it, so a long-running depot's statistics stop
//! growing by 8 bytes per report.

/// Most samples one bucket retains. Up to here every summary field is
/// computed from the full sample set; past it count, mean, standard
/// deviation, min and max stay exact (streamed) and the median comes
/// from a uniform reservoir of this size. Chosen above the paper's
/// whole observation week (151,955 reports, §5.2.1), so Table 4 is
/// reproduced from complete samples; 2 MiB per bucket at the cap.
pub const SAMPLE_CAP: usize = 1 << 18;

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
    /// Past [`SAMPLE_CAP`] samples, the median of the reservoir.
    pub median: f64,
}

/// One bucket's retained samples and streamed moments.
#[derive(Debug, Clone, Default, PartialEq)]
struct Bucket {
    /// Every sample in arrival order while `count <= SAMPLE_CAP`;
    /// afterwards a uniform reservoir (Vitter's algorithm R).
    samples: Vec<f64>,
    count: usize,
    /// Welford running mean and sum of squared deviations.
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Bucket {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            (self.min, self.max) = (value, value);
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(value);
            return;
        }
        // The n-th sample replaces a uniformly chosen slot with
        // probability SAMPLE_CAP / n. The draw is SplitMix64 of n, so
        // the reservoir is a pure function of the recorded sequence.
        let mut z = (self.count as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % self.count as u64) as usize;
        if slot < SAMPLE_CAP {
            self.samples[slot] = value;
        }
    }
}

/// Buckets `f64` samples by an integer key into fixed half-open
/// ranges, retaining up to [`SAMPLE_CAP`] samples per bucket.
///
/// Keys at or past the last bucket's upper bound are counted as
/// overflow rather than bucketed (the paper's Table 4 likewise leaves
/// >50 KB reports out of its rows).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleHistogram {
    bounds: Vec<(usize, usize)>,
    buckets: Vec<Bucket>,
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
            buckets: vec![Bucket::default(); bounds.len()],
            overflow: 0,
        }
    }

    /// The configured `[lo, hi)` buckets.
    pub fn bounds(&self) -> &[(usize, usize)] {
        &self.bounds
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
        match self.bucket_index(key) {
            Some(i) => {
                self.buckets[i].record(value);
                Some(i)
            }
            None => {
                self.overflow += 1;
                None
            }
        }
    }

    /// Number of samples recorded in bucket `i` (0 for out-of-range
    /// `i`).
    pub fn bucket_len(&self, i: usize) -> usize {
        self.buckets.get(i).map_or(0, |b| b.count)
    }

    /// The retained samples of bucket `i`: all of them, in arrival
    /// order, up to [`SAMPLE_CAP`]; a uniform sample of them beyond.
    pub fn samples(&self, i: usize) -> &[f64] {
        self.buckets.get(i).map_or(&[], |b| b.samples.as_slice())
    }

    /// Keys recorded outside every bucket.
    pub fn overflow_count(&self) -> usize {
        self.overflow
    }

    /// Total samples recorded, including overflowed ones.
    pub fn total_recorded(&self) -> usize {
        self.overflow + self.buckets.iter().map(|b| b.count).sum::<usize>()
    }

    /// Statistics for bucket `i`, or `None` if it has no samples.
    pub fn summary(&self, i: usize) -> Option<BucketSummary> {
        let bucket = self.buckets.get(i)?;
        if bucket.count == 0 {
            return None;
        }
        let count = bucket.count;
        // While every sample is retained, mean and deviation are the
        // two-pass values over them — what an unbounded histogram
        // computes, bit for bit; the streamed moments take over only
        // once samples have been discarded.
        let (mean, var) = if count == bucket.samples.len() {
            let mean = bucket.samples.iter().sum::<f64>() / count as f64;
            let squares: f64 = bucket.samples.iter().map(|s| (s - mean).powi(2)).sum();
            (mean, squares / count as f64)
        } else {
            (bucket.mean, bucket.m2 / count as f64)
        };
        let mut sorted = bucket.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let retained = sorted.len();
        let median = if retained % 2 == 1 {
            sorted[retained / 2]
        } else {
            (sorted[retained / 2 - 1] + sorted[retained / 2]) / 2.0
        };
        Some(BucketSummary {
            bucket: self.bounds[i],
            count,
            mean,
            std_dev: var.sqrt(),
            min: bucket.min,
            max: bucket.max,
            median,
        })
    }

    /// Summaries of every non-empty bucket, in bucket order.
    pub fn summaries(&self) -> Vec<BucketSummary> {
        (0..self.bounds.len()).filter_map(|i| self.summary(i)).collect()
    }

    /// `(bucket, count)` for every bucket, including empty ones.
    pub fn counts(&self) -> Vec<((usize, usize), usize)> {
        self.bounds.iter().zip(&self.buckets).map(|(&b, bucket)| (b, bucket.count)).collect()
    }

    /// Number of bucketed samples whose bucket lies entirely below
    /// `threshold` (i.e. buckets with `hi <= threshold`).
    pub fn bucketed_below(&self, threshold: usize) -> usize {
        self.bounds
            .iter()
            .zip(&self.buckets)
            .filter(|(&(_, hi), _)| hi <= threshold)
            .map(|(_, bucket)| bucket.count)
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
        assert_eq!(h.total_recorded(), 2);
        assert_eq!(h.summaries().len(), 1, "overflow must not create a row");
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

    /// What the histogram computed before it was bounded: every
    /// sample kept, two-pass moments, midpoint median.
    fn unbounded_reference(bucket: (usize, usize), samples: &[f64]) -> BucketSummary {
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / count as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        BucketSummary {
            bucket,
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Skewed response-time-like values in (0, 1], deterministic.
    fn response_times(n: usize) -> Vec<f64> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                unit * unit * unit
            })
            .collect()
    }

    #[test]
    fn up_to_the_cap_every_field_equals_the_unbounded_reference() {
        // The paper's week (151,955 reports) and the cap itself.
        for n in [1, 2, 151_955, SAMPLE_CAP] {
            let values = response_times(n);
            let mut h = buckets();
            for &v in &values {
                h.record(5, v);
            }
            assert_eq!(h.summary(0).unwrap(), unbounded_reference((0, 10), &values), "n = {n}");
            assert_eq!(h.samples(0), &values[..], "arrival order kept");
        }
    }

    #[test]
    fn past_the_cap_memory_is_bounded_and_moments_stay_exact() {
        let n = 3 * SAMPLE_CAP + 17;
        let values = response_times(n);
        let mut h = buckets();
        for &v in &values {
            h.record(5, v);
        }
        assert_eq!(h.samples(0).len(), SAMPLE_CAP, "retained samples stop at the cap");
        assert_eq!(h.bucket_len(0), n);
        assert_eq!(h.counts()[0].1, n);
        assert_eq!(h.bucketed_below(10), n);
        let got = h.summary(0).unwrap();
        let want = unbounded_reference((0, 10), &values);
        assert_eq!((got.count, got.min, got.max), (want.count, want.min, want.max));
        assert!((got.mean - want.mean).abs() <= 1e-12 * want.mean, "{} vs {}", got.mean, want.mean);
        assert!((got.std_dev - want.std_dev).abs() <= 1e-9 * want.std_dev);
        // The reservoir median is an estimate: its rank among all the
        // samples must sit within 1% of the middle.
        let rank = values.iter().filter(|&&v| v < got.median).count() as f64 / n as f64;
        assert!((rank - 0.5).abs() < 0.01, "reservoir median at rank {rank}");
        // Deterministic: the same sequence gives the same reservoir.
        let mut again = buckets();
        for &v in &values {
            again.record(5, v);
        }
        assert_eq!(again, h);
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn overlapping_buckets_are_rejected() {
        SampleHistogram::new(&[(0, 10), (5, 20)]);
    }
}
