//! Response-time and report-size statistics.
//!
//! Table 4 reports depot response-time statistics per report-size
//! bucket (mean/std/min/max/median and update counts) over a one-week
//! observation; Figure 8 is the histogram of received report sizes.
//! [`ResponseStats`] collects both from the paper's depot
//! ([`PaperDepot`](crate::experiments::paper_depot::PaperDepot)); the
//! production depot keeps no such accounting.
//!
//! The bucketing and summary math (population standard deviation,
//! midpoint median) live in the crate's `SampleHistogram` — this module defines
//! the paper's bucket bounds and adapts its summaries into Table 4
//! rows, so Table 4 and Figure 8 come from one source of truth.

use crate::hist::SampleHistogram;

/// Table 4's report-size buckets in bytes: 0–4 KB … 40–50 KB.
pub const SIZE_BUCKETS: [(usize, usize); 6] = [
    (0, 4 * 1024),
    (4 * 1024, 10 * 1024),
    (10 * 1024, 20 * 1024),
    (20 * 1024, 30 * 1024),
    (30 * 1024, 40 * 1024),
    (40 * 1024, 50 * 1024),
];

/// Summary statistics for one size bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// Bucket bounds in bytes.
    pub bucket: (usize, usize),
    /// Number of updates.
    pub count: usize,
    /// Mean response time in seconds.
    pub mean: f64,
    /// Population standard deviation in seconds.
    pub std_dev: f64,
    /// Minimum in seconds.
    pub min: f64,
    /// Maximum in seconds.
    pub max: f64,
    /// Median in seconds.
    pub median: f64,
}

/// Collects per-bucket response times and aggregate volume counters.
#[derive(Debug, Clone)]
pub struct ResponseStats {
    /// Response-time samples (seconds) bucketed by report size;
    /// oversize reports land in the histogram's overflow count.
    hist: SampleHistogram,
    /// Total reports recorded.
    reports: u64,
    /// Total bytes recorded.
    bytes: u64,
}

impl ResponseStats {
    /// An empty collector.
    pub fn new() -> ResponseStats {
        ResponseStats { hist: SampleHistogram::new(&SIZE_BUCKETS), reports: 0, bytes: 0 }
    }

    /// Index of the bucket for `size` bytes.
    pub fn bucket_index(size: usize) -> Option<usize> {
        SIZE_BUCKETS.iter().position(|&(lo, hi)| size >= lo && size < hi)
    }

    /// Records one update.
    pub fn record(&mut self, report_size: usize, response_secs: f64) {
        self.reports += 1;
        self.bytes += report_size as u64;
        self.hist.record(report_size, response_secs);
    }

    /// Total reports recorded (§5.2.1's 151,955).
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// Total bytes recorded (§5.2.1's 259.36 MB).
    pub fn bytes_received(&self) -> u64 {
        self.bytes
    }

    /// Reports larger than the largest bucket.
    pub fn oversize_count(&self) -> usize {
        self.hist.overflow_count()
    }

    /// Statistics for bucket `i`, or `None` if it has no samples.
    pub fn bucket_stats(&self, i: usize) -> Option<BucketStats> {
        let s = self.hist.summary(i)?;
        Some(BucketStats {
            bucket: s.bucket,
            count: s.count,
            mean: s.mean,
            std_dev: s.std_dev,
            min: s.min,
            max: s.max,
            median: s.median,
        })
    }

    /// All non-empty buckets in order — the rows of Table 4.
    pub fn table4(&self) -> Vec<BucketStats> {
        (0..SIZE_BUCKETS.len()).filter_map(|i| self.bucket_stats(i)).collect()
    }

    /// Update counts per bucket (including empty ones) — Figure 8's
    /// histogram data.
    pub fn size_histogram(&self) -> Vec<((usize, usize), usize)> {
        self.hist.counts()
    }

    /// Fraction of recorded reports smaller than `threshold` bytes
    /// (Figure 8's "97.64% of the reports received were small, less
    /// than 10 KB").
    pub fn fraction_below(&self, threshold: usize) -> f64 {
        if self.reports == 0 {
            return 0.0;
        }
        self.hist.bucketed_below(threshold) as f64 / self.reports as f64
    }
}

impl Default for ResponseStats {
    fn default() -> ResponseStats {
        ResponseStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(ResponseStats::bucket_index(0), Some(0));
        assert_eq!(ResponseStats::bucket_index(851), Some(0));
        assert_eq!(ResponseStats::bucket_index(4 * 1024), Some(1));
        assert_eq!(ResponseStats::bucket_index(9_257), Some(1));
        assert_eq!(ResponseStats::bucket_index(23_168), Some(3));
        assert_eq!(ResponseStats::bucket_index(45_527), Some(5));
        assert_eq!(ResponseStats::bucket_index(51 * 1024), None);
    }

    #[test]
    fn static_and_histogram_bucketing_agree() {
        let stats = ResponseStats::new();
        for size in [0, 851, 4 * 1024, 9_257, 23_168, 45_527, 51 * 1024, usize::MAX] {
            assert_eq!(
                ResponseStats::bucket_index(size),
                stats.hist.bucket_index(size),
                "divergent bucketing for size {size}"
            );
        }
    }

    #[test]
    fn stats_computation() {
        let mut stats = ResponseStats::new();
        for v in [1.0, 2.0, 3.0, 4.0, 10.0] {
            stats.record(1_000, v);
        }
        let b = stats.bucket_stats(0).unwrap();
        assert_eq!(b.count, 5);
        assert_eq!(b.mean, 4.0);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 10.0);
        assert_eq!(b.median, 3.0);
        assert!((b.std_dev - 3.162).abs() < 0.01);
    }

    #[test]
    fn even_count_median_interpolates() {
        let mut stats = ResponseStats::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            stats.record(100, v);
        }
        assert_eq!(stats.bucket_stats(0).unwrap().median, 2.5);
    }

    #[test]
    fn empty_buckets_skipped_in_table4() {
        let mut stats = ResponseStats::new();
        stats.record(851, 0.5);
        stats.record(45_527, 2.0);
        let rows = stats.table4();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bucket, SIZE_BUCKETS[0]);
        assert_eq!(rows[1].bucket, SIZE_BUCKETS[5]);
    }

    #[test]
    fn aggregate_counters() {
        let mut stats = ResponseStats::new();
        stats.record(1_000, 0.1);
        stats.record(2_000, 0.2);
        stats.record(60 * 1024, 0.3); // oversize
        assert_eq!(stats.report_count(), 3);
        assert_eq!(stats.bytes_received(), 1_000 + 2_000 + 60 * 1024);
        assert_eq!(stats.oversize_count(), 1);
    }

    #[test]
    fn fraction_below_threshold() {
        let mut stats = ResponseStats::new();
        for _ in 0..97 {
            stats.record(1_000, 0.1);
        }
        for _ in 0..3 {
            stats.record(25_000, 1.0);
        }
        assert!((stats.fraction_below(10 * 1024) - 0.97).abs() < 1e-9);
        assert_eq!(ResponseStats::new().fraction_below(10_240), 0.0);
    }

    #[test]
    fn histogram_covers_all_buckets() {
        let mut stats = ResponseStats::new();
        stats.record(851, 0.1);
        let hist = stats.size_histogram();
        assert_eq!(hist.len(), SIZE_BUCKETS.len());
        assert_eq!(hist[0].1, 1);
        assert!(hist[1..].iter().all(|&(_, n)| n == 0));
    }
}
