//! Figure 8 and Table 4: the one-week TeraGrid depot observation.
//!
//! §5.2.1: "During the week, the depot received 151,955 reports from
//! the centralized controller, at a mean rate of 15.07 reports per
//! minute… 97.64% of the reports received were small, less than 10 KB.
//! The amount of data received was 259.36 MB." Table 4 gives the
//! response-time statistics per report-size bucket.
//!
//! The experiment replays a week-shaped stream against the paper's
//! depot ([`PaperDepot`]: envelope unpack, streaming splice, Table 4's
//! statistics): report sizes drawn from the Table 4 distribution,
//! branches drawn from the deployment's 1,060 instances (so the cache
//! reaches its steady ≈1.5 MB), and every response timed for real.

use inca_consumer::{render_histogram, render_table};
use inca_report::{BranchId, Timestamp};
use inca_server::DepotTiming;
use inca_sim::workload::{synthetic_report, SizeDistribution};
use inca_wire::envelope::{Envelope, EnvelopeMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::paper_depot::PaperDepot;
use crate::deployment::teragrid_deployment;
use crate::stats::BucketStats;

/// The experiment's outputs.
#[derive(Debug, Clone)]
pub struct DepotWeek {
    /// Table 4 rows (non-empty buckets).
    pub table4: Vec<BucketStats>,
    /// Figure 8 histogram: bucket → update count.
    pub size_histogram: Vec<((usize, usize), usize)>,
    /// Total reports received.
    pub reports: u64,
    /// Total bytes received.
    pub bytes: u64,
    /// Mean reports per minute over the replayed horizon.
    pub reports_per_minute: f64,
    /// Fraction of reports under 10 KB (paper: 97.64%).
    pub fraction_small: f64,
    /// Final cache size in bytes (paper: steady ≈1.5 MB).
    pub cache_bytes: usize,
}

/// Replays `report_count` reports (paper scale: 151,955) over a
/// simulated week.
pub fn run(seed: u64, report_count: u64, mode: EnvelopeMode) -> DepotWeek {
    let depot = replay(seed, report_count, mode, |_, _| {});
    let stats = depot.stats();
    let minutes = WEEK_SECS as f64 / 60.0;
    DepotWeek {
        table4: stats.table4(),
        size_histogram: stats.size_histogram(),
        reports: stats.report_count(),
        bytes: stats.bytes_received(),
        reports_per_minute: stats.report_count() as f64 / minutes,
        fraction_small: stats.fraction_below(10 * 1024),
        cache_bytes: depot.cache().size_bytes(),
    }
}

const WEEK_SECS: u64 = 7 * 86_400;

/// The replay itself: `each` sees every receive's timing and the
/// cache size it left behind.
fn replay(
    seed: u64,
    report_count: u64,
    mode: EnvelopeMode,
    mut each: impl FnMut(DepotTiming, usize),
) -> PaperDepot {
    let start = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
    let deployment = teragrid_deployment(seed, start, start + WEEK_SECS);
    let branches: Vec<BranchId> = deployment
        .assignments
        .iter()
        .flat_map(|a| a.spec.entries.iter().map(|e| e.branch.clone()))
        .collect();
    let dist = SizeDistribution::teragrid();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut depot = PaperDepot::new();
    for i in 0..report_count {
        // Spread arrivals evenly over the week (the paper's mean rate).
        let t = start + i * WEEK_SECS / report_count.max(1);
        let size = dist.sample(&mut rng);
        let branch = branches[rng.gen_range(0..branches.len())].clone();
        let report = synthetic_report(
            &format!("replay.{}", branch.get("reporter").unwrap_or("r")),
            "tg-replay.teragrid.org",
            t,
            size,
        );
        let envelope = Envelope::new(branch, report.to_xml());
        let timing = depot.receive(&envelope.encode(mode)).expect("replayed envelope is valid");
        each(timing, depot.cache().size_bytes());
    }
    depot
}

/// Renders Table 4 plus the Figure 8 histogram.
pub fn render(data: &DepotWeek) -> String {
    let mut out = String::from("Table 4: depot response-time statistics by report size\n\n");
    let headers =
        ["Report size", "mean (ms)", "std (ms)", "min (ms)", "max (ms)", "median (ms)", "updates"];
    let rows: Vec<Vec<String>> = data
        .table4
        .iter()
        .map(|b| {
            vec![
                format!("{}-{} KB", b.bucket.0 / 1024, b.bucket.1 / 1024),
                format!("{:.3}", b.mean * 1e3),
                format!("{:.3}", b.std_dev * 1e3),
                format!("{:.3}", b.min * 1e3),
                format!("{:.3}", b.max * 1e3),
                format!("{:.3}", b.median * 1e3),
                b.count.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(&headers, &rows));
    out.push_str(&format!(
        "\nreports={} ({:.2}/min, paper 15.07/min) volume={:.2} MB (paper 259.36 MB)\n",
        data.reports,
        data.reports_per_minute,
        data.bytes as f64 / 1e6
    ));
    out.push_str(&format!(
        "under 10 KB: {:.2}% (paper 97.64%) | final cache {:.2} MB (paper ~1.5 MB)\n\n",
        data.fraction_small * 100.0,
        data.cache_bytes as f64 / 1e6
    ));
    let hist: Vec<(String, usize)> = data
        .size_histogram
        .iter()
        .map(|((lo, hi), n)| (format!("{}-{} KB", lo / 1024, hi / 1024), *n))
        .collect();
    out.push_str(&render_histogram(
        "Figure 8: report sizes received by the centralized controller",
        &hist,
        50,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_replay_matches_paper_shape() {
        // 1/20 scale keeps the test fast; fractions are scale-free.
        let data = run(42, 7_600, EnvelopeMode::Body);
        assert_eq!(data.reports, 7_600);
        assert!(
            (0.96..0.99).contains(&data.fraction_small),
            "small fraction {:.4} (paper 0.9764)",
            data.fraction_small
        );
        // Non-empty buckets across the range.
        assert!(data.table4.len() >= 5, "buckets: {}", data.table4.len());
        // Response times are positive and means are sane.
        for b in &data.table4 {
            assert!(b.mean > 0.0 && b.min <= b.median && b.median <= b.max);
        }
        // Cache converges to the paper's ballpark even at 1/20 volume
        // (steady state only needs each branch visited once).
        assert!(
            (700_000..3_000_000).contains(&data.cache_bytes),
            "cache {} bytes",
            data.cache_bytes
        );
    }

    /// §5.2.2's decomposition, read off the week replay: unpacking
    /// grows with the report, the splice with the cache. (The *sum* per
    /// size bucket says neither: a streaming splice stops at the
    /// branch, so its cost follows the branch's place in the document.)
    #[test]
    fn larger_reports_cost_more_to_unpack_and_larger_caches_to_insert() {
        let mut timings: Vec<(DepotTiming, usize)> = Vec::new();
        let depot = replay(7, 6_000, EnvelopeMode::Body, |timing, cache_bytes| {
            timings.push((timing, cache_bytes));
        });
        // Medians: with other tests on the core, a few pre-empted
        // samples a thousand move a mean of 20 µs unpacks by half.
        fn median(picked: impl Iterator<Item = std::time::Duration>) -> f64 {
            let mut picked: Vec<std::time::Duration> = picked.collect();
            assert!(picked.len() >= 20, "only {} samples", picked.len());
            picked.sort();
            picked[picked.len() / 2].as_secs_f64()
        }
        let unpack_of = |sizes: std::ops::Range<usize>| {
            let sized = timings.iter().filter(|(t, _)| sizes.contains(&t.report_size));
            median(sized.map(|(t, _)| t.unpack))
        };
        let (small, big) = (unpack_of(0..10 * 1024), unpack_of(20 * 1024..usize::MAX));
        assert!(
            big > small * 1.5,
            "20KB+ unpack median {big:.6}s should exceed the under-10KB median {small:.6}s"
        );
        let full = depot.cache().size_bytes();
        let insert_at = |cache: std::ops::Range<usize>| {
            median(timings.iter().filter(|(_, c)| cache.contains(c)).map(|(t, _)| t.insert))
        };
        let (early, late) = (insert_at(0..full / 4), insert_at(full / 4 * 3..usize::MAX));
        assert!(
            late > early * 2.0,
            "insert median at a full cache {late:.6}s should exceed the early median {early:.6}s"
        );
    }

    #[test]
    fn render_contains_key_lines() {
        let data = run(3, 1_500, EnvelopeMode::Body);
        let text = render(&data);
        assert!(text.contains("Table 4"));
        assert!(text.contains("Figure 8"));
        assert!(text.contains("updates"));
    }
}
