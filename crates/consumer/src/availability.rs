//! Availability-over-time (Figure 5).
//!
//! "These summary percentages are archived and can be useful in
//! illustrating the stability of resources. Figure 5 shows the Grid
//! availability over a week's period for one of the TeraGrid's
//! resources calculated every ten minutes" (§4.1).
//!
//! [`AvailabilityTracker`] is the consumer side of that: after each
//! verification pass it records the per-category percentage into a
//! depot summary series; later it retrieves the series for plotting.

use inca_agreement::{Category, ComplianceSummary};
use inca_report::Timestamp;
use inca_rrd::{ArchivePolicy, GraphSeries};
use inca_server::{Depot, QueryInterface};

/// Records and retrieves archived summary percentages.
#[derive(Debug, Clone)]
pub struct AvailabilityTracker {
    policy: ArchivePolicy,
    /// Seconds between verification passes (paper: every ten minutes).
    period_secs: u64,
}

impl AvailabilityTracker {
    /// A tracker sampling every `period_secs`, keeping
    /// `history_secs` of archive.
    pub fn new(period_secs: u64, history_secs: u64) -> AvailabilityTracker {
        AvailabilityTracker {
            policy: ArchivePolicy::every("availability", history_secs),
            period_secs,
        }
    }

    /// The Figure 5 configuration: ten-minute samples, two weeks kept.
    pub fn figure5() -> AvailabilityTracker {
        AvailabilityTracker::new(600, 14 * 86_400)
    }

    /// Series name for one resource and category.
    pub fn series_name(resource_label: &str, category: Category) -> String {
        format!("availability:{}:{resource_label}", category.as_str())
    }

    /// Records one verification pass's percentages (one point per
    /// category with data; "n/a" categories are skipped).
    pub fn record(
        &self,
        depot: &mut Depot,
        resource_label: &str,
        summary: &ComplianceSummary,
        t: Timestamp,
    ) {
        for category in Category::all() {
            if let Some(pct) = summary.category(category).percent() {
                depot.archive_mut().record(
                    &Self::series_name(resource_label, category),
                    &self.policy,
                    self.period_secs,
                    t,
                    pct,
                );
            }
        }
        if let Some(pct) = summary.total().percent() {
            depot.archive_mut().record(
                &format!("availability:Total:{resource_label}"),
                &self.policy,
                self.period_secs,
                t,
                pct,
            );
        }
    }

    /// Retrieves the archived series for one resource and category via
    /// the temporal query layer (see `docs/QUERYING.md`).
    pub fn series(
        &self,
        query: &QueryInterface<'_>,
        resource_label: &str,
        category: Category,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<GraphSeries> {
        query.temporal().availability_series(resource_label, category.as_str(), start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_agreement::{ResourceVerification, TestResult};
    use inca_rrd::ConsolidationFn;

    fn summary(grid_pass: usize, grid_fail: usize) -> ComplianceSummary {
        let mut results = Vec::new();
        for i in 0..grid_pass + grid_fail {
            results.push(TestResult {
                id: format!("t{i}"),
                category: Category::Grid,
                passed: i < grid_pass,
                error: None,
            });
        }
        ComplianceSummary::from_verification(&ResourceVerification {
            resource: "r".into(),
            results,
        })
    }

    #[test]
    fn record_and_retrieve_series() {
        let mut depot = Depot::new();
        let tracker = AvailabilityTracker::figure5();
        let t0 = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        // A day of ten-minute samples: 100% except one bad hour.
        for i in 1..=144u64 {
            let t = t0 + i * 600;
            let s = if (60..66).contains(&i) { summary(5, 5) } else { summary(10, 0) };
            tracker.record(&mut depot, "sdsc-tg-login1", &s, t);
        }
        let q = QueryInterface::new(&depot);
        let series = tracker
            .series(&q, "sdsc-tg-login1", Category::Grid, t0, t0 + 86_400 + 600)
            .unwrap();
        let known: Vec<f64> = series.known().map(|(_, v)| v).collect();
        assert!(known.len() > 100);
        assert!(known.contains(&100.0));
        assert!(known.contains(&50.0), "the outage hour must show");
        let stats = series.stats().unwrap();
        assert!(stats.mean > 90.0 && stats.mean < 100.0);
    }

    #[test]
    fn na_categories_skipped() {
        let mut depot = Depot::new();
        let tracker = AvailabilityTracker::figure5();
        let t = Timestamp::from_gmt(2004, 7, 7, 0, 10, 0);
        tracker.record(&mut depot, "r", &summary(1, 0), t);
        let q = QueryInterface::new(&depot);
        // Grid exists, Development/Cluster were n/a → no series.
        assert!(q
            .archived_series(
                &AvailabilityTracker::series_name("r", Category::Development),
                ConsolidationFn::Average,
                t - 600,
                t + 600
            )
            .is_none());
    }

    #[test]
    fn total_series_recorded() {
        let mut depot = Depot::new();
        let tracker = AvailabilityTracker::figure5();
        let t0 = Timestamp::from_gmt(2004, 7, 7, 0, 0, 0);
        for i in 1..=6u64 {
            tracker.record(&mut depot, "r", &summary(3, 1), t0 + i * 600);
        }
        let q = QueryInterface::new(&depot);
        let series = q
            .archived_series("availability:Total:r", ConsolidationFn::Average, t0, t0 + 4_000)
            .unwrap();
        assert!(series.known().all(|(_, v)| (v - 75.0).abs() < 1e-9));
    }
}
