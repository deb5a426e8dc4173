//! Inca archival policies.
//!
//! "In order to indicate that a piece of data is to be archived, an
//! archival policy for that data must be uploaded to the depot. The
//! archival policy describes the granularity of archiving (e.g., every
//! fifth measurement) and the length of history to keep." (§3.2.2)
//!
//! [`ArchivePolicy`] is that description; [`ArchivePolicy::build`]
//! compiles it (plus the measurement period of the reporter feeding it)
//! into a concrete [`Rrd`] with AVERAGE/MIN/MAX archives.

use inca_report::Timestamp;

use crate::ds::DataSource;
use crate::rra::ConsolidationFn;
use crate::rrd::{ArchiveDef, Rrd, RrdError};

/// A declarative archival policy attached to a piece of data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchivePolicy {
    /// Policy name (policies are reusable: "one can assign several
    /// pieces of data the same policy at the same time").
    pub name: String,
    /// Archive every `granularity`-th measurement (1 = every one).
    pub granularity: u32,
    /// Length of history to keep, in seconds.
    pub history_secs: u64,
    /// Whether to also keep MIN/MAX envelopes alongside AVERAGE.
    pub keep_extremes: bool,
}

impl ArchivePolicy {
    /// A policy archiving every measurement for the given history.
    pub fn every(name: impl Into<String>, history_secs: u64) -> Self {
        ArchivePolicy { name: name.into(), granularity: 1, history_secs, keep_extremes: false }
    }

    /// A policy archiving every `n`-th measurement.
    pub fn every_nth(name: impl Into<String>, n: u32, history_secs: u64) -> Self {
        ArchivePolicy { name: name.into(), granularity: n.max(1), history_secs, keep_extremes: false }
    }

    /// Builder-style: keep MIN/MAX envelopes too.
    pub fn with_extremes(mut self) -> Self {
        self.keep_extremes = true;
        self
    }

    /// Seconds covered by one archived point for a reporter that
    /// measures every `measurement_period` seconds.
    pub fn archive_step(&self, measurement_period: u64) -> u64 {
        measurement_period.max(1) * self.granularity as u64
    }

    /// Number of rows the archive needs for the requested history.
    pub fn rows(&self, measurement_period: u64) -> usize {
        let step = self.archive_step(measurement_period);
        self.history_secs.div_ceil(step).max(1) as usize
    }

    /// Compiles the policy into an [`Rrd`] for a reporter with the
    /// given measurement period (seconds between measurements).
    pub fn build(&self, start: Timestamp, measurement_period: u64) -> Result<Rrd, RrdError> {
        let period = measurement_period.max(1);
        let rows = self.rows(period);
        // Consolidate `granularity` measurements per archived point.
        let mut archives = vec![ArchiveDef {
            cf: ConsolidationFn::Average,
            xff: 0.5,
            steps: self.granularity.max(1),
            rows,
        }];
        if self.keep_extremes {
            for cf in [ConsolidationFn::Min, ConsolidationFn::Max] {
                archives.push(ArchiveDef { cf, xff: 0.5, steps: self.granularity.max(1), rows });
            }
        }
        // Heartbeat: allow one missed measurement before data is
        // declared unknown.
        let sources = vec![DataSource::gauge("value", period * 2)];
        Rrd::new(start, period, sources, archives)
    }

    /// Like [`ArchivePolicy::build`], but additionally carries one
    /// coarser AVERAGE archive per `(factor, history_secs)` tier: each
    /// tier consolidates `factor` base archive points into one CDP and
    /// keeps `history_secs` of history at that resolution.
    ///
    /// This is the multi-resolution layout
    /// [`Rrd::fetch_resolution`](crate::Rrd::fetch_resolution) selects
    /// over — a fine ring for recent windows, coarse rings for long
    /// horizons — while total storage stays bounded.
    pub fn build_tiered(
        &self,
        start: Timestamp,
        measurement_period: u64,
        tiers: &[(u32, u64)],
    ) -> Result<Rrd, RrdError> {
        let period = measurement_period.max(1);
        let base_steps = self.granularity.max(1);
        let mut archives = vec![ArchiveDef {
            cf: ConsolidationFn::Average,
            xff: 0.5,
            steps: base_steps,
            rows: self.rows(period),
        }];
        for &(factor, history_secs) in tiers {
            let steps = base_steps * factor.max(2);
            let span = period * steps as u64;
            let rows = history_secs.div_ceil(span).max(1) as usize;
            archives.push(ArchiveDef { cf: ConsolidationFn::Average, xff: 0.5, steps, rows });
        }
        if self.keep_extremes {
            for cf in [ConsolidationFn::Min, ConsolidationFn::Max] {
                archives.push(ArchiveDef { cf, xff: 0.5, steps: base_steps, rows: self.rows(period) });
            }
        }
        let sources = vec![DataSource::gauge("value", period * 2)];
        Rrd::new(start, period, sources, archives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measurement_policy() {
        let p = ArchivePolicy::every("weekly-detail", 7 * 86_400);
        assert_eq!(p.granularity, 1);
        assert_eq!(p.archive_step(600), 600);
        assert_eq!(p.rows(600), 1_008); // a week of 10-minute points
    }

    #[test]
    fn every_fifth_measurement_policy() {
        // The paper's example: archive every fifth measurement.
        let p = ArchivePolicy::every_nth("coarse", 5, 86_400);
        assert_eq!(p.archive_step(600), 3_000);
        assert_eq!(p.rows(600), 29); // ceil(86400 / 3000)
    }

    #[test]
    fn granularity_zero_clamped() {
        let p = ArchivePolicy::every_nth("x", 0, 3_600);
        assert_eq!(p.granularity, 1);
    }

    #[test]
    fn build_produces_working_rrd() {
        let p = ArchivePolicy::every("detail", 3_600);
        let mut rrd = p.build(Timestamp::EPOCH, 600).unwrap();
        for i in 1..=6 {
            rrd.update_single(Timestamp::from_secs(i * 600), i as f64).unwrap();
        }
        let f = rrd
            .fetch(ConsolidationFn::Average, Timestamp::EPOCH, Timestamp::from_secs(3_601))
            .unwrap();
        assert_eq!(f.points.len(), 6);
        assert_eq!(f.step, 600);
    }

    #[test]
    fn build_with_extremes_adds_min_max() {
        let p = ArchivePolicy::every("detail", 3_600).with_extremes();
        let mut rrd = p.build(Timestamp::EPOCH, 600).unwrap();
        for i in 1..=6 {
            rrd.update_single(Timestamp::from_secs(i * 600), i as f64).unwrap();
        }
        assert!(rrd.fetch(ConsolidationFn::Min, Timestamp::EPOCH, rrd.last_update() + 1).is_ok());
        assert!(rrd.fetch(ConsolidationFn::Max, Timestamp::EPOCH, rrd.last_update() + 1).is_ok());
    }

    #[test]
    fn consolidation_respects_granularity() {
        let p = ArchivePolicy::every_nth("coarse", 5, 86_400);
        let mut rrd = p.build(Timestamp::EPOCH, 600).unwrap();
        for i in 1..=10 {
            rrd.update_single(Timestamp::from_secs(i * 600), i as f64).unwrap();
        }
        let f = rrd
            .fetch(ConsolidationFn::Average, Timestamp::EPOCH, rrd.last_update() + 1)
            .unwrap();
        assert_eq!(f.step, 3_000);
        assert_eq!(f.points.len(), 2);
        assert_eq!(f.points[0].1, 3.0); // mean of 1..=5
        assert_eq!(f.points[1].1, 8.0); // mean of 6..=10
    }

    #[test]
    fn tiered_build_adds_coarse_averages() {
        // Ten-minute base points for a day, hourly for a week,
        // six-hourly for a month.
        let p = ArchivePolicy::every("multi", 86_400);
        let mut rrd =
            p.build_tiered(Timestamp::EPOCH, 600, &[(6, 7 * 86_400), (36, 30 * 86_400)]).unwrap();
        for i in 1..=72u64 {
            rrd.update_single(Timestamp::from_secs(i * 600), (i % 5) as f64).unwrap();
        }
        let day = rrd
            .fetch_resolution(ConsolidationFn::Average, Timestamp::EPOCH, rrd.last_update() + 1, 600)
            .unwrap();
        assert_eq!(day.step, 600);
        let week = rrd
            .fetch_resolution(
                ConsolidationFn::Average,
                Timestamp::EPOCH,
                rrd.last_update() + 1,
                3_600,
            )
            .unwrap();
        assert_eq!(week.step, 3_600);
        assert_eq!(week.known_points().count(), 12);
        let month = rrd
            .fetch_resolution(
                ConsolidationFn::Average,
                Timestamp::EPOCH,
                rrd.last_update() + 1,
                6 * 3_600,
            )
            .unwrap();
        assert_eq!(month.step, 6 * 3_600);
        assert_eq!(month.known_points().count(), 2);
    }

    #[test]
    fn tiered_build_keeps_extremes_on_base_resolution() {
        let p = ArchivePolicy::every("multi", 3_600).with_extremes();
        let mut rrd = p.build_tiered(Timestamp::EPOCH, 600, &[(6, 86_400)]).unwrap();
        for i in 1..=12u64 {
            rrd.update_single(Timestamp::from_secs(i * 600), i as f64).unwrap();
        }
        assert!(rrd.fetch(ConsolidationFn::Min, Timestamp::EPOCH, rrd.last_update() + 1).is_ok());
        assert!(rrd.fetch(ConsolidationFn::Max, Timestamp::EPOCH, rrd.last_update() + 1).is_ok());
    }

    #[test]
    fn zero_period_clamped() {
        let p = ArchivePolicy::every("x", 3_600);
        assert_eq!(p.archive_step(0), 1);
        assert!(p.build(Timestamp::EPOCH, 0).is_ok());
    }
}
