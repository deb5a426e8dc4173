//! Time-travel queries over the archive.
//!
//! The paper's consumer views (Figures 5–8) were bespoke CGI programs
//! over RRDTool files. [`TemporalQuery`] turns them into *queries*: a
//! read-side layer over the depot's [`ArchiveStore`] and report cache
//! that answers "what did the grid look like over this window?"
//! questions — windowed availability aggregates per resource/site/VO,
//! consolidation-aware multi-resolution fetch (the right RRA for the
//! requested window and step), and incident reconstruction that joins
//! archive windows with the trace lineage of the reports that fed them.
//!
//! Obtain one through [`QueryInterface::temporal`]; every query
//! observes its latency into
//! `inca_depot_temporal_query_seconds{kind=...}`. The full cookbook,
//! including the Figure 5–8 reproductions, lives in `docs/QUERYING.md`.
//!
//! [`QueryInterface::temporal`]: crate::QueryInterface::temporal
//! [`ArchiveStore`]: crate::ArchiveStore

use std::cmp::Ordering;
use std::sync::Arc;

use inca_obs::metrics::{Histogram, DEFAULT_LATENCY_BOUNDS};
use inca_obs::trace::Event;
use inca_obs::{StoredEvent, TraceStore};
use inca_report::{BranchId, Report, Timestamp};
use inca_rrd::{ConsolidationFn, GraphSeries};

use inca_report::cache::CacheError;
use crate::depot::depot::Depot;

/// Summary of one series over one time window: the "resource X's
/// compliance over the last simulated quarter" answer shape.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAggregate {
    /// The series the window was computed over.
    pub series: String,
    /// Seconds per point in the archive that answered.
    pub step: u64,
    /// Total points in the window (known + unknown).
    pub points: usize,
    /// Known (non-NaN) points.
    pub known: usize,
    /// Mean of the known points.
    pub mean: f64,
    /// Minimum known point.
    pub min: f64,
    /// Maximum known point.
    pub max: f64,
    /// Fraction of the window with no data (monitoring gaps).
    pub unknown_fraction: f64,
}

/// A contiguous run of archive points below a threshold (or unknown):
/// a dip in an availability series, ready to be joined with lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The series the incident was found in.
    pub series: String,
    /// Start of the first offending consolidation interval.
    pub start: Timestamp,
    /// End of the last offending consolidation interval.
    pub end: Timestamp,
    /// Lowest known value in the run (NaN when the whole run is a
    /// monitoring gap rather than a measured dip).
    pub trough: f64,
    /// Number of archive points in the run.
    pub points: usize,
}

/// One report execution implicated in an incident, reconstructed from
/// trace lineage: the join of an archive window with `daemon.run`
/// span events.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentCause {
    /// Trace id of the run, for correlating spool/retry/ingest events.
    pub trace_id: Option<u64>,
    /// The reporter that ran.
    pub reporter: String,
    /// Scheduled firing time of the run.
    pub fired_at: Timestamp,
    /// The run's outcome (`succeeded`, `failed`, `killed`).
    pub outcome: String,
}

/// Temporal (time-travel) queries over a depot's archive and cache.
///
/// Construct via [`QueryInterface::temporal`](crate::QueryInterface::temporal).
#[derive(Debug)]
pub struct TemporalQuery<'a> {
    depot: &'a Depot,
    /// `inca_depot_temporal_query_seconds{kind="availability"}`.
    availability_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="aggregate"}`.
    aggregate_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="multires"}`.
    multires_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="rule"}`.
    rule_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="reports"}`.
    reports_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="incident"}`.
    incident_hist: Arc<Histogram>,
    /// `inca_depot_temporal_query_seconds{kind="trace"}`.
    trace_hist: Arc<Histogram>,
}

impl<'a> TemporalQuery<'a> {
    /// Wraps a depot. Metrics register in the depot's
    /// [`Obs`](inca_obs::Obs) handle, one labelled series per query
    /// kind.
    pub(crate) fn new(depot: &'a Depot) -> TemporalQuery<'a> {
        let metrics = depot.obs().metrics();
        let help = "Time answering one temporal (archive window) query.";
        let hist = |kind: &str| {
            metrics.histogram_with(
                "inca_depot_temporal_query_seconds",
                &[("kind", kind)],
                help,
                &DEFAULT_LATENCY_BOUNDS,
            )
        };
        TemporalQuery {
            depot,
            availability_hist: hist("availability"),
            aggregate_hist: hist("aggregate"),
            multires_hist: hist("multires"),
            rule_hist: hist("rule"),
            reports_hist: hist("reports"),
            incident_hist: hist("incident"),
            trace_hist: hist("trace"),
        }
    }

    /// Observes one query's latency under its kind label.
    fn timed<T>(&self, hist: &Histogram, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        hist.observe_duration(start.elapsed());
        out
    }

    /// The Figure 5 series: an archived availability percentage for
    /// one resource label and category over a window.
    ///
    /// `category` is a summary category name as recorded by the
    /// consumer (`"Grid"`, `"Development"`, `"Cluster"`, or `"Total"`);
    /// the series name is `availability:{category}:{resource_label}`,
    /// exactly the name [`series_names`](crate::ArchiveStore::series_names)
    /// lists.
    pub fn availability_series(
        &self,
        resource_label: &str,
        category: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<GraphSeries> {
        self.timed(&self.availability_hist, || {
            let series = format!("availability:{category}:{resource_label}");
            let fetch =
                self.depot.archive().fetch_series(&series, ConsolidationFn::Average, start, end)?;
            Some(GraphSeries::from_fetch(series, fetch))
        })
    }

    /// Fetches `series` whether it is consumer-recorded or rule-fed.
    /// Consumer (manual) names are tried verbatim first; a miss whose
    /// name splits as `{rule}:{branch}` — the shape
    /// [`series_names`](crate::ArchiveStore::series_names) lists
    /// rule-fed series under — falls through to the rule-fed store, so
    /// windowed queries see one flat namespace over both.
    fn fetch_any(
        &self,
        series: &str,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<inca_rrd::FetchResult> {
        let archive = self.depot.archive();
        if let Some(fetch) = archive.fetch_series(series, cf, start, end) {
            return Some(fetch);
        }
        let (rule, branch) = series.split_once(':')?;
        let branch: BranchId = branch.parse().ok()?;
        archive.fetch_rule_series(rule, &branch, cf, start, end)
    }

    /// Windowed summary of one archived series: mean/min/max
    /// availability and the unknown fraction over `[start, end)`.
    pub fn window_aggregate(
        &self,
        series: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<WindowAggregate> {
        self.timed(&self.aggregate_hist, || {
            let fetch = self.fetch_any(series, ConsolidationFn::Average, start, end)?;
            let graph = GraphSeries::from_fetch(series, fetch);
            let stats = graph.stats();
            Some(WindowAggregate {
                series: series.to_string(),
                step: graph.step,
                points: graph.points.len(),
                known: stats.map_or(0, |s| s.count),
                mean: stats.map_or(f64::NAN, |s| s.mean),
                min: stats.map_or(f64::NAN, |s| s.min),
                max: stats.map_or(f64::NAN, |s| s.max),
                unknown_fraction: graph.unknown_fraction(),
            })
        })
    }

    /// Windowed summaries for every archived series whose name starts
    /// with `series_prefix`, sorted by name.
    ///
    /// Availability series are named
    /// `availability:{category}:{site}-{host}`, so the prefix selects
    /// scope: `"availability:Grid:"` aggregates a whole VO,
    /// `"availability:Grid:sdsc-"` one site, and the full series name
    /// one resource.
    pub fn window_aggregates(
        &self,
        series_prefix: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<(String, WindowAggregate)> {
        let mut names: Vec<String> = self
            .depot
            .archive()
            .series_names()
            .into_iter()
            .filter(|n| n.starts_with(series_prefix))
            .collect();
        names.sort();
        names
            .into_iter()
            .filter_map(|name| {
                let agg = self.window_aggregate(&name, start, end)?;
                Some((name, agg))
            })
            .collect()
    }

    /// One windowed summary over *every* series matching
    /// `series_prefix` — the federated VO-scope answer shape.
    ///
    /// Per-series windows come from [`TemporalQuery::window_aggregates`]
    /// (so rule-fed rollup series count, via the flat namespace); they
    /// combine into a single [`WindowAggregate`]: `known` and `points`
    /// sum, `mean` weights each series by its known points, `min`/`max`
    /// take the extremes, and the unknown fraction weights by points.
    /// A federated root holding per-site rollup series answers "VO
    /// compliance last quarter" here without touching one leaf
    /// document. `None` when no series matches.
    pub fn federated_aggregate(
        &self,
        series_prefix: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<WindowAggregate> {
        let parts = self.window_aggregates(series_prefix, start, end);
        if parts.is_empty() {
            return None;
        }
        let mut combined = WindowAggregate {
            series: format!("{series_prefix}*"),
            step: 0,
            points: 0,
            known: 0,
            mean: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            unknown_fraction: 0.0,
        };
        let mut weighted_sum = 0.0;
        let mut unknown_points = 0.0;
        for (_, agg) in &parts {
            combined.step = combined.step.max(agg.step);
            combined.points += agg.points;
            combined.known += agg.known;
            if agg.known > 0 {
                weighted_sum += agg.mean * agg.known as f64;
                combined.min = if combined.min.is_nan() {
                    agg.min
                } else {
                    combined.min.min(agg.min)
                };
                combined.max = if combined.max.is_nan() {
                    agg.max
                } else {
                    combined.max.max(agg.max)
                };
            }
            unknown_points += agg.unknown_fraction * agg.points as f64;
        }
        if combined.known > 0 {
            combined.mean = weighted_sum / combined.known as f64;
        }
        if combined.points > 0 {
            combined.unknown_fraction = unknown_points / combined.points as f64;
        }
        Some(combined)
    }

    /// Multi-resolution fetch: one archived series over a window, from
    /// the archive whose resolution best matches `target_step` (see
    /// [`Rrd::fetch_resolution`](inca_rrd::Rrd::fetch_resolution) for
    /// the selection rules). A month-long window asks for hourly
    /// points; a day-long window for ten-minute points — same series,
    /// different RRA.
    pub fn series_at(
        &self,
        series: &str,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
        target_step: u64,
    ) -> Option<GraphSeries> {
        self.timed(&self.multires_hist, || {
            let fetch = self
                .depot
                .archive()
                .fetch_series_resolution(series, cf, start, end, target_step)?;
            Some(GraphSeries::from_fetch(series, fetch))
        })
    }

    /// The Figure 6 series: a rule-fed archive (e.g. pathload
    /// bandwidth) for one measurement branch, labelled
    /// `{rule_name}:{branch}` exactly as
    /// [`QueryInterface::archived`](crate::QueryInterface::archived)
    /// labels it.
    pub fn rule_series(
        &self,
        rule_name: &str,
        branch: &BranchId,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<GraphSeries> {
        self.timed(&self.rule_hist, || {
            let fetch =
                self.depot.archive().fetch_rule_series(rule_name, branch, cf, start, end)?;
            Some(GraphSeries::from_fetch(format!("{rule_name}:{branch}"), fetch))
        })
    }

    /// Every cached report for one resource on one site in one VO —
    /// the row-building query behind the Figure 4 status page and the
    /// software-stack detail page. The same read, with the same shared
    /// reports and the same error policy, as
    /// [`QueryInterface::reports`](crate::QueryInterface::reports): an
    /// unparseable cached report is an error here, and the pages turn
    /// it into their "no data" rendering where they call. Names that
    /// cannot form a branch identifier match nothing.
    pub fn resource_reports(
        &self,
        vo: &str,
        site: &str,
        resource: &str,
    ) -> Result<Vec<(BranchId, Arc<Report>)>, CacheError> {
        let suffix = format!("resource={resource},site={site},vo={vo}");
        self.reports_with_suffix(&suffix)
    }

    /// Every cached report in one VO — the probe-matrix query behind
    /// the §3.3 cross-site Grid-availability metric. Errors as
    /// [`resource_reports`](TemporalQuery::resource_reports) does.
    pub fn vo_reports(&self, vo: &str) -> Result<Vec<(BranchId, Arc<Report>)>, CacheError> {
        self.reports_with_suffix(&format!("vo={vo}"))
    }

    fn reports_with_suffix(
        &self,
        suffix: &str,
    ) -> Result<Vec<(BranchId, Arc<Report>)>, CacheError> {
        self.timed(&self.reports_hist, || {
            let Ok(query) = suffix.parse::<BranchId>() else { return Ok(Vec::new()) };
            Ok(self.depot.parsed_reports(Some(&query), None)?.0)
        })
    }

    /// Finds incidents in an archived series: maximal runs of
    /// consecutive points that are below `threshold` or unknown. A dip
    /// in a Figure 5 availability series becomes a window with exact
    /// bounds, ready for [`incident_causes`](TemporalQuery::incident_causes).
    pub fn incidents(
        &self,
        series: &str,
        threshold: f64,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<Incident> {
        self.timed(&self.incident_hist, || {
            let Some(fetch) =
                self.depot.archive().fetch_series(series, ConsolidationFn::Average, start, end)
            else {
                return Vec::new();
            };
            let step = fetch.step;
            let mut out: Vec<Incident> = Vec::new();
            let mut run: Option<Incident> = None;
            for (point_end, value) in fetch.points {
                let offending = value.is_nan() || value < threshold;
                if offending {
                    let run = run.get_or_insert_with(|| Incident {
                        series: series.to_string(),
                        start: point_end - step,
                        end: point_end,
                        trough: f64::NAN,
                        points: 0,
                    });
                    run.end = point_end;
                    run.points += 1;
                    // The first value replaces the NaN placeholder.
                    if !value.is_nan()
                        && matches!(run.trough.partial_cmp(&value), Some(Ordering::Greater) | None)
                    {
                        run.trough = value;
                    }
                } else if let Some(done) = run.take() {
                    out.push(done);
                }
            }
            out.extend(run);
            out
        })
    }

    /// Joins an incident with trace lineage: which reporter runs on
    /// `resource` fired inside the incident window, with their trace
    /// ids and outcomes. `events` is the captured event stream (e.g.
    /// an [`inca_obs::Obs`] ring drain); the join keys are the
    /// `daemon.run` span's `resource` and `fired_at` fields, which the
    /// daemon stamps on every reporter execution.
    pub fn incident_causes(
        &self,
        incident: &Incident,
        resource: &str,
        events: &[Event],
    ) -> Vec<IncidentCause> {
        self.timed(&self.incident_hist, || {
            causes_from(incident, resource, events.iter().map(StoredEvent::from_event))
        })
    }

    /// [`incident_causes`](TemporalQuery::incident_causes) against a
    /// persisted [`TraceStore`] instead of an in-memory event capture:
    /// the store's `daemon.run` time-window posting answers the
    /// incident window directly, so a dip found weeks later — long
    /// after the process that observed it exited — still resolves to
    /// the exact reporter runs (with trace ids) that caused it.
    pub fn incident_causes_stored(
        &self,
        incident: &Incident,
        resource: &str,
        store: &TraceStore,
    ) -> Vec<IncidentCause> {
        self.timed(&self.incident_hist, || {
            let events = store.by_name_window(
                "daemon.run",
                incident.start.as_secs(),
                incident.end.as_secs(),
            );
            causes_from(incident, resource, events.into_iter())
        })
    }

    /// The `trace(trace_id)` query kind: one report's full persisted
    /// lifecycle from a [`TraceStore`], ordered along its critical
    /// path ([`TraceStore::critical_path`] — for the report pipeline
    /// that is `daemon.run → controller.accept → depot.insert →
    /// depot.archive.write`). The follow-up query after
    /// [`incident_causes_stored`](TemporalQuery::incident_causes_stored)
    /// hands back a trace id.
    pub fn trace(&self, store: &TraceStore, trace_id: u64) -> Vec<StoredEvent> {
        self.timed(&self.trace_hist, || store.critical_path(trace_id))
    }
}

/// The incident/lineage join shared by the in-memory and persisted
/// entry points: `daemon.run` events on `resource` whose `fired_at`
/// falls inside the incident window, sorted by firing time.
fn causes_from(
    incident: &Incident,
    resource: &str,
    events: impl Iterator<Item = StoredEvent>,
) -> Vec<IncidentCause> {
    let mut causes: Vec<IncidentCause> = events
        .filter(|e| e.name == "daemon.run")
        .filter(|e| e.field("resource") == Some(resource))
        .filter_map(|e| {
            let fired_secs: u64 = e.field("fired_at")?.parse().ok()?;
            let fired_at = Timestamp::from_secs(fired_secs);
            if fired_at < incident.start || fired_at >= incident.end {
                return None;
            }
            Some(IncidentCause {
                trace_id: e.trace_id,
                reporter: e.field("reporter").unwrap_or_default().to_string(),
                fired_at,
                outcome: e.field("outcome").unwrap_or("unknown").to_string(),
            })
        })
        .collect();
    causes.sort_by_key(|c| c.fired_at);
    causes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryInterface;
    use inca_report::ReportBuilder;
    use inca_rrd::ArchivePolicy;
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn depot_with_availability() -> Depot {
        let mut depot = Depot::new();
        let policy = ArchivePolicy::every("availability", 86_400);
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=24u64 {
            // A dip between samples 10 and 13.
            let pct = if (10..=13).contains(&i) { 50.0 } else { 100.0 };
            depot.archive_mut().record(
                "availability:Grid:sdsc-tg-login1",
                &policy,
                600,
                t0 + i * 600,
                pct,
            );
            depot.archive_mut().record(
                "availability:Grid:ncsa-tg-login2",
                &policy,
                600,
                t0 + i * 600,
                100.0,
            );
        }
        depot
    }

    #[test]
    fn availability_series_matches_archived_series() {
        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let end = t0 + 25 * 600;
        let via_temporal = q
            .temporal()
            .availability_series("sdsc-tg-login1", "Grid", t0, end)
            .unwrap();
        let via_archived = q
            .archived_series(
                "availability:Grid:sdsc-tg-login1",
                ConsolidationFn::Average,
                t0,
                end,
            )
            .unwrap();
        assert_eq!(via_temporal, via_archived, "temporal layer must not change the answer");
    }

    #[test]
    fn window_aggregate_summarizes() {
        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let agg = q
            .temporal()
            .window_aggregate("availability:Grid:sdsc-tg-login1", t0, t0 + 25 * 600)
            .unwrap();
        assert_eq!(agg.step, 600);
        assert_eq!(agg.min, 50.0);
        assert_eq!(agg.max, 100.0);
        assert!(agg.mean > 90.0 && agg.mean < 100.0);
        assert!(agg.known >= 20);
        assert!(q.temporal().window_aggregate("missing", t0, t0 + 600).is_none());
    }

    #[test]
    fn window_aggregates_filter_by_prefix() {
        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let temporal = q.temporal();
        let vo_wide = temporal.window_aggregates("availability:Grid:", t0, t0 + 25 * 600);
        assert_eq!(vo_wide.len(), 2);
        assert_eq!(vo_wide[0].0, "availability:Grid:ncsa-tg-login2");
        let site = temporal.window_aggregates("availability:Grid:sdsc-", t0, t0 + 25 * 600);
        assert_eq!(site.len(), 1);
        assert!(temporal.window_aggregates("availability:Cluster:", t0, t0 + 600).is_empty());
    }

    /// A depot archiving federated per-site rollups through the
    /// rule-fed store: three sites reporting hourly availability.
    fn depot_with_rollups() -> (Depot, Timestamp) {
        let mut depot = Depot::new();
        depot.add_archive_rule(crate::federation::rollup_rule("tg", 3600));
        let t0 = Timestamp::from_secs(600_000);
        for (site, pct) in [("sdsc", 100.0), ("ncsa", 80.0), ("psc", 90.0)] {
            for i in 1..=6u64 {
                let t = t0 + i * 3600;
                let report = ReportBuilder::new("fed.rollup.availability", "1")
                    .gmt(t)
                    .body_value("availability", format!("{pct:.4}"))
                    .success()
                    .unwrap();
                let branch = crate::federation::rollup_branch(site, "tg");
                let env = Envelope::new(branch, report.to_xml());
                depot.receive(&env.encode(EnvelopeMode::Body), t).unwrap();
            }
        }
        (depot, t0)
    }

    #[test]
    fn window_aggregate_reads_rule_fed_series_through_flat_namespace() {
        let (depot, t0) = depot_with_rollups();
        let q = QueryInterface::new(&depot);
        let series =
            format!("fed-availability:{}", crate::federation::rollup_branch("ncsa", "tg"));
        let agg = q.temporal().window_aggregate(&series, t0, t0 + 7 * 3600).unwrap();
        assert!(agg.known >= 4, "rule-fed points visible, got {}", agg.known);
        assert!((agg.mean - 80.0).abs() < 1e-9);
        // A name that is neither manual nor rule:branch still misses.
        assert!(q.temporal().window_aggregate("no:such=series", t0, t0 + 3600).is_none());
    }

    #[test]
    fn federated_aggregate_combines_rollup_series() {
        let (depot, t0) = depot_with_rollups();
        let q = QueryInterface::new(&depot);
        let temporal = q.temporal();
        let prefix = crate::federation::rollup_series_prefix();
        let agg = temporal.federated_aggregate(&prefix, t0, t0 + 7 * 3600).unwrap();
        assert_eq!(agg.series, format!("{prefix}*"));
        assert!((agg.min - 80.0).abs() < 1e-9, "worst site bounds the min");
        assert!((agg.max - 100.0).abs() < 1e-9, "best site bounds the max");
        assert!(agg.mean > 80.0 && agg.mean < 100.0, "VO mean between extremes");
        let per_site = temporal.window_aggregates(&prefix, t0, t0 + 7 * 3600);
        assert_eq!(per_site.len(), 3);
        assert_eq!(
            agg.known,
            per_site.iter().map(|(_, a)| a.known).sum::<usize>(),
            "combined known points are the per-site sum"
        );
        assert!(temporal.federated_aggregate("nothing:", t0, t0 + 3600).is_none());
    }

    #[test]
    fn incidents_found_with_exact_bounds() {
        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let incidents = q.temporal().incidents(
            "availability:Grid:sdsc-tg-login1",
            99.0,
            t0,
            t0 + 25 * 600,
        );
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.start, t0 + 9 * 600);
        assert_eq!(inc.end, t0 + 13 * 600);
        assert_eq!(inc.points, 4);
        assert_eq!(inc.trough, 50.0);
        // The healthy resource has no incidents.
        assert!(q
            .temporal()
            .incidents("availability:Grid:ncsa-tg-login2", 99.0, t0, t0 + 25 * 600)
            .is_empty());
    }

    #[test]
    fn incident_causes_join_on_trace_fields() {
        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let incident = Incident {
            series: "availability:Grid:sdsc-tg-login1".into(),
            start: t0 + 9 * 600,
            end: t0 + 13 * 600,
            trough: 50.0,
            points: 4,
        };
        // Synthesize the daemon's span events: one failed run inside
        // the window, one successful run outside it, one on another
        // resource.
        let obs = inca_obs::Obs::new();
        let ring = std::sync::Arc::new(inca_obs::sinks::RingSink::new(16));
        obs.tracer().add_sink(ring.clone());
        let mk = |fired: Timestamp, resource: &str, outcome: &str| {
            obs.span("daemon.run")
                .trace_ctx(inca_obs::TraceContext::root())
                .field("reporter", "grid.services.gram.probe")
                .field("resource", resource)
                .field("fired_at", fired.as_secs())
                .field("outcome", outcome)
                .finish();
        };
        mk(t0 + 10 * 600, "sdsc-tg-login1", "failed");
        mk(t0 + 20 * 600, "sdsc-tg-login1", "succeeded");
        mk(t0 + 10 * 600, "ncsa-tg-login2", "succeeded");
        let events = ring.drain();
        let causes = q.temporal().incident_causes(&incident, "sdsc-tg-login1", &events);
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].outcome, "failed");
        assert_eq!(causes[0].reporter, "grid.services.gram.probe");
        assert_eq!(causes[0].fired_at, t0 + 10 * 600);
        assert!(causes[0].trace_id.is_some(), "spans carry trace ids for lineage walks");
    }

    #[test]
    fn incident_causes_stored_answer_from_reopened_store() {
        use inca_obs::{TraceStore, TraceStoreConfig};
        let dir = std::env::temp_dir()
            .join(format!("inca-temporal-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let depot = depot_with_availability();
        let q = QueryInterface::new(&depot);
        let t0 = Timestamp::from_secs(600_000);
        let incident = Incident {
            series: "availability:Grid:sdsc-tg-login1".into(),
            start: t0 + 9 * 600,
            end: t0 + 13 * 600,
            trough: 50.0,
            points: 4,
        };

        let failed_trace;
        {
            let store = std::sync::Arc::new(
                TraceStore::open(&dir, TraceStoreConfig::default()).unwrap(),
            );
            let obs = inca_obs::Obs::new();
            obs.tracer().add_sink(store.clone());
            let mk = |fired: Timestamp, resource: &str, outcome: &str| {
                let ctx = inca_obs::TraceContext::root();
                let span = obs
                    .span("daemon.run")
                    .trace_ctx(ctx)
                    .field("reporter", "grid.services.gram.probe")
                    .field("resource", resource)
                    .field("fired_at", fired.as_secs())
                    .field("outcome", outcome);
                let child = span.child_ctx().unwrap();
                obs.span("depot.insert").trace_ctx(child).finish();
                span.finish();
                ctx.trace_id
            };
            failed_trace = mk(t0 + 10 * 600, "sdsc-tg-login1", "failed");
            mk(t0 + 20 * 600, "sdsc-tg-login1", "succeeded");
            mk(t0 + 10 * 600, "ncsa-tg-login2", "succeeded");
            obs.tracer().clear_sinks();
        } // the writing store is gone; only the files remain

        let store = TraceStore::open(&dir, TraceStoreConfig::default()).unwrap();
        let causes = q.temporal().incident_causes_stored(&incident, "sdsc-tg-login1", &store);
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].outcome, "failed");
        assert_eq!(causes[0].trace_id, Some(failed_trace));

        let lifecycle = q.temporal().trace(&store, failed_trace);
        let names: Vec<&str> = lifecycle.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["daemon.run", "depot.insert"], "critical path order");

        let hist = depot
            .obs()
            .metrics()
            .histogram_of("inca_depot_temporal_query_seconds", &[("kind", "trace")])
            .expect("trace kind registered");
        assert_eq!(hist.count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resource_reports_match_query_interface() {
        let mut depot = Depot::new();
        let t = Timestamp::from_secs(1_000);
        for (branch, value) in [
            ("reporter=version.globus,resource=tg1,site=sdsc,vo=tg", "2.4.3"),
            ("reporter=version.globus,resource=tg2,site=ncsa,vo=tg", "2.4.1"),
        ] {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(t)
                .body_value("packageVersion", value)
                .success()
                .unwrap();
            let env = Envelope::new(branch.parse().unwrap(), report.to_xml());
            depot.receive(&env.encode(EnvelopeMode::Body), t).unwrap();
        }
        let q = QueryInterface::new(&depot);
        let direct = q.reports(Some(&"resource=tg1,site=sdsc,vo=tg".parse().unwrap())).unwrap();
        let temporal = q.temporal().resource_reports("tg", "sdsc", "tg1").unwrap();
        assert_eq!(temporal.len(), 1);
        assert_eq!(direct.len(), temporal.len());
        assert_eq!(direct[0].0, temporal[0].0);
        assert_eq!(direct[0].1.to_xml(), temporal[0].1.to_xml());
        assert!(Arc::ptr_eq(&direct[0].1, &temporal[0].1), "one parse serves both entry points");
        assert_eq!(q.temporal().vo_reports("tg").unwrap().len(), 2);
        assert!(q.temporal().vo_reports("other").unwrap().is_empty());
        assert!(q.temporal().vo_reports("a,b").unwrap().is_empty(), "not a branch identifier");
    }

    #[test]
    fn temporal_metrics_register_per_kind() {
        let depot = Depot::with_obs(inca_obs::Obs::new());
        let q = QueryInterface::new(&depot);
        let temporal = q.temporal();
        let t = Timestamp::from_secs(1_000);
        temporal.window_aggregate("missing", t, t + 600);
        let hist = depot
            .obs()
            .metrics()
            .histogram_of("inca_depot_temporal_query_seconds", &[("kind", "aggregate")])
            .expect("aggregate series registered");
        assert_eq!(hist.count(), 1);
    }
}
