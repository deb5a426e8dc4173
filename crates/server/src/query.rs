//! The querying interface.
//!
//! §3.2.3: "Querying the depot is currently split into two separate
//! interfaces. One is for the retrieval of the most current data, which
//! is held in the cache; the second is for graphing historical data
//! from the archive." Current-data queries take an optional branch
//! identifier: a full identifier returns one report, a suffix returns a
//! set of related reports, and no identifier returns the entire cache.

use std::sync::Arc;

use inca_obs::metrics::{Histogram, DEFAULT_LATENCY_BOUNDS};
use inca_report::{BranchId, Report, Timestamp};
use inca_rrd::{ConsolidationFn, GraphSeries};

use crate::depot::cache::CacheError;
use crate::depot::depot::Depot;
use crate::depot::rope::RopeCache;
use crate::temporal::TemporalQuery;

/// Read-side facade over a depot.
#[derive(Debug)]
pub struct QueryInterface<'a> {
    depot: &'a Depot,
    /// Cache-query latency (`inca_depot_query_seconds{result="hit"}`):
    /// queries answered from the depot's memo without touching the
    /// cache.
    query_hit_hist: Arc<Histogram>,
    /// Cache-query latency (`inca_depot_query_seconds{result="miss"}`):
    /// queries that went to the cache (and refreshed the memo).
    query_miss_hist: Arc<Histogram>,
}

impl<'a> QueryInterface<'a> {
    /// Wraps a depot. Query metrics register in the depot's
    /// [`Obs`](inca_obs::Obs) handle.
    pub fn new(depot: &'a Depot) -> Self {
        let metrics = depot.obs().metrics();
        let help = "Time answering one current-data cache query.";
        let query_hit_hist = metrics.histogram_with(
            "inca_depot_query_seconds",
            &[("result", "hit")],
            help,
            &DEFAULT_LATENCY_BOUNDS,
        );
        let query_miss_hist = metrics.histogram_with(
            "inca_depot_query_seconds",
            &[("result", "miss")],
            help,
            &DEFAULT_LATENCY_BOUNDS,
        );
        QueryInterface { depot, query_hit_hist, query_miss_hist }
    }

    /// Records one query's latency under its memo outcome label.
    fn observe(&self, hit: bool, elapsed: std::time::Duration) {
        if hit {
            self.query_hit_hist.observe_duration(elapsed);
        } else {
            self.query_miss_hist.observe_duration(elapsed);
        }
    }

    /// The temporal (time-travel) query layer over the same depot:
    /// windowed aggregates, multi-resolution series, incident
    /// reconstruction. See [`TemporalQuery`].
    pub fn temporal(&self) -> TemporalQuery<'a> {
        TemporalQuery::new(self.depot)
    }

    /// Renders every metric of the depot's registry — controller,
    /// depot, and query instruments alike — in the Prometheus text
    /// exposition format. This is the pull-style `metrics` endpoint
    /// for live deployments.
    pub fn metrics_text(&self) -> String {
        self.depot.obs().metrics().render()
    }

    /// The entire cache document ("In the case that no branch
    /// identifier is supplied, the entire contents of the cache is
    /// returned").
    pub fn current_all(&self) -> String {
        self.depot.cache().document().to_string()
    }

    /// Merges per-partition report sets into one cache document.
    ///
    /// The federation's query plane fans a global query out to the
    /// owning partitions and merges here: the reports are inserted
    /// into a fresh [`RopeCache`] whose canonical sibling ordering makes
    /// the document a pure function of report content — byte-identical
    /// to the document a single depot holding every report would serve,
    /// regardless of which partition held what or in what order the
    /// sets arrive.
    pub fn merged_document(sets: &[Vec<(BranchId, String)>]) -> Result<String, CacheError> {
        let mut cache = RopeCache::new();
        let items: Vec<(&BranchId, &str)> =
            sets.iter().flatten().map(|(branch, xml)| (branch, xml.as_str())).collect();
        cache.insert_batch(&items)?;
        Ok(cache.document().to_string())
    }

    /// The raw cache subtree matching a branch-identifier query, or
    /// `None` when nothing matches.
    pub fn current(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let start = std::time::Instant::now();
        let result = self.depot.query_subtree(query);
        match result {
            Ok((value, hit)) => {
                self.observe(hit, start.elapsed());
                Ok(value)
            }
            Err(e) => {
                self.observe(false, start.elapsed());
                Err(e)
            }
        }
    }

    /// The single report at a full branch identifier, parsed.
    ///
    /// One exact-match lookup: a full identifier names exactly
    /// one cached report (ids are unique per level), so there is no
    /// need to collect every deeper report that merely *ends* with the
    /// query and filter afterwards.
    pub fn report(&self, branch: &BranchId) -> Result<Option<Report>, CacheError> {
        let start = std::time::Instant::now();
        let (xml, hit) = self.depot.query_report_exact(branch);
        self.observe(hit, start.elapsed());
        match xml {
            Some(xml) => Ok(Some(Report::parse(&xml).map_err(|e| {
                CacheError::Corrupt(format!("cached report unparseable: {e}"))
            })?)),
            None => Ok(None),
        }
    }

    /// All cached reports matching a suffix query (or every report),
    /// parsed. The reports are shared: the depot parses a cached report
    /// at most once between writes to its branch, so a repeated read
    /// costs what changed, not the size of the answer. The latency
    /// lands under `result="hit"` when nothing had to be parsed. One
    /// unparseable cached report fails the whole read with
    /// [`CacheError::Corrupt`]; callers that would rather show "no
    /// data" say so where they call.
    pub fn reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<Vec<(BranchId, Arc<Report>)>, CacheError> {
        let start = std::time::Instant::now();
        let result = self.depot.parsed_reports(query);
        self.observe(matches!(result, Ok((_, true))), start.elapsed());
        result.map(|(reports, _all_shared)| reports)
    }

    /// An archived rule-fed series as graph data ("archived data is
    /// also retrieved through a Web service call, which wraps the
    /// interface provided by RRDTool").
    pub fn archived(
        &self,
        rule_name: &str,
        branch: &BranchId,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<GraphSeries> {
        let fetch = self.depot.archive().fetch_rule_series(rule_name, branch, cf, start, end)?;
        Some(GraphSeries::from_fetch(format!("{rule_name}:{branch}"), fetch))
    }

    /// An archived consumer-recorded summary series.
    pub fn archived_series(
        &self,
        series: &str,
        cf: ConsolidationFn,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<GraphSeries> {
        let fetch = self.depot.archive().fetch_series(series, cf, start, end)?;
        Some(GraphSeries::from_fetch(series, fetch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::ReportBuilder;
    use inca_rrd::ArchivePolicy;
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn depot_with_reports() -> Depot {
        let mut depot = Depot::new();
        let t = Timestamp::from_secs(1_000);
        for (branch, value) in [
            ("reporter=version.globus,resource=tg1,site=sdsc,vo=tg", "2.4.3"),
            ("reporter=version.mpich,resource=tg1,site=sdsc,vo=tg", "1.2.5"),
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
        depot
    }

    #[test]
    fn current_all_returns_whole_cache() {
        let depot = depot_with_reports();
        let q = QueryInterface::new(&depot);
        let all = q.current_all();
        assert_eq!(all.matches("<incaReport").count(), 3);
    }

    #[test]
    fn current_subtree_by_site() {
        let depot = depot_with_reports();
        let q = QueryInterface::new(&depot);
        let sdsc = q.current(&"site=sdsc,vo=tg".parse().unwrap()).unwrap().unwrap();
        assert_eq!(sdsc.matches("<incaReport").count(), 2);
        assert!(q.current(&"site=psc,vo=tg".parse().unwrap()).unwrap().is_none());
    }

    #[test]
    fn single_report_query() {
        let depot = depot_with_reports();
        let q = QueryInterface::new(&depot);
        let branch: BranchId = "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap();
        let report = q.report(&branch).unwrap().unwrap();
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        assert_eq!(report.body.lookup_text(&p).unwrap(), "2.4.3");
        assert!(q
            .report(&"reporter=nope,resource=tg1,site=sdsc,vo=tg".parse().unwrap())
            .unwrap()
            .is_none());
    }

    #[test]
    fn reports_parse_and_filter() {
        let depot = depot_with_reports();
        let q = QueryInterface::new(&depot);
        let all = q.reports(None).unwrap();
        assert_eq!(all.len(), 3);
        let ncsa = q.reports(Some(&"site=ncsa,vo=tg".parse().unwrap())).unwrap();
        assert_eq!(ncsa.len(), 1);
        assert_eq!(ncsa[0].0.get("resource"), Some("tg2"));
    }

    #[test]
    fn one_unparseable_cached_report_fails_every_set_read_that_reaches_it() {
        // A well-formed document holding a report with no header or
        // footer: the cache loads it, no set read can parse it.
        let dir = std::env::temp_dir().join(format!("inca-query-corrupt-{}", std::process::id()));
        depot_with_reports().save_to(&dir).unwrap();
        let cache = std::fs::read_to_string(dir.join("cache.xml")).unwrap();
        let planted = cache.replacen(
            "<branch name=\"site\" id=\"ncsa\">",
            "<branch name=\"site\" id=\"bad\"><branch name=\"reporter\" id=\"x\">\
             <incaReport><body/></incaReport></branch></branch><branch name=\"site\" id=\"ncsa\">",
            1,
        );
        assert_ne!(planted, cache, "the fixture has an ncsa site to plant beside");
        std::fs::write(dir.join("cache.xml"), planted).unwrap();
        let depot = Depot::load_from(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let q = QueryInterface::new(&depot);
        assert_eq!(depot.cache().report_count(), 4);
        // Both entry points are one read with one policy: an error,
        // not a shorter answer.
        let whole = q.reports(None).unwrap_err();
        assert!(matches!(&whole, CacheError::Corrupt(m) if m.contains("unparseable")), "{whole}");
        assert_eq!(q.temporal().vo_reports("tg").unwrap_err(), whole);
        assert_eq!(q.reports(Some(&"site=bad,vo=tg".parse().unwrap())).unwrap_err(), whole);
        // Reads that do not reach the corrupt report are unaffected.
        assert_eq!(q.reports(Some(&"site=sdsc,vo=tg".parse().unwrap())).unwrap().len(), 2);
        assert_eq!(q.temporal().resource_reports("tg", "ncsa", "tg2").unwrap().len(), 1);
    }

    #[test]
    fn repeated_queries_hit_the_memo_until_ingest_invalidates() {
        // An isolated registry: the hit/miss counts below must not see
        // queries from concurrently running tests.
        let mut depot = Depot::with_obs(inca_obs::Obs::new());
        let t = Timestamp::from_secs(1_000);
        for (branch, value) in [
            ("reporter=version.globus,resource=tg1,site=sdsc,vo=tg", "2.4.3"),
            ("reporter=version.mpich,resource=tg1,site=sdsc,vo=tg", "1.2.5"),
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
        let branch: BranchId =
            "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap();
        let site: BranchId = "site=sdsc,vo=tg".parse().unwrap();
        // First pass misses, second pass hits, and hits return the
        // exact same answers.
        let first = (
            q.current(&site).unwrap(),
            q.report(&branch).unwrap().map(|r| r.to_xml()),
            q.reports(None).unwrap().len(),
        );
        let second = (
            q.current(&site).unwrap(),
            q.report(&branch).unwrap().map(|r| r.to_xml()),
            q.reports(None).unwrap().len(),
        );
        assert_eq!(first, second);
        let metrics = depot.obs().metrics();
        let hits = metrics
            .histogram_of("inca_depot_query_seconds", &[("result", "hit")])
            .expect("hit series registered");
        let misses = metrics
            .histogram_of("inca_depot_query_seconds", &[("result", "miss")])
            .expect("miss series registered");
        assert_eq!(misses.count(), 3, "first pass goes to the cache");
        assert_eq!(hits.count(), 3, "second pass is served by the memo");

        // Ingest bumps the cache generation: the same queries miss
        // again and observe the new data.
        let t = Timestamp::from_secs(2_000);
        let report = ReportBuilder::new("r", "1.0")
            .gmt(t)
            .body_value("packageVersion", "9.9.9")
            .success()
            .unwrap();
        let env = Envelope::new(branch.clone(), report.to_xml());
        depot.receive(&env.encode(EnvelopeMode::Body), t).unwrap();
        let q = QueryInterface::new(&depot);
        assert_eq!(misses.count(), 3);
        let fresh = q.report(&branch).unwrap().unwrap();
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        assert_eq!(fresh.body.lookup_text(&p).unwrap(), "9.9.9");
        assert_eq!(misses.count(), 4, "generation bump invalidates the memo");
    }

    #[test]
    fn memo_tracks_the_rope_generation_counter() {
        // Same contract on the O(report) backend: pure reads are
        // served by the memo, an arena-path insert (binary-framed, so
        // the report bytes are spliced without parsing) bumps the
        // rope's generation and invalidates it.
        use crate::depot::depot::CacheBackend;
        let mut depot =
            Depot::with_obs_backend(inca_obs::Obs::new(), CacheBackend::Rope);
        let t = Timestamp::from_secs(1_000);
        let branch: BranchId =
            "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap();
        let mk = |v: &str| {
            ReportBuilder::new("r", "1.0")
                .gmt(t)
                .body_value("packageVersion", v)
                .success()
                .unwrap()
        };
        let env = Envelope::new(branch.clone(), mk("2.4.3").to_xml());
        depot.receive(&env.encode(EnvelopeMode::Binary), t).unwrap();

        let q = QueryInterface::new(&depot);
        let site: BranchId = "site=sdsc,vo=tg".parse().unwrap();
        let first = q.current(&site).unwrap();
        let second = q.current(&site).unwrap();
        assert_eq!(first, second);
        let metrics = depot.obs().metrics();
        let hits = metrics
            .histogram_of("inca_depot_query_seconds", &[("result", "hit")])
            .expect("hit series registered");
        let misses = metrics
            .histogram_of("inca_depot_query_seconds", &[("result", "miss")])
            .expect("miss series registered");
        assert_eq!(misses.count(), 1, "first read goes to the rope");
        assert_eq!(hits.count(), 1, "repeat read is served by the memo");

        // An arena-path insert bumps the generation: the memo misses
        // and observes the new report.
        let env = Envelope::new(branch.clone(), mk("9.9.9").to_xml());
        depot.receive(&env.encode(EnvelopeMode::Binary), t).unwrap();
        let q = QueryInterface::new(&depot);
        let fresh = q.report(&branch).unwrap().unwrap();
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        assert_eq!(fresh.body.lookup_text(&p).unwrap(), "9.9.9");
        assert_eq!(misses.count(), 2, "rope generation bump invalidates the memo");
        assert_eq!(hits.count(), 1);
    }

    #[test]
    fn archived_series_roundtrip() {
        let mut depot = Depot::new();
        let policy = ArchivePolicy::every("p", 86_400);
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=5u64 {
            depot.archive_mut().record("availability:sdsc", &policy, 600, t0 + i * 600, 99.0);
        }
        let q = QueryInterface::new(&depot);
        let series = q
            .archived_series("availability:sdsc", ConsolidationFn::Average, t0, t0 + 3_600)
            .unwrap();
        assert!(series.known().count() >= 4);
        assert!(q
            .archived_series("missing", ConsolidationFn::Average, t0, t0 + 1)
            .is_none());
    }
}
