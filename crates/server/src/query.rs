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

use inca_report::cache::CacheError;
use crate::depot::depot::Depot;
use crate::depot::rope::RopeCache;
use crate::temporal::TemporalQuery;

/// What [`QueryInterface::reports_since`] read.
#[derive(Debug, Clone)]
pub struct ReportsSince {
    /// The reports written after the generation asked about, parsed
    /// and shared, in cache order.
    pub reports: Vec<(BranchId, Arc<Report>)>,
    /// The cache generation the read saw.
    pub generation: u64,
    /// How many of `reports` the read had to parse; the depot's parsed
    /// memo shared the rest.
    pub parsed: usize,
}

/// Read-side facade over a depot.
#[derive(Debug)]
pub struct QueryInterface<'a> {
    depot: &'a Depot,
    /// Cache-query latency (`inca_depot_query_seconds{result="hit"}`):
    /// set reads whose every report was already parsed (the depot's
    /// parsed-report memo answered them whole).
    query_hit_hist: Arc<Histogram>,
    /// Cache-query latency (`inca_depot_query_seconds{result="miss"}`):
    /// every other query — point and subtree reads, and set reads that
    /// parsed at least one report.
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

    /// Records one query's latency under its `result` label.
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
        self.depot.cache().document().into_owned()
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
        Ok(cache.document())
    }

    /// The raw cache subtree matching a branch-identifier query, or
    /// `None` when nothing matches.
    pub fn current(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let start = std::time::Instant::now();
        let result = self.depot.query_subtree(query);
        self.observe(false, start.elapsed());
        result
    }

    /// The single report at a full branch identifier, parsed.
    ///
    /// One exact-match lookup: a full identifier names exactly
    /// one cached report (ids are unique per level), so there is no
    /// need to collect every deeper report that merely *ends* with the
    /// query and filter afterwards. The report is parsed straight from
    /// the cached bytes, which are borrowed, not copied.
    pub fn report(&self, branch: &BranchId) -> Result<Option<Report>, CacheError> {
        let start = std::time::Instant::now();
        let xml = self.depot.report_exact(branch);
        self.observe(false, start.elapsed());
        xml.map(|xml| {
            Report::parse(xml)
                .map_err(|e| CacheError::Corrupt(format!("cached report unparseable: {e}")))
        })
        .transpose()
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
        self.reports_since(query, None).map(|read| read.reports)
    }

    /// The cached reports matching a suffix query (or every report)
    /// that were written after generation `since` (every one when
    /// `None`), parsed and shared as [`QueryInterface::reports`] shares
    /// them, with the generation the read saw: pass that as `since`
    /// next time to get exactly what was written in between. The cache
    /// skips every subtree nobody wrote after `since`, so the read
    /// costs what changed. It fails as [`QueryInterface::reports`]
    /// does when a report it reaches cannot be parsed.
    pub fn reports_since(
        &self,
        query: Option<&BranchId>,
        since: Option<u64>,
    ) -> Result<ReportsSince, CacheError> {
        let start = std::time::Instant::now();
        let result = self.depot.parsed_reports(query, since);
        self.observe(matches!(result, Ok((_, 0))), start.elapsed());
        let (reports, parsed) = result?;
        Ok(ReportsSince { reports, generation: self.depot.cache().generation(), parsed })
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

    /// Twice over: a write is visible to the next point and subtree
    /// read, both land under `result="miss"`, and a repeated set read
    /// lands under `result="hit"` until the next write.
    #[test]
    fn repeated_queries_hit_the_memo_until_ingest_invalidates() {
        let branch: BranchId =
            "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap();
        let site: BranchId = "site=sdsc,vo=tg".parse().unwrap();
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        let envelope = |version: &str| {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(Timestamp::from_secs(1_000))
                .body_value("packageVersion", version)
                .success()
                .unwrap();
            Envelope::new(branch.clone(), report.to_xml()).encode(EnvelopeMode::Binary)
        };
        // An isolated registry: the counts below must not see queries
        // from concurrently running tests.
        let obs = inca_obs::Obs::new();
        let mut depot = Depot::with_obs(obs.clone());
        let count = |result: &str| {
            obs.metrics()
                .histogram_of("inca_depot_query_seconds", &[("result", result)])
                .map_or(0, |h| h.count())
        };
        for (round, version) in ["2.4.3", "9.9.9"].into_iter().enumerate() {
            depot.receive(&envelope(version), Timestamp::from_secs(1_000)).unwrap();
            let (hits, misses) = (count("hit"), count("miss"));
            let q = QueryInterface::new(&depot);
            // The next point and subtree reads see the write.
            let report = q.report(&branch).unwrap().unwrap();
            assert_eq!(report.body.lookup_text(&p).unwrap(), version);
            let subtree = q.current(&site).unwrap().unwrap();
            assert!(subtree.contains(version), "round {round}");
            // Point and subtree reads always go to the cache.
            assert_eq!((count("hit"), count("miss")), (hits, misses + 2));
            // A set read parses what was written since the last one (a
            // miss); repeated, it is answered from the parsed memo (a hit).
            assert_eq!(q.reports(None).unwrap().len(), 1);
            assert_eq!(q.reports(None).unwrap().len(), 1);
            assert_eq!((count("hit"), count("miss")), (hits + 1, misses + 3));
        }
    }

    /// The parsed memo moves with the rope's generation counter: reads
    /// move neither, a write batch bumps the generation once and the
    /// next set read parses again, and a batch that accepts nothing
    /// bumps nothing and leaves the memo answering whole.
    #[test]
    fn memo_tracks_the_rope_generation_counter() {
        let branches: [BranchId; 2] = [
            "reporter=version.globus,resource=tg1,site=sdsc,vo=tg".parse().unwrap(),
            "reporter=version.globus,resource=tg2,site=ncsa,vo=tg".parse().unwrap(),
        ];
        let p: inca_xml::IncaPath = "packageVersion".parse().unwrap();
        let batch = |version: &str| -> Vec<Vec<u8>> {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(Timestamp::from_secs(1_000))
                .body_value("packageVersion", version)
                .success()
                .unwrap();
            branches
                .iter()
                .map(|b| Envelope::new(b.clone(), report.to_xml()).encode(EnvelopeMode::Binary))
                .collect()
        };
        let obs = inca_obs::Obs::new();
        let mut depot = Depot::with_obs(obs.clone());
        let count = |result: &str| {
            obs.metrics()
                .histogram_of("inca_depot_query_seconds", &[("result", result)])
                .map_or(0, |h| h.count())
        };
        let now = Timestamp::from_secs(1_000);
        let versions = |depot: &Depot| -> Vec<String> {
            let reports = QueryInterface::new(depot).reports(None).unwrap();
            reports.iter().map(|(_, r)| r.body.lookup_text(&p).unwrap().to_string()).collect()
        };

        assert!(depot.receive_batch(&batch("1.0"), now).iter().all(Result::is_ok));
        let g = depot.cache().generation();
        let (hits, misses) = (count("hit"), count("miss"));
        assert_eq!(versions(&depot), ["1.0", "1.0"]);
        assert_eq!(versions(&depot), ["1.0", "1.0"]);
        assert_eq!((count("hit"), count("miss")), (hits + 1, misses + 1));
        assert_eq!(depot.cache().generation(), g, "reads do not bump the generation");

        // Nothing accepted: no bump, and the memo still answers whole.
        let rejected = depot.receive_batch(&[b"garbage".to_vec()], now);
        assert!(rejected[0].is_err());
        assert_eq!(depot.cache().generation(), g);
        assert_eq!(versions(&depot), ["1.0", "1.0"]);
        assert_eq!((count("hit"), count("miss")), (hits + 2, misses + 1));

        // Both branches replaced in one batch: one bump, one re-parse.
        assert!(depot.receive_batch(&batch("2.0"), now).iter().all(Result::is_ok));
        assert_eq!(depot.cache().generation(), g + 1);
        assert_eq!(versions(&depot), ["2.0", "2.0"]);
        assert_eq!(versions(&depot), ["2.0", "2.0"]);
        assert_eq!((count("hit"), count("miss")), (hits + 3, misses + 2));
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
