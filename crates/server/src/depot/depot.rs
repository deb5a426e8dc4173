//! The depot proper: receive → unpack → cache → archive, timed.
//!
//! §5.2 defines *response time* as "the time that the centralized
//! controller must wait while the depot receives and processes the
//! envelope" and breaks it into "(1) receiving the report and unpacking
//! the SOAP envelope … and (2) processing the cache to find the
//! appropriate location for the report". [`Depot::receive_batch`]
//! returns that decomposition for every envelope in [`DepotTiming`].
//! [`Depot::receive`] is a batch of one. The cache is a [`RopeCache`];
//! the paper's own depot, the streaming splice that Table 4 and
//! Figure 9 measure, lives with those exhibits (`inca-core`'s
//! `experiments::paper_depot`).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca_obs::metrics::{Counter, Gauge, Histogram, BATCH_SIZE_BOUNDS, DEFAULT_LATENCY_BOUNDS};
use inca_obs::trace::Span;
use inca_obs::{Obs, Severity, TraceContext};
use inca_report::{BranchId, Report, Timestamp};
use inca_wire::envelope::EnvelopeView;
use inca_wire::message::WireError;

use crate::depot::archive::{ArchiveRule, ArchiveStore};
use crate::depot::cache::{branch_of, CacheError};
use crate::depot::memo::ParsedMemo;
use crate::depot::rope::RopeCache;

/// Parsed reports with their branches, in cache order.
type ParsedReports = Vec<(BranchId, Arc<Report>)>;

/// Errors from depot processing.
#[derive(Debug)]
pub enum DepotError {
    /// The envelope could not be unpacked or its report was invalid.
    Envelope(WireError),
    /// The cache update failed (corruption).
    Cache(CacheError),
}

impl fmt::Display for DepotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepotError::Envelope(e) => write!(f, "envelope error: {e}"),
            DepotError::Cache(e) => write!(f, "cache error: {e}"),
        }
    }
}

impl std::error::Error for DepotError {}

impl From<WireError> for DepotError {
    fn from(e: WireError) -> Self {
        DepotError::Envelope(e)
    }
}

impl From<CacheError> for DepotError {
    fn from(e: CacheError) -> Self {
        DepotError::Cache(e)
    }
}

/// The timing decomposition of one received envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepotTiming {
    /// Unpacking the envelope (grows with report size — Figure 9's
    /// gap between the two lines).
    pub unpack: Duration,
    /// Storing the report in the cache: O(report) on the rope; on the
    /// paper's splice it grows with cache size (Figure 9's lower line).
    pub insert: Duration,
    /// Feeding matching archive rules (zero on the paper's depot,
    /// which has no archive).
    pub archive: Duration,
    /// Size of the unpacked report in bytes.
    pub report_size: usize,
}

impl DepotTiming {
    /// Unpack + insert: the paper's "response time" (archival happens
    /// after the controller has been released).
    pub fn response(&self) -> Duration {
        self.unpack + self.insert
    }
}

/// The cache a depot runs on. There is one, [`RopeCache`], so this
/// selects nothing: it survives only because the gated pipeline
/// benchmark (`benchmark/src/{sim,tcp,probes}.rs`) names its `Rope`
/// variant, and goes with that benchmark's next re-baselining
/// (ROADMAP item 1(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheBackend {
    /// Arena-backed rope ([`RopeCache`]).
    #[default]
    Rope,
}

/// The depot's cache storage: the rope, and the parsed form of the
/// reports it holds. `insert_batch` is the only way to change which
/// reports the rope holds (compaction moves bytes, not reports), which
/// is what lets it keep `parsed` honest.
#[derive(Debug)]
struct CacheStore {
    rope: RopeCache,
    /// What set reads ([`CacheStore::parsed_reports`]) have parsed, so
    /// a verification pass or a status page parses only the reports
    /// replaced since the last one. Retention: an entry is made by the
    /// first set read that reaches a branch and lives until the next
    /// write to that branch; compaction moves bytes, not reports, and
    /// never touches it. The cache never drops a branch, so the memo
    /// holds at most as many reports as the rope, and none at all on a
    /// depot that serves only point reads and documents
    /// (`report`/`current`/`current_all`).
    parsed: ParsedMemo,
}

impl CacheStore {
    fn new(rope: RopeCache) -> CacheStore {
        CacheStore { rope, parsed: ParsedMemo::default() }
    }

    fn insert_batch(&mut self, items: &[(&BranchId, &str)]) -> Result<(), CacheError> {
        for (branch, _) in items {
            self.parsed.forget(branch);
        }
        self.rope.insert_batch(items)
    }

    /// Every report matching `query` (all when `None`), parsed, in
    /// document order — the one loop behind every set read. A report
    /// parsed since its branch was last written is shared, not parsed
    /// again; the flag is `true` when that covered the whole set. One
    /// unparseable cached report fails the read: the depot does not
    /// decide for a page which rows it can do without.
    fn parsed_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<(ParsedReports, bool), CacheError> {
        let mut out = Vec::new();
        let mut all_shared = true;
        let mut key = String::new();
        self.rope.visit_reports(query, &mut |path: &[(&str, &str)], xml: &str| {
            ParsedMemo::write_key(&mut key, path.iter().copied());
            let report = match self.parsed.get(&key) {
                Some(report) => report,
                None => {
                    all_shared = false;
                    let parsed = Report::parse(xml).map_err(|e| {
                        CacheError::Corrupt(format!("cached report unparseable: {e}"))
                    })?;
                    // The parser grows its vectors as it goes and the
                    // tree it leaves is over twice the bytes of an
                    // exact-capacity one. This one stays until its
                    // branch is rewritten, so keep a clone: cloning
                    // allocates every vector and string at its length.
                    let report = Arc::new(parsed.clone());
                    self.parsed.put(&key, Arc::clone(&report));
                    report
                }
            };
            out.push((branch_of(path)?, report));
            Ok(())
        })?;
        Ok((out, all_shared))
    }
}

/// Read view of a depot's cache.
///
/// What [`Depot::cache`] hands to the querying interface.
/// `document()` renders a fresh copy from the [`RopeCache`]'s spans.
#[derive(Debug, Clone, Copy)]
pub struct CacheRef<'a>(&'a RopeCache);

impl<'a> CacheRef<'a> {
    /// The full cache document.
    pub fn document(&self) -> Cow<'a, str> {
        Cow::Owned(self.0.document())
    }

    /// Document size in bytes (O(1)).
    pub fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    /// Number of cached reports (O(1)).
    pub fn report_count(&self) -> usize {
        self.0.report_count()
    }

    /// Mutation counter, bumped once per non-empty write batch and
    /// never by a compaction. Nothing in the depot caches by it; the
    /// federation keys its merged global document on the partitions'
    /// generations.
    pub fn generation(&self) -> u64 {
        self.0.generation()
    }
}

/// The depot: cache, archive, and their instrumentation.
#[derive(Debug)]
pub struct Depot {
    cache: CacheStore,
    archive: ArchiveStore,
    /// Reports accepted since construction (or restore).
    reports_received: u64,
    obs: Obs,
    /// Envelope-unpack latency (`inca_depot_unpack_seconds`).
    unpack_hist: Arc<Histogram>,
    /// Cache-splice latency (`inca_depot_insert_seconds`) — Figure 9's
    /// lower line.
    insert_hist: Arc<Histogram>,
    /// Cache size in bytes (`inca_depot_cache_bytes`).
    cache_bytes: Arc<Gauge>,
    /// Cached report count (`inca_depot_cache_reports`).
    cache_reports: Arc<Gauge>,
    /// Backing-store bytes including rope garbage
    /// (`inca_depot_arena_bytes`).
    arena_bytes: Arc<Gauge>,
    /// Rope-arena compactions run (`inca_depot_compactions_total`).
    compactions: Arc<Counter>,
    /// Reports accepted per receive (`inca_depot_batch_size`).
    batch_size_hist: Arc<Histogram>,
    /// Whole-batch cache-splice latency
    /// (`inca_depot_batch_insert_seconds`); the per-report share
    /// additionally lands in `inca_depot_insert_seconds`.
    batch_insert_hist: Arc<Histogram>,
}

impl Depot {
    /// An empty depot observing into [`Obs::global`].
    pub fn new() -> Depot {
        Depot::with_obs(Obs::global())
    }

    /// [`Depot::with_obs`]; the [`CacheBackend`] selects nothing.
    pub fn with_obs_backend(obs: Obs, _backend: CacheBackend) -> Depot {
        Depot::with_obs(obs)
    }

    /// An empty depot whose spans and metrics go to `obs` (isolated
    /// registries for tests, embedded setups with their own handle).
    pub fn with_obs(obs: Obs) -> Depot {
        let unpack_hist = obs.metrics().histogram(
            "inca_depot_unpack_seconds",
            "Time unpacking one received envelope.",
            &DEFAULT_LATENCY_BOUNDS,
        );
        let insert_hist = obs.metrics().histogram(
            "inca_depot_insert_seconds",
            "Time splicing one report into the cache document.",
            &DEFAULT_LATENCY_BOUNDS,
        );
        let cache_bytes =
            obs.metrics().gauge("inca_depot_cache_bytes", "Cache document size in bytes.");
        let cache_reports =
            obs.metrics().gauge("inca_depot_cache_reports", "Reports held in the cache.");
        let arena_bytes = obs.metrics().gauge(
            "inca_depot_arena_bytes",
            "Cache backing-store bytes including rope-arena garbage.",
        );
        let compactions = obs.metrics().counter(
            "inca_depot_compactions_total",
            "Rope-arena compaction rebuilds triggered by the garbage-ratio threshold.",
        );
        let batch_size_hist = obs.metrics().histogram(
            "inca_depot_batch_size",
            "Reports accepted per depot receive (a single receive is a batch of 1).",
            &BATCH_SIZE_BOUNDS,
        );
        let batch_insert_hist = obs.metrics().histogram(
            "inca_depot_batch_insert_seconds",
            "Time splicing one whole batch into the cache document.",
            &DEFAULT_LATENCY_BOUNDS,
        );
        Depot {
            cache: CacheStore::new(RopeCache::new()),
            archive: ArchiveStore::with_obs(&obs),
            reports_received: 0,
            obs,
            unpack_hist,
            insert_hist,
            cache_bytes,
            cache_reports,
            arena_bytes,
            compactions,
            batch_size_hist,
            batch_insert_hist,
        }
    }

    /// The observability handle this depot reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Uploads an archival policy rule.
    pub fn add_archive_rule(&mut self, rule: ArchiveRule) {
        self.archive.add_rule(rule);
    }

    /// Receives one encoded envelope at (virtual) time `now`,
    /// returning the measured timing decomposition: a batch of one
    /// through [`Depot::receive_batch`].
    pub fn receive(&mut self, envelope_bytes: &[u8], now: Timestamp) -> Result<DepotTiming, DepotError> {
        self.receive_batch(&[envelope_bytes], now)
            .pop()
            .expect("one result per envelope")
    }

    /// Receives a burst of encoded envelopes at (virtual) time `now`,
    /// returning one timing/error per envelope in input order. This is
    /// the depot's only write.
    ///
    /// Each envelope is unpacked and timed on its own, and each
    /// accepted report gets its own `depot.insert` span joined on the
    /// envelope's trace (the archive leg re-parents on it). Binary
    /// frames take the zero-copy path: the report bytes are borrowed
    /// straight out of the payload (structurally skimmed, not parsed)
    /// and spliced into the cache; XML materialization waits until an
    /// archive rule or query actually needs the report tree.
    ///
    /// The batch is one cache mutation (one generation bump) and one
    /// round of gauge updates, and each report's
    /// [`DepotTiming::insert`] is its share of the batch's insert time
    /// — the whole insert for a batch of one. A decode failure rejects
    /// only that envelope; a cache failure (corruption) rejects the
    /// batch without mutating.
    pub fn receive_batch<B: AsRef<[u8]>>(
        &mut self,
        envelopes: &[B],
        now: Timestamp,
    ) -> Vec<Result<DepotTiming, DepotError>> {
        struct Pending<'a> {
            index: usize,
            envelope: EnvelopeView<'a>,
            unpack: Duration,
            span: Span,
            archive_ctx: Option<TraceContext>,
            trace_id: u64,
        }
        let total_bytes: usize = envelopes.iter().map(|e| e.as_ref().len()).sum();
        let batch_span = self
            .obs
            .span("depot.insert_batch")
            .field("envelopes", envelopes.len())
            .field("bytes", total_bytes);
        let mut results: Vec<Option<Result<DepotTiming, DepotError>>> =
            (0..envelopes.len()).map(|_| None).collect();
        let mut accepted: Vec<Pending> = Vec::with_capacity(envelopes.len());
        for (index, bytes) in envelopes.iter().enumerate() {
            let bytes = bytes.as_ref();
            let span = self.obs.span("depot.insert").field("bytes", bytes.len());
            let t0 = Instant::now();
            match EnvelopeView::decode(bytes) {
                Ok(envelope) => {
                    let unpack = t0.elapsed();
                    let mut span = span.field("branch", &envelope.address);
                    if let Some(ctx) = envelope.trace {
                        span = span.trace_ctx(ctx);
                    }
                    let archive_ctx = span.child_ctx();
                    let trace_id = envelope.trace.map_or(0, |ctx| ctx.trace_id);
                    accepted.push(Pending { index, envelope, unpack, span, archive_ctx, trace_id });
                }
                Err(e) => {
                    span.severity(Severity::Warn).field("error", &e).finish();
                    results[index] = Some(Err(e.into()));
                }
            }
        }
        let items: Vec<(&BranchId, &str)> = accepted
            .iter()
            .map(|p| (&p.envelope.address, p.envelope.report_xml.as_ref()))
            .collect();
        let t1 = Instant::now();
        let insert_result = self.cache.insert_batch(&items);
        let insert_total = t1.elapsed();
        drop(items);
        if let Err(e) = insert_result {
            batch_span.severity(Severity::Error).field("error", &e).finish();
            for pending in accepted {
                pending.span.severity(Severity::Error).field("error", &e).finish();
                results[pending.index] = Some(Err(DepotError::Cache(e.clone())));
            }
            return results.into_iter().map(|r| r.expect("every envelope resolved")).collect();
        }
        let accepted_count = accepted.len();
        self.reports_received += accepted_count as u64;
        let amortized = insert_total
            .checked_div(accepted_count.max(1) as u32)
            .unwrap_or(Duration::ZERO);
        // Per-report archival and instrumentation.
        for pending in accepted {
            let Pending { index, envelope, unpack, span, archive_ctx, trace_id } = pending;
            let t2 = Instant::now();
            if self
                .archive
                .rules()
                .iter()
                .any(|r| envelope.address.matches_suffix(&r.query))
            {
                let mut archive_span =
                    self.obs.span("depot.archive.write").field("branch", &envelope.address);
                if let Some(ctx) = archive_ctx {
                    archive_span = archive_span.trace_ctx(ctx);
                }
                if let Ok(report) = Report::parse(&envelope.report_xml) {
                    let ingested = self.archive.ingest(&envelope.address, &report, now);
                    archive_span.field("series", ingested).finish();
                }
            }
            let timing = DepotTiming {
                unpack,
                insert: amortized,
                archive: t2.elapsed(),
                report_size: envelope.report_xml.len(),
            };
            self.unpack_hist.observe_duration_with_exemplar(timing.unpack, trace_id);
            self.insert_hist.observe_duration_with_exemplar(timing.insert, trace_id);
            span.field("size", timing.report_size).finish();
            results[index] = Some(Ok(timing));
        }
        self.batch_size_hist.observe(accepted_count as f64);
        self.batch_insert_hist.observe_duration(insert_total);
        if self.cache.rope.maybe_compact() {
            self.compactions.inc();
        }
        self.set_cache_gauges();
        batch_span
            .field("accepted", accepted_count)
            .field("cache_bytes", self.cache.rope.size_bytes())
            .finish();
        results.into_iter().map(|r| r.expect("every envelope resolved")).collect()
    }

    fn set_cache_gauges(&self) {
        self.cache_bytes.set(self.cache.rope.size_bytes() as f64);
        self.cache_reports.set(self.cache.rope.report_count() as f64);
        self.arena_bytes.set(self.cache.rope.arena_bytes() as f64);
    }

    /// Reports accepted since this depot was created or restored,
    /// replacements and duplicates included (the cache holds one per
    /// branch: [`CacheRef::report_count`]).
    pub fn report_count(&self) -> u64 {
        self.reports_received
    }

    /// The cache (read access for the querying interface).
    pub fn cache(&self) -> CacheRef<'_> {
        CacheRef(&self.cache.rope)
    }

    /// [`RopeCache::subtree`]: the sub-document at `query`, copied out
    /// of the cache.
    pub(crate) fn query_subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        self.cache.rope.subtree(query)
    }

    /// [`RopeCache::reports`]: every raw report matching `query` (all
    /// when `None`), copied out of the cache in document order.
    ///
    /// The flag is always `false`: nothing answers this read but the
    /// cache. The tuple stays because the gated benchmark destructures
    /// it; it goes when that benchmark is next re-baselined (ROADMAP
    /// item 1(a)).
    pub fn query_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<(Vec<(BranchId, String)>, bool), CacheError> {
        Ok((self.cache.rope.reports(query)?, false))
    }

    /// Every cached report matching `query` (all when `None`), parsed
    /// and shared, in the order [`Depot::query_reports`] lists the raw
    /// XML; the flag is `true` when nothing had to be parsed. See
    /// `CacheStore::parsed_reports`.
    pub(crate) fn parsed_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<(ParsedReports, bool), CacheError> {
        self.cache.parsed_reports(query)
    }

    /// The report stored exactly at `branch`, borrowed from the
    /// rope's arena.
    pub(crate) fn report_exact(&self, branch: &BranchId) -> Option<&str> {
        self.cache.rope.report_exact(branch)
    }

    /// The report stored exactly at `branch`, copied out of the cache.
    /// The flag is always `false` and, like [`Depot::query_reports`]'s,
    /// stays only for the gated benchmark (ROADMAP item 1(a)).
    pub fn query_report_exact(&self, branch: &BranchId) -> (Option<String>, bool) {
        (self.report_exact(branch).map(str::to_string), false)
    }

    /// The archive store (read access for the querying interface).
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Mutable archive access (consumer-side series recording).
    pub fn archive_mut(&mut self) -> &mut ArchiveStore {
        &mut self.archive
    }

    /// Persists cache and archives to a directory (`cache.xml` +
    /// `archives.txt`) — the paper's Persistent Data Storage
    /// requirement. The received-report count is runtime-only and not
    /// persisted.
    pub fn save_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("cache.xml"), self.cache.rope.document().as_bytes())?;
        std::fs::write(dir.join("archives.txt"), self.archive.dump())?;
        Ok(())
    }

    /// Restores a depot persisted with [`Depot::save_to`].
    pub fn load_from(dir: &std::path::Path) -> std::io::Result<Depot> {
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let cache_doc = std::fs::read_to_string(dir.join("cache.xml"))?;
        let archive_text = std::fs::read_to_string(dir.join("archives.txt"))?;
        let rope = RopeCache::from_document(cache_doc).map_err(|e| invalid(e.to_string()))?;
        let archive = ArchiveStore::restore(&archive_text).map_err(invalid)?;
        let mut depot = Depot::new();
        depot.cache = CacheStore::new(rope);
        depot.archive = archive;
        depot.set_cache_gauges();
        Ok(depot)
    }
}

impl Default for Depot {
    fn default() -> Depot {
        Depot::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depot::cache::XmlCache;
    use inca_report::{BranchId, ReportBuilder};
    use inca_rrd::{ArchivePolicy, ConsolidationFn};
    use inca_wire::envelope::{Envelope, EnvelopeMode};

    fn envelope_bytes(branch: &str, value: &str, mode: EnvelopeMode) -> Vec<u8> {
        let report = ReportBuilder::new("r", "1.0")
            .gmt(Timestamp::from_secs(1_000))
            .body_value("v", value)
            .success()
            .unwrap();
        Envelope::new(branch.parse().unwrap(), report.to_xml()).encode(mode)
    }

    #[test]
    fn receive_caches_report() {
        let mut depot = Depot::new();
        let t = Timestamp::from_secs(1_000);
        let timing = depot
            .receive(&envelope_bytes("reporter=r,resource=m,vo=tg", "42", EnvelopeMode::Body), t)
            .unwrap();
        assert_eq!(depot.cache().report_count(), 1);
        assert!(timing.report_size > 0);
        assert!(timing.response() >= timing.insert);
        assert_eq!(depot.report_count(), 1);
    }

    #[test]
    fn receive_both_envelope_modes() {
        let mut depot = Depot::new();
        let t = Timestamp::from_secs(1_000);
        depot
            .receive(&envelope_bytes("reporter=a,vo=tg", "1", EnvelopeMode::Body), t)
            .unwrap();
        depot
            .receive(&envelope_bytes("reporter=b,vo=tg", "2", EnvelopeMode::Attachment), t)
            .unwrap();
        assert_eq!(depot.cache().report_count(), 2);
    }

    #[test]
    fn garbage_envelope_rejected() {
        let mut depot = Depot::new();
        let err = depot.receive(b"garbage", Timestamp::from_secs(0)).unwrap_err();
        assert!(matches!(err, DepotError::Envelope(_)));
        assert_eq!(depot.cache().report_count(), 0);
    }

    #[test]
    fn repeated_updates_replace() {
        let mut depot = Depot::new();
        for i in 0..10u64 {
            depot
                .receive(
                    &envelope_bytes("reporter=r,resource=m,vo=tg", &i.to_string(), EnvelopeMode::Body),
                    Timestamp::from_secs(1_000 + i),
                )
                .unwrap();
        }
        assert_eq!(depot.cache().report_count(), 1);
        assert_eq!(depot.report_count(), 10);
    }

    #[test]
    fn archive_rules_fed_from_reports() {
        let mut depot = Depot::new();
        depot.add_archive_rule(ArchiveRule {
            name: "v".into(),
            query: "vo=tg".parse().unwrap(),
            path: "v".parse().unwrap(),
            policy: ArchivePolicy::every("p", 86_400),
            period_secs: 600,
        });
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=6u64 {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(t0 + i * 600)
                .body_value("v", (i * 10).to_string())
                .success()
                .unwrap();
            let env = Envelope::new(
                "reporter=r,resource=m,vo=tg".parse::<BranchId>().unwrap(),
                report.to_xml(),
            );
            depot.receive(&env.encode(EnvelopeMode::Body), t0 + i * 600).unwrap();
        }
        let branch: BranchId = "reporter=r,resource=m,vo=tg".parse().unwrap();
        let f = depot
            .archive()
            .fetch_rule_series("v", &branch, ConsolidationFn::Average, t0, t0 + 4_000)
            .unwrap();
        assert!(f.known_points().count() >= 4);
    }

    #[test]
    fn ingest_triggered_compaction_resets_arena_gauge() {
        use crate::depot::rope::COMPACT_MIN_ARENA_BYTES;
        let obs = Obs::new();
        let mut depot = Depot::with_obs(obs.clone());
        let t = Timestamp::from_secs(1_000);
        // Replace one branch with a big report, then repeatedly with
        // small ones: the big corpse dominates the arena until the
        // ratio threshold trips a compaction mid-ingest.
        let branch = "reporter=r,resource=m,vo=tg";
        let big = "x".repeat(2 * COMPACT_MIN_ARENA_BYTES);
        depot.receive(&envelope_bytes(branch, &big, EnvelopeMode::Body), t).unwrap();
        depot.receive(&envelope_bytes(branch, "small", EnvelopeMode::Body), t).unwrap();
        assert_eq!(
            obs.metrics().counter_value("inca_depot_compactions_total", &[]),
            Some(1),
            "garbage past the ratio threshold must trigger exactly one rebuild"
        );
        let gauge = obs.metrics().gauge_value("inca_depot_arena_bytes", &[]).unwrap();
        assert!(
            (gauge as usize) < COMPACT_MIN_ARENA_BYTES,
            "arena gauge must reset to live bytes after compaction, got {gauge}"
        );
        // Byte-identity: the document equals a fresh splice build of
        // the same content.
        let small = Envelope::decode(&envelope_bytes(branch, "small", EnvelopeMode::Body)).unwrap();
        let mut oracle = XmlCache::new();
        oracle.update(&small.address, &small.report_xml).unwrap();
        assert_eq!(depot.cache().document(), oracle.document());
    }

    /// The rope depot against the paper's streaming splice: replaying
    /// into a bare [`XmlCache`] exactly the envelopes `receive_batch`
    /// accepted gives the same document after every batch — new
    /// branches, replacements, a branch written twice in one batch, and
    /// rejected envelopes that must leave no trace.
    #[test]
    fn receive_batch_matches_an_xml_cache_replay_of_what_it_accepted() {
        let t = Timestamp::from_secs(1_000);
        let modes = [EnvelopeMode::Body, EnvelopeMode::Attachment, EnvelopeMode::Binary];
        let mut depot = Depot::with_obs(Obs::new());
        let mut oracle = XmlCache::new();
        for round in 0..6usize {
            let mut batch: Vec<Vec<u8>> = (0..9)
                .map(|i| {
                    envelope_bytes(
                        &format!("reporter=r{},resource=m{},site=s{},vo=tg", i % 5, i % 5 % 3, round % 2),
                        &format!("{round}.{i}"),
                        modes[(round + i) % 3],
                    )
                })
                .collect();
            batch.insert(3, b"garbage".to_vec());
            let mut truncated = batch[5].clone();
            truncated.truncate(truncated.len() / 2);
            batch.push(truncated);
            let results = depot.receive_batch(&batch, t);
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 2, "round {round}");
            for (bytes, result) in batch.iter().zip(&results) {
                if result.is_ok() {
                    let envelope = Envelope::decode(bytes).unwrap();
                    oracle.update(&envelope.address, &envelope.report_xml).unwrap();
                }
            }
            assert_eq!(depot.cache().document(), oracle.document(), "round {round}");
            assert_eq!(depot.cache().report_count(), oracle.report_count());
        }
        assert_eq!(depot.report_count(), 6 * 9);
    }

    #[test]
    fn receive_batch_matches_sequential_receives() {
        let t = Timestamp::from_secs(1_000);
        let envelopes: Vec<Vec<u8>> = (0..25)
            .map(|i| {
                envelope_bytes(
                    &format!("reporter=r{},resource=m{},vo=tg", i % 20, i % 4),
                    &i.to_string(),
                    if i % 2 == 0 { EnvelopeMode::Body } else { EnvelopeMode::Attachment },
                )
            })
            .collect();
        let mut batched = Depot::new();
        let results = batched.receive_batch(&envelopes, t);
        assert_eq!(results.len(), 25);
        for r in &results {
            let timing = r.as_ref().unwrap();
            assert!(timing.report_size > 0);
        }
        let mut sequential = Depot::new();
        for env in &envelopes {
            sequential.receive(env, t).unwrap();
        }
        assert_eq!(batched.cache().document(), sequential.cache().document());
        assert_eq!(batched.report_count(), 25);
    }

    #[test]
    fn receive_batch_rejects_only_bad_envelopes() {
        let t = Timestamp::from_secs(1_000);
        let envelopes = vec![
            envelope_bytes("reporter=a,vo=tg", "1", EnvelopeMode::Body),
            b"garbage".to_vec(),
            envelope_bytes("reporter=b,vo=tg", "2", EnvelopeMode::Body),
        ];
        let mut depot = Depot::new();
        let results = depot.receive_batch(&envelopes, t);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DepotError::Envelope(_))));
        assert!(results[2].is_ok());
        assert_eq!(depot.cache().report_count(), 2);
        assert_eq!(depot.report_count(), 2, "rejected envelopes are not counted");
    }

    #[test]
    fn receive_batch_feeds_archive_rules_and_batch_metrics() {
        let obs = inca_obs::Obs::new();
        let mut depot = Depot::with_obs(obs.clone());
        depot.add_archive_rule(ArchiveRule {
            name: "v".into(),
            query: "vo=tg".parse().unwrap(),
            path: "v".parse().unwrap(),
            policy: ArchivePolicy::every("p", 86_400),
            period_secs: 600,
        });
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=3u64 {
            let envelopes: Vec<Vec<u8>> = (0..2)
                .map(|j| {
                    let report = ReportBuilder::new("r", "1.0")
                        .gmt(t0 + i * 600)
                        .body_value("v", (i * 10 + j).to_string())
                        .success()
                        .unwrap();
                    Envelope::new(
                        format!("reporter=r{j},resource=m,vo=tg").parse::<BranchId>().unwrap(),
                        report.to_xml(),
                    )
                    .encode(EnvelopeMode::Body)
                })
                .collect();
            for r in depot.receive_batch(&envelopes, t0 + i * 600) {
                r.unwrap();
            }
        }
        let branch: BranchId = "reporter=r0,resource=m,vo=tg".parse().unwrap();
        let series = depot
            .archive()
            .fetch_rule_series("v", &branch, ConsolidationFn::Average, t0, t0 + 2_000)
            .unwrap();
        assert!(series.known_points().count() >= 2, "batched reports must still archive");
        // The batch histograms saw three batches of two.
        let size_hist = obs.metrics().histogram_of("inca_depot_batch_size", &[]).unwrap();
        assert_eq!(size_hist.count(), 3);
        let batch_hist =
            obs.metrics().histogram_of("inca_depot_batch_insert_seconds", &[]).unwrap();
        assert_eq!(batch_hist.count(), 3);
    }

    #[test]
    fn parsed_memo_is_bounded_by_the_cached_report_count() {
        use crate::query::QueryInterface;
        let mut depot = Depot::with_obs(Obs::new());
        let t = Timestamp::from_secs(1_000);
        let site: BranchId = "site=s0,vo=tg".parse().unwrap();
        // Ten rounds of replacing every report of a fixed branch set,
        // singly and batched, with set reads in between.
        for round in 0..10 {
            let envelopes: Vec<Vec<u8>> = (0..12)
                .map(|i| {
                    envelope_bytes(
                        &format!("reporter=r{i},site=s{},vo=tg", i % 3),
                        &format!("{round}.{i}"),
                        EnvelopeMode::Binary,
                    )
                })
                .collect();
            let (single, batch) = envelopes.split_at(4);
            for envelope in single {
                depot.receive(envelope, t).unwrap();
            }
            for result in depot.receive_batch(batch, t) {
                result.unwrap();
            }
            assert_eq!(depot.cache().report_count(), 12);
            let q = QueryInterface::new(&depot);
            assert_eq!(q.reports(Some(&site)).unwrap().len(), 4);
            assert!(depot.cache.parsed.len() <= 4, "only what was read");
            assert_eq!(q.reports(None).unwrap().len(), 12);
            assert_eq!(depot.cache.parsed.len(), 12, "one per cached branch");
        }
    }

    #[test]
    fn point_reads_and_documents_never_fill_the_parsed_memo() {
        use crate::query::QueryInterface;
        // What the TCP workloads read: `report`, `current`,
        // `current_all`. None of them is a set read, so the memo stays
        // empty and the write path keeps paying one emptiness check.
        let mut depot = Depot::with_obs(Obs::new());
        let t = Timestamp::from_secs(1_000);
        let branch: BranchId = "reporter=r,resource=m,vo=tg".parse().unwrap();
        for round in 0..3 {
            let bytes =
                envelope_bytes(&branch.to_string(), &round.to_string(), EnvelopeMode::Binary);
            depot.receive(&bytes, t).unwrap();
            let q = QueryInterface::new(&depot);
            assert!(q.report(&branch).unwrap().is_some());
            assert!(q.current(&"vo=tg".parse().unwrap()).unwrap().is_some());
            assert!(q.current_all().contains("<incaReport"));
            assert_eq!(depot.cache.parsed.len(), 0);
        }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut depot = Depot::new();
        depot.add_archive_rule(ArchiveRule {
            name: "v".into(),
            query: "vo=tg".parse().unwrap(),
            path: "v".parse().unwrap(),
            policy: ArchivePolicy::every("p", 86_400),
            period_secs: 600,
        });
        let t0 = Timestamp::from_secs(600_000);
        for i in 1..=6u64 {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(t0 + i * 600)
                .body_value("v", (i * 10).to_string())
                .success()
                .unwrap();
            let env = Envelope::new(
                "reporter=r,resource=m,vo=tg".parse::<BranchId>().unwrap(),
                report.to_xml(),
            );
            depot.receive(&env.encode(EnvelopeMode::Body), t0 + i * 600).unwrap();
        }
        depot.archive_mut().record(
            "availability:Grid:x",
            &ArchivePolicy::every("p2", 3_600),
            600,
            t0 + 600,
            99.0,
        );
        let dir = std::env::temp_dir().join(format!("inca-depot-test-{}", std::process::id()));
        depot.save_to(&dir).unwrap();
        let loaded = Depot::load_from(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Cache identical.
        assert_eq!(loaded.cache().document(), depot.cache().document());
        // Archived series identical.
        let branch: BranchId = "reporter=r,resource=m,vo=tg".parse().unwrap();
        let range = (t0, t0 + 4_000);
        let a = loaded
            .archive()
            .fetch_rule_series("v", &branch, ConsolidationFn::Average, range.0, range.1)
            .unwrap();
        let b = depot
            .archive()
            .fetch_rule_series("v", &branch, ConsolidationFn::Average, range.0, range.1)
            .unwrap();
        assert!(a.same_series(&b), "{a:?} != {b:?}");
        assert!(loaded
            .archive()
            .fetch_series("availability:Grid:x", ConsolidationFn::Average, range.0, range.1)
            .is_some());
        // Rules survive: a new matching report still archives.
        let mut loaded = loaded;
        let report = ReportBuilder::new("r", "1.0")
            .gmt(t0 + 7 * 600)
            .body_value("v", "70")
            .success()
            .unwrap();
        let env = Envelope::new(branch.clone(), report.to_xml());
        loaded.receive(&env.encode(EnvelopeMode::Body), t0 + 7 * 600).unwrap();
        let f = loaded
            .archive()
            .fetch_rule_series("v", &branch, ConsolidationFn::Average, t0, t0 + 8 * 600)
            .unwrap();
        assert!(f.known_points().any(|(_, v)| v == 70.0));
    }

    #[test]
    fn load_rejects_corrupt_state() {
        let dir = std::env::temp_dir().join(format!("inca-depot-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cache.xml"), "<notACache/>").unwrap();
        std::fs::write(dir.join("archives.txt"), "archive-store v1\n").unwrap();
        assert!(Depot::load_from(&dir).is_err());
        std::fs::write(dir.join("cache.xml"), "<incaCache></incaCache>").unwrap();
        std::fs::write(dir.join("archives.txt"), "garbage").unwrap();
        assert!(Depot::load_from(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
