//! The depot proper: receive → unpack → cache → archive, timed.
//!
//! §5.2 defines *response time* as "the time that the centralized
//! controller must wait while the depot receives and processes the
//! envelope" and breaks it into "(1) receiving the report and unpacking
//! the SOAP envelope … and (2) processing the cache to find the
//! appropriate location for the report". [`Depot::receive_batch`]
//! reproduces exactly that decomposition for every envelope and returns
//! both components in [`DepotTiming`] — the data behind Table 4 and
//! Figure 9. [`Depot::receive`] is a batch of one.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inca_obs::metrics::{Counter, Gauge, Histogram, BATCH_SIZE_BOUNDS, DEFAULT_LATENCY_BOUNDS};
use inca_obs::trace::Span;
use inca_obs::{Obs, Severity, TraceContext};
use inca_report::{BranchId, Report, Timestamp};
use inca_wire::envelope::EnvelopeView;
#[cfg(test)]
use inca_wire::envelope::Envelope;
use inca_wire::message::WireError;

use crate::depot::archive::{ArchiveRule, ArchiveStore};
use crate::depot::cache::{branch_of, CacheError, XmlCache};
use crate::depot::memo::{MemoValue, ParsedMemo, QueryMemo};
use crate::depot::rope::RopeCache;
use crate::stats::ResponseStats;

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
    /// Locating and splicing into the cache (grows with cache size —
    /// Figure 9's lower line).
    pub insert: Duration,
    /// Feeding matching archive rules.
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

/// Which cache representation a depot runs on.
///
/// The rope is the production cache (O(report) writes, see
/// [`RopeCache`]); the splice cache is the paper's measured design,
/// asked for by name by the paper's experiments and by the tests that
/// use it as the byte-identity oracle. Both produce the same canonical
/// document, so a depot can be persisted under one backend and
/// restored under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheBackend {
    /// Contiguous-string splice cache ([`XmlCache`], §5.2.2 semantics).
    Splice,
    /// Arena-backed rope with lazy materialization ([`RopeCache`]).
    #[default]
    Rope,
}

/// One of the two cache representations.
#[derive(Debug)]
enum Backend {
    Splice(XmlCache),
    Rope(RopeCache),
}

/// The depot's cache storage: a backend, and the parsed form of the
/// reports it holds. `insert_batch` is the only way to change the
/// backend, which is what lets it keep `parsed` honest.
#[derive(Debug)]
struct CacheStore {
    backend: Backend,
    /// What set reads ([`CacheStore::parsed_reports`]) have parsed, so
    /// a verification pass or a status page parses only the reports
    /// replaced since the last one. Retention: an entry is made by the
    /// first set read that reaches a branch and lives until the next
    /// write to that branch, whichever backend holds it; compaction
    /// moves bytes, not reports, and never touches it. The cache never
    /// drops a branch, so the memo holds at most
    /// [`CacheStore::report_count`] reports, and none at all on a
    /// depot that serves only point reads and documents
    /// (`report`/`current`/`current_all`).
    parsed: ParsedMemo,
}

impl CacheStore {
    fn new(backend: Backend) -> CacheStore {
        CacheStore { backend, parsed: ParsedMemo::default() }
    }

    fn insert_batch(&mut self, items: &[(&BranchId, &str)]) -> Result<(), CacheError> {
        for (branch, _) in items {
            self.parsed.forget(branch);
        }
        match &mut self.backend {
            Backend::Splice(c) => c.insert_batch(items),
            Backend::Rope(c) => c.insert_batch(items),
        }
    }

    fn generation(&self) -> u64 {
        match &self.backend {
            Backend::Splice(c) => c.generation(),
            Backend::Rope(c) => c.generation(),
        }
    }

    fn size_bytes(&self) -> usize {
        match &self.backend {
            Backend::Splice(c) => c.size_bytes(),
            Backend::Rope(c) => c.size_bytes(),
        }
    }

    fn arena_bytes(&self) -> usize {
        match &self.backend {
            // The splice cache *is* its document: no arena, no garbage.
            Backend::Splice(c) => c.size_bytes(),
            Backend::Rope(c) => c.arena_bytes(),
        }
    }

    fn maybe_compact(&mut self) -> bool {
        match &mut self.backend {
            // The splice cache carries no garbage to reclaim.
            Backend::Splice(_) => false,
            Backend::Rope(c) => c.maybe_compact(),
        }
    }

    fn report_count(&self) -> usize {
        match &self.backend {
            Backend::Splice(c) => c.report_count(),
            Backend::Rope(c) => c.report_count(),
        }
    }

    fn subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        match &self.backend {
            Backend::Splice(c) => c.subtree(query),
            Backend::Rope(c) => c.subtree(query),
        }
    }

    fn reports(&self, query: Option<&BranchId>) -> Result<Vec<(BranchId, String)>, CacheError> {
        match &self.backend {
            Backend::Splice(c) => c.reports(query),
            Backend::Rope(c) => c.reports(query),
        }
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
    ) -> Result<(Vec<(BranchId, Arc<Report>)>, bool), CacheError> {
        let mut out = Vec::new();
        let mut all_shared = true;
        let mut key = String::new();
        let mut visit = |path: &[(&str, &str)], xml: &str| {
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
        };
        match &self.backend {
            Backend::Splice(c) => c.visit_reports(query, &mut visit)?,
            Backend::Rope(c) => c.visit_reports(query, &mut visit)?,
        }
        Ok((out, all_shared))
    }

    fn report_exact(&self, branch: &BranchId) -> Option<&str> {
        match &self.backend {
            Backend::Splice(c) => c.report_exact(branch),
            Backend::Rope(c) => c.report_exact(branch),
        }
    }

    fn document(&self) -> Cow<'_, str> {
        match &self.backend {
            Backend::Splice(c) => Cow::Borrowed(c.document()),
            Backend::Rope(c) => Cow::Owned((*c.document()).clone()),
        }
    }
}

/// Backend-agnostic read view of a depot's cache.
///
/// What [`Depot::cache`] hands to the querying interface: the common
/// read surface of both backends. `document()` borrows from the splice
/// cache and materializes (generation-cached inside [`RopeCache`]) on
/// the rope.
#[derive(Debug, Clone, Copy)]
pub struct CacheRef<'a>(&'a CacheStore);

impl<'a> CacheRef<'a> {
    /// Which backend this view reads from.
    pub fn backend(&self) -> CacheBackend {
        match self.0.backend {
            Backend::Splice(_) => CacheBackend::Splice,
            Backend::Rope(_) => CacheBackend::Rope,
        }
    }

    /// The full cache document.
    pub fn document(&self) -> Cow<'a, str> {
        self.0.document()
    }

    /// Document size in bytes (O(1) on both backends).
    pub fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    /// Number of cached reports (O(1) on both backends).
    pub fn report_count(&self) -> usize {
        self.0.report_count()
    }

    /// Mutation counter — the memo/materialization cache key.
    pub fn generation(&self) -> u64 {
        self.0.generation()
    }
}

/// The depot: cache, archive, statistics, and their instrumentation.
#[derive(Debug)]
pub struct Depot {
    cache: CacheStore,
    archive: ArchiveStore,
    stats: ResponseStats,
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
    /// (`inca_depot_arena_bytes`); equals `inca_depot_cache_bytes` on
    /// the splice backend.
    arena_bytes: Arc<Gauge>,
    /// Rope-arena compactions run (`inca_depot_compactions_total`).
    compactions: Arc<Counter>,
    /// Reports accepted per receive (`inca_depot_batch_size`).
    batch_size_hist: Arc<Histogram>,
    /// Whole-batch cache-splice latency
    /// (`inca_depot_batch_insert_seconds`); the per-report share
    /// additionally lands in `inca_depot_insert_seconds`.
    batch_insert_hist: Arc<Histogram>,
    /// Recent query results, stamped with the cache generation that
    /// produced them (see [`QueryMemo`]). Interior mutability keeps it
    /// usable through the controller's shared read guard.
    memo: QueryMemo,
}

/// Distinct query keys the depot memoizes before evicting — sized for
/// the status pages' working set, small enough that a full probe is a
/// handful of string compares.
const QUERY_MEMO_CAPACITY: usize = 32;

impl Depot {
    /// An empty depot observing into [`Obs::global`].
    pub fn new() -> Depot {
        Depot::with_obs(Obs::global())
    }

    /// An empty depot on the given cache backend, observing into
    /// [`Obs::global`].
    pub fn with_backend(backend: CacheBackend) -> Depot {
        Depot::with_obs_backend(Obs::global(), backend)
    }

    /// An empty depot whose spans and metrics go to `obs` (isolated
    /// registries for tests, embedded setups with their own handle).
    pub fn with_obs(obs: Obs) -> Depot {
        Depot::with_obs_backend(obs, CacheBackend::default())
    }

    /// An empty depot with an explicit observability handle and cache
    /// backend.
    pub fn with_obs_backend(obs: Obs, backend: CacheBackend) -> Depot {
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
            cache: CacheStore::new(match backend {
                CacheBackend::Splice => Backend::Splice(XmlCache::new()),
                CacheBackend::Rope => Backend::Rope(RopeCache::new()),
            }),
            archive: ArchiveStore::with_obs(&obs),
            stats: ResponseStats::new(),
            obs,
            unpack_hist,
            insert_hist,
            cache_bytes,
            cache_reports,
            arena_bytes,
            compactions,
            batch_size_hist,
            batch_insert_hist,
            memo: QueryMemo::new(QUERY_MEMO_CAPACITY),
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
    /// The batch is one cache mutation (one generation, so one memo
    /// invalidation) and one round of gauge updates, and each report's
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
        let amortized = insert_total
            .checked_div(accepted_count.max(1) as u32)
            .unwrap_or(Duration::ZERO);
        // Per-report archival and accounting, as the sequential path.
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
            self.stats
                .record(timing.report_size, timing.response().as_secs_f64());
            self.unpack_hist.observe_duration_with_exemplar(timing.unpack, trace_id);
            self.insert_hist.observe_duration_with_exemplar(timing.insert, trace_id);
            span.field("size", timing.report_size).finish();
            results[index] = Some(Ok(timing));
        }
        self.batch_size_hist.observe(accepted_count as f64);
        self.batch_insert_hist.observe_duration(insert_total);
        if self.cache.maybe_compact() {
            self.compactions.inc();
        }
        self.cache_bytes.set(self.cache.size_bytes() as f64);
        self.cache_reports.set(self.cache.report_count() as f64);
        self.arena_bytes.set(self.cache.arena_bytes() as f64);
        batch_span
            .field("accepted", accepted_count)
            .field("cache_bytes", self.cache.size_bytes())
            .finish();
        results.into_iter().map(|r| r.expect("every envelope resolved")).collect()
    }

    /// The cache (read access for the querying interface), as a
    /// backend-agnostic view.
    pub fn cache(&self) -> CacheRef<'_> {
        CacheRef(&self.cache)
    }

    /// Which cache backend this depot runs on.
    pub fn cache_backend(&self) -> CacheBackend {
        self.cache().backend()
    }

    /// [`XmlCache::subtree`] through the query memo. The returned flag
    /// is `true` on a memo hit (the cache was not touched).
    pub fn query_subtree(&self, query: &BranchId) -> Result<(Option<String>, bool), CacheError> {
        let generation = self.cache.generation();
        let key = format!("subtree:{query}");
        if let Some(MemoValue::Subtree(v)) = self.memo.get(generation, &key) {
            return Ok((v, true));
        }
        let v = self.cache.subtree(query)?;
        self.memo.put(generation, key, MemoValue::Subtree(v.clone()));
        Ok((v, false))
    }

    /// [`XmlCache::reports`] through the query memo. The returned flag
    /// is `true` on a memo hit.
    pub fn query_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<(Vec<(BranchId, String)>, bool), CacheError> {
        let generation = self.cache.generation();
        let key = match query {
            Some(q) => format!("reports:{q}"),
            None => "reports:*".to_string(),
        };
        if let Some(MemoValue::Reports(v)) = self.memo.get(generation, &key) {
            return Ok((v, true));
        }
        let v = self.cache.reports(query)?;
        self.memo.put(generation, key, MemoValue::Reports(v.clone()));
        Ok((v, false))
    }

    /// Every cached report matching `query` (all when `None`), parsed
    /// and shared, in the order [`Depot::query_reports`] lists the raw
    /// XML; the flag is `true` when nothing had to be parsed. See
    /// `CacheStore::parsed_reports`.
    pub(crate) fn parsed_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<(Vec<(BranchId, Arc<Report>)>, bool), CacheError> {
        self.cache.parsed_reports(query)
    }

    /// [`XmlCache::report_exact`] through the query memo. The returned
    /// flag is `true` on a memo hit.
    pub fn query_report_exact(&self, branch: &BranchId) -> (Option<String>, bool) {
        let generation = self.cache.generation();
        let key = format!("exact:{branch}");
        if let Some(MemoValue::Exact(v)) = self.memo.get(generation, &key) {
            return (v, true);
        }
        let v = self.cache.report_exact(branch).map(str::to_string);
        self.memo.put(generation, key, MemoValue::Exact(v.clone()));
        (v, false)
    }

    /// The archive store (read access for the querying interface).
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Mutable archive access (consumer-side series recording).
    pub fn archive_mut(&mut self) -> &mut ArchiveStore {
        &mut self.archive
    }

    /// Accumulated response statistics.
    pub fn stats(&self) -> &ResponseStats {
        &self.stats
    }

    /// Persists cache and archives to a directory (`cache.xml` +
    /// `archives.txt`) — the paper's Persistent Data Storage
    /// requirement. Response statistics are runtime-only and not
    /// persisted.
    pub fn save_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("cache.xml"), self.cache.document().as_bytes())?;
        std::fs::write(dir.join("archives.txt"), self.archive.dump())?;
        Ok(())
    }

    /// Restores a depot persisted with [`Depot::save_to`], on the
    /// default backend.
    pub fn load_from(dir: &std::path::Path) -> std::io::Result<Depot> {
        Depot::load_from_backend(dir, CacheBackend::default())
    }

    /// Restores a depot persisted with [`Depot::save_to`] onto an
    /// explicit cache backend. Both backends produce the same canonical
    /// document, so persisted state moves freely between them.
    pub fn load_from_backend(
        dir: &std::path::Path,
        backend: CacheBackend,
    ) -> std::io::Result<Depot> {
        let cache_doc = std::fs::read_to_string(dir.join("cache.xml"))?;
        let archive_text = std::fs::read_to_string(dir.join("archives.txt"))?;
        let invalid =
            |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let cache = CacheStore::new(match backend {
            CacheBackend::Splice => Backend::Splice(
                XmlCache::from_document(cache_doc).map_err(|e| invalid(e.to_string()))?,
            ),
            CacheBackend::Rope => Backend::Rope(
                RopeCache::from_document(cache_doc).map_err(|e| invalid(e.to_string()))?,
            ),
        });
        let archive = ArchiveStore::restore(&archive_text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let mut depot = Depot::new();
        depot.cache_bytes.set(cache.size_bytes() as f64);
        depot.cache_reports.set(cache.report_count() as f64);
        depot.arena_bytes.set(cache.arena_bytes() as f64);
        depot.cache = cache;
        depot.archive = archive;
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
    use inca_report::{BranchId, ReportBuilder};
    use inca_rrd::{ArchivePolicy, ConsolidationFn};
    use inca_wire::envelope::EnvelopeMode;

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
        assert_eq!(depot.stats().report_count(), 1);
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
        assert_eq!(depot.stats().report_count(), 10);
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
        let mut depot = Depot::with_obs_backend(obs.clone(), CacheBackend::Rope);
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
        let doc = depot.cache().document().to_string();
        let mut oracle = Depot::with_obs_backend(Obs::new(), CacheBackend::Splice);
        oracle.receive(&envelope_bytes(branch, "small", EnvelopeMode::Body), t).unwrap();
        assert_eq!(doc, oracle.cache().document().to_string());
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
        assert_eq!(batched.stats().report_count(), 25);
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
        assert_eq!(depot.stats().report_count(), 2, "rejected envelopes are not counted");
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
        for backend in [CacheBackend::Splice, CacheBackend::Rope] {
            let mut depot = Depot::with_obs_backend(Obs::new(), backend);
            let t = Timestamp::from_secs(1_000);
            let site: BranchId = "site=s0,vo=tg".parse().unwrap();
            // Ten rounds of replacing every report of a fixed branch
            // set, singly and batched, with set reads in between.
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
                assert_eq!(depot.cache.report_count(), 12);
                let q = QueryInterface::new(&depot);
                assert_eq!(q.reports(Some(&site)).unwrap().len(), 4);
                assert!(depot.cache.parsed.len() <= 4, "{backend:?}: only what was read");
                assert_eq!(q.reports(None).unwrap().len(), 12);
                assert_eq!(depot.cache.parsed.len(), 12, "{backend:?}: one per cached branch");
            }
        }
    }

    #[test]
    fn point_reads_and_documents_never_fill_the_parsed_memo() {
        use crate::query::QueryInterface;
        // What the TCP workloads read: `report`, `current`,
        // `current_all`. None of them is a set read, so the memo stays
        // empty and the write path keeps paying one emptiness check.
        let mut depot = Depot::with_obs_backend(Obs::new(), CacheBackend::Rope);
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

    #[test]
    // Slow (multi-megabyte cache rebuilds): excluded from the default
    // `cargo test -q` run, where `tests/paper_check.rs` holds Figure 9's
    // scaling on a reduced sweep. scripts/verify.sh opts back in via
    // `cargo test -p inca-server --lib -- --ignored`.
    #[ignore = "slow Figure 9 scaling check; run with --ignored (scripts/verify.sh does)"]
    fn insert_time_grows_with_cache_size() {
        // The Figure 9 mechanism, asserted coarsely: inserting into a
        // multi-megabyte cache takes longer than into a near-empty one.
        let mut depot = Depot::with_backend(CacheBackend::Splice);
        let t = Timestamp::from_secs(1_000);
        // Grow the cache with many distinct ~20 KB reports.
        let filler = "x".repeat(20_000);
        for i in 0..150 {
            let report = ReportBuilder::new("r", "1.0")
                .gmt(t)
                .body_value("v", filler.as_str())
                .success()
                .unwrap();
            let env = Envelope::new(
                format!("reporter=r{i},vo=tg").parse::<BranchId>().unwrap(),
                report.to_xml(),
            );
            depot.receive(&env.encode(EnvelopeMode::Body), t).unwrap();
        }
        assert!(depot.cache().size_bytes() > 2_000_000);
        // Time many small inserts into the big cache vs a fresh one.
        let small = envelope_bytes("reporter=probe,vo=tg", "1", EnvelopeMode::Body);
        let reps = 30;
        let start = Instant::now();
        for _ in 0..reps {
            depot.receive(&small, t).unwrap();
        }
        let big_elapsed = start.elapsed();
        let mut fresh = Depot::with_backend(CacheBackend::Splice);
        let start = Instant::now();
        for _ in 0..reps {
            fresh.receive(&small, t).unwrap();
        }
        let fresh_elapsed = start.elapsed();
        assert!(
            big_elapsed > fresh_elapsed * 3,
            "expected big-cache inserts to dominate: {big_elapsed:?} vs {fresh_elapsed:?}"
        );
    }
}
