//! The depot cache: one XML document, updated by streaming parse.
//!
//! "The cache is implemented by using a SAX parser and a single XML
//! file. The SAX parser is used for both updates and queries to the
//! cache. The initial design included the use of DOM parsing on the
//! cache, but it was quickly discovered that the memory requirements of
//! the DOM parser grew too rapidly" (§3.2.2).
//!
//! The cache document nests `<branch name="…" id="…">` elements
//! following the branch identifier's hierarchy (general component
//! outermost: `vo`, then `site`, …) with the raw `<incaReport>` spliced
//! at the innermost level. "Further updates of the report will result
//! in the replacement of the previous copy" — an update streams through
//! the document exactly once, locating the splice point by token
//! offsets, and rebuilds the string around it. No tree is ever built,
//! so memory stays at two document buffers regardless of report count;
//! time is linear in cache size, which is precisely the behaviour
//! Figure 9 measures.
//!
//! Reads no longer pay that walk. The cache keeps a persistent
//! branch index — branch path → byte range of its `<branch>`
//! element, plus the byte range of the report stored directly at each
//! path — maintained *incrementally* by [`XmlCache::update`] and
//! [`XmlCache::insert_batch`] (a splice shifts affected ranges by the
//! byte delta; it never re-tokenizes). Queries ([`XmlCache::subtree`],
//! [`XmlCache::reports`], [`XmlCache::report_exact`]) are O(result)
//! lookups into that index. The original streaming implementations
//! survive as [`XmlCache::scan_subtree`] / [`XmlCache::scan_reports`]:
//! the debug oracle the property tests compare against, byte for byte.

use std::collections::BTreeMap;
use std::fmt;

use inca_report::BranchId;
use inca_xml::{escape::escape_attr, Token, Tokenizer, XmlError};

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The cache document itself failed to parse (corruption).
    Corrupt(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Corrupt(m) => write!(f, "cache corrupt: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<XmlError> for CacheError {
    fn from(e: XmlError) -> Self {
        CacheError::Corrupt(e.to_string())
    }
}

/// Where an update must touch the document.
#[derive(Debug, PartialEq, Eq)]
enum Splice {
    /// Replace the byte range of an existing `<incaReport>`.
    Replace { start: usize, end: usize },
    /// Insert at `at`, creating hierarchy levels from `missing_from`.
    Insert { at: usize, missing_from: usize },
}

/// A branch path in cache-document order: general component first
/// (`vo` outermost), exactly the nesting order of the `<branch>`
/// elements. Suffix queries become *prefix* matches on these keys, so
/// a `BTreeMap` range scan answers them in O(result).
type PathKey = Vec<(String, String)>;

const BRANCH_CLOSE: &str = "</branch>";

/// Ceiling (bytes) under which debug builds cross-check every mutation
/// against the streaming oracle. The check is O(cache), so running it
/// on large documents would turn the replay experiments (Figure 8/9
/// tests, which time `receive` for real — their smallest steady cache
/// is 200 KB) into measurements of the oracle instead of the cache.
/// Unit and property tests all operate far below this ceiling and keep
/// full coverage.
#[cfg(debug_assertions)]
const DEBUG_ORACLE_MAX_DOC: usize = 128 * 1024;

/// The single-document XML cache.
#[derive(Debug, Clone)]
pub struct XmlCache {
    doc: String,
    index: BranchIndex,
    generation: u64,
}

/// The document alone defines cache identity; the index is derived
/// state and the generation is mutation bookkeeping.
impl PartialEq for XmlCache {
    fn eq(&self, other: &XmlCache) -> bool {
        self.doc == other.doc
    }
}

impl Eq for XmlCache {}

impl Default for XmlCache {
    fn default() -> Self {
        XmlCache::new()
    }
}

impl XmlCache {
    /// An empty cache.
    pub fn new() -> XmlCache {
        XmlCache {
            doc: "<incaCache></incaCache>".to_string(),
            index: BranchIndex { root_close: "<incaCache>".len(), ..BranchIndex::default() },
            generation: 0,
        }
    }

    /// The full document (the "no branch identifier supplied" query of
    /// §3.2.3: "the entire contents of the cache is returned").
    pub fn document(&self) -> &str {
        &self.doc
    }

    /// Rebuilds a cache from a persisted document, validating the root
    /// and well-formedness (persistence support) and rebuilding the
    /// branch index from scratch — the only place it is ever rebuilt.
    pub fn from_document(doc: String) -> Result<XmlCache, CacheError> {
        let index = BranchIndex::build(&doc)?;
        let cache = XmlCache { doc, index, generation: 0 };
        // A full walk validates well-formedness and every branch id,
        // and cross-checks the freshly built index.
        let scanned = cache.scan_reports(None)?;
        if scanned.len() != cache.index.reports.len() {
            return Err(CacheError::Corrupt(
                "branch index disagrees with a full scan".into(),
            ));
        }
        if !cache.doc.starts_with("<incaCache") {
            return Err(CacheError::Corrupt("document root is not <incaCache>".into()));
        }
        Ok(cache)
    }

    /// Document size in bytes — the x-axis of Figure 9.
    pub fn size_bytes(&self) -> usize {
        self.doc.len()
    }

    /// Number of cached reports — one index entry per report, O(1).
    pub fn report_count(&self) -> usize {
        self.index.reports.len()
    }

    /// Monotone counter bumped by every successful mutation. Memoized
    /// query layers compare generations instead of documents to decide
    /// whether a cached result is still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts or replaces the report stored at `branch`.
    ///
    /// The splice point comes from the branch index (no stream walk):
    /// an existing report's recorded byte range, or the canonical
    /// position inside the deepest existing ancestor level (report
    /// before child branches, branches sorted by `(name, id)` — see
    /// `BranchIndex::insert_point`). After the splice the index
    /// shifts affected ranges by the byte delta and records any levels
    /// the fragment created. The report XML is spliced verbatim (it was
    /// validated upstream by the envelope decode), so the remaining
    /// cost is the rebuild of the document string.
    pub fn update(&mut self, branch: &BranchId, report_xml: &str) -> Result<(), CacheError> {
        let hierarchy: PathKey = branch
            .hierarchy()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        let splice = match self.index.reports.get(&hierarchy) {
            Some(&(start, end)) => Splice::Replace { start, end },
            None => {
                let (at, missing_from) = self.index.insert_point(&hierarchy);
                Splice::Insert { at, missing_from }
            }
        };
        #[cfg(debug_assertions)]
        if self.doc.len() <= DEBUG_ORACLE_MAX_DOC {
            let refs: Vec<(&str, &str)> =
                hierarchy.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
            debug_assert_eq!(
                splice,
                Self::find_splice(&self.doc, &refs)?,
                "indexed splice point diverged from the streaming oracle"
            );
        }
        match splice {
            Splice::Replace { start, end } => {
                let mut out = String::with_capacity(self.doc.len() + report_xml.len());
                out.push_str(&self.doc[..start]);
                out.push_str(report_xml);
                out.push_str(&self.doc[end..]);
                self.doc = out;
                self.index.splice_shift(start, end, report_xml.len());
            }
            Splice::Insert { at, missing_from } => {
                let mut fragment = String::with_capacity(report_xml.len() + 128);
                let mut open_lens = Vec::with_capacity(hierarchy.len() - missing_from);
                for (name, id) in &hierarchy[missing_from..] {
                    let before = fragment.len();
                    fragment.push_str("<branch name=\"");
                    fragment.push_str(&escape_attr(name));
                    fragment.push_str("\" id=\"");
                    fragment.push_str(&escape_attr(id));
                    fragment.push_str("\">");
                    open_lens.push(fragment.len() - before);
                }
                let report_at = fragment.len();
                fragment.push_str(report_xml);
                for _ in &hierarchy[missing_from..] {
                    fragment.push_str(BRANCH_CLOSE);
                }
                let mut out = String::with_capacity(self.doc.len() + fragment.len());
                out.push_str(&self.doc[..at]);
                out.push_str(&fragment);
                out.push_str(&self.doc[at..]);
                self.doc = out;
                self.index.splice_shift(at, at, fragment.len());
                // Record the levels the fragment created: level j skips
                // j open tags at the front and j close tags at the back.
                let mut open_prefix = 0usize;
                for (j, open_len) in open_lens.iter().enumerate() {
                    let start = at + open_prefix;
                    let end = at + fragment.len() - BRANCH_CLOSE.len() * j;
                    self.index
                        .branches
                        .insert(hierarchy[..missing_from + j + 1].to_vec(), (start, end));
                    open_prefix += open_len;
                }
                self.index
                    .reports
                    .insert(hierarchy, (at + report_at, at + report_at + report_xml.len()));
            }
        }
        self.generation += 1;
        self.debug_check_index();
        Ok(())
    }

    /// Debug-build invariant: the incrementally maintained index must
    /// equal a from-scratch rebuild after every mutation.
    fn debug_check_index(&self) {
        #[cfg(debug_assertions)]
        if self.doc.len() <= DEBUG_ORACLE_MAX_DOC {
            debug_assert_eq!(
                self.index,
                BranchIndex::build(&self.doc).expect("mutated cache stays well-formed"),
                "persistent branch index diverged from a fresh rebuild"
            );
        }
    }

    /// Inserts or replaces `items.len()` reports in one pass.
    ///
    /// This is the §5.2.2 amortization: [`XmlCache::update`] streams
    /// the whole document once *per report*, so a burst of N arrivals
    /// costs O(N × cache). `insert_batch` streams the document exactly
    /// once to index every splice point, then rebuilds the string
    /// exactly once — O(N + cache) — while producing a document
    /// **byte-identical** to applying the same updates sequentially
    /// (the `batch_matches_sequential` property test holds this
    /// equivalence).
    ///
    /// Duplicate branches within one batch behave like sequential
    /// updates: the report lands where the first occurrence would have
    /// inserted it, holding the content of the last occurrence. On
    /// error (a corrupt document) the cache is left untouched.
    pub fn insert_batch(&mut self, items: &[(&BranchId, &str)]) -> Result<(), CacheError> {
        match items {
            [] => return Ok(()),
            [(branch, xml)] => return self.update(branch, xml),
            _ => {}
        }
        // Dedup: position follows the first occurrence of a branch,
        // content follows the last (sequential update semantics).
        let mut order: Vec<Vec<(String, String)>> = Vec::with_capacity(items.len());
        let mut content: BTreeMap<Vec<(String, String)>, &str> = BTreeMap::new();
        for (branch, xml) in items {
            let h: Vec<(String, String)> = branch
                .hierarchy()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect();
            if !content.contains_key(&h) {
                order.push(h.clone());
            }
            content.insert(h, xml);
        }
        // Every splice point comes straight from the persistent index
        // (the pre-batch document state, exactly what a fresh stream
        // walk used to gather).
        let mut patches: Vec<(usize, Patch<'_>)> = Vec::new();
        let mut inserts: BTreeMap<usize, (PathKey, InsertNode)> = BTreeMap::new();
        for h in order {
            let xml = content[&h];
            if let Some(&(start, end)) = self.index.reports.get(&h) {
                patches.push((start, Patch::Replace { end, xml, path: h }));
                continue;
            }
            // Canonical position inside the deepest existing level.
            let (at, depth) = self.index.insert_point(&h);
            inserts
                .entry(at)
                .or_insert_with(|| (h[..depth].to_vec(), InsertNode::default()))
                .1
                .add(&h[depth..], xml);
        }
        let mut grown = 0usize;
        for (at, (parent, node)) in inserts {
            grown += node.rendered_len();
            patches.push((at, Patch::Insert(parent, node)));
        }
        // Replace ranges are disjoint report subtrees and insert
        // points sit on close tags outside them, so ordering by offset
        // yields one well-formed left-to-right rebuild.
        patches.sort_by_key(|(offset, _)| *offset);
        let mut out = String::with_capacity(self.doc.len() + grown);
        let mut cursor = 0usize;
        // Bookkeeping for the incremental index maintenance: the byte
        // delta of each applied patch (keyed by its old end offset, in
        // document order), the new ranges of replaced reports, and the
        // rendered fragments to index afterwards.
        let mut applied: Vec<(usize, i64)> = Vec::new();
        let mut targets: Vec<(PathKey, (usize, usize))> = Vec::new();
        let mut fresh: Vec<(PathKey, usize, InsertNode)> = Vec::new();
        for (offset, patch) in patches {
            out.push_str(&self.doc[cursor..offset]);
            match patch {
                Patch::Replace { end, xml, path } => {
                    let new_start = out.len();
                    out.push_str(xml);
                    applied.push((end, xml.len() as i64 - (end - offset) as i64));
                    targets.push((path, (new_start, new_start + xml.len())));
                    cursor = end;
                }
                Patch::Insert(parent, node) => {
                    let new_start = out.len();
                    node.render(&mut out);
                    applied.push((offset, (out.len() - new_start) as i64));
                    fresh.push((parent, new_start, node));
                    cursor = offset;
                }
            }
        }
        out.push_str(&self.doc[cursor..]);
        self.doc = out;
        self.index.apply_batch(applied, targets, fresh);
        self.generation += 1;
        self.debug_check_index();
        Ok(())
    }

    /// Streams to the point where `hierarchy` lives (or should live).
    /// Retained as the debug oracle for the indexed splice lookup in
    /// [`XmlCache::update`].
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn find_splice(doc: &str, hierarchy: &[(&str, &str)]) -> Result<Splice, CacheError> {
        let mut tok = Tokenizer::new(doc);
        // Consume the root start tag.
        match tok.next_token()? {
            Some(Token::StartTag { name, .. }) if name == "incaCache" => {}
            other => return Err(CacheError::Corrupt(format!("bad root: {other:?}"))),
        }
        let mut matched = 0usize;
        loop {
            let pre = tok.offset();
            let token = tok
                .next_token()?
                .ok_or_else(|| CacheError::Corrupt("unexpected end of cache".into()))?;
            match token {
                Token::StartTag { name: "branch", ref attrs, self_closing } => {
                    let pair = (attr(attrs, "name"), attr(attrs, "id"));
                    match hierarchy.get(matched).copied() {
                        // Looking for a report at the current level: it
                        // belongs *before* every child branch.
                        None => return Ok(Splice::Insert { at: pre, missing_from: matched }),
                        Some((n, v)) if !self_closing && pair == (Some(n), Some(v)) => {
                            matched += 1;
                        }
                        Some((n, v)) => {
                            // Siblings sit in canonical `(name, id)`
                            // order; the first one sorting after the
                            // target is the insertion point.
                            if let (Some(cn), Some(cv)) = pair {
                                if (cn, cv) > (n, v) {
                                    return Ok(Splice::Insert {
                                        at: pre,
                                        missing_from: matched,
                                    });
                                }
                            }
                            if !self_closing {
                                skip_subtree(&mut tok, "branch")?;
                            }
                        }
                    }
                }
                Token::StartTag { name: "incaReport", self_closing, .. } => {
                    if matched == hierarchy.len() {
                        let end = if self_closing {
                            tok.offset()
                        } else {
                            skip_subtree(&mut tok, "incaReport")?
                        };
                        return Ok(Splice::Replace { start: pre, end });
                    }
                    if !self_closing {
                        skip_subtree(&mut tok, "incaReport")?;
                    }
                }
                Token::EndTag { name: "branch" } => {
                    // The level we were inside closed without the next
                    // target component: insert just before this close.
                    return Ok(Splice::Insert { at: pre, missing_from: matched });
                }
                Token::EndTag { name: "incaCache" } => {
                    return Ok(Splice::Insert { at: pre, missing_from: matched });
                }
                Token::StartTag { self_closing, name, .. } => {
                    // Unknown element (future cache extensions): skip.
                    if !self_closing {
                        skip_subtree(&mut tok, name)?;
                    }
                }
                _ => {}
            }
        }
    }

    /// Returns the raw subtree for the deepest level of `query`
    /// (general-first hierarchy from a suffix query), or `None` when
    /// the branch does not exist.
    ///
    /// A full branch identifier yields `<branch …><incaReport>…` for a
    /// single report; a shorter (suffix) query yields the containing
    /// level with every report below it — "this can either be a single
    /// report, a set of related reports, or a specific portion of a
    /// report" (§3.2.3).
    ///
    /// O(log cache): one index lookup, one slice copy. The matched
    /// level is exactly the branch element at the query's path, so the
    /// result is byte-identical to [`XmlCache::scan_subtree`] — the
    /// property tests hold the two together.
    pub fn subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let path: PathKey = query
            .hierarchy()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        Ok(self.index.branches.get(&path).map(|&(start, end)| self.doc[start..end].to_string()))
    }

    /// The full-scan twin of [`XmlCache::subtree`]: streams the whole
    /// document to find the queried level. Kept as the debug oracle —
    /// O(cache), trust it over the index when they disagree.
    pub fn scan_subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let hierarchy: Vec<(&str, &str)> = query.hierarchy().collect();
        let mut tok = Tokenizer::new(&self.doc);
        match tok.next_token()? {
            Some(Token::StartTag { name, .. }) if name == "incaCache" => {}
            other => return Err(CacheError::Corrupt(format!("bad root: {other:?}"))),
        }
        let mut matched = 0usize;
        loop {
            let pre = tok.offset();
            let token = match tok.next_token()? {
                Some(t) => t,
                None => return Ok(None),
            };
            match token {
                Token::StartTag { name: "branch", ref attrs, self_closing } => {
                    let pair = (attr(attrs, "name"), attr(attrs, "id"));
                    let want = hierarchy.get(matched).copied();
                    if !self_closing
                        && want.map_or(false, |(n, v)| pair == (Some(n), Some(v)))
                    {
                        matched += 1;
                        if matched == hierarchy.len() {
                            let end = skip_subtree(&mut tok, "branch")?;
                            return Ok(Some(self.doc[pre..end].to_string()));
                        }
                    } else if !self_closing {
                        skip_subtree(&mut tok, "branch")?;
                    }
                }
                Token::StartTag { name, self_closing, .. } => {
                    if !self_closing {
                        skip_subtree(&mut tok, name)?;
                    }
                }
                Token::EndTag { name: "branch" } | Token::EndTag { name: "incaCache" } => {
                    // Either a matched level closed without the target
                    // (ids are unique per level, so it cannot exist
                    // elsewhere) or the document ended: not found.
                    return Ok(None);
                }
                _ => {}
            }
        }
    }

    /// Collects `(branch, report_xml)` pairs whose branch matches the
    /// suffix `query` (or all reports when `query` is `None`). Used by
    /// data consumers. The `visit_reports` walk with every visit
    /// copied out — byte-identical to [`XmlCache::scan_reports`].
    pub fn reports(&self, query: Option<&BranchId>) -> Result<Vec<(BranchId, String)>, CacheError> {
        let mut out = Vec::new();
        self.visit_reports(query, &mut |path, xml| {
            out.push((branch_of(path)?, xml.to_string()));
            Ok(())
        })?;
        Ok(out)
    }

    /// Calls `visit(path, report_xml)` for every report whose branch
    /// matches the suffix `query` (all reports when `None`), in
    /// document order and without copying: `path` is the branch as
    /// general-first `(name, id)` pairs, `report_xml` a slice of the
    /// document. The first error a visit returns ends the walk.
    ///
    /// O(result log cache): a suffix query is a prefix of the
    /// general-first index keys, so one `BTreeMap` range scan finds
    /// every match; results are then ordered by byte offset, which is
    /// document order.
    pub(crate) fn visit_reports<'a, F>(
        &'a self,
        query: Option<&BranchId>,
        visit: &mut F,
    ) -> Result<(), CacheError>
    where
        F: FnMut(&[(&'a str, &'a str)], &'a str) -> Result<(), CacheError>,
    {
        let mut hits: Vec<(&PathKey, (usize, usize))> = match query {
            None => self.index.reports.iter().map(|(k, &v)| (k, v)).collect(),
            Some(q) => {
                let prefix: PathKey = q
                    .hierarchy()
                    .map(|(n, v)| (n.to_string(), v.to_string()))
                    .collect();
                self.index
                    .reports
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix[..]))
                    .map(|(k, &v)| (k, v))
                    .collect()
            }
        };
        hits.sort_by_key(|&(_, (start, _))| start);
        let mut path: Vec<(&str, &str)> = Vec::new();
        for (key, (start, end)) in hits {
            path.clear();
            path.extend(key.iter().map(|(n, v)| (n.as_str(), v.as_str())));
            visit(&path, &self.doc[start..end])?;
        }
        Ok(())
    }

    /// The report stored *exactly at* `branch` (no suffix matching):
    /// one index lookup, no allocation beyond the probe key. `None`
    /// when the branch holds no direct report.
    pub fn report_exact(&self, branch: &BranchId) -> Option<&str> {
        let path: PathKey = branch
            .hierarchy()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        self.index.reports.get(&path).map(|&(start, end)| &self.doc[start..end])
    }

    /// The full-scan twin of [`XmlCache::reports`]: walks the whole
    /// cache in one stream. Kept as the debug oracle — O(cache), trust
    /// it over the index when they disagree.
    pub fn scan_reports(
        &self,
        query: Option<&BranchId>,
    ) -> Result<Vec<(BranchId, String)>, CacheError> {
        let mut tok = Tokenizer::new(&self.doc);
        match tok.next_token()? {
            Some(Token::StartTag { name, .. }) if name == "incaCache" => {}
            other => return Err(CacheError::Corrupt(format!("bad root: {other:?}"))),
        }
        let mut path: Vec<(String, String)> = Vec::new();
        let mut out = Vec::new();
        loop {
            let pre = tok.offset();
            let token = match tok.next_token()? {
                Some(t) => t,
                None => break,
            };
            match token {
                Token::StartTag { name: "branch", ref attrs, self_closing } => {
                    if !self_closing {
                        match (attr(attrs, "name"), attr(attrs, "id")) {
                            (Some(n), Some(v)) => path.push((n.to_string(), v.to_string())),
                            _ => {
                                return Err(CacheError::Corrupt(
                                    "branch element missing name/id".into(),
                                ))
                            }
                        }
                    }
                }
                Token::EndTag { name: "branch" } => {
                    path.pop();
                }
                Token::StartTag { name: "incaReport", self_closing, .. } => {
                    let end = if self_closing {
                        tok.offset()
                    } else {
                        skip_subtree(&mut tok, "incaReport")?
                    };
                    // The branch id is the path reversed back to
                    // specific-first order.
                    let pairs: Vec<(String, String)> = path.iter().rev().cloned().collect();
                    let branch = BranchId::new(pairs)
                        .map_err(|e| CacheError::Corrupt(e.to_string()))?;
                    let keep = query.map_or(true, |q| branch.matches_suffix(q));
                    if keep {
                        out.push((branch, self.doc[pre..end].to_string()));
                    }
                }
                Token::EndTag { name: "incaCache" } => break,
                Token::StartTag { name, self_closing, .. } => {
                    if !self_closing {
                        skip_subtree(&mut tok, name)?;
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }
}


/// The branch identifier of a general-first walk path (identifiers
/// read specific-first).
pub(crate) fn branch_of(path: &[(&str, &str)]) -> Result<BranchId, CacheError> {
    BranchId::new(path.iter().rev().copied()).map_err(|e| CacheError::Corrupt(e.to_string()))
}

/// One splice of a batched rebuild.
enum Patch<'a> {
    /// Replace an existing `<incaReport>` (range end + new bytes + the
    /// branch path whose index entry the replacement re-points).
    Replace { end: usize, xml: &'a str, path: PathKey },
    /// Insert a merged fragment of new levels and reports at the
    /// canonical position inside the branch at the carried parent path.
    Insert(PathKey, InsertNode),
}

/// The persistent read index: the byte range of every `<branch>`
/// element (through its close tag) keyed by general-first path, the
/// byte range of the report stored directly at each path (the one
/// [`XmlCache::update`] replaces), and the offset of `</incaCache>`.
///
/// Built from scratch only by [`XmlCache::from_document`]; every
/// mutation maintains it incrementally by shifting affected ranges —
/// [`BranchIndex::splice_shift`] for a single splice,
/// [`BranchIndex::apply_batch`] for a batched rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BranchIndex {
    branches: BTreeMap<PathKey, (usize, usize)>,
    reports: BTreeMap<PathKey, (usize, usize)>,
    root_close: usize,
}

impl BranchIndex {
    fn build(doc: &str) -> Result<BranchIndex, CacheError> {
        let mut tok = Tokenizer::new(doc);
        match tok.next_token()? {
            Some(Token::StartTag { name, .. }) if name == "incaCache" => {}
            other => return Err(CacheError::Corrupt(format!("bad root: {other:?}"))),
        }
        let mut path: PathKey = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut index = BranchIndex::default();
        loop {
            let pre = tok.offset();
            let token = tok
                .next_token()?
                .ok_or_else(|| CacheError::Corrupt("unexpected end of cache".into()))?;
            match token {
                Token::StartTag { name: "branch", ref attrs, self_closing } => {
                    if !self_closing {
                        match (attr(attrs, "name"), attr(attrs, "id")) {
                            (Some(n), Some(v)) => {
                                path.push((n.to_string(), v.to_string()));
                                starts.push(pre);
                            }
                            _ => {
                                return Err(CacheError::Corrupt(
                                    "branch element missing name/id".into(),
                                ))
                            }
                        }
                    }
                }
                Token::EndTag { name: "branch" } => {
                    let start = starts
                        .pop()
                        .ok_or_else(|| CacheError::Corrupt("unbalanced </branch>".into()))?;
                    if index.branches.insert(path.clone(), (start, tok.offset())).is_some() {
                        return Err(CacheError::Corrupt(
                            "duplicate branch path (ids must be unique per level)".into(),
                        ));
                    }
                    path.pop();
                }
                Token::StartTag { name: "incaReport", self_closing, .. } => {
                    let end = if self_closing {
                        tok.offset()
                    } else {
                        skip_subtree(&mut tok, "incaReport")?
                    };
                    if index.reports.insert(path.clone(), (pre, end)).is_some() {
                        return Err(CacheError::Corrupt(
                            "duplicate report directly under one branch path".into(),
                        ));
                    }
                }
                Token::EndTag { name: "incaCache" } => {
                    index.root_close = pre;
                    return Ok(index);
                }
                Token::StartTag { name, self_closing, .. } => {
                    if !self_closing {
                        skip_subtree(&mut tok, name)?;
                    }
                }
                _ => {}
            }
        }
    }

    /// The canonical insertion point for `hierarchy`'s missing part:
    /// inside the deepest existing ancestor, positioned so siblings
    /// stay in canonical order — the level's direct report first, then
    /// child branches sorted by `(name, id)`. Returns `(byte offset,
    /// matched depth)`.
    ///
    /// Canonical placement is what makes the document a pure function
    /// of cache *content*: two caches holding the same reports render
    /// byte-identical documents no matter what order the reports
    /// arrived in — the property the delivery-chaos tests pin down.
    fn insert_point(&self, hierarchy: &[(String, String)]) -> (usize, usize) {
        let mut depth = hierarchy.len();
        while depth > 0 && !self.branches.contains_key(&hierarchy[..depth]) {
            depth -= 1;
        }
        let parent = &hierarchy[..depth];
        let child = hierarchy.get(depth).map(|(n, v)| (n.as_str(), v.as_str()));
        (self.child_insert_at(parent, child), depth)
    }

    /// Where a new direct child of the (existing) level at `parent`
    /// goes: a direct report (`child` = `None`) before every child
    /// branch; a child branch before the first existing sibling that
    /// sorts after it; either just before the level's close tag when
    /// nothing follows.
    fn child_insert_at(&self, parent: &[(String, String)], child: Option<(&str, &str)>) -> usize {
        let mut best: Option<usize> = None;
        let children = self
            .branches
            .range(parent.to_vec()..)
            .take_while(|(key, _)| key.starts_with(parent))
            .filter(|(key, _)| key.len() == parent.len() + 1);
        for (key, &(start, _)) in children {
            let (name, id) = &key[parent.len()];
            let follows = match child {
                None => true,
                Some((n, v)) => (name.as_str(), id.as_str()) > (n, v),
            };
            if follows {
                best = Some(best.map_or(start, |b| b.min(start)));
            }
        }
        best.unwrap_or_else(|| {
            if parent.is_empty() {
                self.root_close
            } else {
                self.branches[parent].1 - BRANCH_CLOSE.len()
            }
        })
    }

    /// Adjusts every entry for the replacement of old byte range
    /// `[start, end)` by `new_len` bytes (`start == end` is a pure
    /// insert). Nesting means an entry is entirely after the splice
    /// (shift both ends), contains it or *is* the replaced report
    /// (shift the end only), or is entirely before (untouched); an
    /// entry ending exactly at an insert point stays put, because the
    /// fragment lands after it.
    fn splice_shift(&mut self, start: usize, end: usize, new_len: usize) {
        let delta = new_len as i64 - (end - start) as i64;
        if delta == 0 {
            return;
        }
        let shift = |x: usize| (x as i64 + delta) as usize;
        for range in self.branches.values_mut().chain(self.reports.values_mut()) {
            if range.0 >= end {
                range.0 = shift(range.0);
                range.1 = shift(range.1);
            } else if range.1 > start {
                range.1 = shift(range.1);
            }
        }
        self.root_close = shift(self.root_close);
    }

    /// Re-coordinates the whole index after a batched rebuild.
    ///
    /// `applied` holds `(old end offset, byte delta)` per patch in
    /// document order; a start coordinate moves by the deltas of every
    /// patch ending at or before it, an end coordinate by those ending
    /// strictly before it (an insert at the coordinate itself lands
    /// after the entry). The replaced reports (`targets`) get their
    /// recorded new ranges, then the rendered fragments (`fresh`) are
    /// walked to index the levels and reports they created.
    fn apply_batch(
        &mut self,
        applied: Vec<(usize, i64)>,
        targets: Vec<(PathKey, (usize, usize))>,
        fresh: Vec<(PathKey, usize, InsertNode)>,
    ) {
        let ends: Vec<usize> = applied.iter().map(|&(end, _)| end).collect();
        let cums: Vec<i64> = applied
            .iter()
            .scan(0i64, |acc, &(_, delta)| {
                *acc += delta;
                Some(*acc)
            })
            .collect();
        let before = |count: usize| if count == 0 { 0 } else { cums[count - 1] };
        let for_start = |x: usize| before(ends.partition_point(|&e| e <= x));
        let for_end = |x: usize| before(ends.partition_point(|&e| e < x));
        for range in self.branches.values_mut().chain(self.reports.values_mut()) {
            range.0 = (range.0 as i64 + for_start(range.0)) as usize;
            range.1 = (range.1 as i64 + for_end(range.1)) as usize;
        }
        self.root_close = (self.root_close as i64 + for_start(self.root_close)) as usize;
        for (path, range) in targets {
            self.reports.insert(path, range);
        }
        for (mut path, start, node) in fresh {
            node.index_into(&mut path, start, &mut self.branches, &mut self.reports);
        }
    }
}

/// Merged fragment for every batch item inserting at one splice
/// point. Entries keep *canonical* order — a level's direct report
/// first, then child branches sorted by `(name, id)` — the same order
/// sequential updates produce now that every splice point is
/// canonical, so batch and one-at-a-time ingestion render identical
/// bytes.
#[derive(Default)]
struct InsertNode {
    entries: Vec<InsertEntry>,
}

enum InsertEntry {
    Report(String),
    Branch(String, String, InsertNode),
}

impl InsertNode {
    fn add(&mut self, rest: &[(String, String)], xml: &str) {
        match rest.split_first() {
            // The level's direct report precedes every child branch.
            None => self.entries.insert(0, InsertEntry::Report(xml.to_string())),
            Some(((n, v), tail)) => {
                for entry in &mut self.entries {
                    if let InsertEntry::Branch(en, ev, child) = entry {
                        if en == n && ev == v {
                            return child.add(tail, xml);
                        }
                    }
                }
                let mut child = InsertNode::default();
                child.add(tail, xml);
                let at = self
                    .entries
                    .iter()
                    .position(|e| match e {
                        InsertEntry::Report(_) => false,
                        InsertEntry::Branch(en, ev, _) => {
                            (en.as_str(), ev.as_str()) > (n.as_str(), v.as_str())
                        }
                    })
                    .unwrap_or(self.entries.len());
                self.entries.insert(at, InsertEntry::Branch(n.clone(), v.clone(), child));
            }
        }
    }

    fn rendered_len(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                InsertEntry::Report(xml) => xml.len(),
                // Upper bound: attr escaping can only grow the tag.
                InsertEntry::Branch(n, v, child) => {
                    64 + 2 * (n.len() + v.len()) + child.rendered_len()
                }
            })
            .sum()
    }

    fn render(&self, out: &mut String) {
        for entry in &self.entries {
            match entry {
                InsertEntry::Report(xml) => out.push_str(xml),
                InsertEntry::Branch(n, v, child) => {
                    out.push_str("<branch name=\"");
                    out.push_str(&escape_attr(n));
                    out.push_str("\" id=\"");
                    out.push_str(&escape_attr(v));
                    out.push_str("\">");
                    child.render(out);
                    out.push_str(BRANCH_CLOSE);
                }
            }
        }
    }

    /// Mirrors [`InsertNode::render`] offset-for-offset to index what
    /// the fragment created: `at` is where the fragment begins in the
    /// *new* document and `path` the branch level it rendered into.
    /// Returns the rendered byte length.
    fn index_into(
        &self,
        path: &mut PathKey,
        at: usize,
        branches: &mut BTreeMap<PathKey, (usize, usize)>,
        reports: &mut BTreeMap<PathKey, (usize, usize)>,
    ) -> usize {
        let mut offset = at;
        for entry in &self.entries {
            match entry {
                InsertEntry::Report(xml) => {
                    reports.entry(path.clone()).or_insert((offset, offset + xml.len()));
                    offset += xml.len();
                }
                InsertEntry::Branch(n, v, child) => {
                    let open = "<branch name=\"".len()
                        + escape_attr(n).len()
                        + "\" id=\"".len()
                        + escape_attr(v).len()
                        + "\">".len();
                    path.push((n.clone(), v.clone()));
                    let inner = child.index_into(path, offset + open, branches, reports);
                    let total = open + inner + BRANCH_CLOSE.len();
                    branches.insert(path.clone(), (offset, offset + total));
                    path.pop();
                    offset += total;
                }
            }
        }
        offset - at
    }
}

fn attr<'a>(attrs: &'a [inca_xml::Attribute<'a>], name: &str) -> Option<&'a str> {
    attrs.iter().find(|a| a.name == name).map(|a| a.value.as_ref())
}

/// Consumes tokens until the already-opened element `name` closes;
/// returns the byte offset just past its end tag.
fn skip_subtree(tok: &mut Tokenizer<'_>, name: &str) -> Result<usize, CacheError> {
    let mut depth = 1usize;
    loop {
        let token = tok
            .next_token()?
            .ok_or_else(|| CacheError::Corrupt(format!("<{name}> never closes")))?;
        match token {
            Token::StartTag { self_closing: false, .. } => depth += 1,
            Token::EndTag { .. } => {
                depth -= 1;
                if depth == 0 {
                    return Ok(tok.offset());
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_report::{Report, ReportBuilder, Timestamp};

    fn report(name: &str, value: &str) -> String {
        ReportBuilder::new(name, "1.0")
            .host("h")
            .gmt(Timestamp::from_secs(0))
            .body_value("v", value)
            .success()
            .unwrap()
            .to_xml()
    }

    fn branch(s: &str) -> BranchId {
        s.parse().unwrap()
    }

    #[test]
    fn empty_cache() {
        let cache = XmlCache::new();
        assert_eq!(cache.report_count(), 0);
        assert!(cache.size_bytes() > 0);
        assert_eq!(cache.subtree(&branch("vo=t")).unwrap(), None);
        assert!(cache.reports(None).unwrap().is_empty());
    }

    #[test]
    fn insert_creates_hierarchy() {
        let mut cache = XmlCache::new();
        let b = branch("reporter=version.globus,resource=tg1,site=sdsc,vo=teragrid");
        cache.update(&b, &report("version.globus", "2.4.3")).unwrap();
        assert_eq!(cache.report_count(), 1);
        let doc = cache.document();
        assert!(doc.contains(r#"<branch name="vo" id="teragrid">"#));
        assert!(doc.contains(r#"<branch name="reporter" id="version.globus">"#));
        // vo is outermost.
        assert!(
            doc.find(r#"id="teragrid""#).unwrap() < doc.find(r#"id="sdsc""#).unwrap()
        );
    }

    #[test]
    fn update_replaces_previous_copy() {
        let mut cache = XmlCache::new();
        let b = branch("reporter=version.globus,resource=tg1,site=sdsc,vo=teragrid");
        cache.update(&b, &report("version.globus", "2.4.0")).unwrap();
        let size_before = cache.size_bytes();
        cache.update(&b, &report("version.globus", "2.4.3")).unwrap();
        assert_eq!(cache.report_count(), 1, "update must replace, not append");
        assert!(cache.document().contains("2.4.3"));
        assert!(!cache.document().contains("2.4.0"));
        // Same-size reports keep the cache size steady, as §5.2.1
        // observed ("the cache size remained steady at 1.5 MB").
        assert_eq!(cache.size_bytes(), size_before);
    }

    #[test]
    fn sibling_reports_share_hierarchy_levels() {
        let mut cache = XmlCache::new();
        cache
            .update(
                &branch("reporter=a,resource=r1,site=sdsc,vo=tg"),
                &report("a", "1"),
            )
            .unwrap();
        cache
            .update(
                &branch("reporter=b,resource=r1,site=sdsc,vo=tg"),
                &report("b", "2"),
            )
            .unwrap();
        cache
            .update(
                &branch("reporter=a,resource=r2,site=sdsc,vo=tg"),
                &report("a", "3"),
            )
            .unwrap();
        assert_eq!(cache.report_count(), 3);
        // Only one vo level and one site level exist.
        assert_eq!(cache.document().matches(r#"name="vo""#).count(), 1);
        assert_eq!(cache.document().matches(r#"name="site""#).count(), 1);
        assert_eq!(cache.document().matches(r#"name="resource""#).count(), 2);
    }

    #[test]
    fn subtree_full_branch_returns_single_report() {
        let mut cache = XmlCache::new();
        let b = branch("reporter=a,resource=r1,site=sdsc,vo=tg");
        cache.update(&b, &report("a", "1")).unwrap();
        cache.update(&branch("reporter=b,resource=r1,site=sdsc,vo=tg"), &report("b", "2")).unwrap();
        let sub = cache.subtree(&b).unwrap().unwrap();
        assert!(sub.contains("<incaReport"));
        assert!(sub.contains(">1</"));
        assert!(!sub.contains(">2</"));
    }

    #[test]
    fn subtree_suffix_returns_related_reports() {
        let mut cache = XmlCache::new();
        cache.update(&branch("reporter=a,resource=r1,site=sdsc,vo=tg"), &report("a", "1")).unwrap();
        cache.update(&branch("reporter=b,resource=r2,site=sdsc,vo=tg"), &report("b", "2")).unwrap();
        cache.update(&branch("reporter=c,resource=r3,site=ncsa,vo=tg"), &report("c", "3")).unwrap();
        let sdsc = cache.subtree(&branch("site=sdsc,vo=tg")).unwrap().unwrap();
        assert!(sdsc.contains(">1</") && sdsc.contains(">2</"));
        assert!(!sdsc.contains(">3</"));
        let whole = cache.subtree(&branch("vo=tg")).unwrap().unwrap();
        assert_eq!(whole.matches("<incaReport").count(), 3);
    }

    #[test]
    fn subtree_missing_returns_none() {
        let mut cache = XmlCache::new();
        cache.update(&branch("reporter=a,resource=r1,site=sdsc,vo=tg"), &report("a", "1")).unwrap();
        assert_eq!(cache.subtree(&branch("site=psc,vo=tg")).unwrap(), None);
        assert_eq!(cache.subtree(&branch("vo=other")).unwrap(), None);
        assert_eq!(
            cache.subtree(&branch("reporter=zzz,resource=r1,site=sdsc,vo=tg")).unwrap(),
            None
        );
    }

    #[test]
    fn reports_lists_with_branches() {
        let mut cache = XmlCache::new();
        let b1 = branch("reporter=a,resource=r1,site=sdsc,vo=tg");
        let b2 = branch("reporter=b,resource=r2,site=ncsa,vo=tg");
        cache.update(&b1, &report("a", "1")).unwrap();
        cache.update(&b2, &report("b", "2")).unwrap();
        let all = cache.reports(None).unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|(b, _)| *b == b1));
        assert!(all.iter().any(|(b, _)| *b == b2));
        let sdsc_only = cache.reports(Some(&branch("site=sdsc,vo=tg"))).unwrap();
        assert_eq!(sdsc_only.len(), 1);
        assert_eq!(sdsc_only[0].0, b1);
        // Every extracted report parses.
        for (_, xml) in all {
            Report::parse(&xml).unwrap();
        }
    }

    #[test]
    fn cached_report_roundtrips_exactly() {
        let mut cache = XmlCache::new();
        let xml = report("escaping.test", "tricky < & > \"text\"");
        let b = branch("reporter=escaping.test,resource=r,site=s,vo=v");
        cache.update(&b, &xml).unwrap();
        let (_, got) = &cache.reports(Some(&b)).unwrap()[0];
        assert_eq!(*got, xml, "splice must be byte-exact");
    }

    #[test]
    fn branch_values_with_xml_specials_escaped_in_attrs() {
        let mut cache = XmlCache::new();
        let b = BranchId::new([("reporter", "a&b\"c"), ("vo", "t<g")]).unwrap();
        cache.update(&b, &report("x", "1")).unwrap();
        let all = cache.reports(None).unwrap();
        assert_eq!(all[0].0, b, "attribute escaping must roundtrip");
        // And the subtree query still finds it.
        assert!(cache.subtree(&b).unwrap().is_some());
    }

    #[test]
    fn many_updates_scale_linearly_not_quadratically_in_count() {
        // Structural check only: 200 distinct reports all present.
        let mut cache = XmlCache::new();
        for i in 0..200 {
            let b = branch(&format!("reporter=r{i},resource=m{},site=s{},vo=tg", i % 10, i % 3));
            cache.update(&b, &report(&format!("r{i}"), &i.to_string())).unwrap();
        }
        assert_eq!(cache.report_count(), 200);
        // Re-update them all; count must not grow.
        for i in 0..200 {
            let b = branch(&format!("reporter=r{i},resource=m{},site=s{},vo=tg", i % 10, i % 3));
            cache.update(&b, &report(&format!("r{i}"), "updated")).unwrap();
        }
        assert_eq!(cache.report_count(), 200);
    }

    #[test]
    fn single_component_branch() {
        let mut cache = XmlCache::new();
        let b = branch("series=depot-response");
        cache.update(&b, &report("s", "1")).unwrap();
        assert_eq!(cache.report_count(), 1);
        assert!(cache.subtree(&b).unwrap().is_some());
    }

    /// Applies `items` one `update` at a time — the reference
    /// semantics every `insert_batch` result must match byte-for-byte.
    fn sequential(items: &[(&BranchId, &str)]) -> XmlCache {
        let mut cache = XmlCache::new();
        for (b, xml) in items {
            cache.update(b, xml).unwrap();
        }
        cache
    }

    #[test]
    fn batch_empty_and_singleton() {
        let mut cache = XmlCache::new();
        cache.insert_batch(&[]).unwrap();
        assert_eq!(cache.report_count(), 0);
        let b = branch("reporter=a,site=s,vo=tg");
        let xml = report("a", "1");
        cache.insert_batch(&[(&b, xml.as_str())]).unwrap();
        assert_eq!(cache.document(), sequential(&[(&b, xml.as_str())]).document());
    }

    #[test]
    fn batch_into_empty_cache_matches_sequential() {
        let branches: Vec<BranchId> = (0..20)
            .map(|i| branch(&format!("reporter=r{i},resource=m{},site=s{},vo=tg", i % 4, i % 2)))
            .collect();
        let reports: Vec<String> = (0..20).map(|i| report(&format!("r{i}"), &i.to_string())).collect();
        let items: Vec<(&BranchId, &str)> =
            branches.iter().zip(reports.iter().map(String::as_str)).collect();
        let mut batched = XmlCache::new();
        batched.insert_batch(&items).unwrap();
        assert_eq!(batched.document(), sequential(&items).document());
        assert_eq!(batched.report_count(), 20);
    }

    #[test]
    fn batch_mixes_replaces_and_inserts() {
        // Pre-populate, then batch a mix of updates to existing
        // branches and brand-new siblings/sites.
        let seed: Vec<BranchId> = (0..10)
            .map(|i| branch(&format!("reporter=r{i},resource=m{},site=s0,vo=tg", i % 3)))
            .collect();
        let seed_reports: Vec<String> = (0..10).map(|i| report(&format!("r{i}"), "old")).collect();
        let seed_items: Vec<(&BranchId, &str)> =
            seed.iter().zip(seed_reports.iter().map(String::as_str)).collect();

        let fresh: Vec<BranchId> = vec![
            branch("reporter=r2,resource=m2,site=s0,vo=tg"), // replace
            branch("reporter=new1,resource=m0,site=s0,vo=tg"), // new reporter, old resource
            branch("reporter=new2,resource=m9,site=s0,vo=tg"), // new resource
            branch("reporter=new3,resource=m0,site=s9,vo=tg"), // new site
            branch("reporter=new4,resource=m1,site=s9,vo=tg"), // shares the new site
            branch("site=s0,vo=tg"),                           // intermediate-level report
        ];
        let fresh_reports: Vec<String> =
            (0..fresh.len()).map(|i| report(&format!("n{i}"), "new")).collect();
        let fresh_items: Vec<(&BranchId, &str)> =
            fresh.iter().zip(fresh_reports.iter().map(String::as_str)).collect();

        let mut batched = sequential(&seed_items);
        batched.insert_batch(&fresh_items).unwrap();
        let mut reference = sequential(&seed_items);
        for (b, xml) in &fresh_items {
            reference.update(b, xml).unwrap();
        }
        assert_eq!(batched.document(), reference.document());
        assert_eq!(batched.report_count(), 15);
    }

    #[test]
    fn batch_duplicate_branch_last_write_wins() {
        let b1 = branch("reporter=a,site=s,vo=tg");
        let b2 = branch("reporter=b,site=s,vo=tg");
        let (ra1, ra2, rb) = (report("a", "first"), report("a", "second"), report("b", "x"));
        let items: Vec<(&BranchId, &str)> =
            vec![(&b1, ra1.as_str()), (&b2, rb.as_str()), (&b1, ra2.as_str())];
        let mut batched = XmlCache::new();
        batched.insert_batch(&items).unwrap();
        assert_eq!(batched.document(), sequential(&items).document());
        assert_eq!(batched.report_count(), 2);
        assert!(batched.document().contains("second"));
        assert!(!batched.document().contains("first"));
    }

    #[test]
    fn batch_with_escaped_branch_values_matches_sequential() {
        let b1 = BranchId::new([("reporter", "a&b\"c"), ("vo", "t<g")]).unwrap();
        let b2 = BranchId::new([("reporter", "plain"), ("vo", "t<g")]).unwrap();
        let (r1, r2) = (report("x", "1"), report("y", "2"));
        let items: Vec<(&BranchId, &str)> = vec![(&b1, r1.as_str()), (&b2, r2.as_str())];
        let mut batched = XmlCache::new();
        batched.insert_batch(&items).unwrap();
        assert_eq!(batched.document(), sequential(&items).document());
        assert!(batched.subtree(&b1).unwrap().is_some());
        assert!(batched.subtree(&b2).unwrap().is_some());
    }

    /// Indexed reads must be byte-identical to the streaming oracle.
    fn assert_reads_match_scan(cache: &XmlCache, queries: &[BranchId]) {
        assert_eq!(
            cache.reports(None).unwrap(),
            cache.scan_reports(None).unwrap(),
            "indexed reports(None) diverged from the scan oracle"
        );
        for q in queries {
            assert_eq!(
                cache.subtree(q).unwrap(),
                cache.scan_subtree(q).unwrap(),
                "indexed subtree({q}) diverged from the scan oracle"
            );
            assert_eq!(
                cache.reports(Some(q)).unwrap(),
                cache.scan_reports(Some(q)).unwrap(),
                "indexed reports({q}) diverged from the scan oracle"
            );
        }
    }

    #[test]
    fn indexed_reads_match_scan_across_mixed_mutations() {
        let mut cache = XmlCache::new();
        let queries: Vec<BranchId> = [
            "vo=tg",
            "site=sdsc,vo=tg",
            "site=ncsa,vo=tg",
            "resource=m1,site=sdsc,vo=tg",
            "reporter=a,resource=m1,site=sdsc,vo=tg",
            "reporter=zzz,resource=m1,site=sdsc,vo=tg",
            "vo=other",
        ]
        .iter()
        .map(|s| branch(s))
        .collect();
        cache.update(&branch("reporter=a,resource=m1,site=sdsc,vo=tg"), &report("a", "1")).unwrap();
        assert_reads_match_scan(&cache, &queries);
        cache.update(&branch("reporter=b,resource=m2,site=ncsa,vo=tg"), &report("b", "2")).unwrap();
        assert_reads_match_scan(&cache, &queries);
        let (b3, b4, b5) = (
            branch("reporter=c,resource=m1,site=sdsc,vo=tg"),
            branch("reporter=a,resource=m1,site=sdsc,vo=tg"),
            branch("site=sdsc,vo=tg"),
        );
        let (r3, r4, r5) = (report("c", "3"), report("a", "longer-replacement"), report("s", "5"));
        cache
            .insert_batch(&[(&b3, r3.as_str()), (&b4, r4.as_str()), (&b5, r5.as_str())])
            .unwrap();
        assert_reads_match_scan(&cache, &queries);
        cache.update(&branch("reporter=d,resource=m9,site=psc,vo=tg"), &report("d", "6")).unwrap();
        assert_reads_match_scan(&cache, &queries);
        // a (replaced in the batch), b, c, the site-level report, d.
        assert_eq!(cache.report_count(), 5);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut cache = XmlCache::new();
        assert_eq!(cache.generation(), 0);
        let b = branch("reporter=a,site=s,vo=tg");
        cache.update(&b, &report("a", "1")).unwrap();
        assert_eq!(cache.generation(), 1);
        cache.update(&b, &report("a", "2")).unwrap();
        assert_eq!(cache.generation(), 2);
        let b2 = branch("reporter=b,site=s,vo=tg");
        let (ra, rb) = (report("a", "3"), report("b", "4"));
        cache.insert_batch(&[(&b, ra.as_str()), (&b2, rb.as_str())]).unwrap();
        assert_eq!(cache.generation(), 3, "one batch bumps the generation once");
        cache.insert_batch(&[]).unwrap();
        assert_eq!(cache.generation(), 3, "an empty batch is not a mutation");
    }

    #[test]
    fn report_exact_ignores_suffix_matches() {
        let mut cache = XmlCache::new();
        let deep = branch("reporter=a,resource=m1,site=sdsc,vo=tg");
        let mid = branch("site=sdsc,vo=tg");
        cache.update(&deep, &report("a", "deep")).unwrap();
        assert_eq!(cache.report_exact(&deep), Some(cache.reports(Some(&deep)).unwrap()[0].1.as_str()));
        // The site level contains a report below it but stores none
        // directly, so exact lookup misses where suffix matching hits.
        assert!(cache.report_exact(&mid).is_none());
        assert_eq!(cache.reports(Some(&mid)).unwrap().len(), 1);
        cache.update(&mid, &report("summary", "mid")).unwrap();
        assert!(cache.report_exact(&mid).unwrap().contains("mid"));
        assert!(cache.report_exact(&deep).unwrap().contains("deep"));
        assert!(cache.report_exact(&branch("vo=other")).is_none());
    }

    #[test]
    fn from_document_rebuilds_a_working_index() {
        let mut cache = XmlCache::new();
        for i in 0..10 {
            let b = branch(&format!("reporter=r{i},resource=m{},site=s{},vo=tg", i % 3, i % 2));
            cache.update(&b, &report(&format!("r{i}"), &i.to_string())).unwrap();
        }
        let mut reloaded = XmlCache::from_document(cache.document().to_string()).unwrap();
        assert_eq!(reloaded.report_count(), 10);
        assert_eq!(reloaded.reports(None).unwrap(), cache.reports(None).unwrap());
        // And the rebuilt index keeps working through further writes.
        reloaded.update(&branch("reporter=r0,resource=m0,site=s0,vo=tg"), &report("r0", "new")).unwrap();
        assert!(reloaded.report_exact(&branch("reporter=r0,resource=m0,site=s0,vo=tg")).unwrap().contains("new"));
    }

    #[test]
    fn from_document_rejects_duplicate_sibling_reports() {
        let dup = "<incaCache><branch name=\"vo\" id=\"tg\">\
                   <incaReport>one</incaReport><incaReport>two</incaReport>\
                   </branch></incaCache>";
        assert!(matches!(
            XmlCache::from_document(dup.to_string()),
            Err(CacheError::Corrupt(_))
        ));
        let dup_branch = "<incaCache><branch name=\"vo\" id=\"tg\"></branch>\
                          <branch name=\"vo\" id=\"tg\"></branch></incaCache>";
        assert!(matches!(
            XmlCache::from_document(dup_branch.to_string()),
            Err(CacheError::Corrupt(_))
        ));
    }

    #[test]
    fn report_at_intermediate_level_coexists_with_deeper_reports() {
        // A report stored at site level and another at reporter level
        // below the same site.
        let mut cache = XmlCache::new();
        cache.update(&branch("site=sdsc,vo=tg"), &report("site-summary", "ok")).unwrap();
        cache
            .update(&branch("reporter=a,resource=r1,site=sdsc,vo=tg"), &report("a", "1"))
            .unwrap();
        assert_eq!(cache.report_count(), 2);
        let site = cache.subtree(&branch("site=sdsc,vo=tg")).unwrap().unwrap();
        assert_eq!(site.matches("<incaReport").count(), 2);
        let deep = cache.subtree(&branch("reporter=a,resource=r1,site=sdsc,vo=tg")).unwrap();
        assert_eq!(deep.unwrap().matches("<incaReport").count(), 1);
    }
}
