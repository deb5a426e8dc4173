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
//! Figure 9 measures. Queries stream the same way.
//!
//! This is the paper's design and the byte-identity oracle for
//! [`super::rope::RopeCache`], the cache a depot runs on by default:
//! it wants to be obviously correct, not fast.

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

fn corrupt(message: &str) -> CacheError {
    CacheError::Corrupt(message.into())
}

/// Where an update must touch the document.
#[derive(Debug, PartialEq, Eq)]
enum Splice {
    /// Replace the byte range of an existing `<incaReport>`.
    Replace { start: usize, end: usize },
    /// Insert at `at`, creating hierarchy levels from `missing_from`.
    Insert { at: usize, missing_from: usize },
}

const BRANCH_CLOSE: &str = "</branch>";

/// The single-document XML cache.
#[derive(Debug, Clone)]
pub struct XmlCache {
    doc: String,
    report_count: usize,
    generation: u64,
}

/// The document alone defines cache identity; the report count is
/// derived from it and the generation is mutation bookkeeping.
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
        XmlCache { doc: "<incaCache></incaCache>".to_string(), report_count: 0, generation: 0 }
    }

    /// The full document (the "no branch identifier supplied" query of
    /// §3.2.3: "the entire contents of the cache is returned").
    pub fn document(&self) -> &str {
        &self.doc
    }

    /// Rebuilds a cache from a persisted document. The document comes
    /// from disk, so one streaming scan checks everything updates and
    /// queries rely on: the `<incaCache>` root and its close, every
    /// `<branch>` carrying `name` and `id`, balanced closes, valid
    /// branch identifiers, and canonical sibling order (a level's
    /// report first, then child branches strictly ascending by
    /// `(name, id)` — so no path and no direct report appears twice).
    /// Both caches write that order, and the streaming splice stops
    /// at the first sibling that sorts after its target, so a document
    /// in any other order (hand-edited, a self-closing `<branch/>`, or
    /// persisted before siblings were placed canonically) is refused
    /// rather than restored into a cache whose updates would duplicate
    /// branches.
    pub fn from_document(doc: String) -> Result<XmlCache, CacheError> {
        let mut report_count = 0;
        walk(&doc, &mut |path, _| {
            branch_of(path)?;
            report_count += 1;
            Ok(())
        })?;
        Ok(XmlCache { doc, report_count, generation: 0 })
    }

    /// Document size in bytes — the x-axis of Figure 9.
    pub fn size_bytes(&self) -> usize {
        self.doc.len()
    }

    /// Number of cached reports, counted as they are inserted.
    pub fn report_count(&self) -> usize {
        self.report_count
    }

    /// Monotone counter bumped by every successful mutation. Memoized
    /// query layers compare generations instead of documents to decide
    /// whether a cached result is still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts or replaces the report stored at `branch`.
    ///
    /// Streams the document to the splice point — an existing report's
    /// byte range, or the canonical position inside the deepest
    /// existing ancestor level (see `find_splice`) — and rebuilds the
    /// string around it. The report XML is spliced verbatim (it was
    /// validated upstream by the envelope decode).
    pub fn update(&mut self, branch: &BranchId, report_xml: &str) -> Result<(), CacheError> {
        self.insert_batch(&[(branch, report_xml)])
    }

    /// Inserts or replaces `items.len()` reports: sequential splices
    /// and one generation bump (none for an empty batch). A branch
    /// named twice holds its last content. On error (a corrupt
    /// document) the cache is left untouched.
    pub fn insert_batch(&mut self, items: &[(&BranchId, &str)]) -> Result<(), CacheError> {
        let Some(((branch, xml), rest)) = items.split_first() else {
            return Ok(());
        };
        let (mut doc, inserted) = spliced(&self.doc, branch, xml)?;
        let mut report_count = self.report_count + usize::from(inserted);
        for (branch, xml) in rest {
            let (next, inserted) = spliced(&doc, branch, xml)?;
            doc = next;
            report_count += usize::from(inserted);
        }
        self.doc = doc;
        self.report_count = report_count;
        self.generation += 1;
        Ok(())
    }

    /// Returns the raw subtree for the deepest level of `query`
    /// (general-first hierarchy from a suffix query), or `None` when
    /// the branch does not exist.
    ///
    /// A full branch identifier yields `<branch …><incaReport>…` for a
    /// single report; a shorter (suffix) query yields the containing
    /// level with every report below it — "this can either be a single
    /// report, a set of related reports, or a specific portion of a
    /// report" (§3.2.3). Streams until the queried level closes.
    pub fn subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let hierarchy: Vec<(&str, &str)> = query.hierarchy().collect();
        let mut tok = Tokenizer::new(&self.doc);
        expect_root(&mut tok)?;
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
                    if !self_closing && want.map_or(false, |(n, v)| pair == (Some(n), Some(v))) {
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
    /// copied out.
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
    /// document order: `path` is the branch as general-first
    /// `(name, id)` pairs, `report_xml` a slice of the document. One
    /// stream over the whole cache; a suffix query is a prefix of the
    /// general-first path. The first error a visit returns ends the
    /// walk.
    pub(crate) fn visit_reports<'a, F>(
        &'a self,
        query: Option<&BranchId>,
        visit: &mut F,
    ) -> Result<(), CacheError>
    where
        F: FnMut(&[(&str, &str)], &'a str) -> Result<(), CacheError>,
    {
        let prefix: Vec<(&str, &str)> = query.map(|q| q.hierarchy().collect()).unwrap_or_default();
        walk(&self.doc, &mut |path, xml| {
            if path.starts_with(&prefix) {
                visit(path, xml)?;
            }
            Ok(())
        })
    }

    /// The report stored *exactly at* `branch` (no suffix matching):
    /// the byte range an update of `branch` would replace. `None` when
    /// the branch holds no direct report — or the document is corrupt,
    /// which the next write or set read reports.
    pub fn report_exact(&self, branch: &BranchId) -> Option<&str> {
        let hierarchy: Vec<(&str, &str)> = branch.hierarchy().collect();
        match find_splice(&self.doc, &hierarchy) {
            Ok(Splice::Replace { start, end }) => Some(&self.doc[start..end]),
            _ => None,
        }
    }
}

/// `doc` with `report_xml` stored at `branch`, and whether that added
/// a report (`false`: it replaced one).
fn spliced(doc: &str, branch: &BranchId, report_xml: &str) -> Result<(String, bool), CacheError> {
    let hierarchy: Vec<(&str, &str)> = branch.hierarchy().collect();
    let mut out = String::with_capacity(doc.len() + report_xml.len() + 128);
    match find_splice(doc, &hierarchy)? {
        Splice::Replace { start, end } => {
            out.push_str(&doc[..start]);
            out.push_str(report_xml);
            out.push_str(&doc[end..]);
            Ok((out, false))
        }
        Splice::Insert { at, missing_from } => {
            out.push_str(&doc[..at]);
            for (name, id) in &hierarchy[missing_from..] {
                out.push_str("<branch name=\"");
                out.push_str(&escape_attr(name));
                out.push_str("\" id=\"");
                out.push_str(&escape_attr(id));
                out.push_str("\">");
            }
            out.push_str(report_xml);
            for _ in &hierarchy[missing_from..] {
                out.push_str(BRANCH_CLOSE);
            }
            out.push_str(&doc[at..]);
            Ok((out, true))
        }
    }
}

/// Streams to the point where `hierarchy` lives (or should live).
///
/// Placement is canonical — a level's direct report first, then child
/// branches sorted by `(name, id)` — which makes the document a pure
/// function of cache *content*: two caches holding the same reports
/// render byte-identical documents no matter what order the reports
/// arrived in (the property the delivery-chaos tests and the rope's
/// byte-identity rest on).
fn find_splice(doc: &str, hierarchy: &[(&str, &str)]) -> Result<Splice, CacheError> {
    let mut tok = Tokenizer::new(doc);
    expect_root(&mut tok)?;
    let mut matched = 0usize;
    loop {
        let pre = tok.offset();
        let token = tok.next_token()?.ok_or_else(|| corrupt("unexpected end of cache"))?;
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
                                return Ok(Splice::Insert { at: pre, missing_from: matched });
                            }
                        }
                        if !self_closing {
                            skip_subtree(&mut tok, "branch")?;
                        }
                    }
                }
            }
            Token::StartTag { name: "incaReport", self_closing, .. } => {
                let end =
                    if self_closing { tok.offset() } else { skip_subtree(&mut tok, "incaReport")? };
                if matched == hierarchy.len() {
                    return Ok(Splice::Replace { start: pre, end });
                }
            }
            // The level we were inside (or the whole cache) closed
            // without the next target component: insert just before
            // this close.
            Token::EndTag { name: "branch" } | Token::EndTag { name: "incaCache" } => {
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

/// One open level of a [`walk`].
#[derive(Default)]
struct Level {
    name: String,
    id: String,
    has_report: bool,
    /// The child branch closed last; the next one must sort after it.
    last_child: Option<(String, String)>,
}

/// Streams the whole document, calling `visit(path, report_xml)` for
/// every report in document order (`path` general-first), and fails on
/// anything [`XmlCache::from_document`] promises to reject.
fn walk<'a, F>(doc: &'a str, visit: &mut F) -> Result<(), CacheError>
where
    F: FnMut(&[(&str, &str)], &'a str) -> Result<(), CacheError>,
{
    let mut tok = Tokenizer::new(doc);
    expect_root(&mut tok)?;
    let mut open = vec![Level::default()];
    loop {
        let pre = tok.offset();
        let token = tok.next_token()?.ok_or_else(|| corrupt("unexpected end of cache"))?;
        let level = open.last_mut().expect("the root level never pops");
        match token {
            Token::StartTag { name: "branch", ref attrs, self_closing } => {
                let (Some(name), Some(id)) = (attr(attrs, "name"), attr(attrs, "id")) else {
                    return Err(corrupt("branch element missing name/id"));
                };
                if self_closing {
                    return Err(corrupt("empty <branch/> element"));
                }
                if let Some((n, v)) = &level.last_child {
                    match (n.as_str(), v.as_str()).cmp(&(name, id)) {
                        std::cmp::Ordering::Less => {}
                        std::cmp::Ordering::Equal => {
                            return Err(corrupt(
                                "duplicate branch path (ids must be unique per level)",
                            ))
                        }
                        std::cmp::Ordering::Greater => {
                            return Err(corrupt("sibling branches out of canonical order"))
                        }
                    }
                }
                open.push(Level { name: name.into(), id: id.into(), ..Level::default() });
            }
            Token::EndTag { name: "branch" } => {
                let closed = open.pop().expect("the root level never pops");
                let parent = open.last_mut().ok_or_else(|| corrupt("unbalanced </branch>"))?;
                parent.last_child = Some((closed.name, closed.id));
            }
            Token::StartTag { name: "incaReport", self_closing, .. } => {
                if level.has_report {
                    return Err(corrupt("duplicate report directly under one branch path"));
                }
                if level.last_child.is_some() {
                    return Err(corrupt("report after the child branches of its level"));
                }
                level.has_report = true;
                let end =
                    if self_closing { tok.offset() } else { skip_subtree(&mut tok, "incaReport")? };
                let path: Vec<(&str, &str)> =
                    open[1..].iter().map(|l| (l.name.as_str(), l.id.as_str())).collect();
                visit(&path, &doc[pre..end])?;
            }
            Token::EndTag { name: "incaCache" } => {
                return if open.len() == 1 { Ok(()) } else { Err(corrupt("unclosed <branch>")) };
            }
            Token::StartTag { name, self_closing, .. } => {
                // Unknown element (future cache extensions): skip.
                if !self_closing {
                    skip_subtree(&mut tok, name)?;
                }
            }
            _ => {}
        }
    }
}

/// The branch identifier of a general-first walk path (identifiers
/// read specific-first).
pub(crate) fn branch_of(path: &[(&str, &str)]) -> Result<BranchId, CacheError> {
    BranchId::new(path.iter().rev().copied()).map_err(|e| CacheError::Corrupt(e.to_string()))
}

/// Consumes the `<incaCache>` start tag.
fn expect_root(tok: &mut Tokenizer<'_>) -> Result<(), CacheError> {
    match tok.next_token()? {
        Some(Token::StartTag { name: "incaCache", self_closing: false, .. }) => Ok(()),
        other => Err(CacheError::Corrupt(format!("bad root: {other:?}"))),
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

    #[test]
    fn batch_is_sequential_updates_with_last_write_winning() {
        let b1 = branch("reporter=a,site=s,vo=tg");
        let b2 = branch("reporter=b,site=s,vo=tg");
        let (ra1, ra2, rb) = (report("a", "first"), report("a", "second"), report("b", "x"));
        let items: Vec<(&BranchId, &str)> =
            vec![(&b1, ra1.as_str()), (&b2, rb.as_str()), (&b1, ra2.as_str())];
        let mut batched = XmlCache::new();
        batched.insert_batch(&items).unwrap();
        let mut sequential = XmlCache::new();
        for (b, xml) in &items {
            sequential.update(b, xml).unwrap();
        }
        assert_eq!(batched.document(), sequential.document());
        assert_eq!(batched.report_count(), 2);
        assert!(batched.document().contains("second"));
        assert!(!batched.document().contains("first"));
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
    fn from_document_restores_a_working_cache() {
        let mut cache = XmlCache::new();
        for i in 0..10 {
            let b = branch(&format!("reporter=r{i},resource=m{},site=s{},vo=tg", i % 3, i % 2));
            cache.update(&b, &report(&format!("r{i}"), &i.to_string())).unwrap();
        }
        let mut reloaded = XmlCache::from_document(cache.document().to_string()).unwrap();
        assert_eq!(reloaded.report_count(), 10);
        assert_eq!(reloaded.reports(None).unwrap(), cache.reports(None).unwrap());
        // And the restored cache keeps working through further writes.
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
    fn from_document_rejects_malformed_documents() {
        let cases = [
            ("wrong root", "<notACache></notACache>"),
            ("no root close", "<incaCache><branch name=\"vo\" id=\"tg\"></branch>"),
            ("branch without id", "<incaCache><branch name=\"vo\"></branch></incaCache>"),
            ("branch without name", "<incaCache><branch id=\"tg\"></branch></incaCache>"),
            ("empty branch element", "<incaCache><branch name=\"vo\" id=\"tg\"/></incaCache>"),
            ("unbalanced close", "<incaCache></branch></incaCache>"),
            ("unclosed branch", "<incaCache><branch name=\"vo\" id=\"tg\"></incaCache>"),
            ("report at the root", "<incaCache><incaReport/></incaCache>"),
            (
                "invalid branch identifier",
                "<incaCache><branch name=\"vo\" id=\"a,b\"><incaReport/></branch></incaCache>",
            ),
            ("report never closes", "<incaCache><branch name=\"vo\" id=\"tg\"><incaReport>"),
            (
                "siblings out of canonical order",
                "<incaCache><branch name=\"vo\" id=\"b\"></branch>\
                 <branch name=\"vo\" id=\"a\"></branch></incaCache>",
            ),
            (
                "report after a child branch",
                "<incaCache><branch name=\"vo\" id=\"tg\"><branch name=\"site\" id=\"s\">\
                 </branch><incaReport/></branch></incaCache>",
            ),
        ];
        for (what, doc) in cases {
            assert!(
                matches!(XmlCache::from_document(doc.to_string()), Err(CacheError::Corrupt(_))),
                "{what} must be rejected"
            );
        }
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
