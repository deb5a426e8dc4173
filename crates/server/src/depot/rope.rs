//! The O(report) write path: an arena-backed rope over the VO document.
//!
//! [`super::cache::XmlCache`] deliberately reproduces §5.2.2: the cache
//! is one contiguous XML string, so every insert and every query
//! streams bytes proportional to the whole cache (Figure 9's growth
//! curve). This module is the cache a depot runs on by default:
//! O(report) writes and O(result) reads. The splice implementation
//! stays beside it as the paper's design and the byte-identity oracle;
//! [`super::depot::CacheBackend`] names the two.
//!
//! ## Representation
//!
//! * **Arena** — one append-only `String`. Report bytes and
//!   pre-rendered `<branch name=… id=…>` open tags are appended once
//!   and never moved; pieces of the document are `(start, end)` ranges
//!   into it. Replaced reports leave their old bytes behind as garbage
//!   ([`RopeCache::arena_bytes`] vs [`RopeCache::size_bytes`] tracks
//!   the ratio).
//! * **Tree** — branch levels keyed by raw `(name, id)` in a
//!   `BTreeMap`, which *is* the canonical sibling order the splice
//!   cache maintains (PR 5: at every level the level's direct report
//!   precedes child branches; branches sort by `(name, id)`). Because
//!   the canonical document is a pure function of cache content, an
//!   in-order walk of this tree reproduces the splice document
//!   byte-for-byte — no piece offsets need shifting, ever.
//!
//! An insert is a tree walk plus an arena append: O(report + depth ·
//! log fanout), independent of cache size. [`RopeCache::document`]
//! materializes the contiguous string only on demand and caches it per
//! [`RopeCache::generation`], so repeated reads between mutations cost
//! one `Arc` clone — the same generation the depot's `QueryMemo` keys
//! its entries by.

use std::collections::BTreeMap;
use std::sync::Arc;

use inca_report::BranchId;
use inca_xml::escape::escape_attr;
use parking_lot::Mutex;

use super::cache::{branch_of, CacheError, XmlCache};

const ROOT_OPEN: &str = "<incaCache>";
const ROOT_CLOSE: &str = "</incaCache>";
const BRANCH_CLOSE: &str = "</branch>";

/// Arenas smaller than this are never compacted — the garbage is not
/// worth a rebuild pass.
pub const COMPACT_MIN_ARENA_BYTES: usize = 256 * 1024;

/// Garbage fraction of the arena (`garbage_bytes / arena_bytes`) above
/// which [`RopeCache::maybe_compact`] rebuilds.
pub const COMPACT_GARBAGE_RATIO: f64 = 0.5;

/// A byte range into the arena.
type Span = (usize, usize);

/// One branch level. The open tag is rendered (escaped) into the arena
/// when the level is created; the close tag is a shared constant.
#[derive(Debug, Default)]
struct Node {
    /// Arena range of the rendered `<branch name=… id=…>` open tag.
    /// `None` only for the synthetic root (`<incaCache>`).
    open: Option<Span>,
    /// Arena range of this level's direct report, if any.
    report: Option<Span>,
    /// Child levels in canonical `(name, id)` order.
    children: BTreeMap<(String, String), Node>,
}

/// Arena-backed rope representation of the depot cache.
///
/// Mirrors the [`XmlCache`] API (`update`, `insert_batch`, `subtree`,
/// `reports`, `report_exact`, `from_document`, `generation`) with the
/// same semantics — including generation-bump behaviour, batch dedup
/// (last content wins) and canonical document order — but with O(report)
/// writes. `document()` returns an `Arc<String>` because the string is
/// materialized lazily and shared between readers at the same
/// generation.
#[derive(Debug)]
pub struct RopeCache {
    arena: String,
    root: Node,
    generation: u64,
    /// Length of the materialized document — maintained incrementally
    /// so `size_bytes` is O(1) without materializing.
    live_bytes: usize,
    /// Arena bytes still referenced by some span — the rest is garbage
    /// left behind by replaced reports, reclaimable by [`Self::compact`].
    live_arena: usize,
    report_count: usize,
    /// `(generation, document)` of the last materialization. Interior
    /// mutability: readers holding a shared lock still warm the cache.
    doc_cache: Mutex<Option<(u64, Arc<String>)>>,
}

impl Default for RopeCache {
    fn default() -> Self {
        RopeCache::new()
    }
}

impl PartialEq for RopeCache {
    fn eq(&self, other: &Self) -> bool {
        self.document() == other.document()
    }
}

impl RopeCache {
    /// An empty cache.
    pub fn new() -> RopeCache {
        RopeCache {
            arena: String::new(),
            root: Node::default(),
            generation: 0,
            live_bytes: ROOT_OPEN.len() + ROOT_CLOSE.len(),
            live_arena: 0,
            report_count: 0,
            doc_cache: Mutex::new(None),
        }
    }

    /// Rebuilds a rope from a persisted document.
    ///
    /// Validation and scanning are delegated to the splice oracle
    /// (`XmlCache::from_document` — well-formedness, branch-id checks,
    /// canonical order); the scanned reports are then re-inserted on
    /// the O(report) path. O(document) at load time, exactly like the
    /// splice cache.
    pub fn from_document(doc: String) -> Result<RopeCache, CacheError> {
        let oracle = XmlCache::from_document(doc)?;
        let mut rope = RopeCache::new();
        for (branch, xml) in oracle.reports(None)? {
            rope.insert(&branch, &xml);
        }
        rope.generation = 0;
        debug_assert_eq!(*rope.document(), *oracle.document());
        Ok(rope)
    }

    /// Monotone counter bumped by every successful mutation — same
    /// contract as [`XmlCache::generation`], and the key under which
    /// both `document()` and the depot's `QueryMemo` cache results.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Materialized document length in bytes, maintained incrementally
    /// (O(1), no materialization).
    pub fn size_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Total arena bytes, including garbage left by replaced reports.
    /// `arena_bytes - (size_bytes - root wrapper)` is reclaimable.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Number of cached reports, O(1).
    pub fn report_count(&self) -> usize {
        self.report_count
    }

    /// Inserts or replaces the report stored at `branch`.
    ///
    /// One tree walk creating missing levels (each open tag rendered
    /// into the arena once) plus one arena append for the report bytes:
    /// O(report + depth · log fanout), independent of cache size.
    pub fn update(&mut self, branch: &BranchId, report_xml: &str) -> Result<(), CacheError> {
        self.insert(branch, report_xml);
        self.generation += 1;
        Ok(())
    }

    /// Inserts or replaces `items.len()` reports with one generation
    /// bump (none for an empty batch) — the same observable semantics
    /// as [`XmlCache::insert_batch`], including duplicate handling
    /// (last content wins).
    pub fn insert_batch(&mut self, items: &[(&BranchId, &str)]) -> Result<(), CacheError> {
        if items.is_empty() {
            return Ok(());
        }
        for (branch, xml) in items {
            self.insert(branch, xml);
        }
        self.generation += 1;
        Ok(())
    }

    fn insert(&mut self, branch: &BranchId, report_xml: &str) {
        let arena = &mut self.arena;
        let live_bytes = &mut self.live_bytes;
        let live_arena = &mut self.live_arena;
        let mut node = &mut self.root;
        for (name, id) in branch.hierarchy() {
            node = node.children.entry((name.to_string(), id.to_string())).or_insert_with(|| {
                let start = arena.len();
                arena.push_str("<branch name=\"");
                arena.push_str(&escape_attr(name));
                arena.push_str("\" id=\"");
                arena.push_str(&escape_attr(id));
                arena.push_str("\">");
                *live_bytes += (arena.len() - start) + BRANCH_CLOSE.len();
                *live_arena += arena.len() - start;
                Node { open: Some((start, arena.len())), ..Node::default() }
            });
        }
        let start = arena.len();
        arena.push_str(report_xml);
        *live_arena += report_xml.len();
        match node.report.replace((start, arena.len())) {
            Some((old_start, old_end)) => {
                *live_bytes -= old_end - old_start;
                *live_bytes += report_xml.len();
                *live_arena -= old_end - old_start;
            }
            None => {
                *live_bytes += report_xml.len();
                self.report_count += 1;
            }
        }
    }

    /// Arena bytes no longer referenced by any span — the residue of
    /// replaced reports, reclaimable by [`Self::compact`]. O(1).
    pub fn garbage_bytes(&self) -> usize {
        self.arena.len() - self.live_arena
    }

    /// Rebuilds the arena with only live spans, dropping all garbage.
    ///
    /// One canonical tree walk copies each referenced range into a
    /// fresh arena and rewrites the span in place — O(live bytes),
    /// independent of how much garbage accrued. The document is
    /// untouched (same bytes, same generation), so the materialization
    /// cache and every `QueryMemo` entry keyed on the generation stay
    /// valid.
    pub fn compact(&mut self) {
        let old = std::mem::take(&mut self.arena);
        let mut fresh = String::with_capacity(self.live_arena);
        Self::compact_node(&mut self.root, &old, &mut fresh);
        debug_assert_eq!(fresh.len(), self.live_arena, "live_arena drifted from spans");
        self.arena = fresh;
    }

    fn compact_node(node: &mut Node, old: &str, fresh: &mut String) {
        if let Some(span) = node.open.as_mut() {
            *span = copy_span(*span, old, fresh);
        }
        if let Some(span) = node.report.as_mut() {
            *span = copy_span(*span, old, fresh);
        }
        for child in node.children.values_mut() {
            Self::compact_node(child, old, fresh);
        }
    }

    /// Compacts when the garbage ratio crosses
    /// [`COMPACT_GARBAGE_RATIO`] on an arena of at least
    /// [`COMPACT_MIN_ARENA_BYTES`]; returns whether a rebuild ran. The
    /// depot calls this after every ingest, which bounds arena overhead
    /// at ~2× the live document while keeping rebuilds rare (each one
    /// must re-accumulate half an arena of garbage to trigger the
    /// next).
    pub fn maybe_compact(&mut self) -> bool {
        if self.arena.len() < COMPACT_MIN_ARENA_BYTES {
            return false;
        }
        if (self.garbage_bytes() as f64) < COMPACT_GARBAGE_RATIO * self.arena.len() as f64 {
            return false;
        }
        self.compact();
        true
    }

    /// The full document, materialized on demand and cached until the
    /// next mutation. Readers at the same generation share one
    /// allocation (`Arc` clone).
    pub fn document(&self) -> Arc<String> {
        let mut cached = self.doc_cache.lock();
        if let Some((generation, doc)) = cached.as_ref() {
            if *generation == self.generation {
                return Arc::clone(doc);
            }
        }
        let mut out = String::with_capacity(self.live_bytes);
        out.push_str(ROOT_OPEN);
        self.render(&self.root, &mut out);
        out.push_str(ROOT_CLOSE);
        debug_assert_eq!(out.len(), self.live_bytes, "size_bytes drifted from the document");
        let doc = Arc::new(out);
        *cached = Some((self.generation, Arc::clone(&doc)));
        doc
    }

    /// Canonical in-order render of a node's *contents* (report, then
    /// children wrapped in their tags). The caller supplies the
    /// wrapping open/close tags.
    fn render(&self, node: &Node, out: &mut String) {
        if let Some((start, end)) = node.report {
            out.push_str(&self.arena[start..end]);
        }
        for child in node.children.values() {
            let (start, end) = child.open.expect("non-root nodes carry an open tag");
            out.push_str(&self.arena[start..end]);
            self.render(child, out);
            out.push_str(BRANCH_CLOSE);
        }
    }

    fn node_at(&self, branch: &BranchId) -> Option<&Node> {
        let mut node = &self.root;
        for (name, id) in branch.hierarchy() {
            node = node.children.get(&(name.to_string(), id.to_string()))?;
        }
        Some(node)
    }

    /// The sub-document rooted at the branch level addressed by
    /// `query`, or `None` when the level does not exist. Byte-identical
    /// to [`XmlCache::subtree`]: the branch element including its own
    /// open/close tags. O(result).
    pub fn subtree(&self, query: &BranchId) -> Result<Option<String>, CacheError> {
        let node = match self.node_at(query) {
            Some(n) => n,
            None => return Ok(None),
        };
        let (start, end) = match node.open {
            Some(span) => span,
            // An empty query addresses the synthetic root, which is
            // not a branch level on the splice cache either.
            None => return Ok(None),
        };
        let mut out = String::new();
        out.push_str(&self.arena[start..end]);
        self.render(node, &mut out);
        out.push_str(BRANCH_CLOSE);
        Ok(Some(out))
    }

    /// Collects `(branch, report_xml)` pairs under the level addressed
    /// by `query` (all reports when `None`), in document order —
    /// byte-identical to [`XmlCache::reports`]: the `visit_reports`
    /// walk with every visit copied out.
    pub fn reports(&self, query: Option<&BranchId>) -> Result<Vec<(BranchId, String)>, CacheError> {
        let mut out = Vec::new();
        self.visit_reports(query, &mut |path, xml| {
            out.push((branch_of(path)?, xml.to_string()));
            Ok(())
        })?;
        Ok(out)
    }

    /// Calls `visit(path, report_xml)` for every report under the level
    /// addressed by `query` (all reports when `None`) without copying
    /// anything: `path` is the report's branch as general-first
    /// `(name, id)` pairs and `report_xml` an arena slice. Document
    /// order falls out of the canonical tree walk: a level's direct
    /// report precedes its children, children visit in `(name, id)`
    /// order. The first error a visit returns ends the walk.
    pub(crate) fn visit_reports<'a, F>(
        &'a self,
        query: Option<&'a BranchId>,
        visit: &mut F,
    ) -> Result<(), CacheError>
    where
        F: FnMut(&[(&'a str, &'a str)], &'a str) -> Result<(), CacheError>,
    {
        let mut path: Vec<(&str, &str)> = Vec::new();
        let node = match query {
            None => &self.root,
            Some(q) => {
                path.extend(q.hierarchy());
                match self.node_at(q) {
                    Some(n) => n,
                    None => return Ok(()),
                }
            }
        };
        self.visit_node(node, &mut path, visit)
    }

    fn visit_node<'a, F>(
        &'a self,
        node: &'a Node,
        path: &mut Vec<(&'a str, &'a str)>,
        visit: &mut F,
    ) -> Result<(), CacheError>
    where
        F: FnMut(&[(&'a str, &'a str)], &'a str) -> Result<(), CacheError>,
    {
        if let Some((start, end)) = node.report {
            visit(path, &self.arena[start..end])?;
        }
        for ((name, id), child) in &node.children {
            path.push((name, id));
            self.visit_node(child, path, visit)?;
            path.pop();
        }
        Ok(())
    }

    /// The report stored *exactly at* `branch`: a tree walk, then a
    /// borrowed arena slice. `None` when the level holds no direct
    /// report.
    pub fn report_exact(&self, branch: &BranchId) -> Option<&str> {
        let (start, end) = self.node_at(branch)?.report?;
        Some(&self.arena[start..end])
    }
}

/// Copies one live range into the fresh arena and returns its new span.
fn copy_span(span: Span, old: &str, fresh: &mut String) -> Span {
    let start = fresh.len();
    fresh.push_str(&old[span.0..span.1]);
    (start, fresh.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> BranchId {
        s.parse().unwrap()
    }

    /// Splice oracle mirroring the same operations.
    fn pair() -> (RopeCache, XmlCache) {
        (RopeCache::new(), XmlCache::new())
    }

    #[test]
    fn empty_documents_match() {
        let (rope, oracle) = pair();
        assert_eq!(*rope.document(), *oracle.document());
        assert_eq!(rope.size_bytes(), oracle.size_bytes());
    }

    #[test]
    fn single_insert_matches_oracle() {
        let (mut rope, mut oracle) = pair();
        let id = b("reporter=version.gcc,resource=m1,site=sdsc,vo=tg");
        rope.update(&id, "<incaReport>gcc</incaReport>").unwrap();
        oracle.update(&id, "<incaReport>gcc</incaReport>").unwrap();
        assert_eq!(*rope.document(), *oracle.document());
        assert_eq!(rope.size_bytes(), oracle.size_bytes());
        assert_eq!(rope.report_count(), 1);
        assert_eq!(rope.generation(), 1);
    }

    #[test]
    fn replacement_reuses_level_and_tracks_garbage() {
        let (mut rope, mut oracle) = pair();
        let id = b("reporter=r,site=s");
        for (cache_op, xml) in
            [("first", "<incaReport>one</incaReport>"), ("second", "<incaReport>two two</incaReport>")]
        {
            let _ = cache_op;
            rope.update(&id, xml).unwrap();
            oracle.update(&id, xml).unwrap();
        }
        assert_eq!(*rope.document(), *oracle.document());
        assert_eq!(rope.report_count(), 1);
        // The first report's bytes are garbage in the arena now.
        assert!(rope.arena_bytes() > rope.size_bytes() - ROOT_OPEN.len() - ROOT_CLOSE.len());
    }

    #[test]
    fn canonical_order_holds_regardless_of_insert_order() {
        let ids = [
            "reporter=z,site=s",
            "reporter=a,site=s",
            "site=s", // report at an interior level, before child branches
            "reporter=a,site=q",
        ];
        let (mut rope, mut oracle) = pair();
        for id in ids {
            rope.update(&b(id), "<incaReport/>").unwrap();
            oracle.update(&b(id), "<incaReport/>").unwrap();
        }
        assert_eq!(*rope.document(), *oracle.document());
        let (mut rope2, mut oracle2) = pair();
        for id in ids.iter().rev() {
            rope2.update(&b(id), "<incaReport/>").unwrap();
            oracle2.update(&b(id), "<incaReport/>").unwrap();
        }
        assert_eq!(*rope2.document(), *rope.document());
        assert_eq!(*oracle2.document(), *oracle.document());
    }

    #[test]
    fn batch_bumps_generation_once_and_dedups_last_wins() {
        let (mut rope, mut oracle) = pair();
        let x = b("reporter=x,site=s");
        let y = b("reporter=y,site=s");
        let items: Vec<(&BranchId, &str)> = vec![
            (&x, "<incaReport>first</incaReport>"),
            (&y, "<incaReport>other</incaReport>"),
            (&x, "<incaReport>last</incaReport>"),
        ];
        rope.insert_batch(&items).unwrap();
        oracle.insert_batch(&items).unwrap();
        assert_eq!(rope.generation(), 1);
        assert_eq!(*rope.document(), *oracle.document());
        assert_eq!(rope.report_exact(&x).unwrap(), "<incaReport>last</incaReport>");
        rope.insert_batch(&[]).unwrap();
        assert_eq!(rope.generation(), 1, "empty batch must not bump");
    }

    #[test]
    fn reads_match_oracle() {
        let (mut rope, mut oracle) = pair();
        for id in ["reporter=a,resource=m1,site=s,vo=tg", "reporter=b,resource=m1,site=s,vo=tg",
                   "reporter=a,resource=m2,site=s,vo=tg", "reporter=c,resource=m9,site=t,vo=tg"] {
            let xml = format!("<incaReport>{id}</incaReport>");
            rope.update(&b(id), &xml).unwrap();
            oracle.update(&b(id), &xml).unwrap();
        }
        for q in ["vo=tg", "site=s,vo=tg", "resource=m1,site=s,vo=tg",
                  "reporter=a,resource=m2,site=s,vo=tg", "site=missing,vo=tg"] {
            let q = b(q);
            assert_eq!(rope.subtree(&q).unwrap(), oracle.subtree(&q).unwrap(), "subtree {q:?}");
            assert_eq!(rope.reports(Some(&q)).unwrap(), oracle.reports(Some(&q)).unwrap());
            assert_eq!(rope.report_exact(&q), oracle.report_exact(&q));
        }
        assert_eq!(rope.reports(None).unwrap(), oracle.reports(None).unwrap());
    }

    #[test]
    fn attribute_escaping_matches_oracle() {
        let (mut rope, mut oracle) = pair();
        let id = BranchId::new(vec![("reporter".to_string(), "a<b&\"c\"".to_string())]).unwrap();
        rope.update(&id, "<incaReport/>").unwrap();
        oracle.update(&id, "<incaReport/>").unwrap();
        assert_eq!(*rope.document(), *oracle.document());
        assert_eq!(rope.report_exact(&id), oracle.report_exact(&id));
    }

    #[test]
    fn document_is_cached_per_generation() {
        let (mut rope, _) = pair();
        rope.update(&b("reporter=r,site=s"), "<incaReport/>").unwrap();
        let first = rope.document();
        let second = rope.document();
        assert!(Arc::ptr_eq(&first, &second), "same generation must share one allocation");
        rope.update(&b("reporter=q,site=s"), "<incaReport/>").unwrap();
        let third = rope.document();
        assert!(!Arc::ptr_eq(&first, &third));
    }

    #[test]
    fn compaction_preserves_bytes_and_drops_garbage() {
        let (mut rope, mut oracle) = pair();
        // Replace the same branches repeatedly so most of the arena is
        // dead report bytes.
        for round in 0..20 {
            for id in ["reporter=a,site=s", "reporter=b,site=s", "site=s"] {
                let xml = format!("<incaReport>round {round} {id}</incaReport>");
                rope.update(&b(id), &xml).unwrap();
                oracle.update(&b(id), &xml).unwrap();
            }
        }
        assert!(rope.garbage_bytes() > 0, "replacements must leave garbage");
        let before = rope.document();
        let generation = rope.generation();
        rope.compact();
        assert_eq!(rope.garbage_bytes(), 0, "compaction reclaims all garbage");
        assert_eq!(rope.arena_bytes(), rope.arena.len());
        assert_eq!(rope.generation(), generation, "compaction is not a mutation");
        let after = rope.document();
        assert!(Arc::ptr_eq(&before, &after), "materialization cache survives compaction");
        // Force a re-render from the rewritten spans and check against
        // the splice oracle byte-for-byte.
        rope.update(&b("reporter=z,site=t"), "<incaReport/>").unwrap();
        oracle.update(&b("reporter=z,site=t"), "<incaReport/>").unwrap();
        assert_eq!(*rope.document(), *oracle.document());
        // Reads still resolve through the rewritten spans.
        assert_eq!(rope.subtree(&b("site=s")).unwrap(), oracle.subtree(&b("site=s")).unwrap());
        assert_eq!(rope.reports(None).unwrap(), oracle.reports(None).unwrap());
    }

    #[test]
    fn maybe_compact_respects_thresholds() {
        let mut rope = RopeCache::new();
        let id = b("reporter=r,site=s");
        rope.update(&id, "<incaReport>tiny</incaReport>").unwrap();
        rope.update(&id, "<incaReport>tiny2</incaReport>").unwrap();
        assert!(rope.garbage_bytes() > 0);
        assert!(!rope.maybe_compact(), "arenas under the floor are left alone");
        // Grow past the floor with one big report, then replace it so
        // garbage dominates.
        let big = format!("<incaReport>{}</incaReport>", "x".repeat(COMPACT_MIN_ARENA_BYTES));
        rope.update(&id, &big).unwrap();
        rope.update(&id, "<incaReport>small again</incaReport>").unwrap();
        assert!(rope.arena_bytes() >= COMPACT_MIN_ARENA_BYTES);
        assert!(
            rope.garbage_bytes() as f64 >= COMPACT_GARBAGE_RATIO * rope.arena_bytes() as f64
        );
        assert!(rope.maybe_compact(), "past both thresholds a rebuild must run");
        assert_eq!(rope.garbage_bytes(), 0);
        assert!(rope.arena_bytes() < COMPACT_MIN_ARENA_BYTES, "arena shrank to live bytes");
    }

    #[test]
    fn from_document_roundtrips() {
        let (mut rope, _) = pair();
        for id in ["reporter=a,site=s,vo=tg", "reporter=b,site=t,vo=tg", "site=s,vo=tg"] {
            rope.update(&b(id), &format!("<incaReport>{id}</incaReport>")).unwrap();
        }
        let doc = rope.document();
        let restored = RopeCache::from_document((*doc).clone()).unwrap();
        assert_eq!(*restored.document(), *doc);
        assert_eq!(restored.report_count(), rope.report_count());
        assert_eq!(restored.size_bytes(), rope.size_bytes());
        assert_eq!(restored.generation(), 0);
        assert!(RopeCache::from_document("<wrong/>".to_string()).is_err());
    }
}
