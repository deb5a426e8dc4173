//! The O(report) write path: an arena-backed rope over the VO document.
//!
//! [`super::cache::XmlCache`] deliberately reproduces §5.2.2: the cache
//! is one contiguous XML string, so every insert and every query
//! streams bytes proportional to the whole cache (Figure 9's growth
//! curve). This module is the cache a depot runs on: O(report) writes
//! and O(result) reads. The splice implementation stays beside it as
//! the paper's design (which the paper's exhibits time), this cache's
//! byte-identity oracle, and the validator of
//! [`RopeCache::from_document`].
//!
//! ## Representation
//!
//! * **Arena** — one append-only `String`. Report bytes and
//!   pre-rendered `<branch name=… id=…>` open tags are appended once;
//!   pieces of the document are `(start, end)` ranges into it.
//!   Replaced reports leave their old bytes behind as garbage
//!   ([`RopeCache::arena_bytes`] vs [`RopeCache::size_bytes`] tracks
//!   the ratio) until [`RopeCache::compact`] slides the live ranges
//!   down over it, inside the same buffer: the arena's allocation and
//!   its resident pages last as long as the cache.
//! * **Tree** — branch levels keyed by raw `(name, id)` in a
//!   `BTreeMap`, which *is* the canonical sibling order the splice
//!   cache maintains (PR 5: at every level the level's direct report
//!   precedes child branches; branches sort by `(name, id)`). Because
//!   the canonical document is a pure function of cache content, an
//!   in-order walk of this tree reproduces the splice document
//!   byte-for-byte — no piece offsets need shifting, ever.
//!
//! An insert is a tree walk plus an arena append: O(report + depth ·
//! log fanout), independent of cache size. Nothing derived from the
//! tree is kept beside it: [`RopeCache::document`] renders the
//! contiguous string from the current spans on every call, one pass
//! over the live bytes into one exact-capacity allocation, and the
//! reads render or borrow only what they return.

use std::collections::BTreeMap;

use inca_report::BranchId;
use inca_xml::escape::escape_attr;

use super::cache::{branch_of, CacheError, XmlCache};

const ROOT_OPEN: &str = "<incaCache>";
const ROOT_CLOSE: &str = "</incaCache>";
const BRANCH_CLOSE: &str = "</branch>";

/// Arenas smaller than this are never compacted — the garbage is not
/// worth a compaction pass.
pub const COMPACT_MIN_ARENA_BYTES: usize = 256 * 1024;

/// Garbage fraction of the arena (`garbage_bytes / arena_bytes`) above
/// which [`RopeCache::maybe_compact`] compacts.
pub const COMPACT_GARBAGE_RATIO: f64 = 0.5;

/// A compaction releases arena capacity beyond this multiple of
/// `max(live bytes, COMPACT_MIN_ARENA_BYTES)`, shrinking to 2 × live.
const SHRINK_FACTOR: usize = 8;

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
/// writes. `document()` returns an owned `String`, rendered on demand:
/// the rope never holds the contiguous document.
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
        debug_assert_eq!(rope.document(), oracle.document());
        Ok(rope)
    }

    /// Monotone counter bumped by every successful mutation — same
    /// contract as [`XmlCache::generation`].
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

    /// Slides every live span down inside the arena's own buffer,
    /// dropping all garbage.
    ///
    /// Spans are moved in *arena* order (sorted by start offset, not
    /// canonical order), so the write cursor never passes a span still
    /// waiting to move; each one is `copy_within`'d to the cursor and
    /// rewritten as it goes — O(live bytes), independent of how much
    /// garbage accrued. The allocation and its resident pages are
    /// reused, so the appends after a compaction write into memory the
    /// process has already touched instead of faulting in a fresh
    /// arena. The document is untouched (same bytes, same generation):
    /// every read after it renders the same bytes from the moved spans.
    pub fn compact(&mut self) {
        let mut spans = Vec::new();
        collect_spans(&mut self.root, &mut spans);
        spans.sort_unstable_by_key(|span| span.0);
        let mut bytes = std::mem::take(&mut self.arena).into_bytes();
        let mut cursor = 0;
        for span in spans {
            let len = span.1 - span.0;
            if span.0 != cursor {
                bytes.copy_within(span.0..span.1, cursor);
            }
            *span = (cursor, cursor + len);
            cursor += len;
        }
        debug_assert_eq!(cursor, self.live_arena, "live_arena drifted from spans");
        bytes.truncate(cursor);
        self.arena = String::from_utf8(bytes).expect("live spans were appended as whole strs");
        if self.arena.capacity() > SHRINK_FACTOR * cursor.max(COMPACT_MIN_ARENA_BYTES) {
            self.arena.shrink_to(2 * cursor);
        }
    }

    /// Compacts when the garbage ratio crosses
    /// [`COMPACT_GARBAGE_RATIO`] on an arena of at least
    /// [`COMPACT_MIN_ARENA_BYTES`]; returns whether a compaction ran.
    /// The depot calls this after every ingest, which keeps compactions
    /// rare (each one must re-accumulate half an arena of garbage to
    /// trigger the next) and bounds memory: while the workload is
    /// steady the resident arena stays at about 2 × the live bytes plus
    /// one report (or the floor, whichever is larger), reused across
    /// compactions. Capacity left over from a larger past is released
    /// only when it exceeds 8 × max(live, floor), down to 2 × live — a
    /// multiple a steady workload never reaches, so it never shrinks
    /// and regrows.
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

    /// The full document, rendered from the current spans into one
    /// allocation of exactly [`Self::size_bytes`]: O(live bytes) per
    /// call, nothing kept.
    pub fn document(&self) -> String {
        let mut out = String::with_capacity(self.live_bytes);
        out.push_str(ROOT_OPEN);
        self.render(&self.root, &mut out);
        out.push_str(ROOT_CLOSE);
        debug_assert_eq!(out.len(), self.live_bytes, "size_bytes drifted from the document");
        out
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

/// Every live span under `node` (open tags and reports), in tree order.
fn collect_spans<'a>(node: &'a mut Node, out: &mut Vec<&'a mut Span>) {
    out.extend(node.open.as_mut());
    out.extend(node.report.as_mut());
    for child in node.children.values_mut() {
        collect_spans(child, out);
    }
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
        assert_eq!(rope.document(), oracle.document());
        assert_eq!(rope.size_bytes(), oracle.size_bytes());
    }

    #[test]
    fn single_insert_matches_oracle() {
        let (mut rope, mut oracle) = pair();
        let id = b("reporter=version.gcc,resource=m1,site=sdsc,vo=tg");
        rope.update(&id, "<incaReport>gcc</incaReport>").unwrap();
        oracle.update(&id, "<incaReport>gcc</incaReport>").unwrap();
        assert_eq!(rope.document(), oracle.document());
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
        assert_eq!(rope.document(), oracle.document());
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
        assert_eq!(rope.document(), oracle.document());
        let (mut rope2, mut oracle2) = pair();
        for id in ids.iter().rev() {
            rope2.update(&b(id), "<incaReport/>").unwrap();
            oracle2.update(&b(id), "<incaReport/>").unwrap();
        }
        assert_eq!(rope2.document(), rope.document());
        assert_eq!(oracle2.document(), oracle.document());
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
        assert_eq!(rope.document(), oracle.document());
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
        assert_eq!(rope.document(), oracle.document());
        assert_eq!(rope.report_exact(&id), oracle.report_exact(&id));
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
        let generation = rope.generation();
        rope.compact();
        assert_eq!(rope.garbage_bytes(), 0, "compaction reclaims all garbage");
        assert_eq!(rope.arena_bytes(), rope.arena.len());
        assert_eq!(rope.generation(), generation, "compaction is not a mutation");
        // The document renders from the moved spans: byte-for-byte the
        // splice oracle's, right after the move and after a write.
        assert_eq!(rope.document(), oracle.document());
        rope.update(&b("reporter=z,site=t"), "<incaReport/>").unwrap();
        oracle.update(&b("reporter=z,site=t"), "<incaReport/>").unwrap();
        assert_eq!(rope.document(), oracle.document());
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

    /// Replaces every report under `ids` round after round with a
    /// same-size payload until `maybe_compact` fires: one fill→compact
    /// cycle of a steady workload.
    fn steady_cycle(rope: &mut RopeCache, ids: &[BranchId], round: &mut usize) {
        loop {
            *round += 1;
            for id in ids {
                let xml = format!("<incaReport>{:04096}</incaReport>", *round);
                rope.update(id, &xml).unwrap();
                if rope.maybe_compact() {
                    return;
                }
            }
        }
    }

    #[test]
    fn compaction_reuses_the_arena_allocation() {
        let mut rope = RopeCache::new();
        let ids: Vec<BranchId> = (0..64).map(|i| b(&format!("reporter=r{i},site=s"))).collect();
        let mut round = 0;
        steady_cycle(&mut rope, &ids, &mut round);
        steady_cycle(&mut rope, &ids, &mut round);
        // Leave some garbage so the forced compaction has bytes to move.
        for id in &ids[..ids.len() / 2] {
            rope.update(id, &format!("<incaReport>{:04096}</incaReport>", 0)).unwrap();
        }
        let before = rope.reports(None).unwrap();
        let (ptr, capacity) = (rope.arena.as_ptr(), rope.arena.capacity());
        rope.compact();
        assert_eq!(rope.garbage_bytes(), 0);
        assert_eq!(rope.arena.as_ptr(), ptr, "compaction must not allocate a new arena");
        assert!(rope.arena.capacity() <= capacity);
        assert_eq!(rope.reports(None).unwrap(), before, "moved spans must read the same bytes");
        steady_cycle(&mut rope, &ids, &mut round);
        assert_eq!(rope.arena.as_ptr(), ptr, "a steady cycle must refill the same buffer");
        assert!(rope.arena.capacity() <= capacity, "a steady cycle must not grow the arena");
    }

    #[test]
    fn compaction_releases_capacity_once_live_bytes_collapse() {
        let (mut rope, mut oracle) = pair();
        let ids: Vec<BranchId> = (0..4).map(|i| b(&format!("reporter=r{i},site=s"))).collect();
        let big = format!("<incaReport>{}</incaReport>", "x".repeat(1 << 20));
        for id in &ids {
            rope.update(id, &big).unwrap();
        }
        for id in &ids {
            let small = format!("<incaReport>{}</incaReport>", "y".repeat(1 << 10));
            rope.update(id, &small).unwrap();
            oracle.update(id, &small).unwrap();
        }
        assert!(rope.arena.capacity() > 4 << 20);
        assert!(rope.maybe_compact());
        let live = rope.arena_bytes();
        assert!(
            rope.arena.capacity() <= SHRINK_FACTOR * live.max(COMPACT_MIN_ARENA_BYTES),
            "capacity {} left above the bound for {live} live bytes",
            rope.arena.capacity()
        );
        assert!(rope.arena.capacity() <= 2 * live);
        assert_eq!(rope.document(), oracle.document());
    }

    #[test]
    fn from_document_roundtrips() {
        let (mut rope, _) = pair();
        for id in ["reporter=a,site=s,vo=tg", "reporter=b,site=t,vo=tg", "site=s,vo=tg"] {
            rope.update(&b(id), &format!("<incaReport>{id}</incaReport>")).unwrap();
        }
        let doc = rope.document();
        let restored = RopeCache::from_document(doc.clone()).unwrap();
        assert_eq!(restored.document(), doc);
        assert_eq!(restored.report_count(), rope.report_count());
        assert_eq!(restored.size_bytes(), rope.size_bytes());
        assert_eq!(restored.generation(), 0);
        assert!(RopeCache::from_document("<wrong/>".to_string()).is_err());
    }
}
