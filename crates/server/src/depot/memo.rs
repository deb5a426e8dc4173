//! The parsed form of cached reports, for set reads.
//!
//! A verification pass or a status page reads hundreds of reports at
//! once, and between two such reads only the few whose branches were
//! written since have changed. [`ParsedMemo`] keeps at most one parsed
//! [`Report`] per cached branch, so a repeated set read parses only
//! what changed. It is kept by the write path, one branch at a time: a
//! write forgets its branch's entry, and a write whose report the
//! depot parsed anyway (for an archive rule) leaves that parse as the
//! new entry, so the next set read parses nothing the depot already
//! did. A whole-cache stamp such as the generation counter would throw
//! away a thousand parsed reports every time one of them is replaced.
//!
//! Until a set read has used it, the memo stays empty and the write
//! path pays one flag check per report: a depot that serves only point
//! reads and documents keeps no parsed reports.
//!
//! It lives *inside* the depot behind its own mutex so it keeps
//! working under the controller's read lock: many concurrent readers
//! share one depot reference, and the lock is held only for one probe
//! or one store, never across a parse or a cache walk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use inca_report::{BranchId, Report};
use parking_lot::Mutex;

/// The parsed form of cached reports: at most one shared [`Report`]
/// per cached branch.
///
/// Keys are branch identifiers written out general-first, one string
/// each rather than a cloned [`BranchId`], and readers probe with a
/// reused buffer so a hit allocates nothing. The lock covers one
/// probe or one store, never a parse. Two readers may therefore parse the same report at once;
/// both hold the depot's read guard, so they parse the same bytes and
/// either result may stay.
#[derive(Debug, Default)]
pub(crate) struct ParsedMemo {
    entries: Mutex<HashMap<Box<str>, Arc<Report>>>,
    /// Whether a set read has used the memo; until one has, the write
    /// path keeps nothing in it.
    used: AtomicBool,
}

impl ParsedMemo {
    /// Writes the memo key of a branch, given as its general-first
    /// `(name, value)` pairs ([`BranchId::hierarchy`] order, the order
    /// a cache walk descends in), into `key`. Keys cannot collide:
    /// names and values contain neither `,` nor `=`.
    pub(crate) fn write_key<'p>(
        key: &mut String,
        hierarchy: impl Iterator<Item = (&'p str, &'p str)>,
    ) {
        key.clear();
        for (i, (name, value)) in hierarchy.enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(name);
            key.push('=');
            key.push_str(value);
        }
    }

    /// Records that a set read is using the memo: from now on the
    /// write path keeps the reports it parses.
    pub(crate) fn mark_used(&self) {
        self.used.store(true, Ordering::Relaxed);
    }

    /// The parsed report stored under `key`, if any.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<Report>> {
        self.entries.lock().get(key).cloned()
    }

    /// Stores a copy of `parsed` as the parsed form of the branch `key`
    /// names, and returns it. The parser grows its vectors as it goes
    /// and the tree it leaves is over twice the bytes of an
    /// exact-capacity one; an entry stays until its branch is
    /// rewritten, so it keeps a clone, which allocates every vector and
    /// string at its length.
    pub(crate) fn put(&self, key: &str, parsed: &Report) -> Arc<Report> {
        let report = Arc::new(parsed.clone());
        self.entries.lock().insert(key.into(), Arc::clone(&report));
        report
    }

    /// After a write to `branch`: keeps `parsed`, the write path's
    /// parse of the report written, as the branch's entry, or drops the
    /// entry when there is no such parse (the write is under way, or its
    /// report failed to parse and a set read must fail on it as it
    /// always did). Exclusive access (the depot's write guard) needs no
    /// lock, and a memo no set read has used costs one flag check.
    pub(crate) fn written(&mut self, branch: &BranchId, parsed: Option<&Report>) {
        if !*self.used.get_mut() {
            return;
        }
        let mut key = String::new();
        ParsedMemo::write_key(&mut key, branch.hierarchy());
        match parsed {
            Some(parsed) => {
                self.put(&key, parsed);
            }
            None => {
                self.entries.get_mut().remove(key.as_str());
            }
        }
    }

    /// Number of parsed reports held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}
