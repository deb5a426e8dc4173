//! The parsed form of cached reports, for set reads.
//!
//! A verification pass or a status page reads hundreds of reports at
//! once, and between two such reads only the few whose branches were
//! written since have changed. [`ParsedMemo`] keeps at most one parsed
//! [`Report`] per cached branch, so a repeated set read parses only
//! what changed. It is invalidated by the write path, one branch at a
//! time: a whole-cache stamp such as the generation counter would
//! throw away a thousand parsed reports every time one of them is
//! replaced.
//!
//! It lives *inside* the depot behind its own mutex so it keeps
//! working under the controller's read lock: many concurrent readers
//! share one depot reference, and the lock is held only for one probe
//! or one store, never across a parse or a cache walk.

use std::collections::HashMap;
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

    /// The parsed report stored under `key`, if any.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<Report>> {
        self.entries.lock().get(key).cloned()
    }

    /// Stores `report` as the parsed form of the branch `key` names.
    pub(crate) fn put(&self, key: &str, report: Arc<Report>) {
        self.entries.lock().insert(key.into(), report);
    }

    /// Drops the entry for `branch`, whose cached report is about to
    /// change. Exclusive access (the depot's write guard) needs no
    /// lock, and a memo no set read ever filled costs one emptiness
    /// check.
    pub(crate) fn forget(&mut self, branch: &BranchId) {
        let entries = self.entries.get_mut();
        if entries.is_empty() {
            return;
        }
        let mut key = String::new();
        ParsedMemo::write_key(&mut key, branch.hierarchy());
        entries.remove(key.as_str());
    }

    /// Number of parsed reports held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}
