//! A small memo of recent query results, invalidated by the cache's
//! generation counter.
//!
//! The TeraGrid status pages hit the same handful of queries
//! continuously (§3.2.3's consumers re-render the same views), while
//! the cache mutates only when a cron burst lands. Between mutations
//! every repeated query can be served from a memoized result; the
//! cache's [`generation`](crate::XmlCache::generation) stamps each
//! entry, so one comparison decides validity — no invalidation hooks
//! in the write path.
//!
//! The memo lives *inside* the depot behind its own tiny mutex so it
//! keeps working under the controller's read lock: many concurrent
//! readers share one depot reference, and the memo lock is held only
//! for a probe or a store, never across a cache walk.
//!
//! `ParsedMemo` beside it holds the *parsed* form of cached reports
//! for set reads. It is invalidated the other way — by the write path,
//! one branch at a time — because a generation stamp would throw away
//! a thousand parsed reports every time one of them is replaced.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use inca_report::{BranchId, Report};
use parking_lot::Mutex;

/// Result value of a memoizable query.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MemoValue {
    /// A [`crate::XmlCache::subtree`] result.
    Subtree(Option<String>),
    /// A [`crate::XmlCache::reports`] result.
    Reports(Vec<(BranchId, String)>),
    /// A [`crate::XmlCache::report_exact`] result.
    Exact(Option<String>),
}

/// Bounded FIFO memo: at most `capacity` distinct query keys, oldest
/// evicted first. Entries from older cache generations are dropped on
/// probe.
#[derive(Debug)]
pub(crate) struct QueryMemo {
    entries: Mutex<VecDeque<(u64, String, MemoValue)>>,
    capacity: usize,
}

impl QueryMemo {
    /// A memo holding up to `capacity` entries.
    pub(crate) fn new(capacity: usize) -> QueryMemo {
        QueryMemo { entries: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
    }

    /// The memoized value for `key` if it was stored at `generation`;
    /// a stale entry (older generation) is evicted and misses.
    pub(crate) fn get(&self, generation: u64, key: &str) -> Option<MemoValue> {
        let mut entries = self.entries.lock();
        let pos = entries.iter().position(|(_, k, _)| k == key)?;
        if entries[pos].0 == generation {
            Some(entries[pos].2.clone())
        } else {
            entries.remove(pos);
            None
        }
    }

    /// Stores `value` for `key` at `generation`, evicting the oldest
    /// entry when full (and any previous entry under the same key).
    pub(crate) fn put(&self, generation: u64, key: String, value: MemoValue) {
        let mut entries = self.entries.lock();
        if let Some(pos) = entries.iter().position(|(_, k, _)| *k == key) {
            entries.remove(pos);
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back((generation, key, value));
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// The parsed form of cached reports: at most one shared [`Report`]
/// per cached branch.
///
/// Keys are branch identifiers written out general-first, one string
/// each rather than a cloned [`BranchId`], and readers probe with a
/// reused buffer so a hit allocates nothing. Same locking rule as
/// [`QueryMemo`]: the lock covers one probe or one store, never a
/// parse. Two readers may therefore parse the same report at once;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_generation() {
        let memo = QueryMemo::new(4);
        memo.put(1, "k".into(), MemoValue::Exact(Some("v".into())));
        assert_eq!(memo.get(1, "k"), Some(MemoValue::Exact(Some("v".into()))));
        assert_eq!(memo.get(2, "k"), None, "older generation must miss");
        assert_eq!(memo.len(), 0, "stale entry is evicted by the probe");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let memo = QueryMemo::new(2);
        memo.put(1, "a".into(), MemoValue::Subtree(None));
        memo.put(1, "b".into(), MemoValue::Subtree(None));
        memo.put(1, "c".into(), MemoValue::Subtree(None));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(1, "a"), None);
        assert!(memo.get(1, "b").is_some() && memo.get(1, "c").is_some());
    }

    #[test]
    fn same_key_replaces_in_place() {
        let memo = QueryMemo::new(2);
        memo.put(1, "a".into(), MemoValue::Exact(None));
        memo.put(2, "a".into(), MemoValue::Exact(Some("new".into())));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(2, "a"), Some(MemoValue::Exact(Some("new".into()))));
    }
}
