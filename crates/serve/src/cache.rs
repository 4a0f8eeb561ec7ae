//! Content-addressed result cache: canonical-spec hash → result body,
//! bounded by a byte budget with least-recently-used eviction.
//!
//! Bodies are stored exactly as the worker produced them, so a cache
//! hit returns bytes identical to what a fresh placement would emit —
//! that equivalence is the determinism invariant the whole engine is
//! built on, and the e2e suite pins it. The budget counts body bytes
//! only; the per-entry bookkeeping is a few dozen bytes against result
//! bodies that run from kilobytes (dp_tiny) to megabytes (dp_huge).
//!
//! Bodies are shared `Arc<str>`s: an entry, the job records serving it
//! and the persisted record all point at one allocation. The budget
//! counts each entry's body bytes once, however many records share it.

use std::collections::BTreeMap;
use std::sync::Arc;

struct Entry {
    body: Arc<str>,
    /// Monotonic access stamp — larger means more recently used.
    last_used: u64,
}

/// An LRU-evicting map from spec hash to result body.
pub struct ResultCache {
    entries: BTreeMap<u64, Entry>,
    /// Byte budget; `0` disables the cache entirely.
    budget: usize,
    /// Sum of `body.len()` over `entries`.
    bytes: usize,
    /// Source of `last_used` stamps.
    clock: u64,
}

impl ResultCache {
    /// An empty cache with the given byte budget (`0` disables it).
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            entries: BTreeMap::new(),
            budget,
            bytes: 0,
            clock: 0,
        }
    }

    /// Looks up a body (a shared handle, no byte copy) and marks it
    /// most-recently-used.
    pub fn get(&mut self, hash: u64) -> Option<Arc<str>> {
        self.clock += 1;
        let clock = self.clock;
        let e = self.entries.get_mut(&hash)?;
        e.last_used = clock;
        Some(Arc::clone(&e.body))
    }

    /// Inserts (or refreshes) a body, then evicts least-recently-used
    /// entries until the budget holds. A body larger than the whole
    /// budget is not stored at all.
    pub fn insert(&mut self, hash: u64, body: Arc<str>) {
        if body.len() > self.budget {
            return;
        }
        self.clock += 1;
        let e = Entry {
            last_used: self.clock,
            body,
        };
        self.bytes += e.body.len();
        if let Some(old) = self.entries.insert(hash, e) {
            self.bytes -= old.body.len();
        }
        while self.bytes > self.budget {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let Some(evicted) = self.entries.remove(&oldest) else {
                break;
            };
            self.bytes -= evicted.body.len();
        }
    }

    /// Total body bytes currently held (the `/metrics` gauge).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached bodies.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(n: usize) -> Arc<str> {
        "x".repeat(n).into()
    }

    #[test]
    fn eviction_respects_the_byte_budget() {
        let mut c = ResultCache::new(100);
        c.insert(1, body(40));
        c.insert(2, body(40));
        assert_eq!((c.len(), c.bytes()), (2, 80));
        // A third 40-byte body exceeds 100: the least-recently-used
        // entry (1) goes.
        c.insert(3, body(40));
        assert_eq!((c.len(), c.bytes()), (2, 80));
        assert!(c.get(1).is_none(), "oldest entry evicted");
        assert!(c.get(2).is_some() && c.get(3).is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = ResultCache::new(100);
        c.insert(1, body(40));
        c.insert(2, body(40));
        assert!(c.get(1).is_some()); // 1 is now newer than 2
        c.insert(3, body(40));
        assert!(c.get(2).is_none(), "2 was the least recently used");
        assert!(c.get(1).is_some());
    }

    #[test]
    fn oversized_and_zero_budget_bodies_are_not_stored() {
        let mut c = ResultCache::new(10);
        c.insert(1, body(11));
        assert!(c.is_empty() && c.get(1).is_none());
        let mut off = ResultCache::new(0);
        off.insert(1, body(1));
        assert_eq!((off.len(), off.bytes()), (0, 0), "budget 0 disables");
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = ResultCache::new(100);
        c.insert(1, body(60));
        c.insert(1, body(30));
        assert_eq!((c.len(), c.bytes()), (1, 30));
        assert_eq!(c.get(1).map(|b| b.len()), Some(30));
    }
}
