//! A query-cost cache shared across optimizer worker threads.
//!
//! Entries are keyed by `(canonical group, binding columns, narrowed
//! marking hash)`; any context that prices the same posed query under a
//! marking that agrees on the queried group's *reachable slice* can reuse
//! another's work. The map is sharded by key hash so concurrent lookups
//! rarely contend on the same lock.
//!
//! Correctness note: the narrowed hash covers `marked ∩ reachable(g)` —
//! exactly the memberships the costing recursion on `g` can test (see
//! `narrowed_marking_hash` in `crate::query`) — so sharing never changes a
//! result; it only skips a recomputation that would have produced the
//! identical `Cost`.
//!
//! Effectiveness note, courtesy of the [`stats`](SharedQueryCache::stats)
//! counters: the exhaustive search hands each view set to exactly one
//! worker (whose per-context local cache absorbs repeats), so a key hashing
//! the *entire* marking would never collide across workers and cross-worker
//! hits would measure ~0. Narrowing is what makes distinct view sets that
//! agree below the queried group land on the same entry, turning the
//! shared cache into real cross-worker reuse (`tests/determinism.rs`
//! asserts the hit count of a four-worker search is nonzero).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use spacetime_memo::GroupId;
use spacetime_obs::names as metric;

use crate::model::Cost;

/// Cache key: (canonical queried group, binding columns, narrowed marking
/// hash — see `narrowed_marking_hash` in `crate::query`).
pub type QueryKey = (GroupId, Vec<usize>, u64);

const DEFAULT_SHARDS: usize = 16;

struct Inner {
    shards: Vec<RwLock<HashMap<QueryKey, Cost>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Sharded, thread-safe query-cost cache. Cloning is cheap (`Arc`); clones
/// share the same underlying shards and hit/miss accounting.
#[derive(Clone)]
pub struct SharedQueryCache {
    inner: Arc<Inner>,
}

impl Default for SharedQueryCache {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl SharedQueryCache {
    /// A cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with an explicit shard count (rounded up to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        SharedQueryCache {
            inner: Arc::new(Inner {
                shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    fn shard(&self, key: &QueryKey) -> &RwLock<HashMap<QueryKey, Cost>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.inner.shards[(h.finish() as usize) % self.inner.shards.len()]
    }

    /// Look up a priced query, counting the probe as a hit or miss. Lock
    /// poisoning (a panicking writer) is treated as a miss rather than
    /// propagated.
    pub fn get(&self, key: &QueryKey) -> Option<Cost> {
        let found = self
            .shard(key)
            .read()
            .ok()
            .and_then(|m| m.get(key).copied());
        spacetime_obs::counter_add(metric::QUERY_CACHE_LOOKUPS, 1);
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            spacetime_obs::counter_add(metric::QUERY_CACHE_HITS, 1);
        } else {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            spacetime_obs::counter_add(metric::QUERY_CACHE_MISSES, 1);
        }
        found
    }

    /// Record a priced query.
    pub fn insert(&self, key: QueryKey, cost: Cost) {
        if let Ok(mut m) = self.shard(&key).write() {
            m.insert(key, cost);
        }
    }

    /// `(hits, misses)` across every clone since creation. Lookups are
    /// `hits + misses` by construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }

    /// Total cached entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().map(|m| m.len()).unwrap_or(0))
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip() {
        let cache = SharedQueryCache::new();
        let key: QueryKey = (GroupId(3), vec![0, 2], 0xDEADBEEF);
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), Cost(11.0));
        assert_eq!(cache.get(&key), Some(Cost(11.0)));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedQueryCache::with_shards(4);
        let b = a.clone();
        a.insert((GroupId(1), vec![], 7), Cost(2.0));
        assert_eq!(b.get(&(GroupId(1), vec![], 7)), Some(Cost(2.0)));
        assert_eq!(a.stats(), (1, 0));
    }

    #[test]
    fn concurrent_inserts_land() {
        let cache = SharedQueryCache::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        cache.insert((GroupId((t * 100 + i) as u32), vec![], i), Cost(i as f64));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 400);
    }

    #[test]
    fn stats_count_hits_and_misses_across_threads() {
        let cache = SharedQueryCache::new();
        cache.insert((GroupId(0), vec![], 0), Cost(1.0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        cache.get(&(GroupId(0), vec![], 0));
                        cache.get(&(GroupId(999), vec![], i));
                    }
                });
            }
        });
        assert_eq!(cache.stats(), (200, 200));
    }
}
