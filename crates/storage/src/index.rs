//! Hash indices over column subsets.
//!
//! Per the paper's physical model, every index is a hash index with no
//! overflowed buckets: a probe reads exactly one index page, then one data
//! page per matching tuple. [`HashIndex`] stores the matching tuples (with
//! multiplicities) directly under each key; the I/O charging happens in
//! [`crate::relation::Relation`], which knows when an access is index-backed.
//!
//! ## Representation
//!
//! Buckets live in `SHARD_COUNT` copy-on-write shards routed by the
//! fixed-seed [`crate::fx`] hash of the key, mirroring
//! [`crate::bag::Bag`]'s large representation: cloning an index is one
//! `Arc` bump per shard, and a mutation deep-copies only the shard its key
//! routes to. Single-column indices — the overwhelmingly common case —
//! take a specialized path keyed by [`Value`] directly, so neither probes
//! nor maintenance ever allocate a key slice; composite indices accept
//! borrowed `&[Value]` probes (the owned `Box<[Value]>` key is built only
//! when maintenance actually inserts a new bucket).

use std::sync::Arc;

use crate::bag::Bag;
use crate::fx::{fx_hash_one, FxHashMap, FxHasher};
use crate::tuple::Tuple;
use crate::value::Value;

/// Number of bucket shards (power of two).
const SHARD_COUNT: usize = 64;

#[derive(Debug, Clone)]
enum Buckets {
    /// Single-column key: keyed by the value itself, no slice allocation
    /// on any path.
    Single(Vec<Arc<FxHashMap<Value, Bag>>>),
    /// Composite key: probed by borrowed `&[Value]`.
    Multi(Vec<Arc<FxHashMap<Box<[Value]>, Bag>>>),
}

/// A hash index mapping a key (values of `key_cols`) to the bag of matching
/// tuples.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    buckets: Buckets,
}

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex::new(Vec::new())
    }
}

fn empty_shards<K, V>() -> Vec<Arc<FxHashMap<K, V>>> {
    (0..SHARD_COUNT)
        .map(|_| Arc::new(FxHashMap::default()))
        .collect()
}

/// Shard routing for a borrowed key slice. Must agree with
/// [`shard_of_tuple_key`]: both hash the key exactly as `<[Value]>::hash`
/// does (length prefix, then elements).
#[inline]
fn shard_of_slice(key: &[Value]) -> usize {
    (fx_hash_one(key) as usize) & (SHARD_COUNT - 1)
}

/// Shard routing for a tuple's key columns, without materializing the key.
#[inline]
fn shard_of_tuple_key(t: &Tuple, cols: &[usize]) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    h.write_usize(cols.len());
    for &c in cols {
        t.get(c).unwrap_or(&Value::Null).hash(&mut h);
    }
    (h.finish() as usize) & (SHARD_COUNT - 1)
}

/// The values of `cols` in `t`, as an owned composite key.
fn owned_key(cols: &[usize], t: &Tuple) -> Box<[Value]> {
    cols.iter()
        .map(|&c| t.get(c).cloned().unwrap_or(Value::Null))
        .collect()
}

#[inline]
fn shard_of_value(v: &Value) -> usize {
    (fx_hash_one(v) as usize) & (SHARD_COUNT - 1)
}

impl HashIndex {
    /// Create an empty index on the given column positions.
    pub fn new(key_cols: Vec<usize>) -> Self {
        let buckets = if key_cols.len() == 1 {
            Buckets::Single(empty_shards())
        } else {
            Buckets::Multi(empty_shards())
        };
        HashIndex { key_cols, buckets }
    }

    /// The indexed column positions.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Extract this index's key from a tuple. Allocates; maintenance and
    /// probe paths avoid this — it exists for callers that need an owned
    /// key (e.g. collecting touched keys).
    pub fn key_of(&self, t: &Tuple) -> Box<[Value]> {
        owned_key(&self.key_cols, t)
    }

    /// Whether two tuples disagree on this index's key (allocation-free
    /// replacement for `key_of(a) != key_of(b)`).
    pub fn key_changed(&self, a: &Tuple, b: &Tuple) -> bool {
        self.key_cols
            .iter()
            .any(|&c| a.get(c).unwrap_or(&Value::Null) != b.get(c).unwrap_or(&Value::Null))
    }

    /// Insert `n` copies of a tuple.
    pub fn insert(&mut self, t: &Tuple, n: u64) {
        if n == 0 {
            return;
        }
        match &mut self.buckets {
            Buckets::Single(shards) => {
                let col = self.key_cols[0];
                let key = t.get(col).unwrap_or(&Value::Null);
                let map = Arc::make_mut(&mut shards[shard_of_value(key)]);
                match map.get_mut(key) {
                    Some(bucket) => bucket.insert(t.clone(), n),
                    None => {
                        let mut bucket = Bag::new();
                        bucket.insert(t.clone(), n);
                        map.insert(key.clone(), bucket);
                    }
                }
            }
            Buckets::Multi(shards) => {
                let map = Arc::make_mut(&mut shards[shard_of_tuple_key(t, &self.key_cols)]);
                let key = owned_key(&self.key_cols, t);
                map.entry(key).or_default().insert(t.clone(), n);
            }
        }
    }

    /// Remove `n` copies of a tuple; the caller guarantees presence (the
    /// owning relation's bag is the source of truth).
    pub fn remove(&mut self, t: &Tuple, n: u64) {
        match &mut self.buckets {
            Buckets::Single(shards) => {
                let col = self.key_cols[0];
                let key = t.get(col).unwrap_or(&Value::Null);
                let map = Arc::make_mut(&mut shards[shard_of_value(key)]);
                if let Some(bucket) = map.get_mut(key) {
                    bucket.remove_up_to(t, n);
                    if bucket.is_empty() {
                        map.remove(key);
                    }
                }
            }
            Buckets::Multi(shards) => {
                let map = Arc::make_mut(&mut shards[shard_of_tuple_key(t, &self.key_cols)]);
                let key = owned_key(&self.key_cols, t);
                if let Some(bucket) = map.get_mut(&key) {
                    bucket.remove_up_to(t, n);
                    if bucket.is_empty() {
                        map.remove(&key);
                    }
                }
            }
        }
    }

    /// Turn `n` copies of `old` into `new`; returns whether the key
    /// changed. With an unchanged key the tuple is swapped inside its
    /// bucket — the bucket `Bag` and its map entry stay where they are,
    /// even when `old` was the bucket's only row (a primary-key index
    /// would otherwise free and re-allocate a one-row map per modify).
    /// Same content as `remove` + `insert`.
    pub fn replace(&mut self, old: &Tuple, new: &Tuple, n: u64) -> bool {
        if self.key_changed(old, new) {
            self.remove(old, n);
            self.insert(new, n);
            return true;
        }
        let bucket = match &mut self.buckets {
            Buckets::Single(shards) => {
                let key = old.get(self.key_cols[0]).unwrap_or(&Value::Null);
                Arc::make_mut(&mut shards[shard_of_value(key)]).get_mut(key)
            }
            Buckets::Multi(shards) => {
                let s = shard_of_tuple_key(old, &self.key_cols);
                let key = owned_key(&self.key_cols, old);
                Arc::make_mut(&mut shards[s]).get_mut(&key)
            }
        };
        match bucket {
            Some(bucket) => {
                bucket.remove_up_to(old, n);
                bucket.insert(new.clone(), n);
            }
            // `old` was never indexed (the owning relation's bag is the
            // source of truth): nothing to take out.
            None => self.insert(new, n),
        }
        false
    }

    /// All tuples matching `key`, as a bag (empty if none). The key is
    /// borrowed; no allocation on this path.
    pub fn probe(&self, key: &[Value]) -> Option<&Bag> {
        match &self.buckets {
            Buckets::Single(shards) => {
                let k = key.first()?;
                shards[shard_of_value(k)].get(k)
            }
            Buckets::Multi(shards) => shards[shard_of_slice(key)].get(key),
        }
    }

    /// Number of tuples (counting multiplicity) under `key`.
    pub fn probe_count(&self, key: &[Value]) -> u64 {
        self.probe(key).map_or(0, |b| b.len())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.buckets {
            Buckets::Single(shards) => shards.iter().map(|s| s.len()).sum(),
            Buckets::Multi(shards) => shards.iter().map(|s| s.len()).sum(),
        }
    }

    /// Rebuild from scratch over a bag.
    pub fn rebuild(&mut self, data: &Bag) {
        self.buckets = if self.key_cols.len() == 1 {
            Buckets::Single(empty_shards())
        } else {
            Buckets::Multi(empty_shards())
        };
        for (t, c) in data.iter() {
            self.insert(t, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample() -> HashIndex {
        // Index on column 1 (DName) of (EName, DName, Salary).
        let mut idx = HashIndex::new(vec![1]);
        idx.insert(&tuple!["alice", "Sales", 100], 1);
        idx.insert(&tuple!["bob", "Sales", 80], 1);
        idx.insert(&tuple!["carol", "Eng", 120], 1);
        idx
    }

    #[test]
    fn probe_finds_all_matches() {
        let idx = sample();
        assert_eq!(idx.probe_count(&[Value::str("Sales")]), 2);
        assert_eq!(idx.probe_count(&[Value::str("Eng")]), 1);
        assert_eq!(idx.probe_count(&[Value::str("HR")]), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn remove_cleans_empty_buckets() {
        let mut idx = sample();
        idx.remove(&tuple!["carol", "Eng", 120], 1);
        assert_eq!(idx.probe_count(&[Value::str("Eng")]), 0);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn multiplicity_respected() {
        let mut idx = HashIndex::new(vec![0]);
        idx.insert(&tuple!["k", 1], 3);
        assert_eq!(idx.probe_count(&[Value::str("k")]), 3);
        idx.remove(&tuple!["k", 1], 2);
        assert_eq!(idx.probe_count(&[Value::str("k")]), 1);
    }

    #[test]
    fn composite_keys() {
        let mut idx = HashIndex::new(vec![0, 1]);
        idx.insert(&tuple!["a", 1, 10], 1);
        idx.insert(&tuple!["a", 2, 20], 1);
        assert_eq!(idx.probe_count(&[Value::str("a"), Value::Int(1)]), 1);
        assert_eq!(idx.probe_count(&[Value::str("a"), Value::Int(3)]), 0);
    }

    #[test]
    fn composite_shard_routing_matches_slice_routing() {
        // Maintenance routes by tuple columns, probes by key slice; the two
        // must land in the same shard for every key shape.
        let tuples = [
            tuple!["a", 1, 10],
            tuple![2.5, "b", 3],
            tuple![Value::Null, "x", -7],
            tuple!["long-department-name-here", 0, 0],
        ];
        for t in &tuples {
            for cols in [vec![0usize, 1], vec![2, 0], vec![1, 2, 0]] {
                let key: Vec<Value> = cols
                    .iter()
                    .map(|&c| t.get(c).cloned().unwrap_or(Value::Null))
                    .collect();
                assert_eq!(
                    shard_of_tuple_key(t, &cols),
                    shard_of_slice(&key),
                    "routing diverged for cols {cols:?}"
                );
            }
        }
    }

    #[test]
    fn rebuild_matches_incremental() {
        let data: Bag = [(tuple!["x", 1], 2), (tuple!["y", 2], 1)]
            .into_iter()
            .collect();
        let mut a = HashIndex::new(vec![0]);
        a.rebuild(&data);
        let mut b = HashIndex::new(vec![0]);
        for (t, c) in data.iter() {
            b.insert(t, c);
        }
        assert_eq!(
            a.probe_count(&[Value::str("x")]),
            b.probe_count(&[Value::str("x")])
        );
        assert_eq!(a.distinct_keys(), b.distinct_keys());
    }

    #[test]
    fn key_changed_agrees_with_key_of() {
        let idx = HashIndex::new(vec![1, 2]);
        let a = tuple!["alice", "Sales", 100];
        let b = tuple!["alice", "Sales", 130];
        let c = tuple!["alice", "Eng", 100];
        assert_eq!(idx.key_changed(&a, &b), idx.key_of(&a) != idx.key_of(&b));
        assert_eq!(idx.key_changed(&a, &c), idx.key_of(&a) != idx.key_of(&c));
        assert!(idx.key_changed(&a, &b), "salary is part of this key");
        let dname_only = HashIndex::new(vec![1]);
        assert!(!dname_only.key_changed(&a, &b));
        assert!(dname_only.key_changed(&a, &c));
    }

    #[test]
    fn clone_shares_shards_until_mutation() {
        let a = sample();
        let mut b = a.clone();
        b.insert(&tuple!["dave", "Eng", 90], 1);
        assert_eq!(a.probe_count(&[Value::str("Eng")]), 1, "original untouched");
        assert_eq!(b.probe_count(&[Value::str("Eng")]), 2);
    }
}
