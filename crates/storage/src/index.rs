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
//! Buckets live in one [`crate::fx`] hash map keyed by the index key.
//! Single-column indices — the overwhelmingly common case — take a
//! specialized path keyed by [`Value`] directly, so neither probes nor
//! maintenance ever allocate a key slice; composite indices accept
//! borrowed `&[Value]` probes through `Box<[Value]>: Borrow<[Value]>`
//! (the owned key is built only on maintenance paths).

use crate::bag::Bag;
use crate::fx::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Value;

#[derive(Debug, Clone)]
enum Buckets {
    /// Single-column key: keyed by the value itself, no slice allocation
    /// on any path.
    Single(FxHashMap<Value, Bag>),
    /// Composite key: probed by borrowed `&[Value]`.
    Multi(FxHashMap<Box<[Value]>, Bag>),
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

/// The values of `cols` in `t`, as an owned composite key.
fn owned_key(cols: &[usize], t: &Tuple) -> Box<[Value]> {
    cols.iter()
        .map(|&c| t.get(c).cloned().unwrap_or(Value::Null))
        .collect()
}

impl Buckets {
    /// No buckets, in the form `key_cols` calls for.
    fn for_key(key_cols: &[usize]) -> Self {
        if key_cols.len() == 1 {
            Buckets::Single(FxHashMap::default())
        } else {
            Buckets::Multi(FxHashMap::default())
        }
    }
}

impl HashIndex {
    /// Create an empty index on the given column positions.
    pub fn new(key_cols: Vec<usize>) -> Self {
        let buckets = Buckets::for_key(&key_cols);
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
            Buckets::Single(map) => {
                let key = t.get(self.key_cols[0]).unwrap_or(&Value::Null);
                match map.get_mut(key) {
                    Some(bucket) => bucket.insert(t.clone(), n),
                    None => {
                        let mut bucket = Bag::new();
                        bucket.insert(t.clone(), n);
                        map.insert(key.clone(), bucket);
                    }
                }
            }
            Buckets::Multi(map) => {
                let key = owned_key(&self.key_cols, t);
                map.entry(key).or_default().insert(t.clone(), n);
            }
        }
    }

    /// Remove `n` copies of a tuple; the caller guarantees presence (the
    /// owning relation's bag is the source of truth).
    pub fn remove(&mut self, t: &Tuple, n: u64) {
        match &mut self.buckets {
            Buckets::Single(map) => {
                let key = t.get(self.key_cols[0]).unwrap_or(&Value::Null);
                if let Some(bucket) = map.get_mut(key) {
                    bucket.remove_up_to(t, n);
                    if bucket.is_empty() {
                        map.remove(key);
                    }
                }
            }
            Buckets::Multi(map) => {
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
            Buckets::Single(map) => map.get_mut(old.get(self.key_cols[0]).unwrap_or(&Value::Null)),
            Buckets::Multi(map) => map.get_mut(&owned_key(&self.key_cols, old)),
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
            Buckets::Single(map) => map.get(key.first()?),
            Buckets::Multi(map) => map.get(key),
        }
    }

    /// Number of tuples (counting multiplicity) under `key`.
    pub fn probe_count(&self, key: &[Value]) -> u64 {
        self.probe(key).map_or(0, |b| b.len())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.buckets {
            Buckets::Single(map) => map.len(),
            Buckets::Multi(map) => map.len(),
        }
    }

    /// Rebuild from scratch over a bag.
    pub fn rebuild(&mut self, data: &Bag) {
        self.buckets = Buckets::for_key(&self.key_cols);
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
    fn a_clone_is_independent_of_its_source() {
        let a = sample();
        let mut b = a.clone();
        b.insert(&tuple!["dave", "Eng", 90], 1);
        assert_eq!(a.probe_count(&[Value::str("Eng")]), 1, "original untouched");
        assert_eq!(b.probe_count(&[Value::str("Eng")]), 2);
    }
}
