//! The delta type: inserts, deletes, and paired modifications.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

use spacetime_storage::{Bag, StorageResult, Tuple, Value};

/// A modification of `count` copies of `old` into `new`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Modify {
    /// The tuple's previous value.
    pub old: Tuple,
    /// The tuple's new value.
    pub new: Tuple,
    /// How many copies change.
    pub count: u64,
}

impl Modify {
    /// A single-copy modification.
    pub fn one(old: Tuple, new: Tuple) -> Self {
        Modify { old, new, count: 1 }
    }
}

/// A differential on a relation or view: the paper's "differentials that
/// include inserted tuples, deleted tuples, and modified tuples" (§2.2).
///
/// Invariant maintained by constructors: `count > 0` everywhere and no
/// modify pair with `old == new`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// Tuples inserted.
    pub inserts: Bag,
    /// Tuples deleted.
    pub deletes: Bag,
    /// Tuples modified in place.
    pub modifies: Vec<Modify>,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// A pure-insert delta.
    pub fn insert(t: Tuple, n: u64) -> Self {
        let mut d = Delta::new();
        d.inserts.insert(t, n);
        d
    }

    /// A pure-delete delta.
    pub fn delete(t: Tuple, n: u64) -> Self {
        let mut d = Delta::new();
        d.deletes.insert(t, n);
        d
    }

    /// A single modification delta.
    pub fn modify(old: Tuple, new: Tuple, n: u64) -> Self {
        let mut d = Delta::new();
        d.push_modify(old, new, n);
        d
    }

    /// Add a modification, dropping no-ops.
    pub fn push_modify(&mut self, old: Tuple, new: Tuple, n: u64) {
        if n == 0 || old == new {
            return;
        }
        self.modifies.push(Modify { old, new, count: n });
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.modifies.is_empty()
    }

    /// Total touched tuple count (inserts + deletes + modified pairs) — the
    /// paper's "size of the delta" statistic.
    pub fn size(&self) -> u64 {
        self.inserts.len() + self.deletes.len() + self.modifies.iter().map(|m| m.count).sum::<u64>()
    }

    /// Fold modifications into inserts+deletes (loses pairing).
    pub fn normalized(&self) -> Delta {
        let mut d = Delta {
            inserts: self.inserts.clone(),
            deletes: self.deletes.clone(),
            modifies: Vec::new(),
        };
        for m in &self.modifies {
            d.deletes.insert(m.old.clone(), m.count);
            d.inserts.insert(m.new.clone(), m.count);
        }
        d.cancel();
        d
    }

    /// Cancel tuples appearing in both inserts and deletes.
    fn cancel(&mut self) {
        let common: Vec<(Tuple, u64)> = self
            .inserts
            .iter()
            .filter_map(|(t, c)| {
                let d = self.deletes.count(t);
                if d > 0 {
                    Some((t.clone(), c.min(d)))
                } else {
                    None
                }
            })
            .collect();
        for (t, n) in common {
            self.inserts.remove(&t, n).expect("count checked");
            self.deletes.remove(&t, n).expect("count checked");
        }
    }

    /// Net signed multiplicities: tuple → (inserted − deleted), with
    /// modifications folded in. Zero-net tuples are omitted.
    pub fn net(&self) -> HashMap<Tuple, i64> {
        let mut out: HashMap<Tuple, i64> = HashMap::new();
        let norm = self.normalized();
        for (t, c) in norm.inserts.iter() {
            *out.entry(t.clone()).or_insert(0) += c as i64;
        }
        for (t, c) in norm.deletes.iter() {
            *out.entry(t.clone()).or_insert(0) -= c as i64;
        }
        out.retain(|_, v| *v != 0);
        out
    }

    /// Merge another delta after this one (simple concatenation; no
    /// cross-cancellation of modify chains).
    pub fn merge(&mut self, other: Delta) {
        for (t, c) in other.inserts.iter() {
            self.inserts.insert(t.clone(), c);
        }
        for (t, c) in other.deletes.iter() {
            self.deletes.insert(t.clone(), c);
        }
        self.modifies.extend(other.modifies);
    }

    /// Partition this delta across `n` shard domains by routing every
    /// tuple through `route`. Modifications whose old and new sides route
    /// to the same shard stay paired there; a shard-crossing modification
    /// degrades to a delete in the old shard plus an insert in the new one
    /// (the same group-migration logic as [`Delta::split_modifies_on`],
    /// applied to shard domains). The concatenation of the returned deltas
    /// is therefore equivalent to `self` up to modify pairing. Routing
    /// errors (e.g. an undeclared shard key) abort the split.
    pub fn split_by<F>(&self, n: usize, mut route: F) -> StorageResult<Vec<Delta>>
    where
        F: FnMut(&Tuple) -> StorageResult<usize>,
    {
        let mut parts = vec![Delta::new(); n.max(1)];
        for (t, c) in self.inserts.iter() {
            parts[route(t)?].inserts.insert(t.clone(), c);
        }
        for (t, c) in self.deletes.iter() {
            parts[route(t)?].deletes.insert(t.clone(), c);
        }
        for m in &self.modifies {
            let from = route(&m.old)?;
            let to = route(&m.new)?;
            if from == to {
                parts[from].modifies.push(m.clone());
            } else {
                parts[from].deletes.insert(m.old.clone(), m.count);
                parts[to].inserts.insert(m.new.clone(), m.count);
            }
        }
        Ok(parts)
    }

    /// Split modifications whose projection onto `cols` changed into
    /// delete+insert pairs, keeping same-key modifications paired. Used by
    /// the aggregate rule (a salary change stays a modification within its
    /// department's group; a department transfer becomes a delete from one
    /// group and an insert into another) and by the join rule (same logic
    /// on the join columns). A delta with nothing to split is handed back
    /// as it is, borrowed.
    pub fn split_modifies_on(&self, cols: &[usize]) -> Cow<'_, Delta> {
        let same_key = |m: &Modify| {
            cols.iter().all(|&c| {
                m.old.get(c).unwrap_or(&Value::Null) == m.new.get(c).unwrap_or(&Value::Null)
            })
        };
        if self.modifies.iter().all(same_key) {
            return Cow::Borrowed(self);
        }
        let mut d = Delta {
            inserts: self.inserts.clone(),
            deletes: self.deletes.clone(),
            modifies: Vec::new(),
        };
        for m in &self.modifies {
            if same_key(m) {
                d.modifies.push(m.clone());
            } else {
                d.deletes.insert(m.old.clone(), m.count);
                d.inserts.insert(m.new.clone(), m.count);
            }
        }
        Cow::Owned(d)
    }

    /// The distinct values of `cols` touched by this delta (both old and
    /// new sides) — the paper's "affected groups" / probe keys.
    pub fn touched_keys(&self, cols: &[usize]) -> BTreeSet<Vec<Value>> {
        let mut keys = BTreeSet::new();
        let project = |t: &Tuple| -> Vec<Value> {
            cols.iter()
                .map(|&c| t.get(c).cloned().unwrap_or(Value::Null))
                .collect()
        };
        for (t, _) in self.inserts.iter() {
            keys.insert(project(t));
        }
        for (t, _) in self.deletes.iter() {
            keys.insert(project(t));
        }
        for m in &self.modifies {
            keys.insert(project(&m.old));
            keys.insert(project(&m.new));
        }
        keys
    }

    /// Apply to an in-memory bag (the verification oracle's state
    /// transition). Errors if a delete or modify refers to absent tuples.
    pub fn apply_to(&self, bag: &mut Bag) -> StorageResult<()> {
        for (t, c) in self.deletes.iter() {
            bag.remove(t, c)?;
        }
        for m in &self.modifies {
            bag.remove(&m.old, m.count)?;
        }
        for m in &self.modifies {
            bag.insert(m.new.clone(), m.count);
        }
        for (t, c) in self.inserts.iter() {
            bag.insert(t.clone(), c);
        }
        Ok(())
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Delta {{")?;
        for (t, c) in self.inserts.sorted() {
            writeln!(f, "  +{t} x{c}")?;
        }
        for (t, c) in self.deletes.sorted() {
            writeln!(f, "  -{t} x{c}")?;
        }
        for m in &self.modifies {
            writeln!(f, "  {} -> {} x{}", m.old, m.new, m.count)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_storage::tuple;

    #[test]
    fn split_by_keeps_same_shard_modifies_paired() {
        // Route by the first column. Old and new agree on it, so the
        // modification stays a modification — in its own shard, with
        // the multiplicity preserved.
        let d = Delta::modify(tuple![1, "a"], tuple![1, "b"], 3);
        let parts = d.split_by(4, |t| match t.get(0) {
            Some(Value::Int(k)) => Ok(*k as usize % 4),
            _ => unreachable!(),
        })
        .unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[1].modifies.len(), 1);
        assert_eq!(parts[1].modifies[0].old, tuple![1, "a"]);
        assert_eq!(parts[1].modifies[0].new, tuple![1, "b"]);
        assert_eq!(parts[1].modifies[0].count, 3);
        assert!(parts[1].inserts.is_empty() && parts[1].deletes.is_empty());
        for (s, p) in parts.iter().enumerate() {
            if s != 1 {
                assert!(p.is_empty(), "shard {s} should be untouched");
            }
        }
    }

    #[test]
    fn split_by_degrades_cross_shard_modify_to_delete_insert() {
        // The key column changes, so the old and new sides route to
        // different shards: a delete where the tuple was, an insert
        // where it moved to, counts > 1 preserved on both sides, and no
        // modify survives anywhere.
        let d = Delta::modify(tuple![2, "a"], tuple![5, "a"], 7);
        let parts = d.split_by(4, |t| match t.get(0) {
            Some(Value::Int(k)) => Ok(*k as usize % 4),
            _ => unreachable!(),
        })
        .unwrap();
        assert!(parts.iter().all(|p| p.modifies.is_empty()));
        assert_eq!(parts[2].deletes.count(&tuple![2, "a"]), 7);
        assert!(parts[2].inserts.is_empty());
        assert_eq!(parts[1].inserts.count(&tuple![5, "a"]), 7);
        assert!(parts[1].deletes.is_empty());
        // Net effect is preserved: concatenating the parts equals the
        // normalized original.
        let mut merged = Delta::new();
        for p in parts {
            merged.merge(p);
        }
        assert_eq!(merged, d.normalized());
    }

    #[test]
    fn split_by_mixed_modifies_route_independently() {
        // One same-shard and one cross-shard modification in a single
        // delta: the first stays paired, the second degrades; inserts
        // and deletes route alongside untouched.
        let mut d = Delta::insert(tuple![4, "i"], 2);
        d.deletes.insert(tuple![8, "d"], 1);
        d.push_modify(tuple![0, "x"], tuple![0, "y"], 2); // same shard 0
        d.push_modify(tuple![1, "x"], tuple![2, "x"], 5); // shard 1 -> 2
        let parts = d.split_by(3, |t| match t.get(0) {
            Some(Value::Int(k)) => Ok(*k as usize % 3),
            _ => unreachable!(),
        })
        .unwrap();
        assert_eq!(parts[0].modifies.len(), 1, "same-shard modify stays");
        assert_eq!(parts[0].modifies[0].count, 2);
        assert_eq!(parts[1].deletes.count(&tuple![1, "x"]), 5);
        assert_eq!(parts[2].inserts.count(&tuple![2, "x"]), 5);
        assert!(parts[1].modifies.is_empty() && parts[2].modifies.is_empty());
        // The plain inserts/deletes landed on their own shards (4 % 3 =
        // 1, 8 % 3 = 2).
        assert_eq!(parts[1].inserts.count(&tuple![4, "i"]), 2);
        assert_eq!(parts[2].deletes.count(&tuple![8, "d"]), 1);
    }

    #[test]
    fn split_by_routing_error_aborts() {
        let d = Delta::modify(tuple![1, "a"], tuple![2, "a"], 1);
        let r = d.split_by(2, |_| {
            Err(spacetime_storage::StorageError::BadIndexColumns(
                "no shard key".into(),
            ))
        });
        assert!(r.is_err());
    }

    #[test]
    fn noop_modifies_dropped() {
        let d = Delta::modify(tuple![1, 2], tuple![1, 2], 1);
        assert!(d.is_empty());
        let d = Delta::modify(tuple![1, 2], tuple![1, 3], 0);
        assert!(d.is_empty());
    }

    #[test]
    fn normalize_folds_modifies() {
        let d = Delta::modify(tuple!["a", 1], tuple!["a", 2], 3);
        let n = d.normalized();
        assert_eq!(n.deletes.count(&tuple!["a", 1]), 3);
        assert_eq!(n.inserts.count(&tuple!["a", 2]), 3);
        assert!(n.modifies.is_empty());
    }

    #[test]
    fn normalize_cancels_churn() {
        let mut d = Delta::insert(tuple![1], 2);
        d.deletes.insert(tuple![1], 1);
        let n = d.normalized();
        assert_eq!(n.inserts.count(&tuple![1]), 1);
        assert_eq!(n.deletes.count(&tuple![1]), 0);
    }

    #[test]
    fn net_is_signed() {
        let mut d = Delta::insert(tuple![1], 1);
        d.deletes.insert(tuple![2], 2);
        d.push_modify(tuple![3], tuple![4], 1);
        let net = d.net();
        assert_eq!(net[&tuple![1]], 1);
        assert_eq!(net[&tuple![2]], -2);
        assert_eq!(net[&tuple![3]], -1);
        assert_eq!(net[&tuple![4]], 1);
    }

    #[test]
    fn split_modifies_by_group_key() {
        let mut d = Delta::new();
        // Salary change within Sales: stays paired.
        d.push_modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 120],
            1,
        );
        // Department transfer: becomes delete+insert.
        d.push_modify(tuple!["bob", "Sales", 80], tuple!["bob", "Eng", 80], 1);
        let s = d.split_modifies_on(&[1]);
        assert_eq!(s.modifies.len(), 1);
        assert_eq!(s.deletes.count(&tuple!["bob", "Sales", 80]), 1);
        assert_eq!(s.inserts.count(&tuple!["bob", "Eng", 80]), 1);
    }

    #[test]
    fn touched_keys_covers_old_and_new() {
        let d = Delta::modify(tuple!["bob", "Sales", 80], tuple!["bob", "Eng", 80], 1);
        let keys = d.touched_keys(&[1]);
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&vec![Value::str("Sales")]));
        assert!(keys.contains(&vec![Value::str("Eng")]));
    }

    #[test]
    fn apply_to_bag_roundtrip() {
        let mut bag: Bag = [(tuple!["a"], 2), (tuple!["b"], 1)].into_iter().collect();
        let mut d = Delta::insert(tuple!["c"], 1);
        d.deletes.insert(tuple!["a"], 1);
        d.push_modify(tuple!["b"], tuple!["b2"], 1);
        d.apply_to(&mut bag).unwrap();
        assert_eq!(bag.count(&tuple!["a"]), 1);
        assert_eq!(bag.count(&tuple!["b"]), 0);
        assert_eq!(bag.count(&tuple!["b2"]), 1);
        assert_eq!(bag.count(&tuple!["c"]), 1);
    }

    #[test]
    fn apply_to_bag_rejects_missing() {
        let mut bag = Bag::new();
        let d = Delta::delete(tuple!["x"], 1);
        assert!(d.apply_to(&mut bag).is_err());
    }

    #[test]
    fn size_counts_all_kinds() {
        let mut d = Delta::insert(tuple![1], 2);
        d.deletes.insert(tuple![2], 1);
        d.push_modify(tuple![3], tuple![4], 5);
        assert_eq!(d.size(), 8);
    }

    #[test]
    fn split_by_routes_and_degrades_crossings() {
        let mut d = Delta::insert(tuple!["a", 0], 1);
        d.deletes.insert(tuple!["b", 1], 2);
        // Same-shard modify stays paired; cross-shard one degrades.
        d.push_modify(tuple!["c", 1, 10], tuple!["c", 1, 20], 1);
        d.push_modify(tuple!["m", 0, 5], tuple!["m", 1, 5], 3);
        let route = |t: &Tuple| -> spacetime_storage::StorageResult<usize> {
            Ok(match t.get(1).unwrap() {
                Value::Int(i) => (*i as usize) % 2,
                _ => 0,
            })
        };
        let parts = d.split_by(2, route).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].inserts.count(&tuple!["a", 0]), 1);
        assert_eq!(parts[1].deletes.count(&tuple!["b", 1]), 2);
        assert_eq!(parts[1].modifies.len(), 1);
        assert_eq!(parts[0].deletes.count(&tuple!["m", 0, 5]), 3);
        assert_eq!(parts[1].inserts.count(&tuple!["m", 1, 5]), 3);
        // The concatenation preserves net effect.
        let mut merged = Delta::new();
        for p in parts {
            merged.merge(p);
        }
        assert_eq!(merged.net(), d.net());
    }

    #[test]
    fn split_by_propagates_route_errors() {
        let d = Delta::insert(tuple!["a"], 1);
        let res = d.split_by(2, |_| {
            Err(spacetime_storage::StorageError::Internal("boom".into()))
        });
        assert!(res.is_err());
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Delta::insert(tuple![1], 1);
        a.merge(Delta::delete(tuple![2], 1));
        assert_eq!(a.inserts.len(), 1);
        assert_eq!(a.deletes.len(), 1);
    }
}
