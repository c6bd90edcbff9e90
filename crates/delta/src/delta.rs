//! The delta type: inserts, deletes, and paired modifications.

use std::borrow::Cow;
use std::collections::HashMap;
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
    fn merge_concatenates() {
        let mut a = Delta::insert(tuple![1], 1);
        a.merge(Delta::delete(tuple![2], 1));
        assert_eq!(a.inserts.len(), 1);
        assert_eq!(a.deletes.len(), 1);
    }
}
