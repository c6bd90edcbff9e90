//! Multisets of tuples.
//!
//! SQL views have multiset semantics, and incremental maintenance of
//! multiset views is count-based: a [`Bag`] maps each distinct tuple to its
//! multiplicity. This is the common currency between stored relations,
//! query results and (via signed counts in `spacetime-delta`) deltas.
//!
//! A bag is one [`crate::fx`] hash map and its running total. Sharing is
//! the owner's business: a [`crate::relation::Relation`] holds its rows as
//! one `Arc<Bag>`, so a checkpoint shares a table's rows for one `Arc`
//! bump and the first write after it copies them once.

use std::fmt;
use std::sync::OnceLock;

use crate::error::{StorageError, StorageResult};
use crate::fx::FxHashMap;
use crate::tuple::Tuple;

/// A multiset of tuples: distinct tuple → multiplicity (> 0).
#[derive(Debug, Clone, Default)]
pub struct Bag {
    map: FxHashMap<Tuple, u64>,
    total: u64,
}

impl Bag {
    /// The empty bag.
    pub fn new() -> Self {
        Bag::default()
    }

    /// One shared empty bag: what a probe that misses borrows, so a miss
    /// allocates nothing and a hit and a miss have the same type.
    pub fn empty() -> &'static Bag {
        static EMPTY: OnceLock<Bag> = OnceLock::new();
        EMPTY.get_or_init(Bag::new)
    }

    /// Build from an iterator of tuples (each with multiplicity 1).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut b = Bag::new();
        for t in tuples {
            b.insert(t, 1);
        }
        b
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.map.len()
    }

    /// Total number of tuples counting multiplicity.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Multiplicity of a tuple (0 if absent).
    pub fn count(&self, t: &Tuple) -> u64 {
        self.map.get(t).copied().unwrap_or(0)
    }

    /// Whether the tuple occurs at least once.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.count(t) > 0
    }

    /// Insert `n` copies of a tuple. Inserting zero copies is a no-op.
    pub fn insert(&mut self, t: Tuple, n: u64) {
        if n == 0 {
            return;
        }
        *self.map.entry(t).or_insert(0) += n;
        self.total += n;
    }

    /// Remove `n` copies; errors if fewer than `n` copies are present (and
    /// then changes nothing).
    pub fn remove(&mut self, t: &Tuple, n: u64) -> StorageResult<()> {
        if self.take(t, n, true) == n {
            Ok(())
        } else {
            Err(StorageError::TupleNotFound {
                relation: "<bag>".into(),
            })
        }
    }

    /// Take out up to `n` copies of `t` — or, when `exact`, `n` or none —
    /// with a single probe; returns how many went.
    fn take(&mut self, t: &Tuple, n: u64, exact: bool) -> u64 {
        if n == 0 {
            return 0;
        }
        let Some(c) = self.map.get_mut(t) else {
            return 0;
        };
        let have = *c;
        if exact && have < n {
            return 0;
        }
        let take = have.min(n);
        if take < have {
            *c -= take;
        } else {
            self.map.remove(t);
        }
        self.total -= take;
        take
    }

    /// Remove up to `n` copies, returning how many were actually removed.
    pub fn remove_up_to(&mut self, t: &Tuple, n: u64) -> u64 {
        self.take(t, n, false)
    }

    /// Iterate `(tuple, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.map.iter().map(|(t, &c)| (t, c))
    }

    /// Deterministically-ordered `(tuple, multiplicity)` pairs (for output
    /// and testing).
    pub fn sorted(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<_> = self.iter().map(|(t, c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Bag union (additive).
    pub fn union(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        for (t, c) in other.iter() {
            out.insert(t.clone(), c);
        }
        out
    }

    /// Monus (bag difference, truncating at zero): `self ∸ other`.
    pub fn monus(&self, other: &Bag) -> Bag {
        let mut out = Bag::new();
        for (t, c) in self.iter() {
            let o = other.count(t);
            if c > o {
                out.insert(t.clone(), c - o);
            }
        }
        out
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.map == other.map
    }
}
impl Eq for Bag {}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for (t, c) in self.sorted() {
            if c == 1 {
                writeln!(f, "  {t}")?;
            } else {
                writeln!(f, "  {t} x{c}")?;
            }
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Bag {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        Bag::from_tuples(iter)
    }
}

impl FromIterator<(Tuple, u64)> for Bag {
    fn from_iter<T: IntoIterator<Item = (Tuple, u64)>>(iter: T) -> Self {
        let mut b = Bag::new();
        for (t, c) in iter {
            b.insert(t, c);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn multiplicities_accumulate() {
        let mut b = Bag::new();
        b.insert(tuple![1], 2);
        b.insert(tuple![1], 3);
        assert_eq!(b.count(&tuple![1]), 5);
        assert_eq!(b.len(), 5);
        assert_eq!(b.distinct_len(), 1);
    }

    #[test]
    fn insert_zero_is_noop() {
        let mut b = Bag::new();
        b.insert(tuple![1], 0);
        assert!(b.is_empty());
        assert_eq!(b.distinct_len(), 0);
    }

    #[test]
    fn remove_exact_and_partial() {
        let mut b = Bag::new();
        b.insert(tuple![1], 3);
        b.remove(&tuple![1], 2).unwrap();
        assert_eq!(b.count(&tuple![1]), 1);
        b.remove(&tuple![1], 1).unwrap();
        assert!(!b.contains(&tuple![1]));
        assert_eq!(b.distinct_len(), 0, "zero-count entries are dropped");
    }

    #[test]
    fn remove_underflow_errors() {
        let mut b = Bag::new();
        b.insert(tuple![1], 1);
        assert!(b.remove(&tuple![1], 2).is_err());
        assert!(b.remove(&tuple![2], 1).is_err());
        assert_eq!(b.count(&tuple![1]), 1, "failed remove leaves bag intact");
    }

    #[test]
    fn remove_up_to_truncates() {
        let mut b = Bag::new();
        b.insert(tuple![1], 2);
        assert_eq!(b.remove_up_to(&tuple![1], 5), 2);
        assert_eq!(b.remove_up_to(&tuple![1], 5), 0);
    }

    #[test]
    fn union_and_monus() {
        let a: Bag = [(tuple![1], 3), (tuple![2], 1)].into_iter().collect();
        let b: Bag = [(tuple![1], 1), (tuple![3], 2)].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.count(&tuple![1]), 4);
        assert_eq!(u.count(&tuple![3]), 2);
        let m = a.monus(&b);
        assert_eq!(m.count(&tuple![1]), 2);
        assert_eq!(m.count(&tuple![2]), 1);
        assert_eq!(m.count(&tuple![3]), 0);
    }

    #[test]
    fn equality_is_bag_equality() {
        let a: Bag = [(tuple![1], 2)].into_iter().collect();
        let mut b = Bag::new();
        b.insert(tuple![1], 1);
        b.insert(tuple![1], 1);
        assert_eq!(a, b);
    }

    #[test]
    fn sorted_is_deterministic() {
        let a: Bag = [(tuple![2], 1), (tuple![1], 1)].into_iter().collect();
        let s = a.sorted();
        assert_eq!(s[0].0, tuple![1]);
        assert_eq!(s[1].0, tuple![2]);
    }
}
