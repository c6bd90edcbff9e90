//! Multisets of tuples.
//!
//! SQL views have multiset semantics, and incremental maintenance of
//! multiset views is count-based: a [`Bag`] maps each distinct tuple to its
//! multiplicity. This is the common currency between stored relations,
//! query results and (via signed counts in `spacetime-delta`) deltas.
//!
//! ## Representation: flat for small, sharded copy-on-write for large
//!
//! Whenever a table is shared — a cloned catalog, a database cloned from
//! a template — the next write copies it (`Arc::make_mut` on the catalog's
//! `Arc<Table>`),
//! so the cost of cloning a bag decides what sharing costs. A small bag
//! (a per-key query result, an index bucket) is a single flat hash map —
//! cheap to build, cheap to drop. Once a bag grows past `PROMOTE_AT`
//! distinct tuples it promotes to `SHARD_COUNT` *individually shared*
//! shards: cloning the bag then costs one `Arc` bump per shard, and a
//! mutation deep-copies only the one shard (~1/`SHARD_COUNT` of the
//! data) it lands in. A write to a shared 40 000-row table copies a few
//! hundred entries instead of 40 000. The transaction path shares
//! nothing (its rollback is an undo journal, not a copy), so there a
//! write copies no shard at all.
//!
//! Shard routing uses the fixed-seed [`crate::fx`] hash, so equal content
//! always produces equal shard layouts; equality between two sharded bags
//! compares shard-wise with an `Arc::ptr_eq` fast path (undisturbed shards
//! of a copied table compare in O(1)).

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::{StorageError, StorageResult};
use crate::fx::{fx_hash_one, FxHashMap};
use crate::tuple::Tuple;

/// Number of shards in the large representation (power of two).
const SHARD_COUNT: usize = 64;

/// Distinct-tuple count beyond which a bag promotes to sharded storage.
/// Low enough that every stored relation in the paper workloads shards,
/// high enough that transient per-key results never pay shard overhead.
const PROMOTE_AT: usize = 192;

type Shard = FxHashMap<Tuple, u64>;

#[derive(Debug, Clone)]
enum Store {
    /// Small: one flat map.
    Flat(Shard),
    /// Large: `SHARD_COUNT` copy-on-write shards, routed by tuple hash.
    Sharded(Vec<Arc<Shard>>),
}

/// A multiset of tuples: distinct tuple → multiplicity (> 0).
#[derive(Debug, Clone)]
pub struct Bag {
    store: Store,
    total: u64,
    distinct: usize,
}

impl Default for Bag {
    fn default() -> Self {
        Bag {
            store: Store::Flat(Shard::default()),
            total: 0,
            distinct: 0,
        }
    }
}

#[inline]
fn shard_of(t: &Tuple) -> usize {
    (fx_hash_one(t) as usize) & (SHARD_COUNT - 1)
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
        self.distinct
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
        match &self.store {
            Store::Flat(m) => m.get(t).copied().unwrap_or(0),
            Store::Sharded(s) => s[shard_of(t)].get(t).copied().unwrap_or(0),
        }
    }

    /// Whether the tuple occurs at least once.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.count(t) > 0
    }

    /// Promote flat storage to sharded storage (one-time copy).
    fn promote(&mut self) {
        let Store::Flat(m) = &mut self.store else {
            return;
        };
        let mut shards: Vec<Shard> = (0..SHARD_COUNT).map(|_| Shard::default()).collect();
        for (t, c) in m.drain() {
            let s = shard_of(&t);
            shards[s].insert(t, c);
        }
        self.store = Store::Sharded(shards.into_iter().map(Arc::new).collect());
    }

    /// Insert `n` copies of a tuple. Inserting zero copies is a no-op.
    pub fn insert(&mut self, t: Tuple, n: u64) {
        if n == 0 {
            return;
        }
        if matches!(&self.store, Store::Flat(_)) && self.distinct >= PROMOTE_AT {
            self.promote();
        }
        let map = match &mut self.store {
            Store::Flat(m) => m,
            Store::Sharded(s) => Arc::make_mut(&mut s[shard_of(&t)]),
        };
        let entry = map.entry(t).or_insert(0);
        if *entry == 0 {
            self.distinct += 1;
        }
        *entry += n;
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
        let map = match &mut self.store {
            Store::Flat(m) => m,
            Store::Sharded(s) => Arc::make_mut(&mut s[shard_of(t)]),
        };
        let Some(c) = map.get_mut(t) else {
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
            map.remove(t);
            self.distinct -= 1;
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
        // One statically-typed chain for both representations (nothing
        // boxed): the flat map, if that is what there is, then the shards.
        let (flat, shards) = match &self.store {
            Store::Flat(m) => (Some(m), &[][..]),
            Store::Sharded(s) => (None, &s[..]),
        };
        flat.into_iter()
            .chain(shards.iter().map(|sh| &**sh))
            .flat_map(|m| m.iter().map(|(t, &c)| (t, c)))
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
        if self.total != other.total || self.distinct != other.distinct {
            return false;
        }
        match (&self.store, &other.store) {
            (Store::Flat(a), Store::Flat(b)) => a == b,
            // Same content ⇒ same shard layout (fixed-seed routing), so
            // compare shard-wise; undisturbed copies are pointer-equal.
            (Store::Sharded(a), Store::Sharded(b)) => {
                a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y) || x == y)
            }
            // Mixed representations can hold equal content (promotion is
            // size-history dependent); fall back to semantic comparison.
            _ => self.iter().all(|(t, c)| other.count(t) == c),
        }
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

    fn big(n: i64) -> Bag {
        (0..n).map(|i| tuple![i]).collect()
    }

    #[test]
    fn promotion_preserves_contents_and_counters() {
        let n = (PROMOTE_AT as i64) * 2;
        let b = big(n);
        assert!(matches!(b.store, Store::Sharded(_)), "must have promoted");
        assert_eq!(b.len(), n as u64);
        assert_eq!(b.distinct_len(), n as usize);
        for i in 0..n {
            assert_eq!(b.count(&tuple![i]), 1);
        }
        assert_eq!(b.iter().count(), n as usize);
    }

    #[test]
    fn sharded_and_flat_bags_with_equal_content_compare_equal() {
        // Build sharded by overshooting then removing; flat directly.
        let n = (PROMOTE_AT as i64) * 2;
        let mut sharded = big(n);
        for i in 100..n {
            sharded.remove(&tuple![i], 1).unwrap();
        }
        let flat = big(100);
        assert!(matches!(sharded.store, Store::Sharded(_)));
        assert!(matches!(flat.store, Store::Flat(_)));
        assert_eq!(sharded, flat);
        assert_eq!(flat, sharded);
        sharded.insert(tuple![-1], 1);
        assert_ne!(sharded, flat);
    }

    #[test]
    fn clone_shares_shards_until_mutation() {
        let n = (PROMOTE_AT as i64) * 2;
        let a = big(n);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.insert(tuple![0], 1); // copies exactly one shard
        assert_eq!(a.count(&tuple![0]), 1, "original untouched");
        assert_eq!(b.count(&tuple![0]), 2);
        if let (Store::Sharded(sa), Store::Sharded(sb)) = (&a.store, &b.store) {
            let shared = sa.iter().zip(sb).filter(|(x, y)| Arc::ptr_eq(x, y)).count();
            assert_eq!(shared, SHARD_COUNT - 1, "only the touched shard copied");
        } else {
            panic!("expected sharded stores");
        }
    }
}
