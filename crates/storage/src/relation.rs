//! Stored relations: a bag of tuples plus its hash indices, with all
//! accesses charged to an [`IoMeter`] per the paper's §3.6 accounting rules.

use crate::bag::Bag;
use crate::error::{StorageError, StorageResult};
use crate::index::HashIndex;
use crate::io::IoMeter;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Default number of tuples per data page, used only to price full
/// sequential scans (the paper's example never scans; every access there is
/// index-backed).
pub const DEFAULT_TUPLES_PER_PAGE: u64 = 10;

/// A stored relation (base table or materialized view).
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    data: Bag,
    indexes: Vec<HashIndex>,
    tuples_per_page: u64,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            data: Bag::new(),
            indexes: Vec::new(),
            tuples_per_page: DEFAULT_TUPLES_PER_PAGE,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total tuple count (with multiplicity).
    pub fn len(&self) -> u64 {
        self.data.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of data pages occupied (for scan pricing).
    pub fn pages(&self) -> u64 {
        self.data.len().div_ceil(self.tuples_per_page)
    }

    /// Override the tuples-per-page packing factor.
    pub fn set_tuples_per_page(&mut self, tpp: u64) {
        assert!(tpp > 0, "tuples_per_page must be positive");
        self.tuples_per_page = tpp;
    }

    /// The tuples-per-page packing factor (checkpoints persist it).
    pub fn tuples_per_page(&self) -> u64 {
        self.tuples_per_page
    }

    /// Direct (uncharged) access to the underlying bag — for verification
    /// oracles and statistics gathering, not for costed query paths.
    pub fn data(&self) -> &Bag {
        &self.data
    }

    /// The index definitions (column position sets).
    pub fn index_defs(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|i| i.key_cols().to_vec()).collect()
    }

    /// Create (or find) a hash index on the given column positions.
    pub fn create_index(&mut self, key_cols: Vec<usize>) -> StorageResult<usize> {
        for &c in &key_cols {
            if c >= self.schema.arity() {
                return Err(StorageError::BadIndexColumns(format!(
                    "column position {c} out of range for `{}`",
                    self.name
                )));
            }
        }
        if let Some(id) = self.find_index(&key_cols) {
            return Ok(id);
        }
        let mut idx = HashIndex::new(key_cols);
        idx.rebuild(&self.data);
        self.indexes.push(idx);
        Ok(self.indexes.len() - 1)
    }

    /// Find an existing index on exactly these columns.
    pub fn find_index(&self, key_cols: &[usize]) -> Option<usize> {
        self.indexes.iter().position(|i| i.key_cols() == key_cols)
    }

    /// The column positions of index `index_id`.
    pub fn index_key_cols(&self, index_id: usize) -> &[usize] {
        self.indexes[index_id].key_cols()
    }

    /// Best index for an exact-match probe on `cols`: an index whose column
    /// *order* equals `cols` wins (the probe key can be used verbatim);
    /// failing that, any index on the same column *set* is usable but the
    /// caller must permute the key into the index's order. Returns
    /// `(index_id, needs_permutation)`.
    pub fn find_exact_index(&self, cols: &[usize]) -> Option<(usize, bool)> {
        let mut fallback = None;
        for (id, idx) in self.indexes.iter().enumerate() {
            let def = idx.key_cols();
            if def == cols {
                return Some((id, false));
            }
            if fallback.is_none() && def.len() == cols.len() && def.iter().all(|c| cols.contains(c))
            {
                fallback = Some((id, true));
            }
        }
        fallback
    }

    /// Uncharged index probe: the bucket of tuples matching `key`, if any.
    /// For self-maintenance reads whose I/O is accounted elsewhere (the
    /// §3.6 "reading, modifying and writing 1 tuple" arithmetic charges the
    /// read when the update is applied) — not for costed query paths.
    pub fn peek(&self, index_id: usize, key: &[Value]) -> Option<&Bag> {
        self.indexes[index_id].probe(key)
    }

    /// Indexed lookup: charges 1 index page + one data page per returned
    /// tuple, and returns the matching bucket where it lies — borrowed,
    /// never copied; a miss borrows the shared [`Bag::empty`].
    pub fn lookup(&self, index_id: usize, key: &[Value], io: &mut IoMeter) -> &Bag {
        io.index_probe();
        let result = self.indexes[index_id].probe(key).unwrap_or(Bag::empty());
        io.read_tuples(result.len());
        result
    }

    /// Full scan: charges sequential pages and returns the bag.
    pub fn scan(&self, io: &mut IoMeter) -> &Bag {
        io.scan_pages(self.pages());
        &self.data
    }

    /// Insert `n` copies of a tuple, charging maintenance I/O:
    /// one index page read **and write** per index (the bucket contents
    /// change), plus one data page write per inserted tuple.
    pub fn insert(&mut self, t: Tuple, n: u64, io: &mut IoMeter) -> StorageResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.schema.validate(&t)?;
        for idx in &mut self.indexes {
            io.index_probe();
            io.index_write(1);
            idx.insert(&t, n);
        }
        io.write_tuples(n);
        self.data.insert(t, n);
        Ok(())
    }

    /// Delete `n` copies of a tuple, charging one index page read+write per
    /// index, one data page read per tuple located and one write per tuple
    /// removed.
    pub fn delete(&mut self, t: &Tuple, n: u64, io: &mut IoMeter) -> StorageResult<()> {
        if n == 0 {
            return Ok(());
        }
        // The bag is the source of truth: its remove is the presence check
        // (a failed one changes and charges nothing).
        self.data.remove(t, n).map_err(|_| self.not_found())?;
        for idx in &mut self.indexes {
            io.index_probe();
            io.index_write(1);
            idx.remove(t, n);
        }
        io.read_tuples(n);
        io.write_tuples(n);
        Ok(())
    }

    fn not_found(&self) -> StorageError {
        StorageError::TupleNotFound {
            relation: self.name.clone(),
        }
    }

    /// Modify `n` copies of `old` into `new`, charging per the paper's
    /// convention: one index page read per index, an index page **write only
    /// when that index's key actually changed**, one data page read per
    /// tuple (fetch the old value) and one write per tuple (store the new
    /// value).
    ///
    /// This is the §3.6 arithmetic: maintaining N3 under a salary change
    /// touches 1 tuple → 1 index read + 1 data read + 1 data write = 3;
    /// maintaining N4 under a budget change touches 10 tuples →
    /// 1 + 10 + 10 = 21.
    pub fn modify(
        &mut self,
        old: &Tuple,
        new: Tuple,
        n: u64,
        io: &mut IoMeter,
    ) -> StorageResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.schema.validate(&new)?;
        self.data.remove(old, n).map_err(|_| self.not_found())?;
        for idx in &mut self.indexes {
            io.index_probe();
            if idx.replace(old, &new, n) {
                io.index_write(1);
            }
        }
        io.read_tuples(n);
        io.write_tuples(n);
        self.data.insert(new, n);
        Ok(())
    }

    /// Replace the entire contents (initial load / full recompute); charges
    /// nothing — loads are outside the maintenance-cost accounting.
    pub fn load(&mut self, data: Bag) -> StorageResult<()> {
        for (t, _) in data.iter() {
            self.schema.validate(t)?;
        }
        for idx in &mut self.indexes {
            idx.rebuild(&data);
        }
        self.data = data;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::DataType;

    fn emp() -> Relation {
        let mut r = Relation::new(
            "Emp",
            Schema::of_table(
                "Emp",
                &[
                    ("EName", DataType::Str),
                    ("DName", DataType::Str),
                    ("Salary", DataType::Int),
                ],
            ),
        );
        r.create_index(vec![1]).unwrap();
        let mut io = IoMeter::new();
        for (e, d, s) in [
            ("alice", "Sales", 100),
            ("bob", "Sales", 80),
            ("carol", "Eng", 120),
        ] {
            r.insert(tuple![e, d, s], 1, &mut io).unwrap();
        }
        r
    }

    #[test]
    fn lookup_charges_paper_cost() {
        let r = emp();
        let mut io = IoMeter::new();
        let hits = r.lookup(0, &[Value::str("Sales")], &mut io);
        assert_eq!(hits.len(), 2);
        assert_eq!(io.total(), 3, "1 index page + 2 tuple pages");
        let miss = r.lookup(0, &[Value::str("HR")], &mut io);
        assert!(miss.is_empty());
        assert_eq!(io.total(), 4, "a miss still reads the index page");
    }

    #[test]
    fn modify_without_key_change_skips_index_write() {
        let mut r = emp();
        let mut io = IoMeter::new();
        r.modify(
            &tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
            &mut io,
        )
        .unwrap();
        // 1 index read + 1 data read + 1 data write = 3 (paper's N3 cost).
        assert_eq!(io.total(), 3);
        assert_eq!(io.index_page_writes, 0);
    }

    #[test]
    fn modify_with_key_change_writes_index() {
        let mut r = emp();
        let mut io = IoMeter::new();
        r.modify(
            &tuple!["alice", "Sales", 100],
            tuple!["alice", "Eng", 100],
            1,
            &mut io,
        )
        .unwrap();
        assert_eq!(io.index_page_writes, 1);
        let mut io2 = IoMeter::new();
        assert_eq!(r.lookup(0, &[Value::str("Eng")], &mut io2).len(), 2);
    }

    #[test]
    fn same_key_modify_equals_the_remove_insert_path() {
        // The paper's N3 case (1 tuple: 1 + 1 + 1 = 3 pages) and N4 case
        // (10 tuples under one key: 1 + 10 + 10 = 21), on an index whose
        // key the modification leaves alone. `modify` swaps the tuple
        // inside its bucket; `delete` + `insert` is the remove + insert
        // path it replaced. Everything observable must agree.
        for (n, pages) in [(1u64, 3u64), (10, 21)] {
            let (old, new) = (tuple!["alice", "Sales", 100], tuple!["alice", "Sales", 130]);
            let mut r = emp();
            let mut io = IoMeter::new();
            r.insert(old.clone(), n - 1, &mut io).unwrap(); // n copies in all
            let (mut swapped, mut reference) = (r.clone(), r);

            let mut io = IoMeter::new();
            swapped.modify(&old, new.clone(), n, &mut io).unwrap();
            assert_eq!(io.total(), pages, "{io}");
            assert_eq!(io.index_page_writes, 0, "the key did not change");
            let mut ref_io = IoMeter::new();
            reference.delete(&old, n, &mut ref_io).unwrap();
            reference.insert(new.clone(), n, &mut ref_io).unwrap();

            assert_eq!(swapped.data(), reference.data());
            for key in ["Sales", "Eng", "HR"] {
                let key = [Value::str(key)];
                assert_eq!(swapped.peek(0, &key), reference.peek(0, &key));
                let (mut a, mut b) = (IoMeter::new(), IoMeter::new());
                assert_eq!(
                    swapped.lookup(0, &key, &mut a),
                    reference.lookup(0, &key, &mut b)
                );
                assert_eq!(a, b, "a probe is charged the same either way");
            }
            assert_eq!(
                swapped.peek(0, &[Value::str("Sales")]).unwrap().count(&new),
                n
            );
        }
    }

    #[test]
    fn same_key_modify_keeps_a_one_row_bucket_in_place() {
        // A primary-key index: `old` is its bucket's only row. The bucket
        // must survive the swap (not be dropped and re-created) and hold
        // exactly the new row afterwards.
        let mut r = emp();
        let pk = r.create_index(vec![0]).unwrap();
        let before = r.peek(pk, &[Value::str("alice")]).unwrap() as *const Bag;
        let mut io = IoMeter::new();
        r.modify(
            &tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
            &mut io,
        )
        .unwrap();
        assert_eq!(io.total(), 4, "2 index reads + 1 data read + 1 data write");
        let bucket = r.peek(pk, &[Value::str("alice")]).unwrap();
        assert!(std::ptr::eq(before, bucket), "same bucket, same map entry");
        assert_eq!(bucket.sorted(), vec![(tuple!["alice", "Sales", 130], 1)]);
        // A failed modify changes and charges nothing.
        let mut io = IoMeter::new();
        let err = r.modify(
            &tuple!["ghost", "HR", 1],
            tuple!["ghost", "HR", 2],
            1,
            &mut io,
        );
        assert!(matches!(err, Err(StorageError::TupleNotFound { .. })));
        assert_eq!((io.total(), r.len()), (0, 3));
    }

    #[test]
    fn delete_missing_tuple_errors() {
        let mut r = emp();
        let mut io = IoMeter::new();
        let err = r.delete(&tuple!["dave", "HR", 50], 1, &mut io).unwrap_err();
        assert!(matches!(err, StorageError::TupleNotFound { .. }));
        assert_eq!(io.total(), 0, "failed delete charges nothing");
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = emp();
        let mut io = IoMeter::new();
        assert!(r.insert(tuple![1, 2], 1, &mut io).is_err());
        assert!(r.insert(tuple![1, "Sales", 10], 1, &mut io).is_err());
    }

    #[test]
    fn scan_charges_pages() {
        let mut r = emp();
        r.set_tuples_per_page(2);
        let mut io = IoMeter::new();
        let all = r.scan(&mut io);
        assert_eq!(all.len(), 3);
        assert_eq!(io.total(), 2, "3 tuples at 2/page = 2 pages");
    }

    #[test]
    fn load_rebuilds_indexes_without_charges() {
        let mut r = emp();
        let fresh: Bag = [(tuple!["zed", "Ops", 70], 2)].into_iter().collect();
        r.load(fresh).unwrap();
        let mut io = IoMeter::new();
        assert_eq!(r.lookup(0, &[Value::str("Ops")], &mut io).len(), 2);
        assert_eq!(r.lookup(0, &[Value::str("Sales")], &mut io).len(), 0);
    }

    #[test]
    fn exact_index_prefers_matching_column_order() {
        let mut r = emp();
        // Two indexes on the same column set, opposite orders.
        let rev = r.create_index(vec![1, 0]).unwrap();
        let fwd = r.create_index(vec![0, 1]).unwrap();
        // A probe on [0, 1] must pick the order-matching index (no remap).
        assert_eq!(r.find_exact_index(&[0, 1]), Some((fwd, false)));
        assert_eq!(r.find_exact_index(&[1, 0]), Some((rev, false)));
        // With only the reversed index present, the set-match fallback
        // fires and reports that the probe key needs permuting.
        let mut r2 = emp();
        let only = r2.create_index(vec![1, 0]).unwrap();
        assert_eq!(r2.find_exact_index(&[0, 1]), Some((only, true)));
        // No index on the set at all.
        assert_eq!(r.find_exact_index(&[2]), None);
    }

    #[test]
    fn exact_index_permuted_fallback_probes_correctly() {
        let mut r = emp();
        // Same column *set* as the probe, but non-identity order — and a
        // same-length decoy on a different set that must never match.
        let decoy = r.create_index(vec![1, 2]).unwrap();
        let idx = r.create_index(vec![2, 0]).unwrap();
        let (found, permute) = r.find_exact_index(&[0, 2]).expect("set matches");
        assert_eq!(found, idx);
        assert!(permute, "order differs, caller must remap the key");
        assert_ne!(found, decoy, "a different column set must not match");
        // Remap the probe key [EName, Salary] into the index's [2, 0]
        // order, exactly as the engine's self-maintenance path does.
        let cols = [0usize, 2];
        let key = [Value::str("alice"), Value::Int(100)];
        let probe: Vec<Value> = r
            .index_key_cols(found)
            .iter()
            .map(|c| key[cols.iter().position(|x| x == c).unwrap()].clone())
            .collect();
        assert_eq!(probe, vec![Value::Int(100), Value::str("alice")]);
        let bag = r.peek(found, &probe).expect("row present");
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.sorted()[0].0, tuple!["alice", "Sales", 100]);
        // Probing with the *unpermuted* key misses: the fallback is only
        // sound together with the remap.
        assert!(r.peek(found, &key).is_none());
    }

    #[test]
    fn peek_is_uncharged_and_matches_lookup() {
        let r = emp();
        let mut io = IoMeter::new();
        let via_lookup = r.lookup(0, &[Value::str("Sales")], &mut io);
        let via_peek = r.peek(0, &[Value::str("Sales")]).unwrap();
        assert_eq!(via_lookup, via_peek);
        assert!(std::ptr::eq(via_lookup, via_peek), "both borrow the bucket");
        assert_eq!(io.total(), 3, "lookup charged; peek added nothing");
        assert!(r.peek(0, &[Value::str("HR")]).is_none());
    }

    #[test]
    fn create_index_is_idempotent_and_validated() {
        let mut r = emp();
        let a = r.create_index(vec![1]).unwrap();
        let b = r.create_index(vec![1]).unwrap();
        assert_eq!(a, b);
        assert!(r.create_index(vec![9]).is_err());
    }
}
