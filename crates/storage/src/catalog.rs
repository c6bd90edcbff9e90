//! The database catalog: named tables with schema, data, statistics, keys
//! and indices.
//!
//! Both *base relations* and *materialized views* live here — the paper's
//! model treats a materialized view exactly like a stored relation once the
//! optimizer decides to keep it (equivalence nodes for database relations
//! are "already materialized", §3.1).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{StorageError, StorageResult};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::stats::TableStats;

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct Table {
    /// The stored relation (schema + data + indices).
    pub relation: Relation,
    /// Estimation statistics (declared or analyzed).
    pub stats: TableStats,
    /// Candidate keys, as column-position sets. Used by key-based query
    /// elimination (the paper's "Q3d needs no I/O because DName is a key
    /// for Dept") and by the eager-aggregation rewrite rule.
    pub keys: Vec<Vec<usize>>,
    /// Whether this is a base relation (true) or a materialized view.
    pub is_base: bool,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    /// Whether `cols` is a superset of some declared key.
    pub fn cols_contain_key(&self, cols: &[usize]) -> bool {
        self.keys
            .iter()
            .any(|key| key.iter().all(|k| cols.contains(k)))
    }

    /// Refresh statistics from the stored data.
    pub fn analyze(&mut self) {
        let arity = self.relation.schema().arity();
        let tpp = self.stats.tuples_per_page;
        self.stats = TableStats::analyze(self.relation.data(), arity);
        self.stats.tuples_per_page = tpp;
    }
}

/// The catalog: tables by (case-sensitive) name.
///
/// Entries are `Arc`-backed copy-on-write: cloning the catalog shares
/// every table's storage, and the first mutation through
/// [`Catalog::table_mut`] after a share clones just that table. A clone
/// costs one `Arc` clone per table, not a data copy.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a base table.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> StorageResult<&mut Table> {
        self.create_entry(name.into(), schema, true)
    }

    /// Register a materialized view's storage.
    pub fn create_materialized(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> StorageResult<&mut Table> {
        self.create_entry(name.into(), schema, false)
    }

    fn create_entry(
        &mut self,
        name: String,
        schema: Schema,
        is_base: bool,
    ) -> StorageResult<&mut Table> {
        if self.tables.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        let table = Table {
            relation: Relation::new(name.clone(), schema),
            stats: TableStats::default(),
            keys: Vec::new(),
            is_base,
        };
        let entry = self.tables.entry(name).or_insert_with(|| Arc::new(table));
        Ok(Arc::make_mut(entry))
    }

    /// Remove a table.
    pub fn drop_table(&mut self, name: &str) -> StorageResult<Table> {
        self.tables
            .remove(name)
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Look up a table mutably. If the table is shared with a clone of
    /// the catalog, this clones it first (copy-on-write), so the other
    /// catalog never sees the write.
    pub fn table_mut(&mut self, name: &str) -> StorageResult<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Iterate tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t.as_ref()))
    }

    /// Declare a candidate key on a table by column names, creating a hash
    /// index on it as well (keys are always index-backed in our physical
    /// model).
    pub fn declare_key(&mut self, table: &str, key_cols: &[&str]) -> StorageResult<()> {
        let t = self.table_mut(table)?;
        let positions: Vec<usize> = key_cols
            .iter()
            .map(|c| t.relation.schema().resolve_dotted(c))
            .collect::<StorageResult<_>>()?;
        t.relation.create_index(positions.clone())?;
        if !t.keys.contains(&positions) {
            t.keys.push(positions);
        }
        Ok(())
    }

    /// Create a (non-key) hash index by column names.
    pub fn create_index(&mut self, table: &str, cols: &[&str]) -> StorageResult<usize> {
        let t = self.table_mut(table)?;
        let positions: Vec<usize> = cols
            .iter()
            .map(|c| t.relation.schema().resolve_dotted(c))
            .collect::<StorageResult<_>>()?;
        t.relation.create_index(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoMeter;
    use crate::tuple;
    use crate::value::DataType;

    fn demo() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "Dept",
            Schema::of_table(
                "Dept",
                &[
                    ("DName", DataType::Str),
                    ("MName", DataType::Str),
                    ("Budget", DataType::Int),
                ],
            ),
        )
        .unwrap();
        cat.declare_key("Dept", &["DName"]).unwrap();
        cat
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut cat = demo();
        let err = cat
            .create_table("Dept", Schema::of_table("Dept", &[("X", DataType::Int)]))
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateTable(_)));
    }

    #[test]
    fn declare_key_creates_backing_index() {
        let cat = demo();
        let t = cat.table("Dept").unwrap();
        assert_eq!(t.keys, vec![vec![0]]);
        assert!(t.relation.find_index(&[0]).is_some());
        assert!(t.cols_contain_key(&[0, 2]));
        assert!(!t.cols_contain_key(&[1, 2]));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let mut cat = demo();
        assert!(matches!(
            cat.table("Nope"),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(cat.declare_key("Dept", &["Missing"]).is_err());
    }

    #[test]
    fn analyze_reflects_data() {
        let mut cat = demo();
        let mut io = IoMeter::new();
        cat.table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple!["Sales", "mary", 500], 1, &mut io)
            .unwrap();
        cat.table_mut("Dept").unwrap().analyze();
        assert_eq!(cat.table("Dept").unwrap().stats.cardinality, 1);
        assert_eq!(cat.table("Dept").unwrap().stats.distinct[&0], 1);
    }

    #[test]
    fn drop_removes() {
        let mut cat = demo();
        cat.drop_table("Dept").unwrap();
        assert!(!cat.contains("Dept"));
        assert!(cat.drop_table("Dept").is_err());
    }

    #[test]
    fn clone_is_isolated_from_later_writes() {
        let mut cat = demo();
        let mut io = IoMeter::new();
        cat.table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple!["Sales", "mary", 500], 1, &mut io)
            .unwrap();
        let snap = cat.clone();
        assert_eq!(snap.table("Dept").unwrap().relation.len(), 1);
        // Mutate the live catalog: the clone must not see it.
        cat.table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple!["R&D", "ann", 900], 1, &mut io)
            .unwrap();
        assert_eq!(cat.table("Dept").unwrap().relation.len(), 2);
        assert_eq!(snap.table("Dept").unwrap().relation.len(), 1);
        // Dropping a table from the live catalog leaves the clone whole.
        cat.drop_table("Dept").unwrap();
        assert!(snap.table("Dept").is_ok());
    }

    #[test]
    fn clone_shares_storage_until_write() {
        let mut cat = demo();
        let snap = cat.clone();
        // Untouched tables stay physically shared with the clone.
        let live = cat.table("Dept").unwrap() as *const Table;
        let shared = snap.table("Dept").unwrap() as *const Table;
        assert_eq!(live, shared, "clone must not deep-copy");
        // The first write un-shares exactly the written table.
        cat.table_mut("Dept").unwrap().analyze();
        let live = cat.table("Dept").unwrap() as *const Table;
        let shared = snap.table("Dept").unwrap() as *const Table;
        assert_ne!(live, shared, "write must copy-on-write");
    }

    #[test]
    fn materialized_views_are_flagged() {
        let mut cat = demo();
        cat.create_materialized(
            "SumOfSals",
            Schema::of_table(
                "SumOfSals",
                &[("DName", DataType::Str), ("SalSum", DataType::Int)],
            ),
        )
        .unwrap();
        assert!(!cat.table("SumOfSals").unwrap().is_base);
        assert!(cat.table("Dept").unwrap().is_base);
    }
}
