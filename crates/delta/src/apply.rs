//! Applying deltas to storage.
//!
//! [`apply_to_relation_undo`] performs the physical updates and therefore
//! incurs the paper's *"cost of performing updates to V"* (§3.4): per
//! touched tuple, index page reads (and writes when a key changes), a data
//! page read of the old value and a data page write of the new value —
//! charged by [`Relation`]'s mutation methods.
//!
//! Every successful relation op is recorded in an [`UndoLog`] so a failure
//! later in the same transaction — in the same update or in a later one —
//! can be rolled back by replaying exact inverse ops in reverse order: no
//! copy-on-write staging, no whole-table copies.

use spacetime_storage::{Bag, Catalog, IoMeter, Relation, StorageResult};

use crate::delta::Delta;

/// Apply a delta to an in-memory bag (verification oracle).
pub fn apply_to_bag(delta: &Delta, bag: &mut Bag) -> StorageResult<()> {
    delta.apply_to(bag)
}

/// One recorded relation mutation, stored as the information needed to
/// invert it.
#[derive(Debug, Clone)]
enum UndoOp {
    /// `n` copies of `t` were inserted.
    Insert(spacetime_storage::Tuple, u64),
    /// `n` copies of `t` were deleted.
    Delete(spacetime_storage::Tuple, u64),
    /// `count` copies of `old` became `new`.
    Modify {
        old: spacetime_storage::Tuple,
        new: spacetime_storage::Tuple,
        count: u64,
    },
}

/// Per-relation run of recorded ops (in application order).
#[derive(Debug, Default, Clone)]
struct UndoEntry {
    table: String,
    ops: Vec<UndoOp>,
}

/// The rollback journal of one transaction.
///
/// [`apply_to_relation_undo`] records each successful relation op here;
/// [`UndoLog::rollback`] undoes them in reverse order, restoring the
/// catalog to its pre-transaction contents without any table copies. The
/// journal is not tied to one
/// update: whoever owns it decides when a transaction ends by calling
/// [`UndoLog::reset`] (commit) or [`UndoLog::rollback`] (abort), so it
/// spans every update of a multi-update transaction. The log's buffers
/// are pooled: [`UndoLog::reset`] keeps entry and op capacity, so a
/// steady stream of transactions journals without allocating.
///
/// Rollback bypasses the update-cost accounting on purpose (a failed
/// transaction reports its error, not I/O for work that was undone), and
/// replays raw [`Relation`] ops, which have no failpoints — an injected
/// fault can interrupt a commit but never the rollback that repairs it.
#[derive(Debug, Default, Clone)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
    live: usize,
}

impl UndoLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Forget all recorded ops, keeping buffer capacity for reuse.
    pub fn reset(&mut self) {
        for e in &mut self.entries[..self.live] {
            e.table.clear();
            e.ops.clear();
        }
        self.live = 0;
    }

    /// Whether anything has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of journal entries (one per delta applied, in application
    /// order; entries are never merged).
    pub fn table_count(&self) -> usize {
        self.live
    }

    /// Open a new per-relation run (reusing a pooled entry if available).
    fn begin(&mut self, table: &str) {
        if self.live == self.entries.len() {
            self.entries.push(UndoEntry::default());
        }
        let e = &mut self.entries[self.live];
        debug_assert!(e.table.is_empty() && e.ops.is_empty(), "reset() clears");
        e.table.push_str(table);
        self.live += 1;
    }

    fn push(&mut self, op: UndoOp) {
        self.entries[self.live - 1].ops.push(op);
    }

    /// Undo every entry in reverse order — exact inverse ops replayed —
    /// restoring every journaled relation to its pre-transaction contents,
    /// then reset.
    /// A no-op on an empty journal.
    ///
    /// Errors only on a journal/catalog mismatch, which would indicate a
    /// bug in the recording side; the journal is then left as it stood
    /// (not reset), so the damage stays visible to the caller.
    pub fn rollback(&mut self, catalog: &mut Catalog) -> StorageResult<()> {
        // Uncharged: rollback is repair, not accounted maintenance work.
        let mut io = IoMeter::new();
        for e in self.entries[..self.live].iter().rev() {
            let rel = &mut catalog.table_mut(&e.table)?.relation;
            for op in e.ops.iter().rev() {
                match op {
                    UndoOp::Insert(t, n) => rel.delete(t, *n, &mut io)?,
                    UndoOp::Delete(t, n) => rel.insert(t.clone(), *n, &mut io)?,
                    UndoOp::Modify { old, new, count } => {
                        rel.modify(new, old.clone(), *count, &mut io)?
                    }
                }
            }
        }
        self.reset();
        Ok(())
    }
}

/// Apply a delta to a stored relation, charging maintenance I/O to `io`
/// and recording each successful op into `undo`, so the whole application
/// (and everything before it in the same transaction) can be inverted by
/// [`UndoLog::rollback`]. An op that fails mid-delta leaves the journal
/// exactly covering the ops that did land.
///
/// Order matters for bag correctness: deletions and modification removals
/// happen before insertions, so a delta that moves `n` copies between
/// identical tuples round-trips.
pub fn apply_to_relation_undo(
    delta: &Delta,
    rel: &mut Relation,
    io: &mut IoMeter,
    undo: &mut UndoLog,
) -> StorageResult<()> {
    // The innermost write of the commit; firing here interrupts a
    // transaction with zero or more earlier deltas already applied.
    spacetime_storage::fault::fire("delta::apply_to")?;
    undo.begin(rel.name());
    for (t, c) in delta.deletes.iter() {
        rel.delete(t, c, io)?;
        undo.push(UndoOp::Delete(t.clone(), c));
    }
    for m in &delta.modifies {
        rel.modify(&m.old, m.new.clone(), m.count, io)?;
        undo.push(UndoOp::Modify {
            old: m.old.clone(),
            new: m.new.clone(),
            count: m.count,
        });
    }
    for (t, c) in delta.inserts.iter() {
        rel.insert(t.clone(), c, io)?;
        undo.push(UndoOp::Insert(t.clone(), c));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use spacetime_storage::{tuple, DataType, Schema};

    fn sum_of_sals_relation() -> Relation {
        let mut r = Relation::new(
            "SumOfSals",
            Schema::of_table(
                "SumOfSals",
                &[("DName", DataType::Str), ("SalSum", DataType::Int)],
            ),
        );
        r.create_index(vec![0]).unwrap();
        let mut io = IoMeter::new();
        for d in 0..3 {
            r.insert(tuple![format!("dept{d}"), 100 * d], 1, &mut io)
                .unwrap();
        }
        r
    }

    #[test]
    fn modify_charges_paper_maintenance_cost() {
        // The paper's N3 arithmetic: modifying one SumOfSals tuple costs
        // 3 page I/Os (1 index read + 1 data read + 1 data write).
        let mut r = sum_of_sals_relation();
        let d = Delta::modify(tuple!["dept1", 100], tuple!["dept1", 130], 1);
        let mut io = IoMeter::new();
        apply_to_relation_undo(&d, &mut r, &mut io, &mut UndoLog::new()).unwrap();
        assert_eq!(io.total(), 3);
    }

    #[test]
    fn mixed_delta_applies_in_safe_order() {
        let mut r = sum_of_sals_relation();
        let mut d = Delta::delete(tuple!["dept0", 0], 1);
        d.inserts.insert(tuple!["dept9", 900], 1);
        d.push_modify(tuple!["dept2", 200], tuple!["dept2", 250], 1);
        let mut io = IoMeter::new();
        apply_to_relation_undo(&d, &mut r, &mut io, &mut UndoLog::new()).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.data().contains(&tuple!["dept9", 900]));
        assert!(r.data().contains(&tuple!["dept2", 250]));
        assert!(!r.data().contains(&tuple!["dept0", 0]));
    }

    #[test]
    fn apply_failure_reports_missing_tuple() {
        let mut r = sum_of_sals_relation();
        let d = Delta::delete(tuple!["ghost", 1], 1);
        let mut io = IoMeter::new();
        assert!(apply_to_relation_undo(&d, &mut r, &mut io, &mut UndoLog::new()).is_err());
    }

    #[test]
    fn undo_rollback_restores_exact_contents() {
        use spacetime_storage::Catalog;
        let mut cat = Catalog::new();
        cat.create_table(
            "SumOfSals",
            Schema::of_table(
                "SumOfSals",
                &[("DName", DataType::Str), ("SalSum", DataType::Int)],
            ),
        )
        .unwrap();
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            rel.create_index(vec![0]).unwrap();
            let mut io = IoMeter::new();
            for d in 0..3 {
                rel.insert(tuple![format!("dept{d}"), 100 * d], 1, &mut io)
                    .unwrap();
            }
        }
        let pre = cat.table("SumOfSals").unwrap().relation.data().clone();

        let mut d = Delta::delete(tuple!["dept0", 0], 1);
        d.inserts.insert(tuple!["dept9", 900], 2);
        d.push_modify(tuple!["dept2", 200], tuple!["dept2", 250], 1);
        let mut undo = UndoLog::new();
        let mut io = IoMeter::new();
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            apply_to_relation_undo(&d, rel, &mut io, &mut undo).unwrap();
        }
        assert_eq!(undo.table_count(), 1);
        assert_eq!(undo.entries[0].table, "SumOfSals");
        assert_ne!(&pre, cat.table("SumOfSals").unwrap().relation.data());

        undo.rollback(&mut cat).unwrap();
        let rel = &cat.table("SumOfSals").unwrap().relation;
        assert_eq!(&pre, rel.data());
        // Index restored too: probes agree with the data bag.
        let mut io = IoMeter::new();
        assert_eq!(
            rel.lookup(0, &[spacetime_storage::Value::str("dept2")], &mut io)
                .len(),
            1
        );
        assert!(undo.is_empty(), "rollback resets the log");
    }

    #[test]
    fn same_key_modify_rolls_back_bit_identically() {
        // `Relation::modify` swaps a tuple inside its index bucket when the
        // index key is unchanged; the journal's inverse is another such
        // swap. Contents and probes must come back exactly —
        // for one tuple (the paper's N3 case) and for ten copies under one
        // key (N4).
        for n in [1u64, 10] {
            let mut cat = sum_of_sals_catalog();
            {
                let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
                rel.insert(tuple!["dept1", 100], n - 1, &mut IoMeter::new())
                    .unwrap();
            }
            let pre = cat.table("SumOfSals").unwrap().relation.clone();
            let d = Delta::modify(tuple!["dept1", 100], tuple!["dept1", 130], n);
            let (mut undo, mut io) = (UndoLog::new(), IoMeter::new());
            {
                let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
                apply_to_relation_undo(&d, rel, &mut io, &mut undo).unwrap();
            }
            assert_eq!(io.total(), 1 + 2 * n, "3 pages for N3, 21 for N4");
            undo.rollback(&mut cat).unwrap();
            let rel = &cat.table("SumOfSals").unwrap().relation;
            assert_eq!(rel.data(), pre.data());
            for d in 0..4 {
                let key = [spacetime_storage::Value::str(format!("dept{d}"))];
                let (mut a, mut b) = (IoMeter::new(), IoMeter::new());
                assert_eq!(rel.lookup(0, &key, &mut a), pre.lookup(0, &key, &mut b));
            }
        }
    }

    #[test]
    fn chained_modifies_roll_back_newest_first() {
        // a → b then b → c on one tuple: only a newest-first replay finds
        // each op's output in place (c → b, then b → a); a forward replay
        // looks for b while the relation holds c.
        let mut cat = sum_of_sals_catalog();
        let pre = cat.table("SumOfSals").unwrap().relation.clone();
        let (a, b, c) = (
            tuple!["dept1", 100],
            tuple!["dept1", 130],
            tuple!["dept1", 160],
        );
        let mut d = Delta::modify(a.clone(), b.clone(), 1);
        d.push_modify(b, c.clone(), 1);
        let (mut undo, mut io) = (UndoLog::new(), IoMeter::new());
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            apply_to_relation_undo(&d, rel, &mut io, &mut undo).unwrap();
            assert_eq!(rel.data().count(&c), 1);
        }
        undo.rollback(&mut cat).unwrap();
        let rel = &cat.table("SumOfSals").unwrap().relation;
        assert_eq!(rel.data(), pre.data());
        assert_eq!(rel.data().count(&a), 1);
    }

    #[test]
    fn undo_covers_partial_application() {
        // A delta that fails mid-apply leaves the journal covering exactly
        // the ops that landed, so rollback restores the pre-state.
        let mut cat = spacetime_storage::Catalog::new();
        cat.create_table(
            "SumOfSals",
            Schema::of_table(
                "SumOfSals",
                &[("DName", DataType::Str), ("SalSum", DataType::Int)],
            ),
        )
        .unwrap();
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            let mut io = IoMeter::new();
            for d in 0..3 {
                rel.insert(tuple![format!("dept{d}"), 100 * d], 1, &mut io)
                    .unwrap();
            }
        }
        let pre = cat.table("SumOfSals").unwrap().relation.data().clone();
        // Deletes apply first; the modify of a ghost tuple then fails.
        let mut d = Delta::delete(tuple!["dept0", 0], 1);
        d.push_modify(tuple!["ghost", 1], tuple!["ghost", 2], 1);
        let mut undo = UndoLog::new();
        let mut io = IoMeter::new();
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            assert!(apply_to_relation_undo(&d, rel, &mut io, &mut undo).is_err());
        }
        undo.rollback(&mut cat).unwrap();
        assert_eq!(&pre, cat.table("SumOfSals").unwrap().relation.data());
    }

    /// A one-table catalog holding `sum_of_sals_relation`'s three rows.
    fn sum_of_sals_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let schema = sum_of_sals_relation().schema().clone();
        cat.create_table("SumOfSals", schema).unwrap().relation = sum_of_sals_relation();
        cat
    }

    #[test]
    fn journal_spans_updates_and_rolls_back_all_of_them() {
        // Two deltas journaled without a reset in between — two updates of
        // one transaction — come back out together, newest first.
        let mut cat = sum_of_sals_catalog();
        let pre = cat.table("SumOfSals").unwrap().relation.data().clone();
        let mut undo = UndoLog::new();
        let mut io = IoMeter::new();
        for d in [
            Delta::modify(tuple!["dept1", 100], tuple!["dept1", 130], 1),
            // Depends on the first: only valid on top of it.
            Delta::modify(tuple!["dept1", 130], tuple!["dept1", 160], 1),
        ] {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            apply_to_relation_undo(&d, rel, &mut io, &mut undo).unwrap();
        }
        assert_eq!(undo.table_count(), 2);
        assert_eq!(undo.entries[1].table, "SumOfSals");
        undo.rollback(&mut cat).unwrap();
        let rel = &cat.table("SumOfSals").unwrap().relation;
        assert_eq!(&pre, rel.data());
        // A second rollback — the scope's abort after a commit that already
        // replayed — finds an empty journal and does nothing.
        undo.rollback(&mut cat).unwrap();
        assert_eq!(&pre, cat.table("SumOfSals").unwrap().relation.data());
    }

    #[test]
    fn rollback_against_a_catalog_missing_a_journaled_table_is_an_error() {
        // A journal/catalog mismatch is a typed error for the caller to
        // route, never a panic, and the journal is left as evidence.
        let mut cat = sum_of_sals_catalog();
        let mut undo = UndoLog::new();
        let mut io = IoMeter::new();
        let d = Delta::modify(tuple!["dept1", 100], tuple!["dept1", 130], 1);
        {
            let rel = &mut cat.table_mut("SumOfSals").unwrap().relation;
            apply_to_relation_undo(&d, rel, &mut io, &mut undo).unwrap();
        }
        cat.drop_table("SumOfSals").unwrap();
        let err = undo.rollback(&mut cat).unwrap_err();
        assert!(
            matches!(err, spacetime_storage::StorageError::UnknownTable(ref t) if t == "SumOfSals"),
            "{err}"
        );
        assert!(!undo.is_empty(), "a failed rollback keeps its journal");
    }

    #[test]
    fn undo_reset_pools_buffers() {
        let mut r = sum_of_sals_relation();
        let mut undo = UndoLog::new();
        let mut io = IoMeter::new();
        for i in 0..4 {
            let d = Delta::modify(tuple!["dept1", 100 + i], tuple!["dept1", 100 + i + 1], 1);
            apply_to_relation_undo(&d, &mut r, &mut io, &mut undo).unwrap();
            assert_eq!(undo.table_count(), 1);
            undo.reset();
            assert!(undo.is_empty());
        }
    }

    #[test]
    fn bag_and_relation_agree() {
        let mut r = sum_of_sals_relation();
        let mut bag = r.data().clone();
        let d = Delta::modify(tuple!["dept1", 100], tuple!["dept1", 101], 1);
        let mut io = IoMeter::new();
        apply_to_relation_undo(&d, &mut r, &mut io, &mut UndoLog::new()).unwrap();
        apply_to_bag(&d, &mut bag).unwrap();
        assert_eq!(&bag, r.data());
    }
}
