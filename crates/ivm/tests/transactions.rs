//! All-or-nothing multi-relation transactions.
//!
//! `apply_transaction` checks assertions in immediate mode (per update,
//! SQL-92's default), so a violation can surface at update *k* with
//! updates `1..k` already committed. The transaction contract is still
//! atomic: the earlier updates must be undone and the catalog must be
//! bit-identical to its pre-transaction state.

use std::sync::Arc;

use spacetime_delta::Delta;
use spacetime_ivm::{
    verify_all_views, Database, IvmError, PropagationMode, ShardedDatabase, Txn, TxnScheduler,
};
use spacetime_storage::{tuple, Bag, IoMeter, ShardSpec, Table};

/// A small paper-shaped database: 5 departments x 3 employees, budget 600,
/// salary 100 each, with the paper's DeptConstraint assertion and one
/// extra view so several engines depend on the updated relations.
fn small_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);",
    )
    .unwrap();
    let mut io = IoMeter::new();
    for d in 0..5 {
        let dname = format!("dept{d}");
        db.catalog
            .table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple![dname.clone(), format!("mgr{d}"), 600_i64], 1, &mut io)
            .unwrap();
        for e in 0..3 {
            db.catalog
                .table_mut("Emp")
                .unwrap()
                .relation
                .insert(tuple![format!("emp{d}_{e}"), dname.clone(), 100_i64], 1, &mut io)
                .unwrap();
        }
    }
    db.catalog.table_mut("Emp").unwrap().analyze();
    db.catalog.table_mut("Dept").unwrap().analyze();
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
    )
    .unwrap();
    db.execute_sql(
        "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
            SELECT Dept.DName FROM Emp, Dept \
            WHERE Dept.DName = Emp.DName \
            GROUP BY Dept.DName, Budget \
            HAVING SUM(Salary) > Budget))",
    )
    .unwrap();
    db
}

/// Every table's contents, for bit-identity comparison.
fn contents(db: &Database) -> Vec<(String, Bag)> {
    db.catalog
        .iter()
        .map(|(n, t)| (n.to_string(), t.relation.data().clone()))
        .collect()
}

/// The transaction under test: a harmless budget cut on dept0, then a
/// salary raise that pushes dept1 over its budget. Only the *second*
/// update violates DeptConstraint; the first commits before the violation
/// is detected and must be rolled back with it.
fn violating_txn() -> Vec<(String, Delta)> {
    vec![
        (
            "Dept".to_string(),
            Delta::modify(
                tuple!["dept0", "mgr0", 600],
                tuple!["dept0", "mgr0", 550],
                1,
            ),
        ),
        (
            "Emp".to_string(),
            Delta::modify(
                tuple!["emp1_0", "dept1", 100],
                tuple!["emp1_0", "dept1", 9_999],
                1,
            ),
        ),
    ]
}

fn assert_txn_atomicity(mut db: Database) {
    let before = contents(&db);
    let err = db.apply_transaction(violating_txn()).unwrap_err();
    assert!(
        matches!(&err, IvmError::AssertionViolated { name, .. } if name == "DeptConstraint"),
        "{err}"
    );
    // The whole transaction never happened: the first (non-violating)
    // update was undone along with the rejected one.
    assert_eq!(contents(&db), before, "catalog changed by a failed txn");
    assert!(verify_all_views(&db).unwrap().is_empty());
    assert!(db.check_assertions().unwrap().is_empty());
    db.integrity_check().unwrap();
    // The same transaction minus the violation goes through afterwards.
    let mut ok_txn = violating_txn();
    ok_txn[1].1 = Delta::modify(
        tuple!["emp1_0", "dept1", 100],
        tuple!["emp1_0", "dept1", 120],
        1,
    );
    db.apply_transaction(ok_txn).unwrap();
    assert!(db
        .catalog
        .table("Dept")
        .unwrap()
        .relation
        .data()
        .contains(&tuple!["dept0", "mgr0", 550]));
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn mid_transaction_violation_rolls_back_earlier_updates() {
    assert_txn_atomicity(small_db());
}

#[test]
fn single_delta_violation_leaves_catalog_untouched() {
    // The gate (reject before any write) holds for a one-update
    // transaction.
    let mut db = small_db();
    let before = contents(&db);
    let err = db
        .apply_delta(
            "Emp",
            Delta::modify(
                tuple!["emp2_1", "dept2", 100],
                tuple!["emp2_1", "dept2", 9_999],
                1,
            ),
        )
        .unwrap_err();
    assert!(matches!(err, IvmError::AssertionViolated { .. }), "{err}");
    assert_eq!(contents(&db), before);
    db.integrity_check().unwrap();
}

/// Assertion checking does not depend on the data plane: over a stream in
/// which some updates trip DeptConstraint, the production mode and the
/// per-key reference accept the same updates with bit-identical reports,
/// reject the same updates with the same violation (name and witness
/// sample), and a rejected update writes nothing.
#[test]
fn assertion_verdicts_and_reports_match_the_per_key_reference() {
    let mut fused = small_db();
    let mut per_key = small_db();
    per_key.set_propagation_mode(PropagationMode::PerKey);
    let budget = |d: usize, from: i64, to: i64| {
        let (dept, mgr) = (format!("dept{d}"), format!("mgr{d}"));
        Delta::modify(tuple![dept.clone(), mgr.clone(), from], tuple![dept, mgr, to], 1)
    };
    let stream = [
        ("Emp", raise("emp0_0", "dept0", 250)),
        // 100 + 100 + 9 999 > 600.
        ("Emp", raise("emp1_0", "dept1", 9_999)),
        ("Dept", budget(2, 600, 320)),
        // 300 > 250: a budget cut can violate too.
        ("Dept", budget(3, 600, 250)),
        ("Emp", Delta::insert(tuple!["emp4_new", "dept4", 290], 1)),
        // dept4 is now at 590; one more hire breaks it.
        ("Emp", Delta::insert(tuple!["emp4_extra", "dept4", 20], 1)),
        ("Emp", Delta::delete(tuple!["emp4_new", "dept4", 290], 1)),
    ];
    let mut violations = 0;
    for (i, (table, delta)) in stream.into_iter().enumerate() {
        let before = contents(&fused);
        match (fused.apply_delta(table, delta.clone()), per_key.apply_delta(table, delta)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "update {i}: report diverged"),
            (
                Err(IvmError::AssertionViolated { name, sample }),
                Err(IvmError::AssertionViolated { name: n2, sample: s2 }),
            ) => {
                assert_eq!(name, "DeptConstraint", "update {i}");
                assert!(!sample.is_empty(), "update {i}: a violation carries witnesses");
                assert_eq!((name, sample), (n2, s2), "update {i}: violation diverged");
                assert_eq!(contents(&fused), before, "update {i}: rejected update wrote");
                violations += 1;
            }
            (a, b) => panic!("update {i}: outcomes diverged: {a:?} vs {b:?}"),
        }
    }
    assert_eq!(violations, 3, "the stream trips the assertion three times");
    assert_eq!(contents(&fused), contents(&per_key));
    assert!(verify_all_views(&fused).unwrap().is_empty());
    assert!(verify_all_views(&per_key).unwrap().is_empty());
}

/// Where every cataloged table (base relations, views, the assertion's
/// backing view) lives right now. Addresses, not `Weak`s: `Arc::make_mut`
/// moves the value to a new allocation when a `Weak` is outstanding, so
/// holding one would itself cause the copy this is looking for.
fn table_addresses(db: &Database) -> Vec<(String, *const Table)> {
    db.catalog
        .iter()
        .map(|(n, t)| (n.to_string(), t as *const Table))
        .collect()
}

/// Every table is still the allocation it was: none was copy-on-write
/// cloned since the addresses were taken. (A clone is made while the
/// original is still referenced, so it can never land on the same
/// address.)
fn assert_no_table_copied(db: &Database, before: &[(String, *const Table)], label: &str) {
    assert_eq!(table_addresses(db), before, "{label}: a table was replaced by a copy");
}

fn raise(emp: &str, dept: &str, to: i64) -> Delta {
    Delta::modify(tuple![emp, dept, 100], tuple![emp, dept, to], 1)
}

/// The journal is the only rollback mechanism: neither a committed
/// two-update transaction nor a second-update violation copies a table —
/// nothing on the path holds a second reference that would force
/// `Arc::make_mut` to.
#[test]
fn neither_commit_nor_rollback_copies_a_table() {
    let mut db = small_db();
    let addresses = table_addresses(&db);
    assert!(addresses.iter().any(|(n, _)| n == "Emp"));
    assert!(addresses.iter().any(|(n, _)| n == "DeptProfile"));

    let mut ok_txn = violating_txn();
    ok_txn[1].1 = raise("emp1_0", "dept1", 120);
    db.apply_transaction(ok_txn).unwrap();
    assert_no_table_copied(&db, &addresses, "two-update commit");

    let before = contents(&db);
    let bad_txn = vec![
        (
            "Dept".to_string(),
            Delta::modify(tuple!["dept0", "mgr0", 550], tuple!["dept0", "mgr0", 500], 1),
        ),
        ("Emp".to_string(), raise("emp2_0", "dept2", 9_999)),
    ];
    let err = db.apply_transaction(bad_txn).unwrap_err();
    assert!(matches!(err, IvmError::AssertionViolated { .. }), "{err}");
    assert_eq!(contents(&db), before);
    assert_no_table_copied(&db, &addresses, "second-update violation");
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// The same through the scheduler: a cross-shard commit, and a cross-shard
/// abort in which the first participant's journal is still open when the
/// last participant violates.
#[test]
fn cross_shard_commit_and_abort_copy_no_table() {
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    let sharded = ShardedDatabase::partition(&small_db(), spec, 2).unwrap();
    // One department on each shard.
    let shard_of = |d: usize| {
        let probe = raise(&format!("emp{d}_0"), &format!("dept{d}"), 101);
        sharded.route_delta("Emp", &probe).unwrap()[0].0
    };
    let on0 = (0..5).find(|&d| shard_of(d) == 0).expect("a department on shard 0");
    let on1 = (0..5).find(|&d| shard_of(d) == 1).expect("a department on shard 1");
    // One Emp delta moving emp<d>_0's salary on both shards at once.
    let both = |from: i64, to0: i64, to1: i64| -> Txn {
        let mut d = Delta::new();
        for (dept, to) in [(on0, to0), (on1, to1)] {
            d.push_modify(
                tuple![format!("emp{dept}_0"), format!("dept{dept}"), from],
                tuple![format!("emp{dept}_0"), format!("dept{dept}"), to],
                1,
            );
        }
        vec![("Emp".to_string(), d)]
    };
    let addresses: Vec<_> = (0..2).map(|s| table_addresses(&sharded.shard(s))).collect();
    let sched = TxnScheduler::new(&sharded, Arc::default());

    let out = sched.run(&[both(100, 110, 110)]).unwrap();
    assert!(out.results[0].is_ok(), "{:?}", out.results[0]);
    assert_eq!(out.stats.cross_shard_txns, 1);
    for (s, addrs) in addresses.iter().enumerate() {
        assert_no_table_copied(&sharded.shard(s), addrs, &format!("commit, shard {s}"));
    }

    // Shard 0 applies cleanly and waits; shard 1 then blows its budget.
    let before: Vec<_> = (0..2).map(|s| contents(&sharded.shard(s))).collect();
    let out = sched.run(&[both(110, 120, 9_999)]).unwrap();
    assert!(
        matches!(&out.results[0], Err(IvmError::AssertionViolated { .. })),
        "{:?}",
        out.results[0]
    );
    for (s, addrs) in addresses.iter().enumerate() {
        assert_eq!(contents(&sharded.shard(s)), before[s], "abort, shard {s}");
        assert_no_table_copied(&sharded.shard(s), addrs, &format!("abort, shard {s}"));
    }
    assert!(sharded.verify_all_shards().unwrap().is_empty());
}
