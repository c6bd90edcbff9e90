//! Tier-1 smoke test of the serving path.
//!
//! This puts `Database::run`, the transaction door and the abort path
//! under the root package's tests. The paper database is served a short
//! stream that holds one of each thing the path can do: commits, a
//! two-update transfer of budget between departments, a violation the
//! assertion gate rejects before any write, and a violation that only
//! shows on a transaction's third update once its first two are in place.
//! The oracles: every outcome equals a control's that applies the same
//! transactions one at a time, every table equals the control's, and
//! every view equals recomputation.
//!
//! The same stream is also served through the sharded API the frozen
//! benchmark harness still calls (`ShardedDatabase`, `TxnScheduler`), at
//! the shard counts it passes: the counts are ignored, so every count must
//! serve exactly as the one database does.

use std::sync::Arc;

use spacetime::delta::Delta;
use spacetime::ivm::{
    verify_all_views, Database, IvmError, SchedOutcome, ShardedDatabase, Txn, TxnScheduler,
};
use spacetime::storage::{tuple, ShardSpec};
use spacetime_bench::workload::{load_paper_data, paper_schema_db};

const DEPTS: usize = 8;
const EMPS: usize = 3;

/// The paper schema and data (budget 600, salaries 100), three views and
/// the paper's DeptConstraint assertion.
fn paper_db() -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, DEPTS, EMPS);
    for sql in [
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
        "CREATE MATERIALIZED VIEW WellPaid AS \
         SELECT EName, Emp.DName, MName FROM Emp, Dept \
         WHERE Emp.DName = Dept.DName AND Salary > 150",
        "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
            SELECT Dept.DName FROM Emp, Dept \
            WHERE Dept.DName = Emp.DName \
            GROUP BY Dept.DName, Budget \
            HAVING SUM(Salary) > Budget))",
    ] {
        db.execute_sql(sql).unwrap();
    }
    db
}

fn salary(d: usize, e: usize, from: i64, to: i64) -> Delta {
    Delta::modify(
        tuple![format!("emp{d:05}_{e}"), format!("dept{d:05}"), from],
        tuple![format!("emp{d:05}_{e}"), format!("dept{d:05}"), to],
        1,
    )
}

fn budget(d: usize, from: i64, to: i64) -> Delta {
    Delta::modify(
        tuple![format!("dept{d:05}"), format!("mgr{d}"), from],
        tuple![format!("dept{d:05}"), format!("mgr{d}"), to],
        1,
    )
}

fn one(table: &str, delta: Delta) -> Txn {
    vec![(table.to_string(), delta)]
}

/// The stream, and which of its transactions commit.
fn stream() -> (Vec<Txn>, [bool; 7]) {
    let (a, b) = (0, DEPTS - 1);
    let hire = Delta::insert(tuple!["emp00002_new", "dept00002", 100_i64], 1);
    let leave = Delta::delete(tuple!["emp00003_2", "dept00003", 100_i64], 1);
    let txns: Vec<Txn> = vec![
        one("Emp", salary(1, 0, 100, 180)),
        // A transfer: 50 of budget from `a` to `b`.
        vec![
            ("Dept".to_string(), budget(a, 600, 550)),
            ("Dept".to_string(), budget(b, 600, 650)),
        ],
        one("Emp", hire),
        // Rejected at the gate: nothing is written.
        one("Emp", salary(1, 1, 100, 9_999)),
        // Third-update violation: both budget changes are in place when
        // the raise blows `b`'s budget; the whole transaction rolls back.
        vec![
            ("Dept".to_string(), budget(a, 550, 500)),
            ("Dept".to_string(), budget(b, 650, 700)),
            ("Emp".to_string(), salary(b, 0, 100, 9_999)),
        ],
        one("Emp", leave),
        one("Dept", budget(b, 650, 640)),
    ];
    let expect_ok = [true, true, true, false, false, true, true];
    (txns, expect_ok)
}

/// `out` and `db`, which served the stream from `template`, against a
/// control that applies it one transaction at a time.
fn check(template: &Database, out: &SchedOutcome, db: &Database) {
    let (txns, expect_ok) = stream();
    let mut control = template.clone();
    for (i, txn) in txns.iter().enumerate() {
        let ctrl = control.apply_transaction(txn.clone());
        assert_eq!(
            ctrl.is_ok(),
            expect_ok[i],
            "txn {i}: control outcome: {ctrl:?}"
        );
        if let Err(e) = &out.results[i] {
            assert!(
                matches!(e, IvmError::AssertionViolated { name, .. } if name == "DeptConstraint"),
                "txn {i}: {e}"
            );
        }
        assert_eq!(
            out.results[i].is_ok(),
            expect_ok[i],
            "txn {i}: {:?}",
            out.results[i]
        );
    }
    assert_eq!((out.stats.committed, out.stats.aborted), (5, 2));
    db.integrity_check().unwrap();
    for (name, table) in control.catalog.iter() {
        assert_eq!(
            db.catalog.table(name).unwrap().relation.data(),
            table.relation.data(),
            "{name} differs from the control"
        );
    }
    assert!(verify_all_views(db).unwrap().is_empty());
    assert!(verify_all_views(&control).unwrap().is_empty());
}

#[test]
fn serving_commits_aborts_and_matches_its_oracles() {
    let template = paper_db();
    let mut db = template.clone();
    let out = db.run(&stream().0);
    check(&template, &out, &db);
}

#[test]
fn two_shard_serving_commits_aborts_and_matches_its_oracles() {
    serve_through_the_sharded_api(2);
}

/// The same stream at four shards (the name predates the one drain loop:
/// there are no workers any more).
#[test]
fn four_shards_on_two_workers_commit_abort_and_match_their_oracles() {
    serve_through_the_sharded_api(4);
}

fn serve_through_the_sharded_api(n_shards: usize) {
    let template = paper_db();
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    let sharded = ShardedDatabase::partition(&template, spec, n_shards).unwrap();
    assert_eq!(sharded.n_shards(), 1, "the shard count is ignored");
    let out = TxnScheduler::new(&sharded, Arc::default())
        .run(&stream().0)
        .unwrap();
    check(&template, &out, &sharded.shard(0));
    for (name, _) in template.catalog.iter() {
        assert_eq!(
            &sharded.union_table(name).unwrap(),
            sharded
                .shard(0)
                .catalog
                .table(name)
                .unwrap()
                .relation
                .data(),
            "the union of {name} is the one database's table"
        );
    }
    assert!(sharded.verify_all_shards().unwrap().is_empty());
}
