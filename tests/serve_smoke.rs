//! Tier-1 smoke test of the serving path.
//!
//! This puts the scheduler, the transaction scope, the abort path and the
//! cross-shard commit under the root package's tests. The paper database
//! is partitioned over two shards and over four and served a short
//! stream that holds one of each thing the path can do: commits on one
//! shard, a cross-shard transfer, a violation the assertion gate rejects
//! before any write, and a violation that only shows on the second
//! participant once the transaction's first update is in place. The
//! oracles: every outcome equals an unsharded control's, the shard unions
//! equal its tables, and every shard equals recomputation.

use std::sync::Arc;

use spacetime::delta::Delta;
use spacetime::ivm::{verify_all_views, Database, IvmError, ShardedDatabase, Txn, TxnScheduler};
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

fn shard_spec() -> ShardSpec {
    ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0])
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

#[test]
fn two_shard_serving_commits_aborts_and_matches_its_oracles() {
    serve_and_check(2);
}

/// The same stream over four shards (the name predates the one drain
/// loop: there are no workers any more).
#[test]
fn four_shards_on_two_workers_commit_abort_and_match_their_oracles() {
    serve_and_check(4);
}

fn serve_and_check(n_shards: usize) {
    let template = paper_db();
    let sharded = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
    // Departments on the lowest and the highest occupied shard, for the
    // transfers: `b`'s shard is always the later participant.
    let shard_of = |d: usize| sharded.route_delta("Dept", &budget(d, 600, 601)).unwrap()[0].0;
    let a = (0..DEPTS).min_by_key(|&d| shard_of(d)).unwrap();
    let b = (0..DEPTS).max_by_key(|&d| shard_of(d)).unwrap();
    assert!(shard_of(a) < shard_of(b), "the transfer must span two shards");
    let others: Vec<usize> = (0..DEPTS).filter(|&d| d != a && d != b).collect();

    let hire = Delta::insert(
        tuple![
            format!("emp{:05}_new", others[1]),
            format!("dept{:05}", others[1]),
            100_i64
        ],
        1,
    );
    let leave = Delta::delete(
        tuple![
            format!("emp{:05}_2", others[2]),
            format!("dept{:05}", others[2]),
            100_i64
        ],
        1,
    );
    let txns: Vec<Txn> = vec![
        one("Emp", salary(others[0], 0, 100, 180)),
        // Cross-shard transfer: 50 of budget from `a`'s shard to `b`'s,
        // one update per participant.
        vec![
            ("Dept".to_string(), budget(a, 600, 550)),
            ("Dept".to_string(), budget(b, 600, 650)),
        ],
        one("Emp", hire),
        // Rejected at the gate: nothing is written.
        one("Emp", salary(others[0], 1, 100, 9_999)),
        // Second-participant violation: the first participant's budget
        // change and the second's first update are in place when the
        // second's raise blows the budget; both shards roll back.
        vec![
            ("Dept".to_string(), budget(a, 550, 500)),
            ("Dept".to_string(), budget(b, 650, 700)),
            ("Emp".to_string(), salary(b, 0, 100, 9_999)),
        ],
        one("Emp", leave),
        one("Dept", budget(b, 650, 640)),
    ];
    let expect_ok = [true, true, true, false, false, true, true];

    let out = TxnScheduler::new(&sharded, Arc::default())
        .run(&txns)
        .unwrap();
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
    assert_eq!(out.stats.cross_shard_txns, 2);
    assert_eq!((out.stats.committed, out.stats.aborted), (5, 2));
    for s in 0..n_shards {
        sharded.shard(s).integrity_check().unwrap();
    }
    for (name, table) in control.catalog.iter() {
        assert_eq!(
            &sharded.union_table(name).unwrap(),
            table.relation.data(),
            "shard union of {name} differs from the unsharded control"
        );
    }
    assert!(sharded.verify_all_shards().unwrap().is_empty());
    assert!(verify_all_views(&control).unwrap().is_empty());
}
