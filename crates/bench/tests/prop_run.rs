//! `Database::run` is sequential `apply_transaction`: under any random
//! workload, a batch served through `run` must produce exactly the
//! outcomes, reports, spans and contents of the same transactions applied
//! one at a time — and every view must equal its recomputation. What
//! `run` adds around each transaction (the dispatch failpoint, its own
//! `catch_unwind`, latencies, books, spans) must change none of that.

use proptest::prelude::*;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::Delta;
use spacetime_ivm::{verify_all_views, Database, IvmError, SchedOutcome, Txn};
use spacetime_storage::tuple;

const VIEWS: &[&str] = &[
    "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
     SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
     GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
    "CREATE MATERIALIZED VIEW DeptProfile AS \
     SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
     FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW WellPaid AS \
     SELECT EName, Emp.DName, MName FROM Emp, Dept \
     WHERE Emp.DName = Dept.DName AND Salary > 150",
    "CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp",
];

/// The paper's integrity constraint: no department's payroll over budget.
const DEPT_CONSTRAINT: &str = "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
    SELECT Dept.DName FROM Emp, Dept \
    WHERE Dept.DName = Emp.DName \
    GROUP BY Dept.DName, Budget \
    HAVING SUM(Salary) > Budget))";

fn build_db(departments: usize, emps_per_dept: usize) -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, departments, emps_per_dept);
    for sql in VIEWS {
        db.execute_sql(sql).unwrap();
    }
    db
}

/// Fault plans are process-global and every transaction of a run crosses
/// the `ivm::pool_dispatch` site, so in a `failpoints` build these tests
/// serialize with the fault suites' plans.
fn unfaulted() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(feature = "failpoints")]
    return Some(spacetime_storage::fault::serial_guard());
    #[cfg(not(feature = "failpoints"))]
    None
}

/// Serve `txns` through `run` on one copy of `template` and apply them
/// one at a time on another, tracing on both: every result, report, span
/// and table must agree, and the served copy must equal recomputation.
/// Returns the served copy and the run's outcome.
fn assert_run_matches_sequential(
    template: &Database,
    txns: &[Txn],
    ctx: &str,
) -> (Database, SchedOutcome) {
    let _unfaulted = unfaulted();
    let mut control = template.clone();
    control.set_tracing(true);
    let expected: Vec<_> = txns
        .iter()
        .map(|txn| {
            let r = control.apply_transaction(txn.clone());
            let span = r.is_ok().then(|| control.last_trace().cloned()).flatten();
            (r, span)
        })
        .collect();

    let mut db = template.clone();
    db.set_tracing(true);
    let out = db.run(txns);
    let n = txns.len();
    assert_eq!(
        (out.results.len(), out.latencies_ns.len(), out.traces.len()),
        (n, n, n)
    );
    let committed = expected.iter().filter(|(r, _)| r.is_ok()).count() as u64;
    let books = (out.stats.txns, out.stats.committed, out.stats.aborted);
    assert_eq!(
        books,
        (n as u64, committed, n as u64 - committed),
        "books ({ctx})"
    );
    for (i, ((r, t), (c, ct))) in out
        .results
        .iter()
        .zip(&out.traces)
        .zip(&expected)
        .enumerate()
    {
        match (r, c) {
            (Ok(r), Ok(c)) => assert_eq!(r, c, "txn {i}: report diverged ({ctx})"),
            (Err(r), Err(c)) => {
                assert_eq!(
                    r.to_string(),
                    c.to_string(),
                    "txn {i}: error diverged ({ctx})"
                )
            }
            _ => panic!("txn {i}: run {r:?} vs sequential {c:?} ({ctx})"),
        }
        assert_eq!(t.is_some(), ct.is_some(), "txn {i}: span presence ({ctx})");
        if let (Some(t), Some(ct)) = (t, ct) {
            assert!(
                t.structural_eq(ct),
                "txn {i}: span diverged ({ctx})\nrun: {}\nsequential: {}",
                t.structure_json(),
                ct.structure_json(),
            );
        }
    }
    let run_span = out.trace.as_ref().expect("tracing was on");
    assert_eq!(
        run_span.children.len(),
        n,
        "one txn node per transaction ({ctx})"
    );
    for (name, t) in control.catalog.iter() {
        assert_eq!(
            db.catalog.table(name).unwrap().relation.data(),
            t.relation.data(),
            "table {name} diverged ({ctx})"
        );
    }
    assert!(
        verify_all_views(&db).unwrap().is_empty(),
        "recompute mismatch ({ctx})"
    );
    (db, out)
}

/// A random workload cut into transactions of `per_txn` updates. Later
/// updates can go stale when an earlier one in the stream failed, so the
/// stream holds commits and aborts alike.
fn txns(departments: usize, emps_per_dept: usize, n: usize, seed: u64, per_txn: usize) -> Vec<Txn> {
    mixed_workload(departments, emps_per_dept, n, seed)
        .chunks(per_txn)
        .map(<[_]>::to_vec)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// Random workloads × transaction sizes.
    #[test]
    fn run_matches_sequential_apply_transaction(
        departments in 3usize..8,
        emps_per_dept in 2usize..5,
        n_updates in 8usize..25,
        seed in any::<u64>(),
        per_txn in 1usize..4,
    ) {
        let template = build_db(departments, emps_per_dept);
        let txns = txns(departments, emps_per_dept, n_updates, seed, per_txn);
        assert_run_matches_sequential(&template, &txns, &format!("seed {seed}"));
    }
}

/// Deterministic smoke version (no proptest shrink noise in CI logs).
#[test]
fn run_matches_sequential_apply_transaction_at_fixed_seeds() {
    for per_txn in [1, 2, 3, 4] {
        let template = build_db(6, 4);
        let txns = txns(6, 4, 20, 0xC0FFEE, per_txn);
        assert_run_matches_sequential(&template, &txns, &format!("{per_txn}/txn"));
    }
}

/// A violator fails in its own slot and writes nothing, whether the
/// violation is the transaction's only update, one row of a delta moving
/// four departments, or its second update after the first landed.
#[test]
fn assertion_violations_roll_back_through_run() {
    let mut template = build_db(6, 3);
    template.execute_sql(DEPT_CONSTRAINT).unwrap();
    let raise = |dept: usize, emp: usize, from: i64, to: i64| {
        let row = |s: i64| tuple![format!("emp{dept:05}_{emp}"), format!("dept{dept:05}"), s];
        Delta::modify(row(from), row(to), 1)
    };
    let many = |to: i64| {
        let mut d = Delta::new();
        (2..6).for_each(|dept| d.merge(raise(dept, 0, 100, to)));
        d
    };
    let emp = |d: Delta| ("Emp".to_string(), d);
    // Budgets are 600, each department's salaries sum to 300: a raise to
    // 180 passes (380), a raise to 1000 violates (1200).
    let txns: Vec<Txn> = vec![
        vec![emp(raise(1, 0, 100, 180))],
        vec![emp(raise(0, 0, 100, 1000))],
        vec![emp(many(1000))],
        vec![emp(many(120)), emp(raise(5, 1, 100, 1000))],
        vec![emp(raise(1, 0, 180, 100))],
    ];
    let (db, out) = assert_run_matches_sequential(&template, &txns, "violations");
    let ok: Vec<bool> = out.results.iter().map(|r| r.is_ok()).collect();
    assert_eq!(ok, [true, false, false, false, true], "{:?}", out.results);
    for r in out.results.iter().filter_map(|r| r.as_ref().err()) {
        assert!(matches!(r, IvmError::AssertionViolated { .. }), "{r}");
    }
    // The raise and its undo committed; nothing else did.
    let emps = |db: &Database| db.catalog.table("Emp").unwrap().relation.data().clone();
    assert_eq!(emps(&db), emps(&template));
}
