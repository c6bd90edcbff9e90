//! End-to-end runtime reproduction of the paper's §3.6 scenario with real
//! data: 1000 departments × 10000 employees, the ProblemDept view, and
//! *measured* page I/Os compared against the paper's analytic numbers.

use spacetime_cost::TransactionType;
use spacetime_ivm::{verify_all_views, Database, ViewSelection};
use spacetime_storage::{tuple, IoMeter};

/// Build the paper's database with data loaded.
fn paper_db(selection: ViewSelection) -> Database {
    let mut db = Database::new();
    db.set_view_selection(selection);
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);",
    )
    .unwrap();
    // 1000 departments, 10 employees each; budgets high enough that the
    // view is initially empty ("the integrity constraint is rarely
    // violated").
    let mut io = IoMeter::new();
    for d in 0..1000 {
        let dname = format!("dept{d:04}");
        db.catalog
            .table_mut("Dept")
            .unwrap()
            .relation
            .insert(
                tuple![dname.clone(), format!("mgr{d}"), 2_000_i64],
                1,
                &mut io,
            )
            .unwrap();
        for e in 0..10 {
            db.catalog
                .table_mut("Emp")
                .unwrap()
                .relation
                .insert(
                    tuple![format!("emp{d:04}_{e}"), dname.clone(), 100_i64],
                    1,
                    &mut io,
                )
                .unwrap();
        }
    }
    db.catalog.table_mut("Emp").unwrap().analyze();
    db.catalog.table_mut("Dept").unwrap().analyze();
    db.declare_workload(vec![
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ]);
    db.execute_sql(
        "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
         SELECT Dept.DName FROM Emp, Dept \
         WHERE Dept.DName = Emp.DName \
         GROUP BY Dept.DName, Budget \
         HAVING SUM(Salary) > Budget",
    )
    .unwrap();
    db
}

#[test]
fn optimizer_materializes_sum_of_sals() {
    let db = paper_db(ViewSelection::Exhaustive);
    let engine = &db.engines()[0];
    // The chosen set must include at least one auxiliary view, and one of
    // them must be the SumOfSals shape (1000 rows, one per department).
    assert!(engine.view_set.len() >= 2, "{:?}", engine.view_set);
    let has_sum_of_sals = engine
        .materialized
        .values()
        .any(|t| db.catalog.table(t).map(|t| t.relation.len()) == Ok(1000) && t.contains("aux"));
    assert!(has_sum_of_sals, "{:?}", engine.materialized);
}

#[test]
fn measured_emp_update_costs_match_paper() {
    let mut db = paper_db(ViewSelection::Exhaustive);
    // >Emp: modify one salary (not enough to violate the budget).
    let report = match db
        .execute_sql("UPDATE Emp SET Salary = 130 WHERE EName = 'emp0042_3'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { count, report } => {
            assert_eq!(count, 1);
            report
        }
        other => panic!("{other:?}"),
    };
    // Paper, strategy (b): 2 page I/Os of queries (Q2Re) + 3 page I/Os
    // maintaining SumOfSals = 5 in total.
    assert_eq!(report.query_io.total(), 2, "{:?}", report.query_io);
    assert_eq!(report.aux_io.total(), 3, "{:?}", report.aux_io);
    assert_eq!(report.paper_cost(), 5);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn measured_dept_update_costs_match_paper() {
    let mut db = paper_db(ViewSelection::Exhaustive);
    let report = match db
        .execute_sql("UPDATE Dept SET Budget = 2500 WHERE DName = 'dept0007'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    // Paper, strategy (b), >Dept: 2 page I/Os (Q2Ld against the
    // materialized SumOfSals), no auxiliary maintenance.
    assert_eq!(report.query_io.total(), 2, "{:?}", report.query_io);
    assert_eq!(report.aux_io.total(), 0);
    assert_eq!(report.paper_cost(), 2);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn measured_costs_without_auxiliary_views() {
    let mut db = paper_db(ViewSelection::RootOnly);
    // Strategy (a): >Emp costs 13 (Q2Re 2 + Q4e 11), >Dept costs 11 (Q2Ld).
    let r_emp = match db
        .execute_sql("UPDATE Emp SET Salary = 130 WHERE EName = 'emp0042_3'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    assert_eq!(r_emp.paper_cost(), 13, "{:?}", r_emp.query_io);
    let r_dept = match db
        .execute_sql("UPDATE Dept SET Budget = 2500 WHERE DName = 'dept0007'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    assert_eq!(r_dept.paper_cost(), 11, "{:?}", r_dept.query_io);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn view_contents_track_updates_through_threshold() {
    let mut db = paper_db(ViewSelection::Exhaustive);
    let root = &db.engines()[0].name.clone();
    assert!(db.catalog.table(root).unwrap().relation.is_empty());
    // Push dept0001 over budget: 10 × 100 = 1000 ≤ 2000, so raise one
    // salary to 1200 → sum 2100 > 2000.
    db.execute_sql("UPDATE Emp SET Salary = 1200 WHERE EName = 'emp0001_0'")
        .unwrap();
    let rows = db.catalog.table(root).unwrap().relation.data().clone();
    assert_eq!(rows.len(), 1);
    assert!(rows.contains(&tuple!["dept0001"]));
    // And back down again.
    db.execute_sql("UPDATE Emp SET Salary = 100 WHERE EName = 'emp0001_0'")
        .unwrap();
    assert!(db.catalog.table(root).unwrap().relation.is_empty());
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// The paper's §1 motivation: "when a new employee is added to a
/// department that is not in ProblemDept … the sum of the salaries of all
/// the employees in that department needs to be recomputed … this can be
/// expensive!" — unless SumOfSals is materialized, in which case the
/// insert is "adding to … the previous aggregate values".
#[test]
fn measured_insert_costs() {
    // Without SumOfSals: recompute the group (11) + Dept lookup (2) = 13.
    let mut db = paper_db(ViewSelection::RootOnly);
    let r = match db
        .execute_sql("INSERT INTO Emp VALUES ('newbie', 'dept0005', 50)")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    assert_eq!(r.paper_cost(), 13, "{:?}", r.query_io);
    // With SumOfSals: adjust the group row in place (2 + 3 = 5).
    let mut db = paper_db(ViewSelection::Exhaustive);
    let r = match db
        .execute_sql("INSERT INTO Emp VALUES ('newbie', 'dept0005', 50)")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    assert_eq!(r.query_io.total(), 2, "{:?}", r.query_io);
    assert_eq!(r.aux_io.total(), 3, "{:?}", r.aux_io);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn inserts_and_deletes_maintain_views() {
    let mut db = paper_db(ViewSelection::Exhaustive);
    db.execute_sql("INSERT INTO Emp VALUES ('newbie', 'dept0005', 50)")
        .unwrap();
    db.execute_sql("DELETE FROM Emp WHERE EName = 'emp0005_9'")
        .unwrap();
    // Department transfer (group-key change).
    db.execute_sql("UPDATE Emp SET DName = 'dept0006' WHERE EName = 'emp0005_8'")
        .unwrap();
    assert!(verify_all_views(&db).unwrap().is_empty());
}

#[test]
fn assertion_rejects_violating_transaction() {
    let mut db = paper_db(ViewSelection::Exhaustive);
    db.execute_sql(
        "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
            SELECT Dept.DName FROM Emp, Dept \
            WHERE Dept.DName = Emp.DName \
            GROUP BY Dept.DName, Budget \
            HAVING SUM(Salary) > Budget))",
    )
    .unwrap();
    assert!(db.check_assertions().unwrap().is_empty());
    // A violating update must be rejected without being applied.
    let err = db
        .execute_sql("UPDATE Emp SET Salary = 99999 WHERE EName = 'emp0001_0'")
        .unwrap_err();
    assert!(err.to_string().contains("DeptConstraint"), "{err}");
    // State unchanged: the salary is still 100 and views consistent.
    let rows = match db
        .execute_sql("SELECT Salary FROM Emp WHERE EName = 'emp0001_0'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Rows(rows) => rows,
        other => panic!("{other:?}"),
    };
    assert!(rows.contains(&tuple![100]));
    assert!(verify_all_views(&db).unwrap().is_empty());
    // A harmless update still goes through.
    db.execute_sql("UPDATE Emp SET Salary = 110 WHERE EName = 'emp0001_0'")
        .unwrap();
    assert!(db.check_assertions().unwrap().is_empty());
}

/// Greedy pays the paper's runtime cost, and the Shielding-Principle
/// decomposition (§4) chooses the very view set greedy materialized, so
/// maintaining its choice costs the same.
#[test]
fn greedy_and_shielding_reach_the_same_runtime_costs() {
    let mut db = paper_db(ViewSelection::Greedy);
    let engine = &db.engines()[0];
    let txns = [
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ];
    let model = spacetime_optimizer::PageIoCostModel::default();
    let config = spacetime_optimizer::EvalConfig::default();
    let mut shielded = spacetime_optimizer::shielding_optimize(
        &engine.memo,
        &db.catalog,
        &model,
        engine.root,
        &txns,
        &config,
    )
    .best
    .view_set;
    shielded.insert(engine.root);
    assert_eq!(shielded, engine.view_set);

    let report = match db
        .execute_sql("UPDATE Emp SET Salary = 130 WHERE EName = 'emp0042_3'")
        .unwrap()
    {
        spacetime_ivm::database::SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    assert_eq!(report.paper_cost(), 5);
    assert!(verify_all_views(&db).unwrap().is_empty());
}
