//! Cross-crate integration: the full SQL → DAG → optimizer → runtime
//! pipeline on the paper's examples, plus the theorems' end-to-end
//! consequences.

use spacetime::cost::{CostCtx, PageIoCostModel, TransactionType};
use spacetime::ivm::database::SqlOutcome;
use spacetime::ivm::{verify_all_views, Database, ViewSelection};
use spacetime::memo::{explore, Memo};
use spacetime::optimizer::{
    evaluate_view_set, greedy_add, optimal_view_set, shielding_optimize, EvalConfig, ViewSet,
};
use spacetime::sql::{lower_select, parse_statement, Statement};
use spacetime::storage::{tuple, IoMeter};
use spacetime_bench::scenarios::{join_chain, problem_dept, stacked_view};

/// The paper's view, defined via SQL, with a paper-shaped DAG behind it.
#[test]
fn sql_view_definition_round_trips_through_the_dag() {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);",
    )
    .unwrap();
    let Statement::Select(sel) = parse_statement(
        "SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
         GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
    )
    .unwrap() else {
        panic!()
    };
    let tree = lower_select(&sel, &db.catalog).unwrap();
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    let stats = explore(&mut memo, &db.catalog).unwrap();
    assert!(
        stats.final_groups >= 6,
        "paper's DAG has ≥6 equivalence nodes"
    );
    assert!(memo.count_trees(memo.find(root)) >= 2);
}

/// Theorem 3.1 in effect: the exhaustive optimum beats or equals every
/// heuristic on several scenarios.
#[test]
fn exhaustive_dominates_heuristics_everywhere() {
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    for s in [problem_dept(), join_chain(3), stacked_view(1)] {
        let ex = optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config);
        let gr = greedy_add(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config);
        let sh = shielding_optimize(&s.memo, &s.catalog, &model, s.root, &s.txns, &config);
        assert!(ex.best.weighted <= gr.best.weighted + 1e-9);
        assert_eq!(ex.best.weighted, sh.best.weighted, "Theorem 4.1");
    }
}

/// The weighted-average objective responds to weights exactly as §3.5
/// prescribes: C(V) = Σ C(V,Tᵢ)·fᵢ / Σ fᵢ.
#[test]
fn weighting_shifts_the_objective_not_the_per_txn_costs() {
    let s = problem_dept();
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let set: ViewSet = [s.root].into_iter().collect();
    let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
    let balanced = evaluate_view_set(&mut ctx, &s.catalog, &[s.root], &set, &s.txns, &config);
    let skewed_txns = vec![
        TransactionType::modify(">Emp", "Emp", 1.0).with_weight(3.0),
        TransactionType::modify(">Dept", "Dept", 1.0).with_weight(1.0),
    ];
    let skewed = evaluate_view_set(&mut ctx, &s.catalog, &[s.root], &set, &skewed_txns, &config);
    // Per-transaction totals identical; weighted average shifts toward >Emp.
    assert_eq!(
        balanced.txn_total(">Emp").unwrap(),
        skewed.txn_total(">Emp").unwrap()
    );
    assert_eq!(balanced.weighted, 12.0);
    assert_eq!(skewed.weighted, (13.0 * 3.0 + 11.0) / 4.0);
}

/// End-to-end SQL session exercising every statement kind.
#[test]
fn sql_session_smoke() {
    let mut db = Database::new();
    db.set_view_selection(ViewSelection::Greedy);
    db.execute_sql("CREATE TABLE Item (Id INTEGER PRIMARY KEY, Kind VARCHAR, Price INTEGER)")
        .unwrap();
    db.execute_sql("CREATE INDEX ON Item (Kind)").unwrap();
    db.execute_sql("INSERT INTO Item VALUES (1, 'book', 12), (2, 'book', 30), (3, 'lamp', 40)")
        .unwrap();
    db.execute_sql(
        "CREATE MATERIALIZED VIEW KindStats AS \
         SELECT Kind, COUNT(*) AS N, SUM(Price) AS Total FROM Item GROUP BY Kind",
    )
    .unwrap();
    // Check the initial materialization.
    let rows = match db.execute_sql("SELECT * FROM KindStats").unwrap() {
        SqlOutcome::Rows(r) => r,
        other => panic!("{other:?}"),
    };
    assert!(rows.contains(&tuple!["book", 2, 42]));
    // DML through every path.
    db.execute_sql("UPDATE Item SET Price = 15 WHERE Id = 1")
        .unwrap();
    db.execute_sql("DELETE FROM Item WHERE Id = 3").unwrap();
    db.execute_sql("INSERT INTO Item VALUES (4, 'lamp', 25)")
        .unwrap();
    let rows = match db.execute_sql("SELECT * FROM KindStats").unwrap() {
        SqlOutcome::Rows(r) => r,
        other => panic!("{other:?}"),
    };
    assert!(rows.contains(&tuple!["book", 2, 45]), "{rows}");
    assert!(rows.contains(&tuple!["lamp", 1, 25]), "{rows}");
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// Error paths across layers stay errors, not panics.
#[test]
fn pipeline_error_paths() {
    let mut db = Database::new();
    assert!(db.execute_sql("SELECT * FROM Nope").is_err());
    assert!(db.execute_sql("CREATE TABLE T (x WIBBLE)").is_err());
    db.execute_sql("CREATE TABLE T (x INTEGER)").unwrap();
    assert!(db.execute_sql("CREATE TABLE T (x INTEGER)").is_err());
    assert!(db.execute_sql("SELECT y FROM T").is_err());
    assert!(db
        .execute_sql("DELETE FROM T WHERE nonexistent = 1")
        .is_err());
    // Deleting a tuple that is not there is a storage error.
    db.execute_sql("INSERT INTO T VALUES (1)").unwrap();
    assert!(db
        .apply_delta("T", spacetime::delta::Delta::delete(tuple![7], 1))
        .is_err());
}

/// A view over a single relation needs no queries at all when its only
/// aggregate is self-maintainable — the degenerate best case.
#[test]
fn self_maintainable_view_needs_no_queries() {
    let mut db = Database::new();
    db.set_view_selection(ViewSelection::RootOnly);
    db.execute_sql("CREATE TABLE E (Name VARCHAR PRIMARY KEY, D VARCHAR, S INTEGER)")
        .unwrap();
    db.execute_sql("CREATE INDEX ON E (D)").unwrap();
    let mut io = IoMeter::new();
    for i in 0..50 {
        db.catalog
            .table_mut("E")
            .unwrap()
            .relation
            .insert(
                tuple![format!("e{i}"), format!("d{}", i % 5), 100_i64],
                1,
                &mut io,
            )
            .unwrap();
    }
    db.catalog.table_mut("E").unwrap().analyze();
    db.execute_sql("CREATE MATERIALIZED VIEW SumOfSals AS SELECT D, SUM(S) AS T FROM E GROUP BY D")
        .unwrap();
    let report = match db
        .execute_sql("UPDATE E SET S = 120 WHERE Name = 'e7'")
        .unwrap()
    {
        SqlOutcome::Updated { report, .. } => report,
        other => panic!("{other:?}"),
    };
    // The root (SumOfSals) is its own aggregate: the old group row comes
    // from the materialization itself, so zero query I/O is posed.
    assert_eq!(report.query_io.total(), 0, "{:?}", report.query_io);
    assert!(verify_all_views(&db).unwrap().is_empty());
}
