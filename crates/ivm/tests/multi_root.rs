//! §6 end-to-end: several views sharing one DAG, one auxiliary-view
//! choice, and one maintenance pass per update.

use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ExprTree, ScalarExpr};
use spacetime_cost::{PageIoCostModel, TransactionType};
use spacetime_ivm::{verify_all_views, Database, ViewSelection};
use spacetime_memo::GroupId;
use spacetime_optimizer::{greedy_add, optimal_view_set, EvalConfig};
use spacetime_storage::{tuple, IoMeter};

fn workload() -> Vec<TransactionType> {
    vec![
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ]
}

fn base_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);",
    )
    .unwrap();
    let mut io = IoMeter::new();
    for d in 0..100 {
        let dname = format!("dept{d:03}");
        db.catalog
            .table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple![dname.clone(), format!("m{d}"), 2000_i64], 1, &mut io)
            .unwrap();
        for e in 0..10 {
            db.catalog
                .table_mut("Emp")
                .unwrap()
                .relation
                .insert(
                    tuple![format!("e{d:03}_{e}"), dname.clone(), 100_i64],
                    1,
                    &mut io,
                )
                .unwrap();
        }
    }
    db.catalog.table_mut("Emp").unwrap().analyze();
    db.catalog.table_mut("Dept").unwrap().analyze();
    db.declare_workload(workload());
    db
}

/// ProblemDept and a salary report share the SumOfSals subexpression:
/// grouped creation materializes ONE auxiliary for both.
#[test]
fn view_group_shares_one_auxiliary() {
    let mut db = base_db();
    // View 1: ProblemDept.
    let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
    let dept = ExprNode::scan(&db.catalog, "Dept").unwrap();
    let join = ExprNode::join_on(emp.clone(), dept, &[("Emp.DName", "Dept.DName")]).unwrap();
    let agg = ExprNode::aggregate(
        join,
        vec![3, 5],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .unwrap();
    let problem_dept = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
    )
    .unwrap();
    // View 2: departments with a positive salary total (trivially all of
    // them — the point is the shared SumOfSals shape).
    let agg2 = ExprNode::aggregate(
        emp,
        vec![1],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .unwrap();
    let payroll = ExprNode::select(
        agg2,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(0)),
    )
    .unwrap();

    db.create_view_group(vec![
        ("ProblemDept".to_string(), problem_dept),
        ("Payroll".to_string(), payroll),
    ])
    .unwrap();

    // One engine, two roots, and at most one auxiliary beyond them.
    assert_eq!(db.engines().len(), 1);
    let engine = &db.engines()[0];
    assert_eq!(engine.roots.len(), 2);
    let aux: Vec<&String> = engine
        .materialized
        .iter()
        .filter(|(g, _)| !engine.roots.contains(g))
        .map(|(_, t)| t)
        .collect();
    assert!(
        aux.len() <= 1,
        "shared auxiliary, not one per view: {aux:?}"
    );

    // Both views exist and are correct.
    assert_eq!(db.catalog.table("Payroll").unwrap().relation.len(), 100);
    assert!(db.catalog.table("ProblemDept").unwrap().relation.is_empty());

    // One update maintains both.
    db.execute_sql("UPDATE Emp SET Salary = 5000 WHERE EName = 'e003_0'")
        .unwrap();
    assert_eq!(db.catalog.table("ProblemDept").unwrap().relation.len(), 1);
    assert!(verify_all_views(&db).unwrap().is_empty());

    // And a Dept update (affects only ProblemDept's side of the DAG).
    db.execute_sql("UPDATE Dept SET Budget = 500 WHERE DName = 'dept004'")
        .unwrap();
    assert_eq!(db.catalog.table("ProblemDept").unwrap().relation.len(), 2);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// A grouped creation with one view behaves exactly like the singular API.
#[test]
fn singleton_group_equals_single_view() {
    let mut db1 = base_db();
    let mut db2 = base_db();
    let make_tree = |db: &Database| {
        let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
        ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap()
    };
    let t1 = make_tree(&db1);
    let t2 = make_tree(&db2);
    db1.create_materialized_view("V", t1).unwrap();
    db2.create_view_group(vec![("V".to_string(), t2)]).unwrap();
    db1.execute_sql("UPDATE Emp SET Salary = 120 WHERE EName = 'e001_1'")
        .unwrap();
    db2.execute_sql("UPDATE Emp SET Salary = 120 WHERE EName = 'e001_1'")
        .unwrap();
    assert_eq!(
        db1.catalog.table("V").unwrap().relation.data(),
        db2.catalog.table("V").unwrap().relation.data()
    );
    assert!(verify_all_views(&db1).unwrap().is_empty());
    assert!(verify_all_views(&db2).unwrap().is_empty());
}

/// Multi-relation transactions propagate sequentially (§3.2's transaction
/// model): each relation's delta is applied with the intermediate states
/// visible to the next, and every view stays exact throughout.
#[test]
fn multi_relation_transaction() {
    let mut db = base_db();
    let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
    let dept = ExprNode::scan(&db.catalog, "Dept").unwrap();
    let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
    let agg = ExprNode::aggregate(
        join,
        vec![3, 5],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .unwrap();
    let view = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
    )
    .unwrap();
    db.create_materialized_view("OverBudget", view).unwrap();

    // One transaction: raise a salary AND cut the same department's
    // budget — only the combination pushes it over.
    let report = db
        .apply_transaction(vec![
            (
                "Emp".to_string(),
                spacetime_delta::Delta::modify(
                    tuple!["e005_0", "dept005", 100],
                    tuple!["e005_0", "dept005", 900],
                    1,
                ),
            ),
            (
                "Dept".to_string(),
                spacetime_delta::Delta::modify(
                    tuple!["dept005", "m5", 2000],
                    tuple!["dept005", "m5", 1700],
                    1,
                ),
            ),
        ])
        .unwrap();
    assert!(report.total() > 0);
    // 900 + 9×100 = 1800 > 1700: over budget after both steps.
    assert_eq!(db.catalog.table("OverBudget").unwrap().relation.len(), 1);
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// Payroll and BigPayroll: two selections over Emp's
/// `SUM(Salary) GROUP BY DName`, which is their one shared subexpression.
fn payroll_group(db: &Database) -> Vec<(String, ExprTree)> {
    let payroll = |name: &str, floor: i64| {
        let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
        let sums = ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap();
        let tree = ExprNode::select(
            sums,
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(floor)),
        )
        .unwrap();
        (name.to_string(), tree)
    };
    vec![payroll("Payroll", 0), payroll("BigPayroll", 1000)]
}

/// A view group runs the session's `ViewSelection` over all its roots,
/// as a single view does: `RootOnly` materializes the two views alone,
/// `Greedy` and `Exhaustive` choose what `greedy_add` and
/// `optimal_view_set` choose for the roots. Every choice maintains both
/// views exactly.
#[test]
fn view_group_honours_its_selection() {
    let model = PageIoCostModel::default();
    let config = EvalConfig {
        top_k: 1,
        ..EvalConfig::default()
    };
    for selection in [
        ViewSelection::RootOnly,
        ViewSelection::Greedy,
        ViewSelection::Exhaustive,
    ] {
        let mut db = base_db();
        let base_catalog = db.catalog.clone();
        db.set_view_selection(selection);
        let group = payroll_group(&db);
        db.create_view_group(group).unwrap();
        let engine = &db.engines()[0];
        let roots: Vec<GroupId> = engine.roots.iter().copied().collect();
        assert_eq!(roots.len(), 2);
        let memo = &engine.memo;
        let chosen = match selection {
            ViewSelection::RootOnly => roots.iter().copied().collect(),
            ViewSelection::Greedy => {
                greedy_add(memo, &base_catalog, &model, &roots, &workload(), &config)
                    .best
                    .view_set
            }
            ViewSelection::Exhaustive => {
                optimal_view_set(memo, &base_catalog, &model, &roots, &workload(), &config)
                    .best
                    .view_set
            }
        };
        assert_eq!(engine.view_set, chosen, "{selection:?}");
        if selection == ViewSelection::RootOnly {
            let mut tables: Vec<&str> = engine.materialized.values().map(String::as_str).collect();
            tables.sort();
            assert_eq!(tables, ["BigPayroll", "Payroll"]);
        }

        assert_eq!(db.catalog.table("Payroll").unwrap().relation.len(), 100);
        assert!(db.catalog.table("BigPayroll").unwrap().relation.is_empty());
        db.execute_sql("UPDATE Emp SET Salary = 5000 WHERE EName = 'e003_0'")
            .unwrap();
        db.execute_sql("DELETE FROM Emp WHERE EName = 'e007_1'")
            .unwrap();
        assert_eq!(db.catalog.table("BigPayroll").unwrap().relation.len(), 1);
        assert!(verify_all_views(&db).unwrap().is_empty(), "{selection:?}");
    }
}
