//! Focused tests of the runtime internals: the query executor's access
//! paths, engine planning/commit phases, and report accounting.

use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ScalarExpr};
use spacetime_delta::{Delta, UndoLog};
use spacetime_ivm::engine::IvmEngine;
use spacetime_ivm::qexec::QueryExec;
use spacetime_ivm::UpdateReport;
use spacetime_memo::{explore, Memo};
use spacetime_optimizer::ViewSet;
use spacetime_storage::{tuple, Catalog, DataType, IoMeter, Schema, Value};

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        "Emp",
        Schema::of_table(
            "Emp",
            &[
                ("EName", DataType::Str),
                ("DName", DataType::Str),
                ("Salary", DataType::Int),
            ],
        ),
    )
    .unwrap();
    cat.declare_key("Emp", &["EName"]).unwrap();
    cat.create_index("Emp", &["DName"]).unwrap();
    cat.create_table(
        "Dept",
        Schema::of_table(
            "Dept",
            &[("DName", DataType::Str), ("Budget", DataType::Int)],
        ),
    )
    .unwrap();
    cat.declare_key("Dept", &["DName"]).unwrap();
    let mut io = IoMeter::new();
    for (e, d, s) in [
        ("a", "x", 10),
        ("b", "x", 20),
        ("c", "y", 30),
        ("d", "y", 40),
        ("e", "z", 50),
    ] {
        cat.table_mut("Emp")
            .unwrap()
            .relation
            .insert(tuple![e, d, s], 1, &mut io)
            .unwrap();
    }
    for (d, b) in [("x", 100), ("y", 25), ("z", 60)] {
        cat.table_mut("Dept")
            .unwrap()
            .relation
            .insert(tuple![d, b], 1, &mut io)
            .unwrap();
    }
    cat.table_mut("Emp").unwrap().analyze();
    cat.table_mut("Dept").unwrap().analyze();
    cat
}

fn sum_view(cat: &Catalog) -> (Memo, spacetime_memo::GroupId) {
    let emp = ExprNode::scan(cat, "Emp").unwrap();
    let dept = ExprNode::scan(cat, "Dept").unwrap();
    let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
    let agg = ExprNode::aggregate(
        join,
        vec![3, 4],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "S")],
    )
    .unwrap();
    let sel = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
    )
    .unwrap();
    let mut memo = Memo::new();
    let root = memo.insert_tree(&sel);
    memo.set_root(root);
    explore(&mut memo, cat).unwrap();
    let root = memo.find(root);
    (memo, root)
}

#[test]
fn qexec_leaf_lookup_uses_index() {
    let cat = catalog();
    let (memo, _root) = sum_view(&cat);
    let emp_group = memo
        .groups()
        .find(|&g| {
            memo.group_ops(g).iter().any(|&o| {
                matches!(&memo.op(o).op, spacetime_algebra::OpKind::Scan { table } if table == "Emp")
            })
        })
        .unwrap();
    let mats = Default::default();
    let mut exec = QueryExec::new(&memo, &cat, &mats);
    let mut io = IoMeter::new();
    let hits = exec
        .query(emp_group, &[1], &[Value::str("y")], &mut io)
        .unwrap();
    assert_eq!(hits.len(), 2);
    assert!(
        matches!(hits, std::borrow::Cow::Borrowed(_)),
        "a stored bucket is borrowed, not copied"
    );
    assert_eq!(io.total(), 3, "index probe + 2 tuples");
}

#[test]
fn qexec_pushes_binding_through_aggregate() {
    let cat = catalog();
    let (memo, root) = sum_view(&cat);
    // The select's child group (aggregate output), bound on DName.
    let n2 = {
        let op = memo.group_ops(root)[0];
        memo.op_children(op)[0]
    };
    let mats = Default::default();
    let mut exec = QueryExec::new(&memo, &cat, &mats);
    let mut io = IoMeter::new();
    let rows = exec.query(n2, &[0], &[Value::str("y")], &mut io).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(
        matches!(rows, std::borrow::Cow::Owned(_)),
        "a derived answer is owned"
    );
    assert!(rows.contains(&tuple!["y", 25, 70]));
    // Pushed to indexes: 3 (Emp y-group) + 2 (Dept key) page I/Os.
    assert_eq!(io.total(), 5, "{io}");
}

#[test]
fn qexec_full_eval_matches_executor() {
    let cat = catalog();
    let (memo, root) = sum_view(&cat);
    let mats = Default::default();
    let mut exec = QueryExec::new(&memo, &cat, &mats);
    let mut io = IoMeter::new();
    let got = exec.full_eval(root, &mut io).unwrap();
    let reference = spacetime_algebra::eval_uncharged(&memo.extract_one(root), &cat).unwrap();
    assert_eq!(*got, reference);
    // y: 70 > 25 — the only over-budget department.
    assert_eq!(got.len(), 1);
}

#[test]
fn engine_plan_then_commit_phases() {
    let mut cat = catalog();
    let (memo, root) = sum_view(&cat);
    let set: ViewSet = [root].into_iter().collect();
    let engine = IvmEngine::build("V", memo, root, set, &mut cat).unwrap();
    assert!(engine.depends_on("Emp"));
    assert!(engine.depends_on("Dept"));
    assert!(!engine.depends_on("Nope"));

    // Plan: nothing applied yet.
    let delta = Delta::modify(tuple!["e", "z", 50], tuple!["e", "z", 70], 1);
    let planned = engine.plan_update(&cat, "Emp", &delta).unwrap();
    assert!(
        cat.table("V").unwrap().relation.len() == 1,
        "not yet applied"
    );
    // z: 70 > 60 now → one insert at the root.
    let root_delta = planned.root_delta(engine.root).unwrap();
    assert_eq!(root_delta.inserts.len(), 1);

    // Commit applies it.
    engine
        .commit_in_place(&mut cat, &planned, &mut UndoLog::new())
        .unwrap();
    assert_eq!(cat.table("V").unwrap().relation.len(), 2);
}

#[test]
fn unrelated_table_update_is_free() {
    let mut cat = catalog();
    cat.create_table("Other", Schema::of_table("Other", &[("x", DataType::Int)]))
        .unwrap();
    let (memo, root) = sum_view(&cat);
    let set: ViewSet = [root].into_iter().collect();
    let engine = IvmEngine::build("V", memo, root, set, &mut cat).unwrap();
    let planned = engine
        .plan_update(&cat, "Other", &Delta::insert(tuple![1], 1))
        .unwrap();
    assert!(planned.view_deltas.is_empty());
    assert_eq!(planned.report.query_io.total(), 0);
}

#[test]
fn update_report_accounting() {
    let mut a = UpdateReport::default();
    a.query_io.index_probe();
    a.query_io.read_tuples(1);
    a.aux_io.read_tuples(2);
    a.root_io.write_tuples(3);
    a.base_io.write_tuples(4);
    assert_eq!(a.paper_cost(), 4, "queries + aux only");
    assert_eq!(a.total(), 11);
    let mut b = UpdateReport::default();
    b.merge(&a);
    b.merge(&a);
    assert_eq!(b.paper_cost(), 8);
    assert_eq!(b.total(), 22);
}

/// Regression: `commit_in_place` must return *only* apply-phase I/O. The
/// old behavior (returning a clone of the planning report with apply
/// buckets added) double-counted `query_io` whenever a caller merged
/// planning and commit reports.
#[test]
fn commit_report_contains_only_apply_io() {
    let mut cat = catalog();
    let (memo, root) = sum_view(&cat);
    let set: ViewSet = [root].into_iter().collect();
    let engine = IvmEngine::build("V", memo, root, set, &mut cat).unwrap();
    let delta = Delta::modify(tuple!["e", "z", 50], tuple!["e", "z", 70], 1);
    let planned = engine.plan_update(&cat, "Emp", &delta).unwrap();
    assert!(planned.report.query_io.total() > 0, "planning poses queries");
    assert!(planned.report.queries_posed > 0);
    let commit = engine
        .commit_in_place(&mut cat, &planned, &mut UndoLog::new())
        .unwrap();
    assert_eq!(commit.query_io.total(), 0, "planning I/O re-counted");
    assert_eq!(commit.queries_posed, 0);
    assert!(commit.root_io.total() > 0, "root view write is apply I/O");
}

#[test]
fn engine_rejects_unknown_table_under_view() {
    let mut cat = catalog();
    let (memo, root) = sum_view(&cat);
    let set: ViewSet = [root].into_iter().collect();
    let engine = IvmEngine::build("V", memo, root, set, &mut cat).unwrap();
    // An inconsistent delta (modifying an absent tuple) must surface as an
    // error during planning (the propagation rules detect it).
    let bad = Delta::modify(tuple!["ghost", "x", 1], tuple!["ghost", "x", 2], 1);
    // Planning may succeed at nodes that never read the tuple, but the
    // subsequent commit of a root modify referencing absent rows fails;
    // either phase erroring is acceptable — the end state must not be
    // silently wrong.
    let result = engine
        .plan_update(&cat, "Emp", &bad)
        .and_then(|p| engine.commit_in_place(&mut cat, &p, &mut UndoLog::new()));
    assert!(result.is_err());
}

/// A self-join puts the updated table's delta on both join inputs, which
/// sequential propagation does not support: the view can be created, but
/// an update to its table fails with a typed error and leaves nothing
/// behind.
#[test]
fn self_join_update_is_unsupported_and_rolls_back() {
    use spacetime_ivm::{verify_all_views, Database, IvmError};
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE T (K INTEGER PRIMARY KEY, G INTEGER, V INTEGER);
         INSERT INTO T VALUES (1, 10, 100);
         INSERT INTO T VALUES (2, 10, 200);
         CREATE MATERIALIZED VIEW P AS SELECT A.K, B.K FROM T A, T B WHERE A.G = B.G",
    )
    .unwrap();
    let before = db.catalog.clone();
    let err = db
        .apply_delta("T", Delta::insert(tuple![3, 10, 300], 1))
        .unwrap_err();
    assert!(matches!(err, IvmError::Unsupported(_)), "{err:?}");
    for name in ["T", "P"] {
        assert_eq!(
            db.catalog.table(name).unwrap().relation.data(),
            before.table(name).unwrap().relation.data(),
            "`{name}` rolled back"
        );
    }
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// An engine needs at least one root view: an empty root list is a typed
/// error, not a panic.
#[test]
fn build_with_no_roots_is_an_error() {
    use spacetime_ivm::IvmError;
    let mut cat = catalog();
    let (memo, _root) = sum_view(&cat);
    let err = IvmEngine::build_with_roots(vec![], memo, ViewSet::new(), &mut cat).unwrap_err();
    assert!(matches!(err, IvmError::Unsupported(_)), "{err:?}");
}

/// A view that is the bare table (`SELECT * FROM t`) is the table's leaf
/// group materialized: it takes the base delta as it is, alone or beside
/// another view of the same table.
#[test]
fn a_bare_table_view_is_maintained() {
    use spacetime_algebra::ExprTree;
    use spacetime_ivm::{verify_all_views, Database};
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE T (K INTEGER PRIMARY KEY, G INTEGER, V INTEGER);
         INSERT INTO T VALUES (1, 10, 100);
         CREATE MATERIALIZED VIEW P AS SELECT * FROM T",
    )
    .unwrap();
    let scan = ExprNode::scan(&db.catalog, "T").unwrap();
    let big = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(150));
    let group: Vec<(String, ExprTree)> = vec![
        ("V1".into(), scan.clone()),
        ("V2".into(), ExprNode::select(scan, big).unwrap()),
    ];
    db.create_view_group(group).unwrap();
    db.apply_delta("T", Delta::insert(tuple![3, 10, 300], 1))
        .unwrap();
    for (view, rows) in [("P", 2), ("V1", 2), ("V2", 1)] {
        assert_eq!(
            db.catalog.table(view).unwrap().relation.len(),
            rows,
            "{view}"
        );
    }
    assert!(verify_all_views(&db).unwrap().is_empty());
}
