//! The propagation-trace plane: opt-in and zero behavior change.

use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, KernelScratch, ScalarExpr};
use spacetime_delta::Delta;
use spacetime_ivm::engine::IvmEngine;
use spacetime_ivm::{verify_all_views, Database, ViewSelection};
use spacetime_memo::Memo;
use spacetime_optimizer::ViewSet;
use spacetime_storage::{tuple, Bag, IoMeter};

/// The paper's Emp/Dept schema with an aggregate view and an assertion, so
/// an update exercises multi-engine propagation plus the assertion gate.
fn small_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);",
    )
    .unwrap();
    let mut io = IoMeter::new();
    for d in 0..4 {
        let dname = format!("dept{d}");
        db.catalog
            .table_mut("Dept")
            .unwrap()
            .relation
            .insert(
                tuple![dname.clone(), format!("mgr{d}"), 900_i64],
                1,
                &mut io,
            )
            .unwrap();
        for e in 0..3 {
            db.catalog
                .table_mut("Emp")
                .unwrap()
                .relation
                .insert(
                    tuple![format!("emp{d}_{e}"), dname.clone(), 100_i64],
                    1,
                    &mut io,
                )
                .unwrap();
        }
    }
    db.catalog.table_mut("Emp").unwrap().analyze();
    db.catalog.table_mut("Dept").unwrap().analyze();
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptSal AS \
         SELECT DName, SUM(Salary) AS Total FROM Emp GROUP BY DName",
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

fn raise() -> Delta {
    Delta::modify(
        tuple!["emp1_0", "dept1", 100_i64],
        tuple!["emp1_0", "dept1", 150_i64],
        1,
    )
}

fn contents(db: &Database) -> Vec<(String, Bag)> {
    db.catalog
        .iter()
        .map(|(n, t)| (n.to_string(), t.relation.data().clone()))
        .collect()
}

#[test]
fn tracing_off_records_nothing() {
    let mut db = small_db();
    db.apply_delta("Emp", raise()).unwrap();
    assert!(db.last_trace().is_none());
}

#[test]
fn trace_shape_covers_propagation_and_commit() {
    let mut db = small_db();
    db.set_tracing(true);
    assert!(db.tracing());
    db.apply_delta("Emp", raise()).unwrap();
    let trace = db.last_trace().expect("tracing on records a trace");
    // `apply_delta` is a one-update transaction.
    assert_eq!(trace.label, "transaction");
    assert_eq!(trace.field("updates"), Some("1"));
    let [update] = &trace.children[..] else {
        panic!("one update span under the transaction");
    };
    assert_eq!(update.label, "update Emp");
    assert_eq!(update.field("rows"), Some("1"));
    // One propagate child per dependent engine (view + assertion), plus
    // the commit section.
    let propagates: Vec<_> = update
        .children
        .iter()
        .filter(|c| c.label.starts_with("propagate "))
        .collect();
    assert_eq!(
        propagates.len(),
        2,
        "view and assertion engines both traced"
    );
    for p in &propagates {
        assert_eq!(p.field("table"), Some("Emp"));
        assert!(p.field("track").is_some(), "track field present");
        // Every propagate span starts from the leaf scan.
        assert!(
            p.children[0].label.ends_with(" Scan"),
            "{}",
            p.children[0].label
        );
    }
    let commit = update
        .children
        .iter()
        .find(|c| c.label == "commit")
        .expect("commit section present");
    // The base table and the root view are both applied.
    assert!(commit.children.iter().any(|c| c.label == "apply Emp"));
    assert!(commit.children.iter().any(|c| c.label == "apply DeptSal"));
    let text = trace.render_text();
    assert!(text.contains("update Emp"), "text render roots the tree");
    assert!(text.contains("commit"), "text render shows commit");
    let json = trace.render_json();
    assert!(json.contains("\"label\": \"update Emp\""));
}

#[test]
fn empty_delta_clears_the_last_trace() {
    let mut db = small_db();
    db.set_tracing(true);
    db.apply_delta("Emp", raise()).unwrap();
    assert!(db.last_trace().is_some());
    db.apply_delta("Emp", Delta::new()).unwrap();
    // The prior update's trace never masquerades as this one's: an empty
    // update is a transaction with no update span.
    let trace = db.last_trace().expect("a transaction trace");
    assert_eq!(trace.label, "transaction");
    assert!(trace.children.is_empty(), "an empty update records no span");
}

#[test]
fn tracing_does_not_change_reports_or_contents() {
    let mut plain = small_db();
    let mut traced = small_db();
    traced.set_tracing(true);
    let r0 = plain.apply_delta("Emp", raise()).unwrap();
    let r1 = traced.apply_delta("Emp", raise()).unwrap();
    assert_eq!(r0, r1, "tracing must not perturb the report");
    assert_eq!(contents(&plain), contents(&traced));
    assert!(verify_all_views(&traced).unwrap().is_empty());
}

#[test]
fn transaction_trace_wraps_per_update_traces() {
    let mut db = small_db();
    db.set_tracing(true);
    let txn = vec![
        ("Emp".to_string(), raise()),
        ("Emp".to_string(), Delta::new()), // empty: traced as nothing
        (
            "Dept".to_string(),
            Delta::modify(
                tuple!["dept2", "mgr2", 900_i64],
                tuple!["dept2", "mgr2", 800_i64],
                1,
            ),
        ),
    ];
    db.apply_transaction(txn).unwrap();
    let trace = db.last_trace().expect("transaction trace recorded");
    assert_eq!(trace.label, "transaction");
    assert_eq!(trace.field("updates"), Some("3"));
    let labels: Vec<&str> = trace.children.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, ["update Emp", "update Dept"]);
}

#[test]
fn failed_transaction_restores_the_prior_trace() {
    let mut db = small_db();
    db.set_tracing(true);
    db.apply_delta("Emp", raise()).unwrap();
    let before = db.last_trace().unwrap().structure_json();
    // Blow the dept0 budget: assertion rejects, transaction rolls back.
    let bad = vec![(
        "Emp".to_string(),
        Delta::modify(
            tuple!["emp0_0", "dept0", 100_i64],
            tuple!["emp0_0", "dept0", 100_000_i64],
            1,
        ),
    )];
    assert!(db.apply_transaction(bad).is_err());
    let after = db.last_trace().expect("prior trace restored");
    assert_eq!(before, after.structure_json());
}

/// Tracing observes the served path: a σ(Salary > 150)→π chain runs as
/// one fused kernel, whose span carries its stage count, and the interior
/// σ group, which never runs on its own, has no span. Reports and
/// contents equal the untraced run's.
#[test]
fn a_traced_chain_runs_fused_as_one_span() {
    let chain_db = || {
        let mut db = small_db();
        db.set_view_selection(ViewSelection::RootOnly);
        db.execute_sql(
            "CREATE MATERIALIZED VIEW WellPaid AS SELECT EName FROM Emp WHERE Salary > 150",
        )
        .unwrap();
        db
    };
    let mut plain = chain_db();
    let mut traced = chain_db();
    traced.set_tracing(true);
    let (old, new) = (
        tuple!["emp2_1", "dept2", 100_i64],
        tuple!["emp2_1", "dept2", 200_i64],
    );
    let hike = Delta::modify(old, new, 1);
    let r0 = plain.apply_delta("Emp", hike.clone()).unwrap();
    let r1 = traced.apply_delta("Emp", hike).unwrap();
    assert_eq!(r0, r1, "tracing must not perturb the report");
    assert_eq!(contents(&plain), contents(&traced));

    let update = &traced.last_trace().unwrap().children[0];
    let propagate = update
        .children
        .iter()
        .find(|c| c.label == "propagate WellPaid")
        .expect("the chain view propagates");
    // Leaf, interior σ, π: three groups on the track, two spans.
    assert_eq!(propagate.field("track").unwrap().split('→').count(), 3);
    let labels: Vec<&str> = propagate
        .children
        .iter()
        .map(|c| c.label.as_str())
        .collect();
    assert_eq!(labels.len(), 2, "{labels:?}");
    assert!(labels[0].ends_with(" Scan"), "{labels:?}");
    let chain = &propagate.children[1];
    assert!(chain.label.ends_with(" Project"), "{labels:?}");
    assert_eq!(chain.field("stages"), Some("2"));
    assert_eq!(chain.field("mv"), Some("WellPaid"));
    assert_eq!(chain.field("Δout"), Some("1"));
}

/// A σ above an aggregate runs as a one-stage kernel off the aggregate's
/// slot: ProblemDept's HAVING σ (the paper's tree, σ over γ over ⋈, with
/// one track) is one chain span whose `Δin` is the aggregate's `Δout`.
#[test]
fn problem_dept_having_runs_as_a_one_stage_chain_off_the_aggregate() {
    let mut catalog = small_db().catalog;
    let emp = ExprNode::scan(&catalog, "Emp").unwrap();
    let dept = ExprNode::scan(&catalog, "Dept").unwrap();
    let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
    let sum = AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum");
    let agg = ExprNode::aggregate(join, vec![3, 5], vec![sum]).unwrap();
    let having = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1));
    let tree = ExprNode::select(agg, having).unwrap();
    // Unexplored, so the memo holds the one track Emp → ⋈ → γ → σ.
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    let set: ViewSet = [root].into_iter().collect();
    let engine = IvmEngine::build("ProblemDept", memo, root, set, &mut catalog).unwrap();
    // dept1's total passes its budget: one row enters the view.
    let delta = Delta::modify(
        tuple!["emp1_0", "dept1", 100_i64],
        tuple!["emp1_0", "dept1", 800_i64],
        1,
    );
    let planned = engine
        .plan_update_with(&catalog, "Emp", &delta, true, &mut KernelScratch::default())
        .unwrap();
    let trace = planned.trace.as_ref().expect("a traced plan");
    let labels: Vec<&str> = trace.children.iter().map(|c| c.label.as_str()).collect();
    let [scan, join, agg, having] = &trace.children[..] else {
        panic!("scan, join, aggregate, select: {labels:?}");
    };
    assert!(scan.label.ends_with(" Scan"), "{labels:?}");
    assert!(join.label.ends_with(" Join"), "{labels:?}");
    assert!(agg.label.ends_with(" Aggregate"), "{labels:?}");
    assert!(having.label.ends_with(" Select"), "{labels:?}");
    assert_eq!(agg.field("stages"), None, "an aggregate is no chain");
    assert_eq!(having.field("stages"), Some("1"));
    assert_eq!(having.field("posed"), Some("0"));
    assert_eq!(having.field("Δin"), agg.field("Δout"));
    assert_eq!(having.field("Δout"), Some("1"));
    assert_eq!(
        planned.root_delta(engine.root).map(|d| d.inserts.len()),
        Some(1)
    );
}
