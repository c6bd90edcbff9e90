//! The propagation-trace plane: opt-in and zero behavior change.

use spacetime_delta::Delta;
use spacetime_ivm::{verify_all_views, Database};
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
            .insert(tuple![dname.clone(), format!("mgr{d}"), 900_i64], 1, &mut io)
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
    assert_eq!(trace.label, "update Emp");
    assert_eq!(trace.field("rows"), Some("1"));
    // One propagate child per dependent engine (view + assertion), plus
    // the commit section.
    let propagates: Vec<_> = trace
        .children
        .iter()
        .filter(|c| c.label.starts_with("propagate "))
        .collect();
    assert_eq!(propagates.len(), 2, "view and assertion engines both traced");
    for p in &propagates {
        assert_eq!(p.field("table"), Some("Emp"));
        assert!(p.field("track").is_some(), "track field present");
        // Every propagate subtree starts from a leaf scan level.
        assert!(p.children.iter().any(|l| l.label.starts_with("level ")));
    }
    let commit = trace
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
    assert!(db.last_trace().is_none(), "empty update leaves no trace");
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
