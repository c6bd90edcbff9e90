//! Representation-change golden test.
//!
//! The data-plane representation (inline strings, the bag and index
//! layouts, borrowed-key index probes) must be invisible to the paper's
//! accounting: every per-update `UpdateReport` and the final view contents
//! must match, bit for bit, what the original `Arc<str>` /
//! flat-`HashMap` representation produced. The fixture in `golden/mixed_reports.txt` was generated from
//! that original representation; regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p spacetime-bench --test golden_reports`
//! only when the *workload or schema* changes, never to paper over a
//! representation-induced diff.

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_ivm::verify_all_views;

const VIEWS: [&str; 4] = [
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

const DEPTS: usize = 60;
const EMPS: usize = 6;
const TXNS: usize = 150;
const SEED: u64 = 1234;

fn run() -> String {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, DEPTS, EMPS);
    for view in VIEWS {
        db.execute_sql(view).expect("view DDL");
    }
    let mut out = String::new();
    for (i, (table, delta)) in mixed_workload(DEPTS, EMPS, TXNS, SEED).into_iter().enumerate() {
        let r = db.apply_delta(&table, delta).expect("apply");
        out.push_str(&format!(
            "{i} {table} io={} paper={} posed={} q={} aux={} root={} base={}\n",
            r.total(),
            r.paper_cost(),
            r.queries_posed,
            r.query_io.total(),
            r.aux_io.total(),
            r.root_io.total(),
            r.base_io.total(),
        ));
    }
    assert!(
        verify_all_views(&db).expect("verify").is_empty(),
        "views must match recompute"
    );
    for view in ["ProblemDept", "DeptProfile", "WellPaid", "ActiveDepts"] {
        let data = db.catalog.table(view).expect("view").relation.data().clone();
        out.push_str(&format!("view {view}\n{data}\n"));
    }
    out
}

#[test]
fn mixed_workload_reports_and_views_match_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mixed_reports.txt");
    let actual = run();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden fixture missing; run with UPDATE_GOLDEN=1 to create");
    if actual != expected {
        let mismatch = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        match mismatch {
            Some((n, (a, e))) => panic!(
                "golden mismatch at line {}:\n  expected: {e}\n  actual:   {a}",
                n + 1
            ),
            None => panic!(
                "golden length mismatch: expected {} lines, got {}",
                expected.lines().count(),
                actual.lines().count()
            ),
        }
    }
}
