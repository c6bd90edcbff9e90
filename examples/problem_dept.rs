//! The full §1.1/§3.6 walkthrough: the ProblemDept view, its expression
//! DAG, the candidate view sets with their costs, the chosen strategy, and
//! estimated-vs-measured page I/Os.
//!
//! ```text
//! cargo run --release --example problem_dept
//! ```

use spacetime::cost::{CostCtx, PageIoCostModel};
use spacetime::ivm::database::SqlOutcome;
use spacetime::ivm::{Database, ViewSelection};
use spacetime::memo::dot::render_text;
use spacetime::optimizer::candidates::render_view_set;
use spacetime::optimizer::{optimal_view_set, EvalConfig};
use spacetime::storage::{tuple, IoMeter};
use spacetime_bench::scenarios::{paper_names, problem_dept};

fn main() {
    // ----- Optimizer side (analytic, like the paper's tables) -----
    let s = problem_dept();
    println!("expression DAG for ProblemDept (Figure 2):\n");
    println!("{}", render_text(&s.memo, s.root));

    let names = paper_names(&s.memo, s.root);
    let name_of = |g: spacetime::memo::GroupId| {
        names
            .iter()
            .find(|&&(gg, _)| gg == s.memo.find(g))
            .map(|&(_, n)| n.to_string())
            .unwrap_or_else(|| format!("n{}", g.0))
    };

    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let outcome = optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config);
    println!(
        "view sets by weighted maintenance cost (best 8 of {}):",
        outcome.sets_considered
    );
    for e in outcome.evaluated.iter().take(8) {
        let per: Vec<String> = e
            .per_txn
            .iter()
            .map(|t| format!("{}={}", t.txn_name, t.total))
            .collect();
        println!(
            "  {:<16} weighted {:<6} ({})",
            render_view_set(&e.view_set, s.root, name_of),
            e.weighted,
            per.join(", ")
        );
    }
    println!(
        "\nchosen: {} — the paper's SumOfSals strategy.\n",
        render_view_set(outcome.best_set(), s.root, name_of)
    );

    // The delta-size estimates behind the numbers.
    let mut cc = CostCtx::new(&s.memo, &s.catalog, &model);
    for (g, n) in &names {
        if *n == "N3" || *n == "N4" {
            for txn in &s.txns {
                let d = cc.delta_for(*g, &txn.updates[0]);
                println!("estimated |Δ{n}| under {}: {}", txn.name, d.size);
            }
        }
    }

    // ----- Runtime side (measured against loaded data) -----
    println!("\nmeasured against 1000 departments × 10 employees:");
    for (label, selection) in [
        ("no additional views", ViewSelection::RootOnly),
        ("optimizer's choice ", ViewSelection::Exhaustive),
    ] {
        let mut db = Database::new();
        db.set_view_selection(selection);
        db.execute_sql(
            "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
             CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
             CREATE INDEX ON Emp (DName);",
        )
        .unwrap();
        let mut io = IoMeter::new();
        for d in 0..1000 {
            let dname = format!("dept{d:04}");
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
                        tuple![format!("e{d:04}_{e}"), dname.clone(), 100_i64],
                        1,
                        &mut io,
                    )
                    .unwrap();
            }
        }
        db.catalog.table_mut("Emp").unwrap().analyze();
        db.catalog.table_mut("Dept").unwrap().analyze();
        db.declare_workload(s.txns.clone());
        db.execute_sql(
            "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
             SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
             GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
        )
        .unwrap();
        let emp_cost = match db
            .execute_sql("UPDATE Emp SET Salary = 130 WHERE EName = 'e0042_3'")
            .unwrap()
        {
            SqlOutcome::Updated { report, .. } => report.paper_cost(),
            _ => unreachable!(),
        };
        let dept_cost = match db
            .execute_sql("UPDATE Dept SET Budget = 2500 WHERE DName = 'dept0007'")
            .unwrap()
        {
            SqlOutcome::Updated { report, .. } => report.paper_cost(),
            _ => unreachable!(),
        };
        println!(
            "  {label}: >Emp = {emp_cost} page I/Os, >Dept = {dept_cost} page I/Os, avg = {}",
            (emp_cost + dept_cost) as f64 / 2.0
        );
    }
    println!("\npaper: 13/11 (avg 12) without, 5/2 (avg 3.5) with SumOfSals — \"about 30% of the cost\".");
}
