//! Data and workload generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spacetime_delta::Delta;
use spacetime_ivm::Database;
use spacetime_storage::DataType;
use spacetime_storage::{tuple, Catalog, IoMeter, Schema, TableStats, Tuple, Value};

/// The paper's corporate schema (Emp/Dept with keys and the DName index),
/// as a fresh [`Database`] without data.
pub fn paper_schema_db() -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);",
    )
    .expect("static DDL");
    db
}

/// Load the §3.6 sample data, scaled: `departments` departments with
/// `emps_per_dept` employees each (the paper: 1000 × 10). Budgets default
/// high enough that ProblemDept starts empty ("the integrity constraint is
/// rarely violated").
pub fn load_paper_data(db: &mut Database, departments: usize, emps_per_dept: usize) {
    let mut io = IoMeter::new();
    for d in 0..departments {
        let dname = format!("dept{d:05}");
        db.catalog
            .table_mut("Dept")
            .expect("Dept exists")
            .relation
            .insert(
                tuple![
                    dname.clone(),
                    format!("mgr{d}"),
                    (emps_per_dept as i64) * 200
                ],
                1,
                &mut io,
            )
            .expect("valid tuple");
        for e in 0..emps_per_dept {
            db.catalog
                .table_mut("Emp")
                .expect("Emp exists")
                .relation
                .insert(
                    tuple![format!("emp{d:05}_{e}"), dname.clone(), 100_i64],
                    1,
                    &mut io,
                )
                .expect("valid tuple");
        }
    }
    db.catalog.table_mut("Emp").expect("Emp").analyze();
    db.catalog.table_mut("Dept").expect("Dept").analyze();
}

/// The paper's catalog in *analytic* mode: declared statistics only
/// (1000 departments, 10000 employees), no stored tuples. This is what
/// the optimizer-side experiments use — the paper computed its tables
/// analytically too.
pub fn paper_stats_catalog() -> Catalog {
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
    .expect("fresh");
    cat.declare_key("Emp", &["EName"]).expect("cols exist");
    cat.create_index("Emp", &["DName"]).expect("cols exist");
    cat.table_mut("Emp").expect("Emp").stats =
        TableStats::declared(10_000, [(0, 10_000), (1, 1_000), (2, 2_000)]);
    cat.create_table(
        "Dept",
        Schema::of_table(
            "Dept",
            &[
                ("DName", DataType::Str),
                ("MName", DataType::Str),
                ("Budget", DataType::Int),
            ],
        ),
    )
    .expect("fresh");
    cat.declare_key("Dept", &["DName"]).expect("cols exist");
    cat.table_mut("Dept").expect("Dept").stats =
        TableStats::declared(1_000, [(0, 1_000), (1, 950), (2, 600)]);
    cat
}

/// A reproducible stream of single-employee salary modifications (the
/// paper's `>Emp` transaction type) against loaded paper data.
pub fn random_emp_updates(
    departments: usize,
    emps_per_dept: usize,
    count: usize,
    seed: u64,
) -> Vec<(String, Delta)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut salaries: std::collections::HashMap<(usize, usize), i64> =
        std::collections::HashMap::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let d = rng.gen_range(0..departments);
        let e = rng.gen_range(0..emps_per_dept);
        let old_salary = *salaries.entry((d, e)).or_insert(100);
        let new_salary = rng.gen_range(50..200);
        let dname = format!("dept{d:05}");
        let ename = format!("emp{d:05}_{e}");
        let old: Tuple = tuple![ename.clone(), dname.clone(), old_salary];
        let new: Tuple = tuple![ename, dname, new_salary];
        salaries.insert((d, e), new_salary);
        if old == new {
            continue;
        }
        out.push(("Emp".to_string(), Delta::modify(old, new, 1)));
    }
    out
}

/// A reproducible *mixed* stream of transactions against data loaded by
/// [`load_paper_data`]: single-employee salary modifications (~45%), hires
/// (~15%), departures (~15%), department budget changes (~10%), and
/// multi-row "across-the-board" raises touching up to sixteen employees
/// in distinct departments as one transaction (~15%). The generator tracks
/// the live roster so every delta references exactly the pre-update state
/// of its tuples, and no delta touches the same tuple twice.
pub fn mixed_workload(
    departments: usize,
    emps_per_dept: usize,
    count: usize,
    seed: u64,
) -> Vec<(String, Delta)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Roster: name -> (dept index, salary), mirroring load_paper_data.
    let mut names: Vec<String> = Vec::with_capacity(departments * emps_per_dept);
    let mut roster: std::collections::HashMap<String, (usize, i64)> =
        std::collections::HashMap::new();
    for d in 0..departments {
        for e in 0..emps_per_dept {
            let name = format!("emp{d:05}_{e}");
            roster.insert(name.clone(), (d, 100));
            names.push(name);
        }
    }
    let mut budgets: std::collections::HashMap<usize, i64> = std::collections::HashMap::new();
    let default_budget = (emps_per_dept as i64) * 200;
    let mut hired = 0usize;
    let dname_of = |d: usize| format!("dept{d:05}");
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut roll = rng.gen_range(0..100);
        if (45..75).contains(&roll) && names.len() < 2 {
            roll = 0; // too few employees to hire/fire around: modify instead
        }
        if (85..100).contains(&roll) && names.len() < 4 {
            roll = 0; // not enough staff for a broad raise: modify instead
        }
        if roll < 45 {
            // Salary modification (the paper's `>Emp`).
            let i = rng.gen_range(0..names.len());
            let name = names[i].clone();
            let (d, old_salary) = roster[&name];
            let mut new_salary = rng.gen_range(50..250);
            if new_salary == old_salary {
                new_salary += 1;
            }
            roster.insert(name.clone(), (d, new_salary));
            out.push((
                "Emp".to_string(),
                Delta::modify(
                    tuple![name.clone(), dname_of(d), old_salary],
                    tuple![name, dname_of(d), new_salary],
                    1,
                ),
            ));
        } else if roll < 60 {
            // Hire: fresh primary key, random department.
            let d = rng.gen_range(0..departments);
            let salary = rng.gen_range(50..250) as i64;
            let name = format!("hire{hired:06}");
            hired += 1;
            roster.insert(name.clone(), (d, salary));
            names.push(name.clone());
            out.push((
                "Emp".to_string(),
                Delta::insert(tuple![name, dname_of(d), salary], 1),
            ));
        } else if roll < 75 {
            // Departure: remove a random employee.
            let i = rng.gen_range(0..names.len());
            let name = names.swap_remove(i);
            let (d, salary) = roster.remove(&name).expect("rostered");
            out.push((
                "Emp".to_string(),
                Delta::delete(tuple![name, dname_of(d), salary], 1),
            ));
        } else if roll < 85 {
            // Budget change (the paper's `>Dept`).
            let d = rng.gen_range(0..departments);
            let old_budget = *budgets.entry(d).or_insert(default_budget);
            let mut new_budget = rng.gen_range(500..3_000) as i64;
            if new_budget == old_budget {
                new_budget += 1;
            }
            budgets.insert(d, new_budget);
            out.push((
                "Dept".to_string(),
                Delta::modify(
                    tuple![dname_of(d), format!("mgr{d}"), old_budget],
                    tuple![dname_of(d), format!("mgr{d}"), new_budget],
                    1,
                ),
            ));
        } else {
            // Across-the-board raise: one transaction modifying up to
            // sixteen distinct employees (hence up to sixteen distinct
            // departments) at once.
            let k = rng.gen_range(8..17).min(names.len());
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < k {
                picked.insert(rng.gen_range(0..names.len()));
            }
            let mut delta = Delta::new();
            for i in picked {
                let name = names[i].clone();
                let (d, old_salary) = roster[&name];
                let mut new_salary = old_salary + rng.gen_range(5..25) as i64;
                if new_salary == old_salary {
                    new_salary += 1;
                }
                roster.insert(name.clone(), (d, new_salary));
                delta.push_modify(
                    tuple![name.clone(), dname_of(d), old_salary],
                    tuple![name, dname_of(d), new_salary],
                    1,
                );
            }
            out.push(("Emp".to_string(), delta));
        }
    }
    out
}

/// Render a `Value` matrix as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The shared fixture for the crash-kill integration test: the child
/// process (`src/bin/crash_child.rs`) and the parent test
/// (`tests/crash_kill.rs`) must build bit-identical databases and
/// transactions, so both call these.
pub fn crash_fixture_db() -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, 3, 4);
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
    )
    .unwrap();
    db.execute_sql("CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp")
        .unwrap();
    db
}

/// The `i`-th crash-fixture transaction: a deterministic single-row
/// Emp insert (fresh primary key, so it always succeeds).
pub fn crash_fixture_txn(i: usize) -> Vec<(String, Delta)> {
    let t = Tuple::new(vec![
        Value::str(format!("kill_e{i:04}")),
        Value::str(format!("dept{:05}", i % 3)),
        Value::Int(100 + i as i64),
    ]);
    vec![("Emp".to_string(), Delta::insert(t, 1))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_data_loads_scaled() {
        let mut db = paper_schema_db();
        load_paper_data(&mut db, 20, 5);
        assert_eq!(db.catalog.table("Dept").unwrap().relation.len(), 20);
        assert_eq!(db.catalog.table("Emp").unwrap().relation.len(), 100);
        assert_eq!(db.catalog.table("Emp").unwrap().stats.distinct[&1], 20);
    }

    #[test]
    fn stats_catalog_matches_paper_parameters() {
        let cat = paper_stats_catalog();
        let emp = cat.table("Emp").unwrap();
        assert_eq!(emp.stats.cardinality, 10_000);
        assert_eq!(emp.stats.avg_group_size(1), 10.0);
        let dept = cat.table("Dept").unwrap();
        assert_eq!(dept.stats.cardinality, 1_000);
        assert!(dept.cols_contain_key(&[0]));
    }

    #[test]
    fn update_streams_are_reproducible_and_consistent() {
        let a = random_emp_updates(10, 5, 30, 42);
        let b = random_emp_updates(10, 5, 30, 42);
        assert_eq!(a.len(), b.len());
        for ((ta, da), (tb, dbb)) in a.iter().zip(&b) {
            assert_eq!(ta, tb);
            assert_eq!(da, dbb);
        }
        // The stream tracks its own salary state: applying it to a loaded
        // database must never reference a non-existent tuple.
        let mut db = paper_schema_db();
        load_paper_data(&mut db, 10, 5);
        for (table, delta) in a {
            db.apply_delta(&table, delta).unwrap();
        }
    }

    #[test]
    fn mixed_workload_is_reproducible_and_applies_cleanly() {
        let a = mixed_workload(10, 5, 60, 99);
        let b = mixed_workload(10, 5, 60, 99);
        assert_eq!(a, b);
        // Must contain all four transaction kinds at this size.
        let inserts = a.iter().filter(|(_, d)| !d.inserts.is_empty()).count();
        let deletes = a.iter().filter(|(_, d)| !d.deletes.is_empty()).count();
        let dept_mods = a.iter().filter(|(t, _)| t == "Dept").count();
        assert!(inserts > 0 && deletes > 0 && dept_mods > 0);
        // Every delta references the exact pre-update state of its tuple.
        let mut db = paper_schema_db();
        load_paper_data(&mut db, 10, 5);
        for (table, delta) in a {
            db.apply_delta(&table, delta).unwrap();
        }
    }

    /// The data plane end to end on a generated stream: after every update
    /// the views equal their recomputation, and the summed counters equal
    /// the committed golden (`io_total`, `paper_cost_io`, `queries_posed`),
    /// recorded when the per-key reference still ran beside the fused
    /// plane and both charged exactly this.
    #[test]
    fn propagation_modes_agree_end_to_end() {
        use spacetime_ivm::verify_all_views;
        let mut db = paper_schema_db();
        load_paper_data(&mut db, 10, 5);
        db.execute_sql(
            "CREATE MATERIALIZED VIEW DeptProfile AS \
             SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
             FROM Emp GROUP BY DName",
        )
        .unwrap();
        db.execute_sql("CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp")
            .unwrap();
        let mut counters = [0u64; 3];
        for (table, delta) in mixed_workload(10, 5, 50, 7) {
            let r = db.apply_delta(&table, delta).unwrap();
            for (sum, x) in counters
                .iter_mut()
                .zip([r.total(), r.paper_cost(), r.queries_posed])
            {
                *sum += x;
            }
            assert!(verify_all_views(&db).unwrap().is_empty(), "{table}");
        }
        assert_eq!(
            counters,
            [1093, 510, 84],
            "io_total/paper_cost_io/queries_posed"
        );
    }

    #[test]
    fn render_table_aligns() {
        let out = render_table(
            &["a", "bb"],
            &[
                vec!["xxx".into(), "y".into()],
                vec!["z".into(), "wwww".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    bb"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }
}
