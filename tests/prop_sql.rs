//! Robustness of the SQL front end: the parser must never panic — any
//! input either parses or returns a positioned error — lowering of
//! parsed-but-nonsensical queries returns semantic errors, not panics, and
//! a database executing DDL/DML/SELECT soup — join views over a chain
//! schema among it — answers every statement with `Ok` or a typed error
//! while its views stay equal to recomputation.

use proptest::prelude::*;

use spacetime::ivm::{verify_all_views, Database};
use spacetime::sql::{parse_statement, parse_statements};

/// Strings biased toward SQL-looking fragments.
fn sqlish() -> impl Strategy<Value = String> {
    let word = prop_oneof![
        Just("SELECT".to_string()),
        Just("FROM".to_string()),
        Just("WHERE".to_string()),
        Just("GROUP".to_string()),
        Just("BY".to_string()),
        Just("HAVING".to_string()),
        Just("SUM".to_string()),
        Just("COUNT".to_string()),
        Just("CREATE".to_string()),
        Just("TABLE".to_string()),
        Just("VIEW".to_string()),
        Just("AS".to_string()),
        Just("AND".to_string()),
        Just("NOT".to_string()),
        Just("INSERT".to_string()),
        Just("VALUES".to_string()),
        Just("Emp".to_string()),
        Just("Dept".to_string()),
        Just("DName".to_string()),
        Just("Salary".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just(",".to_string()),
        Just(";".to_string()),
        Just("*".to_string()),
        Just("=".to_string()),
        Just(">".to_string()),
        Just("<>".to_string()),
        Just("'str'".to_string()),
        Just("42".to_string()),
        Just("3.25".to_string()),
        Just("--comment\n".to_string()),
        Just("UPDATE".to_string()),
        Just("SET".to_string()),
        Just("DELETE".to_string()),
        Just("MATERIALIZED".to_string()),
        Just("ASSERTION".to_string()),
        Just("CHECK".to_string()),
        Just("+".to_string()),
        Just("/".to_string()),
    ];
    prop::collection::vec(word, 0..24).prop_map(|ws| ws.join(" "))
}

/// Client-shaped statements over Emp/Dept — DDL, DML and SELECT with
/// random names and numbers — mixed with soup.
fn statement() -> impl Strategy<Value = String> {
    let dept = || (0_u8..5).prop_map(|d| format!("'dept{d}'"));
    prop_oneof![
        sqlish(),
        (0_u16..400, dept(), -50_i64..400)
            .prop_map(|(e, d, s)| format!("INSERT INTO Emp VALUES ('new{e}', {d}, {s})")),
        (0_u16..400, dept())
            .prop_map(|(e, d)| format!("INSERT INTO Emp VALUES ('new{e}', {d})")),
        (dept(), -50_i64..400)
            .prop_map(|(d, k)| format!("UPDATE Emp SET Salary = Salary + {k} WHERE DName = {d}")),
        (dept(), -50_i64..900)
            .prop_map(|(d, b)| format!("UPDATE Dept SET Budget = {b} WHERE DName = {d}")),
        (dept(), 0_i64..3).prop_map(|(d, k)| format!("UPDATE Emp SET Salary = {k} / 0 WHERE DName = {d}")),
        (-50_i64..400).prop_map(|k| format!("DELETE FROM Emp WHERE Salary > {k}")),
        (0_u8..3, -50_i64..400).prop_map(|(v, k)| format!(
            "CREATE MATERIALIZED VIEW V{v} AS SELECT DName, SUM(Salary) AS S FROM Emp \
             WHERE Salary > {k} GROUP BY DName"
        )),
        (-50_i64..400).prop_map(|k| format!(
            "SELECT EName, Budget FROM Emp, Dept WHERE Emp.DName = Dept.DName AND Salary > {k}"
        )),
        join_view(),
        (1_u8..5, 0_i64..8, 0_i64..8).prop_map(|(t, a, x)| format!(
            "INSERT INTO R{t} VALUES ({a}, {x})"
        )),
        (1_u8..5, 0_i64..8, 0_i64..8).prop_map(|(t, a, x)| format!(
            "UPDATE R{t} SET x{t} = {x} WHERE a{t} = {a}"
        )),
        (1_u8..5, 0_i64..8).prop_map(|(t, a)| format!("DELETE FROM R{t} WHERE a{t} = {a}")),
    ]
}

/// A materialized view over a 2- or 3-way join of the `R1…R4` tables: a
/// chain `Ri.xi = Ri+1.ai+1` from a random start, or a star
/// `R1.x1 = Ri.ai`, with or without `SUM … GROUP BY`.
fn join_view() -> impl Strategy<Value = String> {
    (0_u8..3, 2_usize..4, 1_usize..3, any::<bool>(), any::<bool>()).prop_map(
        |(v, ways, start, star, aggregate)| {
            let tables: Vec<usize> = if star {
                (1..=ways).collect()
            } else {
                (start..start + ways).collect()
            };
            let from: Vec<String> = tables.iter().map(|t| format!("R{t}")).collect();
            let on: Vec<String> = tables
                .windows(2)
                .map(|w| {
                    let left = if star { tables[0] } else { w[0] };
                    format!("R{left}.x{left} = R{}.a{}", w[1], w[1])
                })
                .collect();
            let (first, last) = (tables[0], tables[tables.len() - 1]);
            let (select, group) = if aggregate {
                (
                    format!("R{first}.x{first}, SUM(R{last}.x{last}) AS Total"),
                    format!(" GROUP BY R{first}.x{first}"),
                )
            } else {
                (format!("R{first}.a{first}, R{last}.a{last}"), String::new())
            };
            format!(
                "CREATE MATERIALIZED VIEW J{v} AS SELECT {select} FROM {} WHERE {}{group}",
                from.join(", "),
                on.join(" AND ")
            )
        },
    )
}

/// An Emp/Dept database with a maintained view and the paper's
/// DeptConstraint assertion, beside a chain schema `R1…R4` whose tables
/// each have an integer key `ai` and a join column `xi`.
fn served_db() -> Database {
    let mut db = Database::new();
    for t in 1..=4 {
        db.execute_sql(&format!(
            "CREATE TABLE R{t} (a{t} INTEGER PRIMARY KEY, x{t} INTEGER);
             INSERT INTO R{t} VALUES (0, 1), (1, 2), (2, 0), (3, 1)"
        ))
        .unwrap();
    }
    db.execute_sql(
        "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
         CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
         CREATE INDEX ON Emp (DName);
         INSERT INTO Dept VALUES ('dept0', 'm0', 600), ('dept1', 'm1', 600), ('dept2', 'm2', 600);
         INSERT INTO Emp VALUES ('e0', 'dept0', 100), ('e1', 'dept0', 100), ('e2', 'dept1', 100);
         CREATE MATERIALIZED VIEW DeptSal AS SELECT DName, SUM(Salary) AS Total FROM Emp GROUP BY DName;
         CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
            SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName
            GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget))",
    )
    .unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every statement returns `Ok` or a typed error, never a panic, and
    /// leaves every view equal to recomputation and no journal behind.
    #[test]
    fn execute_sql_never_panics_and_views_stay_consistent(
        stmts in prop::collection::vec(statement(), 1..8),
    ) {
        let mut db = served_db();
        for sql in &stmts {
            let outcome = db.execute_sql(sql).map(|_| ());
            let mismatches = verify_all_views(&db).unwrap();
            assert!(mismatches.is_empty(), "{sql:?} ({outcome:?}): {mismatches:?}");
            db.integrity_check().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn parser_never_panics_on_sqlish_soup(input in sqlish()) {
        let _ = parse_statement(&input);
        let _ = parse_statements(&input);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(input in ".{0,80}") {
        let _ = parse_statement(&input);
    }

    #[test]
    fn lowering_never_panics(input in sqlish()) {
        use spacetime::sql::{lower_select, Statement};
        use spacetime::storage::{Catalog, DataType, Schema};
        let mut cat = Catalog::new();
        cat.create_table(
            "Emp",
            Schema::of_table(
                "Emp",
                &[("DName", DataType::Str), ("Salary", DataType::Int)],
            ),
        )
        .unwrap();
        if let Ok(Statement::Select(sel)) = parse_statement(&input) {
            let _ = lower_select(&sel, &cat);
        }
    }
}
