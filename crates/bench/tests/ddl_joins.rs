//! Every `CREATE` returns.
//!
//! A view over an n-way chain join has a DAG whose view-set space is far
//! too large to list: 2²⁷ sets for `join_chain(4)` and 2⁷⁴ for
//! `join_chain(5)`. The search walks it cheapest floor first and stops at
//! its budget of claimed sets, so the DDL answers `Ok` in bounded time and
//! memory, and the views it builds are maintained like any other.
//!
//! Both tests are ignored in debug builds, where the wide searches take
//! minutes; run them with
//! `cargo test --release -p spacetime-bench --test ddl_joins -- --nocapture`
//! to see each statement's wall time.

use std::time::Instant;

use spacetime_bench::scenarios::join_chain;
use spacetime_cost::PageIoCostModel;
use spacetime_ivm::{verify_all_views, Database};
use spacetime_optimizer::{optimal_view_set, EvalConfig};

/// Tables `R1…Rn`, each with an integer key `ai` and a join column `xi`,
/// and a few rows that join.
fn chain_db(n: usize) -> Database {
    let mut db = Database::new();
    for t in 1..=n {
        db.execute_sql(&format!(
            "CREATE TABLE R{t} (a{t} INTEGER PRIMARY KEY, x{t} INTEGER);
             INSERT INTO R{t} VALUES (0, 1), (1, 2), (2, 0), (3, 1), (4, 3)"
        ))
        .unwrap();
    }
    db
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wide view-set searches: run in release (see the module docs)"
)]
fn chain_join_views_are_created_and_maintained() {
    for n in [4, 5, 6] {
        let mut db = chain_db(n);
        let from: Vec<String> = (1..=n).map(|t| format!("R{t}")).collect();
        let on: Vec<String> = (1..n)
            .map(|t| format!("R{t}.x{t} = R{}.a{}", t + 1, t + 1))
            .collect();
        let ddl = format!(
            "CREATE MATERIALIZED VIEW Chain AS SELECT R1.a1, R{n}.a{n} FROM {} WHERE {}",
            from.join(", "),
            on.join(" AND ")
        );
        let t0 = Instant::now();
        db.execute_sql(&ddl)
            .unwrap_or_else(|e| panic!("{n}-way CREATE: {e}"));
        println!("{n}-way chain join: CREATE in {:.2} s", t0.elapsed().as_secs_f64());
        for t in 1..=n {
            for dml in [
                format!("INSERT INTO R{t} VALUES (5, 0), (6, 2)"),
                format!("UPDATE R{t} SET x{t} = 3 WHERE a{t} = 1"),
                format!("DELETE FROM R{t} WHERE a{t} = 2"),
            ] {
                db.execute_sql(&dml)
                    .unwrap_or_else(|e| panic!("{n}-way, {dml}: {e}"));
            }
        }
        let mismatches = verify_all_views(&db).unwrap();
        assert!(mismatches.is_empty(), "{n}-way: {mismatches:?}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wide view-set searches: run in release (see the module docs)"
)]
fn wide_searches_are_deterministic_and_the_4_way_one_is_exact() {
    let model = PageIoCostModel::default();
    for n in [4, 5] {
        let s = join_chain(n);
        // The DDL's configuration, at a 256-track cap to keep the test
        // quick: the cap changes what a claim costs, not how many sets the
        // walk claims.
        let search = |parallelism: usize| {
            let config = EvalConfig {
                top_k: 1,
                max_tracks: 256,
                parallelism,
                ..EvalConfig::default()
            };
            optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config)
        };
        let (serial, parallel) = (search(1), search(2));
        println!(
            "join_chain({n}): {} sets, {} priced, exact {}, weighted {}",
            serial.sets_considered,
            serial.sets_considered - serial.sets_pruned,
            serial.exact,
            serial.best.weighted
        );
        assert_eq!(serial.best.view_set, parallel.best.view_set, "join_chain({n})");
        assert_eq!(
            serial.best.weighted.to_bits(),
            parallel.best.weighted.to_bits(),
            "join_chain({n})"
        );
        assert_eq!(serial.exact, parallel.exact, "join_chain({n})");
        if n == 4 {
            assert!(serial.exact, "the 4-way search stopped at its budget");
        }
    }
}
