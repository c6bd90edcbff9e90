//! Property tests pinning the fused streaming kernels against the
//! per-operator propagation rules and the materializing evaluator.
//!
//! Two layers:
//!
//! 1. **Kernel vs stepwise** — random `Select`/`Project` chains over
//!    random deltas (multi-row deletes and modify pairs included) must
//!    produce **bit-identical** output deltas whether pushed through a
//!    compiled [`FusedProgram`] in one pass or folded through
//!    [`propagate`] one operator at a time. Chains pose no queries in
//!    either form, which the test also asserts.
//!
//! 2. **Database vs oracle** — random operator trees (a select→project
//!    chain view, plus a join→aggregate engine with a HAVING-style chain
//!    *above* the aggregate, shared by two roots) maintained with tracing
//!    off and on must agree on every per-transaction [`UpdateReport`]
//!    (charged I/O and posed queries included) and on final materialized
//!    contents, and both must equal a full recomputation after every
//!    transaction — the materializing evaluator is the oracle the fused
//!    path can never drift from, and recording a trace never perturbs the
//!    maintained state.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spacetime_algebra::{
    AggExpr, AggFunc, BinOp, CmpOp, ExprNode, FusedProgram, OpKind, ScalarExpr,
};
use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::{propagate, propagate_chain, BagAccess, Delta};
use spacetime_ivm::{verify_all_views, Database};
use spacetime_storage::{tuple, Column, DataType, Schema, Tuple, Value};

// ---------------------------------------------------------------------
// Layer 1: compiled chain kernels vs folding `propagate` per operator
// ---------------------------------------------------------------------

/// A random access-free chain: 1..=5 `Select`/`Project` ops, each valid
/// over the schema the previous op produced (projections change arity).
fn random_chain(rng: &mut StdRng, mut arity: usize) -> Vec<OpKind> {
    let n = rng.gen_range(1..6);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_range(0..2) == 0 {
            let cmp = [CmpOp::Gt, CmpOp::Lt, CmpOp::Eq, CmpOp::Ne][rng.gen_range(0..4)];
            ops.push(OpKind::Select {
                predicate: ScalarExpr::cmp(
                    cmp,
                    ScalarExpr::col(rng.gen_range(0..arity)),
                    ScalarExpr::lit(rng.gen_range(-3..10_i64)),
                ),
            });
        } else {
            let width = rng.gen_range(1..4);
            let exprs = (0..width)
                .map(|i| {
                    let col = ScalarExpr::col(rng.gen_range(0..arity));
                    let e = if rng.gen_range(0..2) == 0 {
                        col
                    } else {
                        let op = if rng.gen_range(0..2) == 0 {
                            BinOp::Add
                        } else {
                            BinOp::Mul
                        };
                        ScalarExpr::bin(op, col, ScalarExpr::lit(rng.gen_range(0..4_i64)))
                    };
                    (e, format!("c{i}"))
                })
                .collect();
            ops.push(OpKind::Project { exprs });
            arity = width;
        }
    }
    ops
}

/// A random delta over `arity` integer columns: several inserts, several
/// deletes (multi-row, with multiplicities), and a few modify pairs drawn
/// from a small value domain so filters genuinely split pairs.
fn random_delta(rng: &mut StdRng, arity: usize) -> Delta {
    fn row(rng: &mut StdRng, arity: usize) -> Tuple {
        (0..arity)
            .map(|_| Value::from(rng.gen_range(-3..10_i64)))
            .collect()
    }
    let mut d = Delta::new();
    for _ in 0..rng.gen_range(1..5) {
        d.inserts.insert(row(rng, arity), rng.gen_range(1..4));
    }
    for _ in 0..rng.gen_range(1..5) {
        d.deletes.insert(row(rng, arity), rng.gen_range(1..4));
    }
    for _ in 0..rng.gen_range(0..4) {
        d.push_modify(row(rng, arity), row(rng, arity), rng.gen_range(1..4));
    }
    d
}

fn int_schema(arity: usize) -> Schema {
    Schema::new(
        (0..arity)
            .map(|i| Column::bare(format!("i{i}"), DataType::Int))
            .collect(),
    )
}

fn chain_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.gen_range(1..5);
    let ops = random_chain(&mut rng, arity);
    let delta = random_delta(&mut rng, arity);

    // Stepwise reference: fold `propagate` over each chain operator,
    // materializing an intermediate delta per stage. Chains never probe
    // their inputs, so an empty access suffices — and must stay unposed.
    let mut node = Arc::new(ExprNode {
        op: OpKind::Scan { table: "T".into() },
        children: vec![],
        schema: int_schema(arity),
    });
    let mut stepwise = delta.clone();
    for op in &ops {
        node = ExprNode::build(op.clone(), vec![node]).expect("chain op over valid schema");
        let mut access = BagAccess::default();
        stepwise = propagate(&node, 0, &stepwise, &mut access).unwrap();
        assert_eq!(access.queries_posed, 0, "a chain op posed a query");
    }

    // Fused: the whole chain in one streaming pass off the base delta.
    let prog = FusedProgram::compile(&ops).expect("select/project chains always compile");
    let fused = propagate_chain(&prog, &delta).unwrap();

    assert_eq!(
        fused, stepwise,
        "fused kernel diverged from stepwise propagation\nchain: {ops:?}\ninput: {delta:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    /// Random chains x random deltas: fused == stepwise, bit for bit.
    #[test]
    fn fused_chain_matches_stepwise_propagate(seed in any::<u64>()) {
        chain_case(seed);
    }
}

// ---------------------------------------------------------------------
// Layer 2: whole databases over random operator trees
// ---------------------------------------------------------------------

/// Paper schema + data, with two engines built from raw operator trees:
///
/// * `ChainView` — σ(Salary > thr) then a computed projection: a pure
///   access-free chain, compiled into one fused kernel;
/// * a two-rooted group over Emp ⋈ Dept → aggregate, where one root adds
///   a HAVING-style select *plus* a projection above the aggregate — a
///   chain in the middle of the DAG whose interior delta the fused path
///   skips when nothing else consumes it.
fn build_tree_db(thr: i64, agg_pick: u8, having: i64) -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, 4, 3);

    let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
    let sel = ExprNode::select(
        emp.clone(),
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(thr)),
    )
    .unwrap();
    let proj = ExprNode::project(
        sel,
        vec![
            (ScalarExpr::col(0), "EName".into()),
            (
                ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(2), ScalarExpr::lit(2)),
                "Double".into(),
            ),
        ],
    )
    .unwrap();
    db.create_materialized_view("ChainView", proj).unwrap();

    let emp = ExprNode::scan(&db.catalog, "Emp").unwrap();
    let dept = ExprNode::scan(&db.catalog, "Dept").unwrap();
    let joined = ExprNode::join_on(emp, dept, &[("DName", "DName")]).unwrap();
    let agg = match agg_pick % 3 {
        0 => AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "V"),
        1 => AggExpr::count_star("V"),
        _ => AggExpr::new(AggFunc::Max, ScalarExpr::col(2), "V"),
    };
    let grouped = ExprNode::aggregate(joined, vec![1], vec![agg]).unwrap();
    let all = ExprNode::project_cols(grouped.clone(), &[0, 1]).unwrap();
    let high = ExprNode::select(
        grouped,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(having)),
    )
    .unwrap();
    let high = ExprNode::project(
        high,
        vec![
            (ScalarExpr::col(0), "DName".into()),
            (
                ScalarExpr::bin(BinOp::Add, ScalarExpr::col(1), ScalarExpr::lit(0)),
                "V".into(),
            ),
        ],
    )
    .unwrap();
    db.create_view_group(vec![
        ("AggAll".to_string(), all),
        ("AggHigh".to_string(), high),
    ])
    .unwrap();
    db
}

/// Every materialized table (roots and auxiliaries) across all engines.
fn materialized_tables(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .engines()
        .iter()
        .flat_map(|e| e.materialized.values().cloned())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Transactions with multiple rows per delta, in a namespace disjoint
/// from the generated workload: a 3-row insert, a 2-pair modify, and a
/// single delta deleting all 3 rows at once.
fn multi_row_txns() -> Vec<(String, Delta)> {
    let mut ins = Delta::new();
    for i in 0..3_i64 {
        ins.inserts
            .insert(tuple![format!("zz_{i}"), "dept00001", 140 + i], 1);
    }
    let mut modify = Delta::new();
    modify.push_modify(
        tuple!["zz_0", "dept00001", 140_i64],
        tuple!["zz_0", "dept00001", 200_i64],
        1,
    );
    modify.push_modify(
        tuple!["zz_1", "dept00001", 141_i64],
        tuple!["zz_1", "dept00001", 90_i64],
        1,
    );
    let mut del = Delta::new();
    del.deletes.insert(tuple!["zz_0", "dept00001", 200_i64], 1);
    del.deletes.insert(tuple!["zz_1", "dept00001", 90_i64], 1);
    del.deletes.insert(tuple!["zz_2", "dept00001", 142_i64], 1);
    vec![
        ("Emp".to_string(), ins),
        ("Emp".to_string(), modify),
        ("Emp".to_string(), del),
    ]
}

fn tree_case(thr: i64, agg_pick: u8, having: i64, seed: u64) {
    let mut fu = build_tree_db(thr, agg_pick, having);
    let mut traced = build_tree_db(thr, agg_pick, having);
    traced.set_tracing(true);
    let mut txns = mixed_workload(4, 3, 25, seed);
    txns.extend(multi_row_txns());
    for (i, (table, delta)) in txns.into_iter().enumerate() {
        let r_tr = traced.apply_delta(&table, delta.clone()).unwrap();
        let r_fu = fu.apply_delta(&table, delta).unwrap();
        assert_eq!(r_fu, r_tr, "txn {i}: tracing perturbed the report");
        assert!(
            traced.last_trace().is_some(),
            "txn {i}: tracing on recorded nothing"
        );
        // The materializing evaluator is the oracle: the maintained views
        // must equal a from-scratch recomputation after every transaction.
        assert!(
            verify_all_views(&fu).unwrap().is_empty(),
            "txn {i}: a view diverged from its recomputation"
        );
    }
    for name in materialized_tables(&fu) {
        assert_eq!(
            fu.catalog.table(&name).unwrap().relation.data(),
            traced.catalog.table(&name).unwrap().relation.data(),
            "tracing perturbed the contents of {name}"
        );
    }
    assert!(verify_all_views(&traced).unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// Random tree parameters x random workloads (plus multi-row delete
    /// transactions): traced and untraced agree transaction by transaction
    /// and verify against recomputation after each one.
    #[test]
    fn fused_database_matches_perkey_and_oracle(
        thr in 80_i64..200,
        agg_pick in 0_u8..3,
        having in 1_i64..400,
        seed in any::<u64>(),
    ) {
        tree_case(thr, agg_pick, having, seed);
    }
}
