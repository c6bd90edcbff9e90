//! Determinism of the parallel view-set search engine.
//!
//! Theorem 3.1's exhaustive search is only trustworthy if its parallel,
//! branch-and-bound implementation returns *exactly* the serial answer:
//! same best set, bit-identical weighted cost, and the same retained
//! top-K, regardless of worker count, thread scheduling, or how many
//! evaluations pruning abandoned.

use spacetime::algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ScalarExpr};
use spacetime::cost::PageIoCostModel;
use spacetime::memo::{explore, Memo};
use spacetime::optimizer::{optimal_view_set, optimal_view_set_over, EvalConfig};
use spacetime_bench::scenarios::{join_chain, problem_dept, scaling_workload};
use spacetime_optimizer::candidate_groups;
use spacetime_optimizer::OptimizeOutcome;

fn assert_identical(serial: &OptimizeOutcome, other: &OptimizeOutcome, what: &str) {
    assert_eq!(
        serial.best.view_set, other.best.view_set,
        "{what}: best sets differ"
    );
    assert_eq!(
        serial.best.weighted.to_bits(),
        other.best.weighted.to_bits(),
        "{what}: best weighted costs differ ({} vs {})",
        serial.best.weighted,
        other.best.weighted
    );
    assert_eq!(
        serial.sets_considered, other.sets_considered,
        "{what}: sets_considered differs"
    );
    assert_eq!(
        serial.evaluated.len(),
        other.evaluated.len(),
        "{what}: top-K lengths differ"
    );
    for (i, (s, o)) in serial.evaluated.iter().zip(&other.evaluated).enumerate() {
        assert_eq!(s.view_set, o.view_set, "{what}: top-K entry {i} differs");
        assert_eq!(
            s.weighted.to_bits(),
            o.weighted.to_bits(),
            "{what}: top-K entry {i} costs differ"
        );
    }
}

/// Configurations to pit against the serial baseline: extra workers with
/// and without pruning (worker counts beyond the core count still
/// exercise work-stealing interleavings).
fn variants(base: EvalConfig) -> Vec<(&'static str, EvalConfig)> {
    vec![
        (
            "parallel(2)",
            EvalConfig {
                parallelism: 2,
                prune: false,
                ..base
            },
        ),
        (
            "parallel(8)",
            EvalConfig {
                parallelism: 8,
                prune: false,
                ..base
            },
        ),
        (
            "serial+prune",
            EvalConfig {
                parallelism: 1,
                prune: true,
                ..base
            },
        ),
        (
            "parallel(8)+prune",
            EvalConfig {
                parallelism: 8,
                prune: true,
                ..base
            },
        ),
    ]
}

#[test]
fn problem_dept_serial_vs_parallel_identical() {
    let s = problem_dept();
    let model = PageIoCostModel::default();
    let base = EvalConfig {
        parallelism: 1,
        prune: false,
        ..EvalConfig::default()
    };
    let serial = optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &base);
    // §3.6 golden answer: materializing SumOfSals alone wins at 3.5.
    assert_eq!(serial.best.weighted, 3.5);
    for (name, config) in variants(base) {
        let out = optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config);
        assert_identical(&serial, &out, name);
    }
}

#[test]
fn multi_view_serial_vs_parallel_identical() {
    // §6's multi-root setting: ProblemDept plus a second view sharing the
    // SumOfSals subexpression, optimized jointly.
    let s = problem_dept();
    let emp = ExprNode::scan(&s.catalog, "Emp").unwrap();
    let agg = ExprNode::aggregate(
        emp,
        vec![1],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .unwrap();
    let v2_tree = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(0)),
    )
    .unwrap();
    let mut memo = Memo::new();
    let v1 = memo.insert_tree(&s.tree);
    let v2 = memo.insert_tree(&v2_tree);
    memo.set_root(v1);
    explore(&mut memo, &s.catalog).unwrap();
    let (v1, v2) = (memo.find(v1), memo.find(v2));
    assert_ne!(v1, v2);

    let model = PageIoCostModel::default();
    let base = EvalConfig {
        parallelism: 1,
        prune: false,
        ..EvalConfig::default()
    };
    let serial = optimal_view_set(&memo, &s.catalog, &model, &[v1, v2], &s.txns, &base);
    for (name, config) in variants(base) {
        let out = optimal_view_set(&memo, &s.catalog, &model, &[v1, v2], &s.txns, &config);
        assert_identical(&serial, &out, name);
    }
}

#[test]
fn scaling_workload_serial_vs_parallel_identical() {
    // The wide E-PAR scenario (28 candidates, 4 skewed transactions),
    // restricted to one extra view so the test stays quick.
    let s = scaling_workload();
    let model = PageIoCostModel::default();
    let base = EvalConfig {
        parallelism: 1,
        prune: false,
        max_tracks: 64,
        ..EvalConfig::default()
    };
    let candidates = candidate_groups(&s.memo, s.root);
    let run = |config: &EvalConfig| {
        optimal_view_set_over(
            &s.memo,
            &s.catalog,
            &model,
            s.root,
            &candidates,
            &s.txns,
            config,
            Some(1),
        )
    };
    let serial = run(&base);
    for (name, config) in variants(base) {
        assert_identical(&serial, &run(&config), name);
    }
    // Four workers, each with its own query-cost cache, unpruned.
    let probe = run(&EvalConfig {
        parallelism: 4,
        prune: false,
        ..base
    });
    assert_identical(&serial, &probe, "parallel(4)");
}

/// The product's door (`optimal_view_set` over its roots, the DDL's
/// search) and the harness's door (`optimal_view_set_over` an explicit
/// candidate list) walk the same space of one root: same winner, same
/// cost bit for bit, same top-K, same count, same exactness.
#[test]
fn product_and_harness_doors_agree() {
    let model = PageIoCostModel::default();
    for (what, s) in [
        ("problem_dept", problem_dept()),
        ("join_chain(3)", join_chain(3)),
    ] {
        let candidates = candidate_groups(&s.memo, s.root);
        for parallelism in [1, 2] {
            let config = EvalConfig {
                parallelism,
                ..EvalConfig::default()
            };
            let product =
                optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &config);
            let harness = optimal_view_set_over(
                &s.memo,
                &s.catalog,
                &model,
                s.root,
                &candidates,
                &s.txns,
                &config,
                None,
            );
            let what = format!("{what} at parallelism {parallelism}");
            assert_identical(&product, &harness, &what);
            assert_eq!(product.exact, harness.exact, "{what}: exact differs");
        }
    }
}
