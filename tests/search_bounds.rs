//! The view-set search bounds each set before it prices a track.
//!
//! A set costs `Σ_j w_j·(q_j + m_j) / Σw` (Figure 4). The maintenance
//! term `m_j` does not depend on the update track and every query cost
//! `q_j` is non-negative, so the maintenance floor `Σ_j w_j·m_j / Σw` is
//! a lower bound known before any track is enumerated. The search prunes
//! on it and hands sets out cheapest floor first; neither may change the
//! answer.

use spacetime::cost::txn::weighted_average;
use spacetime::cost::{CostCtx, PageIoCostModel};
use spacetime::optimizer::{
    candidate_groups, enumerate_view_sets, evaluate_with_catalog, maintenance_costs,
    maintenance_floor, search_view_sets, EvalConfig, TrackCatalog, ViewSet,
};
use spacetime_bench::scenarios::{problem_dept, scaling_workload, PaperScenario};

/// The paper scenario's every view set, and the scaling scenario's sets
/// with at most one extra view (so the test stays quick in debug), each
/// with the track cap it is searched at.
fn scenarios() -> Vec<(&'static str, PaperScenario, Vec<ViewSet>, EvalConfig)> {
    let paper = problem_dept();
    let paper_sets =
        enumerate_view_sets(paper.root, &candidate_groups(&paper.memo, paper.root), None);
    let scaling = scaling_workload();
    let scaling_sets = enumerate_view_sets(
        scaling.root,
        &candidate_groups(&scaling.memo, scaling.root),
        Some(1),
    );
    vec![
        ("paper", paper, paper_sets, EvalConfig::default()),
        (
            "scaling",
            scaling,
            scaling_sets,
            EvalConfig {
                max_tracks: 64,
                ..EvalConfig::default()
            },
        ),
    ]
}

#[test]
fn the_floor_never_exceeds_the_weighted_cost() {
    let model = PageIoCostModel::default();
    for (name, s, sets, config) in scenarios() {
        let tcat = TrackCatalog::new(&s.memo, &s.catalog, &[s.root], &s.txns, config.max_tracks);
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        let mut positive = 0;
        for set in &sets {
            let floor = maintenance_floor(&s.txns, &maintenance_costs(&mut ctx, &tcat, set));
            let eval = evaluate_with_catalog(&mut ctx, &tcat, set, None).expect("no threshold");
            assert!(
                floor <= eval.weighted,
                "{name}: floor {floor} above weighted {} for {set:?}",
                eval.weighted
            );
            // The floor is exactly the maintenance part of the weighted
            // cost: no query term, no slack.
            let maintenance: Vec<(f64, f64)> = eval
                .per_txn
                .iter()
                .map(|t| (t.update_cost.value(), t.weight))
                .collect();
            assert_eq!(
                floor.to_bits(),
                weighted_average(&maintenance).to_bits(),
                "{name}"
            );
            positive += usize::from(floor > 0.0);
        }
        // Only the root-only set may have a zero floor, or the bound
        // proves nothing.
        assert!(
            positive + 1 >= sets.len(),
            "{name}: {positive} of {} floors positive",
            sets.len()
        );
    }
}

#[test]
fn the_answer_does_not_depend_on_the_set_order() {
    let model = PageIoCostModel::default();
    for (name, s, sets, config) in scenarios() {
        let config = EvalConfig {
            parallelism: 1,
            ..config
        };
        let reversed: Vec<ViewSet> = sets.iter().rev().cloned().collect();
        let search = |sets: &[ViewSet]| {
            search_view_sets(
                &s.memo,
                &s.catalog,
                &model,
                &[s.root],
                sets,
                &s.txns,
                &config,
            )
        };
        let (a, b) = (search(&sets), search(&reversed));
        assert_eq!(a.best.view_set, b.best.view_set, "{name}");
        assert_eq!(
            a.best.weighted.to_bits(),
            b.best.weighted.to_bits(),
            "{name}"
        );
        assert_eq!(a.evaluated.len(), b.evaluated.len(), "{name}");
        for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
            assert_eq!(x.view_set, y.view_set, "{name}");
            assert_eq!(x.weighted.to_bits(), y.weighted.to_bits(), "{name}");
        }
    }
}
