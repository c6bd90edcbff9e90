//! Example 3.1 / Figure 3: the optimal *query* plan and the optimal
//! *maintenance* materialization differ.
//!
//! `ADeptsStatus` joins Emp, Dept and the small `ADepts` relation; updates
//! hit only `ADepts`. The optimizer should materialize the V1 subview
//! (Dept joined with per-department salary sums) so an ADepts update is a
//! single lookup — "since there are no updates to the relations Dept and
//! Emp, view V1 does not need to be updated."
//!
//! ```text
//! cargo run --release --example adepts_status
//! ```

use spacetime::optimizer::candidates::render_view_set;
use spacetime::optimizer::exhaustive::optimal_view_set_over;
use spacetime::optimizer::{candidate_groups, EvalConfig, PageIoCostModel};
use spacetime_bench::scenarios::adepts_status;

fn main() {
    let s = adepts_status();
    println!("ADeptsStatus as written (query-optimization shape):\n");
    println!("{}", s.tree.render());

    let model = PageIoCostModel::default();
    let config = EvalConfig {
        max_tracks: 128,
        ..EvalConfig::default()
    };
    // ≤2 additional views: exhaustive over the relevant space without the
    // 2^20 blowup (§5's point).
    let candidates = candidate_groups(&s.memo, s.root);
    let outcome = optimal_view_set_over(
        &s.memo,
        &s.catalog,
        &model,
        s.root,
        &candidates,
        &s.txns,
        &config,
        Some(2),
    );

    println!(
        "workload: {} (updates only ADepts)\n",
        s.txns
            .iter()
            .map(|t| t.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "view sets by maintenance cost (best 6 of {}):",
        outcome.sets_considered
    );
    for e in outcome.evaluated.iter().take(6) {
        println!(
            "  {:<28} weighted {}",
            render_view_set(&e.view_set, s.root, |g| format!("n{}", g.0)),
            e.weighted
        );
    }

    let extras = outcome.additional_views(&s.memo, &[s.root]);
    println!("\nchosen additional views:");
    for g in &extras {
        let tree = s.memo.extract_one(*g);
        let adepts_free = !tree.leaf_tables().contains(&"ADepts");
        println!(
            "  [{}]{}:\n{}",
            s.memo.schema(*g),
            if adepts_free {
                "  (ADepts-free — never needs updating under this workload)"
            } else {
                ""
            },
            tree.render()
        );
    }

    // `outcome.evaluated` is truncated to the top-K cheapest sets, which
    // need not include the no-extra-views baseline — evaluate it directly.
    let baseline: spacetime::optimizer::ViewSet = [s.root].into_iter().collect();
    let mut ctx = spacetime::cost::CostCtx::new(&s.memo, &s.catalog, &model);
    let empty = spacetime::optimizer::evaluate_view_set(
        &mut ctx,
        &s.catalog,
        &[s.root],
        &baseline,
        &s.txns,
        &config,
    );
    println!(
        "maintaining nothing extra: {} page I/Os per txn; with V1: {} — \
         \"{{V1}} is likely to be the optimal set of additional views to maintain.\"",
        empty.weighted, outcome.best.weighted
    );
    assert!(outcome.best.weighted < empty.weighted);
}
