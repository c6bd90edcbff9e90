//! The Shielding Principle (§4, Theorem 4.1).
//!
//! > *"If V1 ∈ Opt(V), and the equivalence node corresponding to V1 is an
//! > articulation node of D_V, then Opt(V1) = Opt(V) ∩ E_V1."*
//!
//! In general "suboptimal + suboptimal = optimal": common subexpressions
//! let locally-suboptimal plans combine into a globally optimal one, so
//! local optimization is unsound — *except* at articulation nodes, where
//! every path between the regions passes through the node.
//!
//! The search procedure exploits the theorem exactly as stated: when an
//! articulation node `N` **is** materialized, the choice below it is fixed
//! to the locally-computed optimum `Opt(N)` (collapsing `2^m` descendant
//! combinations to one — and `Opt(N)` is itself computed with shielding,
//! so nested articulation nodes compound the pruning); when `N` is **not**
//! materialized the theorem says nothing and its descendants are
//! enumerated freely — which matters: in the paper's own example the
//! winning set `{N3}` lies below the unmaterialized articulation node N2.

use std::collections::BTreeSet;

use spacetime_cost::{CostModel, TransactionType};
use spacetime_memo::{articulation_groups, descendant_groups, GroupId, Memo};
use spacetime_storage::Catalog;

use crate::candidates::{candidate_groups, ViewSet, ViewSetSpace};
use crate::evaluate::EvalConfig;
use crate::exhaustive::OptimizeOutcome;
use crate::search::search_spaces;

/// Optimize using the Shielding-Principle decomposition. Produces the same
/// optimum as [`crate::exhaustive::optimal_view_set`] (Theorem 4.1) while
/// evaluating fewer view sets when articulation nodes shield nontrivial
/// subdags. `sets_considered` includes the recursive local solves.
pub fn shielding_optimize(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    root: GroupId,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    solve(memo, catalog, model, memo.find(root), txns, config)
}

fn solve(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    root: GroupId,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    let candidates = candidate_groups(memo, root);
    let cand_set: BTreeSet<GroupId> = candidates.iter().copied().collect();
    let arts: Vec<GroupId> = articulation_groups(memo, root)
        .into_iter()
        .filter(|g| cand_set.contains(g))
        .collect();

    // Maximal articulation nodes (not strictly below another one).
    let top_arts: Vec<GroupId> = arts
        .iter()
        .copied()
        .filter(|&n| {
            !arts
                .iter()
                .any(|&m| m != n && descendant_groups(memo, m).contains(&n))
        })
        .collect();

    // Opt(N) for each shield, computed recursively (maintaining N as the
    // local root under the same workload).
    let mut locals = Vec::new();
    let mut shielded: BTreeSet<GroupId> = BTreeSet::new();
    let mut spaces = vec![ViewSetSpace::single(ViewSet::from([root]))];
    for &n in &top_arts {
        let below = candidate_groups(memo, n);
        let local = solve(memo, catalog, model, n, txns, config);
        // One space per marked/unmarked choice: marked, N brings Opt(N);
        // unmarked, its region's candidates are free.
        spaces = spaces
            .into_iter()
            .flat_map(|space| {
                let mut with_n = space.clone();
                with_n.base.extend(local.best.view_set.iter().map(|&g| memo.find(g)));
                let mut without_n = space;
                without_n.free.extend(below.iter().map(|&g| memo.find(g)));
                [with_n, without_n]
            })
            .collect();
        shielded.extend(below);
        locals.push(local);
    }

    // Upper candidates, free in every space: neither shielded nor shields
    // themselves.
    let upper: Vec<GroupId> = candidates
        .iter()
        .filter(|g| !shielded.contains(g) && !top_arts.contains(g))
        .map(|&g| memo.find(g))
        .collect();
    for space in &mut spaces {
        space.free.splice(0..0, upper.iter().copied());
        space.max_extra = space.free.len();
    }

    // Price every space in one engine run (shared track catalog + query
    // cache, parallel workers, pruning).
    let mut outcome = search_spaces(memo, catalog, model, &[root], &spaces, txns, config);
    for local in &locals {
        outcome.absorb(local);
    }
    outcome.publish_exact();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::optimal_view_set;
    use crate::exhaustive::tests::paper_setup;
    use spacetime_algebra::{AggExpr, AggFunc, BinOp, CmpOp, ExprNode, ScalarExpr};
    use spacetime_cost::PageIoCostModel;
    use spacetime_memo::explore;
    use spacetime_storage::{DataType, Schema, TableStats};

    #[test]
    fn shielding_matches_exhaustive_on_paper_example() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let ex = optimal_view_set(&s.memo, &s.cat, &model, &[s.root], &s.txns, &config);
        let sh = shielding_optimize(&s.memo, &s.cat, &model, s.root, &s.txns, &config);
        assert_eq!(
            sh.best.weighted, ex.best.weighted,
            "Theorem 4.1: same optimum"
        );
    }

    /// A stacked view (Figure-5 style, where aggregation can be neither
    /// pushed nor pulled) has articulation nodes at every level; shielding
    /// must agree with exhaustive while evaluating fewer sets.
    fn stacked_setup() -> (Catalog, Memo, GroupId, Vec<TransactionType>) {
        let mut cat = Catalog::new();
        for (name, cols) in [
            (
                "R",
                vec![("item", DataType::Str), ("region", DataType::Str)],
            ),
            (
                "S",
                vec![("item", DataType::Str), ("quantity", DataType::Int)],
            ),
            ("T", vec![("item", DataType::Str), ("price", DataType::Int)]),
        ] {
            cat.create_table(name, Schema::of_table(name, &cols))
                .unwrap();
        }
        cat.declare_key("T", &["item"]).unwrap();
        cat.create_index("S", &["item"]).unwrap();
        cat.create_index("R", &["item"]).unwrap();
        cat.table_mut("R").unwrap().stats = TableStats::declared(1_000, [(0, 500), (1, 10)]);
        cat.table_mut("S").unwrap().stats = TableStats::declared(5_000, [(0, 500), (1, 100)]);
        cat.table_mut("T").unwrap().stats = TableStats::declared(500, [(0, 500), (1, 200)]);

        // Select(Total > 100)(R ⋈ γ_{T.item; SUM(S.q * T.p)}(S ⋈ T))
        let s = ExprNode::scan(&cat, "S").unwrap();
        let t = ExprNode::scan(&cat, "T").unwrap();
        let st = ExprNode::join_on(s, t, &[("S.item", "T.item")]).unwrap();
        let agg = ExprNode::aggregate(
            st,
            vec![2],
            vec![AggExpr::new(
                AggFunc::Sum,
                ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(1), ScalarExpr::col(3)),
                "Total",
            )],
        )
        .unwrap();
        let r = ExprNode::scan(&cat, "R").unwrap();
        let rj = ExprNode::join_on(r, agg, &[("R.item", "item")]).unwrap();
        let top = ExprNode::select(
            rj.clone(),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(3), ScalarExpr::lit(100)),
        )
        .unwrap();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&top);
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);
        let txns = vec![
            TransactionType::modify(">S", "S", 1.0),
            TransactionType::modify(">T", "T", 1.0).with_weight(2.0),
            TransactionType::insert("+R", "R", 1.0),
        ];
        (cat, memo, root, txns)
    }

    #[test]
    fn shielding_matches_exhaustive_on_stacked_view() {
        let (cat, memo, root, txns) = stacked_setup();
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let ex = optimal_view_set(&memo, &cat, &model, &[root], &txns, &config);
        let sh = shielding_optimize(&memo, &cat, &model, root, &txns, &config);
        assert_eq!(sh.best.weighted, ex.best.weighted);
        assert!(
            sh.sets_considered < ex.sets_considered,
            "shielding: {} vs exhaustive: {}",
            sh.sets_considered,
            ex.sets_considered
        );
    }
}
