//! Maintaining a *set* of views (§6).
//!
//! > *"Our results can be applied in a straightforward fashion to the
//! > problem of determining what views to additionally materialize for
//! > efficiently maintaining a set of materialized views. The key … is
//! > that the expression DAG representation can also be used to compactly
//! > represent the expression trees for a set of queries … the expression
//! > DAG … may therefore have multiple roots, and every view that must be
//! > materialized will be marked in the expression DAG. Other details of
//! > our algorithms remain unchanged."*
//!
//! [`optimal_view_set_multi`] does exactly that: all roots are forced into
//! every candidate marking, candidates are the union of the roots'
//! descendants, and — the §6 payoff — an auxiliary view shared by several
//! roots is paid for once but helps all of them. Update tracks
//! generalize for free because [`crate::tracks::enumerate_tracks`] already
//! seeds from *every* marked affected node.

use spacetime_cost::{CostCtx, CostModel, TransactionType};
use spacetime_memo::{GroupId, Memo};
use spacetime_storage::Catalog;

use crate::candidates::{candidate_groups, enumerate_view_sets, ViewSet};
use crate::evaluate::{evaluate_with_catalog, EvalConfig, ViewSetEvaluation};
use crate::exhaustive::OptimizeOutcome;
use crate::search::search_view_sets;
use crate::track_catalog::TrackCatalog;

/// Evaluate a marking that must cover several roots. Mirrors
/// [`crate::evaluate::evaluate_view_set`], with all roots' update costs
/// excluded under the default accounting (they are view outputs, not
/// auxiliaries).
pub fn evaluate_multi(
    ctx: &mut CostCtx<'_>,
    catalog: &Catalog,
    roots: &[GroupId],
    view_set: &ViewSet,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> ViewSetEvaluation {
    // A synthetic super-root is unnecessary: tracks seed from every marked
    // affected node, with affectedness the union over all roots' scopes.
    let tcat = TrackCatalog::new(ctx.memo, catalog, roots, txns, config.max_tracks);
    evaluate_with_catalog(ctx, &tcat, view_set, config, None).expect("no abort threshold")
}

/// Exhaustive `OptimalViewSet` over a multi-rooted DAG: every root is
/// always marked; candidates are the union of non-root, non-leaf
/// descendants. `max_extra` caps additional views per set. `roots` is
/// non-empty.
pub fn optimal_view_set_multi(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    roots: &[GroupId],
    txns: &[TransactionType],
    config: &EvalConfig,
    max_extra: Option<usize>,
) -> OptimizeOutcome {
    let roots: Vec<GroupId> = roots.iter().map(|&r| memo.find(r)).collect();
    let mut candidates: Vec<GroupId> = Vec::new();
    for &r in &roots {
        for g in candidate_groups(memo, r) {
            if !roots.contains(&g) && !candidates.contains(&g) {
                candidates.push(g);
            }
        }
    }
    // Only the capped sets, in ascending-mask order, each with every root.
    let mut sets = enumerate_view_sets(roots[0], &candidates, max_extra);
    for set in &mut sets {
        set.extend(roots.iter().copied());
    }
    search_view_sets(memo, catalog, model, &roots, &sets, txns, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tests::{paper_catalog, problem_dept_tree};
    use spacetime_algebra::{AggExpr, AggFunc, ExprNode, ScalarExpr};
    use spacetime_cost::PageIoCostModel;
    use spacetime_memo::explore;

    /// Two views sharing the SumOfSals subexpression: ProblemDept plus a
    /// per-department salary report. One shared auxiliary (N3) should
    /// serve both — §6's "expression DAG … may therefore have multiple
    /// roots".
    #[test]
    fn shared_auxiliary_serves_two_roots() {
        let cat = paper_catalog();
        let mut memo = Memo::new();
        let v1 = memo.insert_tree(&problem_dept_tree(&cat));
        // V2: SELECT DName, SUM(Salary) ... GROUP BY DName over Emp, with
        // a projection so it is a *different* root than bare N3.
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap();
        let v2_tree = ExprNode::select(
            agg,
            ScalarExpr::cmp(
                spacetime_algebra::CmpOp::Gt,
                ScalarExpr::col(1),
                ScalarExpr::lit(0),
            ),
        )
        .unwrap();
        let v2 = memo.insert_tree(&v2_tree);
        memo.set_root(v1);
        explore(&mut memo, &cat).unwrap();
        let (v1, v2) = (memo.find(v1), memo.find(v2));
        assert_ne!(v1, v2);

        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let txns = vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ];
        let outcome =
            optimal_view_set_multi(&memo, &cat, &model, &[v1, v2], &txns, &config, Some(2));
        // The optimum shares one auxiliary (N3) across both roots.
        let extras: Vec<GroupId> = outcome
            .best
            .view_set
            .iter()
            .copied()
            .filter(|&g| g != v1 && g != v2)
            .collect();
        assert_eq!(
            extras.len(),
            1,
            "one shared auxiliary: {:?}",
            outcome.best.view_set
        );
        // And it is the SumOfSals group: an aggregate over the Emp leaf.
        let n3 = extras[0];
        let is_sum_of_sals = memo
            .group_ops(n3)
            .iter()
            .any(|&o| matches!(memo.op(o).op, spacetime_algebra::OpKind::Aggregate { .. }));
        assert!(is_sum_of_sals);
        // Shared beats unshared: the multi optimum is no worse than
        // maintaining each root's local optimum separately *with two
        // copies of the auxiliary` (here: identical, since V2's query cost
        // through N3 is what the sharing saves).
        let empty: ViewSet = [v1, v2].into_iter().collect();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        let base = evaluate_multi(&mut ctx, &cat, &[v1, v2], &empty, &txns, &config);
        assert!(outcome.best.weighted < base.weighted);
    }

    #[test]
    fn multi_with_single_root_matches_single() {
        let cat = paper_catalog();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&problem_dept_tree(&cat));
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let txns = vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ];
        let single = crate::exhaustive::optimal_view_set(&memo, &cat, &model, root, &txns, &config);
        let multi = optimal_view_set_multi(&memo, &cat, &model, &[root], &txns, &config, None);
        assert_eq!(single.best.weighted, multi.best.weighted);
        assert_eq!(single.sets_considered, multi.sets_considered);
    }
}
