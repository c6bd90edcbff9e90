//! Algorithm `OptimalViewSet` (Figure 4, Theorem 3.1).
//!
//! Search every view set (every subset of non-leaf equivalence nodes
//! containing the root), priced as [`crate::evaluate_view_set`] prices
//! one, and return the one with the lowest workload-weighted maintenance
//! cost. Valid under any monotonic cost model. The space is walked, not
//! listed ([`crate::search`]).
//!
//! A set of views is searched the same way (§6):
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
//! [`optimal_view_set`], [`crate::evaluate_view_set`] and
//! [`crate::greedy_add`] take their roots as a slice, one view being a
//! slice of one: every root is in every set, the candidates are the
//! union of the roots' descendants, and — the §6 payoff — an auxiliary
//! view shared by several roots is paid for once but helps all of them.
//! Update tracks generalize for free because [`crate::TrackCatalog`]
//! already seeds from *every* marked affected node.

use spacetime_cost::{CostModel, TransactionType};
use spacetime_memo::{GroupId, Memo};
use spacetime_obs::{self as obs, names as metric};
use spacetime_storage::Catalog;

use crate::candidates::{ViewSet, ViewSetSpace};
use crate::evaluate::{EvalConfig, ViewSetEvaluation};
use crate::search::search_spaces;

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The winning view set's full evaluation.
    pub best: ViewSetEvaluation,
    /// The best evaluations (at most [`EvalConfig::top_k`]), sorted by
    /// weighted cost (ascending).
    pub evaluated: Vec<ViewSetEvaluation>,
    /// The size of the space searched, `Σ_{k ≤ cap} C(n, k)` per space
    /// (saturating): every set in it counts, whether it was priced,
    /// bounded by branch-and-bound, or left unclaimed past the budget.
    pub sets_considered: usize,
    /// `sets_considered` minus the sets fully priced: those bounded by
    /// pruning (their weighted cost provably exceeded the top-K
    /// threshold) and, when `exact` is false, those past the budget.
    /// Pruning never affects `best` or `evaluated`.
    pub sets_pruned: usize,
    /// Track-enumeration branches discarded by `max_tracks` across the
    /// run. Non-zero means some track spaces were not fully explored and
    /// the reported costs are upper bounds.
    pub tracks_truncated: usize,
    /// Always 0. Kept only because the benchmark harness reads it.
    #[doc(hidden)]
    pub query_cache_hits: u64,
    /// Always 0, like `query_cache_hits`.
    #[doc(hidden)]
    pub query_cache_misses: u64,
    /// Whether the search covered its whole space: every set was priced
    /// or provably could not enter the top-K. False when the walk stopped
    /// at [`crate::search::SEARCH_BUDGET`]; `best` is then the best set
    /// priced, never worse than the space's base.
    pub exact: bool,
}

impl OptimizeOutcome {
    /// The winning view set.
    pub fn best_set(&self) -> &ViewSet {
        &self.best.view_set
    }

    /// Add another search's counts to this one's (a search made of
    /// several, like greedy's rounds or shielding's local solves).
    pub(crate) fn absorb(&mut self, other: &OptimizeOutcome) {
        self.sets_considered = self.sets_considered.saturating_add(other.sets_considered);
        self.sets_pruned = self.sets_pruned.saturating_add(other.sets_pruned);
        self.tracks_truncated += other.tracks_truncated;
        self.exact &= other.exact;
    }

    /// Publish `exact` on the `OPT_SEARCH_EXACT` gauge (1 or 0).
    pub(crate) fn publish_exact(&self) {
        obs::gauge_set(metric::OPT_SEARCH_EXACT, f64::from(u8::from(self.exact)));
    }

    /// The additional views (best set minus the roots).
    pub fn additional_views(&self, memo: &Memo, roots: &[GroupId]) -> Vec<GroupId> {
        let roots: Vec<GroupId> = roots.iter().map(|&r| memo.find(r)).collect();
        self.best
            .view_set
            .iter()
            .copied()
            .filter(|&g| !roots.contains(&memo.find(g)))
            .collect()
    }
}

/// Exhaustive `OptimalViewSet` over the full candidate space of the DAG
/// under `roots` (one view, or a group of views, §6): every root is
/// always marked. `roots` is non-empty.
pub fn optimal_view_set(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    roots: &[GroupId],
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    let space = ViewSetSpace::of_roots(memo, roots);
    search_spaces(memo, catalog, model, roots, &[space], txns, config)
}

/// Exhaustive search over an explicit candidate list (used by the
/// single-tree heuristic), optionally capping the number of additional
/// views per set.
#[allow(clippy::too_many_arguments)]
pub fn optimal_view_set_over(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    root: GroupId,
    candidates: &[GroupId],
    txns: &[TransactionType],
    config: &EvalConfig,
    max_extra: Option<usize>,
) -> OptimizeOutcome {
    let root = memo.find(root);
    let space = ViewSetSpace {
        base: ViewSet::from([root]),
        free: candidates.to_vec(),
        max_extra: max_extra.unwrap_or(candidates.len()),
    };
    search_spaces(memo, catalog, model, &[root], &[space], txns, config)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::candidates::render_view_set;
    use crate::evaluate::evaluate_view_set;
    use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ExprTree, OpKind, ScalarExpr};
    use spacetime_cost::{Cost, CostCtx, PageIoCostModel};
    use spacetime_storage::{DataType, Schema, TableStats};

    /// The paper's sample database (§3.6): 1000 departments, 10000
    /// employees, uniform distribution, hash index on DName everywhere.
    pub fn paper_catalog() -> Catalog {
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
        .unwrap();
        cat.declare_key("Emp", &["EName"]).unwrap();
        cat.create_index("Emp", &["DName"]).unwrap();
        cat.table_mut("Emp").unwrap().stats =
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
        .unwrap();
        cat.declare_key("Dept", &["DName"]).unwrap();
        cat.table_mut("Dept").unwrap().stats =
            TableStats::declared(1_000, [(0, 1_000), (1, 950), (2, 600)]);
        cat
    }

    /// Figure 1 (right) tree for ProblemDept.
    pub fn problem_dept_tree(cat: &Catalog) -> ExprTree {
        let emp = ExprNode::scan(cat, "Emp").unwrap();
        let dept = ExprNode::scan(cat, "Dept").unwrap();
        let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let agg = ExprNode::aggregate(
            join,
            vec![3, 5],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap();
        ExprNode::select(
            agg,
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
        )
        .unwrap()
    }

    pub struct PaperSetup {
        pub cat: Catalog,
        pub memo: Memo,
        pub root: GroupId,
        pub n3: GroupId,
        pub n4: GroupId,
        pub txns: Vec<TransactionType>,
    }

    pub fn paper_setup() -> PaperSetup {
        let cat = paper_catalog();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&problem_dept_tree(&cat));
        memo.set_root(root);
        spacetime_memo::explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);
        let n3 = find_group(&memo, |op, m, o| {
            matches!(op, OpKind::Aggregate { .. })
                && m.group_ops(m.op_children(o)[0])
                    .iter()
                    .any(|&c| matches!(&m.op(c).op, OpKind::Scan { table } if table == "Emp"))
        });
        let n4 = find_group(&memo, |op, m, o| {
            matches!(op, OpKind::Join { .. }) && m.op_children(o).iter().all(|&c| m.is_leaf(c))
        });
        let txns = vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ];
        PaperSetup {
            cat,
            memo,
            root,
            n3,
            n4,
            txns,
        }
    }

    fn find_group(
        memo: &Memo,
        pred: impl Fn(&OpKind, &Memo, spacetime_memo::OpId) -> bool,
    ) -> GroupId {
        for g in memo.groups() {
            for op in memo.group_ops(g) {
                if pred(&memo.op(op).op, memo, op) {
                    return memo.find(g);
                }
            }
        }
        panic!("group not found");
    }

    fn eval_set(s: &PaperSetup, extras: &[GroupId]) -> ViewSetEvaluation {
        let model = PageIoCostModel::default();
        let mut set = ViewSet::new();
        set.insert(s.root);
        for &g in extras {
            set.insert(s.memo.find(g));
        }
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        evaluate_view_set(
            &mut ctx,
            &s.cat,
            &[s.root],
            &set,
            &s.txns,
            &EvalConfig::default(),
        )
    }

    /// Reproduces the paper's combined-cost table (T4) exactly:
    ///
    /// |        |  ∅  | {N3} | {N4} |
    /// |--------|-----|------|------|
    /// | >Emp   | 13  |  5   |  16  |
    /// | >Dept  | 11  |  2   |  32  |
    #[test]
    fn paper_combined_cost_table_t4() {
        let s = paper_setup();
        let none = eval_set(&s, &[]);
        assert_eq!(none.txn_total(">Emp").unwrap(), Cost(13.0));
        assert_eq!(none.txn_total(">Dept").unwrap(), Cost(11.0));
        assert_eq!(none.weighted, 12.0, "paper: 12 page I/Os for strategy (a)");

        let with_n3 = eval_set(&s, &[s.n3]);
        assert_eq!(with_n3.txn_total(">Emp").unwrap(), Cost(5.0));
        assert_eq!(with_n3.txn_total(">Dept").unwrap(), Cost(2.0));
        assert_eq!(
            with_n3.weighted, 3.5,
            "paper: an average of 3.5 page I/Os per transaction"
        );

        let with_n4 = eval_set(&s, &[s.n4]);
        assert_eq!(with_n4.txn_total(">Emp").unwrap(), Cost(16.0));
        assert_eq!(with_n4.txn_total(">Dept").unwrap(), Cost(32.0));
        // "by making a wrong choice … the cost of view maintenance can be
        // worse than not materializing any additional views."
        assert!(with_n4.weighted > none.weighted);
    }

    /// The headline claim: strategy (b) ≈ 30% of strategy (a)'s cost.
    #[test]
    fn paper_headline_reduction() {
        let s = paper_setup();
        let none = eval_set(&s, &[]);
        let with_n3 = eval_set(&s, &[s.n3]);
        let ratio = with_n3.weighted / none.weighted;
        assert!(
            (ratio - 0.2917).abs() < 0.01,
            "3.5/12 ≈ 29% (\"about 30% of the cost\"); got {ratio}"
        );
    }

    /// {N3} wins "independent of the weighting for each transaction type".
    #[test]
    fn n3_dominates_for_every_weighting() {
        let s = paper_setup();
        let none = eval_set(&s, &[]);
        let with_n3 = eval_set(&s, &[s.n3]);
        let with_n4 = eval_set(&s, &[s.n4]);
        for (a, b) in [(">Emp", ">Dept")] {
            for (x, y) in [(&none, &with_n3), (&with_n4, &with_n3), (&with_n4, &none)] {
                assert!(x.txn_total(a).unwrap() >= y.txn_total(a).unwrap());
                assert!(x.txn_total(b).unwrap() >= y.txn_total(b).unwrap());
            }
        }
    }

    /// The full exhaustive run picks a set containing N3 (and achieving
    /// the {N3} cost) over the whole 2^n space.
    #[test]
    fn exhaustive_selects_n3() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let outcome = optimal_view_set(
            &s.memo,
            &s.cat,
            &model,
            &[s.root],
            &s.txns,
            &EvalConfig::default(),
        );
        assert!(outcome.sets_considered >= 8);
        assert!(
            outcome.best.weighted <= 3.5,
            "at least as good as the paper's {{N3}}: {}",
            outcome.best.weighted
        );
        assert!(
            outcome.best_set().contains(&s.memo.find(s.n3)),
            "best = {}",
            render_view_set(outcome.best_set(), s.root, |g| format!("N{}", g.0))
        );
        // Sorted ascending.
        for w in outcome.evaluated.windows(2) {
            assert!(w[0].weighted <= w[1].weighted);
        }
    }

    /// Theorem 3.1 sanity: the exhaustive optimum is no worse than every
    /// singleton and the empty set (brute-force spot check).
    #[test]
    fn optimum_dominates_all_singletons() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let outcome = optimal_view_set(
            &s.memo,
            &s.cat,
            &model,
            &[s.root],
            &s.txns,
            &EvalConfig::default(),
        );
        for g in crate::candidates::candidate_groups(&s.memo, s.root) {
            let e = eval_set(&s, &[g]);
            assert!(outcome.best.weighted <= e.weighted + 1e-9);
        }
        let empty = eval_set(&s, &[]);
        assert!(outcome.best.weighted <= empty.weighted + 1e-9);
    }

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
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(0)),
        )
        .unwrap();
        let v2 = memo.insert_tree(&v2_tree);
        memo.set_root(v1);
        spacetime_memo::explore(&mut memo, &cat).unwrap();
        let (v1, v2) = (memo.find(v1), memo.find(v2));
        assert_ne!(v1, v2);

        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let txns = vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ];
        let outcome = optimal_view_set(&memo, &cat, &model, &[v1, v2], &txns, &config);
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
            .any(|&o| matches!(memo.op(o).op, OpKind::Aggregate { .. }));
        assert!(is_sum_of_sals);
        // Sharing pays: the joint optimum beats maintaining both roots
        // with no auxiliary at all.
        let empty: ViewSet = [v1, v2].into_iter().collect();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        let base = evaluate_view_set(&mut ctx, &cat, &[v1, v2], &empty, &txns, &config);
        assert!(outcome.best.weighted < base.weighted);
    }
}
