//! Query costing in the presence of materialized views.
//!
//! When a delta is propagated through an operation node, queries are posed
//! on the node's other inputs (§2.2). The cost of answering such a query
//! on an equivalence node depends on the chosen view set:
//!
//! > *"Determining the cost of computing updates to a node in an update
//! > track in the presence of materialized views in V thus reduces to the
//! > problem of determining the cost of evaluating a query Q on an
//! > equivalence node in D_V, in the presence of the materialized views in
//! > V. This is a standard query optimization problem, and the
//! > optimization techniques of Chaudhuri et al. \[4\] … can be easily
//! > adapted for this task."* (§3.4)
//!
//! [`CostCtx::query_cost`] is that adaptation: a best-plan search over the
//! memo where a query on a *materialized* (or base) node is a hash-index
//! lookup, and a query on any other node recursively pushes its binding
//! down through the node's alternative operators. [`CostCtx::batch_query_cost`]
//! adds the multi-query-optimization step of §3.4 (common subexpressions
//! between the queries of one update track are charged once).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use spacetime_algebra::{OpKind, ScalarExpr};
use spacetime_memo::GroupId;

use crate::est::CostCtx;
use crate::model::Cost;

/// A set of materialized equivalence nodes (canonical group ids).
pub type Marking = BTreeSet<GroupId>;

/// Hash of the marking slice a query on `g` can actually consult:
/// `marked ∩ reachable(g)`, in the marking's sorted order. The guarded
/// costing recursion below only tests membership of groups it visits, and
/// it visits exactly the groups reachable from `g` — so the cost is a pure
/// function of `(g, cols)` and this slice, and two *different* view sets
/// that agree on it may share one cache entry. That is what lets one
/// worker's cache answer for the next view set it prices during
/// `search_view_sets`, where consecutive sets differ in a few marks.
fn narrowed_marking_hash(ctx: &mut CostCtx<'_>, g: GroupId, marked: &Marking) -> u64 {
    let reach = ctx.reachable(g);
    let mut h = DefaultHasher::new();
    for m in marked {
        if reach.contains(m) {
            m.0.hash(&mut h);
        }
    }
    h.finish()
}

/// One query in a batch: (node, binding columns, probes). The columns are
/// borrowed from the posed query, so building a batch copies nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQuery<'q> {
    /// The queried equivalence node.
    pub group: GroupId,
    /// Binding columns (output positions of `group`).
    pub cols: &'q [usize],
    /// How many times the query is probed (distinct delta keys).
    pub probes: f64,
}

impl<'a> CostCtx<'a> {
    /// Cost of answering "tuples of `g` whose `cols` match a given
    /// binding" once, under the marked view set, memoized by
    /// `(g, cols, narrowed marking)`.
    pub fn query_cost(&mut self, g: GroupId, cols: &[usize], marked: &Marking) -> Cost {
        let g = self.memo.find(g);
        let key = (g, cols.to_vec(), narrowed_marking_hash(self, g, marked));
        if let Some(&c) = self.query_cache().get(&key) {
            return c;
        }
        let c = self.query_cost_guarded(key.0, cols, marked, &mut vec![]);
        self.query_cache().insert(key, c);
        c
    }

    fn query_cost_guarded(
        &mut self,
        g: GroupId,
        cols: &[usize],
        marked: &Marking,
        path: &mut Vec<GroupId>,
    ) -> Cost {
        let g = self.memo.find(g);
        if cols.is_empty() {
            return self.full_eval_guarded(g, marked, path);
        }
        if self.memo.is_leaf(g) || marked.contains(&g) {
            let matches = self.matches(g, cols);
            return self.model.lookup(matches);
        }
        if path.contains(&g) {
            return Cost::INFINITY;
        }
        path.push(g);
        let mut best = Cost::INFINITY;
        for op in self.memo.group_ops(g) {
            let cost = self.op_query_cost_guarded(op, cols, marked, path);
            best = best.min(cost);
        }
        path.pop();
        best
    }

    /// Cost of answering the query through one specific operation node —
    /// exposed so the runtime engine can pick the same plan the optimizer
    /// priced.
    pub fn op_query_cost(
        &mut self,
        op: spacetime_memo::OpId,
        cols: &[usize],
        marked: &Marking,
    ) -> Cost {
        self.op_query_cost_guarded(op, cols, marked, &mut vec![self.memo.op_group(op)])
    }

    fn op_query_cost_guarded(
        &mut self,
        op: spacetime_memo::OpId,
        cols: &[usize],
        marked: &Marking,
        path: &mut Vec<GroupId>,
    ) -> Cost {
        {
            let memo = self.memo;
            let children = memo.op_children(op);
            let cost = match &memo.op(op).op {
                OpKind::Scan { .. } => {
                    // A scan alternative inside a non-leaf group (possible
                    // only through merges); treat as a lookup.
                    let g = self.memo.op_group(op);
                    let matches = self.matches(g, cols);
                    self.model.lookup(matches)
                }
                OpKind::Select { .. } | OpKind::Distinct => {
                    self.query_cost_guarded(children[0], cols, marked, path)
                }
                OpKind::Project { exprs } => {
                    let mapped: Option<Vec<usize>> = cols
                        .iter()
                        .map(|&c| match exprs.get(c) {
                            Some((ScalarExpr::Col(i), _)) => Some(*i),
                            _ => None,
                        })
                        .collect();
                    match mapped {
                        Some(m) => self.query_cost_guarded(children[0], &m, marked, path),
                        None => self.full_eval_guarded(children[0], marked, path),
                    }
                }
                OpKind::Aggregate { group_by, .. } => {
                    let mapped: Option<Vec<usize>> =
                        cols.iter().map(|&c| group_by.get(c).copied()).collect();
                    match mapped {
                        Some(m) => self.query_cost_guarded(children[0], &m, marked, path),
                        None => self.full_eval_guarded(children[0], marked, path),
                    }
                }
                OpKind::Join { condition } => {
                    let (a, b) = (children[0], children[1]);
                    let la = self.memo.schema(a).arity();
                    let lp: Vec<usize> = cols.iter().copied().filter(|&c| c < la).collect();
                    let rp: Vec<usize> =
                        cols.iter().filter(|&&c| c >= la).map(|&c| c - la).collect();
                    let lcols = condition.left_cols();
                    let rcols = condition.right_cols();
                    if rp.is_empty() {
                        // Binding on the left side: fetch matching A
                        // tuples, then probe B per result on the join key.
                        let qa = self.query_cost_guarded(a, &lp, marked, path);
                        let ka = self.matches(a, &lp);
                        let qb = self.query_cost_guarded(b, &rcols, marked, path);
                        qa + qb * ka
                    } else if lp.is_empty() {
                        let qb = self.query_cost_guarded(b, &rp, marked, path);
                        let kb = self.matches(b, &rp);
                        let qa = self.query_cost_guarded(a, &lcols, marked, path);
                        qb + qa * kb
                    } else {
                        // Binding split across both sides: drive from the
                        // left part, filter the right.
                        let qa = self.query_cost_guarded(a, &lp, marked, path);
                        let ka = self.matches(a, &lp);
                        let mut rq: Vec<usize> = rcols.clone();
                        for &c in &rp {
                            if !rq.contains(&c) {
                                rq.push(c);
                            }
                        }
                        let qb = self.query_cost_guarded(b, &rq, marked, path);
                        qa + qb * ka
                    }
                }
            };
            cost
        }
    }

    /// Cost of fully evaluating a node under the marked view set (used
    /// when a binding cannot be pushed down).
    pub fn full_eval_cost(&mut self, g: GroupId, marked: &Marking) -> Cost {
        self.full_eval_guarded(self.memo.find(g), marked, &mut vec![])
    }

    fn full_eval_guarded(&mut self, g: GroupId, marked: &Marking, path: &mut Vec<GroupId>) -> Cost {
        let g = self.memo.find(g);
        if self.memo.is_leaf(g) || marked.contains(&g) {
            let pages = self.pages(g);
            return self.model.scan(pages);
        }
        if path.contains(&g) {
            return Cost::INFINITY;
        }
        path.push(g);
        let mut best = Cost::INFINITY;
        for op in self.memo.group_ops(g) {
            let children = self.memo.op_children(op);
            let mut cost = Cost::ZERO;
            for c in children {
                cost += self.full_eval_guarded(c, marked, path);
            }
            best = best.min(cost);
        }
        path.pop();
        best
    }

    /// Cost of answering a batch of queries (one update track's query
    /// set), with multi-query optimization: identical queries are shared
    /// and charged once with their maximum probe count (§3.4: "this set of
    /// queries can have common subexpressions, and multi-query
    /// optimization techniques can be used").
    pub fn batch_query_cost(&mut self, queries: &[BatchQuery<'_>], marked: &Marking) -> Cost {
        // BTreeMap, not HashMap: the f64 summation below must happen in a
        // deterministic order so serial and parallel searches produce
        // bit-identical weighted costs run over run.
        let mut shared: BTreeMap<(GroupId, &[usize]), f64> = BTreeMap::new();
        for q in queries {
            let e = shared
                .entry((self.memo.find(q.group), q.cols))
                .or_insert(0.0);
            *e = e.max(q.probes);
        }
        let mut total = Cost::ZERO;
        for ((g, cols), probes) in shared {
            total += self.query_cost(g, cols, marked) * probes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::est::tests::{paper_catalog, problem_dept_tree};
    use crate::model::PageIoCostModel;
    use spacetime_memo::{explore, Memo};
    use spacetime_storage::Catalog;

    struct Setup {
        cat: Catalog,
        memo: Memo,
    }

    fn setup() -> Setup {
        let cat = paper_catalog();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&problem_dept_tree(&cat));
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        Setup { cat, memo }
    }

    fn find_group(
        memo: &Memo,
        pred: impl Fn(&OpKind, &Memo, spacetime_memo::OpId) -> bool,
    ) -> GroupId {
        for g in memo.groups() {
            for op in memo.group_ops(g) {
                if pred(&memo.op(op).op, memo, op) {
                    return g;
                }
            }
        }
        panic!("group not found");
    }

    fn n3(memo: &Memo) -> GroupId {
        find_group(memo, |op, m, o| {
            matches!(op, OpKind::Aggregate { .. })
                && m.group_ops(m.op_children(o)[0])
                    .iter()
                    .any(|&c| matches!(&m.op(c).op, OpKind::Scan { table } if table == "Emp"))
        })
    }

    fn n4(memo: &Memo) -> GroupId {
        find_group(memo, |op, m, o| {
            matches!(op, OpKind::Join { .. }) && m.op_children(o).iter().all(|&c| m.is_leaf(c))
        })
    }

    /// Reproduces the paper's §3.6 query-cost table (T1), the heart of the
    /// whole reproduction: each entry is the cost of one posed query under
    /// a view set.
    #[test]
    fn paper_query_cost_table_t1() {
        let s = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let n3 = n3(&s.memo);
        let n4 = n4(&s.memo);
        let dept = find_group(
            &s.memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Dept"),
        );
        let emp = find_group(
            &s.memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Emp"),
        );
        let none: Marking = Marking::new();
        let m3: Marking = [s.memo.find(n3)].into_iter().collect();
        let m4: Marking = [s.memo.find(n4)].into_iter().collect();

        // Q2Ld: at E2, the sum-of-salaries of the updated department —
        // a query on N3 bound on DName (output col 0).
        assert_eq!(ctx.query_cost(n3, &[0], &none), Cost(11.0));
        assert_eq!(ctx.query_cost(n3, &[0], &m3), Cost(2.0));
        assert_eq!(ctx.query_cost(n3, &[0], &m4), Cost(11.0));

        // Q2Re: the matching Dept tuple — query on the Dept leaf by key.
        assert_eq!(ctx.query_cost(dept, &[0], &none), Cost(2.0));
        assert_eq!(ctx.query_cost(dept, &[0], &m3), Cost(2.0));
        assert_eq!(ctx.query_cost(dept, &[0], &m4), Cost(2.0));

        // Q3e: at E3, the affected group of N4 — bound on (Dept.DName,
        // Budget) = output cols (3, 5) of the join.
        assert_eq!(ctx.query_cost(n4, &[3, 5], &none), Cost(13.0));
        assert_eq!(ctx.query_cost(n4, &[3, 5], &m3), Cost(13.0));
        assert_eq!(ctx.query_cost(n4, &[3, 5], &m4), Cost(11.0));

        // Q4e: at E4, the updated employee's department group — query on
        // the Emp leaf bound on DName (col 1).
        assert_eq!(ctx.query_cost(emp, &[1], &none), Cost(11.0));
        assert_eq!(ctx.query_cost(emp, &[1], &m4), Cost(11.0));

        // Q5Ld: employees of the updated Dept tuple.
        assert_eq!(ctx.query_cost(emp, &[1], &m3), Cost(11.0));
        // Q5Re: matching Dept tuple of the updated Emp tuple.
        assert_eq!(ctx.query_cost(dept, &[0], &none), Cost(2.0));
    }

    #[test]
    fn marking_the_queried_node_makes_it_a_lookup() {
        let s = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let n4 = n4(&s.memo);
        let none = Marking::new();
        let m4: Marking = [s.memo.find(n4)].into_iter().collect();
        // Querying N4 on Emp.DName (col 1): unmarked, it evaluates via the
        // join; marked it is a single probe returning ~10 tuples.
        let unmarked = ctx.query_cost(n4, &[1], &none);
        let marked = ctx.query_cost(n4, &[1], &m4);
        assert_eq!(marked, Cost(11.0));
        assert!(unmarked >= marked);
    }

    #[test]
    fn batch_shares_identical_queries() {
        let s = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let dept = find_group(
            &s.memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Dept"),
        );
        let none = Marking::new();
        let q = BatchQuery {
            group: dept,
            cols: &[0],
            probes: 1.0,
        };
        let single = ctx.batch_query_cost(std::slice::from_ref(&q), &none);
        let double = ctx.batch_query_cost(&[q.clone(), q], &none);
        assert_eq!(single, double, "identical queries are charged once");
    }

    #[test]
    fn full_eval_prefers_cheapest_alternative() {
        let s = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let root = s.memo.root().unwrap();
        let none = Marking::new();
        let cost = ctx.full_eval_cost(root, &none);
        assert!(cost.is_finite());
        // Scanning Emp (1000 pages) + Dept (100 pages) bounds any plan
        // from below at our stats; the cheapest plan cannot beat the leaf
        // scans it must perform.
        assert!(cost >= Cost(1100.0), "{cost}");
        // Marking the root makes evaluation a scan of ~100 pages.
        let mroot: Marking = [root].into_iter().collect();
        let marked_cost = ctx.full_eval_cost(root, &mroot);
        assert!(marked_cost < cost);
    }

    /// The query-cost key hashes only `marked ∩ reachable(g)`: pricing the
    /// same query under a *different* view set that agrees below the
    /// queried node reuses the entry — and the reused answer equals the
    /// recomputed one.
    #[test]
    fn narrowed_keys_share_across_markings() {
        let s = setup();
        let model = PageIoCostModel::default();
        let n3 = n3(&s.memo);
        let n4 = n4(&s.memo);

        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        // Precondition for the test's logic: N4 (the Emp ⋈ Dept join) is
        // not reachable from N3 (the aggregate over Emp), so marking it
        // cannot affect a query on N3.
        assert!(!ctx.reachable(n3).contains(&s.memo.find(n4)));

        let m3: Marking = [s.memo.find(n3)].into_iter().collect();
        let m34: Marking = [s.memo.find(n3), s.memo.find(n4)].into_iter().collect();

        let priced = ctx.query_cost(n3, &[0], &m3);
        assert_eq!(priced, Cost(2.0), "T1 pin: marked N3 is a lookup");
        let entries = ctx.query_cache().len();

        // A *different* marking that agrees on reachable(N3): answered by
        // the entry already there, not by a new one.
        assert_eq!(ctx.query_cost(n3, &[0], &m34), priced);
        assert_eq!(ctx.query_cache().len(), entries, "narrowed key collided");

        // And a marking that differs *inside* the slice must not collide.
        assert_eq!(ctx.query_cost(n3, &[0], &Marking::new()), Cost(11.0));
        assert_eq!(ctx.query_cache().len(), entries + 1);
    }

    #[test]
    fn unbound_query_falls_back_to_full_eval() {
        let s = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let root = s.memo.root().unwrap();
        let none = Marking::new();
        assert_eq!(
            ctx.query_cost(root, &[], &none),
            ctx.full_eval_cost(root, &none)
        );
    }
}
