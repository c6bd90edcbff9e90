//! Operator-level property tests: for every operator and every delta
//! shape, `old_output + propagate(delta) == op(old_input + delta)` —
//! under all three aggregate costing regimes (input re-query,
//! self-materialized, group-complete is exercised separately since it
//! needs the key guarantee).

use std::borrow::Cow;

use proptest::prelude::*;

use spacetime_algebra::eval::{aggregate_bag, join_bags, project_bag};
use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, JoinCondition, ScalarExpr};
use spacetime_delta::{propagate, BagAccess, Delta, InputAccess};
use spacetime_storage::{
    tuple, Bag, Catalog, DataType, HashIndex, Schema, StorageResult, Tuple, Value,
};

/// [`BagAccess`] answering each batched query by partitioning the child
/// once with a [`HashIndex`] instead of filtering it per key — the shape of
/// the engine's batched data plane. Answers and the posed-query count must
/// not depend on which of the two answers.
struct Partitioned(BagAccess);

impl InputAccess for Partitioned {
    fn matching_all(
        &mut self,
        child: usize,
        cols: &[usize],
        keys: &[Vec<Value>],
    ) -> StorageResult<Vec<Cow<'_, Bag>>> {
        self.0.queries_posed += keys.len();
        let mut partition = HashIndex::new(cols.to_vec());
        partition.rebuild(&self.0.children[child]);
        Ok(keys
            .iter()
            .map(|key| Cow::Owned(partition.probe(key).cloned().unwrap_or_default()))
            .collect())
    }

    fn self_rows(
        &mut self,
        cols: &[usize],
        key: &[Value],
    ) -> StorageResult<Option<Cow<'_, Bag>>> {
        self.0.self_rows(cols, key)
    }

    fn group_complete(&self, cols: &[usize]) -> bool {
        self.0.group_complete(cols)
    }
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in ["L", "R"] {
        cat.create_table(
            name,
            Schema::of_table(name, &[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
    }
    cat
}

fn bag_from(rows: &[(i64, i64, u8)]) -> Bag {
    rows.iter()
        .map(|&(k, v, c)| (tuple![k, v], (c % 3) as u64 + 1))
        .collect()
}

/// Build a delta against `base`: delete/modify entries reference actual
/// rows (selected by index), inserts are free.
fn delta_from(base: &Bag, ops: &[(u8, i64, i64, u8)]) -> Delta {
    let rows = base.sorted();
    let mut delta = Delta::new();
    let mut available: std::collections::HashMap<Tuple, u64> = rows.iter().cloned().collect();
    for &(kind, k, v, sel) in ops {
        match kind % 3 {
            0 => delta.inserts.insert(tuple![k, v], 1),
            1 | 2 => {
                if rows.is_empty() {
                    continue;
                }
                let (t, _) = &rows[sel as usize % rows.len()];
                let have = available.get_mut(t);
                let Some(have) = have else { continue };
                if *have == 0 {
                    continue;
                }
                *have -= 1;
                if kind % 3 == 1 {
                    delta.deletes.insert(t.clone(), 1);
                } else {
                    let new = tuple![k, v];
                    if new != *t {
                        delta.push_modify(t.clone(), new, 1);
                    }
                }
            }
            _ => unreachable!(),
        }
    }
    delta
}

/// Canonicalize a delta for comparison: `modifies` is a `Vec` whose order
/// depends on bag iteration order, which differs between two `Bag`
/// instances; the multiset semantics do not.
fn canon(mut d: Delta) -> Delta {
    d.modifies.sort();
    d
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64, u8)>> {
    prop::collection::vec((0i64..4, 0i64..20, any::<u8>()), 0..7)
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, i64, i64, u8)>> {
    prop::collection::vec((any::<u8>(), 0i64..4, 0i64..20, any::<u8>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn select_rule_exact(rows in rows_strategy(), ops in ops_strategy()) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::select(
            l,
            ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(1), ScalarExpr::lit(10)),
        )
        .unwrap();
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut access = BagAccess::new(vec![base.clone()]);
        let d_out = propagate(&node, 0, &delta, &mut access).unwrap();

        let filter = |b: &Bag| -> Bag {
            b.iter()
                .filter(|(t, _)| matches!(t.get(1), Some(v) if *v >= spacetime_storage::Value::Int(10)))
                .map(|(t, c)| (t.clone(), c))
                .collect()
        };
        let mut old_out = filter(&base);
        let mut new_base = base.clone();
        delta.apply_to(&mut new_base).unwrap();
        let expect = filter(&new_base);
        d_out.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn project_rule_exact(rows in rows_strategy(), ops in ops_strategy()) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::project_cols(l, &[0]).unwrap();
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut access = BagAccess::new(vec![base.clone()]);
        let d_out = propagate(&node, 0, &delta, &mut access).unwrap();
        let exprs = vec![(ScalarExpr::col(0), "k".to_string())];
        let mut old_out = project_bag(&base, &exprs).unwrap();
        let mut new_base = base.clone();
        delta.apply_to(&mut new_base).unwrap();
        let expect = project_bag(&new_base, &exprs).unwrap();
        d_out.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn join_rule_exact_either_side(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        ops in ops_strategy(),
        side in 0usize..2,
    ) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let r = ExprNode::scan(&cat, "R").unwrap();
        let node = ExprNode::join_on(l, r, &[("L.k", "R.k")]).unwrap();
        let cond = JoinCondition::on(vec![(0, 0)]);
        let lbase = bag_from(&lrows);
        let rbase = bag_from(&rrows);
        let delta = delta_from(if side == 0 { &lbase } else { &rbase }, &ops);
        let mut access = BagAccess::new(vec![lbase.clone(), rbase.clone()]);
        let d_out = propagate(&node, side, &delta, &mut access).unwrap();
        let mut old_out = join_bags(&lbase, &rbase, &cond).unwrap();
        let (mut nl, mut nr) = (lbase.clone(), rbase.clone());
        if side == 0 {
            delta.apply_to(&mut nl).unwrap();
        } else {
            delta.apply_to(&mut nr).unwrap();
        }
        let expect = join_bags(&nl, &nr, &cond).unwrap();
        d_out.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn aggregate_rule_exact_all_regimes(
        rows in rows_strategy(),
        ops in ops_strategy(),
        materialized in any::<bool>(),
    ) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::aggregate(
            l,
            vec![0],
            vec![
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Min, ScalarExpr::col(1), "lo"),
                AggExpr::new(AggFunc::Avg, ScalarExpr::col(1), "a"),
            ],
        )
        .unwrap();
        let aggs = match &node.op {
            spacetime_algebra::OpKind::Aggregate { aggs, .. } => aggs.clone(),
            _ => unreachable!(),
        };
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut old_out = aggregate_bag(&base, &[0], &aggs).unwrap();
        // A grouped aggregate over an empty input has no rows.
        if base.is_empty() {
            old_out = Bag::new();
        }
        let mut access = if materialized {
            BagAccess::materialized(vec![base.clone()], old_out.clone())
        } else {
            BagAccess::new(vec![base.clone()])
        };
        let d_out = propagate(&node, 0, &delta, &mut access).unwrap();
        let mut new_base = base.clone();
        delta.apply_to(&mut new_base).unwrap();
        let expect = if new_base.is_empty() {
            Bag::new()
        } else {
            aggregate_bag(&new_base, &[0], &aggs).unwrap()
        };
        d_out.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    /// The batched data plane is a wall-clock optimisation only: answering
    /// the posed queries through one hash partition per (child, cols) must
    /// yield the same delta AND the same number of posed queries as the
    /// per-key path, and both must agree with recomputation.
    #[test]
    fn batched_join_matches_per_key_and_oracle(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        ops in ops_strategy(),
        side in 0usize..2,
    ) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let r = ExprNode::scan(&cat, "R").unwrap();
        let node = ExprNode::join_on(l, r, &[("L.k", "R.k")]).unwrap();
        let cond = JoinCondition::on(vec![(0, 0)]);
        let lbase = bag_from(&lrows);
        let rbase = bag_from(&rrows);
        let delta = delta_from(if side == 0 { &lbase } else { &rbase }, &ops);

        let mut per_key = BagAccess::new(vec![lbase.clone(), rbase.clone()]);
        let mut batched = Partitioned(BagAccess::new(vec![lbase.clone(), rbase.clone()]));
        let d_pk = propagate(&node, side, &delta, &mut per_key).unwrap();
        let d_b = propagate(&node, side, &delta, &mut batched).unwrap();
        prop_assert_eq!(canon(d_pk.clone()), canon(d_b));
        prop_assert_eq!(per_key.queries_posed, batched.0.queries_posed);

        let mut old_out = join_bags(&lbase, &rbase, &cond).unwrap();
        let (mut nl, mut nr) = (lbase.clone(), rbase.clone());
        if side == 0 {
            delta.apply_to(&mut nl).unwrap();
        } else {
            delta.apply_to(&mut nr).unwrap();
        }
        let expect = join_bags(&nl, &nr, &cond).unwrap();
        d_pk.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn batched_aggregate_matches_per_key_and_oracle(
        rows in rows_strategy(),
        ops in ops_strategy(),
        materialized in any::<bool>(),
    ) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::aggregate(
            l,
            vec![0],
            vec![
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Max, ScalarExpr::col(1), "hi"),
                AggExpr::new(AggFunc::Avg, ScalarExpr::col(1), "a"),
            ],
        )
        .unwrap();
        let aggs = match &node.op {
            spacetime_algebra::OpKind::Aggregate { aggs, .. } => aggs.clone(),
            _ => unreachable!(),
        };
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut old_out = aggregate_bag(&base, &[0], &aggs).unwrap();
        if base.is_empty() {
            old_out = Bag::new();
        }
        let make = || -> BagAccess {
            if materialized {
                BagAccess::materialized(vec![base.clone()], old_out.clone())
            } else {
                BagAccess::new(vec![base.clone()])
            }
        };
        let mut per_key = make();
        let mut batched = Partitioned(make());
        let d_pk = propagate(&node, 0, &delta, &mut per_key).unwrap();
        let d_b = propagate(&node, 0, &delta, &mut batched).unwrap();
        prop_assert_eq!(canon(d_pk.clone()), canon(d_b));
        prop_assert_eq!(per_key.queries_posed, batched.0.queries_posed);

        let mut new_base = base.clone();
        delta.apply_to(&mut new_base).unwrap();
        let expect = if new_base.is_empty() {
            Bag::new()
        } else {
            aggregate_bag(&new_base, &[0], &aggs).unwrap()
        };
        d_pk.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn batched_distinct_matches_per_key(rows in rows_strategy(), ops in ops_strategy()) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::distinct(l).unwrap();
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut per_key = BagAccess::new(vec![base.clone()]);
        let mut batched = Partitioned(BagAccess::new(vec![base.clone()]));
        let d_pk = propagate(&node, 0, &delta, &mut per_key).unwrap();
        let d_b = propagate(&node, 0, &delta, &mut batched).unwrap();
        prop_assert_eq!(canon(d_pk), canon(d_b));
        prop_assert_eq!(per_key.queries_posed, batched.0.queries_posed);
    }

    /// Two-level tree: the join's output delta feeds an aggregate over the
    /// join. Both stages must agree between modes, and the composed result
    /// must match recomputing the whole tree over updated inputs.
    #[test]
    fn batched_tree_join_then_aggregate(
        lrows in rows_strategy(),
        rrows in rows_strategy(),
        ops in ops_strategy(),
        side in 0usize..2,
    ) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let r = ExprNode::scan(&cat, "R").unwrap();
        let join = ExprNode::join_on(l, r, &[("L.k", "R.k")]).unwrap();
        let cond = JoinCondition::on(vec![(0, 0)]);
        let agg = ExprNode::aggregate(
            join.clone(),
            vec![0],
            vec![
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
                AggExpr::count_star("n"),
            ],
        )
        .unwrap();
        let aggs = match &agg.op {
            spacetime_algebra::OpKind::Aggregate { aggs, .. } => aggs.clone(),
            _ => unreachable!(),
        };
        let lbase = bag_from(&lrows);
        let rbase = bag_from(&rrows);
        let delta = delta_from(if side == 0 { &lbase } else { &rbase }, &ops);
        let old_join = join_bags(&lbase, &rbase, &cond).unwrap();
        let mut old_out = if old_join.is_empty() {
            Bag::new()
        } else {
            aggregate_bag(&old_join, &[0], &aggs).unwrap()
        };

        // Stage 1: through the join, both modes.
        let mut per_key = BagAccess::new(vec![lbase.clone(), rbase.clone()]);
        let mut batched = Partitioned(BagAccess::new(vec![lbase.clone(), rbase.clone()]));
        let dj = propagate(&join, side, &delta, &mut per_key).unwrap();
        let dj_b = propagate(&join, side, &delta, &mut batched).unwrap();
        prop_assert_eq!(canon(dj.clone()), canon(dj_b));

        // Stage 2: the same join delta through the aggregate, both modes.
        let mut per_key = BagAccess::materialized(vec![old_join.clone()], old_out.clone());
        let mut batched =
            Partitioned(BagAccess::materialized(vec![old_join.clone()], old_out.clone()));
        let da = propagate(&agg, 0, &dj, &mut per_key).unwrap();
        let da_b = propagate(&agg, 0, &dj, &mut batched).unwrap();
        prop_assert_eq!(canon(da.clone()), canon(da_b));
        prop_assert_eq!(per_key.queries_posed, batched.0.queries_posed);

        // Oracle for the whole tree.
        let (mut nl, mut nr) = (lbase.clone(), rbase.clone());
        if side == 0 {
            delta.apply_to(&mut nl).unwrap();
        } else {
            delta.apply_to(&mut nr).unwrap();
        }
        let new_join = join_bags(&nl, &nr, &cond).unwrap();
        let expect = if new_join.is_empty() {
            Bag::new()
        } else {
            aggregate_bag(&new_join, &[0], &aggs).unwrap()
        };
        da.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }

    #[test]
    fn distinct_rule_exact(rows in rows_strategy(), ops in ops_strategy()) {
        let cat = catalog();
        let l = ExprNode::scan(&cat, "L").unwrap();
        let node = ExprNode::distinct(l).unwrap();
        let base = bag_from(&rows);
        let delta = delta_from(&base, &ops);
        let mut access = BagAccess::new(vec![base.clone()]);
        let d_out = propagate(&node, 0, &delta, &mut access).unwrap();
        let dedupe = |b: &Bag| -> Bag { b.iter().map(|(t, _)| (t.clone(), 1)).collect() };
        let mut old_out = dedupe(&base);
        let mut new_base = base.clone();
        delta.apply_to(&mut new_base).unwrap();
        let expect = dedupe(&new_base);
        d_out.apply_to(&mut old_out).unwrap();
        prop_assert_eq!(old_out, expect);
    }
}
