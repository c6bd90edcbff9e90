//! Property-based checks on the cost layer: Theorem 3.1's precondition is
//! a *monotonic* cost model, so the model's primitives must be
//! non-negative, composition must be additive, and adding materialized
//! views must never make a query more expensive (the optimizer only uses
//! marked nodes when they help).

use proptest::prelude::*;
use std::collections::BTreeSet;

use spacetime::cost::{BatchQuery, Cost, CostCtx, CostModel, Marking, PageIoCostModel, UpdateKind};
use spacetime::memo::GroupId;
use spacetime::optimizer::{optimal_view_set, EvalConfig};
use spacetime_bench::scenarios::{join_chain, problem_dept, scaling_workload};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Primitive costs are non-negative and monotone in their size inputs.
    #[test]
    fn model_primitives_monotone(t1 in 0.0f64..1e7, t2 in 0.0f64..1e7) {
        let m = PageIoCostModel::default();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(m.lookup(lo) <= m.lookup(hi));
        prop_assert!(m.scan(lo) <= m.scan(hi));
        for kind in [UpdateKind::Insert, UpdateKind::Delete, UpdateKind::Modify] {
            prop_assert!(m.apply_update(kind, lo) <= m.apply_update(kind, hi));
            prop_assert!(m.apply_update(kind, lo) >= Cost::ZERO);
        }
    }

    /// Query costs are finite and non-negative for every (group, single
    /// binding column) pair of the paper DAG, under random markings; and
    /// marking MORE nodes never increases any query's cost.
    #[test]
    fn marking_more_never_hurts(mask in 0u32..256) {
        let s = problem_dept();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        let groups: Vec<_> = s.memo.groups().collect();
        let marked: Marking = groups
            .iter()
            .enumerate()
            .filter(|(i, g)| mask & (1 << (i % 8)) != 0 && !s.memo.is_leaf(**g))
            .map(|(_, &g)| s.memo.find(g))
            .collect();
        let empty = Marking::new();
        for &g in &groups {
            let arity = s.memo.schema(g).arity();
            for col in 0..arity.min(3) {
                let with = ctx.query_cost(g, &[col], &marked);
                let without = ctx.query_cost(g, &[col], &empty);
                prop_assert!(with.value() >= 0.0);
                prop_assert!(without.is_finite());
                prop_assert!(
                    with <= without,
                    "marking increased cost at {g} col {col}: {with} > {without}"
                );
            }
        }
    }

    /// Estimates are sane on random chains: cardinalities non-negative,
    /// distinct counts within [1, card] (for non-empty), delta sizes
    /// bounded by join fanout products.
    #[test]
    fn estimates_are_sane(n in 2usize..4) {
        let s = join_chain(n);
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        for g in s.memo.groups() {
            let card = ctx.card(g);
            prop_assert!(card >= 0.0 && card.is_finite());
            for col in 0..s.memo.schema(g).arity() {
                let d = ctx.distinct(g, col);
                prop_assert!(d >= 1.0);
                prop_assert!(d <= card.max(1.0) + 1e-9, "distinct {d} > card {card}");
            }
            for txn in &s.txns {
                for u in &txn.updates {
                    let delta = ctx.delta_for(g, u);
                    prop_assert!(delta.size >= 0.0 && delta.size.is_finite());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Adding a query to a batch never lowers the batch's cost, under any
    /// marking: a repeated query is charged once at its largest probe
    /// count and every query cost is non-negative. Pricing an update
    /// track's query set as one batch relies on it.
    #[test]
    fn adding_a_query_never_lowers_a_batch_cost(
        scaling in any::<bool>(),
        mask in any::<u64>(),
        picks in proptest::collection::vec((any::<usize>(), 0u8..8, 0.0f64..64.0), 1..10),
    ) {
        let s = if scaling { scaling_workload() } else { problem_dept() };
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        let groups: Vec<GroupId> = s.memo.groups().collect();
        let marked: Marking = groups
            .iter()
            .enumerate()
            .filter(|&(i, g)| mask >> (i % 64) & 1 == 1 && !s.memo.is_leaf(*g))
            .map(|(_, &g)| s.memo.find(g))
            .collect();
        // Each pick: a group, a subset of its first three columns (empty:
        // a full evaluation) and a probe count.
        let queries: Vec<(GroupId, Vec<usize>, f64)> = picks
            .iter()
            .map(|(at, cols, probes)| {
                let g = groups[at % groups.len()];
                let arity = s.memo.schema(g).arity().min(3);
                let cols = (0..arity).filter(|i| cols >> i & 1 == 1).collect();
                (g, cols, *probes)
            })
            .collect();
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .map(|(group, cols, probes)| BatchQuery { group: *group, cols, probes: *probes })
            .collect();
        let mut before = ctx.batch_query_cost(&[], &marked);
        prop_assert_eq!(before, Cost::ZERO);
        for n in 1..=batch.len() {
            let after = ctx.batch_query_cost(&batch[..n], &marked);
            prop_assert!(
                after >= before,
                "adding {:?} lowered the batch cost: {} < {}",
                batch[n - 1],
                after,
                before
            );
            before = after;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Branch-and-bound pruning never changes the outcome: for any top-K
    /// size and worker count, the pruned search returns the same winner
    /// (bit-identical weighted cost) and the same retained top-K as the
    /// unpruned search. Sound because the per-transaction partial sums
    /// are monotone: once Σ wᵢ·cᵢ over a prefix exceeds the K-th best
    /// weighted total, the full total can only be larger.
    #[test]
    fn pruning_never_changes_the_winner(
        top_k in 1usize..9,
        parallelism in 1usize..5,
        which in 0usize..2,
    ) {
        let s = if which == 0 { problem_dept() } else { join_chain(3) };
        let model = PageIoCostModel::default();
        let base = EvalConfig {
            top_k,
            parallelism,
            max_tracks: 256,
            prune: false,
        };
        let unpruned = optimal_view_set(&s.memo, &s.catalog, &model, &[s.root], &s.txns, &base);
        let pruned = optimal_view_set(
            &s.memo,
            &s.catalog,
            &model,
            &[s.root],
            &s.txns,
            &EvalConfig { prune: true, ..base },
        );
        prop_assert_eq!(&pruned.best.view_set, &unpruned.best.view_set);
        prop_assert_eq!(
            pruned.best.weighted.to_bits(),
            unpruned.best.weighted.to_bits()
        );
        prop_assert_eq!(pruned.sets_considered, unpruned.sets_considered);
        prop_assert_eq!(pruned.evaluated.len(), unpruned.evaluated.len());
        for (p, u) in pruned.evaluated.iter().zip(&unpruned.evaluated) {
            prop_assert_eq!(&p.view_set, &u.view_set);
            prop_assert_eq!(p.weighted.to_bits(), u.weighted.to_bits());
        }
    }
}

/// The §3.4 monotonicity statement itself: the cost of evaluating a tree
/// is at least the cost of evaluating any subtree (full-evaluation costs
/// are additive over children).
#[test]
fn full_eval_cost_dominates_subtrees() {
    let s = problem_dept();
    let model = PageIoCostModel::default();
    let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
    let empty = Marking::new();
    let mut checked = 0;
    let groups: BTreeSet<_> = s.memo.groups().collect();
    for &g in &groups {
        let parent_cost = ctx.full_eval_cost(g, &empty);
        for op in s.memo.group_ops(g) {
            for child in s.memo.op_children(op) {
                // Only ops that realize the parent's minimum are bounded
                // individually, but every child's cost is a lower bound on
                // *some* alternative; the safe universal check:
                let child_cost = ctx.full_eval_cost(child, &empty);
                if s.memo.group_ops(g).len() == 1 {
                    assert!(
                        parent_cost >= child_cost,
                        "single-alternative parent cheaper than child"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "at least one single-alternative node checked");
}
