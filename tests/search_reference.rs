//! The view-set search against a brute force written from the paper alone.
//!
//! The reference follows Definitions 3.1–3.3 and Figure 4 and nothing
//! else: every subset of the candidates (every mask), each priced on its
//! own by `evaluate_view_set` — a fresh track catalog per set, no shared
//! cache, no bound, no budget — with a track cap high enough that no
//! enumeration is truncated. The search walks the lattice, bounds
//! families of supersets by their maintenance floor and shares its caches
//! across workers; it must return the reference's answer bit for bit.
//!
//! The walk's family pruning rests on one premise, checked here too:
//! adding a view never lowers a set's maintenance floor.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use spacetime::algebra::{AggExpr, AggFunc, ExprNode, JoinCondition, ScalarExpr};
use spacetime::cost::{CostCtx, PageIoCostModel, TransactionType};
use spacetime::memo::{explore, GroupId, Memo};
use spacetime::optimizer::{
    candidate_groups, evaluate_view_set, maintenance_costs, maintenance_floor, optimal_view_set,
    EvalConfig, TrackCatalog, ViewSet, ViewSetEvaluation,
};
use spacetime::storage::{Catalog, DataType, Schema, TableStats};
use spacetime_bench::scenarios::scaling_workload;

/// No enumeration of these small DAGs comes near it.
const NO_CAP: usize = 1 << 16;

/// A generated view over tables `R1…Rn` (`n` in 2..=4): a chain
/// `R1.x1 = R2.a2, R2.x2 = R3.a3, …` or a star `R1.x1 = Ri.ai`, with or
/// without `SUM(·) GROUP BY a1` on top; one modify transaction per table,
/// weighted `weights[i]`.
struct Generated {
    catalog: Catalog,
    memo: Memo,
    root: GroupId,
    txns: Vec<TransactionType>,
}

fn generate(n: usize, star: bool, aggregate: bool, weights: &[f64]) -> Generated {
    let mut catalog = Catalog::new();
    for i in 1..=n {
        let name = format!("R{i}");
        let (a, x) = (format!("a{i}"), format!("x{i}"));
        catalog
            .create_table(
                &name,
                Schema::of_table(&name, &[(a.as_str(), DataType::Int), (x.as_str(), DataType::Int)]),
            )
            .unwrap();
        catalog.declare_key(&name, &[a.as_str()]).unwrap();
        catalog.create_index(&name, &[x.as_str()]).unwrap();
        catalog.table_mut(&name).unwrap().stats =
            TableStats::declared(1_000 * i as u64, [(0, 1_000 * i as u64), (1, 100 * i as u64)]);
    }
    let mut tree = ExprNode::scan(&catalog, "R1").unwrap();
    for i in 2..=n {
        let next = ExprNode::scan(&catalog, &format!("R{i}")).unwrap();
        let from = if star { 1 } else { i - 1 };
        let left = tree.schema.resolve_dotted(&format!("x{from}")).unwrap();
        tree = ExprNode::join(tree, next, JoinCondition::on(vec![(left, 0)])).unwrap();
    }
    if aggregate {
        tree = ExprNode::aggregate(
            tree,
            vec![0],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "S")],
        )
        .unwrap();
    }
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).unwrap();
    let root = memo.find(root);
    let txns = (1..=n)
        .map(|i| {
            TransactionType::modify(format!(">R{i}"), format!("R{i}"), 1.0)
                .with_weight(weights[i - 1])
        })
        .collect();
    Generated {
        catalog,
        memo,
        root,
        txns,
    }
}

/// Figure 4 by brute force: every mask, each set priced alone (odd and
/// even masks on two threads, to keep the test quick). Returns every
/// evaluation, best first (weighted cost, then size, then the set).
fn reference(g: &Generated, candidates: &[GroupId]) -> Vec<ViewSetEvaluation> {
    let model = PageIoCostModel::default();
    let config = EvalConfig {
        max_tracks: NO_CAP,
        ..EvalConfig::default()
    };
    let price = |mask: u32| {
        let mut set = ViewSet::from([g.root]);
        for (i, &c) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                set.insert(c);
            }
        }
        let mut ctx = CostCtx::new(&g.memo, &g.catalog, &model);
        let eval = evaluate_view_set(&mut ctx, &g.catalog, &[g.root], &set, &g.txns, &config);
        assert_eq!(eval.tracks_truncated, 0, "{set:?}");
        eval
    };
    let masks = 1u32 << candidates.len();
    let mut all: Vec<ViewSetEvaluation> = std::thread::scope(|scope| {
        let odd = scope.spawn(|| (1..masks).step_by(2).map(price).collect::<Vec<_>>());
        let mut even: Vec<_> = (0..masks).step_by(2).map(price).collect();
        even.extend(odd.join().expect("odd masks"));
        even
    });
    all.sort_by(|a, b| {
        a.weighted
            .total_cmp(&b.weighted)
            .then_with(|| a.view_set.len().cmp(&b.view_set.len()))
            .then_with(|| a.view_set.cmp(&b.view_set))
    });
    all
}

#[test]
fn the_search_returns_the_brute_force_answer() {
    const TOP_K: usize = 4;
    let model = PageIoCostModel::default();
    let mut rng = StdRng::seed_from_u64(3_701);
    let mut checked = 0;
    for n in 2..=4 {
        for star in [false, true] {
            for aggregate in [false, true] {
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1..9) as f64).collect();
                let g = generate(n, star, aggregate, &weights);
                let candidates = candidate_groups(&g.memo, g.root);
                if candidates.len() > 10 {
                    continue;
                }
                let what = format!("n={n} star={star} agg={aggregate} weights={weights:?}");
                let expected = reference(&g, &candidates);
                for parallelism in [1, 2] {
                    let config = EvalConfig {
                        max_tracks: NO_CAP,
                        top_k: TOP_K,
                        parallelism,
                        ..EvalConfig::default()
                    };
                    let out =
                        optimal_view_set(&g.memo, &g.catalog, &model, &[g.root], &g.txns, &config);
                    assert!(out.exact, "{what}");
                    assert_eq!(out.sets_considered, 1 << candidates.len(), "{what}");
                    assert_eq!(out.best.view_set, expected[0].view_set, "{what}");
                    assert_eq!(
                        out.best.weighted.to_bits(),
                        expected[0].weighted.to_bits(),
                        "{what}"
                    );
                    // The retained tail is the reference's, once each.
                    let want = &expected[..TOP_K.min(expected.len())];
                    assert_eq!(out.evaluated.len(), want.len(), "{what}");
                    for (got, want) in out.evaluated.iter().zip(want) {
                        assert_eq!(got.view_set, want.view_set, "{what}");
                        assert_eq!(got.weighted.to_bits(), want.weighted.to_bits(), "{what}");
                    }
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "only {checked} generated views within 10 candidates");
}

/// A scenario built once for the premise property: the scaling scenario.
fn scaling() -> &'static spacetime_bench::scenarios::PaperScenario {
    static S: std::sync::OnceLock<spacetime_bench::scenarios::PaperScenario> =
        std::sync::OnceLock::new();
    S.get_or_init(scaling_workload)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Adding views never lowers the maintenance floor, bit for bit: each
    /// `m_j` is a sum of non-negative apply costs in set order, and float
    /// addition of a non-negative term never rounds below either operand.
    #[test]
    fn a_superset_never_has_a_lower_floor(
        subset in prop::collection::vec(any::<bool>(), 28),
        extra in prop::collection::vec(any::<bool>(), 28),
    ) {
        let s = scaling();
        let candidates = candidate_groups(&s.memo, s.root);
        let config = EvalConfig::default();
        let tcat = TrackCatalog::new(&s.memo, &s.catalog, &[s.root], &s.txns, config.max_tracks);
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        let pick = |mask: &dyn Fn(usize) -> bool| -> ViewSet {
            std::iter::once(s.root)
                .chain(candidates.iter().enumerate().filter(|&(i, _)| mask(i)).map(|(_, &g)| g))
                .collect()
        };
        let small = pick(&|i| subset[i]);
        let large = pick(&|i| subset[i] || extra[i]);
        let mut floor = |set: &ViewSet| {
            maintenance_floor(&s.txns, &maintenance_costs(&mut ctx, &tcat, set))
        };
        let (lo, hi) = (floor(&small), floor(&large));
        prop_assert!(hi >= lo, "{hi} below {lo}: {small:?} ⊆ {large:?}");
    }
}
