//! Property-based invariants of the expression DAG:
//!
//! * every tree extracted from an explored memo evaluates to the same bag
//!   (rules preserve semantics);
//! * hash-consing never duplicates `(operator, children)`;
//! * tree counting is consistent with extraction;
//! * articulation nodes agree with brute-force node-removal.

use proptest::prelude::*;
use std::collections::BTreeSet;

use spacetime::algebra::eval_uncharged;
use spacetime::algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ExprTree, ScalarExpr};
use spacetime::memo::{articulation_groups, descendant_groups, explore, Memo};
use spacetime::storage::{tuple, Catalog, DataType, IoMeter, Schema};

/// A small random database over tables A, B, C with shared key domains.
fn catalog_with_data(rows: &[Vec<(i64, i64)>; 3], keyed: [bool; 3]) -> Catalog {
    let mut cat = Catalog::new();
    let mut io = IoMeter::new();
    for (i, name) in ["A", "B", "C"].iter().enumerate() {
        let name = *name;
        cat.create_table(
            name,
            Schema::of_table(name, &[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .unwrap();
        cat.create_index(name, &["k"]).unwrap();
        let mut seen_keys = BTreeSet::new();
        for &(k, v) in &rows[i] {
            // When the table must be keyed on k, keep only one row per key.
            if keyed[i] && !seen_keys.insert(k) {
                continue;
            }
            cat.table_mut(name)
                .unwrap()
                .relation
                .insert(tuple![k, v], 1, &mut io)
                .unwrap();
        }
        if keyed[i] {
            cat.declare_key(name, &["k"]).unwrap();
        }
        cat.table_mut(name).unwrap().analyze();
    }
    cat
}

/// Random view shapes over the three tables.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain2,
    Chain3,
    SelectJoin,
    AggJoin,
    /// `SUM(B.v)` grouped by `A.k`: the aggregate may only be pushed into
    /// the right input when the join columns of the left one hold a key.
    AggJoinRight,
    SelectAggJoin,
}

fn build(cat: &Catalog, shape: Shape) -> ExprTree {
    let a = ExprNode::scan(cat, "A").unwrap();
    let b = ExprNode::scan(cat, "B").unwrap();
    let c = ExprNode::scan(cat, "C").unwrap();
    let ab = ExprNode::join_on(a.clone(), b.clone(), &[("A.k", "B.k")]).unwrap();
    match shape {
        Shape::Chain2 => ab,
        Shape::Chain3 => ExprNode::join_on(ab, c, &[("A.k", "C.k")]).unwrap(),
        Shape::SelectJoin => ExprNode::select(
            ab,
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(10)),
        )
        .unwrap(),
        Shape::AggJoin => ExprNode::aggregate(
            ab,
            vec![0],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s")],
        )
        .unwrap(),
        Shape::AggJoinRight => ExprNode::aggregate(
            ab,
            vec![0],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(3), "s")],
        )
        .unwrap(),
        Shape::SelectAggJoin => {
            let agg = ExprNode::aggregate(
                ab,
                vec![0],
                vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s")],
            )
            .unwrap();
            ExprNode::select(
                agg,
                ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(1), ScalarExpr::lit(5)),
            )
            .unwrap()
        }
    }
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..5, 0i64..30), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn all_extracted_trees_evaluate_equal(
        rows_a in rows_strategy(),
        rows_b in rows_strategy(),
        rows_c in rows_strategy(),
        keyed_a in any::<bool>(),
        keyed_b in any::<bool>(),
        shape in prop_oneof![
            Just(Shape::Chain2), Just(Shape::Chain3), Just(Shape::SelectJoin),
            Just(Shape::AggJoin), Just(Shape::AggJoinRight), Just(Shape::SelectAggJoin)
        ],
    ) {
        let cat = catalog_with_data(&[rows_a, rows_b, rows_c], [keyed_a, keyed_b, false]);
        let tree = build(&cat, shape);
        let reference = eval_uncharged(&tree, &cat).unwrap();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree);
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let trees = memo.extract_trees(memo.find(root), 40);
        prop_assert!(!trees.is_empty());
        for t in &trees {
            let got = eval_uncharged(t, &cat).unwrap();
            prop_assert_eq!(&got, &reference, "tree differs:\n{}", t.render());
        }
    }

    #[test]
    fn memo_structural_invariants(
        shape in prop_oneof![
            Just(Shape::Chain2), Just(Shape::Chain3), Just(Shape::SelectJoin),
            Just(Shape::AggJoin), Just(Shape::AggJoinRight), Just(Shape::SelectAggJoin)
        ],
        keyed_b in any::<bool>(),
    ) {
        let cat = catalog_with_data(&[vec![], vec![], vec![]], [false, keyed_b, true]);
        let tree = build(&cat, shape);
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree);
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);

        // No two live ops share (operator, canonical children).
        let mut seen = BTreeSet::new();
        for op in memo.all_op_ids() {
            if !memo.op(op).alive {
                continue;
            }
            let key = (format!("{:?}", memo.op(op).op), memo.op_children(op));
            prop_assert!(seen.insert(key), "duplicate live operation node");
        }

        // Tree count ≥ extracted tree count at a small limit; extraction
        // never repeats a tree.
        let count = memo.count_trees(root);
        let trees = memo.extract_trees(root, 32);
        prop_assert!(count as usize >= trees.len().min(32));
        let rendered: BTreeSet<String> = trees.iter().map(|t| t.render()).collect();
        prop_assert_eq!(rendered.len(), trees.len(), "duplicate extracted trees");

        // Articulation nodes vs brute-force group-connectivity check.
        let arts = articulation_groups(&memo, root);
        let scope = descendant_groups(&memo, root);
        for &g in &scope {
            if g == root {
                continue;
            }
            let connected = {
                let mut seen = BTreeSet::new();
                let mut stack = vec![root];
                while let Some(cur) = stack.pop() {
                    if cur == g || !seen.insert(cur) {
                        continue;
                    }
                    for op in memo.group_ops(cur) {
                        for ch in memo.op_children(op) {
                            stack.push(ch);
                        }
                    }
                    for &other in &scope {
                        if other == g {
                            continue;
                        }
                        for op in memo.group_ops(other) {
                            if memo.op_children(op).contains(&cur) {
                                stack.push(other);
                            }
                        }
                    }
                }
                scope.iter().filter(|&&x| x != g).all(|x| seen.contains(x))
            };
            prop_assert_eq!(!connected, arts.contains(&g), "articulation mismatch at {}", g);
        }
    }
}
