//! Column-equivalence analysis.
//!
//! Equi-join conditions and `col = col` selections make output columns
//! provably equal (`Emp.DName = Dept.DName` means the two columns carry
//! the same value in every output tuple). Rewrite rules use this: the
//! eager-aggregation rule's "grouping determines the join key" condition
//! holds as soon as a join column is *equivalent* to a grouping column,
//! not only when it syntactically is one — which is exactly what the
//! paper's Example 3.1 (the three-way `ADeptsStatus` join) requires.

use crate::ops::OpKind;
use crate::scalar::{CmpOp, ScalarExpr};
use crate::tree::ExprNode;

/// Union-find over output columns: `classes[i]` is column `i`'s class
/// representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColClasses {
    parent: Vec<usize>,
}

impl ColClasses {
    fn fresh(n: usize) -> Self {
        ColClasses {
            parent: (0..n).collect(),
        }
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[drop] = keep;
        }
    }

    /// Whether two columns are provably equal.
    pub fn same(&self, a: usize, b: usize) -> bool {
        a < self.parent.len() && b < self.parent.len() && self.find(a) == self.find(b)
    }

    /// Whether `col` is equivalent to *some* column of `set`.
    pub fn intersects(&self, col: usize, set: &[usize]) -> bool {
        set.iter().any(|&s| self.same(col, s))
    }
}

/// Derive the provable column equivalences of a tree's output.
pub fn column_equivalences(node: &ExprNode) -> ColClasses {
    match &node.op {
        OpKind::Scan { .. } => ColClasses::fresh(node.schema.arity()),
        OpKind::Select { predicate } => {
            let mut classes = column_equivalences(&node.children[0]);
            apply_predicate(&mut classes, predicate);
            classes
        }
        OpKind::Distinct => column_equivalences(&node.children[0]),
        OpKind::Project { exprs } => {
            let child = column_equivalences(&node.children[0]);
            let mut classes = ColClasses::fresh(exprs.len());
            for i in 0..exprs.len() {
                for j in (i + 1)..exprs.len() {
                    match (&exprs[i].0, &exprs[j].0) {
                        (ScalarExpr::Col(a), ScalarExpr::Col(b)) if child.same(*a, *b) => {
                            classes.union(i, j);
                        }
                        // Identical computed expressions are also equal.
                        (ea, eb) if ea == eb => classes.union(i, j),
                        _ => {}
                    }
                }
            }
            classes
        }
        OpKind::Join { condition } => {
            let left = column_equivalences(&node.children[0]);
            let right = column_equivalences(&node.children[1]);
            let la = node.children[0].schema.arity();
            let n = node.schema.arity();
            let mut classes = ColClasses::fresh(n);
            for i in 0..la {
                for j in (i + 1)..la {
                    if left.same(i, j) {
                        classes.union(i, j);
                    }
                }
            }
            for i in 0..(n - la) {
                for j in (i + 1)..(n - la) {
                    if right.same(i, j) {
                        classes.union(la + i, la + j);
                    }
                }
            }
            for &(l, r) in &condition.equi {
                classes.union(l, r + la);
            }
            if let Some(res) = &condition.residual {
                apply_predicate(&mut classes, res);
            }
            classes
        }
        OpKind::Aggregate { group_by, .. } => {
            let child = column_equivalences(&node.children[0]);
            let mut classes = ColClasses::fresh(node.schema.arity());
            for i in 0..group_by.len() {
                for j in (i + 1)..group_by.len() {
                    if child.same(group_by[i], group_by[j]) {
                        classes.union(i, j);
                    }
                }
            }
            classes
        }
    }
}

fn apply_predicate(classes: &mut ColClasses, predicate: &ScalarExpr) {
    match predicate {
        ScalarExpr::And(parts) => {
            for p in parts {
                apply_predicate(classes, p);
            }
        }
        ScalarExpr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } => {
            if let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (&**left, &**right) {
                classes.union(*a, *b);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JoinCondition;
    use crate::tree::ExprNode;
    use spacetime_storage::{Catalog, DataType, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.create_table(
                name,
                Schema::of_table(name, &[("k", DataType::Int), ("v", DataType::Int)]),
            )
            .unwrap();
        }
        cat
    }

    #[test]
    fn join_equates_its_columns() {
        let cat = catalog();
        let a = ExprNode::scan(&cat, "A").unwrap();
        let b = ExprNode::scan(&cat, "B").unwrap();
        let j = ExprNode::join(a, b, JoinCondition::on(vec![(0, 0)])).unwrap();
        let c = column_equivalences(&j);
        assert!(c.same(0, 2), "A.k ≡ B.k");
        assert!(!c.same(1, 3));
    }

    #[test]
    fn equivalence_chains_through_nested_joins() {
        // (A ⋈ B on k) ⋈ C on A.k = C.k: then B.k ≡ C.k transitively.
        let cat = catalog();
        let a = ExprNode::scan(&cat, "A").unwrap();
        let b = ExprNode::scan(&cat, "B").unwrap();
        let c = ExprNode::scan(&cat, "C").unwrap();
        let ab = ExprNode::join(a, b, JoinCondition::on(vec![(0, 0)])).unwrap();
        let abc = ExprNode::join(ab, c, JoinCondition::on(vec![(0, 0)])).unwrap();
        let cls = column_equivalences(&abc);
        assert!(cls.same(2, 4), "B.k ≡ C.k via A.k");
        assert!(cls.intersects(4, &[0, 2]));
    }

    #[test]
    fn select_equality_counts() {
        let cat = catalog();
        let a = ExprNode::scan(&cat, "A").unwrap();
        let s = ExprNode::select(a, ScalarExpr::col_eq_col(0, 1)).unwrap();
        let c = column_equivalences(&s);
        assert!(c.same(0, 1));
    }

    #[test]
    fn aggregate_restricts_to_group_columns() {
        let cat = catalog();
        let a = ExprNode::scan(&cat, "A").unwrap();
        let b = ExprNode::scan(&cat, "B").unwrap();
        let j = ExprNode::join(a, b, JoinCondition::on(vec![(0, 0)])).unwrap();
        let agg =
            ExprNode::aggregate(j, vec![0, 2], vec![crate::ops::AggExpr::count_star("n")]).unwrap();
        let c = column_equivalences(&agg);
        assert!(c.same(0, 1), "both group cols were the equated join cols");
        assert!(!c.same(0, 2), "the COUNT output is not equivalent");
    }

    #[test]
    fn projection_maps_classes() {
        let cat = catalog();
        let a = ExprNode::scan(&cat, "A").unwrap();
        let b = ExprNode::scan(&cat, "B").unwrap();
        let j = ExprNode::join(a, b, JoinCondition::on(vec![(0, 0)])).unwrap();
        let p = ExprNode::project_cols(j, &[2, 0, 1]).unwrap();
        let c = column_equivalences(&p);
        assert!(c.same(0, 1), "B.k ≡ A.k survives reordering");
        assert!(!c.same(0, 2));
    }
}
