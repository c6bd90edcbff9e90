//! Equivalence rules.
//!
//! Rules take one operation node and produce equivalent expressions over
//! existing groups; inserting a produced expression into the node's group
//! is what records the equivalence (and may merge groups). The paper is
//! deliberately rule-set-agnostic — *"our results are independent of the
//! actual set of equivalence rules used, though a larger set of rules would
//! obviously allow us to explore a larger search space"* (§3.1, fn. 2) —
//! so the set here is the one its figures need plus the standard SPJ
//! repertoire:
//!
//! * [`JoinCommute`] — `A ⋈ B ⇒ π(B ⋈ A)` (with a column-order-restoring
//!   projection, since equivalence is bag equality).
//! * [`JoinAssoc`] — `(A ⋈ B) ⋈ C ⇔ A ⋈ (B ⋈ C)` (both directions).
//! * [`SelectPushJoin`] — push a selection to the join side it references,
//!   or fold it into the join's residual predicate.
//! * [`SelectPullResidual`] — hoist a join residual into a selection.
//! * [`SelectMerge`] — `σ_{p1}(σ_{p2}(X)) ⇒ σ_{p1∧p2}(X)`.
//! * [`ProjectMerge`] — compose stacked projections.
//! * [`ProjectIdentity`] — an identity projection *is* its child (group
//!   merge).
//! * [`EagerAggregation`] — the Yan–Larson \[19\] rewrite that relates the
//!   two trees of the paper's Figure 1: push grouping/aggregation below a
//!   join when the other side is joined on a key. (The paper: "One can be
//!   generated from the other by using equivalence rules such as those
//!   proposed by Yan and Larson.")
//! * [`LazyAggregation`] — the inverse direction: pull grouping above a
//!   key-join, so exploration reaches the same DAG regardless of which of
//!   the two Figure-1 forms the user wrote.

use spacetime_algebra::{
    cols_contain_key, column_equivalences, derive_keys, derive_schema, AggExpr,
    AlgebraResult as StorageResult, ExprNode, JoinCondition, Key, OpKind, ScalarExpr,
};
use spacetime_storage::{Catalog, Schema};

use crate::memo::{GroupId, Memo, OpId};

/// An expression produced by a rule: operators over existing groups.
#[derive(Debug, Clone)]
pub enum NewExpr {
    /// A fresh operator with sub-expressions.
    Op {
        /// The operator.
        op: OpKind,
        /// Children.
        children: Vec<NewExpr>,
    },
    /// Reference to an existing group.
    Group(GroupId),
}

impl NewExpr {
    /// Convenience constructor.
    pub fn op(op: OpKind, children: Vec<NewExpr>) -> Self {
        NewExpr::Op { op, children }
    }
}

/// Insert a rule-produced expression, asserting it equivalent to `target`.
/// Returns the canonical target group.
pub fn insert_new_expr(memo: &mut Memo, expr: &NewExpr, target: GroupId) -> StorageResult<GroupId> {
    match expr {
        NewExpr::Group(g) => {
            // The target group *is* this group: merge.
            let g = memo.find(*g);
            let target = memo.find(target);
            if g != target {
                memo.merge(target, g);
            }
            Ok(memo.find(target))
        }
        NewExpr::Op { op, children } => {
            let child_groups: Vec<GroupId> = children
                .iter()
                .map(|c| insert_sub_expr(memo, c))
                .collect::<StorageResult<_>>()?;
            let schema = new_op_schema(memo, op, &child_groups)?;
            Ok(memo.insert_op(op.clone(), child_groups, Some(target), schema))
        }
    }
}

fn insert_sub_expr(memo: &mut Memo, expr: &NewExpr) -> StorageResult<GroupId> {
    match expr {
        NewExpr::Group(g) => Ok(memo.find(*g)),
        NewExpr::Op { op, children } => {
            let child_groups: Vec<GroupId> = children
                .iter()
                .map(|c| insert_sub_expr(memo, c))
                .collect::<StorageResult<_>>()?;
            let schema = new_op_schema(memo, op, &child_groups)?;
            Ok(memo.insert_op(op.clone(), child_groups, None, schema))
        }
    }
}

fn new_op_schema(memo: &Memo, op: &OpKind, children: &[GroupId]) -> StorageResult<Schema> {
    let schemas: Vec<&Schema> = children.iter().map(|&c| memo.schema(c)).collect();
    derive_schema(op, &schemas)
}

/// One equivalence rule.
pub trait Rule {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Equivalent expressions for the given operation node (to be inserted
    /// into its group).
    fn apply(&self, memo: &Memo, op: OpId, catalog: &Catalog) -> Vec<NewExpr>;
}

/// A set of rules.
pub type RuleSet = Vec<Box<dyn Rule>>;

/// The standard rule set (everything this module defines).
pub fn default_rules() -> RuleSet {
    vec![
        Box::new(JoinCommute),
        Box::new(JoinAssoc),
        Box::new(SelectPushJoin),
        Box::new(SelectPullResidual),
        Box::new(SelectMerge),
        Box::new(ProjectMerge),
        Box::new(ProjectIdentity),
        Box::new(EagerAggregation),
        Box::new(LazyAggregation),
    ]
}

/// Keys of a group's output, derived from one representative tree.
fn group_keys(memo: &Memo, g: GroupId, catalog: &Catalog) -> Vec<Key> {
    derive_keys(&memo.extract_one(g), catalog)
}

// ---------------------------------------------------------------------
// Join commutativity
// ---------------------------------------------------------------------

/// `A ⋈_c B ⇒ π_{A,B}(B ⋈_{c'} A)`.
pub struct JoinCommute;

impl Rule for JoinCommute {
    fn name(&self) -> &'static str {
        "join-commute"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Join { condition } = &node.op else {
            return vec![];
        };
        let [left, right] = node.children[..] else {
            return vec![];
        };
        let a = memo.schema(left).arity();
        let b = memo.schema(right).arity();
        let swapped_pairs: Vec<(usize, usize)> =
            condition.equi.iter().map(|&(l, r)| (r, l)).collect();
        let residual = match &condition.residual {
            Some(res) => {
                // Old positions over A++B → new positions over B++A.
                match res.remap_columns(&|i| Some(if i < a { b + i } else { i - a })) {
                    Ok(r) => Some(r),
                    Err(_) => return vec![],
                }
            }
            None => None,
        };
        let inner = NewExpr::op(
            OpKind::Join {
                condition: JoinCondition {
                    equi: swapped_pairs,
                    residual,
                },
            },
            vec![NewExpr::Group(right), NewExpr::Group(left)],
        );
        // Restore the original column order A ++ B.
        let own = memo.schema(memo.op_group(op));
        let exprs: Vec<(ScalarExpr, String)> = (0..a + b)
            .map(|i| {
                let src = if i < a { b + i } else { i - a };
                (
                    ScalarExpr::col(src),
                    own.column(i).map(|c| c.name.clone()).unwrap_or_default(),
                )
            })
            .collect();
        vec![NewExpr::op(OpKind::Project { exprs }, vec![inner])]
    }
}

// ---------------------------------------------------------------------
// Join associativity
// ---------------------------------------------------------------------

/// `(A ⋈ B) ⋈ C ⇔ A ⋈ (B ⋈ C)` for pure equi-joins. Column order is
/// `A ++ B ++ C` on both sides, so no projection is needed.
pub struct JoinAssoc;

impl Rule for JoinAssoc {
    fn name(&self) -> &'static str {
        "join-assoc"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Join { condition: top } = &node.op else {
            return vec![];
        };
        if !top.is_pure_equi() {
            return vec![];
        }
        let [left, right] = node.children[..] else {
            return vec![];
        };
        let mut out = Vec::new();

        // Left-deep → right-deep: (A ⋈ B) ⋈ C ⇒ A ⋈ (B ⋈ C).
        for alt in memo.group_ops(left) {
            let alt_node = memo.op(alt);
            let OpKind::Join { condition: bot } = &alt_node.op else {
                continue;
            };
            if !bot.is_pure_equi() {
                continue;
            }
            let [ga, gb] = alt_node.children[..] else {
                continue;
            };
            let a = memo.schema(ga).arity();
            let b = memo.schema(gb).arity();
            let bc_pairs: Vec<(usize, usize)> = top
                .equi
                .iter()
                .filter(|&&(l, _)| l >= a)
                .map(|&(l, r)| (l - a, r))
                .collect();
            let mut top_pairs: Vec<(usize, usize)> = bot.equi.clone();
            top_pairs.extend(
                top.equi
                    .iter()
                    .filter(|&&(l, _)| l < a)
                    .map(|&(l, r)| (l, r + b)),
            );
            let inner = NewExpr::op(
                OpKind::Join {
                    condition: JoinCondition::on(bc_pairs),
                },
                vec![NewExpr::Group(gb), NewExpr::Group(memo.find(right))],
            );
            out.push(NewExpr::op(
                OpKind::Join {
                    condition: JoinCondition::on(top_pairs),
                },
                vec![NewExpr::Group(ga), inner],
            ));
        }

        // Right-deep → left-deep: A ⋈ (B ⋈ C) ⇒ (A ⋈ B) ⋈ C.
        for alt in memo.group_ops(right) {
            let alt_node = memo.op(alt);
            let OpKind::Join { condition: bot } = &alt_node.op else {
                continue;
            };
            if !bot.is_pure_equi() {
                continue;
            }
            let [gb, gc] = alt_node.children[..] else {
                continue;
            };
            let a = memo.schema(node.children[0]).arity();
            let b = memo.schema(gb).arity();
            let ab_pairs: Vec<(usize, usize)> = top
                .equi
                .iter()
                .filter(|&&(_, r)| r < b)
                .map(|&(l, r)| (l, r))
                .collect();
            let mut top_pairs: Vec<(usize, usize)> =
                bot.equi.iter().map(|&(l, r)| (l + a, r)).collect();
            top_pairs.extend(
                top.equi
                    .iter()
                    .filter(|&&(_, r)| r >= b)
                    .map(|&(l, r)| (l, r - b)),
            );
            let inner = NewExpr::op(
                OpKind::Join {
                    condition: JoinCondition::on(ab_pairs),
                },
                vec![NewExpr::Group(memo.find(left)), NewExpr::Group(gb)],
            );
            out.push(NewExpr::op(
                OpKind::Join {
                    condition: JoinCondition::on(top_pairs),
                },
                vec![inner, NewExpr::Group(gc)],
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Selection rules
// ---------------------------------------------------------------------

/// Push `σ_p` below a join: to the side `p` references, or into the join
/// residual when it spans both.
pub struct SelectPushJoin;

impl Rule for SelectPushJoin {
    fn name(&self) -> &'static str {
        "select-push-join"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Select { predicate } = &node.op else {
            return vec![];
        };
        let child = memo.find(node.children[0]);
        let mut out = Vec::new();
        for alt in memo.group_ops(child) {
            let alt_node = memo.op(alt);
            let OpKind::Join { condition } = &alt_node.op else {
                continue;
            };
            let [ga, gb] = alt_node.children[..] else {
                continue;
            };
            let a = memo.schema(ga).arity();
            let used = predicate.columns_used();
            if used.iter().all(|&c| c < a) {
                // Entirely on the left side.
                out.push(NewExpr::op(
                    OpKind::Join {
                        condition: condition.clone(),
                    },
                    vec![
                        NewExpr::op(
                            OpKind::Select {
                                predicate: predicate.clone(),
                            },
                            vec![NewExpr::Group(ga)],
                        ),
                        NewExpr::Group(gb),
                    ],
                ));
            } else if used.iter().all(|&c| c >= a) {
                // Entirely on the right side.
                let Ok(p) = predicate.remap_columns(&|c| c.checked_sub(a)) else {
                    continue;
                };
                out.push(NewExpr::op(
                    OpKind::Join {
                        condition: condition.clone(),
                    },
                    vec![
                        NewExpr::Group(ga),
                        NewExpr::op(OpKind::Select { predicate: p }, vec![NewExpr::Group(gb)]),
                    ],
                ));
            } else {
                // Spans both: fold into the residual.
                let mut cond = condition.clone();
                cond.residual = Some(match cond.residual.take() {
                    Some(r) => r.and(predicate.clone()),
                    None => predicate.clone(),
                });
                out.push(NewExpr::op(
                    OpKind::Join { condition: cond },
                    vec![NewExpr::Group(ga), NewExpr::Group(gb)],
                ));
            }
        }
        out
    }
}

/// Hoist a join residual: `A ⋈_{c,r} B ⇒ σ_r(A ⋈_c B)`.
pub struct SelectPullResidual;

impl Rule for SelectPullResidual {
    fn name(&self) -> &'static str {
        "select-pull-residual"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Join { condition } = &node.op else {
            return vec![];
        };
        let Some(residual) = &condition.residual else {
            return vec![];
        };
        let inner = NewExpr::op(
            OpKind::Join {
                condition: JoinCondition::on(condition.equi.clone()),
            },
            vec![
                NewExpr::Group(memo.find(node.children[0])),
                NewExpr::Group(memo.find(node.children[1])),
            ],
        );
        vec![NewExpr::op(
            OpKind::Select {
                predicate: residual.clone(),
            },
            vec![inner],
        )]
    }
}

/// `σ_{p1}(σ_{p2}(X)) ⇒ σ_{p1 ∧ p2}(X)`.
pub struct SelectMerge;

impl Rule for SelectMerge {
    fn name(&self) -> &'static str {
        "select-merge"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Select { predicate: p1 } = &node.op else {
            return vec![];
        };
        let child = memo.find(node.children[0]);
        let mut out = Vec::new();
        for alt in memo.group_ops(child) {
            let alt_node = memo.op(alt);
            let OpKind::Select { predicate: p2 } = &alt_node.op else {
                continue;
            };
            out.push(NewExpr::op(
                OpKind::Select {
                    predicate: p1.clone().and(p2.clone()),
                },
                vec![NewExpr::Group(memo.find(alt_node.children[0]))],
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Projection rules
// ---------------------------------------------------------------------

/// `π_{e1}(π_{e2}(X)) ⇒ π_{e1 ∘ e2}(X)`.
pub struct ProjectMerge;

impl Rule for ProjectMerge {
    fn name(&self) -> &'static str {
        "project-merge"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Project { exprs: e1 } = &node.op else {
            return vec![];
        };
        let child = memo.find(node.children[0]);
        let mut out = Vec::new();
        for alt in memo.group_ops(child) {
            let alt_node = memo.op(alt);
            let OpKind::Project { exprs: e2 } = &alt_node.op else {
                continue;
            };
            let composed: Vec<(ScalarExpr, String)> = e1
                .iter()
                .map(|(e, n)| {
                    (
                        e.substitute(&|c| {
                            e2.get(c)
                                .map(|(inner, _)| inner.clone())
                                // Out-of-range (malformed) references keep
                                // their position and will fail validation.
                                .unwrap_or(ScalarExpr::Col(c))
                        }),
                        n.clone(),
                    )
                })
                .collect();
            out.push(NewExpr::op(
                OpKind::Project { exprs: composed },
                vec![NewExpr::Group(memo.find(alt_node.children[0]))],
            ));
        }
        out
    }
}

/// An identity projection is its child: `π_{0..n}(X) ≡ X` (group merge).
pub struct ProjectIdentity;

impl Rule for ProjectIdentity {
    fn name(&self) -> &'static str {
        "project-identity"
    }

    fn apply(&self, memo: &Memo, op: OpId, _catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Project { exprs } = &node.op else {
            return vec![];
        };
        let child = memo.find(node.children[0]);
        if exprs.len() != memo.schema(child).arity() {
            return vec![];
        }
        let identity = exprs
            .iter()
            .enumerate()
            .all(|(i, (e, _))| matches!(e, ScalarExpr::Col(c) if *c == i));
        if identity {
            vec![NewExpr::Group(child)]
        } else {
            vec![]
        }
    }
}

// ---------------------------------------------------------------------
// Eager aggregation (Yan–Larson)
// ---------------------------------------------------------------------

/// Push grouping/aggregation below a join:
///
/// `γ_{gb, aggs}(A ⋈_c B) ⇒ π(γ_{gb_A ∪ c_A, aggs}(A) ⋈ B)` when
///
/// 1. the join is a pure equi-join,
/// 2. every aggregate argument references only `A` columns,
/// 3. every join pair has one side in `gb` (the grouping determines the
///    join key), and
/// 4. `B` is joined on a candidate key of `B` (each `A` row matches at
///    most one `B` row, so multiplicities are preserved).
///
/// The symmetric `B`-side push is also produced. This is the rule that
/// derives the paper's Figure 1 left tree (and hence the SumOfSals
/// candidate N3) from the right tree.
pub struct EagerAggregation;

impl Rule for EagerAggregation {
    fn name(&self) -> &'static str {
        "eager-aggregation"
    }

    fn apply(&self, memo: &Memo, op: OpId, catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Aggregate { group_by, aggs } = &node.op else {
            return vec![];
        };
        let child = memo.find(node.children[0]);
        let mut out = Vec::new();
        for alt in memo.group_ops(child) {
            let alt_node = memo.op(alt);
            let OpKind::Join { condition } = &alt_node.op else {
                continue;
            };
            if !condition.is_pure_equi() || condition.equi.is_empty() {
                continue;
            }
            let [ga, gb_grp] = alt_node.children[..] else {
                continue;
            };
            let a = memo.schema(ga).arity();
            // Condition 3: grouping determines the join key. A join column
            // need not *be* a grouping column — being provably equal to
            // one (through nested equi-joins, as in the paper's
            // ADeptsStatus example) suffices.
            let alt_tree = match ExprNode::build(
                alt_node.op.clone(),
                vec![memo.extract_one(ga), memo.extract_one(gb_grp)],
            ) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let classes = column_equivalences(&alt_tree);
            let cond3 = condition.equi.iter().all(|&(l, r)| {
                classes.intersects(l, group_by) || classes.intersects(r + a, group_by)
            });
            if !cond3 {
                continue;
            }
            // Try pushing into the left side.
            if aggs.iter().all(|ag| agg_arg_within(ag, 0, a)) {
                let right_cols = condition.right_cols();
                let right_keys = group_keys(memo, gb_grp, catalog);
                let right_on_key = right_keys
                    .iter()
                    .any(|k| k.iter().all(|c| right_cols.contains(c)));
                if right_on_key {
                    if let Some(e) = push_left(memo, node, group_by, aggs, condition, ga, gb_grp) {
                        out.push(e);
                    }
                }
            }
            // Try pushing into the right side.
            if aggs.iter().all(|ag| agg_arg_within(ag, a, usize::MAX)) {
                let left_cols = condition.left_cols();
                let left_tree = memo.extract_one(ga);
                if cols_contain_key(&left_tree, catalog, &left_cols) {
                    if let Some(e) = push_right(memo, node, group_by, aggs, condition, ga, gb_grp) {
                        out.push(e);
                    }
                }
            }
        }
        out
    }
}

fn agg_arg_within(agg: &AggExpr, lo: usize, hi: usize) -> bool {
    match &agg.arg {
        Some(e) => e.columns_used().iter().all(|&c| c >= lo && c < hi),
        None => true, // COUNT(*) counts rows; safe under a key-join
    }
}

fn push_left(
    memo: &Memo,
    node: &crate::memo::OperationNode,
    group_by: &[usize],
    aggs: &[AggExpr],
    condition: &JoinCondition,
    ga: GroupId,
    gb_grp: GroupId,
) -> Option<NewExpr> {
    let a = memo.schema(ga).arity();
    // Pushed grouping: A-side group-by columns, then any missing join cols.
    let mut pushed_gb: Vec<usize> = group_by.iter().copied().filter(|&g| g < a).collect();
    for &(l, _) in &condition.equi {
        if !pushed_gb.contains(&l) {
            pushed_gb.push(l);
        }
    }
    let pushed_agg = OpKind::Aggregate {
        group_by: pushed_gb.clone(),
        aggs: aggs.to_vec(),
    };
    // New join: aggregate output ⋈ B on the (relocated) join columns.
    let new_pairs: Vec<(usize, usize)> = condition
        .equi
        .iter()
        .map(|&(l, r)| (pushed_gb.iter().position(|&g| g == l).expect("added"), r))
        .collect();
    let pushed_out_arity = pushed_gb.len() + aggs.len();
    // Projection restoring the original aggregate output order.
    let own_schema = memo.schema(memo.find(node.group));
    let exprs: Vec<(ScalarExpr, String)> = group_by
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let src = if g < a {
                pushed_gb.iter().position(|&p| p == g).expect("subset")
            } else {
                pushed_out_arity + (g - a)
            };
            (
                ScalarExpr::col(src),
                own_schema
                    .column(i)
                    .map(|c| c.name.clone())
                    .unwrap_or_default(),
            )
        })
        .chain(
            aggs.iter()
                .enumerate()
                .map(|(i, ag)| (ScalarExpr::col(pushed_gb.len() + i), ag.name.clone())),
        )
        .collect();
    let join = NewExpr::op(
        OpKind::Join {
            condition: JoinCondition::on(new_pairs),
        },
        vec![
            NewExpr::op(pushed_agg, vec![NewExpr::Group(ga)]),
            NewExpr::Group(memo.find(gb_grp)),
        ],
    );
    Some(NewExpr::op(OpKind::Project { exprs }, vec![join]))
}

fn push_right(
    memo: &Memo,
    node: &crate::memo::OperationNode,
    group_by: &[usize],
    aggs: &[AggExpr],
    condition: &JoinCondition,
    ga: GroupId,
    gb_grp: GroupId,
) -> Option<NewExpr> {
    let a = memo.schema(ga).arity();
    // B-side positions.
    let mut pushed_gb: Vec<usize> = group_by
        .iter()
        .copied()
        .filter(|&g| g >= a)
        .map(|g| g - a)
        .collect();
    for &(_, r) in &condition.equi {
        if !pushed_gb.contains(&r) {
            pushed_gb.push(r);
        }
    }
    let remapped_aggs: Vec<AggExpr> = aggs
        .iter()
        .map(|ag| {
            Some(AggExpr {
                func: ag.func,
                arg: match &ag.arg {
                    Some(e) => Some(e.remap_columns(&|c| c.checked_sub(a)).ok()?),
                    None => None,
                },
                name: ag.name.clone(),
            })
        })
        .collect::<Option<_>>()?;
    let pushed_agg = OpKind::Aggregate {
        group_by: pushed_gb.clone(),
        aggs: remapped_aggs,
    };
    let new_pairs: Vec<(usize, usize)> = condition
        .equi
        .iter()
        .map(|&(l, r)| (l, pushed_gb.iter().position(|&g| g == r).expect("added")))
        .collect();
    let own_schema = memo.schema(memo.find(node.group));
    let exprs: Vec<(ScalarExpr, String)> = group_by
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let src = if g >= a {
                a + pushed_gb.iter().position(|&p| p == g - a).expect("subset")
            } else {
                g
            };
            (
                ScalarExpr::col(src),
                own_schema
                    .column(i)
                    .map(|c| c.name.clone())
                    .unwrap_or_default(),
            )
        })
        .chain(
            aggs.iter()
                .enumerate()
                .map(|(i, ag)| (ScalarExpr::col(a + pushed_gb.len() + i), ag.name.clone())),
        )
        .collect();
    let join = NewExpr::op(
        OpKind::Join {
            condition: JoinCondition::on(new_pairs),
        },
        vec![
            NewExpr::Group(memo.find(ga)),
            NewExpr::op(pushed_agg, vec![NewExpr::Group(memo.find(gb_grp))]),
        ],
    );
    Some(NewExpr::op(OpKind::Project { exprs }, vec![join]))
}

// ---------------------------------------------------------------------
// Lazy aggregation (the inverse of eager)
// ---------------------------------------------------------------------

/// Pull grouping/aggregation above a join:
///
/// `γ_{gb, aggs}(A) ⋈_c B ⇒ π(γ_{gb ∪ B-cols, aggs}(A ⋈ B))` when
///
/// 1. the join is a pure equi-join,
/// 2. the join's left columns are grouping-column outputs of the
///    aggregate (positions `< |gb|`), and
/// 3. `B` is joined on a candidate key of `B` (each group matches at most
///    one `B` row, so pulling the aggregation keeps multiplicities).
///
/// With this rule and [`EagerAggregation`] together, exploration converges
/// to the same DAG from either tree of the paper's Figure 1.
pub struct LazyAggregation;

impl Rule for LazyAggregation {
    fn name(&self) -> &'static str {
        "lazy-aggregation"
    }

    fn apply(&self, memo: &Memo, op: OpId, catalog: &Catalog) -> Vec<NewExpr> {
        let node = memo.op(op);
        let OpKind::Join { condition } = &node.op else {
            return vec![];
        };
        if !condition.is_pure_equi() || condition.equi.is_empty() {
            return vec![];
        }
        let [left, right] = memo.op_children(op)[..] else {
            return vec![];
        };
        let mut out = Vec::new();
        for alt in memo.group_ops(left) {
            let alt_node = memo.op(alt);
            let OpKind::Aggregate { group_by, aggs } = &alt_node.op else {
                continue;
            };
            // Condition 2: the join drives off grouping columns.
            if !condition.equi.iter().all(|&(l, _)| l < group_by.len()) {
                continue;
            }
            // Condition 3: B joined on one of its keys.
            let right_cols = condition.right_cols();
            let right_keys = group_keys(memo, right, catalog);
            if !right_keys
                .iter()
                .any(|k| k.iter().all(|c| right_cols.contains(c)))
            {
                continue;
            }
            let ga = memo.op_children(alt)[0];
            let a_arity = memo.schema(ga).arity();
            let b_arity = memo.schema(right).arity();

            // Inner join A ⋈ B: join pairs map the agg-output grouping
            // positions back to A positions.
            let inner_pairs: Vec<(usize, usize)> = condition
                .equi
                .iter()
                .map(|&(l, r)| (group_by[l], r))
                .collect();
            let inner = NewExpr::op(
                OpKind::Join {
                    condition: JoinCondition::on(inner_pairs),
                },
                vec![
                    NewExpr::Group(memo.find(ga)),
                    NewExpr::Group(memo.find(right)),
                ],
            );

            // Pulled aggregate: original grouping columns (A positions),
            // then every B column (functionally determined by the key
            // join, so partitions are unchanged).
            let mut pulled_gb: Vec<usize> = group_by.clone();
            pulled_gb.extend((0..b_arity).map(|c| a_arity + c));
            let pulled = NewExpr::op(
                OpKind::Aggregate {
                    group_by: pulled_gb.clone(),
                    aggs: aggs.clone(),
                },
                vec![inner],
            );

            // Restore the join's output order: (gb cols, agg outs, B cols).
            let own_schema = memo.schema(memo.op_group(op));
            let exprs: Vec<(ScalarExpr, String)> = (0..group_by.len()) // grouping outputs stay first
                .chain((0..aggs.len()).map(|i| pulled_gb.len() + i))
                .chain((0..b_arity).map(|i| group_by.len() + i))
                .enumerate()
                .map(|(out_pos, src)| {
                    (
                        ScalarExpr::col(src),
                        own_schema
                            .column(out_pos)
                            .map(|c| c.name.clone())
                            .unwrap_or_default(),
                    )
                })
                .collect();
            out.push(NewExpr::op(OpKind::Project { exprs }, vec![pulled]));
        }
        out
    }
}
