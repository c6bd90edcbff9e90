//! The expression DAG (memo) structure.
//!
//! Groups are the paper's *equivalence nodes*; [`OperationNode`]s are its
//! *operation nodes*. Operation nodes are hash-consed on
//! `(operator, canonical child groups)` so that structurally identical
//! subexpressions are shared — "the cost of generation is greatly reduced
//! … since the rules operate locally on the DAG representation" (§2.1).
//! Semantic equivalence discovered by rules merges groups via union-find;
//! merging re-canonicalizes referencing operation nodes and cascades
//! further merges when two nodes collapse into one.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use spacetime_algebra::{ExprNode, ExprTree, OpKind};
use spacetime_storage::Schema;

/// Identifier of an equivalence node (group). Raw — canonicalize with
/// [`Memo::find`] after merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifier of an operation node. Stable for the memo's lifetime (nodes
/// are never removed, only marked dead when they collapse into an existing
/// duplicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// An operation node: one operator with equivalence-node children.
#[derive(Debug, Clone)]
pub struct OperationNode {
    /// The operator.
    pub op: OpKind,
    /// Child groups (raw ids — canonicalize via [`Memo::find`]).
    pub children: Vec<GroupId>,
    /// Owning group (raw id).
    pub group: GroupId,
    /// False once the node collapsed into a duplicate during a merge.
    pub alive: bool,
    /// The children used for the current hash-cons index entry.
    key_children: Vec<GroupId>,
}

#[derive(Debug, Clone)]
struct GroupData {
    /// Union-find parent (self = representative).
    parent: u32,
    /// Member operation nodes (representatives only; includes dead ids,
    /// filtered on read).
    ops: Vec<OpId>,
    /// Output schema (column names are taken from the first inserted
    /// expression; alternatives must agree on arity and types).
    schema: Schema,
}

/// The expression DAG.
#[derive(Debug, Clone, Default)]
pub struct Memo {
    groups: Vec<GroupData>,
    ops: Vec<OperationNode>,
    /// Hash-cons index: (operator, canonical children) → op.
    index: HashMap<(OpKind, Vec<GroupId>), OpId>,
    /// Reverse edges: group → operation nodes having it as a child.
    parents: HashMap<GroupId, Vec<OpId>>,
    root: Option<GroupId>,
    /// Bumped on every structural change (op creation or group merge);
    /// lets exploration detect fixpoint cheaply.
    version: u64,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// The designated root group (the view V), canonicalized.
    pub fn root(&self) -> Option<GroupId> {
        self.root.map(|g| self.find(g))
    }

    /// Designate the root group.
    pub fn set_root(&mut self, g: GroupId) {
        self.root = Some(self.find(g));
    }

    /// Canonical representative of a group.
    pub fn find(&self, g: GroupId) -> GroupId {
        let mut cur = g.0;
        while self.groups[cur as usize].parent != cur {
            cur = self.groups[cur as usize].parent;
        }
        GroupId(cur)
    }

    /// Number of live (representative) groups.
    pub fn group_count(&self) -> usize {
        self.groups
            .iter()
            .enumerate()
            .filter(|(i, g)| g.parent == *i as u32)
            .count()
    }

    /// Number of live operation nodes.
    pub fn op_count(&self) -> usize {
        self.ops.iter().filter(|o| o.alive).count()
    }

    /// Total operation nodes ever created (including dead ones) — the
    /// exploration budget is counted against this.
    pub fn raw_op_count(&self) -> usize {
        self.ops.len()
    }

    /// Iterate every operation-node id ever created (callers filter on
    /// [`OperationNode::alive`]).
    pub fn all_op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Structural version: changes whenever an op is created or groups
    /// merge.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterate live (representative) group ids in insertion order.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.groups
            .iter()
            .enumerate()
            .filter(|(i, g)| g.parent == *i as u32)
            .map(|(i, _)| GroupId(i as u32))
    }

    /// The output schema of a group.
    pub fn schema(&self, g: GroupId) -> &Schema {
        &self.groups[self.find(g).0 as usize].schema
    }

    /// Live operation nodes of a group.
    pub fn group_ops(&self, g: GroupId) -> Vec<OpId> {
        self.group_ops_iter(g).collect()
    }

    /// Live operation nodes of a group, without collecting them.
    pub fn group_ops_iter(&self, g: GroupId) -> impl Iterator<Item = OpId> + '_ {
        let g = self.find(g);
        self.groups[g.0 as usize]
            .ops
            .iter()
            .copied()
            .filter(|&o| self.ops[o.0 as usize].alive)
    }

    /// An operation node by id.
    pub fn op(&self, o: OpId) -> &OperationNode {
        &self.ops[o.0 as usize]
    }

    /// Canonical children of an operation node.
    pub fn op_children(&self, o: OpId) -> Vec<GroupId> {
        self.op_children_iter(o).collect()
    }

    /// Canonical children of an operation node, without collecting them.
    pub fn op_children_iter(&self, o: OpId) -> impl Iterator<Item = GroupId> + '_ {
        self.ops[o.0 as usize]
            .children
            .iter()
            .map(|&c| self.find(c))
    }

    /// Canonical owning group of an operation node.
    pub fn op_group(&self, o: OpId) -> GroupId {
        self.find(self.ops[o.0 as usize].group)
    }

    /// Whether a group is a leaf (contains only `Scan` operators).
    pub fn is_leaf(&self, g: GroupId) -> bool {
        self.group_ops_iter(g)
            .all(|o| matches!(self.op(o).op, OpKind::Scan { .. }))
    }

    /// Insert an operation over existing groups.
    ///
    /// `into = None` puts a new expression in a fresh group (or returns the
    /// group it already lives in). `into = Some(g)` asserts the expression
    /// is equivalent to `g`, merging groups if the expression already
    /// exists elsewhere — this is how rules record equivalences.
    ///
    /// Returns the (canonical) group holding the expression.
    pub fn insert_op(
        &mut self,
        op: OpKind,
        children: Vec<GroupId>,
        into: Option<GroupId>,
        schema: Schema,
    ) -> GroupId {
        let children: Vec<GroupId> = children.iter().map(|&c| self.find(c)).collect();
        let into = into.map(|g| self.find(g));

        // Refuse self-referential alternatives (a group "computed from
        // itself" admits no finite tree).
        if let Some(target) = into {
            if children.contains(&target) {
                return target;
            }
        }

        let key = (op.clone(), children.clone());
        if let Some(&existing) = self.index.get(&key) {
            let existing_group = self.op_group(existing);
            if let Some(target) = into {
                if target != existing_group {
                    self.merge(target, existing_group);
                }
                return self.find(target);
            }
            return existing_group;
        }

        let group = match into {
            Some(g) => g,
            None => self.add_group(schema),
        };
        self.version += 1;
        let op_id = OpId(self.ops.len() as u32);
        self.ops.push(OperationNode {
            op,
            children: children.clone(),
            group,
            alive: true,
            key_children: children.clone(),
        });
        self.index.insert(key, op_id);
        self.groups[group.0 as usize].ops.push(op_id);
        for c in children {
            self.parents.entry(c).or_default().push(op_id);
        }
        self.find(group)
    }

    fn add_group(&mut self, schema: Schema) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        self.groups.push(GroupData {
            parent: id.0,
            ops: Vec::new(),
            schema,
        });
        id
    }

    /// Find the group holding an expression tree, without inserting
    /// (`None` if any node of the tree is absent). Used by the
    /// single-expression-tree heuristic to map a user tree onto the DAG.
    pub fn find_tree(&self, tree: &ExprNode) -> Option<GroupId> {
        let children: Vec<GroupId> = tree
            .children
            .iter()
            .map(|c| self.find_tree(c))
            .collect::<Option<_>>()?;
        let key = (tree.op.clone(), children);
        self.index.get(&key).map(|&op| self.op_group(op))
    }

    /// Insert a whole expression tree, returning its group.
    pub fn insert_tree(&mut self, tree: &ExprNode) -> GroupId {
        let children: Vec<GroupId> = tree.children.iter().map(|c| self.insert_tree(c)).collect();
        self.insert_op(tree.op.clone(), children, None, tree.schema.clone())
    }

    /// Merge two groups (and cascade).
    pub fn merge(&mut self, a: GroupId, b: GroupId) {
        let mut queue = vec![(a, b)];
        while let Some((a, b)) = queue.pop() {
            let a = self.find(a);
            let b = self.find(b);
            if a == b {
                continue;
            }
            self.version += 1;
            let (keeper, absorbed) = if a.0 <= b.0 { (a, b) } else { (b, a) };
            debug_assert_eq!(
                self.groups[keeper.0 as usize].schema.arity(),
                self.groups[absorbed.0 as usize].schema.arity(),
                "merging groups with different arities"
            );
            self.groups[absorbed.0 as usize].parent = keeper.0;
            let moved = std::mem::take(&mut self.groups[absorbed.0 as usize].ops);
            self.groups[keeper.0 as usize].ops.extend(moved);

            // Re-canonicalize every op that referenced the absorbed group.
            let refs = self.parents.remove(&absorbed).unwrap_or_default();
            for op_id in refs {
                if !self.ops[op_id.0 as usize].alive {
                    continue;
                }
                // Drop the old index entry.
                let old_key = (
                    self.ops[op_id.0 as usize].op.clone(),
                    self.ops[op_id.0 as usize].key_children.clone(),
                );
                self.index.remove(&old_key);

                let new_children: Vec<GroupId> = self.ops[op_id.0 as usize]
                    .children
                    .iter()
                    .map(|&c| self.find(c))
                    .collect();
                let own_group = self.op_group(op_id);
                if new_children.contains(&own_group) {
                    // Became self-referential: useless alternative.
                    self.ops[op_id.0 as usize].alive = false;
                    continue;
                }
                let new_key = (self.ops[op_id.0 as usize].op.clone(), new_children.clone());
                match self.index.get(&new_key) {
                    Some(&dup) if dup != op_id => {
                        // Collapsed into an existing node: kill this one and
                        // merge the owning groups.
                        self.ops[op_id.0 as usize].alive = false;
                        let dup_group = self.op_group(dup);
                        if dup_group != own_group {
                            queue.push((dup_group, own_group));
                        }
                    }
                    _ => {
                        self.index.insert(new_key, op_id);
                        self.ops[op_id.0 as usize].key_children = new_children.clone();
                        self.parents.entry(keeper).or_default().push(op_id);
                        // (Entries under other child groups are still valid.)
                        let _ = new_children;
                    }
                }
            }
        }
    }

    /// Extract one (arbitrary but deterministic) expression tree for a
    /// group: the first acyclic alternative, preferring earlier-inserted
    /// operation nodes (which come from the original user expression).
    pub fn extract_one(&self, g: GroupId) -> ExprTree {
        self.extract_one_guarded(self.find(g), &mut Vec::new())
            .expect("every group admits at least one finite tree")
    }

    fn extract_one_guarded(&self, g: GroupId, path: &mut Vec<GroupId>) -> Option<ExprTree> {
        if path.contains(&g) {
            return None;
        }
        path.push(g);
        let result = (|| {
            for op_id in self.group_ops(g) {
                let node = self.op(op_id);
                let mut children = Vec::with_capacity(node.children.len());
                let mut ok = true;
                for &c in &node.children {
                    match self.extract_one_guarded(self.find(c), path) {
                        Some(t) => children.push(t),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    return Some(Arc::new(ExprNode {
                        op: node.op.clone(),
                        children,
                        schema: self.schema(g).clone(),
                    }));
                }
            }
            None
        })();
        path.pop();
        result
    }

    /// Extract up to `limit` distinct expression trees for a group.
    pub fn extract_trees(&self, g: GroupId, limit: usize) -> Vec<ExprTree> {
        let mut path = Vec::new();
        self.extract_trees_guarded(self.find(g), limit, &mut path)
    }

    fn extract_trees_guarded(
        &self,
        g: GroupId,
        limit: usize,
        path: &mut Vec<GroupId>,
    ) -> Vec<ExprTree> {
        if limit == 0 || path.contains(&g) {
            return Vec::new();
        }
        path.push(g);
        let mut out: Vec<ExprTree> = Vec::new();
        for op_id in self.group_ops(g) {
            if out.len() >= limit {
                break;
            }
            let node = self.op(op_id);
            // Cartesian product of child alternatives.
            let mut partials: Vec<Vec<ExprTree>> = vec![Vec::new()];
            for &c in &node.children {
                let child_trees = self.extract_trees_guarded(self.find(c), limit, path);
                if child_trees.is_empty() {
                    partials.clear();
                    break;
                }
                let mut next = Vec::new();
                for p in &partials {
                    for ct in &child_trees {
                        if next.len() + out.len() >= limit * 2 {
                            break;
                        }
                        let mut q = p.clone();
                        q.push(ct.clone());
                        next.push(q);
                    }
                }
                partials = next;
            }
            if node.children.is_empty() {
                partials = vec![Vec::new()];
            }
            for children in partials {
                if out.len() >= limit {
                    break;
                }
                out.push(Arc::new(ExprNode {
                    op: node.op.clone(),
                    children,
                    schema: self.schema(g).clone(),
                }));
            }
        }
        path.pop();
        out
    }

    /// Count the expression trees a group represents (saturating), the
    /// quantity the paper's "space of equivalent expression trees" refers
    /// to.
    pub fn count_trees(&self, g: GroupId) -> u64 {
        let mut path = Vec::new();
        self.count_trees_guarded(self.find(g), &mut path)
    }

    fn count_trees_guarded(&self, g: GroupId, path: &mut Vec<GroupId>) -> u64 {
        if path.contains(&g) {
            return 0;
        }
        path.push(g);
        let mut total: u64 = 0;
        for op_id in self.group_ops(g) {
            let node = self.op(op_id);
            let mut prod: u64 = 1;
            for &c in &node.children {
                prod = prod.saturating_mul(self.count_trees_guarded(self.find(c), path));
            }
            total = total.saturating_add(prod);
        }
        path.pop();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_algebra::{AggExpr, AggFunc, ScalarExpr};
    use spacetime_storage::{Catalog, DataType, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [
            ("A", vec![("x", DataType::Int), ("y", DataType::Int)]),
            ("B", vec![("x", DataType::Int), ("z", DataType::Int)]),
            ("C", vec![("z", DataType::Int), ("w", DataType::Int)]),
        ] {
            cat.create_table(name, Schema::of_table(name, &cols))
                .unwrap();
        }
        cat
    }

    fn scan(cat: &Catalog, t: &str) -> ExprTree {
        ExprNode::scan(cat, t).unwrap()
    }

    #[test]
    fn insert_tree_hash_conses_shared_subtrees() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let b = scan(&cat, "B");
        let j = ExprNode::join_on(a.clone(), b.clone(), &[("A.x", "B.x")]).unwrap();
        let g1 = memo.insert_tree(&j);
        let g2 = memo.insert_tree(&j);
        assert_eq!(g1, g2);
        // A, B, and the join: three groups, three ops.
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.op_count(), 3);
    }

    #[test]
    fn distinct_expressions_get_distinct_groups() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let s1 = ExprNode::select(a.clone(), ScalarExpr::col_eq_lit(0, 1)).unwrap();
        let s2 = ExprNode::select(a, ScalarExpr::col_eq_lit(0, 2)).unwrap();
        let g1 = memo.insert_tree(&s1);
        let g2 = memo.insert_tree(&s2);
        assert_ne!(g1, g2);
    }

    #[test]
    fn insert_into_group_records_equivalence() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let b = scan(&cat, "B");
        let ab = ExprNode::join_on(a.clone(), b.clone(), &[("A.x", "B.x")]).unwrap();
        let g_ab = memo.insert_tree(&ab);
        let g_a = memo.insert_tree(&a);
        let g_b = memo.insert_tree(&b);
        // Pretend commuted join (schema differs in order; use a project in
        // real rules — here we just exercise the merging machinery with an
        // artificial alternative).
        let g2 = memo.insert_op(
            OpKind::Join {
                condition: spacetime_algebra::JoinCondition::on(vec![(0, 0)]),
            },
            vec![g_b, g_a],
            Some(g_ab),
            ab.schema.clone(),
        );
        assert_eq!(memo.find(g2), memo.find(g_ab));
        assert_eq!(memo.group_ops(g_ab).len(), 2);
    }

    #[test]
    fn merge_cascades_through_parents() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let b = scan(&cat, "B");
        // Two distinct selections over A and B resp.
        let sa = ExprNode::select(a.clone(), ScalarExpr::col_eq_lit(0, 1)).unwrap();
        let sb = ExprNode::select(b.clone(), ScalarExpr::col_eq_lit(0, 1)).unwrap();
        // Identical aggregates over each selection.
        let mk_agg = |child: &ExprTree| {
            ExprNode::aggregate(
                child.clone(),
                vec![0],
                vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s")],
            )
            .unwrap()
        };
        let ta = mk_agg(&sa);
        let tb = mk_agg(&sb);
        let g_ta = memo.insert_tree(&ta);
        let g_tb = memo.insert_tree(&tb);
        assert_ne!(memo.find(g_ta), memo.find(g_tb));
        // Declare σ(A) ≡ σ(B) (artificially). The aggregates above them
        // have identical operators, so they must collapse too.
        let g_sa = memo.insert_tree(&sa);
        let g_sb = memo.insert_tree(&sb);
        memo.merge(g_sa, g_sb);
        assert_eq!(memo.find(g_ta), memo.find(g_tb), "merge must cascade");
        // One of the duplicate aggregate ops died.
        assert_eq!(memo.group_ops(g_ta).len(), 1);
    }

    #[test]
    fn extraction_returns_original_tree() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let b = scan(&cat, "B");
        let j = ExprNode::join_on(a, b, &[("A.x", "B.x")]).unwrap();
        let g = memo.insert_tree(&j);
        let t = memo.extract_one(g);
        assert_eq!(t.op, j.op);
        assert_eq!(t.children.len(), 2);
        assert_eq!(t.schema.arity(), j.schema.arity());
    }

    #[test]
    fn count_and_extract_agree() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let b = scan(&cat, "B");
        let ab = ExprNode::join_on(a.clone(), b.clone(), &[("A.x", "B.x")]).unwrap();
        let g = memo.insert_tree(&ab);
        assert_eq!(memo.count_trees(g), 1);
        assert_eq!(memo.extract_trees(g, 10).len(), 1);
        // Add an alternative: the same join again under a different flavor
        // (swap sides artificially).
        let g_a = memo.insert_tree(&a);
        let g_b = memo.insert_tree(&b);
        memo.insert_op(
            OpKind::Join {
                condition: spacetime_algebra::JoinCondition::on(vec![(0, 0)]),
            },
            vec![g_b, g_a],
            Some(g),
            ab.schema.clone(),
        );
        assert_eq!(memo.count_trees(g), 2);
        assert_eq!(memo.extract_trees(g, 10).len(), 2);
    }

    #[test]
    fn self_referential_alternative_rejected() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let g = memo.insert_tree(&a);
        let before = memo.op_count();
        memo.insert_op(OpKind::Distinct, vec![g], Some(g), a.schema.clone());
        assert_eq!(memo.op_count(), before, "self-loop not inserted");
        assert_eq!(memo.count_trees(g), 1);
    }

    #[test]
    fn is_leaf_detects_scans() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let d = ExprNode::distinct(a.clone()).unwrap();
        let g_d = memo.insert_tree(&d);
        let g_a = memo.insert_tree(&a);
        assert!(memo.is_leaf(g_a));
        assert!(!memo.is_leaf(g_d));
    }

    #[test]
    fn root_survives_merges() {
        let cat = catalog();
        let mut memo = Memo::new();
        let a = scan(&cat, "A");
        let s1 = ExprNode::select(a.clone(), ScalarExpr::col_eq_lit(0, 1)).unwrap();
        let s2 = ExprNode::select(a, ScalarExpr::col_eq_lit(1, 2)).unwrap();
        let g1 = memo.insert_tree(&s1);
        let g2 = memo.insert_tree(&s2);
        memo.set_root(g2);
        memo.merge(g1, g2);
        assert_eq!(memo.root().unwrap(), memo.find(g1));
    }
}
