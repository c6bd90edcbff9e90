//! Statistics and delta-size estimation over memo groups.
//!
//! [`CostCtx`] wraps a memo + catalog + cost model and memoizes group
//! cardinalities, per-column distinct counts, candidate keys and delta-size
//! estimates. The formulas are the classic System-R heuristics — the paper
//! is explicit that "our techniques are independent of the exact formulae
//! for computing the size of the Δs, although our examples use specific
//! formulae" (§2.2); these are the specific formulas that reproduce the
//! §3.6 tables.

use std::collections::{BTreeSet, HashMap};

use spacetime_algebra::{derive_keys, Key, OpKind, ScalarExpr};
use spacetime_memo::{GroupId, Memo, OpId};
use spacetime_storage::Catalog;

use crate::model::{Cost, CostModel};
use crate::txn::{TableUpdate, TransactionType, UpdateKind};

/// Estimated delta arriving at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEst {
    /// Expected touched tuples.
    pub size: f64,
    /// The dominant update kind at this node.
    pub kind: UpdateKind,
}

impl DeltaEst {
    /// The zero delta.
    pub const NONE: DeltaEst = DeltaEst {
        size: 0.0,
        kind: UpdateKind::Modify,
    };

    /// Whether this node is unaffected.
    pub fn is_zero(&self) -> bool {
        self.size == 0.0
    }
}

/// Estimation context over one explored memo.
pub struct CostCtx<'a> {
    /// The expression DAG.
    pub memo: &'a Memo,
    /// Base-table schemas, keys and statistics.
    pub catalog: &'a Catalog,
    /// The (monotonic) cost model.
    pub model: &'a dyn CostModel,
    card_cache: HashMap<GroupId, f64>,
    distinct_cache: HashMap<(GroupId, usize), f64>,
    key_cache: HashMap<GroupId, Vec<Key>>,
    query_cache: HashMap<(GroupId, Vec<usize>, u64), crate::model::Cost>,
    /// Canonical groups reachable from each canonical group through any op
    /// alternative, memoized: the marking slice a query on that group can
    /// possibly consult (used to narrow shared-cache keys).
    reach_cache: HashMap<GroupId, std::sync::Arc<std::collections::BTreeSet<GroupId>>>,
    shared_queries: Option<crate::shared::SharedQueryCache>,
}

impl<'a> CostCtx<'a> {
    /// Build a context.
    pub fn new(memo: &'a Memo, catalog: &'a Catalog, model: &'a dyn CostModel) -> Self {
        CostCtx {
            memo,
            catalog,
            model,
            card_cache: HashMap::new(),
            distinct_cache: HashMap::new(),
            key_cache: HashMap::new(),
            query_cache: HashMap::new(),
            reach_cache: HashMap::new(),
            shared_queries: None,
        }
    }

    /// Build a context whose query-cost lookups also consult (and feed) a
    /// cache shared across threads. Per-worker caches stay: the local map
    /// answers repeats without touching the shared shards' locks.
    pub fn with_shared_cache(
        memo: &'a Memo,
        catalog: &'a Catalog,
        model: &'a dyn CostModel,
        shared: crate::shared::SharedQueryCache,
    ) -> Self {
        let mut ctx = Self::new(memo, catalog, model);
        ctx.shared_queries = Some(shared);
        ctx
    }

    /// The per-(node, binding, marking) query-cost memo table.
    pub(crate) fn query_cache(
        &mut self,
    ) -> &mut HashMap<(GroupId, Vec<usize>, u64), crate::model::Cost> {
        &mut self.query_cache
    }

    /// The cross-thread query-cost cache, if one was attached.
    pub(crate) fn shared_queries(&self) -> Option<&crate::shared::SharedQueryCache> {
        self.shared_queries.as_ref()
    }

    /// Every canonical group reachable from `g` (inclusive) through the
    /// children of any op alternative — exactly the groups whose marking
    /// membership `query_cost`/`full_eval_cost` on `g` can test. Memoized;
    /// the memo is frozen for this context's lifetime, so the set never
    /// goes stale.
    pub(crate) fn reachable(
        &mut self,
        g: GroupId,
    ) -> std::sync::Arc<std::collections::BTreeSet<GroupId>> {
        let g = self.memo.find(g);
        if let Some(r) = self.reach_cache.get(&g) {
            return r.clone();
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![g];
        while let Some(x) = stack.pop() {
            let x = self.memo.find(x);
            if !seen.insert(x) {
                continue;
            }
            for op in self.memo.group_ops(x) {
                for c in self.memo.op_children(op) {
                    stack.push(self.memo.find(c));
                }
            }
        }
        let r = std::sync::Arc::new(seen);
        self.reach_cache.insert(g, r.clone());
        r
    }

    /// First live, acyclic operation node of a group (estimation uses one
    /// representative alternative — all alternatives compute the same
    /// value, so their statistics agree).
    fn repr_op(&self, g: GroupId, path: &[GroupId]) -> Option<OpId> {
        self.memo
            .group_ops(g)
            .into_iter()
            .find(|&o| self.memo.op_children(o).iter().all(|c| !path.contains(c)))
    }

    // -----------------------------------------------------------------
    // Cardinality
    // -----------------------------------------------------------------

    /// Estimated output cardinality of a group.
    pub fn card(&mut self, g: GroupId) -> f64 {
        let g = self.memo.find(g);
        if let Some(&c) = self.card_cache.get(&g) {
            return c;
        }
        let c = self.card_guarded(g, &mut vec![]);
        self.card_cache.insert(g, c);
        c
    }

    fn card_guarded(&mut self, g: GroupId, path: &mut Vec<GroupId>) -> f64 {
        let g = self.memo.find(g);
        if let Some(&c) = self.card_cache.get(&g) {
            return c;
        }
        path.push(g);
        let result = match self.repr_op(g, path) {
            Some(op) => self.op_card(op, path),
            None => 0.0,
        };
        path.pop();
        result
    }

    fn op_card(&mut self, op: OpId, path: &mut Vec<GroupId>) -> f64 {
        let node = self.memo.op(op).op.clone();
        let children = self.memo.op_children(op);
        match node {
            OpKind::Scan { table } => self
                .catalog
                .table(&table)
                .map(|t| t.stats.cardinality as f64)
                .unwrap_or(0.0),
            OpKind::Select { predicate } => {
                let child = children[0];
                let input = self.card_guarded(child, path);
                input * self.selectivity(&predicate, child, path)
            }
            OpKind::Project { .. } => self.card_guarded(children[0], path),
            OpKind::Join { condition } => {
                let (l, r) = (children[0], children[1]);
                let cl = self.card_guarded(l, path);
                let cr = self.card_guarded(r, path);
                let mut denom = 1.0;
                for &(lc, rc) in &condition.equi {
                    let dl = self.distinct_guarded(l, lc, path).max(1.0);
                    let dr = self.distinct_guarded(r, rc, path).max(1.0);
                    denom *= dl.max(dr);
                }
                let mut card = cl * cr / denom;
                if condition.residual.is_some() {
                    card /= 3.0;
                }
                card
            }
            OpKind::Aggregate { group_by, .. } => {
                if group_by.is_empty() {
                    return 1.0;
                }
                let child = children[0];
                let input = self.card_guarded(child, path);
                // FD-aware: grouping Emp ⋈ Dept by (DName, Budget) yields
                // one group per department, not |DName| × |Budget|.
                let cols: BTreeSet<usize> = group_by.iter().copied().collect();
                let groups = self.combined_distinct_guarded(child, &cols, path);
                groups.min(input)
            }
            OpKind::Distinct => {
                let child = children[0];
                let input = self.card_guarded(child, path);
                let cols: BTreeSet<usize> = (0..self.memo.schema(child).arity()).collect();
                let distinct = self.combined_distinct_guarded(child, &cols, path);
                distinct.min(input)
            }
        }
    }

    fn selectivity(
        &mut self,
        predicate: &ScalarExpr,
        child: GroupId,
        path: &mut Vec<GroupId>,
    ) -> f64 {
        match predicate {
            ScalarExpr::And(parts) => parts
                .iter()
                .map(|p| self.selectivity(p, child, path))
                .product(),
            ScalarExpr::Or(parts) => parts
                .iter()
                .map(|p| self.selectivity(p, child, path))
                .fold(0.0, |a, b| (a + b).min(1.0)),
            ScalarExpr::Not(inner) => 1.0 - self.selectivity(inner, child, path),
            ScalarExpr::Cmp { op, left, right } => {
                use spacetime_algebra::CmpOp::*;
                match (op, &**left, &**right) {
                    (Eq, ScalarExpr::Col(c), ScalarExpr::Lit(_))
                    | (Eq, ScalarExpr::Lit(_), ScalarExpr::Col(c)) => {
                        1.0 / self.distinct_guarded(child, *c, path).max(1.0)
                    }
                    (Eq, ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
                        let da = self.distinct_guarded(child, *a, path).max(1.0);
                        let db = self.distinct_guarded(child, *b, path).max(1.0);
                        1.0 / da.max(db)
                    }
                    (Eq, ..) => 0.1,
                    (Ne, ..) => 0.9,
                    _ => 1.0 / 3.0,
                }
            }
            _ => 0.5,
        }
    }

    // -----------------------------------------------------------------
    // Distinct counts
    // -----------------------------------------------------------------

    /// Estimated distinct values in column `col` of a group's output.
    pub fn distinct(&mut self, g: GroupId, col: usize) -> f64 {
        let g = self.memo.find(g);
        self.distinct_guarded(g, col, &mut vec![])
    }

    fn distinct_guarded(&mut self, g: GroupId, col: usize, path: &mut Vec<GroupId>) -> f64 {
        let g = self.memo.find(g);
        if let Some(&d) = self.distinct_cache.get(&(g, col)) {
            return d;
        }
        if path.contains(&g) {
            return 1.0;
        }
        path.push(g);
        let raw = match self.repr_op(g, path) {
            Some(op) => self.op_distinct(op, col, path),
            None => 1.0,
        };
        path.pop();
        let card = self.card_guarded(g, path);
        let d = raw.min(card.max(1.0)).max(1.0);
        self.distinct_cache.insert((g, col), d);
        d
    }

    fn op_distinct(&mut self, op: OpId, col: usize, path: &mut Vec<GroupId>) -> f64 {
        let node = self.memo.op(op).op.clone();
        let children = self.memo.op_children(op);
        match node {
            OpKind::Scan { table } => self
                .catalog
                .table(&table)
                .map(|t| t.stats.distinct_or_card(col) as f64)
                .unwrap_or(1.0),
            OpKind::Select { .. } | OpKind::Distinct => {
                self.distinct_guarded(children[0], col, path)
            }
            OpKind::Project { exprs } => match exprs.get(col) {
                Some((ScalarExpr::Col(c), _)) => self.distinct_guarded(children[0], *c, path),
                _ => self.card_guarded(children[0], path),
            },
            OpKind::Join { .. } => {
                let la = self.memo.schema(children[0]).arity();
                if col < la {
                    self.distinct_guarded(children[0], col, path)
                } else {
                    self.distinct_guarded(children[1], col - la, path)
                }
            }
            OpKind::Aggregate { group_by, .. } => {
                if let Some(&gcol) = group_by.get(col) {
                    self.distinct_guarded(children[0], gcol, path)
                } else {
                    // Aggregate outputs: assume near-unique per group.
                    self.card_guarded(self.memo.op_group(op), path)
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Keys & match counts
    // -----------------------------------------------------------------

    /// Candidate keys of a group's output (derived from one representative
    /// tree).
    pub fn keys(&mut self, g: GroupId) -> Vec<Key> {
        let g = self.memo.find(g);
        if let Some(k) = self.key_cache.get(&g) {
            return k.clone();
        }
        let tree = self.memo.extract_one(g);
        let keys = derive_keys(&tree, self.catalog);
        self.key_cache.insert(g, keys.clone());
        keys
    }

    /// Estimated number of distinct value *combinations* of a column set.
    ///
    /// This is functional-dependency aware through keys: if the set covers
    /// a candidate key of the (sub-)expression the columns originate from,
    /// the combination count equals that expression's cardinality rather
    /// than the product of per-column counts. That is exactly the paper's
    /// Q3e arithmetic: on N4 = Emp ⋈ Dept, the binding (Dept.DName,
    /// Budget) has 1000 combinations (Budget is determined by the key
    /// DName), so one department matches 10000/1000 = 10 tuples.
    pub fn combined_distinct(&mut self, g: GroupId, cols: &[usize]) -> f64 {
        let set: BTreeSet<usize> = cols.iter().copied().collect();
        self.combined_distinct_guarded(self.memo.find(g), &set, &mut vec![])
    }

    fn combined_distinct_guarded(
        &mut self,
        g: GroupId,
        cols: &BTreeSet<usize>,
        path: &mut Vec<GroupId>,
    ) -> f64 {
        let g = self.memo.find(g);
        if cols.is_empty() {
            return 1.0;
        }
        let card = self.card(g).max(1.0);
        if self.keys(g).iter().any(|k| k.is_subset(cols)) {
            return card;
        }
        if path.contains(&g) {
            return 1.0;
        }
        path.push(g);
        let raw = match self.repr_op(g, path) {
            Some(op) => {
                let node = self.memo.op(op).op.clone();
                let children = self.memo.op_children(op);
                match node {
                    OpKind::Scan { table } => {
                        let stats = self.catalog.table(&table).map(|t| t.stats.clone());
                        match stats {
                            Ok(st) => cols
                                .iter()
                                .map(|&c| st.distinct_or_card(c) as f64)
                                .product(),
                            Err(_) => 1.0,
                        }
                    }
                    OpKind::Select { .. } | OpKind::Distinct => {
                        self.combined_distinct_guarded(children[0], cols, path)
                    }
                    OpKind::Project { exprs } => {
                        let mapped: Option<BTreeSet<usize>> = cols
                            .iter()
                            .map(|&c| match exprs.get(c) {
                                Some((ScalarExpr::Col(i), _)) => Some(*i),
                                _ => None,
                            })
                            .collect();
                        match mapped {
                            Some(m) => self.combined_distinct_guarded(children[0], &m, path),
                            None => card,
                        }
                    }
                    OpKind::Join { condition } => {
                        let la = self.memo.schema(children[0]).arity();
                        // Columns equated by the join condition carry the
                        // same value: keep one representative so equated
                        // columns don't multiply the combination count
                        // (Emp.DName ≡ Dept.DName yields one dimension,
                        // not two).
                        let mut cols = cols.clone();
                        for &(l, r) in &condition.equi {
                            if cols.contains(&l) && cols.contains(&(r + la)) {
                                cols.remove(&l);
                            }
                        }
                        let left: BTreeSet<usize> =
                            cols.iter().copied().filter(|&c| c < la).collect();
                        let right: BTreeSet<usize> =
                            cols.iter().filter(|&&c| c >= la).map(|&c| c - la).collect();
                        self.combined_distinct_guarded(children[0], &left, path)
                            * self.combined_distinct_guarded(children[1], &right, path)
                    }
                    OpKind::Aggregate { group_by, .. } => {
                        let mapped: Option<BTreeSet<usize>> =
                            cols.iter().map(|&c| group_by.get(c).copied()).collect();
                        match mapped {
                            Some(m) => self.combined_distinct_guarded(children[0], &m, path),
                            None => card,
                        }
                    }
                }
            }
            None => 1.0,
        };
        path.pop();
        raw.clamp(1.0, card)
    }

    /// Expected number of tuples of `g` matching a binding of the given
    /// columns: 1 if the columns cover a key, else cardinality over the
    /// FD-aware combined distinct count.
    pub fn matches(&mut self, g: GroupId, cols: &[usize]) -> f64 {
        let g = self.memo.find(g);
        let card = self.card(g);
        if cols.is_empty() {
            return card;
        }
        if card == 0.0 {
            return 0.0;
        }
        let set: BTreeSet<usize> = cols.iter().copied().collect();
        if self.keys(g).iter().any(|k| k.is_subset(&set)) {
            return 1.0;
        }
        let denom = self.combined_distinct(g, cols).max(1.0);
        (card / denom).clamp(1.0, card)
    }

    /// Estimated pages of a group's (hypothetical) materialization.
    pub fn pages(&mut self, g: GroupId) -> f64 {
        let g = self.memo.find(g);
        // Base tables know their packing; derived groups use the default.
        for op in self.memo.group_ops(g) {
            if let OpKind::Scan { table } = &self.memo.op(op).op {
                if let Ok(t) = self.catalog.table(table) {
                    return t.stats.pages() as f64;
                }
            }
        }
        let card = self.card(g);
        (card / spacetime_storage::relation::DEFAULT_TUPLES_PER_PAGE as f64).ceil()
    }

    // -----------------------------------------------------------------
    // Delta-size estimation
    // -----------------------------------------------------------------

    /// Estimated delta arriving at `g` when one table update of `txn` is
    /// propagated (sequential propagation: one updated table at a time).
    pub fn delta_for(&mut self, g: GroupId, update: &TableUpdate) -> DeltaEst {
        self.delta_guarded(self.memo.find(g), update, &mut vec![])
    }

    fn delta_guarded(
        &mut self,
        g: GroupId,
        update: &TableUpdate,
        path: &mut Vec<GroupId>,
    ) -> DeltaEst {
        let g = self.memo.find(g);
        if path.contains(&g) {
            return DeltaEst::NONE;
        }
        path.push(g);
        let result = match self.repr_op(g, path) {
            Some(op) => self.op_delta(op, update, path),
            None => DeltaEst::NONE,
        };
        path.pop();
        result
    }

    fn op_delta(&mut self, op: OpId, update: &TableUpdate, path: &mut Vec<GroupId>) -> DeltaEst {
        let node = self.memo.op(op).op.clone();
        let children = self.memo.op_children(op);
        match node {
            OpKind::Scan { table } => {
                if table == update.table {
                    DeltaEst {
                        size: update.size,
                        kind: update.kind,
                    }
                } else {
                    DeltaEst::NONE
                }
            }
            OpKind::Select { predicate } => {
                let d = self.delta_guarded(children[0], update, path);
                if d.is_zero() {
                    return d;
                }
                let sel = self.selectivity(&predicate, children[0], path);
                DeltaEst {
                    size: d.size * sel,
                    kind: d.kind,
                }
            }
            OpKind::Project { .. } => self.delta_guarded(children[0], update, path),
            OpKind::Join { condition } => {
                let (l, r) = (children[0], children[1]);
                let dl = self.delta_guarded(l, update, path);
                let dr = self.delta_guarded(r, update, path);
                let mut size = 0.0;
                let mut kind = UpdateKind::Modify;
                if !dl.is_zero() {
                    size += dl.size * self.matches(r, &condition.right_cols());
                    kind = dl.kind;
                }
                if !dr.is_zero() {
                    size += dr.size * self.matches(l, &condition.left_cols());
                    kind = dr.kind;
                }
                DeltaEst { size, kind }
            }
            OpKind::Aggregate { group_by, .. } => {
                let d = self.delta_guarded(children[0], update, path);
                if d.is_zero() {
                    return DeltaEst::NONE;
                }
                // One output row per affected group; updates to existing
                // groups are modifications of the aggregate values.
                let groups = self.card_guarded(self.memo.op_group(op), path).max(1.0);
                let _ = group_by;
                DeltaEst {
                    size: d.size.min(groups),
                    kind: UpdateKind::Modify,
                }
            }
            OpKind::Distinct => {
                let d = self.delta_guarded(children[0], update, path);
                let card = self.card_guarded(self.memo.op_group(op), path).max(1.0);
                DeltaEst {
                    size: d.size.min(card),
                    kind: d.kind,
                }
            }
        }
    }

    /// Estimated cost of physically applying a transaction's updates to a
    /// materialization of `g` (§3.4, "Cost of Performing Updates to V").
    pub fn update_apply_cost(&mut self, g: GroupId, txn: &TransactionType) -> Cost {
        let mut total = Cost::ZERO;
        for u in &txn.updates {
            let d = self.delta_for(g, u);
            if !d.is_zero() {
                total += self.model.apply_update(d.kind, d.size);
            }
        }
        total
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::PageIoCostModel;
    use crate::txn::TransactionType;
    use spacetime_algebra::{AggExpr, AggFunc, CmpOp, ExprNode, ExprTree};
    use spacetime_memo::{explore, Memo};
    use spacetime_storage::{DataType, Schema, TableStats};

    /// The paper's sample database: 1000 departments, 10000 employees,
    /// uniform distribution.
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
            TableStats::declared(10_000, [(0, 10_000), (1, 1_000), (2, 1_000)]);
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
            TableStats::declared(1_000, [(0, 1_000), (1, 900), (2, 500)]);
        cat
    }

    /// Figure 1 (right) tree.
    pub fn problem_dept_tree(cat: &Catalog) -> ExprTree {
        let emp = ExprNode::scan(cat, "Emp").unwrap();
        let dept = ExprNode::scan(cat, "Dept").unwrap();
        let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let agg = ExprNode::aggregate(
            join,
            vec![3, 5],
            vec![AggExpr::new(
                AggFunc::Sum,
                spacetime_algebra::ScalarExpr::col(2),
                "SalSum",
            )],
        )
        .unwrap();
        ExprNode::select(
            agg,
            spacetime_algebra::ScalarExpr::cmp(
                CmpOp::Gt,
                spacetime_algebra::ScalarExpr::col(2),
                spacetime_algebra::ScalarExpr::col(1),
            ),
        )
        .unwrap()
    }

    fn setup() -> (Catalog, Memo, GroupId) {
        let cat = paper_catalog();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&problem_dept_tree(&cat));
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);
        (cat, memo, root)
    }

    fn find_group(memo: &Memo, pred: impl Fn(&OpKind, &Memo, OpId) -> bool) -> GroupId {
        for g in memo.groups() {
            for op in memo.group_ops(g) {
                if pred(&memo.op(op).op, memo, op) {
                    return g;
                }
            }
        }
        panic!("group not found");
    }

    /// N3: aggregate directly over Emp.
    fn n3(memo: &Memo) -> GroupId {
        find_group(memo, |op, m, o| {
            matches!(op, OpKind::Aggregate { .. })
                && m.group_ops(m.op_children(o)[0])
                    .iter()
                    .any(|&c| matches!(&m.op(c).op, OpKind::Scan { table } if table == "Emp"))
        })
    }

    /// N4: the raw Emp ⋈ Dept join.
    fn n4(memo: &Memo) -> GroupId {
        find_group(memo, |op, m, o| {
            matches!(op, OpKind::Join { .. }) && m.op_children(o).iter().all(|&c| m.is_leaf(c))
        })
    }

    #[test]
    fn paper_cardinalities() {
        let (cat, memo, root) = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        assert_eq!(ctx.card(n4(&memo)), 10_000.0, "join preserves Emp rows");
        assert_eq!(ctx.card(n3(&memo)), 1_000.0, "one row per department");
        assert!(ctx.card(root) <= 1_000.0);
    }

    #[test]
    fn paper_match_counts() {
        let (cat, memo, _) = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        // "an indexed read of the Emp relation has a cost of 11 page I/Os"
        // ⇒ 10 matching tuples per department.
        let emp = find_group(
            &memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Emp"),
        );
        assert_eq!(ctx.matches(emp, &[1]), 10.0);
        // Dept is keyed on DName: exactly one match.
        let dept = find_group(
            &memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Dept"),
        );
        assert_eq!(ctx.matches(dept, &[0]), 1.0);
        // N3 output is keyed on its group column.
        assert_eq!(ctx.matches(n3(&memo), &[0]), 1.0);
        // N4 matched on (Dept.DName, Budget): 10 tuples (one department).
        assert_eq!(ctx.matches(n4(&memo), &[3, 5]), 10.0);
    }

    #[test]
    fn paper_delta_sizes() {
        let (cat, memo, _) = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        let t_emp = TransactionType::modify(">Emp", "Emp", 1.0);
        let t_dept = TransactionType::modify(">Dept", "Dept", 1.0);
        // "at node N4 … one update tuple for an update to the Emp relation,
        // but 10 update tuples for an update to the Dept relation".
        assert_eq!(ctx.delta_for(n4(&memo), &t_emp.updates[0]).size, 1.0);
        assert_eq!(ctx.delta_for(n4(&memo), &t_dept.updates[0]).size, 10.0);
        // N3 is unaffected by Dept updates.
        assert!(ctx.delta_for(n3(&memo), &t_dept.updates[0]).is_zero());
        assert_eq!(ctx.delta_for(n3(&memo), &t_emp.updates[0]).size, 1.0);
    }

    #[test]
    fn paper_maintenance_costs() {
        let (cat, memo, _) = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        let t_emp = TransactionType::modify(">Emp", "Emp", 1.0);
        let t_dept = TransactionType::modify(">Dept", "Dept", 1.0);
        // T2 of EXPERIMENTS.md: N3·>Emp = 3, N4·>Emp = 3, N4·>Dept = 21,
        // N3·>Dept = 0.
        assert_eq!(ctx.update_apply_cost(n3(&memo), &t_emp), Cost(3.0));
        assert_eq!(ctx.update_apply_cost(n3(&memo), &t_dept), Cost::ZERO);
        assert_eq!(ctx.update_apply_cost(n4(&memo), &t_emp), Cost(3.0));
        assert_eq!(ctx.update_apply_cost(n4(&memo), &t_dept), Cost(21.0));
    }

    #[test]
    fn selectivity_shapes() {
        let (cat, memo, _) = setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&memo, &cat, &model);
        let emp = find_group(
            &memo,
            |op, _, _| matches!(op, OpKind::Scan { table } if table == "Emp"),
        );
        // Distinct counts clamp to [1, card].
        assert_eq!(ctx.distinct(emp, 0), 10_000.0);
        assert_eq!(ctx.distinct(emp, 1), 1_000.0);
    }
}
