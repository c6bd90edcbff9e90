//! Posed queries: resolved once at build, executed on every update.
//!
//! During delta propagation, queries are posed on equivalence nodes
//! (§2.2). Which query a compiled track step can pose is known when the
//! track is compiled — a join poses its other child on the join columns,
//! an aggregate its child on the group columns, a distinct its child on
//! every column — so [`resolve`] plans each of them then, as §3.4's
//! "standard query optimization problem", with the engine's build-time
//! [`CostCtx`]: a query on a base relation or materialized view reads the
//! stored relation; a query on any other node goes through the
//! operation-node alternative with the lowest estimated cost, pushing the
//! binding down, and so on recursively. The result is an [`Access`] tree,
//! and [`QueryExec`] only runs it: executing the plans the optimizer priced
//! is what makes the engine's *measured* page I/Os comparable to the
//! *estimated* ones.
//!
//! Which index answers a stored read is the one choice left to run time
//! (`Relation::find_exact_index`), so an index created after the view is
//! still used.
//!
//! Answers are `Cow<'a, Bag>` over the catalog's lifetime: a query that
//! resolves to a stored relation **borrows** the index bucket (or the
//! whole relation, for a scan) where it lies; only an answer derived
//! through an operator is owned. Batched answers ([`QueryExec::query_all`])
//! are positional — one per key, in `keys` order.

use std::borrow::Cow;
use std::collections::BTreeMap;

use spacetime_algebra::eval::{aggregate_bag, filter_bag, join_bags, project_bag};
use spacetime_algebra::{JoinCondition, OpKind, ScalarExpr};
use spacetime_cost::{Cost, CostCtx, Marking};
use spacetime_memo::{GroupId, Memo, OpId};
use spacetime_storage::{
    Bag, Catalog, HashIndex, IoMeter, Relation, StorageError, StorageResult, Value,
};

use crate::{IvmError, IvmResult};

/// A posed query resolved at build: how "the tuples of a group whose
/// `cols` equal a key" is answered — all of the group's tuples when `cols`
/// is empty.
#[derive(Debug)]
pub struct Access {
    /// The bound columns (empty: the whole group).
    pub(crate) cols: Vec<usize>,
    plan: Plan,
}

#[derive(Debug)]
enum Plan {
    /// A base table or materialized view, read where it lies: an index
    /// probe when an index fits the columns, a scan otherwise.
    Stored(String),
    /// A group with no alternative: every answer is empty.
    Empty,
    /// Through one op of the group, over its inputs' accesses: bound on
    /// the same key where the binding pushes through the op column for
    /// column, whole otherwise (and always, for a join's).
    Op { op: OpKind, inputs: Vec<Access> },
    /// A bound join: the side holding the binding is queried on its part
    /// of the key, the other side probed once per distinct join key.
    Probe {
        condition: JoinCondition,
        drive_left: bool,
        /// The positions of the binding's key that the driving side is
        /// queried on.
        outer_key: Vec<usize>,
        outer: Box<Access>,
        /// The driving side's join columns, read off each of its tuples.
        outer_join_cols: Vec<usize>,
        inner: Box<Access>,
    },
}

impl Access {
    /// How the access reads its group, as the propagation trace renders
    /// it: an exact index probe of the stored relation (possibly with
    /// permuted key columns), a scan of it, or `derived` through an
    /// operator.
    pub(crate) fn via(&self, catalog: &Catalog) -> String {
        let Plan::Stored(table) = &self.plan else {
            return "derived".to_string();
        };
        if self.cols.is_empty() {
            return format!("scan({table})");
        }
        match catalog
            .table(table)
            .ok()
            .and_then(|t| t.relation.find_exact_index(&self.cols))
        {
            Some((_, false)) => format!("index({table})"),
            Some((_, true)) => format!("index({table}) permuted"),
            None => format!("scan({table})"),
        }
    }
}

/// Resolve the query "tuples of `g` whose `cols` equal a key" (all of
/// `g` when `cols` is empty) under the materializations `materialized`,
/// choosing at every derived node the alternative `ctx` prices cheapest
/// (the first strictly cheaper op wins, as in the costing loop). A node
/// revisited on its own resolution path is an [`IvmError::Internal`], as
/// the cost model's guard prices it infinite.
pub fn resolve(
    ctx: &mut CostCtx<'_>,
    materialized: &BTreeMap<GroupId, String>,
    g: GroupId,
    cols: &[usize],
) -> IvmResult<Access> {
    let marking: Marking = materialized.keys().copied().collect();
    Resolver {
        ctx,
        materialized,
        marking,
        path: Vec::new(),
    }
    .resolve(g, cols)
}

struct Resolver<'r, 'c> {
    ctx: &'r mut CostCtx<'c>,
    materialized: &'r BTreeMap<GroupId, String>,
    marking: Marking,
    /// The groups being resolved, outermost first.
    path: Vec<GroupId>,
}

impl Resolver<'_, '_> {
    fn resolve(&mut self, g: GroupId, cols: &[usize]) -> IvmResult<Access> {
        let memo = self.ctx.memo;
        let g = memo.find(g);
        let plan = if let Some(table) = stored_table(memo, self.materialized, g) {
            Plan::Stored(table)
        } else {
            match self.best_op(g, cols) {
                None => Plan::Empty,
                Some(op) => {
                    if self.path.contains(&g) {
                        return Err(IvmError::Internal(format!(
                            "the query on N{} {cols:?} reaches N{} again",
                            self.path[0].0, g.0
                        )));
                    }
                    self.path.push(g);
                    let plan = self.derive(op, cols);
                    self.path.pop();
                    plan?
                }
            }
        };
        Ok(Access {
            cols: cols.to_vec(),
            plan,
        })
    }

    /// The cheapest alternative of `g` for a bound query on `cols`, or for
    /// a full evaluation (the sum of its children's) when `cols` is empty.
    fn best_op(&mut self, g: GroupId, cols: &[usize]) -> Option<OpId> {
        let memo = self.ctx.memo;
        let mut best: Option<(Cost, OpId)> = None;
        for op in memo.group_ops(g) {
            let c = if cols.is_empty() {
                memo.op_children(op)
                    .into_iter()
                    .map(|c| self.ctx.full_eval_cost(c, &self.marking))
                    .sum()
            } else {
                self.ctx.op_query_cost(op, cols, &self.marking)
            };
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, op));
            }
        }
        best.map(|(_, op)| op)
    }

    fn derive(&mut self, op: OpId, cols: &[usize]) -> IvmResult<Plan> {
        let memo = self.ctx.memo;
        let children = memo.op_children(op);
        let kind = &memo.op(op).op;
        // Each input's bound columns; `None` evaluates it whole.
        let pushed: Option<Vec<usize>> = match kind {
            OpKind::Join { condition } if !cols.is_empty() => {
                return self.derive_probe(condition, &children, cols);
            }
            OpKind::Scan { .. } | OpKind::Join { .. } => None,
            OpKind::Select { .. } | OpKind::Distinct => Some(cols.to_vec()),
            OpKind::Project { exprs } => cols
                .iter()
                .map(|&c| match exprs.get(c) {
                    Some((ScalarExpr::Col(i), _)) => Some(*i),
                    _ => None,
                })
                .collect(),
            OpKind::Aggregate { group_by, .. } => {
                cols.iter().map(|&c| group_by.get(c).copied()).collect()
            }
        };
        let pushed = pushed.unwrap_or_default();
        let inputs = children
            .into_iter()
            .map(|c| self.resolve(c, &pushed))
            .collect::<IvmResult<_>>()?;
        Ok(Plan::Op {
            op: kind.clone(),
            inputs,
        })
    }

    /// A bound join drives from the side the binding lies on (the left
    /// when it lies on both) and probes the other on the join columns.
    fn derive_probe(
        &mut self,
        condition: &JoinCondition,
        children: &[GroupId],
        cols: &[usize],
    ) -> IvmResult<Plan> {
        let la = self.ctx.memo.schema(children[0]).arity();
        let on_left = |&(_, &c): &(usize, &usize)| c < la;
        let drive_left = cols.iter().enumerate().any(|p| on_left(&p))
            || cols.iter().enumerate().all(|p| on_left(&p));
        let (outer_key, outer_cols): (Vec<usize>, Vec<usize>) = cols
            .iter()
            .enumerate()
            .filter(|p| on_left(p) == drive_left)
            .map(|(i, &c)| (i, if drive_left { c } else { c - la }))
            .unzip();
        let (l, r) = (condition.left_cols(), condition.right_cols());
        let ((outer_join_cols, outer_group), (inner_cols, inner_group)) = if drive_left {
            ((l, children[0]), (r, children[1]))
        } else {
            ((r, children[1]), (l, children[0]))
        };
        Ok(Plan::Probe {
            condition: condition.clone(),
            drive_left,
            outer_key,
            outer: Box::new(self.resolve(outer_group, &outer_cols)?),
            outer_join_cols,
            inner: Box::new(self.resolve(inner_group, &inner_cols)?),
        })
    }
}

/// The stored relation backing `g`, if any: its materialization, or the
/// base table a leaf scans.
fn stored_table(
    memo: &Memo,
    materialized: &BTreeMap<GroupId, String>,
    g: GroupId,
) -> Option<String> {
    if let Some(t) = materialized.get(&g) {
        return Some(t.clone());
    }
    if !memo.is_leaf(g) {
        return None;
    }
    memo.group_ops(g)
        .into_iter()
        .find_map(|op| match &memo.op(op).op {
            OpKind::Scan { table } => Some(table.clone()),
            _ => None,
        })
}

/// Runs resolved [`Access`]es against one pre-update catalog.
pub struct QueryExec<'a> {
    /// Storage (base tables and materialized views).
    pub catalog: &'a Catalog,
}

impl<'a> QueryExec<'a> {
    /// An executor over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        QueryExec { catalog }
    }

    /// All tuples `access` answers for `key` (ignored when the access is
    /// unbound): borrowed from storage when the access reads a stored
    /// relation, owned when derived.
    pub fn query(
        &self,
        access: &Access,
        key: &[Value],
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        let cols = access.cols.as_slice();
        let derived = match &access.plan {
            Plan::Stored(table) => return self.stored_lookup(table, cols, key, io),
            Plan::Empty => return Ok(Cow::Borrowed(Bag::empty())),
            Plan::Op { op, inputs } => {
                // A whole input ignores the key, so every input is handed it.
                let mut input = |i: usize| self.query(&inputs[i], key, io);
                match op {
                    OpKind::Scan { table } => return self.stored_lookup(table, cols, key, io),
                    OpKind::Select { predicate } => filter_bag(&*input(0)?, predicate)?,
                    OpKind::Distinct => input(0)?.iter().map(|(t, _)| (t.clone(), 1)).collect(),
                    OpKind::Project { exprs } => bind(project_bag(&*input(0)?, exprs)?, cols, key),
                    OpKind::Aggregate { group_by, aggs } => {
                        bind(aggregate_bag(&*input(0)?, group_by, aggs)?, cols, key)
                    }
                    OpKind::Join { condition } => join_bags(&*input(0)?, &*input(1)?, condition)?,
                }
            }
            Plan::Probe {
                condition,
                drive_left,
                outer_key,
                outer,
                outer_join_cols,
                inner,
            } => {
                let outer = self.query(outer, &permuted_key(outer_key, key)?, io)?;
                let mut cache: BTreeMap<Vec<Value>, Cow<'a, Bag>> = BTreeMap::new();
                let mut out = Bag::new();
                // One probe buffer reused across outer tuples; match bags
                // are borrowed from the cache, never cloned per tuple.
                let mut probe: Vec<Value> = Vec::with_capacity(outer_join_cols.len());
                for (t, c) in outer.iter() {
                    probe.clear();
                    probe.extend(
                        outer_join_cols
                            .iter()
                            .map(|&mc| t.get(mc).cloned().unwrap_or(Value::Null)),
                    );
                    if probe.iter().any(Value::is_null) {
                        continue;
                    }
                    if !cache.contains_key(probe.as_slice()) {
                        let m = self.query(inner, &probe, io)?;
                        cache.insert(probe.clone(), m);
                    }
                    for (o, oc) in cache[probe.as_slice()].iter() {
                        let joined = if *drive_left {
                            t.concat(o)
                        } else {
                            o.concat(t)
                        };
                        if let Some(res) = &condition.residual {
                            if !res.eval_predicate(&joined)? {
                                continue;
                            }
                        }
                        out.insert(joined, c * oc);
                    }
                }
                filter_binding(&out, cols, key)
            }
        };
        Ok(Cow::Owned(derived))
    }

    /// Batched variant of [`QueryExec::query`]: answer `i` is `keys[i]`'s,
    /// with a stored relation's index resolved once for the whole batch.
    /// Charges exactly the I/O of one [`QueryExec::query`] per key —
    /// batching is a wall-clock optimization, never an accounting one.
    pub fn query_all(
        &self,
        access: &Access,
        keys: &[Vec<Value>],
        io: &mut IoMeter,
    ) -> StorageResult<Vec<Cow<'a, Bag>>> {
        match &access.plan {
            Plan::Stored(table) if !access.cols.is_empty() && !keys.is_empty() => {
                self.stored_lookup_all(table, &access.cols, keys, io)
            }
            _ => keys.iter().map(|key| self.query(access, key, io)).collect(),
        }
    }

    /// Index lookup (or filtered scan when no index fits) on a stored
    /// relation; a scan where it lies when `cols` is empty.
    pub(crate) fn stored_lookup(
        &self,
        table: &str,
        cols: &[usize],
        key: &[Value],
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        let rel = &self.catalog.table(table)?.relation;
        if cols.is_empty() {
            return Ok(Cow::Borrowed(rel.scan(io)));
        }
        match rel.find_exact_index(cols) {
            // Order-matching index: probe with the key verbatim.
            Some((idx, false)) => Ok(Cow::Borrowed(rel.lookup(idx, key, io))),
            // Same column set, different order: permute the key once.
            Some((idx, true)) => {
                let remap = index_key_remap(rel, idx, cols)?;
                let probe = permuted_key(&remap, key)?;
                Ok(Cow::Borrowed(rel.lookup(idx, &probe, io)))
            }
            // Fallback: scan and filter (charged as a scan).
            None => Ok(Cow::Owned(filter_binding(rel.scan(io), cols, key))),
        }
    }

    /// Batched stored lookups: resolve the index once, probe per key. With
    /// no usable index, *one* physical pass partitions the relation on
    /// `cols`, but every key is still charged a full scan — the §3.6 cost
    /// model prices each posed query independently, and the measured
    /// counters must keep matching the estimates.
    fn stored_lookup_all(
        &self,
        table: &str,
        cols: &[usize],
        keys: &[Vec<Value>],
        io: &mut IoMeter,
    ) -> StorageResult<Vec<Cow<'a, Bag>>> {
        let rel = &self.catalog.table(table)?.relation;
        match rel.find_exact_index(cols) {
            Some((idx, false)) => Ok(keys
                .iter()
                .map(|key| Cow::Borrowed(rel.lookup(idx, key, io)))
                .collect()),
            Some((idx, true)) => {
                // Compute the key permutation once for the whole batch.
                let remap = index_key_remap(rel, idx, cols)?;
                keys.iter()
                    .map(|key| {
                        let probe = permuted_key(&remap, key)?;
                        Ok(Cow::Borrowed(rel.lookup(idx, &probe, io)))
                    })
                    .collect()
            }
            None => {
                let pages = rel.pages();
                let mut partition = HashIndex::new(cols.to_vec());
                partition.rebuild(rel.data());
                Ok(keys
                    .iter()
                    .map(|key| {
                        io.scan_pages(pages);
                        Cow::Owned(partition.probe(key).cloned().unwrap_or_default())
                    })
                    .collect())
            }
        }
    }
}

/// The positions in `cols` of each of index `idx`'s key columns. An exact
/// index's key columns are a permutation of `cols` by definition; a
/// mismatch is an index-bookkeeping bug surfaced as a typed error rather
/// than an indexing panic.
fn index_key_remap(rel: &Relation, idx: usize, cols: &[usize]) -> StorageResult<Vec<usize>> {
    rel.index_key_cols(idx)
        .iter()
        .map(|c| {
            cols.iter().position(|x| x == c).ok_or_else(|| {
                StorageError::Internal(
                    "exact index key columns not a permutation of the probe columns".into(),
                )
            })
        })
        .collect()
}

/// `key` rearranged into an index's column order by [`index_key_remap`]'s
/// positions; a key shorter than the probe columns is a typed error, not
/// an indexing panic.
fn permuted_key(remap: &[usize], key: &[Value]) -> StorageResult<Vec<Value>> {
    remap
        .iter()
        .map(|&i| {
            key.get(i).cloned().ok_or_else(|| {
                StorageError::Internal("probe key shorter than its probe columns".into())
            })
        })
        .collect()
}

/// Keep tuples whose `cols` equal `key`.
fn filter_binding(bag: &Bag, cols: &[usize], key: &[Value]) -> Bag {
    bag.iter()
        .filter(|(t, _)| {
            cols.iter()
                .zip(key)
                .all(|(&c, kv)| t.get(c).map_or(kv.is_null(), |v| v == kv))
        })
        .map(|(t, c)| (t.clone(), c))
        .collect()
}

/// [`filter_binding`], skipped for an unbound answer.
fn bind(bag: Bag, cols: &[usize], key: &[Value]) -> Bag {
    if cols.is_empty() {
        bag
    } else {
        filter_binding(&bag, cols, key)
    }
}
