//! Runtime evaluation of posed queries.
//!
//! During delta propagation, queries are posed on equivalence nodes
//! (§2.2). This module *executes* them, following the same plan space the
//! cost model priced: a query on a base relation or materialized view is
//! an index lookup; a query on any other node is answered through the
//! operation-node alternative with the lowest estimated cost, pushing the
//! binding down. Executing the plans the optimizer priced is what makes
//! the engine's *measured* page I/Os comparable to the *estimated* ones.
//!
//! Answers are `Cow<'a, Bag>` over the catalog's lifetime: a query that
//! resolves to a stored relation **borrows** the index bucket (or the
//! whole relation, for a scan) where it lies; only an answer derived
//! through an operator is owned. Batched answers ([`QueryExec::query_all`])
//! are positional — one per key, in `keys` order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

use spacetime_algebra::eval::{aggregate_bag, join_bags};
use spacetime_algebra::{JoinCondition, OpKind, ScalarExpr};
use spacetime_cost::{Cost, CostCtx, Marking};
use spacetime_memo::{GroupId, Memo, OpId};
use spacetime_obs::{self as obs, names as metric};
use spacetime_storage::{
    Bag, Catalog, FxHashMap, HashIndex, IoMeter, Relation, StorageError, StorageResult, Value,
};

/// Cached runtime plan decisions, shared across updates.
///
/// [`CostCtx`] borrows the catalog, which is mutated on every commit, so
/// the *context* cannot outlive one update — but the *decisions* it
/// produces depend only on the memo, the marking, and table statistics,
/// and statistics change only on `analyze()`. Caching the chosen `OpId`
/// per (group, bound columns) therefore reproduces exactly the plan a
/// fresh cost context would pick, while skipping the costing recursion on
/// every posed query after the first.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Best op per (group, bound column set); `None` = group has no ops.
    bound: Mutex<BoundPlans>,
    /// Best op per group for a full (unbound) evaluation.
    full: Mutex<FxHashMap<GroupId, Option<OpId>>>,
}

type BoundPlans = FxHashMap<GroupId, FxHashMap<Vec<usize>, Option<OpId>>>;

/// Executes queries over the DAG against the catalog.
pub struct QueryExec<'a> {
    /// The expression DAG.
    pub memo: &'a Memo,
    /// Storage (base tables and materialized views).
    pub catalog: &'a Catalog,
    /// Materialized groups → backing table name.
    pub materialized: &'a BTreeMap<GroupId, String>,
    /// The same set as a cost-model marking (an engine lends the one it
    /// built once; a standalone executor collects its own).
    pub marking: Cow<'a, Marking>,
    /// Cached plan choices (batched data plane); `None` re-costs per query.
    plans: Option<&'a PlanCache>,
}

impl<'a> QueryExec<'a> {
    /// Build an executor for a set of materializations.
    pub fn new(
        memo: &'a Memo,
        catalog: &'a Catalog,
        materialized: &'a BTreeMap<GroupId, String>,
    ) -> Self {
        QueryExec {
            memo,
            catalog,
            materialized,
            marking: Cow::Owned(materialized.keys().copied().collect()),
            plans: None,
        }
    }

    /// The engine's executor: `marking` is `materialized`'s key set, built
    /// once per engine instead of once per update.
    pub(crate) fn with_marking(
        memo: &'a Memo,
        catalog: &'a Catalog,
        materialized: &'a BTreeMap<GroupId, String>,
        marking: &'a Marking,
    ) -> Self {
        QueryExec {
            memo,
            catalog,
            materialized,
            marking: Cow::Borrowed(marking),
            plans: None,
        }
    }

    /// Reuse cached plan decisions across posed queries and updates.
    pub fn with_plans(mut self, plans: &'a PlanCache) -> Self {
        self.plans = Some(plans);
        self
    }

    /// All tuples of `g` whose `cols` equal `key`: borrowed from storage
    /// when `g` is a stored relation, owned when derived.
    pub fn query(
        &self,
        g: GroupId,
        cols: &[usize],
        key: &[Value],
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        let g = self.memo.find(g);
        if cols.is_empty() {
            return self.full_eval(g, ctx, io);
        }
        if let Some(table) = self.backing_table(g) {
            return self.stored_lookup(table, cols, key, io);
        }
        let Some(op) = self.best_query_op(g, cols, ctx) else {
            return Ok(Cow::Borrowed(Bag::empty()));
        };
        self.query_via_op(op, cols, key, ctx, io)
    }

    /// Batched variant of [`QueryExec::query`]: answer one posed query per
    /// key — answer `i` is `keys[i]`'s — resolving the plan (and any index
    /// choice) once for the whole batch. Charges exactly the I/O the
    /// per-key path would — batching is a wall-clock optimization, never
    /// an accounting one.
    pub fn query_all(
        &self,
        g: GroupId,
        cols: &[usize],
        keys: &[Vec<Value>],
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
    ) -> StorageResult<Vec<Cow<'a, Bag>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let g = self.memo.find(g);
        if cols.is_empty() {
            return keys.iter().map(|_| self.full_eval(g, ctx, io)).collect();
        }
        if let Some(table) = self.backing_table(g) {
            return self.stored_lookup_all(table, cols, keys, io);
        }
        let Some(op) = self.best_query_op(g, cols, ctx) else {
            return Ok(vec![Cow::Borrowed(Bag::empty()); keys.len()]);
        };
        keys.iter()
            .map(|key| self.query_via_op(op, cols, key, ctx, io))
            .collect()
    }

    /// The cheapest alternative for answering a bound query on `g`,
    /// exactly as the optimizer priced it (first strictly-cheaper op wins,
    /// matching the costing loop's tie-break). Cached when a [`PlanCache`]
    /// is attached.
    fn best_query_op(&self, g: GroupId, cols: &[usize], ctx: &mut CostCtx<'_>) -> Option<OpId> {
        if let Some(pc) = self.plans {
            obs::counter_add(metric::PLAN_CACHE_LOOKUPS, 1);
            let cache = pc.bound.lock().unwrap_or_else(|e| e.into_inner());
            // Borrowed lookup: `Vec<usize>: Borrow<[usize]>`, so a cache
            // hit never allocates a key.
            if let Some(&choice) = cache.get(&g).and_then(|per_cols| per_cols.get(cols)) {
                obs::counter_add(metric::PLAN_CACHE_HITS, 1);
                return choice;
            }
            obs::counter_add(metric::PLAN_CACHE_MISSES, 1);
        }
        let mut best: Option<(Cost, OpId)> = None;
        for op in self.memo.group_ops(g) {
            let c = ctx.op_query_cost(op, cols, &self.marking);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, op));
            }
        }
        let choice = best.map(|(_, op)| op);
        if let Some(pc) = self.plans {
            pc.bound
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(g)
                .or_default()
                .insert(cols.to_vec(), choice);
        }
        choice
    }

    /// The stored relation backing `g`, if any (base table or MV).
    fn backing_table(&self, g: GroupId) -> Option<&'a str> {
        let g = self.memo.find(g);
        if let Some(t) = self.materialized.get(&g) {
            return Some(t.as_str());
        }
        if self.memo.is_leaf(g) {
            for op in self.memo.group_ops(g) {
                if let OpKind::Scan { table } = &self.memo.op(op).op {
                    return Some(table.as_str());
                }
            }
        }
        None
    }

    /// Index lookup (or filtered scan when no index fits) on a stored
    /// relation.
    fn stored_lookup(
        &self,
        table: &str,
        cols: &[usize],
        key: &[Value],
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        let rel = &self.catalog.table(table)?.relation;
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

    fn query_via_op(
        &self,
        op: OpId,
        cols: &[usize],
        key: &[Value],
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        // Borrow the op node rather than cloning it: `OpKind` owns
        // predicate/expression trees, and this runs once per posed query.
        let node = &self.memo.op(op).op;
        let children = self.memo.op_children(op);
        let derived = match node {
            OpKind::Scan { table } => return self.stored_lookup(table, cols, key, io),
            OpKind::Select { predicate } => {
                let r = self.query(children[0], cols, key, ctx, io)?;
                filter_pred(&r, predicate)?
            }
            OpKind::Distinct => {
                let r = self.query(children[0], cols, key, ctx, io)?;
                r.iter().map(|(t, _)| (t.clone(), 1)).collect()
            }
            OpKind::Project { exprs } => {
                let mapped: Option<Vec<usize>> = cols
                    .iter()
                    .map(|&c| match exprs.get(c) {
                        Some((ScalarExpr::Col(i), _)) => Some(*i),
                        _ => None,
                    })
                    .collect();
                let input = match mapped {
                    Some(m) => self.query(children[0], &m, key, ctx, io)?,
                    None => self.full_eval(children[0], ctx, io)?,
                };
                let projected = spacetime_algebra::eval::project_bag(&input, exprs)?;
                filter_binding(&projected, cols, key)
            }
            OpKind::Aggregate { group_by, aggs } => {
                let mapped: Option<Vec<usize>> =
                    cols.iter().map(|&c| group_by.get(c).copied()).collect();
                let input = match mapped {
                    Some(m) => self.query(children[0], &m, key, ctx, io)?,
                    None => self.full_eval(children[0], ctx, io)?,
                };
                let out = aggregate_bag(&input, group_by, aggs)?;
                filter_binding(&out, cols, key)
            }
            OpKind::Join { condition } => {
                self.query_join(condition, children, cols, key, ctx, io)?
            }
        };
        Ok(Cow::Owned(derived))
    }

    fn query_join(
        &self,
        condition: &JoinCondition,
        children: Vec<GroupId>,
        cols: &[usize],
        key: &[Value],
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
    ) -> StorageResult<Bag> {
        let (a, b) = (children[0], children[1]);
        let la = self.memo.schema(a).arity();
        let lp: Vec<(usize, Value)> = cols
            .iter()
            .zip(key)
            .filter(|(&c, _)| c < la)
            .map(|(&c, v)| (c, v.clone()))
            .collect();
        let rp: Vec<(usize, Value)> = cols
            .iter()
            .zip(key)
            .filter(|(&c, _)| c >= la)
            .map(|(&c, v)| (c - la, v.clone()))
            .collect();
        let lcols = condition.left_cols();
        let rcols = condition.right_cols();

        // Drive from the bound side; probe the other per distinct join key.
        let (drive_left, outer) = if rp.is_empty() || !lp.is_empty() {
            let (c, k): (Vec<usize>, Vec<Value>) = lp.iter().cloned().unzip();
            (true, self.query(a, &c, &k, ctx, io)?)
        } else {
            let (c, k): (Vec<usize>, Vec<Value>) = rp.iter().cloned().unzip();
            (false, self.query(b, &c, &k, ctx, io)?)
        };

        let (my_cols, other_cols, other_group) = if drive_left {
            (&lcols, &rcols, b)
        } else {
            (&rcols, &lcols, a)
        };
        let mut cache: BTreeMap<Vec<Value>, Cow<'a, Bag>> = BTreeMap::new();
        let mut out = Bag::new();
        // One probe buffer reused across outer tuples; match bags are
        // borrowed from the cache, never cloned per tuple.
        let mut probe: Vec<Value> = Vec::with_capacity(my_cols.len());
        for (t, c) in outer.iter() {
            probe.clear();
            let mut null = false;
            for &mc in my_cols.iter() {
                let v = t.get(mc).cloned().unwrap_or(Value::Null);
                if v.is_null() {
                    null = true;
                    break;
                }
                probe.push(v);
            }
            if null {
                continue;
            }
            if !cache.contains_key(probe.as_slice()) {
                let m = self.query(other_group, other_cols, &probe, ctx, io)?;
                cache.insert(probe.clone(), m);
            }
            let matches = &cache[probe.as_slice()];
            for (o, oc) in matches.iter() {
                let joined = if drive_left { t.concat(o) } else { o.concat(t) };
                if let Some(res) = &condition.residual {
                    if !res.eval_predicate(&joined)? {
                        continue;
                    }
                }
                out.insert(joined, c * oc);
            }
        }
        Ok(filter_binding(&out, cols, key))
    }

    /// Cheapest full evaluation among the alternatives; mirrors the cost
    /// model by summing children's full-eval costs. Cached when a
    /// [`PlanCache`] is attached.
    fn best_full_op(&self, g: GroupId, ctx: &mut CostCtx<'_>) -> Option<OpId> {
        if let Some(pc) = self.plans {
            obs::counter_add(metric::PLAN_CACHE_LOOKUPS, 1);
            let cache = pc.full.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&choice) = cache.get(&g) {
                obs::counter_add(metric::PLAN_CACHE_HITS, 1);
                return choice;
            }
            obs::counter_add(metric::PLAN_CACHE_MISSES, 1);
        }
        let mut best: Option<(Cost, OpId)> = None;
        for op in self.memo.group_ops(g) {
            let cost: Cost = self
                .memo
                .op_children(op)
                .into_iter()
                .map(|c| ctx.full_eval_cost(c, &self.marking))
                .sum();
            if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                best = Some((cost, op));
            }
        }
        let choice = best.map(|(_, op)| op);
        if let Some(pc) = self.plans {
            pc.full.lock().unwrap_or_else(|e| e.into_inner()).insert(g, choice);
        }
        choice
    }

    /// Fully evaluate a group (used when a binding cannot be pushed). A
    /// stored relation is scanned where it lies — charged, not copied.
    pub fn full_eval(
        &self,
        g: GroupId,
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
    ) -> StorageResult<Cow<'a, Bag>> {
        let g = self.memo.find(g);
        if let Some(table) = self.backing_table(g) {
            return Ok(Cow::Borrowed(self.catalog.table(table)?.relation.scan(io)));
        }
        let Some(op) = self.best_full_op(g, ctx) else {
            return Ok(Cow::Borrowed(Bag::empty()));
        };
        let node = &self.memo.op(op).op;
        let children = self.memo.op_children(op);
        let derived = match node {
            OpKind::Scan { table } => {
                return Ok(Cow::Borrowed(self.catalog.table(table)?.relation.scan(io)));
            }
            OpKind::Select { predicate } => {
                let input = self.full_eval(children[0], ctx, io)?;
                filter_pred(&input, predicate)?
            }
            OpKind::Project { exprs } => {
                let input = self.full_eval(children[0], ctx, io)?;
                spacetime_algebra::eval::project_bag(&input, exprs)?
            }
            OpKind::Distinct => {
                let input = self.full_eval(children[0], ctx, io)?;
                input.iter().map(|(t, _)| (t.clone(), 1)).collect()
            }
            OpKind::Aggregate { group_by, aggs } => {
                let input = self.full_eval(children[0], ctx, io)?;
                aggregate_bag(&input, group_by, aggs)?
            }
            OpKind::Join { condition } => {
                let left = self.full_eval(children[0], ctx, io)?;
                let right = self.full_eval(children[1], ctx, io)?;
                join_bags(&left, &right, condition)?
            }
        };
        Ok(Cow::Owned(derived))
    }
}

/// The positions in `cols` of each of index `idx`'s key columns. An exact
/// index's key columns are a permutation of `cols` by definition; a
/// mismatch is an index-bookkeeping bug surfaced as a typed error rather
/// than an indexing panic.
pub(crate) fn index_key_remap(
    rel: &Relation,
    idx: usize,
    cols: &[usize],
) -> StorageResult<Vec<usize>> {
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
pub(crate) fn permuted_key(remap: &[usize], key: &[Value]) -> StorageResult<Vec<Value>> {
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
pub fn filter_binding(bag: &Bag, cols: &[usize], key: &[Value]) -> Bag {
    bag.iter()
        .filter(|(t, _)| {
            cols.iter()
                .zip(key)
                .all(|(&c, kv)| t.get(c).map_or(kv.is_null(), |v| v == kv))
        })
        .map(|(t, c)| (t.clone(), c))
        .collect()
}

fn filter_pred(bag: &Bag, predicate: &ScalarExpr) -> StorageResult<Bag> {
    let mut out = Bag::new();
    for (t, c) in bag.iter() {
        if predicate.eval_predicate(t)? {
            out.insert(t.clone(), c);
        }
    }
    Ok(out)
}
