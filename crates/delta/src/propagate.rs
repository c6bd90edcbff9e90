//! Per-operator delta propagation.
//!
//! [`propagate`] computes the output delta of one operator node from a
//! delta on **one** of its inputs, posing queries on the other inputs via
//! [`InputAccess`] — the §2.2 model:
//!
//! > *"Consider a node N for the operation E₁ ⋈ E₂, and suppose an update
//! > ΔE₁ is propagated up to node N. … a query has to be posed to E₂ asking
//! > for all tuples that match ΔE₁ on the join attributes … When E₂ is a
//! > database relation, or a materialized view, a lookup is sufficient; in
//! > general, the query must be evaluated."*
//!
//! The rules assume **sequential propagation**: a transaction that updates
//! several base relations propagates one relation's delta at a time (states
//! are updated between propagations), so at any moment exactly one child of
//! a binary node carries a delta. `InputAccess::matching_all` must answer
//! with the *pre-update* state of the queried input.
//!
//! The aggregate rule realizes the paper's three costing regimes:
//!
//! 1. **Group-complete delta** ([`InputAccess::group_complete`]): the delta
//!    provably contains every tuple of each affected group (the Q3d
//!    key-elimination of §3.6) — no query at all.
//! 2. **Self-maintainable update**: no deletions, invertible aggregates,
//!    and the node's own output is materialized — the old row is read from
//!    the materialization and adjusted ("subtracting … and adding", §1);
//!    no input query (Q4e is not posed when N3 is materialized).
//! 3. **Input re-query**: otherwise, fetch the affected group's old tuples
//!    from the input (Q4e's 11 page I/Os when N3 is not materialized).

use std::borrow::Cow;

use spacetime_algebra::eval::aggregate_group;
use spacetime_algebra::kernel::{FusedProgram, KernelScratch, PairOutcome};
use spacetime_algebra::{AggExpr, AggFunc, ExprNode, JoinCondition, OpKind, ScalarExpr};
use spacetime_storage::{
    Bag, FxHashMap, StorageError, StorageResult, Tuple, Value,
};

use crate::delta::{Delta, Modify};

/// How the propagation rules read the (old) states they need.
///
/// Answers are `Cow<'_, Bag>`: **borrowed** when the answer already lies
/// in storage (an index bucket of a base relation or materialized view —
/// the row is read where it lies, nothing is copied), **owned** only when
/// it had to be derived. The two compare equal on equal content; callers
/// just iterate.
pub trait InputAccess {
    /// Tuples of input `child` whose `cols` project to each key, in the
    /// pre-update state — per key, the paper's "query posed on an
    /// equivalence node" — answered in one batch. **Positional**: the
    /// result has exactly `keys.len()` answers and answer `i` is
    /// `keys[i]`'s — an empty batch gives an empty vector, a key with no
    /// match an empty bag, a repeated key is posed (and charged) again.
    /// The rules collect each delta's distinct keys up front (sorted) and
    /// call this once per (child, cols), so implementations can amortize
    /// plan choice and index resolution across the whole delta; they
    /// charge lookup or evaluation cost per key as appropriate — batching
    /// may change wall-clock time, never the charged counters.
    fn matching_all(
        &mut self,
        child: usize,
        cols: &[usize],
        keys: &[Vec<Value>],
    ) -> StorageResult<Vec<Cow<'_, Bag>>>;

    /// The node's own old output rows whose `cols` project to `key`, *if*
    /// the node's output is materialized (borrowed from the
    /// materialization's index bucket when it has one); `None` when it is
    /// not.
    fn self_rows(&mut self, cols: &[usize], key: &[Value])
        -> StorageResult<Option<Cow<'_, Bag>>>;

    /// Whether the arriving delta is known to contain *all* tuples of every
    /// group it touches, w.r.t. the given grouping columns (established by
    /// key analysis on the update track; enables query-free maintenance).
    fn group_complete(&self, cols: &[usize]) -> bool {
        let _ = cols;
        false
    }
}

/// [`InputAccess`] over in-memory bags: children's old states held
/// directly, queries answered by filtering. Used by tests and by the
/// verification oracle; it also counts the queries it answers, so tests can
/// assert *which* queries a strategy poses (the paper's "Q4e is not posed"
/// checks).
#[derive(Debug, Default)]
pub struct BagAccess {
    /// Old state of each input.
    pub children: Vec<Bag>,
    /// Old output, if the node is materialized.
    pub self_output: Option<Bag>,
    /// Whether deltas are group-complete (see trait).
    pub complete: bool,
    /// Number of posed queries answered (one per key).
    pub queries_posed: usize,
}

impl BagAccess {
    /// Access over the given input states, not materialized.
    pub fn new(children: Vec<Bag>) -> Self {
        BagAccess {
            children,
            ..Default::default()
        }
    }

    /// Access with the node's own output materialized.
    pub fn materialized(children: Vec<Bag>, self_output: Bag) -> Self {
        BagAccess {
            children,
            self_output: Some(self_output),
            ..Default::default()
        }
    }
}

/// The tuples of `bag` whose `cols` equal `key`: the bag itself (borrowed)
/// when nothing is bound, a filtered copy otherwise.
fn filter_by_key<'b>(bag: &'b Bag, cols: &[usize], key: &[Value]) -> Cow<'b, Bag> {
    if cols.is_empty() {
        return Cow::Borrowed(bag);
    }
    Cow::Owned(
        bag.iter()
            .filter(|(t, _)| {
                cols.iter()
                    .zip(key)
                    .all(|(&c, kv)| t.get(c).map_or(kv.is_null(), |v| v == kv))
            })
            .map(|(t, c)| (t.clone(), c))
            .collect(),
    )
}

impl InputAccess for BagAccess {
    fn matching_all(
        &mut self,
        child: usize,
        cols: &[usize],
        keys: &[Vec<Value>],
    ) -> StorageResult<Vec<Cow<'_, Bag>>> {
        // One *posed query* per key.
        self.queries_posed += keys.len();
        let child = &self.children[child];
        Ok(keys
            .iter()
            .map(|key| filter_by_key(child, cols, key))
            .collect())
    }

    fn self_rows(
        &mut self,
        cols: &[usize],
        key: &[Value],
    ) -> StorageResult<Option<Cow<'_, Bag>>> {
        Ok(self
            .self_output
            .as_ref()
            .map(|b| filter_by_key(b, cols, key)))
    }

    fn group_complete(&self, _cols: &[usize]) -> bool {
        self.complete
    }
}

/// Compute the output delta of `node` given `delta` arriving on input
/// `delta_child` (0 for unary operators).
pub fn propagate(
    node: &ExprNode,
    delta_child: usize,
    delta: &Delta,
    access: &mut dyn InputAccess,
) -> StorageResult<Delta> {
    if delta.is_empty() {
        return Ok(Delta::new());
    }
    match &node.op {
        OpKind::Scan { .. } => Ok(delta.clone()),
        OpKind::Select { predicate } => propagate_select(predicate, delta),
        OpKind::Project { exprs } => propagate_project(exprs, delta),
        OpKind::Join { condition } => propagate_join(condition, delta_child, delta, access),
        OpKind::Aggregate { group_by, aggs } => propagate_aggregate(group_by, aggs, delta, access),
        OpKind::Distinct => propagate_distinct(node.schema.arity(), delta, access),
    }
}

// ---------------------------------------------------------------------
// Fused chains
// ---------------------------------------------------------------------

/// Propagate a delta through a whole compiled `Select`/`Project` chain in
/// one streaming pass — the fused equivalent of folding [`propagate`] over
/// each chain op, bit-identical by construction (each delta element's path
/// through the chain is independent; the kernel replicates the per-stage
/// modify splitting, and bag accumulation is order-free).
///
/// Chains pose no queries and charge no I/O in any mode, so fusion is a
/// pure wall-clock optimization: no intermediate `Delta` per operator, no
/// `Bag` churn for filtered tuples, and projection scratch comes from the
/// thread's transaction arena (reset, not freed, between updates).
pub fn propagate_chain(prog: &FusedProgram, delta: &Delta) -> StorageResult<Delta> {
    if delta.is_empty() {
        return Ok(Delta::new());
    }
    spacetime_storage::arena::with_arena(|arena| {
        let mut scratch = KernelScratch::from_bufs([
            arena.take_buf(),
            arena.take_buf(),
            arena.take_buf(),
            arena.take_buf(),
        ]);
        let result = run_chain(prog, delta, &mut scratch);
        for buf in scratch.into_bufs() {
            arena.put_buf(buf);
        }
        result
    })
}

fn run_chain(
    prog: &FusedProgram,
    delta: &Delta,
    scratch: &mut KernelScratch,
) -> StorageResult<Delta> {
    let mut out = Delta::new();
    for (t, c) in delta.inserts.iter() {
        if let Some(t2) = prog.apply_one(t, scratch)? {
            out.inserts.insert(t2, c);
        }
    }
    for (t, c) in delta.deletes.iter() {
        if let Some(t2) = prog.apply_one(t, scratch)? {
            out.deletes.insert(t2, c);
        }
    }
    for m in &delta.modifies {
        match prog.apply_pair(&m.old, &m.new, scratch)? {
            None => {}
            Some(PairOutcome::Modify(o, n)) => out.push_modify(o, n, m.count),
            Some(PairOutcome::DeleteOld(o)) => {
                out.deletes.insert(o, m.count);
            }
            Some(PairOutcome::InsertNew(n)) => {
                out.inserts.insert(n, m.count);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------

fn propagate_select(predicate: &ScalarExpr, delta: &Delta) -> StorageResult<Delta> {
    let mut out = Delta::new();
    for (t, c) in delta.inserts.iter() {
        if predicate.eval_predicate(t)? {
            out.inserts.insert(t.clone(), c);
        }
    }
    for (t, c) in delta.deletes.iter() {
        if predicate.eval_predicate(t)? {
            out.deletes.insert(t.clone(), c);
        }
    }
    for m in &delta.modifies {
        match (
            predicate.eval_predicate(&m.old)?,
            predicate.eval_predicate(&m.new)?,
        ) {
            (true, true) => out.push_modify(m.old.clone(), m.new.clone(), m.count),
            (true, false) => out.deletes.insert(m.old.clone(), m.count),
            (false, true) => out.inserts.insert(m.new.clone(), m.count),
            (false, false) => {}
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------

fn propagate_project(exprs: &[(ScalarExpr, String)], delta: &Delta) -> StorageResult<Delta> {
    let apply = |t: &Tuple| -> StorageResult<Tuple> {
        Ok(exprs
            .iter()
            .map(|(e, _)| e.eval(t))
            .collect::<StorageResult<Vec<Value>>>()?
            .into())
    };
    let mut out = Delta::new();
    for (t, c) in delta.inserts.iter() {
        out.inserts.insert(apply(t)?, c);
    }
    for (t, c) in delta.deletes.iter() {
        out.deletes.insert(apply(t)?, c);
    }
    for m in &delta.modifies {
        // `push_modify` drops pairs the projection made identical.
        out.push_modify(apply(&m.old)?, apply(&m.new)?, m.count);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------

fn key_of(t: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = t.get(c).cloned().unwrap_or(Value::Null);
        if v.is_null() {
            return None; // NULL never joins
        }
        key.push(v);
    }
    Some(key)
}

/// The tuples a rule keys its queries on, in the order the rules then
/// walk the delta: inserts, deletes, the old side of each modification.
fn keyed_tuples(d: &Delta) -> impl Iterator<Item = &Tuple> {
    d.inserts
        .iter()
        .chain(d.deletes.iter())
        .map(|(t, _)| t)
        .chain(d.modifies.iter().map(|m| &m.old))
}

/// Sort + dedup: the distinct keys in ascending order — the order a
/// `BTreeSet` would hand them out, so queries are posed and output rows
/// emitted in one deterministic order — and, per element, the
/// position of its key among them (`None` for an element without a key).
/// Batched answers are positional, so that position is all a rule needs.
fn distinct_keys(mut elem_keys: Vec<Option<Vec<Value>>>) -> (Vec<Vec<Value>>, Vec<Option<usize>>) {
    let mut order: Vec<usize> = (0..elem_keys.len())
        .filter(|&i| elem_keys[i].is_some())
        .collect();
    order.sort_unstable_by(|&a, &b| elem_keys[a].cmp(&elem_keys[b]));
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut slots = vec![None; elem_keys.len()];
    for i in order {
        let Some(key) = elem_keys[i].take() else {
            continue;
        };
        if keys.last() != Some(&key) {
            keys.push(key);
        }
        slots[i] = Some(keys.len() - 1);
    }
    (keys, slots)
}

/// The positional contract, checked once per batch so the rules can index
/// answers by key position: an access that answers fewer (or more) keys
/// than were posed is a typed error, not an indexing panic.
fn check_positional(keys: &[Vec<Value>], answers: &[Cow<'_, Bag>]) -> StorageResult<()> {
    let (posed, answered) = (keys.len(), answers.len());
    if answered == posed {
        return Ok(());
    }
    let what = format!("batched query posed {posed} keys and was answered {answered}");
    Err(StorageError::Internal(what))
}

fn propagate_join(
    condition: &JoinCondition,
    delta_child: usize,
    delta: &Delta,
    access: &mut dyn InputAccess,
) -> StorageResult<Delta> {
    debug_assert!(delta_child < 2, "join has two inputs");
    let (my_cols, other_cols) = if delta_child == 0 {
        (condition.left_cols(), condition.right_cols())
    } else {
        (condition.right_cols(), condition.left_cols())
    };
    let other_child = 1 - delta_child;
    // Keep modifications paired only when their join key is unchanged.
    let d = delta.split_modifies_on(&my_cols);

    let concat = |mine: &Tuple, other: &Tuple| -> Tuple {
        if delta_child == 0 {
            mine.concat(other)
        } else {
            other.concat(mine)
        }
    };
    let residual_ok = |joined: &Tuple| -> StorageResult<bool> {
        match &condition.residual {
            Some(r) => r.eval_predicate(joined),
            None => Ok(true),
        }
    };

    // Collect the delta's distinct join keys up front and pose *one*
    // batched query for all of them — one posed query per distinct key, as
    // the paper's cost tables assume, with plan choice amortized across
    // the delta by the access implementation.
    let (keys, slots) = distinct_keys(keyed_tuples(&d).map(|t| key_of(t, &my_cols)).collect());
    let matches = access.matching_all(other_child, &other_cols, &keys)?;
    check_positional(&keys, &matches)?;
    let mut slots = slots.into_iter();

    let mut out = Delta::new();
    for ((t, c), slot) in d.inserts.iter().zip(&mut slots) {
        let Some(slot) = slot else {
            continue;
        };
        for (o, oc) in matches[slot].iter() {
            let joined = concat(t, o);
            if residual_ok(&joined)? {
                out.inserts.insert(joined, c * oc);
            }
        }
    }
    for ((t, c), slot) in d.deletes.iter().zip(&mut slots) {
        let Some(slot) = slot else {
            continue;
        };
        for (o, oc) in matches[slot].iter() {
            let joined = concat(t, o);
            if residual_ok(&joined)? {
                out.deletes.insert(joined, c * oc);
            }
        }
    }
    for (m, slot) in d.modifies.iter().zip(&mut slots) {
        let Some(slot) = slot else {
            continue;
        };
        for (o, oc) in matches[slot].iter() {
            let old_j = concat(&m.old, o);
            let new_j = concat(&m.new, o);
            match (residual_ok(&old_j)?, residual_ok(&new_j)?) {
                (true, true) => out.push_modify(old_j, new_j, m.count * oc),
                (true, false) => out.deletes.insert(old_j, m.count * oc),
                (false, true) => out.inserts.insert(new_j, m.count * oc),
                (false, false) => {}
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------

/// One group's share of the arriving delta, by reference into it.
#[derive(Debug, Default)]
struct GroupDelta<'d> {
    ins: Vec<(&'d Tuple, u64)>,
    del: Vec<(&'d Tuple, u64)>,
    mods: Vec<&'d Modify>,
}

impl<'d> GroupDelta<'d> {
    /// The rows leaving the group: deletes and old sides.
    fn leaving(&self) -> impl Iterator<Item = (&'d Tuple, u64)> + '_ {
        let olds = self.mods.iter().map(|m| (&m.old, m.count));
        self.del.iter().copied().chain(olds)
    }

    /// The rows entering the group: new sides and inserts.
    fn entering(&self) -> impl Iterator<Item = (&'d Tuple, u64)> + '_ {
        let news = self.mods.iter().map(|m| (&m.new, m.count));
        news.chain(self.ins.iter().copied())
    }
}

/// The (old, new) output rows of one affected group.
type GroupRows = (Option<Tuple>, Option<Tuple>);

fn propagate_aggregate(
    group_by: &[usize],
    aggs: &[AggExpr],
    delta: &Delta,
    access: &mut dyn InputAccess,
) -> StorageResult<Delta> {
    // Modifications that move a tuple between groups become
    // delete-from-old-group + insert-into-new-group.
    let d = delta.split_modifies_on(group_by);

    // Affected groups in key order, each with its share of the delta.
    let key_of_t = |t: &Tuple| -> Option<Vec<Value>> {
        Some(
            group_by
                .iter()
                .map(|&c| t.get(c).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    };
    let (keys, slots) = distinct_keys(keyed_tuples(&d).map(key_of_t).collect());
    let mut groups: Vec<GroupDelta<'_>> = keys.iter().map(|_| GroupDelta::default()).collect();
    let mut slots = slots.into_iter().flatten();
    for (row, g) in d.inserts.iter().zip(&mut slots) {
        groups[g].ins.push(row);
    }
    for (row, g) in d.deletes.iter().zip(&mut slots) {
        groups[g].del.push(row);
    }
    for (m, g) in d.modifies.iter().zip(&mut slots) {
        groups[g].mods.push(m);
    }

    // Pass 1: resolve the query-free regimes (1 and 2) per group, in key
    // order, collecting the keys that need the regime-3 input re-query.
    let self_cols: Vec<usize> = (0..group_by.len()).collect();
    let mut resolved: Vec<Option<GroupRows>> = Vec::with_capacity(groups.len());
    let mut pending: Vec<Vec<Value>> = Vec::new();
    for (key, gd) in keys.into_iter().zip(&groups) {
        let rows = group_rows_query_free(group_by, aggs, &key, gd, &self_cols, access)?;
        if rows.is_none() {
            pending.push(key);
        }
        resolved.push(rows);
    }

    // One batched query fetches every re-queried group's old contents —
    // still one posed query per affected group, as §3.6 prices it (Q4e).
    let fetched = access.matching_all(0, group_by, &pending)?;
    check_positional(&pending, &fetched)?;
    let mut fetched = fetched.iter();

    // Pass 2: emit rows in key order, so the output delta does not depend
    // on how the delta's rows were ordered.
    let mut out = Delta::new();
    let mut leaving = FxHashMap::default();
    for (gd, rows) in groups.iter().zip(resolved) {
        let (old_row, new_row) = match rows {
            Some(rows) => rows,
            // One pending key per unresolved group, in this order.
            None => {
                let old_group = fetched.next().ok_or_else(|| {
                    StorageError::Internal("an unresolved group without a pending key".into())
                })?;
                group_rows_requeried(group_by, aggs, gd, old_group, &mut leaving)?
            }
        };
        match (old_row, new_row) {
            (None, None) => {}
            (None, Some(n)) => out.inserts.insert(n, 1),
            (Some(o), None) => out.deletes.insert(o, 1),
            (Some(o), Some(n)) => out.push_modify(o, n, 1),
        }
    }
    Ok(out)
}

/// Regimes 1 and 2: the group's (old, new) rows when no input query is
/// needed, or `None` when the group must fall through to the regime-3
/// re-query.
fn group_rows_query_free(
    group_by: &[usize],
    aggs: &[AggExpr],
    key: &[Value],
    gd: &GroupDelta<'_>,
    self_cols: &[usize],
    access: &mut dyn InputAccess,
) -> StorageResult<Option<GroupRows>> {
    // Regime 1: the delta contains the whole group — no query at all.
    if access.group_complete(group_by) {
        let old_row = aggregate_group(gd.leaving(), group_by, aggs)?;
        let new_row = aggregate_group(gd.entering(), group_by, aggs)?;
        return Ok(Some((old_row, new_row)));
    }

    // Regime 2: self-maintainable from the node's own materialization.
    let invertible_shape = gd.del.is_empty()
        && aggs.iter().all(|a| match a.func {
            AggFunc::Sum | AggFunc::Count => true,
            AggFunc::Min | AggFunc::Max => gd.mods.is_empty(), // insert-only
            AggFunc::Avg => false,
        });
    if invertible_shape {
        if let Some(rows) = access.self_rows(self_cols, key)? {
            let old_row = rows.iter().next().map(|(t, _)| t.clone());
            return match old_row {
                Some(old) => {
                    let new = adjust_row(&old, group_by, aggs, gd)?;
                    Ok(Some((Some(old), Some(new))))
                }
                None if gd.mods.is_empty() => {
                    // A brand-new group built entirely from inserts.
                    let new_row = aggregate_group(gd.ins.iter().copied(), group_by, aggs)?;
                    Ok(Some((None, new_row)))
                }
                None => Err(StorageError::TupleNotFound {
                    relation: "<materialized aggregate group>".into(),
                }),
            };
        }
    }
    Ok(None)
}

/// Regime 3: the group's (old, new) rows from its re-queried old contents,
/// folded in place: the old row over `old_group` as it lies, the new row
/// over the same rows less what leaves, then what enters — streamed, no
/// second bag. `leaving` is scratch reused across groups.
fn group_rows_requeried<'d>(
    group_by: &[usize],
    aggs: &[AggExpr],
    gd: &GroupDelta<'d>,
    old_group: &Bag,
    leaving: &mut FxHashMap<&'d Tuple, u64>,
) -> StorageResult<GroupRows> {
    leaving.clear();
    for (t, c) in gd.leaving() {
        *leaving.entry(t).or_insert(0) += c;
    }
    if leaving.iter().any(|(t, &c)| old_group.count(t) < c) {
        return Err(StorageError::TupleNotFound {
            relation: "<bag>".into(),
        });
    }
    let staying = old_group.iter().filter_map(|(t, c)| {
        let left = c - leaving.get(t).copied().unwrap_or(0);
        (left > 0).then_some((t, left))
    });
    let old_row = aggregate_group(old_group.iter(), group_by, aggs)?;
    let new_row = aggregate_group(staying.chain(gd.entering()), group_by, aggs)?;
    Ok((old_row, new_row))
}

/// Apply an invertible (insert/modify-only) delta to a materialized
/// aggregate row: the paper's "adding to or subtracting from the previous
/// aggregate values".
fn adjust_row(
    old: &Tuple,
    group_by: &[usize],
    aggs: &[AggExpr],
    gd: &GroupDelta<'_>,
) -> StorageResult<Tuple> {
    let mut values: Vec<Value> = old.values().to_vec();
    for (i, agg) in aggs.iter().enumerate() {
        let pos = group_by.len() + i;
        let current = values[pos].clone();
        values[pos] = match agg.func {
            AggFunc::Sum => {
                let mut running = if current.is_null() {
                    None
                } else {
                    Some(current)
                };
                for &(t, c) in &gd.ins {
                    accumulate(&mut running, agg, t, c as i64)?;
                }
                for m in &gd.mods {
                    accumulate(&mut running, agg, &m.new, m.count as i64)?;
                    accumulate(&mut running, agg, &m.old, -(m.count as i64))?;
                }
                running.unwrap_or(Value::Null)
            }
            AggFunc::Count => {
                let mut n = match current {
                    Value::Int(n) => n,
                    other => {
                        return Err(StorageError::TypeError(format!(
                            "COUNT column held {other}"
                        )))
                    }
                };
                for &(t, c) in &gd.ins {
                    if arg_non_null(agg, t)? {
                        n += c as i64;
                    }
                }
                for m in &gd.mods {
                    let was = arg_non_null(agg, &m.old)?;
                    let is = arg_non_null(agg, &m.new)?;
                    n += (is as i64 - was as i64) * m.count as i64;
                }
                Value::Int(n)
            }
            AggFunc::Min | AggFunc::Max => {
                // Insert-only (guaranteed by the caller's shape check).
                let mut best = if current.is_null() {
                    None
                } else {
                    Some(current)
                };
                for &(t, _) in &gd.ins {
                    if let Some(arg) = eval_arg(agg, t)? {
                        let better = match (&best, agg.func) {
                            (None, _) => true,
                            (Some(b), AggFunc::Min) => arg < *b,
                            (Some(b), AggFunc::Max) => arg > *b,
                            _ => unreachable!(),
                        };
                        if better {
                            best = Some(arg);
                        }
                    }
                }
                best.unwrap_or(Value::Null)
            }
            AggFunc::Avg => unreachable!("AVG never takes the invertible path"),
        };
    }
    Ok(Tuple::new(values))
}

fn eval_arg(agg: &AggExpr, t: &Tuple) -> StorageResult<Option<Value>> {
    match &agg.arg {
        Some(e) => {
            let v = e.eval(t)?;
            Ok(if v.is_null() { None } else { Some(v) })
        }
        None => Ok(None),
    }
}

fn arg_non_null(agg: &AggExpr, t: &Tuple) -> StorageResult<bool> {
    match &agg.arg {
        Some(e) => Ok(!e.eval(t)?.is_null()),
        None => Ok(true), // COUNT(*)
    }
}

fn accumulate(
    running: &mut Option<Value>,
    agg: &AggExpr,
    t: &Tuple,
    signed_count: i64,
) -> StorageResult<()> {
    if let Some(arg) = eval_arg(agg, t)? {
        let contribution = arg.mul(&Value::Int(signed_count))?;
        *running = Some(match running.take() {
            Some(r) => r.add(&contribution)?,
            None => contribution,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------

fn propagate_distinct(
    arity: usize,
    delta: &Delta,
    access: &mut dyn InputAccess,
) -> StorageResult<Delta> {
    let all_cols: Vec<usize> = (0..arity).collect();
    // One batched query over the net delta's distinct tuples (sorted for a
    // deterministic posing order); answers come back in the same order.
    let mut net: Vec<(Tuple, i64)> = delta.net().into_iter().collect();
    net.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let keys: Vec<Vec<Value>> = net.iter().map(|(t, _)| t.values().to_vec()).collect();
    let counts = access.matching_all(0, &all_cols, &keys)?;
    check_positional(&keys, &counts)?;
    let mut out = Delta::new();
    for ((t, signed), old) in net.into_iter().zip(&counts) {
        let old_count = old.len() as i64;
        let new_count = old_count + signed;
        if new_count < 0 {
            return Err(StorageError::TupleNotFound {
                relation: "<distinct input>".into(),
            });
        }
        match (old_count > 0, new_count > 0) {
            (false, true) => out.inserts.insert(t, 1),
            (true, false) => out.deletes.insert(t, 1),
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_algebra::eval::eval_uncharged;
    use spacetime_algebra::scalar::CmpOp;
    use spacetime_storage::{tuple, Catalog, DataType, Schema};

    fn catalog() -> Catalog {
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
        cat
    }

    fn emp_bag() -> Bag {
        [
            (tuple!["alice", "Sales", 100], 1),
            (tuple!["bob", "Sales", 80], 1),
            (tuple!["carol", "Eng", 120], 1),
        ]
        .into_iter()
        .collect()
    }

    fn dept_bag() -> Bag {
        [
            (tuple!["Sales", "mary", 150], 1),
            (tuple!["Eng", "nick", 200], 1),
        ]
        .into_iter()
        .collect()
    }

    /// Oracle check: new_output(op over updated inputs) ==
    /// old_output + propagated delta.
    fn check_against_recompute(
        node: &ExprNode,
        cat: &Catalog,
        child_bags: Vec<Bag>,
        delta_child: usize,
        delta: &Delta,
        materialized_self: bool,
    ) {
        // Load old states into a fresh catalog so eval sees them.
        let mut cat2 = cat.clone();
        for (i, name) in node.leaf_tables().iter().enumerate() {
            cat2.table_mut(name)
                .unwrap()
                .relation
                .load(child_bags[i].clone())
                .unwrap();
        }
        let old_out = eval_uncharged(node, &cat2).unwrap();

        let mut access = if materialized_self {
            BagAccess::materialized(child_bags.clone(), old_out.clone())
        } else {
            BagAccess::new(child_bags.clone())
        };
        let d_out = propagate(node, delta_child, delta, &mut access).unwrap();

        // Apply the child delta and recompute.
        let mut new_children = child_bags;
        delta.apply_to(&mut new_children[delta_child]).unwrap();
        for (i, name) in node.leaf_tables().iter().enumerate() {
            cat2.table_mut(name)
                .unwrap()
                .relation
                .load(new_children[i].clone())
                .unwrap();
        }
        let expect = eval_uncharged(node, &cat2).unwrap();

        let mut got = old_out;
        d_out.apply_to(&mut got).unwrap();
        assert_eq!(got, expect, "incremental != recomputed for {node}");
    }

    #[test]
    fn select_splits_modifies_by_predicate() {
        let p = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(100));
        let mut d = Delta::new();
        d.push_modify(tuple!["a", "S", 90], tuple!["a", "S", 120], 1); // enters
        d.push_modify(tuple!["b", "S", 120], tuple!["b", "S", 90], 1); // leaves
        d.push_modify(tuple!["c", "S", 110], tuple!["c", "S", 130], 1); // stays
        d.push_modify(tuple!["d", "S", 50], tuple!["d", "S", 60], 1); // never in
        let out = propagate_select(&p, &d).unwrap();
        assert_eq!(out.inserts.count(&tuple!["a", "S", 120]), 1);
        assert_eq!(out.deletes.count(&tuple!["b", "S", 120]), 1);
        assert_eq!(out.modifies.len(), 1);
        assert_eq!(out.modifies[0].new, tuple!["c", "S", 130]);
    }

    #[test]
    fn join_preserves_same_key_modify_pairs() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let j = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        // Salary modification: join key unchanged.
        let d = Delta::modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
        );
        let mut access = BagAccess::new(vec![emp_bag(), dept_bag()]);
        let out = propagate(&j, 0, &d, &mut access).unwrap();
        assert_eq!(out.modifies.len(), 1);
        assert!(out.inserts.is_empty() && out.deletes.is_empty());
        assert_eq!(
            out.modifies[0].new,
            tuple!["alice", "Sales", 130, "Sales", "mary", 150]
        );
        assert_eq!(access.queries_posed, 1, "one lookup for one key");
    }

    #[test]
    fn join_delta_on_right_side() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let j = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        // Budget modification joins with the 2 Sales employees.
        let d = Delta::modify(
            tuple!["Sales", "mary", 150],
            tuple!["Sales", "mary", 170],
            1,
        );
        let mut access = BagAccess::new(vec![emp_bag(), dept_bag()]);
        let out = propagate(&j, 1, &d, &mut access).unwrap();
        assert_eq!(out.modifies.len(), 2);
        check_against_recompute(&j, &cat, vec![emp_bag(), dept_bag()], 1, &d, false);
    }

    #[test]
    fn join_key_change_becomes_delete_insert() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let j = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let d = Delta::modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Eng", 100],
            1,
        );
        let mut access = BagAccess::new(vec![emp_bag(), dept_bag()]);
        let out = propagate(&j, 0, &d, &mut access).unwrap();
        assert!(out.modifies.is_empty());
        assert_eq!(out.deletes.len(), 1);
        assert_eq!(out.inserts.len(), 1);
        check_against_recompute(&j, &cat, vec![emp_bag(), dept_bag()], 0, &d, false);
    }

    #[test]
    fn join_insert_delete_against_recompute() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let j = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let mut d = Delta::insert(tuple!["dave", "Eng", 70], 1);
        d.deletes.insert(tuple!["bob", "Sales", 80], 1);
        check_against_recompute(&j, &cat, vec![emp_bag(), dept_bag()], 0, &d, false);
    }

    fn sum_of_sals(cat: &Catalog) -> ExprTreeAlias {
        let emp = ExprNode::scan(cat, "Emp").unwrap();
        ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap()
    }
    type ExprTreeAlias = std::sync::Arc<ExprNode>;

    #[test]
    fn aggregate_self_maintainable_poses_no_input_query() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        let old_out: Bag = [(tuple!["Sales", 180], 1), (tuple!["Eng", 120], 1)]
            .into_iter()
            .collect();
        let d = Delta::modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
        );
        let mut access = BagAccess::materialized(vec![emp_bag()], old_out);
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert_eq!(access.queries_posed, 0, "the paper: Q4e is not posed");
        assert_eq!(out.modifies.len(), 1);
        assert_eq!(out.modifies[0].old, tuple!["Sales", 180]);
        assert_eq!(out.modifies[0].new, tuple!["Sales", 210]);
    }

    #[test]
    fn aggregate_not_materialized_queries_input() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        let d = Delta::modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
        );
        let mut access = BagAccess::new(vec![emp_bag()]);
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert_eq!(access.queries_posed, 1, "the paper: Q4e is posed");
        assert_eq!(out.modifies.len(), 1);
        assert_eq!(out.modifies[0].new, tuple!["Sales", 210]);
    }

    #[test]
    fn aggregate_group_complete_poses_no_query() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        // Delta contains the entire Sales group (key analysis proved it).
        let mut d = Delta::new();
        d.push_modify(
            tuple!["alice", "Sales", 100],
            tuple!["alice", "Sales", 130],
            1,
        );
        d.push_modify(tuple!["bob", "Sales", 80], tuple!["bob", "Sales", 90], 1);
        let mut access = BagAccess::new(vec![emp_bag()]);
        access.complete = true;
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert_eq!(access.queries_posed, 0, "the paper: Q3d generates no I/O");
        assert_eq!(out.modifies.len(), 1);
        assert_eq!(out.modifies[0].old, tuple!["Sales", 180]);
        assert_eq!(out.modifies[0].new, tuple!["Sales", 220]);
    }

    #[test]
    fn aggregate_group_appears_and_disappears() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        // New department appears.
        let d = Delta::insert(tuple!["zoe", "HR", 90], 1);
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, false);
        // Last member of Eng leaves: group disappears.
        let d = Delta::delete(tuple!["carol", "Eng", 120], 1);
        let mut access = BagAccess::new(vec![emp_bag()]);
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert_eq!(out.deletes.count(&tuple!["Eng", 120]), 1);
        assert!(out.inserts.is_empty() && out.modifies.is_empty());
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, false);
    }

    #[test]
    fn aggregate_transfer_between_groups() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        let d = Delta::modify(tuple!["bob", "Sales", 80], tuple!["bob", "Eng", 80], 1);
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, false);
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, true);
    }

    #[test]
    fn aggregate_min_max_deletion_requeries() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![
                AggExpr::new(AggFunc::Max, ScalarExpr::col(2), "TopSal"),
                AggExpr::new(AggFunc::Min, ScalarExpr::col(2), "LowSal"),
            ],
        )
        .unwrap();
        // Delete the Sales maximum: must re-query even when materialized.
        let d = Delta::delete(tuple!["alice", "Sales", 100], 1);
        let old_out: Bag = [(tuple!["Sales", 100, 80], 1), (tuple!["Eng", 120, 120], 1)]
            .into_iter()
            .collect();
        let mut access = BagAccess::materialized(vec![emp_bag()], old_out);
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert!(access.queries_posed > 0);
        assert_eq!(out.modifies.len(), 1);
        assert_eq!(out.modifies[0].new, tuple!["Sales", 80, 80]);
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, true);
    }

    #[test]
    fn aggregate_min_max_insert_only_is_self_maintainable() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Max, ScalarExpr::col(2), "TopSal")],
        )
        .unwrap();
        let d = Delta::insert(tuple!["zed", "Sales", 500], 1);
        let old_out: Bag = [(tuple!["Sales", 100], 1), (tuple!["Eng", 120], 1)]
            .into_iter()
            .collect();
        let mut access = BagAccess::materialized(vec![emp_bag()], old_out);
        let out = propagate(&agg, 0, &d, &mut access).unwrap();
        assert_eq!(access.queries_posed, 0);
        assert_eq!(out.modifies[0].new, tuple!["Sales", 500]);
    }

    #[test]
    fn aggregate_avg_never_self_maintains() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Avg, ScalarExpr::col(2), "AvgSal")],
        )
        .unwrap();
        let d = Delta::insert(tuple!["zed", "Sales", 90], 1);
        let old_out: Bag = [(tuple!["Sales", 90.0], 1), (tuple!["Eng", 120.0], 1)]
            .into_iter()
            .collect();
        let mut access = BagAccess::materialized(vec![emp_bag()], old_out);
        let _ = propagate(&agg, 0, &d, &mut access).unwrap();
        assert!(access.queries_posed > 0, "AVG requires the input query");
        check_against_recompute(&agg, &cat, vec![emp_bag()], 0, &d, true);
    }

    #[test]
    fn distinct_emits_only_threshold_crossings() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let proj = ExprNode::project_cols(emp, &[1]).unwrap();
        let dist = ExprNode::distinct(proj).unwrap();
        // Child (projection output) old state: Sales x2, Eng x1.
        let child: Bag = [(tuple!["Sales"], 2), (tuple!["Eng"], 1)]
            .into_iter()
            .collect();
        // Insert another Sales (no output change), delete the only Eng.
        let mut d = Delta::insert(tuple!["Sales"], 1);
        d.deletes.insert(tuple!["Eng"], 1);
        let mut access = BagAccess::new(vec![child]);
        let out = propagate(&dist, 0, &d, &mut access).unwrap();
        assert!(out.inserts.is_empty());
        assert_eq!(out.deletes.count(&tuple!["Eng"]), 1);
    }

    #[test]
    fn project_drops_invisible_modifies() {
        let exprs = vec![(ScalarExpr::col(1), "DName".to_string())];
        let d = Delta::modify(tuple!["a", "Sales", 100], tuple!["a", "Sales", 130], 1);
        let out = propagate_project(&exprs, &d).unwrap();
        assert!(
            out.is_empty(),
            "salary change invisible after projecting DName"
        );
    }

    #[test]
    fn fused_chain_matches_stepwise_propagation() {
        // Emp → σ(Salary>90) → π(DName, Salary+1) → σ(col1>95)
        let ops = [
            OpKind::Select {
                predicate: ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(90)),
            },
            OpKind::Project {
                exprs: vec![
                    (ScalarExpr::col(1), "DName".into()),
                    (
                        ScalarExpr::bin(
                            spacetime_algebra::BinOp::Add,
                            ScalarExpr::col(2),
                            ScalarExpr::lit(1),
                        ),
                        "SalPlus".into(),
                    ),
                ],
            },
            OpKind::Select {
                predicate: ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(95)),
            },
        ];
        let prog = FusedProgram::compile(&ops).unwrap();
        let mut d = Delta::new();
        d.inserts.insert(tuple!["zoe", "HR", 120], 2);
        d.inserts.insert(tuple!["ann", "HR", 40], 1);
        d.deletes.insert(tuple!["bob", "Sales", 100], 1);
        d.push_modify(tuple!["cat", "Eng", 80], tuple!["cat", "Eng", 130], 1); // enters
        d.push_modify(tuple!["dan", "Eng", 130], tuple!["dan", "Eng", 80], 1); // leaves
        d.push_modify(tuple!["eve", "Eng", 120], tuple!["eve", "Eng", 140], 1); // stays
        d.push_modify(tuple!["fay", "Ops", 91], tuple!["fay", "Ops", 92], 3); // dropped late
        // Stepwise: fold the per-operator rules over the chain.
        let mut stepwise = d.clone();
        for op in &ops {
            stepwise = match op {
                OpKind::Select { predicate } => propagate_select(predicate, &stepwise).unwrap(),
                OpKind::Project { exprs } => propagate_project(exprs, &stepwise).unwrap(),
                _ => unreachable!(),
            };
        }
        let fused = propagate_chain(&prog, &d).unwrap();
        assert_eq!(fused.inserts, stepwise.inserts);
        assert_eq!(fused.deletes, stepwise.deletes);
        assert_eq!(fused.modifies, stepwise.modifies);
    }

    #[test]
    fn batched_answers_are_positional() {
        let null_dept = tuple!["nul", Value::Null, 5];
        let mut child = emp_bag();
        child.insert(null_dept.clone(), 2);
        let sales = vec![Value::str("Sales")];
        // A duplicate key, a key with no match, a NULL-bearing key.
        let keys = vec![
            sales.clone(),
            vec![Value::str("HR")],
            sales,
            vec![Value::Null],
            vec![Value::str("Eng")],
        ];
        let mut access = BagAccess::new(vec![child.clone()]);
        let answers = access.matching_all(0, &[1], &keys).unwrap();
        let sizes: Vec<u64> = answers.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [2, 0, 2, 2, 1], "one answer per key, in order");
        assert_eq!(answers[0], answers[2], "a repeated key is answered again");
        assert_eq!(answers[3].count(&null_dept), 2);
        assert!(answers[4].contains(&tuple!["carol", "Eng", 120]));
        drop(answers);
        assert_eq!(access.queries_posed, keys.len(), "and posed again");

        // An empty batch: no answers, nothing posed.
        assert!(access.matching_all(0, &[1], &[]).unwrap().is_empty());
        assert_eq!(access.queries_posed, keys.len());

        // Probe columns in an order no tuple stores them in.
        let keys = vec![
            vec![Value::Int(80), Value::str("bob")],
            vec![Value::Int(80), Value::str("alice")],
            vec![Value::Int(100), Value::str("alice")],
        ];
        let answers = access.matching_all(0, &[2, 0], &keys).unwrap();
        let sizes: Vec<u64> = answers.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [1, 0, 1]);

        // With nothing bound the answer *is* the child, borrowed.
        let borrowed = access.matching_all(0, &[], &[vec![]]).unwrap();
        assert!(matches!(borrowed[0], Cow::Borrowed(_)));
        assert_eq!(*borrowed[0], child);
    }

    #[test]
    fn distinct_keys_sorts_dedups_and_places_every_element() {
        let k = |s: &str| Some(vec![Value::str(s)]);
        let (keys, slots) = distinct_keys(vec![k("b"), None, k("a"), k("b"), k("c"), k("a")]);
        assert_eq!(
            keys,
            [vec![Value::str("a")], vec![Value::str("b")], vec![Value::str("c")]],
            "ascending, as a BTreeSet would iterate"
        );
        assert_eq!(slots, [Some(1), None, Some(0), Some(1), Some(2), Some(0)]);
        assert_eq!(distinct_keys(vec![]), (vec![], vec![]));
    }

    #[test]
    fn empty_delta_short_circuits() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        let mut access = BagAccess::new(vec![emp_bag()]);
        let out = propagate(&agg, 0, &Delta::new(), &mut access).unwrap();
        assert!(out.is_empty());
        assert_eq!(access.queries_posed, 0);
    }

    #[test]
    fn inconsistent_delete_is_detected() {
        let cat = catalog();
        let agg = sum_of_sals(&cat);
        let d = Delta::delete(tuple!["ghost", "Sales", 1], 1);
        let mut access = BagAccess::new(vec![emp_bag()]);
        assert!(propagate(&agg, 0, &d, &mut access).is_err());
    }
}
