//! The executor: evaluate an expression tree to a [`Bag`], charging page
//! I/Os to an [`IoMeter`] per the paper's physical model.
//!
//! The executor performs lightweight *access-path selection*, because the
//! paper's cost arithmetic depends on it: a query like "find the Emp tuples
//! of one department" must run as an index probe (1 index page + k tuple
//! pages), not a scan. Concretely:
//!
//! * `Select` over a `Scan` with literal-equality conjuncts covering an
//!   index key probes the index and filters any residual conjuncts.
//! * `Join` probes an indexed side when the other side is (or is expected
//!   to be) small; otherwise it hash-joins full scans.
//!
//! SQL semantics notes: predicates use three-valued logic (unknown rows are
//! filtered out), equi-joins never match on NULL keys, and aggregates
//! ignore NULL arguments.

use std::collections::HashMap;

use spacetime_storage::{
    Bag, Catalog, FxHashMap, IoMeter, StorageError, StorageResult, Table, Tuple, Value,
};

use crate::ops::{AggExpr, AggFunc, JoinCondition, OpKind};
use crate::scalar::{CmpOp, ScalarExpr};
use crate::tree::ExprNode;

/// Evaluate `node` against `catalog`, charging I/O to `io`.
pub fn eval(node: &ExprNode, catalog: &Catalog, io: &mut IoMeter) -> StorageResult<Bag> {
    match &node.op {
        OpKind::Scan { table } => {
            let t = catalog.table(table)?;
            Ok(t.relation.scan(io).clone())
        }
        OpKind::Select { predicate } => eval_select(node, predicate, catalog, io),
        OpKind::Project { exprs } => {
            let input = eval(&node.children[0], catalog, io)?;
            project_bag(&input, exprs)
        }
        OpKind::Join { condition } => eval_join(node, condition, catalog, io),
        OpKind::Aggregate { group_by, aggs } => {
            let input = eval(&node.children[0], catalog, io)?;
            aggregate_bag(&input, group_by, aggs)
        }
        OpKind::Distinct => {
            let input = eval(&node.children[0], catalog, io)?;
            Ok(input.iter().map(|(t, _)| (t.clone(), 1)).collect())
        }
    }
}

/// Evaluate without counting I/O (verification oracles, initial loads).
pub fn eval_uncharged(node: &ExprNode, catalog: &Catalog) -> StorageResult<Bag> {
    let mut io = IoMeter::new();
    eval(node, catalog, &mut io)
}

/// Apply a projection to every tuple of a bag.
pub fn project_bag(input: &Bag, exprs: &[(ScalarExpr, String)]) -> StorageResult<Bag> {
    let mut out = Bag::new();
    for (t, c) in input.iter() {
        let projected: Tuple = exprs
            .iter()
            .map(|(e, _)| e.eval(t))
            .collect::<StorageResult<Vec<Value>>>()?
            .into();
        out.insert(projected, c);
    }
    Ok(out)
}

/// Filter a bag by a predicate (three-valued; unknown rows dropped).
pub fn filter_bag(input: &Bag, predicate: &ScalarExpr) -> StorageResult<Bag> {
    let mut out = Bag::new();
    for (t, c) in input.iter() {
        if predicate.eval_predicate(t)? {
            out.insert(t.clone(), c);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------

fn eval_select(
    node: &ExprNode,
    predicate: &ScalarExpr,
    catalog: &Catalog,
    io: &mut IoMeter,
) -> StorageResult<Bag> {
    // Access path: Select(Scan) with literal equalities covering an index.
    if let OpKind::Scan { table } = &node.children[0].op {
        let t = catalog.table(table)?;
        let (bound, residual) = split_eq_literals(predicate);
        if !bound.is_empty() {
            if let Some((index_id, key)) = covering_index(t, &bound) {
                let hits = t.relation.lookup(index_id, &key, io);
                return match residual {
                    Some(res) => filter_bag(hits, &res),
                    None => Ok(hits.clone()),
                };
            }
        }
    }
    let input = eval(&node.children[0], catalog, io)?;
    filter_bag(&input, predicate)
}

/// Split a predicate into literal-equality bindings (`col = literal`) and
/// the residual conjuncts. Returns the residual re-assembled as a
/// predicate, or `None` when everything was consumed.
fn split_eq_literals(pred: &ScalarExpr) -> (HashMap<usize, Value>, Option<ScalarExpr>) {
    let conjuncts: Vec<&ScalarExpr> = match pred {
        ScalarExpr::And(parts) => parts.iter().collect(),
        other => vec![other],
    };
    let mut bound = HashMap::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        match c {
            ScalarExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } => match (&**left, &**right) {
                (ScalarExpr::Col(i), ScalarExpr::Lit(v))
                | (ScalarExpr::Lit(v), ScalarExpr::Col(i))
                    if !v.is_null() && !bound.contains_key(i) =>
                {
                    bound.insert(*i, v.clone());
                }
                _ => residual.push(c.clone()),
            },
            _ => residual.push(c.clone()),
        }
    }
    let residual = match residual.len() {
        0 => None,
        1 => Some(residual.pop().expect("len checked")),
        _ => Some(ScalarExpr::And(residual)),
    };
    (bound, residual)
}

/// Find an index of `t` whose key columns are all bound, and build the
/// probe key in index order. Unused bindings are fine (they stay in the
/// residual, which `split_eq_literals` preserved separately — we therefore
/// only use an index when it consumes *all* bindings, keeping filtering
/// exact).
fn covering_index(t: &Table, bound: &HashMap<usize, Value>) -> Option<(usize, Vec<Value>)> {
    for (index_id, cols) in t.relation.index_defs().into_iter().enumerate() {
        if cols.len() == bound.len() && cols.iter().all(|c| bound.contains_key(c)) {
            let key = cols.iter().map(|c| bound[c].clone()).collect();
            return Some((index_id, key));
        }
    }
    // Fall back to an index covered by a subset of the bindings: probe it
    // and let the caller filter the rest. Prefer the longest such index.
    let mut best: Option<(usize, Vec<usize>)> = None;
    for (index_id, cols) in t.relation.index_defs().into_iter().enumerate() {
        if cols.iter().all(|c| bound.contains_key(c))
            && best.as_ref().is_none_or(|(_, b)| cols.len() > b.len())
        {
            best = Some((index_id, cols));
        }
    }
    best.map(|(id, cols)| {
        let key = cols.iter().map(|c| bound[c].clone()).collect();
        (id, key)
    })
}

// ---------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------

/// A probe-able join input: a scan (possibly filtered) with a hash index
/// on exactly the join columns.
struct ProbeSide {
    table: String,
    index_id: usize,
    /// Probe-key order: for each equi pair (in order), where that column
    /// sits in the index key.
    key_order: Vec<usize>,
    filter: Option<ScalarExpr>,
}

fn probe_side(node: &ExprNode, join_cols: &[usize], catalog: &Catalog) -> Option<ProbeSide> {
    let (scan_table, filter) = match &node.op {
        OpKind::Scan { table } => (table, None),
        OpKind::Select { predicate } => match &node.children[0].op {
            OpKind::Scan { table } => (table, Some(predicate.clone())),
            _ => return None,
        },
        _ => return None,
    };
    let t = catalog.table(scan_table).ok()?;
    for (index_id, cols) in t.relation.index_defs().into_iter().enumerate() {
        if cols.len() == join_cols.len()
            && join_cols.iter().all(|c| cols.contains(c))
            && cols.iter().all(|c| join_cols.contains(c))
        {
            // key_order[i] = position in the index key of join_cols[i].
            let key_order = join_cols
                .iter()
                .map(|jc| cols.iter().position(|c| c == jc).expect("checked"))
                .collect();
            return Some(ProbeSide {
                table: scan_table.clone(),
                index_id,
                key_order,
                filter,
            });
        }
    }
    None
}

fn eval_join(
    node: &ExprNode,
    condition: &JoinCondition,
    catalog: &Catalog,
    io: &mut IoMeter,
) -> StorageResult<Bag> {
    let left_node = &node.children[0];
    let right_node = &node.children[1];
    let lcols = condition.left_cols();
    let rcols = condition.right_cols();

    // Estimated full-access cost of a side, when it is a (filtered) scan.
    let scan_pages = |n: &ExprNode| -> Option<u64> {
        match &n.op {
            OpKind::Scan { table } => catalog.table(table).ok().map(|t| t.relation.pages()),
            OpKind::Select { .. } => match &n.children[0].op {
                OpKind::Scan { table } => catalog.table(table).ok().map(|t| t.relation.pages()),
                _ => None,
            },
            _ => None,
        }
    };

    // Strategy: evaluate the left side, and probe the right if that is
    // expected to beat scanning it (the delta-query case: tiny outer, big
    // indexed inner). Otherwise hash-join. The symmetric case (probe the
    // left) is handled by evaluating right first when left is the
    // probe-able big side.
    let right_probe = probe_side(right_node, &rcols, catalog);
    let left_probe = probe_side(left_node, &lcols, catalog);

    // Decide probe direction without evaluating the big side.
    if right_probe.is_some() || left_probe.is_some() {
        // Prefer probing the side with the larger scan footprint.
        let lp = scan_pages(left_node).unwrap_or(u64::MAX);
        let rp = scan_pages(right_node).unwrap_or(u64::MAX);
        if let Some(probe) = right_probe {
            let outer = eval(left_node, catalog, io)?;
            if outer.len() <= rp {
                return probe_join(&outer, &lcols, &probe, condition, false, catalog, io);
            }
            // Outer too big: fall through to hash join, reusing `outer`.
            let inner = eval(right_node, catalog, io)?;
            return hash_join(&outer, &inner, condition, io);
        }
        if let Some(probe) = left_probe {
            let outer = eval(right_node, catalog, io)?;
            if outer.len() <= lp {
                return probe_join(&outer, &rcols, &probe, condition, true, catalog, io);
            }
            let inner = eval(left_node, catalog, io)?;
            return hash_join(&inner, &outer, condition, io);
        }
    }

    let left = eval(left_node, catalog, io)?;
    let right = eval(right_node, catalog, io)?;
    hash_join(&left, &right, condition, io)
}

/// Index-nested-loop join: for each outer tuple, probe the indexed side.
/// `flipped` means the outer side is the join's *right* input.
fn probe_join(
    outer: &Bag,
    outer_cols: &[usize],
    probe: &ProbeSide,
    condition: &JoinCondition,
    flipped: bool,
    catalog: &Catalog,
    io: &mut IoMeter,
) -> StorageResult<Bag> {
    let t = catalog.table(&probe.table)?;
    let mut out = Bag::new();
    for (ot, oc) in outer.iter() {
        // Build the probe key in index order; NULL keys never match.
        let mut key = vec![Value::Null; outer_cols.len()];
        let mut has_null = false;
        for (i, &col) in outer_cols.iter().enumerate() {
            let v = ot.get(col).cloned().unwrap_or(Value::Null);
            if v.is_null() {
                has_null = true;
                break;
            }
            key[probe.key_order[i]] = v;
        }
        if has_null {
            continue;
        }
        let hits = t.relation.lookup(probe.index_id, &key, io);
        for (it, ic) in hits.iter() {
            if let Some(f) = &probe.filter {
                if !f.eval_predicate(it)? {
                    continue;
                }
            }
            let joined = if flipped {
                it.concat(ot)
            } else {
                ot.concat(it)
            };
            if let Some(res) = &condition.residual {
                if !res.eval_predicate(&joined)? {
                    continue;
                }
            }
            out.insert(joined, oc * ic);
        }
    }
    Ok(out)
}

/// Hash join over two evaluated bags.
fn hash_join(
    left: &Bag,
    right: &Bag,
    condition: &JoinCondition,
    _io: &mut IoMeter,
) -> StorageResult<Bag> {
    join_bags(left, right, condition)
}

/// Pure in-memory bag join (also used by the delta rules, which join delta
/// bags that are already in memory and charge their own lookup costs).
pub fn join_bags(left: &Bag, right: &Bag, condition: &JoinCondition) -> StorageResult<Bag> {
    let lcols = condition.left_cols();
    let rcols = condition.right_cols();
    let mut table: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
    'right: for (rt, rc) in right.iter() {
        let mut key = Vec::with_capacity(rcols.len());
        for &c in &rcols {
            let v = rt.get(c).cloned().unwrap_or(Value::Null);
            if v.is_null() {
                continue 'right; // NULL never joins
            }
            key.push(v);
        }
        table.entry(key).or_default().push((rt, rc));
    }
    let mut out = Bag::new();
    'left: for (lt, lc) in left.iter() {
        let mut key = Vec::with_capacity(lcols.len());
        for &c in &lcols {
            let v = lt.get(c).cloned().unwrap_or(Value::Null);
            if v.is_null() {
                continue 'left;
            }
            key.push(v);
        }
        let Some(matches) = table.get(&key) else {
            continue;
        };
        for (rt, rc) in matches {
            let joined = lt.concat(rt);
            if let Some(res) = &condition.residual {
                if !res.eval_predicate(&joined)? {
                    continue;
                }
            }
            out.insert(joined, lc * rc);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// One aggregate's accumulator.
#[derive(Debug, Clone)]
enum AggAccum {
    Count(u64),
    Sum { sum: Option<Value> },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: Option<Value>, n: u64 },
}

impl AggAccum {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggAccum::Count(0),
            AggFunc::Sum => AggAccum::Sum { sum: None },
            AggFunc::Min => AggAccum::Min(None),
            AggFunc::Max => AggAccum::Max(None),
            AggFunc::Avg => AggAccum::Avg { sum: None, n: 0 },
        }
    }

    /// Fold in `mult` occurrences of `v` (`None` = COUNT(*) with no arg).
    fn update(&mut self, v: Option<&Value>, mult: u64) -> StorageResult<()> {
        match self {
            AggAccum::Count(n) => {
                // COUNT(*) counts rows; COUNT(expr) counts non-NULLs.
                match v {
                    Some(val) if val.is_null() => {}
                    _ => *n += mult,
                }
            }
            AggAccum::Sum { sum } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let contribution = val.mul(&Value::Int(mult as i64))?;
                    *sum = Some(match sum.take() {
                        Some(s) => s.add(&contribution)?,
                        None => contribution,
                    });
                }
            }
            AggAccum::Min(m) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    if m.as_ref().is_none_or(|cur| val < cur) {
                        *m = Some(val.clone());
                    }
                }
            }
            AggAccum::Max(m) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    if m.as_ref().is_none_or(|cur| val > cur) {
                        *m = Some(val.clone());
                    }
                }
            }
            AggAccum::Avg { sum, n } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let contribution = val.mul(&Value::Int(mult as i64))?;
                    *sum = Some(match sum.take() {
                        Some(s) => s.add(&contribution)?,
                        None => contribution,
                    });
                    *n += mult;
                }
            }
        }
        Ok(())
    }

    fn finalize(self) -> StorageResult<Value> {
        Ok(match self {
            AggAccum::Count(n) => Value::Int(n as i64),
            AggAccum::Sum { sum } => sum.unwrap_or(Value::Null),
            AggAccum::Min(m) => m.unwrap_or(Value::Null),
            AggAccum::Max(m) => m.unwrap_or(Value::Null),
            AggAccum::Avg { sum, n } => match sum {
                Some(s) => {
                    let total = s
                        .as_f64()
                        .ok_or_else(|| StorageError::TypeError("AVG over non-numeric".into()))?;
                    Value::Double(total / n as f64)
                }
                None => Value::Null,
            },
        })
    }
}

fn fresh_states(aggs: &[AggExpr]) -> Vec<AggAccum> {
    aggs.iter().map(|a| AggAccum::new(a.func)).collect()
}

/// Fold `mult` copies of `t` into one group's accumulators.
fn fold_row(states: &mut [AggAccum], aggs: &[AggExpr], t: &Tuple, mult: u64) -> StorageResult<()> {
    for (state, agg) in states.iter_mut().zip(aggs) {
        match &agg.arg {
            None => state.update(None, mult)?,
            // A plain column is read where it lies.
            Some(ScalarExpr::Col(i)) if *i < t.arity() => state.update(t.get(*i), mult)?,
            Some(e) => state.update(Some(&e.eval(t)?), mult)?,
        }
    }
    Ok(())
}

fn group_key(t: &Tuple, group_by: &[usize]) -> Vec<Value> {
    group_by
        .iter()
        .map(|&g| t.get(g).cloned().unwrap_or(Value::Null))
        .collect()
}

fn finish_row(mut row: Vec<Value>, states: Vec<AggAccum>) -> StorageResult<Tuple> {
    for s in states {
        row.push(s.finalize()?);
    }
    Ok(Tuple::new(row))
}

/// Group a bag and compute aggregates. With an empty `group_by`, produces
/// exactly one output row even over empty input (SQL global aggregates).
pub fn aggregate_bag(input: &Bag, group_by: &[usize], aggs: &[AggExpr]) -> StorageResult<Bag> {
    let mut groups: FxHashMap<Vec<Value>, Vec<AggAccum>> = FxHashMap::default();
    if group_by.is_empty() {
        groups.insert(vec![], fresh_states(aggs));
    }
    for (t, c) in input.iter() {
        let states = groups
            .entry(group_key(t, group_by))
            .or_insert_with(|| fresh_states(aggs));
        fold_row(states, aggs, t, c)?;
    }
    let mut out = Bag::new();
    for (key, states) in groups {
        out.insert(finish_row(key, states)?, 1);
    }
    Ok(out)
}

/// Aggregate the rows of **one** group, streamed: a single accumulator
/// vector, no map, no intermediate bag. `rows` must all agree on
/// `group_by` (the caller partitioned them); the output row takes its key
/// from the first. `None` for a group with no rows — what
/// [`aggregate_bag`] gives a non-global aggregate over empty input.
pub fn aggregate_group<'t>(
    rows: impl IntoIterator<Item = (&'t Tuple, u64)>,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> StorageResult<Option<Tuple>> {
    let mut folded: Option<(Vec<Value>, Vec<AggAccum>)> = None;
    for (t, c) in rows {
        let (_, states) =
            folded.get_or_insert_with(|| (group_key(t, group_by), fresh_states(aggs)));
        fold_row(states, aggs, t, c)?;
    }
    folded
        .map(|(key, states)| finish_row(key, states))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JoinCondition;
    use crate::scalar::{BinOp, CmpOp};
    use crate::tree::ExprNode;
    use spacetime_storage::{tuple, DataType, Schema};

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
        cat.create_index("Emp", &["DName"]).unwrap();
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
        let mut io = IoMeter::new();
        for (e, d, s) in [
            ("alice", "Sales", 100),
            ("bob", "Sales", 80),
            ("carol", "Eng", 120),
            ("dan", "Eng", 60),
            ("eve", "HR", 90),
        ] {
            cat.table_mut("Emp")
                .unwrap()
                .relation
                .insert(tuple![e, d, s], 1, &mut io)
                .unwrap();
        }
        for (d, m, b) in [
            ("Sales", "mary", 150),
            ("Eng", "nick", 200),
            ("HR", "olga", 50),
        ] {
            cat.table_mut("Dept")
                .unwrap()
                .relation
                .insert(tuple![d, m, b], 1, &mut io)
                .unwrap();
        }
        cat
    }

    #[test]
    fn indexed_select_charges_probe_cost() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let sel = ExprNode::select(emp, ScalarExpr::col_eq_lit(1, "Sales")).unwrap();
        let mut io = IoMeter::new();
        let result = eval(&sel, &cat, &mut io).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(io.total(), 3, "1 index page + 2 tuple pages, not a scan");
    }

    #[test]
    fn select_with_residual_filters_after_probe() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let pred = ScalarExpr::col_eq_lit(1, "Sales").and(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(2),
            ScalarExpr::lit(90),
        ));
        let sel = ExprNode::select(emp, pred).unwrap();
        let mut io = IoMeter::new();
        let result = eval(&sel, &cat, &mut io).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(io.total(), 3, "probe still fetches both Sales tuples");
    }

    #[test]
    fn unindexed_select_scans() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let sel = ExprNode::select(
            emp,
            ScalarExpr::cmp(CmpOp::Ge, ScalarExpr::col(2), ScalarExpr::lit(100)),
        )
        .unwrap();
        let mut io = IoMeter::new();
        let result = eval(&sel, &cat, &mut io).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(io.total(), 1, "5 tuples at 10/page = 1 page scanned");
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let j = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let result = eval_uncharged(&j, &cat).unwrap();
        assert_eq!(result.len(), 5, "every employee matches exactly one dept");
        // Spot-check one joined row.
        assert!(result.contains(&tuple!["eve", "HR", 90, "HR", "olga", 50]));
    }

    #[test]
    fn join_multiplicities_multiply() {
        let a: Bag = [(tuple!["k", 1], 2)].into_iter().collect();
        let b: Bag = [(tuple!["k", 9], 3)].into_iter().collect();
        let j = join_bags(&a, &b, &JoinCondition::on(vec![(0, 0)])).unwrap();
        assert_eq!(j.count(&tuple!["k", 1, "k", 9]), 6);
    }

    #[test]
    fn null_keys_never_join() {
        let a: Bag = [(tuple![Value::Null, 1], 1)].into_iter().collect();
        let b: Bag = [(tuple![Value::Null, 2], 1)].into_iter().collect();
        let j = join_bags(&a, &b, &JoinCondition::on(vec![(0, 0)])).unwrap();
        assert!(j.is_empty());
    }

    #[test]
    fn join_residual_applies() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let cond = JoinCondition {
            equi: vec![(1, 0)],
            residual: Some(ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(2),
                ScalarExpr::col(5),
            )),
        };
        let j = ExprNode::join(emp, dept, cond).unwrap();
        let result = eval_uncharged(&j, &cat).unwrap();
        // Salary > Budget: only eve (90 > 50).
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn small_outer_probes_indexed_inner() {
        let cat = catalog();
        // Select one Dept tuple, then join against indexed Emp: should
        // probe, charging 2 (Dept probe is impossible — key lookup on Dept
        // by name) … we build: Select(Dept.DName='Sales') ⋈ Emp.
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let one = ExprNode::select(dept, ScalarExpr::col_eq_lit(0, "Sales")).unwrap();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let j = ExprNode::join_on(one, emp, &[("Dept.DName", "Emp.DName")]).unwrap();
        let mut io = IoMeter::new();
        let result = eval(&j, &cat, &mut io).unwrap();
        assert_eq!(result.len(), 2);
        // 2 (Dept key lookup: index+1 tuple) + 3 (Emp probe: index+2 tuples).
        assert_eq!(io.total(), 5);
    }

    #[test]
    fn aggregate_sums_groups() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum"),
                AggExpr::count_star("N"),
            ],
        )
        .unwrap();
        let result = eval_uncharged(&agg, &cat).unwrap();
        assert_eq!(result.len(), 3);
        assert!(result.contains(&tuple!["Sales", 180, 2]));
        assert!(result.contains(&tuple!["Eng", 180, 2]));
        assert!(result.contains(&tuple!["HR", 90, 1]));
    }

    #[test]
    fn aggregate_respects_multiplicity() {
        let input: Bag = [(tuple!["g", 5], 3)].into_iter().collect();
        let out = aggregate_bag(
            &input,
            &[0],
            &[
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Avg, ScalarExpr::col(1), "a"),
            ],
        )
        .unwrap();
        assert!(out.contains(&tuple!["g", 15, 3, 5.0]));
    }

    #[test]
    fn aggregate_ignores_nulls() {
        let input: Bag = [(tuple!["g", Value::Null], 2), (tuple!["g", 10], 1)]
            .into_iter()
            .collect();
        let out = aggregate_bag(
            &input,
            &[0],
            &[
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
                AggExpr::new(AggFunc::Count, ScalarExpr::col(1), "c"),
                AggExpr::count_star("n"),
            ],
        )
        .unwrap();
        assert!(out.contains(&tuple!["g", 10, 1, 3]));
    }

    #[test]
    fn one_group_streamed_equals_the_grouped_bag() {
        let aggs = [
            AggExpr::new(AggFunc::Sum, ScalarExpr::col(1), "s"),
            AggExpr::new(AggFunc::Count, ScalarExpr::col(1), "c"),
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::Min, ScalarExpr::col(1), "lo"),
            AggExpr::new(AggFunc::Max, ScalarExpr::col(1), "hi"),
            AggExpr::new(AggFunc::Avg, ScalarExpr::col(1), "a"),
            // Not a plain column: evaluated, not borrowed.
            AggExpr::new(
                AggFunc::Sum,
                ScalarExpr::bin(BinOp::Add, ScalarExpr::col(1), ScalarExpr::lit(1)),
                "s1",
            ),
        ];
        let group: Bag = [
            (tuple!["g", 7], 3),
            (tuple!["g", Value::Null], 2),
            (tuple!["g", -4], 1),
        ]
        .into_iter()
        .collect();
        let row = aggregate_group(group.iter(), &[0], &aggs).unwrap().unwrap();
        let bag = aggregate_bag(&group, &[0], &aggs).unwrap();
        assert_eq!(bag.sorted(), vec![(row, 1)]);
        // No rows, no group — also for a global aggregate, where the
        // grouped form would still emit its one row.
        assert_eq!(aggregate_group(Bag::new().iter(), &[0], &aggs).unwrap(), None);
        assert_eq!(aggregate_group(Bag::new().iter(), &[], &aggs).unwrap(), None);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let out = aggregate_bag(
            &Bag::new(),
            &[],
            &[
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Sum, ScalarExpr::col(0), "s"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![0, Value::Null]));
    }

    #[test]
    fn min_max_aggregates() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![
                AggExpr::new(AggFunc::Min, ScalarExpr::col(2), "lo"),
                AggExpr::new(AggFunc::Max, ScalarExpr::col(2), "hi"),
            ],
        )
        .unwrap();
        let result = eval_uncharged(&agg, &cat).unwrap();
        assert!(result.contains(&tuple!["Eng", 60, 120]));
    }

    #[test]
    fn projection_computes_expressions() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let p = ExprNode::project(
            emp,
            vec![(
                ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(2), ScalarExpr::lit(2)),
                "Dbl".into(),
            )],
        )
        .unwrap();
        let result = eval_uncharged(&p, &cat).unwrap();
        assert!(result.contains(&tuple![200]));
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn distinct_collapses_duplicates() {
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let p = ExprNode::project_cols(emp, &[1]).unwrap();
        let d = ExprNode::distinct(p).unwrap();
        let result = eval_uncharged(&d, &cat).unwrap();
        assert_eq!(result.len(), 3);
        assert_eq!(result.count(&tuple!["Sales"]), 1);
    }

    #[test]
    fn figure1_tree_evaluates_problem_dept() {
        // The motivating view: departments whose salary total exceeds
        // budget. Sales: 180 > 150 ✓; Eng: 180 < 200 ✗; HR: 90 > 50 ✓.
        let cat = catalog();
        let emp = ExprNode::scan(&cat, "Emp").unwrap();
        let dept = ExprNode::scan(&cat, "Dept").unwrap();
        let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).unwrap();
        let agg = ExprNode::aggregate(
            join,
            vec![3, 5],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .unwrap();
        let sel = ExprNode::select(
            agg,
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
        )
        .unwrap();
        let result = eval_uncharged(&sel, &cat).unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.contains(&tuple!["Sales", 150, 180]));
        assert!(result.contains(&tuple!["HR", 50, 90]));
    }
}
