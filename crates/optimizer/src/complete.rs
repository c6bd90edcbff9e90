//! Key-based query elimination: group-complete deltas.
//!
//! §3.6's Q3d observation:
//!
//! > *"Query Q3d can be evaluated particularly efficiently on the update
//! > track N1,E1,N2,E3,N4,E5,N6: Since DName is a key for the Dept
//! > relation, the result propagated up along E5 and N4 contains all the
//! > tuples in the group. Thus no I/O is generated for Q3d."*
//!
//! [`delta_group_complete`] decides, for a node on an update track and a
//! grouping column set `C`, whether the delta arriving at that node is
//! guaranteed to contain **every** tuple of each `C`-group it touches. The
//! sufficient conditions, applied down the track toward the updated leaf:
//!
//! * at the updated **leaf**: `C` covers a candidate key (each touched
//!   group holds exactly the updated tuples);
//! * through a **select**: completeness is preserved (a whole group passes
//!   or is filtered consistently tuple-by-tuple — tuples outside the
//!   selection are not in the node's output at all);
//! * through a **project**: `C` must map to plain column references;
//! * through a **join** where the delta arrives on side `s`: all of `C`
//!   must come from side `s`, the mapped set must determine `s`'s join key
//!   (contain a key of `s`), and `s`'s delta must be complete w.r.t. the
//!   mapped set — the join rule then pairs the delta with *all* matching
//!   tuples of the other side, keeping groups whole.

use std::collections::BTreeSet;

use spacetime_algebra::{OpKind, ScalarExpr};
use spacetime_cost::CostCtx;
use spacetime_memo::{GroupId, OpId};

use crate::tracks::UpdateTrack;

/// Whether the delta arriving at `group` (on `track`, originating from
/// `updated_table`) is complete w.r.t. the column set `cols` of `group`'s
/// output. "Do these columns cover a key" is read from the context's
/// cached [`CostCtx::keys`].
pub fn delta_group_complete(
    ctx: &mut CostCtx<'_>,
    track: &UpdateTrack,
    group: GroupId,
    cols: &[usize],
    updated_table: &str,
) -> bool {
    let cols: BTreeSet<usize> = cols.iter().copied().collect();
    let group = ctx.memo.find(group);
    complete_at(ctx, track, group, &cols, updated_table, 0)
}

/// Whether `cols` (output positions of `g`) contain a candidate key of `g`.
fn covers_key(ctx: &mut CostCtx<'_>, g: GroupId, cols: &BTreeSet<usize>) -> bool {
    ctx.keys(g).iter().any(|k| k.is_subset(cols))
}

fn complete_at(
    ctx: &mut CostCtx<'_>,
    track: &UpdateTrack,
    group: GroupId,
    cols: &BTreeSet<usize>,
    updated_table: &str,
    depth: usize,
) -> bool {
    if depth > 64 {
        return false; // degenerate DAG; be conservative
    }
    let memo = ctx.memo;
    let group = memo.find(group);
    // Leaf: complete iff the columns cover a key of the (updated) table.
    if memo.is_leaf(group) {
        return leaf_complete(ctx, group, cols, updated_table);
    }
    let Some(&op) = track.choices.get(&group) else {
        // Not on the track: no delta arrives here at all.
        return false;
    };
    op_complete(ctx, track, op, cols, updated_table, depth)
}

fn leaf_complete(
    ctx: &mut CostCtx<'_>,
    group: GroupId,
    cols: &BTreeSet<usize>,
    updated_table: &str,
) -> bool {
    let memo = ctx.memo;
    let scans_updated = memo
        .group_ops(group)
        .into_iter()
        .any(|op| matches!(&memo.op(op).op, OpKind::Scan { table } if table == updated_table));
    scans_updated && covers_key(ctx, group, cols)
}

fn op_complete(
    ctx: &mut CostCtx<'_>,
    track: &UpdateTrack,
    op: OpId,
    cols: &BTreeSet<usize>,
    updated_table: &str,
    depth: usize,
) -> bool {
    let memo = ctx.memo;
    let children = memo.op_children(op);
    match &memo.op(op).op {
        OpKind::Scan { table } => {
            table == updated_table && leaf_complete(ctx, memo.op_group(op), cols, updated_table)
        }
        OpKind::Select { .. } | OpKind::Distinct => {
            complete_at(ctx, track, children[0], cols, updated_table, depth + 1)
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
                Some(m) => complete_at(ctx, track, children[0], &m, updated_table, depth + 1),
                None => false,
            }
        }
        OpKind::Join { condition } => {
            let (a, b) = (children[0], children[1]);
            let la = memo.schema(a).arity();
            let a_affected = track.affected.contains(&memo.find(a));
            let b_affected = track.affected.contains(&memo.find(b));
            if a_affected && b_affected {
                // Both sides carry deltas: the pairing argument breaks.
                return false;
            }
            // Columns equated by the join condition are interchangeable:
            // canonicalize C onto the delta side where possible (a pulled
            // aggregate may group on Emp.DName ≡ Dept.DName).
            let mut cols = cols.clone();
            for &(l, r) in &condition.equi {
                if a_affected && cols.contains(&(r + la)) {
                    cols.remove(&(r + la));
                    cols.insert(l);
                }
                if b_affected && cols.contains(&l) {
                    cols.remove(&l);
                    cols.insert(r + la);
                }
            }
            // All of C must come from the delta side and cover a key of it
            // (so the group determines the join key, and the other side
            // contributes all matches).
            let (side, mapped) = if a_affected {
                if !cols.iter().all(|&c| c < la) {
                    return false;
                }
                (a, cols)
            } else if b_affected {
                if !cols.iter().all(|&c| c >= la) {
                    return false;
                }
                (b, cols.iter().map(|&c| c - la).collect())
            } else {
                return false;
            };
            covers_key(ctx, side, &mapped)
                && complete_at(ctx, track, side, &mapped, updated_table, depth + 1)
        }
        OpKind::Aggregate { group_by, .. } => {
            // Completeness through an aggregate: each output row *is* its
            // group; the delta contains whole output groups iff the mapped
            // grouping columns are complete below.
            let mapped: Option<BTreeSet<usize>> =
                cols.iter().map(|&c| group_by.get(c).copied()).collect();
            match mapped {
                Some(m) => complete_at(ctx, track, children[0], &m, updated_table, depth + 1),
                None => false,
            }
        }
    }
}
