//! Subdags and update tracks (Defs. 3.2–3.3), and the queries a track
//! poses.
//!
//! A *subdag* picks one operation node per needed equivalence node — "it
//! suffices for each equivalence node to compute its update using one of
//! its child operation nodes". An *update track* is the restriction of a
//! subdag to the nodes affected by a transaction type; it is the unit the
//! optimizer prices: propagating a transaction's deltas along the track
//! poses queries on the non-delta inputs of each operation node, and those
//! queries' cost depends on which views are materialized.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spacetime_cost::{CostCtx, TableUpdate, UpdateKind};
use spacetime_memo::{affected_groups, GroupId, Memo, OpId};
use spacetime_storage::Catalog;

use spacetime_algebra::{AggFunc, OpKind};

use crate::candidates::ViewSet;
use crate::complete::delta_group_complete;

/// One way of propagating a transaction's updates to every materialized
/// view: the affected groups with their chosen operation nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateTrack {
    /// Chosen operation node per affected non-leaf group on the track.
    pub choices: BTreeMap<GroupId, OpId>,
    /// All groups affected by the transaction (leaves included), shared
    /// by every track of one enumeration.
    pub affected: Arc<BTreeSet<GroupId>>,
}

impl UpdateTrack {
    /// Groups on the track (in deterministic order).
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.choices.keys().copied()
    }

    /// Render as the paper's node lists (e.g. `N1,E1,N2,E2,N3,E4,N5`),
    /// using a naming function.
    pub fn render(
        &self,
        memo: &Memo,
        group_name: impl Fn(GroupId) -> String,
        op_name: impl Fn(OpId) -> String,
    ) -> String {
        // Roots of the track (groups nobody on the track feeds) first,
        // then depth-first toward the leaves — the paper's ordering.
        let fed: BTreeSet<GroupId> = self
            .choices
            .values()
            .flat_map(|&op| memo.op_children(op))
            .collect();
        let mut parts = Vec::new();
        let mut visited = BTreeSet::new();
        let mut stack: Vec<GroupId> = self
            .choices
            .keys()
            .copied()
            .filter(|g| !fed.contains(g))
            .rev()
            .collect();
        while let Some(g) = stack.pop() {
            if !visited.insert(g) {
                continue;
            }
            parts.push(group_name(g));
            if let Some(&op) = self.choices.get(&g) {
                parts.push(op_name(op));
                for c in memo.op_children(op).into_iter().rev() {
                    if self.affected.contains(&c) {
                        stack.push(c);
                    }
                }
            }
        }
        parts.dedup();
        parts.join(",")
    }
}

/// The result of a (possibly capped) track enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackEnumeration {
    /// The enumerated tracks (at most `max_tracks` of them).
    pub tracks: Vec<UpdateTrack>,
    /// How many search branches were abandoned because the cap was hit.
    /// `0` means the enumeration was exhaustive.
    pub truncated: usize,
}

/// Enumerate the update tracks for a transaction that updates
/// `updated_tables`, given the marked view set. Deltas must reach every
/// affected marked node; each affected non-leaf node on the way picks one
/// operation node. (The search enumerates through its
/// [`crate::TrackCatalog`], which seeds from every root's marked affected
/// nodes at once, §6.)
pub fn enumerate_tracks(
    memo: &Memo,
    root: GroupId,
    marked: &ViewSet,
    updated_tables: &[&str],
    max_tracks: usize,
) -> Vec<UpdateTrack> {
    let affected = affected_groups(memo, memo.find(root), updated_tables);
    let seeds = track_seeds(memo, &affected, marked);
    enumerate_from_seeds(memo, &Arc::new(affected), seeds, max_tracks).tracks
}

/// The seed list a marking induces: its affected non-leaf nodes, in
/// marking order (the root is always marked). A track enumeration depends
/// on the marking only through this list, and its order fixes the order
/// of the tracks.
pub(crate) fn track_seeds(
    memo: &Memo,
    affected: &BTreeSet<GroupId>,
    marked: &ViewSet,
) -> Vec<GroupId> {
    marked
        .iter()
        .map(|&g| memo.find(g))
        .filter(|g| affected.contains(g) && !memo.is_leaf(*g))
        .collect()
}

/// Enumerate the tracks that reach every seed. Every track shares the one
/// `affected` set.
pub(crate) fn enumerate_from_seeds(
    memo: &Memo,
    affected: &Arc<BTreeSet<GroupId>>,
    mut seeds: Vec<GroupId>,
    max_tracks: usize,
) -> TrackEnumeration {
    if seeds.is_empty() {
        return TrackEnumeration {
            tracks: vec![UpdateTrack {
                choices: BTreeMap::new(),
                affected: Arc::clone(affected),
            }],
            truncated: 0,
        };
    }
    let mut walk = Walk {
        memo,
        affected,
        choices: BTreeMap::new(),
        acyclic_state: Vec::new(),
        out: Vec::new(),
        max_tracks,
        truncated: 0,
    };
    walk.recurse(&mut seeds, 0);
    TrackEnumeration {
        tracks: walk.out,
        truncated: walk.truncated,
    }
}

/// The state of one track enumeration.
struct Walk<'m> {
    memo: &'m Memo,
    affected: &'m Arc<BTreeSet<GroupId>>,
    choices: BTreeMap<GroupId, OpId>,
    /// Scratch for [`Walk::is_acyclic`], reused across tracks.
    acyclic_state: Vec<(GroupId, bool)>,
    out: Vec<UpdateTrack>,
    max_tracks: usize,
    truncated: usize,
}

impl Walk<'_> {
    /// Choose an op for every group on the stack `pending[lo..]` that
    /// still needs one, depth first. Each branch builds its own stack
    /// above `pending.len()` and truncates it on the way back, so the
    /// caller's window is left as it was and one vector serves the walk.
    fn recurse(&mut self, pending: &mut Vec<GroupId>, lo: usize) {
        if self.out.len() >= self.max_tracks {
            self.truncated += 1;
            return;
        }
        let memo = self.memo;
        // Next group that still needs an operation choice.
        let mut top = pending.len();
        let next = loop {
            if top == lo {
                break None;
            }
            top -= 1;
            let g = memo.find(pending[top]);
            if !self.choices.contains_key(&g) && !memo.is_leaf(g) {
                break Some(g);
            }
        };
        let Some(g) = next else {
            if self.is_acyclic() {
                self.out.push(UpdateTrack {
                    choices: self.choices.clone(),
                    affected: Arc::clone(self.affected),
                });
            }
            return;
        };
        let end = pending.len();
        for op in memo.group_ops_iter(g) {
            pending.extend_from_within(lo..top);
            for c in memo.op_children_iter(op) {
                if self.affected.contains(&c) && !memo.is_leaf(c) && !self.choices.contains_key(&c)
                {
                    pending.push(c);
                }
            }
            self.choices.insert(g, op);
            self.recurse(pending, end);
            self.choices.remove(&g);
            pending.truncate(end);
        }
    }

    /// Reject assignments whose chosen-op graph contains a cycle (possible
    /// only through exotic merges; such an assignment admits no evaluation
    /// order).
    fn is_acyclic(&mut self) -> bool {
        /// Depth-first search; `state` holds each visited group and
        /// whether its search is done.
        fn dfs(
            memo: &Memo,
            choices: &BTreeMap<GroupId, OpId>,
            g: GroupId,
            state: &mut Vec<(GroupId, bool)>,
        ) -> bool {
            if let Some(&(_, done)) = state.iter().find(|(h, _)| *h == g) {
                return done;
            }
            state.push((g, false));
            let at = state.len() - 1;
            if let Some(&op) = choices.get(&g) {
                for c in memo.op_children_iter(op) {
                    if !dfs(memo, choices, c, state) {
                        return false;
                    }
                }
            }
            state[at].1 = true;
            true
        }
        let state = &mut self.acyclic_state;
        state.clear();
        self.choices
            .keys()
            .all(|&g| dfs(self.memo, &self.choices, g, state))
    }
}

/// One query posed while propagating a delta along a track (§3.2's
/// Q2Ld/Q5Re objects).
#[derive(Debug, Clone, PartialEq)]
pub struct PosedQuery {
    /// The operation node that generates the query.
    pub at_op: OpId,
    /// The equivalence node the query is posed on.
    pub queried: GroupId,
    /// Binding columns of the queried node.
    pub cols: Vec<usize>,
    /// Expected distinct probe keys per transaction.
    pub probes: f64,
    /// Which input of the operation the query is on (`L`/`R`/`-`).
    pub side: char,
    /// The updated base table that generated this query.
    pub source_table: String,
}

/// A posed query prepared independently of the marking. Everything about a
/// track's query set except one thing is a function of the memo, the
/// catalog and the transaction alone; the one marking-dependent piece —
/// regime-2 suppression of invertible aggregates whose *output* node is
/// materialized — is recorded as a condition instead of being resolved, so
/// the prepared list can be computed once and shared across every view set
/// that uses the track.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedQuery {
    /// The query, fully resolved (probes, binding, source).
    pub query: PosedQuery,
    /// If `Some(g)`: drop this query whenever `g` (canonical) is in the
    /// marking — the aggregate at `g` is self-maintainable from its own
    /// materialized output.
    pub suppress_if_marked: Option<GroupId>,
}

impl PreparedQuery {
    /// Whether the query is posed under `marked` (its suppression
    /// condition does not fire).
    pub fn applies(&self, marked: &ViewSet) -> bool {
        !matches!(self.suppress_if_marked, Some(g) if marked.contains(&g))
    }
}

/// Derive the marking-independent prepared queries for propagating one
/// table's update along a track. Implements the three costing regimes at
/// aggregates: key-based elimination (Q3d) and the input re-query are
/// resolved here; self-maintainable suppression (Q4e under {N3}) becomes a
/// [`PreparedQuery::suppress_if_marked`] condition.
pub fn prepare_track_queries(
    ctx: &mut CostCtx<'_>,
    track: &UpdateTrack,
    update: &TableUpdate,
) -> Vec<PreparedQuery> {
    let memo = ctx.memo;
    let mut out = Vec::new();
    for (&g, &op) in &track.choices {
        let node = memo.op(op);
        let children = memo.op_children(op);
        match &node.op {
            OpKind::Join { condition } => {
                for (side_idx, &child) in children.iter().enumerate() {
                    // The child carries a delta if it is affected by this
                    // particular table update.
                    let d = ctx.delta_for(child, update);
                    if d.is_zero() {
                        continue;
                    }
                    let other = children[1 - side_idx];
                    let other_cols = if side_idx == 0 {
                        condition.right_cols()
                    } else {
                        condition.left_cols()
                    };
                    out.push(PreparedQuery {
                        query: PosedQuery {
                            at_op: op,
                            queried: other,
                            cols: other_cols,
                            probes: d.size.max(1.0).min(ctx.card(child).max(1.0)),
                            side: if side_idx == 0 { 'R' } else { 'L' },
                            source_table: update.table.clone(),
                        },
                        suppress_if_marked: None,
                    });
                }
            }
            OpKind::Aggregate { group_by, aggs } => {
                let child = children[0];
                let d = ctx.delta_for(child, update);
                if d.is_zero() {
                    continue;
                }
                // Regime 1: key-eliminated (the delta holds whole groups).
                if delta_group_complete(ctx, track, child, group_by, &update.table) {
                    continue;
                }
                // Regime 2: self-maintainable from the marked output —
                // marking-dependent, so deferred to filter time.
                let invertible = match d.kind {
                    UpdateKind::Insert => aggs.iter().all(|a| a.func != AggFunc::Avg),
                    UpdateKind::Modify => aggs.iter().all(|a| a.func.invertible()),
                    UpdateKind::Delete => false,
                };
                // Regime 3: re-query the input per affected group.
                let groups_touched = ctx.delta_for(g, update).size.max(1.0);
                out.push(PreparedQuery {
                    query: PosedQuery {
                        at_op: op,
                        queried: child,
                        cols: group_by.clone(),
                        probes: groups_touched,
                        side: '-',
                        source_table: update.table.clone(),
                    },
                    suppress_if_marked: invertible.then(|| memo.find(g)),
                });
            }
            OpKind::Distinct => {
                let child = children[0];
                let d = ctx.delta_for(child, update);
                if d.is_zero() {
                    continue;
                }
                let arity = memo.schema(child).arity();
                out.push(PreparedQuery {
                    query: PosedQuery {
                        at_op: op,
                        queried: child,
                        cols: (0..arity).collect(),
                        probes: d.size.max(1.0),
                        side: '-',
                        source_table: update.table.clone(),
                    },
                    suppress_if_marked: None,
                });
            }
            OpKind::Scan { .. } | OpKind::Select { .. } | OpKind::Project { .. } => {}
        }
        let _ = g;
    }
    out
}

/// Resolve a prepared query list against a concrete marking: keep every
/// query whose suppression condition does not fire.
pub fn resolve_prepared(prepared: &[PreparedQuery], marked: &ViewSet) -> Vec<PosedQuery> {
    prepared
        .iter()
        .filter(|p| p.applies(marked))
        .map(|p| p.query.clone())
        .collect()
}

/// Derive the queries posed when propagating one table's update along a
/// track under a concrete marking. Equivalent to
/// [`prepare_track_queries`] followed by [`resolve_prepared`]; `catalog`
/// must be the one `ctx` estimates against.
pub fn track_queries(
    ctx: &mut CostCtx<'_>,
    catalog: &Catalog,
    track: &UpdateTrack,
    marked: &ViewSet,
    update: &TableUpdate,
) -> Vec<PosedQuery> {
    debug_assert!(
        std::ptr::eq(catalog, ctx.catalog),
        "ctx prices another catalog"
    );
    let prepared = prepare_track_queries(ctx, track, update);
    resolve_prepared(&prepared, marked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tests::{paper_setup, PaperSetup};
    use spacetime_cost::{CostCtx, PageIoCostModel};

    fn view_set(s: &PaperSetup, extras: &[GroupId]) -> ViewSet {
        let mut set: ViewSet = extras.iter().map(|&g| s.memo.find(g)).collect();
        set.insert(s.root);
        set
    }

    #[test]
    fn unaffected_transaction_yields_empty_track() {
        let s = paper_setup();
        let tracks = enumerate_tracks(&s.memo, s.root, &view_set(&s, &[]), &["Nope"], 64);
        assert_eq!(tracks.len(), 1);
        assert!(tracks[0].choices.is_empty());
    }

    #[test]
    fn every_track_reaches_all_marked_affected_nodes() {
        let s = paper_setup();
        for extras in [vec![], vec![s.n3], vec![s.n4], vec![s.n3, s.n4]] {
            let set = view_set(&s, &extras);
            for table in ["Emp", "Dept"] {
                let affected = spacetime_memo::affected_groups(&s.memo, s.root, &[table]);
                for track in enumerate_tracks(&s.memo, s.root, &set, &[table], 256) {
                    for &g in &set {
                        if affected.contains(&g) {
                            assert!(
                                track.choices.contains_key(&s.memo.find(g)),
                                "track misses marked affected node {g}"
                            );
                        }
                    }
                    // Every chosen op's affected children are also chosen
                    // (or leaves): the track is downward-closed.
                    for (&g, &op) in &track.choices {
                        let _ = g;
                        for c in s.memo.op_children(op) {
                            if affected.contains(&c) && !s.memo.is_leaf(c) {
                                assert!(track.choices.contains_key(&c));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn q4e_suppressed_only_when_n3_marked() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let update = spacetime_cost::TableUpdate {
            table: "Emp".into(),
            kind: UpdateKind::Modify,
            size: 1.0,
        };
        // Track through N3 exists under both markings; compare queries.
        for (extras, expect_agg_query) in [(vec![], true), (vec![s.n3], false)] {
            let set = view_set(&s, &extras);
            let tracks = enumerate_tracks(&s.memo, s.root, &set, &["Emp"], 256);
            let through_n3: Vec<_> = tracks
                .iter()
                .filter(|t| t.choices.contains_key(&s.memo.find(s.n3)))
                .collect();
            assert!(!through_n3.is_empty());
            let has_agg_query = through_n3.iter().any(|t| {
                track_queries(&mut ctx, &s.cat, t, &set, &update)
                    .iter()
                    .any(|q| {
                        q.queried
                            == s.memo.find(
                                s.memo
                                    .groups()
                                    .find(|&g| {
                                        s.memo.group_ops(g).iter().any(|&o| matches!(
                            &s.memo.op(o).op,
                            spacetime_algebra::OpKind::Scan { table } if table == "Emp"
                        ))
                                    })
                                    .unwrap(),
                            )
                            && q.side == '-'
                    })
            });
            assert_eq!(has_agg_query, expect_agg_query, "extras: {extras:?}");
        }
    }

    #[test]
    fn q3d_is_key_eliminated() {
        // On the >Dept track through the aggregate (E3/N4 path), the
        // aggregate poses no query: the delta is group-complete.
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let update = spacetime_cost::TableUpdate {
            table: "Dept".into(),
            kind: UpdateKind::Modify,
            size: 1.0,
        };
        let set = view_set(&s, &[]);
        let tracks = enumerate_tracks(&s.memo, s.root, &set, &["Dept"], 256);
        // Some track routes through the raw join (N4 affected + chosen).
        let via_join: Vec<_> = tracks
            .iter()
            .filter(|t| t.choices.contains_key(&s.memo.find(s.n4)))
            .collect();
        assert!(!via_join.is_empty());
        for t in via_join {
            let queries = track_queries(&mut ctx, &s.cat, t, &set, &update);
            let agg_queries = queries.iter().filter(|q| q.side == '-').count();
            assert_eq!(agg_queries, 0, "Q3d must be eliminated: {queries:?}");
        }
    }

    #[test]
    fn render_is_root_first() {
        let s = paper_setup();
        let set = view_set(&s, &[]);
        let tracks = enumerate_tracks(&s.memo, s.root, &set, &["Emp"], 16);
        let rendered = tracks[0].render(
            &s.memo,
            |g| {
                if g == s.root {
                    "N1".into()
                } else {
                    format!("n{}", g.0)
                }
            },
            |o| format!("E{}", o.0),
        );
        assert!(rendered.starts_with("N1,"), "{rendered}");
    }

    #[test]
    fn without_key_q3d_is_posed() {
        // Strip Dept's key: the group-completeness argument fails and the
        // aggregate must re-query its input (the paper's "conditions under
        // which keys can be used to reduce the set of needed queries").
        let mut s = paper_setup();
        s.cat.table_mut("Dept").unwrap().keys.clear();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let update = spacetime_cost::TableUpdate {
            table: "Dept".into(),
            kind: UpdateKind::Modify,
            size: 1.0,
        };
        let set = view_set(&s, &[]);
        let tracks = enumerate_tracks(&s.memo, s.root, &set, &["Dept"], 256);
        let via_join: Vec<_> = tracks
            .iter()
            .filter(|t| t.choices.contains_key(&s.memo.find(s.n4)))
            .collect();
        let some_agg_query = via_join.iter().any(|t| {
            track_queries(&mut ctx, &s.cat, t, &set, &update)
                .iter()
                .any(|q| q.side == '-')
        });
        assert!(some_agg_query, "without the key, Q3d must be posed");
    }
}
