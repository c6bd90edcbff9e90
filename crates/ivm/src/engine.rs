//! The maintenance engine: materialize a chosen view set and keep it
//! incrementally maintained under base-table deltas.
//!
//! The engine executes the paper's §3.2 propagation model: for each updated
//! base relation it follows a pre-chosen (cheapest) update track, computes
//! each affected node's delta with the `spacetime-delta` rules — posing
//! queries through [`QueryExec`] so lookups hit materialized views exactly
//! where the optimizer assumed — and finally applies the deltas to every
//! materialized relation, charging the §3.6 update costs.
//!
//! I/O is reported per bucket ([`UpdateReport`]) so callers can reproduce
//! the paper's accounting, which excludes base-relation and top-level-view
//! updates.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use spacetime_algebra::{ExprNode, ExprTree, FusedProgram, OpKind};
use spacetime_cost::{CostCtx, Marking, PageIoCostModel, TransactionType};
use spacetime_delta::{Delta, InputAccess};
use spacetime_memo::{GroupId, Memo, OpId};
use spacetime_optimizer::tracks::UpdateTrack;
use spacetime_optimizer::{EvalConfig, ViewSet};
use spacetime_storage::{Bag, Catalog, IoMeter, StorageResult, Value};

use spacetime_obs::{self as obs, names as metric, TraceNode};

use crate::qexec::{filter_binding, index_key_remap, permuted_key, PlanCache, QueryExec};
use crate::trace::{GroupProbe, GroupRec, QueryRec};
use crate::{IvmError, IvmResult};

/// Which data plane [`IvmEngine::plan_update`] uses to answer the posed
/// queries of delta propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// One posed query at a time, plans re-costed per key, self-rows found
    /// by filtering the whole materialization. Not a serving mode: it is
    /// the reference the test suites hold [`PropagationMode::Fused`]
    /// bit-identical to.
    #[doc(hidden)]
    PerKey,
    /// The production path. Each delta's distinct keys are collected up
    /// front and answered by one batched query per (child, columns), with
    /// plan choices cached across updates and self-maintenance reads
    /// answered by index probes; each access-free `Select`/`Project`
    /// chain executes as a compiled [`spacetime_algebra::FusedProgram`]
    /// streaming the base delta through every stage in one pass, with
    /// interior chain groups skipped entirely (their deltas exist only to
    /// feed the next chain op, which the kernel fuses away). Chains pose
    /// no queries and charge no I/O, so deltas, reports, and view contents
    /// are bit-identical to [`PropagationMode::PerKey`]. Tracing runs the
    /// same kernels: a needed chain group records one span carrying its
    /// stage count.
    #[default]
    Fused,
}

/// Per-engine state the propagation hot path reuses across updates, so a
/// stream of transactions does zero per-update setup: per-table topo
/// orders and leaf groups, the materialized set as a cost-model marking
/// and every track op's children (all computed once at build), and the
/// runtime plan cache (valid until statistics change, which only
/// `analyze()` does).
#[derive(Debug, Default, Clone)]
struct PropagationCtx {
    /// `materialized`'s keys as the marking posed queries are costed under.
    marking: Marking,
    /// Canonical children of every op some track chose.
    children: BTreeMap<OpId, Vec<GroupId>>,
    /// Children-first order of each table's track groups.
    topo: BTreeMap<String, Vec<GroupId>>,
    /// The leaf group scanning each table.
    leaves: BTreeMap<String, GroupId>,
    /// Per (table, group), the access-free chain from the base scan
    /// through `Select`/`Project` steps only, compiled into a fused
    /// streaming kernel that [`PropagationMode::Fused`] runs straight off
    /// the base delta.
    programs: BTreeMap<String, BTreeMap<GroupId, Arc<FusedProgram>>>,
    /// Chain groups whose deltas are still *needed* under fusion: those
    /// that are materialized, or feed a non-chain op. Interior chain
    /// groups (everything else) are skipped by the fused path — their
    /// deltas existed only to carry data to the next chain stage.
    needed: BTreeMap<String, BTreeSet<GroupId>>,
    /// Cached runtime plan decisions (unused by the per-key reference).
    plans: PlanCache,
    /// Lazily-built per-op expression nodes handed to `delta::propagate`
    /// — pure functions of the (immutable) memo, cached so propagation
    /// does not re-clone op/schema trees on every update.
    nodes: NodeCache,
}

/// Interior-mutable `OpId -> Arc<ExprNode>` cache (see
/// [`PropagationCtx::nodes`]).
#[derive(Debug, Default)]
struct NodeCache(std::sync::Mutex<BTreeMap<OpId, Arc<ExprNode>>>);

impl Clone for NodeCache {
    fn clone(&self) -> Self {
        NodeCache(std::sync::Mutex::new(
            self.0.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        ))
    }
}

impl NodeCache {
    /// The detached single-op node for `op` (children stripped; the
    /// propagation rules read only the op and the output schema).
    fn node(&self, op: OpId, g: GroupId, memo: &Memo) -> Arc<ExprNode> {
        let mut cache = self.0.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .entry(op)
            .or_insert_with(|| {
                Arc::new(ExprNode {
                    op: memo.op(op).op.clone(),
                    children: vec![],
                    schema: memo.schema(g).clone(),
                })
            })
            .clone()
    }
}

/// Per-bucket I/O accounting for one propagated update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// I/O spent answering the posed queries (delta computation).
    pub query_io: IoMeter,
    /// I/O spent applying deltas to *additional* materialized views.
    pub aux_io: IoMeter,
    /// I/O spent applying the delta to the top-level view.
    pub root_io: IoMeter,
    /// I/O spent applying the delta to the base relation.
    pub base_io: IoMeter,
    /// Number of queries posed during propagation (§2.2). Like the I/O
    /// buckets, this must be independent of the propagation mode — a
    /// batched `matching_all` over k keys counts k.
    pub queries_posed: u64,
}

impl UpdateReport {
    /// The §3.6 metric: query cost + additional-view maintenance, with
    /// base-relation and top-level-view updates excluded ("We do not count
    /// the cost of updating the database relations, or the top-level view
    /// ProblemDept").
    pub fn paper_cost(&self) -> u64 {
        self.query_io.total() + self.aux_io.total()
    }

    /// Everything, including root and base updates.
    pub fn total(&self) -> u64 {
        self.paper_cost() + self.root_io.total() + self.base_io.total()
    }

    /// Merge another report into this one. Sound only when the two
    /// reports account *disjoint* work: the planning report of a
    /// [`PlannedUpdate`] and the apply-phase report of
    /// [`IvmEngine::commit_in_place`] each carry their own buckets, so
    /// merging them counts every page exactly once.
    pub fn merge(&mut self, other: &UpdateReport) {
        for (a, b) in [
            (&mut self.query_io, &other.query_io),
            (&mut self.aux_io, &other.aux_io),
            (&mut self.root_io, &other.root_io),
            (&mut self.base_io, &other.base_io),
        ] {
            a.index_page_reads += b.index_page_reads;
            a.index_page_writes += b.index_page_writes;
            a.data_page_reads += b.data_page_reads;
            a.data_page_writes += b.data_page_writes;
        }
        self.queries_posed += other.queries_posed;
    }
}

/// A planned (not yet applied) update: the deltas for every materialized
/// node plus the query I/O already spent computing them.
#[derive(Debug, Clone)]
pub struct PlannedUpdate {
    /// The updated base table.
    pub table: String,
    /// Deltas per materialized group (in application order).
    pub view_deltas: Vec<(GroupId, Delta)>,
    /// Report with `query_io` filled in.
    pub report: UpdateReport,
    /// The propagation trace, when [`IvmEngine::plan_update_with`] was
    /// asked for one (and the table has a track).
    pub trace: Option<TraceNode>,
}

impl PlannedUpdate {
    /// The root view's delta, if the root is affected.
    pub fn root_delta(&self, root: GroupId) -> Option<&Delta> {
        self.view_deltas
            .iter()
            .find(|(g, _)| *g == root)
            .map(|(_, d)| d)
    }
}

/// One maintained view (plus its chosen auxiliary materializations).
///
/// `Clone` exists so the database can hold engines behind `Arc` and
/// copy-on-write them for configuration changes; a clone snapshots the
/// plan cache's current decisions.
#[derive(Debug, Clone)]
pub struct IvmEngine {
    /// The view's name (backing table of the root).
    pub name: String,
    /// The expression DAG.
    pub memo: Memo,
    /// Primary root group (the view itself).
    pub root: GroupId,
    /// All root groups (one per view when several views share this
    /// engine's DAG, §6's multi-rooted case; contains `root`).
    pub roots: std::collections::BTreeSet<GroupId>,
    /// The materialized view set (root included).
    pub view_set: ViewSet,
    /// Materialized group → backing table.
    pub materialized: BTreeMap<GroupId, String>,
    /// The original creation trees, `(view name, tree)` per root, in
    /// creation order — the durable rebuild recipe. Replaying them
    /// through `Memo::insert_tree` + `explore` reproduces this memo
    /// bit-identically (exploration is deterministic structural
    /// rewriting), which is how recovery re-derives group ids without
    /// trusting them from disk. Empty for engines built directly via
    /// [`IvmEngine::build`] (checkpointing requires database-created
    /// engines).
    pub creation: Vec<(String, ExprTree)>,
    /// Cost model used for runtime plan choices.
    pub model: PageIoCostModel,
    /// Chosen update track per base table.
    tracks: BTreeMap<String, UpdateTrack>,
    /// Key-elimination result per table, per aggregate op on that track
    /// (nested so the hot path can look up with a borrowed table name).
    complete: BTreeMap<String, BTreeMap<OpId, bool>>,
    /// Reused propagation state (topo orders, leaf groups, plan cache).
    prop_ctx: PropagationCtx,
    /// Which data plane answers posed queries.
    mode: PropagationMode,
}

impl IvmEngine {
    /// Materialize `view_set` (the root plus auxiliaries) into the
    /// catalog, choose per-table update tracks, and return the engine.
    /// Initial materialization is a full (uncharged) computation.
    pub fn build(
        name: impl Into<String>,
        memo: Memo,
        root: GroupId,
        view_set: ViewSet,
        catalog: &mut Catalog,
    ) -> IvmResult<IvmEngine> {
        let name = name.into();
        Self::build_with_roots(vec![(name, root)], memo, view_set, catalog)
    }

    /// Multi-rooted variant (§6): several views share one DAG and one set
    /// of auxiliary materializations. `named_roots` pairs each view's
    /// backing-table name with its root group; the first entry is the
    /// primary (it names the auxiliary tables).
    pub fn build_with_roots(
        named_roots: Vec<(String, GroupId)>,
        memo: Memo,
        view_set: ViewSet,
        catalog: &mut Catalog,
    ) -> IvmResult<IvmEngine> {
        Self::build_inner(named_roots, memo, view_set, catalog, None)
    }

    /// Recovery-time variant: attach to tables that already exist in
    /// the catalog (restored from a checkpoint with contents, indexes,
    /// and statistics) instead of creating and computing them. `pins`
    /// maps every view-set group to its backing-table name; the normal
    /// create/evaluate/load/analyze step is skipped wholesale, while
    /// track choice and propagation state are computed fresh against
    /// the restored statistics.
    pub(crate) fn rebuild_pinned(
        named_roots: Vec<(String, GroupId)>,
        memo: Memo,
        view_set: ViewSet,
        catalog: &mut Catalog,
        pins: &BTreeMap<GroupId, String>,
    ) -> IvmResult<IvmEngine> {
        Self::build_inner(named_roots, memo, view_set, catalog, Some(pins))
    }

    fn build_inner(
        named_roots: Vec<(String, GroupId)>,
        memo: Memo,
        view_set: ViewSet,
        catalog: &mut Catalog,
        pins: Option<&BTreeMap<GroupId, String>>,
    ) -> IvmResult<IvmEngine> {
        assert!(!named_roots.is_empty(), "at least one root view");
        let named_roots: Vec<(String, GroupId)> = named_roots
            .into_iter()
            .map(|(n, g)| (n, memo.find(g)))
            .collect();
        let name = named_roots[0].0.clone();
        let root = named_roots[0].1;
        let roots: std::collections::BTreeSet<GroupId> =
            named_roots.iter().map(|&(_, g)| g).collect();
        let view_set: ViewSet = view_set
            .iter()
            .map(|&g| memo.find(g))
            .chain(roots.iter().copied())
            .collect();
        let model = PageIoCostModel::default();

        // Materialize every marked group. Queryable column sets for the
        // whole memo are collected in one pass, instead of re-walking
        // every memo op per materialized group.
        let index_map = needed_indexes_map(&memo);
        let mut materialized = BTreeMap::new();
        for &g in &view_set {
            // Indexes: one per column set this node can be queried on.
            let mut index_sets = index_map.get(&g).cloned().unwrap_or_default();
            index_sets.sort();
            index_sets.dedup();
            if let Some(pins) = pins {
                // Attach mode: the backing table was already restored
                // (contents, indexes, stats); just record the binding.
                // Index creation is idempotent, so filling any gap the
                // checkpoint might have is a no-op in the common case.
                let table_name = pins.get(&g).cloned().ok_or_else(|| {
                    IvmError::Internal(format!("no pinned table for group {}", g.0))
                })?;
                let t = catalog.table_mut(&table_name)?;
                for cols in index_sets {
                    if !cols.is_empty() {
                        t.relation.create_index(cols)?;
                    }
                }
                materialized.insert(g, table_name);
                continue;
            }
            let table_name = if let Some((n, _)) = named_roots.iter().find(|&&(_, r)| r == g) {
                n.clone()
            } else {
                format!("{name}__aux_N{}", g.0)
            };
            let schema = memo.schema(g).requalify(&table_name);
            catalog.create_materialized(&table_name, schema)?;
            let tree = memo.extract_one(g);
            let contents = spacetime_algebra::eval_uncharged(&tree, catalog)?;
            {
                let t = catalog.table_mut(&table_name)?;
                for cols in index_sets {
                    if !cols.is_empty() {
                        t.relation.create_index(cols)?;
                    }
                }
                t.relation.load(contents)?;
                t.analyze();
            }
            materialized.insert(g, table_name);
        }

        // Choose the cheapest track per base table (unit-modify probe
        // transactions; the optimizer's evaluation machinery picks the
        // same tracks its cost tables did).
        let mut tracks = BTreeMap::new();
        let mut complete: BTreeMap<String, BTreeMap<OpId, bool>> = BTreeMap::new();
        let config = EvalConfig::default();
        let mut ctx = CostCtx::new(&memo, catalog, &model);
        for table in &leaf_tables(&memo, roots.iter().copied()) {
            let txn = TransactionType::modify(format!(">{table}"), table.clone(), 1.0);
            let root_vec: Vec<GroupId> = roots.iter().copied().collect();
            let eval = spacetime_optimizer::evaluate_multi(
                &mut ctx,
                catalog,
                &root_vec,
                &view_set,
                &[txn],
                &config,
            );
            let Some(txn_eval) = eval.per_txn.first() else {
                continue;
            };
            let Some(best) = txn_eval.tracks.get(txn_eval.best_track) else {
                continue;
            };
            let track = best.track.clone();
            // Precompute key-elimination per aggregate op on this track.
            for &op in track.choices.values() {
                if let OpKind::Aggregate { group_by, .. } = &memo.op(op).op {
                    let child = memo.op_children(op)[0];
                    let ok = spacetime_optimizer::delta_group_complete(
                        &memo, catalog, &track, child, group_by, table,
                    );
                    complete.entry(table.clone()).or_default().insert(op, ok);
                }
            }
            tracks.insert(table.clone(), track);
        }

        // Per-table propagation state, computed once instead of on every
        // update: topo order, leaf group, and the access-free chains' fused
        // kernels.
        let mut prop_ctx = PropagationCtx {
            marking: materialized.keys().copied().collect(),
            ..Default::default()
        };
        for (table, track) in &tracks {
            for &op in track.choices.values() {
                prop_ctx
                    .children
                    .entry(op)
                    .or_insert_with(|| memo.op_children(op));
            }
            let order = topo_order(&memo, track);
            if let Some(leaf) = roots.iter().find_map(|&r| leaf_group(&memo, r, table)) {
                let chains = chain_plan(&memo, track, &order, leaf, table);
                // Compile each access-free chain into a fused kernel
                // (skipping the leading `Scan`), and record which chain
                // groups still need their delta under fusion: those that
                // are materialized or feed a non-chain track op.
                let programs: BTreeMap<GroupId, Arc<FusedProgram>> = chains
                    .iter()
                    .filter_map(|(g, chain)| {
                        FusedProgram::compile(chain.iter().skip(1)).map(|p| (*g, Arc::new(p)))
                    })
                    .collect();
                let mut needed: BTreeSet<GroupId> = programs
                    .keys()
                    .filter(|g| materialized.contains_key(g))
                    .copied()
                    .collect();
                for &h in &order {
                    let Some(&op) = track.choices.get(&h) else {
                        continue;
                    };
                    if programs.contains_key(&h) {
                        continue;
                    }
                    for c in memo.op_children(op) {
                        if programs.contains_key(&c) {
                            needed.insert(c);
                        }
                    }
                }
                prop_ctx.leaves.insert(table.clone(), leaf);
                prop_ctx.programs.insert(table.clone(), programs);
                prop_ctx.needed.insert(table.clone(), needed);
            }
            prop_ctx.topo.insert(table.clone(), order);
        }

        Ok(IvmEngine {
            name,
            memo,
            root,
            roots,
            view_set,
            materialized,
            creation: Vec::new(),
            model,
            tracks,
            complete,
            prop_ctx,
            mode: PropagationMode::default(),
        })
    }

    /// Switch the data plane answering posed queries. Both modes produce
    /// identical deltas and charge identical I/O; `PerKey` exists as the
    /// reference the suites compare against.
    pub fn set_propagation_mode(&mut self, mode: PropagationMode) {
        self.mode = mode;
    }

    /// The active propagation mode.
    pub fn propagation_mode(&self) -> PropagationMode {
        self.mode
    }

    /// Whether this engine's DAG reads `table`.
    pub fn depends_on(&self, table: &str) -> bool {
        self.tracks.contains_key(table)
    }

    /// Phase 1: propagate a base delta along the chosen track, computing
    /// the delta of every affected materialized node. Reads only
    /// *pre-update* state; applies nothing.
    pub fn plan_update(
        &self,
        catalog: &Catalog,
        table: &str,
        base_delta: &Delta,
    ) -> IvmResult<PlannedUpdate> {
        self.plan_update_with(catalog, table, base_delta, false)
    }

    /// [`IvmEngine::plan_update`], recording a propagation trace into
    /// [`PlannedUpdate::trace`] when `trace` is set. Tracing does extra
    /// work (probes + `Instant` reads) but never changes the planned
    /// deltas or the report.
    pub fn plan_update_with(
        &self,
        catalog: &Catalog,
        table: &str,
        base_delta: &Delta,
        trace: bool,
    ) -> IvmResult<PlannedUpdate> {
        let mut report = UpdateReport::default();
        let Some(track) = self.tracks.get(table) else {
            return Ok(PlannedUpdate {
                table: table.to_string(),
                view_deltas: Vec::new(),
                report,
                trace: None,
            });
        };
        obs::counter_add(metric::TRACK_PROPAGATIONS, 1);
        let batched = self.mode == PropagationMode::Fused;
        let mut exec = QueryExec::with_marking(
            &self.memo,
            catalog,
            &self.materialized,
            &self.prop_ctx.marking,
        );
        if batched {
            exec = exec.with_plans(&self.prop_ctx.plans);
        }
        // Fused chain kernels, traced or not. Chains pose no queries and
        // charge no I/O in any mode, so the plan, report, and view deltas
        // stay bit-identical to the per-step path.
        let fused = batched
            .then(|| self.prop_ctx.programs.get(table))
            .flatten();
        let fused_needed = fused.and_then(|_| self.prop_ctx.needed.get(table));

        // Topological order of the track's groups (children first) and the
        // table's leaf group, both computed once at build time.
        let order = self.prop_ctx.topo.get(table).ok_or_else(|| {
            IvmError::Internal(format!(
                "track for `{table}` has no topo order (must be computed at build)"
            ))
        })?;
        let leaf = self.prop_ctx.leaves.get(table).copied().ok_or_else(|| {
            IvmError::Unsupported(format!("table `{table}` not under view `{}`", self.name))
        })?;
        // Group deltas accumulate as owned values; the leaf seed stays a
        // borrow of the caller's base delta (never cloned into the map).
        let mut deltas: BTreeMap<GroupId, Cow<'_, Delta>> = BTreeMap::new();
        deltas.insert(leaf, Cow::Borrowed(base_delta));
        let mut recs: BTreeMap<GroupId, GroupRec> = BTreeMap::new();

        let mut ctx = CostCtx::new(&self.memo, catalog, &self.model);
        for &g in order {
            let Some(&op) = track.choices.get(&g) else {
                continue;
            };
            if let Some(prog) = fused.and_then(|progs| progs.get(&g)) {
                // Fused chain group: run the whole compiled chain off the
                // base delta if anything downstream needs this group's
                // delta (traced as one span); skip it entirely otherwise.
                if fused_needed.is_some_and(|n| n.contains(&g)) {
                    let t0 = trace.then(std::time::Instant::now);
                    let d = spacetime_delta::propagate_chain(prog, base_delta)?;
                    if let Some(t0) = t0 {
                        recs.insert(
                            g,
                            GroupRec {
                                probe: GroupProbe {
                                    delta_in: base_delta.size(),
                                    ..GroupProbe::default()
                                },
                                delta_out: d.size(),
                                stages: Some(prog.stage_count()),
                                wall_ns: t0.elapsed().as_nanos() as u64,
                                ..GroupRec::default()
                            },
                        );
                    }
                    if !d.is_empty() {
                        deltas.insert(g, Cow::Owned(d));
                    }
                }
                continue;
            }
            let mut posed = 0u64;
            let mut probe = trace.then(GroupProbe::default);
            let t0 = trace.then(std::time::Instant::now);
            if let Some(d) = self.propagate_group(
                catalog,
                table,
                g,
                op,
                &deltas,
                &exec,
                &mut ctx,
                &mut report.query_io,
                &mut posed,
                probe.as_mut(),
            )? {
                if let Some(probe) = probe {
                    recs.insert(
                        g,
                        GroupRec {
                            probe,
                            delta_out: d.size(),
                            posed,
                            stages: None,
                            wall_ns: t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
                        },
                    );
                }
                deltas.insert(g, Cow::Owned(d));
            }
            report.queries_posed += posed;
        }

        // All delta-carrying groups minus the leaf's seed entry. (Read
        // before view deltas are moved out of the map below.)
        obs::counter_add(
            metric::TRACK_GROUPS_PROPAGATED,
            deltas.len().saturating_sub(1) as u64,
        );
        // Deltas for materialized nodes, children before parents (same
        // topo order), so commit order never violates referential
        // assumptions. Moved out of the map, not cloned — each group
        // appears once in `order`.
        let view_deltas: Vec<(GroupId, Delta)> = order
            .iter()
            .filter(|g| self.materialized.contains_key(g))
            .filter_map(|&g| deltas.remove(&g).map(|d| (g, d.into_owned())))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        obs::counter_add(metric::QUERIES_POSED, report.queries_posed);
        let trace = trace.then(|| self.plan_trace(catalog, table, base_delta, leaf, order, &recs));
        Ok(PlannedUpdate {
            table: table.to_string(),
            view_deltas,
            report,
            trace,
        })
    }

    /// Assemble the propagation trace from the per-group recordings: the
    /// leaf scan, then every group that ran, in the track's topological
    /// order.
    fn plan_trace(
        &self,
        catalog: &Catalog,
        table: &str,
        base_delta: &Delta,
        leaf: GroupId,
        order: &[GroupId],
        recs: &BTreeMap<GroupId, GroupRec>,
    ) -> TraceNode {
        let track_path: Vec<String> = order.iter().map(|g| format!("N{}", g.0)).collect();
        let mut root = TraceNode::new(format!("propagate {}", self.name))
            .with_field("table", table)
            .with_field("mode", format!("{:?}", self.mode))
            .with_field("track", track_path.join("→"));
        root.push_child(
            TraceNode::new(format!("N{} Scan", leaf.0))
                .with_field("op", format!("Scan({table})"))
                .with_field("Δout", base_delta.size()),
        );
        let choices = self.tracks.get(table).map(|t| &t.choices);
        for g in order {
            let (Some(rec), Some(&op)) = (recs.get(g), choices.and_then(|c| c.get(g))) else {
                continue;
            };
            let kind = &self.memo.op(op).op;
            let mut node = TraceNode::new(format!("N{} {}", g.0, kind_name(kind)))
                .with_field("op", kind)
                .with_field("Δin", rec.probe.delta_in)
                .with_field("Δout", rec.delta_out)
                .with_field("posed", rec.posed);
            if let Some(stages) = rec.stages {
                node.push_field("stages", stages);
            }
            if let Some(mv) = self.materialized.get(g) {
                node.push_field("mv", mv);
            }
            for q in &rec.probe.queries {
                node.push_child(
                    TraceNode::new("query")
                        .with_field("child", format!("N{}", q.child.0))
                        .with_field("cols", format!("{:?}", q.cols))
                        .with_field("keys", q.keys)
                        .with_field("via", self.access_resolution(catalog, q.child, &q.cols)),
                );
            }
            node.wall_ns = Some(rec.wall_ns);
            root.push_child(node);
        }
        root
    }

    /// How a posed query against `g` on `cols` resolves: an exact index
    /// probe on the backing table (possibly with permuted key columns), a
    /// scan/partition of it, or on-the-fly derivation when the group is
    /// not backed by a stored relation. A static property of the
    /// pre-update catalog.
    fn access_resolution(&self, catalog: &Catalog, g: GroupId, cols: &[usize]) -> String {
        let g = self.memo.find(g);
        let table = self.materialized.get(&g).cloned().or_else(|| {
            self.memo.is_leaf(g).then(|| {
                self.memo.group_ops(g).iter().find_map(|&op| {
                    match &self.memo.op(op).op {
                        OpKind::Scan { table } => Some(table.clone()),
                        _ => None,
                    }
                })
            })?
        });
        let Some(table) = table else {
            return "derived".to_string();
        };
        if cols.is_empty() {
            return format!("scan({table})");
        }
        match catalog
            .table(&table)
            .ok()
            .and_then(|t| t.relation.find_exact_index(cols))
        {
            Some((_, false)) => format!("index({table})"),
            Some((_, true)) => format!("index({table}) permuted"),
            None => format!("scan({table})"),
        }
    }

    /// Compute one group's output delta from its children's deltas (and
    /// the pre-update catalog). Returns `None` when no child carries a
    /// delta (the group is unaffected this transaction).
    #[allow(clippy::too_many_arguments)]
    fn propagate_group(
        &self,
        catalog: &Catalog,
        table: &str,
        g: GroupId,
        op: OpId,
        deltas: &BTreeMap<GroupId, Cow<'_, Delta>>,
        exec: &QueryExec<'_>,
        ctx: &mut CostCtx<'_>,
        io: &mut IoMeter,
        posed: &mut u64,
        mut probe: Option<&mut GroupProbe>,
    ) -> IvmResult<Option<Delta>> {
        let children = self.prop_ctx.children.get(&op).ok_or_else(|| {
            IvmError::Internal("track op has no children entry (must be computed at build)".into())
        })?;
        // Exactly one child may carry a delta (sequential propagation;
        // a self-join of the updated table would put deltas on both).
        let carriers: Vec<usize> = children
            .iter()
            .enumerate()
            .filter(|(_, c)| deltas.get(c).is_some_and(|d| !d.is_empty()))
            .map(|(i, _)| i)
            .collect();
        if carriers.len() > 1 {
            return Err(IvmError::Unsupported(
                "propagation through a self-join of the updated relation".into(),
            ));
        }
        let Some(&delta_child) = carriers.first() else {
            return Ok(None);
        };
        let d_in: &Delta = deltas
            .get(&children[delta_child])
            .ok_or_else(|| {
                IvmError::Internal("carrier child lost its delta during propagation".into())
            })?
            .as_ref();
        if let Some(p) = probe.as_mut() {
            p.delta_in = d_in.size();
        }
        let node = self.prop_ctx.nodes.node(op, g, &self.memo);
        let self_mv = self
            .materialized
            .get(&g)
            .map(|t| catalog.table(t))
            .transpose()?;
        let complete = self
            .complete
            .get(table)
            .and_then(|per_op| per_op.get(&op))
            .copied()
            .unwrap_or(false);
        let mut access = EngineAccess {
            exec,
            ctx,
            children,
            self_rel: self_mv.map(|t| &t.relation),
            complete,
            batched: self.mode == PropagationMode::Fused,
            io,
            posed,
            queries: probe.map(|p| &mut p.queries),
        };
        Ok(Some(spacetime_delta::propagate(&node, delta_child, d_in, &mut access)?))
    }

    /// Phase 2: apply a planned update's view deltas (the base relation is
    /// the caller's responsibility, since several engines may share it).
    /// Deltas are applied to the live catalog tables **in place** (the
    /// catalog's `Arc`s are unshared in steady state, so `Arc::make_mut`
    /// mutates without copying), and every op is recorded in `undo` so the
    /// caller can roll the whole transaction back on any later failure.
    ///
    /// Returns *only* the apply-phase I/O (`root_io`/`aux_io`). The
    /// planning-phase `query_io` stays in `planned.report`; the caller
    /// merges the two, so a plan's I/O is counted exactly once no matter
    /// how many engines' reports are combined.
    ///
    /// The `ivm::commit_view` failpoint fires before each view delta.
    pub fn commit_in_place(
        &self,
        catalog: &mut Catalog,
        planned: &PlannedUpdate,
        undo: &mut spacetime_delta::UndoLog,
    ) -> IvmResult<UpdateReport> {
        let mut report = UpdateReport::default();
        for (g, delta) in &planned.view_deltas {
            spacetime_storage::fault::fire("ivm::commit_view")?;
            let table = self.backing_table(g)?;
            let io = if self.roots.contains(g) {
                &mut report.root_io
            } else {
                &mut report.aux_io
            };
            let rel = &mut catalog.table_mut(table)?.relation;
            spacetime_delta::apply_to_relation_undo(delta, rel, io, undo)?;
        }
        Ok(report)
    }

    /// The backing table of a materialized group, as a typed error rather
    /// than a map-indexing panic (a plan can only reference groups this
    /// engine materialized; anything else is an internal invariant bug).
    fn backing_table(&self, g: &GroupId) -> IvmResult<&String> {
        self.materialized.get(g).ok_or_else(|| {
            IvmError::Internal(format!(
                "plan references group N{} which `{}` never materialized",
                g.0, self.name
            ))
        })
    }

    /// Names of every table this engine materialized (root views plus
    /// auxiliaries) — the set [`crate::Database::integrity_check`] expects
    /// to find attached in the catalog.
    pub fn materialized_tables(&self) -> impl Iterator<Item = &String> {
        self.materialized.values()
    }

    /// The root view's current contents.
    pub fn root_contents<'a>(&self, catalog: &'a Catalog) -> StorageResult<&'a Bag> {
        Ok(catalog.table(&self.name)?.relation.data())
    }
}

/// `InputAccess` over the engine: queries via [`QueryExec`] (charged),
/// self-rows from the node's own materialization (uncharged — the
/// subsequent update application pays for reading the tuple, per §3.6's
/// "reading, modifying and writing 1 tuple" arithmetic).
struct EngineAccess<'e, 'c, 'x> {
    exec: &'e QueryExec<'e>,
    ctx: &'e mut CostCtx<'c>,
    children: &'e [GroupId],
    self_rel: Option<&'e spacetime_storage::Relation>,
    complete: bool,
    batched: bool,
    io: &'x mut IoMeter,
    posed: &'x mut u64,
    /// When tracing, every posed query is also recorded here.
    queries: Option<&'x mut Vec<QueryRec>>,
}

impl EngineAccess<'_, '_, '_> {
    /// Count `keys` posed queries on `child` (and trace them as one
    /// record; an empty batch poses nothing — no phantom query).
    fn note_posed(&mut self, child: usize, cols: &[usize], keys: u64) {
        *self.posed += keys;
        if let Some(q) = self.queries.as_mut() {
            if keys > 0 {
                q.push(QueryRec {
                    child: self.children[child],
                    cols: cols.to_vec(),
                    keys,
                });
            }
        }
    }
}

impl InputAccess for EngineAccess<'_, '_, '_> {
    fn matching_all(
        &mut self,
        child: usize,
        cols: &[usize],
        keys: &[Vec<Value>],
    ) -> StorageResult<Vec<Cow<'_, Bag>>> {
        if self.batched {
            // One posed query per binding, same as the per-key path, so the
            // count is mode-independent (the *plans* differ, not the set of
            // posed queries — §2.2).
            self.note_posed(child, cols, keys.len() as u64);
            return self
                .exec
                .query_all(self.children[child], cols, keys, self.ctx, self.io);
        }
        // Per-key baseline: pose and plan each query individually. The
        // executor's answers borrow the catalog, not `self`, so they are
        // kept across the loop as they are.
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            self.note_posed(child, cols, 1);
            out.push(
                self.exec
                    .query(self.children[child], cols, key, self.ctx, self.io)?,
            );
        }
        Ok(out)
    }

    fn self_rows(
        &mut self,
        cols: &[usize],
        key: &[Value],
    ) -> StorageResult<Option<Cow<'_, Bag>>> {
        let Some(rel) = self.self_rel else {
            return Ok(None);
        };
        if self.batched {
            // The build phase indexed every materialized aggregate on its
            // group columns, so self-maintenance reads are O(1) probes that
            // borrow the bucket.
            if let Some((idx, permute)) = rel.find_exact_index(cols) {
                let bucket = if permute {
                    let probe = permuted_key(&index_key_remap(rel, idx, cols)?, key)?;
                    rel.peek(idx, &probe)
                } else {
                    rel.peek(idx, key)
                };
                return Ok(Some(Cow::Borrowed(bucket.unwrap_or(Bag::empty()))));
            }
        }
        Ok(Some(Cow::Owned(filter_binding(rel.data(), cols, key))))
    }

    fn group_complete(&self, _cols: &[usize]) -> bool {
        self.complete
    }
}

/// Distinct base tables scanned under `roots`: each root's tables not
/// already listed, sorted, in root order.
pub fn leaf_tables(memo: &Memo, roots: impl IntoIterator<Item = GroupId>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for root in roots {
        let start = out.len();
        for g in spacetime_memo::descendant_groups(memo, root) {
            for op in memo.group_ops(g) {
                if let OpKind::Scan { table } = &memo.op(op).op {
                    if !out.contains(table) {
                        out.push(table.clone());
                    }
                }
            }
        }
        out[start..].sort();
    }
    out
}

/// The leaf group scanning `table` under `root`.
fn leaf_group(memo: &Memo, root: GroupId, table: &str) -> Option<GroupId> {
    spacetime_memo::descendant_groups(memo, root)
        .into_iter()
        .find(|&g| {
            memo.group_ops(g)
                .iter()
                .any(|&op| matches!(&memo.op(op).op, OpKind::Scan { table: t } if t == table))
        })
}

/// Children-first order of a track's chosen groups.
fn topo_order(memo: &Memo, track: &UpdateTrack) -> Vec<GroupId> {
    let mut order = Vec::new();
    let mut state: BTreeMap<GroupId, u8> = BTreeMap::new();
    fn visit(
        memo: &Memo,
        track: &UpdateTrack,
        g: GroupId,
        state: &mut BTreeMap<GroupId, u8>,
        order: &mut Vec<GroupId>,
    ) {
        if state.get(&g).copied().unwrap_or(0) != 0 {
            return;
        }
        state.insert(g, 1);
        if let Some(&op) = track.choices.get(&g) {
            for c in memo.op_children(op) {
                visit(memo, track, c, state, order);
            }
        }
        state.insert(g, 2);
        order.push(g);
    }
    let keys: Vec<GroupId> = track.choices.keys().copied().collect();
    for g in keys {
        visit(memo, track, g, &mut state, &mut order);
    }
    order
}

/// Each track group's access-free prefix chain (`Scan → Select/Project…`
/// from the leaf), the input of the fused kernels; chains stop at the
/// first op that poses queries.
fn chain_plan(
    memo: &Memo,
    track: &UpdateTrack,
    order: &[GroupId],
    leaf: GroupId,
    table: &str,
) -> BTreeMap<GroupId, Vec<OpKind>> {
    let mut chains: BTreeMap<GroupId, Vec<OpKind>> = BTreeMap::new();
    chains.insert(
        leaf,
        vec![OpKind::Scan {
            table: table.to_string(),
        }],
    );
    for &g in order {
        let Some(&op) = track.choices.get(&g) else {
            continue;
        };
        let kind = &memo.op(op).op;
        if g == leaf || !matches!(kind, OpKind::Select { .. } | OpKind::Project { .. }) {
            continue;
        }
        if let Some(parent_chain) = memo.op_children(op).first().and_then(|c| chains.get(c)) {
            let mut chain = parent_chain.clone();
            chain.push(kind.clone());
            chains.insert(g, chain);
        }
    }
    // The leaf's "chain" is the base delta itself: nothing to compile.
    chains.remove(&leaf);
    chains
}

/// Short variant name of an op, for trace span labels.
fn kind_name(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Scan { .. } => "Scan",
        OpKind::Select { .. } => "Select",
        OpKind::Project { .. } => "Project",
        OpKind::Join { .. } => "Join",
        OpKind::Aggregate { .. } => "Aggregate",
        OpKind::Distinct => "Distinct",
    }
}

/// Column sets other nodes may query each group on (used to pre-create
/// indexes on materializations): join columns from parent joins, group
/// columns from parent aggregates, and each aggregate node's own group
/// columns (for self-maintenance lookups by the database layer). One pass
/// over the memo's ops covers every group, instead of one full walk per
/// materialized group.
fn needed_indexes_map(memo: &Memo) -> BTreeMap<GroupId, Vec<Vec<usize>>> {
    let mut out: BTreeMap<GroupId, Vec<Vec<usize>>> = BTreeMap::new();
    for group in memo.groups() {
        for op in memo.group_ops(group) {
            let children = memo.op_children(op);
            match &memo.op(op).op {
                OpKind::Join { condition } => {
                    if let Some(&c) = children.first() {
                        let cols = condition.left_cols();
                        if !cols.is_empty() {
                            out.entry(memo.find(c)).or_default().push(cols);
                        }
                    }
                    if let Some(&c) = children.get(1) {
                        let cols = condition.right_cols();
                        if !cols.is_empty() {
                            out.entry(memo.find(c)).or_default().push(cols);
                        }
                    }
                }
                OpKind::Aggregate { group_by, .. } if !group_by.is_empty() => {
                    if let Some(&c) = children.first() {
                        out.entry(memo.find(c)).or_default().push(group_by.clone());
                    }
                    // The node's own aggregate output keys (group columns).
                    out.entry(memo.find(group))
                        .or_default()
                        .push((0..group_by.len()).collect());
                }
                _ => {}
            }
        }
    }
    out
}
