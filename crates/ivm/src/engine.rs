//! The maintenance engine: materialize a chosen view set and keep it
//! incrementally maintained under base-table deltas.
//!
//! The engine executes the paper's §3.2 propagation model. At build it
//! chooses the cheapest update track of every base relation the DAG reads
//! and compiles it once into a `TrackPlan`: the track's groups as steps in
//! topological order, each child resolved to the slot its delta lands in,
//! the aggregates' key elimination decided and the access-free chains
//! compiled into fused kernels. An update then walks its table's steps,
//! computing each affected node's delta with the `spacetime-delta` rules —
//! answering the queries they pose through the [`Access`]es resolved at
//! compile time, so lookups hit materialized views exactly where the
//! optimizer assumed — and finally applies the deltas to every
//! materialized relation, charging the §3.6 update costs.
//!
//! There is one data plane (DESIGN.md §10). Each delta's distinct keys
//! are collected up front and answered by one batched query per (child,
//! columns), with a stored relation's index resolved once per batch, and
//! self-maintenance reads are index probes. A chain step (an access-free
//! `Select`/`Project` chain off the base scan) runs its compiled
//! [`FusedProgram`] straight off the base delta when its delta is needed,
//! and is skipped otherwise: an interior chain group's delta only feeds
//! the next stage, which the kernel fuses away. Chains pose no queries
//! and charge no I/O, so nothing the report counts depends on the fusion.
//! Tracing runs the same kernels: a needed chain step records one span
//! carrying its stage count.
//!
//! I/O is reported per bucket ([`UpdateReport`]) so callers can reproduce
//! the paper's accounting, which excludes base-relation and top-level-view
//! updates.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use spacetime_algebra::{ExprNode, ExprTree, FusedProgram, OpKind};
use spacetime_cost::{CostCtx, PageIoCostModel, TransactionType};
use spacetime_delta::{Delta, InputAccess};
use spacetime_memo::{GroupId, Memo};
use spacetime_optimizer::tracks::UpdateTrack;
use spacetime_optimizer::{EvalConfig, ViewSet};
use spacetime_storage::{Bag, Catalog, IoMeter, StorageResult, Value};

use spacetime_obs::{self as obs, names as metric, TraceNode};

use crate::qexec::{self, filter_binding, index_key_remap, permuted_key, Access, QueryExec};
use crate::trace::{GroupProbe, GroupRec, QueryRec};
use crate::{IvmError, IvmResult};

/// One base table's update track, compiled once at build: the table's
/// leaf group and the track's groups as steps in topological order
/// (children first). Propagation walks the steps front to back and keeps
/// the deltas in slots: slot 0 holds the base delta, slot `i + 1` step
/// `i`'s output.
#[derive(Debug)]
struct TrackPlan {
    /// The leaf group scanning the table.
    leaf: GroupId,
    /// Whether the leaf is materialized: a view that is the bare table
    /// (`SELECT * FROM t`) takes the base delta as it is.
    leaf_mv: bool,
    /// Every group the track chose an op for, children first.
    steps: Vec<Step>,
    /// The topological order as the trace's `track` field renders it: the
    /// steps plus the leaf and the off-track inputs they read.
    path: String,
}

/// One group of a compiled track.
#[derive(Debug)]
struct Step {
    group: GroupId,
    /// The detached single-op node handed to `delta::propagate` (children
    /// stripped; the propagation rules read only the op and the output
    /// schema).
    node: ExprNode,
    /// The op's children, in the op's order.
    children: Vec<Child>,
    /// Key elimination (§3.4) for an aggregate op: its child's delta
    /// covers every row of each group it touches.
    complete: bool,
    /// The backing table when the group is materialized.
    mv: Option<String>,
    /// The access-free chain from the base scan through `Select`/`Project`
    /// steps only, compiled into a kernel that runs straight off the base
    /// delta.
    chain: Option<Chain>,
}

/// One child of a compiled step.
#[derive(Debug)]
struct Child {
    group: GroupId,
    /// The slot its delta lives in; `None` for a child off the track,
    /// which never carries a delta.
    slot: Option<usize>,
    /// The query the step poses on this child when a sibling carries the
    /// delta (a join's other child on the join columns) or when it does
    /// (an aggregate's child on the group columns, a distinct's on every
    /// column), resolved at compile time.
    access: Option<Access>,
}

/// A fused chain step.
#[derive(Debug)]
struct Chain {
    program: FusedProgram,
    /// Whether the fused path still needs the group's delta: it is
    /// materialized or feeds a non-chain step. An interior chain group is
    /// skipped, its delta existed only to carry data to the next stage.
    needed: bool,
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
    /// Number of queries posed during propagation (§2.2). Batching is an
    /// execution detail: a batched `matching_all` over k keys counts k.
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

/// One maintained view (plus its chosen auxiliary materializations), or
/// one assertion: the view an assertion requires to stay empty. An engine
/// is built once and never changes after the database registers it, so
/// database clones share it behind an `Arc`.
#[derive(Debug)]
pub struct IvmEngine {
    /// The view's name (backing table of the root).
    pub name: String,
    /// The expression DAG.
    pub memo: Memo,
    /// Primary root group (the view itself).
    pub root: GroupId,
    /// All root groups (one per view when several views share this
    /// engine's DAG, §6's multi-rooted case; contains `root`).
    pub roots: BTreeSet<GroupId>,
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
    /// The compiled update track of each base table the DAG reads.
    track_plans: BTreeMap<String, TrackPlan>,
    /// The assertion this engine's view backs (§1, §6: a view required to
    /// be empty), if any.
    pub assertion: Option<String>,
}

impl IvmEngine {
    /// Materialize `view_set` (the root plus auxiliaries) into the
    /// catalog, choose and compile per-table update tracks, and return
    /// the engine.
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
    /// create/evaluate/load/analyze step is skipped wholesale, while the
    /// tracks are chosen and compiled fresh against the restored
    /// statistics.
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
        let named_roots: Vec<(String, GroupId)> = named_roots
            .into_iter()
            .map(|(n, g)| (n, memo.find(g)))
            .collect();
        let Some((name, root)) = named_roots.first().cloned() else {
            return Err(IvmError::Unsupported(
                "an engine needs at least one root view".into(),
            ));
        };
        let roots: BTreeSet<GroupId> = named_roots.iter().map(|&(_, g)| g).collect();
        let view_set: ViewSet = view_set
            .iter()
            .map(|&g| memo.find(g))
            .chain(roots.iter().copied())
            .collect();

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
        // transactions, priced together as one workload; the optimizer's
        // evaluation machinery picks the same tracks its cost tables did)
        // and compile it.
        let mut track_plans = BTreeMap::new();
        let mut ctx = CostCtx::new(&memo, catalog, &PageIoCostModel::PAPER);
        let root_vec: Vec<GroupId> = roots.iter().copied().collect();
        let probes = default_workload(&memo, &root_vec);
        let eval = spacetime_optimizer::evaluate_view_set(
            &mut ctx,
            catalog,
            &root_vec,
            &view_set,
            &probes,
            &EvalConfig::default(),
        );
        for ((table, leaf), probe) in leaves(&memo, root_vec).into_iter().zip(&eval.per_txn) {
            let Some(best) = &probe.best else {
                continue;
            };
            let plan = compile_track(&mut ctx, &best.track, &table, leaf, &materialized)?;
            track_plans.insert(table, plan);
        }

        Ok(IvmEngine {
            name,
            memo,
            root,
            roots,
            view_set,
            materialized,
            creation: Vec::new(),
            track_plans,
            assertion: None,
        })
    }

    /// Whether this engine's DAG reads `table`.
    pub fn depends_on(&self, table: &str) -> bool {
        self.track_plans.contains_key(table)
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
        let Some(plan) = self.track_plans.get(table) else {
            return Ok(PlannedUpdate {
                view_deltas: Vec::new(),
                report,
                trace: None,
            });
        };
        obs::counter_add(metric::TRACK_PROPAGATIONS, 1);
        let exec = QueryExec::new(catalog);
        // The base delta's slot borrows the caller's delta (never cloned);
        // each step pushes its own, `None` when the update leaves the group
        // alone. Trace records are kept per step, and only when tracing.
        let mut slots: Vec<Option<Cow<'_, Delta>>> = Vec::with_capacity(plan.steps.len() + 1);
        slots.push(Some(Cow::Borrowed(base_delta)));
        let mut recs: Vec<Option<GroupRec>> = Vec::new();
        for step in &plan.steps {
            let t0 = trace.then(Instant::now);
            let (out, rec) = match &step.chain {
                // A chain step runs the whole compiled chain off the base
                // delta if anything downstream needs its delta (traced as
                // one span), and is skipped entirely otherwise. Chains pose
                // no queries and charge no I/O.
                Some(chain) if !chain.needed => (None, None),
                Some(chain) => {
                    let d = spacetime_delta::propagate_chain(&chain.program, base_delta)?;
                    let rec = t0.map(|t0| GroupRec {
                        probe: GroupProbe {
                            delta_in: base_delta.size(),
                            ..GroupProbe::default()
                        },
                        delta_out: d.size(),
                        stages: Some(chain.program.stage_count()),
                        wall_ns: t0.elapsed().as_nanos() as u64,
                        ..GroupRec::default()
                    });
                    ((!d.is_empty()).then_some(d), rec)
                }
                _ => {
                    let mut posed = 0u64;
                    let mut probe = trace.then(GroupProbe::default);
                    let out = propagate_group(
                        step,
                        &slots,
                        &exec,
                        &mut report.query_io,
                        &mut posed,
                        probe.as_mut(),
                    )?;
                    report.queries_posed += posed;
                    let rec = match (&out, probe, t0) {
                        (Some(d), Some(probe), Some(t0)) => Some(GroupRec {
                            probe,
                            delta_out: d.size(),
                            posed,
                            stages: None,
                            wall_ns: t0.elapsed().as_nanos() as u64,
                        }),
                        _ => None,
                    };
                    (out, rec)
                }
            };
            slots.push(out.map(Cow::Owned));
            if trace {
                recs.push(rec);
            }
        }

        // Every step that got a delta this update.
        obs::counter_add(
            metric::TRACK_GROUPS_PROPAGATED,
            slots[1..].iter().flatten().count() as u64,
        );
        // Deltas for materialized nodes, children before parents (the leaf,
        // then the steps' order), so commit order never violates
        // referential assumptions. Moved out of their slots, not cloned.
        let groups = std::iter::once((plan.leaf, plan.leaf_mv)).chain(
            plan.steps
                .iter()
                .map(|step| (step.group, step.mv.is_some())),
        );
        let view_deltas: Vec<(GroupId, Delta)> = groups
            .zip(slots)
            .filter_map(|((g, mv), d)| Some((g, d.filter(|_| mv)?.into_owned())))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        obs::counter_add(metric::QUERIES_POSED, report.queries_posed);
        let trace = trace.then(|| self.plan_trace(table, base_delta, plan, &recs));
        Ok(PlannedUpdate {
            view_deltas,
            report,
            trace,
        })
    }

    /// Assemble the propagation trace from the per-step recordings: the
    /// leaf scan, then every step that ran, in the track's topological
    /// order.
    fn plan_trace(
        &self,
        table: &str,
        base_delta: &Delta,
        plan: &TrackPlan,
        recs: &[Option<GroupRec>],
    ) -> TraceNode {
        let mut root = TraceNode::new(format!("propagate {}", self.name))
            .with_field("table", table)
            .with_field("track", &plan.path);
        root.push_child(
            TraceNode::new(format!("N{} Scan", plan.leaf.0))
                .with_field("op", format!("Scan({table})"))
                .with_field("Δout", base_delta.size()),
        );
        for (step, rec) in plan.steps.iter().zip(recs) {
            let Some(rec) = rec else {
                continue;
            };
            let kind = &step.node.op;
            let mut node = TraceNode::new(format!("N{} {}", step.group.0, kind_name(kind)))
                .with_field("op", kind)
                .with_field("Δin", rec.probe.delta_in)
                .with_field("Δout", rec.delta_out)
                .with_field("posed", rec.posed);
            if let Some(stages) = rec.stages {
                node.push_field("stages", stages);
            }
            if let Some(mv) = &step.mv {
                node.push_field("mv", mv);
            }
            for q in &rec.probe.queries {
                node.push_child(
                    TraceNode::new("query")
                        .with_field("child", format!("N{}", q.child.0))
                        .with_field("cols", format!("{:?}", q.cols))
                        .with_field("keys", q.keys)
                        .with_field("via", &q.via),
                );
            }
            node.wall_ns = Some(rec.wall_ns);
            root.push_child(node);
        }
        root
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
}

/// Compute one step's output delta from its children's slots (and the
/// pre-update catalog). Returns `None` when no child carries a delta (the
/// group is unaffected this transaction).
fn propagate_group(
    step: &Step,
    slots: &[Option<Cow<'_, Delta>>],
    exec: &QueryExec<'_>,
    io: &mut IoMeter,
    posed: &mut u64,
    mut probe: Option<&mut GroupProbe>,
) -> IvmResult<Option<Delta>> {
    // Exactly one child may carry a delta (sequential propagation; a
    // self-join of the updated table would put deltas on both). A child's
    // slot precedes its parent's, so it has been filled already.
    let mut carriers = step.children.iter().enumerate().filter_map(|(i, child)| {
        let d = slots[child.slot?].as_deref()?;
        (!d.is_empty()).then_some((i, d))
    });
    let Some((delta_child, d_in)) = carriers.next() else {
        return Ok(None);
    };
    if carriers.next().is_some() {
        return Err(IvmError::Unsupported(
            "propagation through a self-join of the updated relation".into(),
        ));
    }
    if let Some(p) = probe.as_mut() {
        p.delta_in = d_in.size();
    }
    let self_mv = step
        .mv
        .as_deref()
        .map(|t| exec.catalog.table(t))
        .transpose()?;
    let mut access = EngineAccess {
        exec,
        children: &step.children,
        self_rel: self_mv.map(|t| &t.relation),
        complete: step.complete,
        io,
        posed,
        queries: probe.map(|p| &mut p.queries),
        unresolved: None,
    };
    let out = spacetime_delta::propagate(&step.node, delta_child, d_in, &mut access);
    if let Some(msg) = access.unresolved {
        return Err(IvmError::Internal(msg));
    }
    Ok(Some(out?))
}

/// `InputAccess` over the engine: queries through the step's resolved
/// [`Access`]es, run by [`QueryExec`] a batch at a time (charged),
/// self-rows from the node's own materialization (uncharged — the
/// subsequent update application pays for reading the tuple, per §3.6's
/// "reading, modifying and writing 1 tuple" arithmetic).
struct EngineAccess<'e, 'c> {
    exec: &'e QueryExec<'c>,
    children: &'e [Child],
    self_rel: Option<&'e spacetime_storage::Relation>,
    complete: bool,
    io: &'e mut IoMeter,
    posed: &'e mut u64,
    /// When tracing, every posed query is also recorded here.
    queries: Option<&'e mut Vec<QueryRec>>,
    /// Set when the rules pose a query the step did not resolve.
    unresolved: Option<String>,
}

impl<'e> EngineAccess<'e, '_> {
    /// The access the step resolved for a query on `child` on `cols`. A
    /// query it did not resolve is a compile bug, surfaced by
    /// `propagate_group` as an [`IvmError::Internal`].
    fn access(&mut self, child: usize, cols: &[usize]) -> StorageResult<&'e Access> {
        let children: &'e [Child] = self.children;
        match children.get(child) {
            Some(Child {
                access: Some(a), ..
            }) if a.cols == cols => Ok(a),
            _ => {
                let msg = format!("a query on child {child} on {cols:?} the step did not resolve");
                self.unresolved = Some(msg.clone());
                Err(spacetime_storage::StorageError::Internal(msg))
            }
        }
    }

    /// Count `keys` posed queries through `access` on `child` (and trace
    /// them as one record; an empty batch poses nothing — no phantom
    /// query).
    fn note_posed(&mut self, child: usize, access: &Access, keys: u64) {
        *self.posed += keys;
        if let Some(q) = self.queries.as_mut() {
            if keys > 0 {
                q.push(QueryRec {
                    child: self.children[child].group,
                    cols: access.cols.clone(),
                    keys,
                    via: access.via(self.exec.catalog),
                });
            }
        }
    }
}

impl InputAccess for EngineAccess<'_, '_> {
    fn matching_all(
        &mut self,
        child: usize,
        cols: &[usize],
        keys: &[Vec<Value>],
    ) -> StorageResult<Vec<Cow<'_, Bag>>> {
        let access = self.access(child, cols)?;
        // One posed query per binding: the batch is how they execute, not
        // how many the rules posed (§2.2).
        self.note_posed(child, access, keys.len() as u64);
        self.exec.query_all(access, keys, self.io)
    }

    fn self_rows(&mut self, cols: &[usize], key: &[Value]) -> StorageResult<Option<Cow<'_, Bag>>> {
        let Some(rel) = self.self_rel else {
            return Ok(None);
        };
        // The build phase indexed every materialized aggregate on its group
        // columns, so self-maintenance reads are O(1) probes that borrow
        // the bucket.
        if let Some((idx, permute)) = rel.find_exact_index(cols) {
            let bucket = if permute {
                let probe = permuted_key(&index_key_remap(rel, idx, cols)?, key)?;
                rel.peek(idx, &probe)
            } else {
                rel.peek(idx, key)
            };
            return Ok(Some(Cow::Borrowed(bucket.unwrap_or(Bag::empty()))));
        }
        Ok(Some(Cow::Owned(filter_binding(rel.data(), cols, key))))
    }

    fn group_complete(&self, _cols: &[usize]) -> bool {
        self.complete
    }
}

/// Distinct base tables scanned under `roots`, each with the first group
/// found scanning it: each root's tables not already listed, sorted, in
/// root order.
pub(crate) fn leaves(
    memo: &Memo,
    roots: impl IntoIterator<Item = GroupId>,
) -> Vec<(String, GroupId)> {
    let mut out: Vec<(String, GroupId)> = Vec::new();
    for root in roots {
        let start = out.len();
        for g in spacetime_memo::descendant_groups(memo, root) {
            for op in memo.group_ops(g) {
                if let OpKind::Scan { table } = &memo.op(op).op {
                    if !out.iter().any(|(t, _)| t == table) {
                        out.push((table.clone(), g));
                    }
                }
            }
        }
        out[start..].sort();
    }
    out
}

/// The default workload: one unit modification per base relation under
/// `roots`, in [`leaves`] order, equal weights (§3.2's model with no
/// further information). It is also the set of probes an engine picks its
/// per-table tracks with.
pub(crate) fn default_workload(memo: &Memo, roots: &[GroupId]) -> Vec<TransactionType> {
    leaves(memo, roots.iter().copied())
        .into_iter()
        .map(|(t, _)| TransactionType::modify(format!(">{t}"), t, 1.0))
        .collect()
}

/// Compile `table`'s chosen track into its [`TrackPlan`]: the track's
/// groups in topological order, each child resolved to its delta slot and
/// the query the step can pose on it resolved to an [`Access`], the
/// aggregates' key elimination decided (from `ctx`'s cached keys), and
/// every access-free chain compiled into a fused kernel.
fn compile_track(
    ctx: &mut CostCtx<'_>,
    track: &UpdateTrack,
    table: &str,
    leaf: GroupId,
    materialized: &BTreeMap<GroupId, String>,
) -> IvmResult<TrackPlan> {
    let memo = ctx.memo;
    let order = topo_order(memo, track);
    // The ops of each access-free chain off the base scan (the leaf's is
    // empty: its delta is the base delta), which the fused kernels run.
    let mut chain_ops: BTreeMap<GroupId, Vec<OpKind>> = BTreeMap::from([(leaf, vec![])]);
    let mut slot_of: BTreeMap<GroupId, usize> = BTreeMap::from([(leaf, 0)]);
    let mut steps: Vec<Step> = Vec::new();
    for &g in &order {
        let Some(&op) = track.choices.get(&g) else {
            continue;
        };
        let kind = &memo.op(op).op;
        let children = memo.op_children(op);
        let complete = match kind {
            OpKind::Aggregate { group_by, .. } => {
                spacetime_optimizer::delta_group_complete(ctx, track, children[0], group_by, table)
            }
            _ => false,
        };
        // A `Select` or `Project` over a chain extends it; any other op
        // does not compile.
        let ops: Option<Vec<OpKind>> = children
            .first()
            .and_then(|c| chain_ops.get(c))
            .map(|ops| ops.iter().chain([kind]).cloned().collect());
        let chain = ops.and_then(|ops| {
            let program = FusedProgram::compile(&ops)?;
            chain_ops.insert(g, ops);
            Some(Chain {
                program,
                needed: materialized.contains_key(&g),
            })
        });
        let slots: Vec<Option<usize>> = children.iter().map(|c| slot_of.get(c).copied()).collect();
        let mut step_children = Vec::with_capacity(children.len());
        for (i, &group) in children.iter().enumerate() {
            let posed = match kind {
                OpKind::Join { condition } if slots[1 - i].is_some() => Some(if i == 0 {
                    condition.left_cols()
                } else {
                    condition.right_cols()
                }),
                OpKind::Aggregate { group_by, .. } => Some(group_by.clone()),
                OpKind::Distinct => Some((0..memo.schema(g).arity()).collect()),
                _ => None,
            };
            step_children.push(Child {
                group,
                slot: slots[i],
                access: posed
                    .map(|cols| qexec::resolve(ctx, materialized, group, &cols))
                    .transpose()?,
            });
        }
        steps.push(Step {
            group: g,
            node: ExprNode {
                op: kind.clone(),
                children: vec![],
                schema: memo.schema(g).clone(),
            },
            children: step_children,
            complete,
            mv: materialized.get(&g).cloned(),
            chain,
        });
        slot_of.insert(g, steps.len());
    }
    // A chain group's delta is also needed when a non-chain step reads it.
    let fed: Vec<usize> = steps
        .iter()
        .filter(|s| s.chain.is_none())
        .flat_map(|s| s.children.iter().filter_map(|c| c.slot?.checked_sub(1)))
        .collect();
    for i in fed {
        if let Some(chain) = &mut steps[i].chain {
            chain.needed = true;
        }
    }
    let path: Vec<String> = order.iter().map(|g| format!("N{}", g.0)).collect();
    Ok(TrackPlan {
        leaf,
        leaf_mv: materialized.contains_key(&leaf),
        steps,
        path: path.join("→"),
    })
}

/// Children-first order of a track's chosen groups and the groups they
/// read.
fn topo_order(memo: &Memo, track: &UpdateTrack) -> Vec<GroupId> {
    fn visit(
        memo: &Memo,
        track: &UpdateTrack,
        g: GroupId,
        seen: &mut BTreeSet<GroupId>,
        order: &mut Vec<GroupId>,
    ) {
        if !seen.insert(g) {
            return;
        }
        if let Some(&op) = track.choices.get(&g) {
            for c in memo.op_children(op) {
                visit(memo, track, c, seen, order);
            }
        }
        order.push(g);
    }
    let (mut seen, mut order) = (BTreeSet::new(), Vec::new());
    for &g in track.choices.keys() {
        visit(memo, track, g, &mut seen, &mut order);
    }
    order
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
