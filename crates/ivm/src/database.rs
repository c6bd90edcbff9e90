//! The user-facing database session.
//!
//! [`Database`] ties everything together: a storage catalog, a SQL front
//! end, a declared workload of transaction types, a view-selection
//! strategy, and one [`IvmEngine`] per materialized view, view group or
//! assertion (an assertion is a flag on its view's engine).
//! DML statements are converted to deltas, planned against every dependent
//! engine, gated on assertions (a violating transaction is rejected
//! *before* anything is applied — SQL-92 semantics), and committed with
//! full I/O accounting. Every committing write — `apply_delta` and so SQL
//! DML, `apply_transaction`, `run` — is a transaction through one door,
//! `Database::transact`, the one place a journal is replayed. A database
//! can own a write-ahead log, a checkpoint and recovery
//! (`crate::durability`); batches are served by [`Database::run`]
//! (`crate::sched`).

use std::sync::Arc;

use spacetime_algebra::{eval_uncharged, ExprNode, ExprTree, KernelScratch, ScalarExpr};
use spacetime_cost::{PageIoCostModel, TransactionType};
use spacetime_delta::Delta;
use spacetime_memo::{explore, GroupId, Memo};
use spacetime_obs::{self as obs, names as metric, MetricsSnapshot, TraceNode};
use spacetime_optimizer::{greedy_add, optimal_view_set, EvalConfig, ViewSet};
use spacetime_sql::{lower::lower_literal_row, lower_select, parse_statements, Statement};
use spacetime_storage::{Bag, Catalog, Column, Schema, Tuple, Value};

use crate::constraints::Violation;
use crate::engine::{default_workload, IvmEngine, PlannedUpdate, UpdateReport};
use crate::{IvmError, IvmResult};

/// How auxiliary views are chosen when a view, a view group or an
/// assertion is created. A view group's choice covers all of its roots
/// at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewSelection {
    /// Materialize only the view itself (every view of a group).
    RootOnly,
    /// Algorithm OptimalViewSet (Figure 4) — exhaustive.
    #[default]
    Exhaustive,
    /// Greedy hill-climbing (§5, approximate costing).
    Greedy,
}

/// Outcome of one executed statement.
#[derive(Debug)]
pub enum SqlOutcome {
    /// DDL completed.
    Created(String),
    /// Rows from a `SELECT`.
    Rows(Bag),
    /// DML completed; how many tuples were touched, with the maintenance
    /// report.
    Updated {
        /// Touched base tuples.
        count: u64,
        /// Combined maintenance I/O across engines.
        report: UpdateReport,
    },
}

/// A database session.
///
/// `Clone` is cheap: the catalog's tables and the engines sit behind
/// `Arc`s, so a clone shares all storage copy-on-write, and every engine
/// for good (engines never change once registered). The fault harness
/// relies on this to stamp out fresh databases from a prebuilt template.
/// A clone of a durable database is an in-memory copy: it never writes
/// the original's log.
#[derive(Clone)]
pub struct Database {
    /// Storage: base tables and materialized views.
    pub catalog: Catalog,
    /// One engine per view, view group or assertion, in creation order;
    /// never changed once registered, so clones share them.
    engines: Vec<Arc<IvmEngine>>,
    workload: Vec<TransactionType>,
    selection: ViewSelection,
    tracing: bool,
    last_trace: Option<TraceNode>,
    /// The rollback journal — the one rollback mechanism (DESIGN.md §12).
    /// A transaction starts it empty, its updates append to it, and
    /// `Database::transact` resets it on commit or replays it on abort.
    /// Held on the session so its buffers are pooled across transactions
    /// (reset, never freed).
    undo: spacetime_delta::UndoLog,
    /// The fused kernels' row buffers, pooled across updates like `undo`.
    scratch: KernelScratch,
    /// Accumulate per-phase wall clock across updates (see
    /// [`Database::set_phase_stats`]).
    collect_phases: bool,
    phase_totals: PhaseTotals,
    /// The write-ahead log of a durable database (off until
    /// `make_durable` or `open`; a clone never carries it).
    pub(crate) log: crate::durability::Log,
}

/// Cumulative wall-clock attribution of [`Database::apply_delta`] across
/// its three phases, summed over every update since phase collection was
/// (re)enabled. Phase timing is an observation only — it never changes
/// deltas, reports, or view contents.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Phase 1: delta propagation along the update tracks (planning).
    pub plan_ns: u64,
    /// Assertion gate: integrity checks against pre-update state.
    pub gate_ns: u64,
    /// Phase 2: applying the planned deltas (commit).
    pub commit_ns: u64,
    /// Updates the totals cover.
    pub updates: u64,
}

impl PhaseTotals {
    /// Total attributed nanoseconds across all three phases.
    pub fn sum_ns(&self) -> u64 {
        self.plan_ns + self.gate_ns + self.commit_ns
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database with the default (exhaustive) view selection.
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            engines: Vec::new(),
            workload: Vec::new(),
            selection: ViewSelection::default(),
            tracing: false,
            last_trace: None,
            undo: spacetime_delta::UndoLog::new(),
            scratch: KernelScratch::default(),
            collect_phases: false,
            phase_totals: PhaseTotals::default(),
            log: Default::default(),
        }
    }

    /// Turn per-phase wall-clock accumulation on or off (resetting the
    /// totals either way). While on, every successful
    /// [`Database::apply_delta`] adds its plan/gate/commit durations to
    /// the totals returned by [`Database::phase_totals`] — a few clock
    /// reads per update, independent of tracing.
    pub fn set_phase_stats(&mut self, on: bool) {
        self.collect_phases = on;
        self.phase_totals = PhaseTotals::default();
    }

    /// The accumulated phase attribution (zeros unless
    /// [`Database::set_phase_stats`] is on).
    pub fn phase_totals(&self) -> PhaseTotals {
        self.phase_totals
    }

    /// Turn propagation tracing on or off. While on, every
    /// [`Database::apply_delta`] / [`Database::apply_transaction`] records
    /// an `EXPLAIN ANALYZE`-style span tree, retrievable with
    /// [`Database::last_trace`]. Tracing does extra bookkeeping (probes and
    /// clock reads) but never changes deltas, reports, or view contents.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last_trace = None;
        }
    }

    /// Whether propagation tracing is on.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The trace recorded by the most recent successful
    /// [`Database::apply_delta`] / [`Database::apply_transaction`], if
    /// tracing is on. Render it with [`TraceNode::render_text`] (the
    /// `EXPLAIN ANALYZE` tree) or [`TraceNode::render_json`].
    pub fn last_trace(&self) -> Option<&TraceNode> {
        self.last_trace.as_ref()
    }

    /// A snapshot of the process-wide metrics registry: pool, track, and
    /// latency series accumulated across every database in the
    /// process. Empty (all maps empty) in default builds — metrics only
    /// record when the `metrics` cargo feature is enabled
    /// ([`spacetime_obs::compiled`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        obs::snapshot()
    }

    /// Set the view-selection strategy for subsequently created views.
    pub fn set_view_selection(&mut self, s: ViewSelection) {
        self.selection = s;
    }

    /// Declare the workload (transaction types with weights) the optimizer
    /// should plan for. Without a declaration, a unit modification per
    /// base relation with equal weights is assumed.
    pub fn declare_workload(&mut self, txns: Vec<TransactionType>) {
        self.workload = txns;
    }

    /// The engines (for inspection/benchmarks).
    pub fn engines(&self) -> &[Arc<IvmEngine>] {
        &self.engines
    }

    /// Execute one or more `;`-separated SQL statements, returning the
    /// last statement's outcome.
    pub fn execute_sql(&mut self, sql: &str) -> IvmResult<SqlOutcome> {
        let stmts = parse_statements(sql)?;
        if stmts.is_empty() {
            return Err(IvmError::Unsupported("empty statement".into()));
        }
        let mut last = None;
        for stmt in stmts {
            last = Some(self.execute(stmt)?);
        }
        Ok(last.expect("nonempty checked"))
    }

    fn execute(&mut self, stmt: Statement) -> IvmResult<SqlOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| Column::new(&name, &c.name, c.dtype))
                        .collect(),
                );
                self.catalog.create_table(&name, schema)?;
                let keys: Vec<&str> = columns
                    .iter()
                    .filter(|c| c.primary_key)
                    .map(|c| c.name.as_str())
                    .collect();
                if !keys.is_empty() {
                    self.catalog.declare_key(&name, &keys)?;
                }
                Ok(SqlOutcome::Created(name))
            }
            Statement::CreateIndex { table, columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.catalog.create_index(&table, &cols)?;
                Ok(SqlOutcome::Created(table))
            }
            Statement::CreateView {
                name,
                columns,
                select,
                ..
            } => {
                let mut tree = lower_select(&select, &self.catalog)?;
                if let Some(cols) = columns {
                    tree = rename_outputs(tree, &cols)?;
                }
                self.create_materialized_view(&name, tree)?;
                Ok(SqlOutcome::Created(name))
            }
            Statement::CreateAssertion { name, select } => {
                let tree = lower_select(&select, &self.catalog)?;
                self.create_assertion(&name, tree)?;
                Ok(SqlOutcome::Created(name))
            }
            Statement::Insert { table, rows } => {
                let mut delta = Delta::new();
                for row in &rows {
                    let values = lower_literal_row(row)?;
                    delta.inserts.insert(Tuple::new(values), 1);
                }
                let count = delta.size();
                let report = self.apply_delta(&table, delta)?;
                Ok(SqlOutcome::Updated { count, report })
            }
            Statement::Delete { table, predicate } => {
                let rows = self.matching_rows(&table, predicate.as_ref())?;
                let mut delta = Delta::new();
                for (t, c) in rows.iter() {
                    delta.deletes.insert(t.clone(), c);
                }
                let count = delta.size();
                let report = self.apply_delta(&table, delta)?;
                Ok(SqlOutcome::Updated { count, report })
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let schema = self.catalog.table(&table)?.schema().clone();
                let assignments: Vec<(usize, ScalarExpr)> = sets
                    .iter()
                    .map(|(col, e)| {
                        let pos = schema.resolve(None, col)?;
                        let lowered = spacetime_sql::lower::lower_scalar(e, &schema)
                            .map_err(IvmError::Sql)?;
                        Ok::<_, IvmError>((pos, lowered))
                    })
                    .collect::<IvmResult<_>>()?;
                let rows = self.matching_rows(&table, predicate.as_ref())?;
                let mut delta = Delta::new();
                for (t, c) in rows.iter() {
                    let mut new_vals: Vec<Value> = t.values().to_vec();
                    for (pos, e) in &assignments {
                        new_vals[*pos] = e.eval(t)?;
                    }
                    delta.push_modify(t.clone(), Tuple::new(new_vals), c);
                }
                let count = delta.size();
                let report = self.apply_delta(&table, delta)?;
                Ok(SqlOutcome::Updated { count, report })
            }
            Statement::Select(select) => {
                let tree = lower_select(&select, &self.catalog)?;
                Ok(SqlOutcome::Rows(eval_uncharged(&tree, &self.catalog)?))
            }
        }
    }

    fn matching_rows(
        &self,
        table: &str,
        predicate: Option<&spacetime_sql::Expr>,
    ) -> IvmResult<Bag> {
        let t = self.catalog.table(table)?;
        let data = t.relation.data();
        match predicate {
            None => Ok(data.clone()),
            Some(p) => {
                let pred = spacetime_sql::lower::lower_scalar(p, t.schema())?;
                let mut out = Bag::new();
                for (tup, c) in data.iter() {
                    if pred.eval_predicate(tup)? {
                        out.insert(tup.clone(), c);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Programmatic view creation: build the DAG, run the configured
    /// view-selection strategy against the declared workload, materialize,
    /// and register the engine.
    pub fn create_materialized_view(
        &mut self,
        name: &str,
        tree: ExprTree,
    ) -> IvmResult<&IvmEngine> {
        self.create(vec![(name.to_string(), tree)], None)
    }

    /// Create several views over **one shared DAG** (§6: "the expression
    /// DAG … may therefore have multiple roots, and every view that must
    /// be materialized will be marked"). The session's [`ViewSelection`]
    /// chooses auxiliary views once for the whole group, so a
    /// subexpression shared by several views is materialized and
    /// maintained once: `RootOnly` materializes the group's views alone,
    /// `Greedy` climbs from them, and `Exhaustive` runs the same uncapped
    /// walk a single view gets, which on a DAG too wide to finish within
    /// `spacetime_optimizer::search::SEARCH_BUDGET` claimed sets returns
    /// the best set it priced.
    pub fn create_view_group(&mut self, views: Vec<(String, ExprTree)>) -> IvmResult<&IvmEngine> {
        if views.is_empty() {
            return Err(IvmError::Unsupported("empty view group".into()));
        }
        self.create(views, None)
    }

    /// Create an assertion: a maintained view that must stay empty, its
    /// engine flagged with the assertion's name. Fails if the current data
    /// already violates it, and then leaves nothing behind.
    pub fn create_assertion(&mut self, name: &str, tree: ExprTree) -> IvmResult<()> {
        self.create(vec![(format!("__assert_{name}"), tree)], Some(name))?;
        Ok(())
    }

    /// The one creation path: explore the views into one DAG, choose its
    /// view set for the declared (or default) workload, materialize it,
    /// and register the engine — unless building fails or the engine backs
    /// an `assertion` the current data violates, in which case every table
    /// it materialized is dropped again. One view and a view group alike
    /// run the session's [`ViewSelection`] over all their roots.
    fn create(
        &mut self,
        views: Vec<(String, ExprTree)>,
        assertion: Option<&str>,
    ) -> IvmResult<&IvmEngine> {
        let before: Vec<String> = self.catalog.iter().map(|(n, _)| n.to_string()).collect();
        match self.build_engine(&views, assertion) {
            Ok(engine) => Ok(self.register(engine, views)),
            Err(e) => {
                let created: Vec<String> = self
                    .catalog
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .filter(|n| !before.contains(n))
                    .collect();
                for table in created {
                    self.catalog.drop_table(&table)?;
                }
                Err(e)
            }
        }
    }

    fn build_engine(
        &mut self,
        views: &[(String, ExprTree)],
        assertion: Option<&str>,
    ) -> IvmResult<IvmEngine> {
        let (memo, named_roots) = explore_views(views, &self.catalog)?;
        let roots: Vec<GroupId> = named_roots.iter().map(|&(_, g)| g).collect();
        let txns = if self.workload.is_empty() {
            default_workload(&memo, &roots)
        } else {
            self.workload.clone()
        };
        let (catalog, model) = (&self.catalog, PageIoCostModel::default());
        // Only the winner is read.
        let config = EvalConfig {
            top_k: 1,
            ..EvalConfig::default()
        };
        let view_set: ViewSet = match self.selection {
            ViewSelection::RootOnly => roots.iter().copied().collect(),
            ViewSelection::Greedy => {
                greedy_add(&memo, catalog, &model, &roots, &txns, &config)
                    .best
                    .view_set
            }
            ViewSelection::Exhaustive => {
                optimal_view_set(&memo, catalog, &model, &roots, &txns, &config)
                    .best
                    .view_set
            }
        };
        let mut engine =
            IvmEngine::build_with_roots(named_roots, memo, view_set, &mut self.catalog)?;
        engine.assertion = assertion.map(str::to_string);
        if let Some(v) = engine.violation(&self.catalog)? {
            return Err(violation_error(v));
        }
        Ok(engine)
    }

    /// Register a built engine with its creation trees — the recipe
    /// recovery rebuilds it from. The engine never changes afterwards.
    pub(crate) fn register(
        &mut self,
        mut engine: IvmEngine,
        creation: Vec<(String, ExprTree)>,
    ) -> &IvmEngine {
        engine.creation = creation;
        self.engines.push(Arc::new(engine));
        self.engines.last().expect("just pushed")
    }

    /// Apply a delta to a base table, incrementally maintaining every
    /// dependent view and checking assertions *before* committing
    /// anything. Returns the combined maintenance report. The update is a
    /// one-update transaction through the one transaction door — logged
    /// on a durable database, traced as a `transaction` — and nothing is
    /// allocated to make it one.
    pub fn apply_delta(&mut self, table: &str, delta: Delta) -> IvmResult<UpdateReport> {
        self.transact(&[(table, delta)])
    }

    /// One update of a transaction: plan, gate, commit. Its writes join
    /// the transaction's journal.
    fn apply_update(&mut self, table: &str, delta: &Delta) -> IvmResult<UpdateReport> {
        // No trace is pending here: the door took the prior one and the
        // transaction body takes each update's, so a failed or empty
        // update leaves none behind.
        if delta.is_empty() {
            return Ok(UpdateReport::default());
        }
        obs::counter_add(metric::UPDATES_APPLIED, 1);
        let update_watch = obs::stopwatch();
        let timed = self.tracing || self.collect_phases;
        let t_plan = timed.then(std::time::Instant::now);
        // Phase 1: plan against pre-update state.
        let mut planned = Vec::with_capacity(self.engines.len());
        for e in &self.engines {
            let plan =
                e.plan_update_with(&self.catalog, table, delta, self.tracing, &mut self.scratch)?;
            planned.push(plan);
        }
        let plan_dur = t_plan.map(|t| t.elapsed());
        let t_gate = timed.then(std::time::Instant::now);
        // Assertion gate (always against pre-update state — a violating
        // transaction is rejected before any write): one pass over the
        // engines, each checking its own plan if it backs an assertion.
        for (e, plan) in self.engines.iter().zip(&planned) {
            if let Some(v) = e.violation_after(&self.catalog, plan)? {
                return Err(violation_error(v));
            }
        }
        // Phase 2: commit everywhere (DESIGN.md §12): writes are applied
        // in place on the live catalog, journaling an inverse op per
        // landed write, so on ANY failure (storage error, injected fault,
        // panic) the transaction door puts the catalog back bit-identical
        // to its state before the transaction's first update.
        let gate_dur = t_gate.map(|t| t.elapsed());
        let commit_watch = obs::stopwatch();
        let t_commit = timed.then(std::time::Instant::now);
        let combined = self.commit(table, delta, &planned)?;
        commit_watch.observe(metric::COMMIT_LATENCY_NS);
        update_watch.observe(metric::UPDATE_LATENCY_NS);
        let commit_dur = t_commit.map(|t| t.elapsed());
        if self.collect_phases {
            self.phase_totals.plan_ns += plan_dur.map_or(0, |d| d.as_nanos() as u64);
            self.phase_totals.gate_ns += gate_dur.map_or(0, |d| d.as_nanos() as u64);
            self.phase_totals.commit_ns += commit_dur.map_or(0, |d| d.as_nanos() as u64);
            self.phase_totals.updates += 1;
        }
        if self.tracing {
            self.last_trace =
                Some(self.update_trace(table, delta, &mut planned, plan_dur, gate_dur, commit_dur));
        }
        // Workload-drift accounting (ROADMAP item 4's input signal): the
        // per-table transaction mix and each view's maintenance-cost EWMA.
        // `compiled()` is const, so the whole block folds away by default.
        if obs::compiled() {
            obs::drift::note_txn(table);
            for (e, plan) in self.engines.iter().zip(planned.iter()) {
                obs::drift::note_view_cost(&e.name, plan.report.total() as f64);
            }
        }
        Ok(combined)
    }

    /// Assemble the per-update trace tree from the engines' propagation
    /// traces plus a commit section derived from `planned`. Called only
    /// when tracing is on, after a successful commit.
    fn update_trace(
        &self,
        table: &str,
        delta: &Delta,
        planned: &mut [PlannedUpdate],
        plan_dur: Option<std::time::Duration>,
        gate_dur: Option<std::time::Duration>,
        commit_dur: Option<std::time::Duration>,
    ) -> TraceNode {
        let mut root = TraceNode::new(format!("update {table}")).with_field("rows", delta.size());
        // Phase timings are observations about *how* the update ran, not
        // *what* it computed — non-structural by contract.
        if let (Some(p), Some(g), Some(c)) = (plan_dur, gate_dur, commit_dur) {
            root.push_note(format!(
                "phases plan={}ns gate={}ns commit={}ns",
                p.as_nanos(),
                g.as_nanos(),
                c.as_nanos()
            ));
            root.set_wall(p + g + c);
        }
        for plan in planned.iter_mut() {
            if let Some(t) = plan.trace.take() {
                root.push_child(t);
            }
        }
        let mut commit = TraceNode::new("commit");
        if let Some(c) = commit_dur {
            commit.set_wall(c);
        }
        for (e, plan) in self.engines.iter().zip(planned.iter()) {
            for (g, d) in &plan.view_deltas {
                let name = e
                    .materialized
                    .get(g)
                    .map(String::as_str)
                    .unwrap_or("<unmaterialized>");
                let kind = if e.roots.contains(g) { "view" } else { "aux" };
                commit.push_child(
                    TraceNode::new(format!("apply {name}"))
                        .with_field("kind", kind)
                        .with_field("rows", d.size()),
                );
            }
        }
        commit.push_child(
            TraceNode::new(format!("apply {table}"))
                .with_field("kind", "base")
                .with_field("rows", delta.size()),
        );
        root.push_child(commit);
        root
    }

    /// The journaled commit. View deltas and
    /// the base delta are applied *in place* on the live catalog,
    /// recording an inverse operation in the session's
    /// [`spacetime_delta::UndoLog`] for each landed write. In the steady
    /// state the cataloged `Arc<Table>`s are unshared — nothing on the
    /// transaction path holds a second reference — so `Arc::make_mut`
    /// copies nothing. Reports merge each engine's planning report with its
    /// apply report in engine order.
    ///
    /// A failure — a storage error, or an injected fault including the
    /// `storage::restore_table` commit gate, fired once per table this
    /// update journaled — propagates with every write the transaction
    /// landed so far in the journal, and so does a panic:
    /// `Database::transact` replays it.
    fn commit(
        &mut self,
        table: &str,
        delta: &Delta,
        planned: &[PlannedUpdate],
    ) -> IvmResult<UpdateReport> {
        // Entries before `mark` belong to earlier updates of the transaction.
        let mark = self.undo.table_count();
        let mut combined = UpdateReport::default();
        for (e, plan) in self.engines.iter().zip(planned) {
            combined.merge(&plan.report);
            let r = e.commit_in_place(&mut self.catalog, plan, &mut self.undo)?;
            combined.merge(&r);
        }
        let rel = &mut self.catalog.table_mut(table)?.relation;
        spacetime_delta::apply_to_relation_undo(delta, rel, &mut combined.base_io, &mut self.undo)?;
        // The commit gate: the last point a fault can stop the update,
        // with every write of it already in place.
        for _ in mark..self.undo.table_count() {
            spacetime_storage::fault::fire("storage::restore_table")?;
        }
        Ok(combined)
    }

    /// Apply a multi-relation transaction (the §3.2 transaction types may
    /// update several relations): each relation's delta is propagated
    /// sequentially, with immediate-mode assertion checking per step
    /// (SQL-92's default). Returns the summed maintenance report.
    ///
    /// All-or-nothing: if update *k* fails — including an assertion
    /// Violation detected only once updates `1..k` are in place — the
    /// whole transaction rolls back and the catalog is bit-identical to
    /// its pre-transaction state. The rollback is the undo journal, which
    /// spans the transaction: the inverse of every write updates `1..k`
    /// landed is replayed in reverse. Nothing is copied to make that
    /// possible, so a transaction costs its updates and no more.
    pub fn apply_transaction(&mut self, updates: Vec<(String, Delta)>) -> IvmResult<UpdateReport> {
        self.transact(&updates)
    }

    /// The one transaction door: `apply_delta` (and so SQL DML),
    /// [`Database::apply_transaction`] and [`Database::run`] all commit
    /// through it, and it is the one place a journal is replayed.
    ///
    /// The journal starts empty and every update appends the inverse of
    /// each write it lands. On a durable database the transaction is
    /// logged as submitted — its begin and deltas — before anything
    /// applies, and its commit record is the decision point: if the record
    /// cannot be written the transaction aborts, so memory never runs
    /// ahead of the log. On any failure — an error, an assertion
    /// violation, a panic unwinding an update — the journal replays in
    /// reverse and the trace the session showed before comes back, then
    /// the error propagates (or the panic resumes). A journal that does
    /// not match the catalog fails the transaction with
    /// [`IvmError::Internal`] instead, and `integrity_check` reports the
    /// entries left behind.
    pub(crate) fn transact<T: AsRef<str>>(
        &mut self,
        updates: &[(T, Delta)],
    ) -> IvmResult<UpdateReport> {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let logged = self.log.begin(updates)?;
        let prior_trace = self.last_trace.take();
        self.undo.reset();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> IvmResult<UpdateReport> {
            let report = self.apply_updates(updates)?;
            self.log.commit(logged)?;
            Ok(report)
        }));
        if matches!(outcome, Ok(Ok(_))) {
            self.undo.reset();
        } else {
            self.last_trace = prior_trace;
            replay_journal(&mut self.undo, &mut self.catalog)?;
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// The body of a transaction: the updates in order, their reports
    /// summed and their traces gathered under one `transaction` node.
    fn apply_updates<T: AsRef<str>>(&mut self, updates: &[(T, Delta)]) -> IvmResult<UpdateReport> {
        let mut txn_trace = self
            .tracing
            .then(|| TraceNode::new("transaction").with_field("updates", updates.len()));
        let t0 = self.tracing.then(std::time::Instant::now);
        let mut combined = UpdateReport::default();
        for (table, delta) in updates {
            let r = self.apply_update(table.as_ref(), delta)?;
            combined.merge(&r);
            // Collect the per-update trace into the transaction node
            // (empty deltas record nothing).
            if let Some(txn) = txn_trace.as_mut() {
                if let Some(t) = self.last_trace.take() {
                    txn.push_child(t);
                }
            }
        }
        if let Some(mut txn) = txn_trace {
            if let Some(t0) = t0 {
                txn.set_wall(t0.elapsed());
            }
            self.last_trace = Some(txn);
        }
        Ok(combined)
    }

    /// Check every assertion against current state.
    pub fn check_assertions(&self) -> IvmResult<Vec<Violation>> {
        let mut out = Vec::new();
        for e in &self.engines {
            if let Some(v) = e.violation(&self.catalog)? {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Post-failure damage audit. Verifies structural invariants the
    /// commit protocol promises to preserve no matter how a transaction
    /// died:
    ///
    /// 1. every engine's materialized tables (root views and auxiliaries)
    ///    are in the catalog;
    /// 2. every assertion's backing view matches recomputation from the
    ///    base relations (an assertion view that drifted would silently
    ///    stop enforcing its constraint);
    /// 3. no journal entries are left behind — a rollback that hit a
    ///    journal/catalog mismatch stops where it failed and leaves the
    ///    rest.
    ///
    /// Cheap relative to [`crate::verify_all_views`] (which recomputes *every*
    /// engine): only assertion-backing engines are recomputed here.
    pub fn integrity_check(&self) -> IvmResult<()> {
        let r = self.integrity_check_inner();
        if let Err(e) = &r {
            // Structural damage is exactly what the flight recorder
            // exists for: record the finding and dump the recent-event
            // ring so the post-mortem has the lead-up.
            obs::flight::record("integrity_failure", || e.to_string());
            obs::flight::dump_to_stderr("integrity-check failure");
        }
        r
    }

    fn integrity_check_inner(&self) -> IvmResult<()> {
        if !self.undo.is_empty() {
            return Err(IvmError::Integrity(format!(
                "{} undo journal entries left behind: a rollback did not complete",
                self.undo.table_count()
            )));
        }
        for e in &self.engines {
            for table in e.materialized_tables() {
                if !self.catalog.contains(table) {
                    return Err(IvmError::Integrity(format!(
                        "materialized table `{table}` of view `{}` is missing from the catalog",
                        e.name
                    )));
                }
            }
        }
        for e in &self.engines {
            let Some(name) = &e.assertion else { continue };
            let mismatches = crate::verify::verify_engine(e, &self.catalog)?;
            if let Some(m) = mismatches.first() {
                return Err(IvmError::Integrity(format!(
                    "assertion `{name}` view `{}` diverged from recomputation: {}",
                    m.table, m.detail
                )));
            }
        }
        Ok(())
    }
}

/// Replay the journal against the catalog. A mismatch between the two is
/// a recording bug; it fails the transaction with a typed error rather
/// than a panic, so [`Database::run`] reports it in that transaction's slot
/// and goes on.
fn replay_journal(undo: &mut spacetime_delta::UndoLog, catalog: &mut Catalog) -> IvmResult<()> {
    undo.rollback(catalog).map_err(|e| {
        IvmError::Internal(format!(
            "undo journal does not match the catalog ({e}); the rollback is incomplete"
        ))
    })
}

fn violation_error(v: Violation) -> IvmError {
    IvmError::AssertionViolated {
        name: v.assertion,
        sample: v.witnesses,
    }
}

/// Rename a tree's outputs (CREATE VIEW column list) via a projection.
fn rename_outputs(tree: ExprTree, names: &[String]) -> IvmResult<ExprTree> {
    if names.len() != tree.schema.arity() {
        return Err(IvmError::Unsupported(format!(
            "view column list has {} names but the query produces {} columns",
            names.len(),
            tree.schema.arity()
        )));
    }
    let exprs: Vec<(ScalarExpr, String)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (ScalarExpr::col(i), n.clone()))
        .collect();
    // An identity projection (same names) would be elided by the memo's
    // project-identity rule anyway; building it is still correct.
    Ok(ExprNode::project(tree, exprs)?)
}

/// A fresh memo holding every view's creation tree, explored against
/// `catalog`, with each view's canonical root group; the first view roots
/// the memo. View creation, view groups and recovery all build their DAG
/// this way, which is what lets recovery reproduce a memo bit-identically.
pub(crate) fn explore_views(
    views: &[(String, ExprTree)],
    catalog: &Catalog,
) -> IvmResult<(Memo, Vec<(String, GroupId)>)> {
    let mut memo = Memo::new();
    let inserted: Vec<GroupId> = views
        .iter()
        .map(|(_, tree)| memo.insert_tree(tree))
        .collect();
    if let Some(&first) = inserted.first() {
        memo.set_root(first);
    }
    explore(&mut memo, catalog)?;
    let named_roots = views
        .iter()
        .zip(inserted)
        .map(|((name, _), g)| (name.clone(), memo.find(g)))
        .collect();
    Ok((memo, named_roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_storage::tuple;

    fn one_table_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db
    }

    /// A failed transaction undoes its own writes — an update that had
    /// already landed included — and nothing an earlier transaction
    /// committed: journals never merge, and none is left behind.
    #[test]
    fn a_failed_transaction_rolls_back_only_its_own_writes() {
        let mut db = one_table_db();
        db.apply_delta("T", Delta::insert(tuple![1_i64, 10_i64], 1))
            .unwrap();
        let before = db.catalog.table("T").unwrap().relation.data().clone();
        // The second update deletes a row that is not there.
        let err = db
            .apply_transaction(vec![
                ("T".to_string(), Delta::insert(tuple![2_i64, 20_i64], 1)),
                ("T".to_string(), Delta::delete(tuple![3_i64, 30_i64], 1)),
            ])
            .unwrap_err();
        assert!(matches!(err, IvmError::Storage(_)), "{err}");
        assert_eq!(db.catalog.table("T").unwrap().relation.data(), &before);
        db.integrity_check().unwrap();
    }

    /// A journal that does not match its catalog — a recording bug — fails
    /// the rollback with a typed error rather than a panic, and the
    /// entries it could not replay stay behind for `integrity_check`.
    #[test]
    fn a_journal_that_does_not_match_the_catalog_fails_the_abort() {
        let mut db = one_table_db();
        let rel = &mut db.catalog.table_mut("T").unwrap().relation;
        spacetime_delta::apply_to_relation_undo(
            &Delta::insert(tuple![1_i64, 10_i64], 1),
            rel,
            &mut spacetime_storage::IoMeter::new(),
            &mut db.undo,
        )
        .unwrap();
        // Pull the journaled table out from under the journal.
        db.catalog.drop_table("T").unwrap();
        let err = replay_journal(&mut db.undo, &mut db.catalog).unwrap_err();
        assert!(matches!(err, IvmError::Internal(_)), "{err}");
        let err = db.integrity_check_inner().unwrap_err();
        assert!(matches!(err, IvmError::Integrity(_)), "{err}");
    }

    /// A `CREATE ASSERTION` the current data violates fails and leaves
    /// nothing behind — no backing table, no engine — so the same
    /// statement succeeds once the data allows it.
    #[test]
    fn a_violated_create_assertion_leaves_nothing_behind() {
        let mut db = one_table_db();
        db.execute_sql("INSERT INTO T VALUES (1, 5)").unwrap();
        let tables = |db: &Database| -> Vec<String> {
            db.catalog.iter().map(|(n, _)| n.to_string()).collect()
        };
        let before = tables(&db);
        let stmt = "CREATE ASSERTION Pos CHECK (NOT EXISTS (SELECT K FROM T WHERE V > 0))";
        let err = db.execute_sql(stmt).unwrap_err();
        assert!(matches!(err, IvmError::AssertionViolated { .. }), "{err}");
        assert_eq!(tables(&db), before);
        assert_eq!(db.engines().len(), 0);
        db.integrity_check().unwrap();

        db.execute_sql("DELETE FROM T").unwrap();
        db.execute_sql(stmt).unwrap();
        assert_eq!(db.engines().len(), 1);
        assert_eq!(db.engines()[0].assertion.as_deref(), Some("Pos"));
        let err = db.execute_sql("INSERT INTO T VALUES (2, 7)").unwrap_err();
        assert!(matches!(err, IvmError::AssertionViolated { .. }), "{err}");
    }

    /// Engines are built once and never copied: a database and its clone
    /// share every engine, and an update through one of them still
    /// maintains its views.
    #[test]
    fn engines_stay_shared_with_clones() {
        let mut db = one_table_db();
        db.execute_sql(
            "CREATE MATERIALIZED VIEW Big AS SELECT K FROM T WHERE V > 1;
             CREATE ASSERTION Small CHECK (NOT EXISTS (SELECT K FROM T WHERE V > 100))",
        )
        .unwrap();
        let copy = db.clone();
        assert_eq!(db.engines().len(), 2);
        for (a, b) in db.engines().iter().zip(copy.engines()) {
            assert!(Arc::ptr_eq(a, b), "engine `{}` was copied", a.name);
        }
        db.apply_delta("T", Delta::insert(tuple![1_i64, 10_i64], 1))
            .unwrap();
        assert!(crate::verify_all_views(&db).unwrap().is_empty());
    }
}
