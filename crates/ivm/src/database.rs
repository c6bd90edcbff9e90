//! The user-facing database session.
//!
//! [`Database`] ties everything together: a storage catalog, a SQL front
//! end, a declared workload of transaction types, a view-selection
//! strategy, and one [`IvmEngine`] per materialized view or assertion.
//! DML statements are converted to deltas, planned against every dependent
//! engine, gated on assertions (a violating transaction is rejected
//! *before* anything is applied — SQL-92 semantics), and committed with
//! full I/O accounting.

use std::sync::Arc;

use spacetime_algebra::{eval_uncharged, ExprNode, ExprTree, ScalarExpr};
use spacetime_cost::{PageIoCostModel, TransactionType};
use spacetime_delta::Delta;
use spacetime_memo::{explore, Memo};
use spacetime_optimizer::heuristics::rule_of_thumb_optimize;
use spacetime_optimizer::{greedy_add, optimal_view_set, shielding_optimize, EvalConfig, ViewSet};
use spacetime_obs::{self as obs, names as metric, MetricsSnapshot, TraceNode};
use spacetime_sql::{lower::lower_literal_row, lower_select, parse_statements, Statement};
use spacetime_storage::{Bag, Catalog, Column, IoMeter, Schema, Tuple, Value};

use crate::constraints::{Assertion, Violation};
use crate::engine::{IvmEngine, PlannedUpdate, PropagationMode, UpdateReport};
use crate::{IvmError, IvmResult};

/// How auxiliary views are chosen when a view/assertion is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViewSelection {
    /// Materialize only the view itself.
    RootOnly,
    /// Algorithm OptimalViewSet (Figure 4) — exhaustive.
    #[default]
    Exhaustive,
    /// Exhaustive with the Shielding-Principle decomposition (§4).
    Shielding,
    /// Greedy hill-climbing (§5, approximate costing).
    Greedy,
    /// The §5 rule-of-thumb marking.
    RuleOfThumb,
}

// Compile shims for the frozen benchmark harness, which still names the one
// execution mode left and hands `TxnScheduler::new`/`with_wals` an
// `Arc<PipelinePool>` that both ignore (transactions run on the calling
// thread); the follow-up benchmark PR removes those calls, then these.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    #[default]
    Sequential,
}

#[doc(hidden)]
#[derive(Debug, Default)]
pub struct PipelinePool;

impl PipelinePool {
    #[doc(hidden)]
    pub fn new(_width: usize) -> Self {
        PipelinePool
    }
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
/// `Arc`s, so a clone shares all storage copy-on-write. The fault harness
/// relies on this to stamp out fresh databases from a prebuilt template.
#[derive(Clone)]
pub struct Database {
    /// Storage: base tables and materialized views.
    pub catalog: Catalog,
    engines: Vec<Arc<IvmEngine>>,
    assertions: Vec<Assertion>,
    workload: Vec<TransactionType>,
    selection: ViewSelection,
    mode: PropagationMode,
    tracing: bool,
    last_trace: Option<TraceNode>,
    /// The rollback journal — the one rollback mechanism (DESIGN.md §12).
    /// Outside a transaction scope each update resets it on entry and on
    /// success; inside one it accumulates across updates until the scope
    /// commits (reset) or aborts (replay). Held on the session so its
    /// buffers are pooled across transactions (reset, never freed).
    undo: spacetime_delta::UndoLog,
    /// The open transaction scope, if any (see
    /// [`Database::begin_transaction`]).
    txn: Option<TxnScope>,
    /// Accumulate per-phase wall clock across updates (see
    /// [`Database::set_phase_stats`]).
    collect_phases: bool,
    phase_totals: PhaseTotals,
}

/// What an open transaction scope puts back if it aborts: the trace the
/// session showed before the transaction began. The scope owns it (moved
/// in, moved back), so no layer above copies it.
#[derive(Debug, Clone)]
struct TxnScope {
    prior_trace: Option<TraceNode>,
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
            assertions: Vec::new(),
            workload: Vec::new(),
            selection: ViewSelection::default(),
            mode: PropagationMode::default(),
            tracing: false,
            last_trace: None,
            undo: spacetime_delta::UndoLog::new(),
            txn: None,
            collect_phases: false,
            phase_totals: PhaseTotals::default(),
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

    /// Take ownership of the most recent trace, leaving none behind. The
    /// serving layer uses this to move per-shard transaction traces into
    /// assembled cross-shard spans without cloning.
    pub fn take_trace(&mut self) -> Option<TraceNode> {
        self.last_trace.take()
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

    /// Set the propagation data plane for every engine, existing and
    /// future. Both modes produce identical deltas and charge identical
    /// I/O; [`PropagationMode::PerKey`] is the reference the suites
    /// compare [`PropagationMode::Fused`] against.
    pub fn set_propagation_mode(&mut self, mode: PropagationMode) {
        self.mode = mode;
        for e in &mut self.engines {
            Arc::make_mut(e).set_propagation_mode(mode);
        }
    }

    // Compile shim, see `ExecutionMode`.
    #[doc(hidden)]
    pub fn set_execution_mode(&mut self, _exec: ExecutionMode) {}

    // Compile shim, see `ExecutionMode`.
    #[doc(hidden)]
    pub fn execution_mode(&self) -> ExecutionMode {
        ExecutionMode::Sequential
    }

    /// The active propagation mode (checkpoints persist it).
    pub fn propagation_mode(&self) -> PropagationMode {
        self.mode
    }

    /// Recovery hook: register an engine rebuilt from a checkpoint (its
    /// tables are already restored and bound via `rebuild_pinned`).
    #[cfg(feature = "durability")]
    pub(crate) fn install_engine(&mut self, engine: IvmEngine) {
        self.engines.push(Arc::new(engine));
    }

    /// Recovery hook: re-register a checkpointed assertion without
    /// re-running its creation path (its backing view already exists).
    #[cfg(feature = "durability")]
    pub(crate) fn install_assertion(&mut self, assertion: Assertion) {
        self.assertions.push(assertion);
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
    /// and register the engine. Returns the chosen additional view count.
    pub fn create_materialized_view(
        &mut self,
        name: &str,
        tree: ExprTree,
    ) -> IvmResult<&IvmEngine> {
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree);
        memo.set_root(root);
        explore(&mut memo, &self.catalog)?;
        let root = memo.find(root);

        let txns = if self.workload.is_empty() {
            default_workload(&memo, root)
        } else {
            self.workload.clone()
        };
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let view_set: ViewSet = match self.selection {
            ViewSelection::RootOnly => [root].into_iter().collect(),
            ViewSelection::Exhaustive => {
                optimal_view_set(&memo, &self.catalog, &model, root, &txns, &config)
                    .best
                    .view_set
            }
            ViewSelection::Shielding => {
                shielding_optimize(&memo, &self.catalog, &model, root, &txns, &config)
                    .best
                    .view_set
            }
            ViewSelection::Greedy => {
                greedy_add(&memo, &self.catalog, &model, root, &txns, &config)
                    .best
                    .view_set
            }
            ViewSelection::RuleOfThumb => {
                rule_of_thumb_optimize(&memo, &self.catalog, &model, root, &tree, &txns, &config)
                    .best
                    .view_set
            }
        };
        let mut engine = IvmEngine::build(name, memo, root, view_set, &mut self.catalog)?;
        engine.creation = vec![(name.to_string(), tree)];
        engine.set_propagation_mode(self.mode);
        self.engines.push(Arc::new(engine));
        Ok(self.engines.last().expect("just pushed"))
    }

    /// Create several views over **one shared DAG** (§6: "the expression
    /// DAG … may therefore have multiple roots, and every view that must
    /// be materialized will be marked"). The optimizer chooses auxiliary
    /// views once for the whole group, so a subexpression shared by
    /// several views is materialized and maintained once. Additional
    /// views per set are capped at 3 to keep the multi-rooted exhaustive
    /// search tractable.
    pub fn create_view_group(&mut self, views: Vec<(String, ExprTree)>) -> IvmResult<&IvmEngine> {
        if views.is_empty() {
            return Err(IvmError::Unsupported("empty view group".into()));
        }
        let mut memo = Memo::new();
        let mut named_roots = Vec::with_capacity(views.len());
        for (name, tree) in &views {
            let g = memo.insert_tree(tree);
            named_roots.push((name.clone(), g));
        }
        memo.set_root(named_roots[0].1);
        explore(&mut memo, &self.catalog)?;
        let roots: Vec<spacetime_memo::GroupId> =
            named_roots.iter().map(|&(_, g)| memo.find(g)).collect();
        let named_roots: Vec<(String, spacetime_memo::GroupId)> = named_roots
            .into_iter()
            .map(|(n, g)| (n, memo.find(g)))
            .collect();

        let txns = if self.workload.is_empty() {
            let mut tables = Vec::new();
            for &r in &roots {
                for t in crate::engine::leaf_tables(&memo, r) {
                    if !tables.contains(&t) {
                        tables.push(t);
                    }
                }
            }
            tables
                .into_iter()
                .map(|t| TransactionType::modify(format!(">{t}"), t, 1.0))
                .collect()
        } else {
            self.workload.clone()
        };
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let outcome = spacetime_optimizer::optimal_view_set_multi(
            &memo,
            &self.catalog,
            &model,
            &roots,
            &txns,
            &config,
            Some(3),
        );
        let mut engine = IvmEngine::build_with_roots(
            named_roots,
            memo,
            outcome.best.view_set,
            &mut self.catalog,
        )?;
        engine.creation = views;
        engine.set_propagation_mode(self.mode);
        self.engines.push(Arc::new(engine));
        Ok(self.engines.last().expect("just pushed"))
    }

    /// Create an assertion: a maintained view that must stay empty. Fails
    /// immediately if the current data already violates it.
    pub fn create_assertion(&mut self, name: &str, tree: ExprTree) -> IvmResult<()> {
        let view_name = format!("__assert_{name}");
        self.create_materialized_view(&view_name, tree)?;
        let assertion = Assertion {
            name: name.to_string(),
            view: view_name,
        };
        if let Some(v) = assertion.check(&self.catalog)? {
            return Err(violation_error(v));
        }
        self.assertions.push(assertion);
        Ok(())
    }

    /// The declared assertions.
    pub fn assertions(&self) -> &[Assertion] {
        &self.assertions
    }

    /// Apply a delta to a base table, incrementally maintaining every
    /// dependent view and checking assertions *before* committing
    /// anything. Returns the combined maintenance report.
    pub fn apply_delta(&mut self, table: &str, delta: Delta) -> IvmResult<UpdateReport> {
        if self.tracing {
            // A failed or empty update leaves no trace behind; the prior
            // trace never masquerades as this update's.
            self.last_trace = None;
        }
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
            planned.push(e.plan_update_with(&self.catalog, table, &delta, self.tracing)?);
        }
        let plan_dur = t_plan.map(|t| t.elapsed());
        let t_gate = timed.then(std::time::Instant::now);
        // Assertion gate (always against pre-update state — a violating
        // transaction is rejected before any write).
        for a in &self.assertions {
            if let Some((engine, plan)) = self
                .engines
                .iter()
                .zip(&planned)
                .find(|(e, _)| e.name == a.view)
            {
                if let Some(v) = a.check_planned(&self.catalog, engine, plan)? {
                    return Err(violation_error(v));
                }
            }
        }
        // Phase 2: commit everywhere, all-or-nothing (DESIGN.md §12):
        // writes are applied in place on the live catalog, journaling an
        // inverse op per landed write, so ANY failure (storage error,
        // injected fault, panic) leaves the catalog bit-identical to its
        // pre-transaction state — inside a transaction scope, to the state
        // before its first update. Reports merge each engine's planning
        // report with its apply report in engine order.
        let gate_dur = t_gate.map(|t| t.elapsed());
        let commit_watch = obs::stopwatch();
        let t_commit = timed.then(std::time::Instant::now);
        let mut combined = UpdateReport::default();
        self.commit(table, &delta, &planned, &mut combined)?;
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
            self.last_trace = Some(self.update_trace(
                table,
                &delta,
                &mut planned,
                plan_dur,
                gate_dur,
                commit_dur,
            ));
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
        let mut root =
            TraceNode::new(format!("update {table}")).with_field("rows", delta.size());
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

    /// The journaled commit — the dirty-shard fast path. View
    /// deltas and the base delta are applied *in place* on the live
    /// catalog, recording an inverse operation in the session's
    /// [`spacetime_delta::UndoLog`] for each landed write. In the steady
    /// state the cataloged `Arc<Table>`s are unshared — nothing on the
    /// transaction path holds a second reference — so `Arc::make_mut` is
    /// free and only the storage shards a transaction actually disturbs
    /// are touched.
    ///
    /// All-or-nothing is preserved by the journal: on any failure — a
    /// storage error, an injected fault (including the
    /// `storage::restore_table` commit gate, fired once per table this
    /// update journaled), or a panic unwinding apply code — the **whole**
    /// journal replays in reverse with an uncharged meter before the error
    /// propagates (or the panic resumes). Outside a transaction scope that
    /// is this update's writes; inside one it is every update so far,
    /// which is what immediate-mode semantics ask for (the first failing
    /// update aborts the transaction), and it leaves the scope's own
    /// abort nothing to replay.
    fn commit(
        &mut self,
        table: &str,
        delta: &Delta,
        planned: &[PlannedUpdate],
        combined: &mut UpdateReport,
    ) -> IvmResult<()> {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let in_txn = self.txn.is_some();
        if !in_txn {
            self.undo.reset();
        }
        let engines = &self.engines;
        let catalog = &mut self.catalog;
        let undo = &mut self.undo;
        // Entries before `mark` belong to earlier updates of the scope.
        let mark = undo.table_count();
        let outcome = catch_unwind(AssertUnwindSafe(
            || -> IvmResult<(UpdateReport, IoMeter)> {
                let mut rep = UpdateReport::default();
                for (e, plan) in engines.iter().zip(planned) {
                    rep.merge(&plan.report);
                    let r = e.commit_in_place(catalog, plan, undo)?;
                    rep.merge(&r);
                }
                let mut base_io = IoMeter::new();
                let rel = &mut catalog.table_mut(table)?.relation;
                spacetime_delta::apply_to_relation_undo(delta, rel, &mut base_io, undo)?;
                // The commit gate: the last point a fault can stop the
                // update, with every write of it already in place.
                for _ in mark..undo.table_count() {
                    spacetime_storage::fault::fire("storage::restore_table")?;
                }
                Ok((rep, base_io))
            },
        ));
        match outcome {
            Ok(Ok((rep, base_io))) => {
                combined.merge(&rep);
                combined.base_io = base_io;
                let mut dirty = 0u64;
                for name in undo.tables().skip(mark) {
                    let rel = &mut catalog.table_mut(name)?.relation;
                    dirty += u64::from(rel.dirty_shards());
                    rel.clear_dirty();
                }
                obs::counter_add(metric::COMMIT_DIRTY_SHARDS, dirty);
                if !in_txn {
                    undo.reset();
                }
                Ok(())
            }
            Ok(Err(e)) => {
                replay_journal(undo, catalog)?;
                Err(e)
            }
            Err(panic) => {
                replay_journal(undo, catalog)?;
                resume_unwind(panic)
            }
        }
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
        let report = self.apply_open(updates)?;
        self.commit_transaction();
        Ok(report)
    }

    /// Open a transaction scope: until [`Database::commit_transaction`] or
    /// [`Database::abort_transaction`], every update's writes accumulate
    /// in one journal. The scope takes the session's current trace, to
    /// put back on abort. A scope already open is a caller bug
    /// and an error — journals are never silently merged.
    pub(crate) fn begin_transaction(&mut self) -> IvmResult<()> {
        if self.txn.is_some() {
            return Err(IvmError::Internal(
                "a transaction scope is already open on this database".into(),
            ));
        }
        self.undo.reset();
        self.txn = Some(TxnScope {
            prior_trace: self.last_trace.take(),
        });
        Ok(())
    }

    /// Close the open scope keeping its writes: the journal is forgotten.
    /// The layers above call this at their decision point — after the WAL
    /// commit record, or after the cross-shard global commit.
    pub(crate) fn commit_transaction(&mut self) {
        self.undo.reset();
        self.txn = None;
    }

    /// Close the open scope undoing its writes: the journal replays in
    /// reverse (a no-op if a failing commit already replayed it) and the
    /// pre-transaction trace comes back. Without an open scope
    /// there is nothing to abort.
    pub(crate) fn abort_transaction(&mut self) -> IvmResult<()> {
        let Some(scope) = self.txn.take() else {
            return Ok(());
        };
        self.last_trace = scope.prior_trace;
        replay_journal(&mut self.undo, &mut self.catalog)
    }

    /// Open a scope and apply every update in it. On success the scope is
    /// left **open** — the caller decides when the transaction commits —
    /// with the summed report and the `transaction` trace in place. On
    /// any failure, a panic unwinding through included, the scope is
    /// aborted before the failure propagates.
    pub(crate) fn apply_open(&mut self, updates: Vec<(String, Delta)>) -> IvmResult<UpdateReport> {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        self.begin_transaction()?;
        let outcome = catch_unwind(AssertUnwindSafe(|| self.apply_updates(updates)));
        if !matches!(outcome, Ok(Ok(_))) {
            self.abort_transaction()?;
        }
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// The body of a transaction: the updates in order, their reports
    /// summed and their traces gathered under one `transaction` node.
    fn apply_updates(&mut self, updates: Vec<(String, Delta)>) -> IvmResult<UpdateReport> {
        let mut txn_trace = self
            .tracing
            .then(|| TraceNode::new("transaction").with_field("updates", updates.len()));
        let t0 = self.tracing.then(std::time::Instant::now);
        let mut combined = UpdateReport::default();
        for (table, delta) in updates {
            let r = self.apply_delta(&table, delta)?;
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
        for a in &self.assertions {
            if let Some(v) = a.check(&self.catalog)? {
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
    /// 3. no journal entries are left outside a transaction scope — a
    ///    rollback that hit a journal/catalog mismatch stops where it
    ///    failed and leaves the rest behind.
    ///
    /// Cheap relative to [`verify_all_views`] (which recomputes *every*
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
        if self.txn.is_none() && !self.undo.is_empty() {
            return Err(IvmError::Integrity(format!(
                "{} undo journal entries outside a transaction: a rollback did not complete",
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
        for a in &self.assertions {
            let Some(engine) = self.engines.iter().find(|e| e.name == a.view) else {
                return Err(IvmError::Integrity(format!(
                    "assertion `{}` has no backing engine `{}`",
                    a.name, a.view
                )));
            };
            let mismatches = crate::verify::verify_engine(engine, &self.catalog)?;
            if let Some(m) = mismatches.first() {
                return Err(IvmError::Integrity(format!(
                    "assertion `{}` view `{}` diverged from recomputation: {}",
                    a.name, m.table, m.detail
                )));
            }
        }
        Ok(())
    }
}

/// Replay the journal against the catalog. A mismatch between the two is
/// a recording bug; it fails the transaction with a typed error rather
/// than a panic, so a scheduler run reports it in that transaction's slot
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

/// Default workload: one unit modification per base relation, equal
/// weights (§3.2's model with no further information).
fn default_workload(memo: &Memo, root: spacetime_memo::GroupId) -> Vec<TransactionType> {
    crate::engine::leaf_tables(memo, root)
        .into_iter()
        .map(|t| TransactionType::modify(format!(">{t}"), t, 1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_table_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE T (K INTEGER PRIMARY KEY, V INTEGER)")
            .unwrap();
        db
    }

    #[test]
    fn a_second_scope_is_an_error_not_a_merge() {
        let mut db = one_table_db();
        db.begin_transaction().unwrap();
        assert!(matches!(db.begin_transaction(), Err(IvmError::Internal(_))));
        // The first scope is unharmed and closes normally; then a new one opens.
        db.abort_transaction().unwrap();
        db.begin_transaction().unwrap();
        db.commit_transaction();
        db.integrity_check().unwrap();
    }

    #[test]
    fn a_journal_that_does_not_match_the_catalog_fails_the_abort() {
        let mut db = one_table_db();
        db.begin_transaction().unwrap();
        db.apply_delta(
            "T",
            Delta::insert(spacetime_storage::tuple![1_i64, 10_i64], 1),
        )
        .unwrap();
        // Pull the journaled table out from under the open scope.
        db.catalog.drop_table("T").unwrap();
        let err = db.abort_transaction().unwrap_err();
        assert!(matches!(err, IvmError::Internal(_)), "{err}");
        let err = db.integrity_check_inner().unwrap_err();
        assert!(matches!(err, IvmError::Integrity(_)), "{err}");
    }
}
