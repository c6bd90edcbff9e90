//! The system under test. **Every call into the product is in this file**,
//! so when the four front doors (`Database`, `DurableDatabase`,
//! `ShardedDatabase` + scheduler, `DurableSharded`) fold into one, the
//! follow-up benchmark PR edits this file and nothing else.
//!
//! The adapter is thin on purpose: each method makes one call into one
//! layer's public API and converts the answer into plain data. Timing,
//! spans and metrics live in the callers.
//!
//! The configuration is the one the serving path pins today, set once in
//! [`pin`] and [`SYNC`], with no flag to vary it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spacetime_algebra::{
    AggExpr, AggFunc, CmpOp, ExprNode, FusedProgram, JoinCondition, KernelScratch, OpKind,
    ScalarExpr,
};
use spacetime_cost::TransactionType;
use spacetime_delta::{apply_to_relation_undo, Delta, UndoLog};
use spacetime_ivm::durability::{DurabilityOptions, DurableSharded};
use spacetime_ivm::{
    verify_all_views, Database, ExecutionMode, IvmError, PipelinePool, PropagationMode,
    SchedOutcome, ShardedDatabase, TxnScheduler, UpdateReport, ViewSelection,
};
use spacetime_memo::{explore, GroupId, Memo};
use spacetime_optimizer::{candidate_groups, optimal_view_set_over, EvalConfig, PageIoCostModel};
use spacetime_storage::{
    tuple, Bag, Catalog, DataType, IoMeter, Schema, ShardSpec, TableStats, Tuple, Value,
};
use spacetime_wal::{codec, Record, SyncPolicy, WalWriter};

use crate::gen::{dept_name, emp_name, mgr_name, Emp, GenTxn, RowOp, Shape, Update};

/// The pinned configuration, as printed with every result.
pub const CONFIG: &str =
    "PropagationMode::Fused, ExecutionMode::Sequential, ViewSelection::Exhaustive, SyncPolicy::Flush";

const SYNC: SyncPolicy = SyncPolicy::Flush;

fn pin(db: &mut Database) {
    db.set_view_selection(ViewSelection::Exhaustive);
    db.set_propagation_mode(PropagationMode::Fused);
    db.set_execution_mode(ExecutionMode::Sequential);
}

// ---------------------------------------------------------------- inputs

/// One table's delta, ready to submit.
#[derive(Clone)]
pub struct BuiltDelta {
    table: &'static str,
    delta: Delta,
}

/// A transaction, ready to submit.
pub type BuiltTxn = spacetime_ivm::Txn;

/// One Emp tuple (for the storage / kernel probes).
pub struct Row(Tuple);

/// An index key (for the storage probe).
pub struct Key([Value; 1]);

fn emp_tuple(e: &Emp) -> Tuple {
    tuple![emp_name(e.id), dept_name(e.dept), e.salary]
}

fn dept_tuple(dept: u32, budget: i64) -> Tuple {
    tuple![dept_name(dept), mgr_name(dept), budget]
}

pub fn build_row(e: &Emp) -> Row {
    Row(emp_tuple(e))
}

pub fn dept_key(dept: u32) -> Key {
    Key([Value::str(dept_name(dept))])
}

pub fn build_delta(u: &Update) -> BuiltDelta {
    let mut delta = Delta::new();
    for op in &u.ops {
        match *op {
            RowOp::Insert(e) => delta.inserts.insert(emp_tuple(&e), 1),
            RowOp::Delete(e) => delta.deletes.insert(emp_tuple(&e), 1),
            RowOp::Modify { old, new_salary } => delta.push_modify(
                emp_tuple(&old),
                emp_tuple(&Emp {
                    salary: new_salary,
                    ..old
                }),
                1,
            ),
            RowOp::Budget { dept, old, new } => {
                delta.push_modify(dept_tuple(dept, old), dept_tuple(dept, new), 1)
            }
        }
    }
    BuiltDelta {
        table: if u.on_dept() { "Dept" } else { "Emp" },
        delta,
    }
}

pub fn build_txn(t: &GenTxn) -> BuiltTxn {
    t.updates
        .iter()
        .map(|u| {
            let d = build_delta(u);
            (d.table.to_string(), d.delta)
        })
        .collect()
}

// --------------------------------------------------------------- outcomes

/// What one acknowledged transaction cost in the paper's currency.
#[derive(Clone, Copy, Default, Debug)]
pub struct Io {
    /// `UpdateReport::total()`.
    pub pages: u64,
    pub queries_posed: u64,
}

impl Io {
    fn of(r: &UpdateReport) -> Io {
        Io {
            pages: r.total(),
            queries_posed: r.queries_posed,
        }
    }
}

#[derive(Debug)]
pub enum Rejected {
    /// `DeptConstraint` (or another assertion) would be violated.
    Violation,
    Other(String),
}

fn outcome(r: Result<UpdateReport, IvmError>) -> Result<Io, Rejected> {
    match r {
        Ok(r) => Ok(Io::of(&r)),
        Err(IvmError::AssertionViolated { .. }) => Err(Rejected::Violation),
        Err(e) => Err(Rejected::Other(e.to_string())),
    }
}

/// `Database::phase_totals`, summed over whatever databases it was read from.
#[derive(Clone, Copy, Default, Debug)]
pub struct Phases {
    pub plan_ns: u64,
    pub gate_ns: u64,
    pub commit_ns: u64,
    pub updates: u64,
}

impl Phases {
    fn of(db: &Database) -> Phases {
        let p = db.phase_totals();
        Phases {
            plan_ns: p.plan_ns,
            gate_ns: p.gate_ns,
            commit_ns: p.commit_ns,
            updates: p.updates,
        }
    }

    pub fn sum_ns(&self) -> u64 {
        self.plan_ns + self.gate_ns + self.commit_ns
    }

    pub fn since(&self, earlier: &Phases) -> Phases {
        Phases {
            plan_ns: self.plan_ns - earlier.plan_ns,
            gate_ns: self.gate_ns - earlier.gate_ns,
            commit_ns: self.commit_ns - earlier.commit_ns,
            updates: self.updates - earlier.updates,
        }
    }

    fn add(&mut self, o: Phases) {
        self.plan_ns += o.plan_ns;
        self.gate_ns += o.gate_ns;
        self.commit_ns += o.commit_ns;
        self.updates += o.updates;
    }
}

/// Tuples held, split into what the user loaded and what the optimizer
/// chose to materialize on top (views and auxiliaries).
#[derive(Clone, Copy, Default, Debug)]
pub struct Resident {
    pub base_rows: u64,
    pub derived_rows: u64,
}

fn resident(db: &Database, into: &mut Resident) {
    for (_, t) in db.catalog.iter() {
        if t.is_base {
            into.base_rows += t.relation.len();
        } else {
            into.derived_rows += t.relation.len();
        }
    }
}

// ------------------------------------------------- the unsharded database

/// The paper's four views: one of each propagation rule.
const PAPER_VIEWS: [&str; 4] = [
    "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
     SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
     GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
    "CREATE MATERIALIZED VIEW DeptProfile AS \
     SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
     FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW WellPaid AS \
     SELECT EName, Emp.DName, MName FROM Emp, Dept \
     WHERE Emp.DName = Dept.DName AND Salary > 150",
    "CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp",
];

/// The wide set adds four more SQL views (and the two-rooted Payroll group).
const WIDE_EXTRA_VIEWS: [&str; 4] = [
    "CREATE MATERIALIZED VIEW PayrollByDept AS \
     SELECT DName, SUM(Salary) AS Payroll FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW HighEarners AS \
     SELECT EName, DName FROM Emp WHERE Salary > 150",
    "CREATE MATERIALIZED VIEW HighEarnerCount AS \
     SELECT DName, COUNT(*) AS N FROM Emp WHERE Salary > 150 GROUP BY DName",
    "CREATE MATERIALIZED VIEW LowPaid AS \
     SELECT EName, DName FROM Emp WHERE Salary < 80",
];

const DEPT_CONSTRAINT: &str = "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
     SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
     GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget))";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Views {
    /// The four paper views.
    Paper,
    /// Ten views: eight SQL views and the two-rooted Payroll group.
    Wide,
}

#[derive(Clone, Copy, Debug)]
pub struct DbSpec {
    pub shape: Shape,
    pub views: Views,
    /// Declare `CREATE ASSERTION DeptConstraint`.
    pub assertion: bool,
}

impl DbSpec {
    /// The `CREATE MATERIALIZED VIEW` statements, in creation order.
    pub fn view_ddl(&self) -> Vec<&'static str> {
        let mut v = PAPER_VIEWS.to_vec();
        if self.views == Views::Wide {
            v.extend(WIDE_EXTRA_VIEWS);
        }
        v
    }
}

/// One unsharded `Database`.
#[derive(Clone)]
pub struct Engine {
    db: Database,
}

impl Engine {
    /// Schema DDL on an empty database.
    pub fn create_schema() -> Engine {
        let mut db = Database::new();
        pin(&mut db);
        db.execute_sql(
            "CREATE TABLE Emp (EName VARCHAR PRIMARY KEY, DName VARCHAR, Salary INTEGER);
             CREATE TABLE Dept (DName VARCHAR PRIMARY KEY, MName VARCHAR, Budget INTEGER);
             CREATE INDEX ON Emp (DName);",
        )
        .expect("static DDL");
        Engine { db }
    }

    /// Load `shape.depts` departments of `shape.emps_per_dept` employees and
    /// declare the paper's workload to the optimizer.
    pub fn load(&mut self, shape: Shape) {
        use crate::gen::{EmpId, INITIAL_BUDGET_PER_EMP, INITIAL_SALARY};
        let mut io = IoMeter::new();
        let budget = shape.emps_per_dept as i64 * INITIAL_BUDGET_PER_EMP;
        for dept in 0..shape.depts {
            let t = self.db.catalog.table_mut("Dept").expect("Dept exists");
            t.relation
                .insert(dept_tuple(dept, budget), 1, &mut io)
                .expect("valid tuple");
            let t = self.db.catalog.table_mut("Emp").expect("Emp exists");
            for slot in 0..shape.emps_per_dept {
                let e = Emp {
                    id: EmpId::Seed { dept, slot },
                    dept,
                    salary: INITIAL_SALARY,
                };
                t.relation
                    .insert(emp_tuple(&e), 1, &mut io)
                    .expect("valid tuple");
            }
        }
        self.db.catalog.table_mut("Emp").expect("Emp").analyze();
        self.db.catalog.table_mut("Dept").expect("Dept").analyze();
        self.db.declare_workload(vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ]);
    }

    /// One `CREATE MATERIALIZED VIEW` / `CREATE ASSERTION`: memo
    /// exploration and the `Exhaustive` view-set search included.
    pub fn execute_ddl(&mut self, sql: &str) {
        self.db.execute_sql(sql).expect("static DDL");
    }

    /// The two-rooted Payroll / BigPayroll group over a shared
    /// per-department salary sum.
    pub fn create_payroll_group(&mut self) {
        let emp = ExprNode::scan(&self.db.catalog, "Emp").expect("Emp");
        let agg = ExprNode::aggregate(
            emp,
            vec![1],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
        )
        .expect("valid aggregate");
        let over = |n: i64| {
            ExprNode::select(
                agg.clone(),
                ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(n)),
            )
            .expect("valid select")
        };
        self.db
            .create_view_group(vec![
                ("Payroll".to_string(), over(0)),
                ("BigPayroll".to_string(), over(500)),
            ])
            .expect("view group");
    }

    /// Everything `setup_s` covers for an unsharded database.
    pub fn setup(spec: &DbSpec) -> Engine {
        let mut e = Engine::create_schema();
        e.load(spec.shape);
        for sql in spec.view_ddl() {
            e.execute_ddl(sql);
        }
        if spec.views == Views::Wide {
            e.create_payroll_group();
        }
        if spec.assertion {
            e.execute_ddl(DEPT_CONSTRAINT);
        }
        e
    }

    /// `Database::apply_delta`.
    pub fn apply(&mut self, d: BuiltDelta) -> Result<Io, Rejected> {
        outcome(self.db.apply_delta(d.table, d.delta))
    }

    /// `Database::apply_transaction`.
    pub fn apply_txn(&mut self, t: BuiltTxn) -> Result<Io, Rejected> {
        outcome(self.db.apply_transaction(t))
    }

    /// The recompute oracle (`verify_all_views`): how many materialized
    /// tables differ from recomputation. Also the baseline the paper
    /// argues against — recomputing every view costs exactly this call.
    pub fn verify(&self) -> Result<usize, String> {
        verify_all_views(&self.db)
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    }

    pub fn set_phase_stats(&mut self, on: bool) {
        self.db.set_phase_stats(on);
    }

    pub fn phases(&self) -> Phases {
        Phases::of(&self.db)
    }

    pub fn resident(&self) -> Resident {
        let mut r = Resident::default();
        resident(&self.db, &mut r);
        r
    }

    /// Do Emp and Dept hold exactly the state the generator ended on?
    pub fn base_matches(&self, emps: &[Emp], budgets: &[(u32, i64)]) -> bool {
        let emp = Bag::from_tuples(emps.iter().map(emp_tuple));
        let dept = Bag::from_tuples(budgets.iter().map(|&(d, b)| dept_tuple(d, b)));
        table_is(&self.db.catalog, "Emp", &emp) && table_is(&self.db.catalog, "Dept", &dept)
    }

    /// `Relation::lookup` on the Emp(DName) index; returns the match count.
    pub fn probe_emp_by_dept(&self, key: &Key) -> u64 {
        let rel = &self.db.catalog.table("Emp").expect("Emp").relation;
        let idx = rel.find_index(&[1]).expect("CREATE INDEX ON Emp (DName)");
        let mut io = IoMeter::new();
        rel.lookup(idx, &key.0, &mut io).len()
    }
}

fn table_is(catalog: &Catalog, name: &str, want: &Bag) -> bool {
    catalog
        .table(name)
        .map(|t| t.relation.data() == want)
        .unwrap_or(false)
}

fn diff_catalogs(a: &Catalog, b: &Catalog) -> Vec<String> {
    let mut out = Vec::new();
    for (name, t) in a.iter() {
        if !table_is(b, name, t.relation.data()) {
            out.push(name.to_string());
        }
    }
    for (name, _) in b.iter() {
        if !a.contains(name) {
            out.push(name.to_string());
        }
    }
    out
}

// -------------------------------------------------- the serving front doors

fn shard_spec() -> ShardSpec {
    // Emp by DName (column 1), Dept by DName (column 0): every view joins
    // or groups on DName, so partitioned serving is exact.
    ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0])
}

enum Backing {
    Mem(ShardedDatabase),
    Durable(DurableSharded),
}

/// `ShardedDatabase` (or `DurableSharded`) behind a `TxnScheduler` on a
/// `PipelinePool` as wide as the shard count.
pub struct Serve {
    backing: Backing,
    pool: Arc<PipelinePool>,
}

/// One `TxnScheduler::run` call's answer, untouched, so that nothing but
/// the call itself sits inside the caller's clock.
pub struct RawRound(SchedOutcome);

#[derive(Clone, Copy, Default, Debug)]
pub struct RoundStats {
    pub waves: u64,
    pub conflict_deferrals: u64,
    pub admitted_concurrent: u64,
    pub cross_shard_txns: u64,
    pub max_wave_width: u64,
    pub committed: u64,
    pub aborted: u64,
    pub shard_participations: u64,
}

pub struct Round {
    pub outcomes: Vec<Result<Io, Rejected>>,
    /// `SchedOutcome::latencies_ns`.
    pub dispatch_to_commit_ns: Vec<u64>,
    pub stats: RoundStats,
}

impl RawRound {
    pub fn digest(self) -> Round {
        let s = self.0.stats;
        Round {
            outcomes: self.0.results.into_iter().map(outcome).collect(),
            dispatch_to_commit_ns: self.0.latencies_ns,
            stats: RoundStats {
                waves: s.waves,
                conflict_deferrals: s.conflict_deferrals,
                admitted_concurrent: s.admitted_concurrent,
                cross_shard_txns: s.cross_shard_txns,
                max_wave_width: s.max_wave_width,
                committed: s.committed,
                aborted: s.aborted,
                shard_participations: s.shard_participations,
            },
        }
    }
}

/// What `DurableSharded::open` reported.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    pub replayed_txns: u64,
    pub discarded_bytes: u64,
}

/// Every shard's tables at one instant (copy-on-write handles, no data copy).
pub struct ShardImage(Vec<Catalog>);

/// `SyncPolicy::Flush`, no automatic checkpoints: the harness calls
/// `checkpoint()` itself.
fn durability_options() -> DurabilityOptions {
    DurabilityOptions {
        sync: SYNC,
        ..DurabilityOptions::default()
    }
}

impl Serve {
    fn over(backing: Backing, shards: usize) -> Serve {
        Serve {
            backing,
            pool: Arc::new(PipelinePool::new(shards)),
        }
    }

    /// `ShardedDatabase::partition`.
    pub fn partition(template: &Engine, shards: usize) -> Serve {
        let db = ShardedDatabase::partition(&template.db, shard_spec(), shards).expect("partition");
        Serve::over(Backing::Mem(db), shards)
    }

    /// `DurableSharded::create`: partition, WAL directory, initial checkpoints.
    pub fn create_durable(template: &Engine, shards: usize, dir: &Path) -> Serve {
        let opts = durability_options();
        let db = DurableSharded::create(&template.db, shard_spec(), shards, dir, opts)
            .expect("create durable");
        Serve::over(Backing::Durable(db), shards)
    }

    /// `DurableSharded::open`: checkpoint load + tail replay.
    pub fn recover(dir: &Path, shards: usize) -> Result<(Serve, Recovery), String> {
        let (db, stats) = DurableSharded::open_with(dir, shards, durability_options())
            .map_err(|e| e.to_string())?;
        Ok((
            Serve::over(Backing::Durable(db), shards),
            Recovery {
                replayed_txns: stats.replayed_txns,
                discarded_bytes: stats.discarded_bytes,
            },
        ))
    }

    fn db(&self) -> &ShardedDatabase {
        match &self.backing {
            Backing::Mem(db) => db,
            Backing::Durable(d) => d.db(),
        }
    }

    pub fn shards(&self) -> usize {
        self.db().n_shards()
    }

    /// One `TxnScheduler::run` over a round's transactions. Every
    /// transaction in the round is acknowledged when this returns.
    pub fn run_round(&self, txns: &[BuiltTxn]) -> RawRound {
        let sched = match &self.backing {
            Backing::Mem(db) => TxnScheduler::new(db, Arc::clone(&self.pool)),
            Backing::Durable(d) => {
                TxnScheduler::with_wals(d.db(), Arc::clone(&self.pool), d.wals())
            }
        };
        RawRound(sched.run(txns).expect("scheduler infrastructure"))
    }

    /// `DurableSharded::checkpoint` (truncates the logs).
    pub fn checkpoint(&mut self) {
        match &mut self.backing {
            Backing::Durable(d) => d.checkpoint().expect("checkpoint"),
            Backing::Mem(_) => unreachable!("checkpoint of an in-memory database"),
        }
    }

    /// The directory a durable database logs and checkpoints into.
    pub fn durable_dir(&self) -> &Path {
        match &self.backing {
            Backing::Durable(d) => d.dir(),
            Backing::Mem(_) => unreachable!("an in-memory database has no directory"),
        }
    }

    fn file_bytes(&self, per_shard: &str, global: Option<&str>) -> u64 {
        let dir = self.durable_dir();
        let len = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let mut total: u64 = (0..self.shards())
            .map(|s| len(dir.join(format!("shard-{s:03}")).join(per_shard)))
            .sum();
        if let Some(g) = global {
            total += len(dir.join(g));
        }
        total
    }

    /// Bytes in the per-shard logs and `global.log` right now (under
    /// `SyncPolicy::Flush` every acknowledged commit is in the file).
    pub fn log_bytes(&self) -> u64 {
        self.file_bytes("wal.log", Some("global.log"))
    }

    pub fn checkpoint_bytes(&self) -> u64 {
        self.file_bytes("checkpoint.ckpt", None)
    }

    /// Crash-stop: drop the handle with no final checkpoint.
    pub fn crash(self) {
        drop(self);
    }

    pub fn image(&self) -> ShardImage {
        ShardImage(
            (0..self.shards())
                .map(|s| self.db().shard(s).catalog.clone())
                .collect(),
        )
    }

    /// Every `shard/table` that differs from the image.
    pub fn diff_image(&self, image: &ShardImage) -> Vec<String> {
        let mut out = Vec::new();
        if image.0.len() != self.shards() {
            out.push(format!(
                "{} shards, image has {}",
                self.shards(),
                image.0.len()
            ));
            return out;
        }
        for (s, want) in image.0.iter().enumerate() {
            for name in diff_catalogs(&self.db().shard(s).catalog, want) {
                out.push(format!("shard {s}/{name}"));
            }
        }
        out
    }

    /// `verify_all_shards`: materialized tables that differ from
    /// recomputation, over every shard.
    pub fn verify(&self) -> Result<usize, String> {
        self.db()
            .verify_all_shards()
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    }

    /// Every table whose shard union differs from the unsharded control's.
    pub fn diff_control(&self, control: &Engine) -> Vec<String> {
        let mut out = Vec::new();
        for (name, t) in control.db.catalog.iter() {
            match self.db().union_table(name) {
                Ok(union) if &union == t.relation.data() => {}
                _ => out.push(name.to_string()),
            }
        }
        out
    }

    pub fn set_phase_stats(&self, on: bool) {
        for s in 0..self.shards() {
            self.db().shard(s).set_phase_stats(on);
        }
    }

    /// `phase_totals` summed over the shards.
    pub fn phases(&self) -> Phases {
        let mut p = Phases::default();
        for s in 0..self.shards() {
            p.add(Phases::of(&self.db().shard(s)));
        }
        p
    }

    pub fn resident(&self) -> Resident {
        let mut r = Resident::default();
        for s in 0..self.shards() {
            resident(&self.db().shard(s), &mut r);
        }
        r
    }

    /// `route_delta` over a transaction's updates: a bit per shard touched.
    pub fn route(&self, txn: &BuiltTxn) -> u64 {
        let mut footprint = 0u64;
        for (table, delta) in txn {
            for (s, _) in self.db().route_delta(table, delta).expect("route") {
                footprint |= 1 << s;
            }
        }
        footprint
    }
}

// ------------------------------------------------------- layer microprobes

/// `apply_to_relation_undo` then `UndoLog::rollback` on a private copy of
/// the database's tables.
pub struct UndoProbe {
    catalog: Catalog,
    undo: UndoLog,
}

impl UndoProbe {
    pub fn new(e: &Engine) -> UndoProbe {
        UndoProbe {
            catalog: e.db.catalog.clone(),
            undo: UndoLog::new(),
        }
    }

    pub fn apply_and_roll_back(&mut self, d: &BuiltDelta) {
        let mut io = IoMeter::new();
        let rel = &mut self.catalog.table_mut(d.table).expect("table").relation;
        apply_to_relation_undo(&d.delta, rel, &mut io, &mut self.undo).expect("apply");
        self.undo.rollback(&mut self.catalog).expect("rollback");
    }
}

/// The WellPaid-style chain σ(Salary > 150) → π(EName, DName), compiled by
/// `FusedProgram::compile`.
pub struct KernelProbe {
    program: FusedProgram,
    scratch: KernelScratch,
}

impl KernelProbe {
    pub fn compile() -> KernelProbe {
        let ops = [
            OpKind::Select {
                predicate: ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(150_i64)),
            },
            OpKind::Project {
                exprs: vec![
                    (ScalarExpr::col(0), "EName".to_string()),
                    (ScalarExpr::col(1), "DName".to_string()),
                ],
            },
        ];
        KernelProbe {
            program: FusedProgram::compile(ops.iter()).expect("select/project fuse"),
            scratch: KernelScratch::default(),
        }
    }

    /// `FusedProgram::apply_one`; true when the row survives the filter.
    pub fn push(&mut self, row: &Row) -> bool {
        self.program
            .apply_one(&row.0, &mut self.scratch)
            .expect("kernel")
            .is_some()
    }
}

/// `codec::put_delta` of every delta of a transaction into a reused
/// buffer; returns the encoded length.
pub fn encode_txn(buf: &mut Vec<u8>, t: &BuiltTxn) -> usize {
    buf.clear();
    for (_, delta) in t {
        codec::put_delta(buf, delta);
    }
    buf.len()
}

/// The records one single-shard transaction logs: begin, delta(s), commit.
pub struct WalRecords(Vec<Record>);

pub fn wal_records(txn_id: u64, t: &BuiltTxn) -> WalRecords {
    let mut v = vec![Record::TxnBegin {
        txn_id,
        global: None,
    }];
    for (table, delta) in t {
        v.push(Record::Delta {
            txn_id,
            table: table.clone(),
            delta: delta.clone(),
        });
    }
    v.push(Record::TxnCommit { txn_id });
    WalRecords(v)
}

/// A scratch log written with `WalWriter::append` + `flush`.
pub struct WalProbe {
    writer: WalWriter,
}

impl WalProbe {
    pub fn open(path: &Path) -> WalProbe {
        WalProbe {
            writer: WalWriter::open(path, 0).expect("open scratch log"),
        }
    }

    pub fn append(&mut self, recs: &WalRecords) {
        for r in &recs.0 {
            self.writer.append(r).expect("append");
        }
        self.writer.flush().expect("flush");
    }
}

// ------------------------------------------------------------ view search

/// The frozen `scaling_workload`: a four-relation join chain capped by an
/// aggregate, under skewed-weight modifications of every base table.
pub struct Declared {
    catalog: Catalog,
    memo: Memo,
    root: GroupId,
}

pub struct SearchSpace {
    catalog: Catalog,
    memo: Memo,
    root: GroupId,
    candidates: Vec<GroupId>,
    txns: Vec<TransactionType>,
}

const CHAIN: usize = 4;
const MAX_EXTRA_VIEWS: usize = 2;
const MAX_TRACKS: usize = 64;

#[derive(Clone, Debug, PartialEq)]
pub struct SearchOutcome {
    /// The chosen view set, as memo group numbers.
    pub view_set: Vec<u32>,
    pub weighted_cost: f64,
    pub sets_considered: u64,
    pub sets_pruned: u64,
    pub tracks_truncated: u64,
    pub query_cache_hits: u64,
    pub query_cache_misses: u64,
}

impl Declared {
    /// Catalog statistics and the view's expression tree, inserted into a
    /// fresh memo (no exploration yet).
    pub fn new() -> Declared {
        let mut catalog = Catalog::new();
        for i in 0..CHAIN {
            let name = format!("R{}", i + 1);
            let cols = [
                (format!("a{}", i + 1), DataType::Int),
                (format!("x{}", i + 1), DataType::Int),
            ];
            let col_refs: Vec<(&str, DataType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            catalog
                .create_table(&name, Schema::of_table(&name, &col_refs))
                .expect("fresh");
            catalog.table_mut(&name).expect("t").stats =
                TableStats::declared(1_000 * (i as u64 + 1), [(0, 500), (1, 100)]);
            for c in [format!("a{}", i + 1), format!("x{}", i + 1)] {
                catalog.create_index(&name, &[&c]).expect("cols");
            }
        }
        let mut chain = ExprNode::scan(&catalog, "R1").expect("R1");
        for i in 1..CHAIN {
            let next = ExprNode::scan(&catalog, &format!("R{}", i + 1)).expect("Ri");
            let left_col = chain
                .schema
                .resolve_dotted(&format!("x{i}"))
                .expect("chain column");
            chain = ExprNode::join(chain, next, JoinCondition::on(vec![(left_col, 0)]))
                .expect("chain join");
        }
        let group_col = chain.schema.resolve_dotted("a1").expect("a1");
        let sum_col = chain
            .schema
            .resolve_dotted(&format!("x{CHAIN}"))
            .expect("xn");
        let tree = ExprNode::aggregate(
            chain,
            vec![group_col],
            vec![AggExpr::new(
                AggFunc::Sum,
                ScalarExpr::col(sum_col),
                "Total",
            )],
        )
        .expect("top aggregate");
        let mut memo = Memo::new();
        let root = memo.insert_tree(&tree);
        memo.set_root(root);
        Declared {
            catalog,
            memo,
            root,
        }
    }

    /// `memo::explore` to fixpoint, then `candidate_groups`.
    pub fn explore(mut self) -> SearchSpace {
        explore(&mut self.memo, &self.catalog).expect("exploration");
        let root = self.memo.find(self.root);
        let candidates = candidate_groups(&self.memo, root);
        // Skewed weights (8, 4, 2, 1): updates to the head of the chain
        // dominate, so heaviest-first partial sums cross the pruning
        // threshold early.
        let txns = (0..CHAIN)
            .map(|i| {
                TransactionType::modify(format!(">R{}", i + 1), format!("R{}", i + 1), 1.0)
                    .with_weight((1u64 << (CHAIN - 1 - i)) as f64)
            })
            .collect();
        SearchSpace {
            catalog: self.catalog,
            memo: self.memo,
            root,
            candidates,
            txns,
        }
    }
}

impl SearchSpace {
    pub fn candidate_groups(&self) -> usize {
        self.candidates.len()
    }

    pub fn transaction_types(&self) -> usize {
        self.txns.len()
    }

    /// One `optimal_view_set_over` call: the default `EvalConfig` (one
    /// worker per core, pruning on) at this scenario's track cap, or the
    /// same with `parallelism: 1`.
    pub fn search(&self, serial: bool) -> SearchOutcome {
        let config = EvalConfig {
            max_tracks: MAX_TRACKS,
            parallelism: if serial {
                1
            } else {
                EvalConfig::default().parallelism
            },
            ..EvalConfig::default()
        };
        let out = optimal_view_set_over(
            &self.memo,
            &self.catalog,
            &PageIoCostModel::default(),
            self.root,
            &self.candidates,
            &self.txns,
            &config,
            Some(MAX_EXTRA_VIEWS),
        );
        SearchOutcome {
            view_set: out.best.view_set.iter().map(|g| g.0).collect(),
            weighted_cost: out.best.weighted,
            sets_considered: out.sets_considered as u64,
            sets_pruned: out.sets_pruned as u64,
            tracks_truncated: out.tracks_truncated as u64,
            query_cache_hits: out.query_cache_hits,
            query_cache_misses: out.query_cache_misses,
        }
    }
}
