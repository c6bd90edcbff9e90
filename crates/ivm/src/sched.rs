//! The transaction scheduler over a [`ShardedDatabase`].
//!
//! [`TxnScheduler::run`] routes each transaction (a list of per-table
//! deltas) once to its **shard footprint** — the set of shard domains its
//! delta keys touch — and then runs the routed transactions one at a
//! time, in admission order, on the calling thread. That is the paper's
//! own execution model (§3.2: one relation's delta at a time, state
//! updated in between) and, on the two-core benchmark host, the faster
//! one: a pool of drain tasks over per-shard FIFO queues ran the same
//! stream about a fifth slower (EXPERIMENTS.md E-SERVE), so it was
//! deleted. Shards are a data layout — per-shard logs, checkpoints and
//! recovery — not a throughput setting.
//!
//! **Cross-shard commit protocol.** A transaction whose footprint spans
//! several shards applies to them one at a time in ascending shard order,
//! each inside the shard's own transaction scope
//! (`Database::apply_open`), and every participant's undo journal stays
//! open until the decision point: the transaction's one WAL commit record
//! when it is logged — single-shard and cross-shard alike — or simply the
//! last participant's success when nothing is logged. Then every
//! participant commits (its journal is forgotten). If anything fails
//! first — a participant's typed error, injected fault or contained
//! panic, or a WAL append — every participant still open aborts, newest
//! first, by replaying its journal. Nothing else runs until the
//! transaction is decided, so it is all-or-nothing across its whole
//! footprint and no shard's catalog is ever copied to make it so.
//!
//! **Panic containment.** Each transaction runs under its own
//! `catch_unwind`: a panicking body is that transaction's
//! [`IvmError::TaskPanicked`], and the run continues with the next one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use spacetime_delta::Delta;
use spacetime_obs::{self as obs, names as metric, TraceNode};
use spacetime_storage::fault;

use crate::database::{Database, PipelinePool};
use crate::engine::UpdateReport;
use crate::shard::ShardedDatabase;
use crate::{IvmError, IvmResult};

/// One transaction: per-table deltas applied atomically, in order.
pub type Txn = Vec<(String, Delta)>;

/// Counters describing one scheduler run. Mirrors the `spacetime_sched_*`
/// metrics exactly, so benchmarks can assert the books balance. Four
/// fields are constants of the one drain loop, kept only until the
/// trusted benchmark stops reading them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Transactions accepted (including empty and mis-routed ones).
    pub txns: u64,
    /// Always 0: no transaction overlaps another.
    pub admitted_concurrent: u64,
    /// Always 0: a transaction is routed once and never re-scanned.
    pub conflict_deferrals: u64,
    /// Transactions whose footprint spanned more than one shard.
    pub cross_shard_txns: u64,
    /// 1 per run that routed any work, else 0.
    pub waves: u64,
    /// 1 once any run routed work, else 0: one transaction at a time.
    pub max_wave_width: u64,
    /// Dispatched transactions that committed.
    pub committed: u64,
    /// Dispatched transactions that rolled back (assertion violation,
    /// injected fault, or contained panic).
    pub aborted: u64,
    /// Sum of footprint sizes over dispatched transactions — a
    /// cross-shard transaction counts once per participating shard.
    /// Balances against the `spacetime_shard_txns_total` labeled counter.
    pub shard_participations: u64,
}

impl SchedStats {
    /// Fold another run's counters into these (benchmarks accumulate
    /// across shard-count sweeps to balance against the metrics plane).
    pub fn absorb(&mut self, other: &SchedStats) {
        self.txns += other.txns;
        self.admitted_concurrent += other.admitted_concurrent;
        self.conflict_deferrals += other.conflict_deferrals;
        self.cross_shard_txns += other.cross_shard_txns;
        self.waves += other.waves;
        self.max_wave_width = self.max_wave_width.max(other.max_wave_width);
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.shard_participations += other.shard_participations;
    }
}

/// The outcome of a scheduler run, slot-aligned with the admitted
/// transaction list.
#[derive(Debug)]
pub struct SchedOutcome {
    /// Per-transaction results in admission order: the merged maintenance
    /// report, or the error that rolled the transaction back.
    pub results: Vec<IvmResult<UpdateReport>>,
    /// Per-transaction latency, **start → decision**, admission order: the
    /// clock starts when the transaction starts to run, not when the run
    /// starts, so it measures one transaction rather than its position in
    /// the batch. Zero for transactions never dispatched (empty footprint
    /// or routing failure).
    pub latencies_ns: Vec<u64>,
    /// Scheduler counters for this run.
    pub stats: SchedStats,
    /// Per-transaction spans, slot-aligned with `results`; `None` unless
    /// tracing is on (see [`ShardedDatabase::set_tracing`]) and the
    /// transaction committed. A single-shard transaction's span **is**
    /// its shard's `transaction` trace (structurally identical to an
    /// unsharded [`Database::apply_transaction`] trace — the shard id
    /// rides along as a non-structural note); a cross-shard transaction
    /// gets a structural `cross-shard commit` root wrapping each
    /// participant's trace in ascending shard order.
    pub traces: Vec<Option<TraceNode>>,
    /// The whole run as one span — `schedule` → one `txn` node per
    /// dispatched transaction, in admission order, each wrapping its span
    /// from `traces` — when tracing is on.
    pub trace: Option<TraceNode>,
}

#[cfg(feature = "durability")]
use crate::durability::{log_begin, log_commit, Wal};

/// Uninhabited stand-in so `apply_parts` keeps one signature when the
/// `durability` feature (and with it the real log) is off: an
/// `Option<&Wal>` can only ever be `None`.
#[cfg(not(feature = "durability"))]
enum Wal {}

#[cfg(not(feature = "durability"))]
fn log_begin(wal: &Wal, _: &Txn) -> IvmResult<u64> {
    match *wal {}
}

#[cfg(not(feature = "durability"))]
fn log_commit(wal: &Wal, _: u64) -> IvmResult<()> {
    match *wal {}
}

/// A scheduler bound to a sharded database.
pub struct TxnScheduler<'a> {
    db: &'a ShardedDatabase,
    /// The database's one write-ahead log, for durable serving.
    wal: Option<Arc<Wal>>,
}

/// A transaction's routed form: per-shard sub-transactions in ascending
/// shard order.
type ShardParts = Vec<(usize, Txn)>;

/// Render a panic payload (string payloads verbatim, anything else typed).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Move the queue-depth gauges (global, and one per shard of `fp`): up
/// at admission, down at decision, zero after every run.
fn queue_depth_add(fp: &[usize], by: f64) {
    obs::gauge_add(metric::SCHED_QUEUE_DEPTH, by);
    for &s in fp {
        obs::gauge_add_labeled(metric::SCHED_SHARD_QUEUE_DEPTH, metric::shard_label(s), by);
    }
}

/// Record one decided transaction on the metrics plane and the flight
/// recorder.
fn record_decision(slot: usize, fp: &[usize], ok: bool) {
    queue_depth_add(fp, -1.0);
    for &s in fp {
        obs::counter_add_labeled(metric::SHARD_TXNS, metric::shard_label(s), 1);
    }
    let outcome = if ok {
        metric::LABEL_OUTCOME_COMMITTED
    } else {
        metric::LABEL_OUTCOME_ABORTED
    };
    obs::counter_add_labeled(metric::SCHED_TXN_OUTCOMES, outcome, 1);
    if fp.len() > 1 {
        let cross = if ok {
            metric::SCHED_CROSS_SHARD_COMMITS
        } else {
            metric::SCHED_CROSS_SHARD_ABORTS
        };
        obs::counter_add(cross, 1);
    }
    obs::flight::record(if ok { "txn_committed" } else { "txn_aborted" }, || {
        format!("slot {slot} shards {fp:?}")
    });
}

impl<'a> TxnScheduler<'a> {
    /// A scheduler over `db`. The pool argument is ignored: it is a
    /// compile shim for the frozen benchmark harness (`PipelinePool` in
    /// `database.rs`).
    pub fn new(db: &'a ShardedDatabase, _pool: Arc<PipelinePool>) -> Self {
        TxnScheduler { db, wal: None }
    }

    /// A durable scheduler: every transaction is write-ahead logged —
    /// one begin with its deltas before any shard applies, one commit
    /// record after the last one has — before its result is reported.
    /// `wal` must come from [`crate::durability::DurableSharded::wals`]
    /// of the handle that owns `db`. The pool argument is ignored, as in
    /// [`TxnScheduler::new`].
    #[cfg(feature = "durability")]
    pub fn with_wals(db: &'a ShardedDatabase, _pool: Arc<PipelinePool>, wal: Arc<Wal>) -> Self {
        TxnScheduler { db, wal: Some(wal) }
    }

    /// The sharded database this scheduler serves.
    pub fn db(&self) -> &ShardedDatabase {
        self.db
    }

    /// Route every transaction, then run them one at a time in admission
    /// order. Per-transaction failures (assertion violations, injected
    /// faults, contained panics) land in the corresponding result slot —
    /// the transaction rolled back, the shards are consistent, and the
    /// run continues. So the outer `Result` is always `Ok`; its type stays
    /// because the frozen benchmark harness unwraps it.
    pub fn run(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        let n = txns.len();
        let mut stats = SchedStats {
            txns: n as u64,
            ..SchedStats::default()
        };
        // Route once. A transaction with nothing to do completes at once,
        // an unroutable one fails at once; every other one is admitted
        // (its slot holds a placeholder until it is decided below).
        let mut results: Vec<IvmResult<UpdateReport>> = Vec::with_capacity(n);
        let mut admitted: Vec<(usize, Vec<usize>, ShardParts)> = Vec::with_capacity(n);
        for (slot, txn) in txns.iter().enumerate() {
            let parts = match self.db.route_txn(txn) {
                Ok(p) if !p.is_empty() => p,
                done => {
                    results.push(done.map(|_| UpdateReport::default()));
                    continue;
                }
            };
            let fp: Vec<usize> = parts.iter().map(|(s, _)| *s).collect();
            queue_depth_add(&fp, 1.0);
            obs::flight::record("txn_admitted", || format!("slot {slot} shards {fp:?}"));
            stats.cross_shard_txns += u64::from(fp.len() > 1);
            stats.shard_participations += fp.len() as u64;
            results.push(Ok(UpdateReport::default()));
            admitted.push((slot, fp, parts));
        }
        stats.waves = u64::from(!admitted.is_empty());
        stats.max_wave_width = stats.waves;
        obs::counter_add(metric::SCHED_TXNS, stats.txns);
        obs::counter_add(metric::SCHED_CROSS_SHARD_TXNS, stats.cross_shard_txns);

        let cells = self.db.cells();
        let mut latencies: Vec<u64> = vec![0; n];
        let mut traces: Vec<Option<TraceNode>> = (0..n).map(|_| None).collect();
        let mut run_trace = self.db.tracing().then(|| {
            TraceNode::new("schedule")
                .with_field("txns", n)
                .with_field("shards", self.db.n_shards())
        });
        for (slot, fp, parts) in admitted {
            let t0 = Instant::now();
            // A body panic (the `ivm::pool_dispatch` failpoint fires
            // before any shard is touched) is this transaction's failure
            // alone.
            let out = catch_unwind(AssertUnwindSafe(|| {
                fault::fire_panic("ivm::pool_dispatch");
                apply_parts(cells, &txns[slot], parts, self.wal.as_deref())
            }));
            latencies[slot] = t0.elapsed().as_nanos() as u64;
            let (result, trace) = out.unwrap_or_else(|p| {
                let message = panic_message(p.as_ref());
                (Err(IvmError::TaskPanicked { message }), None)
            });
            record_decision(slot, &fp, result.is_ok());
            if result.is_ok() {
                stats.committed += 1;
            } else {
                stats.aborted += 1;
            }
            if let Some(run) = run_trace.as_mut() {
                let mut txn_node = TraceNode::new("txn").with_field("slot", slot);
                match &trace {
                    Some(t) => txn_node.push_child(t.clone()),
                    None => txn_node.push_note("rolled back or untraced"),
                }
                run.push_child(txn_node);
            }
            results[slot] = result;
            traces[slot] = trace;
        }
        Ok(SchedOutcome {
            results,
            latencies_ns: latencies,
            stats,
            traces,
            trace: run_trace,
        })
    }
}

/// Apply one transaction's per-shard sub-transactions: the cross-shard
/// commit protocol (module docs). Single-shard transactions take the same
/// path with a one-element footprint — open the scope, apply, decide.
///
/// With `wal` present the transaction is logged as submitted — one begin
/// and its unrouted deltas — before the first participant applies, and
/// its one commit record is appended after the last participant applied.
/// That record is the commit point: a failure before it or at it aborts
/// every open participant below, and recovery, finding no commit record,
/// replays nothing of the transaction.
///
/// The second return is the transaction's assembled span when tracing is
/// on and the transaction committed (see [`SchedOutcome::traces`] for the
/// shape contract); a rolled-back transaction leaves no trace, matching
/// [`Database::apply_transaction`].
fn apply_parts(
    cells: &[Mutex<Database>],
    txn: &Txn,
    parts: ShardParts,
    wal: Option<&Wal>,
) -> (IvmResult<UpdateReport>, Option<TraceNode>) {
    let n_parts = parts.len();
    // Participants whose apply succeeded, in ascending shard order, each
    // with its transaction scope still open. The guards are held to the
    // decision point; nothing else runs meanwhile, so holding them blocks
    // nobody.
    let mut open: Vec<MutexGuard<'_, Database>> = Vec::with_capacity(n_parts);
    let mut combined = UpdateReport::default();
    // Per-shard transaction traces, collected in parts order (ascending
    // shard id) so assembly is deterministic.
    let mut shard_traces: Vec<(usize, TraceNode)> = Vec::new();
    let logged = wal.map(|w| log_begin(w, txn).map(|id| (w, id))).transpose();
    let (logged, mut failure) = match logged {
        Ok(logged) => (logged, None),
        Err(e) => (None, Some(e)),
    };
    for (shard, updates) in parts {
        // A failed begin append or an earlier participant's failure
        // decides the transaction: no later participant applies.
        if failure.is_some() {
            break;
        }
        let mut db = cells[shard].lock().unwrap_or_else(|e| e.into_inner());
        // `apply_open` aborts its own scope on an error and on a panic
        // (planning of update k can unwind after updates 1..k landed), so
        // a participant that did not succeed is already rolled back.
        match catch_unwind(AssertUnwindSafe(|| db.apply_open(updates))) {
            Ok(Ok(r)) => {
                combined.merge(&r);
                if let Some(t) = db.take_trace() {
                    shard_traces.push((shard, t));
                }
                open.push(db);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(p) => {
                failure = Some(IvmError::TaskPanicked {
                    message: panic_message(p.as_ref()),
                })
            }
        }
    }
    if let (None, Some((w, id))) = (&failure, logged) {
        // The commit point. If the record cannot be written, memory must
        // not run ahead of the log: the transaction aborts below.
        failure = log_commit(w, id).err();
    }
    match failure {
        None => {
            for mut db in open {
                db.commit_transaction();
            }
            (Ok(combined), assemble_txn_trace(shard_traces, n_parts))
        }
        Some(mut e) => {
            // Abort every participant still open, newest first. Replaying
            // a journal fires no failpoints, so a fault mid-protocol
            // always converges to the pre-transaction state; a journal
            // that does not match its catalog is the worse news and
            // replaces the original error.
            for mut db in open.into_iter().rev() {
                if let Err(abort) = db.abort_transaction() {
                    e = abort;
                }
            }
            (Err(e), None)
        }
    }
}

/// Assemble a committed transaction's span from its per-shard transaction
/// traces (empty when tracing is off). The shape contract
/// ([`SchedOutcome::traces`]): a single-shard transaction's span is the
/// shard's own `transaction` trace — structurally identical to the
/// unsharded trace, with the shard id as a non-structural note — and a
/// cross-shard transaction gets a structural `cross-shard commit` root
/// with one `shard N` child per participant (ascending shard order, which
/// routing fixes deterministically).
fn assemble_txn_trace(
    mut shard_traces: Vec<(usize, TraceNode)>,
    n_parts: usize,
) -> Option<TraceNode> {
    if shard_traces.is_empty() {
        return None;
    }
    if n_parts == 1 {
        let (s, mut t) = shard_traces.pop()?;
        t.push_note(format!("shard {s}"));
        return Some(t);
    }
    let mut root = TraceNode::new("cross-shard commit").with_field("shards", n_parts);
    for (s, t) in shard_traces {
        let mut sn = TraceNode::new(format!("shard {s}"));
        sn.push_child(t);
        root.push_child(sn);
    }
    Some(root)
}
