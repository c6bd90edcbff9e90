//! The footprint-based transaction scheduler over a [`ShardedDatabase`].
//!
//! Each transaction (a list of per-table deltas) is routed to its **shard
//! footprint** — the set of shard domains its delta keys touch. The
//! scheduler admits transactions in waves: scanning the queue in admission
//! order, a transaction is admitted if its footprint is disjoint from
//! everything already admitted this wave *and* from every deferred
//! transaction's footprint (so per-shard order is preserved); otherwise it
//! waits for a later wave. Admitted transactions run concurrently on a
//! [`PipelinePool`]; a wave is a barrier.
//!
//! **Cross-shard commit protocol.** A transaction whose footprint spans
//! several shards applies to them one at a time in ascending shard order,
//! each inside the shard's own transaction scope
//! (`Database::apply_open`), and every participant's undo journal stays
//! open until the decision point: the WAL commit record for a
//! single-shard transaction, the global commit record for a cross-shard
//! one, or simply the last participant's success when nothing is logged.
//! Then every participant commits (its journal is forgotten). If any
//! participant fails first — a typed error, an injected fault, or a
//! contained panic — it has already rolled itself back, and every earlier
//! participant aborts, newest first, by replaying its journal. Footprint
//! admission guarantees no other transaction touches those shards in
//! between, so the transaction is all-or-nothing across its whole
//! footprint and no shard's catalog is ever copied to make it so.
//!
//! **Determinism invariant.** [`TxnScheduler::run`] is bit-identical to
//! [`TxnScheduler::run_serial`] (one transaction at a time, admission
//! order) in every table of every shard and every per-transaction
//! [`UpdateReport`]:
//!
//! 1. transactions sharing a shard execute in admission order (an
//!    admitted transaction blocks the shard for the rest of the wave; a
//!    deferred transaction blocks it for every *later* queue position,
//!    and deferral preserves queue order across waves);
//! 2. transactions in one wave have pairwise-disjoint footprints, so they
//!    read and write disjoint shard sets — they commute;
//! 3. a transaction's report and effects depend only on the pre-state of
//!    the shards in its footprint.
//!
//! Property tests (`prop_shard.rs`) sweep this at pool widths 1/2/4/8.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use spacetime_delta::Delta;
use spacetime_obs::{self as obs, names as metric, TraceNode};

use crate::database::Database;
use crate::engine::UpdateReport;
use crate::pool::{panic_message, PipelinePool};
use crate::shard::ShardedDatabase;
use crate::{IvmError, IvmResult};

/// One transaction: per-table deltas applied atomically, in order.
pub type Txn = Vec<(String, Delta)>;

/// Counters describing one scheduler run. Mirrors the `spacetime_sched_*`
/// metrics exactly, so benchmarks can assert the books balance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Transactions accepted (including empty and mis-routed ones).
    pub txns: u64,
    /// Transactions that ran in a wave of two or more (i.e. concurrently
    /// with at least one disjoint-footprint transaction).
    pub admitted_concurrent: u64,
    /// Deferrals: one per wave a transaction sat out behind a conflicting
    /// footprint.
    pub conflict_deferrals: u64,
    /// Transactions whose footprint spanned more than one shard.
    pub cross_shard_txns: u64,
    /// Admission waves dispatched.
    pub waves: u64,
    /// The largest single wave (transactions dispatched together).
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
    /// Per-transaction latency (dispatch → commit, pool queueing
    /// included), admission order. Zero for transactions never dispatched
    /// (empty footprint or routing failure).
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
    /// participant's trace in ascending shard order, plus a `wal
    /// global-commit` child when write-ahead logged. Assembly is
    /// deterministic: concurrent runs and serial replays produce
    /// structurally identical spans.
    pub traces: Vec<Option<TraceNode>>,
    /// The whole run as one span — `schedule` → per-wave `wave` nodes →
    /// per-transaction spans — when tracing is on. Wave structure
    /// legitimately differs between [`TxnScheduler::run`] and
    /// [`TxnScheduler::run_serial`] (serial replay dispatches one
    /// transaction per wave), so identity tests compare `traces`, not
    /// this.
    pub trace: Option<TraceNode>,
}

#[cfg(feature = "durability")]
use crate::durability::ShardWals;
/// Uninhabited stand-in so `apply_parts` keeps one signature when the
/// `durability` feature (and with it the real `ShardWals`) is off: an
/// `Option<Arc<…>>` of this type can only ever be `None`.
#[cfg(not(feature = "durability"))]
type ShardWals = std::convert::Infallible;

/// A scheduler bound to a sharded database and a worker pool.
pub struct TxnScheduler<'a> {
    db: &'a ShardedDatabase,
    pool: Arc<PipelinePool>,
    /// Per-shard WAL sessions + global commit log for durable serving.
    wals: Option<Arc<ShardWals>>,
}

/// A transaction's routed form: per-shard sub-transactions in ascending
/// shard order (the footprint is the shard ids).
type ShardParts = Vec<(usize, Txn)>;

impl<'a> TxnScheduler<'a> {
    /// A scheduler dispatching onto `pool`. Pool width caps how many
    /// disjoint transactions actually run at once; admission logic is
    /// width-independent.
    pub fn new(db: &'a ShardedDatabase, pool: Arc<PipelinePool>) -> Self {
        TxnScheduler {
            db,
            pool,
            wals: None,
        }
    }

    /// A durable scheduler: every transaction is write-ahead logged on
    /// the shards it touches (cross-shard transactions through the 2PC
    /// global commit record) before its results are reported. `wals`
    /// must come from the [`crate::durability::DurableSharded`] that
    /// owns `db`'s logs.
    #[cfg(feature = "durability")]
    pub fn with_wals(
        db: &'a ShardedDatabase,
        pool: Arc<PipelinePool>,
        wals: Arc<ShardWals>,
    ) -> Self {
        TxnScheduler {
            db,
            pool,
            wals: Some(wals),
        }
    }

    /// The sharded database this scheduler serves.
    pub fn db(&self) -> &ShardedDatabase {
        self.db
    }

    /// Route one transaction to its per-shard sub-transactions.
    fn route(&self, txn: &Txn) -> IvmResult<ShardParts> {
        let mut per: Vec<Txn> = (0..self.db.n_shards()).map(|_| Txn::new()).collect();
        for (table, delta) in txn {
            for (s, d) in self.db.route_delta(table, delta)? {
                per[s].push((table.clone(), d));
            }
        }
        Ok(per
            .into_iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .collect())
    }

    /// Admit and run every transaction, concurrently where footprints
    /// allow. Per-transaction failures (assertion violations, injected
    /// faults, contained panics) land in the corresponding result slot —
    /// the transaction rolled back, the shards are consistent, and the
    /// run continues. `Err` from `run` itself means scheduler
    /// infrastructure failed (e.g. the pool's channel died).
    pub fn run(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        self.run_inner(txns, true)
    }

    /// The determinism oracle: the same transactions, one at a time, in
    /// admission order, on the calling thread. Bit-identical results and
    /// shard state to [`TxnScheduler::run`]; `stats` and latencies
    /// describe the serial execution instead (no waves, no concurrency),
    /// and no scheduler metrics are recorded — a replay check must not
    /// double-count the books.
    pub fn run_serial(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        self.run_inner(txns, false)
    }

    fn run_inner(&self, txns: &[Txn], concurrent: bool) -> IvmResult<SchedOutcome> {
        let n = txns.len();
        let mut stats = SchedStats {
            txns: n as u64,
            ..SchedStats::default()
        };
        if concurrent {
            obs::counter_add(metric::SCHED_TXNS, n as u64);
        }
        let mut results: Vec<Option<IvmResult<UpdateReport>>> = (0..n).map(|_| None).collect();
        let mut latencies: Vec<u64> = vec![0; n];
        let tracing = self.db.tracing();
        let mut traces: Vec<Option<TraceNode>> = (0..n).map(|_| None).collect();
        let mut run_trace = tracing.then(|| {
            let mut t = TraceNode::new("schedule")
                .with_field("txns", n)
                .with_field("shards", self.db.n_shards());
            t.push_note(if concurrent { "concurrent" } else { "serial replay" });
            t
        });
        // One shared handle to the shard cells for every task of the run.
        let cells: Arc<[Arc<Mutex<Database>>]> = self.db.cells().into();
        // Route everything up front; the footprint drives admission.
        let mut parts: Vec<Option<ShardParts>> = Vec::with_capacity(n);
        let mut pending: Vec<usize> = Vec::with_capacity(n);
        for (i, txn) in txns.iter().enumerate() {
            match self.route(txn) {
                Ok(p) if p.is_empty() => {
                    // Nothing to do; completes immediately.
                    results[i] = Some(Ok(UpdateReport::default()));
                    parts.push(None);
                }
                Ok(p) => {
                    if p.len() > 1 {
                        stats.cross_shard_txns += 1;
                        if concurrent {
                            obs::counter_add(metric::SCHED_CROSS_SHARD_TXNS, 1);
                        }
                    }
                    if concurrent {
                        obs::gauge_add(metric::SCHED_QUEUE_DEPTH, 1.0);
                        for (s, _) in &p {
                            obs::gauge_add_labeled(
                                metric::SCHED_SHARD_QUEUE_DEPTH,
                                metric::shard_label(*s),
                                1.0,
                            );
                        }
                    }
                    pending.push(i);
                    parts.push(Some(p));
                }
                Err(e) => {
                    results[i] = Some(Err(e));
                    parts.push(None);
                }
            }
        }
        while !pending.is_empty() {
            let mut busy: BTreeSet<usize> = BTreeSet::new();
            let mut blocked: BTreeSet<usize> = BTreeSet::new();
            let mut batch: Vec<usize> = Vec::new();
            let mut rest: Vec<usize> = Vec::new();
            let mut wave_deferrals: u64 = 0;
            for &i in &pending {
                let Some(fp) = parts[i].as_ref() else {
                    // A routing-bookkeeping bug degrades to one failed
                    // transaction, not a poisoned scheduler.
                    results[i] = Some(Err(IvmError::Internal(
                        "scheduler invariant broken: pending transaction has no routed parts"
                            .into(),
                    )));
                    if concurrent {
                        obs::gauge_add(metric::SCHED_QUEUE_DEPTH, -1.0);
                        for s in txn_footprint(txns, self.db, i) {
                            obs::gauge_add_labeled(
                                metric::SCHED_SHARD_QUEUE_DEPTH,
                                metric::shard_label(s),
                                -1.0,
                            );
                        }
                    }
                    continue;
                };
                let free = fp
                    .iter()
                    .all(|(s, _)| !busy.contains(s) && !blocked.contains(s));
                if free && (concurrent || batch.is_empty()) {
                    busy.extend(fp.iter().map(|(s, _)| *s));
                    batch.push(i);
                } else {
                    if free {
                        // Serial replay: everything after the first
                        // transaction waits, with no conflict implied.
                        rest.push(i);
                        continue;
                    }
                    blocked.extend(fp.iter().map(|(s, _)| *s));
                    stats.conflict_deferrals += 1;
                    wave_deferrals += 1;
                    rest.push(i);
                }
            }
            stats.waves += 1;
            stats.max_wave_width = stats.max_wave_width.max(batch.len() as u64);
            if concurrent {
                // Deferral events are O(queue²) on a hot admission queue;
                // one batched add per wave keeps the recorder off the scan.
                if wave_deferrals > 0 {
                    obs::counter_add(metric::SCHED_CONFLICT_SERIALIZED, wave_deferrals);
                }
                obs::counter_add(metric::SCHED_WAVES, 1);
                obs::counter_add_labeled(
                    metric::SCHED_WAVE_WIDTHS,
                    metric::wave_width_label(batch.len()),
                    1,
                );
                if batch.len() > 1 {
                    obs::counter_add(metric::SCHED_ADMITTED_CONCURRENT, batch.len() as u64);
                    stats.admitted_concurrent += batch.len() as u64;
                }
            }
            let t_wave = Instant::now();
            type TaskOut = (IvmResult<UpdateReport>, u64, Option<TraceNode>);
            let mut tasks: Vec<Box<dyn FnOnce() -> TaskOut + Send>> =
                Vec::with_capacity(batch.len());
            let mut dispatched: Vec<usize> = Vec::with_capacity(batch.len());
            // Footprints of the dispatched transactions, captured before
            // the routed parts move into the task closures (the outcome
            // loop needs them for gauges, labels, and stats).
            let mut fps: Vec<Vec<usize>> = Vec::with_capacity(batch.len());
            for &i in &batch {
                let Some(p) = parts[i].take() else {
                    // Same degradation as above: one failed transaction,
                    // and the rest of the wave still runs.
                    results[i] = Some(Err(IvmError::Internal(
                        "scheduler invariant broken: admitted transaction has no routed parts"
                            .into(),
                    )));
                    if concurrent {
                        obs::gauge_add(metric::SCHED_QUEUE_DEPTH, -1.0);
                        for s in txn_footprint(txns, self.db, i) {
                            obs::gauge_add_labeled(
                                metric::SCHED_SHARD_QUEUE_DEPTH,
                                metric::shard_label(s),
                                -1.0,
                            );
                        }
                    }
                    continue;
                };
                let fp: Vec<usize> = p.iter().map(|(s, _)| *s).collect();
                if concurrent {
                    obs::flight::record("txn_admitted", || {
                        format!("slot {i} shards {fp:?}")
                    });
                }
                let cells = Arc::clone(&cells);
                let wals = self.wals.clone();
                let t0 = Instant::now();
                tasks.push(Box::new(move || {
                    let (r, tr) = apply_parts(&cells, p, wals.as_deref());
                    (r, t0.elapsed().as_nanos() as u64, tr)
                }));
                dispatched.push(i);
                fps.push(fp);
            }
            let outcomes = if concurrent {
                self.pool.run_outcomes(tasks)?
            } else {
                // Inline, but still panic-contained like the pool's path.
                tasks
                    .into_iter()
                    .map(|t| catch_unwind(AssertUnwindSafe(t)).map_err(|p| panic_message(p.as_ref())))
                    .collect()
            };
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let i = dispatched[k];
                match outcome {
                    Ok((r, ns, tr)) => {
                        results[i] = Some(r);
                        latencies[i] = ns;
                        traces[i] = tr;
                    }
                    Err(message) => {
                        // The dispatch itself panicked (e.g. the
                        // `ivm::pool_dispatch` failpoint) before the task
                        // body ran; the shards were never touched.
                        results[i] = Some(Err(IvmError::TaskPanicked { message }));
                        latencies[i] = t_wave.elapsed().as_nanos() as u64;
                    }
                }
                let fp = &fps[k];
                stats.shard_participations += fp.len() as u64;
                let ok = matches!(results[i], Some(Ok(_)));
                if ok {
                    stats.committed += 1;
                } else {
                    stats.aborted += 1;
                }
                if concurrent {
                    for &s in fp {
                        obs::counter_add_labeled(metric::SHARD_TXNS, metric::shard_label(s), 1);
                    }
                    obs::counter_add_labeled(
                        metric::SCHED_TXN_OUTCOMES,
                        if ok {
                            metric::LABEL_OUTCOME_COMMITTED
                        } else {
                            metric::LABEL_OUTCOME_ABORTED
                        },
                        1,
                    );
                    if fp.len() > 1 {
                        obs::counter_add(
                            if ok {
                                metric::SCHED_CROSS_SHARD_COMMITS
                            } else {
                                metric::SCHED_CROSS_SHARD_ABORTS
                            },
                            1,
                        );
                    }
                    obs::flight::record(
                        if ok { "txn_committed" } else { "txn_aborted" },
                        || format!("slot {i} shards {fp:?}"),
                    );
                    obs::gauge_add(metric::SCHED_QUEUE_DEPTH, -1.0);
                    for &s in fp {
                        obs::gauge_add_labeled(
                            metric::SCHED_SHARD_QUEUE_DEPTH,
                            metric::shard_label(s),
                            -1.0,
                        );
                    }
                }
            }
            if let Some(run) = run_trace.as_mut() {
                let mut wave_node = TraceNode::new("wave").with_field("width", dispatched.len());
                for &i in &dispatched {
                    let mut txn_node = TraceNode::new("txn").with_field("slot", i);
                    match &traces[i] {
                        Some(t) => txn_node.push_child(t.clone()),
                        None => txn_node.push_note("rolled back or untraced"),
                    }
                    wave_node.push_child(txn_node);
                }
                run.push_child(wave_node);
            }
            pending = rest;
        }
        let results = results
            .into_iter()
            .map(|r| r.ok_or_else(|| IvmError::Internal("a transaction was never run".into())))
            .collect::<IvmResult<Vec<_>>>()?;
        if let Some(run) = run_trace.as_mut() {
            run.push_field("waves", stats.waves);
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

/// Re-derive a dispatched transaction's footprint for gauge drain (its
/// routed parts were consumed by the task closure). Routing is
/// deterministic, so this matches what was incremented; a routing error
/// here is impossible for a transaction that routed cleanly before.
fn txn_footprint(txns: &[Txn], db: &ShardedDatabase, i: usize) -> Vec<usize> {
    let mut fp: BTreeSet<usize> = BTreeSet::new();
    for (table, delta) in &txns[i] {
        if let Ok(parts) = db.route_delta(table, delta) {
            fp.extend(parts.into_iter().map(|(s, _)| s));
        }
    }
    fp.into_iter().collect()
}

/// Apply one transaction's per-shard sub-transactions: the cross-shard
/// commit protocol (module docs). Single-shard transactions take the same
/// path with a one-element footprint — open the scope, apply, decide.
///
/// With `wals` present every participant is write-ahead logged: `begin +
/// deltas` (plus `prepared` for cross-shard transactions) before its
/// in-memory apply, the commit record after. A cross-shard transaction's
/// atomic commit point is the global commit record appended *after* every
/// participant applied and flushed — recovery aborts prepared
/// participants whose global record is absent, which is exactly what the
/// in-memory aborts below converge to.
///
/// The second return is the transaction's assembled span when tracing is
/// on and the transaction committed (see [`SchedOutcome::traces`] for the
/// shape contract); a rolled-back transaction leaves no trace, matching
/// [`Database::apply_transaction`].
fn apply_parts(
    cells: &[Arc<Mutex<Database>>],
    parts: ShardParts,
    wals: Option<&ShardWals>,
) -> (IvmResult<UpdateReport>, Option<TraceNode>) {
    #[cfg(not(feature = "durability"))]
    let _ = wals; // uninhabited: always `None` without the feature
    let n_parts = parts.len();
    #[cfg(feature = "durability")]
    let gid: Option<u64> = match wals {
        Some(w) if n_parts > 1 => Some(w.alloc_gid()),
        _ => None,
    };
    #[cfg(not(feature = "durability"))]
    let gid: Option<u64> = None;
    // The global commit names its participants; the parts move into the
    // loop below, so note them first (cross-shard transactions only).
    #[cfg(feature = "durability")]
    let fp: Vec<usize> = match gid {
        Some(_) => parts.iter().map(|(s, _)| *s).collect(),
        None => Vec::new(),
    };
    // Participants whose apply succeeded, in ascending shard order, each
    // with its transaction scope still open. The guards are held to the
    // decision point; admission keeps every other transaction off these
    // shards meanwhile, so holding them blocks nobody.
    let mut open: Vec<MutexGuard<'_, Database>> = Vec::with_capacity(n_parts);
    let mut combined = UpdateReport::default();
    let mut failure: Option<IvmError> = None;
    // Per-shard transaction traces, collected in parts order (ascending
    // shard id) so assembly is deterministic regardless of scheduling.
    let mut shard_traces: Vec<(usize, TraceNode)> = Vec::new();
    for (shard, updates) in parts {
        let mut db = cells[shard].lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "durability")]
        let wal_txn: Option<u64> = match wals {
            Some(w) => match w.begin_shard(shard, gid, &updates) {
                Ok(id) => Some(id),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            },
            None => None,
        };
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
                #[cfg(feature = "durability")]
                if let (Some(w), Some(txn_id), None) = (wals, wal_txn, gid) {
                    // Single-shard durable commit point. If the record
                    // cannot be written, memory must not run ahead of
                    // the log: the transaction fails and aborts below.
                    if let Err(e) = w.commit_shard(shard, txn_id) {
                        failure = Some(e);
                        break;
                    }
                }
            }
            Ok(Err(e)) => {
                failure = Some(e);
                break;
            }
            Err(p) => {
                failure = Some(IvmError::TaskPanicked {
                    message: panic_message(p.as_ref()),
                });
                break;
            }
        }
    }
    #[cfg(feature = "durability")]
    if failure.is_none() {
        if let (Some(w), Some(g)) = (wals, gid) {
            // Cross-shard commit point: flush the participants, then
            // one global commit record. Failure converges to the
            // aborts below — and to abort-at-recovery, since no
            // global record was made durable.
            if let Err(e) = w.commit_global(g, &fp) {
                failure = Some(e);
            }
        }
    }
    match failure {
        None => {
            for mut db in open {
                db.commit_transaction();
            }
            (Ok(combined), assemble_txn_trace(shard_traces, n_parts, gid))
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
/// routing fixes deterministically) plus a `wal global-commit` child when
/// a global commit record was logged (`wal_global` carries its gid; the
/// gid value itself is admission-timing-dependent, so it rides as a
/// note).
fn assemble_txn_trace(
    mut shard_traces: Vec<(usize, TraceNode)>,
    n_parts: usize,
    wal_global: Option<u64>,
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
    if let Some(gid) = wal_global {
        let mut w = TraceNode::new("wal global-commit").with_field("participants", n_parts);
        w.push_note(format!("gid {gid}"));
        root.push_child(w);
    }
    Some(root)
}
