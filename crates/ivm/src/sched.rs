//! The footprint-based transaction scheduler over a [`ShardedDatabase`].
//!
//! Each transaction (a list of per-table deltas) is routed once to its
//! **shard footprint** — the set of shard domains its delta keys touch —
//! and its slot is appended, in admission order, to the FIFO queue of
//! every shard in that footprint. Drain tasks on a [`PipelinePool`] then
//! repeatedly *claim* the lowest slot that heads every queue of its
//! footprint, run it, and *advance* those queues. Nothing is re-scanned
//! and there is no barrier: one pool dispatch serves a whole
//! [`TxnScheduler::run`].
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
//! participant aborts, newest first, by replaying its journal. A claimed
//! transaction heads all its queues until it is decided, so no other
//! transaction touches those shards in between: it is all-or-nothing
//! across its whole footprint and no shard's catalog is ever copied to
//! make it so.
//!
//! **Determinism invariant.** [`TxnScheduler::run`] is bit-identical to
//! [`TxnScheduler::run_serial`] (the same claim/advance loop with one
//! inline claimant, which therefore runs in admission order) in every
//! table of every shard and every per-transaction [`UpdateReport`]:
//!
//! 1. every shard queue is a subsequence of the admission order and only
//!    its head can run, so transactions sharing a shard execute in
//!    admission order;
//! 2. transactions in flight together each head all their queues, so
//!    their footprints are disjoint — they read and write disjoint shard
//!    sets and commute;
//! 3. a transaction's report and effects depend only on the pre-state of
//!    the shards in its footprint.
//!
//! **No deadlock at any pool width.** Every earlier slot on each of the
//! lowest undecided slot's queues is decided, so that slot heads all of
//! them: it is either running or claimable by whichever drain task looks
//! next — one task (pool width 1, or fewer tasks than shards) drains
//! everything. A panicking transaction body is contained per transaction
//! and still advances its queues.
//!
//! Property tests (`prop_shard.rs`) sweep this at pool widths 1/2/4/8,
//! cross-shard-heavy and with fewer workers than shards.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use spacetime_delta::Delta;
use spacetime_obs::{self as obs, names as metric, TraceNode};
use spacetime_storage::fault;

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
    /// Transactions run under a dispatch of two or more drain tasks (i.e.
    /// free to overlap a disjoint-footprint transaction).
    pub admitted_concurrent: u64,
    /// Always 0: a transaction is enqueued once and never re-scanned.
    /// Kept only until the trusted benchmark stops reading it.
    pub conflict_deferrals: u64,
    /// Transactions whose footprint spanned more than one shard.
    pub cross_shard_txns: u64,
    /// Pool dispatches: 1 per run that routed any work, else 0.
    pub waves: u64,
    /// Drain tasks of the widest dispatch: `min(pool width, shards with
    /// work)`; 1 for a serial replay.
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
    /// Per-transaction latency, **claim → decision**, admission order: the
    /// clock starts when a drain task claims the slot, not when the run
    /// starts, so it measures one transaction rather than its queue
    /// position. Zero for transactions never dispatched (empty footprint
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
    /// participant's trace in ascending shard order, plus a `wal
    /// global-commit` child when write-ahead logged. Assembly is
    /// deterministic: concurrent runs and serial replays produce
    /// structurally identical spans.
    pub traces: Vec<Option<TraceNode>>,
    /// The whole run as one span — `schedule` → one `txn` node per
    /// dispatched transaction, in admission order, each wrapping its span
    /// from `traces` — when tracing is on.
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
/// shard order.
type ShardParts = Vec<(usize, Txn)>;

/// How many times a drain task with nothing claimable polls the
/// sequencer's epoch before it parks (about a millisecond in all). What
/// it waits for is the other queue of a cross-shard transaction draining
/// — a few transactions, a few hundred microseconds — and parking at
/// every such wait gave up more than half of the sequencer's gain on the
/// 2-vCPU development host (EXPERIMENTS.md E-SERVE), so the bound is
/// generous; every [`YIELD_EVERY`]th poll yields the core, which keeps a
/// pool wider than the host from starving the tasks that do have work.
const SPIN_LIMIT: u32 = 1 << 16;
const YIELD_EVERY: u32 = 64;

/// The per-shard FIFO sequencer of one run (module docs).
struct Sequencer {
    cells: Arc<[Arc<Mutex<Database>>]>,
    wals: Option<Arc<ShardWals>>,
    /// Per shard: the slots whose footprint includes it, admission order.
    queues: Vec<Vec<usize>>,
    /// Per slot: its footprint, ascending shard ids (empty: never
    /// enqueued).
    footprints: Vec<Vec<usize>>,
    cursors: Mutex<Cursors>,
    /// Bumped (Release) on every advance; what a spinning drain task
    /// watches (Acquire). Only a hint to look again: the cursors
    /// themselves are read under the lock.
    epoch: AtomicU64,
    /// Signalled on advance when a drain task is parked.
    freed: Condvar,
    /// Record scheduler metrics and flight events (a serial replay must
    /// not double-count the books).
    metered: bool,
}

/// The sequencer's mutable state, under one short-held lock.
struct Cursors {
    /// Per shard: index into its queue of the first undecided slot.
    heads: Vec<usize>,
    /// Per slot: its routed parts until a drain task claims them.
    parts: Vec<Option<ShardParts>>,
    unclaimed: usize,
    parked: usize,
}

/// One decided transaction, as a drain task reports it.
struct Decided {
    slot: usize,
    result: IvmResult<UpdateReport>,
    latency_ns: u64,
    trace: Option<TraceNode>,
}

impl Sequencer {
    fn lock(&self) -> MutexGuard<'_, Cursors> {
        // Every update under the lock is a plain store, valid at each step.
        self.cursors.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slot at the head of `shard`'s queue, if it is unclaimed and
    /// heads every other queue of its footprint too.
    fn claimable(&self, c: &Cursors, shard: usize) -> Option<usize> {
        let head = |s: usize| self.queues[s].get(c.heads[s]).copied();
        let slot = head(shard)?;
        (c.parts[slot].is_some() && self.footprints[slot].iter().all(|&s| head(s) == Some(slot)))
            .then_some(slot)
    }

    /// Claim the lowest runnable slot, waiting while everything unclaimed
    /// sits behind an in-flight transaction. `None` once nothing is left.
    fn claim(&self) -> Option<(usize, ShardParts)> {
        let mut c = self.lock();
        let mut spins = 0u32;
        loop {
            if c.unclaimed == 0 {
                return None;
            }
            let pick = (0..self.queues.len()).filter_map(|s| self.claimable(&c, s)).min();
            if let Some((slot, parts)) = pick.and_then(|slot| Some((slot, c.parts[slot].take()?))) {
                c.unclaimed -= 1;
                return Some((slot, parts));
            }
            if spins < SPIN_LIMIT {
                // `advance` bumps the epoch under the lock, so `seen`
                // belongs to exactly the state just examined.
                let seen = self.epoch.load(Ordering::Acquire);
                drop(c);
                while spins < SPIN_LIMIT && self.epoch.load(Ordering::Acquire) == seen {
                    spins += 1;
                    if spins.is_multiple_of(YIELD_EVERY) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                c = self.lock();
            } else {
                c.parked += 1;
                c = self.freed.wait(c).unwrap_or_else(|e| e.into_inner());
                c.parked -= 1;
            }
        }
    }

    /// A decided transaction leaves the head of every queue it was on.
    fn advance(&self, slot: usize) {
        let mut c = self.lock();
        for &s in &self.footprints[slot] {
            c.heads[s] += 1;
        }
        self.epoch.fetch_add(1, Ordering::Release);
        if c.parked > 0 {
            self.freed.notify_all();
        }
    }

    /// The claim/advance loop of one drain task: run claimable
    /// transactions, lowest slot first, until none is left. For a lone
    /// claimant that is exactly admission order.
    fn drain(&self) -> Vec<Decided> {
        let mut decided = Vec::new();
        while let Some((slot, parts)) = self.claim() {
            let t0 = Instant::now();
            // A body panic (the `ivm::pool_dispatch` failpoint fires
            // before any shard is touched) is this transaction's failure
            // alone: its queues advance like any other decision.
            let out = catch_unwind(AssertUnwindSafe(|| {
                fault::fire_panic("ivm::pool_dispatch");
                apply_parts(&self.cells, parts, self.wals.as_deref())
            }));
            let latency_ns = t0.elapsed().as_nanos() as u64;
            self.advance(slot);
            let (result, trace) = out.unwrap_or_else(|p| {
                let message = panic_message(p.as_ref());
                (Err(IvmError::TaskPanicked { message }), None)
            });
            if self.metered {
                self.record_decision(slot, result.is_ok());
            }
            decided.push(Decided {
                slot,
                result,
                latency_ns,
                trace,
            });
        }
        decided
    }

    fn record_decision(&self, slot: usize, ok: bool) {
        let fp = &self.footprints[slot];
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
}

/// Move the queue-depth gauges (global, and one per shard of `fp`): up
/// at enqueue, down at decision, zero after every run.
fn queue_depth_add(fp: &[usize], by: f64) {
    obs::gauge_add(metric::SCHED_QUEUE_DEPTH, by);
    for &s in fp {
        obs::gauge_add_labeled(metric::SCHED_SHARD_QUEUE_DEPTH, metric::shard_label(s), by);
    }
}

impl<'a> TxnScheduler<'a> {
    /// A scheduler dispatching onto `pool`. Pool width caps how many
    /// disjoint transactions actually run at once; the outcome is
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

    /// Route one transaction to its per-shard sub-transactions: one part
    /// per shard it touches, ascending.
    fn route(&self, txn: &Txn) -> IvmResult<ShardParts> {
        let mut parts = ShardParts::new();
        for (table, delta) in txn {
            for (s, d) in self.db.route_delta(table, delta)? {
                let at = parts
                    .binary_search_by_key(&s, |(shard, _)| *shard)
                    .unwrap_or_else(|at| {
                        parts.insert(at, (s, Txn::new()));
                        at
                    });
                parts[at].1.push((table.clone(), d));
            }
        }
        Ok(parts)
    }

    /// Sequence and run every transaction, concurrently where footprints
    /// allow. Per-transaction failures (assertion violations, injected
    /// faults, contained panics) land in the corresponding result slot —
    /// the transaction rolled back, the shards are consistent, and the
    /// run continues. `Err` from `run` itself means scheduler
    /// infrastructure failed (e.g. the pool's channel died).
    pub fn run(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        self.sequence(txns, Some(&self.pool))
    }

    /// The determinism oracle: the same transactions through the same
    /// sequencer with one claimant on the calling thread, so they run one
    /// at a time in admission order. Bit-identical results and shard
    /// state to [`TxnScheduler::run`]; `stats` describe the serial
    /// execution (one claimant, no concurrency), and no scheduler
    /// metrics are recorded — a replay check must not double-count the
    /// books.
    pub fn run_serial(&self, txns: &[Txn]) -> IvmResult<SchedOutcome> {
        self.sequence(txns, None)
    }

    fn sequence(&self, txns: &[Txn], pool: Option<&PipelinePool>) -> IvmResult<SchedOutcome> {
        let n = txns.len();
        let n_shards = self.db.n_shards();
        let metered = pool.is_some();
        let mut stats = SchedStats {
            txns: n as u64,
            ..SchedStats::default()
        };
        let mut results: Vec<Option<IvmResult<UpdateReport>>> = (0..n).map(|_| None).collect();
        // Route once; the footprint is all the sequencer needs to know.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut footprints: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut parts: Vec<Option<ShardParts>> = Vec::with_capacity(n);
        let mut dispatched = 0usize;
        for (i, txn) in txns.iter().enumerate() {
            let p = match self.route(txn) {
                Ok(p) if !p.is_empty() => p,
                done => {
                    // Nothing to do (completes immediately), or unroutable.
                    results[i] = Some(done.map(|_| UpdateReport::default()));
                    footprints.push(Vec::new());
                    parts.push(None);
                    continue;
                }
            };
            let fp: Vec<usize> = p.iter().map(|(s, _)| *s).collect();
            for &s in &fp {
                queues[s].push(i);
            }
            if metered {
                queue_depth_add(&fp, 1.0);
                obs::flight::record("txn_admitted", || format!("slot {i} shards {fp:?}"));
            }
            stats.cross_shard_txns += u64::from(fp.len() > 1);
            stats.shard_participations += fp.len() as u64;
            dispatched += 1;
            footprints.push(fp);
            parts.push(Some(p));
        }
        // One drain task per worker that can have a queue of its own.
        let busy_shards = queues.iter().filter(|q| !q.is_empty()).count();
        let drainers = pool.map_or(1, PipelinePool::width).min(busy_shards);
        stats.waves = u64::from(dispatched > 0);
        stats.max_wave_width = drainers as u64;
        if drainers > 1 {
            stats.admitted_concurrent = dispatched as u64;
        }
        if metered {
            obs::counter_add(metric::SCHED_TXNS, stats.txns);
            obs::counter_add(metric::SCHED_CROSS_SHARD_TXNS, stats.cross_shard_txns);
            obs::counter_add(metric::SCHED_WAVES, stats.waves);
            obs::counter_add(metric::SCHED_ADMITTED_CONCURRENT, stats.admitted_concurrent);
        }
        let seq = Arc::new(Sequencer {
            cells: self.db.cells().into(),
            wals: self.wals.clone(),
            queues,
            footprints,
            cursors: Mutex::new(Cursors {
                heads: vec![0; n_shards],
                parts,
                unclaimed: dispatched,
                parked: 0,
            }),
            epoch: AtomicU64::new(0),
            freed: Condvar::new(),
            metered,
        });
        let decided: Vec<Decided> = match pool {
            None => seq.drain(),
            Some(pool) => {
                let tasks = (0..drainers)
                    .map(|_| {
                        let seq = Arc::clone(&seq);
                        Box::new(move || seq.drain()) as Box<dyn FnOnce() -> Vec<Decided> + Send>
                    })
                    .collect();
                let mut all = Vec::with_capacity(dispatched);
                for outcome in pool.run_outcomes(tasks)? {
                    all.extend(outcome.map_err(|message| {
                        IvmError::Internal(format!("a scheduler drain task died: {message}"))
                    })?);
                }
                all
            }
        };
        let mut latencies: Vec<u64> = vec![0; n];
        let mut traces: Vec<Option<TraceNode>> = (0..n).map(|_| None).collect();
        for d in decided {
            if d.result.is_ok() {
                stats.committed += 1;
            } else {
                stats.aborted += 1;
            }
            results[d.slot] = Some(d.result);
            latencies[d.slot] = d.latency_ns;
            traces[d.slot] = d.trace;
        }
        let results = results
            .into_iter()
            .map(|r| r.ok_or_else(|| IvmError::Internal("a transaction was never run".into())))
            .collect::<IvmResult<Vec<_>>>()?;
        let trace = self.db.tracing().then(|| {
            let mut run = TraceNode::new("schedule")
                .with_field("txns", n)
                .with_field("shards", n_shards);
            run.push_note(format!("{drainers} drain task(s)"));
            for i in (0..n).filter(|&i| !seq.footprints[i].is_empty()) {
                let mut txn_node = TraceNode::new("txn").with_field("slot", i);
                match &traces[i] {
                    Some(t) => txn_node.push_child(t.clone()),
                    None => txn_node.push_note("rolled back or untraced"),
                }
                run.push_child(txn_node);
            }
            run
        });
        Ok(SchedOutcome {
            results,
            latencies_ns: latencies,
            stats,
            traces,
            trace,
        })
    }
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
    // decision point; the transaction heads these shards' queues
    // meanwhile, so holding them blocks nobody.
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
