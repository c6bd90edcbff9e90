//! Serving a batch: [`Database::run`].
//!
//! `run` applies a batch of transactions (each a list of per-table
//! deltas) one at a time, in admission order, on the calling thread. That
//! is the paper's own execution model (§3.2: one relation's delta at a
//! time, state updated in between) and, on the two-core benchmark host,
//! the faster one: a pool of drain tasks ran the same stream about a
//! fifth slower, and partitioning the database into shards bought
//! nothing either (EXPERIMENTS.md E-SERVE), so both were deleted.
//!
//! Every transaction goes through the one transaction door
//! (`Database::transact`, behind [`Database::apply_transaction`]), so a
//! durable database logs a batch exactly as it logs single calls.
//!
//! **Panic containment.** Each transaction runs under its own
//! `catch_unwind`: a panicking body is that transaction's
//! [`IvmError::TaskPanicked`] (its journal already replayed), and the
//! run continues with the next one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spacetime_delta::Delta;
use spacetime_obs::{self as obs, names as metric, TraceNode};
use spacetime_storage::fault;

use crate::database::Database;
use crate::engine::UpdateReport;
use crate::{IvmError, IvmResult};

/// One transaction: per-table deltas applied atomically, in order.
pub type Txn = Vec<(String, Delta)>;

/// The books of one [`Database::run`]. `txns`, `committed` and `aborted`
/// mirror the `spacetime_sched_*` metrics exactly.
///
/// The other six fields are read only by the frozen benchmark harness and
/// are constants of the one loop, all set in `SchedStats::of_run`; the
/// benchmark PR deletes them:
/// * `waves` and `max_wave_width` — 1 for a non-empty batch, else 0;
/// * `admitted_concurrent`, `conflict_deferrals` and `cross_shard_txns`
///   — always 0;
/// * `shard_participations` — `txns`: every transaction runs on the one
///   database.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Transactions in the batch.
    pub txns: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that rolled back (assertion violation, injected
    /// fault, contained panic, or a failed log append).
    pub aborted: u64,
    #[doc(hidden)]
    pub waves: u64,
    #[doc(hidden)]
    pub max_wave_width: u64,
    #[doc(hidden)]
    pub admitted_concurrent: u64,
    #[doc(hidden)]
    pub conflict_deferrals: u64,
    #[doc(hidden)]
    pub cross_shard_txns: u64,
    #[doc(hidden)]
    pub shard_participations: u64,
}

impl SchedStats {
    fn of_run(txns: u64, committed: u64, aborted: u64) -> SchedStats {
        let batch = u64::from(txns > 0);
        SchedStats {
            txns,
            committed,
            aborted,
            waves: batch,
            max_wave_width: batch,
            admitted_concurrent: 0,
            conflict_deferrals: 0,
            cross_shard_txns: 0,
            shard_participations: txns,
        }
    }
}

/// The outcome of a [`Database::run`], slot-aligned with the batch.
#[derive(Debug)]
pub struct SchedOutcome {
    /// Per-transaction results in admission order: the merged maintenance
    /// report, or the error that rolled the transaction back.
    pub results: Vec<IvmResult<UpdateReport>>,
    /// Per-transaction latency, **start → decision**: the clock starts
    /// when the transaction starts to run, not when the batch does, so it
    /// measures one transaction rather than its position in the batch.
    pub latencies_ns: Vec<u64>,
    /// The run's books.
    pub stats: SchedStats,
    /// Per-transaction spans, slot-aligned with `results`; `None` unless
    /// tracing is on ([`Database::set_tracing`]) and the transaction
    /// committed. A span is the database's `transaction` trace for it —
    /// exactly what [`Database::apply_transaction`] leaves in
    /// [`Database::last_trace`].
    pub traces: Vec<Option<TraceNode>>,
    /// The whole run as one span — `schedule` → one `txn` node per
    /// transaction, in admission order, each wrapping its span from
    /// `traces` — when tracing is on.
    pub trace: Option<TraceNode>,
}

/// Render a panic payload (string payloads verbatim, anything else typed).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record one decided transaction on the metrics plane and the flight
/// recorder.
fn record_decision(slot: usize, ok: bool) {
    obs::gauge_add(metric::SCHED_QUEUE_DEPTH, -1.0);
    let outcome = if ok {
        metric::LABEL_OUTCOME_COMMITTED
    } else {
        metric::LABEL_OUTCOME_ABORTED
    };
    obs::counter_add_labeled(metric::SCHED_TXN_OUTCOMES, outcome, 1);
    obs::flight::record(if ok { "txn_committed" } else { "txn_aborted" }, || {
        format!("slot {slot}")
    });
}

impl Database {
    /// Apply a batch of transactions one at a time, in admission order.
    /// Each one fires the `ivm::pool_dispatch` failpoint and then runs
    /// through [`Database::apply_transaction`] under its own
    /// `catch_unwind`. A failure — assertion violation, injected fault,
    /// contained panic, failed log append — lands in that transaction's
    /// result slot: the transaction rolled back, the database is
    /// consistent, and the run goes on with the next one.
    pub fn run(&mut self, txns: &[Txn]) -> SchedOutcome {
        let n = txns.len();
        obs::counter_add(metric::SCHED_TXNS, n as u64);
        obs::gauge_add(metric::SCHED_QUEUE_DEPTH, n as f64);
        let tracing = self.tracing();
        let mut results = Vec::with_capacity(n);
        let mut latencies_ns = Vec::with_capacity(n);
        let mut traces = Vec::with_capacity(n);
        let mut run_trace = tracing.then(|| TraceNode::new("schedule").with_field("txns", n));
        let mut committed = 0u64;
        for (slot, txn) in txns.iter().enumerate() {
            obs::flight::record("txn_admitted", || format!("slot {slot}"));
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                fault::fire_panic("ivm::pool_dispatch");
                self.transact(txn)
            }))
            .unwrap_or_else(|p| {
                Err(IvmError::TaskPanicked {
                    message: panic_message(p.as_ref()),
                })
            });
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            record_decision(slot, result.is_ok());
            committed += u64::from(result.is_ok());
            let trace = if tracing && result.is_ok() {
                self.last_trace().cloned()
            } else {
                None
            };
            if let Some(run) = run_trace.as_mut() {
                let mut txn_node = TraceNode::new("txn").with_field("slot", slot);
                match &trace {
                    Some(t) => txn_node.push_child(t.clone()),
                    None => txn_node.push_note("rolled back"),
                }
                run.push_child(txn_node);
            }
            results.push(result);
            traces.push(trace);
        }
        SchedOutcome {
            results,
            latencies_ns,
            stats: SchedStats::of_run(n as u64, committed, n as u64 - committed),
            traces,
            trace: run_trace,
        }
    }
}
