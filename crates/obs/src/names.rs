//! Catalog of every metric name emitted by the workspace.
//!
//! Names follow Prometheus conventions: `spacetime_` prefix, `_total`
//! suffix on monotone counters, unit suffix (`_ns`) on time-valued
//! series. Keeping them in one module makes the exposition greppable and
//! gives CI a stable target for the "no exposition strings in the default
//! binary" check (the constants are dead-code-eliminated when the
//! `metrics` feature is off because every consumer is an inlined no-op).

/// Base-table updates applied through `Database::apply_delta`.
pub const UPDATES_APPLIED: &str = "spacetime_updates_applied_total";
/// Queries posed against materialized state during propagation (§2.2).
pub const QUERIES_POSED: &str = "spacetime_queries_posed_total";
/// Update tracks walked (one per engine with a track for the updated table).
pub const TRACK_PROPAGATIONS: &str = "spacetime_track_propagations_total";
/// Op-tree nodes that produced a delta during track propagation.
pub const TRACK_GROUPS_PROPAGATED: &str = "spacetime_track_groups_propagated_total";
/// End-to-end `apply_delta` latency histogram (plan + gate + commit).
pub const UPDATE_LATENCY_NS: &str = "spacetime_update_latency_ns";
/// Commit-phase latency histogram.
pub const COMMIT_LATENCY_NS: &str = "spacetime_commit_latency_ns";

/// View sets handed to the optimizer's search engine.
pub const OPT_SETS_CONSIDERED: &str = "spacetime_opt_sets_considered_total";
/// View sets abandoned by branch-and-bound pruning.
pub const OPT_SETS_PRUNED: &str = "spacetime_opt_sets_pruned_total";
/// Track-enumeration branches the `max_tracks` cap discarded, summed
/// over the enumerations a search ran (one per transaction and seed
/// list). A set pruned by its maintenance floor is never enumerated, so
/// it adds nothing.
pub const OPT_TRACKS_TRUNCATED: &str = "spacetime_opt_tracks_truncated_total";
/// Weighted cost of the current best (incumbent) view set, updated live.
pub const OPT_INCUMBENT_COST: &str = "spacetime_opt_incumbent_cost";
/// 1 when the last view-set search covered its whole space, 0 when it
/// stopped at its budget of claimed sets and returned the best set it
/// had priced.
pub const OPT_SEARCH_EXACT: &str = "spacetime_opt_search_exact";

/// Transactions handed to `Database::run`.
pub const SCHED_TXNS: &str = "spacetime_sched_txns_total";
/// Transactions of a `Database::run` batch not yet decided (up when the
/// batch is admitted, down at each decision).
pub const SCHED_QUEUE_DEPTH: &str = "spacetime_sched_queue_depth";
/// Decided transactions by outcome, labeled [`LABEL_OUTCOME_COMMITTED`]
/// or [`LABEL_OUTCOME_ABORTED`].
pub const SCHED_TXN_OUTCOMES: &str = "spacetime_sched_txn_outcomes_total";

// --- label dimension ------------------------------------------------------
//
// Labels are full `key="value"` pairs with *fixed, small cardinality*, all
// `'static` so the registry can key on pointer-stable strings with zero
// allocation on the hot path. Anything unbounded (table names, view names)
// stays out of the label space and goes through the drift accounting
// instead.

/// Outcome label: the transaction committed.
pub const LABEL_OUTCOME_COMMITTED: &str = "outcome=\"committed\"";
/// Outcome label: the transaction rolled back (assertion violation,
/// injected fault, contained panic, or a failed log append).
pub const LABEL_OUTCOME_ABORTED: &str = "outcome=\"aborted\"";

/// WAL record-kind label: transaction begin frames.
pub const LABEL_WAL_BEGIN: &str = "kind=\"begin\"";
/// WAL record-kind label: delta payload frames.
pub const LABEL_WAL_DELTA: &str = "kind=\"delta\"";
/// WAL record-kind label: commit frames.
pub const LABEL_WAL_COMMIT: &str = "kind=\"commit\"";
/// WAL record-kind label: checkpoint marker frames.
pub const LABEL_WAL_CHECKPOINT: &str = "kind=\"checkpoint\"";

/// Failpoints fired (only moves in `failpoints` builds).
pub const FAILPOINTS_FIRED: &str = "spacetime_failpoints_fired_total";

/// WAL record frames appended (only moves in `durability` builds).
pub const WAL_APPENDS: &str = "spacetime_wal_appends_total";
/// WAL bytes appended, frame headers included.
pub const WAL_BYTES: &str = "spacetime_wal_bytes_total";
/// fsyncs issued by the WAL (`SyncPolicy::Always` commits, checkpoints).
pub const WAL_FSYNCS: &str = "spacetime_wal_fsyncs_total";
/// Checkpoint segments installed.
pub const WAL_CHECKPOINTS: &str = "spacetime_wal_checkpoints_total";
/// Committed transactions replayed from the log tail during recovery —
/// with checkpointing active this counts only the post-checkpoint tail.
pub const WAL_RECOVERY_REPLAYED_TXNS: &str = "spacetime_wal_recovery_replayed_txns_total";
/// WAL record frames appended by kind, labeled `kind="begin"` …
/// `kind="checkpoint"` (see the `LABEL_WAL_*` constants). Sums to
/// [`WAL_APPENDS`].
pub const WAL_RECORDS: &str = "spacetime_wal_records_total";
/// Committed transactions since the last installed checkpoint, summed over
/// every live WAL session (gauge; drops when a checkpoint lands).
pub const WAL_CHECKPOINT_AGE_TXNS: &str = "spacetime_wal_checkpoint_age_txns";
/// Transactions the most recent recovery replayed from the log tail
/// (gauge; a proxy for how far the checkpoint lagged the log at crash).
pub const WAL_REPLAY_LAG_TXNS: &str = "spacetime_wal_replay_lag_txns";
