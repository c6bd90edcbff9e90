//! # spacetime-ivm
//!
//! The runtime: actually *doing* the incremental maintenance the optimizer
//! planned, against real storage, with measured page I/Os that are
//! directly comparable to the optimizer's estimates.
//!
//! * [`qexec`] — runtime evaluation of the queries posed during delta
//!   propagation, picking the same plans the cost model priced (lookups on
//!   materialized nodes, pushed-down evaluation elsewhere).
//! * [`engine`] — [`engine::IvmEngine`]: materializes a chosen view set,
//!   and propagates base-table deltas along the cheapest update tracks,
//!   maintaining every materialized view and reporting per-bucket I/O.
//! * [`constraints`] — SQL-92 assertions as views required to be empty
//!   (§1, §6): incremental checking and violation reporting.
//! * [`database`] — [`database::Database`]: the user-facing session tying
//!   everything together (DDL, DML with automatic view maintenance, SQL
//!   front end, workload declaration, view-selection strategies).
//! * [`shard`] — the partitioned layout: [`shard::ShardedDatabase`]
//!   splits a database into N shard domains by declared shard keys, each
//!   shard a full database with its own engines and per-shard
//!   materializations (and, under `durability`, its own log and
//!   checkpoint).
//! * [`sched`] — the transaction scheduler ([`sched::TxnScheduler`]):
//!   routes each transaction to the shards it touches and runs the batch
//!   in admission order on the calling thread, cross-shard ones through
//!   an all-or-nothing commit protocol.
//! * `durability` (feature `durability`) — per-shard write-ahead
//!   logging, checkpoints, and crash recovery proven bit-identical
//!   (DESIGN.md §17). Off by default; the default build does not link
//!   the wal crate.
//! * [`trace`] — propagation-trace recording: the opt-in, always-compiled
//!   `EXPLAIN ANALYZE` plane ([`Database::set_tracing`] /
//!   [`Database::last_trace`]).
//! * [`verify`] — the recompute-from-scratch oracle used by tests and
//!   examples to prove maintenance correct.

pub mod constraints;
pub mod database;
#[cfg(feature = "durability")]
pub mod durability;
pub mod engine;
pub mod qexec;
pub mod sched;
pub mod shard;
pub mod trace;
pub mod verify;

pub use constraints::{Assertion, Violation};
pub use database::{Database, ExecutionMode, PhaseTotals, PipelinePool, ViewSelection};
#[cfg(feature = "durability")]
pub use durability::{
    DurabilityOptions, DurableSharded, RecoveryStats, ShardWals,
};
pub use engine::{IvmEngine, PropagationMode, UpdateReport};
pub use sched::{SchedOutcome, SchedStats, Txn, TxnScheduler};
pub use shard::ShardedDatabase;
pub use trace::TraceNode;
pub use verify::verify_all_views;

/// Errors surfaced by the runtime: storage/algebra errors plus SQL ones.
#[derive(Debug)]
pub enum IvmError {
    /// Storage/algebra/semantic failure.
    Storage(spacetime_storage::StorageError),
    /// SQL front-end failure.
    Sql(spacetime_sql::SqlError),
    /// An integrity constraint would be violated.
    AssertionViolated {
        /// The assertion's name.
        name: String,
        /// Sample violating tuples (rendered).
        sample: Vec<String>,
    },
    /// A scheduled transaction panicked. The panic was contained: the
    /// journal was replayed, the catalog is bit-identical to its
    /// pre-transaction state — the transaction simply never happened —
    /// and the run went on with the next transaction.
    TaskPanicked {
        /// The panic payload, rendered (when it was a string).
        message: String,
    },
    /// A post-failure integrity check found damage (a missing table or an
    /// assertion view diverging from recomputation).
    Integrity(String),
    /// An internal invariant did not hold (a bug, not a user error).
    Internal(String),
    /// Unsupported operation.
    Unsupported(String),
}

impl std::fmt::Display for IvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IvmError::Storage(e) => write!(f, "{e}"),
            IvmError::Sql(e) => write!(f, "{e}"),
            IvmError::AssertionViolated { name, sample } => {
                write!(f, "assertion `{name}` violated")?;
                if !sample.is_empty() {
                    write!(f, " (e.g. {})", sample.join(", "))?;
                }
                Ok(())
            }
            IvmError::TaskPanicked { message } => {
                write!(f, "transaction panicked: {message}")
            }
            IvmError::Integrity(msg) => write!(f, "integrity check failed: {msg}"),
            IvmError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            IvmError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for IvmError {}

impl From<spacetime_storage::StorageError> for IvmError {
    fn from(e: spacetime_storage::StorageError) -> Self {
        IvmError::Storage(e)
    }
}

impl From<spacetime_sql::SqlError> for IvmError {
    fn from(e: spacetime_sql::SqlError) -> Self {
        IvmError::Sql(e)
    }
}

/// Result alias.
pub type IvmResult<T> = Result<T, IvmError>;
