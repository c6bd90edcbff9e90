//! # spacetime-ivm
//!
//! The runtime: actually *doing* the incremental maintenance the optimizer
//! planned, against real storage, with measured page I/Os that are
//! directly comparable to the optimizer's estimates.
//!
//! * [`qexec`] — the queries posed during delta propagation, planned once
//!   when a track is compiled, with the same choices the cost model
//!   priced (lookups on materialized nodes, pushed-down evaluation
//!   elsewhere), and executed on every update.
//! * [`engine`] — [`engine::IvmEngine`]: materializes a chosen view set,
//!   and propagates base-table deltas along the cheapest update tracks,
//!   maintaining every materialized view and reporting per-bucket I/O.
//! * [`constraints`] — SQL-92 assertions as views required to be empty
//!   (§1, §6): an assertion is a flag on its view's engine, checked
//!   incrementally, with violation reporting.
//! * [`database`] — [`database::Database`]: the user-facing session tying
//!   everything together (DDL, DML with automatic view maintenance, SQL
//!   front end, workload declaration, view-selection strategies) — the
//!   one way in.
//! * [`sched`] — [`Database::run`]: a batch of transactions applied one
//!   at a time in admission order, each under its own `catch_unwind`.
//! * [`durability`] — a [`Database`] that owns one write-ahead log and
//!   one checkpoint, and crash recovery proven bit-identical (DESIGN.md
//!   §17).
//! * [`trace`] — propagation-trace recording: the opt-in, always-compiled
//!   `EXPLAIN ANALYZE` plane ([`Database::set_tracing`] /
//!   [`Database::last_trace`]).
//! * [`verify`] — the recompute-from-scratch oracle used by tests and
//!   examples to prove maintenance correct.

pub mod constraints;
pub mod database;
pub mod durability;
pub mod engine;
pub mod qexec;
pub mod sched;
#[doc(hidden)]
pub mod shim;
pub mod trace;
pub mod verify;

pub use constraints::Violation;
pub use database::{Database, PhaseTotals, ViewSelection};
pub use durability::{DurabilityOptions, RecoveryStats};
pub use engine::{IvmEngine, UpdateReport};
pub use sched::{SchedOutcome, SchedStats, Txn};
#[doc(hidden)]
pub use shim::*;
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
    /// A transaction of a [`Database::run`] panicked. The panic was
    /// contained: the journal was replayed, the catalog is bit-identical
    /// to its pre-transaction state — the transaction simply never
    /// happened — and the run went on with the next transaction.
    TaskPanicked {
        /// The panic payload, rendered (when it was a string).
        message: String,
    },
    /// An integrity check found damage: a missing table, an assertion view
    /// diverging from recomputation, or a checkpoint whose assertion names
    /// no view.
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
