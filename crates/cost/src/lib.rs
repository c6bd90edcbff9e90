//! # spacetime-cost
//!
//! Cost estimation for the paper's view-set optimization:
//!
//! * [`model`] — the [`Cost`] type and the *monotonic* [`CostModel`] trait
//!   (§3.4: "our technique and results are applicable for any monotonic
//!   cost model"), plus [`PageIoCostModel`], the §3.6 hash-index page-I/O
//!   model the paper's tables are computed with.
//! * [`txn`] — transaction types: which relations a transaction updates,
//!   the update kind and size, and the type's weight `f_i`.
//! * [`est`] — cardinality, distinct-count and **delta-size** estimation
//!   over memo groups ("We assume that the sizes of the Δs on the inputs
//!   are available … we can then compute the size of the update to the
//!   result", §2.2).
//! * [`query`] — the cost of answering a delta query on an equivalence
//!   node *in the presence of materialized views* (the Chaudhuri et al.
//!   adaptation of §3.4), including the batch (multi-query-optimized)
//!   variant used to cost an update track's query set.

pub mod est;
pub mod model;
pub mod query;
pub mod txn;

pub use est::{CostCtx, DeltaEst};
pub use model::{Cost, CostModel, PageIoCostModel};
pub use query::{BatchQuery, Marking};
pub use txn::{TableUpdate, TransactionType, UpdateKind};
