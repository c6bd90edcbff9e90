//! # spacetime-delta
//!
//! Incremental view maintenance deltas and per-operator propagation rules,
//! following the differential approach the paper builds on ([2, 14] in its
//! bibliography): given updates (differentials) Δ`R_i` to base relations,
//! compute the differential ΔV of a view as an expression over the Δ's, the
//! *old* states of the inputs, and (when materialized) the old state of the
//! view itself.
//!
//! * [`delta`] — the [`Delta`] type: inserted tuples, deleted tuples, and
//!   first-class *modified* tuple pairs (the paper's three update kinds).
//!   Keeping modifications paired is what lets aggregate maintenance "add
//!   to or subtract from the previous aggregate values" (§1).
//! * [`propagate`] — per-operator rules computing the output delta of a
//!   node from one input's delta. Queries the rules pose on the *other*
//!   inputs (the semijoin lookups of §2.2) go through the [`InputAccess`]
//!   trait, so the caller decides whether each query is answered by a
//!   materialized-view lookup or by evaluating a plan — exactly the
//!   materialization trade-off the paper optimizes.
//! * [`apply`] — applying a delta to a stored relation (charging the
//!   paper's update-cost I/O) or to an in-memory bag (for verification).

pub mod apply;
pub mod delta;
pub mod propagate;

pub use apply::{apply_to_bag, apply_to_relation_undo, UndoLog};
pub use delta::{Delta, Modify};
pub use propagate::{propagate, propagate_chain, BagAccess, InputAccess};
