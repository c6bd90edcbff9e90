//! Propagation-trace recording: the per-update `EXPLAIN ANALYZE` plane.
//!
//! Tracing is always compiled and opt-in at runtime
//! ([`crate::Database::set_tracing`]); the recorded tree is a
//! [`spacetime_obs::TraceNode`]. Structural content (track chosen, ops,
//! posed queries, index-vs-scan resolution, delta sizes, commit targets)
//! is a function of the update and the pre-update catalog; wall-clock
//! durations are non-structural and excluded from
//! `TraceNode::structure_json`.
//!
//! Recording is collected per track group by `GroupProbe` (filled inside
//! the engine's `propagate_group` and its `InputAccess`), then assembled in
//! the track's topological order. Traced updates run the served path: a
//! fused chain group records one span carrying its stage count.

use spacetime_memo::GroupId;
pub use spacetime_obs::TraceNode;

/// One posed query recorded during a group's propagation: which child was
/// queried, on which binding columns, with how many distinct keys.
#[derive(Debug, Clone)]
pub(crate) struct QueryRec {
    /// The queried child group.
    pub child: GroupId,
    /// Binding columns of the posed query.
    pub cols: Vec<usize>,
    /// Distinct keys answered (1 per call in per-key mode; the batch size
    /// for a batched `matching_all`).
    pub keys: u64,
    /// How the query's resolved access reads its child (`Access::via`).
    pub via: String,
}

/// Per-group recording slot threaded through `propagate_group`.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupProbe {
    /// Posed queries, in pose order.
    pub queries: Vec<QueryRec>,
    /// Size of the carrier child's delta.
    pub delta_in: u64,
}

/// A propagated group's full recording, assembled by `plan_update_with`.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupRec {
    /// The probe filled during propagation.
    pub probe: GroupProbe,
    /// Size of the group's output delta.
    pub delta_out: u64,
    /// Queries posed by this group (mode-independent §2.2 count).
    pub posed: u64,
    /// The fused kernel's stage count, when the group ran as one chain.
    pub stages: Option<usize>,
    /// Wall-clock nanoseconds spent propagating the group.
    pub wall_ns: u64,
}
