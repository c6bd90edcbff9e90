//! # spacetime-optimizer
//!
//! The paper's contribution: **choosing the optimal set of additional views
//! to materialize for the incremental maintenance of a materialized view
//! V** (Ross, Srivastava & Sudarshan, SIGMOD 1996).
//!
//! Pipeline: build `V`'s expression DAG (`spacetime-memo`), declare the
//! workload as weighted [`TransactionType`]s, then:
//!
//! * [`candidates`] — the space of view sets (§3.1): subsets of non-leaf
//!   equivalence nodes containing the root.
//! * [`tracks`] — subdags (Def. 3.2) and update tracks (Def. 3.3): the
//!   minimal ways of propagating a transaction's updates up the DAG to all
//!   materialized nodes, and the queries each track poses (§3.2),
//!   including the key-based query elimination of §3.6 ([`complete`]).
//! * [`evaluate`] — the cost of maintaining one view set for one
//!   transaction type: cheapest track's (multi-query-optimized) query cost
//!   plus the cost of applying updates to every materialized view (§3.4).
//! * [`exhaustive`] — Algorithm `OptimalViewSet` (Figure 4, Theorem 3.1),
//!   for one view or a set of views sharing one multi-rooted DAG (§6).
//! * [`shielding`] — the Shielding Principle (Theorem 4.1): local
//!   optimization below articulation nodes restricts the search space
//!   without losing optimality.
//! * [`heuristics`] — the §5 pruning strategies: single expression tree,
//!   rule-of-thumb marking, and greedy hill-climbing.

pub mod candidates;
pub mod complete;
pub mod evaluate;
pub mod exhaustive;
pub mod heuristics;
pub mod search;
pub mod shielding;
pub mod track_catalog;
pub mod tracks;

pub use candidates::{candidate_groups, enumerate_view_sets, ViewSet};
pub use complete::delta_group_complete;
pub use evaluate::{
    evaluate_view_set, evaluate_with_catalog, maintenance_costs, maintenance_floor, EvalConfig,
    TxnEvaluation, ViewSetEvaluation,
};
pub use exhaustive::{optimal_view_set, optimal_view_set_over, OptimizeOutcome};
pub use heuristics::{greedy_add, rule_of_thumb_set, single_tree_optimize};
pub use search::{search_view_sets, SEARCH_BUDGET};
pub use shielding::shielding_optimize;
pub use track_catalog::{PreparedTrack, PreparedTracks, TrackCatalog};
pub use tracks::{
    enumerate_tracks, track_queries,
    PosedQuery, PreparedQuery, TrackEnumeration, UpdateTrack,
};

pub use spacetime_cost::{Cost, CostModel, PageIoCostModel, TransactionType, UpdateKind};
