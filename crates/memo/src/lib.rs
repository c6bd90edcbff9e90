//! # spacetime-memo
//!
//! The **expression DAG** of §2.1 — the Volcano-style memo structure \[5,12\]
//! the paper builds its view-selection search on:
//!
//! > *"An expression DAG is a bipartite directed acyclic graph with
//! > 'equivalence' nodes and 'operation' nodes. An equivalence node has
//! > edges to one or more operation nodes. An operation node contains an
//! > operator, either one or two children that are equivalence nodes, and
//! > only one parent equivalence node."*
//!
//! * [`memo`] — the DAG itself ([`Memo`]): hash-consed operation nodes,
//!   union-find group (equivalence-node) merging, tree extraction and
//!   counting.
//! * [`rules`] — equivalence rules ([`rules::Rule`]): join commutativity and
//!   associativity, selection push/pull/merge, projection merge and
//!   identity elimination, and the Yan–Larson-style **eager aggregation**
//!   rewrite that relates the two trees of the paper's Figure 1.
//! * [`explore`](mod@explore) — the exploration driver applying rules to fixpoint (with
//!   a budget), as rule-based optimizers do when "generating an expression
//!   DAG representation of the set of equivalent expression trees".
//! * [`analysis`] — graph analyses the optimizer needs: update-affected
//!   nodes (the `U_V` of Def. 3.3), descendant closures (the `D_N` of §4.2),
//!   and **articulation nodes** (Def. 4.1) for the Shielding Principle.
//! * [`dot`] — Graphviz and text renderings of the DAG (Figure 2 output).

pub mod analysis;
pub mod dot;
pub mod explore;
pub mod memo;
pub mod rules;

pub use analysis::{affected_groups, articulation_groups, descendant_groups};
pub use explore::{explore, explore_with, ExploreStats};
pub use memo::{GroupId, Memo, OpId, OperationNode};
pub use rules::{default_rules, NewExpr, Rule, RuleSet};
