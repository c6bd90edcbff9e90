//! # spacetime-algebra
//!
//! Relational algebra for the `spacetime` reproduction of Ross, Srivastava
//! & Sudarshan (SIGMOD 1996): logical operators, expression trees, and an
//! executor that evaluates trees against the storage catalog while charging
//! page I/Os.
//!
//! The operator set is the one the paper's view language needs —
//! select/project/join (SPJ), grouping/aggregation, and duplicate
//! elimination — over **multiset** semantics:
//!
//! * [`scalar`] — scalar expressions ([`ScalarExpr`]) with SQL three-valued
//!   logic, used for predicates, projections and aggregate arguments.
//! * [`ops`] — the logical operator vocabulary ([`OpKind`], [`AggExpr`],
//!   [`JoinCondition`]).
//! * [`tree`] — schema-validated expression trees ([`ExprNode`],
//!   [`ExprTree`]) with a builder API.
//! * [`keys`] — candidate-key derivation through operators (feeds the
//!   eager-aggregation rewrite and the paper's key-based query
//!   elimination).
//! * [`eval`](mod@eval) — the executor: evaluates a tree to a [`Bag`], selecting
//!   index-backed access paths where the physical model provides them.
//! * [`kernel`] — fused streaming kernels: `Select`/`Project` chains
//!   compiled into flat stage pipelines that push borrowed rows without
//!   materializing per-operator intermediates (`eval` stays the oracle).
//!
//! [`Bag`]: spacetime_storage::Bag

pub mod equiv;
pub mod eval;
pub mod kernel;
pub mod keys;
pub mod ops;
pub mod scalar;
pub mod tree;

pub use equiv::{column_equivalences, ColClasses};
pub use eval::{eval, eval_uncharged};
pub use kernel::{FusedProgram, KernelScratch, KernelStage, PairOutcome};
pub use keys::{cols_contain_key, derive_keys, Key};
pub use ops::{AggExpr, AggFunc, JoinCondition, OpKind};
pub use scalar::ScalarDisplay;
pub use scalar::{BinOp, CmpOp, ScalarExpr};
pub use tree::{derive_schema, ExprNode, ExprTree};

/// Algebra reuses the storage error type: resolution, typing and schema
/// failures are the same vocabulary at both layers.
pub use spacetime_storage::{StorageError as AlgebraError, StorageResult as AlgebraResult};
