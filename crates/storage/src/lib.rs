//! # spacetime-storage
//!
//! The storage substrate for the `spacetime` reproduction of Ross,
//! Srivastava & Sudarshan, *"Materialized View Maintenance and Integrity
//! Constraint Checking: Trading Space for Time"* (SIGMOD 1996).
//!
//! The paper evaluates its view-selection algorithms under a concrete
//! physical model (§3.6): relations stored unclustered, accessed through
//! hash indices with no overflowed buckets, and costs counted in **page
//! I/Os**. This crate provides exactly that substrate:
//!
//! * [`value`] — the SQL-ish value domain ([`Value`], [`DataType`]) with a
//!   total order suitable for grouping and indexing.
//! * [`smallstr`] — compact strings ([`SmallStr`]): small-string inlining
//!   plus an interned spill path ([`Interner`]).
//! * [`fx`] — the deterministic fixed-seed hasher used by hot-path maps
//!   and the bag and index shard layouts.
//! * [`tuple`](mod@tuple) — cheaply-clonable tuples ([`Tuple`]).
//! * [`schema`] — column/schema metadata and name resolution.
//! * [`bag`] — multisets of tuples ([`Bag`]); all relations and views have
//!   SQL multiset semantics.
//! * [`index`] — hash indices ([`HashIndex`]) over column subsets.
//! * [`relation`] — stored relations ([`Relation`]) combining a bag with its
//!   indices.
//! * [`io`] — the page-I/O meter ([`IoMeter`]) that charges accesses by the
//!   paper's accounting rules, so that *measured* costs are commensurable
//!   with the optimizer's *estimated* costs.
//! * [`stats`] — per-table statistics ([`TableStats`]) used by cost
//!   estimation.
//! * [`catalog`] — the database catalog ([`Catalog`], [`Table`]): schemas,
//!   data, statistics, keys and indices by table name.
//! * [`error`] — the crate-wide error type ([`StorageError`]).
//! * [`fault`] — deterministic fault injection (failpoints), compiled to
//!   no-ops unless the `failpoints` feature is enabled.

pub mod arena;
pub mod bag;
pub mod catalog;
pub mod error;
pub mod fault;
pub mod fx;
pub mod index;
pub mod io;
pub mod relation;
pub mod schema;
#[doc(hidden)]
pub mod shim;
pub mod smallstr;
pub mod stats;
pub mod tuple;
pub mod value;

pub use arena::TxnArena;
pub use bag::Bag;
pub use catalog::{Catalog, Table};
pub use error::{StorageError, StorageResult};
pub use index::HashIndex;
pub use io::{IoMeter, IoSnapshot};
pub use fx::{fx_hash_one, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use relation::Relation;
pub use schema::{Column, Schema};
#[doc(hidden)]
pub use shim::*;
pub use smallstr::{Interner, SmallStr};
pub use stats::TableStats;
pub use tuple::Tuple;
pub use value::{DataType, Value};
