//! # spacetime-bench
//!
//! Workload generators, the paper's scenarios, and the experiment harness
//! that regenerates **every table and figure** of the paper's evaluation
//! (§3.6 tables T1–T4, the headline claim H1, Figures 1/2/3/5, and the
//! §3/§4/§5 shape experiments). See `EXPERIMENTS.md` at the workspace
//! root for the recorded paper-vs-measured comparison.
//!
//! Nothing here times the product: wall-clock numbers come from the
//! standalone `benchmark/` package and from nowhere else.
//!
//! Binaries:
//!
//! * `paper_tables` — regenerates the §3.6 cost tables (estimated *and*
//!   measured) plus the E-SPJ/E-HEUR experiments.
//! * `paper_figures` — regenerates the figures (expression trees, the
//!   expression DAG, the ADeptsStatus example, articulation nodes).
//! * `crash_child` — the victim process of `tests/crash_kill.rs`.
//!
//! `tests/` holds the suites that need the whole stack: the paper-report
//! goldens, PerKey ≡ Fused (`prop_fused`, `data_plane_invariants`), serial
//! replay ≡ concurrent (`prop_shard`), rollback under injected faults
//! (`prop_faults`), recovery ≡ control (`prop_wal`, `crash_kill`) and the
//! metrics plane's books (`endpoint`, `metrics_books`).
//!
//! Criterion benches (print only, gate nothing): `bench_optimizer`,
//! `bench_maintenance`, `bench_memo`.

pub mod scenarios;
pub mod tables;
pub mod workload;

pub use scenarios::{
    adepts_status, figure5, join_chain, paper_names, problem_dept, scaling_workload, stacked_view,
    PaperScenario,
};
pub use workload::{load_paper_data, paper_schema_db, random_emp_updates};
