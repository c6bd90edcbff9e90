//! `spacetime-obs`: the observability plane for the spacetime workspace.
//!
//! Five facilities live here:
//!
//! * **Metrics** ([`metrics`]): a lock-cheap registry of atomic counters,
//!   gauges, fixed-bucket histograms, and labeled counters/gauges (fixed
//!   small-cardinality `key="value"` labels: txn outcome, WAL record
//!   kind) in one process-global [`Registry`]. The whole plane is gated
//!   behind the `metrics` cargo feature, mirroring the `failpoints`
//!   pattern in `spacetime-storage::fault`: with the feature off (the
//!   default) every instrumentation call site is an inlined empty
//!   function, the metric-name string literals are dead-code-eliminated
//!   from release binaries, and [`snapshot`] returns an empty
//!   [`MetricsSnapshot`]. Call sites never branch on the feature
//!   themselves; they call the same free functions either way.
//!
//! * **Traces** ([`trace`]): a plain span-tree data structure
//!   ([`TraceNode`]) used by `spacetime-ivm` to record `EXPLAIN
//!   ANALYZE`-style propagation traces. Traces are always compiled and
//!   opt-in at runtime (`Database::set_tracing`), so determinism tests can
//!   exercise them in the default build. Wall-clock durations and advisory
//!   notes are carried alongside the structural content and excluded from
//!   [`TraceNode::structure_json`], which is what cross-mode identity
//!   tests compare.
//!
//! * **Flight recorder** ([`flight`]): a fixed-size ring of recent
//!   serving-plane events (txn admissions/commits/aborts, failpoint
//!   fires, WAL fsyncs), dumped on panic or integrity
//!   failure and served at `/debug/events`. Feature-gated like metrics.
//!
//! * **Workload drift** ([`drift`]): sliding-window per-transaction-type
//!   counts and per-view maintenance-cost EWMAs — the observed signal for
//!   online view-set re-selection (ROADMAP item 4). Merged into
//!   [`MetricsSnapshot`] by [`snapshot`]. Feature-gated like metrics.
//!
//! * **HTTP endpoint** (`http`, `metrics` builds only): a zero-dependency
//!   `TcpListener` server exposing `/metrics` (Prometheus text),
//!   `/healthz`, `/statusz` (JSON status page), and `/debug/events`.

pub mod drift;
pub mod flight;
#[cfg(feature = "metrics")]
pub mod http;
pub mod metrics;
pub mod names;
pub mod trace;

pub use metrics::{
    compiled, counter_add, counter_add_labeled, gauge_add, gauge_set, observe_ns, snapshot,
    stopwatch, HistogramSnapshot, MetricsSnapshot, Registry, StopWatch,
};
pub use trace::TraceNode;
