//! `EXPLAIN ANALYZE` for delta propagation: enable tracing, push one
//! update through the wide ten-view pipeline scenario, and print the
//! recorded span tree — which track each engine chose, the queries posed
//! at every operator (index vs. scan), per-operator delta sizes (a fused
//! `Select`/`Project` chain is one span with its stage count), and what
//! the commit applied where.
//!
//! ```text
//! cargo run --example explain_trace
//! ```

use spacetime_bench::scenarios::build_wide_pipeline_db;
use spacetime_delta::Delta;
use spacetime_storage::tuple;

fn main() {
    // Ten maintained views over Emp/Dept (join, aggregates, DISTINCT, a
    // two-rooted view group) — the E-PIPE scenario.
    let mut db = build_wide_pipeline_db(50, 6);
    db.set_tracing(true);

    // One salary raise.
    let delta = Delta::modify(
        tuple!["emp00001_0", "dept00001", 100_i64],
        tuple!["emp00001_0", "dept00001", 180_i64],
        1,
    );
    db.apply_delta("Emp", delta).expect("maintained update");

    let trace = db.last_trace().expect("tracing was on");
    println!("{}", trace.render_text());
    println!("({} spans; JSON via TraceNode::render_json)", trace.span_count());

    // The metrics plane is separate: compile-time opt-in, process-wide.
    let snap = db.metrics_snapshot();
    if snap.is_empty() {
        println!("metrics: not compiled in (rebuild with --features metrics)");
    } else {
        println!("\n{}", snap.render_prometheus());
    }
}
