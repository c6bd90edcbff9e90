//! Per-layer microprobes of the traced pass: one layer's public function
//! called in a loop on inputs taken from the workload's own stream, a span
//! around every batch.
//!
//! Calls are timed in batches because one probe (tens of nanoseconds) is
//! no longer than reading the clock; each metric is the median batch.

use std::path::Path;

use crate::gen::{Emp, GenTxn, RowOp, Shape, Source};
use crate::metrics::Metrics;
use crate::stats::median_u64;
use crate::sut::{self, Engine, KernelProbe, UndoProbe, WalProbe};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::Tally;

const BATCH: usize = 64;
/// Stream transactions a probe draws its inputs from.
pub const SAMPLE: usize = 8192;

/// The department and, on Emp, the tuple each row operation names.
fn rows(stream: &[GenTxn]) -> impl Iterator<Item = (u32, Option<Emp>)> + '_ {
    stream
        .iter()
        .flat_map(|t| t.updates.iter().flat_map(|u| u.ops.iter()))
        .map(|op| match *op {
            RowOp::Insert(e) | RowOp::Delete(e) => (e.dept, Some(e)),
            RowOp::Modify { old, .. } => (old.dept, Some(old)),
            RowOp::Budget { dept, .. } => (dept, None),
        })
}

/// Median of per-item nanoseconds over batches of `items`.
fn per_item_ns<T>(
    tracer: &mut Tracer,
    span: &'static str,
    items: &[T],
    batch: usize,
    mut call: impl FnMut(&T),
) -> (f64, u64) {
    let mut per_item = Vec::new();
    for (b, chunk) in items.chunks_exact(batch).enumerate() {
        let s = tracer.begin(span, NO_PARENT, b as u64);
        for item in chunk {
            call(item);
        }
        per_item.push(tracer.end(s) / batch as u64);
    }
    (median_u64(&per_item), (per_item.len() * batch) as u64)
}

/// `storage.index_probe_ns`: `Relation::lookup` on Emp(DName), keys from
/// the stream.
pub fn storage(m: &mut Metrics, tracer: &mut Tracer, engine: &Engine, stream: &[GenTxn]) {
    let keys: Vec<_> = rows(stream)
        .take(SAMPLE)
        .map(|(d, _)| sut::dept_key(d))
        .collect();
    let mut found = 0u64;
    let (ns, n) = per_item_ns(tracer, "storage.lookup", &keys, BATCH, |k| {
        found += std::hint::black_box(engine.probe_emp_by_dept(k));
    });
    assert!(found > 0, "the probed departments have employees");
    m.layer("storage.index_probe_ns", ns, Some(n));
}

/// `delta.apply_undo_ns_per_row`: one 512-row delta against the loaded
/// state, applied under the undo journal and rolled back, over and over.
pub fn delta_undo(m: &mut Metrics, tracer: &mut Tracer, engine: &Engine, seed: u64, shape: Shape) {
    const ROWS: usize = 512;
    const REPS: usize = 24;
    let one = Source::bulk(seed ^ 0xD17A, shape, ROWS).take(1);
    let delta = sut::build_delta(&one[0].updates[0]);
    let mut probe = UndoProbe::new(engine);
    probe.apply_and_roll_back(&delta); // the first write copies the shared table
    let mut ns = Vec::with_capacity(REPS);
    for i in 0..REPS {
        let s = tracer.begin("delta.apply_undo", NO_PARENT, i as u64);
        probe.apply_and_roll_back(&delta);
        ns.push(tracer.end(s) / ROWS as u64);
    }
    m.layer(
        "delta.apply_undo_ns_per_row",
        median_u64(&ns),
        Some((REPS * ROWS) as u64),
    );
}

/// `algebra.kernel_ns_per_row`: the stream's Emp rows pushed through the
/// compiled σ(Salary > 150) → π(EName, DName) chain.
pub fn kernel(m: &mut Metrics, tracer: &mut Tracer, stream: &[GenTxn]) {
    let rows: Vec<_> = rows(stream)
        .filter_map(|(_, e)| e)
        .take(SAMPLE)
        .map(|e| sut::build_row(&e))
        .collect();
    let s = tracer.begin("algebra.compile", NO_PARENT, 0);
    let mut probe = KernelProbe::compile();
    tracer.end(s);
    let mut kept = 0u64;
    let (ns, n) = per_item_ns(tracer, "algebra.kernel", &rows, 4 * BATCH, |r| {
        kept += std::hint::black_box(probe.push(r)) as u64;
    });
    std::hint::black_box(kept);
    m.layer("algebra.kernel_ns_per_row", ns, Some(n));
}

/// `database.txn_overhead_us`: median `apply_transaction([u])` minus median
/// `apply_delta(u)`, the same transactions on two copies of one database.
pub fn txn_overhead(
    m: &mut Metrics,
    tracer: &mut Tracer,
    engine: &Engine,
    stream: &[GenTxn],
    tally: &mut Tally,
) {
    let sample = &stream[..stream.len().min(4096)];
    let (mut raw, mut txn) = (engine.clone(), engine.clone());
    let (mut raw_ns, mut txn_ns) = (Vec::new(), Vec::new());
    for (i, t) in sample.iter().enumerate() {
        let d = sut::build_delta(&t.updates[0]);
        let b = sut::build_txn(t);
        let s = tracer.begin("probe.apply_delta", NO_PARENT, i as u64);
        let r1 = raw.apply(d);
        raw_ns.push(tracer.end(s));
        let s = tracer.begin("database.apply_transaction", NO_PARENT, i as u64);
        let r2 = txn.apply_txn(b);
        txn_ns.push(tracer.end(s));
        if r1.is_err() || r2.is_err() {
            tally.fail(format!("txn_overhead probe: transaction {i} was rejected"));
        }
    }
    m.layer(
        "database.txn_overhead_us",
        (median_u64(&txn_ns) - median_u64(&raw_ns)) / 1e3,
        Some(sample.len() as u64),
    );
}

/// The delta-size sweep on the `bulk_engine` database, against the
/// baseline the paper argues against: `engine.rows_per_s.k*`,
/// `engine.recompute_ms` (`verify_all_views` recomputes every view) and
/// `engine.crossover_rows`, the delta size at which maintaining costs as
/// much as recomputing.
pub fn delta_size_sweep(
    m: &mut Metrics,
    tracer: &mut Tracer,
    engine: &Engine,
    seed: u64,
    shape: Shape,
    tally: &mut Tally,
) {
    const SIZES: [(usize, usize, &str, &str); 5] = [
        (1, 400, "engine.sweep.k1", "engine.rows_per_s.k1"),
        (16, 100, "engine.sweep.k16", "engine.rows_per_s.k16"),
        (64, 40, "engine.sweep.k64", "engine.rows_per_s.k64"),
        (512, 8, "engine.sweep.k512", "engine.rows_per_s.k512"),
        (4096, 3, "engine.sweep.k4096", "engine.rows_per_s.k4096"),
    ];
    // (delta rows, nanoseconds per transaction)
    let mut curve: Vec<(f64, f64)> = Vec::new();
    for (k, reps, span, metric) in SIZES {
        let stream = Source::bulk(seed ^ k as u64, shape, k).take(reps);
        let mut db = engine.clone();
        let mut ns = 0u64;
        for (i, t) in stream.iter().enumerate() {
            let d = sut::build_delta(&t.updates[0]);
            let s = tracer.begin(span, NO_PARENT, i as u64);
            let r = db.apply(d);
            ns += tracer.end(s);
            if r.is_err() {
                tally.fail(format!("sweep k={k}: transaction {i} was rejected"));
            }
        }
        let rows = (k * reps) as f64;
        m.layer(metric, rows / (ns as f64 / 1e9), Some(reps as u64));
        curve.push((k as f64, ns as f64 / reps as f64));
    }
    let mut recompute = Vec::new();
    for i in 0..3 {
        let s = tracer.begin("engine.recompute", NO_PARENT, i);
        let r = engine.verify();
        recompute.push(tracer.end(s));
        if r != Ok(0) {
            tally.fail(format!("recompute of the loaded database: {r:?}"));
        }
    }
    let recompute_ns = median_u64(&recompute);
    m.layer("engine.recompute_ms", recompute_ns / 1e6, Some(3));
    m.layer(
        "engine.crossover_rows",
        crossover(&curve, recompute_ns),
        None,
    );
}

/// Where the piecewise-linear maintenance curve meets `target` (beyond the
/// last point: along its last segment).
fn crossover(curve: &[(f64, f64)], target: f64) -> f64 {
    let seg = curve
        .windows(2)
        .find(|w| w[1].1 >= target)
        .unwrap_or(&curve[curve.len() - 2..]);
    let ((x0, y0), (x1, y1)) = (seg[0], seg[1]);
    if target <= y0 {
        return x0 * target / y0;
    }
    x0 + (target - y0) * (x1 - x0) / (y1 - y0)
}

/// `wal.encode_ns_per_txn` (`codec::put_delta`) and `wal.append_ns_per_txn`
/// (`WalWriter::append` of begin, delta(s), commit, then `flush`, on a
/// scratch log).
pub fn wal(m: &mut Metrics, tracer: &mut Tracer, stream: &[GenTxn], log: &Path) {
    let sample = &stream[..stream.len().min(SAMPLE)];
    let txns: Vec<_> = sample.iter().map(sut::build_txn).collect();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    let (ns, n) = per_item_ns(tracer, "wal.encode", &txns, BATCH, |t| {
        bytes += sut::encode_txn(&mut buf, t);
    });
    std::hint::black_box(bytes);
    m.layer("wal.encode_ns_per_txn", ns, Some(n));

    let records: Vec<_> = txns
        .iter()
        .enumerate()
        .map(|(i, t)| sut::wal_records(i as u64 + 1, t))
        .collect();
    let mut probe = WalProbe::open(log);
    let (ns, n) = per_item_ns(tracer, "wal.append", &records, BATCH, |r| probe.append(r));
    m.layer("wal.append_ns_per_txn", ns, Some(n));
}

#[cfg(test)]
mod tests {
    use super::crossover;

    #[test]
    fn crossover_interpolates_and_extrapolates() {
        let curve = [(1.0, 10.0), (16.0, 100.0), (64.0, 400.0)];
        assert_eq!(crossover(&curve, 100.0), 16.0);
        assert_eq!(crossover(&curve, 250.0), 40.0);
        assert_eq!(crossover(&curve, 700.0), 112.0);
        assert_eq!(crossover(&curve, 5.0), 0.5);
    }
}
