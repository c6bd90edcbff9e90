//! E-IVM driver: sustained-throughput benchmark for the delta-propagation
//! data plane. Streams a mixed insert/delete/modify workload through two
//! identical databases — the `PerKey` reference and the production `Fused`
//! mode — asserting after every transaction that both produce
//! bit-identical `UpdateReport` counters, and at the end that every
//! materialized table (roots and auxiliaries) holds identical contents,
//! verified against full recomputation.
//!
//! Batching and kernel fusion are wall-clock optimisations only: they
//! must never change the deltas or the charged I/O (DESIGN.md §10, §15).
//! This binary is the executable form of that invariant, plus the
//! throughput numbers. Each mode also reports its plan/gate/commit phase
//! split (`Database::phase_totals`), cross-checked against the measured
//! wall.
//!
//! ```text
//! cargo run --release -p spacetime-bench --bin bench_ivm            # full
//! cargo run --release -p spacetime-bench --bin bench_ivm -- --smoke # CI
//! ```
//!
//! Writes `BENCH_ivm.json` in the current directory.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spacetime_bench::scenarios::build_wide_pipeline_db;
use spacetime_bench::workload::{
    client_workload, load_paper_data, mixed_workload, paper_schema_db,
};
use spacetime_cost::TransactionType;
use spacetime_ivm::{
    verify_all_views, Database, PhaseTotals, PipelinePool, PropagationMode, SchedStats,
    ShardedDatabase, Txn, TxnScheduler, UpdateReport, ViewSelection,
};
use spacetime_obs::quantile_sorted;
use spacetime_storage::ShardSpec;

const SEED: u64 = 9406; // SIGMOD '96
/// Client streams in the multi-client serving benchmark.
const SERVE_CLIENTS: usize = 8;
/// Timed passes per serve shard count, interleaved (every count once per
/// rep) so host drift lands on all points alike; a point reports the
/// median pass.
const SERVE_REPS: usize = 5;

/// Heap-allocation counting, compiled in with `--features alloc-stats`:
/// a `#[global_allocator]` shim over `System` that counts every
/// `alloc`/`realloc`/`alloc_zeroed`. The JSON reports allocations *per
/// transaction* per mode — the data-plane representation work
/// (inline values, shard-wise copy-on-write, borrowed-key probes) shows
/// up here directly. Off by default so the timed numbers stay untaxed.
#[cfg(feature = "alloc-stats")]
mod alloc_stats {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: defers every operation to `System`; the counter is a pure
    // side effect.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(l) }
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            unsafe { System.dealloc(p, l) }
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(p, l, n) }
        }
        unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(l) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    pub fn compiled() -> bool {
        true
    }

    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[cfg(not(feature = "alloc-stats"))]
mod alloc_stats {
    pub fn compiled() -> bool {
        false
    }

    pub fn count() -> u64 {
        0
    }
}

struct Scenario {
    name: &'static str,
    departments: usize,
    emps_per_dept: usize,
    transactions: usize,
    /// Use the wide ten-view setup.
    wide: bool,
}

struct ModeRun {
    wall: Duration,
    io_total: u64,
    paper_cost: u64,
    queries_posed: u64,
    /// Per-transaction wall clock, for exact latency percentiles.
    latencies_ns: Vec<u64>,
    /// Heap allocations attributed to this mode's `apply_delta` calls
    /// (zero unless built with `--features alloc-stats`).
    allocs: u64,
    /// Plan/gate/commit attribution of the measured wall
    /// (`Database::phase_totals`).
    phases: PhaseTotals,
}

impl ModeRun {
    fn txns_per_sec(&self, n: usize) -> f64 {
        n as f64 / self.wall.as_secs_f64()
    }

    /// Exact nearest-rank (p50, p95, p99, max) over the recorded
    /// per-transaction latencies.
    fn latency_quantiles_ns(&self) -> (u64, u64, u64, u64) {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        (
            quantile_sorted(&v, 0.50),
            quantile_sorted(&v, 0.95),
            quantile_sorted(&v, 0.99),
            v.last().copied().unwrap_or(0),
        )
    }
}

struct Measured {
    scenario: Scenario,
    per_key: ModeRun,
    fused: ModeRun,
    reports_identical: bool,
    views_identical: bool,
    verified: bool,
    view_count: usize,
    materialized_nodes: usize,
}

/// One shard count of the multi-client serving sweep.
struct ServePoint {
    shards: usize,
    /// Median wall of the [`SERVE_REPS`] timed passes.
    wall: Duration,
    /// Latencies and counters of the first pass (the one the oracles
    /// check); the counters are identical in every pass.
    latencies_ns: Vec<u64>,
    stats: SchedStats,
    replay_identical: bool,
}

impl ServePoint {
    fn txns_per_sec(&self, n: usize) -> f64 {
        n as f64 / self.wall.as_secs_f64()
    }

    fn latency_quantiles_ns(&self) -> (u64, u64, u64, u64) {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        (
            quantile_sorted(&v, 0.50),
            quantile_sorted(&v, 0.95),
            quantile_sorted(&v, 0.99),
            v.last().copied().unwrap_or(0),
        )
    }
}

/// The multi-client serving benchmark's results.
struct ServeMeasured {
    departments: usize,
    emps_per_dept: usize,
    transactions: usize,
    points: Vec<ServePoint>,
    union_matches_unsharded: bool,
    /// Scheduler counters accumulated across the concurrent runs only
    /// (serial replays record no metrics) — balanced against the metrics
    /// plane.
    sched_totals: SchedStats,
    /// Posed-query totals from every `apply_delta` this benchmark drove
    /// (control + concurrent + replay), for the global metrics book.
    queries_posed: u64,
}

/// The view definitions under maintenance: a join + aggregate + HAVING
/// (the paper's ProblemDept), a plain aggregate, an SPJ join, and a
/// DISTINCT projection — one of each propagation rule.
const VIEWS: [&str; 4] = [
    "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
     SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
     GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
    "CREATE MATERIALIZED VIEW DeptProfile AS \
     SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
     FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW WellPaid AS \
     SELECT EName, Emp.DName, MName FROM Emp, Dept \
     WHERE Emp.DName = Dept.DName AND Salary > 150",
    "CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp",
];

fn build_db(s: &Scenario, mode: PropagationMode) -> Database {
    if s.wide {
        let mut db = build_wide_pipeline_db(s.departments, s.emps_per_dept);
        db.set_propagation_mode(mode);
        return db;
    }
    let mut db = paper_schema_db();
    db.set_view_selection(ViewSelection::Exhaustive);
    db.set_propagation_mode(mode);
    load_paper_data(&mut db, s.departments, s.emps_per_dept);
    db.declare_workload(vec![
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ]);
    for view in VIEWS {
        db.execute_sql(view).expect("view DDL");
    }
    db
}

/// Every table name materialized by any engine (roots and auxiliaries).
fn materialized_names(db: &Database) -> Vec<String> {
    let mut names: Vec<String> = db
        .engines()
        .iter()
        .flat_map(|e| e.materialized.values().cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

fn run_scenario(s: Scenario) -> Measured {
    eprintln!(
        "scenario {}: {} depts x {} emps, {} transactions{}",
        s.name,
        s.departments,
        s.emps_per_dept,
        s.transactions,
        if s.wide { " (wide)" } else { "" }
    );
    let workload = mixed_workload(s.departments, s.emps_per_dept, s.transactions, SEED);
    let mut db_pk = build_db(&s, PropagationMode::PerKey);
    let mut db_fu = build_db(&s, PropagationMode::Fused);
    for db in [&mut db_pk, &mut db_fu] {
        db.set_phase_stats(true);
    }

    let mut reports_identical = true;
    let zero = || ModeRun {
        wall: Duration::ZERO,
        io_total: 0,
        paper_cost: 0,
        queries_posed: 0,
        latencies_ns: Vec::new(),
        allocs: 0,
        phases: PhaseTotals::default(),
    };
    let (mut pk, mut fu) = (zero(), zero());
    // One timed `apply_delta` plus its per-run bookkeeping.
    let measure = |db: &mut Database, run: &mut ModeRun, table: &str, delta| {
        let a0 = alloc_stats::count();
        let t0 = Instant::now();
        let r = db.apply_delta(table, delta).expect("apply_delta");
        let dt = t0.elapsed();
        run.wall += dt;
        run.latencies_ns.push(dt.as_nanos() as u64);
        run.allocs += alloc_stats::count() - a0;
        run.io_total += r.total();
        run.paper_cost += r.paper_cost();
        run.queries_posed += r.queries_posed;
        r
    };
    for (table, delta) in &workload {
        let r_pk = measure(&mut db_pk, &mut pk, table, delta.clone());
        let r_fu = measure(&mut db_fu, &mut fu, table, delta.clone());
        // The invariant: neither batching nor kernel fusion may change
        // the charged I/O or the posed-query count.
        assert_eq!(
            r_pk, r_fu,
            "per-update I/O counters diverged on {table} delta {delta:?}"
        );
        reports_identical &= r_pk == r_fu;
    }
    for (db, run) in [(&db_pk, &mut pk), (&db_fu, &mut fu)] {
        run.phases = db.phase_totals();
        // The phase split must attribute (nearly all of) the measured
        // wall: everything outside the three phases is loop overhead.
        let sum = run.phases.sum_ns() as f64;
        let wall = run.wall.as_nanos() as f64;
        assert!(
            sum <= wall * 1.01 && sum >= wall * 0.50,
            "phase attribution ({sum}ns) inconsistent with measured wall ({wall}ns)"
        );
    }

    // Final state: every materialized table bit-identical across modes.
    let names = materialized_names(&db_pk);
    assert_eq!(names, materialized_names(&db_fu));
    let mut views_identical = true;
    for name in &names {
        let a = &db_pk.catalog.table(name).expect("per-key table").relation;
        let b = &db_fu.catalog.table(name).expect("fused table").relation;
        let same = a.data() == b.data();
        assert!(same, "materialized table {name} diverged between modes");
        views_identical &= same;
    }
    let verified = verify_all_views(&db_pk).expect("recompute").is_empty()
        && verify_all_views(&db_fu).expect("recompute").is_empty();
    assert!(verified, "a view diverged from recomputation");

    let view_count: usize = db_fu.engines().iter().map(|e| e.roots.len()).sum();
    let measured = Measured {
        per_key: pk,
        fused: fu,
        reports_identical,
        views_identical,
        verified,
        view_count,
        materialized_nodes: names.len(),
        scenario: s,
    };
    eprintln!(
        "  per_key {:>8.3}s ({:>8.1} txn/s)   fused {:>8.3}s ({:>8.1} txn/s)   io {} == {}",
        measured.per_key.wall.as_secs_f64(),
        measured.per_key.txns_per_sec(measured.scenario.transactions),
        measured.fused.wall.as_secs_f64(),
        measured.fused.txns_per_sec(measured.scenario.transactions),
        measured.per_key.io_total,
        measured.fused.io_total,
    );
    measured
}

/// The multi-client serving benchmark: `SERVE_CLIENTS` closed-loop client
/// streams over disjoint department domains, round-robin interleaved into
/// one admission queue, scheduled by [`TxnScheduler`] over a
/// [`ShardedDatabase`] at each shard count in `shard_counts`, timed
/// [`SERVE_REPS`] times each on a fresh partition. Per point: sustained
/// txn/s of the median pass and its ratio to the 1-shard point
/// (`shard_speedup`), exact latency percentiles, plus the determinism
/// checks on the first pass — it is replayed serially on another fresh
/// partition and must be bit-identical in every report and every shard
/// table, the single-shard run must match an unsharded control exactly,
/// and every shard union must equal the control's tables.
fn run_serve(
    departments: usize,
    emps_per_dept: usize,
    txns_per_client: usize,
    shard_counts: &[usize],
) -> ServeMeasured {
    eprintln!(
        "serve: {departments} depts x {emps_per_dept} emps, {SERVE_CLIENTS} clients x {txns_per_client} txns, shards {shard_counts:?}"
    );
    // The template every partition clones: the paper schema under the
    // fused data plane (the fastest single-stream mode — the serving
    // layer's concurrency stacks on top of it).
    let mut template = paper_schema_db();
    template.set_view_selection(ViewSelection::Exhaustive);
    template.set_propagation_mode(PropagationMode::Fused);
    load_paper_data(&mut template, departments, emps_per_dept);
    template.declare_workload(vec![
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ]);
    for view in VIEWS {
        template.execute_sql(view).expect("view DDL");
    }

    let streams: Vec<_> = (0..SERVE_CLIENTS)
        .map(|c| {
            client_workload(
                departments,
                emps_per_dept,
                txns_per_client,
                SEED,
                c,
                SERVE_CLIENTS,
            )
        })
        .collect();
    let mut txns: Vec<Txn> = Vec::with_capacity(SERVE_CLIENTS * txns_per_client);
    for k in 0..txns_per_client {
        for stream in &streams {
            txns.push(vec![stream[k].clone()]);
        }
    }
    let transactions = txns.len();

    // Unsharded control: the whole queue, in admission order, on one
    // full database.
    let mut control = template.clone();
    let mut queries_posed = 0u64;
    let mut control_reports: Vec<UpdateReport> = Vec::with_capacity(transactions);
    for txn in &txns {
        let r = control.apply_transaction(txn.clone()).expect("control txn");
        queries_posed += r.queries_posed;
        control_reports.push(r);
    }

    // Emp is sharded by DName (column 1), Dept by DName (column 0): every
    // view joins or groups on DName, so partitioned serving is exact.
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    assert_eq!(shard_counts[0], 1, "speedups are relative to the 1-shard point");
    let mut points: Vec<ServePoint> = Vec::new();
    let mut walls: Vec<Vec<Duration>> = vec![Vec::new(); shard_counts.len()];
    let mut sched_totals = SchedStats::default();
    let mut union_matches = true;
    for (rep, (k, &shards)) in (0..SERVE_REPS)
        .flat_map(|rep| shard_counts.iter().enumerate().map(move |point| (rep, point)))
    {
        let sharded =
            ShardedDatabase::partition(&template, spec.clone(), shards).expect("partition");
        let sched = TxnScheduler::new(&sharded, Arc::new(PipelinePool::new(shards)));
        let t0 = Instant::now();
        let out = sched.run(&txns).expect("scheduler run");
        walls[k].push(t0.elapsed());
        let reports: Vec<&UpdateReport> = out
            .results
            .iter()
            .map(|r| r.as_ref().expect("serve txn"))
            .collect();
        queries_posed += reports.iter().map(|r| r.queries_posed).sum::<u64>();
        sched_totals.absorb(&out.stats);
        if rep > 0 {
            // Later passes only add a timing sample; the first pass of
            // each shard count carried the oracles below.
            assert_eq!(out.stats, points[k].stats, "scheduler counters moved between passes");
            continue;
        }

        // Determinism: serial replay on a second fresh partition is
        // bit-identical in every report and every shard table.
        let replayed =
            ShardedDatabase::partition(&template, spec.clone(), shards).expect("partition");
        let replay = TxnScheduler::new(&replayed, Arc::new(PipelinePool::new(1)))
            .run_serial(&txns)
            .expect("serial replay");
        let mut replay_identical = true;
        for (a, b) in out.results.iter().zip(replay.results.iter()) {
            let (a, b) = (a.as_ref().expect("serve txn"), b.as_ref().expect("replay txn"));
            assert_eq!(a, b, "serial replay diverged from the concurrent reports");
            replay_identical &= a == b;
        }
        queries_posed += replay
            .results
            .iter()
            .map(|r| r.as_ref().expect("replay txn").queries_posed)
            .sum::<u64>();
        for s in 0..shards {
            let a = sharded.shard(s);
            let b = replayed.shard(s);
            for (name, table) in a.catalog.iter() {
                let other = b.catalog.table(name).expect("replay table");
                let same = table.relation.data() == other.relation.data();
                assert!(same, "shard {s} table {name} diverged under serial replay");
                replay_identical &= same;
            }
        }
        // One shard is the degenerate case: the scheduler must reproduce
        // the unsharded control report-for-report.
        if shards == 1 {
            for (r, c) in reports.iter().zip(control_reports.iter()) {
                assert_eq!(*r, c, "single-shard serve diverged from the unsharded control");
            }
        }
        // The shard-locality contract: every base and materialized
        // table's shard union equals the unsharded control; every shard
        // verifies against recomputation.
        let mut names: Vec<String> = vec!["Emp".into(), "Dept".into()];
        names.extend(materialized_names(&template));
        for name in &names {
            let union = sharded.union_table(name).expect("union");
            let ctrl = control.catalog.table(name).expect("control table");
            let same = &union == ctrl.relation.data();
            assert!(same, "shard union of {name} diverged from the unsharded control");
            union_matches &= same;
        }
        assert!(
            sharded.verify_all_shards().expect("verify").is_empty(),
            "a shard diverged from recomputation"
        );
        points.push(ServePoint {
            shards,
            wall: Duration::ZERO,
            latencies_ns: out.latencies_ns,
            stats: out.stats,
            replay_identical,
        });
    }
    for (p, w) in points.iter_mut().zip(walls.iter_mut()) {
        w.sort_unstable();
        p.wall = w[w.len() / 2];
    }
    for p in &points {
        eprintln!(
            "  serve {} shard(s): {:>8.3}s ({:>8.1} txn/s, {:.2}x of 1 shard)   dispatches {}   drain tasks {}   cross-shard {}",
            p.shards,
            p.wall.as_secs_f64(),
            p.txns_per_sec(transactions),
            points[0].wall.as_secs_f64() / p.wall.as_secs_f64(),
            p.stats.waves,
            p.stats.max_wave_width,
            p.stats.cross_shard_txns,
        );
    }
    ServeMeasured {
        departments,
        emps_per_dept,
        transactions,
        points,
        union_matches_unsharded: union_matches,
        sched_totals,
        queries_posed,
    }
}

/// E-WAL: the durability tax and the recovery-time curve.
///
/// Runs the paper workload twice over identical databases — once purely
/// in memory, once through `DurableDatabase` (WAL on, default
/// `SyncPolicy::Flush`) — and reports the throughput ratio, the log
/// amplification (WAL bytes on disk / raw encoded delta payload bytes),
/// and recovery time as a function of the checkpoint interval: for each
/// `every_txns` policy the whole workload is re-run durably, the handle
/// dropped (crash-stop), and `Database::open` timed cold.
#[cfg(feature = "durability")]
struct WalMeasured {
    departments: usize,
    emps_per_dept: usize,
    transactions: usize,
    wal_off_tps: f64,
    wal_on_tps: f64,
    wal_bytes: u64,
    delta_bytes: u64,
    recovered_identical: bool,
    /// (checkpoint every_txns — 0 = never, replayed_txns, recovery_ms).
    recovery: Vec<(u64, u64, f64)>,
}

#[cfg(feature = "durability")]
fn run_wal_bench(departments: usize, emps_per_dept: usize, transactions: usize) -> WalMeasured {
    use spacetime_ivm::{DurabilityOptions, DurableDatabase};
    use spacetime_wal::CheckpointPolicy;

    eprintln!("wal: {departments} depts x {emps_per_dept} emps, {transactions} transactions");
    let workload = mixed_workload(departments, emps_per_dept, transactions, SEED);
    let build = || {
        let mut db = paper_schema_db();
        db.set_propagation_mode(PropagationMode::Fused);
        load_paper_data(&mut db, departments, emps_per_dept);
        for view in VIEWS {
            db.execute_sql(view).expect("view DDL");
        }
        db
    };
    // The honest denominator for log amplification: what the deltas cost
    // to encode at all, before frame headers, begin/commit records, and
    // sync policy pile on.
    let delta_bytes: u64 = workload
        .iter()
        .map(|(_, d)| {
            let mut buf = Vec::new();
            spacetime_wal::codec::put_delta(&mut buf, d);
            buf.len() as u64
        })
        .sum();

    // Baseline: the same workload purely in memory, through the same
    // transactional apply path the durable wrapper uses (all-or-nothing
    // `apply_transaction`, not raw `apply_delta`) — the ratio isolates
    // the durability tax, not the transaction-rollback machinery.
    let mut mem = build();
    let t0 = Instant::now();
    for (table, delta) in &workload {
        mem.apply_transaction(vec![(table.clone(), delta.clone())])
            .expect("apply_transaction");
    }
    let wal_off = t0.elapsed();

    // One durable pass per checkpoint interval; `0` means never, so that
    // recovery replays the entire log — the curve's worst end.
    let n = transactions as u64;
    let intervals: [Option<u64>; 3] = [None, Some(n.div_ceil(4).max(1)), Some(n.div_ceil(16).max(1))];
    let mut wal_on = Duration::ZERO;
    let mut wal_bytes = 0u64;
    let mut recovered_identical = true;
    let mut recovery = Vec::new();
    for (k, &every) in intervals.iter().enumerate() {
        let dir = spacetime_wal::test_dir(&format!("bench_wal_{}", every.unwrap_or(0)));
        let opts = DurabilityOptions {
            checkpoint: CheckpointPolicy {
                every_txns: every,
                ..CheckpointPolicy::default()
            },
            ..DurabilityOptions::default()
        };
        let mut dur = DurableDatabase::create(build(), &dir, opts).expect("create durable db");
        let t0 = Instant::now();
        for (table, delta) in &workload {
            dur.apply_delta(table, delta.clone()).expect("apply_delta");
        }
        let wall = t0.elapsed();
        // The uncheckpointed pass is the apples-to-apples throughput
        // number (checkpoints trade serve-path time for recovery time).
        if every.is_none() {
            wal_on = wall;
            wal_bytes = std::fs::metadata(dir.join("wal.log"))
                .map(|m| m.len())
                .unwrap_or(0);
        }
        drop(dur); // crash-stop: no final checkpoint, recovery does the work

        let t0 = Instant::now();
        let (rec, stats) = Database::open(&dir).expect("recovery");
        let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
        recovery.push((every.unwrap_or(0), stats.replayed_txns, recovery_ms));

        // Recovery must be bit-identical to the in-memory run — checked
        // on every interval, reported once.
        let rec = rec.into_db();
        for (name, t) in mem.catalog.iter() {
            if rec.catalog.table(name).ok().map(|rt| rt.relation.data()) != Some(t.relation.data()) {
                eprintln!(
                    "wal: recovered table {name} diverged (every_txns={})",
                    every.unwrap_or(0)
                );
                recovered_identical = false;
            }
        }
        if k == 0 && !verify_all_views(&rec).expect("oracle").is_empty() {
            eprintln!("wal: recompute oracle found stale views after recovery");
            recovered_identical = false;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    WalMeasured {
        departments,
        emps_per_dept,
        transactions,
        wal_off_tps: transactions as f64 / wal_off.as_secs_f64(),
        wal_on_tps: transactions as f64 / wal_on.as_secs_f64(),
        wal_bytes,
        delta_bytes,
        recovered_identical,
        recovery,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scenarios = if smoke {
        vec![
            Scenario {
                name: "paper",
                departments: 20,
                emps_per_dept: 5,
                transactions: 40,
                wide: false,
            },
            Scenario {
                name: "scaling",
                departments: 100,
                emps_per_dept: 10,
                transactions: 80,
                wide: false,
            },
            Scenario {
                name: "wide",
                departments: 40,
                emps_per_dept: 6,
                transactions: 50,
                wide: true,
            },
        ]
    } else {
        vec![
            Scenario {
                name: "paper",
                departments: 1000,
                emps_per_dept: 10,
                transactions: 600,
                wide: false,
            },
            Scenario {
                name: "scaling",
                departments: 4000,
                emps_per_dept: 10,
                transactions: 1000,
                wide: false,
            },
            Scenario {
                name: "wide",
                departments: 1000,
                emps_per_dept: 10,
                transactions: 400,
                wide: true,
            },
        ]
    };

    let measured: Vec<Measured> = scenarios.into_iter().map(run_scenario).collect();

    // The multi-client serving benchmark (8 closed-loop clients over the
    // sharded scheduler, swept across shard counts).
    let serve = if smoke {
        run_serve(24, 5, 30, &[1, 2, 4])
    } else {
        run_serve(256, 8, 150, &[1, 2, 4, 8])
    };

    // The metrics snapshot is taken *before* the WAL bench: the
    // consistency books balance the posed-query counter exactly against
    // the measured loops above, and the durable passes (plus the replay
    // queries recovery poses inside `Database::open`) are not in them.
    let expected_queries_posed: u64 = measured
        .iter()
        .map(|m| m.per_key.queries_posed + m.fused.queries_posed)
        .sum::<u64>()
        + serve.queries_posed;
    let snap = spacetime_obs::snapshot();
    #[cfg(feature = "metrics")]
    assert_metrics_consistent(&snap, expected_queries_posed, &serve.sched_totals);
    let _ = (expected_queries_posed, &serve.sched_totals);

    #[cfg(feature = "durability")]
    let wal = if smoke {
        run_wal_bench(20, 5, 150)
    } else {
        run_wal_bench(1000, 10, 600)
    };
    // The WAL-plane books run on a second snapshot, delta'd against the
    // pre-WAL one the report embeds.
    #[cfg(all(feature = "metrics", feature = "durability"))]
    assert_wal_metrics_consistent(&snap, &wal);

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"ivm_data_plane\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    // Benchmarks must run the unfaulted hot path: CI greps for `false`.
    let _ = writeln!(
        json,
        "  \"failpoints_compiled\": {},",
        spacetime_storage::fault::compiled()
    );
    // Allocation counts are only meaningful when the counting allocator
    // is compiled in; `allocs_per_txn` reads 0.0 otherwise.
    let _ = writeln!(
        json,
        "  \"alloc_stats_compiled\": {},",
        alloc_stats::compiled()
    );
    json.push_str("  \"scenarios\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let n = m.scenario.transactions;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", m.scenario.name);
        let _ = writeln!(json, "      \"departments\": {},", m.scenario.departments);
        let _ = writeln!(json, "      \"emps_per_dept\": {},", m.scenario.emps_per_dept);
        let _ = writeln!(json, "      \"transactions\": {n},");
        let _ = writeln!(json, "      \"views\": {},", m.view_count);
        let _ = writeln!(json, "      \"materialized_nodes\": {},", m.materialized_nodes);
        for (label, run) in [("per_key", &m.per_key), ("fused", &m.fused)] {
            let (p50, p95, p99, max) = run.latency_quantiles_ns();
            let _ = writeln!(json, "      \"{label}\": {{");
            let _ = writeln!(json, "        \"wall_s\": {:.6},", run.wall.as_secs_f64());
            let _ = writeln!(json, "        \"txns_per_sec\": {:.1},", run.txns_per_sec(n));
            let _ = writeln!(json, "        \"io_total\": {},", run.io_total);
            let _ = writeln!(json, "        \"paper_cost_io\": {},", run.paper_cost);
            let _ = writeln!(json, "        \"queries_posed\": {},", run.queries_posed);
            let _ = writeln!(
                json,
                "        \"latency_ns\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"max\": {max} }},"
            );
            let _ = writeln!(
                json,
                "        \"phases_ns\": {{ \"plan\": {}, \"gate\": {}, \"commit\": {}, \"wall_fraction\": {:.3} }}{}",
                run.phases.plan_ns,
                run.phases.gate_ns,
                run.phases.commit_ns,
                run.phases.sum_ns() as f64 / run.wall.as_nanos() as f64,
                if alloc_stats::compiled() { "," } else { "" }
            );
            // Allocation counts are meaningless without the counting
            // allocator; the key is omitted entirely so consumers can't
            // mistake 0.0 for a measurement.
            if alloc_stats::compiled() {
                let _ = writeln!(
                    json,
                    "        \"allocs_per_txn\": {:.1}",
                    run.allocs as f64 / n as f64
                );
            }
            json.push_str("      },\n");
        }
        let _ = writeln!(
            json,
            "      \"speedup\": {:.3},",
            m.per_key.wall.as_secs_f64() / m.fused.wall.as_secs_f64()
        );
        let _ = writeln!(json, "      \"io_identical\": {},", m.reports_identical);
        let _ = writeln!(json, "      \"views_identical\": {},", m.views_identical);
        let _ = writeln!(json, "      \"verified_against_recompute\": {}", m.verified);
        json.push_str(if i + 1 == measured.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ],\n");

    json.push_str("  \"serve\": {\n");
    let _ = writeln!(json, "    \"clients\": {SERVE_CLIENTS},");
    let _ = writeln!(json, "    \"departments\": {},", serve.departments);
    let _ = writeln!(json, "    \"emps_per_dept\": {},", serve.emps_per_dept);
    let _ = writeln!(json, "    \"transactions\": {},", serve.transactions);
    let _ = writeln!(json, "    \"reps\": {SERVE_REPS},");
    let _ = writeln!(
        json,
        "    \"union_matches_unsharded\": {},",
        serve.union_matches_unsharded
    );
    // The scheduler's own books for the concurrent runs — the exact
    // values the labeled metric families must balance against under
    // `--features metrics` (see `assert_metrics_consistent`).
    let _ = writeln!(
        json,
        "    \"sched_totals\": {{ \"txns\": {}, \"committed\": {}, \"aborted\": {}, \"shard_participations\": {}, \"waves\": {}, \"cross_shard_txns\": {} }},",
        serve.sched_totals.txns,
        serve.sched_totals.committed,
        serve.sched_totals.aborted,
        serve.sched_totals.shard_participations,
        serve.sched_totals.waves,
        serve.sched_totals.cross_shard_txns,
    );
    json.push_str("    \"points\": [\n");
    for (j, p) in serve.points.iter().enumerate() {
        let (p50, p95, p99, max) = p.latency_quantiles_ns();
        let _ = write!(
            json,
            "      {{ \"shards\": {}, \"wall_s\": {:.6}, \"txns_per_sec\": {:.1}, \"shard_speedup\": {:.3}, \"latency_ns\": {{ \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"max\": {max} }}, \"waves\": {}, \"max_wave_width\": {}, \"admitted_concurrent\": {}, \"conflict_serialized\": {}, \"cross_shard_txns\": {}, \"replay_identical\": {} }}",
            p.shards,
            p.wall.as_secs_f64(),
            p.txns_per_sec(serve.transactions),
            serve.points[0].wall.as_secs_f64() / p.wall.as_secs_f64(),
            p.stats.waves,
            p.stats.max_wave_width,
            p.stats.admitted_concurrent,
            p.stats.conflict_deferrals,
            p.stats.cross_shard_txns,
            p.replay_identical,
        );
        json.push_str(if j + 1 == serve.points.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");

    // The WAL section only exists when durability is compiled in (the
    // bench crate's default); `durability_compiled` tells consumers
    // which shape to expect. CI's no-WAL grep checks the root library
    // stack, not this binary.
    let _ = writeln!(
        json,
        "  \"durability_compiled\": {},",
        cfg!(feature = "durability")
    );
    #[cfg(feature = "durability")]
    {
        json.push_str("  \"wal\": {\n");
        let _ = writeln!(json, "    \"departments\": {},", wal.departments);
        let _ = writeln!(json, "    \"emps_per_dept\": {},", wal.emps_per_dept);
        let _ = writeln!(json, "    \"transactions\": {},", wal.transactions);
        let _ = writeln!(json, "    \"wal_off_txns_per_sec\": {:.1},", wal.wal_off_tps);
        let _ = writeln!(json, "    \"wal_on_txns_per_sec\": {:.1},", wal.wal_on_tps);
        let _ = writeln!(
            json,
            "    \"throughput_ratio\": {:.4},",
            wal.wal_on_tps / wal.wal_off_tps
        );
        let _ = writeln!(json, "    \"wal_bytes\": {},", wal.wal_bytes);
        let _ = writeln!(json, "    \"delta_bytes\": {},", wal.delta_bytes);
        let _ = writeln!(
            json,
            "    \"log_amplification\": {:.3},",
            wal.wal_bytes as f64 / wal.delta_bytes.max(1) as f64
        );
        let _ = writeln!(
            json,
            "    \"recovered_identical\": {},",
            wal.recovered_identical
        );
        json.push_str("    \"recovery\": [\n");
        for (j, (every, replayed, ms)) in wal.recovery.iter().enumerate() {
            let _ = write!(
                json,
                "      {{ \"checkpoint_every_txns\": {every}, \"replayed_txns\": {replayed}, \"recovery_ms\": {ms:.3} }}"
            );
            json.push_str(if j + 1 == wal.recovery.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        json.push_str("    ]\n");
        json.push_str("  },\n");
    }

    // Process-wide metrics: empty (and `metrics_recorded: false`) in the
    // default build, fully populated under `--features metrics`. CI greps
    // both states.
    let _ = writeln!(
        json,
        "  \"metrics_recorded\": {},",
        spacetime_obs::compiled()
    );
    json.push_str("  \"metrics\": ");
    json.push_str(&snap.render_json());
    json.push_str("\n}\n");

    std::fs::write("BENCH_ivm.json", &json).expect("write BENCH_ivm.json");
    println!("wrote BENCH_ivm.json");
    append_bench_history(&measured, &serve, smoke);
}

/// One compact line per run appended to `results/bench_history.jsonl` —
/// the longitudinal record `ci/throughput_ratchet.py` renders as a trend
/// table. Wall-clock metadata lives here rather than in `BENCH_ivm.json`
/// so the main report's shape stays run-independent.
fn append_bench_history(measured: &[Measured], serve: &ServeMeasured, smoke: bool) {
    use std::io::Write as _;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = String::new();
    let _ = write!(
        line,
        "{{ \"ts\": {ts}, \"smoke\": {smoke}, \"metrics\": {}, \"durability\": {}, \"scenarios\": {{",
        spacetime_obs::compiled(),
        cfg!(feature = "durability"),
    );
    for (i, m) in measured.iter().enumerate() {
        let n = m.scenario.transactions;
        let _ = write!(
            line,
            "{}\"{}\": {{ \"per_key_tps\": {:.1}, \"fused_tps\": {:.1} }}",
            if i == 0 { " " } else { ", " },
            m.scenario.name,
            m.per_key.txns_per_sec(n),
            m.fused.txns_per_sec(n),
        );
    }
    let _ = write!(line, " }}, \"serve_tps\": {{");
    for (j, p) in serve.points.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"s{}\": {:.1}",
            if j == 0 { " " } else { ", " },
            p.shards,
            p.txns_per_sec(serve.transactions)
        );
    }
    let _ = write!(line, " }} }}");
    let appended = std::fs::create_dir_all("results").and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("results/bench_history.jsonl")
            .and_then(|mut f| writeln!(f, "{line}"))
    });
    match appended {
        Ok(()) => println!("appended results/bench_history.jsonl"),
        Err(e) => eprintln!("bench history append failed: {e}"),
    }
}

/// Internal-consistency checks over the recorded metrics (CI's
/// metrics-smoke job): every cache's hit/miss split sums to its lookups,
/// and the global posed-query counter agrees exactly with the
/// `UpdateReport` totals accumulated by the measured loops (every
/// `apply_delta` in this binary flows through them; data loading writes
/// relations directly).
#[cfg(feature = "metrics")]
fn assert_metrics_consistent(
    snap: &spacetime_obs::MetricsSnapshot,
    expected_queries_posed: u64,
    sched: &SchedStats,
) {
    use spacetime_obs::names as metric;
    for (lookups, hits, misses) in [
        (
            metric::PLAN_CACHE_LOOKUPS,
            metric::PLAN_CACHE_HITS,
            metric::PLAN_CACHE_MISSES,
        ),
        (
            metric::QUERY_CACHE_LOOKUPS,
            metric::QUERY_CACHE_HITS,
            metric::QUERY_CACHE_MISSES,
        ),
    ] {
        assert_eq!(
            snap.counter(hits) + snap.counter(misses),
            snap.counter(lookups),
            "cache series {lookups} inconsistent"
        );
    }
    assert_eq!(
        snap.counter(metric::QUERIES_POSED),
        expected_queries_posed,
        "queries_posed counter disagrees with the UpdateReport totals"
    );
    assert!(snap.counter(metric::UPDATES_APPLIED) > 0);
    assert!(snap.counter(metric::POOL_TASKS) > 0, "pool tasks recorded");
    let latency = snap
        .histogram(metric::UPDATE_LATENCY_NS)
        .expect("update latency histogram recorded");
    assert!(latency.count > 0);
    // The scheduler's counters must balance exactly against the
    // `SchedStats` accumulated by the serving benchmark (the only
    // scheduler user in this process; serial replays record nothing).
    for (name, expected) in [
        (metric::SCHED_TXNS, sched.txns),
        (metric::SCHED_ADMITTED_CONCURRENT, sched.admitted_concurrent),
        (metric::SCHED_CONFLICT_SERIALIZED, sched.conflict_deferrals),
        (metric::SCHED_CROSS_SHARD_TXNS, sched.cross_shard_txns),
        (metric::SCHED_WAVES, sched.waves),
    ] {
        assert_eq!(
            snap.counter(name),
            expected,
            "scheduler counter {name} disagrees with the SchedStats books"
        );
    }
    // Every admitted transaction completed, so the queue-depth gauges
    // (global and the per-shard labeled family) must have drained back
    // to zero.
    assert_eq!(
        snap.gauge(metric::SCHED_QUEUE_DEPTH),
        0.0,
        "scheduler queue-depth gauge did not drain"
    );
    assert_eq!(
        snap.labeled_gauge_sum(metric::SCHED_SHARD_QUEUE_DEPTH),
        0.0,
        "per-shard queue-depth gauges did not drain"
    );
    for s in 0..16 {
        assert_eq!(
            snap.labeled_gauge(metric::SCHED_SHARD_QUEUE_DEPTH, metric::shard_label(s)),
            0.0,
            "shard {s} queue-depth gauge did not drain"
        );
    }
    // Serving-plane books: every labeled family must balance against the
    // `SchedStats` accumulated over the serving benchmark's concurrent
    // runs (serial replays record no metrics by design, and the stats
    // absorbed above cover exactly the concurrent runs).
    assert_eq!(
        snap.labeled_counter_sum(metric::SHARD_TXNS),
        sched.shard_participations,
        "per-shard txn counters disagree with the footprint books"
    );
    assert_eq!(
        snap.labeled_counter(metric::SCHED_TXN_OUTCOMES, metric::LABEL_OUTCOME_COMMITTED),
        sched.committed,
        "committed-outcome counter disagrees with the SchedStats books"
    );
    assert_eq!(
        snap.labeled_counter(metric::SCHED_TXN_OUTCOMES, metric::LABEL_OUTCOME_ABORTED),
        sched.aborted,
        "aborted-outcome counter disagrees with the SchedStats books"
    );
    assert_eq!(
        snap.counter(metric::SCHED_CROSS_SHARD_COMMITS)
            + snap.counter(metric::SCHED_CROSS_SHARD_ABORTS),
        sched.cross_shard_txns,
        "cross-shard commit/abort split does not sum to the cross-shard txns"
    );
    // Workload-drift accounting: the measured loops pushed far more than
    // a window's worth of events, so both the sliding txn mix and the
    // per-view maintenance-cost EWMAs must be populated.
    assert!(!snap.txn_mix.is_empty(), "txn-mix drift window is empty");
    assert!(!snap.view_cost_ewma.is_empty(), "view-cost EWMAs are empty");
    eprintln!("metrics consistency: ok");
}

/// The WAL-plane books (CI's metrics-smoke job, featured durable build):
/// the per-kind labeled record family must sum to the plain append
/// counter and agree frame-for-frame with what the three durable passes
/// wrote, and the recovery counters must balance against the
/// `RecoveryStats` each timed `Database::open` returned. Delta-based
/// against the pre-WAL snapshot so the books stay exact even if earlier
/// phases ever grow WAL traffic.
#[cfg(all(feature = "metrics", feature = "durability"))]
fn assert_wal_metrics_consistent(before: &spacetime_obs::MetricsSnapshot, wal: &WalMeasured) {
    use spacetime_obs::names as metric;
    let snap = spacetime_obs::snapshot();
    let n = wal.transactions as u64;
    assert_eq!(
        snap.labeled_counter_sum(metric::WAL_RECORDS),
        snap.counter(metric::WAL_APPENDS),
        "per-kind WAL record counters do not sum to the append counter"
    );
    // Three durable passes, each writing the workload once as
    // single-shard, single-delta transactions: one begin, one delta,
    // one commit frame per transaction (recovery appends none of these).
    for kind in [
        metric::LABEL_WAL_BEGIN,
        metric::LABEL_WAL_DELTA,
        metric::LABEL_WAL_COMMIT,
    ] {
        assert_eq!(
            snap.labeled_counter(metric::WAL_RECORDS, kind)
                - before.labeled_counter(metric::WAL_RECORDS, kind),
            3 * n,
            "WAL record count for {kind} disagrees with the workload books"
        );
    }
    let replayed: u64 = wal.recovery.iter().map(|&(_, r, _)| r).sum();
    assert_eq!(
        snap.counter(metric::WAL_RECOVERY_REPLAYED_TXNS)
            - before.counter(metric::WAL_RECOVERY_REPLAYED_TXNS),
        replayed,
        "replayed-txn counter disagrees with the RecoveryStats books"
    );
    // The replay-lag gauge holds whatever the most recent recovery saw.
    let last = wal.recovery.last().map(|&(_, r, _)| r).unwrap_or(0);
    assert_eq!(
        snap.gauge(metric::WAL_REPLAY_LAG_TXNS),
        last as f64,
        "replay-lag gauge disagrees with the last recovery's RecoveryStats"
    );
    // Checkpoint age: crash-stopped sessions never hand back their
    // uncheckpointed txns, so the process-wide gauge ends at the sum of
    // each pass's post-last-checkpoint tail — `n mod every_txns` per
    // interval (the whole workload for the never-checkpoint pass).
    let expected_age: u64 = [None, Some(n.div_ceil(4).max(1)), Some(n.div_ceil(16).max(1))]
        .iter()
        .map(|every| match every {
            Some(e) => n % e,
            None => n,
        })
        .sum();
    assert_eq!(
        snap.gauge(metric::WAL_CHECKPOINT_AGE_TXNS) - before.gauge(metric::WAL_CHECKPOINT_AGE_TXNS),
        expected_age as f64,
        "checkpoint-age gauge disagrees with the checkpoint-interval books"
    );
    eprintln!("wal metrics consistency: ok");
}
