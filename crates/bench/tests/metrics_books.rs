//! The metrics plane keeps exact books (DESIGN.md §13, §18): what the
//! process-wide registry counted must equal what the run itself returned.
//!
//! * `QUERIES_POSED` = Σ `UpdateReport::queries_posed` over every update
//!   applied in the process, straight through `apply_delta` and through
//!   three `Database::run` batches;
//! * the transaction and outcome books (`spacetime_sched_txns_total`, the
//!   committed/aborted outcome family) = the `SchedStats` the runs
//!   returned, and the queue-depth gauge drained to zero;
//! * every view's DDL search was exact (`spacetime_opt_search_exact` = 1);
//! * the WAL record families = what a durable run logged (one `begin` per
//!   transaction, one `delta` per update, one `commit` per committed
//!   transaction, one checkpoint marker per checkpoint), the installed
//!   checkpoints = the checkpoints taken, and the recovery counter and
//!   gauges = the `RecoveryStats` of reopening it.
//!
//! The registry is process-global and the books are equalities, so this
//! binary holds exactly one `#[test]`.
#![cfg(feature = "metrics")]

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_ivm::{Database, DurabilityOptions, SchedStats, Txn, ViewSelection};
use spacetime_obs::{names as metric, MetricsSnapshot};

const DEPARTMENTS: usize = 24;
const EMPS_PER_DEPT: usize = 5;

#[test]
fn the_registry_balances_against_reports_sched_stats_and_recovery_stats() {
    let mut template = paper_schema_db();
    template.set_view_selection(ViewSelection::Exhaustive);
    load_paper_data(&mut template, DEPARTMENTS, EMPS_PER_DEPT);
    for view in [
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
    ] {
        template.execute_sql(view).expect("view DDL");
        // Each view's search covered its whole space.
        assert_eq!(
            spacetime_obs::snapshot().gauge(metric::OPT_SEARCH_EXACT),
            1.0
        );
    }
    let workload = mixed_workload(DEPARTMENTS, EMPS_PER_DEPT, 120, 9406);
    let txns: Vec<Txn> = workload.iter().cloned().map(|u| vec![u]).collect();
    let mut queries_posed = 0u64;

    // The data plane, straight through `apply_delta`.
    let mut db = template.clone();
    for (table, delta) in &workload {
        let r = db.apply_delta(table, delta.clone()).expect("apply_delta");
        queries_posed += r.queries_posed;
    }

    // The serving plane; the last run is write-ahead logged.
    let mut runs: Vec<SchedStats> = Vec::new();
    let mut serve = |db: &mut Database| {
        let out = db.run(&txns);
        for r in &out.results {
            queries_posed += r.as_ref().expect("serve txn").queries_posed;
        }
        runs.push(out.stats);
        out.stats
    };
    for _ in 0..2 {
        serve(&mut template.clone());
    }
    let dir = spacetime_wal::test_dir("metrics_books");
    let before_wal = spacetime_obs::snapshot();
    let mut dur = template.clone();
    dur.make_durable(&dir, DurabilityOptions::default())
        .expect("make durable");
    dur.checkpoint().expect("checkpoint");
    let logged = serve(&mut dur);
    drop(dur); // crash-stop: no final checkpoint; waits for the install
    let total = |f: fn(&SchedStats) -> u64| runs.iter().map(f).sum::<u64>();
    // The fields only the frozen benchmark reads are constants of the one
    // loop: three non-empty runs, one transaction at a time, one database.
    for s in &runs {
        let pinned = (
            s.waves,
            s.max_wave_width,
            s.admitted_concurrent,
            s.conflict_deferrals,
        );
        assert_eq!(pinned, (1, 1, 0, 0), "SchedStats constants");
        assert_eq!((s.cross_shard_txns, s.shard_participations), (0, s.txns));
        assert_eq!(
            s.committed + s.aborted,
            s.txns,
            "every transaction is decided"
        );
    }

    let snap = spacetime_obs::snapshot();
    assert_eq!(
        snap.counter(metric::QUERIES_POSED),
        queries_posed,
        "posed queries vs reports"
    );
    assert!(snap.counter(metric::UPDATES_APPLIED) > 0);
    assert!(snap
        .histogram(metric::UPDATE_LATENCY_NS)
        .is_some_and(|h| h.count > 0));
    assert_eq!(
        snap.counter(metric::SCHED_TXNS),
        total(|s| s.txns),
        "txns vs SchedStats"
    );
    for (label, want) in [
        (metric::LABEL_OUTCOME_COMMITTED, total(|s| s.committed)),
        (metric::LABEL_OUTCOME_ABORTED, total(|s| s.aborted)),
    ] {
        assert_eq!(
            snap.labeled_counter(metric::SCHED_TXN_OUTCOMES, label),
            want,
            "{label}"
        );
    }
    // Every transaction was decided: the gauge drained.
    assert_eq!(snap.gauge(metric::SCHED_QUEUE_DEPTH), 0.0);
    assert!(!snap.txn_mix.is_empty(), "txn-mix drift window is empty");
    assert!(!snap.view_cost_ewma.is_empty(), "view-cost EWMAs are empty");

    // The WAL plane, as deltas over the durable run: every transaction is
    // logged as submitted.
    assert_eq!(
        snap.labeled_counter_sum(metric::WAL_RECORDS),
        snap.counter(metric::WAL_APPENDS)
    );
    let updates = txns.iter().map(Vec::len).sum::<usize>() as u64;
    for (kind, want) in [
        (metric::LABEL_WAL_BEGIN, logged.txns),
        (metric::LABEL_WAL_DELTA, updates),
        (metric::LABEL_WAL_COMMIT, logged.committed),
        (metric::LABEL_WAL_CHECKPOINT, 2),
    ] {
        let at = |s: &MetricsSnapshot| s.labeled_counter(metric::WAL_RECORDS, kind);
        assert_eq!(at(&snap) - at(&before_wal), want, "WAL records of {kind}");
    }
    // `make_durable` installs the initial checkpoint, the writer thread
    // the one `checkpoint` took.
    let installs = |s: &MetricsSnapshot| s.counter(metric::WAL_CHECKPOINTS);
    assert_eq!(
        installs(&snap) - installs(&before_wal),
        2,
        "installed checkpoints"
    );
    // A crash-stopped session never hands its uncheckpointed commits back.
    let age = |s: &MetricsSnapshot| s.gauge(metric::WAL_CHECKPOINT_AGE_TXNS);
    assert_eq!(
        age(&snap) - age(&before_wal),
        logged.committed as f64,
        "checkpoint age vs committed transactions"
    );

    let (_recovered, stats) = Database::open(&dir, DurabilityOptions::default()).expect("recovery");
    let after = spacetime_obs::snapshot();
    assert_eq!(
        stats.replayed_txns, logged.committed,
        "every committed transaction replays"
    );
    let replayed = |s: &MetricsSnapshot| s.counter(metric::WAL_RECOVERY_REPLAYED_TXNS);
    assert_eq!(
        replayed(&after) - replayed(&snap),
        stats.replayed_txns,
        "replayed-txn counter vs RecoveryStats"
    );
    assert_eq!(
        after.gauge(metric::WAL_REPLAY_LAG_TXNS),
        stats.replayed_txns as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}
