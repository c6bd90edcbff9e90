//! The metrics plane keeps exact books (DESIGN.md §13, §18): what the
//! process-wide registry counted must equal what the run itself returned.
//!
//! * every cache's hits + misses = its lookups;
//! * `QUERIES_POSED` = Σ `UpdateReport::queries_posed` over every update
//!   applied in the process, in both propagation modes and through the
//!   scheduler at 1, 2 and 4 shards;
//! * the scheduler counters and the labeled serving families (per-shard
//!   transactions, outcomes, cross-shard decisions) = the `SchedStats`
//!   the runs returned, and the queue-depth gauges drained to zero;
//! * the WAL record families = what a durable two-shard run logged
//!   (one `begin` and one `delta` per participant, one `prepared` per
//!   cross-shard participant, one `commit` per transaction), and the
//!   recovery counter and gauges = the `RecoveryStats` of reopening it.
//!
//! The registry is process-global and the books are equalities, so this
//! binary holds exactly one `#[test]`.
#![cfg(all(feature = "metrics", feature = "durability"))]

use std::sync::Arc;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_ivm::{
    DurabilityOptions, DurableSharded, PropagationMode, SchedStats, ShardedDatabase, Txn,
    TxnScheduler, ViewSelection,
};
use spacetime_obs::{names as metric, MetricsSnapshot};
use spacetime_storage::ShardSpec;

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
    }
    let workload = mixed_workload(DEPARTMENTS, EMPS_PER_DEPT, 120, 9406);
    let txns: Vec<Txn> = workload.iter().cloned().map(|u| vec![u]).collect();
    let mut queries_posed = 0u64;

    // The data plane, both modes, straight through `apply_delta`.
    for mode in [PropagationMode::PerKey, PropagationMode::Fused] {
        let mut db = template.clone();
        db.set_propagation_mode(mode);
        for (table, delta) in &workload {
            let r = db.apply_delta(table, delta.clone()).expect("apply_delta");
            queries_posed += r.queries_posed;
        }
    }

    // The serving plane; the last run is write-ahead logged.
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    let mut sched = SchedStats::default();
    let mut serve = |sched_run: TxnScheduler<'_>| {
        let out = sched_run.run(&txns).expect("scheduler run");
        for r in &out.results {
            queries_posed += r.as_ref().expect("serve txn").queries_posed;
        }
        sched.absorb(&out.stats);
        out.stats
    };
    for shards in [1, 2, 4] {
        let db = ShardedDatabase::partition(&template, spec.clone(), shards).expect("partition");
        serve(TxnScheduler::new(&db, Arc::default()));
    }
    let dir = spacetime_wal::test_dir("metrics_books");
    let before_wal = spacetime_obs::snapshot();
    let dur = DurableSharded::create(&template, spec, 2, &dir, DurabilityOptions::default())
        .expect("create durable db");
    let logged = serve(TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals()));
    drop(dur); // crash-stop: no final checkpoint
    assert!(logged.cross_shard_txns > 0, "the workload must exercise two-phase commit");
    // The fields the one drain loop pins to constants: four runs, each
    // routing work, one transaction at a time.
    let pinned = (sched.admitted_concurrent, sched.conflict_deferrals, sched.waves);
    assert_eq!((pinned, sched.max_wave_width), ((0, 0, 4), 1), "SchedStats constants");

    let snap = spacetime_obs::snapshot();
    for (lookups, hits, misses) in [
        (metric::PLAN_CACHE_LOOKUPS, metric::PLAN_CACHE_HITS, metric::PLAN_CACHE_MISSES),
        (metric::QUERY_CACHE_LOOKUPS, metric::QUERY_CACHE_HITS, metric::QUERY_CACHE_MISSES),
    ] {
        assert!(snap.counter(lookups) > 0, "{lookups} never moved");
        assert_eq!(snap.counter(hits) + snap.counter(misses), snap.counter(lookups), "{lookups}");
    }
    assert_eq!(snap.counter(metric::QUERIES_POSED), queries_posed, "posed queries vs reports");
    assert!(snap.counter(metric::UPDATES_APPLIED) > 0);
    assert!(snap.histogram(metric::UPDATE_LATENCY_NS).is_some_and(|h| h.count > 0));
    for (name, want) in [
        (metric::SCHED_TXNS, sched.txns),
        (metric::SCHED_CROSS_SHARD_TXNS, sched.cross_shard_txns),
    ] {
        assert_eq!(snap.counter(name), want, "{name} vs SchedStats");
    }
    assert_eq!(snap.labeled_counter_sum(metric::SHARD_TXNS), sched.shard_participations);
    for (label, want) in [
        (metric::LABEL_OUTCOME_COMMITTED, sched.committed),
        (metric::LABEL_OUTCOME_ABORTED, sched.aborted),
    ] {
        assert_eq!(snap.labeled_counter(metric::SCHED_TXN_OUTCOMES, label), want, "{label}");
    }
    let decisions = [metric::SCHED_CROSS_SHARD_COMMITS, metric::SCHED_CROSS_SHARD_ABORTS];
    assert_eq!(
        decisions.iter().map(|name| snap.counter(name)).sum::<u64>(),
        sched.cross_shard_txns,
        "cross-shard decisions vs cross-shard txns"
    );
    // Every admitted transaction completed: the gauges drained.
    assert_eq!(snap.gauge(metric::SCHED_QUEUE_DEPTH), 0.0);
    assert_eq!(snap.labeled_gauge_sum(metric::SCHED_SHARD_QUEUE_DEPTH), 0.0);
    for s in 0..4 {
        let depth = snap.labeled_gauge(metric::SCHED_SHARD_QUEUE_DEPTH, metric::shard_label(s));
        assert_eq!(depth, 0.0, "shard {s} queue depth");
    }
    assert!(!snap.txn_mix.is_empty(), "txn-mix drift window is empty");
    assert!(!snap.view_cost_ewma.is_empty(), "view-cost EWMAs are empty");

    // The WAL plane, as deltas over the durable run. Its transactions are
    // single-delta, so a participant logs one begin and one delta.
    assert_eq!(snap.labeled_counter_sum(metric::WAL_RECORDS), snap.counter(metric::WAL_APPENDS));
    let single_shard = logged.txns - logged.cross_shard_txns;
    for (kind, want) in [
        (metric::LABEL_WAL_BEGIN, logged.shard_participations),
        (metric::LABEL_WAL_DELTA, logged.shard_participations),
        (metric::LABEL_WAL_PREPARED, logged.shard_participations - single_shard),
        (metric::LABEL_WAL_COMMIT, logged.txns),
        (metric::LABEL_WAL_CHECKPOINT, 2),
    ] {
        let at = |s: &MetricsSnapshot| s.labeled_counter(metric::WAL_RECORDS, kind);
        assert_eq!(at(&snap) - at(&before_wal), want, "WAL records of {kind}");
    }
    // A crash-stopped session never hands its uncheckpointed commits back.
    let age = |s: &MetricsSnapshot| s.gauge(metric::WAL_CHECKPOINT_AGE_TXNS);
    assert_eq!(
        age(&snap) - age(&before_wal),
        logged.shard_participations as f64,
        "checkpoint age vs logged participants"
    );

    let (_recovered, stats) = DurableSharded::open(&dir, 2).expect("recovery");
    let after = spacetime_obs::snapshot();
    assert_eq!(stats.replayed_txns, logged.shard_participations, "every participant replays");
    let replayed = |s: &MetricsSnapshot| s.counter(metric::WAL_RECOVERY_REPLAYED_TXNS);
    assert_eq!(
        replayed(&after) - replayed(&snap),
        stats.replayed_txns,
        "replayed-txn counter vs RecoveryStats"
    );
    assert_eq!(after.gauge(metric::WAL_REPLAY_LAG_TXNS), stats.replayed_txns as f64);
    let _ = std::fs::remove_dir_all(&dir);
}
