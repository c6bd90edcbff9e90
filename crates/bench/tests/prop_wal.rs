//! Crash-recovery proven bit-identical (DESIGN.md §17, EXPERIMENTS.md
//! E-WAL).
//!
//! Every cell of the sweep follows one shape:
//!
//! 1. run a workload durably (WAL + initial checkpoint) and *crash* by
//!    mutilating the log files at a deterministic frame boundary
//!    (`spacetime_wal::crash`) — torn final record, corrupted CRC,
//!    truncated segment, or a dropped global commit record between the
//!    phases of a cross-shard commit;
//! 2. recover with `DurableSharded::open`;
//! 3. assert the recovered state is **bit-identical** (every table,
//!    every shard) to a fresh control database fed exactly the
//!    transactions the mutilated log still proves committed, and that
//!    the recompute oracle finds no mismatch;
//! 4. re-apply the lost tail and assert the retried state matches a
//!    control fed the whole workload — recovery leaves the database
//!    fully serviceable, not merely readable.
//!
//! The crafted workload tails make the loss deterministic: the last
//! transactions are single-insert, single-shard commits of known frame
//! counts, so each crash site loses an exactly-known suffix.

#![cfg(feature = "durability")]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::Delta;
use spacetime_ivm::{
    verify_all_views, Database, DurabilityOptions, DurableSharded, PropagationMode,
    ShardedDatabase, Txn, TxnScheduler,
};
use spacetime_storage::{ShardSpec, Tuple, Value};
use spacetime_wal::{crash, test_dir, CheckpointPolicy};

const MODES: &[PropagationMode] = &[PropagationMode::PerKey, PropagationMode::Fused];

const VIEWS: &[&str] = &[
    "CREATE MATERIALIZED VIEW DeptProfile AS \
     SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
     FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW WellPaid AS \
     SELECT EName, Emp.DName, MName FROM Emp, Dept \
     WHERE Emp.DName = Dept.DName AND Salary > 150",
    "CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp",
];

fn shard_spec() -> ShardSpec {
    ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0])
}

fn build_db(departments: usize, emps_per_dept: usize, mode: PropagationMode) -> Database {
    let mut db = paper_schema_db();
    db.set_propagation_mode(mode);
    load_paper_data(&mut db, departments, emps_per_dept);
    for sql in VIEWS {
        db.execute_sql(sql).unwrap();
    }
    db
}

/// A crafted single-insert transaction: one fresh Emp row. Exactly one
/// shard in its footprint, exactly three WAL frames (begin + delta +
/// commit) on that shard's log, and it always succeeds.
fn tail_txn(i: usize, dname: &str) -> Txn {
    let t = Tuple::new(vec![
        Value::str(format!("crash_e{i:03}")),
        Value::str(dname),
        Value::Int(200 + i as i64),
    ]);
    vec![("Emp".to_string(), Delta::insert(t, 1))]
}

/// A department name (existing or synthetic) routing to `want` under
/// the Emp shard key.
fn dname_routing_to(spec: &ShardSpec, n_shards: usize, want: usize) -> String {
    for i in 0..64 {
        let dname = if i < 16 {
            format!("dept{i:05}")
        } else {
            format!("xdept{i}")
        };
        let probe = Tuple::new(vec![Value::str("probe"), Value::str(&dname), Value::Int(0)]);
        if spec.route("Emp", &probe, n_shards).unwrap() == want {
            return dname;
        }
    }
    panic!("no department routes to shard {want} of {n_shards}");
}

/// The crash sites that mutilate a single shard's (or the unsharded)
/// log, with the exactly-known number of tail transactions each loses
/// when the log ends in crafted three-frame transactions.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// The final frame is cut mid-payload: the last commit record is
    /// torn, so the last transaction aborts.
    TornTail,
    /// The final frame's payload byte is flipped: the CRC rejects it
    /// and the scan stops, aborting the last transaction.
    CorruptLast,
    /// The last four frames are cut: the whole last transaction plus
    /// the commit of the one before it — two transactions abort.
    TruncateFrames,
}

const SITES: &[Site] = &[Site::TornTail, Site::CorruptLast, Site::TruncateFrames];

impl Site {
    fn lost_txns(self) -> usize {
        match self {
            Site::TornTail | Site::CorruptLast => 1,
            Site::TruncateFrames => 2,
        }
    }

    fn mutilate(self, log: &Path) {
        match self {
            Site::TornTail => crash::torn_tail(log).unwrap(),
            Site::CorruptLast => crash::corrupt_last_frame(log).unwrap(),
            Site::TruncateFrames => {
                assert_eq!(crash::truncate_frames(log, 4).unwrap(), 4);
            }
        }
    }
}

fn assert_db_eq(a: &Database, b: &Database, ctx: &str) {
    let names_a: Vec<&str> = a.catalog.iter().map(|(n, _)| n).collect();
    let names_b: Vec<&str> = b.catalog.iter().map(|(n, _)| n).collect();
    assert_eq!(names_a, names_b, "table sets diverged ({ctx})");
    for (name, t) in a.catalog.iter() {
        assert_eq!(
            t.relation.data(),
            b.catalog.table(name).unwrap().relation.data(),
            "table {name} diverged ({ctx})"
        );
    }
}

fn assert_sharded_eq(a: &ShardedDatabase, b: &ShardedDatabase, ctx: &str) {
    assert_eq!(a.n_shards(), b.n_shards(), "shard counts diverged ({ctx})");
    for s in 0..a.n_shards() {
        let da = a.shard(s);
        let db = b.shard(s);
        for (name, t) in da.catalog.iter() {
            assert_eq!(
                t.relation.data(),
                db.catalog.table(name).unwrap().relation.data(),
                "shard {s} table {name} diverged ({ctx})"
            );
        }
    }
}

fn cleanup(dir: &PathBuf) {
    std::fs::remove_dir_all(dir).ok();
}

// ---------------------------------------------------------------------
// Unsharded: one shard, compared against a plain `Database` control
// ---------------------------------------------------------------------

/// Base workload plus three crafted tail transactions.
fn unsharded_txns() -> Vec<Txn> {
    let mut txns: Vec<Txn> = mixed_workload(3, 4, 6, 17)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    for i in 0..3 {
        txns.push(tail_txn(i, "dept00000"));
    }
    txns
}

fn create_unsharded(template: &Database, dir: &Path, opts: DurabilityOptions) -> DurableSharded {
    DurableSharded::create(template, shard_spec(), 1, dir, opts).unwrap()
}

/// Run `txns` durably, one at a time in order; how many committed.
fn run_durable(dur: &DurableSharded, txns: &[Txn]) -> u64 {
    let out = TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
        .run(txns)
        .unwrap();
    out.results.iter().filter(|r| r.is_ok()).count() as u64
}

#[test]
fn wal_unsharded_clean_reopen_is_identical() {
    for &mode in MODES {
        let dir = test_dir("clean_reopen");
        let template = build_db(3, 4, mode);
        let txns = unsharded_txns();
        let dur = create_unsharded(&template, &dir, DurabilityOptions::default());
        let committed = run_durable(&dur, &txns);
        drop(dur);
        let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
        assert_eq!(stats.replayed_txns, committed, "replayed != committed ({mode:?})");
        assert_eq!(stats.skipped_txns, 0, "clean log has no aborts ({mode:?})");
        assert_eq!(stats.discarded_bytes, 0, "clean log has no torn bytes ({mode:?})");
        let rec = rec.db().shard(0);
        assert_eq!(rec.propagation_mode(), mode, "mode not restored");
        let mut control = template.clone();
        for t in &txns {
            let _ = control.apply_transaction(t.clone());
        }
        assert_db_eq(&rec, &control, &format!("clean reopen, {mode:?}"));
        assert!(verify_all_views(&rec).unwrap().is_empty());
        cleanup(&dir);
    }
}

#[test]
fn wal_unsharded_crash_matrix() {
    for &mode in MODES {
        for &site in SITES {
            let dir = test_dir("unsharded_crash");
            let ctx = format!("{mode:?}, {site:?}");
            let template = build_db(3, 4, mode);
            let txns = unsharded_txns();
            let total = txns.len();
            let keep = total - site.lost_txns();

            let dur = create_unsharded(&template, &dir, DurabilityOptions::default());
            run_durable(&dur, &txns);
            drop(dur);
            site.mutilate(&dir.join("shard-000").join("wal.log"));

            let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
            let mut control = template.clone();
            let mut committed = 0u64;
            for t in &txns[..keep] {
                if control.apply_transaction(t.clone()).is_ok() {
                    committed += 1;
                }
            }
            assert_eq!(
                stats.replayed_txns, committed,
                "replayed only the committed prefix ({ctx})"
            );
            assert_db_eq(&rec.db().shard(0), &control, &format!("recovery == control ({ctx})"));
            assert!(
                verify_all_views(&rec.db().shard(0)).unwrap().is_empty(),
                "oracle mismatch after recovery ({ctx})"
            );

            // Retry the lost tail: the recovered database serves on.
            run_durable(&rec, &txns[keep..]);
            let mut control_full = template.clone();
            for t in &txns {
                let _ = control_full.apply_transaction(t.clone());
            }
            assert_db_eq(&rec.db().shard(0), &control_full, &format!("retry == control ({ctx})"));
            cleanup(&dir);
        }
    }
}

#[test]
fn wal_checkpoint_replays_only_the_tail() {
    let dir = test_dir("ckpt_tail");
    let template = build_db(3, 4, PropagationMode::Fused);
    let before: Vec<Txn> = (0..4).map(|i| tail_txn(i, "dept00000")).collect();
    let after: Vec<Txn> = (4..7).map(|i| tail_txn(i, "dept00001")).collect();
    let mut dur = create_unsharded(&template, &dir, DurabilityOptions::default());
    assert_eq!(run_durable(&dur, &before), 4);
    dur.checkpoint().unwrap();
    assert_eq!(run_durable(&dur, &after), 3);
    drop(dur);
    let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
    assert_eq!(stats.checkpoint_last_txn, 4, "checkpoint covers the first four");
    assert_eq!(stats.replayed_txns, 3, "only the post-checkpoint tail replays");
    let mut control = template.clone();
    for t in before.into_iter().chain(after) {
        control.apply_transaction(t).unwrap();
    }
    let rec = rec.db().shard(0);
    assert_db_eq(&rec, &control, "checkpoint + tail");
    assert!(verify_all_views(&rec).unwrap().is_empty());
    cleanup(&dir);
}

/// The policy only says *when*; the caller checkpoints between runs
/// (`maybe_checkpoint` takes `&mut self`, a scheduler borrows the handle).
#[test]
fn wal_checkpoint_policy_triggers_automatically() {
    let dir = test_dir("ckpt_policy");
    let template = build_db(3, 4, PropagationMode::Fused);
    let opts = DurabilityOptions {
        checkpoint: CheckpointPolicy {
            every_txns: Some(2),
            every_bytes: None,
        },
        ..DurabilityOptions::default()
    };
    let mut dur = create_unsharded(&template, &dir, opts);
    for i in 0..5 {
        assert_eq!(run_durable(&dur, &[tail_txn(i, "dept00000")]), 1);
        dur.maybe_checkpoint().unwrap();
    }
    drop(dur);
    // Checkpoints fired after txns 2 and 4; only txn 5 is in the log.
    let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
    assert_eq!(stats.replayed_txns, 1, "policy checkpoints bound the replay");
    let mut control = template.clone();
    for i in 0..5 {
        control.apply_transaction(tail_txn(i, "dept00000")).unwrap();
    }
    assert_db_eq(&rec.db().shard(0), &control, "auto-checkpoint recovery");
    cleanup(&dir);
}

/// `META` is the commit point of `create`: a creation that failed part-way
/// leaves a directory the same `create` can still initialize.
#[test]
fn wal_interrupted_create_can_be_retried() {
    let dir = test_dir("interrupted_create");
    let template = build_db(4, 3, PropagationMode::Fused);
    let create =
        || DurableSharded::create(&template, shard_spec(), 2, &dir, DurabilityOptions::default());
    // Shard 1's directory cannot be made: a regular file sits in its place.
    std::fs::create_dir_all(&dir).unwrap();
    let obstacle = dir.join("shard-001");
    std::fs::write(&obstacle, b"in the way").unwrap();
    assert!(create().is_err(), "create must fail at shard 1");
    std::fs::remove_file(&obstacle).unwrap();

    let dur = create().unwrap_or_else(|e| panic!("retry over the half-made directory: {e}"));
    let txns = sharded_txns(&shard_spec(), 2);
    TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
        .run(&txns)
        .unwrap();
    drop(dur);
    let (rec, stats) = DurableSharded::open_with(&dir, 2, DurabilityOptions::default()).unwrap();
    assert_eq!(stats.replayed_txns, txns.len() as u64);
    let control = ShardedDatabase::partition(&template, shard_spec(), 2).unwrap();
    TxnScheduler::new(&control, Arc::default())
        .run(&txns)
        .unwrap();
    assert_sharded_eq(rec.db(), &control, "recovery after a retried create");
    assert!(create().is_err(), "an initialized directory still refuses create");
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// Sharded
// ---------------------------------------------------------------------

/// Base workload plus three crafted tail transactions that all route to
/// shard 0 — the mutilated log — so the lost transactions are exactly
/// the globally-last ones.
fn sharded_txns(spec: &ShardSpec, n_shards: usize) -> Vec<Txn> {
    let mut txns: Vec<Txn> = mixed_workload(4, 3, 6, 23)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    let dname = dname_routing_to(spec, n_shards, 0);
    for i in 0..3 {
        txns.push(tail_txn(i, &dname));
    }
    txns
}

#[test]
fn wal_sharded_crash_matrix() {
    for &n_shards in &[1usize, 2, 4, 8] {
        for &mode in MODES {
            for &site in SITES {
                let dir = test_dir("sharded_crash");
                let ctx = format!("{n_shards} shard(s), {mode:?}, {site:?}");
                let template = build_db(4, 3, mode);
                let spec = shard_spec();
                let txns = sharded_txns(&spec, n_shards);
                let total = txns.len();
                let keep = total - site.lost_txns();

                let dur = DurableSharded::create(
                    &template,
                    spec.clone(),
                    n_shards,
                    &dir,
                    DurabilityOptions::default(),
                )
                .unwrap();
                TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
                    .run(&txns)
                    .unwrap();
                drop(dur);
                site.mutilate(&dir.join("shard-000").join("wal.log"));

                let (rec, _stats) = DurableSharded::open(&dir, n_shards).unwrap();
                let control =
                    ShardedDatabase::partition(&template, spec.clone(), n_shards).unwrap();
                TxnScheduler::new(&control, Arc::default())
                    .run(&txns[..keep])
                    .unwrap();
                assert_sharded_eq(rec.db(), &control, &format!("recovery == control ({ctx})"));
                assert!(
                    rec.db().verify_all_shards().unwrap().is_empty(),
                    "oracle mismatch after recovery ({ctx})"
                );

                // Retry the lost tail durably on the recovered shards.
                TxnScheduler::with_wals(rec.db(), Arc::default(), rec.wals())
                    .run(&txns[keep..])
                    .unwrap();
                let control_full =
                    ShardedDatabase::partition(&template, spec.clone(), n_shards).unwrap();
                TxnScheduler::new(&control_full, Arc::default())
                    .run(&txns)
                    .unwrap();
                assert_sharded_eq(rec.db(), &control_full, &format!("retry == control ({ctx})"));
                cleanup(&dir);
            }
        }
    }
}

/// The inter-phase cross-shard crash: every participant logged `begin +
/// deltas + prepared` and applied in memory, but the global commit
/// record was lost — 2PC's presumed abort. The final transaction spans
/// two shards; dropping the last `global.log` frame must abort exactly
/// it, on every shard it touched.
#[test]
fn wal_global_commit_crash_aborts_cross_shard_txn() {
    for &n_shards in &[2usize, 4] {
        for &mode in MODES {
            let dir = test_dir("global_crash");
            let ctx = format!("{n_shards} shard(s), {mode:?}");
            let template = build_db(4, 3, mode);
            let spec = shard_spec();
            let mut txns = sharded_txns(&spec, n_shards);
            // The final transaction: two inserts routing to different
            // shards, forcing the 2PC path.
            let d0 = dname_routing_to(&spec, n_shards, 0);
            let d1 = dname_routing_to(&spec, n_shards, 1);
            let mut cross = tail_txn(90, &d0);
            cross.extend(tail_txn(91, &d1));
            txns.push(cross);
            let total = txns.len();

            let dur = DurableSharded::create(
                &template,
                spec.clone(),
                n_shards,
                &dir,
                DurabilityOptions::default(),
            )
            .unwrap();
            // Global commit records land in admission order, so the last
            // global frame belongs to the last transaction.
            TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
                .run(&txns)
                .unwrap();
            drop(dur);
            crash::drop_last_frame(&dir.join("global.log")).unwrap();

            let (rec, stats) = DurableSharded::open(&dir, n_shards).unwrap();
            assert!(
                stats.skipped_txns >= 2,
                "both prepared participants must be presumed aborted ({ctx})"
            );
            let control = ShardedDatabase::partition(&template, spec.clone(), n_shards).unwrap();
            TxnScheduler::new(&control, Arc::default())
                .run(&txns[..total - 1])
                .unwrap();
            assert_sharded_eq(rec.db(), &control, &format!("recovery == control ({ctx})"));
            assert!(
                rec.db().verify_all_shards().unwrap().is_empty(),
                "oracle mismatch after recovery ({ctx})"
            );

            // Retry the aborted cross-shard transaction.
            TxnScheduler::with_wals(rec.db(), Arc::default(), rec.wals())
                .run(&txns[total - 1..])
                .unwrap();
            let control_full =
                ShardedDatabase::partition(&template, spec.clone(), n_shards).unwrap();
            TxnScheduler::new(&control_full, Arc::default())
                .run(&txns)
                .unwrap();
            assert_sharded_eq(rec.db(), &control_full, &format!("retry == control ({ctx})"));
            cleanup(&dir);
        }
    }
}

/// A sharded checkpoint truncates every shard's log *and* the global
/// log; recovery replays nothing and still matches.
#[test]
fn wal_sharded_checkpoint_then_recover() {
    let n_shards = 2;
    let dir = test_dir("sharded_ckpt");
    let template = build_db(4, 3, PropagationMode::Fused);
    let spec = shard_spec();
    let txns = sharded_txns(&spec, n_shards);
    let mut dur = DurableSharded::create(
        &template,
        spec.clone(),
        n_shards,
        &dir,
        DurabilityOptions::default(),
    )
    .unwrap();
    TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals())
        .run(&txns)
        .unwrap();
    dur.checkpoint().unwrap();
    drop(dur);
    let (rec, stats) = DurableSharded::open(&dir, n_shards).unwrap();
    assert_eq!(stats.replayed_txns, 0, "checkpoint absorbed the whole log");
    let control = ShardedDatabase::partition(&template, spec, n_shards).unwrap();
    TxnScheduler::new(&control, Arc::default())
        .run(&txns)
        .unwrap();
    assert_sharded_eq(rec.db(), &control, "post-checkpoint recovery");
    assert!(rec.db().verify_all_shards().unwrap().is_empty());
    cleanup(&dir);
}
