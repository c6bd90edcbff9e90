//! Crash-recovery proven bit-identical (DESIGN.md §17, EXPERIMENTS.md
//! E-WAL).
//!
//! Every cell of the sweep follows one shape:
//!
//! 1. run a workload durably (WAL + initial checkpoint) and *crash* by
//!    mutilating the one log at a deterministic frame boundary
//!    (`spacetime_wal::crash`) — torn final record, corrupted CRC,
//!    truncated segment, or a cross-shard transaction's dropped commit
//!    record — or by stopping between two shard checkpoints;
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
/// commit) in the log, and it always succeeds.
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

/// The crash sites that mutilate the log, with the exactly-known number
/// of tail transactions each loses when the log ends in crafted
/// three-frame transactions.
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

/// `a` (the recovered side) equals `b` shard by shard, table by table,
/// and the recompute oracle finds every view of `a` consistent.
fn assert_sharded_eq(a: &ShardedDatabase, b: &ShardedDatabase, ctx: &str) {
    assert!(a.verify_all_shards().unwrap().is_empty(), "oracle mismatch ({ctx})");
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

/// A durable database over `template` at `n_shards`, default options.
fn create(template: &Database, n_shards: usize, dir: &Path) -> DurableSharded {
    DurableSharded::create(template, shard_spec(), n_shards, dir, DurabilityOptions::default())
        .unwrap()
}

/// The unlogged unsharded control: `template` fed `txns`; how many
/// committed.
fn db_control(template: &Database, txns: &[Txn]) -> (Database, u64) {
    let mut db = template.clone();
    let committed = txns.iter().filter(|&t| db.apply_transaction(t.clone()).is_ok()).count();
    (db, committed as u64)
}

/// The unlogged control: `template` partitioned like the durable run and
/// fed `txns` through the scheduler.
fn control(template: &Database, n_shards: usize, txns: &[Txn]) -> ShardedDatabase {
    let db = ShardedDatabase::partition(template, shard_spec(), n_shards).unwrap();
    TxnScheduler::new(&db, Arc::default()).run(txns).unwrap();
    db
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
        let dur = create(&template, 1, &dir);
        let committed = run_durable(&dur, &txns);
        drop(dur);
        let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
        assert_eq!(stats.replayed_txns, committed, "replayed != committed ({mode:?})");
        assert_eq!(stats.skipped_txns, 0, "clean log has no aborts ({mode:?})");
        assert_eq!(stats.discarded_bytes, 0, "clean log has no torn bytes ({mode:?})");
        let rec = rec.db().shard(0);
        assert_eq!(rec.propagation_mode(), mode, "mode not restored");
        let (control, _) = db_control(&template, &txns);
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

            let dur = create(&template, 1, &dir);
            run_durable(&dur, &txns);
            drop(dur);
            site.mutilate(&dir.join("global.log"));

            let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
            let (control, committed) = db_control(&template, &txns[..keep]);
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
            let (control_full, _) = db_control(&template, &txns);
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
    let mut dur = create(&template, 1, &dir);
    assert_eq!(run_durable(&dur, &before), 4);
    dur.checkpoint().unwrap();
    assert_eq!(run_durable(&dur, &after), 3);
    drop(dur);
    let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
    assert_eq!(stats.checkpoint_last_txn, 4, "checkpoint covers the first four");
    assert_eq!(stats.replayed_txns, 3, "only the post-checkpoint tail replays");
    let (control, committed) = db_control(&template, &[before, after].concat());
    assert_eq!(committed, 7);
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
    let mut dur = DurableSharded::create(&template, shard_spec(), 1, &dir, opts).unwrap();
    let txns: Vec<Txn> = (0..5).map(|i| tail_txn(i, "dept00000")).collect();
    for t in &txns {
        assert_eq!(run_durable(&dur, std::slice::from_ref(t)), 1);
        dur.maybe_checkpoint().unwrap();
    }
    drop(dur);
    // Checkpoints fired after txns 2 and 4; only txn 5 is in the log.
    let (rec, stats) = DurableSharded::open(&dir, 1).unwrap();
    assert_eq!(stats.replayed_txns, 1, "policy checkpoints bound the replay");
    let (control, _) = db_control(&template, &txns);
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
    run_durable(&dur, &txns);
    drop(dur);
    let (rec, stats) = DurableSharded::open_with(&dir, 2, DurabilityOptions::default()).unwrap();
    assert_eq!(stats.replayed_txns, txns.len() as u64);
    let control = control(&template, 2, &txns);
    assert_sharded_eq(rec.db(), &control, "recovery after a retried create");
    assert!(create().is_err(), "an initialized directory still refuses create");
    cleanup(&dir);
}

// ---------------------------------------------------------------------
// Sharded
// ---------------------------------------------------------------------

/// Base workload plus three crafted single-shard tail transactions, all
/// on shard 0, so each crash site loses an exactly-known suffix.
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
                let txns = sharded_txns(&shard_spec(), n_shards);
                let keep = txns.len() - site.lost_txns();

                let dur = create(&template, n_shards, &dir);
                run_durable(&dur, &txns);
                drop(dur);
                site.mutilate(&dir.join("global.log"));

                let (rec, _stats) = DurableSharded::open(&dir, n_shards).unwrap();
                let prefix = control(&template, n_shards, &txns[..keep]);
                assert_sharded_eq(rec.db(), &prefix, &format!("recovery == control ({ctx})"));

                // Retry the lost tail durably on the recovered shards.
                run_durable(&rec, &txns[keep..]);
                let control_full = control(&template, n_shards, &txns);
                assert_sharded_eq(rec.db(), &control_full, &format!("retry == control ({ctx})"));
                cleanup(&dir);
            }
        }
    }
}

/// A crash at a cross-shard transaction's commit point: its begin and
/// deltas are in the log and it applied in memory on every shard it
/// touched, but its one commit record was lost. Dropping the log's last
/// frame must abort exactly it, on every shard.
#[test]
fn wal_cross_shard_commit_crash_aborts_on_every_shard() {
    for &n_shards in &[2usize, 4] {
        for &mode in MODES {
            let dir = test_dir("cross_commit_crash");
            let ctx = format!("{n_shards} shard(s), {mode:?}");
            let template = build_db(4, 3, mode);
            let spec = shard_spec();
            let mut txns = sharded_txns(&spec, n_shards);
            // The final transaction: two inserts routing to different
            // shards.
            let d0 = dname_routing_to(&spec, n_shards, 0);
            let d1 = dname_routing_to(&spec, n_shards, 1);
            let mut cross = tail_txn(90, &d0);
            cross.extend(tail_txn(91, &d1));
            txns.push(cross);
            let total = txns.len();

            let dur = create(&template, n_shards, &dir);
            assert_eq!(run_durable(&dur, &txns), total as u64, "all commit ({ctx})");
            drop(dur);
            crash::drop_last_frame(&dir.join("global.log")).unwrap();

            let (rec, stats) = DurableSharded::open(&dir, n_shards).unwrap();
            assert_eq!(stats.skipped_txns, 1, "exactly the cross-shard txn aborts ({ctx})");
            let prefix = control(&template, n_shards, &txns[..total - 1]);
            assert_sharded_eq(rec.db(), &prefix, &format!("recovery == control ({ctx})"));

            // Retry the aborted cross-shard transaction.
            run_durable(&rec, &txns[total - 1..]);
            let control_full = control(&template, n_shards, &txns);
            assert_sharded_eq(rec.db(), &control_full, &format!("retry == control ({ctx})"));
            cleanup(&dir);
        }
    }
}

/// A crash between two shard checkpoints: shard 0's new checkpoint is in
/// place, shard 1's is the one before, and the log was not yet
/// truncated. Replay is filtered per shard — shard 0 skips what its
/// checkpoint covers, shard 1 replays it — so recovery equals control.
#[test]
fn wal_crash_between_shard_checkpoints_recovers() {
    let n_shards = 2;
    let dir = test_dir("between_ckpts");
    let template = build_db(4, 3, PropagationMode::Fused);
    let txns = sharded_txns(&shard_spec(), n_shards);
    let half = txns.len() / 2;
    let mut dur = create(&template, n_shards, &dir);
    run_durable(&dur, &txns[..half]);
    dur.checkpoint().unwrap();
    run_durable(&dur, &txns[half..]);
    let (old_ckpt, log) = (dir.join("shard-001/checkpoint.ckpt"), dir.join("global.log"));
    let saved = (std::fs::read(&old_ckpt).unwrap(), std::fs::read(&log).unwrap());
    dur.checkpoint().unwrap();
    drop(dur);
    std::fs::write(&old_ckpt, saved.0).unwrap();
    std::fs::write(&log, saved.1).unwrap();

    let (rec, stats) = DurableSharded::open(&dir, n_shards).unwrap();
    assert!(stats.replayed_txns > 0, "shard 1 replays the second half");
    let control = control(&template, n_shards, &txns);
    assert_sharded_eq(rec.db(), &control, "recovery between shard checkpoints");
    cleanup(&dir);
}

/// A sharded checkpoint truncates the one log; recovery replays nothing
/// and still matches. The log is the only WAL file in the directory.
#[test]
fn wal_sharded_checkpoint_then_recover() {
    let n_shards = 2;
    let dir = test_dir("sharded_ckpt");
    let template = build_db(4, 3, PropagationMode::Fused);
    let txns = sharded_txns(&shard_spec(), n_shards);
    let mut dur = create(&template, n_shards, &dir);
    run_durable(&dur, &txns);
    dur.checkpoint().unwrap();
    drop(dur);
    let ls = |d: &Path| {
        let names = std::fs::read_dir(d).unwrap().map(|e| e.unwrap().file_name());
        let mut names: Vec<_> = names.collect();
        names.sort();
        names
    };
    assert_eq!(ls(&dir), ["META", "global.log", "shard-000", "shard-001"]);
    for s in ["shard-000", "shard-001"] {
        assert_eq!(ls(&dir.join(s)), ["checkpoint.ckpt"], "{s} holds no log");
    }
    let (rec, stats) = DurableSharded::open(&dir, n_shards).unwrap();
    assert_eq!(stats.replayed_txns, 0, "checkpoint absorbed the whole log");
    let control = control(&template, n_shards, &txns);
    assert_sharded_eq(rec.db(), &control, "post-checkpoint recovery");
    cleanup(&dir);
}
