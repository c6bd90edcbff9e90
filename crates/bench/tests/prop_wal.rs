//! Crash-recovery proven bit-identical (DESIGN.md §17, EXPERIMENTS.md
//! E-WAL).
//!
//! Every cell of the sweep follows one shape:
//!
//! 1. run a workload on a durable `Database` (WAL + initial checkpoint)
//!    and *crash* by mutilating the one log at a deterministic frame
//!    boundary (`spacetime_wal::crash`) — torn final record, corrupted
//!    CRC, truncated segment, or a transaction's dropped commit record —
//!    by stopping between a checkpoint and the log's truncation, or by
//!    leaving a background checkpoint's install half done (the sealed
//!    segment beside the live log, before or after the rename);
//! 2. recover with `Database::open`;
//! 3. assert the recovered state is **bit-identical** (every table) to a
//!    fresh control database fed exactly the transactions the mutilated
//!    log still proves committed, and that the recompute oracle finds no
//!    mismatch;
//! 4. re-apply the lost tail and assert the retried state matches a
//!    control fed the whole workload — recovery leaves the database
//!    fully serviceable, not merely readable.
//!
//! The crafted workload tails make the loss deterministic: the last
//! transactions are single-insert commits of known frame counts, so each
//! crash site loses an exactly-known suffix.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::Delta;
use spacetime_ivm::{
    verify_all_views, Database, DurabilityOptions, DurableSharded, Txn, TxnScheduler,
};
use spacetime_storage::{tuple, ShardSpec, Tuple, Value};
use spacetime_wal::{crash, test_dir};

const VIEWS: &[&str] = &[
    "CREATE MATERIALIZED VIEW DeptProfile AS \
     SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
     FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW WellPaid AS \
     SELECT EName, Emp.DName, MName FROM Emp, Dept \
     WHERE Emp.DName = Dept.DName AND Salary > 150",
    "CREATE MATERIALIZED VIEW ActiveDepts AS SELECT DISTINCT DName FROM Emp",
];

const DEPT_CONSTRAINT: &str = "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
    SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
    GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget))";

fn build_db(departments: usize, emps_per_dept: usize) -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, departments, emps_per_dept);
    for sql in VIEWS {
        db.execute_sql(sql).unwrap();
    }
    db
}

/// A crafted single-insert transaction: one fresh Emp row. Exactly three
/// WAL frames (begin + delta + commit) in the log, and it always succeeds.
fn tail_txn(i: usize, dname: &str) -> Txn {
    let t = Tuple::new(vec![
        Value::str(format!("crash_e{i:03}")),
        Value::str(dname),
        Value::Int(200 + i as i64),
    ]);
    vec![("Emp".to_string(), Delta::insert(t, 1))]
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

/// `a` (the recovered side) equals `b` table by table, and the recompute
/// oracle finds every view of `a` consistent.
fn assert_db_eq(a: &Database, b: &Database, ctx: &str) {
    assert!(
        verify_all_views(a).unwrap().is_empty(),
        "oracle mismatch ({ctx})"
    );
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

fn cleanup(dir: &PathBuf) {
    std::fs::remove_dir_all(dir).ok();
}

/// A base workload plus three crafted tail transactions.
fn workload(departments: usize, emps_per_dept: usize, seed: u64) -> Vec<Txn> {
    let mut txns: Vec<Txn> = mixed_workload(departments, emps_per_dept, 6, seed)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    for i in 0..3 {
        txns.push(tail_txn(i, "dept00000"));
    }
    txns
}

/// A durable copy of `template` in `dir`, default options.
fn create(template: &Database, dir: &Path) -> Database {
    let mut db = template.clone();
    db.make_durable(dir, DurabilityOptions::default()).unwrap();
    db
}

fn open(dir: &Path) -> (Database, spacetime_ivm::RecoveryStats) {
    Database::open(dir, DurabilityOptions::default()).unwrap()
}

/// The unlogged control: `template` fed `txns`; how many committed.
fn control(template: &Database, txns: &[Txn]) -> (Database, u64) {
    let mut db = template.clone();
    let committed = txns
        .iter()
        .filter(|&t| db.apply_transaction(t.clone()).is_ok())
        .count();
    (db, committed as u64)
}

/// Run `txns` through `Database::run`; how many committed.
fn run(db: &mut Database, txns: &[Txn]) -> u64 {
    db.run(txns).results.iter().filter(|r| r.is_ok()).count() as u64
}

#[test]
fn wal_unsharded_clean_reopen_is_identical() {
    let dir = test_dir("clean_reopen");
    let template = build_db(3, 4);
    let txns = workload(3, 4, 17);
    let mut dur = create(&template, &dir);
    let committed = run(&mut dur, &txns);
    drop(dur);
    let (rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, committed, "replayed != committed");
    assert_eq!(stats.skipped_txns, 0, "clean log has no aborts");
    assert_eq!(stats.discarded_bytes, 0, "clean log has no torn bytes");
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "clean reopen");
    cleanup(&dir);
}

/// Every crash site, on two workloads.
#[test]
fn wal_unsharded_crash_matrix() {
    for (departments, emps_per_dept, seed) in [(3, 4, 17), (4, 3, 23)] {
        for &site in SITES {
            let dir = test_dir("crash_matrix");
            let ctx = format!("{departments}x{emps_per_dept} seed {seed}, {site:?}");
            let template = build_db(departments, emps_per_dept);
            let txns = workload(departments, emps_per_dept, seed);
            let keep = txns.len() - site.lost_txns();

            let mut dur = create(&template, &dir);
            run(&mut dur, &txns);
            drop(dur);
            site.mutilate(&dir.join("global.log"));

            let (mut rec, stats) = open(&dir);
            let (prefix, committed) = control(&template, &txns[..keep]);
            assert_eq!(
                stats.replayed_txns, committed,
                "replayed only the committed prefix ({ctx})"
            );
            assert_db_eq(&rec, &prefix, &format!("recovery == control ({ctx})"));

            // Retry the lost tail: the recovered database serves on.
            run(&mut rec, &txns[keep..]);
            let (full, _) = control(&template, &txns);
            assert_db_eq(&rec, &full, &format!("retry == control ({ctx})"));
            cleanup(&dir);
        }
    }
}

/// The crash matrix through the sharded API the frozen benchmark harness
/// still serves through (`DurableSharded`, `TxnScheduler::with_wals`), at
/// the shard counts it passes: the counts are ignored, so every count must
/// recover exactly as the one database does.
#[test]
fn wal_sharded_crash_matrix() {
    let opts = DurabilityOptions::default;
    for &n_shards in &[1usize, 2, 4, 8] {
        for &site in SITES {
            let dir = test_dir("sharded_crash");
            let ctx = format!("{n_shards} shard(s), {site:?}");
            let template = build_db(4, 3);
            let txns = workload(4, 3, 23);
            let keep = txns.len() - site.lost_txns();
            let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);

            let dur = DurableSharded::create(&template, spec, n_shards, &dir, opts()).unwrap();
            TxnScheduler::with_wals(dur.db(), Arc::default(), ())
                .run(&txns)
                .unwrap();
            drop(dur);
            site.mutilate(&dir.join("global.log"));

            let (rec, stats) = DurableSharded::open_with(&dir, n_shards, opts()).unwrap();
            assert_eq!(rec.db().n_shards(), 1, "the shard count is ignored");
            let (prefix, committed) = control(&template, &txns[..keep]);
            assert_eq!(
                stats.replayed_txns, committed,
                "replayed only the committed prefix ({ctx})"
            );
            assert_db_eq(
                &rec.db().shard(0),
                &prefix,
                &format!("recovery == control ({ctx})"),
            );

            // Retry the lost tail durably on the recovered database.
            TxnScheduler::with_wals(rec.db(), Arc::default(), ())
                .run(&txns[keep..])
                .unwrap();
            let (full, _) = control(&template, &txns);
            assert_db_eq(
                &rec.db().shard(0),
                &full,
                &format!("retry == control ({ctx})"),
            );
            cleanup(&dir);
        }
    }
}

#[test]
fn wal_checkpoint_replays_only_the_tail() {
    let dir = test_dir("ckpt_tail");
    let template = build_db(3, 4);
    let before: Vec<Txn> = (0..4).map(|i| tail_txn(i, "dept00000")).collect();
    let after: Vec<Txn> = (4..7).map(|i| tail_txn(i, "dept00001")).collect();
    let mut dur = create(&template, &dir);
    assert_eq!(run(&mut dur, &before), 4);
    dur.checkpoint().unwrap();
    assert_eq!(run(&mut dur, &after), 3);
    drop(dur);
    let (rec, stats) = open(&dir);
    assert_eq!(
        stats.checkpoint_last_txn, 4,
        "checkpoint covers the first four"
    );
    assert_eq!(
        stats.replayed_txns, 3,
        "only the post-checkpoint tail replays"
    );
    let (control, committed) = control(&template, &[before, after].concat());
    assert_eq!(committed, 7);
    assert_db_eq(&rec, &control, "checkpoint + tail");
    cleanup(&dir);
}

/// Checkpoints taken between transactions bound what recovery replays.
#[test]
fn wal_explicit_checkpoints_bound_the_replay() {
    let dir = test_dir("ckpt_explicit");
    let template = build_db(3, 4);
    let mut dur = create(&template, &dir);
    let txns: Vec<Txn> = (0..5).map(|i| tail_txn(i, "dept00000")).collect();
    for (i, t) in txns.iter().enumerate() {
        assert_eq!(run(&mut dur, std::slice::from_ref(t)), 1);
        if i % 2 == 1 {
            dur.checkpoint().unwrap();
        }
    }
    drop(dur);
    // Checkpoints after txns 2 and 4; only txn 5 is in the log.
    let (rec, stats) = open(&dir);
    assert_eq!(stats.checkpoint_last_txn, 4);
    assert_eq!(stats.replayed_txns, 1, "checkpoints bound the replay");
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "recovery after explicit checkpoints");
    cleanup(&dir);
}

/// `META` is the commit point of `make_durable`: a call that failed
/// part-way leaves a directory the same call can still initialize.
#[test]
fn wal_interrupted_create_can_be_retried() {
    let dir = test_dir("interrupted_create");
    let template = build_db(4, 3);
    let make = || {
        let mut db = template.clone();
        db.make_durable(&dir, DurabilityOptions::default())
            .map(|()| db)
    };
    // The checkpoint's directory cannot be made: a regular file sits in
    // its place.
    std::fs::create_dir_all(&dir).unwrap();
    let obstacle = dir.join("shard-000");
    std::fs::write(&obstacle, b"in the way").unwrap();
    assert!(make().is_err(), "make_durable must fail at the checkpoint");
    std::fs::remove_file(&obstacle).unwrap();

    let mut dur = make().unwrap_or_else(|e| panic!("retry over the half-made directory: {e}"));
    let txns = workload(4, 3, 23);
    let committed = run(&mut dur, &txns);
    drop(dur);
    let (rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, committed);
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "recovery after a retried create");
    assert!(
        make().is_err(),
        "an initialized directory still refuses make_durable"
    );
    let mut twice = rec;
    assert!(
        twice
            .make_durable(&test_dir("twice"), DurabilityOptions::default())
            .is_err(),
        "a durable database refuses a second directory"
    );
    cleanup(&dir);
}

/// A crash at a multi-update transaction's commit point: its begin and
/// deltas are in the log and it applied in memory, but its one commit
/// record was lost. Dropping the log's last frame must abort exactly it.
#[test]
fn wal_dropped_commit_record_aborts_the_transaction() {
    let dir = test_dir("dropped_commit");
    let template = build_db(4, 3);
    let mut txns = workload(4, 3, 23);
    let mut two = tail_txn(90, "dept00000");
    two.extend(tail_txn(91, "dept00003"));
    txns.push(two);
    let total = txns.len();

    let mut dur = create(&template, &dir);
    let committed = run(&mut dur, &txns);
    drop(dur);
    crash::drop_last_frame(&dir.join("global.log")).unwrap();

    let (mut rec, stats) = open(&dir);
    assert_eq!(stats.skipped_txns, 1, "exactly the last transaction aborts");
    assert_eq!(stats.replayed_txns, committed - 1);
    let (prefix, _) = control(&template, &txns[..total - 1]);
    assert_db_eq(&rec, &prefix, "recovery == control");

    // Retry the aborted transaction.
    assert_eq!(run(&mut rec, &txns[total - 1..]), 1);
    let (full, _) = control(&template, &txns);
    assert_db_eq(&rec, &full, "retry == control");
    cleanup(&dir);
}

/// A crash between installing a checkpoint and truncating the log: the
/// new checkpoint is in place and the log still holds the transactions it
/// covers. Recovery must skip them, not apply them twice.
#[test]
fn wal_crash_between_checkpoint_and_truncation_recovers() {
    let dir = test_dir("ckpt_before_truncate");
    let template = build_db(4, 3);
    let txns = workload(4, 3, 23);
    let half = txns.len() / 2;
    let mut dur = create(&template, &dir);
    run(&mut dur, &txns[..half]);
    dur.checkpoint().unwrap();
    run(&mut dur, &txns[half..]);
    let log = dir.join("global.log");
    let untruncated = std::fs::read(&log).unwrap();
    dur.checkpoint().unwrap();
    drop(dur);
    std::fs::write(&log, untruncated).unwrap();

    let (rec, stats) = open(&dir);
    assert_eq!(
        stats.replayed_txns, 0,
        "the checkpoint covers every logged transaction"
    );
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "recovery between checkpoint and truncation");
    cleanup(&dir);
}

/// A checkpoint truncates the one log; recovery replays nothing and still
/// matches. The directory holds `META`, the log and the checkpoint only.
#[test]
fn wal_checkpoint_then_recover() {
    let dir = test_dir("ckpt_recover");
    let template = build_db(4, 3);
    let txns = workload(4, 3, 23);
    let mut dur = create(&template, &dir);
    run(&mut dur, &txns);
    dur.checkpoint().unwrap();
    drop(dur);
    let ls = |d: &Path| {
        let names = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name());
        let mut names: Vec<_> = names.collect();
        names.sort();
        names
    };
    assert_eq!(ls(&dir), ["META", "global.log", "shard-000"]);
    assert_eq!(ls(&dir.join("shard-000")), ["checkpoint.ckpt"]);
    let (rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, 0, "checkpoint absorbed the whole log");
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "post-checkpoint recovery");
    cleanup(&dir);
}

/// Any view set serves durably: a view that neither joins nor groups on
/// `DName` — a payroll total over all of Emp — beside `DeptConstraint`,
/// on a stream of hires, raises, employees moving department, two-update
/// transfers (hire in one department, re-budget another) and violations.
/// Crash-stop without a checkpoint, recover, then serve the rest.
#[test]
fn wal_any_view_set_serves_durably() {
    let dir = test_dir("any_view_set");
    let mut template = paper_schema_db();
    load_paper_data(&mut template, 6, 3);
    template
        .execute_sql(
            "CREATE MATERIALIZED VIEW Payroll AS \
             SELECT COUNT(*) AS N, SUM(Salary) AS Total FROM Emp",
        )
        .unwrap();
    template.execute_sql(DEPT_CONSTRAINT).unwrap();
    // Budgets are 600, each department's three salaries sum to 300.
    let emp = |e: &str, d: usize, s: i64| tuple![e, format!("dept{d:05}"), s];
    let budget = |d: usize, from: i64, to: i64| {
        let row = |b: i64| tuple![format!("dept{d:05}"), format!("mgr{d}"), b];
        ("Dept".to_string(), Delta::modify(row(from), row(to), 1))
    };
    let hire = |e: &str, d: usize, s: i64| ("Emp".to_string(), Delta::insert(emp(e, d, s), 1));
    let change = |e: &str, from: (usize, i64), to: (usize, i64)| {
        let delta = Delta::modify(emp(e, from.0, from.1), emp(e, to.0, to.1), 1);
        ("Emp".to_string(), delta)
    };
    let txns: Vec<Txn> = vec![
        vec![hire("new_a", 0, 150), budget(1, 600, 650)],
        vec![change("emp00002_0", (2, 100), (2, 180))],
        vec![change("emp00003_1", (3, 100), (4, 100))],
        // Over budget: 300 + 400 > 600.
        vec![hire("new_b", 5, 400)],
        vec![hire("new_c", 2, 50), budget(0, 600, 700)],
        // A transfer whose second update cuts department 4's budget below
        // its payroll (400 > 300) after its hire landed.
        vec![hire("new_d", 1, 100), budget(4, 600, 300)],
        vec![change("emp00005_2", (5, 100), (1, 100))],
        vec![hire("new_e", 3, 120), budget(5, 600, 550)],
    ];
    let expect_ok = [true, true, true, false, true, false, true, true];
    let (full, committed) = control(&template, &txns);
    assert_eq!(committed, 6, "fixture mis-built");
    let keep = 5;

    let mut dur = create(&template, &dir);
    let out = dur.run(&txns[..keep]);
    let ok: Vec<bool> = out.results.iter().map(|r| r.is_ok()).collect();
    assert_eq!(ok, expect_ok[..keep], "{:?}", out.results);
    drop(dur);

    let (mut rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, 4);
    let (prefix, _) = control(&template, &txns[..keep]);
    assert_db_eq(&rec, &prefix, "recovery == control");
    let ok: Vec<bool> = rec
        .run(&txns[keep..])
        .results
        .iter()
        .map(|r| r.is_ok())
        .collect();
    assert_eq!(ok, expect_ok[keep..]);
    assert_db_eq(&rec, &full, "retry == full control");
    let payroll = rec
        .catalog
        .table("Payroll")
        .unwrap()
        .relation
        .data()
        .clone();
    assert_eq!(payroll.len(), 1, "one payroll row: {payroll:?}");
    cleanup(&dir);
}

/// The log as a checkpoint seals it: renamed to this name until the
/// checkpoint's install, on the writer thread, supersedes it.
const SEALED: &str = "global.log.sealed";

/// Transactions committed after `checkpoint()` returns, while its install
/// may still be running on the writer thread, go to the fresh log and
/// replay exactly; the checkpoint covers the transactions of its snapshot.
#[test]
fn wal_commits_during_a_background_install_replay_exactly() {
    let dir = test_dir("ckpt_during_install");
    let template = build_db(4, 3);
    let txns = workload(4, 3, 23);
    let half = txns.len() / 2;
    let mut dur = create(&template, &dir);
    run(&mut dur, &txns[..half]);
    dur.checkpoint().unwrap();
    let during = run(&mut dur, &txns[half..]);
    dur.finish_checkpoint().unwrap();
    assert!(
        !dir.join(SEALED).exists(),
        "the install deletes the sealed segment"
    );
    drop(dur);
    let (rec, stats) = open(&dir);
    assert_eq!(
        stats.checkpoint_last_txn, half as u64,
        "the snapshot's last transaction"
    );
    assert_eq!(
        stats.replayed_txns, during,
        "exactly the commits after the snapshot"
    );
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "commits during the install");
    cleanup(&dir);
}

/// Serve half of `txns`, checkpoint, serve the rest, and then leave the
/// directory as a crash during that checkpoint's install would: the log
/// as it was sealed is put back as the sealed segment, and — for a crash
/// before the install's rename — the previous checkpoint is put back too.
fn crash_mid_install(template: &Database, dir: &Path, txns: &[Txn], before_rename: bool) {
    let ckpt = dir.join("shard-000/checkpoint.ckpt");
    let mut dur = create(template, dir);
    run(&mut dur, &txns[..txns.len() / 2]);
    let old_ckpt = std::fs::read(&ckpt).unwrap();
    let old_log = std::fs::read(dir.join("global.log")).unwrap();
    dur.checkpoint().unwrap();
    run(&mut dur, &txns[txns.len() / 2..]);
    drop(dur);
    std::fs::write(dir.join(SEALED), old_log).unwrap();
    if before_rename {
        std::fs::write(&ckpt, old_ckpt).unwrap();
    }
}

/// A crash while a checkpoint installs leaves the sealed segment beside
/// the live log, before or after the new checkpoint's rename. Recovery
/// replays the sealed segment, then the live log — whose tail may be
/// torn — skipping what the checkpoint on disk covers. The next
/// checkpoint does not seal again: its install deletes the sealed segment.
#[test]
fn wal_crash_mid_install_recovers_from_the_sealed_segment() {
    for before_rename in [true, false] {
        for torn in [false, true] {
            let dir = test_dir("crash_mid_install");
            let ctx = format!("before rename {before_rename}, torn tail {torn}");
            let template = build_db(4, 3);
            let txns = workload(4, 3, 23);
            crash_mid_install(&template, &dir, &txns, before_rename);
            if torn {
                Site::TornTail.mutilate(&dir.join("global.log"));
            }
            let keep = txns.len() - usize::from(torn);

            let (mut rec, stats) = open(&dir);
            let covered = if before_rename {
                0
            } else {
                txns.len() as u64 / 2
            };
            assert_eq!(stats.checkpoint_last_txn, covered, "{ctx}");
            let (prefix, committed) = control(&template, &txns[..keep]);
            let (_, in_checkpoint) = control(&template, &txns[..covered as usize]);
            assert_eq!(stats.replayed_txns, committed - in_checkpoint, "{ctx}");
            assert_db_eq(&rec, &prefix, &format!("recovery == control ({ctx})"));

            run(&mut rec, &txns[keep..]);
            rec.checkpoint().unwrap();
            rec.finish_checkpoint().unwrap();
            assert!(
                !dir.join(SEALED).exists(),
                "the install left the sealed segment ({ctx})"
            );
            drop(rec);
            let (rec, stats) = open(&dir);
            assert_eq!(stats.replayed_txns, 0, "{ctx}");
            let (full, _) = control(&template, &txns);
            assert_db_eq(&rec, &full, &format!("after the next checkpoint ({ctx})"));
            cleanup(&dir);
        }
    }
}

/// The sealed segment was complete when it was sealed, so unlike the
/// live log's tail, a corrupt or torn frame in it is corruption: `open`
/// fails with a typed error rather than recovering a shortened history.
#[test]
fn wal_corrupt_sealed_segment_fails_open() {
    for site in [Site::CorruptLast, Site::TornTail] {
        let dir = test_dir("corrupt_sealed");
        let template = build_db(4, 3);
        crash_mid_install(&template, &dir, &workload(4, 3, 23), true);
        site.mutilate(&dir.join(SEALED));
        let err = Database::open(&dir, DurabilityOptions::default())
            .err()
            .expect("a damaged sealed segment must not open");
        assert!(
            matches!(&err, spacetime_ivm::IvmError::Internal(m) if m.contains("corrupt wal data")),
            "{site:?}: {err}"
        );
        cleanup(&dir);
    }
}

/// A crash mid-install can leave the temporary checkpoint file behind; it
/// is never read, and the next install overwrites it.
#[test]
fn wal_leftover_checkpoint_tmp_is_ignored() {
    let dir = test_dir("leftover_tmp");
    let template = build_db(4, 3);
    let txns = workload(4, 3, 23);
    let mut dur = create(&template, &dir);
    let committed = run(&mut dur, &txns);
    drop(dur);
    let tmp = dir.join("shard-000/checkpoint.tmp");
    std::fs::write(&tmp, b"STWALCK1 torn by a crash").unwrap();
    let (mut rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, committed);
    let (control, _) = control(&template, &txns);
    assert_db_eq(&rec, &control, "recovery beside a leftover checkpoint.tmp");
    rec.checkpoint().unwrap();
    rec.finish_checkpoint().unwrap();
    assert!(!tmp.exists(), "the install renames its temporary file away");
    drop(rec);
    let (rec, stats) = open(&dir);
    assert_eq!(stats.replayed_txns, 0);
    assert_db_eq(&rec, &control, "after the next checkpoint");
    cleanup(&dir);
}
