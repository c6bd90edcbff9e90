//! Real crash-stop recovery: a child process is SIGKILLed mid-commit
//! and the database must come back bit-identical to a committed prefix.
//!
//! Unlike `prop_wal.rs` (which *simulates* crashes by mutilating log
//! bytes), this test spawns `src/bin/crash_child.rs`, drives it over a
//! stdin/stdout `go`/`ACK` protocol, and kills it with SIGKILL right
//! after handing it one more transaction than it has acknowledged. The
//! default `SyncPolicy::Flush` writes every commit into the OS page
//! cache before the ACK, and SIGKILL does not drop the page cache — so
//! recovery must land on exactly `acked` or `acked + 1` transactions
//! (the in-flight one either reached the log or it did not), and the
//! recompute oracle must find every materialized view consistent.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};

use spacetime_bench::workload::{crash_fixture_db, crash_fixture_txn};
use spacetime_ivm::{verify_all_views, Database, DurabilityOptions};
use spacetime_wal::test_dir;

/// The fixture state after the first `n` crash transactions, built
/// entirely in memory (no WAL) — the recovery ground truth.
fn control(n: usize) -> Database {
    let mut db = crash_fixture_db();
    for i in 0..n {
        db.apply_transaction(crash_fixture_txn(i)).unwrap();
    }
    db
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

struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn the victim, checkpointing after every `checkpoint_every`th
/// commit if given, let it ack `acked` transactions, hand it one more,
/// and SIGKILL it without waiting for the ack.
fn run_victim(dir: &Path, acked: usize, checkpoint_every: Option<usize>) {
    let child = Command::new(env!("CARGO_BIN_EXE_crash_child"))
        .arg(dir)
        .args(checkpoint_every.map(|n| n.to_string()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn crash_child");
    let mut child = ChildGuard(child);
    let mut stdin = child.0.stdin.take().unwrap();
    let mut lines = BufReader::new(child.0.stdout.take().unwrap()).lines();

    let ready = lines.next().expect("child exited early").unwrap();
    assert_eq!(ready, "READY");

    for i in 0..acked {
        writeln!(stdin, "go").unwrap();
        stdin.flush().unwrap();
        let ack = lines.next().expect("child died before ack").unwrap();
        assert_eq!(ack, format!("ACK {i}"));
    }

    // One more transaction in flight: kill without reading its ack.
    writeln!(stdin, "go").unwrap();
    stdin.flush().unwrap();
    child.0.kill().expect("kill -9 child");
    child.0.wait().unwrap();
}

#[test]
fn sigkill_mid_commit_recovers_an_acked_prefix() {
    sigkill_recovers_an_acked_prefix(None);
}

/// The victim checkpoints after every commit, before its ack, so the kill
/// can land while a checkpoint seals the log or while its install runs on
/// the writer thread: the recovered state is still the acked prefix or
/// one more.
#[test]
fn sigkill_mid_checkpoint_install_recovers_an_acked_prefix() {
    sigkill_recovers_an_acked_prefix(Some(1));
}

fn sigkill_recovers_an_acked_prefix(checkpoint_every: Option<usize>) {
    for acked in [0usize, 3, 7] {
        let dir = test_dir(&format!("crash_kill_{acked}"));
        run_victim(&dir, acked, checkpoint_every);

        let (dur, stats) =
            Database::open(&dir, DurabilityOptions::default()).expect("recovery after SIGKILL");
        // An in-memory copy: the retry below needs no log.
        let recovered = dur.clone();

        // Every acked transaction is durable; the in-flight one either
        // committed to the log before the kill or it did not.
        assert!(
            stats.replayed_txns as usize <= acked + 1,
            "replayed more transactions than were ever submitted: {stats:?}"
        );
        let full = control(acked + 1);
        let matches_full = recovered
            .catalog
            .table("Emp")
            .unwrap()
            .relation
            .data()
            .len()
            == full.catalog.table("Emp").unwrap().relation.data().len();
        let expect = if matches_full { acked + 1 } else { acked };
        assert_db_eq(&recovered, &control(expect), &format!("acked={acked} expect={expect}"));

        let mismatches = verify_all_views(&recovered).unwrap();
        assert!(
            mismatches.is_empty(),
            "oracle found stale views after SIGKILL recovery: {mismatches:?}"
        );

        // The recovered database stays serviceable: apply the rest of
        // the tail and check against a full-history control.
        let mut recovered = recovered;
        for i in expect..acked + 2 {
            recovered.apply_transaction(crash_fixture_txn(i)).unwrap();
        }
        assert_db_eq(
            &recovered,
            &control(acked + 2),
            &format!("retry after SIGKILL, acked={acked}"),
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
