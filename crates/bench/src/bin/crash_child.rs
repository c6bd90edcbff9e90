//! Crash-test victim for `tests/crash_kill.rs`.
//!
//! The child builds the shared crash fixture (`workload::crash_fixture_db`)
//! durably in the directory given as its sole argument, prints `READY`,
//! then loops: read one line from stdin; on `go` apply the next fixture
//! transaction and print `ACK <i>` *after* the WAL commit is on disk.
//! The parent kills the process with SIGKILL at an arbitrary point — the
//! default `SyncPolicy::Flush` guarantees every acked transaction (and
//! possibly one in-flight unacked one) is recoverable.
//!
//! An optional second argument `N` makes the child checkpoint after every
//! `N`th commit, before its ack, so the kill can land while a checkpoint
//! seals the log or installs on the writer thread.

use std::io::{BufRead, Write};
use std::path::Path;

use spacetime_bench::workload::{crash_fixture_db, crash_fixture_txn};
use spacetime_ivm::DurabilityOptions;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().expect("usage: crash_child <dir> [checkpoint-every]");
    let every: Option<usize> = args.next().map(|n| n.parse().expect("checkpoint-every"));
    let mut db = crash_fixture_db();
    db.make_durable(Path::new(&dir), DurabilityOptions::default())
        .expect("make durable");

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    writeln!(stdout, "READY").unwrap();
    stdout.flush().unwrap();

    let mut i = 0usize;
    for line in stdin.lock().lines() {
        let line = line.unwrap();
        match line.trim() {
            "go" => {
                let mut out = db.run(&[crash_fixture_txn(i)]);
                out.results.remove(0).expect("apply");
                if every.is_some_and(|n| (i + 1).is_multiple_of(n)) {
                    db.checkpoint().expect("checkpoint");
                }
                writeln!(stdout, "ACK {i}").unwrap();
                stdout.flush().unwrap();
                i += 1;
            }
            "quit" | "" => break,
            other => panic!("unknown command: {other:?}"),
        }
    }
}
