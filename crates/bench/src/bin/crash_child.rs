//! Crash-test victim for `tests/crash_kill.rs`.
//!
//! The child builds the shared crash fixture (`workload::crash_fixture_db`)
//! durably in the directory given as its sole argument, prints `READY`,
//! then loops: read one line from stdin; on `go` apply the next fixture
//! transaction and print `ACK <i>` *after* the WAL commit is on disk.
//! The parent kills the process with SIGKILL at an arbitrary point — the
//! default `SyncPolicy::Flush` guarantees every acked transaction (and
//! possibly one in-flight unacked one) is recoverable.

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use spacetime_bench::workload::{crash_fixture_db, crash_fixture_txn};
use spacetime_ivm::{DurabilityOptions, DurableSharded, TxnScheduler};
use spacetime_storage::ShardSpec;

fn main() {
    let dir = std::env::args().nth(1).expect("usage: crash_child <dir>");
    let dur = DurableSharded::create(
        &crash_fixture_db(),
        ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]),
        1,
        Path::new(&dir),
        DurabilityOptions::default(),
    )
    .expect("create durable db");
    let sched = TxnScheduler::with_wals(dur.db(), Arc::default(), dur.wals());

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    writeln!(stdout, "READY").unwrap();
    stdout.flush().unwrap();

    let mut i = 0usize;
    for line in stdin.lock().lines() {
        let line = line.unwrap();
        match line.trim() {
            "go" => {
                let mut out = sched.run(&[crash_fixture_txn(i)]).expect("run");
                out.results.remove(0).expect("apply");
                writeln!(stdout, "ACK {i}").unwrap();
                stdout.flush().unwrap();
                i += 1;
            }
            "quit" | "" => break,
            other => panic!("unknown command: {other:?}"),
        }
    }
}
