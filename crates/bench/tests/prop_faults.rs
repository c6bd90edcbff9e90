//! The deterministic fault-injection harness (requires `--features
//! failpoints`).
//!
//! Sweeps every failpoint site in `spacetime_storage::fault::SITES` across
//! every supported action (typed error / injected panic) and hit
//! thresholds, on single updates, on transactions and through
//! `Database::run` — and the WAL's append site inside a durable run —
//! asserting the all-or-nothing contract each time:
//!
//! * a transaction interrupted by a fault leaves every catalog table
//!   **bit-identical** to its pre-transaction state, with
//!   `Database::integrity_check` clean;
//! * an injected panic reaches the caller only after the rollback, and one
//!   inside `Database::run` surfaces as that transaction's
//!   `IvmError::TaskPanicked` (the run and the database survive it);
//! * retrying after clearing the fault produces exactly the report and
//!   contents an unfaulted run produces.
//!
//! Fault plans are process-global, so every test here holds
//! `fault::serial_guard()` for its whole body.

#![cfg(feature = "failpoints")]

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::Delta;
use spacetime_ivm::{verify_all_views, Database, IvmError, Txn, UpdateReport};
use spacetime_storage::fault::{self, FaultAction, FaultPlan, SITES};
use spacetime_storage::Bag;

/// Quiet the default panic hook for injected panics: the sweep triggers
/// dozens of *expected* panics, whose backtraces would drown the test log.
/// Real (unexpected) panics still print through the chained hook.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<String>().cloned().or_else(|| {
                info.payload().downcast_ref::<&str>().map(|s| s.to_string())
            });
            if msg.is_some_and(|m| m.contains("injected panic at ")) {
                return;
            }
            prev(info);
        }));
    });
}

/// The template database every run clones: paper schema + data, three
/// single-rooted views, a two-rooted view group over a shared aggregate,
/// and the DeptConstraint assertion — several engines, several
/// auxiliaries, so each commit crosses every failpoint site repeatedly.
fn template() -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, 5, 3);
    db.execute_sql(
        "CREATE MATERIALIZED VIEW DeptProfile AS \
         SELECT DName, COUNT(*) AS Heads, MAX(Salary) AS TopSal \
         FROM Emp GROUP BY DName",
    )
    .unwrap();
    db.execute_sql(
        "CREATE MATERIALIZED VIEW WellPaid AS \
         SELECT EName, Emp.DName, MName FROM Emp, Dept \
         WHERE Emp.DName = Dept.DName AND Salary > 150",
    )
    .unwrap();
    db.execute_sql(
        "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
            SELECT Dept.DName FROM Emp, Dept \
            WHERE Dept.DName = Emp.DName \
            GROUP BY Dept.DName, Budget \
            HAVING SUM(Salary) > Budget))",
    )
    .unwrap();
    db
}

fn contents(db: &Database) -> Vec<(String, Bag)> {
    db.catalog
        .iter()
        .map(|(n, t)| (n.to_string(), t.relation.data().clone()))
        .collect()
}

/// A workload of transactions that all succeed unfaulted (pre-filtered
/// against a throwaway clone, so assertion-violating or stale-state
/// transactions never muddy the control).
fn passing_txns(template: &Database, want: usize) -> Vec<(String, Delta)> {
    let mut trial = template.clone();
    let mut out = Vec::new();
    for (table, delta) in mixed_workload(5, 3, 40, 0xFA171) {
        if trial.apply_delta(&table, delta.clone()).is_ok() {
            out.push((table, delta));
            if out.len() == want {
                break;
            }
        }
    }
    assert_eq!(out.len(), want, "could not assemble a passing workload");
    out
}

/// The unfaulted reference: per-transaction reports and final contents.
fn control(template: &Database, txns: &[(String, Delta)]) -> (Vec<UpdateReport>, Vec<(String, Bag)>) {
    let mut db = template.clone();
    let reports = txns
        .iter()
        .map(|(t, d)| db.apply_delta(t, d.clone()).unwrap())
        .collect();
    (reports, contents(&db))
}

/// One sweep cell: fault the first transaction with a typed error at
/// (site, on_hit), then assert rollback bit-identity, integrity, and
/// retry-equals-control.
fn sweep_cell(
    template: &Database,
    txns: &[(String, Delta)],
    ctrl_reports: &[UpdateReport],
    ctrl_contents: &[(String, Bag)],
    site: &'static str,
    on_hit: u64,
) {
    let mut db = template.clone();
    let pre = contents(&db);
    let guard = fault::install(FaultPlan::new().error_at(site, on_hit));
    let (table, delta) = &txns[0];
    let result = db.apply_delta(table, delta.clone());
    let fired = guard.fired(site);
    let label = format!("{site}/hit{on_hit}");
    match result {
        Err(err) => {
            assert!(fired, "{label}: errored without the fault firing: {err}");
            assert!(
                err.to_string().contains("injected fault"),
                "{label}: unexpected error: {err}"
            );
            // The catalog is bit-identical to its pre-transaction state.
            assert_eq!(contents(&db), pre, "{label}: catalog torn by the fault");
            db.integrity_check()
                .unwrap_or_else(|e| panic!("{label}: integrity after fault: {e}"));
        }
        Ok(report) => {
            // The armed hit count was never reached (e.g. `on_hit` past
            // the site's per-txn hits, or a site a plain database never
            // crosses): the run must be indistinguishable from control.
            assert!(!fired, "{label}: fired yet the transaction succeeded");
            assert_eq!(report, ctrl_reports[0], "{label}: report diverged");
        }
    }
    // Clear the fault and (re)run the full workload: the recovered
    // database must be bit-identical to the unfaulted control. If the
    // fault aborted txn 0 it is retried; if it never fired, txn 0 already
    // committed and the remaining transactions pick up from there.
    guard.clear();
    let start = if contents(&db) == pre { 0 } else { 1 };
    for (i, (t, d)) in txns.iter().enumerate().skip(start) {
        let r = db
            .apply_delta(t, d.clone())
            .unwrap_or_else(|e| panic!("{label}: retry txn {i}: {e}"));
        assert_eq!(r, ctrl_reports[i], "{label}: retry txn {i} report diverged");
    }
    drop(guard);
    assert_eq!(contents(&db), ctrl_contents, "{label}: final contents diverged");
    assert!(verify_all_views(&db).unwrap().is_empty(), "{label}");
}

/// The full deterministic sweep: every site x hit threshold, typed
/// errors. An injected panic unwinds the calling thread here, so panics
/// have their own sweeps below (`commit_panic_rolls_back_before_resuming`,
/// `three_update_transaction_fault_sweep`) and, inside `Database::run`'s
/// per-transaction containment, `run_commit_fault_sweep`.
#[test]
fn fault_sweep_preserves_atomicity_at_every_site() {
    let _serial = fault::serial_guard();
    let template = template();
    let txns = passing_txns(&template, 4);
    let (ctrl_reports, ctrl_contents) = control(&template, &txns);
    for site in SITES.iter().filter(|s| s.supports_error) {
        for on_hit in [1, 2, 3] {
            sweep_cell(&template, &txns, &ctrl_reports, &ctrl_contents, site.name, on_hit);
        }
    }
}

/// A panic unwinding through the journaled commit: the undo
/// journal must replay before the panic resumes, so the caller that
/// catches the unwind observes a catalog bit-identical to the
/// pre-transaction state — and a clean retry afterwards.
#[test]
fn commit_panic_rolls_back_before_resuming() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let txns = passing_txns(&template, 1);
    let (ctrl_reports, ctrl_contents) = control(&template, &txns);
    for site in ["ivm::commit_view", "delta::apply_to"] {
        for on_hit in [1, 2] {
            let mut db = template.clone();
            let pre = contents(&db);
            let guard = fault::install(FaultPlan::new().panic_at(site, on_hit));
            let (table, delta) = &txns[0];
            let outcome = catch_unwind(AssertUnwindSafe(|| db.apply_delta(table, delta.clone())));
            let label = format!("{site}/hit{on_hit}");
            match outcome {
                Err(_) => {
                    assert!(guard.fired(site), "{label}: panicked without firing");
                    assert_eq!(contents(&db), pre, "{label}: catalog torn by the panic");
                    db.integrity_check()
                        .unwrap_or_else(|e| panic!("{label}: integrity: {e}"));
                }
                Ok(r) => {
                    // Hit count past the site's per-txn crossings: the
                    // run must be indistinguishable from control.
                    assert!(!guard.fired(site), "{label}: fired yet returned");
                    assert_eq!(r.unwrap(), ctrl_reports[0], "{label}");
                }
            }
            guard.clear();
            if contents(&db) == pre {
                let r = db.apply_delta(table, delta.clone()).unwrap();
                assert_eq!(r, ctrl_reports[0], "{label}: retry report diverged");
            }
            drop(guard);
            assert_eq!(contents(&db), ctrl_contents, "{label}: final contents");
            assert!(verify_all_views(&db).unwrap().is_empty(), "{label}");
        }
    }
}

/// The journal spans a transaction: a three-update transaction faulted at
/// every commit-path site (typed error, and panic where the site supports
/// one) with the hit landing in the first and last crossing of update 1,
/// of update 2, and of update 3. Whichever update dies, everything the
/// earlier updates landed must be undone with it: the catalog is
/// bit-identical to its pre-transaction state, `integrity_check` is clean,
/// and the retry reproduces the unfaulted control.
///
/// Hit thresholds are calibrated on the same three updates applied
/// standalone. That they still land where intended inside a transaction
/// is itself asserted: an unfaulted transaction crosses each site exactly
/// as often as its updates do alone (the commit gate fires per table
/// journaled by *this* update, not per table in the journal).
#[test]
fn three_update_transaction_fault_sweep() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let txn: Txn = passing_txns(&template, 3);
    let (ctrl_report, ctrl_contents) = {
        let mut db = template.clone();
        let r = db.apply_transaction(txn.clone()).unwrap();
        (r, contents(&db))
    };
    for site in ["ivm::commit_view", "delta::apply_to", "storage::restore_table"] {
        // Cumulative crossings after each update, standalone.
        let cum: Vec<u64> = {
            let mut probe = template.clone();
            let guard = fault::install(FaultPlan::new().error_at(site, u64::MAX));
            let mut cum = vec![0];
            for (t, d) in &txn {
                probe.apply_delta(t, d.clone()).unwrap();
                cum.push(guard.hits(site));
            }
            cum
        };
        {
            let mut probe = template.clone();
            let guard = fault::install(FaultPlan::new().error_at(site, u64::MAX));
            probe.apply_transaction(txn.clone()).unwrap();
            assert_eq!(
                guard.hits(site),
                cum[3],
                "{site}: a transaction crosses the site as often as its updates"
            );
        }
        let meta = SITES.iter().find(|m| m.name == site).unwrap();
        for action in [FaultAction::Error, FaultAction::Panic] {
            if action == FaultAction::Panic && !meta.supports_panic {
                continue;
            }
            for k in 1..=3 {
                if cum[k] == cum[k - 1] {
                    continue; // update k never crosses this site
                }
                let mut on_hits = vec![cum[k - 1] + 1, cum[k]];
                on_hits.dedup();
                for on_hit in on_hits {
                    let label = format!("{site}/{action:?}/update{k}/hit{on_hit}");
                    let mut db = template.clone();
                    let pre = contents(&db);
                    let plan = match action {
                        FaultAction::Error => FaultPlan::new().error_at(site, on_hit),
                        FaultAction::Panic => FaultPlan::new().panic_at(site, on_hit),
                    };
                    let guard = fault::install(plan);
                    // The commit runs on this thread, so its injected
                    // panic arrives as an unwind (after the rollback).
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| db.apply_transaction(txn.clone())));
                    assert!(guard.fired(site), "{label}: the fault never fired");
                    match (outcome, action) {
                        (Err(_), FaultAction::Panic) => {}
                        (Ok(Err(err)), FaultAction::Error) => assert!(
                            err.to_string().contains("injected fault"),
                            "{label}: unexpected error: {err}"
                        ),
                        (other, _) => panic!("{label}: unexpected outcome {other:?}"),
                    }
                    assert_eq!(contents(&db), pre, "{label}: catalog torn by the fault");
                    db.integrity_check()
                        .unwrap_or_else(|e| panic!("{label}: integrity after fault: {e}"));
                    guard.clear();
                    let r = db
                        .apply_transaction(txn.clone())
                        .unwrap_or_else(|e| panic!("{label}: retry: {e}"));
                    drop(guard);
                    assert_eq!(r, ctrl_report, "{label}: retry report diverged");
                    assert_eq!(contents(&db), ctrl_contents, "{label}: final contents");
                    assert!(verify_all_views(&db).unwrap().is_empty(), "{label}");
                }
            }
        }
    }
}

/// Seeded single-fault plans (the splitmix64 path `FaultPlan::seeded`
/// exposes to property tests): whatever site, hit and action the seed
/// picks, atomicity holds.
#[test]
fn seeded_fault_plans_preserve_atomicity() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let txns = passing_txns(&template, 2);
    let (ctrl_reports, ctrl_contents) = control(&template, &txns);
    for seed in 0..24u64 {
        let mut db = template.clone();
        let pre = contents(&db);
        let guard = fault::install(FaultPlan::seeded(seed));
        let (table, delta) = &txns[0];
        // A seeded panic unwinds this thread, after the rollback.
        match catch_unwind(AssertUnwindSafe(|| db.apply_delta(table, delta.clone()))) {
            Err(_) | Ok(Err(_)) => {
                assert_eq!(contents(&db), pre, "seed {seed}: catalog torn");
                db.integrity_check()
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
            Ok(Ok(report)) => assert_eq!(report, ctrl_reports[0], "seed {seed}"),
        }
        guard.clear();
        if contents(&db) == pre {
            let r = db.apply_delta(table, delta.clone()).unwrap();
            assert_eq!(r, ctrl_reports[0], "seed {seed}: retry report");
        }
        let (t1, d1) = &txns[1];
        let r1 = db.apply_delta(t1, d1.clone()).unwrap();
        assert_eq!(r1, ctrl_reports[1], "seed {seed}: follow-up report");
        drop(guard);
        assert_eq!(contents(&db), ctrl_contents, "seed {seed}: final contents");
    }
}

/// A raise of employee `emp` in `dept`, 100 → 180.
fn raise(dept: usize, emp: usize) -> Delta {
    let row = |s: i64| {
        spacetime_storage::tuple![format!("emp{dept:05}_{emp}"), format!("dept{dept:05}"), s]
    };
    Delta::modify(row(100), row(180), 1)
}

/// Employee `emp` of every department raised in one delta.
fn raise_everywhere(emp: usize) -> Delta {
    let mut d = Delta::new();
    (0..5).for_each(|dept| d.merge(raise(dept, emp)));
    d
}

/// One `run` sweep cell: fault (site, action, on_hit), serve the
/// transaction through `Database::run`, and assert the all-or-nothing
/// contract — the database bit-identical to its pre-transaction state
/// after a fault, and a clean retry reproducing the unfaulted control.
fn run_cell(
    template: &Database,
    txn: &Txn,
    ctrl_report: &UpdateReport,
    ctrl_contents: &[(String, Bag)],
    site: &'static str,
    action: FaultAction,
    on_hit: u64,
) {
    let mut db = template.clone();
    let pre = contents(&db);
    let plan = match action {
        FaultAction::Error => FaultPlan::new().error_at(site, on_hit),
        FaultAction::Panic => FaultPlan::new().panic_at(site, on_hit),
    };
    let guard = fault::install(plan);
    let out = db.run(std::slice::from_ref(txn));
    let fired = guard.fired(site);
    let label = format!("{site}/{action:?}/hit{on_hit}");
    match &out.results[0] {
        Err(err) => {
            assert!(fired, "{label}: errored without the fault firing: {err}");
            match action {
                FaultAction::Error => assert!(
                    err.to_string().contains("injected fault"),
                    "{label}: unexpected error: {err}"
                ),
                FaultAction::Panic => assert!(
                    matches!(err, IvmError::TaskPanicked { message }
                        if message.contains("injected panic")),
                    "{label}: expected TaskPanicked, got: {err}"
                ),
            }
            assert_eq!(contents(&db), pre, "{label}: catalog torn by the fault");
            db.integrity_check()
                .unwrap_or_else(|e| panic!("{label}: integrity after fault: {e}"));
        }
        Ok(report) => {
            // The armed hit count was never reached: indistinguishable
            // from control.
            assert!(!fired, "{label}: fired yet the transaction succeeded");
            assert_eq!(report, ctrl_report, "{label}: report diverged");
        }
    }
    // Clear the fault and retry (if the fault aborted the transaction):
    // the database converges to the unfaulted control exactly.
    guard.clear();
    if contents(&db) == pre {
        let retry = db.run(std::slice::from_ref(txn));
        let r = retry.results[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: retry failed: {e}"));
        assert_eq!(r, ctrl_report, "{label}: retry report diverged");
    }
    drop(guard);
    assert_eq!(contents(&db), ctrl_contents, "{label}: final contents diverged");
    assert!(verify_all_views(&db).unwrap().is_empty(), "{label}");
}

/// `Database::run` under fault injection: a transaction raising one
/// employee in every department, faulted at every commit-path site (typed
/// error *and* injected panic) at hit thresholds reaching from its first
/// crossing into its last — plus the dispatch-site panic, which fires
/// before the transaction touches anything. Every cell asserts
/// post-failure bit-identity and retry-equals-control.
#[test]
fn run_commit_fault_sweep() {
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let txn: Txn = vec![("Emp".to_string(), raise_everywhere(0))];
    let (ctrl_report, ctrl_contents) = {
        let mut db = template.clone();
        let report = db.apply_transaction(txn.clone()).unwrap();
        (report, contents(&db))
    };

    // Calibrate each site's crossings of one unfaulted run (armed far past
    // any plausible threshold so nothing fires), so the sweep can land
    // faults in the last crossing too.
    let commit_sites = ["ivm::commit_view", "delta::apply_to", "storage::restore_table"];
    let mut site_hits = Vec::new();
    for site in commit_sites {
        let mut db = template.clone();
        let guard = fault::install(FaultPlan::new().error_at(site, u64::MAX));
        assert!(db.run(std::slice::from_ref(&txn)).results[0].is_ok(), "calibration run");
        site_hits.push((site, guard.hits(site)));
    }

    for (site, hits) in site_hits {
        let meta = SITES.iter().find(|s| s.name == site).unwrap();
        let mut on_hits = vec![1, 2, 3, hits.saturating_sub(1).max(1), hits.max(1)];
        on_hits.sort_unstable();
        on_hits.dedup();
        for action in [FaultAction::Error, FaultAction::Panic] {
            let supported = match action {
                FaultAction::Error => meta.supports_error,
                FaultAction::Panic => meta.supports_panic,
            };
            if !supported {
                continue;
            }
            for &on_hit in &on_hits {
                run_cell(&template, &txn, &ctrl_report, &ctrl_contents, site, action, on_hit);
            }
        }
    }
    run_cell(
        &template,
        &txn,
        &ctrl_report,
        &ctrl_contents,
        "ivm::pool_dispatch",
        FaultAction::Panic,
        1,
    );
}

/// A body panic fails its transaction alone: the first transaction of a
/// run touches every department and dies at the dispatch site (inside its
/// own `catch_unwind`, before it touches anything); after it come one
/// follower per department. Every follower must commit exactly as in a
/// no-fault run of the followers alone, and the database must equal that
/// run's.
#[test]
fn dispatch_panic_fails_its_transaction_alone() {
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let followers: Vec<Txn> = (0..5).map(|dept| vec![("Emp".to_string(), raise(dept, 1))]).collect();
    let mut txns: Vec<Txn> = vec![vec![("Emp".to_string(), raise_everywhere(0))]];
    txns.extend(followers.iter().cloned());

    let mut control = template.clone();
    let ctrl = control.run(&followers);
    assert!(ctrl.results.iter().all(|r| r.is_ok()), "control followers must commit");

    let mut db = template.clone();
    let out = {
        // Transactions run in admission order, so the first hit of the
        // site is necessarily the first transaction's.
        let _guard = fault::install(FaultPlan::new().panic_at("ivm::pool_dispatch", 1));
        db.run(&txns)
    };
    assert!(
        matches!(&out.results[0], Err(IvmError::TaskPanicked { message })
            if message.contains("injected panic")),
        "expected the first transaction to panic, got {:?}",
        out.results[0]
    );
    for (i, (r, c)) in out.results[1..].iter().zip(&ctrl.results).enumerate() {
        assert_eq!(
            r.as_ref().ok(),
            c.as_ref().ok(),
            "follower {i} did not run as in the no-fault control"
        );
    }
    assert_eq!((out.stats.committed, out.stats.aborted), (5, 1));
    assert_eq!(contents(&db), contents(&control), "diverged from the followers-only control");
    assert!(verify_all_views(&db).unwrap().is_empty());
}

/// A WAL append that fails inside a durable run — at a transaction's
/// begin, before anything applies, or at its commit record, after
/// everything applied — fails that transaction alone, for a one-row and a
/// five-department transaction. The database equals a control run
/// without it, so does what reopening the directory recovers, and a retry
/// equals the full control. Hit numbers are calibrated by counting
/// appends.
#[test]
fn durable_wal_append_fault_fails_its_transaction_alone() {
    use spacetime_ivm::DurabilityOptions;
    let _serial = fault::serial_guard();
    let template = template();
    // A one-row transaction, a five-department one, and a follower.
    let txns: Vec<Txn> = [raise(0, 1), raise_everywhere(0), raise(1, 1)]
        .into_iter()
        .map(|d| vec![("Emp".to_string(), d)])
        .collect();
    let control = |txns: &[Txn]| {
        let mut db = template.clone();
        db.run(txns);
        contents(&db)
    };
    let create = |dir: &std::path::Path| {
        let mut db = template.clone();
        db.make_durable(dir, DurabilityOptions::default()).unwrap();
        db
    };
    // Calibrate: the append count after each transaction, run one at a time.
    let dir = spacetime_wal::test_dir("wal_fault_calibrate");
    let mut dur = create(&dir);
    let guard = fault::install(FaultPlan::new().error_at("wal::append", u64::MAX));
    let appends: Vec<u64> = txns
        .iter()
        .map(|t| {
            assert!(dur.run(std::slice::from_ref(t)).results[0].is_ok(), "calibration run");
            guard.hits("wal::append")
        })
        .collect();
    drop((guard, dur));
    std::fs::remove_dir_all(&dir).ok();
    for target in [0, 1] {
        let first = if target == 0 { 1 } else { appends[target - 1] + 1 };
        for (point, on_hit) in [("begin", first), ("commit", appends[target])] {
            let label = format!("txn {target}, {point} append (hit {on_hit})");
            let dir = spacetime_wal::test_dir("wal_fault_cell");
            let mut dur = create(&dir);
            let guard = fault::install(FaultPlan::new().error_at("wal::append", on_hit));
            let results = dur.run(&txns).results;
            assert!(guard.fired("wal::append"), "{label}: the fault never fired");
            drop(guard);
            let failed: Vec<usize> = (0..txns.len()).filter(|&i| results[i].is_err()).collect();
            assert_eq!(failed, [target], "{label}: {results:?}");
            let mut rest = txns.clone();
            let lone = rest.remove(target);
            let without = control(&rest);
            assert_eq!(contents(&dur), without, "{label}: database vs control");
            drop(dur);
            let (mut rec, stats) = Database::open(&dir, DurabilityOptions::default()).unwrap();
            assert_eq!(contents(&rec), without, "{label}: recovery vs control");
            assert_eq!(stats.skipped_txns, u64::from(point == "commit"), "{label}");
            assert!(rec.run(&[lone]).results[0].is_ok(), "{label}: retry failed");
            assert_eq!(contents(&rec), control(&txns), "{label}: retry vs full control");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A checkpoint install that fails on the writer thread — an injected
/// error or panic at `wal::checkpoint`, after the body is streamed and
/// before the rename — leaves the old checkpoint and the sealed log
/// segment in place, and reaches the serving thread as a typed error,
/// never as an unwind: from `finish_checkpoint` (the error) or from the
/// next `checkpoint` (the panic). While the sealed segment is left, the
/// log is not sealed again, so a second failed install loses nothing
/// either. Reopening the directory recovers the control, and a later
/// checkpoint installs and deletes the sealed segment.
#[test]
fn checkpoint_writer_fault_keeps_the_old_checkpoint_and_the_sealed_segment() {
    use spacetime_ivm::DurabilityOptions;
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let txns: Vec<Txn> = passing_txns(&template, 6).into_iter().map(|u| vec![u]).collect();
    let control = |n: usize| {
        let mut db = template.clone();
        db.run(&txns[..n]);
        contents(&db)
    };
    let serve = |db: &mut Database, txns: &[Txn]| {
        assert!(db.run(txns).results.iter().all(Result::is_ok), "a passing transaction failed");
    };
    let open = |dir: &std::path::Path| Database::open(dir, DurabilityOptions::default()).unwrap();
    for action in [FaultAction::Error, FaultAction::Panic] {
        let dir = spacetime_wal::test_dir("ckpt_writer_fault");
        let sealed = dir.join("global.log.sealed");
        let ckpt = dir.join("shard-000/checkpoint.ckpt");
        let mut dur = template.clone();
        dur.make_durable(&dir, DurabilityOptions::default()).unwrap();
        let initial = std::fs::read(&ckpt).unwrap();
        serve(&mut dur, &txns[..2]);
        let guard = fault::install(match action {
            FaultAction::Error => FaultPlan::new().error_at("wal::checkpoint", 1),
            FaultAction::Panic => FaultPlan::new().panic_at("wal::checkpoint", 1),
        });
        dur.checkpoint().unwrap();
        serve(&mut dur, &txns[2..4]);
        let err = match action {
            FaultAction::Error => dur.finish_checkpoint(),
            FaultAction::Panic => dur.checkpoint(),
        }
        .expect_err("the failed install must come back as an error");
        assert!(guard.fired("wal::checkpoint"), "{action:?}: the fault never fired");
        drop(guard);
        assert!(err.to_string().contains("injected"), "{action:?}: {err}");
        assert_eq!(std::fs::read(&ckpt).unwrap(), initial, "{action:?}: the old checkpoint");
        assert!(sealed.exists(), "{action:?}: the sealed segment is gone");
        assert_eq!(contents(&dur), control(4), "{action:?}: database vs control");
        serve(&mut dur, &txns[4..5]);
        let guard = fault::install(FaultPlan::new().error_at("wal::checkpoint", 1));
        dur.checkpoint().unwrap();
        assert!(dur.finish_checkpoint().is_err(), "{action:?}: the second install");
        drop(guard);
        assert!(sealed.exists(), "{action:?}: the sealed segment is gone");
        drop(dur);

        let (mut rec, stats) = open(&dir);
        assert_eq!((stats.checkpoint_last_txn, stats.replayed_txns), (0, 5), "{action:?}");
        assert_eq!(contents(&rec), control(5), "{action:?}: recovery vs control");
        serve(&mut rec, &txns[5..]);
        rec.checkpoint().unwrap();
        rec.finish_checkpoint().unwrap();
        assert!(!sealed.exists(), "{action:?}: the install left the sealed segment");
        drop(rec);
        let (rec, stats) = open(&dir);
        assert_eq!((stats.checkpoint_last_txn, stats.replayed_txns), (6, 0), "{action:?}");
        assert_eq!(contents(&rec), control(6), "{action:?}: second recovery vs control");
        std::fs::remove_dir_all(&dir).ok();
    }
}
