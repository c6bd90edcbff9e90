//! The deterministic fault-injection harness (requires `--features
//! failpoints`).
//!
//! Sweeps every failpoint site in `spacetime_storage::fault::SITES` across
//! every supported action (typed error / injected panic) and hit
//! thresholds, on one database and across the shards of a scheduler,
//! asserting the all-or-nothing contract each time:
//!
//! * a transaction interrupted by a fault leaves every catalog table
//!   **bit-identical** to its pre-transaction state, with
//!   `Database::integrity_check` clean;
//! * an injected panic reaches the caller only after the rollback, and one
//!   in a scheduled transaction surfaces as that transaction's
//!   `IvmError::TaskPanicked` (the run and the shards survive it);
//! * retrying after clearing the fault produces exactly the report and
//!   contents an unfaulted run produces.
//!
//! Fault plans are process-global, so every test here holds
//! `fault::serial_guard()` for its whole body.

#![cfg(feature = "failpoints")]

use std::sync::Arc;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_delta::Delta;
use spacetime_ivm::{
    verify_all_views, Database, IvmError, ShardedDatabase, Txn, TxnScheduler, UpdateReport,
};
use spacetime_storage::fault::{self, FaultAction, FaultPlan, SITES};
use spacetime_storage::{Bag, ShardSpec};

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

/// Every table of every shard, in shard order.
fn shard_contents(s: &ShardedDatabase) -> Vec<Vec<(String, Bag)>> {
    (0..s.n_shards()).map(|i| contents(&s.shard(i))).collect()
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
/// `three_update_transaction_fault_sweep`) and, inside the scheduler's
/// per-transaction containment, `cross_shard_commit_fault_sweep`.
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

/// One cross-shard sweep cell: partition fresh, fault (site, action,
/// on_hit), run the spanning transaction through the scheduler, and
/// assert the all-or-nothing contract across the whole footprint — every
/// shard bit-identical to its pre-transaction state after a fault, and a
/// clean retry reproducing the unfaulted control.
#[allow(clippy::too_many_arguments)]
fn cross_shard_cell(
    template: &Database,
    spec: &ShardSpec,
    n_shards: usize,
    txn: &Txn,
    ctrl_report: &UpdateReport,
    ctrl_contents: &[Vec<(String, Bag)>],
    site: &'static str,
    action: FaultAction,
    on_hit: u64,
) {
    let sharded = ShardedDatabase::partition(template, spec.clone(), n_shards).unwrap();
    let pre = shard_contents(&sharded);
    let plan = match action {
        FaultAction::Error => FaultPlan::new().error_at(site, on_hit),
        FaultAction::Panic => FaultPlan::new().panic_at(site, on_hit),
    };
    let guard = fault::install(plan);
    let sched = TxnScheduler::new(&sharded, Arc::default());
    let out = sched.run(std::slice::from_ref(txn)).unwrap();
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
            // The protocol's core promise: a failure mid-footprint
            // restores every already-committed shard — all shards are
            // bit-identical to their pre-transaction state.
            assert_eq!(
                shard_contents(&sharded),
                pre,
                "{label}: a shard was torn by the fault"
            );
        }
        Ok(report) => {
            // The armed hit count was never reached: indistinguishable
            // from control.
            assert!(!fired, "{label}: fired yet the transaction succeeded");
            assert_eq!(report, ctrl_report, "{label}: report diverged");
        }
    }
    // Clear the fault and retry (if the fault aborted the transaction):
    // the sharded database converges to the unfaulted control exactly.
    guard.clear();
    if shard_contents(&sharded) == pre {
        let retry = sched.run(std::slice::from_ref(txn)).unwrap();
        let r = retry.results[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: retry failed: {e}"));
        assert_eq!(r, ctrl_report, "{label}: retry report diverged");
    }
    drop(guard);
    assert_eq!(
        shard_contents(&sharded),
        ctrl_contents,
        "{label}: final contents diverged from control"
    );
    assert!(
        sharded.verify_all_shards().unwrap().is_empty(),
        "{label}: a shard diverged from recomputation"
    );
}

/// The cross-shard commit protocol under fault injection: a transaction
/// whose footprint spans several shards, faulted at every commit-path
/// site (typed error *and* injected panic) at hit thresholds reaching
/// from the first shard's commit into the last one's — plus the
/// dispatch-site panic, which fires before any shard is touched. Every
/// cell asserts post-failure bit-identity of *every* shard and
/// retry-equals-control.
#[test]
fn cross_shard_commit_fault_sweep() {
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    const N_SHARDS: usize = 4;

    // One transaction spanning several shards: a raise in every
    // department (each department lives in exactly one shard, so the
    // footprint is however many shards the five departments hash into).
    let txn: Txn = {
        let mut emp = Delta::new();
        for dept in 0..5 {
            emp.push_modify(
                spacetime_storage::tuple![
                    format!("emp{dept:05}_0"),
                    format!("dept{dept:05}"),
                    100_i64
                ],
                spacetime_storage::tuple![
                    format!("emp{dept:05}_0"),
                    format!("dept{dept:05}"),
                    180_i64
                ],
                1,
            );
        }
        vec![("Emp".to_string(), emp)]
    };
    {
        // The fixture must actually exercise the cross-shard path.
        let sharded = ShardedDatabase::partition(&template, spec.clone(), N_SHARDS).unwrap();
        let parts = sharded.route_delta("Emp", &txn[0].1).unwrap();
        assert!(
            parts.len() >= 2,
            "cross-shard fixture only spans {} shard(s)",
            parts.len()
        );
    }

    // The unfaulted control: the transaction's report and the final
    // contents of every shard.
    let (ctrl_report, ctrl_contents) = {
        let sharded = ShardedDatabase::partition(&template, spec.clone(), N_SHARDS).unwrap();
        let out = TxnScheduler::new(&sharded, Arc::default())
            .run(std::slice::from_ref(&txn))
            .unwrap();
        let report = out.results.into_iter().next().unwrap().unwrap();
        (report, shard_contents(&sharded))
    };

    // Calibrate each site's total crossings of one unfaulted protocol run
    // (armed far past any plausible threshold so nothing fires), so the
    // sweep can land faults in the *last* shard's commit — after earlier
    // shards already committed.
    let commit_sites = ["ivm::commit_view", "delta::apply_to", "storage::restore_table"];
    let mut site_hits = Vec::new();
    for site in commit_sites {
        let sharded = ShardedDatabase::partition(&template, spec.clone(), N_SHARDS).unwrap();
        let guard = fault::install(FaultPlan::new().error_at(site, u64::MAX));
        let out = TxnScheduler::new(&sharded, Arc::default())
            .run(std::slice::from_ref(&txn))
            .unwrap();
        assert!(out.results[0].is_ok(), "calibration run must pass");
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
                cross_shard_cell(
                    &template,
                    &spec,
                    N_SHARDS,
                    &txn,
                    &ctrl_report,
                    &ctrl_contents,
                    site,
                    action,
                    on_hit,
                );
            }
        }
    }
    // The dispatch-site panic fires before the transaction body runs: no
    // shard is ever touched, and the scheduler surfaces a typed
    // TaskPanicked.
    cross_shard_cell(
        &template,
        &spec,
        N_SHARDS,
        &txn,
        &ctrl_report,
        &ctrl_contents,
        "ivm::pool_dispatch",
        FaultAction::Panic,
        1,
    );
}

/// A body panic fails its transaction alone: the first transaction spans
/// several shards and dies at the dispatch site (inside its own
/// `catch_unwind`, before any shard is touched); after it, on *each* of
/// its shards, comes a later single-shard transaction. Every follower
/// must commit, and the shards must equal a no-fault run of the followers
/// alone.
#[test]
fn cross_shard_dispatch_panic_fails_alone_and_later_txns_commit() {
    quiet_injected_panics();
    let _serial = fault::serial_guard();
    let template = template();
    let spec = ShardSpec::new().with("Emp", vec![1]).with("Dept", vec![0]);
    const N_SHARDS: usize = 4;
    let raise = |dept: usize, emp: usize| {
        let row = |s: i64| {
            spacetime_storage::tuple![format!("emp{dept:05}_{emp}"), format!("dept{dept:05}"), s]
        };
        Delta::modify(row(100), row(180), 1)
    };
    // Employee 0 of every department in one transaction, then employee 1
    // of each department on its own: one follower per department, so at
    // least one after the spanning transaction on every shard it touches.
    let mut spanning = Delta::new();
    (0..5).for_each(|dept| spanning.merge(raise(dept, 0)));
    let followers: Vec<Txn> = (0..5).map(|dept| vec![("Emp".to_string(), raise(dept, 1))]).collect();
    let mut txns: Vec<Txn> = vec![vec![("Emp".to_string(), spanning)]];
    txns.extend(followers.iter().cloned());

    let control = ShardedDatabase::partition(&template, spec.clone(), N_SHARDS).unwrap();
    let ctrl = TxnScheduler::new(&control, Arc::default())
        .run(&followers)
        .unwrap();
    assert!(ctrl.results.iter().all(|r| r.is_ok()), "control followers must commit");

    let sharded = ShardedDatabase::partition(&template, spec, N_SHARDS).unwrap();
    assert!(
        sharded.route_delta("Emp", &txns[0][0].1).unwrap().len() >= 2,
        "fixture mis-built: the panicking transaction is single-shard"
    );
    let out = {
        // Transactions run in admission order, so the first hit of the
        // site is necessarily the spanning transaction's.
        let _guard = fault::install(FaultPlan::new().panic_at("ivm::pool_dispatch", 1));
        TxnScheduler::new(&sharded, Arc::default())
            .run(&txns)
            .unwrap()
    };
    assert!(
        matches!(&out.results[0], Err(IvmError::TaskPanicked { message })
            if message.contains("injected panic")),
        "expected the spanning transaction to panic, got {:?}",
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
    assert_eq!(
        shard_contents(&sharded),
        shard_contents(&control),
        "shards diverged from the followers-only control"
    );
    assert!(sharded.verify_all_shards().unwrap().is_empty());
}
