//! Property tests for sharded serving: under any random workload and any
//! shard count, [`TxnScheduler::run`] must agree with an unsharded
//! control database fed the same transactions in admission order — the
//! same transactions succeed, the shard union of every base and
//! materialized table equals the control's contents (the shard-locality
//! contract), and every shard equals its own recomputation.
//!
//! At one shard the scheduler degenerates to the unsharded database and
//! must reproduce its reports and spans *exactly*, charged I/O included.
//! At more shards the contents still match but per-shard I/O counts
//! legitimately differ (smaller tables), so only Ok/Err alignment is
//! asserted.

use std::sync::Arc;

use proptest::prelude::*;

use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_ivm::{Database, IvmError, PropagationMode, ShardedDatabase, Txn, TxnScheduler};
use spacetime_storage::ShardSpec;

const VIEWS: &[&str] = &[
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
];

/// The paper's integrity constraint: no department's payroll over budget.
const DEPT_CONSTRAINT: &str = "CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS ( \
    SELECT Dept.DName FROM Emp, Dept \
    WHERE Dept.DName = Emp.DName \
    GROUP BY Dept.DName, Budget \
    HAVING SUM(Salary) > Budget))";

/// Emp sharded by DName (column 1), Dept by DName (column 0): every view
/// joins or groups on DName, so partitioned serving is exact.
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

/// Every materialized table (roots and auxiliaries) across all engines.
fn materialized_tables(db: &Database) -> Vec<String> {
    let mut out: Vec<String> = db
        .engines()
        .iter()
        .flat_map(|e| e.materialized.values().cloned())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Fault plans are process-global and every scheduled transaction crosses
/// the `ivm::pool_dispatch` site, so in a `failpoints` build the tests
/// that must run unfaulted serialize with the one that installs a plan.
fn unfaulted() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(feature = "failpoints")]
    return Some(spacetime_storage::fault::serial_guard());
    #[cfg(not(feature = "failpoints"))]
    None
}

/// Every table of every shard of `a` equals its counterpart in `b`.
#[cfg(feature = "failpoints")]
fn assert_shards_identical(a: &ShardedDatabase, b: &ShardedDatabase, ctx: &str) {
    for s in 0..a.n_shards() {
        let (a, b) = (a.shard(s), b.shard(s));
        for (name, table) in a.catalog.iter() {
            assert_eq!(
                table.relation.data(),
                b.catalog.table(name).unwrap().relation.data(),
                "shard {s} table {name} diverged ({ctx})"
            );
        }
    }
}

/// The shard-locality contract: every base and materialized table's shard
/// union equals the unsharded control's contents, and every shard equals
/// its own recomputation.
fn assert_matches_control(sharded: &ShardedDatabase, control: &Database, ctx: &str) {
    let mut names: Vec<String> = vec!["Emp".into(), "Dept".into()];
    names.extend(materialized_tables(control));
    for name in &names {
        assert_eq!(
            &sharded.union_table(name).unwrap(),
            control.catalog.table(name).unwrap().relation.data(),
            "shard union of {name} diverged from the unsharded control ({ctx})"
        );
    }
    assert!(
        sharded.verify_all_shards().unwrap().is_empty(),
        "a shard diverged from recomputation ({ctx})"
    );
}

fn assert_serving_matches_control(
    departments: usize,
    emps_per_dept: usize,
    n_txns: usize,
    seed: u64,
    n_shards: usize,
    mode: PropagationMode,
) {
    let _unfaulted = unfaulted();
    let template = build_db(departments, emps_per_dept, mode);
    let txns: Vec<Txn> = mixed_workload(departments, emps_per_dept, n_txns, seed)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();

    // The unsharded control: same transactions, admission order. Tracing
    // is on everywhere in this sweep — every assert below doubles as
    // proof that span collection never perturbs reports or contents.
    let mut control = template.clone();
    control.set_tracing(true);
    let mut ctrl_traces = Vec::with_capacity(txns.len());
    let ctrl_reports: Vec<_> = txns
        .iter()
        .map(|txn| {
            let r = control.apply_transaction(txn.clone());
            ctrl_traces.push(control.take_trace());
            r
        })
        .collect();

    let mut sharded = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
    sharded.set_tracing(true);
    let out = TxnScheduler::new(&sharded, Arc::default())
        .run(&txns)
        .unwrap();

    let ctx = format!("{n_shards} shard(s), seed {seed}, {mode:?}");
    // Success alignment always, exact reports in the one-shard degenerate
    // case.
    for (i, (r, c)) in out.results.iter().zip(ctrl_reports.iter()).enumerate() {
        assert_eq!(
            r.is_ok(),
            c.is_ok(),
            "txn {i}: sharded and unsharded disagreed on success ({ctx})"
        );
        if n_shards == 1 {
            if let (Ok(r), Ok(c)) = (r, c) {
                assert_eq!(r, c, "txn {i}: one-shard report diverged from control ({ctx})");
            }
        }
    }
    assert_matches_control(&sharded, &control, &ctx);

    // Every committed slot carries a span and no failed slot does; at one
    // shard the sharded span *is* the unsharded transaction span — the
    // serving layer may annotate (notes) but not restructure.
    for (i, (t, c)) in out.traces.iter().zip(ctrl_traces.iter()).enumerate() {
        assert_eq!(
            t.is_some(),
            out.results[i].is_ok(),
            "txn {i}: committed slots must carry a span, failed slots must not ({ctx})"
        );
        if n_shards == 1 {
            assert_eq!(
                t.is_some(),
                c.is_some(),
                "txn {i}: one-shard span presence diverged from the control ({ctx})"
            );
            if let (Some(t), Some(c)) = (t, c) {
                assert!(
                    t.structural_eq(c),
                    "txn {i}: one-shard span diverged from the unsharded trace ({ctx})\n\
                     sharded: {}\ncontrol: {}",
                    t.structure_json(),
                    c.structure_json(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// Random workloads x shard counts: serving is exact against the
    /// unsharded control fed the same transactions in admission order.
    #[test]
    fn sharded_serving_matches_serial_replay_and_control(
        departments in 3usize..8,
        emps_per_dept in 2usize..5,
        n_txns in 8usize..25,
        seed in any::<u64>(),
        n_shards in 1usize..5,
        per_key in 0u8..2,
    ) {
        let mode = if per_key == 1 { PropagationMode::PerKey } else { PropagationMode::Fused };
        assert_serving_matches_control(departments, emps_per_dept, n_txns, seed, n_shards, mode);
    }
}

/// Deterministic smoke version (no proptest shrink noise in CI logs)
/// sweeping shard counts 1–4 at a fixed seed, under the production mode
/// and the per-key reference.
#[test]
fn sharded_serving_identical_at_fixed_seeds_and_widths() {
    for mode in [PropagationMode::PerKey, PropagationMode::Fused] {
        for n_shards in 1..=4 {
            assert_serving_matches_control(6, 4, 20, 0xC0FFEE, n_shards, mode);
        }
    }
}

/// A transaction that violates an integrity assertion must fail in the
/// same slot under sharded serving and the unsharded control — and a
/// *cross-shard* violator must leave every shard bit-identical to its
/// pre-transaction state (the commit protocol aborts the participants
/// that applied before the violating one), whether the violation is the
/// transaction's only update or its second.
#[test]
fn assertion_violations_align_across_serving_modes() {
    let _unfaulted = unfaulted();
    let mut template = build_db(6, 3, PropagationMode::Fused);
    template
        .execute_sql(
            DEPT_CONSTRAINT,
        )
        .unwrap();

    let raise = |dept: usize, to: i64| {
        let mut d = spacetime_delta::Delta::new();
        d.push_modify(
            spacetime_storage::tuple![
                format!("emp{dept:05}_0"),
                format!("dept{dept:05}"),
                100_i64
            ],
            spacetime_storage::tuple![format!("emp{dept:05}_0"), format!("dept{dept:05}"), to],
            1,
        );
        d
    };
    // Budgets are emps*200 = 600, per-dept salary sum starts at 300: a
    // raise to 180 passes (380), a raise to 1000 violates (1200).
    let benign: Txn = vec![("Emp".to_string(), raise(1, 180))];
    let violator_one_shard: Txn = vec![("Emp".to_string(), raise(0, 1000))];
    // Departments 2..6 are untouched by the other transactions, so the
    // cross-shard violator's `old` tuples are never stale.
    let violator_cross_shard: Txn = {
        let mut d = spacetime_delta::Delta::new();
        for dept in 2..6 {
            d.merge(raise(dept, 1000));
        }
        vec![("Emp".to_string(), d)]
    };
    // Undo the benign raise afterwards (180 back to 100).
    let unraise: Txn = {
        let mut d = spacetime_delta::Delta::new();
        d.push_modify(
            spacetime_storage::tuple!["emp00001_0", "dept00001", 180_i64],
            spacetime_storage::tuple!["emp00001_0", "dept00001", 100_i64],
            1,
        );
        vec![("Emp".to_string(), d)]
    };
    // A cross-shard transaction whose *second* update violates, and only
    // on the last participant: update 1 is a benign raise in departments
    // 2..6 (it lands on every participant, the last one included), update
    // 2 blows the budget of whichever of those departments lives on the
    // highest shard. Every earlier participant has applied cleanly and is
    // waiting with its journal open when the last one fails — they must
    // all roll back. Routing depends on the shard count, so the
    // transaction is built per sweep cell.
    let violator_second_update = |sharded: &ShardedDatabase| -> Txn {
        let shard_of = |dept: usize| sharded.route_delta("Emp", &raise(dept, 101)).unwrap()[0].0;
        let last = (2..6).max_by_key(|&d| shard_of(d)).unwrap();
        let mut benign = spacetime_delta::Delta::new();
        for dept in 2..6 {
            benign.merge(raise(dept, 120));
        }
        let mut blow = spacetime_delta::Delta::new();
        blow.push_modify(
            spacetime_storage::tuple![format!("emp{last:05}_1"), format!("dept{last:05}"), 100_i64],
            spacetime_storage::tuple![
                format!("emp{last:05}_1"),
                format!("dept{last:05}"),
                1000_i64
            ],
            1,
        );
        vec![("Emp".to_string(), benign), ("Emp".to_string(), blow)]
    };
    let expect_ok = [true, false, false, false, true];

    for n_shards in [1, 3, 4] {
        let sharded = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
        let txns = vec![
            benign.clone(),
            violator_one_shard.clone(),
            violator_cross_shard.clone(),
            violator_second_update(&sharded),
            unraise.clone(),
        ];
        if n_shards > 1 {
            let parts = sharded.route_delta("Emp", &txns[3][0].1).unwrap();
            assert!(
                parts.len() > 1,
                "fixture mis-built: second-update violator is single-shard"
            );
        }
        let mut control = template.clone();
        let ctrl_ok: Vec<bool> = txns
            .iter()
            .map(|txn| control.apply_transaction(txn.clone()).is_ok())
            .collect();
        assert_eq!(ctrl_ok, expect_ok, "fixture mis-built");

        let out = TxnScheduler::new(&sharded, Arc::default())
            .run(&txns)
            .unwrap();
        for (i, ok) in ctrl_ok.iter().enumerate() {
            assert_eq!(
                out.results[i].is_ok(),
                *ok,
                "txn {i}: sharded outcome diverged from control ({n_shards} shards)"
            );
            if !*ok {
                assert!(
                    matches!(&out.results[i], Err(IvmError::AssertionViolated { .. })),
                    "txn {i}: expected AssertionViolated ({n_shards} shards)"
                );
            }
        }
        // The violators rolled back across the whole footprint: the
        // final union matches the control (which also rejected them).
        assert_matches_control(&sharded, &control, &format!("{n_shards} shards"));
    }
}

/// A cross-shard-heavy stream over the paper schema with DeptConstraint
/// (budgets 600, salaries 100): about 70 % of the transactions move budget
/// between departments on 2–4 distinct shards, one `Dept` update per
/// participant, and every fourth of those ends in a raise that blows the
/// budget of the department on the *highest* shard — a violation that
/// shows only on the last participant, after every earlier one applied.
/// The rest are single-department raises within budget. Returns the
/// transactions, whether each is expected to commit, and how many span
/// shards; rolled-back transactions leave the tracked state untouched.
fn cross_shard_heavy(
    sharded: &ShardedDatabase,
    departments: usize,
    n_txns: usize,
    seed: u64,
) -> (Vec<Txn>, Vec<bool>, usize) {
    use spacetime_delta::Delta;
    use spacetime_storage::tuple;
    let budget = |d: usize, from: i64, to: i64| {
        let row = |b: i64| tuple![format!("dept{d:05}"), format!("mgr{d}"), b];
        ("Dept".to_string(), Delta::modify(row(from), row(to), 1))
    };
    let raise = |d: usize, from: i64, to: i64| {
        let row = |s: i64| tuple![format!("emp{d:05}_0"), format!("dept{d:05}"), s];
        ("Emp".to_string(), Delta::modify(row(from), row(to), 1))
    };
    let shard_of = |d: usize| sharded.route_delta("Dept", &budget(d, 600, 601).1).unwrap()[0].0;
    // Departments by shard, occupied shards only, ascending.
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); sharded.n_shards()];
    (0..departments).for_each(|d| by_shard[shard_of(d)].push(d));
    by_shard.retain(|depts| !depts.is_empty());
    assert!(by_shard.len() > 1, "every department hashed to one shard");
    let mut state = seed | 1;
    let mut next = move |n: usize| {
        // xorshift64: plenty for picking departments.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut budgets = vec![600_i64; departments];
    let mut salaries = vec![100_i64; departments];
    let (mut txns, mut expect_ok) = (Vec::new(), Vec::new());
    let mut multi = 0usize;
    for _ in 0..n_txns {
        if next(10) < 3 {
            let d = next(departments);
            let to = 100 + next(100) as i64 + 1;
            txns.push(vec![raise(d, salaries[d], to)]);
            expect_ok.push(true);
            salaries[d] = to;
            continue;
        }
        // One department on each of 2–4 distinct shards, ascending.
        let mut on: Vec<usize> = (0..by_shard.len()).collect();
        while on.len() > (2 + next(3)).min(by_shard.len()) {
            on.remove(next(on.len()));
        }
        let picked: Vec<usize> = on.iter().map(|&s| by_shard[s][next(by_shard[s].len())]).collect();
        let mut txn: Txn = picked.iter().map(|&d| budget(d, budgets[d], budgets[d] + 10)).collect();
        multi += 1;
        let violates = multi.is_multiple_of(4);
        if violates {
            let last = *picked.last().unwrap();
            txn.push(raise(last, salaries[last], 9_999));
        } else {
            picked.iter().for_each(|&d| budgets[d] += 10);
        }
        txns.push(txn);
        expect_ok.push(!violates);
    }
    (txns, expect_ok, multi)
}

/// The cross-shard commit protocol under the most strain: at least half
/// of the stream spans 2–4 shards and violations roll back from the last
/// participant, at 2, 4 and 8 shards. Outcomes must match the generator's
/// labels and the unsharded control, every committed slot must carry a
/// span, and the shard unions must equal the control's tables.
#[test]
fn cross_shard_heavy_sweep_matches_serial_replay_at_every_width() {
    let _unfaulted = unfaulted();
    const DEPARTMENTS: usize = 16;
    let mut template = build_db(DEPARTMENTS, 3, PropagationMode::Fused);
    template
        .execute_sql(
            DEPT_CONSTRAINT,
        )
        .unwrap();
    for n_shards in [2usize, 4, 8] {
        let ctx = format!("{n_shards} shards");
        let mut sharded = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
        sharded.set_tracing(true);
        let seed = 0x5EED ^ ((n_shards as u64) << 8);
        let (txns, expect_ok, multi) = cross_shard_heavy(&sharded, DEPARTMENTS, 48, seed);
        assert!(2 * multi >= txns.len(), "fixture is not cross-shard-heavy ({ctx})");
        assert!(expect_ok.contains(&false), "fixture has no violation ({ctx})");

        let mut control = template.clone();
        let ctrl_ok: Vec<bool> =
            txns.iter().map(|t| control.apply_transaction(t.clone()).is_ok()).collect();
        assert_eq!(ctrl_ok, expect_ok, "control disagrees with the generator ({ctx})");

        let out = TxnScheduler::new(&sharded, Arc::default())
            .run(&txns)
            .unwrap();
        assert_eq!(out.stats.cross_shard_txns as usize, multi, "{ctx}");
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.is_ok(), expect_ok[i], "txn {i}: unexpected outcome {r:?} ({ctx})");
            if let Err(e) = r {
                assert!(matches!(e, IvmError::AssertionViolated { .. }), "txn {i}: {e} ({ctx})");
            }
            assert_eq!(out.traces[i].is_some(), r.is_ok(), "txn {i}: span presence ({ctx})");
        }
        assert_matches_control(&sharded, &control, &ctx);
    }
}

/// Regression: a dispatch-site panic (`ivm::pool_dispatch`, fired inside
/// one transaction's own `catch_unwind` before its body) that kills one
/// transaction mid-run must leave every other transaction's work
/// untouched — the run goes on, the panicked transaction's shards are
/// bit-identical to never having run it, and the final state matches a
/// no-fault run of the surviving transactions.
#[cfg(feature = "failpoints")]
#[test]
fn mid_run_dispatch_panic_leaves_other_shards_untouched() {
    use spacetime_storage::fault::{self, FaultPlan};

    // Silence the injected panic's default hook output.
    {
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
    let _serial = fault::serial_guard();

    let template = build_db(4, 3, PropagationMode::Fused);
    let txns: Vec<Txn> = mixed_workload(4, 3, 8, 31)
        .into_iter()
        .map(|(table, delta)| vec![(table, delta)])
        .collect();
    let n_shards = 4;

    let sharded = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
    let out = {
        let _guard = fault::install(FaultPlan::new().panic_at("ivm::pool_dispatch", 1));
        TxnScheduler::new(&sharded, Arc::default())
            .run(&txns)
            .unwrap()
    };
    let panicked: Vec<usize> = out
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Err(IvmError::TaskPanicked { .. })))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(panicked.len(), 1, "exactly one transaction hit the panic");
    let j = panicked[0];

    // A no-fault control fed everything except the killed transaction:
    // the faulted run's survivors must have produced exactly this state.
    let surviving: Vec<Txn> = txns
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != j)
        .map(|(_, t)| t.clone())
        .collect();
    let control = ShardedDatabase::partition(&template, shard_spec(), n_shards).unwrap();
    let ctrl = TxnScheduler::new(&control, Arc::default())
        .run(&surviving)
        .unwrap();
    for (slot, i) in (0..txns.len()).filter(|&i| i != j).enumerate() {
        assert_eq!(
            out.results[i].is_ok(),
            ctrl.results[slot].is_ok(),
            "txn {i}: survivor outcome diverged from the no-fault control"
        );
    }
    assert_shards_identical(&sharded, &control, "after a mid-run panic");
    assert!(sharded.verify_all_shards().unwrap().is_empty());
}
