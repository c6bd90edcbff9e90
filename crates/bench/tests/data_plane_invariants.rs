//! Batching and kernel fusion are wall-clock optimisations only: they
//! must never change a delta or a charged I/O (DESIGN.md §10, §15). One
//! `mixed_workload` stream goes through two identical databases — the
//! `PerKey` reference and the production `Fused` mode — on three
//! scenarios, and per scenario this asserts
//!
//! * every transaction's `UpdateReport` is equal across the modes, every
//!   materialized table ends with identical contents, and both verify
//!   against full recomputation;
//! * the summed counters equal the committed goldens (page I/Os are
//!   invariants, not targets: a ±1 is a behaviour change);
//! * the fused path's heap allocations per transaction are within ±1 % of
//!   the committed figure and below the per-key figure — counts are
//!   workload-determined, so a drift either way is a change to explain
//!   (and re-record), on any host.
//!
//! The counter is a `#[global_allocator]` over the whole process, so this
//! binary holds exactly one `#[test]`: nothing else may allocate while a
//! transaction is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spacetime_bench::scenarios::build_wide_pipeline_db;
use spacetime_bench::workload::{load_paper_data, mixed_workload, paper_schema_db};
use spacetime_cost::TransactionType;
use spacetime_delta::Delta;
use spacetime_ivm::{verify_all_views, Database, PropagationMode, UpdateReport, ViewSelection};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every operation to `System`; the counter is a pure
// side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const SEED: u64 = 9406; // SIGMOD '96

/// One of each propagation rule: a join + aggregate + HAVING (the paper's
/// ProblemDept), a plain aggregate, an SPJ join, a DISTINCT projection.
const VIEWS: [&str; 4] = [
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

struct Scenario {
    name: &'static str,
    departments: usize,
    emps_per_dept: usize,
    transactions: usize,
    /// The ten-view setup of `build_wide_pipeline_db` instead of [`VIEWS`].
    wide: bool,
    /// Committed `io_total`, `paper_cost_io`, `queries_posed`, both modes.
    golden: [u64; 3],
    /// Committed fused allocations per transaction. Each was last
    /// re-recorded downward when propagation stopped collecting each
    /// group's delta-carrying children into a `Vec`; the comment on each
    /// figure gives the earlier value and what it lost.
    fused_allocs_per_txn: f64,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "paper",
        departments: 20,
        emps_per_dept: 5,
        transactions: 40,
        wide: false,
        golden: [1841, 1244, 272],
        // 125.0 earlier: -7.4 carrier `Vec`s.
        fused_allocs_per_txn: 117.6,
    },
    Scenario {
        name: "scaling",
        departments: 100,
        emps_per_dept: 10,
        transactions: 80,
        wide: false,
        golden: [7864, 5938, 964],
        // 176.3 earlier: -7.3 carrier `Vec`s.
        fused_allocs_per_txn: 169.0,
    },
    Scenario {
        name: "wide",
        departments: 40,
        emps_per_dept: 6,
        transactions: 50,
        wide: true,
        golden: [5794, 3327, 571],
        // 242.5 earlier: -11.7 carrier `Vec`s.
        fused_allocs_per_txn: 230.8,
    },
];

fn build_db(s: &Scenario, mode: PropagationMode) -> Database {
    if s.wide {
        let mut db = build_wide_pipeline_db(s.departments, s.emps_per_dept);
        db.set_propagation_mode(mode);
        return db;
    }
    let mut db = paper_schema_db();
    db.set_view_selection(ViewSelection::Exhaustive);
    db.set_propagation_mode(mode);
    load_paper_data(&mut db, s.departments, s.emps_per_dept);
    db.declare_workload(vec![
        TransactionType::modify(">Emp", "Emp", 1.0),
        TransactionType::modify(">Dept", "Dept", 1.0),
    ]);
    for view in VIEWS {
        db.execute_sql(view).expect("view DDL");
    }
    db
}

/// Every table name materialized by any engine (roots and auxiliaries).
fn materialized_names(db: &Database) -> Vec<String> {
    let mut names: Vec<String> = db
        .engines()
        .iter()
        .flat_map(|e| e.materialized.values().cloned())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// One mode's running totals: the three golden counters and allocations.
#[derive(Default)]
struct Totals {
    counters: [u64; 3],
    allocs: u64,
}

impl Totals {
    fn apply(&mut self, db: &mut Database, table: &str, delta: Delta) -> UpdateReport {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let r = db.apply_delta(table, delta).expect("apply_delta");
        self.allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        for (sum, x) in self.counters.iter_mut().zip([r.total(), r.paper_cost(), r.queries_posed]) {
            *sum += x;
        }
        r
    }
}

#[test]
fn per_key_and_fused_agree_hit_the_goldens_and_hold_the_allocation_ceiling() {
    for s in &SCENARIOS {
        let name = s.name;
        let mut db_pk = build_db(s, PropagationMode::PerKey);
        let mut db_fu = build_db(s, PropagationMode::Fused);
        let (mut pk, mut fu) = (Totals::default(), Totals::default());
        for (table, delta) in mixed_workload(s.departments, s.emps_per_dept, s.transactions, SEED) {
            let r_pk = pk.apply(&mut db_pk, &table, delta.clone());
            let r_fu = fu.apply(&mut db_fu, &table, delta.clone());
            assert_eq!(r_pk, r_fu, "{name}: reports diverged on {table} delta {delta:?}");
        }

        let names = materialized_names(&db_pk);
        assert_eq!(names, materialized_names(&db_fu), "{name}: materialized sets differ");
        for table in &names {
            assert_eq!(
                db_pk.catalog.table(table).expect("per-key table").relation.data(),
                db_fu.catalog.table(table).expect("fused table").relation.data(),
                "{name}: materialized table {table} diverged between modes"
            );
        }
        for db in [&db_pk, &db_fu] {
            assert!(verify_all_views(db).expect("recompute").is_empty(), "{name}: stale view");
        }

        assert_eq!(pk.counters, s.golden, "{name}: per-key io_total/paper_cost_io/queries_posed");
        assert_eq!(fu.counters, s.golden, "{name}: fused io_total/paper_cost_io/queries_posed");

        let per_txn = |t: &Totals| t.allocs as f64 / s.transactions as f64;
        assert!(
            (per_txn(&fu) / s.fused_allocs_per_txn - 1.0).abs() <= 0.01,
            "{name}: fused allocates {:.1}/txn, committed {:.1} (±1 %)",
            per_txn(&fu),
            s.fused_allocs_per_txn
        );
        assert!(
            per_txn(&fu) < per_txn(&pk),
            "{name}: fused allocates {:.1}/txn, no less than per-key's {:.1}",
            per_txn(&fu),
            per_txn(&pk)
        );
        eprintln!("{name}: allocs/txn fused {:.1} per-key {:.1}", per_txn(&fu), per_txn(&pk));
    }
}
