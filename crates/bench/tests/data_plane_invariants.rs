//! Batching and kernel fusion are wall-clock optimisations only: they
//! must never change a delta or a charged I/O (DESIGN.md §10, §15). One
//! `mixed_workload` stream goes through the one data plane on three
//! scenarios, and per scenario this asserts
//!
//! * every materialized view equals its recomputation from the base
//!   tables after every transaction;
//! * the summed counters equal the committed goldens (page I/Os are
//!   invariants, not targets: a ±1 is a behaviour change);
//! * the heap allocations per transaction are within ±1 % of the
//!   committed figure — counts are workload-determined, so a drift either
//!   way is a change to explain (and re-record), on any host.
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
use spacetime_ivm::{verify_all_views, Database, ViewSelection};

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
    /// Committed `io_total`, `paper_cost_io`, `queries_posed`.
    golden: [u64; 3],
    /// Committed fused allocations per transaction. Each was last
    /// re-recorded downward when posed queries began to be resolved once,
    /// at track compile time: a derived query no longer collects its op's
    /// children into a `Vec` nor splits its binding into per-side column
    /// and key vectors on every execution. The comment on each figure
    /// gives the earlier value and what it lost.
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
        // 114.05 earlier (109.475 measured): -4.575 per-query plan `Vec`s.
        fused_allocs_per_txn: 109.475,
    },
    Scenario {
        name: "scaling",
        departments: 100,
        emps_per_dept: 10,
        transactions: 80,
        wide: false,
        golden: [7864, 5938, 964],
        // 165.325 earlier (161.05 measured): -4.275 per-query plan `Vec`s.
        fused_allocs_per_txn: 161.05,
    },
    Scenario {
        name: "wide",
        departments: 40,
        emps_per_dept: 6,
        transactions: 50,
        wide: true,
        golden: [5794, 3327, 571],
        // 226.74 earlier (221.88 measured): -4.86 per-query plan `Vec`s.
        fused_allocs_per_txn: 221.88,
    },
];

fn build_db(s: &Scenario) -> Database {
    if s.wide {
        return build_wide_pipeline_db(s.departments, s.emps_per_dept);
    }
    let mut db = paper_schema_db();
    db.set_view_selection(ViewSelection::Exhaustive);
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

/// The running totals: the three golden counters and allocations.
#[derive(Default)]
struct Totals {
    counters: [u64; 3],
    allocs: u64,
}

impl Totals {
    fn apply(&mut self, db: &mut Database, table: &str, delta: Delta) {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let r = db.apply_delta(table, delta).expect("apply_delta");
        self.allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        for (sum, x) in self
            .counters
            .iter_mut()
            .zip([r.total(), r.paper_cost(), r.queries_posed])
        {
            *sum += x;
        }
    }
}

#[test]
fn per_key_and_fused_agree_hit_the_goldens_and_hold_the_allocation_ceiling() {
    for s in &SCENARIOS {
        let name = s.name;
        let mut db = build_db(s);
        let mut totals = Totals::default();
        for (table, delta) in mixed_workload(s.departments, s.emps_per_dept, s.transactions, SEED) {
            totals.apply(&mut db, &table, delta.clone());
            assert!(
                verify_all_views(&db).expect("recompute").is_empty(),
                "{name}: a view diverged from its recomputation after {table} delta {delta:?}"
            );
        }

        assert_eq!(
            totals.counters, s.golden,
            "{name}: io_total/paper_cost_io/queries_posed"
        );

        let per_txn = totals.allocs as f64 / s.transactions as f64;
        assert!(
            (per_txn / s.fused_allocs_per_txn - 1.0).abs() <= 0.01,
            "{name}: fused allocates {per_txn:.1}/txn, committed {:.1} (±1 %)",
            s.fused_allocs_per_txn
        );
        eprintln!("{name}: allocs/txn fused {per_txn:.1}");
    }
}
