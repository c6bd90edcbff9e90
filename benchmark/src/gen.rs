//! Workload generators.
//!
//! Frozen copies of the `mixed_workload` / `client_workload` logic of
//! `crates/bench` (not imports, so a later PR cannot move the load), on the
//! harness's own [`Rng`]. The generators know nothing of the product: they
//! emit plain row operations against the paper's Emp/Dept schema, and
//! `sut.rs` turns those into the product's deltas.
//!
//! Every generator tracks the live roster, so every row operation names the
//! exact pre-state of its tuple and no transaction touches a tuple twice.

use std::collections::{BTreeSet, HashMap};

use crate::rng::Rng;

/// Every employee starts on this salary; a department's starting budget is
/// `emps_per_dept * INITIAL_BUDGET_PER_EMP` (as `load_paper_data` loads it).
pub const INITIAL_SALARY: i64 = 100;
pub const INITIAL_BUDGET_PER_EMP: i64 = 200;

/// What a transaction does, as the generator labelled it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Kind {
    Modify,
    Hire,
    Leave,
    Budget,
    Raise,
    Transfer,
    Violate,
    Bulk,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Modify,
        Kind::Hire,
        Kind::Leave,
        Kind::Budget,
        Kind::Raise,
        Kind::Transfer,
        Kind::Violate,
        Kind::Bulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Modify => "modify",
            Kind::Hire => "hire",
            Kind::Leave => "leave",
            Kind::Budget => "budget",
            Kind::Raise => "raise",
            Kind::Transfer => "transfer",
            Kind::Violate => "violate",
            Kind::Bulk => "bulk",
        }
    }
}

/// An employee's primary key: loaded with the data, or hired by a client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum EmpId {
    Seed { dept: u32, slot: u32 },
    Hire { client: u16, serial: u32 },
}

pub fn emp_name(id: EmpId) -> String {
    match id {
        EmpId::Seed { dept, slot } => format!("emp{dept:05}_{slot}"),
        EmpId::Hire { client, serial } => format!("hire{client:02}x{serial:06}"),
    }
}

pub fn dept_name(d: u32) -> String {
    format!("dept{d:05}")
}

pub fn mgr_name(d: u32) -> String {
    format!("mgr{d}")
}

/// One Emp tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Emp {
    pub id: EmpId,
    pub dept: u32,
    pub salary: i64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowOp {
    Insert(Emp),
    Delete(Emp),
    Modify {
        old: Emp,
        new_salary: i64,
    },
    /// A Dept tuple's budget changes (the manager never does).
    Budget {
        dept: u32,
        old: i64,
        new: i64,
    },
}

/// The row operations of one transaction on one table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Update {
    pub ops: Vec<RowOp>,
}

impl Update {
    pub fn on_dept(&self) -> bool {
        matches!(self.ops.first(), Some(RowOp::Budget { .. }))
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GenTxn {
    pub kind: Kind,
    pub client: u16,
    /// The generator knows the last update breaches `DeptConstraint`: the
    /// program must reject the transaction and leave no trace of it.
    pub expect_violation: bool,
    pub updates: Vec<Update>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub depts: u32,
    pub emps_per_dept: u32,
}

/// The state a stream must leave behind.
pub struct FinalState {
    pub emps: Vec<Emp>,
    /// `(dept, budget)` for every department.
    pub budgets: Vec<(u32, i64)>,
}

#[derive(Clone, Copy)]
struct Rules {
    /// `DeptConstraint` is declared: ordinary transactions must keep every
    /// department's payroll within its budget.
    constrained: bool,
    /// Add 10% two-update transfers and 5% expected violations.
    serve_mix: bool,
}

impl Rules {
    const UNCONSTRAINED: Rules = Rules {
        constrained: false,
        serve_mix: false,
    };
}

/// One closed-loop client: a department domain, its roster, and its RNG.
struct Client {
    id: u16,
    rng: Rng,
    rules: Rules,
    depts: Vec<u32>,
    names: Vec<EmpId>,
    emps: HashMap<EmpId, (u32, i64)>,
    budget: HashMap<u32, i64>,
    payroll: HashMap<u32, i64>,
    hired: u32,
}

impl Client {
    fn new(seed: u64, id: u16, clients: u16, shape: Shape, rules: Rules) -> Client {
        let depts: Vec<u32> = (0..shape.depts)
            .filter(|d| d % clients as u32 == id as u32)
            .collect();
        assert!(!depts.is_empty(), "every client needs a department");
        let mut names = Vec::with_capacity(depts.len() * shape.emps_per_dept as usize);
        let mut emps = HashMap::new();
        let mut budget = HashMap::new();
        let mut payroll = HashMap::new();
        for &d in &depts {
            for slot in 0..shape.emps_per_dept {
                let e = EmpId::Seed { dept: d, slot };
                emps.insert(e, (d, INITIAL_SALARY));
                names.push(e);
            }
            budget.insert(d, shape.emps_per_dept as i64 * INITIAL_BUDGET_PER_EMP);
            payroll.insert(d, shape.emps_per_dept as i64 * INITIAL_SALARY);
        }
        Client {
            id,
            rng: Rng::new(seed ^ ((id as u64 + 1) << 32)),
            rules,
            depts,
            names,
            emps,
            budget,
            payroll,
            hired: 0,
        }
    }

    fn headroom(&self, d: u32) -> i64 {
        self.budget[&d] - self.payroll[&d]
    }

    fn pick_dept(&mut self) -> u32 {
        self.depts[self.rng.below(self.depts.len() as u64) as usize]
    }

    fn pick_emp(&mut self) -> Emp {
        let id = self.names[self.rng.below(self.names.len() as u64) as usize];
        let (dept, salary) = self.emps[&id];
        Emp { id, dept, salary }
    }

    fn txn(&self, kind: Kind, updates: Vec<Update>) -> GenTxn {
        GenTxn {
            kind,
            client: self.id,
            expect_violation: false,
            updates,
        }
    }

    fn one(&self, kind: Kind, op: RowOp) -> GenTxn {
        self.txn(kind, vec![Update { ops: vec![op] }])
    }

    fn set_salary(&mut self, e: Emp, new_salary: i64) -> RowOp {
        self.emps.insert(e.id, (e.dept, new_salary));
        *self.payroll.get_mut(&e.dept).expect("dept") += new_salary - e.salary;
        RowOp::Modify { old: e, new_salary }
    }

    fn set_budget(&mut self, dept: u32, mut new: i64) -> RowOp {
        let old = self.budget[&dept];
        if new == old {
            new += 1;
        }
        self.budget.insert(dept, new);
        RowOp::Budget { dept, old, new }
    }

    fn add_emp(&mut self, dept: u32, salary: i64) -> RowOp {
        let id = EmpId::Hire {
            client: self.id,
            serial: self.hired,
        };
        self.hired += 1;
        self.emps.insert(id, (dept, salary));
        self.names.push(id);
        *self.payroll.get_mut(&dept).expect("dept") += salary;
        RowOp::Insert(Emp { id, dept, salary })
    }

    /// A budget the constraint allows: somewhere above the payroll.
    fn roomy_budget(&mut self, dept: u32) -> i64 {
        self.payroll[&dept] + 1 + self.rng.below(2_000) as i64
    }

    /// What a constrained client does when the drawn operation would
    /// breach `DeptConstraint`: it asks for the budget first.
    fn raise_budget(&mut self, dept: u32) -> GenTxn {
        let new = self.roomy_budget(dept);
        let op = self.set_budget(dept, new);
        self.one(Kind::Budget, op)
    }

    fn next(&mut self) -> GenTxn {
        if self.rules.serve_mix {
            let r = self.rng.below(100);
            if r < 5 && self.names.len() >= 2 {
                return self.violate();
            }
            if (5..15).contains(&r) {
                return self.transfer();
            }
        }
        let mut roll = self.rng.below(100);
        if (45..75).contains(&roll) && self.names.len() < 2 {
            roll = 0; // too few employees to hire/fire around: modify instead
        }
        if roll >= 85 && self.names.len() < 4 {
            roll = 0; // not enough staff for a broad raise: modify instead
        }
        match roll {
            0..=44 => self.modify(),
            45..=59 => self.hire(),
            60..=74 => self.leave(),
            75..=84 => self.budget_change(),
            _ => self.raise(),
        }
    }

    /// Salary modification (the paper's `>Emp`).
    fn modify(&mut self) -> GenTxn {
        let e = self.pick_emp();
        let mut new_salary = self.rng.range(50, 250);
        if new_salary == e.salary {
            new_salary += 1;
        }
        if self.rules.constrained && new_salary - e.salary > self.headroom(e.dept) {
            return self.raise_budget(e.dept);
        }
        let op = self.set_salary(e, new_salary);
        self.one(Kind::Modify, op)
    }

    fn hire(&mut self) -> GenTxn {
        let dept = self.pick_dept();
        let salary = self.rng.range(50, 250);
        if self.rules.constrained && salary > self.headroom(dept) {
            return self.raise_budget(dept);
        }
        let op = self.add_emp(dept, salary);
        self.one(Kind::Hire, op)
    }

    fn leave(&mut self) -> GenTxn {
        let i = self.rng.below(self.names.len() as u64) as usize;
        let id = self.names.swap_remove(i);
        let (dept, salary) = self.emps.remove(&id).expect("rostered");
        *self.payroll.get_mut(&dept).expect("dept") -= salary;
        self.one(Kind::Leave, RowOp::Delete(Emp { id, dept, salary }))
    }

    /// Budget change (the paper's `>Dept`).
    fn budget_change(&mut self) -> GenTxn {
        let dept = self.pick_dept();
        let new = if self.rules.constrained {
            self.roomy_budget(dept)
        } else {
            self.rng.range(500, 3_000)
        };
        let op = self.set_budget(dept, new);
        self.one(Kind::Budget, op)
    }

    /// Across-the-board raise: one transaction modifying up to sixteen
    /// distinct employees at once.
    fn raise(&mut self) -> GenTxn {
        let k = (self.rng.range(8, 17) as usize).min(self.names.len());
        let mut picked = BTreeSet::new();
        while picked.len() < k {
            picked.insert(self.rng.below(self.names.len() as u64) as usize);
        }
        let first_dept = self.emps[&self.names[*picked.iter().next().expect("k >= 1")]].0;
        let mut ops = Vec::with_capacity(k);
        for i in picked {
            let id = self.names[i];
            let (dept, salary) = self.emps[&id];
            let inc = self.rng.range(5, 25);
            if self.rules.constrained && inc > self.headroom(dept) {
                continue;
            }
            ops.push(self.set_salary(Emp { id, dept, salary }, salary + inc));
        }
        if ops.is_empty() {
            return self.raise_budget(first_dept);
        }
        self.txn(Kind::Raise, vec![Update { ops }])
    }

    /// Hire into one department and re-budget another, as one transaction.
    fn transfer(&mut self) -> GenTxn {
        let d1 = self.pick_dept();
        let salary = self.rng.range(50, 250);
        if self.rules.constrained && salary > self.headroom(d1) {
            return self.raise_budget(d1);
        }
        let hire = self.add_emp(d1, salary);
        let d2 = self.pick_dept();
        let new = if self.rules.constrained {
            self.roomy_budget(d2)
        } else {
            self.rng.range(500, 3_000)
        };
        let rebudget = self.set_budget(d2, new);
        self.txn(
            Kind::Transfer,
            vec![
                Update { ops: vec![hire] },
                Update {
                    ops: vec![rebudget],
                },
            ],
        )
    }

    /// A transaction whose last update breaches `DeptConstraint`: a budget
    /// cut below the payroll, or a raise above the budget. Half the time it
    /// follows a harmless pay cut in the same transaction, which the
    /// program must then roll back. The client's state does not move.
    fn violate(&mut self) -> GenTxn {
        let style = self.rng.below(4);
        let vi = self.rng.below(self.names.len() as u64) as usize;
        let id = self.names[vi];
        let (dept, salary) = self.emps[&id];
        let mut payroll = self.payroll[&dept];
        let mut updates = Vec::with_capacity(2);
        if style & 2 != 0 {
            let mut j = self.rng.below(self.names.len() as u64 - 1) as usize;
            if j >= vi {
                j += 1;
            }
            let other = self.names[j];
            let (odept, osalary) = self.emps[&other];
            let cut = 1 + self.rng.below(20) as i64;
            if odept == dept {
                payroll -= cut;
            }
            updates.push(Update {
                ops: vec![RowOp::Modify {
                    old: Emp {
                        id: other,
                        dept: odept,
                        salary: osalary,
                    },
                    new_salary: osalary - cut,
                }],
            });
        }
        let budget = self.budget[&dept];
        let breach = if style & 1 != 0 {
            RowOp::Budget {
                dept,
                old: budget,
                new: payroll - 1,
            }
        } else {
            RowOp::Modify {
                old: Emp { id, dept, salary },
                new_salary: salary + (budget - payroll) + 1 + self.rng.below(100) as i64,
            }
        };
        updates.push(Update { ops: vec![breach] });
        GenTxn {
            kind: Kind::Violate,
            client: self.id,
            expect_violation: true,
            updates,
        }
    }

    /// One Emp delta of `rows` rows: 60% modifies, 20% inserts, 20% deletes,
    /// every row a different employee.
    fn bulk(&mut self, rows: usize) -> GenTxn {
        let n_ins = rows / 5;
        let n_del = (rows / 5).min(self.names.len() / 4);
        let n_mod = (rows - n_ins - rows / 5).min(self.names.len() / 2);
        let mut picked = BTreeSet::new();
        while picked.len() < n_mod + n_del {
            picked.insert(self.rng.below(self.names.len() as u64) as usize);
        }
        let picked: Vec<usize> = picked.into_iter().collect();
        let mut ops = Vec::with_capacity(rows);
        // Deleting every (n_mod+n_del)/n_del-th pick spreads deletes over
        // the roster; descending order keeps `swap_remove` indices valid.
        let stride = (n_mod + n_del) / n_del.max(1);
        let mut dels = Vec::with_capacity(n_del);
        for (k, &i) in picked.iter().enumerate() {
            let id = self.names[i];
            let (dept, salary) = self.emps[&id];
            let e = Emp { id, dept, salary };
            if dels.len() < n_del && k % stride == stride - 1 {
                dels.push(i);
                self.emps.remove(&id);
                *self.payroll.get_mut(&dept).expect("dept") -= salary;
                ops.push(RowOp::Delete(e));
            } else {
                let mut new_salary = self.rng.range(50, 250);
                if new_salary == salary {
                    new_salary += 1;
                }
                ops.push(self.set_salary(e, new_salary));
            }
        }
        for &i in dels.iter().rev() {
            self.names.swap_remove(i);
        }
        for _ in 0..n_ins {
            let dept = self.pick_dept();
            let salary = self.rng.range(50, 250);
            ops.push(self.add_emp(dept, salary));
        }
        self.txn(Kind::Bulk, vec![Update { ops }])
    }

    fn drain_into(self, emps: &mut Vec<Emp>, budgets: &mut Vec<(u32, i64)>) {
        emps.extend(
            self.emps
                .into_iter()
                .map(|(id, (dept, salary))| Emp { id, dept, salary }),
        );
        budgets.extend(self.budget);
    }
}

/// A lazily generated stream. The harness pulls it a chunk at a time,
/// outside the clock, so its own memory stays out of `peak_rss_mb`; the
/// same constructor arguments give the same transactions however they are
/// chunked.
pub struct Source {
    clients: Vec<Client>,
    /// `Some(sizes)`: every transaction is one bulk delta.
    bulk: Option<BulkSizes>,
    emitted: usize,
    hash: Fnv,
}

/// How many rows the deltas of a bulk stream have.
#[derive(Clone, Copy)]
pub struct BulkSizes {
    pub rows: usize,
    /// The last of every `large_every` transactions has `large_rows` rows
    /// instead; 0 for a stream of one size.
    pub large_every: usize,
    pub large_rows: usize,
}

impl BulkSizes {
    fn of(&self, emitted: usize) -> usize {
        if self.large_every > 0 && (emitted + 1).is_multiple_of(self.large_every) {
            self.large_rows
        } else {
            self.rows
        }
    }
}

impl Source {
    fn new(seed: u64, shape: Shape, clients: u16, rules: Rules, bulk: Option<BulkSizes>) -> Source {
        Source {
            clients: (0..clients)
                .map(|id| Client::new(seed, id, clients, shape, rules))
                .collect(),
            bulk,
            emitted: 0,
            hash: Fnv::new(),
        }
    }

    /// `point_engine`: one client over every department, single-delta
    /// transactions — modify 45 / hire 15 / leave 15 / budget 10 / raise 15.
    pub fn point(seed: u64, shape: Shape) -> Source {
        Source::new(seed, shape, 1, Rules::UNCONSTRAINED, None)
    }

    /// One client, transactions of `rows` Emp rows each (the probes).
    pub fn bulk(seed: u64, shape: Shape, rows: usize) -> Source {
        let sizes = BulkSizes {
            rows,
            large_every: 0,
            large_rows: 0,
        };
        Source::bulk_mixed(seed, shape, sizes)
    }

    /// `bulk_engine`: one client, one Emp delta per transaction, every
    /// `large_every`-th a large one.
    pub fn bulk_mixed(seed: u64, shape: Shape, sizes: BulkSizes) -> Source {
        Source::new(seed, shape, 1, Rules::UNCONSTRAINED, Some(sizes))
    }

    /// `serve_mem` / `serve_durable`: `clients` closed-loop clients over
    /// pairwise-disjoint department domains (`d % clients == client`), one
    /// transaction each per round, round-major. 85% the point mix, 10%
    /// transfers, 5% expected violations, all under `DeptConstraint`.
    ///
    /// Any interleaving that keeps each client's own order is a valid
    /// sequence, because no two clients share a tuple.
    pub fn serve(seed: u64, shape: Shape, clients: u16) -> Source {
        let rules = Rules {
            constrained: true,
            serve_mix: true,
        };
        Source::new(seed, shape, clients, rules, None)
    }

    /// The next `n` transactions, clients taking turns.
    pub fn take(&mut self, n: usize) -> Vec<GenTxn> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.emitted % self.clients.len();
            let c = &mut self.clients[k];
            let t = match self.bulk {
                Some(sizes) => c.bulk(sizes.of(self.emitted)),
                None => c.next(),
            };
            self.hash.txn(&t);
            self.emitted += 1;
            out.push(t);
        }
        out
    }

    /// FNV-1a over a canonical encoding of everything taken so far.
    pub fn hash(&self) -> u64 {
        self.hash.0
    }

    /// The state the transactions taken so far must leave behind.
    pub fn finish(self) -> FinalState {
        let mut emps = Vec::new();
        let mut budgets = Vec::new();
        for c in self.clients {
            c.drain_into(&mut emps, &mut budgets);
        }
        emps.sort_by_key(|e| e.id);
        budgets.sort();
        FinalState { emps, budgets }
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn emp(&mut self, e: &Emp) {
        match e.id {
            EmpId::Seed { dept, slot } => {
                self.put(1);
                self.put(dept as u64);
                self.put(slot as u64);
            }
            EmpId::Hire { client, serial } => {
                self.put(2);
                self.put(client as u64);
                self.put(serial as u64);
            }
        }
        self.put(e.dept as u64);
        self.put(e.salary as u64);
    }

    fn txn(&mut self, t: &GenTxn) {
        self.put(t.kind as u64);
        self.put(t.client as u64);
        self.put(t.expect_violation as u64);
        self.put(t.updates.len() as u64);
        for u in &t.updates {
            self.put(u.ops.len() as u64);
            for op in &u.ops {
                match op {
                    RowOp::Insert(e) => {
                        self.put(10);
                        self.emp(e);
                    }
                    RowOp::Delete(e) => {
                        self.put(11);
                        self.emp(e);
                    }
                    RowOp::Modify { old, new_salary } => {
                        self.put(12);
                        self.emp(old);
                        self.put(*new_salary as u64);
                    }
                    RowOp::Budget { dept, old, new } => {
                        self.put(13);
                        self.put(*dept as u64);
                        self.put(*old as u64);
                        self.put(*new as u64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole stream at once (the workloads pull chunks).
    struct Stream {
        txns: Vec<GenTxn>,
        hash: u64,
        end: FinalState,
    }

    fn collect(mut source: Source, count: usize) -> Stream {
        let txns = source.take(count);
        let hash = source.hash();
        Stream {
            txns,
            hash,
            end: source.finish(),
        }
    }

    /// The slowest possible reference: every tuple in a map, every check a
    /// full scan. Shares no bookkeeping with the generator.
    struct Model {
        emps: HashMap<EmpId, (u32, i64)>,
        budgets: HashMap<u32, i64>,
    }

    impl Model {
        fn new(shape: Shape) -> Model {
            let mut emps = HashMap::new();
            let mut budgets = HashMap::new();
            for dept in 0..shape.depts {
                for slot in 0..shape.emps_per_dept {
                    emps.insert(EmpId::Seed { dept, slot }, (dept, INITIAL_SALARY));
                }
                budgets.insert(dept, shape.emps_per_dept as i64 * INITIAL_BUDGET_PER_EMP);
            }
            Model { emps, budgets }
        }

        /// Apply one update, insisting on the exact pre-state of each tuple
        /// and that no tuple is touched twice.
        fn apply(&mut self, u: &Update) {
            let mut touched = BTreeSet::new();
            for op in &u.ops {
                match *op {
                    RowOp::Insert(e) => {
                        assert!(touched.insert(e.id), "tuple touched twice");
                        assert!(
                            self.emps.insert(e.id, (e.dept, e.salary)).is_none(),
                            "insert of a live key {:?}",
                            e.id
                        );
                    }
                    RowOp::Delete(e) => {
                        assert!(touched.insert(e.id), "tuple touched twice");
                        assert_eq!(self.emps.remove(&e.id), Some((e.dept, e.salary)));
                    }
                    RowOp::Modify { old, new_salary } => {
                        assert!(touched.insert(old.id), "tuple touched twice");
                        assert_ne!(old.salary, new_salary, "a modify must change the tuple");
                        assert_eq!(self.emps.get(&old.id), Some(&(old.dept, old.salary)));
                        self.emps.insert(old.id, (old.dept, new_salary));
                    }
                    RowOp::Budget { dept, old, new } => {
                        assert_ne!(old, new, "a modify must change the tuple");
                        assert_eq!(self.budgets.get(&dept), Some(&old));
                        self.budgets.insert(dept, new);
                    }
                }
            }
        }

        /// Brute force: does any department with staff pay out more than
        /// its budget?
        fn breached(&self) -> bool {
            let mut payroll: HashMap<u32, i64> = HashMap::new();
            for &(dept, salary) in self.emps.values() {
                *payroll.entry(dept).or_insert(0) += salary;
            }
            payroll.iter().any(|(d, p)| *p > self.budgets[d])
        }

        fn snapshot(&self) -> (HashMap<EmpId, (u32, i64)>, HashMap<u32, i64>) {
            (self.emps.clone(), self.budgets.clone())
        }

        fn check_final(&self, s: &Stream) {
            assert_eq!(s.end.emps.len(), self.emps.len());
            for e in &s.end.emps {
                assert_eq!(self.emps.get(&e.id), Some(&(e.dept, e.salary)));
            }
            assert_eq!(s.end.budgets.len(), self.budgets.len());
            for (d, b) in &s.end.budgets {
                assert_eq!(self.budgets.get(d), Some(b));
            }
        }
    }

    const PAPER: Shape = Shape {
        depts: 1000,
        emps_per_dept: 10,
    };

    #[test]
    fn same_seed_same_stream_and_a_different_seed_a_different_one() {
        let small = Shape {
            depts: 128,
            emps_per_dept: 10,
        };
        let hashes = |seed: u64| {
            [
                collect(Source::point(seed, small), 4000).hash,
                collect(Source::bulk(seed, small, 128), 20).hash,
                collect(Source::serve(seed, small, 64), 40 * 64).hash,
            ]
        };
        let (a, b, c) = (hashes(9406), hashes(9406), hashes(9407));
        assert_eq!(a, b);
        for i in 0..3 {
            assert_ne!(a[i], c[i], "generator {i} ignored its seed");
        }
        // However the stream is chunked, it is the same stream.
        let mut chunked = Source::serve(9406, small, 64);
        let mut txns = chunked.take(7);
        txns.extend(chunked.take(1000));
        txns.extend(chunked.take(40 * 64 - 1007));
        assert_eq!(chunked.hash(), a[2]);
        assert_eq!(txns, collect(Source::serve(9406, small, 64), 40 * 64).txns);
    }

    #[test]
    fn point_stream_names_exact_pre_state_over_50k_transactions() {
        let s = collect(Source::point(9406, PAPER), 50_000);
        let mut m = Model::new(PAPER);
        let mut seen = [0usize; 8];
        for t in &s.txns {
            assert_eq!(t.updates.len(), 1, "point_engine is single-delta");
            assert!(!t.expect_violation);
            seen[t.kind as usize] += 1;
            m.apply(&t.updates[0]);
        }
        m.check_final(&s);
        let share = |k: Kind| seen[k as usize] as f64 / s.txns.len() as f64;
        for (k, want) in [
            (Kind::Modify, 0.45),
            (Kind::Hire, 0.15),
            (Kind::Leave, 0.15),
            (Kind::Budget, 0.10),
            (Kind::Raise, 0.15),
        ] {
            assert!(
                (share(k) - want).abs() < 0.01,
                "{} share {}",
                k.name(),
                share(k)
            );
        }
    }

    #[test]
    fn bulk_stream_names_exact_pre_state_and_keeps_its_mix() {
        let shape = Shape {
            depts: 4000,
            emps_per_dept: 10,
        };
        let s = collect(Source::bulk(9406, shape, 512), 100);
        let mut m = Model::new(shape);
        for t in &s.txns {
            let ops = &t.updates[0].ops;
            assert_eq!(ops.len(), 512);
            let count = |f: fn(&RowOp) -> bool| ops.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, RowOp::Insert(_))), 102);
            assert_eq!(count(|o| matches!(o, RowOp::Delete(_))), 102);
            assert_eq!(count(|o| matches!(o, RowOp::Modify { .. })), 308);
            m.apply(&t.updates[0]);
        }
        m.check_final(&s);
    }

    #[test]
    fn mixed_bulk_stream_has_one_large_delta_in_every_fifty() {
        let shape = Shape {
            depts: 4000,
            emps_per_dept: 10,
        };
        let sizes = BulkSizes {
            rows: 128,
            large_every: 50,
            large_rows: 1024,
        };
        let s = collect(Source::bulk_mixed(9406, shape, sizes), 200);
        let mut m = Model::new(shape);
        for (i, t) in s.txns.iter().enumerate() {
            let want = if i % 50 == 49 { 1024 } else { 128 };
            assert_eq!(t.updates[0].ops.len(), want, "transaction {i}");
            m.apply(&t.updates[0]);
        }
        m.check_final(&s);
    }

    #[test]
    fn serve_stream_pre_state_and_violation_labels_agree_with_brute_force() {
        // 50k transactions; the brute-force check scans every employee, so
        // the shape is the smallest that gives 64 clients two departments.
        let shape = Shape {
            depts: 128,
            emps_per_dept: 10,
        };
        let s = collect(Source::serve(9406, shape, 64), 782 * 64);
        assert!(s.txns.len() >= 50_000);
        let mut m = Model::new(shape);
        let mut violations = 0usize;
        let mut second_update = 0usize;
        for t in &s.txns {
            if t.expect_violation {
                let before = m.snapshot();
                let last = t.updates.len() - 1;
                for (k, u) in t.updates.iter().enumerate() {
                    m.apply(u);
                    assert_eq!(
                        m.breached(),
                        k == last,
                        "a violation must breach at its last update and not before"
                    );
                }
                (m.emps, m.budgets) = before;
                violations += 1;
                second_update += (t.updates.len() == 2) as usize;
            } else {
                for u in &t.updates {
                    m.apply(u);
                    assert!(!m.breached(), "an ordinary {:?} breached", t.kind);
                }
            }
        }
        m.check_final(&s);
        let share = violations as f64 / s.txns.len() as f64;
        assert!((share - 0.05).abs() < 0.005, "violation share {share}");
        let second = second_update as f64 / violations as f64;
        assert!((second - 0.5).abs() < 0.05, "second-update share {second}");
        let transfers = s.txns.iter().filter(|t| t.kind == Kind::Transfer).count();
        let tshare = transfers as f64 / s.txns.len() as f64;
        assert!((tshare - 0.10).abs() < 0.01, "transfer share {tshare}");
    }

    #[test]
    fn the_64_client_domains_are_pairwise_disjoint() {
        let shape = Shape {
            depts: 1024,
            emps_per_dept: 10,
        };
        let s = collect(Source::serve(9406, shape, 64), 200 * 64);
        let mut dept_owner: HashMap<u32, u16> = HashMap::new();
        let mut emp_owner: HashMap<EmpId, u16> = HashMap::new();
        for (i, t) in s.txns.iter().enumerate() {
            assert_eq!(t.client as usize, i % 64, "round-major order");
            for op in t.updates.iter().flat_map(|u| &u.ops) {
                let (dept, emp) = match *op {
                    RowOp::Insert(e) | RowOp::Delete(e) => (e.dept, Some(e.id)),
                    RowOp::Modify { old, .. } => (old.dept, Some(old.id)),
                    RowOp::Budget { dept, .. } => (dept, None),
                };
                assert_eq!(*dept_owner.entry(dept).or_insert(t.client), t.client);
                if let Some(e) = emp {
                    assert_eq!(*emp_owner.entry(e).or_insert(t.client), t.client);
                }
            }
        }
        let mut per_client = [0usize; 64];
        for owner in dept_owner.values() {
            per_client[*owner as usize] += 1;
        }
        assert!(per_client.iter().all(|&n| n > 0 && n <= 16));
    }
}
