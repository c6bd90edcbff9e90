//! The paper's scenarios as reusable setups.

use spacetime_algebra::{AggExpr, AggFunc, BinOp, CmpOp, ExprNode, ExprTree, OpKind, ScalarExpr};
use spacetime_cost::TransactionType;
use spacetime_ivm::Database;
use spacetime_memo::{explore, GroupId, Memo};
use spacetime_storage::{Catalog, DataType, Schema, TableStats};

use crate::workload::{load_paper_data, paper_schema_db, paper_stats_catalog};

/// A prepared optimization scenario.
pub struct PaperScenario {
    /// Base-table statistics and keys.
    pub catalog: Catalog,
    /// The explored DAG.
    pub memo: Memo,
    /// The view's group.
    pub root: GroupId,
    /// The original (user) expression tree.
    pub tree: ExprTree,
    /// The workload.
    pub txns: Vec<TransactionType>,
}

/// §1.1/§3.6: the `ProblemDept` view over the sample corporate database.
pub fn problem_dept() -> PaperScenario {
    let catalog = paper_stats_catalog();
    let emp = ExprNode::scan(&catalog, "Emp").expect("Emp");
    let dept = ExprNode::scan(&catalog, "Dept").expect("Dept");
    let join = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).expect("valid join");
    let agg = ExprNode::aggregate(
        join,
        vec![3, 5],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .expect("valid aggregate");
    let tree = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::col(1)),
    )
    .expect("valid select");
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        txns: vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ],
    }
}

/// The paper's Figure-2 node names for the ProblemDept DAG, located
/// structurally: N1 = root, N2 = the aggregate/join-alternative group,
/// N3 = SumOfSals (aggregate over Emp), N4 = Emp ⋈ Dept, N5 = Emp,
/// N6 = Dept.
pub fn paper_names(memo: &Memo, root: GroupId) -> Vec<(GroupId, &'static str)> {
    let root = memo.find(root);
    let mut names = Vec::new();
    names.push((root, "N1"));
    let mut n2 = None;
    for op in memo.group_ops(root) {
        if matches!(memo.op(op).op, OpKind::Select { .. }) {
            n2 = Some(memo.op_children(op)[0]);
        }
    }
    if let Some(n2) = n2 {
        names.push((n2, "N2"));
    }
    for g in memo.groups() {
        for op in memo.group_ops(g) {
            match &memo.op(op).op {
                OpKind::Aggregate { .. } => {
                    let child = memo.op_children(op)[0];
                    let over_emp = memo.group_ops(child).iter().any(
                        |&c| matches!(&memo.op(c).op, OpKind::Scan { table } if table == "Emp"),
                    );
                    if over_emp {
                        names.push((memo.find(g), "N3"));
                    }
                }
                OpKind::Join { .. } => {
                    let children = memo.op_children(op);
                    // N4 is specifically Emp ⋈ Dept (in that column order);
                    // the commuted Dept ⋈ Emp lives in a different group.
                    let emp_first = memo
                        .schema(g)
                        .column(0)
                        .and_then(|c| c.qualifier.as_deref().map(|q| q == "Emp"))
                        .unwrap_or(false);
                    if children.iter().all(|&c| memo.is_leaf(c)) && emp_first {
                        names.push((memo.find(g), "N4"));
                    }
                }
                OpKind::Scan { table } if table == "Emp" => {
                    names.push((memo.find(g), "N5"));
                }
                OpKind::Scan { table } if table == "Dept" => {
                    names.push((memo.find(g), "N6"));
                }
                _ => {}
            }
        }
    }
    names.sort_by_key(|&(g, n)| (n, g));
    names.dedup();
    names
}

/// §3.1 (Example 3.1 / Figure 3): the `ADeptsStatus` view over Emp, Dept
/// and the small `ADepts` relation, updated only on `ADepts`.
pub fn adepts_status() -> PaperScenario {
    let mut catalog = paper_stats_catalog();
    catalog
        .create_table(
            "ADepts",
            Schema::of_table("ADepts", &[("DName", DataType::Str)]),
        )
        .expect("fresh");
    catalog.declare_key("ADepts", &["DName"]).expect("cols");
    // "the number of tuples in ADepts is small compared to the number of
    // tuples in Dept".
    catalog.table_mut("ADepts").expect("ADepts").stats = TableStats::declared(50, [(0, 50)]);

    let emp = ExprNode::scan(&catalog, "Emp").expect("Emp");
    let dept = ExprNode::scan(&catalog, "Dept").expect("Dept");
    let adepts = ExprNode::scan(&catalog, "ADepts").expect("ADepts");
    // FROM Emp, Dept, ADepts WHERE Dept.DName = Emp.DName AND
    // Emp.DName = ADepts.DName GROUP BY Dept.DName, Budget.
    let j1 = ExprNode::join_on(emp, dept, &[("Emp.DName", "Dept.DName")]).expect("join 1");
    let j2 = ExprNode::join_on(j1, adepts, &[("Emp.DName", "ADepts.DName")]).expect("join 2");
    let tree = ExprNode::aggregate(
        j2,
        vec![3, 5],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SumSal")],
    )
    .expect("aggregate");
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        // "ADeptsStatus is a materialized view that has to be maintained
        // under updates only to the relation ADepts."
        txns: vec![
            TransactionType::insert("+ADepts", "ADepts", 1.0),
            TransactionType::delete("-ADepts", "ADepts", 1.0),
        ],
    }
}

/// §4.2 (Figure 5): `R ⋈ γ(S ⋈ T)` where the aggregation can be neither
/// pushed nor pulled — its parent equivalence node is a natural
/// articulation point.
pub fn figure5() -> PaperScenario {
    let mut catalog = Catalog::new();
    for (name, cols, card, distinct) in [
        (
            "R",
            vec![("Item", DataType::Str), ("Region", DataType::Str)],
            2_000u64,
            vec![(0usize, 500u64), (1, 20)],
        ),
        (
            "S",
            vec![("Item", DataType::Str), ("Quantity", DataType::Int)],
            10_000,
            vec![(0, 500), (1, 100)],
        ),
        (
            "T",
            vec![("Item", DataType::Str), ("Price", DataType::Int)],
            500,
            vec![(0, 500), (1, 300)],
        ),
    ] {
        catalog
            .create_table(name, Schema::of_table(name, &cols))
            .expect("fresh");
        catalog.table_mut(name).expect("t").stats = TableStats::declared(card, distinct);
    }
    catalog.declare_key("T", &["Item"]).expect("cols");
    catalog.create_index("S", &["Item"]).expect("cols");
    catalog.create_index("R", &["Item"]).expect("cols");

    let s = ExprNode::scan(&catalog, "S").expect("S");
    let t = ExprNode::scan(&catalog, "T").expect("T");
    let st = ExprNode::join_on(s, t, &[("S.Item", "T.Item")]).expect("S⋈T");
    // SUM(S.Quantity * T.Price) BY T.Item — the argument spans both sides,
    // so eager aggregation cannot fire ("the aggregation cannot be pushed
    // down the expression tree because it needs both S.Quantity and
    // T.Price").
    let agg = ExprNode::aggregate(
        st,
        vec![2],
        vec![AggExpr::new(
            AggFunc::Sum,
            ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(1), ScalarExpr::col(3)),
            "Total",
        )],
    )
    .expect("aggregate");
    let r = ExprNode::scan(&catalog, "R").expect("R");
    let tree = ExprNode::join_on(r, agg, &[("R.Item", "Item")]).expect("R⋈γ");
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        txns: vec![
            TransactionType::modify(">S", "S", 1.0),
            TransactionType::modify(">R", "R", 1.0),
        ],
    }
}

/// §3's SPJ example, generalized: `R1 ⋈ R2 ⋈ … ⋈ Rn` as a chain. Used for
/// the optimizer-scaling benchmarks (E-SCALE).
pub fn join_chain(n: usize) -> PaperScenario {
    assert!(n >= 2);
    let mut catalog = Catalog::new();
    for i in 0..n {
        let name = format!("R{}", i + 1);
        let cols = [
            (format!("a{}", i + 1), DataType::Int),
            (format!("x{}", i + 1), DataType::Int),
        ];
        let col_refs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        catalog
            .create_table(&name, Schema::of_table(&name, &col_refs))
            .expect("fresh");
        catalog.table_mut(&name).expect("t").stats =
            TableStats::declared(1_000 * (i as u64 + 1), [(0, 500), (1, 100)]);
        catalog
            .create_index(&name, &[&format!("a{}", i + 1)])
            .expect("cols");
        catalog
            .create_index(&name, &[&format!("x{}", i + 1)])
            .expect("cols");
    }
    let mut tree = ExprNode::scan(&catalog, "R1").expect("R1");
    for i in 1..n {
        let next = ExprNode::scan(&catalog, &format!("R{}", i + 1)).expect("Ri");
        let left_col = tree
            .schema
            .resolve_dotted(&format!("x{i}"))
            .expect("chain column");
        tree = ExprNode::join(
            tree,
            next,
            spacetime_algebra::JoinCondition::on(vec![(left_col, 0)]),
        )
        .expect("chain join");
    }
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    let txns = (0..n)
        .map(|i| TransactionType::modify(format!(">R{}", i + 1), format!("R{}", i + 1), 1.0))
        .collect();
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        txns,
    }
}

/// E-PAR: the parallel-search scaling workload — a four-relation join
/// chain capped by grouping/aggregation, maintained under skewed-weight
/// transactions on every base table. Exploration yields well over a dozen
/// candidate subviews, so the view-set space is wide enough for the
/// search engine's parallelism and branch-and-bound pruning to matter;
/// the skewed weights make the heaviest-transaction-first partial sums
/// cross the pruning threshold early.
pub fn scaling_workload() -> PaperScenario {
    let n = 4;
    let mut catalog = Catalog::new();
    for i in 0..n {
        let name = format!("R{}", i + 1);
        let cols = [
            (format!("a{}", i + 1), DataType::Int),
            (format!("x{}", i + 1), DataType::Int),
        ];
        let col_refs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        catalog
            .create_table(&name, Schema::of_table(&name, &col_refs))
            .expect("fresh");
        catalog.table_mut(&name).expect("t").stats =
            TableStats::declared(1_000 * (i as u64 + 1), [(0, 500), (1, 100)]);
        catalog
            .create_index(&name, &[&format!("a{}", i + 1)])
            .expect("cols");
        catalog
            .create_index(&name, &[&format!("x{}", i + 1)])
            .expect("cols");
    }
    let mut chain = ExprNode::scan(&catalog, "R1").expect("R1");
    for i in 1..n {
        let next = ExprNode::scan(&catalog, &format!("R{}", i + 1)).expect("Ri");
        let left_col = chain
            .schema
            .resolve_dotted(&format!("x{i}"))
            .expect("chain column");
        chain = ExprNode::join(
            chain,
            next,
            spacetime_algebra::JoinCondition::on(vec![(left_col, 0)]),
        )
        .expect("chain join");
    }
    // Group by the head key, totalling the tail attribute — the
    // aggregation spans the whole chain, so it stays on top.
    let group_col = chain.schema.resolve_dotted("a1").expect("a1");
    let sum_col = chain.schema.resolve_dotted(&format!("x{n}")).expect("xn");
    let tree = ExprNode::aggregate(
        chain,
        vec![group_col],
        vec![AggExpr::new(
            AggFunc::Sum,
            ScalarExpr::col(sum_col),
            "Total",
        )],
    )
    .expect("top aggregate");
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    // Skewed weights: updates to the head of the chain dominate. The skew
    // goes on the *weight* (relative frequency), not the delta size —
    // every transaction stays a unit modification.
    let txns = (0..n)
        .map(|i| {
            TransactionType::modify(format!(">R{}", i + 1), format!("R{}", i + 1), 1.0)
                .with_weight((1u64 << (n - 1 - i)) as f64)
        })
        .collect();
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        txns,
    }
}

/// A stack of `levels` aggregate-over-join layers (each an articulation
/// point) — the shape where the Shielding Principle pays off (E-SH).
pub fn stacked_view(levels: usize) -> PaperScenario {
    assert!(levels >= 1);
    let mut catalog = Catalog::new();
    // Base fact table.
    catalog
        .create_table(
            "F0",
            Schema::of_table("F0", &[("k0", DataType::Str), ("v0", DataType::Int)]),
        )
        .expect("fresh");
    catalog.table_mut("F0").expect("t").stats =
        TableStats::declared(10_000, [(0, 1_000), (1, 500)]);
    catalog.create_index("F0", &["k0"]).expect("cols");
    // One dimension table per level, keyed.
    for l in 1..=levels {
        let name = format!("D{l}");
        let c0 = format!("k{}", l - 1);
        let c1 = format!("k{l}");
        let c2 = format!("w{l}");
        catalog
            .create_table(
                &name,
                Schema::of_table(
                    &name,
                    &[
                        (c0.as_str(), DataType::Str),
                        (c1.as_str(), DataType::Str),
                        (c2.as_str(), DataType::Int),
                    ],
                ),
            )
            .expect("fresh");
        catalog
            .declare_key(&name, &[&format!("k{}", l - 1)])
            .expect("cols");
        catalog.table_mut(&name).expect("t").stats = TableStats::declared(
            1_000 / l as u64,
            [(0, 1_000 / l as u64), (1, 500 / l as u64), (2, 100)],
        );
    }
    // tree_l = γ_{D_l.k_l; SUM(prev_total * w_l)}(tree_{l-1} ⋈ D_l)
    let mut tree = ExprNode::scan(&catalog, "F0").expect("F0");
    for l in 1..=levels {
        let dim = ExprNode::scan(&catalog, &format!("D{l}")).expect("Dl");
        let key_col = tree
            .schema
            .resolve_dotted(&format!("k{}", l - 1))
            .expect("key col");
        let val_col = if l == 1 {
            tree.schema.resolve_dotted("v0").expect("v0")
        } else {
            tree.schema
                .resolve_dotted(&format!("t{}", l - 1))
                .expect("running total")
        };
        let joined = ExprNode::join(
            tree,
            dim,
            spacetime_algebra::JoinCondition::on(vec![(key_col, 0)]),
        )
        .expect("level join");
        let arity_left = joined.children[0].schema.arity();
        tree = ExprNode::aggregate(
            joined,
            vec![arity_left + 1], // D_l.k_l
            vec![AggExpr::new(
                AggFunc::Sum,
                // prev value × level weight spans both sides: not pushable.
                ScalarExpr::bin(
                    BinOp::Mul,
                    ScalarExpr::col(val_col),
                    ScalarExpr::col(arity_left + 2),
                ),
                format!("t{l}"),
            )],
        )
        .expect("level aggregate");
    }
    let mut memo = Memo::new();
    let root = memo.insert_tree(&tree);
    memo.set_root(root);
    explore(&mut memo, &catalog).expect("exploration");
    let root = memo.find(root);
    PaperScenario {
        catalog,
        memo,
        root,
        tree,
        txns: vec![TransactionType::modify(">F0", "F0", 1.0)],
    }
}

/// The wide runtime scenario's view definitions — eight SQL views over
/// the *overlapping* Emp/Dept base tables, so a single base delta fans out
/// across many independent engines. `HighEarners` and `HighEarnerCount`
/// share the access-free σ(Salary>150)(Emp) prefix.
const WIDE_PIPELINE_VIEWS: &[&str] = &[
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
    "CREATE MATERIALIZED VIEW PayrollByDept AS \
     SELECT DName, SUM(Salary) AS Payroll FROM Emp GROUP BY DName",
    "CREATE MATERIALIZED VIEW HighEarners AS \
     SELECT EName, DName FROM Emp WHERE Salary > 150",
    "CREATE MATERIALIZED VIEW HighEarnerCount AS \
     SELECT DName, COUNT(*) AS N FROM Emp WHERE Salary > 150 GROUP BY DName",
    "CREATE MATERIALIZED VIEW LowPaid AS \
     SELECT EName, DName FROM Emp WHERE Salary < 80",
];

/// Build the wide database: loaded paper data, the
/// eight `WIDE_PIPELINE_VIEWS`, and a two-rooted view group (Payroll /
/// BigPayroll over a shared per-department salary sum) — ten maintained
/// views total, every one dependent on `Emp`.
pub fn build_wide_pipeline_db(departments: usize, emps_per_dept: usize) -> Database {
    let mut db = paper_schema_db();
    load_paper_data(&mut db, departments, emps_per_dept);
    for sql in WIDE_PIPELINE_VIEWS {
        db.execute_sql(sql).expect("static view DDL");
    }
    let emp = ExprNode::scan(&db.catalog, "Emp").expect("Emp");
    let agg = ExprNode::aggregate(
        emp,
        vec![1],
        vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(2), "SalSum")],
    )
    .expect("valid aggregate");
    let payroll = ExprNode::select(
        agg.clone(),
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(0)),
    )
    .expect("valid select");
    let big_payroll = ExprNode::select(
        agg,
        ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(500)),
    )
    .expect("valid select");
    db.create_view_group(vec![
        ("Payroll".to_string(), payroll),
        ("BigPayroll".to_string(), big_payroll),
    ])
    .expect("view group");
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_identify_all_six_nodes() {
        let s = problem_dept();
        let names = paper_names(&s.memo, s.root);
        let labels: Vec<&str> = names.iter().map(|(_, n)| *n).collect();
        for expected in ["N1", "N2", "N3", "N4", "N5", "N6"] {
            assert!(labels.contains(&expected), "{labels:?}");
        }
    }

    #[test]
    fn adepts_status_has_v1_candidate() {
        // The DAG must contain an aggregate-over-(Emp⋈Dept-free) shape
        // reachable without ADepts: a group whose leaves exclude ADepts
        // yet which aggregates salary — the paper's V1 building block.
        let s = adepts_status();
        let mut found = false;
        for g in s.memo.groups() {
            for op in s.memo.group_ops(g) {
                if matches!(s.memo.op(op).op, OpKind::Aggregate { .. }) {
                    let tree = s.memo.extract_one(g);
                    let leaves = tree.leaf_tables();
                    if !leaves.contains(&"ADepts") {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "no ADepts-free aggregate candidate in the DAG");
    }

    #[test]
    fn join_chain_scales() {
        for n in 2..=4 {
            let s = join_chain(n);
            assert!(s.memo.count_trees(s.root) >= 1);
            assert_eq!(s.txns.len(), n);
        }
    }

    #[test]
    fn scaling_workload_is_wide_enough() {
        use spacetime_optimizer::candidate_groups;
        let s = scaling_workload();
        let candidates = candidate_groups(&s.memo, s.root);
        assert!(
            candidates.len() >= 12,
            "E-PAR needs ≥12 candidate groups, got {}",
            candidates.len()
        );
        assert!(s.txns.len() >= 4);
        // Weights must be skewed (heaviest-first pruning relies on it).
        assert!(s.txns[0].weight > s.txns[s.txns.len() - 1].weight);
    }

    #[test]
    fn stacked_view_builds() {
        let s = stacked_view(2);
        assert!(s.memo.group_count() >= 6);
        let arts = spacetime_memo::articulation_groups(&s.memo, s.root);
        assert!(!arts.is_empty(), "stacked aggregates must shield");
    }

    #[test]
    fn wide_pipeline_db_builds_and_maintains() {
        use spacetime_ivm::verify_all_views;
        let mut db = build_wide_pipeline_db(8, 4);
        // ≥ 8 views over overlapping base tables, all dependent on Emp.
        let view_count: usize = db.engines().iter().map(|e| e.roots.len()).sum();
        assert!(view_count >= 10, "wide scenario has {view_count} views");
        assert!(db.engines().iter().all(|e| e.depends_on("Emp")));
        for (table, delta) in crate::workload::mixed_workload(8, 4, 20, 3) {
            db.apply_delta(&table, delta).unwrap();
        }
        assert!(verify_all_views(&db).unwrap().is_empty());
    }

    #[test]
    fn figure5_aggregate_cannot_be_pushed() {
        let s = figure5();
        // No aggregate-over-S-only or over-T-only group may exist.
        for g in s.memo.groups() {
            for op in s.memo.group_ops(g) {
                if matches!(s.memo.op(op).op, OpKind::Aggregate { .. }) {
                    let leaves = s.memo.extract_one(g).leaf_tables().len();
                    assert!(leaves >= 2, "aggregation pushed to a single table");
                }
            }
        }
    }
}
