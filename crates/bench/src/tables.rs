//! The experiment harness: every table and figure of the paper's
//! evaluation, regenerated from this implementation and checked against
//! the paper's reported values.
//!
//! Each function returns a [`Section`]; the `paper_tables`/`paper_figures`
//! binaries print them, and `EXPERIMENTS.md` records their output.

use std::collections::BTreeMap;

use spacetime_cost::{Cost, CostCtx, Marking, PageIoCostModel, TransactionType};
use spacetime_ivm::{verify_all_views, ViewSelection};
use spacetime_memo::{articulation_groups, GroupId};
use spacetime_optimizer::candidates::render_view_set;
use spacetime_optimizer::exhaustive::optimal_view_set_over;
use spacetime_optimizer::heuristics::{rule_of_thumb_optimize, single_tree_optimize};
use spacetime_optimizer::{
    evaluate_view_set, evaluate_with_catalog, greedy_add, optimal_view_set, shielding_optimize,
    EvalConfig, TrackCatalog, ViewSet,
};

use crate::scenarios::{adepts_status, paper_names, problem_dept, PaperScenario};
use crate::workload::{load_paper_data, paper_schema_db, render_table};

/// One experiment's output.
#[derive(Debug, Clone)]
pub struct Section {
    /// Experiment id (DESIGN.md's index).
    pub id: &'static str,
    /// Title line.
    pub title: String,
    /// Rendered body.
    pub body: String,
    /// Whether the result matches the paper's reported values
    /// (`None` when the paper gives no number to compare).
    pub matches_paper: Option<bool>,
}

impl Section {
    /// Render with a status marker.
    pub fn render(&self) -> String {
        let marker = match self.matches_paper {
            Some(true) => " [matches paper ✓]",
            Some(false) => " [MISMATCH ✗]",
            None => "",
        };
        format!(
            "== {}: {}{} ==\n{}\n",
            self.id, self.title, marker, self.body
        )
    }
}

struct PaperCtx {
    scenario: PaperScenario,
    names: BTreeMap<String, GroupId>,
}

fn paper_ctx() -> PaperCtx {
    let scenario = problem_dept();
    let names: BTreeMap<String, GroupId> = paper_names(&scenario.memo, scenario.root)
        .into_iter()
        .map(|(g, n)| (n.to_string(), g))
        .collect();
    PaperCtx { scenario, names }
}

fn marking(ctx: &PaperCtx, extra: &[&str]) -> Marking {
    extra.iter().map(|n| ctx.names[*n]).collect()
}

fn view_set(ctx: &PaperCtx, extra: &[&str]) -> ViewSet {
    let mut set: ViewSet = extra.iter().map(|n| ctx.names[*n]).collect();
    set.insert(ctx.scenario.root);
    set
}

/// T1 — the §3.6 query-cost table: each posed query under ∅ / {N3} / {N4}.
pub fn t1_query_costs() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let mut cc = CostCtx::new(&ctx.scenario.memo, &ctx.scenario.catalog, &model);
    let none = Marking::new();
    let m3 = marking(&ctx, &["N3"]);
    let m4 = marking(&ctx, &["N4"]);
    let n3 = ctx.names["N3"];
    let n4 = ctx.names["N4"];
    let emp = ctx.names["N5"];
    let dept = ctx.names["N6"];

    // (label, queried node, binding cols, paper's row "∅/{N3}/{N4}",
    //  posed-under mask: None entry means "not posed" under that set).
    type QueryRow = (&'static str, GroupId, Vec<usize>, [Option<f64>; 3]);
    let queries: Vec<QueryRow> = vec![
        ("Q2Ld", n3, vec![0], [Some(11.0), Some(2.0), Some(11.0)]),
        ("Q2Re", dept, vec![0], [Some(2.0), Some(2.0), Some(2.0)]),
        ("Q3e", n4, vec![3, 5], [Some(13.0), Some(13.0), Some(11.0)]),
        ("Q4e", emp, vec![1], [Some(11.0), None, Some(11.0)]),
        ("Q5Ld", emp, vec![1], [Some(11.0), Some(11.0), Some(11.0)]),
        ("Q5Re", dept, vec![0], [Some(2.0), Some(2.0), Some(2.0)]),
    ];
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (label, g, cols, paper) in &queries {
        let mut cells = vec![label.to_string()];
        for (mi, m) in [&none, &m3, &m4].into_iter().enumerate() {
            match paper[mi] {
                Some(expected) => {
                    let got = cc.query_cost(*g, cols, m);
                    if (got.value() - expected).abs() > 1e-9 {
                        all_ok = false;
                        cells.push(format!("{got} (paper: {expected})"));
                    } else {
                        cells.push(format!("{got}"));
                    }
                }
                None => cells.push("—".to_string()),
            }
        }
        rows.push(cells);
    }
    Section {
        id: "T1",
        title: "query costs (page I/Os) under view sets ∅ / {N3} / {N4}".into(),
        body: render_table(&["query", "∅", "{N3}", "{N4}"], &rows),
        matches_paper: Some(all_ok),
    }
}

/// T2 — the materialization (update-application) cost table.
pub fn t2_maintenance_costs() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let mut cc = CostCtx::new(&ctx.scenario.memo, &ctx.scenario.catalog, &model);
    let t_emp = &ctx.scenario.txns[0];
    let t_dept = &ctx.scenario.txns[1];
    let cases = [
        ("N3", t_emp, 3.0),
        ("N3", t_dept, 0.0),
        ("N4", t_emp, 3.0),
        ("N4", t_dept, 21.0),
    ];
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (node, txn, expected) in cases {
        let got = cc.update_apply_cost(ctx.names[node], txn);
        if (got.value() - expected).abs() > 1e-9 {
            all_ok = false;
        }
        rows.push(vec![
            node.to_string(),
            txn.name.clone(),
            got.to_string(),
            format!("{expected}"),
        ]);
    }
    Section {
        id: "T2",
        title: "cost of maintaining each candidate materialization".into(),
        body: render_table(&["view", "txn", "cost", "paper"], &rows),
        matches_paper: Some(all_ok),
    }
}

/// T3 — per-update-track query costs under each view set.
pub fn t3_track_costs() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let sets: Vec<(&str, ViewSet)> = vec![
        ("∅", view_set(&ctx, &[])),
        ("{N3}", view_set(&ctx, &["N3"])),
        ("{N4}", view_set(&ctx, &["N4"])),
    ];
    let config = EvalConfig::default();
    let mut rows = Vec::new();
    let rev_names: BTreeMap<GroupId, String> =
        ctx.names.iter().map(|(n, &g)| (g, n.clone())).collect();
    for txn in &ctx.scenario.txns {
        // Collect per-track costs per set; tracks identified by rendering.
        let mut per_track: BTreeMap<String, BTreeMap<&str, Cost>> = BTreeMap::new();
        for (set_name, set) in &sets {
            let mut cc = CostCtx::new(&ctx.scenario.memo, &ctx.scenario.catalog, &model);
            let tcat = TrackCatalog::new(
                &ctx.scenario.memo,
                &ctx.scenario.catalog,
                &[ctx.scenario.root],
                std::slice::from_ref(txn),
                config.max_tracks,
            );
            let eval = evaluate_with_catalog(&mut cc, &tcat, set, &config, None)
                .expect("no abort threshold");
            // The evaluation prices the catalog's prepared tracks in their
            // enumeration order: pair each with its cost.
            let prepared = tcat.prepared(0, set, &mut cc);
            for (pt, &cost) in prepared.tracks.iter().zip(&eval.per_txn[0].track_costs) {
                let label = pt.track.render(
                    &ctx.scenario.memo,
                    |g| {
                        rev_names
                            .get(&ctx.scenario.memo.find(g))
                            .cloned()
                            .unwrap_or_else(|| format!("n{}", g.0))
                    },
                    |o| format!("E{}", o.0),
                );
                per_track
                    .entry(format!("{} {}", txn.name, label))
                    .or_default()
                    .insert(set_name, cost);
            }
        }
        for (label, costs) in per_track {
            rows.push(vec![
                label,
                costs.get("∅").map(|c| c.to_string()).unwrap_or("—".into()),
                costs
                    .get("{N3}")
                    .map(|c| c.to_string())
                    .unwrap_or("—".into()),
                costs
                    .get("{N4}")
                    .map(|c| c.to_string())
                    .unwrap_or("—".into()),
            ]);
        }
    }
    // The paper's key facts: min >Emp track costs 13/2/13; min >Dept
    // track costs 11/2/11 (checked in T4); here we just show the detail.
    Section {
        id: "T3",
        title: "update-track query costs (all tracks, per view set)".into(),
        body: render_table(&["track", "∅", "{N3}", "{N4}"], &rows),
        matches_paper: None,
    }
}

/// T4 — the combined (query + maintenance) per-transaction table and the
/// weighted averages.
pub fn t4_combined_costs() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let sets: Vec<(&str, ViewSet)> = vec![
        ("∅", view_set(&ctx, &[])),
        ("{N3}", view_set(&ctx, &["N3"])),
        ("{N4}", view_set(&ctx, &["N4"])),
    ];
    let paper: BTreeMap<(&str, &str), f64> = [
        ((">Emp", "∅"), 13.0),
        ((">Dept", "∅"), 11.0),
        ((">Emp", "{N3}"), 5.0),
        ((">Dept", "{N3}"), 2.0),
        ((">Emp", "{N4}"), 16.0),
        ((">Dept", "{N4}"), 32.0),
    ]
    .into_iter()
    .collect();
    let mut rows = Vec::new();
    let mut all_ok = true;
    let mut weighted = Vec::new();
    for (set_name, set) in &sets {
        let mut cc = CostCtx::new(&ctx.scenario.memo, &ctx.scenario.catalog, &model);
        let eval = evaluate_view_set(
            &mut cc,
            &ctx.scenario.catalog,
            ctx.scenario.root,
            set,
            &ctx.scenario.txns,
            &config,
        );
        weighted.push((set_name.to_string(), eval.weighted));
        for te in &eval.per_txn {
            let expected = paper[&(te.txn_name.as_str(), *set_name)];
            if (te.total.value() - expected).abs() > 1e-9 {
                all_ok = false;
            }
            rows.push(vec![
                te.txn_name.clone(),
                set_name.to_string(),
                te.total.to_string(),
                format!("{expected}"),
            ]);
        }
    }
    let mut body = render_table(&["txn", "set", "total", "paper"], &rows);
    body.push('\n');
    for (name, w) in weighted {
        body.push_str(&format!("weighted average {name}: {w}\n"));
    }
    Section {
        id: "T4",
        title: "combined cost per (transaction, view set)".into(),
        body,
        matches_paper: Some(all_ok),
    }
}

/// H1 — the headline: {N3} averages 3.5 page I/Os vs 12 for ∅ (~30%),
/// both estimated and *measured* against real data.
pub fn h1_headline() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let mut cc = CostCtx::new(&ctx.scenario.memo, &ctx.scenario.catalog, &model);
    let e_none = evaluate_view_set(
        &mut cc,
        &ctx.scenario.catalog,
        ctx.scenario.root,
        &view_set(&ctx, &[]),
        &ctx.scenario.txns,
        &config,
    );
    let e_n3 = evaluate_view_set(
        &mut cc,
        &ctx.scenario.catalog,
        ctx.scenario.root,
        &view_set(&ctx, &["N3"]),
        &ctx.scenario.txns,
        &config,
    );

    // Measured: run the actual engine over loaded data.
    let measured = |selection: ViewSelection| -> (f64, f64) {
        let mut db = paper_schema_db();
        db.set_view_selection(selection);
        load_paper_data(&mut db, 1000, 10);
        db.declare_workload(vec![
            TransactionType::modify(">Emp", "Emp", 1.0),
            TransactionType::modify(">Dept", "Dept", 1.0),
        ]);
        db.execute_sql(
            "CREATE MATERIALIZED VIEW ProblemDept (DName) AS \
             SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName \
             GROUP BY Dept.DName, Budget HAVING SUM(Salary) > Budget",
        )
        .expect("view");
        let r_emp = db
            .execute_sql("UPDATE Emp SET Salary = 130 WHERE EName = 'emp00042_3'")
            .expect(">Emp update");
        let emp_cost = match r_emp {
            spacetime_ivm::database::SqlOutcome::Updated { report, .. } => {
                report.paper_cost() as f64
            }
            _ => unreachable!(),
        };
        let r_dept = db
            .execute_sql("UPDATE Dept SET Budget = 2500 WHERE DName = 'dept00007'")
            .expect(">Dept update");
        let dept_cost = match r_dept {
            spacetime_ivm::database::SqlOutcome::Updated { report, .. } => {
                report.paper_cost() as f64
            }
            _ => unreachable!(),
        };
        assert!(verify_all_views(&db).expect("verify").is_empty());
        (emp_cost, dept_cost)
    };
    let (m_emp_none, m_dept_none) = measured(ViewSelection::RootOnly);
    let (m_emp_n3, m_dept_n3) = measured(ViewSelection::Exhaustive);

    let est_ratio = e_n3.weighted / e_none.weighted;
    let meas_none = (m_emp_none + m_dept_none) / 2.0;
    let meas_n3 = (m_emp_n3 + m_dept_n3) / 2.0;
    let meas_ratio = meas_n3 / meas_none;
    let ok = (e_none.weighted - 12.0).abs() < 1e-9
        && (e_n3.weighted - 3.5).abs() < 1e-9
        && (meas_none - 12.0).abs() < 1e-9
        && (meas_n3 - 3.5).abs() < 1e-9;
    let body = render_table(
        &["metric", "∅", "{N3} (optimal)", "ratio"],
        &[
            vec![
                "estimated avg page I/Os".into(),
                format!("{}", e_none.weighted),
                format!("{}", e_n3.weighted),
                format!("{:.1}%", est_ratio * 100.0),
            ],
            vec![
                "measured avg page I/Os".into(),
                format!("{meas_none}"),
                format!("{meas_n3}"),
                format!("{:.1}%", meas_ratio * 100.0),
            ],
            vec![
                "paper".into(),
                "12".into(),
                "3.5".into(),
                "~30% (\"threefold decrease\")".into(),
            ],
        ],
    );
    Section {
        id: "H1",
        title: "headline reduction (equal transaction weights)".into(),
        body,
        matches_paper: Some(ok),
    }
}

/// E-SPJ — the §3 candidate enumeration for R1⋈R2⋈R3.
pub fn espj_enumeration() -> Section {
    let s = crate::scenarios::join_chain(3);
    let candidates = spacetime_optimizer::candidate_groups(&s.memo, s.root);
    let join_candidates: Vec<GroupId> = candidates
        .iter()
        .copied()
        .filter(|&g| {
            s.memo
                .group_ops(g)
                .iter()
                .any(|&o| matches!(s.memo.op(o).op, spacetime_algebra::OpKind::Join { .. }))
        })
        .collect();
    let sets = spacetime_optimizer::enumerate_view_sets(s.root, &join_candidates, Some(2));
    let mut body = format!(
        "join-chain R1⋈R2⋈R3: {} candidate equivalence nodes ({} join-shaped)\n",
        candidates.len(),
        join_candidates.len()
    );
    body.push_str(&format!(
        "view sets with ≤2 additional join views: {} (the paper lists 7 for its example)\n",
        sets.len()
    ));
    Section {
        id: "E-SPJ",
        title: "candidate view sets for the SPJ example".into(),
        body,
        matches_paper: Some(sets.len() >= 7),
    }
}

/// E-HEUR — §5 heuristics vs the exhaustive optimum.
pub fn eheur_strategies() -> Section {
    let ctx = paper_ctx();
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let s = &ctx.scenario;
    let ex = optimal_view_set(&s.memo, &s.catalog, &model, s.root, &s.txns, &config);
    let sh = shielding_optimize(&s.memo, &s.catalog, &model, s.root, &s.txns, &config);
    let gr = greedy_add(&s.memo, &s.catalog, &model, s.root, &s.txns, &config);
    let st = single_tree_optimize(
        &s.memo, &s.catalog, &model, s.root, &s.tree, &s.txns, &config,
    );
    let rt = rule_of_thumb_optimize(
        &s.memo, &s.catalog, &model, s.root, &s.tree, &s.txns, &config,
    );
    let rows: Vec<Vec<String>> = [
        ("exhaustive (Fig. 4)", &ex),
        ("shielding (§4)", &sh),
        ("greedy (§5)", &gr),
        ("single-tree (§5)", &st),
        ("rule-of-thumb (§5)", &rt),
    ]
    .into_iter()
    .map(|(name, o)| {
        vec![
            name.to_string(),
            format!("{}", o.best.weighted),
            render_view_set(&o.best.view_set, s.root, |g| {
                paper_names(&s.memo, s.root)
                    .into_iter()
                    .find(|&(gg, _)| gg == s.memo.find(g))
                    .map(|(_, n)| n.to_string())
                    .unwrap_or_else(|| format!("n{}", g.0))
            }),
            o.sets_considered.to_string(),
        ]
    })
    .collect();
    let ok = sh.best.weighted == ex.best.weighted && gr.best.weighted == ex.best.weighted;
    Section {
        id: "E-HEUR",
        title: "search strategies on the motivating example".into(),
        body: render_table(
            &["strategy", "weighted cost", "chosen set", "sets evaluated"],
            &rows,
        ),
        matches_paper: Some(ok),
    }
}

/// F3 — Example 3.1: query-optimal plan vs maintenance-optimal
/// materialization for ADeptsStatus.
pub fn f3_adepts_status() -> Section {
    let s = adepts_status();
    let model = PageIoCostModel::default();
    // Cap tracks per evaluation: the three-way-join DAG admits thousands
    // of (mostly redundant commuted/projected) tracks; 128 comfortably
    // covers the distinct query-cost profiles.
    let config = EvalConfig {
        max_tracks: 128,
        ..EvalConfig::default()
    };
    // The explored ADeptsStatus DAG has ~20 candidate nodes; the fully
    // exhaustive 2^20 space is exactly the explosion §5 warns about.
    // Since the expected optimum ({V1}) is a singleton, searching all
    // sets with ≤2 additional views is exhaustive *enough* here and keeps
    // the experiment tractable (the E-SCALE bench shows the blowup).
    let candidates = spacetime_optimizer::candidate_groups(&s.memo, s.root);
    let outcome = optimal_view_set_over(
        &s.memo,
        &s.catalog,
        &model,
        s.root,
        &candidates,
        &s.txns,
        &config,
        Some(2),
    );
    let extras = outcome.additional_views(&s.memo, s.root);
    let mut body = String::new();
    body.push_str("original (query-optimization-shaped) tree:\n");
    body.push_str(&s.tree.render());
    body.push_str(&format!(
        "\nchosen additional views: {} (weighted cost {})\n",
        extras.len(),
        outcome.best.weighted
    ));
    for &g in &extras {
        body.push_str(&format!(
            "\nmaterialized V1-style subview [{}]:\n{}",
            s.memo.schema(g),
            s.memo.extract_one(g).render()
        ));
    }
    // `evaluated` keeps only the top-K sets, so price ∅ directly.
    let empty_eval = {
        let mut ctx = CostCtx::new(&s.memo, &s.catalog, &model);
        let empty: ViewSet = [s.root].into_iter().collect();
        evaluate_view_set(&mut ctx, &s.catalog, s.root, &empty, &s.txns, &config)
    };
    body.push_str(&format!(
        "\n∅ costs {} vs optimal {} — materializing V1 pays for itself because \
         \"view V1 does not need to be updated\" under ADepts-only updates.\n",
        empty_eval.weighted, outcome.best.weighted
    ));
    // Shape check: an ADepts-free subview is materialized and beats ∅.
    let v1_is_adepts_free = extras
        .iter()
        .any(|&g| !s.memo.extract_one(g).leaf_tables().contains(&"ADepts"));
    Section {
        id: "F3",
        title: "ADeptsStatus: maintenance-optimal ≠ query-optimal (Example 3.1)".into(),
        body,
        matches_paper: Some(v1_is_adepts_free && outcome.best.weighted < empty_eval.weighted),
    }
}

/// F5 — articulation nodes in the Figure 5 DAG.
pub fn f5_articulation() -> Section {
    let s = crate::scenarios::figure5();
    let arts = articulation_groups(&s.memo, s.root);
    let mut body = String::new();
    body.push_str("view tree:\n");
    body.push_str(&s.tree.render());
    body.push_str(&format!(
        "\narticulation equivalence nodes: {}\n",
        arts.len()
    ));
    // The aggregate group must be among them.
    let agg_group = s.memo.groups().find(|&g| {
        s.memo
            .group_ops(g)
            .iter()
            .any(|&o| matches!(s.memo.op(o).op, spacetime_algebra::OpKind::Aggregate { .. }))
    });
    let ok = agg_group
        .map(|g| arts.contains(&s.memo.find(g)))
        .unwrap_or(false);
    body.push_str(&format!(
        "aggregate's equivalence node is an articulation point: {}\n",
        ok
    ));
    Section {
        id: "F5",
        title: "the aggregation node is a natural articulation point (§4.2)".into(),
        body,
        matches_paper: Some(ok),
    }
}

/// All estimated-side sections in order.
pub fn all_table_sections() -> Vec<Section> {
    vec![
        t1_query_costs(),
        t2_maintenance_costs(),
        t3_track_costs(),
        t4_combined_costs(),
        h1_headline(),
        espj_enumeration(),
        eheur_strategies(),
    ]
}

/// The `paper_tables` report for `--table which` (every section when
/// `None`): the title line, then each section rendered, as the binary
/// prints it. Returns the report and how many sections deviate from the
/// paper, or `None` for an unknown table name.
pub fn paper_tables_report(which: Option<&str>) -> Option<(String, usize)> {
    let sections = match which {
        Some("t1") => vec![t1_query_costs()],
        Some("t2") => vec![t2_maintenance_costs()],
        Some("t3") => vec![t3_track_costs()],
        Some("t4") => vec![t4_combined_costs()],
        Some("h1") => vec![h1_headline()],
        Some("espj") => vec![espj_enumeration()],
        Some("eheur") => vec![eheur_strategies()],
        Some("f3") => vec![f3_adepts_status()],
        Some("f5") => vec![f5_articulation()],
        Some(_) => return None,
        None => {
            let mut all = all_table_sections();
            all.push(f3_adepts_status());
            all.push(f5_articulation());
            all
        }
    };
    let mut report =
        "Ross, Srivastava & Sudarshan (SIGMOD '96) — regenerated evaluation\n\n".to_string();
    for s in &sections {
        report.push_str(&s.render());
        report.push('\n');
    }
    let mismatches = sections
        .iter()
        .filter(|s| s.matches_paper == Some(false))
        .count();
    Some((report, mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_matches() {
        assert_eq!(t1_query_costs().matches_paper, Some(true));
    }

    #[test]
    fn t2_matches() {
        assert_eq!(t2_maintenance_costs().matches_paper, Some(true));
    }

    #[test]
    fn t4_matches() {
        let s = t4_combined_costs();
        assert_eq!(s.matches_paper, Some(true), "{}", s.body);
    }

    #[test]
    fn h1_matches_estimated_and_measured() {
        let s = h1_headline();
        assert_eq!(s.matches_paper, Some(true), "{}", s.body);
    }

    #[test]
    fn heuristic_section_consistent() {
        let s = eheur_strategies();
        assert_eq!(s.matches_paper, Some(true), "{}", s.body);
    }

    #[test]
    fn f3_finds_v1() {
        let s = f3_adepts_status();
        assert_eq!(s.matches_paper, Some(true), "{}", s.body);
    }

    #[test]
    fn f5_confirms_articulation() {
        let s = f5_articulation();
        assert_eq!(s.matches_paper, Some(true), "{}", s.body);
    }
}
