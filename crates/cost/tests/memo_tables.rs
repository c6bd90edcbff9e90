//! `CostCtx`'s memo tables answer exactly what a fresh context answers.
//!
//! `delta_for`, `combined_distinct`, `matches` and `keys` are memoized per
//! context. Each is meant to be a pure function of its arguments, so one
//! context asked every question — forward, then again in reverse — must
//! give, bit for bit, the answer a fresh context gives to that one
//! question. The questions are every (group, workload update) delta and
//! every (group, columns) binding an update track can pose: a join's
//! other side on its join columns, an aggregate's input on its grouping
//! columns, a distinct's input on all of its columns.

use spacetime_algebra::OpKind;
use spacetime_bench::scenarios::{problem_dept, scaling_workload, PaperScenario};
use spacetime_cost::{CostCtx, PageIoCostModel, TableUpdate};
use spacetime_memo::GroupId;

#[derive(Debug)]
enum Question {
    Delta(GroupId, TableUpdate),
    Combined(GroupId, Vec<usize>),
    Matches(GroupId, Vec<usize>),
    Keys(GroupId),
}

fn questions(s: &PaperScenario) -> Vec<Question> {
    let memo = &s.memo;
    let mut out = Vec::new();
    for g in memo.groups() {
        out.push(Question::Keys(g));
        for txn in &s.txns {
            for u in &txn.updates {
                out.push(Question::Delta(g, u.clone()));
            }
        }
        for op in memo.group_ops(g) {
            let children = memo.op_children(op);
            let posed: Vec<(GroupId, Vec<usize>)> = match &memo.op(op).op {
                OpKind::Join { condition } => vec![
                    (children[0], condition.left_cols()),
                    (children[1], condition.right_cols()),
                ],
                OpKind::Aggregate { group_by, .. } => vec![(children[0], group_by.clone())],
                OpKind::Distinct => {
                    vec![(children[0], (0..memo.schema(children[0]).arity()).collect())]
                }
                _ => vec![],
            };
            for (c, cols) in posed {
                out.push(Question::Combined(c, cols.clone()));
                out.push(Question::Matches(c, cols));
            }
        }
    }
    out
}

/// The answer as bits, so that equality is bit equality.
fn ask(ctx: &mut CostCtx<'_>, q: &Question) -> Vec<u64> {
    match q {
        Question::Delta(g, u) => {
            let d = ctx.delta_for(*g, u);
            vec![d.size.to_bits(), d.kind as u64]
        }
        Question::Combined(g, cols) => vec![ctx.combined_distinct(*g, cols).to_bits()],
        Question::Matches(g, cols) => vec![ctx.matches(*g, cols).to_bits()],
        Question::Keys(g) => ctx
            .keys(*g)
            .iter()
            .flat_map(|k| k.iter().map(|&c| c as u64).chain([u64::MAX]))
            .collect(),
    }
}

fn check(s: &PaperScenario) {
    let model = PageIoCostModel::default();
    let qs = questions(s);
    assert!(qs.iter().any(|q| matches!(q, Question::Delta(..))));
    assert!(qs.iter().any(|q| matches!(q, Question::Combined(..))));
    let mut shared = CostCtx::new(&s.memo, &s.catalog, &model);
    for q in qs.iter().chain(qs.iter().rev()) {
        let fresh = ask(&mut CostCtx::new(&s.memo, &s.catalog, &model), q);
        assert_eq!(ask(&mut shared, q), fresh, "{q:?}");
    }
}

#[test]
fn paper_memo_tables_match_fresh_contexts() {
    check(&problem_dept());
}

#[test]
fn scaling_memo_tables_match_fresh_contexts() {
    check(&scaling_workload());
}
