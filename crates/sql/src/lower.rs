//! Lowering parsed `SELECT`s to relational algebra.
//!
//! The shape matches the paper's canonical reading of its SQL examples:
//! cross-product `FROM` + `WHERE` equalities become equi-joins (left-deep,
//! in `FROM` order), residual conjuncts become a selection, `GROUP
//! BY`/aggregates become a grouping node, `HAVING` a selection above it,
//! and the `SELECT` list a final projection (omitted when it is the
//! identity — e.g. the Figure 1 trees, whose root is the HAVING
//! selection).

use spacetime_algebra::{
    AggExpr, AggFunc, BinOp, CmpOp, ExprNode, ExprTree, JoinCondition, ScalarExpr,
};
use spacetime_storage::{Catalog, Schema, StorageError, Value};

use crate::ast::{AggName, Expr, Select, SelectItem};
use crate::{SqlError, SqlResult};

/// Lower a `SELECT` to an expression tree against the catalog.
pub fn lower_select(select: &Select, catalog: &Catalog) -> SqlResult<ExprTree> {
    if select.from.is_empty() {
        return Err(SqlError::Parse {
            offset: 0,
            message: "FROM clause is required".into(),
        });
    }

    // FROM: scans (aliased scans re-qualify their schema).
    let mut sources: Vec<ExprTree> = Vec::new();
    for tref in &select.from {
        let scan = ExprNode::scan(catalog, &tref.table)?;
        let scan = match &tref.alias {
            Some(alias) => {
                // Requalify by projecting identity with a renamed schema —
                // cheapest is to rebuild the node with a requalified schema.
                std::sync::Arc::new(ExprNode {
                    op: scan.op.clone(),
                    children: vec![],
                    schema: scan.schema.requalify(alias),
                })
            }
            None => scan,
        };
        sources.push(scan);
    }

    // WHERE: split conjuncts into join pairs and residual predicates.
    let conjuncts = flatten_and(select.where_clause.as_ref());

    // Fold joins left-deep in FROM order, consuming join conjuncts whose
    // two sides resolve to the current tree and the incoming table.
    let mut used = vec![false; conjuncts.len()];
    let mut current = sources[0].clone();
    for next in &sources[1..] {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (ci, c) in conjuncts.iter().enumerate() {
            if used[ci] {
                continue;
            }
            if let Expr::Binary { op, left, right } = c {
                if op == "=" {
                    if let (Expr::Column { .. }, Expr::Column { .. }) = (&**left, &**right) {
                        let l_cur = resolve_col(left, &current.schema).ok();
                        let r_next = resolve_col(right, &next.schema).ok();
                        let l_next = resolve_col(left, &next.schema).ok();
                        let r_cur = resolve_col(right, &current.schema).ok();
                        if let (Some(lc), Some(rn)) = (l_cur, r_next) {
                            pairs.push((lc, rn));
                            used[ci] = true;
                            continue;
                        }
                        if let (Some(ln), Some(rc)) = (l_next, r_cur) {
                            pairs.push((rc, ln));
                            used[ci] = true;
                        }
                    }
                }
            }
        }
        current = ExprNode::join(current, next.clone(), JoinCondition::on(pairs))?;
    }

    // Residual WHERE conjuncts become one selection.
    let residual: Vec<&Expr> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| !used[*i])
        .map(|(_, c)| c)
        .collect();
    if !residual.is_empty() {
        let mut pred = lower_scalar(residual[0], &current.schema)?;
        for c in &residual[1..] {
            pred = pred.and(lower_scalar(c, &current.schema)?);
        }
        current = ExprNode::select(current, pred)?;
    }

    // Aggregation.
    let has_agg = !select.group_by.is_empty()
        || select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_agg(expr)))
        || select.having.as_ref().is_some_and(contains_agg);

    if has_agg {
        current = lower_aggregate(select, current)?;
    } else {
        if select.having.is_some() {
            return Err(SqlError::Parse {
                offset: 0,
                message: "HAVING requires GROUP BY or aggregates".into(),
            });
        }
        // Plain projection (skipped when the select list is `*`).
        let is_wildcard =
            select.items.len() == 1 && matches!(select.items[0], SelectItem::Wildcard);
        if !is_wildcard {
            let mut exprs = Vec::new();
            for (i, item) in select.items.iter().enumerate() {
                match item {
                    SelectItem::Wildcard => {
                        for (p, col) in current.schema.columns().iter().enumerate() {
                            exprs.push((ScalarExpr::col(p), col.name.clone()));
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let lowered = lower_scalar(expr, &current.schema)?;
                        exprs.push((lowered, output_name(expr, alias, i)));
                    }
                }
            }
            current = ExprNode::project(current, exprs)?;
        }
    }

    if select.distinct {
        current = ExprNode::distinct(current)?;
    }
    Ok(current)
}

/// Aggregation lowering: grouping node, HAVING selection, final projection.
fn lower_aggregate(select: &Select, input: ExprTree) -> SqlResult<ExprTree> {
    // Group columns must be plain column references.
    let mut group_by: Vec<usize> = Vec::new();
    for g in &select.group_by {
        match resolve_col(g, &input.schema) {
            Ok(pos) => group_by.push(pos),
            Err(e) => return Err(e),
        }
    }

    // Collect every distinct aggregate appearing in the SELECT list and
    // HAVING.
    let mut aggs: Vec<(AggName, Option<Expr>)> = Vec::new();
    let mut collect = |e: &Expr| collect_aggs(e, &mut aggs);
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &select.having {
        collect_aggs(h, &mut aggs);
    }

    let mut agg_exprs: Vec<AggExpr> = Vec::new();
    for (i, (func, arg)) in aggs.iter().enumerate() {
        // Output name: the alias when a SELECT item is exactly this
        // aggregate, else synthesized.
        let mut name = format!("agg{i}");
        for item in &select.items {
            if let SelectItem::Expr {
                expr: Expr::Agg { func: f, arg: a },
                alias: Some(alias),
            } = item
            {
                if f_matches(*f, a.as_deref(), *func, arg.as_ref()) {
                    name = alias.clone();
                }
            }
        }
        let lowered_arg = arg
            .as_ref()
            .map(|a| lower_scalar(a, &input.schema))
            .transpose()?;
        agg_exprs.push(AggExpr {
            func: match func {
                AggName::Count => AggFunc::Count,
                AggName::Sum => AggFunc::Sum,
                AggName::Min => AggFunc::Min,
                AggName::Max => AggFunc::Max,
                AggName::Avg => AggFunc::Avg,
            },
            arg: lowered_arg,
            name,
        });
    }

    let input_schema = input.schema.clone();
    let mut current = ExprNode::aggregate(input, group_by.clone(), agg_exprs)?;

    // HAVING over the aggregate output.
    if let Some(h) = &select.having {
        let pred = lower_post_agg(h, &input_schema, &group_by, &aggs, &current.schema)?;
        current = ExprNode::select(current, pred)?;
    }

    // Final projection from the SELECT list (skipped when identity).
    let mut exprs = Vec::new();
    for (i, item) in select.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (p, col) in current.schema.columns().iter().enumerate() {
                    exprs.push((ScalarExpr::col(p), col.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let lowered =
                    lower_post_agg(expr, &input_schema, &group_by, &aggs, &current.schema)?;
                exprs.push((lowered, output_name(expr, alias, i)));
            }
        }
    }
    let identity = exprs.len() == current.schema.arity()
        && exprs
            .iter()
            .enumerate()
            .all(|(i, (e, _))| matches!(e, ScalarExpr::Col(c) if *c == i));
    if !identity {
        current = ExprNode::project(current, exprs)?;
    }
    Ok(current)
}

fn f_matches(f1: AggName, a1: Option<&Expr>, f2: AggName, a2: Option<&Expr>) -> bool {
    f1 == f2 && a1 == a2
}

fn collect_aggs(e: &Expr, out: &mut Vec<(AggName, Option<Expr>)>) {
    match e {
        Expr::Agg { func, arg } => {
            let entry = (*func, arg.as_deref().cloned());
            if !out.contains(&entry) {
                out.push(entry);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Not(x) => collect_aggs(x, out),
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        _ => {}
    }
}

fn contains_agg(e: &Expr) -> bool {
    let mut v = Vec::new();
    collect_aggs(e, &mut v);
    !v.is_empty()
}

fn output_name(expr: &Expr, alias: &Option<String>, index: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Agg { func, .. } => format!(
            "{}{}",
            match func {
                AggName::Count => "Count",
                AggName::Sum => "Sum",
                AggName::Min => "Min",
                AggName::Max => "Max",
                AggName::Avg => "Avg",
            },
            index
        ),
        _ => format!("expr{index}"),
    }
}

fn flatten_and(e: Option<&Expr>) -> Vec<Expr> {
    let mut out = Vec::new();
    fn go(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary { op, left, right } if op == "AND" => {
                go(left, out);
                go(right, out);
            }
            other => out.push(other.clone()),
        }
    }
    if let Some(e) = e {
        go(e, &mut out);
    }
    out
}

fn resolve_col(e: &Expr, schema: &Schema) -> SqlResult<usize> {
    match e {
        Expr::Column { qualifier, name } => Ok(schema.resolve(qualifier.as_deref(), name)?),
        other => Err(SqlError::Semantic(StorageError::TypeError(format!(
            "expected a column reference, found {other:?}"
        )))),
    }
}

/// Lower a scalar expression (no aggregates allowed) against a schema.
pub fn lower_scalar(e: &Expr, schema: &Schema) -> SqlResult<ScalarExpr> {
    Ok(match e {
        Expr::Column { qualifier, name } => {
            ScalarExpr::col(schema.resolve(qualifier.as_deref(), name)?)
        }
        Expr::Int(v) => ScalarExpr::lit(*v),
        Expr::Float(v) => ScalarExpr::lit(*v),
        Expr::Str(s) => ScalarExpr::Lit(Value::str(s.clone())),
        Expr::Bool(b) => ScalarExpr::lit(*b),
        Expr::Null => ScalarExpr::Lit(Value::Null),
        Expr::Not(x) => ScalarExpr::Not(Box::new(lower_scalar(x, schema)?)),
        Expr::IsNull { expr, negated } => {
            let inner = ScalarExpr::IsNull(Box::new(lower_scalar(expr, schema)?));
            if *negated {
                ScalarExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        Expr::Binary { op, left, right } => {
            let l = lower_scalar(left, schema)?;
            let r = lower_scalar(right, schema)?;
            lower_binop(op, l, r)?
        }
        Expr::Agg { .. } => {
            return Err(SqlError::Semantic(StorageError::TypeError(
                "aggregate used outside GROUP BY context".into(),
            )))
        }
    })
}

/// Lower an expression over an aggregate's output: plain columns resolve
/// to group columns, aggregate calls resolve to aggregate outputs.
fn lower_post_agg(
    e: &Expr,
    input_schema: &Schema,
    group_by: &[usize],
    aggs: &[(AggName, Option<Expr>)],
    out_schema: &Schema,
) -> SqlResult<ScalarExpr> {
    Ok(match e {
        Expr::Agg { func, arg } => {
            let pos = aggs
                .iter()
                .position(|(f, a)| {
                    f_matches(*f, arg.as_deref(), *f, a.as_ref())
                        && f == func
                        && a.as_ref() == arg.as_deref()
                })
                .ok_or_else(|| {
                    SqlError::Semantic(StorageError::TypeError("aggregate not collected".into()))
                })?;
            ScalarExpr::col(group_by.len() + pos)
        }
        Expr::Column { qualifier, name } => {
            // A grouped column: find its input position, then its output
            // slot.
            let input_pos = input_schema.resolve(qualifier.as_deref(), name)?;
            match group_by.iter().position(|&g| g == input_pos) {
                Some(out_pos) => ScalarExpr::col(out_pos),
                None => {
                    // Maybe it names an aggregate output directly (alias).
                    ScalarExpr::col(out_schema.resolve(qualifier.as_deref(), name)?)
                }
            }
        }
        Expr::Int(v) => ScalarExpr::lit(*v),
        Expr::Float(v) => ScalarExpr::lit(*v),
        Expr::Str(s) => ScalarExpr::Lit(Value::str(s.clone())),
        Expr::Bool(b) => ScalarExpr::lit(*b),
        Expr::Null => ScalarExpr::Lit(Value::Null),
        Expr::Not(x) => ScalarExpr::Not(Box::new(lower_post_agg(
            x,
            input_schema,
            group_by,
            aggs,
            out_schema,
        )?)),
        Expr::IsNull { expr, negated } => {
            let inner = ScalarExpr::IsNull(Box::new(lower_post_agg(
                expr,
                input_schema,
                group_by,
                aggs,
                out_schema,
            )?));
            if *negated {
                ScalarExpr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        Expr::Binary { op, left, right } => {
            let l = lower_post_agg(left, input_schema, group_by, aggs, out_schema)?;
            let r = lower_post_agg(right, input_schema, group_by, aggs, out_schema)?;
            lower_binop(op, l, r)?
        }
    })
}

fn lower_binop(op: &str, l: ScalarExpr, r: ScalarExpr) -> SqlResult<ScalarExpr> {
    Ok(match op {
        "+" => ScalarExpr::bin(BinOp::Add, l, r),
        "-" => ScalarExpr::bin(BinOp::Sub, l, r),
        "*" => ScalarExpr::bin(BinOp::Mul, l, r),
        "/" => ScalarExpr::bin(BinOp::Div, l, r),
        "=" => ScalarExpr::cmp(CmpOp::Eq, l, r),
        "<>" => ScalarExpr::cmp(CmpOp::Ne, l, r),
        "<" => ScalarExpr::cmp(CmpOp::Lt, l, r),
        "<=" => ScalarExpr::cmp(CmpOp::Le, l, r),
        ">" => ScalarExpr::cmp(CmpOp::Gt, l, r),
        ">=" => ScalarExpr::cmp(CmpOp::Ge, l, r),
        "AND" => l.and(r),
        "OR" => ScalarExpr::Or(vec![l, r]),
        other => {
            return Err(SqlError::Parse {
                offset: 0,
                message: format!("unsupported operator `{other}`"),
            })
        }
    })
}

/// Lower a literal row (INSERT VALUES) to concrete values.
pub fn lower_literal_row(row: &[Expr]) -> SqlResult<Vec<Value>> {
    row.iter()
        .map(|e| match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Double(*v)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Binary { op, left, right } if op == "-" => {
                // Negative literals parse as 0 - x.
                match (&**left, &**right) {
                    (Expr::Int(0), Expr::Int(v)) => Ok(Value::Int(-v)),
                    (Expr::Int(0), Expr::Float(v)) => Ok(Value::Double(-v)),
                    _ => Err(SqlError::Semantic(StorageError::TypeError(
                        "VALUES rows must be literals".into(),
                    ))),
                }
            }
            _ => Err(SqlError::Semantic(StorageError::TypeError(
                "VALUES rows must be literals".into(),
            ))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Statement;
    use spacetime_algebra::OpKind;
    use spacetime_storage::DataType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "Emp",
            Schema::of_table(
                "Emp",
                &[
                    ("EName", DataType::Str),
                    ("DName", DataType::Str),
                    ("Salary", DataType::Int),
                ],
            ),
        )
        .unwrap();
        cat.create_table(
            "Dept",
            Schema::of_table(
                "Dept",
                &[
                    ("DName", DataType::Str),
                    ("MName", DataType::Str),
                    ("Budget", DataType::Int),
                ],
            ),
        )
        .unwrap();
        cat
    }

    fn lower(sql: &str) -> ExprTree {
        let cat = catalog();
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        lower_select(&sel, &cat).unwrap()
    }

    #[test]
    fn problem_dept_lowers_to_figure1_shape() {
        let tree = lower(
            "SELECT Dept.DName FROM Emp, Dept \
             WHERE Dept.DName = Emp.DName \
             GROUP BY Dept.DName, Budget \
             HAVING SUM(Salary) > Budget",
        );
        // Project(Select(Aggregate(Join(Emp, Dept)))).
        let rendered = tree.render();
        assert!(rendered.contains("Project"), "{rendered}");
        assert!(
            rendered.contains("Select (agg0 > Dept.Budget)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("Aggregate (SUM(Emp.Salary) BY Dept.DName, Dept.Budget)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("Join (Emp.DName = Dept.DName)"),
            "{rendered}"
        );
    }

    #[test]
    fn where_residual_becomes_selection() {
        let tree = lower(
            "SELECT * FROM Emp, Dept \
             WHERE Emp.DName = Dept.DName AND Salary > 100",
        );
        let rendered = tree.render();
        assert!(rendered.contains("Select (Emp.Salary > 100)"), "{rendered}");
        assert!(rendered.contains("Join"), "{rendered}");
    }

    #[test]
    fn each_comparison_lowers_to_its_cmp_op() {
        let table = [
            ("=", CmpOp::Eq),
            ("<>", CmpOp::Ne),
            ("<", CmpOp::Lt),
            ("<=", CmpOp::Le),
            (">", CmpOp::Gt),
            (">=", CmpOp::Ge),
        ];
        for (sql_op, want) in table {
            let tree = lower(&format!("SELECT * FROM Emp WHERE Salary {sql_op} 100"));
            let OpKind::Select { predicate } = &tree.op else {
                panic!("`{sql_op}`: not a selection: {}", tree.render())
            };
            let ScalarExpr::Cmp { op, .. } = predicate else {
                panic!("`{sql_op}`: not a comparison: {predicate:?}")
            };
            assert_eq!(*op, want, "`{sql_op}`");
        }
    }

    #[test]
    fn wildcard_skips_projection() {
        let tree = lower("SELECT * FROM Emp");
        assert!(matches!(tree.op, OpKind::Scan { .. }));
    }

    #[test]
    fn sum_of_sals_view_shape() {
        let tree = lower("SELECT DName, SUM(Salary) AS SalSum FROM Emp GROUP BY DName");
        assert!(
            matches!(tree.op, OpKind::Aggregate { .. }),
            "projection elided (identity)"
        );
        assert_eq!(tree.schema.column(1).unwrap().name, "SalSum");
    }

    #[test]
    fn aliases_requalify() {
        let cat = catalog();
        let Statement::Select(sel) =
            parse_statement("SELECT e1.EName FROM Emp e1, Emp e2 WHERE e1.DName = e2.DName")
                .unwrap()
        else {
            panic!()
        };
        let tree = lower_select(&sel, &cat).unwrap();
        assert_eq!(tree.schema.arity(), 1);
        assert_eq!(
            tree.schema.column(0).unwrap().qualifier.as_deref(),
            Some("e1")
        );
    }

    #[test]
    fn distinct_lowered() {
        let tree = lower("SELECT DISTINCT DName FROM Emp");
        assert!(matches!(tree.op, OpKind::Distinct));
    }

    #[test]
    fn count_star_and_avg() {
        let tree = lower("SELECT DName, COUNT(*), AVG(Salary) FROM Emp GROUP BY DName");
        assert_eq!(tree.schema.arity(), 3);
        assert_eq!(tree.schema.column(2).unwrap().dtype, DataType::Double);
    }

    #[test]
    fn unknown_column_is_semantic_error() {
        let cat = catalog();
        let Statement::Select(sel) = parse_statement("SELECT Nope FROM Emp").unwrap() else {
            panic!()
        };
        assert!(matches!(
            lower_select(&sel, &cat),
            Err(SqlError::Semantic(_))
        ));
    }

    #[test]
    fn having_without_group_rejected() {
        let cat = catalog();
        let Statement::Select(sel) =
            parse_statement("SELECT EName FROM Emp HAVING EName = 'x'").unwrap()
        else {
            panic!()
        };
        assert!(lower_select(&sel, &cat).is_err());
    }

    #[test]
    fn literal_rows() {
        let row = vec![Expr::Str("a".into()), Expr::Int(5), Expr::Null];
        let vals = lower_literal_row(&row).unwrap();
        assert_eq!(vals, vec![Value::str("a"), Value::Int(5), Value::Null]);
        assert!(lower_literal_row(&[Expr::Column {
            qualifier: None,
            name: "x".into()
        }])
        .is_err());
    }
}
