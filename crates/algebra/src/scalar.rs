//! Scalar expressions over tuples.
//!
//! Column references are **positional** (resolved against the input schema
//! when a tree is built); this gives expressions a canonical structural
//! identity, which the memo (`spacetime-memo`) relies on for hash-consing.
//!
//! Comparison uses SQL three-valued logic: a comparison involving NULL is
//! *unknown*, and predicates treat unknown as false ([`ScalarExpr::eval_predicate`]).

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use spacetime_storage::{DataType, Schema, StorageError, StorageResult, Tuple, Value};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A scalar expression evaluated against one tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarExpr {
    /// Column at position `usize` of the input tuple.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Arithmetic.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Comparison (three-valued).
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// N-ary conjunction (Kleene AND); empty = TRUE.
    And(Vec<ScalarExpr>),
    /// N-ary disjunction (Kleene OR); empty = FALSE.
    Or(Vec<ScalarExpr>),
    /// Negation (three-valued).
    Not(Box<ScalarExpr>),
    /// `IS NULL`.
    IsNull(Box<ScalarExpr>),
}

impl ScalarExpr {
    /// Column reference.
    pub fn col(i: usize) -> Self {
        ScalarExpr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Lit(v.into())
    }

    /// `left op right` arithmetic.
    pub fn bin(op: BinOp, left: ScalarExpr, right: ScalarExpr) -> Self {
        ScalarExpr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `left op right` comparison.
    pub fn cmp(op: CmpOp, left: ScalarExpr, right: ScalarExpr) -> Self {
        ScalarExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Column-equals-column (the equi-join shape).
    pub fn col_eq_col(a: usize, b: usize) -> Self {
        Self::cmp(CmpOp::Eq, Self::col(a), Self::col(b))
    }

    /// Column-equals-literal.
    pub fn col_eq_lit(c: usize, v: impl Into<Value>) -> Self {
        Self::cmp(CmpOp::Eq, Self::col(c), Self::lit(v))
    }

    /// Conjunction of two predicates, flattening nested ANDs.
    pub fn and(self, other: ScalarExpr) -> Self {
        let mut parts = Vec::new();
        for e in [self, other] {
            match e {
                ScalarExpr::And(mut xs) => parts.append(&mut xs),
                x => parts.push(x),
            }
        }
        ScalarExpr::And(parts)
    }

    /// Evaluate against a tuple, producing a value (NULL for unknown
    /// comparisons).
    pub fn eval(&self, tuple: &Tuple) -> StorageResult<Value> {
        self.eval_slice(tuple.values())
    }

    /// [`ScalarExpr::eval`] over a borrowed value slice. The fused kernel
    /// path evaluates rows held in its scratch buffers, which never
    /// become `Tuple`s unless they survive the whole chain.
    pub fn eval_slice(&self, row: &[Value]) -> StorageResult<Value> {
        match self {
            ScalarExpr::Col(i) => {
                row.get(*i)
                    .cloned()
                    .ok_or_else(|| StorageError::SchemaMismatch {
                        detail: format!("column position {i} out of range (arity {})", row.len()),
                    })
            }
            ScalarExpr::Lit(v) => Ok(v.clone()),
            ScalarExpr::Bin { op, left, right } => {
                let l = left.eval_slice(row)?;
                let r = right.eval_slice(row)?;
                match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => l.div(&r),
                }
            }
            ScalarExpr::Cmp { op, left, right } => {
                let l = left.eval_slice(row)?;
                let r = right.eval_slice(row)?;
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(op.test(ord)),
                })
            }
            ScalarExpr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval_slice(row)? {
                        Value::Bool(false) => return Ok(Value::Bool(false)),
                        Value::Bool(true) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(StorageError::TypeError(format!(
                                "AND operand evaluated to non-boolean {other}"
                            )))
                        }
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                })
            }
            ScalarExpr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval_slice(row)? {
                        Value::Bool(true) => return Ok(Value::Bool(true)),
                        Value::Bool(false) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(StorageError::TypeError(format!(
                                "OR operand evaluated to non-boolean {other}"
                            )))
                        }
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            ScalarExpr::Not(inner) => match inner.eval_slice(row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(StorageError::TypeError(format!(
                    "NOT operand evaluated to non-boolean {other}"
                ))),
            },
            ScalarExpr::IsNull(inner) => Ok(Value::Bool(inner.eval_slice(row)?.is_null())),
        }
    }

    /// [`ScalarExpr::eval_predicate`] over a borrowed value slice (the
    /// fused kernel filter path).
    pub fn eval_predicate_slice(&self, row: &[Value]) -> StorageResult<bool> {
        match self.eval_slice(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(StorageError::TypeError(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// Evaluate as a filter predicate: unknown (NULL) is false.
    pub fn eval_predicate(&self, tuple: &Tuple) -> StorageResult<bool> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(StorageError::TypeError(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// Static result type against an input schema.
    pub fn dtype(&self, schema: &Schema) -> StorageResult<DataType> {
        match self {
            ScalarExpr::Col(i) => {
                schema
                    .column(*i)
                    .map(|c| c.dtype)
                    .ok_or_else(|| StorageError::SchemaMismatch {
                        detail: format!("column position {i} out of range for schema [{schema}]"),
                    })
            }
            ScalarExpr::Lit(v) => Ok(v.data_type().unwrap_or(DataType::Str)),
            ScalarExpr::Bin { op, left, right } => {
                let l = left.dtype(schema)?;
                let r = right.dtype(schema)?;
                match (l, r) {
                    (DataType::Int, DataType::Int) if *op != BinOp::Div => Ok(DataType::Int),
                    (DataType::Int, DataType::Int) => Ok(DataType::Int),
                    (DataType::Int | DataType::Double, DataType::Int | DataType::Double) => {
                        Ok(DataType::Double)
                    }
                    _ => Err(StorageError::TypeError(format!(
                        "cannot apply `{}` to {l} and {r}",
                        op.symbol()
                    ))),
                }
            }
            ScalarExpr::Cmp { .. }
            | ScalarExpr::And(_)
            | ScalarExpr::Or(_)
            | ScalarExpr::Not(_)
            | ScalarExpr::IsNull(_) => Ok(DataType::Bool),
        }
    }

    /// All column positions referenced.
    pub fn columns_used(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            ScalarExpr::Col(i) => {
                out.insert(*i);
            }
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Bin { left, right, .. } | ScalarExpr::Cmp { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            ScalarExpr::And(xs) | ScalarExpr::Or(xs) => {
                for x in xs {
                    x.collect_columns(out);
                }
            }
            ScalarExpr::Not(x) | ScalarExpr::IsNull(x) => x.collect_columns(out),
        }
    }

    /// Rewrite column positions through `map` (old position → new
    /// position); positions absent from the map are an error — the caller
    /// must guarantee totality over [`Self::columns_used`].
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> Option<usize>) -> StorageResult<ScalarExpr> {
        Ok(match self {
            ScalarExpr::Col(i) => {
                ScalarExpr::Col(map(*i).ok_or_else(|| StorageError::SchemaMismatch {
                    detail: format!("column position {i} has no image under remapping"),
                })?)
            }
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Bin { op, left, right } => ScalarExpr::Bin {
                op: *op,
                left: Box::new(left.remap_columns(map)?),
                right: Box::new(right.remap_columns(map)?),
            },
            ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
                op: *op,
                left: Box::new(left.remap_columns(map)?),
                right: Box::new(right.remap_columns(map)?),
            },
            ScalarExpr::And(xs) => ScalarExpr::And(
                xs.iter()
                    .map(|x| x.remap_columns(map))
                    .collect::<StorageResult<_>>()?,
            ),
            ScalarExpr::Or(xs) => ScalarExpr::Or(
                xs.iter()
                    .map(|x| x.remap_columns(map))
                    .collect::<StorageResult<_>>()?,
            ),
            ScalarExpr::Not(x) => ScalarExpr::Not(Box::new(x.remap_columns(map)?)),
            ScalarExpr::IsNull(x) => ScalarExpr::IsNull(Box::new(x.remap_columns(map)?)),
        })
    }

    /// Replace every column reference by an expression (used to compose
    /// projections: `π_e1 ∘ π_e2` substitutes `e2`'s outputs into `e1`).
    pub fn substitute(&self, f: &dyn Fn(usize) -> ScalarExpr) -> ScalarExpr {
        match self {
            ScalarExpr::Col(i) => f(*i),
            ScalarExpr::Lit(v) => ScalarExpr::Lit(v.clone()),
            ScalarExpr::Bin { op, left, right } => ScalarExpr::Bin {
                op: *op,
                left: Box::new(left.substitute(f)),
                right: Box::new(right.substitute(f)),
            },
            ScalarExpr::Cmp { op, left, right } => ScalarExpr::Cmp {
                op: *op,
                left: Box::new(left.substitute(f)),
                right: Box::new(right.substitute(f)),
            },
            ScalarExpr::And(xs) => ScalarExpr::And(xs.iter().map(|x| x.substitute(f)).collect()),
            ScalarExpr::Or(xs) => ScalarExpr::Or(xs.iter().map(|x| x.substitute(f)).collect()),
            ScalarExpr::Not(x) => ScalarExpr::Not(Box::new(x.substitute(f))),
            ScalarExpr::IsNull(x) => ScalarExpr::IsNull(Box::new(x.substitute(f))),
        }
    }

    /// Render against a schema (column positions become names).
    pub fn display_with<'a>(&'a self, schema: &'a Schema) -> ScalarDisplay<'a> {
        ScalarDisplay {
            expr: self,
            schema: Some(schema),
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ScalarDisplay {
            expr: self,
            schema: None,
        }
        .fmt(f)
    }
}

/// Display adapter: renders column positions as names when a schema is
/// supplied.
pub struct ScalarDisplay<'a> {
    expr: &'a ScalarExpr,
    schema: Option<&'a Schema>,
}

impl fmt::Display for ScalarDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let column_name = |i: usize| -> String {
            match self.schema.and_then(|s| s.column(i)) {
                Some(c) => c.qualified_name(),
                None => format!("#{i}"),
            }
        };
        fn go(
            e: &ScalarExpr,
            f: &mut fmt::Formatter<'_>,
            name: &dyn Fn(usize) -> String,
        ) -> fmt::Result {
            match e {
                ScalarExpr::Col(i) => write!(f, "{}", name(*i)),
                ScalarExpr::Lit(v) => write!(f, "{v}"),
                ScalarExpr::Bin { op, left, right } => {
                    write!(f, "(")?;
                    go(left, f, name)?;
                    write!(f, " {} ", op.symbol())?;
                    go(right, f, name)?;
                    write!(f, ")")
                }
                ScalarExpr::Cmp { op, left, right } => {
                    go(left, f, name)?;
                    write!(f, " {} ", op.symbol())?;
                    go(right, f, name)
                }
                ScalarExpr::And(xs) => {
                    if xs.is_empty() {
                        return write!(f, "TRUE");
                    }
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " AND ")?;
                        }
                        go(x, f, name)?;
                    }
                    Ok(())
                }
                ScalarExpr::Or(xs) => {
                    if xs.is_empty() {
                        return write!(f, "FALSE");
                    }
                    for (i, x) in xs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " OR ")?;
                        }
                        go(x, f, name)?;
                    }
                    Ok(())
                }
                ScalarExpr::Not(x) => {
                    write!(f, "NOT (")?;
                    go(x, f, name)?;
                    write!(f, ")")
                }
                ScalarExpr::IsNull(x) => {
                    go(x, f, name)?;
                    write!(f, " IS NULL")
                }
            }
        }
        go(self.expr, f, &column_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_storage::tuple;

    #[test]
    fn arithmetic_and_comparison() {
        let t = tuple![3, 4];
        let e = ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(0), ScalarExpr::col(1));
        assert_eq!(e.eval(&t).unwrap(), Value::Int(12));
        let p = ScalarExpr::cmp(CmpOp::Gt, e, ScalarExpr::lit(10));
        assert!(p.eval_predicate(&t).unwrap());
    }

    #[test]
    fn every_comparison_on_less_equal_greater_and_null() {
        // Left operand 1, 2 or 3 against 2; then NULL on either side.
        // Columns: <, =, > and NULL-involved (always unknown).
        let table = [
            (CmpOp::Eq, [false, true, false]),
            (CmpOp::Ne, [true, false, true]),
            (CmpOp::Lt, [true, false, false]),
            (CmpOp::Le, [true, true, false]),
            (CmpOp::Gt, [false, false, true]),
            (CmpOp::Ge, [false, true, true]),
        ];
        for (op, want) in table {
            for (left, want) in [1, 2, 3].into_iter().zip(want) {
                let e = ScalarExpr::cmp(op, ScalarExpr::lit(left), ScalarExpr::lit(2));
                let got = e.eval(&tuple![]).unwrap();
                assert_eq!(got, Value::Bool(want), "{left} {} 2", op.symbol());
            }
            for (l, r) in [(Value::Null, Value::Int(2)), (Value::Int(2), Value::Null)] {
                let e = ScalarExpr::cmp(op, ScalarExpr::Lit(l), ScalarExpr::Lit(r));
                assert_eq!(e.eval(&tuple![]).unwrap(), Value::Null, "{op:?} on NULL");
                assert!(!e.eval_predicate(&tuple![]).unwrap(), "unknown filters out");
            }
        }
    }

    #[test]
    fn three_valued_logic() {
        let t = tuple![Value::Null, 1];
        // NULL > 0 is unknown → filtered out.
        let p = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(0), ScalarExpr::lit(0));
        assert_eq!(p.eval(&t).unwrap(), Value::Null);
        assert!(!p.eval_predicate(&t).unwrap());
        // NOT unknown is unknown.
        let n = ScalarExpr::Not(Box::new(p.clone()));
        assert_eq!(n.eval(&t).unwrap(), Value::Null);
        // unknown AND false = false; unknown OR true = true (Kleene).
        let and = p.clone().and(ScalarExpr::lit(false));
        assert_eq!(and.eval(&t).unwrap(), Value::Bool(false));
        let or = ScalarExpr::Or(vec![p, ScalarExpr::lit(true)]);
        assert_eq!(or.eval(&t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_is_two_valued() {
        let t = tuple![Value::Null];
        let p = ScalarExpr::IsNull(Box::new(ScalarExpr::col(0)));
        assert_eq!(p.eval(&t).unwrap(), Value::Bool(true));
    }

    #[test]
    fn and_flattens() {
        let a = ScalarExpr::col_eq_lit(0, 1).and(ScalarExpr::col_eq_lit(1, 2));
        let b = a.clone().and(ScalarExpr::col_eq_lit(2, 3));
        match b {
            ScalarExpr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened AND, got {other:?}"),
        }
        let _ = a;
    }

    #[test]
    fn columns_used_and_remap() {
        let e = ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::col(2),
            ScalarExpr::bin(BinOp::Add, ScalarExpr::col(5), ScalarExpr::lit(1)),
        );
        assert_eq!(e.columns_used().into_iter().collect::<Vec<_>>(), vec![2, 5]);
        let shifted = e.remap_columns(&|c| Some(c + 10)).unwrap();
        assert_eq!(
            shifted.columns_used().into_iter().collect::<Vec<_>>(),
            vec![12, 15]
        );
        assert!(e
            .remap_columns(&|c| if c == 2 { Some(0) } else { None })
            .is_err());
    }

    #[test]
    fn dtype_inference() {
        let s = Schema::of_table("T", &[("a", DataType::Int), ("b", DataType::Double)]);
        let e = ScalarExpr::bin(BinOp::Add, ScalarExpr::col(0), ScalarExpr::col(1));
        assert_eq!(e.dtype(&s).unwrap(), DataType::Double);
        let i = ScalarExpr::bin(BinOp::Mul, ScalarExpr::col(0), ScalarExpr::col(0));
        assert_eq!(i.dtype(&s).unwrap(), DataType::Int);
        let c = ScalarExpr::col_eq_col(0, 1);
        assert_eq!(c.dtype(&s).unwrap(), DataType::Bool);
        assert!(ScalarExpr::col(9).dtype(&s).is_err());
    }

    #[test]
    fn eval_error_paths() {
        let t = tuple![1];
        assert!(ScalarExpr::col(3).eval(&t).is_err());
        let bad_and = ScalarExpr::And(vec![ScalarExpr::lit(7)]);
        assert!(bad_and.eval(&t).is_err());
        let bad_not = ScalarExpr::Not(Box::new(ScalarExpr::lit("x")));
        assert!(bad_not.eval(&t).is_err());
    }

    #[test]
    fn display_with_schema_uses_names() {
        let s = Schema::of_table(
            "Dept",
            &[("DName", DataType::Str), ("Budget", DataType::Int)],
        );
        let p = ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(1), ScalarExpr::lit(100));
        assert_eq!(p.display_with(&s).to_string(), "Dept.Budget > 100");
        assert_eq!(p.to_string(), "#1 > 100");
    }
}
