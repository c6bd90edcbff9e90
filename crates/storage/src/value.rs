//! The value domain.
//!
//! Values are the atoms stored in tuples. The domain is deliberately small —
//! the paper's examples need integers, floats (salaries/budgets), strings
//! (names) and NULL — but the comparison and hashing semantics are done
//! carefully so that values can serve as grouping keys, hash-index keys and
//! bag elements:
//!
//! * [`Value`] implements **total** `Eq`/`Ord`/`Hash`. Doubles are compared
//!   via a total order (NaN sorts greatest and equals itself), and `Null`
//!   equals `Null` — matching SQL `GROUP BY`/`DISTINCT` treatment, *not* SQL
//!   `=` (three-valued comparison is provided separately by [`Value::sql_eq`]
//!   and [`Value::sql_cmp`]).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{StorageError, StorageResult};
use crate::smallstr::SmallStr;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Booleans.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE floats.
    Double,
    /// UTF-8 strings.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Int => write!(f, "INTEGER"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Double(f64),
    /// A string; short content is stored inline, long content is interned
    /// (see [`SmallStr`]).
    Str(SmallStr),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(SmallStr::new(s.as_ref()))
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type of this value, or `None` for NULL (which inhabits
    /// every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Whether the value inhabits `ty` (NULL inhabits everything).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        self.data_type().is_none_or(|t| t == ty)
    }

    /// Numeric view of the value, coercing `Int` to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL three-valued equality: `NULL = x` is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL three-valued comparison: `None` when either side is NULL or the
    /// values are of incomparable types.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Int(_), Value::Double(_)) | (Value::Double(_), Value::Int(_)) => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                Some(a.partial_cmp(&b).unwrap_or(Ordering::Equal))
            }
            (a, b) if a.data_type() == b.data_type() => Some(self.total_cmp(other)),
            _ => None,
        }
    }

    /// Total comparison used for grouping, indexing, and deterministic
    /// output ordering. NULL sorts first; across types, order is
    /// Null < Bool < numeric < Str; ints and doubles compare numerically.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) => 2,
                Value::Str(_) => 3,
            }
        }
        // Normalize -0.0 to 0.0 so the total order agrees with `Hash`.
        fn norm(d: f64) -> f64 {
            if d == 0.0 {
                0.0
            } else {
                d
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => norm(*a).total_cmp(&norm(*b)),
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(&norm(*b)),
            (Value::Double(a), Value::Int(b)) => norm(*a).total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Add two numeric values (used by SUM/AVG maintenance).
    pub fn add(&self, other: &Value) -> StorageResult<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtract two numeric values (used by SUM maintenance on deletions).
    pub fn sub(&self, other: &Value) -> StorageResult<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiply two numeric values.
    pub fn mul(&self, other: &Value) -> StorageResult<Value> {
        numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Divide two numeric values; integer division for two ints; division by
    /// zero is a type error (we have no error-value domain).
    pub fn div(&self, other: &Value) -> StorageResult<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(StorageError::TypeError("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => {
                let (a, b) = float_pair(self, other, "/")?;
                if b == 0.0 {
                    Err(StorageError::TypeError("division by zero".into()))
                } else {
                    Ok(Value::Double(a / b))
                }
            }
        }
    }

    /// Negate a numeric value.
    pub fn neg(&self) -> StorageResult<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(a) => Ok(Value::Int(-a)),
            Value::Double(a) => Ok(Value::Double(-a)),
            other => Err(StorageError::TypeError(format!("cannot negate {other}"))),
        }
    }
}

fn float_pair(a: &Value, b: &Value, op: &str) -> StorageResult<(f64, f64)> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(StorageError::TypeError(format!(
            "cannot apply `{op}` to {a} and {b}"
        ))),
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    dbl_op: impl Fn(f64, f64) -> f64,
) -> StorageResult<Value> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| StorageError::TypeError(format!("integer overflow in `{op}`"))),
        _ => {
            let (x, y) = float_pair(a, b, op)?;
            Ok(Value::Double(dbl_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Word compares for inline strings, pointer identity for
            // interned ones — no ordering needed to decide equality.
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The discriminant scheme must agree with `total_cmp`'s notion of
        // equality: ints and doubles that compare equal must hash equally,
        // so all numerics hash through their f64 bits when the value is
        // representable, and ints otherwise.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                let as_d = *i as f64;
                if as_d as i64 == *i {
                    2u8.hash(state);
                    as_d.to_bits().hash(state);
                } else {
                    3u8.hash(state);
                    i.hash(state);
                }
            }
            Value::Double(d) => {
                2u8.hash(state);
                // Normalize -0.0 to 0.0 so equal values hash equally.
                let d = if *d == 0.0 { 0.0 } else { *d };
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_equals_null_for_grouping() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn int_double_cross_type_equality_and_hash_agree() {
        let a = Value::Int(42);
        let b = Value::Double(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Double(0.0)));
    }

    #[test]
    fn nan_is_totally_ordered_and_self_equal() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(nan.total_cmp(&Value::Double(1e300)), Ordering::Greater);
    }

    #[test]
    fn sql_cmp_is_three_valued() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("a")), None);
    }

    #[test]
    fn arithmetic_propagates_null() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(2).mul(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_mixed_types() {
        assert_eq!(
            Value::Int(2).add(&Value::Double(0.5)).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
    }

    #[test]
    fn arithmetic_type_errors() {
        assert!(Value::str("x").add(&Value::Int(1)).is_err());
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Bool(true).neg().is_err());
    }

    #[test]
    fn integer_overflow_is_detected() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn display_renders_sql_ish() {
        assert_eq!(Value::str("Sales").to_string(), "'Sales'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(10).to_string(), "10");
    }

    #[test]
    fn cross_type_rank_order_is_stable() {
        let mut vs = vec![
            Value::str("a"),
            Value::Int(5),
            Value::Bool(true),
            Value::Null,
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(5),
                Value::str("a"),
            ]
        );
    }
}
