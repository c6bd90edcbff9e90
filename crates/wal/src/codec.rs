//! Hand-rolled binary codec for WAL frames and checkpoint segments.
//!
//! Everything durable goes through this module: primitive
//! little-endian scalars, [`Value`]/[`Tuple`]/[`Bag`] rows, whole
//! [`Delta`]s, and structural [`ExprTree`] dumps (re-decoded against a
//! live catalog via [`ExprNode::scan`]/[`ExprNode::build`], so schemas
//! are re-derived rather than trusted from disk). The build
//! environment has no registry access, so the CRC32 (IEEE/zlib
//! polynomial) is hand-written rather than pulled from a crate.

use spacetime_algebra::{AggExpr, AggFunc, BinOp, CmpOp, JoinCondition, OpKind, ScalarExpr};
use spacetime_algebra::{ExprNode, ExprTree};
use spacetime_delta::{Delta, Modify};
use spacetime_storage::{Bag, Catalog, DataType, Tuple, Value};

use crate::{WalError, WalResult};

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 / zlib polynomial, reflected)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum (IEEE polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(data);
    crc.finish()
}

/// A running [`crc32`] over data that arrives in pieces: the checksum of
/// the concatenation of everything passed to [`Crc32::update`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(0xFFFF_FFFF)
    }
}

impl Crc32 {
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = CRC32_TABLE[((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
    }
}

// ---------------------------------------------------------------------------
// Cursor (primitive readers)
// ---------------------------------------------------------------------------

/// Bounds-checked read cursor over a decoded payload. Every read
/// returns [`WalError::Corrupt`] rather than panicking on truncation.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> WalResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WalError::Corrupt(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> WalResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> WalResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> WalResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> WalResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> WalResult<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    pub fn bool(&mut self) -> WalResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WalError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    pub fn str(&mut self) -> WalResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WalError::Corrupt("non-utf8 string".into()))
    }

    pub fn opt_str(&mut self) -> WalResult<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            b => Err(WalError::Corrupt(format!("invalid option byte {b}"))),
        }
    }

    pub fn usize_vec(&mut self) -> WalResult<Vec<usize>> {
        let n = self.u32()? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(self.u32()? as usize);
        }
        Ok(v)
    }
}

pub fn put_usize_vec(buf: &mut Vec<u8>, v: &[usize]) {
    put_u32(buf, v.len() as u32);
    for &i in v {
        put_u32(buf, i as u32);
    }
}

// ---------------------------------------------------------------------------
// Values, tuples, bags, deltas
// ---------------------------------------------------------------------------

pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_bool(buf, *b);
        }
        Value::Int(i) => {
            put_u8(buf, 2);
            put_i64(buf, *i);
        }
        Value::Double(d) => {
            put_u8(buf, 3);
            put_f64(buf, *d);
        }
        Value::Str(_) => {
            put_u8(buf, 4);
            put_str(buf, v.as_str().expect("Str value has str repr"));
        }
    }
}

pub fn get_value(cur: &mut Cur) -> WalResult<Value> {
    match cur.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(cur.bool()?)),
        2 => Ok(Value::Int(cur.i64()?)),
        3 => Ok(Value::Double(cur.f64()?)),
        4 => Ok(Value::str(cur.str()?)),
        t => Err(WalError::Corrupt(format!("invalid value tag {t}"))),
    }
}

pub fn put_datatype(buf: &mut Vec<u8>, d: DataType) {
    put_u8(
        buf,
        match d {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Double => 2,
            DataType::Str => 3,
        },
    );
}

pub fn get_datatype(cur: &mut Cur) -> WalResult<DataType> {
    match cur.u8()? {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Double),
        3 => Ok(DataType::Str),
        t => Err(WalError::Corrupt(format!("invalid datatype tag {t}"))),
    }
}

pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    let vals = t.values();
    put_u32(buf, vals.len() as u32);
    for v in vals {
        put_value(buf, v);
    }
}

pub fn get_tuple(cur: &mut Cur) -> WalResult<Tuple> {
    let n = cur.u32()? as usize;
    let mut vals = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        vals.push(get_value(cur)?);
    }
    Ok(Tuple::new(vals))
}

/// Bags serialize in [`Bag::sorted`] order so encoding is a pure
/// function of contents — byte-identical dumps for equal bags.
pub fn put_bag(buf: &mut Vec<u8>, b: &Bag) {
    let rows = b.sorted();
    put_u32(buf, rows.len() as u32);
    for (t, n) in rows {
        put_tuple(buf, &t);
        put_u64(buf, n);
    }
}

/// Decoding rejects a bag whose counts sum past `u64::MAX` — no real bag
/// holds that many rows, and [`Bag::insert`] would overflow.
pub fn get_bag(cur: &mut Cur) -> WalResult<Bag> {
    let n = cur.u32()? as usize;
    let mut b = Bag::default();
    for _ in 0..n {
        let t = get_tuple(cur)?;
        let c = cur.u64()?;
        if b.len().checked_add(c).is_none() {
            return Err(WalError::Corrupt("bag counts overflow".into()));
        }
        b.insert(t, c);
    }
    Ok(b)
}

pub fn put_delta(buf: &mut Vec<u8>, d: &Delta) {
    put_bag(buf, &d.inserts);
    put_bag(buf, &d.deletes);
    put_u32(buf, d.modifies.len() as u32);
    for m in &d.modifies {
        put_tuple(buf, &m.old);
        put_tuple(buf, &m.new);
        put_u64(buf, m.count);
    }
}

pub fn get_delta(cur: &mut Cur) -> WalResult<Delta> {
    let inserts = get_bag(cur)?;
    let deletes = get_bag(cur)?;
    let n = cur.u32()? as usize;
    let mut modifies = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let old = get_tuple(cur)?;
        let new = get_tuple(cur)?;
        let count = cur.u64()?;
        modifies.push(Modify { old, new, count });
    }
    Ok(Delta {
        inserts,
        deletes,
        modifies,
    })
}

// ---------------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------------

fn put_binop(buf: &mut Vec<u8>, op: BinOp) {
    put_u8(
        buf,
        match op {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
        },
    );
}

fn get_binop(cur: &mut Cur) -> WalResult<BinOp> {
    match cur.u8()? {
        0 => Ok(BinOp::Add),
        1 => Ok(BinOp::Sub),
        2 => Ok(BinOp::Mul),
        3 => Ok(BinOp::Div),
        t => Err(WalError::Corrupt(format!("invalid binop tag {t}"))),
    }
}

fn put_cmpop(buf: &mut Vec<u8>, op: CmpOp) {
    put_u8(
        buf,
        match op {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        },
    );
}

fn get_cmpop(cur: &mut Cur) -> WalResult<CmpOp> {
    match cur.u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Lt),
        3 => Ok(CmpOp::Le),
        4 => Ok(CmpOp::Gt),
        5 => Ok(CmpOp::Ge),
        t => Err(WalError::Corrupt(format!("invalid cmpop tag {t}"))),
    }
}

pub fn put_scalar(buf: &mut Vec<u8>, e: &ScalarExpr) {
    match e {
        ScalarExpr::Col(i) => {
            put_u8(buf, 0);
            put_u32(buf, *i as u32);
        }
        ScalarExpr::Lit(v) => {
            put_u8(buf, 1);
            put_value(buf, v);
        }
        ScalarExpr::Bin { op, left, right } => {
            put_u8(buf, 2);
            put_binop(buf, *op);
            put_scalar(buf, left);
            put_scalar(buf, right);
        }
        ScalarExpr::Cmp { op, left, right } => {
            put_u8(buf, 3);
            put_cmpop(buf, *op);
            put_scalar(buf, left);
            put_scalar(buf, right);
        }
        ScalarExpr::And(es) => {
            put_u8(buf, 4);
            put_u32(buf, es.len() as u32);
            for e in es {
                put_scalar(buf, e);
            }
        }
        ScalarExpr::Or(es) => {
            put_u8(buf, 5);
            put_u32(buf, es.len() as u32);
            for e in es {
                put_scalar(buf, e);
            }
        }
        ScalarExpr::Not(e) => {
            put_u8(buf, 6);
            put_scalar(buf, e);
        }
        ScalarExpr::IsNull(e) => {
            put_u8(buf, 7);
            put_scalar(buf, e);
        }
    }
}

pub fn get_scalar(cur: &mut Cur) -> WalResult<ScalarExpr> {
    match cur.u8()? {
        0 => Ok(ScalarExpr::Col(cur.u32()? as usize)),
        1 => Ok(ScalarExpr::Lit(get_value(cur)?)),
        2 => {
            let op = get_binop(cur)?;
            let left = Box::new(get_scalar(cur)?);
            let right = Box::new(get_scalar(cur)?);
            Ok(ScalarExpr::Bin { op, left, right })
        }
        3 => {
            let op = get_cmpop(cur)?;
            let left = Box::new(get_scalar(cur)?);
            let right = Box::new(get_scalar(cur)?);
            Ok(ScalarExpr::Cmp { op, left, right })
        }
        4 => {
            let n = cur.u32()? as usize;
            let mut es = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                es.push(get_scalar(cur)?);
            }
            Ok(ScalarExpr::And(es))
        }
        5 => {
            let n = cur.u32()? as usize;
            let mut es = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                es.push(get_scalar(cur)?);
            }
            Ok(ScalarExpr::Or(es))
        }
        6 => Ok(ScalarExpr::Not(Box::new(get_scalar(cur)?))),
        7 => Ok(ScalarExpr::IsNull(Box::new(get_scalar(cur)?))),
        t => Err(WalError::Corrupt(format!("invalid scalar tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Expression trees
// ---------------------------------------------------------------------------

fn put_aggfunc(buf: &mut Vec<u8>, f: AggFunc) {
    put_u8(
        buf,
        match f {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Min => 2,
            AggFunc::Max => 3,
            AggFunc::Avg => 4,
        },
    );
}

fn get_aggfunc(cur: &mut Cur) -> WalResult<AggFunc> {
    match cur.u8()? {
        0 => Ok(AggFunc::Count),
        1 => Ok(AggFunc::Sum),
        2 => Ok(AggFunc::Min),
        3 => Ok(AggFunc::Max),
        4 => Ok(AggFunc::Avg),
        t => Err(WalError::Corrupt(format!("invalid aggfunc tag {t}"))),
    }
}

fn put_opkind(buf: &mut Vec<u8>, op: &OpKind) {
    match op {
        OpKind::Scan { table } => {
            put_u8(buf, 0);
            put_str(buf, table);
        }
        OpKind::Select { predicate } => {
            put_u8(buf, 1);
            put_scalar(buf, predicate);
        }
        OpKind::Project { exprs } => {
            put_u8(buf, 2);
            put_u32(buf, exprs.len() as u32);
            for (e, name) in exprs {
                put_scalar(buf, e);
                put_str(buf, name);
            }
        }
        OpKind::Join { condition } => {
            put_u8(buf, 3);
            put_u32(buf, condition.equi.len() as u32);
            for &(l, r) in &condition.equi {
                put_u32(buf, l as u32);
                put_u32(buf, r as u32);
            }
            match &condition.residual {
                None => put_u8(buf, 0),
                Some(e) => {
                    put_u8(buf, 1);
                    put_scalar(buf, e);
                }
            }
        }
        OpKind::Aggregate { group_by, aggs } => {
            put_u8(buf, 4);
            put_usize_vec(buf, group_by);
            put_u32(buf, aggs.len() as u32);
            for a in aggs {
                put_aggfunc(buf, a.func);
                match &a.arg {
                    None => put_u8(buf, 0),
                    Some(e) => {
                        put_u8(buf, 1);
                        put_scalar(buf, e);
                    }
                }
                put_str(buf, &a.name);
            }
        }
        OpKind::Distinct => put_u8(buf, 5),
    }
}

fn get_opkind(cur: &mut Cur) -> WalResult<OpKind> {
    match cur.u8()? {
        0 => Ok(OpKind::Scan { table: cur.str()? }),
        1 => Ok(OpKind::Select {
            predicate: get_scalar(cur)?,
        }),
        2 => {
            let n = cur.u32()? as usize;
            let mut exprs = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let e = get_scalar(cur)?;
                let name = cur.str()?;
                exprs.push((e, name));
            }
            Ok(OpKind::Project { exprs })
        }
        3 => {
            let n = cur.u32()? as usize;
            let mut equi = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let l = cur.u32()? as usize;
                let r = cur.u32()? as usize;
                equi.push((l, r));
            }
            let residual = match cur.u8()? {
                0 => None,
                1 => Some(get_scalar(cur)?),
                b => return Err(WalError::Corrupt(format!("invalid option byte {b}"))),
            };
            Ok(OpKind::Join {
                condition: JoinCondition { equi, residual },
            })
        }
        4 => {
            let group_by = cur.usize_vec()?;
            let n = cur.u32()? as usize;
            let mut aggs = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let func = get_aggfunc(cur)?;
                let arg = match cur.u8()? {
                    0 => None,
                    1 => Some(get_scalar(cur)?),
                    b => return Err(WalError::Corrupt(format!("invalid option byte {b}"))),
                };
                let name = cur.str()?;
                aggs.push(AggExpr { func, arg, name });
            }
            Ok(OpKind::Aggregate { group_by, aggs })
        }
        5 => Ok(OpKind::Distinct),
        t => Err(WalError::Corrupt(format!("invalid opkind tag {t}"))),
    }
}

/// Structural tree dump: op + children, no schemas. Decoding re-derives
/// every schema from the live catalog ([`ExprNode::scan`] for leaves,
/// [`ExprNode::build`] for internal nodes), so a checkpointed tree can
/// never smuggle a schema that disagrees with the restored tables.
pub fn put_tree(buf: &mut Vec<u8>, tree: &ExprNode) {
    put_opkind(buf, &tree.op);
    put_u32(buf, tree.children.len() as u32);
    for c in &tree.children {
        put_tree(buf, c);
    }
}

pub fn get_tree(cur: &mut Cur, catalog: &Catalog) -> WalResult<ExprTree> {
    let op = get_opkind(cur)?;
    let n = cur.u32()? as usize;
    let mut children = Vec::with_capacity(n.min(1 << 8));
    for _ in 0..n {
        children.push(get_tree(cur, catalog)?);
    }
    match op {
        OpKind::Scan { table } => {
            if !children.is_empty() {
                return Err(WalError::Corrupt("scan node with children".into()));
            }
            ExprNode::scan(catalog, &table).map_err(WalError::Storage)
        }
        op => ExprNode::build(op, children).map_err(WalError::Storage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
        // Fed in pieces, the running CRC is the CRC of the whole.
        let mut crc = Crc32::default();
        for piece in [&b"1234"[..], b"", b"56789"] {
            crc.update(piece);
        }
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, -0.5);
        put_str(&mut buf, "héllo");
        put_opt_str(&mut buf, None);
        put_opt_str(&mut buf, Some("q"));
        let mut cur = Cur::new(&buf);
        assert_eq!(cur.u32().unwrap(), 7);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 3);
        assert_eq!(cur.i64().unwrap(), -42);
        assert_eq!(cur.f64().unwrap(), -0.5);
        assert_eq!(cur.str().unwrap(), "héllo");
        assert_eq!(cur.opt_str().unwrap(), None);
        assert_eq!(cur.opt_str().unwrap(), Some("q".to_string()));
        assert!(cur.is_empty());
    }

    #[test]
    fn values_and_tuples_round_trip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::Double(2.25),
            Value::str("a string long enough to spill the inline repr maybe"),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            put_value(&mut buf, v);
            let mut cur = Cur::new(&buf);
            assert_eq!(&get_value(&mut cur).unwrap(), v);
        }
        let t = Tuple::new(vals.to_vec());
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        let mut cur = Cur::new(&buf);
        assert_eq!(get_tuple(&mut cur).unwrap(), t);
    }

    #[test]
    fn deltas_round_trip() {
        let mut d = Delta::default();
        d.inserts.insert(Tuple::new(vec![Value::Int(1)]), 2);
        d.deletes.insert(Tuple::new(vec![Value::Int(9)]), 1);
        d.modifies.push(Modify {
            old: Tuple::new(vec![Value::Int(1)]),
            new: Tuple::new(vec![Value::Int(2)]),
            count: 3,
        });
        let mut buf = Vec::new();
        put_delta(&mut buf, &d);
        let mut cur = Cur::new(&buf);
        let back = get_delta(&mut cur).unwrap();
        assert_eq!(back.inserts.sorted(), d.inserts.sorted());
        assert_eq!(back.deletes.sorted(), d.deletes.sorted());
        assert_eq!(back.modifies, d.modifies);
    }

    /// Two rows of `u64::MAX` copies: corruption, not an overflow panic.
    #[test]
    fn bag_counts_that_overflow_are_corrupt() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        for i in 1..=2 {
            put_tuple(&mut buf, &Tuple::new(vec![Value::Int(i)]));
            put_u64(&mut buf, u64::MAX);
        }
        assert!(matches!(get_bag(&mut Cur::new(&buf)), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut cur = Cur::new(&buf[..buf.len() - 2]);
        assert!(matches!(cur.str(), Err(WalError::Corrupt(_))));
    }
}
