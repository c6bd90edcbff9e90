//! Compact strings: small-string inlining with an interned spill path.
//!
//! Tuple data in this engine is overwhelmingly short identifiers
//! (`dept00042`, `emp00042_7`): storing each behind an `Arc<str>` costs a
//! heap allocation at construction, a pointer chase per comparison and
//! refcount traffic per clone. [`SmallStr`] stores strings of up to
//! [`SmallStr::INLINE_CAP`] bytes inline — clone is a `memcpy`, equality is
//! a couple of word compares, hashing reads no foreign cache line. Longer
//! strings spill to an `Arc<str>` obtained from the [`Interner`], which
//! deduplicates them process-wide so equal spilled strings are
//! pointer-identical and equality short-circuits on `Arc::ptr_eq`.
//!
//! Invariant: a string is inline **iff** `len() <= INLINE_CAP`. Both
//! constructors enforce this, so two equal strings always have the same
//! representation and representation-blind `Eq`/`Ord`/`Hash` (all defined
//! on the string *content*) agree with representation-aware fast paths.
//!
//! The interner pool is deliberately process-wide rather than truly
//! per-catalog: table copies, cloned catalogs and probe keys built
//! by the parser must agree on pointer identity for the `ptr_eq` fast path
//! to fire across catalog boundaries. [`Catalog`](crate::catalog::Catalog)
//! exposes the pool through [`Interner::handle`]. The pool is append-only;
//! for this engine's workloads (bounded vocabularies of names) that is the
//! right trade.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use crate::fx::FxHashSet;

/// A string that stores short content inline and interns long content.
#[derive(Clone)]
pub struct SmallStr(Repr);

#[derive(Clone)]
enum Repr {
    /// Up to `INLINE_CAP` bytes stored in place.
    Inline { len: u8, buf: [u8; SmallStr::INLINE_CAP] },
    /// Longer content, deduplicated through the interner.
    Shared(Arc<str>),
}

impl SmallStr {
    /// Maximum inline length in bytes. Chosen to cover every identifier the
    /// paper workloads generate while keeping `Value` a couple of words.
    pub const INLINE_CAP: usize = 22;

    /// Build from a string slice: inline if it fits, interned otherwise.
    pub fn new(s: &str) -> Self {
        if s.len() <= Self::INLINE_CAP {
            let mut buf = [0u8; Self::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            SmallStr(Repr::Shared(Interner::global().intern(s)))
        }
    }

    /// The string content. Re-validates an inline string's UTF-8, so only
    /// `Display`/`Deref` come through here; `Eq`/`Ord`/`Hash` read
    /// `SmallStr::bytes`.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // Construction only ever copies in valid UTF-8 prefixes.
                std::str::from_utf8(&buf[..*len as usize]).expect("inline bytes are UTF-8")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The content as bytes, with no validation. Byte-wise order *is*
    /// `str` order and `str::hash` is `write(bytes); write_u8(0xff)`, so
    /// comparing and hashing here gives exactly what `as_str()` would.
    #[inline]
    fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// Whether the content is stored inline (no heap involvement).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for SmallStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SmallStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, buf: ba }, Repr::Inline { len: b, buf: bb }) => {
                // Equal-capacity buffers are zero-padded past `len`, so the
                // whole-buffer compare (vectorized word compares) is exact.
                a == b && ba == bb
            }
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b) || a == b,
            // Inline iff short: mixed representations have different lengths.
            _ => false,
        }
    }
}
impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SmallStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if let (Repr::Shared(a), Repr::Shared(b)) = (&self.0, &other.0) {
            if Arc::ptr_eq(a, b) {
                return std::cmp::Ordering::Equal;
            }
        }
        self.bytes().cmp(other.bytes())
    }
}

impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hashing, spelled out as `str::hash` does it: every hash
        // value (and so every bag and index layout) equals the one `&str` gives.
        state.write(self.bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        SmallStr::new(s)
    }
}
impl From<String> for SmallStr {
    fn from(s: String) -> Self {
        SmallStr::new(&s)
    }
}
impl From<Arc<str>> for SmallStr {
    fn from(s: Arc<str>) -> Self {
        SmallStr::new(&s)
    }
}

/// A deduplicating pool of spilled (longer-than-inline) strings.
#[derive(Clone, Default)]
pub struct Interner {
    pool: Arc<Mutex<FxHashSet<Arc<str>>>>,
}

impl Interner {
    /// The process-wide pool backing every [`SmallStr`] spill.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::default)
    }

    /// A clonable handle to this pool (shares the underlying storage).
    pub fn handle(&self) -> Interner {
        self.clone()
    }

    /// Intern a string: returns the pooled `Arc`, pointer-identical for
    /// equal content.
    pub fn intern(&self, s: &str) -> Arc<str> {
        let mut pool = self.pool.lock().expect("interner lock");
        if let Some(existing) = pool.get(s) {
            return existing.clone();
        }
        let shared: Arc<str> = Arc::from(s);
        pool.insert(shared.clone());
        shared
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.pool.lock().expect("interner lock").len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} strings)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::fx_hash_one;

    #[test]
    fn short_strings_inline_long_strings_spill() {
        assert!(SmallStr::new("").is_inline());
        assert!(SmallStr::new("dept00042").is_inline());
        assert!(SmallStr::new(&"x".repeat(SmallStr::INLINE_CAP)).is_inline());
        assert!(!SmallStr::new(&"x".repeat(SmallStr::INLINE_CAP + 1)).is_inline());
    }

    #[test]
    fn spilled_strings_are_pointer_deduplicated() {
        let long = "y".repeat(40);
        let a = SmallStr::new(&long);
        let b = SmallStr::new(&long);
        match (&a.0, &b.0) {
            (Repr::Shared(x), Repr::Shared(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => panic!("long strings must spill"),
        }
        assert_eq!(a, b);
    }

    #[test]
    fn eq_ord_hash_agree_with_str_semantics() {
        let cases = ["", "a", "dept00042", "zz", &"q".repeat(30), &"q".repeat(31)];
        for x in cases {
            for y in cases {
                let (sx, sy) = (SmallStr::new(x), SmallStr::new(y));
                assert_eq!(sx == sy, x == y, "eq({x:?},{y:?})");
                assert_eq!(sx.cmp(&sy), x.cmp(y), "ord({x:?},{y:?})");
                if x == y {
                    assert_eq!(fx_hash_one(&sx), fx_hash_one(&sy));
                }
            }
        }
    }

    #[test]
    fn deref_and_display_expose_content() {
        let s = SmallStr::new("Sales");
        assert_eq!(s.len(), 5);
        assert!(s.starts_with("Sal"));
        assert_eq!(s.to_string(), "Sales");
        assert_eq!(format!("{s:?}"), "\"Sales\"");
    }

    /// Arbitrary UTF-8 of 0..=40 bytes (1- to 4-byte characters), cut at a
    /// character boundary: both representations, the 22/23 boundary
    /// included.
    fn utf8_upto_40() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec(prop_oneof![any::<char>(), Just('💾'), Just('q')], 0..=40)
            .prop_map(|cs| {
                let mut s: String = cs.into_iter().collect();
                let mut cut = s.len().min(40);
                while !s.is_char_boundary(cut) {
                    cut -= 1;
                }
                s.truncate(cut);
                s
            })
    }

    proptest::proptest! {
        /// `Eq`/`Ord`/`Hash` read the bytes, never `as_str()`: they must
        /// still be exactly `str`'s, and the fixed-seed hash the very value
        /// `&str` gives (bag and index layouts hang off it).
        #[test]
        fn bytewise_eq_ord_hash_are_strs(a in utf8_upto_40(), b in utf8_upto_40()) {
            use proptest::prelude::*;
            // `a` against `b`, against itself, and against its own prefixes
            // (the shorter-is-less corner, across the inline boundary).
            let mut others = vec![b, a.clone()];
            others.extend((0..=a.len()).filter(|&i| a.is_char_boundary(i)).map(|i| a[..i].to_string()));
            let sa = SmallStr::new(&a);
            prop_assert_eq!(sa.is_inline(), a.len() <= SmallStr::INLINE_CAP);
            prop_assert_eq!(fx_hash_one(&sa), fx_hash_one(a.as_str()));
            for o in &others {
                let so = SmallStr::new(o);
                prop_assert_eq!(sa == so, a == *o, "eq({:?},{:?})", a, o);
                prop_assert_eq!(sa.cmp(&so), a.as_str().cmp(o.as_str()), "ord({:?},{:?})", a, o);
                prop_assert_eq!(so.cmp(&sa), o.as_str().cmp(a.as_str()));
                prop_assert_eq!(fx_hash_one(&so), fx_hash_one(o.as_str()));
            }
        }
    }

    #[test]
    fn value_hashes_are_the_ones_recorded_before_bytewise_hashing() {
        // Recorded at the parent commit, when `SmallStr::hash` still went
        // through `as_str().hash()`. Bag and index shard layout and
        // therefore iteration order all hang off these values: a change
        // here re-lays stored data.
        use crate::tuple::Tuple;
        use crate::value::Value;
        let golden: [(Value, u64); 21] = [
            (Value::Null, 0x0000000000000000),
            (Value::Bool(false), 0x0d4569ee47d3c0f2),
            (Value::Bool(true), 0x5ec22ba56ef5cb87),
            (Value::Int(0), 0x1a8ad3dc8fa781e4),
            (Value::Int(42), 0xb4b3d3dc8fa781e4),
            (Value::Int(-7), 0x3036d3dc8fa781e4),
            (Value::Int(i64::MAX), 0xb8aad3dc8fa781e4),
            (Value::Double(0.0), 0x1a8ad3dc8fa781e4),
            (Value::Double(-0.0), 0x1a8ad3dc8fa781e4),
            (Value::Double(42.0), 0xb4b3d3dc8fa781e4),
            (Value::Double(2.5), 0x04ded3dc8fa781e4),
            (Value::str(""), 0x9c3493aaa1cafd43),
            (Value::str("a"), 0x37f081839c123d90),
            (Value::str("Sales"), 0x19464a3bab70d054),
            (Value::str("dept00042"), 0x8a17fcf04116f930),
            (Value::str("emp00042_7"), 0x7e1899e4e0302a9c),
            (Value::str("héllo"), 0x6259ed9acea8a6ed),
            (Value::str("日本語"), 0xe0d95572d78a3893),
            (Value::str("x".repeat(22)), 0xf073efdf2ad42ec4),
            (Value::str("x".repeat(23)), 0x31b4cd901c2b5b20),
            (
                Value::str("long-department-name-here-and-more"),
                0x404f5101e99e935a,
            ),
        ];
        for (v, want) in &golden {
            assert_eq!(fx_hash_one(v), *want, "fx_hash_one({v:?})");
        }
        let key = vec![Value::str("dept00042"), Value::Int(7)];
        assert_eq!(fx_hash_one(key.as_slice()), 0xfc802311fe85b8f6);
        assert_eq!(fx_hash_one(&Tuple::new(key)), 0xfc802311fe85b8f6);
    }

    #[test]
    fn multibyte_utf8_roundtrips() {
        for s in ["héllo", "日本語", "ωωωωωωω"] {
            assert_eq!(SmallStr::new(s).as_str(), s);
        }
    }
}
