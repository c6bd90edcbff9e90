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

    /// The string content.
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
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hashing: must agree across representations and match what
        // `Arc<str>` hashed before the representation change.
        self.as_str().hash(state)
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

    #[test]
    fn multibyte_utf8_roundtrips() {
        for s in ["héllo", "日本語", "ωωωωωωω"] {
            assert_eq!(SmallStr::new(s).as_str(), s);
        }
    }
}
