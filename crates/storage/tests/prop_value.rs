//! Property tests for the compact `Value`/`SmallStr` representation.
//!
//! The data-plane overhaul (inline strings, interning, fixed-seed
//! hashing) must be *invisible* to semantics: string values compare,
//! hash and order exactly like the `&str`s they hold regardless of which
//! representation (inline vs interned, and which construction path) they
//! ended up in, and the `Value` total order keeps its documented Null/NaN
//! corners.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use proptest::prelude::*;

use spacetime_storage::{SmallStr, Value};

fn hash_of<T: Hash>(v: &T) -> u64 {
    // One fixed RandomState per process is enough: we only ever compare
    // hashes produced by the same hasher.
    use std::sync::OnceLock;
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(v)
}

/// Strings that straddle the inline boundary: lengths 0..=2*INLINE_CAP,
/// multibyte characters included.
fn any_string() -> impl Strategy<Value = String> {
    prop_oneof![
        // ASCII of every length around the boundary.
        proptest::collection::vec(
            (b'a'..=b'z').prop_map(|b| b as char),
            0..=2 * SmallStr::INLINE_CAP
        )
        .prop_map(|cs| cs.into_iter().collect::<String>()),
        // Multibyte: é is 2 bytes, 💾 is 4 — byte length ≠ char count.
        proptest::collection::vec(
            prop_oneof![Just('é'), Just('💾'), Just('a')],
            0..=SmallStr::INLINE_CAP
        )
        .prop_map(|cs| cs.into_iter().collect::<String>()),
    ]
}

/// Every way a `SmallStr` can be built from the same text.
fn all_constructions(s: &str) -> Vec<SmallStr> {
    vec![
        SmallStr::new(s),
        SmallStr::from(s),
        SmallStr::from(s.to_string()),
        SmallStr::from(Arc::<str>::from(s)),
    ]
}

proptest! {
    /// Eq/Ord/Hash on `SmallStr` agree with `str`, for every pair of
    /// construction paths (inline-vs-inline, inline-vs-interned,
    /// interned-vs-interned — `From<Arc<str>>` must re-inline short
    /// strings, so mixed-representation comparisons of equal text never
    /// occur, which is what makes representation-based Eq sound).
    #[test]
    fn smallstr_matches_str_semantics(a in any_string(), b in any_string()) {
        for sa in all_constructions(&a) {
            prop_assert_eq!(sa.as_str(), a.as_str());
            prop_assert_eq!(sa.is_inline(), a.len() <= SmallStr::INLINE_CAP,
                "inline iff short: {:?}", a);
            for sb in all_constructions(&b) {
                prop_assert_eq!(sa == sb, a == b);
                prop_assert_eq!(sa.cmp(&sb), a.as_str().cmp(b.as_str()));
                if a == b {
                    prop_assert_eq!(hash_of(&sa), hash_of(&sb));
                }
            }
        }
    }

    /// Same coherence lifted to `Value::Str`, plus hash-equality.
    #[test]
    fn value_str_matches_str_semantics(a in any_string(), b in any_string()) {
        let va = Value::str(&a);
        let vb = Value::str(&b);
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.total_cmp(&vb), a.as_str().cmp(b.as_str()));
        if a == b {
            prop_assert_eq!(hash_of(&va), hash_of(&vb));
        }
    }

    /// The `Value` total order really is total and hash-coherent over a
    /// mixed domain including Null, NaN, ±0.0 and cross-type numerics.
    #[test]
    fn value_total_order_is_total_and_hash_coherent(
        xs in proptest::collection::vec(
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                (-1.0e12..1.0e12).prop_map(Value::Double),
                // Small integers in both types exercise the Int/Double
                // cross-type equality corner.
                (-4i64..5).prop_map(|n| Value::Double(n as f64)),
                (-4i64..5).prop_map(Value::Int),
                Just(Value::Double(f64::NAN)),
                Just(Value::Double(-0.0)),
                Just(Value::Double(0.0)),
                any_string().prop_map(|s| Value::str(&s)),
            ],
            1..12,
        )
    ) {
        for x in &xs {
            // Reflexive — including NaN (self-equal under the total order).
            prop_assert_eq!(x.total_cmp(x), Ordering::Equal);
            // Null sorts first, NaN sorts greatest among numerics.
            if !x.is_null() {
                prop_assert_eq!(Value::Null.total_cmp(x), Ordering::Less);
            }
            for y in &xs {
                // Antisymmetry.
                prop_assert_eq!(x.total_cmp(y), y.total_cmp(x).reverse());
                // Equal-by-order values hash alike (grouping soundness);
                // covers Int/Double cross-type equality and -0.0 == 0.0.
                if x.total_cmp(y) == Ordering::Equal {
                    prop_assert_eq!(hash_of(x), hash_of(y));
                }
                for z in &xs {
                    // Transitivity on the ≤ relation.
                    if x.total_cmp(y) != Ordering::Greater
                        && y.total_cmp(z) != Ordering::Greater
                    {
                        prop_assert_ne!(x.total_cmp(z), Ordering::Greater);
                    }
                }
            }
        }
    }

    /// Short strings — the empty string included — never allocate a
    /// shared `Arc<str>`: every construction path inlines them.
    #[test]
    fn short_strings_always_inline(
        s in proptest::collection::vec((b'a'..=b'z').prop_map(|b| b as char), 0..=SmallStr::INLINE_CAP)
            .prop_map(|cs| cs.into_iter().collect::<String>())
    ) {
        for built in all_constructions(&s) {
            prop_assert!(built.is_inline(), "{:?} should be inline", s);
        }
        match Value::str(&s) {
            Value::Str(ss) => prop_assert!(ss.is_inline()),
            other => prop_assert!(false, "Value::str built {other:?}"),
        }
    }
}

#[test]
fn empty_string_is_inline_and_equal_across_paths() {
    let a = SmallStr::new("");
    assert!(a.is_inline());
    assert_eq!(a.as_str(), "");
    for b in all_constructions("") {
        assert!(b.is_inline());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }
}
