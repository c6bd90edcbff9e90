//! The space of view sets (§3.1).
//!
//! > *"Given a view V, let E_V denote the set of all equivalence nodes in
//! > D_V, other than the leaf nodes. A view set is a subset of E_V. The
//! > space of possible views to materialize is the set of all subsets of
//! > E_V that include the equivalence node corresponding to V."*

use std::collections::BTreeSet;

use spacetime_memo::{descendant_groups, GroupId, Memo};

/// A set of materialized equivalence nodes (canonical group ids). Always
/// includes the root; leaves (base relations) are implicitly materialized
/// and never listed.
pub type ViewSet = BTreeSet<GroupId>;

/// The candidate equivalence nodes for additional materialization: every
/// non-leaf descendant of the root, excluding the root itself (which is
/// always materialized).
pub fn candidate_groups(memo: &Memo, root: GroupId) -> Vec<GroupId> {
    let root = memo.find(root);
    descendant_groups(memo, root)
        .into_iter()
        .filter(|&g| g != root && !memo.is_leaf(g))
        .collect()
}

/// A space of view sets: `base ∪ S` for every `S ⊆ free` with
/// `|S| ≤ max_extra`. The search walks a space without listing it: a set
/// is named by the ascending indices of the free candidates it adds.
#[derive(Debug, Clone)]
pub struct ViewSetSpace {
    /// The views every set of the space contains (the roots at least).
    pub base: ViewSet,
    /// The candidates a set may add, in a fixed order.
    pub free: Vec<GroupId>,
    /// At most this many free candidates per set.
    pub max_extra: usize,
}

impl ViewSetSpace {
    /// The whole space of the DAG under `roots` (§6): the roots are the
    /// base, and the free candidates are the union of every root's
    /// [`candidate_groups`] in root order, less the roots themselves.
    pub(crate) fn of_roots(memo: &Memo, roots: &[GroupId]) -> Self {
        let roots: Vec<GroupId> = roots.iter().map(|&r| memo.find(r)).collect();
        let mut free: Vec<GroupId> = Vec::new();
        for &r in &roots {
            for g in candidate_groups(memo, r) {
                if !roots.contains(&g) && !free.contains(&g) {
                    free.push(g);
                }
            }
        }
        ViewSetSpace {
            base: roots.into_iter().collect(),
            max_extra: free.len(),
            free,
        }
    }

    /// The space of `base` alone.
    pub fn single(base: ViewSet) -> Self {
        ViewSetSpace {
            base,
            free: Vec::new(),
            max_extra: 0,
        }
    }

    /// The number of sets, `Σ_{k ≤ max_extra} C(n, k)`, saturating at
    /// `usize::MAX`.
    pub fn size(&self) -> usize {
        let n = self.free.len() as u128;
        // The running total and `C(n, k)`; `None` once the total reaches
        // `usize::MAX`, so `C(n, k) < 2⁶⁴` and no product overflows.
        (1..=self.max_extra.min(self.free.len()) as u128)
            .try_fold((1u128, 1u128), |(total, c), k| {
                let c = c * (n - k + 1) / k;
                (total + c < usize::MAX as u128).then_some((total + c, c))
            })
            .map_or(usize::MAX, |(total, _)| total as usize)
    }

    /// The set that adds the free candidates at `picked`.
    pub fn set(&self, picked: &[u32]) -> ViewSet {
        let mut set = self.base.clone();
        set.extend(picked.iter().map(|&i| self.free[i as usize]));
        set
    }
}

/// Enumerate all view sets over the given candidates (the root is added to
/// each). `max_extra` caps the number of *additional* views per set
/// (`None` = unbounded, the full 2^n space). Sets come out in ascending
/// order of their candidate bitmask (candidate `i` is bit `i`), and only
/// the sets within the cap are ever generated: 28 candidates capped at 2
/// is 407 steps, not 2^28.
pub fn enumerate_view_sets(
    root: GroupId,
    candidates: &[GroupId],
    max_extra: Option<usize>,
) -> Vec<ViewSet> {
    let n = candidates.len();
    assert!(
        n < 63,
        "view-set space 2^{n} is too large to enumerate exhaustively"
    );
    let mut masks = Vec::new();
    masks_within(n, max_extra.unwrap_or(n).min(n), 0, &mut masks);
    masks
        .into_iter()
        .map(|mask| {
            let picked = candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &g)| g);
            std::iter::once(root).chain(picked).collect()
        })
        .collect()
}

/// Push, in ascending order, every mask that extends `prefix` over the low
/// `bits` bits with at most `budget` more ones: bit `bits - 1` clear comes
/// before set, recursively.
fn masks_within(bits: usize, budget: usize, prefix: u64, out: &mut Vec<u64>) {
    if bits == 0 || budget == 0 {
        out.push(prefix);
        return;
    }
    masks_within(bits - 1, budget, prefix, out);
    masks_within(bits - 1, budget - 1, prefix | 1 << (bits - 1), out);
}

/// Render a view set with the given namer (used by reports).
pub fn render_view_set(set: &ViewSet, root: GroupId, name: impl Fn(GroupId) -> String) -> String {
    let extras: Vec<String> = set
        .iter()
        .filter(|&&g| g != root)
        .map(|&g| name(g))
        .collect();
    if extras.is_empty() {
        "∅".to_string()
    } else {
        format!("{{{}}}", extras.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacetime_algebra::{ExprNode, JoinCondition, OpKind};
    use spacetime_memo::{explore, Memo};
    use spacetime_storage::{Catalog, DataType, Schema};

    fn chain_memo() -> (Catalog, Memo, GroupId) {
        let mut cat = Catalog::new();
        for (name, c1, c2) in [("R1", "a", "x"), ("R2", "x", "y"), ("R3", "y", "b")] {
            cat.create_table(
                name,
                Schema::of_table(name, &[(c1, DataType::Int), (c2, DataType::Int)]),
            )
            .unwrap();
        }
        let r1 = ExprNode::scan(&cat, "R1").unwrap();
        let r2 = ExprNode::scan(&cat, "R2").unwrap();
        let r3 = ExprNode::scan(&cat, "R3").unwrap();
        let j12 = ExprNode::join_on(r1, r2, &[("x", "R2.x")]).unwrap();
        let j = ExprNode::join_on(j12, r3, &[("y", "R3.y")]).unwrap();
        let mut memo = Memo::new();
        let root = memo.insert_tree(&j);
        memo.set_root(root);
        explore(&mut memo, &cat).unwrap();
        let root = memo.find(root);
        (cat, memo, root)
    }

    #[test]
    fn candidates_exclude_root_and_leaves() {
        let (_, memo, root) = chain_memo();
        let cands = candidate_groups(&memo, root);
        assert!(!cands.contains(&root));
        for &c in &cands {
            assert!(!memo.is_leaf(c));
        }
        // §3's example: for R1⋈R2⋈R3 the candidate *join* subviews are
        // R1⋈R2, R2⋈R3 and (via exploration) R1⋈R3-style intermediates.
        let join_cands = cands
            .iter()
            .filter(|&&g| {
                memo.group_ops(g)
                    .iter()
                    .any(|&o| matches!(memo.op(o).op, OpKind::Join { .. }))
            })
            .count();
        assert!(join_cands >= 2, "at least R1⋈R2 and R2⋈R3: {join_cands}");
    }

    #[test]
    fn enumeration_counts_match() {
        let root = GroupId(99);
        let cands = [GroupId(1), GroupId(2), GroupId(3)];
        let all = enumerate_view_sets(root, &cands, None);
        assert_eq!(all.len(), 8);
        assert!(all.iter().all(|s| s.contains(&root)));
        let capped = enumerate_view_sets(root, &cands, Some(1));
        assert_eq!(capped.len(), 4, "∅ plus three singletons");
    }

    /// The enumeration this module shipped with: every mask, filtered.
    fn mask_loop(root: GroupId, candidates: &[GroupId], max_extra: Option<usize>) -> Vec<ViewSet> {
        (0u64..1 << candidates.len())
            .filter(|m| max_extra.is_none_or(|cap| m.count_ones() as usize <= cap))
            .map(|mask| {
                let mut set = ViewSet::from([root]);
                for (i, &g) in candidates.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        set.insert(g);
                    }
                }
                set
            })
            .collect()
    }

    #[test]
    fn capped_enumeration_equals_the_mask_loop_in_order() {
        let root = GroupId(1000);
        // Candidate ids deliberately not ascending: order is by mask, not id.
        let cands: Vec<GroupId> = (0..12u32).map(|i| GroupId((i * 7) % 12)).collect();
        for n in 0..=12 {
            for cap in [None, Some(0), Some(1), Some(2), Some(3)] {
                assert_eq!(
                    enumerate_view_sets(root, &cands[..n], cap),
                    mask_loop(root, &cands[..n], cap),
                    "n={n} cap={cap:?}"
                );
            }
        }
    }

    #[test]
    fn a_cap_makes_a_wide_space_cheap() {
        // 2^40 masks, 1 + 40 + 780 of them within the cap.
        let cands: Vec<GroupId> = (0..40).map(GroupId).collect();
        let sets = enumerate_view_sets(GroupId(99), &cands, Some(2));
        assert_eq!(sets.len(), 821);
        assert_eq!(sets[0], ViewSet::from([GroupId(99)]));
        assert_eq!(
            sets[820],
            ViewSet::from([GroupId(38), GroupId(39), GroupId(99)])
        );
    }

    #[test]
    fn paper_spj_example_lists_seven_nonempty_choices() {
        // "There are several choices of sets of additional views to
        // maintain, namely, {}, {R1⋈R2}, {R2⋈R3}, {R1⋈R3}, {R1⋈R2, R2⋈R3},
        // {R2⋈R3, R1⋈R3}, {R1⋈R2, R1⋈R3}" — with 3 join intermediates the
        // enumeration covers all of these (2³ = 8 sets including both-pairs
        // combinations).
        let root = GroupId(0);
        let joins = [GroupId(1), GroupId(2), GroupId(3)];
        let sets = enumerate_view_sets(root, &joins, Some(2));
        // ∅ + 3 singletons + 3 pairs = 7.
        assert_eq!(sets.len(), 7);
    }

    #[test]
    fn a_space_counts_its_sets_without_listing_them() {
        let space = |n: u32, cap: usize| ViewSetSpace {
            base: ViewSet::from([GroupId(1000)]),
            free: (0..n).map(GroupId).collect(),
            max_extra: cap,
        };
        for n in 0..=10 {
            for cap in [0, 1, 2, 3, 10] {
                let cands: Vec<GroupId> = (0..n).map(GroupId).collect();
                let listed = enumerate_view_sets(GroupId(1000), &cands, Some(cap)).len();
                assert_eq!(space(n, cap).size(), listed, "n={n} cap={cap}");
            }
        }
        assert_eq!(space(28, 2).size(), 407);
        assert_eq!(space(27, 27).size(), 1 << 27);
        assert_eq!(space(75, 75).size(), usize::MAX);
        assert_eq!(space(300, 4).size(), 1 + 300 + 44_850 + 4_455_100 + 330_791_175);
        let set = space(5, 2).set(&[1, 4]);
        assert_eq!(set, ViewSet::from([GroupId(1), GroupId(4), GroupId(1000)]));
    }

    #[test]
    fn render_view_set_formats() {
        let root = GroupId(0);
        let mut s = ViewSet::new();
        s.insert(root);
        assert_eq!(render_view_set(&s, root, |g| format!("N{}", g.0)), "∅");
        s.insert(GroupId(3));
        assert_eq!(render_view_set(&s, root, |g| format!("N{}", g.0)), "{N3}");
    }

    #[test]
    fn join_condition_helper_compiles() {
        // Silence unused-import pedantry while documenting intent: the
        // candidate space is operator-agnostic.
        let _ = JoinCondition::on(vec![(0, 0)]);
    }
}
