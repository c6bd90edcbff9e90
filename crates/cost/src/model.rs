//! The cost type and cost models.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use crate::txn::UpdateKind;

/// A cost in (estimated) page I/Os. Totally ordered; `INFINITY` marks
/// unevaluable plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost(pub f64);

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost(0.0);
    /// Unreachable/unevaluable.
    pub const INFINITY: Cost = Cost(f64::INFINITY);

    /// The raw page-I/O estimate.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Whether the cost is finite (a real plan exists).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Minimum of two costs.
    pub fn min(self, other: Cost) -> Cost {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Eq for Cost {}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, rhs: f64) -> Cost {
        Cost(self.0 * rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞")
        } else if (self.0 - self.0.round()).abs() < 1e-9 {
            write!(f, "{}", self.0.round() as i64)
        } else {
            write!(f, "{:.2}", self.0)
        }
    }
}

/// A monotonic cost model: primitive storage operations priced in page
/// I/Os. *Monotonic* means every primitive is non-negative and costs
/// compose additively, so "the cost of evaluating a specific expression
/// tree is no less than the cost of evaluating a subtree of that
/// expression tree" (§3.4) — Theorem 3.1's precondition, property-tested
/// in this crate.
///
/// Models must be `Sync`: the optimizer's parallel search shares one model
/// across worker threads (each worker holds its own mutable `CostCtx`, but
/// the model itself is read-only).
pub trait CostModel: Sync {
    /// Cost of an indexed lookup expected to return `tuples` tuples.
    fn lookup(&self, tuples: f64) -> Cost;

    /// Cost of sequentially scanning `pages` pages.
    fn scan(&self, pages: f64) -> Cost;

    /// Cost of applying an update of `tuples` touched tuples to a
    /// materialized relation (implementations know how many hash indices
    /// each materialization maintains).
    fn apply_update(&self, kind: UpdateKind, tuples: f64) -> Cost;
}

/// The §3.6 model: hash indices, no overflowed buckets, unclustered
/// tuples.
///
/// * Lookup: one index page + one relation page per returned tuple.
/// * Update: one index page read per index, an index page write only when
///   the indexed key changes (inserts/deletes always change bucket
///   contents; in-place modifications of non-key columns do not), one
///   relation page read per tuple to fetch the old value (not needed for
///   pure inserts) and one relation page write per tuple.
#[derive(Debug, Clone, Copy)]
pub struct PageIoCostModel {
    /// Hash indices assumed on each materialized view (the paper's
    /// examples maintain "a single index on DName").
    pub indexes_per_view: f64,
}

impl PageIoCostModel {
    /// The paper's setting, a single index per view: the default, and the
    /// model the runtime picks its query plans under.
    pub const PAPER: PageIoCostModel = PageIoCostModel {
        indexes_per_view: 1.0,
    };
}

impl Default for PageIoCostModel {
    fn default() -> Self {
        Self::PAPER
    }
}

impl CostModel for PageIoCostModel {
    fn lookup(&self, tuples: f64) -> Cost {
        Cost(1.0 + tuples.max(0.0))
    }

    fn scan(&self, pages: f64) -> Cost {
        Cost(pages.max(0.0))
    }

    fn apply_update(&self, kind: UpdateKind, tuples: f64) -> Cost {
        let indexes = self.indexes_per_view;
        let tuples = tuples.max(0.0);
        if tuples == 0.0 {
            return Cost::ZERO;
        }
        match kind {
            // Locate bucket (read) + write it back, plus data page writes.
            UpdateKind::Insert => Cost(2.0 * indexes + tuples),
            // Locate + write bucket, read old pages, write freed pages.
            UpdateKind::Delete => Cost(2.0 * indexes + 2.0 * tuples),
            // The paper's modification arithmetic: one index page read per
            // index (no write — the key is unchanged), read + write each
            // tuple. N3·>Emp: 1 + 1 + 1 = 3; N4·>Dept: 1 + 10 + 10 = 21.
            UpdateKind::Modify => Cost(indexes + 2.0 * tuples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_update_costs() {
        let m = PageIoCostModel::default();
        assert_eq!(m.apply_update(UpdateKind::Modify, 1.0), Cost(3.0));
        assert_eq!(m.apply_update(UpdateKind::Modify, 10.0), Cost(21.0));
        assert_eq!(m.apply_update(UpdateKind::Modify, 0.0), Cost::ZERO);
        assert_eq!(m.apply_update(UpdateKind::Insert, 1.0), Cost(3.0));
        assert_eq!(m.apply_update(UpdateKind::Delete, 1.0), Cost(4.0));
    }

    #[test]
    fn paper_lookup_costs() {
        let m = PageIoCostModel::default();
        assert_eq!(m.lookup(10.0), Cost(11.0));
        assert_eq!(m.lookup(1.0), Cost(2.0));
        assert_eq!(
            m.lookup(0.0),
            Cost(1.0),
            "a miss still reads the index page"
        );
    }

    #[test]
    fn cost_ordering_and_arithmetic() {
        assert!(Cost(2.0) < Cost(3.0));
        assert_eq!(Cost(2.0) + Cost(3.0), Cost(5.0));
        assert_eq!(Cost(2.0) * 3.0, Cost(6.0));
        assert_eq!(Cost(9.0).min(Cost(4.0)), Cost(4.0));
        assert!(Cost::INFINITY > Cost(1e300));
        assert!(!Cost::INFINITY.is_finite());
        let total: Cost = [Cost(1.0), Cost(2.0)].into_iter().sum();
        assert_eq!(total, Cost(3.0));
    }

    #[test]
    fn display_rounds_integers() {
        assert_eq!(Cost(11.0).to_string(), "11");
        assert_eq!(Cost(3.5).to_string(), "3.50");
        assert_eq!(Cost::INFINITY.to_string(), "∞");
    }

    #[test]
    fn model_is_monotone_on_samples() {
        let m = PageIoCostModel::default();
        for t in [0.0, 0.5, 1.0, 10.0, 1e6] {
            assert!(m.lookup(t).value() >= 0.0);
            assert!(m.scan(t).value() >= 0.0);
            for kind in [UpdateKind::Insert, UpdateKind::Delete, UpdateKind::Modify] {
                assert!(m.apply_update(kind, t).value() >= 0.0);
            }
        }
        assert!(m.lookup(5.0) <= m.lookup(6.0));
    }
}
