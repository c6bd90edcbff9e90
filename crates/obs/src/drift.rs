//! Workload-drift accounting: the signal plane for online view-set
//! re-selection (ROADMAP item 4).
//!
//! Two deterministic, clock-free aggregates:
//!
//! * **Transaction mix** — a sliding window of per-transaction-type
//!   counts, keyed by the updated base table. The window is two epochs of
//!   [`DRIFT_WINDOW`] events each: the reported count for a key is
//!   `previous epoch + current epoch`, so it always covers between
//!   `DRIFT_WINDOW` and `2 * DRIFT_WINDOW` recent events and old traffic
//!   ages out without any wall-clock dependence (the same two-epoch trick
//!   browsers use for frecency decay).
//! * **Per-view maintenance cost** — an exponentially weighted moving
//!   average (α = 1/8) of the planning-report I/O cost each materialized
//!   view charged per update, keyed by view name and seeded with the
//!   first observation.
//!
//! Both are merged into [`MetricsSnapshot`](crate::MetricsSnapshot) by the
//! free [`snapshot`](crate::snapshot) function (they live outside the
//! [`Registry`](crate::Registry) because their keys are dynamic strings,
//! not `'static` label pairs). With the `metrics` feature off every entry
//! point is an inlined empty body, same contract as the metrics free
//! functions — callers gate any argument computation on
//! [`compiled`](crate::compiled).

/// Events per drift epoch; the reported window spans one to two epochs.
pub const DRIFT_WINDOW: u64 = 1024;

/// EWMA smoothing factor for per-view maintenance cost.
pub const DRIFT_EWMA_ALPHA: f64 = 0.125;

#[cfg(feature = "metrics")]
mod imp {
    use super::{DRIFT_EWMA_ALPHA, DRIFT_WINDOW};
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};

    #[derive(Default)]
    struct DriftState {
        cur: BTreeMap<String, u64>,
        prev: BTreeMap<String, u64>,
        in_epoch: u64,
        ewma: BTreeMap<String, f64>,
    }

    fn state() -> &'static Mutex<DriftState> {
        static STATE: OnceLock<Mutex<DriftState>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(DriftState::default()))
    }

    pub fn note_txn(kind: &str) {
        let mut s = state().lock().unwrap();
        *s.cur.entry(kind.to_string()).or_insert(0) += 1;
        s.in_epoch += 1;
        if s.in_epoch >= DRIFT_WINDOW {
            s.prev = std::mem::take(&mut s.cur);
            s.in_epoch = 0;
        }
    }

    pub fn note_view_cost(view: &str, cost: f64) {
        let mut s = state().lock().unwrap();
        match s.ewma.get_mut(view) {
            Some(e) => *e += (cost - *e) * DRIFT_EWMA_ALPHA,
            None => {
                s.ewma.insert(view.to_string(), cost);
            }
        }
    }

    pub fn txn_mix() -> BTreeMap<String, u64> {
        let s = state().lock().unwrap();
        let mut out = s.prev.clone();
        for (k, v) in &s.cur {
            *out.entry(k.clone()).or_insert(0) += v;
        }
        out
    }

    pub fn view_cost_ewma() -> BTreeMap<String, f64> {
        state().lock().unwrap().ewma.clone()
    }
}

#[cfg(feature = "metrics")]
pub use imp::{note_txn, note_view_cost, txn_mix, view_cost_ewma};

#[cfg(not(feature = "metrics"))]
mod noop {
    use std::collections::BTreeMap;

    /// No-op: drift accounting is compiled out.
    #[inline(always)]
    pub fn note_txn(_kind: &str) {}

    /// No-op: drift accounting is compiled out.
    #[inline(always)]
    pub fn note_view_cost(_view: &str, _cost: f64) {}

    /// Always empty: drift accounting is compiled out.
    #[inline]
    pub fn txn_mix() -> BTreeMap<String, u64> {
        BTreeMap::new()
    }

    /// Always empty: drift accounting is compiled out.
    #[inline]
    pub fn view_cost_ewma() -> BTreeMap<String, f64> {
        BTreeMap::new()
    }
}

#[cfg(not(feature = "metrics"))]
pub use noop::{note_txn, note_view_cost, txn_mix, view_cost_ewma};

#[cfg(all(test, feature = "metrics"))]
mod tests {
    use super::*;

    // The drift state is process-global, so tests assert monotone /
    // relative properties that hold regardless of interleaving with
    // other tests in this binary.

    #[test]
    fn txn_mix_counts_recent_events() {
        let before = txn_mix().get("drift_test_table").copied().unwrap_or(0);
        for _ in 0..5 {
            note_txn("drift_test_table");
        }
        let after = txn_mix().get("drift_test_table").copied().unwrap_or(0);
        // The window covers at least one full epoch, and 5 events never
        // span more than one epoch boundary, so at least the current
        // epoch's share is visible.
        assert!(after > before || after >= 1, "window lost fresh events");
    }

    #[test]
    fn view_cost_ewma_seeds_then_smooths() {
        note_view_cost("drift_test_view_smooth", 100.0);
        let seeded = view_cost_ewma()["drift_test_view_smooth"];
        note_view_cost("drift_test_view_smooth", 0.0);
        let smoothed = view_cost_ewma()["drift_test_view_smooth"];
        assert!(smoothed < seeded, "EWMA must move toward new observations");
        assert!(smoothed > 0.0, "EWMA must not jump to the new observation");
    }
}
