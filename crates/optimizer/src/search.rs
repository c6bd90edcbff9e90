//! The parallel, cache-sharing, branch-and-bound view-set search engine.
//!
//! Every optimizer entry point (exhaustive, multi-root, shielding regions,
//! greedy rounds) reduces to the same job: price a list of candidate view
//! sets and keep the best (plus a top-K tail). This module does that job
//! once, well:
//!
//! * **Shared track catalog** — track enumeration and query preparation
//!   are hoisted out of the per-set loop into a [`TrackCatalog`] keyed by
//!   `(transaction, seed list)`, shared by every worker.
//! * **Parallel workers** — `std::thread::scope` workers claim set indices
//!   from an atomic counter; each holds its own `CostCtx` whose query-cost
//!   lookups go through one [`SharedQueryCache`], so pricing work done by
//!   any worker benefits all.
//! * **Branch-and-bound** — an atomic incumbent holds the current K-th
//!   best weighted cost; a set's evaluation is abandoned as soon as a
//!   lower bound on its weighted cost exceeds it: first its maintenance
//!   floor, before any track is enumerated, then its monotone weighted
//!   partial sum (see [`crate::evaluate::evaluate_with_catalog`]). The
//!   threshold only ever decreases, and pruning fires strictly above it,
//!   so the retained top-K — and in particular the winner — is identical
//!   with pruning on or off, and identical between serial and parallel
//!   runs.
//! * **Cheapest floor first** — sets are handed out in ascending order of
//!   their maintenance floor, so the incumbent is tight before the
//!   expensive sets are reached. The ranking of evaluations is a strict
//!   total order, so the answer does not depend on the order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use spacetime_cost::{Cost, CostCtx, CostModel, SharedQueryCache, TransactionType};
use spacetime_memo::{GroupId, Memo};
use spacetime_obs::{self as obs, names as metric};
use spacetime_storage::Catalog;

use crate::candidates::ViewSet;
use crate::evaluate::{
    evaluate_bounded, maintenance_costs, maintenance_floor, EvalConfig, ViewSetEvaluation,
};
use crate::exhaustive::OptimizeOutcome;
use crate::track_catalog::TrackCatalog;

/// Total order on evaluations: weighted cost, then set size, then the set
/// itself — a strict order, so sorting and top-K truncation are
/// deterministic regardless of evaluation order.
fn rank(a: &ViewSetEvaluation, b: &ViewSetEvaluation) -> std::cmp::Ordering {
    a.weighted
        .total_cmp(&b.weighted)
        .then_with(|| a.view_set.len().cmp(&b.view_set.len()))
        .then_with(|| a.view_set.cmp(&b.view_set))
}

/// The top-K accumulator plus the pruning threshold. The threshold is the
/// K-th best weighted cost seen so far (`+∞` until K sets have survived),
/// published as ordered `f64` bits for lock-free reads; it is monotone
/// non-increasing, and [`crate::evaluate::evaluate_with_catalog`]
/// abandons a set only when a lower bound on its cost strictly exceeds it
/// — so no set that could enter the final top-K is ever pruned.
struct TopK {
    k: usize,
    entries: Mutex<Vec<ViewSetEvaluation>>,
    threshold_bits: AtomicU64,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k: k.max(1),
            entries: Mutex::new(Vec::new()),
            threshold_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    fn threshold(&self) -> f64 {
        f64::from_bits(self.threshold_bits.load(Ordering::Acquire))
    }

    fn insert(&self, eval: ViewSetEvaluation) {
        let mut entries = self.entries.lock().expect("top-K lock");
        let pos = entries
            .binary_search_by(|e| rank(e, &eval))
            .unwrap_or_else(|p| p);
        entries.insert(pos, eval);
        entries.truncate(self.k);
        if entries.len() == self.k {
            self.threshold_bits
                .store(entries[self.k - 1].weighted.to_bits(), Ordering::Release);
        }
        // Live search progress: the current best weighted cost.
        obs::gauge_set(metric::OPT_INCUMBENT_COST, entries[0].weighted);
    }

    fn into_sorted(self) -> Vec<ViewSetEvaluation> {
        self.entries.into_inner().expect("top-K lock")
    }
}

/// Price every view set in `sets` under the workload and return the best
/// (with the top-K tail in `evaluated`, ascending). This is the engine
/// behind [`crate::exhaustive::optimal_view_set`],
/// [`crate::multi::optimal_view_set_multi`], the shielding combination
/// step and the greedy rounds.
pub fn search_view_sets(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    roots: &[GroupId],
    sets: &[ViewSet],
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    let tcat = TrackCatalog::new(memo, catalog, roots, txns, config.max_tracks);
    let shared = SharedQueryCache::new();
    // Every set's maintenance costs (memo lookups after the first few),
    // and the order of their floors: cheapest first, ties by input index
    // (the sort is stable).
    let mut ctx = CostCtx::new(memo, catalog, model);
    let update_costs: Vec<Vec<Cost>> = sets
        .iter()
        .map(|set| maintenance_costs(&mut ctx, &tcat, set, config))
        .collect();
    let floors: Vec<f64> = update_costs
        .iter()
        .map(|costs| maintenance_floor(txns, costs))
        .collect();
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&a, &b| floors[a].total_cmp(&floors[b]));
    let top = TopK::new(config.top_k);
    let next = AtomicUsize::new(0);
    let pruned = AtomicUsize::new(0);

    let workers = match config.parallelism {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(sets.len().max(1));

    let run_worker = || {
        let mut ctx = CostCtx::with_shared_cache(memo, catalog, model, shared.clone());
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let abort_above = if config.prune {
                let t = top.threshold();
                t.is_finite().then_some(t)
            } else {
                None
            };
            match evaluate_bounded(&mut ctx, &tcat, &sets[i], &update_costs[i], abort_above) {
                Some(eval) => top.insert(eval),
                None => {
                    pruned.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    };

    if workers <= 1 {
        run_worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(run_worker);
            }
        });
    }

    let evaluated = top.into_sorted();
    let best = evaluated.first().cloned().expect("at least one view set");
    let (query_cache_hits, query_cache_misses) = shared.stats();
    let outcome = OptimizeOutcome {
        best,
        evaluated,
        sets_considered: sets.len(),
        sets_pruned: pruned.into_inner(),
        tracks_truncated: tcat.tracks_truncated(),
        query_cache_hits,
        query_cache_misses,
    };
    obs::counter_add(metric::OPT_SETS_CONSIDERED, outcome.sets_considered as u64);
    obs::counter_add(metric::OPT_SETS_PRUNED, outcome.sets_pruned as u64);
    obs::counter_add(metric::OPT_TRACKS_TRUNCATED, outcome.tracks_truncated as u64);
    obs::gauge_set(metric::OPT_INCUMBENT_COST, outcome.best.weighted);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{candidate_groups, enumerate_view_sets};
    use crate::exhaustive::tests::paper_setup;
    use spacetime_cost::PageIoCostModel;

    fn paper_sets(s: &crate::exhaustive::tests::PaperSetup) -> Vec<ViewSet> {
        let candidates = candidate_groups(&s.memo, s.root);
        enumerate_view_sets(s.root, &candidates, None)
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let sets = paper_sets(&s);
        let serial = EvalConfig {
            parallelism: 1,
            prune: false,
            ..EvalConfig::default()
        };
        let parallel = EvalConfig {
            parallelism: 4,
            prune: true,
            ..EvalConfig::default()
        };
        let a = search_view_sets(&s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &serial);
        let b = search_view_sets(
            &s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &parallel,
        );
        assert_eq!(a.best.view_set, b.best.view_set);
        assert_eq!(a.best.weighted.to_bits(), b.best.weighted.to_bits());
        assert_eq!(a.evaluated.len(), b.evaluated.len());
        for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
            assert_eq!(x.view_set, y.view_set);
            assert_eq!(x.weighted.to_bits(), y.weighted.to_bits());
        }
    }

    #[test]
    fn top_k_truncates_and_stays_sorted() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let sets = paper_sets(&s);
        assert!(sets.len() > 3);
        let config = EvalConfig {
            top_k: 3,
            parallelism: 1,
            ..EvalConfig::default()
        };
        let out = search_view_sets(&s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &config);
        assert_eq!(out.evaluated.len(), 3);
        assert_eq!(out.sets_considered, sets.len());
        for w in out.evaluated.windows(2) {
            assert!(rank(&w[0], &w[1]).is_lt());
        }
        assert_eq!(out.best.view_set, out.evaluated[0].view_set);
    }

    #[test]
    fn pruning_never_changes_the_top_k() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let sets = paper_sets(&s);
        for top_k in [1, 2, 4] {
            let plain = EvalConfig {
                top_k,
                parallelism: 1,
                prune: false,
                ..EvalConfig::default()
            };
            let pruned = EvalConfig {
                prune: true,
                ..plain
            };
            let a = search_view_sets(&s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &plain);
            let b = search_view_sets(&s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &pruned);
            assert_eq!(a.evaluated.len(), b.evaluated.len());
            for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
                assert_eq!(x.view_set, y.view_set, "top_k={top_k}");
                assert_eq!(x.weighted.to_bits(), y.weighted.to_bits());
            }
        }
    }
}
