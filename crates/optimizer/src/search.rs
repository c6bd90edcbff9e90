//! The parallel, cache-sharing, branch-and-bound view-set search engine.
//!
//! Every optimizer entry point (exhaustive over one root or several,
//! shielding regions, greedy rounds) reduces to the same job: walk one or more
//! [`ViewSetSpace`]s and keep the best set (plus a top-K tail). This
//! module does that job once:
//!
//! * **One walk over the lattice** — a frontier holds sets as the indices
//!   of the free candidates they add, cheapest maintenance floor first.
//!   Claiming a set expands it canonically: its children add one free
//!   candidate after its last one, so every set of a space has exactly
//!   one parent and is generated at most once. Adding a view never lowers
//!   a set's floor, so a child whose floor exceeds the incumbent
//!   threshold is never pushed, and its whole family of supersets is
//!   never generated. Sets leave the frontier in ascending floor order;
//!   once the cheapest one left exceeds the threshold, so does every set
//!   not yet generated, and the walk is over.
//! * **A budget** — the walk claims at most [`SEARCH_BUDGET`] sets. Past
//!   it, the best set priced so far is returned and
//!   [`OptimizeOutcome::exact`] is false. Each space's base has its
//!   lowest floor and is claimed first, so a budgeted answer is never
//!   worse than the bases alone.
//! * **Shared track catalog** — track enumeration and query preparation
//!   are hoisted out of the per-set loop into a [`TrackCatalog`] keyed by
//!   `(transaction, seed list)`, shared by every worker.
//! * **Parallel workers** — `std::thread::scope` workers claim sets from
//!   the frontier; each holds its own `CostCtx` whose query-cost lookups
//!   go through one [`SharedQueryCache`], so pricing work done by any
//!   worker benefits all. A claim pops and expands under the frontier's
//!   lock, so the frontier never runs dry while a set is being expanded
//!   and claims come out in one fixed order. A parallel run's threshold
//!   lags, so it may claim a few sets a serial run would not; each has a
//!   floor above the final threshold, so none changes the top-K, `exact`
//!   or which sets fit in the budget.
//! * **Branch-and-bound** — an atomic incumbent holds the current K-th
//!   best weighted cost; a set's evaluation is abandoned as soon as a
//!   lower bound on its weighted cost exceeds it: first its maintenance
//!   floor, before any track is enumerated, then its monotone weighted
//!   partial sum (see [`crate::evaluate::evaluate_with_catalog`]). The
//!   threshold only ever decreases, and pruning fires strictly above it,
//!   so the retained top-K — and in particular the winner — is identical
//!   with pruning on or off, and identical between serial and parallel
//!   runs. The ranking of evaluations is a strict total order, so the
//!   answer does not depend on the order sets are priced in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use spacetime_cost::{CostCtx, CostModel, SharedQueryCache, TransactionType};
use spacetime_memo::{GroupId, Memo};
use spacetime_obs::{self as obs, names as metric};
use spacetime_storage::Catalog;

use crate::candidates::{ViewSet, ViewSetSpace};
use crate::evaluate::{
    evaluate_with_catalog, exceeds, maintenance_costs, maintenance_floor, EvalConfig,
    ViewSetEvaluation,
};
use crate::exhaustive::OptimizeOutcome;
use crate::track_catalog::TrackCatalog;

/// The most sets one search claims. A claimed set is priced or bounded;
/// a search that stops here has priced every set cheaper in floor than
/// the last one it claimed. 2 048 claims keep `join_chain(4)`'s search
/// exact (it needs 1 470) and bound a `CREATE` over a 6-way chain join to
/// about half a minute (EXPERIMENTS E-PAR, "One walk over the lattice").
pub const SEARCH_BUDGET: usize = 2048;

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

/// A frontier entry `(floor, space, size, picked)`: the set of space
/// `space` that adds the `size` free candidates at the ascending indices
/// `picked`, keyed first by its maintenance floor's bits (floors are
/// non-negative, so their bits order as the floats do). A child's floor
/// is at least its parent's and its size larger, so it never orders
/// before its parent, and claims come out in one fixed order.
type Entry = (u64, usize, usize, Box<[u32]>);

/// Whether the threshold `t` rules out a set whose floor has these bits.
fn ruled_out(floor_bits: u64, t: Option<f64>) -> bool {
    t.is_some_and(|t| exceeds(f64::from_bits(floor_bits), t))
}

/// The sets generated and not yet claimed, cheapest floor first, and how
/// many have been claimed.
struct Frontier {
    heap: BinaryHeap<Reverse<Entry>>,
    claimed: usize,
}

/// Price every view set in `sets` under the workload and return the best
/// (with the top-K tail in `evaluated`, ascending): the walk over spaces
/// with no free candidates. The greedy rounds and tests that price a
/// hand-built list come through here.
pub fn search_view_sets(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    roots: &[GroupId],
    sets: &[ViewSet],
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    let spaces: Vec<ViewSetSpace> = sets.iter().cloned().map(ViewSetSpace::single).collect();
    search_spaces(memo, catalog, model, roots, &spaces, txns, config)
}

/// Walk `spaces` under the workload and return the best set (with the
/// top-K tail in `evaluated`, ascending). This is the engine behind every
/// optimizer entry point. `sets_considered` is the spaces' total size,
/// whether each set was priced, bounded or left past the budget.
pub(crate) fn search_spaces(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn CostModel,
    roots: &[GroupId],
    spaces: &[ViewSetSpace],
    txns: &[TransactionType],
    config: &EvalConfig,
) -> OptimizeOutcome {
    let tcat = TrackCatalog::new(memo, catalog, roots, txns, config.max_tracks);
    let shared = SharedQueryCache::new();
    let floor_bits = |ctx: &mut CostCtx<'_>, set: &ViewSet| {
        maintenance_floor(txns, &maintenance_costs(ctx, &tcat, set)).to_bits()
    };
    let mut ctx = CostCtx::new(memo, catalog, model);
    let heap = spaces
        .iter()
        .enumerate()
        .map(|(si, s)| Reverse((floor_bits(&mut ctx, &s.base), si, 0, Box::default())))
        .collect();
    let frontier = Mutex::new(Frontier { heap, claimed: 0 });
    let top = TopK::new(config.top_k);
    // The pruning threshold, if pruning is on and K sets have survived.
    let bound = || {
        let t = top.threshold();
        (config.prune && t.is_finite()).then_some(t)
    };
    let priced = AtomicUsize::new(0);

    // Pop the cheapest set and push its children, under the lock; `None`
    // once the budget is spent or no set is left that could still win.
    let claim = |ctx: &mut CostCtx<'_>| -> Option<ViewSet> {
        let mut f = frontier.lock().expect("frontier lock");
        let t = bound();
        if f.claimed == SEARCH_BUDGET || f.heap.peek().is_some_and(|Reverse(e)| ruled_out(e.0, t)) {
            return None;
        }
        let Reverse((_, si, _, picked)) = f.heap.pop()?;
        f.claimed += 1;
        let space = &spaces[si];
        if picked.len() < space.max_extra {
            let after = picked.last().map_or(0, |&i| i + 1);
            for j in after..space.free.len() as u32 {
                let child: Box<[u32]> = picked.iter().copied().chain([j]).collect();
                let floor = floor_bits(ctx, &space.set(&child));
                if !ruled_out(floor, t) {
                    f.heap.push(Reverse((floor, si, child.len(), child)));
                }
            }
        }
        Some(space.set(&picked))
    };

    let sets_considered = spaces
        .iter()
        .fold(0usize, |n, s| n.saturating_add(s.size()));
    let workers = match config.parallelism {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(sets_considered.max(1));

    let run_worker = || {
        let mut ctx = CostCtx::with_shared_cache(memo, catalog, model, shared.clone());
        while let Some(set) = claim(&mut ctx) {
            if let Some(eval) = evaluate_with_catalog(&mut ctx, &tcat, &set, bound()) {
                priced.fetch_add(1, Ordering::Relaxed);
                top.insert(eval);
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

    // Exact when no unclaimed set could still have entered the top-K.
    let threshold = bound();
    let exact = frontier
        .into_inner()
        .expect("frontier lock")
        .heap
        .peek()
        .is_none_or(|Reverse(e)| ruled_out(e.0, threshold));
    let evaluated = top.into_sorted();
    let best = evaluated.first().cloned().expect("at least one view set");
    let (query_cache_hits, query_cache_misses) = shared.stats();
    let outcome = OptimizeOutcome {
        best,
        evaluated,
        sets_considered,
        sets_pruned: sets_considered.saturating_sub(priced.into_inner()),
        tracks_truncated: tcat.tracks_truncated(),
        query_cache_hits,
        query_cache_misses,
        exact,
    };
    obs::counter_add(metric::OPT_SETS_CONSIDERED, outcome.sets_considered as u64);
    obs::counter_add(metric::OPT_SETS_PRUNED, outcome.sets_pruned as u64);
    obs::counter_add(
        metric::OPT_TRACKS_TRUNCATED,
        outcome.tracks_truncated as u64,
    );
    obs::gauge_set(metric::OPT_INCUMBENT_COST, outcome.best.weighted);
    outcome.publish_exact();
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
            &s.memo,
            &s.cat,
            &model,
            &[s.root],
            &sets,
            &s.txns,
            &parallel,
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
    fn a_walk_stopped_by_its_budget_is_inexact_and_deterministic() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        // Every paper set many times over, unpruned: more sets than the
        // budget lets the walk claim.
        let sets: Vec<ViewSet> = paper_sets(&s)
            .into_iter()
            .cycle()
            .take(SEARCH_BUDGET + 100)
            .collect();
        let search = |parallelism| {
            let config = EvalConfig {
                top_k: 4,
                parallelism,
                prune: false,
                ..EvalConfig::default()
            };
            search_view_sets(&s.memo, &s.cat, &model, &[s.root], &sets, &s.txns, &config)
        };
        let (serial, parallel) = (search(1), search(2));
        assert!(!serial.exact && !parallel.exact);
        assert_eq!(serial.sets_considered, sets.len());
        assert_eq!(serial.sets_pruned, 100, "the budget's worth was priced");
        for (x, y) in serial.evaluated.iter().zip(&parallel.evaluated) {
            assert_eq!(x.view_set, y.view_set);
            assert_eq!(x.weighted.to_bits(), y.weighted.to_bits());
        }
        // The root alone has the lowest floor, so it is always priced.
        let root_only = search_view_sets(
            &s.memo,
            &s.cat,
            &model,
            &[s.root],
            &[ViewSet::from([s.root])],
            &s.txns,
            &EvalConfig::default(),
        );
        assert!(root_only.exact);
        assert!(serial.best.weighted <= root_only.best.weighted);
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
