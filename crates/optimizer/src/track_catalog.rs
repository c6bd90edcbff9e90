//! A cross-view-set catalog of prepared update tracks.
//!
//! The exhaustive search evaluates up to `2^n` view sets, and the seed
//! version re-enumerated every transaction's update tracks — and re-derived
//! every track's posed queries — once *per set*. But a track enumeration
//! depends on the marking only through its **seeds** (the marked affected
//! non-leaf nodes), and a track's query set depends on the marking only
//! through regime-2 aggregate suppression, which
//! [`crate::tracks::prepare_track_queries`] records as a condition instead
//! of resolving. So the expensive work keys on `(transaction, seed list)`
//! — a space that is usually far smaller than the set space — and can be
//! computed once and shared by every view set (and every worker thread)
//! that lands on the same key.
//!
//! The catalog also memoizes per-`(transaction, group)` update-application
//! costs, which never depend on the marking at all.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

use spacetime_cost::{Cost, CostCtx, TransactionType};
use spacetime_memo::{affected_groups, GroupId, Memo};
use spacetime_storage::Catalog;

use crate::candidates::ViewSet;
use crate::tracks::{
    enumerate_tracks_multi_counted, prepare_track_queries, PreparedQuery, UpdateTrack,
};

/// One track with its prepared (marking-independent) query lists, one list
/// per table update of the owning transaction.
#[derive(Debug, Clone)]
pub struct PreparedTrack {
    /// The track.
    pub track: UpdateTrack,
    /// Prepared queries, indexed like the transaction's `updates`.
    pub queries: Vec<Vec<PreparedQuery>>,
}

/// All prepared tracks for one `(transaction, seed list)` key.
#[derive(Debug, Clone)]
pub struct PreparedTracks {
    /// The tracks, in enumeration order.
    pub tracks: Vec<PreparedTrack>,
    /// Branches the `max_tracks` cap discarded (`0` = exhaustive).
    pub truncated: usize,
}

struct TxnCache {
    /// Groups affected by this transaction (union over all roots).
    affected: BTreeSet<GroupId>,
    /// Prepared tracks keyed by the seed list exactly as the enumerator
    /// derives it from a marking (order matters: it fixes track order).
    tracks_by_seeds: RwLock<HashMap<Vec<GroupId>, Arc<PreparedTracks>>>,
    /// Marking-independent update-application cost per materialized group.
    apply_cost: RwLock<HashMap<GroupId, Cost>>,
}

/// Shared, thread-safe catalog of prepared tracks for one optimization run
/// (fixed memo, roots, workload and track cap).
pub struct TrackCatalog<'a> {
    memo: &'a Memo,
    catalog: &'a Catalog,
    roots: Vec<GroupId>,
    txns: &'a [TransactionType],
    max_tracks: usize,
    per_txn: Vec<TxnCache>,
}

impl<'a> TrackCatalog<'a> {
    /// Build a catalog. `roots` are canonicalized, deduplicated and
    /// sorted; per-transaction affected sets are precomputed.
    pub fn new(
        memo: &'a Memo,
        catalog: &'a Catalog,
        roots: &[GroupId],
        txns: &'a [TransactionType],
        max_tracks: usize,
    ) -> Self {
        let root_set: BTreeSet<GroupId> = roots.iter().map(|&r| memo.find(r)).collect();
        let roots: Vec<GroupId> = root_set.into_iter().collect();
        let per_txn = txns
            .iter()
            .map(|txn| {
                let updated = txn.updated_tables();
                let mut affected: BTreeSet<GroupId> = BTreeSet::new();
                for &root in &roots {
                    affected.extend(affected_groups(memo, root, &updated));
                }
                TxnCache {
                    affected,
                    tracks_by_seeds: RwLock::new(HashMap::new()),
                    apply_cost: RwLock::new(HashMap::new()),
                }
            })
            .collect();
        TrackCatalog {
            memo,
            catalog,
            roots,
            txns,
            max_tracks,
            per_txn,
        }
    }

    /// The canonical roots.
    pub fn roots(&self) -> &[GroupId] {
        &self.roots
    }

    /// Whether `g` (canonical) is one of the roots.
    pub fn is_root(&self, g: GroupId) -> bool {
        self.roots.binary_search(&g).is_ok()
    }

    /// The workload.
    pub fn txns(&self) -> &'a [TransactionType] {
        self.txns
    }

    /// The seed list a marking induces for one transaction — the cache
    /// key. Must mirror [`crate::tracks::enumerate_tracks_multi_counted`]
    /// exactly, including order.
    fn seeds(&self, txn_idx: usize, view_set: &ViewSet) -> Vec<GroupId> {
        let affected = &self.per_txn[txn_idx].affected;
        view_set
            .iter()
            .map(|&g| self.memo.find(g))
            .filter(|g| affected.contains(g) && !self.memo.is_leaf(*g))
            .collect()
    }

    /// The prepared tracks for `(transaction, marking)`, enumerating and
    /// preparing on first use of the induced seed list. Concurrent misses
    /// on the same key may both compute; they produce identical values and
    /// the first insert wins. `ctx` must estimate against this catalog's
    /// memo and base-table catalog.
    pub fn prepared(
        &self,
        txn_idx: usize,
        view_set: &ViewSet,
        ctx: &mut CostCtx<'_>,
    ) -> Arc<PreparedTracks> {
        debug_assert!(
            std::ptr::eq(self.memo, ctx.memo) && std::ptr::eq(self.catalog, ctx.catalog),
            "ctx prices another memo or catalog"
        );
        let seeds = self.seeds(txn_idx, view_set);
        let cache = &self.per_txn[txn_idx].tracks_by_seeds;
        if let Ok(map) = cache.read() {
            if let Some(hit) = map.get(&seeds) {
                return Arc::clone(hit);
            }
        }
        let txn = &self.txns[txn_idx];
        let updated = txn.updated_tables();
        let enumeration = enumerate_tracks_multi_counted(
            self.memo,
            &self.roots,
            view_set,
            &updated,
            self.max_tracks,
        );
        let tracks = enumeration
            .tracks
            .into_iter()
            .map(|track| {
                let queries = txn
                    .updates
                    .iter()
                    .map(|u| prepare_track_queries(ctx, &track, u))
                    .collect();
                PreparedTrack { track, queries }
            })
            .collect();
        let prepared = Arc::new(PreparedTracks {
            tracks,
            truncated: enumeration.truncated,
        });
        match cache.write() {
            Ok(mut map) => Arc::clone(map.entry(seeds).or_insert(prepared)),
            Err(_) => prepared,
        }
    }

    /// The (marking-independent) cost of applying one transaction's deltas
    /// to a materialized group, memoized across view sets and threads.
    pub fn apply_cost(&self, txn_idx: usize, g: GroupId, ctx: &mut CostCtx<'_>) -> Cost {
        let cache = &self.per_txn[txn_idx].apply_cost;
        if let Ok(map) = cache.read() {
            if let Some(&c) = map.get(&g) {
                return c;
            }
        }
        let c = ctx.update_apply_cost(g, &self.txns[txn_idx]);
        if let Ok(mut map) = cache.write() {
            map.insert(g, c);
        }
        c
    }

    /// Total branches discarded by the `max_tracks` cap across all cached
    /// enumerations (`0` = every enumeration was exhaustive).
    pub fn tracks_truncated(&self) -> usize {
        self.per_txn
            .iter()
            .map(|t| {
                t.tracks_by_seeds
                    .read()
                    .map(|m| m.values().map(|p| p.truncated).sum::<usize>())
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tests::paper_setup;
    use crate::tracks::{enumerate_tracks, resolve_prepared, track_queries};
    use spacetime_cost::PageIoCostModel;

    #[test]
    fn prepared_tracks_match_direct_enumeration() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let tcat = TrackCatalog::new(&s.memo, &s.cat, &[s.root], &s.txns, 4096);
        for extras in [vec![], vec![s.n3], vec![s.n4], vec![s.n3, s.n4]] {
            let mut set: ViewSet = extras.into_iter().collect();
            set.insert(s.root);
            for (ti, txn) in s.txns.iter().enumerate() {
                let updated = txn.updated_tables();
                let direct = enumerate_tracks(&s.memo, s.root, &set, &updated, 4096);
                let prepared = tcat.prepared(ti, &set, &mut ctx);
                assert_eq!(prepared.truncated, 0);
                assert_eq!(prepared.tracks.len(), direct.len());
                for (pt, dt) in prepared.tracks.iter().zip(&direct) {
                    assert_eq!(&pt.track, dt);
                    for (u, qs) in txn.updates.iter().zip(&pt.queries) {
                        let resolved = resolve_prepared(qs, &set);
                        let legacy = track_queries(&mut ctx, &s.cat, dt, &set, u);
                        assert_eq!(resolved, legacy);
                    }
                }
            }
        }
    }

    #[test]
    fn seed_sharing_collapses_equivalent_markings() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let tcat = TrackCatalog::new(&s.memo, &s.cat, &[s.root], &s.txns, 4096);
        // Two markings that induce the same seeds for >Dept share one
        // enumeration (pointer-equal Arc).
        let base: ViewSet = [s.root].into_iter().collect();
        let a = tcat.prepared(0, &base, &mut ctx);
        let b = tcat.prepared(0, &base.clone(), &mut ctx);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn apply_cost_is_memoized_and_correct() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let tcat = TrackCatalog::new(&s.memo, &s.cat, &[s.root], &s.txns, 4096);
        let n3 = s.memo.find(s.n3);
        let direct = {
            let mut fresh = CostCtx::new(&s.memo, &s.cat, &model);
            fresh.update_apply_cost(n3, &s.txns[0])
        };
        assert_eq!(tcat.apply_cost(0, n3, &mut ctx), direct);
        assert_eq!(tcat.apply_cost(0, n3, &mut ctx), direct);
    }
}
