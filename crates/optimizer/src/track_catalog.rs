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

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use spacetime_cost::{CostCtx, TransactionType};
use spacetime_memo::{affected_groups, GroupId, Memo};
use spacetime_storage::Catalog;

use crate::candidates::ViewSet;
use crate::tracks::{
    enumerate_from_seeds, prepare_track_queries, track_seeds, PreparedQuery, UpdateTrack,
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
    /// Groups affected by this transaction (union over all roots), shared
    /// by every track enumerated for it.
    affected: Arc<BTreeSet<GroupId>>,
    /// Prepared tracks keyed by the seed list a marking induces (order
    /// matters: it fixes track order).
    tracks_by_seeds: RwLock<HashMap<Vec<GroupId>, Arc<PreparedTracks>>>,
    /// Tracks `tracks_by_seeds` holds (changed under its write lock).
    cached_tracks: AtomicUsize,
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
    /// Branches the cap discarded, summed over the enumerations run.
    truncated: AtomicUsize,
}

/// The most prepared tracks one catalog caches (a few hundred MiB). A
/// transaction's cache that would pass its share is emptied first, and an
/// enumeration dropped that way is run again if its seed list comes
/// back: a search that claims thousands of sets of a wide DAG recomputes
/// rather than hold every enumeration it ever ran.
pub const MAX_CACHED_TRACKS: usize = 1 << 19;

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
                    affected: Arc::new(affected),
                    tracks_by_seeds: RwLock::new(HashMap::new()),
                    cached_tracks: AtomicUsize::new(0),
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
            truncated: AtomicUsize::new(0),
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
        let per_txn = &self.per_txn[txn_idx];
        let seeds = track_seeds(self.memo, &per_txn.affected, view_set);
        let cache = &per_txn.tracks_by_seeds;
        if let Ok(map) = cache.read() {
            if let Some(hit) = map.get(&seeds) {
                return Arc::clone(hit);
            }
        }
        let txn = &self.txns[txn_idx];
        let enumeration =
            enumerate_from_seeds(self.memo, &per_txn.affected, seeds.clone(), self.max_tracks);
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
        if let Ok(mut map) = cache.write() {
            if let Some(hit) = map.get(&seeds) {
                return Arc::clone(hit);
            }
            // Full: start over, so the cache holds the latest seed lists.
            let n = prepared.tracks.len();
            let share = MAX_CACHED_TRACKS / self.txns.len();
            if per_txn.cached_tracks.load(Ordering::Relaxed) + n > share {
                map.clear();
                per_txn.cached_tracks.store(0, Ordering::Relaxed);
            }
            per_txn.cached_tracks.fetch_add(n, Ordering::Relaxed);
            map.insert(seeds, Arc::clone(&prepared));
        }
        self.truncated
            .fetch_add(prepared.truncated, Ordering::Relaxed);
        prepared
    }

    /// Cached enumerations, over every transaction.
    #[cfg(test)]
    pub(crate) fn enumerations(&self) -> usize {
        self.per_txn
            .iter()
            .map(|t| t.tracks_by_seeds.read().map_or(0, |m| m.len()))
            .sum()
    }

    /// Total branches discarded by the `max_tracks` cap across the
    /// enumerations run (`0` = every enumeration was exhaustive).
    pub fn tracks_truncated(&self) -> usize {
        self.truncated.load(Ordering::Relaxed)
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
}
