//! Evaluating one view set (§3.4–§3.5 inner loop).
//!
//! For each transaction type: enumerate the update tracks, price each
//! track's query set (with multi-query optimization) under the view set's
//! marking, keep the cheapest, and add the cost of physically applying the
//! transaction's deltas to every materialized view. The view set's figure
//! of merit is the workload-weighted average.

use std::sync::Arc;

use spacetime_cost::{BatchQuery, Cost, CostCtx, Marking, TransactionType};
use spacetime_memo::{GroupId, Memo};
use spacetime_storage::Catalog;

use crate::candidates::ViewSet;
use crate::track_catalog::{PreparedTracks, TrackCatalog};
use crate::tracks::{resolve_prepared, PosedQuery, UpdateTrack};

/// Evaluation knobs.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Whether the root view's own update-application cost is counted.
    /// The paper's §3.6 tables exclude it ("We do not count the cost of
    /// updating the database relations, or the top-level view
    /// ProblemDept"), and it is identical across view sets anyway.
    pub include_root_update_cost: bool,
    /// Cap on enumerated tracks per (view set, transaction).
    pub max_tracks: usize,
    /// How many evaluations (beyond the best) searches keep in
    /// [`crate::exhaustive::OptimizeOutcome::evaluated`].
    pub top_k: usize,
    /// Worker threads for the parallel search: `0` = one per available
    /// core, `1` = serial.
    pub parallelism: usize,
    /// Branch-and-bound pruning: abort a view set's evaluation as soon as
    /// its weighted partial sum provably exceeds the current top-K
    /// threshold. Never changes the winner or the retained top-K.
    pub prune: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            include_root_update_cost: false,
            max_tracks: 4096,
            top_k: 16,
            parallelism: 0,
            prune: true,
        }
    }
}

/// One transaction's winning update track.
#[derive(Debug, Clone)]
pub struct TrackEval {
    /// The track.
    pub track: UpdateTrack,
    /// Queries the track poses.
    pub queries: Vec<PosedQuery>,
    /// Multi-query-optimized query cost.
    pub query_cost: Cost,
}

/// One transaction type's evaluation under a view set.
#[derive(Debug, Clone)]
pub struct TxnEvaluation {
    /// The transaction's name.
    pub txn_name: String,
    /// Its workload weight.
    pub weight: f64,
    /// The cheapest track (the first of equal cost in enumeration order);
    /// `None` only when the enumeration yielded no track.
    pub best: Option<TrackEval>,
    /// The query cost of every enumerated track, in enumeration order
    /// (the order of [`TrackCatalog::prepared`]'s tracks).
    pub track_costs: Vec<Cost>,
    /// Cost of applying updates to the materialized views.
    pub update_cost: Cost,
    /// `min_track(query) + update`.
    pub total: Cost,
}

/// A fully-priced view set.
#[derive(Debug, Clone)]
pub struct ViewSetEvaluation {
    /// The view set (root included).
    pub view_set: ViewSet,
    /// Per-transaction breakdown.
    pub per_txn: Vec<TxnEvaluation>,
    /// Weighted-average cost `C(V)` (§3.5).
    pub weighted: f64,
    /// Track-enumeration branches discarded by `max_tracks` across this
    /// set's transactions (`0` = the enumeration was exhaustive).
    pub tracks_truncated: usize,
}

impl ViewSetEvaluation {
    /// The per-transaction total for a named transaction.
    pub fn txn_total(&self, name: &str) -> Option<Cost> {
        self.per_txn
            .iter()
            .find(|t| t.txn_name == name)
            .map(|t| t.total)
    }
}

/// Evaluate one view set against a shared [`TrackCatalog`] (the search
/// engine's inner loop). Track enumeration and query preparation come from
/// the catalog; only marking-dependent pricing happens here. Every track is
/// priced by reference into the shared prepared tracks, and only each
/// transaction's winner is copied out, once the set has survived pruning.
///
/// With `abort_above = Some(t)`, the transactions are processed
/// heaviest-weight-first and the evaluation is abandoned (returning
/// `None`) as soon as the weighted partial sum provably exceeds `t`:
/// per-transaction costs are non-negative, so the running sum of
/// `weight · cost` divided by the total weight is a monotone lower bound
/// on the final weighted average. The comparison carries a `1e-9` relative
/// guard so float-summation reordering can never prune a set whose true
/// weighted cost ties the threshold; completed evaluations recompute the
/// weighted average in original transaction order, bit-identical to the
/// serial path.
pub fn evaluate_with_catalog(
    ctx: &mut CostCtx<'_>,
    tcat: &TrackCatalog<'_>,
    view_set: &ViewSet,
    config: &EvalConfig,
    abort_above: Option<f64>,
) -> Option<ViewSetEvaluation> {
    /// One transaction priced: its prepared tracks, each track's query
    /// cost, the winner's index, and the update and total costs.
    struct Priced {
        prepared: Arc<PreparedTracks>,
        track_costs: Vec<Cost>,
        best: Option<usize>,
        update_cost: Cost,
        total: Cost,
    }

    let memo = ctx.memo;
    let marked: Marking = view_set.iter().map(|&g| memo.find(g)).collect();
    let txns = tcat.txns();
    let total_weight: f64 = txns.iter().map(|t| t.weight).sum();

    let mut order: Vec<usize> = (0..txns.len()).collect();
    if abort_above.is_some() {
        // Heaviest transactions first: their weighted costs dominate the
        // partial sum, so bad sets are abandoned as early as possible.
        order.sort_by(|&a, &b| txns[b].weight.total_cmp(&txns[a].weight).then(a.cmp(&b)));
    }

    let mut slots: Vec<Option<Priced>> = (0..txns.len()).map(|_| None).collect();
    let mut tracks_truncated = 0usize;
    let mut partial = 0.0f64;
    for &ti in &order {
        let prepared = tcat.prepared(ti, view_set, ctx);
        tracks_truncated += prepared.truncated;

        // Cost of performing updates to every materialized view (Figure
        // 4's m_j) — track-independent.
        let mut update_cost = Cost::ZERO;
        for &g in view_set {
            let g = memo.find(g);
            if tcat.is_root(g) && !config.include_root_update_cost {
                continue;
            }
            update_cost += tcat.apply_cost(ti, g, ctx);
        }

        // Cheapest track (Figure 4's q_j). Sequential propagation: MQO
        // shares queries *within* one table-update's propagation (same
        // delta keys), then sums across the transaction's updates.
        let mut batch: Vec<BatchQuery<'_>> = Vec::new();
        let mut track_costs = Vec::with_capacity(prepared.tracks.len());
        for pt in &prepared.tracks {
            let mut query_cost = Cost::ZERO;
            for qs in &pt.queries {
                batch.clear();
                batch.extend(
                    qs.iter()
                        .filter(|p| p.applies(view_set))
                        .map(|p| BatchQuery {
                            group: p.query.queried,
                            cols: &p.query.cols,
                            probes: p.query.probes,
                        }),
                );
                query_cost += ctx.batch_query_cost(&batch, &marked);
            }
            track_costs.push(query_cost);
        }
        let best = track_costs
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i);
        let total = best.map_or(Cost::ZERO, |i| track_costs[i]) + update_cost;
        partial += total.value() * txns[ti].weight;
        slots[ti] = Some(Priced {
            prepared,
            track_costs,
            best,
            update_cost,
            total,
        });
        if let Some(threshold) = abort_above {
            if total_weight > 0.0 && partial / total_weight > threshold * (1.0 + 1e-9) {
                return None;
            }
        }
    }

    let per_txn: Vec<TxnEvaluation> = slots
        .into_iter()
        .zip(txns)
        .map(|(slot, txn)| {
            let p = slot.expect("every transaction evaluated");
            let best = p.best.map(|i| {
                let pt = &p.prepared.tracks[i];
                TrackEval {
                    track: pt.track.clone(),
                    queries: pt
                        .queries
                        .iter()
                        .flat_map(|qs| resolve_prepared(qs, view_set))
                        .collect(),
                    query_cost: p.track_costs[i],
                }
            });
            TxnEvaluation {
                txn_name: txn.name.clone(),
                weight: txn.weight,
                best,
                track_costs: p.track_costs,
                update_cost: p.update_cost,
                total: p.total,
            }
        })
        .collect();
    let weighted = spacetime_cost::txn::weighted_average(
        &per_txn
            .iter()
            .map(|t| (t.total.value(), t.weight))
            .collect::<Vec<_>>(),
    );
    Some(ViewSetEvaluation {
        view_set: view_set.clone(),
        per_txn,
        weighted,
        tracks_truncated,
    })
}

/// Evaluate one view set under a workload.
pub fn evaluate_view_set(
    ctx: &mut CostCtx<'_>,
    catalog: &Catalog,
    root: GroupId,
    view_set: &ViewSet,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> ViewSetEvaluation {
    let tcat = TrackCatalog::new(ctx.memo, catalog, &[root], txns, config.max_tracks);
    evaluate_with_catalog(ctx, &tcat, view_set, config, None).expect("no abort threshold")
}

/// Convenience: evaluate with a fresh context.
pub fn evaluate_view_set_fresh(
    memo: &Memo,
    catalog: &Catalog,
    model: &dyn spacetime_cost::CostModel,
    root: GroupId,
    view_set: &ViewSet,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> ViewSetEvaluation {
    let mut ctx = CostCtx::new(memo, catalog, model);
    evaluate_view_set(&mut ctx, catalog, root, view_set, txns, config)
}
