//! Evaluating one view set (§3.4–§3.5 inner loop).
//!
//! For each transaction type: enumerate the update tracks, price each
//! track's query set (with multi-query optimization) under the view set's
//! marking, keep the cheapest, and add the cost of physically applying the
//! transaction's deltas to every materialized view. The view set's figure
//! of merit is the workload-weighted average.

use std::sync::Arc;

use spacetime_cost::{BatchQuery, Cost, CostCtx, Marking, TransactionType};
use spacetime_memo::GroupId;
use spacetime_storage::Catalog;

use crate::candidates::ViewSet;
use crate::track_catalog::{PreparedTracks, TrackCatalog};
use crate::tracks::{resolve_prepared, PosedQuery, UpdateTrack};

/// Evaluation knobs.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
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

/// Figure 4's `m_j` for every transaction, in workload order: the cost of
/// applying its deltas to every materialized view of `view_set` but the
/// roots. The paper's §3.6 tables leave the root out ("We do not count
/// the cost of updating the database relations, or the top-level view
/// ProblemDept"), and it is identical across view sets anyway. No `m_j`
/// depends on the update track, so these are known before any track is
/// enumerated.
pub fn maintenance_costs(
    ctx: &mut CostCtx<'_>,
    tcat: &TrackCatalog<'_>,
    view_set: &ViewSet,
) -> Vec<Cost> {
    let memo = ctx.memo;
    tcat.txns()
        .iter()
        .map(|txn| {
            let mut cost = Cost::ZERO;
            for &g in view_set {
                let g = memo.find(g);
                if !tcat.is_root(g) {
                    cost += ctx.update_apply_cost(g, txn);
                }
            }
            cost
        })
        .collect()
}

/// A view set's maintenance floor `Σ_j w_j·m_j / Σw`, from its
/// [`maintenance_costs`]. Every query cost `q_j` is non-negative under a
/// monotonic cost model, so the floor never exceeds the set's weighted
/// cost `Σ_j w_j·(q_j + m_j) / Σw`, and it is summed in the same order.
pub fn maintenance_floor(txns: &[TransactionType], update_costs: &[Cost]) -> f64 {
    spacetime_cost::txn::weighted_average(
        &update_costs
            .iter()
            .zip(txns)
            .map(|(c, t)| (c.value(), t.weight))
            .collect::<Vec<_>>(),
    )
}

/// Whether a lower bound on a set's weighted cost rules it out under
/// `threshold`. The `1e-9` relative guard keeps float-summation
/// reordering from ruling out a set whose true cost ties the threshold.
pub(crate) fn exceeds(bound: f64, threshold: f64) -> bool {
    bound > threshold * (1.0 + 1e-9)
}

/// Evaluate one view set against a shared [`TrackCatalog`] (the search
/// engine's inner loop). Track enumeration and query preparation come from
/// the catalog; only marking-dependent pricing happens here. Every track is
/// priced by reference into the shared prepared tracks, and only each
/// transaction's winner is copied out, once the set has survived pruning.
///
/// With `abort_above = Some(t)`, the evaluation is abandoned (returning
/// `None`) as soon as a lower bound on the set's weighted average provably
/// exceeds `t`. The first bound is the [`maintenance_floor`], tested before
/// any track is enumerated. Then the transactions are priced
/// heaviest-weight-first, and after each one the bound is the weighted sum
/// of the priced totals plus the unpriced transactions' maintenance costs:
/// every query cost is non-negative, so it only grows toward the final
/// weighted sum. The comparison carries a `1e-9` relative guard so
/// float-summation reordering can never prune a set whose true weighted
/// cost ties the threshold; completed evaluations recompute the weighted
/// average in original transaction order, bit-identical to the serial
/// path.
pub fn evaluate_with_catalog(
    ctx: &mut CostCtx<'_>,
    tcat: &TrackCatalog<'_>,
    view_set: &ViewSet,
    abort_above: Option<f64>,
) -> Option<ViewSetEvaluation> {
    /// One transaction priced: its prepared tracks, each track's query
    /// cost, the winner's index, and the total cost.
    struct Priced {
        prepared: Arc<PreparedTracks>,
        track_costs: Vec<Cost>,
        best: Option<usize>,
        total: Cost,
    }

    let update_costs = &maintenance_costs(ctx, tcat, view_set)[..];
    let memo = ctx.memo;
    let txns = tcat.txns();
    let total_weight: f64 = txns.iter().map(|t| t.weight).sum();

    let mut order: Vec<usize> = (0..txns.len()).collect();
    // `unpriced[k]`: the weighted maintenance costs of `order[k..]`.
    let mut unpriced = vec![0.0f64; txns.len() + 1];
    if let Some(t) = abort_above {
        if exceeds(maintenance_floor(txns, update_costs), t) {
            return None;
        }
        // Heaviest transactions first: their weighted costs dominate the
        // partial sum, so bad sets are abandoned as early as possible.
        order.sort_by(|&a, &b| txns[b].weight.total_cmp(&txns[a].weight).then(a.cmp(&b)));
        for k in (0..order.len()).rev() {
            let ti = order[k];
            unpriced[k] = unpriced[k + 1] + update_costs[ti].value() * txns[ti].weight;
        }
    }

    let marked: Marking = view_set.iter().map(|&g| memo.find(g)).collect();
    let mut slots: Vec<Option<Priced>> = (0..txns.len()).map(|_| None).collect();
    let mut tracks_truncated = 0usize;
    let mut partial = 0.0f64;
    for (k, &ti) in order.iter().enumerate() {
        let prepared = tcat.prepared(ti, view_set, ctx);
        tracks_truncated += prepared.truncated;

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
        let total = best.map_or(Cost::ZERO, |i| track_costs[i]) + update_costs[ti];
        partial += total.value() * txns[ti].weight;
        slots[ti] = Some(Priced {
            prepared,
            track_costs,
            best,
            total,
        });
        if let Some(t) = abort_above {
            if total_weight > 0.0 && exceeds((partial + unpriced[k + 1]) / total_weight, t) {
                return None;
            }
        }
    }

    let per_txn: Vec<TxnEvaluation> = slots
        .into_iter()
        .zip(txns)
        .zip(update_costs)
        .map(|((slot, txn), &update_cost)| {
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
                update_cost,
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

/// Evaluate one view set of the DAG under `roots` (one view or a group,
/// §6) under a workload. The roots' own update costs are left out (they
/// are view outputs, not auxiliaries).
pub fn evaluate_view_set(
    ctx: &mut CostCtx<'_>,
    catalog: &Catalog,
    roots: &[GroupId],
    view_set: &ViewSet,
    txns: &[TransactionType],
    config: &EvalConfig,
) -> ViewSetEvaluation {
    let tcat = TrackCatalog::new(ctx.memo, catalog, roots, txns, config.max_tracks);
    evaluate_with_catalog(ctx, &tcat, view_set, None).expect("no abort threshold")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::tests::paper_setup;
    use spacetime_cost::PageIoCostModel;

    #[test]
    fn a_set_is_bounded_before_it_is_enumerated() {
        let s = paper_setup();
        let model = PageIoCostModel::default();
        let config = EvalConfig::default();
        let set: ViewSet = [s.root, s.n3, s.n4].map(|g| s.memo.find(g)).into();
        let fresh = || TrackCatalog::new(&s.memo, &s.cat, &[s.root], &s.txns, config.max_tracks);
        let mut ctx = CostCtx::new(&s.memo, &s.cat, &model);
        let tcat = fresh();
        let floor = maintenance_floor(&s.txns, &maintenance_costs(&mut ctx, &tcat, &set));
        let full = evaluate_with_catalog(&mut ctx, &fresh(), &set, None).expect("no bound");
        assert!(
            0.0 < floor && floor < full.weighted,
            "{floor} vs {}",
            full.weighted
        );

        // Below the floor: pruned before a single track is enumerated.
        let below = Some(floor * (1.0 - 1e-6));
        assert!(evaluate_with_catalog(&mut ctx, &tcat, &set, below).is_none());
        assert_eq!(tcat.enumerations(), 0);

        // Within the floor's guard: the set goes on to be enumerated (and
        // is then pruned by the tighter in-loop bound).
        let tcat = fresh();
        let at_floor = Some(floor / (1.0 + 0.5e-9));
        assert!(evaluate_with_catalog(&mut ctx, &tcat, &set, at_floor).is_none());
        assert!(tcat.enumerations() > 0);

        // A threshold the set ties within the guard keeps it, bit for bit.
        let tie = Some(full.weighted / (1.0 + 0.5e-9));
        let kept = evaluate_with_catalog(&mut ctx, &fresh(), &set, tie).expect("a tie");
        assert_eq!(kept.weighted.to_bits(), full.weighted.to_bits());
    }
}
