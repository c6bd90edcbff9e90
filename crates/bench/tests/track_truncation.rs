//! Does the `max_tracks` cap change the view-set search's answer?
//!
//! The trusted benchmark's `view_search` prices the scaling scenario's 407
//! view sets (at most two extra views) with at most 64 update tracks per
//! (view set, transaction) and reports `optimizer.tracks_truncated`. This
//! pins what a far larger cap answers on the same question: the cap *does*
//! change the winner, so 64 tracks buys speed with a worse view set.
//! EXPERIMENTS.md E-PAR records the run.
//!
//! The 4 096-track search takes seconds in a release build and minutes in
//! a debug one, so the test is ignored by default; run it with
//!
//! ```text
//! cargo test --release -p spacetime-bench --test track_truncation -- --ignored --nocapture
//! ```

use std::time::Instant;

use spacetime_bench::scenarios::scaling_workload;
use spacetime_cost::PageIoCostModel;
use spacetime_optimizer::{candidate_groups, optimal_view_set_over, EvalConfig};

#[test]
#[ignore = "a 4096-track search: run in release (see the module docs)"]
fn truncation_changes_the_scaling_winner() {
    let s = scaling_workload();
    let candidates = candidate_groups(&s.memo, s.root);
    let search = |max_tracks: usize| {
        let config = EvalConfig {
            max_tracks,
            ..EvalConfig::default()
        };
        let t0 = Instant::now();
        let out = optimal_view_set_over(
            &s.memo,
            &s.catalog,
            &PageIoCostModel::default(),
            s.root,
            &candidates,
            &s.txns,
            &config,
            Some(2),
        );
        let set: Vec<u32> = out.best.view_set.iter().map(|g| g.0).collect();
        println!(
            "max_tracks {max_tracks:>5}: winner {set:?} (root {}), weighted {:.3}, \
             {} sets, {} branches still truncated, {:.2} s",
            s.root.0,
            out.best.weighted,
            out.sets_considered,
            out.tracks_truncated,
            t0.elapsed().as_secs_f64()
        );
        (set, out.best.weighted)
    };
    let (capped, capped_cost) = search(64);
    let (wide, wide_cost) = search(4096);
    assert_eq!(capped, [7, 8, 12]);
    assert_eq!(wide, [2, 7, 12]);
    assert!(wide_cost < capped_cost, "{wide_cost} vs {capped_cost}");
}
