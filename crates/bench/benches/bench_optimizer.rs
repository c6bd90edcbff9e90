//! E-SCALE: optimizer strategies vs view complexity.
//!
//! Measures Algorithm OptimalViewSet (exhaustive), the Shielding-Principle
//! decomposition, greedy hill-climbing and the single-tree restriction on
//! the paper's motivating view and on growing join chains — the paper's
//! point being that "the search space is inherently large" (§5) and the
//! §4/§5 techniques trade optimality guarantees for time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use spacetime_bench::scenarios::{join_chain, problem_dept, scaling_workload, stacked_view};
use spacetime_optimizer::heuristics::single_tree_optimize;
use spacetime_optimizer::{
    candidate_groups, greedy_add, optimal_view_set, optimal_view_set_over, shielding_optimize,
    EvalConfig, PageIoCostModel,
};

fn bench_strategies_on_paper_example(c: &mut Criterion) {
    let s = problem_dept();
    let model = PageIoCostModel::default();
    let config = EvalConfig::default();
    let mut group = c.benchmark_group("optimizer/problem_dept");
    group.sample_size(10);
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            black_box(optimal_view_set(
                &s.memo,
                &s.catalog,
                &model,
                &[s.root],
                &s.txns,
                &config,
            ))
        })
    });
    group.bench_function("shielding", |b| {
        b.iter(|| {
            black_box(shielding_optimize(
                &s.memo, &s.catalog, &model, s.root, &s.txns, &config,
            ))
        })
    });
    group.bench_function("greedy", |b| {
        b.iter(|| {
            black_box(greedy_add(
                &s.memo,
                &s.catalog,
                &model,
                &[s.root],
                &s.txns,
                &config,
            ))
        })
    });
    group.bench_function("single_tree", |b| {
        b.iter(|| {
            black_box(single_tree_optimize(
                &s.memo, &s.catalog, &model, s.root, &s.tree, &s.txns, &config,
            ))
        })
    });
    group.finish();
}

fn bench_chain_scaling(c: &mut Criterion) {
    let model = PageIoCostModel::default();
    let config = EvalConfig {
        max_tracks: 256,
        ..EvalConfig::default()
    };
    let mut group = c.benchmark_group("optimizer/join_chain");
    group.sample_size(10);
    for n in [2usize, 3] {
        let s = join_chain(n);
        group.bench_with_input(BenchmarkId::new("exhaustive", n), &n, |b, _| {
            b.iter(|| {
                black_box(optimal_view_set(
                    &s.memo,
                    &s.catalog,
                    &model,
                    &[s.root],
                    &s.txns,
                    &config,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| {
                black_box(greedy_add(
                    &s.memo,
                    &s.catalog,
                    &model,
                    &[s.root],
                    &s.txns,
                    &config,
                ))
            })
        });
    }
    group.finish();
}

fn bench_shielding_on_stacked(c: &mut Criterion) {
    let model = PageIoCostModel::default();
    // The stacked DAG admits very many (mostly redundant) tracks; cap per
    // evaluation so the bench measures search structure, not track soup.
    let config = EvalConfig {
        max_tracks: 128,
        ..EvalConfig::default()
    };
    let mut group = c.benchmark_group("optimizer/stacked");
    group.sample_size(10);
    for levels in [1usize, 2] {
        let s = stacked_view(levels);
        group.bench_with_input(BenchmarkId::new("exhaustive", levels), &levels, |b, _| {
            b.iter(|| {
                black_box(optimal_view_set(
                    &s.memo,
                    &s.catalog,
                    &model,
                    &[s.root],
                    &s.txns,
                    &config,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("shielding", levels), &levels, |b, _| {
            b.iter(|| {
                black_box(shielding_optimize(
                    &s.memo, &s.catalog, &model, s.root, &s.txns, &config,
                ))
            })
        });
    }
    group.finish();
}

/// E-PAR: serial vs parallel vs parallel+pruning on the wide scaling
/// workload (28 candidate groups, 4 skewed-weight transaction types,
/// ≤2 extra views per set → 407 view sets). The trusted benchmark's
/// `view_search` workload times the same search.
fn bench_parallel_search(c: &mut Criterion) {
    let s = scaling_workload();
    let model = PageIoCostModel::default();
    let candidates = candidate_groups(&s.memo, s.root);
    let mut group = c.benchmark_group("optimizer/scaling");
    group.sample_size(10);
    for (name, parallelism, prune) in [
        ("serial", 1usize, false),
        ("parallel", 0, false),
        ("parallel_prune", 0, true),
    ] {
        let config = EvalConfig {
            parallelism,
            prune,
            max_tracks: 64,
            ..EvalConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(optimal_view_set_over(
                    &s.memo,
                    &s.catalog,
                    &model,
                    s.root,
                    &candidates,
                    &s.txns,
                    &config,
                    Some(2),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies_on_paper_example,
    bench_chain_scaling,
    bench_shielding_on_stacked,
    bench_parallel_search
);
criterion_main!(benches);
