//! Experiment E10 (ablation): homomorphism counting — generic backtracking
//! vs. junction-tree dynamic programming (Yannakakis-style) on acyclic
//! queries, as the database grows.

use bqc_bench::{path_query, random_graph, star_query};
use bqc_core::count_homomorphisms_acyclic;
use bqc_obs::Budget;
use bqc_relational::count_homomorphisms;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_path_queries(c: &mut Criterion) {
    let query = path_query(4);
    let mut group = c.benchmark_group("hom_count/path4");
    group.sample_size(10);
    for edges in [30usize, 80, 150] {
        let db = random_graph(20, edges, 42);
        group.bench_with_input(BenchmarkId::new("backtracking", edges), &edges, |b, _| {
            b.iter(|| count_homomorphisms(&query, &db, &Budget::unlimited()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("junction_tree", edges), &edges, |b, _| {
            b.iter(|| count_homomorphisms_acyclic(&query, &db).unwrap())
        });
    }
    group.finish();
}

fn bench_star_queries(c: &mut Criterion) {
    let query = star_query(4);
    let mut group = c.benchmark_group("hom_count/star4");
    group.sample_size(10);
    for edges in [50usize, 150] {
        let db = random_graph(15, edges, 7);
        group.bench_with_input(BenchmarkId::new("backtracking", edges), &edges, |b, _| {
            b.iter(|| count_homomorphisms(&query, &db, &Budget::unlimited()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("junction_tree", edges), &edges, |b, _| {
            b.iter(|| count_homomorphisms_acyclic(&query, &db).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_path_queries, bench_star_queries
}
criterion_main!(benches);
