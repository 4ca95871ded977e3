//! Experiment E8: scaling of the Theorem 3.1 decision procedure.
//!
//! The paper states the procedure runs in exponential time; this benchmark
//! measures it on the k-cycle ⊑ 2-out-star family (containment holds, the
//! interesting LP direction) and on a not-contained family exercising the
//! witness path, as the number of query variables grows.

use bqc_bench::{cycle_query, path_query};
use bqc_core::{decide_containment_traced, DecideContext, DecideOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_contained_direction(c: &mut Criterion) {
    // The k-cycle is contained in the (k-1)-edge path (dropping the closing
    // atom); for k = 3 this is Example 4.3 with the 2-star replaced by a path.
    let mut group = c.benchmark_group("decide/cycle_in_path");
    group.sample_size(10);
    for k in [3usize, 4, 5] {
        let cycle = cycle_query(k);
        let path = path_query(k - 1);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let answer = decide_containment_traced(
                    &mut DecideContext::new(),
                    &cycle,
                    &path,
                    &DecideOptions {
                        extract_witness: false,
                        ..DecideOptions::default()
                    },
                )
                .unwrap()
                .answer;
                assert!(answer.is_contained());
            })
        });
    }
    group.finish();
}

fn bench_not_contained_direction(c: &mut Criterion) {
    let mut group = c.benchmark_group("decide/path_in_longer_path");
    group.sample_size(10);
    for k in [2usize, 3, 4] {
        // path_k vs path_{k+1}: containment fails (a k-edge path database has a
        // k-path homomorphism but no (k+1)-path); exercises the witness path.
        let q1 = path_query(k);
        let q2 = path_query(k + 1);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let answer = decide_containment_traced(
                    &mut DecideContext::new(),
                    &q1,
                    &q2,
                    &DecideOptions {
                        extract_witness: true,
                        witness_max_rows: 1 << 10,
                        ..DecideOptions::default()
                    },
                )
                .unwrap()
                .answer;
                assert!(!answer.is_unknown());
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_contained_direction, bench_not_contained_direction
}
criterion_main!(benches);
