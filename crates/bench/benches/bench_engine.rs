//! Experiment E15: throughput of the caching batch engine.
//!
//! The acceptance workload repeats each distinct canonical containment
//! question ≥ 4 times under shuffled variable names and atom orders
//! (`bqc_bench::engine_workload`).  Three configurations are timed on the
//! same request list:
//!
//! * `sequential/decide_each` — the baseline: one `decide_containment_traced`
//!   call on a fresh context per request, no canonicalization, no cache, no
//!   threads;
//! * `engine/cold_batch` — a fresh engine per iteration: canonicalization +
//!   in-flight dedup + worker-pool fan-out pay for every distinct pair once
//!   (this is the ≥ 2x-speedup comparison against the baseline);
//! * `engine/warm_batch` — a pre-warmed engine: every request is a cache
//!   hit, measuring the canonicalize-and-look-up ceiling of the serving
//!   layer.

use bqc_bench::engine_workload;
use bqc_core::{decide_containment_traced, DecideContext, DecideOptions};
use bqc_engine::{Engine, EngineOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Witness extraction off in both the baseline and the engine: the
/// comparison targets the decide/canonicalize/cache pipeline, not witness
/// materialization (that is experiment E12).
fn decide_options() -> DecideOptions {
    DecideOptions {
        extract_witness: false,
        ..DecideOptions::default()
    }
}

fn engine_options() -> EngineOptions {
    EngineOptions {
        decide: decide_options(),
        ..EngineOptions::default()
    }
}

fn bench_engine_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_vs_sequential");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    for repeats in [4usize, 8] {
        let workload = engine_workload(repeats, 42);
        group.bench_with_input(
            BenchmarkId::new("sequential/decide_each", repeats),
            &workload,
            |b, workload| {
                let options = decide_options();
                b.iter(|| {
                    let mut verdicts = 0usize;
                    for (q1, q2) in workload {
                        if decide_containment_traced(&mut DecideContext::new(), q1, q2, &options)
                            .expect("workload has matching heads")
                            .answer
                            .is_contained()
                        {
                            verdicts += 1;
                        }
                    }
                    verdicts
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine/cold_batch", repeats),
            &workload,
            |b, workload| {
                b.iter(|| {
                    // A fresh engine per iteration: every distinct canonical
                    // pair is computed exactly once, repeats are deduped.
                    let engine = Engine::new(engine_options());
                    engine.decide_batch(workload)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine/warm_batch", repeats),
            &workload,
            |b, workload| {
                let engine = Engine::new(engine_options());
                engine.decide_batch(workload);
                b.iter(|| engine.decide_batch(workload))
            },
        );
    }
    group.finish();
}

fn bench_canonicalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/canonicalize_pair");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    let workload = engine_workload(4, 7);
    group.bench_function("workload_of_20", |b| {
        b.iter(|| {
            workload
                .iter()
                .map(|(q1, q2)| bqc_engine::canonicalize_pair(q1, q2).hash)
                .fold(0u64, u64::wrapping_add)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_vs_sequential, bench_canonicalization);
criterion_main!(benches);
