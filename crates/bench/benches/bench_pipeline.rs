//! Experiment E16: the staged decision pipeline.
//!
//! Three questions, each backed by a machine-independent CI floor or the
//! regression gate (`scripts/bench_compare.sh`):
//!
//! * **LP avoidance** (`pipeline/refutable/*`) — on refutable workloads the
//!   counting refuter must beat the LP-only path by ≥ 5x.  The
//!   parallel-blocks family generalizes Example 3.5: `m` blocks put the
//!   LP-only path on a `Γ_{2m}` refutation while the refuter counts
//!   homomorphisms on an `m`-block canonical database.
//! * **LP-bound decisions** (`pipeline/overhead/pipeline/*`) — cycle ⊑ path,
//!   containment holds, every screen passes through and the Γ_k LP decides:
//!   the worst case for pipeline bookkeeping, trace collection included,
//!   tracked by the regression threshold.
//! * **Stage mix under serving** (`pipeline/stage_mix/*`) — a cold engine
//!   batch over a workload hitting every stage outcome (identity, hom
//!   screen, refuter via canonical database and via the random family, LP
//!   valid, single-bag fallback), the scenario the per-stage telemetry is
//!   for.
//! * **Budget overhead** (`pipeline/budget/*`) — the LP-bound k=6 scenario
//!   with resource budgets armed (generous deadline and work caps, so every
//!   cooperative check runs but none fires) vs unlimited.  The CI floor
//!   requires `off / on ≥ 0.952`, i.e. armed budget checks cost at most 5%.
//! * **Observability overhead** (`pipeline/obs/*`) — the same cold-engine
//!   stage-mix batch with the `bqc-obs` metric probes live vs killed by the
//!   runtime switch (`bqc_obs::set_enabled`).  The CI floor requires
//!   `disabled / enabled ≥ 0.952`, i.e. live counters cost at most 5% —
//!   the experiment E18 overhead policy.

use bqc_bench::{cycle_query, parallel_blocks_query, path_query, spread_query, stage_mix_workload};
use bqc_core::{decide_containment_traced, ContainmentAnswer, DecideContext, DecideOptions};
use bqc_engine::{Engine, EngineOptions};
use bqc_relational::ConjunctiveQuery;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Witness extraction off throughout: these scenarios measure the decision
/// pipeline, not Lemma 3.7 witness materialization (experiment E12).
fn decide_options(counting_refuter: bool) -> DecideOptions {
    DecideOptions {
        extract_witness: false,
        counting_refuter,
        ..DecideOptions::default()
    }
}

/// One decision on a fresh context, as every `bqc` request without a
/// shared context makes it.
fn decide(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> ContainmentAnswer {
    decide_containment_traced(&mut DecideContext::new(), q1, q2, options)
        .unwrap()
        .answer
}

fn bench_refutable(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/refutable");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    let q2 = spread_query();
    for m in [2usize, 3] {
        let q1 = parallel_blocks_query(m);
        group.bench_with_input(BenchmarkId::new("lp_only", m), &m, |b, _| {
            let options = decide_options(false);
            b.iter(|| {
                let answer = decide(&q1, &q2, &options);
                assert!(answer.is_not_contained());
            })
        });
        group.bench_with_input(BenchmarkId::new("refuter", m), &m, |b, _| {
            let options = decide_options(true);
            b.iter(|| {
                let answer = decide(&q1, &q2, &options);
                assert!(answer.is_not_contained());
            })
        });
    }
    group.finish();
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    // cycle_k ⊑ path_{k-1}: containment holds, so every cheap screen (and
    // the refuter's candidate databases) passes through and the Γ_k LP
    // decides — the worst case for pipeline bookkeeping, trace collection
    // included.  k=4 and k=5 document the screen cost on small LPs.
    for k in [4usize, 5, 6] {
        let cycle = cycle_query(k);
        let path = path_query(k - 1);
        group.bench_with_input(BenchmarkId::new("pipeline", k), &k, |b, _| {
            let options = decide_options(true);
            b.iter(|| {
                let answer = decide(&cycle, &path, &options);
                assert!(answer.is_contained());
            })
        });
    }
    group.finish();
}

fn bench_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/budget");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    // Resource-governance overhead (experiment: budgets armed but never
    // exhausted).  Same LP-bound k=6 cycle-in-path scenario as
    // `pipeline/overhead`: every stage runs, the Γ_6 LP decides, and with
    // `on` every cooperative budget check (deadline per stage and per
    // pivot-block, pivot/separation-round/hom-step counters) executes
    // without ever firing.  The CI floor requires `off / on ≥ 0.952`, i.e.
    // armed budgets cost at most 5% — the same overhead policy as the
    // always-on bqc-obs probes.
    let k = 6usize;
    let cycle = cycle_query(k);
    let path = path_query(k - 1);
    for armed in [false, true] {
        let name = if armed { "on" } else { "off" };
        group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
            let mut options = decide_options(true);
            if armed {
                options.budget.deadline = Some(Duration::from_secs(3600));
                options.budget.max_pivots = Some(u64::MAX);
                options.budget.max_separation_rounds = Some(u64::MAX);
                options.budget.max_hom_steps = Some(u64::MAX);
            }
            b.iter(|| {
                let answer = decide(&cycle, &path, &options);
                assert!(answer.is_contained());
            })
        });
    }
    group.finish();
}

fn bench_stage_mix(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/stage_mix");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    let repeats = 4usize;
    let workload = stage_mix_workload(repeats, 42);
    group.bench_with_input(
        BenchmarkId::new("engine_cold", repeats),
        &workload,
        |b, workload| {
            b.iter(|| {
                let engine = Engine::new(EngineOptions {
                    decide: decide_options(true),
                    ..EngineOptions::default()
                });
                engine.decide_batch(workload)
            })
        },
    );
    group.finish();
}

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/obs");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(4));
    let repeats = 4usize;
    let workload = stage_mix_workload(repeats, 42);
    // Same cold-engine batch in both scenarios; only the metric kill switch
    // differs.  Spans are not started in either (tracing is off by default
    // and is not part of the always-on overhead budget).
    for enabled in [true, false] {
        let name = if enabled { "enabled" } else { "disabled" };
        group.bench_with_input(BenchmarkId::new(name, repeats), &workload, |b, workload| {
            bqc_obs::set_enabled(enabled);
            b.iter(|| {
                let engine = Engine::new(EngineOptions {
                    decide: decide_options(true),
                    ..EngineOptions::default()
                });
                engine.decide_batch(workload)
            });
            bqc_obs::set_enabled(true);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_refutable,
    bench_overhead,
    bench_budget,
    bench_stage_mix,
    bench_obs
);
criterion_main!(benches);
