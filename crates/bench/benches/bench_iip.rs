//! Experiments E9 and E14: the Shannon-cone (Max-)IIP prover.
//!
//! * E9 — validity checking of linear and max-linear inequalities as the
//!   number of random variables `n` grows (the LP has `2^n` columns and
//!   `n + C(n,2)·2^{n−2}` elemental rows).
//! * E14 — Theorem 6.1 convex-certificate search on valid max-inequalities.

use bqc_arith::int;
use bqc_entropy::EntropyExpr;
use bqc_iip::{find_convex_certificate, GammaProver, LinearInequality, MaxInequality};
use bqc_obs::Budget;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn vars(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("V{i}")).collect()
}

/// The "chain" Shannon inequality h(V0) + Σ h(V_{i+1}|V_i) ≥ h(V0…V_{n−1}).
fn chain_inequality(n: usize) -> LinearInequality {
    let universe = vars(n);
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), [universe[0].clone()]);
    for i in 0..n - 1 {
        expr.add_term(int(1), [universe[i].clone(), universe[i + 1].clone()]);
        expr.add_term(int(-1), [universe[i].clone()]);
    }
    expr.add_term(int(-1), universe.clone());
    LinearInequality::new(universe, expr)
}

/// The Example 3.8-style max-inequality generalized to a cycle of n variables.
fn cycle_max_inequality(n: usize) -> MaxInequality {
    let universe = vars(n);
    let mut disjuncts = Vec::new();
    for i in 0..n {
        let j = (i + 1) % n;
        let mut e = EntropyExpr::zero();
        e.add_term(int(1), [universe[i].clone(), universe[j].clone()]);
        e.add_term(int(1), [universe[i].clone(), universe[j].clone()]);
        e.add_term(int(-1), [universe[i].clone()]);
        e.add_term(int(-1), universe.clone());
        disjuncts.push(e);
    }
    MaxInequality::new(universe, disjuncts)
}

fn bench_linear_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("iip/linear_chain");
    group.sample_size(10);
    for n in [3usize, 4, 5] {
        let inequality = chain_inequality(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let verdict =
                    GammaProver::new().check_linear_inequality(&inequality, &Budget::unlimited());
                assert!(verdict.unwrap().is_valid())
            })
        });
    }
    group.finish();
}

fn bench_max_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("iip/max_cycle");
    group.sample_size(10);
    for n in [3usize, 4, 5] {
        let inequality = cycle_max_inequality(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                // Validity is not asserted (it depends on n); only timing matters.
                let _ = GammaProver::new().check_max_inequality(&inequality, &Budget::unlimited());
            })
        });
    }
    group.finish();
}

fn bench_convex_certificate(c: &mut Criterion) {
    let mut group = c.benchmark_group("iip/convex_certificate");
    group.sample_size(10);
    // max(h(X)-h(Y), h(Y)-h(X)) on growing universes (padding variables only
    // enlarge the cone description, not the disjuncts).
    for n in [2usize, 3, 4] {
        let universe = vars(n);
        let mut d1 = EntropyExpr::zero();
        d1.add_term(int(1), [universe[0].clone()]);
        d1.add_term(int(-1), [universe[1].clone()]);
        let d2 = d1.negate();
        let max = MaxInequality::new(universe, vec![d1, d2]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| assert!(find_convex_certificate(&max).is_some()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_linear_validity, bench_max_validity, bench_convex_certificate
}
criterion_main!(benches);
