//! Experiment E11: the exact LP solvers on Shannon-cone feasibility programs.
//!
//! Four groups feed the CI bench-regression gate (`BENCH_PR5.json`):
//!
//! * `lp/shannon_cone_feasibility` — the Shannon-cone standard-form program
//!   through the sparse revised simplex (`revised/n`, n = 3..6);
//! * `lp/gamma_validity` — full `Γ_n` validity checks at n = 6 (and lazy-only
//!   n = 7, where the eager cone's 679 rows are out of budget) through the
//!   eager materialized cone versus the lazy separation prover, cold
//!   (one-shot) and warm (repeated same-shaped probes, the serving path —
//!   CI enforces warm-lazy ≥ 5× eager on the n = 6 chain validity check);
//! * `lp/warm_start` — repeated same-shaped cone probes, cold versus seeded
//!   with the previous optimal basis via [`LpProblem::solve_from`];
//! * `lp/random_dense` — dense random LPs through the modelling layer, as a
//!   guard against the sparse solver regressing on non-sparse inputs.

use bqc_arith::{int, Rational};
use bqc_entropy::{elemental_inequalities, EntropyExpr};
use bqc_iip::{
    check_max_inequality_eager, GammaProver, GammaValidity, LinearInequality, MaxInequality,
};
use bqc_lp::{solve_standard_form, ConstraintOp, LpBasis, LpProblem, Sense, VarBound};
use bqc_obs::Budget;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Builds the LP "is there a polymatroid with h(V) >= 1?" — a feasibility
/// problem whose size matches the prover's programs — in the modelling layer.
fn shannon_cone_problem(n: usize, extra_disjuncts: usize) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Minimize);
    let mut columns = vec![None; 1 << n];
    for mask in 1u32..(1 << n) {
        columns[mask as usize] = Some(lp.add_variable(format!("h{mask}"), VarBound::NonNegative));
    }
    for constraint in elemental_inequalities(n) {
        let coeffs: Vec<_> = constraint
            .terms
            .iter()
            .filter_map(|(mask, coeff)| columns[*mask as usize].map(|v| (v, coeff.clone())))
            .collect();
        lp.add_constraint(coeffs, ConstraintOp::Ge, Rational::zero());
    }
    let full = (1usize << n) - 1;
    lp.add_constraint(
        vec![(columns[full].unwrap(), Rational::one())],
        ConstraintOp::Ge,
        int(1),
    );
    // Optional prover-style disjunct rows E(h) <= -1 (kept violated-feasible
    // by using singleton negative coefficients), for the warm-start scenario.
    for d in 0..extra_disjuncts {
        let var = columns[1 + (d % full)].unwrap();
        lp.add_constraint(vec![(var, int(-1))], ConstraintOp::Le, int(-1));
    }
    lp
}

/// The same cone feasibility program as an explicit dense standard form
/// (surplus column per `>=` row), the input of [`solve_standard_form`].
fn shannon_cone_standard_form(n: usize) -> (Vec<Vec<Rational>>, Vec<Rational>, Vec<Rational>) {
    let vars = (1usize << n) - 1;
    let elementals: Vec<_> = elemental_inequalities(n).into_iter().collect();
    let rows = elementals.len() + 1;
    let cols = vars + rows;
    let mut a = vec![vec![Rational::zero(); cols]; rows];
    for (i, constraint) in elementals.iter().enumerate() {
        for (mask, coeff) in &constraint.terms {
            if *mask != 0 {
                a[i][*mask as usize - 1] = coeff.clone();
            }
        }
        a[i][vars + i] = -Rational::one();
    }
    let last = rows - 1;
    a[last][vars - 1] = Rational::one();
    a[last][vars + last] = -Rational::one();
    let mut b = vec![Rational::zero(); rows];
    b[last] = Rational::one();
    let c = vec![Rational::zero(); cols];
    (a, b, c)
}

fn bench_shannon_cone(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/shannon_cone_feasibility");
    group.sample_size(10);
    for n in [3usize, 4, 5, 6] {
        let (a, b, cost) = shannon_cone_standard_form(n);
        group.bench_with_input(BenchmarkId::new("revised", n), &n, |bencher, _| {
            bencher.iter(|| {
                assert!(matches!(
                    solve_standard_form(&a, &b, &cost),
                    bqc_lp::SimplexOutcome::Optimal { .. }
                ))
            })
        });
    }
    group.finish();
}

/// The chain Shannon inequality `h(V0) + Σ h(V_{i+1}|V_i) ≥ h(V)` — valid,
/// with a Farkas certificate combining Θ(n²) elemental rows, i.e. the
/// *deep* validity shape the containment inequalities of Theorem 4.2
/// produce on path-shaped junction trees.
fn chain_inequality(n: usize) -> MaxInequality {
    let universe: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), [universe[0].clone()]);
    for i in 0..n - 1 {
        expr.add_term(int(1), [universe[i].clone(), universe[i + 1].clone()]);
        expr.add_term(int(-1), [universe[i].clone()]);
    }
    expr.add_term(int(-1), universe.clone());
    LinearInequality::new(universe, expr).to_max()
}

/// An invalid inequality (`h(V) ≤ h(V0)`) whose refutation needs a
/// polymatroid counterexample from deep inside the cone.
fn refuted_inequality(n: usize) -> MaxInequality {
    let universe: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), [universe[0].clone()]);
    expr.add_term(int(-1), universe.clone());
    LinearInequality::new(universe, expr).to_max()
}

/// One lazy-separation probe on `prover`.
fn lazy(prover: &mut GammaProver, inequality: &MaxInequality) -> GammaValidity {
    prover
        .check_max_inequality(inequality, &Budget::unlimited())
        .unwrap()
}

/// One eager full-cone check.
fn eager(inequality: &MaxInequality) -> GammaValidity {
    check_max_inequality_eager(inequality, &Budget::unlimited()).unwrap()
}

fn bench_gamma_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/gamma_validity");
    group.sample_size(10);
    let valid6 = chain_inequality(6);
    let refute6 = refuted_inequality(6);
    // Eager baseline: materialize all n + C(n,2)·2^{n−2} elemental rows per
    // probe.  n = 7 (679 rows) is excluded — it is exactly the wall the lazy
    // prover removes.
    group.bench_with_input(BenchmarkId::new("eager", 6), &6, |b, _| {
        b.iter(|| assert!(eager(&valid6).is_valid()))
    });
    group.bench_with_input(BenchmarkId::new("refute_eager", 6), &6, |b, _| {
        b.iter(|| assert!(!eager(&refute6).is_valid()))
    });
    for n in [6usize, 7] {
        let valid = chain_inequality(n);
        let refute = refuted_inequality(n);
        // Cold: a fresh prover per probe (first-contact latency).
        group.bench_with_input(BenchmarkId::new("lazy_cold", n), &n, |b, _| {
            b.iter(|| assert!(lazy(&mut GammaProver::new(), &valid).is_valid()))
        });
        // Warm: one prover reused across probes of the same shape — the
        // batch-serving path (bqc-engine worker contexts).  The CI gate
        // requires warm ≥ 5× eager at n = 6.
        let mut warm = GammaProver::new();
        assert!(lazy(&mut warm, &valid).is_valid());
        group.bench_with_input(BenchmarkId::new("lazy_warm", n), &n, |b, _| {
            b.iter(|| assert!(lazy(&mut warm, &valid).is_valid()))
        });
        if n == 6 {
            let mut warm_refute = GammaProver::new();
            assert!(!lazy(&mut warm_refute, &refute).is_valid());
            group.bench_with_input(BenchmarkId::new("refute_lazy_warm", n), &n, |b, _| {
                b.iter(|| assert!(!lazy(&mut warm_refute, &refute).is_valid()))
            });
        } else {
            // Warm refutation state mutates between repeats (the active set
            // keeps shifting around the counterexample vertex), which makes
            // a warm n = 7 scenario too noisy to gate; the cold one-shot is
            // deterministic.
            group.bench_with_input(BenchmarkId::new("refute_lazy_cold", n), &n, |b, _| {
                b.iter(|| assert!(!lazy(&mut GammaProver::new(), &refute).is_valid()))
            });
        }
    }
    group.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/warm_start");
    group.sample_size(10);
    for n in [4usize, 5] {
        let lp = shannon_cone_problem(n, 2);
        let unlimited = Budget::unlimited();
        let (solution, basis) = lp.solve_from(None, &unlimited).unwrap();
        assert!(solution.is_optimal());
        let basis: LpBasis = basis.expect("cone probe has a clean optimal basis");
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |bencher, _| {
            bencher.iter(|| assert!(lp.solve_from(None, &unlimited).unwrap().0.is_optimal()))
        });
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |bencher, _| {
            bencher.iter(|| {
                assert!(lp
                    .solve_from(Some(&basis), &unlimited)
                    .unwrap()
                    .0
                    .is_optimal())
            })
        });
    }
    group.finish();
}

fn random_lp(variables: usize, constraints: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Sense::Maximize);
    let vars: Vec<_> = (0..variables)
        .map(|i| lp.add_variable(format!("x{i}"), VarBound::NonNegative))
        .collect();
    lp.set_objective(
        vars.iter()
            .map(|&v| (v, int(rng.gen_range(1..5))))
            .collect::<Vec<_>>(),
    );
    for _ in 0..constraints {
        let coeffs: Vec<_> = vars
            .iter()
            .map(|&v| (v, int(rng.gen_range(0..4))))
            .collect();
        lp.add_constraint(coeffs, ConstraintOp::Le, int(rng.gen_range(5..20)));
    }
    lp
}

fn bench_random_lps(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/random_dense");
    group.sample_size(10);
    for size in [10usize, 20, 30] {
        let lp = random_lp(size, size, size as u64);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let solution = lp.solve();
                assert!(solution.is_optimal());
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
    targets = bench_shannon_cone, bench_gamma_validity, bench_warm_start, bench_random_lps
}
criterion_main!(benches);
