//! The lazy separation loop against the eager Γ_n cone.
//!
//! Two independently built deciders must agree on Shannon-provability for
//! every inequality: the production prover solves a growing relaxation with
//! separation ([`bqc_iip::GammaProver`]), the seed implementation
//! materializes all `n + C(n,2)·2^{n−2}` elemental rows up front
//! ([`bqc_iip::check_max_inequality_eager`]).  Verdicts must match
//! exactly; counterexamples may be different vertices of the violating
//! region, so each is checked *semantically* instead — it must be a genuine
//! polymatroid ([`bqc_entropy::is_polymatroid`]) on which every disjunct
//! evaluates ≤ −1.

use bqc_arith::{int, Rational};
use bqc_entropy::{is_polymatroid, EntropyExpr, SetFunction};
use bqc_iip::{
    check_max_inequality_eager, GammaProver, GammaValidity, LinearInequality, MaxInequality,
};
use bqc_obs::Budget;
use proptest::prelude::*;

/// The lazy separation loop on a fresh (history-free) prover.
fn lazy(max: &MaxInequality) -> GammaValidity {
    GammaProver::new()
        .check_max_inequality(max, &Budget::unlimited())
        .expect("unlimited budget")
}

/// The eager full-cone checker.
fn eager(max: &MaxInequality) -> GammaValidity {
    check_max_inequality_eager(max, &Budget::unlimited()).expect("unlimited budget")
}

fn universe(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("X{i}")).collect()
}

/// Builds an [`EntropyExpr`] from `(mask, coeff)` pairs over `X0..X{n−1}`.
fn expr_from_masks(n: usize, terms: &[(u32, i64)]) -> EntropyExpr {
    let mut e = EntropyExpr::zero();
    for (mask, coeff) in terms {
        if *coeff == 0 {
            continue;
        }
        let mask = 1 + (mask % ((1u32 << n) - 1));
        let set: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| format!("X{i}"))
            .collect();
        e.add_term(int(*coeff), set);
    }
    e
}

/// Asserts a counterexample is semantically valid for a max-inequality.
fn assert_counterexample(max: &MaxInequality, h: &SetFunction) {
    assert!(is_polymatroid(h), "counterexample must be a polymatroid");
    for disjunct in &max.disjuncts {
        assert!(
            disjunct.evaluate(h) <= -Rational::one(),
            "every disjunct must evaluate <= -1"
        );
    }
    assert!(max.evaluate(h).is_negative());
}

/// The two checkers on one max-inequality, cross-validated.
fn assert_equivalent(max: &MaxInequality) {
    let lazy = lazy(max);
    let eager = eager(max);
    assert_eq!(
        lazy.is_valid(),
        eager.is_valid(),
        "lazy and eager verdicts must agree on {max:?}"
    );
    if let GammaValidity::NotShannonProvable { counterexample } = &lazy {
        assert_counterexample(max, counterexample);
    }
    if let GammaValidity::NotShannonProvable { counterexample } = &eager {
        assert_counterexample(max, counterexample);
    }
}

proptest! {
    /// Random linear inequalities over 2..=5 variables.
    #[test]
    fn lazy_matches_eager_on_random_linear_inequalities(
        n in 2usize..6,
        terms in proptest::collection::vec((0u32..31, -3i64..4), 1..6),
    ) {
        let expr = expr_from_masks(n, &terms);
        let ineq = LinearInequality::new(universe(n), expr);
        assert_equivalent(&ineq.to_max());
    }

    /// Random max-inequalities with several disjuncts: validity of the max
    /// is weaker than validity of any disjunct, so these exercise the
    /// all-disjuncts-simultaneously-violated geometry.
    #[test]
    fn lazy_matches_eager_on_random_max_inequalities(
        n in 2usize..5,
        disjuncts in proptest::collection::vec(
            proptest::collection::vec((0u32..15, -2i64..3), 1..4),
            1..4,
        ),
    ) {
        let exprs: Vec<EntropyExpr> = disjuncts
            .iter()
            .map(|terms| expr_from_masks(n, terms))
            .collect();
        let max = MaxInequality::new(universe(n), exprs);
        assert_equivalent(&max);
    }

    /// A warm (stateful) prover fed a random probe sequence must return the
    /// same verdicts as the eager cone on every probe, whatever separation
    /// state its cache carries over.
    #[test]
    fn warm_prover_matches_eager_across_random_sequences(
        n in 2usize..5,
        sequence in proptest::collection::vec(
            proptest::collection::vec((0u32..15, -2i64..3), 1..5),
            2..6,
        ),
    ) {
        let mut prover = GammaProver::new();
        for terms in &sequence {
            let ineq = LinearInequality::new(universe(n), expr_from_masks(n, terms));
            let warm = prover
                .check_linear_inequality(&ineq, &Budget::unlimited())
                .unwrap();
            prop_assert_eq!(warm.is_valid(), eager(&ineq.to_max()).is_valid());
            if let GammaValidity::NotShannonProvable { counterexample } = &warm {
                assert_counterexample(&ineq.to_max(), counterexample);
            }
        }
    }
}

/// Regression: the Zhang–Yeung non-Shannon inequality must still yield a
/// polymatroid counterexample under lazy separation (it is the classic case
/// where `Γ*_4 ⊊ Γ_4`, so certifying validity here would be a soundness bug
/// in the separation loop's termination condition).
#[test]
fn zhang_yeung_still_yields_a_counterexample_under_separation() {
    let universe = universe(4);
    let names = ["X0", "X1", "X2", "X3"];
    let mut e = EntropyExpr::zero();
    let mi = |e: &mut EntropyExpr, coeff: i64, a: &[usize], b: &[usize], cond: &[usize]| {
        let join = |xs: &[usize], ys: &[usize]| -> Vec<String> {
            let mut v: Vec<String> = xs.iter().map(|&i| names[i].to_string()).collect();
            for &y in ys {
                if !v.contains(&names[y].to_string()) {
                    v.push(names[y].to_string());
                }
            }
            v
        };
        e.add_term(int(coeff), join(a, cond));
        e.add_term(int(coeff), join(b, cond));
        let ab: Vec<usize> = a.iter().chain(b).copied().collect();
        e.add_term(int(-coeff), join(&ab, cond));
        e.add_term(int(-coeff), join(cond, &[]));
    };
    // 2 I(C;D) <= I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B), with
    // (A, B, C, D) = (X0, X1, X2, X3).
    mi(&mut e, 1, &[0], &[1], &[]);
    mi(&mut e, 1, &[0], &[2, 3], &[]);
    mi(&mut e, 3, &[2], &[3], &[0]);
    mi(&mut e, 1, &[2], &[3], &[1]);
    mi(&mut e, -2, &[2], &[3], &[]);
    let ineq = LinearInequality::new(universe, e);

    let lazy = lazy(&ineq.to_max());
    assert!(!lazy.is_valid(), "Zhang–Yeung is not Shannon-provable");
    assert!(!eager(&ineq.to_max()).is_valid());
    let h = lazy.counterexample().expect("violating polymatroid");
    assert!(is_polymatroid(h));
    assert!(ineq.evaluate(h) <= -int(1));
}

/// The textbook valid/invalid pairs, checked through both paths and through
/// a shared warm prover, including repeated probes of the same shape (the
/// warm cache's fast path).
#[test]
fn curated_suite_agrees_with_warm_and_cold_provers() {
    let cases: Vec<(usize, Vec<(u32, i64)>)> = vec![
        // Submodularity (valid): h(X0) + h(X1) - h(X0X1) >= 0, masks 1, 2, 3.
        (3, vec![(0, 1), (1, 1), (2, -1)]),
        // Supermodularity (invalid).
        (3, vec![(0, -1), (1, -1), (2, 1)]),
        // Monotonicity at the top (valid): h(V) - h(X0X1) >= 0.
        (3, vec![(6, 1), (2, -1)]),
        // h(X0) - h(V) >= 0 (invalid).
        (3, vec![(0, 1), (6, -1)]),
    ];
    let mut prover = GammaProver::new();
    for (n, terms) in &cases {
        let ineq = LinearInequality::new(universe(*n), expr_from_masks(*n, terms));
        let eager = eager(&ineq.to_max());
        for _ in 0..3 {
            let warm = prover
                .check_linear_inequality(&ineq, &Budget::unlimited())
                .unwrap();
            assert_eq!(warm.is_valid(), eager.is_valid());
        }
    }
    assert!(prover.cached_bases() >= 1);
}
